//! Live duplex transports and the [`Transport`]/[`Endpoint`] seam.
//!
//! The threaded runtime runs the client and the server as real OS threads
//! (the paper uses OpenMPI ranks) or — with the shared-memory backend in
//! [`crate::shm`] — as separate OS processes. The pieces compose in three
//! layers:
//!
//! * [`Transport`] — the backend seam: a duplex mover of protocol messages.
//!   [`DuplexTransport`] is the in-process channel backend (the default,
//!   bit-identical to the pre-seam behaviour);
//!   [`ShmTransport`](crate::shm::ShmTransport) moves real encoded frames
//!   through a lock-free shared-memory ring between processes.
//! * [`Endpoint`] — a protocol endpoint over any backend, keeping
//!   byte-honest accounting ([`Endpoint::wire_sent_bytes`] /
//!   [`Endpoint::wire_received_bytes`] measure the *framed binary encoding*
//!   ([`crate::wire`]) of every message that passes, whichever backend
//!   carries it).
//! * [`ClientEndpoint`] — the trait Algorithm 4's client loop is written
//!   against. It is a thin veneer over `Endpoint<T>`: the blanket
//!   implementation below makes every `Endpoint` a `ClientEndpoint`.
//!   Construct one through the [`connect()`] builder.

use crate::message::{ClientToServer, ServerToClient};
use crate::wire::frame_len;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

/// Errors produced by the live transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint has been dropped.
    Disconnected,
    /// A blocking receive timed out.
    Timeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport peer disconnected"),
            TransportError::Timeout => write!(f, "transport receive timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The backend seam: a duplex mover of typed protocol messages.
///
/// `S` is what this side sends, `R` what it receives. Two backends exist:
/// the in-process [`DuplexTransport`] (typed `std::sync::mpsc` channels,
/// the default) and the cross-process [`ShmTransport`](crate::shm::ShmTransport)
/// (every message crosses as its framed binary encoding through a
/// lock-free shared-memory ring). Protocol code never talks to a backend
/// directly — it goes through an [`Endpoint`], which adds the byte
/// accounting.
pub trait Transport<S, R> {
    /// Send a message annotated with its *modelled* wire size. Neither
    /// backend reads it; measured bytes are the [`Endpoint`]'s business.
    fn send(&mut self, message: S, bytes: usize) -> Result<(), TransportError>;

    /// Non-blocking receive. `Ok(None)` means no message is waiting.
    fn try_recv(&mut self) -> Result<Option<R>, TransportError>;

    /// Blocking receive with a timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<R, TransportError>;
}

/// The client-side view of a transport: what Algorithm 4's message loop
/// needs, independently of whether the peer is reached over a backend
/// (an [`Endpoint`] around a channel pair or a shared-memory ring) or
/// in-process (the `shadowtutor` crate's pool `StreamClient`).
///
/// The trait is a thin veneer over [`Endpoint`]: every `Endpoint<T>`
/// implements it via the blanket impl below, and [`connect()`] produces
/// one. The trait itself survives for the places that implement
/// the protocol without a backend at all (the pool's `StreamClient`,
/// scripted endpoints in tests).
///
/// There is no re-dial: an endpoint that reports
/// [`TransportError::Disconnected`] has lost its peer for good, and the
/// client serves local-only from then on. A pool stream needs none either,
/// since a shard that recovers from a death keeps its uplink without the
/// client noticing.
pub trait ClientEndpoint {
    /// Send a client → server message annotated with its wire size.
    fn send(&mut self, message: crate::ClientToServer, bytes: usize) -> Result<(), TransportError>;

    /// Non-blocking receive. `Ok(None)` means no message is waiting.
    fn try_recv(&mut self) -> Result<Option<crate::ServerToClient>, TransportError>;

    /// Blocking receive with a timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<crate::ServerToClient, TransportError>;
}

/// One endpoint of a bidirectional, typed channel pair.
#[derive(Debug)]
pub struct DuplexTransport<TSend, TRecv> {
    tx: Sender<TSend>,
    rx: Receiver<TRecv>,
}

impl<TSend, TRecv> DuplexTransport<TSend, TRecv> {
    /// Create a connected pair of endpoints: `(a, b)` where messages sent on
    /// `a` arrive at `b` and vice versa.
    pub fn pair() -> (DuplexTransport<TSend, TRecv>, DuplexTransport<TRecv, TSend>) {
        let (tx_ab, rx_ab) = channel();
        let (tx_ba, rx_ba) = channel();
        (
            DuplexTransport {
                tx: tx_ab,
                rx: rx_ba,
            },
            DuplexTransport {
                tx: tx_ba,
                rx: rx_ab,
            },
        )
    }

    /// Send a message. `_bytes` is the modelled wire size, which no
    /// receiver reads; measured bytes are the [`Endpoint`]'s business.
    pub fn send(&mut self, message: TSend, _bytes: usize) -> Result<(), TransportError> {
        self.tx
            .send(message)
            .map_err(|_| TransportError::Disconnected)
    }

    /// Non-blocking receive. `Ok(None)` means no message is waiting.
    pub fn try_recv(&mut self) -> Result<Option<TRecv>, TransportError> {
        match self.rx.try_recv() {
            Ok(msg) => Ok(Some(msg)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<TRecv, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|err| match err {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }
}

impl<S, R> Transport<S, R> for DuplexTransport<S, R> {
    fn send(&mut self, message: S, bytes: usize) -> Result<(), TransportError> {
        DuplexTransport::send(self, message, bytes)
    }

    fn try_recv(&mut self) -> Result<Option<R>, TransportError> {
        DuplexTransport::try_recv(self)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<R, TransportError> {
        DuplexTransport::recv_timeout(self, timeout)
    }
}

/// A protocol endpoint: a [`Transport`] backend with byte-honest
/// accounting.
///
/// The endpoint counts the *framed binary encoding* of every message that
/// passes through it ([`Endpoint::wire_sent_bytes`] /
/// [`Endpoint::wire_received_bytes`]), whichever backend carries the
/// message — for the shared-memory backend those bytes physically crossed
/// the ring; for the in-process channel backend they are what *would* cross
/// a real link, measured from the same encoder. This is what makes the
/// Table 4/5 traffic numbers measured rather than modelled.
///
/// Construct endpoints through the [`connect()`] builder.
#[derive(Debug)]
pub struct Endpoint<T> {
    transport: T,
    wire_sent_bytes: usize,
    wire_received_bytes: usize,
}

impl<T> Endpoint<T> {
    /// Wrap `transport`. Prefer [`connect()`] unless you are assembling an
    /// exotic combination by hand.
    pub fn new(transport: T) -> Self {
        Endpoint {
            transport,
            wire_sent_bytes: 0,
            wire_received_bytes: 0,
        }
    }

    /// Measured bytes sent: the sum of the framed encodings of every
    /// message sent through this endpoint.
    pub fn wire_sent_bytes(&self) -> usize {
        self.wire_sent_bytes
    }

    /// Measured bytes received: the sum of the framed encodings of every
    /// message received through this endpoint.
    pub fn wire_received_bytes(&self) -> usize {
        self.wire_received_bytes
    }
}

impl<T> ClientEndpoint for Endpoint<T>
where
    T: Transport<ClientToServer, ServerToClient>,
{
    fn send(&mut self, message: ClientToServer, bytes: usize) -> Result<(), TransportError> {
        self.wire_sent_bytes += frame_len(&message);
        self.transport.send(message, bytes)
    }

    fn try_recv(&mut self) -> Result<Option<ServerToClient>, TransportError> {
        let received = self.transport.try_recv()?;
        if let Some(message) = &received {
            self.wire_received_bytes += frame_len(message);
        }
        Ok(received)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<ServerToClient, TransportError> {
        let message = self.transport.recv_timeout(timeout)?;
        self.wire_received_bytes += frame_len(&message);
        Ok(message)
    }
}

/// Start building a client connection — the single constructor surface for
/// every endpoint shape.
///
/// ```
/// use st_net::{connect, ClientEndpoint, ClientToServer, DuplexTransport};
/// use std::time::Duration;
///
/// // In-process backend: wrap the client half of a channel pair.
/// let (client_side, mut server) = DuplexTransport::pair();
/// let mut client = connect().with_transport(client_side);
/// client.send(ClientToServer::Register, 64).unwrap();
/// let registered = server.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!(registered, ClientToServer::Register);
/// assert!(client.wire_sent_bytes() > 0);
/// ```
///
/// For the cross-process backend, hand the builder a
/// [`ShmTransport`](crate::shm::ShmTransport) the same way.
pub fn connect() -> Connector {
    Connector
}

/// Builder returned by [`connect()`].
#[derive(Debug, Default)]
pub struct Connector;

impl Connector {
    /// Finish with a backend: a [`DuplexTransport`] half for the in-process
    /// channel, or a [`ShmTransport`](crate::shm::ShmTransport) for the
    /// cross-process ring.
    pub fn with_transport<T>(self, transport: T) -> Endpoint<T>
    where
        T: Transport<ClientToServer, ServerToClient>,
    {
        Endpoint::new(transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_delivers_messages_both_ways() {
        let (mut a, mut b) = DuplexTransport::<String, u32>::pair();
        a.send("hello".to_string(), 5).unwrap();
        let got = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(got, "hello");
        b.send(42u32, 4).unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(42));
        assert_eq!(a.try_recv().unwrap(), None);
    }

    #[test]
    fn disconnected_peer_is_reported() {
        let (mut a, b) = DuplexTransport::<u8, u8>::pair();
        drop(b);
        assert_eq!(a.send(1, 1), Err(TransportError::Disconnected));
        assert_eq!(a.try_recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn recv_timeout_expires() {
        let (mut a, _b) = DuplexTransport::<u8, u8>::pair();
        let err = a.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, TransportError::Timeout);
    }

    #[test]
    fn threaded_ping_pong() {
        let (mut a, mut b) = DuplexTransport::<u32, u32>::pair();
        let handle = std::thread::spawn(move || {
            // Echo server: receive n, send n+1, stop at 5 messages.
            for _ in 0..5 {
                let n = b.recv_timeout(Duration::from_secs(1)).unwrap();
                b.send(n + 1, 4).unwrap();
            }
        });
        let mut value = 0u32;
        for _ in 0..5 {
            a.send(value, 4).unwrap();
            value = a.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(value, 5);
        handle.join().unwrap();
    }
}
