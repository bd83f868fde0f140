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
//!   implementation below makes every `Endpoint` a `ClientEndpoint`, and
//!   [`ChannelClient`] names the default concrete shape. Construct either
//!   through the [`connect()`] builder.

use crate::message::{ClientToServer, ServerToClient};
use crate::wire::frame_len;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::fmt;
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
/// the in-process [`DuplexTransport`] (typed crossbeam channels, the
/// default) and the cross-process [`ShmTransport`](crate::shm::ShmTransport)
/// (every message crosses as its framed binary encoding through a
/// lock-free shared-memory ring). Protocol code never talks to a backend
/// directly — it goes through an [`Endpoint`], which adds the byte
/// accounting.
pub trait Transport<S, R> {
    /// Send a message annotated with its *modelled* wire size (the size the
    /// virtual-time link model charges; measured bytes are the
    /// [`Endpoint`]'s business).
    fn send(&mut self, message: S, bytes: usize) -> Result<(), TransportError>;

    /// Non-blocking receive. `Ok(None)` means no message is waiting.
    fn try_recv(&mut self) -> Result<Option<R>, TransportError>;

    /// Blocking receive with a timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<R, TransportError>;

    /// Arrange for `waker.wake()` to fire whenever a message becomes
    /// receivable on this endpoint, returning `true` if the backend can
    /// signal receiver-side readiness. The shared-memory backend spawns a
    /// spin-then-park notifier; the channel backend returns `false` because
    /// its readiness is wired at pair-creation time from the *sender* side
    /// ([`DuplexTransport::wake_on_send`] on the peer), which the
    /// [`connect()`] builder does for you.
    fn wake_on_message(&mut self, waker: crate::poll::Waker) -> bool {
        let _ = waker;
        false
    }
}

/// The client-side view of a transport: what Algorithm 4's message loop
/// needs, independently of whether the peer is a dedicated server thread
/// (the single-stream [`DuplexTransport`]) or a stream-multiplexed worker
/// pool (the `shadowtutor` crate's `StreamClient`).
///
/// The trait is a thin veneer over [`Endpoint`]: every `Endpoint<T>`
/// implements it via the blanket impl
/// below, and [`ChannelClient`] is the default concrete shape produced by
/// [`connect()`]. The trait itself survives for the places that implement
/// the protocol without a backend at all (the pool's `StreamClient`,
/// scripted endpoints in tests).
pub trait ClientEndpoint {
    /// Send a client → server message annotated with its wire size.
    fn send(&mut self, message: crate::ClientToServer, bytes: usize) -> Result<(), TransportError>;

    /// Non-blocking receive. `Ok(None)` means no message is waiting.
    fn try_recv(&mut self) -> Result<Option<crate::ServerToClient>, TransportError>;

    /// Blocking receive with a timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<crate::ServerToClient, TransportError>;

    /// Attempt to re-establish a dropped connection. The default refuses —
    /// most endpoints (a channel pair, a shared-memory ring) cannot re-dial
    /// a dead peer. Endpoints that *can* (the pool's `StreamClient`, whose
    /// route is re-pointed at a warm standby during failover) override this;
    /// `Ok(())` means the endpoint is usable again and the caller may resume
    /// sending. Callers retry with backoff, not in a tight loop.
    fn reconnect(&mut self) -> Result<(), TransportError> {
        Err(TransportError::Disconnected)
    }
}

impl ClientEndpoint for DuplexTransport<crate::ClientToServer, crate::ServerToClient> {
    fn send(&mut self, message: crate::ClientToServer, bytes: usize) -> Result<(), TransportError> {
        DuplexTransport::send(self, message, bytes)
    }

    fn try_recv(&mut self) -> Result<Option<crate::ServerToClient>, TransportError> {
        DuplexTransport::try_recv(self)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<crate::ServerToClient, TransportError> {
        DuplexTransport::recv_timeout(self, timeout)
    }
}

/// One endpoint of a bidirectional, typed channel pair.
#[derive(Debug)]
pub struct DuplexTransport<TSend, TRecv> {
    tx: Sender<(usize, TSend)>,
    rx: Receiver<(usize, TRecv)>,
    /// Readiness hook: woken after every send so the *peer's* poller learns
    /// a message is waiting (see [`DuplexTransport::wake_on_send`]).
    waker: Option<crate::poll::Waker>,
    sent_bytes: usize,
    received_bytes: usize,
    sent_messages: usize,
    received_messages: usize,
}

impl<TSend, TRecv> DuplexTransport<TSend, TRecv> {
    /// Create a connected pair of endpoints: `(a, b)` where messages sent on
    /// `a` arrive at `b` and vice versa.
    pub fn pair() -> (DuplexTransport<TSend, TRecv>, DuplexTransport<TRecv, TSend>) {
        let (tx_ab, rx_ab) = unbounded();
        let (tx_ba, rx_ba) = unbounded();
        (
            DuplexTransport {
                tx: tx_ab,
                rx: rx_ba,
                waker: None,
                sent_bytes: 0,
                received_bytes: 0,
                sent_messages: 0,
                received_messages: 0,
            },
            DuplexTransport {
                tx: tx_ba,
                rx: rx_ab,
                waker: None,
                sent_bytes: 0,
                received_bytes: 0,
                sent_messages: 0,
                received_messages: 0,
            },
        )
    }

    /// Attach a readiness waker fired after every send on *this* endpoint,
    /// so the peer's [`crate::poll::Poller`] learns a message is waiting.
    /// This is how a reactor multiplexes many transports: each peer
    /// registers a token for its counterpart's sender and sleeps in one
    /// `poll` instead of blocking per endpoint.
    pub fn wake_on_send(mut self, waker: crate::poll::Waker) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Send a message annotated with its wire size in bytes.
    pub fn send(&mut self, message: TSend, bytes: usize) -> Result<(), TransportError> {
        self.tx
            .send((bytes, message))
            .map_err(|_| TransportError::Disconnected)?;
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        self.sent_bytes += bytes;
        self.sent_messages += 1;
        Ok(())
    }

    /// Non-blocking receive. `Ok(None)` means no message is waiting.
    pub fn try_recv(&mut self) -> Result<Option<TRecv>, TransportError> {
        match self.rx.try_recv() {
            Ok((bytes, msg)) => {
                self.received_bytes += bytes;
                self.received_messages += 1;
                Ok(Some(msg))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Blocking receive with a timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<TRecv, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok((bytes, msg)) => {
                self.received_bytes += bytes;
                self.received_messages += 1;
                Ok(msg)
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Total bytes sent so far.
    pub fn sent_bytes(&self) -> usize {
        self.sent_bytes
    }

    /// Total bytes received so far.
    pub fn received_bytes(&self) -> usize {
        self.received_bytes
    }

    /// Number of messages sent so far.
    pub fn sent_messages(&self) -> usize {
        self.sent_messages
    }

    /// Number of messages received so far.
    pub fn received_messages(&self) -> usize {
        self.received_messages
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

/// The default client transport: typed in-process channels.
pub type ChannelTransport = DuplexTransport<ClientToServer, ServerToClient>;

/// The server-side counterpart of [`ChannelTransport`].
pub type ServerChannel = DuplexTransport<ServerToClient, ClientToServer>;

/// The default concrete client endpoint: byte accounting over the
/// in-process channel backend. This is what "`ClientEndpoint`" means when
/// nothing else is specified.
pub type ChannelClient = Endpoint<ChannelTransport>;

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

    /// Borrow the backend (e.g. for its own counters).
    pub fn transport(&self) -> &T {
        &self.transport
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
/// use st_net::{connect, ClientEndpoint, ClientToServer, Poller};
/// use std::time::Duration;
///
/// // Default in-process backend: a connected (client, server) pair.
/// let poller = Poller::new();
/// let (mut client, mut server) = connect().with_waker(poller.waker(0)).channel();
/// client.send(ClientToServer::Register, 64).unwrap();
/// let registered = server.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!(registered, ClientToServer::Register);
/// ```
///
/// For the cross-process backend, hand the builder a transport:
/// `connect().with_transport(shm_transport)`.
pub fn connect() -> Connector {
    Connector { waker: None }
}

/// Builder returned by [`connect()`].
#[derive(Debug, Default)]
pub struct Connector {
    waker: Option<crate::poll::Waker>,
}

impl Connector {
    /// Wake this [`Poller`](crate::poll::Poller) token whenever a
    /// server → client message becomes receivable, so a reactor can
    /// multiplex many clients from one thread.
    pub fn with_waker(mut self, waker: crate::poll::Waker) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Finish with the default in-process channel backend, returning the
    /// client endpoint and the server-side channel half.
    pub fn channel(self) -> (ChannelClient, ServerChannel) {
        let (client_side, mut server_side) = DuplexTransport::pair();
        if let Some(waker) = self.waker {
            // Channel readiness is sender-side: the server half wakes the
            // client's poller token on every downlink send.
            server_side = server_side.wake_on_send(waker);
        }
        (Endpoint::new(client_side), server_side)
    }

    /// Finish with an explicit backend (e.g.
    /// [`ShmTransport`](crate::shm::ShmTransport) for the cross-process
    /// ring). A waker set with [`Connector::with_waker`] is handed to
    /// [`Transport::wake_on_message`].
    pub fn with_transport<T>(self, mut transport: T) -> Endpoint<T>
    where
        T: Transport<ClientToServer, ServerToClient>,
    {
        if let Some(waker) = self.waker {
            transport.wake_on_message(waker);
        }
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
        assert_eq!(a.sent_bytes(), 5);
        assert_eq!(a.received_bytes(), 4);
        assert_eq!(b.sent_messages(), 1);
        assert_eq!(b.received_messages(), 1);
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
    fn wake_on_send_marks_the_peer_ready() {
        use crate::poll::Poller;
        let poller = Poller::new();
        let (a, mut b) = DuplexTransport::<u8, u8>::pair();
        // Token 0 stands for endpoint `b`'s readiness; endpoint `a` wakes it
        // on every send. A reactor multiplexing many `b`-side endpoints
        // sleeps in one poll instead of blocking per endpoint.
        let mut a = a.wake_on_send(poller.waker(0));
        assert!(poller.poll(Duration::from_millis(1)).is_empty());
        a.send(42, 1).unwrap();
        let ready = poller.poll(Duration::from_secs(1));
        assert_eq!(ready.tokens(), &[0]);
        assert_eq!(b.try_recv().unwrap(), Some(42));
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
            b.received_messages()
        });
        let mut value = 0u32;
        for _ in 0..5 {
            a.send(value, 4).unwrap();
            value = a.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(value, 5);
        assert_eq!(handle.join().unwrap(), 5);
    }
}
