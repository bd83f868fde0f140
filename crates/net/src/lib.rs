//! # st-net
//!
//! Network substrate for the ShadowTutor reproduction.
//!
//! The paper runs the client and server over Wi-Fi with uplink and downlink
//! capped at 80 Mbps and studies how the system behaves when that bandwidth
//! shrinks (Figure 4). This crate models exactly the pieces the evaluation
//! needs:
//!
//! * [`link`] — a bandwidth/latency link model that converts message sizes
//!   into transfer times (`t_net` in the paper's Table 1), supporting
//!   asymmetric uplink/downlink and a base round-trip latency.
//! * [`message`] — the messages exchanged by the client and server (key
//!   frames up, weight diffs + metric down) and their wire sizes, which feed
//!   Table 4.
//! * [`wire`] — the versioned binary wire format: a hand-rolled
//!   little-endian encoding ([`wire::Wire`]) with magic + version framing
//!   and typed decode errors ([`wire::WireError`]). This is what actually
//!   crosses a process boundary, and what the measured traffic numbers
//!   (Tables 4/5) count.
//! * [`transport`] — the [`transport::Transport`] backend seam and the
//!   [`transport::Endpoint`] protocol endpoint over it, constructed through
//!   the [`connect()`] builder. The default backend is the in-process
//!   channel pair ([`transport::DuplexTransport`]).
//! * [`ring`] — the lock-free bounded-ring algorithm itself, generic over
//!   its storage ([`ring::RingMem`]): the shared-memory backend runs it over
//!   a mapped segment and the model-check suite runs the same code over
//!   instrumented atomics.
//! * [`shm`] — the cross-process backend: a lock-free circular-array ring
//!   over a file-backed shared-memory segment ([`shm::ShmTransport`]), so
//!   client and pool can run as separate OS processes.
//! * [`poll`] — a readiness interface ([`poll::Poller`] / [`poll::ReadySet`])
//!   for reactor-style consumers: the sender wakes the receiver's token
//!   after every send (the `shadowtutor` crate's server pool wires its
//!   channels so) and one thread — or a fixed worker set — can multiplex
//!   thousands of mostly-idle endpoints without spinning `try_recv` or
//!   parking a thread per endpoint.
//!
//! The frame-stepped runtime in the `shadowtutor` crate uses only [`link`],
//! as an input of the paper's execution-time model; the threaded runtimes
//! use [`message`] and [`transport`].
//!
//! The multi-stream server pool additionally uses the stream-tagged
//! envelope ([`message::StreamTagged`]) and the backpressure acks
//! ([`message::ServerToClient::Throttle`] / [`message::ServerToClient::Dropped`]);
//! see `docs/ARCHITECTURE.md` at the workspace root for how a key frame
//! flows through them.

// Every public item of the wire-protocol crate must be documented: the
// messages *are* the protocol specification.
#![warn(missing_docs)]
// Unsafe operations inside `unsafe fn` bodies must be wrapped in explicit
// `unsafe {}` blocks (each carrying its own `// SAFETY:` comment — enforced
// by `st-lint`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod link;
pub mod message;
pub mod poll;
pub mod ring;
pub mod shm;
pub mod transport;
pub mod wire;

pub use link::{Bandwidth, LinkModel};
pub use message::{
    ClientToServer, DropReason, KeyFrameTraffic, NaiveTraffic, Payload, ServerToClient, StreamId,
    StreamTagged,
};
pub use poll::{Poller, ReadySet, Waker};
pub use shm::{ShmConfig, ShmSide, ShmTransport};
pub use transport::{
    connect, ClientEndpoint, Connector, DuplexTransport, Endpoint, Transport, TransportError,
};
pub use wire::{Wire, WireError};

/// Result alias re-using the tensor error type for shape-ish failures.
pub type Result<T> = st_tensor::Result<T>;
