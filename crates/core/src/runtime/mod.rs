//! Execution runtimes.
//!
//! Three runtimes drive the same client/server state machines:
//!
//! * [`sim`] — a deterministic frame-stepped runtime. Student and teacher
//!   computations really run (so accuracy, distillation steps and key-frame
//!   decisions are genuine); an update reaches the client a fixed number
//!   of frames after its key frame, and throughput is the paper's
//!   execution-time model (equation 3) over the run's trace, with
//!   [`crate::LatencyProfile`] and [`st_net::LinkModel`] as its inputs, so
//!   throughput and traffic results are independent of the host machine.
//!   `reproduce`'s tables 2–7, Figure 4, the bounds check and the stride
//!   ablation run on it; tables 8, 9, 12 and 13 drive the live pool
//!   instead.
//! * [`live`] — a threaded runtime where the clients and the server pool
//!   are real OS threads exchanging messages (the paper's OpenMPI ranks),
//!   in wall-clock time. Used by the live example and the cross-crate
//!   integration tests that exercise real concurrency.
//!   [`live::run_live_multi`] runs M concurrent streams against a sharded
//!   server pool, the scenario the `crate::serve` module exists for; the
//!   paper's one-client topology is the same call with one stream on one
//!   shard.
//! * [`shm_live`] — the two-process variant of the live runtime: the same
//!   client state machine in a *separate OS process*, connected to the
//!   server pool over a shared-memory ring ([`st_net::ShmTransport`]), so
//!   every message crosses a real process boundary through the versioned
//!   binary wire format and the traffic numbers are measured, not modelled.

pub mod live;
pub mod shm_live;
pub mod sim;
