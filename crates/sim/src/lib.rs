//! # st-sim
//!
//! Virtual-time substrate for deterministic throughput/traffic experiments.
//!
//! The paper's throughput and traffic numbers are functions of component
//! latencies (Table 1: `t_si`, `t_sd`, `t_ti`, `t_net`) and message sizes,
//! not of the host machine's wall clock. This crate provides:
//!
//! * [`VirtualClock`] — a monotonically advancing simulated clock with
//!   explicit event accounting.
//! * [`LatencyProfile`] — the per-component latency table. The
//!   paper-calibrated profile reproduces the measurements of §5.3
//!   (`t_si` = 143 ms, `t_sd` = 13 ms partial / 18 ms full, `t_ti` = 44 ms).
//! * [`Concurrency`] — whether the modelled client can overlap student
//!   inference with network transfers, which is exactly the degree of freedom
//!   that separates the lower and upper bounds of §4.4.
//! * [`FailoverModel`] — worst-case bound on warm-standby takeover latency
//!   (detection tick + in-flight pass + adoption + per-stream restores),
//!   which the chaos tests hold the live pool's measured takeovers under.
//!
//! Every model here is either the paper's own or a bound a test holds a
//! measurement to; a law no test checks does not belong in this crate.

pub mod clock;
pub mod failover;
pub mod profile;

pub use clock::{EventKind, EventLog, VirtualClock};
pub use failover::FailoverModel;
pub use profile::{Concurrency, LatencyProfile};
