//! Analytic bound on shard-failover takeover latency.
//!
//! The live pool's failover path (see `docs/ARCHITECTURE.md`, "Failure
//! model") has three sequential components, each with a modelled worst
//! case:
//!
//! 1. **Detection** — the warm standby notices its ward's death
//!    certificate on its next pass. The worker that catches a dying pass
//!    wakes the standby's readiness token, so an idle standby runs that
//!    pass within one [`FailoverModel::detect_tick`] (the reactor's
//!    `REACTOR_IDLE_TICK`, the longest a worker parks in the poller); a
//!    busy one may first have to finish the batch pass it is in, bounded
//!    by [`FailoverModel::pass_cost`].
//! 2. **Adoption** — claiming the carcass, flipping routes, merging
//!    mailboxes and counters: a fixed amount of pointer work, bounded by
//!    [`FailoverModel::adopt_cost`].
//! 3. **Restore** — decoding each replicated session checkpoint and
//!    re-registering the stream, linear in the number of adopted streams
//!    ([`FailoverModel::restore_cost_per_stream`]).
//!
//! [`FailoverModel::takeover_bound`] adds the three up. This is a coarse
//! *bound*, not a forecast: the chaos tests assert the pool's measured
//! takeover latency stays under it, so a regression that, say, serializes
//! restores behind an extra lock or loses the detection tick shows up as a
//! bound violation rather than an unexplained slowdown.

/// Worst-case takeover latency model for warm standby adoption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverModel {
    /// Standby duty cadence in seconds: the longest an *idle* standby goes
    /// between checks of its ward's liveness.
    pub detect_tick: f64,
    /// Worst-case cost of the batch pass the standby may be in the middle
    /// of when the ward dies, in seconds (a batched teacher forward plus
    /// its distillation steps).
    pub pass_cost: f64,
    /// Fixed adoption overhead in seconds: claiming the carcass, flipping
    /// routes, merging mailbox/meters, re-queuing parked jobs.
    pub adopt_cost: f64,
    /// Per-adopted-stream restore cost in seconds: decoding the replicated
    /// checkpoint chunks and re-registering the session.
    pub restore_cost_per_stream: f64,
}

impl FailoverModel {
    /// Defaults matching the live pool's constants: a 50 ms worst-case
    /// detection tick (the reactor's idle tick), a teacher-forward-sized
    /// pass and generous fixed costs. `pass_cost` should be raised to the measured
    /// batch cost when the teacher is not the paper's.
    pub fn paper_default() -> FailoverModel {
        FailoverModel {
            detect_tick: 0.050,
            pass_cost: 0.100,
            adopt_cost: 0.010,
            restore_cost_per_stream: 0.005,
        }
    }

    /// Worst-case delay between a shard's death and the standby *noticing*
    /// it: one full pass plus one idle tick.
    fn detection_bound(&self) -> f64 {
        self.pass_cost + self.detect_tick
    }

    /// Worst-case delay between a shard's death and the standby finishing
    /// adoption of `streams` streams — the quantity the pool reports as
    /// takeover latency (death certificate to takeover complete).
    pub fn takeover_bound(&self, streams: usize) -> f64 {
        self.detection_bound() + self.adopt_cost + streams as f64 * self.restore_cost_per_stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_monotonic_in_streams() {
        let m = FailoverModel::paper_default();
        assert!(m.takeover_bound(0) >= m.detection_bound());
        assert!(m.takeover_bound(8) > m.takeover_bound(1));
        let delta = m.takeover_bound(9) - m.takeover_bound(8);
        assert!((delta - m.restore_cost_per_stream).abs() < 1e-12);
    }

    #[test]
    fn paper_default_is_sub_second_for_small_pools() {
        // The chaos e2e adopts 8 streams at most; the bound must stay well
        // under a second or "bounded takeover" means nothing.
        let m = FailoverModel::paper_default();
        assert!(m.takeover_bound(8) < 0.5, "{}", m.takeover_bound(8));
    }
}
