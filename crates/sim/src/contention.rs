//! Analytic model of server-side contention under multi-stream serving.
//!
//! The paper's execution-time model (§4.4) assumes a dedicated server: the
//! key-frame round trip is `t_net + t_ti + d·t_sd` and the only question is
//! how much of it the client hides behind its own inference
//! ([`crate::Concurrency`]). When S streams share a pool of W workers, two
//! new terms appear:
//!
//! * **queueing** — a key frame may find its shard's worker busy with other
//!   streams' key frames, adding waiting time to the round trip;
//! * **batch amortization** — co-scheduled key frames share one (batched)
//!   teacher forward pass, which *reduces* the teacher component per frame.
//!
//! [`ContentionModel`] captures both with a deliberately coarse M/D/c-style
//! approximation: it is meant to predict orderings and rough magnitudes
//! (more streams per worker → longer waits; more workers → shorter), which
//! the live server-pool experiments sanity-check their measurements against.
//!
//! The model tracks the pool's scheduling generations (see
//! `docs/ARCHITECTURE.md` at the workspace root for the full lifecycle):
//!
//! * **Fair (deficit-round-robin) drain** — the live pool drains per-stream
//!   FIFO queues with per-round quanta, so a hot stream cannot inflate its
//!   shard-mates' waits the way a shared FIFO queue would. The
//!   [`ContentionModel::skewed_delay_cold_fair`] /
//!   [`ContentionModel::skewed_delay_hot_fair`] pair predicts that split,
//!   next to the [`ContentionModel::skewed_delay_fifo`] cost a FIFO drain
//!   would impose on everyone.
//! * **Reactor dispatch** — the pool's shard count is decoupled from its
//!   thread count: a fixed set of W reactor workers drains whichever shards
//!   are ready, and a shard runs on one worker at a time. One shard per
//!   worker (`shards == threads`, what `reactor_threads: None` gives) is
//!   therefore a *partitioned* queueing system (each arrival can only be
//!   served through its own shard, so a burst on one shard queues serially
//!   while other workers idle —
//!   [`ContentionModel::thread_per_shard_delay`]); many more shards than
//!   workers (a shard per stream) is a *pooled* one (an arrival waits only
//!   while **all** W workers are busy —
//!   [`ContentionModel::reactor_delay`]), at the price of a per-event
//!   dispatch overhead. At a fixed wait target the pooled law admits
//!   utilization much closer to 1, which is the analytic counterpart of the
//!   `table12_capacity` experiment
//!   ([`ContentionModel::thread_per_shard_capacity`] vs
//!   [`ContentionModel::reactor_capacity`]).

use crate::profile::{Concurrency, LatencyProfile};

/// Default marginal cost of each additional co-scheduled frame in a batched
/// teacher forward, as a fraction of a solo forward. This is the single
/// source of truth shared by the analytic [`ContentionModel`] and the
/// default `Teacher::batched_inference_latency` in `st-teacher` — tune it in
/// one place and both the live pool's accounting and the model move
/// together.
pub const DEFAULT_BATCH_MARGINAL_COST: f64 = 0.2;

/// Default per-event dispatch overhead of the reactor, in seconds: the cost
/// of waking a worker, locking the shard state and restoring its cursor
/// before any useful service happens. Dwarfed by teacher service times, but
/// kept explicit so the model cannot pretend the decoupling is free.
pub const DEFAULT_DISPATCH_OVERHEAD: f64 = 20e-6;

/// Contention model for S streams sharing W distillation workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// Number of worker threads (shards) serving key frames.
    pub workers: usize,
    /// Marginal cost of each additional co-scheduled frame in a batched
    /// teacher forward, as a fraction of a solo forward (GPU teachers are
    /// strongly sub-linear; [`DEFAULT_BATCH_MARGINAL_COST`] matches the
    /// default `Teacher::batched_inference_latency`).
    pub batch_marginal_cost: f64,
}

impl ContentionModel {
    /// A model with the default batching assumption.
    pub fn with_workers(workers: usize) -> Self {
        ContentionModel {
            workers: workers.max(1),
            batch_marginal_cost: DEFAULT_BATCH_MARGINAL_COST,
        }
    }

    /// Server service time of one key frame: the (possibly amortized)
    /// teacher share plus `steps` distillation steps.
    ///
    /// `batch` is the expected number of co-scheduled key frames; `batch <=
    /// 1` means no amortization.
    pub fn service_time(
        &self,
        profile: &LatencyProfile,
        partial: bool,
        mean_steps: f64,
        batch: f64,
    ) -> f64 {
        let b = batch.max(1.0);
        let teacher = profile.teacher_inference * (1.0 + self.batch_marginal_cost * (b - 1.0)) / b;
        teacher + mean_steps * profile.distill_step(partial)
    }

    /// Utilization of the worker pool: fraction of worker time consumed by
    /// key-frame service, given `streams` clients that each produce a key
    /// frame every `inter_arrival` seconds needing `service` seconds of work.
    pub fn utilization(&self, streams: usize, service: f64, inter_arrival: f64) -> f64 {
        if inter_arrival <= 0.0 {
            return f64::INFINITY;
        }
        streams as f64 * service / (self.workers as f64 * inter_arrival)
    }

    /// Expected queueing delay before a key frame's service starts.
    ///
    /// M/D/c-flavoured approximation: delay ≈ ρ/(1−ρ) · service/2 for
    /// utilization ρ < 1, saturating at one full busy period per competing
    /// stream when the pool is overloaded. Exact queueing theory is beside
    /// the point — the live pool's measured waits are compared against this
    /// for *ordering* and order-of-magnitude agreement.
    pub fn queueing_delay(&self, streams: usize, service: f64, inter_arrival: f64) -> f64 {
        self.delay_for(streams as f64, service, inter_arrival)
    }

    /// The delay law above for a (possibly fractional) effective stream
    /// count — the shared core of the uniform and skewed predictions.
    fn delay_for(&self, offered_streams: f64, service: f64, inter_arrival: f64) -> f64 {
        if inter_arrival <= 0.0 {
            let competitors = ((offered_streams / self.workers as f64) - 1.0).max(0.0);
            return competitors * service;
        }
        let rho = offered_streams * service / (self.workers as f64 * inter_arrival);
        let competitors = ((offered_streams / self.workers as f64) - 1.0).max(0.0);
        let saturated = competitors * service;
        if rho >= 1.0 {
            saturated
        } else {
            (rho / (1.0 - rho) * service / 2.0).min(saturated)
        }
    }

    /// Effective uniform-rate stream count of a skewed population: `streams`
    /// clients where one hot stream sends `hot_multiplier`× the base
    /// key-frame rate contributes the same total arrival rate as this many
    /// well-behaved streams.
    pub fn skewed_offered_streams(streams: usize, hot_multiplier: f64) -> f64 {
        if streams == 0 {
            return 0.0;
        }
        (streams - 1) as f64 + hot_multiplier.max(1.0)
    }

    /// Utilization under a skewed population (one hot stream at
    /// `hot_multiplier`× the base rate).
    pub fn skewed_utilization(
        &self,
        streams: usize,
        hot_multiplier: f64,
        service: f64,
        inter_arrival: f64,
    ) -> f64 {
        self.utilization_rate(
            Self::skewed_offered_streams(streams, hot_multiplier),
            service,
            inter_arrival,
        )
    }

    /// Predicted queueing delay under a **FIFO** drain with a skewed
    /// population: one shared queue, so the hot stream's excess arrivals
    /// inflate every stream's wait equally — hot and cold alike pay for the
    /// hot stream's behaviour. This is what PR 2's pool did.
    pub fn skewed_delay_fifo(
        &self,
        streams: usize,
        hot_multiplier: f64,
        service: f64,
        inter_arrival: f64,
    ) -> f64 {
        self.delay_for(
            Self::skewed_offered_streams(streams, hot_multiplier),
            service,
            inter_arrival,
        )
    }

    /// Predicted queueing delay of a **cold** stream under a fair
    /// (deficit-round-robin) drain: the scheduler caps the hot stream at its
    /// per-round share, so a cold stream waits as if the population were
    /// uniform — independent of the hot multiplier. The fairness property the
    /// live pool's skew tests assert is exactly this prediction.
    pub fn skewed_delay_cold_fair(&self, streams: usize, service: f64, inter_arrival: f64) -> f64 {
        self.delay_for(streams as f64, service, inter_arrival)
    }

    /// Predicted queueing delay of the **hot** stream under a fair drain: it
    /// competes for shared slots like everyone else, but its excess arrivals
    /// queue behind each other — roughly `hot_multiplier − 1` of its own
    /// jobs ahead of a new one once its fair share is saturated. The hot
    /// stream bears the cost of its own burstiness instead of spreading it.
    pub fn skewed_delay_hot_fair(
        &self,
        streams: usize,
        hot_multiplier: f64,
        service: f64,
        inter_arrival: f64,
    ) -> f64 {
        self.skewed_delay_cold_fair(streams, service, inter_arrival)
            + (hot_multiplier.max(1.0) - 1.0) * service
    }

    /// Predicted queueing delay under the **thread-per-shard** topology:
    /// `workers` reactor threads hosting exactly as many shards, with the
    /// stream population spread evenly across them. Each shard is its own
    /// single-server queue — a momentary burst on one shard queues serially
    /// behind that shard even while every other worker idles. (This is exactly the
    /// partition-equivalent [`ContentionModel::queueing_delay`] law, named
    /// for the comparison.)
    pub fn thread_per_shard_delay(&self, streams: usize, service: f64, inter_arrival: f64) -> f64 {
        self.delay_for(streams as f64, service, inter_arrival)
    }

    /// Predicted queueing delay under the pooled **reactor** topology: the
    /// same `workers` threads, but hosting many more shards than workers
    /// and draining whichever are ready. The system is pooled — an arriving key frame
    /// waits only while *all* W workers are busy, so below saturation the
    /// queueing term shrinks by the worker count relative to the partitioned
    /// law (M/D/c against c independent M/D/1 queues at equal utilization).
    /// Every event also pays `dispatch_overhead` seconds of reactor
    /// bookkeeping on top of its service; at saturation the work limit is
    /// the same as thread-per-shard's — decoupling buys burst absorption,
    /// not throughput.
    pub fn reactor_delay(
        &self,
        streams: usize,
        service: f64,
        inter_arrival: f64,
        dispatch_overhead: f64,
    ) -> f64 {
        let service = service + dispatch_overhead.max(0.0);
        let offered = streams as f64;
        if inter_arrival <= 0.0 {
            return self.delay_for(offered, service, inter_arrival);
        }
        let workers = self.workers as f64;
        let rho = offered * service / (workers * inter_arrival);
        let saturated = ((offered / workers) - 1.0).max(0.0) * service;
        if rho >= 1.0 {
            saturated
        } else {
            (rho / (1.0 - rho) * service / (2.0 * workers)).min(saturated)
        }
    }

    /// Largest stream count whose [`thread_per_shard_delay`] stays within
    /// `target` seconds of queueing. Zero if even a lone stream misses it.
    ///
    /// [`thread_per_shard_delay`]: ContentionModel::thread_per_shard_delay
    pub fn thread_per_shard_capacity(
        &self,
        target: f64,
        service: f64,
        inter_arrival: f64,
    ) -> usize {
        capacity_where(target, |streams| {
            self.thread_per_shard_delay(streams, service, inter_arrival)
        })
    }

    /// Largest stream count whose [`reactor_delay`] stays within `target`
    /// seconds of queueing. At tight targets (small relative to the service
    /// time) this approaches `workers` × the thread-per-shard capacity —
    /// the pooled law tolerates utilization W times closer to the knee.
    ///
    /// [`reactor_delay`]: ContentionModel::reactor_delay
    pub fn reactor_capacity(
        &self,
        target: f64,
        service: f64,
        inter_arrival: f64,
        dispatch_overhead: f64,
    ) -> usize {
        capacity_where(target, |streams| {
            self.reactor_delay(streams, service, inter_arrival, dispatch_overhead)
        })
    }

    /// Utilization for a fractional effective stream count.
    fn utilization_rate(&self, offered_streams: f64, service: f64, inter_arrival: f64) -> f64 {
        if inter_arrival <= 0.0 {
            return f64::INFINITY;
        }
        offered_streams * service / (self.workers as f64 * inter_arrival)
    }

    /// The key-frame round trip under contention: network + queueing +
    /// service.
    #[allow(clippy::too_many_arguments)]
    pub fn round_trip(
        &self,
        profile: &LatencyProfile,
        partial: bool,
        mean_steps: f64,
        batch: f64,
        streams: usize,
        inter_arrival: f64,
        t_net: f64,
    ) -> f64 {
        let service = self.service_time(profile, partial, mean_steps, batch);
        t_net + self.queueing_delay(streams, service, inter_arrival) + service
    }

    /// Predicted per-stream execution time of the `min_stride` frames after
    /// a key frame, plugging the contended round trip into the paper's
    /// [`Concurrency`] model (§4.4).
    #[allow(clippy::too_many_arguments)]
    pub fn t_c(
        &self,
        concurrency: Concurrency,
        profile: &LatencyProfile,
        partial: bool,
        min_stride: usize,
        mean_steps: f64,
        batch: f64,
        streams: usize,
        inter_arrival: f64,
        t_net: f64,
    ) -> f64 {
        let rt = self.round_trip(
            profile,
            partial,
            mean_steps,
            batch,
            streams,
            inter_arrival,
            t_net,
        );
        concurrency.t_c(min_stride, profile.student_inference, rt)
    }
}

/// Hard ceiling on the capacity search — far above any population the model
/// is credible for, it only guards against a delay law that never crosses
/// the target (e.g. zero service time).
const CAPACITY_SEARCH_CEILING: usize = 1 << 22;

/// Largest `streams` with `delay(streams) <= target`, assuming `delay` is
/// monotone non-decreasing in the stream count (every law in this module
/// is). Exponential sweep to bracket the knee, then binary search.
fn capacity_where<F: Fn(usize) -> f64>(target: f64, delay: F) -> usize {
    if delay(1) > target {
        return 0;
    }
    let mut lo = 1usize; // known-good
    let mut hi = 2usize;
    while hi < CAPACITY_SEARCH_CEILING && delay(hi) <= target {
        lo = hi;
        hi *= 2;
    }
    if hi >= CAPACITY_SEARCH_CEILING {
        return CAPACITY_SEARCH_CEILING;
    }
    // Invariant: delay(lo) <= target < delay(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if delay(mid) <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(workers: usize) -> ContentionModel {
        ContentionModel::with_workers(workers)
    }

    #[test]
    fn batching_amortizes_the_teacher_share() {
        let p = LatencyProfile::paper();
        let solo = model(1).service_time(&p, true, 4.0, 1.0);
        let batched = model(1).service_time(&p, true, 4.0, 4.0);
        assert!(batched < solo, "batched {batched} vs solo {solo}");
        // Distillation steps are not amortized — only the teacher is.
        let floor = 4.0 * p.distill_step(true);
        assert!(batched > floor);
        // batch <= 1 is a no-op.
        assert!((model(1).service_time(&p, true, 4.0, 0.0) - solo).abs() < 1e-12);
    }

    #[test]
    fn more_streams_per_worker_mean_longer_waits() {
        let p = LatencyProfile::paper();
        let service = model(1).service_time(&p, true, 4.0, 1.0);
        let inter = 8.0 * p.student_inference; // a key frame every MIN_STRIDE frames
        let m = model(1);
        let one = m.queueing_delay(1, service, inter);
        let four = m.queueing_delay(4, service, inter);
        let eight = m.queueing_delay(8, service, inter);
        assert!(one <= four && four <= eight, "{one} {four} {eight}");
        assert!(eight > 0.0);
    }

    #[test]
    fn more_workers_mean_shorter_waits() {
        let p = LatencyProfile::paper();
        let service = model(1).service_time(&p, true, 4.0, 1.0);
        let inter = 8.0 * p.student_inference;
        let w1 = model(1).queueing_delay(4, service, inter);
        let w2 = model(2).queueing_delay(4, service, inter);
        let w4 = model(4).queueing_delay(4, service, inter);
        assert!(w1 >= w2 && w2 >= w4, "{w1} {w2} {w4}");
        // With one worker per stream there is (almost) nothing to wait for.
        assert!(w4 < w1 + 1e-12);
    }

    #[test]
    fn overload_saturates_instead_of_diverging() {
        let p = LatencyProfile::paper();
        let service = model(1).service_time(&p, true, 8.0, 1.0);
        // Arrivals far faster than service: utilization >> 1.
        let delay = model(1).queueing_delay(16, service, service / 100.0);
        assert!(delay.is_finite());
        assert!((delay - 15.0 * service).abs() < 1e-9);
    }

    #[test]
    fn skewed_arrivals_penalize_everyone_under_fifo_but_only_the_hot_stream_under_drr() {
        let p = LatencyProfile::paper();
        let service = model(1).service_time(&p, true, 4.0, 1.0);
        let inter = 8.0 * p.student_inference;
        let m = model(1);
        let streams = 4;

        // A 4-stream population with one stream at 8x offers the load of 11
        // uniform streams.
        assert!((ContentionModel::skewed_offered_streams(streams, 8.0) - 11.0).abs() < 1e-12);
        assert_eq!(ContentionModel::skewed_offered_streams(0, 8.0), 0.0);

        // FIFO: the shared queue makes every stream pay for the hot one —
        // the predicted delay grows with the multiplier.
        let fifo_1 = m.skewed_delay_fifo(streams, 1.0, service, inter);
        let fifo_4 = m.skewed_delay_fifo(streams, 4.0, service, inter);
        let fifo_8 = m.skewed_delay_fifo(streams, 8.0, service, inter);
        assert!(
            fifo_1 <= fifo_4 && fifo_4 <= fifo_8,
            "{fifo_1} {fifo_4} {fifo_8}"
        );
        assert!(fifo_8 > fifo_1, "skew must visibly inflate FIFO waits");

        // Fair drain: a cold stream's delay does not depend on the hot
        // multiplier at all — it matches the uniform-population prediction —
        // and never exceeds the FIFO delay.
        let cold = m.skewed_delay_cold_fair(streams, service, inter);
        assert!((cold - m.queueing_delay(streams, service, inter)).abs() < 1e-12);
        assert!(cold <= fifo_8 + 1e-12);

        // The hot stream bears its own excess: at 1x it is just another
        // stream, and its penalty grows with the multiplier.
        let hot_1 = m.skewed_delay_hot_fair(streams, 1.0, service, inter);
        let hot_8 = m.skewed_delay_hot_fair(streams, 8.0, service, inter);
        assert!((hot_1 - cold).abs() < 1e-12);
        assert!(hot_8 > cold);
        assert!(hot_8 > hot_1);

        // Utilization bookkeeping follows the offered load.
        let u_uniform = m.skewed_utilization(streams, 1.0, service, inter);
        let u_skewed = m.skewed_utilization(streams, 8.0, service, inter);
        assert!((u_uniform - m.utilization(streams, service, inter)).abs() < 1e-12);
        assert!(u_skewed > u_uniform);
    }

    #[test]
    fn reactor_pools_the_workers_thread_per_shard_partitions_them() {
        let p = LatencyProfile::paper();
        let service = model(1).service_time(&p, true, 4.0, 1.0);
        let inter = 8.0 * p.student_inference;
        let m = model(4);
        let streams = 12;

        // Below saturation the pooled wait is the partitioned wait shrunk by
        // the worker count (plus the dispatch overhead's small service tax).
        let partitioned = m.thread_per_shard_delay(streams, service, inter);
        let pooled = m.reactor_delay(streams, service, inter, 0.0);
        assert!(partitioned > 0.0);
        assert!(
            (pooled - partitioned / 4.0).abs() < 1e-12,
            "pooled {pooled} vs partitioned {partitioned}"
        );

        // Dispatch overhead is not free: it strictly lengthens the wait...
        let taxed = m.reactor_delay(streams, service, inter, DEFAULT_DISPATCH_OVERHEAD);
        assert!(taxed > pooled);
        // ...but stays far below the partitioned wait for realistic costs.
        assert!(taxed < partitioned / 2.0);

        // With one worker there is nothing to pool: the laws coincide.
        let m1 = model(1);
        let lone_partitioned = m1.thread_per_shard_delay(4, service, inter);
        let lone_pooled = m1.reactor_delay(4, service, inter, 0.0);
        assert!((lone_partitioned - lone_pooled).abs() < 1e-12);

        // Saturation is a work limit, not a scheduling artifact: overloaded,
        // both topologies degrade to the same busy-period bound.
        let overloaded_partitioned = m.thread_per_shard_delay(64, service, service / 100.0);
        let overloaded_pooled = m.reactor_delay(64, service, service / 100.0, 0.0);
        assert!((overloaded_partitioned - overloaded_pooled).abs() < 1e-12);
    }

    #[test]
    fn reactor_capacity_beats_thread_per_shard_at_a_tight_wait_target() {
        let p = LatencyProfile::paper();
        let service = model(1).service_time(&p, true, 4.0, 1.0);
        let inter = 8.0 * p.student_inference;
        let m = model(4);
        // A tight p99-style target: a tenth of one service time of queueing.
        let target = service / 10.0;

        let partitioned = m.thread_per_shard_capacity(target, service, inter);
        let pooled = m.reactor_capacity(target, service, inter, DEFAULT_DISPATCH_OVERHEAD);
        assert!(partitioned >= 1);
        assert!(
            pooled >= 3 * partitioned,
            "reactor capacity {pooled} vs thread-per-shard {partitioned}"
        );

        // Capacity grows with the fixed worker set under both laws.
        let m8 = model(8);
        assert!(m8.thread_per_shard_capacity(target, service, inter) >= partitioned);
        assert!(m8.reactor_capacity(target, service, inter, DEFAULT_DISPATCH_OVERHEAD) >= pooled);

        // A target no stream can meet yields zero capacity; a trivially
        // loose one is bounded by the search ceiling, not a hang.
        assert_eq!(m.thread_per_shard_capacity(-1.0, service, inter), 0);
        let loose = m.reactor_capacity(f64::INFINITY, service, inter, 0.0);
        assert!(loose >= 1);
    }

    #[test]
    fn contended_round_trip_feeds_the_concurrency_bounds() {
        let p = LatencyProfile::paper();
        let m = model(2);
        let inter = 8.0 * p.student_inference;
        let uncontended = m.t_c(Concurrency::Full, &p, true, 8, 4.0, 1.0, 2, inter, 0.05);
        let contended = m.t_c(Concurrency::Full, &p, true, 8, 4.0, 1.0, 16, inter, 0.05);
        // More streams can only lengthen (or leave unchanged) the round trip,
        // and Full concurrency keeps t_c at least the inference floor.
        assert!(contended >= uncontended - 1e-12);
        assert!(uncontended >= 8.0 * p.student_inference - 1e-12);
        // The §4.4 ordering survives contention.
        let none = m.t_c(Concurrency::None, &p, true, 8, 4.0, 1.0, 16, inter, 0.05);
        assert!(none >= contended);
    }
}
