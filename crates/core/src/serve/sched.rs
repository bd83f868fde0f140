//! Scheduling policy: DRR fair queues, the adaptive batch window, and the
//! measured teacher-cost profile that gates its growth.
//!
//! The window serves two masters. Teacher amortization: a wider batch pays
//! while one more slot costs less than a solo forward
//! ([`TeacherCostProfile`]). And the distill crew: a batch's streams distill
//! side by side on the crew's threads, so up to the crew's width a wider
//! batch is free capacity even on a teacher that does not amortize at all.
//! [`AdaptiveBatch::observe`] takes the verdict as one flag; the shard state
//! machine feeds it `window < crew width || growth pays`.

#[cfg(doc)]
use super::ServeShard;
use st_net::StreamId;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// A key-frame job drained from the shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardJob {
    /// The stream the key frame belongs to.
    pub stream_id: StreamId,
    /// Index of the frame in that stream.
    pub frame_index: usize,
}

/// A queued key-frame job with its arrival timestamp, as handed out by the
/// [`FairScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct ScheduledJob {
    /// The job itself.
    pub job: ShardJob,
    /// When the job entered the shard queue (for wait accounting).
    pub enqueued_at: Instant,
}

/// Per-stream FIFO queues drained by deficit round-robin.
///
/// Every stream with queued key frames sits in a ring; each scheduling round
/// grants a stream `quantum` units of deficit and pops at most that many of
/// its jobs into the batch. A hot stream with a deep backlog therefore gets
/// the same per-round slot count as everyone else, and any queued stream is
/// served within `ceil(streams / max_batch)` batches — no starvation.
///
/// Invariant: `ring` contains exactly the streams with non-empty queues
/// (maintained by `push`/`next_batch`/`remove_stream`; the structure is
/// driven by one worker thread).
pub struct FairScheduler {
    queues: HashMap<StreamId, VecDeque<ScheduledJob>>,
    ring: VecDeque<StreamId>,
    deficits: HashMap<StreamId, usize>,
    quantum: usize,
    queued: usize,
}

impl FairScheduler {
    /// A scheduler granting `quantum` jobs per stream per round (clamped to
    /// at least 1).
    pub fn new(quantum: usize) -> Self {
        FairScheduler {
            queues: HashMap::new(),
            ring: VecDeque::new(),
            deficits: HashMap::new(),
            quantum: quantum.max(1),
            queued: 0,
        }
    }

    /// Queue a key-frame job for its stream.
    pub fn push(&mut self, stream_id: StreamId, frame_index: usize, enqueued_at: Instant) {
        let queue = self.queues.entry(stream_id).or_default();
        if queue.is_empty() {
            self.ring.push_back(stream_id);
        }
        queue.push_back(ScheduledJob {
            job: ShardJob {
                stream_id,
                frame_index,
            },
            enqueued_at,
        });
        self.queued += 1;
    }

    /// Jobs currently queued for one stream (the admission-control signal).
    pub fn queued_for(&self, stream_id: StreamId) -> usize {
        self.queues.get(&stream_id).map_or(0, |q| q.len())
    }

    /// Total queued jobs across all streams.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Streams that currently have at least one queued job.
    pub fn active_streams(&self) -> usize {
        self.queues.len()
    }

    /// Pop the next co-scheduled batch: at most `max_batch` jobs, drained
    /// round-robin with per-stream deficits. Returns an empty vector when
    /// nothing is queued or `max_batch == 0`.
    pub fn next_batch(&mut self, max_batch: usize) -> Vec<ScheduledJob> {
        let mut out = Vec::new();
        while out.len() < max_batch && self.queued > 0 {
            let Some(stream_id) = self.ring.pop_front() else {
                break;
            };
            let Some(queue) = self.queues.get_mut(&stream_id) else {
                self.deficits.remove(&stream_id);
                continue;
            };
            let deficit = self.deficits.entry(stream_id).or_insert(0);
            // A fresh turn is granted the quantum (capped at what is
            // actually poppable); an interrupted turn resumes its unspent
            // deficit without a new grant, so it cannot bank credit and hold
            // the ring head indefinitely.
            if *deficit == 0 {
                *deficit = self.quantum.min(queue.len());
            }
            while *deficit > 0 && out.len() < max_batch {
                let Some(job) = queue.pop_front() else {
                    break;
                };
                *deficit -= 1;
                self.queued -= 1;
                out.push(job);
            }
            let unspent = *deficit;
            if queue.is_empty() {
                self.queues.remove(&stream_id);
                self.deficits.remove(&stream_id);
            } else if out.len() >= max_batch && unspent > 0 {
                // Batch filled mid-quantum: the stream keeps its remaining
                // deficit and its place at the head of the ring.
                self.ring.push_front(stream_id);
            } else {
                // Quantum spent (jobs left): back of the ring, so the next
                // batch starts with someone else even when this batch could
                // not look past the head.
                self.ring.push_back(stream_id);
            }
        }
        out
    }

    /// The stream's unspent deficit-round-robin credit (0 when it holds
    /// none). Replicated with the session checkpoint so a takeover restores
    /// the stream's scheduling position, not just its weights.
    pub fn deficit_of(&self, stream_id: StreamId) -> usize {
        self.deficits.get(&stream_id).copied().unwrap_or(0)
    }

    /// Restore a stream's unspent deficit (warm-standby adoption). A zero
    /// deficit is the default state and is not stored.
    pub fn set_deficit(&mut self, stream_id: StreamId, deficit: usize) {
        if deficit > 0 {
            self.deficits.insert(stream_id, deficit);
        }
    }

    /// Drain *every* queued job, ring order then per-stream FIFO — the
    /// takeover path re-queues a dead shard's entire backlog at its
    /// adopter with arrival timestamps intact.
    pub fn drain_all(&mut self) -> Vec<ScheduledJob> {
        let streams: Vec<StreamId> = self.ring.iter().copied().collect();
        let mut out = Vec::with_capacity(self.queued);
        for stream_id in streams {
            out.extend(self.remove_stream(stream_id));
        }
        out
    }

    /// Remove a stream entirely (on `Shutdown`), returning its still-queued
    /// jobs in FIFO order so the caller can flush them before retiring the
    /// session.
    pub fn remove_stream(&mut self, stream_id: StreamId) -> Vec<ScheduledJob> {
        let jobs: Vec<ScheduledJob> = self
            .queues
            .remove(&stream_id)
            .map(|q| q.into_iter().collect())
            .unwrap_or_default();
        self.queued -= jobs.len();
        self.deficits.remove(&stream_id);
        self.ring.retain(|s| *s != stream_id);
        jobs
    }
}

impl Default for FairScheduler {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Load-adaptive co-scheduling window.
///
/// Multiplicative increase/decrease between 1 and the configured `max_batch`
/// ceiling: the window doubles while the observed backlog exceeds it *and*
/// the teacher's marginal batched-inference cost still amortizes, and halves
/// when the backlog falls below half the window (deep windows buy teacher
/// amortization at the price of per-frame latency, so they are only worth
/// holding under real queue pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBatch {
    ceiling: usize,
    current: usize,
    enabled: bool,
}

impl AdaptiveBatch {
    /// A window bounded by `ceiling`; when `enabled` it starts at 1 and
    /// adapts, otherwise it is pinned to the ceiling (the static behaviour).
    pub fn new(ceiling: usize, enabled: bool) -> Self {
        let ceiling = ceiling.max(1);
        AdaptiveBatch {
            ceiling,
            current: if enabled { 1 } else { ceiling },
            enabled,
        }
    }

    /// The current co-scheduling window.
    pub fn limit(&self) -> usize {
        self.current
    }

    /// The configured ceiling.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// Feed one observation: the backlog remaining after a batch completed,
    /// and whether growing the window is worth it — it would still amortize
    /// teacher time (the marginal batched cost of one more slot is below a
    /// solo forward), or the window is still narrower than the distill crew
    /// that would run its items side by side.
    pub fn observe(&mut self, backlog: usize, growth_pays: bool) {
        if !self.enabled {
            return;
        }
        if backlog > self.current && growth_pays {
            self.current = (self.current * 2).min(self.ceiling);
        } else if backlog < self.current / 2 {
            self.current = (self.current / 2).max(1);
        }
    }
}

/// Measured wall-clock cost of batched teacher forwards, by batch size.
///
/// The shard records the duration of every
/// [`st_teacher::Teacher::pseudo_label_batch`] call into a per-batch-size
/// exponential moving average. [`ServeShard::batch_growth_pays`] then judges
/// window growth on this *measured* marginal-cost data — the slope between
/// the two largest observed batch sizes — instead of the teacher's virtual
/// latency model, so the adaptive co-scheduling window tracks what batching
/// actually buys on the hardware at hand. Until enough sizes have been
/// observed (or when forwards are too fast to time meaningfully, e.g. the
/// oracle teacher), the caller falls back to the virtual model.
#[derive(Debug, Clone)]
pub struct TeacherCostProfile {
    /// EMA of batched-forward wall seconds, indexed by batch size.
    ema: Vec<Option<f64>>,
}

/// EMA smoothing factor for new batched-forward cost observations.
const COST_EMA_ALPHA: f64 = 0.3;
/// Forwards faster than this (seconds) are considered unmeasurable: timer
/// noise would dominate any marginal-cost estimate.
const COST_MEASURABLE_FLOOR: f64 = 1e-4;

impl TeacherCostProfile {
    /// An empty profile.
    pub fn new() -> Self {
        TeacherCostProfile { ema: Vec::new() }
    }

    /// Record one batched forward of `batch` frames that took `secs`.
    pub fn record(&mut self, batch: usize, secs: f64) {
        if batch == 0 || !secs.is_finite() || secs < 0.0 {
            return;
        }
        if self.ema.len() <= batch {
            self.ema.resize(batch + 1, None);
        }
        self.ema[batch] = Some(match self.ema[batch] {
            Some(prev) => (1.0 - COST_EMA_ALPHA) * prev + COST_EMA_ALPHA * secs,
            None => secs,
        });
    }

    /// Smoothed wall cost of a batched forward of exactly `batch` frames
    /// (`None` when that size has not been observed).
    pub fn estimate(&self, batch: usize) -> Option<f64> {
        self.ema.get(batch).copied().flatten()
    }

    /// Measured per-frame cost at the largest observed batch size not above
    /// `batch` (`None` when nothing relevant was observed).
    pub fn per_frame_at_or_below(&self, batch: usize) -> Option<f64> {
        self.ema
            .iter()
            .enumerate()
            .take(batch + 1)
            .rev()
            .find_map(|(size, ema)| ema.map(|cost| cost / size as f64))
    }

    /// Whether growing the window beyond `batch` still amortizes, judged on
    /// measured data: the marginal cost per extra slot — the slope between
    /// the two largest observed sizes at or below `batch + 1` — must be
    /// below the measured solo-forward cost. `None` when fewer than two
    /// sizes have been observed or the forwards are too fast to time
    /// (`COST_MEASURABLE_FLOOR`), in which case the caller should fall
    /// back to the teacher's virtual latency model.
    pub fn growth_pays(&self, batch: usize) -> Option<bool> {
        let solo = self.estimate(1)?;
        if solo < COST_MEASURABLE_FLOOR {
            return None;
        }
        let mut observed = self
            .ema
            .iter()
            .enumerate()
            .take(batch + 2)
            .filter_map(|(size, ema)| ema.map(|cost| (size, cost)));
        let (mut lo_size, mut lo_cost) = observed.next()?;
        let (mut hi_size, mut hi_cost) = (lo_size, lo_cost);
        for (size, cost) in observed {
            lo_size = hi_size;
            lo_cost = hi_cost;
            hi_size = size;
            hi_cost = cost;
        }
        if hi_size == lo_size {
            return None;
        }
        let marginal = (hi_cost - lo_cost) / (hi_size - lo_size) as f64;
        Some(marginal < solo)
    }
}

impl Default for TeacherCostProfile {
    fn default() -> Self {
        Self::new()
    }
}
