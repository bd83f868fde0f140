//! Scheduling policy: DRR fair queues.
//!
//! A batch is what is queued, up to [`PoolConfig::max_batch`]: the shard
//! state machine drains [`FairScheduler::next_batch`] at that bound on every
//! pass, with no state carried over from earlier batches. Whatever has
//! arrived by the time the shard runs leaves together — one teacher forward,
//! and as many items as the distill crew can take side by side.

#[cfg(doc)]
use super::PoolConfig;
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
