//! Per-shard and pool-wide serving statistics.

#[cfg(doc)]
use super::ServerPool;
use crate::server::StreamServerStats;
use st_net::StreamId;
#[cfg(doc)]
use st_net::{DropReason, ServerToClient};
use st_nn::snapshot::WeightSnapshot;
#[cfg(doc)]
use st_nn::store::WeightStore;
use std::collections::HashMap;
use std::time::Duration;

/// Queueing/batching/latency counters of one shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardStats {
    /// Key frames processed by this shard.
    pub key_frames: usize,
    /// Total distillation steps across the shard's streams.
    pub distill_steps: usize,
    /// Batched teacher forward passes taken.
    pub teacher_batches: usize,
    /// Largest co-scheduled batch observed.
    pub max_batch_observed: usize,
    /// Total wall-clock time key frames spent queued before processing began.
    pub queue_wait_total: Duration,
    /// Largest single queue wait observed.
    pub queue_wait_max: Duration,
    /// Wall-clock time the worker spent actively processing batches.
    pub busy_time: Duration,
    /// Key-frame jobs that could not be served (unknown stream or frame,
    /// e.g. a key frame arriving after its stream's `Shutdown`). Each one
    /// was answered with [`ServerToClient::Dropped`] when a downlink existed.
    pub dropped_jobs: usize,
    /// Key frames rejected by per-stream admission control.
    pub throttled: usize,
    /// `Register` messages that carried no stream link: sent through a
    /// [`StreamClient`](super::StreamClient) by its caller, not by
    /// [`ServerPool::connect`]. Counted, and otherwise ignored.
    pub unknown_registers: usize,
    /// Measured wall-clock time spent inside batched teacher forwards
    /// ([`st_teacher::Teacher::pseudo_label_batch`]) — the pool's only
    /// teacher-cost number: `teacher_wall_time / key_frames` is the
    /// measured amortized per-frame teacher cost batching is supposed to
    /// drive down.
    pub teacher_wall_time: Duration,
    /// Uplink envelopes handled on this shard — the reactor's measure of
    /// loop work.
    pub events_dispatched: usize,
    /// Readiness wakeups that dispatched a pass on this shard.
    pub poll_wakeups: usize,
    /// Peak count of *idle* streams — registered sessions with no queued
    /// key frame — observed on this shard. The reactor's reason to exist:
    /// this many streams were being hosted without deserving a thread.
    pub idle_streams: usize,
    /// Deaths this shard recovered from in place (0 or 1).
    pub failovers: usize,
    /// Streams this shard carried across its recovery: those registered
    /// when it died.
    pub streams_adopted: usize,
    /// Key-frame jobs that died with a pass of the shard and could not be
    /// salvaged (a torn kill lost the batch in flight). Each was drop-acked
    /// with [`DropReason::ShardFailed`] by the recovery — never silently
    /// lost.
    pub frames_lost_on_failover: usize,
    /// Downlink sends that found the client side already gone. The ack (or
    /// update) was composed but undeliverable; counting it keeps the
    /// failover accounting reconcilable (`sent + lost_acks` covers every
    /// decision).
    pub lost_acks: usize,
    /// Bytes of session parameter/buffer storage still *shared* with the
    /// shard's pretrained template (copy-on-write stages never written),
    /// sampled when the shard finished. Deep-cloned sessions report 0 here.
    pub session_bytes_shared: usize,
    /// Bytes of session parameter/buffer storage privately materialized
    /// (stages the optimizer or a restore wrote), sampled at finish.
    pub session_bytes_private: usize,
    /// Peak of [`ShardStats::session_bytes_private`] over the shard's life —
    /// the high-water marginal memory cost of this shard's streams.
    pub session_bytes_private_peak: usize,
    /// Key frames a distill-crew lane distilled instead of the
    /// reactor worker hosting the shard — how the fan-out shows up in
    /// counts. Always 0 for a shard without helpers (a directly driven
    /// [`super::ServeShard`], or a pool with a reactor worker per core).
    pub jobs_offloaded: usize,
    /// Answers shipped without weight bytes (delta updates on, the student
    /// unchanged): the client keeps what it holds and takes the metric.
    pub unchanged_updates_sent: usize,
    /// Update payload bytes actually sent with delta updates on (`Full`
    /// envelopes of changed students; an unchanged answer adds nothing).
    pub update_bytes_sent: usize,
    /// Bytes the same answers would have cost as `Full` envelopes — the
    /// baseline [`ShardStats::update_bytes_sent`] is measured against.
    /// Neither counter advances with delta updates off.
    pub update_bytes_full_equiv: usize,
}

impl ShardStats {
    /// Mean co-scheduled batch size (0.0 when the shard never processed a
    /// batch; at least 1.0 otherwise).
    pub fn mean_batch_size(&self) -> f64 {
        if self.teacher_batches == 0 {
            0.0
        } else {
            self.key_frames as f64 / self.teacher_batches as f64
        }
    }

    /// Mean wall-clock queue wait per key frame in seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        if self.key_frames == 0 {
            0.0
        } else {
            self.queue_wait_total.as_secs_f64() / self.key_frames as f64
        }
    }

    /// Measured amortized teacher cost per key frame in seconds (wall
    /// clock; 0.0 before any key frame was served).
    pub fn mean_teacher_wall_secs(&self) -> f64 {
        if self.key_frames == 0 {
            0.0
        } else {
            self.teacher_wall_time.as_secs_f64() / self.key_frames as f64
        }
    }
}

/// Aggregate statistics of a pool run, collected at [`ServerPool::join`].
#[derive(Debug)]
pub struct PoolStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Per-stream counters (including per-stream queue waits, throttles and
    /// drops).
    pub streams: HashMap<StreamId, StreamServerStats>,
    /// Final full server-side checkpoint of every finished stream.
    pub final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    /// Per-shard wall-clock queue waits, one sample per serviced key frame
    /// in seconds, in emission order (a dropped job leaves none). Feeds the p50/p99 columns of
    /// [`PoolStats::snapshot`]; one f64 per key frame, so the memory cost is
    /// negligible next to the frames themselves.
    pub wait_samples: Vec<Vec<f64>>,
    /// Measured client→server wire bytes: the framed
    /// ([`st_net::wire::frame_len`]) size of every uplink envelope sent to
    /// the pool, plus re-shared frame content.
    pub wire_bytes_up: usize,
    /// Measured server→client wire bytes (framed downlink messages).
    pub wire_bytes_down: usize,
    /// Wall-clock takeover latency samples, one per shard recovery, in
    /// seconds: death (the dying pass's unwind was caught) → the recovery
    /// done. Feeds
    /// [`PoolStats::takeover_latency_p99_secs`].
    pub takeover_samples: Vec<f64>,
    /// Bytes of the pool's pristine template, the weights every session
    /// shares: one chunk per entry, each distinct content counted once, as
    /// a content-addressed [`WeightStore`] would hold it. Measured at spawn.
    pub store_resident_bytes: usize,
    /// Distinct entry contents of the template, measured at spawn.
    pub store_chunk_count: usize,
}

impl PoolStats {
    /// Key frames processed across all shards.
    pub fn total_key_frames(&self) -> usize {
        self.shards.iter().map(|s| s.key_frames).sum()
    }

    /// Distillation steps across all shards.
    pub fn total_distill_steps(&self) -> usize {
        self.shards.iter().map(|s| s.distill_steps).sum()
    }

    /// Key-frame jobs dropped (and acked as such) across all shards.
    pub fn dropped_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.dropped_jobs).sum()
    }

    /// Key frames rejected by admission control across all shards.
    pub fn throttled(&self) -> usize {
        self.shards.iter().map(|s| s.throttled).sum()
    }

    /// Mean co-scheduled batch size across shards (0.0 when no batch was
    /// ever processed; at least 1.0 otherwise).
    pub fn mean_batch_size(&self) -> f64 {
        let batches: usize = self.shards.iter().map(|s| s.teacher_batches).sum();
        if batches == 0 {
            0.0
        } else {
            self.total_key_frames() as f64 / batches as f64
        }
    }

    /// Mean wall-clock queue wait per key frame in seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        let total: f64 = self
            .shards
            .iter()
            .map(|s| s.queue_wait_total.as_secs_f64())
            .sum();
        let k = self.total_key_frames();
        if k == 0 {
            0.0
        } else {
            total / k as f64
        }
    }

    /// Measured wall-clock teacher time across all shards.
    pub fn teacher_wall_time(&self) -> Duration {
        self.shards.iter().map(|s| s.teacher_wall_time).sum()
    }

    /// Measured amortized teacher cost per key frame in seconds across the
    /// pool (wall clock).
    pub fn mean_teacher_wall_secs(&self) -> f64 {
        let k = self.total_key_frames();
        if k == 0 {
            0.0
        } else {
            self.teacher_wall_time().as_secs_f64() / k as f64
        }
    }

    /// The `p`-th percentile wall-clock queue wait across every serviced key
    /// frame in the pool, in seconds (0.0 when nothing was served).
    pub fn percentile_queue_wait_secs(&self, p: f64) -> f64 {
        let all: Vec<f64> = self.wait_samples.iter().flatten().copied().collect();
        crate::loadgen::percentile(&all, p)
    }

    /// Shard deaths recovered across the run.
    pub fn failovers(&self) -> usize {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Streams carried across every recovery of the run.
    pub fn streams_adopted(&self) -> usize {
        self.shards.iter().map(|s| s.streams_adopted).sum()
    }

    /// Key-frame jobs lost to shard deaths (each drop-acked with
    /// [`DropReason::ShardFailed`]).
    pub fn frames_lost_on_failover(&self) -> usize {
        self.shards.iter().map(|s| s.frames_lost_on_failover).sum()
    }

    /// Session storage shared with shard templates (copy-on-write stages
    /// never written), summed over the last per-shard samples.
    pub fn session_bytes_shared(&self) -> usize {
        self.shards.iter().map(|s| s.session_bytes_shared).sum()
    }

    /// Session storage privately materialized by optimizer writes, summed
    /// over the last per-shard samples.
    pub fn session_bytes_private(&self) -> usize {
        self.shards.iter().map(|s| s.session_bytes_private).sum()
    }

    /// Private session storage at each shard's fullest: the sum of the
    /// shards' peaks, which unlike the last samples does not depend on how
    /// many streams had already retired when a shard ran its last batch.
    pub fn session_bytes_private_peak(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.session_bytes_private_peak)
            .sum()
    }

    /// Key frames distilled by crew helpers across the pool.
    pub fn jobs_offloaded(&self) -> usize {
        self.shards.iter().map(|s| s.jobs_offloaded).sum()
    }

    /// Answers shipped without weight bytes across the pool.
    pub fn unchanged_updates_sent(&self) -> usize {
        self.shards.iter().map(|s| s.unchanged_updates_sent).sum()
    }

    /// Update payload bytes actually sent with delta updates on.
    pub fn update_bytes_sent(&self) -> usize {
        self.shards.iter().map(|s| s.update_bytes_sent).sum()
    }

    /// What those same updates would have cost as full snapshots.
    pub fn update_bytes_full_equiv(&self) -> usize {
        self.shards.iter().map(|s| s.update_bytes_full_equiv).sum()
    }

    /// The p99 wall-clock takeover latency in seconds (0.0 when no shard
    /// died): death → the recovery done.
    pub fn takeover_latency_p99_secs(&self) -> f64 {
        crate::loadgen::percentile(&self.takeover_samples, 99.0)
    }

    /// Condense the run into the serializable operator report
    /// ([`crate::report::PoolReport`]): per-shard load, teacher
    /// wall time and p50/p99 queue waits, plus pool totals. This is what
    /// `reproduce --json` exports.
    pub fn snapshot(&self) -> crate::report::PoolReport {
        use crate::loadgen::percentile;
        use crate::report::{PoolReport, ShardReport};
        let empty: Vec<f64> = Vec::new();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let waits = self.wait_samples.get(index).unwrap_or(&empty);
                ShardReport {
                    shard: index,
                    key_frames: s.key_frames,
                    teacher_batches: s.teacher_batches,
                    mean_batch: s.mean_batch_size(),
                    queue_p50_ms: 1e3 * percentile(waits, 50.0),
                    queue_p99_ms: 1e3 * percentile(waits, 99.0),
                    busy_secs: s.busy_time.as_secs_f64(),
                    teacher_wall_secs: s.teacher_wall_time.as_secs_f64(),
                    throttled: s.throttled,
                    dropped: s.dropped_jobs,
                    need_frame_requests: 0,
                    events_dispatched: s.events_dispatched,
                    poll_wakeups: s.poll_wakeups,
                    idle_streams: s.idle_streams,
                    failovers: s.failovers,
                    streams_adopted: s.streams_adopted,
                    frames_lost_on_failover: s.frames_lost_on_failover,
                    jobs_offloaded: s.jobs_offloaded,
                }
            })
            .collect();
        PoolReport {
            shards,
            total_key_frames: self.total_key_frames(),
            dropped_jobs: self.dropped_jobs(),
            throttled: self.throttled(),
            queue_p50_ms: 1e3 * self.percentile_queue_wait_secs(50.0),
            queue_p99_ms: 1e3 * self.percentile_queue_wait_secs(99.0),
            teacher_wall_secs: self.teacher_wall_time().as_secs_f64(),
            events_dispatched: self.shards.iter().map(|s| s.events_dispatched).sum(),
            timer_fires: 0,
            poll_wakeups: self.shards.iter().map(|s| s.poll_wakeups).sum(),
            idle_streams: self
                .shards
                .iter()
                .map(|s| s.idle_streams)
                .max()
                .unwrap_or(0),
            wire_bytes_up: self.wire_bytes_up,
            wire_bytes_down: self.wire_bytes_down,
            failovers: self.failovers(),
            streams_adopted: self.streams_adopted(),
            frames_lost_on_failover: self.frames_lost_on_failover(),
            takeover_latency_p99_ms: 1e3 * self.takeover_latency_p99_secs(),
            streams: self.streams.len(),
            session_bytes_shared: self.session_bytes_shared(),
            session_bytes_private: self.session_bytes_private(),
            session_bytes_private_peak: self.session_bytes_private_peak(),
            store_resident_bytes: self.store_resident_bytes,
            store_chunk_count: self.store_chunk_count,
            unchanged_updates_sent: self.unchanged_updates_sent(),
            update_bytes_sent: self.update_bytes_sent(),
            update_bytes_full_equiv: self.update_bytes_full_equiv(),
            jobs_offloaded: self.jobs_offloaded(),
        }
    }
}
