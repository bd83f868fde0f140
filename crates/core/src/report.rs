//! Experiment records and table-row summaries.
//!
//! One [`ExperimentRecord`] captures everything a single run of ShadowTutor
//! (or a baseline) over one video stream produced: per-frame accuracy, the
//! key-frame trace (which frames were key frames, how many distillation
//! steps each took, the post-training metric), message sizes, and the total
//! virtual time. The summary methods compute exactly the quantities the
//! paper's tables report — FPS, key-frame ratio, traffic in Mbps, mean IoU —
//! and [`ExperimentRecord::replay_fps`] re-evaluates the same trace under a
//! different link model, which is how Figure 4's bandwidth sweep is produced
//! without re-running distillation per bandwidth point.

use crate::config::ShadowTutorConfig;
use st_net::{LinkModel, Wire, WireError};
use st_sim::{Concurrency, LatencyProfile};

/// Per-frame record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Frame index in the stream.
    pub index: usize,
    /// Whether this frame was sent to the server as a key frame.
    pub is_key_frame: bool,
    /// Mean IoU of the client's prediction against the teacher's label for
    /// this frame (the paper's accuracy metric).
    pub miou: f64,
    /// Whether the client had to block for an in-flight update after this
    /// frame.
    pub waited: bool,
}

/// Per-key-frame record (the distillation trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyFrameRecord {
    /// Frame index of the key frame.
    pub frame_index: usize,
    /// Distillation steps the server took.
    pub steps: usize,
    /// Student metric on the key frame before training.
    pub initial_metric: f64,
    /// Best student metric after training (what the stride scheduler saw).
    pub metric: f64,
    /// Stride chosen after applying this update.
    pub stride_after: usize,
}

/// A complete record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Label of the video / experiment (e.g. `"fixed/animals"`).
    pub label: String,
    /// Label of the system variant (e.g. `"partial"`, `"full"`, `"naive"`, `"wild"`).
    pub variant: String,
    /// Number of frames processed.
    pub frames: usize,
    /// Per-frame records.
    pub frame_records: Vec<FrameRecord>,
    /// Key-frame trace.
    pub key_frames: Vec<KeyFrameRecord>,
    /// Uplink bytes per key frame (the encoded video frame).
    pub frame_bytes: usize,
    /// Downlink bytes per key frame (the weight update), or per frame for
    /// the naive baseline.
    pub update_bytes: usize,
    /// Total bytes sent client → server over the run.
    pub uplink_bytes: usize,
    /// Total bytes sent server → client over the run.
    pub downlink_bytes: usize,
    /// Total virtual execution time in seconds.
    pub total_time: f64,
    /// The algorithm configuration the run used.
    pub config: ShadowTutorConfig,
    /// The latency profile the clock used.
    pub latency: LatencyProfile,
}

impl ExperimentRecord {
    /// Frames processed per second of virtual time.
    pub fn fps(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.frames as f64 / self.total_time
        }
    }

    /// Number of key frames.
    pub fn key_frame_count(&self) -> usize {
        self.key_frames.len()
    }

    /// Fraction of frames that were key frames, as a percentage
    /// (Table 5's "Key frame ratio").
    pub fn key_frame_ratio_percent(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            100.0 * self.key_frames.len() as f64 / self.frames as f64
        }
    }

    /// Total distillation steps over the run.
    pub fn total_distill_steps(&self) -> usize {
        self.key_frames.iter().map(|k| k.steps).sum()
    }

    /// Mean distillation steps per key frame (Table 2).
    pub fn mean_distill_steps(&self) -> f64 {
        if self.key_frames.is_empty() {
            0.0
        } else {
            self.total_distill_steps() as f64 / self.key_frames.len() as f64
        }
    }

    /// Mean IoU over every frame, as a percentage (Tables 6 and 7).
    pub fn mean_miou_percent(&self) -> f64 {
        if self.frame_records.is_empty() {
            return 0.0;
        }
        100.0 * self.frame_records.iter().map(|f| f.miou).sum::<f64>()
            / self.frame_records.len() as f64
    }

    /// Total data transferred over the run in megabytes.
    pub fn total_data_mb(&self) -> f64 {
        (self.uplink_bytes + self.downlink_bytes) as f64 / 1e6
    }

    /// Data transferred per key frame in MB `(to server, to client, total)` —
    /// Table 4's row for this variant.
    pub fn per_key_frame_mb(&self) -> (f64, f64, f64) {
        let up = self.frame_bytes as f64 / 1e6;
        let down = self.update_bytes as f64 / 1e6;
        (up, down, up + down)
    }

    /// Network traffic in Mbps: total transferred bits divided by total
    /// virtual time (Table 5's "Network traffic").
    pub fn traffic_mbps(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        (self.uplink_bytes + self.downlink_bytes) as f64 * 8.0 / 1e6 / self.total_time
    }

    /// Average data transferred per frame in MB (used for the "reduction in
    /// network transfer per frame" claim of §6.2).
    pub fn data_per_frame_mb(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.total_data_mb() / self.frames as f64
        }
    }

    /// Return a copy of this record with the per-key-frame payload sizes
    /// replaced (e.g. by the paper's 720p/paper-scale-student sizes), so a
    /// trace collected at a reduced experiment resolution can be replayed at
    /// paper scale. Cumulative byte counters are rescaled consistently.
    pub fn with_payload_sizes(&self, frame_bytes: usize, update_bytes: usize) -> ExperimentRecord {
        let k = self.key_frames.len();
        ExperimentRecord {
            frame_bytes,
            update_bytes,
            uplink_bytes: k * frame_bytes,
            downlink_bytes: k * update_bytes,
            ..self.clone()
        }
    }

    /// Re-evaluate the total execution time of this run's trace under a
    /// different link model / concurrency assumption, following the paper's
    /// execution-time model (equation 3):
    ///
    /// `t_tot = (n − k·MIN_STRIDE)·t_si + d·t_sd + k·t_c`
    ///
    /// where `t_c` depends on the concurrency assumption (§4.4). This is the
    /// basis of the Figure 4 bandwidth sweep: the distillation trace (which
    /// frames were key frames and how many steps each took) is reused, only
    /// the timing is recomputed.
    pub fn replay_total_time(&self, link: &LinkModel, concurrency: Concurrency) -> f64 {
        let n = self.frames as f64;
        let k = self.key_frames.len() as f64;
        let d = self.total_distill_steps() as f64;
        let t_si = self.latency.student_inference;
        let partial = matches!(self.config.mode, crate::config::DistillationMode::Partial);
        let t_sd = self.latency.distill_step(partial);
        let t_net = link.key_frame_round_trip(self.frame_bytes, self.update_bytes);
        let round_trip = t_net + self.latency.teacher_inference;
        let t_c = concurrency.t_c(self.config.min_stride, t_si, round_trip);
        let serial_frames = (n - k * self.config.min_stride as f64).max(0.0);
        serial_frames * t_si + d * t_sd + k * t_c
    }

    /// Throughput of this trace under a different link model (Figure 4).
    pub fn replay_fps(&self, link: &LinkModel, concurrency: Concurrency) -> f64 {
        let t = self.replay_total_time(link, concurrency);
        if t <= 0.0 {
            0.0
        } else {
            self.frames as f64 / t
        }
    }
}

impl Wire for FrameRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.index.encode_into(out);
        self.is_key_frame.encode_into(out);
        self.miou.encode_into(out);
        self.waited.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, WireError> {
        Ok(FrameRecord {
            index: usize::decode(input)?,
            is_key_frame: bool::decode(input)?,
            miou: f64::decode(input)?,
            waited: bool::decode(input)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 1 + 8 + 1
    }
}

impl Wire for KeyFrameRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.frame_index.encode_into(out);
        self.steps.encode_into(out);
        self.initial_metric.encode_into(out);
        self.metric.encode_into(out);
        self.stride_after.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, WireError> {
        Ok(KeyFrameRecord {
            frame_index: usize::decode(input)?,
            steps: usize::decode(input)?,
            initial_metric: f64::decode(input)?,
            metric: f64::decode(input)?,
            stride_after: usize::decode(input)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 8 + 8
    }
}

/// The cross-process encoding of a finished run: every scalar field in
/// declaration order, the two record traces as count-prefixed vectors, the
/// algorithm config (see `ShadowTutorConfig`'s `Wire` impl), and the latency
/// profile flattened to its four `f64` fields — st-sim stays wire-agnostic.
impl Wire for ExperimentRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.label.encode_into(out);
        self.variant.encode_into(out);
        self.frames.encode_into(out);
        self.frame_records.encode_into(out);
        self.key_frames.encode_into(out);
        self.frame_bytes.encode_into(out);
        self.update_bytes.encode_into(out);
        self.uplink_bytes.encode_into(out);
        self.downlink_bytes.encode_into(out);
        self.total_time.encode_into(out);
        self.config.encode_into(out);
        self.latency.student_inference.encode_into(out);
        self.latency.distill_step_partial.encode_into(out);
        self.latency.distill_step_full.encode_into(out);
        self.latency.teacher_inference.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, WireError> {
        Ok(ExperimentRecord {
            label: String::decode(input)?,
            variant: String::decode(input)?,
            frames: usize::decode(input)?,
            frame_records: Vec::<FrameRecord>::decode(input)?,
            key_frames: Vec::<KeyFrameRecord>::decode(input)?,
            frame_bytes: usize::decode(input)?,
            update_bytes: usize::decode(input)?,
            uplink_bytes: usize::decode(input)?,
            downlink_bytes: usize::decode(input)?,
            total_time: f64::decode(input)?,
            config: ShadowTutorConfig::decode(input)?,
            latency: LatencyProfile {
                student_inference: f64::decode(input)?,
                distill_step_partial: f64::decode(input)?,
                distill_step_full: f64::decode(input)?,
                teacher_inference: f64::decode(input)?,
            },
        })
    }

    fn encoded_len(&self) -> usize {
        self.label.encoded_len()
            + self.variant.encoded_len()
            + 8
            + self.frame_records.encoded_len()
            + self.key_frames.encoded_len()
            + 8 * 4
            + 8
            + self.config.encoded_len()
            + 8 * 4
    }
}

/// One shard's row in the operator report ([`PoolReport`]).
///
/// Everything an operator dashboards per worker: how much it served, how
/// the frame-memory bound behaved (evictions, re-shares, peak resident bytes), and what its
/// clients experienced (p50/p99 queue waits, drops, throttles).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Key frames served.
    pub key_frames: usize,
    /// Batched teacher forwards taken.
    pub teacher_batches: usize,
    /// Mean co-scheduled batch size.
    pub mean_batch: f64,
    /// Median wall-clock queue wait, milliseconds.
    pub queue_p50_ms: f64,
    /// 99th-percentile wall-clock queue wait, milliseconds.
    pub queue_p99_ms: f64,
    /// Wall-clock seconds the worker spent actively processing batches
    /// (run wall time minus this is the shard's idle time).
    pub busy_secs: f64,
    /// Measured wall-clock seconds inside batched teacher forwards.
    pub teacher_wall_secs: f64,
    /// Key frames rejected by admission control.
    pub throttled: usize,
    /// Key-frame jobs dropped (all acked, never silent).
    pub dropped: usize,
    /// Frames evicted from per-stream caches that finished here.
    pub frame_evictions: usize,
    /// Jobs parked while their evicted frame was re-requested.
    pub need_frame_requests: usize,
    /// Frames restored by client re-shares.
    pub reshared_frames: usize,
    /// Largest per-stream frame-cache watermark, bytes.
    pub frame_bytes_peak: usize,
    /// Handler events dispatched (uplink envelopes, timer fires) — the
    /// event loop's measure of work.
    pub events_dispatched: usize,
    /// Timer fires dispatched to this shard (reactor driver only).
    pub timer_fires: usize,
    /// Readiness wakeups that dispatched a pass on this shard (reactor
    /// driver only).
    pub poll_wakeups: usize,
    /// Peak idle-stream count: registered sessions with no queued key
    /// frame. High values with low thread counts are the reactor working
    /// as intended.
    pub idle_streams: usize,
    /// Dead wards this shard adopted as the warm standby (usually 0 or 1).
    pub failovers: usize,
    /// Streams re-homed onto this shard by failover takeovers.
    pub streams_adopted: usize,
    /// Frames that could not be recovered from replicas or re-shares during
    /// a takeover; their jobs were drop-acked with `ShardFailed`.
    pub frames_lost_on_failover: usize,
    /// Key frames a distill-crew helper distilled for this shard.
    pub jobs_offloaded: usize,
}

/// The serializable operator report condensed from a pool run
/// (`PoolStats::snapshot()` in `shadowtutor::serve`).
///
/// [`PoolReport::to_json`] exports it through the workspace's one JSON
/// writer (`st_check::json`); the schema is one object with a `shards` array
/// and a `totals` object.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Per-shard rows, indexed by shard.
    pub shards: Vec<ShardReport>,
    /// Key frames served across the pool.
    pub total_key_frames: usize,
    /// Frames evicted across every stream.
    pub frame_evictions: usize,
    /// Frames restored by re-shares.
    pub reshared_frames: usize,
    /// Key frames dropped (all acked).
    pub dropped_jobs: usize,
    /// Key frames throttled by admission control.
    pub throttled: usize,
    /// Largest per-stream frame-cache watermark anywhere, bytes.
    pub frame_bytes_peak: usize,
    /// Pool-wide median queue wait, milliseconds.
    pub queue_p50_ms: f64,
    /// Pool-wide 99th-percentile queue wait, milliseconds.
    pub queue_p99_ms: f64,
    /// Measured wall-clock teacher seconds across the pool.
    pub teacher_wall_secs: f64,
    /// Handler events dispatched across the pool.
    pub events_dispatched: usize,
    /// Timer fires across the pool (reactor driver only).
    pub timer_fires: usize,
    /// Readiness wakeups dispatched across the pool (reactor driver only).
    pub poll_wakeups: usize,
    /// Largest per-shard peak idle-stream count.
    pub idle_streams: usize,
    /// Measured client→server bytes as they would appear on the wire: the
    /// sum of [`st_net::wire::frame_len`] over every uplink message the pool
    /// ingested. Zero when the runtime in use does not meter frames.
    pub wire_bytes_up: usize,
    /// Measured server→client wire bytes (framed downlink messages).
    pub wire_bytes_down: usize,
    /// Shard deaths recovered by a warm standby takeover.
    pub failovers: usize,
    /// Streams adopted across every takeover.
    pub streams_adopted: usize,
    /// Frames lost (drop-acked `ShardFailed`) across every takeover.
    pub frames_lost_on_failover: usize,
    /// 99th-percentile takeover latency — death detection to the standby
    /// finishing adoption — in milliseconds. `NaN` when no failover ran.
    pub takeover_latency_p99_ms: f64,
    /// Bytes of new (previously unseen) checkpoint chunks published to the
    /// replica store over the run.
    pub replica_bytes_published: usize,
    /// Bytes of checkpoint chunks deduplicated by content hash (frozen
    /// partial-distillation stages shared instead of recopied).
    pub replica_bytes_shared: usize,
    /// Streams the pool served over the run.
    pub streams: usize,
    /// Bytes of session weight storage still shared with the shard template
    /// (copy-on-write stages never written), summed over live sessions at
    /// the last per-shard measurement.
    pub session_bytes_shared: usize,
    /// Bytes of private session weight storage — stages the optimizer wrote,
    /// splitting them off the template.
    pub session_bytes_private: usize,
    /// Peak of the private-bytes measurement over the run.
    pub session_bytes_private_peak: usize,
    /// Chunk bytes resident in the content-addressed weight store at join
    /// (each distinct chunk counted once, however many refs share it).
    pub store_resident_bytes: usize,
    /// Distinct chunks resident in the weight store at join.
    pub store_chunk_count: usize,
    /// Student updates sent as sparse delta envelopes.
    pub delta_updates_sent: usize,
    /// Student updates sent as full-snapshot envelopes (initial checkpoints
    /// after a restore, plus every update on non-negotiated streams).
    pub full_updates_sent: usize,
    /// Bytes actually placed on downlinks for weight updates when delta
    /// encoding was negotiated.
    pub update_bytes_sent: usize,
    /// Bytes the same updates would have cost as full-snapshot envelopes —
    /// the A/B denominator for the delta savings.
    pub update_bytes_full_equiv: usize,
    /// Key frames distilled by crew helpers rather than reactor workers.
    pub jobs_offloaded: usize,
}

impl PoolReport {
    /// Total bytes of weight state resident for the stream population: the
    /// content-addressed store (each template chunk counted once, however
    /// many sessions share it) plus every session's private storage.
    pub fn weights_resident_bytes(&self) -> usize {
        self.store_resident_bytes + self.session_bytes_private
    }

    /// Streams hosted per GiB of resident weight state — the capacity
    /// headline of the content-keyed store. `NaN` when the pool never
    /// measured session memory (no streams, or a zero-sized store).
    pub fn streams_per_gb(&self) -> f64 {
        let resident = self.weights_resident_bytes();
        if resident == 0 || self.streams == 0 {
            f64::NAN
        } else {
            self.streams as f64 * (1u64 << 30) as f64 / resident as f64
        }
    }

    /// Render the report as a JSON object (see the type docs for the
    /// schema).
    pub fn to_json(&self) -> String {
        use st_check::json::{array, field, number};
        let shards = self.shards.iter().map(|s| {
            let mut out = String::from("{");
            field(&mut out, "shard", s.shard);
            field(&mut out, "key_frames", s.key_frames);
            field(&mut out, "teacher_batches", s.teacher_batches);
            field(&mut out, "mean_batch", number(s.mean_batch));
            field(&mut out, "queue_p50_ms", number(s.queue_p50_ms));
            field(&mut out, "queue_p99_ms", number(s.queue_p99_ms));
            field(&mut out, "busy_secs", number(s.busy_secs));
            field(&mut out, "teacher_wall_secs", number(s.teacher_wall_secs));
            field(&mut out, "throttled", s.throttled);
            field(&mut out, "dropped", s.dropped);
            field(&mut out, "frame_evictions", s.frame_evictions);
            field(&mut out, "need_frame_requests", s.need_frame_requests);
            field(&mut out, "reshared_frames", s.reshared_frames);
            field(&mut out, "frame_bytes_peak", s.frame_bytes_peak);
            field(&mut out, "events_dispatched", s.events_dispatched);
            field(&mut out, "timer_fires", s.timer_fires);
            field(&mut out, "poll_wakeups", s.poll_wakeups);
            field(&mut out, "idle_streams", s.idle_streams);
            field(&mut out, "failovers", s.failovers);
            field(&mut out, "streams_adopted", s.streams_adopted);
            field(
                &mut out,
                "frames_lost_on_failover",
                s.frames_lost_on_failover,
            );
            field(&mut out, "jobs_offloaded", s.jobs_offloaded);
            out.push('}');
            out
        });
        let mut totals = String::from("{");
        let t = &mut totals;
        field(t, "key_frames", self.total_key_frames);
        field(t, "frame_evictions", self.frame_evictions);
        field(t, "reshared_frames", self.reshared_frames);
        field(t, "dropped_jobs", self.dropped_jobs);
        field(t, "throttled", self.throttled);
        field(t, "frame_bytes_peak", self.frame_bytes_peak);
        field(t, "queue_p50_ms", number(self.queue_p50_ms));
        field(t, "queue_p99_ms", number(self.queue_p99_ms));
        field(t, "teacher_wall_secs", number(self.teacher_wall_secs));
        field(t, "events_dispatched", self.events_dispatched);
        field(t, "timer_fires", self.timer_fires);
        field(t, "poll_wakeups", self.poll_wakeups);
        field(t, "idle_streams", self.idle_streams);
        field(t, "wire_bytes_up", self.wire_bytes_up);
        field(t, "wire_bytes_down", self.wire_bytes_down);
        field(t, "failovers", self.failovers);
        field(t, "streams_adopted", self.streams_adopted);
        field(t, "frames_lost_on_failover", self.frames_lost_on_failover);
        field(
            t,
            "takeover_latency_p99_ms",
            number(self.takeover_latency_p99_ms),
        );
        field(t, "replica_bytes_published", self.replica_bytes_published);
        field(t, "replica_bytes_shared", self.replica_bytes_shared);
        field(t, "streams", self.streams);
        field(t, "session_bytes_shared", self.session_bytes_shared);
        field(t, "session_bytes_private", self.session_bytes_private);
        field(
            t,
            "session_bytes_private_peak",
            self.session_bytes_private_peak,
        );
        field(t, "store_resident_bytes", self.store_resident_bytes);
        field(t, "store_chunk_count", self.store_chunk_count);
        field(t, "streams_per_gb", number(self.streams_per_gb()));
        field(t, "delta_updates_sent", self.delta_updates_sent);
        field(t, "full_updates_sent", self.full_updates_sent);
        field(t, "update_bytes_sent", self.update_bytes_sent);
        field(t, "update_bytes_full_equiv", self.update_bytes_full_equiv);
        field(t, "jobs_offloaded", self.jobs_offloaded);
        totals.push('}');
        let mut out = String::from("{");
        field(&mut out, "shards", array(shards));
        field(&mut out, "totals", totals);
        out.push('}');
        out
    }
}

/// One column of [`format_table`]: a header plus the closure extracting the
/// cell value from a record.
pub type TableColumn<'a> = (&'a str, &'a dyn Fn(&ExperimentRecord) -> String);

/// Format a set of records as an aligned text table, one record per row.
///
/// `columns` maps a header to a closure extracting the cell value.
pub fn format_table(
    title: &str,
    records: &[ExperimentRecord],
    columns: &[TableColumn<'_>],
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut widths: Vec<usize> = columns.iter().map(|(h, _)| h.len()).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for record in records {
        let row: Vec<String> = columns.iter().map(|(_, f)| f(record)).collect();
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
        rows.push(row);
    }
    let header: Vec<String> = columns
        .iter()
        .zip(widths.iter())
        .map(|((h, _), w)| format!("{h:<w$}"))
        .collect();
    out.push_str(&header.join("  "));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    fn record(
        frames: usize,
        key_frames: usize,
        steps_per_key: usize,
        time: f64,
    ) -> ExperimentRecord {
        let frame_records = (0..frames)
            .map(|i| FrameRecord {
                index: i,
                is_key_frame: key_frames > 0 && i % (frames / key_frames.max(1)).max(1) == 0,
                miou: 0.7,
                waited: false,
            })
            .collect();
        let key_frame_records = (0..key_frames)
            .map(|i| KeyFrameRecord {
                frame_index: i * (frames / key_frames.max(1)).max(1),
                steps: steps_per_key,
                initial_metric: 0.5,
                metric: 0.85,
                stride_after: 16,
            })
            .collect();
        ExperimentRecord {
            label: "test".into(),
            variant: "partial".into(),
            frames,
            frame_records,
            key_frames: key_frame_records,
            frame_bytes: 2_637_000,
            update_bytes: 395_000,
            uplink_bytes: key_frames * 2_637_000,
            downlink_bytes: key_frames * 395_000,
            total_time: time,
            config: ShadowTutorConfig::paper(),
            latency: LatencyProfile::paper(),
        }
    }

    #[test]
    fn summary_quantities() {
        let r = record(1000, 50, 4, 150.0);
        assert!((r.fps() - 1000.0 / 150.0).abs() < 1e-9);
        assert_eq!(r.key_frame_count(), 50);
        assert!((r.key_frame_ratio_percent() - 5.0).abs() < 1e-9);
        assert_eq!(r.total_distill_steps(), 200);
        assert!((r.mean_distill_steps() - 4.0).abs() < 1e-9);
        assert!((r.mean_miou_percent() - 70.0).abs() < 1e-9);
        let (up, down, total) = r.per_key_frame_mb();
        assert!((up - 2.637).abs() < 1e-9);
        assert!((down - 0.395).abs() < 1e-9);
        assert!((total - 3.032).abs() < 1e-9);
        assert!(r.traffic_mbps() > 0.0);
        assert!(r.data_per_frame_mb() > 0.0);
    }

    #[test]
    fn empty_record_is_safe() {
        let r = record(0, 0, 0, 0.0);
        assert_eq!(r.fps(), 0.0);
        assert_eq!(r.key_frame_ratio_percent(), 0.0);
        assert_eq!(r.mean_distill_steps(), 0.0);
        assert_eq!(r.mean_miou_percent(), 0.0);
    }

    #[test]
    fn replay_matches_paper_scale_throughput() {
        // A paper-scale trace: 5000 frames, 5.38% key frames, 3.83 mean steps.
        let r = ExperimentRecord {
            key_frames: (0..269)
                .map(|i| KeyFrameRecord {
                    frame_index: i * 18,
                    steps: 4,
                    initial_metric: 0.6,
                    metric: 0.85,
                    stride_after: 18,
                })
                .collect(),
            frames: 5000,
            ..record(5000, 269, 4, 1.0)
        };
        let link = LinkModel::paper_default();
        let fps = r.replay_fps(&link, Concurrency::Full);
        // Paper Table 3 average: 6.54 FPS. The model reproduces it within ~10%.
        assert!((fps - 6.54).abs() < 0.7, "replayed fps {fps}");
        // Narrowing the link reduces throughput (Figure 4's qualitative shape),
        // and with full concurrency the drop at 40 Mbps is modest.
        let slow = r.replay_fps(&LinkModel::symmetric_mbps(8.0), Concurrency::Full);
        assert!(slow < fps);
        let at40 = r.replay_fps(&LinkModel::symmetric_mbps(40.0), Concurrency::Full);
        assert!(
            at40 > 0.85 * fps,
            "throughput should be retained at 40 Mbps: {at40} vs {fps}"
        );
    }

    #[test]
    fn replay_concurrency_ordering() {
        let r = record(1000, 50, 4, 150.0);
        let link = LinkModel::paper_default();
        let full = r.replay_fps(&link, Concurrency::Full);
        let none = r.replay_fps(&link, Concurrency::None);
        assert!(full >= none);
    }

    #[test]
    fn pool_report_renders_valid_json() {
        let shard = ShardReport {
            shard: 0,
            key_frames: 10,
            teacher_batches: 4,
            mean_batch: 2.5,
            queue_p50_ms: 1.25,
            queue_p99_ms: 9.5,
            busy_secs: 0.5,
            teacher_wall_secs: 0.25,
            throttled: 1,
            dropped: 0,
            frame_evictions: 3,
            need_frame_requests: 2,
            reshared_frames: 2,
            frame_bytes_peak: 30720,
            events_dispatched: 25,
            timer_fires: 3,
            poll_wakeups: 12,
            idle_streams: 7,
            failovers: 1,
            streams_adopted: 2,
            frames_lost_on_failover: 1,
            jobs_offloaded: 4,
        };
        let report = PoolReport {
            shards: vec![shard.clone(), ShardReport { shard: 1, ..shard }],
            total_key_frames: 20,
            frame_evictions: 6,
            reshared_frames: 4,
            dropped_jobs: 0,
            throttled: 2,
            frame_bytes_peak: 30720,
            queue_p50_ms: 1.25,
            queue_p99_ms: f64::NAN,
            teacher_wall_secs: 0.5,
            events_dispatched: 50,
            timer_fires: 6,
            poll_wakeups: 24,
            idle_streams: 7,
            wire_bytes_up: 123456,
            wire_bytes_down: 654321,
            failovers: 1,
            streams_adopted: 2,
            frames_lost_on_failover: 1,
            takeover_latency_p99_ms: 4.75,
            replica_bytes_published: 2048,
            replica_bytes_shared: 1024,
            streams: 8,
            session_bytes_shared: 4096,
            session_bytes_private: 512,
            session_bytes_private_peak: 768,
            store_resident_bytes: 2048,
            store_chunk_count: 6,
            delta_updates_sent: 15,
            full_updates_sent: 5,
            update_bytes_sent: 900,
            update_bytes_full_equiv: 3000,
            jobs_offloaded: 8,
        };
        let json = report.to_json();
        // Golden strings: every counter exported under its name, in
        // declaration order, the non-finite p99 as `null`.
        let shard0 = "{\"shard\":0,\"key_frames\":10,\"teacher_batches\":4,\
             \"mean_batch\":2.5,\"queue_p50_ms\":1.25,\"queue_p99_ms\":9.5,\
             \"busy_secs\":0.5,\"teacher_wall_secs\":0.25,\"throttled\":1,\
             \"dropped\":0,\"frame_evictions\":3,\"need_frame_requests\":2,\
             \"reshared_frames\":2,\"frame_bytes_peak\":30720,\
             \"events_dispatched\":25,\"timer_fires\":3,\
             \"poll_wakeups\":12,\"idle_streams\":7,\"failovers\":1,\
             \"streams_adopted\":2,\"frames_lost_on_failover\":1,\
             \"jobs_offloaded\":4}";
        let totals = "{\"key_frames\":20,\"frame_evictions\":6,\
             \"reshared_frames\":4,\"dropped_jobs\":0,\"throttled\":2,\
             \"frame_bytes_peak\":30720,\"queue_p50_ms\":1.25,\
             \"queue_p99_ms\":null,\"teacher_wall_secs\":0.5,\
             \"events_dispatched\":50,\"timer_fires\":6,\"poll_wakeups\":24,\
             \"idle_streams\":7,\"wire_bytes_up\":123456,\
             \"wire_bytes_down\":654321,\"failovers\":1,\"streams_adopted\":2,\
             \"frames_lost_on_failover\":1,\"takeover_latency_p99_ms\":4.75,\
             \"replica_bytes_published\":2048,\"replica_bytes_shared\":1024,\
             \"streams\":8,\"session_bytes_shared\":4096,\
             \"session_bytes_private\":512,\"session_bytes_private_peak\":768,\
             \"store_resident_bytes\":2048,\"store_chunk_count\":6,\
             \"streams_per_gb\":3355443.2,\"delta_updates_sent\":15,\
             \"full_updates_sent\":5,\"update_bytes_sent\":900,\
             \"update_bytes_full_equiv\":3000,\"jobs_offloaded\":8}";
        let shard1 = shard0.replacen("\"shard\":0", "\"shard\":1", 1);
        assert_eq!(
            json,
            format!("{{\"shards\":[{shard0},{shard1}],\"totals\":{totals}}}")
        );
        // streams_per_gb = 8 streams / ((2048 + 512) bytes / 1 GiB).
        assert_eq!(report.weights_resident_bytes(), 2560);
        assert!((report.streams_per_gb() - 8.0 * 1073741824.0 / 2560.0).abs() < 1e-6);
    }

    #[test]
    fn table_formatting_aligns_columns() {
        let records = vec![record(100, 10, 3, 20.0), record(200, 5, 2, 30.0)];
        let fps_fn = |r: &ExperimentRecord| format!("{:.2}", r.fps());
        let label_fn = |r: &ExperimentRecord| r.label.clone();
        let table = format_table(
            "Table X",
            &records,
            &[("video", &label_fn), ("fps", &fps_fn)],
        );
        assert!(table.contains("Table X"));
        assert!(table.contains("video"));
        assert!(table.lines().count() >= 4);
    }
}
