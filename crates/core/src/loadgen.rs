//! Open-loop load generation against a live [`ServerPool`].
//!
//! The cooperative client of Algorithm 4 sends at most one key frame per
//! stride, so it can never expose unfairness or saturation in the pool.
//! This module drives the pool with *raw* [`StreamClient`] endpoints
//! instead: one thread multiplexes every stream, each sending key frames on
//! its own absolute open-loop schedule whatever the pool answers. Two entry
//! points fix the schedules:
//!
//! * [`run_skewed_load`] — fixed intervals, one **hot** stream at a
//!   multiple of the base rate: the adversarial arrival pattern the paper's
//!   §4.4 concurrency analysis assumes away. Reports per stream.
//! * [`run_capacity_load`] — a uniform population with randomized phases
//!   and jittered gaps, the way independent clients arrive. Reports one
//!   pooled sample.
//!
//! Either way the generator measures what each stream actually
//! experienced: client-observed round trips per serviced key frame, plus
//! throttle/drop counts from the pool's admission control.
//!
//! Used by the fairness end-to-end tests and `reproduce`'s `table9` /
//! `table12` targets (`st_bench::tables::{table9_skewed,
//! table12_capacity}`); [`PacedTeacher`] makes the
//! teacher's wall-clock cost real (and sub-linear in batch size) so
//! queueing is physical rather than simulated.

use crate::config::ShadowTutorConfig;
use crate::serve::{PoolConfig, PoolStats, ServerPool, StreamClient};
use crate::Result;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient, StreamId};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::TensorError;
use st_video::dataset::tiny_stream;
use st_video::{Frame, SceneKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A teacher whose forward passes cost real wall-clock time.
///
/// Wraps any [`Teacher`] and sleeps `forward_pause` per solo forward; a
/// batched forward sleeps `forward_pause * (1 + 0.2 (b - 1))`, the
/// sub-linear shape of a GPU teacher, so co-scheduling pays off in
/// wall-clock terms. [`Teacher::inference_latency`] is the inner teacher's,
/// and nothing reads it.
pub struct PacedTeacher<T: Teacher> {
    inner: T,
    forward_pause: Duration,
}

impl<T: Teacher> PacedTeacher<T> {
    /// Pace `inner` at `forward_pause` wall-clock per solo forward.
    pub fn new(inner: T, forward_pause: Duration) -> Self {
        PacedTeacher {
            inner,
            forward_pause,
        }
    }
}

impl<T: Teacher> Teacher for PacedTeacher<T> {
    fn pseudo_label(&mut self, frame: &Frame) -> st_teacher::Result<Vec<usize>> {
        std::thread::sleep(self.forward_pause);
        self.inner.pseudo_label(frame)
    }

    fn pseudo_label_batch(&mut self, frames: &[&Frame]) -> st_teacher::Result<Vec<Vec<usize>>> {
        if !frames.is_empty() {
            let scaled = 1.0 + 0.2 * (frames.len() as f64 - 1.0);
            std::thread::sleep(self.forward_pause.mul_f64(scaled));
        }
        frames.iter().map(|f| self.inner.pseudo_label(f)).collect()
    }

    fn inference_latency(&self) -> f64 {
        self.inner.inference_latency()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

/// Parameters of one skewed-load run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedLoadSpec {
    /// Total client streams; stream 0 is the hot one.
    pub streams: usize,
    /// The hot stream sends this multiple of the base key-frame rate
    /// (1 = uniform load).
    pub hot_multiplier: usize,
    /// Key frames each *cold* stream sends (the hot stream sends
    /// `hot_multiplier` times as many over the same wall-clock window).
    pub key_frames_per_stream: usize,
    /// Gap between a cold stream's sends — the base inter-arrival time.
    pub send_interval: Duration,
    /// Seed for the synthetic frame content.
    pub seed: u64,
}

impl SkewedLoadSpec {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.streams == 0 || self.hot_multiplier == 0 || self.key_frames_per_stream == 0 {
            return Err(TensorError::InvalidArgument(
                "skewed load needs at least one stream, 1x multiplier, one key frame".into(),
            ));
        }
        Ok(())
    }
}

/// One stream's client-side view of a skewed-load run.
#[derive(Debug, Clone)]
pub struct StreamLoadReport {
    /// The stream.
    pub stream_id: StreamId,
    /// Whether this was the hot stream.
    pub hot: bool,
    /// Key frames sent.
    pub sent: usize,
    /// `StudentUpdate`s received.
    pub updates: usize,
    /// `Throttle`s received (admission control rejected the key frame).
    pub throttled: usize,
    /// `Dropped`s received.
    pub dropped: usize,
    /// Client-observed round trip (send → update) per serviced key frame,
    /// in seconds, in completion order.
    pub round_trips: Vec<f64>,
}

impl StreamLoadReport {
    /// The `p`-th percentile round trip (`p` in `[0, 100]`; 0.0 when no key
    /// frame was serviced).
    pub fn percentile_round_trip(&self, p: f64) -> f64 {
        percentile(&self.round_trips, p)
    }
}

/// The `p`-th percentile of an unsorted sample by nearest-rank rounding
/// (`p` in `[0, 100]`; 0.0 when the sample is empty). Shared by the
/// per-stream reports here and the Table 9 aggregation in `st-bench`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    sorted[rank.round() as usize]
}

/// Outcome of a skewed-load run: per-stream client measurements plus the
/// pool's own statistics.
#[derive(Debug)]
pub struct SkewedLoadOutcome {
    /// Per-stream reports, indexed by stream id (stream 0 is hot).
    pub streams: Vec<StreamLoadReport>,
    /// Server-pool statistics (per-stream waits, throttles, drops).
    pub pool: PoolStats,
    /// Wall-clock duration of the run in seconds.
    pub wall_time: f64,
}

impl SkewedLoadOutcome {
    /// The hot stream's report.
    pub fn hot(&self) -> &StreamLoadReport {
        &self.streams[0]
    }

    /// The cold streams' reports.
    pub fn cold(&self) -> &[StreamLoadReport] {
        &self.streams[1..]
    }
}

const SCENES: [SceneKind; 3] = [SceneKind::People, SceneKind::Animals, SceneKind::Street];

/// Drive a pool with `spec.streams` open-loop clients, stream 0 sending
/// `spec.hot_multiplier`× the base key-frame rate, and collect per-stream
/// round trips plus pool statistics. Every stream sends on a fixed
/// schedule from the same origin — no jitter, no phase — so the hot
/// stream's excess is the only asymmetry.
pub fn run_skewed_load<T, F>(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    student: StudentNet,
    teacher_factory: F,
    spec: SkewedLoadSpec,
) -> Result<SkewedLoadOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    spec.validate()?;
    let schedules = (0..spec.streams)
        .map(|s| {
            let multiplier = if s == 0 { spec.hot_multiplier } else { 1 };
            Schedule {
                sends: spec.key_frames_per_stream * multiplier,
                interval: spec.send_interval / multiplier as u32,
                jittered: false,
            }
        })
        .collect();
    let (mut streams, pool, wall_time) = run_open_loop(
        config,
        pool_config,
        student,
        teacher_factory,
        spec.seed,
        schedules,
    )?;
    streams[0].hot = true;
    Ok(SkewedLoadOutcome {
        streams,
        pool,
        wall_time,
    })
}

/// Parameters of one uniform open-loop capacity run
/// ([`run_capacity_load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityLoadSpec {
    /// Concurrent client streams, all sending at the same mean rate.
    pub streams: usize,
    /// Key frames each stream sends.
    pub key_frames_per_stream: usize,
    /// Mean gap between a stream's sends. Actual gaps are jittered
    /// uniformly in `[0.5, 1.5]` of this and phases are randomized, so
    /// arrivals are bursty the way independent clients are — the regime
    /// where a pooled worker set absorbs what a partitioned one queues.
    pub send_interval: Duration,
    /// Seed for frame content, phases and jitter (runs are deterministic
    /// on the arrival side; service timing is real wall clock).
    pub seed: u64,
}

impl CapacityLoadSpec {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.streams == 0 || self.key_frames_per_stream == 0 {
            return Err(TensorError::InvalidArgument(
                "capacity load needs at least one stream and one key frame".into(),
            ));
        }
        if self.send_interval.is_zero() {
            return Err(TensorError::InvalidArgument(
                "capacity load needs a non-zero send interval".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of a capacity run: the pooled round-trip sample across all
/// streams plus the pool's own statistics.
#[derive(Debug)]
pub struct CapacityLoadOutcome {
    /// Client-observed round trips (send → update) of every serviced key
    /// frame across all streams, seconds.
    pub round_trips: Vec<f64>,
    /// `StudentUpdate`s received across all streams.
    pub updates: usize,
    /// `Throttle`s received across all streams.
    pub throttled: usize,
    /// `Dropped`s received across all streams.
    pub dropped: usize,
    /// Server-pool statistics.
    pub pool: PoolStats,
    /// Wall-clock duration of the run in seconds.
    pub wall_time: f64,
}

impl CapacityLoadOutcome {
    /// The `p`-th percentile round trip in seconds.
    pub fn percentile_round_trip(&self, p: f64) -> f64 {
        percentile(&self.round_trips, p)
    }

    /// Mean server-side service time per key frame, from the pool's busy
    /// accounting — what the analytic model should be fed.
    pub fn mean_service_secs(&self) -> f64 {
        let report = self.pool.snapshot();
        let key_frames = report.total_key_frames.max(1);
        let busy: f64 = report.shards.iter().map(|s| s.busy_secs).sum();
        busy / key_frames as f64
    }

    /// The `p`-th percentile *queue wait*: round trip minus the mean
    /// service time, floored at zero. Coarse (per-frame service varies a
    /// little), but consistent across topologies.
    pub fn percentile_queue_wait(&self, p: f64) -> f64 {
        (self.percentile_round_trip(p) - self.mean_service_secs()).max(0.0)
    }
}

/// One stream's send schedule inside [`run_open_loop`], fixed by the two
/// public entry points.
struct Schedule {
    /// Key frames the stream sends.
    sends: usize,
    /// Mean gap between sends.
    interval: Duration,
    /// Independent-client arrivals: a random phase in `[0, interval)` and
    /// gaps uniform in `[0.5, 1.5]` of `interval`. Off: first send at the
    /// origin, every gap exactly `interval`.
    jittered: bool,
}

/// One stream's client-side state inside [`run_open_loop`].
struct OpenLoopStream {
    client: StreamClient,
    frames: Vec<Frame>,
    schedule: Schedule,
    cursor: usize,
    next_send: Instant,
    report: StreamLoadReport,
    sent_at: HashMap<usize, Instant>,
    outstanding: usize,
}

/// Deterministic xorshift64* generator for the open-loop generator's
/// phases and send jitter — keeps the arrival schedule reproducible
/// without pulling a rand dependency into the core crate.
struct JitterRng(u64);

impl JitterRng {
    fn new(seed: u64) -> Self {
        JitterRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drive `spec.streams` uniform open-loop clients against the pool — the
/// client-side harness of the `table12_capacity` experiment, able to host
/// hundreds of mostly-idle streams from one thread.
///
/// Every stream sends `key_frames_per_stream` key frames at jittered
/// intervals around `send_interval`, with randomized phases. Round trips
/// and throttle/drop counts are folded into one pooled
/// sample across streams (the population is uniform, so per-stream
/// attribution adds nothing).
pub fn run_capacity_load<T, F>(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    student: StudentNet,
    teacher_factory: F,
    spec: CapacityLoadSpec,
) -> Result<CapacityLoadOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    spec.validate()?;
    let schedules = (0..spec.streams)
        .map(|_| Schedule {
            sends: spec.key_frames_per_stream,
            interval: spec.send_interval,
            jittered: true,
        })
        .collect();
    let (streams, pool, wall_time) = run_open_loop(
        config,
        pool_config,
        student,
        teacher_factory,
        spec.seed,
        schedules,
    )?;
    Ok(CapacityLoadOutcome {
        round_trips: streams
            .iter()
            .flat_map(|report| report.round_trips.iter().copied())
            .collect(),
        updates: streams.iter().map(|report| report.updates).sum(),
        throttled: streams.iter().map(|report| report.throttled).sum(),
        dropped: streams.iter().map(|report| report.dropped).sum(),
        pool,
        wall_time,
    })
}

/// The one open-loop generator: spawn the pool, connect one raw client per
/// schedule (stream ids in schedule order), and drive them all from the
/// calling thread. Each stream sends on its own absolute schedule — a
/// send's cost never delays the next one — while responses are absorbed as
/// they arrive, and the tail is drained before every stream shuts down. Returns per-stream reports, the pool's statistics and
/// the run's wall-clock seconds.
fn run_open_loop<T, F>(
    config: ShadowTutorConfig,
    pool_config: PoolConfig,
    student: StudentNet,
    teacher_factory: F,
    seed: u64,
    schedules: Vec<Schedule>,
) -> Result<(Vec<StreamLoadReport>, PoolStats, f64)>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    config.validate()?;
    pool_config.validate()?;
    let started = Instant::now();
    let pool = ServerPool::spawn(config, pool_config, student, 0.0, teacher_factory)?;

    let mut rng = JitterRng::new(seed);
    let origin = Instant::now();
    let mut streams: Vec<OpenLoopStream> = Vec::with_capacity(schedules.len());
    for (s, schedule) in schedules.into_iter().enumerate() {
        // One distinct frame per send, so round trips match unambiguously
        // by index.
        let frames = tiny_stream(SCENES[s % SCENES.len()], seed + s as u64, schedule.sends);
        let client = pool.connect(s as u64, &frames)?;
        // Random phase in [0, interval): without it a uniform population
        // would fire in lockstep and the first tick would measure a
        // thundering herd instead of steady-state queueing.
        let phase = if schedule.jittered {
            schedule.interval.mul_f64(rng.unit())
        } else {
            Duration::ZERO
        };
        streams.push(OpenLoopStream {
            client,
            next_send: origin + phase,
            report: StreamLoadReport {
                stream_id: s as u64,
                hot: false,
                sent: 0,
                updates: 0,
                throttled: 0,
                dropped: 0,
                round_trips: Vec::with_capacity(schedule.sends),
            },
            sent_at: HashMap::with_capacity(schedule.sends),
            frames,
            schedule,
            cursor: 0,
            outstanding: 0,
        });
    }

    let mut drain_deadline: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let mut all_sent = true;
        let mut any_outstanding = false;
        for stream in streams.iter_mut() {
            while stream.cursor < stream.frames.len() && now >= stream.next_send {
                let frame = &stream.frames[stream.cursor];
                let payload = Payload::sized(frame.raw_rgb_bytes());
                let bytes = payload.bytes;
                stream.sent_at.insert(frame.index, Instant::now());
                stream
                    .client
                    .send(
                        ClientToServer::KeyFrame {
                            frame_index: frame.index,
                            payload,
                        },
                        bytes,
                    )
                    .map_err(|e| {
                        TensorError::InvalidArgument(format!("uplink send failed: {e:?}"))
                    })?;
                stream.report.sent += 1;
                stream.outstanding += 1;
                stream.cursor += 1;
                stream.next_send += if stream.schedule.jittered {
                    stream.schedule.interval.mul_f64(0.5 + rng.unit())
                } else {
                    stream.schedule.interval
                };
            }
            while let Ok(Some(message)) = stream.client.try_recv() {
                absorb(
                    message,
                    &mut stream.sent_at,
                    &mut stream.report,
                    &mut stream.outstanding,
                );
            }
            all_sent &= stream.cursor == stream.frames.len();
            any_outstanding |= stream.outstanding > 0;
        }
        if all_sent {
            if !any_outstanding {
                break;
            }
            // The pool answers every key frame (update, throttle, or drop
            // ack); bound the tail drain anyway so a lost ack cannot hang
            // the run.
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(30));
            if Instant::now() >= deadline {
                break;
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }

    let mut reports = Vec::with_capacity(streams.len());
    for mut stream in streams {
        stream.client.send(ClientToServer::Shutdown, 1).ok();
        // Dropping the client closes the stream's downlink registration.
        reports.push(stream.report);
    }
    let pool_stats = pool.join()?;
    Ok((reports, pool_stats, started.elapsed().as_secs_f64()))
}

/// Fold one downlink message into the stream's report.
fn absorb(
    message: ServerToClient,
    sent_at: &mut HashMap<usize, Instant>,
    report: &mut StreamLoadReport,
    outstanding: &mut usize,
) {
    match message {
        ServerToClient::StudentUpdate { frame_index, .. } => {
            if let Some(t0) = sent_at.remove(&frame_index) {
                report.round_trips.push(t0.elapsed().as_secs_f64());
            }
            report.updates += 1;
            *outstanding = outstanding.saturating_sub(1);
        }
        ServerToClient::Throttle { frame_index } => {
            sent_at.remove(&frame_index);
            report.throttled += 1;
            *outstanding = outstanding.saturating_sub(1);
        }
        ServerToClient::Dropped { frame_index, .. } => {
            sent_at.remove(&frame_index);
            report.dropped += 1;
            *outstanding = outstanding.saturating_sub(1);
        }
        // The initial student answers no key frame, and the pool sends
        // nothing else.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::OracleTeacher;

    #[test]
    fn spec_validation_rejects_degenerate_loads() {
        let good = SkewedLoadSpec {
            streams: 2,
            hot_multiplier: 4,
            key_frames_per_stream: 3,
            send_interval: Duration::from_millis(5),
            seed: 1,
        };
        assert!(good.validate().is_ok());
        assert!(SkewedLoadSpec { streams: 0, ..good }.validate().is_err());
        assert!(SkewedLoadSpec {
            hot_multiplier: 0,
            ..good
        }
        .validate()
        .is_err());
        assert!(SkewedLoadSpec {
            key_frames_per_stream: 0,
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn capacity_spec_validation_rejects_degenerate_loads() {
        let good = CapacityLoadSpec {
            streams: 4,
            key_frames_per_stream: 2,
            send_interval: Duration::from_millis(5),
            seed: 3,
        };
        assert!(good.validate().is_ok());
        assert!(CapacityLoadSpec { streams: 0, ..good }.validate().is_err());
        assert!(CapacityLoadSpec {
            key_frames_per_stream: 0,
            ..good
        }
        .validate()
        .is_err());
        assert!(CapacityLoadSpec {
            send_interval: Duration::ZERO,
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn capacity_load_multiplexes_many_streams_from_one_thread() {
        use crate::serve::PoolConfig;
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        // 12 streams on 12 shards hosted by 2 reactor workers, all driven
        // by this one test thread.
        let outcome = run_capacity_load(
            ShadowTutorConfig {
                max_updates: 1,
                ..ShadowTutorConfig::paper()
            },
            PoolConfig {
                shards: 12,
                reactor_threads: Some(2),
                max_in_flight: 64,
                ..PoolConfig::default_pool()
            },
            student,
            |shard| OracleTeacher::perfect(9000 + shard as u64),
            CapacityLoadSpec {
                streams: 12,
                key_frames_per_stream: 3,
                send_interval: Duration::from_millis(10),
                seed: 42,
            },
        )
        .unwrap();
        // Every key frame was serviced with a measured round trip.
        assert_eq!(outcome.updates, 36);
        assert_eq!(outcome.round_trips.len(), 36);
        assert_eq!(outcome.throttled, 0);
        assert_eq!(outcome.dropped, 0);
        assert!(outcome.round_trips.iter().all(|&rt| rt > 0.0));
        assert!(outcome.mean_service_secs() > 0.0);
        assert!(outcome.percentile_round_trip(99.0) >= outcome.percentile_round_trip(50.0));
        let report = outcome.pool.snapshot();
        assert_eq!(report.total_key_frames, 36);
        assert!(report.poll_wakeups > 0, "reactor drivers were exercised");
    }

    #[test]
    fn paced_teacher_passes_through_labels_and_latencies() {
        let frames = tiny_stream(SceneKind::People, 7, 1);
        let mut inner = OracleTeacher::perfect(7);
        let expected = inner.pseudo_label(&frames[0]).unwrap();
        let mut paced = PacedTeacher::new(OracleTeacher::perfect(7), Duration::from_micros(10));
        assert_eq!(paced.pseudo_label(&frames[0]).unwrap(), expected);
        let batched = paced.pseudo_label_batch(&[&frames[0]]).unwrap();
        assert_eq!(batched[0], expected);
        assert_eq!(paced.inference_latency(), inner.inference_latency());
        assert_eq!(paced.param_count(), inner.param_count());
    }

    #[test]
    fn percentiles_interpolate_the_sample_ranks() {
        let report = StreamLoadReport {
            stream_id: 0,
            hot: false,
            sent: 5,
            updates: 5,
            throttled: 0,
            dropped: 0,
            round_trips: vec![0.5, 0.1, 0.3, 0.2, 0.4],
        };
        assert!((report.percentile_round_trip(0.0) - 0.1).abs() < 1e-12);
        assert!((report.percentile_round_trip(50.0) - 0.3).abs() < 1e-12);
        assert!((report.percentile_round_trip(100.0) - 0.5).abs() < 1e-12);
        let empty = StreamLoadReport {
            round_trips: Vec::new(),
            ..report
        };
        assert_eq!(empty.percentile_round_trip(99.0), 0.0);
    }

    #[test]
    fn skewed_load_accounts_for_every_key_frame() {
        let outcome = run_skewed_load(
            ShadowTutorConfig::paper(),
            PoolConfig {
                shards: 1,
                ..PoolConfig::default_pool()
            },
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            |_| OracleTeacher::perfect(11),
            SkewedLoadSpec {
                streams: 2,
                hot_multiplier: 2,
                key_frames_per_stream: 3,
                send_interval: Duration::from_millis(4),
                seed: 90,
            },
        )
        .unwrap();
        assert_eq!(outcome.streams.len(), 2);
        assert!(outcome.hot().hot);
        assert_eq!(outcome.cold().len(), 1);
        assert_eq!(outcome.hot().sent, 6);
        assert_eq!(outcome.cold()[0].sent, 3);
        for report in &outcome.streams {
            // Every key frame was answered: update, throttle, or drop ack.
            assert_eq!(
                report.updates + report.throttled + report.dropped,
                report.sent,
                "stream {} lost answers",
                report.stream_id
            );
            assert_eq!(report.round_trips.len(), report.updates);
            assert!(report.round_trips.iter().all(|rt| *rt >= 0.0));
        }
        // Nothing in this scenario is unservable.
        assert_eq!(outcome.pool.dropped_jobs(), 0);
        assert!(outcome.wall_time > 0.0);
    }
}
