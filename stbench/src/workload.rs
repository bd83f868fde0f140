//! The four workloads: what each feeds the pool, how a round is hosted, and
//! what must hold of its outputs.
//!
//! Every round of a workload replays the *same* pre-generated frames against
//! a fresh pool and fresh clients cloned from the same pre-trained template,
//! so rounds differ only by what the host did to them. Nothing here starts
//! more runnable threads than the reference host has cores (2): the
//! client-driver thread and one pool worker, plus — on the shm workload — a
//! bridge that sleeps unless a message is crossing.

use crate::client::{drive, ClientReport, DriveOutcome, Pacing, StreamInput, Waiter};
use crate::trace::Tracer;
use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::loadgen::PacedTeacher;
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::shm_live::host_stream_over_shm;
use shadowtutor::serve::{PoolConfig, PoolStats, ServerPool};
use shadowtutor::PoolReport;
use st_net::{ClientToServer, Poller, ServerToClient, ShmConfig, ShmSide, ShmTransport};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::{CnnTeacher, OracleTeacher, Teacher};
use st_tensor::TensorError;
use st_video::dataset::Resolution;
use st_video::{CameraMotion, Frame, SceneKind, VideoCategory, VideoConfig, VideoGenerator};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, TensorError>;

/// Virtual seconds the pool charges per distillation step (the paper's
/// Table 2 figure); it feeds the pool's virtual accounting only.
const DISTILL_STEP_LATENCY: f64 = 0.013;

/// Seed of the student's offline pre-training. Fixed: the deployed student
/// is part of the program under test; `--seed` varies the video it meets.
const PRETRAIN_SEED: u64 = 2000;

/// Seed of the scenes the cameras film. Fixed, because what a scene asks of
/// the system (how often Algorithm 2 calls for a key frame, how many chunks
/// a delta carries) varies by tens of percent from scene to scene, and the
/// benchmark compares runs across seeds. `--seed` draws what a second
/// recording of the same scene would change: per-pixel sensor noise and
/// when each camera starts.
const SCENE_SEED: u64 = 7;

/// Peak-to-peak amplitude of the seeded sensor noise, in units of the
/// `[0, 1]` pixel range (about ±2.5 grey levels of 255).
const SENSOR_NOISE: f32 = 0.02;

/// Add seeded uniform noise to every pixel of `frame` (labels untouched).
fn add_sensor_noise(frame: &mut Frame, seed: u64) {
    let mut state = mix(seed, frame.index as u64) | 1;
    for value in frame.image.data_mut() {
        // xorshift64*: cheap, and good enough for pixel noise.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let unit = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32;
        *value = (*value + SENSOR_NOISE * (unit - 0.5)).clamp(0.0, 1.0);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The pool's in-process channel endpoints.
    Channel,
    /// One stream over an [`ShmTransport`] ring, both ends in this process.
    Shm,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TeacherKind {
    /// The oracle alone: labelling costs nothing.
    Oracle,
    /// Pays a real `CnnTeacher::untrained(2)` batched forward per batch and
    /// answers with the oracle's labels (an untrained CNN's own labels are
    /// trivially matched, so they would drive no distillation).
    CnnBacked,
    /// Sleeps this long per solo forward, sub-linearly in batch size — a GPU
    /// stand-in that occupies the worker without occupying a core.
    Sleeping(Duration),
}

/// The teacher every pool in this benchmark is spawned with.
pub enum BenchTeacher {
    Oracle(OracleTeacher),
    CnnBacked {
        cnn: Box<CnnTeacher>,
        oracle: OracleTeacher,
    },
    Sleeping(PacedTeacher<OracleTeacher>),
}

impl BenchTeacher {
    pub fn new(kind: TeacherKind) -> Self {
        let oracle = OracleTeacher::perfect(7);
        match kind {
            TeacherKind::Oracle => BenchTeacher::Oracle(oracle),
            TeacherKind::CnnBacked => BenchTeacher::CnnBacked {
                cnn: Box::new(CnnTeacher::untrained(2, 11).expect("valid teacher widths")),
                oracle,
            },
            TeacherKind::Sleeping(pause) => {
                BenchTeacher::Sleeping(PacedTeacher::new(oracle, pause))
            }
        }
    }
}

impl Teacher for BenchTeacher {
    fn pseudo_label(&mut self, frame: &Frame) -> st_teacher::Result<Vec<usize>> {
        Ok(self.pseudo_label_batch(&[frame])?.remove(0))
    }

    fn pseudo_label_batch(&mut self, frames: &[&Frame]) -> st_teacher::Result<Vec<Vec<usize>>> {
        match self {
            BenchTeacher::Oracle(oracle) => oracle.pseudo_label_batch(frames),
            BenchTeacher::CnnBacked { cnn, oracle } => {
                std::hint::black_box(cnn.pseudo_label_batch(frames)?);
                oracle.pseudo_label_batch(frames)
            }
            BenchTeacher::Sleeping(paced) => paced.pseudo_label_batch(frames),
        }
    }

    fn inference_latency(&self) -> f64 {
        match self {
            BenchTeacher::Oracle(oracle) | BenchTeacher::CnnBacked { oracle, .. } => {
                oracle.inference_latency()
            }
            BenchTeacher::Sleeping(paced) => paced.inference_latency(),
        }
    }

    fn param_count(&self) -> usize {
        match self {
            BenchTeacher::Oracle(oracle) | BenchTeacher::CnnBacked { oracle, .. } => {
                oracle.param_count()
            }
            BenchTeacher::Sleeping(paced) => paced.param_count(),
        }
    }
}

/// One workload: inputs, topology, and what its outputs must satisfy.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub streams: usize,
    /// Frames per stream per round, sized so a round is ≈ 2.2 s on the
    /// reference host.
    pub frames: usize,
    pub resolution: Resolution,
    pub student: StudentConfig,
    pub config: ShadowTutorConfig,
    pub pool: PoolConfig,
    content: Content,
    /// `Some(fps)` = open loop at the camera; `None` = closed loop.
    pub camera_fps: Option<f64>,
    pub transport: Transport,
    pub teacher: TeacherKind,
    pretrain_steps: usize,
    /// Whether every count must repeat exactly in every round (hard error)
    /// rather than being reported as `determinism_breaks`.
    pub lockstep: bool,
    /// Validity: distillation steps per key frame must fall in this range,
    /// or the workload is not exercising what it claims to.
    pub steps_per_keyframe: (f64, f64),
    /// Validity: share of the window the pool worker was busy.
    pub busy_share: Option<(f64, f64)>,
    /// Recorded floor for `miou`: about 80 % of what twenty seeds gave.
    pub miou_floor: f64,
}

/// What the cameras see. Stream `i` films `scenes[i % scenes.len()]`.
struct Content {
    camera: CameraMotion,
    scenes: &'static [SceneKind],
    /// Override the scene's own cut interval (`Some(0)` = never cut).
    scene_change_interval: Option<usize>,
    /// Objects stand still.
    still: bool,
}

/// The paper's parameters with MAX_UPDATES recalibrated for this host.
///
/// On the paper's testbed a whole distillation (8 steps × 13 ms) fits inside
/// the client's deferral budget (MIN_STRIDE frames of Jetson inference), so
/// the update normally arrives before the client has to block. Here client
/// and server run on equal cores and one Algorithm-1 step costs ~2.7 student
/// inferences; two steps restore the paper's ratio (evaluation + 2 steps ≈
/// 27 ms against 8 × 4.3 ms). The under-trained students used here never
/// reach THRESHOLD early, so every key frame takes exactly MAX_UPDATES
/// steps — identical work in every round.
fn calibrated(config: ShadowTutorConfig) -> ShadowTutorConfig {
    ShadowTutorConfig {
        max_updates: 2,
        ..config
    }
}

fn fixed_stride(config: ShadowTutorConfig, stride: usize) -> ShadowTutorConfig {
    ShadowTutorConfig {
        min_stride: stride,
        max_stride: stride,
        ..config
    }
}

/// All workloads, in the order they run.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "solo_paper",
            why: "Paper operating point: 1 closed-loop stream, partial distillation, stride 8-64. The client thread is >90% student inference, so client_fps follows forward-conv work; pool and transport barely show.",
            streams: 1,
            frames: 520,
            resolution: Resolution::Small,
            student: StudentConfig::small(),
            config: calibrated(ShadowTutorConfig::paper()),
            // Bare trainable-subset snapshots, as in the paper. With delta
            // encoding on, whether a key frame's two steps beat the previous
            // metric (so the update carries chunks) or not (so it carries
            // none) flips with sensor noise, and bytes per key frame swing
            // 4x between seeds; `pool_lockstep` and `pool_paced` carry the
            // delta path on content where it is steady.
            pool: PoolConfig::with_shards(1),
            content: Content {
                camera: CameraMotion::Moving,
                scenes: &[SceneKind::People],
                scene_change_interval: None,
                still: false,
            },
            camera_fps: None,
            transport: Transport::Channel,
            teacher: TeacherKind::Oracle,
            pretrain_steps: 60,
            lockstep: false,
            steps_per_keyframe: (0.0, 8.0),
            busy_share: None,
            miou_floor: 0.5,
        },
        Workload {
            name: "pool_lockstep",
            why: "Server-bound: 4 closed-loop streams on 1 shard, every frame a key frame. Batched CNN teacher forwards, Algorithm-1 steps, snapshot and delta encoding do the work. Fully deterministic.",
            streams: 4,
            frames: 16,
            resolution: Resolution::Small,
            student: StudentConfig::small(),
            config: fixed_stride(calibrated(ShadowTutorConfig::paper()), 1),
            pool: PoolConfig {
                delta_updates: true,
                ..PoolConfig::with_shards(1)
            },
            content: Content {
                camera: CameraMotion::Fixed,
                scenes: &[SceneKind::Street, SceneKind::People, SceneKind::Animals],
                scene_change_interval: Some(10),
                still: false,
            },
            camera_fps: None,
            transport: Transport::Channel,
            teacher: TeacherKind::CnnBacked,
            pretrain_steps: 60,
            lockstep: true,
            steps_per_keyframe: (0.5, 8.0),
            busy_share: None,
            miou_floor: 0.18,
        },
        Workload {
            name: "pool_paced",
            why: "Open loop: 16 camera-paced streams, tiny student, stride 8, 4 reactor shards on 1 thread, sleeping teacher, worker ~30% busy. Scheduling, wake-ups and batching set the RTT; kernels barely matter.",
            streams: 16,
            frames: 48,
            resolution: Resolution::Tiny,
            student: StudentConfig::tiny(),
            config: fixed_stride(calibrated(ShadowTutorConfig::paper()), 8),
            pool: PoolConfig {
                delta_updates: true,
                reactor_threads: Some(1),
                ..PoolConfig::reactor(4)
            },
            content: Content {
                camera: CameraMotion::Fixed,
                scenes: &[SceneKind::People, SceneKind::Animals, SceneKind::Street],
                scene_change_interval: None,
                still: false,
            },
            camera_fps: Some(PACED_CAMERA_FPS),
            transport: Transport::Channel,
            teacher: TeacherKind::Sleeping(Duration::from_micros(3000)),
            pretrain_steps: 60,
            lockstep: false,
            steps_per_keyframe: (0.0, 8.0),
            busy_share: Some((0.15, 0.5)),
            miou_floor: 0.27,
        },
        Workload {
            name: "shm_fullsnap",
            why: "Transport-bound: 1 lockstep stream over the shm ring, paper-width student, full distillation. Every frame ships pixels up and a ~2 MB snapshot down: capture, encode, chunk, ring, decode, apply.",
            streams: 1,
            frames: 176,
            resolution: Resolution::Tiny,
            student: StudentConfig::paper(),
            // THRESHOLD below any student's starting metric: the d = 0 case
            // of §4.4 — every key frame is evaluated, none is trained on,
            // and the full snapshot still ships.
            config: fixed_stride(
                ShadowTutorConfig {
                    threshold: 0.05,
                    ..ShadowTutorConfig::paper_full()
                },
                1,
            ),
            pool: PoolConfig::with_shards(1),
            content: Content {
                camera: CameraMotion::Fixed,
                scenes: &[SceneKind::People],
                scene_change_interval: Some(0),
                still: true,
            },
            camera_fps: None,
            transport: Transport::Shm,
            teacher: TeacherKind::Oracle,
            pretrain_steps: 30,
            lockstep: true,
            steps_per_keyframe: (0.0, 0.2),
            busy_share: None,
            miou_floor: 0.24,
        },
    ]
}

/// Camera rate of `pool_paced`, frames per second per stream: with 16
/// streams at stride 8 this offers 2 × fps key frames per second, sized so
/// the worker (3 ms teacher sleep + ~5 ms tiny-student distillation per key
/// frame) is ≈ 30 % busy.
const PACED_CAMERA_FPS: f64 = 20.0;

/// `(name, why)` of every workload, for `BENCHMARK.json`.
pub fn catalog() -> Vec<(&'static str, &'static str)> {
    all().iter().map(|w| (w.name, w.why)).collect()
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// What set-up produced: the round's input and the template every pool and
/// every client starts from.
pub struct Prepared {
    pub streams: Vec<Vec<Frame>>,
    pub pacing: Vec<Option<Pacing>>,
    pub template: StudentNet,
    /// Generator cost, for `video.gen_ms_per_frame`.
    pub gen_ms_per_frame: f64,
    /// Pre-training cost, for `pretrain.step_ms`.
    pub pretrain_step_ms: f64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finalizer: nearby seeds give unrelated streams.
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Scale the round length (smoke runs).
    pub fn scaled(mut self, scale: f64) -> Self {
        let stride = self.config.min_stride;
        let frames = ((self.frames as f64 * scale) as usize).max(2 * stride);
        // Whole strides, so a shortened round still ends on a key-frame
        // boundary like the full one.
        self.frames = frames / stride * stride;
        self
    }

    /// The same workload with another stream count and round length.
    pub fn resized(mut self, streams: usize, frames: usize) -> Self {
        self.streams = streams;
        self.frames = frames;
        self
    }

    /// Generate the content, pre-train the template.
    pub fn prepare(&self, seed: u64) -> Result<Prepared> {
        let (width, height) = self.resolution.dims();
        let gen_started = Instant::now();
        let mut streams = Vec::with_capacity(self.streams);
        for stream in 0..self.streams {
            let content = &self.content;
            let category = VideoCategory {
                camera: content.camera,
                scene: content.scenes[stream % content.scenes.len()],
            };
            let mut config =
                VideoConfig::for_category(category, width, height, mix(SCENE_SEED, stream as u64));
            if let Some(interval) = content.scene_change_interval {
                config.scene_change_interval = interval;
            }
            if content.still {
                config.object_speed = 0.0;
            }
            let mut frames = VideoGenerator::new(config)?.take_frames(self.frames);
            for frame in &mut frames {
                add_sensor_noise(frame, mix(seed, 500 + stream as u64));
            }
            streams.push(frames);
        }
        let gen_ms_per_frame =
            gen_started.elapsed().as_secs_f64() * 1e3 / (self.streams * self.frames) as f64;
        let mut oracle = OracleTeacher::perfect(7);
        assert_eq!(
            oracle.pseudo_label(&streams[0][0])?,
            streams[0][0].ground_truth,
            "the perfect oracle labels with the ground truth the clients score against"
        );

        // Independent cameras: each stream starts somewhere inside one
        // key-frame interval, so key frames arrive spread out, not in a
        // burst of `streams` every `min_stride` frames. Where in the
        // interval belongs to the scene (one fixed draw: how key frames
        // collide at the pool decides the queueing, and a different draw is
        // a different workload); the seed moves each start by up to 2 ms.
        let unit = |seed: u64, salt: u64| (mix(seed, salt) % 1_000_000) as f64 / 1e6;
        let period = self
            .camera_fps
            .map(|fps| Duration::from_secs_f64(1.0 / fps));
        let pacing = (0..self.streams)
            .map(|stream| {
                period.map(|period| Pacing {
                    period,
                    phase: period.mul_f64(
                        self.config.min_stride as f64 * unit(SCENE_SEED, 1000 + stream as u64),
                    ) + Duration::from_secs_f64(0.002 * unit(seed, 1000 + stream as u64)),
                })
            })
            .collect();

        let pretrain_started = Instant::now();
        let (template, _) = pretrain_student(
            self.student,
            &PretrainConfig {
                resolution: self.resolution,
                steps: self.pretrain_steps,
                frame_skip: 5,
                learning_rate: 0.02,
                seed: PRETRAIN_SEED,
            },
        )?;
        let pretrain_step_ms =
            pretrain_started.elapsed().as_secs_f64() * 1e3 / self.pretrain_steps as f64;
        Ok(Prepared {
            streams,
            pacing,
            template,
            gen_ms_per_frame,
            pretrain_step_ms,
        })
    }

    /// Host one round: fresh pool, fresh clients, the prepared frames (the
    /// first `frame_limit` of each stream). Pool spawn, connect and join
    /// are outside the timed window.
    pub fn run_round(
        &self,
        prepared: &Prepared,
        frame_limit: usize,
        tracer: &mut Tracer,
    ) -> Result<Round> {
        let inputs: Vec<StreamInput<'_>> = prepared
            .streams
            .iter()
            .zip(&prepared.pacing)
            .map(|(frames, pacing)| StreamInput {
                frames: &frames[..frame_limit.min(frames.len())],
                pacing: *pacing,
            })
            .collect();
        let kind = self.teacher;
        let (drive, pool) = match self.transport {
            Transport::Channel => {
                let pool = ServerPool::spawn(
                    self.config,
                    self.pool,
                    prepared.template.clone(),
                    DISTILL_STEP_LATENCY,
                    |_| BenchTeacher::new(kind),
                )?;
                let poller = Poller::new();
                let mut endpoints = Vec::with_capacity(self.streams);
                for (token, frames) in prepared.streams.iter().enumerate() {
                    endpoints.push(pool.connect_with_waker(
                        token as u64,
                        frames,
                        Some(poller.waker(token)),
                    )?);
                }
                let outcome = drive(
                    self.config,
                    &prepared.template,
                    self.pool.delta_updates,
                    &inputs,
                    &mut endpoints,
                    Waiter::Poller(&poller),
                    tracer,
                );
                // Join the pool even when the client side failed: its
                // workers must not outlive the round.
                drop(endpoints);
                let stats = pool.join();
                (outcome?, stats.map_err(TensorError::from)?)
            }
            Transport::Shm => self.run_shm_round(prepared, &inputs, tracer)?,
        };
        let report = pool.snapshot();
        Ok(Round {
            drive,
            pool,
            report,
        })
    }

    fn run_shm_round(
        &self,
        prepared: &Prepared,
        inputs: &[StreamInput<'_>],
        tracer: &mut Tracer,
    ) -> Result<(DriveOutcome, PoolStats)> {
        assert_eq!(self.streams, 1, "the shm bridge hosts one stream");
        let path = scratch_path("shm")?;
        let kind = self.teacher;
        let result = std::thread::scope(|scope| {
            let host = scope.spawn(|| {
                host_stream_over_shm(
                    self.config,
                    self.pool,
                    prepared.template.clone(),
                    DISTILL_STEP_LATENCY,
                    |_| BenchTeacher::new(kind),
                    0,
                    &prepared.streams[0],
                    &path,
                    ShmConfig::default(),
                )
            });
            let mut client = || -> Result<DriveOutcome> {
                let ring = ShmTransport::<ClientToServer, ServerToClient>::open(
                    &path,
                    ShmSide::Client,
                    Duration::from_secs(10),
                )
                .map_err(|e| TensorError::InvalidArgument(format!("open shm segment: {e}")))?;
                let mut endpoints = [st_net::connect().with_transport(ring)];
                drive(
                    self.config,
                    &prepared.template,
                    self.pool.delta_updates,
                    inputs,
                    &mut endpoints,
                    Waiter::Blocking,
                    tracer,
                )
                // Dropping the endpoint closes the client side of the ring,
                // which is what ends the host's bridge loop.
            };
            let outcome = client();
            let hosted = host
                .join()
                .map_err(|_| TensorError::InvalidArgument("shm host thread panicked".into()))?;
            Ok((outcome?, hosted?.pool))
        });
        let _ = std::fs::remove_file(&path);
        result
    }
}

/// Where this benchmark writes (the shm segment file, the span dumps, the
/// full run's results): `stbench/out/` of the checkout it runs from — the
/// manifest directory `cargo run` names in the environment, so a checkout
/// that was moved after it was built still writes inside itself — or, run
/// bare, of the checkout it was built in.
pub fn out_dir() -> Result<PathBuf> {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let dir = manifest_dir.join("out");
    std::fs::create_dir_all(&dir)
        .map_err(|e| TensorError::InvalidArgument(format!("create {}: {e}", dir.display())))?;
    Ok(dir)
}

/// A fresh file name under [`out_dir`] (shared-memory segments), unique
/// across processes and within this one.
pub fn scratch_path(tag: &str) -> Result<PathBuf> {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    // ORDER: Relaxed — a unique-name counter, publishes nothing.
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    Ok(out_dir()?.join(format!("{tag}-{}-{n}", std::process::id())))
}

/// One hosted round, as measured from both sides.
pub struct Round {
    pub drive: DriveOutcome,
    pub pool: PoolStats,
    /// `pool.snapshot()`, condensed once (its percentiles sort every queue
    /// wait of the round).
    pub report: PoolReport,
}

impl Round {
    pub fn frames(&self) -> usize {
        self.drive.clients.iter().map(|c| c.frames).sum()
    }

    pub fn sum(&self, field: impl Fn(&ClientReport) -> usize) -> usize {
        self.drive.clients.iter().map(field).sum()
    }

    /// Mean mIoU against the teacher's label over every served frame.
    pub fn miou(&self) -> f64 {
        self.drive.clients.iter().map(|c| c.miou_sum).sum::<f64>() / self.frames() as f64
    }

    /// Seconds the pool's workers spent processing batches.
    pub fn busy_secs(&self) -> f64 {
        self.report.shards.iter().map(|s| s.busy_secs).sum()
    }

    pub fn window_secs(&self) -> f64 {
        self.drive.window.as_secs_f64()
    }

    /// Every key-frame round trip of the round, milliseconds.
    pub fn rtts_ms(&self) -> Vec<f64> {
        self.drive
            .clients
            .iter()
            .flat_map(|c| c.rtts_ms.iter().copied())
            .collect()
    }

    /// Weight bytes the pool held at its fullest: the content-addressed
    /// store plus every shard's peak of privately materialized session
    /// storage. (The join-time sample `session_bytes_private` depends on how
    /// many streams had already retired when the last batch was sampled.)
    pub fn resident_weight_bytes(&self) -> usize {
        self.pool.store_resident_bytes
            + self
                .pool
                .shards
                .iter()
                .map(|s| s.session_bytes_private_peak)
                .sum::<usize>()
    }

    /// The counts that must repeat exactly when a workload is replayed.
    pub fn exact_counts(&self) -> Vec<usize> {
        vec![
            self.frames(),
            self.sum(|c| c.key_frames),
            self.sum(|c| c.updates_applied),
            self.sum(|c| c.distill_steps),
            self.sum(|c| c.bytes_up),
            self.sum(|c| c.bytes_down),
            self.sum(ClientReport::failed),
            self.resident_weight_bytes(),
        ]
    }

    /// Output checks that apply to every round of `workload`; each failure
    /// is one line.
    pub fn verify(&self, workload: &Workload) -> Vec<String> {
        let mut failures = Vec::new();
        for (stream, client) in self.drive.clients.iter().enumerate() {
            match self.pool.final_checkpoints.get(&(stream as u64)) {
                None => failures.push(format!("stream {stream}: no server checkpoint")),
                Some(server) if server.encode() != client.final_student.encode() => failures.push(
                    format!("stream {stream}: client weights differ from the server's checkpoint"),
                ),
                Some(_) => {}
            }
            if client.delta_rejections > 0 {
                failures.push(format!(
                    "stream {stream}: {} delta rejections",
                    client.delta_rejections
                ));
            }
            if client.timed_out > 0 {
                failures.push(format!(
                    "stream {stream}: {} waits timed out",
                    client.timed_out
                ));
            }
        }
        let refused = self.pool.throttled() + self.pool.dropped_jobs();
        if workload.camera_fps.is_none() && refused > 0 {
            failures.push(format!(
                "closed loop, yet {refused} key frames throttled/dropped"
            ));
        }
        let served = self.pool.total_key_frames();
        if served != self.sum(|c| c.updates_applied) {
            failures.push(format!(
                "pool served {served} key frames, clients applied {}",
                self.sum(|c| c.updates_applied)
            ));
        }
        failures
    }
}
