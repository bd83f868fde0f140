//! The threaded live runtime: client and server as real OS threads.
//!
//! The paper implements ShadowTutor as two OpenMPI ranks exchanging
//! non-blocking messages. Here the roles run as real threads connected by
//! channel transports; the client sends key frames without blocking, keeps
//! serving frames, polls for the update, and blocks only after deferring for
//! `MIN_STRIDE` frames — the same logic as the frame-stepped runtime, but
//! with genuine concurrency and wall-clock timing.
//!
//! There is one server, the sharded [`crate::serve::ServerPool`], and one
//! entry point, [`run_live_multi`]: M client streams, each multiplexed onto
//! its shard's queue with stream-tagged messages, the pool reporting its
//! queueing as measured ([`PoolStats`]). The paper's one-client topology is
//! the same call with one [`StreamSpec`] and `PoolConfig::with_shards(1)`;
//! more streams are the server-contention scenario the paper does not
//! evaluate. All client state machines are driven by **one** thread
//! multiplexing their endpoints through a [`st_net::Poller`], the way the
//! pool's reactor hosts its shards.
//!
//! That driver and the shm client ([`crate::runtime::shm_live`]) pump the
//! *same* client state machine through the [`st_net::ClientEndpoint`]
//! trait, so protocol behaviour cannot drift between them. These runtimes
//! exist to demonstrate that the protocol and state machines work under
//! real asynchrony; the tables and figures are produced by the
//! deterministic frame-stepped runtime instead.

use crate::client::ClientState;
use crate::config::ShadowTutorConfig;
use crate::latency::LatencyProfile;
use crate::report::{ExperimentRecord, FrameRecord, KeyFrameRecord};
use crate::serve::{PoolConfig, PoolStats, ServerPool};
use crate::Result;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient, StreamId, Wire, WireError};
use st_nn::delta::WeightPayload;
use st_nn::metrics::miou;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_teacher::{OracleTeacher, Teacher};
use st_video::Frame;
use std::time::{Duration, Instant};

/// Outcome of a live run: the client-side record plus server-side counters.
#[derive(Debug)]
pub struct LiveRunOutcome {
    /// Client-side experiment record (wall-clock total time).
    pub record: ExperimentRecord,
    /// Key frames the server processed.
    pub server_key_frames: usize,
    /// Total distillation steps the server took.
    pub server_distill_steps: usize,
    /// Full snapshot of the client's student after the last frame — what the
    /// stream would keep serving with. Lets tests assert that concurrent
    /// streams do not bleed weights into each other.
    pub final_student: WeightSnapshot,
}

/// One client stream fed to [`run_live_multi`].
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream identifier (also selects the shard: `stream_id % shards`).
    pub stream_id: StreamId,
    /// Label recorded on the stream's [`ExperimentRecord`].
    pub label: String,
    /// The pre-generated frames of the stream.
    pub frames: Vec<Frame>,
}

/// Outcome of a multi-stream live run against a server pool.
#[derive(Debug)]
pub struct MultiLiveOutcome {
    /// Per-stream outcomes, in the order the streams were passed in.
    pub streams: Vec<LiveRunOutcome>,
    /// Server-pool statistics (queueing, batching, per-stream counters,
    /// final server-side checkpoints).
    pub pool: PoolStats,
    /// Wall-clock duration of the whole run (pool spawn to pool join).
    pub wall_time: f64,
}

impl MultiLiveOutcome {
    /// Aggregate frames served per wall-clock second across all streams.
    pub fn aggregate_fps(&self) -> f64 {
        let frames: usize = self.streams.iter().map(|s| s.record.frames).sum();
        if self.wall_time <= 0.0 {
            0.0
        } else {
            frames as f64 / self.wall_time
        }
    }

    /// Mean wall-clock queue wait per key frame at the server, seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        self.pool.mean_queue_wait_secs()
    }
}

/// Everything the client loop produced for one stream.
pub(crate) struct ClientLoopOutput {
    pub(crate) record: ExperimentRecord,
    pub(crate) final_student: WeightSnapshot,
}

/// How long a client waits for the initial checkpoint, or for a forced
/// update once the deferral budget is exhausted, before proceeding without
/// the server.
const CLIENT_WAIT_BUDGET: Duration = Duration::from_secs(30);

/// Cap on one multiplexed-poll sleep: even with no client deadline armed
/// the driver loop re-inspects every client at least this often, so a lost
/// wakeup degrades to latency rather than a hang.
const MUX_IDLE_TICK: Duration = Duration::from_millis(50);

/// What a [`ClientDriver::pump`] call left the client doing.
enum PumpState {
    /// The client completed a frame and can process the next one
    /// immediately. `pump` yields between frames so a multiplexing loop can
    /// interleave many clients fairly on one thread.
    Runnable,
    /// The client is blocked until a downlink message arrives or the given
    /// deadline passes.
    Waiting(Instant),
    /// All frames served and `Shutdown` sent; call
    /// [`ClientDriver::into_output`].
    Finished,
}

/// Which blocking point the client is at between [`ClientDriver::pump`]
/// calls.
enum ClientPhase {
    /// Waiting for the server's initial checkpoint (Algorithm 4, line 1).
    AwaitInitial {
        /// When to give up and serve with the local checkpoint.
        deadline: Instant,
    },
    /// Ready to process the next frame.
    Serving,
    /// The deferral budget is exhausted: the current frame's bookkeeping
    /// cannot complete until the in-flight update arrives (or the deadline
    /// writes it off).
    AwaitUpdate {
        /// When to give up on the in-flight update.
        deadline: Instant,
    },
    /// `Shutdown` sent; nothing left to do.
    Finished,
}

/// Inference results of a frame whose update handling is still pending.
struct PendingFrame {
    index: usize,
    is_key_frame: bool,
    miou: f64,
}

/// Algorithm 4 as a *resumable* state machine over any [`ClientEndpoint`]:
/// wait for the initial checkpoint, serve every frame, send key frames
/// asynchronously, apply updates as they arrive (deferring at most
/// `MIN_STRIDE` frames), and finish with a `Shutdown`.
///
/// Unlike a blocking loop, the driver never parks inside the endpoint:
/// [`pump`](Self::pump) advances as far as it can without blocking and then
/// reports what it is waiting for. A single-stream caller wraps it in a
/// trivial block-on-`recv_timeout` loop ([`drive_client`]); the multi-stream
/// runtime instead multiplexes many drivers through one [`st_net::Poller`]
/// on one thread, mirroring how the reactor pool hosts many shards on a
/// fixed worker set.
struct ClientDriver<'a> {
    config: ShadowTutorConfig,
    frames: &'a [Frame],
    label: &'a str,
    variant_prefix: &'a str,
    client_student: StudentNet,
    client: ClientState,
    frame_records: Vec<FrameRecord>,
    key_records: Vec<KeyFrameRecord>,
    uplink_bytes: usize,
    downlink_bytes: usize,
    frame_bytes: usize,
    update_bytes: usize,
    reference_teacher: OracleTeacher,
    started: Instant,
    pending_metric: Option<(usize, f64, usize)>,
    pending_frame: Option<PendingFrame>,
    /// One-message pushback buffer so a blocking wrapper can feed a message
    /// obtained via `recv_timeout` back into the non-blocking pump.
    stashed: Option<ServerToClient>,
    /// Set once the endpoint reports its peer gone: every wait completes
    /// immediately and the client serves local-only from then on, with the
    /// student it last applied. Nothing re-dials: a pool shard's recovery
    /// never gets here (the shard keeps its uplink and downlinks), so a
    /// lost peer is gone for good.
    disconnected: bool,
    /// Whether the pool serves delta updates
    /// ([`PoolConfig::delta_updates`]): downlink weight payloads are
    /// [`WeightPayload`] envelopes instead of bare snapshots.
    delta_updates: bool,
    cursor: usize,
    elapsed: f64,
    phase: ClientPhase,
}

impl<'a> ClientDriver<'a> {
    fn new(
        config: ShadowTutorConfig,
        frames: &'a [Frame],
        mut client_student: StudentNet,
        label: &'a str,
        variant_prefix: &'a str,
        delta_updates: bool,
    ) -> Self {
        client_student.freeze = config.mode.freeze_point();
        ClientDriver {
            config,
            frames,
            label,
            variant_prefix,
            client_student,
            client: ClientState::new(config),
            frame_records: Vec::with_capacity(frames.len()),
            key_records: Vec::new(),
            uplink_bytes: 0,
            downlink_bytes: 0,
            frame_bytes: 0,
            update_bytes: 0,
            reference_teacher: OracleTeacher::perfect(12345),
            started: Instant::now(),
            pending_metric: None,
            pending_frame: None,
            stashed: None,
            disconnected: false,
            delta_updates,
            cursor: 0,
            elapsed: 0.0,
            phase: ClientPhase::AwaitInitial {
                deadline: Instant::now() + CLIENT_WAIT_BUDGET,
            },
        }
    }

    /// Hand the driver a message received outside of `pump` (blocking
    /// wrapper); it is consumed before the endpoint is polled again.
    fn stash(&mut self, message: ServerToClient) {
        debug_assert!(self.stashed.is_none(), "stash overwrites pending message");
        self.stashed = Some(message);
    }

    /// Resolve the current wait without a message — the blocking wrapper's
    /// `recv_timeout` expired. This preserves the original blocking-loop
    /// semantics of "one receive attempt, then move on", even for scripted
    /// endpoints whose `recv_timeout` does not honour wall-clock timeouts.
    fn deadline_expired(&mut self) -> Result<()> {
        match self.phase {
            ClientPhase::AwaitInitial { .. } => {
                // Server unavailable; serve with the local checkpoint.
                self.phase = ClientPhase::Serving;
                Ok(())
            }
            ClientPhase::AwaitUpdate { .. } => self.complete_frame(None, true),
            _ => Ok(()),
        }
    }

    /// Next downlink message without blocking: the stash first, then the
    /// endpoint. Transport errors latch `disconnected`.
    fn next_message<E: ClientEndpoint>(&mut self, endpoint: &mut E) -> Option<ServerToClient> {
        if let Some(message) = self.stashed.take() {
            return Some(message);
        }
        match endpoint.try_recv() {
            Ok(message) => message,
            Err(st_net::TransportError::Disconnected) => {
                self.disconnected = true;
                None
            }
            Err(_) => None,
        }
    }

    /// Advance as far as possible without blocking, yielding after each
    /// completed frame.
    fn pump<E: ClientEndpoint>(&mut self, endpoint: &mut E) -> Result<PumpState> {
        loop {
            match self.phase {
                ClientPhase::AwaitInitial { deadline } => match self.next_message(endpoint) {
                    Some(ServerToClient::InitialStudent { payload }) => {
                        if let Some(data) = payload.data {
                            self.apply_weight_payload(&data, SnapshotScope::Full)?;
                        }
                        self.phase = ClientPhase::Serving;
                    }
                    // Any other reply still proves the server is reachable;
                    // serve with the local checkpoint rather than stalling.
                    Some(_) => self.phase = ClientPhase::Serving,
                    None if self.disconnected || Instant::now() >= deadline => {
                        self.phase = ClientPhase::Serving;
                    }
                    None => return Ok(PumpState::Waiting(deadline)),
                },
                ClientPhase::Serving => {
                    if self.cursor >= self.frames.len() {
                        endpoint.send(ClientToServer::Shutdown, 1).ok();
                        self.elapsed = self.started.elapsed().as_secs_f64();
                        self.phase = ClientPhase::Finished;
                        return Ok(PumpState::Finished);
                    }
                    let frame = &self.frames[self.cursor];
                    self.frame_bytes = frame.raw_rgb_bytes();
                    let decision = self.client.begin_frame();
                    if decision.is_key_frame {
                        let payload = Payload::with_data(bytes::Bytes::from(frame.quantized_rgb()));
                        let bytes = payload.bytes;
                        self.uplink_bytes += bytes;
                        if endpoint
                            .send(
                                ClientToServer::KeyFrame {
                                    frame_index: frame.index,
                                    payload,
                                },
                                bytes,
                            )
                            .is_err()
                        {
                            self.disconnected = true;
                        }
                    }

                    let prediction = self.client_student.predict(&frame.image)?;
                    let reference = self.reference_teacher.pseudo_label(frame)?;
                    let value = miou(
                        &prediction,
                        &reference,
                        self.client_student.config.num_classes,
                    )?
                    .value;
                    self.pending_frame = Some(PendingFrame {
                        index: frame.index,
                        is_key_frame: decision.is_key_frame,
                        miou: value,
                    });

                    // Poll (or wait, if the deferral budget is exhausted) for
                    // the update.
                    if decision.must_wait_for_update && self.client.update_outstanding() {
                        self.phase = ClientPhase::AwaitUpdate {
                            deadline: Instant::now() + CLIENT_WAIT_BUDGET,
                        };
                    } else {
                        let incoming = self.next_message(endpoint);
                        self.complete_frame(incoming, false)?;
                        return Ok(PumpState::Runnable);
                    }
                }
                ClientPhase::AwaitUpdate { deadline } => match self.next_message(endpoint) {
                    Some(message) => {
                        self.complete_frame(Some(message), true)?;
                        return Ok(PumpState::Runnable);
                    }
                    None if self.disconnected || Instant::now() >= deadline => {
                        self.complete_frame(None, true)?;
                        return Ok(PumpState::Runnable);
                    }
                    None => return Ok(PumpState::Waiting(deadline)),
                },
                ClientPhase::Finished => return Ok(PumpState::Finished),
            }
        }
    }

    /// Apply one downlink weight payload to the local student. Without delta
    /// updates the bytes are a bare [`WeightSnapshot`] at `scope`; with them
    /// they are a [`WeightPayload::Full`] envelope. The pool sends no other,
    /// so a `Delta` envelope fails as a protocol error, the student
    /// untouched.
    fn apply_weight_payload(&mut self, data: &bytes::Bytes, scope: SnapshotScope) -> Result<()> {
        let snapshot = if self.delta_updates {
            let full =
                <WeightPayload as Wire>::decode(&mut &data[..]).and_then(|payload| match payload {
                    WeightPayload::Full(snapshot) => Ok(snapshot),
                    WeightPayload::Delta(_) => Err(WireError::UnknownVariant {
                        type_name: "WeightPayload",
                        tag: 1,
                    }),
                });
            full.map_err(|e| {
                st_tensor::TensorError::InvalidArgument(format!("weight payload: {e}"))
            })?
        } else {
            WeightSnapshot::decode(data, scope)?
        };
        snapshot.apply(&mut self.client_student)?;
        Ok(())
    }

    /// Finish the in-flight frame: handle `incoming`, apply a deferred
    /// post-training metric, and record the frame.
    fn complete_frame(&mut self, incoming: Option<ServerToClient>, waited: bool) -> Result<()> {
        match incoming {
            Some(ServerToClient::StudentUpdate {
                frame_index,
                metric,
                distill_steps,
                payload,
            }) => {
                if let Some(data) = payload.data {
                    self.downlink_bytes += data.len();
                    self.update_bytes = data.len();
                    self.apply_weight_payload(&data, SnapshotScope::TrainableOnly)?;
                }
                self.pending_metric = Some((frame_index, metric, distill_steps));
            }
            // Admission control rejected the key frame: no update will come,
            // so the student keeps serving with its current weights — exactly
            // what partial distillation already tolerates between updates. A
            // `Throttle` is an explicit back-pressure signal, so it also
            // stretches the key-frame stride (client-side pacing) instead of
            // re-offering key frames at the rejected rate; a `Dropped` frame
            // keeps the current schedule.
            Some(ServerToClient::Throttle { .. }) => self.client.throttled_update(),
            Some(ServerToClient::Dropped { .. }) => self.client.abandon_update(),
            // The initial student was applied before the loop started, and
            // the pool sends nothing else.
            _ => {}
        }
        if let Some((frame_index, metric, steps)) = self.pending_metric.take() {
            if self.client.update_outstanding() {
                self.client.apply_update(metric);
                self.key_records.push(KeyFrameRecord {
                    frame_index,
                    steps,
                    initial_metric: 0.0,
                    metric,
                    stride_after: self.client.stride(),
                });
            }
        }
        let pending = self.pending_frame.take().expect("a frame is in flight");
        self.frame_records.push(FrameRecord {
            index: pending.index,
            is_key_frame: pending.is_key_frame,
            miou: pending.miou,
            waited,
        });
        self.cursor += 1;
        self.phase = ClientPhase::Serving;
        Ok(())
    }

    /// Consume the driver into the stream's record and final checkpoint.
    fn into_output(mut self) -> ClientLoopOutput {
        let final_student = WeightSnapshot::capture(&mut self.client_student, SnapshotScope::Full);
        let record = ExperimentRecord {
            label: self.label.to_string(),
            variant: format!("{}-{}", self.variant_prefix, self.config.mode.label()),
            frames: self.frame_records.len(),
            frame_records: self.frame_records,
            key_frames: self.key_records,
            frame_bytes: self.frame_bytes,
            update_bytes: self.update_bytes,
            uplink_bytes: self.uplink_bytes,
            downlink_bytes: self.downlink_bytes,
            total_time: self.elapsed,
            config: self.config,
            latency: LatencyProfile::paper(),
        };
        ClientLoopOutput {
            record,
            final_student,
        }
    }
}

/// Algorithm 4 driven to completion over one [`ClientEndpoint`], blocking in
/// `recv_timeout` whenever the state machine waits: the one-client form of
/// the same [`ClientDriver::pump`] the multiplexed driver runs, used by the
/// shm client and the scripted-endpoint tests.
pub(crate) fn drive_client<E: ClientEndpoint>(
    config: ShadowTutorConfig,
    frames: &[Frame],
    client_student: StudentNet,
    endpoint: &mut E,
    label: &str,
    variant_prefix: &str,
    delta_updates: bool,
) -> Result<ClientLoopOutput> {
    let mut driver = ClientDriver::new(
        config,
        frames,
        client_student,
        label,
        variant_prefix,
        delta_updates,
    );
    loop {
        match driver.pump(endpoint)? {
            PumpState::Runnable => {}
            PumpState::Finished => return Ok(driver.into_output()),
            PumpState::Waiting(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                match endpoint.recv_timeout(timeout) {
                    Ok(message) => driver.stash(message),
                    Err(st_net::TransportError::Disconnected) => driver.disconnected = true,
                    Err(st_net::TransportError::Timeout) => driver.deadline_expired()?,
                }
            }
        }
    }
}

/// Run M concurrent client streams against one sharded server pool.
///
/// Every stream starts from the same pre-trained `student` checkpoint; the
/// pool keeps one isolated distillation session per stream and batches
/// teacher forward passes across streams that land on the same shard. Each
/// shard's teacher comes from `teacher_factory(shard_index)`.
///
/// # Example
///
/// ```
/// use shadowtutor::config::ShadowTutorConfig;
/// use shadowtutor::runtime::live::{run_live_multi, StreamSpec};
/// use shadowtutor::serve::PoolConfig;
/// use st_nn::student::{StudentConfig, StudentNet};
/// use st_teacher::OracleTeacher;
/// use st_video::dataset::tiny_stream;
/// use st_video::SceneKind;
///
/// let streams = vec![
///     StreamSpec {
///         stream_id: 0,
///         label: "people".into(),
///         frames: tiny_stream(SceneKind::People, 1, 12),
///     },
///     StreamSpec {
///         stream_id: 1,
///         label: "animals".into(),
///         frames: tiny_stream(SceneKind::Animals, 2, 12),
///     },
/// ];
/// let outcome = run_live_multi(
///     ShadowTutorConfig::paper(),
///     streams,
///     StudentNet::new(StudentConfig::tiny()).unwrap(),
///     PoolConfig::with_shards(2),
///     |shard| OracleTeacher::perfect(10 + shard as u64),
/// )
/// .unwrap();
/// assert_eq!(outcome.streams.len(), 2);
/// // The pool's statistics condense into the operator report.
/// let report = outcome.pool.snapshot();
/// assert_eq!(report.total_key_frames, outcome.pool.total_key_frames());
/// ```
pub fn run_live_multi<T, F>(
    config: ShadowTutorConfig,
    streams: Vec<StreamSpec>,
    student: StudentNet,
    pool_config: PoolConfig,
    teacher_factory: F,
) -> Result<MultiLiveOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    run_live_multi_with(
        config,
        streams,
        student,
        pool_config,
        teacher_factory,
        ClientDriverMode::Multiplexed,
    )
}

/// How [`run_live_multi`] hosts its client loops: one driver thread
/// multiplexes every client endpoint through a single [`st_net::Poller`],
/// pumping each client when its downlink has traffic or its wait deadline
/// expires.
// One variant, and a sixth parameter below, only because `stbench/src/check.rs`
// names both and cannot change in a library PR (ROADMAP items 1 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientDriverMode {
    /// The only driver.
    Multiplexed,
}

/// [`run_live_multi`] under the name and signature `stbench --check` calls.
pub fn run_live_multi_with<T, F>(
    config: ShadowTutorConfig,
    streams: Vec<StreamSpec>,
    student: StudentNet,
    pool_config: PoolConfig,
    teacher_factory: F,
    _mode: ClientDriverMode,
) -> Result<MultiLiveOutcome>
where
    T: Teacher + Send + 'static,
    F: FnMut(usize) -> T,
{
    config.validate()?;
    pool_config.validate()?;
    // Duplicate ids would silently replace each other's pool registration
    // (the second connect overwrites the first stream's downlink), so the
    // resulting transport error would point nowhere near the cause — fail
    // fast instead.
    let mut seen = std::collections::HashSet::new();
    for spec in &streams {
        if !seen.insert(spec.stream_id) {
            return Err(st_tensor::TensorError::InvalidArgument(format!(
                "duplicate stream id {} in run_live_multi specs",
                spec.stream_id
            )));
        }
    }
    let started = Instant::now();

    // A pool with delta updates on serves them to every stream, so the
    // client drivers must decode envelopes.
    let delta_updates = pool_config.delta_updates;
    let pool = ServerPool::spawn(config, pool_config, student.clone(), 0.0, teacher_factory)?;

    // The driver drops every endpoint before returning, so the pool sees
    // all streams disconnect and `join` can complete.
    let outputs = drive_multiplexed(config, &streams, &student, &pool, delta_updates);
    // Join the pool even when the client side failed (its workers own the
    // teachers, and an abandoned pool would leak threads). A worker error
    // usually *explains* a client-side failure, so it takes precedence.
    let (pool_stats, outputs) = match (pool.join(), outputs) {
        (Err(worker_error), _) => return Err(worker_error.into()),
        (Ok(_), Err(client_error)) => return Err(client_error),
        (Ok(stats), Ok(outputs)) => (stats, outputs),
    };
    let wall_time = started.elapsed().as_secs_f64();

    let mut per_stream = Vec::with_capacity(outputs.len());
    for (spec, output) in streams.iter().zip(outputs) {
        let server = pool_stats
            .streams
            .get(&spec.stream_id)
            .copied()
            .unwrap_or_default();
        per_stream.push(LiveRunOutcome {
            record: output.record,
            server_key_frames: server.key_frames,
            server_distill_steps: server.distill_steps,
            final_student: output.final_student,
        });
    }
    Ok(MultiLiveOutcome {
        streams: per_stream,
        pool: pool_stats,
        wall_time,
    })
}

/// Drive every client state machine from the calling thread, multiplexed
/// over one [`st_net::Poller`]. Poll token `i` maps to `streams[i]`: a
/// downlink delivery for a stream wakes its token, and expired wait
/// deadlines make a client runnable again without a wakeup. Clients are
/// pumped one frame at a time round-robin, so a long stream cannot starve
/// the others.
///
/// The first client error aborts the run eagerly: every endpoint is dropped
/// on the way out.
fn drive_multiplexed(
    config: ShadowTutorConfig,
    streams: &[StreamSpec],
    student: &StudentNet,
    pool: &ServerPool,
    delta_updates: bool,
) -> Result<Vec<ClientLoopOutput>> {
    let poller = st_net::Poller::new();
    let mut endpoints = Vec::with_capacity(streams.len());
    for (token, spec) in streams.iter().enumerate() {
        endpoints.push(pool.connect_with_waker(
            spec.stream_id,
            &spec.frames,
            Some(poller.waker(token)),
        )?);
    }
    let mut drivers: Vec<Option<ClientDriver<'_>>> = streams
        .iter()
        .map(|spec| {
            Some(ClientDriver::new(
                config,
                &spec.frames,
                student.clone(),
                &spec.label,
                "live-multi",
                delta_updates,
            ))
        })
        .collect();
    let mut outputs: Vec<Option<ClientLoopOutput>> = streams.iter().map(|_| None).collect();
    let mut deadlines: Vec<Option<Instant>> = vec![None; streams.len()];
    let mut runnable = vec![true; streams.len()];
    let mut live = streams.len();

    while live > 0 {
        // Pump every runnable client one frame per round until all of them
        // are waiting or finished.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for token in 0..streams.len() {
                if !std::mem::take(&mut runnable[token]) {
                    continue;
                }
                let Some(driver) = drivers[token].as_mut() else {
                    continue;
                };
                match driver.pump(&mut endpoints[token])? {
                    PumpState::Runnable => {
                        runnable[token] = true;
                        progressed = true;
                    }
                    PumpState::Waiting(deadline) => deadlines[token] = Some(deadline),
                    PumpState::Finished => {
                        let driver = drivers[token].take().expect("driver present");
                        outputs[token] = Some(driver.into_output());
                        deadlines[token] = None;
                        live -= 1;
                    }
                }
            }
        }
        if live == 0 {
            break;
        }
        // Sleep until the nearest client deadline (capped so a lost wakeup
        // cannot stall the loop); any downlink delivery ends the sleep early
        // and marks its client runnable. Wakeups may race a message the pump
        // already consumed — a spurious pump is harmless.
        let now = Instant::now();
        let mut timeout = MUX_IDLE_TICK;
        for deadline in deadlines.iter().flatten() {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        for &token in poller.poll(timeout).tokens() {
            if drivers[token].is_some() {
                runnable[token] = true;
            }
        }
        let now = Instant::now();
        for token in 0..streams.len() {
            if deadlines[token].is_some_and(|deadline| now >= deadline) && drivers[token].is_some()
            {
                runnable[token] = true;
            }
        }
    }
    Ok(outputs
        .into_iter()
        .map(|output| output.expect("every client finished"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_video::dataset::tiny_stream as frames_for;
    use st_video::SceneKind;

    #[test]
    fn encode_frame_matches_raw_size() {
        let f = &frames_for(SceneKind::People, 1, 1)[0];
        assert_eq!(f.quantized_rgb().len(), f.raw_rgb_bytes());
    }

    /// A scripted server half: sends the initial checkpoint, then answers
    /// every key frame with a `Throttle` instead of a `StudentUpdate`.
    struct ThrottlingEndpoint {
        queue: std::collections::VecDeque<ServerToClient>,
        key_frames_seen: usize,
        shutdowns_seen: usize,
    }

    impl ThrottlingEndpoint {
        fn new() -> Self {
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(ServerToClient::InitialStudent {
                payload: Payload::sized(0),
            });
            ThrottlingEndpoint {
                queue,
                key_frames_seen: 0,
                shutdowns_seen: 0,
            }
        }
    }

    impl ClientEndpoint for ThrottlingEndpoint {
        fn send(
            &mut self,
            message: ClientToServer,
            _bytes: usize,
        ) -> std::result::Result<(), st_net::TransportError> {
            match message {
                ClientToServer::KeyFrame { frame_index, .. } => {
                    self.key_frames_seen += 1;
                    self.queue
                        .push_back(ServerToClient::Throttle { frame_index });
                }
                ClientToServer::Shutdown => self.shutdowns_seen += 1,
                ClientToServer::Register => {}
            }
            Ok(())
        }

        fn try_recv(
            &mut self,
        ) -> std::result::Result<Option<ServerToClient>, st_net::TransportError> {
            Ok(self.queue.pop_front())
        }

        fn recv_timeout(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<ServerToClient, st_net::TransportError> {
            self.queue
                .pop_front()
                .ok_or(st_net::TransportError::Timeout)
        }
    }

    #[test]
    fn a_delta_envelope_fails_as_a_protocol_error() {
        // Tag 1 (`Delta`): base 0, trainable scope, no entries.
        let delta = bytes::Bytes::copy_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]);
        let mut endpoint = ThrottlingEndpoint::new();
        endpoint.queue[0] = ServerToClient::InitialStudent {
            payload: Payload::with_data(delta),
        };
        let frames = frames_for(SceneKind::People, 6, 4);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let config = ShadowTutorConfig::paper();
        let Err(err) = drive_client(config, &frames, student, &mut endpoint, "d", "live", true)
        else {
            panic!("a delta envelope was applied")
        };
        assert!(
            err.to_string()
                .contains("unknown WeightPayload variant tag 1"),
            "{err}"
        );
    }

    #[test]
    fn throttled_client_falls_back_to_local_inference() {
        let frames = frames_for(SceneKind::People, 6, 40);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let mut endpoint = ThrottlingEndpoint::new();
        let output = drive_client(
            ShadowTutorConfig::paper(),
            &frames,
            student,
            &mut endpoint,
            "throttled",
            "live",
            false,
        )
        .unwrap();
        // Every frame was served locally — the run completed without ever
        // blocking on an update that would never come.
        assert_eq!(output.record.frames, 40);
        assert!(output
            .record
            .frame_records
            .iter()
            .all(|f| (0.0..=1.0).contains(&f.miou)));
        // No update was ever applied, but each throttle stretched the stride
        // (8 -> 16 -> 32), so only the key frames at 0 and 16 went out — the
        // third would land at frame 48, past the end of the stream. The old
        // behaviour (re-offering every MIN_STRIDE frames) would have sent 5.
        assert_eq!(output.record.key_frames.len(), 0);
        assert_eq!(endpoint.key_frames_seen, 2);
        assert_eq!(endpoint.shutdowns_seen, 1);
        // The throttle cleared the outstanding update each time, so the
        // deferral deadline never forced a blocking wait.
        assert!(output.record.frame_records.iter().all(|f| !f.waited));
    }

    /// A scripted server half that throttles the first `throttles_left` key
    /// frames and then answers the rest with real (weightless) updates.
    struct RecoveringEndpoint {
        queue: std::collections::VecDeque<ServerToClient>,
        throttles_left: usize,
        key_frames_seen: usize,
        updates_sent: usize,
    }

    impl RecoveringEndpoint {
        fn new(throttles: usize) -> Self {
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(ServerToClient::InitialStudent {
                payload: Payload::sized(0),
            });
            RecoveringEndpoint {
                queue,
                throttles_left: throttles,
                key_frames_seen: 0,
                updates_sent: 0,
            }
        }
    }

    impl ClientEndpoint for RecoveringEndpoint {
        fn send(
            &mut self,
            message: ClientToServer,
            _bytes: usize,
        ) -> std::result::Result<(), st_net::TransportError> {
            match message {
                ClientToServer::KeyFrame { frame_index, .. } => {
                    self.key_frames_seen += 1;
                    if self.throttles_left > 0 {
                        self.throttles_left -= 1;
                        self.queue
                            .push_back(ServerToClient::Throttle { frame_index });
                    } else {
                        self.updates_sent += 1;
                        self.queue.push_back(ServerToClient::StudentUpdate {
                            frame_index,
                            // Ratio 0.5 under Algorithm 2: each applied
                            // update halves the stride (floored at
                            // MIN_STRIDE).
                            metric: 0.4,
                            distill_steps: 1,
                            payload: Payload::sized(0),
                        });
                    }
                }
                ClientToServer::Shutdown | ClientToServer::Register => {}
            }
            Ok(())
        }

        fn try_recv(
            &mut self,
        ) -> std::result::Result<Option<ServerToClient>, st_net::TransportError> {
            Ok(self.queue.pop_front())
        }

        fn recv_timeout(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<ServerToClient, st_net::TransportError> {
            self.queue
                .pop_front()
                .ok_or(st_net::TransportError::Timeout)
        }
    }

    #[test]
    fn throttled_stream_recovers_without_drops_once_admission_reopens() {
        let frames = frames_for(SceneKind::People, 6, 100);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let mut endpoint = RecoveringEndpoint::new(2);
        let output = drive_client(
            ShadowTutorConfig::paper(),
            &frames,
            student,
            &mut endpoint,
            "recovering",
            "live",
            false,
        )
        .unwrap();
        // Back-off under throttles: keys at 0 (stride 8 -> 16) and 16
        // (16 -> 32); the server accepts again at 48 and the poor metric
        // walks the stride back down (32 -> 16 -> 8), so key frames resume
        // at 48, 64, 72, 80, 88, 96.
        assert_eq!(output.record.frames, 100);
        assert_eq!(endpoint.key_frames_seen, 8);
        assert_eq!(endpoint.updates_sent, 6);
        // Every accepted key frame produced an applied update — nothing was
        // dropped or abandoned once admission reopened.
        assert_eq!(output.record.key_frames.len(), 6);
        assert_eq!(
            output.record.key_frames.first().unwrap().frame_index,
            frames[48].index
        );
        // The stride recovered from the 32-frame back-off to MIN_STRIDE.
        assert_eq!(output.record.key_frames.last().unwrap().stride_after, 8);
        // Pacing, not blocking: no frame ever waited on a throttled update.
        assert!(output.record.frame_records.iter().all(|f| !f.waited));
    }

    /// An endpoint whose peer is gone from the start: every call reports
    /// `Disconnected`, and the client serves every frame local-only with
    /// the checkpoint it started from.
    struct DeadEndpoint;

    impl ClientEndpoint for DeadEndpoint {
        fn send(
            &mut self,
            _message: ClientToServer,
            _bytes: usize,
        ) -> std::result::Result<(), st_net::TransportError> {
            Err(st_net::TransportError::Disconnected)
        }

        fn try_recv(
            &mut self,
        ) -> std::result::Result<Option<ServerToClient>, st_net::TransportError> {
            Err(st_net::TransportError::Disconnected)
        }

        fn recv_timeout(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<ServerToClient, st_net::TransportError> {
            Err(st_net::TransportError::Disconnected)
        }
    }

    #[test]
    fn unreconnectable_endpoint_falls_back_to_local_serving() {
        let frames = frames_for(SceneKind::People, 6, 20);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let started = Instant::now();
        let output = drive_client(
            ShadowTutorConfig::paper(),
            &frames,
            student,
            &mut DeadEndpoint,
            "dead",
            "live",
            false,
        )
        .unwrap();
        assert_eq!(output.record.frames, 20);
        assert_eq!(output.record.key_frames.len(), 0);
        // A lost peer ends every wait at once: nothing sits out the
        // 30-second wait budget or sleeps before giving up.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn multi_run_rejects_duplicate_stream_ids() {
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let spec = StreamSpec {
            stream_id: 7,
            label: "dup".into(),
            frames: frames_for(SceneKind::People, 5, 4),
        };
        let err = run_live_multi(
            ShadowTutorConfig::paper(),
            vec![spec.clone(), spec],
            student,
            PoolConfig::with_shards(2),
            |_| OracleTeacher::perfect(1),
        )
        .unwrap_err();
        assert!(format!("{err:?}").contains("duplicate stream id"));
    }

    /// Runs `streams` through a pool with one shard per stream and checks
    /// that every stream finishes with its frames, key frames and a full
    /// final student.
    fn assert_pool_run_completes(streams: Vec<StreamSpec>) {
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let frame_counts: Vec<usize> = streams.iter().map(|s| s.frames.len()).collect();
        let outcome = run_live_multi(
            ShadowTutorConfig::paper(),
            streams,
            student,
            PoolConfig::with_shards(frame_counts.len()),
            |shard| OracleTeacher::perfect(10 + shard as u64),
        )
        .unwrap();
        assert_eq!(outcome.streams.len(), frame_counts.len());
        for (stream, &frames) in outcome.streams.iter().zip(&frame_counts) {
            assert_eq!(stream.record.frames, frames);
            assert!(stream.record.total_time > 0.0);
            assert!(stream.record.frame_records[0].is_key_frame);
            assert!(stream.record.uplink_bytes > 0);
            assert!(stream.server_key_frames >= 1);
            // The last update can still be in flight when the stream ends, so
            // the server may have processed one more key frame than the
            // client managed to apply.
            assert!(stream.server_key_frames >= stream.record.key_frame_count());
            assert_eq!(stream.final_student.scope(), SnapshotScope::Full);
            assert!(stream.final_student.entry_count() > 0);
        }
        assert!(outcome.aggregate_fps() > 0.0);
        assert_eq!(
            outcome.pool.total_key_frames(),
            outcome
                .streams
                .iter()
                .map(|s| s.server_key_frames)
                .sum::<usize>()
        );
        assert_eq!(outcome.pool.final_checkpoints.len(), frame_counts.len());
        assert!(outcome.wall_time > 0.0);
    }

    /// The paper's one-client topology: one stream on one shard.
    #[test]
    fn live_run_completes_with_real_threads() {
        assert_pool_run_completes(vec![StreamSpec {
            stream_id: 0,
            label: "live-test".into(),
            frames: frames_for(SceneKind::People, 2, 20),
        }]);
    }

    #[test]
    fn multi_run_completes_with_two_streams() {
        assert_pool_run_completes(vec![
            StreamSpec {
                stream_id: 0,
                label: "people".into(),
                frames: frames_for(SceneKind::People, 3, 16),
            },
            StreamSpec {
                stream_id: 1,
                label: "animals".into(),
                frames: frames_for(SceneKind::Animals, 4, 16),
            },
        ]);
    }

    /// End-to-end fixed-thread topology: a reactor pool (2 workers hosting
    /// 4 shards) under a single multiplexed client driver — 3 OS threads in
    /// total serving 4 streams.
    #[test]
    fn reactor_pool_with_multiplexed_clients_completes() {
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let streams: Vec<StreamSpec> = (0..4)
            .map(|id| StreamSpec {
                stream_id: id as u64,
                label: format!("stream-{id}"),
                frames: frames_for(SceneKind::Street, 20 + id as u64, 12),
            })
            .collect();
        let mut pool_config = PoolConfig::with_shards(4);
        pool_config.reactor_threads = Some(2);
        let outcome = run_live_multi(
            ShadowTutorConfig::paper(),
            streams,
            student,
            pool_config,
            |shard| OracleTeacher::perfect(30 + shard as u64),
        )
        .unwrap();
        assert_eq!(outcome.streams.len(), 4);
        for stream in &outcome.streams {
            assert_eq!(stream.record.frames, 12);
            assert!(stream.record.frame_records[0].is_key_frame);
            assert!(stream.server_key_frames >= 1);
        }
        let report = outcome.pool.snapshot();
        assert!(report.poll_wakeups > 0);
        assert!(report.events_dispatched > 0);
    }
}
