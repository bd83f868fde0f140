//! The threaded live runtime: client and server as real OS threads.
//!
//! The paper implements ShadowTutor as two OpenMPI ranks exchanging
//! non-blocking messages. Here the roles run as real threads connected by
//! channel transports; the client sends key frames without blocking, keeps
//! serving frames, polls for the update, and blocks only after deferring for
//! `MIN_STRIDE` frames — the same logic as the virtual-time runtime, but with
//! genuine concurrency and wall-clock timing (optionally stretched by a
//! link-delay injector).
//!
//! Two topologies are provided:
//!
//! * [`run_live`] — one client thread against one dedicated server thread
//!   over a [`st_net::transport::DuplexTransport`] pair (the paper's setup).
//! * [`run_live_multi`] — M client streams against one sharded
//!   [`crate::serve::ServerPool`], each stream multiplexed onto its shard's
//!   queue with stream-tagged messages. This is the server-contention
//!   scenario the paper does not evaluate; the pool's queueing statistics
//!   are compared against the analytic [`st_sim::ContentionModel`]. All
//!   client state machines are driven by **one** thread multiplexing their
//!   endpoints through a [`st_net::Poller`], the way the pool's reactor
//!   hosts its shards.
//!
//! Both topologies drive the *same* client state machine through the
//! [`st_net::ClientEndpoint`] trait, so protocol behaviour cannot drift
//! between them. These runtimes exist to demonstrate that the protocol and
//! state machines work under real asynchrony; the tables and figures are
//! produced by the deterministic virtual-time runtime instead.

use crate::client::ClientState;
use crate::config::{DistillationMode, ShadowTutorConfig};
use crate::loadgen::JitterRng;
use crate::report::{ExperimentRecord, FrameRecord, KeyFrameRecord};
use crate::serve::{PoolConfig, PoolStats, ServerPool};
use crate::server::ServerState;
use crate::Result;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient, StreamId, Wire};
use st_nn::delta::{CheckpointDigest, WeightPayload};
use st_nn::metrics::miou;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_sim::LatencyProfile;
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
    /// Client-side delta-protocol counters (all zero on streams that did not
    /// negotiate delta updates).
    pub delta: ClientDeltaStats,
}

/// Client-side counters of the delta-update protocol for one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientDeltaStats {
    /// Updates applied from a sparse [`st_nn::delta::WeightDelta`] envelope.
    pub delta_updates_applied: usize,
    /// Updates applied from a full-snapshot envelope: the initial checkpoint
    /// plus any post-failover re-sync the server fell back to.
    pub full_updates_applied: usize,
    /// Delta envelopes whose base-checkpoint verification failed
    /// ([`st_net::WireError::UnknownBaseCheckpoint`] /
    /// [`st_net::WireError::StaleBaseCheckpoint`]); the client keeps serving
    /// its current weights rather than applying an unappliable delta.
    pub delta_rejections: usize,
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
    pub(crate) delta: ClientDeltaStats,
}

/// How long a client waits for the initial checkpoint, or for a forced
/// update once the deferral budget is exhausted, before proceeding without
/// the server.
const CLIENT_WAIT_BUDGET: Duration = Duration::from_secs(30);

/// Cap on one multiplexed-poll sleep: even with no client deadline armed
/// the driver loop re-inspects every client at least this often, so a lost
/// wakeup degrades to latency rather than a hang.
const MUX_IDLE_TICK: Duration = Duration::from_millis(50);

/// First reconnect backoff delay after a transport disconnect.
const RECONNECT_BASE: Duration = Duration::from_millis(10);

/// Cap on the exponential reconnect backoff.
const RECONNECT_CAP: Duration = Duration::from_secs(1);

/// Reconnect attempts before the client gives up and serves local-only.
const RECONNECT_ATTEMPTS: u32 = 8;

/// Backoff before reconnect attempt `attempt` (0-based): exponential from
/// [`RECONNECT_BASE`] capped at [`RECONNECT_CAP`], jittered to 50–100% of
/// the nominal delay so clients caught in the same shard takeover do not
/// retry in lockstep.
fn reconnect_backoff_delay(attempt: u32, rng: &mut JitterRng) -> Duration {
    let nominal = RECONNECT_BASE
        .saturating_mul(1u32 << attempt.min(7))
        .min(RECONNECT_CAP);
    nominal.mul_f64(0.5 + 0.5 * rng.unit())
}

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

/// Client half of the delta-update protocol (present only when the stream
/// registered with `RegisterCaps { supports_delta: true }`). The digest
/// mirrors the server's [`crate::serve`] per-stream `DeltaTrack`: both sides
/// advance it with exactly the chunks that crossed the wire, so the bases
/// stay synchronized without ever exchanging digests.
struct DeltaSync {
    /// Hash-per-entry identity of the checkpoint the client serves with.
    digest: CheckpointDigest,
    /// Combined hash *before* the most recently applied payload, so a delta
    /// naming it can be classified as a raced/stale base rather than an
    /// unknown one.
    previous: Option<u64>,
    stats: ClientDeltaStats,
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
    /// Set once the endpoint reports its peer gone *and* reconnecting with
    /// backoff failed: every wait completes immediately and the client
    /// serves local-only from then on.
    disconnected: bool,
    /// Seeded jitter source for the reconnect backoff (deterministic per
    /// stream label, so retry schedules are reproducible).
    reconnect_rng: JitterRng,
    /// Successful reconnects over the run (transport drops survived).
    reconnects: usize,
    /// `Some` when the stream negotiated delta updates: downlink weight
    /// payloads are [`WeightPayload`] envelopes instead of bare snapshots.
    sync: Option<DeltaSync>,
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
        // Seed the digest from the local starting checkpoint — identical to
        // the template the server registers the session from — so a client
        // that never sees the `InitialStudent` (timeout, lossy endpoint) can
        // still verify delta bases instead of holding an empty digest.
        let sync = delta_updates.then(|| DeltaSync {
            digest: CheckpointDigest::of(&WeightSnapshot::capture(
                &mut client_student,
                SnapshotScope::Full,
            )),
            previous: None,
            stats: ClientDeltaStats::default(),
        });
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
            reconnect_rng: JitterRng::new(label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })),
            reconnects: 0,
            sync,
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

    /// The endpoint reported its peer gone. Before writing the server off,
    /// retry [`ClientEndpoint::reconnect`] under exponential backoff — a
    /// client caught mid-takeover heals once the warm standby finishes
    /// adopting its shard. `Err(Timeout)` from the endpoint means "still
    /// down, retry later"; `Err(Disconnected)` means the endpoint cannot
    /// ever re-dial (the default), which latches local-only mode at once.
    fn endpoint_lost<E: ClientEndpoint>(&mut self, endpoint: &mut E) {
        if self.disconnected {
            return;
        }
        for attempt in 0..RECONNECT_ATTEMPTS {
            match endpoint.reconnect() {
                Ok(()) => {
                    self.reconnects += 1;
                    return;
                }
                Err(st_net::TransportError::Disconnected) => break,
                Err(_) => {
                    std::thread::sleep(reconnect_backoff_delay(attempt, &mut self.reconnect_rng))
                }
            }
        }
        self.disconnected = true;
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
                self.endpoint_lost(endpoint);
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
                        let payload = Payload::with_data(encode_frame(frame));
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
                            self.endpoint_lost(endpoint);
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
    /// negotiation the bytes are a bare [`WeightSnapshot`] at `scope`; with
    /// it they are a [`WeightPayload`] envelope, and the digest is patched
    /// with exactly the chunks that were applied — the client-side mirror of
    /// the server's per-stream delta track, so the two bases stay in
    /// lockstep without exchanging digests. A delta whose base hash does not
    /// match the held checkpoint is rejected (counted, weights untouched);
    /// the server's re-sync rule — a full envelope after any restore —
    /// clears the condition on the next update.
    fn apply_weight_payload(&mut self, data: &bytes::Bytes, scope: SnapshotScope) -> Result<()> {
        let Some(sync) = &mut self.sync else {
            let snapshot = WeightSnapshot::decode(data, scope)?;
            snapshot.apply(&mut self.client_student)?;
            return Ok(());
        };
        let payload = <WeightPayload as Wire>::decode(&mut &data[..])
            .map_err(|e| st_tensor::TensorError::InvalidArgument(format!("weight payload: {e}")))?;
        match payload {
            WeightPayload::Full(snapshot) => {
                snapshot.apply(&mut self.client_student)?;
                sync.previous = Some(sync.digest.combined());
                sync.digest.patch(&snapshot);
                sync.stats.full_updates_applied += 1;
            }
            WeightPayload::Delta(delta) => {
                if delta.check_base(&sync.digest, sync.previous).is_err() {
                    sync.stats.delta_rejections += 1;
                    return Ok(());
                }
                let (sparse, chunks) = delta.into_parts()?;
                sparse.apply(&mut self.client_student)?;
                sync.previous = Some(sync.digest.combined());
                sync.digest.patch_chunks(&chunks);
                sync.stats.delta_updates_applied += 1;
            }
        }
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
            delta: self.sync.map(|sync| sync.stats).unwrap_or_default(),
        }
    }
}

/// Algorithm 4 driven to completion over one [`ClientEndpoint`], blocking in
/// `recv_timeout` whenever the state machine waits: the one-client form of
/// the same [`ClientDriver::pump`] the multiplexed driver runs, used by
/// [`run_live`], the shm client and the scripted-endpoint tests.
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
                    Err(st_net::TransportError::Disconnected) => driver.endpoint_lost(endpoint),
                    Err(st_net::TransportError::Timeout) => driver.deadline_expired()?,
                }
            }
        }
    }
}

/// Run ShadowTutor with a real client thread and a real server thread over
/// an in-process transport. Frames are drawn from `frames` (pre-generated so
/// the video source does not add nondeterminism between the roles).
pub fn run_live(
    config: ShadowTutorConfig,
    frames: Vec<Frame>,
    student: StudentNet,
    teacher: OracleTeacher,
    label: &str,
) -> Result<LiveRunOutcome> {
    config.validate()?;
    let (mut client_tp, mut server_tp) =
        st_net::transport::DuplexTransport::<ClientToServer, ServerToClient>::pair();

    let partial = matches!(config.mode, DistillationMode::Partial);
    let latency = LatencyProfile::paper();
    let server_student = student.clone();
    let server_config = config;
    // The key-frame message carries the encoded pixels for realistic wire
    // sizes, but the in-process server resolves the actual frame content by
    // index from this pre-shared copy of the stream (re-decoding would only
    // add quantisation noise to the demo).
    let server_frames: std::collections::HashMap<usize, Frame> =
        frames.iter().map(|f| (f.index, f.clone())).collect();

    // ---------------- server thread (Algorithm 3) ----------------
    let server_handle = std::thread::spawn(move || -> Result<(usize, usize)> {
        let mut server = ServerState::new(
            server_config,
            server_student,
            teacher,
            latency.distill_step(partial),
        );
        // Line 1: send the initial full checkpoint.
        let initial = server.initial_checkpoint();
        let payload = Payload::with_data(initial.encode());
        let bytes = payload.bytes;
        server_tp
            .send(ServerToClient::InitialStudent { payload }, bytes)
            .ok();
        // Lines 2-7: serve key frames until shutdown (a Shutdown message,
        // a receive error, or a dead peer all end the loop).
        while let Ok(ClientToServer::KeyFrame {
            frame_index,
            payload: _,
        }) = server_tp.recv_timeout(Duration::from_secs(30))
        {
            let Some(frame) = server_frames.get(&frame_index) else {
                continue;
            };
            let response = server.handle_key_frame(frame)?;
            let payload = Payload::with_data(response.update.encode());
            let bytes = payload.bytes;
            let msg = ServerToClient::StudentUpdate {
                frame_index,
                metric: response.metric,
                distill_steps: response.outcome.steps,
                payload,
            };
            if server_tp.send(msg, bytes).is_err() {
                break;
            }
        }
        Ok((server.key_frames_processed(), server.distill_steps_taken()))
    });

    // ---------------- client (Algorithm 4), on this thread ----------------
    let output = drive_client(
        config,
        &frames,
        student,
        &mut client_tp,
        label,
        "live",
        false,
    )?;
    drop(client_tp);

    let (server_key_frames, server_distill_steps) = server_handle
        .join()
        .map_err(|_| st_tensor::TensorError::InvalidArgument("server thread panicked".into()))?
        .unwrap_or((0, 0));

    Ok(LiveRunOutcome {
        record: output.record,
        server_key_frames,
        server_distill_steps,
        final_student: output.final_student,
        delta: output.delta,
    })
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
    let partial = matches!(config.mode, DistillationMode::Partial);
    let latency = LatencyProfile::paper();
    let started = Instant::now();

    // The pool's connect negotiates delta updates on every stream when the
    // config asks for them, so the client drivers must decode envelopes.
    let delta_updates = pool_config.delta_updates;
    let pool = ServerPool::spawn(
        config,
        pool_config,
        student.clone(),
        latency.distill_step(partial),
        teacher_factory,
    )?;

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
            delta: output.delta,
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

/// Encode a frame's pixels into bytes (8-bit RGB) for transport sizing.
fn encode_frame(frame: &Frame) -> bytes::Bytes {
    let mut out = Vec::with_capacity(frame.raw_rgb_bytes());
    for &v in frame.image.data() {
        out.push((v.clamp(0.0, 1.0) * 255.0) as u8);
    }
    bytes::Bytes::from(out)
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
        assert_eq!(encode_frame(f).len(), f.raw_rgb_bytes());
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
                ClientToServer::Register
                | ClientToServer::RegisterCaps { .. }
                | ClientToServer::ReShare { .. } => {}
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
                ClientToServer::Shutdown => {}
                ClientToServer::Register
                | ClientToServer::RegisterCaps { .. }
                | ClientToServer::ReShare { .. } => {}
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

    /// A scripted server half that drops the connection after serving the
    /// first key frame's update, refuses `reconnect_failures` re-dials
    /// (reporting `Timeout`, the "still down, retry later" signal a pool
    /// mid-takeover gives), then heals and answers normally again.
    struct FlakyEndpoint {
        queue: std::collections::VecDeque<ServerToClient>,
        key_frames_seen: usize,
        drop_after_next_update: bool,
        down: bool,
        reconnect_failures: usize,
        reconnect_calls: usize,
    }

    impl FlakyEndpoint {
        fn new(reconnect_failures: usize) -> Self {
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(ServerToClient::InitialStudent {
                payload: Payload::sized(0),
            });
            FlakyEndpoint {
                queue,
                key_frames_seen: 0,
                drop_after_next_update: true,
                down: false,
                reconnect_failures,
                reconnect_calls: 0,
            }
        }
    }

    impl ClientEndpoint for FlakyEndpoint {
        fn send(
            &mut self,
            message: ClientToServer,
            _bytes: usize,
        ) -> std::result::Result<(), st_net::TransportError> {
            if self.down {
                return Err(st_net::TransportError::Disconnected);
            }
            if let ClientToServer::KeyFrame { frame_index, .. } = message {
                self.key_frames_seen += 1;
                self.queue.push_back(ServerToClient::StudentUpdate {
                    frame_index,
                    metric: 0.9,
                    distill_steps: 1,
                    payload: Payload::sized(0),
                });
            }
            Ok(())
        }

        fn try_recv(
            &mut self,
        ) -> std::result::Result<Option<ServerToClient>, st_net::TransportError> {
            if self.down {
                return Err(st_net::TransportError::Disconnected);
            }
            let message = self.queue.pop_front();
            if matches!(message, Some(ServerToClient::StudentUpdate { .. }))
                && self.drop_after_next_update
            {
                // The shard hosting this stream dies right after this
                // update is delivered.
                self.drop_after_next_update = false;
                self.down = true;
            }
            Ok(message)
        }

        fn recv_timeout(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<ServerToClient, st_net::TransportError> {
            if self.down {
                return Err(st_net::TransportError::Disconnected);
            }
            self.try_recv()?.ok_or(st_net::TransportError::Timeout)
        }

        fn reconnect(&mut self) -> std::result::Result<(), st_net::TransportError> {
            self.reconnect_calls += 1;
            if self.reconnect_calls > self.reconnect_failures {
                self.down = false;
                Ok(())
            } else {
                Err(st_net::TransportError::Timeout)
            }
        }
    }

    #[test]
    fn client_reconnects_with_backoff_and_finishes_the_run() {
        let frames = frames_for(SceneKind::People, 6, 60);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let mut endpoint = FlakyEndpoint::new(3);
        let output = drive_client(
            ShadowTutorConfig::paper(),
            &frames,
            student,
            &mut endpoint,
            "flaky",
            "live",
            false,
        )
        .unwrap();
        // The drop was survived: the whole stream was served, and key
        // frames kept flowing to the (healed) server afterwards.
        assert_eq!(output.record.frames, 60);
        // 3 refused re-dials, then the 4th heals — well inside the 8-attempt
        // backoff budget, so the client never latched local-only mode.
        assert_eq!(endpoint.reconnect_calls, 4);
        assert!(
            endpoint.key_frames_seen >= 2,
            "key frames should resume after the reconnect, saw {}",
            endpoint.key_frames_seen
        );
        // Updates were applied both before the drop and after the heal.
        assert!(output.record.key_frames.len() >= 2);
    }

    /// An endpoint with no reconnect override gives up after one refused
    /// re-dial (the trait default reports `Disconnected`, not `Timeout`) and
    /// the client falls back to local-only serving — the pre-failover
    /// behaviour, with no multi-second backoff ladder.
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
        // The give-up path must not sit through the full backoff ladder.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn live_run_completes_with_real_threads() {
        let frames = frames_for(SceneKind::People, 2, 20);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let outcome = run_live(
            ShadowTutorConfig::paper(),
            frames,
            student,
            OracleTeacher::perfect(1),
            "live-test",
        )
        .unwrap();
        assert_eq!(outcome.record.frames, 20);
        assert!(outcome.record.total_time > 0.0);
        assert!(outcome.record.frame_records[0].is_key_frame);
        assert!(outcome.record.uplink_bytes > 0);
        assert_eq!(outcome.final_student.scope(), SnapshotScope::Full);
        assert!(outcome.final_student.entry_count() > 0);
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

    #[test]
    fn multi_run_completes_with_two_streams() {
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let streams = vec![
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
        ];
        let outcome = run_live_multi(
            ShadowTutorConfig::paper(),
            streams,
            student,
            PoolConfig::with_shards(2),
            |shard| OracleTeacher::perfect(10 + shard as u64),
        )
        .unwrap();
        assert_eq!(outcome.streams.len(), 2);
        for stream in &outcome.streams {
            assert_eq!(stream.record.frames, 16);
            assert!(stream.record.frame_records[0].is_key_frame);
            assert!(stream.server_key_frames >= 1);
            // The last update can still be in flight when the stream ends, so
            // the server may have processed one more key frame than the
            // client managed to apply.
            assert!(stream.server_key_frames >= stream.record.key_frame_count());
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
        assert_eq!(outcome.pool.final_checkpoints.len(), 2);
        assert!(outcome.wall_time > 0.0);
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
