//! The bench-owned load generator: Algorithm 4 clients, closed-loop or
//! camera-paced, multiplexed on the calling thread.
//!
//! Built from the same public pieces as the product's live runtime
//! ([`ClientState`], [`StudentNet`], [`WeightPayload`]) and generic over
//! [`ClientEndpoint`], so one driver serves pool streams and the shm ring.
//! It exists because the product's drivers do not say *when* things
//! happened: this one timestamps every key frame (sent — or, in an open
//! loop, due) and every update (applied), counts the framed bytes of both,
//! and can record a span per layer call. `--check` proves it reaches the
//! same final students as `run_live_multi_with`.

use crate::trace::{SpanId, Tracer, NO_SPAN};
use bytes::Bytes;
use shadowtutor::client::ClientState;
use shadowtutor::config::ShadowTutorConfig;
use st_net::transport::ClientEndpoint;
use st_net::wire::frame_len;
use st_net::{ClientToServer, Payload, Poller, ServerToClient, TransportError, Wire};
use st_nn::delta::{CheckpointDigest, WeightPayload};
use st_nn::metrics::miou;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_tensor::TensorError;
use st_video::Frame;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, TensorError>;

/// How long a client waits for the initial checkpoint or a forced update
/// before writing the server off. Generous: a trip counts as a failure.
const WAIT_BUDGET: Duration = Duration::from_secs(20);

/// Cap on one idle sleep, so a lost wakeup costs latency, not a hang.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// A camera: frame `i` is due at `start + phase + i * period`.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    pub period: Duration,
    pub phase: Duration,
}

/// One client stream's input.
pub struct StreamInput<'a> {
    pub frames: &'a [Frame],
    /// `None` = closed loop: the next frame starts when the last finished.
    pub pacing: Option<Pacing>,
}

/// How the driver sleeps when every client is blocked.
pub enum Waiter<'a> {
    /// Every endpoint wakes a token of this poller on downlink delivery.
    Poller(&'a Poller),
    /// Block in the (single) endpoint's own `recv_timeout` — for backends
    /// whose readiness would cost a notifier thread.
    Blocking,
}

/// What one client measured over one round.
#[derive(Debug, Clone)]
pub struct ClientReport {
    pub frames: usize,
    pub key_frames: usize,
    pub updates_applied: usize,
    pub forced_waits: usize,
    /// Server said `Throttle`.
    pub throttled: usize,
    /// Server said `Dropped`.
    pub dropped: usize,
    /// Delta envelopes whose base did not match the held checkpoint.
    pub delta_rejections: usize,
    /// Forced waits that outlived [`WAIT_BUDGET`].
    pub timed_out: usize,
    /// Distillation steps the server reported across the applied updates.
    pub distill_steps: usize,
    /// Key frame sent (open loop: due) → update applied, milliseconds.
    pub rtts_ms: Vec<f64>,
    /// Open loop only: inference finished − frame due, milliseconds.
    pub late_ms: Vec<f64>,
    /// Sum over served frames of mIoU against the teacher's label.
    pub miou_sum: f64,
    /// Framed bytes of the `KeyFrame` messages sent.
    pub bytes_up: usize,
    /// Framed bytes of the `StudentUpdate` messages received.
    pub bytes_down: usize,
    /// The student the stream would keep serving with.
    pub final_student: WeightSnapshot,
}

impl ClientReport {
    /// Key frames that did not end in an applied update.
    pub fn failed(&self) -> usize {
        self.key_frames - self.updates_applied
    }
}

/// What [`drive`] measured.
pub struct DriveOutcome {
    pub clients: Vec<ClientReport>,
    /// When the last client received its `InitialStudent`.
    pub ready_at: Instant,
    /// First frame begun → last update applied (or last frame finished).
    pub window: Duration,
    /// Process CPU seconds (user + system, all threads) inside the window.
    pub cpu_secs: f64,
}

enum Phase {
    AwaitInitial,
    Serving,
    /// Blocked on the in-flight update until `deadline`.
    AwaitUpdate {
        deadline: Instant,
        wait_span: SpanId,
    },
    Done,
}

enum Pump {
    /// Made progress; call again.
    Runnable,
    /// Blocked until a downlink message or the instant passes.
    Blocked(Instant),
    Done,
}

/// Client half of the delta protocol, mirroring the server's per-stream
/// track: both patch their digest with exactly the chunks that crossed.
struct DeltaSync {
    digest: CheckpointDigest,
    previous: Option<u64>,
}

struct Client<'a> {
    stream: u32,
    input: &'a StreamInput<'a>,
    student: StudentNet,
    state: ClientState,
    sync: Option<DeltaSync>,
    cursor: usize,
    phase: Phase,
    /// A frame whose update handling is pending (its span is still open).
    frame_span: Option<SpanId>,
    pending_metric: Option<(f64, usize)>,
    key_sent_at: Option<Instant>,
    stashed: Option<ServerToClient>,
    report: ClientReport,
}

impl<'a> Client<'a> {
    fn new(
        stream: u32,
        input: &'a StreamInput<'a>,
        config: ShadowTutorConfig,
        template: &StudentNet,
        delta_updates: bool,
    ) -> Self {
        let mut student = template.clone();
        student.freeze = config.mode.freeze_point();
        let initial = WeightSnapshot::capture(&mut student, SnapshotScope::Full);
        let sync = delta_updates.then(|| DeltaSync {
            digest: CheckpointDigest::of(&initial),
            previous: None,
        });
        let key_frames_bound = input.frames.len() / config.min_stride + 1;
        Client {
            stream,
            input,
            student,
            state: ClientState::new(config),
            sync,
            cursor: 0,
            phase: Phase::AwaitInitial,
            frame_span: None,
            pending_metric: None,
            key_sent_at: None,
            stashed: None,
            report: ClientReport {
                frames: 0,
                key_frames: 0,
                updates_applied: 0,
                forced_waits: 0,
                throttled: 0,
                dropped: 0,
                delta_rejections: 0,
                timed_out: 0,
                distill_steps: 0,
                rtts_ms: Vec::with_capacity(key_frames_bound),
                late_ms: Vec::with_capacity(if input.pacing.is_some() {
                    input.frames.len()
                } else {
                    0
                }),
                miou_sum: 0.0,
                bytes_up: 0,
                bytes_down: 0,
                final_student: initial,
            },
        }
    }

    fn next_message<E: ClientEndpoint>(&mut self, endpoint: &mut E) -> Option<ServerToClient> {
        self.stashed
            .take()
            .or_else(|| endpoint.try_recv().ok().flatten())
    }

    /// Decode one downlink weight payload and apply it to the student.
    fn apply_payload(
        &mut self,
        data: &Bytes,
        scope: SnapshotScope,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<()> {
        let (stream, frame) = (self.stream, self.cursor as u32);
        let Some(sync) = &mut self.sync else {
            let snapshot = tracer.span("decode", parent, stream, frame, || {
                WeightSnapshot::decode(data, scope)
            })?;
            tracer.span("apply", parent, stream, frame, || {
                snapshot.apply(&mut self.student)
            })?;
            return Ok(());
        };
        let payload = tracer
            .span("decode", parent, stream, frame, || {
                <WeightPayload as Wire>::decode(&mut &data[..])
            })
            .map_err(|e| TensorError::InvalidArgument(format!("weight payload: {e}")))?;
        let student = &mut self.student;
        let rejections = &mut self.report.delta_rejections;
        tracer.span("apply", parent, stream, frame, || -> Result<()> {
            match payload {
                WeightPayload::Full(snapshot) => {
                    snapshot.apply(student)?;
                    sync.previous = Some(sync.digest.combined());
                    sync.digest.patch(&snapshot);
                }
                WeightPayload::Delta(delta) => {
                    if delta.check_base(&sync.digest, sync.previous).is_err() {
                        *rejections += 1;
                        return Ok(());
                    }
                    let (sparse, chunks) = delta.into_parts()?;
                    sparse.apply(student)?;
                    sync.previous = Some(sync.digest.combined());
                    sync.digest.patch_chunks(&chunks);
                }
            }
            Ok(())
        })
    }

    /// Handle one downlink message: apply an update (and, if it answers the
    /// outstanding key frame, advance the stride and record the round
    /// trip), or write the key frame off on a throttle/drop.
    fn absorb(&mut self, message: ServerToClient, tracer: &mut Tracer) -> Result<()> {
        let parent = self.frame_span.unwrap_or(NO_SPAN);
        if matches!(message, ServerToClient::StudentUpdate { .. }) {
            self.report.bytes_down += frame_len(&message);
        }
        match message {
            ServerToClient::StudentUpdate {
                metric,
                distill_steps,
                payload,
                ..
            } => {
                if let Some(data) = &payload.data {
                    self.apply_payload(data, SnapshotScope::TrainableOnly, tracer, parent)?;
                }
                self.pending_metric = Some((metric, distill_steps));
            }
            ServerToClient::Throttle { .. } => {
                self.report.throttled += 1;
                self.state.throttled_update();
                self.key_sent_at = None;
            }
            ServerToClient::Dropped { .. } => {
                self.report.dropped += 1;
                self.state.abandon_update();
                self.key_sent_at = None;
            }
            ServerToClient::InitialStudent { .. } | ServerToClient::NeedFrame { .. } => {}
        }
        if let Some((metric, steps)) = self.pending_metric.take() {
            if self.state.update_outstanding() {
                self.state.apply_update(metric);
                self.report.updates_applied += 1;
                self.report.distill_steps += steps;
                if let Some(sent) = self.key_sent_at.take() {
                    self.report.rtts_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        Ok(())
    }

    /// Close the in-flight frame (if any) and move on.
    fn finish_frame(&mut self, tracer: &mut Tracer) {
        if let Some(span) = self.frame_span.take() {
            tracer.close(span);
            self.cursor += 1;
            self.report.frames += 1;
        }
        self.phase = Phase::Serving;
    }

    fn pump<E: ClientEndpoint>(
        &mut self,
        endpoint: &mut E,
        tracer: &mut Tracer,
        start: Instant,
    ) -> Result<Pump> {
        match self.phase {
            Phase::AwaitInitial => unreachable!("handshake completes before the timed loop"),
            Phase::Done => unreachable!("finished clients are not pumped"),
            Phase::AwaitUpdate {
                deadline,
                wait_span,
            } => {
                if let Some(message) = self.next_message(endpoint) {
                    tracer.close(wait_span);
                    self.absorb(message, tracer)?;
                    // A NeedFrame or a stale ack leaves the update
                    // outstanding: keep waiting for the real answer.
                    if self.state.update_outstanding() {
                        let wait_span = self.open_wait(tracer);
                        self.phase = Phase::AwaitUpdate {
                            deadline,
                            wait_span,
                        };
                        return Ok(Pump::Runnable);
                    }
                    self.finish_frame(tracer);
                    Ok(Pump::Runnable)
                } else if Instant::now() >= deadline {
                    tracer.close(wait_span);
                    self.report.timed_out += 1;
                    self.state.abandon_update();
                    self.key_sent_at = None;
                    self.finish_frame(tracer);
                    Ok(Pump::Runnable)
                } else {
                    Ok(Pump::Blocked(deadline))
                }
            }
            Phase::Serving => self.serve(endpoint, tracer, start),
        }
    }

    fn open_wait(&mut self, tracer: &mut Tracer) -> SpanId {
        tracer.open(
            "wait",
            self.frame_span.unwrap_or(NO_SPAN),
            self.stream,
            self.cursor as u32,
        )
    }

    fn serve<E: ClientEndpoint>(
        &mut self,
        endpoint: &mut E,
        tracer: &mut Tracer,
        start: Instant,
    ) -> Result<Pump> {
        let frames = self.input.frames;
        if self.cursor >= frames.len() {
            // Every key frame gets its answer before the stream ends, so
            // each one has a round trip and the final weights are the
            // server's final checkpoint.
            if self.state.update_outstanding() {
                let wait_span = self.open_wait(tracer);
                self.phase = Phase::AwaitUpdate {
                    deadline: Instant::now() + WAIT_BUDGET,
                    wait_span,
                };
                return Ok(Pump::Runnable);
            }
            endpoint.send(ClientToServer::Shutdown, 1).ok();
            self.phase = Phase::Done;
            return Ok(Pump::Done);
        }
        let due = self
            .input
            .pacing
            .map(|p| start + p.phase + p.period * self.cursor as u32);
        if let Some(due) = due {
            if Instant::now() < due {
                // Between frames an arriving update is applied at once
                // (Algorithm 4: "whenever they arrive").
                if let Some(message) = self.next_message(endpoint) {
                    self.absorb(message, tracer)?;
                    return Ok(Pump::Runnable);
                }
                return Ok(Pump::Blocked(due));
            }
        }
        let frame = &frames[self.cursor];
        let (stream, index) = (self.stream, self.cursor as u32);
        let span = tracer.open("frame", NO_SPAN, stream, index);
        self.frame_span = Some(span);
        let decision = tracer.span("decision", span, stream, index, || self.state.begin_frame());
        if decision.must_wait_for_update {
            self.report.forced_waits += 1;
        }
        if decision.is_key_frame {
            self.report.key_frames += 1;
            let message = tracer.span("encode", span, stream, index, || ClientToServer::KeyFrame {
                frame_index: frame.index,
                payload: Payload::with_data(Bytes::from(frame.quantized_rgb())),
            });
            self.report.bytes_up += frame_len(&message);
            let bytes = frame.raw_rgb_bytes();
            // Open loop: the key frame was due when its frame was, however
            // late the generator got to it.
            self.key_sent_at = Some(due.unwrap_or_else(Instant::now));
            tracer
                .span("send", span, stream, index, || {
                    endpoint.send(message, bytes)
                })
                .map_err(|e| TensorError::InvalidArgument(format!("uplink send: {e}")))?;
        }
        let prediction = tracer.span("infer", span, stream, index, || {
            self.student.predict(&frame.image)
        })?;
        // The benchmark's teachers label with the generator's ground truth,
        // so the teacher's label for this frame is already in hand.
        self.report.miou_sum += miou(
            &prediction,
            &frame.ground_truth,
            self.student.config.num_classes,
        )?
        .value;
        if let Some(due) = due {
            self.report.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        if decision.must_wait_for_update && self.state.update_outstanding() {
            let wait_span = self.open_wait(tracer);
            self.phase = Phase::AwaitUpdate {
                deadline: Instant::now() + WAIT_BUDGET,
                wait_span,
            };
            return Ok(Pump::Runnable);
        }
        if let Some(message) = self.next_message(endpoint) {
            self.absorb(message, tracer)?;
        }
        self.finish_frame(tracer);
        Ok(Pump::Runnable)
    }
}

/// Wait until every client holds its `InitialStudent`.
fn handshake<E: ClientEndpoint>(
    clients: &mut [Client<'_>],
    endpoints: &mut [E],
    waiter: &Waiter<'_>,
) -> Result<Instant> {
    let deadline = Instant::now() + WAIT_BUDGET;
    let mut tracer = Tracer::off();
    for (client, endpoint) in clients.iter_mut().zip(endpoints.iter_mut()) {
        while matches!(client.phase, Phase::AwaitInitial) {
            match client.next_message(endpoint) {
                Some(ServerToClient::InitialStudent { payload }) => {
                    if let Some(data) = &payload.data {
                        client.apply_payload(data, SnapshotScope::Full, &mut tracer, NO_SPAN)?;
                    }
                    client.phase = Phase::Serving;
                }
                Some(_) => {}
                None if Instant::now() >= deadline => {
                    return Err(TensorError::InvalidArgument(format!(
                        "stream {} never received its initial checkpoint",
                        client.stream
                    )))
                }
                None => match waiter {
                    Waiter::Poller(poller) => {
                        poller.poll(IDLE_TICK);
                    }
                    Waiter::Blocking => {
                        if let Ok(message) = endpoint.recv_timeout(IDLE_TICK) {
                            client.stashed = Some(message);
                        }
                    }
                },
            }
        }
    }
    Ok(Instant::now())
}

/// Drive one client per endpoint to completion on the calling thread.
///
/// Clients are pumped one frame at a time round-robin; when all are blocked
/// the thread sleeps in `waiter` until a downlink delivery, a camera due
/// time or a wait deadline. The timed window opens after every client holds
/// its initial checkpoint and closes when the last one has applied its last
/// update.
pub fn drive<E: ClientEndpoint>(
    config: ShadowTutorConfig,
    template: &StudentNet,
    delta_updates: bool,
    inputs: &[StreamInput<'_>],
    endpoints: &mut [E],
    waiter: Waiter<'_>,
    tracer: &mut Tracer,
) -> Result<DriveOutcome> {
    assert_eq!(inputs.len(), endpoints.len(), "one endpoint per stream");
    assert!(
        matches!(waiter, Waiter::Poller(_)) || endpoints.len() == 1,
        "a blocking waiter serves exactly one endpoint"
    );
    let mut clients: Vec<Client<'_>> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Client::new(i as u32, input, config, template, delta_updates))
        .collect();
    let ready_at = handshake(&mut clients, endpoints, &waiter)?;

    let cpu_before = crate::host::process_cpu_secs();
    let start = Instant::now();
    let mut live = clients.len();
    while live > 0 {
        let mut progressed = false;
        let mut wake_at = start + Duration::from_secs(3600);
        for (client, endpoint) in clients.iter_mut().zip(endpoints.iter_mut()) {
            if matches!(client.phase, Phase::Done) {
                continue;
            }
            match client.pump(endpoint, tracer, start)? {
                Pump::Runnable => progressed = true,
                Pump::Blocked(until) => wake_at = wake_at.min(until),
                Pump::Done => live -= 1,
            }
        }
        if progressed || live == 0 {
            continue;
        }
        let timeout = wake_at
            .saturating_duration_since(Instant::now())
            .min(IDLE_TICK);
        match waiter {
            Waiter::Poller(poller) => {
                poller.poll(timeout);
            }
            Waiter::Blocking => match endpoints[0].recv_timeout(timeout) {
                Ok(message) => clients[0].stashed = Some(message),
                Err(TransportError::Timeout) => {}
                Err(e) => {
                    return Err(TensorError::InvalidArgument(format!(
                        "downlink lost mid-round: {e}"
                    )))
                }
            },
        }
    }
    let window = start.elapsed();
    let cpu_secs = crate::host::process_cpu_secs() - cpu_before;

    let clients = clients
        .into_iter()
        .map(|mut client| {
            client.report.final_student =
                WeightSnapshot::capture(&mut client.student, SnapshotScope::Full);
            client.report
        })
        .collect();
    Ok(DriveOutcome {
        clients,
        ready_at,
        window,
        cpu_secs,
    })
}
