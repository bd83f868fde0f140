//! The shard state machine: all of one shard's serving state, its event
//! handlers, and the channel plumbing that connects it to clients. The
//! reactor drives it exclusively through [`ShardState::run_pass`],
//! [`ShardState::recover`] and [`ShardState::finish`]; its fields are
//! private to this module.
//!
//! A pass does not wait for the distill crew: a batch whose items lanes
//! still run stays open, its streams away, and the items come home — their
//! key frames answered — in a later pass, which a lane's post wakes.

use super::shard::{BatchSink, ServeShard, Wait};
use super::{FairScheduler, FrameStore, PoolConfig, ScheduledJob, ShardJob, ShardStats};
#[cfg(doc)]
use super::{ServerPool, StreamClient};
use crate::server::{KeyFrameResponse, StreamServerStats};
use crate::Result;
use bytes::Bytes;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient, StreamId, StreamTagged, Wire};
use st_nn::delta::WeightPayload;
use st_nn::snapshot::WeightSnapshot;
use st_teacher::Teacher;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A stream-tagged uplink message queued at a shard. The `Register` that
/// [`ServerPool::connect`] sends carries the stream's [`StreamLink`], so
/// the shard can serve the stream as it stands.
pub(super) struct Envelope {
    pub(super) tagged: StreamTagged<ClientToServer>,
    pub(super) enqueued_at: Instant,
    pub(super) link: Option<Box<StreamLink>>,
}

/// Pool-wide measured wire traffic: the framed byte size
/// ([`st_net::wire::frame_len`]) of every uplink envelope the clients sent
/// and every downlink message the shards delivered: the sizes the
/// versioned binary codec would actually put on a wire, so
/// `PoolReport::wire_bytes_up/down` stay honest regardless of which
/// transport backend carried the messages.
#[derive(Debug, Default)]
pub(super) struct WireMeter {
    pub(super) up: AtomicUsize,
    pub(super) down: AtomicUsize,
}

/// The sending half of one stream's downlink, with an optional readiness
/// waker: a client connected through [`ServerPool::connect_with_waker`] is
/// woken after every downlink send, so a single driver loop can multiplex
/// many clients through one [`st_net::Poller`] instead of blocking per
/// stream.
#[derive(Clone)]
pub(super) struct Downlink {
    pub(super) tx: mpsc::Sender<ServerToClient>,
    pub(super) waker: Option<st_net::Waker>,
    pub(super) wire: Arc<WireMeter>,
}

impl Downlink {
    fn send(&self, message: ServerToClient) -> bool {
        let wire_len = st_net::wire::frame_len(&message);
        let delivered = self.tx.send(message).is_ok();
        if delivered {
            // ORDER: Relaxed — a monotonic traffic counter; readers only see
            // it after join() synchronizes with every worker's exit.
            self.wire.down.fetch_add(wire_len, Ordering::Relaxed);
            if let Some(waker) = &self.waker {
                waker.wake();
            }
        }
        delivered
    }
}

/// What a stream's `Register` brings the shard that handles it: the
/// downlink back to the client and the pre-shared frame content.
pub(super) struct StreamLink {
    pub(super) downlink: Downlink,
    pub(super) frames: FrameStore,
}

/// What one shard state machine hands back when it finishes. Tagged with
/// the shard index because a reactor worker finalizes whichever shards it
/// happens to dispatch last — collection order is not shard order.
pub(super) struct ShardOutput {
    pub(super) shard: usize,
    pub(super) stats: ShardStats,
    pub(super) streams: HashMap<StreamId, StreamServerStats>,
    pub(super) final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    pub(super) wait_samples: Vec<f64>,
    /// One death-to-recovery latency sample (seconds) per death this shard
    /// recovered from.
    pub(super) takeover_samples: Vec<f64>,
}

/// Send one downlink message, counting the loss when the client already
/// hung up. A vanished client only loses its own acks, but the loss is
/// *counted* (`ShardStats::lost_acks`), never silently discarded — the
/// failover paths depend on every drop being observable.
fn deliver(stats: &mut ShardStats, downlink: &Downlink, msg: ServerToClient) {
    if !downlink.send(msg) {
        stats.lost_acks += 1;
    }
}

/// Per-stream wall-clock accounting the worker keeps alongside the shard
/// (waits and admission decisions are only visible at the worker).
#[derive(Debug, Default, Clone, Copy)]
struct StreamMeter {
    wait_total: Duration,
    wait_max: Duration,
    throttled: usize,
    dropped: usize,
}

/// A batch the state machine started whose jobs are not all answered yet:
/// filled when the batch leaves the scheduler, struck off job by job as
/// updates are emitted (or drop acks handed out), dropped once empty.
pub(super) struct InFlight {
    /// When the batch began: a job's queue wait ends here.
    started: Instant,
    unanswered: Vec<ScheduledJob>,
}

/// Strike `job` off the oldest in-flight batch still holding it (a
/// stream's jobs are answered in the order they were scheduled), returning
/// it as it was queued and when its batch began.
fn strike(in_flight: &mut Vec<InFlight>, job: ShardJob) -> Option<(ScheduledJob, Instant)> {
    let (batch, at) = in_flight.iter().enumerate().find_map(|(batch, flight)| {
        let at = flight.unanswered.iter().position(|s| s.job == job)?;
        Some((batch, at))
    })?;
    let flight = &mut in_flight[batch];
    let scheduled = flight.unanswered.remove(at);
    let started = flight.started;
    if flight.unanswered.is_empty() {
        in_flight.remove(batch);
    }
    Some((scheduled, started))
}

/// The shard state machine's [`BatchSink`]: answer each key frame the
/// moment the reactor worker learns it has been distilled — queue-wait
/// sample, then the update on the downlink.
///
/// With [`PoolConfig::delta_updates`] on, an answer carries the student or
/// nothing: a `WeightPayload::Full` envelope of the update when Algorithm 1
/// changed the student (or the stream is owed its weights after a
/// recovery), and a payload without data when it did not — the client
/// already holds those weights and takes only the metric. Nothing is kept
/// per stream about what the client holds.
struct Emitter<'a> {
    downlinks: &'a HashMap<StreamId, Downlink>,
    meters: &'a mut HashMap<StreamId, StreamMeter>,
    wait_samples: &'a mut Vec<f64>,
    /// Whatever batch a served job came from: `ShardState::in_flight`.
    in_flight: &'a mut Vec<InFlight>,
    /// `PoolConfig::delta_updates`.
    delta_updates: bool,
    /// `ShardState::resync`.
    resync: &'a mut HashSet<StreamId>,
}

impl BatchSink for Emitter<'_> {
    fn served(
        &mut self,
        stats: &mut ShardStats,
        _index: usize,
        job: ShardJob,
        response: KeyFrameResponse,
    ) {
        let Some((scheduled, started)) = strike(self.in_flight, job) else {
            unreachable!("served job {job:?} was never scheduled")
        };
        // One wait sample per *serviced* key frame: how long it sat queued
        // before its batch began.
        let wait = started.saturating_duration_since(scheduled.enqueued_at);
        stats.queue_wait_total += wait;
        stats.queue_wait_max = stats.queue_wait_max.max(wait);
        self.wait_samples.push(wait.as_secs_f64());
        let meter = self.meters.entry(job.stream_id).or_default();
        meter.wait_total += wait;
        meter.wait_max = meter.wait_max.max(wait);
        // The session advanced whether or not the client is still there —
        // only the downlink half is skipped for a vanished client.
        let Some(downlink) = self.downlinks.get(&job.stream_id) else {
            return;
        };
        // A bare stream ships the snapshot's encoding: the previous update's
        // bytes again, uncopied, when the key frame left the student
        // unchanged. With delta updates on, the update ships in a `Full`
        // envelope only when the client lacks it: the student changed, or a
        // recovery left the stream owed its weights.
        let payload = if !self.delta_updates {
            Payload::with_data(response.encoded())
        } else {
            stats.update_bytes_full_equiv += 1 + response.update.encoded_len();
            let owed = self.resync.remove(&job.stream_id);
            if owed || response.outcome.changed {
                let encoded = WeightPayload::encode_full(&response.update);
                stats.update_bytes_sent += encoded.len();
                Payload::with_data(Bytes::from(encoded))
            } else {
                stats.unchanged_updates_sent += 1;
                Payload::sized(0)
            }
        };
        let msg = ServerToClient::StudentUpdate {
            frame_index: job.frame_index,
            metric: response.metric,
            distill_steps: response.outcome.steps,
            payload,
        };
        // A client that hung up mid-stream only loses its own updates.
        deliver(stats, downlink, msg);
    }
}

/// Credit a door-rejected key frame to the stream's live meter — or, when
/// the stream has already been retired (the post-`Shutdown` race), directly
/// to its final [`StreamServerStats`], so the per-stream drop count cannot
/// silently stay at zero for exactly the frames the accounting exists for.
fn note_drop(
    streams: &mut HashMap<StreamId, StreamServerStats>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    stream_id: StreamId,
) {
    if let Some(stats) = streams.get_mut(&stream_id) {
        stats.dropped += 1;
    } else {
        meters.entry(stream_id).or_default().dropped += 1;
    }
}

/// As [`note_drop`], for admission-control throttles.
fn note_throttle(
    streams: &mut HashMap<StreamId, StreamServerStats>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    stream_id: StreamId,
) {
    if let Some(stats) = streams.get_mut(&stream_id) {
        stats.throttled += 1;
    } else {
        meters.entry(stream_id).or_default().throttled += 1;
    }
}

/// Retire one stream: pull its session out of the shard and merge the
/// worker's wait/throttle/drop meter into the stream stats.
fn retire<T: Teacher>(
    shard: &mut ServeShard<T>,
    stream_id: StreamId,
    meters: &mut HashMap<StreamId, StreamMeter>,
) -> Option<(WeightSnapshot, StreamServerStats)> {
    shard.finish(stream_id).map(|(checkpoint, mut stats)| {
        if let Some(meter) = meters.remove(&stream_id) {
            stats.queue_wait_total = meter.wait_total;
            stats.queue_wait_max = meter.wait_max;
            stats.throttled = meter.throttled;
            stats.dropped = meter.dropped;
        }
        (checkpoint, stats)
    })
}

/// All of one shard's serving state and its event handlers: uplink receiver,
/// fair scheduler, per-stream downlinks and meters, and the exit protocol.
/// The reactor hosts every shard's `ShardState` behind a mutex on a fixed
/// worker set, running [`run_pass`](Self::run_pass) whenever the shard's
/// readiness token wakes.
///
/// The handlers mirror the event sources: [`on_frame`](Self::on_frame) for
/// an uplink envelope and disconnect detection inside
/// [`drain_uplink`](Self::drain_uplink). No event is time-based.
pub(super) struct ShardState<T: Teacher> {
    shard_index: usize,
    pool_config: PoolConfig,
    shard: ServeShard<T>,
    rx: mpsc::Receiver<Envelope>,
    scheduler: FairScheduler,
    downlinks: HashMap<StreamId, Downlink>,
    meters: HashMap<StreamId, StreamMeter>,
    streams: HashMap<StreamId, StreamServerStats>,
    final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    /// One wait sample (seconds) per key frame served, in emission order —
    /// the raw material of the operator report's p50/p99.
    wait_samples: Vec<f64>,
    disconnected: bool,
    /// Whether the shard has recovered from a death: it recovers from its
    /// first one only, and the fault plan kills it only once.
    recovered: bool,
    /// Co-scheduled batches completed — the fault plan's kill clock.
    batches_processed: usize,
    /// The batches whose jobs nobody has answered yet, oldest first. A batch
    /// with items still out on the crew stays here across passes. When the
    /// shard dies, its recovery first brings every away item home
    /// (answering its jobs), then drop-acks what is still unanswered — an
    /// injected torn kill's batch, a failed item's jobs — with
    /// [`DropReason::ShardFailed`], and only that.
    in_flight: Vec<InFlight>,
    takeover_samples: Vec<f64>,
    /// Streams owed their weights in full: every stream a recovery carried,
    /// until an answer ships it weights. Nothing proves what such a client
    /// applied of the dying pass's answers, and a failed item's session was
    /// rebuilt from its checkpoint, so "unchanged" no longer means "the
    /// client holds it".
    resync: HashSet<StreamId>,
}

/// What one [`ShardState::run_pass`] left behind, telling the reactor
/// whether to wake the shard again or finish it.
pub(super) struct PassOutcome {
    /// Every uplink handle is gone, nothing is queued and nothing is away:
    /// the state can be finalized with [`ShardState::finish`].
    pub(super) done: bool,
    /// The next pass has work it can do now — a queued job of a stream that
    /// is home, or a shutdown drain with nothing away — so re-wake at once
    /// instead of waiting for traffic. Work behind an away item waits for
    /// the lane's post to wake the shard.
    pub(super) backlog: bool,
}

impl<T: Teacher> ShardState<T> {
    pub(super) fn new(
        shard: ServeShard<T>,
        rx: mpsc::Receiver<Envelope>,
        pool_config: PoolConfig,
        shard_index: usize,
    ) -> Self {
        ShardState {
            shard_index,
            pool_config,
            shard,
            rx,
            scheduler: FairScheduler::new(pool_config.quantum),
            downlinks: HashMap::new(),
            meters: HashMap::new(),
            streams: HashMap::new(),
            final_checkpoints: HashMap::new(),
            wait_samples: Vec::new(),
            disconnected: false,
            recovered: false,
            batches_processed: 0,
            in_flight: Vec::new(),
            takeover_samples: Vec::new(),
            resync: HashSet::new(),
        }
    }

    /// The shard and, beside it, the sink that answers its key frames.
    fn shard_and_emitter(&mut self) -> (&mut ServeShard<T>, Emitter<'_>) {
        (
            &mut self.shard,
            Emitter {
                downlinks: &self.downlinks,
                meters: &mut self.meters,
                wait_samples: &mut self.wait_samples,
                in_flight: &mut self.in_flight,
                delta_updates: self.pool_config.delta_updates,
                resync: &mut self.resync,
            },
        )
    }

    /// Bring home what the crew has returned of this shard's open batches,
    /// waiting as `wait` says, and answer the key frames it distilled. A
    /// failed item is raised at the end of the pass.
    fn drain_away(&mut self, wait: Wait) {
        let (shard, mut emitter) = self.shard_and_emitter();
        shard.drain(wait, &mut emitter);
    }

    /// Whether a job is queued for a stream that is home.
    fn ready(&self) -> bool {
        self.scheduler
            .has_ready(|stream_id| self.shard.is_away(stream_id))
    }

    /// The next fair batch, of streams that are home.
    fn next_batch(&mut self) -> Vec<ScheduledJob> {
        let shard = &self.shard;
        self.scheduler
            .next_batch_skipping(self.pool_config.max_batch, |stream_id| {
                shard.is_away(stream_id)
            })
    }

    /// Drain every envelope currently sitting in the uplink without
    /// blocking. `Empty` only means "no more traffic right now";
    /// `Disconnected` means every uplink handle is gone and the shard should
    /// flush its backlog and exit.
    fn drain_uplink(&mut self, incoming: &mut Vec<Envelope>) {
        loop {
            match self.rx.try_recv() {
                Ok(envelope) => incoming.push(envelope),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
    }

    /// Handle one uplink envelope: control messages in arrival order; key
    /// frames into the fair per-stream queues, gated by admission control.
    fn on_frame(&mut self, envelope: Envelope) -> Result<()> {
        self.shard.stats.events_dispatched += 1;
        let stream_id = envelope.tagged.stream_id;
        match envelope.tagged.message {
            ClientToServer::Register => {
                let Some(link) = envelope.link else {
                    // A Register that no connect sent carries no link —
                    // counted instead of silently ignored.
                    self.shard.stats.unknown_registers += 1;
                    return Ok(());
                };
                let delta_updates = self.pool_config.delta_updates;
                let initial = self.shard.register(stream_id, link.frames, delta_updates);
                // With delta updates on, the initial checkpoint goes inside
                // a `WeightPayload::Full` envelope, as every answer that
                // carries weights does.
                let encoded = if delta_updates {
                    Bytes::from(WeightPayload::encode_full(&initial))
                } else {
                    initial.encode()
                };
                let payload = Payload::with_data(encoded);
                deliver(
                    &mut self.shard.stats,
                    &link.downlink,
                    ServerToClient::InitialStudent { payload },
                );
                self.downlinks.insert(stream_id, link.downlink);
                // The registration-time checkpoint is the stream's first
                // recovery point: from here on it is recoverable.
                if self.pool_config.replication {
                    self.shard.keep_checkpoint(stream_id);
                }
            }
            ClientToServer::KeyFrame {
                frame_index,
                payload: _,
            } => {
                // Unservable jobs are refused at the door with an explicit
                // ack instead of being silently filtered later.
                let reject = if !self.shard.has_stream(stream_id) {
                    Some(DropReason::UnknownStream)
                } else if !self.shard.has_frame(stream_id, frame_index) {
                    Some(DropReason::UnknownFrame)
                } else {
                    None
                };
                if let Some(reason) = reject {
                    self.shard.stats.dropped_jobs += 1;
                    note_drop(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            &mut self.shard.stats,
                            downlink,
                            ServerToClient::Dropped {
                                frame_index,
                                reason,
                            },
                        );
                    }
                    return Ok(());
                }
                // Admission control: per-stream in-flight cap, counting the
                // key frames an away item of the stream still holds.
                let held = self.scheduler.queued_for(stream_id) + self.shard.away_jobs(stream_id);
                if held >= self.pool_config.max_in_flight {
                    self.shard.stats.throttled += 1;
                    note_throttle(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            &mut self.shard.stats,
                            downlink,
                            ServerToClient::Throttle { frame_index },
                        );
                    }
                    return Ok(());
                }
                self.scheduler
                    .push(stream_id, frame_index, envelope.enqueued_at);
            }
            ClientToServer::Shutdown => {
                // A stream whose item is still out retires once it is home,
                // so its final checkpoint holds its last update. Then flush
                // its still-queued key frames so its last updates are not
                // lost, and retire the session.
                if self.shard.is_away(stream_id) {
                    self.drain_away(Wait::Stream(stream_id));
                }
                let remaining = self.scheduler.remove_stream(stream_id);
                for chunk in remaining.chunks(self.pool_config.max_batch) {
                    self.process_scheduled(chunk)?;
                }
                if let Some((checkpoint, stream_stats)) =
                    retire(&mut self.shard, stream_id, &mut self.meters)
                {
                    self.streams.insert(stream_id, stream_stats);
                    self.final_checkpoints.insert(stream_id, checkpoint);
                }
                // The downlink stays open so late key frames of this stream
                // still receive an explicit Dropped ack.
            }
        }
        Ok(())
    }

    /// Start one fair co-scheduled batch on the shard and route every
    /// answer to its stream's downlink: each update as soon as its key
    /// frame is distilled (through the [`Emitter`]), then the drop acks.
    /// Items the crew's lanes still run when the worker has none left to
    /// claim stay out; a later pass answers them.
    ///
    /// Until every job is answered, the batch's record in `in_flight` holds
    /// the rest: if the shard dies, its recovery drop-acks whatever of it is
    /// still unanswered once every away item is home.
    fn process_scheduled(&mut self, batch: &[ScheduledJob]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let jobs: Vec<ShardJob> = batch.iter().map(|s| s.job).collect();
        self.in_flight.push(InFlight {
            started: Instant::now(),
            unanswered: batch.to_vec(),
        });
        let (shard, mut emitter) = self.shard_and_emitter();
        let dropped = shard.open_batch(&jobs, &mut emitter)?;
        for (job, reason) in dropped {
            strike(&mut self.in_flight, job);
            self.meters.entry(job.stream_id).or_default().dropped += 1;
            if let Some(downlink) = self.downlinks.get(&job.stream_id) {
                deliver(
                    &mut self.shard.stats,
                    downlink,
                    ServerToClient::Dropped {
                        frame_index: job.frame_index,
                        reason,
                    },
                );
            }
        }
        Ok(())
    }

    /// One fair co-scheduled batch per pass; the reactor re-dispatches the
    /// shard between batches so new arrivals join the next scheduling round.
    fn process_one_batch(&mut self) -> Result<()> {
        // Injected kill: fires only while a batch is ready to start, so the
        // crash always has observable consequences, and only once. A clean
        // kill panics *before* the scheduler drain (every queued job stays
        // queued, and items still away come home in the recovery); a torn
        // kill drains the batch first and leaves it in `in_flight` — nothing
        // answered — so exactly those jobs are genuinely lost and the
        // recovery must drop-ack them with `DropReason::ShardFailed`.
        let plan = self.pool_config.fault_plan;
        if !self.recovered
            && plan.kill_due(self.shard_index, self.batches_processed)
            && self.ready()
        {
            if plan.torn_kill {
                let torn = self.next_batch();
                self.in_flight.push(InFlight {
                    started: Instant::now(),
                    unanswered: torn,
                });
            }
            panic!(
                "fault injection (seed {}): shard {} killed at batch {}",
                plan.seed, self.shard_index, self.batches_processed
            );
        }
        let batch = self.next_batch();
        if batch.is_empty() {
            return Ok(());
        }
        self.process_scheduled(&batch)?;
        self.batches_processed += 1;
        // Sample the copy-on-write memory split once per batch: pointer
        // compares per tensor, far off the per-frame fast path, and a batch
        // is exactly when private storage can grow (optimizer writes). An
        // away session counts as it left.
        let memory = self.shard.memory_profile();
        let stats = &mut self.shard.stats;
        stats.session_bytes_shared = memory.shared_bytes;
        stats.session_bytes_private = memory.private_bytes;
        stats.session_bytes_private_peak =
            stats.session_bytes_private_peak.max(memory.private_bytes);
        Ok(())
    }

    /// Record the high-water mark of registered-but-quiet streams — the
    /// population the reactor hosts without a thread each.
    fn note_idle_streams(&mut self) {
        let idle = self
            .shard
            .stream_count()
            .saturating_sub(self.scheduler.active_streams());
        self.shard.stats.idle_streams = self.shard.stats.idle_streams.max(idle);
    }

    /// One non-blocking pass of the shard state machine: the crew's
    /// returns, uplink drain, envelope handlers, one co-scheduled batch.
    /// This is the reactor's dispatch unit.
    ///
    /// An item that comes home failed fails the pass that brings it home:
    /// at once when it is found before the uplink is read (nothing is taken
    /// off the uplink yet, so the next pass finds every envelope there),
    /// else once the pass's envelopes are handled and its batch is started.
    pub(super) fn run_pass(&mut self) -> Result<PassOutcome> {
        self.shard.stats.poll_wakeups += 1;
        self.drain_away(Wait::None);
        self.shard.raise_failure()?;
        let mut incoming: Vec<Envelope> = Vec::new();
        self.drain_uplink(&mut incoming);
        if incoming.is_empty()
            && self.scheduler.is_empty()
            && self.disconnected
            && !self.shard.has_open()
        {
            return Ok(PassOutcome {
                done: true,
                backlog: false,
            });
        }
        for envelope in incoming {
            self.on_frame(envelope)?;
        }
        self.process_one_batch()?;
        self.shard.raise_failure()?;
        self.note_idle_streams();
        Ok(PassOutcome {
            done: false,
            backlog: self.ready() || (self.disconnected && !self.shard.has_open()),
        })
    }

    /// The exit protocol: retire every remaining session and assemble the
    /// shard's final output.
    pub(super) fn finish(mut self) -> ShardOutput {
        // The reactor finishes a shard only once nothing is queued and
        // nothing is away; drain anyway, so no item is left out on a lane.
        self.drain_away(Wait::All);
        let failure = self.shard.take_failure();
        debug_assert!(failure.is_none(), "an item failed after the last pass");
        // Clients that vanished without Shutdown still get their sessions
        // retired so their checkpoints and counters are reported.
        for stream_id in self.shard.session_ids() {
            if let Some((checkpoint, stream_stats)) =
                retire(&mut self.shard, stream_id, &mut self.meters)
            {
                self.streams.insert(stream_id, stream_stats);
                self.final_checkpoints.insert(stream_id, checkpoint);
            }
        }
        ShardOutput {
            shard: self.shard_index,
            stats: self.shard.stats(),
            streams: self.streams,
            final_checkpoints: self.final_checkpoints,
            wait_samples: self.wait_samples,
            takeover_samples: self.takeover_samples,
        }
    }

    /// Recover, in place, from a pass that died at `died_at`: the dying
    /// pass's unwind was caught, and everything it left — sessions with
    /// their optimizers, frame stores, queued jobs, open batches, the uplink
    /// — is whole where it stands. No session is half-stepped either: a
    /// shard rebuilds a failed item's session from the stream's checkpoint
    /// before the panic leaves it. Returns whether the shard recovered: only
    /// with replication on, and only from its first death.
    ///
    /// Items the pass left out on the crew come home first: the lanes
    /// finish them regardless, and their key frames are answered, not lost.
    /// What is still unanswered then died with the pass and is drop-acked.
    /// The next pass serves the queue and the uplink as before.
    pub(super) fn recover(&mut self, died_at: Instant) -> bool {
        if !self.pool_config.replication || self.recovered {
            return false;
        }
        self.recovered = true;
        // A failed item comes home rebuilt like any; its panic stays with
        // the death, and its unanswered jobs are drop-acked below.
        self.drain_away(Wait::All);
        let _second_failure = self.shard.take_failure();
        // Nothing proves what a client applied of the dying pass's answers,
        // so each stream's next answer ships its weights.
        self.resync.extend(self.shard.session_ids());
        // A torn kill's whole batch, the jobs of an item that failed.
        // (Jobs answered, by the dying pass or by the drain above, are not
        // here.)
        let lost = std::mem::take(&mut self.in_flight);
        for job in lost.into_iter().flat_map(|flight| flight.unanswered) {
            self.drop_failed_job(job.job.stream_id, job.job.frame_index);
        }
        let carried = self.shard.stream_count();
        let stats = &mut self.shard.stats;
        stats.failovers += 1;
        stats.streams_adopted += carried;
        self.takeover_samples.push(died_at.elapsed().as_secs_f64());
        true
    }

    /// Ack one job lost to a shard failure with [`DropReason::ShardFailed`].
    fn drop_failed_job(&mut self, stream_id: StreamId, frame_index: usize) {
        self.shard.stats.frames_lost_on_failover += 1;
        self.shard.stats.dropped_jobs += 1;
        note_drop(&mut self.streams, &mut self.meters, stream_id);
        if let Some(downlink) = self.downlinks.get(&stream_id) {
            deliver(
                &mut self.shard.stats,
                downlink,
                ServerToClient::Dropped {
                    frame_index,
                    reason: DropReason::ShardFailed,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShadowTutorConfig;
    use crate::serve::shard::{ItemEvent, ItemHook};
    use st_nn::store::SessionMemory;
    use st_nn::student::{StudentConfig, StudentNet};
    use st_teacher::OracleTeacher;
    use st_tensor::parallel::{Crew, Lanes, Ran};
    use st_video::dataset::tiny_stream;
    use st_video::{Frame, SceneKind};
    use std::sync::{Condvar, Mutex};

    /// A one-shard state machine with nothing connected to it.
    fn lone_state() -> ShardState<OracleTeacher> {
        let shard = ServeShard::new(
            ShadowTutorConfig::paper(),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            OracleTeacher::perfect(5),
            0.013,
        );
        let (_uplink, rx) = mpsc::channel();
        ShardState::new(shard, rx, PoolConfig::with_shards(1), 0)
    }

    #[test]
    fn queue_wait_samples_count_serviced_key_frames_only() {
        let mut state = lone_state();
        let people = tiny_stream(SceneKind::People, 501, 1);
        let street = tiny_stream(SceneKind::Street, 502, 1);
        state
            .shard
            .register(1, FrameStore::from_frames(&people, None), false);
        state
            .shard
            .register(2, FrameStore::from_frames(&street, None), false);
        let enqueued_at = Instant::now();
        let scheduled = |stream_id, frame_index| ScheduledJob {
            job: ShardJob {
                stream_id,
                frame_index,
            },
            enqueued_at,
        };
        // Two good jobs around one whose frame the stream never shared.
        let batch = [
            scheduled(1, people[0].index),
            scheduled(1, 999),
            scheduled(2, street[0].index),
        ];
        state.process_scheduled(&batch).unwrap();
        let stats = state.shard.stats();
        assert_eq!(stats.key_frames, 2);
        assert_eq!(stats.dropped_jobs, 1);
        assert_eq!(
            state.wait_samples.len(),
            2,
            "a dropped job left a queue-wait sample"
        );
        // The dropped job is charged to its stream as a drop, not a wait.
        assert_eq!(state.meters[&1].dropped, 1);
        assert!(stats.queue_wait_total >= state.meters[&1].wait_total);
        assert_eq!(
            stats.queue_wait_total,
            state.meters[&1].wait_total + state.meters[&2].wait_total
        );
        // Every job of the batch was answered: nothing is left for a
        // recovery to drop-ack.
        assert!(state.in_flight.is_empty());
    }

    #[test]
    fn queued_key_frames_leave_in_one_batch() {
        let mut state = lone_state();
        assert_eq!(state.pool_config.max_batch, 4);
        let scenes = [SceneKind::People, SceneKind::Street, SceneKind::Animals];
        let streams: Vec<(StreamId, Vec<Frame>)> = (1..=3)
            .zip(scenes)
            .map(|(id, scene)| (id, tiny_stream(scene, 510 + id, 3)))
            .collect();
        for (id, frames) in &streams {
            state
                .shard
                .register(*id, FrameStore::from_frames(frames, None), false);
        }
        let enqueued_at = Instant::now();

        // One key frame from each of three streams, all queued before the
        // shard runs: they share one teacher forward.
        for (id, frames) in &streams {
            state.scheduler.push(*id, frames[0].index, enqueued_at);
        }
        state.process_one_batch().unwrap();
        let stats = state.shard.stats();
        assert_eq!((stats.teacher_batches, stats.key_frames), (1, 3));
        assert_eq!(stats.max_batch_observed, 3);
        assert!(state.scheduler.is_empty());

        // Seven queued key frames leave as `max_batch` and the rest.
        for (id, frames) in &streams {
            let count = if *id == 1 { 3 } else { 2 };
            for frame in &frames[..count] {
                state.scheduler.push(*id, frame.index, enqueued_at);
            }
        }
        assert_eq!(state.scheduler.len(), 7);
        state.process_one_batch().unwrap();
        let stats = state.shard.stats();
        assert_eq!((stats.teacher_batches, stats.key_frames), (2, 7));
        assert_eq!(stats.max_batch_observed, 4);
        assert_eq!(state.scheduler.len(), 3);
        state.process_one_batch().unwrap();
        let stats = state.shard.stats();
        assert_eq!((stats.teacher_batches, stats.key_frames), (3, 10));
        assert!(state.scheduler.is_empty());
    }

    /// Holds every item a lane starts until [`LaneGate::open`], and every
    /// item the worker starts until a lane has started one: a batch of two
    /// streams leaves its second item out on the lane, held.
    #[derive(Default)]
    struct LaneGate {
        /// (a lane has started an item, the gate is open)
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl LaneGate {
        fn hook(self: &Arc<Self>) -> ItemHook {
            let gate = Arc::clone(self);
            Arc::new(move |event| {
                let ItemEvent::Started { ran, .. } = event else {
                    return;
                };
                let mut state = gate.state.lock().unwrap();
                if ran == Ran::Helper {
                    state.0 = true;
                    gate.changed.notify_all();
                }
                let (_state, timeout) = gate
                    .changed
                    .wait_timeout_while(state, Duration::from_secs(60), |(lane_started, open)| {
                        if ran == Ran::Helper {
                            !*open
                        } else {
                            !*lane_started
                        }
                    })
                    .unwrap();
                assert!(!timeout.timed_out(), "the lane gate never opened");
            })
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    /// A state machine whose batches run on a private crew of one lane,
    /// gated, whose lane posts wake token 0 of a poller, with streams
    /// registered and a downlink each.
    struct Crewed {
        state: ShardState<OracleTeacher>,
        answers: HashMap<StreamId, mpsc::Receiver<ServerToClient>>,
        lanes: Arc<Lanes>,
        _uplink: mpsc::Sender<Envelope>,
    }

    fn crewed_state(
        gate: &Arc<LaneGate>,
        poller: &st_net::Poller,
        streams: &[(StreamId, Vec<Frame>)],
    ) -> Crewed {
        let lanes = Lanes::new();
        let waker = poller.waker(0);
        let shard = ServeShard::new(
            ShadowTutorConfig::paper(),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            OracleTeacher::perfect(5),
            0.013,
        )
        .with_crew(Arc::new(Crew::new(Arc::clone(&lanes), 1)))
        .with_notify(Arc::new(move || waker.wake()))
        .with_item_hook(gate.hook());
        let (uplink, rx) = mpsc::channel();
        let mut state = ShardState::new(shard, rx, PoolConfig::with_shards(1), 0);
        let mut answers = HashMap::new();
        for (id, frames) in streams {
            state
                .shard
                .register(*id, FrameStore::from_frames(frames, None), false);
            let (tx, rx) = mpsc::channel();
            state.downlinks.insert(
                *id,
                Downlink {
                    tx,
                    waker: None,
                    wire: Arc::new(WireMeter::default()),
                },
            );
            answers.insert(*id, rx);
        }
        Crewed {
            state,
            answers,
            lanes,
            _uplink: uplink,
        }
    }

    /// What a plain shard, one key frame per batch, answers stream `id` for
    /// `send`: (frame index, update bytes) per key frame, and the stream's
    /// final checkpoint.
    fn served_alone(
        id: StreamId,
        frames: &[Frame],
        send: &[Frame],
    ) -> (Vec<(usize, Bytes)>, Bytes) {
        let mut shard = ServeShard::new(
            ShadowTutorConfig::paper(),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            OracleTeacher::perfect(5),
            0.013,
        );
        shard.register(id, FrameStore::from_frames(frames, None), false);
        let answers = send
            .iter()
            .map(|frame| {
                let job = ShardJob {
                    stream_id: id,
                    frame_index: frame.index,
                };
                let outcome = shard.process_batch(&[job]).unwrap();
                let (_, frame_index, response) = &outcome.responses[0];
                (*frame_index, response.encoded())
            })
            .collect();
        (answers, shard.finish(id).unwrap().0.encode())
    }

    /// Every update waiting on a downlink: (frame index, update bytes).
    fn updates(rx: &mpsc::Receiver<ServerToClient>) -> Vec<(usize, Bytes)> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .map(|message| match message {
                ServerToClient::StudentUpdate {
                    frame_index,
                    payload,
                    ..
                } => (frame_index, payload.data.unwrap()),
                other => panic!("expected an update, got {other:?}"),
            })
            .collect()
    }

    fn envelope(stream_id: StreamId, message: ClientToServer) -> Envelope {
        Envelope {
            tagged: StreamTagged::new(stream_id, message),
            enqueued_at: Instant::now(),
            link: None,
        }
    }

    fn key_frame(stream_id: StreamId, frame: &Frame) -> Envelope {
        envelope(
            stream_id,
            ClientToServer::KeyFrame {
                frame_index: frame.index,
                payload: Payload::sized(frame.raw_rgb_bytes()),
            },
        )
    }

    /// Storage of one registered session, shared and private together.
    fn one_session_bytes() -> usize {
        let mut lone = lone_state();
        let frames = tiny_stream(SceneKind::People, 520, 1);
        lone.shard
            .register(1, FrameStore::from_frames(&frames, None), false);
        let SessionMemory {
            shared_bytes,
            private_bytes,
        } = lone.shard.memory_profile();
        shared_bytes + private_bytes
    }

    #[test]
    fn a_key_frame_of_an_away_stream_is_queued_and_served_after_its_item() {
        let gate = Arc::new(LaneGate::default());
        let poller = st_net::Poller::new();
        let streams = vec![
            (1, tiny_stream(SceneKind::People, 521, 2)),
            (2, tiny_stream(SceneKind::Street, 522, 2)),
        ];
        let frames = &streams[1].1;
        let mut crewed = crewed_state(&gate, &poller, &streams);
        let state = &mut crewed.state;
        state.pool_config.max_in_flight = 2;
        let enqueued_at = Instant::now();
        for (id, frames) in &streams {
            state.scheduler.push(*id, frames[0].index, enqueued_at);
        }
        // The worker serves stream 1's item; stream 2's is out on the lane,
        // held there. The pass's memory sample still counts both sessions.
        state.process_one_batch().unwrap();
        assert!(state.shard.is_away(2) && !state.shard.is_away(1));
        assert_eq!(updates(&crewed.answers[&1]).len(), 1);
        let stats = state.shard.stats();
        assert_eq!(
            stats.session_bytes_shared + stats.session_bytes_private,
            2 * one_session_bytes(),
            "an away session went uncounted"
        );
        // Stream 2's next key frame arrives meanwhile: recognised and queued.
        state.on_frame(key_frame(2, &frames[1])).unwrap();
        assert_eq!(state.scheduler.queued_for(2), 1);
        // Admission counts the key frame the away item holds: a third one
        // would make three at the shard, over the cap of two.
        state.on_frame(key_frame(2, &frames[1])).unwrap();
        assert!(matches!(
            crewed.answers[&2].try_recv(),
            Ok(ServerToClient::Throttle { .. })
        ));
        assert_eq!(state.scheduler.queued_for(2), 1);
        // The stream is in no batch while its item is out: the key frame
        // stays queued, and no pass is due for it.
        state.process_one_batch().unwrap();
        assert_eq!(state.scheduler.queued_for(2), 1);
        assert!(!state.ready());
        assert!(updates(&crewed.answers[&2]).is_empty());
        // The lane finishes; its post wakes the shard, whose passes bring
        // the item home and then serve the queued key frame.
        gate.open();
        assert_eq!(poller.poll_one(Duration::from_secs(60)), Some(0));
        for _ in 0..100 {
            state.run_pass().unwrap();
            if state.scheduler.is_empty() && !state.shard.has_open() {
                break;
            }
            poller.poll_one(Duration::from_secs(1));
        }
        assert!(state.scheduler.is_empty() && !state.shard.has_open());
        // Both key frames answered, in order, never dropped, bit for bit
        // what a shard serving the stream alone answers.
        assert_eq!(
            updates(&crewed.answers[&2]),
            served_alone(2, frames, frames).0
        );
        let stats = state.shard.stats();
        assert_eq!((stats.dropped_jobs, stats.throttled), (0, 1));
        assert_eq!((stats.key_frames, stats.jobs_offloaded), (3, 1));
        assert!(state.in_flight.is_empty());
        crewed.lanes.close();
    }

    #[test]
    fn a_shutdown_while_the_item_is_away_retires_the_stream_with_its_last_update() {
        let gate = Arc::new(LaneGate::default());
        let poller = st_net::Poller::new();
        let streams = vec![
            (1, tiny_stream(SceneKind::People, 531, 1)),
            (2, tiny_stream(SceneKind::Animals, 532, 1)),
        ];
        let frames = &streams[1].1;
        let mut crewed = crewed_state(&gate, &poller, &streams);
        let state = &mut crewed.state;
        let enqueued_at = Instant::now();
        for (id, frames) in &streams {
            state.scheduler.push(*id, frames[0].index, enqueued_at);
        }
        state.process_one_batch().unwrap();
        assert!(state.shard.is_away(2));
        // Released, the lane finishes in its own time; the shard learns of
        // it only by draining, so the Shutdown below finds the stream away
        // and waits for its item to come home.
        gate.open();
        state
            .on_frame(envelope(2, ClientToServer::Shutdown))
            .unwrap();
        assert!(!state.shard.has_stream(2));
        // Its last key frame was answered, and its final checkpoint holds
        // that update: the session a shard serving it alone ends with.
        let (alone, checkpoint) = served_alone(2, frames, frames);
        assert_eq!(updates(&crewed.answers[&2]), alone);
        assert_eq!(state.final_checkpoints[&2].encode(), checkpoint);
        assert_eq!(state.streams[&2].key_frames, 1);
        assert!(!state.shard.has_open() && state.in_flight.is_empty());
        crewed.lanes.close();
    }

    #[test]
    fn an_unchanged_answer_carries_no_weights_until_a_recovery_owes_them() {
        // A student trained on the scene, so a wrecking step loses to it.
        let frames = tiny_stream(SceneKind::People, 79, 3);
        let paper = ShadowTutorConfig::paper();
        let mut template = StudentNet::new(StudentConfig::tiny()).unwrap();
        template.freeze = paper.mode.freeze_point();
        let mut adam = st_nn::optim::Adam::new(paper.learning_rate);
        let mut teacher = OracleTeacher::perfect(5);
        for frame in [&frames[..]; 6].concat() {
            let label = teacher.pseudo_label(&frame).unwrap();
            crate::train::train_student(&mut template, &mut adam, &frame, &label, &paper).unwrap();
        }
        // Steps too small to move an argmax: the metric ties, and a tie
        // keeps the stepped student.
        let eager = ShadowTutorConfig {
            threshold: 0.999,
            learning_rate: 1e-6,
            ..paper
        };
        let shard = ServeShard::new(eager, template, OracleTeacher::perfect(5), 0.013);
        let (_uplink, rx) = mpsc::channel();
        let pool_config = PoolConfig {
            delta_updates: true,
            replication: true,
            ..PoolConfig::with_shards(1)
        };
        let mut state = ShardState::new(shard, rx, pool_config, 0);
        let (tx, answers) = mpsc::channel();
        let downlink = Downlink {
            tx,
            waker: None,
            wire: Arc::new(WireMeter::default()),
        };
        let mut register = envelope(1, ClientToServer::Register);
        register.link = Some(Box::new(StreamLink {
            downlink,
            frames: FrameStore::from_frames(&frames, None),
        }));
        state.on_frame(register).unwrap();
        // A client replaying its answers: a `Full` envelope or nothing.
        let mut client = StudentNet::new(StudentConfig::tiny()).unwrap();
        client.freeze = paper.mode.freeze_point();
        let replay = |client: &mut StudentNet| -> Option<(usize, WeightSnapshot)> {
            let (steps, payload) = match answers.try_recv().unwrap() {
                ServerToClient::InitialStudent { payload } => (0, payload),
                ServerToClient::StudentUpdate {
                    distill_steps,
                    payload,
                    ..
                } => (distill_steps, payload),
                other => panic!("expected weights, got {other:?}"),
            };
            let data = payload.data?;
            let Ok(WeightPayload::Full(snapshot)) = WeightPayload::decode(&mut &data[..]) else {
                panic!("expected a Full envelope")
            };
            snapshot.apply(client).unwrap();
            Some((steps, snapshot))
        };
        assert!(replay(&mut client).is_some(), "no initial student");
        let serve = |state: &mut ShardState<OracleTeacher>, frame: &Frame| {
            state.on_frame(key_frame(1, frame)).unwrap();
            state.process_one_batch().unwrap();
        };
        // A key frame that trains ships the student.
        serve(&mut state, &frames[0]);
        let (steps, trained) = replay(&mut client).expect("a changed student shipped nothing");
        assert!(steps > 0 && trained.scope() == st_nn::snapshot::SnapshotScope::TrainableOnly);
        // Rolled back: stepped at a learning rate that wrecks the student,
        // every step loses to where it started and is undone. The client
        // holds those weights already: the answer carries none.
        let wrecking = ShadowTutorConfig {
            threshold: 0.999,
            max_updates: 2,
            learning_rate: 1e3,
            ..paper
        };
        let mut entry = state.shard.evict_stream(1).unwrap();
        let student = entry.session.student_mut().clone();
        entry.session = crate::server::DistillSession::new(wrecking, student, 0.0);
        state.shard.adopt_stream(1, entry);
        serve(&mut state, &frames[1]);
        assert!(replay(&mut client).is_none());
        assert_eq!(state.shard.stats.unchanged_updates_sent, 1);
        // After a recovery the stream's next answer ships its weights,
        // unchanged as they are since the trained answer, in the full
        // trainable envelope; then unchanged answers carry none again.
        assert!(state.recover(Instant::now()));
        serve(&mut state, &frames[1]);
        let (steps, resync) = replay(&mut client).expect("no weights after the recovery");
        assert!(steps > 0);
        assert_eq!(resync.encode(), trained.encode());
        serve(&mut state, &frames[2]);
        assert!(replay(&mut client).is_none());
        assert_eq!(state.shard.stats.unchanged_updates_sent, 2);
        // The client ends on the server session's bits.
        let (server, _) = state.shard.finish(1).unwrap();
        assert_eq!(
            WeightSnapshot::capture(&mut client, st_nn::snapshot::SnapshotScope::Full).encode(),
            server.encode()
        );
    }
}
