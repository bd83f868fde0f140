//! The shard state machine: all of one shard's serving state, its event
//! handlers, and the channel plumbing that connects it to clients. The
//! reactor drives it exclusively through [`ShardState::run_pass`],
//! [`ShardState::on_need_frame_retry`] and [`ShardState::finish`]; its
//! fields are private to this module and its `takeover` child (warm-standby
//! adoption).

mod takeover;

use super::failover::{FailoverBoard, FailoverShared};
use super::locked;
use super::replica::ReplicaStore;
use super::shard::{BatchSink, DeltaTrack, ServeShard, StreamEntry, Unserved};
use super::{FairScheduler, FrameStore, PoolConfig, ScheduledJob, ShardJob, ShardStats};
#[cfg(doc)]
use super::{ServerPool, StreamClient};
use crate::server::{KeyFrameResponse, StreamServerStats};
use crate::Result;
use bytes::Bytes;
use st_net::message::MESSAGE_OVERHEAD_BYTES;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient, StreamId, StreamTagged, Wire};
use st_nn::delta::{WeightDelta, WeightPayload};
use st_nn::snapshot::WeightSnapshot;
use st_teacher::Teacher;
use st_video::Frame;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A stream-tagged uplink message queued at a shard.
#[derive(Clone)]
pub(super) struct Envelope {
    pub(super) tagged: StreamTagged<ClientToServer>,
    pub(super) enqueued_at: Instant,
    /// Out-of-band frame content for [`ClientToServer::ReShare`]: the wire
    /// message carries encoded pixels for realistic sizes, and the
    /// in-process transport ships the actual `Frame` beside it, exactly as
    /// connect-time pre-sharing does.
    pub(super) frame: Option<Frame>,
}

/// Pool-wide measured wire traffic: the framed byte size
/// ([`st_net::wire::frame_len`]) of every uplink envelope the clients sent
/// and every downlink message the shards delivered. Unlike the modelled
/// `bytes` ridealong, these are the sizes the versioned binary codec would
/// actually put on a wire, so `PoolReport::wire_bytes_up/down` stay honest
/// regardless of which transport backend carried the messages.
#[derive(Debug, Default)]
pub(super) struct WireMeter {
    pub(super) up: AtomicUsize,
    pub(super) down: AtomicUsize,
}

/// The sending half of one stream's downlink (wire size + message), with an
/// optional readiness waker: a client connected through
/// [`ServerPool::connect_with_waker`] is woken after every downlink send, so
/// a single driver loop can multiplex many clients through one
/// [`st_net::Poller`] instead of blocking per stream.
#[derive(Clone)]
pub(super) struct Downlink {
    pub(super) tx: crossbeam::channel::Sender<(usize, ServerToClient)>,
    pub(super) waker: Option<st_net::Waker>,
    pub(super) wire: Arc<WireMeter>,
}

impl Downlink {
    fn send(&self, bytes: usize, message: ServerToClient) -> bool {
        let wire_len = st_net::wire::frame_len(&message);
        let delivered = self.tx.send((bytes, message)).is_ok();
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

/// Per-stream connection state the worker looks up when a `Register`
/// message arrives: the downlink back to the client and the pre-shared
/// frame content.
pub(super) struct StreamLink {
    pub(super) downlink: Downlink,
    pub(super) frames: FrameStore,
}

pub(super) type Registry = Arc<Mutex<HashMap<StreamId, StreamLink>>>;

/// One stream's live shard assignment. Clients hold their own `Arc` and
/// read it with a single atomic load per send — the pool-wide map is only
/// locked on connect and by a takeover's routing flip, so uplink traffic
/// never serializes on a global mutex.
pub(super) type Route = Arc<AtomicUsize>;

/// The live stream → shard routing table, shared by the pool (placement +
/// duplicate detection) and every worker (a standby flips its dead ward's
/// entries to itself); each [`StreamClient`] holds its own entry's
/// [`Route`] directly, so an adopted stream's traffic follows it. An entry
/// is never removed — a stream id stays reserved for the pool's lifetime.
pub(super) type Placements = Arc<Mutex<HashMap<StreamId, Route>>>;

/// Registered-session count per shard — the signal least-loaded placement
/// reads and [`ServerPool::shard_loads`] reports. Credited at connect,
/// released when the stream retires, re-homed by a takeover.
pub(super) type ShardLoads = Arc<Vec<AtomicUsize>>;

/// What one shard state machine hands back when it finishes. Tagged with
/// the shard index because a reactor worker finalizes whichever shards it
/// happens to dispatch last — collection order is not shard order.
pub(super) struct ShardOutput {
    pub(super) shard: usize,
    pub(super) stats: ShardStats,
    pub(super) streams: HashMap<StreamId, StreamServerStats>,
    pub(super) final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    pub(super) wait_samples: Vec<f64>,
    /// One death-to-adoption latency sample (seconds) per takeover this
    /// shard performed as a standby.
    pub(super) takeover_samples: Vec<f64>,
}

/// Send one downlink message, counting the loss when the client already
/// hung up. A vanished client only loses its own acks, but the loss is
/// *counted* (`ShardStats::lost_acks`), never silently discarded — the
/// failover paths depend on every drop being observable.
fn deliver(stats: &mut ShardStats, downlink: &Downlink, bytes: usize, msg: ServerToClient) {
    if !downlink.send(bytes, msg) {
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

/// Jobs parked per stream while the client re-uploads an evicted frame,
/// keyed by frame index. They keep their original arrival timestamps so the
/// eventual wait accounting covers the whole recovery round trip. A frame
/// index maps to *every* job waiting on it (a client may legally re-send a
/// key frame), so one re-share resumes — and one answer reaches — each of
/// them.
type AwaitingFrames = HashMap<StreamId, HashMap<usize, Vec<ScheduledJob>>>;

/// The shard state machine's [`BatchSink`]: answer each key frame the
/// moment the reactor worker learns it has been distilled — queue-wait
/// sample, delta encode, digest patch, downlink — and re-publish a stream's
/// checkpoint replica as soon as its session is home.
struct Emitter<'a> {
    batch: &'a [ScheduledJob],
    started: Instant,
    downlinks: &'a HashMap<StreamId, Downlink>,
    meters: &'a mut HashMap<StreamId, StreamMeter>,
    wait_samples: &'a mut Vec<f64>,
    /// The batch's jobs nobody has answered yet (`ShardState::torn_jobs`).
    unanswered: &'a mut Vec<ScheduledJob>,
    /// Where to replicate, and as which shard; `None` when replication is
    /// off or the stream is about to retire.
    replicate: Option<(&'a ReplicaStore, usize)>,
    scheduler: &'a FairScheduler,
}

impl BatchSink for Emitter<'_> {
    fn served(
        &mut self,
        stats: &mut ShardStats,
        index: usize,
        job: ShardJob,
        response: KeyFrameResponse,
        track: Option<&mut DeltaTrack>,
    ) {
        if let Some(at) = self.unanswered.iter().position(|s| s.job == job) {
            self.unanswered.swap_remove(at);
        }
        // One wait sample per *serviced* key frame: how long it sat queued
        // before its batch began.
        let wait = self
            .started
            .saturating_duration_since(self.batch[index].enqueued_at);
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
        // Delta-negotiated streams receive a [`WeightPayload`] envelope:
        // the changed chunks against the client's last-acked checkpoint
        // when the stream is known synced, a full snapshot otherwise (a
        // fresh or failover-restored stream re-syncs on its next update).
        // The digest is patched only here — for an update actually put on
        // the downlink — so a stream whose client vanished never advances
        // the base the client is assumed to hold. A delta and its patch
        // come out of one chunk-encode-and-hash pass over the update.
        let encoded = match track {
            Some(track) => {
                let encoded = if track.synced {
                    stats.delta_updates_sent += 1;
                    let delta = WeightDelta::compute_and_patch(&response.update, &mut track.digest);
                    Bytes::from(Wire::encode(&WeightPayload::Delta(delta)))
                } else {
                    stats.full_updates_sent += 1;
                    track.synced = true;
                    track.digest.patch(&response.update);
                    Bytes::from(WeightPayload::encode_full(&response.update))
                };
                stats.update_bytes_sent += encoded.len();
                stats.update_bytes_full_equiv += 1 + response.update.encoded_len();
                encoded
            }
            None => response.update.encode(),
        };
        let payload = Payload::with_data(encoded);
        let bytes = payload.bytes;
        let msg = ServerToClient::StudentUpdate {
            frame_index: job.frame_index,
            metric: response.metric,
            distill_steps: response.outcome.steps,
            payload,
        };
        // A client that hung up mid-stream only loses its own updates.
        deliver(stats, downlink, bytes, msg);
    }

    fn settled(&mut self, stats: &mut ShardStats, stream_id: StreamId, entry: &mut StreamEntry) {
        if let Some((store, shard_index)) = self.replicate {
            publish_replica(
                store,
                shard_index,
                stream_id,
                entry.replica(),
                self.scheduler.deficit_of(stream_id),
                stats,
            );
        }
    }
}

/// Publish one stream's checkpoint replica under `shard_index`'s slot.
/// Content-hash chunking means the parts a partial distillation never
/// unfreezes are deduplicated, not recopied.
fn publish_replica(
    store: &ReplicaStore,
    shard_index: usize,
    stream_id: StreamId,
    (checkpoint, key_frames, distill_steps, known_frames, supports_delta): (
        WeightSnapshot,
        usize,
        usize,
        Vec<usize>,
        bool,
    ),
    deficit: usize,
    stats: &mut ShardStats,
) {
    let published = store.publish(
        shard_index,
        stream_id,
        &checkpoint,
        key_frames,
        distill_steps,
        deficit,
        known_frames,
        supports_delta,
    );
    stats.replica_bytes_published += published.new_bytes;
    stats.replica_bytes_shared += published.shared_bytes;
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

/// Retire one stream: pull its session out of the shard, merge the worker's
/// wait/throttle/drop meter into the stream stats, and release its load slot.
fn retire<T: Teacher>(
    shard: &mut ServeShard<T>,
    stream_id: StreamId,
    meters: &mut HashMap<StreamId, StreamMeter>,
    loads: &ShardLoads,
    shard_index: usize,
) -> Option<(WeightSnapshot, StreamServerStats)> {
    shard.finish(stream_id).map(|(checkpoint, mut stats)| {
        if let Some(meter) = meters.remove(&stream_id) {
            stats.queue_wait_total = meter.wait_total;
            stats.queue_wait_max = meter.wait_max;
            stats.throttled = meter.throttled;
            stats.dropped = meter.dropped;
        }
        loads[shard_index].fetch_sub(1, Ordering::SeqCst);
        (checkpoint, stats)
    })
}

/// All of one shard's serving state and its event handlers: uplink receiver,
/// fair scheduler, per-stream downlinks and meters, parked
/// re-share jobs, and the exit protocol. The reactor hosts every shard's
/// `ShardState` behind a mutex on a fixed worker set, running
/// [`run_pass`](Self::run_pass) whenever the shard's readiness token wakes.
///
/// The handlers mirror the event sources: [`on_frame`](Self::on_frame) for
/// an uplink envelope, [`on_need_frame_retry`](Self::on_need_frame_retry)
/// for a retry timer, and disconnect detection inside
/// [`drain_uplink`](Self::drain_uplink).
pub(super) struct ShardState<T: Teacher> {
    shard_index: usize,
    pool_config: PoolConfig,
    shard: ServeShard<T>,
    rx: crossbeam::channel::Receiver<Envelope>,
    registry: Registry,
    loads: ShardLoads,
    placements: Placements,
    scheduler: FairScheduler,
    downlinks: HashMap<StreamId, Downlink>,
    meters: HashMap<StreamId, StreamMeter>,
    streams: HashMap<StreamId, StreamServerStats>,
    final_checkpoints: HashMap<StreamId, WeightSnapshot>,
    awaiting: AwaitingFrames,
    /// One wait sample (seconds) per key frame served, in emission order —
    /// the raw material of the operator report's p50/p99.
    wait_samples: Vec<f64>,
    disconnected: bool,
    /// `NeedFrame` requests sent during the current pass; the reactor arms
    /// a retry timer for each.
    need_frames_sent: Vec<(StreamId, usize)>,
    /// Failover blackboard (liveness, deaths, adoption claims).
    board: Arc<FailoverBoard>,
    /// Checkpoint-replica store; `Some` iff [`PoolConfig::replication`].
    replicas: Option<Arc<ReplicaStore>>,
    /// Co-scheduled batches completed — the fault plan's kill clock.
    batches_processed: usize,
    /// The jobs of the batch in flight that nobody has answered yet: filled
    /// when a batch leaves the scheduler, struck off job by job as updates
    /// are emitted (or parks and drop acks handed out), empty between
    /// batches. A pass that dies mid-batch — an injected torn kill, a panic
    /// carried back from a crew helper — leaves exactly the unanswered jobs
    /// here, and the adopting standby drop-acks those, and only those, with
    /// [`DropReason::ShardFailed`].
    torn_jobs: Vec<ScheduledJob>,
    /// Uplink receivers of shards this one adopted: their clients may have
    /// enqueued traffic before the routing flip, so the standby drains them
    /// alongside its own for the rest of the pool's life.
    adopted_rx: Vec<crossbeam::channel::Receiver<Envelope>>,
    /// Connect-time registries of adopted shards, consulted when a
    /// `Register` raced the death.
    adopted_registries: Vec<Registry>,
    /// Which shard each `adopted_registries`/`adopted_rx` entry came from.
    adopted_shards: Vec<usize>,
    takeover_samples: Vec<f64>,
}

/// What one [`ShardState::run_pass`] left behind, telling the reactor which
/// follow-up events to arm.
pub(super) struct PassOutcome {
    /// Every uplink handle is gone and nothing is queued: the state can be
    /// finalized with [`ShardState::finish`].
    pub(super) done: bool,
    /// Every uplink handle is gone (shutdown drain in progress).
    pub(super) disconnected: bool,
    /// The scheduler still holds queued jobs — re-wake immediately so the
    /// next batch runs without waiting for new traffic.
    pub(super) backlog: bool,
    /// `NeedFrame` requests sent this pass, each wanting a retry timer.
    pub(super) need_frames: Vec<(StreamId, usize)>,
}

impl<T: Teacher> ShardState<T> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        shard: ServeShard<T>,
        rx: crossbeam::channel::Receiver<Envelope>,
        registry: Registry,
        pool_config: PoolConfig,
        shard_index: usize,
        loads: ShardLoads,
        placements: Placements,
        board: Arc<FailoverBoard>,
        replicas: Option<Arc<ReplicaStore>>,
    ) -> Self {
        ShardState {
            shard_index,
            pool_config,
            shard,
            rx,
            registry,
            loads,
            placements,
            scheduler: FairScheduler::new(pool_config.quantum),
            downlinks: HashMap::new(),
            meters: HashMap::new(),
            streams: HashMap::new(),
            final_checkpoints: HashMap::new(),
            awaiting: HashMap::new(),
            wait_samples: Vec::new(),
            disconnected: false,
            need_frames_sent: Vec::new(),
            board,
            replicas,
            batches_processed: 0,
            torn_jobs: Vec::new(),
            adopted_rx: Vec::new(),
            adopted_registries: Vec::new(),
            adopted_shards: Vec::new(),
            takeover_samples: Vec::new(),
        }
    }

    /// Drain every envelope currently sitting in the uplink without
    /// blocking. `Empty` only means "no more traffic right now";
    /// `Disconnected` means every uplink handle is gone and the shard should
    /// flush its backlog and exit.
    fn drain_uplink(&mut self, incoming: &mut Vec<Envelope>) {
        // Dead shards' uplinks keep receiving from clients that loaded the
        // route before the takeover flipped it; as their adopter we drain
        // those queues for the rest of the pool's life — and *before* our
        // own: a client sends to one route at a time, so whatever it left in
        // an adopted uplink (a `Register` that raced the death, say) is
        // older than anything it has put in ours since the flip. This is the
        // only way an envelope reaches a shard other than the one its stream
        // was placed on, and it lands on the shard that now holds the
        // session or its connect-time registry entry, so nothing is ever
        // forwarded or deferred.
        for rx in &self.adopted_rx {
            while let Ok(envelope) = rx.try_recv() {
                incoming.push(envelope);
            }
        }
        // Only *our* uplink decides `disconnected` — an adopted channel
        // closing just means its last client left.
        loop {
            match self.rx.try_recv() {
                Ok(envelope) => incoming.push(envelope),
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
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
            ClientToServer::Register | ClientToServer::RegisterCaps { .. } => {
                let supports_delta = matches!(
                    envelope.tagged.message,
                    ClientToServer::RegisterCaps {
                        supports_delta: true
                    }
                );
                let mut link = locked(&self.registry).remove(&stream_id);
                if link.is_none() {
                    // A Register that raced its shard's death lands here
                    // via the adopted uplink; the connect-time entry still
                    // sits in the dead shard's registry. Serve it — and
                    // re-home the connect-time load credit.
                    for (slot, registry) in self.adopted_registries.iter().enumerate() {
                        if let Some(found) = locked(registry).remove(&stream_id) {
                            self.loads[self.adopted_shards[slot]].fetch_sub(1, Ordering::SeqCst);
                            self.loads[self.shard_index].fetch_add(1, Ordering::SeqCst);
                            link = Some(found);
                            break;
                        }
                    }
                }
                let Some(link) = link else {
                    // Register without a connect-time registry entry —
                    // counted instead of silently ignored.
                    self.shard.stats.unknown_registers += 1;
                    return Ok(());
                };
                let initial = self.shard.register(stream_id, link.frames, supports_delta);
                // Delta-negotiated streams get the initial checkpoint inside
                // a `WeightPayload::Full` envelope — always applicable, and
                // it seeds the client's digest for later deltas.
                let encoded = if supports_delta {
                    Bytes::from(WeightPayload::encode_full(&initial))
                } else {
                    initial.encode()
                };
                let payload = Payload::with_data(encoded);
                let bytes = payload.bytes;
                deliver(
                    &mut self.shard.stats,
                    &link.downlink,
                    bytes,
                    ServerToClient::InitialStudent { payload },
                );
                self.downlinks.insert(stream_id, link.downlink);
                // The registration-time checkpoint is the replica's
                // baseline: from here on the stream is recoverable.
                self.publish_replicas(&[stream_id]);
            }
            ClientToServer::KeyFrame {
                frame_index,
                payload: _,
            } => {
                // Unservable jobs are refused at the door with an explicit
                // ack instead of being silently filtered later. (An
                // *evicted* frame is not unservable — its index is still
                // known and its content recoverable.)
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
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::Dropped {
                                frame_index,
                                reason,
                            },
                        );
                    }
                    return Ok(());
                }
                // Admission control: per-stream in-flight cap. Jobs parked
                // for a frame re-share still hold their slots.
                let parked = self
                    .awaiting
                    .get(&stream_id)
                    .map_or(0, |m| m.values().map(Vec::len).sum());
                if self.scheduler.queued_for(stream_id) + parked >= self.pool_config.max_in_flight {
                    self.shard.stats.throttled += 1;
                    note_throttle(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            &mut self.shard.stats,
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::Throttle { frame_index },
                        );
                    }
                    return Ok(());
                }
                self.scheduler
                    .push(stream_id, frame_index, envelope.enqueued_at);
            }
            ClientToServer::ReShare {
                frame_index,
                payload: _,
            } => {
                // Restore evicted content and resume the parked job with its
                // original arrival time, so its reported wait covers the
                // whole recovery round trip.
                let restored = match envelope.frame {
                    Some(frame) if frame.index == frame_index => {
                        self.shard.reshare(stream_id, frame)
                    }
                    _ => false,
                };
                if restored {
                    if let Some(jobs) = self
                        .awaiting
                        .get_mut(&stream_id)
                        .and_then(|m| m.remove(&frame_index))
                    {
                        for job in jobs {
                            self.scheduler.push(stream_id, frame_index, job.enqueued_at);
                        }
                    }
                    // An unsolicited re-share just refreshed the cache.
                    return Ok(());
                }
                // No session, an index that was never shared, or a
                // content-less re-share: the parked jobs (if any) can never
                // be served — ack each explicitly, never silently.
                let reason = if self.shard.has_stream(stream_id) {
                    DropReason::UnknownFrame
                } else {
                    DropReason::UnknownStream
                };
                let stranded = self
                    .awaiting
                    .get_mut(&stream_id)
                    .and_then(|m| m.remove(&frame_index))
                    .map_or(1, |jobs| jobs.len());
                for _ in 0..stranded {
                    self.shard.stats.dropped_jobs += 1;
                    note_drop(&mut self.streams, &mut self.meters, stream_id);
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            &mut self.shard.stats,
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::Dropped {
                                frame_index,
                                reason,
                            },
                        );
                    }
                }
            }
            ClientToServer::Shutdown => {
                // Flush the stream's still-queued key frames so its last
                // updates are not lost, then retire the session.
                let remaining = self.scheduler.remove_stream(stream_id);
                for chunk in remaining.chunks(self.pool_config.max_batch) {
                    // The flush's updates need no replica refresh: the
                    // session retires (and its replica is dropped) below.
                    self.process_scheduled(chunk, false)?;
                }
                // Jobs still parked for a re-share can never be served now —
                // ack them before the session's stats freeze.
                if let Some(parked) = self.awaiting.remove(&stream_id) {
                    for (frame_index, jobs) in parked {
                        for _job in jobs {
                            self.shard.stats.dropped_jobs += 1;
                            note_drop(&mut self.streams, &mut self.meters, stream_id);
                            if let Some(downlink) = self.downlinks.get(&stream_id) {
                                deliver(
                                    &mut self.shard.stats,
                                    downlink,
                                    MESSAGE_OVERHEAD_BYTES,
                                    ServerToClient::Dropped {
                                        frame_index,
                                        reason: DropReason::UnknownFrame,
                                    },
                                );
                            }
                        }
                    }
                }
                if let Some((checkpoint, stream_stats)) = retire(
                    &mut self.shard,
                    stream_id,
                    &mut self.meters,
                    &self.loads,
                    self.shard_index,
                ) {
                    self.streams.insert(stream_id, stream_stats);
                    self.final_checkpoints.insert(stream_id, checkpoint);
                }
                // A retired stream has nothing left to fail over.
                if let Some(store) = &self.replicas {
                    store.remove(self.shard_index, stream_id);
                }
                // The downlink stays open so late key frames of this stream
                // still receive an explicit Dropped ack.
            }
        }
        Ok(())
    }

    /// Run one fair co-scheduled batch through the shard and route every
    /// answer to its stream's downlink: each update as soon as its key
    /// frame is distilled (through the [`Emitter`]), then the drop acks and
    /// `NeedFrame` recovery requests. Jobs whose frame content was evicted
    /// are parked in `awaiting` rather than counted — their wait keeps
    /// running until they are actually served after the re-share. Every
    /// *newly sent* `NeedFrame` request is appended to `need_frames_sent` so
    /// the reactor can arm a retry timer for it.
    ///
    /// While the batch runs, `torn_jobs` holds the jobs not yet answered: if
    /// the pass dies mid-batch, the standby drop-acks exactly those.
    fn process_scheduled(&mut self, batch: &[ScheduledJob], replicate: bool) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let jobs: Vec<ShardJob> = batch.iter().map(|s| s.job).collect();
        self.torn_jobs = batch.to_vec();
        let Unserved {
            dropped,
            needs_frame,
        } = self.shard.process_batch_into(
            &jobs,
            &mut Emitter {
                batch,
                started,
                downlinks: &self.downlinks,
                meters: &mut self.meters,
                wait_samples: &mut self.wait_samples,
                unanswered: &mut self.torn_jobs,
                replicate: self
                    .replicas
                    .as_deref()
                    .filter(|_| replicate)
                    .map(|store| (store, self.shard_index)),
                scheduler: &self.scheduler,
            },
        )?;
        for job in needs_frame {
            let Some(at) = self.torn_jobs.iter().position(|s| s.job == job) else {
                unreachable!("a parked job was scheduled in this batch")
            };
            let scheduled = self.torn_jobs.swap_remove(at);
            let waiting = self
                .awaiting
                .entry(job.stream_id)
                .or_default()
                .entry(job.frame_index)
                .or_default();
            // One NeedFrame per missing frame, not per waiting job: the
            // first park requests the content, later jobs for the same
            // index just join the queue behind that outstanding request
            // (a duplicate request would only buy a duplicate full-frame
            // upload).
            let request_content = waiting.is_empty();
            waiting.push(scheduled);
            if request_content {
                if let Some(downlink) = self.downlinks.get(&job.stream_id) {
                    deliver(
                        &mut self.shard.stats,
                        downlink,
                        MESSAGE_OVERHEAD_BYTES,
                        ServerToClient::NeedFrame {
                            frame_index: job.frame_index,
                        },
                    );
                }
                self.need_frames_sent.push((job.stream_id, job.frame_index));
            }
        }
        for (job, reason) in dropped {
            self.meters.entry(job.stream_id).or_default().dropped += 1;
            if let Some(downlink) = self.downlinks.get(&job.stream_id) {
                deliver(
                    &mut self.shard.stats,
                    downlink,
                    MESSAGE_OVERHEAD_BYTES,
                    ServerToClient::Dropped {
                        frame_index: job.frame_index,
                        reason,
                    },
                );
            }
        }
        self.torn_jobs.clear();
        self.shard.stats.busy_time += started.elapsed();
        Ok(())
    }

    /// One fair co-scheduled batch per pass; the reactor re-dispatches the
    /// shard between batches so new arrivals join the next scheduling round.
    fn process_one_batch(&mut self) -> Result<()> {
        // Injected kill: fires only while work is pending, so the crash
        // always has observable consequences. A clean kill panics *before*
        // the scheduler drain (every queued job survives in the carcass); a
        // torn kill drains the batch first and leaves it in `torn_jobs` —
        // in flight, nothing answered — so exactly those jobs are genuinely
        // lost and the standby must drop-ack them with
        // `DropReason::ShardFailed`.
        let plan = self.pool_config.fault_plan;
        if plan.kill_due(self.shard_index, self.batches_processed) && !self.scheduler.is_empty() {
            if plan.torn_kill {
                self.torn_jobs = self.scheduler.next_batch(self.pool_config.max_batch);
            }
            panic!(
                "fault injection (seed {}): shard {} killed at batch {}",
                plan.seed, self.shard_index, self.batches_processed
            );
        }
        let batch = self.scheduler.next_batch(self.pool_config.max_batch);
        if batch.is_empty() {
            return Ok(());
        }
        self.process_scheduled(&batch, true)?;
        self.batches_processed += 1;
        // Sample the copy-on-write memory split once per batch: pointer
        // compares per tensor, far off the per-frame fast path, and a batch
        // is exactly when private storage can grow (optimizer writes).
        let memory = self.shard.memory_profile();
        let stats = &mut self.shard.stats;
        stats.session_bytes_shared = memory.shared_bytes;
        stats.session_bytes_private = memory.private_bytes;
        stats.session_bytes_private_peak =
            stats.session_bytes_private_peak.max(memory.private_bytes);
        Ok(())
    }

    /// (Re-)publish the checkpoint replicas of streams that just registered
    /// or were just adopted; a stream a batch advanced is re-published by
    /// the batch's [`Emitter`].
    fn publish_replicas(&mut self, streams: &[StreamId]) {
        let Some(store) = self.replicas.clone() else {
            return;
        };
        for &stream_id in streams {
            if let Some(replica) = self.shard.session_replica(stream_id) {
                publish_replica(
                    &store,
                    self.shard_index,
                    stream_id,
                    replica,
                    self.scheduler.deficit_of(stream_id),
                    &mut self.shard.stats,
                );
            }
        }
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

    /// One non-blocking pass of the shard state machine: failover tick,
    /// uplink drain, envelope handlers, one co-scheduled batch. This is the
    /// reactor's dispatch unit.
    pub(super) fn run_pass(&mut self, failover: &FailoverShared<T>) -> Result<PassOutcome> {
        self.shard.stats.poll_wakeups += 1;
        self.need_frames_sent.clear();
        // After the clear, never before: a takeover pushes NeedFrame
        // re-requests that this pass's outcome must carry out.
        self.failover_tick(failover)?;
        let mut incoming: Vec<Envelope> = Vec::new();
        self.drain_uplink(&mut incoming);
        if incoming.is_empty() && self.scheduler.is_empty() && self.disconnected {
            return Ok(PassOutcome {
                done: true,
                disconnected: true,
                backlog: false,
                need_frames: Vec::new(),
            });
        }
        for envelope in incoming {
            self.on_frame(envelope)?;
        }
        self.process_one_batch()?;
        self.note_idle_streams();
        Ok(PassOutcome {
            done: false,
            disconnected: self.disconnected,
            backlog: !self.scheduler.is_empty(),
            need_frames: std::mem::take(&mut self.need_frames_sent),
        })
    }

    /// A `NeedFrame` retry timer fired: if the job is still parked (the
    /// re-share never arrived — e.g. the original request was lost), ask the
    /// client again. Returns whether the shard is still waiting, i.e.
    /// whether the caller should re-arm the timer.
    pub(super) fn on_need_frame_retry(&mut self, stream_id: StreamId, frame_index: usize) -> bool {
        self.shard.stats.timer_fires += 1;
        self.shard.stats.events_dispatched += 1;
        let still_waiting = self
            .awaiting
            .get(&stream_id)
            .is_some_and(|m| m.contains_key(&frame_index));
        if still_waiting {
            if let Some(downlink) = self.downlinks.get(&stream_id) {
                deliver(
                    &mut self.shard.stats,
                    downlink,
                    MESSAGE_OVERHEAD_BYTES,
                    ServerToClient::NeedFrame { frame_index },
                );
            }
        }
        still_waiting
    }

    /// The exit protocol: ack whatever can never be served now, retire every
    /// remaining session, and assemble the shard's final output.
    pub(super) fn finish(mut self) -> ShardOutput {
        // The clients are gone, so re-shares for parked jobs can never
        // arrive: ack and count them instead of letting them vanish.
        let parked: Vec<(StreamId, usize)> = self
            .awaiting
            .iter()
            .flat_map(|(stream, indices)| {
                indices
                    .iter()
                    .flat_map(move |(index, jobs)| jobs.iter().map(move |_| (*stream, *index)))
            })
            .collect();
        for (stream_id, frame_index) in parked {
            self.shard.stats.dropped_jobs += 1;
            note_drop(&mut self.streams, &mut self.meters, stream_id);
            if let Some(downlink) = self.downlinks.get(&stream_id) {
                deliver(
                    &mut self.shard.stats,
                    downlink,
                    MESSAGE_OVERHEAD_BYTES,
                    ServerToClient::Dropped {
                        frame_index,
                        reason: DropReason::UnknownFrame,
                    },
                );
            }
        }
        self.awaiting.clear();
        // Clients that vanished without Shutdown still get their sessions
        // retired so their checkpoints and counters are reported. (The
        // backlog is already drained: the reactor only finishes a shard
        // once its scheduler is empty.)
        for stream_id in self.shard.session_ids() {
            if let Some((checkpoint, stream_stats)) = retire(
                &mut self.shard,
                stream_id,
                &mut self.meters,
                &self.loads,
                self.shard_index,
            ) {
                self.streams.insert(stream_id, stream_stats);
                self.final_checkpoints.insert(stream_id, checkpoint);
            }
            if let Some(store) = &self.replicas {
                store.remove(self.shard_index, stream_id);
            }
        }
        carcass_output(self)
    }
}

/// Assemble a shard's final [`ShardOutput`] from its state machine. This is
/// both the tail of the clean exit ([`ShardState::finish`]) and the whole
/// of the post-mortem path — a standby files the dead shard's report from
/// its carcass, so shard-indexed reports stay complete under failover.
fn carcass_output<T: Teacher>(state: ShardState<T>) -> ShardOutput {
    ShardOutput {
        shard: state.shard_index,
        stats: state.shard.stats(),
        streams: state.streams,
        final_checkpoints: state.final_checkpoints,
        wait_samples: state.wait_samples,
        takeover_samples: state.takeover_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShadowTutorConfig;
    use st_nn::student::{StudentConfig, StudentNet};
    use st_teacher::OracleTeacher;
    use st_video::dataset::tiny_stream;
    use st_video::SceneKind;

    /// A one-shard state machine with nothing connected to it.
    fn lone_state() -> ShardState<OracleTeacher> {
        let shard = ServeShard::new(
            ShadowTutorConfig::paper(),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            OracleTeacher::perfect(5),
            0.013,
        );
        let (_uplink, rx) = crossbeam::channel::unbounded();
        ShardState::new(
            shard,
            rx,
            Arc::new(Mutex::new(HashMap::new())),
            PoolConfig::with_shards(1),
            0,
            Arc::new(vec![AtomicUsize::new(0)]),
            Arc::new(Mutex::new(HashMap::new())),
            Arc::new(FailoverBoard::new(1, false)),
            None,
        )
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
        state.process_scheduled(&batch, true).unwrap();
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
        // Every job of the batch was answered: nothing is left for a standby
        // to drop-ack.
        assert!(state.torn_jobs.is_empty());
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

    #[test]
    fn an_adopted_uplink_is_drained_ahead_of_the_adopters_own() {
        // Shard 1 has adopted dead shard 0. Stream 7's `Register` raced the
        // death and still sits in shard 0's uplink; the key frame its client
        // sent after the routing flip sits in shard 1's own. One pass must
        // see them in the order they were sent — the key frame is served,
        // not refused as an unknown stream.
        let frames = tiny_stream(SceneKind::People, 503, 1);
        let envelope = |message| Envelope {
            tagged: StreamTagged::new(7, message),
            enqueued_at: Instant::now(),
            frame: None,
        };
        let (dead_uplink, dead_rx) = crossbeam::channel::unbounded();
        let (own_uplink, own_rx) = crossbeam::channel::unbounded();
        let (down_tx, down_rx) = crossbeam::channel::unbounded();
        let dead_registry: Registry = Arc::new(Mutex::new(HashMap::from([(
            7,
            StreamLink {
                downlink: Downlink {
                    tx: down_tx,
                    waker: None,
                    wire: Arc::new(WireMeter::default()),
                },
                frames: FrameStore::from_frames(&frames, None),
            },
        )])));
        assert!(dead_uplink.send(envelope(ClientToServer::Register)).is_ok());
        assert!(own_uplink
            .send(envelope(ClientToServer::KeyFrame {
                frame_index: frames[0].index,
                payload: Payload::sized(frames[0].raw_rgb_bytes()),
            }))
            .is_ok());
        let mut state = lone_state();
        state.shard_index = 1;
        state.board = Arc::new(FailoverBoard::new(2, false));
        state.rx = own_rx;
        state.loads = Arc::new(vec![AtomicUsize::new(1), AtomicUsize::new(0)]);
        state.adopted_rx.push(dead_rx);
        state.adopted_registries.push(dead_registry);
        state.adopted_shards.push(0);
        let failover = FailoverShared {
            states: Vec::new(),
            board: Arc::clone(&state.board),
            replicas: None,
        };
        let outcome = state.run_pass(&failover).unwrap();
        assert!(!outcome.done && !outcome.backlog);
        let stats = state.shard.stats();
        assert_eq!((stats.key_frames, stats.dropped_jobs), (1, 0));
        let answers: Vec<ServerToClient> =
            std::iter::from_fn(|| down_rx.try_recv().ok().map(|(_, msg)| msg)).collect();
        assert!(
            matches!(
                answers[..],
                [
                    ServerToClient::InitialStudent { .. },
                    ServerToClient::StudentUpdate { .. }
                ]
            ),
            "{answers:?}"
        );
        // The connect-time load credit followed the stream to its adopter.
        let loads: Vec<usize> = state
            .loads
            .iter()
            .map(|l| l.load(Ordering::SeqCst))
            .collect();
        assert_eq!(loads, [0, 1]);
    }
}
