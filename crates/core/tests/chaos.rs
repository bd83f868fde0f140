//! Chaos end-to-end tests: kill one of four shards mid-run under 8×-skewed
//! load and assert the pool recovers — every stream finishes, takeover
//! latency stays under the `st_sim::FailoverModel` bound, lost frames are
//! drop-acked with [`DropReason::ShardFailed`], and (for a clean kill) the
//! adopted streams' distillation matches a fault-free run bit for bit.
//!
//! Everything here is deterministic: the kill comes from a seeded
//! [`FaultPlan`] threaded through `PoolConfig`, not from aborting threads,
//! and every shard runs the *same-seeded* perfect oracle. A perfect
//! oracle's labels are pure in the frame (ground truth, no rng influence),
//! so a stream's update trajectory depends only on its own key-frame
//! sequence — not on which shard served it or how batches were composed —
//! which is what makes the bit-for-bit comparison meaningful.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use shadowtutor::config::{PlacementPolicy, ShadowTutorConfig};
use shadowtutor::serve::{FaultPlan, PoolConfig, PoolStats, ServerPool, StreamClient};
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient, StreamId, TransportError, Wire};
use st_nn::delta::{CheckpointDigest, WeightPayload};
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::{StudentConfig, StudentNet};
use st_sim::FailoverModel;
use st_teacher::OracleTeacher;
use st_video::dataset::tiny_stream;
use st_video::{Frame, SceneKind};

/// Pinned the way CI pins `ST_CHECK_SEED`: the chaos smoke step runs this
/// exact schedule.
const FAULT_SEED: u64 = 42;
const TEACHER_SEED: u64 = 9001;
const SHARDS: usize = 4;
const STREAMS: usize = 8;
/// The hot stream sends 8× the cold streams' single key frame.
const HOT_KEY_FRAMES: usize = 8;
const DEAD_SHARD: usize = 1;

fn chaos_pool_config(fault_plan: FaultPlan) -> PoolConfig {
    PoolConfig {
        shards: SHARDS,
        placement: PlacementPolicy::LeastLoaded,
        replication: true,
        fault_plan,
        // High enough that the pipelined hot stream is never throttled.
        max_in_flight: 64,
        ..PoolConfig::default_pool()
    }
}

/// Per-stream key-frame sequences: stream 0 hot, streams 1..8 cold.
fn stream_frames() -> Vec<(StreamId, Vec<Frame>)> {
    (0..STREAMS)
        .map(|id| {
            let n = if id == 0 { HOT_KEY_FRAMES } else { 1 };
            (
                id as StreamId,
                tiny_stream(SceneKind::People, 70 + id as u64, n),
            )
        })
        .collect()
}

fn total_sent() -> usize {
    HOT_KEY_FRAMES + (STREAMS - 1)
}

/// Chunk bytes of the template's frozen front-end stages — the bytes every
/// replica publish must deduplicate against the template the pool interned
/// into its weight store at spawn.
fn frozen_template_bytes() -> usize {
    let mut template = StudentNet::new(StudentConfig::tiny()).unwrap();
    template.freeze = ShadowTutorConfig::paper().mode.freeze_point();
    let chunk_bytes = |snapshot: WeightSnapshot| -> usize {
        snapshot
            .entry_chunks()
            .iter()
            .map(|(_, chunk)| chunk.len())
            .sum()
    };
    let full = chunk_bytes(WeightSnapshot::capture(&mut template, SnapshotScope::Full));
    let trainable = chunk_bytes(WeightSnapshot::capture(
        &mut template,
        SnapshotScope::TrainableOnly,
    ));
    full - trainable
}

#[derive(Debug, Default)]
struct StreamOutcome {
    /// The `InitialStudent` payload (so delta runs can seed a client-side
    /// digest exactly the way the live runtime does).
    initial: Option<Payload>,
    /// Every `StudentUpdate` in arrival order (the full message, so the
    /// bit-for-bit comparison covers metric, steps and payload bytes).
    updates: Vec<ServerToClient>,
    drops: Vec<(usize, DropReason)>,
    reshares: usize,
}

/// Pump one stream until every sent key frame is acked (update or drop),
/// answering `NeedFrame` with a re-share — the recovery path adopted
/// streams take for frame content the replica intentionally does not carry.
fn drive_stream(client: &mut StreamClient, frames: &[Frame]) -> StreamOutcome {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut outcome = StreamOutcome::default();
    while outcome.updates.len() + outcome.drops.len() < frames.len() {
        let msg = match client.recv_timeout(Duration::from_millis(250)) {
            Ok(msg) => msg,
            Err(TransportError::Timeout) => {
                assert!(
                    Instant::now() < deadline,
                    "stream {} starved: {} updates, {} drops of {} sent",
                    client.stream_id(),
                    outcome.updates.len(),
                    outcome.drops.len(),
                    frames.len()
                );
                // Caught mid-takeover: re-dial. `Err(Timeout)` means the
                // standby has not finished adopting yet — keep waiting.
                match client.reconnect() {
                    Ok(()) | Err(TransportError::Timeout) => continue,
                    Err(err) => panic!("stream {} cannot reconnect: {err:?}", client.stream_id()),
                }
            }
            Err(err) => panic!("stream {} transport error: {err:?}", client.stream_id()),
        };
        match msg {
            update @ ServerToClient::StudentUpdate { .. } => outcome.updates.push(update),
            ServerToClient::NeedFrame { frame_index } => {
                let frame = frames
                    .iter()
                    .find(|f| f.index == frame_index)
                    .expect("NeedFrame for a frame this stream never sent");
                client.reshare(frame).expect("re-share failed");
                outcome.reshares += 1;
            }
            ServerToClient::Dropped {
                frame_index,
                reason,
            } => outcome.drops.push((frame_index, reason)),
            other => panic!(
                "stream {} got unexpected message: {other:?}",
                client.stream_id()
            ),
        }
    }
    outcome
}

/// Run the full skewed workload against a pool with the given config and
/// return per-stream outcomes plus the pool stats.
fn run_chaos(pool_config: PoolConfig) -> (HashMap<StreamId, StreamOutcome>, PoolStats) {
    run_chaos_with(pool_config, stream_frames())
}

/// [`run_chaos`] with a caller-chosen key-frame schedule.
fn run_chaos_with(
    pool_config: PoolConfig,
    streams: Vec<(StreamId, Vec<Frame>)>,
) -> (HashMap<StreamId, StreamOutcome>, PoolStats) {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        pool_config,
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        // Same seed on every shard, deliberately: updates must not depend
        // on which shard hosts the session (see module doc).
        |_| OracleTeacher::perfect(TEACHER_SEED),
    )
    .unwrap();
    let mut clients: Vec<StreamClient> = streams
        .iter()
        .map(|(id, frames)| pool.connect(*id, frames).unwrap())
        .collect();
    // Least-loaded placement with equal loads at every connect is
    // round-robin — the layout static-modulo placement computes from the
    // ids: streams {1, 5} land on the doomed shard 1, whose buddy (the
    // adopter) is shard 2.
    assert_eq!(pool.shard_loads(), vec![2; SHARDS]);
    let mut initials: Vec<Payload> = Vec::new();
    for client in &mut clients {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        let ServerToClient::InitialStudent { payload } = initial else {
            panic!("expected InitialStudent, got {initial:?}");
        };
        initials.push(payload);
    }
    // Pipeline every key frame up front so the kill lands under real load.
    for (client, (_, frames)) in clients.iter_mut().zip(&streams) {
        for frame in frames {
            let payload = Payload::sized(frame.raw_rgb_bytes());
            let bytes = payload.bytes;
            client
                .send(
                    ClientToServer::KeyFrame {
                        frame_index: frame.index,
                        payload,
                    },
                    bytes,
                )
                .unwrap();
        }
    }
    let mut outcomes = HashMap::new();
    for ((client, (id, frames)), initial) in clients.iter_mut().zip(&streams).zip(initials) {
        let mut outcome = drive_stream(client, frames);
        outcome.initial = Some(initial);
        outcomes.insert(*id, outcome);
    }
    for client in &mut clients {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    let stats = pool.join().unwrap();
    (outcomes, stats)
}

/// The streams round-robin placement put on the killed shard.
fn doomed_streams() -> Vec<StreamId> {
    (0..STREAMS as StreamId)
        .filter(|id| (*id as usize) % SHARDS == DEAD_SHARD)
        .collect()
}

#[test]
fn clean_kill_recovers_every_stream_bit_for_bit() {
    let (faulted, stats) = run_chaos(chaos_pool_config(FaultPlan::kill(
        FAULT_SEED, DEAD_SHARD, 0,
    )));
    // A clean kill fires before the batch drain: every queued job survives
    // in the carcass, so nothing may be dropped anywhere.
    assert_eq!(stats.total_key_frames(), total_sent());
    assert_eq!(stats.dropped_jobs(), 0);
    for (id, outcome) in &faulted {
        assert!(
            outcome.drops.is_empty(),
            "stream {id} saw drops on a clean kill: {:?}",
            outcome.drops
        );
    }
    let report = stats.snapshot();
    assert_eq!(report.shards.len(), SHARDS);
    assert!(report.failovers >= 1, "no failover recorded: {report:?}");
    // The buddy adopts every stream the dead shard owned, and only those.
    assert_eq!(
        report.streams_adopted,
        doomed_streams().len(),
        "the buddy must adopt exactly the dead shard's streams: {report:?}"
    );
    assert_eq!(report.frames_lost_on_failover, 0);
    // Replication really ran, and the frozen partial-distillation stages
    // deduplicated by content hash across publishes.
    assert!(report.replica_bytes_published > 0);
    assert!(report.replica_bytes_shared > 0);
    // The replicas live in the pool's unified weight store — the same one
    // holding the interned template and the copy-on-write sessions' shared
    // front-end — so residency and session sharing must both be visible.
    assert!(report.store_resident_bytes > 0);
    assert!(report.session_bytes_shared > 0);
    // The store-backed replica index turns replication's cost sublinear:
    // the template is pinned at spawn, so *every* publish (one per accepted
    // update, plus one per registration) deduplicates at least the frozen
    // front-end's chunk bytes instead of materializing them again.
    let frozen = frozen_template_bytes();
    assert!(frozen > 0, "partial distillation must freeze something");
    assert!(
        report.replica_bytes_shared >= total_sent() * frozen,
        "replica publishes shared {} bytes; {} update publishes must each dedup \
         the {frozen}-byte frozen front-end",
        report.replica_bytes_shared,
        total_sent()
    );
    // Takeover latency is bounded by the analytic model. `pass_cost` is
    // raised from the paper default to a debug-build-sized batch pass; the
    // detection/adoption/restore terms are the model's own.
    let bound = FailoverModel {
        pass_cost: 2.0,
        ..FailoverModel::paper_default()
    }
    .takeover_bound(doomed_streams().len());
    let takeover = stats.takeover_latency_p99_secs();
    assert!(takeover > 0.0, "no takeover latency sample recorded");
    assert!(
        takeover < bound,
        "takeover took {takeover:.3}s, model bound is {bound:.3}s"
    );
    // Bit-for-bit: the adopted streams' distillation (metric, step count,
    // encoded weight payload, frame order) must equal a fault-free run's.
    let (clean, clean_stats) = run_chaos(chaos_pool_config(FaultPlan::none()));
    assert_eq!(clean_stats.dropped_jobs(), 0);
    assert_eq!(clean_stats.snapshot().failovers, 0);
    for (id, clean_outcome) in &clean {
        assert_eq!(
            faulted[id].updates, clean_outcome.updates,
            "stream {id} diverged from the fault-free run after adoption"
        );
    }
}

#[test]
fn torn_kill_drop_acks_lost_jobs_with_shard_failed() {
    assert_torn_kill_accounts_for_every_job(
        chaos_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0).torn()),
        stream_frames(),
    );
}

/// Run `streams` against a pool whose fault plan tears a kill out of shard
/// [`DEAD_SHARD`], and hold the failover to its accounting.
fn assert_torn_kill_accounts_for_every_job(
    pool_config: PoolConfig,
    streams: Vec<(StreamId, Vec<Frame>)>,
) {
    let total_sent: usize = streams.iter().map(|(_, frames)| frames.len()).sum();
    let (outcomes, stats) = run_chaos_with(pool_config, streams.clone());
    let updates: usize = outcomes.values().map(|o| o.updates.len()).sum();
    let drops: usize = outcomes.values().map(|o| o.drops.len()).sum();
    // Every sent key frame was acked exactly once, one way or the other:
    // the counts add up, and no frame shows up on both sides — the standby
    // drop-acks exactly the jobs the dead shard had not answered.
    assert_eq!(updates + drops, total_sent);
    for (id, frames) in streams {
        let outcome = &outcomes[&id];
        let mut answered: Vec<usize> = outcome
            .updates
            .iter()
            .map(|update| match update {
                ServerToClient::StudentUpdate { frame_index, .. } => *frame_index,
                other => unreachable!("outcome.updates holds only updates: {other:?}"),
            })
            .chain(outcome.drops.iter().map(|(frame_index, _)| *frame_index))
            .collect();
        answered.sort_unstable();
        let mut sent: Vec<usize> = frames.iter().map(|f| f.index).collect();
        sent.sort_unstable();
        assert_eq!(
            answered, sent,
            "stream {id}: a key frame answered twice or never"
        );
    }
    assert!(drops >= 1, "a torn kill must lose the in-flight batch");
    // Every drop is the failover's, explicitly reasoned — never a silent
    // vanish or a mislabelled protocol error.
    for outcome in outcomes.values() {
        for (frame_index, reason) in &outcome.drops {
            assert_eq!(
                *reason,
                DropReason::ShardFailed,
                "frame {frame_index} dropped for the wrong reason"
            );
        }
    }
    // Only streams hosted on the dead shard can have lost frames.
    let doomed = doomed_streams();
    for (id, outcome) in &outcomes {
        if !outcome.drops.is_empty() {
            assert!(
                doomed.contains(id),
                "stream {id} was not on shard {DEAD_SHARD} but lost frames"
            );
        }
    }
    let report = stats.snapshot();
    assert!(report.failovers >= 1);
    assert_eq!(report.streams_adopted, doomed.len());
    assert_eq!(
        report.frames_lost_on_failover, drops,
        "shard accounting disagrees with client-observed drops"
    );
    assert_eq!(stats.dropped_jobs(), drops);
    assert_eq!(stats.total_key_frames() + drops, total_sent);
}

/// The chaos pool on one reactor worker: every core but one goes to the
/// distill crew, so the dying shard's batches — and its standby's — are
/// distilled by helpers as well as by the worker.
fn crew_pool_config(fault_plan: FaultPlan) -> PoolConfig {
    PoolConfig {
        reactor_threads: Some(1),
        ..chaos_pool_config(fault_plan)
    }
}

/// Four key frames on every stream: with two streams per shard, each shard
/// has a backlog on both from the second batch on, so batches of two are the
/// rule — which is what puts items on offer to the crew.
fn crew_stream_frames() -> Vec<(StreamId, Vec<Frame>)> {
    (0..STREAMS)
        .map(|id| {
            (
                id as StreamId,
                tiny_stream(SceneKind::People, 70 + id as u64, 4),
            )
        })
        .collect()
}

#[test]
fn torn_kill_with_a_crew_drop_acks_exactly_the_unanswered_jobs() {
    assert_torn_kill_accounts_for_every_job(
        crew_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0).torn()),
        crew_stream_frames(),
    );
}

#[test]
fn clean_kill_with_a_crew_matches_the_fault_free_run_bit_for_bit() {
    let sent = STREAMS * 4;
    let (faulted, stats) = run_chaos_with(
        crew_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0)),
        crew_stream_frames(),
    );
    assert_eq!(stats.total_key_frames(), sent);
    assert_eq!(stats.dropped_jobs(), 0);
    assert!(stats.snapshot().failovers >= 1);
    let (clean, clean_stats) =
        run_chaos_with(crew_pool_config(FaultPlan::none()), crew_stream_frames());
    assert_eq!(clean_stats.total_key_frames(), sent);
    assert_eq!(clean_stats.dropped_jobs(), 0);
    assert_eq!(clean_stats.snapshot().failovers, 0);
    for (id, clean_outcome) in &clean {
        assert!(faulted[id].drops.is_empty(), "stream {id} saw drops");
        assert_eq!(
            faulted[id].updates, clean_outcome.updates,
            "stream {id} diverged from the fault-free run after adoption"
        );
    }
    // On a host with a core to spare the helpers distilled some of those
    // batches of two — and that changed no answer above.
    if crew_pool_config(FaultPlan::none()).crew_helpers() > 0 {
        assert!(clean_stats.jobs_offloaded() > 0, "the crew never ran");
        assert!(
            stats.jobs_offloaded() > 0,
            "the crew never ran under the kill"
        );
    }
}

#[test]
fn reactor_pool_survives_a_shard_kill() {
    // Same schedule with fewer workers than shards (the other tests run one
    // worker per shard): 4 shard machines on 2 reactor threads, so the
    // worker that catches the dying pass is also the one other shards —
    // possibly the standby itself — are waiting on.
    let (outcomes, stats) = run_chaos(PoolConfig {
        reactor_threads: Some(2),
        ..chaos_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0))
    });
    assert_eq!(stats.total_key_frames(), total_sent());
    assert_eq!(stats.dropped_jobs(), 0);
    for outcome in outcomes.values() {
        assert!(outcome.drops.is_empty());
    }
    let report = stats.snapshot();
    assert!(report.failovers >= 1);
    assert_eq!(report.streams_adopted, doomed_streams().len());
}

#[test]
fn static_modulo_layout_survives_a_shard_kill_bit_for_bit() {
    // The bit-reproducible layout (`stream_id % shards`, no connect-order
    // dependence) under failover: the dead shard's streams are adopted by
    // its buddy, nothing is dropped, and every stream's updates equal the
    // fault-free run's under the same placement.
    let static_modulo = |fault_plan| PoolConfig {
        placement: PlacementPolicy::StaticModulo,
        ..chaos_pool_config(fault_plan)
    };
    let (faulted, stats) = run_chaos(static_modulo(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0)));
    assert_eq!(stats.total_key_frames(), total_sent());
    assert_eq!(stats.dropped_jobs(), 0);
    let report = stats.snapshot();
    assert!(report.failovers >= 1, "no failover recorded: {report:?}");
    assert_eq!(report.streams_adopted, doomed_streams().len());
    assert_eq!(report.frames_lost_on_failover, 0);
    let (clean, clean_stats) = run_chaos(static_modulo(FaultPlan::none()));
    assert_eq!(clean_stats.snapshot().failovers, 0);
    for (id, clean_outcome) in &clean {
        assert!(faulted[id].drops.is_empty(), "stream {id} saw drops");
        assert_eq!(
            faulted[id].updates, clean_outcome.updates,
            "stream {id} diverged from the fault-free run after adoption"
        );
    }
}

/// Client-side delta state for one stream, mirroring the live runtime's
/// apply path: decode the envelope, apply it to a local student, and keep
/// the digest patched in lockstep with the server's per-stream track.
struct DeltaTracker {
    student: StudentNet,
    digest: CheckpointDigest,
    fulls: usize,
    deltas: usize,
}

impl DeltaTracker {
    /// Seed from the `InitialStudent` payload, which a delta-negotiated
    /// stream always receives as a full-snapshot envelope.
    fn new(stream: StreamId, initial: &Payload) -> Self {
        let data = initial.data.as_ref().expect("live payloads carry bytes");
        let WeightPayload::Full(snapshot) = <WeightPayload as Wire>::decode(&mut &data[..])
            .unwrap_or_else(|err| panic!("stream {stream}: bad initial envelope: {err:?}"))
        else {
            panic!("stream {stream}: initial checkpoint arrived as a delta");
        };
        let mut student = StudentNet::new(StudentConfig::tiny()).unwrap();
        student.freeze = ShadowTutorConfig::paper().mode.freeze_point();
        snapshot.apply(&mut student).unwrap();
        DeltaTracker {
            student,
            digest: CheckpointDigest::of(&snapshot),
            fulls: 0,
            deltas: 0,
        }
    }

    /// Apply one `StudentUpdate` payload. Every delta must pass its base
    /// check — an unappliable delta after failover is exactly the bug the
    /// full-snapshot re-sync exists to prevent.
    fn apply(&mut self, stream: StreamId, payload: &Payload) {
        let data = payload.data.as_ref().expect("live payloads carry bytes");
        let envelope = <WeightPayload as Wire>::decode(&mut &data[..])
            .unwrap_or_else(|err| panic!("stream {stream}: bad update envelope: {err:?}"));
        match envelope {
            WeightPayload::Full(snapshot) => {
                snapshot.apply(&mut self.student).unwrap();
                self.digest.patch(&snapshot);
                self.fulls += 1;
            }
            WeightPayload::Delta(delta) => {
                delta.check_base(&self.digest, None).unwrap_or_else(|err| {
                    panic!("stream {stream}: unappliable delta after failover: {err:?}")
                });
                let (sparse, chunks) = delta.into_parts().unwrap();
                sparse.apply(&mut self.student).unwrap();
                self.digest.patch_chunks(&chunks);
                self.deltas += 1;
            }
        }
    }

    /// Replay a whole stream outcome and return the tracker.
    fn replay(stream: StreamId, outcome: &StreamOutcome) -> Self {
        let mut tracker = DeltaTracker::new(stream, outcome.initial.as_ref().unwrap());
        for update in &outcome.updates {
            let ServerToClient::StudentUpdate { payload, .. } = update else {
                unreachable!("outcome.updates holds only StudentUpdate messages");
            };
            tracker.apply(stream, payload);
        }
        tracker
    }

    fn final_state(&mut self) -> bytes::Bytes {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full).encode()
    }
}

/// The skewed schedule with the hot stream moved onto the doomed shard, so
/// the failover-restored session has updates left to send *after* its
/// full-snapshot re-sync.
fn resync_stream_frames() -> Vec<(StreamId, Vec<Frame>)> {
    (0..STREAMS)
        .map(|id| {
            let n = if id == DEAD_SHARD { HOT_KEY_FRAMES } else { 1 };
            (
                id as StreamId,
                tiny_stream(SceneKind::People, 70 + id as u64, n),
            )
        })
        .collect()
}

#[test]
fn failover_resyncs_delta_streams_with_a_full_snapshot() {
    // A delta-negotiated stream whose shard dies must be re-synced by its
    // adopter with a full-snapshot envelope (the adopter cannot prove what
    // the client last applied) and then resume deltas — never ship a delta
    // the client's digest rejects. The hot stream lives on the doomed shard
    // this time, so it still has key frames in flight after adoption.
    let faulted_config = PoolConfig {
        delta_updates: true,
        ..chaos_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0))
    };
    let (faulted, stats) = run_chaos_with(faulted_config, resync_stream_frames());
    let report = stats.snapshot();
    assert!(report.failovers >= 1, "no failover recorded: {report:?}");
    assert_eq!(stats.dropped_jobs(), 0);
    for (id, outcome) in &faulted {
        assert!(
            outcome.drops.is_empty(),
            "stream {id} saw drops: {:?}",
            outcome.drops
        );
    }

    // Replay every stream client-side; `DeltaTracker::apply` panics on any
    // delta whose base check fails, so merely completing the replay proves
    // zero rejections.
    let mut trackers: HashMap<StreamId, DeltaTracker> = faulted
        .iter()
        .map(|(id, outcome)| (*id, DeltaTracker::replay(*id, outcome)))
        .collect();

    // The hot doomed stream re-synced exactly once and then went back to
    // deltas for every remaining update.
    let hot = &trackers[&(DEAD_SHARD as StreamId)];
    assert_eq!(
        hot.fulls, 1,
        "the adopted hot stream must re-sync with exactly one full snapshot"
    );
    assert_eq!(
        hot.deltas,
        HOT_KEY_FRAMES - 1,
        "deltas must resume after the re-sync"
    );
    // Client- and server-side envelope accounting agree, and only adopted
    // streams ever need a re-sync.
    let fulls: usize = trackers.values().map(|t| t.fulls).sum();
    let deltas: usize = trackers.values().map(|t| t.deltas).sum();
    assert_eq!(fulls, report.full_updates_sent);
    assert_eq!(deltas, report.delta_updates_sent);
    assert_eq!(fulls + deltas, total_sent());
    assert!(
        fulls <= report.streams_adopted,
        "a re-sync without an adoption: {report:?}"
    );

    // Bit-for-bit: the weights each client reconstructs through the
    // kill-and-re-sync path equal a fault-free delta run's.
    let clean_config = PoolConfig {
        delta_updates: true,
        ..chaos_pool_config(FaultPlan::none())
    };
    let (clean, clean_stats) = run_chaos_with(clean_config, resync_stream_frames());
    let clean_report = clean_stats.snapshot();
    assert_eq!(clean_report.failovers, 0);
    // Without a failover nothing ever needs a re-sync: registration seeds
    // the digest and every update ships as a delta.
    assert_eq!(clean_report.full_updates_sent, 0);
    assert_eq!(clean_report.delta_updates_sent, total_sent());
    for (id, outcome) in &clean {
        let mut clean_tracker = DeltaTracker::replay(*id, outcome);
        assert_eq!(clean_tracker.fulls, 0);
        let faulted_tracker = trackers.get_mut(id).unwrap();
        assert_eq!(
            faulted_tracker.final_state(),
            clean_tracker.final_state(),
            "stream {id} reconstructed different weights through the failover re-sync"
        );
    }
}
