//! Chaos end-to-end tests: kill one of four shards mid-run under 8×-skewed
//! load and assert the shard recovers in place — every stream finishes,
//! takeover latency stays under the [`FailoverModel`] bound, lost frames are
//! drop-acked with [`DropReason::ShardFailed`], and (for a clean kill) the
//! recovered streams' distillation matches a fault-free run bit for bit.
//!
//! Everything here is deterministic: the kill comes from a seeded
//! [`FaultPlan`] threaded through `PoolConfig`, not from aborting threads,
//! and every shard runs the *same-seeded* perfect oracle. A perfect
//! oracle's labels are pure in the frame (ground truth, no rng influence),
//! so a stream's update trajectory depends only on its own key-frame
//! sequence — not on which shard served it or how batches were composed —
//! which is what makes the bit-for-bit comparison meaningful.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::runtime::live::{run_live_multi, StreamSpec};
use shadowtutor::serve::{FaultPlan, PoolConfig, PoolError, PoolStats, ServerPool, StreamClient};
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient, StreamId, TransportError, Wire};
use st_nn::delta::WeightPayload;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::{OracleTeacher, Teacher};
use st_video::dataset::{tiny_stream, Resolution};
use st_video::{CameraMotion, Frame, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

/// Pinned the way CI pins `ST_CHECK_SEED`: the chaos smoke step runs this
/// exact schedule.
const FAULT_SEED: u64 = 42;
const TEACHER_SEED: u64 = 9001;
const SHARDS: usize = 4;
const STREAMS: usize = 8;
/// The hot stream sends 8× the cold streams' single key frame.
const HOT_KEY_FRAMES: usize = 8;
const DEAD_SHARD: usize = 1;

/// Worst-case takeover latency for an in-place recovery: an analytic
/// bound, not a forecast.
///
/// The recovery (see `docs/ARCHITECTURE.md`, "Failure model") runs on the
/// reactor worker that caught the dying pass, at once and under the guard
/// it already holds, so nothing has to notice the death: there is no
/// detection tick. It has two sequential components, each with a modelled
/// worst case:
///
/// 1. **Drain** — bringing home the items the dying pass left out on the
///    crew, waiting for the lanes that still run them: at most the rest of
///    one batch pass, bounded by `pass_cost`.
/// 2. **Resync** — drop-acking what is still unanswered, marking each
///    stream owed its weights and counting the recovery: a fixed
///    amount of pointer work (`recover_cost`) plus a per-stream share
///    (`cost_per_stream`).
///
/// [`FailoverModel::takeover_bound`] adds them up. The chaos tests assert
/// the pool's measured takeover latency stays under it, so a regression
/// that, say, defers the recovery to a later pass or serializes it behind
/// an extra lock shows up as a bound violation rather than an unexplained
/// slowdown.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FailoverModel {
    /// Worst-case cost of the batch the crew's lanes may still be
    /// distilling when the shard dies, in seconds (a batched teacher
    /// forward plus its distillation steps).
    pass_cost: f64,
    /// Fixed recovery overhead in seconds: drop-acking the unanswered jobs
    /// and counting the recovery.
    recover_cost: f64,
    /// Per-stream recovery cost in seconds: marking the stream owed its
    /// weights.
    cost_per_stream: f64,
}

impl FailoverModel {
    /// Defaults matching the live pool: a teacher-forward-sized pass and
    /// generous fixed costs. `pass_cost` should be raised to the measured
    /// batch cost when the teacher is not the paper's.
    fn paper_default() -> FailoverModel {
        FailoverModel {
            pass_cost: 0.100,
            recover_cost: 0.010,
            cost_per_stream: 0.005,
        }
    }

    /// Worst-case delay between a pass's death and the shard's recovery of
    /// `streams` streams being done — the quantity the pool reports as
    /// takeover latency.
    fn takeover_bound(&self, streams: usize) -> f64 {
        self.pass_cost + self.recover_cost + streams as f64 * self.cost_per_stream
    }
}

#[test]
fn bound_is_monotonic_in_streams() {
    let m = FailoverModel::paper_default();
    assert!(m.takeover_bound(0) >= m.pass_cost);
    assert!(m.takeover_bound(8) > m.takeover_bound(1));
    let delta = m.takeover_bound(9) - m.takeover_bound(8);
    assert!((delta - m.cost_per_stream).abs() < 1e-12);
}

#[test]
fn paper_default_is_sub_second_for_small_pools() {
    // The chaos e2e carries 8 streams across a recovery at most; the bound
    // must stay well under a second or "bounded takeover" means nothing.
    let m = FailoverModel::paper_default();
    assert!(m.takeover_bound(8) < 0.5, "{}", m.takeover_bound(8));
}

fn chaos_pool_config(fault_plan: FaultPlan) -> PoolConfig {
    PoolConfig {
        shards: SHARDS,
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

#[derive(Debug, Default)]
struct StreamOutcome {
    /// The `InitialStudent` payload (so delta runs can seed a client-side
    /// student exactly the way the live runtime does).
    initial: Option<Payload>,
    /// Every `StudentUpdate` in arrival order (the full message, so the
    /// bit-for-bit comparison covers metric, steps and payload bytes).
    updates: Vec<ServerToClient>,
    drops: Vec<(usize, DropReason)>,
}

/// Pump one stream until every sent key frame is acked (update or drop).
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
                // Caught mid-recovery: the recovered shard's next pass
                // serves the stream, so keep waiting.
                continue;
            }
            Err(err) => panic!("stream {} transport error: {err:?}", client.stream_id()),
        };
        match msg {
            update @ ServerToClient::StudentUpdate { .. } => outcome.updates.push(update),
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

/// Send `frame` as a key frame on `client`'s stream.
fn send_key_frame(client: &mut StreamClient, frame: &Frame) -> Result<(), TransportError> {
    let payload = Payload::sized(frame.raw_rgb_bytes());
    let bytes = payload.bytes;
    client.send(
        ClientToServer::KeyFrame {
            frame_index: frame.index,
            payload,
        },
        bytes,
    )
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
    // A stream lives on shard `id % shards`: streams {1, 5} land on the
    // doomed shard 1.
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
            send_key_frame(client, frame).unwrap();
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

/// The streams whose shard, `id % shards`, is the killed one.
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
    // A clean kill fires before the batch drain: every queued job stays
    // queued across the recovery, so nothing may be dropped anywhere.
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
    // The recovery carries every stream the dead shard owned, and only
    // those.
    assert_eq!(
        report.streams_adopted,
        doomed_streams().len(),
        "the recovery must carry exactly the dead shard's streams: {report:?}"
    );
    assert_eq!(report.frames_lost_on_failover, 0);
    // The pool's weight store holds the interned template, and the
    // copy-on-write sessions still share their frozen front-end with it.
    assert!(report.store_resident_bytes > 0);
    assert!(report.session_bytes_shared > 0);
    // Takeover latency is bounded by the analytic model. `pass_cost` is
    // raised from the paper default to a debug-build-sized batch pass; the
    // other terms are the model's own.
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
    // Bit-for-bit: the recovered streams' distillation (metric, step count,
    // encoded weight payload, frame order) must equal a fault-free run's.
    let (clean, clean_stats) = run_chaos(chaos_pool_config(FaultPlan::none()));
    assert_eq!(clean_stats.dropped_jobs(), 0);
    let clean_report = clean_stats.snapshot();
    assert_eq!(clean_report.failovers, 0);
    // No takeover ran, so the p99 of an empty sample is 0 (not NaN).
    assert_eq!(clean_report.takeover_latency_p99_ms, 0.0);
    for (id, clean_outcome) in &clean {
        assert_eq!(
            faulted[id].updates, clean_outcome.updates,
            "stream {id} diverged from the fault-free run after the recovery"
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
    // the counts add up, and no frame shows up on both sides — the recovery
    // drop-acks exactly the jobs the dying pass had not answered.
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
/// distill crew, so the dying shard's batches — before and after its
/// recovery — are distilled by helpers as well as by the worker.
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
            "stream {id} diverged from the fault-free run after the recovery"
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

/// `n` fixed-camera frames at 128×96: sixteen times a tiny frame's pixels,
/// so a key frame of theirs takes many times a tiny one's distillation.
fn medium_stream(scene: SceneKind, seed: u64, n: usize) -> Vec<Frame> {
    let (width, height) = Resolution::Medium.dims();
    let category = VideoCategory {
        camera: CameraMotion::Fixed,
        scene,
    };
    VideoGenerator::new(VideoConfig::for_category(category, width, height, seed))
        .unwrap()
        .take_frames(n)
}

/// The crew pool with batches of two: a shard's first batch cannot take a
/// stream's second key frame beside two streams' first.
fn kill_away_pool_config(fault_plan: FaultPlan) -> PoolConfig {
    PoolConfig {
        max_batch: 2,
        ..crew_pool_config(fault_plan)
    }
}

/// The crew pool killed at the start of its second batch on the doomed
/// shard, while the first batch's second item may still be out on a lane.
/// Stream 0 (shard 0) sends one medium key frame first, which holds the
/// pool's one reactor worker while streams 1 and 5 (both on the doomed
/// shard) queue theirs: tiny ones on stream 1, then a medium one on stream
/// 5. So the doomed shard's first batch is stream 1's first key frame and
/// stream 5's: the worker distills the tiny one, a lane the medium one. The
/// worker's next pass starts a batch for stream 1's second key frame — and
/// the kill fires there, before the lane is done. Returns every sending
/// stream's outcome and the pool's stats.
fn run_kill_with_an_item_away(
    fault_plan: FaultPlan,
) -> (HashMap<StreamId, StreamOutcome>, PoolStats) {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        kill_away_pool_config(fault_plan),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(TEACHER_SEED),
    )
    .unwrap();
    let sent: HashMap<StreamId, Vec<Frame>> = [
        (0, medium_stream(SceneKind::Street, 90, 1)),
        (1, tiny_stream(SceneKind::People, 91, 3)),
        (5, medium_stream(SceneKind::Animals, 95, 1)),
    ]
    .into_iter()
    .collect();
    let mut clients: Vec<StreamClient> = (0..STREAMS as StreamId)
        .map(|id| {
            let frames = sent.get(&id).cloned().unwrap_or_default();
            pool.connect(id, &frames).unwrap()
        })
        .collect();
    for client in &mut clients {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    }
    for id in [0, 1, 5] {
        for frame in &sent[&id] {
            send_key_frame(&mut clients[id as usize], frame).unwrap();
        }
    }
    let mut outcomes = HashMap::new();
    for id in [0, 1, 5] {
        outcomes.insert(id, drive_stream(&mut clients[id as usize], &sent[&id]));
    }
    for client in &mut clients {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    (outcomes, pool.join().unwrap())
}

#[test]
fn a_kill_with_a_crew_item_away_relays_its_answer_bit_for_bit() {
    let (clean, clean_stats) = run_kill_with_an_item_away(FaultPlan::none());
    assert_eq!(clean_stats.total_key_frames(), 5);
    assert_eq!(clean_stats.snapshot().failovers, 0);
    // The process's lanes are shared with every other test running in it,
    // so the doomed shard's first batch may find them busy and its worker
    // then distills both key frames itself. Run again until a lane took
    // the medium one (on a host with a core to spare), holding every run to
    // the same accounting.
    let crewed = kill_away_pool_config(FaultPlan::none()).crew_helpers() > 0;
    for attempt in 0.. {
        let (faulted, stats) =
            run_kill_with_an_item_away(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 1));
        // The recovery brought the away item home and relayed its answer:
        // every key frame was answered once, none drop-acked, none lost.
        assert_eq!(stats.total_key_frames(), 5);
        assert_eq!(stats.dropped_jobs(), 0);
        let report = stats.snapshot();
        assert_eq!(report.failovers, 1);
        assert_eq!(report.streams_adopted, doomed_streams().len());
        assert_eq!(report.frames_lost_on_failover, 0);
        for (id, clean_outcome) in &clean {
            assert!(faulted[id].drops.is_empty(), "stream {id} saw drops");
            assert_eq!(
                faulted[id].updates, clean_outcome.updates,
                "stream {id} diverged from the fault-free run"
            );
        }
        // The final weights too: the away item's update is in stream 5's.
        for id in [1, 5] {
            assert_eq!(
                stats.final_checkpoints[&id].encode(),
                clean_stats.final_checkpoints[&id].encode(),
                "stream {id} ended with other weights than the fault-free run"
            );
        }
        if !crewed || stats.jobs_offloaded() > 0 {
            break;
        }
        assert!(
            attempt < 5,
            "no lane took the doomed shard's batch in 6 runs"
        );
    }
}

#[test]
fn reactor_pool_survives_a_shard_kill() {
    // Same schedule with fewer workers than shards (the other tests run one
    // worker per shard): 4 shard machines on 2 reactor threads, so the
    // worker that catches the dying pass and recovers the shard is also the
    // one other shards are waiting on.
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

/// The doomed shard's two streams only, nothing else connected: each sends
/// one key frame and waits for its update, so both sessions have trained
/// (their optimizers hold moments and a step count) before shard
/// [`DEAD_SHARD`] is killed under the three key frames each sends next.
fn run_trained_then_killed(fault_plan: FaultPlan) -> (HashMap<StreamId, StreamOutcome>, PoolStats) {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        chaos_pool_config(fault_plan),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(TEACHER_SEED),
    )
    .unwrap();
    let streams: Vec<(StreamId, Vec<Frame>)> = doomed_streams()
        .into_iter()
        .map(|id| (id, tiny_stream(SceneKind::People, 70 + id, 4)))
        .collect();
    let mut clients: Vec<StreamClient> = streams
        .iter()
        .map(|(id, frames)| pool.connect(*id, frames).unwrap())
        .collect();
    for client in &mut clients {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    }
    let mut outcomes: HashMap<StreamId, StreamOutcome> = HashMap::new();
    for (client, (id, frames)) in clients.iter_mut().zip(&streams) {
        send_key_frame(client, &frames[0]).unwrap();
        let first = drive_stream(client, &frames[..1]);
        let [ServerToClient::StudentUpdate { distill_steps, .. }] = first.updates[..] else {
            panic!("stream {id}: first key frame not served: {:?}", first.drops);
        };
        assert!(distill_steps > 0, "stream {id} never trained");
        outcomes.insert(*id, first);
    }
    for (client, (_, frames)) in clients.iter_mut().zip(&streams) {
        for frame in &frames[1..] {
            send_key_frame(client, frame).unwrap();
        }
    }
    for (client, (id, frames)) in clients.iter_mut().zip(&streams) {
        let rest = drive_stream(client, &frames[1..]);
        let outcome = outcomes.get_mut(id).unwrap();
        outcome.updates.extend(rest.updates);
        outcome.drops.extend(rest.drops);
    }
    for client in &mut clients {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    (outcomes, pool.join().unwrap())
}

#[test]
fn a_takeover_after_training_stays_bit_for_bit() {
    // Every other bit-for-bit referee kills at batch 0, before any session
    // has trained. Here the kill lands after two batches, so a recovery
    // that rebuilt the sessions from their checkpoints would lose their
    // optimizers' moments and step counts, and diverge.
    let (faulted, stats) = run_trained_then_killed(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 2));
    let report = stats.snapshot();
    assert_eq!(report.failovers, 1, "{report:?}");
    assert_eq!(report.streams_adopted, doomed_streams().len(), "{report:?}");
    assert_eq!(stats.dropped_jobs(), 0);
    let (clean, clean_stats) = run_trained_then_killed(FaultPlan::none());
    assert_eq!(clean_stats.snapshot().failovers, 0);
    for (id, clean_outcome) in &clean {
        assert!(faulted[id].drops.is_empty(), "stream {id} saw drops");
        assert_eq!(clean_outcome.updates.len(), 4);
        assert_eq!(
            faulted[id].updates, clean_outcome.updates,
            "stream {id} diverged from the fault-free run after the recovery"
        );
    }
}

#[test]
fn traffic_sent_after_a_recovery_needs_no_re_dial() {
    // Every other test here pipelines its key frames before the kill lands.
    // This one sends the doomed shard's stream a single key frame, whose
    // batch kills the shard; once the recovered shard has answered it, the
    // same client sends the rest. Nothing re-dials: the shard's own uplink
    // and wakes, which outlive the death, must carry them.
    const POST_RECOVERY: usize = 4;
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        chaos_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0)),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(TEACHER_SEED),
    )
    .unwrap();
    let streams: Vec<Vec<Frame>> = (0..STREAMS)
        .map(|id| {
            let n = if id == DEAD_SHARD {
                1 + POST_RECOVERY
            } else {
                1
            };
            tiny_stream(SceneKind::People, 70 + id as u64, n)
        })
        .collect();
    let mut clients: Vec<StreamClient> = streams
        .iter()
        .enumerate()
        .map(|(id, frames)| pool.connect(id as StreamId, frames).unwrap())
        .collect();
    // As in `run_chaos_with`, stream `DEAD_SHARD` lives on the doomed
    // shard, and only it ever sends a key frame.
    for client in &mut clients {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    }
    let client = &mut clients[DEAD_SHARD];
    let frames = &streams[DEAD_SHARD];
    send_key_frame(client, &frames[0]).unwrap();
    // The shard dies in the batch holding this key frame, so its answer can
    // only come after the recovery: the recovery is over once it arrives.
    let first = drive_stream(client, &frames[..1]);
    assert_eq!(first.updates.len(), 1, "drops: {:?}", first.drops);
    for frame in &frames[1..] {
        send_key_frame(client, frame)
            .unwrap_or_else(|err| panic!("send after the recovery failed: {err:?}"));
    }
    let rest = drive_stream(client, &frames[1..]);
    assert!(rest.drops.is_empty(), "drops: {:?}", rest.drops);
    assert_eq!(rest.updates.len(), POST_RECOVERY);
    for client in &mut clients {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    let stats = pool.join().unwrap();
    let report = stats.snapshot();
    assert!(report.failovers >= 1, "no failover recorded: {report:?}");
    assert!(report.streams_adopted >= 1);
    assert_eq!(stats.dropped_jobs(), 0);
    // Every key frame the stream sent, before the death and after it, was
    // answered by its recovered shard, and by no other.
    for shard in &report.shards {
        let expected = if shard.shard == DEAD_SHARD {
            frames.len()
        } else {
            0
        };
        assert_eq!(shard.key_frames, expected, "{report:?}");
    }
}

#[test]
fn a_stream_connected_after_its_shard_recovered_is_served_there() {
    // Stream `DEAD_SHARD`'s one key frame kills its shard; once the
    // recovered shard has answered it, stream `DEAD_SHARD + SHARDS` — whose
    // shard is the same — connects. Its `Register` goes to that shard's
    // uplink like all its traffic, and the recovered shard must serve all
    // of it.
    const LATE_KEY_FRAMES: usize = 4;
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        chaos_pool_config(FaultPlan::kill(FAULT_SEED, DEAD_SHARD, 0)),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(TEACHER_SEED),
    )
    .unwrap();
    let doomed = DEAD_SHARD as StreamId;
    let doomed_frames = tiny_stream(SceneKind::People, 70 + doomed, 1);
    let mut first = pool.connect(doomed, &doomed_frames).unwrap();
    let initial = first.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    send_key_frame(&mut first, &doomed_frames[0]).unwrap();
    // The shard dies in the batch holding this key frame, so its answer can
    // only come after the recovery: the recovery is over once it arrives.
    let answered = drive_stream(&mut first, &doomed_frames);
    assert_eq!(answered.updates.len(), 1, "drops: {:?}", answered.drops);

    let late = (DEAD_SHARD + SHARDS) as StreamId;
    let late_frames = tiny_stream(SceneKind::People, 70 + late, LATE_KEY_FRAMES);
    let mut client = pool.connect(late, &late_frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(
        matches!(initial, ServerToClient::InitialStudent { .. }),
        "expected InitialStudent, got {initial:?}"
    );
    for frame in &late_frames {
        send_key_frame(&mut client, frame).unwrap();
    }
    let outcome = drive_stream(&mut client, &late_frames);
    assert!(outcome.drops.is_empty(), "drops: {:?}", outcome.drops);
    assert_eq!(outcome.updates.len(), LATE_KEY_FRAMES);
    for client in [&mut first, &mut client] {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop((first, client));
    let stats = pool.join().unwrap();
    let report = stats.snapshot();
    assert_eq!(report.failovers, 1, "{report:?}");
    // Only the stream registered before the death was carried across the
    // recovery; the late one registered after it.
    assert_eq!(report.streams_adopted, 1, "{report:?}");
    assert_eq!(stats.dropped_jobs(), 0);
    assert_eq!(stats.streams[&late].key_frames, LATE_KEY_FRAMES);
    // Every key frame of both streams was distilled by the recovered shard,
    // and by no other.
    for shard in &report.shards {
        let expected = if shard.shard == DEAD_SHARD {
            1 + LATE_KEY_FRAMES
        } else {
            0
        };
        assert_eq!(shard.key_frames, expected, "{report:?}");
    }
}

#[test]
fn a_one_shard_pool_recovers_from_a_clean_kill_bit_for_bit() {
    // A shard recovers in place, so a lone shard can replicate: killed at
    // its first batch, it serves every stream on exactly as a fault-free
    // run of the same pool does.
    let one_shard = |fault_plan| PoolConfig {
        shards: 1,
        ..chaos_pool_config(fault_plan)
    };
    let (faulted, stats) = run_chaos(one_shard(FaultPlan::kill(FAULT_SEED, 0, 0)));
    assert_eq!(stats.total_key_frames(), total_sent());
    assert_eq!(stats.dropped_jobs(), 0);
    let report = stats.snapshot();
    assert_eq!(report.failovers, 1, "{report:?}");
    assert_eq!(report.streams_adopted, STREAMS, "{report:?}");
    assert_eq!(report.frames_lost_on_failover, 0);
    let (clean, clean_stats) = run_chaos(one_shard(FaultPlan::none()));
    assert_eq!(clean_stats.snapshot().failovers, 0);
    for (id, clean_outcome) in &clean {
        assert!(faulted[id].drops.is_empty(), "stream {id} saw drops");
        assert_eq!(
            faulted[id].updates, clean_outcome.updates,
            "stream {id} diverged from the fault-free run after the recovery"
        );
        assert_eq!(
            stats.final_checkpoints[id].encode(),
            clean_stats.final_checkpoints[id].encode(),
            "stream {id} ended with other weights than the fault-free run"
        );
    }
}

/// The paper's oracle, or — on the shard it was built for — a teacher
/// whose every forward panics.
struct PanickingTeacher {
    inner: OracleTeacher,
    panics: bool,
}

impl Teacher for PanickingTeacher {
    fn pseudo_label(&mut self, frame: &Frame) -> shadowtutor::Result<Vec<usize>> {
        assert!(!self.panics, "teacher forward failed");
        self.inner.pseudo_label(frame)
    }

    fn inference_latency(&self) -> f64 {
        self.inner.inference_latency()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

#[test]
fn a_shard_that_dies_again_after_its_recovery_fails_join() {
    // Shard 1's teacher panics on every forward. The shard recovers from
    // its first death, which drop-acks the dying batch's key frame; its
    // second death is not recovered: the shard's state goes with it, the
    // pool stops, and `join` names the shard. A shard that recovered from
    // every death would answer every key frame with a drop and never fail.
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            replication: true,
            ..PoolConfig::with_shards(2)
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |shard| PanickingTeacher {
            inner: OracleTeacher::perfect(TEACHER_SEED),
            panics: shard == 1,
        },
    )
    .unwrap();
    let frames = tiny_stream(SceneKind::People, 71, 4);
    let mut client = pool.connect(1, &frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    // One key frame at a time, until the pool stops answering.
    let mut answers = Vec::new();
    for frame in &frames {
        if send_key_frame(&mut client, frame).is_err() {
            break;
        }
        match client.recv_timeout(Duration::from_secs(60)) {
            Ok(answer) => answers.push(answer),
            Err(TransportError::Disconnected) => break,
            Err(err) => panic!("key frame {} got no answer: {err:?}", frame.index),
        }
    }
    assert!(
        matches!(
            answers[..],
            [ServerToClient::Dropped {
                frame_index,
                reason: DropReason::ShardFailed,
            }] if frame_index == frames[0].index
        ),
        "{answers:?}"
    );
    drop(client);
    let (joined_tx, joined_rx) = mpsc::channel();
    std::thread::spawn(move || joined_tx.send(pool.join()).is_ok());
    let joined = joined_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("join did not return within 60 s");
    match joined {
        Err(PoolError::WorkerFailed { shard, panic_msg }) => {
            assert_eq!(shard, 1, "the death was pinned on the wrong shard");
            assert!(
                panic_msg.contains("teacher forward failed"),
                "payload lost: {panic_msg}"
            );
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}

#[test]
fn live_clients_serve_every_key_frame_across_a_takeover() {
    // The live runtime's clients never re-share a frame, so a stream is
    // served after its shard's recovery only if the recovered shard still
    // holds the frames the stream shared at connect. Shard 0 dies at its
    // second batch; every key frame
    // either stream sends, before the kill and after it, must still be
    // distilled: none parks until shutdown, none is dropped.
    let streams: Vec<StreamSpec> = (0..2)
        .map(|id| StreamSpec {
            stream_id: id,
            label: format!("stream {id}"),
            frames: tiny_stream(SceneKind::People, 70 + id, 24),
        })
        .collect();
    let outcome = run_live_multi(
        ShadowTutorConfig::paper(),
        streams,
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        PoolConfig {
            replication: true,
            fault_plan: FaultPlan::kill(FAULT_SEED, 0, 1),
            ..PoolConfig::with_shards(2)
        },
        |_| OracleTeacher::perfect(TEACHER_SEED),
    )
    .unwrap();
    let report = outcome.pool.snapshot();
    assert_eq!(report.failovers, 1, "{report:?}");
    assert_eq!(report.streams_adopted, 1, "{report:?}");
    assert_eq!(outcome.pool.dropped_jobs(), 0, "{report:?}");
    // `record.key_frames` counts only the updates applied before the last
    // frame; the frame records say what the client actually sent.
    for stream in &outcome.streams {
        let sent = stream
            .record
            .frame_records
            .iter()
            .filter(|frame| frame.is_key_frame)
            .count();
        assert_eq!(
            stream.server_key_frames, sent,
            "{}: key frames sent and distilled differ",
            stream.record.label
        );
    }
}

/// What one answer did to the client's student.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// No weights: the client keeps what it holds.
    Bare,
    /// Weights that changed the client's student.
    Changed,
    /// Weights the client already held.
    Same,
}

/// Client-side replay of one delta-pool stream, mirroring the live
/// runtime's apply path: an answer carries the student in a `Full`
/// envelope or nothing. A `Delta` envelope, which the pool never sends,
/// panics.
struct DeltaTracker {
    student: StudentNet,
    answers: Vec<Answer>,
}

impl DeltaTracker {
    /// Decode one `Full` envelope.
    fn full(stream: StreamId, data: &[u8]) -> WeightSnapshot {
        match <WeightPayload as Wire>::decode(&mut &data[..]) {
            Ok(WeightPayload::Full(snapshot)) => snapshot,
            Ok(WeightPayload::Delta(_)) => panic!("stream {stream}: the pool sent a delta"),
            Err(err) => panic!("stream {stream}: bad envelope: {err:?}"),
        }
    }

    /// Seed from the `InitialStudent` payload, a `Full` envelope.
    fn new(stream: StreamId, initial: &Payload) -> Self {
        let data = initial.data.as_ref().expect("live payloads carry bytes");
        let mut student = StudentNet::new(StudentConfig::tiny()).unwrap();
        student.freeze = ShadowTutorConfig::paper().mode.freeze_point();
        Self::full(stream, data).apply(&mut student).unwrap();
        DeltaTracker {
            student,
            answers: Vec::new(),
        }
    }

    /// Apply one `StudentUpdate` payload, noting what it did.
    fn apply(&mut self, stream: StreamId, payload: &Payload) {
        let answer = match &payload.data {
            None => Answer::Bare,
            Some(data) => {
                let before = self.final_state();
                Self::full(stream, data).apply(&mut self.student).unwrap();
                if self.final_state() == before {
                    Answer::Same
                } else {
                    Answer::Changed
                }
            }
        };
        self.answers.push(answer);
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

    fn bare(&self) -> usize {
        self.answers.iter().filter(|a| **a == Answer::Bare).count()
    }

    fn final_state(&mut self) -> bytes::Bytes {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full).encode()
    }
}

/// The skewed schedule with the hot stream moved onto the doomed shard, so
/// the recovered session has updates left to send *after* the answer that
/// re-syncs it.
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
fn failover_resyncs_a_recovered_stream_with_its_first_answer() {
    // Nothing proves what a client applied of its dying shard's answers, so
    // a stream the recovery carried gets its weights on its first answer
    // after it, changed or not. After that, as in a fault-free run, an
    // answer carries weights exactly when Algorithm 1 changed the student.
    // The hot stream lives on the doomed shard, which dies before its first
    // batch, so every one of its answers comes after the recovery.
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
    let clean_config = PoolConfig {
        delta_updates: true,
        ..chaos_pool_config(FaultPlan::none())
    };
    let (clean, clean_stats) = run_chaos_with(clean_config, resync_stream_frames());
    let clean_report = clean_stats.snapshot();
    assert_eq!(clean_report.failovers, 0);

    // Replay every stream client-side; `DeltaTracker` panics on a delta.
    let replay = |outcomes: &HashMap<StreamId, StreamOutcome>| -> HashMap<StreamId, DeltaTracker> {
        outcomes
            .iter()
            .map(|(id, outcome)| (*id, DeltaTracker::replay(*id, outcome)))
            .collect()
    };
    let mut trackers = replay(&faulted);
    let mut clean_trackers = replay(&clean);

    let hot = DEAD_SHARD as StreamId;
    let answers = &trackers[&hot].answers;
    assert_eq!(answers.len(), HOT_KEY_FRAMES);
    assert_ne!(
        answers[0],
        Answer::Bare,
        "the recovered hot stream's first answer carried no weights"
    );
    // Later, an answer carries weights only when they change the student,
    // and the runs agree on which answers those are.
    assert!(
        !answers[1..].contains(&Answer::Same),
        "an unchanged answer carried weights: {answers:?}"
    );
    assert_eq!(answers[1..], clean_trackers[&hot].answers[1..]);
    for tracker in clean_trackers.values() {
        assert!(
            !tracker.answers.contains(&Answer::Same),
            "{:?}",
            tracker.answers
        );
    }
    // Client- and server-side counts of answers without weights agree.
    for (report, trackers) in [(&report, &trackers), (&clean_report, &clean_trackers)] {
        let bare: usize = trackers.values().map(DeltaTracker::bare).sum();
        assert_eq!(bare, report.unchanged_updates_sent, "{report:?}");
    }

    // Bit-for-bit: the weights each client reconstructs through the
    // kill-and-re-sync path equal a fault-free delta run's.
    for (id, clean_tracker) in &mut clean_trackers {
        let faulted_tracker = trackers.get_mut(id).unwrap();
        assert_eq!(
            faulted_tracker.final_state(),
            clean_tracker.final_state(),
            "stream {id} reconstructed different weights through the failover re-sync"
        );
    }
}
