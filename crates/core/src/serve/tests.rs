//! Shard-, scheduler- and pool-level tests of the serving runtime.

use super::*;
use crate::config::ShadowTutorConfig;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient, StreamId};
use st_nn::snapshot::WeightSnapshot;
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::{OracleTeacher, Teacher};
use st_video::dataset::tiny_stream as frames_for;
use st_video::{Frame, SceneKind};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn shard() -> ServeShard<OracleTeacher> {
    ServeShard::new(
        ShadowTutorConfig::paper(),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        OracleTeacher::perfect(5),
        0.013,
    )
}

fn at(offset_ms: u64) -> Instant {
    Instant::now() + Duration::from_millis(offset_ms)
}

#[test]
fn pool_config_validates_and_routes() {
    assert!(PoolConfig::default_pool().validate().is_ok());
    assert!(PoolConfig {
        shards: 0,
        ..PoolConfig::default_pool()
    }
    .validate()
    .is_err());
    assert!(PoolConfig {
        max_batch: 0,
        ..PoolConfig::default_pool()
    }
    .validate()
    .is_err());
    assert!(PoolConfig {
        max_in_flight: 0,
        ..PoolConfig::default_pool()
    }
    .validate()
    .is_err());
    assert!(PoolConfig {
        quantum: 0,
        ..PoolConfig::default_pool()
    }
    .validate()
    .is_err());
    let p = PoolConfig::with_shards(3);
    assert_eq!(p.shard_of(0), 0);
    assert_eq!(p.shard_of(4), 1);
    assert_eq!(p.shard_of(5), 2);
}

#[test]
fn replication_validates_at_any_shard_count() {
    // A shard recovers in place, so even a lone one can replicate.
    for shards in [1, 2] {
        let replicated = PoolConfig {
            replication: true,
            ..PoolConfig::with_shards(shards)
        };
        assert!(replicated.validate().is_ok());
    }
}

#[test]
fn fair_scheduler_round_robins_across_streams() {
    let mut s = FairScheduler::new(1);
    // A hot stream with a deep backlog and two cold streams with one
    // job each.
    for i in 0..6 {
        s.push(1, i, at(0));
    }
    s.push(2, 100, at(1));
    s.push(3, 200, at(2));
    assert_eq!(s.len(), 8);
    assert_eq!(s.queued_for(1), 6);
    assert_eq!(s.active_streams(), 3);
    // A batch of 3 serves every stream once — the hot stream cannot
    // monopolize the slots.
    let batch = s.next_batch(3);
    let streams: Vec<StreamId> = batch.iter().map(|j| j.job.stream_id).collect();
    assert_eq!(streams, vec![1, 2, 3]);
    // The cold streams are drained; the rest of the backlog belongs to
    // the hot stream.
    let batch = s.next_batch(3);
    assert!(batch.iter().all(|j| j.job.stream_id == 1));
    assert_eq!(s.len(), 2);
    let rest = s.next_batch(10);
    assert_eq!(rest.len(), 2);
    assert!(s.is_empty());
    // FIFO order within the stream.
    let indices: Vec<usize> = rest.iter().map(|j| j.job.frame_index).collect();
    assert_eq!(indices, vec![4, 5]);
}

#[test]
fn fair_scheduler_removal_returns_fifo_backlog() {
    let mut s = FairScheduler::new(2);
    s.push(7, 0, at(0));
    s.push(7, 1, at(1));
    s.push(8, 9, at(2));
    let removed = s.remove_stream(7);
    assert_eq!(
        removed
            .iter()
            .map(|j| j.job.frame_index)
            .collect::<Vec<_>>(),
        vec![0, 1]
    );
    assert_eq!(s.len(), 1);
    assert_eq!(s.queued_for(7), 0);
    // The ring no longer visits the removed stream.
    let batch = s.next_batch(4);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].job.stream_id, 8);
    assert!(s.remove_stream(99).is_empty());
}

#[test]
fn shard_records_measured_teacher_cost() {
    let mut s = shard();
    let people = frames_for(SceneKind::People, 91, 2);
    s.register(1, FrameStore::from_frames(&people, None), false);
    s.process_batch(&[ShardJob {
        stream_id: 1,
        frame_index: people[0].index,
    }])
    .unwrap();
    // A real forward happened, so its wall time was measured.
    assert!(s.stats().teacher_wall_time > Duration::ZERO);
    assert!(s.stats().mean_teacher_wall_secs() > 0.0);
}

#[test]
fn shard_keeps_streams_isolated() {
    let mut s = shard();
    let people = frames_for(SceneKind::People, 11, 2);
    let animals = frames_for(SceneKind::Animals, 12, 2);
    let init_a = s.register(1, FrameStore::from_frames(&people, None), false);
    let init_b = s.register(2, FrameStore::from_frames(&animals, None), false);
    // Both sessions start from the same template checkpoint.
    assert!(init_a.distance(&init_b).unwrap() < 1e-9);
    assert_eq!(s.stream_count(), 2);

    // Distill stream 1 only; stream 2's weights must not move.
    let outcome = s
        .process_batch(&[ShardJob {
            stream_id: 1,
            frame_index: people[0].index,
        }])
        .unwrap();
    assert_eq!(outcome.responses.len(), 1);
    assert!(outcome.dropped.is_empty());
    assert!(outcome.responses[0].2.outcome.steps >= 1);
    let (ckpt_b, stats_b) = s.finish(2).unwrap();
    assert_eq!(stats_b.key_frames, 0);
    assert!(ckpt_b.distance(&init_b).unwrap() < 1e-9);
    let (ckpt_a, stats_a) = s.finish(1).unwrap();
    assert_eq!(stats_a.key_frames, 1);
    assert!(ckpt_a.distance(&init_a).unwrap() > 0.0);
}

#[test]
fn duplicate_register_does_not_clobber_the_session() {
    let mut s = shard();
    let people = frames_for(SceneKind::People, 13, 2);
    s.register(1, FrameStore::from_frames(&people, None), false);
    let outcome = s
        .process_batch(&[ShardJob {
            stream_id: 1,
            frame_index: people[0].index,
        }])
        .unwrap();
    assert_eq!(outcome.responses.len(), 1);
    // A duplicate register with *empty* frames must neither reset the
    // session nor lose the pre-shared frames.
    let ckpt = s.register(1, FrameStore::from_frames(&[], None), false);
    assert!(s.has_frame(1, people[1].index), "frames clobbered");
    let (final_ckpt, stats) = s.finish(1).unwrap();
    assert_eq!(stats.key_frames, 1, "session reset by duplicate register");
    assert!(ckpt.distance(&final_ckpt).unwrap() < 1e-9);
}

/// Two streams' key frames, one job each, in one batch on a fresh shard.
fn two_stream_batch() -> (ServeShard<OracleTeacher>, BatchOutcome) {
    let mut s = shard();
    let people = frames_for(SceneKind::People, 21, 2);
    let street = frames_for(SceneKind::Street, 22, 2);
    s.register(1, FrameStore::from_frames(&people, None), false);
    s.register(2, FrameStore::from_frames(&street, None), false);
    let outcome = s
        .process_batch(&[
            ShardJob {
                stream_id: 1,
                frame_index: people[0].index,
            },
            ShardJob {
                stream_id: 2,
                frame_index: street[0].index,
            },
        ])
        .unwrap();
    (s, outcome)
}

#[test]
fn two_streams_share_one_teacher_forward() {
    let (s, outcome) = two_stream_batch();
    assert_eq!(outcome.responses.len(), 2);
    let stats = s.stats();
    assert_eq!(stats.teacher_batches, 1);
    assert_eq!(stats.key_frames, 2);
    assert_eq!(stats.max_batch_observed, 2);
}

#[test]
fn unknown_jobs_are_acked_not_silently_skipped() {
    let mut s = shard();
    let people = frames_for(SceneKind::People, 31, 1);
    s.register(1, FrameStore::from_frames(&people, None), false);
    let outcome = s
        .process_batch(&[
            ShardJob {
                stream_id: 9,
                frame_index: 0,
            }, // unknown stream
            ShardJob {
                stream_id: 1,
                frame_index: 999,
            }, // unknown frame
        ])
        .unwrap();
    assert!(outcome.responses.is_empty());
    assert_eq!(outcome.dropped.len(), 2);
    assert_eq!(outcome.dropped[0].1, DropReason::UnknownStream);
    assert_eq!(outcome.dropped[1].1, DropReason::UnknownFrame);
    assert_eq!(s.stats().teacher_batches, 0);
    // The silent-drop bug: the shard now counts every dropped job.
    assert_eq!(s.stats().dropped_jobs, 2);
    assert!(s.finish(9).is_none());
}

#[test]
fn pool_serves_two_streams_end_to_end() {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |shard| OracleTeacher::perfect(100 + shard as u64),
    )
    .unwrap();
    let streams: Vec<(StreamId, Vec<Frame>)> = vec![
        (0, frames_for(SceneKind::People, 41, 3)),
        (1, frames_for(SceneKind::Animals, 42, 3)),
    ];
    let mut clients: Vec<StreamClient> = streams
        .iter()
        .map(|(id, frames)| pool.connect(*id, frames).unwrap())
        .collect();
    for (client, (_, frames)) in clients.iter_mut().zip(&streams) {
        // Initial checkpoint arrives first.
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
        // One key frame each.
        let payload = Payload::sized(frames[0].raw_rgb_bytes());
        let bytes = payload.bytes;
        client
            .send(
                ClientToServer::KeyFrame {
                    frame_index: frames[0].index,
                    payload,
                },
                bytes,
            )
            .unwrap();
        let update = client.recv_timeout(Duration::from_secs(10)).unwrap();
        match update {
            ServerToClient::StudentUpdate {
                frame_index,
                metric,
                distill_steps,
                ..
            } => {
                assert_eq!(frame_index, frames[0].index);
                assert!((0.0..=1.0).contains(&metric));
                assert!(distill_steps <= ShadowTutorConfig::paper().max_updates);
            }
            other => panic!("expected StudentUpdate, got {other:?}"),
        }
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    let stats = pool.join().unwrap();
    assert_eq!(stats.total_key_frames(), 2);
    assert_eq!(stats.streams.len(), 2);
    assert_eq!(stats.final_checkpoints.len(), 2);
    assert!(stats.streams.values().all(|s| s.key_frames == 1));
    // Streams 0 and 1 land on different shards.
    assert!(stats.shards.iter().all(|s| s.key_frames == 1));
    // Nothing was silently lost in the clean scenario.
    assert_eq!(stats.dropped_jobs(), 0);
    assert_eq!(stats.throttled(), 0);
    // The operator report reflects the run.
    let report = stats.snapshot();
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.total_key_frames, 2);
    assert!(report.queue_p50_ms >= 0.0 && report.queue_p99_ms >= report.queue_p50_ms);
    let resident = report.store_resident_bytes + report.session_bytes_private_peak;
    assert!(resident > 0);
    assert_eq!(
        report.streams_per_gb(),
        2.0 * (1u64 << 30) as f64 / resident as f64
    );
}

#[test]
fn pool_rejects_duplicate_connect() {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 1,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(1),
    )
    .unwrap();
    let frames = frames_for(SceneKind::People, 61, 1);
    let mut client = pool.connect(5, &frames).unwrap();
    let Err(err) = pool.connect(5, &frames) else {
        panic!("duplicate connect must be rejected");
    };
    assert!(format!("{err:?}").contains("already connected"));
    // Nor is a `Register` sent past `connect` served: it carries no link,
    // so the shard only counts it.
    client.send(ClientToServer::Register, 1).unwrap();
    client.send(ClientToServer::Shutdown, 1).unwrap();
    drop(client);
    let stats = pool.join().unwrap();
    assert_eq!(stats.shards[0].unknown_registers, 1);
    assert_eq!(stats.streams.len(), 1);
}

#[test]
fn frame_store_holds_every_shared_frame() {
    let frames = frames_for(SceneKind::People, 71, 4);
    let store = FrameStore::from_frames(&frames, None);
    for frame in &frames {
        assert!(store.touch(frame.index));
        assert_eq!(store.peek(frame.index).map(|f| f.index), Some(frame.index));
    }
    // An index the stream never shared is unknown to both.
    assert!(!store.touch(999));
    assert!(store.peek(999).is_none());
    let empty = FrameStore::from_frames(&[], None);
    assert!(!empty.touch(frames[0].index) && empty.peek(frames[0].index).is_none());
}

#[test]
#[should_panic(expected = "no byte budget")]
fn frame_store_refuses_a_budget() {
    let frames = frames_for(SceneKind::People, 72, 1);
    let _ = FrameStore::from_frames(&frames, Some(1 << 20));
}

#[test]
fn migrated_session_continues_bit_for_bit() {
    // A session moved out of its shard and back in — the hand-off every
    // crew work item performs — is self-contained: distilling on shard A,
    // moving, then distilling on shard B must produce exactly the weights
    // (and counters) of never moving.
    let people = frames_for(SceneKind::People, 74, 2);
    let mut control = shard();
    control.register(1, FrameStore::from_frames(&people, None), false);
    let mut a = shard();
    a.register(1, FrameStore::from_frames(&people, None), false);
    let job0 = ShardJob {
        stream_id: 1,
        frame_index: people[0].index,
    };
    let job1 = ShardJob {
        stream_id: 1,
        frame_index: people[1].index,
    };
    control.process_batch(&[job0]).unwrap();
    a.process_batch(&[job0]).unwrap();
    // Move A → B between batches.
    let mut b = shard();
    let entry = a.evict_stream(1).expect("stream lives on A");
    assert!(!a.has_stream(1));
    b.adopt_stream(1, entry);
    control.process_batch(&[job1]).unwrap();
    b.process_batch(&[job1]).unwrap();
    let (ckpt_control, stats_control) = control.finish(1).unwrap();
    let (ckpt_b, stats_b) = b.finish(1).unwrap();
    assert!(ckpt_control.distance(&ckpt_b).unwrap() < 1e-12);
    assert_eq!(stats_control.key_frames, stats_b.key_frames);
    assert_eq!(stats_control.distill_steps, stats_b.distill_steps);
    // The work is attributed where it ran: one key frame each.
    assert_eq!(a.stats().key_frames, 1);
    assert_eq!(b.stats().key_frames, 1);
}

#[test]
fn static_modulo_placement_is_a_pure_function_of_the_id() {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |shard| OracleTeacher::perfect(400 + shard as u64),
    )
    .unwrap();
    let frames = frames_for(SceneKind::People, 63, 1);
    // Both even ids land on shard 0 even though shard 1 is empty.
    let mut a = pool.connect(0, &frames).unwrap();
    let mut b = pool.connect(2, &frames).unwrap();
    for client in [&mut a, &mut b] {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
        send_key_frame(client, &frames[0]);
        let update = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
    }
    drop((a, b));
    let stats = pool.join().unwrap();
    let key_frames: Vec<usize> = stats.shards.iter().map(|s| s.key_frames).collect();
    assert_eq!(key_frames, [2, 0]);
}

/// Spawn a pool, pipeline `key_frames` key frames per stream through
/// `streams` clients, shut down cleanly and return the final stats.
/// Shared by the reactor tests so every worker count runs a byte-identical
/// workload.
fn run_pipelined_pool(pool_config: PoolConfig, streams: usize, key_frames: usize) -> PoolStats {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        pool_config,
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |shard| OracleTeacher::perfect(500 + shard as u64),
    )
    .unwrap();
    let stream_frames: Vec<(StreamId, Vec<Frame>)> = (0..streams)
        .map(|id| {
            (
                id as StreamId,
                frames_for(SceneKind::People, 70 + id as u64, key_frames),
            )
        })
        .collect();
    let mut clients: Vec<StreamClient> = stream_frames
        .iter()
        .map(|(id, frames)| pool.connect(*id, frames).unwrap())
        .collect();
    for (client, (_, frames)) in clients.iter_mut().zip(&stream_frames) {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
        // Pipeline every key frame without waiting for updates, so the
        // server sees real per-stream backlog and batches freely.
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
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    pool.join().unwrap()
}

#[test]
fn reactor_pool_hosts_more_shards_than_threads() {
    // The decoupling the reactor exists for: 8 shards on 2 threads.
    let stats = run_pipelined_pool(
        PoolConfig {
            shards: 8,
            reactor_threads: Some(2),
            max_in_flight: 64,
            ..PoolConfig::default_pool()
        },
        8,
        2,
    );
    assert_eq!(stats.streams.len(), 8);
    assert_eq!(stats.final_checkpoints.len(), 8);
    assert_eq!(stats.total_key_frames(), 16);
    assert_eq!(stats.dropped_jobs(), 0);
    assert_eq!(stats.throttled(), 0);
    assert!(stats.streams.values().all(|s| s.key_frames == 2));
    // The reactor's own accounting made it into the operator report.
    let report = stats.snapshot();
    assert_eq!(report.shards.len(), 8);
    assert!(report.poll_wakeups > 0, "no readiness wakeups recorded");
    // Register + 2 key frames + shutdown per stream, at minimum.
    assert!(report.events_dispatched >= 8 * 4);
}

#[test]
fn reactor_distillation_is_bit_identical_to_the_shard_layer_at_every_worker_count() {
    const SHARDS: usize = 4;
    const STREAMS: usize = 8;
    const KEY_FRAMES: usize = 4;
    // The reference needs no driver at all: each shard's `ServeShard` fed
    // its streams' key frames one job at a time, in stream order — same
    // template, same per-shard teachers and same placement as
    // `run_pipelined_pool`.
    let mut reference: HashMap<StreamId, (WeightSnapshot, StreamServerStats)> = HashMap::new();
    for shard_index in 0..SHARDS {
        let mut shard = ServeShard::new(
            ShadowTutorConfig::paper(),
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            OracleTeacher::perfect(500 + shard_index as u64),
            0.013,
        );
        for id in (shard_index..STREAMS).step_by(SHARDS) {
            let stream_id = id as StreamId;
            let frames = frames_for(SceneKind::People, 70 + id as u64, KEY_FRAMES);
            shard.register(stream_id, FrameStore::from_frames(&frames, None), false);
            for frame in &frames {
                let outcome = shard
                    .process_batch(&[ShardJob {
                        stream_id,
                        frame_index: frame.index,
                    }])
                    .unwrap();
                assert_eq!(outcome.responses.len(), 1);
            }
            reference.insert(stream_id, shard.finish(stream_id).unwrap());
        }
    }
    // Live pools co-batch two streams per shard with whatever timing the
    // worker count produces — one worker per shard (`None`), every shard on
    // one worker, and two shards per worker. The distillation outcome may
    // not depend on any of it.
    for reactor_threads in [None, Some(1), Some(2)] {
        let live = run_pipelined_pool(
            PoolConfig {
                shards: SHARDS,
                reactor_threads,
                max_in_flight: 64,
                ..PoolConfig::default_pool()
            },
            STREAMS,
            KEY_FRAMES,
        );
        assert_eq!(live.total_key_frames(), STREAMS * KEY_FRAMES);
        assert_eq!(live.dropped_jobs(), 0);
        for (id, (checkpoint, stats)) in &reference {
            assert_eq!(
                live.final_checkpoints[id].encode(),
                checkpoint.encode(),
                "stream {id} diverged from the shard layer at {reactor_threads:?}"
            );
            assert_eq!(live.streams[id].key_frames, stats.key_frames);
            assert_eq!(live.streams[id].distill_steps, stats.distill_steps);
        }
    }
}

// ---------------------------------------------------------------------------
// The distill crew
// ---------------------------------------------------------------------------

use super::shard::{BatchSink, ItemEvent, ItemHook, StreamEntry};
use crate::server::KeyFrameResponse;
use st_tensor::parallel::{Crew, Lanes, Ran};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A crew of `helpers` lanes of a private lane set for directly driven
/// shards, closed (and its threads joined) by [`TestCrew::dismiss`].
struct TestCrew {
    crew: Arc<Crew>,
    lanes: Arc<Lanes>,
}

impl TestCrew {
    fn new(helper_count: usize) -> Self {
        let lanes = Lanes::new();
        let crew = Arc::new(Crew::new(Arc::clone(&lanes), helper_count));
        TestCrew { crew, lanes }
    }

    fn dismiss(self) {
        self.lanes.close();
    }
}

/// Forces the interleaving the crew tests check instead of hoping for it:
/// an item the batch's owner starts is held until some helper has started
/// an item since the last [`Rendezvous::reset`] — so every batch with two
/// or more items really does run on two threads.
#[derive(Default)]
struct Rendezvous {
    helper_started: Mutex<bool>,
    changed: Condvar,
}

impl Rendezvous {
    fn reset(&self) {
        *self.helper_started.lock().unwrap() = false;
    }

    fn on(&self, event: ItemEvent) {
        match event {
            ItemEvent::Started {
                ran: Ran::Helper, ..
            } => {
                *self.helper_started.lock().unwrap() = true;
                self.changed.notify_all();
            }
            ItemEvent::Started {
                ran: Ran::Owner, ..
            } => {
                let (started, timeout) = self
                    .changed
                    .wait_timeout_while(
                        self.helper_started.lock().unwrap(),
                        Duration::from_secs(60),
                        |started| !*started,
                    )
                    .unwrap();
                assert!(
                    *started && !timeout.timed_out(),
                    "no helper took up the batch's offer"
                );
            }
            ItemEvent::Emitted { .. } => {}
        }
    }
}

fn crew_streams(streams: usize, key_frames: usize) -> Vec<(StreamId, Vec<Frame>)> {
    const SCENES: [SceneKind; 3] = [SceneKind::People, SceneKind::Animals, SceneKind::Street];
    (0..streams)
        .map(|i| {
            (
                i as StreamId,
                frames_for(SCENES[i % SCENES.len()], 300 + i as u64, key_frames),
            )
        })
        .collect()
}

#[test]
fn crew_width_never_changes_an_answer() {
    const STREAMS: usize = 6;
    const KEY_FRAMES: usize = 12;
    /// What one response looks like from outside, exactly.
    type Answer = (usize, bytes::Bytes, u64, usize);
    struct Run {
        answers: HashMap<StreamId, Vec<Answer>>,
        checkpoints: HashMap<StreamId, bytes::Bytes>,
        stats: ShardStats,
        private_peak: usize,
    }
    let run = |helpers| -> Run {
        let crew = TestCrew::new(helpers);
        let rendezvous = Arc::new(Rendezvous::default());
        let mut shard = shard().with_crew(Arc::clone(&crew.crew));
        if helpers > 0 {
            let rendezvous = Arc::clone(&rendezvous);
            shard = shard.with_item_hook(Arc::new(move |event| rendezvous.on(event)));
        }
        let streams = crew_streams(STREAMS, KEY_FRAMES);
        for (id, frames) in &streams {
            shard.register(*id, FrameStore::from_frames(frames, None), false);
        }
        let mut answers: HashMap<StreamId, Vec<Answer>> = HashMap::new();
        let mut private_peak = 0;
        for round in 0..KEY_FRAMES {
            let jobs: Vec<ShardJob> = streams
                .iter()
                .map(|(id, frames)| ShardJob {
                    stream_id: *id,
                    frame_index: frames[round].index,
                })
                .collect();
            rendezvous.reset();
            let outcome = shard.process_batch(&jobs).unwrap();
            assert!(outcome.dropped.is_empty());
            // Whatever order the crew finished in, the outcome lists the
            // responses as they were scheduled.
            let order: Vec<(StreamId, usize)> = outcome
                .responses
                .iter()
                .map(|(id, frame, _)| (*id, *frame))
                .collect();
            let scheduled: Vec<(StreamId, usize)> =
                jobs.iter().map(|j| (j.stream_id, j.frame_index)).collect();
            assert_eq!(order, scheduled);
            for (id, frame, response) in outcome.responses {
                answers.entry(id).or_default().push((
                    frame,
                    response.update.encode(),
                    response.metric.to_bits(),
                    response.outcome.steps,
                ));
            }
            private_peak = private_peak.max(shard.memory_profile().private_bytes);
        }
        let checkpoints = streams
            .iter()
            .map(|(id, _)| (*id, shard.finish(*id).unwrap().0.encode()))
            .collect();
        let stats = shard.stats();
        crew.dismiss();
        Run {
            answers,
            checkpoints,
            stats,
            private_peak,
        }
    };
    let alone = run(0);
    assert_eq!(alone.stats.jobs_offloaded, 0);
    assert_eq!(alone.stats.key_frames, STREAMS * KEY_FRAMES);
    for helpers in [1, 3] {
        let crewed = run(helpers);
        assert_eq!(
            crewed.answers, alone.answers,
            "{helpers} helpers changed a response"
        );
        assert_eq!(
            crewed.checkpoints, alone.checkpoints,
            "{helpers} helpers changed a final checkpoint"
        );
        assert_eq!(crewed.private_peak, alone.private_peak);
        let (a, b) = (&crewed.stats, &alone.stats);
        assert_eq!(a.key_frames, b.key_frames);
        assert_eq!(a.distill_steps, b.distill_steps);
        assert_eq!(a.teacher_batches, b.teacher_batches);
        assert_eq!(a.max_batch_observed, b.max_batch_observed);
        assert_eq!(a.dropped_jobs, b.dropped_jobs);
        // The rendezvous put at least one item of every batch on a helper.
        assert!(
            a.jobs_offloaded >= KEY_FRAMES && a.jobs_offloaded < a.key_frames,
            "{helpers} helpers ran {} of {} jobs",
            a.jobs_offloaded,
            a.key_frames
        );
    }
}

/// Records what the batch's sink sees, stamped from the same counter the
/// item hook stamps its events from.
struct StampedSink {
    clock: Arc<AtomicUsize>,
    served: Vec<(usize, StreamId, usize)>,
    settled: Vec<(usize, StreamId)>,
}

impl BatchSink for StampedSink {
    fn served(
        &mut self,
        _stats: &mut ShardStats,
        _index: usize,
        job: ShardJob,
        _response: KeyFrameResponse,
    ) {
        let at = self.clock.fetch_add(1, Ordering::SeqCst);
        self.served.push((at, job.stream_id, job.frame_index));
    }

    fn settled(&mut self, _: &mut ShardStats, stream_id: StreamId, _: &mut StreamEntry) {
        let at = self.clock.fetch_add(1, Ordering::SeqCst);
        self.settled.push((at, stream_id));
    }
}

#[test]
fn each_response_is_emitted_before_its_worker_starts_another_item() {
    const STREAMS: usize = 4;
    let crew = TestCrew::new(1);
    let clock = Arc::new(AtomicUsize::new(0));
    let rendezvous = Arc::new(Rendezvous::default());
    type Stamped = (usize, std::thread::ThreadId, ItemEvent);
    let events: Arc<Mutex<Vec<Stamped>>> = Arc::default();
    let hook: ItemHook = {
        let (clock, rendezvous, events) = (
            Arc::clone(&clock),
            Arc::clone(&rendezvous),
            Arc::clone(&events),
        );
        Arc::new(move |event| {
            let at = clock.fetch_add(1, Ordering::SeqCst);
            events
                .lock()
                .unwrap()
                .push((at, std::thread::current().id(), event));
            rendezvous.on(event);
        })
    };
    let mut shard = shard()
        .with_crew(Arc::clone(&crew.crew))
        .with_item_hook(hook);
    let streams = crew_streams(STREAMS, 2);
    for (id, frames) in &streams {
        shard.register(*id, FrameStore::from_frames(frames, None), false);
    }
    // Stream 0 has two jobs in the batch, around everyone else's one.
    let mut jobs: Vec<ShardJob> = streams
        .iter()
        .map(|(id, frames)| ShardJob {
            stream_id: *id,
            frame_index: frames[0].index,
        })
        .collect();
    jobs.push(ShardJob {
        stream_id: 0,
        frame_index: streams[0].1[1].index,
    });
    let mut sink = StampedSink {
        clock: Arc::clone(&clock),
        served: Vec::new(),
        settled: Vec::new(),
    };
    let dropped = shard.process_batch_into(&jobs, &mut sink).unwrap();
    assert!(dropped.is_empty());
    let returned_at = clock.load(Ordering::SeqCst);
    crew.dismiss();

    let events = events.lock().unwrap().clone();
    let me = std::thread::current().id();
    let served_at = |stream: StreamId, frame: usize| {
        let hits: Vec<usize> = sink
            .served
            .iter()
            .filter(|(_, s, f)| (*s, *f) == (stream, frame))
            .map(|(at, ..)| *at)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "stream {stream} frame {frame} served {hits:?}"
        );
        hits[0]
    };
    // Both sides of the crew ran items, and every job was served once.
    assert!(events.iter().any(|(_, thread, _)| *thread != me));
    assert!(events.iter().any(|(_, thread, _)| *thread == me));
    assert_eq!(sink.served.len(), jobs.len());
    assert_eq!(shard.stats().key_frames, jobs.len());

    let mut workers: HashMap<std::thread::ThreadId, Vec<(usize, ItemEvent)>> = HashMap::new();
    for (at, thread, event) in &events {
        workers.entry(*thread).or_default().push((*at, *event));
    }
    for (thread, timeline) in &workers {
        // Per worker: Started(s), Emitted(s, ..)+, Started(s'), ... — an item
        // hands on every response before the worker claims another item.
        let mut current: Option<StreamId> = None;
        let mut emitted_since_start = 0;
        for (i, (at, event)) in timeline.iter().enumerate() {
            match *event {
                ItemEvent::Started { stream_id, ran } => {
                    assert_eq!(ran == Ran::Owner, *thread == me);
                    assert!(
                        i == 0 || emitted_since_start > 0,
                        "an item started before the previous one emitted"
                    );
                    current = Some(stream_id);
                    emitted_since_start = 0;
                }
                ItemEvent::Emitted {
                    stream_id,
                    frame_index,
                    ..
                } => {
                    assert_eq!(Some(stream_id), current, "a stream's jobs changed thread");
                    emitted_since_start += 1;
                    let served = served_at(stream_id, frame_index);
                    let started = timeline[..i]
                        .iter()
                        .rev()
                        .find(|(_, e)| matches!(e, ItemEvent::Started { .. }))
                        .unwrap()
                        .0;
                    assert!(started < served);
                    if *thread == me {
                        // The owner's own responses reach the sink inside the
                        // item, before `emit` returns.
                        assert!(served < *at);
                    } else {
                        // A helper's wait in the completion queue for the
                        // owner's next drain — before the batch returns.
                        assert!(served < returned_at);
                    }
                }
            }
        }
    }
    // Stream 0's two jobs ran on one thread, in scheduling order.
    let stream0: Vec<(std::thread::ThreadId, usize)> = events
        .iter()
        .filter_map(|(_, thread, event)| match event {
            ItemEvent::Emitted {
                stream_id: 0,
                frame_index,
                ..
            } => Some((*thread, *frame_index)),
            _ => None,
        })
        .collect();
    assert_eq!(stream0.len(), 2);
    assert_eq!(stream0[0].0, stream0[1].0);
    assert_eq!(
        [stream0[0].1, stream0[1].1],
        [streams[0].1[0].index, streams[0].1[1].index]
    );
    assert!(served_at(0, streams[0].1[0].index) < served_at(0, streams[0].1[1].index));
    // A stream settles once, after its last response.
    assert_eq!(sink.settled.len(), STREAMS);
    for (at, stream) in &sink.settled {
        let last = sink
            .served
            .iter()
            .filter(|(_, s, _)| s == stream)
            .map(|(at, ..)| *at)
            .max()
            .unwrap();
        assert!(last < *at);
    }
}

/// A teacher whose label for one stream's frames is one pixel short, so
/// that stream's `distill` fails with a typed error.
struct ShortLabelTeacher {
    inner: OracleTeacher,
    /// Frames of this height get the bad label (streams differ in nothing
    /// else the teacher can see, so the test films one of them smaller).
    bad_height: usize,
}

impl Teacher for ShortLabelTeacher {
    fn pseudo_label(&mut self, frame: &Frame) -> crate::Result<Vec<usize>> {
        let mut label = self.inner.pseudo_label(frame)?;
        if frame.height == self.bad_height {
            label.pop();
        }
        Ok(label)
    }

    fn inference_latency(&self) -> f64 {
        self.inner.inference_latency()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

#[test]
fn an_item_that_fails_or_panics_on_a_helper_fails_the_batch_on_its_caller() {
    use st_video::{CameraMotion, VideoCategory, VideoConfig, VideoGenerator};
    let small_frames = |seed: u64| -> Vec<Frame> {
        let category = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::People,
        };
        let mut generator =
            VideoGenerator::new(VideoConfig::for_category(category, 16, 16, seed)).unwrap();
        (0..2).map(|_| generator.next_frame()).collect()
    };
    let good = frames_for(SceneKind::People, 401, 2);
    let bad = small_frames(402);
    assert_ne!(good[0].height, bad[0].height);

    // --- a typed error from `distill`, on a helper -----------------------
    let crew = TestCrew::new(1);
    let rendezvous = Arc::new(Rendezvous::default());
    let ran_bad_on: Arc<Mutex<Vec<Ran>>> = Arc::default();
    let hook: ItemHook = {
        let (rendezvous, ran_bad_on) = (Arc::clone(&rendezvous), Arc::clone(&ran_bad_on));
        Arc::new(move |event| {
            if let ItemEvent::Started { stream_id: 2, ran } = event {
                ran_bad_on.lock().unwrap().push(ran);
            }
            rendezvous.on(event);
        })
    };
    let mut failing = ServeShard::new(
        ShadowTutorConfig::paper(),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        ShortLabelTeacher {
            inner: OracleTeacher::perfect(5),
            bad_height: bad[0].height,
        },
        0.013,
    )
    .with_crew(Arc::clone(&crew.crew))
    .with_item_hook(hook);
    failing.register(1, FrameStore::from_frames(&good, None), false);
    failing.register(2, FrameStore::from_frames(&bad, None), false);
    // The owner claims stream 1's item and is held until the helper has
    // started the other one: stream 2's, the one that fails.
    let jobs = [
        ShardJob {
            stream_id: 1,
            frame_index: good[0].index,
        },
        ShardJob {
            stream_id: 2,
            frame_index: bad[0].index,
        },
    ];
    let result = failing.process_batch(&jobs);
    assert!(result.is_err(), "the failed item did not fail the batch");
    assert_eq!(*ran_bad_on.lock().unwrap(), vec![Ran::Helper]);
    // Both sessions came home; the good stream's key frame was served.
    assert_eq!(failing.stream_count(), 2);
    assert_eq!(failing.stats().key_frames, 1);
    assert_eq!(failing.finish(1).unwrap().1.key_frames, 1);
    assert_eq!(failing.finish(2).unwrap().1.key_frames, 0);
    crew.dismiss();

    // --- a panic inside an item, on a helper -----------------------------
    let crew = TestCrew::new(1);
    let rendezvous = Arc::new(Rendezvous::default());
    let hook: ItemHook = {
        let rendezvous = Arc::clone(&rendezvous);
        Arc::new(move |event| {
            rendezvous.on(event);
            if let ItemEvent::Started {
                stream_id,
                ran: Ran::Helper,
            } = event
            {
                panic!("sabotaged stream {stream_id}");
            }
        })
    };
    let mut shard = shard()
        .with_crew(Arc::clone(&crew.crew))
        .with_item_hook(hook);
    shard.register(1, FrameStore::from_frames(&good, None), false);
    let other = frames_for(SceneKind::Animals, 403, 2);
    shard.register(2, FrameStore::from_frames(&other, None), false);
    let jobs = [
        ShardJob {
            stream_id: 1,
            frame_index: good[0].index,
        },
        ShardJob {
            stream_id: 2,
            frame_index: other[0].index,
        },
    ];
    let me = std::thread::current().id();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = shard.process_batch(&jobs);
    }));
    // The helper's panic surfaced here, on the thread that called
    // `process_batch` — where a reactor pass would blame it on the shard.
    let payload = unwound.expect_err("the helper's panic was swallowed");
    assert_eq!(std::thread::current().id(), me);
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("sabotaged stream 2")
    );
    // ...after every session was back in the shard and the owner's own
    // item had been served.
    assert_eq!(shard.stream_count(), 2);
    assert_eq!(shard.stats().key_frames, 1);
    // The helper survived its item's panic and is still on the crew.
    crew.dismiss();
}

/// Makes exactly one helper-run item panic, deterministically: the owner's
/// first item waits for the test to finish queueing work (so the next batch
/// has two streams in it), every later owner item waits until a helper has
/// started one — and the first item a helper starts is the one that dies.
/// After that the hook is inert.
#[derive(Default)]
struct Saboteur {
    owner_items: AtomicUsize,
    gate_open: Mutex<bool>,
    gate: Condvar,
    rendezvous: Rendezvous,
    done: std::sync::atomic::AtomicBool,
}

impl Saboteur {
    fn open_gate(&self) {
        *self.gate_open.lock().unwrap() = true;
        self.gate.notify_all();
    }

    fn on(&self, event: ItemEvent) {
        if self.done.load(Ordering::SeqCst) {
            return;
        }
        match event {
            ItemEvent::Started {
                stream_id,
                ran: Ran::Helper,
            } => {
                self.done.store(true, Ordering::SeqCst);
                self.rendezvous.on(event);
                panic!("sabotaged stream {stream_id}");
            }
            ItemEvent::Started {
                ran: Ran::Owner, ..
            } => {
                if self.owner_items.fetch_add(1, Ordering::SeqCst) == 0 {
                    let _open = self
                        .gate
                        .wait_while(self.gate_open.lock().unwrap(), |open| !*open)
                        .unwrap();
                } else {
                    self.rendezvous.on(event);
                }
            }
            ItemEvent::Emitted { .. } => {}
        }
    }

    fn hook(self: &Arc<Self>) -> ItemHook {
        let saboteur = Arc::clone(self);
        Arc::new(move |event| saboteur.on(event))
    }
}

fn send_key_frame(client: &mut StreamClient, frame: &Frame) {
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

#[test]
fn a_panic_on_a_helper_is_blamed_on_the_shard_whose_batch_it_was() {
    let saboteur = Arc::new(Saboteur::default());
    let config = ShadowTutorConfig::paper();
    // The hook holds the worker's items until a lane takes one up: a lane
    // of this test's own.
    let crew = TestCrew::new(1);
    let pool = ServerPool::spawn_with_crew(
        config,
        PoolConfig {
            shards: 2,
            reactor_threads: Some(1),
            max_batch: 2,
            max_in_flight: 64,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        Arc::clone(&crew.crew),
        |shard, template| {
            ServeShard::new(
                config,
                template,
                OracleTeacher::perfect(700 + shard as u64),
                0.013,
            )
            .with_item_hook(saboteur.hook())
        },
    )
    .unwrap();
    // Streams 1 and 3 both live on shard 1; shard 0 hosts nothing.
    let frames_a = frames_for(SceneKind::People, 411, 3);
    let frames_b = frames_for(SceneKind::Animals, 412, 3);
    let mut a = pool.connect(1, &frames_a).unwrap();
    let mut b = pool.connect(3, &frames_b).unwrap();
    a.recv_timeout(Duration::from_secs(10)).unwrap();
    b.recv_timeout(Duration::from_secs(10)).unwrap();
    for frame in &frames_a {
        send_key_frame(&mut a, frame);
    }
    for frame in &frames_b {
        send_key_frame(&mut b, frame);
    }
    saboteur.open_gate();
    drop((a, b));
    let joined = pool.join();
    crew.dismiss();
    let Err(err) = joined else {
        panic!("a shard died; join must say so");
    };
    match err {
        PoolError::WorkerFailed { shard, panic_msg } => {
            assert_eq!(shard, 1, "the death was pinned on the wrong shard");
            assert!(
                panic_msg.starts_with("sabotaged stream"),
                "payload lost: {panic_msg}"
            );
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}

#[test]
fn a_death_mid_batch_loses_only_the_jobs_not_yet_answered() {
    let saboteur = Arc::new(Saboteur::default());
    let config = ShadowTutorConfig::paper();
    // See `a_panic_on_a_helper_is_blamed_on_the_shard_whose_batch_it_was`.
    let crew = TestCrew::new(1);
    let pool = ServerPool::spawn_with_crew(
        config,
        PoolConfig {
            shards: 2,
            reactor_threads: Some(1),
            replication: true,
            max_batch: 2,
            max_in_flight: 64,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        Arc::clone(&crew.crew),
        // Same teacher everywhere: who serves a stream must not matter.
        |_shard, template| {
            ServeShard::new(config, template, OracleTeacher::perfect(9001), 0.013)
                .with_item_hook(saboteur.hook())
        },
    )
    .unwrap();
    // The two working streams, 11 and 13, live on shard 1, which recovers
    // in place; shard 0 hosts two that never send.
    let idle = frames_for(SceneKind::Street, 420, 1);
    let frames: HashMap<StreamId, Vec<Frame>> = [
        (11, frames_for(SceneKind::People, 421, 3)),
        (13, frames_for(SceneKind::Animals, 423, 3)),
    ]
    .into_iter()
    .collect();
    let idle_x = pool.connect(10, &idle).unwrap();
    let mut a = pool.connect(11, &frames[&11]).unwrap();
    let idle_y = pool.connect(12, &idle).unwrap();
    let mut b = pool.connect(13, &frames[&13]).unwrap();
    for client in [&mut a, &mut b] {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    }
    for frame in &frames[&11] {
        send_key_frame(&mut a, frame);
    }
    for frame in &frames[&13] {
        send_key_frame(&mut b, frame);
    }
    saboteur.open_gate();
    // Every key frame is answered exactly once: an update, or a drop ack.
    let mut updates: HashMap<StreamId, Vec<usize>> = HashMap::new();
    let mut drops: Vec<(StreamId, usize, DropReason)> = Vec::new();
    for client in [&mut a, &mut b] {
        let id = client.stream_id();
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut answered = 0;
        while answered < frames[&id].len() {
            match client.recv_timeout(Duration::from_millis(250)) {
                Ok(ServerToClient::StudentUpdate { frame_index, .. }) => {
                    updates.entry(id).or_default().push(frame_index);
                    answered += 1;
                }
                Ok(ServerToClient::Dropped {
                    frame_index,
                    reason,
                }) => {
                    drops.push((id, frame_index, reason));
                    answered += 1;
                }
                Ok(other) => panic!("stream {id}: unexpected {other:?}"),
                Err(_) => assert!(Instant::now() < deadline, "stream {id} starved"),
            }
        }
    }
    for client in [&mut a, &mut b] {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop((a, b, idle_x, idle_y));
    let stats = pool.join().unwrap();
    crew.dismiss();
    // The helper died holding stream 13's first key frame; nothing else was
    // in flight unanswered, so nothing else is lost — in particular not the
    // key frame the reactor worker answered in the same batch.
    assert_eq!(
        drops,
        vec![(13, frames[&13][0].index, DropReason::ShardFailed)]
    );
    let indices = |id: StreamId| frames[&id].iter().map(|f| f.index).collect::<Vec<_>>();
    assert_eq!(updates[&11], indices(11));
    assert_eq!(updates[&13], indices(13)[1..]);
    let report = stats.snapshot();
    assert_eq!(report.failovers, 1);
    assert_eq!(report.frames_lost_on_failover, 1);
    assert_eq!(stats.dropped_jobs(), 1);
    assert_eq!(stats.total_key_frames(), 5);
    // Stream 11's item came home whole before the death, so the recovered
    // shard kept its session with the key frame answered in the dying
    // batch; stream 13's failed item had its session rolled back to
    // registration.
    assert_eq!(stats.streams[&11].key_frames, 3);
    assert_eq!(stats.streams[&13].key_frames, 2);
    assert_eq!(stats.streams[&13].dropped, 1);
}

/// Connect stream 0 with `frames` pre-shared to a two-shard replicated pool
/// built by `make_shard`, send `send` as key frames (one per batch), and
/// return what the stream was answered, in order.
fn answers_of_stream_zero<F>(frames: &[Frame], send: &[Frame], make_shard: F) -> Vec<ServerToClient>
where
    F: FnMut(usize, StudentNet) -> ServeShard<OracleTeacher>,
{
    let crew = TestCrew::new(0);
    let pool = ServerPool::spawn_with_crew(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            max_batch: 1,
            replication: true,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        Arc::clone(&crew.crew),
        make_shard,
    )
    .unwrap();
    let mut client = pool.connect(0, frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    for frame in send {
        send_key_frame(&mut client, frame);
    }
    let answers: Vec<ServerToClient> = (0..send.len())
        .map(|_| client.recv_timeout(Duration::from_secs(60)).unwrap())
        .collect();
    client.send(ClientToServer::Shutdown, 1).unwrap();
    drop(client);
    pool.join().unwrap();
    crew.dismiss();
    answers
}

#[test]
fn a_torn_session_is_rebuilt_from_its_checkpoint_bit_for_bit() {
    // The item serving key frame 0 panics after answering it, so its
    // stream's checkpoint is still the registration one (a checkpoint moves
    // only when an item comes home whole). The dying shard rebuilds the
    // session from it before the panic leaves, and serves that rebuilt
    // session after its recovery, not the one that had trained: the rest
    // of the stream is then served exactly as a fresh session serves it.
    let frames = frames_for(SceneKind::People, 76, 3);
    let shard = |hook: Option<ItemHook>| {
        move |_, template| {
            let shard = ServeShard::new(
                ShadowTutorConfig::paper(),
                template,
                OracleTeacher::perfect(9001),
                0.013,
            );
            match &hook {
                Some(hook) => shard.with_item_hook(Arc::clone(hook)),
                None => shard,
            }
        }
    };
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sabotage: ItemHook = {
        let fired = Arc::clone(&fired);
        Arc::new(move |event| {
            if matches!(event, ItemEvent::Emitted { .. }) && !fired.swap(true, Ordering::SeqCst) {
                panic!("sabotaged after the first answer");
            }
        })
    };
    let faulted = answers_of_stream_zero(&frames, &frames, shard(Some(sabotage)));
    assert!(fired.load(Ordering::SeqCst), "the sabotage never fired");
    let whole = answers_of_stream_zero(&frames, &frames, shard(None));
    let fresh = answers_of_stream_zero(&frames, &frames[1..], shard(None));
    assert_eq!(
        faulted[0], whole[0],
        "key frame 0 was answered before the panic"
    );
    assert_eq!(faulted[1..], fresh[..]);
    assert_ne!(faulted[1..], whole[1..], "the trained session was kept");
}

#[test]
fn a_failed_item_leaves_its_session_at_the_last_settled_checkpoint() {
    // The hook panics once, right after the key frame whose index `trip`
    // holds has been answered: the session has stepped past its checkpoint.
    const OFF: usize = usize::MAX;
    let trip = Arc::new(AtomicUsize::new(OFF));
    let hook: ItemHook = {
        let trip = Arc::clone(&trip);
        Arc::new(move |event| {
            if let ItemEvent::Emitted { frame_index, .. } = event {
                if trip
                    .compare_exchange(frame_index, OFF, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    panic!("sabotaged after key frame {frame_index}");
                }
            }
        })
    };
    let frames = frames_for(SceneKind::People, 77, 3);
    let job = |frame: &Frame| ShardJob {
        stream_id: 1,
        frame_index: frame.index,
    };
    // A session that never trained: registered and left alone.
    let mut fresh = shard();
    fresh.register(1, FrameStore::from_frames(&frames, None), false);
    let fresh_memory = fresh.memory_profile();
    let mut shard = shard().with_item_hook(hook);
    shard.register(1, FrameStore::from_frames(&frames, None), false);
    shard.keep_checkpoint(1);
    let fails = |shard: &mut ServeShard<OracleTeacher>, jobs: &[ShardJob]| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shard.process_batch(jobs)))
            .is_err()
    };
    // What the session and its checkpoint hold: (weights, key frames).
    let held = |shard: &mut ServeShard<OracleTeacher>| {
        let Some(mut entry) = shard.evict_stream(1) else {
            panic!("stream 1 left the shard")
        };
        let Some(checkpoint) = &entry.checkpoint else {
            panic!("stream 1 keeps no checkpoint")
        };
        let kept = (checkpoint.weights.encode(), checkpoint.key_frames);
        let session = (
            entry.session.initial_checkpoint().encode(),
            entry.session.key_frames_processed(),
        );
        shard.adopt_stream(1, entry);
        (session, kept)
    };
    // Torn on its first item: back to the registration checkpoint, every
    // stage still shared with the template.
    trip.store(frames[0].index, Ordering::SeqCst);
    assert!(fails(&mut shard, &[job(&frames[0])]));
    let (session, kept) = held(&mut shard);
    assert_eq!(session, kept);
    assert_eq!(kept.1, 0);
    assert_eq!(
        shard.memory_profile().shared_bytes,
        fresh_memory.shared_bytes,
        "the rebuild copied stages it could have shared with the template"
    );

    // Key frame 0 comes home whole and moves the checkpoint; an item that
    // then panics after answering key frame 1 goes back to it, not to
    // registration, and not to the half-run item's state.
    let settled = shard.process_batch(&[job(&frames[0])]).unwrap();
    assert_eq!(settled.responses.len(), 1);
    let after_first = held(&mut shard);
    assert_eq!(after_first.0, after_first.1);
    assert_eq!(after_first.1 .1, 1);
    trip.store(frames[1].index, Ordering::SeqCst);
    assert!(fails(&mut shard, &[job(&frames[1]), job(&frames[2])]));
    assert_eq!(held(&mut shard), after_first);
    let Some((checkpoint, stats)) = shard.finish(1) else {
        panic!("stream 1 left the shard")
    };
    assert_eq!(checkpoint.encode(), after_first.1 .0);
    assert_eq!(stats.key_frames, 1);
}

/// A bare stream's downlink as the pool's emitter fills it: each served
/// key frame's training outcome and the update bytes shipped for it.
#[derive(Default)]
struct Shipped(Vec<(crate::train::TrainOutcome, bytes::Bytes)>);

impl BatchSink for Shipped {
    fn served(
        &mut self,
        _stats: &mut ShardStats,
        _index: usize,
        _job: ShardJob,
        response: KeyFrameResponse,
    ) {
        self.0.push((response.outcome, response.encoded()));
    }
}

/// What a bare stream's session would ship if it encoded its update now.
fn fresh_update(shard: &mut ServeShard<OracleTeacher>, stream_id: StreamId) -> bytes::Bytes {
    let Some(mut entry) = shard.evict_stream(stream_id) else {
        panic!("stream {stream_id} left the shard")
    };
    let update = WeightSnapshot::capture(
        entry.session.student_mut(),
        st_nn::snapshot::SnapshotScope::TrainableOnly,
    )
    .encode();
    shard.adopt_stream(stream_id, entry);
    update
}

#[test]
fn an_unchanged_student_reships_its_last_update_and_a_rebuilt_one_never_does() {
    let frames = frames_for(SceneKind::People, 79, 3);
    let job = |stream_id, frame: &Frame| ShardJob {
        stream_id,
        frame_index: frame.index,
    };

    // Rolled back: a student trained on the scene, stepped at a learning
    // rate that wrecks it, so every step loses to where it started and is
    // undone. Every update after the first ships the first one's bytes.
    let paper = ShadowTutorConfig::paper();
    let mut template = StudentNet::new(StudentConfig::tiny()).unwrap();
    template.freeze = paper.mode.freeze_point();
    let mut adam = st_nn::optim::Adam::new(paper.learning_rate);
    let mut teacher = OracleTeacher::perfect(5);
    for _ in 0..6 {
        for frame in &frames {
            let label = teacher.pseudo_label(frame).unwrap();
            crate::train::train_student(&mut template, &mut adam, frame, &label, &paper).unwrap();
        }
    }
    let wrecking = ShadowTutorConfig {
        threshold: 0.999,
        max_updates: 2,
        learning_rate: 1e3,
        ..paper
    };
    let mut rolled_back = ServeShard::new(wrecking, template, OracleTeacher::perfect(5), 0.013);
    rolled_back.register(1, FrameStore::from_frames(&frames, None), false);
    let mut shipped = Shipped::default();
    for frame in frames.iter().chain(&frames) {
        rolled_back
            .process_batch_into(&[job(1, frame)], &mut shipped)
            .unwrap();
        let (outcome, bytes) = shipped.0.last().unwrap();
        assert!(outcome.steps > 0 && !outcome.changed, "{outcome:?}");
        assert_eq!(*bytes, fresh_update(&mut rolled_back, 1));
        assert_eq!(
            bytes.as_ptr(),
            shipped.0[0].1.as_ptr(),
            "an unchanged update was encoded again"
        );
    }

    // Rebuilt: an item trains the student, ships the update, and panics;
    // the session comes back at its registration checkpoint. Told to take
    // no step from there, it ships that checkpoint's update — not the
    // bytes it shipped before the rebuild.
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sabotage: ItemHook = {
        let fired = Arc::clone(&fired);
        Arc::new(move |event| {
            if matches!(event, ItemEvent::Emitted { .. }) && !fired.swap(true, Ordering::SeqCst) {
                panic!("sabotaged after the first answer");
            }
        })
    };
    let mut rebuilt = shard().with_item_hook(sabotage);
    rebuilt.register(2, FrameStore::from_frames(&frames, None), false);
    rebuilt.keep_checkpoint(2);
    let registered = fresh_update(&mut rebuilt, 2);
    let mut shipped = Shipped::default();
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rebuilt.process_batch_into(&[job(2, &frames[0])], &mut shipped)
    }));
    assert!(failed.is_err() && fired.load(Ordering::SeqCst));
    let (outcome, trained) = shipped.0[0].clone();
    assert!(outcome.changed && trained != registered, "{outcome:?}");
    assert_eq!(fresh_update(&mut rebuilt, 2), registered, "not rebuilt");
    let Some(mut entry) = rebuilt.evict_stream(2) else {
        panic!("stream 2 left the shard")
    };
    entry.session.config.threshold = 0.0;
    rebuilt.adopt_stream(2, entry);
    for frame in &frames[1..] {
        rebuilt
            .process_batch_into(&[job(2, frame)], &mut shipped)
            .unwrap();
        let (outcome, bytes) = shipped.0.last().unwrap();
        assert!(outcome.steps == 0 && !outcome.changed, "{outcome:?}");
        assert_eq!(*bytes, registered);
    }
    // And a key frame that trains again ships what it trained.
    let Some(mut entry) = rebuilt.evict_stream(2) else {
        panic!("stream 2 left the shard")
    };
    entry.session.config.threshold = paper.threshold;
    rebuilt.adopt_stream(2, entry);
    rebuilt
        .process_batch_into(&[job(2, &frames[0])], &mut shipped)
        .unwrap();
    let (outcome, bytes) = shipped.0.last().unwrap();
    assert!(outcome.changed, "{outcome:?}");
    assert_eq!(*bytes, fresh_update(&mut rebuilt, 2));
    assert_ne!(*bytes, registered);
}

/// Gates for a live pool on a crew of one lane: the worker's first item
/// waits until the test has queued the next batch's key frames; every later
/// worker item waits until a lane has started one; the first item a lane
/// starts is held until the test releases it.
#[derive(Default)]
struct HeldLane {
    owner_items: AtomicUsize,
    /// (the worker is in its first item, the next batch is queued, the
    /// lane's item is released)
    gates: Mutex<(bool, bool, bool)>,
    changed: Condvar,
    rendezvous: Rendezvous,
}

impl HeldLane {
    fn set(&self, set: impl FnOnce(&mut (bool, bool, bool))) {
        set(&mut self.gates.lock().unwrap());
        self.changed.notify_all();
    }

    fn wait_for(&self, open: impl Fn(&(bool, bool, bool)) -> bool) {
        let (_gates, timeout) = self
            .changed
            .wait_timeout_while(self.gates.lock().unwrap(), Duration::from_secs(60), |g| {
                !open(g)
            })
            .unwrap();
        assert!(!timeout.timed_out(), "a gate never opened");
    }

    fn on(&self, event: ItemEvent) {
        match event {
            ItemEvent::Started {
                ran: Ran::Owner, ..
            } => {
                if self.owner_items.fetch_add(1, Ordering::SeqCst) == 0 {
                    self.set(|g| g.0 = true);
                    self.wait_for(|g| g.1);
                } else {
                    self.rendezvous.on(event);
                }
            }
            ItemEvent::Started {
                ran: Ran::Helper, ..
            } => {
                self.rendezvous.on(event);
                self.wait_for(|g| g.2);
            }
            ItemEvent::Emitted { .. } => {}
        }
    }
}

#[test]
fn a_lane_return_wakes_the_shard_without_other_traffic() {
    let held = Arc::new(HeldLane::default());
    let config = ShadowTutorConfig::paper();
    // The held item keeps its lane busy: a lane of this test's own.
    let crew = TestCrew::new(1);
    let pool = ServerPool::spawn_with_crew(
        config,
        PoolConfig {
            shards: 1,
            reactor_threads: Some(1),
            max_batch: 2,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        Arc::clone(&crew.crew),
        |_shard, template| {
            let held = Arc::clone(&held);
            ServeShard::new(config, template, OracleTeacher::perfect(5), 0.013)
                .with_item_hook(Arc::new(move |event| held.on(event)))
        },
    )
    .unwrap();
    let frames: Vec<Vec<Frame>> = (0..3)
        .map(|i| frames_for(SceneKind::People, 440 + i, 1))
        .collect();
    let mut clients: Vec<StreamClient> = frames
        .iter()
        .enumerate()
        .map(|(id, frames)| pool.connect(id as StreamId, frames).unwrap())
        .collect();
    for client in &mut clients {
        let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    }
    // Stream 0's key frame holds the worker inside its first item; streams
    // 1 and 2 queue theirs meanwhile, so the next pass batches the two.
    send_key_frame(&mut clients[0], &frames[0][0]);
    held.wait_for(|g| g.0);
    send_key_frame(&mut clients[1], &frames[1][0]);
    send_key_frame(&mut clients[2], &frames[2][0]);
    held.set(|g| g.1 = true);
    // The worker serves stream 1's item and leaves stream 2's, held on the
    // lane, out: its pass ends without it.
    for client in &mut clients[..2] {
        let answer = client.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(matches!(answer, ServerToClient::StudentUpdate { .. }));
    }
    assert!(matches!(
        clients[2].recv_timeout(Duration::from_millis(200)),
        Err(st_net::TransportError::Timeout)
    ));
    // Released, the lane finishes. No client sends anything: only the
    // lane's post can wake the shard to answer stream 2.
    held.set(|g| g.2 = true);
    let answer = clients[2].recv_timeout(Duration::from_secs(60)).unwrap();
    assert!(
        matches!(answer, ServerToClient::StudentUpdate { frame_index, .. } if frame_index == frames[2][0].index)
    );
    for client in &mut clients {
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    let stats = pool.join().unwrap();
    crew.dismiss();
    assert_eq!(stats.total_key_frames(), 3);
    assert_eq!(stats.jobs_offloaded(), 1);
    assert_eq!(stats.dropped_jobs(), 0);
}
