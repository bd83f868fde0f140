//! Shard-, scheduler- and pool-level tests of the serving runtime.

use super::*;
use crate::config::{PlacementPolicy, ShadowTutorConfig};
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
    assert!(PoolConfig {
        frame_budget_bytes: Some(0),
        ..PoolConfig::default_pool()
    }
    .validate()
    .is_err());
    assert!(PoolConfig {
        steal_poll: Duration::ZERO,
        ..PoolConfig::default_pool()
    }
    .validate()
    .is_err());
    let p = PoolConfig::with_shards(3);
    assert_eq!(p.shard_of(0), 0);
    assert_eq!(p.shard_of(4), 1);
    assert_eq!(p.shard_of(5), 2);
    assert!(!p.stealing());
    assert!(PoolConfig {
        placement: PlacementPolicy::Rebalance,
        ..PoolConfig::default_pool()
    }
    .stealing());
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
fn adaptive_batch_tracks_backlog_within_bounds() {
    let mut b = AdaptiveBatch::new(8, true);
    assert_eq!(b.limit(), 1);
    assert_eq!(b.ceiling(), 8);
    // Pressure grows the window multiplicatively, up to the ceiling.
    b.observe(10, true);
    assert_eq!(b.limit(), 2);
    b.observe(10, true);
    b.observe(10, true);
    assert_eq!(b.limit(), 8);
    b.observe(100, true);
    assert_eq!(b.limit(), 8, "never exceeds the ceiling");
    // An idle queue shrinks it back down.
    b.observe(0, true);
    b.observe(0, true);
    b.observe(0, true);
    assert_eq!(b.limit(), 1);
    // Growth is gated on the teacher's marginal cost still amortizing.
    b.observe(10, false);
    assert_eq!(b.limit(), 1);
    // Disabled: pinned to the ceiling regardless of observations.
    let mut pinned = AdaptiveBatch::new(4, false);
    assert_eq!(pinned.limit(), 4);
    pinned.observe(0, true);
    pinned.observe(0, true);
    assert_eq!(pinned.limit(), 4);
}

#[test]
fn cost_profile_judges_growth_on_measured_slope() {
    let mut p = TeacherCostProfile::new();
    // No data: the caller must fall back to the virtual model.
    assert_eq!(p.growth_pays(1), None);
    p.record(1, 10e-3);
    assert_eq!(p.growth_pays(1), None, "one size is not a slope");
    // Sub-linear batching: going 1 -> 4 costs 2 ms/slot vs 10 ms solo.
    p.record(4, 16e-3);
    assert_eq!(p.growth_pays(4), Some(true));
    assert!(p.estimate(4).unwrap() > p.estimate(1).unwrap());
    assert!(p.per_frame_at_or_below(4).unwrap() < p.estimate(1).unwrap());
    // Super-linear batching (thrashing teacher): growth must stop.
    let mut bad = TeacherCostProfile::new();
    bad.record(1, 10e-3);
    bad.record(2, 25e-3);
    assert_eq!(bad.growth_pays(2), Some(false));
    // Unmeasurably fast forwards (oracle teacher): no measured verdict.
    let mut fast = TeacherCostProfile::new();
    fast.record(1, 1e-6);
    fast.record(2, 2e-6);
    assert_eq!(fast.growth_pays(2), None);
    // EMA smooths rather than replaces.
    let mut ema = TeacherCostProfile::new();
    ema.record(1, 10e-3);
    ema.record(1, 20e-3);
    let est = ema.estimate(1).unwrap();
    assert!(est > 10e-3 && est < 20e-3, "EMA {est}");
    // Degenerate observations are ignored.
    ema.record(0, 1.0);
    ema.record(3, f64::NAN);
    assert_eq!(ema.estimate(0), None);
    assert_eq!(ema.estimate(3), None);
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
    // A real forward happened, so wall time was measured and the cost
    // profile has a batch-1 sample.
    assert!(s.stats().teacher_wall_time > Duration::ZERO);
    assert!(s.stats().mean_teacher_wall_secs() > 0.0);
    assert!(s.measured_costs().estimate(1).is_some());
    // The oracle teacher is microsecond-fast, so the measured profile
    // abstains and growth falls back to the virtual model (which pays).
    assert!(s.batch_growth_pays(1));
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
    let ckpt = s.register(1, FrameStore::new(None), false);
    assert!(s.has_frame(1, people[1].index), "frames clobbered");
    let (final_ckpt, stats) = s.finish(1).unwrap();
    assert_eq!(stats.key_frames, 1, "session reset by duplicate register");
    assert!(ckpt.distance(&final_ckpt).unwrap() < 1e-9);
}

#[test]
fn batched_labels_amortize_teacher_time() {
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
    assert_eq!(outcome.responses.len(), 2);
    let stats = s.stats();
    assert_eq!(stats.teacher_batches, 1);
    assert_eq!(stats.key_frames, 2);
    assert_eq!(stats.max_batch_observed, 2);
    // Batching two frames must be cheaper than two solo forwards.
    assert!(stats.teacher_time_saved > 0.0);
    // The amortized teacher share charged per response is below t_ti.
    let solo = OracleTeacher::perfect(0).inference_latency();
    for (_, _, r) in &outcome.responses {
        assert!(r.server_time < solo + r.outcome.steps as f64 * 0.013 + 1e-12);
    }
    // The default teacher's sub-linear batch cost keeps growth paying.
    assert!(s.batch_growth_pays(2));
    assert!(s.marginal_batch_cost(2) > 0.0);
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
    // Least-loaded placement spread the two streams over the two shards.
    assert_eq!(pool.shard_loads(), vec![1, 1]);
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
    assert_eq!(report.streams_stolen, 0);
    assert_eq!(report.frame_evictions, 0);
    assert!(report.queue_p50_ms >= 0.0 && report.queue_p99_ms >= report.queue_p50_ms);
    assert!(report.to_json().contains("\"totals\""));
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
    let client = pool.connect(5, &frames).unwrap();
    let Err(err) = pool.connect(5, &frames) else {
        panic!("duplicate connect must be rejected");
    };
    assert!(format!("{err:?}").contains("already connected"));
    drop(client);
    pool.join().unwrap();
}

#[test]
fn least_loaded_placement_follows_departures() {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |shard| OracleTeacher::perfect(300 + shard as u64),
    )
    .unwrap();
    let frames = frames_for(SceneKind::People, 62, 1);
    // Sequential connects alternate shards...
    let mut a = pool.connect(10, &frames).unwrap();
    let _b = pool.connect(11, &frames).unwrap();
    let _c = pool.connect(12, &frames).unwrap();
    assert_eq!(pool.shard_loads().iter().sum::<usize>(), 3);
    assert_eq!(pool.shard_loads(), vec![2, 1]);
    // ...and a departure frees the slot, steering the next connect to
    // the drained shard. (Wait for the shutdown to be processed.)
    a.recv_timeout(Duration::from_secs(10)).unwrap();
    a.send(ClientToServer::Shutdown, 1).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.shard_loads()[0] != 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(pool.shard_loads(), vec![1, 1]);
    let _d = pool.connect(13, &frames).unwrap();
    assert_eq!(pool.shard_loads(), vec![2, 1]);
    drop((a, _b, _c, _d));
    let stats = pool.join().unwrap();
    // Every connected stream is accounted for, with or without Shutdown.
    assert_eq!(stats.streams.len(), 4);
    assert_eq!(stats.final_checkpoints.len(), 4);
}

#[test]
fn frame_store_evicts_lru_within_budget() {
    let frames = frames_for(SceneKind::People, 71, 4);
    let cost = FrameStore::frame_cost(&frames[0]);
    // Budget for exactly two frames.
    let mut store = FrameStore::from_frames(&frames, Some(2 * cost));
    assert_eq!(store.resident_count(), 2);
    assert!(store.resident_bytes() <= 2 * cost);
    assert_eq!(store.peak_bytes(), 2 * cost);
    assert_eq!(store.evictions(), 2);
    // Insertion order was index order, so the two oldest were evicted —
    // but their indices are still *known*.
    assert!(!store.resident(frames[0].index) && store.knows(frames[0].index));
    assert!(!store.resident(frames[1].index) && store.knows(frames[1].index));
    assert!(store.resident(frames[2].index) && store.resident(frames[3].index));
    assert!(!store.knows(999));
    // Touching frame 2 makes frame 3 the LRU victim of the next insert.
    assert!(store.touch(frames[2].index));
    assert!(
        !store.touch(frames[0].index),
        "evicted frames cannot be touched"
    );
    store.insert(frames[0].clone());
    assert!(store.resident(frames[0].index));
    assert!(store.resident(frames[2].index));
    assert!(!store.resident(frames[3].index), "LRU frame evicted");
    assert_eq!(store.evictions(), 3);
    // The budget invariant held throughout.
    assert!(store.peak_bytes() <= 2 * cost);
    // Re-inserting a resident frame only refreshes recency.
    store.insert(frames[0].clone());
    assert_eq!(store.resident_count(), 2);
    // An unbounded store never evicts.
    let unbounded = FrameStore::from_frames(&frames, None);
    assert_eq!(unbounded.resident_count(), 4);
    assert_eq!(unbounded.evictions(), 0);
    // A frame bigger than the whole budget is never admitted.
    let mut tiny = FrameStore::new(Some(cost / 2));
    tiny.insert(frames[0].clone());
    assert!(tiny.knows(frames[0].index) && !tiny.resident(frames[0].index));
    assert_eq!(tiny.evictions(), 1);
    assert_eq!(tiny.resident_bytes(), 0);
}

#[test]
fn fair_scheduler_reports_the_busiest_stream() {
    let mut s = FairScheduler::new(1);
    assert_eq!(s.busiest_stream(), None);
    s.push(5, 0, at(0));
    s.push(2, 0, at(1));
    s.push(2, 1, at(2));
    assert_eq!(s.busiest_stream(), Some((2, 2)));
    // Ties break toward the smaller stream id, deterministically.
    s.push(5, 1, at(3));
    assert_eq!(s.busiest_stream(), Some((2, 2)));
}

#[test]
fn evicted_frame_parks_the_job_instead_of_dropping_it() {
    let mut s = shard();
    let people = frames_for(SceneKind::People, 72, 3);
    let cost = FrameStore::frame_cost(&people[0]);
    // Budget for one frame: only the last pre-shared frame is resident.
    s.register(1, FrameStore::from_frames(&people, Some(cost)), false);
    let outcome = s
        .process_batch(&[ShardJob {
            stream_id: 1,
            frame_index: people[0].index,
        }])
        .unwrap();
    assert!(outcome.responses.is_empty());
    assert!(outcome.dropped.is_empty(), "evicted is not unknown");
    assert_eq!(outcome.needs_frame.len(), 1);
    assert_eq!(s.stats().need_frame_requests, 1);
    assert_eq!(s.stats().dropped_jobs, 0);
    // The client re-shares the frame; the job now serves normally.
    assert!(s.reshare(1, people[0].clone()));
    let outcome = s
        .process_batch(&[ShardJob {
            stream_id: 1,
            frame_index: people[0].index,
        }])
        .unwrap();
    assert_eq!(outcome.responses.len(), 1);
    assert_eq!(s.stats().reshared_frames, 1);
    // Re-sharing a frame that was never shared is refused (a re-share is
    // recovery, not a side door for new frames).
    let foreign = frames_for(SceneKind::Street, 73, 5).pop().unwrap();
    assert!(!s.reshare(1, foreign));
    assert!(!s.reshare(9, people[0].clone()), "unknown stream");
    // Cache counters fold into the shard stats when the stream finishes.
    let (_ckpt, _stats) = s.finish(1).unwrap();
    let stats = s.stats();
    assert!(stats.frame_evictions >= 2);
    assert!(stats.frame_bytes_peak > 0 && stats.frame_bytes_peak <= cost);
}

#[test]
fn migrated_session_continues_bit_for_bit() {
    // Distilling on shard A, migrating, then distilling on shard B must
    // produce exactly the weights (and counters) of never migrating.
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
    // Migrate A → B between batches (the only point migrations happen).
    let mut b = shard();
    let entry = a.evict_stream(1).expect("stream lives on A");
    assert!(!a.has_stream(1));
    b.adopt_stream(1, entry);
    assert_eq!(a.stats().streams_donated, 1);
    assert_eq!(b.stats().streams_stolen_in, 1);
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
fn rebalance_pool_steals_a_backlogged_stream() {
    // Two shards, three streams. Least-loaded placement puts the hot
    // stream (id 0) and a cold shard-mate (id 2) on shard 0, and an
    // inactive stream (id 1) on shard 1. The hot backlog plus the cold
    // mate's queued jobs make shard 0 donatable, while shard 1 idles and
    // asks for work: with Rebalance, a steal must happen.
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            max_batch: 1,
            quantum: 1,
            adaptive_batch: false,
            max_in_flight: 64,
            placement: PlacementPolicy::Rebalance,
            steal_poll: Duration::from_millis(1),
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        // A real wall-clock pause per forward so a backlog actually
        // builds at shard 0 while shard 1 goes idle.
        |shard| {
            crate::loadgen::PacedTeacher::new(
                OracleTeacher::perfect(600 + shard as u64),
                Duration::from_millis(8),
            )
        },
    )
    .unwrap();
    let hot_frames = frames_for(SceneKind::People, 75, 12);
    let idle_frames = frames_for(SceneKind::Street, 77, 1);
    let mate_frames = frames_for(SceneKind::Animals, 76, 3);
    let mut hot = pool.connect(0, &hot_frames).unwrap();
    let mut idle = pool.connect(1, &idle_frames).unwrap();
    let mut mate = pool.connect(2, &mate_frames).unwrap();
    assert_eq!(pool.shard_loads(), vec![2, 1]);
    hot.recv_timeout(Duration::from_secs(10)).unwrap();
    idle.recv_timeout(Duration::from_secs(10)).unwrap();
    mate.recv_timeout(Duration::from_secs(10)).unwrap();
    // Blast the hot stream's whole backlog at shard 0, with the mate's
    // jobs queued alongside so donation is legal; stream 1 sends
    // nothing, so shard 1 has only stolen work to do.
    let send_key = |client: &mut StreamClient, frame: &Frame| {
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
    };
    for frame in &hot_frames {
        send_key(&mut hot, frame);
    }
    for frame in &mate_frames {
        send_key(&mut mate, frame);
    }
    idle.send(ClientToServer::Shutdown, 1).unwrap();
    drop(idle);
    for _ in &hot_frames {
        let update = hot.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
    }
    for _ in &mate_frames {
        let update = mate.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
    }
    hot.send(ClientToServer::Shutdown, 1).unwrap();
    mate.send(ClientToServer::Shutdown, 1).unwrap();
    drop((hot, mate));
    let stats = pool.join().unwrap();
    assert_eq!(stats.total_key_frames(), 15);
    assert_eq!(stats.dropped_jobs(), 0);
    assert!(
        stats.streams_stolen() >= 1,
        "the idle shard never stole the backlog: {:?}",
        stats
            .shards
            .iter()
            .map(|s| (s.key_frames, s.streams_stolen_in, s.streams_donated))
            .collect::<Vec<_>>()
    );
    // Both shards ended up doing real work.
    assert!(stats.shards.iter().all(|s| s.key_frames >= 1));
    // Every steal has a matching donation, and every stream finished
    // with a checkpoint wherever it ended up.
    let donated: usize = stats.shards.iter().map(|s| s.streams_donated).sum();
    assert_eq!(donated, stats.streams_stolen());
    assert_eq!(stats.final_checkpoints.len(), 3);
    assert_eq!(stats.streams.len(), 3);
    assert_eq!(
        stats.streams[&0].key_frames + stats.streams[&2].key_frames,
        15
    );
}

#[test]
fn static_modulo_placement_is_a_pure_function_of_the_id() {
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            placement: PlacementPolicy::StaticModulo,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |shard| OracleTeacher::perfect(400 + shard as u64),
    )
    .unwrap();
    let frames = frames_for(SceneKind::People, 63, 1);
    // Both even ids land on shard 0 even though shard 1 is empty.
    let a = pool.connect(0, &frames).unwrap();
    let b = pool.connect(2, &frames).unwrap();
    assert_eq!(pool.shard_loads(), vec![2, 0]);
    drop((a, b));
    pool.join().unwrap();
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
            placement: PlacementPolicy::StaticModulo,
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
    // template, same per-shard teachers and same static placement as
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
                placement: PlacementPolicy::StaticModulo,
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

#[test]
fn reactor_pool_steals_work_like_the_threaded_pool() {
    // The same topology as rebalance_pool_steals_a_backlogged_stream —
    // hot + mate on shard 0, an idle stream on shard 1 — but both
    // shards hosted by ONE reactor thread: the steal protocol must flow
    // through timer ticks and mailbox wakes instead of parallel loops.
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 2,
            reactor_threads: Some(1),
            max_batch: 1,
            quantum: 1,
            adaptive_batch: false,
            max_in_flight: 64,
            placement: PlacementPolicy::Rebalance,
            steal_poll: Duration::from_millis(1),
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        // A real wall-clock pause per forward so a backlog actually
        // builds at shard 0 while shard 1 goes idle.
        |shard| {
            crate::loadgen::PacedTeacher::new(
                OracleTeacher::perfect(600 + shard as u64),
                Duration::from_millis(8),
            )
        },
    )
    .unwrap();
    let hot_frames = frames_for(SceneKind::People, 80, 12);
    let idle_frames = frames_for(SceneKind::Street, 82, 1);
    let mate_frames = frames_for(SceneKind::Animals, 81, 3);
    let mut hot = pool.connect(0, &hot_frames).unwrap();
    let mut idle = pool.connect(1, &idle_frames).unwrap();
    let mut mate = pool.connect(2, &mate_frames).unwrap();
    assert_eq!(pool.shard_loads(), vec![2, 1]);
    hot.recv_timeout(Duration::from_secs(10)).unwrap();
    idle.recv_timeout(Duration::from_secs(10)).unwrap();
    mate.recv_timeout(Duration::from_secs(10)).unwrap();
    let send_key = |client: &mut StreamClient, frame: &Frame| {
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
    };
    for frame in &hot_frames {
        send_key(&mut hot, frame);
    }
    for frame in &mate_frames {
        send_key(&mut mate, frame);
    }
    idle.send(ClientToServer::Shutdown, 1).unwrap();
    drop(idle);
    // Drain updates BEFORE shutdown so the backlog sits in the
    // scheduler (one batch per pass) long enough to be stolen.
    for _ in &hot_frames {
        let update = hot.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
    }
    for _ in &mate_frames {
        let update = mate.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
    }
    hot.send(ClientToServer::Shutdown, 1).unwrap();
    mate.send(ClientToServer::Shutdown, 1).unwrap();
    drop((hot, mate));
    let stats = pool.join().unwrap();
    assert_eq!(stats.total_key_frames(), 15);
    assert_eq!(stats.dropped_jobs(), 0);
    assert_eq!(stats.streams.len(), 3);
    assert_eq!(stats.final_checkpoints.len(), 3);
    let report = stats.snapshot();
    assert!(
        report.streams_stolen >= 1,
        "no steal happened under the reactor: {report:?}"
    );
    let donated: usize = stats.shards.iter().map(|s| s.streams_donated).sum();
    assert_eq!(donated, stats.streams_stolen());
    // Steal-poll ticks flow through the timer wheel under the reactor.
    assert!(report.timer_fires > 0, "no timer-driven passes recorded");
}
