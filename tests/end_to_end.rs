//! Cross-crate integration tests: the full pipeline from video generation
//! through the teacher, the student, the runtimes (including the
//! multi-stream server pool), and the report layer.

use shadowtutor::baseline::{run_naive, run_wild};
use shadowtutor::config::{DistillationMode, ShadowTutorConfig};
use shadowtutor::loadgen::{run_skewed_load, PacedTeacher, SkewedLoadSpec};
use shadowtutor::runtime::live::{run_live_multi, StreamSpec};
use shadowtutor::runtime::sim::SimRuntime;
use shadowtutor::serve::{FrameStore, PoolConfig, ServerPool, StreamClient};
use shadowtutor::{Concurrency, LatencyProfile};
use shadowtutor_repro::testsupport::pretrained_student;
use st_net::transport::ClientEndpoint;
use st_net::LinkModel;
use st_net::{ClientToServer, DropReason, Payload, ServerToClient};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_video::dataset::{category_videos, tiny_stream as frames_for, Resolution};
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};
use std::time::{Duration, Instant};

fn people_video(seed: u64) -> VideoGenerator {
    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::People,
    };
    VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap()
}

#[test]
fn shadow_education_recovers_most_of_the_teacher_accuracy() {
    // The paper's central accuracy claim in miniature: a pre-trained student
    // that fails on its own gets close(r) to the teacher once it is
    // intermittently distilled on the target stream.
    let (student, _) = pretrained_student();

    let frames = 120;
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut shadow_video = people_video(3);
    let shadow = runtime
        .run(
            "people",
            &mut shadow_video,
            frames,
            student.clone(),
            OracleTeacher::perfect(9),
        )
        .unwrap();

    let mut wild_video = people_video(3);
    let wild = run_wild(
        "people",
        &mut wild_video,
        frames,
        &student,
        OracleTeacher::perfect(9),
        &LatencyProfile::paper(),
    )
    .unwrap();

    // Compare over the second half of the stream, where the student has had
    // several shadow-education rounds; the wild student has no mechanism to
    // improve at all.
    let tail_mean = |records: &[shadowtutor::FrameRecord]| {
        let tail = &records[records.len() / 2..];
        100.0 * tail.iter().map(|f| f.miou).sum::<f64>() / tail.len() as f64
    };
    let shadow_tail = tail_mean(&shadow.frame_records);
    let wild_tail = tail_mean(&wild.frame_records);
    assert!(
        shadow_tail > wild_tail + 1.0,
        "distillation should beat the wild student on the stream tail: {shadow_tail:.1}% vs {wild_tail:.1}%"
    );
    assert!(
        shadow.mean_miou_percent() > wild.mean_miou_percent(),
        "distillation should beat the wild student overall: {:.1}% vs {:.1}%",
        shadow.mean_miou_percent(),
        wild.mean_miou_percent()
    );
}

#[test]
fn shadowtutor_transfers_far_less_data_than_naive_offloading() {
    let (student, _) = pretrained_student();
    let frames = 96;
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut shadow_video = people_video(5);
    let shadow = runtime
        .run(
            "people",
            &mut shadow_video,
            frames,
            student,
            OracleTeacher::perfect(2),
        )
        .unwrap();
    let mut naive_video = people_video(5);
    let naive = run_naive(
        "people",
        &mut naive_video,
        frames,
        OracleTeacher::perfect(2),
        &LatencyProfile::paper(),
        &LinkModel::paper_default(),
    )
    .unwrap();

    // The paper reports a ~95% average reduction in data per frame at 720p,
    // where the partial student update (0.395 MB) is smaller than a frame
    // (2.637 MB). Compare at those paper-scale payload sizes: the reduction
    // comes from ShadowTutor communicating only on sparse key frames.
    let shadow_paper = shadow.with_payload_sizes(2_637_000, 395_000);
    let naive_per_frame_mb = (3.0 * 1280.0 * 720.0 + 1280.0 * 720.0) / 1e6;
    let shadow_per_frame_mb = shadow_paper.total_data_mb() / shadow_paper.frames as f64;
    let reduction = 1.0 - shadow_per_frame_mb / naive_per_frame_mb;
    assert!(
        reduction > 0.5,
        "expected a large per-frame data reduction at paper scale, got {:.1}% ({shadow_per_frame_mb:.3} MB vs {naive_per_frame_mb:.3} MB)",
        100.0 * reduction
    );
    // And the key-frame ratio is far below 100% at any scale.
    assert!(shadow.key_frame_ratio_percent() < 20.0);
    let _ = naive;
}

#[test]
fn throughput_ordering_matches_the_paper_at_paper_scale_replay() {
    // Partial >= Full > Naive in FPS when replayed at paper payload sizes.
    let (student, _) = pretrained_student();
    let frames = 96;
    let link = LinkModel::paper_default();

    let run = |mode: DistillationMode, seed: u64| {
        let runtime = SimRuntime::paper(mode).with_update_delay(8);
        let mut video = people_video(seed);
        runtime
            .run(
                "people",
                &mut video,
                frames,
                student.clone(),
                OracleTeacher::perfect(4),
            )
            .unwrap()
    };
    let partial = run(DistillationMode::Partial, 6);
    let full = run(DistillationMode::Full, 6);

    let partial_fps = partial
        .with_payload_sizes(2_637_000, 395_000)
        .replay_fps(&link, Concurrency::Full);
    let full_fps = full
        .with_payload_sizes(2_637_000, 1_846_000)
        .replay_fps(&link, Concurrency::Full);
    // Naive at paper scale: ~0.36 s network + 0.044 s teacher per frame.
    let naive_fps = {
        let traffic = st_net::NaiveTraffic::for_frame(1280, 720);
        1.0 / (link.uplink_time(traffic.to_server_bytes)
            + LatencyProfile::paper().teacher_inference
            + link.downlink_time(traffic.to_client_bytes))
    };

    assert!(
        partial_fps > naive_fps * 2.0,
        "partial {partial_fps:.2} vs naive {naive_fps:.2}"
    );
    assert!(
        full_fps > naive_fps,
        "full {full_fps:.2} vs naive {naive_fps:.2}"
    );
    assert!(
        partial_fps >= full_fps * 0.95,
        "partial {partial_fps:.2} vs full {full_fps:.2}"
    );
}

#[test]
fn live_and_sim_runtimes_agree_on_protocol_behaviour() {
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();
    let frames = 40;
    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::Animals,
    };
    let config = VideoConfig::for_category(cat, 32, 24, 77);

    // Sim runtime.
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut sim_video = VideoGenerator::new(config).unwrap();
    let sim = runtime
        .run(
            "animals",
            &mut sim_video,
            frames,
            student.clone(),
            OracleTeacher::perfect(7),
        )
        .unwrap();

    // Live runtime over the same frames: the paper's one-client topology, a
    // one-stream pool on one shard.
    let mut live_video = VideoGenerator::new(config).unwrap();
    let stream = StreamSpec {
        stream_id: 0,
        label: "animals".into(),
        frames: live_video.take_frames(frames),
    };
    let live = run_live_multi(
        ShadowTutorConfig::paper(),
        vec![stream],
        student,
        PoolConfig::with_shards(1),
        |_| OracleTeacher::perfect(7),
    )
    .unwrap()
    .streams
    .remove(0);

    // Both process every frame, both start with a key frame, and both send a
    // comparable number of key frames (the live run's timing-dependent update
    // arrival can shift the schedule slightly).
    assert_eq!(sim.frames, frames);
    assert_eq!(live.record.frames, frames);
    assert!(sim.frame_records[0].is_key_frame);
    assert!(live.record.frame_records[0].is_key_frame);
    let diff = (sim.key_frame_count() as i64 - live.record.key_frame_count() as i64).abs();
    assert!(
        diff <= 3,
        "sim {} vs live {} key frames",
        sim.key_frame_count(),
        live.record.key_frame_count()
    );
    assert_eq!(live.server_key_frames, live.record.key_frame_count());
}

fn multi_specs(frames_per_stream: usize) -> Vec<StreamSpec> {
    // Four concurrent streams with deliberately different scene content, so
    // any cross-stream weight bleed would be visible in the checkpoints.
    vec![
        StreamSpec {
            stream_id: 0,
            label: "people-a".into(),
            frames: frames_for(SceneKind::People, 51, frames_per_stream),
        },
        StreamSpec {
            stream_id: 1,
            label: "animals".into(),
            frames: frames_for(SceneKind::Animals, 52, frames_per_stream),
        },
        StreamSpec {
            stream_id: 2,
            label: "street".into(),
            frames: frames_for(SceneKind::Street, 53, frames_per_stream),
        },
        StreamSpec {
            stream_id: 3,
            label: "people-b".into(),
            frames: frames_for(SceneKind::People, 54, frames_per_stream),
        },
    ]
}

#[test]
fn multi_stream_pool_isolates_streams_and_matches_single_stream_runs() {
    let (student, _) = pretrained_student();
    let config = ShadowTutorConfig::paper();
    let specs = multi_specs(32);

    // Four concurrent clients against a two-shard pool: two streams per
    // shard, so teacher batching and per-shard multiplexing are exercised.
    let multi = run_live_multi(
        config,
        specs.clone(),
        student.clone(),
        PoolConfig::with_shards(2),
        |shard| OracleTeacher::perfect(700 + shard as u64),
    )
    .unwrap();
    assert_eq!(multi.streams.len(), 4);
    for (outcome, spec) in multi.streams.iter().zip(&specs) {
        assert_eq!(outcome.record.frames, spec.frames.len(), "{}", spec.label);
        assert!(outcome.server_key_frames >= 1, "{}", spec.label);
    }

    // Per-stream isolation: serve each stream alone (same pool machinery,
    // one stream, one shard) as its baseline. Exact checkpoint equality
    // cannot be asserted on a wall-clock runtime — whether an update lands
    // one frame earlier or later can shift the key-frame schedule — so the
    // bleed check is relative: a stream's pooled checkpoint must stay far
    // closer to its own solo baseline than to any *other* scene's baseline,
    // and accuracy/key-frame counts must agree within a small tolerance.
    // (Exact, deterministic isolation is asserted at the `ServeShard` layer
    // in `shadowtutor::serve`'s unit tests.)
    let solos: Vec<_> = specs
        .iter()
        .map(|spec| {
            run_live_multi(
                config,
                vec![spec.clone()],
                student.clone(),
                PoolConfig::with_shards(1),
                |_| OracleTeacher::perfect(900),
            )
            .unwrap()
        })
        .collect();
    let scene_of = |label: &str| label.split('-').next().unwrap().to_string();
    for (outcome, spec) in multi.streams.iter().zip(&specs) {
        let solo = &solos[spec.stream_id as usize];
        let solo_outcome = &solo.streams[0];
        let multi_ckpt = &multi.pool.final_checkpoints[&spec.stream_id];
        let own_distance = multi_ckpt
            .distance(&solo.pool.final_checkpoints[&spec.stream_id])
            .unwrap();
        for (other, other_solo) in specs.iter().zip(&solos) {
            if scene_of(&other.label) == scene_of(&spec.label) {
                continue;
            }
            let cross_distance = multi_ckpt
                .distance(&other_solo.pool.final_checkpoints[&other.stream_id])
                .unwrap();
            assert!(
                own_distance < cross_distance,
                "{}: pooled checkpoint is closer to {}'s baseline ({own_distance} vs {cross_distance}) — cross-stream weight bleed",
                spec.label,
                other.label
            );
        }
        let miou_multi = outcome.record.mean_miou_percent();
        let miou_solo = solo_outcome.record.mean_miou_percent();
        assert!(
            (miou_multi - miou_solo).abs() < 5.0,
            "{}: pooled {miou_multi:.1}% vs solo {miou_solo:.1}%",
            spec.label
        );
        let key_diff =
            (outcome.server_key_frames as i64 - solo_outcome.server_key_frames as i64).abs();
        assert!(
            key_diff <= 2,
            "{}: pooled {} vs solo {} server key frames",
            spec.label,
            outcome.server_key_frames,
            solo_outcome.server_key_frames
        );
    }

    // Teacher batching across co-scheduled streams actually happened.
    assert!(multi.pool.mean_batch_size() >= 1.0);
}

#[test]
fn live_pool_serves_every_frame_on_one_shard_and_on_four() {
    let (student, _) = pretrained_student();
    let config = ShadowTutorConfig::paper();

    // The same four streams against one worker (maximum contention) and
    // four workers (no sharing).
    let run = |shards: usize| {
        run_live_multi(
            config,
            multi_specs(24),
            student.clone(),
            PoolConfig::with_shards(shards),
            |shard| OracleTeacher::perfect(800 + shard as u64),
        )
        .unwrap()
    };
    let contended = run(1);
    let spread = run(4);
    for outcome in contended.streams.iter().chain(spread.streams.iter()) {
        assert_eq!(outcome.record.frames, 24);
    }
    assert!(contended.aggregate_fps() > 0.0);
    assert!(spread.aggregate_fps() > 0.0);

    // Every key frame of the contended run queued at the one shard, while
    // the spread run gave each stream a shard (and a queue) of its own.
    // Which way the measured waits point is wall clock; `table8_multistream`
    // reports it.
    assert_eq!(contended.pool.shards.len(), 1);
    assert!(spread.pool.shards.iter().all(|shard| shard.key_frames > 0));
}

#[test]
fn hot_stream_cannot_starve_cold_streams() {
    use shadowtutor::serve::{FairScheduler, ServeShard, ShardJob};
    use std::collections::HashMap;

    let (student, _) = pretrained_student();
    let defaults = PoolConfig::default_pool();

    // --- Deterministic: DRR service positions on the shard layer. ---------
    // One hot stream with a 40-job backlog and five cold streams — more
    // streams than one batch holds — scheduled and served exactly as a pool
    // worker does it. The deficit-round-robin bound: a cold job is in
    // service within `ceil(streams / max_batch)` batches of arriving,
    // whatever the hot backlog in front of it. (A FIFO drain would make a
    // cold arrival wait out the backlog: ten batches here.)
    let (hot_id, cold_ids) = (0u64, 1u64..=5);
    let bound = (1 + cold_ids.clone().count()).div_ceil(defaults.max_batch);
    let mut scheduler = FairScheduler::new(defaults.quantum);
    let mut shard = ServeShard::new(
        ShadowTutorConfig::paper(),
        student.clone(),
        OracleTeacher::perfect(500),
        0.013,
    );
    let frames: HashMap<u64, Vec<st_video::Frame>> = std::iter::once((hot_id, 40))
        .chain(cold_ids.clone().map(|id| (id, 4)))
        .map(|(id, count)| (id, frames_for(SceneKind::Street, 7100 + id, count)))
        .collect();
    for (&id, stream_frames) in &frames {
        shard.register(id, FrameStore::from_frames(stream_frames, None), false);
    }
    let now = Instant::now();
    for frame in &frames[&hot_id] {
        scheduler.push(hot_id, frame.index, now);
    }
    let cold_frame = |id: u64, round: usize| frames[&id][round].index;
    // `arrived[job]` is how many batches had run when the cold job queued.
    let mut arrived: HashMap<(u64, usize), usize> = HashMap::new();
    let mut batches_run = 0usize;
    for round in 0..4 {
        for step in 0..bound {
            for id in cold_ids.clone() {
                // Even rounds: every cold stream arrives at once (the worst
                // case for the bound). Odd rounds: arrivals staggered
                // between the round's batches.
                let arrives = if round % 2 == 0 {
                    step == 0
                } else {
                    id as usize % bound == step
                };
                if arrives {
                    let frame_index = cold_frame(id, round);
                    scheduler.push(id, frame_index, now);
                    arrived.insert((id, frame_index), batches_run);
                }
            }
            let jobs: Vec<ShardJob> = scheduler
                .next_batch(defaults.max_batch)
                .iter()
                .map(|scheduled| scheduled.job)
                .collect();
            batches_run += 1;
            let outcome = shard.process_batch(&jobs).unwrap();
            assert_eq!(outcome.responses.len(), jobs.len(), "every job served");
            for job in &jobs {
                if let Some(at) = arrived.remove(&(job.stream_id, job.frame_index)) {
                    assert!(
                        batches_run - at <= bound,
                        "cold stream {} waited {} batches (bound {bound})",
                        job.stream_id,
                        batches_run - at
                    );
                }
            }
        }
    }
    assert!(arrived.is_empty(), "cold jobs left unserved: {arrived:?}");
    // The hot backlog was there throughout, and the hot stream was served
    // too — fairness, not starvation in the other direction.
    assert!(scheduler.queued_for(hot_id) > 0);
    assert!(scheduler.queued_for(hot_id) < 40);

    // --- Live smoke: a 4-stream, one-shard pool, stream 0 at 8x the rate. -
    // Counts only. Deficit-round-robin batching plus the per-stream
    // in-flight cap must keep the well-behaved streams fully serviced,
    // pushing the cost of the burstiness onto the hot stream itself.
    let skewed = run_skewed_load(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 1,
            ..defaults
        },
        student,
        |shard| {
            // The 16 ms wall-clock pause per teacher forward makes the
            // throttle assertion machine-independent: even with free
            // distillation, a full batch (4 jobs) takes at least
            // 16 * 1.6 = 25.6 ms, so the shard drains at most one hot
            // job per 6.4 ms while the 8x hot stream sends one every
            // 5 ms — its in-flight cap must fill within the run.
            PacedTeacher::new(
                OracleTeacher::perfect(500 + shard as u64),
                Duration::from_millis(16),
            )
        },
        SkewedLoadSpec {
            streams: 4,
            hot_multiplier: 8,
            key_frames_per_stream: 5,
            send_interval: Duration::from_millis(40),
            seed: 7008,
        },
    )
    .unwrap();
    // Every cold stream was fully serviced: each of its key frames got a
    // StudentUpdate — none starved, none throttled, none dropped.
    for cold in skewed.cold() {
        assert_eq!(
            cold.updates, cold.sent,
            "cold stream {} starved: {} of {} key frames serviced",
            cold.stream_id, cold.updates, cold.sent
        );
        assert_eq!(
            cold.throttled, 0,
            "cold stream {} throttled",
            cold.stream_id
        );
        assert_eq!(cold.dropped, 0, "cold stream {} dropped", cold.stream_id);
    }
    // Nothing was silently lost in this non-adversarial scenario.
    assert_eq!(skewed.pool.dropped_jobs(), 0);
    // The hot stream bore its own excess: at 8x the base rate against a
    // paced teacher its in-flight cap had to engage.
    let hot = skewed.hot();
    assert!(
        hot.throttled > 0,
        "admission control never engaged on the hot stream ({} sent)",
        hot.sent
    );
    // And everything the hot stream sent was still answered explicitly.
    assert_eq!(hot.updates + hot.throttled + hot.dropped, hot.sent);
}

#[test]
fn key_frame_after_shutdown_is_acked_and_counted_not_silently_lost() {
    // The shutdown race from the silent-drop bug: a key frame that reaches
    // the shard after its stream's Shutdown (here: sent after Shutdown on
    // the same FIFO uplink) cannot be served — the session is retired — but
    // it must be *accounted*: dropped_jobs increments and the client gets an
    // explicit Dropped ack so its frame bookkeeping cannot skew.
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig {
            shards: 1,
            ..PoolConfig::default_pool()
        },
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(77),
    )
    .unwrap();
    let frames = frames_for(SceneKind::People, 88, 2);
    let mut client = pool.connect(3, &frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));

    let send_key = |client: &mut shadowtutor::serve::StreamClient, index: usize| {
        let payload = Payload::sized(frames[0].raw_rgb_bytes());
        let bytes = payload.bytes;
        client
            .send(
                ClientToServer::KeyFrame {
                    frame_index: index,
                    payload,
                },
                bytes,
            )
            .unwrap();
    };
    send_key(&mut client, frames[0].index);
    client.send(ClientToServer::Shutdown, 1).unwrap();
    send_key(&mut client, frames[1].index);

    // The key frame queued ahead of the Shutdown is flushed, not lost...
    let update = client.recv_timeout(Duration::from_secs(10)).unwrap();
    match update {
        ServerToClient::StudentUpdate { frame_index, .. } => {
            assert_eq!(frame_index, frames[0].index)
        }
        other => panic!("expected StudentUpdate, got {other:?}"),
    }
    // ...and the late one gets an explicit drop ack instead of vanishing.
    let ack = client.recv_timeout(Duration::from_secs(10)).unwrap();
    match ack {
        ServerToClient::Dropped {
            frame_index,
            reason,
        } => {
            assert_eq!(frame_index, frames[1].index);
            assert_eq!(reason, DropReason::UnknownStream);
        }
        other => panic!("expected Dropped, got {other:?}"),
    }
    drop(client);
    let stats = pool.join().unwrap();
    assert_eq!(stats.dropped_jobs(), 1, "the drop must be counted");
    assert_eq!(stats.total_key_frames(), 1);
    assert_eq!(stats.streams[&3].key_frames, 1);
    // The drop is attributed to the stream even though it was already
    // retired when the late frame arrived.
    assert_eq!(stats.streams[&3].dropped, 1);
    assert_eq!(stats.streams[&3].throttled, 0);
}

/// The batched-teacher tentpole on a real CnnTeacher: co-scheduled key
/// frames are labelled by *one* genuinely batched forward — counted on the
/// shard (the exact state machine the pool workers drive) and then served
/// by a live 4-stream pool. What the batching buys in wall-clock terms is
/// gated where a perf gate belongs: `reproduce table10`
/// (`st_bench::tables::table10_gate`) in CI's `bench-smoke` job.
#[test]
fn batched_cnn_teacher_amortizes_measured_cost_in_the_pool() {
    use shadowtutor::serve::{ServeShard, ShardJob};
    use st_teacher::CnnTeacher;

    let config = ShadowTutorConfig::paper();
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();

    // --- Deterministic shard accounting: batch 8 vs batch 1. --------------
    // Four streams, two pre-shared frames each => 8 co-schedulable jobs.
    let mut shard = ServeShard::new(
        config,
        student.clone(),
        CnnTeacher::untrained(1, 7).unwrap(),
        0.013,
    );
    let specs = multi_specs(2);
    let mut jobs: Vec<ShardJob> = Vec::new();
    for spec in &specs {
        shard.register(
            spec.stream_id,
            shadowtutor::serve::FrameStore::from_frames(&spec.frames, None),
            false,
        );
        for frame in &spec.frames {
            jobs.push(ShardJob {
                stream_id: spec.stream_id,
                frame_index: frame.index,
            });
        }
    }
    assert_eq!(jobs.len(), 8);

    // One co-scheduled batch of 8: a single batched teacher forward.
    let outcome = shard.process_batch(&jobs).unwrap();
    assert_eq!(outcome.responses.len(), 8);
    let batched = shard.stats();
    assert_eq!(batched.teacher_batches, 1);
    assert_eq!(batched.key_frames, 8);
    assert_eq!(batched.max_batch_observed, 8);
    assert_eq!(batched.mean_batch_size(), 8.0);
    // The same 8 jobs served one at a time: 8 solo forwards.
    for job in &jobs {
        shard.process_batch(std::slice::from_ref(job)).unwrap();
    }
    let solo = shard.stats();
    assert_eq!(solo.teacher_batches - batched.teacher_batches, 8);
    assert_eq!(solo.key_frames, 16);
    assert_eq!(solo.mean_batch_size(), 16.0 / 9.0);
    // Real compute was timed.
    assert!(batched.teacher_wall_time > Duration::ZERO);

    // --- Live 4-stream pool run over the same teacher. --------------------
    // One shard so all four streams co-schedule; quantum 2 and a
    // `max_batch` of 8 let a full backlog drain in one batched forward.
    let pool = ServerPool::spawn(
        config,
        PoolConfig {
            shards: 1,
            max_batch: 8,
            max_in_flight: 2,
            quantum: 2,
            ..PoolConfig::default_pool()
        },
        student,
        0.013,
        |_| CnnTeacher::untrained(1, 7).unwrap(),
    )
    .unwrap();
    let specs = multi_specs(2);
    let mut clients: Vec<_> = specs
        .iter()
        .map(|spec| pool.connect(spec.stream_id, &spec.frames).unwrap())
        .collect();
    for (client, spec) in clients.iter_mut().zip(&specs) {
        let initial = client.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
        for frame in &spec.frames {
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
    for (client, spec) in clients.iter_mut().zip(&specs) {
        for _ in &spec.frames {
            let update = client.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(matches!(update, ServerToClient::StudentUpdate { .. }));
        }
        client.send(ClientToServer::Shutdown, 1).unwrap();
    }
    drop(clients);
    let stats = pool.join().unwrap();
    assert_eq!(stats.total_key_frames(), 8);
    assert_eq!(stats.dropped_jobs(), 0);
    assert_eq!(stats.throttled(), 0);
    // Real compute was measured. How deep the live batches got depends on
    // an arrival race (clients push while the worker drains), so the pool
    // is only held to the accounting identity between its two counters.
    assert!(stats.teacher_wall_time() > Duration::ZERO);
    let shard_stats = &stats.shards[0];
    assert!((1..=8).contains(&shard_stats.teacher_batches));
    assert_eq!(
        shard_stats.mean_batch_size(),
        8.0 / shard_stats.teacher_batches as f64
    );
}

/// The pool's answers to a stream's own key-frame protocol: a key frame
/// sent twice is answered twice (the two jobs may not collapse into one),
/// and a frame index the stream never pre-shared is refused at the door
/// with an explicit `Dropped { UnknownFrame }`.
#[test]
fn repeated_key_frames_are_answered_twice_and_unshared_ones_dropped() {
    let frames = frames_for(SceneKind::People, 93, 4);
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        PoolConfig::with_shards(1),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(93),
    )
    .unwrap();
    let mut client = pool.connect(5, &frames).unwrap();
    let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    let send = |client: &mut StreamClient, frame_index: usize| {
        let payload = Payload::sized(frames[0].raw_rgb_bytes());
        let bytes = payload.bytes;
        client
            .send(
                ClientToServer::KeyFrame {
                    frame_index,
                    payload,
                },
                bytes,
            )
            .unwrap();
    };

    // A client may legally re-send a key frame: two sends, two updates.
    send(&mut client, frames[1].index);
    send(&mut client, frames[1].index);
    for _ in 0..2 {
        match client.recv_timeout(Duration::from_secs(10)).unwrap() {
            ServerToClient::StudentUpdate { frame_index, .. } => {
                assert_eq!(frame_index, frames[1].index)
            }
            other => panic!("expected StudentUpdate, got {other:?}"),
        }
    }

    // A frame that was never shared is a protocol error: explicit drop ack.
    send(&mut client, 999);
    match client.recv_timeout(Duration::from_secs(10)).unwrap() {
        ServerToClient::Dropped {
            frame_index,
            reason,
        } => {
            assert_eq!(frame_index, 999);
            assert_eq!(reason, DropReason::UnknownFrame);
        }
        other => panic!("expected Dropped, got {other:?}"),
    }
    client.send(ClientToServer::Shutdown, 1).unwrap();
    drop(client);
    let stats = pool.join().unwrap();
    assert_eq!(stats.total_key_frames(), 2);
    assert_eq!(stats.streams[&5].key_frames, 2);
    assert_eq!(stats.streams[&5].dropped, 1);
    assert_eq!(stats.dropped_jobs(), 1);
}

#[test]
fn all_seven_categories_run_and_report_valid_metrics() {
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    for descriptor in category_videos(Resolution::Tiny, 123) {
        let mut video = VideoGenerator::new(descriptor.config).unwrap();
        let record = runtime
            .run(
                &descriptor.name,
                &mut video,
                24,
                student.clone(),
                OracleTeacher::perfect(11),
            )
            .unwrap();
        assert_eq!(record.frames, 24, "{}", descriptor.name);
        assert!(record.key_frame_count() >= 1);
        assert!(record.mean_miou_percent() >= 0.0 && record.mean_miou_percent() <= 100.0);
        assert!(record.fps() > 0.0);
        assert!(record.total_data_mb() > 0.0);
    }
}

/// The API redesign's compatibility contract: the `connect()` builder over
/// the in-process channel backend is exactly the raw transport pair wrapped
/// by hand — same delivery, same distillation output bit for bit, same
/// measured wire bytes. A scripted lockstep session (client endpoint and server half
/// pumped alternately from one thread, real distillation on the server
/// side) removes timing from the picture, so any divergence would be the
/// builder's fault, not the scheduler's.
#[test]
fn channel_backend_distillation_output_is_bit_identical_to_raw_pair() {
    use shadowtutor::server::DistillSession;
    use st_net::transport::{DuplexTransport, Endpoint};
    use st_teacher::Teacher;
    use st_video::Frame;

    /// Drive the fixed script over whichever endpoint/server pair we were
    /// handed; return the concatenated downlink payload bytes (initial
    /// checkpoint + every weight update + metrics) and the endpoint's
    /// measured wire counters.
    fn scripted_run<T>(
        mut endpoint: Endpoint<T>,
        mut server_side: DuplexTransport<ServerToClient, ClientToServer>,
        frames: &[Frame],
        key_indices: &[usize],
        student: StudentNet,
    ) -> (Vec<u8>, usize, usize)
    where
        T: st_net::Transport<ClientToServer, ServerToClient>,
    {
        let timeout = Duration::from_secs(5);
        let mut teacher = OracleTeacher::perfect(7);
        let mut session = DistillSession::new(ShadowTutorConfig::paper(), student, 0.013);
        let mut output: Vec<u8> = Vec::new();

        let init = session.initial_checkpoint();
        server_side
            .send(
                ServerToClient::InitialStudent {
                    payload: Payload::with_data(init.encode()),
                },
                0,
            )
            .unwrap();
        match endpoint.recv_timeout(timeout).unwrap() {
            ServerToClient::InitialStudent { payload } => {
                output.extend_from_slice(payload.data.as_ref().expect("initial payload"));
            }
            other => panic!("expected InitialStudent, got {other:?}"),
        }

        for &index in key_indices {
            let content: Vec<u8> = (0..frames[index].raw_rgb_bytes())
                .map(|i| (i % 251) as u8)
                .collect();
            endpoint
                .send(
                    ClientToServer::KeyFrame {
                        frame_index: index,
                        payload: Payload::with_data(bytes::Bytes::from(content)),
                    },
                    0,
                )
                .unwrap();
            let frame_index = match server_side.recv_timeout(timeout).unwrap() {
                ClientToServer::KeyFrame { frame_index, .. } => frame_index,
                other => panic!("expected KeyFrame, got {other:?}"),
            };
            let frame = &frames[frame_index];
            let label = teacher.pseudo_label(frame).unwrap();
            let response = session.distill(frame, &label, 0.044).unwrap();
            server_side
                .send(
                    ServerToClient::StudentUpdate {
                        frame_index,
                        metric: response.metric,
                        distill_steps: response.outcome.steps,
                        payload: Payload::with_data(response.update.encode()),
                    },
                    0,
                )
                .unwrap();
            match endpoint.recv_timeout(timeout).unwrap() {
                ServerToClient::StudentUpdate {
                    metric,
                    distill_steps,
                    payload,
                    ..
                } => {
                    output.extend_from_slice(payload.data.as_ref().expect("update payload"));
                    output.extend_from_slice(&metric.to_le_bytes());
                    output.extend_from_slice(&(distill_steps as u64).to_le_bytes());
                }
                other => panic!("expected StudentUpdate, got {other:?}"),
            }
        }
        endpoint.send(ClientToServer::Shutdown, 0).unwrap();
        assert!(matches!(
            server_side.recv_timeout(timeout).unwrap(),
            ClientToServer::Shutdown
        ));
        (
            output,
            endpoint.wire_sent_bytes(),
            endpoint.wire_received_bytes(),
        )
    }

    let (student, _) = pretrained_student();
    let frames = frames_for(SceneKind::People, 5, 24);
    let key_indices = [0usize, 6, 12, 18];

    // Backend A: the builder over a channel pair.
    let (built_client, built_server) = DuplexTransport::pair();
    let built = scripted_run(
        st_net::connect().with_transport(built_client),
        built_server,
        &frames,
        &key_indices,
        student.clone(),
    );

    // Backend B: a raw transport pair wrapped by hand — what the code looked
    // like before the builder existed.
    let (client_side, server_side) = DuplexTransport::pair();
    let raw = scripted_run(
        Endpoint::new(client_side),
        server_side,
        &frames,
        &key_indices,
        student,
    );

    assert_eq!(
        built.0, raw.0,
        "distillation output diverged between the channel builder and the raw pair"
    );
    assert!(!built.0.is_empty());
    assert_eq!(built.1, raw.1, "measured uplink wire bytes diverged");
    assert_eq!(built.2, raw.2, "measured downlink wire bytes diverged");
}
