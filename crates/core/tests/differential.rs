//! Differential test layer for the content-keyed weight store and the
//! student-or-nothing update rule: copy-on-write sessions and answers that
//! carry weights only when the student changed are pure *representation*
//! changes — every weight a stream ever serves with is bit-for-bit
//! identical to the deep-clone + full-snapshot baseline.
//!
//! Two layers, complementary by design:
//!
//! * **Shard layer** ([`shard_layer_cow_delta_is_bit_identical_to_clone_full`])
//!   drives two [`ServeShard`]s directly on the same key-frame schedule —
//!   fully deterministic, so equality is asserted on every intermediate
//!   update, not just the final state. The copy-on-write shard additionally
//!   co-batches streams while the deep-clone shard serves them solo, so the
//!   comparison also re-proves that batch composition never changes an
//!   answer.
//! * **Live layer** (`live_pool_*`) runs the real multi-stream runtime. A
//!   wall-clock runtime is only deterministic when the client is in
//!   lockstep with the server, so these runs pin `min_stride: 1` — the
//!   client then blocks for every update on the key frame itself, update
//!   arrival can never straddle a frame boundary, and the final client
//!   students of a (CoW + delta) run must equal a (DeepClone + full) run
//!   bit for bit, with one reactor worker per shard and with fewer workers
//!   than shards — and with the (CoW + delta) side's key frames distilled
//!   by a crew of helper threads while the reference side has none.

use std::collections::HashMap;

use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::runtime::live::{run_live_multi, StreamSpec};
use shadowtutor::serve::{FrameStore, PoolConfig, ServeShard, SessionWeights, ShardJob};
use st_net::{StreamId, Wire};
use st_nn::delta::WeightPayload;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_video::dataset::tiny_stream;
use st_video::{Frame, SceneKind};

const TEACHER_SEED: u64 = 4242;
const SCENES: [SceneKind; 3] = [SceneKind::People, SceneKind::Animals, SceneKind::Street];

fn template() -> StudentNet {
    let config = ShadowTutorConfig::paper();
    let mut net = StudentNet::new(StudentConfig::tiny()).expect("tiny student");
    net.freeze = config.mode.freeze_point();
    net
}

fn stream_frames(streams: usize, frames_per_stream: usize) -> Vec<(StreamId, Vec<Frame>)> {
    (0..streams)
        .map(|i| {
            (
                i as StreamId,
                tiny_stream(SCENES[i % SCENES.len()], 9100 + i as u64, frames_per_stream),
            )
        })
        .collect()
}

/// One client's view of the update wire protocol, mirroring
/// `runtime::live`'s client: the student, which takes a `Full` envelope
/// when an answer carries one.
struct DeltaClient {
    student: StudentNet,
}

impl DeltaClient {
    /// A client holding the pristine template, as the live driver does
    /// before the `InitialStudent` envelope arrives.
    fn new() -> Self {
        DeltaClient {
            student: template(),
        }
    }

    /// Decode one `Full` envelope off the wire and apply it, exactly as the
    /// live client driver does. Returns the payload's encoded size.
    fn apply_wire(&mut self, encoded: &[u8]) -> usize {
        let payload = <WeightPayload as Wire>::decode(&mut &encoded[..]).expect("decode payload");
        let WeightPayload::Full(snapshot) = payload else {
            panic!("the pool never sends a delta");
        };
        snapshot.apply(&mut self.student).expect("apply full");
        encoded.len()
    }

    fn state(&mut self) -> WeightSnapshot {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full)
    }
}

/// Deterministic differential at the shard layer: the same key-frame
/// schedule through a copy-on-write shard shipping the student only when it
/// changed and a deep-clone shard shipping full snapshots must produce
/// bit-identical responses,
/// client states, and final server checkpoints — even though the CoW shard
/// co-batches all streams per round while the clone shard serves each
/// stream solo.
#[test]
fn shard_layer_cow_delta_is_bit_identical_to_clone_full() {
    let config = ShadowTutorConfig::paper();
    let streams = stream_frames(3, 5);

    let mut cow = ServeShard::new(
        config,
        template(),
        OracleTeacher::perfect(TEACHER_SEED),
        0.013,
    )
    .with_session_weights(SessionWeights::CopyOnWrite);
    let mut clone = ServeShard::new(
        config,
        template(),
        OracleTeacher::perfect(TEACHER_SEED),
        0.013,
    )
    .with_session_weights(SessionWeights::DeepClone);

    let mut delta_clients: HashMap<StreamId, DeltaClient> = HashMap::new();
    let mut full_clients: HashMap<StreamId, DeltaClient> = HashMap::new();
    for (id, frames) in &streams {
        let initial_cow = cow.register(*id, FrameStore::from_frames(frames, None), true);
        let initial_clone = clone.register(*id, FrameStore::from_frames(frames, None), false);
        assert_eq!(
            initial_cow.encode(),
            initial_clone.encode(),
            "stream {id}: registration checkpoints diverged before any training"
        );
        // Both clients bootstrap from the initial checkpoint inside a Full
        // envelope, like the live runtime's InitialStudent.
        let mut delta_client = DeltaClient::new();
        delta_client.apply_wire(&WeightPayload::encode_full(&initial_cow));
        delta_clients.insert(*id, delta_client);
        let mut full_client = DeltaClient::new();
        full_client.apply_wire(&WeightPayload::encode_full(&initial_clone));
        full_clients.insert(*id, full_client);
    }

    let rounds = streams.iter().map(|(_, f)| f.len()).max().unwrap();
    let mut delta_wire_bytes = 0usize;
    let mut full_wire_bytes = 0usize;
    for round in 0..rounds {
        let jobs: Vec<ShardJob> = streams
            .iter()
            .filter_map(|(id, frames)| {
                frames.get(round).map(|frame| ShardJob {
                    stream_id: *id,
                    frame_index: frame.index,
                })
            })
            .collect();
        // CoW shard: one co-scheduled batch. Clone shard: solo batches.
        let cow_out = cow.process_batch(&jobs).expect("cow batch");
        assert_eq!(cow_out.responses.len(), jobs.len());
        let mut clone_responses = Vec::new();
        for job in &jobs {
            let out = clone
                .process_batch(std::slice::from_ref(job))
                .expect("clone batch");
            assert_eq!(out.responses.len(), 1);
            clone_responses.extend(out.responses);
        }

        for (stream_id, frame_index, response) in &cow_out.responses {
            let (clone_stream, clone_frame, clone_response) = clone_responses
                .iter()
                .find(|(id, _, _)| id == stream_id)
                .expect("clone served the same stream");
            assert_eq!(stream_id, clone_stream);
            assert_eq!(frame_index, clone_frame);
            // Representation differential: distillation through a CoW
            // session inside a batch equals a deep-cloned solo session,
            // bit for bit, on every intermediate update.
            assert_eq!(
                response.update.encode(),
                clone_response.update.encode(),
                "stream {stream_id} frame {frame_index}: updates diverged"
            );
            assert_eq!(response.metric, clone_response.metric);
            assert_eq!(response.outcome.steps, clone_response.outcome.steps);

            // Wire differential: ship the same update both ways, the
            // delta pool's way carrying weights only when they changed.
            if response.outcome.changed {
                delta_wire_bytes += delta_clients
                    .get_mut(stream_id)
                    .expect("delta client")
                    .apply_wire(&WeightPayload::encode_full(&response.update));
            }
            full_wire_bytes += full_clients
                .get_mut(stream_id)
                .expect("full client")
                .apply_wire(&WeightPayload::encode_full(&clone_response.update));

            let delta_state = delta_clients
                .get_mut(stream_id)
                .expect("delta client")
                .state();
            let full_state = full_clients
                .get_mut(stream_id)
                .expect("full client")
                .state();
            assert_eq!(
                delta_state.encode(),
                full_state.encode(),
                "stream {stream_id} frame {frame_index}: client states diverged"
            );
        }
    }
    assert!(0 < delta_wire_bytes && delta_wire_bytes <= full_wire_bytes);

    // Final server checkpoints agree with each other and with what the
    // clients reconstructed from the wire.
    for (id, _) in &streams {
        let (cow_final, _) = cow.finish(*id).expect("cow session");
        let (clone_final, _) = clone.finish(*id).expect("clone session");
        assert_eq!(cow_final.encode(), clone_final.encode());
        let client_state = delta_clients.get_mut(id).expect("delta client").state();
        assert_eq!(
            client_state.encode(),
            cow_final.encode(),
            "stream {id}: delta client drifted from the server checkpoint"
        );
    }
}

/// `min_stride: 1` forces the live client into lockstep: every key frame
/// blocks for its update, so the whole run is deterministic and exact
/// equality across configurations is a sound assertion.
fn lockstep_config() -> ShadowTutorConfig {
    ShadowTutorConfig {
        min_stride: 1,
        ..ShadowTutorConfig::paper()
    }
}

fn lockstep_specs(frames_per_stream: usize) -> Vec<StreamSpec> {
    stream_frames(3, frames_per_stream)
        .into_iter()
        .map(|(stream_id, frames)| StreamSpec {
            stream_id,
            label: format!("diff-{stream_id}"),
            frames,
        })
        .collect()
}

/// Run the same lockstep workload under (CoW + delta) on `cow_pool` and
/// (DeepClone + full) on `clone_pool` and assert the outcomes are
/// bit-identical, per stream, on both the client and the server side. The
/// two pools must agree on the shard count (placement, and with it each
/// stream's teacher seed, follows from it). Returns how many key frames the
/// (CoW + delta) pool's crew helpers distilled.
fn assert_live_differential(cow_pool: PoolConfig, clone_pool: PoolConfig) -> usize {
    let config = lockstep_config();
    let student = template();
    let run = |pool: PoolConfig| {
        run_live_multi(config, lockstep_specs(20), student.clone(), pool, |shard| {
            OracleTeacher::perfect(TEACHER_SEED + shard as u64)
        })
        .expect("live differential run")
    };
    let cow = run(PoolConfig {
        session_weights: SessionWeights::CopyOnWrite,
        delta_updates: true,
        ..cow_pool
    });
    let clone = run(PoolConfig {
        session_weights: SessionWeights::DeepClone,
        delta_updates: false,
        ..clone_pool
    });
    // A pool without helpers offloads nothing, by construction.
    for (pool, outcome) in [(cow_pool, &cow), (clone_pool, &clone)] {
        if pool.crew_helpers() == 0 {
            assert_eq!(outcome.pool.jobs_offloaded(), 0);
        }
    }

    for (cow_stream, clone_stream) in cow.streams.iter().zip(&clone.streams) {
        let label = &cow_stream.record.label;
        assert_eq!(
            cow_stream.record.frames, clone_stream.record.frames,
            "{label}"
        );
        assert_eq!(
            cow_stream.record.key_frame_count(),
            clone_stream.record.key_frame_count(),
            "{label}: key-frame schedules diverged — the runs were not in lockstep"
        );
        // The headline: the weights each stream would keep serving with are
        // bit-identical across representations.
        assert_eq!(
            cow_stream.final_student.encode(),
            clone_stream.final_student.encode(),
            "{label}: final client students diverged"
        );
    }
    // Server-side checkpoints agree across the two runs too.
    for (stream_id, cow_ckpt) in &cow.pool.final_checkpoints {
        let clone_ckpt = &clone.pool.final_checkpoints[stream_id];
        assert_eq!(
            cow_ckpt.encode(),
            clone_ckpt.encode(),
            "stream {stream_id}: server checkpoints diverged"
        );
    }

    // And the representation paid off: the store-backed run is resident-
    // smaller and wire-cheaper than (or equal to, never worse than) the
    // clone/full-equivalent accounting it reports.
    let cow_report = cow.pool.snapshot();
    let clone_report = clone.pool.snapshot();
    assert!(
        cow_report.weights_resident_bytes() < clone_report.weights_resident_bytes(),
        "cow {} >= clone {} resident bytes",
        cow_report.weights_resident_bytes(),
        clone_report.weights_resident_bytes()
    );
    cow_report.jobs_offloaded
}

#[test]
fn live_pool_differential_worker_per_shard_multiplexed() {
    assert_live_differential(PoolConfig::with_shards(2), PoolConfig::with_shards(2));
}

/// Both shards on one reactor worker (`with_shards(2)` alone already means
/// one worker per shard — the case above).
#[test]
fn live_pool_differential_reactor_driver() {
    let pool = PoolConfig {
        reactor_threads: Some(1),
        ..PoolConfig::with_shards(2)
    };
    assert_live_differential(pool, pool);
}

/// One shard on one reactor worker leaves every other core to the distill
/// crew; the reference pool runs a reactor worker per core and so has no
/// crew at all. Which thread distilled a key frame may not show in a single
/// weight.
#[test]
fn live_pool_differential_crew_against_no_crew() {
    let crewed = PoolConfig::with_shards(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let alone = PoolConfig {
        reactor_threads: Some(cores),
        ..PoolConfig::with_shards(1)
    };
    assert_eq!(alone.crew_helpers(), 0);
    assert_eq!(crewed.crew_helpers(), (cores - 1).min(crewed.max_batch - 1));
    let offloaded = assert_live_differential(crewed, alone);
    // Three lockstep streams on one shard queue behind each other from the
    // first key frame on, so batches of two or three are the rule and a
    // parked helper is offered every one of them.
    assert!(
        offloaded > 0 || crewed.crew_helpers() == 0,
        "a crew of {} never distilled a key frame",
        crewed.crew_helpers()
    );
}
