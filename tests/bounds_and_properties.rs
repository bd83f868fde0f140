//! Property-based and analytic-consistency integration tests.
//!
//! These tests check the invariants the paper's §4.4 analysis relies on —
//! measured values stay inside the closed-form bounds, the stride rule stays
//! clamped, snapshots round-trip — using proptest for the pure functions and
//! targeted runs for the end-to-end properties.

use proptest::prelude::*;
use shadowtutor::bounds::{throughput_bounds, traffic_bounds, BoundInputs};
use shadowtutor::config::{DistillationMode, ShadowTutorConfig};
use shadowtutor::next_stride;
use shadowtutor::runtime::sim::SimRuntime;
use shadowtutor::{Concurrency, LatencyProfile};
use st_net::LinkModel;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 2 output always stays within [MIN_STRIDE, MAX_STRIDE] and is
    /// monotone in the metric.
    #[test]
    fn stride_is_clamped_and_monotone(stride in 1usize..200, m1 in 0.0f64..1.0, m2 in 0.0f64..1.0) {
        let config = ShadowTutorConfig::paper();
        let s1 = next_stride(&config, stride, m1);
        let s2 = next_stride(&config, stride, m2);
        prop_assert!(s1 >= config.min_stride && s1 <= config.max_stride);
        prop_assert!(s2 >= config.min_stride && s2 <= config.max_stride);
        if m1 <= m2 {
            prop_assert!(s1 <= s2, "stride must be monotone in the metric");
        }
    }

    /// The closed-form lower bounds never exceed the upper bounds, for any
    /// reasonable latency/payload combination.
    #[test]
    fn analytic_bounds_are_ordered(
        t_si in 0.01f64..0.5,
        t_sd in 0.001f64..0.1,
        t_ti in 0.005f64..0.2,
        t_net in 0.01f64..3.0,
        s_net in 10_000usize..10_000_000,
    ) {
        let config = ShadowTutorConfig::paper();
        let inputs = BoundInputs { t_si, t_sd, t_ti, t_net, s_net };
        let tp = throughput_bounds(&config, &inputs);
        let tr = traffic_bounds(&config, &inputs);
        prop_assert!(tp.lower_fps <= tp.upper_fps + 1e-12);
        prop_assert!(tr.lower_bps <= tr.upper_bps + 1e-12);
        prop_assert!(tp.lower_fps > 0.0 && tr.lower_bps > 0.0);
    }

    /// Deficit-round-robin batching never hands the teacher more than
    /// `max_batch` key frames per forward, conserves every queued job, and
    /// drains without stalling — for any mix of stream backlogs, quantum,
    /// and window size.
    #[test]
    fn drr_batches_respect_the_cap_and_conserve_jobs(
        jobs_per_stream in prop::collection::vec(0usize..12, 1..8),
        max_batch in 1usize..9,
        quantum in 1usize..4,
    ) {
        use shadowtutor::serve::FairScheduler;
        use std::time::Instant;
        let mut scheduler = FairScheduler::new(quantum);
        let now = Instant::now();
        let total: usize = jobs_per_stream.iter().sum();
        for (stream, &jobs) in jobs_per_stream.iter().enumerate() {
            for frame in 0..jobs {
                scheduler.push(stream as u64, frame, now);
            }
        }
        prop_assert_eq!(scheduler.len(), total);
        let streams = jobs_per_stream.len();
        let mut drained = 0usize;
        let mut batches = 0usize;
        let mut first_served: Vec<Option<usize>> = vec![None; streams];
        while !scheduler.is_empty() {
            let batch = scheduler.next_batch(max_batch);
            prop_assert!(batch.len() <= max_batch, "batch exceeded max_batch");
            prop_assert!(!batch.is_empty(), "non-empty scheduler made no progress");
            for scheduled in &batch {
                let stream = scheduled.job.stream_id as usize;
                first_served[stream].get_or_insert(batches);
            }
            drained += batch.len();
            batches += 1;
            prop_assert!(batches <= total + 1, "drain did not terminate");
        }
        prop_assert_eq!(drained, total, "jobs lost or invented by the scheduler");
        prop_assert!(scheduler.is_empty());
        // No starvation: every stream with jobs is first served within a
        // bounded number of batches of the drain's start (each batch serves
        // the ring head and rotates spent turns to the back).
        let bound = streams * quantum;
        for (stream, &jobs) in jobs_per_stream.iter().enumerate() {
            if jobs > 0 {
                let first = first_served[stream];
                prop_assert!(first.is_some(), "stream {} never served", stream);
                prop_assert!(
                    first.unwrap() <= bound,
                    "stream {} first served only at batch {} (bound {})",
                    stream, first.unwrap(), bound
                );
            }
        }
    }

    /// Weight snapshots encode/decode losslessly for any freeze scope.
    #[test]
    fn snapshot_encoding_round_trips(seed in 0u64..1000, partial in any::<bool>()) {
        let mut net = StudentNet::new(StudentConfig { seed, ..StudentConfig::tiny() }).unwrap();
        net.freeze = if partial {
            DistillationMode::Partial.freeze_point()
        } else {
            DistillationMode::Full.freeze_point()
        };
        let scope = if partial { SnapshotScope::TrainableOnly } else { SnapshotScope::Full };
        let snap = WeightSnapshot::capture(&mut net, scope);
        let decoded = WeightSnapshot::decode(&snap.encode(), scope).unwrap();
        prop_assert_eq!(decoded.entry_count(), snap.entry_count());
        prop_assert_eq!(decoded.scalar_count(), snap.scalar_count());
    }

    /// The execution-time replay is monotone: more bandwidth never lowers
    /// throughput; a fully-concurrent client is never slower than a
    /// non-concurrent one.
    #[test]
    fn replay_is_monotone_in_bandwidth(mbps_lo in 2.0f64..40.0, extra in 1.0f64..60.0) {
        let record = synthetic_trace();
        let lo = record.replay_fps(&LinkModel::symmetric_mbps(mbps_lo), Concurrency::Full);
        let hi = record.replay_fps(&LinkModel::symmetric_mbps(mbps_lo + extra), Concurrency::Full);
        prop_assert!(hi + 1e-9 >= lo, "more bandwidth lowered throughput: {lo} -> {hi}");
        let none = record.replay_fps(&LinkModel::symmetric_mbps(mbps_lo), Concurrency::None);
        prop_assert!(lo + 1e-9 >= none);
    }
}

fn synthetic_trace() -> shadowtutor::ExperimentRecord {
    use shadowtutor::report::{FrameRecord, KeyFrameRecord};
    let frames = 2000usize;
    let key_every = 20usize;
    shadowtutor::ExperimentRecord {
        label: "synthetic".into(),
        variant: "partial".into(),
        frames,
        frame_records: (0..frames)
            .map(|i| FrameRecord {
                index: i,
                is_key_frame: i % key_every == 0,
                miou: 0.7,
                waited: false,
            })
            .collect(),
        key_frames: (0..frames / key_every)
            .map(|i| KeyFrameRecord {
                frame_index: i * key_every,
                steps: 4,
                initial_metric: 0.6,
                metric: 0.85,
                stride_after: key_every,
            })
            .collect(),
        frame_bytes: 2_637_000,
        update_bytes: 395_000,
        uplink_bytes: 0,
        downlink_bytes: 0,
        total_time: 0.0,
        config: ShadowTutorConfig::paper(),
        latency: LatencyProfile::paper(),
    }
}

#[test]
fn measured_traffic_and_throughput_respect_the_paper_bounds() {
    // Run a real (small) stream, replay it at paper scale, and check the
    // measured values stay inside the analytic bounds — the reproduction of
    // the paper's own §6.2/§6.4 validation.
    let student = StudentNet::new(StudentConfig::tiny()).unwrap();
    let cat = VideoCategory {
        camera: CameraMotion::Moving,
        scene: SceneKind::Street,
    };
    let mut video = VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, 55)).unwrap();
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let record = runtime
        .run("street", &mut video, 96, student, OracleTeacher::perfect(5))
        .unwrap();

    let config = ShadowTutorConfig::paper();
    let link = LinkModel::paper_default();
    let frame_bytes = 2_637_000;
    let update_bytes = 395_000;
    let scaled = record.with_payload_sizes(frame_bytes, update_bytes);
    let t_net = link.key_frame_round_trip(frame_bytes, update_bytes);
    let inputs = BoundInputs::new(
        &LatencyProfile::paper(),
        true,
        t_net,
        frame_bytes + update_bytes,
    );

    let fps = scaled.replay_fps(&link, Concurrency::Full);
    let tp_bounds = throughput_bounds(&config, &inputs);
    assert!(
        tp_bounds.contains_fps(fps),
        "throughput {fps:.2} outside [{:.2}, {:.2}]",
        tp_bounds.lower_fps,
        tp_bounds.upper_fps
    );

    let time = scaled.replay_total_time(&link, Concurrency::Full);
    let mbps = (scaled.uplink_bytes + scaled.downlink_bytes) as f64 * 8.0 / 1e6 / time;
    let tr_bounds = traffic_bounds(&config, &inputs);
    assert!(
        tr_bounds.contains_mbps(mbps),
        "traffic {mbps:.2} Mbps outside [{:.2}, {:.2}]",
        tr_bounds.lower_mbps(),
        tr_bounds.upper_mbps()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batched CnnTeacher forward must label co-scheduled frames
    /// *bit-for-bit* identically to per-frame forwards — the server pool's
    /// amortization is only free if batching never changes an answer. The
    /// packed GEMM keeps per-element accumulation order independent of the
    /// batch width, so exact equality (not tolerance) is the contract.
    #[test]
    fn pseudo_label_batch_equals_per_frame_bit_for_bit(
        batch in 1usize..5, seed in 0u64..1000, scene_pick in 0usize..3
    ) {
        use st_teacher::{CnnTeacher, Teacher};
        let scene = [SceneKind::People, SceneKind::Animals, SceneKind::Street][scene_pick];
        let cat = VideoCategory { camera: CameraMotion::Fixed, scene };
        let mut gen = VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap();
        let frames: Vec<_> = (0..batch).map(|_| gen.next_frame()).collect();
        let refs: Vec<&_> = frames.iter().collect();
        let mut teacher = CnnTeacher::untrained(1, seed.wrapping_add(13)).unwrap();
        let batched = teacher.pseudo_label_batch(&refs).unwrap();
        prop_assert_eq!(batched.len(), frames.len());
        for (frame, batched_labels) in frames.iter().zip(&batched) {
            let solo = teacher.pseudo_label(frame).unwrap();
            prop_assert_eq!(&solo, batched_labels, "frame {} diverged", frame.index);
        }
    }
}

#[test]
fn partial_distillation_ships_a_minority_of_the_parameters() {
    use st_nn::snapshot::PayloadSizes;
    let mut student = StudentNet::new(StudentConfig::paper()).unwrap();
    student.freeze = DistillationMode::Partial.freeze_point();
    let sizes = PayloadSizes::of(&mut student);
    // The paper trains 21.4% of the student; the reproduction's widths land
    // in the same minority range.
    assert!(
        sizes.trainable_fraction() > 0.10 && sizes.trainable_fraction() < 0.45,
        "trainable fraction {:.3}",
        sizes.trainable_fraction()
    );
    // And the partial payload is correspondingly smaller than the full one.
    assert!(sizes.partial_bytes * 2 < sizes.full_bytes);
}

// ---- Versioned wire format properties ----
//
// The codec's contract (see `st_net::wire`): encode/decode are exact
// inverses bit for bit, `encoded_len` is exact, and corrupted bytes always
// come back as a typed `WireError`, never a panic or a wrong value.

use bytes::Bytes;
use st_net::wire::{decode_frame, encode_frame, frame_len, FRAME_HEADER_BYTES, WIRE_VERSION};
use st_net::{ClientToServer, DropReason, Payload, ServerToClient, StreamTagged, WireError};

fn arb_payload() -> impl Strategy<Value = Payload> {
    // Alternate between size-only payloads (a control message's
    // shape) and content-carrying payloads with arbitrary bytes.
    (
        any::<bool>(),
        0usize..10_000_000,
        prop::collection::vec(0usize..256, 0..512),
    )
        .prop_map(|(sized, content_bytes, content)| {
            if sized {
                Payload::sized(content_bytes)
            } else {
                let bytes: Vec<u8> = content.into_iter().map(|b| b as u8).collect();
                Payload::with_data(Bytes::from(bytes))
            }
        })
}

fn arb_client_to_server() -> impl Strategy<Value = ClientToServer> {
    (0usize..3, any::<usize>(), arb_payload()).prop_map(|(variant, frame_index, payload)| {
        match variant {
            0 => ClientToServer::Register,
            1 => ClientToServer::Shutdown,
            _ => ClientToServer::KeyFrame {
                frame_index,
                payload,
            },
        }
    })
}

fn arb_server_to_client() -> impl Strategy<Value = ServerToClient> {
    (
        0usize..6,
        any::<usize>(),
        0.0f64..1.0,
        0usize..10_000,
        arb_payload(),
    )
        .prop_map(
            |(variant, frame_index, metric, distill_steps, payload)| match variant {
                0 => ServerToClient::InitialStudent { payload },
                1 => ServerToClient::StudentUpdate {
                    frame_index,
                    metric,
                    distill_steps,
                    payload,
                },
                2 => ServerToClient::Throttle { frame_index },
                3 => ServerToClient::NeedFrame { frame_index },
                4 => ServerToClient::Dropped {
                    frame_index,
                    reason: DropReason::UnknownStream,
                },
                _ => ServerToClient::Dropped {
                    frame_index,
                    reason: DropReason::UnknownFrame,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every client → server variant round-trips through the framed codec
    /// bit for bit, and `frame_len` predicts the framed size exactly.
    #[test]
    fn wire_round_trips_every_client_to_server_variant(message in arb_client_to_server()) {
        let encoded = encode_frame(&message);
        prop_assert_eq!(encoded.len(), frame_len(&message));
        let decoded: ClientToServer = decode_frame(&encoded).unwrap();
        prop_assert_eq!(&decoded, &message);
        prop_assert_eq!(encode_frame(&decoded), encoded, "re-encode diverged");
    }

    /// Every server → client variant round-trips through the framed codec
    /// bit for bit.
    #[test]
    fn wire_round_trips_every_server_to_client_variant(message in arb_server_to_client()) {
        let encoded = encode_frame(&message);
        prop_assert_eq!(encoded.len(), frame_len(&message));
        let decoded: ServerToClient = decode_frame(&encoded).unwrap();
        prop_assert_eq!(&decoded, &message);
        prop_assert_eq!(encode_frame(&decoded), encoded, "re-encode diverged");
    }

    /// The pool's multiplexing envelope preserves the stream id and the
    /// inner message through the codec.
    #[test]
    fn wire_round_trips_stream_tagged_messages(
        stream_id in any::<u64>(),
        message in arb_client_to_server(),
    ) {
        let tagged = StreamTagged::new(stream_id, message);
        let encoded = encode_frame(&tagged);
        prop_assert_eq!(encoded.len(), frame_len(&tagged));
        let decoded: StreamTagged<ClientToServer> = decode_frame(&encoded).unwrap();
        prop_assert_eq!(&decoded, &tagged);
    }

    /// Corrupting a valid frame in any of the classic ways yields the
    /// matching typed error — never a panic, never a silently wrong value.
    #[test]
    fn corrupted_frames_fail_with_typed_errors(
        message in arb_client_to_server(),
        cut in any::<usize>(),
        extra in 1usize..8,
    ) {
        let encoded = encode_frame(&message);

        // Truncation anywhere in the frame.
        let cut = cut % encoded.len();
        prop_assert!(matches!(
            decode_frame::<ClientToServer>(&encoded[..cut]).unwrap_err(),
            WireError::Truncated { .. }
        ));

        // A flipped magic byte.
        let mut bad = encoded.clone();
        bad[0] ^= 0xFF;
        prop_assert!(matches!(
            decode_frame::<ClientToServer>(&bad).unwrap_err(),
            WireError::BadMagic { .. }
        ));

        // A frame from a future protocol version.
        let mut bad = encoded.clone();
        bad[4] = WIRE_VERSION + 1;
        let err = decode_frame::<ClientToServer>(&bad).unwrap_err();
        prop_assert!(
            matches!(err, WireError::UnsupportedVersion { found } if found == WIRE_VERSION + 1)
        );

        // Bytes appended after the body.
        let mut bad = encoded.clone();
        bad.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(matches!(
            decode_frame::<ClientToServer>(&bad).unwrap_err(),
            WireError::TrailingBytes { .. }
        ));

        // An enum tag byte that names no variant (the tag is the first body
        // byte; 0xEE is far outside every variant range). The body length
        // stays consistent, so this must surface as UnknownVariant.
        let mut bad = encoded;
        bad[FRAME_HEADER_BYTES] = 0xEE;
        prop_assert!(matches!(
            decode_frame::<ClientToServer>(&bad).unwrap_err(),
            WireError::UnknownVariant { .. }
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A real weight snapshot survives the trip inside a `StudentUpdate`
    /// frame: the re-encoded frame is bit-identical and the decoded
    /// snapshot equals the captured one. Snapshot equality is `PartialEq`
    /// over f32 tensors, so a NaN anywhere would fail the assertion
    /// (NaN != NaN) — the decoded weights are provably NaN-free.
    #[test]
    fn student_update_weights_cross_the_wire_bit_identical_and_nan_free(
        seed in 0u64..1000,
        partial in any::<bool>(),
    ) {
        let mut net = StudentNet::new(StudentConfig { seed, ..StudentConfig::tiny() }).unwrap();
        net.freeze = if partial {
            DistillationMode::Partial.freeze_point()
        } else {
            DistillationMode::Full.freeze_point()
        };
        let scope = if partial { SnapshotScope::TrainableOnly } else { SnapshotScope::Full };
        let snapshot = WeightSnapshot::capture(&mut net, scope);
        let message = ServerToClient::StudentUpdate {
            frame_index: seed as usize,
            metric: 0.5,
            distill_steps: 3,
            payload: Payload::with_data(snapshot.encode()),
        };
        let encoded = encode_frame(&message);
        let decoded: ServerToClient = decode_frame(&encoded).unwrap();
        prop_assert_eq!(encode_frame(&decoded), encoded, "re-encode diverged");
        let ServerToClient::StudentUpdate { payload, .. } = decoded else {
            panic!("variant changed in flight");
        };
        let bytes = payload.data.expect("payload content");
        let decoded_snapshot = WeightSnapshot::decode(&bytes, scope).unwrap();
        // Decoding flattens tensor shapes (apply() restores them by name),
        // so compare the canonical encoding and the values, not the structs.
        prop_assert_eq!(decoded_snapshot.entry_count(), snapshot.entry_count());
        prop_assert_eq!(decoded_snapshot.scalar_count(), snapshot.scalar_count());
        prop_assert_eq!(decoded_snapshot.encode(), snapshot.encode());
        // distance() folds every weight pair; a NaN anywhere poisons it, so
        // an exact zero between two decodes of the same bytes proves the
        // decoded weights are NaN-free (NaN - NaN != 0).
        let again = WeightSnapshot::decode(&bytes, scope).unwrap();
        let distance = decoded_snapshot.distance(&again).unwrap();
        prop_assert!(distance == 0.0, "decoded weights contain NaN: distance {distance}");
    }
}

/// The run record (with its nested config, frame records, and latency
/// profile) round-trips through the same framed codec the messages use —
/// this is how the two-process runtime ships results between processes.
#[test]
fn experiment_record_round_trips_through_the_wire_codec() {
    let record = synthetic_trace();
    let encoded = encode_frame(&record);
    assert_eq!(encoded.len(), frame_len(&record));
    let decoded: shadowtutor::ExperimentRecord = decode_frame(&encoded).unwrap();
    assert_eq!(decoded, record);
    assert_eq!(encode_frame(&decoded), encoded);
}

// ---- Content-keyed weight store & delta-update properties ----
//
// The delta protocol's contract (see `st_nn::delta`): applying the delta of
// an update against the base the client holds reproduces the update bit for
// bit, digests stay in lockstep without ever crossing the wire, corrupted
// payloads come back as typed `WireError`s, and the weight store's chunk
// refcounts always equal the live references — including under the
// deliberately buggy `release_skipping` mutant, which the invariant check
// must catch.

use st_net::Wire;
use st_nn::delta::{CheckpointDigest, WeightDelta, WeightPayload};
use st_nn::store::{CheckpointRef, WeightStore};
use st_nn::student::StudentNet as DeltaNet;

fn partial_net(seed: u64) -> DeltaNet {
    let mut net = StudentNet::new(StudentConfig {
        seed,
        ..StudentConfig::tiny()
    })
    .unwrap();
    net.freeze = DistillationMode::Partial.freeze_point();
    net
}

fn train_step(net: &mut DeltaNet, seed: u64) {
    let x = st_tensor::random::uniform(st_tensor::Shape::nchw(1, 3, 16, 16), 0.0, 1.0, seed);
    let y = net.forward_train(&x).unwrap();
    net.backward(&y).unwrap();
    st_nn::optim::Adam::new(0.01).step(net);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any training trajectory, shipping every update as a sparse delta
    /// reproduces the server's weights on the client bit for bit, and the
    /// two digests stay synchronized without ever being exchanged. A final
    /// no-op update reduces to an empty delta (the converged-key-frame wire
    /// saving `table13_weight_dedup` measures).
    #[test]
    fn delta_stream_reproduces_the_server_bit_for_bit(seed in 0u64..500, rounds in 1usize..4) {
        let mut server = partial_net(seed);
        let mut client = partial_net(seed);
        let mut server_digest =
            CheckpointDigest::of(&WeightSnapshot::capture(&mut server, SnapshotScope::Full));
        let mut client_digest =
            CheckpointDigest::of(&WeightSnapshot::capture(&mut client, SnapshotScope::Full));
        let mut previous = None;
        for round in 0..rounds {
            train_step(&mut server, seed.wrapping_mul(31).wrapping_add(round as u64));
            let update = WeightSnapshot::capture(&mut server, SnapshotScope::TrainableOnly);
            let delta = WeightDelta::compute(&update, &server_digest);
            prop_assert!(delta.entry_count() <= update.entry_count());
            server_digest.patch(&update);

            let encoded = Wire::encode(&WeightPayload::Delta(delta));
            let WeightPayload::Delta(delta) =
                <WeightPayload as Wire>::decode(&mut &encoded[..]).unwrap()
            else {
                panic!("envelope variant changed in flight")
            };
            prop_assert!(delta.check_base(&client_digest, previous).is_ok());
            previous = Some(client_digest.combined());
            let (sparse, chunks) = delta.into_parts().unwrap();
            sparse.apply(&mut client).unwrap();
            client_digest.patch_chunks(&chunks);
            prop_assert_eq!(server_digest.combined(), client_digest.combined());
        }
        // An update with no training in between is an empty delta: envelope
        // bytes only, and applying it changes nothing.
        let update = WeightSnapshot::capture(&mut server, SnapshotScope::TrainableOnly);
        let delta = WeightDelta::compute(&update, &server_digest);
        prop_assert_eq!(delta.entry_count(), 0);
        prop_assert!(delta.check_base(&client_digest, previous).is_ok());
        let (sparse, _) = delta.into_parts().unwrap();
        sparse.apply(&mut client).unwrap();

        let server_state = WeightSnapshot::capture(&mut server, SnapshotScope::Full);
        let client_state = WeightSnapshot::capture(&mut client, SnapshotScope::Full);
        prop_assert_eq!(server_state.encode(), client_state.encode());
    }

    /// Corrupting a delta payload in each of the protocol's failure modes
    /// yields the matching typed `WireError` — truncation anywhere, an
    /// unknown envelope tag, an unknown scope tag, and base-checkpoint
    /// mismatches (stale vs unknown) — never a panic or a silent
    /// mis-apply.
    #[test]
    fn corrupted_delta_payloads_fail_with_typed_errors(seed in 0u64..500, cut in any::<usize>()) {
        let mut server = partial_net(seed);
        let base =
            CheckpointDigest::of(&WeightSnapshot::capture(&mut server, SnapshotScope::Full));
        train_step(&mut server, seed.wrapping_add(7));
        let update = WeightSnapshot::capture(&mut server, SnapshotScope::TrainableOnly);
        let delta = WeightDelta::compute(&update, &base);
        prop_assert!(delta.entry_count() > 0, "training must change something");
        let encoded = Wire::encode(&WeightPayload::Delta(delta.clone()));

        // Truncation anywhere in the envelope fails as Truncated.
        let cut = cut % encoded.len();
        prop_assert!(matches!(
            <WeightPayload as Wire>::decode(&mut &encoded[..cut]).unwrap_err(),
            WireError::Truncated { .. }
        ));

        // An envelope tag naming no payload variant.
        let mut bad = encoded.clone();
        bad[0] = 9;
        prop_assert!(matches!(
            <WeightPayload as Wire>::decode(&mut &bad[..]).unwrap_err(),
            WireError::UnknownVariant { type_name: "WeightPayload", .. }
        ));

        // A scope byte naming no snapshot scope (envelope tag, u64 base,
        // then the scope byte).
        let mut bad = encoded;
        bad[1 + 8] = 7;
        prop_assert!(matches!(
            <WeightPayload as Wire>::decode(&mut &bad[..]).unwrap_err(),
            WireError::UnknownVariant { type_name: "SnapshotScope", .. }
        ));

        // A client that advanced past the delta's base classifies it as
        // stale when the base is its previous checkpoint, unknown otherwise.
        let mut advanced = base.clone();
        advanced.patch(&update);
        prop_assert!(advanced.combined() != base.combined());
        prop_assert!(matches!(
            delta.check_base(&advanced, Some(base.combined())).unwrap_err(),
            WireError::StaleBaseCheckpoint { base: b } if b == base.combined()
        ));
        prop_assert!(matches!(
            delta.check_base(&advanced, None).unwrap_err(),
            WireError::UnknownBaseCheckpoint { .. }
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any interleaving of intern, release and resolve, every chunk's
    /// stored refcount equals the number of live references, a resolved
    /// checkpoint comes back bit-identical to what was interned, and
    /// draining every reference frees every byte.
    #[test]
    fn weight_store_refcounts_match_live_refs_under_any_interleaving(
        seeds in prop::collection::vec(0u64..6, 1..3),
        ops in prop::collection::vec((0usize..3, any::<usize>()), 1..32),
    ) {
        let store = WeightStore::new();
        let snapshots: Vec<WeightSnapshot> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut net = partial_net(seed);
                let scope = if i % 2 == 0 { SnapshotScope::Full } else { SnapshotScope::TrainableOnly };
                WeightSnapshot::capture(&mut net, scope)
            })
            .collect();
        // Live references, each tagged with the snapshot it was interned
        // from so restores can be checked for aliasing corruption.
        let mut live: Vec<(usize, CheckpointRef)> = Vec::new();
        for (op, pick) in ops {
            match op {
                0 => {
                    let source = pick % snapshots.len();
                    let (r, _) = store.intern(&snapshots[source]);
                    live.push((source, r));
                }
                1 if !live.is_empty() => {
                    let (_, r) = live.remove(pick % live.len());
                    store.release(r);
                }
                2 if !live.is_empty() => {
                    let (source, r) = &live[pick % live.len()];
                    let chunks = store.resolve(r).unwrap();
                    let restored = WeightSnapshot::from_entry_chunks(chunks, r.scope()).unwrap();
                    prop_assert_eq!(
                        restored.encode(),
                        snapshots[*source].encode(),
                        "restore corrupted by chunk aliasing"
                    );
                }
                _ => {}
            }
            let refs: Vec<&CheckpointRef> = live.iter().map(|(_, r)| r).collect();
            if let Err(violation) = store.verify_refcounts(&refs) {
                prop_assert!(false, "refcount invariant broken: {}", violation);
            }
        }
        for (_, r) in live.drain(..) {
            store.release(r);
        }
        prop_assert_eq!(store.chunk_count(), 0);
        prop_assert_eq!(store.resident_bytes(), 0);
    }

    /// The mutant: a release that "forgets" to decrement the last `skip`
    /// chunks must be caught by the refcount invariant — proof the check
    /// actually pins the accounting and would catch a real leak.
    #[test]
    fn skipped_decref_mutant_is_caught(seed in 0u64..100, skip in 1usize..6) {
        let store = WeightStore::new();
        let mut net = partial_net(seed);
        let snapshot = WeightSnapshot::capture(&mut net, SnapshotScope::Full);
        let (a, _) = store.intern(&snapshot);
        let (b, _) = store.intern(&snapshot);
        store.release_skipping(b, skip);
        prop_assert!(
            store.verify_refcounts(&[&a]).is_err(),
            "a skipped decref went unnoticed"
        );
    }
}
