//! Per-layer probes: an inline, single-thread walk of the workload's key
//! frames through every layer's public function — one span per call, so the
//! self times add up to an inline round trip — plus stand-alone probes of
//! the calls the walk cannot isolate.
//!
//! What the live round trip has on top of the inline sum (hand-offs between
//! threads, wake-ups, queueing behind co-scheduled key frames) is
//! `trace.unattributed_ms`: printed, not hidden.

use crate::stats::median;
use crate::trace::{self, Span, SpanId, Tracer, NO_SPAN};
use crate::workload::{scratch_path, BenchTeacher, Prepared, Transport, Workload};
use bytes::Bytes;
use shadowtutor::config::DistillationMode;
use shadowtutor::serve::{FairScheduler, FrameStore, ServeShard, ShardJob};
use shadowtutor::server::DistillSession;
use st_net::ring::PushOutcome;
use st_net::shm::{ring_channel, RingConsumer, RingProducer};
use st_net::transport::DuplexTransport;
use st_net::wire::{decode_frame, encode_frame};
use st_net::{ClientToServer, Payload, Poller, ServerToClient, ShmConfig, Wire};
use st_nn::delta::{CheckpointDigest, WeightDelta, WeightPayload};
use st_nn::loss::{weighted_cross_entropy, WeightMap};
use st_nn::metrics::miou;
use st_nn::optim::Adam;
use st_nn::snapshot::{PayloadSizes, SnapshotScope, WeightSnapshot};
use st_nn::store::WeightStore;
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::Teacher;
use st_tensor::conv::{conv2d_backward, conv2d_forward, im2col, Conv2dSpec};
use st_tensor::{Shape, TensorError};
use st_video::Frame;
use std::hint::black_box;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, TensorError>;

/// Key frames the inline walk covers at full scale.
const WALK_KEY_FRAMES: usize = 200;
/// Iterations of each stand-alone probe at full scale (the median is
/// reported).
const PROBE_ITERATIONS: usize = 25;

/// What the probes measured.
pub struct Inline {
    /// Per-layer metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Mean inline round trip: the sum of `self_ms`.
    pub inline_rtt_ms: f64,
    /// Mean self time per key frame of each span name in the walk.
    pub self_ms: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// Median wall milliseconds of `f` over `iterations` calls.
fn probe_ms<R>(iterations: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Move `stream` through the ring in slot-sized chunks on one thread:
/// push until the ring is full, pop until it is empty, repeat.
fn ring_transfer(
    producer: &RingProducer,
    consumer: &RingConsumer,
    stream: &[u8],
    out: &mut Vec<u8>,
) -> usize {
    let mut chunks = 0;
    for chunk in stream.chunks(producer.chunk_capacity()) {
        while matches!(producer.try_push(chunk), PushOutcome::Full) {
            while consumer.try_pop(out) {}
        }
        chunks += 1;
    }
    while consumer.try_pop(out) {}
    chunks
}

/// Span names of one direction of the wire, and whether its ring traffic
/// feeds `transport.ring_*` (the downlink does: it carries the updates).
struct Direction {
    encode_name: &'static str,
    ring_name: &'static str,
    decode_name: &'static str,
    count: bool,
}

const UP: Direction = Direction {
    encode_name: "wire.encode_keyframe",
    ring_name: "transport.ring_up",
    decode_name: "wire.decode_keyframe",
    count: false,
};

const DOWN: Direction = Direction {
    encode_name: "wire.encode_update",
    ring_name: "transport.ring_down",
    decode_name: "wire.decode_update",
    count: true,
};

/// The hop between the two sides of the wire, as the workload's transport
/// does it: a typed channel send + receive, or frame → chunk → ring →
/// reassemble. Returns the message as the far side sees it.
struct Hop {
    channel: (
        DuplexTransport<ClientToServer, ServerToClient>,
        DuplexTransport<ServerToClient, ClientToServer>,
    ),
    ring: (RingProducer, RingConsumer),
    ring_path: std::path::PathBuf,
    buffer: Vec<u8>,
    ring_bytes: usize,
    ring_chunks: usize,
    ring_messages: usize,
}

impl Hop {
    fn new() -> Result<Self> {
        let ring_path = scratch_path("probe-ring")?;
        let ring = ring_channel(&ring_path, ShmConfig::default())
            .map_err(|e| TensorError::InvalidArgument(format!("probe ring: {e}")))?;
        Ok(Hop {
            channel: DuplexTransport::pair(),
            ring,
            ring_path,
            buffer: Vec::new(),
            ring_bytes: 0,
            ring_chunks: 0,
            ring_messages: 0,
        })
    }

    /// Frame `message`, push it through the ring, reassemble and decode it,
    /// with a span per step under `parent`.
    fn through_ring<M: Wire>(
        &mut self,
        message: &M,
        tracer: &mut Tracer,
        parent: SpanId,
        ids: (u32, u32),
        direction: &Direction,
    ) -> Result<M> {
        let Direction {
            encode_name,
            ring_name,
            decode_name,
            count,
        } = *direction;
        let framed = tracer.span(encode_name, parent, ids.0, ids.1, || encode_frame(message));
        let (producer, consumer) = &self.ring;
        let buffer = &mut self.buffer;
        let chunks = tracer.span(ring_name, parent, ids.0, ids.1, || {
            // The stream format of `ShmTransport`: u32 length, then the frame.
            let mut stream = Vec::with_capacity(4 + framed.len());
            stream.extend_from_slice(&(framed.len() as u32).to_le_bytes());
            stream.extend_from_slice(&framed);
            buffer.clear();
            ring_transfer(producer, consumer, &stream, buffer)
        });
        if count {
            self.ring_bytes += 4 + framed.len();
            self.ring_chunks += chunks;
            self.ring_messages += 1;
        }
        tracer
            .span(decode_name, parent, ids.0, ids.1, || {
                decode_frame::<M>(&self.buffer[4..])
            })
            .map_err(|e| TensorError::InvalidArgument(format!("inline decode: {e}")))
    }
}

impl Drop for Hop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.ring_path);
    }
}

/// Server- and client-side state of one stream in the inline walk.
struct InlineStream {
    session: DistillSession,
    frames: FrameStore,
    /// Server's view of what the client holds (delta workloads).
    track: Option<CheckpointDigest>,
    client: StudentNet,
    client_digest: Option<(CheckpointDigest, Option<u64>)>,
}

fn to_ms(ns: u64, count: usize) -> f64 {
    ns as f64 / 1e6 / count.max(1) as f64
}

/// Run the walk and the stand-alone probes for `workload`.
pub fn run(workload: &Workload, prepared: &Prepared, scale: f64) -> Result<Inline> {
    let config = workload.config;
    let delta = workload.pool.delta_updates;
    let over_ring = workload.transport == Transport::Shm;
    let stride = config.min_stride;
    let update_scope = match config.mode {
        DistillationMode::Partial => SnapshotScope::TrainableOnly,
        DistillationMode::Full => SnapshotScope::Full,
    };

    let mut streams: Vec<InlineStream> = prepared
        .streams
        .iter()
        .map(|frames| {
            let mut session = DistillSession::new(config, prepared.template.clone(), 0.013);
            let initial = session.initial_checkpoint();
            let mut client = prepared.template.clone();
            client.freeze = config.mode.freeze_point();
            InlineStream {
                session,
                frames: FrameStore::from_frames(frames, None),
                track: delta.then(|| CheckpointDigest::of(&initial)),
                client,
                client_digest: delta.then(|| (CheckpointDigest::of(&initial), None)),
            }
        })
        .collect();
    let mut teacher = BenchTeacher::new(workload.teacher);
    let mut scheduler = FairScheduler::new(workload.pool.quantum);
    let mut hop = Hop::new()?;

    let key_frames = ((WALK_KEY_FRAMES as f64 * scale) as usize)
        .max(8)
        .min(workload.streams * workload.frames.div_ceil(stride));
    // Spans under a `keyframe` root: the inline round trip. `side` holds
    // the calls the live path of this workload does not make (wire framing
    // on a channel workload, delta encoding on a full-snapshot one), so
    // every per-layer metric is measured on every workload without
    // inflating the sum.
    let mut walk = Tracer::on(key_frames * 24);
    let mut side = Tracer::on(key_frames * 16);
    let mut last_update: Option<WeightSnapshot> = None;
    let mut steps_taken = 0usize;

    for k in 0..key_frames {
        let stream_id = k % workload.streams;
        let frame: &Frame = &prepared.streams[stream_id][(k / workload.streams) * stride];
        let ids = (stream_id as u32, frame.index as u32);
        let root = walk.open("keyframe", NO_SPAN, ids.0, ids.1);
        let s = &mut streams[stream_id];

        // --- client: the key frame leaves -------------------------------
        let message = walk.span("client.encode_keyframe", root, ids.0, ids.1, || {
            ClientToServer::KeyFrame {
                frame_index: frame.index,
                payload: Payload::with_data(Bytes::from(frame.quantized_rgb())),
            }
        });
        // What the live path of this workload does not do is probed after
        // the root span closes, on a copy, so it cannot leak into the sum.
        let side_up = (!over_ring).then(|| message.clone());
        let message = if over_ring {
            hop.through_ring(&message, &mut walk, root, ids, &UP)?
        } else {
            let (client_end, server_end) = &mut hop.channel;
            walk.span("transport.channel", root, ids.0, ids.1, || {
                client_end.send(message, 0).expect("inline channel open");
                server_end
                    .try_recv()
                    .expect("inline channel open")
                    .expect("message just sent")
            })
        };
        let ClientToServer::KeyFrame { frame_index, .. } = message else {
            unreachable!("a key frame went in")
        };

        // --- server: admission, residency, teacher, Algorithm 1 ---------
        let job = walk.span("serve.sched", root, ids.0, ids.1, || {
            scheduler.push(stream_id as u64, frame_index, Instant::now());
            scheduler.next_batch(1).remove(0).job
        });
        let resident = walk.span("serve.framestore", root, ids.0, ids.1, || {
            s.frames.touch(job.frame_index) && s.frames.peek(job.frame_index).is_some()
        });
        assert!(resident, "no frame budget: every frame stays resident");
        let label = walk
            .span("teacher.forward", root, ids.0, ids.1, || {
                teacher.pseudo_label_batch(&[frame])
            })?
            .remove(0);
        let response = walk.span("train.distill", root, ids.0, ids.1, || {
            s.session.distill(frame, &label, 0.0)
        })?;
        steps_taken += response.outcome.steps;

        // --- server: the update leaves -----------------------------------
        let encoded: Bytes = match &mut s.track {
            Some(digest) => {
                let delta = walk.span("delta.compute", root, ids.0, ids.1, || {
                    WeightDelta::compute(&response.update, digest)
                });
                walk.span("delta.digest_patch", root, ids.0, ids.1, || {
                    digest.patch(&response.update)
                });
                walk.span("snapshot.encode", root, ids.0, ids.1, || {
                    Bytes::from(Wire::encode(&WeightPayload::Delta(delta)))
                })
            }
            None => walk.span("snapshot.encode", root, ids.0, ids.1, || {
                response.update.encode()
            }),
        };
        let payload = Payload::with_data(encoded);
        let message = ServerToClient::StudentUpdate {
            frame_index,
            metric: response.metric,
            distill_steps: response.outcome.steps,
            payload,
        };
        let side_down = (!over_ring).then(|| message.clone());
        let message = if over_ring {
            hop.through_ring(&message, &mut walk, root, ids, &DOWN)?
        } else {
            let (client_end, server_end) = &mut hop.channel;
            walk.span("transport.channel", root, ids.0, ids.1, || {
                server_end.send(message, 0).expect("inline channel open");
                client_end
                    .try_recv()
                    .expect("inline channel open")
                    .expect("message just sent")
            })
        };

        // --- client: decode, verify the base, apply ----------------------
        let ServerToClient::StudentUpdate { payload, .. } = message else {
            unreachable!("an update went in")
        };
        let data = payload.data.expect("live payloads carry bytes");
        match &mut s.client_digest {
            Some((digest, previous)) => {
                let payload = walk
                    .span("client.decode", root, ids.0, ids.1, || {
                        <WeightPayload as Wire>::decode(&mut &data[..])
                    })
                    .map_err(|e| TensorError::InvalidArgument(format!("inline payload: {e}")))?;
                let WeightPayload::Delta(delta) = payload else {
                    unreachable!("a synced stream is sent deltas")
                };
                walk.span("delta.check_base", root, ids.0, ids.1, || {
                    delta.check_base(digest, *previous)
                })
                .map_err(|e| TensorError::InvalidArgument(format!("inline base: {e}")))?;
                let (sparse, chunks) = delta.into_parts()?;
                walk.span("snapshot.apply", root, ids.0, ids.1, || {
                    sparse.apply(&mut s.client)
                })?;
                *previous = Some(digest.combined());
                walk.span("delta.digest_patch", root, ids.0, ids.1, || {
                    digest.patch_chunks(&chunks)
                });
            }
            None => {
                let snapshot = walk.span("client.decode", root, ids.0, ids.1, || {
                    WeightSnapshot::decode(&data, SnapshotScope::TrainableOnly)
                })?;
                walk.span("snapshot.apply", root, ids.0, ids.1, || {
                    snapshot.apply(&mut s.client)
                })?;
            }
        }
        walk.close(root);

        // --- off the round trip: what this workload's live path skips ----
        if let (Some(up), Some(down)) = (side_up, side_down) {
            black_box(hop.through_ring(&up, &mut side, NO_SPAN, ids, &UP)?);
            black_box(hop.through_ring(&down, &mut side, NO_SPAN, ids, &DOWN)?);
        }
        if !delta {
            let base = CheckpointDigest::of(last_update.as_ref().unwrap_or(&response.update));
            let mut patched = base.clone();
            let delta = side.span("delta.compute", NO_SPAN, ids.0, ids.1, || {
                WeightDelta::compute(&response.update, &base)
            });
            side.span("delta.digest_patch", NO_SPAN, ids.0, ids.1, || {
                patched.patch(&response.update)
            });
            side.span("delta.check_base", NO_SPAN, ids.0, ids.1, || {
                delta.check_base(&base, None)
            })
            .map_err(|e| TensorError::InvalidArgument(format!("probe delta: {e}")))?;
        }
        // The capture on the round trip happened inside `distill`; this is
        // what one more costs.
        side.span("snapshot.capture", NO_SPAN, ids.0, ids.1, || {
            black_box(WeightSnapshot::capture(
                s.session.student_mut(),
                update_scope,
            ))
        });
        last_update = Some(response.update);
    }

    // The walk must have ended where the live rounds do.
    for s in &mut streams {
        let server = s.session.initial_checkpoint().encode();
        let client = WeightSnapshot::capture(&mut s.client, SnapshotScope::Full).encode();
        if server != client {
            return Err(TensorError::InvalidArgument(
                "inline walk: client weights differ from the server's".into(),
            ));
        }
    }

    let walk_spans = walk.into_spans();
    let walk_totals = trace::totals(&walk_spans);
    let side_totals = trace::totals(&side.into_spans());
    let self_ms: Vec<(&'static str, f64)> = walk_totals
        .iter()
        .map(|(name, t)| (*name, to_ms(t.self_ns, key_frames)))
        .collect();
    let inline_rtt_ms: f64 = self_ms.iter().map(|(_, ms)| ms).sum();
    // Mean microseconds per call of a span name, wherever it was recorded.
    let mean_us = |name: &str| {
        let t = walk_totals
            .get(name)
            .or_else(|| side_totals.get(name))
            .copied()
            .unwrap_or_default();
        t.mean_ms() * 1e3
    };
    let ring_down = walk_totals
        .get("transport.ring_down")
        .or_else(|| side_totals.get("transport.ring_down"))
        .copied()
        .unwrap_or_default();

    let mut values: Vec<(&'static str, f64)> = vec![
        ("wire.encode_keyframe_us", mean_us("wire.encode_keyframe")),
        ("wire.decode_keyframe_us", mean_us("wire.decode_keyframe")),
        ("wire.encode_update_us", mean_us("wire.encode_update")),
        ("wire.decode_update_us", mean_us("wire.decode_update")),
        (
            "transport.ring_mb_per_s",
            hop.ring_bytes as f64 / 1e6 / (ring_down.total_ns as f64 / 1e9),
        ),
        (
            "transport.ring_chunks_per_update",
            hop.ring_chunks as f64 / hop.ring_messages.max(1) as f64,
        ),
        ("serve.sched_us", mean_us("serve.sched")),
        ("serve.framestore_us", mean_us("serve.framestore")),
        ("teacher.forward_ms_b1", mean_us("teacher.forward") / 1e3),
        ("train.distill_ms", mean_us("train.distill") / 1e3),
        ("snapshot.capture_us", mean_us("snapshot.capture")),
        ("snapshot.encode_us", mean_us("snapshot.encode")),
        ("snapshot.apply_us", mean_us("snapshot.apply")),
        ("delta.compute_us", mean_us("delta.compute")),
        ("delta.digest_patch_us", mean_us("delta.digest_patch")),
        ("delta.check_base_us", mean_us("delta.check_base")),
        ("trace.inline_rtt_ms", inline_rtt_ms),
    ];
    drop(hop);

    let iterations = ((PROBE_ITERATIONS as f64 * scale) as usize).max(3);
    values.push(("transport.channel_hop_us", channel_hop_us(iterations)));
    values.push(("transport.wake_us", wake_us(iterations)));
    let mut student = prepared.template.clone();
    student.freeze = config.mode.freeze_point();
    let sizes = PayloadSizes::of(&mut student);
    values.push(("snapshot.bytes_trainable", sizes.partial_bytes as f64));
    values.push(("snapshot.bytes_full", sizes.full_bytes as f64));
    values.extend(store_probes(&mut student, iterations));
    values.extend(shard_probes(workload, prepared, iterations)?);
    values.extend(train_probes(workload, prepared, iterations)?);
    let steps_per_keyframe = steps_taken as f64 / key_frames as f64;
    values.extend(tensor_probes(
        workload.student,
        workload.resolution.dims(),
        steps_per_keyframe,
        iterations,
    )?);

    Ok(Inline {
        values,
        inline_rtt_ms,
        self_ms,
        spans: walk_spans,
    })
}

/// One typed message across an in-process channel pair and back out.
fn channel_hop_us(iterations: usize) -> f64 {
    let (mut a, mut b) = DuplexTransport::<ClientToServer, ServerToClient>::pair();
    probe_ms(iterations, || {
        a.send(ClientToServer::Register, 0).expect("pair open");
        b.try_recv().expect("pair open")
    }) * 1e3
}

/// `Waker::wake` on one thread → `Poller::poll` returning on another.
fn wake_us(iterations: usize) -> f64 {
    let poller = Poller::new();
    let waker = poller.waker(0);
    let (woke_tx, woke_rx) = std::sync::mpsc::channel::<Instant>();
    let mut samples = Vec::with_capacity(4 * iterations);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !poller.is_closed() {
                if !poller.poll(Duration::from_secs(1)).is_empty() {
                    let _ = woke_tx.send(Instant::now());
                }
            }
        });
        for _ in 0..4 * iterations {
            // Long enough for the poller thread to have parked again.
            std::thread::sleep(Duration::from_micros(200));
            let woken_at = Instant::now();
            waker.wake();
            if let Ok(returned_at) = woke_rx.recv_timeout(Duration::from_secs(2)) {
                samples.push(
                    returned_at
                        .saturating_duration_since(woken_at)
                        .as_secs_f64()
                        * 1e6,
                );
            }
        }
        poller.close();
    });
    median(&samples)
}

/// `WeightStore::{intern, resolve, release}` on the student's checkpoint.
fn store_probes(student: &mut StudentNet, iterations: usize) -> Vec<(&'static str, f64)> {
    let store = WeightStore::new();
    let snapshot = WeightSnapshot::capture(student, SnapshotScope::Full);
    // Keep the template pinned, as the pool does, so interns dedup.
    let (pinned, _) = store.intern(&snapshot);
    let mut refs = Vec::new();
    let intern = probe_ms(iterations, || refs.push(store.intern(&snapshot).0));
    let resolve = probe_ms(iterations, || store.resolve(&pinned));
    let release = probe_ms(iterations, || {
        if let Some(r) = refs.pop() {
            store.release(r)
        }
    });
    store.release(pinned);
    vec![
        ("store.intern_us", intern * 1e3),
        ("store.resolve_us", resolve * 1e3),
        ("store.release_us", release * 1e3),
    ]
}

/// `ServeShard::process_batch` and the teacher's batched forward at batch
/// sizes 1 and 4 (four streams on one shard, a fresh key frame each call).
fn shard_probes(
    workload: &Workload,
    prepared: &Prepared,
    iterations: usize,
) -> Result<Vec<(&'static str, f64)>> {
    let mut shard = ServeShard::new(
        workload.config,
        prepared.template.clone(),
        BenchTeacher::new(workload.teacher),
        0.013,
    );
    let stride = workload.config.min_stride;
    // Four sessions even on a one-stream workload: they replay stream 0.
    let frames_of = |stream: usize| &prepared.streams[stream % prepared.streams.len()];
    for stream in 0..4 {
        shard.register(
            stream as u64,
            FrameStore::from_frames(frames_of(stream), None),
            workload.pool.delta_updates,
        );
    }
    let mut cursor = 0usize;
    let mut batch_ms = |batch: usize| -> Result<f64> {
        let mut samples = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let index = (cursor * stride) % workload.frames;
            cursor += 1;
            let jobs: Vec<ShardJob> = (0..batch)
                .map(|stream| ShardJob {
                    stream_id: stream as u64,
                    frame_index: frames_of(stream)[index].index,
                })
                .collect();
            let started = Instant::now();
            let outcome = shard.process_batch(&jobs)?;
            samples.push(started.elapsed().as_secs_f64() * 1e3);
            assert_eq!(outcome.responses.len(), batch, "every probe job is served");
        }
        Ok(median(&samples))
    };
    let b1 = batch_ms(1)?;
    let b4 = batch_ms(4)?;
    let mut teacher = BenchTeacher::new(workload.teacher);
    let four: Vec<&Frame> = (0..4).map(|stream| &frames_of(stream)[0]).collect();
    let forward_b4 = probe_ms(iterations, || teacher.pseudo_label_batch(&four));
    Ok(vec![
        ("serve.process_batch_ms_b1", b1),
        ("serve.process_batch_ms_b4", b4),
        ("teacher.forward_ms_b4", forward_b4),
    ])
}

/// The four calls of one Algorithm-1 step, and the evaluation that follows
/// it, timed separately on the same inputs.
fn train_probes(
    workload: &Workload,
    prepared: &Prepared,
    iterations: usize,
) -> Result<Vec<(&'static str, f64)>> {
    let config = workload.config;
    let mut student = prepared.template.clone();
    student.freeze = config.mode.freeze_point();
    let mut optimizer = Adam::new(config.learning_rate);
    let frame = &prepared.streams[0][0];
    let label = &frame.ground_truth;
    let weights = WeightMap::from_labels(
        label,
        frame.height,
        frame.width,
        0,
        config.loss_weight_radius,
    )?;
    let classes = student.config.num_classes;
    let (mut forward, mut loss, mut backward, mut optim, mut predict) =
        (vec![], vec![], vec![], vec![], vec![]);
    let lap = |started: Instant| started.elapsed().as_secs_f64() * 1e3;
    for _ in 0..iterations {
        let t = Instant::now();
        let logits = student.forward_train(&frame.image)?;
        forward.push(lap(t));
        let t = Instant::now();
        let (_, grad) = weighted_cross_entropy(&logits, label, &weights)?;
        loss.push(lap(t));
        let t = Instant::now();
        student.backward(&grad)?;
        backward.push(lap(t));
        let t = Instant::now();
        optimizer.step(&mut student);
        optim.push(lap(t));
        let t = Instant::now();
        black_box(miou(&student.predict(&frame.image)?, label, classes)?);
        predict.push(lap(t));
    }
    let step =
        median(&forward) + median(&loss) + median(&backward) + median(&optim) + median(&predict);
    Ok(vec![
        ("train.step_ms", step),
        ("train.forward_ms", median(&forward)),
        ("train.loss_ms", median(&loss)),
        ("train.backward_ms", median(&backward)),
        ("train.optim_ms", median(&optim)),
        ("train.predict_ms", median(&predict)),
    ])
}

/// Every convolution of the student with the spatial size of its input.
fn student_convs(
    c: StudentConfig,
    (width, height): (usize, usize),
) -> Vec<(Conv2dSpec, usize, usize)> {
    let mut convs = vec![
        (
            Conv2dSpec::square(c.in_channels, c.c_stem, 3, 1),
            height,
            width,
        ),
        (Conv2dSpec::square(c.c_stem, c.c_enc1, 3, 2), height, width),
    ];
    let mut block = |input: usize, output: usize, stride: usize, h: usize, w: usize| {
        let (oh, ow) = (h / stride, w / stride);
        convs.push((Conv2dSpec::square(input, output, 3, stride), h, w));
        convs.push((Conv2dSpec::rect(output, output, 3, 1), oh, ow));
        convs.push((Conv2dSpec::rect(output, output, 1, 3), oh, ow));
        convs.push((Conv2dSpec::square(output, output, 1, 1), oh, ow));
        if input != output || stride != 1 {
            convs.push((Conv2dSpec::square(input, output, 1, stride), h, w));
        }
    };
    let (h2, w2, h4, w4) = (height / 2, width / 2, height / 4, width / 4);
    block(c.c_enc1, c.c_enc1, 1, h2, w2);
    block(c.c_enc1, c.c_enc2, 2, h2, w2);
    block(c.c_enc2, c.c_enc2, 1, h4, w4);
    block(c.c_enc2, c.c_enc2, 1, h4, w4);
    block(2 * c.c_enc2, c.c_dec1, 1, h4, w4);
    block(c.c_dec1 + c.c_enc1, c.c_dec2, 1, h2, w2);
    convs.push((Conv2dSpec::square(c.c_dec2, c.c_head, 3, 1), h2, w2));
    convs.push((Conv2dSpec::square(c.c_head, c.c_head, 3, 1), h2, w2));
    convs.push((Conv2dSpec::square(c.c_head, c.num_classes, 1, 1), h2, w2));
    convs
}

/// The student's largest convolution (by multiply-accumulates) through
/// `st_tensor`: im2col, forward, backward, and the GEMM underneath.
fn tensor_probes(
    student: StudentConfig,
    dims: (usize, usize),
    steps_per_keyframe: f64,
    iterations: usize,
) -> Result<Vec<(&'static str, f64)>> {
    let convs = student_convs(student, dims);
    let forward_macs: u64 = convs.iter().map(|(spec, h, w)| spec.macs(*h, *w)).sum();
    let (spec, h, w) = convs
        .iter()
        .max_by_key(|(spec, h, w)| spec.macs(*h, *w))
        .expect("the student has convolutions");
    let input = st_tensor::random::uniform(Shape::nchw(1, spec.in_channels, *h, *w), -1.0, 1.0, 3);
    let weight = st_tensor::random::uniform(spec.weight_shape(), -0.1, 0.1, 4);
    let (output, columns) = conv2d_forward(&input, &weight, None, spec)?;
    let grad_out = st_tensor::random::uniform(output.shape().clone(), -1.0, 1.0, 5);
    let k = spec.in_channels * spec.kernel_h * spec.kernel_w;
    let w_mat = weight.reshape(Shape::matrix(spec.out_channels, k))?;
    let pixels = columns.numel() / k;
    let gemm_ms = probe_ms(iterations, || st_tensor::matmul::matmul(&w_mat, &columns));
    let gemm_flops = 2.0 * (spec.out_channels * k * pixels) as f64;
    Ok(vec![
        ("tensor.gemm_gflops", gemm_flops / (gemm_ms / 1e3) / 1e9),
        (
            "tensor.conv_fwd_ms",
            probe_ms(iterations, || conv2d_forward(&input, &weight, None, spec)),
        ),
        (
            "tensor.conv_bwd_ms",
            probe_ms(iterations, || {
                conv2d_backward(&grad_out, &columns, &weight, spec, *h, *w, true)
            }),
        ),
        (
            "tensor.im2col_ms",
            probe_ms(iterations, || im2col(&input, spec)),
        ),
        // Computed, not measured: student forward passes the server runs
        // per key frame (one evaluation, then a training forward and an
        // evaluation per Algorithm-1 step), in multiply-accumulates.
        (
            "tensor.macs_per_keyframe",
            forward_macs as f64 * (1.0 + 2.0 * steps_per_keyframe),
        ),
    ])
}
