//! Table 8 (new in this reproduction, no paper counterpart) — multi-stream
//! serving: throughput and server queueing versus concurrent stream count.
//!
//! The paper evaluates one client per server; this bench drives the sharded
//! [`shadowtutor::serve::ServerPool`] with 1–8 concurrent client streams and
//! reports aggregate frames per wall-clock second, the mean server-side
//! queue wait per key frame, the mean co-scheduled teacher batch size, and
//! the distill crew's width and share of the work — each stream count once
//! with the crew the host affords and once without one.
//! Criterion additionally measures the latency of one batched shard step —
//! the unit of work a pool worker performs per co-scheduled batch.
//!
//! Knobs (for CI's tiny smoke sweep):
//!
//! * `TABLE8_SWEEP=smoke` shrinks the ladder and the per-stream frame count.
//! * `TABLE8_JSON=<path>` additionally writes the table as JSON with host
//!   metadata (the committed `BENCH_table8.json` is one such file).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::serve::{FrameStore, ServeShard, ShardJob};
use st_bench::json::table_to_json_on_host;
use st_bench::tables::table8_multistream;
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_video::dataset::tiny_stream as frames_for;
use st_video::SceneKind;

const SCENES: [SceneKind; 3] = [SceneKind::People, SceneKind::Animals, SceneKind::Street];

/// A shard with `streams` registered sessions and one key-frame job each.
fn loaded_shard(streams: usize) -> (ServeShard<OracleTeacher>, Vec<ShardJob>) {
    let mut shard = ServeShard::new(
        ShadowTutorConfig::paper(),
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        OracleTeacher::perfect(17),
        0.013,
    );
    let mut jobs = Vec::with_capacity(streams);
    for i in 0..streams {
        let frames = frames_for(SCENES[i % SCENES.len()], 9_000 + i as u64, 1);
        let frame_index = frames[0].index;
        shard.register(i as u64, FrameStore::from_frames(&frames, None), false);
        jobs.push(ShardJob {
            stream_id: i as u64,
            frame_index,
        });
    }
    (shard, jobs)
}

fn multistream_benchmark(c: &mut Criterion) {
    let mut group = c.benchmark_group("table8_multistream");
    group.sample_size(10);
    group.bench_function("shard_step_batch1", |bench| {
        bench.iter_batched(
            || loaded_shard(1),
            |(mut shard, jobs)| shard.process_batch(&jobs).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("shard_step_batch4", |bench| {
        bench.iter_batched(
            || loaded_shard(4),
            |(mut shard, jobs)| shard.process_batch(&jobs).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Throughput vs stream count, two shards — what a production deployment
    // would watch while scaling stream admission.
    let smoke = std::env::var("TABLE8_SWEEP").as_deref() == Ok("smoke");
    let (ladder, frames): (&[usize], usize) = if smoke {
        (&[1, 8], 8)
    } else {
        (&[1, 2, 4, 8], 16)
    };
    let table = table8_multistream(ladder, frames);
    println!("\n{}", table.text);
    if let Ok(path) = std::env::var("TABLE8_JSON") {
        match std::fs::write(&path, table_to_json_on_host(&table)) {
            Ok(()) => println!("wrote JSON artifact: {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

criterion_group!(benches, multistream_benchmark);
criterion_main!(benches);
