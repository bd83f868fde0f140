//! Table 12 (new in this reproduction, no paper counterpart) — stream
//! capacity of a fixed worker set: a ladder of concurrent open-loop
//! streams driven against the pool twice per rung, once partitioned
//! (`shards == threads`, static pinning) and once pooled
//! (`shards == streams`), both reactor-hosted with
//! `reactor_threads == threads`. The table reports
//! p99 queue waits per rung and the measured capacity — the largest rung
//! whose p99 wait stays under the target — beside the analytic
//! partitioned/pooled predictions.
//!
//! Criterion additionally measures the reactor's client-side hot path:
//! one poller wake-up round trip (wake → poll → drain) at two token
//! counts, the per-event cost the multiplexed drivers pay.
//!
//! Knobs (for CI's tiny smoke sweep):
//!
//! * `TABLE12_SWEEP=smoke` shrinks the ladder and the per-stream
//!   key-frame counts.
//! * `TABLE12_JSON=<path>` additionally writes the table as JSON
//!   (uploaded next to the table9/table10 artifacts).

use criterion::{criterion_group, criterion_main, Criterion};
use st_bench::json::table_to_json;
use st_bench::tables::table12_capacity;
use st_net::Poller;
use std::time::Duration;

fn capacity_benchmark(c: &mut Criterion) {
    let mut group = c.benchmark_group("table12_capacity");
    group.sample_size(10);

    // Poller wake-up round trip: the dispatch overhead every reactor event
    // pays before any real work happens. Measured at 1 and 256 registered
    // tokens — the reactor's promise is that mostly-idle registrations are
    // (near) free.
    for &tokens in &[1usize, 256] {
        group.bench_function(format!("poller_wake_roundtrip_{tokens}tokens"), |bench| {
            let poller = Poller::new();
            let wakers: Vec<_> = (0..tokens).map(|t| poller.waker(t)).collect();
            bench.iter(|| {
                wakers[tokens / 2].wake();
                let ready = poller.poll(Duration::from_millis(10));
                assert!(ready.contains(tokens / 2));
                ready.tokens().len()
            })
        });
    }
    group.finish();

    // The capacity ladder itself: partitioned vs pooled at a fixed thread
    // count. Thread and target choices match the committed
    // BENCH_table12.json numbers.
    let smoke = std::env::var("TABLE12_SWEEP").as_deref() == Ok("smoke");
    let (ladder, threads, key_frames, target_ms): (&[usize], usize, usize, f64) = if smoke {
        (&[2, 4], 2, 3, 25.0)
    } else {
        (&[8, 16, 32, 64], 8, 12, 25.0)
    };
    let table = table12_capacity(ladder, threads, key_frames, target_ms);
    println!("\n{}", table.text);

    // The point of the reactor: at the same thread count and the same
    // wait target, the pooled topology must carry strictly more streams.
    // (The full ladder asserts the 4x headline; smoke only sanity-checks
    // that pooling is not worse on its tiny ladder.)
    let capacity = |column: &str| -> usize {
        table
            .column(column)
            .expect("wait column")
            .iter()
            .zip(ladder)
            .filter(|(wait, _)| **wait <= target_ms)
            .map(|(_, streams)| *streams)
            .max()
            .unwrap_or(0)
    };
    let per_shard = capacity("per-shard p99 wait ms");
    let reactor = capacity("reactor p99 wait ms");
    if smoke {
        if reactor < per_shard {
            eprintln!(
                "pooled capacity regressed below partitioned on the smoke ladder: \
                 {reactor} < {per_shard} streams at p99 wait <= {target_ms} ms"
            );
            std::process::exit(1);
        }
    } else if reactor < 4 * per_shard.max(1) {
        eprintln!(
            "pooled capacity fell below the 4x headline: {reactor} streams vs \
             partitioned {per_shard} at p99 wait <= {target_ms} ms"
        );
        std::process::exit(1);
    }

    if let Ok(path) = std::env::var("TABLE12_JSON") {
        let json = table_to_json(&table);
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote JSON artifact: {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

criterion_group!(benches, capacity_benchmark);
criterion_main!(benches);
