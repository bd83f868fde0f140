//! Table 9 (new in this reproduction, no paper counterpart) — fairness under
//! skewed arrivals: one hot stream sending a multiple of the base key-frame
//! rate against the fair (deficit-round-robin + admission-control) server
//! pool, sweeping the hot-stream share and reporting per-class p50/p99 round
//! trips, server-side queue waits and throttle/drop counts. (The scheduler's
//! deficit-round-robin drain is timed by `stbench`'s `serve.sched_us`
//! probe.)
//!
//! Knobs (for CI's tiny smoke sweep):
//!
//! * `TABLE9_SWEEP=smoke` shrinks the sweep and per-stream key-frame counts.
//! * `TABLE9_JSON=<path>` additionally writes the table as JSON (uploaded
//!   next to the reproduce artifact).

use st_bench::json::table_to_json;
use st_bench::tables::table9_skewed;

fn main() {
    // The fairness sweep itself: hot-stream share vs per-class round trips.
    let smoke = std::env::var("TABLE9_SWEEP").as_deref() == Ok("smoke");
    let (sweep, streams, key_frames): (&[usize], usize, usize) = if smoke {
        (&[1, 8], 4, 2)
    } else {
        (&[1, 4, 8], 4, 6)
    };
    let table = table9_skewed(sweep, streams, key_frames);
    println!("\n{}", table.text);

    if let Ok(path) = std::env::var("TABLE9_JSON") {
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
