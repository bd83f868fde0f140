//! Table 8 (new in this reproduction, no paper counterpart) — multi-stream
//! serving: throughput and server queueing versus concurrent stream count.
//!
//! The paper evaluates one client per server; this bench drives the sharded
//! [`shadowtutor::serve::ServerPool`] with 1–8 concurrent client streams and
//! reports aggregate frames per wall-clock second, the mean server-side
//! queue wait per key frame, the mean co-scheduled teacher batch size, and
//! the distill crew's width and share of the work — each stream count once
//! with the crew the host affords and once without one. (One batched shard
//! step is timed by `stbench`'s `serve.process_batch_ms_b1` / `_b4` probes.)
//!
//! Knobs (for CI's tiny smoke sweep):
//!
//! * `TABLE8_SWEEP=smoke` shrinks the ladder and the per-stream frame count.
//! * `TABLE8_JSON=<path>` additionally writes the table as JSON with host
//!   metadata (the committed `BENCH_table8.json` is one such file).

use st_bench::json::table_to_json_on_host;
use st_bench::tables::table8_multistream;

fn main() {
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
