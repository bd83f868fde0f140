//! Table 10 (new in this reproduction, no paper counterpart) — batched
//! teacher throughput: per-frame wall cost of the genuinely batched
//! `CnnTeacher` forward as the co-scheduled batch size sweeps 1/2/4/8.
//!
//! Doubles as the CI threshold gate for the kernel-level batching win: the
//! bench **exits non-zero** when the measured per-frame cost at the largest
//! batch size is not below the per-frame cost at batch 1 — if batching stops
//! amortizing, CI fails rather than silently shipping a regression. (One
//! batch-4 forward alone is timed by `stbench`'s `teacher.forward_ms_b4`
//! probe.)
//!
//! Knobs (for CI's tiny smoke sweep):
//!
//! * `TABLE10_SWEEP=smoke` shrinks the teacher and the repetition count.
//! * `TABLE10_JSON=<path>` additionally writes the table as JSON (uploaded
//!   next to the reproduce artifact).

use st_bench::json::table_to_json;
use st_bench::tables::table10_batched;

fn main() {
    // The throughput sweep itself: per-frame cost vs batch size.
    let smoke = std::env::var("TABLE10_SWEEP").as_deref() == Ok("smoke");
    let (width, reps) = if smoke { (1, 5) } else { (2, 9) };
    let sweep = [1usize, 2, 4, 8];
    let table = table10_batched(&sweep, width, reps);
    println!("\n{}", table.text);

    if let Ok(path) = std::env::var("TABLE10_JSON") {
        let json = table_to_json(&table);
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote JSON artifact: {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Threshold gate: batching must amortize at the deepest window.
    let per_frame = table.column("per-frame ms").expect("per-frame column");
    let (solo, deepest) = (per_frame[0], per_frame[per_frame.len() - 1]);
    if deepest >= solo {
        eprintln!(
            "FAIL: batched per-frame cost did not amortize \
             (batch {} at {deepest:.3} ms/frame >= batch 1 at {solo:.3} ms/frame)",
            sweep[sweep.len() - 1]
        );
        std::process::exit(1);
    }
    println!(
        "batched-forward amortization OK: batch {} runs {deepest:.3} ms/frame vs {solo:.3} solo",
        sweep[sweep.len() - 1]
    );
}
