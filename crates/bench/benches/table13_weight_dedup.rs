//! Table 13 (new in this reproduction, no paper counterpart) — weight
//! deduplication under multi-stream serving: a ladder of stream counts, each
//! rung run twice against a live pool — content-keyed weight store
//! (copy-on-write sessions + delta-encoded updates) vs the pre-store layout
//! (deep-cloned sessions + full-snapshot updates). The table reports
//! measured resident weight bytes and update wire bytes per rung. (The
//! store's interning and the per-update delta computation are timed by
//! `stbench`'s `store.intern_us` and `delta.compute_us` probes.)
//!
//! Knobs (for CI's tiny smoke sweep):
//!
//! * `TABLE13_SWEEP=smoke` shrinks the ladder and the per-stream frame
//!   counts.
//! * `TABLE13_JSON=<path>` additionally writes the table as JSON.

use st_bench::json::table_to_json;
use st_bench::tables::table13_weight_dedup;

fn main() {
    let smoke = std::env::var("TABLE13_SWEEP").as_deref() == Ok("smoke");
    // Streams need enough frames for some key frames to early-stop at an
    // unchanged checkpoint (the converged-update discount): too-short
    // streams train on every key frame and the delta's envelope overhead
    // would wash out its savings.
    let (ladder, frames_per_stream): (&[usize], usize) = if smoke {
        (&[2, 4], 20)
    } else {
        (&[2, 4, 8, 16], 32)
    };
    let table = table13_weight_dedup(ladder, frames_per_stream);
    println!("\n{}", table.text);

    let column = |name: &str| table.column(name).expect("table13 column");
    let cow = column("cow resident KiB");
    let clone = column("clone resident KiB");
    let delta_wire = column("delta wire KiB");
    let full_wire = column("full-equiv wire KiB");
    let rejections = column("delta rejections");

    for (i, &streams) in ladder.iter().enumerate() {
        // Residency, per rung: the store must hold fewer resident bytes than
        // deep cloning (every rung has ≥ 2 streams, so the shared template
        // amortizes).
        if cow[i] >= clone[i] {
            eprintln!(
                "weight store residency regressed at {streams} streams: \
                 cow {} KiB >= clone {} KiB",
                cow[i], clone[i]
            );
            std::process::exit(1);
        }
        // In-spec runs never reject a delta: the server only sends one when
        // the stream's track is synced.
        if rejections[i] != 0.0 {
            eprintln!(
                "clients rejected {} deltas at {streams} streams",
                rejections[i]
            );
            std::process::exit(1);
        }
    }
    // Wire bytes, across the sweep: the delta stream must cost strictly
    // fewer bytes than the same updates sent as full envelopes. Aggregated
    // over the ladder rather than per rung — the discount comes from key
    // frames that early-stop at an unchanged checkpoint, and a single tiny
    // rung may train on every one of its few key frames, leaving only the
    // delta's envelope overhead (a fraction of a KiB) on that row.
    let delta_total: f64 = delta_wire.iter().sum();
    let full_total: f64 = full_wire.iter().sum();
    if delta_total >= full_total {
        eprintln!(
            "delta encoding saved nothing across the sweep: \
             delta {delta_total} KiB >= full {full_total} KiB"
        );
        std::process::exit(1);
    }
    // Sublinear residency across the ladder: growing the population from
    // the first rung to the last must cost less than the proportional
    // (clone-law) growth, because only trainable stages are added.
    let first = ladder[0] as f64;
    let last = *ladder.last().expect("non-empty ladder") as f64;
    if last > first {
        let proportional = cow[0] * last / first;
        let measured = cow[ladder.len() - 1];
        if measured >= proportional {
            eprintln!(
                "cow residency is not sublinear: {measured} KiB at {last} streams vs \
                 proportional {proportional} KiB from {first} streams"
            );
            std::process::exit(1);
        }
    }

    if let Ok(path) = std::env::var("TABLE13_JSON") {
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
