//! `reproduce` — regenerate the paper's tables and figures from the Rust
//! reproduction.
//!
//! Usage:
//!
//! ```text
//! reproduce [scale] [target...] [--json <path>] [--skew <multiplier>]
//!           [--transport <channel|shm>]
//!
//! scale   smoke | default | extended      (default: default)
//! target  table2 table3 table4 table5 table6 table7 table9 table12 figure4
//!         bounds ablation shm all         (default: all)
//! --json  also write every reproduced table as JSON to <path>
//!         (CI uploads this as the run's machine-readable artifact)
//! --skew  hot-stream multiplier for the table9 skewed-arrival sweep; also
//!         recorded in the JSON schema's `skew` field (default 8 when the
//!         table9 target is requested without --skew)
//! --transport  channel (default, in-process) or shm: run the two-process
//!         shared-memory demo — client and server pool as separate OS
//!         processes over the ring transport, traffic measured from encoded
//!         frames. Equivalent to the explicit `shm` target; deliberately not
//!         part of `all`, so plain runs never spawn processes.
//! ```
//!
//! Example: `cargo run --release -p st-bench --bin reproduce -- smoke table6`

use st_bench::figures::figure4;
use st_bench::json::run_to_json;
use st_bench::tables::{
    ablation_stride, bounds_check, table12_capacity, table2, table4, table6, table7, table9_skewed,
    tables_3_and_5, TableOutput,
};
use st_bench::{ExperimentScale, SharedSetup};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden role: `reproduce shm-client <segment> <record-out> <frames> <seed>`
    // is the child process half of the `--transport shm` demo. It must be
    // intercepted before ordinary argument parsing.
    if args.first().map(String::as_str) == Some("shm-client") {
        std::process::exit(st_bench::shm_demo::shm_client_main(&args[1..]));
    }
    let mut scale = ExperimentScale::Default;
    let mut targets: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut skew: Option<usize> = None;
    let mut args_iter = args.iter();
    while let Some(arg) = args_iter.next() {
        if arg == "--transport" {
            match args_iter.next().map(String::as_str) {
                Some("channel") => {} // the default backend; nothing extra to run
                Some("shm") => targets.push("shm".to_string()),
                _ => {
                    eprintln!("--transport requires `channel` or `shm`");
                    std::process::exit(2);
                }
            }
        } else if arg == "--json" {
            json_path = args_iter.next().cloned();
            if json_path.is_none() {
                eprintln!("--json requires a path argument");
                std::process::exit(2);
            }
        } else if arg == "--skew" {
            let Some(value) = args_iter.next().and_then(|v| v.parse::<usize>().ok()) else {
                eprintln!("--skew requires a positive integer multiplier");
                std::process::exit(2);
            };
            if value == 0 {
                eprintln!("--skew requires a positive integer multiplier");
                std::process::exit(2);
            }
            skew = Some(value);
        } else if let Some(s) = ExperimentScale::parse(arg) {
            scale = s;
        } else {
            targets.push(arg.clone());
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    // The two-process shm demo runs only on the explicit `shm` target (or
    // `--transport shm`), never as part of `all`: spawning child processes
    // does not belong in every smoke run.
    let want = |name: &str| targets.iter().any(|t| t == name || t == "all");
    let want_shm = targets.iter().any(|t| t == "shm");
    let needs_setup = targets.iter().any(|t| t != "shm");

    println!("ShadowTutor reproduction harness (scale: {scale:?})");
    let start = Instant::now();
    let setup = if needs_setup {
        println!("building shared setup (pre-training the student checkpoint)...");
        let setup = SharedSetup::new(scale);
        println!("setup ready in {:.1}s\n", start.elapsed().as_secs_f64());
        Some(setup)
    } else {
        None
    };

    let mut produced: Vec<TableOutput> = Vec::new();
    let emit = |table: TableOutput, produced: &mut Vec<TableOutput>| {
        println!("{}", table.text);
        produced.push(table);
    };

    if want_shm {
        match st_bench::shm_demo::table_shm(scale) {
            Ok(table) => emit(table, &mut produced),
            Err(e) => {
                eprintln!("shm transport demo failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let setup = match setup {
        Some(setup) => setup,
        None => {
            finish(start, json_path, skew, scale, &produced);
            return;
        }
    };
    let setup = &setup;

    if want("table2") {
        emit(table2(setup), &mut produced);
    }
    if want("table4") {
        emit(table4(), &mut produced);
    }
    let mut throughput = None;
    if want("table3") || want("table5") || want("bounds") {
        let t = tables_3_and_5(setup);
        if want("table3") {
            emit(t.table3.clone(), &mut produced);
        }
        if want("table5") {
            emit(t.table5.clone(), &mut produced);
        }
        throughput = Some(t);
    }
    if want("bounds") {
        if let Some(t) = &throughput {
            emit(bounds_check(setup, &t.partial_records), &mut produced);
        }
    }
    if want("table6") {
        emit(table6(setup), &mut produced);
    }
    if want("table7") {
        emit(table7(setup), &mut produced);
    }
    if want("figure4") {
        let f = figure4(setup);
        println!("{}", f.render());
    }
    if want("ablation") {
        emit(ablation_stride(setup), &mut produced);
    }
    if want("table9") || skew.is_some() {
        // The skewed-arrival fairness sweep runs the live pool under an
        // adversarial hot stream; --skew sets the top multiplier.
        let top = skew.unwrap_or(8).max(1);
        let sweep: Vec<usize> = if top == 1 { vec![1] } else { vec![1, top] };
        let (streams, key_frames) = match scale {
            ExperimentScale::Smoke => (4, 3),
            ExperimentScale::Default => (4, 6),
            ExperimentScale::Extended => (8, 10),
        };
        emit(table9_skewed(&sweep, streams, key_frames), &mut produced);
    }
    if want("table12") {
        // The fixed-worker-set capacity ladder: one shard per reactor
        // worker vs one shard per stream at the same OS thread count.
        let (ladder, threads, key_frames): (&[usize], usize, usize) = match scale {
            ExperimentScale::Smoke => (&[2, 4], 2, 3),
            ExperimentScale::Default => (&[8, 16, 32], 8, 6),
            ExperimentScale::Extended => (&[8, 16, 32, 64], 8, 12),
        };
        emit(
            table12_capacity(ladder, threads, key_frames, 25.0),
            &mut produced,
        );
    }
    finish(start, json_path, skew, scale, &produced);
}

/// Print the wall-time footer and, when requested, write the JSON artifact.
fn finish(
    start: Instant,
    json_path: Option<String>,
    skew: Option<usize>,
    scale: ExperimentScale,
    produced: &[TableOutput],
) {
    let total = start.elapsed().as_secs_f64();
    println!("total wall time: {total:.1}s");

    if let Some(path) = json_path {
        let scale_label = format!("{scale:?}").to_lowercase();
        let json = run_to_json(&scale_label, skew, produced, total);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote JSON artifact: {path}");
    }
}
