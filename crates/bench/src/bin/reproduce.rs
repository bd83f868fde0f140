//! `reproduce` — regenerate the paper's tables and figures, and this
//! reproduction's own tables, from the Rust reproduction. It is the one
//! entry point that runs them.
//!
//! Usage:
//!
//! ```text
//! reproduce [scale] [target...] [--json <path>] [--skew <multiplier>]
//!
//! scale   smoke | default | extended      (default: default)
//!         smoke is CI's size; default is the size the committed
//!         BENCH_*.json files and the README's numbers were measured at
//! target  table2 table3 table4 table5 table6 table7 table8 table9 table10
//!         table12 table13 figure4 bounds ablation shm all   (default: all)
//!         an unknown target exits 2 before anything runs; shm is the
//!         two-process shared-memory demo (client and server pool as
//!         separate OS processes over the ring transport, traffic measured
//!         from encoded frames), deliberately not part of all, so plain runs
//!         never spawn processes
//! --json  also write the run — scale, host, wall time and every reproduced
//!         table — as JSON to <path> (CI uploads this as the run's
//!         machine-readable artifact; a committed BENCH_*.json is one)
//! --skew  hot-stream multiplier for the table9 skewed-arrival sweep; also
//!         recorded in the JSON schema's `skew` field (without it the sweep
//!         is 1x/8x at smoke and 1x/4x/8x above)
//! ```
//!
//! Tables 3, 5 and 6 (6 not at `extended`), the bounds table, tables 10,
//! 12 and 13 and the shm demo carry gates (the `*_gate` functions of
//! `st_bench::tables` and `st_bench::shm_demo`): every requested target
//! runs, then the process exits 1 if any gate failed.
//!
//! Example: `cargo run --release -p st-bench --bin reproduce -- smoke table6`

use st_bench::figures::figure4;
use st_bench::json::{host_json, run_to_json};
use st_bench::shm_demo::{shm_gate, table_shm};
use st_bench::tables::{
    ablation_stride, accuracy_gate, bounds_check, bounds_gate, payload_gate, table10_batched,
    table10_gate, table12_capacity, table12_gate, table13_gate, table13_weight_dedup, table2,
    table2_step_breakdown, table4, table6, table7, table8_multistream, table9_skewed,
    tables_3_and_5, throughput_gate, traffic_gate, TableOutput,
};
use st_bench::{ExperimentScale, SharedSetup};
use std::cell::OnceCell;
use std::time::Instant;

/// Every target `reproduce` knows; `all` runs every one but `shm`.
const TARGETS: [&str; 15] = [
    "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9", "table10",
    "table12", "table13", "figure4", "bounds", "ablation", "shm",
];

/// Table 12's p99 queue-wait target: a rung is within capacity under it.
const TABLE12_TARGET_WAIT_MS: f64 = 25.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden role: `reproduce shm-client <segment> <record-out> <frames> <seed>`
    // is the child process half of the `shm` demo. It must be
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
        if arg == "--json" {
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
    if let Some(unknown) = targets
        .iter()
        .find(|t| *t != "all" && !TARGETS.contains(&t.as_str()))
    {
        eprintln!(
            "unknown target `{unknown}`; valid targets: {} all",
            TARGETS.join(" ")
        );
        std::process::exit(2);
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    // The two-process shm demo runs only on the explicit `shm` target,
    // never as part of `all`: spawning child processes does not belong in
    // every smoke run.
    let want = |name: &str| targets.iter().any(|t| t == name || t == "all");
    let want_shm = targets.iter().any(|t| t == "shm");

    println!("ShadowTutor reproduction harness (scale: {scale:?})");
    let start = Instant::now();
    // Built on first use: the live-pool tables and the shm demo never read
    // the pre-trained checkpoint.
    let setup_cell = OnceCell::new();
    let setup = || {
        setup_cell.get_or_init(|| {
            println!("building shared setup (pre-training the student checkpoint)...");
            let started = Instant::now();
            let setup = SharedSetup::new(scale);
            println!("setup ready in {:.1}s\n", started.elapsed().as_secs_f64());
            setup
        })
    };

    let mut run = Run::default();
    if want_shm {
        match table_shm(scale) {
            Ok(table) => {
                let gate = shm_gate(&table);
                run.emit(table, gate);
            }
            Err(e) => run.fail("SHM", &format!("shm transport demo failed: {e}")),
        }
    }
    if want("table2") {
        run.emit(table2(setup()), Ok(()));
        run.emit(table2_step_breakdown(30), Ok(()));
    }
    if want("table4") {
        run.emit(table4(), Ok(()));
    }
    if want("table3") || want("table5") || want("bounds") {
        let t = tables_3_and_5(setup());
        if want("table3") {
            run.emit(t.table3.clone(), throughput_gate(&t.table3));
        }
        if want("table5") {
            let gate = traffic_gate(&t.table5).and(payload_gate(&t.table5));
            run.emit(t.table5.clone(), gate);
        }
        if want("bounds") {
            let table = bounds_check(setup(), &t.partial_records);
            let gate = bounds_gate(&table);
            run.emit(table, gate);
        }
    }
    if want("table6") {
        let table = table6(setup());
        // At `extended` distillation never changes the student yet
        // (ROADMAP item 13: P-1 = P-8 = Wild), so the gate waits for it.
        let gate = if scale == ExperimentScale::Extended {
            println!("Table 6's accuracy gate: exempt at extended scale (ROADMAP item 13)\n");
            Ok(())
        } else {
            accuracy_gate(&table)
        };
        run.emit(table, gate);
    }
    if want("table7") {
        run.emit(table7(setup()), Ok(()));
    }
    if want("figure4") {
        println!("{}", figure4(setup()).render());
    }
    if want("ablation") {
        run.emit(ablation_stride(setup()), Ok(()));
    }
    if want("table8") {
        // The multi-stream pool's stream-count ladder, every frame a key
        // frame, each rung with and without the distill crew.
        let (ladder, frames): (&[usize], usize) = match scale {
            ExperimentScale::Smoke => (&[1, 8], 8),
            ExperimentScale::Default => (&[1, 2, 4, 8], 16),
            ExperimentScale::Extended => (&[1, 2, 4, 8, 16], 32),
        };
        run.emit(table8_multistream(ladder, frames), Ok(()));
    }
    if want("table9") || skew.is_some() {
        // The skewed-arrival fairness sweep runs the live pool under an
        // adversarial hot stream; --skew sets the top multiplier.
        let sweep: Vec<usize> = match (skew, scale) {
            (Some(1), _) => vec![1],
            (Some(top), _) => vec![1, top],
            (None, ExperimentScale::Smoke) => vec![1, 8],
            (None, _) => vec![1, 4, 8],
        };
        let (streams, key_frames) = match scale {
            ExperimentScale::Smoke => (4, 2),
            ExperimentScale::Default => (4, 6),
            ExperimentScale::Extended => (8, 10),
        };
        run.emit(table9_skewed(&sweep, streams, key_frames), Ok(()));
    }
    if want("table10") {
        // Batched-teacher throughput over batch 1/2/4/8: teacher width and
        // timed repetitions per batch size.
        let (width, reps) = match scale {
            ExperimentScale::Smoke => (1, 5),
            ExperimentScale::Default => (2, 9),
            ExperimentScale::Extended => (2, 31),
        };
        let table = table10_batched(&[1, 2, 4, 8], width, reps);
        let gate = table10_gate(&table);
        run.emit(table, gate);
    }
    if want("table12") {
        // The fixed-worker-set capacity ladder: one shard per reactor
        // worker vs one shard per stream at the same OS thread count.
        let (ladder, threads, key_frames): (&[usize], usize, usize) = match scale {
            ExperimentScale::Smoke => (&[2, 4], 2, 3),
            ExperimentScale::Default => (&[8, 16, 32, 64], 8, 12),
            ExperimentScale::Extended => (&[8, 16, 32, 64], 8, 24),
        };
        let table = table12_capacity(ladder, threads, key_frames, TABLE12_TARGET_WAIT_MS);
        let headline = scale != ExperimentScale::Smoke;
        let gate = table12_gate(&table, ladder, TABLE12_TARGET_WAIT_MS, headline);
        run.emit(table, gate);
    }
    if want("table13") {
        // The weight-dedup ladder. Streams need enough frames for some key
        // frames to early-stop at an unchanged checkpoint (the
        // converged-update discount): too-short streams train on every key
        // frame and the delta's envelope overhead would wash out its savings.
        let (ladder, frames): (&[usize], usize) = match scale {
            ExperimentScale::Smoke => (&[2, 4], 20),
            ExperimentScale::Default => (&[2, 4, 8, 16], 32),
            ExperimentScale::Extended => (&[2, 4, 8, 16, 32], 64),
        };
        let table = table13_weight_dedup(ladder, frames);
        let gate = table13_gate(&table, ladder);
        run.emit(table, gate);
    }

    let total = start.elapsed().as_secs_f64();
    println!("total wall time: {total:.1}s");
    if let Some(path) = json_path {
        let scale_label = format!("{scale:?}").to_lowercase();
        let json = run_to_json(&scale_label, skew, &host_json(), &run.produced, total);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote JSON artifact: {path}");
    }
    if !run.failed.is_empty() {
        eprintln!("gate failed: {}", run.failed.join(", "));
        std::process::exit(1);
    }
}

/// What a run has produced so far: every table, and the ids of those whose
/// gate failed.
#[derive(Default)]
struct Run {
    produced: Vec<TableOutput>,
    failed: Vec<String>,
}

impl Run {
    /// Print a table, record its gate's verdict (`Ok` for ungated tables)
    /// and keep it for the JSON artifact.
    fn emit(&mut self, table: TableOutput, gate: Result<(), String>) {
        println!("{}", table.text);
        if let Err(why) = gate {
            self.fail(&table.id, &why);
        }
        self.produced.push(table);
    }

    fn fail(&mut self, id: &str, why: &str) {
        eprintln!("FAIL {id}: {why}");
        self.failed.push(id.to_string());
    }
}
