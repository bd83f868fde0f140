//! `stbench` — a repeatable key-frame benchmark of the ShadowTutor pool.
//!
//! ```text
//! stbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     object (`--trace 0`: end-to-end metrics, `--trace 1`: per-layer)
//! stbench [--seed <n>] [--seconds <s>] [--no-trace] [--smoke]
//!     every workload, each in a fresh child process of this binary, then
//!     `stbench/out/results.json`
//! stbench --check
//!     the bench's client driver against `run_live_multi_with`
//! ```
//!
//! See `stbench/README.md` for the metric glossary and the noise method.

mod bench;
mod check;
mod client;
mod host;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workload;

use bench::{Plan, Report};
use json::Value;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    emit_benchmark_json: bool,
    /// Internal (parent → child): print the per-round detail object on the
    /// line before the result line.
    detail: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: true,
        smoke: false,
        check: false,
        emit_benchmark_json: false,
        detail: false,
    };
    let mut explicit_trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
                explicit_trace = true;
            }
            "--no-trace" => args.trace = false,
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            "--detail" => args.detail = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_some() && !explicit_trace {
        args.trace = false;
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

impl Args {
    fn plan(&self) -> Plan {
        if self.smoke {
            Plan::SMOKE
        } else {
            Plan {
                seconds: self.seconds,
                scale: 1.0,
                setups: 5,
                min_rounds: 3,
            }
        }
    }
}

/// One workload in this process (the contract's mode, and what the full
/// run's children execute).
fn run_one(name: &str, args: &Args) -> Result<Report, String> {
    let plan = args.plan();
    let workload = workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .scaled(plan.scale);
    if args.trace {
        bench::run_traced(&workload, args.seed, &plan)
    } else {
        bench::run_end_to_end(&workload, args.seed, &plan)
    }
    .map_err(|e| format!("{name}: {e}"))
}

/// Every workload, each in a fresh child process, sequentially.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for workload in workload::all() {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--detail");
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command
                .output()
                .map_err(|e| format!("spawn {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().unwrap_or_default();
            let detail = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let ok = output.status.success()
                && json::parse(result)
                    .ok()
                    .and_then(|r| r.get("correct").cloned())
                    == Some(Value::Bool(true));
            all_ok &= ok;
            runs.push(Value::obj([
                ("workload", Value::str(workload.name)),
                ("trace", Value::Bool(trace)),
                ("ok", Value::Bool(ok)),
                ("detail", json::parse(detail).unwrap_or(Value::Null)),
            ]));
        }
    }
    let results = Value::obj([
        ("host", host::metadata(args.seed)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::Num(args.seconds)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = workload::out_dir()
        .map_err(|e| e.to_string())?
        .join("results.json");
    std::fs::write(&path, results.render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    // One kernel thread per role: the client driver and one pool worker
    // already fill the reference host's two cores.
    st_tensor::parallel::set_threads(1);
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("stbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!(
            "{}",
            metrics::pretty(&metrics::benchmark_json(&workload::catalog()))
        );
        return ExitCode::SUCCESS;
    }
    if args.check {
        return match check::driver_matches_product() {
            Ok(summary) => {
                println!("check ok: {summary}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("check FAILED: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args).map(|report| {
            report.print();
            if args.detail {
                println!("{}", report.detail().render());
            }
            println!("{}", report.result_line());
            report.failures.is_empty()
        }),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("stbench: {message}");
            ExitCode::FAILURE
        }
    }
}
