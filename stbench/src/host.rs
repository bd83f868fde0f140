//! What the host is and what this process has cost it so far.
//!
//! The workspace has no `libc`, so process accounting comes from `/proc`.

use crate::json::Value;
use std::process::Command;

/// Scheduler ticks per second in `/proc/<pid>/stat`. `USER_HZ` has been 100
/// on every Linux ABI since 2.6; without libc there is no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by every thread of this process.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|field| field.parse().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host metadata recorded with every full run, so two result files can be
/// told apart by where they were measured.
pub fn metadata(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "ST_THREADS",
            Value::Num(st_tensor::parallel::threads() as f64),
        ),
        ("seed", Value::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_accounting_reads_plausible_values() {
        let before = process_cpu_secs();
        let mut acc = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let after = process_cpu_secs();
        assert!(after >= before + 0.03, "cpu {before} -> {after}");
        assert!(peak_rss_mb() > 1.0);
        assert!(nproc() >= 1);
    }
}
