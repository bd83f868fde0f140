//! End-to-end smoke test of the `reproduce` binary: run it on the smallest
//! workload and check it exits cleanly with the expected table output.

use std::process::Command;

#[test]
fn reproduce_binary_runs_end_to_end_on_a_tiny_workload() {
    let json_path =
        std::env::temp_dir().join(format!("reproduce-smoke-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["smoke", "table4", "--json"])
        .arg(&json_path)
        .output()
        .expect("reproduce binary should spawn");
    assert!(
        output.status.success(),
        "reproduce exited with {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("Table 4: data transmitted on each key frame"),
        "missing table header in output:\n{stdout}"
    );
    assert!(
        stdout.contains("To Server"),
        "missing table rows:\n{stdout}"
    );
    assert!(
        stdout.contains("total wall time"),
        "missing completion footer:\n{stdout}"
    );
    // The run object: one host, the one table requested.
    let json = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    let _ = std::fs::remove_file(&json_path);
    assert!(json.starts_with("{\"scale\":\"smoke\""), "{json}");
    assert_eq!(json.matches("\"host\":{\"nproc\":").count(), 1, "{json}");
    assert_eq!(json.matches("\"id\":").count(), 1, "{json}");
    assert!(json.contains("\"id\":\"Table 4\""), "{json}");
}

#[test]
fn reproduce_binary_rejects_unknown_targets() {
    // A misspelt target must not pass green: it exits 2 before running
    // anything, even beside a valid one, and names the valid targets.
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["smoke", "table4", "no_such_table"])
        .output()
        .expect("reproduce binary should spawn");
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("Table 4"), "ran a table:\n{stdout}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown target `no_such_table`") && stderr.contains("table13"),
        "stderr: {stderr}"
    );
}
