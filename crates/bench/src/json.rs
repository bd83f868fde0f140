//! JSON export of the reproduced tables.
//!
//! Built on the workspace's one writer, [`st_check::json`], so CI can upload
//! the run's numbers as a machine-readable artifact and a committed
//! `BENCH_*.json` is one `reproduce <target> --json <path>` run. The format
//! is one object per run — scale, skew knob, wall time, the `"host"` it ran
//! on — holding one object per table:
//! `{"id": ..., "rows": [...], "columns": {"name": [numbers...]}}`.

use crate::tables::TableOutput;
use st_check::json::{array, field, number, quoted};

/// Render one table as a JSON object.
pub fn table_to_json(table: &TableOutput) -> String {
    let mut columns = String::from("{");
    for (name, values) in &table.columns {
        field(&mut columns, name, array(values.iter().map(|v| number(*v))));
    }
    columns.push('}');
    let mut out = String::from("{");
    field(&mut out, "id", quoted(&table.id));
    field(
        &mut out,
        "rows",
        array(table.row_labels.iter().map(|label| quoted(label))),
    );
    field(&mut out, "columns", columns);
    out.push('}');
    out
}

/// The machine this process runs on as a JSON object — core count, CPU
/// model, compiler, kernel thread count — so two run files can be told
/// apart by where they were measured.
pub fn host_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = String::from("{");
    field(&mut host, "nproc", nproc);
    field(&mut host, "cpu_model", quoted(&cpu_model));
    field(&mut host, "rustc", quoted(&rustc));
    field(&mut host, "ST_THREADS", st_tensor::parallel::threads());
    host.push('}');
    host
}

/// Render a full reproduce run (scale label + skew knob + wall time + host
/// + tables) as JSON.
///
/// `skew` is the hot-stream multiplier the run's skewed-arrival sweep
/// (`reproduce --skew N`, Table 9) was driven with; `None` renders as
/// `null`, so consumers can tell "no skew sweep ran" from "ran at 1x".
/// `host` is an already-rendered object, normally [`host_json`].
pub fn run_to_json(
    scale: &str,
    skew: Option<usize>,
    host: &str,
    tables: &[TableOutput],
    total_seconds: f64,
) -> String {
    let mut out = String::from("{");
    field(&mut out, "scale", quoted(scale));
    field(
        &mut out,
        "skew",
        skew.map_or("null".to_string(), |s| s.to_string()),
    );
    field(&mut out, "total_seconds", number(total_seconds));
    field(&mut out, "host", host);
    field(&mut out, "tables", array(tables.iter().map(table_to_json)));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: &str = "{\"nproc\":2,\"cpu_model\":\"x\",\"rustc\":\"rustc 1\",\"ST_THREADS\":1}";

    fn table() -> TableOutput {
        TableOutput {
            id: "Table X".into(),
            text: String::new(),
            row_labels: vec!["fixed/people".into(), "say \"hi\"".into()],
            columns: vec![
                ("fps".into(), vec![6.54, 7.0]),
                ("ratio".into(), vec![0.0538, f64::NAN]),
            ],
        }
    }

    #[test]
    fn tables_render_valid_json_shapes() {
        let json = table_to_json(&table());
        assert!(json.starts_with("{\"id\":\"Table X\""));
        assert!(json.contains("\"rows\":[\"fixed/people\",\"say \\\"hi\\\"\"]"));
        assert!(json.contains("\"fps\":[6.54,7]"));
        // Non-finite values become null rather than invalid JSON.
        assert!(json.contains("null"));
        // Balanced braces/brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn runs_carry_exactly_one_host_object() {
        let json = run_to_json("smoke", None, &host_json(), &[table(), table()], 1.0);
        assert_eq!(json.matches("\"host\":{\"nproc\":").count(), 1);
        assert_eq!(json.matches("\"ST_THREADS\":").count(), 1);
        // The host sits on the run, not on any table.
        assert!(json.contains("},\"tables\":[{\"id\":\"Table X\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn runs_embed_every_table() {
        let json = run_to_json("smoke", None, HOST, &[table(), table()], 12.5);
        assert!(json.starts_with("{\"scale\":\"smoke\",\"skew\":null,\"total_seconds\":12.5"));
        assert_eq!(json.matches("\"id\":\"Table X\"").count(), 2);
    }

    #[test]
    fn skew_knob_lands_in_the_schema() {
        let json = run_to_json("smoke", Some(8), HOST, &[table()], 1.0);
        assert!(json.contains("\"skew\":8,"));
        // Balanced braces/brackets with the new field in place.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Byte-for-byte what the hand-rolled writer this module used to carry
    /// produced for the same inputs (strings taken from that commit), with
    /// the run's host object after the wall time.
    #[test]
    fn tables_and_runs_match_the_golden_strings() {
        let one = "{\"id\":\"Table X\",\"rows\":[\"fixed/people\",\"say \\\"hi\\\"\"],\
                   \"columns\":{\"fps\":[6.54,7],\"ratio\":[0.0538,null]}}";
        assert_eq!(table_to_json(&table()), one);
        assert_eq!(
            run_to_json("smoke", Some(8), HOST, &[table(), table()], 12.5),
            format!(
                "{{\"scale\":\"smoke\",\"skew\":8,\"total_seconds\":12.5,\"host\":{HOST},\
                 \"tables\":[{one},{one}]}}"
            )
        );
        assert_eq!(
            run_to_json("sm\"oke", None, "{}", &[], f64::INFINITY),
            "{\"scale\":\"sm\\\"oke\",\"skew\":null,\"total_seconds\":null,\"host\":{},\"tables\":[]}"
        );
    }
}
