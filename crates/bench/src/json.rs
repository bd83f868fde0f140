//! Minimal JSON export of the reproduced tables.
//!
//! The workspace has no serializer dependency (the build environment has no
//! registry access); this module hand-rolls the tiny subset of JSON the
//! `reproduce` harness needs so CI can upload the run's numbers
//! as a machine-readable artifact. The format is one object per table:
//! `{"id": ..., "rows": [...], "columns": {"name": [numbers...]}}`.

use crate::tables::TableOutput;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite float as JSON (JSON has no NaN/Inf; they become null).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Render one table as a JSON object.
pub fn table_to_json(table: &TableOutput) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":\"{}\",\"rows\":[", escape(&table.id));
    for (i, label) in table.row_labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(label));
    }
    out.push_str("],\"columns\":{");
    for (i, (name, values)) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":[", escape(name));
        for (j, v) in values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&number(*v));
        }
        out.push(']');
    }
    out.push_str("}}");
    out
}

/// Render one table with a `"host"` object beside its rows — what a
/// committed `BENCH_*.json` needs so two files can be told apart by where
/// they were measured: core count, CPU model, compiler, kernel thread count.
pub fn table_to_json_on_host(table: &TableOutput) -> String {
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
    let mut out = table_to_json(table);
    out.pop();
    let _ = write!(
        out,
        ",\"host\":{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"ST_THREADS\":{}}}}}",
        escape(&cpu_model),
        escape(&rustc),
        st_tensor::parallel::threads()
    );
    out
}

/// Render a full reproduce run (scale label + skew knob + tables + wall
/// time) as JSON.
///
/// `skew` is the hot-stream multiplier the run's skewed-arrival sweep
/// (`reproduce --skew N`, Table 9) was driven with; `None` renders as
/// `null`, so consumers can tell "no skew sweep ran" from "ran at 1x".
pub fn run_to_json(
    scale: &str,
    skew: Option<usize>,
    tables: &[TableOutput],
    total_seconds: f64,
) -> String {
    let mut out = String::new();
    let skew_json = skew.map_or("null".to_string(), |s| s.to_string());
    let _ = write!(
        out,
        "{{\"scale\":\"{}\",\"skew\":{},\"total_seconds\":{},\"tables\":[",
        escape(scale),
        skew_json,
        number(total_seconds)
    );
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&table_to_json(table));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn host_metadata_rides_inside_the_table_object() {
        let json = table_to_json_on_host(&table());
        assert!(json.starts_with("{\"id\":\"Table X\""));
        assert!(json.contains("]},\"host\":{\"nproc\":"));
        assert!(json.contains("\"ST_THREADS\":"));
        assert!(json.ends_with("}}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn runs_embed_every_table() {
        let json = run_to_json("smoke", None, &[table(), table()], 12.5);
        assert!(json.starts_with("{\"scale\":\"smoke\",\"skew\":null,\"total_seconds\":12.5"));
        assert_eq!(json.matches("\"id\":\"Table X\"").count(), 2);
    }

    #[test]
    fn skew_knob_lands_in_the_schema() {
        let json = run_to_json("smoke", Some(8), &[table()], 1.0);
        assert!(json.contains("\"skew\":8,"));
        // Balanced braces/brackets with the new field in place.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
    }
}
