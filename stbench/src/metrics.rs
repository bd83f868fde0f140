//! The benchmark's vocabulary: every metric it prints, with unit, direction
//! and (end to end) the bound by which it may worsen before a change counts
//! as a regression. `BENCHMARK.json` is generated from these tables
//! (`--emit-benchmark-json`) and a test keeps the two identical.

use crate::json::Value;
use crate::stats::Better::{self, Higher, Lower};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by. End-to-end
    /// metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the pool sees. Every workload reports every one, and none
/// is ever zero (failures are the result line's `attempted` / `failed`).
/// Bounds come from the two-set agreement data in `README.md`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("client_fps", "1/s", Higher, 0.2),
    e2e("keyframes_per_s", "1/s", Higher, 0.2),
    e2e("keyframe_rtt_ms_p50", "ms", Lower, 0.25),
    e2e("cpu_ms_per_frame", "ms", Lower, 0.25),
    e2e("wire_bytes_per_keyframe", "bytes", Lower, 0.15),
    e2e("resident_weight_kib_per_stream", "KiB", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("miou", "ratio", Higher, 0.03),
];

/// One number per layer call, from the traced run. No bounds: these say
/// *where* an end-to-end change came from.
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.infer_ms", "ms", Lower),
    layer("client.apply_us", "us", Lower),
    layer("client.wait_ms", "ms", Lower),
    layer("client.forced_waits", "count", Lower),
    layer("client.keyframe_rtt_ms_p90", "ms", Lower),
    layer("client.frame_late_ms_p90", "ms", Lower),
    layer("client.failed_share", "ratio", Lower),
    layer("client.determinism_breaks", "count", Lower),
    layer("wire.encode_keyframe_us", "us", Lower),
    layer("wire.decode_keyframe_us", "us", Lower),
    layer("wire.encode_update_us", "us", Lower),
    layer("wire.decode_update_us", "us", Lower),
    layer("wire.bytes_up_per_keyframe", "bytes", Lower),
    layer("wire.bytes_down_per_keyframe", "bytes", Lower),
    layer("transport.channel_hop_us", "us", Lower),
    layer("transport.ring_mb_per_s", "MB/s", Higher),
    layer("transport.ring_chunks_per_update", "count", Lower),
    layer("transport.wake_us", "us", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p99", "ms", Lower),
    layer("serve.mean_batch", "count", Higher),
    layer("serve.busy_share", "ratio", Lower),
    layer("serve.poll_wakeups_per_keyframe", "count", Lower),
    layer("serve.events_per_keyframe", "count", Lower),
    layer("serve.timer_fires_per_s", "1/s", Lower),
    layer("serve.throttled", "count", Lower),
    layer("serve.dropped", "count", Lower),
    layer("serve.need_frame_requests", "count", Lower),
    layer("serve.sched_us", "us", Lower),
    layer("serve.framestore_us", "us", Lower),
    layer("serve.process_batch_ms_b1", "ms", Lower),
    layer("serve.process_batch_ms_b4", "ms", Lower),
    layer("teacher.forward_ms_b1", "ms", Lower),
    layer("teacher.forward_ms_b4", "ms", Lower),
    layer("teacher.wall_share", "ratio", Lower),
    layer("train.distill_ms", "ms", Lower),
    layer("train.steps_per_keyframe", "count", Lower),
    layer("train.step_ms", "ms", Lower),
    layer("train.forward_ms", "ms", Lower),
    layer("train.loss_ms", "ms", Lower),
    layer("train.backward_ms", "ms", Lower),
    layer("train.optim_ms", "ms", Lower),
    layer("train.predict_ms", "ms", Lower),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher),
    layer("tensor.conv_fwd_ms", "ms", Lower),
    layer("tensor.conv_bwd_ms", "ms", Lower),
    layer("tensor.im2col_ms", "ms", Lower),
    layer("tensor.macs_per_keyframe", "count", Lower),
    layer("snapshot.capture_us", "us", Lower),
    layer("snapshot.encode_us", "us", Lower),
    layer("snapshot.apply_us", "us", Lower),
    layer("snapshot.bytes_trainable", "bytes", Lower),
    layer("snapshot.bytes_full", "bytes", Lower),
    layer("delta.compute_us", "us", Lower),
    layer("delta.digest_patch_us", "us", Lower),
    layer("delta.check_base_us", "us", Lower),
    layer("delta.wire_ratio", "ratio", Lower),
    layer("delta.rejections", "count", Lower),
    layer("store.intern_us", "us", Lower),
    layer("store.resolve_us", "us", Lower),
    layer("store.release_us", "us", Lower),
    layer("store.resident_kib", "KiB", Lower),
    layer("store.shared_share", "ratio", Higher),
    layer("video.gen_ms_per_frame", "ms", Lower),
    layer("pretrain.step_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.inline_rtt_ms", "ms", Lower),
    layer("trace.unattributed_ms", "ms", Lower),
];

/// Seconds one run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 20;

fn better_label(better: Better) -> &'static str {
    match better {
        Higher => "higher",
        Lower => "lower",
    }
}

/// The contract file, generated from the tables above.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> Value {
    let metric = |def: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Value::str(def.name)),
            ("unit", Value::str(def.unit)),
            ("better", Value::str(better_label(def.better))),
        ];
        if bounded {
            pairs.push(("bound", Value::Num(def.bound)));
        }
        Value::obj(pairs)
    };
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "stbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Value::str)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("stbench")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

/// Pretty-print a rendered one-line JSON document with one array element
/// per line (enough structure for a reviewable diff of `BENCHMARK.json`).
pub fn pretty(value: &Value) -> String {
    fn go(value: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match value {
            Value::Obj(pairs) if depth == 0 => {
                out.push_str("{\n");
                for (i, (key, item)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Value::str(key.as_str()).render());
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push('}');
            }
            Value::Arr(items) if depth == 1 && items.iter().any(|i| i.as_object().is_some()) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&item.render().replace("\":", "\": ").replace(",\"", ", \""));
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.render().replace(",\"", ", \"")),
        }
    }
    let mut out = String::new();
    go(value, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn grammar_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_fits_the_contract_grammar() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(grammar_ok(def.name), "name {:?}", def.name);
            assert!(unit_ok(def.unit), "unit {:?} of {}", def.unit, def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        for (name, why) in crate::workload::catalog() {
            assert!(grammar_ok(name), "workload {name:?}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!(!grammar_ok("has space") && !grammar_ok(".dot") && !grammar_ok("a/b"));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_generated_file() {
        let committed = include_str!("../../BENCHMARK.json");
        let generated = benchmark_json(&crate::workload::catalog());
        assert_eq!(
            json::parse(committed).expect("BENCHMARK.json parses"),
            generated,
            "regenerate with `stbench --emit-benchmark-json > BENCHMARK.json`"
        );
        assert_eq!(json::parse(&pretty(&generated)).unwrap(), generated);
        assert!(committed.len() <= 64 * 1024);
        let keys: Vec<&str> = generated
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
