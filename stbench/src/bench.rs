//! One workload, start to finish: set-up, warm-up, identical timed rounds,
//! quartiles across them, output checks.

use crate::host;
use crate::json::Value;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{self, across_rounds, median, quantile, single, Better, RoundSummary};
use crate::trace::{self, Tracer};
use crate::workload::{out_dir, Prepared, Round, Workload};
use st_tensor::TensorError;
use std::collections::BTreeMap;
use std::time::Instant;

type Result<T> = std::result::Result<T, TensorError>;

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seconds of timed rounds (rounds run until this much has elapsed).
    pub seconds: f64,
    /// Round length relative to the workload's own (smoke runs shorten it).
    pub scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Timed rounds at least, whatever `seconds` says.
    pub min_rounds: usize,
}

impl Plan {
    /// A smoke run: two short rounds, one set-up, no warm-up. It shows that
    /// everything still runs; its numbers mean nothing.
    pub const SMOKE: Plan = Plan {
        seconds: 0.0,
        scale: 0.15,
        setups: 1,
        min_rounds: 2,
    };

    /// Whether this is a measuring run (full-length rounds for a set time)
    /// rather than a smoke run. Only a measuring run warms up, and only its
    /// numbers are held to the sizing rules (enough round trips for a
    /// median, `miou` above the floor recorded at full length).
    fn measures(&self) -> bool {
        self.seconds > 0.0 && self.scale >= 1.0
    }
}

/// One reported number.
pub struct Metric {
    pub def: &'static MetricDef,
    pub summary: RoundSummary,
    /// Samples behind the value (frames, key frames or rounds, as fits).
    pub samples: usize,
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// Key frames offered in the timed rounds.
    pub attempted: usize,
    /// Of those, the ones that did not end in an applied update.
    pub failed: usize,
    /// Output-check and validity failures, one line each.
    pub failures: Vec<String>,
}

impl Report {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Value::obj([
                            ("value", Value::Num(m.summary.value)),
                            ("unit", Value::str(m.def.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The same, with each metric's per-round spread and sample count.
    pub fn detail(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failed as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Value::obj([
                            ("value", Value::Num(m.summary.value)),
                            ("unit", Value::str(m.def.unit)),
                            ("min", Value::Num(m.summary.min)),
                            ("median", Value::Num(m.summary.median)),
                            ("max", Value::Num(m.summary.max)),
                            ("rounds", Value::Num(m.summary.rounds as f64)),
                            ("samples", Value::Num(m.samples as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// `workload/name value unit` lines, then any failures.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{}/{} {} {}   [rounds {}: min {:.6} median {:.6} max {:.6}; n={}]",
                self.workload,
                m.def.name,
                m.summary.value,
                m.def.unit,
                m.summary.rounds,
                m.summary.min,
                m.summary.median,
                m.summary.max,
                m.samples
            );
        }
        println!(
            "{}/ops attempted {} failed {}",
            self.workload, self.attempted, self.failed
        );
        for failure in &self.failures {
            println!("{}/CHECK FAILED: {failure}", self.workload);
        }
    }
}

fn def(table: &'static [MetricDef], name: &str) -> &'static MetricDef {
    table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

/// Set up `plan.setups` times; returns the last preparation and every
/// set-up's duration: content generation + pre-training + first pool spawn
/// until every stream holds its `InitialStudent`.
fn set_up(workload: &Workload, seed: u64, plan: &Plan) -> Result<(Prepared, Vec<f64>)> {
    let mut durations = Vec::with_capacity(plan.setups);
    let mut prepared = None;
    for _ in 0..plan.setups.max(1) {
        let started = Instant::now();
        let p = workload.prepare(seed)?;
        let round = workload.run_round(&p, 0, &mut Tracer::off())?;
        durations.push((round.drive.ready_at - started).as_secs_f64());
        prepared = Some(p);
    }
    Ok((prepared.expect("at least one set-up"), durations))
}

fn steps_per_keyframe(rounds: &[Round]) -> f64 {
    let steps: usize = rounds.iter().map(|r| r.pool.total_distill_steps()).sum();
    let key_frames: usize = rounds.iter().map(|r| r.pool.total_key_frames()).sum();
    steps as f64 / key_frames.max(1) as f64
}

fn busy_share(round: &Round) -> f64 {
    round.busy_secs() / round.window_secs()
}

/// Checks over a whole run: per-round output checks, determinism, validity.
fn check_run(workload: &Workload, rounds: &[Round], miou: Option<f64>) -> (Vec<String>, usize) {
    let mut failures: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, round)| {
            round
                .verify(workload)
                .into_iter()
                .map(move |f| format!("round {i}: {f}"))
        })
        .collect();
    let reference = rounds[0].exact_counts();
    let odd: Vec<Vec<usize>> = rounds
        .iter()
        .map(Round::exact_counts)
        .filter(|counts| *counts != reference)
        .collect();
    let breaks = odd.len();
    if workload.lockstep && breaks > 0 {
        failures.push(format!(
            "{breaks} rounds differ in exact counts on a lockstep workload: {reference:?} vs {:?}",
            odd[0]
        ));
    }
    let steps = steps_per_keyframe(rounds);
    let (lo, hi) = workload.steps_per_keyframe;
    if !(lo..=hi).contains(&steps) {
        failures.push(format!(
            "train.steps_per_keyframe {steps:.3} outside [{lo}, {hi}]: the workload is not exercising what it claims"
        ));
    }
    if let Some((lo, hi)) = workload.busy_share {
        let busy = median(&rounds.iter().map(busy_share).collect::<Vec<_>>());
        if !(lo..=hi).contains(&busy) {
            failures.push(format!("serve.busy_share {busy:.3} outside [{lo}, {hi}]"));
        }
    }
    if let Some(miou) = miou.filter(|miou| *miou < workload.miou_floor) {
        failures.push(format!(
            "miou {miou:.4} below the recorded floor {}",
            workload.miou_floor
        ));
    }
    (failures, breaks)
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Run timed rounds until `seconds` have elapsed (at least `min_rounds`).
fn timed_rounds(
    workload: &Workload,
    prepared: &Prepared,
    seconds: f64,
    min_rounds: usize,
    mut tracer_for: impl FnMut(usize) -> Tracer,
) -> Result<Vec<(Round, Vec<trace::Span>)>> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let mut tracer = tracer_for(rounds.len());
        let round = workload.run_round(prepared, usize::MAX, &mut tracer)?;
        rounds.push((round, tracer.into_spans()));
    }
    Ok(rounds)
}

/// The tracing-off run: every end-to-end metric.
pub fn run_end_to_end(workload: &Workload, seed: u64, plan: &Plan) -> Result<Report> {
    let (prepared, setups) = set_up(workload, seed, plan)?;
    if plan.measures() {
        // First round of a fresh process is 10-14 % slow: discard one.
        workload.run_round(&prepared, usize::MAX, &mut Tracer::off())?;
    }
    let rounds: Vec<Round> =
        timed_rounds(workload, &prepared, plan.seconds, plan.min_rounds, |_| {
            Tracer::off()
        })?
        .into_iter()
        .map(|(round, _)| round)
        .collect();

    let frames: usize = rounds.iter().map(Round::frames).sum();
    let key_frames: usize = rounds.iter().map(|r| r.sum(|c| c.key_frames)).sum();
    let failed: usize = rounds.iter().map(|r| r.sum(|c| c.failed())).sum();
    let rtts: Vec<Vec<f64>> = rounds.iter().map(Round::rtts_ms).collect();
    let (rtt_p50, rtt_n) = stats::percentile_across_rounds(&rtts, 50.0);
    // Counts and accuracy repeat (nearly) exactly: the median of rounds.
    let exact = |f: &dyn Fn(&Round) -> f64| {
        let values = per_round(&rounds, f);
        RoundSummary {
            value: median(&values),
            ..across_rounds(&values, Better::Lower)
        }
    };
    let miou = exact(&Round::miou);

    let (mut failures, _) = check_run(workload, &rounds, plan.measures().then_some(miou.value));
    if plan.measures() && !stats::percentile_supported(rtt_n, 50.0) {
        failures.push(format!("only {rtt_n} round trips: too few for a median"));
    }

    let metric = |name: &str, summary: RoundSummary, samples: usize| Metric {
        def: def(END_TO_END, name),
        summary,
        samples,
    };
    let rate = |f: &dyn Fn(&Round) -> f64| across_rounds(&per_round(&rounds, f), Better::Higher);
    let metrics = vec![
        metric(
            "setup_s",
            RoundSummary {
                value: median(&setups),
                ..across_rounds(&setups, Better::Lower)
            },
            setups.len(),
        ),
        metric(
            "client_fps",
            rate(&|r| r.frames() as f64 / r.window_secs()),
            frames,
        ),
        metric(
            "keyframes_per_s",
            rate(&|r| r.sum(|c| c.updates_applied) as f64 / r.window_secs()),
            key_frames,
        ),
        metric("keyframe_rtt_ms_p50", rtt_p50, rtt_n),
        metric(
            "cpu_ms_per_frame",
            across_rounds(
                &per_round(&rounds, |r| r.drive.cpu_secs * 1e3 / r.frames() as f64),
                Better::Lower,
            ),
            frames,
        ),
        metric(
            "wire_bytes_per_keyframe",
            exact(&|r| {
                r.sum(|c| c.bytes_up + c.bytes_down) as f64 / r.sum(|c| c.key_frames) as f64
            }),
            key_frames,
        ),
        metric(
            "resident_weight_kib_per_stream",
            exact(&|r| r.resident_weight_bytes() as f64 / 1024.0 / workload.streams as f64),
            rounds.len(),
        ),
        metric("peak_rss_mb", single(host::peak_rss_mb()), 1),
        metric("miou", miou, frames),
    ];
    Ok(Report {
        workload: workload.name,
        metrics,
        attempted: key_frames,
        failed,
        failures,
    })
}

/// The traced run: every per-layer metric.
///
/// Alternates tracing-off and tracing-on rounds of the live workload (their
/// difference is `trace.overhead_pct`), then walks the workload's key
/// frames through an inline single-thread pipeline, one span per layer
/// call, and dumps the spans of the last traced round and the inline walk
/// to `stbench/out/trace.<workload>.json`.
pub fn run_traced(workload: &Workload, seed: u64, plan: &Plan) -> Result<Report> {
    let (prepared, _) = set_up(workload, seed, &Plan { setups: 1, ..*plan })?;
    if plan.measures() {
        workload.run_round(&prepared, usize::MAX, &mut Tracer::off())?;
    }
    let span_capacity = workload.streams * workload.frames * 8;
    let min_rounds = if plan.measures() { 4 } else { 2 };
    let mixed = timed_rounds(workload, &prepared, plan.seconds * 0.45, min_rounds, |i| {
        if i % 2 == 0 {
            Tracer::off()
        } else {
            Tracer::on(span_capacity)
        }
    })?;
    let mut plain = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut span_totals: BTreeMap<&'static str, trace::SpanTotals> = BTreeMap::new();
    let mut last_spans = Vec::new();
    for (i, (round, spans)) in mixed.into_iter().enumerate() {
        if i % 2 == 0 {
            plain.push(round);
            continue;
        }
        for (name, t) in trace::totals(&spans) {
            span_totals.entry(name).or_default().add(&t);
        }
        traced_rounds.push(round);
        last_spans = spans;
    }

    let fps = |rounds: &[Round]| {
        across_rounds(
            &per_round(rounds, |r| r.frames() as f64 / r.window_secs()),
            Better::Higher,
        )
        .value
    };
    let overhead_pct = (1.0 - fps(&traced_rounds) / fps(&plain)) * 100.0;
    let rtts: Vec<Vec<f64>> = plain.iter().map(Round::rtts_ms).collect();
    let live_rtt_p50 = stats::percentile_across_rounds(&rtts, 50.0).0.value;
    let pooled_rtts: Vec<f64> = rtts.iter().flatten().copied().collect();
    let live_rtt_mean = pooled_rtts.iter().sum::<f64>() / pooled_rtts.len().max(1) as f64;

    let all: Vec<&Round> = plain.iter().chain(&traced_rounds).collect();
    let frames: usize = traced_rounds.iter().map(Round::frames).sum();
    let key_frames: usize = all.iter().map(|r| r.sum(|c| c.key_frames)).sum();
    let failed: usize = all.iter().map(|r| r.sum(|c| c.failed())).sum();
    let miou = median(&per_round(&plain, Round::miou));
    let miou = plan.measures().then_some(miou);
    let (mut failures, breaks) = check_run(workload, &plain, miou);
    let (traced_failures, _) = check_run(workload, &traced_rounds, miou);
    failures.extend(traced_failures);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let span_ms = |name: &str| {
        span_totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6)
    };
    let count = |name: &str| span_totals.get(name).map_or(0, |t| t.count).max(1) as f64;
    // Per served frame, so the three add up to (most of) 1000 / client_fps.
    values.insert("client.infer_ms", span_ms("infer") / frames.max(1) as f64);
    values.insert("client.wait_ms", span_ms("wait") / frames.max(1) as f64);
    values.insert(
        "client.apply_us",
        (span_ms("decode") + span_ms("apply")) * 1e3 / count("apply"),
    );
    let rounds_n = all.len() as f64;
    values.insert(
        "client.forced_waits",
        all.iter().map(|r| r.sum(|c| c.forced_waits)).sum::<usize>() as f64 / rounds_n,
    );
    // Reported here, not end to end: on this host a p90 swings 30-40 %
    // between identical runs, beyond any bound the contract allows. Pooled
    // over every round of the run (tracing costs the round trip nothing
    // measurable); a run too short to have ten samples beyond the
    // percentile still prints it, and says so.
    let all_rtts: Vec<f64> = all.iter().flat_map(|r| r.rtts_ms()).collect();
    values.insert("client.keyframe_rtt_ms_p90", quantile(&all_rtts, 0.9));
    if !stats::percentile_supported(all_rtts.len(), 90.0) {
        println!(
            "{}/note: only {} round trips, fewer than a p90 needs (100)",
            workload.name,
            all_rtts.len()
        );
    }
    let late: Vec<f64> = plain
        .iter()
        .flat_map(|r| {
            r.drive
                .clients
                .iter()
                .flat_map(|c| c.late_ms.iter().copied())
        })
        .collect();
    values.insert(
        "client.frame_late_ms_p90",
        if late.is_empty() {
            0.0
        } else {
            quantile(&late, 0.9)
        },
    );
    values.insert(
        "client.failed_share",
        failed as f64 / key_frames.max(1) as f64,
    );
    values.insert("client.determinism_breaks", breaks as f64);
    let kf = |r: &Round| r.sum(|c| c.key_frames).max(1) as f64;
    values.insert(
        "wire.bytes_up_per_keyframe",
        median(&per_round(&plain, |r| r.sum(|c| c.bytes_up) as f64 / kf(r))),
    );
    values.insert(
        "wire.bytes_down_per_keyframe",
        median(&per_round(&plain, |r| {
            r.sum(|c| c.bytes_down) as f64 / kf(r)
        })),
    );
    let med = |f: &dyn Fn(&Round) -> f64| median(&per_round(&plain, f));
    values.insert("serve.queue_wait_ms_p50", med(&|r| r.report.queue_p50_ms));
    values.insert("serve.queue_wait_ms_p99", med(&|r| r.report.queue_p99_ms));
    values.insert("serve.mean_batch", med(&|r| r.pool.mean_batch_size()));
    values.insert("serve.busy_share", med(&busy_share));
    values.insert(
        "serve.poll_wakeups_per_keyframe",
        med(&|r| r.report.poll_wakeups as f64 / kf(r)),
    );
    values.insert(
        "serve.events_per_keyframe",
        med(&|r| r.report.events_dispatched as f64 / kf(r)),
    );
    values.insert(
        "serve.timer_fires_per_s",
        med(&|r| r.report.timer_fires as f64 / r.window_secs()),
    );
    values.insert("serve.throttled", med(&|r| r.pool.throttled() as f64));
    values.insert("serve.dropped", med(&|r| r.pool.dropped_jobs() as f64));
    values.insert(
        "serve.need_frame_requests",
        med(&|r| {
            r.report
                .shards
                .iter()
                .map(|s| s.need_frame_requests)
                .sum::<usize>() as f64
        }),
    );
    values.insert(
        "teacher.wall_share",
        med(&|r| r.report.teacher_wall_secs / r.busy_secs().max(f64::MIN_POSITIVE)),
    );
    values.insert("train.steps_per_keyframe", steps_per_keyframe(&plain));
    values.insert(
        "delta.wire_ratio",
        med(&|r| {
            // The pool meters delta-negotiated streams only; a stream that
            // did not negotiate ships every update whole.
            match r.pool.update_bytes_full_equiv() {
                0 => 1.0,
                full => r.pool.update_bytes_sent() as f64 / full as f64,
            }
        }),
    );
    values.insert(
        "delta.rejections",
        all.iter()
            .map(|r| r.sum(|c| c.delta_rejections))
            .sum::<usize>() as f64,
    );
    values.insert(
        "store.resident_kib",
        med(&|r| r.pool.store_resident_bytes as f64 / 1024.0),
    );
    values.insert(
        "store.shared_share",
        med(&|r| {
            let shared = r.pool.session_bytes_shared() as f64;
            shared / (shared + r.pool.session_bytes_private() as f64).max(1.0)
        }),
    );
    values.insert("video.gen_ms_per_frame", prepared.gen_ms_per_frame);
    values.insert("pretrain.step_ms", prepared.pretrain_step_ms);
    values.insert("trace.overhead_pct", overhead_pct);

    let inline = probes::run(workload, &prepared, plan.scale)?;
    values.extend(inline.values.iter().map(|(k, v)| (*k, *v)));
    // Mean against mean: the inline sum is a mean over the walked key
    // frames, so the live side of the subtraction is the mean round trip.
    values.insert(
        "trace.unattributed_ms",
        live_rtt_mean - inline.inline_rtt_ms,
    );

    let dump = Value::obj([
        ("workload", Value::str(workload.name)),
        ("seed", Value::Num(seed as f64)),
        ("live_keyframe_rtt_ms_p50", Value::Num(live_rtt_p50)),
        ("live_keyframe_rtt_ms_mean", Value::Num(live_rtt_mean)),
        ("inline_rtt_ms", Value::Num(inline.inline_rtt_ms)),
        (
            "inline_self_ms",
            Value::obj(
                inline
                    .self_ms
                    .iter()
                    .map(|(name, ms)| (*name, Value::Num(*ms))),
            ),
        ),
        ("live_spans", trace::spans_to_json(&last_spans)),
        ("inline_spans", trace::spans_to_json(&inline.spans)),
    ]);
    let path = out_dir()?.join(format!("trace.{}.json", workload.name));
    std::fs::write(&path, dump.render())
        .map_err(|e| TensorError::InvalidArgument(format!("write {}: {e}", path.display())))?;

    let metrics = PER_LAYER
        .iter()
        .map(|def| Metric {
            def,
            summary: single(
                *values
                    .get(def.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name)),
            ),
            samples: 1,
        })
        .collect();
    Ok(Report {
        workload: workload.name,
        metrics,
        attempted: key_frames,
        failed,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload;

    const SMOKE: Plan = Plan::SMOKE;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let contract = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        contract
            .get(section)
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    fn printed(report: &Report) -> Vec<String> {
        let line = json::parse(&report.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        line.get("metrics")
            .and_then(json::Value::as_object)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(json::Value::as_f64).is_some(),
                    "{name}"
                );
                assert!(
                    m.get("unit").and_then(json::Value::as_str).is_some(),
                    "{name}"
                );
                name.clone()
            })
            .collect()
    }

    /// Every name in `BENCHMARK.json` is printed, and nothing else is.
    #[test]
    fn printed_names_are_exactly_the_contract_names() {
        st_tensor::parallel::set_threads(1);
        let workload = workload::by_name("shm_fullsnap")
            .unwrap()
            .scaled(SMOKE.scale);
        let report = run_end_to_end(&workload, 3, &SMOKE).unwrap();
        assert_eq!(report.failures, Vec::<String>::new());
        assert_eq!(printed(&report), names_in_benchmark_json("end_to_end"));
        assert!(report.metrics.iter().all(|m| m.summary.value > 0.0));
        let traced = run_traced(&workload, 3, &SMOKE).unwrap();
        assert_eq!(traced.failures, Vec::<String>::new());
        assert_eq!(printed(&traced), names_in_benchmark_json("per_layer"));
    }

    /// A second seed changes the content and still passes every check.
    #[test]
    fn another_seed_changes_content_and_passes_every_check() {
        st_tensor::parallel::set_threads(1);
        for name in ["solo_paper", "pool_lockstep"] {
            let workload = workload::by_name(name).unwrap().scaled(SMOKE.scale);
            let a = workload.prepare(1).unwrap();
            let b = workload.prepare(2).unwrap();
            assert_ne!(
                a.streams[0][0].image.data(),
                b.streams[0][0].image.data(),
                "{name}: seeds 1 and 2 generate the same first frame"
            );
            assert_eq!(
                a.streams[0][0].image.data(),
                workload.prepare(1).unwrap().streams[0][0].image.data(),
                "{name}: the same seed gives the same input"
            );
            for seed in [1, 2] {
                let report = run_end_to_end(&workload, seed, &SMOKE).unwrap();
                assert_eq!(report.failures, Vec::<String>::new(), "{name} seed {seed}");
                assert_eq!(report.failed, 0, "{name} seed {seed}");
            }
        }
    }
}
