//! Table 2 — latency of one distillation step and mean number of steps,
//! partial vs full.
//!
//! Criterion measures the *host machine's* latency of one whole
//! `train_student` call with a single step, for the tiny student at 32×24
//! and the small student at 64×48 (the paper's Table 2 top row is the
//! Jetson/RTX measurement, which the latency profile reproduces). Below it,
//! what Table 2 cannot show: the step decomposed — frozen prefix (once per
//! key frame), suffix forward, loss, backward, optimizer, evaluation — one
//! row per student and mode. The reproduced Table 2 itself uses the
//! simulation runs for the mean-steps row.
//!
//! `TABLE2_JSON=<path>` additionally writes the decomposition as JSON with
//! host metadata (the committed `BENCH_table2.json` is one such file).

use criterion::{criterion_group, criterion_main, Criterion};
use shadowtutor::config::{DistillationMode, ShadowTutorConfig};
use shadowtutor::train::train_student;
use st_bench::json::table_to_json_on_host;
use st_bench::tables::{table2, table2_step_breakdown};
use st_bench::{ExperimentScale, SharedSetup};
use st_nn::optim::Adam;
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::{OracleTeacher, Teacher};
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};
use std::hint::black_box;

fn distill_step_benchmark(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_distill_step");
    group.sample_size(10);

    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::People,
    };
    for (name, student_config, (width, height)) in [
        ("tiny_32x24", StudentConfig::tiny(), (32, 24)),
        ("small_64x48", StudentConfig::small(), (64, 48)),
    ] {
        let mut gen =
            VideoGenerator::new(VideoConfig::for_category(cat, width, height, 1)).unwrap();
        let frame = gen.next_frame();
        let mut teacher = OracleTeacher::perfect(1);
        let label = teacher.pseudo_label(&frame).unwrap();

        for mode in [DistillationMode::Partial, DistillationMode::Full] {
            let config = ShadowTutorConfig {
                mode,
                max_updates: 1,   // exactly one optimization step per call
                threshold: 0.999, // never skip the step
                ..ShadowTutorConfig::paper()
            };
            group.bench_function(format!("one_step_{name}_{}", mode.label()), |bench| {
                bench.iter_batched(
                    || {
                        let mut student = StudentNet::new(student_config).unwrap();
                        student.freeze = mode.freeze_point();
                        (student, Adam::new(config.learning_rate))
                    },
                    |(mut student, mut opt)| {
                        train_student(&mut student, &mut opt, black_box(&frame), &label, &config)
                            .unwrap()
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();

    let breakdown = table2_step_breakdown(30);
    println!("\n{}", breakdown.text);
    if let Ok(path) = std::env::var("TABLE2_JSON") {
        match std::fs::write(&path, table_to_json_on_host(&breakdown)) {
            Ok(()) => println!("wrote JSON artifact: {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Print the reproduced table (smoke scale) so `cargo bench` regenerates it.
    let setup = SharedSetup::new(ExperimentScale::Smoke);
    println!("\n{}", table2(&setup).text);
}

criterion_group!(benches, distill_step_benchmark);
criterion_main!(benches);
