//! Quickstart: run ShadowTutor end-to-end on a short synthetic video.
//!
//! The example pre-trains a tiny student ("public education"), generates a
//! people-scene video, runs the frame-stepped runtime with the paper's
//! parameters, and prints the headline quantities the paper reports:
//! throughput, key-frame ratio, per-key-frame payload, and accuracy versus
//! the teacher — alongside the same stream served by the untrained student
//! and by naive offloading.
//!
//! Run with: `cargo run --release --example quickstart`

use shadowtutor::baseline::{run_naive, run_wild};
use shadowtutor::config::DistillationMode;
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::sim::SimRuntime;
use shadowtutor::LatencyProfile;
use st_net::LinkModel;
use st_nn::student::StudentConfig;
use st_teacher::OracleTeacher;
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

fn main() {
    let frames = 240;
    println!("== ShadowTutor quickstart ==");
    println!("pre-training the student (public education)...");
    let (student, report) =
        pretrain_student(StudentConfig::tiny(), &PretrainConfig::quick()).expect("pre-training");
    println!(
        "  pre-trained for {} steps, final loss {:.3}, generic mIoU {:.1}%",
        report.steps,
        report.final_loss,
        report.final_miou * 100.0
    );

    let category = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::People,
    };
    let config = VideoConfig::for_category(category, 32, 24, 42);

    println!(
        "\nrunning ShadowTutor (partial distillation) on {frames} frames of {}...",
        category.label()
    );
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut video = VideoGenerator::new(config).expect("video config");
    let record = runtime
        .run(
            &category.label(),
            &mut video,
            frames,
            student.clone(),
            OracleTeacher::perfect(1),
        )
        .expect("sim run");

    println!("\nrunning the wild (no distillation) and naive-offloading baselines...");
    let mut wild_video = VideoGenerator::new(config).expect("video config");
    let wild = run_wild(
        &category.label(),
        &mut wild_video,
        frames,
        &student,
        OracleTeacher::perfect(1),
        &LatencyProfile::paper(),
    )
    .expect("wild run");
    let mut naive_video = VideoGenerator::new(config).expect("video config");
    let naive = run_naive(
        &category.label(),
        &mut naive_video,
        frames,
        OracleTeacher::perfect(1),
        &LatencyProfile::paper(),
        &LinkModel::paper_default(),
    )
    .expect("naive run");

    println!(
        "\n== results ({} frames, the paper's timing model) ==",
        record.frames
    );
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "variant", "FPS", "mIoU %", "key fr. %", "MB/keyframe", "total MB"
    );
    for r in [&record, &wild, &naive] {
        let (_, _, per_key) = r.per_key_frame_mb();
        println!(
            "{:<14} {:>8.2} {:>8.1} {:>10.2} {:>12.3} {:>12.3}",
            r.variant,
            r.fps(),
            r.mean_miou_percent(),
            r.key_frame_ratio_percent(),
            per_key,
            r.total_data_mb()
        );
    }
    println!(
        "\nShadowTutor used {} key frames ({} distillation steps), mean {:.2} steps/key frame.",
        record.key_frame_count(),
        record.total_distill_steps(),
        record.mean_distill_steps()
    );
    println!(
        "Data transferred per frame: {:.4} MB vs {:.4} MB for naive offloading ({:.1}% reduction).",
        record.data_per_frame_mb(),
        naive.data_per_frame_mb(),
        100.0 * (1.0 - record.data_per_frame_mb() / naive.data_per_frame_mb())
    );
}
