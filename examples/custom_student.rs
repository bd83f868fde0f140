//! Exploring the student design space: width, freeze point, and payload.
//!
//! The paper freezes the student through SB4 and trains 21.4% of its
//! parameters. This example sweeps the freeze point of a paper-scale student
//! and reports, for each choice, the trainable fraction and the bytes that
//! would cross the network per key frame — the trade-off §4.2 discusses —
//! and then compares two freeze points end-to-end on a short stream.
//!
//! Run with: `cargo run --release --example custom_student`

use shadowtutor::config::{DistillationMode, ShadowTutorConfig};
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::sim::SimRuntime;
use st_nn::snapshot::PayloadSizes;
use st_nn::student::{FreezePoint, Stage, StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

fn main() {
    println!("== Student freeze-point design space (paper-scale widths) ==");
    let mut paper_student = StudentNet::new(StudentConfig::paper()).expect("paper student");
    println!("total parameters: {}", paper_student.param_count());
    println!(
        "{:<22} {:>14} {:>16}",
        "train from stage", "trainable %", "update KB/keyfr."
    );
    for stage in [
        Stage::Sb3,
        Stage::Sb4,
        Stage::Sb5,
        Stage::Sb6,
        Stage::Out1,
        Stage::Out3,
    ] {
        paper_student.freeze = FreezePoint::TrainFrom(stage);
        let sizes = PayloadSizes::of(&mut paper_student);
        println!(
            "{:<22} {:>13.1}% {:>16.1}",
            format!("{stage:?}"),
            100.0 * sizes.trainable_fraction(),
            sizes.partial_bytes as f64 / 1e3
        );
    }
    paper_student.freeze = FreezePoint::None;
    let full = PayloadSizes::of(&mut paper_student);
    println!(
        "{:<22} {:>13.1}% {:>16.1}",
        "None (full distill)",
        100.0,
        full.full_bytes as f64 / 1e3
    );

    println!("\n== End-to-end comparison of two freeze points (tiny student) ==");
    let frames = 160;
    let (student, _) =
        pretrain_student(StudentConfig::tiny(), &PretrainConfig::quick()).expect("pre-training");
    let category = VideoCategory {
        camera: CameraMotion::Moving,
        scene: SceneKind::People,
    };
    let video_config = VideoConfig::for_category(category, 32, 24, 21);

    for (label, mode) in [
        ("partial (freeze through SB4)", DistillationMode::Partial),
        ("full distillation", DistillationMode::Full),
    ] {
        let config = match mode {
            DistillationMode::Partial => ShadowTutorConfig::paper(),
            DistillationMode::Full => ShadowTutorConfig::paper_full(),
        };
        let runtime = SimRuntime {
            config,
            ..SimRuntime::paper(mode)
        };
        let mut video = VideoGenerator::new(video_config).expect("video config");
        let record = runtime
            .run(
                &category.label(),
                &mut video,
                frames,
                student.clone(),
                OracleTeacher::perfect(8),
            )
            .expect("sim run");
        println!(
            "{:<30} mIoU {:>5.1}%  key frames {:>5.2}%  mean steps {:>4.2}  update {:>7.1} KB",
            label,
            record.mean_miou_percent(),
            record.key_frame_ratio_percent(),
            record.mean_distill_steps(),
            record.update_bytes as f64 / 1e3
        );
    }
    println!("\nPartial distillation ships a fraction of the weights per key frame and, with");
    println!("a limited step budget, matches or beats full distillation — the paper's §4.2 claim.");
}
