//! Real-time feasibility at 7 FPS (the paper's §6.5 experiment).
//!
//! Every video is resampled so that adjacent frames are four times further
//! apart in time, emulating a camera whose frame rate matches ShadowTutor's
//! throughput. Temporal coherence is weaker, so the student must be
//! re-distilled more often — the experiment measures how much accuracy is
//! lost and how much the key-frame ratio rises compared to the native-rate
//! stream.
//!
//! Run with: `cargo run --release --example realtime_7fps`

use shadowtutor::config::DistillationMode;
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::sim::SimRuntime;
use st_nn::student::StudentConfig;
use st_teacher::OracleTeacher;
use st_video::resample::Resampler;
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

fn main() {
    let frames = 200;
    println!("== ShadowTutor at 7 FPS (real-time feasibility) ==");
    let (student, _) =
        pretrain_student(StudentConfig::tiny(), &PretrainConfig::quick()).expect("pre-training");

    let categories = [
        VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::People,
        },
        VideoCategory {
            camera: CameraMotion::Moving,
            scene: SceneKind::Animals,
        },
        VideoCategory {
            camera: CameraMotion::Moving,
            scene: SceneKind::Street,
        },
    ];

    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10}",
        "video", "mIoU native", "mIoU 7FPS", "KF% native", "KF% 7FPS"
    );
    for (i, category) in categories.iter().enumerate() {
        let config = VideoConfig::for_category(*category, 32, 24, 100 + i as u64);
        let runtime = SimRuntime::paper(DistillationMode::Partial);

        // Native-rate stream.
        let mut native_video = VideoGenerator::new(config).expect("video config");
        let native = runtime
            .run(
                &category.label(),
                &mut native_video,
                frames,
                student.clone(),
                OracleTeacher::perfect(3),
            )
            .expect("native run");

        // 7 FPS resampled stream (28 FPS source -> keep every 4th frame).
        let source = VideoGenerator::new(config).expect("video config");
        let mut resampled_video = Resampler::to_fps(source, config.fps, 7.0).expect("resampler");
        let resampled = runtime
            .run(
                &category.label(),
                &mut resampled_video,
                frames,
                student.clone(),
                OracleTeacher::perfect(3),
            )
            .expect("resampled run");

        println!(
            "{:<16} {:>12.1} {:>12.1} {:>10.2} {:>10.2}",
            category.label(),
            native.mean_miou_percent(),
            resampled.mean_miou_percent(),
            native.key_frame_ratio_percent(),
            resampled.key_frame_ratio_percent()
        );
    }
    println!("\nAs in the paper, stretching the temporal distance 4x costs only a modest");
    println!("accuracy drop and a small increase in key-frame ratio, so matching the input");
    println!("rate to the system's throughput (i.e. real-time camera inference) is feasible.");
}
