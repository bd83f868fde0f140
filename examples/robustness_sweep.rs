//! Robustness to network conditions (the paper's §6.4 / Figure 4 scenario).
//!
//! One street-CCTV-like video is processed once to collect its distillation
//! trace, and the trace's timing is then replayed at shrinking bandwidths
//! (90 down to 8 Mbps) at paper-scale payload sizes, for both a
//! fully-concurrent client (ShadowTutor's asynchronous inference) and a
//! client with no concurrency, next to the naive-offloading baseline. The
//! asynchronous client retains throughput until the link becomes the
//! bottleneck — the paper's robustness claim.
//!
//! Run with: `cargo run --release --example robustness_sweep`

use shadowtutor::config::DistillationMode;
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::sim::SimRuntime;
use shadowtutor::{Concurrency, LatencyProfile};
use st_net::{LinkModel, NaiveTraffic};
use st_nn::student::StudentConfig;
use st_teacher::OracleTeacher;
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

fn main() {
    let frames = 240;
    let bandwidths = [90.0, 80.0, 60.0, 40.0, 20.0, 12.0, 8.0];

    println!("== ShadowTutor robustness sweep ==");
    let (student, _) =
        pretrain_student(StudentConfig::tiny(), &PretrainConfig::quick()).expect("pre-training");

    let category = VideoCategory {
        camera: CameraMotion::Fixed,
        scene: SceneKind::Street,
    };
    let config = VideoConfig::for_category(category, 32, 24, 7);
    println!(
        "collecting the distillation trace on {frames} frames of {}...",
        category.label()
    );
    let runtime = SimRuntime::paper(DistillationMode::Partial);
    let mut video = VideoGenerator::new(config).expect("video config");
    let record = runtime
        .run(
            &category.label(),
            &mut video,
            frames,
            student,
            OracleTeacher::perfect(2),
        )
        .expect("sim run");
    println!(
        "trace: {} key frames ({:.1}% of frames), {:.2} mean distillation steps",
        record.key_frame_count(),
        record.key_frame_ratio_percent(),
        record.mean_distill_steps()
    );

    // Replay the trace at paper-scale payload sizes per bandwidth.
    let paper = record.with_payload_sizes(2_637_000, 395_000);
    let latency = LatencyProfile::paper();
    println!(
        "\n{:>6} {:>16} {:>16} {:>12}",
        "Mbps", "async client FPS", "no-concurrency", "naive FPS"
    );
    for mbps in bandwidths {
        let link = LinkModel::symmetric_mbps(mbps);
        let async_fps = paper.replay_fps(&link, Concurrency::Full);
        let blocking_fps = paper.replay_fps(&link, Concurrency::None);
        let naive_traffic = NaiveTraffic::for_frame(1280, 720);
        let naive_fps = 1.0
            / (link.uplink_time(naive_traffic.to_server_bytes)
                + latency.teacher_inference
                + link.downlink_time(naive_traffic.to_client_bytes));
        println!("{mbps:>6.0} {async_fps:>16.2} {blocking_fps:>16.2} {naive_fps:>12.2}");
    }
    println!("\nThe asynchronous client hides the key-frame round trip behind MIN_STRIDE");
    println!("frames of on-device inference, so its throughput barely moves until the");
    println!("round trip exceeds that budget; naive offloading degrades immediately.");
}
