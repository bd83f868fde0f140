//! Live threaded pipeline: the paper's one client against one server.
//!
//! The frame-stepped runtime used by the tables models asynchrony; this
//! example demonstrates the same protocol with *real* concurrency — a
//! one-stream, one-shard server pool trains the student on its worker
//! thread while the client thread keeps serving frames, exchanging key
//! frames and weight updates in-process (the reproduction's stand-in for
//! the paper's OpenMPI ranks).
//!
//! Run with: `cargo run --release --example live_pipeline`

use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::live::{run_live_multi, StreamSpec};
use shadowtutor::serve::PoolConfig;
use st_nn::student::StudentConfig;
use st_teacher::OracleTeacher;
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

fn main() {
    let frames = 120;
    println!("== ShadowTutor live pipeline (one client, one server) ==");
    let (student, _) =
        pretrain_student(StudentConfig::tiny(), &PretrainConfig::quick()).expect("pre-training");

    let category = VideoCategory {
        camera: CameraMotion::Moving,
        scene: SceneKind::Animals,
    };
    let config = VideoConfig::for_category(category, 32, 24, 11);
    let mut generator = VideoGenerator::new(config).expect("video config");
    let stream = StreamSpec {
        stream_id: 0,
        label: category.label(),
        frames: generator.take_frames(frames),
    };

    println!(
        "processing {frames} frames of {} with a live client/server pair...",
        category.label()
    );
    let outcome = run_live_multi(
        ShadowTutorConfig::paper(),
        vec![stream],
        student,
        PoolConfig::with_shards(1),
        |_| OracleTeacher::perfect(5),
    )
    .expect("live run")
    .streams
    .remove(0);

    let record = &outcome.record;
    println!(
        "\nclient wall-clock time : {:.2} s ({:.1} frames/s of real compute)",
        record.total_time,
        record.fps()
    );
    println!(
        "mean IoU vs teacher    : {:.1}%",
        record.mean_miou_percent()
    );
    println!(
        "key frames sent        : {} ({:.1}% of frames)",
        record.key_frame_count(),
        record.key_frame_ratio_percent()
    );
    println!("server key frames      : {}", outcome.server_key_frames);
    println!("server distill steps   : {}", outcome.server_distill_steps);
    println!(
        "uplink / downlink bytes: {} / {}",
        record.uplink_bytes, record.downlink_bytes
    );
    println!("\nThe client never blocked on the server except when an update was still in");
    println!("flight MIN_STRIDE frames after its key frame — the paper's asynchronous");
    println!("inference in action, now with genuine thread-level concurrency.");
}
