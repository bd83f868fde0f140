//! Comparison baselines: naive offloading and the "wild" student.
//!
//! The paper compares ShadowTutor mainly against *naive offloading* — every
//! frame is sent to the server, the teacher runs on it, and the prediction is
//! sent back — and motivates shadow education by showing how badly the
//! pre-trained student does *without* any key-frame updates ("Wild" in
//! Table 6). Both baselines are expressed here as [`ExperimentRecord`]s so
//! the report/bench machinery treats them uniformly.

use crate::config::ShadowTutorConfig;
use crate::latency::LatencyProfile;
use crate::report::{ExperimentRecord, FrameRecord};
use crate::Result;
use st_net::{LinkModel, NaiveTraffic};
use st_nn::metrics::miou;
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_video::Frame;

/// Run the naive-offloading baseline: every frame is uploaded, the teacher
/// labels it, and the label is downloaded. Accuracy against the teacher is
/// 100% by construction (the teacher's own output comes back).
pub fn run_naive<T, V>(
    label: &str,
    video: &mut V,
    frames: usize,
    mut teacher: T,
    latency: &LatencyProfile,
    link: &LinkModel,
) -> Result<ExperimentRecord>
where
    T: Teacher,
    V: Iterator<Item = Frame>,
{
    let mut total_time = 0.0;
    let mut frame_records = Vec::with_capacity(frames);
    let mut uplink_bytes = 0usize;
    let mut downlink_bytes = 0usize;
    let mut traffic = NaiveTraffic::for_frame(1, 1);
    for _ in 0..frames {
        let Some(frame) = video.next() else { break };
        traffic = NaiveTraffic::for_frame(frame.width, frame.height);
        // Every frame: upload, teacher inference, download. No overlap is
        // possible because the client cannot show a result before it returns.
        total_time += link.uplink_time(traffic.to_server_bytes);
        let _label = teacher.pseudo_label(&frame)?;
        total_time += latency.teacher_inference;
        total_time += link.downlink_time(traffic.to_client_bytes);
        uplink_bytes += traffic.to_server_bytes;
        downlink_bytes += traffic.to_client_bytes;
        frame_records.push(FrameRecord {
            index: frame.index,
            is_key_frame: true,
            miou: 1.0,
            waited: false,
        });
    }
    Ok(ExperimentRecord {
        label: label.to_string(),
        variant: "naive".to_string(),
        frames: frame_records.len(),
        frame_records,
        key_frames: Vec::new(),
        frame_bytes: traffic.to_server_bytes,
        update_bytes: traffic.to_client_bytes,
        uplink_bytes,
        downlink_bytes,
        total_time,
        config: ShadowTutorConfig::paper(),
        latency: *latency,
    })
}

/// Run the "wild" baseline: the pre-trained student serves every frame with
/// no server contact at all. This isolates how much of ShadowTutor's accuracy
/// comes from shadow education rather than from pre-training.
pub fn run_wild<T, V>(
    label: &str,
    video: &mut V,
    frames: usize,
    student: &StudentNet,
    mut teacher: T,
    latency: &LatencyProfile,
) -> Result<ExperimentRecord>
where
    T: Teacher,
    V: Iterator<Item = Frame>,
{
    let mut total_time = 0.0;
    let mut frame_records = Vec::with_capacity(frames);
    for _ in 0..frames {
        let Some(frame) = video.next() else { break };
        let prediction = student.predict(&frame.image)?;
        total_time += latency.student_inference;
        let reference = teacher.pseudo_label(&frame)?;
        let value = miou(&prediction, &reference, student.config.num_classes)?.value;
        frame_records.push(FrameRecord {
            index: frame.index,
            is_key_frame: false,
            miou: value,
            waited: false,
        });
    }
    Ok(ExperimentRecord {
        label: label.to_string(),
        variant: "wild".to_string(),
        frames: frame_records.len(),
        frame_records,
        key_frames: Vec::new(),
        frame_bytes: 0,
        update_bytes: 0,
        uplink_bytes: 0,
        downlink_bytes: 0,
        total_time,
        config: ShadowTutorConfig::paper(),
        latency: *latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::OracleTeacher;
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

    fn video(seed: u64) -> VideoGenerator {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Animals,
        };
        VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap()
    }

    #[test]
    fn naive_baseline_is_perfectly_accurate_but_heavy() {
        let mut gen = video(1);
        let record = run_naive(
            "naive",
            &mut gen,
            20,
            OracleTeacher::perfect(1),
            &LatencyProfile::paper(),
            &LinkModel::paper_default(),
        )
        .unwrap();
        assert_eq!(record.frames, 20);
        assert!((record.mean_miou_percent() - 100.0).abs() < 1e-9);
        // Every frame crossed the network.
        assert_eq!(record.uplink_bytes, 20 * record.frame_bytes);
        assert!(record.fps() > 0.0);
        assert_eq!(record.variant, "naive");
    }

    #[test]
    fn wild_baseline_transfers_nothing_and_is_inaccurate() {
        let mut gen = video(2);
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let record = run_wild(
            "wild",
            &mut gen,
            20,
            &student,
            OracleTeacher::perfect(2),
            &LatencyProfile::paper(),
        )
        .unwrap();
        assert_eq!(record.uplink_bytes + record.downlink_bytes, 0);
        assert_eq!(record.key_frame_count(), 0);
        // A random-weight student must be far from the teacher.
        assert!(record.mean_miou_percent() < 60.0);
        assert_eq!(record.variant, "wild");
    }

    #[test]
    fn naive_throughput_matches_latency_model() {
        // At the paper's scale: ~0.36 s network + 0.044 s teacher per 720p
        // frame gives ~2.1-2.5 FPS. At the tiny test resolution the network
        // part is negligible so FPS ≈ 1 / t_ti.
        let mut gen = video(3);
        let record = run_naive(
            "naive",
            &mut gen,
            10,
            OracleTeacher::perfect(3),
            &LatencyProfile::paper(),
            &LinkModel::paper_default(),
        )
        .unwrap();
        let per_frame = record.total_time / record.frames as f64;
        assert!(
            per_frame > 0.044 && per_frame < 0.08,
            "per frame {per_frame}"
        );
    }

    #[test]
    fn naive_slows_down_when_bandwidth_shrinks() {
        // Figure 4's naive curve: with no mechanism to hide network latency,
        // the naive baseline's throughput falls as soon as the link narrows.
        let mut gen_a = video(4);
        let mut gen_b = video(4);
        let fast = run_naive(
            "n80",
            &mut gen_a,
            10,
            OracleTeacher::perfect(4),
            &LatencyProfile::paper(),
            &LinkModel::symmetric_mbps(80.0),
        )
        .unwrap();
        let slow = run_naive(
            "n1",
            &mut gen_b,
            10,
            OracleTeacher::perfect(4),
            &LatencyProfile::paper(),
            &LinkModel::symmetric_mbps(1.0),
        )
        .unwrap();
        assert!(
            slow.fps() < fast.fps(),
            "slow {} vs fast {}",
            slow.fps(),
            fast.fps()
        );
    }
}
