//! The deterministic frame-stepped runtime.
//!
//! This is the engine behind every table and figure reproduction. It runs
//! Algorithms 3 and 4 with *real* neural-network computation (the student is
//! genuinely trained online, predictions genuinely evaluated) on one thread.
//! Asynchronous inference is modelled by frame count: the update distilled on
//! a key frame reaches the client [`SimRuntime::update_delay`] frames later,
//! unless the client has deferred for `MIN_STRIDE` frames first and blocks
//! for it. Time is not simulated: a record's `total_time` is the paper's
//! execution-time model (equation 3) evaluated on the run's trace.

use crate::client::ClientState;
use crate::config::{DistillationMode, ShadowTutorConfig};
use crate::latency::{Concurrency, LatencyProfile};
use crate::report::{ExperimentRecord, FrameRecord, KeyFrameRecord};
use crate::server::DistillSession;
use crate::stride::StridePolicy;
use crate::Result;
use st_net::LinkModel;
use st_nn::metrics::miou;
use st_nn::snapshot::WeightSnapshot;
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_video::Frame;

/// A student update in flight from the server to the client.
struct PendingUpdate {
    update: WeightSnapshot,
    metric: f64,
    arrival_frame: usize,
    key_frame_index: usize,
    steps: usize,
    initial_metric: f64,
}

/// The frame-stepped runtime.
pub struct SimRuntime {
    /// Algorithm parameters.
    pub config: ShadowTutorConfig,
    /// Frames between a key frame and the arrival of its update: the update
    /// is applied after the prediction of frame `key + update_delay` (Table
    /// 6 compares 1 and 8).
    pub update_delay: usize,
    /// Key-frame scheduling policy (Algorithm 2 by default).
    pub stride_policy: StridePolicy,
}

impl SimRuntime {
    /// A runtime with the paper's configuration and a 1-frame update delay
    /// (the P-1 setting).
    pub fn paper(mode: DistillationMode) -> Self {
        let config = match mode {
            DistillationMode::Partial => ShadowTutorConfig::paper(),
            DistillationMode::Full => ShadowTutorConfig::paper_full(),
        };
        SimRuntime {
            config,
            update_delay: 1,
            stride_policy: StridePolicy::Adaptive,
        }
    }

    /// Override the update delay, in frames.
    pub fn with_update_delay(mut self, frames: usize) -> Self {
        self.update_delay = frames;
        self
    }

    /// Override the stride policy (ablations).
    pub fn with_stride_policy(mut self, policy: StridePolicy) -> Self {
        self.stride_policy = policy;
        self
    }

    /// Run ShadowTutor over `frames` frames pulled from `video`.
    ///
    /// `student` is the pre-trained ("publicly educated") checkpoint: the
    /// server starts training from it and the client starts serving from it.
    /// `label` names the video in the resulting record, whose `total_time`
    /// is [`ExperimentRecord::replay_total_time`] on the paper's link under
    /// full concurrency.
    pub fn run<T, V>(
        &self,
        label: &str,
        video: &mut V,
        frames: usize,
        student: StudentNet,
        mut teacher: T,
    ) -> Result<ExperimentRecord>
    where
        T: Teacher,
        V: Iterator<Item = Frame>,
    {
        self.config.validate()?;

        // Server: the teacher and the trainable copy of the student.
        let mut session = DistillSession::new(self.config, student.clone(), 0.0);
        let update_bytes = session.update_payload_bytes();

        // Client owns the serving copy and the scheduling state.
        let mut client_student = student;
        client_student.freeze = self.config.mode.freeze_point();
        let mut client = ClientState::new(self.config).with_policy(self.stride_policy);

        let mut frame_records = Vec::with_capacity(frames);
        let mut key_records = Vec::new();
        let mut pending: Option<PendingUpdate> = None;
        let mut uplink_bytes = 0usize;
        let mut downlink_bytes = 0usize;
        let mut frame_bytes = 0usize;

        for processed in 0..frames {
            let Some(frame) = video.next() else { break };
            frame_bytes = frame.raw_rgb_bytes();
            let decision = client.begin_frame();

            if decision.is_key_frame {
                // Asynchronous send: the client does not block (Algorithm 4
                // lines 7-8); the server labels and distills (Algorithm 3).
                let pseudo_label = teacher.pseudo_label(&frame)?;
                let response = session.distill(&frame, &pseudo_label, 0.0)?;
                uplink_bytes += frame.raw_rgb_bytes();
                downlink_bytes += update_bytes;
                pending = Some(PendingUpdate {
                    update: response.update,
                    metric: response.metric,
                    arrival_frame: processed + self.update_delay,
                    key_frame_index: frame.index,
                    steps: response.outcome.steps,
                    initial_metric: response.outcome.initial_metric,
                });
            }

            // Client inference on this frame with its current (possibly
            // stale) student. The prediction is also the accuracy sample:
            // mean IoU against the teacher's label for this frame.
            let prediction = client_student.predict(&frame.image)?;
            let reference = teacher.pseudo_label(&frame)?;
            let frame_miou =
                miou(&prediction, &reference, client_student.config.num_classes)?.value;

            // Apply the update if it has arrived; block for it if the client
            // has deferred for MIN_STRIDE frames already (Algorithm 4, 14-22).
            let mut waited = false;
            if let Some(p) = &pending {
                let arrived = processed >= p.arrival_frame;
                waited = decision.must_wait_for_update && !arrived;
                if arrived || waited {
                    let p = pending.take().expect("pending update present");
                    p.update.apply(&mut client_student)?;
                    client.apply_update(p.metric);
                    key_records.push(KeyFrameRecord {
                        frame_index: p.key_frame_index,
                        steps: p.steps,
                        initial_metric: p.initial_metric,
                        metric: p.metric,
                        stride_after: client.stride(),
                    });
                }
            }

            frame_records.push(FrameRecord {
                index: frame.index,
                is_key_frame: decision.is_key_frame,
                miou: frame_miou,
                waited,
            });
        }

        // An update still in flight at the end of the stream counts as a key
        // frame that was sent but whose stride decision never mattered.
        if let Some(p) = pending.take() {
            key_records.push(KeyFrameRecord {
                frame_index: p.key_frame_index,
                steps: p.steps,
                initial_metric: p.initial_metric,
                metric: p.metric,
                stride_after: client.stride(),
            });
        }

        let mut record = ExperimentRecord {
            label: label.to_string(),
            variant: self.config.mode.label().to_string(),
            frames: frame_records.len(),
            frame_records,
            key_frames: key_records,
            frame_bytes,
            update_bytes,
            uplink_bytes,
            downlink_bytes,
            total_time: 0.0,
            config: self.config,
            latency: LatencyProfile::paper(),
        };
        record.total_time =
            record.replay_total_time(&LinkModel::paper_default(), Concurrency::Full);
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::OracleTeacher;
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

    fn video(scene: SceneKind, seed: u64) -> VideoGenerator {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene,
        };
        VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap()
    }

    fn student() -> StudentNet {
        StudentNet::new(StudentConfig::tiny()).unwrap()
    }

    #[test]
    fn run_produces_consistent_record() {
        let runtime = SimRuntime::paper(DistillationMode::Partial);
        let mut gen = video(SceneKind::People, 1);
        let record = runtime
            .run(
                "fixed/people",
                &mut gen,
                40,
                student(),
                OracleTeacher::perfect(1),
            )
            .unwrap();
        assert_eq!(record.frames, 40);
        assert_eq!(record.frame_records.len(), 40);
        assert!(record.key_frame_count() >= 1);
        assert!(record.key_frame_count() <= 1 + 40 / 8);
        assert!(record.total_time > 0.0);
        assert!(record.fps() > 0.0);
        // First frame is always a key frame.
        assert!(record.frame_records[0].is_key_frame);
        // Uplink bytes = key frames * frame size.
        assert_eq!(
            record.uplink_bytes,
            record.key_frame_count() * record.frame_bytes
        );
        assert_eq!(
            record.downlink_bytes,
            record.key_frame_count() * record.update_bytes
        );
        // All mIoU values are valid.
        assert!(record
            .frame_records
            .iter()
            .all(|f| (0.0..=1.0).contains(&f.miou)));
    }

    #[test]
    fn partial_update_payload_is_smaller_than_full() {
        let partial = SimRuntime::paper(DistillationMode::Partial);
        let full = SimRuntime::paper(DistillationMode::Full);
        let mut gen_a = video(SceneKind::People, 2);
        let mut gen_b = video(SceneKind::People, 2);
        let ra = partial
            .run("p", &mut gen_a, 16, student(), OracleTeacher::perfect(1))
            .unwrap();
        let rb = full
            .run("f", &mut gen_b, 16, student(), OracleTeacher::perfect(1))
            .unwrap();
        assert!(ra.update_bytes < rb.update_bytes);
        assert_eq!(ra.variant, "partial");
        assert_eq!(rb.variant, "full");
    }

    #[test]
    fn shadow_education_beats_the_wild_student_on_the_same_stream() {
        // The paper's core accuracy claim (Table 6): the same pre-trained
        // student is dramatically better with intermittent distillation than
        // without it. Run both on identical streams and compare.
        let runtime = SimRuntime::paper(DistillationMode::Partial);
        let checkpoint = student();
        let mut gen_shadow = video(SceneKind::People, 3);
        let shadow = runtime
            .run(
                "p",
                &mut gen_shadow,
                80,
                checkpoint.clone(),
                OracleTeacher::perfect(2),
            )
            .unwrap();
        let mut gen_wild = video(SceneKind::People, 3);
        let wild = crate::baseline::run_wild(
            "wild",
            &mut gen_wild,
            80,
            &checkpoint,
            OracleTeacher::perfect(2),
            &LatencyProfile::paper(),
        )
        .unwrap();
        assert!(
            shadow.mean_miou_percent() > wild.mean_miou_percent(),
            "shadow education should beat the wild student: {:.1}% vs {:.1}%",
            shadow.mean_miou_percent(),
            wild.mean_miou_percent()
        );
    }

    #[test]
    fn an_update_lands_after_the_prediction_of_frame_key_plus_delay() {
        // Key frame 0's update is applied after frame `d`'s prediction:
        // frames 0..=d are predicted by the pre-trained student, exactly as
        // the wild baseline predicts them, and a later frame is not.
        let checkpoint = student();
        let frames = 20;
        let mut gen_wild = video(SceneKind::Animals, 4);
        let wild = crate::baseline::run_wild(
            "wild",
            &mut gen_wild,
            frames,
            &checkpoint,
            OracleTeacher::perfect(3),
            &LatencyProfile::paper(),
        )
        .unwrap();
        for delay in [1, 8] {
            let runtime = SimRuntime::paper(DistillationMode::Partial).with_update_delay(delay);
            let mut gen = video(SceneKind::Animals, 4);
            let record = runtime
                .run(
                    "a",
                    &mut gen,
                    frames,
                    checkpoint.clone(),
                    OracleTeacher::perfect(3),
                )
                .unwrap();
            assert_eq!(record.frames, frames);
            let bits = |r: &ExperimentRecord, i: usize| r.frame_records[i].miou.to_bits();
            for i in 0..=delay {
                assert_eq!(
                    bits(&record, i),
                    bits(&wild, i),
                    "delay {delay}: frame {i} saw an update"
                );
            }
            assert!(
                (delay + 1..frames).any(|i| bits(&record, i) != bits(&wild, i)),
                "delay {delay}: no frame after {delay} saw the update"
            );
        }
    }

    #[test]
    fn street_needs_more_key_frames_than_people() {
        let runtime = SimRuntime::paper(DistillationMode::Partial);
        let mut people = video(SceneKind::People, 6);
        let mut street = video(SceneKind::Street, 6);
        let rp = runtime
            .run(
                "people",
                &mut people,
                120,
                student(),
                OracleTeacher::perfect(5),
            )
            .unwrap();
        let rs = runtime
            .run(
                "street",
                &mut street,
                120,
                student(),
                OracleTeacher::perfect(5),
            )
            .unwrap();
        assert!(
            rs.key_frame_ratio_percent() >= rp.key_frame_ratio_percent(),
            "street {}% vs people {}%",
            rs.key_frame_ratio_percent(),
            rp.key_frame_ratio_percent()
        );
    }
}
