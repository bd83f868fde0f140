//! The ShadowTutor server role (Algorithm 3).
//!
//! The server owns the teacher and a copy of the student. For every key
//! frame received from the client it (1) runs teacher inference to obtain a
//! pseudo-label, (2) trains its student copy on that pseudo-label with
//! [`crate::train::train_student`], and (3) returns the updated (partial or
//! full) weights plus the post-training metric. The same state machine is
//! used by the virtual-time runtime (which calls [`ServerState::handle_key_frame`]
//! directly) and the threaded live runtime (which drives it from a message
//! loop).
//!
//! The per-stream half of that state — the trainable student copy, its
//! optimizer, and the counters — lives in [`DistillSession`] so the
//! multi-stream server pool ([`crate::serve`]) can keep one session per
//! client stream while sharing a single teacher across the streams of a
//! shard. [`ServerState`] composes one teacher with one session and is the
//! single-stream view used by the original runtimes.

use crate::config::{DistillationMode, ShadowTutorConfig};
use crate::train::{train_student, TrainOutcome};
use crate::Result;
use st_nn::optim::Adam;
use st_nn::snapshot::{PayloadSizes, SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_video::Frame;
use std::time::Duration;

/// Server-side counters for one stream, reported when the stream finishes.
///
/// The distillation counters come straight from the stream's
/// [`DistillSession`] ([`DistillSession::stats`]); the queueing/backpressure
/// fields are filled in by the pool worker that scheduled the stream, which
/// is the only place wall-clock waits and admission decisions are visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamServerStats {
    /// Key frames the stream's session processed.
    pub key_frames: usize,
    /// Total distillation steps the session took.
    pub distill_steps: usize,
    /// Total wall-clock time the stream's key frames spent queued before
    /// service began.
    pub queue_wait_total: Duration,
    /// Largest single queue wait one of the stream's key frames observed.
    pub queue_wait_max: Duration,
    /// Key frames rejected by per-stream admission control
    /// (`ServerToClient::Throttle`).
    pub throttled: usize,
    /// Key frames dropped because the stream or frame was unknown
    /// (`ServerToClient::Dropped`).
    pub dropped: usize,
}

impl StreamServerStats {
    /// Mean wall-clock queue wait per serviced key frame in seconds.
    pub fn mean_queue_wait_secs(&self) -> f64 {
        if self.key_frames == 0 {
            0.0
        } else {
            self.queue_wait_total.as_secs_f64() / self.key_frames as f64
        }
    }
}

/// The server's response to one key frame.
#[derive(Debug, Clone)]
pub struct KeyFrameResponse {
    /// The updated weights to ship to the client (trainable subset under
    /// partial distillation, everything under full distillation).
    pub update: WeightSnapshot,
    /// Post-training metric on the key frame (drives Algorithm 2).
    pub metric: f64,
    /// Training details (steps taken, initial metric, loss).
    pub outcome: TrainOutcome,
    /// Virtual time the server spent on this key frame: teacher inference
    /// plus `steps` distillation steps, per the latency profile in use.
    pub server_time: f64,
}

/// The teacher-independent, per-stream half of the server: the trainable
/// student copy, its optimizer, and the distillation counters.
///
/// One session exists per client stream. The single-stream [`ServerState`]
/// owns exactly one; the multi-stream shard in [`crate::serve`] owns one per
/// stream and feeds them pseudo-labels produced by a shared teacher.
pub struct DistillSession {
    /// Algorithm parameters.
    pub config: ShadowTutorConfig,
    student: StudentNet,
    optimizer: Adam,
    /// Latency of one distillation step (seconds of virtual time).
    distill_step_latency: f64,
    total_key_frames: usize,
    total_distill_steps: usize,
}

impl DistillSession {
    /// Create a session from a pre-trained student checkpoint.
    ///
    /// The student's freeze point is set according to the configured
    /// distillation mode.
    pub fn new(
        config: ShadowTutorConfig,
        mut student: StudentNet,
        distill_step_latency: f64,
    ) -> Self {
        student.freeze = config.mode.freeze_point();
        let optimizer = Adam::new(config.learning_rate);
        DistillSession {
            config,
            student,
            optimizer,
            distill_step_latency,
            total_key_frames: 0,
            total_distill_steps: 0,
        }
    }

    /// Rebuild a session from a replicated checkpoint during shard failover.
    ///
    /// `snapshot` (a `Full`-scope replica published by the dead shard) is
    /// applied to a fresh student, and the distillation counters are restored
    /// from the replica's metadata. The Adam optimizer starts cold: the paper
    /// replicates only the student weights, so the first post-takeover key
    /// frame retrains moment estimates from zero — acceptable because the
    /// per-key-frame training loop (Algorithm 3) converges on the frame's
    /// metric threshold, not on a fixed step count.
    pub fn resume(
        config: ShadowTutorConfig,
        mut student: StudentNet,
        snapshot: &WeightSnapshot,
        distill_step_latency: f64,
        key_frames: usize,
        distill_steps: usize,
    ) -> Result<Self> {
        student.freeze = config.mode.freeze_point();
        snapshot.apply(&mut student)?;
        let optimizer = Adam::new(config.learning_rate);
        Ok(DistillSession {
            config,
            student,
            optimizer,
            distill_step_latency,
            total_key_frames: key_frames,
            total_distill_steps: distill_steps,
        })
    }

    /// The initial full student checkpoint the server sends when the stream
    /// is registered (Algorithm 3, line 1).
    pub fn initial_checkpoint(&mut self) -> WeightSnapshot {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full)
    }

    /// Capture a full-scope checkpoint of the session's current student for
    /// checkpoint replication to a buddy shard.
    pub fn replica_checkpoint(&mut self) -> WeightSnapshot {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full)
    }

    /// Mutable access to the session's student, for storage-identity memory
    /// accounting against the shard template ([`st_nn::store::SessionMemory`]).
    pub fn student_mut(&mut self) -> &mut StudentNet {
        &mut self.student
    }

    /// Wire sizes of the per-key-frame student payload under the current mode.
    pub fn update_payload_bytes(&mut self) -> usize {
        let sizes = PayloadSizes::of(&mut self.student);
        match self.config.mode {
            DistillationMode::Partial => sizes.partial_bytes,
            DistillationMode::Full => sizes.full_bytes,
        }
    }

    /// Train the session's student on one key frame against an
    /// already-computed pseudo-label (Algorithm 3, lines 4-6).
    ///
    /// `teacher_time` is the virtual time charged for producing the
    /// pseudo-label — the full `t_ti` for a solo inference, or the amortized
    /// share of a batched teacher forward pass under the multi-stream pool.
    pub fn distill(
        &mut self,
        frame: &Frame,
        pseudo_label: &[usize],
        teacher_time: f64,
    ) -> Result<KeyFrameResponse> {
        let outcome = train_student(
            &mut self.student,
            &mut self.optimizer,
            frame,
            pseudo_label,
            &self.config,
        )?;
        let scope = match self.config.mode {
            DistillationMode::Partial => SnapshotScope::TrainableOnly,
            DistillationMode::Full => SnapshotScope::Full,
        };
        let update = WeightSnapshot::capture(&mut self.student, scope);
        self.total_key_frames += 1;
        self.total_distill_steps += outcome.steps;
        Ok(KeyFrameResponse {
            update,
            metric: outcome.best_metric,
            outcome,
            server_time: teacher_time + outcome.steps as f64 * self.distill_step_latency,
        })
    }

    /// Total key frames processed so far.
    pub fn key_frames_processed(&self) -> usize {
        self.total_key_frames
    }

    /// Total distillation steps taken so far.
    pub fn distill_steps_taken(&self) -> usize {
        self.total_distill_steps
    }

    /// Mean distillation steps per key frame (Table 2's second row).
    pub fn mean_distill_steps(&self) -> f64 {
        if self.total_key_frames == 0 {
            0.0
        } else {
            self.total_distill_steps as f64 / self.total_key_frames as f64
        }
    }

    /// The session's counters as the distillation half of
    /// [`StreamServerStats`] (queueing/backpressure fields are zero; the pool
    /// worker that owns the stream merges those in).
    pub fn stats(&self) -> StreamServerStats {
        StreamServerStats {
            key_frames: self.total_key_frames,
            distill_steps: self.total_distill_steps,
            ..StreamServerStats::default()
        }
    }
}

/// Server-side state: teacher + trainable student copy + optimizer.
pub struct ServerState<T: Teacher> {
    /// Algorithm parameters.
    pub config: ShadowTutorConfig,
    teacher: T,
    session: DistillSession,
}

impl<T: Teacher> ServerState<T> {
    /// Create a server from a pre-trained student checkpoint and a teacher.
    ///
    /// The student's freeze point is set according to the configured
    /// distillation mode.
    pub fn new(
        config: ShadowTutorConfig,
        student: StudentNet,
        teacher: T,
        distill_step_latency: f64,
    ) -> Self {
        ServerState {
            config,
            teacher,
            session: DistillSession::new(config, student, distill_step_latency),
        }
    }

    /// The initial full student checkpoint the server sends when the system
    /// starts (Algorithm 3, line 1).
    pub fn initial_checkpoint(&mut self) -> WeightSnapshot {
        self.session.initial_checkpoint()
    }

    /// Wire sizes of the per-key-frame student payload under the current mode.
    pub fn update_payload_bytes(&mut self) -> usize {
        self.session.update_payload_bytes()
    }

    /// Handle one key frame (Algorithm 3, lines 3-6).
    pub fn handle_key_frame(&mut self, frame: &Frame) -> Result<KeyFrameResponse> {
        let pseudo_label = self.teacher.pseudo_label(frame)?;
        self.session
            .distill(frame, &pseudo_label, self.teacher.inference_latency())
    }

    /// The teacher owned by the server (e.g. to label evaluation frames).
    pub fn teacher_mut(&mut self) -> &mut T {
        &mut self.teacher
    }

    /// Total key frames processed so far.
    pub fn key_frames_processed(&self) -> usize {
        self.session.key_frames_processed()
    }

    /// Total distillation steps taken so far.
    pub fn distill_steps_taken(&self) -> usize {
        self.session.distill_steps_taken()
    }

    /// Mean distillation steps per key frame (Table 2's second row).
    pub fn mean_distill_steps(&self) -> f64 {
        self.session.mean_distill_steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::OracleTeacher;
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

    fn generator() -> VideoGenerator {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Animals,
        };
        VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, 3)).unwrap()
    }

    fn server(mode: DistillationMode) -> ServerState<OracleTeacher> {
        let config = ShadowTutorConfig {
            mode,
            ..ShadowTutorConfig::paper()
        };
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        ServerState::new(config, student, OracleTeacher::perfect(7), 0.013)
    }

    #[test]
    fn key_frame_handling_trains_and_reports() {
        let mut s = server(DistillationMode::Partial);
        let mut gen = generator();
        let frame = gen.next_frame();
        let resp = s.handle_key_frame(&frame).unwrap();
        assert!(resp.outcome.steps >= 1);
        assert!(resp.metric >= resp.outcome.initial_metric);
        assert!(resp.server_time >= 0.044);
        assert_eq!(s.key_frames_processed(), 1);
        assert_eq!(s.distill_steps_taken(), resp.outcome.steps);
        assert!((s.mean_distill_steps() - resp.outcome.steps as f64).abs() < 1e-12);
    }

    #[test]
    fn distill_session_matches_server_state_on_the_same_stream() {
        // ServerState is DistillSession + a teacher; driving the session
        // directly with the teacher's labels must be weight-for-weight
        // identical to the composed state machine.
        let mut composed = server(DistillationMode::Partial);
        let mut session = DistillSession::new(
            composed.config,
            StudentNet::new(StudentConfig::tiny()).unwrap(),
            0.013,
        );
        let mut teacher = OracleTeacher::perfect(7);
        let mut gen = generator();
        for _ in 0..3 {
            let frame = gen.next_frame();
            let via_state = composed.handle_key_frame(&frame).unwrap();
            let label = teacher.pseudo_label(&frame).unwrap();
            let via_session = session
                .distill(&frame, &label, teacher.inference_latency())
                .unwrap();
            assert_eq!(via_state.outcome.steps, via_session.outcome.steps);
            assert!((via_state.metric - via_session.metric).abs() < 1e-12);
            assert!((via_state.server_time - via_session.server_time).abs() < 1e-12);
            assert!(via_state.update.distance(&via_session.update).unwrap() < 1e-9);
        }
        assert_eq!(
            session.key_frames_processed(),
            composed.key_frames_processed()
        );
        assert_eq!(
            session.distill_steps_taken(),
            composed.distill_steps_taken()
        );
        // The session's exported stats carry the distillation half and leave
        // the pool-worker half (waits, throttles, drops) zeroed.
        let stats = session.stats();
        assert_eq!(stats.key_frames, session.key_frames_processed());
        assert_eq!(stats.distill_steps, session.distill_steps_taken());
        assert_eq!(stats.throttled, 0);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.mean_queue_wait_secs(), 0.0);
    }

    #[test]
    fn a_session_between_key_frames_holds_no_backward_cache() {
        let config = ShadowTutorConfig::paper();
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        let mut session = DistillSession::new(config, student, 0.013);
        let frame = generator().next_frame();
        let label = OracleTeacher::perfect(7).pseudo_label(&frame).unwrap();
        let response = session.distill(&frame, &label, 0.044).unwrap();
        assert!(response.outcome.steps >= 1);
        let student = session.student_mut();
        let grad = st_tensor::Tensor::zeros(student.output_shape(frame.height, frame.width));
        assert!(matches!(
            student.backward(&grad),
            Err(st_tensor::TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn partial_update_payload_is_smaller_than_full() {
        let mut partial = server(DistillationMode::Partial);
        let mut full = server(DistillationMode::Full);
        assert!(partial.update_payload_bytes() < full.update_payload_bytes());
    }

    #[test]
    fn initial_checkpoint_is_full_scope() {
        let mut s = server(DistillationMode::Partial);
        let ckpt = s.initial_checkpoint();
        assert_eq!(ckpt.scope(), SnapshotScope::Full);
        assert!(ckpt.entry_count() > 0);
    }

    #[test]
    fn metric_improves_over_repeated_key_frames_of_a_static_scene() {
        let mut s = server(DistillationMode::Partial);
        let mut gen = generator();
        let mut last_initial = 0.0;
        for i in 0..5 {
            let frame = gen.next_frame();
            let resp = s.handle_key_frame(&frame).unwrap();
            if i == 4 {
                last_initial = resp.outcome.initial_metric;
            }
        }
        let first_frame_metric = {
            let mut fresh = server(DistillationMode::Partial);
            let mut gen2 = generator();
            let frame = gen2.next_frame();
            fresh
                .handle_key_frame(&frame)
                .unwrap()
                .outcome
                .initial_metric
        };
        // After several key frames of a coherent scene the student's
        // *pre-training* metric should exceed a fresh student's.
        assert!(
            last_initial > first_frame_metric,
            "no specialisation: {last_initial} vs {first_frame_metric}"
        );
        assert_eq!(s.key_frames_processed(), 5);
    }
}
