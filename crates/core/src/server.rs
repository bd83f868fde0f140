//! The ShadowTutor server role (Algorithm 3).
//!
//! The server owns the teacher and a copy of the student. For every key
//! frame received from the client it (1) runs teacher inference to obtain a
//! pseudo-label, (2) trains its student copy on that pseudo-label with
//! [`crate::train::train_student`], and (3) returns the updated (partial or
//! full) weights plus the post-training metric.
//!
//! Steps (2) and (3) — the trainable student copy, its optimizer, and the
//! counters — are one [`DistillSession`] per client stream; step (1) is the
//! caller's teacher. The frame-stepped runtime holds one session beside one
//! teacher; the server pool ([`crate::serve`]), which also serves the live
//! one-client topology, keeps one session per stream and shares a teacher
//! across the streams of a shard.

use crate::config::{DistillationMode, ShadowTutorConfig};
use crate::train::{train_student, TrainOutcome};
use crate::Result;
use bytes::Bytes;
use st_nn::optim::Adam;
use st_nn::snapshot::{PayloadSizes, SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_video::Frame;
use std::sync::{Arc, OnceLock};
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
    /// `update`'s wire bytes once [`encoded`](Self::encoded) has made
    /// them — a cell the session keeps too, and hands to its next response
    /// if that key frame leaves the student unchanged.
    encoded: Arc<OnceLock<Bytes>>,
}

impl KeyFrameResponse {
    /// [`WeightSnapshot::encode`] of `update`, encoded at most once per
    /// student state: a response whose key frame left the session's student
    /// as the previous one left it shares that response's bytes (a
    /// refcount clone), however many unchanged key frames follow.
    pub fn encoded(&self) -> Bytes {
        self.encoded.get_or_init(|| self.update.encode()).clone()
    }
}

/// The teacher-independent, per-stream half of the server: the trainable
/// student copy, its optimizer, and the distillation counters.
///
/// One session exists per client stream. The single-stream runtimes own
/// exactly one beside their teacher; the multi-stream shard in
/// [`crate::serve`] owns one per stream and feeds them pseudo-labels
/// produced by a shared teacher.
pub struct DistillSession {
    /// Algorithm parameters.
    pub config: ShadowTutorConfig,
    student: StudentNet,
    optimizer: Adam,
    total_key_frames: usize,
    total_distill_steps: usize,
    /// The scope and encoding cell of the last update [`distill`](Self::distill)
    /// returned, the cell that response's [`KeyFrameResponse::encoded`]
    /// fills. Set only by a completed `distill` and taken at the start of
    /// the next, so it always describes the student as it stands; a new or
    /// rebuilt ([`resume`](Self::resume)) session has none.
    last_update: Option<(SnapshotScope, Arc<OnceLock<Bytes>>)>,
}

impl DistillSession {
    /// Create a session from a pre-trained student checkpoint.
    ///
    /// The student's freeze point is set according to the configured
    /// distillation mode. `_distill_step_latency` is ignored: nothing reads
    /// a virtual server time (the paper's `t_sd` lives in
    /// [`crate::LatencyProfile`]).
    pub fn new(
        config: ShadowTutorConfig,
        mut student: StudentNet,
        _distill_step_latency: f64,
    ) -> Self {
        student.freeze = config.mode.freeze_point();
        let optimizer = Adam::new(config.learning_rate);
        DistillSession {
            config,
            student,
            optimizer,
            total_key_frames: 0,
            total_distill_steps: 0,
            last_update: None,
        }
    }

    /// Rebuild a session from a checkpoint of it.
    ///
    /// `snapshot` (a `Full`-scope [`initial_checkpoint`](Self::initial_checkpoint))
    /// is applied to `student`, and the distillation counters are restored
    /// beside it. Entries whose bits already equal the student's are
    /// skipped, so stages the checkpoint never changed keep sharing the
    /// student's storage. The Adam optimizer starts cold: the checkpoint
    /// holds only the student weights, so its moments and step count are
    /// gone and the stream's later updates differ from a run without the
    /// failure. The serving pool resumes only a session a panic tore
    /// mid-distill, from its stream's last settled checkpoint
    /// ([`crate::serve::PoolConfig::replication`]); every other session
    /// keeps its optimizer, across a shard's recovery too, and stays bit for
    /// bit.
    pub fn resume(
        config: ShadowTutorConfig,
        mut student: StudentNet,
        snapshot: &WeightSnapshot,
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
            total_key_frames: key_frames,
            total_distill_steps: distill_steps,
            last_update: None,
        })
    }

    /// A full-scope checkpoint of the session's current student: the
    /// initial student the server sends when the stream is registered
    /// (Algorithm 3, line 1), the recovery point a replicated pool keeps
    /// beside each stream, and the final checkpoint a shard reports at
    /// `finish`. It clones tensor handles, not bytes.
    pub fn initial_checkpoint(&mut self) -> WeightSnapshot {
        WeightSnapshot::capture(&mut self.student, SnapshotScope::Full)
    }

    /// Mutable access to the session's student, for storage-identity memory
    /// accounting against the shard template ([`st_nn::store::SessionMemory`]).
    /// It is for reading: the encoding the session keeps of its last update
    /// assumes only [`distill`](Self::distill) changes the student.
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
    /// When Algorithm 1 leaves the student unchanged (§4.4's `d = 0`, or
    /// every step rolled back), the response shares the previous response's
    /// encoding cell, so the update is not encoded again.
    ///
    /// `_teacher_time` is ignored: nothing reads a virtual server time (the
    /// paper's `t_ti` lives in [`crate::LatencyProfile`]).
    pub fn distill(
        &mut self,
        frame: &Frame,
        pseudo_label: &[usize],
        _teacher_time: f64,
    ) -> Result<KeyFrameResponse> {
        // Taken before training starts: a call that fails or unwinds
        // part-way may leave the student anywhere, and leaves no cell.
        let last_update = self.last_update.take();
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
        let encoded = match last_update {
            Some((last_scope, encoded)) if last_scope == scope && !outcome.changed => encoded,
            _ => Arc::default(),
        };
        self.last_update = Some((scope, Arc::clone(&encoded)));
        self.total_key_frames += 1;
        self.total_distill_steps += outcome.steps;
        Ok(KeyFrameResponse {
            update,
            metric: outcome.best_metric,
            outcome,
            encoded,
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

#[cfg(test)]
mod tests {
    use super::*;
    use st_nn::student::StudentConfig;
    use st_teacher::{OracleTeacher, Teacher};
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

    fn generator() -> VideoGenerator {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Animals,
        };
        VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, 3)).unwrap()
    }

    fn session(mode: DistillationMode) -> DistillSession {
        let config = ShadowTutorConfig {
            mode,
            ..ShadowTutorConfig::paper()
        };
        let student = StudentNet::new(StudentConfig::tiny()).unwrap();
        DistillSession::new(config, student, 0.013)
    }

    /// Algorithm 3, lines 3-6: label the key frame, then distill on it.
    fn label_and_distill(
        session: &mut DistillSession,
        teacher: &mut OracleTeacher,
        frame: &Frame,
    ) -> KeyFrameResponse {
        let label = teacher.pseudo_label(frame).unwrap();
        session.distill(frame, &label, 0.044).unwrap()
    }

    #[test]
    fn key_frame_handling_trains_and_reports() {
        let mut s = session(DistillationMode::Partial);
        let mut teacher = OracleTeacher::perfect(7);
        let mut gen = generator();
        let frame = gen.next_frame();
        let resp = label_and_distill(&mut s, &mut teacher, &frame);
        assert!(resp.outcome.steps >= 1);
        assert!(resp.metric >= resp.outcome.initial_metric);
        assert_eq!(s.key_frames_processed(), 1);
        assert_eq!(s.distill_steps_taken(), resp.outcome.steps);
        // The session's exported stats carry the distillation half and leave
        // the pool-worker half (waits, throttles, drops) zeroed.
        let stats = s.stats();
        assert_eq!(stats.key_frames, s.key_frames_processed());
        assert_eq!(stats.distill_steps, s.distill_steps_taken());
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
        let mut partial = session(DistillationMode::Partial);
        let mut full = session(DistillationMode::Full);
        assert!(partial.update_payload_bytes() < full.update_payload_bytes());
    }

    #[test]
    fn initial_checkpoint_is_full_scope() {
        let mut s = session(DistillationMode::Partial);
        let ckpt = s.initial_checkpoint();
        assert_eq!(ckpt.scope(), SnapshotScope::Full);
        assert!(ckpt.entry_count() > 0);
    }

    #[test]
    fn metric_improves_over_repeated_key_frames_of_a_static_scene() {
        let mut s = session(DistillationMode::Partial);
        let mut teacher = OracleTeacher::perfect(7);
        let mut gen = generator();
        let mut last_initial = 0.0;
        for i in 0..5 {
            let frame = gen.next_frame();
            let resp = label_and_distill(&mut s, &mut teacher, &frame);
            if i == 4 {
                last_initial = resp.outcome.initial_metric;
            }
        }
        let first_frame_metric = {
            let mut fresh = session(DistillationMode::Partial);
            let mut gen2 = generator();
            let frame = gen2.next_frame();
            label_and_distill(&mut fresh, &mut OracleTeacher::perfect(7), &frame)
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
