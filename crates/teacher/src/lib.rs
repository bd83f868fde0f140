//! # st-teacher
//!
//! Teacher substrates for the ShadowTutor reproduction.
//!
//! In the paper the teacher is a COCO-pre-trained Mask R-CNN (44 M
//! parameters) running on a server GPU; the student only ever consumes the
//! teacher's *final per-pixel output* (§6: "the student ... is only
//! interested in the final output of the teacher, regardless of all the
//! intermediate operations"), and accuracy is measured *against* that output
//! because LVS itself was labelled with Mask R-CNN.
//!
//! Two teachers are provided:
//!
//! * [`OracleTeacher`] — the default. It produces pseudo-labels from the
//!   synthetic generator's ground truth, optionally corrupted with a
//!   Mask-R-CNN-like error model (boundary erosion/dilation, small-object
//!   misses, class confusion). Because the paper's accuracy metric is
//!   "agreement with the teacher", the oracle plays exactly the role Mask
//!   R-CNN plays in the original evaluation.
//! * [`CnnTeacher`] — a wider instance of the student architecture that can
//!   be pre-trained on generated frames and then queried like a real CNN
//!   teacher. It exercises the full distillation code path end-to-end when a
//!   genuinely learned teacher is desired (slower; used in one example).
//!
//! Both implement the [`Teacher`] trait consumed by the ShadowTutor server
//! loop, and both report a nominal inference latency used by the timing
//! model (`t_ti` in Table 1 of the paper).

pub mod cnn;
pub mod oracle;

pub use cnn::CnnTeacher;
pub use oracle::{CorruptionModel, OracleTeacher};

use st_video::Frame;

/// Result alias re-using the tensor error type.
pub type Result<T> = st_tensor::Result<T>;

/// A teacher model: given a key frame, produce a per-pixel pseudo-label map.
pub trait Teacher {
    /// Produce the pseudo-label (length `H*W` class indices) for a frame.
    fn pseudo_label(&mut self, frame: &Frame) -> Result<Vec<usize>>;

    /// Produce pseudo-labels for a batch of key frames in one call.
    ///
    /// The multi-stream server pool co-schedules key frames from different
    /// client streams onto one teacher so a single (batched) forward pass is
    /// amortized across them. The default implementation simply labels each
    /// frame in turn — semantically identical, so implementors only override
    /// this when a genuinely batched forward is cheaper. [`CnnTeacher`]
    /// overrides it with a real batched forward (stacked input, one batched
    /// GEMM per layer) whose output is bit-for-bit the per-frame
    /// result.
    fn pseudo_label_batch(&mut self, frames: &[&Frame]) -> Result<Vec<Vec<usize>>> {
        frames.iter().map(|f| self.pseudo_label(f)).collect()
    }

    /// Nominal inference latency of this teacher in seconds (`t_ti`).
    ///
    /// Nothing in the workspace reads it: the execution-time model takes
    /// `t_ti` from the `shadowtutor` crate's `LatencyProfile`, and what a
    /// teacher forward costs on the host is measured, not modelled. It is
    /// kept while an out-of-workspace implementor still provides it.
    fn inference_latency(&self) -> f64;

    /// Number of parameters of the teacher (for reporting teacher/student
    /// size ratios as in §5.2 of the paper).
    fn param_count(&self) -> usize;
}
