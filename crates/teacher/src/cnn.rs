//! A CNN teacher: a wider instance of the student architecture.
//!
//! This teacher exists to exercise the *full* distillation code path
//! (teacher forward pass → pseudo-label → student training) with a genuinely
//! learned model rather than the oracle. It is pre-trained on frames drawn
//! from the same generator family ("public education" in the paper's terms)
//! and then frozen; at serving time it only runs inference on key frames.

use crate::{logits_to_labels, Result, Teacher};
use st_nn::loss::{weighted_cross_entropy, WeightMap};
use st_nn::optim::Adam;
use st_nn::student::{FreezePoint, StudentConfig, StudentNet};
use st_tensor::Tensor;
use st_video::{Frame, VideoGenerator};

/// A CNN teacher built from a widened student network.
#[derive(Debug)]
pub struct CnnTeacher {
    net: StudentNet,
    latency: f64,
    param_count: usize,
}

impl CnnTeacher {
    /// Create an untrained CNN teacher with roughly `width_multiple`× the
    /// tiny student's channel widths.
    pub fn untrained(width_multiple: usize, seed: u64) -> Result<Self> {
        let base = StudentConfig::tiny();
        let m = width_multiple.max(1);
        let config = StudentConfig {
            c_stem: base.c_stem * m,
            c_enc1: base.c_enc1 * m,
            c_enc2: base.c_enc2 * m,
            c_dec1: base.c_dec1 * m,
            c_dec2: base.c_dec2 * m,
            c_head: base.c_head * m,
            seed,
            ..base
        };
        let mut net = StudentNet::new(config)?;
        net.freeze = FreezePoint::None;
        let param_count = net.param_count();
        Ok(CnnTeacher {
            net,
            latency: 0.044,
            param_count,
        })
    }

    /// Pre-train the teacher on `steps` frames drawn from `generator`, using
    /// the generator's ground truth as supervision ("public education").
    pub fn pretrain(
        &mut self,
        generator: &mut VideoGenerator,
        steps: usize,
        lr: f32,
    ) -> Result<f32> {
        let mut opt = Adam::new(lr);
        let mut last_loss = 0.0f32;
        for _ in 0..steps {
            let frame = generator.next_frame();
            let logits = self.net.forward_train(&frame.image)?;
            let weights =
                WeightMap::from_labels(&frame.ground_truth, frame.height, frame.width, 0, 1)?;
            let (loss, grad) = weighted_cross_entropy(&logits, &frame.ground_truth, &weights)?;
            self.net.backward(&grad)?;
            opt.step(&mut self.net);
            last_loss = loss;
        }
        // From here on the teacher only runs inference.
        self.net.clear_training_caches();
        Ok(last_loss)
    }

    /// Override the nominal inference latency (seconds).
    pub fn with_latency(mut self, latency: f64) -> Self {
        self.latency = latency;
        self
    }

    /// Access the underlying network (e.g. to inspect parameter counts).
    pub fn network(&self) -> &StudentNet {
        &self.net
    }
}

impl Teacher for CnnTeacher {
    fn pseudo_label(&mut self, frame: &Frame) -> Result<Vec<usize>> {
        let logits = self.net.forward_inference(&frame.image)?;
        logits_to_labels(&logits)
    }

    /// A genuinely batched forward: co-scheduled frames of equal resolution
    /// are stacked into one `(N, C, H, W)` input and run through a single
    /// batched forward pass (one GEMM per layer), so the network-level fixed
    /// costs (weight packing, buffer allocation, kernel setup) are paid once
    /// per batch instead of once per frame — and large enough batches cross the
    /// GEMM's parallel threshold and fan out across cores, which per-frame
    /// forwards of small frames never do.
    ///
    /// Frames of different resolutions are grouped and each group is run
    /// batched; output order matches the input order. The batched forward is
    /// bit-for-bit identical to per-frame [`CnnTeacher::pseudo_label`] calls
    /// (the packed GEMM's per-element accumulation order is independent of
    /// the batch width).
    fn pseudo_label_batch(&mut self, frames: &[&Frame]) -> Result<Vec<Vec<usize>>> {
        let mut out: Vec<Option<Vec<usize>>> = vec![None; frames.len()];
        // Group frame indices by resolution, preserving first-seen order.
        let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let key = (frame.height, frame.width);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        for ((h, w), idxs) in groups {
            let images: Vec<&Tensor> = idxs.iter().map(|&i| &frames[i].image).collect();
            let batch = Tensor::stack_batch(&images)?;
            let logits = self.net.forward_inference(&batch)?;
            let labels = logits.argmax_channels()?;
            let plane = h * w;
            for (slot, &i) in idxs.iter().enumerate() {
                out[i] = Some(labels[slot * plane..(slot + 1) * plane].to_vec());
            }
        }
        Ok(out
            .into_iter()
            .map(|l| l.expect("every frame labelled"))
            .collect())
    }

    fn inference_latency(&self) -> f64 {
        self.latency
    }

    fn param_count(&self) -> usize {
        self.param_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig};

    fn generator(seed: u64) -> VideoGenerator {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::People,
        };
        VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap()
    }

    #[test]
    fn untrained_teacher_produces_valid_labels() {
        let mut t = CnnTeacher::untrained(2, 1).unwrap();
        let mut g = generator(2);
        let f = g.next_frame();
        let labels = t.pseudo_label(&f).unwrap();
        assert_eq!(labels.len(), f.ground_truth.len());
        assert!(labels.iter().all(|&l| l < st_video::NUM_CLASSES));
    }

    #[test]
    fn batched_labels_match_per_frame_bit_for_bit() {
        let mut t = CnnTeacher::untrained(2, 5).unwrap();
        let mut g = generator(6);
        let frames: Vec<_> = (0..4).map(|_| g.next_frame()).collect();
        let refs: Vec<&_> = frames.iter().collect();
        let batched = t.pseudo_label_batch(&refs).unwrap();
        assert_eq!(batched.len(), frames.len());
        for (frame, batched_labels) in frames.iter().zip(&batched) {
            let solo = t.pseudo_label(frame).unwrap();
            assert_eq!(&solo, batched_labels);
        }
    }

    #[test]
    fn batched_labels_handle_mixed_resolutions() {
        // Streams of different frame sizes can be co-scheduled onto one
        // shard; the batched forward groups them by resolution and keeps
        // the output order aligned with the input order.
        let mut t = CnnTeacher::untrained(1, 7).unwrap();
        let mut g_small = generator(8);
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Street,
        };
        let mut g_large = VideoGenerator::new(VideoConfig::for_category(cat, 48, 32, 9)).unwrap();
        let frames = [
            g_small.next_frame(),
            g_large.next_frame(),
            g_small.next_frame(),
            g_large.next_frame(),
        ];
        let refs: Vec<&_> = frames.iter().collect();
        let batched = t.pseudo_label_batch(&refs).unwrap();
        for (frame, batched_labels) in frames.iter().zip(&batched) {
            assert_eq!(batched_labels.len(), frame.height * frame.width);
            let solo = t.pseudo_label(frame).unwrap();
            assert_eq!(&solo, batched_labels);
        }
        // Empty batches are fine.
        assert!(t.pseudo_label_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn wider_teacher_has_more_params_than_tiny_student() {
        let t = CnnTeacher::untrained(2, 1).unwrap();
        let mut tiny = StudentNet::new(StudentConfig::tiny()).unwrap();
        assert!(t.param_count() > tiny.param_count());
        // Same widths => same parameter count, independent of the seed.
        let t2 = CnnTeacher::untrained(2, 99).unwrap();
        assert_eq!(t.param_count(), t2.param_count());
    }

    #[test]
    fn pretraining_reduces_loss() {
        let mut t = CnnTeacher::untrained(1, 3).unwrap();
        let mut g = generator(4);
        // First step's loss vs the loss after a few steps on the same stream.
        let first = t.pretrain(&mut g, 1, 0.01).unwrap();
        let later = t.pretrain(&mut g, 6, 0.01).unwrap();
        assert!(later.is_finite());
        assert!(
            later < first * 1.5,
            "pre-training diverged: {first} -> {later}"
        );
        // A pre-trained teacher holds no dead backward caches.
        let mut net = t.network().clone();
        let grad = Tensor::zeros(net.output_shape(24, 32));
        assert!(matches!(
            net.backward(&grad),
            Err(st_tensor::TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn latency_override() {
        let t = CnnTeacher::untrained(1, 1).unwrap().with_latency(0.2);
        assert!((t.inference_latency() - 0.2).abs() < 1e-12);
    }
}
