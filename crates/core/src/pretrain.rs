//! "Public education": offline pre-training of the student.
//!
//! Section 4.1.3 of the paper requires the student to be pre-trained on data
//! relevant to the task (the paper uses 30 epochs of COCO) before deployment
//! — a one-time cost paid when the system is first organised. Here the
//! student is pre-trained on frames drawn from a *mixture* of generated
//! categories with ground-truth supervision, which plays the same role: the
//! student acquires generic features, but lacks the capacity to excel on any
//! specific stream without shadow education (as Table 6's "Wild" column
//! shows).

use crate::Result;
use st_nn::loss::{weighted_cross_entropy, WeightMap};
use st_nn::metrics::{miou, MiouAccumulator};
use st_nn::optim::Adam;
use st_nn::student::{FreezePoint, StudentConfig, StudentNet};
use st_video::dataset::{category_videos, Resolution};
use st_video::VideoGenerator;

/// Configuration of the pre-training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainConfig {
    /// Resolution to pre-train at.
    pub resolution: Resolution,
    /// Number of optimization steps (one frame per step, cycling categories).
    pub steps: usize,
    /// Frames to skip between sampled training frames within each stream
    /// (larger values increase scene diversity per step).
    pub frame_skip: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed for the video mixture.
    pub seed: u64,
}

impl PretrainConfig {
    /// A quick pre-training pass suitable for CPU-scale experiments.
    pub fn quick() -> Self {
        PretrainConfig {
            resolution: Resolution::Tiny,
            steps: 60,
            frame_skip: 5,
            learning_rate: 0.02,
            seed: 2000,
        }
    }

    /// A longer pre-training pass for the benchmark harness.
    pub fn standard() -> Self {
        PretrainConfig {
            resolution: Resolution::Small,
            steps: 150,
            frame_skip: 7,
            learning_rate: 0.02,
            seed: 2000,
        }
    }
}

/// Statistics of a pre-training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainReport {
    /// Number of optimization steps taken.
    pub steps: usize,
    /// Mean training loss over the final quarter of the run.
    pub final_loss: f32,
    /// Mean IoU over the final quarter of the run (against ground truth).
    pub final_miou: f64,
}

/// Pre-train a fresh student ("public education") and return it with the
/// report. The student is trained with *all* parameters trainable; the caller
/// sets the deployment freeze point afterwards.
pub fn pretrain_student(
    config: StudentConfig,
    pretrain: &PretrainConfig,
) -> Result<(StudentNet, PretrainReport)> {
    let mut student = StudentNet::new(config)?;
    student.freeze = FreezePoint::None;
    let mut optimizer = Adam::new(pretrain.learning_rate);

    // A mixture of all seven categories, cycled round-robin.
    let descriptors = category_videos(pretrain.resolution, pretrain.seed);
    let mut generators: Vec<VideoGenerator> = descriptors
        .iter()
        .map(|d| VideoGenerator::new(d.config).expect("valid descriptor config"))
        .collect();

    let tail_start = pretrain.steps - pretrain.steps / 4;
    let mut tail_loss = 0.0f32;
    let mut tail_count = 0usize;
    let mut tail_miou = MiouAccumulator::new();
    let generator_count = generators.len();
    for step in 0..pretrain.steps {
        let gen = &mut generators[step % generator_count];
        // Skip frames to decorrelate successive samples from the same stream.
        for _ in 0..pretrain.frame_skip {
            let _ = gen.next_frame();
        }
        let frame = gen.next_frame();
        let weights = WeightMap::from_labels(&frame.ground_truth, frame.height, frame.width, 0, 1)?;
        let logits = student.forward_train(&frame.image)?;
        let (loss, grad) = weighted_cross_entropy(&logits, &frame.ground_truth, &weights)?;
        student.backward(&grad)?;
        optimizer.step(&mut student);
        if step >= tail_start {
            tail_loss += loss;
            tail_count += 1;
            let pred = student.predict(&frame.image)?;
            tail_miou.push(miou(
                &pred,
                &frame.ground_truth,
                student.config.num_classes,
            )?);
        }
    }

    // The returned student is a template: every session and client clones
    // it, and a clone shares — and so keeps alive — whatever buffers the
    // last step left in its layers.
    student.clear_training_caches();
    let report = PretrainReport {
        steps: pretrain.steps,
        final_loss: if tail_count > 0 {
            tail_loss / tail_count as f32
        } else {
            0.0
        },
        final_miou: tail_miou.average(),
    };
    Ok((student, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretraining_produces_a_finite_student() {
        let cfg = PretrainConfig {
            steps: 8,
            frame_skip: 1,
            ..PretrainConfig::quick()
        };
        let (mut student, report) = pretrain_student(StudentConfig::tiny(), &cfg).unwrap();
        assert_eq!(report.steps, 8);
        assert!(report.final_loss.is_finite());
        assert!(report.final_miou >= 0.0 && report.final_miou <= 1.0);
        // All weights finite after training.
        let mut finite = true;
        let mut v = |p: &mut st_nn::Param, _: bool| finite &= p.value.all_finite();
        student.visit_params(&mut v);
        assert!(finite);
        // The template carries no dead backward caches into its clones.
        let grad = st_tensor::Tensor::zeros(student.output_shape(24, 32));
        assert!(matches!(
            student.backward(&grad),
            Err(st_tensor::TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn longer_pretraining_improves_generic_miou() {
        let short = PretrainConfig {
            steps: 4,
            frame_skip: 0,
            ..PretrainConfig::quick()
        };
        let long = PretrainConfig {
            steps: 40,
            frame_skip: 0,
            ..PretrainConfig::quick()
        };
        let (_, short_report) = pretrain_student(StudentConfig::tiny(), &short).unwrap();
        let (_, long_report) = pretrain_student(StudentConfig::tiny(), &long).unwrap();
        assert!(
            long_report.final_miou >= short_report.final_miou * 0.8,
            "longer pre-training should not be dramatically worse: {} vs {}",
            long_report.final_miou,
            short_report.final_miou
        );
    }

    #[test]
    fn presets_are_consistent() {
        let q = PretrainConfig::quick();
        let s = PretrainConfig::standard();
        assert!(s.steps > q.steps);
        assert!(q.learning_rate > 0.0);
    }
}
