//! Server-side student training on one key frame (Algorithm 1).
//!
//! Given a key frame and the teacher's pseudo-label, the server repeatedly
//! takes optimization steps on the student until either the student's metric
//! on that frame exceeds the threshold or `MAX_UPDATES` steps have been
//! taken, keeping the best-performing weights seen. If the student already
//! beats the threshold before any step, training is skipped entirely (the
//! `d = 0` case that the traffic upper bound of §4.4 relies on).
//!
//! One call makes `1 + 2 × steps` passes over the same key frame (an
//! evaluation, then a training forward and an evaluation per step). Under
//! partial distillation the frozen front of the student gives the same
//! activations in every one of them, so [`train_student`] runs it once
//! ([`StudentNet::frozen_prefix`]) and every pass starts at the freeze
//! boundary; full distillation is the same code with an empty prefix. The
//! backward caches the training forwards leave in the trainable layers are
//! freed before the call returns — a session between key frames holds
//! weights and optimizer moments, nothing else.

use crate::config::ShadowTutorConfig;
use crate::Result;
use st_nn::loss::{weighted_cross_entropy, WeightMap};
use st_nn::metrics::miou;
use st_nn::optim::Adam;
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_video::Frame;

/// Outcome of one key-frame training call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOutcome {
    /// Student metric (mean IoU vs the pseudo-label) before any update.
    pub initial_metric: f64,
    /// Best metric achieved (what the client's stride scheduler receives).
    pub best_metric: f64,
    /// Number of optimization steps actually taken (0 ≤ steps ≤ MAX_UPDATES).
    pub steps: usize,
    /// Final training loss of the last step taken (0 when no step was taken).
    pub final_loss: f32,
}

/// Train the student on a key frame against a pseudo-label (Algorithm 1).
///
/// The student is left holding the best weights observed during the loop
/// (which may be the initial weights if no step improved on them), and no
/// backward caches: those live for exactly one call.
pub fn train_student(
    student: &mut StudentNet,
    optimizer: &mut Adam,
    frame: &Frame,
    pseudo_label: &[usize],
    config: &ShadowTutorConfig,
) -> Result<TrainOutcome> {
    let outcome = distill_key_frame(student, optimizer, frame, pseudo_label, config);
    student.clear_training_caches();
    outcome
}

fn distill_key_frame(
    student: &mut StudentNet,
    optimizer: &mut Adam,
    frame: &Frame,
    pseudo_label: &[usize],
    config: &ShadowTutorConfig,
) -> Result<TrainOutcome> {
    config.validate()?;
    let classes = student.config.num_classes;
    let weights = WeightMap::from_labels(
        pseudo_label,
        frame.height,
        frame.width,
        0,
        config.loss_weight_radius,
    )?;

    // The frozen front sees the same image with the same weights in every
    // pass below — `1 + 2 × steps` of them — so it runs once. Nothing in the
    // loop can invalidate it: backward, the optimizer and the
    // `TrainableOnly` restore only touch stages after the cut.
    let prefix = student.frozen_prefix(&frame.image)?;

    // Line 1-2: initial prediction and metric.
    let prediction = student.predict_from(&prefix)?;
    let initial_metric = miou(&prediction, pseudo_label, classes)?.value;
    let mut best_metric = initial_metric;
    let mut steps = 0usize;
    let mut final_loss = 0.0f32;

    // Line 4: skip training entirely when the student is already good enough.
    if best_metric < config.threshold {
        // Snapshot the starting weights so that a loop in which *every* step
        // degrades the metric still restores them at the end (the doc promise
        // "left holding the best weights observed" includes the initial ones).
        let mut best_weights: WeightSnapshot =
            WeightSnapshot::capture(student, SnapshotScope::TrainableOnly);
        // Whether `best_weights` already equals the student's live weights
        // (true after every capture, false after every optimizer step) — lets
        // the final restore be skipped when the last step was the best.
        let mut best_is_current = true;
        for _ in 0..config.max_updates {
            // Lines 6-9: one optimization step on the distillation loss.
            let logits = student.forward_train_from(&prefix)?;
            let (loss, grad) = weighted_cross_entropy(&logits, pseudo_label, &weights)?;
            student.backward(&grad)?;
            optimizer.step(student);
            best_is_current = false;
            steps += 1;
            final_loss = loss;

            // Lines 9-14: re-evaluate and keep the best student. Ties keep
            // the *latest* weights: the argmax-based metric often plateaus
            // while the loss still falls, and rolling back to the first
            // plateau snapshot would silently discard that progress on every
            // key frame (the student would never escape the plateau no
            // matter how many key frames it trains on).
            let prediction = student.predict_from(&prefix)?;
            let metric = miou(&prediction, pseudo_label, classes)?.value;
            if metric >= best_metric {
                best_metric = metric;
                best_weights = WeightSnapshot::capture(student, SnapshotScope::TrainableOnly);
                best_is_current = true;
            }
            // Lines 15-17: early exit once the threshold is reached.
            if metric > config.threshold {
                break;
            }
        }
        // Restore the best weights if the last step was not the best.
        if !best_is_current {
            best_weights.apply(student)?;
        }
    }

    Ok(TrainOutcome {
        initial_metric,
        best_metric,
        steps,
        final_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistillationMode;
    use st_nn::student::StudentConfig;
    use st_teacher::{OracleTeacher, Teacher};
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

    fn setup(mode: DistillationMode) -> (StudentNet, Adam, Frame, Vec<usize>, ShadowTutorConfig) {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::People,
        };
        let mut gen = VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, 5)).unwrap();
        let frame = gen.next_frame();
        let mut teacher = OracleTeacher::perfect(1);
        let label = teacher.pseudo_label(&frame).unwrap();
        let mut student = StudentNet::new(StudentConfig::tiny()).unwrap();
        student.freeze = mode.freeze_point();
        let config = ShadowTutorConfig {
            mode,
            ..ShadowTutorConfig::paper()
        };
        (
            student,
            Adam::new(config.learning_rate),
            frame,
            label,
            config,
        )
    }

    /// Algorithm 1 as it ran before the frozen-prefix cache: every pass is a
    /// full-input `predict` / `forward_train`. The reference `train_student`
    /// must equal bit for bit.
    fn train_student_full_input(
        student: &mut StudentNet,
        optimizer: &mut Adam,
        frame: &Frame,
        pseudo_label: &[usize],
        config: &ShadowTutorConfig,
    ) -> Result<TrainOutcome> {
        let classes = student.config.num_classes;
        let weights = WeightMap::from_labels(
            pseudo_label,
            frame.height,
            frame.width,
            0,
            config.loss_weight_radius,
        )?;
        let prediction = student.predict(&frame.image)?;
        let initial_metric = miou(&prediction, pseudo_label, classes)?.value;
        let mut best_metric = initial_metric;
        let mut steps = 0usize;
        let mut final_loss = 0.0f32;
        if best_metric < config.threshold {
            let mut best_weights = WeightSnapshot::capture(student, SnapshotScope::TrainableOnly);
            let mut best_is_current = true;
            for _ in 0..config.max_updates {
                let logits = student.forward_train(&frame.image)?;
                let (loss, grad) = weighted_cross_entropy(&logits, pseudo_label, &weights)?;
                student.backward(&grad)?;
                optimizer.step(student);
                best_is_current = false;
                steps += 1;
                final_loss = loss;
                let prediction = student.predict(&frame.image)?;
                let metric = miou(&prediction, pseudo_label, classes)?.value;
                if metric >= best_metric {
                    best_metric = metric;
                    best_weights = WeightSnapshot::capture(student, SnapshotScope::TrainableOnly);
                    best_is_current = true;
                }
                if metric > config.threshold {
                    break;
                }
            }
            if !best_is_current {
                best_weights.apply(student)?;
            }
        }
        Ok(TrainOutcome {
            initial_metric,
            best_metric,
            steps,
            final_loss,
        })
    }

    #[test]
    fn prefix_cached_loop_equals_the_full_input_loop_bit_for_bit() {
        for mode in [DistillationMode::Partial, DistillationMode::Full] {
            let (mut student, mut opt, _, _, config) = setup(mode);
            let mut reference = student.clone();
            let mut reference_opt = Adam::new(config.learning_rate);
            let cat = VideoCategory {
                camera: CameraMotion::Moving,
                scene: SceneKind::Street,
            };
            let mut gen = VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, 9)).unwrap();
            let mut teacher = OracleTeacher::perfect(1);
            let mut total_steps = 0;
            // Consecutive key frames, the same Adam carried across: a
            // difference in any step's gradients would compound.
            for key_frame in 0..4 {
                for _ in 0..3 {
                    gen.next_frame();
                }
                let frame = gen.next_frame();
                let label = teacher.pseudo_label(&frame).unwrap();
                let expected = train_student_full_input(
                    &mut reference,
                    &mut reference_opt,
                    &frame,
                    &label,
                    &config,
                )
                .unwrap();
                let outcome = train_student(&mut student, &mut opt, &frame, &label, &config);
                assert_eq!(outcome.unwrap(), expected, "{mode:?} key frame {key_frame}");
                // Parameters *and* batch-norm running statistics.
                assert_eq!(
                    WeightSnapshot::capture(&mut student, SnapshotScope::Full).encode(),
                    WeightSnapshot::capture(&mut reference, SnapshotScope::Full).encode(),
                    "{mode:?} key frame {key_frame}"
                );
                total_steps += expected.steps;
            }
            assert!(total_steps >= 4, "{mode:?}: the loops must actually train");
        }
    }

    /// The weights four consecutive key frames leave in a `small()` student
    /// at 64×48, hashed at the commit before the student's passes stopped
    /// building column matrices and moving activations element by element
    /// (PR 23, 0c2db13): the kernels changed, no bit of any weight may.
    #[test]
    fn four_key_frames_leave_the_weights_the_parent_commit_left() {
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        for (mode, expected_steps, expected_hash) in [
            (DistillationMode::Partial, 31usize, 0xb1d9_1719_cc91_c90du64),
            (DistillationMode::Full, 32, 0xbde8_391f_e3a4_11e3),
        ] {
            let config = ShadowTutorConfig {
                mode,
                ..ShadowTutorConfig::paper()
            };
            let mut student = StudentNet::new(StudentConfig::small()).unwrap();
            student.freeze = mode.freeze_point();
            let mut opt = Adam::new(config.learning_rate);
            let cat = VideoCategory {
                camera: CameraMotion::Moving,
                scene: SceneKind::Street,
            };
            let mut gen = VideoGenerator::new(VideoConfig::for_category(cat, 64, 48, 9)).unwrap();
            let mut teacher = OracleTeacher::perfect(1);
            let mut steps = 0;
            for _ in 0..4 {
                for _ in 0..3 {
                    gen.next_frame();
                }
                let frame = gen.next_frame();
                let label = teacher.pseudo_label(&frame).unwrap();
                steps += train_student(&mut student, &mut opt, &frame, &label, &config)
                    .unwrap()
                    .steps;
            }
            let weights = WeightSnapshot::capture(&mut student, SnapshotScope::Full).encode();
            assert_eq!(
                (steps, fnv1a(&weights)),
                (expected_steps, expected_hash),
                "{mode:?}: {steps} steps, hash {:#018x}",
                fnv1a(&weights)
            );
        }
    }

    #[test]
    fn no_backward_cache_outlives_the_call() {
        let (mut student, mut opt, frame, label, config) = setup(DistillationMode::Partial);
        let out = train_student(&mut student, &mut opt, &frame, &label, &config).unwrap();
        assert!(out.steps >= 1);
        let grad = st_tensor::Tensor::zeros(student.output_shape(frame.height, frame.width));
        assert!(matches!(
            student.backward(&grad),
            Err(st_tensor::TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn training_improves_the_key_frame_metric() {
        let (mut student, mut opt, frame, label, config) = setup(DistillationMode::Partial);
        let out = train_student(&mut student, &mut opt, &frame, &label, &config).unwrap();
        assert!(out.steps >= 1, "an untrained student should need steps");
        assert!(out.steps <= config.max_updates);
        assert!(
            out.best_metric >= out.initial_metric,
            "best metric {} must not be below initial {}",
            out.best_metric,
            out.initial_metric
        );
        assert!(out.final_loss.is_finite());
    }

    #[test]
    fn repeated_training_on_same_frame_converges_and_then_skips() {
        let (mut student, mut opt, frame, label, config) = setup(DistillationMode::Partial);
        let mut last = 0.0f64;
        for _ in 0..6 {
            let out = train_student(&mut student, &mut opt, &frame, &label, &config).unwrap();
            last = out.best_metric;
        }
        // After several key-frame trainings on the *same* frame the student
        // should overfit it well (this is exactly the paper's premise).
        assert!(
            last > 0.5,
            "student failed to overfit a single frame: {last}"
        );
        // And once the threshold is exceeded, training is skipped (d = 0).
        if last > config.threshold {
            let out = train_student(&mut student, &mut opt, &frame, &label, &config).unwrap();
            assert_eq!(out.steps, 0);
            assert_eq!(out.initial_metric, out.best_metric);
        }
    }

    #[test]
    fn full_distillation_takes_at_least_as_many_params_along() {
        let (mut student, mut opt, frame, label, config) = setup(DistillationMode::Full);
        let out = train_student(&mut student, &mut opt, &frame, &label, &config).unwrap();
        assert!(out.steps >= 1);
        assert_eq!(student.freeze, st_nn::student::FreezePoint::None);
    }

    #[test]
    fn already_good_student_skips_training() {
        let (mut student, mut opt, frame, label, _config) = setup(DistillationMode::Partial);
        // With a threshold of 0 every student is "good enough".
        let lenient = ShadowTutorConfig {
            threshold: 0.0,
            ..ShadowTutorConfig::paper()
        };
        let out = train_student(&mut student, &mut opt, &frame, &label, &lenient).unwrap();
        assert_eq!(out.steps, 0);
        assert_eq!(out.initial_metric, out.best_metric);
    }

    #[test]
    fn steps_capped_by_max_updates() {
        let (mut student, mut opt, frame, label, _config) = setup(DistillationMode::Partial);
        let strict = ShadowTutorConfig {
            threshold: 0.999, // effectively unreachable in a couple of steps
            max_updates: 3,
            ..ShadowTutorConfig::paper()
        };
        let out = train_student(&mut student, &mut opt, &frame, &label, &strict).unwrap();
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (mut student, mut opt, frame, label, _config) = setup(DistillationMode::Partial);
        let bad = ShadowTutorConfig {
            threshold: 2.0,
            ..ShadowTutorConfig::paper()
        };
        assert!(train_student(&mut student, &mut opt, &frame, &label, &bad).is_err());
    }
}
