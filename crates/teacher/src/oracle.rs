//! The oracle teacher: ground-truth-derived pseudo-labels with a
//! Mask-R-CNN-like corruption model.
//!
//! Mask R-CNN on LVS is imperfect in characteristic ways: object boundaries
//! are slightly off, very small objects are occasionally missed entirely, and
//! visually similar classes are sometimes confused. The [`CorruptionModel`]
//! reproduces those three error modes on top of the generator's ground truth
//! so the student is distilled from labels with realistic imperfections, while
//! the *evaluation* (which, as in the paper, compares the student to the
//! teacher's own output) stays self-consistent.

use crate::{Result, Teacher};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_video::{Frame, NUM_CLASSES};

/// Configuration of the teacher's error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionModel {
    /// Probability that a boundary pixel (a pixel with a differently-labelled
    /// 4-neighbour) flips to that neighbour's label.
    pub boundary_flip_prob: f64,
    /// Objects smaller than this many pixels are dropped (labelled
    /// background) with probability [`CorruptionModel::small_object_miss_prob`].
    pub small_object_threshold: usize,
    /// Probability of missing a small object entirely.
    pub small_object_miss_prob: f64,
    /// Probability that an entire object's class is swapped for another
    /// foreground class (class confusion).
    pub class_confusion_prob: f64,
}

impl CorruptionModel {
    /// A perfect teacher (no corruption).
    pub fn perfect() -> Self {
        CorruptionModel {
            boundary_flip_prob: 0.0,
            small_object_threshold: 0,
            small_object_miss_prob: 0.0,
            class_confusion_prob: 0.0,
        }
    }

    /// Default Mask-R-CNN-like imperfection level.
    pub fn realistic() -> Self {
        CorruptionModel {
            boundary_flip_prob: 0.25,
            small_object_threshold: 12,
            small_object_miss_prob: 0.15,
            class_confusion_prob: 0.01,
        }
    }
}

/// Ground-truth-based teacher with configurable corruption and latency.
#[derive(Debug)]
pub struct OracleTeacher {
    corruption: CorruptionModel,
    /// Nominal inference latency in seconds (`t_ti`; paper measures 44 ms
    /// for Mask R-CNN on the RTX 2080 Ti).
    latency: f64,
    /// Nominal parameter count reported for size-ratio bookkeeping
    /// (Mask R-CNN: 44.34 M).
    nominal_params: usize,
    rng: StdRng,
}

impl OracleTeacher {
    /// Teacher with the paper's nominal latency and size and a given
    /// corruption model.
    pub fn new(corruption: CorruptionModel, seed: u64) -> Self {
        OracleTeacher {
            corruption,
            latency: 0.044,
            nominal_params: 44_340_000,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A perfect oracle (labels equal to ground truth).
    pub fn perfect(seed: u64) -> Self {
        OracleTeacher::new(CorruptionModel::perfect(), seed)
    }

    /// A realistically imperfect oracle.
    pub fn realistic(seed: u64) -> Self {
        OracleTeacher::new(CorruptionModel::realistic(), seed)
    }

    /// Override the nominal inference latency (seconds).
    pub fn with_latency(mut self, latency: f64) -> Self {
        self.latency = latency;
        self
    }

    fn corrupt(&mut self, labels: &[usize], h: usize, w: usize) -> Vec<usize> {
        let mut out = labels.to_vec();
        let c = self.corruption;

        // Per-class pixel counts for the small-object and confusion passes.
        let mut counts = [0usize; NUM_CLASSES];
        for &l in labels {
            if l < NUM_CLASSES {
                counts[l] += 1;
            }
        }

        // Class-level decisions: miss small objects, confuse classes.
        let mut class_map: [usize; NUM_CLASSES] = core::array::from_fn(|i| i);
        for cls in 1..NUM_CLASSES {
            if counts[cls] == 0 {
                continue;
            }
            if counts[cls] <= c.small_object_threshold
                && self.rng.random::<f64>() < c.small_object_miss_prob
            {
                class_map[cls] = 0; // background
            } else if self.rng.random::<f64>() < c.class_confusion_prob {
                // Swap to a random other foreground class.
                let other = 1 + (self.rng.random::<u32>() as usize) % (NUM_CLASSES - 1);
                class_map[cls] = other;
            }
        }
        if class_map.iter().enumerate().any(|(i, &m)| m != i) {
            for l in &mut out {
                *l = class_map[*l];
            }
        }

        // Boundary jitter: flip boundary pixels to a neighbour's label.
        if c.boundary_flip_prob > 0.0 {
            let original = out.clone();
            for y in 0..h {
                for x in 0..w {
                    let idx = y * w + x;
                    let here = original[idx];
                    let neighbours = [
                        (x > 0).then(|| original[idx - 1]),
                        (x + 1 < w).then(|| original[idx + 1]),
                        (y > 0).then(|| original[idx - w]),
                        (y + 1 < h).then(|| original[idx + w]),
                    ];
                    for n in neighbours.into_iter().flatten() {
                        if n != here {
                            if self.rng.random::<f64>() < c.boundary_flip_prob {
                                out[idx] = n;
                            }
                            break;
                        }
                    }
                }
            }
        }
        out
    }
}

impl Teacher for OracleTeacher {
    fn pseudo_label(&mut self, frame: &Frame) -> Result<Vec<usize>> {
        Ok(self.corrupt(&frame.ground_truth, frame.height, frame.width))
    }

    fn inference_latency(&self) -> f64 {
        self.latency
    }

    fn param_count(&self) -> usize {
        self.nominal_params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};

    fn frame(seed: u64) -> Frame {
        let cat = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Street,
        };
        let mut g = VideoGenerator::new(VideoConfig::for_category(cat, 32, 24, seed)).unwrap();
        g.next_frame()
    }

    #[test]
    fn perfect_oracle_returns_ground_truth() {
        let f = frame(1);
        let mut t = OracleTeacher::perfect(0);
        let labels = t.pseudo_label(&f).unwrap();
        assert_eq!(labels, f.ground_truth);
        assert_eq!(t.param_count(), 44_340_000);
        assert!((t.inference_latency() - 0.044).abs() < 1e-9);
    }

    #[test]
    fn realistic_oracle_differs_only_moderately() {
        let f = frame(2);
        let mut t = OracleTeacher::realistic(0);
        let labels = t.pseudo_label(&f).unwrap();
        let diff = labels
            .iter()
            .zip(f.ground_truth.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff > 0, "realistic corruption should perturb something");
        assert!(
            (diff as f64) < 0.15 * labels.len() as f64,
            "corruption too aggressive: {diff}/{}",
            labels.len()
        );
        // All labels remain valid class indices.
        assert!(labels.iter().all(|&l| l < NUM_CLASSES));
    }

    #[test]
    fn boundary_flips_touch_only_boundary_pixels() {
        let f = frame(3);
        let mut t = OracleTeacher::new(
            CorruptionModel {
                boundary_flip_prob: 1.0,
                small_object_threshold: 0,
                small_object_miss_prob: 0.0,
                class_confusion_prob: 0.0,
            },
            0,
        );
        let labels = t.pseudo_label(&f).unwrap();
        let w = f.width;
        for (idx, (&new, &old)) in labels.iter().zip(f.ground_truth.iter()).enumerate() {
            if new != old {
                // The changed pixel must have had a differently-labelled 4-neighbour.
                let x = idx % w;
                let y = idx / w;
                let mut has_diff_neighbour = false;
                if x > 0 && f.ground_truth[idx - 1] != old {
                    has_diff_neighbour = true;
                }
                if x + 1 < w && f.ground_truth[idx + 1] != old {
                    has_diff_neighbour = true;
                }
                if y > 0 && f.ground_truth[idx - w] != old {
                    has_diff_neighbour = true;
                }
                if y + 1 < f.height && f.ground_truth[idx + w] != old {
                    has_diff_neighbour = true;
                }
                assert!(has_diff_neighbour, "interior pixel {idx} was flipped");
            }
        }
    }

    #[test]
    fn latency_override() {
        let t = OracleTeacher::perfect(0).with_latency(0.1);
        assert!((t.inference_latency() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let f = frame(4);
        let a = OracleTeacher::realistic(9).pseudo_label(&f).unwrap();
        let b = OracleTeacher::realistic(9).pseudo_label(&f).unwrap();
        assert_eq!(a, b);
    }
}
