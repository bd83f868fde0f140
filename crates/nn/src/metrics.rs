//! Segmentation metrics: confusion matrix, per-class IoU and mean IoU.
//!
//! The paper evaluates with mean Intersection-over-Union (Eq. 1): for each
//! class `c`, `IoU_c = |pred_c ∩ label_c| / |pred_c ∪ label_c|`, averaged
//! over *the classes present in the ground-truth label* of the frame. Values
//! in the paper's tables are percentages; [`MeanIou::percent`] matches that
//! convention.

use crate::Result;
use st_tensor::TensorError;

/// A `C × C` confusion matrix accumulated over one or more frames.
///
/// Rows are ground-truth classes, columns are predicted classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// An empty confusion matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Accumulate a predicted/label pair of equal-length label maps.
    pub fn update(&mut self, pred: &[usize], label: &[usize]) -> Result<()> {
        if pred.len() != label.len() {
            return Err(TensorError::LengthMismatch {
                expected: label.len(),
                actual: pred.len(),
            });
        }
        for (&p, &l) in pred.iter().zip(label.iter()) {
            if p >= self.classes || l >= self.classes {
                return Err(TensorError::IndexOutOfBounds {
                    index: p.max(l),
                    len: self.classes,
                });
            }
            self.counts[l * self.classes + p] += 1;
        }
        Ok(())
    }

    /// Raw count for `(label, pred)`.
    pub fn count(&self, label: usize, pred: usize) -> u64 {
        self.counts[label * self.classes + pred]
    }

    /// Total number of accumulated pixels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-class IoU. Classes absent from both prediction and label yield
    /// `None`.
    fn per_class_iou(&self) -> Vec<Option<f64>> {
        (0..self.classes)
            .map(|c| {
                let tp = self.count(c, c);
                let label_total: u64 = (0..self.classes).map(|p| self.count(c, p)).sum();
                let pred_total: u64 = (0..self.classes).map(|l| self.count(l, c)).sum();
                let union = label_total + pred_total - tp;
                if union == 0 {
                    None
                } else {
                    Some(tp as f64 / union as f64)
                }
            })
            .collect()
    }

    /// Mean IoU over classes *present in the label* (the paper's convention),
    /// or over all non-empty classes when `present_only` is false.
    pub fn mean_iou(&self, present_only: bool) -> MeanIou {
        let ious = self.per_class_iou();
        let mut acc = 0.0f64;
        let mut n = 0usize;
        for (c, class_iou) in ious.iter().enumerate() {
            let label_total: u64 = (0..self.classes).map(|p| self.count(c, p)).sum();
            let include = if present_only {
                label_total > 0
            } else {
                class_iou.is_some()
            };
            if include {
                if let Some(iou) = *class_iou {
                    acc += iou;
                    n += 1;
                } else {
                    // present_only with a label class never predicted and
                    // never labelled cannot happen (label_total > 0 implies
                    // union > 0), so this branch is unreachable; keep the
                    // count consistent anyway.
                    n += 1;
                }
            }
        }
        MeanIou {
            value: if n == 0 { 0.0 } else { acc / n as f64 },
            classes_counted: n,
        }
    }

    /// Overall pixel accuracy.
    pub fn pixel_accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Merge another confusion matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) -> Result<()> {
        if self.classes != other.classes {
            return Err(TensorError::ShapeMismatch {
                op: "confusion_merge",
                lhs: vec![self.classes],
                rhs: vec![other.classes],
            });
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        Ok(())
    }
}

/// A mean-IoU value together with how many classes entered the average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanIou {
    /// Mean IoU in `[0, 1]`.
    pub value: f64,
    /// Number of classes included in the mean.
    pub classes_counted: usize,
}

impl MeanIou {
    /// Mean IoU as a percentage, the unit used in the paper's tables.
    pub fn percent(&self) -> f64 {
        self.value * 100.0
    }
}

/// Convenience: mean IoU of a single prediction/label pair.
pub fn miou(pred: &[usize], label: &[usize], classes: usize) -> Result<MeanIou> {
    let mut cm = ConfusionMatrix::new(classes);
    cm.update(pred, label)?;
    Ok(cm.mean_iou(true))
}

/// Running average of per-frame mean-IoU values (the paper averages the mIoU
/// of every frame over a video stream).
#[derive(Debug, Clone, Default)]
pub struct MiouAccumulator {
    sum: f64,
    count: usize,
}

impl MiouAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one frame's mean IoU.
    pub fn push(&mut self, value: MeanIou) {
        self.sum += value.value;
        self.count += 1;
    }

    /// Average over frames pushed so far (0 when empty).
    pub fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of frames accumulated.
    pub fn frames(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let labels = vec![0, 1, 2, 1, 0];
        let m = miou(&labels, &labels, 3).unwrap();
        assert!((m.value - 1.0).abs() < 1e-12);
        assert_eq!(m.classes_counted, 3);
        assert_eq!(m.percent(), 100.0);
    }

    #[test]
    fn disjoint_prediction_scores_zero() {
        let label = vec![0, 0, 0, 0];
        let pred = vec![1, 1, 1, 1];
        let m = miou(&pred, &label, 2).unwrap();
        assert_eq!(m.value, 0.0);
    }

    #[test]
    fn half_overlap_iou() {
        // label: class 1 on pixels 0..2 ; pred: class 1 on pixels 1..3
        // intersection 1 pixel, union 3 pixels -> IoU 1/3 for class 1.
        // class 0: label pixels {2,3}, pred pixels {0,3}: inter 1, union 3 -> 1/3.
        let label = vec![1, 1, 0, 0];
        let pred = vec![0, 1, 1, 0];
        let m = miou(&pred, &label, 2).unwrap();
        assert!((m.value - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn absent_classes_excluded_from_mean() {
        // Only class 0 present in the label; a spurious prediction of class 2
        // must not drag a zero-IoU class 2 into the (present-only) mean.
        let label = vec![0, 0, 0, 0];
        let pred = vec![0, 0, 0, 2];
        let cm = {
            let mut cm = ConfusionMatrix::new(3);
            cm.update(&pred, &label).unwrap();
            cm
        };
        let present = cm.mean_iou(true);
        assert_eq!(present.classes_counted, 1);
        assert!((present.value - 0.75).abs() < 1e-9);
        let all = cm.mean_iou(false);
        assert_eq!(all.classes_counted, 2);
        assert!(all.value < present.value);
    }

    #[test]
    fn update_validates_input() {
        let mut cm = ConfusionMatrix::new(2);
        assert!(cm.update(&[0, 1], &[0]).is_err());
        assert!(cm.update(&[0, 2], &[0, 1]).is_err());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ConfusionMatrix::new(2);
        a.update(&[0, 1], &[0, 1]).unwrap();
        let mut b = ConfusionMatrix::new(2);
        b.update(&[1, 1], &[0, 1]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(0, 1), 1);
        let c = ConfusionMatrix::new(3);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn pixel_accuracy_matches_counts() {
        let mut cm = ConfusionMatrix::new(2);
        cm.update(&[0, 1, 1, 0], &[0, 1, 0, 0]).unwrap();
        assert!((cm.pixel_accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(ConfusionMatrix::new(2).pixel_accuracy(), 0.0);
    }

    #[test]
    fn accumulator_averages_frames() {
        let mut acc = MiouAccumulator::new();
        assert_eq!(acc.average(), 0.0);
        acc.push(MeanIou {
            value: 0.5,
            classes_counted: 2,
        });
        acc.push(MeanIou {
            value: 1.0,
            classes_counted: 3,
        });
        assert!((acc.average() - 0.75).abs() < 1e-12);
        assert_eq!(acc.frames(), 2);
    }
}
