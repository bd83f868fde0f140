//! Latency profiles: the per-component timing table of the paper (Table 1 /
//! §5.3) plus the client-concurrency assumption of §4.4.

/// Whether the modelled client can overlap student inference with network
/// transfers and teacher-side work.
///
/// Section 4.4 derives the execution time of the `MIN_STRIDE` frames after a
/// key frame as lying between `max(MIN_STRIDE·t_si, t_net + t_ti)` (full
/// overlap) and `MIN_STRIDE·t_si + t_net + t_ti` (no overlap). The runtime
/// takes this as an explicit parameter so both bounds — and anything in
/// between via [`Concurrency::Partial`] — can be simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Concurrency {
    /// The client cannot overlap anything (the paper's lower-bound case).
    None,
    /// The client overlaps a fraction `overlap` (in `[0, 1]`) of the
    /// key-frame round trip with its own inference work.
    Partial {
        /// Fraction of the round trip hidden behind client inference.
        overlap: f64,
    },
    /// The client fully overlaps inference with network/teacher work
    /// (the paper's upper-bound case; the Jetson Nano in practice is close
    /// to this thanks to asynchronous MPI receives).
    Full,
}

impl Concurrency {
    /// Execution time of the `min_stride` frames following a key frame,
    /// given the client inference latency, and the key-frame round-trip time
    /// (network + teacher + distillation), i.e. `t_c` of §4.4.
    pub fn t_c(&self, min_stride: usize, t_si: f64, round_trip: f64) -> f64 {
        let inference = min_stride as f64 * t_si;
        match self {
            Concurrency::None => inference + round_trip,
            Concurrency::Full => inference.max(round_trip),
            Concurrency::Partial { overlap } => {
                let o = overlap.clamp(0.0, 1.0);
                let full = inference.max(round_trip);
                let none = inference + round_trip;
                none + (full - none) * o
            }
        }
    }
}

/// Per-component latencies in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Student inference latency on the client, `t_si`.
    pub student_inference: f64,
    /// One partial-distillation step on the server, `t_sd` (partial).
    pub distill_step_partial: f64,
    /// One full-distillation step on the server, `t_sd` (full).
    pub distill_step_full: f64,
    /// Teacher inference on the server, `t_ti`.
    pub teacher_inference: f64,
}

impl LatencyProfile {
    /// The paper's measured latencies (§5.3 and Table 2): `t_si` = 143 ms,
    /// `t_sd` = 13 ms (partial) / 18 ms (full), `t_ti` = 44 ms.
    pub fn paper() -> Self {
        LatencyProfile {
            student_inference: 0.143,
            distill_step_partial: 0.013,
            distill_step_full: 0.018,
            teacher_inference: 0.044,
        }
    }

    /// A profile scaled uniformly by `factor` (useful for what-if analyses,
    /// e.g. a quantized student that is 2× faster).
    pub fn scaled(&self, factor: f64) -> Self {
        LatencyProfile {
            student_inference: self.student_inference * factor,
            distill_step_partial: self.distill_step_partial * factor,
            distill_step_full: self.distill_step_full * factor,
            teacher_inference: self.teacher_inference * factor,
        }
    }

    /// The distillation-step latency for the given mode.
    pub fn distill_step(&self, partial: bool) -> f64 {
        if partial {
            self.distill_step_partial
        } else {
            self.distill_step_full
        }
    }
}

impl Default for LatencyProfile {
    fn default() -> Self {
        LatencyProfile::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_values() {
        let p = LatencyProfile::paper();
        assert!((p.student_inference - 0.143).abs() < 1e-12);
        assert!((p.distill_step(true) - 0.013).abs() < 1e-12);
        assert!((p.distill_step(false) - 0.018).abs() < 1e-12);
        assert!((p.teacher_inference - 0.044).abs() < 1e-12);
        assert_eq!(LatencyProfile::default(), p);
    }

    #[test]
    fn scaling() {
        let p = LatencyProfile::paper().scaled(0.5);
        assert!((p.student_inference - 0.0715).abs() < 1e-9);
        assert!((p.teacher_inference - 0.022).abs() < 1e-9);
    }

    #[test]
    fn concurrency_bounds_ordering() {
        // t_c(None) >= t_c(Partial) >= t_c(Full), and they bracket per §4.4.
        let (stride, t_si, rt) = (8, 0.143, 0.347);
        let none = Concurrency::None.t_c(stride, t_si, rt);
        let half = Concurrency::Partial { overlap: 0.5 }.t_c(stride, t_si, rt);
        let full = Concurrency::Full.t_c(stride, t_si, rt);
        assert!((none - (8.0 * 0.143 + 0.347)).abs() < 1e-9);
        assert!((full - (8.0f64 * 0.143).max(0.347)).abs() < 1e-9);
        assert!(none >= half && half >= full);
    }

    #[test]
    fn full_concurrency_hides_short_round_trips() {
        // When the round trip is shorter than MIN_STRIDE student inferences,
        // full concurrency hides it completely (§6.4's key observation).
        let t = Concurrency::Full.t_c(8, 0.143, 0.4);
        assert!((t - 8.0 * 0.143).abs() < 1e-9);
        // When the round trip dominates, it becomes the bottleneck.
        let t2 = Concurrency::Full.t_c(8, 0.143, 3.0);
        assert!((t2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_clamps() {
        let a = Concurrency::Partial { overlap: -1.0 }.t_c(4, 0.1, 0.2);
        let b = Concurrency::None.t_c(4, 0.1, 0.2);
        assert!((a - b).abs() < 1e-12);
        let c = Concurrency::Partial { overlap: 2.0 }.t_c(4, 0.1, 0.2);
        let d = Concurrency::Full.t_c(4, 0.1, 0.2);
        assert!((c - d).abs() < 1e-12);
    }
}
