//! Algorithm parameters and the paper's constants.

use st_nn::student::FreezePoint;

/// Whether distillation trains the whole student or only its back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistillationMode {
    /// Partial distillation (§4.2): the front of the student is frozen; only
    /// the decoder/head is trained, and only those weights cross the network.
    Partial,
    /// Full distillation: every parameter is trained and transmitted
    /// (the paper's comparison baseline).
    Full,
}

impl DistillationMode {
    /// The freeze point a student should use under this mode.
    pub fn freeze_point(self) -> FreezePoint {
        match self {
            DistillationMode::Partial => FreezePoint::paper_partial(),
            DistillationMode::Full => FreezePoint::None,
        }
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            DistillationMode::Partial => "partial",
            DistillationMode::Full => "full",
        }
    }
}

/// Field-by-field little-endian encoding in declaration order, with the
/// distillation mode as a tagged byte (0 = partial, 1 = full) so a peer
/// process can reconstruct the exact algorithm parameters of a run.
impl st_net::Wire for ShadowTutorConfig {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.threshold.encode_into(out);
        self.min_stride.encode_into(out);
        self.max_stride.encode_into(out);
        self.max_updates.encode_into(out);
        out.push(match self.mode {
            DistillationMode::Partial => 0,
            DistillationMode::Full => 1,
        });
        self.learning_rate.encode_into(out);
        self.loss_weight_radius.encode_into(out);
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, st_net::WireError> {
        Ok(ShadowTutorConfig {
            threshold: f64::decode(input)?,
            min_stride: usize::decode(input)?,
            max_stride: usize::decode(input)?,
            max_updates: usize::decode(input)?,
            mode: match u8::decode(input)? {
                0 => DistillationMode::Partial,
                1 => DistillationMode::Full,
                tag => {
                    return Err(st_net::WireError::UnknownVariant {
                        type_name: "DistillationMode",
                        tag,
                    })
                }
            },
            learning_rate: f32::decode(input)?,
            loss_weight_radius: usize::decode(input)?,
        })
    }

    fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 8 + 1 + 4 + 8
    }
}

/// The ShadowTutor algorithm parameters (§5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowTutorConfig {
    /// Acceptable student metric (mean IoU); training stops early once the
    /// key-frame metric exceeds it and striding lengthens beyond it.
    pub threshold: f64,
    /// Minimum key-frame stride (frames).
    pub min_stride: usize,
    /// Maximum key-frame stride (frames).
    pub max_stride: usize,
    /// Maximum optimization steps per key frame.
    pub max_updates: usize,
    /// Partial or full distillation.
    pub mode: DistillationMode,
    /// Adam learning rate used for distillation.
    pub learning_rate: f32,
    /// Dilation radius (pixels) for the object loss weighting.
    pub loss_weight_radius: usize,
}

impl ShadowTutorConfig {
    /// The paper's configuration: THRESHOLD = 0.8, MIN_STRIDE = 8,
    /// MAX_STRIDE = 64, MAX_UPDATES = 8, Adam lr = 0.01, partial distillation.
    pub fn paper() -> Self {
        ShadowTutorConfig {
            threshold: 0.8,
            min_stride: 8,
            max_stride: 64,
            max_updates: 8,
            mode: DistillationMode::Partial,
            learning_rate: 0.01,
            loss_weight_radius: 2,
        }
    }

    /// The paper's configuration but with full distillation.
    pub fn paper_full() -> Self {
        ShadowTutorConfig {
            mode: DistillationMode::Full,
            ..Self::paper()
        }
    }

    /// Validate parameter consistency.
    pub fn validate(&self) -> crate::Result<()> {
        use st_tensor::TensorError;
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(TensorError::InvalidArgument(format!(
                "threshold must be in [0,1], got {}",
                self.threshold
            )));
        }
        if self.min_stride == 0 || self.max_stride < self.min_stride {
            return Err(TensorError::InvalidArgument(format!(
                "invalid stride range [{}, {}]",
                self.min_stride, self.max_stride
            )));
        }
        if self.learning_rate <= 0.0 {
            return Err(TensorError::InvalidArgument(
                "learning rate must be positive".into(),
            ));
        }
        Ok(())
    }
}

impl Default for ShadowTutorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Constants the paper measured on its testbed, collected in one place so
/// benches and analytic checks can reference them explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperConstants {
    /// Uplink payload per key frame: one 720p frame (MB).
    pub frame_mb: f64,
    /// Downlink payload per key frame under partial distillation (MB).
    pub partial_update_mb: f64,
    /// Downlink payload per key frame under full distillation (MB).
    pub full_update_mb: f64,
    /// Downlink payload per frame under naive offloading (MB).
    pub naive_prediction_mb: f64,
    /// Network latency of one key-frame exchange (s).
    pub t_net: f64,
    /// Teacher parameter count.
    pub teacher_params: usize,
    /// Student parameter count.
    pub student_params: usize,
    /// Fraction of student parameters trained under partial distillation.
    pub trainable_fraction: f64,
    /// Wi-Fi bandwidth assumed in the main experiments (Mbps).
    pub bandwidth_mbps: f64,
    /// Frames evaluated per video stream.
    pub frames_per_video: usize,
}

impl PaperConstants {
    /// Values reported in §5 and §6 of the paper.
    pub fn reported() -> Self {
        PaperConstants {
            frame_mb: 2.637,
            partial_update_mb: 0.395,
            full_update_mb: 1.846,
            naive_prediction_mb: 0.879,
            t_net: 0.303,
            teacher_params: 44_340_000,
            student_params: 480_000,
            trainable_fraction: 0.214,
            bandwidth_mbps: 80.0,
            frames_per_video: 5000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ShadowTutorConfig::paper();
        assert_eq!(c.threshold, 0.8);
        assert_eq!(c.min_stride, 8);
        assert_eq!(c.max_stride, 64);
        assert_eq!(c.max_updates, 8);
        assert_eq!(c.mode, DistillationMode::Partial);
        assert!(c.validate().is_ok());
        assert_eq!(ShadowTutorConfig::default(), c);
        assert_eq!(ShadowTutorConfig::paper_full().mode, DistillationMode::Full);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut c = ShadowTutorConfig::paper();
        c.threshold = 1.5;
        assert!(c.validate().is_err());
        let mut c2 = ShadowTutorConfig::paper();
        c2.max_stride = 4;
        assert!(c2.validate().is_err());
        let mut c3 = ShadowTutorConfig::paper();
        c3.min_stride = 0;
        assert!(c3.validate().is_err());
        let mut c4 = ShadowTutorConfig::paper();
        c4.learning_rate = 0.0;
        assert!(c4.validate().is_err());
    }

    #[test]
    fn mode_maps_to_freeze_point() {
        assert_eq!(DistillationMode::Full.freeze_point(), FreezePoint::None);
        assert_ne!(DistillationMode::Partial.freeze_point(), FreezePoint::None);
        assert_eq!(DistillationMode::Partial.label(), "partial");
    }

    #[test]
    fn paper_constants_consistency() {
        let p = PaperConstants::reported();
        // Teacher is ~100x the student (§5.2).
        let ratio = p.teacher_params as f64 / p.student_params as f64;
        assert!(ratio > 80.0 && ratio < 120.0);
        // Partial payload is much smaller than full payload.
        assert!(p.partial_update_mb < p.full_update_mb / 3.0);
    }
}
