//! Shared workload builders for the table/figure reproductions.

use shadowtutor::baseline::{run_naive, run_wild};
use shadowtutor::config::{DistillationMode, PaperConstants};
use shadowtutor::pretrain::{pretrain_student, PretrainConfig};
use shadowtutor::runtime::sim::{DelayModel, SimRuntime};
use shadowtutor::ExperimentRecord;
use st_net::LinkModel;
use st_nn::student::{StudentConfig, StudentNet};
use st_sim::LatencyProfile;
use st_teacher::OracleTeacher;
use st_video::dataset::{category_videos, figure4_videos, Resolution, VideoDescriptor};
use st_video::resample::Resampler;
use st_video::VideoGenerator;

/// How large an experiment to run.
///
/// Every scale runs the *same code paths*; only frame counts, resolution and
/// student width change, and the live-pool tables' ladders grow with it.
/// `Smoke` is what CI runs; `Default` is the scale the README and the
/// committed `BENCH_*.json` files report; `Extended` approaches the paper's
/// 5000-frame streams (slow on a laptop CPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// ~100 frames per stream at 32×24 with the tiny student.
    Smoke,
    /// ~300 frames per stream at 32×24 with the tiny student.
    Default,
    /// ~1000 frames per stream at 64×48 with the small student.
    Extended,
}

impl ExperimentScale {
    /// Frames processed per video stream.
    pub fn frames(self) -> usize {
        match self {
            ExperimentScale::Smoke => 96,
            ExperimentScale::Default => 288,
            ExperimentScale::Extended => 1000,
        }
    }

    /// Video resolution.
    pub fn resolution(self) -> Resolution {
        match self {
            ExperimentScale::Smoke | ExperimentScale::Default => Resolution::Tiny,
            ExperimentScale::Extended => Resolution::Small,
        }
    }

    /// Student width configuration.
    pub fn student_config(self) -> StudentConfig {
        match self {
            ExperimentScale::Smoke | ExperimentScale::Default => StudentConfig::tiny(),
            ExperimentScale::Extended => StudentConfig::small(),
        }
    }

    /// Pre-training configuration ("public education").
    pub fn pretrain_config(self) -> PretrainConfig {
        match self {
            ExperimentScale::Smoke => PretrainConfig {
                steps: 30,
                resolution: Resolution::Tiny,
                ..PretrainConfig::quick()
            },
            ExperimentScale::Default => PretrainConfig {
                steps: 90,
                resolution: Resolution::Tiny,
                ..PretrainConfig::quick()
            },
            ExperimentScale::Extended => PretrainConfig::standard(),
        }
    }

    /// Parse from a CLI string.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "smoke" => Some(ExperimentScale::Smoke),
            "default" => Some(ExperimentScale::Default),
            "extended" => Some(ExperimentScale::Extended),
            _ => None,
        }
    }
}

/// System variants compared across the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// ShadowTutor with partial distillation and an `n`-frame update delay.
    Partial {
        /// Frames between the key frame and the update application.
        delay: usize,
    },
    /// ShadowTutor with full distillation and an `n`-frame update delay.
    Full {
        /// Frames between the key frame and the update application.
        delay: usize,
    },
    /// The pre-trained student with no server contact.
    Wild,
    /// Naive offloading of every frame.
    Naive,
}

impl Variant {
    /// Column label used in tables.
    pub fn label(self) -> String {
        match self {
            Variant::Partial { delay } => format!("P-{delay}"),
            Variant::Full { delay } => format!("F-{delay}"),
            Variant::Wild => "Wild".to_string(),
            Variant::Naive => "Naive".to_string(),
        }
    }
}

/// Everything shared by the table reproductions: the pre-trained student
/// checkpoint, the category descriptors, and memoised experiment runs.
pub struct SharedSetup {
    /// Scale the setup was built at.
    pub scale: ExperimentScale,
    /// The "publicly educated" student checkpoint every run starts from.
    pub checkpoint: StudentNet,
    /// One video descriptor per paper category.
    pub categories: Vec<VideoDescriptor>,
    /// The named Figure-4 videos.
    pub figure4: Vec<VideoDescriptor>,
    /// The paper's reported constants (payload sizes, latencies).
    pub paper: PaperConstants,
    /// Latency profile used for every virtual clock.
    pub latency: LatencyProfile,
    /// Link model used for the main experiments (80 Mbps).
    pub link: LinkModel,
}

impl SharedSetup {
    /// Build the shared setup: pre-train the student and enumerate videos.
    pub fn new(scale: ExperimentScale) -> Self {
        let (checkpoint, _report) =
            pretrain_student(scale.student_config(), &scale.pretrain_config())
                .expect("pre-training the student checkpoint");
        SharedSetup {
            scale,
            checkpoint,
            categories: category_videos(scale.resolution(), 7_000),
            figure4: figure4_videos(scale.resolution(), 9_000),
            paper: PaperConstants::reported(),
            latency: LatencyProfile::paper(),
            link: LinkModel::paper_default(),
        }
    }

    /// Paper-scale payload sizes `(frame_bytes, update_bytes)` for a
    /// distillation mode: a 720p RGB frame uplink and the measured update
    /// downlink (0.395 MB partial / 1.846 MB full).
    pub fn paper_payload(&self, mode: DistillationMode) -> (usize, usize) {
        let frame = (self.paper.frame_mb * 1e6) as usize;
        let update = match mode {
            DistillationMode::Partial => (self.paper.partial_update_mb * 1e6) as usize,
            DistillationMode::Full => (self.paper.full_update_mb * 1e6) as usize,
        };
        (frame, update)
    }

    /// Run one ShadowTutor variant over one video descriptor.
    pub fn run_variant(&self, descriptor: &VideoDescriptor, variant: Variant) -> ExperimentRecord {
        let frames = self.scale.frames();
        let teacher = OracleTeacher::perfect(descriptor.config.seed ^ 0x5151);
        match variant {
            Variant::Partial { delay } | Variant::Full { delay } => {
                let mode = if matches!(variant, Variant::Partial { .. }) {
                    DistillationMode::Partial
                } else {
                    DistillationMode::Full
                };
                let runtime = SimRuntime::paper(mode)
                    .with_delay_model(DelayModel::Frames(delay))
                    .with_link(self.link);
                let mut video =
                    VideoGenerator::new(descriptor.config).expect("valid descriptor config");
                runtime
                    .run(
                        &descriptor.name,
                        &mut video,
                        frames,
                        self.checkpoint.clone(),
                        teacher,
                    )
                    .expect("sim run")
            }
            Variant::Wild => {
                let mut video =
                    VideoGenerator::new(descriptor.config).expect("valid descriptor config");
                run_wild(
                    &descriptor.name,
                    &mut video,
                    frames,
                    &self.checkpoint,
                    teacher,
                    &self.latency,
                )
                .expect("wild run")
            }
            Variant::Naive => {
                let mut video =
                    VideoGenerator::new(descriptor.config).expect("valid descriptor config");
                run_naive(
                    &descriptor.name,
                    &mut video,
                    frames,
                    teacher,
                    &self.latency,
                    &self.link,
                )
                .expect("naive run")
            }
        }
    }

    /// Run one variant over a 7-FPS resampled version of a descriptor
    /// (the §6.5 real-time experiment).
    pub fn run_resampled(
        &self,
        descriptor: &VideoDescriptor,
        variant: Variant,
    ) -> ExperimentRecord {
        let frames = self.scale.frames();
        let teacher = OracleTeacher::perfect(descriptor.config.seed ^ 0x7171);
        let source = VideoGenerator::new(descriptor.config).expect("valid descriptor config");
        let mut video = Resampler::to_fps(source, descriptor.config.fps, 7.0).expect("resampler");
        match variant {
            Variant::Partial { delay } | Variant::Full { delay } => {
                let mode = if matches!(variant, Variant::Partial { .. }) {
                    DistillationMode::Partial
                } else {
                    DistillationMode::Full
                };
                let runtime = SimRuntime::paper(mode)
                    .with_delay_model(DelayModel::Frames(delay))
                    .with_link(self.link);
                runtime
                    .run(
                        &descriptor.name,
                        &mut video,
                        frames,
                        self.checkpoint.clone(),
                        teacher,
                    )
                    .expect("resampled sim run")
            }
            Variant::Wild => run_wild(
                &descriptor.name,
                &mut video,
                frames,
                &self.checkpoint,
                teacher,
                &self.latency,
            )
            .expect("resampled wild run"),
            Variant::Naive => run_naive(
                &descriptor.name,
                &mut video,
                frames,
                teacher,
                &self.latency,
                &self.link,
            )
            .expect("resampled naive run"),
        }
    }

    /// Run every paper category under a variant.
    pub fn run_all_categories(&self, variant: Variant) -> Vec<ExperimentRecord> {
        self.categories
            .iter()
            .map(|d| self.run_variant(d, variant))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_sizes() {
        assert_eq!(
            ExperimentScale::parse("smoke"),
            Some(ExperimentScale::Smoke)
        );
        assert_eq!(
            ExperimentScale::parse("default"),
            Some(ExperimentScale::Default)
        );
        assert_eq!(
            ExperimentScale::parse("extended"),
            Some(ExperimentScale::Extended)
        );
        assert_eq!(ExperimentScale::parse("bogus"), None);
        assert!(ExperimentScale::Extended.frames() > ExperimentScale::Smoke.frames());
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Partial { delay: 1 }.label(), "P-1");
        assert_eq!(Variant::Full { delay: 8 }.label(), "F-8");
        assert_eq!(Variant::Wild.label(), "Wild");
        assert_eq!(Variant::Naive.label(), "Naive");
    }

    #[test]
    fn paper_payload_sizes_differ_by_mode() {
        let setup = SharedSetup::new(ExperimentScale::Smoke);
        let (frame_p, update_p) = setup.paper_payload(DistillationMode::Partial);
        let (frame_f, update_f) = setup.paper_payload(DistillationMode::Full);
        assert_eq!(frame_p, frame_f);
        assert!(update_p < update_f);
        assert_eq!(setup.categories.len(), 7);
        assert_eq!(setup.figure4.len(), 5);
    }
}
