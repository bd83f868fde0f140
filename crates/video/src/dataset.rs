//! Ready-made dataset descriptors mirroring the paper's evaluation videos.
//!
//! Two groups are provided:
//!
//! * [`category_videos`] — one video per paper category (the rows of
//!   Tables 3, 5, 6 and 7).
//! * [`figure4_videos`] — the five named streams of Figure 4 (softball,
//!   figure skating, ice hockey, drone, southbeach), whose distinguishing
//!   property in the paper is their key-frame proportion (softball the
//!   lowest at 1.72 %, southbeach the highest at 12.4 %). Here that property
//!   is induced by choosing the underlying category and dynamics so the
//!   reproduction's adaptive scheduler lands in the same ordering.

use crate::generator::VideoConfig;
use crate::scene::{CameraMotion, SceneKind, VideoCategory};

/// A named video descriptor: a label plus the generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoDescriptor {
    /// Human-readable name used in table/figure output.
    pub name: String,
    /// Generator configuration.
    pub config: VideoConfig,
}

/// Experiment resolution presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// 32×24 — unit tests and smoke runs.
    Tiny,
    /// 64×48 — default accuracy experiments on CPU.
    Small,
    /// 128×96 — slower, higher-fidelity runs.
    Medium,
    /// 1280×720 — the paper's HD resolution (only used for payload sizing,
    /// never for actual CPU training in the default harness).
    PaperHd,
}

impl Resolution {
    /// `(width, height)` in pixels.
    pub fn dims(self) -> (usize, usize) {
        match self {
            Resolution::Tiny => (32, 24),
            Resolution::Small => (64, 48),
            Resolution::Medium => (128, 96),
            Resolution::PaperHd => (1280, 720),
        }
    }
}

/// A fixed-camera stream of `n` pre-generated tiny (32×24) frames for the
/// given scene — the standard fixture the tests and benches build concurrent
/// stream workloads from.
pub fn tiny_stream(scene: SceneKind, seed: u64, n: usize) -> Vec<crate::Frame> {
    let cat = VideoCategory {
        camera: CameraMotion::Fixed,
        scene,
    };
    let (w, h) = Resolution::Tiny.dims();
    let mut gen = crate::VideoGenerator::new(VideoConfig::for_category(cat, w, h, seed))
        .expect("tiny fixture config is valid");
    gen.take_frames(n)
}

/// One video per paper category.
pub fn category_videos(resolution: Resolution, seed: u64) -> Vec<VideoDescriptor> {
    let (w, h) = resolution.dims();
    VideoCategory::paper_categories()
        .into_iter()
        .enumerate()
        .map(|(i, cat)| VideoDescriptor {
            name: cat.label(),
            config: VideoConfig::for_category(cat, w, h, seed.wrapping_add(i as u64 * 101)),
        })
        .collect()
}

/// The five named videos used in Figure 4, ordered from fewest key frames
/// (softball) to most (southbeach).
pub fn figure4_videos(resolution: Resolution, seed: u64) -> Vec<VideoDescriptor> {
    let (w, h) = resolution.dims();
    let scale = w as f32 / 100.0;
    let mk =
        |name: &str, camera, scene, speed_mult: f32, objects: usize, change: usize, off: u64| {
            let cat = VideoCategory { camera, scene };
            let mut config = VideoConfig::for_category(cat, w, h, seed.wrapping_add(off));
            config.object_speed = scene_speed(scene) * speed_mult * scale;
            config.object_count = objects;
            config.scene_change_interval = change;
            VideoDescriptor {
                name: name.to_string(),
                config,
            }
        };
    vec![
        // Fixed camera on a slow people scene: almost nothing changes.
        mk(
            "softball",
            CameraMotion::Fixed,
            SceneKind::People,
            0.5,
            2,
            600,
            1,
        ),
        mk(
            "figure_skating",
            CameraMotion::Moving,
            SceneKind::People,
            0.9,
            2,
            350,
            2,
        ),
        mk(
            "ice_hockey",
            CameraMotion::Moving,
            SceneKind::People,
            1.6,
            4,
            220,
            3,
        ),
        mk(
            "drone",
            CameraMotion::Moving,
            SceneKind::Street,
            1.2,
            5,
            160,
            4,
        ),
        // Street CCTV with many fast objects and frequent content changes.
        mk(
            "southbeach",
            CameraMotion::Fixed,
            SceneKind::Street,
            1.8,
            8,
            80,
            5,
        ),
    ]
}

fn scene_speed(scene: SceneKind) -> f32 {
    scene.typical_speed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_videos_cover_all_seven() {
        let videos = category_videos(Resolution::Tiny, 42);
        assert_eq!(videos.len(), 7);
        let names: std::collections::HashSet<_> = videos.iter().map(|v| v.name.clone()).collect();
        assert_eq!(names.len(), 7);
        for v in &videos {
            assert!(v.config.validate().is_ok());
        }
    }

    #[test]
    fn figure4_videos_have_increasing_dynamics() {
        let videos = figure4_videos(Resolution::Tiny, 42);
        assert_eq!(videos.len(), 5);
        assert_eq!(videos[0].name, "softball");
        assert_eq!(videos[4].name, "southbeach");
        // Southbeach must be strictly more dynamic than softball on every axis
        // that drives key-frame frequency.
        let soft = &videos[0].config;
        let south = &videos[4].config;
        assert!(south.object_speed > soft.object_speed);
        assert!(south.object_count > soft.object_count);
        assert!(south.scene_change_interval < soft.scene_change_interval);
    }

    #[test]
    fn resolutions_are_student_compatible() {
        for r in [
            Resolution::Tiny,
            Resolution::Small,
            Resolution::Medium,
            Resolution::PaperHd,
        ] {
            let (w, h) = r.dims();
            assert_eq!(w % 4, 0);
            assert_eq!(h % 4, 0);
        }
    }

    #[test]
    fn seeds_differ_across_categories() {
        let videos = category_videos(Resolution::Tiny, 1);
        let seeds: std::collections::HashSet<_> = videos.iter().map(|v| v.config.seed).collect();
        assert_eq!(seeds.len(), videos.len());
    }
}
