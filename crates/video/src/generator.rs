//! The procedural video generator.
//!
//! A [`VideoGenerator`] produces a strictly temporally ordered sequence of
//! [`Frame`]s: an RGB image tensor plus the per-pixel ground-truth class map
//! used by the oracle teacher. Temporal coherence comes from objects moving
//! smoothly with bounded velocity and the background evolving slowly; it is
//! broken (deliberately) at scene-change events, whose frequency is a scene
//! property — that is what drives the adaptive key-frame scheduler in the
//! experiments.

use crate::classes::SegClass;
use crate::object::MovingObject;
use crate::scene::{SceneKind, VideoCategory};
use crate::Result;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_tensor::{Shape, Tensor, TensorError};

/// One video frame: the RGB image and its ground-truth segmentation.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index in the stream (0-based, strictly increasing).
    pub index: usize,
    /// RGB image, `(1, 3, H, W)`, values in `[0, 1]`.
    pub image: Tensor,
    /// Per-pixel ground-truth class indices, length `H*W`.
    pub ground_truth: Vec<usize>,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl Frame {
    /// Raw (uncompressed) byte size of the frame if shipped as 8-bit RGB,
    /// which is how the naive-offloading baseline and the uplink payload of
    /// Table 4 are sized.
    pub fn raw_rgb_bytes(&self) -> usize {
        3 * self.height * self.width
    }

    /// Quantize the `[0, 1]` float image to the 8-bit RGB bytes a camera
    /// would ship (the uplink representation of Table 4).
    pub fn quantized_rgb(&self) -> Vec<u8> {
        self.image
            .data()
            .iter()
            .map(|v| (v.clamp(0.0, 1.0) * 255.0) as u8)
            .collect()
    }
}

/// The cross-process wire encoding of a frame: what a key-frame upload
/// physically carries when client and pool are separate OS processes.
///
/// Layout: frame index, height, width (u64 LE each), then the 8-bit
/// quantized RGB pixels (`u32` length + `3·H·W` bytes — deliberately lossy,
/// the same video representation the live uplink models), then the
/// per-pixel ground-truth class map (`u32` length + `H·W` bytes, one class
/// id per pixel — the oracle teacher's stand-in for what a real server-side
/// teacher would infer from the pixels). Decoding reconstructs the float
/// image as `byte / 255`.
impl st_net::Wire for Frame {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.index.encode_into(out);
        self.height.encode_into(out);
        self.width.encode_into(out);
        let rgb = self.quantized_rgb();
        (rgb.len() as u32).encode_into(out);
        out.extend_from_slice(&rgb);
        (self.ground_truth.len() as u32).encode_into(out);
        out.extend(self.ground_truth.iter().map(|&c| c as u8));
    }

    fn decode(input: &mut &[u8]) -> std::result::Result<Self, st_net::WireError> {
        let index = usize::decode(input)?;
        let height = usize::decode(input)?;
        let width = usize::decode(input)?;
        let pixels = height
            .checked_mul(width)
            .filter(|&p| p > 0 && p <= (1 << 26))
            .ok_or(st_net::WireError::InvalidValue {
                what: "frame dimensions out of range",
            })?;
        let rgb_len = u32::decode(input)? as usize;
        if rgb_len != 3 * pixels {
            return Err(st_net::WireError::InvalidValue {
                what: "RGB byte count does not match frame dimensions",
            });
        }
        if input.len() < rgb_len {
            return Err(st_net::WireError::Truncated {
                needed: rgb_len,
                available: input.len(),
            });
        }
        let (rgb, rest) = input.split_at(rgb_len);
        *input = rest;
        let values: Vec<f32> = rgb.iter().map(|&b| b as f32 / 255.0).collect();
        let image = Tensor::from_vec(Shape::new(&[1, 3, height, width]), values).map_err(|_| {
            st_net::WireError::InvalidValue {
                what: "frame image tensor rejected",
            }
        })?;
        let gt_len = u32::decode(input)? as usize;
        if gt_len != pixels {
            return Err(st_net::WireError::InvalidValue {
                what: "ground-truth length does not match frame dimensions",
            });
        }
        if input.len() < gt_len {
            return Err(st_net::WireError::Truncated {
                needed: gt_len,
                available: input.len(),
            });
        }
        let (gt, rest) = input.split_at(gt_len);
        *input = rest;
        let mut ground_truth = Vec::with_capacity(pixels);
        for &b in gt {
            let class = b as usize;
            if class >= crate::classes::NUM_CLASSES {
                return Err(st_net::WireError::InvalidValue {
                    what: "ground-truth class id out of range",
                });
            }
            ground_truth.push(class);
        }
        Ok(Frame {
            index,
            image,
            ground_truth,
            height,
            width,
        })
    }

    fn encoded_len(&self) -> usize {
        3 * 8 + 4 + self.raw_rgb_bytes() + 4 + self.height * self.width
    }
}

/// Configuration of a generated video stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoConfig {
    /// Frame width in pixels (must be divisible by 4 for the student).
    pub width: usize,
    /// Frame height in pixels (must be divisible by 4 for the student).
    pub height: usize,
    /// Frames per second of the source video (25–30 in the paper).
    pub fps: f64,
    /// Camera × scene category.
    pub category: VideoCategory,
    /// Number of simultaneously visible objects.
    pub object_count: usize,
    /// Object speed in pixels per frame.
    pub object_speed: f32,
    /// Mean frames between scene-change events (0 disables scene changes).
    pub scene_change_interval: usize,
    /// RNG seed (the whole stream is deterministic given the config).
    pub seed: u64,
}

impl VideoConfig {
    /// A config for a category at the given resolution, using the scene's
    /// typical dynamics scaled to the resolution.
    pub fn for_category(category: VideoCategory, width: usize, height: usize, seed: u64) -> Self {
        let scale = width as f32 / 100.0;
        VideoConfig {
            width,
            height,
            fps: 28.0,
            category,
            object_count: category.scene.typical_object_count(),
            object_speed: category.scene.typical_speed() * scale,
            scene_change_interval: category.scene.scene_change_interval(),
            seed,
        }
    }

    /// Validate resolution constraints.
    pub fn validate(&self) -> Result<()> {
        if self.width == 0 || self.height == 0 {
            return Err(TensorError::InvalidArgument(
                "frame size must be non-zero".into(),
            ));
        }
        if !self.width.is_multiple_of(4) || !self.height.is_multiple_of(4) {
            return Err(TensorError::InvalidArgument(format!(
                "frame size must be divisible by 4, got {}x{}",
                self.width, self.height
            )));
        }
        if self.fps <= 0.0 {
            return Err(TensorError::InvalidArgument("fps must be positive".into()));
        }
        Ok(())
    }
}

/// A deterministic, infinite video stream.
#[derive(Debug)]
pub struct VideoGenerator {
    /// The configuration this stream was built from.
    pub config: VideoConfig,
    rng: StdRng,
    objects: Vec<MovingObject>,
    cam_x: f32,
    cam_y: f32,
    cam_drift_angle: f32,
    background_phase: f32,
    frame_index: usize,
}

impl VideoGenerator {
    /// Create a generator for a configuration.
    pub fn new(config: VideoConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let classes = config.category.scene.object_classes();
        let objects = (0..config.object_count)
            .map(|i| {
                let class = classes[i % classes.len()];
                MovingObject::spawn(
                    class,
                    config.width,
                    config.height,
                    config.object_speed,
                    &mut rng,
                )
            })
            .collect();
        let cam_drift_angle = rng.random::<f32>() * std::f32::consts::TAU;
        Ok(VideoGenerator {
            config,
            rng,
            objects,
            cam_x: 0.0,
            cam_y: 0.0,
            cam_drift_angle,
            background_phase: 0.0,
            frame_index: 0,
        })
    }

    /// Convenience: a generator for a paper category at a given resolution.
    pub fn for_category(
        category: VideoCategory,
        width: usize,
        height: usize,
        seed: u64,
    ) -> Result<Self> {
        VideoGenerator::new(VideoConfig::for_category(category, width, height, seed))
    }

    /// Background colour/texture at a pixel for the current state.
    fn background_pixel(&self, x: f32, y: f32) -> [f32; 3] {
        let base = SegClass::Background.base_color();
        let scene_tint: [f32; 3] = match self.config.category.scene {
            SceneKind::Animals => [0.05, 0.12, 0.02],
            SceneKind::People => [0.08, 0.06, 0.10],
            SceneKind::Street => [0.02, 0.02, 0.05],
        };
        // Slowly varying low-frequency pattern; the camera offset shifts it so
        // a moving camera changes background appearance, which the student
        // must relearn at key frames.
        let gx = (x + self.cam_x) * 0.07;
        let gy = (y + self.cam_y) * 0.05;
        let pattern = 0.5
            + 0.25 * (gx + self.background_phase).sin() * (gy - self.background_phase * 0.7).cos();
        [
            (base[0] + scene_tint[0]) * pattern,
            (base[1] + scene_tint[1]) * pattern,
            (base[2] + scene_tint[2]) * pattern,
        ]
    }

    /// Trigger a scene change: most objects re-spawn and the background phase
    /// jumps, breaking temporal coherence.
    fn scene_change(&mut self) {
        let classes = self.config.category.scene.object_classes();
        let n = self.objects.len();
        for (i, obj) in self.objects.iter_mut().enumerate() {
            // Re-spawn roughly two-thirds of the objects.
            if i * 3 < n * 2 {
                let class = classes[(i + self.frame_index) % classes.len()];
                *obj = MovingObject::spawn(
                    class,
                    self.config.width,
                    self.config.height,
                    self.config.object_speed,
                    &mut self.rng,
                );
            }
        }
        self.background_phase += std::f32::consts::PI * (0.5 + self.rng.random::<f32>());
        self.cam_drift_angle = self.rng.random::<f32>() * std::f32::consts::TAU;
    }

    /// Advance the world by one frame.
    fn step_world(&mut self) {
        let (w, h) = (self.config.width, self.config.height);
        for obj in &mut self.objects {
            obj.step(w, h);
        }
        let cam = self.config.category.camera;
        let scale = w as f32 / 100.0;
        let drift = cam.drift_per_frame() * scale;
        self.cam_x += drift * self.cam_drift_angle.cos();
        self.cam_y += drift * self.cam_drift_angle.sin();
        let jitter = cam.jitter() * scale;
        if jitter > 0.0 {
            self.cam_x += jitter * (self.rng.random::<f32>() - 0.5);
            self.cam_y += jitter * (self.rng.random::<f32>() - 0.5);
        }
        // Slowly rotate the drift direction so moving-camera videos pan around.
        self.cam_drift_angle += 0.01;
        self.background_phase += 0.02;
        if self.config.scene_change_interval > 0
            && self.frame_index > 0
            && self
                .frame_index
                .is_multiple_of(self.config.scene_change_interval)
        {
            self.scene_change();
        }
    }

    /// Render the current world state into a frame.
    fn render(&self) -> Frame {
        let (w, h) = (self.config.width, self.config.height);
        let plane = w * h;
        let mut image = Tensor::zeros(Shape::nchw(1, 3, h, w));
        let mut labels = vec![SegClass::Background.index(); plane];
        {
            let data = image.data_mut();
            // Background.
            for y in 0..h {
                for x in 0..w {
                    let px = self.background_pixel(x as f32, y as f32);
                    let idx = y * w + x;
                    data[idx] = px[0];
                    data[plane + idx] = px[1];
                    data[2 * plane + idx] = px[2];
                }
            }
            // Objects (later objects paint over earlier ones).
            for obj in &self.objects {
                let Some((x0, y0, x1, y1)) = obj.bbox(w, h, self.cam_x, self.cam_y) else {
                    continue;
                };
                let color = obj.class.base_color();
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        if obj.covers(x as f32, y as f32, self.cam_x, self.cam_y) {
                            let t = obj.texture(x as f32, y as f32);
                            let idx = y * w + x;
                            data[idx] = (color[0] * (0.6 + 0.4 * t)).clamp(0.0, 1.0);
                            data[plane + idx] = (color[1] * (0.6 + 0.4 * t)).clamp(0.0, 1.0);
                            data[2 * plane + idx] = (color[2] * (0.6 + 0.4 * t)).clamp(0.0, 1.0);
                            labels[idx] = obj.class.index();
                        }
                    }
                }
            }
        }
        Frame {
            index: self.frame_index,
            image,
            ground_truth: labels,
            height: h,
            width: w,
        }
    }

    /// Produce the next frame.
    pub fn next_frame(&mut self) -> Frame {
        if self.frame_index > 0 {
            self.step_world();
        }
        let frame = self.render();
        self.frame_index += 1;
        frame
    }

    /// Collect the next `n` frames into a vector.
    pub fn take_frames(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

impl Iterator for VideoGenerator {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        Some(self.next_frame())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{CameraMotion, SceneKind};

    fn category() -> VideoCategory {
        VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Animals,
        }
    }

    fn small_config(seed: u64) -> VideoConfig {
        VideoConfig::for_category(category(), 32, 24, seed)
    }

    #[test]
    fn frames_have_consistent_shapes() {
        let mut gen = VideoGenerator::new(small_config(1)).unwrap();
        let f = gen.next_frame();
        assert_eq!(f.image.shape().dims(), &[1, 3, 24, 32]);
        assert_eq!(f.ground_truth.len(), 24 * 32);
        assert!(f.image.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(f.ground_truth.iter().all(|&c| c < crate::NUM_CLASSES));
        assert_eq!(f.raw_rgb_bytes(), 3 * 24 * 32);
    }

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let a: Vec<Frame> = VideoGenerator::new(small_config(7)).unwrap().take_frames(5);
        let b: Vec<Frame> = VideoGenerator::new(small_config(7)).unwrap().take_frames(5);
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.image, fb.image);
            assert_eq!(fa.ground_truth, fb.ground_truth);
        }
        let c: Vec<Frame> = VideoGenerator::new(small_config(8)).unwrap().take_frames(5);
        assert_ne!(a[0].image, c[0].image);
    }

    #[test]
    fn frame_indices_increase() {
        let frames = VideoGenerator::new(small_config(2))
            .unwrap()
            .take_frames(10);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i);
        }
    }

    #[test]
    fn contains_foreground_objects() {
        let mut gen = VideoGenerator::new(small_config(3)).unwrap();
        let f = gen.next_frame();
        let fg = f.ground_truth.iter().filter(|&&c| c != 0).count();
        assert!(fg > 0, "no foreground pixels rendered");
        // Scene is animals: no automobiles or persons.
        assert!(!f.ground_truth.contains(&SegClass::Automobile.index()));
        assert!(!f.ground_truth.contains(&SegClass::Person.index()));
    }

    #[test]
    fn consecutive_frames_are_temporally_coherent() {
        let mut gen = VideoGenerator::new(small_config(4)).unwrap();
        let f0 = gen.next_frame();
        let f1 = gen.next_frame();
        let changed = f0
            .ground_truth
            .iter()
            .zip(f1.ground_truth.iter())
            .filter(|(a, b)| a != b)
            .count();
        // Less than 20% of the labels change between adjacent frames.
        assert!(
            (changed as f64) < 0.2 * f0.ground_truth.len() as f64,
            "adjacent frames differ too much: {changed}"
        );
    }

    #[test]
    fn scene_change_breaks_coherence_more_than_normal_steps() {
        let mut config = small_config(5);
        config.scene_change_interval = 10;
        let mut gen = VideoGenerator::new(config).unwrap();
        let frames = gen.take_frames(15);
        let diff = |a: &Frame, b: &Frame| {
            a.ground_truth
                .iter()
                .zip(b.ground_truth.iter())
                .filter(|(x, y)| x != y)
                .count()
        };
        let normal = diff(&frames[4], &frames[5]);
        let at_change = diff(&frames[9], &frames[10]);
        assert!(
            at_change > normal,
            "scene change ({at_change}) should disturb more pixels than a normal step ({normal})"
        );
    }

    #[test]
    fn street_scenes_move_faster_than_people() {
        let street = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::Street,
        };
        let people = VideoCategory {
            camera: CameraMotion::Fixed,
            scene: SceneKind::People,
        };
        let label_churn = |cat: VideoCategory| {
            let mut gen = VideoGenerator::for_category(cat, 32, 24, 9).unwrap();
            let frames = gen.take_frames(12);
            let mut churn = 0usize;
            for pair in frames.windows(2) {
                churn += pair[0]
                    .ground_truth
                    .iter()
                    .zip(pair[1].ground_truth.iter())
                    .filter(|(a, b)| a != b)
                    .count();
            }
            churn
        };
        assert!(label_churn(street) > label_churn(people));
    }

    #[test]
    fn config_validation() {
        let mut c = small_config(1);
        c.width = 30;
        assert!(VideoGenerator::new(c).is_err());
        let mut c2 = small_config(1);
        c2.fps = 0.0;
        assert!(VideoGenerator::new(c2).is_err());
        let mut c3 = small_config(1);
        c3.height = 0;
        assert!(VideoGenerator::new(c3).is_err());
    }

    #[test]
    fn frame_wire_round_trip_is_quantization_stable() {
        use st_net::Wire;
        let mut generator = VideoGenerator::new(small_config(11)).unwrap();
        let frame = generator.next_frame();
        let encoded = frame.encode();
        assert_eq!(encoded.len(), frame.encoded_len());
        let mut input = &encoded[..];
        let decoded = Frame::decode(&mut input).unwrap();
        assert!(input.is_empty());
        // The wire representation is 8-bit video: the first decode
        // quantizes, after which encode∘decode is the identity.
        assert_eq!(decoded.index, frame.index);
        assert_eq!(decoded.ground_truth, frame.ground_truth);
        assert_eq!(decoded.quantized_rgb(), frame.quantized_rgb());
        let re_encoded = decoded.encode();
        assert_eq!(re_encoded, encoded, "second generation is bit-identical");
        for (a, b) in decoded.image.data().iter().zip(frame.image.data()) {
            assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn frame_wire_rejects_corrupt_class_ids() {
        use st_net::Wire;
        let mut generator = VideoGenerator::new(small_config(12)).unwrap();
        let frame = generator.next_frame();
        let mut encoded = frame.encode();
        // Flip a ground-truth byte (the tail section) to an invalid class.
        let last = encoded.len() - 1;
        encoded[last] = 250;
        let mut input = &encoded[..];
        assert!(matches!(
            Frame::decode(&mut input),
            Err(st_net::WireError::InvalidValue { .. })
        ));
    }
}
