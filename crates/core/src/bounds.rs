//! Closed-form network-traffic and throughput bounds (§4.4).
//!
//! The paper models the total execution time of a video stream in terms of
//! the component latencies of Table 1 and derives lower/upper bounds for
//! network traffic (equations 8 and 12) and throughput (equations 14 and 15).
//! These bounds only involve algorithm parameters, latency measurements and
//! message sizes, so they can be computed before running the system; §5.3
//! uses them to choose `MAX_UPDATES` and §6.2/§6.4 validate that measured
//! values stay inside them. This module reproduces the formulae and the
//! parameter-selection procedure.

use crate::config::ShadowTutorConfig;
use st_sim::LatencyProfile;

/// Inputs to the §4.4 bound formulae.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundInputs {
    /// Student inference latency `t_si` (s).
    pub t_si: f64,
    /// One distillation step `t_sd` (s).
    pub t_sd: f64,
    /// Teacher inference latency `t_ti` (s).
    pub t_ti: f64,
    /// Network latency of one key-frame exchange `t_net` (s).
    pub t_net: f64,
    /// Data transferred per key frame `s_net` (bytes).
    pub s_net: usize,
}

impl BoundInputs {
    /// Build from a latency profile, a network round-trip time and a
    /// per-key-frame payload size.
    pub fn new(profile: &LatencyProfile, partial: bool, t_net: f64, s_net: usize) -> Self {
        BoundInputs {
            t_si: profile.student_inference,
            t_sd: profile.distill_step(partial),
            t_ti: profile.teacher_inference,
            t_net,
            s_net,
        }
    }

    /// The paper's measured inputs (§5.3): `t_si` = 0.143, `t_sd` = 0.013,
    /// `t_ti` = 0.044, `t_net` = 0.303, `s_net` ≈ 3.032 MB.
    pub fn paper() -> Self {
        BoundInputs {
            t_si: 0.143,
            t_sd: 0.013,
            t_ti: 0.044,
            t_net: 0.303,
            s_net: 3_032_000,
        }
    }
}

/// Network-traffic bounds in bits per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficBounds {
    /// Equation 8: the lower bound (key frames as sparse as possible, no
    /// client concurrency, maximum distillation).
    pub lower_bps: f64,
    /// Equation 12: the upper bound (key frames as dense as possible, zero
    /// distillation steps, full client concurrency).
    pub upper_bps: f64,
}

impl TrafficBounds {
    /// Lower bound in Mbps.
    pub fn lower_mbps(&self) -> f64 {
        self.lower_bps / 1e6
    }

    /// Upper bound in Mbps.
    pub fn upper_mbps(&self) -> f64 {
        self.upper_bps / 1e6
    }

    /// Whether a measured traffic value (Mbps) lies within the bounds.
    pub fn contains_mbps(&self, mbps: f64) -> bool {
        mbps >= self.lower_mbps() - 1e-9 && mbps <= self.upper_mbps() + 1e-9
    }
}

/// Throughput bounds in frames per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputBounds {
    /// Equation 14: the lower bound.
    pub lower_fps: f64,
    /// Equation 15: the upper bound.
    pub upper_fps: f64,
}

impl ThroughputBounds {
    /// Whether a measured throughput (FPS) lies within the bounds.
    pub fn contains_fps(&self, fps: f64) -> bool {
        fps >= self.lower_fps - 1e-9 && fps <= self.upper_fps + 1e-9
    }
}

/// Network traffic lower/upper bounds (equations 8 and 12).
pub fn traffic_bounds(config: &ShadowTutorConfig, inputs: &BoundInputs) -> TrafficBounds {
    let bits = inputs.s_net as f64 * 8.0;
    let lower_denom = config.max_stride as f64 * inputs.t_si
        + config.max_updates as f64 * inputs.t_sd
        + inputs.t_ti
        + inputs.t_net;
    let upper_denom = (config.min_stride as f64 * inputs.t_si).max(inputs.t_net + inputs.t_ti);
    TrafficBounds {
        lower_bps: bits / lower_denom,
        upper_bps: bits / upper_denom,
    }
}

/// Throughput lower/upper bounds (equations 14 and 15).
pub fn throughput_bounds(config: &ShadowTutorConfig, inputs: &BoundInputs) -> ThroughputBounds {
    let min_s = config.min_stride as f64;
    let max_s = config.max_stride as f64;
    let lower = min_s
        / (min_s * inputs.t_si
            + config.max_updates as f64 * inputs.t_sd
            + inputs.t_ti
            + inputs.t_net);
    let upper = max_s
        / ((max_s - min_s) * inputs.t_si + (min_s * inputs.t_si).max(inputs.t_net + inputs.t_ti));
    ThroughputBounds {
        lower_fps: lower,
        upper_fps: upper,
    }
}

/// The §5.3 parameter-selection procedure: the largest `MAX_UPDATES` whose
/// throughput lower bound stays above `min_fps`.
pub fn choose_max_updates(
    config: &ShadowTutorConfig,
    inputs: &BoundInputs,
    min_fps: f64,
    search_limit: usize,
) -> Option<usize> {
    (1..=search_limit).rev().find(|&max_updates| {
        let candidate = ShadowTutorConfig {
            max_updates,
            ..*config
        };
        throughput_bounds(&candidate, inputs).lower_fps > min_fps
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_throughput_bounds_match_section_5_3() {
        // §5.3: with the measured latencies the maximum throughput is 6.99
        // FPS, and MAX_UPDATES = 8 keeps the lower bound above 5 FPS.
        let config = ShadowTutorConfig::paper();
        let inputs = BoundInputs::paper();
        let bounds = throughput_bounds(&config, &inputs);
        assert!(
            (bounds.upper_fps - 6.99).abs() < 0.05,
            "upper {}",
            bounds.upper_fps
        );
        assert!(bounds.lower_fps > 5.0, "lower {}", bounds.lower_fps);
        assert!(bounds.lower_fps < bounds.upper_fps);
    }

    #[test]
    // 3.14 below is a Table 5 measurement in Mbps, not an approximation of pi.
    #[allow(clippy::approx_constant)]
    fn paper_traffic_bounds_match_section_6_2() {
        // §6.2: traffic bounds of 2.53 Mbps and 21.2 Mbps.
        let config = ShadowTutorConfig::paper();
        let inputs = BoundInputs::paper();
        let bounds = traffic_bounds(&config, &inputs);
        assert!(
            (bounds.lower_mbps() - 2.53).abs() < 0.1,
            "lower {}",
            bounds.lower_mbps()
        );
        assert!(
            (bounds.upper_mbps() - 21.2).abs() < 0.8,
            "upper {}",
            bounds.upper_mbps()
        );
        // The paper's measured averages (Table 5) lie inside.
        for measured in [7.51, 3.14, 12.27, 4.06, 5.51, 18.19, 8.70, 6.19] {
            assert!(bounds.contains_mbps(measured), "{measured} outside bounds");
        }
    }

    #[test]
    fn max_updates_selection_reproduces_paper_choice() {
        // §5.3: the largest MAX_UPDATES keeping the lower bound above 5 FPS is 8.
        let config = ShadowTutorConfig::paper();
        let inputs = BoundInputs::paper();
        assert_eq!(choose_max_updates(&config, &inputs, 5.0, 64), Some(8));
    }

    #[test]
    fn bounds_shift_sensibly_with_network_latency() {
        let config = ShadowTutorConfig::paper();
        let fast = BoundInputs {
            t_net: 0.05,
            ..BoundInputs::paper()
        };
        let slow = BoundInputs {
            t_net: 3.0,
            ..BoundInputs::paper()
        };
        let tp_fast = throughput_bounds(&config, &fast);
        let tp_slow = throughput_bounds(&config, &slow);
        assert!(tp_fast.lower_fps > tp_slow.lower_fps);
        assert!(tp_fast.upper_fps >= tp_slow.upper_fps);
        let tr_fast = traffic_bounds(&config, &fast);
        let tr_slow = traffic_bounds(&config, &slow);
        assert!(tr_fast.upper_bps > tr_slow.upper_bps);
    }

    #[test]
    fn lower_bounds_never_exceed_upper_bounds() {
        let config = ShadowTutorConfig::paper();
        for t_net in [0.01, 0.1, 0.3, 1.0, 5.0] {
            for s_net in [100_000usize, 1_000_000, 5_000_000] {
                let inputs = BoundInputs {
                    t_net,
                    s_net,
                    ..BoundInputs::paper()
                };
                let tp = throughput_bounds(&config, &inputs);
                assert!(tp.lower_fps <= tp.upper_fps + 1e-12);
                let tr = traffic_bounds(&config, &inputs);
                assert!(tr.lower_bps <= tr.upper_bps + 1e-12);
            }
        }
    }

    #[test]
    fn bound_inputs_from_profile() {
        let prof = LatencyProfile::paper();
        let inputs = BoundInputs::new(&prof, true, 0.3, 3_000_000);
        assert_eq!(inputs.t_sd, prof.distill_step_partial);
        let inputs_full = BoundInputs::new(&prof, false, 0.3, 3_000_000);
        assert!(inputs_full.t_sd > inputs.t_sd);
    }

    #[test]
    fn containment_helpers() {
        let tb = ThroughputBounds {
            lower_fps: 2.0,
            upper_fps: 7.0,
        };
        assert!(tb.contains_fps(5.0));
        assert!(!tb.contains_fps(1.0));
        assert!(!tb.contains_fps(8.0));
    }
}
