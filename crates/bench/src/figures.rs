//! Figure reproductions (Figure 4 of the paper).

use crate::tables::naive_paper_fps;
use crate::workloads::{SharedSetup, Variant};
use shadowtutor::bounds::{throughput_bounds, BoundInputs};
use shadowtutor::config::{DistillationMode, ShadowTutorConfig};
use st_net::LinkModel;
use st_sim::Concurrency;

/// The bandwidth sweep of Figure 4 (Mbps values from the paper's x-axis).
pub const FIGURE4_BANDWIDTHS_MBPS: [f64; 7] = [8.0, 12.0, 20.0, 40.0, 60.0, 80.0, 90.0];

/// One series of Figure 4: a video (or the naive baseline) and its
/// throughput at each bandwidth.
#[derive(Debug, Clone)]
pub struct Figure4Series {
    /// Series label (video name, `"naive"`, or the bound names).
    pub label: String,
    /// Throughput (FPS) at each entry of [`FIGURE4_BANDWIDTHS_MBPS`].
    pub fps: Vec<f64>,
}

/// The complete Figure 4 data: per-video series, the naive baseline, and the
/// analytic throughput bound band.
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// Bandwidths on the x-axis (Mbps).
    pub bandwidths_mbps: Vec<f64>,
    /// One series per named video plus the naive baseline.
    pub series: Vec<Figure4Series>,
    /// Lower throughput bound at each bandwidth (grey band in the paper).
    pub bound_lower: Vec<f64>,
    /// Upper throughput bound at each bandwidth.
    pub bound_upper: Vec<f64>,
}

impl Figure4 {
    /// Render as an aligned text table (one row per bandwidth).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 4: network bandwidth (Mbps) vs system throughput (FPS), paper-scale replay\n",
        );
        let mut header = vec![format!("{:>6}", "Mbps")];
        for s in &self.series {
            header.push(format!("{:>15}", s.label));
        }
        header.push(format!("{:>10}", "bound-lo"));
        header.push(format!("{:>10}", "bound-hi"));
        out.push_str(&header.join(" "));
        out.push('\n');
        for (i, bw) in self.bandwidths_mbps.iter().enumerate() {
            let mut row = vec![format!("{bw:>6.0}")];
            for s in &self.series {
                row.push(format!("{:>15.2}", s.fps[i]));
            }
            row.push(format!("{:>10.2}", self.bound_lower[i]));
            row.push(format!("{:>10.2}", self.bound_upper[i]));
            out.push_str(&row.join(" "));
            out.push('\n');
        }
        out
    }
}

/// Reproduce Figure 4: run each named video once (collecting its distillation
/// trace), then replay the trace's timing at every bandwidth; add the naive
/// baseline and the analytic bound band.
pub fn figure4(setup: &SharedSetup) -> Figure4 {
    let (frame_bytes, update_bytes) = setup.paper_payload(DistillationMode::Partial);
    let config = ShadowTutorConfig::paper();

    let mut series = Vec::new();
    for descriptor in &setup.figure4 {
        let record = setup.run_variant(descriptor, Variant::Partial { delay: 8 });
        let scaled = record.with_payload_sizes(frame_bytes, update_bytes);
        let fps: Vec<f64> = FIGURE4_BANDWIDTHS_MBPS
            .iter()
            .map(|&mbps| scaled.replay_fps(&LinkModel::symmetric_mbps(mbps), Concurrency::Full))
            .collect();
        series.push(Figure4Series {
            label: descriptor.name.clone(),
            fps,
        });
    }
    // Naive baseline series.
    let naive_fps: Vec<f64> = FIGURE4_BANDWIDTHS_MBPS
        .iter()
        .map(|&mbps| naive_paper_fps(setup, &LinkModel::symmetric_mbps(mbps)))
        .collect();
    series.push(Figure4Series {
        label: "naive".to_string(),
        fps: naive_fps,
    });

    // Analytic bound band at each bandwidth.
    let mut bound_lower = Vec::new();
    let mut bound_upper = Vec::new();
    for &mbps in &FIGURE4_BANDWIDTHS_MBPS {
        let link = LinkModel::symmetric_mbps(mbps);
        let t_net = link.key_frame_round_trip(frame_bytes, update_bytes);
        let inputs = BoundInputs::new(&setup.latency, true, t_net, frame_bytes + update_bytes);
        let bounds = throughput_bounds(&config, &inputs);
        bound_lower.push(bounds.lower_fps);
        bound_upper.push(bounds.upper_fps);
    }

    Figure4 {
        bandwidths_mbps: FIGURE4_BANDWIDTHS_MBPS.to_vec(),
        series,
        bound_lower,
        bound_upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_axis_matches_paper() {
        assert_eq!(FIGURE4_BANDWIDTHS_MBPS.len(), 7);
        assert_eq!(FIGURE4_BANDWIDTHS_MBPS[0], 8.0);
        assert_eq!(FIGURE4_BANDWIDTHS_MBPS[6], 90.0);
    }
}
