//! Order statistics: quantiles within a round, quartiles across rounds.
//!
//! A workload's reported rate or latency is a quartile *across identical
//! rounds* — the upper quartile for rates, the lower for times — because the
//! host's interference arrives in multi-second stretches that drag a round's
//! value one way only: the good quartile tracks the machine, the median
//! tracks the neighbours.

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between closest ranks. Panics on an empty sample: every caller has at
/// least one round or one key frame, and a silent 0.0 would read as a gain.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether a sample of `n` supports percentile `p` (in `[0, 100)`): at least
/// ten samples must lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= 10.0
}

/// Which way a metric improves, deciding which quartile of the rounds is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric's value in every timed round, condensed.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// The reported value: upper quartile of the rounds when higher is
    /// better, lower quartile when lower is better.
    pub value: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub rounds: usize,
}

/// Condense per-round values into the reported quartile plus the spread.
pub fn across_rounds(per_round: &[f64], better: Better) -> RoundSummary {
    let q = match better {
        Better::Higher => 0.75,
        Better::Lower => 0.25,
    };
    RoundSummary {
        value: quantile(per_round, q),
        min: quantile(per_round, 0.0),
        median: median(per_round),
        max: quantile(per_round, 1.0),
        rounds: per_round.len(),
    }
}

/// A value that was measured once (no spread across rounds).
pub fn single(value: f64) -> RoundSummary {
    RoundSummary {
        value,
        min: value,
        median: value,
        max: value,
        rounds: 1,
    }
}

/// The `p`-th percentile (`p` in `[0, 100)`) of a latency sampled in several
/// identical rounds, with the pooled sample count.
///
/// When every round alone supports the percentile the result is the lower
/// quartile of the per-round percentiles (robust to a noisy stretch).
/// Otherwise the rounds' samples are pooled — they replay the same input, so
/// they sample one distribution — and the pooled percentile is reported; the
/// caller checks that the pool supports it.
pub fn percentile_across_rounds(rounds: &[Vec<f64>], p: f64) -> (RoundSummary, usize) {
    let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
    if rounds.iter().all(|r| percentile_supported(r.len(), p)) {
        let per_round: Vec<f64> = rounds.iter().map(|r| quantile(r, p / 100.0)).collect();
        (across_rounds(&per_round, Better::Lower), pooled.len())
    } else {
        (single(quantile(&pooled, p / 100.0)), pooled.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn rates_report_the_upper_quartile_and_times_the_lower() {
        // Eleven rounds, one noisy stretch dragging three of them.
        let fps = [
            700.0, 702.0, 698.0, 701.0, 640.0, 630.0, 650.0, 699.0, 703.0, 700.0, 697.0,
        ];
        let rate = across_rounds(&fps, Better::Higher);
        assert_eq!(rate.value, 700.5);
        assert_eq!(rate.min, 630.0);
        assert_eq!(rate.max, 703.0);
        assert_eq!(rate.rounds, 11);
        let ms: Vec<f64> = fps.iter().map(|f| 1e3 / f).collect();
        let time = across_rounds(&ms, Better::Lower);
        assert!((time.value - 1e3 / 700.5).abs() < 1e-3);
        // The median sits closer to the noisy rounds than the quartile.
        assert!(rate.median < rate.value);
        assert!(time.median > time.value);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(18, 50.0));
        assert!(percentile_supported(1000, 99.0));
    }

    #[test]
    fn p90_is_per_round_when_supported_and_pooled_otherwise() {
        let big: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..100).map(|i| (i + r) as f64).collect())
            .collect();
        let (summary, n) = percentile_across_rounds(&big, 90.0);
        assert_eq!(n, 400);
        assert_eq!(summary.rounds, 4);
        // Per-round p90s are 89.1 + r; the lower quartile of those.
        assert!((summary.value - 89.85).abs() < 1e-9, "{}", summary.value);
        assert!(summary.min < summary.max);

        let small: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..18).map(|i| i as f64).collect())
            .collect();
        let (summary, n) = percentile_across_rounds(&small, 90.0);
        assert_eq!(n, 144);
        assert!(percentile_supported(n, 90.0));
        assert_eq!(summary.value, 16.0);
        assert_eq!(summary.min, summary.max);
        // 18 samples do not support a per-round median either: pooled.
        assert_eq!(percentile_across_rounds(&small, 50.0).0.rounds, 1);
    }
}
