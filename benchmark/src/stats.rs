//! Order statistics over latency samples and over the per-window values a
//! timing metric is reported from.

/// Nearest-rank `q`-quantile of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unordered sample (mean of the two middle values when the
/// count is even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A timing metric over the windows of one run. Every window holds the
/// same ops, and whatever else the host is doing can only slow a window
/// down, so the best window is the estimate of the code's own speed; the
/// median says how disturbed the run was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// The best window: the largest value of a rate, the smallest of a
    /// latency.
    pub best: f64,
    /// Median over windows.
    pub median: f64,
    /// The worst window.
    pub worst: f64,
}

impl Windowed {
    /// Summarises one value per window.
    pub fn of(values: &[f64], higher_is_better: bool) -> Self {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (best, worst) = if higher_is_better { (max, min) } else { (min, max) };
        Windowed { best, median: median(values), worst }
    }
}

/// FNV-1a, the digest every deterministic output of a workload is folded
/// into so two commits compare exactly.
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_summary_picks_the_best_window_by_direction() {
        let v = [10.0, 12.0, 9.0, 30.0, 11.0];
        assert_eq!(Windowed::of(&v, true), Windowed { best: 30.0, median: 11.0, worst: 9.0 });
        assert_eq!(Windowed::of(&v, false), Windowed { best: 9.0, median: 11.0, worst: 30.0 });
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a(FNV_SEED, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_SEED, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
