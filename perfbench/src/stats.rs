//! Order statistics of one sample series.

/// Median, quartiles and (when the tail rule allows) the 99th
/// percentile of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Present only when at least [`TAIL_MIN_BEYOND`] samples lie beyond
    /// it; a tail read from fewer samples is one outlier's value.
    pub p99: Option<f64>,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

impl Summary {
    /// Summarizes `samples` (any order). `None` for an empty series.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            p99: tail(&s, 0.99),
        })
    }
}

/// The `q`-quantile of a sorted, non-empty series, interpolated the way
/// Python's `statistics.quantiles` does by default ("exclusive": position
/// `q * (n + 1)`, clamped to the first and last sample).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let a = sorted[lo - 1];
    let b = sorted[lo.min(n - 1)];
    a + (b - a) * frac
}

/// Nearest-rank `q`-percentile of a sorted series, or `None` when fewer
/// than [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (rank <= n && n - rank >= TAIL_MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a non-empty series.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = Summary::of(&s).unwrap();
        assert_eq!((sum.q1, sum.median, sum.q3), (2.75, 5.5, 8.25));
        let one = Summary::of(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten samples (991..=1000) beyond.
        assert_eq!(tail(&s, 0.99), Some(990.0));
        assert_eq!(Summary::of(&s).unwrap().p99, Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&short, 0.99), None);
        assert_eq!(Summary::of(&short).unwrap().p99, None);
        assert_eq!(tail(&[1.0], 0.99), None);
    }
}
