//! Order statistics over measured samples.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of
//! raw samples (no bucketing), together with the sample count, so a
//! reader can tell which percentiles the sample supports: a percentile
//! is only reported when at least ten samples lie beyond it.

/// Minimum number of samples that must lie beyond a percentile for it to
/// be reported as measured.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice; `p` in `0.0..=1.0`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// True when at least [`TAIL_SAMPLES`] of `n` samples lie beyond the
/// `p` percentile.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() as usize >= TAIL_SAMPLES
}

/// Median of an unsorted set of floats (mean of the middle pair for an
/// even count). Returns 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency sample set summarised the way the benchmark reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile, `None` when fewer than [`TAIL_SAMPLES`] samples
    /// lie beyond it.
    pub p99: Option<u64>,
    /// 99.9th percentile, `None` when the sample does not support it.
    pub p999: Option<u64>,
    /// Largest sample.
    pub max: u64,
}

/// Sorts `samples` in place and summarises them.
pub fn summarize(samples: &mut [u64]) -> Summary {
    samples.sort_unstable();
    let n = samples.len();
    let tail = |p: f64| supports(n, p).then(|| percentile(samples, p));
    Summary {
        count: n,
        p50: percentile(samples, 0.50),
        p90: percentile(samples, 0.90),
        p99: tail(0.99),
        p999: tail(0.999),
        max: samples.last().copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.999), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(!supports(9_999, 0.999));
        assert!(supports(10_000, 0.999));
        let mut small: Vec<u64> = (0..500).rev().collect();
        let s = summarize(&mut small);
        assert_eq!(s.count, 500);
        assert_eq!(s.p50, 249);
        assert_eq!(s.p90, 449);
        assert_eq!(s.p99, None, "5 samples beyond p99 is not enough");
        assert_eq!(s.p999, None);
        assert_eq!(s.max, 499);
        let mut big: Vec<u64> = (1..=20_000).collect();
        let s = summarize(&mut big);
        assert_eq!(s.p99, Some(19_800));
        assert_eq!(s.p999, Some(19_980));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
