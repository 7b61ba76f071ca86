//! Order statistics shared by every workload: medians of repeated
//! measurements, latency percentiles with their sample counts, and the
//! process's peak resident set.

use std::fmt;

/// Percentiles of one latency sample, with the sample count they rest on.
///
/// `tail` is the highest of p99.99, p99.9 and p99 that has at least ten
/// samples beyond it (`None` when even p99 has fewer), so a reported tail
/// never rests on a handful of outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// `(percentile, value)` of the deepest tail the sample supports.
    pub tail: Option<(f64, f64)>,
}

/// The tails [`percentiles`] considers, deepest first.
const TAILS: [f64; 3] = [99.99, 99.9, 99.0];

/// The 1-based nearest rank of percentile `q` (in `0..=100`, at most two
/// decimals) among `n` samples, computed in integers so that p99.9 of
/// 10 000 samples is exactly rank 9 990.
fn rank(n: usize, q: f64) -> usize {
    let hundredths = (q * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000);
    (rank as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` (in `0..=100`) of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank percentile `q` of an ascending slice, provided at least
/// ten samples lie beyond it.
pub fn supported(sorted: &[f64], q: f64) -> Option<f64> {
    let beyond = sorted.len().checked_sub(rank(sorted.len(), q))?;
    (beyond >= 10).then(|| nearest_rank(sorted, q))
}

/// p50, p90 and the deepest tail with at least ten samples beyond it.
///
/// Sorts `samples` in place. Returns `None` for an empty sample.
pub fn percentiles(samples: &mut [f64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let tail = TAILS
        .iter()
        .find_map(|&q| supported(samples, q).map(|v| (q, v)));
    Some(Percentiles {
        count: samples.len(),
        p50: nearest_rank(samples, 50.0),
        p90: nearest_rank(samples, 90.0),
        tail,
    })
}

impl Percentiles {
    /// The same percentiles with every value multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Percentiles {
        Percentiles {
            count: self.count,
            p50: self.p50 * factor,
            p90: self.p90 * factor,
            tail: self.tail.map(|(q, v)| (q, v * factor)),
        }
    }
}

impl fmt::Display for Percentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={:.3} p90={:.3}",
            self.count, self.p50, self.p90
        )?;
        match self.tail {
            Some((q, v)) => write!(f, " p{q}={v:.3}"),
            None => write!(f, " (no tail: fewer than 10 samples beyond p99)"),
        }
    }
}

/// Median of a non-empty sample (the mean of the middle pair for even
/// counts). Sorts `values` in place.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the helper's own sort is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 91.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
    }

    #[test]
    fn percentiles_of_a_ramp() {
        let p = percentiles(&mut ramp(1000)).expect("non-empty");
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p90, 900.0);
        // p99 leaves exactly 10 samples beyond it; p99.9 only 1.
        assert_eq!(p.tail, Some((99.0, 990.0)));
    }

    #[test]
    fn tail_deepens_with_the_sample() {
        let p = percentiles(&mut ramp(10_000)).expect("non-empty");
        assert_eq!(p.tail, Some((99.9, 9990.0)));
        let p = percentiles(&mut ramp(100_000)).expect("non-empty");
        assert_eq!(p.tail, Some((99.99, 99_990.0)));
    }

    #[test]
    fn small_samples_report_no_tail() {
        let p = percentiles(&mut ramp(999)).expect("non-empty");
        assert_eq!(p.tail, None, "p99 of 999 samples has only 9 beyond it");
        assert_eq!(p.p50, 500.0);
        assert!(percentiles(&mut []).is_none());
    }

    #[test]
    fn supported_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported(&s, 99.0), Some(990.0));
        assert_eq!(supported(&s, 99.9), None);
        assert_eq!(supported(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
