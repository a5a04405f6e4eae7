//! Order statistics used by every reported figure.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, so a tail
//! figure is never a single outlier.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` in a sample of `n`: the
/// smallest rank with at least `p`% of the samples at or below it.
/// Integer arithmetic on `p` in parts per million, so `99.9% × 10 000`
/// is exactly rank 9 990.
fn rank(p: f64, n: usize) -> usize {
    let ppm = (p.clamp(0.0, 100.0) * 10_000.0).round() as u128;
    ((ppm * n as u128).div_ceil(1_000_000) as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `p`% of the samples are ≤ it. `None` for
/// an empty slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    sorted.get(rank(p, sorted.len()).checked_sub(1)?).copied()
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// strictly beyond its rank, for a sample of `n`. `None` when even the
/// median leaves fewer than that many beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_BEYOND)
}

/// A tail figure: the percentile chosen by [`tail_percentile`], its
/// value, and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: u64,
    /// Number of samples.
    pub n: usize,
}

/// The tail of an ascending-sorted slice (see [`tail_percentile`]).
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let percentile = tail_percentile(sorted.len())?;
    Some(Tail {
        percentile,
        value: nearest_rank(sorted, percentile)?,
        n: sorted.len(),
    })
}

/// Median of unsorted floats (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5));
        assert_eq!(nearest_rank(&v, 90.0), Some(9));
        assert_eq!(nearest_rank(&v, 91.0), Some(10));
        assert_eq!(nearest_rank(&v, 100.0), Some(10));
        assert_eq!(
            nearest_rank(&v, 0.0),
            Some(1),
            "rank clamps to the first sample"
        );
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7], 99.9), Some(7));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 20 samples: p50 leaves 10 beyond, p90 only 2.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None, "p50 leaves 9 beyond");
        // 1 000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // 10 000 samples: p99.9 leaves exactly 10.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20usize, 57, 1_000, 4_321, 10_000, 250_000] {
            let p = tail_percentile(n).expect("large enough");
            assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_value_and_count() {
        let v: Vec<u64> = (1..=1_000).collect();
        let t = tail(&v).expect("large enough");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990);
        assert_eq!(t.n, 1_000);
        assert!(tail(&v[..5]).is_none());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
