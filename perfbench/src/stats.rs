//! Order statistics for timings.

/// A timing distribution: the median, the highest percentile that still
/// has at least ten samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the middle two for an even count).
    pub p50: f64,
    /// The tail value: the nearest-rank `tail_pct`-th percentile.
    pub tail: f64,
    /// Which percentile `tail` is; 100 (the maximum) when there are
    /// fewer than eleven samples.
    pub tail_pct: u32,
}

/// Samples that must lie beyond the reported tail percentile.
const BEYOND: usize = 10;

/// Summarizes `samples` (any order). Panics on an empty slice: every
/// caller measures at least once.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (tail, tail_pct) = if n > BEYOND {
        // Largest integer q with ceil(q·n/100) ≤ n − BEYOND.
        let q = (100 * (n - BEYOND) / n) as u32;
        let rank = (q as usize * n).div_ceil(100).max(1);
        (v[rank - 1], q)
    } else {
        (v[n - 1], 100)
    };
    Summary {
        n,
        p50,
        tail,
        tail_pct,
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 50);
        assert_eq!(s.p50, 25.5);
        assert_eq!(s.tail_pct, 80);
        assert_eq!(s.tail, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
    }

    #[test]
    fn short_series_report_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 3.0, 100));
    }
}
