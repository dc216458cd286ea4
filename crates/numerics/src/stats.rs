//! Descriptive statistics for experiment reporting.
//!
//! The diagnosis-accuracy experiments summarise Monte Carlo runs; this
//! module provides the summary statistics plus a numerically stable
//! streaming accumulator (Welford's algorithm).

use serde::{Deserialize, Serialize};

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Unbiased sample variance (n−1 denominator); `None` for fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation; `None` for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Smallest element; `None` for an empty slice. NaN entries are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::min)
}

/// Largest element; `None` for an empty slice. NaN entries are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|x| !x.is_nan()).reduce(f64::max)
}

/// Median by partial sort; `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Linear-interpolation percentile (`p` in 0–100); `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(v[lo])
    } else {
        let t = rank - lo as f64;
        Some(v[lo] * (1.0 - t) + v[hi] * t)
    }
}

/// Streaming mean/variance accumulator (Welford).
///
/// # Examples
///
/// ```
/// use ft_numerics::stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 4);
/// assert!((acc.mean() - 2.5).abs() < 1e-12);
/// assert!((acc.variance().unwrap() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased variance; `None` with fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some(self.m2 / (self.n - 1) as f64)
        }
    }

    /// Minimum observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = OnlineStats::new();
        acc.extend(iter);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summaries() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(min(&xs), Some(2.0));
        assert_eq!(max(&xs), Some(9.0));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[1.0]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 10.0), None);
    }

    #[test]
    fn median_and_percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 25.0), Some(1.75));
        let odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&odd), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "[0,100]")]
    fn percentile_range_checked() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn online_matches_batch() {
        let xs = [0.3, -1.2, 5.5, 2.2, 0.0, 9.1];
        let acc: OnlineStats = xs.iter().copied().collect();
        assert_eq!(acc.count(), xs.len() as u64);
        assert!((acc.mean() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((acc.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(acc.min(), min(&xs));
        assert_eq!(acc.max(), max(&xs));
    }

    #[test]
    fn online_merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        let mut a: OnlineStats = xs.iter().copied().collect();
        let b: OnlineStats = ys.iter().copied().collect();
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        let whole: OnlineStats = all.iter().copied().collect();
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn online_merge_with_empty() {
        let mut a = OnlineStats::new();
        let b: OnlineStats = [5.0, 6.0].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let mut c: OnlineStats = [5.0, 6.0].iter().copied().collect();
        c.merge(&OnlineStats::new());
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn nan_tolerant_min_max() {
        let xs = [f64::NAN, 2.0, 1.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(2.0));
    }
}
