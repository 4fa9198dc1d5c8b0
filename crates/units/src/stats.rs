//! Streaming and batch statistics for Monte Carlo analyses.
//!
//! VAET-STT reports distributions (μ, σ) rather than nominal scalars; this
//! module provides the numerically stable accumulation those reports use.

/// Welford online accumulator for mean / variance / extrema.
///
/// # Examples
///
/// ```
/// use mss_units::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (Bessel-corrected); 0 with < 2 samples.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance; 0 when empty.
    pub(crate) fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Minimum observation; `+inf` when empty.
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; `-inf` when empty.
    pub(crate) fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Summary of a distribution, as reported in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionSummary {
    /// Mean (μ).
    pub mean: f64,
    /// Sample standard deviation (σ).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of Monte Carlo samples behind the summary.
    pub samples: u64,
}

impl DistributionSummary {
    /// True when the summary aggregates zero samples.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }
}

impl From<&OnlineStats> for DistributionSummary {
    fn from(s: &OnlineStats) -> Self {
        if s.count() == 0 {
            // An empty accumulator keeps ±inf extrema internally (the merge
            // identity); leaking them into a report renders as `inf`/`-inf`
            // engineering notation. An empty summary is all-zero with
            // `samples == 0` so renderers can say "n/a" instead.
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                samples: 0,
            };
        }
        Self {
            mean: s.mean(),
            std_dev: s.sample_std_dev(),
            min: s.min(),
            max: s.max(),
            samples: s.count(),
        }
    }
}

/// Error from [`try_quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileError {
    /// The input slice was empty (or all-NaN).
    EmptyData,
    /// `p` fell outside `[0, 1]`.
    BadProbability,
}

impl std::fmt::Display for QuantileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantileError::EmptyData => write!(f, "quantile of empty (or all-NaN) data"),
            QuantileError::BadProbability => write!(f, "quantile probability outside [0, 1]"),
        }
    }
}

impl std::error::Error for QuantileError {}

/// Returns the `p`-quantile (0 ≤ p ≤ 1) of `data` by linear interpolation.
///
/// The input is sorted internally; pass a scratch copy if the original order
/// matters. NaN entries (failed Monte Carlo samples) are excluded from the
/// quantile rather than aborting the whole report — callers that need to
/// know how many were dropped should use [`try_quantile`].
///
/// # Panics
///
/// Panics if `data` is empty (or entirely NaN) or `p` is outside `[0, 1]`.
#[cfg(test)]
pub(crate) fn quantile(data: &mut [f64], p: f64) -> f64 {
    try_quantile(data, p).map(|q| q.value).unwrap_or_else(|e| {
        panic!("quantile(p = {p}) on {} samples: {e}", data.len());
    })
}

/// A quantile computed over the finite portion of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The interpolated quantile of the non-NaN samples.
    pub value: f64,
    /// NaN samples excluded from the computation.
    pub dropped_nan: usize,
}

/// Checked `quantile`: NaN entries are partitioned out and counted, and
/// degenerate inputs return an error instead of panicking.
///
/// `data` is reordered (NaNs moved to the tail, the rest sorted with
/// [`f64::total_cmp`]); pass a scratch copy if the original order matters.
///
/// # Errors
///
/// [`QuantileError::EmptyData`] when no non-NaN samples remain;
/// [`QuantileError::BadProbability`] when `p` is outside `[0, 1]`.
pub fn try_quantile(data: &mut [f64], p: f64) -> Result<Quantile, QuantileError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(QuantileError::BadProbability);
    }
    // Partition NaNs to the tail so they cannot land inside the sorted range
    // (total_cmp orders negative NaN first and positive NaN last, so sorting
    // alone is not enough).
    let mut n = data.len();
    let mut i = 0;
    while i < n {
        if data[i].is_nan() {
            n -= 1;
            data.swap(i, n);
        } else {
            i += 1;
        }
    }
    let dropped_nan = data.len() - n;
    let finite = &mut data[..n];
    if finite.is_empty() {
        return Err(QuantileError::EmptyData);
    }
    finite.sort_by(f64::total_cmp);
    let idx = p * (finite.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let value = if lo == hi {
        finite[lo]
    } else {
        let t = idx - lo as f64;
        finite[lo] * (1.0 - t) + finite[hi] * t
    };
    Ok(Quantile { value, dropped_nan })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 2.0)
            .collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (50..120).map(|i| i as f64 * 1.5).collect();
        let mut s1: OnlineStats = a.iter().copied().collect();
        let s2: OnlineStats = b.iter().copied().collect();
        s1.merge(&s2);
        let all: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(s1.count(), all.count());
        assert!((s1.mean() - all.mean()).abs() < 1e-9);
        assert!((s1.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(s1.min(), all.min());
        assert_eq!(s1.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());
    }

    #[test]
    fn quantile_median_and_extremes() {
        let mut data = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut data, 0.5), 3.0);
        assert_eq!(quantile(&mut data, 0.0), 1.0);
        assert_eq!(quantile(&mut data, 1.0), 5.0);
        assert_eq!(quantile(&mut data, 0.25), 2.0);
    }

    #[test]
    fn quantile_tolerates_nan_samples() {
        // One failed Monte Carlo sample used to abort the whole report via
        // the `expect` inside sort_by; now NaNs are dropped and counted.
        let mut data = vec![5.0, f64::NAN, 1.0, 3.0, f64::NAN, 2.0, 4.0];
        let q = try_quantile(&mut data, 0.5).unwrap();
        assert_eq!(q.value, 3.0);
        assert_eq!(q.dropped_nan, 2);
        // The panicking wrapper also survives (same finite median).
        let mut data = vec![5.0, f64::NAN, 1.0, 3.0, f64::NAN, 2.0, 4.0];
        assert_eq!(quantile(&mut data, 0.5), 3.0);
    }

    #[test]
    fn quantile_single_element_and_negative_zero() {
        let mut one = vec![42.0];
        assert_eq!(quantile(&mut one, 0.0), 42.0);
        assert_eq!(quantile(&mut one, 0.5), 42.0);
        assert_eq!(quantile(&mut one, 1.0), 42.0);
        // total_cmp orders -0.0 before +0.0; the interpolated value is 0.
        let mut zeros = vec![0.0, -0.0];
        assert_eq!(quantile(&mut zeros, 0.5), 0.0);
    }

    #[test]
    fn try_quantile_rejects_degenerate_inputs() {
        let mut empty: Vec<f64> = vec![];
        assert_eq!(
            try_quantile(&mut empty, 0.5).unwrap_err(),
            QuantileError::EmptyData
        );
        let mut all_nan = vec![f64::NAN, f64::NAN];
        assert_eq!(
            try_quantile(&mut all_nan, 0.5).unwrap_err(),
            QuantileError::EmptyData
        );
        let mut data = vec![1.0, 2.0];
        assert_eq!(
            try_quantile(&mut data, 1.5).unwrap_err(),
            QuantileError::BadProbability
        );
        assert_eq!(
            try_quantile(&mut data, -0.1).unwrap_err(),
            QuantileError::BadProbability
        );
    }

    #[test]
    fn empty_stats_summarise_finitely() {
        // Internally the accumulator keeps ±inf extrema as merge identity...
        let s = OnlineStats::new();
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
        // ...but the report-facing summary must never leak them.
        let d = DistributionSummary::from(&s);
        assert!(d.is_empty());
        assert_eq!(d.samples, 0);
        for v in [d.mean, d.std_dev, d.min, d.max] {
            assert!(v.is_finite(), "empty summary leaked non-finite: {d:?}");
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn summary_reflects_stats() {
        let s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let d = DistributionSummary::from(&s);
        assert_eq!(d.samples, 3);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 3.0);
        assert!((d.mean - 2.0).abs() < 1e-15);
    }
}
