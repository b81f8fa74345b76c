//! Box-plot statistics for the sampling experiments.
//!
//! The STREAM figures in the paper are box plots over 100 samples per
//! thread count ("the box plot shows the 25-50 range with the median
//! line"); this module computes those summary statistics.

/// Five-number summary of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest sample.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples.
    pub count: usize,
}

impl BoxStats {
    /// Compute the summary of a sample set. NaN samples carry no ordering
    /// information and are filtered out; `None` when nothing (finite or
    /// infinite) remains.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| !s.is_nan()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(BoxStats {
            min: sorted[0],
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean,
            count: sorted.len(),
        })
    }

    /// Interquartile range, the height of the box.
    pub(crate) fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Relative spread (IQR over median), used to compare the variance of
    /// pinned vs. unpinned runs. `None` when the median is zero — a
    /// spread relative to nothing is undefined, not `0.0`.
    pub fn relative_spread(&self) -> Option<f64> {
        if self.median == 0.0 {
            None
        } else {
            Some(self.iqr() / self.median)
        }
    }
}

/// Linear-interpolation percentile of a pre-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary_of_a_known_set() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = BoxStats::from_samples(&samples).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.count, 5);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn unordered_input_is_handled() {
        let s = BoxStats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn single_sample_and_empty_input() {
        let s = BoxStats::from_samples(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
        assert!(BoxStats::from_samples(&[]).is_none());
    }

    #[test]
    fn relative_spread_compares_variability() {
        let tight = BoxStats::from_samples(&[99.0, 100.0, 100.0, 100.0, 101.0]).unwrap();
        let wide = BoxStats::from_samples(&[50.0, 75.0, 100.0, 125.0, 150.0]).unwrap();
        assert!(wide.relative_spread().unwrap() > tight.relative_spread().unwrap());
    }

    #[test]
    fn nan_samples_are_filtered_not_fatal() {
        let s = BoxStats::from_samples(&[2.0, f64::NAN, 1.0, 3.0, f64::NAN]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(BoxStats::from_samples(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn zero_median_spread_is_undefined_not_zero() {
        let s = BoxStats::from_samples(&[-1.0, 0.0, 1.0]).unwrap();
        assert_eq!(s.median, 0.0);
        assert_eq!(s.relative_spread(), None);
        let nonzero = BoxStats::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert!(nonzero.relative_spread().is_some());
    }
}
