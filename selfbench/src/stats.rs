//! Order statistics, failure accounting and metric naming shared by every
//! workload of the benchmark.

/// Median of the samples (mean of the two middle values for an even
/// count); `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (including its
/// extrapolation for tiny sets), so the spread the benchmark reports is the
/// one a run-to-run check computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range over the median: the relative spread of a metric
/// across runs.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The percentiles a tail may be reported at, highest first. The ladder
/// stops at p90: on a host shared with other tenants, the p99 of the
/// daemon's frame gaps swings threefold with the host's scheduling delays
/// from one run to the next, while its p90 holds.
pub const TAIL_LADDER: [f64; 2] = [90.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it (strictly above its nearest rank), for
/// `n` samples; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| nearest_rank(n, p).is_some_and(|rank| n - rank >= MIN_BEYOND))
}

/// The 1-based rank of the nearest-rank `p`th percentile among `n`
/// samples.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Operations attempted and failed in one run. A failure is an operation
/// that produced an error instead of a result; it never contributes a
/// latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether a metric name is well formed: non-empty, at most 64 characters,
/// made of ASCII letters, digits, `_`, `.` and `-`, starting with a letter
/// or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes.iter().all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // Reference values from Python: statistics.quantiles(range(1, 11), n=4)
        // == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the sample range.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 150.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p90 needs 10 samples above rank ceil(0.9 n): n = 100 leaves
        // exactly 10 beyond rank 90, n = 99 only 9 (rank 90).
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // p50: n = 20 leaves 10 beyond rank 10; n = 19 leaves 9.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(1_000_000), Some(90.0));
        assert_eq!(nearest_rank(1000, 99.0), Some(990));
        assert_eq!(nearest_rank(1000, 99.1), Some(991));
    }

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_ratio(), 0.0);
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!(tally, Tally { attempted: 4, failed: 1 });
        assert_eq!(tally.failed_ratio(), 0.25);
        tally.merge(Tally { attempted: 4, failed: 0 });
        assert_eq!(tally.failed_ratio(), 0.125);
    }

    #[test]
    fn metric_names_are_checked() {
        for good in ["wall_s", "cache_sim.shard.replay_s.w2", "op-p50", "0x", "a"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".lead", "_lead", "sp ace", "slash/x", "ünï", "a,b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
