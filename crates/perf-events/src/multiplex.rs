//! Counter multiplexing.
//!
//! When more events are requested than there are physical counters,
//! `likwid-perfCtr` assigns counters to event sets in a round-robin manner:
//! each set is measured during a fraction of the run and the final counts
//! are extrapolated to the full runtime. The paper points out the downside:
//! short measurements carry large statistical errors. This module provides
//! the schedule bookkeeping and the extrapolation, plus a quantification of
//! the error bound used in tests and the ablation bench.

/// A multiplexing schedule over `num_groups` event groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplexSchedule {
    num_groups: usize,
    /// How many switch intervals each group has been active for.
    active_intervals: Vec<u64>,
    /// Currently active group.
    current: usize,
    /// Total number of switch intervals elapsed.
    total_intervals: u64,
}

impl MultiplexSchedule {
    /// Create a schedule over `num_groups` groups (at least one).
    pub fn new(num_groups: usize) -> Self {
        assert!(num_groups > 0, "at least one event group is required");
        MultiplexSchedule {
            num_groups,
            active_intervals: vec![0; num_groups],
            current: 0,
            total_intervals: 0,
        }
    }

    /// Number of groups in the schedule.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Account one switch interval for the active group, then rotate to the
    /// next group (round robin). Returns the group that was active.
    pub fn tick(&mut self) -> usize {
        let was = self.current;
        self.active_intervals[was] += 1;
        self.total_intervals += 1;
        self.current = (self.current + 1) % self.num_groups;
        was
    }

    /// Fraction of the total run during which `group` was measured.
    pub fn coverage(&self, group: usize) -> f64 {
        if self.total_intervals == 0 {
            0.0
        } else {
            self.active_intervals[group] as f64 / self.total_intervals as f64
        }
    }

    /// Extrapolate a raw count measured while `group` was active to the full
    /// runtime (the standard 1/coverage scaling).
    pub fn extrapolate(&self, group: usize, raw_count: u64) -> u64 {
        let cov = self.coverage(group);
        if cov == 0.0 {
            0
        } else {
            (raw_count as f64 / cov).round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotation() {
        let mut s = MultiplexSchedule::new(3);
        assert_eq!(s.tick(), 0);
        assert_eq!(s.tick(), 1);
        assert_eq!(s.tick(), 2);
        assert_eq!(s.tick(), 0);
        assert_eq!(s.current, 1);
    }

    #[test]
    fn coverage_is_even_after_full_rotations() {
        let mut s = MultiplexSchedule::new(4);
        for _ in 0..40 {
            s.tick();
        }
        for g in 0..4 {
            assert!((s.coverage(g) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn extrapolation_scales_by_inverse_coverage() {
        let mut s = MultiplexSchedule::new(2);
        for _ in 0..10 {
            s.tick();
        }
        // Each group covered 50%: a raw count of 100 extrapolates to 200.
        assert_eq!(s.extrapolate(0, 100), 200);
    }

    #[test]
    fn single_group_needs_no_extrapolation() {
        let mut s = MultiplexSchedule::new(1);
        s.tick();
        assert_eq!(s.coverage(0), 1.0);
        assert_eq!(s.extrapolate(0, 123), 123);
    }

    #[test]
    fn zero_intervals_mean_zero_coverage() {
        let s = MultiplexSchedule::new(2);
        assert_eq!(s.coverage(0), 0.0);
        assert_eq!(s.extrapolate(0, 100), 0);
    }

    #[test]
    fn uneven_rotation_biases_coverage() {
        let mut s = MultiplexSchedule::new(3);
        // 4 ticks: groups 0,1,2,0 -> group 0 covered twice.
        for _ in 0..4 {
            s.tick();
        }
        assert!((s.coverage(0) - 0.5).abs() < 1e-12);
        assert!((s.coverage(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one event group")]
    fn zero_groups_is_rejected() {
        MultiplexSchedule::new(0);
    }
}
