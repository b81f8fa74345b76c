//! Clock and time-stamp counter model.
//!
//! `likwid-perfCtr` derives its "Runtime \[s\]" metric from
//! `CPU_CLK_UNHALTED_CORE / clock`, and `likwid-topology` prints the nominal
//! clock ("CPU clock: 2.93 GHz"). On real hardware the clock is determined
//! either from `MSR_PLATFORM_INFO` (Nehalem+) or by calibrating the TSC
//! against a wall-clock timer. The simulated machine advances a virtual TSC
//! explicitly: workload execution reports how many core cycles each hardware
//! thread consumed and the machine converts between cycles and seconds using
//! the nominal frequency.

/// A clock domain with a nominal frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ClockDomain {
    /// Nominal core frequency in Hz.
    pub frequency_hz: f64,
}

impl ClockDomain {
    /// Create a clock domain from a frequency in GHz.
    pub(crate) fn from_ghz(ghz: f64) -> Self {
        ClockDomain { frequency_hz: ghz * 1e9 }
    }

    /// Nominal frequency in GHz.
    pub fn ghz(&self) -> f64 {
        self.frequency_hz / 1e9
    }

    /// Convert a duration in seconds to (rounded) cycles.
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        (seconds * self.frequency_hz).round() as u64
    }

    /// The bus/reference clock used to derive the frequency from the
    /// platform-info ratio (133.33 MHz on Nehalem/Westmere).
    pub const NEHALEM_BUS_CLOCK_HZ: f64 = 133.33e6;

    /// The maximum non-turbo ratio that `MSR_PLATFORM_INFO` would report for
    /// this frequency on a Nehalem-class part.
    pub(crate) fn platform_info_ratio(&self) -> u64 {
        (self.frequency_hz / Self::NEHALEM_BUS_CLOCK_HZ).round() as u64
    }

    /// Format for tool headers, e.g. "2.93 GHz".
    pub fn display(&self) -> String {
        format!("{:.2} GHz", self.ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_round_trip() {
        let c = ClockDomain::from_ghz(2.93);
        assert!((c.ghz() - 2.93).abs() < 1e-12);
        assert_eq!(c.display(), "2.93 GHz");
    }

    #[test]
    fn cycles_seconds_conversion_is_inverse() {
        let c = ClockDomain::from_ghz(2.66);
        let cycles = 1_000_000_u64;
        let secs = cycles as f64 / c.frequency_hz;
        assert_eq!(c.seconds_to_cycles(secs), cycles);
    }

    #[test]
    fn platform_info_ratio_round_trips_for_westmere() {
        let c = ClockDomain::from_ghz(2.93);
        let ratio = c.platform_info_ratio();
        assert_eq!(ratio, 22, "2.93 GHz / 133 MHz bus clock is a 22x multiplier");
        let back_hz = ratio as f64 * ClockDomain::NEHALEM_BUS_CLOCK_HZ;
        assert!((back_hz / 1e9 - 2.93).abs() < 0.05);
    }

    #[test]
    fn runtime_metric_example_from_the_paper() {
        // The paper's Benchmark region: ~2.858e7 unhalted cycles on a
        // 2.83 GHz Core 2 is about 0.0101 s.
        let c = ClockDomain::from_ghz(2.83);
        let cycles = c.seconds_to_cycles(0.0101);
        assert!((cycles as f64 - 28_583_800.0).abs() < 0.0002 * c.frequency_hz);
    }
}
