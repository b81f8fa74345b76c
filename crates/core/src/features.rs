//! `likwid-features`: viewing and toggling switchable processor features.
//!
//! On Core 2 class processors the hardware prefetchers are controlled by
//! bits in the `IA32_MISC_ENABLE` MSR; the tool displays the state of those
//! bits (plus a handful of other feature flags) and can enable or disable
//! the four prefetchers. The paper notes that this currently only works on
//! Intel Core 2 — other architectures report their feature state but reject
//! toggling, which is reproduced here.

use likwid_x86_machine::{
    CpuFeature, FeatureState, Microarch, Msr, MsrPermission, Prefetcher, SimMachine, Vendor,
};

use crate::error::{LikwidError, Result};
use crate::report::{Ascii, Body, KvEntry, Render, Report, Section, Value};

/// The `likwid-features` tool bound to one machine.
pub struct FeaturesTool<'m> {
    machine: &'m SimMachine,
}

impl<'m> FeaturesTool<'m> {
    /// Create the tool for a machine.
    pub fn new(machine: &'m SimMachine) -> Self {
        FeaturesTool { machine }
    }

    /// Whether prefetcher toggling is supported on this CPU (Intel Core 2 in
    /// the paper's version of the tool).
    pub(crate) fn can_toggle(&self) -> bool {
        self.machine.arch() == Microarch::Core2
    }

    /// The raw `IA32_MISC_ENABLE` value of a core.
    pub fn misc_enable(&self, cpu: usize) -> Result<u64> {
        if self.machine.vendor() != Vendor::Intel {
            return Err(LikwidError::Unsupported(
                "IA32_MISC_ENABLE exists only on Intel processors".into(),
            ));
        }
        Ok(self.machine.msr(cpu, MsrPermission::ReadOnly)?.read(Msr::IA32_MISC_ENABLE)?)
    }

    /// The state of every reportable feature on a core, in output order.
    pub(crate) fn feature_states(&self, cpu: usize) -> Result<Vec<(CpuFeature, FeatureState)>> {
        let misc = self.misc_enable(cpu)?;
        Ok(CpuFeature::all().iter().map(|&f| (f, f.state_from_misc_enable(misc))).collect())
    }

    /// The state of one prefetcher on a core.
    pub fn prefetcher_enabled(&self, cpu: usize, prefetcher: Prefetcher) -> Result<bool> {
        Ok(prefetcher.is_enabled(self.misc_enable(cpu)?))
    }

    /// Enable a prefetcher (`likwid-features -e <NAME>`).
    pub(crate) fn enable_prefetcher(&self, cpu: usize, prefetcher: Prefetcher) -> Result<()> {
        self.set_prefetcher(cpu, prefetcher, true)
    }

    /// Disable a prefetcher (`likwid-features -u <NAME>`).
    pub fn disable_prefetcher(&self, cpu: usize, prefetcher: Prefetcher) -> Result<()> {
        self.set_prefetcher(cpu, prefetcher, false)
    }

    fn set_prefetcher(&self, cpu: usize, prefetcher: Prefetcher, enable: bool) -> Result<()> {
        if !self.can_toggle() {
            return Err(LikwidError::Unsupported(format!(
                "prefetcher control is only implemented for Intel Core 2 (this is {})",
                self.machine.arch().display_name()
            )));
        }
        let dev = self.machine.msr(cpu, MsrPermission::ReadWrite)?;
        let bit = prefetcher.disable_bit();
        if enable {
            dev.update(Msr::IA32_MISC_ENABLE, 0, bit)?;
        } else {
            dev.update(Msr::IA32_MISC_ENABLE, bit, 0)?;
        }
        Ok(())
    }

    /// Build the structured feature report for one core.
    pub fn report(&self, cpu: usize) -> Result<Report> {
        let mut report = Report::new("likwid-features");
        report.push(
            Section::new(
                "identification",
                Body::KeyValues(vec![
                    KvEntry::new("CPU name", Value::Str(self.machine.preset().brand().to_string())),
                    KvEntry::new("CPU core id", Value::CpuId(cpu)),
                ]),
            )
            .with_rule_before(),
        );
        let entries = self
            .feature_states(cpu)?
            .into_iter()
            .map(|(feature, state)| {
                KvEntry::new(
                    feature.display_name().to_string(),
                    Value::Str(state.display().to_string()),
                )
            })
            .collect();
        report.push(
            Section::new("features", Body::KeyValues(entries)).with_rule_before().with_rule_after(),
        );
        Ok(report)
    }

    /// Render the report for one core, in the style of the paper's listing.
    pub fn render(&self, cpu: usize) -> Result<String> {
        Ok(Ascii.render(&self.report(cpu)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn report_matches_the_paper_listing_states() {
        let machine = SimMachine::new(MachinePreset::Core2Duo);
        let tool = FeaturesTool::new(&machine);
        let rendered = tool.render(0).unwrap();
        assert!(rendered.contains("Fast-Strings: enabled"));
        assert!(rendered.contains("Hardware Prefetcher: enabled"));
        assert!(rendered.contains("PEBS: supported"));
        assert!(rendered.contains("Intel Dynamic Acceleration: disabled"));
        assert!(rendered.contains("CPU core id: 0"));
    }

    #[test]
    fn disable_and_reenable_the_adjacent_line_prefetcher() {
        // The paper's example: `likwid-features -u CL_PREFETCHER`.
        let machine = SimMachine::new(MachinePreset::Core2Duo);
        let tool = FeaturesTool::new(&machine);
        assert!(tool.prefetcher_enabled(0, Prefetcher::AdjacentLine).unwrap());
        tool.disable_prefetcher(0, Prefetcher::AdjacentLine).unwrap();
        assert!(!tool.prefetcher_enabled(0, Prefetcher::AdjacentLine).unwrap());
        let rendered = tool.render(0).unwrap();
        assert!(rendered.contains("Adjacent Cache Line Prefetch: disabled"));
        // The other prefetchers are untouched.
        assert!(tool.prefetcher_enabled(0, Prefetcher::Hardware).unwrap());
        tool.enable_prefetcher(0, Prefetcher::AdjacentLine).unwrap();
        assert!(tool.prefetcher_enabled(0, Prefetcher::AdjacentLine).unwrap());
    }

    #[test]
    fn toggling_is_rejected_on_non_core2_processors() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let tool = FeaturesTool::new(&machine);
        assert!(!tool.can_toggle());
        assert!(matches!(
            tool.disable_prefetcher(0, Prefetcher::Dcu),
            Err(LikwidError::Unsupported(_))
        ));
        // Reporting still works on Westmere.
        assert!(tool.render(0).is_ok());
    }

    #[test]
    fn amd_has_no_misc_enable() {
        let machine = SimMachine::new(MachinePreset::IstanbulH2S);
        let tool = FeaturesTool::new(&machine);
        assert!(matches!(tool.misc_enable(0), Err(LikwidError::Unsupported(_))));
        assert!(tool.render(0).is_err());
    }

    #[test]
    fn prefetcher_state_is_per_core() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let tool = FeaturesTool::new(&machine);
        tool.disable_prefetcher(2, Prefetcher::Dcu).unwrap();
        assert!(!tool.prefetcher_enabled(2, Prefetcher::Dcu).unwrap());
        assert!(tool.prefetcher_enabled(0, Prefetcher::Dcu).unwrap(), "core 0 is unaffected");
    }
}
