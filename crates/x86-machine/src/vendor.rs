//! Processor vendor and microarchitecture identification.
//!
//! LIKWID dispatches all architecture-specific behaviour (event tables,
//! counter register maps, cpuid topology method) on the CPU family/model
//! reported by `cpuid` leaf 0x1 and the vendor string of leaf 0x0. This
//! module captures that identification logic.

/// CPU vendor as reported by the `cpuid` leaf 0x0 vendor string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Vendor {
    /// "GenuineIntel"
    Intel,
    /// "AuthenticAMD"
    Amd,
}

impl Vendor {
    /// The twelve-character vendor string returned in EBX/EDX/ECX of leaf 0x0.
    pub(crate) fn id_string(self) -> &'static str {
        match self {
            Vendor::Intel => "GenuineIntel",
            Vendor::Amd => "AuthenticAMD",
        }
    }

    /// Parse a vendor string back into a [`Vendor`].
    pub fn from_id_string(s: &str) -> Option<Self> {
        match s {
            "GenuineIntel" => Some(Vendor::Intel),
            "AuthenticAMD" => Some(Vendor::Amd),
            _ => None,
        }
    }
}

/// Microarchitectures supported by the tool suite, matching the list in
/// Section II-A of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Microarch {
    /// Intel Pentium M (Banias, Dothan); family 6, model 0x9/0xD.
    PentiumM,
    /// Intel Atom (Diamondville/Silverthorne); family 6, model 0x1C.
    Atom,
    /// Intel Core 2 (Merom/Penryn, 65 nm and 45 nm); family 6, models 0x0F/0x17.
    Core2,
    /// Intel Nehalem (Bloomfield/Gainestown "EP"); family 6, model 0x1A.
    NehalemEp,
    /// Intel Westmere (hexa-core EP); family 6, model 0x2C.
    WestmereEp,
    /// AMD K8 (Opteron/Athlon 64); family 0x0F.
    K8,
    /// AMD K10 (Barcelona, Shanghai, Istanbul); family 0x10.
    K10,
}

impl Microarch {
    /// Vendor this microarchitecture belongs to.
    pub fn vendor(self) -> Vendor {
        match self {
            Microarch::PentiumM
            | Microarch::Atom
            | Microarch::Core2
            | Microarch::NehalemEp
            | Microarch::WestmereEp => Vendor::Intel,
            Microarch::K8 | Microarch::K10 => Vendor::Amd,
        }
    }

    /// The `(family, model)` pair encoded in cpuid leaf 0x1 EAX.
    ///
    /// For family 6 and 15 processors the *display* family/model combines the
    /// base and extended fields; the values here are the display values that
    /// LIKWID's identification switch tests.
    pub fn family_model(self) -> (u32, u32) {
        match self {
            Microarch::PentiumM => (6, 0x0D),
            Microarch::Atom => (6, 0x1C),
            Microarch::Core2 => (6, 0x17),
            Microarch::NehalemEp => (6, 0x1A),
            Microarch::WestmereEp => (6, 0x2C),
            Microarch::K8 => (0x0F, 0x41),
            Microarch::K10 => (0x10, 0x08),
        }
    }

    /// Identify a microarchitecture from the display family/model pair,
    /// mirroring the switch statement in the real tool.
    pub fn from_family_model(vendor: Vendor, family: u32, model: u32) -> Option<Self> {
        match (vendor, family, model) {
            (Vendor::Intel, 6, 0x09) | (Vendor::Intel, 6, 0x0D) => Some(Microarch::PentiumM),
            (Vendor::Intel, 6, 0x1C) => Some(Microarch::Atom),
            (Vendor::Intel, 6, 0x0F) | (Vendor::Intel, 6, 0x17) => Some(Microarch::Core2),
            (Vendor::Intel, 6, 0x1A) | (Vendor::Intel, 6, 0x1E) | (Vendor::Intel, 6, 0x1F) => {
                Some(Microarch::NehalemEp)
            }
            (Vendor::Intel, 6, 0x2C) | (Vendor::Intel, 6, 0x25) => Some(Microarch::WestmereEp),
            (Vendor::Amd, 0x0F, _) => Some(Microarch::K8),
            (Vendor::Amd, 0x10, _) => Some(Microarch::K10),
            _ => None,
        }
    }

    /// Human readable processor name, as printed in the tool headers
    /// ("CPU type: Intel Core 2 45nm processor", …).
    pub fn display_name(self) -> &'static str {
        match self {
            Microarch::PentiumM => "Intel Pentium M processor",
            Microarch::Atom => "Intel Atom processor",
            Microarch::Core2 => "Intel Core 2 45nm processor",
            Microarch::NehalemEp => "Intel Nehalem EP processor",
            Microarch::WestmereEp => "Intel Westmere EP processor",
            Microarch::K8 => "AMD K8 processor",
            Microarch::K10 => "AMD K10 (Istanbul) processor",
        }
    }

    /// Whether the microarchitecture exposes the `cpuid` extended topology
    /// leaf 0xB (introduced with Nehalem).
    pub fn has_leaf_0xb(self) -> bool {
        matches!(self, Microarch::NehalemEp | Microarch::WestmereEp)
    }

    /// Whether the microarchitecture exposes the deterministic cache
    /// parameters leaf 0x4 (introduced with Core 2; Pentium M only has the
    /// descriptor table of leaf 0x2).
    pub fn has_leaf_0x4(self) -> bool {
        matches!(
            self,
            Microarch::Core2 | Microarch::Atom | Microarch::NehalemEp | Microarch::WestmereEp
        )
    }

    /// Whether this is an uncore-capable design (Nehalem and later): the L3
    /// and memory controller are shared per package and counted by dedicated
    /// uncore counters guarded by socket locks in `likwid-perfctr`.
    pub fn has_uncore(self) -> bool {
        matches!(self, Microarch::NehalemEp | Microarch::WestmereEp)
    }

    /// Number of general-purpose core performance counters.
    pub fn num_pmc(self) -> usize {
        match self {
            Microarch::PentiumM | Microarch::Core2 | Microarch::Atom => 2,
            Microarch::NehalemEp | Microarch::WestmereEp => 4,
            Microarch::K8 | Microarch::K10 => 4,
        }
    }

    /// Number of fixed-function counters (INSTR_RETIRED_ANY,
    /// CPU_CLK_UNHALTED_CORE, CPU_CLK_UNHALTED_REF). AMD has none.
    pub fn num_fixed_counters(self) -> usize {
        match self {
            Microarch::Core2 | Microarch::Atom | Microarch::NehalemEp | Microarch::WestmereEp => 3,
            Microarch::PentiumM | Microarch::K8 | Microarch::K10 => 0,
        }
    }

    /// Number of uncore counters per package (Nehalem/Westmere: eight
    /// general-purpose uncore PMCs plus a fixed uncore clock counter).
    pub fn num_uncore_pmc(self) -> usize {
        if self.has_uncore() {
            8
        } else {
            0
        }
    }

    /// All microarchitectures known to the suite.
    pub fn all() -> &'static [Microarch] {
        &[
            Microarch::PentiumM,
            Microarch::Atom,
            Microarch::Core2,
            Microarch::NehalemEp,
            Microarch::WestmereEp,
            Microarch::K8,
            Microarch::K10,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_string_round_trips() {
        for v in [Vendor::Intel, Vendor::Amd] {
            assert_eq!(Vendor::from_id_string(v.id_string()), Some(v));
        }
        assert_eq!(Vendor::from_id_string("CyrixInstead"), None);
    }

    #[test]
    fn family_model_round_trips_for_all_archs() {
        for &arch in Microarch::all() {
            let (family, model) = arch.family_model();
            let identified = Microarch::from_family_model(arch.vendor(), family, model);
            assert_eq!(identified, Some(arch), "{arch:?} should identify itself");
        }
    }

    #[test]
    fn counter_counts_match_the_paper_supported_list() {
        // Core 2: two PMCs plus fixed counters (the paper's FLOPS_DP listing
        // relies on INSTR_RETIRED_ANY / CPU_CLK_UNHALTED_CORE being "always
        // counted" in fixed counters).
        assert_eq!(Microarch::Core2.num_pmc(), 2);
        assert_eq!(Microarch::Core2.num_fixed_counters(), 3);
        // Nehalem EP supports uncore events.
        assert!(Microarch::NehalemEp.has_uncore());
        assert!(!Microarch::Core2.has_uncore());
        // AMD has four PMCs and no fixed counters.
        assert_eq!(Microarch::K10.num_pmc(), 4);
        assert_eq!(Microarch::K10.num_fixed_counters(), 0);
    }

    #[test]
    fn leaf_support_progression() {
        assert!(!Microarch::PentiumM.has_leaf_0x4());
        assert!(Microarch::Core2.has_leaf_0x4());
        assert!(!Microarch::Core2.has_leaf_0xb());
        assert!(Microarch::NehalemEp.has_leaf_0xb());
        assert!(Microarch::WestmereEp.has_leaf_0xb());
    }

    #[test]
    fn unknown_family_model_is_rejected() {
        assert_eq!(Microarch::from_family_model(Vendor::Intel, 6, 0x7F), None);
        assert_eq!(Microarch::from_family_model(Vendor::Amd, 0x17, 0x01), None);
    }
}
