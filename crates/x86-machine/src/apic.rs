//! APIC ID construction and decomposition.
//!
//! The hardware numbers every logical processor with an APIC ID. The ID is a
//! bit field: the least significant bits select the SMT thread within a core,
//! the next field selects the core within the package, and the remaining bits
//! select the package (socket). `likwid-topology` reconstructs the node
//! topology from these IDs, either through cpuid leaf 0xB (Nehalem and newer,
//! which reports the field widths directly) or through the legacy method of
//! leaf 0x1/0x4 (maximum logical processor counts rounded up to powers of
//! two).
//!
//! Real BIOSes frequently leave holes in the core-ID space — the Westmere EP
//! listing in the paper shows core IDs 0, 1, 2, 8, 9, 10 on a hexa-core
//! package — so the layout here supports an explicit per-package core-ID
//! table rather than assuming consecutive numbering.

/// Bit-field layout of an APIC ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ApicLayout {
    /// Number of bits used for the SMT (thread-in-core) field.
    pub smt_bits: u32,
    /// Number of bits used for the core-in-package field.
    pub core_bits: u32,
}

impl ApicLayout {
    /// Compute the layout for a package with `threads_per_core` SMT threads
    /// and room for core IDs up to `max_core_id` (inclusive).
    ///
    /// Field widths are the ceiling log2 of the count, exactly as mandated by
    /// the Intel topology enumeration algorithm.
    pub(crate) fn for_counts(threads_per_core: u32, max_core_id: u32) -> Self {
        ApicLayout {
            smt_bits: ceil_log2(threads_per_core.max(1)),
            core_bits: ceil_log2(max_core_id + 1),
        }
    }

    /// Compose an APIC ID from its `(package, core, smt)` coordinates.
    pub(crate) fn compose(&self, package: u32, core_id: u32, smt: u32) -> u32 {
        debug_assert!(smt < (1 << self.smt_bits).max(1));
        debug_assert!(core_id < (1 << self.core_bits).max(1));
        (package << (self.smt_bits + self.core_bits)) | (core_id << self.smt_bits) | smt
    }

    /// Width of the combined SMT+core field, i.e. the shift that isolates the
    /// package number. Reported by cpuid leaf 0xB level 1 ECX/EAX.
    pub fn package_shift(&self) -> u32 {
        self.smt_bits + self.core_bits
    }
}

/// Ceiling of log2 for a non-zero count; 0 maps to 0 bits.
pub fn ceil_log2(count: u32) -> u32 {
    if count <= 1 {
        0
    } else {
        32 - (count - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Split an APIC ID into `(package, core, smt)` the way the topology
    /// probe reads the fields.
    fn decompose(layout: &ApicLayout, apic_id: u32) -> (u32, u32, u32) {
        let smt = apic_id & ((1 << layout.smt_bits) - 1);
        let core = (apic_id >> layout.smt_bits) & ((1 << layout.core_bits) - 1);
        (apic_id >> layout.package_shift(), core, smt)
    }

    #[test]
    fn ceil_log2_basic_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(6), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(12), 4);
    }

    #[test]
    fn compose_decompose_round_trip() {
        // Westmere EP: 2 SMT threads, core IDs up to 10 => 1 smt bit, 4 core bits.
        let layout = ApicLayout::for_counts(2, 10);
        assert_eq!(layout.smt_bits, 1);
        assert_eq!(layout.core_bits, 4);
        for package in 0..2 {
            for core in [0u32, 1, 2, 8, 9, 10] {
                for smt in 0..2 {
                    let id = layout.compose(package, core, smt);
                    assert_eq!(decompose(&layout, id), (package, core, smt));
                }
            }
        }
    }

    #[test]
    fn core2_has_no_smt_bits() {
        let layout = ApicLayout::for_counts(1, 3);
        assert_eq!(layout.smt_bits, 0);
        assert_eq!(layout.core_bits, 2);
        let id = layout.compose(1, 3, 0);
        assert_eq!(decompose(&layout, id), (1, 3, 0));
    }

    #[test]
    fn package_shift_matches_field_widths() {
        let layout = ApicLayout::for_counts(2, 5);
        assert_eq!(layout.package_shift(), layout.smt_bits + layout.core_bits);
    }
}
