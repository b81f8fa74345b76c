//! Event table for the Intel Nehalem EP microarchitecture.
//!
//! Nehalem introduces the uncore: the L3 cache and the integrated memory
//! controller are package-level resources with their own counters. The
//! uncore events `UNC_L3_LINES_IN_ANY` / `UNC_L3_LINES_OUT_ANY` are the ones
//! measured in Table II of the paper, and the `UNC_QMC_*` events provide the
//! memory bandwidth of the MEM group.

use crate::event::{CounterClass, EventTable};
use crate::kinds::HwEventKind;
use crate::tables::{ev, intel_fixed_events};

/// Build the Nehalem EP event table.
pub fn table() -> EventTable {
    let mut events = intel_fixed_events();
    events.extend(core_events());
    events.extend(uncore_events());
    EventTable {
        arch_name: "Intel Nehalem EP",
        num_pmc: 4,
        num_fixed: 3,
        num_uncore_pmc: 8,
        pmc_bits: 48,
        fixed_bits: 44,
        uncore_bits: 48,
        events,
    }
}

/// Core (per hardware thread) events shared by Nehalem and Westmere.
pub(crate) fn core_events() -> Vec<crate::event::EventDefinition> {
    vec![
        // Floating point.
        ev(
            "FP_COMP_OPS_EXE_SSE_FP_PACKED",
            0x10,
            0x10,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedDouble,
        ),
        ev(
            "FP_COMP_OPS_EXE_SSE_FP_SCALAR",
            0x10,
            0x20,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarDouble,
        ),
        ev(
            "FP_COMP_OPS_EXE_SSE_SINGLE_PRECISION",
            0x10,
            0x40,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedSingle,
        ),
        ev(
            "FP_COMP_OPS_EXE_SSE_DOUBLE_PRECISION",
            0x10,
            0x80,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarSingle,
        ),
        // L1 / L2 traffic.
        ev("L1D_ALL_REF_ANY", 0x43, 0x01, CounterClass::AnyPmc, HwEventKind::L1Accesses),
        ev("L1D_REPL", 0x51, 0x01, CounterClass::AnyPmc, HwEventKind::L1Misses),
        ev("L1D_M_EVICT", 0x51, 0x04, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_LINES_IN_ANY", 0xF1, 0x07, CounterClass::AnyPmc, HwEventKind::L2LinesIn),
        ev("L2_LINES_OUT_ANY", 0xF2, 0x0F, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_RQSTS_REFERENCES", 0x24, 0xFF, CounterClass::AnyPmc, HwEventKind::L2Accesses),
        ev("L2_RQSTS_MISS", 0x24, 0xAA, CounterClass::AnyPmc, HwEventKind::L2Misses),
        // Loads/stores.
        ev("MEM_INST_RETIRED_LOADS", 0x0B, 0x01, CounterClass::AnyPmc, HwEventKind::LoadsRetired),
        ev("MEM_INST_RETIRED_STORES", 0x0B, 0x02, CounterClass::AnyPmc, HwEventKind::StoresRetired),
        // Branches.
        ev(
            "BR_INST_RETIRED_ALL_BRANCHES",
            0xC4,
            0x04,
            CounterClass::AnyPmc,
            HwEventKind::BranchesRetired,
        ),
        ev(
            "BR_MISP_RETIRED_ALL_BRANCHES",
            0xC5,
            0x04,
            CounterClass::AnyPmc,
            HwEventKind::BranchMispredictions,
        ),
        // TLB.
        ev("DTLB_MISSES_ANY", 0x49, 0x01, CounterClass::AnyPmc, HwEventKind::DtlbMisses),
    ]
}

/// Uncore (per package) events shared by Nehalem and Westmere.
pub(crate) fn uncore_events() -> Vec<crate::event::EventDefinition> {
    vec![
        ev("UNC_L3_HITS_ANY", 0x08, 0x03, CounterClass::AnyUncorePmc, HwEventKind::L3Accesses),
        ev("UNC_L3_MISS_ANY", 0x09, 0x03, CounterClass::AnyUncorePmc, HwEventKind::L3Misses),
        ev("UNC_L3_LINES_IN_ANY", 0x0A, 0x0F, CounterClass::AnyUncorePmc, HwEventKind::L3LinesIn),
        ev("UNC_L3_LINES_OUT_ANY", 0x0B, 0x0F, CounterClass::AnyUncorePmc, HwEventKind::L3LinesOut),
        ev(
            "UNC_QMC_NORMAL_READS_ANY",
            0x2C,
            0x07,
            CounterClass::AnyUncorePmc,
            HwEventKind::MemoryReads,
        ),
        ev(
            "UNC_QMC_WRITES_FULL_ANY",
            0x2D,
            0x07,
            CounterClass::AnyUncorePmc,
            HwEventKind::MemoryWrites,
        ),
        ev("UNC_CLK_UNHALTED", 0x00, 0x01, CounterClass::UncoreFixed, HwEventKind::UncoreCycles),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_events_are_uncore_events() {
        let t = table();
        for name in ["UNC_L3_LINES_IN_ANY", "UNC_L3_LINES_OUT_ANY"] {
            let e = t.find(name).unwrap();
            assert!(matches!(e.counters, CounterClass::AnyUncorePmc), "{name} must be uncore");
        }
    }

    #[test]
    fn nehalem_has_four_pmcs_and_eight_uncore_pmcs() {
        let t = table();
        assert_eq!(t.num_pmc, 4);
        assert_eq!(t.num_uncore_pmc, 8);
        assert_eq!(t.allowed_slots(t.find("L1D_REPL").unwrap()).len(), 4);
        assert_eq!(t.allowed_slots(t.find("UNC_L3_LINES_IN_ANY").unwrap()).len(), 8);
    }

    #[test]
    fn memory_bandwidth_events_exist() {
        let t = table();
        assert!(t.find("UNC_QMC_NORMAL_READS_ANY").is_some());
        assert!(t.find("UNC_QMC_WRITES_FULL_ANY").is_some());
    }
}
