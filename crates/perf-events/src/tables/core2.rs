//! Event table for the Intel Core 2 microarchitecture (Merom/Penryn).
//!
//! This is the architecture of the paper's marker-API listing: the
//! `SIMD_COMP_INST_RETIRED_*` events measure retired computational SSE
//! instructions, and the fixed counters provide `INSTR_RETIRED_ANY` and
//! `CPU_CLK_UNHALTED_CORE` "for free".

use likwid_x86_machine::Microarch;

use crate::event::{CounterClass, EventTable};
use crate::kinds::HwEventKind;
use crate::tables::{ev, intel_fixed_events};

/// Build the Core 2 event table.
pub fn table() -> EventTable {
    let mut events = intel_fixed_events();
    events.extend([
        // Floating point (the FLOPS_DP / FLOPS_SP groups).
        ev(
            "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE",
            0xCA,
            0x04,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedDouble,
        ),
        ev(
            "SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE",
            0xCA,
            0x08,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarDouble,
        ),
        ev(
            "SIMD_COMP_INST_RETIRED_PACKED_SINGLE",
            0xCA,
            0x01,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedSingle,
        ),
        ev(
            "SIMD_COMP_INST_RETIRED_SCALAR_SINGLE",
            0xCA,
            0x02,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarSingle,
        ),
        // L1 data cache (CACHE group, L2 bandwidth group).
        ev("L1D_ALL_REF", 0x43, 0x01, CounterClass::AnyPmc, HwEventKind::L1Accesses),
        ev("L1D_REPL", 0x45, 0x0F, CounterClass::AnyPmc, HwEventKind::L1Misses),
        ev("L1D_M_EVICT", 0x47, 0x00, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        // L2 cache (L2CACHE group and L3-less bandwidth estimates).
        ev("L2_LINES_IN_ANY", 0x24, 0x70, CounterClass::AnyPmc, HwEventKind::L2LinesIn),
        ev("L2_LINES_OUT_ANY", 0x26, 0x70, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_RQSTS_REFERENCES", 0x2E, 0x41, CounterClass::AnyPmc, HwEventKind::L2Accesses),
        ev("L2_RQSTS_MISS", 0x2E, 0x4F, CounterClass::AnyPmc, HwEventKind::L2Misses),
        // Memory (front-side bus transactions; MEM group on Core 2).
        ev(
            "BUS_TRANS_MEM_THIS_CORE_THIS_A",
            0x6F,
            0x40,
            CounterClass::AnyPmc,
            HwEventKind::MemoryReads,
        ),
        ev(
            "BUS_TRANS_WB_THIS_CORE_THIS_A",
            0x67,
            0x40,
            CounterClass::AnyPmc,
            HwEventKind::MemoryWrites,
        ),
        // Loads and stores (DATA group).
        ev("INST_RETIRED_LOADS", 0xC0, 0x01, CounterClass::AnyPmc, HwEventKind::LoadsRetired),
        ev("INST_RETIRED_STORES", 0xC0, 0x02, CounterClass::AnyPmc, HwEventKind::StoresRetired),
        // Branches (BRANCH group).
        ev("BR_INST_RETIRED_ANY", 0xC4, 0x00, CounterClass::AnyPmc, HwEventKind::BranchesRetired),
        ev(
            "BR_INST_RETIRED_MISPRED",
            0xC5,
            0x00,
            CounterClass::AnyPmc,
            HwEventKind::BranchMispredictions,
        ),
        // TLB (TLB group).
        ev("DTLB_MISSES_ANY", 0x08, 0x01, CounterClass::AnyPmc, HwEventKind::DtlbMisses),
    ]);
    EventTable { pmu: Microarch::Core2.pmu(), events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::pmu::BlockKind;

    #[test]
    fn packed_and_scalar_double_have_distinct_selectors() {
        let t = table();
        let packed = t.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        let scalar = t.find("SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE").unwrap();
        assert_ne!(packed.selector(), scalar.selector());
        assert_eq!(packed.event_code, 0xCA);
        assert_eq!(packed.umask, 0x04);
    }

    #[test]
    fn core2_has_two_general_purpose_counters() {
        let t = table();
        assert_eq!(t.pmu.count(BlockKind::Pmc), 2);
        let slots = t.allowed_slots(t.find("L1D_REPL").unwrap());
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn no_uncore_events_on_core2() {
        let t = table();
        assert_eq!(t.pmu.count(BlockKind::UncorePmc), 0);
        assert!(t.events.iter().all(|e| !matches!(
            e.counters,
            CounterClass::AnyUncorePmc | CounterClass::UncoreFixed
        )));
    }
}
