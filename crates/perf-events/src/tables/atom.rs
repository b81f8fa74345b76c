//! Event table for the Intel Atom microarchitecture (Bonnell).
//!
//! Atom exposes the Core-2-style SIMD retired-instruction events and the
//! architectural fixed counters, with two general-purpose counters.

use likwid_x86_machine::Microarch;

use crate::event::{CounterClass, EventTable};
use crate::kinds::HwEventKind;
use crate::tables::{ev, intel_fixed_events};

/// Build the Atom event table.
pub fn table() -> EventTable {
    let mut events = intel_fixed_events();
    events.extend([
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
        ev("L1D_CACHE_LD", 0x40, 0x21, CounterClass::AnyPmc, HwEventKind::L1Accesses),
        ev("L1D_CACHE_REPL", 0x45, 0x0F, CounterClass::AnyPmc, HwEventKind::L1Misses),
        ev("L1D_M_EVICT", 0x47, 0x00, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_LINES_IN_ANY", 0x24, 0x70, CounterClass::AnyPmc, HwEventKind::L2LinesIn),
        ev("L2_LINES_OUT_ANY", 0x26, 0x70, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_RQSTS_REFERENCES", 0x2E, 0x41, CounterClass::AnyPmc, HwEventKind::L2Accesses),
        ev("L2_RQSTS_MISS", 0x2E, 0x4F, CounterClass::AnyPmc, HwEventKind::L2Misses),
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
        ev("INST_RETIRED_LOADS", 0xC0, 0x01, CounterClass::AnyPmc, HwEventKind::LoadsRetired),
        ev("INST_RETIRED_STORES", 0xC0, 0x02, CounterClass::AnyPmc, HwEventKind::StoresRetired),
        ev("BR_INST_RETIRED_ANY", 0xC4, 0x00, CounterClass::AnyPmc, HwEventKind::BranchesRetired),
        ev(
            "BR_INST_RETIRED_MISPRED",
            0xC5,
            0x00,
            CounterClass::AnyPmc,
            HwEventKind::BranchMispredictions,
        ),
        ev("DATA_TLB_MISSES_DTLB_MISS", 0x08, 0x07, CounterClass::AnyPmc, HwEventKind::DtlbMisses),
    ]);
    EventTable { pmu: Microarch::Atom.pmu(), events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::pmu::BlockKind;

    #[test]
    fn atom_supports_the_flops_dp_events() {
        let t = table();
        assert!(t.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").is_some());
        assert!(t.find("SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE").is_some());
        assert_eq!(t.pmu.count(BlockKind::Pmc), 2);
    }
}
