//! Event table for the AMD K10 family (Barcelona, Shanghai, Istanbul).
//!
//! AMD parts have four symmetric general-purpose counters, no fixed
//! counters and — in this generation — no separately counted uncore; the
//! L3 and DRAM events are exposed through the core counters (on real
//! hardware they are northbridge events readable from any core of the
//! package).

use likwid_x86_machine::Microarch;

use crate::event::{CounterClass, EventTable};
use crate::kinds::HwEventKind;
use crate::tables::ev;

/// Build the K10 event table.
pub fn table() -> EventTable {
    let events = vec![
        ev(
            "RETIRED_INSTRUCTIONS",
            0xC0,
            0x00,
            CounterClass::AnyPmc,
            HwEventKind::InstructionsRetired,
        ),
        ev("CPU_CLOCKS_UNHALTED", 0x76, 0x00, CounterClass::AnyPmc, HwEventKind::CoreCycles),
        // Floating point: retired SSE operations split by precision and width.
        ev(
            "RETIRED_SSE_OPS_PACKED_DOUBLE",
            0x03,
            0x10,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedDouble,
        ),
        ev(
            "RETIRED_SSE_OPS_SCALAR_DOUBLE",
            0x03,
            0x20,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarDouble,
        ),
        ev(
            "RETIRED_SSE_OPS_PACKED_SINGLE",
            0x03,
            0x01,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedSingle,
        ),
        ev(
            "RETIRED_SSE_OPS_SCALAR_SINGLE",
            0x03,
            0x02,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarSingle,
        ),
        // Data cache.
        ev("DATA_CACHE_ACCESSES", 0x40, 0x00, CounterClass::AnyPmc, HwEventKind::L1Accesses),
        ev(
            "DATA_CACHE_REFILLS_L2_OR_NORTHBRIDGE",
            0x42,
            0x1E,
            CounterClass::AnyPmc,
            HwEventKind::L1Misses,
        ),
        ev("DATA_CACHE_EVICTED_ALL", 0x44, 0x3F, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        // L2.
        ev("L2_REQUESTS_ALL", 0x7D, 0x1F, CounterClass::AnyPmc, HwEventKind::L2Accesses),
        ev("L2_MISSES_ALL", 0x7E, 0x1F, CounterClass::AnyPmc, HwEventKind::L2Misses),
        ev("L2_FILL_WRITEBACK_FILLS", 0x7F, 0x01, CounterClass::AnyPmc, HwEventKind::L2LinesIn),
        // L3 (northbridge).
        ev(
            "L3_READ_REQUEST_ALL_ALL_CORES",
            0xE0,
            0xF7,
            CounterClass::AnyPmc,
            HwEventKind::L3Accesses,
        ),
        ev("L3_MISSES_ALL_ALL_CORES", 0xE1, 0xF7, CounterClass::AnyPmc, HwEventKind::L3Misses),
        ev("L3_FILLS_ALL_ALL_CORES", 0xE2, 0xF7, CounterClass::AnyPmc, HwEventKind::L3LinesIn),
        ev("L3_EVICTIONS_ALL_ALL_CORES", 0xE3, 0xF7, CounterClass::AnyPmc, HwEventKind::L3LinesOut),
        // DRAM controller.
        ev("DRAM_ACCESSES_DCT0_ALL", 0xE8, 0x07, CounterClass::AnyPmc, HwEventKind::MemoryReads),
        ev("DRAM_ACCESSES_DCT1_ALL", 0xE9, 0x07, CounterClass::AnyPmc, HwEventKind::MemoryWrites),
        // Loads/stores.
        ev("LS_DISPATCH_LOADS", 0x29, 0x01, CounterClass::AnyPmc, HwEventKind::LoadsRetired),
        ev("LS_DISPATCH_STORES", 0x29, 0x02, CounterClass::AnyPmc, HwEventKind::StoresRetired),
        // Branches.
        ev("RETIRED_BRANCH_INSTR", 0xC2, 0x00, CounterClass::AnyPmc, HwEventKind::BranchesRetired),
        ev(
            "RETIRED_MISPREDICTED_BRANCH_INSTR",
            0xC3,
            0x00,
            CounterClass::AnyPmc,
            HwEventKind::BranchMispredictions,
        ),
        // TLB.
        ev("DTLB_L2_MISS_ALL", 0x46, 0x07, CounterClass::AnyPmc, HwEventKind::DtlbMisses),
    ];
    EventTable { pmu: Microarch::K10.pmu(), events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::pmu::BlockKind;

    #[test]
    fn k10_has_four_symmetric_counters_and_no_fixed() {
        let t = table();
        assert_eq!(t.pmu.count(BlockKind::Pmc), 4);
        assert_eq!(t.pmu.count(BlockKind::Fixed), 0);
        assert_eq!(t.allowed_slots(t.find("RETIRED_INSTRUCTIONS").unwrap()).len(), 4);
    }

    #[test]
    fn k10_exposes_l3_events_through_core_counters() {
        let t = table();
        let e = t.find("L3_FILLS_ALL_ALL_CORES").unwrap();
        assert!(matches!(e.counters, CounterClass::AnyPmc));
        assert_eq!(e.kind, HwEventKind::L3LinesIn);
    }
}
