//! Event table for the AMD K8 family (Opteron / Athlon 64).
//!
//! K8 is the L3-less predecessor of K10: the same four-counter layout, but
//! no on-die L3 and a narrower floating-point event set.

use crate::event::{CounterClass, EventTable};
use crate::kinds::HwEventKind;
use crate::tables::ev;

/// Build the K8 event table.
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
        ev(
            "DISPATCHED_FPU_OPS_ADD_MUL",
            0x00,
            0x03,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarDouble,
        ),
        ev(
            "SSE_PACKED_DOUBLE_OPS",
            0xCB,
            0x04,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedDouble,
        ),
        ev(
            "SSE_PACKED_SINGLE_OPS",
            0xCB,
            0x01,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedSingle,
        ),
        ev(
            "SSE_SCALAR_SINGLE_OPS",
            0xCB,
            0x02,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarSingle,
        ),
        ev("DATA_CACHE_ACCESSES", 0x40, 0x00, CounterClass::AnyPmc, HwEventKind::L1Accesses),
        ev(
            "DATA_CACHE_REFILLS_L2_OR_SYSTEM",
            0x42,
            0x1E,
            CounterClass::AnyPmc,
            HwEventKind::L1Misses,
        ),
        ev("DATA_CACHE_EVICTED", 0x44, 0x3F, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_REQUESTS_ALL", 0x7D, 0x1F, CounterClass::AnyPmc, HwEventKind::L2Accesses),
        ev("L2_MISSES_ALL", 0x7E, 0x1F, CounterClass::AnyPmc, HwEventKind::L2Misses),
        ev("L2_FILL_WRITEBACK_FILLS", 0x7F, 0x01, CounterClass::AnyPmc, HwEventKind::L2LinesIn),
        ev("DRAM_ACCESSES_PAGE_HIT", 0xE0, 0x01, CounterClass::AnyPmc, HwEventKind::MemoryReads),
        ev("DRAM_ACCESSES_PAGE_MISS", 0xE0, 0x06, CounterClass::AnyPmc, HwEventKind::MemoryWrites),
        ev("LS_DISPATCH_LOADS", 0x29, 0x01, CounterClass::AnyPmc, HwEventKind::LoadsRetired),
        ev("LS_DISPATCH_STORES", 0x29, 0x02, CounterClass::AnyPmc, HwEventKind::StoresRetired),
        ev("RETIRED_BRANCH_INSTR", 0xC2, 0x00, CounterClass::AnyPmc, HwEventKind::BranchesRetired),
        ev(
            "RETIRED_MISPREDICTED_BRANCH_INSTR",
            0xC3,
            0x00,
            CounterClass::AnyPmc,
            HwEventKind::BranchMispredictions,
        ),
        ev("DTLB_L2_MISS", 0x46, 0x00, CounterClass::AnyPmc, HwEventKind::DtlbMisses),
    ];
    EventTable {
        arch_name: "AMD K8",
        num_pmc: 4,
        num_fixed: 0,
        num_uncore_pmc: 0,
        pmc_bits: 48,
        fixed_bits: 0,
        uncore_bits: 0,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k8_has_no_l3_events() {
        let t = table();
        assert!(t.events.iter().all(|e| !e.name.starts_with("L3_")));
        assert_eq!(t.num_pmc, 4);
    }
}
