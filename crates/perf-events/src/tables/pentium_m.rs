//! Event table for the Intel Pentium M microarchitecture (Banias/Dothan).
//!
//! Pentium M predates the architectural fixed counters: instructions and
//! cycles are ordinary programmable events competing for the two counters,
//! exactly the constraint that motivates the multiplexing mode.

use likwid_x86_machine::Microarch;

use crate::event::{CounterClass, EventTable};
use crate::kinds::HwEventKind;
use crate::tables::ev;

/// Build the Pentium M event table.
pub fn table() -> EventTable {
    let events = vec![
        ev("INSTR_RETIRED_ANY", 0xC0, 0x00, CounterClass::AnyPmc, HwEventKind::InstructionsRetired),
        ev("CPU_CLK_UNHALTED", 0x79, 0x00, CounterClass::AnyPmc, HwEventKind::CoreCycles),
        ev(
            "EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_DP",
            0xD8,
            0x04,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedDouble,
        ),
        ev(
            "EMON_SSE_SSE2_COMP_INST_RETIRED_SCALAR_DP",
            0xD8,
            0x08,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarDouble,
        ),
        ev(
            "EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_SP",
            0xD8,
            0x01,
            CounterClass::AnyPmc,
            HwEventKind::SimdPackedSingle,
        ),
        ev(
            "EMON_SSE_SSE2_COMP_INST_RETIRED_SCALAR_SP",
            0xD8,
            0x02,
            CounterClass::AnyPmc,
            HwEventKind::SimdScalarSingle,
        ),
        ev("DATA_MEM_REFS", 0x43, 0x00, CounterClass::AnyPmc, HwEventKind::L1Accesses),
        ev("DCU_LINES_IN", 0x45, 0x00, CounterClass::AnyPmc, HwEventKind::L1Misses),
        ev("L2_LINES_IN", 0x24, 0x00, CounterClass::AnyPmc, HwEventKind::L2LinesIn),
        ev("L2_LINES_OUT", 0x26, 0x00, CounterClass::AnyPmc, HwEventKind::L2LinesOut),
        ev("L2_RQSTS", 0x2E, 0x41, CounterClass::AnyPmc, HwEventKind::L2Accesses),
        ev("L2_RQSTS_MISS", 0x2E, 0x4F, CounterClass::AnyPmc, HwEventKind::L2Misses),
        ev("BUS_TRAN_MEM", 0x6F, 0x00, CounterClass::AnyPmc, HwEventKind::MemoryReads),
        ev("BR_INST_RETIRED", 0xC4, 0x00, CounterClass::AnyPmc, HwEventKind::BranchesRetired),
        ev(
            "BR_MISS_PRED_RETIRED",
            0xC5,
            0x00,
            CounterClass::AnyPmc,
            HwEventKind::BranchMispredictions,
        ),
        ev("DTLB_MISS", 0x49, 0x00, CounterClass::AnyPmc, HwEventKind::DtlbMisses),
    ];
    EventTable { pmu: Microarch::PentiumM.pmu(), events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::pmu::BlockKind;

    #[test]
    fn pentium_m_has_no_fixed_counters() {
        let t = table();
        assert_eq!(t.pmu.count(BlockKind::Fixed), 0);
        // Instructions/cycles are programmable events here.
        assert!(matches!(t.find("INSTR_RETIRED_ANY").unwrap().counters, CounterClass::AnyPmc));
        assert!(matches!(t.find("CPU_CLK_UNHALTED").unwrap().counters, CounterClass::AnyPmc));
    }
}
