//! The counting engine: the "hardware side" of the performance counters.
//!
//! On real silicon, programmed counters advance by themselves while code
//! runs. In the simulation, workload execution produces an [`EventSample`]
//! describing what happened (per hardware thread and per socket), and
//! [`EventEngine::apply`] advances exactly those counter registers that are
//! currently programmed and enabled — by reading the select, control and
//! global control registers the tool wrote, block by block of the
//! architecture's layout table ([`likwid_x86_machine::pmu`]). A counter
//! that was never programmed, or whose enable bit is clear, does not move,
//! which is what makes the wrapper/marker/multiplexing logic of
//! `likwid-perfctr` testable end to end.

use likwid_x86_machine::msr::{MsrScope, MsrSpace};
use likwid_x86_machine::pmu::{evtsel, BlockKind, Control, CounterBlock, Pmu};
use likwid_x86_machine::SimMachine;

use crate::event::{CounterClass, CounterSlot, EventTable};
use crate::kinds::{EventSample, HwEventKind};
use crate::tables;

/// Applies event samples to a machine's programmed counters.
pub struct EventEngine {
    table: EventTable,
    pmu: &'static Pmu,
    /// `((selector, uncore), kind)` for every selector of the table, sorted
    /// by key: the kind of the first table event with that selector, looked
    /// up by binary search instead of a table scan per counter credit.
    kinds: Vec<((u16, bool), HwEventKind)>,
    /// The kind each counter of a shared-control block counts: that of the
    /// table event pinned to the counter (`CounterClass::Fixed(n)`,
    /// `CounterClass::UncoreFixed`).
    fixed: Vec<((BlockKind, u32), HwEventKind)>,
}

impl EventEngine {
    /// Create the engine for a machine (selects the matching event table).
    pub fn new(machine: &SimMachine) -> Self {
        let table = tables::for_arch(machine.arch());
        let mut kinds: Vec<_> =
            table.events.iter().map(|e| ((e.selector(), e.counters.is_uncore()), e.kind)).collect();
        // A stable sort keeps table order among equal keys, so dedup keeps
        // the first event of the table, as a table scan would.
        kinds.sort_by_key(|&(key, _)| key);
        kinds.dedup_by_key(|&mut (key, _)| key);
        let fixed = table
            .events
            .iter()
            .filter_map(|e| match e.counters {
                CounterClass::Fixed(n) => Some((CounterSlot::Fixed(n).block(), e.kind)),
                CounterClass::UncoreFixed => Some((CounterSlot::UncoreFixed.block(), e.kind)),
                CounterClass::AnyPmc | CounterClass::AnyUncorePmc => None,
            })
            .collect();
        EventEngine { table, pmu: machine.arch().pmu(), kinds, fixed }
    }

    /// The kind a programmed select value counts, if its selector names an
    /// event of the table in the given counter class.
    fn kind_of(&self, select: u64, uncore: bool) -> Option<HwEventKind> {
        let key = (evtsel::SELECTOR.read(select) as u16, uncore);
        let at = self.kinds.binary_search_by_key(&key, |&(key, _)| key).ok()?;
        Some(self.kinds[at].1)
    }

    /// The event table used to map programmed selectors back to events.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// Credit all programmed and enabled counters of `machine` with the
    /// activity described by `sample`. The machine's register file is
    /// locked once for the whole sample, not once per register access.
    pub fn apply(&self, machine: &SimMachine, sample: &EventSample) {
        let space = machine.msr_file().space();
        let mut msr = space.write();
        let topo = machine.topology();
        for block in self.pmu.blocks {
            if block.scope == MsrScope::Package {
                // Package-scoped counters are credited once per socket,
                // through the first hardware thread of that socket.
                for socket in 0..topo.sockets {
                    if let Some(first) = topo.hw_threads.iter().find(|t| t.socket == socket) {
                        self.credit(&mut msr, block, first.os_id, socket as usize, sample);
                    }
                }
            } else {
                for (cpu, thread) in topo.hw_threads.iter().enumerate() {
                    self.credit(&mut msr, block, cpu, thread.socket as usize, sample);
                }
            }
        }
    }

    /// Credit the programmed and enabled counters of `block` as seen from
    /// `cpu`, which sits on `socket`. Inlined into [`EventEngine::apply`]:
    /// called once per block and cpu, it cost more than the register reads
    /// it saves.
    #[inline(always)]
    fn credit(
        &self,
        msr: &mut MsrSpace,
        block: &CounterBlock,
        cpu: usize,
        socket: usize,
        sample: &EventSample,
    ) {
        // A block gates each counter through its global enable bit; a block
        // without one has only the per-counter enables, and
        // `global_enables` ignores the value it is given.
        let Ok(global) = block.global.map_or(Ok(u64::MAX), |g| msr.read(cpu, g.control.ctrl))
        else {
            return;
        };
        let enabled = block.global_enables(global);
        let uncore = block.scope == MsrScope::Package;
        for n in (0..block.count).filter(|n| enabled >> n & 1 == 1) {
            let Ok(ctrl) = msr.read(cpu, block.control_register(n)) else { continue };
            let kind = match block.control {
                Control::Select { .. } if evtsel::ENABLE.is_set(ctrl) => self.kind_of(ctrl, uncore),
                Control::Shared { field, enable, .. } if field.nth(n).read(ctrl) & enable != 0 => {
                    self.fixed.iter().find(|(at, _)| *at == (block.kind, n)).map(|&(_, kind)| kind)
                }
                _ => None,
            };
            let Some(kind) = kind else { continue };
            // Package-level quantities come from the socket record, also
            // where an architecture counts them on core counters.
            let delta = if uncore || kind.is_uncore() {
                sample.sockets.get(socket).map_or(0, |s| s.get(kind))
            } else {
                sample.threads.get(cpu).map_or(0, |t| t.get(kind))
            };
            if delta > 0 {
                let _ = msr.hardware_increment(cpu, block.counter(n), delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CounterSlot;
    use crate::perfmon::PerfMon;
    use likwid_x86_machine::MachinePreset;

    fn sample_with(machine: &SimMachine, cpu: usize, kind: HwEventKind, value: u64) -> EventSample {
        let mut s = EventSample::new(machine.num_hw_threads(), machine.topology().sockets as usize);
        s.threads[cpu].set(kind, value);
        s
    }

    #[test]
    fn the_selector_index_resolves_what_the_table_scan_finds() {
        for &preset in MachinePreset::all() {
            let machine = SimMachine::new(preset);
            let engine = EventEngine::new(&machine);
            let table = engine.table();
            for event in &table.events {
                let select = crate::perfmon::encode_evtsel(event, true);
                for uncore in [false, true] {
                    let scanned = table.find_by_selector(event.selector(), uncore).map(|e| e.kind);
                    assert_eq!(
                        engine.kind_of(select, uncore),
                        scanned,
                        "{preset:?} {}",
                        event.name
                    );
                }
            }
        }
    }

    #[test]
    fn programmed_and_enabled_counters_advance() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[1]).unwrap();
        let e = table.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        pm.on_cpu(1).unwrap().setup(CounterSlot::Pmc(0), e).unwrap();
        pm.on_cpu(1).unwrap().start_slots(&[CounterSlot::Pmc(0)]).unwrap();

        let mut sample = sample_with(&machine, 1, HwEventKind::SimdPackedDouble, 8_192_000);
        sample.threads[1].set(HwEventKind::InstructionsRetired, 1);
        engine.apply(&machine, &sample);

        assert_eq!(pm.on_cpu(1).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 8_192_000);
    }

    #[test]
    fn disabled_counters_do_not_advance() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE").unwrap();
        pm.on_cpu(0).unwrap().setup(CounterSlot::Pmc(1), e).unwrap();
        // No start_slots(): the enable bit stays clear.
        let sample = sample_with(&machine, 0, HwEventKind::SimdScalarDouble, 1000);
        engine.apply(&machine, &sample);
        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(1)).unwrap(), 0);
    }

    #[test]
    fn counters_only_see_their_own_thread() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0, 1]).unwrap();
        let e = table.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        for cpu in [0, 1] {
            pm.on_cpu(cpu).unwrap().setup(CounterSlot::Pmc(0), e).unwrap();
            pm.on_cpu(cpu).unwrap().start_slots(&[CounterSlot::Pmc(0)]).unwrap();
        }
        let sample = sample_with(&machine, 1, HwEventKind::SimdPackedDouble, 500);
        engine.apply(&machine, &sample);
        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 0);
        assert_eq!(pm.on_cpu(1).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 500);
    }

    #[test]
    fn fixed_counters_count_instructions_and_cycles() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[2]).unwrap();
        pm.on_cpu(2)
            .unwrap()
            .setup(CounterSlot::Fixed(0), table.find("INSTR_RETIRED_ANY").unwrap())
            .unwrap();
        pm.on_cpu(2)
            .unwrap()
            .setup(CounterSlot::Fixed(1), table.find("CPU_CLK_UNHALTED_CORE").unwrap())
            .unwrap();
        pm.on_cpu(2).unwrap().start_slots(&[CounterSlot::Fixed(0), CounterSlot::Fixed(1)]).unwrap();

        let mut sample = EventSample::new(machine.num_hw_threads(), 2);
        sample.threads[2].set(HwEventKind::InstructionsRetired, 18_802_400);
        sample.threads[2].set(HwEventKind::CoreCycles, 28_583_800);
        engine.apply(&machine, &sample);

        assert_eq!(pm.on_cpu(2).unwrap().read(CounterSlot::Fixed(0)).unwrap(), 18_802_400);
        assert_eq!(pm.on_cpu(2).unwrap().read(CounterSlot::Fixed(1)).unwrap(), 28_583_800);
    }

    #[test]
    fn uncore_counters_are_per_socket() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        // Socket 0's first thread is cpu 0; socket 1's first thread is cpu 4.
        let pm = PerfMon::new(&machine, &[0, 4]).unwrap();
        let e = table.find("UNC_L3_LINES_IN_ANY").unwrap();
        for cpu in [0usize, 4] {
            pm.on_cpu(cpu).unwrap().setup(CounterSlot::UncorePmc(0), e).unwrap();
            pm.on_cpu(cpu).unwrap().start_slots(&[CounterSlot::UncorePmc(0)]).unwrap();
        }
        let mut sample = EventSample::new(machine.num_hw_threads(), 2);
        sample.sockets[0].set(HwEventKind::L3LinesIn, 591_000_000);
        sample.sockets[1].set(HwEventKind::L3LinesIn, 1_000);
        engine.apply(&machine, &sample);

        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::UncorePmc(0)).unwrap(), 591_000_000);
        assert_eq!(pm.on_cpu(4).unwrap().read(CounterSlot::UncorePmc(0)).unwrap(), 1_000);
    }

    #[test]
    fn amd_counters_advance_and_l3_kinds_come_from_the_socket() {
        let machine = SimMachine::new(MachinePreset::IstanbulH2S);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[7]).unwrap();
        pm.on_cpu(7)
            .unwrap()
            .setup(CounterSlot::Pmc(0), table.find("RETIRED_INSTRUCTIONS").unwrap())
            .unwrap();
        pm.on_cpu(7)
            .unwrap()
            .setup(CounterSlot::Pmc(1), table.find("L3_FILLS_ALL_ALL_CORES").unwrap())
            .unwrap();
        pm.on_cpu(7).unwrap().start_slots(&[CounterSlot::Pmc(0), CounterSlot::Pmc(1)]).unwrap();

        let mut sample = EventSample::new(machine.num_hw_threads(), 2);
        sample.threads[7].set(HwEventKind::InstructionsRetired, 42);
        // cpu 7 is on socket 1 of the Istanbul preset (6 cores per socket).
        sample.sockets[1].set(HwEventKind::L3LinesIn, 777);
        sample.sockets[0].set(HwEventKind::L3LinesIn, 111);
        engine.apply(&machine, &sample);

        assert_eq!(pm.on_cpu(7).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 42);
        assert_eq!(pm.on_cpu(7).unwrap().read(CounterSlot::Pmc(1)).unwrap(), 777);
    }

    #[test]
    fn applying_twice_accumulates() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("L1D_REPL").unwrap();
        pm.on_cpu(0).unwrap().setup(CounterSlot::Pmc(0), e).unwrap();
        pm.on_cpu(0).unwrap().start_slots(&[CounterSlot::Pmc(0)]).unwrap();
        let sample = sample_with(&machine, 0, HwEventKind::L1Misses, 10);
        engine.apply(&machine, &sample);
        engine.apply(&machine, &sample);
        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 20);
    }

    #[test]
    fn stop_freezes_the_counters() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("L1D_REPL").unwrap();
        pm.on_cpu(0).unwrap().setup(CounterSlot::Pmc(0), e).unwrap();
        pm.on_cpu(0).unwrap().start_slots(&[CounterSlot::Pmc(0)]).unwrap();
        let sample = sample_with(&machine, 0, HwEventKind::L1Misses, 10);
        engine.apply(&machine, &sample);
        pm.on_cpu(0).unwrap().stop_slots(&[CounterSlot::Pmc(0)]).unwrap();
        engine.apply(&machine, &sample);
        assert_eq!(
            pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(0)).unwrap(),
            10,
            "no counting after stop"
        );
    }
}
