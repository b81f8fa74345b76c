//! The counting engine: the "hardware side" of the performance counters.
//!
//! On real silicon, programmed counters advance by themselves while code
//! runs. In the simulation, workload execution produces an [`EventSample`]
//! describing what happened (per hardware thread and per socket), and
//! [`EventEngine::apply`] advances exactly those counter registers that are
//! currently programmed and enabled — by inspecting the PERFEVTSEL/fixed/
//! uncore control MSRs the tool wrote. A counter that was never programmed,
//! or whose enable bit is clear, does not move, which is what makes the
//! wrapper/marker/multiplexing logic of `likwid-perfctr` testable end to
//! end.

use likwid_x86_machine::{Microarch, Msr, SimMachine, Vendor};

use crate::event::EventTable;
use crate::kinds::{EventSample, HwEventKind};
use crate::perfmon::{decode_selector, is_enabled};
use crate::tables;

/// Applies event samples to a machine's programmed counters.
pub struct EventEngine {
    table: EventTable,
    arch: Microarch,
}

impl EventEngine {
    /// Create the engine for a machine (selects the matching event table).
    pub fn new(machine: &SimMachine) -> Self {
        EventEngine { table: tables::for_arch(machine.arch()), arch: machine.arch() }
    }

    /// The event table used to map programmed selectors back to events.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// Credit all programmed and enabled counters of `machine` with the
    /// activity described by `sample`. The machine's register file is
    /// locked once for the whole sample, not once per register access.
    pub fn apply(&self, machine: &SimMachine, sample: &EventSample) {
        match self.arch.vendor() {
            Vendor::Intel => self.apply_intel(machine, sample),
            Vendor::Amd => self.apply_amd(machine, sample),
        }
    }

    fn thread_count(&self, sample: &EventSample, cpu: usize, kind: HwEventKind) -> u64 {
        sample.threads.get(cpu).map(|t| t.get(kind)).unwrap_or(0)
    }

    fn socket_count(&self, sample: &EventSample, socket: usize, kind: HwEventKind) -> u64 {
        sample.sockets.get(socket).map(|s| s.get(kind)).unwrap_or(0)
    }

    fn apply_intel(&self, machine: &SimMachine, sample: &EventSample) {
        let space = machine.msr_file().space();
        let mut msr = space.write();
        let num_pmc = self.arch.num_pmc() as u32;
        let num_fixed = self.arch.num_fixed_counters() as u32;

        for cpu in 0..machine.num_hw_threads() {
            // Global enable: architectures with the global control register
            // gate each counter through its own bit (PMCn through bit n,
            // FIXCn through bit 32+n); older parts only have the per-event
            // enable bits, modeled as an all-ones mask.
            let global = match msr.read(cpu, Msr::IA32_PERF_GLOBAL_CTRL) {
                Ok(v) => v,
                Err(_) => u64::MAX,
            };

            for n in 0..num_pmc {
                let Ok(sel) = msr.read(cpu, Msr::IA32_PERFEVTSEL0 + n) else { continue };
                if !is_enabled(sel) || global & (1 << n) == 0 {
                    continue;
                }
                let Some(event) = self.table.find_by_selector(decode_selector(sel), false) else {
                    continue;
                };
                let delta = if event.kind.is_uncore() {
                    // Some architectures expose package-level quantities
                    // through core counters; credit from the socket record.
                    let socket = machine.topology().hw_threads[cpu].socket as usize;
                    self.socket_count(sample, socket, event.kind)
                } else {
                    self.thread_count(sample, cpu, event.kind)
                };
                if delta > 0 {
                    let _ = msr.hardware_increment(cpu, Msr::IA32_PMC0 + n, delta);
                }
            }

            if num_fixed > 0 {
                if let Ok(ctrl) = msr.read(cpu, Msr::IA32_FIXED_CTR_CTRL) {
                    let fixed_kinds = [
                        HwEventKind::InstructionsRetired,
                        HwEventKind::CoreCycles,
                        HwEventKind::ReferenceCycles,
                    ];
                    for (n, kind) in fixed_kinds.iter().enumerate().take(num_fixed as usize) {
                        let enable = (ctrl >> (4 * n)) & 0b011;
                        if enable != 0 && global & (1 << (32 + n)) != 0 {
                            let delta = self.thread_count(sample, cpu, *kind);
                            if delta > 0 {
                                let _ = msr.hardware_increment(
                                    cpu,
                                    Msr::IA32_FIXED_CTR0 + n as u32,
                                    delta,
                                );
                            }
                        }
                    }
                }
            }
        }

        // Uncore counters are package-scoped: credit them once per socket,
        // through the first hardware thread of that socket.
        if self.arch.has_uncore() {
            let topo = machine.topology();
            for socket in 0..topo.sockets {
                let Some(cpu) =
                    topo.hw_threads.iter().find(|t| t.socket == socket).map(|t| t.os_id)
                else {
                    continue;
                };
                let Ok(global) = msr.read(cpu, Msr::MSR_UNCORE_PERF_GLOBAL_CTRL) else { continue };
                if global == 0 {
                    continue;
                }
                for n in 0..self.arch.num_uncore_pmc() as u32 {
                    let Ok(sel) = msr.read(cpu, Msr::MSR_UNCORE_PERFEVTSEL0 + n) else { continue };
                    if !is_enabled(sel) || global & (1 << n) == 0 {
                        continue;
                    }
                    let Some(event) = self.table.find_by_selector(decode_selector(sel), true)
                    else {
                        continue;
                    };
                    let delta = self.socket_count(sample, socket as usize, event.kind);
                    if delta > 0 {
                        let _ = msr.hardware_increment(cpu, Msr::MSR_UNCORE_PMC0 + n, delta);
                    }
                }
                if let Ok(fixed_ctrl) = msr.read(cpu, Msr::MSR_UNCORE_FIXED_CTR_CTRL) {
                    if fixed_ctrl & 1 != 0 && global & (1 << 32) != 0 {
                        let delta =
                            self.socket_count(sample, socket as usize, HwEventKind::UncoreCycles);
                        if delta > 0 {
                            let _ = msr.hardware_increment(cpu, Msr::MSR_UNCORE_FIXED_CTR0, delta);
                        }
                    }
                }
            }
        }
    }

    fn apply_amd(&self, machine: &SimMachine, sample: &EventSample) {
        let space = machine.msr_file().space();
        let mut msr = space.write();
        for cpu in 0..machine.num_hw_threads() {
            for n in 0..4u32 {
                let Ok(sel) = msr.read(cpu, Msr::AMD_PERFEVTSEL0 + n) else { continue };
                if !is_enabled(sel) {
                    continue;
                }
                let Some(event) = self.table.find_by_selector(decode_selector(sel), false) else {
                    continue;
                };
                let delta = if event.kind.is_uncore() {
                    let socket = machine.topology().hw_threads[cpu].socket as usize;
                    self.socket_count(sample, socket, event.kind)
                } else {
                    self.thread_count(sample, cpu, event.kind)
                };
                if delta > 0 {
                    let _ = msr.hardware_increment(cpu, Msr::AMD_PMC0 + n, delta);
                }
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
    fn programmed_and_enabled_counters_advance() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[1]).unwrap();
        let e = table.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        pm.setup(1, CounterSlot::Pmc(0), e).unwrap();
        pm.start(1).unwrap();

        let mut sample = sample_with(&machine, 1, HwEventKind::SimdPackedDouble, 8_192_000);
        sample.threads[1].set(HwEventKind::InstructionsRetired, 1);
        engine.apply(&machine, &sample);

        assert_eq!(pm.read(1, CounterSlot::Pmc(0)).unwrap(), 8_192_000);
    }

    #[test]
    fn disabled_counters_do_not_advance() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE").unwrap();
        pm.setup(0, CounterSlot::Pmc(1), e).unwrap();
        // No start(): the enable bit stays clear.
        let sample = sample_with(&machine, 0, HwEventKind::SimdScalarDouble, 1000);
        engine.apply(&machine, &sample);
        assert_eq!(pm.read(0, CounterSlot::Pmc(1)).unwrap(), 0);
    }

    #[test]
    fn counters_only_see_their_own_thread() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0, 1]).unwrap();
        let e = table.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        for cpu in [0, 1] {
            pm.setup(cpu, CounterSlot::Pmc(0), e).unwrap();
            pm.start(cpu).unwrap();
        }
        let sample = sample_with(&machine, 1, HwEventKind::SimdPackedDouble, 500);
        engine.apply(&machine, &sample);
        assert_eq!(pm.read(0, CounterSlot::Pmc(0)).unwrap(), 0);
        assert_eq!(pm.read(1, CounterSlot::Pmc(0)).unwrap(), 500);
    }

    #[test]
    fn fixed_counters_count_instructions_and_cycles() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[2]).unwrap();
        pm.setup(2, CounterSlot::Fixed(0), table.find("INSTR_RETIRED_ANY").unwrap()).unwrap();
        pm.setup(2, CounterSlot::Fixed(1), table.find("CPU_CLK_UNHALTED_CORE").unwrap()).unwrap();
        pm.start(2).unwrap();

        let mut sample = EventSample::new(machine.num_hw_threads(), 2);
        sample.threads[2].set(HwEventKind::InstructionsRetired, 18_802_400);
        sample.threads[2].set(HwEventKind::CoreCycles, 28_583_800);
        engine.apply(&machine, &sample);

        assert_eq!(pm.read(2, CounterSlot::Fixed(0)).unwrap(), 18_802_400);
        assert_eq!(pm.read(2, CounterSlot::Fixed(1)).unwrap(), 28_583_800);
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
            pm.setup(cpu, CounterSlot::UncorePmc(0), e).unwrap();
            pm.start(cpu).unwrap();
        }
        let mut sample = EventSample::new(machine.num_hw_threads(), 2);
        sample.sockets[0].set(HwEventKind::L3LinesIn, 591_000_000);
        sample.sockets[1].set(HwEventKind::L3LinesIn, 1_000);
        engine.apply(&machine, &sample);

        assert_eq!(pm.read(0, CounterSlot::UncorePmc(0)).unwrap(), 591_000_000);
        assert_eq!(pm.read(4, CounterSlot::UncorePmc(0)).unwrap(), 1_000);
    }

    #[test]
    fn amd_counters_advance_and_l3_kinds_come_from_the_socket() {
        let machine = SimMachine::new(MachinePreset::IstanbulH2S);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[7]).unwrap();
        pm.setup(7, CounterSlot::Pmc(0), table.find("RETIRED_INSTRUCTIONS").unwrap()).unwrap();
        pm.setup(7, CounterSlot::Pmc(1), table.find("L3_FILLS_ALL_ALL_CORES").unwrap()).unwrap();
        pm.start(7).unwrap();

        let mut sample = EventSample::new(machine.num_hw_threads(), 2);
        sample.threads[7].set(HwEventKind::InstructionsRetired, 42);
        // cpu 7 is on socket 1 of the Istanbul preset (6 cores per socket).
        sample.sockets[1].set(HwEventKind::L3LinesIn, 777);
        sample.sockets[0].set(HwEventKind::L3LinesIn, 111);
        engine.apply(&machine, &sample);

        assert_eq!(pm.read(7, CounterSlot::Pmc(0)).unwrap(), 42);
        assert_eq!(pm.read(7, CounterSlot::Pmc(1)).unwrap(), 777);
    }

    #[test]
    fn applying_twice_accumulates() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("L1D_REPL").unwrap();
        pm.setup(0, CounterSlot::Pmc(0), e).unwrap();
        pm.start(0).unwrap();
        let sample = sample_with(&machine, 0, HwEventKind::L1Misses, 10);
        engine.apply(&machine, &sample);
        engine.apply(&machine, &sample);
        assert_eq!(pm.read(0, CounterSlot::Pmc(0)).unwrap(), 20);
    }

    #[test]
    fn stop_freezes_the_counters() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let engine = EventEngine::new(&machine);
        let table = engine.table().clone();
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("L1D_REPL").unwrap();
        pm.setup(0, CounterSlot::Pmc(0), e).unwrap();
        pm.start(0).unwrap();
        let sample = sample_with(&machine, 0, HwEventKind::L1Misses, 10);
        engine.apply(&machine, &sample);
        pm.stop(0).unwrap();
        engine.apply(&machine, &sample);
        assert_eq!(pm.read(0, CounterSlot::Pmc(0)).unwrap(), 10, "no counting after stop");
    }
}
