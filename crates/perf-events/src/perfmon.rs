//! Counter programming through the MSR interface.
//!
//! This is the layer of `likwid-perfCtr` that touches hardware registers: it
//! programs event selects and the fixed-counter and global control
//! registers, and reads counters back — all through an [`MsrDevice`], i.e.
//! through exactly the `rdmsr`/`wrmsr` traffic the real tool generates
//! through `/dev/cpu/<N>/msr`. Every register address and bit field comes
//! from the architecture's layout table in [`likwid_x86_machine::pmu`].

use std::sync::atomic::{AtomicU64, Ordering};

use likwid_x86_machine::msr::MsrScope;
use likwid_x86_machine::pmu::{evtsel, Control, CounterBlock, Pmu};
use likwid_x86_machine::{
    MachineError, MsrBatch, MsrDevice, MsrPermission, SimMachine, MAX_CONSECUTIVE_LIMIT,
};

use crate::event::{CounterSlot, EventDefinition};

/// Attempts per MSR access before a transient `EIO` is treated as permanent.
/// A transient fault channel never fails one register more than
/// [`MAX_CONSECUTIVE_LIMIT`] times in a row, so this bound guarantees that
/// every access under a transient-only fault plan eventually succeeds.
pub const MSR_RETRY_LIMIT: u32 = MAX_CONSECUTIVE_LIMIT + 2;

/// Retry accounting of one [`PerfMon`]: how often accesses were retried and
/// how many deterministic backoff units (2^attempt, capped) were spent.
/// Purely informational — retries never change measured values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsrRetryStats {
    /// Individual MSR accesses that had to be repeated.
    pub retries: u64,
    /// Sum of the exponential backoff units spent waiting between attempts.
    pub backoff_units: u64,
}

/// Errors from counter programming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfMonError {
    /// The underlying MSR access failed.
    Msr(MachineError),
    /// The monitor has no MSR device open for this hardware thread.
    UnknownCpu(usize),
    /// The machine has no counter behind this slot: its architecture lacks
    /// the slot's counter class, or has fewer counters of it.
    NoSuchCounter(CounterSlot),
}

impl std::fmt::Display for PerfMonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfMonError::Msr(e) => write!(f, "MSR access failed: {e}"),
            PerfMonError::UnknownCpu(cpu) => {
                write!(f, "cpu {cpu} is not measured by this counter monitor")
            }
            PerfMonError::NoSuchCounter(slot) => {
                write!(f, "this machine has no counter {}", slot.name())
            }
        }
    }
}

impl std::error::Error for PerfMonError {}

impl From<MachineError> for PerfMonError {
    fn from(e: MachineError) -> Self {
        PerfMonError::Msr(e)
    }
}

/// Encode a select value for an event: selector, USR, OS and, if
/// `enabled`, the enable bit.
pub(crate) fn encode_evtsel(event: &EventDefinition, enabled: bool) -> u64 {
    let value = evtsel::SELECTOR.write(0, event.selector() as u64);
    let value = evtsel::OS.write(evtsel::USR.write(value, 1), 1);
    evtsel::ENABLE.write(value, enabled as u64)
}

/// The counter block behind `slot` on `pmu` and the slot's counter in it,
/// or `None` when the architecture has no such counter.
pub fn slot_counter(pmu: &Pmu, slot: CounterSlot) -> Option<(&'static CounterBlock, u32)> {
    let (kind, n) = slot.block();
    pmu.block(kind).filter(|block| n < block.count).map(|block| (block, n))
}

/// Counter programming for the hardware threads of one machine.
///
/// A `PerfMon` owns one read-write MSR device per hardware thread it
/// measures, mirroring the real tool which opens one `/dev/cpu/<N>/msr` file
/// descriptor per measured core. All programming goes through
/// [`PerfMon::on_cpu`], which locks the machine's register file once for a
/// cpu's whole sequence of accesses.
///
/// Every MSR access is retried up to [`MSR_RETRY_LIMIT`] times with
/// deterministic exponential backoff on transient `EIO` failures, so an
/// `MsrIo` error escaping a `PerfMon` method means the register is
/// *permanently* unreachable (e.g. the cpu dropped out mid-run).
pub struct PerfMon {
    pmu: &'static Pmu,
    devices: Vec<(usize, MsrDevice)>,
    retries: AtomicU64,
    backoff_units: AtomicU64,
}

impl PerfMon {
    /// Open MSR devices for the given hardware threads.
    pub fn new(machine: &SimMachine, cpus: &[usize]) -> Result<Self, PerfMonError> {
        let mut devices = Vec::with_capacity(cpus.len());
        for &cpu in cpus {
            devices.push((cpu, machine.msr(cpu, MsrPermission::ReadWrite)?));
        }
        Ok(PerfMon {
            pmu: machine.arch().pmu(),
            devices,
            retries: AtomicU64::new(0),
            backoff_units: AtomicU64::new(0),
        })
    }

    /// Retry accounting since this monitor was created.
    pub fn retry_stats(&self) -> MsrRetryStats {
        MsrRetryStats {
            retries: self.retries.load(Ordering::Relaxed),
            backoff_units: self.backoff_units.load(Ordering::Relaxed),
        }
    }

    /// Account one repeated attempt; returns whether another try is allowed.
    fn note_retry(&self, attempt: u32) -> bool {
        if attempt + 1 >= MSR_RETRY_LIMIT {
            return false;
        }
        self.retries.fetch_add(1, Ordering::Relaxed);
        // Deterministic exponential backoff, capped: 2, 4, 8, ... units. The
        // simulator does not sleep; the units are accounted so callers can
        // report how much backoff a real run would have spent.
        self.backoff_units.fetch_add(1u64 << (attempt + 1).min(10), Ordering::Relaxed);
        true
    }

    /// The hardware threads this monitor controls.
    pub fn cpus(&self) -> Vec<usize> {
        self.devices.iter().map(|(cpu, _)| *cpu).collect()
    }

    /// The counters of hardware thread `cpu`, with the machine's register
    /// file locked until the returned handle is dropped. No other device of
    /// the machine can be used meanwhile.
    pub fn on_cpu(&self, cpu: usize) -> Result<CpuCounters<'_>, PerfMonError> {
        let (_, device) =
            self.devices.iter().find(|(c, _)| *c == cpu).ok_or(PerfMonError::UnknownCpu(cpu))?;
        Ok(CpuCounters { perfmon: self, msr: device.batch() })
    }
}

/// One hardware thread's counters, programmed under a single lock of the
/// register file (see [`PerfMon::on_cpu`]). Each method issues exactly the
/// `rdmsr`/`wrmsr` sequence it documents, each access retried on
/// transient `EIO`.
pub struct CpuCounters<'a> {
    perfmon: &'a PerfMon,
    msr: MsrBatch<'a>,
}

impl CpuCounters<'_> {
    /// `rdmsr` with bounded retry on transient EIO.
    fn rd(&self, address: u32) -> Result<u64, PerfMonError> {
        let mut attempt = 0;
        loop {
            match self.msr.read(address) {
                Err(MachineError::MsrIo { .. }) if self.perfmon.note_retry(attempt) => attempt += 1,
                other => return Ok(other?),
            }
        }
    }

    /// `wrmsr` with bounded retry on transient EIO.
    fn wr(&mut self, address: u32, value: u64) -> Result<(), PerfMonError> {
        let mut attempt = 0;
        loop {
            match self.msr.write(address, value) {
                Err(MachineError::MsrIo { .. }) if self.perfmon.note_retry(attempt) => attempt += 1,
                other => return Ok(other?),
            }
        }
    }

    /// The counter block behind `slot` and the slot's counter in it.
    fn counter(&self, slot: CounterSlot) -> Result<(&'static CounterBlock, u32), PerfMonError> {
        slot_counter(self.perfmon.pmu, slot).ok_or(PerfMonError::NoSuchCounter(slot))
    }

    /// Set the enable bit of a programmed (nonzero) select register.
    fn enable(&mut self, select: u32) -> Result<(), PerfMonError> {
        let v = self.rd(select)?;
        if v != 0 {
            self.wr(select, evtsel::ENABLE.write(v, 1))?;
        }
        Ok(())
    }

    /// Clear the enable bit of a programmed (nonzero) select register.
    fn disable(&mut self, select: u32) -> Result<(), PerfMonError> {
        let v = self.rd(select)?;
        if v != 0 {
            self.wr(select, evtsel::ENABLE.write(v, 0))?;
        }
        Ok(())
    }

    /// Program `event` into `slot` (disabled; [`CpuCounters::start_slots`]
    /// enables it) and zero its counter.
    ///
    /// A select is written whole. So is a control register that holds one
    /// counter's field alone; one shared by several counters is read and
    /// only this counter's field rewritten, replaced rather than OR-ed so
    /// that dirty state left by another tool cannot survive in it.
    pub fn setup(
        &mut self,
        slot: CounterSlot,
        event: &EventDefinition,
    ) -> Result<(), PerfMonError> {
        let (block, n) = self.counter(slot)?;
        let register = block.control_register(n);
        let value = match block.control {
            Control::Select { .. } => encode_evtsel(event, false),
            Control::Shared { field, enable, .. } => {
                let ctrl = if block.count == 1 { 0 } else { self.rd(register)? };
                field.nth(n).write(ctrl, enable)
            }
        };
        self.wr(register, value)?;
        self.wr(block.counter(n), 0)
    }

    /// Verify that the registers backing `slot` still hold the state
    /// [`CpuCounters::setup`] wrote for `event`: the disabled select
    /// encoding or the programmed control field, and a zeroed counter. A
    /// mismatch means the write was lost (stuck register) or foreign state
    /// survived — the caller should reprogram.
    pub fn verify(&self, slot: CounterSlot, event: &EventDefinition) -> Result<bool, PerfMonError> {
        let (block, n) = self.counter(slot)?;
        let ctrl = self.rd(block.control_register(n))?;
        let control_ok = match block.control {
            Control::Select { .. } => ctrl == encode_evtsel(event, false),
            Control::Shared { field, enable, .. } if block.count == 1 => {
                ctrl == field.write(0, enable)
            }
            Control::Shared { field, enable, .. } => field.nth(n).read(ctrl) == enable,
        };
        Ok(control_ok && self.rd(block.counter(n))? == 0)
    }

    /// Enable counting on exactly the given counter slots, leaving every
    /// other select register untouched and setting only the matching
    /// enable bits of the global control registers. A thread-scoped global
    /// control is written on every start; a package-scoped one (the
    /// uncore's) only when one of its slots is among `slots`, so a cpu that
    /// does not own its socket's uncore never touches it. Slots the
    /// machine has no counter for are skipped: [`CpuCounters::setup`]
    /// refuses them.
    ///
    /// A measurement knows which slots it programmed, so it enables only
    /// those. Under the `likwid-perfctrd` broker several sessions
    /// time-share the registers, and a suspended session leaves its
    /// selects programmed (disabled); enabling every programmed select on
    /// the cpu would let a foreign time slice count into the suspended
    /// session's counters.
    pub fn start_slots(&mut self, slots: &[CounterSlot]) -> Result<(), PerfMonError> {
        let pmu = self.perfmon.pmu;
        // The enable bits for the thread-scoped global control, which every
        // start writes, and for the package-scoped one, written only when
        // one of the slots sits behind it.
        let (mut thread, mut package) = (0, None);
        for (block, n) in slots.iter().filter_map(|&slot| slot_counter(pmu, slot)) {
            if let Control::Select { .. } = block.control {
                self.enable(block.control_register(n))?;
            }
            if let Some(global) = block.global {
                let bits = match global.control.scope {
                    MsrScope::Package => package.get_or_insert(0),
                    _ => &mut thread,
                };
                *bits = global.first.nth(n).write(*bits, 1);
            }
        }
        for global in pmu.globals {
            let bits = if global.scope == MsrScope::Package { package } else { Some(thread) };
            if let Some(bits) = bits {
                self.wr(global.ctrl, bits)?;
            }
        }
        Ok(())
    }

    /// Disable counting of exactly the given counter slots, the mirror of
    /// [`CpuCounters::start_slots`]: clear the global control registers
    /// (a package-scoped one only when one of its slots is given) and the
    /// enable bit of each given select register, leaving every other
    /// select untouched. Counters retain their values.
    pub fn stop_slots(&mut self, slots: &[CounterSlot]) -> Result<(), PerfMonError> {
        let pmu = self.perfmon.pmu;
        let uncore = slots.iter().any(|slot| slot.is_uncore());
        for global in pmu.globals {
            if uncore || global.scope != MsrScope::Package {
                self.wr(global.ctrl, 0)?;
            }
        }
        for (block, n) in slots.iter().filter_map(|&slot| slot_counter(pmu, slot)) {
            if let Control::Select { .. } = block.control {
                self.disable(block.control_register(n))?;
            }
        }
        Ok(())
    }

    /// Read the current value of a counter slot.
    pub fn read(&self, slot: CounterSlot) -> Result<u64, PerfMonError> {
        let (block, n) = self.counter(slot)?;
        self.rd(block.counter(n))
    }

    /// The machine-side unwrapped value of the counter behind `slot`: not a
    /// device access, never faulted. Wraparound diagnostics compare the
    /// width-corrected deltas of [`CpuCounters::read`] against it.
    pub fn wide_value(&self, slot: CounterSlot) -> Result<u64, PerfMonError> {
        let (block, n) = self.counter(slot)?;
        Ok(self.msr.wide_value(block.counter(n))?)
    }

    /// Reset a counter slot to zero.
    pub fn reset(&mut self, slot: CounterSlot) -> Result<(), PerfMonError> {
        let (block, n) = self.counter(slot)?;
        self.wr(block.counter(n), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tables, EventEngine, EventSample};
    use likwid_x86_machine::{MachinePreset, Msr, MsrAccesses};

    #[test]
    fn evtsel_encoding_round_trips() {
        let t = tables::for_arch(likwid_x86_machine::Microarch::Core2);
        let e = t.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        let v = encode_evtsel(e, true);
        assert!(evtsel::ENABLE.is_set(v));
        assert_eq!(evtsel::SELECTOR.read(v), e.selector() as u64);
        let v_off = encode_evtsel(e, false);
        assert!(!evtsel::ENABLE.is_set(v_off));
    }

    #[test]
    fn setup_writes_the_expected_registers() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let table = tables::for_arch(machine.arch());
        let pm = PerfMon::new(&machine, &[1]).unwrap();
        let event = table.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        pm.on_cpu(1).unwrap().setup(CounterSlot::Pmc(0), event).unwrap();

        let dev = machine.msr(1, MsrPermission::ReadOnly).unwrap();
        let sel = dev.read(Msr::IA32_PERFEVTSEL0).unwrap();
        assert_eq!(evtsel::SELECTOR.read(sel), event.selector() as u64);
        assert!(!evtsel::ENABLE.is_set(sel), "setup leaves the counter disabled");

        pm.on_cpu(1).unwrap().start_slots(&[CounterSlot::Pmc(0)]).unwrap();
        assert!(evtsel::ENABLE.is_set(dev.read(Msr::IA32_PERFEVTSEL0).unwrap()));
        assert_eq!(dev.read(Msr::IA32_PERF_GLOBAL_CTRL).unwrap(), 1);

        pm.on_cpu(1).unwrap().stop_slots(&[CounterSlot::Pmc(0)]).unwrap();
        assert!(!evtsel::ENABLE.is_set(dev.read(Msr::IA32_PERFEVTSEL0).unwrap()));
        assert_eq!(dev.read(Msr::IA32_PERF_GLOBAL_CTRL).unwrap(), 0);
    }

    #[test]
    fn fixed_counter_setup_uses_the_fixed_ctrl_register() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let table = tables::for_arch(machine.arch());
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let instr = table.find("INSTR_RETIRED_ANY").unwrap();
        pm.on_cpu(0).unwrap().setup(CounterSlot::Fixed(0), instr).unwrap();
        let dev = machine.msr(0, MsrPermission::ReadOnly).unwrap();
        assert_eq!(dev.read(Msr::IA32_FIXED_CTR_CTRL).unwrap() & 0xF, 0b011);
    }

    #[test]
    fn uncore_counter_setup_and_read() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let table = tables::for_arch(machine.arch());
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let e = table.find("UNC_L3_LINES_IN_ANY").unwrap();
        pm.on_cpu(0).unwrap().setup(CounterSlot::UncorePmc(0), e).unwrap();
        pm.on_cpu(0).unwrap().start_slots(&[CounterSlot::UncorePmc(0)]).unwrap();
        let dev = machine.msr(0, MsrPermission::ReadOnly).unwrap();
        assert!(evtsel::ENABLE.is_set(dev.read(Msr::MSR_UNCORE_PERFEVTSEL0).unwrap()));
        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::UncorePmc(0)).unwrap(), 0);
    }

    #[test]
    fn amd_counters_use_the_amd_register_block() {
        let machine = SimMachine::new(MachinePreset::IstanbulH2S);
        let table = tables::for_arch(machine.arch());
        let pm = PerfMon::new(&machine, &[3]).unwrap();
        let e = table.find("RETIRED_INSTRUCTIONS").unwrap();
        pm.on_cpu(3).unwrap().setup(CounterSlot::Pmc(2), e).unwrap();
        pm.on_cpu(3).unwrap().start_slots(&[CounterSlot::Pmc(2)]).unwrap();
        let dev = machine.msr(3, MsrPermission::ReadOnly).unwrap();
        assert!(evtsel::ENABLE.is_set(dev.read(Msr::AMD_PERFEVTSEL0 + 2).unwrap()));
        pm.on_cpu(3).unwrap().stop_slots(&[CounterSlot::Pmc(2)]).unwrap();
        assert!(!evtsel::ENABLE.is_set(dev.read(Msr::AMD_PERFEVTSEL0 + 2).unwrap()));
    }

    #[test]
    fn a_slot_without_a_counter_is_refused_without_a_device_access() {
        for (preset, pmcs) in [(MachinePreset::IstanbulH2S, 4), (MachinePreset::PentiumM, 2)] {
            let machine = SimMachine::new(preset);
            let table = tables::for_arch(machine.arch());
            let event = &table.events[0];
            let pm = PerfMon::new(&machine, &[0]).unwrap();
            let pmc0 = slot_counter(machine.arch().pmu(), CounterSlot::Pmc(0)).unwrap();
            machine.msr_file().increment(0, pmc0.0.counter(pmc0.1), 77).unwrap();
            let absent = [
                CounterSlot::Fixed(0),
                CounterSlot::Fixed(1),
                CounterSlot::UncorePmc(0),
                CounterSlot::UncoreFixed,
                CounterSlot::Pmc(pmcs),
            ];
            for slot in absent {
                let refused = Some(PerfMonError::NoSuchCounter(slot));
                let before = machine.msr_accesses();
                let mut cpu = pm.on_cpu(0).unwrap();
                assert_eq!(cpu.read(slot).err(), refused, "{preset:?} read {slot:?}");
                assert_eq!(cpu.wide_value(slot).err(), refused, "{preset:?} {slot:?}");
                assert_eq!(cpu.reset(slot).err(), refused, "{preset:?} reset {slot:?}");
                assert_eq!(cpu.setup(slot, event).err(), refused, "{preset:?} setup {slot:?}");
                assert_eq!(cpu.verify(slot, event).err(), refused, "{preset:?} verify {slot:?}");
                drop(cpu);
                assert_eq!(machine.msr_accesses(), before, "{preset:?} {slot:?} touched a device");
                assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(0)), Ok(77), "{preset:?}");
            }
            let err = PerfMonError::NoSuchCounter(CounterSlot::Fixed(1));
            assert_eq!(err.to_string(), "this machine has no counter FIXC1");
        }
    }

    #[test]
    fn pentium_m_starts_and_stops_through_its_selects_alone() {
        let machine = SimMachine::new(MachinePreset::PentiumM);
        let engine = EventEngine::new(&machine);
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        let events = ["INSTR_RETIRED_ANY", "CPU_CLK_UNHALTED"]
            .map(|name| engine.table().find(name).unwrap());
        let slots = [CounterSlot::Pmc(0), CounterSlot::Pmc(1)];
        let mut cpu = pm.on_cpu(0).unwrap();
        for (slot, event) in slots.into_iter().zip(events) {
            cpu.setup(slot, event).unwrap();
        }
        drop(cpu);
        let mut sample = EventSample::new(machine.num_hw_threads(), 1);
        sample.threads[0].add(events[0].kind, 1000);
        sample.threads[0].add(events[1].kind, 500);

        // Each select is read and rewritten, and nothing else: a write to a
        // register the part lacks would also fail the start or the stop.
        let selects = MsrAccesses { reads: 2, writes: 2 };
        let before = machine.msr_accesses();
        pm.on_cpu(0).unwrap().start_slots(&slots).unwrap();
        assert_eq!(machine.msr_accesses().since(before), selects, "start");
        engine.apply(&machine, &sample);
        let before = machine.msr_accesses();
        pm.on_cpu(0).unwrap().stop_slots(&slots).unwrap();
        assert_eq!(machine.msr_accesses().since(before), selects, "stop");
        engine.apply(&machine, &sample);
        let cpu = pm.on_cpu(0).unwrap();
        assert_eq!((cpu.read(slots[0]), cpu.read(slots[1])), (Ok(1000), Ok(500)));
    }

    #[test]
    fn reset_zeroes_a_counter() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        // Put a value into PMC0 directly through the machine side.
        machine.msr_file().increment(0, Msr::IA32_PMC0, 123).unwrap();
        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 123);
        pm.on_cpu(0).unwrap().reset(CounterSlot::Pmc(0)).unwrap();
        assert_eq!(pm.on_cpu(0).unwrap().read(CounterSlot::Pmc(0)).unwrap(), 0);
    }

    #[test]
    fn unknown_cpu_is_an_error() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        assert!(PerfMon::new(&machine, &[99]).is_err());
        let pm = PerfMon::new(&machine, &[0]).unwrap();
        // cpu 3 exists on the machine but was not opened by this monitor;
        // the error names the cpu, not a counter.
        let err = pm.on_cpu(3).err().expect("cpu 3 is not measured");
        assert_eq!(err, PerfMonError::UnknownCpu(3));
        assert_eq!(err.to_string(), "cpu 3 is not measured by this counter monitor");
    }
}
