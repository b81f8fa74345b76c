//! Counter programming through the MSR interface.
//!
//! This is the layer of `likwid-perfCtr` that touches hardware registers: it
//! encodes `IA32_PERFEVTSELx` values, enables the fixed-counter and global
//! control registers, and reads counters back — all through an
//! [`MsrDevice`], i.e. through exactly the `rdmsr`/`wrmsr` traffic the real
//! tool generates through `/dev/cpu/<N>/msr`.

use std::sync::atomic::{AtomicU64, Ordering};

use likwid_x86_machine::{
    MachineError, Msr, MsrBatch, MsrDevice, MsrPermission, SimMachine, Vendor,
    MAX_CONSECUTIVE_LIMIT,
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
    /// The event cannot be scheduled on the requested counter slot.
    IncompatibleCounter {
        /// Event name.
        event: String,
        /// Requested slot.
        slot: CounterSlot,
    },
}

impl std::fmt::Display for PerfMonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfMonError::Msr(e) => write!(f, "MSR access failed: {e}"),
            PerfMonError::UnknownCpu(cpu) => {
                write!(f, "cpu {cpu} is not measured by this counter monitor")
            }
            PerfMonError::IncompatibleCounter { event, slot } => {
                write!(f, "event {event} cannot be counted on {}", slot.name())
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

/// Bit positions inside `IA32_PERFEVTSELx`.
pub mod evtsel {
    /// User-mode counting enable.
    pub const USR: u64 = 1 << 16;
    /// Kernel-mode counting enable.
    pub const OS: u64 = 1 << 17;
    /// Edge detection.
    pub const EDGE: u64 = 1 << 18;
    /// APIC interrupt on overflow.
    pub const INT: u64 = 1 << 20;
    /// Count for both SMT threads (Nehalem+).
    pub const ANY_THREAD: u64 = 1 << 21;
    /// Counter enable.
    pub const ENABLE: u64 = 1 << 22;
    /// Invert counter mask comparison.
    pub const INVERT: u64 = 1 << 23;
}

/// Encode a PERFEVTSEL value for an event: event code, umask, USR+OS and the
/// enable bit.
pub fn encode_evtsel(event: &EventDefinition, enabled: bool) -> u64 {
    let mut value =
        (event.event_code as u64 & 0xFF) | ((event.umask as u64) << 8) | evtsel::USR | evtsel::OS;
    if enabled {
        value |= evtsel::ENABLE;
    }
    value
}

/// Extract the `(event_code, umask)` selector from a PERFEVTSEL value.
pub fn decode_selector(evtsel_value: u64) -> u16 {
    (evtsel_value & 0xFFFF) as u16
}

/// Whether a PERFEVTSEL value has its enable bit set.
pub fn is_enabled(evtsel_value: u64) -> bool {
    evtsel_value & evtsel::ENABLE != 0
}

/// The MSR addresses backing one counter slot on a given vendor.
///
/// Returns `(select_register, counter_register)`; fixed counters have no
/// select register of their own (they are controlled by
/// `IA32_FIXED_CTR_CTRL`) and report `None`.
pub fn slot_registers(vendor: Vendor, slot: CounterSlot) -> (Option<u32>, u32) {
    match (vendor, slot) {
        (Vendor::Intel, CounterSlot::Pmc(n)) => {
            (Some(Msr::IA32_PERFEVTSEL0 + n as u32), Msr::IA32_PMC0 + n as u32)
        }
        (Vendor::Intel, CounterSlot::Fixed(n)) => (None, Msr::IA32_FIXED_CTR0 + n as u32),
        (Vendor::Intel, CounterSlot::UncorePmc(n)) => {
            (Some(Msr::MSR_UNCORE_PERFEVTSEL0 + n as u32), Msr::MSR_UNCORE_PMC0 + n as u32)
        }
        (Vendor::Intel, CounterSlot::UncoreFixed) => (None, Msr::MSR_UNCORE_FIXED_CTR0),
        (Vendor::Amd, CounterSlot::Pmc(n)) => {
            (Some(Msr::AMD_PERFEVTSEL0 + n as u32), Msr::AMD_PMC0 + n as u32)
        }
        // AMD parts in this suite have neither fixed nor uncore counters;
        // map them to the first PMC pair so that the error surfaces as an
        // incompatible-counter error at setup time instead of a bogus MSR.
        (Vendor::Amd, _) => (Some(Msr::AMD_PERFEVTSEL0), Msr::AMD_PMC0),
    }
}

/// Treat an absent register as success; propagate every other failure.
fn ignore_unknown(result: Result<(), PerfMonError>) -> Result<(), PerfMonError> {
    match result {
        Ok(()) | Err(PerfMonError::Msr(MachineError::UnknownMsr { .. })) => Ok(()),
        Err(e) => Err(e),
    }
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
    vendor: Vendor,
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
            vendor: machine.vendor(),
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

    /// Set the enable bit of a programmed (nonzero) select register.
    fn enable(&mut self, select: u32) -> Result<(), PerfMonError> {
        let v = self.rd(select)?;
        if v != 0 {
            self.wr(select, v | evtsel::ENABLE)?;
        }
        Ok(())
    }

    /// Clear the enable bit of a programmed (nonzero) select register.
    fn disable(&mut self, select: u32) -> Result<(), PerfMonError> {
        let v = self.rd(select)?;
        if v != 0 {
            self.wr(select, v & !evtsel::ENABLE)?;
        }
        Ok(())
    }

    /// Program `event` into `slot` (disabled; [`CpuCounters::start_slots`]
    /// enables it).
    pub fn setup(
        &mut self,
        slot: CounterSlot,
        event: &EventDefinition,
    ) -> Result<(), PerfMonError> {
        let (select, counter) = slot_registers(self.perfmon.vendor, slot);
        match slot {
            CounterSlot::Fixed(n) => {
                // Fixed counters are controlled by IA32_FIXED_CTR_CTRL: 4 bits
                // per counter, bits 0/1 enable OS/USR counting. Replace the
                // whole field rather than OR-ing so that dirty state left by
                // another tool cannot survive in this counter's bits.
                let ctrl = self.rd(Msr::IA32_FIXED_CTR_CTRL)?;
                let shift = 4 * n as u32;
                self.wr(Msr::IA32_FIXED_CTR_CTRL, (ctrl & !(0xF << shift)) | (0b011 << shift))?;
                self.wr(counter, 0)?;
            }
            CounterSlot::UncoreFixed => {
                self.wr(Msr::MSR_UNCORE_FIXED_CTR_CTRL, 1)?;
                self.wr(counter, 0)?;
            }
            _ => {
                let select = select.expect("PMC slots have a select register");
                self.wr(select, encode_evtsel(event, false))?;
                self.wr(counter, 0)?;
            }
        }
        Ok(())
    }

    /// Verify that the registers backing `slot` still hold the state
    /// [`CpuCounters::setup`] wrote for `event`: the disabled select
    /// encoding and a zeroed counter. A mismatch means the write was lost
    /// (stuck register) or foreign state survived — the caller should
    /// reprogram.
    pub fn verify(&self, slot: CounterSlot, event: &EventDefinition) -> Result<bool, PerfMonError> {
        let (select, counter) = slot_registers(self.perfmon.vendor, slot);
        let select_ok = match slot {
            CounterSlot::Fixed(n) => {
                let ctrl = self.rd(Msr::IA32_FIXED_CTR_CTRL)?;
                (ctrl >> (4 * n as u32)) & 0xF == 0b011
            }
            CounterSlot::UncoreFixed => self.rd(Msr::MSR_UNCORE_FIXED_CTR_CTRL)? == 1,
            _ => {
                let select = select.expect("PMC slots have a select register");
                self.rd(select)? == encode_evtsel(event, false)
            }
        };
        Ok(select_ok && self.rd(counter)? == 0)
    }

    /// Enable counting on exactly the given counter slots, leaving every
    /// other select register untouched and setting only the matching
    /// per-counter bits of the global control registers.
    ///
    /// A measurement knows which slots it programmed, so it enables only
    /// those. Under the `likwid-perfctrd` broker several sessions
    /// time-share the registers, and a suspended session leaves its
    /// selects programmed (disabled); enabling every programmed select on
    /// the cpu would let a foreign time slice count into the suspended
    /// session's counters.
    pub fn start_slots(&mut self, slots: &[CounterSlot]) -> Result<(), PerfMonError> {
        match self.perfmon.vendor {
            Vendor::Intel => {
                let mut global = 0u64;
                let mut uncore_global = 0u64;
                for slot in slots {
                    match slot {
                        // Fixed counters carry their enable in the ctrl
                        // registers written at setup; they only need their
                        // global-control bit.
                        CounterSlot::Fixed(n) => global |= 1 << (32 + *n as u32),
                        CounterSlot::UncoreFixed => uncore_global |= 1 << 32,
                        CounterSlot::Pmc(n) => {
                            global |= 1 << *n as u32;
                            self.enable(Msr::IA32_PERFEVTSEL0 + *n as u32)?;
                        }
                        CounterSlot::UncorePmc(n) => {
                            uncore_global |= 1 << *n as u32;
                            self.enable(Msr::MSR_UNCORE_PERFEVTSEL0 + *n as u32)?;
                        }
                    }
                }
                ignore_unknown(self.wr(Msr::IA32_PERF_GLOBAL_CTRL, global))?;
                ignore_unknown(self.wr(Msr::MSR_UNCORE_PERF_GLOBAL_CTRL, uncore_global))?;
            }
            Vendor::Amd => {
                for slot in slots {
                    if let CounterSlot::Pmc(n) = slot {
                        self.enable(Msr::AMD_PERFEVTSEL0 + *n as u32)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Disable counting of exactly the given counter slots, the mirror of
    /// [`CpuCounters::start_slots`]: clear the global control registers and
    /// the enable bit of each given select register, leaving every other
    /// select untouched. Counters retain their values.
    pub fn stop_slots(&mut self, slots: &[CounterSlot]) -> Result<(), PerfMonError> {
        let vendor = self.perfmon.vendor;
        if vendor == Vendor::Intel {
            ignore_unknown(self.wr(Msr::IA32_PERF_GLOBAL_CTRL, 0))?;
            ignore_unknown(self.wr(Msr::MSR_UNCORE_PERF_GLOBAL_CTRL, 0))?;
        }
        for &slot in slots {
            // AMD parts have only PMCs (see `slot_registers`).
            if vendor == Vendor::Amd && !matches!(slot, CounterSlot::Pmc(_)) {
                continue;
            }
            if let (Some(select), _) = slot_registers(vendor, slot) {
                self.disable(select)?;
            }
        }
        Ok(())
    }

    /// Read the current value of a counter slot.
    pub fn read(&self, slot: CounterSlot) -> Result<u64, PerfMonError> {
        self.rd(slot_registers(self.perfmon.vendor, slot).1)
    }

    /// The machine-side unwrapped value of the counter behind `slot`: not a
    /// device access, never faulted. Wraparound diagnostics compare the
    /// width-corrected deltas of [`CpuCounters::read`] against it.
    pub fn wide_value(&self, slot: CounterSlot) -> Result<u64, PerfMonError> {
        Ok(self.msr.wide_value(slot_registers(self.perfmon.vendor, slot).1)?)
    }

    /// Reset a counter slot to zero.
    pub fn reset(&mut self, slot: CounterSlot) -> Result<(), PerfMonError> {
        self.wr(slot_registers(self.perfmon.vendor, slot).1, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables;
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn evtsel_encoding_round_trips() {
        let t = tables::for_arch(likwid_x86_machine::Microarch::Core2);
        let e = t.find("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE").unwrap();
        let v = encode_evtsel(e, true);
        assert!(is_enabled(v));
        assert_eq!(decode_selector(v), e.selector());
        let v_off = encode_evtsel(e, false);
        assert!(!is_enabled(v_off));
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
        assert_eq!(decode_selector(sel), event.selector());
        assert!(!is_enabled(sel), "setup leaves the counter disabled");

        pm.on_cpu(1).unwrap().start_slots(&[CounterSlot::Pmc(0)]).unwrap();
        assert!(is_enabled(dev.read(Msr::IA32_PERFEVTSEL0).unwrap()));
        assert_eq!(dev.read(Msr::IA32_PERF_GLOBAL_CTRL).unwrap(), 1);

        pm.on_cpu(1).unwrap().stop_slots(&[CounterSlot::Pmc(0)]).unwrap();
        assert!(!is_enabled(dev.read(Msr::IA32_PERFEVTSEL0).unwrap()));
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
        assert!(is_enabled(dev.read(Msr::MSR_UNCORE_PERFEVTSEL0).unwrap()));
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
        assert!(is_enabled(dev.read(Msr::AMD_PERFEVTSEL0 + 2).unwrap()));
        pm.on_cpu(3).unwrap().stop_slots(&[CounterSlot::Pmc(2)]).unwrap();
        assert!(!is_enabled(dev.read(Msr::AMD_PERFEVTSEL0 + 2).unwrap()));
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
