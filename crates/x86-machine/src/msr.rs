//! Model-specific register (MSR) file and device interface.
//!
//! `likwid-perfctr` and `likwid-features` control the hardware exclusively by
//! reading and writing MSRs through the Linux `msr` kernel module, i.e. by
//! `pread`/`pwrite` on `/dev/cpu/<N>/msr` at the register address. This
//! module reproduces that interface: every hardware thread owns a register
//! file whose known registers, scopes (thread / core / package), writability,
//! reserved-bit masks and bit widths follow the Intel SDM and AMD BKDG
//! layouts for the supported microarchitectures.
//!
//! Registers with core or package scope are physically shared: a write
//! through any sibling hardware thread is visible to all threads of that
//! core/package, exactly as on real hardware. This matters for the uncore
//! counters (package scope) that `likwid-perfctr` guards with socket locks,
//! and for the prefetcher bits in `IA32_MISC_ENABLE` (core scope) that
//! `likwid-features` toggles.
//!
//! Every counter read, program and hardware increment of a measurement
//! goes through this file, so [`MsrSpace`] is a flat register file: a
//! direct-mapped index resolves an address to a vector of registers in
//! constant time, each register holding its descriptor and, per scope
//! instance, the architectural value next to its full-width shadow. A tool
//! that programs one cpu's counters locks the file once for the whole
//! sequence ([`MsrDevice::batch`]), not once per `rdmsr`/`wrmsr`.
//!
//! The file counts every device access, read through
//! [`SimMachine::msr_accesses`](crate::SimMachine::msr_accesses): the
//! number of `rdmsr`s and `wrmsr`s a measurement issues is the cost the
//! real tool pays in system calls, and, unlike host time, it is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};

use crate::error::{MachineError, Result};
use crate::fault::{dirty_value, FaultPlan, FaultState};
use crate::topology::TopologySpec;
use crate::vendor::Microarch;

/// Well-known MSR addresses used by the tool suite (Intel SDM / AMD BKDG
/// names).
#[allow(non_snake_case)]
pub mod Msr {
    /// Time-stamp counter.
    pub const IA32_TIME_STAMP_COUNTER: u32 = 0x10;
    /// Platform info (Nehalem+): bits 15:8 hold the maximum non-turbo ratio.
    pub const MSR_PLATFORM_INFO: u32 = 0xCE;
    /// Miscellaneous feature control (prefetchers, SpeedStep, …).
    pub const IA32_MISC_ENABLE: u32 = 0x1A0;

    /// First general-purpose counter (Intel). PMC1..3 follow consecutively.
    pub const IA32_PMC0: u32 = 0xC1;
    /// First performance event select register (Intel).
    pub const IA32_PERFEVTSEL0: u32 = 0x186;
    /// First fixed-function counter (INSTR_RETIRED_ANY).
    pub const IA32_FIXED_CTR0: u32 = 0x309;
    /// Fixed counter 1 (CPU_CLK_UNHALTED_CORE).
    pub const IA32_FIXED_CTR1: u32 = 0x30A;
    /// Fixed counter 2 (CPU_CLK_UNHALTED_REF).
    pub const IA32_FIXED_CTR2: u32 = 0x30B;
    /// Fixed counter control register.
    pub const IA32_FIXED_CTR_CTRL: u32 = 0x38D;
    /// Global status register.
    pub const IA32_PERF_GLOBAL_STATUS: u32 = 0x38E;
    /// Global enable register.
    pub const IA32_PERF_GLOBAL_CTRL: u32 = 0x38F;
    /// Global overflow control register.
    pub const IA32_PERF_GLOBAL_OVF_CTRL: u32 = 0x390;

    /// Nehalem/Westmere uncore global control.
    pub const MSR_UNCORE_PERF_GLOBAL_CTRL: u32 = 0x391;
    /// Nehalem/Westmere uncore global status.
    pub const MSR_UNCORE_PERF_GLOBAL_STATUS: u32 = 0x392;
    /// Nehalem/Westmere uncore overflow control.
    pub const MSR_UNCORE_PERF_GLOBAL_OVF_CTRL: u32 = 0x393;
    /// Uncore fixed counter (uncore clock ticks).
    pub const MSR_UNCORE_FIXED_CTR0: u32 = 0x394;
    /// Uncore fixed counter control.
    pub const MSR_UNCORE_FIXED_CTR_CTRL: u32 = 0x395;
    /// First uncore general-purpose counter; seven more follow consecutively.
    pub const MSR_UNCORE_PMC0: u32 = 0x3B0;
    /// First uncore event select; seven more follow consecutively.
    pub const MSR_UNCORE_PERFEVTSEL0: u32 = 0x3C0;

    /// AMD K8/K10 first event select register; three more follow.
    pub const AMD_PERFEVTSEL0: u32 = 0xC001_0000;
    /// AMD K8/K10 first counter; three more follow.
    pub const AMD_PMC0: u32 = 0xC001_0004;
}

/// Scope of an MSR: which hardware threads observe the same physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsrScope {
    /// One instance per hardware thread.
    Thread,
    /// One instance per physical core, shared by its SMT threads.
    Core,
    /// One instance per package (socket) — the "uncore".
    Package,
}

/// Access permission of an opened MSR device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrPermission {
    /// Device opened read-only (no root): `wrmsr` fails with EACCES.
    ReadOnly,
    /// Device opened read-write.
    ReadWrite,
}

/// Static description of one known MSR.
#[derive(Debug, Clone)]
pub struct MsrDescriptor {
    /// Register address.
    pub address: u32,
    /// Sharing scope.
    pub scope: MsrScope,
    /// Whether `wrmsr` is allowed at all.
    pub writable: bool,
    /// Bits that must be written as zero; writes violating this fail, which
    /// catches programming errors in counter setup code.
    pub reserved_mask: u64,
    /// Number of implemented bits (counters are 40 or 48 bits wide; writes
    /// and reads are masked to this width).
    pub width: u32,
    /// Value after reset / machine construction.
    pub reset_value: u64,
}

impl MsrDescriptor {
    fn value_mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// One scope instance of a register: the architectural value next to its
/// full-64-bit shadow. Counters wrap at their architectural width in
/// `value`, while `wide` accumulates the true total — the wide-counter
/// reference that overflow-correction tests and multi-wrap diagnostics
/// compare against.
#[derive(Debug, Clone, Copy)]
struct Cell {
    value: u64,
    wide: u64,
}

/// One implemented register: its descriptor and one [`Cell`] per scope
/// instance (thread index, global core index, or socket index).
#[derive(Debug)]
struct Register {
    desc: MsrDescriptor,
    cells: Vec<Cell>,
}

/// Low address bits that select an entry of [`MsrSpace`]'s index.
const INDEX_BITS: u32 = 12;
/// Index entry of an address with no register.
const NO_REGISTER: u8 = u8::MAX;

/// The machine-wide MSR state: a flat register file. `registers` is sorted
/// by address, and `index` maps the low 12 bits of an address to
/// the position of the one register with those bits. The register's own
/// address is the tag that rejects every other address, so each access is
/// one table load and one comparison. No two registers of a supported
/// architecture share their low bits: the Intel blocks lie below `0x400`
/// and the AMD blocks at `0xC001_0000..=0xC001_0007`, and
/// [`MsrSpace::new`] asserts it.
#[derive(Debug)]
pub struct MsrSpace {
    registers: Vec<Register>,
    index: Box<[u8]>,
    /// For mapping hardware threads to scope instances.
    thread_core: Vec<usize>,
    thread_socket: Vec<usize>,
    num_threads: usize,
    /// Active fault scenario for device-mediated accesses, if any.
    faults: Option<FaultState>,
    /// Device reads and writes so far, faulted attempts included.
    device_reads: AtomicU64,
    device_writes: AtomicU64,
}

/// The device accesses of a machine's MSR file so far: every `rdmsr` and
/// `wrmsr` through an [`MsrDevice`], including attempts a fault plan
/// failed. Machine-internal accesses (the counting engine, the clock) are
/// not device accesses and are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsrAccesses {
    /// `rdmsr` calls.
    pub reads: u64,
    /// `wrmsr` calls.
    pub writes: u64,
}

impl MsrAccesses {
    /// The accesses made since `earlier`, a reading of the same machine.
    pub fn since(self, earlier: MsrAccesses) -> MsrAccesses {
        MsrAccesses { reads: self.reads - earlier.reads, writes: self.writes - earlier.writes }
    }
}

impl MsrSpace {
    /// Build the MSR space for a microarchitecture and topology.
    pub fn new(arch: Microarch, topo: &TopologySpec) -> Self {
        let thread_core: Vec<usize> = topo
            .hw_threads
            .iter()
            .map(|t| (t.socket * topo.cores_per_socket + t.core_index) as usize)
            .collect();
        let thread_socket: Vec<usize> = topo.hw_threads.iter().map(|t| t.socket as usize).collect();
        let num_threads = topo.num_hw_threads();
        let num_cores = topo.num_cores();
        let num_sockets = topo.sockets as usize;

        let mut map = register_map(arch);
        map.sort_by_key(|desc| desc.address);
        assert!(map.windows(2).all(|w| w[0].address < w[1].address), "duplicate MSR address");
        let registers: Vec<Register> = map
            .into_iter()
            .map(|desc| {
                let instances = match desc.scope {
                    MsrScope::Thread => num_threads,
                    MsrScope::Core => num_cores,
                    MsrScope::Package => num_sockets,
                };
                let reset = Cell { value: desc.reset_value, wide: desc.reset_value };
                Register { cells: vec![reset; instances], desc }
            })
            .collect();
        assert!(registers.len() < NO_REGISTER as usize, "too many MSRs for the index");
        let mut index = vec![NO_REGISTER; 1 << INDEX_BITS].into_boxed_slice();
        for (position, reg) in registers.iter().enumerate() {
            let entry = &mut index[index_entry(reg.desc.address)];
            assert_eq!(*entry, NO_REGISTER, "MSR {:#x} shares its index entry", reg.desc.address);
            *entry = position as u8;
        }
        MsrSpace {
            registers,
            index,
            thread_core,
            thread_socket,
            num_threads,
            faults: None,
            device_reads: AtomicU64::new(0),
            device_writes: AtomicU64::new(0),
        }
    }

    /// The device accesses made so far.
    pub(crate) fn device_accesses(&self) -> MsrAccesses {
        MsrAccesses {
            reads: self.device_reads.load(Ordering::Relaxed),
            writes: self.device_writes.load(Ordering::Relaxed),
        }
    }

    /// The position of the register at `address` in `registers`.
    fn position(&self, address: u32) -> Option<usize> {
        let position = self.index[index_entry(address)] as usize;
        (self.registers.get(position)?.desc.address == address).then_some(position)
    }

    /// Resolve `(cpu, address)` to the register's index and the cpu's scope
    /// instance of it.
    fn locate(&self, cpu: usize, address: u32) -> Result<(usize, usize)> {
        if cpu >= self.num_threads {
            return Err(MachineError::NoSuchCpu { cpu, available: self.num_threads });
        }
        let index = self.position(address).ok_or(MachineError::UnknownMsr { cpu, address })?;
        let instance = match self.registers[index].desc.scope {
            MsrScope::Thread => cpu,
            MsrScope::Core => self.thread_core[cpu],
            MsrScope::Package => self.thread_socket[cpu],
        };
        Ok((index, instance))
    }

    /// Read an MSR as seen from hardware thread `cpu`.
    pub fn read(&self, cpu: usize, address: u32) -> Result<u64> {
        let (index, instance) = self.locate(cpu, address)?;
        let reg = &self.registers[index];
        Ok(reg.cells[instance].value & reg.desc.value_mask())
    }

    /// Write an MSR as seen from hardware thread `cpu`.
    pub fn write(&mut self, cpu: usize, address: u32, value: u64) -> Result<()> {
        let (index, instance) = self.locate(cpu, address)?;
        let reg = &mut self.registers[index];
        if !reg.desc.writable {
            return Err(MachineError::ReadOnlyMsr { cpu, address });
        }
        if value & reg.desc.reserved_mask != 0 {
            return Err(MachineError::ReservedBits {
                cpu,
                address,
                value,
                reserved_mask: reg.desc.reserved_mask,
            });
        }
        let masked = value & reg.desc.value_mask();
        if let Some(cell) = reg.cells.get_mut(instance) {
            *cell = Cell { value: masked, wide: masked };
        }
        Ok(())
    }

    /// Device-mediated read (`rdmsr` through `/dev/cpu/<N>/msr`): subject to
    /// the attached fault plan, unlike the machine-internal
    /// [`MsrSpace::read`] path used by the counting engine and the clock.
    pub(crate) fn device_read(&self, cpu: usize, address: u32) -> Result<u64> {
        self.device_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(faults) = &self.faults {
            faults.check(cpu, address, false)?;
        }
        self.read(cpu, address)
    }

    /// Device-mediated write: subject to the attached fault plan. Writes to
    /// a stuck register are accepted but silently lost, exactly the failure
    /// mode verify-after-write programming exists to catch.
    pub(crate) fn device_write(&mut self, cpu: usize, address: u32, value: u64) -> Result<()> {
        *self.device_writes.get_mut() += 1;
        if let Some(faults) = &self.faults {
            faults.check(cpu, address, true)?;
            if faults.is_stuck(cpu, address) {
                // Validate as usual so stuck registers do not also change
                // the error surface, then drop the value on the floor.
                let (index, _) = self.locate(cpu, address)?;
                if !self.registers[index].desc.writable {
                    return Err(MachineError::ReadOnlyMsr { cpu, address });
                }
                return Ok(());
            }
        }
        self.write(cpu, address, value)
    }

    /// Attach a fault scenario: scribble dirty state if the plan asks for
    /// it, then perturb every subsequent device access per the plan.
    pub(crate) fn attach_faults(&mut self, plan: FaultPlan) {
        if plan.dirty {
            let seed = plan.seed;
            for reg in &mut self.registers {
                let address = reg.desc.address;
                if !reg.desc.writable || !is_perf_register(address) {
                    continue;
                }
                let mask = reg.desc.value_mask() & !reg.desc.reserved_mask;
                for (instance, cell) in reg.cells.iter_mut().enumerate() {
                    let dirty = dirty_value(seed, address, instance) & mask;
                    *cell = Cell { value: dirty, wide: dirty };
                }
            }
        }
        self.faults = Some(FaultState::new(plan));
    }

    /// The full-64-bit shadow value of a register as seen from `cpu`: what a
    /// hypothetical width-unlimited counter would hold. Never subject to
    /// faults — this is the machine-side ground truth that wraparound
    /// corrections are validated against.
    pub fn wide_value(&self, cpu: usize, address: u32) -> Result<u64> {
        let (index, instance) = self.locate(cpu, address)?;
        Ok(self.registers[index].cells[instance].wide)
    }

    /// Internal hook used by the counting engine: add to a counter register
    /// without permission checks (hardware increments are not `wrmsr`s).
    pub fn hardware_increment(&mut self, cpu: usize, address: u32, delta: u64) -> Result<()> {
        let (index, instance) = self.locate(cpu, address)?;
        let reg = &mut self.registers[index];
        let mask = reg.desc.value_mask();
        if let Some(cell) = reg.cells.get_mut(instance) {
            cell.value = cell.value.wrapping_add(delta) & mask;
            cell.wide = cell.wide.wrapping_add(delta);
        }
        Ok(())
    }
}

/// The entry of `address` in [`MsrSpace`]'s index.
fn index_entry(address: u32) -> usize {
    (address & ((1 << INDEX_BITS) - 1)) as usize
}

/// Whether an address belongs to the performance-counting register blocks
/// (counters, event selects, counter control) — the registers a `dirty`
/// fault plan scribbles, mirroring state left behind by another tool.
fn is_perf_register(address: u32) -> bool {
    let in_block = |base: u32, len: u32| address >= base && address < base + len;
    in_block(Msr::IA32_PMC0, 8)
        || in_block(Msr::IA32_PERFEVTSEL0, 8)
        || in_block(Msr::IA32_FIXED_CTR0, 3)
        || address == Msr::IA32_FIXED_CTR_CTRL
        || address == Msr::IA32_PERF_GLOBAL_CTRL
        || address == Msr::IA32_PERF_GLOBAL_OVF_CTRL
        || address == Msr::MSR_UNCORE_PERF_GLOBAL_CTRL
        || address == Msr::MSR_UNCORE_PERF_GLOBAL_OVF_CTRL
        || address == Msr::MSR_UNCORE_FIXED_CTR0
        || address == Msr::MSR_UNCORE_FIXED_CTR_CTRL
        || in_block(Msr::MSR_UNCORE_PMC0, 8)
        || in_block(Msr::MSR_UNCORE_PERFEVTSEL0, 8)
        || in_block(Msr::AMD_PERFEVTSEL0, 4)
        || in_block(Msr::AMD_PMC0, 4)
}

/// A handle to the MSR device of one hardware thread, mirroring an open
/// `/dev/cpu/<N>/msr` file descriptor.
#[derive(Clone)]
pub struct MsrDevice {
    cpu: usize,
    permission: MsrPermission,
    space: Arc<RwLock<MsrSpace>>,
}

impl MsrDevice {
    /// Create a device handle. Normally obtained via
    /// [`crate::machine::SimMachine::msr`].
    pub fn new(cpu: usize, permission: MsrPermission, space: Arc<RwLock<MsrSpace>>) -> Self {
        MsrDevice { cpu, permission, space }
    }

    /// The hardware thread this device refers to.
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// `rdmsr`: read the register at `address`. Subject to any fault plan
    /// attached to the machine.
    pub fn read(&self, address: u32) -> Result<u64> {
        self.space.read().device_read(self.cpu, address)
    }

    /// `wrmsr`: write the register at `address`. Subject to any fault plan
    /// attached to the machine.
    pub fn write(&self, address: u32, value: u64) -> Result<()> {
        self.batch().write(address, value)
    }

    /// Read-modify-write helper: set the bits in `set` and clear the bits in
    /// `clear`.
    pub fn update(&self, address: u32, set: u64, clear: u64) -> Result<u64> {
        let mut msr = self.batch();
        let new = (msr.read(address)? & !clear) | set;
        msr.write(address, new)?;
        Ok(new)
    }

    /// Lock the machine's register file once for a sequence of accesses
    /// through this device. Every access of the batch is the same
    /// `rdmsr`/`wrmsr` as [`MsrDevice::read`]/[`MsrDevice::write`], fault
    /// plan included; only the lock is taken once. No other device or
    /// [`MsrFile`] of the machine can be used while the batch lives.
    pub fn batch(&self) -> MsrBatch<'_> {
        MsrBatch { space: self.space.write(), cpu: self.cpu, permission: self.permission }
    }
}

/// A sequence of one cpu's device accesses under a single lock of the
/// register file (see [`MsrDevice::batch`]).
pub struct MsrBatch<'a> {
    space: RwLockWriteGuard<'a, MsrSpace>,
    cpu: usize,
    permission: MsrPermission,
}

impl MsrBatch<'_> {
    /// `rdmsr`, as [`MsrDevice::read`].
    pub fn read(&self, address: u32) -> Result<u64> {
        self.space.device_read(self.cpu, address)
    }

    /// `wrmsr`, as [`MsrDevice::write`].
    pub fn write(&mut self, address: u32, value: u64) -> Result<()> {
        if self.permission == MsrPermission::ReadOnly {
            return Err(MachineError::PermissionDenied { cpu: self.cpu, address });
        }
        self.space.device_write(self.cpu, address, value)
    }

    /// The machine-side unwrapped shadow of a register
    /// ([`MsrSpace::wide_value`]): not a device access, never faulted.
    pub fn wide_value(&self, address: u32) -> Result<u64> {
        self.space.wide_value(self.cpu, address)
    }
}

/// Per-hardware-thread register file view used by in-machine components
/// (counting engine, clock) that bypass the device permission model.
#[derive(Clone)]
pub struct MsrFile {
    space: Arc<RwLock<MsrSpace>>,
}

impl MsrFile {
    /// Wrap a shared MSR space.
    pub fn new(space: Arc<RwLock<MsrSpace>>) -> Self {
        MsrFile { space }
    }

    /// Direct read (no permission check).
    pub fn read(&self, cpu: usize, address: u32) -> Result<u64> {
        self.space.read().read(cpu, address)
    }

    /// Direct write (no permission check, still validates reserved bits).
    pub fn write(&self, cpu: usize, address: u32, value: u64) -> Result<()> {
        self.space.write().write(cpu, address, value)
    }

    /// Hardware-side counter increment.
    pub fn increment(&self, cpu: usize, address: u32, delta: u64) -> Result<()> {
        self.space.write().hardware_increment(cpu, address, delta)
    }

    /// Shared space handle (for constructing devices).
    pub fn space(&self) -> Arc<RwLock<MsrSpace>> {
        Arc::clone(&self.space)
    }
}

/// Width of the general-purpose counters for an architecture.
fn pmc_width(arch: Microarch) -> u32 {
    match arch {
        Microarch::PentiumM => 40,
        Microarch::Core2 | Microarch::Atom => 40,
        Microarch::NehalemEp | Microarch::WestmereEp => 48,
        Microarch::K8 | Microarch::K10 => 48,
    }
}

/// Build the full register map for a microarchitecture.
pub fn register_map(arch: Microarch) -> Vec<MsrDescriptor> {
    let mut map = Vec::new();
    let pmc_w = pmc_width(arch);

    // Time-stamp counter exists everywhere.
    map.push(MsrDescriptor {
        address: Msr::IA32_TIME_STAMP_COUNTER,
        scope: MsrScope::Thread,
        writable: true,
        reserved_mask: 0,
        width: 64,
        reset_value: 0,
    });

    match arch {
        Microarch::PentiumM
        | Microarch::Atom
        | Microarch::Core2
        | Microarch::NehalemEp
        | Microarch::WestmereEp => {
            // IA32_MISC_ENABLE: core scope. Reserved bits are not enforced
            // here because the OS writes implementation-specific bits.
            map.push(MsrDescriptor {
                address: Msr::IA32_MISC_ENABLE,
                scope: MsrScope::Core,
                writable: true,
                reserved_mask: 0,
                width: 64,
                reset_value: crate::features::MiscEnable::RESET_VALUE,
            });

            let num_pmc = arch.num_pmc();
            for i in 0..num_pmc as u32 {
                map.push(MsrDescriptor {
                    address: Msr::IA32_PMC0 + i,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0,
                    width: pmc_w,
                    reset_value: 0,
                });
                // PERFEVTSEL: bits 63:32 reserved on pre-Nehalem; Nehalem
                // adds AnyThread (21) and the cmask stays in 31:24.
                map.push(MsrDescriptor {
                    address: Msr::IA32_PERFEVTSEL0 + i,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0xFFFF_FFFF_0000_0000,
                    width: 64,
                    reset_value: 0,
                });
            }

            if arch.num_fixed_counters() > 0 {
                for addr in [Msr::IA32_FIXED_CTR0, Msr::IA32_FIXED_CTR1, Msr::IA32_FIXED_CTR2] {
                    map.push(MsrDescriptor {
                        address: addr,
                        scope: MsrScope::Thread,
                        writable: true,
                        reserved_mask: 0,
                        // Fixed-function counters are narrower than the
                        // PMCs: 44 implemented bits, wrapping earlier.
                        width: 44,
                        reset_value: 0,
                    });
                }
                map.push(MsrDescriptor {
                    address: Msr::IA32_FIXED_CTR_CTRL,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0xFFFF_FFFF_FFFF_F000,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::IA32_PERF_GLOBAL_STATUS,
                    scope: MsrScope::Thread,
                    writable: false,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::IA32_PERF_GLOBAL_CTRL,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::IA32_PERF_GLOBAL_OVF_CTRL,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
            }

            if arch.has_uncore() {
                map.push(MsrDescriptor {
                    address: Msr::MSR_UNCORE_PERF_GLOBAL_CTRL,
                    scope: MsrScope::Package,
                    writable: true,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::MSR_UNCORE_PERF_GLOBAL_STATUS,
                    scope: MsrScope::Package,
                    writable: false,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::MSR_UNCORE_PERF_GLOBAL_OVF_CTRL,
                    scope: MsrScope::Package,
                    writable: true,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::MSR_UNCORE_FIXED_CTR0,
                    scope: MsrScope::Package,
                    writable: true,
                    reserved_mask: 0,
                    width: 48,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::MSR_UNCORE_FIXED_CTR_CTRL,
                    scope: MsrScope::Package,
                    writable: true,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                for i in 0..arch.num_uncore_pmc() as u32 {
                    map.push(MsrDescriptor {
                        address: Msr::MSR_UNCORE_PMC0 + i,
                        scope: MsrScope::Package,
                        writable: true,
                        reserved_mask: 0,
                        width: 48,
                        reset_value: 0,
                    });
                    map.push(MsrDescriptor {
                        address: Msr::MSR_UNCORE_PERFEVTSEL0 + i,
                        scope: MsrScope::Package,
                        writable: true,
                        reserved_mask: 0xFFFF_FFFF_0000_0000,
                        width: 64,
                        reset_value: 0,
                    });
                }
            }

            if matches!(arch, Microarch::NehalemEp | Microarch::WestmereEp) {
                map.push(MsrDescriptor {
                    address: Msr::MSR_PLATFORM_INFO,
                    scope: MsrScope::Package,
                    writable: false,
                    reserved_mask: 0,
                    width: 64,
                    // Bits 15:8: maximum non-turbo ratio. Set by the preset.
                    reset_value: 0,
                });
            }
        }
        Microarch::K8 | Microarch::K10 => {
            for i in 0..4u32 {
                map.push(MsrDescriptor {
                    address: Msr::AMD_PERFEVTSEL0 + i,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0,
                    width: 64,
                    reset_value: 0,
                });
                map.push(MsrDescriptor {
                    address: Msr::AMD_PMC0 + i,
                    scope: MsrScope::Thread,
                    writable: true,
                    reserved_mask: 0,
                    width: pmc_w,
                    reset_value: 0,
                });
            }
        }
    }

    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{EnumerationOrder, TopologySpec};

    fn westmere_space() -> MsrSpace {
        let topo = TopologySpec::new(
            2,
            6,
            2,
            Some(vec![0, 1, 2, 8, 9, 10]),
            EnumerationOrder::SmtLast,
            12 << 30,
        )
        .unwrap();
        MsrSpace::new(Microarch::WestmereEp, &topo)
    }

    fn device(space: MsrSpace, cpu: usize, perm: MsrPermission) -> MsrDevice {
        MsrDevice::new(cpu, perm, Arc::new(RwLock::new(space)))
    }

    #[test]
    fn read_write_round_trip() {
        let dev = device(westmere_space(), 0, MsrPermission::ReadWrite);
        dev.write(Msr::IA32_PMC0, 0x1234).unwrap();
        assert_eq!(dev.read(Msr::IA32_PMC0).unwrap(), 0x1234);
    }

    #[test]
    fn unknown_msr_is_rejected() {
        let dev = device(westmere_space(), 0, MsrPermission::ReadWrite);
        assert!(matches!(dev.read(0xDEAD), Err(MachineError::UnknownMsr { .. })));
    }

    #[test]
    fn read_only_device_rejects_writes() {
        let dev = device(westmere_space(), 0, MsrPermission::ReadOnly);
        assert!(matches!(dev.write(Msr::IA32_PMC0, 1), Err(MachineError::PermissionDenied { .. })));
        assert!(dev.read(Msr::IA32_PMC0).is_ok());
    }

    #[test]
    fn read_only_register_rejects_writes() {
        let dev = device(westmere_space(), 0, MsrPermission::ReadWrite);
        assert!(matches!(
            dev.write(Msr::IA32_PERF_GLOBAL_STATUS, 1),
            Err(MachineError::ReadOnlyMsr { .. })
        ));
    }

    #[test]
    fn reserved_bits_are_enforced() {
        let dev = device(westmere_space(), 0, MsrPermission::ReadWrite);
        assert!(matches!(
            dev.write(Msr::IA32_PERFEVTSEL0, 0x1_0000_0000),
            Err(MachineError::ReservedBits { .. })
        ));
    }

    #[test]
    fn counter_width_masks_value_on_write() {
        let dev = device(westmere_space(), 0, MsrPermission::ReadWrite);
        dev.write(Msr::IA32_PMC0, (1u64 << 50) | 5).unwrap();
        assert_eq!(dev.read(Msr::IA32_PMC0).unwrap(), 5, "bits above 48 are dropped");
    }

    #[test]
    fn package_scope_registers_are_shared_within_a_socket() {
        let space = Arc::new(RwLock::new(westmere_space()));
        let dev0 = MsrDevice::new(0, MsrPermission::ReadWrite, Arc::clone(&space));
        let dev5 = MsrDevice::new(5, MsrPermission::ReadWrite, Arc::clone(&space)); // same socket 0
        let dev6 = MsrDevice::new(6, MsrPermission::ReadWrite, Arc::clone(&space)); // socket 1

        dev0.write(Msr::MSR_UNCORE_PMC0, 42).unwrap();
        assert_eq!(dev5.read(Msr::MSR_UNCORE_PMC0).unwrap(), 42);
        assert_eq!(dev6.read(Msr::MSR_UNCORE_PMC0).unwrap(), 0);
    }

    #[test]
    fn core_scope_registers_are_shared_between_smt_siblings() {
        let space = Arc::new(RwLock::new(westmere_space()));
        let dev0 = MsrDevice::new(0, MsrPermission::ReadWrite, Arc::clone(&space));
        let dev12 = MsrDevice::new(12, MsrPermission::ReadWrite, Arc::clone(&space)); // SMT sibling
        let dev1 = MsrDevice::new(1, MsrPermission::ReadWrite, Arc::clone(&space)); // other core

        let before = dev1.read(Msr::IA32_MISC_ENABLE).unwrap();
        dev0.update(Msr::IA32_MISC_ENABLE, 1 << 9, 0).unwrap();
        assert_eq!(dev12.read(Msr::IA32_MISC_ENABLE).unwrap() & (1 << 9), 1 << 9);
        assert_eq!(dev1.read(Msr::IA32_MISC_ENABLE).unwrap(), before);
    }

    #[test]
    fn thread_scope_registers_are_private() {
        let space = Arc::new(RwLock::new(westmere_space()));
        let dev0 = MsrDevice::new(0, MsrPermission::ReadWrite, Arc::clone(&space));
        let dev12 = MsrDevice::new(12, MsrPermission::ReadWrite, Arc::clone(&space));
        dev0.write(Msr::IA32_PMC0, 7).unwrap();
        assert_eq!(dev12.read(Msr::IA32_PMC0).unwrap(), 0);
    }

    #[test]
    fn amd_register_map_has_four_counters_and_no_fixed() {
        let topo =
            TopologySpec::new(2, 6, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, 8 << 30)
                .unwrap();
        let space = MsrSpace::new(Microarch::K10, &topo);
        assert!(space.position(Msr::AMD_PERFEVTSEL0).is_some());
        assert!(space.position(Msr::AMD_PMC0 + 3).is_some());
        assert!(space.position(Msr::IA32_FIXED_CTR0).is_none());
        assert!(space.position(Msr::MSR_UNCORE_PMC0).is_none());
    }

    #[test]
    fn hardware_increment_wraps_at_counter_width() {
        let mut space = westmere_space();
        let max48 = (1u64 << 48) - 1;
        space.write(0, Msr::IA32_PMC0, max48).unwrap();
        space.hardware_increment(0, Msr::IA32_PMC0, 1).unwrap();
        assert_eq!(space.read(0, Msr::IA32_PMC0).unwrap(), 0, "48-bit counter wraps to zero");
    }

    #[test]
    fn fixed_counters_wrap_at_44_bits() {
        let mut space = westmere_space();
        let max44 = (1u64 << 44) - 1;
        space.write(0, Msr::IA32_FIXED_CTR0, max44).unwrap();
        space.hardware_increment(0, Msr::IA32_FIXED_CTR0, 1).unwrap();
        assert_eq!(space.read(0, Msr::IA32_FIXED_CTR0).unwrap(), 0, "44-bit counter wraps");
    }

    #[test]
    fn wide_shadow_tracks_the_unwrapped_total() {
        let mut space = westmere_space();
        let max48 = (1u64 << 48) - 1;
        space.hardware_increment(0, Msr::IA32_PMC0, max48).unwrap();
        space.hardware_increment(0, Msr::IA32_PMC0, 10).unwrap();
        assert_eq!(space.read(0, Msr::IA32_PMC0).unwrap(), 9, "narrow value wrapped");
        assert_eq!(space.wide_value(0, Msr::IA32_PMC0).unwrap(), max48 + 10, "shadow did not");
        // A device write resets both views.
        space.write(0, Msr::IA32_PMC0, 0).unwrap();
        assert_eq!(space.wide_value(0, Msr::IA32_PMC0).unwrap(), 0);
    }

    #[test]
    fn fault_plan_perturbs_devices_but_not_the_machine_side() {
        use crate::fault::{FaultPlan, TransientSpec};
        let mut space = westmere_space();
        space.attach_faults(FaultPlan {
            seed: 3,
            read: Some(TransientSpec { probability: 0.95, max_consecutive: 3 }),
            ..FaultPlan::default()
        });
        let space = Arc::new(RwLock::new(space));
        let dev = MsrDevice::new(0, MsrPermission::ReadWrite, Arc::clone(&space));
        let mut faulted = 0;
        for _ in 0..50 {
            if dev.read(Msr::IA32_PMC0).is_err() {
                faulted += 1;
            }
        }
        assert!(faulted > 0, "a 95% plan must fault the device path");
        // The machine-internal path (counting engine, clock) never faults.
        let file = MsrFile::new(Arc::clone(&space));
        for _ in 0..50 {
            assert!(file.read(0, Msr::IA32_PMC0).is_ok());
        }
    }

    #[test]
    fn stuck_registers_silently_drop_device_writes() {
        use crate::fault::FaultPlan;
        let mut space = westmere_space();
        space.write(0, Msr::IA32_PMC0, 0xBAD).unwrap();
        space.attach_faults(FaultPlan { stuck: vec![(0, Msr::IA32_PMC0)], ..FaultPlan::default() });
        let space = Arc::new(RwLock::new(space));
        let dev = MsrDevice::new(0, MsrPermission::ReadWrite, Arc::clone(&space));
        dev.write(Msr::IA32_PMC0, 0).unwrap();
        assert_eq!(dev.read(Msr::IA32_PMC0).unwrap(), 0xBAD, "write was dropped");
        // Other registers and other cpus are unaffected.
        dev.write(Msr::IA32_PMC0 + 1, 7).unwrap();
        assert_eq!(dev.read(Msr::IA32_PMC0 + 1).unwrap(), 7);
        let dev1 = MsrDevice::new(1, MsrPermission::ReadWrite, space);
        dev1.write(Msr::IA32_PMC0, 5).unwrap();
        assert_eq!(dev1.read(Msr::IA32_PMC0).unwrap(), 5);
    }

    #[test]
    fn dirty_plans_scribble_perf_registers_only() {
        use crate::fault::FaultPlan;
        let mut space = westmere_space();
        let misc_before = space.read(0, Msr::IA32_MISC_ENABLE).unwrap();
        space.attach_faults(FaultPlan { dirty: true, seed: 11, ..FaultPlan::default() });
        assert_ne!(space.read(0, Msr::IA32_PMC0).unwrap(), 0, "counter state is dirty");
        assert_ne!(space.read(0, Msr::IA32_PERFEVTSEL0).unwrap(), 0, "select state is dirty");
        assert_eq!(
            space.read(0, Msr::IA32_MISC_ENABLE).unwrap(),
            misc_before,
            "feature state is untouched"
        );
        assert_eq!(space.read(0, Msr::IA32_TIME_STAMP_COUNTER).unwrap(), 0, "TSC untouched");
        // The scribble respects reserved bits, so reprogramming never trips
        // the reserved-bit check.
        let sel = space.read(0, Msr::IA32_PERFEVTSEL0).unwrap();
        assert_eq!(sel & 0xFFFF_FFFF_0000_0000, 0);
    }

    #[test]
    fn invalid_cpu_is_rejected() {
        let space = westmere_space();
        assert!(matches!(
            space.read(99, Msr::IA32_PMC0),
            Err(MachineError::NoSuchCpu { cpu: 99, .. })
        ));
    }

    #[test]
    fn known_registers_is_sorted_and_nonempty() {
        let space = westmere_space();
        let regs: Vec<u32> = space.registers.iter().map(|reg| reg.desc.address).collect();
        assert!(regs.len() > 20);
        assert!(regs.windows(2).all(|w| w[0] < w[1]));
    }
}
