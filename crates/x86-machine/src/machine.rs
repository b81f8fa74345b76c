//! The node-level machine model tying topology, cpuid, MSRs and clock together.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::cache::CacheSpec;
use crate::clock::ClockDomain;
use crate::cpuid::{CpuidResult, CpuidSource};
use crate::error::Result;
use crate::fault::FaultPlan;
use crate::features::Prefetcher;
use crate::msr::{Msr, MsrAccesses, MsrDevice, MsrFile, MsrPermission, MsrSpace};
use crate::presets::{MachinePreset, MemorySystemSpec};
use crate::topology::TopologySpec;
use crate::vendor::{Microarch, Vendor};

/// A simulated shared-memory node.
///
/// `SimMachine` is the single object the rest of the suite talks to. It
/// exposes the same three interfaces the real LIKWID uses on hardware:
///
/// * [`SimMachine::cpuid`] — the `cpuid` instruction, evaluated in the
///   context of a given hardware thread;
/// * [`SimMachine::msr`] — an open `/dev/cpu/<N>/msr`-style device handle
///   with a read-only or read-write permission;
/// * [`SimMachine::topology`] — the ground-truth topology, which tests use
///   to check that the cpuid-decoding path reconstructs it correctly (the
///   tools themselves never look at it).
///
/// The machine is cheap to clone-by-reference (`Arc` internally shared MSR
/// space) and is `Send + Sync`, so the workload execution engine can drive
/// it from multiple worker threads.
pub struct SimMachine {
    preset: MachinePreset,
    arch: Microarch,
    topology: TopologySpec,
    caches: Vec<CacheSpec>,
    clock: ClockDomain,
    memory: MemorySystemSpec,
    msr_space: Arc<RwLock<MsrSpace>>,
}

impl SimMachine {
    /// Instantiate a machine from a preset.
    pub fn new(preset: MachinePreset) -> Self {
        let arch = preset.arch();
        let topology = preset.topology();
        let caches = preset.caches();
        let clock = preset.clock();
        let memory = preset.memory_system();
        let msr_space = Arc::new(RwLock::new(MsrSpace::new(arch, &topology)));

        let machine = SimMachine { preset, arch, topology, caches, clock, memory, msr_space };
        machine.initialize_platform_info();
        machine
    }

    /// Store the clock multiplier in `MSR_PLATFORM_INFO` for Nehalem-class
    /// parts (the real tool reads the nominal clock from there).
    fn initialize_platform_info(&self) {
        if matches!(self.arch, Microarch::NehalemEp | Microarch::WestmereEp) {
            let ratio = self.clock.platform_info_ratio();
            // The register is read-only through the device interface, so use
            // the internal (hardware-side) increment path to set it.
            let _ =
                self.msr_space.write().hardware_increment(0, Msr::MSR_PLATFORM_INFO, ratio << 8);
            // Mirror to the second package if present.
            if self.topology.sockets > 1 {
                let other_socket_cpu = self
                    .topology
                    .hw_threads
                    .iter()
                    .find(|t| t.socket == 1)
                    .map(|t| t.os_id)
                    .unwrap_or(0);
                let _ = self.msr_space.write().hardware_increment(
                    other_socket_cpu,
                    Msr::MSR_PLATFORM_INFO,
                    ratio << 8,
                );
            }
        }
    }

    /// The preset this machine was built from.
    pub fn preset(&self) -> MachinePreset {
        self.preset
    }

    /// Microarchitecture.
    pub fn arch(&self) -> Microarch {
        self.arch
    }

    /// Vendor.
    pub fn vendor(&self) -> Vendor {
        self.arch.vendor()
    }

    /// Ground-truth topology.
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// Static cache hierarchy.
    pub fn caches(&self) -> &[CacheSpec] {
        &self.caches
    }

    /// Nominal clock.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Memory-system parameters (bandwidths, latency, NUMA capacity).
    pub fn memory_system(&self) -> MemorySystemSpec {
        self.memory
    }

    /// Number of hardware threads.
    pub fn num_hw_threads(&self) -> usize {
        self.topology.num_hw_threads()
    }

    /// Execute `cpuid` on hardware thread `cpu`.
    pub fn cpuid(&self, cpu: usize, leaf: u32, subleaf: u32) -> Result<CpuidResult> {
        let source = CpuidSource {
            arch: self.arch,
            topology: &self.topology,
            caches: &self.caches,
            clock: self.clock,
            brand: self.preset.brand(),
        };
        source.query(cpu, leaf, subleaf)
    }

    /// Open the MSR device of hardware thread `cpu`.
    pub fn msr(&self, cpu: usize, permission: MsrPermission) -> Result<MsrDevice> {
        // Validate the cpu index up front, like open(2) on a missing device file.
        self.topology.hw_thread(cpu)?;
        Ok(MsrDevice::new(cpu, permission, Arc::clone(&self.msr_space)))
    }

    /// Internal register file used by the counting engine and the clock.
    pub fn msr_file(&self) -> MsrFile {
        MsrFile::new(Arc::clone(&self.msr_space))
    }

    /// Attach a fault scenario to the MSR device interface. Dirty state is
    /// scribbled immediately; transient/stuck/dead behaviour applies to all
    /// subsequent device accesses. The machine-internal [`MsrFile`] path is
    /// never affected.
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.msr_space.write().attach_faults(plan);
    }

    /// The `rdmsr`/`wrmsr` calls made through this machine's MSR devices
    /// so far. Subtract two readings ([`MsrAccesses::since`]) to count the
    /// accesses of one operation.
    pub fn msr_accesses(&self) -> MsrAccesses {
        self.msr_space.read().device_accesses()
    }

    /// Whether a prefetcher is currently enabled on the core owning `cpu`
    /// (reads `IA32_MISC_ENABLE`; AMD parts have no switchable prefetcher
    /// bits in this model and always report enabled).
    pub fn prefetcher_enabled(&self, cpu: usize, prefetcher: Prefetcher) -> Result<bool> {
        if self.vendor() == Vendor::Amd {
            return Ok(true);
        }
        let value = self.msr_file().read(cpu, Msr::IA32_MISC_ENABLE)?;
        Ok(prefetcher.is_enabled(value))
    }

    /// Human readable one-line description ("CPU name: …", "CPU clock: …").
    pub fn header(&self) -> String {
        format!(
            "CPU name: {}\nCPU type: {}\nCPU clock: {}",
            self.preset.brand(),
            self.arch.display_name(),
            self.clock.display()
        )
    }
}

impl std::fmt::Debug for SimMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMachine")
            .field("preset", &self.preset)
            .field("arch", &self.arch)
            .field("hw_threads", &self.topology.num_hw_threads())
            .field("clock_ghz", &self.clock.ghz())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpuid::{decode_brand_string, decode_vendor_string};

    #[test]
    fn machine_exposes_consistent_views() {
        let m = SimMachine::new(MachinePreset::WestmereEp2S);
        assert_eq!(m.num_hw_threads(), 24);
        assert_eq!(m.caches().len(), 3);
        assert_eq!(m.vendor(), Vendor::Intel);
        assert!(m.header().contains("2.93 GHz"));
    }

    #[test]
    fn cpuid_vendor_and_brand_match_the_preset() {
        let m = SimMachine::new(MachinePreset::IstanbulH2S);
        let leaf0 = m.cpuid(0, 0, 0).unwrap();
        assert_eq!(decode_vendor_string(leaf0), "AuthenticAMD");
        let brand = decode_brand_string([
            m.cpuid(0, 0x8000_0002, 0).unwrap(),
            m.cpuid(0, 0x8000_0003, 0).unwrap(),
            m.cpuid(0, 0x8000_0004, 0).unwrap(),
        ]);
        assert!(brand.contains("Opteron"));
    }

    #[test]
    fn msr_device_permission_model() {
        let m = SimMachine::new(MachinePreset::NehalemEp2S);
        let ro = m.msr(0, MsrPermission::ReadOnly).unwrap();
        assert!(ro.write(Msr::IA32_PMC0, 1).is_err());
        let rw = m.msr(0, MsrPermission::ReadWrite).unwrap();
        rw.write(Msr::IA32_PMC0, 99).unwrap();
        assert_eq!(ro.read(Msr::IA32_PMC0).unwrap(), 99);
        assert!(m.msr(100, MsrPermission::ReadOnly).is_err());
    }

    #[test]
    fn platform_info_encodes_the_clock_ratio() {
        let m = SimMachine::new(MachinePreset::WestmereEp2S);
        let dev = m.msr(0, MsrPermission::ReadOnly).unwrap();
        let info = dev.read(Msr::MSR_PLATFORM_INFO).unwrap();
        let ratio = (info >> 8) & 0xFF;
        assert_eq!(ratio, 22);
        // Both sockets see a ratio.
        let dev_s1 = m.msr(6, MsrPermission::ReadOnly).unwrap();
        assert_eq!((dev_s1.read(Msr::MSR_PLATFORM_INFO).unwrap() >> 8) & 0xFF, 22);
    }

    #[test]
    fn prefetchers_default_to_enabled_and_can_be_disabled() {
        let m = SimMachine::new(MachinePreset::Core2Duo);
        assert!(m.prefetcher_enabled(0, Prefetcher::AdjacentLine).unwrap());
        let dev = m.msr(0, MsrPermission::ReadWrite).unwrap();
        dev.update(Msr::IA32_MISC_ENABLE, Prefetcher::AdjacentLine.disable_bit(), 0).unwrap();
        assert!(!m.prefetcher_enabled(0, Prefetcher::AdjacentLine).unwrap());
        // AMD machines report prefetchers as always enabled.
        let amd = SimMachine::new(MachinePreset::IstanbulH2S);
        assert!(amd.prefetcher_enabled(0, Prefetcher::Hardware).unwrap());
    }

    #[test]
    fn all_presets_instantiate() {
        for &p in MachinePreset::all() {
            let m = SimMachine::new(p);
            assert!(m.num_hw_threads() >= 1);
            assert!(m.cpuid(0, 0, 0).is_ok());
            assert!(m.cpuid(0, 1, 0).is_ok());
        }
    }
}
