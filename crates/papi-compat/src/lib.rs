//! A minimal PAPI-style library baseline.
//!
//! Section III of the paper compares LIKWID against PAPI. PAPI's model is a
//! *library-first* one: the application links against it, creates event
//! sets, maps preset events (`PAPI_DP_OPS`, `PAPI_TOT_CYC`, …) onto native
//! events, and starts/stops/reads the set around the code of interest. To
//! make the Table I comparison concrete — and to measure the API-overhead
//! difference the paper alludes to — this crate implements that model over
//! the same MSR/counter substrate the LIKWID tools use.
//!
//! The implementation intentionally mirrors PAPI's C API shape
//! (`PAPI_library_init`, `PAPI_create_eventset`, `PAPI_add_event`,
//! `PAPI_start`/`PAPI_stop`/`PAPI_read`) so the comparison bench can run
//! the same measurement through both interfaces.

use std::collections::HashMap;

use likwid_perf_events::perfmon::CpuCounters;
use likwid_perf_events::{tables, CounterSlot, EventDefinition, EventTable, PerfMon, PerfMonError};
use likwid_x86_machine::SimMachine;

/// PAPI-style preset events, mapped per architecture onto native events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum PapiPreset {
    /// Total instructions executed.
    PAPI_TOT_INS,
    /// Total cycles.
    PAPI_TOT_CYC,
    /// Double precision vector/SIMD operations.
    PAPI_DP_OPS,
    /// Single precision vector/SIMD operations.
    PAPI_SP_OPS,
    /// Level 1 data cache misses.
    PAPI_L1_DCM,
    /// Level 2 cache misses.
    PAPI_L2_TCM,
    /// Conditional branch instructions mispredicted.
    PAPI_BR_MSP,
    /// Data TLB misses.
    PAPI_TLB_DM,
}

impl PapiPreset {
    /// All presets.
    pub fn all() -> &'static [PapiPreset] {
        &[
            PapiPreset::PAPI_TOT_INS,
            PapiPreset::PAPI_TOT_CYC,
            PapiPreset::PAPI_DP_OPS,
            PapiPreset::PAPI_SP_OPS,
            PapiPreset::PAPI_L1_DCM,
            PapiPreset::PAPI_L2_TCM,
            PapiPreset::PAPI_BR_MSP,
            PapiPreset::PAPI_TLB_DM,
        ]
    }

    /// The preset name as written in PAPI-instrumented code.
    pub fn name(self) -> &'static str {
        match self {
            PapiPreset::PAPI_TOT_INS => "PAPI_TOT_INS",
            PapiPreset::PAPI_TOT_CYC => "PAPI_TOT_CYC",
            PapiPreset::PAPI_DP_OPS => "PAPI_DP_OPS",
            PapiPreset::PAPI_SP_OPS => "PAPI_SP_OPS",
            PapiPreset::PAPI_L1_DCM => "PAPI_L1_DCM",
            PapiPreset::PAPI_L2_TCM => "PAPI_L2_TCM",
            PapiPreset::PAPI_BR_MSP => "PAPI_BR_MSP",
            PapiPreset::PAPI_TLB_DM => "PAPI_TLB_DM",
        }
    }

    /// Map the preset to a native event name on the given event table, the
    /// equivalent of PAPI's preset-to-native mapping layer.
    pub(crate) fn native_event(self, table: &EventTable) -> Option<&EventDefinition> {
        let candidates: &[&str] = match self {
            PapiPreset::PAPI_TOT_INS => &["INSTR_RETIRED_ANY", "RETIRED_INSTRUCTIONS"],
            PapiPreset::PAPI_TOT_CYC => {
                &["CPU_CLK_UNHALTED_CORE", "CPU_CLOCKS_UNHALTED", "CPU_CLK_UNHALTED"]
            }
            PapiPreset::PAPI_DP_OPS => &[
                "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE",
                "FP_COMP_OPS_EXE_SSE_FP_PACKED",
                "RETIRED_SSE_OPS_PACKED_DOUBLE",
                "SSE_PACKED_DOUBLE_OPS",
                "EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_DP",
            ],
            PapiPreset::PAPI_SP_OPS => &[
                "SIMD_COMP_INST_RETIRED_PACKED_SINGLE",
                "FP_COMP_OPS_EXE_SSE_SINGLE_PRECISION",
                "RETIRED_SSE_OPS_PACKED_SINGLE",
                "SSE_PACKED_SINGLE_OPS",
                "EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_SP",
            ],
            PapiPreset::PAPI_L1_DCM => &[
                "L1D_REPL",
                "L1D_CACHE_REPL",
                "DATA_CACHE_REFILLS_L2_OR_NORTHBRIDGE",
                "DATA_CACHE_REFILLS_L2_OR_SYSTEM",
                "DCU_LINES_IN",
            ],
            PapiPreset::PAPI_L2_TCM => &["L2_RQSTS_MISS", "L2_MISSES_ALL"],
            PapiPreset::PAPI_BR_MSP => &[
                "BR_INST_RETIRED_MISPRED",
                "BR_MISP_RETIRED_ALL_BRANCHES",
                "RETIRED_MISPREDICTED_BRANCH_INSTR",
                "BR_MISS_PRED_RETIRED",
            ],
            PapiPreset::PAPI_TLB_DM => &[
                "DTLB_MISSES_ANY",
                "DATA_TLB_MISSES_DTLB_MISS",
                "DTLB_L2_MISS_ALL",
                "DTLB_L2_MISS",
                "DTLB_MISS",
            ],
        };
        candidates.iter().find_map(|name| table.find(name))
    }
}

/// PAPI-style error codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PapiError {
    /// The library was not initialised.
    NotInitialized,
    /// The preset cannot be mapped onto this CPU's native events.
    NoEvent(String),
    /// The event set is full (no free counter).
    CounterConflict,
    /// Invalid event-set handle.
    BadHandle,
    /// Underlying counter access failed.
    Hardware(String),
    /// The event set is not (or already) running.
    BadState,
}

impl std::fmt::Display for PapiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PapiError::NotInitialized => write!(f, "PAPI library not initialised"),
            PapiError::NoEvent(e) => write!(f, "preset {e} has no native mapping on this CPU"),
            PapiError::CounterConflict => write!(f, "no free counter for this event"),
            PapiError::BadHandle => write!(f, "invalid event set handle"),
            PapiError::Hardware(e) => write!(f, "hardware access failed: {e}"),
            PapiError::BadState => write!(f, "event set is in the wrong state"),
        }
    }
}

impl std::error::Error for PapiError {}

/// An event set: a collection of presets scheduled onto counters of one cpu.
/// Starting and stopping it touch exactly its own counter slots.
struct EventSet {
    cpu: usize,
    /// The counter of each added event, in the order the events were added.
    slots: Vec<CounterSlot>,
    running: bool,
}

/// The PAPI-like library handle.
///
/// One instance per machine; the `Papi` value owns the per-cpu counter
/// access (like the PAPI component layer owns its file descriptors).
pub struct Papi<'m> {
    machine: &'m SimMachine,
    table: EventTable,
    event_sets: Vec<EventSet>,
    monitors: HashMap<usize, PerfMon>,
}

/// The counters of `cpu`, through the monitor opened for it.
fn counters(monitors: &HashMap<usize, PerfMon>, cpu: usize) -> Result<CpuCounters<'_>, PapiError> {
    monitors.get(&cpu).ok_or(PapiError::BadHandle)?.on_cpu(cpu).map_err(hardware)
}

fn hardware(e: PerfMonError) -> PapiError {
    PapiError::Hardware(e.to_string())
}

impl<'m> Papi<'m> {
    /// `PAPI_library_init`.
    pub fn library_init(machine: &'m SimMachine) -> Self {
        Papi {
            machine,
            table: tables::for_arch(machine.arch()),
            event_sets: Vec::new(),
            monitors: HashMap::new(),
        }
    }

    /// `PAPI_create_eventset` bound to one cpu (PAPI binds via the calling
    /// thread's affinity; here the cpu is explicit).
    pub fn create_eventset(&mut self, cpu: usize) -> Result<usize, PapiError> {
        if !self.monitors.contains_key(&cpu) {
            let pm = PerfMon::new(self.machine, &[cpu])
                .map_err(|e| PapiError::Hardware(e.to_string()))?;
            self.monitors.insert(cpu, pm);
        }
        self.event_sets.push(EventSet { cpu, slots: Vec::new(), running: false });
        Ok(self.event_sets.len() - 1)
    }

    /// `PAPI_add_event`: map the preset to a native event and schedule it on
    /// a free counter.
    pub fn add_event(&mut self, set: usize, preset: PapiPreset) -> Result<(), PapiError> {
        let table = self.table.clone();
        let event_set = self.event_sets.get_mut(set).ok_or(PapiError::BadHandle)?;
        if event_set.running {
            return Err(PapiError::BadState);
        }
        let native = preset
            .native_event(&table)
            .ok_or_else(|| PapiError::NoEvent(preset.name().to_string()))?;
        let slot = table
            .allowed_slots(native)
            .into_iter()
            .find(|s| !event_set.slots.contains(s))
            .ok_or(PapiError::CounterConflict)?;
        counters(&self.monitors, event_set.cpu)?.setup(slot, native).map_err(hardware)?;
        event_set.slots.push(slot);
        Ok(())
    }

    /// `PAPI_start`.
    pub fn start(&mut self, set: usize) -> Result<(), PapiError> {
        let event_set = self.event_sets.get_mut(set).ok_or(PapiError::BadHandle)?;
        if event_set.running {
            return Err(PapiError::BadState);
        }
        counters(&self.monitors, event_set.cpu)?.start_slots(&event_set.slots).map_err(hardware)?;
        event_set.running = true;
        Ok(())
    }

    /// `PAPI_read`: current values in the order the events were added.
    pub fn read(&self, set: usize) -> Result<Vec<u64>, PapiError> {
        let event_set = self.event_sets.get(set).ok_or(PapiError::BadHandle)?;
        let counters = counters(&self.monitors, event_set.cpu)?;
        event_set.slots.iter().map(|&slot| counters.read(slot).map_err(hardware)).collect()
    }

    /// `PAPI_stop`: stop counting and return the final values.
    pub fn stop(&mut self, set: usize) -> Result<Vec<u64>, PapiError> {
        let values = self.read(set)?;
        let event_set = self.event_sets.get_mut(set).ok_or(PapiError::BadHandle)?;
        if !event_set.running {
            return Err(PapiError::BadState);
        }
        counters(&self.monitors, event_set.cpu)?.stop_slots(&event_set.slots).map_err(hardware)?;
        event_set.running = false;
        Ok(values)
    }

    /// The presets that can be mapped on this machine (PAPI's
    /// `papi_avail`-style listing).
    pub fn available_presets(&self) -> Vec<PapiPreset> {
        PapiPreset::all()
            .iter()
            .copied()
            .filter(|p| p.native_event(&self.table).is_some())
            .collect()
    }
}

/// The qualitative LIKWID-vs-PAPI comparison of Table I, as data.
///
/// Each row is `(aspect, likwid, papi)`; the bench binary renders it so the
/// reproduction has a regenerable artefact for Table I alongside the
/// measured API-overhead comparison.
pub fn table1_rows() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "Dependencies",
            "Needs system headers of a Linux 2.6 kernel; no other external dependencies",
            "Needs kernel patches depending on platform; none on Linux > 2.6.31",
        ),
        (
            "Installation",
            "make-based build; single 21-line build configuration file",
            "autoconf-based; several-hundred-line install documentation",
        ),
        (
            "Command line tools",
            "Core is a collection of standalone command line tools",
            "Utilities are not intended to be used standalone; third-party tools exist",
        ),
        (
            "User API support",
            "Simple marker API; events configured on the command line",
            "Comparatively high-level API; events must be configured in the code",
        ),
        (
            "Library support",
            "Usable as a library, but that was not the initial intent",
            "Mature, well tested library API for building tools",
        ),
        (
            "Topology information",
            "Thread and cache topology from cpuid, as text and ASCII art",
            "cpuid-based; no shared-cache groups, no processor-id mapping",
        ),
        (
            "Thread and process pinning",
            "Dedicated portable pinning tool (likwid-pin)",
            "No support for pinning",
        ),
        (
            "Multicore support",
            "Multiple cores measured simultaneously",
            "No explicit multicore support",
        ),
        (
            "Uncore support",
            "Uncore events handled via socket locks",
            "No explicit support for shared-resource counters",
        ),
        (
            "Event abstraction",
            "Preconfigured event groups with derived metrics",
            "PAPI preset events mapping to native events",
        ),
        (
            "Platform support",
            "x86 processors under Linux 2.6 only",
            "Wide range of architectures and operating systems",
        ),
        (
            "Correlated measurements",
            "Performance counters only",
            "PAPI-C components can correlate fan speeds, temperatures, …",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_perf_events::{EventEngine, EventSample, HwEventKind};
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn preset_mapping_exists_on_every_architecture() {
        for &preset in MachinePreset::all() {
            let machine = SimMachine::new(preset);
            let papi = Papi::library_init(&machine);
            let available = papi.available_presets();
            assert!(
                available.contains(&PapiPreset::PAPI_TOT_CYC),
                "{preset:?} must map PAPI_TOT_CYC"
            );
            assert!(
                available.contains(&PapiPreset::PAPI_DP_OPS),
                "{preset:?} must map PAPI_DP_OPS"
            );
        }
    }

    #[test]
    fn papi_style_measurement_counts_like_the_likwid_path() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let mut papi = Papi::library_init(&machine);
        let set = papi.create_eventset(2).unwrap();
        papi.add_event(set, PapiPreset::PAPI_DP_OPS).unwrap();
        papi.add_event(set, PapiPreset::PAPI_TOT_CYC).unwrap();
        papi.start(set).unwrap();

        let engine = EventEngine::new(&machine);
        let mut sample = EventSample::new(machine.num_hw_threads(), 1);
        sample.threads[2].set(HwEventKind::SimdPackedDouble, 4096);
        sample.threads[2].set(HwEventKind::CoreCycles, 100_000);
        engine.apply(&machine, &sample);

        let values = papi.stop(set).unwrap();
        assert_eq!(values[0], 4096);
        assert_eq!(values[1], 100_000);
    }

    #[test]
    fn event_sets_respect_counter_capacity() {
        // Core 2 has two general-purpose counters plus fixed counters; adding
        // three PMC-only presets must fail with a conflict.
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let mut papi = Papi::library_init(&machine);
        let set = papi.create_eventset(0).unwrap();
        papi.add_event(set, PapiPreset::PAPI_DP_OPS).unwrap();
        papi.add_event(set, PapiPreset::PAPI_L1_DCM).unwrap();
        assert_eq!(papi.add_event(set, PapiPreset::PAPI_BR_MSP), Err(PapiError::CounterConflict));
    }

    #[test]
    fn state_machine_errors() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let mut papi = Papi::library_init(&machine);
        assert_eq!(papi.start(7), Err(PapiError::BadHandle));
        let set = papi.create_eventset(0).unwrap();
        papi.add_event(set, PapiPreset::PAPI_TOT_INS).unwrap();
        assert!(matches!(papi.stop(set), Err(PapiError::BadState)), "stop before start");
        papi.start(set).unwrap();
        assert!(matches!(papi.start(set), Err(PapiError::BadState)), "double start");
        assert!(matches!(papi.add_event(set, PapiPreset::PAPI_DP_OPS), Err(PapiError::BadState)));
        papi.stop(set).unwrap();
    }

    #[test]
    fn table1_covers_the_papers_comparison_aspects() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 12, "Table I has twelve comparison rows");
        assert!(rows.iter().any(|(a, _, _)| *a == "Thread and process pinning"));
        assert!(rows.iter().any(|(a, _, _)| *a == "Uncore support"));
    }
}
