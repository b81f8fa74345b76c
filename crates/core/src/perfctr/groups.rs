//! Preconfigured event groups ("performance groups") with derived metrics.
//!
//! The paper's table of event sets (Section II-A) lists eleven groups —
//! FLOPS_DP, FLOPS_SP, L2, L3, MEM, CACHE, L2CACHE, L3CACHE, DATA, BRANCH
//! and TLB — that abstract over the architecture-specific event names. This
//! module defines, per supported microarchitecture, which native events and
//! counters each group uses and the formulas of its derived metrics. The
//! tool tries to provide the same groups on all architectures "as long as
//! the native events support them"; where they do not (e.g. L3 groups on
//! L3-less parts), the group is reported as unsupported.

use likwid_perf_events::CounterSlot;
use likwid_x86_machine::Microarch;

use crate::error::{LikwidError, Result};

/// The preconfigured event groups of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum EventGroupKind {
    /// Double precision MFlops/s.
    FLOPS_DP,
    /// Single precision MFlops/s.
    FLOPS_SP,
    /// L2 cache bandwidth in MBytes/s.
    L2,
    /// L3 cache bandwidth in MBytes/s.
    L3,
    /// Main memory bandwidth in MBytes/s.
    MEM,
    /// L1 data cache miss rate/ratio.
    CACHE,
    /// L2 data cache miss rate/ratio.
    L2CACHE,
    /// L3 data cache miss rate/ratio.
    L3CACHE,
    /// Load to store ratio.
    DATA,
    /// Branch prediction miss rate/ratio.
    BRANCH,
    /// Translation lookaside buffer miss rate/ratio.
    TLB,
}

impl EventGroupKind {
    /// All groups in the order of the paper's table.
    pub fn all() -> &'static [EventGroupKind] {
        &[
            EventGroupKind::FLOPS_DP,
            EventGroupKind::FLOPS_SP,
            EventGroupKind::L2,
            EventGroupKind::L3,
            EventGroupKind::MEM,
            EventGroupKind::CACHE,
            EventGroupKind::L2CACHE,
            EventGroupKind::L3CACHE,
            EventGroupKind::DATA,
            EventGroupKind::BRANCH,
            EventGroupKind::TLB,
        ]
    }

    /// The name used on the `-g` command line.
    pub fn name(self) -> &'static str {
        match self {
            EventGroupKind::FLOPS_DP => "FLOPS_DP",
            EventGroupKind::FLOPS_SP => "FLOPS_SP",
            EventGroupKind::L2 => "L2",
            EventGroupKind::L3 => "L3",
            EventGroupKind::MEM => "MEM",
            EventGroupKind::CACHE => "CACHE",
            EventGroupKind::L2CACHE => "L2CACHE",
            EventGroupKind::L3CACHE => "L3CACHE",
            EventGroupKind::DATA => "DATA",
            EventGroupKind::BRANCH => "BRANCH",
            EventGroupKind::TLB => "TLB",
        }
    }

    /// Parse a `-g` argument.
    pub fn parse(name: &str) -> Option<Self> {
        Self::all().iter().copied().find(|g| g.name() == name)
    }

    /// The one-line description from the paper's table.
    pub fn description(self) -> &'static str {
        match self {
            EventGroupKind::FLOPS_DP => "Double Precision MFlops/s",
            EventGroupKind::FLOPS_SP => "Single Precision MFlops/s",
            EventGroupKind::L2 => "L2 cache bandwidth in MBytes/s",
            EventGroupKind::L3 => "L3 cache bandwidth in MBytes/s",
            EventGroupKind::MEM => "Main memory bandwidth in MBytes/s",
            EventGroupKind::CACHE => "L1 Data cache miss rate/ratio",
            EventGroupKind::L2CACHE => "L2 Data cache miss rate/ratio",
            EventGroupKind::L3CACHE => "L3 Data cache miss rate/ratio",
            EventGroupKind::DATA => "Load to store ratio",
            EventGroupKind::BRANCH => "Branch prediction miss rate/ratio",
            EventGroupKind::TLB => "Translation lookaside buffer miss rate/ratio",
        }
    }
}

/// A fully resolved event group for one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDefinition {
    /// Which group this is.
    pub kind: EventGroupKind,
    /// The events to program: `(documented event name, counter slot)`.
    pub events: Vec<(&'static str, CounterSlot)>,
    /// The formula for the measurement time in seconds, usually
    /// `FIXC1*inverseClock` (unhalted core cycles over the nominal clock).
    pub time_formula: &'static str,
    /// Derived metrics: `(metric name, formula)`.
    pub metrics: Vec<(&'static str, &'static str)>,
}

use CounterSlot::{Fixed, Pmc, UncorePmc};

/// The Intel fixed-counter events present in every group on Core 2 and newer.
fn intel_fixed() -> Vec<(&'static str, CounterSlot)> {
    vec![("INSTR_RETIRED_ANY", Fixed(0)), ("CPU_CLK_UNHALTED_CORE", Fixed(1))]
}

const INTEL_TIME: &str = "FIXC1*inverseClock";
const INTEL_BASE_METRICS: [(&str, &str); 2] = [("Runtime [s]", "time"), ("CPI", "FIXC1/FIXC0")];

fn intel_group(
    kind: EventGroupKind,
    extra_events: Vec<(&'static str, CounterSlot)>,
    extra_metrics: Vec<(&'static str, &'static str)>,
) -> GroupDefinition {
    let mut events = intel_fixed();
    events.extend(extra_events);
    let mut metrics = INTEL_BASE_METRICS.to_vec();
    metrics.extend(extra_metrics);
    GroupDefinition { kind, events, time_formula: INTEL_TIME, metrics }
}

/// Group definitions for Core 2 and Atom (two PMCs, no uncore, FSB memory
/// events).
fn core2_like(kind: EventGroupKind, atom: bool) -> Option<GroupDefinition> {
    let loads = "INST_RETIRED_LOADS";
    let l1_all = if atom { "L1D_CACHE_LD" } else { "L1D_ALL_REF" };
    let l1_repl = if atom { "L1D_CACHE_REPL" } else { "L1D_REPL" };
    let tlb = if atom { "DATA_TLB_MISSES_DTLB_MISS" } else { "DTLB_MISSES_ANY" };
    Some(match kind {
        EventGroupKind::FLOPS_DP => intel_group(
            kind,
            vec![
                ("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", Pmc(0)),
                ("SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE", Pmc(1)),
            ],
            vec![("DP MFlops/s", "1.0E-06*(PMC0*2.0+PMC1*1.0)/time")],
        ),
        EventGroupKind::FLOPS_SP => intel_group(
            kind,
            vec![
                ("SIMD_COMP_INST_RETIRED_PACKED_SINGLE", Pmc(0)),
                ("SIMD_COMP_INST_RETIRED_SCALAR_SINGLE", Pmc(1)),
            ],
            vec![("SP MFlops/s", "1.0E-06*(PMC0*4.0+PMC1*1.0)/time")],
        ),
        EventGroupKind::L2 => intel_group(
            kind,
            vec![(l1_repl, Pmc(0)), ("L1D_M_EVICT", Pmc(1))],
            vec![
                ("L2 bandwidth [MBytes/s]", "1.0E-06*(PMC0+PMC1)*64.0/time"),
                ("L2 data volume [GBytes]", "1.0E-09*(PMC0+PMC1)*64.0"),
            ],
        ),
        EventGroupKind::MEM => intel_group(
            kind,
            vec![
                ("BUS_TRANS_MEM_THIS_CORE_THIS_A", Pmc(0)),
                ("BUS_TRANS_WB_THIS_CORE_THIS_A", Pmc(1)),
            ],
            vec![
                ("Memory bandwidth [MBytes/s]", "1.0E-06*(PMC0+PMC1)*64.0/time"),
                ("Memory data volume [GBytes]", "1.0E-09*(PMC0+PMC1)*64.0"),
            ],
        ),
        EventGroupKind::CACHE => intel_group(
            kind,
            vec![(l1_all, Pmc(0)), (l1_repl, Pmc(1))],
            vec![("Data cache miss rate", "PMC1/FIXC0"), ("Data cache miss ratio", "PMC1/PMC0")],
        ),
        EventGroupKind::L2CACHE => intel_group(
            kind,
            vec![("L2_RQSTS_REFERENCES", Pmc(0)), ("L2_RQSTS_MISS", Pmc(1))],
            vec![("L2 miss rate", "PMC1/FIXC0"), ("L2 miss ratio", "PMC1/PMC0")],
        ),
        EventGroupKind::DATA => intel_group(
            kind,
            vec![(loads, Pmc(0)), ("INST_RETIRED_STORES", Pmc(1))],
            vec![("Load to store ratio", "PMC0/PMC1")],
        ),
        EventGroupKind::BRANCH => intel_group(
            kind,
            vec![("BR_INST_RETIRED_ANY", Pmc(0)), ("BR_INST_RETIRED_MISPRED", Pmc(1))],
            vec![
                ("Branch rate", "PMC0/FIXC0"),
                ("Branch misprediction rate", "PMC1/FIXC0"),
                ("Branch misprediction ratio", "PMC1/PMC0"),
            ],
        ),
        EventGroupKind::TLB => {
            intel_group(kind, vec![(tlb, Pmc(0))], vec![("DTLB miss rate", "PMC0/FIXC0")])
        }
        // Core 2 / Atom have no L3.
        EventGroupKind::L3 | EventGroupKind::L3CACHE => return None,
    })
}

/// Group definitions for Nehalem EP / Westmere EP (four PMCs, uncore).
fn nehalem_like(kind: EventGroupKind) -> Option<GroupDefinition> {
    Some(match kind {
        EventGroupKind::FLOPS_DP => intel_group(
            kind,
            vec![
                ("FP_COMP_OPS_EXE_SSE_FP_PACKED", Pmc(0)),
                ("FP_COMP_OPS_EXE_SSE_FP_SCALAR", Pmc(1)),
            ],
            vec![("DP MFlops/s", "1.0E-06*(PMC0*2.0+PMC1*1.0)/time")],
        ),
        EventGroupKind::FLOPS_SP => intel_group(
            kind,
            vec![
                ("FP_COMP_OPS_EXE_SSE_SINGLE_PRECISION", Pmc(0)),
                ("FP_COMP_OPS_EXE_SSE_FP_SCALAR", Pmc(1)),
            ],
            vec![("SP MFlops/s", "1.0E-06*(PMC0*4.0+PMC1*1.0)/time")],
        ),
        EventGroupKind::L2 => intel_group(
            kind,
            vec![("L1D_REPL", Pmc(0)), ("L1D_M_EVICT", Pmc(1))],
            vec![
                ("L2 bandwidth [MBytes/s]", "1.0E-06*(PMC0+PMC1)*64.0/time"),
                ("L2 data volume [GBytes]", "1.0E-09*(PMC0+PMC1)*64.0"),
            ],
        ),
        EventGroupKind::L3 => intel_group(
            kind,
            vec![("L2_LINES_IN_ANY", Pmc(0)), ("L2_LINES_OUT_ANY", Pmc(1))],
            vec![
                ("L3 bandwidth [MBytes/s]", "1.0E-06*(PMC0+PMC1)*64.0/time"),
                ("L3 data volume [GBytes]", "1.0E-09*(PMC0+PMC1)*64.0"),
            ],
        ),
        EventGroupKind::MEM => intel_group(
            kind,
            vec![
                ("UNC_QMC_NORMAL_READS_ANY", UncorePmc(0)),
                ("UNC_QMC_WRITES_FULL_ANY", UncorePmc(1)),
            ],
            vec![
                ("Memory bandwidth [MBytes/s]", "1.0E-06*(UPMC0+UPMC1)*64.0/time"),
                ("Memory data volume [GBytes]", "1.0E-09*(UPMC0+UPMC1)*64.0"),
            ],
        ),
        EventGroupKind::CACHE => intel_group(
            kind,
            vec![("L1D_ALL_REF_ANY", Pmc(0)), ("L1D_REPL", Pmc(1))],
            vec![("Data cache miss rate", "PMC1/FIXC0"), ("Data cache miss ratio", "PMC1/PMC0")],
        ),
        EventGroupKind::L2CACHE => intel_group(
            kind,
            vec![("L2_RQSTS_REFERENCES", Pmc(0)), ("L2_RQSTS_MISS", Pmc(1))],
            vec![("L2 miss rate", "PMC1/FIXC0"), ("L2 miss ratio", "PMC1/PMC0")],
        ),
        EventGroupKind::L3CACHE => intel_group(
            kind,
            vec![("UNC_L3_HITS_ANY", UncorePmc(0)), ("UNC_L3_MISS_ANY", UncorePmc(1))],
            vec![("L3 miss rate", "UPMC1/FIXC0"), ("L3 miss ratio", "UPMC1/(UPMC0+UPMC1)")],
        ),
        EventGroupKind::DATA => intel_group(
            kind,
            vec![("MEM_INST_RETIRED_LOADS", Pmc(0)), ("MEM_INST_RETIRED_STORES", Pmc(1))],
            vec![("Load to store ratio", "PMC0/PMC1")],
        ),
        EventGroupKind::BRANCH => intel_group(
            kind,
            vec![
                ("BR_INST_RETIRED_ALL_BRANCHES", Pmc(0)),
                ("BR_MISP_RETIRED_ALL_BRANCHES", Pmc(1)),
            ],
            vec![
                ("Branch rate", "PMC0/FIXC0"),
                ("Branch misprediction rate", "PMC1/FIXC0"),
                ("Branch misprediction ratio", "PMC1/PMC0"),
            ],
        ),
        EventGroupKind::TLB => intel_group(
            kind,
            vec![("DTLB_MISSES_ANY", Pmc(0))],
            vec![("DTLB miss rate", "PMC0/FIXC0")],
        ),
    })
}

const AMD_TIME: &str = "PMC1*inverseClock";
const AMD_BASE_METRICS: [(&str, &str); 2] = [("Runtime [s]", "time"), ("CPI", "PMC1/PMC0")];

fn amd_group(
    kind: EventGroupKind,
    extra_events: Vec<(&'static str, CounterSlot)>,
    extra_metrics: Vec<(&'static str, &'static str)>,
) -> GroupDefinition {
    let mut events = vec![("RETIRED_INSTRUCTIONS", Pmc(0)), ("CPU_CLOCKS_UNHALTED", Pmc(1))];
    events.extend(extra_events);
    let mut metrics = AMD_BASE_METRICS.to_vec();
    metrics.extend(extra_metrics);
    GroupDefinition { kind, events, time_formula: AMD_TIME, metrics }
}

/// Group definitions for AMD K10 (and, minus the L3 groups, K8). The two
/// generations name a few events differently, so the names are selected by
/// `has_l3` (K10) vs. not (K8).
fn k10_like(kind: EventGroupKind, has_l3: bool) -> Option<GroupDefinition> {
    let packed_dp = if has_l3 { "RETIRED_SSE_OPS_PACKED_DOUBLE" } else { "SSE_PACKED_DOUBLE_OPS" };
    let scalar_dp =
        if has_l3 { "RETIRED_SSE_OPS_SCALAR_DOUBLE" } else { "DISPATCHED_FPU_OPS_ADD_MUL" };
    let packed_sp = if has_l3 { "RETIRED_SSE_OPS_PACKED_SINGLE" } else { "SSE_PACKED_SINGLE_OPS" };
    let scalar_sp = if has_l3 { "RETIRED_SSE_OPS_SCALAR_SINGLE" } else { "SSE_SCALAR_SINGLE_OPS" };
    let dc_refills = if has_l3 {
        "DATA_CACHE_REFILLS_L2_OR_NORTHBRIDGE"
    } else {
        "DATA_CACHE_REFILLS_L2_OR_SYSTEM"
    };
    let dc_evicted = if has_l3 { "DATA_CACHE_EVICTED_ALL" } else { "DATA_CACHE_EVICTED" };
    Some(match kind {
        EventGroupKind::FLOPS_DP => amd_group(
            kind,
            vec![(packed_dp, Pmc(2)), (scalar_dp, Pmc(3))],
            vec![("DP MFlops/s", "1.0E-06*(PMC2*2.0+PMC3*1.0)/time")],
        ),
        EventGroupKind::FLOPS_SP => amd_group(
            kind,
            vec![(packed_sp, Pmc(2)), (scalar_sp, Pmc(3))],
            vec![("SP MFlops/s", "1.0E-06*(PMC2*4.0+PMC3*1.0)/time")],
        ),
        EventGroupKind::L2 => amd_group(
            kind,
            vec![(dc_refills, Pmc(2)), (dc_evicted, Pmc(3))],
            vec![
                ("L2 bandwidth [MBytes/s]", "1.0E-06*(PMC2+PMC3)*64.0/time"),
                ("L2 data volume [GBytes]", "1.0E-09*(PMC2+PMC3)*64.0"),
            ],
        ),
        EventGroupKind::L3 => {
            if !has_l3 {
                return None;
            }
            amd_group(
                kind,
                vec![("L3_FILLS_ALL_ALL_CORES", Pmc(2)), ("L3_EVICTIONS_ALL_ALL_CORES", Pmc(3))],
                vec![
                    ("L3 bandwidth [MBytes/s]", "1.0E-06*(PMC2+PMC3)*64.0/time"),
                    ("L3 data volume [GBytes]", "1.0E-09*(PMC2+PMC3)*64.0"),
                ],
            )
        }
        EventGroupKind::MEM => {
            let (read_ev, write_ev) = if has_l3 {
                ("DRAM_ACCESSES_DCT0_ALL", "DRAM_ACCESSES_DCT1_ALL")
            } else {
                ("DRAM_ACCESSES_PAGE_HIT", "DRAM_ACCESSES_PAGE_MISS")
            };
            amd_group(
                kind,
                vec![(read_ev, Pmc(2)), (write_ev, Pmc(3))],
                vec![
                    ("Memory bandwidth [MBytes/s]", "1.0E-06*(PMC2+PMC3)*64.0/time"),
                    ("Memory data volume [GBytes]", "1.0E-09*(PMC2+PMC3)*64.0"),
                ],
            )
        }
        EventGroupKind::CACHE => amd_group(
            kind,
            vec![("DATA_CACHE_ACCESSES", Pmc(2)), (dc_refills, Pmc(3))],
            vec![("Data cache miss rate", "PMC3/PMC0"), ("Data cache miss ratio", "PMC3/PMC2")],
        ),
        EventGroupKind::L2CACHE => amd_group(
            kind,
            vec![("L2_REQUESTS_ALL", Pmc(2)), ("L2_MISSES_ALL", Pmc(3))],
            vec![("L2 miss rate", "PMC3/PMC0"), ("L2 miss ratio", "PMC3/PMC2")],
        ),
        EventGroupKind::L3CACHE => {
            if !has_l3 {
                return None;
            }
            amd_group(
                kind,
                vec![
                    ("L3_READ_REQUEST_ALL_ALL_CORES", Pmc(2)),
                    ("L3_MISSES_ALL_ALL_CORES", Pmc(3)),
                ],
                vec![("L3 miss rate", "PMC3/PMC0"), ("L3 miss ratio", "PMC3/PMC2")],
            )
        }
        EventGroupKind::DATA => amd_group(
            kind,
            vec![("LS_DISPATCH_LOADS", Pmc(2)), ("LS_DISPATCH_STORES", Pmc(3))],
            vec![("Load to store ratio", "PMC2/PMC3")],
        ),
        EventGroupKind::BRANCH => amd_group(
            kind,
            vec![("RETIRED_BRANCH_INSTR", Pmc(2)), ("RETIRED_MISPREDICTED_BRANCH_INSTR", Pmc(3))],
            vec![
                ("Branch rate", "PMC2/PMC0"),
                ("Branch misprediction rate", "PMC3/PMC0"),
                ("Branch misprediction ratio", "PMC3/PMC2"),
            ],
        ),
        EventGroupKind::TLB => amd_group(
            kind,
            vec![(if has_l3 { "DTLB_L2_MISS_ALL" } else { "DTLB_L2_MISS" }, Pmc(2))],
            vec![("DTLB miss rate", "PMC2/PMC0")],
        ),
    })
}

/// Group definitions for Pentium M: only two programmable counters and no
/// fixed counters, so each group carries the cycle counter plus one event.
fn pentium_m(kind: EventGroupKind) -> Option<GroupDefinition> {
    let base = |extra: (&'static str, CounterSlot), metrics: Vec<(&'static str, &'static str)>| {
        GroupDefinition {
            kind,
            events: vec![("CPU_CLK_UNHALTED", Pmc(0)), extra],
            time_formula: "PMC0*inverseClock",
            metrics: {
                let mut m = vec![("Runtime [s]", "time")];
                m.extend(metrics);
                m
            },
        }
    };
    Some(match kind {
        EventGroupKind::FLOPS_DP => base(
            ("EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_DP", Pmc(1)),
            vec![("DP MFlops/s", "1.0E-06*PMC1*2.0/time")],
        ),
        EventGroupKind::FLOPS_SP => base(
            ("EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_SP", Pmc(1)),
            vec![("SP MFlops/s", "1.0E-06*PMC1*4.0/time")],
        ),
        EventGroupKind::L2 => base(
            ("L2_LINES_IN", Pmc(1)),
            vec![("L2 bandwidth [MBytes/s]", "1.0E-06*PMC1*64.0/time")],
        ),
        EventGroupKind::CACHE => base(("DCU_LINES_IN", Pmc(1)), vec![("L1 misses/s", "PMC1/time")]),
        EventGroupKind::MEM => base(
            ("BUS_TRAN_MEM", Pmc(1)),
            vec![("Memory bandwidth [MBytes/s]", "1.0E-06*PMC1*64.0/time")],
        ),
        EventGroupKind::BRANCH => {
            base(("BR_MISS_PRED_RETIRED", Pmc(1)), vec![("Branch mispredictions/s", "PMC1/time")])
        }
        EventGroupKind::TLB => base(("DTLB_MISS", Pmc(1)), vec![("DTLB misses/s", "PMC1/time")]),
        EventGroupKind::L3
        | EventGroupKind::L3CACHE
        | EventGroupKind::L2CACHE
        | EventGroupKind::DATA => return None,
    })
}

/// Resolve a group for an architecture.
pub fn group_definition(arch: Microarch, kind: EventGroupKind) -> Result<GroupDefinition> {
    let def = match arch {
        Microarch::Core2 => core2_like(kind, false),
        Microarch::Atom => core2_like(kind, true),
        Microarch::NehalemEp | Microarch::WestmereEp => nehalem_like(kind),
        Microarch::K10 => k10_like(kind, true),
        Microarch::K8 => k10_like(kind, false),
        Microarch::PentiumM => pentium_m(kind),
    };
    def.ok_or_else(|| LikwidError::GroupUnsupported {
        group: kind.name().to_string(),
        arch: arch.display_name().to_string(),
    })
}

/// All groups supported on an architecture.
pub fn supported_groups(arch: Microarch) -> Vec<EventGroupKind> {
    EventGroupKind::all().iter().copied().filter(|&k| group_definition(arch, k).is_ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfctr::formula::Formula;
    use likwid_perf_events::tables;

    #[test]
    fn group_names_round_trip() {
        for &g in EventGroupKind::all() {
            assert_eq!(EventGroupKind::parse(g.name()), Some(g));
        }
        assert_eq!(EventGroupKind::parse("NOT_A_GROUP"), None);
        assert_eq!(EventGroupKind::all().len(), 11, "the paper lists eleven groups");
    }

    #[test]
    fn every_supported_group_references_only_real_events() {
        for &arch in Microarch::all() {
            let table = tables::for_arch(arch);
            for kind in supported_groups(arch) {
                let def = group_definition(arch, kind).unwrap();
                for (event, slot) in &def.events {
                    let e = table
                        .find(event)
                        .unwrap_or_else(|| panic!("{arch:?} {kind:?}: unknown event {event}"));
                    assert!(
                        table.allowed_slots(e).contains(slot),
                        "{arch:?} {kind:?}: {event} cannot go on {}",
                        slot.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_metric_formula_parses_and_references_known_variables() {
        for &arch in Microarch::all() {
            for kind in supported_groups(arch) {
                let def = group_definition(arch, kind).unwrap();
                let counter_names: Vec<String> = def.events.iter().map(|(_, s)| s.name()).collect();
                let time = Formula::parse(def.time_formula).unwrap();
                for var in time.variables() {
                    assert!(
                        var == "inverseClock" || counter_names.contains(&var),
                        "{arch:?} {kind:?}: time formula references unknown '{var}'"
                    );
                }
                for (name, formula) in &def.metrics {
                    let f = Formula::parse(formula)
                        .unwrap_or_else(|e| panic!("{arch:?} {kind:?} {name}: {e}"));
                    for var in f.variables() {
                        assert!(
                            var == "time" || var == "inverseClock" || counter_names.contains(&var),
                            "{arch:?} {kind:?} metric '{name}' references unknown '{var}'"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn groups_fit_into_the_available_counters() {
        for &arch in Microarch::all() {
            let table = tables::for_arch(arch);
            for kind in supported_groups(arch) {
                let def = group_definition(arch, kind).unwrap();
                let pmcs = def.events.iter().filter(|(_, s)| matches!(s, Pmc(_))).count();
                let available = table.pmu.count(likwid_x86_machine::pmu::BlockKind::Pmc) as usize;
                assert!(
                    pmcs <= available,
                    "{arch:?} {kind:?} needs {pmcs} PMCs but only {available} exist"
                );
            }
        }
    }

    #[test]
    fn paper_table_availability_per_architecture() {
        // Nehalem/Westmere support all eleven groups.
        assert_eq!(supported_groups(Microarch::WestmereEp).len(), 11);
        assert_eq!(supported_groups(Microarch::NehalemEp).len(), 11);
        // Core 2 has no L3 groups.
        let core2 = supported_groups(Microarch::Core2);
        assert!(!core2.contains(&EventGroupKind::L3));
        assert!(!core2.contains(&EventGroupKind::L3CACHE));
        assert!(core2.contains(&EventGroupKind::FLOPS_DP));
        assert!(core2.contains(&EventGroupKind::MEM));
        // K8 has no L3 either; K10 (Istanbul) does.
        assert!(!supported_groups(Microarch::K8).contains(&EventGroupKind::L3));
        assert!(supported_groups(Microarch::K10).contains(&EventGroupKind::L3CACHE));
    }

    #[test]
    fn mem_group_on_nehalem_uses_uncore_counters() {
        let uses_uncore = |arch| {
            let def = group_definition(arch, EventGroupKind::MEM).unwrap();
            def.events.iter().any(|(_, slot)| slot.is_uncore())
        };
        assert!(uses_uncore(Microarch::NehalemEp));
        assert!(
            !uses_uncore(Microarch::Core2),
            "Core 2 measures memory traffic through FSB core events"
        );
    }

    #[test]
    fn group_descriptions_match_the_paper_table() {
        assert_eq!(EventGroupKind::FLOPS_DP.description(), "Double Precision MFlops/s");
        assert_eq!(EventGroupKind::DATA.description(), "Load to store ratio");
        assert_eq!(
            EventGroupKind::TLB.description(),
            "Translation lookaside buffer miss rate/ratio"
        );
    }
}
