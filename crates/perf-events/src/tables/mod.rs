//! Per-microarchitecture event tables.
//!
//! Each submodule mirrors one of LIKWID's per-architecture event header
//! files: the documented event names of that CPU generation together with
//! their event-select codes, unit masks, and the counters that can carry
//! them. [`for_arch`] returns the table matching a
//! [`likwid_x86_machine::Microarch`], which is how `likwid-perfctr`
//! dispatches after CPU identification.
//!
//! Event codes follow the vendor documentation where the exact value
//! matters for the reproduced experiments (fixed counters, SIMD retired
//! instruction events, the Nehalem uncore L3/QMC events of Table II); for
//! the remaining events the codes are representative. The simulator keys
//! its counting on the `(code, umask)` selector, so all that is required
//! for correctness is that selectors are unique per architecture — a
//! property the tests check for every table.

use likwid_x86_machine::Microarch;

use crate::event::{CounterClass, EventDefinition, EventTable};
use crate::kinds::HwEventKind;

pub mod atom;
pub mod core2;
pub mod k10;
pub mod k8;
pub mod nehalem;
pub mod pentium_m;
pub mod westmere;

/// Shorthand used by the per-architecture tables.
pub(crate) fn ev(
    name: &'static str,
    event_code: u16,
    umask: u8,
    counters: CounterClass,
    kind: HwEventKind,
) -> EventDefinition {
    EventDefinition { name, event_code, umask, counters, kind }
}

/// The event table for a microarchitecture.
pub fn for_arch(arch: Microarch) -> EventTable {
    match arch {
        Microarch::PentiumM => pentium_m::table(),
        Microarch::Atom => atom::table(),
        Microarch::Core2 => core2::table(),
        Microarch::NehalemEp => nehalem::table(),
        Microarch::WestmereEp => westmere::table(),
        Microarch::K8 => k8::table(),
        Microarch::K10 => k10::table(),
    }
}

/// The Intel fixed-counter events shared by Core 2 and newer (the events the
/// paper notes are "always counted" so that CPI is available for free).
pub(crate) fn intel_fixed_events() -> Vec<EventDefinition> {
    vec![
        ev(
            "INSTR_RETIRED_ANY",
            0xC0,
            0x00,
            CounterClass::Fixed(0),
            HwEventKind::InstructionsRetired,
        ),
        ev("CPU_CLK_UNHALTED_CORE", 0x3C, 0x00, CounterClass::Fixed(1), HwEventKind::CoreCycles),
        ev(
            "CPU_CLK_UNHALTED_REF",
            0x3C,
            0x01,
            CounterClass::Fixed(2),
            HwEventKind::ReferenceCycles,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arch_has_a_table_with_unique_names_and_selectors() {
        for &arch in Microarch::all() {
            let table = for_arch(arch);
            assert!(!table.events.is_empty(), "{arch:?} table is empty");

            let mut names: Vec<&str> = table.events.iter().map(|e| e.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "{arch:?} has duplicate event names");

            // Selectors must be unique within the core and uncore spaces.
            for uncore in [false, true] {
                let mut sels: Vec<u16> = table
                    .events
                    .iter()
                    .filter(|e| {
                        matches!(e.counters, CounterClass::AnyUncorePmc | CounterClass::UncoreFixed)
                            == uncore
                    })
                    .map(|e| e.selector())
                    .collect();
                sels.sort_unstable();
                let before = sels.len();
                sels.dedup();
                assert_eq!(
                    before,
                    sels.len(),
                    "{arch:?} has duplicate selectors (uncore={uncore})"
                );
            }
        }
    }

    #[test]
    fn counter_counts_match_the_machine_description() {
        for &arch in Microarch::all() {
            let table = for_arch(arch);
            assert_eq!(table.num_pmc, arch.num_pmc(), "{arch:?} PMC count");
            assert_eq!(table.num_fixed, arch.num_fixed_counters(), "{arch:?} fixed count");
            assert_eq!(table.num_uncore_pmc, arch.num_uncore_pmc(), "{arch:?} uncore count");
        }
    }

    #[test]
    fn counter_widths_match_the_msr_register_map() {
        // The session layer corrects wraparound using the widths advertised
        // here, so they must agree with the widths the MSR substrate
        // actually wraps at.
        use likwid_x86_machine::msr::{register_map, Msr};
        for &arch in Microarch::all() {
            let table = for_arch(arch);
            let map = register_map(arch);
            let width_of = |address: u32| {
                map.iter().find(|d| d.address == address).map(|d| d.width).unwrap_or(0)
            };
            let pmc0 = match arch {
                Microarch::K8 | Microarch::K10 => Msr::AMD_PMC0,
                _ => Msr::IA32_PMC0,
            };
            assert_eq!(table.pmc_bits, width_of(pmc0), "{arch:?} PMC width");
            assert_eq!(table.fixed_bits, width_of(Msr::IA32_FIXED_CTR0), "{arch:?} fixed width");
            assert_eq!(table.uncore_bits, width_of(Msr::MSR_UNCORE_PMC0), "{arch:?} uncore width");
            assert_eq!(
                table.uncore_bits,
                width_of(Msr::MSR_UNCORE_FIXED_CTR0),
                "{arch:?} uncore fixed width"
            );
        }
    }

    #[test]
    fn the_papers_core2_events_exist() {
        let t = for_arch(Microarch::Core2);
        for name in [
            "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE",
            "SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE",
            "INSTR_RETIRED_ANY",
            "CPU_CLK_UNHALTED_CORE",
        ] {
            assert!(t.find(name).is_some(), "Core 2 table is missing {name}");
        }
    }

    #[test]
    fn the_papers_nehalem_uncore_events_exist() {
        let t = for_arch(Microarch::NehalemEp);
        for name in ["UNC_L3_LINES_IN_ANY", "UNC_L3_LINES_OUT_ANY"] {
            assert!(t.find(name).is_some(), "Nehalem table is missing {name}");
            let e = t.find(name).unwrap();
            assert!(matches!(e.counters, CounterClass::AnyUncorePmc));
        }
    }

    #[test]
    fn fixed_events_only_exist_on_architectures_with_fixed_counters() {
        for &arch in Microarch::all() {
            let t = for_arch(arch);
            let has_fixed_event =
                t.events.iter().any(|e| matches!(e.counters, CounterClass::Fixed(_)));
            assert_eq!(
                has_fixed_event,
                arch.num_fixed_counters() > 0,
                "{arch:?} fixed-event presence mismatch"
            );
        }
    }

    #[test]
    fn every_documented_event_resolves_to_a_valid_counter_assignment() {
        use crate::event::CounterSlot;
        for &arch in Microarch::all() {
            let table = for_arch(arch);
            for event in &table.events {
                let slots = table.allowed_slots(event);
                assert!(
                    !slots.is_empty(),
                    "{arch:?} event {} has no counter it can be scheduled on",
                    event.name
                );
                for slot in slots {
                    // Every advertised slot must exist on the machine.
                    match slot {
                        CounterSlot::Pmc(n) => assert!(
                            (n as usize) < table.num_pmc,
                            "{arch:?} {}: PMC{n} beyond num_pmc={}",
                            event.name,
                            table.num_pmc
                        ),
                        CounterSlot::Fixed(n) => assert!(
                            (n as usize) < table.num_fixed,
                            "{arch:?} {}: FIXC{n} beyond num_fixed={}",
                            event.name,
                            table.num_fixed
                        ),
                        CounterSlot::UncorePmc(n) => assert!(
                            (n as usize) < table.num_uncore_pmc,
                            "{arch:?} {}: UPMC{n} beyond num_uncore_pmc={}",
                            event.name,
                            table.num_uncore_pmc
                        ),
                        CounterSlot::UncoreFixed => assert!(
                            arch.has_uncore(),
                            "{arch:?} {}: UPMCFIX on a machine without an uncore",
                            event.name
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn selector_lookup_round_trips_for_every_event() {
        for &arch in Microarch::all() {
            let table = for_arch(arch);
            for event in &table.events {
                let uncore = matches!(
                    event.counters,
                    CounterClass::AnyUncorePmc | CounterClass::UncoreFixed
                );
                let found = table
                    .find_by_selector(event.selector(), uncore)
                    .unwrap_or_else(|| panic!("{arch:?} {} lost by selector lookup", event.name));
                assert_eq!(found.name, event.name, "{arch:?} selector collision");
            }
        }
    }

    #[test]
    fn uncore_events_only_exist_on_uncore_architectures() {
        for &arch in Microarch::all() {
            let t = for_arch(arch);
            let has_uncore = t.events.iter().any(|e| {
                matches!(e.counters, CounterClass::AnyUncorePmc | CounterClass::UncoreFixed)
            });
            assert_eq!(has_uncore, arch.has_uncore(), "{arch:?} uncore-event presence mismatch");
        }
    }
}
