//! Event definitions and per-architecture event tables.

use crate::kinds::HwEventKind;

/// A counter slot an event can be programmed into.
///
/// The names follow LIKWID's command-line syntax (`…:PMC0`, `…:FIXC1`,
/// `…:UPMC0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterSlot {
    /// General-purpose core counter `n`.
    Pmc(u8),
    /// Fixed-function core counter `n` (0 = INSTR_RETIRED_ANY,
    /// 1 = CPU_CLK_UNHALTED_CORE, 2 = CPU_CLK_UNHALTED_REF).
    Fixed(u8),
    /// General-purpose uncore counter `n` (Nehalem/Westmere).
    UncorePmc(u8),
    /// The fixed uncore clock counter.
    UncoreFixed,
}

impl CounterSlot {
    /// LIKWID-style name ("PMC0", "FIXC1", "UPMC3", "UPMCFIX").
    pub fn name(self) -> String {
        match self {
            CounterSlot::Pmc(n) => format!("PMC{n}"),
            CounterSlot::Fixed(n) => format!("FIXC{n}"),
            CounterSlot::UncorePmc(n) => format!("UPMC{n}"),
            CounterSlot::UncoreFixed => "UPMCFIX".to_string(),
        }
    }

    /// Parse a LIKWID-style counter name.
    pub fn parse(name: &str) -> Option<Self> {
        if name == "UPMCFIX" {
            return Some(CounterSlot::UncoreFixed);
        }
        if let Some(rest) = name.strip_prefix("UPMC") {
            return rest.parse().ok().map(CounterSlot::UncorePmc);
        }
        if let Some(rest) = name.strip_prefix("PMC") {
            return rest.parse().ok().map(CounterSlot::Pmc);
        }
        if let Some(rest) = name.strip_prefix("FIXC") {
            return rest.parse().ok().map(CounterSlot::Fixed);
        }
        None
    }

    /// Whether this slot lives in the uncore.
    pub fn is_uncore(self) -> bool {
        matches!(self, CounterSlot::UncorePmc(_) | CounterSlot::UncoreFixed)
    }
}

/// Which class of counters an event may be scheduled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterClass {
    /// Any general-purpose core counter.
    AnyPmc,
    /// A specific fixed counter.
    Fixed(u8),
    /// Any general-purpose uncore counter.
    AnyUncorePmc,
    /// The fixed uncore clock counter.
    UncoreFixed,
}

impl CounterClass {
    /// Whether events of this class count on uncore counters.
    pub fn is_uncore(self) -> bool {
        matches!(self, CounterClass::AnyUncorePmc | CounterClass::UncoreFixed)
    }
}

/// One documented hardware event of an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDefinition {
    /// Documented event name (as written on the `-g` command line).
    pub name: &'static str,
    /// Event-select code (bits 7:0 of PERFEVTSEL).
    pub event_code: u16,
    /// Unit mask (bits 15:8 of PERFEVTSEL).
    pub umask: u8,
    /// Which counters can carry the event.
    pub counters: CounterClass,
    /// The architectural quantity the event measures in the simulator.
    pub kind: HwEventKind,
}

impl EventDefinition {
    /// The `(event_code, umask)` pair packed as the low 16 bits of a
    /// PERFEVTSEL value — the key the counting engine uses to recognise a
    /// programmed event.
    pub fn selector(&self) -> u16 {
        ((self.umask as u16) << 8) | (self.event_code & 0xFF)
    }
}

/// The complete event table of one microarchitecture.
#[derive(Debug, Clone)]
pub struct EventTable {
    /// Architecture display name (diagnostics only).
    pub arch_name: &'static str,
    /// Number of general-purpose core counters.
    pub num_pmc: usize,
    /// Number of fixed counters.
    pub num_fixed: usize,
    /// Number of general-purpose uncore counters.
    pub num_uncore_pmc: usize,
    /// Implemented bits of the general-purpose core counters (40 or 48).
    pub pmc_bits: u32,
    /// Implemented bits of the fixed-function counters (44; 0 when absent).
    pub fixed_bits: u32,
    /// Implemented bits of the uncore counters (48; 0 when absent).
    pub uncore_bits: u32,
    /// All documented events.
    pub events: Vec<EventDefinition>,
}

impl EventTable {
    /// Implemented width in bits of the counter backing `slot` — the width
    /// the session layer uses for wraparound-correct delta computation.
    pub fn counter_bits(&self, slot: CounterSlot) -> u32 {
        match slot {
            CounterSlot::Pmc(_) => self.pmc_bits,
            CounterSlot::Fixed(_) => self.fixed_bits,
            CounterSlot::UncorePmc(_) | CounterSlot::UncoreFixed => self.uncore_bits,
        }
    }

    /// Look up an event by its documented name.
    pub fn find(&self, name: &str) -> Option<&EventDefinition> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Look up an event by its `(event_code, umask)` selector within a
    /// counter class (core or uncore): the linear scan that the counting
    /// engine's selector index is checked against.
    #[cfg(test)]
    pub(crate) fn find_by_selector(&self, selector: u16, uncore: bool) -> Option<&EventDefinition> {
        self.events.iter().find(|e| e.selector() == selector && e.counters.is_uncore() == uncore)
    }

    /// All counter slots that can carry the given event on this architecture.
    pub fn allowed_slots(&self, event: &EventDefinition) -> Vec<CounterSlot> {
        match event.counters {
            CounterClass::AnyPmc => (0..self.num_pmc as u8).map(CounterSlot::Pmc).collect(),
            CounterClass::Fixed(n) => vec![CounterSlot::Fixed(n)],
            CounterClass::AnyUncorePmc => {
                (0..self.num_uncore_pmc as u8).map(CounterSlot::UncorePmc).collect()
            }
            CounterClass::UncoreFixed => vec![CounterSlot::UncoreFixed],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, code: u16, umask: u8, kind: HwEventKind) -> EventDefinition {
        EventDefinition { name, event_code: code, umask, counters: CounterClass::AnyPmc, kind }
    }

    fn table() -> EventTable {
        EventTable {
            arch_name: "test",
            num_pmc: 2,
            num_fixed: 3,
            num_uncore_pmc: 8,
            pmc_bits: 48,
            fixed_bits: 44,
            uncore_bits: 48,
            events: vec![
                event("EVENT_A", 0x10, 0x01, HwEventKind::LoadsRetired),
                event("EVENT_B", 0x10, 0x02, HwEventKind::StoresRetired),
                EventDefinition {
                    name: "FIXED_INSTR",
                    event_code: 0,
                    umask: 0,
                    counters: CounterClass::Fixed(0),
                    kind: HwEventKind::InstructionsRetired,
                },
                EventDefinition {
                    name: "UNC_EVENT",
                    event_code: 0x20,
                    umask: 0x03,
                    counters: CounterClass::AnyUncorePmc,
                    kind: HwEventKind::L3LinesIn,
                },
            ],
        }
    }

    #[test]
    fn counter_slot_names_round_trip() {
        for slot in [
            CounterSlot::Pmc(0),
            CounterSlot::Pmc(3),
            CounterSlot::Fixed(1),
            CounterSlot::UncorePmc(7),
            CounterSlot::UncoreFixed,
        ] {
            assert_eq!(CounterSlot::parse(&slot.name()), Some(slot));
        }
        assert_eq!(CounterSlot::parse("XYZ0"), None);
        assert_eq!(CounterSlot::parse("PMCx"), None);
    }

    #[test]
    fn selector_packs_code_and_umask() {
        let e = event("E", 0x3C, 0x01, HwEventKind::CoreCycles);
        assert_eq!(e.selector(), 0x013C);
    }

    #[test]
    fn find_by_name_and_selector() {
        let t = table();
        assert!(t.find("EVENT_A").is_some());
        assert!(t.find("NO_SUCH_EVENT").is_none());
        let a = t.find("EVENT_A").unwrap();
        assert_eq!(t.find_by_selector(a.selector(), false).unwrap().name, "EVENT_A");
        // Same selector in the uncore space finds nothing.
        assert!(t.find_by_selector(a.selector(), true).is_none());
        let u = t.find("UNC_EVENT").unwrap();
        assert_eq!(t.find_by_selector(u.selector(), true).unwrap().name, "UNC_EVENT");
    }

    #[test]
    fn allowed_slots_respect_the_counter_class() {
        let t = table();
        assert_eq!(
            t.allowed_slots(t.find("EVENT_A").unwrap()),
            vec![CounterSlot::Pmc(0), CounterSlot::Pmc(1)]
        );
        assert_eq!(t.allowed_slots(t.find("FIXED_INSTR").unwrap()), vec![CounterSlot::Fixed(0)]);
        assert_eq!(t.allowed_slots(t.find("UNC_EVENT").unwrap()).len(), 8);
    }

    #[test]
    fn counter_bits_follow_the_slot_class() {
        let t = table();
        assert_eq!(t.counter_bits(CounterSlot::Pmc(1)), 48);
        assert_eq!(t.counter_bits(CounterSlot::Fixed(0)), 44);
        assert_eq!(t.counter_bits(CounterSlot::UncorePmc(3)), 48);
        assert_eq!(t.counter_bits(CounterSlot::UncoreFixed), 48);
    }
}
