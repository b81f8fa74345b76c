//! Event table for the Intel Westmere EP microarchitecture.
//!
//! Westmere is the 32 nm shrink of Nehalem; its core and uncore event sets
//! are, for the events used by the preconfigured groups, identical to
//! Nehalem's. LIKWID handles the two generations with largely shared tables
//! and so does this reproduction.

use crate::event::EventTable;
use crate::tables::{intel_fixed_events, nehalem};

/// Build the Westmere EP event table.
pub fn table() -> EventTable {
    let mut events = intel_fixed_events();
    events.extend(nehalem::core_events());
    events.extend(nehalem::uncore_events());
    EventTable {
        arch_name: "Intel Westmere EP",
        num_pmc: 4,
        num_fixed: 3,
        num_uncore_pmc: 8,
        pmc_bits: 48,
        fixed_bits: 44,
        uncore_bits: 48,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn westmere_carries_the_nehalem_event_set() {
        let w = table();
        let n = nehalem::table();
        assert_eq!(w.events.len(), n.events.len());
        for e in &n.events {
            assert!(w.find(e.name).is_some(), "Westmere is missing {}", e.name);
        }
    }
}
