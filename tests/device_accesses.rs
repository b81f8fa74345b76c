//! Exact MSR device accesses of the measurement paths.
//!
//! Every `rdmsr` and `wrmsr` a measurement issues is a system call on a
//! real machine, so the number of device accesses is the tool's cost in
//! the unit the paper cares about, and, unlike host time, it is exact.
//! These tests pin that number for the interval of each `daemon_sessions`
//! session kind on its `nehalem-ep-2s` node, for a local multiplexed
//! group switch, for a whole local timeline run, for a timeline run whose
//! interval is rejected, and for one PAPI-style start/stop pair. A change to the
//! counter lifecycle moves them on purpose; any other change that moves
//! them is a regression.

use likwid_suite::daemon::{Daemon, IntervalFrame, OpenRequest};
use likwid_suite::likwid::perfctr::timeline::run_demo_timeline;
use likwid_suite::likwid::perfctr::{EventGroupKind, MeasurementSpec, PerfCtr, PerfCtrConfig};
use likwid_suite::likwid::LikwidError;
use likwid_suite::papi_compat::{Papi, PapiPreset};
use likwid_suite::x86_machine::{MachinePreset, MsrAccesses, SimMachine};

/// The device accesses of each of `count` consecutive intervals of a
/// `-c cpus -g group` daemon session, after two warm-up intervals.
fn interval_accesses(cpus: &str, group: &str, count: usize) -> Vec<MsrAccesses> {
    let machine = SimMachine::new(MachinePreset::NehalemEp2S);
    let daemon = Daemon::new(&machine);
    let request = OpenRequest {
        machine: None,
        cpus: cpus.to_string(),
        group: group.to_string(),
        interval: "100us".to_string(),
        duration: "10ms".to_string(),
    };
    let mut handle = daemon.open(&request).expect("session admitted");
    let mut frame = IntervalFrame::default();
    for _ in 0..2 {
        assert!(handle.next_interval_into(&mut frame).expect("warm-up interval"));
    }
    (0..count)
        .map(|_| {
            let before = machine.msr_accesses();
            assert!(handle.next_interval_into(&mut frame).expect("interval"));
            machine.msr_accesses().since(before)
        })
        .collect()
}

fn accesses(reads: u64, writes: u64) -> MsrAccesses {
    MsrAccesses { reads, writes }
}

#[test]
fn a_daemon_interval_costs_a_pinned_number_of_device_accesses() {
    // An interval programs, starts, reads and stops the session's counters
    // once each; only a socket-lock owner touches the package-scoped
    // uncore registers. Client A of `daemon_sessions`: MEM on socket 0,
    // cpu 0 owning its uncore.
    assert_eq!(interval_accesses("0-3", "MEM", 2), vec![accesses(42, 34); 2]);
    // Client B's multiplexed session: FLOPS_DP and MEM take turns, and
    // each interval programs its group once.
    assert_eq!(
        interval_accesses("2-5", "FLOPS_DP,MEM", 4),
        [accesses(72, 56), accesses(52, 44)].repeat(2)
    );
    // Client B's core-only session.
    assert_eq!(interval_accesses("2-5", "FLOPS_DP", 2), vec![accesses(72, 56); 2]);
}

#[test]
fn a_local_group_switch_costs_a_pinned_number_of_device_accesses() {
    let machine = SimMachine::new(MachinePreset::NehalemEp2S);
    let config = PerfCtrConfig {
        cpus: vec![2, 3, 4, 5],
        spec: MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM]),
    };
    let mut session = PerfCtr::new(&machine, config).expect("session");
    session.start().expect("start");
    let switches: Vec<MsrAccesses> = (0..2)
        .map(|_| {
            let before = machine.msr_accesses();
            session.switch_group().expect("switch");
            machine.msr_accesses().since(before)
        })
        .collect();
    // Stop the active group's slots, fold the reading, program and start
    // the next group.
    assert_eq!(switches, vec![accesses(60, 46), accesses(64, 54)]);
}

#[test]
fn a_whole_local_timeline_run_costs_a_pinned_number_of_device_accesses() {
    // `likwid-perfctr --machine nehalem-ep-2s -c 2-5 -g <groups> -t 1ms`
    // over the 10 ms demo window: set-up, ten intervals and finish. The
    // last interval suspends instead of rotating, so `finish` reads
    // nothing again.
    let run = |groups: Vec<EventGroupKind>| {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let config =
            PerfCtrConfig { cpus: vec![2, 3, 4, 5], spec: MeasurementSpec::Groups(groups) };
        let before = machine.msr_accesses();
        let result = run_demo_timeline(&machine, config, 1e-3, 10e-3).expect("timeline run");
        assert_eq!(result.intervals.len(), 10);
        machine.msr_accesses().since(before)
    };
    assert_eq!(run(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM]), accesses(620, 500));
    assert_eq!(run(vec![EventGroupKind::FLOPS_DP]), accesses(216, 56));
}

#[test]
fn a_rejected_timeline_interval_touches_no_device() {
    // `likwid-perfctr --machine westmere-ep-2s -c 0 -g FLOPS_DP -t 1e-12`
    // cuts the demo window into far more than `MAX_INTERVALS` sampling
    // points: a usage error, found before any counter is programmed.
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let config =
        PerfCtrConfig { cpus: vec![0], spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP) };
    let before = machine.msr_accesses();
    let outcome = run_demo_timeline(&machine, config, 1e-12, 10e-3);
    assert!(matches!(outcome, Err(LikwidError::Usage(_))), "{:?}", outcome.err());
    assert_eq!(machine.msr_accesses().since(before), accesses(0, 0));
}

#[test]
fn a_papi_style_start_stop_pair_costs_a_pinned_number_of_device_accesses() {
    let machine = SimMachine::new(MachinePreset::NehalemEp2S);
    let mut papi = Papi::library_init(&machine);
    let set = papi.create_eventset(0).expect("event set");
    papi.add_event(set, PapiPreset::PAPI_DP_OPS).expect("DP ops");
    papi.add_event(set, PapiPreset::PAPI_TOT_CYC).expect("cycles");
    let before = machine.msr_accesses();
    papi.start(set).expect("start");
    let started = machine.msr_accesses();
    papi.stop(set).expect("stop");
    let stopped = machine.msr_accesses();
    // PAPI_DP_OPS sits on PMC0, PAPI_TOT_CYC on a fixed counter. Start
    // sets the PMC's enable bit and writes the core global control
    // register; stop reads both counters, clears that register and the
    // PMC's enable bit. Neither touches the uncore global control: no
    // uncore slot is in the set.
    assert_eq!((started.since(before), stopped.since(started)), (accesses(1, 2), accesses(3, 2)));
}
