//! Golden and round-trip tests for the `likwid-bench` microbenchmark tool,
//! mirroring `tests/report_golden.rs`:
//!
//! 1. ASCII output is byte-identical to the goldens under `tests/golden/`;
//! 2. the JSON rendering parses back into an equal document;
//! 3. the acceptance scenario — `-t daxpy -w 64MB -c S0:0-3 -g MEM` — runs
//!    on every machine preset.

use likwid_bench::microbench::{likwid_bench_report, likwid_bench_spec};
use likwid_suite::likwid::report::{Ascii, Json, Render, Report};
use likwid_suite::x86_machine::MachinePreset;

fn report_for(list: &[&str]) -> Report {
    let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
    likwid_bench_report(&likwid_bench_spec().parse(&args).unwrap()).unwrap()
}

fn assert_round_trip(report: &Report, golden: &str) {
    assert_eq!(
        Ascii.render(report),
        golden,
        "ASCII output must be byte-identical to the captured golden"
    );
    let parsed = Report::from_json(&Json.render(report)).expect("likwid-bench JSON must parse");
    assert_eq!(&parsed, report, "JSON round-trip must reproduce the document");
}

#[test]
fn daxpy_with_mem_counters_matches_the_golden() {
    let report = report_for(&[
        "-t",
        "daxpy",
        "-w",
        "32MB",
        "-c",
        "S0:0-3",
        "-g",
        "MEM",
        "-i",
        "1",
        "--machine",
        "nehalem-ep-2s",
    ]);
    assert_round_trip(&report, include_str!("golden/likwid_bench_daxpy_nehalem-ep-2s.txt"));
    // The counter sections carry typed values a consumer reads without
    // scraping: the uncore reads credited to the socket-lock owner.
    let events = report.table("counters.events").expect("events table");
    let reads = events.cell("UNC_QMC_NORMAL_READS_ANY", "core 0").expect("typed cell");
    assert!(reads.as_count().unwrap() > 500_000, "two 16 MB arrays stream in");
}

#[test]
fn pointer_chase_matches_the_golden() {
    let report = report_for(&["-t", "chase", "-w", "256kB", "-c", "0", "--machine", "core2-quad"]);
    assert_round_trip(&report, include_str!("golden/likwid_bench_chase_core2-quad.txt"));
}

#[test]
fn coherence_kernel_matches_the_golden() {
    let report = report_for(&[
        "-t",
        "coherence",
        "-w",
        "1MB",
        "-c",
        "S0:0-1@S1:0-1",
        "-g",
        "MEM",
        "--machine",
        "nehalem-ep-2s",
    ]);
    assert_round_trip(&report, include_str!("golden/likwid_bench_coherence_nehalem-ep-2s.txt"));
}

#[test]
fn daxpy_mem_acceptance_scenario_runs_on_every_machine_preset() {
    for &preset in MachinePreset::all() {
        let report = report_for(&[
            "-t",
            "daxpy",
            "-w",
            "64MB",
            "-c",
            "S0:0-3",
            "-g",
            "MEM",
            "--machine",
            preset.id(),
        ]);
        let parsed = Report::from_json(&Json.render(&report))
            .unwrap_or_else(|e| panic!("{preset:?}: invalid JSON: {e:?}"));
        assert_eq!(parsed, report, "{preset:?}");
        let bw = report
            .value("bench", "Bandwidth [MBytes/s]")
            .and_then(|v| v.as_real())
            .unwrap_or_else(|| panic!("{preset:?}: no bandwidth"));
        assert!(bw > 0.0, "{preset:?}: bandwidth {bw}");
        assert!(report.table("counters.events").is_some(), "{preset:?}: MEM group events measured");
    }
}
