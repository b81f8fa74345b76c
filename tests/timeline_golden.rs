//! Golden and round-trip tests for the time-resolved measurement
//! subsystem:
//!
//! 1. `likwid-perfctr -t` (timeline over the synthetic demo application,
//!    multiplexed `FLOPS_DP,MEM` group list) is byte-stable in ASCII, CSV
//!    and JSON;
//! 2. the time-resolved Jacobi case-study figure (`fig12_jacobi_timeline`)
//!    is byte-stable in ASCII and CSV, and its series show the blocked vs
//!    naive phase structure;
//! 3. every `TimeSeries`-bearing report satisfies
//!    `Report::from_json(Json.render(r)) == r`.

use likwid_bench::jacobi_timeline_report;
use likwid_suite::likwid::cli;
use likwid_suite::likwid::report::{Ascii, Body, Csv, Json, Render, Report};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

const PERFCTR_TIMELINE_ARGS: [&str; 8] =
    ["--machine", "westmere-ep-2s", "-c", "0-1", "-g", "FLOPS_DP,MEM", "-t", "1ms"];

#[test]
fn perfctr_timeline_ascii_and_csv_match_the_goldens() {
    let report = cli::perfctr_report(&args(&PERFCTR_TIMELINE_ARGS)).unwrap();
    assert_eq!(
        Ascii.render(&report),
        include_str!("golden/perfctr_timeline_westmere-ep-2s.txt"),
        "timeline ASCII must be byte-stable"
    );
    assert_eq!(
        Csv.render(&report),
        include_str!("golden/perfctr_timeline_westmere-ep-2s.csv"),
        "timeline CSV must be byte-stable"
    );
}

#[test]
fn perfctr_timeline_json_matches_the_golden() {
    let report = cli::perfctr_report(&args(&PERFCTR_TIMELINE_ARGS)).unwrap();
    assert_eq!(
        Json.render(&report),
        include_str!("golden/perfctr_timeline_westmere-ep-2s.json"),
        "timeline JSON must be byte-stable"
    );
}

#[test]
fn perfctr_timeline_report_round_trips_through_json() {
    let report = cli::perfctr_report(&args(&PERFCTR_TIMELINE_ARGS)).unwrap();
    assert!(
        report.sections.iter().any(|s| matches!(s.body, Body::TimeSeries(_))),
        "the report must carry TimeSeries bodies"
    );
    let parsed = Report::from_json(&Json.render(&report)).expect("timeline JSON must parse");
    assert_eq!(parsed, report, "from_json(Json.render(r)) == r for a TimeSeries-bearing report");
}

#[test]
fn jacobi_phase_figure_matches_the_goldens_and_round_trips() {
    let report = jacobi_timeline_report(104, 4, 200e-6).unwrap();
    assert_eq!(
        Ascii.render(&report),
        include_str!("golden/fig12_timeline_104.txt"),
        "Jacobi phase figure ASCII must be byte-stable"
    );
    assert_eq!(
        Csv.render(&report),
        include_str!("golden/fig12_timeline_104.csv"),
        "Jacobi phase figure CSV must be byte-stable"
    );
    let parsed = Report::from_json(&Json.render(&report)).expect("figure JSON must parse");
    assert_eq!(parsed, report);
}

#[test]
fn jacobi_phase_structure_is_visible_in_the_series() {
    let report = jacobi_timeline_report(104, 4, 200e-6).unwrap();
    let series_of = |id: &str| -> Vec<f64> {
        let Some(Body::TimeSeries(ts)) = report.section(id).map(|s| &s.body) else {
            panic!("section {id} must be a timeseries");
        };
        let s = ts
            .series_for("Memory bandwidth [MBytes/s]", 0)
            .expect("bandwidth series on the socket-lock owner");
        s.values.clone()
    };
    let threaded = series_of("threaded.timeline");
    let wavefront = series_of("wavefront.timeline");

    // The naive sweep alternates memory-saturating phases with fork/join
    // barriers: its bandwidth series swings visibly.
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        max(&threaded) > 1.3 * min(&threaded),
        "threaded sweeps vs barriers must swing: {threaded:?}"
    );

    // The blocked wavefront streams steadily at a fraction of the naive
    // bandwidth — only the pipeline ends touch memory.
    let steady = &wavefront[1..wavefront.len() - 1];
    let mean = steady.iter().sum::<f64>() / steady.len() as f64;
    let threaded_peak = max(&threaded);
    assert!(
        mean < 0.55 * threaded_peak,
        "wavefront steady-state ({mean}) must stay well below the naive peak ({threaded_peak})"
    );
}
