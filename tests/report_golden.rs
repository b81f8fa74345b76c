//! Golden-file and round-trip tests for the structured report API.
//!
//! Three properties are pinned for every tool on at least two machine
//! presets, plus the deterministic figure generators:
//!
//! 1. **ASCII is byte-identical to the pre-report output** — the files
//!    under `tests/golden/` were captured from the string-pushing
//!    implementation the report model replaced; rendering the typed
//!    document must reproduce them exactly.
//! 2. **JSON round-trips**: `Report::from_json(Json.render(r)) == r`.
//! 3. **CSV mirrors the document model**: section markers, row counts and
//!    per-record field counts all match the typed document.
//!
//! One perfctr invocation also pins its JSON rendering byte for byte.

use likwid_suite::likwid::cli;
use likwid_suite::likwid::report::{Body, Csv, Json, Render, Report};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Minimal RFC-4180-style CSV reader: records of fields, quotes and
/// embedded newlines respected. Only used to verify the renderer.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => record.push(std::mem::take(&mut field)),
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c => field.push(c),
            }
        }
    }
    assert!(!in_quotes, "unterminated quoted field");
    assert!(field.is_empty() && record.is_empty(), "CSV must end with a newline");
    assert!(saw_any, "CSV output must not be empty");
    records
}

/// Walk the CSV records and the document in lockstep, checking the shape.
fn assert_csv_matches_report(csv: &str, report: &Report) {
    let records = parse_csv(csv);
    let mut at = 0;
    for section in &report.sections {
        assert_eq!(
            records[at],
            vec!["SECTION".to_string(), section.id.clone()],
            "section marker for '{}'",
            section.id
        );
        at += 1;
        match &section.body {
            Body::KeyValues(entries) => {
                for entry in entries {
                    assert_eq!(records[at].len(), 2, "kv record of '{}'", entry.key);
                    assert_eq!(records[at][0], entry.key);
                    at += 1;
                }
            }
            Body::Table(table) => {
                assert_eq!(records[at].len(), table.num_columns(), "header of '{}'", section.id);
                at += 1;
                for row in &table.rows {
                    assert_eq!(
                        records[at].len(),
                        table.num_columns(),
                        "row width in '{}'",
                        section.id
                    );
                    assert_eq!(row.values.len(), table.num_columns());
                    at += 1;
                }
            }
            Body::Text(_) => {
                assert_eq!(records[at].len(), 2);
                assert_eq!(records[at][0], "text");
                at += 1;
            }
            Body::TimeSeries(ts) => {
                assert_eq!(
                    records[at],
                    vec!["time", "metric", "cpu", "value"],
                    "long-format header of '{}'",
                    section.id
                );
                at += 1;
                for (j, _) in ts.timestamps.iter().enumerate() {
                    for series in &ts.series {
                        if series.values.get(j).is_none() {
                            continue;
                        }
                        assert_eq!(records[at].len(), 4, "timeseries record in '{}'", section.id);
                        assert_eq!(records[at][1], series.metric);
                        assert_eq!(records[at][2], series.cpu.to_string());
                        at += 1;
                    }
                }
            }
        }
    }
    assert_eq!(at, records.len(), "no trailing CSV records");
}

/// The three pinned properties for one tool invocation.
fn assert_tool_round_trip(report: Report, ascii: String, golden: &str, expect_min_sections: usize) {
    assert!(report.sections.len() >= expect_min_sections);
    assert_eq!(ascii, golden, "ASCII output must be byte-identical to the pre-report capture");

    let json = Json.render(&report);
    let parsed = Report::from_json(&json).expect("tool JSON must parse back");
    assert_eq!(parsed, report, "JSON round-trip must reproduce the document");

    assert_csv_matches_report(&Csv.render(&report), &report);
}

#[test]
fn topology_reports_round_trip_on_two_presets() {
    for (preset, golden) in [
        ("westmere-ep-2s", include_str!("golden/topology_westmere-ep-2s.txt")),
        ("core2-quad", include_str!("golden/topology_core2-quad.txt")),
    ] {
        let argv = args(&["--machine", preset, "-c", "-g"]);
        assert_tool_round_trip(
            cli::topology_report(&argv).unwrap(),
            cli::run_topology(&argv).unwrap(),
            golden,
            6,
        );
    }
}

#[test]
fn features_reports_round_trip_on_two_presets() {
    for (preset, golden) in [
        ("core2-duo", include_str!("golden/features_core2-duo.txt")),
        ("westmere-ep-2s", include_str!("golden/features_westmere-ep-2s.txt")),
    ] {
        let argv = args(&["--machine", preset]);
        assert_tool_round_trip(
            cli::features_report(&argv).unwrap(),
            cli::run_features(&argv).unwrap(),
            golden,
            2,
        );
    }
}

#[test]
fn pin_reports_round_trip_on_two_presets() {
    for (argv, golden) in [
        (
            args(&["--machine", "westmere-ep-2s", "-c", "0-3", "-t", "intel", "-n", "4"]),
            include_str!("golden/pin_westmere-ep-2s.txt"),
        ),
        (
            args(&["--machine", "core2-quad", "-c", "0-3", "-n", "4"]),
            include_str!("golden/pin_core2-quad.txt"),
        ),
    ] {
        assert_tool_round_trip(
            cli::pin_report(&argv).unwrap(),
            cli::run_pin(&argv).unwrap(),
            golden,
            2,
        );
    }
}

#[test]
fn perfctr_reports_round_trip_on_two_presets() {
    for (argv, golden) in [
        (
            args(&["--machine", "nehalem-ep-2s", "-c", "0-7", "-g", "MEM"]),
            include_str!("golden/perfctr_nehalem-ep-2s.txt"),
        ),
        (
            args(&[
                "--machine",
                "core2-quad",
                "-c",
                "1",
                "-g",
                "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC0,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE:PMC1",
            ]),
            include_str!("golden/perfctr_core2-quad.txt"),
        ),
        (
            args(&["--machine", "westmere-ep-2s", "-a"]),
            include_str!("golden/perfctr_groups_westmere-ep-2s.txt"),
        ),
    ] {
        assert_tool_round_trip(
            cli::perfctr_report(&argv).unwrap(),
            cli::run_perfctr(&argv).unwrap(),
            golden,
            1,
        );
    }
}

#[test]
fn perfctr_json_matches_the_golden() {
    let report =
        cli::perfctr_report(&args(&["--machine", "nehalem-ep-2s", "-c", "0-7", "-g", "MEM"]))
            .unwrap();
    assert_eq!(
        Json.render(&report),
        include_str!("golden/perfctr_nehalem-ep-2s.json"),
        "-O json must be byte-stable"
    );
}

#[test]
fn figure_reports_round_trip_against_their_goldens() {
    let cases: Vec<(Report, &str)> = vec![
        (likwid_bench::figure1_report(), include_str!("golden/fig01.txt")),
        (
            {
                let mut r = Report::new("figure2");
                r.extend(likwid_bench::figure2_report(
                    likwid_suite::x86_machine::MachinePreset::WestmereEp2S,
                ));
                r.extend(likwid_bench::figure2_report(
                    likwid_suite::x86_machine::MachinePreset::Core2Quad,
                ));
                r
            },
            include_str!("golden/fig02.txt"),
        ),
        (likwid_bench::figure3_report(), include_str!("golden/fig03.txt")),
        (
            likwid_bench::stream_figure_report(likwid_bench::stream_figures()[1], 3, 5),
            include_str!("golden/fig05_s3.txt"),
        ),
        (likwid_bench::figure11_report(&[32, 48], 4), include_str!("golden/fig11_32_48.txt")),
        (likwid_bench::table2_report(48, 4), include_str!("golden/table2_48.txt")),
    ];
    for (report, golden) in cases {
        let ascii = likwid_suite::likwid::report::Ascii.render(&report);
        assert_tool_round_trip(report, ascii, golden, 1);
    }
}

#[test]
fn csv_shape_matches_for_every_machine_preset() {
    use likwid_suite::x86_machine::MachinePreset;
    for &preset in MachinePreset::all() {
        let argv = args(&["--machine", preset.id(), "-c", "-g"]);
        let report = cli::topology_report(&argv).unwrap();
        assert_csv_matches_report(&Csv.render(&report), &report);
        let parsed = Report::from_json(&Json.render(&report)).expect("parse back");
        assert_eq!(parsed, report, "{preset:?}");
    }
}
