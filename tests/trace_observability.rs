//! Observation neutrality and trace validity.
//!
//! The self-observability layer must be invisible in every report: running
//! a tool with `--trace` may write a trace file and a stderr rollup, but
//! the rendered `Report` — stdout or `-o` file — has to stay byte-identical
//! to the untraced run. These tests pin that contract across the perfctr
//! aggregate/stethoscope/timeline paths, the fleet sweep, and the
//! daemon-routed experiment path, and validate the trace files themselves:
//! Chrome trace-event JSON parses, B/E spans balance per track, timestamps
//! never regress, and folded stacks are `flamegraph.pl`-ready.
//!
//! The recorder is process-global, so every test here serializes on one
//! lock: a traced test must not capture spans from a concurrently running
//! neighbour, and an untraced reference run must not record at all.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use likwid_suite::daemon::Daemon;
use likwid_suite::fleet::cli::fleet_main;
use likwid_suite::likwid::cli::{run_perfctr, tool_main, Tool};
use likwid_suite::likwid::json::JsonValue;
use likwid_suite::likwid::perfctr::parse_measurement_spec;
use likwid_suite::likwid::report::{Ascii, Render};
use likwid_suite::likwid::trace;
use likwid_suite::perf_events::EventEngine;
use likwid_suite::workloads::kernels::kernel_by_name;
use likwid_suite::workloads::{Experiment, PlacementPolicy};
use likwid_suite::x86_machine::{MachinePreset, SimMachine};

static RECORDER: Mutex<()> = Mutex::new(());

/// Serialize tests around the process-global recorder. A panicking
/// neighbour must not wedge the rest of the suite, so poisoning is fine.
fn recorder_lock() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// A scratch directory in the system temp dir, removed (with everything in
/// it) when the guard drops, so a failing test cleans up too.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("likwid-trace-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tempdir");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Parse a Chrome trace file and return its `traceEvents` array.
fn chrome_events(path: &Path) -> Vec<JsonValue> {
    let text = read(path);
    let parsed = JsonValue::parse(&text)
        .unwrap_or_else(|e| panic!("{}: trace is not valid JSON: {e}", path.display()));
    match parsed.get("traceEvents") {
        Some(JsonValue::Arr(events)) => events.clone(),
        _ => panic!("{}: no traceEvents array", path.display()),
    }
}

/// The Perfetto-facing invariants: every event carries the common fields,
/// B/E pairs balance per (pid, tid) track, and timestamps never regress
/// within a track.
fn assert_valid_chrome_trace(path: &Path) -> Vec<JsonValue> {
    let events = chrome_events(path);
    assert!(!events.is_empty(), "{}: empty trace", path.display());
    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for event in &events {
        let ph = event.get("ph").and_then(JsonValue::as_str).expect("event has ph");
        let pid = event.get("pid").and_then(JsonValue::as_u64).expect("event has pid");
        let tid = event.get("tid").and_then(JsonValue::as_u64).expect("event has tid");
        if ph == "M" {
            continue; // process_name / thread_name metadata has no timestamp
        }
        let ts = event.get("ts").and_then(JsonValue::as_f64).expect("event has ts");
        let last = last_ts.entry((pid, tid)).or_insert(ts);
        assert!(ts >= *last, "{}: ts regresses on pid {pid} tid {tid}", path.display());
        *last = ts;
        let track = depth.entry((pid, tid)).or_insert(0);
        match ph {
            "B" => {
                assert!(event.get("name").is_some(), "B event without name");
                *track += 1;
            }
            "E" => {
                *track -= 1;
                assert!(*track >= 0, "{}: E without B on pid {pid} tid {tid}", path.display());
            }
            "X" => {
                assert!(event.get("name").is_some(), "X event without name");
                assert!(
                    event.get("dur").and_then(JsonValue::as_f64).is_some(),
                    "X event without dur"
                );
            }
            "C" => {
                let value = event.get("args").and_then(|a| a.get("value"));
                assert!(value.is_some(), "C event without args.value");
            }
            other => panic!("{}: unexpected phase {other:?}", path.display()),
        }
    }
    for ((pid, tid), d) in depth {
        assert_eq!(d, 0, "{}: unbalanced B/E on pid {pid} tid {tid}", path.display());
    }
    events
}

/// The `(index, memo, worker)` annotations of every fleet `point` span.
fn point_spans(events: &[JsonValue]) -> Vec<(String, String, String)> {
    let mut points = Vec::new();
    for event in events {
        if event.get("ph").and_then(JsonValue::as_str) != Some("X")
            || event.get("name").and_then(JsonValue::as_str) != Some("point")
        {
            continue;
        }
        let arg = |key: &str| {
            event
                .get("args")
                .and_then(|a| a.get(key))
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("point span without args.{key}"))
                .to_string()
        };
        points.push((arg("index"), arg("memo"), arg("worker")));
    }
    points.sort();
    points
}

/// An in-process likwid-perfctr entry point: the binary driver or the
/// string-level front end.
type PerfctrEntry = fn(&[String]);

/// The shipped binary's entry point.
fn binary_entry(argv: &[String]) {
    assert_eq!(tool_main(Tool::Perfctr, argv), 0, "likwid-perfctr {argv:?} failed");
}

/// The string-level front end; the text it returns is what it wrote to
/// the `-o` file.
fn string_entry(argv: &[String]) {
    let text = run_perfctr(argv).unwrap_or_else(|e| panic!("likwid-perfctr {argv:?}: {e}"));
    let out = argv.iter().position(|a| a == "-o").map(|i| &argv[i + 1]).expect("-o given");
    assert_eq!(read(Path::new(out)), text, "returned text differs from the -o file");
}

/// Run likwid-perfctr through `entry` into `-o <file>`, with `--trace`
/// when a trace path is given, and return the rendered report.
fn perfctr_to_file(
    entry: PerfctrEntry,
    dir: &Path,
    name: &str,
    base: &[&str],
    trace: Option<&Path>,
) -> String {
    let out = dir.join(name);
    let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    argv.push("-o".into());
    argv.push(out.display().to_string());
    if let Some(trace) = trace {
        argv.push("--trace".into());
        argv.push(trace.display().to_string());
    }
    entry(&argv);
    read(&out)
}

#[test]
fn perfctr_reports_are_byte_identical_with_tracing_on() {
    let _lock = recorder_lock();
    let dir = TempDir::new("perfctr-neutral");
    // Aggregate, stethoscope and timeline mode: the three perfctr paths.
    let cases: &[(&str, &[&str])] = &[
        ("aggregate", &["--machine", "westmere-ep-2s", "-c", "0,1", "-g", "FLOPS_DP"]),
        ("steth", &["--machine", "westmere-ep-2s", "-c", "0,1", "-g", "MEM", "-S", "10ms"]),
        ("timeline", &["--machine", "westmere-ep-2s", "-c", "0-3", "-g", "FLOPS_DP", "-t", "2ms"]),
    ];
    // The binary driver and the string front end honour `--trace` alike.
    let entries: [(&str, PerfctrEntry); 2] = [("bin", binary_entry), ("str", string_entry)];
    for ((tag, base), (via, entry)) in cases.iter().flat_map(|c| entries.map(|e| (c, e))) {
        let plain = perfctr_to_file(entry, &dir, &format!("{tag}-{via}-plain.txt"), base, None);
        let trace_file = dir.join(format!("{tag}-{via}.json"));
        let traced = perfctr_to_file(
            entry,
            &dir,
            &format!("{tag}-{via}-traced.txt"),
            base,
            Some(&trace_file),
        );
        assert_eq!(plain, traced, "{tag} ({via}): --trace changed the report");
        let events = assert_valid_chrome_trace(&trace_file);
        if *tag == "timeline" {
            // Interval spans ride virtual-time tracks so wall-clock jitter
            // can never unbalance them.
            assert!(
                events.iter().any(|e| {
                    e.get("name").and_then(JsonValue::as_str) == Some("timeline.interval")
                        && e.get("tid").and_then(JsonValue::as_u64).unwrap_or(0)
                            >= trace::VIRTUAL_TID_BASE
                }),
                "timeline trace lacks virtual-track interval spans"
            );
        }
    }
}

#[test]
fn folded_traces_are_flamegraph_ready() {
    let _lock = recorder_lock();
    let dir = TempDir::new("perfctr-folded");
    let base = &["--machine", "westmere-ep-2s", "-c", "0,1", "-g", "FLOPS_DP", "-t", "2ms"];
    let trace_file = dir.join("t.folded");
    perfctr_to_file(binary_entry, &dir, "report.txt", base, Some(&trace_file));
    let folded = read(&trace_file);
    assert!(!folded.trim().is_empty(), "folded trace is empty");
    for line in folded.lines() {
        // `process;frame;...;leaf <self-ns>` — exactly what flamegraph.pl
        // consumes.
        let (path, count) = line.rsplit_once(' ').expect("folded line has a count");
        assert!(path.contains(';'), "folded path lacks a process root: {line:?}");
        count.parse::<u64>().unwrap_or_else(|_| panic!("bad self-time in {line:?}"));
    }
}

#[test]
fn fleet_sweep_reports_are_byte_identical_with_tracing_on() {
    let _lock = recorder_lock();
    let dir = TempDir::new("fleet-neutral");
    let run = |store: &Path, report: &Path, trace: Option<&Path>| {
        let mut argv = vec![
            "run".to_string(),
            "-N".into(),
            "1,2".into(),
            "-n".into(),
            "2".into(),
            "-W".into(),
            "2".into(),
            "--store".into(),
            store.display().to_string(),
            "-o".into(),
            report.display().to_string(),
        ];
        if let Some(trace) = trace {
            argv.push("--trace".into());
            argv.push(trace.display().to_string());
        }
        assert_eq!(fleet_main(&argv), 0, "fleet run failed");
    };
    // Fresh stores on both sides so the traced and untraced sweeps do the
    // same work (all points cold).
    let plain_report = dir.join("plain.json");
    run(&dir.join("store-plain"), &plain_report, None);
    let trace_file = dir.join("sweep.json");
    let traced_report = dir.join("traced.json");
    run(&dir.join("store-traced"), &traced_report, Some(&trace_file));
    assert_eq!(read(&plain_report), read(&traced_report), "--trace changed the fleet report");
    assert_valid_chrome_trace(&trace_file);
}

#[test]
fn traced_fleet_sweep_attributes_memoization_per_point() {
    let _lock = recorder_lock();
    let dir = TempDir::new("fleet-memo");
    let store = dir.join("store");
    let run = |trace: &Path, report: &str| {
        let argv = args(&[
            "run",
            "-N",
            "1,2",
            "-W",
            "2",
            "--store",
            &store.display().to_string(),
            "-o",
            &dir.join(report).display().to_string(),
            "--trace",
            &trace.display().to_string(),
        ]);
        assert_eq!(fleet_main(&argv), 0, "fleet run failed");
    };

    let cold_trace = dir.join("cold-trace.json");
    run(&cold_trace, "cold-report.json");
    let cold = point_spans(&assert_valid_chrome_trace(&cold_trace));
    // One `point` span per expanded point (-N 1,2 → two points), all
    // executed on the cold store.
    assert_eq!(cold.len(), 2, "expected one point span per expanded point: {cold:?}");
    let indices: Vec<&str> = cold.iter().map(|(i, _, _)| i.as_str()).collect();
    assert_eq!(indices, ["0", "1"], "point spans must cover every point once");
    assert!(cold.iter().all(|(_, memo, _)| memo == "miss"), "cold sweep memo args: {cold:?}");

    let warm_trace = dir.join("warm-trace.json");
    run(&warm_trace, "warm-report.json");
    let warm = point_spans(&assert_valid_chrome_trace(&warm_trace));
    assert_eq!(warm.len(), 2);
    assert!(warm.iter().all(|(_, memo, _)| memo == "hit"), "warm sweep memo args: {warm:?}");
    // Memoized or not, both reports render byte-identically.
    assert_eq!(read(&dir.join("cold-report.json")), read(&dir.join("warm-report.json")));
}

#[test]
fn daemon_routed_experiments_are_unchanged_by_tracing() {
    let preset = MachinePreset::WestmereEp2S;
    let kernel = kernel_by_name("triad", 2 << 20, 1).expect("registered kernel");
    let spec_machine = SimMachine::new(preset);
    let spec_engine = EventEngine::new(&spec_machine);
    let spec = parse_measurement_spec("FLOPS_DP", spec_engine.table()).expect("spec");
    let experiment = |dt: f64| {
        Experiment::on(preset)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .counters(spec.clone())
            .timeline(dt)
    };
    // Probe the kernel's runtime to pick an interval yielding ~5 slices.
    let probe = Experiment::on(preset)
        .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
        .run(kernel.as_ref())
        .expect("probe");
    let dt = probe.first().runtime_s / 5.0;

    let serve = || {
        let machine = SimMachine::new(preset);
        let daemon = Daemon::new(&machine);
        experiment(dt).via_daemon(kernel.as_ref(), &daemon).expect("daemon run")
    };
    let local = || experiment(dt).run(kernel.as_ref()).expect("local run");

    let plain_served = serve();
    let plain_local = local();

    let _lock = recorder_lock();
    trace::start();
    let traced_served = serve();
    let traced_local = local();
    let events = trace::stop();

    // The recorder saw the runs...
    assert!(
        events.iter().any(|e| e.name == "sample.daemon"),
        "traced via_daemon run recorded no sample spans"
    );
    assert!(
        events.iter().any(|e| e.name == "interval.window"),
        "traced broker recorded no suspend/resume windows"
    );
    // ...and changed nothing.
    for (plain, traced, path) in
        [(&plain_served, &traced_served, "daemon-routed"), (&plain_local, &traced_local, "local")]
    {
        let plain_timeline = plain.timeline.as_ref().expect("timeline");
        let traced_timeline = traced.timeline.as_ref().expect("timeline");
        assert_eq!(
            Ascii.render(&plain_timeline.report()),
            Ascii.render(&traced_timeline.report()),
            "{path}: tracing changed the timeline report"
        );
        assert_eq!(plain_timeline.aggregate, traced_timeline.aggregate, "{path}: aggregates");
        assert_eq!(plain.measured_cpus, traced.measured_cpus, "{path}: measured cpus");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the cpu set, group and mode, `--trace` never changes a
    /// perfctr report.
    #[test]
    fn tracing_never_changes_a_perfctr_report(
        cpus in prop::sample::select(vec!["0", "0,1", "0-3"]),
        group in prop::sample::select(vec!["FLOPS_DP", "MEM"]),
        mode in prop::sample::select(vec!["aggregate", "steth", "timeline"]),
    ) {
        let _lock = recorder_lock();
        let dir = TempDir::new("perfctr-prop");
        let mut base = vec!["--machine", "westmere-ep-2s", "-c", cpus, "-g", group];
        match mode {
            "steth" => base.extend_from_slice(&["-S", "10ms"]),
            "timeline" => base.extend_from_slice(&["-t", "2ms"]),
            _ => {}
        }
        let plain = perfctr_to_file(binary_entry, &dir, "plain.txt", &base, None);
        let trace_file = dir.join("t.json");
        let traced = perfctr_to_file(binary_entry, &dir, "traced.txt", &base, Some(&trace_file));
        prop_assert_eq!(plain, traced, "-c {} -g {} ({})", cpus, group, mode);
        assert_valid_chrome_trace(&trace_file);
    }
}
