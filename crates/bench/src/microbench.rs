//! The `likwid-bench` microbenchmark tool.
//!
//! Real LIKWID later grew `likwid-bench`, a harness that runs registered
//! streaming/latency kernels on selected hardware threads and reports
//! bandwidth and flops. This module reproduces that tool on the simulated
//! substrate: any kernel of the [`likwid_workloads::kernels`] registry runs
//! on any machine preset through the [`Experiment`] harness, optionally
//! measured with a `likwid-perfctr` event group for derived counter
//! metrics.
//!
//! ```text
//! likwid-bench -t daxpy -w 64MB -c S0:0-3 -g MEM -i 2 --machine nehalem-ep-2s
//! ```
//!
//! The pin list uses the *lenient* expansion
//! ([`likwid_affinity::parse_pin_list_lenient`]): entries a machine does
//! not have are dropped, so `-c S0:0-3` means "up to four threads of
//! socket 0" on everything from the Pentium M to the two-socket nodes.

use likwid::args::{ArgSpec, ParsedArgs};
use likwid::cli::parse_machine;
use likwid::error::{LikwidError, Result};
use likwid::perfctr::parse_measurement_spec;
use likwid::report::{Body, KvEntry, Report, Row, Section, Table, Value};
use likwid_affinity::parse_pin_list_lenient;
use likwid_workloads::kernels::{kernel_by_name, kernel_description, kernel_names, parse_size};
use likwid_workloads::{Experiment, PlacementPolicy};

/// The argument specification of the `likwid-bench` binary.
pub fn likwid_bench_spec() -> ArgSpec {
    likwid::trace::trace_flag(
        ArgSpec::new("likwid-bench", "run a microbenchmark kernel on a simulated machine")
            .machine_flag()
            .flag("-t", None, Some("kernel"), "the kernel to run (see -a for the registry)")
            .flag("-w", None, Some("size"), "working set size, e.g. 64MB (default 16MB)")
            .flag("-c", None, Some("pinlist"), "hardware threads to run on (default S0:0)")
            .flag(
                "-g",
                None,
                Some("group|EVENT:CTR,..."),
                "measure the run with this counter group",
            )
            .flag("-i", None, Some("iters"), "passes over the working set (default 1)")
            .flag("-a", None, None, "list the registered kernels")
            .flag(
                "-T",
                None,
                Some("interval"),
                "timeline: sample the counters every <interval> of virtual time (requires -g)",
            )
            .flag(
                "--inject",
                None,
                Some("spec"),
                "inject faults into the MSR substrate (e.g. seed=7,read=0.2x3,stuck=0x186@0)",
            ),
    )
    .note(likwid::perfctr::multiplex_note())
}

/// Build the report of one `likwid-bench` invocation.
pub fn likwid_bench_report(parsed: &ParsedArgs) -> Result<Report> {
    if parsed.has("-a") {
        let mut table = Table::plain(vec!["kernel", "description"]);
        for &name in kernel_names() {
            let description = kernel_description(name).expect("registered kernel");
            table.push(
                Row::new(vec![Value::Str(name.to_string()), Value::Str(description.to_string())])
                    .with_ascii(format!("{name:8} {description}")),
            );
        }
        let mut report = Report::new("likwid-bench");
        report
            .push(Section::new("kernels", Body::Table(table)).with_heading("Registered kernels:"));
        return Ok(report);
    }

    let kernel_name = parsed
        .value("-t")
        .ok_or_else(|| LikwidError::Usage("likwid-bench requires -t <kernel> (or -a)".into()))?;
    let working_set = match parsed.value("-w") {
        None => 16 << 20,
        Some(raw) => parse_size(raw)
            .ok_or_else(|| LikwidError::Usage(format!("bad working set size '{raw}'")))?,
    };
    let passes = parsed.count("-i", 1)? as u64;
    let preset = parse_machine(parsed)?;
    let topo = preset.topology();
    let pin_expr = parsed.value("-c").unwrap_or("S0:0");
    let cpus = parse_pin_list_lenient(pin_expr, &topo)
        .map_err(|e| LikwidError::Usage(format!("bad pin list '{pin_expr}': {e}")))?;
    let workload = kernel_by_name(kernel_name, working_set, passes)
        .ok_or_else(|| LikwidError::Usage(format!("unknown kernel '{kernel_name}' (try -a)")))?;

    let mut experiment = Experiment::on(preset)
        .placement(PlacementPolicy::LikwidPin(cpus.clone()))
        .threads(cpus.len());
    if let Some(group_arg) = parsed.value("-g") {
        let event_table = likwid_perf_events::tables::for_arch(preset.arch());
        experiment = experiment.counters(parse_measurement_spec(group_arg, &event_table)?);
    }
    if let Some(interval) = parsed.interval("-T")? {
        if parsed.value("-g").is_none() {
            return Err(LikwidError::Usage("-T (timeline) requires -g <group>".into()));
        }
        experiment = experiment.timeline(interval);
    }
    if let Some(spec) = parsed.value("--inject") {
        let plan = likwid_x86_machine::FaultPlan::parse(spec)
            .map_err(|e| LikwidError::Usage(format!("bad --inject spec: {e}")))?;
        experiment = experiment.inject(plan);
    }
    let result = experiment.run(workload.as_ref())?;
    let run = result.first();
    // Threads that actually did work: a serial kernel (the pointer chase)
    // uses one thread however long the pin list is, and the report must
    // not claim otherwise.
    let active_threads = run.profile.cycles.iter().filter(|&&c| c > 0).count().max(1);

    let entries = vec![
        KvEntry::new("Kernel", Value::Str(kernel_name.to_string())),
        KvEntry::new("Machine", Value::Str(preset.id().to_string())),
        KvEntry::new("CPU type", Value::Str(preset.arch().display_name().to_string())),
        KvEntry::new("Working set", Value::Bytes(workload.working_set_bytes()))
            .with_ascii(format!("Working set: {} bytes", workload.working_set_bytes())),
        KvEntry::new("Threads", Value::Count(active_threads as u64)),
        KvEntry::new("Placement", Value::Str(format!("{cpus:?}"))),
        KvEntry::new("Iterations", Value::Count(run.iterations)),
        KvEntry::new("Runtime [s]", Value::Real(run.runtime_s)),
        KvEntry::new("Bandwidth [MBytes/s]", Value::Real(run.bandwidth_mbs)),
        KvEntry::new("MFlops/s", Value::Real(run.mflops)),
        KvEntry::new("Time per iteration [ns]", Value::Real(run.time_per_iteration_ns())),
    ];
    let mut report = Report::new("likwid-bench");
    report.push(
        Section::new("bench", Body::KeyValues(entries))
            .with_heading(format!("Microbenchmark {kernel_name} on {}", preset.id())),
    );
    if let Some(timeline) = &result.timeline {
        // The timeline report carries the per-interval series and the
        // aggregate tables; the plain counters sections would repeat the
        // latter.
        for mut section in timeline.report().sections {
            section.id = format!("timeline.{}", section.id);
            report.push(section);
        }
    } else if let Some(counters) = &result.counters {
        for mut section in counters.report().sections {
            section.id = format!("counters.{}", section.id);
            report.push(section);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid::report::{Json, Render};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn report_for(list: &[&str]) -> Result<Report> {
        likwid_bench_report(&likwid_bench_spec().parse(&args(list)).unwrap())
    }

    #[test]
    fn kernel_listing_names_every_registered_kernel() {
        let report = report_for(&["-a"]).unwrap();
        let table = report.table("kernels").expect("kernel table");
        assert_eq!(table.num_rows(), kernel_names().len());
        assert_eq!(table.rows[0].values[0].as_str(), Some("copy"));
    }

    #[test]
    fn daxpy_with_counters_reports_bandwidth_and_metrics() {
        let report = report_for(&[
            "-t",
            "daxpy",
            "-w",
            "16MB",
            "-c",
            "S0:0-3",
            "-g",
            "MEM",
            "--machine",
            "nehalem-ep-2s",
        ])
        .unwrap();
        let bw = report.value("bench", "Bandwidth [MBytes/s]").unwrap().as_real().unwrap();
        assert!(bw > 1000.0, "a four-thread daxpy moves gigabytes per second, got {bw}");
        let threads = report.value("bench", "Threads").unwrap().as_count();
        assert_eq!(threads, Some(4));
        // Derived counter metrics ride along from the MEM group.
        assert!(report.table("counters.metrics").is_some());
        let parsed = Report::from_json(&Json.render(&report)).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn timeline_flag_adds_per_interval_series() {
        let report = report_for(&[
            "-t",
            "triad",
            "-w",
            "16MB",
            "-c",
            "S0:0-3",
            "-g",
            "MEM",
            "-T",
            "100us",
            "--machine",
            "nehalem-ep-2s",
        ])
        .unwrap();
        let series_section =
            report.section("timeline.timeseries.MEM").expect("timeline series section rides along");
        let likwid::report::Body::TimeSeries(ts) = &series_section.body else {
            panic!("not a timeseries body");
        };
        assert!(ts.timestamps.len() >= 2, "multiple sampling intervals");
        assert!(ts.series_for("Memory bandwidth [MBytes/s]", 0).is_some());
        assert!(report.table("timeline.aggregate.MEM.events").is_some());
        assert!(report.section("counters.events").is_none(), "aggregates live in the timeline");
        let parsed = Report::from_json(&Json.render(&report)).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn timeline_flag_requires_a_group_and_a_sane_interval() {
        let err = report_for(&["-t", "copy", "-T", "1ms"]).unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)), "got {err:?}");
        for bad in ["0", "0us", "soon"] {
            let err = report_for(&["-t", "copy", "-g", "MEM", "-T", bad]).unwrap_err();
            assert!(matches!(err, LikwidError::Usage(_)), "'{bad}' gave {err:?}");
        }
        // An absurdly small interval trips the sampling-point guard, whose
        // message stays short instead of printing 300-digit numbers.
        match report_for(&["-t", "copy", "-g", "MEM", "-T", "1e-300s"]).unwrap_err() {
            LikwidError::Usage(msg) => {
                assert!(msg.contains("sampling points"), "got {msg}");
                assert!(msg.len() < 200, "{} characters: {msg}", msg.len());
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(report_for(&[]), Err(LikwidError::Usage(_))), "missing -t");
        assert!(matches!(report_for(&["-t", "frob"]), Err(LikwidError::Usage(_))));
        assert!(matches!(report_for(&["-t", "copy", "-w", "lots"]), Err(LikwidError::Usage(_))));
        assert!(matches!(report_for(&["-t", "copy", "-i", "many"]), Err(LikwidError::Usage(_))));
        assert!(report_for(&["-t", "copy", "-g", "NOT_A_GROUP"]).is_err());
    }

    #[test]
    fn degenerate_working_sets_still_produce_finite_figures() {
        // A working set smaller than one line per array used to yield a
        // 0-iteration run and NaN bandwidth/latency.
        let report = report_for(&["-t", "copy", "-w", "64B"]).unwrap();
        let bw = report.value("bench", "Bandwidth [MBytes/s]").unwrap().as_real().unwrap();
        let ns = report.value("bench", "Time per iteration [ns]").unwrap().as_real().unwrap();
        assert!(bw.is_finite() && bw > 0.0, "got {bw}");
        assert!(ns.is_finite() && ns > 0.0, "got {ns}");
        assert!(report.value("bench", "Iterations").unwrap().as_count().unwrap() > 0);
        // And the working set reports what actually streams: two arrays of
        // one line each, not the raw 64-byte request.
        assert_eq!(report.value("bench", "Working set").unwrap().as_bytes(), Some(128));

        // With one line and four pinned threads, only one thread owns any
        // lines — the report must say so.
        let report =
            report_for(&["-t", "copy", "-w", "64B", "-c", "S0:0-3", "--machine", "nehalem-ep-2s"])
                .unwrap();
        assert_eq!(report.value("bench", "Threads").unwrap().as_count(), Some(1));
    }

    #[test]
    fn chase_on_a_multi_thread_pin_list_reports_one_thread() {
        // The pointer chase is serial by construction; the report must not
        // claim the whole pin list did work.
        let report =
            report_for(&["-t", "chase", "-w", "1MB", "-c", "S0:0-3", "--machine", "nehalem-ep-2s"])
                .unwrap();
        assert_eq!(report.value("bench", "Threads").unwrap().as_count(), Some(1));
        // A streaming kernel on the same pin list really uses all four.
        let report =
            report_for(&["-t", "copy", "-w", "8MB", "-c", "S0:0-3", "--machine", "nehalem-ep-2s"])
                .unwrap();
        assert_eq!(report.value("bench", "Threads").unwrap().as_count(), Some(4));
    }

    #[test]
    fn iteration_count_must_be_a_positive_integer() {
        for bad in ["0", "many"] {
            let err = report_for(&["-t", "copy", "-i", bad]).unwrap_err();
            match err {
                LikwidError::Usage(msg) => assert!(msg.starts_with("-i:"), "'{bad}' gave {msg}"),
                other => panic!("'{bad}' gave {other:?}"),
            }
        }
    }

    #[test]
    fn chase_reports_a_latency_per_iteration() {
        let report = report_for(&["-t", "chase", "-w", "64kB", "--machine", "core2-quad"]).unwrap();
        let ns = report.value("bench", "Time per iteration [ns]").unwrap().as_real().unwrap();
        assert!(ns > 0.0 && ns < 1000.0, "in-L2 chase latency in nanoseconds, got {ns}");
    }
}
