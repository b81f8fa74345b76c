//! Command-line front ends of the four tools.
//!
//! The binaries in `src/bin/` are thin wrappers around [`tool_main`]; each
//! tool declares its switches once as an [`ArgSpec`] and builds a typed
//! [`Report`], which the common driver renders in the format selected with
//! `-O <ascii|csv|json>` (or inferred from the `-o <file>` extension) —
//! argument handling and output stay unit-testable without spawning
//! processes. Since the reproduction drives a *simulated* machine, every
//! tool accepts a `--machine <preset>` switch selecting one of the paper's
//! node configurations; the remaining switches mirror the original tools
//! (`-c`, `-g`, `-t`, `-s`, `-e`/`-u`, …).

use likwid_affinity::{SkipMask, ThreadingModel};
use likwid_x86_machine::{MachinePreset, Prefetcher, SimMachine};

use crate::args::{drive, ArgSpec, Invocation, ParsedArgs};
use crate::error::{LikwidError, Result};
use crate::features::FeaturesTool;
use crate::perfctr::supported_groups;
use crate::pin::{PinConfig, PinTool};
use crate::report::{Body, KvEntry, Report, Row, Section, Table, Value};
use crate::topology::CpuTopology;

/// The four tools of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// `likwid-topology`.
    Topology,
    /// `likwid-perfctr`.
    Perfctr,
    /// `likwid-pin`.
    Pin,
    /// `likwid-features`.
    Features,
}

impl Tool {
    /// The binary name.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Topology => "likwid-topology",
            Tool::Perfctr => "likwid-perfctr",
            Tool::Pin => "likwid-pin",
            Tool::Features => "likwid-features",
        }
    }

    /// The declarative argument specification of the tool.
    pub fn spec(self) -> ArgSpec {
        match self {
            Tool::Topology => ArgSpec::new(
                "likwid-topology",
                "probe and report the hardware thread and cache topology",
            )
            .machine_flag()
            .flag("-c", None, None, "print extended cache parameters")
            .flag("-g", None, None, "print the cache hierarchy as ASCII art"),
            Tool::Perfctr => crate::trace::trace_flag(
                ArgSpec::new(
                    "likwid-perfctr",
                    "configure hardware performance counter measurements",
                )
                .machine_flag()
                .flag("-c", None, Some("cpus"), "hardware threads to measure")
                .flag("-g", None, Some("group|EVENT:CTR,..."), "event group or custom event set")
                .flag("-a", None, None, "list the event groups available on the machine")
                .flag(
                    "-t",
                    None,
                    Some("interval"),
                    "timeline mode: sample the counters every <interval> of virtual time (e.g. \
                     1ms)",
                )
                .flag(
                    "-S",
                    None,
                    Some("duration"),
                    "stethoscope mode: measure for <duration> of virtual time and report",
                )
                .flag(
                    "--inject",
                    None,
                    Some("spec"),
                    "inject faults into the MSR substrate (e.g. seed=7,read=0.2x3,stuck=0x186@0)",
                ),
            )
            .note(crate::perfctr::multiplex_note()),
            Tool::Pin => ArgSpec::new(
                "likwid-pin",
                "report the thread-core placement the wrapper library enforces",
            )
            .machine_flag()
            .flag("-c", None, Some("list"), "pin list expression")
            .flag("-t", None, Some("model"), "threading model (intel|gnu|posix|intel-mpi)")
            .flag("-s", None, Some("mask"), "skip mask overriding the model default")
            .flag("-n", None, Some("threads"), "number of application threads"),
            Tool::Features => {
                ArgSpec::new("likwid-features", "report and toggle switchable processor features")
                    .machine_flag()
                    .flag("-c", None, Some("core"), "core to inspect (default 0)")
                    .flag(
                        "-e",
                        None,
                        Some("NAME"),
                        "enable a prefetcher (applied in argument order)",
                    )
                    .flag(
                        "-u",
                        None,
                        Some("NAME"),
                        "disable a prefetcher (applied in argument order)",
                    )
            }
        }
    }

    fn build_report(self, parsed: &ParsedArgs) -> Result<Report> {
        match self {
            Tool::Topology => topology_report_from(parsed),
            Tool::Perfctr => perfctr_report_from(parsed),
            Tool::Pin => pin_report_from(parsed),
            Tool::Features => features_report_from(parsed),
        }
    }
}

/// Binary entry point shared by the four tools: parse, build the report,
/// render it in the selected format and write it to stdout or the `-o`
/// file. Returns the process exit code.
pub fn tool_main(tool: Tool, args: &[String]) -> i32 {
    crate::args::bin_main(&tool.spec(), args, |parsed| tool.build_report(parsed))
}

/// Run a tool and render its report (the string-level front end used by the
/// tests and by embedders that do not need the typed document). Goes
/// through [`crate::args::drive`] like the binaries, so `-o` and `--trace`
/// behave exactly as there; the rendered text (or the help text) is
/// returned as well as written to the `-o` file.
fn run_tool(tool: Tool, args: &[String]) -> Result<String> {
    match drive(&tool.spec(), args, |parsed| tool.build_report(parsed))? {
        Invocation::Help(help) => Ok(help),
        Invocation::Rendered { text, target } => {
            target.write_file_if_requested(&text)?;
            Ok(text)
        }
    }
}

/// Parse `--machine <id>` (default: the Westmere EP node of the paper).
/// Shared by the four tools and the `likwid-bench` microbenchmark harness.
pub fn parse_machine(parsed: &ParsedArgs) -> Result<MachinePreset> {
    match parsed.value("-M") {
        None => Ok(MachinePreset::WestmereEp2S),
        Some(id) => MachinePreset::from_id(id).ok_or_else(|| {
            LikwidError::Usage(format!(
                "unknown machine '{id}'; available: {}",
                MachinePreset::all().iter().map(|p| p.id()).collect::<Vec<_>>().join(", ")
            ))
        }),
    }
}

/// `likwid-topology [-c] [-g] [--machine <id>]`.
pub fn run_topology(args: &[String]) -> Result<String> {
    run_tool(Tool::Topology, args)
}

/// The typed report of a `likwid-topology` invocation.
pub fn topology_report(args: &[String]) -> Result<Report> {
    topology_report_from(&Tool::Topology.spec().parse(args)?)
}

fn topology_report_from(parsed: &ParsedArgs) -> Result<Report> {
    let machine = SimMachine::new(parse_machine(parsed)?);
    let topo = CpuTopology::probe(&machine)?;
    Ok(topo.report(parsed.has("-c"), parsed.has("-g")))
}

/// `likwid-features [-c <core>] [-e <PREFETCHER>] [-u <PREFETCHER>]`.
///
/// `-e`/`-u` toggles apply in command-line order, so `-e X -u X` leaves `X`
/// disabled and `-u X -e X` leaves it enabled.
pub fn run_features(args: &[String]) -> Result<String> {
    run_tool(Tool::Features, args)
}

/// The typed report of a `likwid-features` invocation.
pub fn features_report(args: &[String]) -> Result<Report> {
    features_report_from(&Tool::Features.spec().parse(args)?)
}

fn features_report_from(parsed: &ParsedArgs) -> Result<Report> {
    let machine = SimMachine::new(parse_machine(parsed)?);
    let tool = FeaturesTool::new(&machine);
    let cpu: usize = parsed
        .value("-c")
        .map(|v| v.parse().map_err(|_| LikwidError::Usage(format!("bad core id '{v}'"))))
        .transpose()?
        .unwrap_or(0);

    let mut actions = Vec::new();
    for (flag, value) in parsed.occurrences_of(&["-e", "-u"]) {
        let name = value.expect("-e/-u declare a value in the spec");
        let prefetcher = Prefetcher::from_cli_name(name)
            .ok_or_else(|| LikwidError::Usage(format!("unknown prefetcher '{name}'")))?;
        if flag == "-e" {
            tool.enable_prefetcher(cpu, prefetcher)?;
            actions.push(KvEntry::new(name, Value::Str("enabled".to_string())));
        } else {
            tool.disable_prefetcher(cpu, prefetcher)?;
            actions.push(KvEntry::new(name, Value::Str("disabled".to_string())));
        }
    }

    let mut report = Report::new("likwid-features");
    if !actions.is_empty() {
        report.push(Section::new("actions", Body::KeyValues(actions)));
    }
    report.extend(tool.report(cpu)?);
    Ok(report)
}

/// `likwid-pin -c <list> [-t <model>] [-s <mask>] [-n <threads>]`.
///
/// The simulated front end reports the placement the wrapper library will
/// enforce for the given number of application threads instead of exec'ing
/// a target binary.
pub fn run_pin(args: &[String]) -> Result<String> {
    run_tool(Tool::Pin, args)
}

/// The typed report of a `likwid-pin` invocation.
pub fn pin_report(args: &[String]) -> Result<Report> {
    pin_report_from(&Tool::Pin.spec().parse(args)?)
}

fn pin_report_from(parsed: &ParsedArgs) -> Result<Report> {
    let machine = SimMachine::new(parse_machine(parsed)?);
    let expression = parsed
        .value("-c")
        .ok_or_else(|| LikwidError::Usage("likwid-pin requires -c <list>".into()))?;
    let mut config = PinConfig::new(expression);
    if let Some(model) = parsed.value("-t") {
        config = config.with_model(
            ThreadingModel::from_cli_name(model)
                .ok_or_else(|| LikwidError::Usage(format!("unknown threading model '{model}'")))?,
        );
    }
    if let Some(mask) = parsed.value("-s") {
        config = config.with_skip_mask(
            SkipMask::parse(mask)
                .ok_or_else(|| LikwidError::Usage(format!("bad skip mask '{mask}'")))?,
        );
    }
    let threads: usize = match parsed.value("-n") {
        Some(v) => v.parse().map_err(|_| LikwidError::Usage(format!("bad thread count '{v}'")))?,
        // Default to one thread per pin-list slot. A malformed expression is
        // a usage error here — the old front end swallowed it and silently
        // fabricated a single-thread placement.
        None => likwid_affinity::parse_pin_list(expression, machine.topology())
            .map_err(|e| LikwidError::Usage(format!("bad pin list '{expression}': {e}")))?
            .len(),
    };

    let tool = PinTool::new(&machine, config)?;
    Ok(tool.report(threads))
}

/// `likwid-perfctr -c <cpus> -g <group> [-a] [-t <interval>] [-S <duration>]
/// [--machine <preset>]`.
///
/// Wrapper mode against a real target process is replaced by reporting the
/// measurement configuration (group resolution, counter assignment, socket
/// locks); the full measurement pipeline is exercised by the workload and
/// benchmark crates, which drive the counting engine. The timeline (`-t`)
/// and stethoscope (`-S`) modes observe the built-in synthetic
/// phase-structured demo application
/// ([`crate::perfctr::timeline::demo_slice`]), since the simulated tool has
/// no real process to attach to.
pub fn run_perfctr(args: &[String]) -> Result<String> {
    run_tool(Tool::Perfctr, args)
}

/// The typed report of a `likwid-perfctr` invocation.
pub fn perfctr_report(args: &[String]) -> Result<Report> {
    perfctr_report_from(&Tool::Perfctr.spec().parse(args)?)
}

fn perfctr_report_from(parsed: &ParsedArgs) -> Result<Report> {
    let machine = SimMachine::new(parse_machine(parsed)?);
    apply_fault_injection(&machine, parsed)?;

    if parsed.has("-a") {
        let mut groups = Table::plain(vec!["group", "description"]);
        for g in supported_groups(machine.arch()) {
            groups.push(
                Row::new(vec![
                    Value::Str(g.name().to_string()),
                    Value::Str(g.description().to_string()),
                ])
                .with_ascii(format!("{:10} {}", g.name(), g.description())),
            );
        }
        let mut report = Report::new("likwid-perfctr");
        report.push(
            Section::new("groups", Body::Table(groups)).with_heading("Available event groups:"),
        );
        return Ok(report);
    }

    let cpus_expr = parsed
        .value("-c")
        .ok_or_else(|| LikwidError::Usage("likwid-perfctr requires -c <cpus>".into()))?;
    let cpus = likwid_affinity::parse_pin_list(cpus_expr, machine.topology())?;
    let group_arg = parsed
        .value("-g")
        .ok_or_else(|| LikwidError::Usage("likwid-perfctr requires -g <group>".into()))?;

    let table = likwid_perf_events::tables::for_arch(machine.arch());
    let spec = crate::perfctr::parse_measurement_spec(group_arg, &table)?;

    if parsed.has("-t") && parsed.has("-S") {
        return Err(LikwidError::Usage("choose one of -t (timeline) and -S (stethoscope)".into()));
    }
    if let Some(interval) = parsed.interval("-t")? {
        let config = crate::perfctr::PerfCtrConfig { cpus: cpus.clone(), spec };
        let result = crate::perfctr::timeline::run_demo_timeline(
            &machine,
            config,
            interval,
            crate::perfctr::timeline::DEMO_DURATION_S,
        )?;
        let mut report = Report::new("likwid-perfctr");
        report.push(session_section(&machine, group_arg, &cpus, &result.socket_lock_owners));
        report.extend(result.report());
        return Ok(report);
    }
    if let Some(duration) = parsed.interval("-S")? {
        let config = crate::perfctr::PerfCtrConfig { cpus: cpus.clone(), spec };
        let result = crate::perfctr::timeline::run_demo_stethoscope(&machine, config, duration)?;
        let mut report = Report::new("likwid-perfctr");
        report.push(session_section(&machine, group_arg, &cpus, &result.socket_lock_owners));
        report.extend(result.stethoscope_report());
        return Ok(report);
    }

    let session = crate::perfctr::PerfCtr::new(
        &machine,
        crate::perfctr::PerfCtrConfig { cpus: cpus.clone(), spec },
    )?;
    let mut report = Report::new("likwid-perfctr");
    report.push(session_section(
        &machine,
        group_arg,
        session.cpus(),
        &session.socket_lock_owners(),
    ));
    Ok(report)
}

/// Apply a `--inject` fault plan to the simulated machine before any MSR
/// device is opened. The measurement then has to heal or degrade
/// gracefully; a malformed spec is the only way the flag itself errors.
fn apply_fault_injection(machine: &SimMachine, parsed: &ParsedArgs) -> Result<()> {
    if let Some(spec) = parsed.value("--inject") {
        let plan = likwid_x86_machine::FaultPlan::parse(spec)
            .map_err(|e| LikwidError::Usage(format!("bad --inject spec: {e}")))?;
        machine.inject_faults(plan);
    }
    Ok(())
}

/// The `session` key/value section shared by the perfctr modes: machine
/// identification, the measured group and threads, and the session's
/// socket-lock owners (as assigned by [`crate::perfctr::PerfCtr`] — the
/// single source of truth for the lock rule).
fn session_section(
    machine: &SimMachine,
    group_arg: &str,
    cpus: &[usize],
    socket_lock_owners: &[usize],
) -> Section {
    let mut entries = vec![
        KvEntry::new("CPU type", Value::Str(machine.arch().display_name().to_string())),
        KvEntry::new("CPU clock", Value::Real(machine.clock().ghz()))
            .with_ascii(format!("CPU clock: {}", machine.clock().display())),
        KvEntry::new("Measuring group", Value::Str(group_arg.to_string()))
            .with_ascii(format!("Measuring group {group_arg}")),
        KvEntry::new("Measured hardware threads", Value::Str(format!("{cpus:?}"))),
    ];
    for &cpu in socket_lock_owners {
        entries.push(
            KvEntry::new("Socket lock owner", Value::CpuId(cpu))
                .with_ascii(format!("Socket lock owner: hardware thread {cpu}")),
        );
    }
    Section::new("session", Body::KeyValues(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OutputFormat;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn topology_cli_produces_the_listing() {
        let out = run_topology(&args(&["--machine", "westmere-ep-2s", "-c"])).unwrap();
        assert!(out.contains("Sockets: 2"));
        assert!(out.contains("Shared among 12 threads"));
        let with_art = run_topology(&args(&["-g"])).unwrap();
        assert!(with_art.contains("Socket 0:"));
        assert!(with_art.contains("12MB"));
    }

    #[test]
    fn topology_cli_rejects_unknown_machines() {
        assert!(run_topology(&args(&["--machine", "sparc"])).is_err());
        assert!(run_topology(&args(&["--machine"])).is_err());
    }

    #[test]
    fn features_cli_toggles_prefetchers() {
        let out = run_features(&args(&["--machine", "core2-duo", "-u", "CL_PREFETCHER"])).unwrap();
        assert!(out.contains("CL_PREFETCHER: disabled"));
        assert!(out.contains("Adjacent Cache Line Prefetch: disabled"));
        assert!(run_features(&args(&["--machine", "core2-duo", "-u", "BOGUS"])).is_err());
    }

    #[test]
    fn features_toggles_apply_in_argument_order() {
        // enable-then-disable must end disabled…
        let out = run_features(&args(&[
            "--machine",
            "core2-duo",
            "-e",
            "CL_PREFETCHER",
            "-u",
            "CL_PREFETCHER",
        ]))
        .unwrap();
        assert!(out.contains("Adjacent Cache Line Prefetch: disabled"));
        let enabled_at = out.find("CL_PREFETCHER: enabled").expect("first action reported");
        let disabled_at = out.find("CL_PREFETCHER: disabled").expect("second action reported");
        assert!(enabled_at < disabled_at, "actions report in argument order");

        // …and disable-then-enable must end enabled (the old front end
        // always applied -u before -e and got this wrong).
        let out = run_features(&args(&[
            "--machine",
            "core2-duo",
            "-u",
            "CL_PREFETCHER",
            "-e",
            "CL_PREFETCHER",
        ]))
        .unwrap();
        assert!(out.contains("Adjacent Cache Line Prefetch: enabled"));
    }

    #[test]
    fn pin_cli_reports_the_placement() {
        let out =
            run_pin(&args(&["--machine", "westmere-ep-2s", "-c", "0-3", "-t", "intel", "-n", "4"]))
                .unwrap();
        assert!(out.contains("Skip mask: 0x1"));
        assert!(out.contains("thread 3 -> hardware thread 3"));
        assert!(out.contains("KMP_AFFINITY=disabled"));
        assert!(run_pin(&args(&["-t", "intel"])).is_err(), "-c is mandatory");
    }

    #[test]
    fn pin_cli_rejects_malformed_pin_lists_without_thread_count() {
        // The old front end swallowed the parse error and defaulted to one
        // thread; the expression must be a usage error instead.
        let err = run_pin(&args(&["--machine", "westmere-ep-2s", "-c", "S9:frob"])).unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)), "got {err:?}");
        assert!(err.to_string().contains("S9:frob"));
    }

    #[test]
    fn perfctr_cli_lists_groups_and_validates_specs() {
        let listing = run_perfctr(&args(&["-a", "--machine", "westmere-ep-2s"])).unwrap();
        assert!(listing.contains("FLOPS_DP"));
        assert!(listing.contains("Main memory bandwidth"));

        let out =
            run_perfctr(&args(&["--machine", "nehalem-ep-2s", "-c", "0-7", "-g", "MEM"])).unwrap();
        assert!(out.contains("Measuring group MEM"));
        assert!(out.contains("Socket lock owner: hardware thread 0"));
        assert!(out.contains("Socket lock owner: hardware thread 4"));

        assert!(run_perfctr(&args(&["-c", "0", "-g", "NOT_A_GROUP"])).is_err());
        let custom = run_perfctr(&args(&[
            "--machine",
            "core2-quad",
            "-c",
            "1",
            "-g",
            "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC0,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE:PMC1",
        ]))
        .unwrap();
        assert!(custom.contains("Measured hardware threads: [1]"));
    }

    #[test]
    fn perfctr_timeline_mode_reports_per_interval_series() {
        let out = run_perfctr(&args(&[
            "--machine",
            "westmere-ep-2s",
            "-c",
            "0-1",
            "-g",
            "MEM",
            "-t",
            "1ms",
        ]))
        .unwrap();
        assert!(out.contains("Measuring group MEM"));
        assert!(out.contains("Timeline MEM (interval 0.001 s):"));
        assert!(out.contains("time[s]"));
        assert!(out.contains("Memory bandwidth [MBytes/s] core 0"));
        assert!(out.contains("Aggregate MEM:"));
        // The typed document carries the series.
        let report = perfctr_report(&args(&[
            "--machine",
            "westmere-ep-2s",
            "-c",
            "0-1",
            "-g",
            "MEM",
            "-t",
            "1ms",
        ]))
        .unwrap();
        let crate::report::Body::TimeSeries(ts) =
            &report.section("timeseries.MEM").expect("series section").body
        else {
            panic!("not a timeseries body");
        };
        assert_eq!(ts.timestamps.len(), 10, "10 ms demo at 1 ms sampling");
    }

    #[test]
    fn perfctr_stethoscope_mode_reports_one_aggregate() {
        let report = perfctr_report(&args(&[
            "--machine",
            "nehalem-ep-2s",
            "-c",
            "0-3",
            "-g",
            "FLOPS_DP",
            "-S",
            "5ms",
        ]))
        .unwrap();
        assert!(
            (report.value("stethoscope", "Duration [s]").unwrap().as_real().unwrap() - 5e-3).abs()
                < 1e-12
        );
        assert!(report.section("timeseries.FLOPS_DP").is_none(), "stethoscope has no series");
        let runtime = report
            .table("aggregate.FLOPS_DP.metrics")
            .expect("metrics table")
            .cell("Runtime [s]", "core 0")
            .and_then(|v| v.as_real())
            .unwrap();
        assert!((runtime - 5e-3).abs() < 1e-4, "the window is the runtime, got {runtime}");
    }

    #[test]
    fn perfctr_rejects_bad_timeline_and_stethoscope_intervals() {
        // Zero, negative and unparsable intervals are usage errors, not
        // panics or endless sampling loops.
        for bad in ["0", "0ms", "bogus", "1xs"] {
            for flag in ["-t", "-S"] {
                let err = run_perfctr(&args(&["-c", "0", "-g", "MEM", flag, bad])).unwrap_err();
                assert!(matches!(err, LikwidError::Usage(_)), "{flag} {bad}: {err:?}");
            }
        }
        // Negative values look like flags to the parser — still a usage error.
        let err = run_perfctr(&args(&["-c", "0", "-g", "MEM", "-t", "-1ms"])).unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)), "got {err:?}");
        // Both modes at once is ambiguous.
        let err =
            run_perfctr(&args(&["-c", "0", "-g", "MEM", "-t", "1ms", "-S", "2ms"])).unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)), "got {err:?}");
    }

    #[test]
    fn perfctr_cli_rejects_flags_posing_as_values() {
        // `likwid-perfctr -c -g MEM` used to take "-g" as the cpus
        // expression; it must be a usage error.
        let err = run_perfctr(&args(&["-c", "-g", "MEM"])).unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)), "got {err:?}");
        assert!(err.to_string().contains("'-c'"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for tool in [Tool::Topology, Tool::Perfctr, Tool::Pin, Tool::Features] {
            let err = run_tool(tool, &args(&["--frobnicate"])).unwrap_err();
            assert!(err.to_string().contains("unknown option"), "{tool:?}: {err}");
        }
    }

    #[test]
    fn help_flags_short_circuit() {
        assert!(run_topology(&args(&["-h"])).unwrap().contains("likwid-topology"));
        assert!(run_pin(&args(&["--help"])).unwrap().contains("likwid-pin"));
        assert!(run_perfctr(&args(&["-h"])).unwrap().contains("likwid-perfctr"));
        assert!(run_features(&args(&["-h"])).unwrap().contains("likwid-features"));
        // Help mentions the output switches every binary carries.
        assert!(run_topology(&args(&["-h"])).unwrap().contains("-O <ascii|csv|json>"));
    }

    #[test]
    fn output_format_switch_selects_the_renderer() {
        let base = ["--machine", "westmere-ep-2s", "-c"];
        let ascii = run_topology(&args(&base)).unwrap();
        let mut with_o = base.to_vec();
        with_o.extend(["-O", "ascii"]);
        assert_eq!(run_topology(&args(&with_o)).unwrap(), ascii, "-O ascii is the default output");

        let mut json_args = base.to_vec();
        json_args.extend(["-O", "json"]);
        let json = run_topology(&args(&json_args)).unwrap();
        let parsed = Report::from_json(&json).expect("valid JSON document");
        assert_eq!(parsed, topology_report(&args(&base)).unwrap());
        assert_eq!(parsed.value("thread-topology", "Sockets").unwrap().as_count(), Some(2));

        let mut csv_args = base.to_vec();
        csv_args.extend(["-O", "csv"]);
        let csv = run_topology(&args(&csv_args)).unwrap();
        assert!(csv.contains("SECTION,thread-topology"));
        assert!(csv.contains("Sockets,2"));

        let mut bad = base.to_vec();
        bad.extend(["-O", "xml"]);
        assert!(run_topology(&args(&bad)).is_err());
    }

    #[test]
    fn output_format_is_inferred_from_the_file_extension() {
        let parsed = Tool::Topology.spec().parse(&args(&["-o", "topo.json"])).unwrap();
        assert_eq!(parsed.output().unwrap().format, OutputFormat::Json);
        assert_eq!(parsed.output().unwrap().path.as_deref(), Some("topo.json"));
    }

    #[test]
    fn string_front_ends_honour_the_output_file() {
        let path = std::env::temp_dir().join("likwid-cli-output-file-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let argv = vec!["-c".to_string(), "-o".to_string(), path_str.clone()];
        let text = run_topology(&argv).unwrap();
        let on_disk = std::fs::read_to_string(&path).expect("-o must write the file");
        assert_eq!(on_disk, text, "file contents equal the returned text");
        assert!(Report::from_json(&on_disk).is_ok(), "format inferred from .json extension");
        std::fs::remove_file(&path).ok();

        let bad = vec!["-o".to_string(), "/nonexistent-dir/impossible.json".to_string()];
        assert!(matches!(run_topology(&bad).unwrap_err(), LikwidError::Output(_)));
    }

    #[test]
    fn typed_reports_expose_tool_results() {
        let report =
            perfctr_report(&args(&["--machine", "nehalem-ep-2s", "-c", "0-7", "-g", "MEM"]))
                .unwrap();
        let owners: Vec<usize> = report
            .values("session", "Socket lock owner")
            .iter()
            .filter_map(|v| v.as_cpu_id())
            .collect();
        assert_eq!(owners, vec![0, 4]);

        let report =
            pin_report(&args(&["--machine", "westmere-ep-2s", "-c", "0-3", "-n", "4"])).unwrap();
        let placement = report.table("placement").unwrap();
        assert_eq!(placement.num_rows(), 4);
        assert_eq!(placement.rows[3].values[1].as_cpu_id(), Some(3));
    }
}
