//! Figure and table regeneration harness.
//!
//! Every figure and table of the paper's evaluation (Section IV) has a
//! binary in `src/bin/` that regenerates it against the simulated machines;
//! the shared logic lives here so that the binaries stay thin and the
//! integration tests can call the same functions. The cost of the building
//! blocks themselves is measured by the suite's self-benchmark
//! (`selfbench/`), not here.
//!
//! Output: every generator builds a typed [`likwid::Report`] — one table
//! row per x-axis point, columns `min / q1 / median / q3 / max` for the
//! box-plot figures, the same summary statistics the paper plots. The
//! binaries accept `-O <ascii|csv|json>` / `-o <file>` through
//! [`figure_bin_main`] like the four tools.

use likwid::args::{ArgSpec, ParsedArgs};
use likwid::perfctr::{group_definition, supported_groups, EventGroupKind};
use likwid::pin::{PinConfig, PinTool};
use likwid::report::{
    Ascii, Body, KvEntry, Render, Report, Row, Section, Table, TimeSeries, Value,
};
use likwid::topology::CpuTopology;
use likwid_affinity::ThreadingModel;
use likwid_fleet::{
    run_sweep, PlacementAxis, RunOptions, SeedRule, SweepSpec, ThreadsAxis, WorkloadSpec,
};
use likwid_workloads::jacobi::{JacobiVariant, JacobiWorkload};
use likwid_workloads::openmp::{CompilerPersonality, PlacementPolicy};
use likwid_workloads::workload::WorkloadRun;
use likwid_workloads::Experiment;
use likwid_x86_machine::{MachinePreset, SimMachine};

pub mod microbench;

/// Which placement regime a STREAM figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamScenario {
    /// No pinning: the simulated scheduler decides (Figures 4, 7, 9).
    Unpinned,
    /// Pinned with likwid-pin, round robin over sockets, physical cores
    /// first (Figures 5, 8, 10).
    Pinned,
    /// The Intel OpenMP runtime's `KMP_AFFINITY=scatter` (Figure 6).
    KmpScatter,
}

impl StreamScenario {
    /// Caption fragment used in the emitted tables.
    pub fn label(self) -> &'static str {
        match self {
            StreamScenario::Unpinned => "not pinned",
            StreamScenario::Pinned => "pinned with likwid-pin",
            StreamScenario::KmpScatter => "KMP_AFFINITY=scatter",
        }
    }
}

/// Description of one STREAM figure of the paper.
#[derive(Debug, Clone, Copy)]
pub struct StreamFigure {
    /// Figure number in the paper.
    pub number: u32,
    /// Machine the experiment runs on.
    pub preset: MachinePreset,
    /// Compiler personality.
    pub personality: CompilerPersonality,
    /// Placement regime.
    pub scenario: StreamScenario,
}

/// The seven STREAM figures (4–10) of the paper.
pub fn stream_figures() -> Vec<StreamFigure> {
    use CompilerPersonality::{Gcc, IntelIcc};
    use MachinePreset::{IstanbulH2S, WestmereEp2S};
    vec![
        StreamFigure {
            number: 4,
            preset: WestmereEp2S,
            personality: IntelIcc,
            scenario: StreamScenario::Unpinned,
        },
        StreamFigure {
            number: 5,
            preset: WestmereEp2S,
            personality: IntelIcc,
            scenario: StreamScenario::Pinned,
        },
        StreamFigure {
            number: 6,
            preset: WestmereEp2S,
            personality: IntelIcc,
            scenario: StreamScenario::KmpScatter,
        },
        StreamFigure {
            number: 7,
            preset: WestmereEp2S,
            personality: Gcc,
            scenario: StreamScenario::Unpinned,
        },
        StreamFigure {
            number: 8,
            preset: WestmereEp2S,
            personality: Gcc,
            scenario: StreamScenario::Pinned,
        },
        StreamFigure {
            number: 9,
            preset: IstanbulH2S,
            personality: IntelIcc,
            scenario: StreamScenario::Unpinned,
        },
        StreamFigure {
            number: 10,
            preset: IstanbulH2S,
            personality: IntelIcc,
            scenario: StreamScenario::Pinned,
        },
    ]
}

/// The declarative fleet sweep behind one STREAM figure: the whole
/// `1..=num_hw_threads` family as a single [`SweepSpec`] instead of a
/// hand-rolled loop.
pub(crate) fn stream_figure_sweep(figure: StreamFigure, samples: usize, seed: u64) -> SweepSpec {
    let mut sweep = SweepSpec::new(WorkloadSpec::StreamTriad, figure.preset);
    sweep.personalities = vec![figure.personality];
    sweep.placements = vec![match figure.scenario {
        StreamScenario::Unpinned => PlacementAxis::Unpinned,
        // The paper's pinned runs: round robin across sockets, physical
        // cores before SMT threads.
        StreamScenario::Pinned => PlacementAxis::Scatter,
        StreamScenario::KmpScatter => PlacementAxis::KmpScatter,
    }];
    sweep.threads = ThreadsAxis::AllHwThreads;
    sweep.samples = samples.max(1);
    sweep.seed = SeedRule::XorThreads(seed);
    sweep
}

/// Regenerate one STREAM figure as a typed report by running its fleet
/// sweep through the fleet scheduler (the points of the family run in
/// parallel; the report is deterministic regardless).
///
/// `samples` is the number of runs per thread count (the paper uses 100).
pub fn stream_figure_report(figure: StreamFigure, samples: usize, seed: u64) -> Report {
    let sweep = stream_figure_sweep(figure, samples, seed);
    let outcome = run_sweep(&sweep, &RunOptions::default())
        .expect("a counter-less figure sweep cannot fail to expand");

    let mut table =
        Table::plain(vec!["threads", "min_mb_s", "q1_mb_s", "median_mb_s", "q3_mb_s", "max_mb_s"])
            .with_ascii_header("threads  min[MB/s]  q1[MB/s]  median[MB/s]  q3[MB/s]  max[MB/s]");
    for (point, result) in &outcome.points {
        let result = result.as_ref().expect("a counter-less experiment cannot fail");
        let stats = likwid_workloads::BoxStats::from_samples(&result.bandwidths)
            .expect("at least one sample");
        let threads = point.threads;
        table.push(
            Row::new(vec![
                Value::Count(threads as u64),
                Value::Real(stats.min),
                Value::Real(stats.q1),
                Value::Real(stats.median),
                Value::Real(stats.q3),
                Value::Real(stats.max),
            ])
            .with_ascii(format!(
                "{:7}  {:9.0}  {:8.0}  {:12.0}  {:8.0}  {:9.0}",
                threads, stats.min, stats.q1, stats.median, stats.q3, stats.max
            )),
        );
    }
    let mut report = Report::new(format!("figure{}", figure.number));
    report.push(Section::new("series", Body::Table(table)).with_heading(format!(
        "Figure {}: STREAM triad, {} compiler, {}, {} ({} samples per thread count)",
        figure.number,
        figure.personality.name(),
        figure.preset.id(),
        figure.scenario.label(),
        samples
    )));
    report
}

/// Regenerate Figure 11 as a typed report: MLUPS vs. problem size for the
/// three Jacobi curves (wavefront on one socket, wavefront split 2+2,
/// threaded baseline).
pub fn figure11_report(sizes: &[usize], time_steps: usize) -> Report {
    let one_socket = vec![0usize, 1, 2, 3];
    let split = vec![0usize, 1, 4, 5];
    let run = |variant: JacobiVariant, placement: &[usize], size: usize| -> WorkloadRun {
        Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(placement.to_vec()))
            .run(&JacobiWorkload { variant, size, time_steps })
            .expect("a counter-less experiment cannot fail")
            .runs
            .remove(0)
    };
    let mlups = |r: &WorkloadRun| r.iterations_per_second() / 1e6;

    let mut table = Table::plain(vec![
        "size",
        "wavefront_one_socket_mlups",
        "wavefront_split_mlups",
        "threaded_mlups",
    ])
    .with_ascii_header(
        "size  wavefront 1x4 (one socket)  wavefront 1x4 (2 per socket)  threaded baseline",
    );
    for &size in sizes {
        let wavefront = run(JacobiVariant::Wavefront, &one_socket, size);
        let wrong = run(JacobiVariant::Wavefront, &split, size);
        let baseline = run(JacobiVariant::Threaded, &one_socket, size);
        table.push(
            Row::new(vec![
                Value::Count(size as u64),
                Value::Real(mlups(&wavefront)),
                Value::Real(mlups(&wrong)),
                Value::Real(mlups(&baseline)),
            ])
            .with_ascii(format!(
                "{:4}  {:26.0}  {:28.0}  {:17.0}",
                size,
                mlups(&wavefront),
                mlups(&wrong),
                mlups(&baseline)
            )),
        );
    }
    let mut report = Report::new("figure11");
    report.push(
        Section::new("series", Body::Table(table)).with_heading(
            "Figure 11: 3D Jacobi smoother on Nehalem EP (2.66 GHz), 4 threads [MLUPS]",
        ),
    );
    report
}

/// The time-resolved Jacobi case study: MEM bandwidth over virtual time
/// for the naive threaded sweep vs. the temporally blocked wavefront, four
/// threads on one Nehalem EP socket, measured through the timeline mode of
/// the experiment harness.
///
/// The phase structure that end-to-end totals hide becomes visible here:
/// the threaded variant alternates memory-saturating sweeps with
/// zero-traffic fork/join barriers (a sawtooth in the bandwidth series),
/// while the wavefront streams steadily at a fraction of the bandwidth
/// because only the pipeline's two ends touch main memory.
pub fn jacobi_timeline_report(
    size: usize,
    time_steps: usize,
    interval_s: f64,
) -> likwid::Result<Report> {
    let placement = vec![0usize, 1, 2, 3];
    let mut report = Report::new("fig12");
    report.push(Section::new("banner", Body::Text(String::new())).with_heading(format!(
        "Time-resolved Jacobi on one Nehalem EP socket (N = {size}, {time_steps} sweeps, \
             4 threads, sampling interval {} s)",
        likwid::output::format_value(interval_s)
    )));
    for (variant, label) in
        [(JacobiVariant::Threaded, "threaded"), (JacobiVariant::Wavefront, "wavefront")]
    {
        let result = Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(placement.clone()))
            .group(EventGroupKind::MEM)
            .timeline(interval_s)
            .run(&JacobiWorkload { variant, size, time_steps })?;
        let timeline = result.timeline.as_ref().expect("timeline was configured");
        let run = result.first();
        let series = timeline.time_series("MEM").expect("MEM group series");
        // The socket-lock owner (hardware thread 0) carries the uncore
        // bandwidth counts; the other threads read 0 for them.
        let bandwidth = TimeSeries {
            timestamps: series.timestamps.clone(),
            series: series
                .series
                .iter()
                .filter(|s| s.cpu == 0 && s.metric == "Memory bandwidth [MBytes/s]")
                .cloned()
                .collect(),
        };
        report.push(
            Section::new(format!("{label}.summary"), {
                Body::KeyValues(vec![
                    KvEntry::new("Runtime [s]", Value::Real(run.runtime_s)),
                    KvEntry::new(
                        "Performance [MLUPS]",
                        Value::Real(run.iterations_per_second() / 1e6),
                    ),
                    KvEntry::new(
                        "Memory data volume [GBytes]",
                        Value::Real(run.stats.total_memory_bytes() as f64 / 1e9),
                    ),
                ])
            })
            .with_heading(format!("{}:", variant.name())),
        );
        report.push(Section::new(format!("{label}.timeline"), Body::TimeSeries(bandwidth)));
    }
    Ok(report)
}

/// The argument spec of the `fig12_jacobi_timeline` binary.
pub fn jacobi_timeline_spec() -> ArgSpec {
    ArgSpec::new(
        "fig12_jacobi_timeline",
        "time-resolved Jacobi: blocked vs naive phase structure in MEM bandwidth",
    )
    .flag("-t", None, Some("interval"), "sampling interval of virtual time (default 200us)")
    .flag("-s", None, Some("steps"), "time steps / sweeps (default 4)")
    .positional("size", "grid size in every dimension (default 104)", false)
}

/// Build the `fig12_jacobi_timeline` report from parsed arguments.
pub fn jacobi_timeline_report_from(parsed: &ParsedArgs) -> likwid::Result<Report> {
    let size = parsed.positional_number(104)?;
    let time_steps: usize = match parsed.value("-s") {
        None => 4,
        Some(raw) => raw
            .parse()
            .map_err(|_| likwid::LikwidError::Usage(format!("bad time step count '{raw}'")))?,
    };
    let interval_s = match parsed.value("-t") {
        None => 200e-6,
        Some(raw) => likwid::perfctr::parse_interval(raw)?,
    };
    jacobi_timeline_report(size, time_steps, interval_s)
}

/// Regenerate Table II as a typed report: uncore L3 line counts, data
/// volume and MLUPS for the three Jacobi variants on one Nehalem EP socket,
/// measured through `likwid-perfctr` (counters programmed via MSRs,
/// credited by the counting engine from the simulated run).
pub fn table2_report(size: usize, time_steps: usize) -> Report {
    let preset = MachinePreset::NehalemEp2S;
    let placement = vec![0usize, 1, 2, 3];
    // The custom Table II uncore event set, measured through the real tool
    // path (session programming, marker region, counting engine, read-back)
    // by the experiment harness.
    let event_table = likwid_perf_events::tables::for_arch(preset.arch());
    let spec = likwid::perfctr::parse_measurement_spec(
        "UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1",
        &event_table,
    )
    .expect("event spec");

    let mut rows = Vec::new();
    for variant in [JacobiVariant::Threaded, JacobiVariant::ThreadedNt, JacobiVariant::Wavefront] {
        let result = Experiment::on(preset)
            .placement(PlacementPolicy::LikwidPin(placement.clone()))
            .counters(spec.clone())
            .run(&JacobiWorkload { variant, size, time_steps })
            .expect("Table II measurement");
        let counters = result.counters.as_ref().expect("counters were configured");
        let lines_in = counters.event_count("UNC_L3_LINES_IN_ANY", 0).unwrap_or(0);
        let lines_out = counters.event_count("UNC_L3_LINES_OUT_ANY", 0).unwrap_or(0);
        let run = result.first();
        rows.push((
            lines_in,
            lines_out,
            run.stats.total_memory_bytes() as f64 / 1e9,
            run.iterations_per_second() / 1e6,
        ));
    }

    let mut table = Table::plain(vec!["metric", "threaded", "threaded_nt", "wavefront"])
        .with_ascii_header(format!(
            "{:28} {:>16} {:>16} {:>22} {:>20}",
            "", "threaded", "threaded (NT)", "blocked (wavefront)", ""
        ));
    let count_row = |name: &str, values: [u64; 3]| {
        let ascii: Vec<String> = values.iter().map(|&v| format!("{:.3e}", v as f64)).collect();
        Row::new(vec![
            Value::Str(name.to_string()),
            Value::Count(values[0]),
            Value::Count(values[1]),
            Value::Count(values[2]),
        ])
        .with_ascii(format!("{:28} {:>16} {:>16} {:>22}", name, ascii[0], ascii[1], ascii[2]))
    };
    table.push(count_row("UNC_L3_LINES_IN_ANY", [rows[0].0, rows[1].0, rows[2].0]));
    table.push(count_row("UNC_L3_LINES_OUT_ANY", [rows[0].1, rows[1].1, rows[2].1]));
    table.push(
        Row::new(vec![
            Value::Str("Total data volume [GB]".to_string()),
            Value::Real(rows[0].2),
            Value::Real(rows[1].2),
            Value::Real(rows[2].2),
        ])
        .with_ascii(format!(
            "{:28} {:>16} {:>16} {:>22}",
            "Total data volume [GB]",
            format!("{:.2}", rows[0].2),
            format!("{:.2}", rows[1].2),
            format!("{:.2}", rows[2].2)
        )),
    );
    table.push(
        Row::new(vec![
            Value::Str("Performance [MLUPS]".to_string()),
            Value::Real(rows[0].3),
            Value::Real(rows[1].3),
            Value::Real(rows[2].3),
        ])
        .with_ascii(format!(
            "{:28} {:>16} {:>16} {:>22}",
            "Performance [MLUPS]",
            format!("{:.0}", rows[0].3),
            format!("{:.0}", rows[1].3),
            format!("{:.0}", rows[2].3)
        )),
    );

    let mut report = Report::new("table2");
    report.push(Section::new("measurements", Body::Table(table)).with_heading(format!(
        "Table II: likwid-perfCtr measurements on one Nehalem EP socket (N = {size}, {time_steps} sweeps)"
    )));
    report
}

/// Regenerate Table II as a text table.
pub fn table2_text(size: usize, time_steps: usize) -> String {
    Ascii.render(&table2_report(size, time_steps))
}

/// Regenerate Table I as a typed report: the qualitative LIKWID-vs-PAPI
/// comparison.
pub(crate) fn table1_report() -> Report {
    let mut table = Table::plain(vec!["aspect", "likwid", "papi"]);
    for (aspect, likwid, papi) in likwid_papi_compat::table1_rows() {
        table.push(
            Row::new(vec![
                Value::Str(aspect.to_string()),
                Value::Str(likwid.to_string()),
                Value::Str(papi.to_string()),
            ])
            .with_ascii(format!("{aspect}\n  LIKWID: {likwid}\n  PAPI:   {papi}")),
        );
    }
    let mut report = Report::new("table1");
    report.push(
        Section::new("comparison", Body::Table(table))
            .with_heading("Table I: Comparison between LIKWID and PAPI"),
    );
    report
}

/// The full report of the Table I binary: the qualitative comparison plus
/// the measured marker-API vs. PAPI-style API overhead.
pub fn table1_bin_report(iterations: u32) -> Report {
    let mut report = table1_report();
    let (likwid_ns, papi_ns) = api_overhead_ns(iterations);
    report.push(
        Section::new(
            "api-overhead",
            Body::KeyValues(vec![
                KvEntry::new("LIKWID marker API [ns]", Value::Real(likwid_ns))
                    .with_ascii(format!("  LIKWID marker API : {likwid_ns:8.0} ns")),
                KvEntry::new("PAPI-style API [ns]", Value::Real(papi_ns))
                    .with_ascii(format!("  PAPI-style API    : {papi_ns:8.0} ns")),
            ]),
        )
        .with_heading("\nMeasured API overhead per start/stop pair (simulated machine):"),
    );
    report
}

/// Regenerate Figure 1 and the Section II-B listing as a typed report: the
/// probed topology of the evaluation machines.
pub fn figure1_report() -> Report {
    let mut report = Report::new("figure1");
    for preset in [MachinePreset::NehalemEp2S, MachinePreset::WestmereEp2S] {
        let machine = SimMachine::new(preset);
        let topo = CpuTopology::probe(&machine).expect("topology probe");
        report.push(
            Section::new(format!("{}.banner", preset.id()), Body::Text(String::new()))
                .with_heading(format!("==== {} ====", preset.id())),
        );
        for mut section in topo.report(true, true).sections {
            section.id = format!("{}.{}", preset.id(), section.id);
            report.push(section);
        }
    }
    report
}

/// Regenerate Figure 2 as a typed report: the mapping from event sets
/// through events to counters for every group supported on an architecture.
pub fn figure2_report(preset: MachinePreset) -> Report {
    let machine = SimMachine::new(preset);
    let mut report = Report::new("figure2");
    report.push(
        Section::new(format!("{}.banner", preset.id()), Body::Text(String::new())).with_heading(
            format!(
                "Figure 2: event sets -> hardware events -> performance counters ({})",
                machine.arch().display_name()
            ),
        ),
    );
    for kind in supported_groups(machine.arch()) {
        let def = group_definition(machine.arch(), kind).expect("supported group");
        let mut table = Table::plain(vec!["kind", "name", "mapping"]);
        for (event, slot) in &def.events {
            table.push(
                Row::new(vec![
                    Value::Str("event".to_string()),
                    Value::Str(event.to_string()),
                    Value::Str(slot.name()),
                ])
                .with_ascii(format!("    {:40} -> {}", event, slot.name())),
            );
        }
        for (metric, formula) in &def.metrics {
            table.push(
                Row::new(vec![
                    Value::Str("metric".to_string()),
                    Value::Str(metric.to_string()),
                    Value::Str(formula.to_string()),
                ])
                .with_ascii(format!("    metric {:28} = {}", metric, formula)),
            );
        }
        report.push(
            Section::new(format!("{}.group.{}", preset.id(), kind.name()), Body::Table(table))
                .with_heading(format!("{} ({}):", kind.name(), kind.description())),
        );
    }
    report
}

/// Regenerate Figure 3 as a typed report: the likwid-pin interception
/// mechanism, traced for an Intel OpenMP binary on the Westmere node.
pub fn figure3_report() -> Report {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let tool =
        PinTool::new(&machine, PinConfig::new("0-3").with_model(ThreadingModel::IntelOpenMp))
            .expect("pin configuration");
    let env = tool.environment();
    let mut entries = vec![
        KvEntry::new(
            "exported environment",
            Value::Str(format!(
                "LIKWID_PIN={} LIKWID_SKIP={} KMP_AFFINITY={} LD_PRELOAD={}",
                env.likwid_pin, env.likwid_skip, env.kmp_affinity, env.ld_preload
            )),
        ),
        {
            let master = tool.pinner().master_cpu();
            let value = match master {
                Some(c) => Value::CpuId(c),
                None => Value::Str("unpinned".to_string()),
            };
            KvEntry::new("master thread", value)
                .with_ascii(format!("master thread pinned to hardware thread {master:?}"))
        },
    ];
    let mut pinner = tool.pinner();
    for i in 0..ThreadingModel::IntelOpenMp.created_threads(4) {
        let outcome = pinner.on_thread_create();
        entries
            .push(KvEntry::new(format!("pthread_create #{i}"), Value::Str(format!("{outcome:?}"))));
    }
    let mut report = Report::new("figure3");
    report.push(Section::new("mechanism", Body::KeyValues(entries)).with_heading(
        "Figure 3: likwid-pin wrapper mechanism (Intel OpenMP binary, -c 0-3 -t intel)",
    ));
    report
}

/// Marker-API vs. PAPI-style API overhead: the measured counterpart to the
/// "User API support" row of Table I. Returns (likwid_ns, papi_ns) per
/// start/stop pair, measured with `iterations` repetitions.
pub fn api_overhead_ns(iterations: u32) -> (f64, f64) {
    use likwid::marker::MarkerApi;
    use likwid::perfctr::{MeasurementSpec, PerfCtr, PerfCtrConfig};
    use likwid_papi_compat::{Papi, PapiPreset};
    use std::time::Instant;

    let machine = SimMachine::new(MachinePreset::Core2Quad);

    let config =
        PerfCtrConfig { cpus: vec![0], spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP) };
    let mut session = PerfCtr::new(&machine, config).expect("session");
    session.start().expect("start");
    let mut marker = MarkerApi::init(1, 1);
    let region = marker.register_region("bench");
    let start = Instant::now();
    for _ in 0..iterations {
        marker.start_region(0, 0, &session).expect("start region");
        marker.stop_region(0, 0, region, &session).expect("stop region");
    }
    let likwid_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    let mut papi = Papi::library_init(&machine);
    let set = papi.create_eventset(0).expect("eventset");
    papi.add_event(set, PapiPreset::PAPI_DP_OPS).expect("add");
    papi.add_event(set, PapiPreset::PAPI_TOT_CYC).expect("add");
    let start = Instant::now();
    for _ in 0..iterations {
        papi.start(set).expect("start");
        papi.stop(set).expect("stop");
    }
    let papi_ns = start.elapsed().as_nanos() as f64 / iterations as f64;

    (likwid_ns, papi_ns)
}

/// Binary entry point shared by the figure/table binaries and
/// `likwid-bench`: the tools' driver ([`likwid::args::bin_main`]) applied to the process
/// arguments. Returns the process exit code.
pub fn figure_bin_main(
    spec: &ArgSpec,
    build: impl FnOnce(&ParsedArgs) -> likwid::Result<Report>,
) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    likwid::args::bin_main(spec, &args, build)
}

/// The argument spec of a STREAM figure binary (positional sample count).
pub(crate) fn stream_figure_spec(tool: &'static str, about: &'static str) -> ArgSpec {
    ArgSpec::new(tool, about).positional("samples", "runs per thread count (default 100)", false)
}

/// The whole entry point of a STREAM figure binary: spec, sample-count
/// parsing and the fleet-backed report for `stream_figures()[index]`,
/// seeded by the figure number (the historical convention of the seven
/// binaries). Returns the process exit code.
pub fn stream_figure_bin_main(tool: &'static str, about: &'static str, index: usize) -> i32 {
    let spec = stream_figure_spec(tool, about);
    figure_bin_main(&spec, |parsed| {
        let figure = stream_figures()[index];
        let samples = parsed.positional_number(100)?;
        Ok(stream_figure_report(figure, samples, figure.number as u64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stream_figures_are_described() {
        let figs = stream_figures();
        assert_eq!(figs.len(), 7);
        assert_eq!(figs[0].number, 4);
        assert_eq!(figs[6].number, 10);
    }

    #[test]
    fn paper_thread_counts_cover_the_machine() {
        for fig in stream_figures() {
            let points = stream_figure_sweep(fig, 1, 1).expand().unwrap();
            let counts: Vec<usize> = points.iter().map(|p| p.threads).collect();
            let all: Vec<usize> = (1..=fig.preset.topology().num_hw_threads()).collect();
            assert_eq!(counts, all, "figure {}", fig.number);
        }
        // The Westmere figures run 1..=24 threads.
        assert_eq!(stream_figure_sweep(stream_figures()[0], 1, 1).expand().unwrap().len(), 24);
    }

    #[test]
    fn stream_figure_text_has_one_row_per_thread_count() {
        let fig = stream_figures()[1]; // Figure 5, pinned (deterministic, cheap)
        let text = Ascii.render(&stream_figure_report(fig, 3, 1));
        let rows = text
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit() || c == ' '))
            .count();
        assert!(text.contains("Figure 5"));
        assert!(rows >= 24, "24 thread counts on the Westmere node:\n{text}");
    }

    #[test]
    fn stream_figure_report_round_trips_and_matches_the_text() {
        use likwid::report::Json;
        let fig = stream_figures()[1];
        let report = stream_figure_report(fig, 3, 1);
        let table = report.table("series").expect("series table");
        assert_eq!(table.num_columns(), 6);
        assert!(table.num_rows() >= 24);
        assert_eq!(table.rows[0].values[0].as_count(), Some(1));
        let parsed = Report::from_json(&Json.render(&report)).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn figure11_text_contains_all_three_curves() {
        let text = Ascii.render(&figure11_report(&[32, 48], 4));
        assert!(text.contains("wavefront 1x4 (one socket)"));
        assert!(text.contains("2 per socket"));
        assert!(text.contains("threaded baseline"));
        assert_eq!(text.lines().count(), 2 + 2, "header lines plus one row per size");
    }

    #[test]
    fn table2_text_reports_the_four_metrics() {
        let text = table2_text(48, 4);
        assert!(text.contains("UNC_L3_LINES_IN_ANY"));
        assert!(text.contains("UNC_L3_LINES_OUT_ANY"));
        assert!(text.contains("Total data volume [GB]"));
        assert!(text.contains("Performance [MLUPS]"));
    }

    #[test]
    fn table2_report_exposes_typed_counts() {
        let report = table2_report(48, 4);
        let table = report.table("measurements").expect("measurements table");
        assert_eq!(table.num_rows(), 4);
        let lines_in = table.cell("UNC_L3_LINES_IN_ANY", "threaded").expect("typed cell");
        assert!(lines_in.as_count().unwrap() > 0, "the threaded variant moves L3 lines");
        let mlups = table.cell("Performance [MLUPS]", "wavefront").expect("typed cell");
        assert!(mlups.as_real().unwrap() > 0.0);
    }

    #[test]
    fn table1_and_conceptual_figures_render() {
        assert!(Ascii.render(&table1_report()).contains("Thread and process pinning"));
        assert!(Ascii.render(&figure1_report()).contains("Cache Topology"));
        let fig2 = Ascii.render(&figure2_report(MachinePreset::WestmereEp2S));
        assert!(fig2.contains("FLOPS_DP"));
        assert!(fig2.contains("UPMC0"));
        let fig3 = Ascii.render(&figure3_report());
        assert!(fig3.contains("Skipped"));
        assert!(fig3.contains("KMP_AFFINITY=disabled"));
    }

    #[test]
    fn api_overhead_measures_both_interfaces() {
        let (likwid_ns, papi_ns) = api_overhead_ns(100);
        assert!(likwid_ns > 0.0);
        assert!(papi_ns > 0.0);
    }

    #[test]
    fn figure_bin_driver_renders_and_validates() {
        use likwid::args::{drive, Invocation};
        let spec = stream_figure_spec("fig-test", "test figure");
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();

        let rendered = drive(&spec, &args(&["2", "-O", "json"]), |parsed| {
            let samples = parsed.positional_number(100)?;
            Ok(stream_figure_report(stream_figures()[1], samples, 5))
        });
        let Ok(Invocation::Rendered { text, target }) = rendered else {
            panic!("not a rendered report");
        };
        assert!(target.path.is_none());
        let parsed = Report::from_json(&text).expect("valid JSON");
        assert!(parsed.table("series").is_some());

        let help = drive(&spec, &args(&["-h"]), |_| Ok(Report::new("unused")));
        assert!(matches!(help, Ok(Invocation::Help(_))));
        assert!(drive(&spec, &args(&["two"]), |parsed| {
            parsed.positional_number(100)?;
            Ok(Report::new("unused"))
        })
        .is_err());
        assert!(drive(&spec, &args(&["--bogus"]), |_| Ok(Report::new("unused"))).is_err());
    }
}
