//! Cross-crate integration tests: the full pipeline from the simulated
//! machine through the tools to the workloads, exercising the paths the
//! paper's case studies use.

use likwid_suite::affinity::ThreadingModel;
use likwid_suite::likwid::marker::MarkerApi;
use likwid_suite::likwid::perfctr::{
    parse_event_spec, EventGroupKind, MeasurementSpec, PerfCtr, PerfCtrConfig,
};
use likwid_suite::likwid::pin::{PinConfig, PinTool};
use likwid_suite::likwid::topology::CpuTopology;
use likwid_suite::perf_events::EventEngine;
use likwid_suite::workloads::exec::sample_from_simulation;
use likwid_suite::workloads::jacobi::{Jacobi, JacobiConfig, JacobiVariant};
use likwid_suite::x86_machine::{MachinePreset, SimMachine};

/// Case study 2+3 end to end: probe the topology, derive the "one socket"
/// pin list from it, run the wavefront Jacobi under that placement, measure
/// the uncore traffic through likwid-perfctr, and check that the
/// topology-aware placement wins — without ever consulting the machine's
/// ground truth directly.
#[test]
fn topology_aware_pinning_measured_through_the_tool() {
    let machine = SimMachine::new(MachinePreset::NehalemEp2S);

    // 1. likwid-topology: find the hardware threads sharing the first L3.
    let topo = CpuTopology::probe(&machine).expect("probe");
    let l3 = topo.caches.iter().find(|c| c.level == 3).expect("L3 present");
    let mut shared_l3_threads: Vec<usize> = l3.groups[0].clone();
    shared_l3_threads.sort_unstable();
    // Physical cores only (SMT thread 0): one OS id per core id.
    let mut one_socket_cores: Vec<usize> = Vec::new();
    for &os_id in &shared_l3_threads {
        let info = topo.hw_threads[os_id];
        if info.thread_id == 0 {
            one_socket_cores.push(os_id);
        }
    }
    assert_eq!(one_socket_cores.len(), 4, "Nehalem EP socket has four physical cores");

    // 2. A wrong placement: pairs of pipeline stages on different sockets.
    let other_socket: Vec<usize> = topo
        .hw_threads
        .iter()
        .filter(|t| t.socket_id == 1 && t.thread_id == 0)
        .map(|t| t.os_id)
        .take(2)
        .collect();
    let wrong_placement =
        vec![one_socket_cores[0], one_socket_cores[1], other_socket[0], other_socket[1]];

    // 3. Run both placements and measure UNC_L3 lines through the tool.
    let table = likwid_suite::perf_events::tables::for_arch(machine.arch());
    let spec =
        parse_event_spec("UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1", &table).unwrap();

    let measure = |placement: Vec<usize>| {
        let mut session = PerfCtr::new(
            &machine,
            PerfCtrConfig { cpus: placement.clone(), spec: MeasurementSpec::Custom(spec.clone()) },
        )
        .unwrap();
        session.start().unwrap();
        let result = Jacobi::new(&machine).run(&JacobiConfig {
            size: 72,
            time_steps: 4,
            placement,
            variant: JacobiVariant::Wavefront,
        });
        let sample = sample_from_simulation(&machine, &result.stats, &result.profile);
        EventEngine::new(&machine).apply(&machine, &sample);
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let tool_view = session.results(&counts).unwrap();
        (result, tool_view)
    };

    let (good, good_view) = measure(one_socket_cores.clone());
    let (bad, bad_view) = measure(wrong_placement);

    // The topology-aware placement wins by a wide margin…
    assert!(good.mlups > 1.5 * bad.mlups, "{} vs {}", good.mlups, bad.mlups);
    // …and the tool-visible uncore counts agree with the simulator's own
    // statistics (socket 0 owner is the first measured cpu in both runs).
    let good_lines_in_tool = good_view.event_count("UNC_L3_LINES_IN_ANY", 0).unwrap();
    assert_eq!(good_lines_in_tool, good.stats.levels.last().unwrap().instances[0].lines_in);
    let bad_lines_in_tool = bad_view.event_count("UNC_L3_LINES_IN_ANY", 0).unwrap();
    assert!(bad_lines_in_tool > 0);
}

/// Case study 1 end to end at the tool level: likwid-pin resolves the same
/// socket-scatter placement that the workload model rewards, and the
/// wrongly-configured pin run (missing skip mask) is detectably worse.
#[test]
fn likwid_pin_placements_feed_the_stream_model() {
    use likwid_suite::workloads::openmp::{CompilerPersonality, PlacementPolicy};
    use likwid_suite::workloads::stream::StreamTriad;
    use likwid_suite::workloads::Experiment;

    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let tool = PinTool::new(
        &machine,
        PinConfig::new("S0:0-2@S1:0-2").with_model(ThreadingModel::IntelOpenMp),
    )
    .unwrap();
    let placement: Vec<usize> =
        tool.worker_placement(6).into_iter().collect::<Option<Vec<_>>>().expect("fully pinned");

    let samples = |policy| {
        Experiment::on(MachinePreset::WestmereEp2S)
            .personality(CompilerPersonality::IntelIcc)
            .placement(policy)
            .threads(6)
            .samples(20)
            .seed(11)
            .run(&StreamTriad::new(CompilerPersonality::IntelIcc))
            .unwrap()
            .bandwidths()
    };
    let pinned = samples(PlacementPolicy::LikwidPin(placement));
    let unpinned = samples(PlacementPolicy::Unpinned);

    let pinned_median = median(&pinned);
    let unpinned_median = median(&unpinned);
    assert!(
        pinned_median >= unpinned_median,
        "likwid-pin placement must not lose to the scheduler lottery: {pinned_median} vs {unpinned_median}"
    );
    // All pinned samples are identical (no placement randomness remains).
    assert!(pinned.iter().all(|&s| (s - pinned[0]).abs() < 1e-9));
}

/// Marker-mode measurement across crates: two regions measured over a
/// simulated workload produce consistent derived metrics.
#[test]
fn marker_regions_with_derived_metrics() {
    use likwid_suite::perf_events::{EventSample, HwEventKind};

    let machine = SimMachine::new(MachinePreset::Core2Quad);
    let mut session = PerfCtr::new(
        &machine,
        PerfCtrConfig {
            cpus: vec![0, 1, 2, 3],
            spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP),
        },
    )
    .unwrap();
    session.start().unwrap();
    let engine = EventEngine::new(&machine);

    let mut marker = MarkerApi::init(4, 2);
    let bench = marker.register_region("Benchmark");
    for (thread, core) in (0..4).map(|i| (i, i)) {
        marker.start_region(thread, core, &session).unwrap();
    }
    let mut sample = EventSample::new(machine.num_hw_threads(), 1);
    for cpu in 0..4 {
        sample.threads[cpu].set(HwEventKind::SimdPackedDouble, 8_192_000);
        sample.threads[cpu].set(HwEventKind::SimdScalarDouble, 1);
        sample.threads[cpu].set(HwEventKind::InstructionsRetired, 18_802_400);
        sample.threads[cpu].set(HwEventKind::CoreCycles, 28_583_800);
    }
    engine.apply(&machine, &sample);
    for (thread, core) in (0..4).map(|i| (i, i)) {
        marker.stop_region(thread, core, bench, &session).unwrap();
    }
    marker.close().unwrap();

    let results = marker.region_results(bench, &session).unwrap();
    for cpu_pos in 0..4 {
        let mflops = results.metric("DP MFlops/s", cpu_pos).unwrap();
        assert!(
            (mflops - 1624.0).abs() < 40.0,
            "paper reports ~1624-1646 MFlops/s per core, got {mflops}"
        );
        let cpi = results.metric("CPI", cpu_pos).unwrap();
        assert!((cpi - 1.52).abs() < 0.02);
    }
}

/// The typed report API end to end: run a measurement through the tool
/// pipeline and consume counts and metrics from the structured document —
/// no string scraping anywhere, and the JSON a binary would emit parses
/// back into the same document.
#[test]
fn typed_report_consumption_without_string_scraping() {
    use likwid_suite::likwid::report::{Json, Render, Report};
    use likwid_suite::perf_events::{EventSample, HwEventKind};

    let machine = SimMachine::new(MachinePreset::Core2Quad);
    let mut session = PerfCtr::new(
        &machine,
        PerfCtrConfig {
            cpus: vec![0, 1, 2, 3],
            spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP),
        },
    )
    .unwrap();
    let (_, results) = session
        .measure(|m| {
            let mut sample = EventSample::new(m.num_hw_threads(), 1);
            for cpu in 0..4 {
                sample.threads[cpu].set(HwEventKind::SimdPackedDouble, 8_192_000);
                sample.threads[cpu].set(HwEventKind::SimdScalarDouble, 1);
                sample.threads[cpu].set(HwEventKind::InstructionsRetired, 18_802_400);
                sample.threads[cpu].set(HwEventKind::CoreCycles, 28_583_800);
            }
            EventEngine::new(m).apply(m, &sample);
        })
        .unwrap();

    let report = results.report();
    let events = report.table("events").expect("events table");
    assert_eq!(
        events.cell("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", "core 2").unwrap().as_count(),
        Some(8_192_000)
    );
    let metrics = report.table("metrics").expect("metrics table");
    let mflops = metrics.cell("DP MFlops/s", "core 0").unwrap().as_real().unwrap();
    assert!((mflops - 1624.0).abs() < 40.0, "paper reports ~1624 MFlops/s, got {mflops}");
    let cpi = metrics.cell("CPI", "core 3").unwrap().as_real().unwrap();
    assert!((cpi - 1.52).abs() < 0.02);

    // What `likwid-perfctr -O json` would emit round-trips across the
    // process boundary into an equal document.
    let wire = Json.render(&report);
    let parsed = Report::from_json(&wire).expect("valid JSON");
    assert_eq!(parsed, report);
    assert_eq!(
        parsed.table("events").unwrap().cell("INSTR_RETIRED_ANY", "core 1").unwrap().as_count(),
        Some(18_802_400)
    );

    // The topology report feeds typed placement decisions the same way.
    let topo_report = likwid_suite::likwid::cli::topology_report(&[
        "--machine".to_string(),
        "westmere-ep-2s".to_string(),
    ])
    .unwrap();
    assert_eq!(topo_report.value("thread-topology", "Sockets").unwrap().as_count(), Some(2));
    assert_eq!(
        topo_report.value("thread-topology", "Cores per socket").unwrap().as_count(),
        Some(6)
    );
}

/// The four CLI front ends work against every machine preset.
#[test]
fn cli_tools_run_on_every_preset() {
    for &preset in MachinePreset::all() {
        let machine_arg = vec!["--machine".to_string(), preset.id().to_string()];
        let topo = likwid_suite::likwid::cli::run_topology(&machine_arg).unwrap();
        assert!(topo.contains("Sockets:"), "{preset:?}");

        let mut pin_args = machine_arg.clone();
        pin_args.extend(["-c".to_string(), "0".to_string()]);
        assert!(likwid_suite::likwid::cli::run_pin(&pin_args).is_ok(), "{preset:?}");

        let mut perfctr_args = machine_arg.clone();
        perfctr_args.push("-a".to_string());
        let listing = likwid_suite::likwid::cli::run_perfctr(&perfctr_args).unwrap();
        assert!(listing.contains("FLOPS_DP"), "{preset:?}");
    }
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[sorted.len() / 2]
}
