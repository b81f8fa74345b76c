//! Streamed daemon sessions reconstruct the post-mortem result
//! bit-identically.
//!
//! A solo daemon session streams per-interval frames over the NDJSON wire
//! protocol; the client's `StreamAccumulator` rebuilds a `TimelineResult`
//! from nothing but those frames. Because the wire codec is lossless
//! (64-bit counts stay integers, floats round-trip shortest-exactly) and
//! the broker's coverage scale is exactly 1 for an uncontended session,
//! the reconstructed result must render byte-identically to the report of
//! a local `likwid-perfctr -t` run with the same configuration — across
//! presets, core-only, uncore, multiplexed and custom event specs. The
//! same holds for `Experiment::via_daemon` against `Experiment::run`.
//!
//! Interval frames carry raw counts only; the client derives every
//! per-interval metric itself. Those derived values must equal the local
//! run's bit for bit, in the rebuilt time series and in each live row.

use likwid_suite::daemon::client::{stream_row, StreamAccumulator};
use likwid_suite::daemon::{Daemon, Frame, OpenRequest};
use likwid_suite::likwid::perfctr::timeline::run_demo_timeline;
use likwid_suite::likwid::perfctr::{
    parse_interval, parse_measurement_spec, PerfCtrConfig, TimelineResult,
};
use likwid_suite::likwid::report::{Ascii, Render, TimeSeries};
use likwid_suite::perf_events::EventEngine;
use likwid_suite::workloads::kernels::kernel_by_name;
use likwid_suite::workloads::{Experiment, PlacementPolicy};
use likwid_suite::x86_machine::{MachinePreset, SimMachine};

fn request(cpus: &str, group: &str, interval: &str, duration: &str) -> OpenRequest {
    OpenRequest {
        machine: None,
        cpus: cpus.to_string(),
        group: group.to_string(),
        interval: interval.to_string(),
        duration: duration.to_string(),
    }
}

/// Stream one solo daemon session, push every frame through a wire
/// round-trip (encode to its NDJSON line, parse back), and reconstruct.
fn stream_via_wire(preset: MachinePreset, request: &OpenRequest) -> StreamAccumulator {
    let machine = SimMachine::new(preset);
    let daemon = Daemon::new(&machine);
    let mut handle = daemon.open(request).expect("session admitted");

    let reparse =
        |frame: Frame| -> Frame { Frame::from_line(&frame.to_line()).expect("wire round-trip") };
    let opened = match reparse(Frame::Opened(handle.opened().clone())) {
        Frame::Opened(opened) => opened,
        other => panic!("expected opened, got {other:?}"),
    };
    let mut accumulator = StreamAccumulator::new(opened);
    while let Some(interval) = handle.next_interval().expect("interval") {
        match reparse(Frame::Interval(interval)) {
            Frame::Interval(interval) => accumulator.push(interval).expect("in order"),
            other => panic!("expected interval, got {other:?}"),
        }
    }
    let (done, _result) = handle.finish().expect("finish");
    match reparse(Frame::Done(done)) {
        Frame::Done(done) => accumulator.complete(done).expect("consistent"),
        other => panic!("expected done, got {other:?}"),
    }
    accumulator
}

/// The local `run_demo_timeline` of a `-c cpus -g group` session over
/// 10 ms in 2 ms intervals, on a fresh machine.
fn local_run(preset: MachinePreset, cpus: &str, group: &str) -> TimelineResult {
    let machine = SimMachine::new(preset);
    let engine = EventEngine::new(&machine);
    let spec = parse_measurement_spec(group, engine.table()).expect("spec parses");
    let config =
        PerfCtrConfig { cpus: cpus.split(',').map(|c| c.parse().unwrap()).collect(), spec };
    let interval_s = parse_interval("2ms").expect("interval");
    let duration_s = parse_interval("10ms").expect("duration");
    run_demo_timeline(&machine, config, interval_s, duration_s).expect("local timeline run")
}

/// The values of a time series as bits, series by series.
fn series_bits(series: &TimeSeries) -> Vec<(String, usize, Vec<u64>)> {
    series
        .series
        .iter()
        .map(|s| (s.metric.clone(), s.cpu, s.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn streamed_frames_reconstruct_the_post_mortem_report_byte_identically() {
    let cases: &[(MachinePreset, &str, &str)] = &[
        // (preset, cpus, group): core-only, uncore, multiplexed (group
        // rotation + coverage extrapolation), custom event list (raw
        // counts, no derived metrics).
        (MachinePreset::WestmereEp2S, "0,1", "FLOPS_DP"),
        (MachinePreset::WestmereEp2S, "0,6", "MEM"),
        (MachinePreset::WestmereEp2S, "0,1,2", "FLOPS_DP,MEM,L3"),
        (MachinePreset::NehalemEp2S, "0,1", "L3CACHE"),
        (MachinePreset::NehalemEp2S, "0", "INSTR_RETIRED_ANY:FIXC0,CPU_CLK_UNHALTED_CORE:FIXC1"),
        (MachinePreset::Core2Quad, "0,1,2,3", "FLOPS_DP,L2"),
    ];
    for &(preset, cpus, group) in cases {
        let context = format!("{} cpus={cpus} -g {group}", preset.id());
        let req = request(cpus, group, "2ms", "10ms");
        let accumulator = stream_via_wire(preset, &req);
        accumulator.verify_telescoping().unwrap_or_else(|e| panic!("{context}: {e}"));
        let streamed = accumulator.result().expect("reconstruction");

        // The reference: a local timeline run of the demo app on a fresh
        // machine with the identical configuration.
        let local = local_run(preset, cpus, group);

        assert_eq!(
            Ascii.render(&streamed.report()),
            Ascii.render(&local.report()),
            "{context}: streamed reconstruction diverges from the post-mortem report"
        );
        assert_eq!(streamed.aggregate, local.aggregate, "{context}: raw aggregates");
        assert_eq!(streamed.extrapolated, local.extrapolated, "{context}: extrapolated");
        assert_eq!(streamed.intervals.len(), local.intervals.len(), "{context}: intervals");
        for (s, l) in streamed.intervals.iter().zip(&local.intervals) {
            assert_eq!(s.counts, l.counts, "{context}: interval counts");
            assert!(
                s.t_start_s == l.t_start_s && s.t_end_s == l.t_end_s,
                "{context}: interval boundaries diverge"
            );
        }
        // The client-derived series, bit for bit, not only as rendered.
        assert_eq!(streamed.timeseries.len(), local.timeseries.len(), "{context}: groups");
        for (s, l) in streamed.timeseries.iter().zip(&local.timeseries) {
            let stamps = |ts: &TimeSeries| ts.timestamps.iter().map(|t| t.to_bits()).collect();
            let (s_stamps, l_stamps): (Vec<u64>, Vec<u64>) = (stamps(s), stamps(l));
            assert_eq!(s_stamps, l_stamps, "{context}: timestamps");
            assert_eq!(series_bits(s), series_bits(l), "{context}: series values");
        }
    }
}

#[test]
fn every_live_row_carries_the_post_mortem_values_of_its_interval() {
    for (preset, cpus, group) in [
        (MachinePreset::WestmereEp2S, "0,1,2", "FLOPS_DP,MEM,L3"),
        (MachinePreset::NehalemEp2S, "0,4", "INSTR_RETIRED_ANY:FIXC0,CPU_CLK_UNHALTED_CORE:FIXC1"),
    ] {
        let context = format!("{} cpus={cpus} -g {group}", preset.id());
        let accumulator = stream_via_wire(preset, &request(cpus, group, "2ms", "10ms"));
        let opened = accumulator.opened();
        let metrics = opened.metric_evaluator().expect("evaluator of the opened frame");
        let local = local_run(preset, cpus, group);

        // A row spans every group's columns in group order; the frame's
        // group fills its own span with the interval's value of each
        // series, in series order, and leaves the rest empty.
        let widths: Vec<usize> = local.timeseries.iter().map(|ts| ts.series.len()).collect();
        let mut seen = vec![0; widths.len()];
        for frame in accumulator.intervals() {
            let row = stream_row(opened, &metrics, frame).expect("a well-formed frame");
            assert_eq!(row.t.to_bits(), frame.t_end_s.to_bits(), "{context}");
            assert_eq!(row.values.len(), widths.iter().sum::<usize>(), "{context}");
            let g = frame.group;
            let offset: usize = widths[..g].iter().sum();
            let at = seen[g];
            seen[g] += 1;
            for (column, value) in row.values.iter().enumerate() {
                let expected = match column.checked_sub(offset) {
                    Some(i) if i < widths[g] => Some(local.timeseries[g].series[i].values[at]),
                    _ => None,
                };
                assert_eq!(
                    value.map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "{context}: interval {} column {column}",
                    frame.index
                );
            }
        }
        let rows: Vec<usize> = local.timeseries.iter().map(|ts| ts.timestamps.len()).collect();
        assert_eq!(seen, rows, "{context}: one row per interval of each group");
    }
}

#[test]
fn via_daemon_matches_a_local_experiment_run_bit_identically() {
    let preset = MachinePreset::WestmereEp2S;
    let kernel = kernel_by_name("triad", 2 << 20, 1).expect("registered kernel");
    let spec_machine = SimMachine::new(preset);
    let spec_engine = EventEngine::new(&spec_machine);
    let spec = parse_measurement_spec("FLOPS_DP,MEM", spec_engine.table()).expect("spec");
    let experiment = |dt: f64| {
        Experiment::on(preset)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .counters(spec.clone())
            .timeline(dt)
    };

    // Probe the kernel's runtime to pick an interval yielding ~7 slices.
    let probe = Experiment::on(preset)
        .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
        .run(kernel.as_ref())
        .expect("probe");
    let dt = probe.first().runtime_s / 7.0;

    let local = experiment(dt).run(kernel.as_ref()).expect("local run");
    let machine = SimMachine::new(preset);
    let daemon = Daemon::new(&machine);
    let served = experiment(dt).via_daemon(kernel.as_ref(), &daemon).expect("daemon run");
    assert!(daemon.is_quiescent(), "via_daemon releases its session");

    let local_timeline = local.timeline.as_ref().expect("local timeline");
    let served_timeline = served.timeline.as_ref().expect("served timeline");
    assert_eq!(
        Ascii.render(&served_timeline.report()),
        Ascii.render(&local_timeline.report()),
        "via_daemon must reproduce the local timeline report byte-for-byte"
    );
    assert_eq!(served_timeline.aggregate, local_timeline.aggregate);
    assert_eq!(served_timeline.extrapolated, local_timeline.extrapolated);
    assert_eq!(served.measured_cpus, local.measured_cpus);
    // The unmeasured workload runs are unaffected by who served the
    // counters.
    assert_eq!(served.first().runtime_s, local.first().runtime_s);
}
