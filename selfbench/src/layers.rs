//! Per-layer probes of the traced run.
//!
//! Every probe times calls into one layer's public functions from the
//! outside; nothing is added to the program. The suite's own trace
//! recorder is on while the probes run, so its existing spans (session
//! set-up, epoch replay, daemon interval windows and ticket waits, fleet
//! points) are recorded as well; the contended-ticket spans give
//! `daemon.turn_wait_us`. The probes are the same on every workload, so
//! each traced run reports every per-layer metric.
//!
//! What each metric should move (end-to-end metric, workload):
//!
//! * `cache_sim.*` counts: nothing; they are identical on every build that
//!   only changes speed. `cache_sim.host_ns_per_access`: `wall_s` and
//!   `op_p50_ms` on `fleet_sweep`, nothing on `daemon_sessions`.
//! * `cache_sim.shard.*`: nothing today, sharding is off the default path.
//! * `workloads.*`: the Table II measurement (see [`crate::table2`]); the
//!   gap between `workloads.experiment_run_ms` and
//!   `workloads.workload_run_ms` is the cost of the measured path.
//! * `perfctr.*`: `op_p50_ms` on `fleet_sweep` (one session per point) and
//!   on `daemon_sessions`; `marker.region_ns` and
//!   `papi_compat.start_stop_ns` are the paper's Table 1 pair.
//! * `perf_events.engine_apply_us`, `x86_machine.msr_access_ns`: the floor
//!   under every `perfctr` number; `op_p50_ms` on `daemon_sessions`.
//! * `daemon.*`: `op_p50_ms` and `ops_per_s` on `daemon_sessions`
//!   (interval, protocol, client); `op_tail_ms` (admission and turn waits).
//! * `fleet.*`: `wall_s` on `fleet_sweep` (steals, imbalance); the memo
//!   numbers move re-run cost and must not touch the cold metrics.

use std::hint::black_box;
use std::time::Instant;

use likwid::perfctr::timeline::{demo_slice, run_demo_timeline};
use likwid::perfctr::{EventGroupKind, MeasurementSpec, PerfCtr, PerfCtrConfig};
use likwid::report::{Ascii, Body, Json, Render, Report, Value};
use likwid::trace;
use likwid_cache_sim::{
    HierarchyConfig, NodeCacheSystem, NodeStats, NumaPolicy, ShardedCacheSystem,
};
use likwid_daemon::{ActivitySource, Daemon, Frame, StreamAccumulator};
use likwid_fleet::{fleet_report, Trajectory};
use likwid_perf_events::EventEngine;
use likwid_workloads::jacobi::{Jacobi, JacobiConfig, JacobiVariant};
use likwid_x86_machine::{MachinePreset, Msr, MsrPermission, SimMachine};

use crate::daemon_sessions::{self as daemon, Kind};
use crate::fleet_sweep;
use crate::harness::{median_of, per_call, timed, tree_bytes, Metric, Outcome, SplitMix};
use crate::stats;
use crate::table2;

const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
const SIZE: usize = 128;
/// Two threads on each socket, so the sharded engine has two LLC domains
/// to replay in parallel.
const REPLAY_PIN: [usize; 4] = [0, 1, 4, 5];
const SOCKET0: [usize; 4] = [0, 1, 2, 3];

/// Run every probe with the trace recorder on; the metrics are appended to
/// `out`, failed gates recorded there.
pub fn probe(out: &mut Outcome) -> Result<(), String> {
    trace::start();
    let mut metrics = Vec::new();
    let result = (|| {
        simulator(&mut metrics, out);
        table2::probe(&mut metrics, out)?;
        counters(&mut metrics);
        daemon_layers(&mut metrics, out)?;
        fleet(&mut metrics, out)?;
        report(&mut metrics, out);
        Ok::<(), String>(())
    })();
    let events = trace::stop();
    result?;
    metrics.push(turn_wait(&events));
    out.metrics.extend(metrics);
    Ok(())
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn us(s: f64) -> f64 {
    s * 1e6
}

fn ns(s: f64) -> f64 {
    s * 1e9
}

/// `cache_sim` and `workloads`: the threaded Jacobi replay queue through
/// the sequential engine and the sharded one at 1 and 2 workers, plus a
/// direct counter-less workload run.
fn simulator(metrics: &mut Vec<Metric>, out: &mut Outcome) {
    let machine = SimMachine::new(PRESET);
    let config = JacobiConfig {
        size: SIZE,
        time_steps: 4,
        placement: REPLAY_PIN.to_vec(),
        variant: JacobiVariant::Threaded,
    };
    let (queue, build_s) = median_of(3, || Jacobi::new(&machine).threaded_replay_queue(&config));
    let hierarchy = HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
    let sequential = || {
        let mut sys = NodeCacheSystem::new(hierarchy.clone());
        sys.replay(&queue);
        sys.stats()
    };
    let sharded = |workers: usize| {
        let mut sys = ShardedCacheSystem::with_workers(hierarchy.clone(), workers);
        sys.replay(&queue);
        sys.stats()
    };
    // Interleave the engines so drift on the host hits all three alike.
    let (mut seq, mut w1, mut w2) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = NodeStats::default();
    for rep in 0..3 {
        let (stats, wall) = timed(sequential);
        seq.push(wall);
        if rep == 0 {
            reference = stats;
        }
        for (workers, walls) in [(1, &mut w1), (2, &mut w2)] {
            let (stats, wall) = timed(|| sharded(workers));
            walls.push(wall);
            out.gate(stats == reference, || {
                format!("sharded replay at {workers} worker(s) differs from the sequential one")
            });
        }
    }
    let median = |walls: &[f64]| stats::median(walls).expect("three reps");
    let (replay_s, w1_s, w2_s) = (median(&seq), median(&w1), median(&w2));
    let accesses = reference.level_total(1).accesses;
    let l3 = reference.level_total(3);
    let queue_note = format!("threaded Jacobi N={SIZE} on cpus {REPLAY_PIN:?}");
    metrics.extend([
        Metric::new("cache_sim.accesses", accesses as f64, "count").note(queue_note.clone()),
        Metric::new("cache_sim.mem_bytes", reference.total_memory_bytes() as f64, "bytes"),
        Metric::new("cache_sim.l3_lines_in", l3.lines_in as f64, "count"),
        Metric::new("cache_sim.l3_lines_out", l3.lines_out as f64, "count"),
        Metric::new("cache_sim.host_ns_per_access", ns(replay_s) / accesses.max(1) as f64, "ns"),
        Metric::new("cache_sim.replay_s", replay_s, "s").note(queue_note),
        Metric::new("cache_sim.shard.replay_s.w1", w1_s, "s"),
        Metric::new("cache_sim.shard.replay_s.w2", w2_s, "s"),
        Metric::new("cache_sim.shard.speedup_w2", replay_s / w2_s, "ratio")
            .note("sequential replay over 2-worker sharded replay"),
        Metric::new("workloads.queue_build_s", build_s, "s"),
    ]);
}

fn mem_config(cpus: &[usize]) -> PerfCtrConfig {
    PerfCtrConfig { cpus: cpus.to_vec(), spec: MeasurementSpec::Group(EventGroupKind::MEM) }
}

/// `perfctr`, `marker`, `papi_compat`, `perf_events` and `x86_machine`.
fn counters(metrics: &mut Vec<Metric>) {
    let machine = SimMachine::new(PRESET);
    let session_new = per_call(7, 100, || {
        black_box(PerfCtr::new(&machine, mem_config(&SOCKET0)).expect("MEM session"));
    });
    let mut session = PerfCtr::new(&machine, mem_config(&SOCKET0)).expect("MEM session");
    let start_stop_read = per_call(7, 200, || {
        session.start().expect("start");
        session.stop().expect("stop");
        black_box(session.read_counts().expect("read"));
    });

    let (intervals, timeline_s) = median_of(3, || {
        run_demo_timeline(&machine, mem_config(&SOCKET0), 1e-4, 0.1)
            .expect("demo timeline")
            .intervals
            .len()
    });

    let pairs: Vec<(f64, f64)> = (0..5).map(|_| likwid_bench::api_overhead_ns(20_000)).collect();
    let marker_ns = stats::median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()).expect("5");
    let papi_ns = stats::median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>()).expect("5");

    session.start().expect("start");
    let engine = EventEngine::new(&machine);
    let sample = demo_slice(&machine, &SOCKET0, 0.0, 1e-4);
    let apply = per_call(7, 500, || engine.apply(&machine, black_box(&sample)));
    session.stop().expect("stop");

    let device = machine.msr(0, MsrPermission::ReadWrite).expect("msr device of cpu 0");
    let msr_pair = per_call(7, 10_000, || {
        let value = device.read(Msr::IA32_MISC_ENABLE).expect("rdmsr");
        device.write(Msr::IA32_MISC_ENABLE, black_box(value)).expect("wrmsr");
    });

    metrics.extend([
        Metric::new("perfctr.session_new_us", us(session_new), "us")
            .note("PerfCtr::new, MEM, 4 cpus"),
        Metric::new("perfctr.start_stop_read_us", us(start_stop_read), "us"),
        Metric::new("perfctr.timeline_interval_us", us(timeline_s) / intervals as f64, "us")
            .note("run_demo_timeline, MEM, 100 us intervals"),
        Metric::new("marker.region_ns", marker_ns, "ns").note("api_overhead_ns"),
        Metric::new("papi_compat.start_stop_ns", papi_ns, "ns").note("api_overhead_ns"),
        Metric::new("perf_events.engine_apply_us", us(apply), "us"),
        Metric::new("x86_machine.msr_access_ns", ns(msr_pair) / 2.0, "ns")
            .note("rdmsr + wrmsr of IA32_MISC_ENABLE, per access"),
    ]);
}

/// `daemon`: one in-process session, its frames through the codec and the
/// client's reconstruction, then the session mix of `daemon_sessions` on
/// two threads against one in-process broker with short sessions.
fn daemon_layers(metrics: &mut Vec<Metric>, out: &mut Outcome) -> Result<(), String> {
    let machine = SimMachine::new(daemon::PRESET);
    let broker = Daemon::new(&machine);
    let config = broker
        .validate(&daemon::request(daemon::A_MEM, "100us", "100ms"))
        .map_err(|e| format!("validate: {e}"))?;
    // Open plus every interval is timed; the finish is paid once per
    // session, not per frame.
    let started = Instant::now();
    let mut handle =
        broker.open_session(config, ActivitySource::Demo).map_err(|e| e.to_string())?;
    let mut frames = Vec::new();
    while let Some(frame) = handle.next_interval().map_err(|e| e.to_string())? {
        frames.push(frame);
    }
    let interval_us = us(started.elapsed().as_secs_f64()) / frames.len().max(1) as f64;
    let opened = handle.opened().clone();
    let (done, _) = handle.finish().map_err(|e| e.to_string())?;

    let wire: Vec<Frame> = frames.iter().cloned().map(Frame::Interval).collect();
    let (lines, encode_s) = timed(|| wire.iter().map(Frame::to_line).collect::<Vec<_>>());
    let (decoded, decode_s) =
        timed(|| lines.iter().map(|line| Frame::from_line(line)).collect::<Result<Vec<_>, _>>());
    out.gate(decoded.as_ref().is_ok_and(|d| *d == wire), || {
        "interval frames do not survive the codec".into()
    });

    let mut stream = StreamAccumulator::new(opened);
    for frame in frames {
        stream.push(frame).map_err(|e| e.to_string())?;
    }
    stream.complete(done).map_err(|e| e.to_string())?;
    let verify_s = per_call(5, 1, || {
        stream.verify_telescoping().expect("telescoping");
        black_box(stream.result().expect("rebuild"));
    });

    let mix = session_mix(&machine)?;
    metrics.extend([
        Metric::new("daemon.interval_in_process_us", interval_us, "us")
            .note("Daemon::open_session + next_interval, MEM, 1000 intervals"),
        Metric::new("daemon.protocol.encode_ns", ns(encode_s) / wire.len() as f64, "ns"),
        Metric::new("daemon.protocol.decode_ns", ns(decode_s) / wire.len() as f64, "ns"),
        Metric::new("daemon.client.verify_ms", ms(verify_s), "ms")
            .note("verify_telescoping + result, 1000 intervals"),
    ]);
    metrics.extend(mix);
    Ok(())
}

/// Rounds of the `daemon_sessions` mix, with 10 ms sessions, from two
/// threads against one in-process broker. Times each admission.
fn session_mix(machine: &SimMachine) -> Result<Vec<Metric>, String> {
    const ROUNDS: usize = 20;
    let broker = Daemon::new(machine);
    let client = |kinds: Vec<Kind>| -> Result<Vec<f64>, String> {
        let mut waits = Vec::new();
        for kind in kinds {
            let config = broker
                .validate(&daemon::request(kind, "100us", "10ms"))
                .map_err(|e| e.to_string())?;
            let (handle, wait) = timed(|| broker.open_session(config, ActivitySource::Demo));
            let mut handle = handle.map_err(|e| e.to_string())?;
            waits.push(wait);
            while handle.next_interval().map_err(|e| e.to_string())?.is_some() {}
            handle.finish().map_err(|e| e.to_string())?;
        }
        // Scoped threads end before their trace buffers' exit-time flush.
        trace::flush_thread();
        Ok(waits)
    };
    let a_kinds: Vec<Kind> = (0..ROUNDS).flat_map(|_| daemon::A_ROUND).collect();
    let mut rng = SplitMix::new(0, 7);
    let b_kinds: Vec<Kind> = (0..ROUNDS)
        .flat_map(|_| {
            let mut order = daemon::B_ROUND;
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let sessions = a_kinds.len() + b_kinds.len();
    let ((a, b), wall) = timed(|| {
        std::thread::scope(|scope| {
            let a = scope.spawn(|| client(a_kinds));
            let b = scope.spawn(|| client(b_kinds));
            (a.join(), b.join())
        })
    });
    let mut waits = a.map_err(|_| "probe client A panicked")??;
    waits.extend(b.map_err(|_| "probe client B panicked")??);
    let n = waits.len();
    let tail_p = stats::tail_percentile(n).ok_or("too few admissions for a tail")?;
    let broker_stats = broker.stats();
    Ok(vec![
        Metric::new(
            "daemon.admission_wait_ms.p50",
            ms(stats::percentile(&waits, 50.0).expect("n > 0")),
            "ms",
        )
        .note(format!("p50 of {n} admissions")),
        Metric::new(
            "daemon.admission_wait_ms.tail",
            ms(stats::percentile(&waits, tail_p).expect("n > 0")),
            "ms",
        )
        .note(format!("p{tail_p} of {n} admissions")),
        Metric::new("daemon.broker.peak_live", broker_stats.peak_live as f64, "count"),
        Metric::new("daemon.broker.aborted", broker_stats.aborted as f64, "count"),
        Metric::new("daemon.sessions_per_s", sessions as f64 / wall, "1/s")
            .note(format!("{sessions} sessions of 100 intervals, 2 threads")),
    ])
}

/// `daemon.turn_wait_us`: mean duration of the broker's contended-ticket
/// spans, from the recorder's own rollup.
fn turn_wait(events: &[trace::TraceEvent]) -> Metric {
    let summary = trace::summary_report(events);
    let rows = match summary.section("trace.spans").map(|section| &section.body) {
        Some(Body::Table(table)) => table.rows.as_slice(),
        _ => &[],
    };
    let (count, total_us) = rows
        .iter()
        .find_map(|row| match row.values.as_slice() {
            [Value::Str(name), Value::Count(count), Value::Real(total_us)]
                if name == "daemon.ticket.wait" =>
            {
                Some((*count, *total_us))
            }
            _ => None,
        })
        .unwrap_or((0, 0.0));
    let mean = if count == 0 { 0.0 } else { total_us / count as f64 };
    Metric::new("daemon.turn_wait_us", mean, "us")
        .note(format!("mean of {count} contended ticket waits"))
}

/// `fleet`: expansion, scheduler balance, the memo store and rendering,
/// around one cold and one warm sweep of the `fleet_sweep` spec.
fn fleet(metrics: &mut Vec<Metric>, out: &mut Outcome) -> Result<(), String> {
    let spec = fleet_sweep::sweep(0);
    let (expanded, expand_s) = median_of(5, || spec.expand());
    expanded.map_err(|e| format!("expand: {e}"))?;
    let (dir, store) = fleet_sweep::fresh_store()?;
    let cold = fleet_sweep::sweep_into(&spec, &store)?;
    let (_, warm_s, hit_ratio) = fleet_sweep::check_warm(&spec, &store, &cold, out)?;
    let workers = &cold.stats.per_worker;
    let mean = workers.iter().sum::<usize>() as f64 / workers.len().max(1) as f64;
    let imbalance = workers.iter().copied().max().unwrap_or(0) as f64 / mean;
    let (_, render_s) = median_of(5, || Ascii.render(&fleet_report(&spec, &cold)));
    let (_, encode_s) = median_of(5, || Trajectory::from_outcome(&cold).encode());
    metrics.extend([
        Metric::new("fleet.expand_ms", ms(expand_s), "ms"),
        Metric::new("fleet.steals", cold.stats.steals as f64, "count"),
        Metric::new("fleet.worker_imbalance", imbalance, "ratio")
            .note(format!("max over mean of points per worker {workers:?}")),
        Metric::new("fleet.memo.warm_sweep_ms", ms(warm_s), "ms"),
        Metric::new("fleet.memo.hit_ratio", hit_ratio, "ratio"),
        Metric::new("fleet.memo.store_bytes", tree_bytes(dir.path()) as f64, "bytes"),
        Metric::new("fleet.report_render_ms", ms(render_s), "ms"),
        Metric::new("fleet.trajectory_encode_ms", ms(encode_s), "ms"),
    ]);
    Ok(())
}

/// `report`: the typed Table II report through its JSON rendering and back.
fn report(metrics: &mut Vec<Metric>, out: &mut Outcome) {
    let table2 = likwid_bench::table2_report(48, 4);
    let mut back = None;
    let roundtrip = per_call(7, 20, || {
        back = Some(Report::from_json(&Json.render(&table2)));
    });
    out.gate(back == Some(Ok(table2)), || "the Table II report does not survive JSON".into());
    metrics.push(Metric::new("report.json_roundtrip_us", us(roundtrip), "us"));
}
