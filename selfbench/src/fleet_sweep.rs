//! `fleet_sweep`: many short experiments through the fleet runner.
//!
//! A cold `run_sweep` at two workers over kernels triad, copy, daxpy and
//! chase × presets nehalem-ep-2s and westmere-ep-2s × placements scatter
//! and unpinned × prefetchers on and off × 1, 2, 4 and 8 threads, with the
//! `MEM` group measured on every point: 128 points of 2 MB each, small
//! enough that per-point set-up and scheduling weigh next to simulation.
//! The seed is the sweep's base seed.
//!
//! A measured pass sets up the sweep and a fresh memo store (the timed
//! set-up), then runs one cold sweep into that store; its wall time is the
//! pass time. The latency of a single point is taken in a second cold pass
//! in which two threads hand the same points one by one to
//! `likwid_fleet::execute`, the function the scheduler runs per point.
//! Between the two, the sweep is replayed warm from the store and checked.
//!
//! The sweep is pure computation on both of a two-way host's cpus, and on
//! a host shared with other tenants its speed switches between a fast and
//! a slow state for seconds at a time. A slow state only adds time, so the
//! pass time is the fastest pass, and each point's latency is its fastest
//! of all passes; the median and tail are taken over those per-point
//! latencies.

use likwid::report::{Ascii, Render};
use likwid_fleet::{
    execute, fleet_report, run_sweep, ExperimentPoint, MemoStore, PlacementAxis, PrefetcherState,
    RunOptions, SeedRule, SweepOutcome, SweepSpec, ThreadsAxis, WorkloadSpec,
};
use likwid_x86_machine::MachinePreset;

use crate::harness::{self, timed, Args, Outcome, ScratchDir, Timings};
use crate::heap;
use crate::layers;

/// Scheduler workers, and threads of the per-point latency pass.
pub const WORKERS: usize = 2;
const KERNELS: [&str; 4] = ["triad", "copy", "daxpy", "chase"];
const WORKING_SET: u64 = 2 << 20;

/// The benchmark's sweep for a base seed.
pub fn sweep(seed: u64) -> SweepSpec {
    let kernel = |name: &str| WorkloadSpec::Kernel {
        name: name.to_string(),
        working_set_bytes: WORKING_SET,
        passes: 1,
    };
    let mut spec = SweepSpec::new(kernel(KERNELS[0]), MachinePreset::NehalemEp2S);
    spec.workloads = KERNELS.iter().map(|name| kernel(name)).collect();
    spec.presets = vec![MachinePreset::NehalemEp2S, MachinePreset::WestmereEp2S];
    spec.placements = vec![PlacementAxis::Scatter, PlacementAxis::Unpinned];
    spec.prefetchers = vec![PrefetcherState::Enabled, PrefetcherState::Disabled];
    spec.threads = ThreadsAxis::Counts(vec![1, 2, 4, 8]);
    spec.seed = SeedRule::XorThreads(seed);
    spec.counters = Some("MEM".to_string());
    spec
}

/// A memo store in a fresh scratch directory (the directory goes with the
/// returned guard).
pub fn fresh_store() -> Result<(ScratchDir, MemoStore), String> {
    let dir = ScratchDir::new("memo")?;
    let store = MemoStore::open(dir.path(), None);
    Ok((dir, store))
}

/// One sweep into `store` at [`WORKERS`] workers.
pub fn sweep_into(spec: &SweepSpec, store: &MemoStore) -> Result<SweepOutcome, String> {
    run_sweep(spec, &RunOptions { workers: WORKERS, memo: Some(store), daemons: &[] })
        .map_err(|e| format!("sweep: {e}"))
}

/// What a cold sweep needs before its first point can run.
struct SetUp {
    spec: SweepSpec,
    points: Vec<ExperimentPoint>,
    store: MemoStore,
    /// Holds the store's directory until the pass is done.
    _dir: ScratchDir,
}

/// Build and expand the sweep and open a fresh memo store, timed; the wall
/// time is appended to `walls`.
fn set_up(seed: u64, walls: &mut Vec<f64>) -> Result<SetUp, String> {
    let (made, wall) = timed(|| {
        let spec = sweep(seed);
        let points = spec.expand().map_err(|e| format!("expand: {e}"))?;
        let (dir, store) = fresh_store()?;
        Ok::<_, String>(SetUp { spec, points, store, _dir: dir })
    });
    walls.push(wall);
    made
}

/// Count the outcomes of a sweep as operations.
fn tally(out: &mut Outcome, outcome: &SweepOutcome) {
    for (point, result) in &outcome.points {
        out.tally.record(result.is_ok());
        if let Err(e) = result {
            eprintln!("fleet_sweep: {} {}: {}", point.key(), e.status(), e.message());
        }
    }
}

/// Replay the sweep warm from the store it just filled: every point must
/// be a hit and the report must not change by a byte. Returns the warm
/// outcome, its wall time and its hit ratio.
pub fn check_warm(
    spec: &SweepSpec,
    store: &MemoStore,
    cold: &SweepOutcome,
    out: &mut Outcome,
) -> Result<(SweepOutcome, f64, f64), String> {
    let (warm, wall) = timed(|| sweep_into(spec, store));
    let warm = warm?;
    let hits = warm.stats.memo_hits as f64 / warm.stats.total.max(1) as f64;
    out.gate(hits == 1.0, || format!("warm sweep hit ratio {hits}, expected 1"));
    let (cold_text, warm_text) =
        (Ascii.render(&fleet_report(spec, cold)), Ascii.render(&fleet_report(spec, &warm)));
    out.gate(cold_text == warm_text, || "the warm sweep report differs from the cold one".into());
    Ok((warm, wall, hits))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    // Set-up alone, repeated for a steady median; every pass below sets up
    // once more.
    for _ in 1..harness::SETUP_REPS {
        set_up(args.seed, &mut t.setup_s)?;
    }
    // Warm-up: one cold sweep, discarded.
    let warm_up = set_up(args.seed, &mut t.setup_s)?;
    sweep_into(&warm_up.spec, &warm_up.store)?;
    t.peak_heap_mb = heap::final_peak_mb();

    if args.trace {
        let spec = &warm_up.spec;
        let overhead = harness::trace_overhead(args.seconds / 2.0, || {
            let (_dir, store) = fresh_store()?;
            let (cold, wall) = timed(|| sweep_into(spec, &store));
            tally(&mut out, &cold?);
            Ok(wall)
        })?;
        out.metrics = overhead;
        layers::probe(&mut out)?;
        return Ok(out);
    }

    let mut fastest = vec![f64::INFINITY; warm_up.points.len()];
    t.pass_s = harness::pass_loop(args.seconds, 3, || {
        let SetUp { spec, points, store, _dir } = set_up(args.seed, &mut t.setup_s)?;
        let (cold, wall) = timed(|| sweep_into(&spec, &store));
        let cold = cold?;
        tally(&mut out, &cold);
        t.ops += cold.points.len() as u64;
        check_warm(&spec, &store, &cold, &mut out)?;
        let direct = harness::on_threads(WORKERS, &points, |point| execute(point, &[]));
        for (((point, swept), (direct, latency)), best) in
            cold.points.iter().zip(direct).zip(&mut fastest)
        {
            if direct.is_ok() {
                *best = best.min(latency);
            }
            out.gate(*swept == direct, || {
                format!("{}: the sweep and a direct execution disagree", point.key())
            });
        }
        Ok(wall)
    })?;
    t.fastest_pass = true;
    t.op_latency_s = fastest.into_iter().filter(|s| s.is_finite()).collect();
    t.min_ops = warm_up.points.len();
    t.latency_sample = format!("points, each its fastest of {} passes", t.pass_s.len());
    out.metrics = harness::end_to_end(&t)?;
    Ok(out)
}
