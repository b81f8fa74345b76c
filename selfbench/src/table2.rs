//! The paper's Table II measurement as a per-layer probe and a correctness
//! gate.
//!
//! `Experiment::run` of the three Jacobi variants with the custom uncore
//! event set `UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1` on four
//! threads pinned to the first Nehalem EP socket, at N = 128 (the two grids
//! take 33.5 MB, four times the socket's 8 MB L3). Nearly all of its host
//! time is cache simulation, and on a host shared with other tenants that
//! time swings by a factor of two for minutes at a time, far beyond any
//! usable bound; so it runs in the traced run of every workload, where its
//! counts are pinned and its timings reported without a bound.

use likwid::perfctr::parse_measurement_spec;
use likwid_workloads::jacobi::{JacobiVariant, JacobiWorkload};
use likwid_workloads::openmp::PlacementPolicy;
use likwid_workloads::{Experiment, Placement, Workload};
use likwid_x86_machine::{MachinePreset, SimMachine};

use crate::harness::{timed, Metric, Outcome};

const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
const PIN: [usize; 4] = [0, 1, 2, 3];
const EVENTS: &str = "UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1";
const SIZE: usize = 128;
const TIME_STEPS: usize = 4;

/// The deterministic counts of one variant run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    /// `UNC_L3_LINES_IN_ANY` as read back through the counter session.
    l3_lines_in: u64,
    /// `UNC_L3_LINES_OUT_ANY` as read back through the counter session.
    l3_lines_out: u64,
    /// Bytes moved to and from memory, from the simulator.
    mem_bytes: u64,
    /// Demand accesses that reached L1, from the simulator.
    accesses: u64,
}

/// What every variant must count at N = 128, 4 sweeps. A change that only
/// makes the suite faster leaves these identical.
const EXPECTED: [(JacobiVariant, Counts); 3] = [
    (
        JacobiVariant::Threaded,
        Counts {
            l3_lines_in: 2_064_900,
            l3_lines_out: 1_933_828,
            mem_bytes: 193_069_056,
            accesses: 6_096_384,
        },
    ),
    (
        JacobiVariant::ThreadedNt,
        Counts {
            l3_lines_in: 1_048_332,
            l3_lines_out: 917_260,
            mem_bytes: 132_121_344,
            accesses: 5_080_320,
        },
    ),
    (
        JacobiVariant::Wavefront,
        Counts {
            l3_lines_in: 324_325,
            l3_lines_out: 195_045,
            mem_bytes: 39_696_768,
            accesses: 3_810_240,
        },
    ),
];

/// The byte-exact Table II report at N = 48.
const GOLDEN_48: &str = include_str!("../../tests/golden/table2_48.txt");

fn workload(variant: JacobiVariant) -> JacobiWorkload {
    JacobiWorkload { variant, size: SIZE, time_steps: TIME_STEPS }
}

/// One measured variant run.
fn measure(experiment: &Experiment, variant: JacobiVariant) -> Result<Counts, String> {
    let result = experiment.run(&workload(variant)).map_err(|e| e.to_string())?;
    let counters = result.counters.as_ref().ok_or("no counter results")?;
    let read = |event: &str| {
        counters.event_count(event, 0).ok_or_else(|| format!("{event} missing from the results"))
    };
    let stats = &result.first().stats;
    Ok(Counts {
        l3_lines_in: read("UNC_L3_LINES_IN_ANY")?,
        l3_lines_out: read("UNC_L3_LINES_OUT_ANY")?,
        mem_bytes: stats.total_memory_bytes(),
        accesses: stats.level_total(1).accesses,
    })
}

/// Run Table II at N = 48 against its golden file and at N = 128 against
/// the pinned counts, and time the threaded variant with and without the
/// counter path.
pub fn probe(metrics: &mut Vec<Metric>, out: &mut Outcome) -> Result<(), String> {
    out.gate(likwid_bench::table2_text(48, TIME_STEPS) == GOLDEN_48, || {
        "Table II at N = 48 differs from tests/golden/table2_48.txt".to_string()
    });

    let table = likwid_perf_events::tables::for_arch(PRESET.arch());
    let spec = parse_measurement_spec(EVENTS, &table).map_err(|e| format!("event spec: {e}"))?;
    let experiment =
        Experiment::on(PRESET).placement(PlacementPolicy::LikwidPin(PIN.to_vec())).counters(spec);
    let mut measured_s = 0.0;
    for (variant, want) in EXPECTED {
        let (counts, wall) = timed(|| measure(&experiment, variant));
        let counts = counts?;
        out.gate(counts == want, || {
            format!("{}: counted {counts:?}, expected {want:?}", variant.name())
        });
        if variant == JacobiVariant::Threaded {
            measured_s = wall;
        }
    }

    // The counters read through the tool path must equal the simulator's
    // own L3 statistics of a direct, counter-less run.
    let machine = SimMachine::new(PRESET);
    let placement = Placement::pinned(PIN.to_vec());
    let (direct, direct_s) = timed(|| workload(JacobiVariant::Threaded).run(&machine, &placement));
    let l3 = direct.stats.level_total(3);
    let want = EXPECTED[0].1;
    out.gate(l3.lines_in == want.l3_lines_in && l3.lines_out == want.l3_lines_out, || {
        format!(
            "direct simulation counts {}/{} L3 lines in/out, the counters {}/{}",
            l3.lines_in, l3.lines_out, want.l3_lines_in, want.l3_lines_out
        )
    });

    let note = format!("threaded Jacobi N={SIZE}, cpus {PIN:?}");
    metrics.extend([
        Metric::new("workloads.experiment_run_ms", measured_s * 1e3, "ms")
            .note(format!("Experiment::run with the Table II events, {note}")),
        Metric::new("workloads.workload_run_ms", direct_s * 1e3, "ms")
            .note(format!("Workload::run, no counters, {note}")),
        Metric::new(
            "workloads.sim_accesses_per_s",
            direct.stats.level_total(1).accesses as f64 / direct_s,
            "1/s",
        ),
    ]);
    Ok(())
}
