//! The experiment fleet runner: declarative matrix sweeps over the
//! [`likwid_workloads::Experiment`] harness.
//!
//! The paper's results are a matrix — {kernels × machines × pinnings ×
//! prefetcher states} — but an `Experiment` measures one point at a time.
//! This crate runs the whole matrix:
//!
//! * [`spec`] — the declarative [`SweepSpec`]: axes over workload, machine
//!   preset, compiler personality, placement, prefetcher state and thread
//!   count, expanded by cartesian product (with per-axis filters) into
//!   [`ExperimentPoint`]s;
//! * [`point`] — executing one point in isolation: panics and fault-plan
//!   failures degrade that point to a typed [`PointError`], never the
//!   sweep;
//! * [`sched`] — the work-stealing scheduler running points in parallel
//!   over a std-thread pool, optionally routing timeline points through a
//!   shared [`likwid_daemon::Daemon`];
//! * [`memo`] — the content-addressed on-disk memo store: results keyed by
//!   a canonical digest of the full point spec plus a code-epoch tag, so
//!   identical replays are pure and a re-run sweep only executes new
//!   points (cache hit ≡ cache miss, bit-identically);
//! * [`report`] — the cross-point comparison [`likwid::Report`]: per-axis
//!   pivot tables and best/worst deltas, fully deterministic (byte-equal
//!   between cold and warm runs, whatever the worker count);
//! * [`trajectory`] — the machine-readable `BENCH_fleet.json` trajectory
//!   and the regression `compare` between two trajectory files, with a
//!   relative-spread-aware threshold;
//! * [`cli`] — the `likwid-fleet` binary (`run` / `compare` / `ls`).

pub mod cli;
pub mod memo;
pub mod point;
pub mod report;
pub mod sched;
pub mod spec;
pub mod trajectory;

pub use memo::{MemoStore, CODE_EPOCH};
pub use point::{execute, PointError, PointResult};
pub use report::fleet_report;
pub use sched::{run_sweep, RunOptions, RunStats, SweepOutcome};
pub use spec::{
    ExperimentPoint, PlacementAxis, PointFilter, PrefetcherState, SeedRule, SweepSpec, ThreadsAxis,
    WorkloadSpec,
};
pub use trajectory::{compare, CompareConfig, CompareOutcome, Trajectory};
