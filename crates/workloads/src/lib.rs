//! Evaluation workloads of the paper, behind one pluggable harness.
//!
//! Section IV of the paper demonstrates the tool suite on two codes:
//!
//! * the **OpenMP STREAM triad** (Figures 4–10): bandwidth as a function of
//!   thread count, compiler (icc vs. gcc), machine (Westmere EP vs. AMD
//!   Istanbul) and — most importantly — of whether and how the threads are
//!   pinned;
//! * a **temporally blocked 3D Jacobi smoother** (Figure 11 and Table II):
//!   a cache-topology-aware wavefront code whose performance collapses with
//!   the wrong thread placement, measured with `likwid-perfCtr` uncore
//!   events.
//!
//! # The `Workload`/`Experiment` contract
//!
//! Every workload — the paper's two case studies and the microbenchmark
//! kernels of the `likwid-bench` tool alike — implements the
//! [`workload::Workload`] trait:
//!
//! * **metadata** — `name()`, `flops_per_iteration()`,
//!   `bytes_per_iteration()` (modelled memory traffic *including* the
//!   write-allocate stream of regular stores) and `working_set_bytes()`;
//! * **execution** — `run(machine, placement)` drives the kernel's access
//!   streams (through the cache simulator, or an equivalent analytic
//!   model) for a given thread [`workload::Placement`] and returns a
//!   [`workload::WorkloadRun`]: iterations, modelled runtime, bandwidth,
//!   MFlops/s, plus the raw [`likwid_cache_sim::NodeStats`] and
//!   [`exec::ExecutionProfile`] that feed the counting engine.
//!
//! The [`experiment::Experiment`] builder composes everything *around* a
//! workload: machine preset × [`openmp::PlacementPolicy`] × sample count ×
//! optional perf-counter group. Running an experiment resolves the
//! placement per sample (per-sample RNG streams, so sample `i` is stable
//! whatever the total count), executes the workload, and — when counters
//! are configured — measures the run through the genuine tool path:
//! `likwid-perfctr` session programming, a marker-API region around the
//! run, event crediting via the counting engine, and a typed
//! [`likwid::PerfCtrResults`] read back. The figure generators and the
//! `likwid-bench` microbenchmark binary are thin layers over this harness;
//! new scenarios plug in by implementing the trait, not by wiring bespoke
//! run paths.
//!
//! Modules: an OpenMP-runtime model with compiler personalities
//! ([`openmp`]), a bandwidth/roofline performance model ([`perfmodel`]),
//! the STREAM triad workload ([`stream`]), the three Jacobi
//! variants driven through the cache simulator ([`jacobi`]), the
//! registered microbenchmark kernels ([`kernels`]), the harness itself
//! ([`workload`], [`experiment`]), and the glue that turns simulated runs
//! into hardware-event samples for `likwid-perfctr` ([`exec`]).

pub mod coherence;
pub mod exec;
pub mod experiment;
pub mod jacobi;
pub mod kernels;
pub mod openmp;
pub mod perfmodel;
pub mod stats;
pub mod stream;
pub mod workload;

pub use coherence::StoreCoherence;
pub use exec::{ExecutionProfile, ProgressTick, ProgressTrace};
pub use experiment::{Experiment, ExperimentResult};
pub use jacobi::{JacobiConfig, JacobiResult, JacobiVariant, JacobiWorkload};
pub use kernels::{kernel_by_name, kernel_names, parse_size, StreamingKernel};
pub use openmp::{CompilerPersonality, KmpAffinity, PlacementPolicy};
pub use perfmodel::BandwidthModel;
pub use stats::BoxStats;
pub use stream::StreamTriad;
pub use workload::{Placement, Workload, WorkloadRun};
