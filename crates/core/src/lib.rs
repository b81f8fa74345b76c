//! The LIKWID tool suite.
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! four command-line tools and the marker API, implemented on top of the
//! simulated machine substrate.
//!
//! * [`topology`] — `likwid-topology`: probes the hardware thread and cache
//!   topology of a node by decoding `cpuid`, and renders it as text and
//!   ASCII art.
//! * [`perfctr`] — `likwid-perfCtr`: programs hardware performance counters
//!   through MSRs, offers preconfigured event groups with derived metrics,
//!   wrapper/marker/multiplexing measurement modes and socket locks for
//!   uncore events.
//! * [`marker`] — the user-code marker API (`likwid_markerInit`,
//!   `likwid_markerStartRegion`, …) for restricting measurements to named
//!   code regions with automatic accumulation.
//! * [`pin`] — `likwid-pin`: thread-core affinity "from the outside" via the
//!   `pthread_create` interception model of the `likwid-affinity` crate.
//! * [`features`] — `likwid-features`: reporting and toggling of hardware
//!   prefetchers and other switchable processor features.
//! * [`report`] — the typed report document model every tool produces, and
//!   the ASCII/CSV/JSON renderers behind the [`report::Render`] trait.
//! * [`json`] — the one lossless JSON codec behind reports, NDJSON frames,
//!   memo entries, trajectories and Chrome traces (64-bit counts and
//!   `f64` bits stay exact).
//! * [`output`] — the low-level ASCII table/box rendering primitives.
//! * [`args`] — the declarative [`args::ArgSpec`] command-line parser shared
//!   by every binary (including the common `-O`/`-o` output switches).
//! * [`cli`] — the four tool front ends on top of [`args`] and [`report`].
//! * [`trace`] — the process-wide self-observability recorder: spans and
//!   counters across the suite's concurrent subsystems, exported as Chrome
//!   trace-event JSON or folded flamegraph stacks via `--trace <file>`.

pub mod args;
pub mod cli;
pub mod error;
pub mod features;
pub mod json;
pub mod marker;
pub mod output;
pub mod perfctr;
pub mod pin;
pub mod report;
pub mod topology;
pub mod trace;

pub use args::{ArgSpec, ParsedArgs};
pub use error::{LikwidError, Result};
pub use features::FeaturesTool;
pub use marker::MarkerApi;
pub use perfctr::{
    Diagnostic, EventGroupKind, HealingStats, PerfCtr, PerfCtrConfig, PerfCtrResults,
};
pub use pin::{PinConfig, PinTool};
pub use report::{Ascii, Csv, Json, OutputFormat, Render, Report};
pub use topology::CpuTopology;
