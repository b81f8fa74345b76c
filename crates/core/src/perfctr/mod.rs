//! `likwid-perfCtr`: hardware performance counter measurement.
//!
//! The tool has three measurement modes, all reproduced here:
//!
//! * **wrapper mode** — program the counters, start them, run the
//!   application, stop, read and report;
//! * **marker mode** — the application uses the marker API
//!   ([`crate::marker`]) to restrict measurement to named code regions;
//! * **multiplexing mode** — more event groups than counters are measured
//!   round-robin and extrapolated;
//! * **timeline mode** (`-t`) — the counter state is sampled at a fixed
//!   virtual-time interval, yielding per-interval deltas and derived
//!   metrics ([`timeline`]);
//! * **stethoscope mode** (`-S`) — a fixed measurement window over whatever
//!   is running, reported as one aggregate.
//!
//! Submodules: [`formula`] implements the derived-metric expression
//! language, [`groups`] the preconfigured event groups of the paper's
//! table, [`metrics`] the evaluation of their derived metrics over raw
//! counts, [`session`] the counter-programming session (including socket
//! locks for uncore events) and result rendering, and [`timeline`] the
//! time-resolved measurement subsystem.

pub mod formula;
pub mod groups;
pub mod metrics;
pub mod session;
pub mod timeline;

pub use formula::Formula;
pub use groups::{group_definition, supported_groups, EventGroupKind};
pub use metrics::MetricEvaluator;
pub use session::{
    multiplex_note, parse_event_spec, parse_measurement_spec, Diagnostic, GroupCounts,
    HealingStats, MeasurementSpec, PerfCtr, PerfCtrConfig, PerfCtrResults,
};
pub use timeline::{
    parse_interval, IntervalLog, LoggedInterval, TimelineInterval, TimelineResult, TimelineSession,
    TimelineTotals,
};
