//! `likwid-perfctrd`: measurement as a service.
//!
//! The paper's tools measure one run at a time; this crate turns the
//! simulated measurement stack into a long-running daemon that accepts many
//! concurrent measurement sessions over a Unix domain socket (or through an
//! in-process client API) and streams per-interval counter deltas live
//! while the sessions run.
//!
//! * [`broker`] — the session broker: admission and validation, per-cpu
//!   turn arbitration with monotonic tickets, FIFO per-socket uncore
//!   locks, cross-session time-slicing with coverage extrapolation.
//! * [`protocol`] — the line-delimited JSON wire protocol (`hello`,
//!   `open`, `opened`, `interval`, `done`, `status`, `error` frames).
//! * [`client`] — the socket client and [`client::StreamAccumulator`],
//!   which rebuilds a bit-identical post-mortem
//!   [`likwid::perfctr::TimelineResult`] from the frame stream.
//! * [`server`] — the socket accept loop and connection handlers.
//!
//! Frames are encoded and decoded with [`likwid::json`], the suite's one
//! lossless JSON codec (64-bit counts stay exact).

pub mod broker;
pub mod client;
pub mod protocol;
pub mod server;

/// The codec's former home. `selfbench/src/main.rs` still imports
/// `likwid_daemon::jsonv`; everything else uses [`likwid::json`].
pub use likwid::json as jsonv;

pub use broker::{
    ActivitySource, BrokerStats, Daemon, DaemonStatus, SessionConfig, SessionHandle, SessionStatus,
    UncoreStatus,
};
pub use client::{SocketClient, StreamAccumulator};
pub use protocol::{DoneFrame, Frame, IntervalFrame, OpenRequest, OpenedFrame};
