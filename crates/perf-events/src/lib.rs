//! Hardware performance event model.
//!
//! This crate sits between the machine substrate (`likwid-x86-machine`) and
//! the `likwid-perfctr` tool. It provides:
//!
//! * **Event tables** per microarchitecture ([`tables`]): the mapping from
//!   documented event names (`SIMD_COMP_INST_RETIRED_PACKED_DOUBLE`,
//!   `UNC_L3_LINES_IN_ANY`, …) to event-select codes, unit masks and the set
//!   of counters that can carry them — the same information LIKWID ships in
//!   its per-architecture event header files.
//! * **Counter programming** ([`perfmon`]): encoding/decoding of the
//!   `IA32_PERFEVTSELx` and fixed/uncore control registers, and a
//!   [`perfmon::PerfMon`] helper that programs, starts, stops and reads
//!   counters through an [`likwid_x86_machine::MsrDevice`] exactly as the
//!   real tool does through `/dev/cpu/*/msr`.
//! * **The counting engine** ([`engine`]): the "hardware side" that makes
//!   the programmed counters actually advance. Workload execution produces
//!   an [`EventSample`] of architectural happenings (instructions retired,
//!   SIMD operations, cache lines in/out per level, memory transactions);
//!   [`engine::EventEngine::apply`] inspects which events each hardware
//!   thread has programmed and credits the corresponding counter MSRs.
//! * **Multiplexing support** ([`multiplex`]): round-robin scheduling of
//!   more event sets than there are physical counters, with extrapolation,
//!   mirroring `likwid-perfCtr`'s multiplexing mode.

pub mod engine;
pub mod event;
pub mod kinds;
pub mod multiplex;
pub mod perfmon;
pub mod tables;

pub use engine::EventEngine;
pub use event::{CounterClass, CounterSlot, EventDefinition, EventTable};
pub use kinds::{EventRecord, EventSample, HwEventKind, SocketEventRecord, ThreadEventRecord};
pub use multiplex::MultiplexSchedule;
pub use perfmon::{PerfMon, PerfMonError};
