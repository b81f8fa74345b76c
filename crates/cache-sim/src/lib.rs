//! Cache hierarchy and memory-system simulator.
//!
//! The LIKWID paper's counter measurements (Table II and the event groups
//! L2/L3/MEM/CACHE) report what the machine's cache hierarchy actually did
//! while a workload ran: lines allocated into and victimized from the shared
//! L3, cache line traffic per level, bytes moved to and from main memory.
//! Since no real hardware is available here, this crate provides the
//! mechanism that generates those numbers: a node-level, set-associative,
//! multi-level cache simulator with hardware prefetchers, write-allocate and
//! non-temporal store semantics, and per-socket memory controllers with
//! ccNUMA accounting.
//!
//! The simulator is driven with per-hardware-thread [`Access`] streams by the
//! `likwid-workloads` execution engine, and its statistics are translated
//! into architectural event counts by the `likwid-perf-events` crate.
//!
//! Design notes
//! ------------
//! * Simulation granularity is a cache line: workloads issue loads/stores
//!   with byte sizes, the simulator resolves them to line-aligned accesses.
//! * Private levels (L1, L2) are instantiated per physical core and shared
//!   by its SMT threads, the last level is instantiated per socket, exactly
//!   as described by the machine preset's `shared_by_threads` fields.
//! * Coherence between private caches is not modelled; the workloads of the
//!   paper partition their working sets per thread, so cross-core sharing
//!   is not on the critical path of any reproduced number.

pub mod access;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod memory;
pub mod prefetch;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
pub mod replacement;
pub mod replay;
pub mod shard;
pub mod stats;

pub use access::{Access, AccessKind, HitLevel};
pub use cache::SetAssocCache;
pub use config::{CacheLevelConfig, HierarchyConfig, PrefetchConfig, WritePolicy};
pub use hierarchy::NodeCacheSystem;
pub use memory::NumaPolicy;
pub use prefetch::PrefetchEngine;
pub use replacement::{Recency, ReplacementPolicy};
pub use replay::{ReplayQueue, RunOp};
pub use shard::ShardedCacheSystem;
pub use stats::{CacheStats, LevelStats, MemoryStats, NodeStats};
