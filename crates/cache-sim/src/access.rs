//! Memory access descriptions issued by the workload execution engine.

/// The kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Regular (temporal, write-allocate) store.
    Store,
    /// Non-temporal (streaming) store: bypasses the cache hierarchy and goes
    /// straight to memory through write-combining buffers, avoiding the
    /// write-allocate read of the target line.
    NonTemporalStore,
    /// Software or hardware prefetch request: fills the cache but is not
    /// counted as a demand access.
    Prefetch,
}

impl AccessKind {
    /// Whether the access writes data.
    pub(crate) fn is_write(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::NonTemporalStore)
    }

    /// Whether the access is a demand access (issued by the program rather
    /// than a prefetcher).
    pub(crate) fn is_demand(self) -> bool {
        !matches!(self, AccessKind::Prefetch)
    }
}

/// One memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual/physical byte address (the simulator is agnostic).
    pub address: u64,
    /// Number of bytes touched (8 for a double, 16/32 for SSE/AVX, …).
    pub size: u32,
    /// Load, store, non-temporal store or prefetch.
    pub kind: AccessKind,
}

impl Access {
    /// Convenience constructor for an 8-byte (double precision) load.
    pub fn load(address: u64) -> Self {
        Access { address, size: 8, kind: AccessKind::Load }
    }

    /// Convenience constructor for an 8-byte store.
    pub fn store(address: u64) -> Self {
        Access { address, size: 8, kind: AccessKind::Store }
    }

    /// The cache lines `[first, last]` touched by this access for a given
    /// line size (an access may straddle a line boundary).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn line_range(&self, line_size: u64) -> (u64, u64) {
        let first = self.address / line_size;
        let last = (self.address + self.size.max(1) as u64 - 1) / line_size;
        (first, last)
    }
}

/// Where in the hierarchy a demand access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Satisfied by the first-level cache.
    L1,
    /// Satisfied by the second-level cache.
    L2,
    /// Satisfied by the last-level (shared) cache.
    L3,
    /// Satisfied by main memory.
    Memory,
    /// Non-temporal store: streamed to memory without a cache fill.
    Streaming,
}

impl HitLevel {
    /// Approximate access latency in core cycles, used by the performance
    /// model (numbers are typical Nehalem-class latencies).
    pub fn latency_cycles(self, memory_latency: u64) -> u64 {
        match self {
            HitLevel::L1 => 4,
            HitLevel::L2 => 10,
            HitLevel::L3 => 38,
            HitLevel::Memory => memory_latency,
            HitLevel::Streaming => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_classification() {
        assert!(AccessKind::Store.is_write());
        assert!(AccessKind::NonTemporalStore.is_write());
        assert!(!AccessKind::Load.is_write());
        assert!(AccessKind::Load.is_demand());
        assert!(!AccessKind::Prefetch.is_demand());
    }

    #[test]
    fn line_range_for_aligned_and_straddling_accesses() {
        let a = Access { address: 64, size: 8, kind: AccessKind::Load };
        assert_eq!(a.line_range(64), (1, 1));
        let straddle = Access { address: 60, size: 8, kind: AccessKind::Load };
        assert_eq!(straddle.line_range(64), (0, 1));
        let wide = Access { address: 0, size: 256, kind: AccessKind::Load };
        assert_eq!(wide.line_range(64), (0, 3));
    }

    #[test]
    fn hit_level_latency_is_monotonic() {
        let mem_lat = 200;
        assert!(HitLevel::L1.latency_cycles(mem_lat) < HitLevel::L2.latency_cycles(mem_lat));
        assert!(HitLevel::L2.latency_cycles(mem_lat) < HitLevel::L3.latency_cycles(mem_lat));
        assert!(HitLevel::L3.latency_cycles(mem_lat) < HitLevel::Memory.latency_cycles(mem_lat));
    }

    #[test]
    fn constructors_use_double_precision_width() {
        assert_eq!(Access::load(8).size, 8);
        assert_eq!(Access::store(8).kind, AccessKind::Store);
    }
}
