//! Event statistics collected by the simulator.
//!
//! These counters are the raw material for the architectural events exposed
//! by `likwid-perf-events`: e.g. the Nehalem uncore events
//! `UNC_L3_LINES_IN_ANY` / `UNC_L3_LINES_OUT_ANY` of Table II map to the
//! [`CacheStats::lines_in`] / [`CacheStats::lines_out`] counters of the
//! socket's L3 instance, and the `MEM` event group's bandwidth metric maps to
//! the memory-controller byte counters.

/// Counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that reached this level (loads + stores).
    pub accesses: u64,
    /// Demand loads that reached this level.
    pub loads: u64,
    /// Demand stores that reached this level.
    pub stores: u64,
    /// Demand accesses satisfied at this level.
    pub hits: u64,
    /// Demand accesses that missed and had to go further out.
    pub misses: u64,
    /// Lines allocated into this level (demand fills + prefetch fills +
    /// write-allocate fills).
    pub lines_in: u64,
    /// Lines removed from this level (evictions of any kind).
    pub lines_out: u64,
    /// Dirty lines written back to the next level / memory.
    pub writebacks: u64,
    /// Lines brought in by a hardware prefetcher.
    pub prefetch_fills: u64,
    /// Prefetch requests issued by the prefetchers attached to this level.
    pub prefetch_requests: u64,
}

impl CacheStats {
    /// Merge another instance's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.loads += other.loads;
        self.stores += other.stores;
        self.hits += other.hits;
        self.misses += other.misses;
        self.lines_in += other.lines_in;
        self.lines_out += other.lines_out;
        self.writebacks += other.writebacks;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_requests += other.prefetch_requests;
    }

    /// Internal consistency: hits + misses == demand accesses.
    pub fn is_consistent(&self) -> bool {
        self.hits + self.misses == self.accesses && self.loads + self.stores == self.accesses
    }
}

/// Counters of one memory controller (one socket / NUMA domain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes read from DRAM (line fills + write-allocate reads).
    pub bytes_read: u64,
    /// Bytes written to DRAM (writebacks + non-temporal stores).
    pub bytes_written: u64,
    /// Read transactions that originated on this socket.
    pub local_reads: u64,
    /// Read transactions that came from a remote socket over the
    /// interconnect.
    pub remote_reads: u64,
    /// Write transactions from this socket.
    pub local_writes: u64,
    /// Write transactions from a remote socket.
    pub remote_writes: u64,
    /// Non-temporal store transactions (streamed, no write-allocate).
    pub nt_stores: u64,
}

impl MemoryStats {
    /// Total data volume in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Merge another controller's counters into this one.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.local_reads += other.local_reads;
        self.remote_reads += other.remote_reads;
        self.local_writes += other.local_writes;
        self.remote_writes += other.remote_writes;
        self.nt_stores += other.nt_stores;
    }
}

/// Per-level aggregate over all instances of that level in the node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Cache level (1, 2, 3).
    pub level: u32,
    /// Counters per instance (index = instance number).
    pub instances: Vec<CacheStats>,
}

impl LevelStats {
    /// Sum over all instances.
    pub fn total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for inst in &self.instances {
            total.merge(inst);
        }
        total
    }
}

/// Snapshot of all counters in the node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// One entry per cache level, ordered L1, L2, L3.
    pub levels: Vec<LevelStats>,
    /// One entry per socket's memory controller.
    pub memory: Vec<MemoryStats>,
    /// Per-hardware-thread demand access counts (loads, stores).
    pub thread_loads: Vec<u64>,
    /// Per-hardware-thread store counts.
    pub thread_stores: Vec<u64>,
}

impl NodeStats {
    /// Total bytes moved to/from DRAM across all sockets.
    pub fn total_memory_bytes(&self) -> u64 {
        self.memory.iter().map(|m| m.total_bytes()).sum()
    }

    /// Aggregate stats of one level over the whole node.
    pub fn level_total(&self, level: u32) -> CacheStats {
        self.levels.iter().find(|l| l.level == level).map(|l| l.total()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = CacheStats {
            accesses: 10,
            loads: 6,
            stores: 4,
            hits: 7,
            misses: 3,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 5,
            loads: 5,
            stores: 0,
            hits: 5,
            misses: 0,
            lines_in: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.hits, 12);
        assert_eq!(a.lines_in, 2);
        assert!(a.is_consistent());
    }

    #[test]
    fn memory_total_bytes() {
        let m = MemoryStats { bytes_read: 100, bytes_written: 50, ..Default::default() };
        assert_eq!(m.total_bytes(), 150);
    }

    #[test]
    fn node_stats_level_lookup() {
        let node = NodeStats {
            levels: vec![
                LevelStats {
                    level: 1,
                    instances: vec![CacheStats {
                        accesses: 5,
                        loads: 5,
                        hits: 5,
                        ..Default::default()
                    }],
                },
                LevelStats {
                    level: 3,
                    instances: vec![
                        CacheStats { lines_in: 7, ..Default::default() },
                        CacheStats { lines_in: 3, ..Default::default() },
                    ],
                },
            ],
            ..Default::default()
        };
        assert_eq!(node.level_total(3).lines_in, 10);
        assert_eq!(node.level_total(2).accesses, 0);
    }
}
