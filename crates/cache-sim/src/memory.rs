//! Main-memory controllers and ccNUMA address mapping.

use crate::stats::MemoryStats;

/// How byte addresses map to NUMA domains (sockets).
#[derive(Debug, Clone, PartialEq)]
pub enum NumaPolicy {
    /// Round-robin interleaving of fixed-size chunks across all sockets
    /// (the effect of `numactl --interleave` or of not caring).
    Interleave {
        /// Chunk granularity in bytes (page size, typically 4096).
        granularity: u64,
        /// Number of sockets to interleave over.
        sockets: u32,
    },
    /// Explicit partitioning: `boundaries[i]` is the first address that no
    /// longer belongs to socket *i*; addresses beyond the last boundary
    /// belong to the last socket. This models first-touch placement by
    /// pinned threads, where each thread's partition is initialized (and
    /// therefore placed) locally.
    Partitioned {
        /// Upper (exclusive) address bound per socket, ascending.
        boundaries: Vec<u64>,
    },
    /// Everything on one socket (models first-touch by a serial, unpinned
    /// initialization loop — the classic ccNUMA mistake).
    SingleNode {
        /// The socket owning all memory.
        socket: u32,
    },
}

impl NumaPolicy {
    /// Interleave over `sockets` sockets with 4 KiB pages.
    pub fn interleave(granularity: u64) -> Self {
        NumaPolicy::Interleave { granularity, sockets: 2 }
    }

    /// Interleave over a given number of sockets.
    pub fn interleave_over(granularity: u64, sockets: u32) -> Self {
        NumaPolicy::Interleave { granularity, sockets }
    }

    /// The NUMA domain of an address.
    pub(crate) fn domain_of(&self, address: u64) -> u32 {
        match self {
            NumaPolicy::Interleave { granularity, sockets } => {
                // Page size and socket count are powers of two on every
                // preset; the simulator hot path calls this per memory
                // transaction, so prefer shifts over two 64-bit divisions.
                if granularity.is_power_of_two() && sockets.is_power_of_two() {
                    ((address >> granularity.trailing_zeros()) & (*sockets as u64 - 1)) as u32
                } else {
                    ((address / granularity) % (*sockets as u64)) as u32
                }
            }
            NumaPolicy::Partitioned { boundaries } => {
                for (i, &b) in boundaries.iter().enumerate() {
                    if address < b {
                        return i as u32;
                    }
                }
                (boundaries.len().saturating_sub(1)) as u32
            }
            NumaPolicy::SingleNode { socket } => *socket,
        }
    }
}

/// One socket's integrated memory controller.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemoryController {
    /// Traffic counters.
    pub stats: MemoryStats,
}

impl MemoryController {
    /// Record a line fill (read) of `bytes` requested by a core on
    /// `requesting_socket`, where this controller lives on `home_socket`.
    pub fn read(&mut self, bytes: u64, requesting_socket: u32, home_socket: u32) {
        self.stats.bytes_read += bytes;
        if requesting_socket == home_socket {
            self.stats.local_reads += 1;
        } else {
            self.stats.remote_reads += 1;
        }
    }

    /// Record a writeback or streaming store of `bytes`.
    pub fn write(
        &mut self,
        bytes: u64,
        requesting_socket: u32,
        home_socket: u32,
        non_temporal: bool,
    ) {
        self.stats.bytes_written += bytes;
        if non_temporal {
            self.stats.nt_stores += 1;
        }
        if requesting_socket == home_socket {
            self.stats.local_writes += 1;
        } else {
            self.stats.remote_writes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_alternates_domains_per_page() {
        let p = NumaPolicy::interleave(4096);
        assert_eq!(p.domain_of(0), 0);
        assert_eq!(p.domain_of(4095), 0);
        assert_eq!(p.domain_of(4096), 1);
        assert_eq!(p.domain_of(8192), 0);
    }

    #[test]
    fn partitioned_maps_ranges_to_sockets() {
        let p = NumaPolicy::Partitioned { boundaries: vec![1000, 2000] };
        assert_eq!(p.domain_of(0), 0);
        assert_eq!(p.domain_of(999), 0);
        assert_eq!(p.domain_of(1000), 1);
        assert_eq!(
            p.domain_of(5000),
            1,
            "addresses past the last boundary stay on the last socket"
        );
    }

    #[test]
    fn single_node_places_everything_on_one_socket() {
        let p = NumaPolicy::SingleNode { socket: 1 };
        assert_eq!(p.domain_of(0), 1);
        assert_eq!(p.domain_of(1 << 40), 1);
    }

    #[test]
    fn controller_distinguishes_local_and_remote_traffic() {
        let mut mc = MemoryController::default();
        mc.read(64, 0, 0);
        mc.read(64, 1, 0);
        mc.write(64, 0, 0, false);
        mc.write(64, 1, 0, true);
        assert_eq!(mc.stats.bytes_read, 128);
        assert_eq!(mc.stats.bytes_written, 128);
        assert_eq!(mc.stats.local_reads, 1);
        assert_eq!(mc.stats.remote_reads, 1);
        assert_eq!(mc.stats.local_writes, 1);
        assert_eq!(mc.stats.remote_writes, 1);
        assert_eq!(mc.stats.nt_stores, 1);
    }

    #[test]
    fn interleave_over_more_sockets() {
        let p = NumaPolicy::interleave_over(4096, 4);
        let domains: Vec<u32> = (0..4).map(|i| p.domain_of(i * 4096)).collect();
        assert_eq!(domains, vec![0, 1, 2, 3]);
    }
}
