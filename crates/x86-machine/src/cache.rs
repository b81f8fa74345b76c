//! Cache hierarchy description.
//!
//! These are the *static* cache parameters that `cpuid` reports
//! (deterministic cache parameters, leaf 0x4 on Intel, leaf 0x8000_001D /
//! 0x8000_0005/6 on AMD, descriptor bytes of leaf 0x2 on older parts) and
//! that `likwid-topology -c` prints: level, type, size, associativity,
//! number of sets, line size, inclusiveness and how many hardware threads
//! share the cache. The dynamic behaviour (hits, misses, prefetches) lives
//! in the `likwid-cache-sim` crate, which is configured from these specs.

/// Kind of cache as reported by cpuid leaf 0x4 (field "cache type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CacheKind {
    /// Data cache.
    Data,
    /// Instruction cache.
    Instruction,
    /// Unified cache (data + instructions).
    Unified,
}

impl CacheKind {
    /// Encoding used in cpuid leaf 0x4 EAX bits 4:0.
    pub(crate) fn cpuid_encoding(self) -> u32 {
        match self {
            CacheKind::Data => 1,
            CacheKind::Instruction => 2,
            CacheKind::Unified => 3,
        }
    }

    /// Decode the cpuid leaf 0x4 encoding.
    pub fn from_cpuid_encoding(v: u32) -> Option<Self> {
        match v {
            1 => Some(CacheKind::Data),
            2 => Some(CacheKind::Instruction),
            3 => Some(CacheKind::Unified),
            _ => None,
        }
    }

    /// Human-readable name as printed by `likwid-topology`.
    pub fn display_name(self) -> &'static str {
        match self {
            CacheKind::Data => "Data cache",
            CacheKind::Instruction => "Instruction cache",
            CacheKind::Unified => "Unified cache",
        }
    }
}

/// Static parameters of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheSpec {
    /// Cache level (1, 2, 3).
    pub level: u32,
    /// Data, instruction or unified.
    pub kind: CacheKind,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Cache line size in bytes.
    pub line_size: u32,
    /// Whether lower levels' contents are guaranteed to be contained
    /// ("inclusive"). The Westmere L3 in the paper reports "Non Inclusive".
    pub inclusive: bool,
    /// Number of hardware threads sharing one instance of this cache.
    pub shared_by_threads: u32,
    /// Whether this is an uncore (package-level) resource whose events need
    /// socket locks in `likwid-perfctr`.
    pub uncore: bool,
}

impl CacheSpec {
    /// Number of sets implied by size, associativity and line size.
    pub fn num_sets(&self) -> u32 {
        (self.size_bytes / (self.associativity as u64 * self.line_size as u64)) as u32
    }

    /// Validate internal consistency: size must be divisible into full sets.
    ///
    /// Set counts need not be powers of two — the Westmere L3 in the paper
    /// has 12288 sets — but line sizes must be, and the capacity must divide
    /// evenly into `sets × ways × line`.
    pub fn is_consistent(&self) -> bool {
        let ways_times_line = self.associativity as u64 * self.line_size as u64;
        ways_times_line != 0
            && self.size_bytes.is_multiple_of(ways_times_line)
            && self.num_sets() > 0
            && self.line_size.is_power_of_two()
    }
}

/// Builder for the common case of data/unified caches.
pub fn cache(
    level: u32,
    kind: CacheKind,
    size_bytes: u64,
    associativity: u32,
    line_size: u32,
    inclusive: bool,
    shared_by_threads: u32,
) -> CacheSpec {
    CacheSpec {
        level,
        kind,
        size_bytes,
        associativity,
        line_size,
        inclusive,
        shared_by_threads,
        uncore: level >= 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn westmere_l1() -> CacheSpec {
        cache(1, CacheKind::Data, 32 * 1024, 8, 64, true, 2)
    }

    fn westmere_l3() -> CacheSpec {
        cache(3, CacheKind::Unified, 12 * 1024 * 1024, 16, 64, false, 12)
    }

    #[test]
    fn set_counts_match_the_paper_listing() {
        // Paper: L1 32 kB, 8-way, 64 sets; L2 256 kB, 8-way, 512 sets;
        // L3 12 MB, 16-way, 12288 sets.
        assert_eq!(westmere_l1().num_sets(), 64);
        assert_eq!(cache(2, CacheKind::Unified, 256 * 1024, 8, 64, true, 2).num_sets(), 512);
        assert_eq!(westmere_l3().num_sets(), 12288);
    }

    #[test]
    fn cpuid_kind_encoding_round_trips() {
        for kind in [CacheKind::Data, CacheKind::Instruction, CacheKind::Unified] {
            assert_eq!(CacheKind::from_cpuid_encoding(kind.cpuid_encoding()), Some(kind));
        }
        assert_eq!(CacheKind::from_cpuid_encoding(0), None);
    }

    #[test]
    fn consistency_checks() {
        assert!(westmere_l1().is_consistent());
        let mut broken = westmere_l1();
        broken.size_bytes = 33_000; // not divisible into full sets of ways*line bytes
        assert!(!broken.is_consistent());
        let mut odd_line = westmere_l1();
        odd_line.line_size = 48; // line sizes must be powers of two
        assert!(!odd_line.is_consistent());
    }

    #[test]
    fn l3_is_marked_uncore() {
        assert!(westmere_l3().uncore);
        assert!(!westmere_l1().uncore);
    }
}
