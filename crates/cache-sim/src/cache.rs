//! A single set-associative cache instance.

use crate::replacement::{FlatReplacement, ReplacementPolicy};
use crate::stats::CacheStats;

/// Result of a fill: what had to leave the cache to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// An invalid way was used; nothing was evicted.
    None,
    /// A clean line with the given line address was dropped.
    Clean(u64),
    /// A dirty line with the given line address must be written back.
    Dirty(u64),
}

/// A set-associative, write-back cache with per-instance statistics.
///
/// Addresses are handled at line granularity: all methods take *line
/// addresses* (byte address divided by the line size); the caller performs
/// the division so that one convention holds across all levels.
///
/// All per-set bookkeeping lives in flat contiguous arrays: tags in one
/// dense `u64` slab (scanned without chasing line structs), valid and dirty
/// flags as one bitmask word per set (so "first invalid way" is a single
/// `trailing_zeros`), per-set recency lists in one byte slab. When the set
/// count is a power of two — true for every machine preset — the set index
/// is a bit mask instead of a division.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two, else `None` (modulo path).
    set_mask: Option<u64>,
    /// `tags[set * ways + way]` — line address stored in one way.
    tags: Vec<u64>,
    /// `valid[set]` — bit `way` set when the way holds a line.
    valid: Vec<u64>,
    /// `dirty[set]` — bit `way` set when the way's line is dirty.
    dirty: Vec<u64>,
    /// All-ways-valid value for one set (`ways` low bits).
    full_mask: u64,
    replacement: FlatReplacement,
    /// Public counters; the hierarchy updates demand hit/miss fields, the
    /// cache itself updates fill/eviction fields.
    pub stats: CacheStats,
}

impl SetAssocCache {
    /// Create a cache with `sets` sets of `ways` ways. It stores line
    /// addresses, so the line size is the caller's business.
    pub fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one set and way");
        assert!(ways <= 64, "per-set bitmask flags support at most 64 ways");
        SetAssocCache {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            tags: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            full_mask: if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 },
            replacement: FlatReplacement::new(policy, sets, ways),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_index(&self, line_addr: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line_addr & mask) as usize,
            None => (line_addr % self.sets as u64) as usize,
        }
    }

    /// Find the way of `set` holding `line_addr`, if present. Short sets in
    /// the steady state (all ways valid, at most 8 of them) take a straight
    /// linear compare over the flat tag slab — no bit extraction, trivially
    /// unrolled and vectorized; sparse or wide sets scan only the valid ways,
    /// one `trailing_zeros` per candidate. Both paths probe ways in
    /// ascending order, so they are observationally identical.
    #[inline]
    fn find(&self, set: usize, line_addr: u64) -> Option<usize> {
        let base = set * self.ways;
        let valid = self.valid[set];
        if self.ways <= 8 && valid == self.full_mask {
            return self.tags[base..base + self.ways].iter().position(|&tag| tag == line_addr);
        }
        let mut candidates = valid;
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if self.tags[base + way] == line_addr {
                return Some(way);
            }
        }
        None
    }

    /// Whether the line is present (does not touch replacement state or stats).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.find(self.set_index(line_addr), line_addr).is_some()
    }

    /// Whether a repeated demand hit on this line could be collapsed into a
    /// pure counter update: the line is present and its replacement touch
    /// would not change the set's eviction order (it is already the
    /// most-recently-touched way, or the policy ignores hits entirely).
    pub(crate) fn repeat_hit_is_collapsible(&self, line_addr: u64) -> bool {
        let set = self.set_index(line_addr);
        match self.find(set, line_addr) {
            Some(way) => self.replacement.hit_is_order_neutral(set, way),
            None => false,
        }
    }

    /// Look up a line as a demand access. Returns `true` on hit and updates
    /// the replacement state; on a store hit the line is marked dirty.
    pub fn lookup(&mut self, line_addr: u64, is_write: bool) -> bool {
        let set = self.set_index(line_addr);
        match self.find(set, line_addr) {
            Some(way) => {
                if is_write {
                    self.dirty[set] |= 1 << way;
                }
                self.replacement.on_hit(set, way);
                true
            }
            None => false,
        }
    }

    /// Allocate a line (after a miss or for a prefetch). Returns what was
    /// evicted. The new line is marked dirty if `dirty` is set
    /// (write-allocate stores dirty the line immediately).
    pub fn fill(&mut self, line_addr: u64, dirty: bool) -> Eviction {
        let set = self.set_index(line_addr);
        // If the line is already present (e.g. racing prefetch), just update flags.
        if let Some(way) = self.find(set, line_addr) {
            if dirty {
                self.dirty[set] |= 1 << way;
            }
            self.replacement.on_hit(set, way);
            return Eviction::None;
        }
        self.fill_absent(line_addr, dirty)
    }

    /// [`SetAssocCache::fill`] for callers that already know the line is
    /// absent (a demand fill right after the lookup missed, a prefetch fill
    /// after a `contains` probe): skips the duplicate-line scan.
    pub(crate) fn fill_absent(&mut self, line_addr: u64, dirty: bool) -> Eviction {
        debug_assert!(!self.contains(line_addr), "fill_absent of a present line");
        let set = self.set_index(line_addr);
        // Victim selection: the first invalid way if any, else the least
        // recently touched of the (all-valid) ways.
        let invalid = !self.valid[set] & self.full_mask;
        let (victim_way, eviction) = if invalid != 0 {
            ((invalid.trailing_zeros()) as usize, Eviction::None)
        } else {
            let way = self.replacement.oldest_way(set);
            let tag = self.tags[set * self.ways + way];
            if self.dirty[set] & (1 << way) != 0 {
                (way, Eviction::Dirty(tag))
            } else {
                (way, Eviction::Clean(tag))
            }
        };

        let way_bit = 1u64 << victim_way;
        self.tags[set * self.ways + victim_way] = line_addr;
        self.valid[set] |= way_bit;
        if dirty {
            self.dirty[set] |= way_bit;
        } else {
            self.dirty[set] &= !way_bit;
        }
        self.replacement.on_fill(set, victim_way);

        self.stats.lines_in += 1;
        if !matches!(eviction, Eviction::None) {
            self.stats.lines_out += 1;
            if matches!(eviction, Eviction::Dirty(_)) {
                self.stats.writebacks += 1;
            }
        }
        eviction
    }

    /// Invalidate a line (used for inclusive back-invalidation). Returns
    /// `Some(dirty)` if the line was present.
    pub(crate) fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let set = self.set_index(line_addr);
        let way = self.find(set, line_addr)?;
        let way_bit = 1u64 << way;
        let dirty = self.dirty[set] & way_bit != 0;
        self.valid[set] &= !way_bit;
        self.dirty[set] &= !way_bit;
        self.stats.lines_out += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(dirty)
    }

    /// Mark a present line dirty (used when a dirty line is written back from
    /// an inner level).
    pub(crate) fn mark_dirty(&mut self, line_addr: u64) -> bool {
        let set = self.set_index(line_addr);
        match self.find(set, line_addr) {
            Some(way) => {
                self.dirty[set] |= 1 << way;
                true
            }
            None => false,
        }
    }

    /// Line addresses of all currently valid lines (diagnostic).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn resident_line_addresses(&self) -> impl Iterator<Item = u64> + '_ {
        self.valid.iter().enumerate().flat_map(move |(set, &valid)| {
            let base = set * self.ways;
            (0..self.ways)
                .filter(move |way| valid & (1 << way) != 0)
                .map(move |way| self.tags[base + way])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes.
        SetAssocCache::new(4, 2, ReplacementPolicy::Lru)
    }

    #[test]
    fn capacity_and_geometry() {
        let c = small_cache();
        assert_eq!(c.sets, 4);
        assert_eq!(c.ways, 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert!(!c.lookup(10, false));
        assert_eq!(c.fill(10, false), Eviction::None);
        assert!(c.lookup(10, false));
        assert!(c.contains(10));
    }

    #[test]
    fn conflict_eviction_in_one_set() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Two ways -> third fill evicts.
        c.fill(0, false);
        c.fill(4, false);
        let ev = c.fill(8, false);
        assert_eq!(ev, Eviction::Clean(0), "LRU victim is the first line filled");
        assert!(!c.contains(0));
        assert!(c.contains(4));
        assert!(c.contains(8));
        assert_eq!(c.stats.lines_in, 3);
        assert_eq!(c.stats.lines_out, 1);
    }

    #[test]
    fn dirty_eviction_is_reported_for_writeback() {
        let mut c = small_cache();
        c.fill(0, true);
        c.fill(4, false);
        let ev = c.fill(8, false);
        assert_eq!(ev, Eviction::Dirty(0));
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn store_hit_marks_line_dirty() {
        let mut c = small_cache();
        c.fill(0, false);
        assert!(c.lookup(0, true));
        c.fill(4, false);
        let ev = c.fill(8, false);
        assert_eq!(ev, Eviction::Dirty(0));
    }

    #[test]
    fn refill_of_present_line_does_not_evict() {
        let mut c = small_cache();
        c.fill(0, false);
        assert_eq!(c.fill(0, true), Eviction::None);
        assert_eq!(c.stats.lines_in, 1, "second fill of the same line is not a new allocation");
    }

    #[test]
    fn invalidate_removes_the_line() {
        let mut c = small_cache();
        c.fill(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.contains(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn mark_dirty_only_applies_to_present_lines() {
        let mut c = small_cache();
        c.fill(0, false);
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(99));
    }

    #[test]
    fn lru_keeps_the_hot_line() {
        let mut c = small_cache();
        c.fill(0, false);
        c.fill(4, false);
        // Touch line 0 so line 4 is the LRU victim.
        c.lookup(0, false);
        let ev = c.fill(8, false);
        assert_eq!(ev, Eviction::Clean(4));
        assert!(c.contains(0));
    }

    #[test]
    fn resident_line_count_tracks_valid_lines() {
        let mut c = small_cache();
        assert_eq!(c.resident_line_addresses().count(), 0);
        c.fill(0, false);
        c.fill(1, false);
        assert_eq!(c.resident_line_addresses().count(), 2);
        c.invalidate(0);
        assert_eq!(c.resident_line_addresses().count(), 1);
    }

    #[test]
    fn working_set_larger_than_capacity_cycles_lines() {
        let mut c = small_cache();
        // 16 distinct lines through an 8-line cache: every fill after the
        // first 8 evicts something.
        let mut evictions = 0;
        for line in 0..16 {
            if !matches!(c.fill(line, false), Eviction::None) {
                evictions += 1;
            }
        }
        assert_eq!(evictions, 8);
        assert_eq!(c.resident_line_addresses().count(), 8);
    }

    #[test]
    fn non_power_of_two_set_count_uses_the_modulo_path() {
        // 3 sets x 2 ways: lines 0, 3, 6 all map to set 0.
        let mut c = SetAssocCache::new(3, 2, ReplacementPolicy::Lru);
        c.fill(0, false);
        c.fill(3, false);
        assert_eq!(c.fill(6, false), Eviction::Clean(0));
        assert!(c.contains(3));
        assert!(c.contains(6));
        assert!(!c.contains(1), "line 1 lives in set 1");
    }
}
