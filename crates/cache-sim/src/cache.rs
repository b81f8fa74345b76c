//! A single set-associative cache instance: tags, recency ranks and dirty
//! bits of each set in one contiguous run of a `u64` slab.

use std::ops::Range;

use crate::replacement::{Recency, ReplacementPolicy};
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
/// the division so that one convention holds across all levels. A line
/// address is below `u64::MAX`, which any line size of two bytes or more
/// guarantees.
///
/// All state lives in one `u64` slab, one contiguous run of words per set:
///
/// ```text
/// | rank word 0 | … | dirty mask | tag 0 | tag 1 | … | tag ways-1 |
/// ```
///
/// A tag word stores the line address plus one, so 0 marks an invalid way
/// and a lookup is one compare per way with no separate valid flags. The
/// rank words are the set's packed LRU/FIFO order (see
/// [`crate::replacement`]), in which the invalid ways rank oldest: the
/// oldest way is always the next victim, an invalid way while there is
/// one. Which invalid way is filled first cannot show in any statistic,
/// which depend only on which lines a set holds and in what order they
/// were touched. Bit `way` of the dirty mask is set while that way's line
/// is dirty. A lookup, fill or eviction of one set touches only that set's
/// few adjacent words; the rank and dirty words come first, in the same
/// host cache line as the first tags. When the set count is a power of two
/// — true for every machine preset — the set index is a bit mask instead
/// of a division.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two, else `None` (modulo path).
    set_mask: Option<u64>,
    /// Words per set: the rank words, the dirty mask, `ways` tags.
    stride: usize,
    recency: Recency,
    /// `slab[set * stride..(set + 1) * stride]` — one set's words.
    slab: Vec<u64>,
    /// Public counters; the hierarchy updates demand hit/miss fields, the
    /// cache itself updates fill/eviction fields.
    pub stats: CacheStats,
}

impl SetAssocCache {
    /// Create a cache with `sets` sets of `ways` ways. It stores line
    /// addresses, so the line size is the caller's business.
    pub fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one set and way");
        assert!(ways <= 64, "per-set dirty masks and rank bytes support at most 64 ways");
        let recency = Recency::new(policy, ways);
        let stride = ways + recency.words() + 1;
        SetAssocCache {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            stride,
            recency,
            // Zero is an invalid way, a fresh rank word and a clean set.
            slab: vec![0; sets * stride],
            stats: CacheStats::default(),
        }
    }

    /// First slab word of the set holding `line_addr`.
    #[inline]
    fn set_base(&self, line_addr: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => (line_addr & mask) as usize,
            None => (line_addr % self.sets as u64) as usize,
        };
        set * self.stride
    }

    /// Slab indices of the tag words of the set starting at `base`.
    #[inline]
    fn tags(&self, base: usize) -> Range<usize> {
        base + self.stride - self.ways..base + self.stride
    }

    /// Slab indices of the rank words of the set starting at `base`.
    #[inline]
    fn ranks(&self, base: usize) -> Range<usize> {
        base..base + self.stride - self.ways - 1
    }

    /// Slab index of the dirty mask of the set starting at `base`.
    #[inline]
    fn dirty_at(&self, base: usize) -> usize {
        base + self.stride - self.ways - 1
    }

    /// Find the way of the set starting at `base` holding `line_addr`, if
    /// present. A line is held by at most one way, and invalid ways (0)
    /// never match.
    #[inline]
    fn find(&self, base: usize, line_addr: u64) -> Option<usize> {
        let tag = line_addr + 1;
        self.slab[self.tags(base)].iter().position(|&t| t == tag)
    }

    /// Whether the line is present (does not touch replacement state or stats).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.find(self.set_base(line_addr), line_addr).is_some()
    }

    /// Whether a repeated demand hit on this line could be collapsed into a
    /// pure counter update: the line is present and its replacement touch
    /// would not change the set's eviction order (it is already the
    /// most-recently-touched way, or the policy ignores hits entirely).
    pub(crate) fn repeat_hit_is_collapsible(&self, line_addr: u64) -> bool {
        let base = self.set_base(line_addr);
        match self.find(base, line_addr) {
            Some(way) => self.recency.hit_is_order_neutral(&self.slab[self.ranks(base)], way),
            None => false,
        }
    }

    /// Look up a line as a demand access. Returns `true` on hit and updates
    /// the replacement state; on a store hit the line is marked dirty.
    pub fn lookup(&mut self, line_addr: u64, is_write: bool) -> bool {
        let base = self.set_base(line_addr);
        match self.find(base, line_addr) {
            Some(way) => {
                self.touch_hit(base, way, is_write);
                true
            }
            None => false,
        }
    }

    /// A hit on `way` of the set at `base`: the policy's hit touch, and
    /// the dirty bit for a store.
    #[inline]
    fn touch_hit(&mut self, base: usize, way: usize, dirty: bool) {
        if dirty {
            let at = self.dirty_at(base);
            self.slab[at] |= 1 << way;
        }
        let ranks = self.ranks(base);
        self.recency.on_hit(&mut self.slab[ranks], way);
    }

    /// Allocate a line (after a miss or for a prefetch). Returns what was
    /// evicted. The new line is marked dirty if `dirty` is set
    /// (write-allocate stores dirty the line immediately).
    pub fn fill(&mut self, line_addr: u64, dirty: bool) -> Eviction {
        let base = self.set_base(line_addr);
        // If the line is already present (e.g. racing prefetch), just update flags.
        if let Some(way) = self.find(base, line_addr) {
            self.touch_hit(base, way, dirty);
            return Eviction::None;
        }
        self.fill_absent(line_addr, dirty)
    }

    /// [`SetAssocCache::fill`] for callers that already know the line is
    /// absent (a demand fill right after the lookup missed, a prefetch fill
    /// after a `contains` probe): skips the duplicate-line scan.
    pub(crate) fn fill_absent(&mut self, line_addr: u64, dirty: bool) -> Eviction {
        debug_assert!(!self.contains(line_addr), "fill_absent of a present line");
        let base = self.set_base(line_addr);
        let at = self.dirty_at(base);
        // Victim selection: an invalid way if any, else the least recently
        // touched of the (all-valid) ways. Invalid ways rank oldest, so
        // both are the oldest way.
        let (tags, ranks) = (self.tags(base), self.ranks(base));
        let way = self.recency.fill(&mut self.slab[ranks]);
        let eviction = match self.slab[tags.start + way] {
            0 => Eviction::None,
            tag if self.slab[at] & (1 << way) != 0 => Eviction::Dirty(tag - 1),
            tag => Eviction::Clean(tag - 1),
        };

        let way_bit = 1u64 << way;
        self.slab[tags.start + way] = line_addr + 1;
        if dirty {
            self.slab[at] |= way_bit;
        } else {
            self.slab[at] &= !way_bit;
        }

        self.stats.lines_in += 1;
        match eviction {
            Eviction::None => {}
            Eviction::Clean(_) => self.stats.lines_out += 1,
            Eviction::Dirty(_) => {
                self.stats.lines_out += 1;
                self.stats.writebacks += 1;
            }
        }
        eviction
    }

    /// Invalidate a line (used for inclusive back-invalidation). Returns
    /// `Some(dirty)` if the line was present. The way becomes the set's
    /// oldest, the next victim; the valid ways keep their order.
    pub(crate) fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let base = self.set_base(line_addr);
        let way = self.find(base, line_addr)?;
        let way_bit = 1u64 << way;
        let at = self.dirty_at(base);
        let dirty = self.slab[at] & way_bit != 0;
        let tag = self.tags(base).start + way;
        self.slab[tag] = 0;
        self.slab[at] &= !way_bit;
        let ranks = self.ranks(base);
        self.recency.demote(&mut self.slab[ranks], way);
        self.stats.lines_out += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(dirty)
    }

    /// Mark a present line dirty (used when a dirty line is written back from
    /// an inner level).
    pub(crate) fn mark_dirty(&mut self, line_addr: u64) -> bool {
        let base = self.set_base(line_addr);
        match self.find(base, line_addr) {
            Some(way) => {
                let at = self.dirty_at(base);
                self.slab[at] |= 1 << way;
                true
            }
            None => false,
        }
    }

    /// Line addresses of all currently valid lines (diagnostic).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) fn resident_line_addresses(&self) -> impl Iterator<Item = u64> + '_ {
        self.slab
            .chunks_exact(self.stride)
            .flat_map(move |set| set[self.tags(0)].iter().filter(|&&t| t != 0).map(|&t| t - 1))
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
    fn invalidated_ways_refill_first_then_lru_resumes() {
        // One 4-way set: lines 0..4 fill ways 0..4, then a hit makes line 0
        // the most recent. Invalidating lines 2 and 0 makes their ways the
        // next two victims before the LRU order resumes.
        let mut c = SetAssocCache::new(1, 4, ReplacementPolicy::Lru);
        for line in 0..4 {
            c.fill(line, false);
        }
        c.lookup(0, false);
        c.invalidate(2);
        c.invalidate(0);
        assert_eq!(c.fill(10, false), Eviction::None);
        assert_eq!(c.fill(11, false), Eviction::None);
        assert!(c.contains(10) && c.contains(11) && !c.contains(0) && !c.contains(2));
        // Order among the valid lines, oldest first: 1, 3, 10, 11.
        assert_eq!(c.fill(12, false), Eviction::Clean(1));
        assert_eq!(c.fill(13, false), Eviction::Clean(3));
        assert_eq!(c.fill(14, false), Eviction::Clean(10));
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
