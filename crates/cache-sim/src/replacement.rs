//! Replacement policies for the set-associative cache model.
//!
//! Real Intel/AMD caches use true LRU for small associativities and
//! pseudo-LRU (tree or NRU approximations) for larger ones. For the traffic
//! numbers this suite reproduces, the exact policy only matters at the
//! margin; both true LRU and a round-robin/FIFO policy are provided, and
//! tests pin down the eviction order they produce.
//!
//! Each set's state is a recency list of way numbers, one byte per way
//! plus a count byte, so the simulator's host memory stays dominated by
//! the tags rather than by replacement bookkeeping.

/// Replacement policy selection for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    Lru,
    /// First-in first-out (round-robin victim selection).
    Fifo,
}

/// Replacement state for *all* sets of one cache, stored contiguously.
///
/// Each set owns `ways + 1` bytes of one flat array: the number of ways
/// touched so far, then those ways ordered from most to least recently
/// touched. A touch is a fill under both policies and also a hit under LRU,
/// so under FIFO the list is fill order. Ways never touched rank as older
/// than every touched way, lowest-numbered first. Each set keeps its own
/// order, so the behaviour per set is identical to an independent per-set
/// state, without one heap allocation per set.
#[derive(Debug, Clone)]
pub struct FlatReplacement {
    policy: ReplacementPolicy,
    ways: usize,
    /// `order[set * (ways + 1)]` — touched-way count of one set, followed
    /// by that many way numbers, most recently touched first.
    order: Vec<u8>,
}

impl FlatReplacement {
    /// State for `sets` sets of `ways` ways each.
    pub fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "replacement state needs at least one set and way");
        assert!(ways <= usize::from(u8::MAX), "way numbers are stored as bytes");
        FlatReplacement { policy, ways, order: vec![0; sets * (ways + 1)] }
    }

    /// Record a fill into `way` of `set`: move the way to the front of the
    /// set's recency list, adding it if it was never touched.
    pub fn on_fill(&mut self, set: usize, way: usize) {
        debug_assert!(way < self.ways, "way {way} out of range");
        let stride = self.ways + 1;
        let (count, list) = self.order[set * stride..(set + 1) * stride]
            .split_first_mut()
            .expect("a set's slot holds its count byte");
        let touched = usize::from(*count);
        let way = way as u8;
        // Repeated hits on the newest line take this path.
        if touched > 0 && list[0] == way {
            return;
        }
        let end = match list[..touched].iter().position(|&w| w == way) {
            Some(at) => at,
            None => {
                *count += 1;
                touched
            }
        };
        list.copy_within(..end, 1);
        list[0] = way;
    }

    /// Record a hit on `way` of `set`.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        if self.policy == ReplacementPolicy::Lru {
            self.on_fill(set, way);
        }
        // FIFO ignores hits: age is fill order only.
    }

    /// The touched ways of `set`, most recently touched first.
    fn recency(&self, set: usize) -> &[u8] {
        let base = set * (self.ways + 1);
        let touched = usize::from(self.order[base]);
        &self.order[base + 1..base + 1 + touched]
    }

    /// The least recently touched way of `set`, or the lowest-numbered way
    /// never touched if there is one, for callers that already know every
    /// way is valid.
    pub fn oldest_way(&self, set: usize) -> usize {
        let recency = self.recency(set);
        if recency.len() == self.ways {
            return usize::from(recency[self.ways - 1]);
        }
        (0..self.ways)
            .find(|&way| !recency.contains(&(way as u8)))
            .expect("a set with fewer touched ways than ways has an untouched way")
    }

    /// Whether a hit on `way` of `set` would leave the eviction order
    /// unchanged: FIFO ignores hits, and under LRU a touch of the most
    /// recently touched way moves nothing.
    pub fn hit_is_order_neutral(&self, set: usize, way: usize) -> bool {
        self.policy == ReplacementPolicy::Fifo || self.recency(set).first() == Some(&(way as u8))
    }

    /// Number of ways tracked per set.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-set state mirroring the old per-set API, for eviction-order
    /// tests.
    fn one_set(policy: ReplacementPolicy, ways: usize) -> FlatReplacement {
        FlatReplacement::new(policy, 1, ways)
    }

    #[test]
    fn invalid_ways_are_used_before_eviction() {
        let mut st = one_set(ReplacementPolicy::Lru, 4);
        st.on_fill(0, 0);
        st.on_fill(0, 1);
        // Ways 2 and 3 were never filled, so they rank before any eviction.
        let victim = st.oldest_way(0);
        assert!(victim == 2 || victim == 3);
    }

    #[test]
    fn lru_evicts_the_least_recently_touched_way() {
        let mut st = one_set(ReplacementPolicy::Lru, 4);
        for w in 0..4 {
            st.on_fill(0, w);
        }
        // Touch 0 again; way 1 becomes the LRU victim.
        st.on_hit(0, 0);
        assert_eq!(st.oldest_way(0), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut st = one_set(ReplacementPolicy::Fifo, 4);
        for w in 0..4 {
            st.on_fill(0, w);
        }
        st.on_hit(0, 0);
        st.on_hit(0, 0);
        assert_eq!(st.oldest_way(0), 0, "FIFO still evicts the oldest fill");
    }

    #[test]
    fn lru_eviction_order_is_exact_on_a_tiny_set() {
        // 3-way set, fills into ways 0, 1, 2, then a precise touch sequence;
        // the victim must always be the unique least-recently-touched way.
        let mut st = one_set(ReplacementPolicy::Lru, 3);
        st.on_fill(0, 0);
        st.on_fill(0, 1);
        st.on_fill(0, 2);
        assert_eq!(st.oldest_way(0), 0, "oldest fill is the first victim");
        st.on_hit(0, 0); // order now: 1, 2, 0
        assert_eq!(st.oldest_way(0), 1);
        st.on_hit(0, 1); // order now: 2, 0, 1
        assert_eq!(st.oldest_way(0), 2);
        st.on_fill(0, 2); // replacing way 2 refreshes it: order 0, 1, 2
        assert_eq!(st.oldest_way(0), 0);
        // A full round of hits in reverse order inverts the ranking.
        st.on_hit(0, 2);
        st.on_hit(0, 1);
        st.on_hit(0, 0); // order now: 2, 1, 0
        assert_eq!(st.oldest_way(0), 2);
    }

    #[test]
    fn lru_and_fifo_diverge_after_a_hit() {
        // Identical fill sequences; only LRU lets the hit rescue way 0.
        let mut lru = one_set(ReplacementPolicy::Lru, 2);
        let mut fifo = one_set(ReplacementPolicy::Fifo, 2);
        for st in [&mut lru, &mut fifo] {
            st.on_fill(0, 0);
            st.on_fill(0, 1);
            st.on_hit(0, 0);
        }
        assert_eq!(lru.oldest_way(0), 1);
        assert_eq!(fifo.oldest_way(0), 0);
    }

    #[test]
    fn repeated_fills_cycle_through_ways_under_fifo() {
        let mut st = one_set(ReplacementPolicy::Fifo, 2);
        st.on_fill(0, 0);
        st.on_fill(0, 1);
        assert_eq!(st.oldest_way(0), 0);
        st.on_fill(0, 0);
        assert_eq!(st.oldest_way(0), 1);
    }

    #[test]
    fn untouched_ways_are_oldest_lowest_first() {
        let mut st = one_set(ReplacementPolicy::Lru, 4);
        assert_eq!(st.oldest_way(0), 0);
        st.on_fill(0, 0);
        st.on_fill(0, 2);
        assert_eq!(st.oldest_way(0), 1, "way 1 was never touched");
        st.on_hit(0, 1);
        assert_eq!(st.oldest_way(0), 3);
        st.on_hit(0, 3);
        assert_eq!(st.oldest_way(0), 0, "every way touched: the least recent");
    }

    #[test]
    fn sets_age_independently_in_the_flat_layout() {
        // Heavy traffic in set 0 must not perturb set 1's eviction order.
        let mut st = FlatReplacement::new(ReplacementPolicy::Lru, 2, 2);
        st.on_fill(1, 0);
        st.on_fill(1, 1);
        for _ in 0..100 {
            st.on_fill(0, 0);
            st.on_hit(0, 1);
        }
        assert_eq!(st.oldest_way(1), 0, "set 1 order is untouched");
        st.on_hit(1, 0);
        assert_eq!(st.oldest_way(1), 1);
    }
}
