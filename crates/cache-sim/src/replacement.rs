//! Replacement policies for the set-associative cache model.
//!
//! Real Intel/AMD caches use true LRU for small associativities and
//! pseudo-LRU (tree or NRU approximations) for larger ones. For the traffic
//! numbers this suite reproduces, the exact policy only matters at the
//! margin; both true LRU and a round-robin/FIFO policy are provided, and
//! tests pin down the eviction order they produce.
//!
//! Each set's recency order is a permutation of per-way *rank bytes*, packed
//! eight to a `u64` in `ceil(ways / 8)` rank words: rank 0 is the most
//! recently touched way, rank `ways - 1` the next victim. A fill takes the
//! oldest way under both policies, and under LRU a hit touches its way too,
//! so under FIFO the ranks are fill order. A fill ages every other way by
//! one with one add per word; a hit on the way with rank `r` ages only the
//! ways ranked below `r`, eight ways per word with a SWAR compare and add;
//! the victim is the one byte equal to `ways - 1`, again found eight ways
//! per word. A fresh set ranks way 0 oldest and way `ways - 1` newest, so
//! ways never touched rank as older than every touched way, lowest-numbered
//! first. Padding bytes past the last way hold `0x7f`, above every rank,
//! so no compare ever selects them.
//!
//! [`Recency::demote`] makes one way the oldest; the cache demotes every way
//! it invalidates, so invalid ways always rank oldest and the oldest way is
//! always the next victim.
//!
//! The words are stored XORed with the fresh set's words, so a fresh set
//! is all zeros: a cache's slab starts as one zeroed allocation, which the
//! allocator can hand out without writing a single page. The cache embeds
//! the words in its per-set slab; [`Recency`] only ever sees one set's.

/// Replacement policy selection for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    Lru,
    /// First-in first-out (round-robin victim selection).
    Fifo,
}

/// The lowest bit of every byte.
const LOW: u64 = 0x0101_0101_0101_0101;
/// The highest bit of every byte.
const HIGH: u64 = 0x8080_8080_8080_8080;
/// The value of a padding byte: above any rank (ranks stay below 64), and
/// with its high bit clear like every rank, so the SWAR arithmetic below
/// never carries between bytes.
const PAD: u64 = 0x7f;

/// One cache's replacement rule over packed rank words: the policy, the
/// associativity and the fresh set's words, shared by every set.
#[derive(Debug, Clone)]
pub struct Recency {
    policy: ReplacementPolicy,
    ways: usize,
    /// The actual rank words of a fresh set; stored words are XORed with
    /// these.
    fresh: [u64; 8],
    /// `fresh` XORed with `ways - 1` in every byte: a stored word XORed
    /// with this has a zero byte exactly at the oldest way.
    oldest_key: [u64; 8],
    /// 1 in every byte that holds a way, 0 in the padding bytes.
    way_ones: [u64; 8],
}

impl Recency {
    /// The rule for sets of `ways` ways (1 to 64) under `policy`.
    pub fn new(policy: ReplacementPolicy, ways: usize) -> Self {
        assert!((1..=64).contains(&ways), "rank bytes support 1 to 64 ways");
        let (mut fresh, mut way_ones) = ([0; 8], [0; 8]);
        for slot in 0..64 {
            let (word, shift) = (slot / 8, (slot % 8) * 8);
            if slot < ways {
                fresh[word] |= ((ways - 1 - slot) as u64) << shift;
                way_ones[word] |= 1 << shift;
            } else {
                fresh[word] |= PAD << shift;
            }
        }
        let oldest_key = fresh.map(|word| word ^ ((ways as u64 - 1) * LOW));
        Recency { policy, ways, fresh, oldest_key, way_ones }
    }

    /// Rank words per set; a fresh set's words are all zero.
    pub fn words(&self) -> usize {
        self.ways.div_ceil(8)
    }

    /// The rank of `way`: 0 for the most recently touched way.
    #[inline]
    fn rank(&self, ranks: &[u64], way: usize) -> u64 {
        let (i, shift) = (way / 8, (way % 8) * 8);
        ((ranks[i] ^ self.fresh[i]) >> shift) & 0xff
    }

    /// Store `rank` as the rank of `way`.
    #[inline]
    fn set_rank(&self, ranks: &mut [u64], way: usize, rank: u64) {
        let (i, shift) = (way / 8, (way % 8) * 8);
        let byte = 0xff << shift;
        ranks[i] = (ranks[i] & !byte) | (((rank << shift) ^ self.fresh[i]) & byte);
    }

    /// Make `way` the most recently touched way of its set: the ways ranked
    /// before it each age by one.
    #[inline]
    fn touch(&self, ranks: &mut [u64], way: usize) {
        let old = self.rank(ranks, way);
        // Repeated touches of the newest way take this path.
        if old == 0 {
            return;
        }
        let threshold = old * LOW;
        for (word, fresh) in ranks.iter_mut().zip(&self.fresh) {
            let actual = *word ^ fresh;
            // Per byte, `(b | 0x80) - old` keeps its high bit exactly when
            // `b >= old`; no byte borrows from its neighbour because
            // `0x80 + b - old` stays positive. The bytes below `old` age by
            // one.
            let younger = !((actual | HIGH) - threshold) & HIGH;
            *word = (actual + (younger >> 7)) ^ fresh;
        }
        self.set_rank(ranks, way, 0);
    }

    /// Make `way` the least recently touched way of its set: the ways
    /// ranked after it each become one step younger, and the order of all
    /// the others is unchanged.
    #[inline]
    pub fn demote(&self, ranks: &mut [u64], way: usize) {
        let old = self.rank(ranks, way);
        let oldest = self.ways as u64 - 1;
        if old == oldest {
            return;
        }
        let (after, padding) = ((old + 1) * LOW, self.ways as u64 * LOW);
        for (word, fresh) in ranks.iter_mut().zip(&self.fresh) {
            let actual = *word ^ fresh;
            // The same borrow-free compare as in `touch`: the bytes ranked
            // from `old + 1` up to the oldest rank step one rank younger;
            // padding bytes rank above `ways - 1` and stay.
            let from_after = (actual | HIGH) - after;
            let from_padding = (actual | HIGH) - padding;
            let moving = from_after & !from_padding & HIGH;
            *word = (actual - (moving >> 7)) ^ fresh;
        }
        self.set_rank(ranks, way, oldest);
    }

    /// Take the oldest way for a fill and return it: it becomes the most
    /// recently touched way, and every other way ages by one.
    #[inline]
    pub fn fill(&self, ranks: &mut [u64]) -> usize {
        let way = self.oldest_way(ranks);
        for ((word, fresh), ones) in ranks.iter_mut().zip(&self.fresh).zip(&self.way_ones) {
            // The oldest byte becomes `ways`, still below 0x80, and is
            // reset below.
            *word = ((*word ^ fresh) + ones) ^ fresh;
        }
        self.set_rank(ranks, way, 0);
        way
    }

    /// Record a hit on `way`. FIFO ignores hits: age is fill order only.
    #[inline]
    pub fn on_hit(&self, ranks: &mut [u64], way: usize) {
        if self.policy == ReplacementPolicy::Lru {
            self.touch(ranks, way);
        }
    }

    /// Whether a hit on `way` would leave the eviction order unchanged:
    /// FIFO ignores hits, and under LRU a touch of the most recently
    /// touched way moves nothing.
    #[inline]
    pub fn hit_is_order_neutral(&self, ranks: &[u64], way: usize) -> bool {
        self.policy == ReplacementPolicy::Fifo || self.rank(ranks, way) == 0
    }

    /// The least recently touched way of the set (ways never touched rank
    /// oldest, lowest-numbered first).
    #[inline]
    pub fn oldest_way(&self, ranks: &[u64]) -> usize {
        for (i, (word, key)) in ranks.iter().zip(&self.oldest_key).enumerate() {
            // Per byte, `word ^ key` is zero exactly at the victim; adding
            // 0x7f sets the high bit of every nonzero byte and carries
            // nowhere, since no byte has its high bit set.
            let is_oldest = !((word ^ key) + PAD * LOW) & HIGH;
            if is_oldest != 0 {
                return i * 8 + (is_oldest.trailing_zeros() / 8) as usize;
            }
        }
        unreachable!("the rank bytes of a set are a permutation of 0..ways")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ReplacementPolicy::{Fifo, Lru};

    /// The rule for `ways` ways under `policy`, and one fresh set's words.
    fn one_set(policy: ReplacementPolicy, ways: usize) -> (Recency, Vec<u64>) {
        let recency = Recency::new(policy, ways);
        let ranks = vec![0; recency.words()];
        (recency, ranks)
    }

    #[test]
    fn invalid_ways_are_used_before_eviction() {
        let (rule, mut st) = one_set(Lru, 4);
        assert_eq!(rule.fill(&mut st), 0);
        assert_eq!(rule.fill(&mut st), 1);
        // Ways 2 and 3 were never filled, so they rank before any eviction.
        let victim = rule.oldest_way(&st);
        assert!(victim == 2 || victim == 3);
    }

    #[test]
    fn lru_evicts_the_least_recently_touched_way() {
        let (rule, mut st) = one_set(Lru, 4);
        for w in 0..4 {
            assert_eq!(rule.fill(&mut st), w);
        }
        // Touch 0 again; way 1 becomes the LRU victim.
        rule.on_hit(&mut st, 0);
        assert_eq!(rule.oldest_way(&st), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let (rule, mut st) = one_set(Fifo, 4);
        for _ in 0..4 {
            rule.fill(&mut st);
        }
        rule.on_hit(&mut st, 0);
        rule.on_hit(&mut st, 0);
        assert_eq!(rule.oldest_way(&st), 0, "FIFO still evicts the oldest fill");
    }

    #[test]
    fn lru_eviction_order_is_exact_on_a_tiny_set() {
        // 3-way set, fills into ways 0, 1, 2, then a precise touch sequence;
        // the victim must always be the unique least-recently-touched way.
        let (rule, mut st) = one_set(Lru, 3);
        for _ in 0..3 {
            rule.fill(&mut st);
        }
        assert_eq!(rule.oldest_way(&st), 0, "oldest fill is the first victim");
        rule.on_hit(&mut st, 0); // order now: 1, 2, 0
        assert_eq!(rule.oldest_way(&st), 1);
        rule.on_hit(&mut st, 1); // order now: 2, 0, 1
        assert_eq!(rule.fill(&mut st), 2, "refilling way 2 refreshes it: order 0, 1, 2");
        assert_eq!(rule.oldest_way(&st), 0);
        // A full round of hits in reverse order inverts the ranking.
        rule.on_hit(&mut st, 2);
        rule.on_hit(&mut st, 1);
        rule.on_hit(&mut st, 0); // order now: 2, 1, 0
        assert_eq!(rule.oldest_way(&st), 2);
    }

    #[test]
    fn lru_and_fifo_diverge_after_a_hit() {
        // Identical fill sequences; only LRU lets the hit rescue way 0.
        let (lru, mut lru_set) = one_set(Lru, 2);
        let (fifo, mut fifo_set) = one_set(Fifo, 2);
        for (rule, st) in [(&lru, &mut lru_set), (&fifo, &mut fifo_set)] {
            rule.fill(st);
            rule.fill(st);
            rule.on_hit(st, 0);
        }
        assert_eq!(lru.oldest_way(&lru_set), 1);
        assert_eq!(fifo.oldest_way(&fifo_set), 0);
    }

    #[test]
    fn repeated_fills_cycle_through_ways_under_fifo() {
        let (rule, mut st) = one_set(Fifo, 2);
        let fills: Vec<usize> = (0..5).map(|_| rule.fill(&mut st)).collect();
        assert_eq!(fills, [0, 1, 0, 1, 0]);
    }

    #[test]
    fn untouched_ways_are_oldest_lowest_first() {
        let (rule, mut st) = one_set(Lru, 4);
        assert_eq!(rule.oldest_way(&st), 0);
        rule.on_hit(&mut st, 0);
        rule.on_hit(&mut st, 2);
        assert_eq!(rule.oldest_way(&st), 1, "way 1 was never touched");
        rule.on_hit(&mut st, 1);
        assert_eq!(rule.oldest_way(&st), 3);
        rule.on_hit(&mut st, 3);
        assert_eq!(rule.oldest_way(&st), 0, "every way touched: the least recent");
    }

    #[test]
    fn sets_age_independently_in_the_flat_layout() {
        // Two 2-way sets side by side in one slab of rank words: heavy
        // traffic in set 0 must not perturb set 1's eviction order.
        let rule = Recency::new(Lru, 2);
        let mut slab = vec![0; 2 * rule.words()];
        let (set0, set1) = slab.split_at_mut(rule.words());
        rule.fill(set1);
        rule.fill(set1);
        for _ in 0..100 {
            rule.fill(set0);
            rule.on_hit(set0, 1);
        }
        assert_eq!(rule.oldest_way(set1), 0, "set 1 order is untouched");
        rule.on_hit(set1, 0);
        assert_eq!(rule.oldest_way(set1), 1);
    }

    #[test]
    fn demote_makes_a_way_the_oldest_and_keeps_the_others_in_order() {
        let (rule, mut st) = one_set(Lru, 12);
        for _ in 0..12 {
            rule.fill(&mut st);
        }
        // Order, newest first: 11, 10, …, 0. Way 9 (rank 2) goes last.
        rule.demote(&mut st, 9);
        assert_eq!(rule.fill(&mut st), 9);
        // The others keep their order: 0, then 1, …
        for w in (0..12).filter(|&w| w != 9) {
            assert_eq!(rule.fill(&mut st), w);
        }
        assert!(rule.hit_is_order_neutral(&st, 11));
        rule.demote(&mut st, 11);
        assert_eq!(rule.oldest_way(&st), 11);
        rule.demote(&mut st, 11);
        assert_eq!(rule.oldest_way(&st), 11);
    }

    #[test]
    fn ranks_span_every_rank_word_of_a_64_way_set() {
        // Fill every way, then touch way 0 again: the victim walks across
        // all eight rank words.
        let (rule, mut st) = one_set(Lru, 64);
        for w in 0..64 {
            assert_eq!(rule.fill(&mut st), w);
        }
        assert_eq!(rule.oldest_way(&st), 0);
        rule.on_hit(&mut st, 0);
        assert_eq!(rule.oldest_way(&st), 1);
        rule.on_hit(&mut st, 63);
        assert_eq!(rule.oldest_way(&st), 1);
        assert!(rule.hit_is_order_neutral(&st, 63));
        assert!(!rule.hit_is_order_neutral(&st, 0));
    }
}
