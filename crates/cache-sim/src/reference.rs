//! Slow reference implementation of the hierarchy walk, kept for
//! equivalence testing of the optimized hot path.
//!
//! [`ReferenceCacheSystem`] reproduces the pre-directory simulator: every
//! store broadcasts its invalidation to all O(levels × instances) cache
//! instances, inclusive evictions rebuild their sharer lists on the fly, and
//! there is no batched entry point — exactly the work the presence
//! directory, the precomputed back-invalidation maps and
//! [`crate::NodeCacheSystem::access_run`] optimize away. Its counters are
//! the ground truth: the equivalence property test replays randomized
//! multi-thread access streams through both implementations and requires
//! bit-identical [`NodeStats`].
//!
//! Each cache instance is a `NaiveCache` of its own: per set, a list of
//! `(tag, dirty, stamp)` ways under the age-stamp replacement rule, with
//! none of the optimized [`crate::SetAssocCache`]'s tag encoding, packed
//! rank words or set-index masks, so a replacement or lookup bug in the
//! optimized cache shows up as a counter mismatch instead of being shared.
//!
//! The one intentional semantic change of the optimized path is shared: a
//! victim of an inclusive eviction reaches memory at most once even when
//! both the outer copy and an inner copy are dirty.
//!
//! Only compiled for tests (or under the `reference` cargo feature, which
//! the workspace root enables for its integration test suite).

use crate::access::{Access, AccessKind, HitLevel};
use crate::cache::Eviction;
use crate::config::HierarchyConfig;
use crate::memory::MemoryController;
use crate::prefetch::PrefetchEngine;
use crate::replacement::ReplacementPolicy;
use crate::stats::{CacheStats, LevelStats, NodeStats};

/// One way of a [`NaiveCache`] set.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    /// The line held, `None` while the way is invalid.
    line: Option<u64>,
    dirty: bool,
    /// The set's tick at this way's last touch (0: never touched).
    stamp: u64,
}

/// A set-associative write-back cache written for clarity: one `Vec` of
/// ways per set, and age stamps for replacement. A touch (a fill, or a hit
/// under LRU) stamps the way with the set's incremented tick; the victim is
/// the first invalid way, else the way with the oldest stamp. An
/// invalidated way keeps its stamp.
struct NaiveCache {
    lru: bool,
    sets: Vec<Vec<Way>>,
    ticks: Vec<u64>,
    stats: CacheStats,
}

impl NaiveCache {
    fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        NaiveCache {
            lru: policy == ReplacementPolicy::Lru,
            sets: vec![vec![Way::default(); ways]; sets],
            ticks: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn way_of(&self, set: usize, line: u64) -> Option<usize> {
        self.sets[set].iter().position(|way| way.line == Some(line))
    }

    fn stamp(&mut self, set: usize, way: usize) {
        self.ticks[set] += 1;
        self.sets[set][way].stamp = self.ticks[set];
    }

    fn contains(&self, line: u64) -> bool {
        self.way_of(self.set_of(line), line).is_some()
    }

    fn lookup(&mut self, line: u64, is_write: bool) -> bool {
        let set = self.set_of(line);
        let Some(way) = self.way_of(set, line) else { return false };
        self.sets[set][way].dirty |= is_write;
        if self.lru {
            self.stamp(set, way);
        }
        true
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Eviction {
        if self.lookup(line, dirty) {
            return Eviction::None;
        }
        let set = self.set_of(line);
        let ways = &self.sets[set];
        let victim = ways.iter().position(|way| way.line.is_none()).unwrap_or_else(|| {
            (0..ways.len()).min_by_key(|&way| ways[way].stamp).expect("at least one way")
        });
        let old = ways[victim];
        self.sets[set][victim] = Way { line: Some(line), dirty, stamp: 0 };
        self.stamp(set, victim);
        self.stats.lines_in += 1;
        match old.line {
            None => Eviction::None,
            Some(evicted) => {
                self.stats.lines_out += 1;
                if old.dirty {
                    self.stats.writebacks += 1;
                    Eviction::Dirty(evicted)
                } else {
                    Eviction::Clean(evicted)
                }
            }
        }
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        let way = self.way_of(set, line)?;
        let dirty = self.sets[set][way].dirty;
        self.sets[set][way].line = None;
        self.sets[set][way].dirty = false;
        self.stats.lines_out += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(dirty)
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let Some(way) = self.way_of(set, line) else { return false };
        self.sets[set][way].dirty = true;
        true
    }
}

/// The unoptimized node-level cache system (see module docs).
pub struct ReferenceCacheSystem {
    config: HierarchyConfig,
    levels: Vec<Vec<NaiveCache>>,
    thread_instance: Vec<Vec<usize>>,
    memory: Vec<MemoryController>,
    prefetch: PrefetchEngine,
    thread_loads: Vec<u64>,
    thread_stores: Vec<u64>,
}

impl ReferenceCacheSystem {
    /// Build the hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        let mut levels = Vec::new();
        let mut thread_instance = Vec::new();
        for level in &config.levels {
            let n = config.instances_of(level);
            levels.push(
                (0..n)
                    .map(|_| NaiveCache::new(level.sets, level.ways, level.replacement))
                    .collect::<Vec<_>>(),
            );
            thread_instance.push(config.thread_instances(level));
        }
        let memory = (0..config.num_sockets).map(|_| MemoryController::default()).collect();
        let prefetch = PrefetchEngine::new(config.prefetch, config.num_threads);
        let thread_loads = vec![0; config.num_threads];
        let thread_stores = vec![0; config.num_threads];
        ReferenceCacheSystem {
            config,
            levels,
            thread_instance,
            memory,
            prefetch,
            thread_loads,
            thread_stores,
        }
    }

    fn l1_line_size(&self) -> u64 {
        self.config.levels.first().map(|l| l.line_size).unwrap_or(64)
    }

    /// Issue one memory access on behalf of hardware thread `thread`.
    pub fn access(&mut self, thread: usize, access: Access) -> HitLevel {
        assert!(thread < self.config.num_threads, "no such hardware thread {thread}");
        let socket = self.config.thread_socket[thread];

        if access.kind == AccessKind::NonTemporalStore {
            self.thread_stores[thread] += 1;
            let domain =
                self.config.numa_policy.domain_of(access.address) % self.config.num_sockets;
            self.memory[domain as usize].write(access.size as u64, socket, domain, true);
            return HitLevel::Streaming;
        }

        let (first, last) = access.line_range(self.l1_line_size());
        let is_write = access.kind.is_write();
        if access.kind.is_demand() {
            if is_write {
                self.thread_stores[thread] += 1;
            } else {
                self.thread_loads[thread] += 1;
            }
        }

        let mut worst = HitLevel::L1;
        for line in first..=last {
            let level = self.demand_line_access(thread, socket, access.address, line, is_write);
            if is_write {
                self.invalidate_other_copies(thread, line);
            }
            if level > worst {
                worst = level;
            }
        }
        worst
    }

    /// The broadcast coherence walk: probe every instance off the thread's
    /// own path, whether or not it holds the line.
    fn invalidate_other_copies(&mut self, thread: usize, line: u64) {
        for l in 0..self.levels.len() {
            let own = self.thread_instance[l][thread];
            for inst in 0..self.levels[l].len() {
                if inst != own {
                    self.levels[l][inst].invalidate(line);
                }
            }
        }
    }

    fn demand_line_access(
        &mut self,
        thread: usize,
        socket: u32,
        byte_address: u64,
        line: u64,
        is_write: bool,
    ) -> HitLevel {
        let num_levels = self.levels.len();
        let mut hit_level: Option<usize> = None;

        for l in 0..num_levels {
            let inst = self.thread_instance[l][thread];
            let cache = &mut self.levels[l][inst];
            cache.stats.accesses += 1;
            if is_write {
                cache.stats.stores += 1;
            } else {
                cache.stats.loads += 1;
            }
            if cache.lookup(line, is_write && l == 0) {
                cache.stats.hits += 1;
                hit_level = Some(l);
                break;
            } else {
                cache.stats.misses += 1;
            }
        }

        let l1_missed = !matches!(hit_level, Some(0));
        let l2_missed = hit_level.is_none_or(|l| l > 1);

        if hit_level.is_none() {
            let domain = self.config.numa_policy.domain_of(byte_address) % self.config.num_sockets;
            self.memory[domain as usize].read(self.config.memory_line_size, socket, domain);
        }

        let fill_from = hit_level.unwrap_or(num_levels);
        for l in (0..fill_from).rev() {
            let dirty = is_write && l == 0;
            self.fill_line(thread, socket, l, line, dirty);
        }

        let decision = self.prefetch.observe(thread, line, l1_missed, l2_missed);
        for &pline in decision.l1_lines() {
            self.prefetch_line(thread, socket, 0, pline);
        }
        for &pline in decision.l2_lines() {
            if num_levels > 1 {
                self.prefetch_line(thread, socket, 1, pline);
            }
        }

        match hit_level {
            Some(0) => HitLevel::L1,
            Some(1) => HitLevel::L2,
            Some(_) => HitLevel::L3,
            None => HitLevel::Memory,
        }
    }

    fn fill_line(&mut self, thread: usize, socket: u32, l: usize, line: u64, dirty: bool) {
        let inst = self.thread_instance[l][thread];
        let eviction = self.levels[l][inst].fill(line, dirty);
        self.handle_eviction(thread, socket, l, eviction);
    }

    /// Eviction handling with the per-eviction sharer-list rebuild the
    /// optimized path precomputes away (two `Vec` allocations per inclusive
    /// eviction).
    fn handle_eviction(&mut self, thread: usize, socket: u32, l: usize, eviction: Eviction) {
        let (victim, dirty) = match eviction {
            Eviction::None => return,
            Eviction::Clean(v) => (v, false),
            Eviction::Dirty(v) => (v, true),
        };

        let mut written_back = false;
        if dirty {
            self.writeback(thread, socket, l + 1, victim);
            written_back = true;
        }

        if self.config.levels[l].inclusive && l > 0 {
            let this_inst = self.thread_instance[l][thread];
            let sharers: Vec<usize> = (0..self.config.num_threads)
                .filter(|&t| self.thread_instance[l][t] == this_inst)
                .collect();
            for inner in 0..l {
                let mut seen = Vec::new();
                for &t in &sharers {
                    let inner_inst = self.thread_instance[inner][t];
                    if seen.contains(&inner_inst) {
                        continue;
                    }
                    seen.push(inner_inst);
                    if let Some(was_dirty) = self.levels[inner][inner_inst].invalidate(victim) {
                        if was_dirty && !written_back {
                            self.writeback(thread, socket, l + 1, victim);
                            written_back = true;
                        }
                    }
                }
            }
        }
    }

    fn writeback(&mut self, thread: usize, socket: u32, l: usize, line: u64) {
        if l >= self.levels.len() {
            let byte_address = line * self.config.memory_line_size;
            let domain = self.config.numa_policy.domain_of(byte_address) % self.config.num_sockets;
            self.memory[domain as usize].write(self.config.memory_line_size, socket, domain, false);
            return;
        }
        let inst = self.thread_instance[l][thread];
        if self.levels[l][inst].mark_dirty(line) {
            return;
        }
        let eviction = self.levels[l][inst].fill(line, true);
        self.handle_eviction(thread, socket, l, eviction);
    }

    fn prefetch_line(&mut self, thread: usize, socket: u32, l: usize, line: u64) {
        let inst = self.thread_instance[l][thread];
        self.levels[l][inst].stats.prefetch_requests += 1;
        if self.levels[l][inst].contains(line) {
            return;
        }
        let mut found_at = None;
        for outer in (l + 1)..self.levels.len() {
            let outer_inst = self.thread_instance[outer][thread];
            if self.levels[outer][outer_inst].contains(line) {
                found_at = Some(outer);
                break;
            }
        }
        if found_at.is_none() {
            let byte_address = line * self.config.memory_line_size;
            let domain = self.config.numa_policy.domain_of(byte_address) % self.config.num_sockets;
            self.memory[domain as usize].read(self.config.memory_line_size, socket, domain);
        }
        let fill_from = found_at.unwrap_or(self.levels.len());
        for level in (l..fill_from).rev() {
            let level_inst = self.thread_instance[level][thread];
            let eviction = {
                let cache = &mut self.levels[level][level_inst];
                let ev = cache.fill(line, false);
                if level == l {
                    cache.stats.prefetch_fills += 1;
                }
                ev
            };
            self.handle_eviction(thread, socket, level, eviction);
        }
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            levels: self
                .config
                .levels
                .iter()
                .zip(&self.levels)
                .map(|(cfg, instances)| LevelStats {
                    level: cfg.level,
                    instances: instances.iter().map(|c| c.stats).collect(),
                })
                .collect(),
            memory: self.memory.iter().map(|m| m.stats).collect(),
            thread_loads: self.thread_loads.clone(),
            thread_stores: self.thread_stores.clone(),
        }
    }
}
