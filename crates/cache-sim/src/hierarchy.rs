//! The node-level cache system: all cache instances, prefetchers and memory
//! controllers of one machine, driven by per-hardware-thread access streams.
//!
//! Hot-path design (see also the "Simulator performance model" section of
//! the README): the per-access walk is allocation-free. Coherence
//! invalidations are routed through a *presence directory* — a map from
//! line address to a bitmask of the cache instances that may hold the line —
//! so a store probes only actual sharers instead of broadcasting to every
//! instance in the node. Inclusive back-invalidation targets are precomputed
//! per (level, instance) at construction. For dense same-line access
//! sequences, [`NodeCacheSystem::access_run`] collapses the repeats into
//! counter updates without re-walking the hierarchy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::access::{Access, AccessKind, HitLevel};
use crate::cache::{Eviction, SetAssocCache};
use crate::config::HierarchyConfig;
use crate::memory::MemoryController;
use crate::prefetch::PrefetchEngine;
use crate::stats::{LevelStats, NodeStats};

/// Multiplicative hasher for line addresses: the directory is keyed by line
/// numbers (sequential, low-entropy), for which one odd-constant multiply
/// mixes far faster than the default SipHash.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        // Fibonacci hashing: one multiply, upper bits well mixed.
        self.0 = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Lines per directory page (64 consecutive lines share one hashed entry).
const DIR_PAGE_LINES: usize = 64;

/// One directory page: presence masks for 64 consecutive lines plus an
/// occupancy count so empty pages can be dropped. Streaming access patterns
/// touch the same handful of pages for 64 lines in a row, so the hot pages
/// stay cache-resident and per-line updates are plain array writes instead
/// of hash-table insert/remove churn.
struct DirPage {
    masks: [u64; DIR_PAGE_LINES],
    occupied: u32,
}

impl DirPage {
    fn empty() -> Box<DirPage> {
        Box::new(DirPage { masks: [0; DIR_PAGE_LINES], occupied: 0 })
    }
}

/// line address (grouped by page) → bitmask of cache instances per line.
type PresenceDirectory = HashMap<u64, Box<DirPage>, BuildHasherDefault<LineHasher>>;

/// The complete simulated memory hierarchy of a node.
///
/// One instance is created per simulated benchmark run. The workload
/// execution engine calls [`NodeCacheSystem::access`] (or the batched
/// [`NodeCacheSystem::access_run`]) for every memory operation of every
/// (simulated) application thread; afterwards the counters are read back —
/// either directly via [`NodeCacheSystem::stats`] or, in the full
/// reproduction pipeline, through the architectural event layer of
/// `likwid-perf-events`.
pub struct NodeCacheSystem {
    config: HierarchyConfig,
    /// `levels[l]` holds all instances of cache level `l` in the node.
    levels: Vec<Vec<SetAssocCache>>,
    /// `thread_instance[l][t]` is the instance of level `l` used by thread `t`.
    thread_instance: Vec<Vec<usize>>,
    /// One memory controller per socket.
    memory: Vec<MemoryController>,
    prefetch: PrefetchEngine,
    thread_loads: Vec<u64>,
    thread_stores: Vec<u64>,
    /// Directory bit offset of each level's first instance.
    instance_base: Vec<u32>,
    /// Directory bit → (level, instance) decode table.
    bit_instance: Vec<(u32, u32)>,
    /// Directory bits of the instances on each thread's own lookup path.
    own_path_mask: Vec<u64>,
    /// Which instances may hold each line. Invariant: the mask is always a
    /// *superset* of the instances actually holding the line (probing a
    /// non-holder is a harmless no-op; missing a holder would lose
    /// invalidations), and with the exact maintenance below it stays equal.
    directory: PresenceDirectory,
    /// False when the node has more than 64 cache instances; coherence then
    /// falls back to the broadcast walk.
    directory_enabled: bool,
    /// One-entry cache in front of the directory hash map: the page of the
    /// most recent fill, held outside the map. Streaming fills hit the same
    /// page 64 lines in a row, so the common directory update is an array
    /// write with one comparison instead of a hash probe. The hot page is
    /// logically part of the directory; every query consults it first.
    hot_page: Option<(u64, Box<DirPage>)>,
    /// `back_inval[l][inst]`: precomputed (inner level, inner instance)
    /// targets of an inclusive eviction, see
    /// [`HierarchyConfig::back_invalidation_map`].
    back_inval: Vec<Vec<Vec<(usize, usize)>>>,
    /// `inner_mask[l][inst]`: the same targets as directory bits, so the
    /// eviction path can intersect them with the victim's presence mask and
    /// probe only instances that actually hold the victim.
    inner_mask: Vec<Vec<u64>>,
    /// log2 of the L1 line size when it is a power of two, so the
    /// per-access line split is a shift instead of two divisions.
    line_shift: Option<u32>,
}

impl NodeCacheSystem {
    /// Build the hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        let mut levels = Vec::new();
        let mut thread_instance = Vec::new();
        let mut instance_base = Vec::new();
        let mut bit_instance = Vec::new();
        let mut bits = 0u32;
        for (l, level) in config.levels.iter().enumerate() {
            let n = config.instances_of(level);
            instance_base.push(bits);
            for inst in 0..n {
                bit_instance.push((l as u32, inst as u32));
            }
            bits = bits.saturating_add(n as u32);
            levels.push(
                (0..n)
                    .map(|_| SetAssocCache::new(level.sets, level.ways, level.replacement))
                    .collect::<Vec<_>>(),
            );
            thread_instance.push(
                (0..config.num_threads)
                    .map(|t| config.instance_for_thread(level, t))
                    .collect::<Vec<_>>(),
            );
        }
        let directory_enabled = bits <= u64::BITS;
        let own_path_mask = (0..config.num_threads)
            .map(|t| {
                thread_instance
                    .iter()
                    .enumerate()
                    .map(|(l, per_thread)| {
                        1u64.checked_shl(instance_base[l] + per_thread[t] as u32).unwrap_or(0)
                    })
                    .fold(0, |acc, bit| acc | bit)
            })
            .collect();
        let back_inval = config.back_invalidation_map();
        let inner_mask = back_inval
            .iter()
            .map(|instances| {
                instances
                    .iter()
                    .map(|targets| {
                        targets
                            .iter()
                            .map(|&(l, inst)| {
                                1u64.checked_shl(instance_base[l] + inst as u32).unwrap_or(0)
                            })
                            .fold(0, |acc, bit| acc | bit)
                    })
                    .collect()
            })
            .collect();
        let memory = (0..config.num_sockets).map(|_| MemoryController::default()).collect();
        let prefetch = PrefetchEngine::new(config.prefetch, config.num_threads);
        let thread_loads = vec![0; config.num_threads];
        let thread_stores = vec![0; config.num_threads];
        let l1_line = config.levels.first().map(|l| l.line_size).unwrap_or(64);
        let line_shift = l1_line.is_power_of_two().then(|| l1_line.trailing_zeros());
        NodeCacheSystem {
            config,
            levels,
            thread_instance,
            memory,
            prefetch,
            thread_loads,
            thread_stores,
            instance_base,
            bit_instance,
            own_path_mask,
            directory: PresenceDirectory::default(),
            directory_enabled,
            hot_page: None,
            back_inval,
            inner_mask,
            line_shift,
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Line size of the innermost level, used to split accesses into lines.
    fn l1_line_size(&self) -> u64 {
        self.config.levels.first().map(|l| l.line_size).unwrap_or(64)
    }

    /// First and last line touched by `size` bytes at `address` — one shift
    /// each when the line size is a power of two (every preset).
    #[inline]
    fn split_lines(&self, address: u64, size: u32) -> (u64, u64) {
        let end = address + size.max(1) as u64 - 1;
        match self.line_shift {
            Some(shift) => (address >> shift, end >> shift),
            None => {
                let line_size = self.l1_line_size();
                (address / line_size, end / line_size)
            }
        }
    }

    /// The memory controller index homing `address`. `domain_of` already
    /// returns an in-range domain for every sane policy; the modulo runs
    /// only for configs whose policy names more domains than sockets.
    #[inline]
    fn home_domain(&self, address: u64) -> u32 {
        let domain = self.config.numa_policy.domain_of(address);
        if domain < self.config.num_sockets {
            domain
        } else {
            domain % self.config.num_sockets
        }
    }

    #[inline]
    fn dir_bit(&self, level: usize, inst: usize) -> u64 {
        // checked_shl: callers compute bits even when the directory is
        // disabled because the node has more than 64 instances; the bit is
        // then 0 (and unused) instead of a shift overflow.
        1u64.checked_shl(self.instance_base[level] + inst as u32).unwrap_or(0)
    }

    /// The presence mask of `line` (0 when untracked).
    #[inline]
    fn dir_mask(&self, line: u64) -> u64 {
        let page_key = line / DIR_PAGE_LINES as u64;
        if let Some((hot_key, page)) = &self.hot_page {
            if *hot_key == page_key {
                return page.masks[(line % DIR_PAGE_LINES as u64) as usize];
            }
        }
        self.directory
            .get(&page_key)
            .map(|page| page.masks[(line % DIR_PAGE_LINES as u64) as usize])
            .unwrap_or(0)
    }

    /// Merge `bits` into `line`'s presence mask; returns the merged mask
    /// (so a store right after its write-allocate fill can reuse it instead
    /// of looking the line up again). The line's page becomes the hot page.
    #[inline]
    fn dir_or(&mut self, line: u64, bits: u64) -> u64 {
        if !self.directory_enabled || bits == 0 {
            return 0;
        }
        let page_key = line / DIR_PAGE_LINES as u64;
        if self.hot_page.as_ref().is_none_or(|(hot_key, _)| *hot_key != page_key) {
            let page = self.directory.remove(&page_key).unwrap_or_else(DirPage::empty);
            if let Some((old_key, old_page)) = self.hot_page.replace((page_key, page)) {
                self.directory.insert(old_key, old_page);
            }
        }
        let (_, page) = self.hot_page.as_mut().expect("hot page just installed");
        let mask = &mut page.masks[(line % DIR_PAGE_LINES as u64) as usize];
        if *mask == 0 {
            page.occupied += 1;
        }
        *mask |= bits;
        *mask
    }

    /// Clear `bits` from `line`'s presence mask; returns the remaining mask.
    /// Pages whose last line went away are dropped, so directory memory is
    /// bounded by the resident working set, not by the touched footprint.
    #[inline]
    fn dir_and_not(&mut self, line: u64, bits: u64) -> u64 {
        if !self.directory_enabled {
            return 0;
        }
        let page_key = line / DIR_PAGE_LINES as u64;
        if let Some((hot_key, page)) = &mut self.hot_page {
            if *hot_key == page_key {
                let mask = &mut page.masks[(line % DIR_PAGE_LINES as u64) as usize];
                if *mask == 0 {
                    return 0;
                }
                *mask &= !bits;
                let remaining = *mask;
                if remaining == 0 {
                    page.occupied -= 1;
                    if page.occupied == 0 {
                        self.hot_page = None;
                    }
                }
                return remaining;
            }
        }
        let Some(page) = self.directory.get_mut(&page_key) else {
            return 0;
        };
        let mask = &mut page.masks[(line % DIR_PAGE_LINES as u64) as usize];
        if *mask == 0 {
            return 0;
        }
        *mask &= !bits;
        let remaining = *mask;
        if remaining == 0 {
            page.occupied -= 1;
            if page.occupied == 0 {
                self.directory.remove(&page_key);
            }
        }
        remaining
    }

    /// Issue one memory access on behalf of hardware thread `thread`.
    ///
    /// Returns the slowest level that had to be consulted to satisfy the
    /// access (for multi-line accesses, the worst line).
    pub fn access(&mut self, thread: usize, access: Access) -> HitLevel {
        assert!(thread < self.config.num_threads, "no such hardware thread {thread}");
        let socket = self.config.thread_socket[thread];

        if access.kind == AccessKind::NonTemporalStore {
            self.thread_stores[thread] += 1;
            let domain = self.home_domain(access.address);
            self.memory[domain as usize].write(access.size as u64, socket, domain, true);
            return HitLevel::Streaming;
        }

        let (first, last) = self.split_lines(access.address, access.size);
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
            let (level, mask) =
                self.demand_line_access(thread, socket, access.address, line, is_write);
            if is_write {
                // Invalidation-based coherence: a store makes every copy of
                // the line outside the writer's own cache path stale. This
                // is what turns the wavefront plane hand-off into memory
                // traffic when producer and consumer do not share a cache.
                self.invalidate_other_copies(thread, line, mask);
            }
            if level > worst {
                worst = level;
            }
        }
        worst
    }

    /// Issue `count` accesses of `size` bytes each at `base`, `base +
    /// stride`, `base + 2*stride`, … on behalf of `thread` — the batched
    /// equivalent of calling [`NodeCacheSystem::access`] once per element,
    /// with bit-identical statistics.
    ///
    /// Runs whose stride is smaller than the line size revisit each line
    /// several times in a row; the repeats are collapsed into plain counter
    /// updates (the hierarchy walk, replacement update and coherence probe
    /// of a repeat cannot change any state the first access did not already
    /// settle). Returns the worst hit level over the whole run.
    pub fn access_run(
        &mut self,
        thread: usize,
        base: u64,
        stride: i64,
        count: u64,
        size: u32,
        kind: AccessKind,
    ) -> HitLevel {
        assert!(thread < self.config.num_threads, "no such hardware thread {thread}");
        assert!(size > 0, "zero-size access run");
        let socket = self.config.thread_socket[thread];

        if kind == AccessKind::NonTemporalStore {
            if count == 0 {
                return HitLevel::Streaming;
            }
            for i in 0..count {
                let address = base.wrapping_add((i as i64).wrapping_mul(stride) as u64);
                self.thread_stores[thread] += 1;
                let domain = self.home_domain(address);
                self.memory[domain as usize].write(size as u64, socket, domain, true);
            }
            return HitLevel::Streaming;
        }

        let is_write = kind.is_write();
        let is_demand = kind.is_demand();
        let mut worst = HitLevel::L1;
        // The line whose repeats are currently being collapsed, and how many
        // repeats have accumulated.
        let mut pending: Option<(u64, u64)> = None;
        for i in 0..count {
            let address = base.wrapping_add((i as i64).wrapping_mul(stride) as u64);
            let (first, last) = self.split_lines(address, size);
            if first == last {
                if let Some((line, ref mut repeats)) = pending {
                    if line == first {
                        *repeats += 1;
                        continue;
                    }
                }
                self.flush_repeats(thread, pending.take(), is_write, is_demand);
                if is_demand {
                    if is_write {
                        self.thread_stores[thread] += 1;
                    } else {
                        self.thread_loads[thread] += 1;
                    }
                }
                let (level, mask) =
                    self.demand_line_access(thread, socket, address, first, is_write);
                if is_write {
                    self.invalidate_other_copies(thread, first, mask);
                }
                if level > worst {
                    worst = level;
                }
                // Collapse subsequent repeats only while a repeat's L1 hit
                // would change nothing but counters: the line must still be
                // resident AND its replacement touch must be order-neutral
                // (already the MRU way, or a FIFO set). Prefetches this
                // access triggered can violate both in a degenerate L1 by
                // filling the same set; each repeat then takes the full walk.
                let l1_inst = self.thread_instance[0][thread];
                if self.levels[0][l1_inst].repeat_hit_is_collapsible(first) {
                    pending = Some((first, 0));
                }
            } else {
                // Line-straddling element: no collapsing, take the full path.
                self.flush_repeats(thread, pending.take(), is_write, is_demand);
                let level = self.access(thread, Access { address, size, kind });
                if level > worst {
                    worst = level;
                }
            }
        }
        self.flush_repeats(thread, pending, is_write, is_demand);
        worst
    }

    /// Apply the statistics of `repeats` collapsed same-line L1 hits.
    ///
    /// In the unbatched walk each repeat performs: thread counter, L1 demand
    /// counters (access + hit), an MRU touch on an already-MRU way (cannot
    /// change any future victim choice), a zero-stride prefetcher
    /// observation (idempotent), and — for stores — a coherence probe of a
    /// line whose foreign copies the first store already invalidated (a
    /// no-op). Only the counters and the one prefetcher reset survive.
    fn flush_repeats(
        &mut self,
        thread: usize,
        pending: Option<(u64, u64)>,
        is_write: bool,
        is_demand: bool,
    ) {
        let Some((line, repeats)) = pending else { return };
        if repeats == 0 {
            return;
        }
        if is_demand {
            if is_write {
                self.thread_stores[thread] += repeats;
            } else {
                self.thread_loads[thread] += repeats;
            }
        }
        let inst = self.thread_instance[0][thread];
        let stats = &mut self.levels[0][inst].stats;
        stats.accesses += repeats;
        stats.hits += repeats;
        if is_write {
            stats.stores += repeats;
        } else {
            stats.loads += repeats;
        }
        self.prefetch.observe_repeats(thread, line);
    }

    /// Invalidate `line` in every cache instance that is not on `thread`'s
    /// own lookup path (other cores' private caches, other sockets' shared
    /// caches).
    ///
    /// With the presence directory this probes only instances that actually
    /// hold the line — zero work for thread-private data; without it (more
    /// than 64 instances in the node) it broadcasts like real snoop-based
    /// coherence would. `known_mask` passes along a presence mask the caller
    /// already obtained from the line's write-allocate fill (the mask may
    /// over-approximate by the lines the fill's own prefetches evicted,
    /// which only causes no-op probes).
    fn invalidate_other_copies(&mut self, thread: usize, line: u64, known_mask: Option<u64>) {
        if self.directory_enabled {
            let mask = match known_mask {
                Some(mask) => mask,
                None => self.dir_mask(line),
            };
            let others = mask & !self.own_path_mask[thread];
            if others == 0 {
                return;
            }
            let mut pending = others;
            while pending != 0 {
                let bit = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let (l, inst) = self.bit_instance[bit];
                self.levels[l as usize][inst as usize].invalidate(line);
            }
            self.dir_and_not(line, others);
        } else {
            for l in 0..self.levels.len() {
                let own = self.thread_instance[l][thread];
                for inst in 0..self.levels[l].len() {
                    if inst != own {
                        self.levels[l][inst].invalidate(line);
                    }
                }
            }
        }
    }

    /// Demand access to one line: walk the hierarchy, fill on the way back,
    /// then let the prefetchers react.
    fn demand_line_access(
        &mut self,
        thread: usize,
        socket: u32,
        byte_address: u64,
        line: u64,
        is_write: bool,
    ) -> (HitLevel, Option<u64>) {
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

        // Fetch from memory if no level had the line.
        if hit_level.is_none() {
            let domain = self.home_domain(byte_address);
            self.memory[domain as usize].read(self.config.memory_line_size, socket, domain);
        }

        // Fill the line into every level between the hit level (exclusive)
        // and L1, innermost last so the dirty bit lands in L1 for stores.
        // The line's new presence bits are batched into one directory
        // update after the loop (the victims evicted along the way are
        // other lines, handled per eviction).
        let fill_from = hit_level.unwrap_or(num_levels);
        let mut line_mask = None;
        if fill_from > 0 {
            let mut filled_bits = 0u64;
            for l in (0..fill_from).rev() {
                // The line becomes dirty only in L1 (write-back propagates
                // dirtiness outward on eviction). The lookup above just
                // missed these levels, so the duplicate scan is skipped.
                let dirty = is_write && l == 0;
                let inst = self.thread_instance[l][thread];
                let eviction = self.levels[l][inst].fill_absent(line, dirty);
                filled_bits |= self.dir_bit(l, inst);
                self.handle_eviction(thread, socket, l, inst, eviction);
            }
            if self.directory_enabled {
                line_mask = Some(self.dir_or(line, filled_bits));
            }
        }

        // Prefetcher reaction (demand accesses only).
        let decision = self.prefetch.observe(thread, line, l1_missed, l2_missed);
        for &pline in decision.l1_lines() {
            self.prefetch_line(thread, socket, 0, pline);
        }
        for &pline in decision.l2_lines() {
            if num_levels > 1 {
                self.prefetch_line(thread, socket, 1, pline);
            }
        }

        let level = match hit_level {
            Some(0) => HitLevel::L1,
            Some(1) => HitLevel::L2,
            Some(_) => HitLevel::L3,
            None => HitLevel::Memory,
        };
        (level, line_mask)
    }

    /// Process the eviction caused by a fill into instance `inst` of level
    /// `l`: drop the victim's presence bit, write dirty data outward and
    /// back-invalidate inner levels if `l` is inclusive.
    ///
    /// With the directory, the victim's remaining presence mask intersected
    /// with the precomputed inner-instance mask tells exactly which inner
    /// caches still hold the victim — for streaming traffic (the victim left
    /// the small inner levels long before leaving the large outer one) that
    /// intersection is empty and the whole back-invalidation walk vanishes.
    ///
    /// The victim reaches the next level (or memory) at most once: if the
    /// outer copy was dirty it is written back, and a dirty inner copy found
    /// during back-invalidation only triggers the writeback when the outer
    /// copy had not already paid it — one memory write per evicted line.
    fn handle_eviction(
        &mut self,
        thread: usize,
        socket: u32,
        l: usize,
        inst: usize,
        eviction: Eviction,
    ) {
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

        if self.directory_enabled {
            // Clear the victim's bit for this instance; what remains tells
            // which (if any) inner instances need back-invalidation.
            let remaining = self.dir_and_not(victim, self.dir_bit(l, inst));
            let holders = remaining & self.inner_mask[l][inst];
            if holders != 0 {
                let mut pending = holders;
                while pending != 0 {
                    let holder_bit = pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let (inner_level, inner_inst) = self.bit_instance[holder_bit];
                    if let Some(was_dirty) =
                        self.levels[inner_level as usize][inner_inst as usize].invalidate(victim)
                    {
                        if was_dirty && !written_back {
                            // The inner copy was newer; it must reach memory
                            // (once).
                            self.writeback(thread, socket, l + 1, victim);
                            written_back = true;
                        }
                    }
                }
                self.dir_and_not(victim, holders);
            }
        } else {
            // Broadcast fallback: probe every precomputed inner instance.
            for i in 0..self.back_inval[l][inst].len() {
                let (inner_level, inner_inst) = self.back_inval[l][inst][i];
                if let Some(was_dirty) = self.levels[inner_level][inner_inst].invalidate(victim) {
                    if was_dirty && !written_back {
                        self.writeback(thread, socket, l + 1, victim);
                        written_back = true;
                    }
                }
            }
        }
    }

    /// Write a dirty line back into level `l` (or memory if past the LLC).
    fn writeback(&mut self, thread: usize, socket: u32, l: usize, line: u64) {
        if l >= self.levels.len() {
            let byte_address = line * self.config.memory_line_size;
            let domain = self.home_domain(byte_address);
            self.memory[domain as usize].write(self.config.memory_line_size, socket, domain, false);
            return;
        }
        let inst = self.thread_instance[l][thread];
        if self.levels[l][inst].mark_dirty(line) {
            return;
        }
        // Non-inclusive outer level did not hold the line (the mark_dirty
        // probe said so): allocate it there as dirty (victim-cache style
        // fill).
        let eviction = self.levels[l][inst].fill_absent(line, true);
        self.dir_or(line, self.dir_bit(l, inst));
        self.handle_eviction(thread, socket, l, inst, eviction);
    }

    /// Bring `line` into level `l` as a prefetch (no demand statistics, no
    /// further prefetch recursion). The fill follows the same path as a
    /// demand fill: if the line has to come from memory it is allocated in
    /// every level from the outermost inwards, so prefetched lines are
    /// visible in the shared cache like on the (mostly inclusive) real
    /// hierarchies.
    fn prefetch_line(&mut self, thread: usize, socket: u32, l: usize, line: u64) {
        let inst = self.thread_instance[l][thread];
        self.levels[l][inst].stats.prefetch_requests += 1;
        if self.levels[l][inst].contains(line) {
            return;
        }
        // Find the innermost outer level that already has the line.
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
            let domain = self.home_domain(byte_address);
            self.memory[domain as usize].read(self.config.memory_line_size, socket, domain);
        }
        let fill_from = found_at.unwrap_or(self.levels.len());
        if fill_from > l {
            let mut filled_bits = 0u64;
            for level in (l..fill_from).rev() {
                // Every level in l..fill_from was just probed and found
                // empty, so the duplicate scan is skipped.
                let level_inst = self.thread_instance[level][thread];
                let eviction = self.levels[level][level_inst].fill_absent(line, false);
                filled_bits |= self.dir_bit(level, level_inst);
                if level == l {
                    self.levels[level][level_inst].stats.prefetch_fills += 1;
                }
                self.handle_eviction(thread, socket, level, level_inst, eviction);
            }
            self.dir_or(line, filled_bits);
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

    /// Whether the exact presence directory is active (64 or fewer cache
    /// instances). The sharded engine's residency analysis needs it; without
    /// it every cross-shard store must be treated as a potential conflict.
    pub(crate) fn directory_enabled(&self) -> bool {
        self.directory_enabled
    }

    /// Lines per presence-directory page (page key = line / this).
    pub(crate) fn dir_page_lines() -> u64 {
        DIR_PAGE_LINES as u64
    }

    /// Whether any line of directory page `page_key` is resident somewhere
    /// in this node. Meaningless when the directory is disabled.
    pub(crate) fn dir_page_occupied(&self, page_key: u64) -> bool {
        if let Some((hot_key, _)) = &self.hot_page {
            if *hot_key == page_key {
                return true;
            }
        }
        self.directory.contains_key(&page_key)
    }

    /// Number of occupied directory pages.
    pub(crate) fn dir_page_count(&self) -> usize {
        self.directory.len() + usize::from(self.hot_page.is_some())
    }

    /// Keys of all occupied directory pages (unspecified order — callers
    /// must only use this for order-independent membership queries).
    pub(crate) fn dir_occupied_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.hot_page.iter().map(|(key, _)| *key).chain(self.directory.keys().copied())
    }

    /// Invalidate `line` in **every** instance of this node on behalf of a
    /// store issued outside it — the cross-shard half of
    /// the intra-node `invalidate_other_copies` walk, used by the sharded
    /// engine's serial fallback. The storing thread lives in another shard,
    /// so no own-path exclusion applies; invalidated dirty copies are
    /// dropped without a write-back, exactly like the intra-node walk (the
    /// store's write-allocate fill supersedes the data).
    pub(crate) fn invalidate_external(&mut self, line: u64) {
        if self.directory_enabled {
            let mask = self.dir_mask(line);
            if mask == 0 {
                return;
            }
            let mut pending = mask;
            while pending != 0 {
                let bit = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let (l, inst) = self.bit_instance[bit];
                self.levels[l as usize][inst as usize].invalidate(line);
            }
            self.dir_and_not(line, mask);
        } else {
            for level in &mut self.levels {
                for cache in level {
                    cache.invalidate(line);
                }
            }
        }
    }

    /// Check the directory invariant: every line resident in some cache
    /// instance has that instance's bit set in its presence mask (the mask
    /// may over-approximate, but must never miss a holder). Test/diagnostic
    /// only — walks every line of every instance.
    #[cfg(any(test, feature = "reference"))]
    pub fn verify_directory_superset(&self) {
        if !self.directory_enabled {
            return;
        }
        for (l, instances) in self.levels.iter().enumerate() {
            for (inst, cache) in instances.iter().enumerate() {
                let bit = self.dir_bit(l, inst);
                for line in cache.resident_line_addresses().collect::<Vec<_>>() {
                    assert!(
                        self.dir_mask(line) & bit != 0,
                        "directory lost level {l} instance {inst} holding line {line:#x}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheLevelConfig, PrefetchConfig, WritePolicy};
    use crate::memory::NumaPolicy;
    use crate::replacement::ReplacementPolicy;
    use crate::Access;

    /// A small synthetic two-thread, two-socket machine: 4-set/2-way L1,
    /// 16-set/4-way L2, 64-set/8-way shared L3 per socket.
    fn tiny_config(prefetch: PrefetchConfig) -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![
                CacheLevelConfig {
                    level: 1,
                    sets: 4,
                    ways: 2,
                    line_size: 64,
                    inclusive: false,
                    shared_by_threads: 1,
                    write_policy: WritePolicy::WriteBackAllocate,
                    replacement: ReplacementPolicy::Lru,
                },
                CacheLevelConfig {
                    level: 2,
                    sets: 16,
                    ways: 4,
                    line_size: 64,
                    inclusive: false,
                    shared_by_threads: 1,
                    write_policy: WritePolicy::WriteBackAllocate,
                    replacement: ReplacementPolicy::Lru,
                },
                CacheLevelConfig {
                    level: 3,
                    sets: 64,
                    ways: 8,
                    line_size: 64,
                    inclusive: true,
                    shared_by_threads: 2,
                    write_policy: WritePolicy::WriteBackAllocate,
                    replacement: ReplacementPolicy::Lru,
                },
            ],
            num_threads: 4,
            thread_socket: vec![0, 0, 1, 1],
            thread_core: vec![0, 1, 2, 3],
            num_sockets: 2,
            prefetch,
            numa_policy: NumaPolicy::interleave(4096),
            memory_line_size: 64,
        }
    }

    fn system(prefetch: PrefetchConfig) -> NodeCacheSystem {
        NodeCacheSystem::new(tiny_config(prefetch))
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_in_l1() {
        let mut sys = system(PrefetchConfig::all_disabled());
        assert_eq!(sys.access(0, Access::load(0)), HitLevel::Memory);
        assert_eq!(sys.access(0, Access::load(8)), HitLevel::L1, "same line");
        let stats = sys.stats();
        assert_eq!(stats.level_total(1).misses, 1);
        assert_eq!(stats.level_total(1).hits, 1);
        assert_eq!(stats.memory[0].bytes_read + stats.memory[1].bytes_read, 64);
    }

    #[test]
    fn store_miss_causes_write_allocate_read() {
        let mut sys = system(PrefetchConfig::all_disabled());
        assert_eq!(sys.access(0, Access::store(0)), HitLevel::Memory);
        let stats = sys.stats();
        assert_eq!(stats.total_memory_bytes(), 64, "the line is read before being written");
        assert_eq!(stats.memory.iter().map(|m| m.bytes_written).sum::<u64>(), 0);
    }

    #[test]
    fn nt_store_streams_to_memory_without_reading() {
        let mut sys = system(PrefetchConfig::all_disabled());
        assert_eq!(
            sys.access(0, Access { address: 0, size: 64, kind: AccessKind::NonTemporalStore }),
            HitLevel::Streaming
        );
        let stats = sys.stats();
        assert_eq!(stats.memory.iter().map(|m| m.bytes_read).sum::<u64>(), 0);
        assert_eq!(stats.memory.iter().map(|m| m.bytes_written).sum::<u64>(), 64);
        assert_eq!(stats.level_total(1).accesses, 0, "NT stores bypass the caches");
    }

    #[test]
    fn dirty_lines_are_written_back_when_evicted_through_the_hierarchy() {
        let mut sys = system(PrefetchConfig::all_disabled());
        // Write a line, then stream enough distinct lines through the caches
        // to force it all the way out of the (inclusive) L3.
        sys.access(0, Access::store(0));
        // L3: 64 sets x 8 ways = 512 lines. Stream 2048 distinct lines.
        for i in 1..2048u64 {
            sys.access(0, Access::load(i * 64));
        }
        let stats = sys.stats();
        let written: u64 = stats.memory.iter().map(|m| m.bytes_written).sum();
        assert!(written >= 64, "the dirty line must eventually be written back, got {written}");
    }

    #[test]
    fn smt_siblings_share_nothing_but_socket_peers_share_l3() {
        let mut sys = system(PrefetchConfig::all_disabled());
        sys.access(0, Access::load(0));
        // Thread 1 is on the same socket: its first access to the same line
        // should hit in the shared L3 (not memory).
        assert_eq!(sys.access(1, Access::load(0)), HitLevel::L3);
        // Thread 2 is on the other socket: full miss.
        assert_eq!(sys.access(2, Access::load(0)), HitLevel::Memory);
    }

    #[test]
    fn streaming_traffic_matches_the_working_set_size() {
        let mut sys = system(PrefetchConfig::all_disabled());
        let lines = 4096u64;
        for i in 0..lines {
            sys.access(0, Access::load(i * 64));
        }
        let stats = sys.stats();
        assert_eq!(
            stats.memory.iter().map(|m| m.bytes_read).sum::<u64>(),
            lines * 64,
            "each distinct line is fetched exactly once"
        );
    }

    #[test]
    fn repeated_small_working_set_stays_in_cache() {
        let mut sys = system(PrefetchConfig::all_disabled());
        // 4 lines fit easily in the 8-line L1.
        for _rep in 0..100 {
            for i in 0..4u64 {
                sys.access(0, Access::load(i * 64));
            }
        }
        let stats = sys.stats();
        assert_eq!(stats.memory.iter().map(|m| m.bytes_read).sum::<u64>(), 4 * 64);
        assert_eq!(stats.level_total(1).misses, 4);
        assert_eq!(stats.level_total(1).hits, 396);
    }

    #[test]
    fn prefetchers_reduce_demand_misses_on_streaming_patterns() {
        let lines = 2048u64;
        let mut without = system(PrefetchConfig::all_disabled());
        for i in 0..lines {
            without.access(0, Access::load(i * 64));
        }
        let mut with = system(PrefetchConfig::all_enabled());
        for i in 0..lines {
            with.access(0, Access::load(i * 64));
        }
        let miss_without = without.stats().level_total(2).misses;
        let miss_with = with.stats().level_total(2).misses;
        assert!(
            miss_with < miss_without,
            "prefetching should reduce L2 demand misses ({miss_with} !< {miss_without})"
        );
        assert!(with.stats().level_total(2).prefetch_fills > 0);
    }

    #[test]
    fn numa_partitioning_routes_traffic_to_the_right_controller() {
        let mut cfg = tiny_config(PrefetchConfig::all_disabled());
        cfg.numa_policy = NumaPolicy::Partitioned { boundaries: vec![1 << 20, u64::MAX] };
        let mut sys = NodeCacheSystem::new(cfg);
        // Thread 0 (socket 0) reads an address homed on socket 1.
        sys.access(0, Access::load(2 << 20));
        let stats = sys.stats();
        let (s0, s1) = (stats.memory[0], stats.memory[1]);
        assert_eq!(s0.bytes_read, 0);
        assert_eq!(s1.bytes_read, 64);
        assert_eq!(s1.remote_reads, 1);
        assert_eq!(s1.local_reads, 0);
    }

    #[test]
    fn hits_plus_misses_equals_accesses_at_every_level() {
        let mut sys = system(PrefetchConfig::all_enabled());
        for i in 0..512u64 {
            let addr = (i * 7919) % (1 << 16); // pseudo-random pattern
            if i % 3 == 0 {
                sys.access((i % 4) as usize, Access::store(addr));
            } else {
                sys.access((i % 4) as usize, Access::load(addr));
            }
        }
        let stats = sys.stats();
        for level in &stats.levels {
            for inst in &level.instances {
                assert!(inst.is_consistent(), "level {} stats inconsistent: {inst:?}", level.level);
            }
        }
    }

    #[test]
    fn llc_stats_of_socket_reports_the_right_instance() {
        let mut sys = system(PrefetchConfig::all_disabled());
        sys.access(0, Access::load(0));
        sys.access(2, Access::load(1 << 20));
        // One shared L3 instance per socket: threads 0-1 and 2-3.
        let llc = &sys.stats().levels[2].instances;
        assert_eq!(llc[0].lines_in, 1);
        assert_eq!(llc[1].lines_in, 1);
    }

    #[test]
    fn directory_never_loses_a_holder() {
        let mut sys = system(PrefetchConfig::all_enabled());
        for i in 0..2048u64 {
            let addr = (i * 7919) % (1 << 14);
            if i % 3 == 0 {
                sys.access((i % 4) as usize, Access::store(addr));
            } else {
                sys.access((i % 4) as usize, Access::load(addr));
            }
            if i % 512 == 0 {
                sys.verify_directory_superset();
            }
        }
        sys.verify_directory_superset();
    }

    #[test]
    fn stores_invalidate_only_foreign_copies() {
        let mut sys = system(PrefetchConfig::all_disabled());
        // Threads 0 and 1 (same socket) and thread 2 (other socket) all load
        // line 0, so four private caches plus both L3s hold it.
        sys.access(0, Access::load(0));
        sys.access(1, Access::load(0));
        sys.access(2, Access::load(0));
        // Thread 0 stores: every copy off thread 0's path must go.
        sys.access(0, Access::store(0));
        assert_eq!(sys.access(1, Access::load(0)), HitLevel::L3, "socket 0 L3 refills thread 1");
        let mut fresh = system(PrefetchConfig::all_disabled());
        fresh.access(0, Access::load(0));
        fresh.access(1, Access::load(0));
        fresh.access(2, Access::load(0));
        fresh.access(0, Access::store(0));
        assert_eq!(fresh.access(2, Access::load(0)), HitLevel::Memory, "socket 1 lost its copy");
    }

    /// Regression test for the double-writeback bug: when an inclusive
    /// eviction writes back a dirty victim and the back-invalidation then
    /// finds a dirty inner copy, the line must reach memory once, not twice.
    #[test]
    fn inclusive_eviction_writes_each_line_back_once() {
        let level = |level, sets, ways, inclusive| CacheLevelConfig {
            level,
            sets,
            ways,
            line_size: 64,
            inclusive,
            shared_by_threads: 1,
            write_policy: WritePolicy::WriteBackAllocate,
            replacement: ReplacementPolicy::Lru,
        };
        let cfg = HierarchyConfig {
            levels: vec![level(1, 4, 2, false), level(2, 16, 4, true)],
            num_threads: 1,
            thread_socket: vec![0],
            thread_core: vec![0],
            num_sockets: 1,
            prefetch: PrefetchConfig::all_disabled(),
            numa_policy: NumaPolicy::SingleNode { socket: 0 },
            memory_line_size: 64,
        };
        let mut sys = NodeCacheSystem::new(cfg);
        let line = |l: u64| l * 64;
        // Dirty line 0 in L1, then push it out of L1 so the LLC copy turns
        // dirty too (L1 sets = 4: lines 4 and 8 conflict with line 0 there,
        // but live in different LLC sets).
        sys.access(0, Access::store(line(0)));
        sys.access(0, Access::load(line(4)));
        sys.access(0, Access::load(line(8)));
        // Re-store: line 0 returns to L1 dirty; both L1 and LLC copies dirty.
        sys.access(0, Access::store(line(0)));
        // Evict line 0 from the inclusive LLC (LLC sets = 16, ways = 4:
        // lines 16..=64 in steps of 16 share LLC set 0), keeping line 0
        // resident in L1 by touching it between the conflicting loads.
        for evictor in [16u64, 32, 48] {
            sys.access(0, Access::load(line(evictor)));
            sys.access(0, Access::store(line(0)));
        }
        sys.access(0, Access::load(line(64)));
        let written: u64 = sys.stats().memory.iter().map(|m| m.bytes_written).sum();
        assert_eq!(written, 64, "the dirty victim must be written back exactly once");
    }

    #[test]
    fn access_run_matches_per_access_walk_on_a_strided_stream() {
        for (stride, size, kind) in [
            (8i64, 8u32, AccessKind::Load),
            (8, 8, AccessKind::Store),
            (64, 8, AccessKind::Load),
            (64, 64, AccessKind::Store),
            (-64, 8, AccessKind::Load),
            (0, 8, AccessKind::Store),
            (24, 16, AccessKind::Load), // straddles line boundaries
        ] {
            let mut per_access = system(PrefetchConfig::all_enabled());
            let mut batched = system(PrefetchConfig::all_enabled());
            let base = 1 << 20;
            let count = 500u64;
            let mut worst_ref = HitLevel::L1;
            for i in 0..count {
                let address = (base as i64 + i as i64 * stride) as u64;
                let level = per_access.access(0, Access { address, size, kind });
                if level > worst_ref {
                    worst_ref = level;
                }
            }
            let worst = batched.access_run(0, base, stride, count, size, kind);
            assert_eq!(per_access.stats(), batched.stats(), "stride {stride} size {size} {kind:?}");
            assert_eq!(worst, worst_ref, "stride {stride} size {size} {kind:?}");
        }
    }

    #[test]
    fn access_run_streams_nt_stores_like_the_per_access_path() {
        let mut per_access = system(PrefetchConfig::all_disabled());
        let mut batched = system(PrefetchConfig::all_disabled());
        for i in 0..300u64 {
            per_access
                .access(0, Access { address: i * 8, size: 8, kind: AccessKind::NonTemporalStore });
        }
        let level = batched.access_run(0, 0, 8, 300, 8, AccessKind::NonTemporalStore);
        assert_eq!(level, HitLevel::Streaming);
        assert_eq!(per_access.stats(), batched.stats());
    }

    /// Regression test: more than 64 cache instances disables the directory
    /// (broadcast fallback) without shift overflows on the bit helpers.
    #[test]
    fn more_than_64_instances_falls_back_to_broadcast() {
        let threads = 40usize;
        let level = |level, sets, ways, shared, inclusive| CacheLevelConfig {
            level,
            sets,
            ways,
            line_size: 64,
            inclusive,
            shared_by_threads: shared,
            write_policy: WritePolicy::WriteBackAllocate,
            replacement: ReplacementPolicy::Lru,
        };
        let cfg = HierarchyConfig {
            // 40 + 40 + 2 = 82 instances: past the 64-bit mask budget.
            levels: vec![
                level(1, 4, 2, 1, false),
                level(2, 16, 4, 1, false),
                level(3, 64, 8, 20, true),
            ],
            num_threads: threads,
            thread_socket: (0..threads).map(|t| (t / 20) as u32).collect(),
            thread_core: (0..threads).map(|t| t as u32).collect(),
            num_sockets: 2,
            prefetch: PrefetchConfig::all_enabled(),
            numa_policy: NumaPolicy::interleave(4096),
            memory_line_size: 64,
        };
        let mut sys = NodeCacheSystem::new(cfg);
        // Coherence still works through the broadcast walk: thread 1's copy
        // dies when thread 0 stores.
        sys.access(1, Access::load(0));
        sys.access(0, Access::store(0));
        assert_eq!(sys.access(1, Access::load(0)), HitLevel::L3, "L1/L2 copies invalidated");
        for i in 0..512u64 {
            sys.access((i % 40) as usize, Access::store(i * 64));
        }
        let stats = sys.stats();
        for level in &stats.levels {
            for inst in &level.instances {
                assert!(inst.is_consistent());
            }
        }
    }

    /// Regression test: with a single-set L1, the prefetch triggered by an
    /// access can displace the demand line's MRU position, so collapsed
    /// repeats must fall back to the full walk to stay bit-identical.
    #[test]
    fn access_run_repeats_match_on_a_degenerate_single_set_l1() {
        let level = |level, sets, ways, inclusive| CacheLevelConfig {
            level,
            sets,
            ways,
            line_size: 64,
            inclusive,
            shared_by_threads: 1,
            write_policy: WritePolicy::WriteBackAllocate,
            replacement: ReplacementPolicy::Lru,
        };
        let cfg = || HierarchyConfig {
            levels: vec![level(1, 1, 2, false), level(2, 16, 4, true)],
            num_threads: 1,
            thread_socket: vec![0],
            thread_core: vec![0],
            num_sockets: 1,
            prefetch: PrefetchConfig::all_enabled(),
            numa_policy: NumaPolicy::SingleNode { socket: 0 },
            memory_line_size: 64,
        };
        let mut per_access = NodeCacheSystem::new(cfg());
        let mut batched = NodeCacheSystem::new(cfg());
        for i in 0..400u64 {
            per_access.access(0, Access { address: i * 8, size: 8, kind: AccessKind::Load });
        }
        batched.access_run(0, 0, 8, 400, 8, AccessKind::Load);
        assert_eq!(per_access.stats(), batched.stats());
    }

    #[test]
    fn access_run_of_zero_count_is_a_no_op() {
        let mut sys = system(PrefetchConfig::all_disabled());
        let before = sys.stats();
        assert_eq!(sys.access_run(0, 0, 64, 0, 8, AccessKind::Load), HitLevel::L1);
        assert_eq!(sys.stats(), before);
    }
}
