//! The parallel sharded cache simulator.
//!
//! [`ShardedCacheSystem`] splits a node by LLC/socket domain: each shard is
//! a full [`NodeCacheSystem`] restricted to one socket's threads and cache
//! instances (plus the node's complete set of memory controllers, whose
//! counters are pure commutative sums). Replay input is an epoch-batched
//! [`ReplayQueue`]; the contract is **bit identity** with the sequential
//! drain [`NodeCacheSystem::replay`] for every queue and every worker
//! count.
//!
//! No tool runs this engine; it stays as the subject of the self-benchmark's
//! `cache_sim.shard.*` probe and as the third arm of the equivalence suites
//! until a benchmark change retires that probe and this module with it.
//!
//! # Why sharding is sound
//!
//! In this model a demand access walks only the issuing thread's own lookup
//! path and its socket-local memory controller classification — state of
//! other sockets never influences hit levels, fills, evictions or
//! prefetches. The only cross-socket effects are
//!
//! 1. a `Store` invalidating copies held by other sockets' instances, and
//! 2. memory-controller counters, which are per-domain `u64` additions and
//!    therefore order-free under merge.
//!
//! So an epoch whose stores provably touch no line that another shard
//! holds, touches, or may prefetch, can replay its shards concurrently with
//! a result identical to any serial order. Before each epoch an exact
//! pre-execution analysis checks this:
//!
//! * **store footprints**: the line hulls of every `Store` run per shard
//!   (non-temporal stores bypass the caches entirely and never invalidate);
//! * **touch footprints**: the line hulls of every cache-visible run,
//!   widened by a sound per-run prefetcher-reach pad plus the cross-run
//!   IP-stride carry target (tracked per thread across epochs and calls);
//! * **residency**: whether a store footprint overlaps any occupied
//!   presence-directory page of another shard.
//!
//! Epochs that pass run in parallel on a persistent worker pool (results
//! are collected by shard index, so scheduling cannot influence the merged
//! stats). Epochs that fail fall back to the exact sequential push order,
//! applying each store's cross-shard invalidations through
//! `NodeCacheSystem::invalidate_external` — still bit-identical, just
//! serial.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use likwid::trace;

use crate::access::{AccessKind, HitLevel};
use crate::config::HierarchyConfig;
use crate::hierarchy::NodeCacheSystem;
use crate::replay::{ReplayQueue, RunOp};
use crate::stats::{CacheStats, LevelStats, MemoryStats, NodeStats};

/// How a node's threads and cache instances map onto socket shards.
///
/// Shardability requires every cache instance's sharing group to live on
/// one socket, which the socket-major instance ranking of
/// [`HierarchyConfig::instance_for_thread`] reduces to one check: each
/// shard's thread count must be divisible by every level's
/// `shared_by_threads`. Then each shard's instances occupy a contiguous
/// range of global instance indices per level, and the merge is a scatter.
/// Configurations that fail the check (or have a single socket) run as one
/// shard — always correct, never parallel.
struct ShardPlan {
    shard_of_thread: Vec<usize>,
    local_thread: Vec<usize>,
    /// Shard → local thread index → global thread id (in global rank order).
    global_threads: Vec<Vec<usize>>,
    /// Level → shard → first global instance index of that shard's range.
    instance_base: Vec<Vec<usize>>,
    /// The restricted per-shard hierarchy configurations.
    configs: Vec<HierarchyConfig>,
    /// log2 of the L1 line size; `None` disables the conflict analysis
    /// (single-shard plans only).
    line_shift: Option<u32>,
    line_size: u64,
}

impl ShardPlan {
    fn single(config: &HierarchyConfig) -> ShardPlan {
        let n = config.num_threads;
        let line_size = config.levels.first().map(|l| l.line_size).unwrap_or(64);
        ShardPlan {
            shard_of_thread: vec![0; n],
            local_thread: (0..n).collect(),
            global_threads: vec![(0..n).collect()],
            instance_base: config.levels.iter().map(|_| vec![0]).collect(),
            configs: vec![config.clone()],
            line_shift: line_size.is_power_of_two().then(|| line_size.trailing_zeros()),
            line_size,
        }
    }

    fn build(config: &HierarchyConfig) -> ShardPlan {
        let n = config.num_threads;
        if n == 0 || config.thread_socket.len() != n || config.thread_core.len() != n {
            return Self::single(config);
        }
        let line_size = config.levels.first().map(|l| l.line_size).unwrap_or(64);
        if !line_size.is_power_of_two() {
            return Self::single(config);
        }
        let mut sockets = config.thread_socket.clone();
        sockets.sort_unstable();
        sockets.dedup();
        if sockets.len() < 2 {
            return Self::single(config);
        }
        // Socket-major global thread order — the instance ranking order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&t| (config.thread_socket[t], config.thread_core[t], t));
        let mut global_threads: Vec<Vec<usize>> = sockets.iter().map(|_| Vec::new()).collect();
        for &t in &order {
            let shard = sockets.binary_search(&config.thread_socket[t]).expect("socket is listed");
            global_threads[shard].push(t);
        }
        for level in &config.levels {
            let shared = (level.shared_by_threads as usize).max(1);
            if global_threads.iter().any(|threads| threads.len() % shared != 0) {
                // A sharing group straddles sockets (e.g. an LLC shared by
                // the whole node): not shardable.
                return Self::single(config);
            }
        }
        let instance_base = config
            .levels
            .iter()
            .map(|level| {
                let shared = (level.shared_by_threads as usize).max(1);
                let mut base = 0;
                global_threads
                    .iter()
                    .map(|threads| {
                        let this = base;
                        base += threads.len() / shared;
                        this
                    })
                    .collect()
            })
            .collect();
        let mut shard_of_thread = vec![0; n];
        let mut local_thread = vec![0; n];
        for (shard, threads) in global_threads.iter().enumerate() {
            for (local, &t) in threads.iter().enumerate() {
                shard_of_thread[t] = shard;
                local_thread[t] = local;
            }
        }
        // Each shard keeps the *real* socket ids and the node's full socket
        // count, so local/remote memory classification and NUMA homing stay
        // exactly as in the unsharded node.
        let configs = global_threads
            .iter()
            .map(|threads| HierarchyConfig {
                levels: config.levels.clone(),
                num_threads: threads.len(),
                thread_socket: threads.iter().map(|&t| config.thread_socket[t]).collect(),
                thread_core: threads.iter().map(|&t| config.thread_core[t]).collect(),
                num_sockets: config.num_sockets,
                prefetch: config.prefetch,
                numa_policy: config.numa_policy.clone(),
                memory_line_size: config.memory_line_size,
            })
            .collect();
        ShardPlan {
            shard_of_thread,
            local_thread,
            global_threads,
            instance_base,
            configs,
            line_shift: Some(line_size.trailing_zeros()),
            line_size,
        }
    }

    fn num_shards(&self) -> usize {
        self.configs.len()
    }
}

/// A replay operation panicked inside a shard's simulation engine.
///
/// The worker catches the panic, so the pool is not wedged and the shard's
/// engine is returned instead of being lost with the worker thread. The
/// failing epoch is completed through the exact sequential path (minus the
/// one poisoned operation), so the simulator stays usable; only the
/// poisoned operation's effect is missing, which this error reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardReplayError {
    /// The shard whose engine panicked.
    pub shard: usize,
    /// The panic message of the failing `access_run` call.
    pub message: String,
}

impl std::fmt::Display for ShardReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay op panicked on shard {}: {}", self.shard, self.message)
    }
}

impl std::error::Error for ShardReplayError {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// One parallel work item: a shard's engine (moved by value) plus its ops.
struct Job {
    shard: usize,
    sys: Box<NodeCacheSystem>,
    ops: Vec<(usize, RunOp)>,
}

/// A worker's answer: the worst hit level, or — when an op panicked — the
/// number of ops that completed before the panic plus the panic message.
type JobOutcome = Result<HitLevel, (usize, String)>;

/// Persistent worker threads with static shard→worker assignment. Results
/// carry the shard index, so the collection order cannot influence where
/// anything lands — determinism is independent of scheduling. A panicking
/// op is caught inside the worker: the shard's engine travels back to the
/// pool owner either way, so a poisoned queue cannot wedge the channel or
/// lose a shard.
struct WorkerPool {
    senders: Vec<Sender<Job>>,
    results: Receiver<(usize, Box<NodeCacheSystem>, JobOutcome)>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize) -> WorkerPool {
        let (result_tx, results) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job>();
            let result_tx = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok(Job { shard, mut sys, ops }) = rx.recv() {
                    let mut worst = HitLevel::L1;
                    let mut done = 0usize;
                    let started = trace::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        for &(thread, op) in &ops {
                            let level = sys
                                .access_run(thread, op.base, op.stride, op.count, op.size, op.kind);
                            if level > worst {
                                worst = level;
                            }
                            done += 1;
                        }
                    }));
                    trace::complete_since(
                        trace::cat::CACHESIM,
                        started,
                        || "shard.replay".to_string(),
                        || vec![("shard", shard.to_string()), ("ops", ops.len().to_string())],
                    );
                    // Pool threads outlive the recording: hand the span to
                    // the sink now instead of at thread exit.
                    if trace::enabled() {
                        trace::flush_thread();
                    }
                    let outcome = match outcome {
                        Ok(()) => Ok(worst),
                        Err(payload) => Err((done, panic_message(payload))),
                    };
                    if result_tx.send((shard, sys, outcome)).is_err() {
                        break;
                    }
                }
            }));
            senders.push(tx);
        }
        WorkerPool { senders, results, handles }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Coalesce an interval list in place (sorted, overlapping/adjacent merged).
fn coalesce(intervals: &mut Vec<(u64, u64)>) {
    if intervals.len() < 2 {
        return;
    }
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for &(lo, hi) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    *intervals = merged;
}

/// Whether two coalesced, sorted interval lists intersect (merge walk).
fn overlaps(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].1 < b[j].0 {
            i += 1;
        } else if b[j].1 < a[i].0 {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

/// Whether any line of `stores` (coalesced line intervals) might be
/// resident in `sys`, at directory-page granularity. Iterates whichever
/// side is smaller; without a presence directory every store is a
/// potential conflict.
fn resident_conflict(stores: &[(u64, u64)], sys: &NodeCacheSystem) -> bool {
    if stores.is_empty() {
        return false;
    }
    if !sys.directory_enabled() {
        return true;
    }
    let page_lines = NodeCacheSystem::dir_page_lines();
    let pages: Vec<(u64, u64)> =
        stores.iter().map(|&(lo, hi)| (lo / page_lines, hi / page_lines)).collect();
    let total: u64 = pages.iter().map(|&(lo, hi)| hi - lo + 1).sum();
    if total as usize <= sys.dir_page_count() {
        pages.iter().any(|&(lo, hi)| (lo..=hi).any(|page| sys.dir_page_occupied(page)))
    } else {
        sys.dir_occupied_pages().any(|page| pages.iter().any(|&(lo, hi)| page >= lo && page <= hi))
    }
}

/// Run one op on a shard engine, converting an engine panic into a typed
/// error. Engine panics fire on argument validation, before any state
/// mutation, so the remaining ops of the epoch still replay exactly.
fn run_op(
    sys: &mut NodeCacheSystem,
    shard: usize,
    local: usize,
    op: RunOp,
) -> Result<HitLevel, ShardReplayError> {
    catch_unwind(AssertUnwindSafe(|| {
        sys.access_run(local, op.base, op.stride, op.count, op.size, op.kind)
    }))
    .map_err(|payload| ShardReplayError { shard, message: panic_message(payload) })
}

/// The parallel sharded simulator (see the module docs).
pub struct ShardedCacheSystem {
    config: HierarchyConfig,
    plan: ShardPlan,
    /// `None` only transiently while a shard is out on a worker.
    shards: Vec<Option<Box<NodeCacheSystem>>>,
    workers: usize,
    pool: Option<WorkerPool>,
    /// Per global thread: the last line its prefetchers observed (input to
    /// the cross-run IP carry bound). Persists across epochs and calls,
    /// exactly like the engine's prefetcher state.
    last_line: Vec<Option<u64>>,
    /// Per global thread: the previous run wrapped the address space, so
    /// the next run's carry target cannot be bounded.
    carry_unknown: Vec<bool>,
    epochs_parallel: u64,
    epochs_serial: u64,
    scratch_lines: Vec<u64>,
}

impl ShardedCacheSystem {
    /// Build a sharded simulator replaying independent epochs on up to
    /// `workers` worker threads (capped by the shard count; a node has one
    /// shard per socket with threads).
    pub fn with_workers(config: HierarchyConfig, workers: usize) -> Self {
        let plan = ShardPlan::build(&config);
        let shards =
            plan.configs.iter().map(|c| Some(Box::new(NodeCacheSystem::new(c.clone())))).collect();
        ShardedCacheSystem {
            last_line: vec![None; config.num_threads],
            carry_unknown: vec![false; config.num_threads],
            config,
            plan,
            shards,
            workers: workers.max(1),
            pool: None,
            epochs_parallel: 0,
            epochs_serial: 0,
            scratch_lines: Vec::new(),
        }
    }

    /// Number of shards (one per socket with threads; 1 when the topology
    /// is not shardable).
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Epochs that were proven independent and replayed shard-parallel.
    pub fn epochs_parallel(&self) -> u64 {
        self.epochs_parallel
    }

    /// Epochs replayed in the serial fallback order.
    pub fn epochs_serial(&self) -> u64 {
        self.epochs_serial
    }

    /// Replay a queue. Bit-identical to [`NodeCacheSystem::replay`] on the
    /// same configuration and queue, for every worker count. Panics when a
    /// replay op panics inside the engine.
    pub fn replay(&mut self, queue: &ReplayQueue) -> HitLevel {
        self.try_replay(queue).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Replay a queue, surfacing engine panics as a typed error instead of
    /// wedging the worker pool: the panic is caught on the worker, every
    /// shard engine travels back, the failing epoch is completed through
    /// the exact sequential order minus the poisoned op, and the remaining
    /// epochs replay normally. The first failure is reported; the simulator
    /// stays fully usable afterwards.
    pub(crate) fn try_replay(&mut self, queue: &ReplayQueue) -> Result<HitLevel, ShardReplayError> {
        assert_eq!(
            queue.num_threads(),
            self.config.num_threads,
            "queue thread count must match the hierarchy"
        );
        let mut worst = HitLevel::L1;
        let mut failed = None;
        for epoch in queue.epochs() {
            let level = self.replay_epoch(epoch, &mut failed);
            if level > worst {
                worst = level;
            }
        }
        match failed {
            None => Ok(worst),
            Some(e) => Err(e),
        }
    }

    fn replay_epoch(
        &mut self,
        epoch: &[(usize, RunOp)],
        failed: &mut Option<ShardReplayError>,
    ) -> HitLevel {
        let mut worst = HitLevel::L1;
        if epoch.is_empty() {
            return worst;
        }
        let num_shards = self.plan.num_shards();
        let mut per_shard: Vec<Vec<(usize, RunOp)>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut stores: Vec<Vec<(u64, u64)>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut touch: Vec<Vec<(u64, u64)>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut analyzable = self.plan.line_shift.is_some();
        let shift = self.plan.line_shift.unwrap_or(6);
        for &(thread, op) in epoch {
            let shard = self.plan.shard_of_thread[thread];
            per_shard[shard].push((self.plan.local_thread[thread], op));
            if op.count == 0 || op.kind == AccessKind::NonTemporalStore {
                // NT stores bypass the caches entirely: no fills, no
                // invalidations, no prefetcher observations — only local
                // memory-controller counters.
                continue;
            }
            if self.carry_unknown[thread] {
                analyzable = false;
            }
            match op.line_hull(shift) {
                None => {
                    analyzable = false;
                    self.carry_unknown[thread] = true;
                    self.last_line[thread] = None;
                }
                Some((lo, hi)) => {
                    let pad = op.prefetch_pad_lines(shift);
                    touch[shard].push((lo.saturating_sub(pad), hi.saturating_add(pad)));
                    if let Some(prev) = self.last_line[thread] {
                        // The IP prefetcher may fire on the run's first
                        // access with the carried-in stride, reaching
                        // first + (first - prev) — a single line anywhere.
                        let first = op.first_line(shift);
                        let target = 2 * first as i128 - prev as i128;
                        if (0..=u64::MAX as i128).contains(&target) {
                            touch[shard].push((target as u64, target as u64));
                        }
                    }
                    if op.kind == AccessKind::Store {
                        stores[shard].push((lo, hi));
                    }
                    self.last_line[thread] = op.last_observed_line(shift);
                    self.carry_unknown[thread] = false;
                }
            }
        }

        let active: Vec<usize> = (0..num_shards).filter(|&s| !per_shard[s].is_empty()).collect();
        let multi = active.len() > 1;
        let mut conflict = num_shards > 1 && !analyzable;
        if !conflict && num_shards > 1 {
            for &s in &active {
                coalesce(&mut stores[s]);
                coalesce(&mut touch[s]);
            }
            // A store is a cross-shard effect against *every* other shard —
            // active ones (whose accesses this epoch must be ordered against)
            // via the touch footprints, and idle ones via their resident
            // lines, which a sequential store would invalidate (a stat-visible
            // event) even though the idle shard issues nothing this epoch.
            'pairs: for &a in &active {
                if stores[a].is_empty() {
                    continue;
                }
                for (b, footprint) in touch.iter().enumerate() {
                    if b == a {
                        continue;
                    }
                    if overlaps(&stores[a], footprint)
                        || resident_conflict(&stores[a], self.shards[b].as_ref().expect("shard"))
                    {
                        conflict = true;
                        break 'pairs;
                    }
                }
            }
        }

        let epoch_started = trace::now();
        if !conflict {
            if multi {
                self.epochs_parallel += 1;
                trace::count(trace::cat::CACHESIM, "epochs_parallel", 1);
            }
            if multi && self.workers > 1 {
                let worker_count = self.workers.min(num_shards);
                let pool = self.pool.get_or_insert_with(|| WorkerPool::new(worker_count));
                let mut dispatched = 0;
                for &s in &active {
                    let sys = self.shards[s].take().expect("shard present");
                    // The ops stay in per_shard too: should the job panic,
                    // the unfinished tail is completed sequentially below.
                    let ops = per_shard[s].clone();
                    let worker = s % pool.senders.len();
                    pool.senders[worker].send(Job { shard: s, sys, ops }).expect("worker alive");
                    dispatched += 1;
                }
                for _ in 0..dispatched {
                    let (s, sys, outcome) =
                        pool.results.recv().expect("worker returns its shard even on a panic");
                    self.shards[s] = Some(sys);
                    match outcome {
                        Ok(level) => {
                            if level > worst {
                                worst = level;
                            }
                        }
                        Err((done, message)) => {
                            if failed.is_none() {
                                *failed = Some(ShardReplayError { shard: s, message });
                            }
                            // Exact sequential completion of everything
                            // after the poisoned op, on the engine the
                            // worker handed back. The epoch was proven
                            // conflict-free, so no cross-shard effects are
                            // missed.
                            let sys = self.shards[s].as_mut().expect("shard present");
                            for &(local, op) in per_shard[s].iter().skip(done + 1) {
                                match run_op(sys, s, local, op) {
                                    Ok(level) => {
                                        if level > worst {
                                            worst = level;
                                        }
                                    }
                                    Err(e) => {
                                        if failed.is_none() {
                                            *failed = Some(e);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            } else {
                for &s in &active {
                    let sys = self.shards[s].as_mut().expect("shard present");
                    for &(local, op) in &per_shard[s] {
                        match run_op(sys, s, local, op) {
                            Ok(level) => {
                                if level > worst {
                                    worst = level;
                                }
                            }
                            Err(e) => {
                                if failed.is_none() {
                                    *failed = Some(e);
                                }
                            }
                        }
                    }
                }
            }
        } else {
            self.epochs_serial += 1;
            trace::count(trace::cat::CACHESIM, "epochs_serial", 1);
            let mut lines = std::mem::take(&mut self.scratch_lines);
            for &(thread, op) in epoch {
                let shard = self.plan.shard_of_thread[thread];
                let local = self.plan.local_thread[thread];
                let sys = self.shards[shard].as_mut().expect("shard present");
                let level = match run_op(sys, shard, local, op) {
                    Ok(level) => level,
                    Err(e) => {
                        // The op had no effect (engine panics fire on
                        // argument validation); its invalidations must not
                        // happen either.
                        if failed.is_none() {
                            *failed = Some(e);
                        }
                        continue;
                    }
                };
                if level > worst {
                    worst = level;
                }
                if op.kind == AccessKind::Store && op.count > 0 {
                    lines.clear();
                    op.collect_lines(self.plan.line_size, &mut lines);
                    for other in 0..num_shards {
                        if other == shard {
                            continue;
                        }
                        let sys = self.shards[other].as_mut().expect("shard present");
                        for &line in &lines {
                            sys.invalidate_external(line);
                        }
                    }
                    trace::count(
                        trace::cat::CACHESIM,
                        "cross_shard_invalidations",
                        (lines.len() * (num_shards - 1)) as i64,
                    );
                }
            }
            self.scratch_lines = lines;
        }
        // The classification span covers dispatch, replay and merge of the
        // whole epoch; single-shard epochs are not classified at all.
        if multi || conflict {
            trace::complete_since(
                trace::cat::CACHESIM,
                epoch_started,
                || if conflict { "epoch.serial" } else { "epoch.parallel" }.to_string(),
                || vec![("shards", active.len().to_string()), ("ops", epoch.len().to_string())],
            );
        }
        worst
    }

    /// Per-shard statistics snapshots (local instance/thread indexing).
    fn shard_stats(&self) -> Vec<NodeStats> {
        self.shards.iter().map(|s| s.as_ref().expect("shard present").stats()).collect()
    }

    /// The merged node-level statistics: per-level instance counters are
    /// scattered into their global slots (each shard owns a contiguous,
    /// disjoint range, so nothing can be double counted), memory-controller
    /// counters are summed per domain, per-thread counters scattered by
    /// global thread id.
    pub fn stats(&self) -> NodeStats {
        let shard_stats = self.shard_stats();
        let levels = self
            .config
            .levels
            .iter()
            .enumerate()
            .map(|(l, level_cfg)| {
                let mut instances =
                    vec![CacheStats::default(); self.config.instances_of(level_cfg)];
                for (s, stats) in shard_stats.iter().enumerate() {
                    let base = self.plan.instance_base[l][s];
                    for (i, inst) in stats.levels[l].instances.iter().enumerate() {
                        instances[base + i] = *inst;
                    }
                }
                LevelStats { level: level_cfg.level, instances }
            })
            .collect();
        let mut memory = vec![MemoryStats::default(); self.config.num_sockets as usize];
        for stats in &shard_stats {
            for (domain, m) in stats.memory.iter().enumerate() {
                memory[domain].merge(m);
            }
        }
        let mut thread_loads = vec![0; self.config.num_threads];
        let mut thread_stores = vec![0; self.config.num_threads];
        for (s, stats) in shard_stats.iter().enumerate() {
            for (local, &t) in self.plan.global_threads[s].iter().enumerate() {
                thread_loads[t] = stats.thread_loads[local];
                thread_stores[t] = stats.thread_stores[local];
            }
        }
        NodeStats { levels, memory, thread_loads, thread_stores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheLevelConfig, PrefetchConfig, WritePolicy};
    use crate::memory::NumaPolicy;
    use crate::replacement::ReplacementPolicy;

    /// Four threads on two sockets, private L1/L2, one shared inclusive L3
    /// per socket — the smallest topology with two shards.
    fn two_socket_config() -> HierarchyConfig {
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
        HierarchyConfig {
            levels: vec![
                level(1, 8, 2, 1, false),
                level(2, 32, 4, 1, false),
                level(3, 128, 8, 2, true),
            ],
            num_threads: 4,
            thread_socket: vec![0, 0, 1, 1],
            thread_core: vec![0, 1, 2, 3],
            num_sockets: 2,
            prefetch: PrefetchConfig::all_enabled(),
            numa_policy: NumaPolicy::interleave(4096),
            memory_line_size: 64,
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Socket-partitioned traffic: each thread works a private region with
    /// multi-megabyte gaps, so every epoch is provably independent.
    fn partitioned_queue(epochs: usize) -> ReplayQueue {
        let mut queue = ReplayQueue::new(4);
        let mut state = 0x2545_F491_4F6C_DD1D;
        for _ in 0..epochs {
            queue.begin_epoch();
            for thread in 0..4 {
                let region = (thread as u64 + 1) << 26;
                for _ in 0..3 {
                    let offset = lcg(&mut state) % (1 << 12);
                    let kind = if lcg(&mut state).is_multiple_of(2) {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    queue.push(
                        thread,
                        RunOp { base: region + offset * 64, stride: 64, count: 16, size: 8, kind },
                    );
                }
            }
        }
        queue
    }

    /// All four threads hammer the same sliding window of lines, with the
    /// socket-0 threads storing and the socket-1 threads loading: every
    /// epoch's store footprint overlaps the other shard's touch footprint.
    fn conflicting_queue(epochs: usize) -> ReplayQueue {
        let mut queue = ReplayQueue::new(4);
        for epoch in 0..epochs as u64 {
            queue.begin_epoch();
            for thread in 0..4 {
                let kind = if thread < 2 { AccessKind::Store } else { AccessKind::Load };
                let base = (epoch * 3 % 8) * 64;
                queue.push(thread, RunOp { base, stride: 64, count: 8, size: 8, kind });
            }
        }
        queue
    }

    #[test]
    fn sharded_replay_is_bit_identical_and_worker_invariant() {
        let queue = partitioned_queue(6);
        let mut sequential = NodeCacheSystem::new(two_socket_config());
        let want_level = sequential.replay(&queue);
        let want = sequential.stats();
        for workers in [1, 2, 5] {
            let mut sharded = ShardedCacheSystem::with_workers(two_socket_config(), workers);
            assert_eq!(sharded.num_shards(), 2);
            let level = sharded.replay(&queue);
            assert_eq!(level, want_level, "worst hit level with {workers} workers");
            assert_eq!(sharded.stats(), want, "stats with {workers} workers");
            assert_eq!(sharded.epochs_parallel(), 6, "all epochs are independent");
            assert_eq!(sharded.epochs_serial(), 0);
        }
    }

    #[test]
    fn conflicting_epochs_fall_back_to_the_exact_serial_order() {
        let queue = conflicting_queue(5);
        let mut sequential = NodeCacheSystem::new(two_socket_config());
        let want_level = sequential.replay(&queue);
        let want = sequential.stats();
        for workers in [1, 3] {
            let mut sharded = ShardedCacheSystem::with_workers(two_socket_config(), workers);
            let level = sharded.replay(&queue);
            assert_eq!(level, want_level);
            assert_eq!(sharded.stats(), want, "serial fallback with {workers} workers");
            assert_eq!(sharded.epochs_serial(), 5, "shared lines force the serial order");
            assert_eq!(sharded.epochs_parallel(), 0);
        }
    }

    #[test]
    fn per_shard_stats_sum_exactly_to_the_merged_totals() {
        let mut sharded = ShardedCacheSystem::with_workers(two_socket_config(), 2);
        sharded.replay(&partitioned_queue(4));
        sharded.replay(&conflicting_queue(3));
        let merged = sharded.stats();
        let parts = sharded.shard_stats();

        for (l, level) in merged.levels.iter().enumerate() {
            let mut sum = CacheStats::default();
            for part in &parts {
                sum.merge(&part.levels[l].total());
            }
            assert_eq!(sum, level.total(), "level {l} per-shard sums match the merge");
        }
        let memory_sum: u64 = parts.iter().map(|p| p.total_memory_bytes()).sum();
        assert_eq!(memory_sum, merged.total_memory_bytes(), "no double-counted write-backs");
        assert_eq!(
            parts.iter().map(|p| p.thread_loads.iter().sum::<u64>()).sum::<u64>(),
            merged.thread_loads.iter().sum::<u64>(),
        );
    }

    #[test]
    fn single_socket_topologies_run_as_one_shard() {
        let mut config = two_socket_config();
        config.thread_socket = vec![0, 0, 0, 0];
        config.num_sockets = 1;
        config.levels[2].shared_by_threads = 4;
        let queue = conflicting_queue(4);
        let mut sequential = NodeCacheSystem::new(config.clone());
        sequential.replay(&queue);
        let mut sharded = ShardedCacheSystem::with_workers(config, 8);
        assert_eq!(sharded.num_shards(), 1);
        sharded.replay(&queue);
        assert_eq!(sharded.stats(), sequential.stats());
        assert_eq!(sharded.epochs_parallel(), 0, "one shard never counts as parallel");
    }

    #[test]
    fn a_panicking_replay_op_yields_a_typed_error_not_a_wedged_pool() {
        // A zero-size access run trips the engine's argument validation —
        // the deliberately poisoned op. Silence the default panic hook's
        // backtrace spam for the duration (the panics are expected).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        // Poisoned op inside a provably parallel epoch: thread 2 (shard 1)
        // gets size = 0.
        let mut queue = ReplayQueue::new(4);
        queue.begin_epoch();
        for thread in 0..4 {
            let region = (thread as u64 + 1) << 26;
            let size = if thread == 2 { 0 } else { 8 };
            queue.push(
                thread,
                RunOp { base: region, stride: 64, count: 8, size, kind: AccessKind::Load },
            );
        }

        let mut sharded = ShardedCacheSystem::with_workers(two_socket_config(), 2);
        let err = sharded.try_replay(&queue).expect_err("poisoned op must surface");
        assert_eq!(err.shard, 1, "thread 2 lives on the socket-1 shard");
        assert!(err.message.contains("zero-size"), "got: {}", err.message);

        // The pool is not wedged and no shard was lost: a healthy queue
        // still replays (in parallel) and matches the sequential engine
        // that saw the same surviving ops.
        let good = partitioned_queue(3);
        assert!(sharded.try_replay(&good).is_ok());
        let mut sequential = NodeCacheSystem::new(two_socket_config());
        for epoch in queue.epochs() {
            for &(thread, op) in epoch {
                if op.size > 0 {
                    sequential.access_run(thread, op.base, op.stride, op.count, op.size, op.kind);
                }
            }
        }
        sequential.replay(&good);
        assert_eq!(sharded.stats(), sequential.stats(), "poisoned op dropped, rest exact");

        // The serial-fallback path reports the same typed error.
        let mut conflict_poisoned = ReplayQueue::new(4);
        conflict_poisoned.begin_epoch();
        for thread in 0..4 {
            let kind = if thread < 2 { AccessKind::Store } else { AccessKind::Load };
            let size = if thread == 0 { 0 } else { 8 };
            conflict_poisoned.push(thread, RunOp { base: 0, stride: 64, count: 8, size, kind });
        }
        let mut serial = ShardedCacheSystem::with_workers(two_socket_config(), 2);
        let err = serial.try_replay(&conflict_poisoned).expect_err("serial path surfaces too");
        assert_eq!(err.shard, 0);

        std::panic::set_hook(hook);
    }
}
