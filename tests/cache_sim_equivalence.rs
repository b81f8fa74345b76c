//! Equivalence property test for the optimized cache-simulator hot path.
//!
//! The presence-directory coherence walk, the precomputed back-invalidation
//! maps and the batched `access_run` entry point are pure optimizations:
//! for any access stream they must produce **bit-identical** [`NodeStats`]
//! to the slow pre-optimization reference walk
//! (`likwid_cache_sim::reference`, compiled in via the `reference`
//! feature). These properties replay randomized multi-thread streams —
//! single accesses and strided runs, loads, stores and non-temporal
//! stores, with and without prefetchers — through both implementations.

use proptest::prelude::*;

use likwid_suite::cache_sim::reference::ReferenceCacheSystem;
use likwid_suite::cache_sim::{
    Access, AccessKind, CacheLevelConfig, HierarchyConfig, NodeCacheSystem, NumaPolicy,
    PrefetchConfig, ReplacementPolicy, ReplayQueue, RunOp, ShardedCacheSystem, WritePolicy,
};

/// A small synthetic two-socket hierarchy with an inclusive shared L3, so
/// the streams exercise coherence invalidations, inclusive back-invalidation
/// and cross-socket traffic on short runs.
fn tiny_hierarchy(prefetch_on: bool) -> HierarchyConfig {
    two_socket_hierarchy([(8, 2), (32, 4), (128, 8)], ReplacementPolicy::Lru, prefetch_on)
}

/// The same two-socket shape with few, wide sets under `policy`: a 16-way
/// L1, a 24-way L2 whose 3 sets take the modulo set-index path, and a
/// 48-way inclusive L3, so short streams already evict from every level and
/// victims come from every rank word of a set.
fn wide_hierarchy(policy: ReplacementPolicy, prefetch_on: bool) -> HierarchyConfig {
    two_socket_hierarchy([(2, 16), (3, 24), (2, 48)], policy, prefetch_on)
}

/// Four threads on two sockets: private L1 and L2 of the given
/// `(sets, ways)`, and an inclusive L3 shared per socket.
fn two_socket_hierarchy(
    geometry: [(usize, usize); 3],
    replacement: ReplacementPolicy,
    prefetch_on: bool,
) -> HierarchyConfig {
    let level = |level: u32, (sets, ways): (usize, usize), shared, inclusive| CacheLevelConfig {
        level,
        sets,
        ways,
        line_size: 64,
        inclusive,
        shared_by_threads: shared,
        write_policy: WritePolicy::WriteBackAllocate,
        replacement,
    };
    HierarchyConfig {
        levels: vec![
            level(1, geometry[0], 1, false),
            level(2, geometry[1], 1, false),
            level(3, geometry[2], 2, true),
        ],
        num_threads: 4,
        thread_socket: vec![0, 0, 1, 1],
        thread_core: vec![0, 1, 2, 3],
        num_sockets: 2,
        prefetch: if prefetch_on {
            PrefetchConfig::all_enabled()
        } else {
            PrefetchConfig::all_disabled()
        },
        numa_policy: NumaPolicy::interleave(4096),
        memory_line_size: 64,
    }
}

fn kind_of(selector: usize) -> AccessKind {
    match selector {
        0 => AccessKind::Store,
        1 => AccessKind::NonTemporalStore,
        2 => AccessKind::Prefetch,
        _ => AccessKind::Load,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized multi-thread single-access streams: the directory-driven
    /// coherence walk must produce the same counters as the broadcast walk.
    #[test]
    fn directory_path_matches_reference_on_single_accesses(
        ops in prop::collection::vec(
            (0usize..4, 0u64..4096, 0usize..6, 1u32..96),
            1..300,
        ),
        prefetch_on in prop::bool::ANY,
    ) {
        single_access_equivalence(tiny_hierarchy(prefetch_on), &ops)?;
    }

    /// Single-access streams through 16-, 24- and 48-way LRU sets: the
    /// packed rank words must pick the same victims as the reference's age
    /// stamps across several rank words per set.
    #[test]
    fn wide_lru_sets_match_reference_on_single_accesses(
        ops in prop::collection::vec(
            (0usize..4, 0u64..384, 0usize..6, 1u32..96),
            1..500,
        ),
        prefetch_on in prop::bool::ANY,
    ) {
        single_access_equivalence(wide_hierarchy(ReplacementPolicy::Lru, prefetch_on), &ops)?;
    }

    /// The same wide hierarchy under FIFO, where hits leave the order alone.
    #[test]
    fn wide_fifo_sets_match_reference_on_single_accesses(
        ops in prop::collection::vec(
            (0usize..4, 0u64..384, 0usize..6, 1u32..96),
            1..500,
        ),
        prefetch_on in prop::bool::ANY,
    ) {
        single_access_equivalence(wide_hierarchy(ReplacementPolicy::Fifo, prefetch_on), &ops)?;
    }

    /// Randomized batched runs: `access_run` must be indistinguishable from
    /// issuing every element of the run individually — including sub-line
    /// strides (collapsed repeats), negative strides, zero strides and
    /// line-straddling element sizes.
    #[test]
    fn batched_runs_match_reference_element_streams(
        runs in prop::collection::vec(
            (0usize..4, 0u64..(1 << 18), 0usize..7, 0u64..96, 0usize..4),
            1..40,
        ),
        prefetch_on in prop::bool::ANY,
    ) {
        let strides: [i64; 7] = [-64, -8, 0, 8, 24, 64, 192];
        let sizes: [u32; 7] = [8, 8, 8, 8, 16, 64, 8];
        let mut optimized = NodeCacheSystem::new(tiny_hierarchy(prefetch_on));
        let mut reference = ReferenceCacheSystem::new(tiny_hierarchy(prefetch_on));
        for (thread, base, stride_sel, count, kind_sel) in runs {
            let stride = strides[stride_sel];
            let size = sizes[stride_sel];
            let kind = kind_of(kind_sel);
            let got = optimized.access_run(thread, base, stride, count, size, kind);
            let mut want = if kind == AccessKind::NonTemporalStore {
                likwid_suite::cache_sim::HitLevel::Streaming
            } else {
                likwid_suite::cache_sim::HitLevel::L1
            };
            for i in 0..count {
                let address = base.wrapping_add((i as i64).wrapping_mul(stride) as u64);
                let level = reference.access(thread, Access { address, size, kind });
                if level > want {
                    want = level;
                }
            }
            if count > 0 {
                prop_assert_eq!(got, want, "worst hit level diverged");
            }
        }
        prop_assert_eq!(optimized.stats(), reference.stats());
    }

    /// Three-way equivalence on *partitioned* streams (each thread works in
    /// its own 64 MB region, so most epochs pass the sharded engine's
    /// conflict analysis and replay in parallel): the reference broadcast
    /// walk, the sequential flat engine draining the replay queue, and the
    /// parallel sharded engine at several worker counts must all produce
    /// bit-identical [`likwid_suite::cache_sim::NodeStats`].
    #[test]
    fn sharded_engine_matches_reference_on_partitioned_streams(
        runs in prop::collection::vec(
            (0usize..4, prop::bool::ANY, 0u64..4096, 0usize..4, 0u64..48, 0usize..4),
            1..60,
        ),
        prefetch_on in prop::bool::ANY,
    ) {
        let queue = partitioned_queue(&runs, |t, offset| ((t as u64 + 1) << 26) + offset * 64);
        three_way_equivalence(&queue, prefetch_on)?;
    }

    /// Three-way equivalence on *overlapping* streams: every thread works in
    /// the same small address window, so stores constantly conflict across
    /// the socket shards and the sharded engine exercises its exact serial
    /// fallback (including cross-shard invalidation) on nearly every epoch.
    #[test]
    fn sharded_engine_matches_reference_on_overlapping_streams(
        runs in prop::collection::vec(
            (0usize..4, prop::bool::ANY, 0u64..512, 0usize..4, 0u64..48, 0usize..4),
            1..60,
        ),
        prefetch_on in prop::bool::ANY,
    ) {
        let queue = partitioned_queue(&runs, |_t, offset| offset * 64);
        three_way_equivalence(&queue, prefetch_on)?;
    }

    /// Mixed workloads on the directory path keep the directory a superset
    /// of the true holders (the invariant coherence correctness rests on).
    #[test]
    fn directory_stays_a_superset_of_holders(
        ops in prop::collection::vec((0usize..4, 0u64..2048, prop::bool::ANY), 1..400),
    ) {
        let mut sys = NodeCacheSystem::new(tiny_hierarchy(true));
        for (thread, line, is_store) in ops {
            let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
            sys.access(thread, Access { address: line * 64, size: 8, kind });
        }
        sys.verify_directory_superset();
    }
}

/// Drive the drawn `(thread, line, kind, size)` accesses through the
/// optimized and the reference walk on `config`, requiring the same hit
/// level per access and bit-identical statistics at the end.
fn single_access_equivalence(
    config: HierarchyConfig,
    ops: &[(usize, u64, usize, u32)],
) -> std::result::Result<(), TestCaseError> {
    let mut optimized = NodeCacheSystem::new(config.clone());
    let mut reference = ReferenceCacheSystem::new(config);
    for &(thread, line, kind_sel, size) in ops {
        let access =
            Access { address: line * 64 + (size as u64 % 64), size, kind: kind_of(kind_sel) };
        let got = optimized.access(thread, access);
        let want = reference.access(thread, access);
        prop_assert_eq!(got, want, "hit level diverged");
    }
    prop_assert_eq!(optimized.stats(), reference.stats());
    Ok(())
}

/// Build a replay queue from drawn run tuples. `base_of(thread, offset)`
/// decides the address layout — per-thread regions for the partitioned
/// strategy, one shared window for the overlapping one.
fn partitioned_queue(
    runs: &[(usize, bool, u64, usize, u64, usize)],
    base_of: impl Fn(usize, u64) -> u64,
) -> ReplayQueue {
    let strides: [i64; 4] = [64, -64, 8, 192];
    let sizes: [u32; 4] = [64, 8, 8, 8];
    let mut queue = ReplayQueue::new(4);
    for &(thread, epoch_break, offset, stride_sel, count, kind_sel) in runs {
        if epoch_break {
            queue.begin_epoch();
        }
        queue.push(
            thread,
            RunOp {
                base: base_of(thread, offset),
                stride: strides[stride_sel],
                count,
                size: sizes[stride_sel],
                kind: kind_of(kind_sel),
            },
        );
    }
    queue
}

/// Drain `queue` through the reference broadcast walk (element by element),
/// the sequential flat engine and the sharded engine at worker counts 1 and
/// 3, and require bit-identical statistics from all four.
fn three_way_equivalence(
    queue: &ReplayQueue,
    prefetch_on: bool,
) -> std::result::Result<(), TestCaseError> {
    let mut reference = ReferenceCacheSystem::new(tiny_hierarchy(prefetch_on));
    for epoch in queue.epochs() {
        for &(thread, op) in epoch {
            for i in 0..op.count {
                let address = op.base.wrapping_add((i as i64).wrapping_mul(op.stride) as u64);
                reference.access(thread, Access { address, size: op.size, kind: op.kind });
            }
        }
    }
    let want = reference.stats();

    let mut sequential = NodeCacheSystem::new(tiny_hierarchy(prefetch_on));
    sequential.replay(queue);
    prop_assert_eq!(&sequential.stats(), &want, "sequential flat engine vs reference");

    for workers in [1usize, 3] {
        let mut sharded = ShardedCacheSystem::with_workers(tiny_hierarchy(prefetch_on), workers);
        sharded.replay(queue);
        prop_assert_eq!(
            &sharded.stats(),
            &want,
            "sharded engine ({} workers) vs reference",
            workers
        );
    }
    Ok(())
}

/// The same three-way equivalence on a real machine preset: a two-socket
/// hierarchy with threads straddling both sockets, mixing socket-private
/// epochs (which shard in parallel) with epochs whose stores land in the
/// other socket's working set (which serialize). Deterministic, so the
/// parallel/serial split is asserted exactly.
fn two_socket_preset_case(preset: likwid_suite::x86_machine::MachinePreset) {
    use likwid_suite::x86_machine::SimMachine;

    let machine = SimMachine::new(preset);
    let config = HierarchyConfig::from_machine(&machine, NumaPolicy::interleave_over(4096, 2));
    // The first two hardware threads of each socket.
    let topo = machine.topology();
    let mut threads = Vec::new();
    for socket in [0u32, 1] {
        let mut of_socket = (0..topo.num_hw_threads())
            .filter(|&t| topo.hw_thread(t).map(|h| h.socket) == Ok(socket));
        threads.push(of_socket.next().expect("socket populated"));
        threads.push(of_socket.next().expect("two threads per socket"));
    }

    let mut queue = ReplayQueue::new(config.num_threads);
    for round in 0..6u64 {
        // A socket-private epoch: every thread streams its own region.
        queue.begin_epoch();
        for (i, &t) in threads.iter().enumerate() {
            let region = ((i as u64 + 1) << 28) + round * 8192;
            queue.push(t, RunOp::store_lines(region, 96));
            queue.push(t, RunOp::load_lines(region, 96));
        }
        // A socket-straddling epoch: thread 0 (socket 0) stores the window
        // thread 4 (socket 1) reads — a genuine cross-socket conflict.
        queue.begin_epoch();
        queue.push(threads[0], RunOp::store_lines(1 << 40, 64));
        queue.push(threads[2], RunOp::load_lines(1 << 40, 64));
    }

    let mut reference = ReferenceCacheSystem::new(config.clone());
    for epoch in queue.epochs() {
        for &(thread, op) in epoch {
            for i in 0..op.count {
                let address = op.base.wrapping_add((i as i64).wrapping_mul(op.stride) as u64);
                reference.access(thread, Access { address, size: op.size, kind: op.kind });
            }
        }
    }
    let want = reference.stats();

    let mut sequential = NodeCacheSystem::new(config.clone());
    sequential.replay(&queue);
    assert_eq!(sequential.stats(), want, "sequential flat engine vs reference");

    for workers in [1usize, 2, 4] {
        let mut sharded = ShardedCacheSystem::with_workers(config.clone(), workers);
        sharded.replay(&queue);
        assert_eq!(sharded.stats(), want, "sharded engine ({workers} workers) vs reference");
        assert_eq!(sharded.epochs_parallel(), 6, "the private epochs shard");
        assert_eq!(sharded.epochs_serial(), 6, "the straddling epochs serialize");
    }
}

#[test]
fn sharded_engine_matches_reference_on_the_nehalem_preset() {
    two_socket_preset_case(likwid_suite::x86_machine::MachinePreset::NehalemEp2S);
}

#[test]
fn sharded_engine_matches_reference_on_the_westmere_preset() {
    two_socket_preset_case(likwid_suite::x86_machine::MachinePreset::WestmereEp2S);
}
