//! Determinism regression test for the parallel sharded simulator.
//!
//! The sharded engine's contract is that worker scheduling is invisible:
//! for a fixed replay queue the merged [`likwid_suite::cache_sim::NodeStats`]
//! are byte-identical at every worker count. This test pins that on a
//! multi-socket store-coherence scenario. The `likwid-bench` report of the
//! same kernel, which the tool computes through the sequential engine, is
//! pinned by `tests/likwid_bench_golden.rs`.

use likwid_suite::cache_sim::{HierarchyConfig, NumaPolicy, ShardedCacheSystem};
use likwid_suite::workloads::{Placement, StoreCoherence};
use likwid_suite::x86_machine::{MachinePreset, SimMachine};

/// The engine-level contract: a multi-socket store-coherence queue replayed
/// at 1, 2 and 8 workers produces byte-identical merged statistics and the
/// same parallel/serial epoch split, and the scenario genuinely exercises
/// the parallel path.
#[test]
fn worker_count_is_invisible_in_the_merged_statistics() {
    let machine = SimMachine::new(MachinePreset::NehalemEp2S);
    let placement = Placement::pinned(vec![0, 1, 4, 5]);
    let kernel = StoreCoherence::new(1 << 20, 2);
    let queue = kernel.replay_queue(&machine, &placement);
    let config = HierarchyConfig::from_machine(&machine, NumaPolicy::interleave_over(4096, 2));

    let mut baseline = ShardedCacheSystem::with_workers(config.clone(), 1);
    baseline.replay(&queue);
    assert!(baseline.epochs_parallel() > 0, "the scenario must shard");

    for workers in [2usize, 8] {
        let mut sharded = ShardedCacheSystem::with_workers(config.clone(), workers);
        sharded.replay(&queue);
        assert_eq!(sharded.stats(), baseline.stats(), "{workers} workers vs 1");
        assert_eq!(sharded.epochs_parallel(), baseline.epochs_parallel(), "{workers} workers");
        assert_eq!(sharded.epochs_serial(), baseline.epochs_serial(), "{workers} workers");
    }
}
