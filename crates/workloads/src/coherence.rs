//! A multi-socket store-coherence workload (the `coherence` kernel).
//!
//! `StoreCoherence` models producer/consumer ring traffic inside every
//! socket plus a private store stream per thread, emitted as an
//! epoch-batched [`ReplayQueue`] and drained through
//! [`NodeCacheSystem::replay`]. All addresses are partitioned by socket
//! with multi-megabyte guard gaps, so the epochs are provably independent
//! across sockets; the sharded engine's tests replay the same queue.
//!
//! Per epoch, each socket group runs a fixed number of rounds; one round is
//!
//! 1. the group's *producer* thread storing the socket-local ring,
//! 2. the group's *consumer* thread loading the ring back (paying the
//!    producer's invalidations), and
//! 3. every thread of the group storing the next block of its private
//!    stream (the position advances round-robin across the private
//!    region, so the stream keeps missing the upper cache levels once the
//!    region exceeds them).

use likwid_cache_sim::{HierarchyConfig, NodeCacheSystem, NumaPolicy, ReplayQueue, RunOp};
use likwid_x86_machine::SimMachine;

use crate::exec::ExecutionProfile;
use crate::perfmodel::{BandwidthModel, StreamKernelModel};
use crate::workload::{Placement, Workload, WorkloadRun};

/// Cache lines in each socket's producer/consumer ring.
const RING_LINES: u64 = 128;
/// Private-stream lines stored per thread per round.
const PRIVATE_RUN_LINES: u64 = 256;
/// Rounds batched into one replay epoch.
const ROUNDS_PER_EPOCH: u64 = 16;
/// Byte gap between the per-thread private regions of a socket group.
const PRIVATE_GAP: u64 = 1 << 25;

/// The store-coherence workload (registered as the `coherence` kernel).
#[derive(Debug, Clone)]
pub struct StoreCoherence {
    /// Private-stream bytes per thread (the `-w` working set).
    private_bytes: u64,
    passes: u64,
}

impl StoreCoherence {
    /// A coherence run whose per-thread private stream covers
    /// `working_set_bytes`, replayed `passes` times.
    pub fn new(working_set_bytes: u64, passes: u64) -> Self {
        StoreCoherence { private_bytes: working_set_bytes, passes: passes.max(1) }
    }

    /// Private-stream lines per thread: the working set in whole lines,
    /// clamped so degenerate `-w` values still stream something and huge
    /// ones keep the guard gaps intact.
    fn private_lines(&self) -> u64 {
        (self.private_bytes / 64).clamp(PRIVATE_RUN_LINES, (PRIVATE_GAP / 64) / 2)
    }

    /// Rounds so that every thread streams its private region once per pass.
    fn rounds(&self) -> u64 {
        self.passes * self.private_lines().div_ceil(PRIVATE_RUN_LINES)
    }

    /// Group the compute placement by socket, preserving order. Returns
    /// `(socket, members)` with members as global hw-thread ids.
    fn socket_groups(machine: &SimMachine, placement: &Placement) -> Vec<(u32, Vec<usize>)> {
        let topo = machine.topology();
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for &hw in &placement.compute {
            let socket = topo.hw_thread(hw).map(|t| t.socket).unwrap_or(0);
            match groups.iter_mut().find(|(s, _)| *s == socket) {
                Some((_, members)) => members.push(hw),
                None => groups.push((socket, vec![hw])),
            }
        }
        groups
    }

    /// Emit the whole run as an epoch-batched replay queue.
    pub fn replay_queue(&self, machine: &SimMachine, placement: &Placement) -> ReplayQueue {
        let groups = Self::socket_groups(machine, placement);
        let private_lines = self.private_lines();
        let mut queue = ReplayQueue::new(machine.topology().num_hw_threads());
        let mut cursor = 0u64;
        let mut round = 0u64;
        let rounds = self.rounds();
        while round < rounds {
            queue.begin_epoch();
            for _ in 0..ROUNDS_PER_EPOCH.min(rounds - round) {
                for (g, (_, members)) in groups.iter().enumerate() {
                    let region = (g as u64 + 1) << 32;
                    let producer = members[0];
                    let consumer = members.get(1).copied().unwrap_or(producer);
                    queue.push(producer, RunOp::store_lines(region, RING_LINES));
                    queue.push(consumer, RunOp::load_lines(region, RING_LINES));
                    for (j, &hw) in members.iter().enumerate() {
                        let base = region + (j as u64 + 1) * PRIVATE_GAP;
                        let start = cursor % private_lines;
                        let first = PRIVATE_RUN_LINES.min(private_lines - start);
                        queue.push(hw, RunOp::store_lines(base + start * 64, first));
                        if first < PRIVATE_RUN_LINES {
                            // The stream wrapped: finish the block from the
                            // region start (two analyzable contiguous runs).
                            queue.push(hw, RunOp::store_lines(base, PRIVATE_RUN_LINES - first));
                        }
                    }
                }
                cursor += PRIVATE_RUN_LINES;
                round += 1;
            }
        }
        queue
    }
}

impl Workload for StoreCoherence {
    fn name(&self) -> &str {
        "coherence"
    }

    fn flops_per_iteration(&self) -> f64 {
        0.0
    }

    fn bytes_per_iteration(&self) -> f64 {
        // Modelled traffic per access: the private stores stream through
        // memory with write allocate (16 B per 8 B element amortised over
        // the 8 elements of a line → 16), the ring mostly stays
        // cache-resident; the blend is dominated by the private streams
        // (2·PRIVATE_RUN vs 2·RING lines per round per thread).
        12.0
    }

    fn working_set_bytes(&self) -> u64 {
        self.private_lines() * 64 + RING_LINES * 64
    }

    fn run(&self, machine: &SimMachine, placement: &Placement) -> WorkloadRun {
        let threads = &placement.compute;
        assert!(!threads.is_empty(), "at least one thread is required");
        let topo = machine.topology();
        let hierarchy = HierarchyConfig::from_machine(
            machine,
            NumaPolicy::interleave_over(4096, topo.sockets.max(1)),
        );
        let mut sys = NodeCacheSystem::new(hierarchy);
        let queue = self.replay_queue(machine, placement);
        sys.replay(&queue);
        let stats = sys.stats();
        let iterations = queue.total_accesses();

        // Roofline: measured traffic over the achievable bandwidth vs. an
        // in-core bound of 2 cycles per access on the busiest thread, plus
        // the cross-core ring handoffs at cache-to-cache latency.
        let memory = machine.memory_system();
        let model = BandwidthModel::new(topo, memory);
        let kernel_model = StreamKernelModel {
            traffic_bytes_per_iteration: self.bytes_per_iteration(),
            useful_bytes_per_iteration: 8.0,
            per_core_traffic_bps: memory.per_core_bandwidth_bps,
            smt_benefit: 0.05,
        };
        let homes = model.home_sockets(threads.len(), &placement.init);
        let achieved_bps = model.achieved_traffic_bps(threads, &homes, &kernel_model);
        let memory_time = stats.total_memory_bytes() as f64 / achieved_bps;
        let groups = Self::socket_groups(machine, placement);
        let max_members = groups.iter().map(|(_, m)| m.len() as u64).max().unwrap_or(1).max(1);
        let per_thread_accesses =
            self.rounds() * (PRIVATE_RUN_LINES + 2 * RING_LINES / max_members);
        let ring_handoff_cycles = self.rounds() * RING_LINES * 30 / max_members;
        let compute_time =
            (per_thread_accesses * 2 + ring_handoff_cycles) as f64 / machine.clock().frequency_hz;
        let runtime_s = memory_time.max(compute_time);

        let mut profile = ExecutionProfile::new(topo.num_hw_threads());
        let cycles = machine.clock().seconds_to_cycles(runtime_s);
        for &hw in threads {
            profile.credit_streaming_thread(hw, cycles, per_thread_accesses, 2, 0.0);
        }

        WorkloadRun {
            iterations,
            runtime_s,
            bandwidth_mbs: iterations as f64 * 8.0 / runtime_s / 1e6,
            mflops: 0.0,
            stats,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_cache_sim::ShardedCacheSystem;
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn the_queue_is_socket_partitioned_and_replays_in_parallel() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let placement = Placement::pinned(vec![0, 1, 4, 5]);
        let kernel = StoreCoherence::new(1 << 20, 2);
        let queue = kernel.replay_queue(&machine, &placement);
        assert!(queue.num_epochs() > 1);

        let hierarchy = HierarchyConfig::from_machine(
            &machine,
            NumaPolicy::interleave_over(4096, machine.topology().sockets),
        );
        let mut sequential = NodeCacheSystem::new(hierarchy.clone());
        sequential.replay(&queue);
        let mut sharded = ShardedCacheSystem::with_workers(hierarchy, 2);
        sharded.replay(&queue);
        assert_eq!(sharded.stats(), sequential.stats(), "bit-identical to the sequential drain");
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!(sharded.epochs_serial(), 0, "socket partitioning keeps every epoch parallel");
        assert!(sharded.epochs_parallel() > 0);
    }

    #[test]
    fn runs_on_a_single_socket_machine_and_single_thread() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        for placement in [Placement::pinned(vec![0, 1]), Placement::pinned(vec![2])] {
            let run = StoreCoherence::new(2 << 20, 1).run(&machine, &placement);
            assert!(run.iterations > 0);
            assert!(run.runtime_s > 0.0);
            assert!(run.stats.thread_loads.iter().sum::<u64>() > 0);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_measured_stats() {
        // The tool drains the queue sequentially; the library's sharded
        // engine must measure the same statistics at any worker count.
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let placement = Placement::pinned(vec![0, 1, 4, 5]);
        let kernel = StoreCoherence::new(512 << 10, 1);
        let run = kernel.run(&machine, &placement);
        let hierarchy =
            HierarchyConfig::from_machine(&machine, NumaPolicy::interleave_over(4096, 2));
        let queue = kernel.replay_queue(&machine, &placement);
        assert_eq!(run.iterations, queue.total_accesses());
        for workers in [2, 4] {
            let mut sharded = ShardedCacheSystem::with_workers(hierarchy.clone(), workers);
            sharded.replay(&queue);
            assert_eq!(sharded.stats(), run.stats, "{workers} workers");
        }
    }
}
