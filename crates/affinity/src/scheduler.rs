//! A simulated OS scheduler for *unpinned* runs.
//!
//! The unpinned STREAM measurements of the paper (Figures 4, 7 and 9) are a
//! statement about where the Linux scheduler happens to put threads when
//! nobody pins them: sometimes all threads land on one socket and see half
//! the node's memory bandwidth, sometimes two threads share a physical core
//! via SMT and starve each other, sometimes the placement is accidentally
//! perfect. The box plots are built from 100 samples per thread count.
//!
//! This module reproduces that sampling experiment. The scheduler places
//! each requested thread on a hardware thread according to a
//! [`PlacementStrategy`]; the default [`PlacementStrategy::CfsLike`]
//! approximates the Linux CFS wake-up balancing of the era: threads prefer
//! idle hardware threads (load balancing works at the run-queue level), but
//! the choice of socket and of SMT sibling is effectively random, and with
//! more threads than hardware threads run queues get shared.

use likwid_x86_machine::TopologySpec;
use rand::seq::SliceRandom;
use rand::Rng;

/// How the simulated scheduler chooses hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Uniformly random hardware thread per task, independent draws: tasks
    /// can pile onto the same hardware thread (the most pessimistic model).
    UniformRandom,
    /// CFS-like: tasks are spread over *idle* hardware threads first (random
    /// order), only oversubscribing once every hardware thread is busy.
    /// Which socket / SMT sibling a task gets remains random.
    CfsLike,
    /// Pathological "no balancing": all tasks start on hardware thread 0's
    /// socket and only spill when that socket's hardware threads are full.
    FillFirstSocket,
}

/// The simulated scheduler.
#[derive(Debug, Clone)]
pub struct SimScheduler {
    strategy: PlacementStrategy,
}

impl SimScheduler {
    /// Scheduler with the given strategy.
    pub fn new(strategy: PlacementStrategy) -> Self {
        SimScheduler { strategy }
    }

    /// Place `num_threads` application threads on the node, returning the
    /// hardware thread each one runs on. One placement corresponds to one
    /// sample (one run) of the unpinned experiment.
    pub fn place<R: Rng + ?Sized>(
        &self,
        topo: &TopologySpec,
        num_threads: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        let total = topo.num_hw_threads();
        match self.strategy {
            PlacementStrategy::UniformRandom => {
                (0..num_threads).map(|_| rng.gen_range(0..total)).collect()
            }
            PlacementStrategy::CfsLike => {
                let mut placement = Vec::with_capacity(num_threads);
                let mut remaining = num_threads;
                while remaining > 0 {
                    let batch = remaining.min(total);
                    let mut hw: Vec<usize> = (0..total).collect();
                    hw.shuffle(rng);
                    placement.extend(hw.into_iter().take(batch));
                    remaining -= batch;
                }
                placement
            }
            PlacementStrategy::FillFirstSocket => {
                // Order hardware threads socket by socket, physical cores
                // before SMT siblings, and fill in that order.
                let mut order = Vec::new();
                for s in 0..topo.sockets {
                    let cores = topo.socket_cores(s);
                    for smt in 0..topo.threads_per_core as usize {
                        for core in &cores {
                            if let Some(&id) = core.get(smt) {
                                order.push(id);
                            }
                        }
                    }
                }
                (0..num_threads).map(|i| order[i % order.len()]).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::MachinePreset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn westmere() -> TopologySpec {
        MachinePreset::WestmereEp2S.topology()
    }

    /// Summary of how a placement uses the machine, the quantities that drive
    /// the bandwidth model: how many threads run on each socket and how many
    /// physical cores are oversubscribed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct PlacementSummary {
        /// Number of application threads per socket.
        threads_per_socket: Vec<usize>,
        /// Number of distinct physical cores used per socket.
        busy_cores_per_socket: Vec<usize>,
        /// Maximum number of application threads sharing one hardware thread.
        max_per_hw_thread: usize,
        /// Maximum number of application threads sharing one physical core.
        max_per_core: usize,
    }

    impl PlacementSummary {
        /// Analyse a placement against a topology.
        fn analyse(topo: &TopologySpec, placement: &[usize]) -> Self {
            let sockets = topo.sockets as usize;
            let mut threads_per_socket = vec![0usize; sockets];
            let mut per_core = std::collections::HashMap::<(u32, u32), usize>::new();
            let mut per_hw = std::collections::HashMap::<usize, usize>::new();
            for &hw in placement {
                let t = &topo.hw_threads[hw];
                threads_per_socket[t.socket as usize] += 1;
                *per_core.entry((t.socket, t.core_index)).or_insert(0) += 1;
                *per_hw.entry(hw).or_insert(0) += 1;
            }
            let mut busy_cores_per_socket = vec![0usize; sockets];
            for (&(socket, _), _) in per_core.iter() {
                busy_cores_per_socket[socket as usize] += 1;
            }
            PlacementSummary {
                threads_per_socket,
                busy_cores_per_socket,
                max_per_hw_thread: per_hw.values().copied().max().unwrap_or(0),
                max_per_core: per_core.values().copied().max().unwrap_or(0),
            }
        }

        /// Number of sockets actually used.
        fn sockets_used(&self) -> usize {
            self.threads_per_socket.iter().filter(|&&n| n > 0).count()
        }
    }

    #[test]
    fn cfs_like_does_not_oversubscribe_hardware_threads_below_capacity() {
        let topo = westmere();
        let sched = SimScheduler::new(PlacementStrategy::CfsLike);
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 4, 12, 24] {
            let p = sched.place(&topo, n, &mut rng);
            let summary = PlacementSummary::analyse(&topo, &p);
            assert_eq!(p.len(), n);
            assert_eq!(summary.max_per_hw_thread, 1, "{n} threads fit without sharing");
        }
    }

    #[test]
    fn cfs_like_oversubscribes_only_past_capacity() {
        let topo = westmere();
        let sched = SimScheduler::new(PlacementStrategy::CfsLike);
        let mut rng = StdRng::seed_from_u64(7);
        let p = sched.place(&topo, 26, &mut rng);
        let summary = PlacementSummary::analyse(&topo, &p);
        assert_eq!(summary.max_per_hw_thread, 2, "26 threads on 24 hardware threads share twice");
    }

    #[test]
    fn unpinned_small_counts_sometimes_use_one_socket_sometimes_two() {
        // This is the mechanism behind the large variance at small thread
        // counts in Figure 4: with 2 threads the probability of landing on
        // one socket is sizeable.
        let topo = westmere();
        let sched = SimScheduler::new(PlacementStrategy::CfsLike);
        let mut rng = StdRng::seed_from_u64(123);
        let placements: Vec<_> = (0..200).map(|_| sched.place(&topo, 2, &mut rng)).collect();
        let mut one_socket = 0;
        let mut two_sockets = 0;
        for p in &placements {
            match PlacementSummary::analyse(&topo, p).sockets_used() {
                1 => one_socket += 1,
                2 => two_sockets += 1,
                _ => unreachable!(),
            }
        }
        assert!(one_socket > 20, "one-socket placements must occur ({one_socket})");
        assert!(two_sockets > 20, "two-socket placements must occur ({two_sockets})");
    }

    #[test]
    fn unpinned_can_place_two_threads_on_one_physical_core() {
        // SMT makes it possible for two threads to share a physical core even
        // when physical cores are still free — the oversubscription effect
        // the paper attributes the Westmere variance to.
        let topo = westmere();
        let sched = SimScheduler::new(PlacementStrategy::CfsLike);
        let mut rng = StdRng::seed_from_u64(99);
        let placements: Vec<_> = (0..300).map(|_| sched.place(&topo, 6, &mut rng)).collect();
        let shared = placements
            .iter()
            .filter(|p| PlacementSummary::analyse(&topo, p).max_per_core >= 2)
            .count();
        assert!(shared > 0, "some placements must share a physical core");
        assert!(shared < 300, "not every placement shares a physical core");
    }

    #[test]
    fn fill_first_socket_uses_socket_zero_first() {
        let topo = westmere();
        let sched = SimScheduler::new(PlacementStrategy::FillFirstSocket);
        let mut rng = StdRng::seed_from_u64(1);
        let p = sched.place(&topo, 6, &mut rng);
        let summary = PlacementSummary::analyse(&topo, &p);
        assert_eq!(summary.threads_per_socket, vec![6, 0]);
    }

    #[test]
    fn uniform_random_can_pile_up() {
        let topo = MachinePreset::Core2Quad.topology();
        let sched = SimScheduler::new(PlacementStrategy::UniformRandom);
        let mut rng = StdRng::seed_from_u64(5);
        // With 4 threads on 4 hardware threads and independent draws,
        // collisions happen in most samples.
        let collisions = (0..100)
            .filter(|_| {
                let p = sched.place(&topo, 4, &mut rng);
                PlacementSummary::analyse(&topo, &p).max_per_hw_thread >= 2
            })
            .count();
        assert!(collisions > 50);
    }

    #[test]
    fn istanbul_placements_have_no_smt_sharing() {
        let topo = MachinePreset::IstanbulH2S.topology();
        let sched = SimScheduler::new(PlacementStrategy::CfsLike);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let p = sched.place(&topo, 12, &mut rng);
            let summary = PlacementSummary::analyse(&topo, &p);
            assert_eq!(
                summary.max_per_core, 1,
                "Istanbul has no SMT: one thread per core at 12 threads"
            );
        }
    }

    #[test]
    fn placement_summary_counts_busy_cores() {
        let topo = westmere();
        // Threads on OS IDs 0 and 12 share physical core 0 of socket 0.
        let summary = PlacementSummary::analyse(&topo, &[0, 12, 1]);
        assert_eq!(summary.threads_per_socket, vec![3, 0]);
        assert_eq!(summary.busy_cores_per_socket, vec![2, 0]);
        assert_eq!(summary.max_per_core, 2);
        assert_eq!(summary.max_per_hw_thread, 1);
        assert_eq!(summary.sockets_used(), 1);
    }
}
