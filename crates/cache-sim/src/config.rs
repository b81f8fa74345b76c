//! Configuration of the simulated hierarchy.
//!
//! The configuration is normally derived from a machine preset via
//! [`HierarchyConfig::from_machine`], which also consults the machine's
//! `IA32_MISC_ENABLE` register so that prefetchers toggled through
//! `likwid-features` actually change the simulated behaviour.

use likwid_x86_machine::{CacheKind, Prefetcher, SimMachine};

use crate::memory::NumaPolicy;
use crate::replacement::ReplacementPolicy;

/// Write-miss policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-back with write-allocate (the policy of all data cache levels
    /// on the modelled machines).
    WriteBackAllocate,
    /// Write-through without allocation (not used by the presets, available
    /// for experiments).
    WriteThroughNoAllocate,
}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Cache level (1, 2, 3).
    pub level: u32,
    /// Number of sets.
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: u64,
    /// Whether the level is inclusive of all inner levels (back-invalidation
    /// on eviction).
    pub inclusive: bool,
    /// Number of hardware threads sharing one instance.
    pub shared_by_threads: u32,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

/// Prefetcher enable switches (the simulator side of `likwid-features`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// L2 hardware streamer: on an L2 miss stream, prefetch the next line
    /// into L2.
    pub hardware_enabled: bool,
    /// Adjacent cache line prefetcher: on an L2 fill, also fetch the buddy
    /// line of the 128-byte pair.
    pub adjacent_line_enabled: bool,
    /// DCU streamer: on sequential L1 misses, prefetch the next line into L1.
    pub dcu_enabled: bool,
    /// IP-stride prefetcher: per-thread stride detection in L1.
    pub ip_enabled: bool,
}

impl PrefetchConfig {
    /// All prefetchers on (the machine reset state).
    pub fn all_enabled() -> Self {
        PrefetchConfig {
            hardware_enabled: true,
            adjacent_line_enabled: true,
            dcu_enabled: true,
            ip_enabled: true,
        }
    }

    /// All prefetchers off.
    pub fn all_disabled() -> Self {
        PrefetchConfig {
            hardware_enabled: false,
            adjacent_line_enabled: false,
            dcu_enabled: false,
            ip_enabled: false,
        }
    }

    /// Read the switches from a machine's `IA32_MISC_ENABLE` (core 0).
    pub fn from_machine(machine: &SimMachine) -> Self {
        let enabled = |p: Prefetcher| machine.prefetcher_enabled(0, p).unwrap_or(true);
        PrefetchConfig {
            hardware_enabled: enabled(Prefetcher::Hardware),
            adjacent_line_enabled: enabled(Prefetcher::AdjacentLine),
            dcu_enabled: enabled(Prefetcher::Dcu),
            ip_enabled: enabled(Prefetcher::Ip),
        }
    }
}

/// Full hierarchy configuration for a node.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Cache levels ordered L1 → LLC (data/unified caches only).
    pub levels: Vec<CacheLevelConfig>,
    /// Number of hardware threads in the node.
    pub num_threads: usize,
    /// Socket of each hardware thread (index = OS processor ID).
    pub thread_socket: Vec<u32>,
    /// Dense per-node core index of each hardware thread.
    pub thread_core: Vec<u32>,
    /// Number of sockets.
    pub num_sockets: u32,
    /// Prefetcher switches.
    pub prefetch: PrefetchConfig,
    /// How addresses map to NUMA domains.
    pub numa_policy: NumaPolicy,
    /// Line size used for memory traffic accounting (bytes).
    pub memory_line_size: u64,
}

impl HierarchyConfig {
    /// Build the configuration for a machine preset, reading the prefetcher
    /// switches from the machine's current `IA32_MISC_ENABLE` value.
    pub fn from_machine(machine: &SimMachine, numa_policy: NumaPolicy) -> Self {
        let topo = machine.topology();
        let levels = machine
            .caches()
            .iter()
            .filter(|c| c.kind != CacheKind::Instruction)
            .map(|c| CacheLevelConfig {
                level: c.level,
                sets: c.num_sets() as usize,
                ways: c.associativity as usize,
                line_size: c.line_size as u64,
                inclusive: c.inclusive,
                shared_by_threads: c.shared_by_threads,
                write_policy: WritePolicy::WriteBackAllocate,
                replacement: ReplacementPolicy::Lru,
            })
            .collect::<Vec<_>>();
        let memory_line_size = levels.last().map(|l| l.line_size).unwrap_or(64);
        HierarchyConfig {
            levels,
            num_threads: topo.num_hw_threads(),
            thread_socket: topo.hw_threads.iter().map(|t| t.socket).collect(),
            thread_core: topo
                .hw_threads
                .iter()
                .map(|t| t.socket * topo.cores_per_socket + t.core_index)
                .collect(),
            num_sockets: topo.sockets,
            prefetch: PrefetchConfig::from_machine(machine),
            numa_policy,
            memory_line_size,
        }
    }

    /// Number of instances of a level given its sharing degree: hardware
    /// threads are grouped by (socket, core, SMT) order into consecutive
    /// groups of `shared_by_threads`.
    pub(crate) fn instances_of(&self, level: &CacheLevelConfig) -> usize {
        (self.num_threads / level.shared_by_threads as usize).max(1)
    }

    /// Which instance of a level each hardware thread uses, indexed by
    /// thread.
    ///
    /// Threads are ranked by (socket, core index, SMT) — i.e. SMT siblings
    /// are adjacent — and consecutive groups of `shared_by_threads` map to
    /// one instance. With the preset sharing degrees this yields "one L1/L2
    /// per physical core" and "one L3 per socket" regardless of the OS
    /// enumeration order.
    pub(crate) fn thread_instances(&self, level: &CacheLevelConfig) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.num_threads).collect();
        order.sort_by_key(|&t| (self.thread_socket[t], self.thread_core[t], t));
        let mut instance = vec![0; self.num_threads];
        for (rank, &t) in order.iter().enumerate() {
            instance[t] = rank / level.shared_by_threads as usize;
        }
        instance
    }

    /// Precomputed back-invalidation targets for inclusive evictions.
    ///
    /// `map[l][inst]` lists the `(inner_level, inner_instance)` pairs that an
    /// eviction from instance `inst` of level `l` must probe: every inner
    /// instance used by at least one hardware thread that maps to `inst`,
    /// deduplicated, in (inner level ascending, first-sharing-thread) order —
    /// the exact order an on-the-fly sharer walk would visit them in. Levels
    /// that are not inclusive (or L1, which has nothing inside it) get empty
    /// lists. Computed once here so the eviction path never allocates.
    pub(crate) fn back_invalidation_map(&self) -> Vec<Vec<Vec<(usize, usize)>>> {
        let instance: Vec<Vec<usize>> =
            self.levels.iter().map(|level| self.thread_instances(level)).collect();
        self.levels
            .iter()
            .enumerate()
            .map(|(l, level)| {
                let instances = self.instances_of(level);
                (0..instances)
                    .map(|inst| {
                        let mut targets = Vec::new();
                        if !level.inclusive || l == 0 {
                            return targets;
                        }
                        let sharers: Vec<usize> =
                            (0..self.num_threads).filter(|&t| instance[l][t] == inst).collect();
                        for (inner, inner_instance) in instance.iter().enumerate().take(l) {
                            for &t in &sharers {
                                let inner_inst = inner_instance[t];
                                if !targets.contains(&(inner, inner_inst)) {
                                    targets.push((inner, inner_inst));
                                }
                            }
                        }
                        targets
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::{MachinePreset, Msr, MsrPermission};

    #[test]
    fn from_machine_picks_up_the_preset_hierarchy() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::interleave(4096));
        assert_eq!(cfg.levels.len(), 3);
        assert_eq!(cfg.levels[0].sets, 64);
        assert_eq!(cfg.levels[2].ways, 16);
        assert!(!cfg.levels[2].inclusive);
        assert_eq!(cfg.num_threads, 24);
        assert_eq!(cfg.num_sockets, 2);
        assert!(cfg.prefetch.adjacent_line_enabled);
    }

    #[test]
    fn prefetch_config_reflects_misc_enable() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let dev = machine.msr(0, MsrPermission::ReadWrite).unwrap();
        dev.update(
            Msr::IA32_MISC_ENABLE,
            likwid_x86_machine::Prefetcher::AdjacentLine.disable_bit(),
            0,
        )
        .unwrap();
        let cfg = PrefetchConfig::from_machine(&machine);
        assert!(!cfg.adjacent_line_enabled);
        assert!(cfg.hardware_enabled);
    }

    #[test]
    fn instance_mapping_groups_smt_siblings_and_sockets() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::interleave(4096));
        let l1 = cfg.levels[0];
        let l3 = cfg.levels[2];
        assert_eq!(cfg.instances_of(&l1), 12);
        assert_eq!(cfg.instances_of(&l3), 2);
        let (l1_of, l3_of) = (cfg.thread_instances(&l1), cfg.thread_instances(&l3));
        // OS threads 0 and 12 are SMT siblings on the Westmere preset: same L1.
        assert_eq!(l1_of[0], l1_of[12]);
        assert_ne!(l1_of[0], l1_of[1]);
        // Threads 0 (socket 0) and 6 (socket 1) use different L3 instances.
        assert_ne!(l3_of[0], l3_of[6]);
        // All socket-0 threads share one L3 instance.
        for t in [1usize, 2, 3, 4, 5, 12, 13, 17] {
            assert_eq!(l3_of[t], l3_of[0]);
        }
    }
}
