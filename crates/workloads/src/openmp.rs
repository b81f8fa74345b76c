//! A model of the OpenMP runtimes and compilers used in the evaluation.
//!
//! The paper's STREAM experiments compare Intel icc 11.1 and gcc 4.3.3.
//! Two properties of those toolchains matter for the reproduced figures:
//!
//! 1. **Thread creation behaviour** — the Intel runtime creates
//!    `OMP_NUM_THREADS` threads plus a shepherd, gcc creates
//!    `OMP_NUM_THREADS - 1` workers; this is what the skip masks of
//!    `likwid-pin` deal with and is modelled in `likwid-affinity`.
//! 2. **Code generation** — the icc triad is vectorised and uses
//!    non-temporal stores (three memory streams, a single core can draw
//!    close to 10 GB/s), while the gcc triad uses ordinary stores (four
//!    streams including the write-allocate, lower per-core throughput, and
//!    a visible benefit from SMT). These parameters feed the bandwidth
//!    model and give the two compilers their distinct figure shapes.

use likwid_affinity::{PlacementStrategy, SimScheduler, SkipMask, ThreadingModel};
use likwid_x86_machine::{MachinePreset, TopologySpec};
use rand::Rng;

use likwid_affinity::pinlist::{compact_placement, scatter_placement};

use crate::workload::Placement;

/// Compiler/runtime personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerPersonality {
    /// Intel icc 11.1 with `-O3 -xSSE4.2`: vectorised, non-temporal stores.
    IntelIcc,
    /// gcc 4.3.3 with `-O3 -fopenmp`: scalar-ish code, regular stores.
    Gcc,
}

impl CompilerPersonality {
    /// The threading model (shepherd behaviour) of the runtime.
    pub(crate) fn threading_model(self) -> ThreadingModel {
        match self {
            CompilerPersonality::IntelIcc => ThreadingModel::IntelOpenMp,
            CompilerPersonality::Gcc => ThreadingModel::GccOpenMp,
        }
    }

    /// The default skip mask `likwid-pin` applies for this personality.
    pub fn skip_mask(self) -> SkipMask {
        self.threading_model().default_skip_mask()
    }

    /// Whether the compiled triad uses non-temporal (streaming) stores,
    /// avoiding the write-allocate stream.
    pub(crate) fn uses_nontemporal_stores(self) -> bool {
        matches!(self, CompilerPersonality::IntelIcc)
    }

    /// Memory traffic per triad iteration in bytes (`a[i] = b[i] + s*c[i]`
    /// moves two loads and one store of 8 bytes each, plus a write-allocate
    /// line read unless the store is non-temporal).
    pub(crate) fn triad_bytes_per_iteration(self) -> f64 {
        if self.uses_nontemporal_stores() {
            24.0
        } else {
            32.0
        }
    }

    /// The fraction of a physical core's maximum memory throughput a single
    /// thread of this code can request. The icc code is limited only by the
    /// core's load/store machinery; the scalar gcc loop cannot keep as many
    /// memory operations in flight.
    pub(crate) fn per_core_traffic_fraction(self) -> f64 {
        match self {
            CompilerPersonality::IntelIcc => 1.0,
            CompilerPersonality::Gcc => 0.55,
        }
    }

    /// Additional core throughput unlocked by running a second SMT thread on
    /// the same physical core. The paper observes that gcc "can probably
    /// benefit from SMT threads to a larger extent than the Intel icc code".
    pub(crate) fn smt_benefit(self) -> f64 {
        match self {
            CompilerPersonality::IntelIcc => 0.05,
            CompilerPersonality::Gcc => 0.45,
        }
    }

    /// Display name used in figure captions.
    pub fn name(self) -> &'static str {
        match self {
            CompilerPersonality::IntelIcc => "Intel icc",
            CompilerPersonality::Gcc => "gcc",
        }
    }
}

/// The affinity mechanism built into the Intel OpenMP runtime
/// (`KMP_AFFINITY`), reproduced for Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmpAffinity {
    /// `KMP_AFFINITY=disabled` (the setting used for all likwid-pin runs).
    Disabled,
    /// `KMP_AFFINITY=scatter`: spread threads round-robin over sockets.
    Scatter,
    /// `KMP_AFFINITY=compact`: fill one socket before the next.
    Compact,
}

/// How the application threads get placed for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementPolicy {
    /// No pinning at all: the simulated OS scheduler decides (Figures 4, 7, 9).
    Unpinned,
    /// Pinned from the outside with `likwid-pin` to an explicit OS-processor
    /// list (Figures 5, 8, 10).
    LikwidPin(Vec<usize>),
    /// The Intel runtime's own affinity interface (Figure 6).
    Kmp(KmpAffinity),
}

/// The OpenMP runtime model: resolves a placement policy into the hardware
/// threads each application thread runs on.
#[derive(Debug, Clone)]
pub struct OpenMpRuntime {
    /// Compiler personality of the binary.
    pub personality: CompilerPersonality,
    /// Machine the run happens on.
    pub machine: MachinePreset,
}

impl OpenMpRuntime {
    /// New runtime model.
    pub fn new(personality: CompilerPersonality, machine: MachinePreset) -> Self {
        OpenMpRuntime { personality, machine }
    }

    /// Resolve where `num_threads` application threads run under `policy`.
    ///
    /// For the unpinned policy each call draws a fresh placement (one sample
    /// of the experiment); pinned policies are deterministic.
    pub fn place<R: Rng + ?Sized>(
        &self,
        topo: &TopologySpec,
        num_threads: usize,
        policy: &PlacementPolicy,
        rng: &mut R,
    ) -> Vec<usize> {
        match policy {
            PlacementPolicy::Unpinned => {
                SimScheduler::new(PlacementStrategy::CfsLike).place(topo, num_threads, rng)
            }
            PlacementPolicy::LikwidPin(list) => {
                (0..num_threads).map(|i| list[i % list.len()]).collect()
            }
            PlacementPolicy::Kmp(KmpAffinity::Scatter) => scatter_placement(topo, num_threads),
            PlacementPolicy::Kmp(KmpAffinity::Compact) => compact_placement(topo, num_threads),
            PlacementPolicy::Kmp(KmpAffinity::Disabled) => {
                SimScheduler::new(PlacementStrategy::CfsLike).place(topo, num_threads, rng)
            }
        }
    }

    /// Resolve one sample's full [`Placement`]: where the threads compute,
    /// and where they ran while first-touching their data. Pinned runs
    /// first-touch exactly where they later run; unpinned runs draw a
    /// second placement — the scheduler may have migrated threads between
    /// the initialisation loop and the measured kernel.
    pub(crate) fn resolve_placement<R: Rng + ?Sized>(
        &self,
        topo: &TopologySpec,
        num_threads: usize,
        policy: &PlacementPolicy,
        rng: &mut R,
    ) -> Placement {
        let compute = self.place(topo, num_threads, policy, rng);
        let init = match policy {
            PlacementPolicy::Unpinned | PlacementPolicy::Kmp(KmpAffinity::Disabled) => {
                self.place(topo, num_threads, policy, rng)
            }
            _ => compute.clone(),
        };
        Placement { compute, init }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn personalities_differ_in_store_type_and_throughput() {
        assert!(CompilerPersonality::IntelIcc.uses_nontemporal_stores());
        assert!(!CompilerPersonality::Gcc.uses_nontemporal_stores());
        assert_eq!(CompilerPersonality::IntelIcc.triad_bytes_per_iteration(), 24.0);
        assert_eq!(CompilerPersonality::Gcc.triad_bytes_per_iteration(), 32.0);
        assert!(
            CompilerPersonality::Gcc.per_core_traffic_fraction()
                < CompilerPersonality::IntelIcc.per_core_traffic_fraction()
        );
        assert!(
            CompilerPersonality::Gcc.smt_benefit() > CompilerPersonality::IntelIcc.smt_benefit()
        );
    }

    #[test]
    fn personalities_map_to_the_right_threading_model() {
        assert_eq!(CompilerPersonality::IntelIcc.threading_model(), ThreadingModel::IntelOpenMp);
        assert_eq!(CompilerPersonality::Gcc.threading_model(), ThreadingModel::GccOpenMp);
        assert_eq!(CompilerPersonality::IntelIcc.skip_mask(), SkipMask(0x1));
        assert_eq!(CompilerPersonality::Gcc.skip_mask(), SkipMask(0x0));
    }

    #[test]
    fn likwid_pin_policy_is_deterministic_and_scatter_spreads_sockets() {
        let preset = MachinePreset::WestmereEp2S;
        let topo = preset.topology();
        let runtime = OpenMpRuntime::new(CompilerPersonality::IntelIcc, preset);
        let mut rng = StdRng::seed_from_u64(1);

        let list = scatter_placement(&topo, 4);
        let p1 = runtime.place(&topo, 4, &PlacementPolicy::LikwidPin(list.clone()), &mut rng);
        let p2 = runtime.place(&topo, 4, &PlacementPolicy::LikwidPin(list), &mut rng);
        assert_eq!(p1, p2, "pinned placements do not vary between samples");

        let scatter =
            runtime.place(&topo, 4, &PlacementPolicy::Kmp(KmpAffinity::Scatter), &mut rng);
        let sockets: std::collections::HashSet<u32> =
            scatter.iter().map(|&c| topo.hw_thread(c).unwrap().socket).collect();
        assert_eq!(sockets.len(), 2, "KMP scatter uses both sockets");

        let compact =
            runtime.place(&topo, 4, &PlacementPolicy::Kmp(KmpAffinity::Compact), &mut rng);
        let sockets: std::collections::HashSet<u32> =
            compact.iter().map(|&c| topo.hw_thread(c).unwrap().socket).collect();
        assert_eq!(sockets.len(), 1, "KMP compact fills one socket first");
    }

    #[test]
    fn unpinned_policy_varies_between_samples() {
        let preset = MachinePreset::WestmereEp2S;
        let topo = preset.topology();
        let runtime = OpenMpRuntime::new(CompilerPersonality::Gcc, preset);
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<Vec<usize>> = (0..20)
            .map(|_| runtime.place(&topo, 6, &PlacementPolicy::Unpinned, &mut rng))
            .collect();
        let distinct: std::collections::HashSet<Vec<usize>> = draws.into_iter().collect();
        assert!(distinct.len() > 1, "unpinned placements must vary");
    }
}
