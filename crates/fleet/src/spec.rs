//! The declarative sweep specification and its cartesian expansion.
//!
//! A [`SweepSpec`] names the axes of an experiment matrix; [`SweepSpec::
//! expand`] takes the cartesian product, applies the per-axis filters and
//! yields one [`ExperimentPoint`] per surviving combination. A point is a
//! *value* — it can be built into a ready-to-run
//! [`likwid_workloads::Experiment`] at any time, and its canonical
//! serialization (a versioned superset of
//! [`likwid_workloads::Experiment::canonical_spec`]) is the memo key of
//! the on-disk result store.

use likwid::perfctr::parse_measurement_spec;
use likwid_affinity::pinlist::scatter_placement;
use likwid_workloads::jacobi::{JacobiVariant, JacobiWorkload};
use likwid_workloads::openmp::{CompilerPersonality, KmpAffinity, PlacementPolicy};
use likwid_workloads::{kernel_by_name, Experiment, StreamTriad, Workload};
use likwid_x86_machine::{FaultPlan, MachinePreset, Prefetcher};

/// Which workload a point runs. Canonical and instantiable: the variants
/// cover the paper's two case studies and the registered `likwid-bench`
/// kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's OpenMP STREAM triad at the figure array size; the
    /// point's compiler personality selects the code generation model.
    StreamTriad,
    /// A registered microbenchmark kernel (`copy`, `scale`, `add`,
    /// `triad`, `daxpy`, `chase`, …) at a given working-set size.
    Kernel {
        /// Registry name.
        name: String,
        /// Working set in bytes.
        working_set_bytes: u64,
        /// Passes over the working set.
        passes: u64,
    },
    /// The 3D Jacobi smoother.
    Jacobi {
        /// Stencil variant.
        variant: JacobiVariant,
        /// Grid size in every dimension.
        size: usize,
        /// Time steps / sweeps.
        time_steps: usize,
    },
}

impl WorkloadSpec {
    /// Short canonical form, used in point keys and memo specs.
    pub fn canonical(&self) -> String {
        match self {
            WorkloadSpec::StreamTriad => "stream-triad".to_string(),
            WorkloadSpec::Kernel { name, working_set_bytes, passes } => {
                format!("kernel:{name}:{working_set_bytes}:{passes}")
            }
            WorkloadSpec::Jacobi { variant, size, time_steps } => {
                format!("jacobi:{variant:?}:{size}:{time_steps}")
            }
        }
    }

    /// Instantiate the workload for a compiler personality.
    pub(crate) fn instantiate(
        &self,
        personality: CompilerPersonality,
    ) -> likwid::Result<Box<dyn Workload>> {
        match self {
            WorkloadSpec::StreamTriad => Ok(Box::new(StreamTriad::new(personality))),
            WorkloadSpec::Kernel { name, working_set_bytes, passes } => {
                kernel_by_name(name, *working_set_bytes, *passes).ok_or_else(|| {
                    likwid::LikwidError::Usage(format!(
                        "unknown kernel '{name}' (see likwid-bench -a)"
                    ))
                })
            }
            WorkloadSpec::Jacobi { variant, size, time_steps } => Ok(Box::new(JacobiWorkload {
                variant: *variant,
                size: *size,
                time_steps: *time_steps,
            })),
        }
    }
}

/// The placement axis: how a point's threads are pinned. Resolved against
/// the point's topology and thread count when the point is built.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementAxis {
    /// No pinning: the simulated scheduler decides.
    Unpinned,
    /// `likwid-pin` round robin across sockets, physical cores first (the
    /// paper's pinned runs).
    Scatter,
    /// The Intel OpenMP runtime's `KMP_AFFINITY=scatter`.
    KmpScatter,
    /// An explicit pin list, truncated to the point's thread count.
    Pin(Vec<usize>),
}

impl PlacementAxis {
    /// Short canonical form (`unpinned`, `scatter`, `kmp-scatter`,
    /// `pin:0.1.2`).
    pub fn canonical(&self) -> String {
        match self {
            PlacementAxis::Unpinned => "unpinned".to_string(),
            PlacementAxis::Scatter => "scatter".to_string(),
            PlacementAxis::KmpScatter => "kmp-scatter".to_string(),
            PlacementAxis::Pin(list) => {
                let cpus: Vec<String> = list.iter().map(|c| c.to_string()).collect();
                format!("pin:{}", cpus.join("."))
            }
        }
    }

    /// Whether the axis value pins its threads.
    pub fn pinned(&self) -> bool {
        !matches!(self, PlacementAxis::Unpinned)
    }

    /// Resolve into the harness-level placement policy for one point.
    pub fn resolve(&self, preset: MachinePreset, threads: usize) -> PlacementPolicy {
        match self {
            PlacementAxis::Unpinned => PlacementPolicy::Unpinned,
            PlacementAxis::Scatter => {
                PlacementPolicy::LikwidPin(scatter_placement(&preset.topology(), threads))
            }
            PlacementAxis::KmpScatter => PlacementPolicy::Kmp(KmpAffinity::Scatter),
            PlacementAxis::Pin(list) => PlacementPolicy::LikwidPin(list.clone()),
        }
    }
}

/// The prefetcher axis: all four hardware prefetchers enabled (the reset
/// state) or all disabled through their `IA32_MISC_ENABLE` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherState {
    /// Reset state, everything on.
    Enabled,
    /// All four prefetchers off (a no-op on AMD presets, which have no
    /// switchable prefetcher bits in this model).
    Disabled,
}

impl PrefetcherState {
    /// Short canonical form (`pf-on` / `pf-off`).
    pub fn canonical(self) -> &'static str {
        match self {
            PrefetcherState::Enabled => "pf-on",
            PrefetcherState::Disabled => "pf-off",
        }
    }
}

/// The thread-count axis.
#[derive(Debug, Clone, PartialEq)]
pub enum ThreadsAxis {
    /// Explicit counts; values exceeding a preset's hardware threads are
    /// skipped for that preset.
    Counts(Vec<usize>),
    /// `1..=num_hw_threads` of each preset (the STREAM figure sweeps).
    AllHwThreads,
}

impl ThreadsAxis {
    fn resolve(&self, preset: MachinePreset) -> Vec<usize> {
        let limit = preset.topology().num_hw_threads();
        match self {
            ThreadsAxis::Counts(counts) => {
                counts.iter().copied().filter(|&t| t >= 1 && t <= limit).collect()
            }
            ThreadsAxis::AllHwThreads => (1..=limit).collect(),
        }
    }
}

/// How a point's base RNG seed is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedRule {
    /// The same seed for every point.
    Fixed(u64),
    /// `base ^ threads`, the convention of the paper's figure generators
    /// (each thread count samples an independent placement stream).
    XorThreads(u64),
}

impl SeedRule {
    fn seed_for(self, threads: usize) -> u64 {
        match self {
            SeedRule::Fixed(base) => base,
            SeedRule::XorThreads(base) => base ^ threads as u64,
        }
    }
}

/// A declarative per-axis filter, applied to each candidate point during
/// expansion.
#[derive(Debug, Clone, PartialEq)]
pub enum PointFilter {
    /// Drop points above a thread count.
    ThreadsAtMost(usize),
    /// Keep only pinned placements.
    PinnedOnly,
    /// Keep only points on these presets.
    Presets(Vec<MachinePreset>),
}

impl PointFilter {
    fn keeps(&self, point: &ExperimentPoint) -> bool {
        match self {
            PointFilter::ThreadsAtMost(limit) => point.threads <= *limit,
            PointFilter::PinnedOnly => point.placement.pinned(),
            PointFilter::Presets(presets) => presets.contains(&point.preset),
        }
    }
}

/// The declarative sweep: axes, shared sampling parameters, filters.
/// Empty `personalities`/`prefetchers` axes default to a single value
/// (Intel icc, prefetchers on) during expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Machine preset axis.
    pub presets: Vec<MachinePreset>,
    /// Compiler personality axis (empty = Intel icc).
    pub personalities: Vec<CompilerPersonality>,
    /// Placement axis.
    pub placements: Vec<PlacementAxis>,
    /// Prefetcher state axis (empty = enabled).
    pub prefetchers: Vec<PrefetcherState>,
    /// Thread count axis.
    pub threads: ThreadsAxis,
    /// Samples per point.
    pub samples: usize,
    /// Seed derivation rule.
    pub seed: SeedRule,
    /// Optional counter measurement, as a `likwid-perfctr -g` spelling
    /// (validated against each preset's event table during expansion).
    pub counters: Option<String>,
    /// Optional timeline interval (virtual seconds); required for daemon
    /// routing.
    pub timeline: Option<f64>,
    /// Optional fault plan armed on every point's machine (robustness
    /// sweeps; injected points are never memoized).
    pub inject: Option<String>,
    /// Per-axis filters, all of which a point must pass.
    pub filters: Vec<PointFilter>,
}

impl SweepSpec {
    /// A minimal single-axis sweep over thread counts of one preset —
    /// every other axis starts as a one-value default to be overridden.
    pub fn new(workload: WorkloadSpec, preset: MachinePreset) -> Self {
        SweepSpec {
            workloads: vec![workload],
            presets: vec![preset],
            personalities: Vec::new(),
            placements: vec![PlacementAxis::Scatter],
            prefetchers: Vec::new(),
            threads: ThreadsAxis::AllHwThreads,
            samples: 1,
            seed: SeedRule::Fixed(0),
            counters: None,
            timeline: None,
            inject: None,
            filters: Vec::new(),
        }
    }

    /// Expand into experiment points: cartesian product over the axes in a
    /// fixed order (workload, preset, personality, placement, prefetchers,
    /// threads innermost), filters applied. Validates the counter spec and
    /// fault plan up front, so a malformed sweep fails before any point
    /// runs.
    pub fn expand(&self) -> likwid::Result<Vec<ExperimentPoint>> {
        if self.workloads.is_empty() || self.presets.is_empty() || self.placements.is_empty() {
            return Err(likwid::LikwidError::Usage(
                "a sweep needs at least one workload, preset and placement".into(),
            ));
        }
        if let Some(plan) = &self.inject {
            FaultPlan::parse(plan).map_err(likwid::LikwidError::Usage)?;
        }
        if let Some(arg) = &self.counters {
            for &preset in &self.presets {
                let table = likwid_perf_events::tables::for_arch(preset.arch());
                parse_measurement_spec(arg, &table)?;
            }
        }
        let personalities: &[CompilerPersonality] = if self.personalities.is_empty() {
            &[CompilerPersonality::IntelIcc]
        } else {
            &self.personalities
        };
        let prefetchers: &[PrefetcherState] = if self.prefetchers.is_empty() {
            &[PrefetcherState::Enabled]
        } else {
            &self.prefetchers
        };

        let mut points = Vec::new();
        for workload in &self.workloads {
            for &preset in &self.presets {
                for &personality in personalities {
                    for placement in &self.placements {
                        for &prefetcher in prefetchers {
                            for threads in self.threads.resolve(preset) {
                                let point = ExperimentPoint {
                                    workload: workload.clone(),
                                    preset,
                                    personality,
                                    placement: placement.clone(),
                                    prefetchers: prefetcher,
                                    threads,
                                    samples: self.samples.max(1),
                                    seed: self.seed.seed_for(threads),
                                    counters: self.counters.clone(),
                                    timeline: self.timeline,
                                    inject: self.inject.clone(),
                                };
                                if self.filters.iter().all(|f| f.keeps(&point)) {
                                    points.push(point);
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(points)
    }
}

/// One fully resolved cell of the experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPoint {
    /// What runs.
    pub workload: WorkloadSpec,
    /// On which machine.
    pub preset: MachinePreset,
    /// Under which compiler personality.
    pub personality: CompilerPersonality,
    /// With which placement.
    pub placement: PlacementAxis,
    /// With which prefetcher state.
    pub prefetchers: PrefetcherState,
    /// With how many threads.
    pub threads: usize,
    /// Samples per point.
    pub samples: usize,
    /// Base RNG seed (already derived through the sweep's [`SeedRule`]).
    pub seed: u64,
    /// Optional counter spec (`likwid-perfctr -g` spelling).
    pub counters: Option<String>,
    /// Optional timeline interval.
    pub timeline: Option<f64>,
    /// Optional fault plan spec.
    pub inject: Option<String>,
}

impl ExperimentPoint {
    /// The human-readable point key used in reports and trajectory files:
    /// `workload|preset|personality|placement|prefetchers|t=N`. Unique
    /// within one sweep (the remaining fields are sweep-constant).
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{:?}|{}|{}|t={}",
            self.workload.canonical(),
            self.preset.id(),
            self.personality,
            self.placement.canonical(),
            self.prefetchers.canonical(),
            self.threads
        )
    }

    /// Build the ready-to-run experiment and workload instance.
    pub fn build(&self) -> likwid::Result<(Experiment, Box<dyn Workload>)> {
        let policy = self.placement.resolve(self.preset, self.threads);
        let mut exp = Experiment::on(self.preset)
            .personality(self.personality)
            .placement(policy)
            .threads(self.threads)
            .samples(self.samples)
            .seed(self.seed);
        if self.prefetchers == PrefetcherState::Disabled {
            exp = exp.prefetchers_off(Prefetcher::all());
        }
        if let Some(arg) = &self.counters {
            let table = likwid_perf_events::tables::for_arch(self.preset.arch());
            exp = exp.counters(parse_measurement_spec(arg, &table)?);
        }
        if let Some(interval_s) = self.timeline {
            exp = exp.timeline(interval_s);
        }
        if let Some(plan) = &self.inject {
            exp = exp.inject(FaultPlan::parse(plan).map_err(likwid::LikwidError::Usage)?);
        }
        let workload = self.workload.instantiate(self.personality)?;
        Ok((exp, workload))
    }

    /// The canonical serialized point spec: a `fleet/v1` header naming the
    /// workload, wrapping the experiment harness's own canonical spec (so
    /// every harness field — resolved pin list included — feeds the memo
    /// key exactly once). Fails only when the point cannot be built.
    pub fn canonical(&self) -> likwid::Result<String> {
        let (exp, _) = self.build()?;
        Ok(format!("fleet/v1;workload={};{}", self.workload.canonical(), exp.canonical_spec()))
    }

    /// Content address of the point: 128 bits from two FNV-1a/splitmix64
    /// passes over the canonical spec with distinct offset bases, as 32
    /// hex digits.
    pub(crate) fn digest_hex(&self) -> likwid::Result<String> {
        let canonical = self.canonical()?;
        let lo = digest64(canonical.as_bytes(), 0xCBF2_9CE4_8422_2325);
        let hi = digest64(canonical.as_bytes(), 0x84222325_CBF29CE4);
        Ok(format!("{hi:016x}{lo:016x}"))
    }
}

/// FNV-1a with a splitmix64 finalizer, parameterized by offset basis.
fn digest64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> SweepSpec {
        let mut spec = SweepSpec::new(
            WorkloadSpec::Kernel { name: "triad".into(), working_set_bytes: 1 << 20, passes: 1 },
            MachinePreset::Core2Quad,
        );
        spec.threads = ThreadsAxis::Counts(vec![1, 2, 4]);
        spec.samples = 2;
        spec.seed = SeedRule::XorThreads(9);
        spec
    }

    #[test]
    fn expansion_is_a_filtered_cartesian_product() {
        let mut spec = small_sweep();
        spec.placements = vec![PlacementAxis::Scatter, PlacementAxis::Unpinned];
        spec.prefetchers = vec![PrefetcherState::Enabled, PrefetcherState::Disabled];
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 2 * 2 * 3);
        spec.filters = vec![PointFilter::PinnedOnly, PointFilter::ThreadsAtMost(2)];
        let filtered = spec.expand().unwrap();
        assert_eq!(filtered.len(), 2 * 2);
        assert!(filtered.iter().all(|p| p.placement == PlacementAxis::Scatter && p.threads <= 2));
    }

    #[test]
    fn thread_axis_clamps_to_the_preset() {
        let mut spec = small_sweep();
        spec.threads = ThreadsAxis::Counts(vec![1, 4, 64]);
        let points = spec.expand().unwrap();
        assert_eq!(points.iter().map(|p| p.threads).collect::<Vec<_>>(), vec![1, 4]);
        spec.threads = ThreadsAxis::AllHwThreads;
        assert_eq!(spec.expand().unwrap().len(), 4, "core2-quad has 4 hardware threads");
    }

    #[test]
    fn seed_rule_matches_the_figure_convention() {
        let points = small_sweep().expand().unwrap();
        assert_eq!(points.iter().map(|p| p.seed).collect::<Vec<_>>(), vec![9 ^ 1, 9 ^ 2, 9 ^ 4]);
    }

    #[test]
    fn keys_are_unique_within_a_sweep() {
        let mut spec = small_sweep();
        spec.placements = vec![PlacementAxis::Scatter, PlacementAxis::KmpScatter];
        spec.prefetchers = vec![PrefetcherState::Enabled, PrefetcherState::Disabled];
        let points = spec.expand().unwrap();
        let keys: std::collections::HashSet<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(keys.len(), points.len());
    }

    #[test]
    fn digests_separate_points_and_are_stable() {
        let points = small_sweep().expand().unwrap();
        let digests: Vec<String> = points.iter().map(|p| p.digest_hex().unwrap()).collect();
        let distinct: std::collections::HashSet<&String> = digests.iter().collect();
        assert_eq!(distinct.len(), digests.len());
        assert!(digests.iter().all(|d| d.len() == 32));
        // Recomputing never changes the address.
        assert_eq!(points[0].digest_hex().unwrap(), digests[0]);
    }

    #[test]
    fn bad_specs_fail_expansion_up_front() {
        let mut spec = small_sweep();
        spec.counters = Some("NOT_A_GROUP".into());
        assert!(spec.expand().is_err());
        let mut spec = small_sweep();
        spec.inject = Some("bogus=1".into());
        assert!(spec.expand().is_err());
        let mut spec = small_sweep();
        spec.workloads.clear();
        assert!(spec.expand().is_err());
    }
}
