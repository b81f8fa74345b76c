//! The OpenMP STREAM triad workload (Figures 4–10).
//!
//! One *sample* is one run of the benchmark at a fixed thread count: the
//! runtime places the threads (randomly if unpinned, deterministically if
//! pinned), the arrays are first-touched under an initialisation placement,
//! and the triad bandwidth follows from the bandwidth model. The
//! [`crate::Experiment`] harness draws the samples; one *series* is 100
//! samples per thread count, summarised as a box plot — exactly the
//! procedure behind the paper's figures.

use likwid_cache_sim::NodeStats;
use likwid_x86_machine::SimMachine;

use crate::exec::ExecutionProfile;
use crate::openmp::CompilerPersonality;
use crate::perfmodel::{BandwidthModel, StreamKernelModel};
use crate::workload::{Placement, Workload, WorkloadRun};

/// The OpenMP STREAM triad of Figures 4–10 as a pluggable [`Workload`]:
/// evaluated through the analytic bandwidth model (the figures need tens of
/// thousands of samples, far too many to replay full address streams), with
/// an execution profile consistent with the model so measured runs credit
/// the right FLOPS/memory counters.
#[derive(Debug, Clone, Copy)]
pub struct StreamTriad {
    /// The compiler that built the triad loop.
    pub personality: CompilerPersonality,
    /// Elements per array (the paper-scale default is 20 million — three
    /// arrays of 160 MB, far beyond every cache).
    pub array_elements: u64,
}

impl StreamTriad {
    /// The triad as compiled by `personality`, at the paper's array size.
    pub fn new(personality: CompilerPersonality) -> Self {
        StreamTriad { personality, array_elements: 20_000_000 }
    }
}

impl Workload for StreamTriad {
    fn name(&self) -> &str {
        "stream-triad"
    }

    fn flops_per_iteration(&self) -> f64 {
        2.0 // a[i] = b[i] + s*c[i]: one multiply, one add
    }

    fn bytes_per_iteration(&self) -> f64 {
        self.personality.triad_bytes_per_iteration()
    }

    fn working_set_bytes(&self) -> u64 {
        3 * self.array_elements * 8
    }

    fn run(&self, machine: &SimMachine, placement: &Placement) -> WorkloadRun {
        let topo = machine.topology();
        let memory = machine.memory_system();
        let model = BandwidthModel::new(topo, memory);
        let kernel = StreamKernelModel::triad(self.personality, &memory);
        let bandwidth_mbs =
            model.reported_stream_bandwidth(&placement.compute, &placement.init, &kernel);
        let useful_bytes = self.array_elements as f64 * kernel.useful_bytes_per_iteration;
        let runtime_s = useful_bytes / (bandwidth_mbs * 1e6);

        let mut profile = ExecutionProfile::new(topo.num_hw_threads());
        let cycles = machine.clock().seconds_to_cycles(runtime_s);
        let threads = placement.compute.len().max(1) as u64;
        for &hw in &placement.compute {
            profile.credit_streaming_thread(
                hw,
                cycles,
                self.array_elements / threads,
                4,
                self.flops_per_iteration(),
            );
        }

        WorkloadRun {
            iterations: self.array_elements,
            runtime_s,
            bandwidth_mbs,
            mflops: self.array_elements as f64 * self.flops_per_iteration() / runtime_s / 1e6,
            stats: NodeStats::default(),
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::openmp::{KmpAffinity, PlacementPolicy};
    use crate::stats::BoxStats;
    use likwid_affinity::pinlist::scatter_placement;
    use likwid_x86_machine::MachinePreset;

    /// The triad bandwidths of `samples` runs at `threads` threads under
    /// `policy`: one point of a Figure 4–10 series.
    fn bandwidths_of(
        preset: MachinePreset,
        personality: CompilerPersonality,
        threads: usize,
        policy: PlacementPolicy,
        samples: usize,
        seed: u64,
    ) -> Vec<f64> {
        Experiment::on(preset)
            .personality(personality)
            .placement(policy)
            .threads(threads)
            .samples(samples)
            .seed(seed)
            .run(&StreamTriad::new(personality))
            .unwrap()
            .bandwidths()
    }

    /// [`bandwidths_of`] on the Westmere node with 30 samples (keeps the
    /// unit tests fast).
    fn westmere(
        personality: CompilerPersonality,
        threads: usize,
        policy: PlacementPolicy,
        seed: u64,
    ) -> BoxStats {
        let samples =
            bandwidths_of(MachinePreset::WestmereEp2S, personality, threads, policy, 30, seed);
        BoxStats::from_samples(&samples).unwrap()
    }

    /// The pinned placement of the paper's pinned figures: round robin
    /// across sockets, physical cores before SMT threads.
    fn paper_pinned(preset: MachinePreset, threads: usize) -> PlacementPolicy {
        PlacementPolicy::LikwidPin(scatter_placement(&preset.topology(), threads))
    }

    fn westmere_pinned(threads: usize) -> PlacementPolicy {
        paper_pinned(MachinePreset::WestmereEp2S, threads)
    }

    #[test]
    fn pinned_runs_are_deterministic_and_fast() {
        let stats = westmere(CompilerPersonality::IntelIcc, 12, westmere_pinned(12), 42);
        assert!(stats.iqr() < 1.0, "pinned samples are identical, spread {}", stats.iqr());
        assert!(
            stats.median > 38_000.0,
            "pinned 12-thread Westmere ≈ 41 GB/s, got {}",
            stats.median
        );
    }

    #[test]
    fn figure4_vs_figure5_unpinned_variance_and_pinned_stability() {
        let icc = CompilerPersonality::IntelIcc;
        for threads in [2usize, 6, 12] {
            let unpinned = westmere(icc, threads, PlacementPolicy::Unpinned, 7);
            let pinned = westmere(icc, threads, westmere_pinned(threads), 7);
            assert!(
                unpinned.relative_spread().unwrap() > pinned.relative_spread().unwrap(),
                "{threads} threads: unpinned spread {:?} must exceed pinned spread {:?}",
                unpinned.relative_spread(),
                pinned.relative_spread()
            );
            assert!(
                pinned.median >= unpinned.median * 0.99,
                "{threads} threads: pinning must not lose bandwidth ({} vs {})",
                pinned.median,
                unpinned.median
            );
        }
    }

    #[test]
    fn figure6_kmp_scatter_matches_likwid_pin() {
        let icc = CompilerPersonality::IntelIcc;
        for threads in [4usize, 8, 12] {
            let pinned = westmere(icc, threads, westmere_pinned(threads), 3);
            let kmp = westmere(icc, threads, PlacementPolicy::Kmp(KmpAffinity::Scatter), 3);
            let diff = (pinned.median - kmp.median).abs() / pinned.median;
            assert!(diff < 0.02, "KMP scatter ≈ likwid-pin at {threads} threads ({diff})");
        }
    }

    #[test]
    fn gcc_plateau_is_lower_than_icc_plateau() {
        let icc_peak = westmere(CompilerPersonality::IntelIcc, 12, westmere_pinned(12), 1);
        let gcc_peak = westmere(CompilerPersonality::Gcc, 12, westmere_pinned(12), 1);
        assert!(
            gcc_peak.median < 0.85 * icc_peak.median,
            "gcc ({}) must stay well below icc ({})",
            gcc_peak.median,
            icc_peak.median
        );
        assert!(gcc_peak.median > 25_000.0, "but still reach ≈ 30 GB/s");
    }

    #[test]
    fn bandwidth_saturates_with_increasing_thread_count() {
        // The figure convention: each thread count draws from seed ^ threads.
        let medians: Vec<f64> = [1usize, 2, 4, 6, 12, 24]
            .into_iter()
            .map(|t| {
                westmere(CompilerPersonality::IntelIcc, t, westmere_pinned(t), 5 ^ t as u64).median
            })
            .collect();
        assert!(medians[0] < 12_000.0);
        // Monotone non-decreasing up to the plateau, then flat within 10%.
        for w in medians.windows(2) {
            assert!(w[1] > w[0] * 0.9, "no drastic drop along the pinned curve: {medians:?}");
        }
        let plateau = medians.last().unwrap();
        assert!((plateau - medians[4]).abs() / plateau < 0.1, "plateau is flat: {medians:?}");
    }

    #[test]
    fn istanbul_figures_9_and_10_shape() {
        let preset = MachinePreset::IstanbulH2S;
        let icc = CompilerPersonality::IntelIcc;
        let stats = |threads, policy| {
            BoxStats::from_samples(&bandwidths_of(preset, icc, threads, policy, 30, 9)).unwrap()
        };
        let unpinned = stats(6, PlacementPolicy::Unpinned);
        let pinned = stats(6, paper_pinned(preset, 6));
        assert!(unpinned.relative_spread().unwrap() > pinned.relative_spread().unwrap());
        let full = stats(12, paper_pinned(preset, 12));
        assert!(
            full.median > 22_000.0 && full.median < 26_000.0,
            "Istanbul plateau ≈ 24-25 GB/s, got {}",
            full.median
        );
    }

    #[test]
    fn adding_samples_never_perturbs_earlier_samples() {
        // Regression: the sample loop used to thread one sequential RNG
        // through all samples, so growing the sample count (or consuming a
        // different number of random draws per sample) shifted every later
        // sample. Per-sample seed streams make the prefix stable.
        let run = |samples| {
            bandwidths_of(
                MachinePreset::WestmereEp2S,
                CompilerPersonality::IntelIcc,
                6,
                PlacementPolicy::Unpinned,
                samples,
                11,
            )
        };
        let short = run(5);
        let long = run(20);
        assert_eq!(&long[..5], &short[..], "the first five samples are identical");
        let distinct: std::collections::HashSet<u64> = long.iter().map(|b| b.to_bits()).collect();
        assert!(distinct.len() > 1, "unpinned samples still vary");
    }

    #[test]
    fn stream_triad_workload_matches_the_experiment_front_end() {
        let preset = MachinePreset::WestmereEp2S;
        let placement: Vec<usize> = (0..12).collect();
        let run = StreamTriad::new(CompilerPersonality::IntelIcc)
            .run(&SimMachine::new(preset), &Placement::pinned(placement.clone()));
        let sampled = bandwidths_of(
            preset,
            CompilerPersonality::IntelIcc,
            12,
            PlacementPolicy::LikwidPin(placement),
            1,
            1,
        );
        assert_eq!(sampled, vec![run.bandwidth_mbs]);
        assert!(run.mflops > 0.0);
        assert!(run.runtime_s > 0.0);
        assert_eq!(run.iterations, 20_000_000);
    }
}
