//! The experiment harness: machine × placement × sampling × counters.
//!
//! An [`Experiment`] composes everything around a [`Workload`] that the
//! paper's figures vary — machine preset, [`PlacementPolicy`], number of
//! samples, and optionally a `likwid-perfctr` measurement — and runs any
//! workload under it. One sample resolves the placement (drawing from a
//! per-sample RNG stream for unpinned policies), executes the workload, and
//! — when counters are configured — drives the whole tool path: program the
//! counters through the MSRs, wrap the run in a marker-API region, credit
//! the simulated activity through the counting engine, and read the region
//! results back. The figure generators of `likwid-bench` (the crate) and
//! the `likwid-bench` microbenchmark tool are both thin layers over this
//! builder.

use likwid::marker::MarkerApi;
use likwid::perfctr::{
    MeasurementSpec, PerfCtr, PerfCtrConfig, PerfCtrResults, TimelineResult, TimelineSession,
};
use likwid_perf_events::{EventEngine, EventSample};
use likwid_x86_machine::{FaultPlan, MachinePreset, Msr, Prefetcher, SimMachine, Vendor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exec::{sample_from_simulation, slice_samples, ProgressTrace};
use crate::openmp::{CompilerPersonality, PlacementPolicy};
use crate::stats::BoxStats;
use crate::workload::{Placement, Workload, WorkloadRun};

/// Derive the RNG seed of sample `index` from the experiment's base seed
/// (splitmix64 finalizer). Every sample owns an independent stream, so
/// adding samples never perturbs the ones already drawn.
pub(crate) fn sample_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builder for one experiment configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    preset: MachinePreset,
    personality: CompilerPersonality,
    policy: PlacementPolicy,
    threads: Option<usize>,
    samples: usize,
    seed: u64,
    counters: Option<MeasurementSpec>,
    timeline: Option<f64>,
    inject: Option<FaultPlan>,
    prefetchers_off: Vec<Prefetcher>,
}

impl Experiment {
    /// A new experiment on a machine preset. Defaults: one sample, one
    /// thread, unpinned placement, Intel personality, no counters.
    pub fn on(preset: MachinePreset) -> Self {
        Experiment {
            preset,
            personality: CompilerPersonality::IntelIcc,
            policy: PlacementPolicy::Unpinned,
            threads: None,
            samples: 1,
            seed: 0,
            counters: None,
            timeline: None,
            inject: None,
            prefetchers_off: Vec::new(),
        }
    }

    /// The compiler/runtime personality resolving the placement policy.
    pub fn personality(mut self, personality: CompilerPersonality) -> Self {
        self.personality = personality;
        self
    }

    /// How the application threads are placed.
    pub fn placement(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of application threads. Defaults to the pin-list length for
    /// [`PlacementPolicy::LikwidPin`], 1 otherwise.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Number of samples (placement draws × runs). The paper uses 100 for
    /// the STREAM figures.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Base RNG seed; each sample derives its own stream via
    /// `sample_seed`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Measure the first sample through `likwid-perfctr` with this
    /// specification (event group or custom event list).
    pub fn counters(mut self, spec: MeasurementSpec) -> Self {
        self.counters = Some(spec);
        self
    }

    /// Sugar for [`Experiment::counters`] with a preconfigured group.
    pub fn group(self, kind: likwid::perfctr::EventGroupKind) -> Self {
        self.counters(MeasurementSpec::Group(kind))
    }

    /// Measure the first sample time-resolved: sample the counter state
    /// every `interval_s` seconds of *virtual* time while the workload
    /// runs, yielding a [`TimelineResult`] with per-interval deltas and
    /// derived metrics next to the aggregate. Requires
    /// [`Experiment::counters`]; unlike aggregate mode, a multiplexed
    /// group list is allowed — the groups rotate across intervals and the
    /// aggregates are extrapolated by schedule coverage.
    pub fn timeline(mut self, interval_s: f64) -> Self {
        self.timeline = Some(interval_s);
        self
    }

    /// Attach a fault-injection plan to the machine before any MSR device
    /// is opened (robustness testing: the measurement session must heal or
    /// degrade gracefully, the workload itself is unaffected).
    pub fn inject(mut self, plan: FaultPlan) -> Self {
        self.inject = Some(plan);
        self
    }

    /// Disable the given hardware prefetchers before the run by clearing
    /// their `IA32_MISC_ENABLE` bits on every core, the `likwid-features`
    /// mechanism. The list is stored sorted and deduplicated, so call order
    /// never changes the canonical spec. AMD presets have no switchable
    /// prefetcher bits in this model (they always report enabled); the
    /// request is a documented no-op there.
    pub fn prefetchers_off(mut self, prefetchers: &[Prefetcher]) -> Self {
        for &p in prefetchers {
            if !self.prefetchers_off.contains(&p) {
                self.prefetchers_off.push(p);
            }
        }
        self.prefetchers_off.sort_by_key(|p| p.cli_name());
        self
    }

    /// The canonical one-line serialization of the full experiment spec:
    /// every field in a fixed order under a version tag. This is the memo
    /// key of the fleet runner, so its stability contract is strict —
    /// reordering builder calls must not change it, and any change to the
    /// format (new field, different rendering) must bump the version tag
    /// AND the fleet's `CODE_EPOCH`, invalidating old cache entries instead
    /// of aliasing them. Pinned by a format regression test.
    pub fn canonical_spec(&self) -> String {
        let prefetchers: Vec<&str> = self.prefetchers_off.iter().map(|p| p.cli_name()).collect();
        format!(
            "experiment/v1;preset={};personality={:?};policy={:?};threads={:?};samples={};\
             seed={};counters={:?};timeline={:?};inject={:?};prefetchers_off={:?}",
            self.preset.id(),
            self.personality,
            self.policy,
            self.threads,
            self.samples,
            self.seed,
            self.counters,
            self.timeline,
            self.inject,
            prefetchers,
        )
    }

    fn resolved_threads(&self) -> usize {
        match self.threads {
            Some(n) => n,
            None => match &self.policy {
                PlacementPolicy::LikwidPin(list) => list.len().max(1),
                _ => 1,
            },
        }
    }

    /// Clear the disable-requested prefetchers' `IA32_MISC_ENABLE` bits on
    /// every hardware thread, before fault injection is armed (the knob is
    /// part of the machine configuration, not of the measured run).
    fn apply_prefetchers(&self, machine: &SimMachine) -> likwid::Result<()> {
        if self.prefetchers_off.is_empty() || machine.vendor() == Vendor::Amd {
            return Ok(());
        }
        let file = machine.msr_file();
        for cpu in 0..machine.topology().num_hw_threads() {
            for &p in &self.prefetchers_off {
                let value = file.read(cpu, Msr::IA32_MISC_ENABLE)?;
                file.write(cpu, Msr::IA32_MISC_ENABLE, value | p.disable_bit())?;
            }
        }
        Ok(())
    }

    /// Run a workload under this configuration.
    ///
    /// Sample 0 is the measured one when counters are configured: the
    /// session is programmed and started, the run is wrapped in a marker
    /// region named after the workload, the simulated activity is credited
    /// through the counting engine, and the region results are read back.
    pub fn run(&self, workload: &dyn Workload) -> likwid::Result<ExperimentResult> {
        self.validate(None)?;
        let machine = SimMachine::new(self.preset);
        self.apply_prefetchers(&machine)?;
        if let Some(plan) = &self.inject {
            machine.inject_faults(plan.clone());
        }
        self.sample_loop(workload, &machine, None)
    }

    /// [`Experiment::run`], but the measured sample's counter session is
    /// served by a measurement daemon instead of a private session: the
    /// workload runs traced on the daemon's machine, its activity is
    /// sliced at the interval boundaries, and the slices are replayed
    /// through a daemon session
    /// ([`likwid_daemon::ActivitySource::Replay`]), subject to the
    /// daemon's admission, arbitration and time-slicing. On an otherwise
    /// idle daemon the result is bit-identical to [`Experiment::run`];
    /// under contention the extrapolated aggregates carry the coverage
    /// scale.
    ///
    /// Requires [`Experiment::timeline`] and [`Experiment::counters`], and
    /// the experiment's preset must match the daemon's machine. Fault
    /// injection belongs to the daemon's machine in this mode, so
    /// [`Experiment::inject`] is rejected.
    pub fn via_daemon(
        &self,
        workload: &dyn Workload,
        daemon: &likwid_daemon::Daemon<'_>,
    ) -> likwid::Result<ExperimentResult> {
        self.validate(Some(daemon))?;
        self.sample_loop(workload, daemon.machine(), Some(daemon))
    }

    /// The input checks of [`Experiment::run`] and, with a daemon,
    /// [`Experiment::via_daemon`].
    fn validate(&self, daemon: Option<&likwid_daemon::Daemon<'_>>) -> likwid::Result<()> {
        let usage = |msg: String| Err(likwid::LikwidError::Usage(msg));
        if let Some(daemon) = daemon {
            if self.timeline.is_none() {
                return usage("via_daemon requires timeline mode (Experiment::timeline)".into());
            }
            if self.counters.is_none() {
                return usage(
                    "via_daemon requires a counter specification (Experiment::counters)".into(),
                );
            }
            if self.preset != daemon.machine().preset() {
                return usage(format!(
                    "machine mismatch: the experiment wants '{}', the daemon simulates '{}'",
                    self.preset.id(),
                    daemon.machine().preset().id()
                ));
            }
            if self.inject.is_some() {
                return usage(
                    "via_daemon measures the daemon's machine; arm fault injection there instead"
                        .into(),
                );
            }
        }
        if matches!(&self.policy, PlacementPolicy::LikwidPin(list) if list.is_empty()) {
            return usage("empty pin list".into());
        }
        match self.timeline {
            Some(_) if self.counters.is_none() => {
                usage("timeline mode requires a counter specification (-g)".into())
            }
            Some(interval_s) if !(interval_s.is_finite() && interval_s > 0.0) => {
                usage(format!("timeline interval must be positive, got {interval_s}"))
            }
            // Aggregate mode measures exactly one group per run; a
            // multiplexed group list would silently report only the active
            // group. Timeline mode rotates the groups across intervals, so
            // the list is allowed there.
            None if matches!(&self.counters, Some(MeasurementSpec::Groups(kinds)) if kinds.len() > 1) => {
                usage(
                    "the experiment harness measures one event group per aggregate run; \
                     multiplexed group lists are supported in timeline mode and by the \
                     likwid-perfctr session API"
                        .into(),
                )
            }
            _ => Ok(()),
        }
    }

    /// The validated sample loop behind [`Experiment::run`] and
    /// [`Experiment::via_daemon`]: one seeded placement and workload run
    /// per sample, sample 0 measured by the configured counter session.
    fn sample_loop(
        &self,
        workload: &dyn Workload,
        machine: &SimMachine,
        daemon: Option<&likwid_daemon::Daemon<'_>>,
    ) -> likwid::Result<ExperimentResult> {
        let topo = machine.topology();
        let threads = self.resolved_threads();
        let span = if daemon.is_some() { "sample.daemon" } else { "sample" };

        let mut runs = Vec::with_capacity(self.samples);
        let mut placements = Vec::with_capacity(self.samples);
        let mut counters = None;
        let mut timeline = None;
        let mut measured_cpus = Vec::new();

        for i in 0..self.samples {
            let sample_started = likwid::trace::now();
            let mut rng = StdRng::seed_from_u64(sample_seed(self.seed, i));
            let placement = self.policy.resolve_placement(topo, threads, &mut rng);

            let run = match (&self.counters, i) {
                (Some(spec), 0) => {
                    measured_cpus = placement.measured_cpus();
                    let config = PerfCtrConfig { cpus: measured_cpus.clone(), spec: spec.clone() };
                    match self.timeline {
                        None => {
                            let (run, results) =
                                measure_aggregate(workload, machine, &placement, config)?;
                            counters = Some(results);
                            run
                        }
                        Some(interval_s) => {
                            let (run, result) = match daemon {
                                None => measure_timeline(
                                    workload, machine, &placement, config, interval_s,
                                )?,
                                Some(daemon) => measure_replay(
                                    workload, &placement, config, interval_s, daemon,
                                )?,
                            };
                            // Single-group timelines expose their aggregate
                            // through the familiar counters field too;
                            // multiplexed lists live in the timeline result
                            // only.
                            if result.group_names.len() == 1 {
                                counters = Some(result.aggregate_results[0].clone());
                            }
                            timeline = Some(result);
                            run
                        }
                    }
                }
                _ => workload.run(machine, &placement),
            };
            likwid::trace::complete_since(
                likwid::trace::cat::WORKLOADS,
                sample_started,
                || span.to_string(),
                || {
                    vec![
                        ("workload", workload.name().to_string()),
                        ("index", i.to_string()),
                        ("measured", (i == 0 && self.counters.is_some()).to_string()),
                    ]
                },
            );
            runs.push(run);
            placements.push(placement);
        }

        Ok(ExperimentResult {
            workload: workload.name().to_string(),
            preset: self.preset,
            runs,
            placements,
            counters,
            timeline,
            measured_cpus,
        })
    }
}

/// Aggregate mode: a private `PerfCtr` session read back through a marker
/// region named after the workload.
fn measure_aggregate(
    workload: &dyn Workload,
    machine: &SimMachine,
    placement: &Placement,
    config: PerfCtrConfig,
) -> likwid::Result<(WorkloadRun, PerfCtrResults)> {
    let cpus = config.cpus.clone();
    let mut session = PerfCtr::new(machine, config)?;
    session.start()?;
    let mut marker = MarkerApi::init(cpus.len(), 1);
    let region = marker.register_region(workload.name());
    for (t, &cpu) in cpus.iter().enumerate() {
        marker.start_region(t, cpu, &session)?;
    }
    let run = workload.run(machine, placement);
    let sample = sample_from_simulation(machine, &run.stats, &run.profile);
    EventEngine::new(machine).apply(machine, &sample);
    for (t, &cpu) in cpus.iter().enumerate() {
        marker.stop_region(t, cpu, region, &session)?;
    }
    session.stop()?;
    Ok((run, marker.region_results(region, &session)?))
}

/// Timeline mode: a private `TimelineSession` run over the sliced
/// activity. The run is traced and sliced first, so an interval that cuts
/// it into too many slices is rejected before any counter is programmed.
fn measure_timeline(
    workload: &dyn Workload,
    machine: &SimMachine,
    placement: &Placement,
    config: PerfCtrConfig,
    interval_s: f64,
) -> likwid::Result<(WorkloadRun, TimelineResult)> {
    let (run, _, slices) = traced_slices(workload, machine, placement, interval_s)?;
    let session = TimelineSession::new(machine, config, interval_s)?;
    Ok((run, session.run(slices)?))
}

/// Daemon mode: the sliced activity replayed through a daemon session,
/// opened after the run, and the result rebuilt from its frames as a
/// socket client rebuilds it.
fn measure_replay(
    workload: &dyn Workload,
    placement: &Placement,
    config: PerfCtrConfig,
    interval_s: f64,
    daemon: &likwid_daemon::Daemon<'_>,
) -> likwid::Result<(WorkloadRun, TimelineResult)> {
    let machine = daemon.machine();
    let (run, duration_s, slices) = traced_slices(workload, machine, placement, interval_s)?;
    let samples = slices.into_iter().map(|(_, _, sample)| sample).collect();
    let config = likwid_daemon::SessionConfig {
        cpus: config.cpus,
        spec: config.spec,
        interval_s,
        duration_s,
    };
    let mut handle = daemon.open_session(config, likwid_daemon::ActivitySource::Replay(samples))?;
    let mut stream = likwid_daemon::StreamAccumulator::new(handle.opened().clone());
    let mut frame = likwid_daemon::IntervalFrame::default();
    while handle.next_interval_into(&mut frame)? {
        stream.record(&frame)?;
    }
    stream.complete(handle.finish()?.0)?;
    Ok((run, stream.result()?))
}

/// `(t_start, t_end, activity)` slices of a traced run, as
/// [`slice_samples`] returns them.
type Slices = Vec<(f64, f64, EventSample)>;

/// Run the measured sample traced and slice its activity at the interval
/// boundaries: the run, its virtual duration and the slices. Rejects an
/// interval that would cut the run into more than
/// [`MAX_INTERVALS`](likwid::perfctr::timeline::MAX_INTERVALS) slices.
fn traced_slices(
    workload: &dyn Workload,
    machine: &SimMachine,
    placement: &Placement,
    interval_s: f64,
) -> likwid::Result<(WorkloadRun, f64, Slices)> {
    let mut trace = ProgressTrace::default();
    let run = workload.run_traced(machine, placement, &mut trace);
    let duration_s = trace.runtime_s();
    likwid::perfctr::timeline::check_sampling_points(interval_s, duration_s)?;
    Ok((run, duration_s, slice_samples(machine, &trace, interval_s)))
}

/// The outcome of an experiment: one [`WorkloadRun`] per sample, plus the
/// counter results of the measured sample when counters were configured.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Name of the workload that ran.
    pub workload: String,
    /// The machine preset the experiment ran on.
    pub preset: MachinePreset,
    /// One run per sample.
    pub runs: Vec<WorkloadRun>,
    /// The resolved placement of each sample.
    pub placements: Vec<Placement>,
    /// `likwid-perfctr` results of the measured sample (sample 0), when
    /// counters were configured (for timeline runs: the aggregate of the
    /// single measured group; empty for multiplexed timeline lists).
    pub counters: Option<PerfCtrResults>,
    /// The time-resolved measurement of sample 0, when
    /// [`Experiment::timeline`] was configured.
    pub timeline: Option<TimelineResult>,
    /// The hardware threads the counter session measured.
    pub measured_cpus: Vec<usize>,
}

impl ExperimentResult {
    /// The first (measured) run. Experiments always have at least one
    /// sample.
    pub fn first(&self) -> &WorkloadRun {
        &self.runs[0]
    }

    /// The per-sample reported bandwidths.
    pub fn bandwidths(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.bandwidth_mbs).collect()
    }

    /// Box statistics over the per-sample bandwidths.
    pub fn bandwidth_stats(&self) -> Option<BoxStats> {
        BoxStats::from_samples(&self.bandwidths())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::StreamingKernel;
    use crate::openmp::KmpAffinity;
    use likwid::perfctr::{EventGroupKind, MeasurementSpec};

    #[test]
    fn sample_seeds_are_distinct_streams() {
        let seeds: Vec<u64> = (0..32).map(|i| sample_seed(42, i)).collect();
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len());
        // And independent of each other: the same index always maps to the
        // same seed, whatever the total number of samples.
        assert_eq!(sample_seed(42, 3), seeds[3]);
    }

    #[test]
    fn pinned_experiment_is_deterministic_across_runs() {
        let kernel = StreamingKernel::triad(4 << 20, 1);
        let exp = Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .samples(2);
        let a = exp.run(&kernel).unwrap();
        let b = exp.run(&kernel).unwrap();
        assert_eq!(a.bandwidths(), b.bandwidths());
        assert_eq!(a.placements[0].compute, vec![0, 1]);
        assert_eq!(a.placements[0].init, a.placements[0].compute, "pinned runs first-touch local");
        assert!(a.bandwidth_stats().unwrap().median > 0.0);
    }

    #[test]
    fn multiplexed_group_lists_are_rejected_not_silently_truncated() {
        let kernel = StreamingKernel::copy(1 << 20, 1);
        let err = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .counters(MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM]))
            .run(&kernel)
            .unwrap_err();
        assert!(matches!(err, likwid::LikwidError::Usage(_)), "got {err:?}");
        // A single-group list is equivalent to Group and works.
        let ok = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .counters(MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP]))
            .run(&kernel)
            .unwrap();
        assert!(ok.counters.is_some());
    }

    #[test]
    fn empty_pin_list_is_a_usage_error_not_a_panic() {
        let kernel = StreamingKernel::copy(1 << 20, 1);
        let err = Experiment::on(MachinePreset::Core2Quad)
            .placement(PlacementPolicy::LikwidPin(vec![]))
            .run(&kernel)
            .unwrap_err();
        assert!(matches!(err, likwid::LikwidError::Usage(_)), "got {err:?}");
    }

    #[test]
    fn thread_count_defaults_to_the_pin_list_length() {
        let kernel = StreamingKernel::copy(1 << 20, 1);
        let result = Experiment::on(MachinePreset::Core2Quad)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1, 2]))
            .run(&kernel)
            .unwrap();
        assert_eq!(result.placements[0].compute.len(), 3);
    }

    #[test]
    fn counters_measure_the_run_through_the_tool_path() {
        let kernel = StreamingKernel::daxpy(16 << 20, 1);
        let result = Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1, 2, 3]))
            .group(EventGroupKind::MEM)
            .run(&kernel)
            .unwrap();
        let counters = result.counters.as_ref().expect("counters were configured");
        assert_eq!(result.measured_cpus, vec![0, 1, 2, 3]);
        // The uncore memory reads credited to the socket-lock owner must
        // reflect the simulated traffic: cpu 0 owns socket 0's uncore.
        let reads = counters.event_count("UNC_QMC_NORMAL_READS_ANY", 0).unwrap();
        let sim_reads = result.first().stats.memory.iter().map(|m| m.bytes_read).sum::<u64>() / 64;
        assert_eq!(reads, sim_reads, "counter reads match the simulated line reads");
        assert!(counters.metric("Memory bandwidth [MBytes/s]", 0).unwrap() > 0.0);
    }

    #[test]
    fn timeline_mode_produces_interval_series_that_sum_to_the_aggregate() {
        let kernel = StreamingKernel::triad(8 << 20, 1);
        let probe = Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .run(&kernel)
            .unwrap();
        let dt = probe.first().runtime_s / 6.0;
        let result = Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .group(EventGroupKind::MEM)
            .timeline(dt)
            .run(&kernel)
            .unwrap();
        let timeline = result.timeline.as_ref().expect("timeline was configured");
        assert_eq!(timeline.intervals.len(), 6);
        for ei in 0..timeline.aggregate[0].len() {
            for ci in 0..timeline.cpus.len() {
                let summed: u64 = timeline.intervals.iter().map(|iv| iv.counts[ei][ci]).sum();
                assert_eq!(summed, timeline.aggregate[0][ei][ci], "event {ei} cpu {ci}");
            }
        }
        // The familiar counters field carries the single group's aggregate,
        // and it matches a plain aggregate-mode run of the same kernel.
        let counters = result.counters.as_ref().expect("single group");
        let plain = Experiment::on(MachinePreset::NehalemEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .group(EventGroupKind::MEM)
            .run(&kernel)
            .unwrap();
        assert_eq!(
            counters.event_count("UNC_QMC_NORMAL_READS_ANY", 0),
            plain.counters.unwrap().event_count("UNC_QMC_NORMAL_READS_ANY", 0),
            "timeline slicing must not change the measured totals"
        );
    }

    #[test]
    fn timeline_mode_allows_multiplexed_group_lists() {
        let kernel = StreamingKernel::daxpy(4 << 20, 2);
        let result = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .counters(MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM]))
            .timeline(1e-4)
            .run(&kernel)
            .unwrap();
        let timeline = result.timeline.as_ref().expect("timeline result");
        assert_eq!(timeline.group_names, vec!["FLOPS_DP", "MEM"]);
        assert!(result.counters.is_none(), "multiplexed aggregates live in the timeline result");
        let groups_seen: std::collections::HashSet<usize> =
            timeline.intervals.iter().map(|iv| iv.group).collect();
        assert_eq!(groups_seen.len(), 2, "both groups get intervals");
    }

    #[test]
    fn timeline_mode_rejects_bad_intervals_and_missing_counters() {
        let kernel = StreamingKernel::copy(1 << 20, 1);
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let daemon = likwid_daemon::Daemon::new(&machine);
        for bad in [0.0, -1.0, f64::NAN] {
            let exp = Experiment::on(MachinePreset::Core2Quad)
                .placement(PlacementPolicy::LikwidPin(vec![0]))
                .group(EventGroupKind::FLOPS_DP)
                .timeline(bad);
            let err = exp.run(&kernel).unwrap_err();
            assert!(matches!(err, likwid::LikwidError::Usage(_)), "{bad}: {err:?}");
            // The daemon path shares the check: a usage error, not a panic
            // in the slicer.
            let err = exp.via_daemon(&kernel, &daemon).unwrap_err();
            assert!(matches!(err, likwid::LikwidError::Usage(_)), "via_daemon {bad}: {err:?}");
        }
        assert!(daemon.is_quiescent(), "rejected runs open no session");
        let err = Experiment::on(MachinePreset::Core2Quad)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .timeline(1e-3)
            .run(&kernel)
            .unwrap_err();
        assert!(matches!(err, likwid::LikwidError::Usage(_)), "timeline needs counters: {err:?}");
        // An absurdly small interval is rejected instead of slicing the
        // run into millions of samples.
        let err = Experiment::on(MachinePreset::Core2Quad)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .group(EventGroupKind::FLOPS_DP)
            .timeline(1e-15)
            .run(&kernel)
            .unwrap_err();
        assert!(matches!(err, likwid::LikwidError::Usage(_)), "tiny interval: {err:?}");
    }

    #[test]
    fn canonical_spec_is_builder_order_independent() {
        let a = Experiment::on(MachinePreset::WestmereEp2S)
            .seed(7)
            .samples(3)
            .threads(4)
            .placement(PlacementPolicy::Kmp(KmpAffinity::Scatter))
            .prefetchers_off(&[Prefetcher::Dcu, Prefetcher::Hardware]);
        let b = Experiment::on(MachinePreset::WestmereEp2S)
            .prefetchers_off(&[Prefetcher::Hardware])
            .prefetchers_off(&[Prefetcher::Dcu, Prefetcher::Hardware])
            .placement(PlacementPolicy::Kmp(KmpAffinity::Scatter))
            .threads(4)
            .samples(3)
            .seed(7);
        assert_eq!(a.canonical_spec(), b.canonical_spec());
    }

    #[test]
    fn distinct_specs_get_distinct_digests() {
        let base = Experiment::on(MachinePreset::WestmereEp2S).samples(3).seed(7);
        let variants = [
            base.clone().samples(4),
            base.clone().seed(8),
            base.clone().threads(2),
            base.clone().personality(crate::openmp::CompilerPersonality::Gcc),
            base.clone().placement(PlacementPolicy::LikwidPin(vec![0])),
            base.clone().prefetchers_off(&[Prefetcher::Ip]),
            base.clone().group(EventGroupKind::MEM),
            Experiment::on(MachinePreset::NehalemEp2S).samples(3).seed(7),
        ];
        let mut specs = vec![base.canonical_spec()];
        specs.extend(variants.iter().map(|e| e.canonical_spec()));
        let distinct: std::collections::HashSet<&String> = specs.iter().collect();
        assert_eq!(distinct.len(), specs.len(), "every field must feed the memo key");
    }

    #[test]
    fn canonical_spec_format_is_pinned() {
        // The memo keys of the fleet runner are derived from this string;
        // any change here aliases or orphans on-disk cache entries. If this
        // test fails because the format legitimately changed, bump the
        // `experiment/v1` version tag AND `likwid_fleet::memo::CODE_EPOCH`.
        let exp = Experiment::on(MachinePreset::Core2Quad)
            .placement(PlacementPolicy::LikwidPin(vec![0, 1]))
            .samples(2)
            .seed(42)
            .prefetchers_off(&[Prefetcher::Hardware]);
        assert_eq!(
            exp.canonical_spec(),
            "experiment/v1;preset=core2-quad;personality=IntelIcc;\
             policy=LikwidPin([0, 1]);threads=None;samples=2;seed=42;counters=None;\
             timeline=None;inject=None;prefetchers_off=[\"HW_PREFETCHER\"]"
        );
    }

    #[test]
    fn prefetchers_off_changes_the_machine_and_the_measurement() {
        let kernel = StreamingKernel::triad(4 << 20, 1);
        let on = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .run(&kernel)
            .unwrap();
        let off = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .prefetchers_off(Prefetcher::all())
            .run(&kernel)
            .unwrap();
        // Both runs complete; the knob must not corrupt the run itself.
        assert!(on.bandwidths()[0] > 0.0);
        assert!(off.bandwidths()[0] > 0.0);
        // AMD presets: documented no-op, the run still succeeds.
        let amd = Experiment::on(MachinePreset::IstanbulH2S)
            .placement(PlacementPolicy::LikwidPin(vec![0]))
            .prefetchers_off(Prefetcher::all())
            .run(&kernel)
            .unwrap();
        assert!(amd.bandwidths()[0] > 0.0);
    }

    #[test]
    fn unpinned_samples_vary_but_are_prefix_stable() {
        let kernel = StreamingKernel::copy(2 << 20, 1);
        let short = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::Unpinned)
            .threads(4)
            .samples(3)
            .seed(7)
            .run(&kernel)
            .unwrap();
        let long = Experiment::on(MachinePreset::WestmereEp2S)
            .placement(PlacementPolicy::Unpinned)
            .threads(4)
            .samples(6)
            .seed(7)
            .run(&kernel)
            .unwrap();
        assert_eq!(
            &long.placements[..3],
            &short.placements[..],
            "adding samples must not perturb earlier samples"
        );
        let distinct: std::collections::HashSet<Vec<usize>> =
            long.placements.iter().map(|p| p.compute.clone()).collect();
        assert!(distinct.len() > 1, "unpinned placements vary across samples");
    }
}
