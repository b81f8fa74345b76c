//! Time-resolved measurement: the timeline (`-t`) and stethoscope (`-S`)
//! modes of `likwid-perfctr`.
//!
//! The wrapper and marker modes report one aggregate count per run, which
//! hides the phase structure of codes like the blocked Jacobi solver. A
//! [`TimelineSession`] wraps the counter-programming session and samples
//! the counter state at a fixed *virtual-time* interval while a workload
//! runs: every interval records the raw per-cpu count deltas of the group
//! that was live, and — with a multiplexed group list — rotates the groups
//! at each interval boundary, so each group owns every `num_groups`-th
//! interval and its aggregate is extrapolated by schedule coverage exactly
//! as in plain multiplexing mode.
//!
//! **Virtual-clock semantics.** The simulated machine has no wall clock;
//! an interval is a span of *modelled* runtime. Workload drivers emit
//! progress ticks with virtual timestamps (see
//! `likwid_workloads::exec::ProgressTrace`), the harness slices the
//! simulated activity at interval boundaries, credits each slice through
//! the counting engine, and calls [`TimelineSession::tick`] — the counter
//! deltas per interval therefore sum *exactly* to the aggregate counts of
//! the same run.
//!
//! Since the simulated tool cannot attach to a real process, the CLI's
//! timeline and stethoscope modes observe a built-in synthetic target
//! "application": a deterministic activity trace alternating memory-bound
//! and compute-bound phases of [`DEMO_PHASE_S`] seconds each
//! ([`demo_slice`]), which makes the phase structure visible in the
//! per-interval derived metrics.

use likwid_perf_events::{EventEngine, EventSample, HwEventKind};
use likwid_x86_machine::SimMachine;

use crate::error::{LikwidError, Result};
use crate::perfctr::session::{GroupCounts, PerfCtr, PerfCtrConfig, PerfCtrResults};
use crate::report::{Body, KvEntry, Report, Section, Series, TimeSeries, Value};

/// Parse a duration expression: seconds as a plain float (`0.005`), or a
/// number with an `s`, `ms` or `us` suffix (`5ms`, `250us`, `1.5s`).
pub fn parse_duration(text: &str) -> Option<f64> {
    let text = text.trim();
    let lower = text.to_ascii_lowercase();
    let (digits, factor) = if let Some(d) = lower.strip_suffix("us") {
        (d, 1e-6)
    } else if let Some(d) = lower.strip_suffix("ms") {
        (d, 1e-3)
    } else if let Some(d) = lower.strip_suffix('s') {
        (d, 1.0)
    } else {
        (lower.as_str(), 1.0)
    };
    let value: f64 = digits.trim().parse().ok()?;
    Some(value * factor)
}

/// Parse a `-t`/`-S` interval argument, rejecting zero, negative and
/// unparsable values with a [`LikwidError::Usage`] error.
pub fn parse_interval(text: &str) -> Result<f64> {
    let value = parse_duration(text)
        .ok_or_else(|| LikwidError::Usage(format!("bad interval '{text}' (try e.g. 1ms)")))?;
    if !value.is_finite() || value <= 0.0 {
        return Err(LikwidError::Usage(format!("interval '{text}' must be positive")));
    }
    Ok(value)
}

/// One timeline interval: the raw per-cpu count deltas of the group that
/// was live between two sampling points.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineInterval {
    /// Virtual time at the start of the interval (seconds since
    /// measurement start).
    pub t_start_s: f64,
    /// Virtual time at the end of the interval.
    pub t_end_s: f64,
    /// Index of the group that was measured during this interval.
    pub group: usize,
    /// Raw count deltas over the interval: `counts[event][cpu_position]`.
    pub counts: GroupCounts,
}

/// A time-resolved measurement session: wraps [`PerfCtr`] and records
/// per-interval counter deltas while the caller advances virtual time.
///
/// Protocol: [`TimelineSession::start`], then — per interval — credit the
/// interval's simulated activity through the counting engine and call
/// [`TimelineSession::tick`] with the interval's virtual length; finally
/// [`TimelineSession::finish`] yields the [`TimelineResult`].
pub struct TimelineSession<'m> {
    session: PerfCtr<'m>,
    interval_s: f64,
    elapsed_s: f64,
    snapshot: GroupCounts,
    intervals: Vec<TimelineInterval>,
}

impl<'m> TimelineSession<'m> {
    /// Create a timeline session sampling every `interval_s` seconds of
    /// virtual time. Zero, negative and non-finite intervals are a usage
    /// error.
    pub fn new(machine: &'m SimMachine, config: PerfCtrConfig, interval_s: f64) -> Result<Self> {
        if !interval_s.is_finite() || interval_s <= 0.0 {
            return Err(LikwidError::Usage(format!(
                "timeline interval must be positive, got {interval_s}"
            )));
        }
        let session = PerfCtr::new(machine, config)?;
        // Counters were just programmed (and thereby zeroed); the baseline
        // snapshot is all zeros without touching the devices again.
        let snapshot = session.zero_counts();
        Ok(TimelineSession { session, interval_s, elapsed_s: 0.0, snapshot, intervals: Vec::new() })
    }

    /// The wrapped counter session.
    pub fn session(&self) -> &PerfCtr<'m> {
        &self.session
    }

    /// The configured sampling interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Start counting.
    pub fn start(&mut self) -> Result<()> {
        self.session.start()
    }

    /// Close the current interval after `dt_s` seconds of virtual time:
    /// record the active group's count deltas and — in multiplexing mode —
    /// rotate to the next group (the rotation reprograms and zeroes the
    /// counters, so the next interval starts from a clean slate). Returns
    /// the recorded interval, so streaming consumers (the `likwid-perfctrd`
    /// broker) can forward the deltas while the run is still in flight.
    pub fn tick(&mut self, dt_s: f64) -> Result<TimelineInterval> {
        if !dt_s.is_finite() || dt_s < 0.0 {
            return Err(LikwidError::Usage(format!("timeline tick of {dt_s} seconds")));
        }
        let current = self.session.read_counts()?;
        let counts: GroupCounts = current
            .iter()
            .zip(&self.snapshot)
            .map(|(cur, prev)| cur.iter().zip(prev).map(|(&c, &p)| c.saturating_sub(p)).collect())
            .collect();
        let interval = TimelineInterval {
            t_start_s: self.elapsed_s,
            t_end_s: self.elapsed_s + dt_s,
            group: self.session.active_group(),
            counts,
        };
        // The interval on the session's *virtual* clock: a complete event
        // on the virtual track of the first measured cpu, timestamped from
        // the deterministic timeline instead of the wall clock.
        if crate::trace::enabled() {
            let track = self.session.cpus().first().copied().unwrap_or(0) as u64;
            let index = self.intervals.len();
            let group = interval.group;
            crate::trace::complete_virtual(
                crate::trace::cat::CORE,
                track,
                (interval.t_start_s * 1e9) as u64,
                (dt_s * 1e9) as u64,
                || "timeline.interval".to_string(),
                || vec![("index", index.to_string()), ("group", group.to_string())],
            );
        }
        self.intervals.push(interval.clone());
        self.elapsed_s += dt_s;
        if self.session.num_groups() > 1 {
            // switch_group folds the live counts into the group's
            // accumulator and reprograms (= zeroes) the next group's
            // counters.
            self.session.switch_group()?;
            self.snapshot = self.session.zero_counts();
        } else {
            self.snapshot = current;
        }
        Ok(interval)
    }

    /// Yield the hardware between cross-session time slices (see
    /// [`PerfCtr::suspend`]): the live counts are folded into the session's
    /// accumulator and the counters are released in a zeroed state, so the
    /// `likwid-perfctrd` broker can hand the registers to another session
    /// sharing the same cpus.
    pub fn suspend(&mut self) -> Result<()> {
        self.session.suspend()?;
        self.snapshot = self.session.zero_counts();
        Ok(())
    }

    /// Reclaim the hardware for the next time slice: reprogram (another
    /// session may have owned the registers in between), zero the baseline
    /// snapshot and start counting.
    pub fn resume(&mut self) -> Result<()> {
        self.session.resume()?;
        self.snapshot = self.session.zero_counts();
        Ok(())
    }

    /// Stop counting and assemble the result: the per-interval deltas, the
    /// per-group raw aggregates (which the deltas sum to exactly), the
    /// coverage-extrapolated aggregates for multiplexed lists, aggregate
    /// results with the total-runtime `time` binding, and one
    /// [`TimeSeries`] per group with the per-interval derived metrics
    /// (`time` bound to each interval's dt).
    pub fn finish(self) -> Result<TimelineResult> {
        self.finish_scaled(1.0)
    }

    /// [`TimelineSession::finish`] with a cross-session coverage factor:
    /// `time_scale` is the wall-to-measured virtual-time ratio of a daemon
    /// session that was time-sliced against other sessions sharing its
    /// cpus, and scales the extrapolated aggregates (and the metrics
    /// derived from them) the same way the in-session multiplex schedule
    /// scales per-group coverage. A solo session passes exactly `1.0`,
    /// which is the identity — bit-identical to [`TimelineSession::finish`].
    pub fn finish_scaled(mut self, time_scale: f64) -> Result<TimelineResult> {
        if !time_scale.is_finite() || time_scale < 1.0 {
            return Err(LikwidError::Session(format!(
                "coverage time scale must be a finite ratio >= 1, got {time_scale}"
            )));
        }
        self.session.finish()?;
        let num_groups = self.session.num_groups();
        let multiplexed = num_groups > 1;
        let cpus = self.session.cpus().to_vec();
        let socket_lock_owners = self.session.socket_lock_owners();
        let group_names: Vec<String> =
            (0..num_groups).map(|g| self.session.group_name(g).to_string()).collect();

        let scale = |counts: GroupCounts| -> GroupCounts {
            if time_scale == 1.0 {
                return counts;
            }
            counts
                .into_iter()
                .map(|per_cpu| {
                    per_cpu.into_iter().map(|v| (v as f64 * time_scale).round() as u64).collect()
                })
                .collect()
        };
        let aggregate: Vec<GroupCounts> =
            (0..num_groups).map(|g| self.session.accumulated_counts(g)).collect();
        let extrapolated: Vec<GroupCounts> = (0..num_groups)
            .map(|g| {
                scale(if multiplexed {
                    self.session.extrapolated_counts(g)
                } else {
                    aggregate[g].clone()
                })
            })
            .collect();
        let aggregate_results = (0..num_groups)
            .map(|g| self.session.results_for_group(g, &extrapolated[g]))
            .collect::<Result<Vec<_>>>()?;

        let mut timeseries = Vec::with_capacity(num_groups);
        for g in 0..num_groups {
            let intervals: Vec<&TimelineInterval> =
                self.intervals.iter().filter(|iv| iv.group == g).collect();
            let timestamps: Vec<f64> = intervals.iter().map(|iv| iv.t_end_s).collect();
            let per_interval = intervals
                .iter()
                .map(|iv| {
                    self.session.results_for_group_at(g, &iv.counts, iv.t_end_s - iv.t_start_s)
                })
                .collect::<Result<Vec<_>>>()?;
            let mut series = Vec::new();
            if let Some(first) = per_interval.first() {
                if first.metrics.is_empty() {
                    // Custom event lists have no derived metrics: expose the
                    // raw per-interval event counts instead.
                    for (ei, (name, _, _)) in first.events.iter().enumerate() {
                        for (ci, &cpu) in cpus.iter().enumerate() {
                            let values =
                                per_interval.iter().map(|r| r.events[ei].2[ci] as f64).collect();
                            series.push(Series::new(name.clone(), cpu, values));
                        }
                    }
                } else {
                    for (mi, (name, _)) in first.metrics.iter().enumerate() {
                        for (ci, &cpu) in cpus.iter().enumerate() {
                            let values = per_interval.iter().map(|r| r.metrics[mi].1[ci]).collect();
                            series.push(Series::new(name.clone(), cpu, values));
                        }
                    }
                }
            }
            timeseries.push(TimeSeries { timestamps, series });
        }

        Ok(TimelineResult {
            interval_s: self.interval_s,
            duration_s: self.elapsed_s,
            cpus,
            socket_lock_owners,
            group_names,
            intervals: self.intervals,
            aggregate,
            extrapolated,
            aggregate_results,
            timeseries,
        })
    }
}

/// The outcome of a time-resolved measurement.
#[derive(Debug, Clone)]
pub struct TimelineResult {
    /// The configured sampling interval in seconds.
    pub interval_s: f64,
    /// Total measured virtual time in seconds.
    pub duration_s: f64,
    /// The measured hardware threads (column order of every
    /// [`GroupCounts`]).
    pub cpus: Vec<usize>,
    /// The socket-lock owners of the session (the measured threads that
    /// carry the uncore counts), in measured-cpu order.
    pub socket_lock_owners: Vec<usize>,
    /// The group names, by group index.
    pub group_names: Vec<String>,
    /// All recorded intervals, in time order.
    pub intervals: Vec<TimelineInterval>,
    /// Per-group raw aggregate counts; the per-interval deltas of a group
    /// sum exactly to its entry.
    pub aggregate: Vec<GroupCounts>,
    /// Per-group aggregate counts extrapolated by multiplex-schedule
    /// coverage (equal to [`TimelineResult::aggregate`] for a single
    /// group).
    pub extrapolated: Vec<GroupCounts>,
    /// Aggregate results per group (events + derived metrics with the
    /// total-runtime `time` binding), from the extrapolated counts.
    pub aggregate_results: Vec<PerfCtrResults>,
    /// One time series per group: the per-interval derived metrics (`time`
    /// bound to each interval's length), or raw event counts for custom
    /// event lists.
    pub timeseries: Vec<TimeSeries>,
}

impl TimelineResult {
    /// The index of a group by name.
    pub fn group_index(&self, name: &str) -> Option<usize> {
        self.group_names.iter().position(|n| n == name)
    }

    /// The time series of a group by name.
    pub fn time_series(&self, group: &str) -> Option<&TimeSeries> {
        self.timeseries.get(self.group_index(group)?)
    }

    /// The intervals during which one group was measured.
    pub fn intervals_of_group(&self, group: usize) -> Vec<&TimelineInterval> {
        self.intervals.iter().filter(|iv| iv.group == group).collect()
    }

    /// The summary key/value section shared by the timeline and
    /// stethoscope reports.
    fn summary_section(&self, id: &str) -> Section {
        Section::new(
            id,
            Body::KeyValues(vec![
                KvEntry::new("Sampling interval [s]", Value::Real(self.interval_s)),
                KvEntry::new("Duration [s]", Value::Real(self.duration_s)),
                KvEntry::new("Intervals", Value::Count(self.intervals.len() as u64)),
                KvEntry::new("Groups", Value::Str(self.group_names.join(","))),
                KvEntry::new("Measured hardware threads", Value::Str(format!("{:?}", self.cpus))),
            ]),
        )
    }

    /// The full timeline report: a summary section, one
    /// [`Body::TimeSeries`] section per group, and the aggregate
    /// event/metric tables per group.
    pub fn report(&self) -> Report {
        let mut report = Report::new("likwid-perfctr.timeline");
        report.push(self.summary_section("timeline"));
        for (g, name) in self.group_names.iter().enumerate() {
            report.push(
                Section::new(
                    format!("timeseries.{name}"),
                    Body::TimeSeries(self.timeseries[g].clone()),
                )
                .with_heading(format!(
                    "Timeline {name} (interval {} s):",
                    crate::output::format_value(self.interval_s)
                )),
            );
        }
        for (g, name) in self.group_names.iter().enumerate() {
            let mut first = true;
            for mut section in self.aggregate_results[g].report().sections {
                section.id = format!("aggregate.{name}.{}", section.id);
                if first {
                    section = section.with_heading(format!("Aggregate {name}:"));
                    first = false;
                }
                report.push(section);
            }
        }
        report
    }

    /// The stethoscope report: the summary plus the aggregate tables, no
    /// per-interval series.
    pub fn stethoscope_report(&self) -> Report {
        let mut report = Report::new("likwid-perfctr.stethoscope");
        report.push(self.summary_section("stethoscope"));
        for (g, name) in self.group_names.iter().enumerate() {
            let mut first = true;
            for mut section in self.aggregate_results[g].report().sections {
                section.id = format!("aggregate.{name}.{}", section.id);
                if first {
                    section = section.with_heading(format!("Aggregate {name}:"));
                    first = false;
                }
                report.push(section);
            }
        }
        report
    }
}

/// Phase length of the synthetic demo application: memory-bound and
/// compute-bound phases alternate every 2.5 ms of virtual time.
pub const DEMO_PHASE_S: f64 = 2.5e-3;

/// Virtual runtime of the synthetic demo application observed by
/// `likwid-perfctr -t`.
pub const DEMO_DURATION_S: f64 = 10e-3;

/// Interval-count guard: a `-t`/`-S` interval that would produce more
/// sampling points than this is rejected as a usage error.
pub const MAX_INTERVALS: usize = 100_000;

/// The demo application exercises every kind: those declared before this
/// one on each measured hardware thread, this one and later per socket.
const DEMO_FIRST_SOCKET_KIND: HwEventKind = HwEventKind::L2LinesOut;

/// Event rates of the demo application per second of virtual time:
/// `(memory-phase rate, compute-phase rate)`. Core-local kinds are per
/// measured hardware thread, uncore kinds per socket.
fn demo_rates(kind: HwEventKind, frequency_hz: f64) -> (f64, f64) {
    match kind {
        HwEventKind::CoreCycles | HwEventKind::ReferenceCycles | HwEventKind::UncoreCycles => {
            (frequency_hz, frequency_hz)
        }
        HwEventKind::InstructionsRetired => (0.6 * frequency_hz, 1.8 * frequency_hz),
        HwEventKind::SimdPackedDouble | HwEventKind::SimdPackedSingle => (4.0e7, 1.5e9),
        HwEventKind::SimdScalarDouble | HwEventKind::SimdScalarSingle => (1.0e7, 2.0e8),
        HwEventKind::LoadsRetired => (4.0e8, 3.0e8),
        HwEventKind::StoresRetired => (2.0e8, 1.5e8),
        HwEventKind::BranchesRetired => (1.0e8, 2.0e8),
        HwEventKind::BranchMispredictions => (1.5e6, 3.0e6),
        HwEventKind::DtlbMisses => (2.0e6, 1.0e5),
        HwEventKind::L1Accesses => (6.0e8, 4.5e8),
        HwEventKind::L1Misses | HwEventKind::L2Accesses => (1.5e8, 2.0e6),
        HwEventKind::L2Misses | HwEventKind::L2LinesIn => (1.2e8, 5.0e5),
        HwEventKind::L2LinesOut => (6.0e7, 2.5e5),
        HwEventKind::L3Accesses => (1.2e8, 5.0e5),
        HwEventKind::L3Misses | HwEventKind::L3LinesIn => (9.0e7, 2.0e5),
        HwEventKind::L3LinesOut => (4.5e7, 1.0e5),
        HwEventKind::MemoryReads => (2.4e8, 3.0e6),
        HwEventKind::MemoryWrites => (1.2e8, 1.0e6),
    }
}

/// Cumulative demo count of one kind at virtual time `t`: the integral of
/// the alternating phase rates over `[0, t]`, floored to a whole count.
/// Slice deltas `demo_cumulative(t1) - demo_cumulative(t0)` therefore
/// telescope exactly, whatever the interval boundaries.
fn demo_cumulative(kind: HwEventKind, t: f64, frequency_hz: f64) -> u64 {
    let (rate_mem, rate_cpu) = demo_rates(kind, frequency_hz);
    let full = (t / DEMO_PHASE_S).floor();
    let rem = t - full * DEMO_PHASE_S;
    let full = full as u64;
    // Phases 0, 2, 4, … are memory-bound; 1, 3, 5, … compute-bound.
    let mem_phases = full.div_ceil(2) as f64;
    let cpu_phases = (full / 2) as f64;
    let partial_rate = if full % 2 == 0 { rate_mem } else { rate_cpu };
    (mem_phases * DEMO_PHASE_S * rate_mem
        + cpu_phases * DEMO_PHASE_S * rate_cpu
        + rem * partial_rate)
        .floor() as u64
}

/// The demo application's activity over the virtual-time slice `[t0, t1]`,
/// as an event sample for the counting engine: every measured hardware
/// thread runs the same alternating phase pattern, and the sockets hosting
/// measured threads carry the uncore traffic.
pub fn demo_slice(machine: &SimMachine, cpus: &[usize], t0: f64, t1: f64) -> EventSample {
    let topo = machine.topology();
    let frequency_hz = machine.clock().frequency_hz;
    let mut sample = EventSample::new(topo.num_hw_threads(), topo.sockets as usize);
    let (thread_kinds, socket_kinds) = HwEventKind::ALL.split_at(DEMO_FIRST_SOCKET_KIND as usize);
    for &cpu in cpus {
        for &kind in thread_kinds {
            let delta =
                demo_cumulative(kind, t1, frequency_hz) - demo_cumulative(kind, t0, frequency_hz);
            sample.threads[cpu].add(kind, delta);
        }
    }
    let mut sockets: Vec<usize> = cpus
        .iter()
        .filter_map(|&cpu| topo.hw_thread(cpu).ok().map(|t| t.socket as usize))
        .collect();
    sockets.sort_unstable();
    sockets.dedup();
    for socket in sockets {
        for &kind in socket_kinds {
            let delta =
                demo_cumulative(kind, t1, frequency_hz) - demo_cumulative(kind, t0, frequency_hz);
            sample.sockets[socket].add(kind, delta);
        }
    }
    sample
}

/// Run the CLI's timeline mode: observe the synthetic demo application for
/// `duration_s` of virtual time, sampling every `interval_s`.
pub fn run_demo_timeline(
    machine: &SimMachine,
    config: PerfCtrConfig,
    interval_s: f64,
    duration_s: f64,
) -> Result<TimelineResult> {
    let mut session = TimelineSession::new(machine, config, interval_s)?;
    let n = (duration_s / interval_s).ceil().max(1.0);
    if n > MAX_INTERVALS as f64 {
        return Err(LikwidError::Usage(format!(
            "interval {interval_s} s yields {n:.0} sampling points over {duration_s} s \
             (max {MAX_INTERVALS})"
        )));
    }
    let cpus = session.session().cpus().to_vec();
    let engine = EventEngine::new(machine);
    session.start()?;
    // Walk boundaries until the window is covered instead of trusting
    // `ceil(duration/interval)`: float rounding of the ratio (e.g.
    // 0.035/0.005) must never schedule a trailing zero-length interval —
    // a stethoscope over a multiplexed list rotates exactly once through
    // every group.
    let mut t0 = 0.0;
    let mut i = 0usize;
    loop {
        let t1 = ((i + 1) as f64 * interval_s).min(duration_s);
        engine.apply(machine, &demo_slice(machine, &cpus, t0, t1));
        session.tick(t1 - t0)?;
        t0 = t1;
        i += 1;
        if t1 >= duration_s {
            break;
        }
    }
    session.finish()
}

/// Run the CLI's stethoscope mode: measure the synthetic demo application
/// for `duration_s` of virtual time and report the aggregate. A
/// multiplexed group list rotates once through every group within the
/// window.
pub fn run_demo_stethoscope(
    machine: &SimMachine,
    config: PerfCtrConfig,
    duration_s: f64,
) -> Result<TimelineResult> {
    let groups = match &config.spec {
        super::MeasurementSpec::Groups(kinds) => kinds.len().max(1),
        _ => 1,
    };
    run_demo_timeline(machine, config, duration_s / groups as f64, duration_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfctr::{EventGroupKind, MeasurementSpec};
    use likwid_x86_machine::MachinePreset;

    fn config(spec: MeasurementSpec, cpus: Vec<usize>) -> PerfCtrConfig {
        PerfCtrConfig { cpus, spec }
    }

    #[test]
    fn durations_and_intervals_parse() {
        assert_eq!(parse_duration("5ms"), Some(5e-3));
        assert_eq!(parse_duration("250us"), Some(250e-6));
        assert_eq!(parse_duration("1.5s"), Some(1.5));
        assert_eq!(parse_duration("0.25"), Some(0.25));
        assert_eq!(parse_duration(" 2 ms "), Some(2e-3));
        assert_eq!(parse_duration("soon"), None);
        assert!(parse_interval("1ms").is_ok());
        for bad in ["0", "0ms", "-1ms", "bogus", "", "nan"] {
            let err = parse_interval(bad).unwrap_err();
            assert!(matches!(err, LikwidError::Usage(_)), "'{bad}' gave {err:?}");
        }
    }

    #[test]
    fn zero_and_negative_session_intervals_are_usage_errors() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        for bad in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            let err = TimelineSession::new(
                &machine,
                config(MeasurementSpec::Group(EventGroupKind::FLOPS_DP), vec![0]),
                bad,
            )
            .err()
            .unwrap_or_else(|| panic!("interval {bad} must be rejected"));
            assert!(matches!(err, LikwidError::Usage(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn constant_rate_intervals_report_the_aggregate_bandwidth() {
        // The time-binding fix: a constant-rate "workload" must show the
        // same MBytes/s in every interval as in the aggregate — interval
        // metrics divide the interval's counts by the interval dt, the
        // aggregate divides the total counts by the total runtime.
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let mut session = TimelineSession::new(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0]),
            1e-3,
        )
        .unwrap();
        session.start().unwrap();
        let engine = EventEngine::new(&machine);
        let frequency_hz = machine.clock().frequency_hz;
        let topo = machine.topology();
        for _ in 0..8 {
            // 1 ms at exactly 1e5 reads + 5e4 writes per interval.
            let mut sample = EventSample::new(topo.num_hw_threads(), topo.sockets as usize);
            sample.threads[0].add(HwEventKind::CoreCycles, (1e-3 * frequency_hz) as u64);
            sample.threads[0].add(HwEventKind::InstructionsRetired, 1_000_000);
            sample.sockets[0].add(HwEventKind::MemoryReads, 100_000);
            sample.sockets[0].add(HwEventKind::MemoryWrites, 50_000);
            sample.sockets[0].add(HwEventKind::UncoreCycles, (1e-3 * frequency_hz) as u64);
            engine.apply(&machine, &sample);
            session.tick(1e-3).unwrap();
        }
        let result = session.finish().unwrap();
        let aggregate_bw = result.aggregate_results[0]
            .metric("Memory bandwidth [MBytes/s]", 0)
            .expect("aggregate bandwidth");
        let series = result.timeseries[0]
            .series_for("Memory bandwidth [MBytes/s]", 0)
            .expect("bandwidth series");
        assert_eq!(series.values.len(), 8);
        for (i, &v) in series.values.iter().enumerate() {
            assert!(
                (v - aggregate_bw).abs() / aggregate_bw < 1e-9,
                "interval {i}: {v} != aggregate {aggregate_bw}"
            );
        }
        // And the aggregate Runtime [s] keeps the total, while the
        // interval series reports the dt.
        let runtime = result.aggregate_results[0].metric("Runtime [s]", 0).unwrap();
        assert!((runtime - 8e-3).abs() < 1e-6, "total runtime, got {runtime}");
        let interval_runtime = result.timeseries[0].series_for("Runtime [s]", 0).unwrap();
        assert!(interval_runtime.values.iter().all(|&v| (v - 1e-3).abs() < 1e-12));
    }

    #[test]
    fn interval_deltas_sum_to_the_aggregate_under_multiplexing() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let result = run_demo_timeline(
            &machine,
            config(
                MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM]),
                vec![0, 1],
            ),
            1e-3,
            DEMO_DURATION_S,
        )
        .unwrap();
        assert_eq!(result.intervals.len(), 10);
        for g in 0..2 {
            let of_group = result.intervals_of_group(g);
            assert_eq!(of_group.len(), 5, "round-robin rotation");
            assert!(of_group.iter().all(|iv| iv.group == g));
            let num_events = result.aggregate[g].len();
            for ei in 0..num_events {
                for ci in 0..result.cpus.len() {
                    let summed: u64 = of_group.iter().map(|iv| iv.counts[ei][ci]).sum();
                    assert_eq!(
                        summed, result.aggregate[g][ei][ci],
                        "group {g} event {ei} cpu {ci}"
                    );
                }
            }
        }
        // Extrapolation scales the half-coverage aggregates back up.
        let raw = result.aggregate[0][2][0] as f64; // PMC0 of FLOPS_DP on cpu 0
        let extrapolated = result.extrapolated[0][2][0] as f64;
        assert!(
            (extrapolated - 2.0 * raw).abs() <= 1.0,
            "50% coverage doubles: raw {raw}, extrapolated {extrapolated}"
        );
    }

    #[test]
    fn demo_phases_alternate_in_the_timeline() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let result = run_demo_timeline(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0]),
            DEMO_PHASE_S,
            DEMO_DURATION_S,
        )
        .unwrap();
        let bw = result.timeseries[0].series_for("Memory bandwidth [MBytes/s]", 0).unwrap();
        assert_eq!(bw.values.len(), 4);
        assert!(
            bw.values[0] > 50.0 * bw.values[1],
            "memory phase dwarfs compute phase: {:?}",
            bw.values
        );
        assert!(bw.values[2] > 50.0 * bw.values[3]);
        // The demo's cumulative counts telescope: the four intervals sum to
        // the aggregate exactly (single group, no extrapolation).
        let reads_total: u64 = result.intervals.iter().map(|iv| iv.counts[2][0]).sum();
        assert_eq!(reads_total, result.aggregate[0][2][0]);
    }

    #[test]
    fn demo_stethoscope_rotates_every_group_once() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let result = run_demo_stethoscope(
            &machine,
            config(
                MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::L2]),
                vec![0],
            ),
            5e-3,
        )
        .unwrap();
        assert_eq!(result.intervals.len(), 2);
        assert_eq!(result.intervals[0].group, 0);
        assert_eq!(result.intervals[1].group, 1);
        assert!((result.duration_s - 5e-3).abs() < 1e-12);
        // Both groups carry non-zero aggregates.
        for g in 0..2 {
            let total: u64 = result.extrapolated[g].iter().flatten().sum();
            assert!(total > 0, "group {g}");
        }
    }

    #[test]
    fn stethoscope_interval_count_survives_float_rounding() {
        // 0.035 / 0.005 computes 7.000000000000001 in IEEE doubles; a
        // naive ceil would schedule an eighth, zero-length interval and
        // skew the extrapolation of group 0 by scheduling it twice.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let result = run_demo_stethoscope(
            &machine,
            config(
                MeasurementSpec::Groups(vec![
                    EventGroupKind::FLOPS_DP,
                    EventGroupKind::MEM,
                    EventGroupKind::L2,
                    EventGroupKind::BRANCH,
                    EventGroupKind::DATA,
                    EventGroupKind::CACHE,
                    EventGroupKind::TLB,
                ]),
                vec![0],
            ),
            35e-3,
        )
        .unwrap();
        assert_eq!(result.intervals.len(), 7, "exactly one rotation through the 7 groups");
        let groups: Vec<usize> = result.intervals.iter().map(|iv| iv.group).collect();
        assert_eq!(groups, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(result.intervals.iter().all(|iv| iv.t_end_s > iv.t_start_s), "no empty interval");
    }

    #[test]
    fn absurdly_small_intervals_are_rejected_not_looped() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let err = run_demo_timeline(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::FLOPS_DP), vec![0]),
            1e-12,
            DEMO_DURATION_S,
        )
        .unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)), "got {err:?}");
    }

    #[test]
    fn suspend_resume_between_intervals_is_invisible_in_the_result() {
        // The daemon broker suspends every session between intervals so
        // another session may borrow the counter registers. For a solo
        // session the suspend/resume cycle must be invisible: identical
        // per-interval deltas, aggregates and rendered report.
        use crate::report::{Ascii, Render};
        let reference = {
            let machine = SimMachine::new(MachinePreset::WestmereEp2S);
            run_demo_timeline(
                &machine,
                config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0, 1]),
                1e-3,
                DEMO_DURATION_S,
            )
            .unwrap()
        };
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let mut session = TimelineSession::new(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0, 1]),
            1e-3,
        )
        .unwrap();
        let cpus = session.session().cpus().to_vec();
        let engine = EventEngine::new(&machine);
        let mut t0 = 0.0;
        for i in 0..10 {
            session.resume().unwrap();
            let t1 = ((i + 1) as f64 * 1e-3).min(DEMO_DURATION_S);
            engine.apply(&machine, &demo_slice(&machine, &cpus, t0, t1));
            session.tick(t1 - t0).unwrap();
            session.suspend().unwrap();
            t0 = t1;
        }
        let sliced = session.finish().unwrap();
        assert_eq!(sliced.intervals, reference.intervals);
        assert_eq!(sliced.aggregate, reference.aggregate);
        assert_eq!(sliced.extrapolated, reference.extrapolated);
        assert_eq!(Ascii.render(&sliced.report()), Ascii.render(&reference.report()));
    }

    #[test]
    fn finish_scaled_extrapolates_by_wall_to_measured_ratio() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let mut session = TimelineSession::new(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0]),
            1e-3,
        )
        .unwrap();
        let engine = EventEngine::new(&machine);
        session.start().unwrap();
        engine.apply(&machine, &demo_slice(&machine, &[0], 0.0, 1e-3));
        session.tick(1e-3).unwrap();
        let result = session.finish_scaled(2.0).unwrap();
        // Raw aggregates keep the measured counts; extrapolation doubles.
        assert_eq!(result.intervals[0].counts, result.aggregate[0]);
        for (ei, per_cpu) in result.extrapolated[0].iter().enumerate() {
            assert_eq!(per_cpu[0], 2 * result.aggregate[0][ei][0], "event {ei}");
        }
        // Sub-unity and non-finite scales are session misuse.
        let machine2 = SimMachine::new(MachinePreset::WestmereEp2S);
        for bad in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let s = TimelineSession::new(
                &machine2,
                config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0]),
                1e-3,
            )
            .unwrap();
            assert!(matches!(s.finish_scaled(bad), Err(LikwidError::Session(_))), "{bad}");
        }
    }

    #[test]
    fn timeline_report_round_trips_and_carries_the_series() {
        use crate::report::{Json, Render, Report};
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let result = run_demo_timeline(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0, 4]),
            1e-3,
            DEMO_DURATION_S,
        )
        .unwrap();
        let report = result.report();
        assert!(report.section("timeline").is_some());
        assert_eq!(report.value("timeline", "Intervals").unwrap().as_count(), Some(10));
        let Some(Body::TimeSeries(ts)) = report.section("timeseries.MEM").map(|s| &s.body) else {
            panic!("timeseries section missing");
        };
        assert_eq!(ts.timestamps.len(), 10);
        assert!(report.table("aggregate.MEM.events").is_some());
        let parsed = Report::from_json(&Json.render(&report)).expect("round trip");
        assert_eq!(parsed, report);
    }
}
