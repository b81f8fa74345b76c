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
//! simulated activity at interval boundaries, and
//! [`TimelineSession::run`] credits each slice through the counting engine
//! and closes its interval — the counter deltas per interval therefore sum
//! *exactly* to the aggregate counts of the same run.
//!
//! Since the simulated tool cannot attach to a real process, the CLI's
//! timeline and stethoscope modes observe a built-in synthetic target
//! "application": a deterministic activity trace alternating memory-bound
//! and compute-bound phases of 2.5 ms each ([`demo_slice`]), which makes
//! the phase structure visible in the per-interval derived metrics.

use likwid_perf_events::{EventEngine, EventSample, HwEventKind};
use likwid_x86_machine::SimMachine;

use crate::error::{LikwidError, Result};
use crate::perfctr::metrics::MetricEvaluator;
use crate::perfctr::session::{GroupCounts, PerfCtr, PerfCtrConfig, PerfCtrResults};
use crate::report::{Body, KvEntry, Report, Section, TimeSeries, Value};

/// Parse a duration expression: seconds as a plain float (`0.005`), or a
/// number with an `s`, `ms` or `us` suffix (`5ms`, `250us`, `1.5s`).
pub(crate) fn parse_duration(text: &str) -> Option<f64> {
    let text = text.trim();
    let lower = text.to_ascii_lowercase();
    // Dividing, unlike multiplying by 1e-6, is correctly rounded: `100us`
    // is the double nearest 1e-4, so its intervals tile 100 ms exactly.
    let (digits, per_second) = if let Some(d) = lower.strip_suffix("us") {
        (d, 1e6)
    } else if let Some(d) = lower.strip_suffix("ms") {
        (d, 1e3)
    } else if let Some(d) = lower.strip_suffix('s') {
        (d, 1.0)
    } else {
        (lower.as_str(), 1.0)
    };
    let value: f64 = digits.trim().parse().ok()?;
    Some(value / per_second)
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

/// A flat log of timeline intervals: the spans of all intervals in one
/// vector, their count rows back to back in another. An interval of group
/// `g` holds as many rows as `g` has events, each one count per measured
/// cpu, so the log cuts its counts back into intervals without storing a
/// row count per interval. Appending an interval to a log that has room
/// for it allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalLog {
    /// Count rows per interval, by group.
    rows: Vec<usize>,
    /// Counts per row: one per measured cpu.
    width: usize,
    /// `(t_start_s, t_end_s, group)` of every interval, in order.
    spans: Vec<(f64, f64, usize)>,
    /// The count rows of every interval, in order.
    counts: Vec<u64>,
}

/// One interval of an [`IntervalLog`], its counts borrowed from the log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoggedInterval<'a> {
    /// Virtual time at the start of the interval.
    pub t_start_s: f64,
    /// Virtual time at the end of the interval.
    pub t_end_s: f64,
    /// Index of the group measured during the interval.
    pub group: usize,
    counts: &'a [u64],
    width: usize,
}

impl<'a> LoggedInterval<'a> {
    /// The raw count deltas, one row per event of the group, one count per
    /// measured cpu.
    pub fn rows(&self) -> std::slice::ChunksExact<'a, u64> {
        self.counts.chunks_exact(self.width.max(1))
    }
}

impl IntervalLog {
    /// An empty log of intervals whose group `g` carries `rows[g]` count
    /// rows of `width` counts each.
    pub fn new(rows: Vec<usize>, width: usize) -> Self {
        IntervalLog { rows, width, spans: Vec::new(), counts: Vec::new() }
    }

    /// Append one interval of `group`. Panics unless `counts` holds one
    /// row per event of the group and one count per cpu in every row:
    /// callers check the shape of untrusted input first.
    pub fn push(&mut self, t_start_s: f64, t_end_s: f64, group: usize, counts: &[Vec<u64>]) {
        assert_eq!(counts.len(), self.rows[group], "one count row per event of group {group}");
        // At most one growth per interval, however many rows it has.
        self.counts.reserve(counts.len() * self.width);
        for row in counts {
            assert_eq!(row.len(), self.width, "one count per measured cpu");
            self.counts.extend_from_slice(row);
        }
        self.spans.push((t_start_s, t_end_s, group));
    }

    /// The number of intervals logged.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no interval was logged.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The logged intervals, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LoggedInterval<'_>> + '_ {
        let mut rest = &self.counts[..];
        self.spans.iter().map(move |&(t_start_s, t_end_s, group)| {
            let (counts, tail) = rest.split_at(self.rows[group] * self.width);
            rest = tail;
            LoggedInterval { t_start_s, t_end_s, group, counts, width: self.width }
        })
    }

    /// Per group, the count deltas of its intervals summed count by count:
    /// what the deltas telescope to.
    pub fn group_sums(&self) -> Vec<GroupCounts> {
        let mut sums: Vec<GroupCounts> =
            self.rows.iter().map(|&rows| vec![vec![0; self.width]; rows]).collect();
        for interval in self.iter() {
            for (sum, row) in sums[interval.group].iter_mut().zip(interval.rows()) {
                for (s, &v) in sum.iter_mut().zip(row) {
                    *s += v;
                }
            }
        }
        sums
    }

    /// The logged intervals rebuilt as owned [`TimelineInterval`]s.
    pub fn intervals(&self) -> Vec<TimelineInterval> {
        self.iter()
            .map(|iv| TimelineInterval {
                t_start_s: iv.t_start_s,
                t_end_s: iv.t_end_s,
                group: iv.group,
                counts: iv.rows().map(<[u64]>::to_vec).collect(),
            })
            .collect()
    }
}

/// A time-resolved measurement session: wraps [`PerfCtr`] and takes
/// per-interval counter deltas while the caller advances virtual time.
///
/// A local run hands the whole sliced activity to [`TimelineSession::run`],
/// which yields the [`TimelineResult`]. A session time-sliced against
/// others instead brackets each interval with [`TimelineSession::resume`]
/// and [`TimelineSession::tick_and_suspend`], keeps what it needs of each
/// interval itself, and ends with [`TimelineSession::finish_totals`].
///
/// The session keeps no history: every buffer of an interval is kept per
/// group and reused. The counts are read into the group's latest interval,
/// and the deltas are taken against the group's baseline in place.
/// Resuming zeroes the baseline in place, so a warm interval allocates
/// nothing.
pub struct TimelineSession<'m> {
    session: PerfCtr<'m>,
    interval_s: f64,
    elapsed_s: f64,
    /// Per group: the counts at its last sampling point, zero right after
    /// the group was programmed.
    baselines: Vec<GroupCounts>,
    /// Per group: its most recent interval, the one closing an interval
    /// returns.
    latest: Vec<TimelineInterval>,
    /// The number of intervals closed so far.
    intervals: usize,
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
        // Counters were just programmed (and thereby zeroed); the baselines
        // are all zeros without touching the devices again.
        let cpus = session.cpus().len();
        let zeros = |group| vec![vec![0; cpus]; session.num_events(group)];
        let groups = 0..session.num_groups();
        let baselines = groups.clone().map(zeros).collect();
        let latest = groups
            .map(|group| TimelineInterval {
                t_start_s: 0.0,
                t_end_s: 0.0,
                group,
                counts: zeros(group),
            })
            .collect();
        Ok(TimelineSession { session, interval_s, elapsed_s: 0.0, baselines, latest, intervals: 0 })
    }

    /// The wrapped counter session.
    pub fn session(&self) -> &PerfCtr<'m> {
        &self.session
    }

    /// Drive a local run over `slices` of simulated activity, each
    /// `(t_start_s, t_end_s, activity)` in time order: start counting, then
    /// per slice credit its activity through the counting engine and close
    /// its interval. The last interval is closed by
    /// [`TimelineSession::tick_and_suspend`], not rotated, so finishing
    /// reads no counter again. Every interval is logged, and the result is
    /// the session's totals with the logged intervals and their time series
    /// rebuilt on top ([`TimelineTotals::rebuild`]).
    pub fn run(
        mut self,
        slices: impl IntoIterator<Item = (f64, f64, EventSample)>,
    ) -> Result<TimelineResult> {
        let machine = self.session.machine();
        let engine = EventEngine::new(machine);
        let groups = 0..self.session.num_groups();
        let rows = groups.map(|g| self.session.num_events(g)).collect();
        let mut log = IntervalLog::new(rows, self.session.cpus().len());
        self.start()?;
        let mut slices = slices.into_iter().peekable();
        while let Some((t0, t1, sample)) = slices.next() {
            engine.apply(machine, &sample);
            let interval = match slices.peek() {
                Some(_) => self.tick(t1 - t0)?,
                None => self.tick_and_suspend(t1 - t0)?,
            };
            log.push(interval.t_start_s, interval.t_end_s, interval.group, &interval.counts);
        }
        let totals = self.totals(1.0)?;
        totals.rebuild(&log, self.session.metrics())
    }

    /// Start counting.
    fn start(&mut self) -> Result<()> {
        self.session.start()
    }

    /// Close the current interval after `dt_s` seconds of virtual time:
    /// take the active group's count deltas and — in multiplexing mode —
    /// rotate to the next group (the rotation folds the reading the deltas
    /// came from, then reprograms and zeroes the counters, so the next
    /// interval starts from a clean slate). Returns the closed interval.
    fn tick(&mut self, dt_s: f64) -> Result<&TimelineInterval> {
        let group = self.record(dt_s)?;
        if self.session.num_groups() > 1 {
            self.session.rotate(Some(&self.baselines[group]))?;
            self.zero_baseline();
        }
        Ok(&self.latest[group])
    }

    /// Close the current interval after `dt_s` seconds of virtual time,
    /// taking the active group's count deltas, then yield the hardware
    /// between cross-session time slices (see [`PerfCtr::suspend`]): the
    /// session's counter slots are stopped and the reading the interval's
    /// deltas came from is folded into its accumulator, so the
    /// `likwid-perfctrd` broker can hand the registers to another session
    /// sharing the same cpus. A multiplexed session
    /// rotates to its next group without programming it;
    /// [`TimelineSession::resume`] programs it. Returns the closed
    /// interval, so the broker can stream the deltas while the run is
    /// still in flight.
    pub fn tick_and_suspend(&mut self, dt_s: f64) -> Result<&TimelineInterval> {
        let group = self.record(dt_s)?;
        self.session.suspend(&self.baselines[group])?;
        Ok(&self.latest[group])
    }

    /// Take the active group's deltas over the next `dt_s` seconds with
    /// one read of its counters, and return the group. Its baseline
    /// becomes that reading: the cumulative counts since the group was
    /// programmed.
    fn record(&mut self, dt_s: f64) -> Result<usize> {
        if !dt_s.is_finite() || dt_s < 0.0 {
            return Err(LikwidError::Usage(format!("timeline tick of {dt_s} seconds")));
        }
        let group = self.session.active_group();
        let interval = &mut self.latest[group];
        self.session.read_counts_into(&mut interval.counts)?;
        // Delta against the baseline, which becomes the current reading.
        for (row, baseline) in interval.counts.iter_mut().zip(&mut self.baselines[group]) {
            for (count, base) in row.iter_mut().zip(baseline) {
                let current = *count;
                *count = current.saturating_sub(*base);
                *base = current;
            }
        }
        interval.t_start_s = self.elapsed_s;
        interval.t_end_s = self.elapsed_s + dt_s;
        // The interval on the session's *virtual* clock: a complete event
        // on the virtual track of the first measured cpu, timestamped from
        // the deterministic timeline instead of the wall clock.
        if crate::trace::enabled() {
            let track = self.session.cpus().first().copied().unwrap_or(0) as u64;
            let index = self.intervals;
            crate::trace::complete_virtual(
                crate::trace::cat::CORE,
                track,
                (interval.t_start_s * 1e9) as u64,
                (dt_s * 1e9) as u64,
                || "timeline.interval".to_string(),
                || vec![("index", index.to_string()), ("group", group.to_string())],
            );
        }
        self.intervals += 1;
        self.elapsed_s += dt_s;
        Ok(group)
    }

    /// Zero the active group's baseline: its counters were just programmed.
    fn zero_baseline(&mut self) {
        for row in &mut self.baselines[self.session.active_group()] {
            row.fill(0);
        }
    }

    /// Reclaim the hardware for the next time slice: program the active
    /// group (another session may have owned the registers in between),
    /// zero its baseline and start counting.
    pub fn resume(&mut self) -> Result<()> {
        self.session.resume()?;
        self.zero_baseline();
        Ok(())
    }

    /// Stop counting and compute the totals: the per-group raw aggregates
    /// (which the interval deltas sum to exactly), the coverage-extrapolated
    /// aggregates for multiplexed lists, and aggregate results with the
    /// total-runtime `time` binding.
    ///
    /// `time_scale` is the wall-to-measured virtual-time ratio of a daemon
    /// session that was time-sliced against other sessions sharing its
    /// cpus, and scales the extrapolated aggregates (and the metrics
    /// derived from them) the same way the in-session multiplex schedule
    /// scales per-group coverage. A solo session passes exactly `1.0`,
    /// which is the identity.
    pub fn finish_totals(mut self, time_scale: f64) -> Result<TimelineTotals> {
        self.totals(time_scale)
    }

    /// The totals step of [`TimelineSession::run`] and
    /// [`TimelineSession::finish_totals`].
    fn totals(&mut self, time_scale: f64) -> Result<TimelineTotals> {
        if !time_scale.is_finite() || time_scale < 1.0 {
            return Err(LikwidError::Session(format!(
                "coverage time scale must be a finite ratio >= 1, got {time_scale}"
            )));
        }
        self.session.finish()?;
        let num_groups = self.session.num_groups();
        let multiplexed = num_groups > 1;
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

        Ok(TimelineTotals {
            interval_s: self.interval_s,
            duration_s: self.elapsed_s,
            intervals: self.intervals,
            cpus: self.session.cpus().to_vec(),
            socket_lock_owners: self.session.socket_lock_owners(),
            group_names: (0..num_groups).map(|g| self.session.group_name(g).to_string()).collect(),
            aggregate,
            extrapolated,
            aggregate_results,
        })
    }
}

/// The totals of a finished time-resolved measurement: everything of a
/// [`TimelineResult`] except its intervals and time series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineTotals {
    /// The configured sampling interval in seconds.
    pub interval_s: f64,
    /// Total measured virtual time in seconds.
    pub duration_s: f64,
    /// The number of intervals.
    pub intervals: usize,
    /// The measured hardware threads.
    pub cpus: Vec<usize>,
    /// The socket-lock owners, in measured-cpu order.
    pub socket_lock_owners: Vec<usize>,
    /// The group names, by group index.
    pub group_names: Vec<String>,
    /// Per-group raw aggregate counts.
    pub aggregate: Vec<GroupCounts>,
    /// Per-group coverage-extrapolated aggregate counts.
    pub extrapolated: Vec<GroupCounts>,
    /// Aggregate results per group, from the extrapolated counts.
    pub aggregate_results: Vec<PerfCtrResults>,
}

impl TimelineTotals {
    /// The rebuild step: the full result, with the intervals of `log`
    /// (rebuilt by [`IntervalLog::intervals`]) and one time series per
    /// group derived from them by `metrics`. A log that does not hold the
    /// counted intervals is a session error.
    pub fn rebuild(self, log: &IntervalLog, metrics: &MetricEvaluator) -> Result<TimelineResult> {
        if log.len() != self.intervals {
            return Err(LikwidError::Session(format!(
                "{} intervals logged, {} counted",
                log.len(),
                self.intervals
            )));
        }
        let intervals = log.intervals();
        let timeseries = metrics.timeseries(&intervals)?;
        Ok(TimelineResult {
            interval_s: self.interval_s,
            duration_s: self.duration_s,
            cpus: self.cpus,
            socket_lock_owners: self.socket_lock_owners,
            group_names: self.group_names,
            intervals,
            aggregate: self.aggregate,
            extrapolated: self.extrapolated,
            aggregate_results: self.aggregate_results,
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
    pub(crate) fn group_index(&self, name: &str) -> Option<usize> {
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
    pub(crate) fn stethoscope_report(&self) -> Report {
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
pub(crate) const DEMO_PHASE_S: f64 = 2.5e-3;

/// Virtual runtime of the synthetic demo application observed by
/// `likwid-perfctr -t`.
pub(crate) const DEMO_DURATION_S: f64 = 10e-3;

/// Interval-count guard: a `-t`/`-S` interval that would produce more
/// sampling points than this is rejected as a usage error.
pub const MAX_INTERVALS: usize = 100_000;

/// The one [`MAX_INTERVALS`] guard of every time-resolved mode: a
/// [`LikwidError::Usage`] error when `interval_s` cuts `duration_s` into
/// more sampling points than that. The numbers print in their shortest
/// round-trip form, so an absurd interval yields a short message.
pub fn check_sampling_points(interval_s: f64, duration_s: f64) -> Result<()> {
    let points = (duration_s / interval_s).ceil();
    if points > MAX_INTERVALS as f64 {
        return Err(LikwidError::Usage(format!(
            "{interval_s:?} s intervals yield {points:?} sampling points over {duration_s:?} s \
             (max {MAX_INTERVALS})"
        )));
    }
    Ok(())
}

/// Where interval `index` (from 0) of a `duration_s` window sampled every
/// `interval_s` ends, and whether it is the window's last interval: the
/// end is `(index + 1) · interval_s`, clamped to the duration, and the walk
/// stops at the first end that reaches it. Walking boundaries this way,
/// instead of trusting `ceil(duration / interval)`, means float rounding of
/// the ratio (e.g. 0.035 / 0.005) never schedules a trailing zero-length
/// interval, so a stethoscope over a multiplexed list rotates exactly once
/// through every group.
pub fn interval_end(index: usize, interval_s: f64, duration_s: f64) -> (f64, bool) {
    let t1 = ((index + 1) as f64 * interval_s).min(duration_s);
    (t1, t1 >= duration_s)
}

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
    let partial_rate = if full.is_multiple_of(2) { rate_mem } else { rate_cpu };
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
    let mut sample = EventSample::default();
    demo_slice_into(&mut sample, machine, cpus, t0, t1);
    sample
}

/// [`demo_slice`] into a reused sample: a sample already shaped for the
/// machine is overwritten without allocating.
pub fn demo_slice_into(
    sample: &mut EventSample,
    machine: &SimMachine,
    cpus: &[usize],
    t0: f64,
    t1: f64,
) {
    let topo = machine.topology();
    let frequency_hz = machine.clock().frequency_hz;
    sample.reset(topo.num_hw_threads(), topo.sockets as usize);
    let delta =
        |kind| demo_cumulative(kind, t1, frequency_hz) - demo_cumulative(kind, t0, frequency_hz);
    let (thread_kinds, socket_kinds) = HwEventKind::ALL.split_at(DEMO_FIRST_SOCKET_KIND as usize);
    let mut thread_deltas = [0u64; HwEventKind::COUNT];
    for &kind in thread_kinds {
        thread_deltas[kind as usize] = delta(kind);
    }
    for &cpu in cpus {
        for &kind in thread_kinds {
            sample.threads[cpu].add(kind, thread_deltas[kind as usize]);
        }
    }
    for socket in 0..topo.sockets {
        let hosts_a_cpu =
            cpus.iter().any(|&cpu| topo.hw_thread(cpu).is_ok_and(|t| t.socket == socket));
        if hosts_a_cpu {
            for &kind in socket_kinds {
                sample.sockets[socket as usize].add(kind, delta(kind));
            }
        }
    }
}

/// Run the CLI's timeline mode: observe the synthetic demo application for
/// `duration_s` of virtual time, sampling every `interval_s`.
pub fn run_demo_timeline(
    machine: &SimMachine,
    config: PerfCtrConfig,
    interval_s: f64,
    duration_s: f64,
) -> Result<TimelineResult> {
    // Checked before the session programs any counter.
    check_sampling_points(interval_s, duration_s)?;
    let session = TimelineSession::new(machine, config, interval_s)?;
    let cpus = session.session().cpus().to_vec();
    let mut next_t0 = Some(0.0);
    let slices = (0..).map_while(move |i| {
        let t0 = next_t0?;
        let (t1, last) = interval_end(i, interval_s, duration_s);
        next_t0 = (!last).then_some(t1);
        Some((t0, t1, demo_slice(machine, &cpus, t0, t1)))
    });
    session.run(slices)
}

/// Run the CLI's stethoscope mode: measure the synthetic demo application
/// for `duration_s` of virtual time and report the aggregate. A
/// multiplexed group list rotates once through every group within the
/// window.
pub(crate) fn run_demo_stethoscope(
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
        // Correctly rounded: the nearest doubles, not one ulp short.
        assert_eq!(parse_duration("100us"), Some(1e-4));
        assert_eq!(parse_duration("100ms"), Some(0.1));
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
        let session = TimelineSession::new(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::MEM), vec![0]),
            1e-3,
        )
        .unwrap();
        let frequency_hz = machine.clock().frequency_hz;
        let topo = machine.topology();
        // 1 ms at exactly 1e5 reads + 5e4 writes per interval.
        let mut sample = EventSample::new(topo.num_hw_threads(), topo.sockets as usize);
        sample.threads[0].add(HwEventKind::CoreCycles, (1e-3 * frequency_hz) as u64);
        sample.threads[0].add(HwEventKind::InstructionsRetired, 1_000_000);
        sample.sockets[0].add(HwEventKind::MemoryReads, 100_000);
        sample.sockets[0].add(HwEventKind::MemoryWrites, 50_000);
        sample.sockets[0].add(HwEventKind::UncoreCycles, (1e-3 * frequency_hz) as u64);
        let slices = (0..8).map(|i| (i as f64 * 1e-3, (i + 1) as f64 * 1e-3, sample.clone()));
        let result = session.run(slices).unwrap();
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
    fn parsed_intervals_tile_the_window_exactly() {
        // 100 ms in 100 us steps: 1,000 intervals, with no trailing sliver
        // left by an interval parsed one ulp short.
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let interval_s = parse_interval("100us").unwrap();
        let result = run_demo_timeline(
            &machine,
            config(MeasurementSpec::Group(EventGroupKind::FLOPS_DP), vec![0]),
            interval_s,
            parse_interval("100ms").unwrap(),
        )
        .unwrap();
        assert_eq!(result.intervals.len(), 1_000);
        assert_eq!(result.intervals[0].t_end_s, 1e-4);
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
        let mut log = IntervalLog::new(vec![session.session().num_events(0)], cpus.len());
        let mut t0 = 0.0;
        for i in 0..10 {
            session.resume().unwrap();
            let t1 = ((i + 1) as f64 * 1e-3).min(DEMO_DURATION_S);
            engine.apply(&machine, &demo_slice(&machine, &cpus, t0, t1));
            let iv = session.tick_and_suspend(t1 - t0).unwrap();
            log.push(iv.t_start_s, iv.t_end_s, iv.group, &iv.counts);
            t0 = t1;
        }
        // The finish of `run`, over the intervals logged here.
        let totals = session.totals(1.0).unwrap();
        let sliced = totals.rebuild(&log, session.session().metrics()).unwrap();
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
        let counts = session.tick(1e-3).unwrap().counts.clone();
        let totals = session.finish_totals(2.0).unwrap();
        // Raw aggregates keep the measured counts; extrapolation doubles.
        assert_eq!(counts, totals.aggregate[0]);
        for (ei, per_cpu) in totals.extrapolated[0].iter().enumerate() {
            assert_eq!(per_cpu[0], 2 * totals.aggregate[0][ei][0], "event {ei}");
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
            assert!(matches!(s.finish_totals(bad), Err(LikwidError::Session(_))), "{bad}");
        }
    }

    #[test]
    fn an_interval_log_cuts_its_counts_back_into_intervals() {
        // Two groups of two and three events on two cpus, interleaved.
        let mut log = IntervalLog::new(vec![2, 3], 2);
        let two = vec![vec![1, 2], vec![3, 4]];
        let three = vec![vec![5, 6], vec![7, 8], vec![9, 10]];
        log.push(0.0, 1.0, 0, &two);
        log.push(1.0, 2.0, 1, &three);
        log.push(2.0, 3.5, 0, &two);
        assert_eq!(log.len(), 3);
        let rows: Vec<(usize, Vec<&[u64]>)> =
            log.iter().map(|iv| (iv.group, iv.rows().collect())).collect();
        assert_eq!(rows[1], (1, vec![&[5, 6][..], &[7, 8], &[9, 10]]));
        assert_eq!(log.iter().len(), 3);
        let intervals = log.intervals();
        assert_eq!(
            intervals[2],
            TimelineInterval { t_start_s: 2.0, t_end_s: 3.5, group: 0, counts: two.clone() }
        );
        assert_eq!(intervals[1].counts, three);
        assert_eq!(log.group_sums(), vec![vec![vec![2, 4], vec![6, 8]], three]);
    }

    #[test]
    fn a_dead_cpu_reads_zero_deltas_across_group_rotations() {
        // Regression: reprogramming skipped a dead cpu without resetting its
        // slot tracking, so every later rotation back to a group re-reported
        // that group's frozen cumulative count as a fresh delta.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        machine.inject_faults(likwid_x86_machine::FaultPlan {
            dead: vec![(1, 150)],
            ..Default::default()
        });
        let mut session = TimelineSession::new(
            &machine,
            config(
                MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM]),
                vec![0, 1],
            ),
            1e-3,
        )
        .unwrap();
        let engine = EventEngine::new(&machine);
        let rows = (0..2).map(|g| session.session().num_events(g)).collect();
        let mut log = IntervalLog::new(rows, 2);
        session.start().unwrap();
        let mut died_at = None;
        for i in 0..10 {
            let (t0, t1) = (i as f64 * 1e-3, (i + 1) as f64 * 1e-3);
            engine.apply(&machine, &demo_slice(&machine, &[0, 1], t0, t1));
            let interval = session.tick(t1 - t0).unwrap();
            log.push(interval.t_start_s, interval.t_end_s, interval.group, &interval.counts);
            let cpu1: u64 = interval.counts.iter().map(|row| row[1]).sum();
            let cpu0: u64 = interval.counts.iter().map(|row| row[0]).sum();
            assert!(cpu0 > 0, "interval {i}: the live cpu keeps counting");
            match died_at {
                None => assert!(cpu1 > 0, "interval {i}: cpu 1 counts until it dies"),
                Some(d) => assert_eq!(cpu1, 0, "interval {i}: cpu 1 died in interval {d}"),
            }
            if died_at.is_none()
                && session.session().diagnostics().iter().any(|d| d.subject == "cpu 1")
            {
                died_at = Some(i);
            }
        }
        let died_at = died_at.expect("cpu 1 dies within the run");
        assert!(died_at < 6, "cpu 1 dies early enough to see rotations, at {died_at}");
        let totals = session.finish_totals(1.0).unwrap();
        // The deltas still telescope to the aggregates on both cpus.
        assert_eq!(log.group_sums(), totals.aggregate);
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
