//! Derived metrics: the group formulas of a measurement, bound once and
//! evaluated over raw counts.
//!
//! Counters yield raw counts; the metrics a report prints (`CPI`,
//! `DP MFlops/s`, `Memory bandwidth [MBytes/s]`) are derived from them only
//! when something renders them, as `likwid-perfctr` does. A
//! [`MetricEvaluator`] holds the formulas of every group of a measurement,
//! bound to the value layout `[inverseClock, counters…, time]`. It touches
//! no counter, so the same evaluator serves a [`super::PerfCtr`] session,
//! the post-mortem [`super::TimelineSession::finish`] and a client that
//! rebuilds a daemon session's metrics from the streamed counts.

use std::cell::RefCell;

use likwid_perf_events::CounterSlot;
use likwid_x86_machine::{ClockDomain, Microarch};

use crate::error::Result;
use crate::perfctr::formula::{BoundFormula, Formula};
use crate::perfctr::groups::{group_definition, EventGroupKind};
use crate::perfctr::session::GroupCounts;
use crate::perfctr::timeline::TimelineInterval;
use crate::report::{Series, TimeSeries};

/// One group of a measurement as the evaluator sees it: its preconfigured
/// kind (`None` for a custom event list) and its programmed
/// `(event, counter)` list.
pub type GroupEvents<'a> = (Option<EventGroupKind>, &'a [(String, CounterSlot)]);

/// The bound formulas of one group.
#[derive(Debug, Clone)]
struct GroupFormulas {
    /// Event names, in counter-programming order.
    events: Vec<String>,
    /// The time formula, bound to `inverseClock` followed by the counters;
    /// present exactly when the group derives metrics.
    time: Option<BoundFormula>,
    /// `(name, formula)` of every derived metric, bound to the time
    /// formula's layout plus a trailing `time`.
    metrics: Vec<(String, BoundFormula)>,
}

/// The derived metrics of every group of one measurement.
#[derive(Debug, Clone)]
pub struct MetricEvaluator {
    inverse_clock: f64,
    cpus: Vec<usize>,
    groups: Vec<GroupFormulas>,
    /// The `[inverseClock, counts…, time]` rows of one evaluation, one per
    /// measured cpu, reused across evaluations.
    rows: RefCell<Vec<f64>>,
}

impl MetricEvaluator {
    /// The metrics of a measurement on `arch` at `clock` over `cpus`, one
    /// group per entry of `groups`; a custom event list derives no
    /// metrics.
    pub fn new(
        arch: Microarch,
        clock: ClockDomain,
        cpus: &[usize],
        groups: &[GroupEvents<'_>],
    ) -> Result<Self> {
        let groups = groups
            .iter()
            .map(|&(kind, events)| {
                let mut formulas = GroupFormulas {
                    events: events.iter().map(|(name, _)| name.clone()).collect(),
                    time: None,
                    metrics: Vec::new(),
                };
                let Some(kind) = kind else { return Ok(formulas) };
                let def = group_definition(arch, kind)?;
                if def.metrics.is_empty() {
                    return Ok(formulas);
                }
                // `time` comes last, so it shadows any earlier entry of
                // that name.
                let mut layout = vec!["inverseClock".to_string()];
                layout.extend(events.iter().map(|(_, slot)| slot.name()));
                let counters = layout.len();
                layout.push("time".to_string());
                formulas.time = Some(Formula::parse(def.time_formula)?.bind(&layout[..counters]));
                formulas.metrics = def
                    .metrics
                    .iter()
                    .map(|(n, f)| Ok((n.to_string(), Formula::parse(f)?.bind(&layout))))
                    .collect::<Result<_>>()?;
                Ok(formulas)
            })
            .collect::<Result<_>>()?;
        Ok(MetricEvaluator {
            inverse_clock: 1.0 / clock.frequency_hz,
            cpus: cpus.to_vec(),
            groups,
            rows: RefCell::new(Vec::new()),
        })
    }

    /// The derived-metric names of a group, in definition order (empty for
    /// custom event lists).
    pub fn metric_names(&self, group: usize) -> Vec<String> {
        self.groups[group].metrics.iter().map(|(name, _)| name.clone()).collect()
    }

    /// A group's metrics over `counts` with `time` bound to the group's
    /// time formula (total runtime from the cycle counters): the aggregate
    /// binding. One row per metric, one value per measured cpu.
    pub fn aggregate(&self, group: usize, counts: &GroupCounts) -> Result<Vec<Vec<f64>>> {
        let mut values = vec![vec![0.0; self.cpus.len()]; self.groups[group].metrics.len()];
        self.evaluate(group, counts, None, &mut values)?;
        Ok(values)
    }

    /// The metrics of one timeline interval of a group into `metrics`, one
    /// row of one value per measured cpu per metric, overwritten in place.
    /// `time` is bound to the interval length `t_end_s - t_start_s`, so
    /// rate metrics come out per interval.
    pub fn interval_into(
        &self,
        group: usize,
        counts: &GroupCounts,
        t_start_s: f64,
        t_end_s: f64,
        metrics: &mut [Vec<f64>],
    ) -> Result<()> {
        self.evaluate(group, counts, Some(t_end_s - t_start_s), metrics)
    }

    /// One time series per group over the recorded intervals: the
    /// per-interval derived metrics (one column per metric and cpu), or the
    /// raw per-interval counts for custom event lists. A group without an
    /// interval has an empty series.
    pub fn timeseries(&self, intervals: &[TimelineInterval]) -> Result<Vec<TimeSeries>> {
        let cpus = &self.cpus;
        let mut timeseries = Vec::with_capacity(self.groups.len());
        for (g, group) in self.groups.iter().enumerate() {
            let intervals: Vec<&TimelineInterval> =
                intervals.iter().filter(|iv| iv.group == g).collect();
            let timestamps: Vec<f64> = intervals.iter().map(|iv| iv.t_end_s).collect();
            let mut series = Vec::new();
            if intervals.is_empty() {
                // No interval of this group: no series.
            } else if group.metrics.is_empty() {
                for (ei, name) in group.events.iter().enumerate() {
                    for (ci, &cpu) in cpus.iter().enumerate() {
                        let values = intervals.iter().map(|iv| iv.counts[ei][ci] as f64).collect();
                        series.push(Series::new(name.clone(), cpu, values));
                    }
                }
            } else {
                // One column per (metric, cpu), filled interval by interval
                // through one reused row of metric values.
                let mut values = vec![vec![0.0; cpus.len()]; group.metrics.len()];
                let mut columns =
                    vec![Vec::with_capacity(intervals.len()); group.metrics.len() * cpus.len()];
                for iv in &intervals {
                    self.interval_into(g, &iv.counts, iv.t_start_s, iv.t_end_s, &mut values)?;
                    for (column, &value) in columns.iter_mut().zip(values.iter().flatten()) {
                        column.push(value);
                    }
                }
                let mut columns = columns.into_iter();
                for (name, _) in &group.metrics {
                    for (&cpu, values) in cpus.iter().zip(columns.by_ref()) {
                        series.push(Series::new(name.clone(), cpu, values));
                    }
                }
            }
            timeseries.push(TimeSeries { timestamps, series });
        }
        Ok(timeseries)
    }

    /// Evaluate a group's derived metrics into `metrics` (one row per
    /// metric, one value per measured cpu). `time` is bound to
    /// `time_override` when given, else to the group's time formula.
    fn evaluate(
        &self,
        group: usize,
        counts: &GroupCounts,
        time_override: Option<f64>,
        metrics: &mut [Vec<f64>],
    ) -> Result<()> {
        let g = &self.groups[group];
        assert_eq!(metrics.len(), g.metrics.len(), "one row per metric of group {group}");
        let Some(time_formula) = &g.time else { return Ok(()) };
        // One row per measured cpu in the bound layout:
        // `[inverseClock, counts…, time]`.
        let width = g.events.len() + 2;
        let mut rows = self.rows.borrow_mut();
        rows.clear();
        rows.resize(width * self.cpus.len(), 0.0);
        for (ci, row) in rows.chunks_exact_mut(width).enumerate() {
            row[0] = self.inverse_clock;
            for (value, per_cpu) in row[1..width - 1].iter_mut().zip(counts) {
                *value = per_cpu[ci] as f64;
            }
            row[width - 1] = match time_override {
                Some(dt) => dt,
                None => time_formula.evaluate(&row[..width - 1])?,
            };
        }
        for ((_, f), values) in g.metrics.iter().zip(metrics) {
            assert_eq!(values.len(), self.cpus.len(), "one value per measured cpu");
            for (value, row) in values.iter_mut().zip(rows.chunks_exact(width)) {
                *value = f.evaluate(row)?;
            }
        }
        Ok(())
    }
}
