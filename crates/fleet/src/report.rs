//! The deterministic cross-point report.
//!
//! One sweep renders as one [`likwid::Report`]: a header section, the
//! per-point table (expansion-ordered), one pivot table per axis that
//! actually varies, and the best/worst extremes. Everything in here is a
//! pure function of the sweep outcome — no wall-clock times, no memo-hit
//! counters — so a warm re-run renders byte-identically to the cold run
//! whatever the worker count (the CLI prints execution stats to stderr
//! instead).

use likwid::report::{Body, KvEntry, Report, Row, Section, Table, Value};
use likwid_workloads::BoxStats;

use crate::point::PointOutcome;
use crate::sched::SweepOutcome;
use crate::spec::{ExperimentPoint, SweepSpec};

/// The canonical cell spelling of one axis of a point.
type AxisCell = fn(&ExperimentPoint) -> String;

/// The axes a point can be grouped by in a pivot table, with their
/// canonical cell spellings.
const AXES: &[(&str, AxisCell)] = &[
    ("workload", |p| p.workload.canonical()),
    ("preset", |p| p.preset.id().to_string()),
    ("personality", |p| format!("{:?}", p.personality)),
    ("placement", |p| p.placement.canonical()),
    ("prefetchers", |p| p.prefetchers.canonical().to_string()),
    ("threads", |p| format!("t={}", p.threads)),
];

fn stats_of(outcome: &PointOutcome) -> Option<BoxStats> {
    outcome.as_ref().ok().and_then(|r| BoxStats::from_samples(&r.bandwidths))
}

/// Build the cross-point report of a completed sweep.
pub fn fleet_report(spec: &SweepSpec, outcome: &SweepOutcome) -> Report {
    let mut report = Report::new("likwid-fleet");
    report.push(header_section(spec, outcome));
    report.push(points_section(outcome));
    for &(axis, project) in AXES {
        if let Some(section) = pivot_section(outcome, axis, project) {
            report.push(section);
        }
    }
    if let Some(section) = extremes_section(outcome) {
        report.push(section);
    }
    report
}

fn header_section(spec: &SweepSpec, outcome: &SweepOutcome) -> Section {
    let mut entries = vec![
        KvEntry::new("points", Value::Count(outcome.points.len() as u64)),
        KvEntry::new("samples per point", Value::Count(spec.samples.max(1) as u64)),
        KvEntry::new("errors", Value::Count(outcome.stats.errors as u64)),
    ];
    if let Some(counters) = &spec.counters {
        entries.push(KvEntry::new("counters", Value::Str(counters.clone())));
    }
    if let Some(interval_s) = spec.timeline {
        entries.push(KvEntry::new("timeline interval s", Value::Real(interval_s)));
    }
    if let Some(plan) = &spec.inject {
        entries.push(KvEntry::new("fault plan", Value::Str(plan.clone())));
    }
    Section::new("sweep", Body::KeyValues(entries))
        .with_boxed_heading("Experiment fleet sweep")
        .with_rule_after()
}

fn stat_cells(stats: Option<&BoxStats>) -> Vec<Value> {
    match stats {
        Some(s) => vec![
            Value::Real(s.median),
            Value::Real(s.min),
            Value::Real(s.max),
            Value::Real(s.relative_spread().unwrap_or(0.0)),
        ],
        None => vec![
            Value::Str("-".into()),
            Value::Str("-".into()),
            Value::Str("-".into()),
            Value::Str("-".into()),
        ],
    }
}

fn points_section(outcome: &SweepOutcome) -> Section {
    let mut table = Table::bordered(vec![
        "point",
        "status",
        "median MB/s",
        "min MB/s",
        "max MB/s",
        "rel spread",
    ]);
    for (point, result) in &outcome.points {
        let status = match result {
            Ok(_) => "ok".to_string(),
            Err(e) => e.status().to_string(),
        };
        let stats = stats_of(result);
        let mut values = vec![Value::Str(point.key()), Value::Str(status)];
        values.extend(stat_cells(stats.as_ref()));
        table.push(Row::new(values));
    }
    Section::new("points", Body::Table(table)).with_heading("Points")
}

/// Pivot over one axis; `None` when the axis does not vary across the
/// sweep (a one-value pivot restates the points table).
fn pivot_section(
    outcome: &SweepOutcome,
    axis: &str,
    project: fn(&ExperimentPoint) -> String,
) -> Option<Section> {
    // First-seen order follows expansion order, hence is deterministic.
    let mut groups: Vec<(String, Vec<&PointOutcome>)> = Vec::new();
    for (point, result) in &outcome.points {
        let cell = project(point);
        match groups.iter_mut().find(|(name, _)| *name == cell) {
            Some((_, members)) => members.push(result),
            None => groups.push((cell, vec![result])),
        }
    }
    if groups.len() < 2 {
        return None;
    }
    let mut table = Table::bordered(vec![
        axis.to_string(),
        "points".to_string(),
        "ok".to_string(),
        "best median MB/s".to_string(),
        "mean median MB/s".to_string(),
    ]);
    for (cell, members) in groups {
        let medians: Vec<f64> =
            members.iter().filter_map(|o| stats_of(o)).map(|s| s.median).collect();
        let mut values = vec![
            Value::Str(cell),
            Value::Count(members.len() as u64),
            Value::Count(medians.len() as u64),
        ];
        if medians.is_empty() {
            values.push(Value::Str("-".into()));
            values.push(Value::Str("-".into()));
        } else {
            let best = medians.iter().cloned().fold(f64::MIN, f64::max);
            let mean = medians.iter().sum::<f64>() / medians.len() as f64;
            values.push(Value::Real(best));
            values.push(Value::Real(mean));
        }
        table.push(Row::new(values));
    }
    Some(
        Section::new(format!("pivot_{axis}"), Body::Table(table))
            .with_heading(format!("Pivot: {axis}")),
    )
}

fn extremes_section(outcome: &SweepOutcome) -> Option<Section> {
    let mut measured: Vec<(&ExperimentPoint, BoxStats)> = outcome
        .points
        .iter()
        .filter_map(|(point, result)| stats_of(result).map(|s| (point, s)))
        .collect();
    if measured.len() < 2 {
        return None;
    }
    // Stable under ties: expansion order breaks them.
    let best = measured
        .iter()
        .enumerate()
        .max_by(|(ia, (_, a)), (ib, (_, b))| a.median.total_cmp(&b.median).then(ib.cmp(ia)))
        .map(|(_, m)| m)
        .copied()?;
    measured.retain(|(p, _)| !std::ptr::eq(*p, best.0));
    let worst = measured
        .iter()
        .enumerate()
        .min_by(|(ia, (_, a)), (ib, (_, b))| a.median.total_cmp(&b.median).then(ia.cmp(ib)))
        .map(|(_, m)| m)
        .copied()?;
    let delta_pct =
        if worst.1.median == 0.0 { 0.0 } else { (best.1.median / worst.1.median - 1.0) * 100.0 };
    let entries = vec![
        KvEntry::new("best point", Value::Str(best.0.key())),
        KvEntry::new("best median MB/s", Value::Real(best.1.median)),
        KvEntry::new("worst point", Value::Str(worst.0.key())),
        KvEntry::new("worst median MB/s", Value::Real(worst.1.median)),
        KvEntry::new("best over worst %", Value::Real(delta_pct)),
    ];
    Some(Section::new("extremes", Body::KeyValues(entries)).with_heading("Extremes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_sweep, RunOptions};
    use crate::spec::{PlacementAxis, SeedRule, SweepSpec, ThreadsAxis, WorkloadSpec};
    use likwid::report::Json;
    use likwid::report::Render;
    use likwid_x86_machine::MachinePreset;

    fn sweep() -> SweepSpec {
        let mut spec = SweepSpec::new(
            WorkloadSpec::Kernel { name: "triad".into(), working_set_bytes: 1 << 20, passes: 1 },
            MachinePreset::Core2Quad,
        );
        spec.placements = vec![PlacementAxis::Scatter, PlacementAxis::Unpinned];
        spec.threads = ThreadsAxis::Counts(vec![1, 2]);
        spec.samples = 3;
        spec.seed = SeedRule::XorThreads(7);
        spec
    }

    #[test]
    fn report_has_points_pivots_and_extremes() {
        let spec = sweep();
        let outcome = run_sweep(&spec, &RunOptions { workers: 2, ..Default::default() }).unwrap();
        let report = fleet_report(&spec, &outcome);
        assert_eq!(report.table("points").unwrap().num_rows(), 4);
        assert!(report.section("pivot_placement").is_some(), "placement varies");
        assert!(report.section("pivot_threads").is_some(), "threads vary");
        assert!(report.section("pivot_preset").is_none(), "one preset, no pivot");
        assert!(report.value("extremes", "best point").is_some());
        assert!(report.value("extremes", "best over worst %").unwrap().as_real().unwrap() >= 0.0);
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let spec = sweep();
        let a = run_sweep(&spec, &RunOptions { workers: 1, ..Default::default() }).unwrap();
        let b = run_sweep(&spec, &RunOptions { workers: 8, ..Default::default() }).unwrap();
        let render = |o: &SweepOutcome| Json.render(&fleet_report(&spec, o));
        assert_eq!(render(&a), render(&b));
    }
}
