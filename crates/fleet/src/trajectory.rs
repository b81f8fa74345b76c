//! The machine-readable sweep trajectory and the perf-regression compare.
//!
//! A trajectory file (`BENCH_fleet.json` by convention) is the flat,
//! key-sorted summary of one sweep — per point: status, sample count, and
//! the bandwidth five-number summary. Two trajectories compare point by
//! point with a *relative-spread-aware* threshold: a point only counts as
//! regressed when its median moved by more than
//! `max(min_rel, spread_factor × max(old_spread, new_spread))` — noisy
//! points (unpinned runs have large interquartile ranges by design) earn
//! proportionally wider tolerance bands.

use likwid::report::{Body, KvEntry, Report, Row, Section, Table, Value};
use likwid_daemon::jsonv::JsonValue;
use likwid_workloads::BoxStats;

use crate::memo::CODE_EPOCH;
use crate::sched::SweepOutcome;

/// One point of a trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// The point key ([`crate::ExperimentPoint::key`]).
    pub key: String,
    /// `ok` or a [`crate::PointError::status`] tag.
    pub status: String,
    /// Bandwidth samples behind the summary.
    pub samples: usize,
    /// Median bandwidth in MB/s (`None` for errored points).
    pub median: Option<f64>,
    /// Smallest sample.
    pub min: Option<f64>,
    /// Largest sample.
    pub max: Option<f64>,
    /// Relative spread (IQR / median).
    pub spread: Option<f64>,
}

/// A whole trajectory: the persisted, comparable shape of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// The producing code epoch ([`CODE_EPOCH`] at write time).
    pub epoch: String,
    /// Bandwidth unit (always `MB/s`).
    pub unit: String,
    /// The points, sorted by key.
    pub points: Vec<TrajectoryPoint>,
}

impl Trajectory {
    /// Distil a completed sweep. Points sort by key, so the file is
    /// byte-stable whatever the axis order of the producing spec.
    pub fn from_outcome(outcome: &SweepOutcome) -> Trajectory {
        let mut points: Vec<TrajectoryPoint> = outcome
            .points
            .iter()
            .map(|(point, result)| match result {
                Ok(r) => {
                    let stats = BoxStats::from_samples(&r.bandwidths);
                    TrajectoryPoint {
                        key: point.key(),
                        status: "ok".to_string(),
                        samples: r.bandwidths.len(),
                        median: stats.map(|s| s.median),
                        min: stats.map(|s| s.min),
                        max: stats.map(|s| s.max),
                        spread: stats.and_then(|s| s.relative_spread()),
                    }
                }
                Err(e) => TrajectoryPoint {
                    key: point.key(),
                    status: e.status().to_string(),
                    samples: 0,
                    median: None,
                    min: None,
                    max: None,
                    spread: None,
                },
            })
            .collect();
        points.sort_by(|a, b| a.key.cmp(&b.key));
        Trajectory { epoch: CODE_EPOCH.to_string(), unit: "MB/s".to_string(), points }
    }

    /// The point with a key, if present.
    pub fn point(&self, key: &str) -> Option<&TrajectoryPoint> {
        self.points.iter().find(|p| p.key == key)
    }

    /// Serialize to the `BENCH_fleet.json` document (with a trailing
    /// newline).
    pub fn encode(&self) -> String {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut members = vec![
                    ("key".to_string(), JsonValue::Str(p.key.clone())),
                    ("status".to_string(), JsonValue::Str(p.status.clone())),
                    ("samples".to_string(), JsonValue::UInt(p.samples as u64)),
                ];
                for (name, value) in
                    [("median", p.median), ("min", p.min), ("max", p.max), ("spread", p.spread)]
                {
                    if let Some(v) = value {
                        members.push((name.to_string(), JsonValue::real(v)));
                    }
                }
                JsonValue::Obj(members)
            })
            .collect();
        let doc = JsonValue::Obj(vec![
            ("bench".to_string(), JsonValue::Str("fleet".to_string())),
            ("version".to_string(), JsonValue::UInt(1)),
            ("epoch".to_string(), JsonValue::Str(self.epoch.clone())),
            ("unit".to_string(), JsonValue::Str(self.unit.clone())),
            ("points".to_string(), JsonValue::Arr(points)),
        ]);
        doc.encode() + "\n"
    }

    /// Parse a trajectory document.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = JsonValue::parse(text)?;
        if doc.get("bench").and_then(JsonValue::as_str) != Some("fleet") {
            return Err("not a fleet trajectory (bench != \"fleet\")".to_string());
        }
        if doc.get("version").and_then(JsonValue::as_u64) != Some(1) {
            return Err("unsupported fleet trajectory version".to_string());
        }
        let epoch =
            doc.get("epoch").and_then(JsonValue::as_str).ok_or("missing epoch")?.to_string();
        let unit = doc.get("unit").and_then(JsonValue::as_str).ok_or("missing unit")?.to_string();
        let mut points = Vec::new();
        for entry in doc.get("points").and_then(JsonValue::as_arr).ok_or("missing points")? {
            let key = entry
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or("point without key")?
                .to_string();
            let status = entry
                .get("status")
                .and_then(JsonValue::as_str)
                .ok_or("point without status")?
                .to_string();
            let samples =
                entry.get("samples").and_then(JsonValue::as_u64).ok_or("point without samples")?;
            points.push(TrajectoryPoint {
                key,
                status,
                samples: samples as usize,
                median: entry.get("median").and_then(JsonValue::as_f64),
                min: entry.get("min").and_then(JsonValue::as_f64),
                max: entry.get("max").and_then(JsonValue::as_f64),
                spread: entry.get("spread").and_then(JsonValue::as_f64),
            });
        }
        Ok(Trajectory { epoch, unit, points })
    }
}

/// The compare thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Minimum relative change to flag, however tight the samples.
    pub min_rel: f64,
    /// Widen the band to this multiple of the larger relative spread.
    pub spread_factor: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig { min_rel: 0.05, spread_factor: 2.0 }
    }
}

/// One point whose median moved beyond its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The point key.
    pub key: String,
    /// Baseline median MB/s.
    pub old_median: f64,
    /// Current median MB/s.
    pub new_median: f64,
    /// Relative change (`new/old - 1`; negative = slower).
    pub change_rel: f64,
    /// The tolerance band the change exceeded.
    pub threshold: f64,
}

/// The verdict of comparing a current trajectory against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareOutcome {
    /// Points slower than the baseline beyond their band.
    pub regressions: Vec<Delta>,
    /// Points faster beyond their band.
    pub improvements: Vec<Delta>,
    /// Points within their band.
    pub unchanged: usize,
    /// Points that were `ok` in the baseline and are errored now — always
    /// a regression, whatever the numbers.
    pub broken: Vec<String>,
    /// Baseline keys absent from the current trajectory.
    pub missing: Vec<String>,
    /// Current keys absent from the baseline (informational).
    pub added: Vec<String>,
}

impl CompareOutcome {
    /// Whether the compare should fail (nonzero exit): any regression,
    /// newly broken point, or vanished baseline point.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty() || !self.broken.is_empty() || !self.missing.is_empty()
    }
}

/// Compare a current trajectory against a baseline, point by point.
pub fn compare(baseline: &Trajectory, current: &Trajectory, cfg: &CompareConfig) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    for old in &baseline.points {
        let Some(new) = current.point(&old.key) else {
            out.missing.push(old.key.clone());
            continue;
        };
        match (old.median, new.median) {
            (Some(old_median), Some(new_median)) => {
                let spread = old.spread.unwrap_or(0.0).max(new.spread.unwrap_or(0.0));
                let threshold = cfg.min_rel.max(cfg.spread_factor * spread);
                let change_rel =
                    if old_median == 0.0 { 0.0 } else { new_median / old_median - 1.0 };
                let delta =
                    Delta { key: old.key.clone(), old_median, new_median, change_rel, threshold };
                if change_rel < -threshold {
                    out.regressions.push(delta);
                } else if change_rel > threshold {
                    out.improvements.push(delta);
                } else {
                    out.unchanged += 1;
                }
            }
            (Some(_), None) => out.broken.push(old.key.clone()),
            // Errored baseline points carry no number to regress from;
            // a newly-ok point is just unchanged-or-better.
            (None, _) => out.unchanged += 1,
        }
    }
    for new in &current.points {
        if baseline.point(&new.key).is_none() {
            out.added.push(new.key.clone());
        }
    }
    out
}

fn delta_rows(table: &mut Table, deltas: &[Delta]) {
    for d in deltas {
        table.push(Row::new(vec![
            Value::Str(d.key.clone()),
            Value::Real(d.old_median),
            Value::Real(d.new_median),
            Value::Real(d.change_rel * 100.0),
            Value::Real(d.threshold * 100.0),
        ]));
    }
}

/// Render a compare verdict as a report.
pub fn compare_report(outcome: &CompareOutcome) -> Report {
    let mut report = Report::new("likwid-fleet compare");
    let entries = vec![
        KvEntry::new("regressions", Value::Count(outcome.regressions.len() as u64)),
        KvEntry::new("improvements", Value::Count(outcome.improvements.len() as u64)),
        KvEntry::new("unchanged", Value::Count(outcome.unchanged as u64)),
        KvEntry::new("broken", Value::Count(outcome.broken.len() as u64)),
        KvEntry::new("missing", Value::Count(outcome.missing.len() as u64)),
        KvEntry::new("added", Value::Count(outcome.added.len() as u64)),
        KvEntry::new(
            "verdict",
            Value::Str(if outcome.regressed() { "REGRESSED".into() } else { "ok".into() }),
        ),
    ];
    report.push(
        Section::new("compare", Body::KeyValues(entries))
            .with_boxed_heading("Fleet trajectory compare")
            .with_rule_after(),
    );
    for (id, heading, deltas) in [
        ("regressions", "Regressions", &outcome.regressions),
        ("improvements", "Improvements", &outcome.improvements),
    ] {
        if deltas.is_empty() {
            continue;
        }
        let mut table =
            Table::bordered(vec!["point", "baseline MB/s", "current MB/s", "change %", "band %"]);
        delta_rows(&mut table, deltas);
        report.push(Section::new(id, Body::Table(table)).with_heading(heading));
    }
    for (id, heading, keys) in
        [("broken", "Newly broken", &outcome.broken), ("missing", "Missing", &outcome.missing)]
    {
        if keys.is_empty() {
            continue;
        }
        let mut table = Table::bordered(vec!["point"]);
        for key in keys {
            table.push(Row::new(vec![Value::Str(key.clone())]));
        }
        report.push(Section::new(id, Body::Table(table)).with_heading(heading));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_sweep, RunOptions};
    use crate::spec::{SeedRule, SweepSpec, ThreadsAxis, WorkloadSpec};
    use likwid_x86_machine::MachinePreset;

    fn point(key: &str, median: f64, spread: f64) -> TrajectoryPoint {
        TrajectoryPoint {
            key: key.to_string(),
            status: "ok".to_string(),
            samples: 5,
            median: Some(median),
            min: Some(median * 0.9),
            max: Some(median * 1.1),
            spread: Some(spread),
        }
    }

    fn trajectory(points: Vec<TrajectoryPoint>) -> Trajectory {
        Trajectory { epoch: CODE_EPOCH.to_string(), unit: "MB/s".to_string(), points }
    }

    #[test]
    fn encode_parse_round_trips() {
        let mut spec = SweepSpec::new(
            WorkloadSpec::Kernel { name: "scale".into(), working_set_bytes: 1 << 20, passes: 1 },
            MachinePreset::Core2Quad,
        );
        spec.threads = ThreadsAxis::Counts(vec![1, 2]);
        spec.samples = 3;
        spec.seed = SeedRule::Fixed(5);
        let outcome = run_sweep(&spec, &RunOptions::default()).unwrap();
        let t = Trajectory::from_outcome(&outcome);
        assert!(t.points.windows(2).all(|w| w[0].key < w[1].key), "key-sorted");
        let back = Trajectory::parse(&t.encode()).unwrap();
        assert_eq!(back, t, "trajectory files parse back losslessly");
    }

    #[test]
    fn a_slowed_point_regresses_but_noise_is_tolerated() {
        let cfg = CompareConfig::default();
        let base = trajectory(vec![point("a|t=1", 1000.0, 0.0), point("b|t=1", 1000.0, 0.10)]);
        // a: tight point, 10% slower -> beyond the 5% floor -> regression.
        // b: noisy point (spread 0.10 -> band 20%), 10% slower -> tolerated.
        let cur = trajectory(vec![point("a|t=1", 900.0, 0.0), point("b|t=1", 900.0, 0.10)]);
        let out = compare(&base, &cur, &cfg);
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].key, "a|t=1");
        assert_eq!(out.unchanged, 1);
        assert!(out.regressed());
    }

    #[test]
    fn improvements_breakage_and_membership_changes_are_classified() {
        let cfg = CompareConfig::default();
        let mut broken = point("c|t=1", 1000.0, 0.0);
        let base =
            trajectory(vec![point("a|t=1", 1000.0, 0.0), broken.clone(), point("d|t=1", 1.0, 0.0)]);
        broken.status = "degraded".to_string();
        broken.median = None;
        broken.min = None;
        broken.max = None;
        broken.spread = None;
        broken.samples = 0;
        let cur = trajectory(vec![point("a|t=1", 1200.0, 0.0), broken, point("e|t=1", 50.0, 0.0)]);
        let out = compare(&base, &cur, &cfg);
        assert_eq!(out.improvements.len(), 1, "a sped up 20%");
        assert_eq!(out.broken, vec!["c|t=1"]);
        assert_eq!(out.missing, vec!["d|t=1"]);
        assert_eq!(out.added, vec!["e|t=1"]);
        assert!(out.regressed(), "breakage and loss fail the compare");
        let report = compare_report(&out);
        assert_eq!(report.value("compare", "verdict").unwrap().as_str(), Some("REGRESSED"));
        assert!(report.table("broken").is_some());
    }

    #[test]
    fn identical_trajectories_pass() {
        let t = trajectory(vec![point("a|t=1", 1000.0, 0.02)]);
        let out = compare(&t, &t, &CompareConfig::default());
        assert!(!out.regressed());
        assert_eq!(out.unchanged, 1);
        let report = compare_report(&out);
        assert_eq!(report.value("compare", "verdict").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn deeply_nested_documents_are_errors_not_stack_overflows() {
        let err = Trajectory::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let doc = format!("{{\"bench\":\"fleet\",\"points\":{}}}", "[".repeat(100_000));
        assert!(Trajectory::parse(&doc).is_err());
    }
}
