//! Isolated execution of one experiment point.
//!
//! A sweep never dies with a point: [`execute`] catches panics, turns
//! harness errors into [`PointError::Failed`], and classifies runs whose
//! measurement session had to heal (fault injection, dead cpus) as
//! [`PointError::Degraded`] — degraded counters are not comparable across
//! a matrix, so the point is typed out instead of silently polluting the
//! pivot tables.

use std::panic::{catch_unwind, AssertUnwindSafe};

use likwid::json::JsonValue;
use likwid_daemon::Daemon;

use crate::spec::ExperimentPoint;

/// The distilled result of one point: everything the cross-point report
/// and the trajectory need, and nothing machine-sized (the memo store
/// serializes this).
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Per-sample reported bandwidths in MB/s.
    pub bandwidths: Vec<f64>,
    /// Modelled runtime of the measured sample (sample 0), seconds.
    pub runtime_s: f64,
    /// MFlops/s of the measured sample.
    pub mflops: f64,
    /// Kernel iterations of the measured sample.
    pub iterations: u64,
}

/// Why a point did not produce a comparable result. The sweep completes
/// either way; errored points are typed rows in the report.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The harness returned an error (bad spec, usage conflict).
    Failed(String),
    /// The workload or harness panicked; the payload is captured.
    Panicked(String),
    /// The run completed but the measurement session degraded (healing
    /// diagnostics present — dead cpus, stuck registers).
    Degraded(String),
}

impl PointError {
    /// Short status tag (`failed` / `panicked` / `degraded`), used in
    /// reports and trajectory files.
    pub fn status(&self) -> &'static str {
        match self {
            PointError::Failed(_) => "failed",
            PointError::Panicked(_) => "panicked",
            PointError::Degraded(_) => "degraded",
        }
    }

    /// The captured message.
    pub fn message(&self) -> &str {
        match self {
            PointError::Failed(m) | PointError::Panicked(m) | PointError::Degraded(m) => m,
        }
    }
}

/// What one point produced.
pub(crate) type PointOutcome = Result<PointResult, PointError>;

/// Run one point in isolation. Timeline points whose preset matches a
/// shared daemon's machine are measured through that daemon
/// ([`likwid_workloads::Experiment::via_daemon`]); everything else runs a
/// private machine. Panics and errors degrade to [`PointError`].
pub fn execute(point: &ExperimentPoint, daemons: &[&Daemon<'_>]) -> PointOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_point(point, daemons))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(PointError::Panicked(panic_message(payload))),
    }
}

fn run_point(point: &ExperimentPoint, daemons: &[&Daemon<'_>]) -> PointOutcome {
    let (exp, workload) = point.build().map_err(|e| PointError::Failed(e.to_string()))?;
    let daemon = if point.timeline.is_some() && point.counters.is_some() && point.inject.is_none() {
        daemons.iter().find(|d| d.machine().preset() == point.preset)
    } else {
        None
    };
    let result = match daemon {
        Some(d) => exp.via_daemon(workload.as_ref(), d),
        None => exp.run(workload.as_ref()),
    }
    .map_err(|e| PointError::Failed(e.to_string()))?;
    if let Some(counters) = &result.counters {
        if !counters.diagnostics.is_empty() {
            let first = &counters.diagnostics[0];
            return Err(PointError::Degraded(format!(
                "{} degradation(s); first: {}: {}",
                counters.diagnostics.len(),
                first.subject,
                first.reason
            )));
        }
    }
    let first = result.first();
    Ok(PointResult {
        runtime_s: first.runtime_s,
        mflops: first.mflops,
        iterations: first.iterations,
        bandwidths: result.bandwidths(),
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serialize a result for the memo store (lossless: the `likwid::json` codec
/// renders f64 shortest-round-trip).
pub(crate) fn result_to_json(result: &PointResult) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "bandwidths".to_string(),
            JsonValue::Arr(result.bandwidths.iter().map(|&b| JsonValue::real(b)).collect()),
        ),
        ("runtime_s".to_string(), JsonValue::real(result.runtime_s)),
        ("mflops".to_string(), JsonValue::real(result.mflops)),
        ("iterations".to_string(), JsonValue::UInt(result.iterations)),
    ])
}

/// Deserialize a memoized result; `None` on any shape mismatch (the
/// caller treats that as a cache miss).
pub(crate) fn result_from_json(value: &JsonValue) -> Option<PointResult> {
    let bandwidths = value
        .get("bandwidths")?
        .as_arr()?
        .iter()
        .map(|v| v.as_f64())
        .collect::<Option<Vec<_>>>()?;
    Some(PointResult {
        bandwidths,
        runtime_s: value.get("runtime_s")?.as_f64()?,
        mflops: value.get("mflops")?.as_f64()?,
        iterations: value.get("iterations")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SeedRule, SweepSpec, ThreadsAxis, WorkloadSpec};
    use likwid_x86_machine::MachinePreset;

    fn one_point() -> ExperimentPoint {
        let mut spec = SweepSpec::new(
            WorkloadSpec::Kernel { name: "copy".into(), working_set_bytes: 1 << 20, passes: 1 },
            MachinePreset::Core2Quad,
        );
        spec.threads = ThreadsAxis::Counts(vec![2]);
        spec.samples = 2;
        spec.seed = SeedRule::Fixed(3);
        spec.expand().unwrap().remove(0)
    }

    #[test]
    fn a_plain_point_executes_and_round_trips_through_json() {
        let result = execute(&one_point(), &[]).expect("counter-less point");
        assert_eq!(result.bandwidths.len(), 2);
        assert!(result.bandwidths[0] > 0.0);
        assert!(result.runtime_s > 0.0);
        let back = result_from_json(&result_to_json(&result)).expect("round trip");
        assert_eq!(back, result, "memo serialization must be lossless");
    }

    #[test]
    fn panics_degrade_to_a_typed_error() {
        let outcome = catch_unwind(AssertUnwindSafe(|| -> PointOutcome {
            panic!("boom in a workload");
        }))
        .unwrap_or_else(|payload| Err(PointError::Panicked(panic_message(payload))));
        let err = outcome.unwrap_err();
        assert_eq!(err.status(), "panicked");
        assert!(err.message().contains("boom"));
    }

    #[test]
    fn unknown_kernels_fail_not_panic() {
        let mut point = one_point();
        point.workload =
            WorkloadSpec::Kernel { name: "frobnicate".into(), working_set_bytes: 1, passes: 1 };
        let err = execute(&point, &[]).unwrap_err();
        assert_eq!(err.status(), "failed");
        assert!(err.message().contains("frobnicate"));
    }

    #[test]
    fn dead_cpu_fault_plans_mark_the_point_degraded() {
        let mut point = one_point();
        point.counters = Some("FLOPS_DP".into());
        point.inject = Some("dead=1@5".into());
        let err = execute(&point, &[]).unwrap_err();
        assert_eq!(err.status(), "degraded", "got {err:?}");
        assert!(err.message().contains("cpu"), "diagnostic names the cpu: {err:?}");
    }
}
