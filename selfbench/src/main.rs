//! The suite's self-benchmark: one command that runs a workload end to end
//! (or, with `--trace 1`, per layer), checks the outputs, and prints every
//! metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path selfbench/Cargo.toml -- \
//!     --workload fleet_sweep --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads, metrics and their bounds are declared in `BENCHMARK.json` at
//! the repository root; the binary embeds that file and refuses to report
//! a metric set that differs from it. Stdout carries one line per metric,
//! then a JSON record with the host (`nproc`), compiler and commit, and
//! last a JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. A failed correctness gate exits with status 1.

mod daemon_sessions;
mod fleet_sweep;
mod harness;
mod heap;
mod layers;
mod stats;
mod table2;

use likwid_daemon::jsonv::{obj, JsonValue};

use harness::{Args, Metric, Outcome};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The benchmark declaration, embedded at build time.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric the declaration lists under `section`
/// (`end_to_end` or `per_layer`), or of every workload (unit empty) for
/// `workloads`.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = JsonValue::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get(section)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json: no {section}"))?;
    entries
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(JsonValue::as_str);
            let unit = entry.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            name.map(|name| (name.to_string(), unit.to_string()))
                .ok_or(format!("BENCHMARK.json: {section} entry without a name"))
        })
        .collect()
}

/// The reported metrics must be exactly the declared ones, with the
/// declared units, well-formed names and finite values.
fn check_metrics(metrics: &[Metric], declared: &[(String, String)]) -> Result<(), String> {
    for metric in metrics {
        if !stats::valid_metric_name(&metric.name) {
            return Err(format!("malformed metric name '{}'", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("{} is not finite ({})", metric.name, metric.value));
        }
        match declared.iter().find(|(name, _)| *name == metric.name) {
            None => return Err(format!("{} is not declared in BENCHMARK.json", metric.name)),
            Some((_, unit)) if unit != metric.unit => {
                return Err(format!(
                    "{} is declared in {unit}, reported in {}",
                    metric.name, metric.unit
                ))
            }
            Some(_) => {}
        }
    }
    for (name, _) in declared {
        match metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            0 => return Err(format!("{name} was not reported")),
            _ => return Err(format!("{name} was reported twice")),
        }
    }
    Ok(())
}

fn metrics_json(metrics: &[Metric], with_notes: bool) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", JsonValue::Num(m.value)),
                    ("unit", JsonValue::Str(m.unit.into())),
                ];
                if with_notes && !m.note.is_empty() {
                    fields.push(("note", JsonValue::Str(m.note.clone())));
                }
                (m.name.clone(), obj(fields))
            })
            .collect(),
    )
}

/// The provenance record: what ran, where, built from what.
fn record(args: &Args, outcome: &Outcome) -> JsonValue {
    let nproc = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0);
    obj(vec![
        ("record", JsonValue::Str("likwid-selfbench/v1".into())),
        ("workload", JsonValue::Str(args.workload.clone())),
        ("seed", JsonValue::UInt(args.seed)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("nproc", JsonValue::UInt(nproc)),
        ("rustc", JsonValue::Str(env!("SELFBENCH_RUSTC").into())),
        ("commit", JsonValue::Str(env!("SELFBENCH_COMMIT").into())),
        ("failed_ratio", JsonValue::Num(outcome.tally.failed_ratio())),
        (
            "violations",
            JsonValue::Arr(outcome.violations.iter().map(|v| JsonValue::Str(v.clone())).collect()),
        ),
        ("metrics", metrics_json(&outcome.metrics, true)),
    ])
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !declared("workloads")?.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    let outcome = match args.workload.as_str() {
        "fleet_sweep" => fleet_sweep::run(args)?,
        "daemon_sessions" => daemon_sessions::run(args)?,
        other => return Err(format!("workload '{other}' is declared but not implemented")),
    };
    check_metrics(
        &outcome.metrics,
        &declared(if args.trace { "per_layer" } else { "end_to_end" })?,
    )?;
    Ok(outcome)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("selfbench: {e}");
        eprintln!("usage: selfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
        std::process::exit(2);
    });
    let outcome = run(&args).unwrap_or_else(|e| {
        eprintln!("selfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });

    for m in &outcome.metrics {
        println!("{:<34} {:>16} {:<6} {}", m.name, format!("{:.6}", m.value), m.unit, m.note);
    }
    println!(
        "{:<34} {:>16} of {} operations",
        "failed", outcome.tally.failed, outcome.tally.attempted
    );
    for violation in &outcome.violations {
        eprintln!("selfbench: {}: correctness gate failed: {violation}", args.workload);
    }
    println!("{}", record(&args, &outcome).encode());
    let correct = outcome.violations.is_empty();
    let result = obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(outcome.tally.attempted)),
        ("failed", JsonValue::UInt(outcome.tally.failed)),
        ("metrics", metrics_json(&outcome.metrics, false)),
    ]);
    println!("{}", result.encode());
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declaration_is_well_formed() {
        let workloads = declared("workloads").unwrap();
        let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["fleet_sweep", "daemon_sessions"]);
        for section in ["end_to_end", "per_layer"] {
            let metrics = declared(section).unwrap();
            assert!(!metrics.is_empty(), "{section}");
            for (name, unit) in &metrics {
                assert!(stats::valid_metric_name(name), "{section}: {name}");
                assert!(!unit.is_empty(), "{section}: {name} has no unit");
            }
        }
        let e2e = declared("end_to_end").unwrap();
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
    }

    #[test]
    fn reported_metrics_must_match_the_declaration() {
        let declared =
            vec![("a_s".to_string(), "s".to_string()), ("b".to_string(), "count".to_string())];
        let ok = [Metric::new("a_s", 1.0, "s"), Metric::new("b", 2.0, "count")];
        assert!(check_metrics(&ok, &declared).is_ok());
        assert!(check_metrics(&ok[..1], &declared).unwrap_err().contains("b was not reported"));
        let wrong_unit = [Metric::new("a_s", 1.0, "ms"), Metric::new("b", 2.0, "count")];
        assert!(check_metrics(&wrong_unit, &declared).is_err());
        let extra = [ok[0].clone(), ok[1].clone(), Metric::new("c", 1.0, "s")];
        assert!(check_metrics(&extra, &declared).is_err());
        let nan = [Metric::new("a_s", f64::NAN, "s"), ok[1].clone()];
        assert!(check_metrics(&nan, &declared).is_err());
        let bad_name = [Metric::new("a s", 1.0, "s")];
        assert!(check_metrics(&bad_name, &declared).unwrap_err().contains("malformed"));
    }

    #[test]
    fn args_parse_the_driver_flags() {
        let argv: Vec<String> =
            ["--workload", "fleet_sweep", "--seed", "7", "--seconds", "3", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let args = Args::parse(&argv).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("fleet_sweep", 7, 3.0, true)
        );
        let bad: Vec<String> = ["--trace", "2"].iter().map(|s| s.to_string()).collect();
        assert!(Args::parse(&bad).is_err());
    }
}
