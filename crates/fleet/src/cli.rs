//! The `likwid-fleet` command line: `run` / `compare` / `ls`.
//!
//! `run` expands the sweep named by the axis flags, executes it (work
//! stealing, optional memoization) and renders the deterministic
//! cross-point report; execution statistics go to stderr so stdout stays
//! byte-identical between cold and warm runs. `compare` diffs two
//! trajectory files and exits nonzero on regression. `ls` lists the memo
//! store of the active code epoch.

use std::fs;

use likwid::{ArgSpec, LikwidError, ParsedArgs, Result};
use likwid_workloads::openmp::CompilerPersonality;
use likwid_workloads::parse_size;
use likwid_x86_machine::MachinePreset;

use crate::memo::MemoStore;
use crate::report::fleet_report;
use crate::sched::{default_workers, run_sweep, RunOptions};
use crate::spec::{PlacementAxis, PrefetcherState, SeedRule, SweepSpec, ThreadsAxis, WorkloadSpec};
use crate::trajectory::{compare, compare_report, CompareConfig, Trajectory};

/// Exit code of a `compare` that found regressions.
pub const EXIT_REGRESSED: i32 = 2;

/// The argument specification of `likwid-fleet`.
pub fn fleet_spec() -> ArgSpec {
    let spec = ArgSpec::new(
        "likwid-fleet",
        "experiment fleet runner: parallel matrix sweeps with memoization and regression tracking",
    )
    .machine_flag()
    .flag(
        "-t",
        None,
        Some("kernels"),
        "workload axis: kernel names, or 'stream' for the paper's OpenMP triad",
    )
    .flag("-b", None, Some("size"), "working set per kernel (e.g. 16MB; default 16MB)")
    .flag(
        "-p",
        None,
        Some("placements"),
        "placement axis: unpinned, scatter, kmp-scatter, pin:0.1.2",
    )
    .flag("-C", None, Some("compilers"), "compiler personality axis: icc, gcc")
    .flag("-F", None, Some("states"), "prefetcher axis: on, off")
    .flag("-N", None, Some("threads"), "thread-count axis: comma list, or 'all' for 1..=hw threads")
    .flag("-n", None, Some("samples"), "samples per point (default 1)")
    .flag("-g", None, Some("group|EVENT:CTR,..."), "measure this event group on every point")
    .flag("-T", None, Some("interval"), "timeline mode with this interval on every point")
    .flag("--seed", None, Some("n"), "base seed; each point runs at seed^threads (default 0)")
    .flag("-W", Some("--workers"), Some("n"), "scheduler worker threads")
    .flag("--store", None, Some("dir"), "memoize results in this store; re-runs replay for free")
    .flag("--epoch", None, Some("tag"), "override the memo code-epoch tag")
    .flag("--trajectory", None, Some("file"), "also write the machine-readable trajectory here")
    .flag(
        "--threshold",
        None,
        Some("rel"),
        "compare: minimum relative change to flag (default 0.05)",
    )
    .flag(
        "--inject",
        None,
        Some("spec"),
        "arm this fault plan on every point (disables memoization)",
    );
    likwid::trace::trace_flag(spec)
        .positional("command", "run (default) | compare BASELINE CURRENT | ls", true)
        .note(likwid::perfctr::multiplex_note())
        .note(
            "The axis flags take comma-separated lists and sweep their cartesian product. \
         Reports are deterministic: a fully memoized re-run renders byte-identical output \
         (execution statistics go to stderr).",
        )
}

fn split_list(text: &str) -> Vec<&str> {
    text.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
}

fn parse_presets(parsed: &ParsedArgs) -> Result<Vec<MachinePreset>> {
    let text = parsed.value("-M").unwrap_or("core2-quad");
    split_list(text)
        .into_iter()
        .map(|id| {
            MachinePreset::from_id(id)
                .ok_or_else(|| LikwidError::Usage(format!("unknown machine preset '{id}'")))
        })
        .collect()
}

fn parse_workloads(parsed: &ParsedArgs) -> Result<Vec<WorkloadSpec>> {
    let bytes = match parsed.value("-b") {
        Some(text) => parse_size(text)
            .ok_or_else(|| LikwidError::Usage(format!("-b: cannot parse size '{text}'")))?,
        None => 16 << 20,
    };
    split_list(parsed.value("-t").unwrap_or("triad"))
        .into_iter()
        .map(|name| {
            Ok(if name == "stream" {
                WorkloadSpec::StreamTriad
            } else {
                WorkloadSpec::Kernel { name: name.to_string(), working_set_bytes: bytes, passes: 1 }
            })
        })
        .collect()
}

fn parse_placements(parsed: &ParsedArgs) -> Result<Vec<PlacementAxis>> {
    let Some(text) = parsed.value("-p") else { return Ok(vec![PlacementAxis::Scatter]) };
    split_list(text)
        .into_iter()
        .map(|token| match token {
            "unpinned" => Ok(PlacementAxis::Unpinned),
            "scatter" => Ok(PlacementAxis::Scatter),
            "kmp-scatter" => Ok(PlacementAxis::KmpScatter),
            _ => match token.strip_prefix("pin:") {
                Some(list) => list
                    .split('.')
                    .map(|c| {
                        c.parse::<usize>().map_err(|_| {
                            LikwidError::Usage(format!("-p: bad cpu '{c}' in '{token}'"))
                        })
                    })
                    .collect::<Result<Vec<usize>>>()
                    .map(PlacementAxis::Pin),
                None => Err(LikwidError::Usage(format!(
                    "-p: unknown placement '{token}' (unpinned, scatter, kmp-scatter, pin:0.1.2)"
                ))),
            },
        })
        .collect()
}

fn parse_personalities(parsed: &ParsedArgs) -> Result<Vec<CompilerPersonality>> {
    let Some(text) = parsed.value("-C") else { return Ok(Vec::new()) };
    split_list(text)
        .into_iter()
        .map(|token| match token {
            "icc" => Ok(CompilerPersonality::IntelIcc),
            "gcc" => Ok(CompilerPersonality::Gcc),
            _ => Err(LikwidError::Usage(format!("-C: unknown compiler '{token}' (icc, gcc)"))),
        })
        .collect()
}

fn parse_prefetchers(parsed: &ParsedArgs) -> Result<Vec<PrefetcherState>> {
    let Some(text) = parsed.value("-F") else { return Ok(Vec::new()) };
    split_list(text)
        .into_iter()
        .map(|token| match token {
            "on" => Ok(PrefetcherState::Enabled),
            "off" => Ok(PrefetcherState::Disabled),
            _ => {
                Err(LikwidError::Usage(format!("-F: unknown prefetcher state '{token}' (on, off)")))
            }
        })
        .collect()
}

fn parse_threads(parsed: &ParsedArgs) -> Result<ThreadsAxis> {
    match parsed.value("-N") {
        None | Some("all") => Ok(ThreadsAxis::AllHwThreads),
        Some(text) => split_list(text)
            .into_iter()
            .map(|t| {
                t.parse::<usize>()
                    .map_err(|_| LikwidError::Usage(format!("-N: bad thread count '{t}'")))
            })
            .collect::<Result<Vec<usize>>>()
            .map(ThreadsAxis::Counts),
    }
}

/// Build the sweep named by the axis flags.
pub fn sweep_from_args(parsed: &ParsedArgs) -> Result<SweepSpec> {
    let seed = match parsed.value("--seed") {
        Some(text) => text
            .parse::<u64>()
            .map_err(|_| LikwidError::Usage(format!("--seed: bad seed '{text}'")))?,
        None => 0,
    };
    Ok(SweepSpec {
        workloads: parse_workloads(parsed)?,
        presets: parse_presets(parsed)?,
        personalities: parse_personalities(parsed)?,
        placements: parse_placements(parsed)?,
        prefetchers: parse_prefetchers(parsed)?,
        threads: parse_threads(parsed)?,
        samples: parsed.count("-n", 1)?,
        seed: SeedRule::XorThreads(seed),
        counters: parsed.value("-g").map(str::to_string),
        timeline: parsed.interval("-T")?,
        inject: parsed.value("--inject").map(str::to_string),
        filters: Vec::new(),
    })
}

fn memo_from_args(parsed: &ParsedArgs) -> Option<MemoStore> {
    parsed.value("--store").map(|root| MemoStore::open(root, parsed.value("--epoch")))
}

fn run_command(parsed: &ParsedArgs) -> Result<i32> {
    let trace_sink = likwid::trace::begin_cli(parsed)?;
    let sweep = sweep_from_args(parsed)?;
    let store = memo_from_args(parsed);
    let opts = RunOptions {
        workers: parsed.count("-W", default_workers())?,
        memo: store.as_ref(),
        daemons: &[],
    };
    let outcome = run_sweep(&sweep, &opts)?;
    if let Some(sink) = trace_sink {
        sink.finish()?;
    }
    let target = parsed.output()?;
    target
        .write(&target.format.render(&fleet_report(&sweep, &outcome)))
        .map_err(|e| LikwidError::Output(format!("cannot write output: {e}")))?;
    if let Some(path) = parsed.value("--trajectory") {
        fs::write(path, Trajectory::from_outcome(&outcome).encode())
            .map_err(|e| LikwidError::Output(format!("cannot write '{path}': {e}")))?;
    }
    eprintln!("{}", outcome.stats.summary_line());
    Ok(0)
}

fn compare_command(parsed: &ParsedArgs) -> Result<i32> {
    let [_, baseline_path, current_path] = parsed.positionals() else {
        return Err(LikwidError::Usage(
            "compare takes exactly two trajectory files: compare BASELINE CURRENT".into(),
        ));
    };
    let read = |path: &String| -> Result<Trajectory> {
        let text = fs::read_to_string(path)
            .map_err(|e| LikwidError::Usage(format!("cannot read '{path}': {e}")))?;
        Trajectory::parse(&text).map_err(|e| LikwidError::Usage(format!("{path}: {e}")))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let mut cfg = CompareConfig::default();
    if let Some(text) = parsed.value("--threshold") {
        cfg.min_rel = text
            .parse::<f64>()
            .map_err(|_| LikwidError::Usage(format!("--threshold: bad ratio '{text}'")))?;
    }
    let outcome = compare(&baseline, &current, &cfg);
    let target = parsed.output()?;
    target
        .write(&target.format.render(&compare_report(&outcome)))
        .map_err(|e| LikwidError::Output(format!("cannot write output: {e}")))?;
    Ok(if outcome.regressed() { EXIT_REGRESSED } else { 0 })
}

fn ls_command(parsed: &ParsedArgs) -> Result<i32> {
    let store = memo_from_args(parsed)
        .ok_or_else(|| LikwidError::Usage("ls requires --store <dir>".into()))?;
    let entries = store.entries();
    let mut report = likwid::Report::new("likwid-fleet ls");
    let mut table = likwid::report::Table::bordered(vec!["digest", "point"]);
    for (digest, key) in &entries {
        table.push(likwid::report::Row::new(vec![
            likwid::report::Value::Str(digest.clone()),
            likwid::report::Value::Str(key.clone()),
        ]));
    }
    report.push(
        likwid::report::Section::new("memo", likwid::report::Body::Table(table)).with_heading(
            format!("Memo store {} (epoch {})", store.root().display(), store.epoch()),
        ),
    );
    let target = parsed.output()?;
    target
        .write(&target.format.render(&report))
        .map_err(|e| LikwidError::Output(format!("cannot write output: {e}")))?;
    Ok(0)
}

/// The full front end: parse, dispatch, render. Returns the process exit
/// code (0 ok, 1 usage/harness error, [`EXIT_REGRESSED`] on a failed
/// compare).
pub fn fleet_main(args: &[String]) -> i32 {
    let spec = fleet_spec();
    let dispatch = || -> Result<i32> {
        let parsed = spec.parse(args)?;
        if parsed.help_requested() {
            print!("{}", spec.help_text());
            return Ok(0);
        }
        match parsed.positionals().first().map(String::as_str) {
            None | Some("run") => run_command(&parsed),
            Some("compare") => compare_command(&parsed),
            Some("ls") => ls_command(&parsed),
            Some(other) => {
                Err(LikwidError::Usage(format!("unknown command '{other}' (run, compare, ls)")))
            }
        }
    };
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("likwid-fleet: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn axis_flags_build_the_sweep() {
        let parsed = fleet_spec()
            .parse(&args(&[
                "run",
                "-t",
                "triad,copy",
                "-M",
                "core2-quad,atom",
                "-p",
                "scatter,unpinned",
                "-C",
                "icc,gcc",
                "-F",
                "on,off",
                "-N",
                "1,2",
                "-n",
                "3",
                "--seed",
                "7",
            ]))
            .unwrap();
        let sweep = sweep_from_args(&parsed).unwrap();
        assert_eq!(sweep.workloads.len(), 2);
        assert_eq!(sweep.presets, vec![MachinePreset::Core2Quad, MachinePreset::Atom]);
        assert_eq!(sweep.personalities.len(), 2);
        assert_eq!(sweep.placements, vec![PlacementAxis::Scatter, PlacementAxis::Unpinned]);
        assert_eq!(sweep.prefetchers.len(), 2);
        assert_eq!(sweep.threads, ThreadsAxis::Counts(vec![1, 2]));
        assert_eq!(sweep.samples, 3);
        assert_eq!(sweep.seed, SeedRule::XorThreads(7));
        // 2 workloads x 2 presets x 2 personalities x 2 placements x 2 pf x 2 threads
        assert_eq!(sweep.expand().unwrap().len(), 64);
    }

    #[test]
    fn bad_axis_values_are_usage_errors() {
        for bad in [
            vec!["run", "-M", "cray-1"],
            vec!["run", "-p", "sideways"],
            vec!["run", "-C", "fortran"],
            vec!["run", "-F", "maybe"],
            vec!["run", "-N", "two"],
            vec!["run", "-n", "0"],
            vec!["run", "-b", "a-lot"],
        ] {
            let parsed = fleet_spec().parse(&args(&bad)).unwrap();
            assert!(sweep_from_args(&parsed).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn help_names_the_subcommands_and_the_multiplex_rule() {
        let help = fleet_spec().help_text();
        assert!(help.contains("compare BASELINE CURRENT"));
        assert!(help.contains("multiplex"));
        assert!(help.contains("--store"));
    }

    #[test]
    fn stream_spelling_selects_the_paper_triad() {
        let parsed = fleet_spec().parse(&args(&["run", "-t", "stream"])).unwrap();
        let sweep = sweep_from_args(&parsed).unwrap();
        assert_eq!(sweep.workloads, vec![WorkloadSpec::StreamTriad]);
    }
}
