//! The work-stealing parallel scheduler.
//!
//! Points are dealt round-robin onto per-worker deques; each worker drains
//! its own queue from the front and steals from the back of its siblings
//! when idle, so a straggler point (a 24-thread STREAM sweep next to a
//! 1-thread one) never serializes the tail of the sweep. Results land in
//! expansion-order slots, so the outcome — and everything rendered from it
//! — is byte-identical whatever the worker count or steal order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use likwid::trace;
use likwid_daemon::Daemon;

use crate::memo::MemoStore;
use crate::point::{execute, PointOutcome};
use crate::spec::{ExperimentPoint, SweepSpec};

/// Execution counters of one sweep. Kept out of the deterministic report:
/// the CLI prints them to stderr, so stdout stays byte-identical between
/// cold and fully memoized runs. The counts are the structured source of
/// truth — the stderr line is derived from them by `RunStats::summary_line`,
/// and the same quantities flow into the trace recorder as named counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Points in the expanded sweep.
    pub total: usize,
    /// Points actually executed.
    pub executed: usize,
    /// Points answered from the memo store.
    pub memo_hits: usize,
    /// Points that ended in a [`crate::PointError`].
    pub errors: usize,
    /// Successful steals (a worker took a point from a sibling's queue).
    pub steals: usize,
    /// Points completed per worker (hit or executed), worker-indexed.
    pub per_worker: Vec<usize>,
}

impl RunStats {
    /// The human execution summary the CLI prints to stderr — derived from
    /// the structured counts, never the other way round.
    pub(crate) fn summary_line(&self) -> String {
        let mut line = format!(
            "likwid-fleet: {} points, {} executed, {} memo hits, {} errors",
            self.total, self.executed, self.memo_hits, self.errors
        );
        if self.per_worker.len() > 1 {
            let occupancy: Vec<String> =
                self.per_worker.iter().map(|points| points.to_string()).collect();
            line.push_str(&format!(
                ", {} steals, points/worker [{}]",
                self.steals,
                occupancy.join(" ")
            ));
        }
        line
    }
}

/// How a sweep runs.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// Worker threads (clamped to at least 1 and at most the point count).
    pub workers: usize,
    /// Optional memo store consulted before and filled after execution.
    pub memo: Option<&'a MemoStore>,
    /// Shared measurement daemons; a timeline point whose preset matches a
    /// daemon's machine is measured through it.
    pub daemons: &'a [&'a Daemon<'a>],
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions { workers: default_workers(), memo: None, daemons: &[] }
    }
}

/// The default worker count: available parallelism, capped at 8.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
}

/// A completed sweep: every point with its outcome, in expansion order.
#[derive(Debug)]
pub struct SweepOutcome {
    /// `(point, outcome)` pairs, expansion-ordered.
    pub points: Vec<(ExperimentPoint, PointOutcome)>,
    /// Execution counters.
    pub stats: RunStats,
}

/// Expand and execute a sweep. Only the expansion can fail (malformed
/// spec); point-level failures are typed outcomes inside the result.
pub fn run_sweep(spec: &SweepSpec, opts: &RunOptions<'_>) -> likwid::Result<SweepOutcome> {
    let points = spec.expand()?;
    let total = points.len();
    let workers = opts.workers.clamp(1, total.max(1));

    // Deal the points round-robin; stealing rebalances whatever this
    // initial split got wrong.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, queue) in (0..total).zip((0..workers).cycle()) {
        queues[queue].lock().unwrap().push_back(index);
    }

    let slots: Vec<Mutex<Option<PointOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let executed = AtomicUsize::new(0);
    let memo_hits = AtomicUsize::new(0);
    let steals = AtomicUsize::new(0);
    let per_worker: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();

    let _sweep = trace::span_args(
        trace::cat::FLEET,
        || "sweep".to_string(),
        || vec![("points", total.to_string()), ("workers", workers.to_string())],
    );
    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let points = &points;
            let executed = &executed;
            let memo_hits = &memo_hits;
            let steals = &steals;
            let per_worker = &per_worker;
            scope.spawn(move || {
                let worker_span = trace::span_with(trace::cat::FLEET, || format!("worker{me}"));
                loop {
                    let index = {
                        let own = queues[me].lock().unwrap().pop_front();
                        match own {
                            Some(i) => Some(i),
                            // Steal from the *back* of a sibling: the oldest
                            // undone work, farthest from what the owner is on.
                            None => {
                                (0..queues.len()).filter(|&other| other != me).find_map(|other| {
                                    let stolen = queues[other].lock().unwrap().pop_back();
                                    if let Some(index) = stolen {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        trace::count(trace::cat::FLEET, "steals", 1);
                                        trace::instant_args(trace::cat::FLEET, "steal", || {
                                            vec![
                                                ("thief", me.to_string()),
                                                ("victim", other.to_string()),
                                                ("point", index.to_string()),
                                            ]
                                        });
                                    }
                                    stolen
                                })
                            }
                        }
                    };
                    let Some(index) = index else { break };
                    let point = &points[index];
                    let started = trace::now();
                    let memoizable = point.inject.is_none();
                    let memoized = match opts.memo {
                        Some(store) if memoizable => store.lookup(point),
                        _ => None,
                    };
                    let memo_hit = memoized.is_some();
                    let outcome = match memoized {
                        Some(result) => {
                            memo_hits.fetch_add(1, Ordering::Relaxed);
                            trace::count(trace::cat::FLEET, "memo_hit", 1);
                            Ok(result)
                        }
                        None => {
                            executed.fetch_add(1, Ordering::Relaxed);
                            trace::count(trace::cat::FLEET, "memo_miss", 1);
                            let outcome = execute(point, opts.daemons);
                            if let (Some(store), Ok(result), true) =
                                (opts.memo, outcome.as_ref(), memoizable)
                            {
                                if let Err(e) = store.store(point, result) {
                                    eprintln!(
                                        "likwid-fleet: memo write failed for {}: {e}",
                                        point.key()
                                    );
                                }
                            }
                            outcome
                        }
                    };
                    per_worker[me].fetch_add(1, Ordering::Relaxed);
                    trace::count_with(trace::cat::FLEET, || format!("worker{me}.points"), 1);
                    trace::complete_since(
                        trace::cat::FLEET,
                        started,
                        || "point".to_string(),
                        || {
                            vec![
                                ("index", index.to_string()),
                                ("key", point.key()),
                                ("memo", if memo_hit { "hit" } else { "miss" }.to_string()),
                                ("worker", me.to_string()),
                            ]
                        },
                    );
                    *slots[index].lock().unwrap() = Some(outcome);
                }
                // The scope unblocks when this closure returns — before the
                // thread-local trace buffer's exit-time flush. Hand the
                // buffer over explicitly (span closed first) so the last
                // worker's events cannot race the recorder's stop.
                drop(worker_span);
                trace::flush_thread();
            });
        }
    });

    let outcomes: Vec<PointOutcome> = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
        .collect();
    let errors = outcomes.iter().filter(|o| o.is_err()).count();
    Ok(SweepOutcome {
        stats: RunStats {
            total,
            executed: executed.into_inner(),
            memo_hits: memo_hits.into_inner(),
            errors,
            steals: steals.into_inner(),
            per_worker: per_worker.into_iter().map(AtomicUsize::into_inner).collect(),
        },
        points: points.into_iter().zip(outcomes).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlacementAxis, SeedRule, ThreadsAxis, WorkloadSpec};
    use likwid_x86_machine::MachinePreset;

    fn sweep() -> SweepSpec {
        let mut spec = SweepSpec::new(
            WorkloadSpec::Kernel { name: "copy".into(), working_set_bytes: 1 << 20, passes: 1 },
            MachinePreset::Core2Quad,
        );
        spec.threads = ThreadsAxis::Counts(vec![1, 2, 3, 4]);
        spec.samples = 2;
        spec.seed = SeedRule::XorThreads(21);
        spec
    }

    #[test]
    fn outcomes_are_expansion_ordered_for_any_worker_count() {
        let spec = sweep();
        let one = run_sweep(&spec, &RunOptions { workers: 1, ..Default::default() }).unwrap();
        let eight = run_sweep(&spec, &RunOptions { workers: 8, ..Default::default() }).unwrap();
        assert_eq!(one.stats.total, 4);
        assert_eq!(one.stats.executed, 4);
        assert_eq!(one.stats.errors, 0);
        let threads: Vec<usize> = one.points.iter().map(|(p, _)| p.threads).collect();
        assert_eq!(threads, vec![1, 2, 3, 4]);
        for ((pa, oa), (pb, ob)) in one.points.iter().zip(&eight.points) {
            assert_eq!(pa, pb);
            assert_eq!(oa, ob, "worker count must not change results");
        }
        // The structured occupancy counts always account for every point.
        assert_eq!(one.stats.per_worker, vec![4]);
        assert_eq!(one.stats.steals, 0, "one worker has nobody to steal from");
        assert_eq!(eight.stats.per_worker.len(), 4, "workers are clamped to the point count");
        assert_eq!(eight.stats.per_worker.iter().sum::<usize>(), 4);
    }

    #[test]
    fn the_stderr_summary_is_derived_from_the_structured_counts() {
        let stats = RunStats {
            total: 4,
            executed: 3,
            memo_hits: 1,
            errors: 0,
            steals: 2,
            per_worker: vec![3, 1],
        };
        assert_eq!(
            stats.summary_line(),
            "likwid-fleet: 4 points, 3 executed, 1 memo hits, 0 errors, \
             2 steals, points/worker [3 1]"
        );
        // Single-worker runs keep the historical short form.
        let serial = RunStats { per_worker: vec![4], total: 4, executed: 4, ..Default::default() };
        assert_eq!(
            serial.summary_line(),
            "likwid-fleet: 4 points, 4 executed, 0 memo hits, 0 errors"
        );
    }

    #[test]
    fn a_poisoned_point_never_kills_the_sweep() {
        let mut spec = sweep();
        spec.counters = Some("FLOPS_DP".into());
        spec.inject = Some("dead=3@5".into());
        spec.placements = vec![PlacementAxis::Pin(vec![3])];
        spec.threads = ThreadsAxis::Counts(vec![1]);
        let outcome = run_sweep(&spec, &RunOptions::default()).unwrap();
        assert_eq!(outcome.stats.total, 1);
        assert_eq!(outcome.stats.errors, 1);
        let err = outcome.points[0].1.as_ref().unwrap_err();
        assert_eq!(err.status(), "degraded");
    }
}
