//! What every workload shares: the run configuration, metric records, the
//! timed and traced pass loops, seeded shuffling and scratch directories.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use likwid::trace;

use crate::stats::{self, Tally};

/// How often a run repeats its set-up before the measured passes;
/// `setup_s` is the median. (`fleet_sweep` also sets up once per pass.)
pub const SETUP_REPS: usize = 51;

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds '{value}'"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got '{value}'"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// How the value was obtained (percentile, sample count), for humans.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit, note: String::new() }
    }

    /// Attach a note.
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What a run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Correctness gates that did not hold.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Record a correctness gate; a violation repeated by later operations
    /// is kept once.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            let violation = what();
            if !self.violations.contains(&violation) {
                self.violations.push(violation);
            }
        }
    }
}

/// Wall time of `f` in seconds, next to its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median wall time of `reps` calls of `f`, next to the last result.
pub fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, wall) = timed(&mut f);
        walls.push(wall);
        last = Some(value);
    }
    (last.expect("reps >= 1"), stats::median(&walls).expect("reps >= 1"))
}

/// Median wall time per call of `f` over `reps` timed batches of `inner`
/// calls each, in seconds per call.
pub fn per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let inner = inner.max(1);
    median_of(reps, || (0..inner).for_each(|_| f())).1 / inner as f64
}

/// Run `op` on every item from `threads` threads, each taking the next
/// item in order as soon as it is free; returns every result with its
/// latency, in item order.
pub fn on_threads<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    op: impl Fn(&T) -> R + Sync,
) -> Vec<(R, f64)> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, f64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let done = timed(|| op(item));
                *slots[i].lock().expect("no thread panics holding a slot") = Some(done);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("every item ran"))
        .collect()
}

/// The end-to-end measurements of one untraced run, before reduction.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall time of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of each measured pass over the workload's operation set.
    pub pass_s: Vec<f64>,
    /// Report the fastest pass as `wall_s` instead of the median one.
    pub fastest_pass: bool,
    /// Latency samples of the completed operations.
    pub op_latency_s: Vec<f64>,
    /// What one latency sample is, for the notes (`ops` when empty).
    pub latency_sample: String,
    /// Operations completed in the measured passes.
    pub ops: u64,
    /// Peak live heap in MB after the set-up and the warm-up pass: the
    /// program's own high-water mark, before the benchmark's latency
    /// records grow with the run.
    pub peak_heap_mb: f64,
    /// The fewest latency samples a run of the workload can take. The tail
    /// percentile is chosen from this count, not from the run's, so it
    /// stays the same percentile however fast the host is.
    pub min_ops: usize,
}

/// Reduce the timings to the end-to-end metrics every workload reports.
/// `ops_per_s` is the operations of an average pass over `wall_s`.
pub fn end_to_end(t: &Timings) -> Result<Vec<Metric>, String> {
    let setup = stats::median(&t.setup_s).ok_or("no set-up was timed")?;
    let passes = t.pass_s.len();
    let median_pass = stats::median(&t.pass_s).ok_or("no pass was timed")?;
    let wall = if t.fastest_pass {
        t.pass_s.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        median_pass
    };
    let ops_per_pass = t.ops as f64 / passes as f64;
    let n = t.op_latency_s.len();
    let sample = if t.latency_sample.is_empty() { "ops" } else { t.latency_sample.as_str() };
    let p50 = stats::percentile(&t.op_latency_s, 50.0).ok_or("no operation completed")?;
    let tail_p = stats::tail_percentile(t.min_ops.min(n))
        .ok_or_else(|| format!("{n} operations are too few for a tail percentile"))?;
    let tail = stats::percentile(&t.op_latency_s, tail_p).expect("n > 0");
    Ok(vec![
        Metric::new("setup_s", setup, "s").note(format!("median of {} set-ups", t.setup_s.len())),
        Metric::new("wall_s", wall, "s").note(format!(
            "{} of {passes} passes; median pass {median_pass:.6} s, IQR/median {:.4}",
            if t.fastest_pass { "fastest" } else { "median" },
            stats::relative_spread(&t.pass_s).unwrap_or(0.0)
        )),
        Metric::new("ops_per_s", ops_per_pass / wall, "1/s")
            .note(format!("{ops_per_pass:.1} ops per pass over wall_s, {} ops in all", t.ops)),
        Metric::new("op_p50_ms", p50 * 1e3, "ms").note(format!("p50 of {n} {sample}")),
        Metric::new("op_tail_ms", tail * 1e3, "ms").note(format!(
            "p{tail_p} of {n} {sample} ({} beyond); p99 {:.6} ms",
            n - stats::nearest_rank(n, tail_p).expect("n > 0"),
            stats::percentile(&t.op_latency_s, 99.0).expect("n > 0") * 1e3
        )),
        Metric::new("peak_heap_mb", t.peak_heap_mb, "MB").note(format!(
            "peak live heap over set-up and warm-up; VmHWM of the run {:.1} MB",
            peak_rss_mb()?
        )),
    ])
}

/// Run `pass` until at least `seconds` have elapsed and at least
/// `min_passes` passes completed. Each pass returns the wall time it
/// measured (so it can leave its own preparation and checks untimed);
/// the walls are returned in order.
pub fn pass_loop(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let wall = pass()?;
        eprintln!("pass {} at {:.3} s: {wall:.6} s", walls.len(), start.elapsed().as_secs_f64());
        walls.push(wall);
    }
    Ok(walls)
}

/// Tracing overhead of one workload: alternate untraced and traced passes
/// for about `seconds`, and compare the medians. Each pass returns its
/// measured wall time, as in [`pass_loop`]. Returns the metrics
/// `trace.overhead_ratio` and `trace.events` (events recorded per traced
/// pass).
pub fn trace_overhead(
    seconds: f64,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<Metric>, String> {
    let start = Instant::now();
    let (mut plain, mut traced, mut events) = (Vec::new(), Vec::new(), 0usize);
    while plain.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        plain.push(pass()?);
        trace::start();
        let wall = pass();
        events += trace::stop().len();
        traced.push(wall?);
    }
    let (traced_s, plain_s) = (stats::median(&traced), stats::median(&plain));
    let (traced_s, plain_s) = (traced_s.expect("passes ran"), plain_s.expect("passes ran"));
    Ok(vec![
        Metric::new("trace.overhead_ratio", traced_s / plain_s, "ratio").note(format!(
            "median pass {traced_s:.6} s traced / {plain_s:.6} s untraced (wall_s), {} pairs",
            plain.len()
        )),
        Metric::new("trace.events", (events / traced.len()) as f64, "count")
            .note("events recorded per traced pass"),
    ])
}

/// A splitmix64 stream: the benchmark's only source of randomness, so one
/// seed fixes every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, domain-separated by `salt`.
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        SplitMix(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// removed on drop. Paths stay relative, so a socket inside one stays
/// within the platform's socket-path limit wherever the checkout lives.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create a fresh, empty directory.
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".bench_tmp").join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself only when other runs still use it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Sum of the sizes of the regular files below `dir`.
pub fn tree_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => tree_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
