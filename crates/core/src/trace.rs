//! Process-wide self-observability: spans, counters and trace export.
//!
//! The suite has grown into a concurrent system — a ticket-arbitrated
//! measurement daemon, a work-stealing sweep scheduler, an epoch-classified
//! sharded cache simulator — and this module is the window into it. Like
//! the external-trigger live-monitoring path the tools themselves model,
//! the recorder must never perturb what it observes: every measurement
//! `Report` is byte-identical whether tracing is on or off, which the
//! observation-neutrality suite pins.
//!
//! # Recorder model
//!
//! A single process-wide recorder, off by default. When **disabled** (the
//! steady state), every instrumentation point is one relaxed atomic load
//! and an early return: no heap allocation, no lock, no time query. Span
//! names that need formatting are passed as closures so the `format!` only
//! runs when the recorder is live.
//!
//! When **enabled** (via [`start`] or the shared `--trace <file>` switch),
//! events buffer in a per-thread `Vec` (no cross-thread contention on the
//! hot path) and drain into a global sink when the thread exits or when
//! [`stop`] collects the trace. Real-time spans are stamped from one
//! process-wide monotonic epoch; subsystems with deterministic virtual
//! clocks (the timeline session) emit events on reserved *virtual tracks*
//! with their simulated timestamps, so those parts of a trace are
//! bit-reproducible run to run.
//!
//! # Export formats
//!
//! * [`chrome_json`] — Chrome trace-event JSON (`ph: B/E/X/C`), loadable in
//!   Perfetto / `chrome://tracing`. Each subsystem is a process
//!   (`pid` = crate), each recording thread a track (`tid` = worker);
//!   counters render as counter tracks.
//! * [`folded`] — folded-stacks text (`a;b;c <self-nanoseconds>`) for
//!   `flamegraph.pl` and friends.
//! * [`summary_report`] — span totals and counter sums as a typed
//!   [`Report`], so trace rollups ride the ASCII/CSV/JSON renderers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::args::{ArgSpec, ParsedArgs};
use crate::error::{LikwidError, Result};
use crate::report::{Body, KvEntry, OutputFormat, Report, Row, Section, Table, Value};

/// Subsystem categories; each maps to one trace "process".
pub mod cat {
    /// Core tools (perfctr sessions, timeline intervals).
    pub const CORE: &str = "core";
    /// The fleet sweep scheduler.
    pub const FLEET: &str = "fleet";
    /// The measurement daemon broker.
    pub const DAEMON: &str = "daemon";
    /// The sharded cache simulator.
    pub const CACHESIM: &str = "cachesim";
    /// Workload experiments.
    pub const WORKLOADS: &str = "workloads";
    /// The likwid-bench front end.
    pub const BENCH: &str = "bench";
}

/// `(category, pid, process name)` — the fixed crate→process mapping.
const PROCESSES: [(&str, u64, &str); 6] = [
    (cat::CORE, 1, "likwid-core"),
    (cat::FLEET, 2, "likwid-fleet"),
    (cat::DAEMON, 3, "likwid-daemon"),
    (cat::CACHESIM, 4, "likwid-cache-sim"),
    (cat::WORKLOADS, 5, "likwid-workloads"),
    (cat::BENCH, 6, "likwid-bench"),
];

fn process_of(category: &str) -> (u64, &'static str) {
    PROCESSES
        .iter()
        .find(|(c, _, _)| *c == category)
        .map(|&(_, pid, name)| (pid, name))
        .unwrap_or((0, "likwid"))
}

/// Virtual-clock events land on `VIRTUAL_TID_BASE + track` so they never
/// interleave with (wall-clocked) recording threads.
pub const VIRTUAL_TID_BASE: u64 = 10_000;

/// What one event is.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Span open (`ph: B`).
    Begin,
    /// Span close (`ph: E`).
    End,
    /// A complete span with explicit duration (`ph: X`).
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A named monotonic counter increment (`ph: C`; the writer emits the
    /// running total).
    Counter {
        /// The increment (deltas accumulate in timestamp order).
        delta: i64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Subsystem category (see [`cat`]); selects the trace process.
    pub cat: &'static str,
    /// Event / span / counter name.
    pub name: String,
    /// Timestamp in nanoseconds (process epoch, or virtual clock).
    pub ts_ns: u64,
    /// Track: 0 = "the recording thread" (resolved at buffer time).
    pub tid: u64,
    /// Event kind.
    pub phase: Phase,
    /// Key/value annotations (attached to `B`/`X` events).
    pub args: Vec<(&'static str, String)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct ThreadBuf {
    tid: u64,
    events: Vec<TraceEvent>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.events.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.append(&mut self.events);
            }
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

/// Whether the recorder is live. One relaxed load — the entire cost of
/// every instrumentation point while tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch.
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn record(mut event: TraceEvent) {
    let _ = BUF.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        if event.tid == 0 {
            event.tid = buf.tid;
        }
        buf.events.push(event);
    });
}

/// Start recording. Clears any previously buffered events in the global
/// sink, so a fresh [`stop`] returns only this recording.
pub fn start() {
    if let Ok(mut sink) = SINK.lock() {
        sink.clear();
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Hand the calling thread's buffered events to the global sink now.
///
/// [`stop`] collects the stopping thread's buffer and every exited
/// thread's; a long-lived worker (a persistent pool thread) that records
/// events must flush between jobs, or its events only surface when the
/// thread exits. No-op when the buffer is empty.
pub fn flush_thread() {
    let _ = BUF.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        if !buf.events.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.append(&mut buf.events);
            }
        }
    });
}

/// Stop recording and collect every buffered event, sorted by timestamp
/// (stable, so same-thread ordering — and `B`/`E` nesting — is preserved).
pub fn stop() -> Vec<TraceEvent> {
    ENABLED.store(false, Ordering::Relaxed);
    let _ = BUF.try_with(|buf| {
        let mut buf = buf.borrow_mut();
        if !buf.events.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                let events = &mut buf.events;
                sink.append(events);
            }
        }
    });
    let mut events = match SINK.lock() {
        Ok(mut sink) => std::mem::take(&mut *sink),
        Err(_) => Vec::new(),
    };
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// An RAII span guard: records `B` on creation (when enabled) and the
/// matching `E` on drop. Inert — and allocation-free — when tracing is off.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    cat: &'static str,
    live: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            record(TraceEvent {
                cat: self.cat,
                name: String::new(),
                ts_ns: now_ns(),
                tid: 0,
                phase: Phase::End,
                args: Vec::new(),
            });
        }
    }
}

/// Open a span with a static name.
#[inline]
pub fn span(category: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { cat: category, live: false };
    }
    span_begin(category, name.to_string(), Vec::new())
}

/// Open a span whose name is formatted only when tracing is enabled.
#[inline]
pub fn span_with(category: &'static str, name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { cat: category, live: false };
    }
    span_begin(category, name(), Vec::new())
}

/// Open a span with lazily-built name and annotations.
#[inline]
pub fn span_args(
    category: &'static str,
    name: impl FnOnce() -> String,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> Span {
    if !enabled() {
        return Span { cat: category, live: false };
    }
    span_begin(category, name(), args())
}

fn span_begin(category: &'static str, name: String, args: Vec<(&'static str, String)>) -> Span {
    record(TraceEvent { cat: category, name, ts_ns: now_ns(), tid: 0, phase: Phase::Begin, args });
    Span { cat: category, live: true }
}

/// Record an instantaneous event (a zero-duration `X` span).
#[inline]
pub fn instant(category: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        cat: category,
        name: name.to_string(),
        ts_ns: now_ns(),
        tid: 0,
        phase: Phase::Complete { dur_ns: 0 },
        args: Vec::new(),
    });
}

/// Record an instantaneous event with lazily-built annotations.
#[inline]
pub fn instant_args(
    category: &'static str,
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        cat: category,
        name: name.to_string(),
        ts_ns: now_ns(),
        tid: 0,
        phase: Phase::Complete { dur_ns: 0 },
        args: args(),
    });
}

/// Record a complete span from an earlier [`now`] stamp to now, with
/// lazily-built name and annotations.
#[inline]
pub fn complete_since(
    category: &'static str,
    start_ns: u64,
    name: impl FnOnce() -> String,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    let end = now_ns();
    record(TraceEvent {
        cat: category,
        name: name(),
        ts_ns: start_ns,
        tid: 0,
        phase: Phase::Complete { dur_ns: end.saturating_sub(start_ns) },
        args: args(),
    });
}

/// A wall-clock stamp for a later [`complete_since`]; 0 when disabled.
#[inline]
pub fn now() -> u64 {
    if !enabled() {
        return 0;
    }
    now_ns()
}

/// Record a complete span with explicit (virtual-clock) timestamps on a
/// reserved virtual track. Deterministic inputs give deterministic events.
#[inline]
pub fn complete_virtual(
    category: &'static str,
    track: u64,
    start_ns: u64,
    dur_ns: u64,
    name: impl FnOnce() -> String,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        cat: category,
        name: name(),
        ts_ns: start_ns,
        tid: VIRTUAL_TID_BASE + track,
        phase: Phase::Complete { dur_ns },
        args: args(),
    });
}

/// Bump a named monotonic counter.
#[inline]
pub fn count(category: &'static str, name: &'static str, delta: i64) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        cat: category,
        name: name.to_string(),
        ts_ns: now_ns(),
        tid: 0,
        phase: Phase::Counter { delta },
        args: Vec::new(),
    });
}

/// Bump a counter whose name is formatted only when tracing is enabled.
#[inline]
pub fn count_with(category: &'static str, name: impl FnOnce() -> String, delta: i64) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        cat: category,
        name: name(),
        ts_ns: now_ns(),
        tid: 0,
        phase: Phase::Counter { delta },
        args: Vec::new(),
    });
}

fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → the microsecond `ts`/`dur` fields of the trace format
/// (fractional when needed; f64 `Display` is shortest-round-trip).
fn micros(ns: u64) -> String {
    format!("{}", ns as f64 / 1000.0)
}

/// Render events as Chrome trace-event JSON (Perfetto-loadable).
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(events.len() + 16);
    // Metadata: name each used process and thread track.
    let mut pids: Vec<u64> = Vec::new();
    let mut tracks: Vec<(u64, u64)> = Vec::new();
    for e in events {
        let (pid, name) = process_of(e.cat);
        if !pids.contains(&pid) {
            pids.push(pid);
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ));
        }
        if !tracks.contains(&(pid, e.tid)) {
            tracks.push((pid, e.tid));
            let track = if e.tid >= VIRTUAL_TID_BASE {
                format!("virtual-{}", e.tid - VIRTUAL_TID_BASE)
            } else {
                format!("thread-{}", e.tid)
            };
            lines.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"name\":\"{track}\"}}}}",
                e.tid
            ));
        }
    }
    let mut totals: BTreeMap<(u64, String), i64> = BTreeMap::new();
    for e in events {
        let (pid, _) = process_of(e.cat);
        let common = format!(
            "\"cat\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{}",
            escape_json(e.cat),
            e.tid,
            micros(e.ts_ns)
        );
        let args_json = |args: &[(&'static str, String)]| {
            let body: Vec<String> = args
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
                .collect();
            body.join(",")
        };
        match &e.phase {
            Phase::Begin => {
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"B\",{common},\"args\":{{{}}}}}",
                    escape_json(&e.name),
                    args_json(&e.args)
                ));
            }
            Phase::End => {
                lines.push(format!("{{\"ph\":\"E\",{common}}}"));
            }
            Phase::Complete { dur_ns } => {
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",{common},\"dur\":{},\"args\":{{{}}}}}",
                    escape_json(&e.name),
                    micros(*dur_ns),
                    args_json(&e.args)
                ));
            }
            Phase::Counter { delta } => {
                let total = totals.entry((pid, e.name.clone())).or_insert(0);
                *total += delta;
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",{common},\"args\":{{\"value\":{}}}}}",
                    escape_json(&e.name),
                    *total
                ));
            }
        }
    }
    format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n", lines.join(","))
}

/// Render events as folded stacks (`proc;outer;inner <self-ns>` lines),
/// ready for `flamegraph.pl`. Self time is span duration minus enclosed
/// child time, walked per track; counters are skipped.
pub fn folded(events: &[TraceEvent]) -> String {
    let mut tracks: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        let (pid, _) = process_of(e.cat);
        tracks.entry((pid, e.tid)).or_default().push(e);
    }
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for ((pid, _tid), track) in &tracks {
        let name = PROCESSES
            .iter()
            .find(|(_, p, _)| p == pid)
            .map(|&(_, _, name)| name)
            .unwrap_or("likwid");
        // (name, start, child time) per open frame.
        let mut stack: Vec<(String, u64, u64)> = Vec::new();
        let path_of = |stack: &[(String, u64, u64)], leaf: &str| {
            let mut path = String::from(name);
            for (frame, _, _) in stack {
                path.push(';');
                path.push_str(&frame.replace(';', ":"));
            }
            path.push(';');
            path.push_str(&leaf.replace(';', ":"));
            path
        };
        let last_ts = track.last().map(|e| e.ts_ns).unwrap_or(0);
        for e in track {
            match &e.phase {
                Phase::Begin => stack.push((e.name.clone(), e.ts_ns, 0)),
                Phase::End => {
                    if let Some((frame, start, child)) = stack.pop() {
                        let dur = e.ts_ns.saturating_sub(start);
                        let path = path_of(&stack, &frame);
                        *agg.entry(path).or_default() += dur.saturating_sub(child);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                    }
                }
                Phase::Complete { dur_ns } => {
                    let path = path_of(&stack, &e.name);
                    *agg.entry(path).or_default() += dur_ns;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur_ns;
                    }
                }
                Phase::Counter { .. } => {}
            }
        }
        // Close frames left open (a span alive at stop time) at the last
        // timestamp the track saw.
        while let Some((frame, start, child)) = stack.pop() {
            let dur = last_ts.saturating_sub(start);
            let path = path_of(&stack, &frame);
            *agg.entry(path).or_default() += dur.saturating_sub(child);
            if let Some(parent) = stack.last_mut() {
                parent.2 += dur;
            }
        }
    }
    let mut out = String::new();
    for (path, self_ns) in &agg {
        out.push_str(&format!("{path} {self_ns}\n"));
    }
    out
}

/// Per-span and per-counter rollups as a typed [`Report`] (section ids
/// `trace`, `trace.spans`, `trace.counters`), so trace summaries ride the
/// ASCII/CSV/JSON renderers like every other document of the suite.
pub fn summary_report(events: &[TraceEvent]) -> Report {
    // Pair B/E per track to get span durations; X events carry their own.
    let mut open: BTreeMap<(u64, u64), Vec<(String, String, u64)>> = BTreeMap::new();
    let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut counters: BTreeMap<String, i64> = BTreeMap::new();
    let mut span_events = 0u64;
    let mut counter_events = 0u64;
    for e in events {
        let (pid, _) = process_of(e.cat);
        match &e.phase {
            Phase::Begin => {
                span_events += 1;
                open.entry((pid, e.tid)).or_default().push((
                    e.cat.to_string(),
                    e.name.clone(),
                    e.ts_ns,
                ));
            }
            Phase::End => {
                if let Some((cat, name, start)) = open.entry((pid, e.tid)).or_default().pop() {
                    let entry = spans.entry(format!("{cat}.{name}")).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += e.ts_ns.saturating_sub(start);
                }
            }
            Phase::Complete { dur_ns } => {
                span_events += 1;
                let entry = spans.entry(format!("{}.{}", e.cat, e.name)).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += dur_ns;
            }
            Phase::Counter { delta } => {
                counter_events += 1;
                *counters.entry(format!("{}.{}", e.cat, e.name)).or_insert(0) += delta;
            }
        }
    }
    let mut report = Report::new("likwid-trace");
    report.push(Section::new(
        "trace",
        Body::KeyValues(vec![
            KvEntry::new("events", Value::Count(events.len() as u64)),
            KvEntry::new("span events", Value::Count(span_events)),
            KvEntry::new("counter events", Value::Count(counter_events)),
        ]),
    ));
    if !spans.is_empty() {
        let mut table = Table::plain(vec!["span", "count", "total us"]);
        for (name, (count, total_ns)) in &spans {
            table.push(Row::new(vec![
                Value::Str(name.clone()),
                Value::Count(*count),
                Value::Real(*total_ns as f64 / 1000.0),
            ]));
        }
        report.push(Section::new("trace.spans", Body::Table(table)).with_heading("Trace spans"));
    }
    if !counters.is_empty() {
        let mut table = Table::plain(vec!["counter", "total"]);
        for (name, total) in &counters {
            table.push(Row::new(vec![
                Value::Str(name.clone()),
                Value::Count((*total).max(0) as u64),
            ]));
        }
        report.push(
            Section::new("trace.counters", Body::Table(table)).with_heading("Trace counters"),
        );
    }
    report
}

/// The trace output format, selected by file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (`.json`).
    Chrome,
    /// Folded flamegraph stacks (`.folded`).
    Folded,
}

/// Add the shared `--trace <file>` switch to a binary's [`ArgSpec`].
pub fn trace_flag(spec: ArgSpec) -> ArgSpec {
    spec.flag(
        "--trace",
        None,
        Some("file"),
        "record a self-observability trace (.json: Chrome trace events, .folded: flamegraph stacks)",
    )
}

/// A live CLI trace recording; [`TraceSink::finish`] writes the file.
#[derive(Debug)]
pub struct TraceSink {
    path: String,
    format: TraceFormat,
}

/// Start a recording when `--trace <file>` was given; the extension picks
/// the format. Measurement output is unaffected either way — the trace
/// goes to its own file and the rollup to stderr.
pub fn begin_cli(parsed: &ParsedArgs) -> Result<Option<TraceSink>> {
    let Some(path) = parsed.value("--trace") else {
        return Ok(None);
    };
    let format = if path.ends_with(".json") {
        TraceFormat::Chrome
    } else if path.ends_with(".folded") {
        TraceFormat::Folded
    } else {
        return Err(LikwidError::Usage(format!(
            "--trace: cannot infer a trace format from '{path}' (expected .json or .folded)"
        )));
    };
    start();
    Ok(Some(TraceSink { path: path.to_string(), format }))
}

impl TraceSink {
    /// Stop recording, write the trace file and print the span/counter
    /// rollup to stderr (never stdout: reports stay byte-identical).
    pub fn finish(self) -> Result<()> {
        let events = stop();
        let text = match self.format {
            TraceFormat::Chrome => chrome_json(&events),
            TraceFormat::Folded => folded(&events),
        };
        std::fs::write(&self.path, text)
            .map_err(|e| LikwidError::Output(format!("cannot write trace '{}': {e}", self.path)))?;
        eprint!("{}", OutputFormat::Ascii.render(&summary_report(&events)));
        eprintln!("likwid-trace: wrote {}", self.path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that toggle it serialize here.
    static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn event(category: &'static str, name: &str, ts_ns: u64, tid: u64, phase: Phase) -> TraceEvent {
        TraceEvent { cat: category, name: name.to_string(), ts_ns, tid, phase, args: Vec::new() }
    }

    /// A hand-built two-track trace: a nested pair of spans on one thread,
    /// a complete span plus counters on another.
    fn sample_events() -> Vec<TraceEvent> {
        vec![
            event(cat::FLEET, "sweep", 1_000, 1, Phase::Begin),
            event(cat::FLEET, "point", 2_000, 1, Phase::Begin),
            event(cat::FLEET, "", 5_000, 1, Phase::End),
            event(cat::FLEET, "", 9_000, 1, Phase::End),
            event(cat::CACHESIM, "epoch.parallel", 3_000, 2, Phase::Complete { dur_ns: 4_000 }),
            event(cat::FLEET, "memo_hit", 4_000, 1, Phase::Counter { delta: 1 }),
            event(cat::FLEET, "memo_hit", 6_000, 1, Phase::Counter { delta: 2 }),
        ]
    }

    #[test]
    fn chrome_json_has_balanced_phases_and_running_counter_totals() {
        let text = chrome_json(&sample_events());
        assert!(text.starts_with("{\"traceEvents\":["));
        assert_eq!(text.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(text.matches("\"ph\":\"C\"").count(), 2);
        // Counter events carry the running total, not the delta.
        assert!(text.contains("\"args\":{\"value\":1}"));
        assert!(text.contains("\"args\":{\"value\":3}"));
        // Both subsystems appear as named processes.
        assert!(text.contains("\"name\":\"likwid-fleet\""));
        assert!(text.contains("\"name\":\"likwid-cache-sim\""));
        // Timestamps are microseconds.
        assert!(text.contains("\"ts\":1"), "1000 ns = 1 us: {text}");
        assert!(text.contains("\"dur\":4"), "4000 ns = 4 us");
    }

    #[test]
    fn folded_attributes_self_time_minus_children() {
        let text = folded(&sample_events());
        // sweep: 8 us total minus the 3 us "point" child = 5 us self.
        assert!(text.contains("likwid-fleet;sweep 5000\n"), "{text}");
        assert!(text.contains("likwid-fleet;sweep;point 3000\n"), "{text}");
        assert!(text.contains("likwid-cache-sim;epoch.parallel 4000\n"), "{text}");
    }

    #[test]
    fn folded_closes_spans_left_open_at_the_last_timestamp() {
        let events = vec![
            event(cat::DAEMON, "session", 1_000, 1, Phase::Begin),
            event(cat::DAEMON, "tick", 2_000, 1, Phase::Complete { dur_ns: 500 }),
        ];
        let text = folded(&events);
        assert!(text.contains("likwid-daemon;session 500\n"), "{text}");
        assert!(text.contains("likwid-daemon;session;tick 500\n"), "{text}");
    }

    #[test]
    fn summary_report_rolls_up_spans_and_counters_and_round_trips() {
        let report = summary_report(&sample_events());
        assert_eq!(report.value("trace", "events").and_then(Value::as_count), Some(7));
        assert_eq!(report.value("trace", "span events").and_then(Value::as_count), Some(3));
        let spans = report.table("trace.spans").expect("span table");
        assert_eq!(spans.cell("fleet.sweep", "count").and_then(Value::as_count), Some(1));
        assert_eq!(spans.cell("fleet.point", "count").and_then(Value::as_count), Some(1));
        assert_eq!(
            spans.cell("fleet.point", "total us").and_then(Value::as_real),
            Some(3.0),
            "B at 2000, E at 5000"
        );
        let counters = report.table("trace.counters").expect("counter table");
        assert_eq!(counters.cell("fleet.memo_hit", "total").and_then(Value::as_count), Some(3));
        // The summary rides every renderer and survives the JSON round trip.
        for format in [OutputFormat::Ascii, OutputFormat::Csv, OutputFormat::Json] {
            assert!(!format.render(&report).is_empty());
        }
        let back = Report::from_json(&OutputFormat::Json.render(&report)).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn recorder_is_inert_when_disabled() {
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
        assert!(!enabled());
        let span = span(cat::CORE, "never-recorded");
        count(cat::CORE, "never-counted", 1);
        instant(cat::CORE, "never-instant");
        complete_virtual(cat::CORE, 0, 0, 1, || unreachable!("name must not format"), Vec::new);
        let _ = span_with(cat::CORE, || unreachable!("name must not format"));
        drop(span);
        assert_eq!(now(), 0);
    }

    #[test]
    fn enabled_recorder_buffers_and_drains_across_threads() {
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
        start();
        {
            let _outer = span_with(cat::CORE, || "utest.outer".to_string());
            count(cat::CORE, "utest.counter", 2);
            std::thread::scope(|scope| {
                // Join explicitly: the scope's implicit wait can return
                // before the thread's exit flush (a thread-local
                // destructor) has run, while `join` waits for the thread
                // to terminate.
                scope
                    .spawn(|| {
                        let _inner = span_with(cat::CORE, || "utest.inner".to_string());
                        count(cat::CORE, "utest.counter", 3);
                    })
                    .join()
                    .expect("recording thread");
            });
        }
        let events = stop();
        // Other tests in this binary may trace concurrently; look only at
        // our own uniquely-named events.
        let ours: Vec<&TraceEvent> =
            events.iter().filter(|e| e.name.starts_with("utest.")).collect();
        assert_eq!(ours.iter().filter(|e| matches!(e.phase, Phase::Begin)).count(), 2);
        let counted: i64 = ours
            .iter()
            .filter_map(|e| match e.phase {
                Phase::Counter { delta } => Some(delta),
                _ => None,
            })
            .sum();
        assert_eq!(counted, 5, "both threads' counters drained");
        // Timestamps are sorted and the spawned thread got its own track.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let tids: std::collections::BTreeSet<u64> = ours.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "two recording threads, two tracks");
        assert!(!enabled(), "stop() disables the recorder");
    }

    #[test]
    fn cli_helpers_validate_the_extension_and_write_the_file() {
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
        let spec = trace_flag(ArgSpec::new("t", "t"));
        let parsed = spec.parse(&["--trace".to_string(), "out.xml".to_string()]).unwrap();
        assert!(matches!(begin_cli(&parsed).unwrap_err(), LikwidError::Usage(_)));

        let none = spec.parse(&[]).unwrap();
        assert!(begin_cli(&none).unwrap().is_none());
        assert!(!enabled(), "no --trace, no recording");

        let dir = std::env::temp_dir().join("likwid-trace-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.json");
        let parsed =
            spec.parse(&["--trace".to_string(), path.to_string_lossy().to_string()]).unwrap();
        let sink = begin_cli(&parsed).unwrap().expect("sink");
        assert!(enabled());
        drop(span(cat::CORE, "utest.cli"));
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("utest.cli"));
        assert!(!enabled());
        std::fs::remove_file(&path).ok();
    }
}
