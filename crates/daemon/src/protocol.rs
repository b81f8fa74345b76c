//! The `likwid-perfctrd` wire protocol: line-delimited JSON frames.
//!
//! Every message — client command or server frame — is one JSON object on
//! one line (NDJSON). Commands carry a `cmd` member, frames a `frame`
//! member:
//!
//! * `hello` — sent by the server on connect: daemon identity, protocol
//!   version, the simulated machine preset.
//! * `open` (command) — admit a measurement session: cpu pin list, group
//!   spec, sampling interval and duration (all in the same syntax as the
//!   `likwid-perfctr` command line).
//! * `opened` — the admitted session's resolved shape: session id, cpu
//!   list, group schemas (event and metric names per group), whether the
//!   session needs the socket uncore locks.
//! * `interval` — one live per-interval sample: the raw count deltas of the
//!   active group, and nothing derived from them. Streamed while the
//!   measurement runs. A client that renders an interval derives its
//!   metrics (with `time` bound to the interval length) from these counts
//!   through a [`likwid::perfctr::MetricEvaluator`] built from the `opened`
//!   frame, exactly as the post-mortem result does.
//! * `done` — the post-mortem result: aggregate and extrapolated counts,
//!   the full per-group aggregate results, the cross-session coverage
//!   scale. Interval frames and the `done` frame together reconstruct the
//!   complete [`likwid::perfctr::TimelineResult`] bit-identically (see
//!   [`crate::client::StreamAccumulator`]).
//! * `status` (command) — ask for an observability snapshot of the broker;
//!   answered immediately from the state mutex, never blocking (or blocked
//!   by) a measurement turn.
//! * `status` (frame) — the snapshot: active sessions with their lifecycle
//!   phase and turn ticket, per-cpu ticket-queue depth, and uncore lock
//!   holders/waiters per socket.
//! * `error` — a structured protocol error; the session broker stays
//!   healthy and the connection stays open.
//! * `pong` / `ok` — replies to `ping` and `shutdown`.
//!
//! All counter values cross the wire as JSON integers ([`u64`] exactly);
//! reals use shortest-round-trip encoding, so reconstruction is bit-exact.
//!
//! Protocol 2 dropped the `metrics` member of `interval` frames, which
//! protocol 1 carried; a decoder skips unknown members, so a protocol-1
//! interval line still decodes.
//!
//! A session's counters follow one lifecycle per interval, so a frame is
//! exactly one interval: the broker resumes the session (programs its
//! active group and starts its own counter slots), credits the interval's
//! activity, reads every counter once, and suspends the session (stops its
//! slots and folds that reading). No session's counters are live between
//! two frames.
//!
//! `frame` is the first member of every server frame, as it has always
//! been. Every frame is written through [`likwid::json::Writer`], with no
//! [`JsonValue`] tree; the server encodes each connection's frames into
//! one reused line buffer ([`Frame::encode_line`]). [`Frame::from_line`]
//! reads the leading `frame` member with [`likwid::json::Reader`] and
//! decodes an `interval` frame straight into an [`IntervalFrame`], its
//! other members in any order and unknown members skipped; only the rare
//! kinds are decoded through a tree. A command line may be at most
//! [`crate::server::MAX_COMMAND_LINE`] bytes long.

use std::cell::RefCell;

use crate::broker::{DaemonStatus, SessionStatus, UncoreStatus};
use likwid::json::{obj, JsonValue, Reader, Writer};
use likwid::perfctr::session::{Diagnostic, GroupCounts};
use likwid::perfctr::{EventGroupKind, MetricEvaluator, PerfCtrResults, TimelineInterval};
use likwid::{LikwidError, Result};
use likwid_perf_events::CounterSlot;
use likwid_x86_machine::MachinePreset;

/// Protocol version spoken by this daemon.
pub const PROTOCOL_VERSION: u64 = 2;

/// Server identity announced in the hello frame.
pub const SERVER_NAME: &str = "likwid-perfctrd";

/// A client's request to open a measurement session. All fields use the
/// `likwid-perfctr` command-line syntax and are validated by the broker
/// (never panicking — every malformed value is answered with an `error`
/// frame).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRequest {
    /// Expected machine preset id (`westmere_ep_2s`); `None` accepts
    /// whatever the daemon simulates.
    pub machine: Option<String>,
    /// Pin list of hardware threads to measure (`0-3`, `S0:0-1,S1:0-1`).
    pub cpus: String,
    /// Event group, multiplexed group list, or custom event spec.
    pub group: String,
    /// Sampling interval (`1ms`, `250us`).
    pub interval: String,
    /// Measurement duration (`10ms`).
    pub duration: String,
}

impl OpenRequest {
    /// Build the `open` command frame.
    pub fn to_json(&self) -> JsonValue {
        let mut members = vec![("cmd", JsonValue::Str("open".into()))];
        if let Some(machine) = &self.machine {
            members.push(("machine", JsonValue::Str(machine.clone())));
        }
        members.push(("cpus", JsonValue::Str(self.cpus.clone())));
        members.push(("group", JsonValue::Str(self.group.clone())));
        members.push(("interval", JsonValue::Str(self.interval.clone())));
        members.push(("duration", JsonValue::Str(self.duration.clone())));
        obj(members)
    }

    /// Parse an `open` command frame.
    pub fn from_json(value: &JsonValue) -> Result<Self> {
        let field = |name: &str| -> Result<String> {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| LikwidError::Protocol(format!("open: missing field '{name}'")))
        };
        Ok(OpenRequest {
            machine: value.get("machine").and_then(JsonValue::as_str).map(str::to_string),
            cpus: field("cpus")?,
            group: field("group")?,
            interval: field("interval")?,
            duration: field("duration")?,
        })
    }
}

/// The resolved shape of one event group of an admitted session.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSchema {
    /// Group name (`FLOPS_DP`, `CUSTOM`).
    pub name: String,
    /// Programmed events: `(documented name, counter slot)`.
    pub events: Vec<(String, CounterSlot)>,
    /// Derived metric names, in result order (empty for custom lists).
    pub metrics: Vec<String>,
}

/// The `opened` frame: everything a client needs to interpret the interval
/// stream that follows.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenedFrame {
    /// Broker-assigned session id.
    pub session: u64,
    /// Machine preset id of the daemon.
    pub machine: String,
    /// Measured hardware threads, in column order.
    pub cpus: Vec<usize>,
    /// The measured threads carrying the uncore counts, per
    /// [`likwid::perfctr::TimelineResult::socket_lock_owners`].
    pub socket_lock_owners: Vec<usize>,
    /// Sampling interval in seconds.
    pub interval_s: f64,
    /// Measurement duration in seconds.
    pub duration_s: f64,
    /// Whether the session holds per-socket uncore locks for its lifetime.
    pub uncore: bool,
    /// One schema per group, in group-index order.
    pub groups: Vec<GroupSchema>,
}

impl OpenedFrame {
    /// The session's derived metrics, built from the machine, cpus and
    /// groups this frame announces; building it touches no counter. A
    /// group whose announced metric names differ from the ones its
    /// definition on that machine derives is a protocol error.
    pub fn metric_evaluator(&self) -> Result<MetricEvaluator> {
        let protocol = |e: LikwidError| LikwidError::Protocol(format!("opened: {e}"));
        let preset = MachinePreset::from_id(&self.machine)
            .ok_or_else(|| LikwidError::Protocol(format!("opened: machine '{}'", self.machine)))?;
        let groups: Vec<_> =
            self.groups.iter().map(|g| (EventGroupKind::parse(&g.name), &g.events[..])).collect();
        let evaluator = MetricEvaluator::new(preset.arch(), preset.clock(), &self.cpus, &groups)
            .map_err(protocol)?;
        for (index, group) in self.groups.iter().enumerate() {
            let derived = evaluator.metric_names(index);
            if derived != group.metrics {
                return Err(LikwidError::Protocol(format!(
                    "opened: group {} announces metrics {:?}, its definition derives {derived:?}",
                    group.name, group.metrics
                )));
            }
        }
        Ok(evaluator)
    }

    /// Check that an interval frame fits this session: a known group, one
    /// count row per event of that group and one count per measured cpu.
    pub fn check(&self, frame: &IntervalFrame) -> Result<()> {
        let group = self
            .groups
            .get(frame.group)
            .ok_or_else(|| LikwidError::Protocol(format!("interval: no group {}", frame.group)))?;
        let cpus = self.cpus.len();
        if frame.counts.len() != group.events.len()
            || frame.counts.iter().any(|row| row.len() != cpus)
        {
            return Err(LikwidError::Protocol(format!(
                "interval {}: counts must be {} rows of {cpus}",
                frame.index,
                group.events.len()
            )));
        }
        Ok(())
    }
}

/// One streamed interval: the live counterpart of [`TimelineInterval`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalFrame {
    /// Session id.
    pub session: u64,
    /// Zero-based interval index within the session.
    pub index: usize,
    /// Group measured during this interval.
    pub group: usize,
    /// Interval start on the session's virtual clock.
    pub t_start_s: f64,
    /// Interval end on the session's virtual clock.
    pub t_end_s: f64,
    /// Raw count deltas: `counts[event][cpu_position]`, exact.
    pub counts: GroupCounts,
}

impl IntervalFrame {
    /// The raw-delta part as a core [`TimelineInterval`].
    pub fn to_interval(&self) -> TimelineInterval {
        TimelineInterval {
            t_start_s: self.t_start_s,
            t_end_s: self.t_end_s,
            group: self.group,
            counts: self.counts.clone(),
        }
    }
}

/// The `done` frame: the session's post-mortem aggregate, sufficient —
/// together with the interval stream — to rebuild the full
/// [`likwid::perfctr::TimelineResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct DoneFrame {
    /// Session id.
    pub session: u64,
    /// Total measured virtual time in seconds.
    pub duration_s: f64,
    /// Number of intervals streamed.
    pub intervals: usize,
    /// Cross-session coverage scale applied to the extrapolated aggregates
    /// (exactly `1.0` for a session that never shared its cpus).
    pub time_scale: f64,
    /// Per-group raw aggregate counts (the interval deltas of each group
    /// telescope exactly to these).
    pub aggregate: Vec<GroupCounts>,
    /// Per-group coverage-extrapolated aggregate counts.
    pub extrapolated: Vec<GroupCounts>,
    /// Per-group aggregate results (events, derived metrics, diagnostics).
    /// On the wire each diagnostic is a `[subject, reason]` pair.
    pub results: Vec<PerfCtrResults>,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection greeting.
    Hello {
        /// Daemon identity ([`SERVER_NAME`]).
        server: String,
        /// Protocol version.
        protocol: u64,
        /// Simulated machine preset id.
        machine: String,
    },
    /// Session admitted.
    Opened(OpenedFrame),
    /// One live interval.
    Interval(IntervalFrame),
    /// Session finished.
    Done(DoneFrame),
    /// Reply to `status`: the broker's observability snapshot.
    Status(DaemonStatus),
    /// A structured error; the connection survives.
    Error {
        /// Error class (`protocol`, `usage`, `internal`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `shutdown`.
    Ok,
}

fn usizes(w: &mut Writer<'_>, values: &[usize]) {
    w.arr(|w| {
        for &v in values {
            w.uint(v as u64);
        }
    });
}

fn uints(w: &mut Writer<'_>, values: &[u64]) {
    w.arr(|w| {
        for &v in values {
            w.uint(v);
        }
    });
}

fn reals(w: &mut Writer<'_>, values: &[f64]) {
    w.arr(|w| {
        for &v in values {
            w.real(v);
        }
    });
}

fn counts(w: &mut Writer<'_>, counts: &GroupCounts) {
    w.arr(|w| counts.iter().for_each(|row| uints(w, row)));
}

fn parse_usize_arr(value: &JsonValue, what: &str) -> Result<Vec<usize>> {
    value
        .as_arr()
        .ok_or_else(|| LikwidError::Protocol(format!("{what}: expected array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| LikwidError::Protocol(format!("{what}: expected integer")))
        })
        .collect()
}

fn parse_counts_arr(value: &JsonValue, what: &str) -> Result<GroupCounts> {
    value
        .as_arr()
        .ok_or_else(|| LikwidError::Protocol(format!("{what}: expected array")))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| LikwidError::Protocol(format!("{what}: expected array of arrays")))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| LikwidError::Protocol(format!("{what}: expected count")))
                })
                .collect()
        })
        .collect()
}

fn parse_reals_arr(value: &JsonValue, what: &str) -> Result<Vec<f64>> {
    value
        .as_arr()
        .ok_or_else(|| LikwidError::Protocol(format!("{what}: expected array")))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| LikwidError::Protocol(format!("{what}: expected real"))))
        .collect()
}

fn malformed(e: String) -> LikwidError {
    LikwidError::Protocol(format!("malformed frame: {e}"))
}

fn missing(name: &str) -> LikwidError {
    LikwidError::Protocol(format!("frame: missing '{name}'"))
}

fn not_integer(name: &str) -> LikwidError {
    LikwidError::Protocol(format!("frame: '{name}' must be an integer"))
}

fn not_real(name: &str) -> LikwidError {
    LikwidError::Protocol(format!("frame: '{name}' must be a real"))
}

fn required<'v>(value: &'v JsonValue, name: &str) -> Result<&'v JsonValue> {
    value.get(name).ok_or_else(|| missing(name))
}

fn required_u64(value: &JsonValue, name: &str) -> Result<u64> {
    required(value, name)?.as_u64().ok_or_else(|| not_integer(name))
}

fn required_f64(value: &JsonValue, name: &str) -> Result<f64> {
    required(value, name)?.as_f64().ok_or_else(|| not_real(name))
}

fn required_str(value: &JsonValue, name: &str) -> Result<String> {
    required(value, name)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| LikwidError::Protocol(format!("frame: '{name}' must be a string")))
}

/// Whether the document opens with a `"frame"` member naming `kind`. On
/// `true` the reader stands after that member.
fn leads_with(reader: &mut Reader<'_>, kind: &str) -> bool {
    reader.begin_obj().is_ok()
        && matches!(reader.next_key(), Ok(Some(key)) if key == "frame")
        && matches!(reader.str(), Ok(k) if k == kind)
}

/// Enter the array at the cursor, or consume the value there and fail with
/// `message`.
fn begin_arr(r: &mut Reader<'_>, message: &str) -> Result<()> {
    if r.peek() == Some(b'[') {
        r.begin_arr().map_err(malformed)
    } else {
        r.value().map_err(malformed)?;
        Err(LikwidError::Protocol(message.to_string()))
    }
}

thread_local! {
    /// Reused staging for [`read_counts`]: the counts of an array of
    /// arrays, and the count total after each row.
    static STAGING: RefCell<(Vec<u64>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// An interval frame's `counts`: an array of arrays of counts. The counts
/// are staged in a reused thread-local buffer and copied out once the
/// array is closed, so every returned row is allocated once, at its final
/// length.
fn read_counts(r: &mut Reader<'_>) -> Result<GroupCounts> {
    STAGING.with(|staging| {
        let (items, ends) = &mut *staging.borrow_mut();
        items.clear();
        ends.clear();
        begin_arr(r, "interval.counts: expected array")?;
        while r.next_item().map_err(malformed)? {
            begin_arr(r, "interval.counts: expected array of arrays")?;
            while r.next_item().map_err(malformed)? {
                let count = r.uint().map_err(malformed)?;
                items.push(count.ok_or_else(|| {
                    LikwidError::Protocol("interval.counts: expected count".to_string())
                })?);
            }
            ends.push(items.len());
        }
        let starts = std::iter::once(0).chain(ends.iter().copied());
        Ok(starts.zip(ends.iter()).map(|(start, &end)| items[start..end].to_vec()).collect())
    })
}

impl IntervalFrame {
    /// Read an interval frame's members after its leading `frame` member:
    /// in any order, unknown ones skipped.
    fn read(r: &mut Reader<'_>) -> Result<IntervalFrame> {
        let uint = |r: &mut Reader<'_>, name| {
            r.uint().map_err(malformed)?.ok_or_else(|| not_integer(name))
        };
        let real =
            |r: &mut Reader<'_>, name| r.real().map_err(malformed)?.ok_or_else(|| not_real(name));
        let (mut session, mut index, mut group) = (None, None, None);
        let (mut t_start_s, mut t_end_s, mut counts) = (None, None, None);
        while let Some(key) = r.next_key().map_err(malformed)? {
            match &*key {
                "session" => session = Some(uint(r, "session")?),
                "index" => index = Some(uint(r, "index")? as usize),
                "group" => group = Some(uint(r, "group")? as usize),
                "t_start_s" => t_start_s = Some(real(r, "t_start_s")?),
                "t_end_s" => t_end_s = Some(real(r, "t_end_s")?),
                "counts" => counts = Some(read_counts(r)?),
                _ => {
                    r.value().map_err(malformed)?;
                }
            }
        }
        Ok(IntervalFrame {
            session: session.ok_or_else(|| missing("session"))?,
            index: index.ok_or_else(|| missing("index"))?,
            group: group.ok_or_else(|| missing("group"))?,
            t_start_s: t_start_s.ok_or_else(|| missing("t_start_s"))?,
            t_end_s: t_end_s.ok_or_else(|| missing("t_end_s"))?,
            counts: counts.ok_or_else(|| missing("counts"))?,
        })
    }
}

impl Frame {
    /// The frame's kind, its leading `frame` member.
    fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Opened(_) => "opened",
            Frame::Interval(_) => "interval",
            Frame::Done(_) => "done",
            Frame::Status(_) => "status",
            Frame::Error { .. } => "error",
            Frame::Pong => "pong",
            Frame::Ok => "ok",
        }
    }

    /// Write the frame through a streaming JSON writer, `frame` first.
    fn write(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.key("frame").str(self.kind());
            match self {
                Frame::Hello { server, protocol, machine } => {
                    w.key("server").str(server);
                    w.key("protocol").uint(*protocol);
                    w.key("machine").str(machine);
                }
                Frame::Opened(f) => {
                    w.key("session").uint(f.session);
                    w.key("machine").str(&f.machine);
                    usizes(w.key("cpus"), &f.cpus);
                    usizes(w.key("socket_lock_owners"), &f.socket_lock_owners);
                    w.key("interval_s").real(f.interval_s);
                    w.key("duration_s").real(f.duration_s);
                    w.key("uncore").bool(f.uncore);
                    w.key("groups").arr(|w| {
                        for g in &f.groups {
                            w.obj(|w| {
                                w.key("name").str(&g.name);
                                w.key("events").arr(|w| {
                                    for (name, slot) in &g.events {
                                        w.arr(|w| {
                                            w.str(name).str(&slot.name());
                                        });
                                    }
                                });
                                w.key("metrics").arr(|w| {
                                    for m in &g.metrics {
                                        w.str(m);
                                    }
                                });
                            });
                        }
                    });
                }
                Frame::Interval(f) => {
                    w.key("session").uint(f.session);
                    w.key("index").uint(f.index as u64);
                    w.key("group").uint(f.group as u64);
                    w.key("t_start_s").real(f.t_start_s);
                    w.key("t_end_s").real(f.t_end_s);
                    counts(w.key("counts"), &f.counts);
                }
                Frame::Done(f) => {
                    w.key("session").uint(f.session);
                    w.key("duration_s").real(f.duration_s);
                    w.key("intervals").uint(f.intervals as u64);
                    w.key("time_scale").real(f.time_scale);
                    w.key("aggregate").arr(|w| f.aggregate.iter().for_each(|c| counts(w, c)));
                    w.key("extrapolated").arr(|w| f.extrapolated.iter().for_each(|c| counts(w, c)));
                    w.key("results").arr(|w| {
                        for r in &f.results {
                            w.obj(|w| {
                                w.key("group").str(&r.group_name);
                                usizes(w.key("cpus"), &r.cpus);
                                w.key("events").arr(|w| {
                                    for (name, slot, values) in &r.events {
                                        w.arr(|w| uints(w.str(name).str(&slot.name()), values));
                                    }
                                });
                                w.key("metrics").arr(|w| {
                                    for (name, values) in &r.metrics {
                                        w.arr(|w| reals(w.str(name), values));
                                    }
                                });
                                w.key("diagnostics").arr(|w| {
                                    for d in &r.diagnostics {
                                        w.arr(|w| {
                                            w.str(&d.subject).str(&d.reason);
                                        });
                                    }
                                });
                            });
                        }
                    });
                }
                Frame::Status(s) => {
                    w.key("sessions").arr(|w| {
                        for sess in &s.sessions {
                            w.obj(|w| {
                                w.key("session").uint(sess.id);
                                usizes(w.key("cpus"), &sess.cpus);
                                w.key("phase").str(&sess.phase);
                                if let Some(ticket) = sess.ticket {
                                    w.key("ticket").uint(ticket);
                                }
                                w.key("wall_extra_s").real(sess.wall_extra_s);
                            });
                        }
                    });
                    w.key("queue_depth").arr(|w| {
                        for &(cpu, depth) in &s.queue_depth {
                            usizes(w, &[cpu, depth]);
                        }
                    });
                    w.key("uncore").arr(|w| {
                        for u in &s.uncore {
                            w.obj(|w| {
                                w.key("socket").uint(u64::from(u.socket));
                                if let Some(holder) = u.holder {
                                    w.key("holder").uint(holder);
                                }
                                uints(w.key("waiters"), &u.waiters);
                            });
                        }
                    });
                }
                Frame::Error { kind, message } => {
                    w.key("error").str(kind);
                    w.key("message").str(message);
                }
                Frame::Pong | Frame::Ok => {}
            }
        });
    }

    /// Encode as one NDJSON line including the trailing newline.
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.encode_line(&mut line);
        line
    }

    /// Encode as one NDJSON line, trailing newline included, into `line`,
    /// replacing its contents. A buffer reused across frames stops
    /// allocating once it has held the longest of them.
    pub fn encode_line(&self, line: &mut String) {
        line.clear();
        self.write(&mut Writer::new(line));
        line.push('\n');
    }

    /// Decode one of the rare frame kinds from a parsed JSON object.
    fn from_json(value: &JsonValue) -> Result<Frame> {
        let kind = required_str(value, "frame")?;
        match kind.as_str() {
            "hello" => Ok(Frame::Hello {
                server: required_str(value, "server")?,
                protocol: required_u64(value, "protocol")?,
                machine: required_str(value, "machine")?,
            }),
            "opened" => {
                let groups = required(value, "groups")?
                    .as_arr()
                    .ok_or_else(|| LikwidError::Protocol("opened: groups must be array".into()))?
                    .iter()
                    .map(|g| {
                        let events = required(g, "events")?
                            .as_arr()
                            .ok_or_else(|| {
                                LikwidError::Protocol("opened: events must be array".into())
                            })?
                            .iter()
                            .map(|pair| {
                                let pair = pair.as_arr().ok_or_else(|| {
                                    LikwidError::Protocol("opened: bad event pair".into())
                                })?;
                                let name = pair
                                    .first()
                                    .and_then(JsonValue::as_str)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("opened: bad event name".into())
                                    })?
                                    .to_string();
                                let slot = pair
                                    .get(1)
                                    .and_then(JsonValue::as_str)
                                    .and_then(CounterSlot::parse)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("opened: bad counter slot".into())
                                    })?;
                                Ok((name, slot))
                            })
                            .collect::<Result<Vec<_>>>()?;
                        let metrics = required(g, "metrics")?
                            .as_arr()
                            .ok_or_else(|| {
                                LikwidError::Protocol("opened: metrics must be array".into())
                            })?
                            .iter()
                            .map(|m| {
                                m.as_str().map(str::to_string).ok_or_else(|| {
                                    LikwidError::Protocol("opened: bad metric name".into())
                                })
                            })
                            .collect::<Result<Vec<_>>>()?;
                        Ok(GroupSchema { name: required_str(g, "name")?, events, metrics })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Frame::Opened(OpenedFrame {
                    session: required_u64(value, "session")?,
                    machine: required_str(value, "machine")?,
                    cpus: parse_usize_arr(required(value, "cpus")?, "opened.cpus")?,
                    socket_lock_owners: parse_usize_arr(
                        required(value, "socket_lock_owners")?,
                        "opened.socket_lock_owners",
                    )?,
                    interval_s: required_f64(value, "interval_s")?,
                    duration_s: required_f64(value, "duration_s")?,
                    uncore: required(value, "uncore")?
                        .as_bool()
                        .ok_or_else(|| LikwidError::Protocol("opened: bad uncore flag".into()))?,
                    groups,
                }))
            }
            "interval" => {
                Err(LikwidError::Protocol("interval: 'frame' must be the first member".into()))
            }
            "done" => {
                let results = required(value, "results")?
                    .as_arr()
                    .ok_or_else(|| LikwidError::Protocol("done: results must be array".into()))?
                    .iter()
                    .map(|r| {
                        let events = required(r, "events")?
                            .as_arr()
                            .ok_or_else(|| {
                                LikwidError::Protocol("done: events must be array".into())
                            })?
                            .iter()
                            .map(|triple| {
                                let triple = triple.as_arr().ok_or_else(|| {
                                    LikwidError::Protocol("done: bad event triple".into())
                                })?;
                                let name = triple
                                    .first()
                                    .and_then(JsonValue::as_str)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: bad event name".into())
                                    })?
                                    .to_string();
                                let slot = triple
                                    .get(1)
                                    .and_then(JsonValue::as_str)
                                    .and_then(CounterSlot::parse)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: bad counter slot".into())
                                    })?;
                                let counts = triple
                                    .get(2)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: missing event counts".into())
                                    })?
                                    .as_arr()
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: bad event counts".into())
                                    })?
                                    .iter()
                                    .map(|v| {
                                        v.as_u64().ok_or_else(|| {
                                            LikwidError::Protocol("done: bad count".into())
                                        })
                                    })
                                    .collect::<Result<Vec<_>>>()?;
                                Ok((name, slot, counts))
                            })
                            .collect::<Result<Vec<_>>>()?;
                        let metrics = required(r, "metrics")?
                            .as_arr()
                            .ok_or_else(|| {
                                LikwidError::Protocol("done: metrics must be array".into())
                            })?
                            .iter()
                            .map(|pair| {
                                let pair = pair.as_arr().ok_or_else(|| {
                                    LikwidError::Protocol("done: bad metric pair".into())
                                })?;
                                let name = pair
                                    .first()
                                    .and_then(JsonValue::as_str)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: bad metric name".into())
                                    })?
                                    .to_string();
                                let values = parse_reals_arr(
                                    pair.get(1).ok_or_else(|| {
                                        LikwidError::Protocol("done: missing metric values".into())
                                    })?,
                                    "done.metrics",
                                )?;
                                Ok((name, values))
                            })
                            .collect::<Result<Vec<_>>>()?;
                        let diagnostics = required(r, "diagnostics")?
                            .as_arr()
                            .ok_or_else(|| {
                                LikwidError::Protocol("done: diagnostics must be array".into())
                            })?
                            .iter()
                            .map(|pair| {
                                let pair = pair.as_arr().ok_or_else(|| {
                                    LikwidError::Protocol("done: bad diagnostic".into())
                                })?;
                                let subject = pair
                                    .first()
                                    .and_then(JsonValue::as_str)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: bad diagnostic".into())
                                    })?
                                    .to_string();
                                let reason = pair
                                    .get(1)
                                    .and_then(JsonValue::as_str)
                                    .ok_or_else(|| {
                                        LikwidError::Protocol("done: bad diagnostic".into())
                                    })?
                                    .to_string();
                                Ok(Diagnostic { subject, reason })
                            })
                            .collect::<Result<Vec<_>>>()?;
                        Ok(PerfCtrResults {
                            group_name: required_str(r, "group")?,
                            cpus: parse_usize_arr(required(r, "cpus")?, "done.cpus")?,
                            events,
                            metrics,
                            diagnostics,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Frame::Done(DoneFrame {
                    session: required_u64(value, "session")?,
                    duration_s: required_f64(value, "duration_s")?,
                    intervals: required_u64(value, "intervals")? as usize,
                    time_scale: required_f64(value, "time_scale")?,
                    aggregate: required(value, "aggregate")?
                        .as_arr()
                        .ok_or_else(|| {
                            LikwidError::Protocol("done: aggregate must be array".into())
                        })?
                        .iter()
                        .map(|c| parse_counts_arr(c, "done.aggregate"))
                        .collect::<Result<Vec<_>>>()?,
                    extrapolated: required(value, "extrapolated")?
                        .as_arr()
                        .ok_or_else(|| {
                            LikwidError::Protocol("done: extrapolated must be array".into())
                        })?
                        .iter()
                        .map(|c| parse_counts_arr(c, "done.extrapolated"))
                        .collect::<Result<Vec<_>>>()?,
                    results,
                }))
            }
            "status" => {
                let sessions = required(value, "sessions")?
                    .as_arr()
                    .ok_or_else(|| LikwidError::Protocol("status: sessions must be array".into()))?
                    .iter()
                    .map(|s| {
                        Ok(SessionStatus {
                            id: required_u64(s, "session")?,
                            cpus: parse_usize_arr(required(s, "cpus")?, "status.cpus")?,
                            phase: required_str(s, "phase")?,
                            ticket: s.get("ticket").and_then(JsonValue::as_u64),
                            wall_extra_s: required_f64(s, "wall_extra_s")?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                let queue_depth = required(value, "queue_depth")?
                    .as_arr()
                    .ok_or_else(|| {
                        LikwidError::Protocol("status: queue_depth must be array".into())
                    })?
                    .iter()
                    .map(|pair| {
                        let pair = parse_usize_arr(pair, "status.queue_depth")?;
                        match pair.as_slice() {
                            [cpu, depth] => Ok((*cpu, *depth)),
                            _ => Err(LikwidError::Protocol(
                                "status: queue_depth entries are [cpu, depth] pairs".into(),
                            )),
                        }
                    })
                    .collect::<Result<Vec<_>>>()?;
                let uncore = required(value, "uncore")?
                    .as_arr()
                    .ok_or_else(|| LikwidError::Protocol("status: uncore must be array".into()))?
                    .iter()
                    .map(|u| {
                        Ok(UncoreStatus {
                            socket: required_u64(u, "socket")? as u32,
                            holder: u.get("holder").and_then(JsonValue::as_u64),
                            waiters: required(u, "waiters")?
                                .as_arr()
                                .ok_or_else(|| {
                                    LikwidError::Protocol("status: waiters must be array".into())
                                })?
                                .iter()
                                .map(|w| {
                                    w.as_u64().ok_or_else(|| {
                                        LikwidError::Protocol("status: bad waiter id".into())
                                    })
                                })
                                .collect::<Result<Vec<_>>>()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Frame::Status(DaemonStatus { sessions, queue_depth, uncore }))
            }
            "error" => Ok(Frame::Error {
                kind: required_str(value, "error")?,
                message: required_str(value, "message")?,
            }),
            "pong" => Ok(Frame::Pong),
            "ok" => Ok(Frame::Ok),
            other => Err(LikwidError::Protocol(format!("unknown frame '{other}'"))),
        }
    }

    /// Decode a frame from one NDJSON line. An interval frame is read
    /// straight into its [`IntervalFrame`]; the rare kinds go through a
    /// [`JsonValue`] tree.
    pub fn from_line(line: &str) -> Result<Frame> {
        let line = line.trim();
        let mut reader = Reader::new(line);
        if leads_with(&mut reader, "interval") {
            let frame = IntervalFrame::read(&mut reader)?;
            reader.finish().map_err(malformed)?;
            return Ok(Frame::Interval(frame));
        }
        Frame::from_json(&JsonValue::parse(line).map_err(malformed)?)
    }

    /// Classify a [`LikwidError`] into an error frame. The broker answers
    /// every failed request this way instead of tearing anything down.
    pub fn from_error(err: &LikwidError) -> Frame {
        // The wire carries the bare message: the client rebuilds the typed
        // error from `kind`, and the variant's Display re-adds its prefix.
        let (kind, message) = match err {
            LikwidError::Protocol(m) => ("protocol", m.clone()),
            LikwidError::Usage(m) => ("usage", m.clone()),
            other => ("internal", other.to_string()),
        };
        Frame::Error { kind: kind.to_string(), message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_request_round_trips() {
        let req = OpenRequest {
            machine: Some("westmere_ep_2s".into()),
            cpus: "S0:0-1".into(),
            group: "FLOPS_DP,MEM".into(),
            interval: "1ms".into(),
            duration: "10ms".into(),
        };
        let back = OpenRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        let anon = OpenRequest { machine: None, ..req };
        assert_eq!(OpenRequest::from_json(&anon.to_json()).unwrap(), anon);
    }

    #[test]
    fn open_request_missing_fields_are_protocol_errors() {
        let cmd = obj(vec![("cmd", JsonValue::Str("open".into()))]);
        let err = OpenRequest::from_json(&cmd).unwrap_err();
        assert!(matches!(err, LikwidError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn frames_round_trip_through_ndjson_lines() {
        let frames = vec![
            Frame::Hello {
                server: SERVER_NAME.into(),
                protocol: PROTOCOL_VERSION,
                machine: "westmere_ep_2s".into(),
            },
            Frame::Opened(OpenedFrame {
                session: 7,
                machine: "westmere_ep_2s".into(),
                cpus: vec![0, 1, 12],
                socket_lock_owners: vec![0, 12],
                interval_s: 2.5e-3,
                duration_s: 10e-3,
                uncore: true,
                groups: vec![GroupSchema {
                    name: "MEM".into(),
                    events: vec![
                        ("UNC_QMC_NORMAL_READS_ANY".into(), CounterSlot::UncorePmc(0)),
                        ("INSTR_RETIRED_ANY".into(), CounterSlot::Fixed(0)),
                    ],
                    metrics: vec!["Memory bandwidth [MBytes/s]".into()],
                }],
            }),
            Frame::Interval(IntervalFrame {
                session: 7,
                index: 3,
                group: 0,
                t_start_s: 7.5e-3,
                t_end_s: 0.01,
                counts: vec![vec![u64::MAX, 0], vec![1, 2]],
            }),
            Frame::Done(DoneFrame {
                session: 7,
                duration_s: 0.01,
                intervals: 4,
                time_scale: 1.0,
                aggregate: vec![vec![vec![10, 20]]],
                extrapolated: vec![vec![vec![40, 80]]],
                results: vec![PerfCtrResults {
                    group_name: "MEM".into(),
                    cpus: vec![0, 1],
                    events: vec![("E".into(), CounterSlot::Pmc(1), vec![40, 80])],
                    metrics: vec![("m".into(), vec![1.5, f64::INFINITY])],
                    diagnostics: vec![Diagnostic {
                        subject: "cpu 3".into(),
                        reason: "dropped".into(),
                    }],
                }],
            }),
            Frame::Status(DaemonStatus {
                sessions: vec![
                    SessionStatus {
                        id: 1,
                        cpus: vec![0, 1],
                        phase: "running".into(),
                        ticket: Some(4),
                        wall_extra_s: 2.5e-3,
                    },
                    SessionStatus {
                        id: 2,
                        cpus: vec![12],
                        phase: "waiting-uncore".into(),
                        ticket: None,
                        wall_extra_s: 0.0,
                    },
                ],
                queue_depth: vec![(0, 1), (1, 1), (12, 1)],
                uncore: vec![UncoreStatus { socket: 1, holder: Some(1), waiters: vec![2] }],
            }),
            Frame::Status(DaemonStatus::default()),
            Frame::Error { kind: "protocol".into(), message: "unknown group 'NOPE'".into() },
            Frame::Pong,
            Frame::Ok,
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
            let back = Frame::from_line(&line).unwrap();
            // NaN breaks PartialEq; compare through re-encoding, which is
            // deterministic and lossless.
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn astral_characters_survive_the_wire() {
        let frame =
            Frame::Error { kind: "usage".into(), message: "bad group 'M\u{1F600}M'".into() };
        let line = frame.to_line();
        assert_eq!(Frame::from_line(&line).unwrap(), frame);
        // ASCII-only peers send the character as an escaped surrogate pair.
        let escaped = line.replace('\u{1F600}', r"\ud83d\ude00");
        assert_ne!(escaped, line);
        assert_eq!(Frame::from_line(&escaped).unwrap(), frame);
    }

    #[test]
    fn error_frames_classify_the_error_kind() {
        let err = LikwidError::Protocol("bad".into());
        assert!(matches!(
            Frame::from_error(&err),
            Frame::Error { kind, .. } if kind == "protocol"
        ));
        let err = LikwidError::Usage("bad".into());
        assert!(matches!(Frame::from_error(&err), Frame::Error { kind, .. } if kind == "usage"));
    }

    #[test]
    fn malformed_lines_are_protocol_errors_not_panics() {
        for bad in ["", "{", "42", "{\"frame\":\"nope\"}", "{\"frame\":\"interval\"}"] {
            let err = Frame::from_line(bad).unwrap_err();
            assert!(matches!(err, LikwidError::Protocol(_)), "'{bad}' gave {err:?}");
        }
    }

    #[test]
    fn interval_decode_errors_name_the_member() {
        let good = concat!(
            r#"{"frame":"interval","session":1,"index":0,"group":0,"#,
            r#""t_start_s":0,"t_end_s":0.5,"counts":[[1]]}"#
        );
        assert!(matches!(Frame::from_line(good), Ok(Frame::Interval(_))));
        for (from, to, message) in [
            (r#""session":1,"#, "", "frame: missing 'session'"),
            (r#""index":0"#, r#""index":"0""#, "frame: 'index' must be an integer"),
            (r#""index":0"#, r#""index":-1"#, "frame: 'index' must be an integer"),
            (r#""t_end_s":0.5"#, r#""t_end_s":null"#, "frame: 't_end_s' must be a real"),
            ("[[1]]", "[[1.5]]", "interval.counts: expected count"),
            ("[[1]]", "[1]", "interval.counts: expected array of arrays"),
            ("[[1]]", "{}", "interval.counts: expected array"),
            ("[[1]]", "[[01]]", "malformed frame: bad number '01' at byte 91"),
            ("}", "}x", "malformed frame: trailing characters at byte 95"),
            (
                r#""frame":"interval","session":1"#,
                r#""session":1,"frame":"interval""#,
                "interval: 'frame' must be the first member",
            ),
        ] {
            let line = good.replacen(from, to, 1);
            assert_ne!(line, good);
            match Frame::from_line(&line) {
                Err(LikwidError::Protocol(m)) => assert_eq!(m, message, "{line}"),
                other => panic!("{line} gave {other:?}"),
            }
        }
        // Unknown members are skipped, wherever they stand.
        let noted = good.replace(r#""group""#, r#""note":{"x":[1,"y"]},"group""#);
        assert_eq!(Frame::from_line(&noted).unwrap(), Frame::from_line(good).unwrap());
    }

    #[test]
    fn interval_lines_carry_counts_only_and_protocol_1_lines_still_decode() {
        let frame = IntervalFrame {
            session: 2,
            index: 5,
            group: 1,
            t_start_s: 5e-4,
            t_end_s: 6e-4,
            counts: vec![vec![7, 0], vec![1 << 60, 3]],
        };
        let line = Frame::Interval(frame.clone()).to_line();
        let tree = JsonValue::parse(line.trim()).expect("one JSON document");
        assert!(tree.get("counts").is_some());
        assert!(tree.get("metrics").is_none(), "{line}");
        // A protocol-1 daemon also sent the derived metrics; the member is
        // unknown now and skipped.
        let v1 = line.replace(r#"]]}"#, r#"]],"metrics":[[0.5,1e300],[2.5,-0.0]]}"#);
        assert_ne!(v1, line);
        assert_eq!(Frame::from_line(&v1).unwrap(), Frame::Interval(frame));
        assert_eq!(PROTOCOL_VERSION, 2);
    }

    #[test]
    fn opened_frames_check_interval_shapes_and_their_metric_schema() {
        let mut opened = OpenedFrame {
            session: 1,
            machine: "nehalem-ep-2s".into(),
            cpus: vec![0, 1],
            socket_lock_owners: vec![0],
            interval_s: 1e-3,
            duration_s: 2e-3,
            uncore: false,
            groups: vec![GroupSchema {
                name: "CUSTOM".into(),
                events: vec![("INSTR_RETIRED_ANY".into(), CounterSlot::Fixed(0))],
                metrics: Vec::new(),
            }],
        };
        let frame =
            |group, counts| IntervalFrame { session: 1, group, counts, ..Default::default() };
        assert!(opened.check(&frame(0, vec![vec![1, 2]])).is_ok());
        for bad in [frame(1, vec![vec![1, 2]]), frame(0, vec![vec![1]]), frame(0, vec![])] {
            let err = opened.check(&bad).unwrap_err();
            assert!(matches!(err, LikwidError::Protocol(_)), "{bad:?}: {err:?}");
        }
        assert!(opened.metric_evaluator().is_ok());
        // A schema announcing metrics its group does not derive, or an
        // unknown machine, cannot be evaluated.
        opened.groups[0].metrics.push("CPI".into());
        assert!(matches!(opened.metric_evaluator(), Err(LikwidError::Protocol(_))));
        opened.groups[0].metrics.clear();
        opened.machine = "nehalem".into();
        assert!(matches!(opened.metric_evaluator(), Err(LikwidError::Protocol(_))));
    }

    #[test]
    fn deeply_nested_lines_are_protocol_errors_not_stack_overflows() {
        for deep in ["[".repeat(100_000), "{\"frame\":".repeat(100_000)] {
            let err = Frame::from_line(&deep).unwrap_err();
            assert!(matches!(&err, LikwidError::Protocol(m) if m.contains("nesting")), "{err:?}");
        }
    }
}
