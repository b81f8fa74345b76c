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
//!   active group plus the derived metric values with `time` bound to the
//!   interval length. Streamed while the measurement runs.
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

use crate::broker::{DaemonStatus, SessionStatus, UncoreStatus};
use likwid::json::{obj, JsonValue};
use likwid::perfctr::session::{Diagnostic, GroupCounts};
use likwid::perfctr::{PerfCtrResults, TimelineInterval};
use likwid::{LikwidError, Result};
use likwid_perf_events::CounterSlot;

/// Protocol version spoken by this daemon.
pub const PROTOCOL_VERSION: u64 = 1;

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

/// One streamed interval: the live counterpart of [`TimelineInterval`] plus
/// the interval's derived metric values (per metric, per cpu — `time`
/// bound to the interval length).
#[derive(Debug, Clone, PartialEq)]
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
    /// Derived metric values: `metrics[metric][cpu_position]`, in the
    /// group-schema metric order. Empty for custom event lists.
    pub metrics: Vec<Vec<f64>>,
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
    pub results: Vec<ResultsFrame>,
}

/// Wire form of [`PerfCtrResults`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsFrame {
    /// Group name.
    pub group_name: String,
    /// Measured threads.
    pub cpus: Vec<usize>,
    /// `(event name, slot, per-cpu counts)`.
    pub events: Vec<(String, CounterSlot, Vec<u64>)>,
    /// `(metric name, per-cpu values)`.
    pub metrics: Vec<(String, Vec<f64>)>,
    /// Degradations recorded by the self-healing session.
    pub diagnostics: Vec<(String, String)>,
}

impl ResultsFrame {
    /// Capture a core result set for the wire.
    pub fn from_results(results: &PerfCtrResults) -> Self {
        ResultsFrame {
            group_name: results.group_name.clone(),
            cpus: results.cpus.clone(),
            events: results.events.clone(),
            metrics: results.metrics.clone(),
            diagnostics: results
                .diagnostics
                .iter()
                .map(|d| (d.subject.clone(), d.reason.clone()))
                .collect(),
        }
    }

    /// Rebuild the core result set.
    pub fn to_results(&self) -> PerfCtrResults {
        PerfCtrResults {
            group_name: self.group_name.clone(),
            cpus: self.cpus.clone(),
            events: self.events.clone(),
            metrics: self.metrics.clone(),
            diagnostics: self
                .diagnostics
                .iter()
                .map(|(subject, reason)| Diagnostic {
                    subject: subject.clone(),
                    reason: reason.clone(),
                })
                .collect(),
        }
    }
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

fn usize_arr(values: &[usize]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::UInt(v as u64)).collect())
}

fn counts_arr(counts: &GroupCounts) -> JsonValue {
    JsonValue::Arr(
        counts
            .iter()
            .map(|per_cpu| JsonValue::Arr(per_cpu.iter().map(|&v| JsonValue::UInt(v)).collect()))
            .collect(),
    )
}

fn reals_arr(values: &[f64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::real(v)).collect())
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

fn required<'v>(value: &'v JsonValue, name: &str) -> Result<&'v JsonValue> {
    value.get(name).ok_or_else(|| LikwidError::Protocol(format!("frame: missing '{name}'")))
}

fn required_u64(value: &JsonValue, name: &str) -> Result<u64> {
    required(value, name)?
        .as_u64()
        .ok_or_else(|| LikwidError::Protocol(format!("frame: '{name}' must be an integer")))
}

fn required_f64(value: &JsonValue, name: &str) -> Result<f64> {
    required(value, name)?
        .as_f64()
        .ok_or_else(|| LikwidError::Protocol(format!("frame: '{name}' must be a real")))
}

fn required_str(value: &JsonValue, name: &str) -> Result<String> {
    required(value, name)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| LikwidError::Protocol(format!("frame: '{name}' must be a string")))
}

impl Frame {
    /// Encode the frame as one NDJSON line (no trailing newline).
    pub fn to_json(&self) -> JsonValue {
        match self {
            Frame::Hello { server, protocol, machine } => obj(vec![
                ("frame", JsonValue::Str("hello".into())),
                ("server", JsonValue::Str(server.clone())),
                ("protocol", JsonValue::UInt(*protocol)),
                ("machine", JsonValue::Str(machine.clone())),
            ]),
            Frame::Opened(f) => obj(vec![
                ("frame", JsonValue::Str("opened".into())),
                ("session", JsonValue::UInt(f.session)),
                ("machine", JsonValue::Str(f.machine.clone())),
                ("cpus", usize_arr(&f.cpus)),
                ("socket_lock_owners", usize_arr(&f.socket_lock_owners)),
                ("interval_s", JsonValue::real(f.interval_s)),
                ("duration_s", JsonValue::real(f.duration_s)),
                ("uncore", JsonValue::Bool(f.uncore)),
                (
                    "groups",
                    JsonValue::Arr(
                        f.groups
                            .iter()
                            .map(|g| {
                                obj(vec![
                                    ("name", JsonValue::Str(g.name.clone())),
                                    (
                                        "events",
                                        JsonValue::Arr(
                                            g.events
                                                .iter()
                                                .map(|(name, slot)| {
                                                    JsonValue::Arr(vec![
                                                        JsonValue::Str(name.clone()),
                                                        JsonValue::Str(slot.name()),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "metrics",
                                        JsonValue::Arr(
                                            g.metrics
                                                .iter()
                                                .map(|m| JsonValue::Str(m.clone()))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Frame::Interval(f) => obj(vec![
                ("frame", JsonValue::Str("interval".into())),
                ("session", JsonValue::UInt(f.session)),
                ("index", JsonValue::UInt(f.index as u64)),
                ("group", JsonValue::UInt(f.group as u64)),
                ("t_start_s", JsonValue::real(f.t_start_s)),
                ("t_end_s", JsonValue::real(f.t_end_s)),
                ("counts", counts_arr(&f.counts)),
                ("metrics", JsonValue::Arr(f.metrics.iter().map(|row| reals_arr(row)).collect())),
            ]),
            Frame::Done(f) => obj(vec![
                ("frame", JsonValue::Str("done".into())),
                ("session", JsonValue::UInt(f.session)),
                ("duration_s", JsonValue::real(f.duration_s)),
                ("intervals", JsonValue::UInt(f.intervals as u64)),
                ("time_scale", JsonValue::real(f.time_scale)),
                ("aggregate", JsonValue::Arr(f.aggregate.iter().map(counts_arr).collect())),
                ("extrapolated", JsonValue::Arr(f.extrapolated.iter().map(counts_arr).collect())),
                (
                    "results",
                    JsonValue::Arr(
                        f.results
                            .iter()
                            .map(|r| {
                                obj(vec![
                                    ("group", JsonValue::Str(r.group_name.clone())),
                                    ("cpus", usize_arr(&r.cpus)),
                                    (
                                        "events",
                                        JsonValue::Arr(
                                            r.events
                                                .iter()
                                                .map(|(name, slot, counts)| {
                                                    JsonValue::Arr(vec![
                                                        JsonValue::Str(name.clone()),
                                                        JsonValue::Str(slot.name()),
                                                        JsonValue::Arr(
                                                            counts
                                                                .iter()
                                                                .map(|&v| JsonValue::UInt(v))
                                                                .collect(),
                                                        ),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "metrics",
                                        JsonValue::Arr(
                                            r.metrics
                                                .iter()
                                                .map(|(name, values)| {
                                                    JsonValue::Arr(vec![
                                                        JsonValue::Str(name.clone()),
                                                        reals_arr(values),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "diagnostics",
                                        JsonValue::Arr(
                                            r.diagnostics
                                                .iter()
                                                .map(|(subject, reason)| {
                                                    JsonValue::Arr(vec![
                                                        JsonValue::Str(subject.clone()),
                                                        JsonValue::Str(reason.clone()),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Frame::Status(s) => obj(vec![
                ("frame", JsonValue::Str("status".into())),
                (
                    "sessions",
                    JsonValue::Arr(
                        s.sessions
                            .iter()
                            .map(|sess| {
                                let mut members = vec![
                                    ("session", JsonValue::UInt(sess.id)),
                                    ("cpus", usize_arr(&sess.cpus)),
                                    ("phase", JsonValue::Str(sess.phase.clone())),
                                ];
                                if let Some(ticket) = sess.ticket {
                                    members.push(("ticket", JsonValue::UInt(ticket)));
                                }
                                members.push(("wall_extra_s", JsonValue::real(sess.wall_extra_s)));
                                obj(members)
                            })
                            .collect(),
                    ),
                ),
                (
                    "queue_depth",
                    JsonValue::Arr(
                        s.queue_depth
                            .iter()
                            .map(|&(cpu, depth)| {
                                JsonValue::Arr(vec![
                                    JsonValue::UInt(cpu as u64),
                                    JsonValue::UInt(depth as u64),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "uncore",
                    JsonValue::Arr(
                        s.uncore
                            .iter()
                            .map(|u| {
                                let mut members =
                                    vec![("socket", JsonValue::UInt(u64::from(u.socket)))];
                                if let Some(holder) = u.holder {
                                    members.push(("holder", JsonValue::UInt(holder)));
                                }
                                members.push((
                                    "waiters",
                                    JsonValue::Arr(
                                        u.waiters.iter().map(|&w| JsonValue::UInt(w)).collect(),
                                    ),
                                ));
                                obj(members)
                            })
                            .collect(),
                    ),
                ),
            ]),
            Frame::Error { kind, message } => obj(vec![
                ("frame", JsonValue::Str("error".into())),
                ("error", JsonValue::Str(kind.clone())),
                ("message", JsonValue::Str(message.clone())),
            ]),
            Frame::Pong => obj(vec![("frame", JsonValue::Str("pong".into()))]),
            Frame::Ok => obj(vec![("frame", JsonValue::Str("ok".into()))]),
        }
    }

    /// Encode as one NDJSON line including the trailing newline.
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().encode();
        line.push('\n');
        line
    }

    /// Decode a frame from a parsed JSON object.
    pub fn from_json(value: &JsonValue) -> Result<Frame> {
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
            "interval" => Ok(Frame::Interval(IntervalFrame {
                session: required_u64(value, "session")?,
                index: required_u64(value, "index")? as usize,
                group: required_u64(value, "group")? as usize,
                t_start_s: required_f64(value, "t_start_s")?,
                t_end_s: required_f64(value, "t_end_s")?,
                counts: parse_counts_arr(required(value, "counts")?, "interval.counts")?,
                metrics: required(value, "metrics")?
                    .as_arr()
                    .ok_or_else(|| LikwidError::Protocol("interval: metrics must be array".into()))?
                    .iter()
                    .map(|row| parse_reals_arr(row, "interval.metrics"))
                    .collect::<Result<Vec<_>>>()?,
            })),
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
                                Ok((subject, reason))
                            })
                            .collect::<Result<Vec<_>>>()?;
                        Ok(ResultsFrame {
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

    /// Decode a frame from one NDJSON line.
    pub fn from_line(line: &str) -> Result<Frame> {
        let value = JsonValue::parse(line.trim())
            .map_err(|e| LikwidError::Protocol(format!("malformed frame: {e}")))?;
        Frame::from_json(&value)
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
                metrics: vec![vec![0.1 + 0.2, f64::NAN]],
            }),
            Frame::Done(DoneFrame {
                session: 7,
                duration_s: 0.01,
                intervals: 4,
                time_scale: 1.0,
                aggregate: vec![vec![vec![10, 20]]],
                extrapolated: vec![vec![vec![40, 80]]],
                results: vec![ResultsFrame {
                    group_name: "MEM".into(),
                    cpus: vec![0, 1],
                    events: vec![("E".into(), CounterSlot::Pmc(1), vec![40, 80])],
                    metrics: vec![("m".into(), vec![1.5, f64::INFINITY])],
                    diagnostics: vec![("cpu 3".into(), "dropped".into())],
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
    fn deeply_nested_lines_are_protocol_errors_not_stack_overflows() {
        for deep in ["[".repeat(100_000), "{\"frame\":".repeat(100_000)] {
            let err = Frame::from_line(&deep).unwrap_err();
            assert!(matches!(&err, LikwidError::Protocol(m) if m.contains("nesting")), "{err:?}");
        }
    }
}
