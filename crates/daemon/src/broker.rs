//! The session broker: admission, arbitration and multiplexing of many
//! concurrent measurement sessions over one simulated machine.
//!
//! # Arbitration model
//!
//! Counter registers are per-cpu, so two sessions conflict exactly when
//! their cpu sets intersect (plus the per-socket uncore units, handled
//! separately). The broker's invariant is simple: **between any two
//! intervals, no session's counters are live**. Each interval is one
//! counter lifecycle: the session resumes (programs its active group,
//! which zeroes the counters, and starts exactly its own slots), the
//! interval's activity is credited, the tick reads every counter once, and
//! the session suspends (stops its own slots and folds that same reading
//! into its accumulator; a multiplexed session advances to its next group
//! there, which the next resume programs). Any inter-interval machine
//! state is therefore safe for any session to reprogram; a session that
//! never shares a cpu measures bit-identically to a standalone
//! [`TimelineSession`] run.
//!
//! *Core turn-taking* uses monotonic tickets: each admitted session holds a
//! ticket, renewed (strictly increasing) after every interval. A session
//! may run an interval when no other admitted, unfinished session sharing
//! one of its cpus holds a smaller ticket. The globally smallest ticket is
//! always runnable, so the schedule is deadlock-free; renewal makes it
//! round-robin fair; sessions with disjoint cpu sets never wait for each
//! other.
//!
//! *Uncore units* are per-socket and stay programmed for a session's whole
//! lifetime, so sessions whose groups touch uncore counters acquire a
//! per-socket lock at admission and hold it until they finish or abort.
//! Waiters queue in arrival order per socket; a waiter is granted when it
//! heads every queue it is in and no holder remains on any needed socket
//! (all-or-wait, so multi-socket sessions cannot interleave into a
//! deadlock). While waiting for uncore locks a session holds no ticket and
//! blocks nobody's turn. A dropped client releases its locks and its queue
//! positions ([`SessionHandle`] aborts on drop).
//!
//! # Coverage extrapolation
//!
//! A session time-sliced against others sharing its cpus measures only part
//! of its wall (virtual) lifetime. The broker charges every interval's
//! length to the *other* running sessions that conflict with it; at finish,
//! a session's aggregate is extrapolated by `(measured + foreign) /
//! measured` — exactly `1.0` for a session that was never sliced against,
//! preserving bit-identical solo results.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex};

use likwid::perfctr::timeline::{check_sampling_points, demo_slice_into};
use likwid::perfctr::{
    parse_interval, parse_measurement_spec, MeasurementSpec, PerfCtrConfig, TimelineResult,
    TimelineSession,
};
use likwid::trace;
use likwid::{LikwidError, Result};
use likwid_affinity::parse_pin_list;
use likwid_perf_events::{EventEngine, EventSample};
use likwid_x86_machine::{MachinePreset, SimMachine};

use crate::protocol::{DoneFrame, GroupSchema, IntervalFrame, OpenRequest, OpenedFrame};

/// Where a session's per-interval activity comes from.
pub enum ActivitySource {
    /// The synthetic demo application of `likwid-perfctr -t` (alternating
    /// memory- and compute-bound phases on the virtual clock).
    Demo,
    /// Pre-sliced samples, one per interval, in order — the
    /// `Experiment::via_daemon` path replays a traced workload.
    Replay(VecDeque<EventSample>),
}

/// A validated, admitted session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Hardware threads to measure.
    pub cpus: Vec<usize>,
    /// What to measure.
    pub spec: MeasurementSpec,
    /// Sampling interval in seconds.
    pub interval_s: f64,
    /// Measurement duration in seconds.
    pub duration_s: f64,
}

/// Lifecycle phase of an admitted session inside the broker.
enum Phase {
    /// Queued for per-socket uncore locks; holds no ticket, blocks no turn.
    WaitingUncore,
    /// Holding a turn ticket.
    Running(u64),
    /// Measurement complete, result not yet collected: holds no ticket,
    /// blocks no turn, accrues no foreign wall time. Without this state a
    /// finished-but-uncollected session's stale (small) ticket would block
    /// every conflicting session forever.
    Parked,
}

struct Slot {
    cpus: Vec<usize>,
    /// Sockets whose uncore locks the session holds (or waits for).
    sockets: Vec<u32>,
    phase: Phase,
    /// Foreign virtual time charged by conflicting sessions' intervals.
    wall_extra: f64,
}

#[derive(Default)]
struct BrokerState {
    next_id: u64,
    next_ticket: u64,
    slots: HashMap<u64, Slot>,
    /// socket -> session currently holding its uncore lock.
    uncore_holders: HashMap<u32, u64>,
    /// socket -> sessions waiting for its uncore lock, in arrival order.
    uncore_queues: HashMap<u32, VecDeque<u64>>,
    opened: u64,
    finished: u64,
    aborted: u64,
    peak_live: usize,
}

/// Broker counters exposed for tests and the daemon's own diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Sessions admitted since start.
    pub opened: u64,
    /// Sessions that ran to completion.
    pub finished: u64,
    /// Sessions released by an abort (client drop, handle drop).
    pub aborted: u64,
    /// Currently admitted sessions.
    pub live: usize,
    /// Highest concurrent session count seen.
    pub peak_live: usize,
    /// Uncore socket locks currently held.
    pub uncore_locks_held: usize,
    /// Sessions currently queued for uncore locks.
    pub uncore_waiters: usize,
}

/// The measurement daemon core: one simulated machine, one event engine,
/// and the session broker state. Shared across server connection handlers
/// by reference; all synchronisation is internal.
pub struct Daemon<'m> {
    machine: &'m SimMachine,
    engine: EventEngine,
    state: Mutex<BrokerState>,
    turn: Condvar,
    /// Serializes the live window of an interval (resume → credit → tick
    /// → suspend) machine-wide. Turn tickets already exclude sessions
    /// *sharing* cpus; this lock additionally keeps a disjoint session's
    /// activity credit out of another session's live window — uncore
    /// counters are per-socket, so without it a core-only session's
    /// credit could leak into a concurrent uncore session's registers
    /// between its tick and its suspend, breaking the telescoping
    /// invariant.
    credit: Mutex<()>,
}

impl<'m> Daemon<'m> {
    /// A daemon over a simulated machine. The caller owns the machine (and
    /// may have armed fault injection on it); every session measures this
    /// one machine.
    pub fn new(machine: &'m SimMachine) -> Self {
        Daemon {
            machine,
            engine: EventEngine::new(machine),
            state: Mutex::new(BrokerState::default()),
            turn: Condvar::new(),
            credit: Mutex::new(()),
        }
    }

    /// The simulated machine every session measures.
    pub fn machine(&self) -> &'m SimMachine {
        self.machine
    }

    /// Validate a wire request into a session configuration. Every
    /// malformed or unsatisfiable field is a typed
    /// [`LikwidError::Protocol`] — the broker never panics on client
    /// input.
    pub fn validate(&self, request: &OpenRequest) -> Result<SessionConfig> {
        if let Some(id) = &request.machine {
            let preset = MachinePreset::from_id(id).ok_or_else(|| {
                LikwidError::Protocol(format!(
                    "unknown machine preset '{id}'; available: {}",
                    MachinePreset::all().iter().map(|p| p.id()).collect::<Vec<_>>().join(", ")
                ))
            })?;
            if preset != self.machine.preset() {
                return Err(LikwidError::Protocol(format!(
                    "machine mismatch: daemon simulates '{}', request expects '{}'",
                    self.machine.preset().id(),
                    preset.id()
                )));
            }
        }

        let topo = self.machine.topology();
        let cpus = parse_pin_list(&request.cpus, topo)
            .map_err(|e| LikwidError::Protocol(format!("cpus: {e}")))?;
        if cpus.is_empty() {
            return Err(LikwidError::Protocol("cpus: empty cpu set".into()));
        }
        if cpus.len() > self.machine.num_hw_threads() {
            return Err(LikwidError::Protocol(format!(
                "cpus: {} entries exceed the machine's {} hardware threads",
                cpus.len(),
                self.machine.num_hw_threads()
            )));
        }
        let mut seen = HashSet::new();
        for &cpu in &cpus {
            if !seen.insert(cpu) {
                return Err(LikwidError::Protocol(format!("cpus: duplicate cpu {cpu}")));
            }
        }

        let spec = parse_measurement_spec(&request.group, self.engine.table())
            .map_err(|e| LikwidError::Protocol(format!("group: {e}")))?;

        let demote = |flag: &str, e: LikwidError| match e {
            LikwidError::Usage(msg) => LikwidError::Protocol(format!("{flag}: {msg}")),
            e => e,
        };
        let interval_s = parse_interval(&request.interval).map_err(|e| demote("interval", e))?;
        let duration_s = parse_interval(&request.duration).map_err(|e| demote("duration", e))?;
        check_sampling_points(interval_s, duration_s).map_err(|e| demote("interval", e))?;

        Ok(SessionConfig { cpus, spec, interval_s, duration_s })
    }

    /// Whether a spec programs uncore counters (decided from the group
    /// definitions, before any register is touched).
    fn spec_uses_uncore(&self, spec: &MeasurementSpec) -> Result<bool> {
        let arch = self.machine.arch();
        let group_uncore = |kind| -> Result<bool> {
            let def = likwid::perfctr::group_definition(arch, kind)?;
            Ok(def.events.iter().any(|(_, slot)| slot.is_uncore()))
        };
        match spec {
            MeasurementSpec::Group(kind) => group_uncore(*kind),
            MeasurementSpec::Groups(kinds) => {
                for &kind in kinds {
                    if group_uncore(kind)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            MeasurementSpec::Custom(events) => Ok(events.iter().any(|(_, slot)| slot.is_uncore())),
        }
    }

    /// The sockets hosting the measured cpus.
    fn sockets_of(&self, cpus: &[usize]) -> Vec<u32> {
        let topo = self.machine.topology();
        let mut sockets: Vec<u32> =
            cpus.iter().filter_map(|&cpu| topo.hw_thread(cpu).ok().map(|t| t.socket)).collect();
        sockets.sort_unstable();
        sockets.dedup();
        sockets
    }

    /// Open a session for the synthetic demo application (the socket
    /// server's path).
    pub fn open(&self, request: &OpenRequest) -> Result<SessionHandle<'_, 'm>> {
        let config = self.validate(request)?;
        self.open_session(config, ActivitySource::Demo)
    }

    /// Open a session with an explicit activity source (the in-process
    /// client API; `Experiment::via_daemon` replays traced workloads).
    ///
    /// Blocks until the session is admitted: uncore sessions queue FIFO
    /// per socket, and the initial counter programming itself waits for
    /// the session's first turn on its cpus.
    pub fn open_session(
        &self,
        config: SessionConfig,
        source: ActivitySource,
    ) -> Result<SessionHandle<'_, 'm>> {
        let uncore = self.spec_uses_uncore(&config.spec)?;
        let sockets = if uncore { self.sockets_of(&config.cpus) } else { Vec::new() };

        let id = {
            let mut state = self.state.lock().unwrap();
            let id = state.next_id;
            state.next_id += 1;
            state.opened += 1;
            let phase = if uncore {
                for &socket in &sockets {
                    state.uncore_queues.entry(socket).or_default().push_back(id);
                }
                Phase::WaitingUncore
            } else {
                let ticket = state.next_ticket;
                state.next_ticket += 1;
                Phase::Running(ticket)
            };
            state.slots.insert(
                id,
                Slot {
                    cpus: config.cpus.clone(),
                    sockets: sockets.clone(),
                    phase,
                    wall_extra: 0.0,
                },
            );
            let live = state.slots.len();
            state.peak_live = state.peak_live.max(live);
            id
        };
        trace::count(trace::cat::DAEMON, "sessions_opened", 1);
        trace::instant_args(trace::cat::DAEMON, "session.open", || {
            vec![
                ("session", id.to_string()),
                ("cpus", format!("{:?}", config.cpus)),
                ("uncore", uncore.to_string()),
            ]
        });

        // Uncore admission: wait until this session heads every queue it is
        // in and no socket it needs is held, then take all its locks
        // atomically and its first ticket.
        if uncore {
            let acquire_started = trace::now();
            let mut state = self.state.lock().unwrap();
            loop {
                let granted = sockets.iter().all(|socket| {
                    !state.uncore_holders.contains_key(socket)
                        && state
                            .uncore_queues
                            .get(socket)
                            .and_then(|q| q.front())
                            .is_some_and(|&head| head == id)
                });
                if granted {
                    for &socket in &sockets {
                        state.uncore_queues.get_mut(&socket).unwrap().pop_front();
                        state.uncore_holders.insert(socket, id);
                    }
                    let ticket = state.next_ticket;
                    state.next_ticket += 1;
                    state.slots.get_mut(&id).unwrap().phase = Phase::Running(ticket);
                    break;
                }
                state = self.turn.wait(state).unwrap();
            }
            drop(state);
            trace::complete_since(
                trace::cat::DAEMON,
                acquire_started,
                || "uncore.acquire".to_string(),
                || vec![("session", id.to_string()), ("sockets", format!("{sockets:?}"))],
            );
            self.turn.notify_all();
        }

        // Programming the counters writes the per-cpu registers, so even
        // session construction takes the session's turn: no conflicting
        // session's counters are live while we program.
        self.wait_turn(id);
        let session = TimelineSession::new(
            self.machine,
            PerfCtrConfig { cpus: config.cpus.clone(), spec: config.spec.clone() },
            config.interval_s,
        );
        let mut session = match session {
            Ok(session) => session,
            Err(e) => {
                self.release(id, true);
                return Err(e);
            }
        };
        // Construction used the turn; hand it on.
        self.end_turn(id, 0.0, false);
        // The interval walk of `next_interval` ends within one interval of
        // this count, so the history never grows mid-stream.
        session.reserve_intervals((config.duration_s / config.interval_s).ceil() as usize + 1);

        let schema = (0..session.session().num_groups())
            .map(|g| GroupSchema {
                name: session.session().group_name(g).to_string(),
                events: session.session().group_events(g),
                metrics: session.session().metrics().metric_names(g),
            })
            .collect();
        let opened = OpenedFrame {
            session: id,
            machine: self.machine.preset().id().to_string(),
            cpus: config.cpus.clone(),
            socket_lock_owners: session.session().socket_lock_owners(),
            interval_s: config.interval_s,
            duration_s: config.duration_s,
            uncore,
            groups: schema,
        };

        Ok(SessionHandle {
            daemon: self,
            id,
            session: Some(session),
            source,
            sample: EventSample::default(),
            spare_counts: Vec::new(),
            opened,
            duration_s: config.duration_s,
            interval_s: config.interval_s,
            t0: 0.0,
            index: 0,
            measurement_complete: false,
            released: false,
        })
    }

    /// Block until it is session `id`'s turn on all its cpus: no other
    /// admitted, ticket-holding session sharing a cpu has a smaller
    /// ticket.
    fn wait_turn(&self, id: u64) {
        let wait_started = trace::now();
        let mut state = self.state.lock().unwrap();
        let mut waited = false;
        loop {
            let me = state.slots.get(&id).expect("session slot exists until released");
            let my_ticket = match me.phase {
                Phase::Running(t) => t,
                Phase::WaitingUncore | Phase::Parked => {
                    unreachable!("turns are only taken by admitted, unfinished sessions")
                }
            };
            let my_cpus = &me.cpus;
            let blocked = state.slots.iter().any(|(&other_id, other)| {
                if other_id == id {
                    return false;
                }
                match other.phase {
                    Phase::Running(t) => {
                        t < my_ticket && other.cpus.iter().any(|c| my_cpus.contains(c))
                    }
                    Phase::WaitingUncore | Phase::Parked => false,
                }
            });
            if !blocked {
                if waited {
                    // Only contended turns produce a span: an uncontended
                    // wait_turn is the common case and would be noise.
                    drop(state);
                    trace::complete_since(
                        trace::cat::DAEMON,
                        wait_started,
                        || "ticket.wait".to_string(),
                        || vec![("session", id.to_string())],
                    );
                }
                return;
            }
            waited = true;
            state = self.turn.wait(state).unwrap();
        }
    }

    /// End a turn: charge the interval length to every conflicting
    /// running session's foreign-wall account, then either take a fresh
    /// (larger) ticket or park the session (after its final interval, so
    /// an uncollected result never blocks anyone), and wake waiters.
    fn end_turn(&self, id: u64, dt_s: f64, park: bool) {
        let mut state = self.state.lock().unwrap();
        if dt_s > 0.0 {
            // The cpu list is lent out of the slot for the scan, not cloned.
            let me_cpus =
                std::mem::take(&mut state.slots.get_mut(&id).expect("session slot exists").cpus);
            for (&other_id, other) in state.slots.iter_mut() {
                if other_id == id || !matches!(other.phase, Phase::Running(_)) {
                    continue;
                }
                if other.cpus.iter().any(|c| me_cpus.contains(c)) {
                    other.wall_extra += dt_s;
                }
            }
            state.slots.get_mut(&id).unwrap().cpus = me_cpus;
        }
        let phase = if park {
            Phase::Parked
        } else {
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            Phase::Running(ticket)
        };
        state.slots.get_mut(&id).unwrap().phase = phase;
        drop(state);
        self.turn.notify_all();
    }

    /// The session's accumulated foreign wall time.
    fn wall_extra(&self, id: u64) -> f64 {
        self.state.lock().unwrap().slots.get(&id).map(|s| s.wall_extra).unwrap_or(0.0)
    }

    /// Release a session: drop its slot, free its uncore locks and queue
    /// positions, wake everyone.
    fn release(&self, id: u64, aborted: bool) {
        let mut state = self.state.lock().unwrap();
        let mut forced = 0i64;
        if let Some(slot) = state.slots.remove(&id) {
            for socket in slot.sockets {
                if state.uncore_holders.get(&socket) == Some(&id) {
                    state.uncore_holders.remove(&socket);
                    if aborted {
                        forced += 1;
                    }
                }
                if let Some(queue) = state.uncore_queues.get_mut(&socket) {
                    queue.retain(|&waiting| waiting != id);
                }
            }
            if aborted {
                state.aborted += 1;
            } else {
                state.finished += 1;
            }
        }
        drop(state);
        if forced > 0 {
            // An aborted holder's locks are reclaimed by the broker, not
            // handed back — the event worth spotting in a trace.
            trace::count(trace::cat::DAEMON, "uncore_force_release", forced);
        }
        trace::count(
            trace::cat::DAEMON,
            if aborted { "sessions_aborted" } else { "sessions_finished" },
            1,
        );
        trace::instant_args(trace::cat::DAEMON, "session.release", || {
            vec![("session", id.to_string()), ("aborted", aborted.to_string())]
        });
        self.turn.notify_all();
    }

    /// Broker counters.
    pub fn stats(&self) -> BrokerStats {
        let state = self.state.lock().unwrap();
        BrokerStats {
            opened: state.opened,
            finished: state.finished,
            aborted: state.aborted,
            live: state.slots.len(),
            peak_live: state.peak_live,
            uncore_locks_held: state.uncore_holders.len(),
            uncore_waiters: state.uncore_queues.values().map(VecDeque::len).sum(),
        }
    }

    /// A point-in-time observability snapshot for the wire `status`
    /// request: active sessions with their phase, per-cpu ticket-queue
    /// depth, and uncore lock holders/waiters.
    ///
    /// Takes only the state mutex — it never waits on the turn condvar, so
    /// it cannot block (or be blocked by) a measurement turn, and it never
    /// panics mid-arbitration: every lookup is total over the snapshot.
    pub fn status(&self) -> DaemonStatus {
        let state = self.state.lock().unwrap();
        let mut sessions: Vec<SessionStatus> = state
            .slots
            .iter()
            .map(|(&id, slot)| {
                let (phase, ticket) = match slot.phase {
                    Phase::WaitingUncore => ("waiting-uncore", None),
                    Phase::Running(t) => ("running", Some(t)),
                    Phase::Parked => ("parked", None),
                };
                SessionStatus {
                    id,
                    cpus: slot.cpus.clone(),
                    phase: phase.to_string(),
                    ticket,
                    wall_extra_s: slot.wall_extra,
                }
            })
            .collect();
        sessions.sort_by_key(|s| s.id);

        // Ticket-queue depth per cpu: how many ticket-holding sessions
        // currently contend for each hardware thread.
        let mut depth: HashMap<usize, usize> = HashMap::new();
        for slot in state.slots.values() {
            if matches!(slot.phase, Phase::Running(_)) {
                for &cpu in &slot.cpus {
                    *depth.entry(cpu).or_insert(0) += 1;
                }
            }
        }
        let mut queue_depth: Vec<(usize, usize)> = depth.into_iter().collect();
        queue_depth.sort_unstable();

        let mut sockets: Vec<u32> = state
            .uncore_holders
            .keys()
            .copied()
            .chain(state.uncore_queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&s, _)| s))
            .collect();
        sockets.sort_unstable();
        sockets.dedup();
        let uncore = sockets
            .into_iter()
            .map(|socket| UncoreStatus {
                socket,
                holder: state.uncore_holders.get(&socket).copied(),
                waiters: state
                    .uncore_queues
                    .get(&socket)
                    .map(|q| q.iter().copied().collect())
                    .unwrap_or_default(),
            })
            .collect();
        DaemonStatus { sessions, queue_depth, uncore }
    }

    /// Whether the broker holds no sessions, no uncore locks and no
    /// waiters — the leak check after stress and abandon tests.
    pub fn is_quiescent(&self) -> bool {
        let state = self.state.lock().unwrap();
        state.slots.is_empty()
            && state.uncore_holders.is_empty()
            && state.uncore_queues.values().all(VecDeque::is_empty)
    }
}

/// One active session in a [`DaemonStatus`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// Broker-assigned session id.
    pub id: u64,
    /// Measured hardware threads.
    pub cpus: Vec<usize>,
    /// Lifecycle phase: `waiting-uncore`, `running` or `parked`.
    pub phase: String,
    /// The turn ticket, when the session holds one.
    pub ticket: Option<u64>,
    /// Foreign virtual time charged so far (seconds).
    pub wall_extra_s: f64,
}

/// One socket's uncore lock state in a [`DaemonStatus`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoreStatus {
    /// Socket id.
    pub socket: u32,
    /// Session currently holding the lock, if any.
    pub holder: Option<u64>,
    /// Sessions queued for the lock, in arrival order.
    pub waiters: Vec<u64>,
}

/// The broker's observability snapshot (the wire `status` answer).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DaemonStatus {
    /// Active sessions, id-ordered.
    pub sessions: Vec<SessionStatus>,
    /// `(cpu, ticket-holding sessions on it)` pairs, cpu-ordered; cpus
    /// nobody measures are omitted.
    pub queue_depth: Vec<(usize, usize)>,
    /// Uncore lock holders and waiters, socket-ordered; idle sockets are
    /// omitted.
    pub uncore: Vec<UncoreStatus>,
}

impl DaemonStatus {
    /// Render the snapshot as a typed [`likwid::Report`], so the `--status`
    /// client rides the suite's ASCII/CSV/JSON renderers.
    pub fn report(&self) -> likwid::Report {
        use likwid::report::{Body, Row, Section, Table, Value};
        let mut report = likwid::Report::new("likwid-perfctrd status");
        let mut sessions = Table::plain(vec!["session", "cpus", "phase", "ticket", "wall extra s"]);
        for s in &self.sessions {
            let cpus: Vec<String> = s.cpus.iter().map(|c| c.to_string()).collect();
            sessions.push(Row::new(vec![
                Value::Count(s.id),
                Value::Str(cpus.join(",")),
                Value::Str(s.phase.clone()),
                match s.ticket {
                    Some(t) => Value::Count(t),
                    None => Value::Str("-".into()),
                },
                Value::Real(s.wall_extra_s),
            ]));
        }
        report.push(
            Section::new("status.sessions", Body::Table(sessions)).with_heading("Active sessions"),
        );
        let mut queues = Table::plain(vec!["cpu", "depth"]);
        for &(cpu, depth) in &self.queue_depth {
            queues.push(Row::new(vec![Value::Count(cpu as u64), Value::Count(depth as u64)]));
        }
        report.push(
            Section::new("status.queues", Body::Table(queues)).with_heading("Ticket-queue depth"),
        );
        let mut uncore = Table::plain(vec!["socket", "holder", "waiters"]);
        for u in &self.uncore {
            let waiters: Vec<String> = u.waiters.iter().map(|w| w.to_string()).collect();
            uncore.push(Row::new(vec![
                Value::Count(u64::from(u.socket)),
                match u.holder {
                    Some(h) => Value::Count(h),
                    None => Value::Str("-".into()),
                },
                Value::Str(waiters.join(",")),
            ]));
        }
        report
            .push(Section::new("status.uncore", Body::Table(uncore)).with_heading("Uncore locks"));
        report
    }
}

/// An admitted measurement session, driven interval by interval. Dropping
/// the handle before [`SessionHandle::finish`] aborts the session and
/// releases every lock and slot it held — a vanished client can never leak
/// broker state.
pub struct SessionHandle<'d, 'm> {
    daemon: &'d Daemon<'m>,
    id: u64,
    session: Option<TimelineSession<'m>>,
    source: ActivitySource,
    /// The current interval's activity, refilled in place.
    sample: EventSample,
    /// Frame rows parked while the active group has fewer events than the
    /// last one (multiplexed groups differ in size).
    spare_counts: Vec<Vec<u64>>,
    opened: OpenedFrame,
    duration_s: f64,
    interval_s: f64,
    t0: f64,
    index: usize,
    measurement_complete: bool,
    released: bool,
}

impl<'d, 'm> SessionHandle<'d, 'm> {
    /// The broker-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The `opened` frame describing this session's resolved shape.
    pub fn opened(&self) -> &OpenedFrame {
        &self.opened
    }

    /// Run the next interval: wait for the session's turn, resume the
    /// counters, credit the interval's activity, close the interval with
    /// one read of the counters and suspend them, hand the turn on. The
    /// frame carries the interval's raw count deltas only; clients derive
    /// metrics from them when they render. Returns `None` once the
    /// configured duration is covered.
    pub fn next_interval(&mut self) -> Result<Option<IntervalFrame>> {
        let mut frame = IntervalFrame::default();
        Ok(self.next_interval_into(&mut frame)?.then_some(frame))
    }

    /// [`SessionHandle::next_interval`] into a caller-owned frame, whose
    /// rows are overwritten in place: once the frame has been through the
    /// group rotation and back to the first group, an interval allocates
    /// nothing. Returns false, leaving the frame as it was, once the
    /// configured duration is covered; after an error the frame's contents
    /// are unspecified.
    pub fn next_interval_into(&mut self, frame: &mut IntervalFrame) -> Result<bool> {
        if self.measurement_complete {
            return Ok(false);
        }
        let session = self.session.as_mut().expect("session alive until finish");
        let t1 = ((self.index + 1) as f64 * self.interval_s).min(self.duration_s);
        let dt = t1 - self.t0;

        let machine = self.daemon.machine;
        match &mut self.source {
            ActivitySource::Demo => {
                demo_slice_into(&mut self.sample, machine, &self.opened.cpus, self.t0, t1);
            }
            ActivitySource::Replay(samples) => match samples.pop_front() {
                Some(sample) => self.sample = sample,
                None => {
                    self.sample.reset(machine.num_hw_threads(), machine.topology().sockets as usize)
                }
            },
        }

        let window_started = trace::now();
        self.daemon.wait_turn(self.id);
        // Our ticket is minimal on all our cpus: no conflicting session
        // will program or count until we renew it. The credit lock makes
        // the whole live window atomic against *disjoint* sessions too,
        // so only this session's activity lands in its registers.
        let outcome = (|| -> Result<()> {
            let _credit = self.daemon.credit.lock().unwrap();
            session.resume()?;
            self.daemon.engine.apply(machine, &self.sample);
            let interval = session.tick_and_suspend(dt)?;
            frame.session = self.id;
            frame.index = self.index;
            frame.group = interval.group;
            frame.t_start_s = interval.t_start_s;
            frame.t_end_s = interval.t_end_s;
            let cpus = self.opened.cpus.len();
            reshape_rows(&mut frame.counts, &mut self.spare_counts, interval.counts.len(), cpus);
            for (row, counts) in frame.counts.iter_mut().zip(&interval.counts) {
                row.copy_from_slice(counts);
            }
            Ok(())
        })();
        let complete = t1 >= self.duration_s;
        self.daemon.end_turn(self.id, dt, complete && outcome.is_ok());
        // The resume → apply → tick-and-suspend window, wall-clocked (the
        // session's own virtual-time intervals come from the timeline).
        let (id, index) = (self.id, self.index);
        trace::complete_since(
            trace::cat::DAEMON,
            window_started,
            || "interval.window".to_string(),
            || vec![("session", id.to_string()), ("index", index.to_string())],
        );

        outcome?;
        self.t0 = t1;
        self.index += 1;
        self.measurement_complete = complete;
        Ok(true)
    }

    /// Finish the session: apply the cross-session coverage scale and
    /// assemble the post-mortem result next to its wire frame.
    pub fn finish(mut self) -> Result<(DoneFrame, TimelineResult)> {
        let session = self.session.take().expect("session alive until finish");
        let measured = self.t0;
        let wall_extra = self.daemon.wall_extra(self.id);
        let time_scale =
            if wall_extra > 0.0 && measured > 0.0 { 1.0 + wall_extra / measured } else { 1.0 };
        // A session suspended after its last interval has folded every
        // count, and its finish() reads no register. One left counting by
        // a failed interval folds the registers one last time; the credit
        // lock keeps that read out of another session's live window on
        // shared cpus.
        let result = {
            let _credit = self.daemon.credit.lock().unwrap();
            session.finish_scaled(time_scale)
        };
        self.daemon.release(self.id, false);
        self.released = true;
        // Coverage scale in permille: a sliced session extrapolates by
        // >1.0x; solo sessions stay at exactly 1000.
        trace::count_with(
            trace::cat::DAEMON,
            || format!("session{}.coverage_permille", self.id),
            (time_scale * 1000.0).round() as i64,
        );
        let result = result?;
        let frame = DoneFrame {
            session: self.id,
            duration_s: result.duration_s,
            intervals: result.intervals.len(),
            time_scale,
            aggregate: result.aggregate.clone(),
            extrapolated: result.extrapolated.clone(),
            results: result.aggregate_results.clone(),
        };
        Ok((frame, result))
    }
}

/// Shape `rows` as `n` rows of `width` zeros, parking surplus rows in
/// `spare` and taking missing ones from it, so a frame whose row count
/// alternates between groups stops allocating once it has seen each of
/// them.
fn reshape_rows(rows: &mut Vec<Vec<u64>>, spare: &mut Vec<Vec<u64>>, n: usize, width: usize) {
    while rows.len() > n {
        spare.extend(rows.pop());
    }
    while rows.len() < n {
        rows.push(spare.pop().unwrap_or_default());
    }
    for row in rows {
        row.clear();
        row.resize(width, 0);
    }
}

impl Drop for SessionHandle<'_, '_> {
    fn drop(&mut self) {
        if !self.released {
            // Counters are suspended between intervals, so dropping the
            // TimelineSession mid-run leaves no live counters behind; the
            // broker just needs its slot and locks back.
            self.daemon.release(self.id, true);
        }
    }
}
