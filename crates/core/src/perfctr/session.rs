//! The counter-programming session: from event specification to rendered
//! result tables.

use std::cell::RefCell;

use likwid_perf_events::perfmon::CpuCounters;
use likwid_perf_events::{
    CounterSlot, EventDefinition, EventTable, MultiplexSchedule, PerfMon, PerfMonError,
};
use likwid_x86_machine::{MachineError, SimMachine};

use crate::error::{LikwidError, Result};
use crate::perfctr::groups::{group_definition, EventGroupKind, GroupDefinition};
use crate::perfctr::metrics::MetricEvaluator;
use crate::report::{Ascii, Body, Render, Report, Row, Section, Table, Value};

/// What to measure.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasurementSpec {
    /// One preconfigured group (`-g FLOPS_DP`).
    Group(EventGroupKind),
    /// Several groups measured via multiplexing (`-g FLOPS_DP,MEM` with
    /// round-robin switching).
    Groups(Vec<EventGroupKind>),
    /// Explicit event list (`-g EVENT:PMC0,EVENT2:PMC1`).
    Custom(Vec<(String, CounterSlot)>),
}

/// Configuration of a measurement session.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCtrConfig {
    /// The hardware threads to measure (`-c 0-3`).
    pub cpus: Vec<usize>,
    /// What to measure.
    pub spec: MeasurementSpec,
}

/// Parse a `-g` custom event specification
/// (`SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC0,...:PMC1`).
pub fn parse_event_spec(spec: &str, table: &EventTable) -> Result<Vec<(String, CounterSlot)>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (event, counter) = part.split_once(':').ok_or_else(|| {
            LikwidError::Usage(format!("event spec '{part}' must be EVENT:COUNTER"))
        })?;
        let slot = CounterSlot::parse(counter)
            .ok_or_else(|| LikwidError::UnknownCounter(counter.to_string()))?;
        let def = table.find(event).ok_or_else(|| LikwidError::UnknownEvent(event.to_string()))?;
        if !table.allowed_slots(def).contains(&slot) {
            return Err(LikwidError::Usage(format!(
                "event {event} cannot be counted on {counter}"
            )));
        }
        out.push((event.to_string(), slot));
    }
    if out.is_empty() {
        return Err(LikwidError::Usage("empty event specification".into()));
    }
    Ok(out)
}

/// Parse a `-g` argument into a measurement specification: a preconfigured
/// group name (`MEM`), a comma-separated group list measured via
/// multiplexing (`FLOPS_DP,MEM`), or a custom `EVENT:COUNTER` list.
/// Shared by `likwid-perfctr` and the `likwid-bench` harness.
pub fn parse_measurement_spec(arg: &str, table: &EventTable) -> Result<MeasurementSpec> {
    if let Some(kind) = EventGroupKind::parse(arg) {
        return Ok(MeasurementSpec::Group(kind));
    }
    let parts: Vec<&str> = arg.split(',').map(str::trim).filter(|p| !p.is_empty()).collect();
    if !parts.is_empty() {
        if let Some(kinds) =
            parts.iter().map(|p| EventGroupKind::parse(p)).collect::<Option<Vec<_>>>()
        {
            return Ok(MeasurementSpec::Groups(kinds));
        }
    }
    if arg.contains(':') {
        return Ok(MeasurementSpec::Custom(parse_event_spec(arg, table)?));
    }
    Err(LikwidError::UnknownGroup(arg.to_string()))
}

/// The `--help` paragraph describing which [`parse_measurement_spec`]
/// spellings multiplex. Tools taking a `-g` flag append this through
/// [`crate::args::ArgSpec::note`] so the generated help carries the
/// annotation the one-line flag help cannot.
pub fn multiplex_note() -> &'static str {
    "A comma-separated group list (-g FLOPS_DP,MEM) multiplexes: the groups take turns on \
     the counters and are only measured together in timeline mode or through the session \
     API, where the rotation is extrapolated by schedule coverage. Aggregate runs measure \
     exactly one group; EVENT:CTR lists never multiplex."
}

/// One event group resolved against the architecture's event table.
#[derive(Debug, Clone)]
struct ResolvedGroup {
    name: String,
    /// The preconfigured group, or `None` for a custom event list.
    kind: Option<EventGroupKind>,
    events: Vec<(String, CounterSlot, EventDefinition)>,
}

impl ResolvedGroup {
    fn from_definition(def: &GroupDefinition, table: &EventTable) -> Result<Self> {
        let events = def
            .events
            .iter()
            .map(|(name, slot)| {
                table
                    .find(name)
                    .cloned()
                    .map(|d| (name.to_string(), *slot, d))
                    .ok_or_else(|| LikwidError::UnknownEvent(name.to_string()))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ResolvedGroup { name: def.kind.name().to_string(), kind: Some(def.kind), events })
    }

    fn from_custom(spec: &[(String, CounterSlot)], table: &EventTable) -> Result<Self> {
        let events = spec
            .iter()
            .map(|(name, slot)| {
                table
                    .find(name)
                    .cloned()
                    .map(|d| (name.clone(), *slot, d))
                    .ok_or_else(|| LikwidError::UnknownEvent(name.clone()))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ResolvedGroup { name: "CUSTOM".to_string(), kind: None, events })
    }
}

/// Raw counts of one group: `counts[event_index][cpu_index]`.
pub type GroupCounts = Vec<Vec<u64>>;

/// Shape `counts` as `events` rows of `cpus` zeros. A buffer that already
/// has this shape is zeroed in place, without allocating.
fn zero_counts(counts: &mut GroupCounts, events: usize, cpus: usize) {
    counts.resize_with(events, Vec::new);
    for row in counts {
        row.clear();
        row.resize(cpus, 0);
    }
}

/// One degradation recorded by the self-healing session: what was dropped
/// or corrected, and why. Rendered as the `diagnostics` section of the
/// report, so a partially broken machine still produces a complete run.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What degraded (`cpu 3`, `PMC0 (EVENT) on cpu 1`, …).
    pub subject: String,
    /// Why, and what the session did about it.
    pub reason: String,
}

/// Healing effort spent by a session. Deliberately not part of
/// [`PerfCtrResults`]: retries, backoff and reprogramming never change
/// measured values, so results under transient faults stay bit-identical
/// to a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealingStats {
    /// Individual MSR accesses that had to be repeated (transient EIO).
    pub msr_retries: u64,
    /// Deterministic exponential-backoff units spent between attempts.
    pub backoff_units: u64,
    /// Counters reprogrammed after a verify-after-write mismatch.
    pub reprograms: u64,
    /// Counters or cpus dropped from the session (permanent faults).
    pub degradations: usize,
}

/// Per-slot wraparound and liveness tracking.
#[derive(Debug, Clone, Default)]
struct SlotHeal {
    /// Last raw (width-masked) counter value seen.
    last_raw: u64,
    /// Last machine-side wide (unwrapped) value seen, for multi-wrap
    /// detection.
    last_wide: u64,
    /// Wrap-corrected cumulative count since the slot was last programmed.
    unwrapped: u64,
    /// The slot was dropped (stuck register); it reads as frozen zeros.
    dead: bool,
    /// A multi-wrap diagnostic was already recorded for this slot.
    wrap_warned: bool,
}

/// Mutable healing state of a session, behind a `RefCell` because
/// [`PerfCtr::read_counts`] must stay `&self` (the marker API reads through
/// a shared reference).
#[derive(Debug, Default)]
struct HealState {
    /// Tracking per `[group][event][cpu position]`.
    slots: Vec<Vec<Vec<SlotHeal>>>,
    /// Cpus whose MSR device failed permanently; their counts freeze.
    dead_cpus: Vec<usize>,
    /// Everything that degraded, in occurrence order.
    diagnostics: Vec<Diagnostic>,
    /// Counters reprogrammed after a verify mismatch.
    reprograms: u64,
}

impl HealState {
    fn cpu_is_dead(&self, cpu: usize) -> bool {
        self.dead_cpus.contains(&cpu)
    }

    fn mark_cpu_dead(&mut self, cpu: usize, err: &PerfMonError) {
        if !self.cpu_is_dead(cpu) {
            self.dead_cpus.push(cpu);
            self.diagnostics.push(Diagnostic {
                subject: format!("cpu {cpu}"),
                reason: format!("dropped from the measurement: {err}"),
            });
        }
    }
}

/// Whether a counter-programming error is a permanently failing MSR access.
/// Transient EIO is already retried away inside [`PerfMon`], so an I/O error
/// escaping it means the device is gone for good (a dead cpu).
fn is_permanent_io(e: &PerfMonError) -> bool {
    matches!(e, PerfMonError::Msr(MachineError::MsrIo { .. }))
}

/// A measurement session over one machine.
///
/// The session opens one MSR device per measured hardware thread, resolves
/// the requested groups against the architecture's event table, applies
/// socket locks for uncore events (only the first measured hardware thread
/// of each socket programs and reads the package-level counters), and — in
/// multiplexing mode — rotates through the groups with round-robin
/// accounting.
///
/// Every start and stop touches exactly the active group's counter slots,
/// and programming, starting, stopping and reading lock the machine's
/// register file once per cpu ([`PerfMon::on_cpu`]). Folding live counts
/// into the accumulators reads into one reused buffer per group, so a
/// session that suspends and resumes every interval allocates nothing once
/// warm.
pub struct PerfCtr<'m> {
    machine: &'m SimMachine,
    cpus: Vec<usize>,
    groups: Vec<ResolvedGroup>,
    perfmon: PerfMon,
    /// The first measured cpu of each socket: the owner of that socket's
    /// uncore counters (the "socket lock" of the paper).
    socket_owners: Vec<usize>,
    active_group: usize,
    schedule: MultiplexSchedule,
    /// Accumulated raw counts per group (multiplex mode).
    accumulated: Vec<GroupCounts>,
    /// The live counts last folded into `accumulated`, per group: a reused
    /// read buffer.
    live: Vec<GroupCounts>,
    /// The counter slots of every group, in programming order.
    slots: Vec<Vec<CounterSlot>>,
    /// The core (non-uncore) slots of every group: all that a cpu that
    /// does not own its socket's uncore starts and stops.
    core_slots: Vec<Vec<CounterSlot>>,
    /// Width mask of the counter behind each `[group][event]`, for
    /// wraparound-correct delta computation.
    masks: Vec<Vec<u64>>,
    /// The derived metrics of every group.
    metrics: MetricEvaluator,
    /// Wraparound/degradation tracking (interior mutability: reads heal).
    heal: RefCell<HealState>,
    running: bool,
    /// Whether the session was ever started (reads before that are misuse).
    started: bool,
    /// Whether the session currently yields the hardware to other sessions
    /// (between [`PerfCtr::suspend`] and [`PerfCtr::resume`]). While
    /// suspended, the counter registers may hold foreign sessions' state and
    /// must not be folded into this session's accumulators.
    suspended: bool,
}

impl<'m> PerfCtr<'m> {
    /// Create a session.
    pub fn new(machine: &'m SimMachine, config: PerfCtrConfig) -> Result<Self> {
        let setup_started = crate::trace::now();
        if config.cpus.is_empty() {
            return Err(LikwidError::Usage("no hardware threads selected (-c)".into()));
        }
        let table = likwid_perf_events::tables::for_arch(machine.arch());
        let groups: Vec<ResolvedGroup> = match &config.spec {
            MeasurementSpec::Group(kind) => {
                vec![ResolvedGroup::from_definition(
                    &group_definition(machine.arch(), *kind)?,
                    &table,
                )?]
            }
            MeasurementSpec::Groups(kinds) => {
                if kinds.is_empty() {
                    return Err(LikwidError::Usage("no groups given".into()));
                }
                kinds
                    .iter()
                    .map(|k| {
                        ResolvedGroup::from_definition(
                            &group_definition(machine.arch(), *k)?,
                            &table,
                        )
                    })
                    .collect::<Result<Vec<_>>>()?
            }
            MeasurementSpec::Custom(spec) => vec![ResolvedGroup::from_custom(spec, &table)?],
        };

        // Validate counter capacity per group.
        for g in &groups {
            let pmcs = g.events.iter().filter(|(_, s, _)| matches!(s, CounterSlot::Pmc(_))).count();
            if pmcs > table.num_pmc {
                return Err(LikwidError::NotEnoughCounters {
                    requested: pmcs,
                    available: table.num_pmc,
                });
            }
        }

        // Socket locks: the first measured cpu of each socket owns the uncore.
        let topo = machine.topology();
        let mut sockets = Vec::new();
        let mut socket_owners = Vec::new();
        for &cpu in &config.cpus {
            let socket = topo.hw_thread(cpu)?.socket;
            if !sockets.contains(&socket) {
                sockets.push(socket);
                socket_owners.push(cpu);
            }
        }

        let events: Vec<Vec<(String, CounterSlot)>> = groups
            .iter()
            .map(|g| g.events.iter().map(|(name, slot, _)| (name.clone(), *slot)).collect())
            .collect();
        let kinds: Vec<_> = groups.iter().zip(&events).map(|(g, e)| (g.kind, &e[..])).collect();
        let metrics = MetricEvaluator::new(machine.arch(), machine.clock(), &config.cpus, &kinds)?;

        let perfmon = PerfMon::new(machine, &config.cpus)?;
        let num_groups = groups.len();
        let accumulated: Vec<GroupCounts> =
            groups.iter().map(|g| vec![vec![0u64; config.cpus.len()]; g.events.len()]).collect();
        let slots: Vec<Vec<CounterSlot>> =
            groups.iter().map(|g| g.events.iter().map(|(_, slot, _)| *slot).collect()).collect();
        let core_slots = slots
            .iter()
            .map(|group| group.iter().copied().filter(|slot| !slot.is_uncore()).collect())
            .collect();
        let masks = slots
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&slot| {
                        let bits = table.counter_bits(slot);
                        if bits == 0 || bits >= 64 {
                            u64::MAX
                        } else {
                            (1u64 << bits) - 1
                        }
                    })
                    .collect()
            })
            .collect();
        let heal = RefCell::new(HealState {
            slots: groups
                .iter()
                .map(|g| vec![vec![SlotHeal::default(); config.cpus.len()]; g.events.len()])
                .collect(),
            ..HealState::default()
        });

        let mut session = PerfCtr {
            machine,
            cpus: config.cpus,
            groups,
            perfmon,
            socket_owners,
            active_group: 0,
            schedule: MultiplexSchedule::new(num_groups),
            live: accumulated.clone(),
            accumulated,
            slots,
            core_slots,
            masks,
            metrics,
            heal,
            running: false,
            started: false,
            suspended: false,
        };
        session.program_group(0)?;
        crate::trace::complete_since(
            crate::trace::cat::CORE,
            setup_started,
            || "session.setup".to_string(),
            || {
                vec![
                    ("cpus", format!("{:?}", session.cpus)),
                    ("groups", session.groups.len().to_string()),
                ]
            },
        );
        Ok(session)
    }

    /// The machine the session measures.
    pub(crate) fn machine(&self) -> &'m SimMachine {
        self.machine
    }

    /// The measured hardware threads.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Number of event groups in this session (more than one only in
    /// multiplexing mode).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The index of the currently programmed group.
    pub(crate) fn active_group(&self) -> usize {
        self.active_group
    }

    /// Whether a cpu owns its socket's uncore counters in this session.
    pub(crate) fn owns_socket_lock(&self, cpu: usize) -> bool {
        self.socket_owners.contains(&cpu)
    }

    /// The socket-lock owners, in measured-cpu order.
    pub fn socket_lock_owners(&self) -> Vec<usize> {
        self.cpus.iter().copied().filter(|&cpu| self.owns_socket_lock(cpu)).collect()
    }

    /// Program all counters of group `index` (does not start them).
    ///
    /// Every programmed counter is verified by reading its state back; a
    /// mismatch (e.g. a stuck PERFEVTSEL) is answered by reprogramming, and
    /// a counter that still does not hold its state after three rounds is
    /// dropped from the session with a diagnostic instead of failing the
    /// run. A cpu whose MSR device fails permanently (EIO surviving the
    /// per-access retries inside [`PerfMon`]) is dropped entirely; a cpu
    /// that is dead once programming ends reads zero for every event of the
    /// group, so a later reprogramming never re-reports counts that were
    /// already folded into the accumulators.
    fn program_group(&mut self, index: usize) -> Result<()> {
        const MAX_PROGRAM_ATTEMPTS: u32 = 3;
        let group = &self.groups[index];
        let mut heal = self.heal.borrow_mut();
        'cpus: for (ci, &cpu) in self.cpus.iter().enumerate() {
            if heal.cpu_is_dead(cpu) {
                continue;
            }
            let mut counters = self.perfmon.on_cpu(cpu)?;
            for (ei, (name, slot, def)) in group.events.iter().enumerate() {
                if slot.is_uncore() && !self.owns_socket_lock(cpu) {
                    continue;
                }
                // Fresh wrap tracking for this programming cycle; dead slots
                // stay dead and contribute frozen zeros from here on.
                let was_dead = heal.slots[index][ei][ci].dead;
                heal.slots[index][ei][ci] = SlotHeal { dead: was_dead, ..SlotHeal::default() };
                if was_dead {
                    continue;
                }
                let mut programmed = false;
                for _ in 0..MAX_PROGRAM_ATTEMPTS {
                    match counters.setup(*slot, def) {
                        Ok(()) => {}
                        Err(e) if is_permanent_io(&e) => {
                            heal.mark_cpu_dead(cpu, &e);
                            continue 'cpus;
                        }
                        Err(e) => return Err(e.into()),
                    }
                    match counters.verify(*slot, def) {
                        Ok(true) => {
                            programmed = true;
                            break;
                        }
                        Ok(false) => heal.reprograms += 1,
                        Err(e) if is_permanent_io(&e) => {
                            heal.mark_cpu_dead(cpu, &e);
                            continue 'cpus;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                if programmed {
                    // The counter was just zeroed; resynchronise the wide
                    // (machine-side, unwrapped) baseline used for multi-wrap
                    // detection.
                    heal.slots[index][ei][ci].last_wide = counters.wide_value(*slot).unwrap_or(0);
                } else {
                    heal.slots[index][ei][ci].dead = true;
                    heal.diagnostics.push(Diagnostic {
                        subject: format!("{} ({name}) on cpu {cpu}", slot.name()),
                        reason: format!(
                            "programmed state did not stick after \
                             {MAX_PROGRAM_ATTEMPTS} attempts; counter dropped"
                        ),
                    });
                }
            }
        }
        // A cpu that is dead once programming ends reads frozen zeros in
        // this cycle: neither the tracking of an earlier cycle (skipped
        // above) nor that of the slots reached before it died mid-way may
        // resurface as a fresh count.
        for (ci, &cpu) in self.cpus.iter().enumerate() {
            if heal.cpu_is_dead(cpu) {
                for event in &mut heal.slots[index] {
                    event[ci] = SlotHeal { dead: event[ci].dead, ..SlotHeal::default() };
                }
            }
        }
        drop(heal);
        self.active_group = index;
        Ok(())
    }

    /// Start counting on all measured hardware threads.
    ///
    /// Enables exactly the active group's counter slots (not every
    /// programmed select register on the cpu; the uncore slots only on the
    /// socket-lock owners): under the `likwid-perfctrd`
    /// broker other sessions leave their selects programmed-but-disabled
    /// across a suspend, and blanket-enabling them would count this
    /// session's activity into a foreign session's registers.
    pub fn start(&mut self) -> Result<()> {
        if self.running {
            return Err(LikwidError::Session(
                "start() called while the session is already counting (stop() it first)".into(),
            ));
        }
        self.on_live_cpus(|cpu, counters| counters.start_slots(self.slots_on(cpu)))?;
        self.running = true;
        self.started = true;
        Ok(())
    }

    /// The active group's slots that `cpu` starts and stops: all of them
    /// on a socket-lock owner, the core ones elsewhere. Like
    /// [`PerfCtr::program_group`], a cpu that does not own its socket's
    /// uncore leaves the package-scoped uncore registers alone.
    fn slots_on(&self, cpu: usize) -> &[CounterSlot] {
        if self.owns_socket_lock(cpu) {
            &self.slots[self.active_group]
        } else {
            &self.core_slots[self.active_group]
        }
    }

    /// Apply a counter operation to every measured cpu still alive, one
    /// register-file lock per cpu. A cpu whose MSR device fails permanently
    /// is dropped with a diagnostic instead of failing the run.
    fn on_live_cpus(
        &self,
        op: impl Fn(usize, &mut CpuCounters<'_>) -> std::result::Result<(), PerfMonError>,
    ) -> Result<()> {
        let mut heal = self.heal.borrow_mut();
        for &cpu in &self.cpus {
            if heal.cpu_is_dead(cpu) {
                continue;
            }
            match self.perfmon.on_cpu(cpu).and_then(|mut counters| op(cpu, &mut counters)) {
                Ok(()) => {}
                Err(e) if is_permanent_io(&e) => heal.mark_cpu_dead(cpu, &e),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Stop counting on all measured hardware threads: disable exactly the
    /// active group's counter slots, the mirror of [`PerfCtr::start`].
    /// Counters keep their values.
    pub fn stop(&mut self) -> Result<()> {
        self.on_live_cpus(|cpu, counters| counters.stop_slots(self.slots_on(cpu)))?;
        self.running = false;
        Ok(())
    }

    /// Read the current counts of the active group:
    /// `counts[event][cpu_position]`. Uncore events are attributed to the
    /// socket-lock owner; other cpus read 0 for them.
    ///
    /// Counts are wraparound-corrected against the implemented counter width
    /// (40/48-bit PMCs, 44-bit fixed counters): a raw value below the last
    /// one seen is one wrap, not a negative delta. A counter that advances a
    /// full wrap period or more between two reads cannot be corrected from
    /// the raw values alone; that case is detected against the machine-side
    /// wide shadow and reported as a diagnostic rather than silently
    /// mis-corrected. Dead cpus/counters return their last good (frozen)
    /// value since the group was last programmed, which is zero for a cpu
    /// that was already dead when it was.
    pub fn read_counts(&self) -> Result<GroupCounts> {
        let mut counts = GroupCounts::new();
        self.read_counts_into(&mut counts)?;
        Ok(counts)
    }

    /// [`PerfCtr::read_counts`] into a caller-owned buffer, reshaped to the
    /// active group; a buffer that already has that shape is reused
    /// without allocating. The counters are read cpu by cpu, under one
    /// register-file lock per cpu.
    pub fn read_counts_into(&self, counts: &mut GroupCounts) -> Result<()> {
        if !self.started {
            return Err(LikwidError::Session(
                "read_counts() called before the session was ever start()ed".into(),
            ));
        }
        let active = self.active_group;
        let slots = &self.slots[active];
        zero_counts(counts, slots.len(), self.cpus.len());
        let mut heal = self.heal.borrow_mut();
        let heal = &mut *heal;
        let frozen = |heal: &HealState, ei: usize, ci: usize| heal.slots[active][ei][ci].unwrapped;
        for (ci, &cpu) in self.cpus.iter().enumerate() {
            let owner = self.owns_socket_lock(cpu);
            let mut device = None;
            for (ei, (&slot, &mask)) in slots.iter().zip(&self.masks[active]).enumerate() {
                if slot.is_uncore() && !owner {
                    continue;
                }
                if heal.cpu_is_dead(cpu) || heal.slots[active][ei][ci].dead {
                    counts[ei][ci] = frozen(heal, ei, ci);
                    continue;
                }
                // The device read and the machine-side shadow next to it,
                // under the cpu's one register-file lock.
                if device.is_none() {
                    device = Some(self.perfmon.on_cpu(cpu)?);
                }
                let counters = device.as_ref().expect("opened above");
                let (raw, wide) = match counters.read(slot) {
                    Ok(raw) => (raw, counters.wide_value(slot).ok()),
                    Err(e) if is_permanent_io(&e) => {
                        heal.mark_cpu_dead(cpu, &e);
                        counts[ei][ci] = frozen(heal, ei, ci);
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                let track = &mut heal.slots[active][ei][ci];
                let delta = raw.wrapping_sub(track.last_raw) & mask;
                track.last_raw = raw;
                track.unwrapped = track.unwrapped.wrapping_add(delta);
                counts[ei][ci] = track.unwrapped;
                // Multi-wrap guard: the machine side keeps an unwrapped
                // shadow of every counter; a disagreement with the
                // width-corrected delta means at least one full wrap period
                // was lost inside this read interval.
                if let Some(wide) = wide {
                    let wide_delta = wide.wrapping_sub(track.last_wide);
                    track.last_wide = wide;
                    if wide_delta != delta && !track.wrap_warned {
                        track.wrap_warned = true;
                        let lost = wide_delta.wrapping_sub(delta);
                        heal.diagnostics.push(Diagnostic {
                            subject: format!("{} on cpu {cpu}", slot.name()),
                            reason: format!(
                                "counter wrapped more than once within one read \
                                 interval ({lost} counts lost; read more often)"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of events of a group (the row count of its [`GroupCounts`]).
    pub(crate) fn num_events(&self, group: usize) -> usize {
        self.slots[group].len()
    }

    /// Add the active group's live counts to its accumulator: `reading`
    /// when the caller has just read them, else a fresh read.
    fn fold(&mut self, reading: Option<&GroupCounts>) -> Result<()> {
        let active = self.active_group;
        let mut live = std::mem::take(&mut self.live[active]);
        let read = match reading {
            Some(_) => Ok(()),
            None => self.read_counts_into(&mut live),
        };
        if read.is_ok() {
            let reading = reading.unwrap_or(&live);
            for (sums, row) in self.accumulated[active].iter_mut().zip(reading) {
                for (sum, &v) in sums.iter_mut().zip(row) {
                    *sum += v;
                }
            }
        }
        self.live[active] = live;
        read
    }

    /// Multiplexing: accumulate the active group's counts, rotate to the next
    /// group, reprogram and keep running. Mirrors the round-robin counter
    /// reassignment of the real tool.
    pub fn switch_group(&mut self) -> Result<usize> {
        self.rotate(None)
    }

    /// [`PerfCtr::switch_group`], folding `reading`, the active group's
    /// counts just read, instead of reading them again.
    pub(crate) fn rotate(&mut self, reading: Option<&GroupCounts>) -> Result<usize> {
        if self.groups.len() < 2 {
            return Err(LikwidError::Session(
                "switch_group() needs at least two groups (multiplexing mode)".into(),
            ));
        }
        let was_running = self.running;
        if was_running {
            self.stop()?;
        }
        self.fold(reading)?;
        let next = self.advance();
        self.program_group(next)?;
        if was_running {
            self.start()?;
        }
        Ok(next)
    }

    /// Account the active group's slice in the multiplex schedule and make
    /// the next group the active one, without programming it.
    fn advance(&mut self) -> usize {
        self.schedule.tick();
        self.active_group = (self.active_group + 1) % self.groups.len();
        self.active_group
    }

    /// Finish a multiplexed measurement: stop counting and fold any residual
    /// counts of the active group into its accumulator. Unlike
    /// [`PerfCtr::switch_group`] this does not account a schedule interval —
    /// intervals correspond to the completed measurement slices, which is
    /// what the extrapolation divides by.
    pub fn finish(&mut self) -> Result<()> {
        if self.suspended {
            // A suspended session already folded everything it measured at
            // suspend time; whatever the registers hold now is either
            // already folded or was put there by another session
            // borrowing them.
            return Ok(());
        }
        if self.running {
            self.stop()?;
        }
        self.fold(None)
    }

    /// Yield the hardware between cross-session time slices (the
    /// `likwid-perfctrd` broker multiplexes counter programming *between*
    /// sessions sharing cpus, extending the in-session group rotation of
    /// [`PerfCtr::switch_group`] across session boundaries): stop the
    /// active group's counter slots and fold `reading`, the group's counts
    /// as last read while it counted, into its accumulator. The counters
    /// are not read again: nothing may count between that reading and the
    /// suspend. A multiplexed session then advances to its next group
    /// without programming it; [`PerfCtr::resume`] programs it. The
    /// registers keep their values and their disabled programming, and a
    /// foreign session may borrow and reprogram them before the resume;
    /// [`PerfCtr::finish`] of a suspended session reads nothing, so the
    /// folded counts are never counted twice.
    pub fn suspend(&mut self, reading: &GroupCounts) -> Result<()> {
        if self.running {
            self.stop()?;
        }
        self.fold(Some(reading))?;
        if self.groups.len() > 1 {
            self.advance();
        }
        self.suspended = true;
        Ok(())
    }

    /// Reclaim the hardware after [`PerfCtr::suspend`]: program the
    /// active group (another session may have owned the registers in
    /// between, so the stored configuration cannot be trusted) and start
    /// counting from zero.
    pub fn resume(&mut self) -> Result<()> {
        if self.running {
            return Err(LikwidError::Session(
                "resume() called while the session is counting (suspend() it first)".into(),
            ));
        }
        self.program_group(self.active_group)?;
        self.suspended = false;
        self.start()
    }

    /// The `(event name, counter slot)` list of a group, in programming
    /// order (the row order of the events table).
    pub fn group_events(&self, group: usize) -> Vec<(String, CounterSlot)> {
        self.groups[group].events.iter().map(|(name, slot, _)| (name.clone(), *slot)).collect()
    }

    /// The derived metrics of every group of this session.
    pub fn metrics(&self) -> &MetricEvaluator {
        &self.metrics
    }

    /// The extrapolated counts of a group after a multiplexed run.
    pub(crate) fn extrapolated_counts(&self, group: usize) -> GroupCounts {
        self.accumulated[group]
            .iter()
            .map(|per_cpu| per_cpu.iter().map(|&v| self.schedule.extrapolate(group, v)).collect())
            .collect()
    }

    /// The raw accumulated counts of a group (no extrapolation): exactly
    /// what was measured while the group's counters were live.
    pub(crate) fn accumulated_counts(&self, group: usize) -> GroupCounts {
        self.accumulated[group].clone()
    }

    /// The name of a group by index.
    pub fn group_name(&self, group: usize) -> &str {
        &self.groups[group].name
    }

    /// Everything that degraded so far (empty on a healthy machine).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.heal.borrow().diagnostics.clone()
    }

    /// The healing effort spent so far: MSR retries, backoff units,
    /// reprogrammed counters and recorded degradations.
    pub fn healing_stats(&self) -> HealingStats {
        let heal = self.heal.borrow();
        let msr = self.perfmon.retry_stats();
        HealingStats {
            msr_retries: msr.retries,
            backoff_units: msr.backoff_units,
            reprograms: heal.reprograms,
            degradations: heal.diagnostics.len(),
        }
    }

    /// Compute results (event table + derived metrics) for the active group
    /// from raw counts.
    pub fn results(&self, counts: &GroupCounts) -> Result<PerfCtrResults> {
        self.results_for_group(self.active_group, counts)
    }

    /// Compute results for an arbitrary group index (used by the multiplexed
    /// and marker paths). The derived metrics' `time` variable is bound to
    /// the group's time formula (total runtime from the cycle counters) —
    /// the aggregate-mode binding.
    pub(crate) fn results_for_group(
        &self,
        group: usize,
        counts: &GroupCounts,
    ) -> Result<PerfCtrResults> {
        let g = &self.groups[group];
        let values = self.metrics.aggregate(group, counts)?;
        let metrics = self.metrics.metric_names(group).into_iter().zip(values).collect();

        Ok(PerfCtrResults {
            group_name: g.name.clone(),
            cpus: self.cpus.clone(),
            events: g
                .events
                .iter()
                .enumerate()
                .map(|(ei, (name, slot, _))| (name.clone(), *slot, counts[ei].clone()))
                .collect(),
            metrics,
            diagnostics: self.diagnostics(),
        })
    }

    /// Convenience wrapper-mode flow: start, run `body`, stop, and return the
    /// results of the active group. `body` receives the machine so it can
    /// drive workload execution.
    pub fn measure<T>(
        &mut self,
        body: impl FnOnce(&SimMachine) -> T,
    ) -> Result<(T, PerfCtrResults)> {
        self.start()?;
        let value = body(self.machine);
        self.stop()?;
        let counts = self.read_counts()?;
        let results = self.results(&counts)?;
        Ok((value, results))
    }
}

/// Measured event counts and derived metrics, ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCtrResults {
    /// Group name (e.g. "FLOPS_DP").
    pub group_name: String,
    /// Measured hardware threads (column order).
    pub cpus: Vec<usize>,
    /// `(event name, counter, per-cpu counts)`.
    pub events: Vec<(String, CounterSlot, Vec<u64>)>,
    /// `(metric name, per-cpu values)`.
    pub metrics: Vec<(String, Vec<f64>)>,
    /// Degradations recorded by the session (empty on a healthy machine;
    /// transient faults are healed without a trace so faulted and fault-free
    /// results compare equal).
    pub diagnostics: Vec<Diagnostic>,
}

impl PerfCtrResults {
    /// The count of an event on one measured cpu (by position).
    pub fn event_count(&self, event: &str, cpu_position: usize) -> Option<u64> {
        self.events
            .iter()
            .find(|(n, _, _)| n == event)
            .and_then(|(_, _, counts)| counts.get(cpu_position).copied())
    }

    /// The value of a metric on one measured cpu (by position).
    pub fn metric(&self, name: &str, cpu_position: usize) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.get(cpu_position).copied())
    }

    /// Build the structured report of the measurement: the event-count
    /// table, followed by the derived-metric table when the group defines
    /// metrics. Rows are keyed by event/metric name, columns by `core N`,
    /// so consumers read typed counts via [`Table::cell`] instead of
    /// scraping the listing.
    pub fn report(&self) -> Report {
        let mut report = Report::new(format!("likwid-perfctr.{}", self.group_name));
        let mut header: Vec<String> = vec!["Event".to_string()];
        header.extend(self.cpus.iter().map(|c| format!("core {c}")));
        let mut events_table = Table::bordered(header);
        for (name, _, counts) in &self.events {
            let mut row = vec![Value::Str(name.clone())];
            row.extend(counts.iter().map(|&c| Value::Count(c)));
            events_table.push(Row::new(row));
        }
        report.push(Section::new("events", Body::Table(events_table)));

        if !self.metrics.is_empty() {
            let mut header: Vec<String> = vec!["Metric".to_string()];
            header.extend(self.cpus.iter().map(|c| format!("core {c}")));
            let mut metrics_table = Table::bordered(header);
            for (name, values) in &self.metrics {
                let mut row = vec![Value::Str(name.clone())];
                row.extend(values.iter().map(|&v| Value::Real(v)));
                metrics_table.push(Row::new(row));
            }
            report.push(Section::new("metrics", Body::Table(metrics_table)));
        }

        if !self.diagnostics.is_empty() {
            let mut table = Table::bordered(vec!["Degraded".to_string(), "Reason".to_string()]);
            for d in &self.diagnostics {
                table.push(Row::new(vec![
                    Value::Str(d.subject.clone()),
                    Value::Str(d.reason.clone()),
                ]));
            }
            report.push(
                Section::new("diagnostics", Body::Table(table)).with_boxed_heading("Diagnostics"),
            );
        }
        report
    }

    /// Render the two tables of the tool output (events, then metrics), in
    /// the style of the FLOPS_DP listing of the paper.
    pub fn render(&self) -> String {
        Ascii.render(&self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_perf_events::perfmon::slot_registers;
    use likwid_perf_events::{EventEngine, EventSample, HwEventKind};
    use likwid_x86_machine::MachinePreset;

    /// Drive a synthetic "workload" through the counting engine: every
    /// measured cpu retires the given per-thread counts.
    fn apply_activity(
        machine: &SimMachine,
        activity: &[(usize, HwEventKind, u64)],
        uncore: &[(usize, HwEventKind, u64)],
    ) {
        let engine = EventEngine::new(machine);
        let mut sample =
            EventSample::new(machine.num_hw_threads(), machine.topology().sockets as usize);
        for &(cpu, kind, value) in activity {
            sample.threads[cpu].add(kind, value);
        }
        for &(socket, kind, value) in uncore {
            sample.sockets[socket].add(kind, value);
        }
        engine.apply(machine, &sample);
    }

    #[test]
    fn flops_dp_wrapper_mode_reproduces_the_paper_listing_shape() {
        // The paper's Core 2 Quad FLOPS_DP marker listing: 8.192e6 packed DP
        // operations per core in the benchmark region, ~1640 MFlops/s.
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let config = PerfCtrConfig {
            cpus: vec![0, 1, 2, 3],
            spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP),
        };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        session.start().unwrap();
        let activity: Vec<(usize, HwEventKind, u64)> = (0..4)
            .flat_map(|cpu| {
                vec![
                    (cpu, HwEventKind::SimdPackedDouble, 8_192_000),
                    (cpu, HwEventKind::SimdScalarDouble, 1),
                    (cpu, HwEventKind::InstructionsRetired, 18_802_400),
                    (cpu, HwEventKind::CoreCycles, 28_583_800),
                ]
            })
            .collect();
        apply_activity(&machine, &activity, &[]);
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();

        assert_eq!(results.event_count("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", 0), Some(8_192_000));
        assert_eq!(results.event_count("INSTR_RETIRED_ANY", 2), Some(18_802_400));
        let cpi = results.metric("CPI", 0).unwrap();
        assert!((cpi - 1.52).abs() < 0.01, "CPI should be ~1.52, got {cpi}");
        let runtime = results.metric("Runtime [s]", 0).unwrap();
        assert!((runtime - 0.0101).abs() < 0.0003, "runtime ~10.1 ms, got {runtime}");
        let mflops = results.metric("DP MFlops/s", 0).unwrap();
        assert!((mflops - 1620.0).abs() < 30.0, "~1620 MFlops/s, got {mflops}");
        let rendered = results.render();
        assert!(rendered.contains("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE"));
        assert!(rendered.contains("DP MFlops/s"));
    }

    #[test]
    fn uncore_events_use_socket_locks() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        // Measure all 8 physical-core SMT-0 threads across both sockets.
        let cpus: Vec<usize> = (0..8).collect();
        let config =
            PerfCtrConfig { cpus: cpus.clone(), spec: MeasurementSpec::Group(EventGroupKind::MEM) };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        // Socket 0's owner is cpu 0, socket 1's owner is cpu 4.
        assert!(session.owns_socket_lock(0));
        assert!(session.owns_socket_lock(4));
        assert!(!session.owns_socket_lock(1));
        session.start().unwrap();
        apply_activity(
            &machine,
            &(0..8).map(|c| (c, HwEventKind::CoreCycles, 2_660_000_000)).collect::<Vec<_>>(),
            &[
                (0, HwEventKind::MemoryReads, 900_000_000),
                (0, HwEventKind::MemoryWrites, 300_000_000),
                (1, HwEventKind::MemoryReads, 100_000_000),
            ],
        );
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();
        // The uncore read event is attributed to the socket owners only.
        assert_eq!(results.event_count("UNC_QMC_NORMAL_READS_ANY", 0), Some(900_000_000));
        assert_eq!(results.event_count("UNC_QMC_NORMAL_READS_ANY", 1), Some(0));
        assert_eq!(results.event_count("UNC_QMC_NORMAL_READS_ANY", 4), Some(100_000_000));
        // Memory bandwidth on the socket-0 owner: (0.9e9+0.3e9)*64/1s ≈ 76.8 GB/s
        // over a 1-second (2.66e9 cycles) run.
        let bw = results.metric("Memory bandwidth [MBytes/s]", 0).unwrap();
        assert!((bw - 76_800.0).abs() / 76_800.0 < 0.01, "got {bw}");
    }

    #[test]
    fn custom_event_spec_is_parsed_and_validated() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let table = likwid_perf_events::tables::for_arch(machine.arch());
        let spec = parse_event_spec(
            "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC0,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE:PMC1",
            &table,
        )
        .unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec[0].1, CounterSlot::Pmc(0));

        assert!(parse_event_spec("NO_SUCH_EVENT:PMC0", &table).is_err());
        assert!(parse_event_spec("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC9", &table).is_err());
        assert!(parse_event_spec("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", &table).is_err());
        assert!(parse_event_spec("", &table).is_err());

        let config = PerfCtrConfig { cpus: vec![1], spec: MeasurementSpec::Custom(spec) };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        session.start().unwrap();
        apply_activity(&machine, &[(1, HwEventKind::SimdPackedDouble, 1234)], &[]);
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();
        assert_eq!(results.event_count("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", 0), Some(1234));
        assert!(results.metrics.is_empty(), "custom specs have no derived metrics");
    }

    #[test]
    fn event_spec_rejects_counters_that_cannot_carry_the_event() {
        use likwid_perf_events::CounterSlot as Slot;
        use likwid_perf_events::{tables, CounterClass};
        use likwid_x86_machine::Microarch;

        for &arch in Microarch::all() {
            let table = tables::for_arch(arch);

            // A general-purpose core event accepts any PMC but never a slot
            // from a different counter class.
            let pmc_event = table
                .events
                .iter()
                .find(|e| matches!(e.counters, CounterClass::AnyPmc))
                .unwrap_or_else(|| panic!("{arch:?} has no AnyPmc event"));
            for n in 0..table.num_pmc as u8 {
                let spec = format!("{}:PMC{n}", pmc_event.name);
                assert!(parse_event_spec(&spec, &table).is_ok(), "{arch:?} {spec}");
            }
            let beyond = format!("{}:PMC{}", pmc_event.name, table.num_pmc);
            assert!(parse_event_spec(&beyond, &table).is_err(), "{arch:?} {beyond}");
            if table.num_fixed > 0 {
                let spec = format!("{}:FIXC0", pmc_event.name);
                assert!(parse_event_spec(&spec, &table).is_err(), "{arch:?} {spec}");
            }
            if table.num_uncore_pmc > 0 {
                let spec = format!("{}:UPMC0", pmc_event.name);
                assert!(parse_event_spec(&spec, &table).is_err(), "{arch:?} {spec}");
            }

            // Fixed events are pinned to their one fixed counter.
            if let Some(fixed) =
                table.events.iter().find(|e| matches!(e.counters, CounterClass::Fixed(_)))
            {
                let CounterClass::Fixed(slot) = fixed.counters else { unreachable!() };
                let ok = format!("{}:FIXC{slot}", fixed.name);
                assert!(parse_event_spec(&ok, &table).is_ok(), "{arch:?} {ok}");
                let wrong = format!("{}:PMC0", fixed.name);
                assert!(parse_event_spec(&wrong, &table).is_err(), "{arch:?} {wrong}");
                let other_fixed = format!("{}:FIXC{}", fixed.name, (slot + 1) % 3);
                assert!(parse_event_spec(&other_fixed, &table).is_err(), "{arch:?} {other_fixed}");
            }

            // Uncore events never schedule on core counters and vice versa.
            if let Some(uncore) =
                table.events.iter().find(|e| matches!(e.counters, CounterClass::AnyUncorePmc))
            {
                let ok = format!("{}:UPMC0", uncore.name);
                let spec = parse_event_spec(&ok, &table).unwrap();
                assert_eq!(spec[0].1, Slot::UncorePmc(0));
                let wrong = format!("{}:PMC0", uncore.name);
                assert!(parse_event_spec(&wrong, &table).is_err(), "{arch:?} {wrong}");
            }
        }
    }

    #[test]
    fn every_documented_event_parses_on_its_first_allowed_slot() {
        use likwid_perf_events::tables;
        use likwid_x86_machine::Microarch;

        for &arch in Microarch::all() {
            let table = tables::for_arch(arch);
            for event in &table.events {
                let slots = table.allowed_slots(event);
                let slot = slots.first().expect("validated non-empty by the tables tests");
                let spec = format!("{}:{}", event.name, slot.name());
                let parsed = parse_event_spec(&spec, &table)
                    .unwrap_or_else(|e| panic!("{arch:?} '{spec}' failed: {e}"));
                assert_eq!(parsed, vec![(event.name.to_string(), *slot)]);
            }
        }
    }

    #[test]
    fn measurement_specs_parse_groups_lists_and_custom_events() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let table = likwid_perf_events::tables::for_arch(machine.arch());
        assert_eq!(
            parse_measurement_spec("MEM", &table).unwrap(),
            MeasurementSpec::Group(EventGroupKind::MEM)
        );
        assert_eq!(
            parse_measurement_spec("FLOPS_DP,MEM", &table).unwrap(),
            MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::MEM])
        );
        assert!(matches!(
            parse_measurement_spec("L1D_REPL:PMC0", &table).unwrap(),
            MeasurementSpec::Custom(_)
        ));
        assert!(matches!(
            parse_measurement_spec("NOT_A_GROUP", &table),
            Err(LikwidError::UnknownGroup(_))
        ));
        // A list mixing a group with an unknown name is not a group list.
        assert!(parse_measurement_spec("FLOPS_DP,BOGUS", &table).is_err());
    }

    #[test]
    fn unsupported_group_is_rejected() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let config =
            PerfCtrConfig { cpus: vec![0], spec: MeasurementSpec::Group(EventGroupKind::L3) };
        assert!(matches!(
            PerfCtr::new(&machine, config),
            Err(LikwidError::GroupUnsupported { .. })
        ));
    }

    #[test]
    fn empty_cpu_list_is_rejected() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let config =
            PerfCtrConfig { cpus: vec![], spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP) };
        assert!(PerfCtr::new(&machine, config).is_err());
    }

    #[test]
    fn multiplexing_rotates_groups_and_extrapolates() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let config = PerfCtrConfig {
            cpus: vec![0],
            spec: MeasurementSpec::Groups(vec![EventGroupKind::FLOPS_DP, EventGroupKind::L2]),
        };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        assert_eq!(session.num_groups(), 2);
        session.start().unwrap();

        // Four equal time slices of identical activity; each group is active
        // for two of them, so extrapolation should recover the full total.
        for _slice in 0..4 {
            apply_activity(
                &machine,
                &[
                    (0, HwEventKind::SimdPackedDouble, 1000),
                    (0, HwEventKind::L1Misses, 500),
                    (0, HwEventKind::L2LinesOut, 100),
                    (0, HwEventKind::InstructionsRetired, 10_000),
                    (0, HwEventKind::CoreCycles, 20_000),
                ],
                &[],
            );
            session.switch_group().unwrap();
        }
        session.finish().unwrap();

        let flops = session.extrapolated_counts(0);
        let results0 = session.results_for_group(0, &flops).unwrap();
        let packed = results0.event_count("FP_COMP_OPS_EXE_SSE_FP_PACKED", 0).unwrap();
        assert!(
            (packed as i64 - 4000).abs() <= 10,
            "extrapolated packed count should be ~4000, got {packed}"
        );

        let l2 = session.extrapolated_counts(1);
        let results1 = session.results_for_group(1, &l2).unwrap();
        let repl = results1.event_count("L1D_REPL", 0).unwrap();
        assert!((repl as i64 - 2000).abs() <= 10, "extrapolated L1D_REPL ~2000, got {repl}");
    }

    #[test]
    fn session_misuse_yields_typed_errors() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let config =
            PerfCtrConfig { cpus: vec![0], spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP) };
        let mut session = PerfCtr::new(&machine, config).unwrap();

        // Reading before the session was ever started is a misuse.
        assert!(matches!(session.read_counts(), Err(LikwidError::Session(_))));
        // A single-group session cannot multiplex.
        assert!(matches!(session.switch_group(), Err(LikwidError::Session(_))));

        session.start().unwrap();
        // Starting an already-counting session is a misuse.
        assert!(matches!(session.start(), Err(LikwidError::Session(_))));

        session.stop().unwrap();
        // After a stop the counts stay readable (finish() relies on this),
        // and the session can be restarted.
        assert!(session.read_counts().is_ok());
        session.start().unwrap();
        session.stop().unwrap();
    }

    #[test]
    fn transient_msr_faults_heal_without_a_trace() {
        use likwid_x86_machine::FaultPlan;

        let run = |plan: Option<FaultPlan>| {
            let machine = SimMachine::new(MachinePreset::Core2Quad);
            if let Some(plan) = plan {
                machine.inject_faults(plan);
            }
            let config = PerfCtrConfig {
                cpus: vec![0, 1],
                spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP),
            };
            let mut session = PerfCtr::new(&machine, config).unwrap();
            session.start().unwrap();
            apply_activity(
                &machine,
                &[
                    (0, HwEventKind::SimdPackedDouble, 5000),
                    (0, HwEventKind::CoreCycles, 90_000),
                    (0, HwEventKind::InstructionsRetired, 40_000),
                    (1, HwEventKind::SimdScalarDouble, 77),
                ],
                &[],
            );
            session.stop().unwrap();
            let counts = session.read_counts().unwrap();
            let stats = session.healing_stats();
            (session.results(&counts).unwrap(), stats)
        };

        let (clean, clean_stats) = run(None);
        assert_eq!(clean_stats.msr_retries, 0);
        let plan = FaultPlan::parse("seed=42,read=0.4x3,write=0.4x3").unwrap();
        let (faulted, stats) = run(Some(plan));
        // Retries happened, but the results are bit-identical and free of
        // diagnostics: transient faults heal without a trace.
        assert!(stats.msr_retries > 0, "a 40% fault rate must trigger retries");
        assert!(stats.backoff_units > 0);
        assert!(faulted.diagnostics.is_empty());
        assert_eq!(clean, faulted);
    }

    #[test]
    fn stuck_registers_degrade_to_diagnostics_not_errors() {
        use likwid_x86_machine::{msr::Msr, FaultPlan};

        let machine = SimMachine::new(MachinePreset::Core2Quad);
        // PERFEVTSEL0 on cpu 0 is stuck: programming it silently does
        // nothing, which only verify-after-write can detect.
        machine.inject_faults(FaultPlan {
            stuck: vec![(0, Msr::IA32_PERFEVTSEL0)],
            ..FaultPlan::default()
        });
        let config = PerfCtrConfig {
            cpus: vec![0, 1],
            spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP),
        };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        session.start().unwrap();
        apply_activity(
            &machine,
            &[(0, HwEventKind::SimdPackedDouble, 1000), (1, HwEventKind::SimdPackedDouble, 2000)],
            &[],
        );
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();

        // The stuck slot is dropped (frozen at zero) with a diagnostic; the
        // healthy cpu still measures.
        assert_eq!(results.event_count("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", 0), Some(0));
        assert_eq!(results.event_count("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", 1), Some(2000));
        assert_eq!(results.diagnostics.len(), 1);
        assert!(results.diagnostics[0].subject.contains("PMC0"));
        assert!(results.diagnostics[0].subject.contains("cpu 0"));
        let rendered = results.render();
        assert!(rendered.contains("Diagnostics"));
        assert!(rendered.contains("Degraded"));
        assert!(session.healing_stats().degradations >= 1);
    }

    #[test]
    fn a_dying_cpu_freezes_its_counts_instead_of_failing_the_run() {
        use likwid_x86_machine::FaultPlan;

        let machine = SimMachine::new(MachinePreset::Core2Quad);
        // Cpu 1's MSR device dies after a handful of accesses, partway
        // through counter programming.
        machine.inject_faults(FaultPlan { dead: vec![(1, 10)], ..FaultPlan::default() });
        let config = PerfCtrConfig {
            cpus: vec![0, 1],
            spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP),
        };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        session.start().unwrap();
        apply_activity(
            &machine,
            &[(0, HwEventKind::SimdPackedDouble, 4444), (1, HwEventKind::SimdPackedDouble, 5555)],
            &[],
        );
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();

        // The healthy cpu's data survives; the dead cpu is reported.
        assert_eq!(results.event_count("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", 0), Some(4444));
        assert!(results.diagnostics.iter().any(|d| d.subject == "cpu 1"));
    }

    /// A single-group Westmere session with one 48-bit PMC event and one
    /// 44-bit fixed-counter event, for driving raw counter values directly.
    fn wrap_session(machine: &SimMachine) -> PerfCtr<'_> {
        let table = likwid_perf_events::tables::for_arch(machine.arch());
        let spec =
            parse_event_spec("FP_COMP_OPS_EXE_SSE_FP_PACKED:PMC0,INSTR_RETIRED_ANY:FIXC0", &table)
                .unwrap();
        let config = PerfCtrConfig { cpus: vec![0], spec: MeasurementSpec::Custom(spec) };
        PerfCtr::new(machine, config).unwrap()
    }

    #[test]
    fn a_delta_across_exactly_one_wrap_is_corrected_exactly() {
        // Westmere: PMCs are 48 bits wide, fixed counters 44. Drive the raw
        // registers directly through the hardware-side MSR file so that the
        // wrap point is hit deterministically.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let mut session = wrap_session(&machine);
        let msr = machine.msr_file();
        let (_, pmc_reg) = slot_registers(machine.vendor(), CounterSlot::Pmc(0));
        let (_, fix_reg) = slot_registers(machine.vendor(), CounterSlot::Fixed(0));

        session.start().unwrap();
        // Move both counters to just below their overflow boundary …
        msr.increment(0, pmc_reg, (1u64 << 48) - 100).unwrap();
        msr.increment(0, fix_reg, (1u64 << 44) - 7).unwrap();
        session.read_counts().unwrap();
        // … then across it: each raw register wraps exactly once.
        msr.increment(0, pmc_reg, 300).unwrap();
        msr.increment(0, fix_reg, 20).unwrap();
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();

        // The wrap-corrected totals are exact (and beyond the raw width).
        assert_eq!(
            results.event_count("FP_COMP_OPS_EXE_SSE_FP_PACKED", 0),
            Some((1u64 << 48) + 200)
        );
        assert_eq!(results.event_count("INSTR_RETIRED_ANY", 0), Some((1u64 << 44) + 13));
        // One wrap per interval is business as usual, not a degradation.
        assert!(results.diagnostics.is_empty());
    }

    #[test]
    fn two_wraps_within_one_interval_raise_a_diagnostic_not_a_fixup() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let mut session = wrap_session(&machine);
        let msr = machine.msr_file();
        let (_, pmc_reg) = slot_registers(machine.vendor(), CounterSlot::Pmc(0));

        session.start().unwrap();
        // More than two full counter periods between consecutive reads: the
        // masked delta cannot represent this, and silently "correcting" it
        // from the wide shadow would forge data no real PMU could produce.
        msr.increment(0, pmc_reg, 2 * (1u64 << 48) + 50).unwrap();
        session.stop().unwrap();
        let counts = session.read_counts().unwrap();
        let results = session.results(&counts).unwrap();

        // The reported count is the honest masked delta …
        assert_eq!(results.event_count("FP_COMP_OPS_EXE_SSE_FP_PACKED", 0), Some(50));
        // … and the lost periods are called out as a diagnostic.
        let diag = results
            .diagnostics
            .iter()
            .find(|d| d.reason.contains("wrapped more than once"))
            .expect("a multi-wrap interval must be diagnosed");
        assert!(diag.subject.contains("PMC0"));
        assert!(diag.reason.contains(&format!("{}", 2 * (1u64 << 48))), "reason: {}", diag.reason);
        // The guard fires once per slot, not once per read.
        assert_eq!(results.diagnostics.len(), 1);
    }

    #[test]
    fn measure_wrapper_runs_the_body_between_start_and_stop() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let config =
            PerfCtrConfig { cpus: vec![0], spec: MeasurementSpec::Group(EventGroupKind::FLOPS_DP) };
        let mut session = PerfCtr::new(&machine, config).unwrap();
        let (value, results) = session
            .measure(|m| {
                apply_activity(
                    m,
                    &[
                        (0, HwEventKind::SimdPackedDouble, 77),
                        (0, HwEventKind::CoreCycles, 1000),
                        (0, HwEventKind::InstructionsRetired, 500),
                    ],
                    &[],
                );
                42
            })
            .unwrap();
        assert_eq!(value, 42);
        assert_eq!(results.event_count("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE", 0), Some(77));
    }
}
