//! Glue between simulated execution and the hardware-event layer.
//!
//! A workload run produces two things: cache/memory statistics from the
//! cache simulator and an execution profile (instructions, cycles, SIMD
//! operation counts per thread) from the workload itself. `likwid-perfctr`
//! does not read either directly — it reads *counters*. This module
//! assembles an [`EventSample`] from both sources so the counting engine
//! can credit whatever events the tool programmed, closing the loop
//! tool → MSRs → counting engine → tool output.

use likwid::perfctr::timeline::interval_end;
use likwid_cache_sim::NodeStats;
use likwid_perf_events::{EventSample, HwEventKind};
use likwid_x86_machine::SimMachine;

/// Per-thread execution profile of a workload run (what the core pipelines
/// did, as opposed to what the memory hierarchy did).
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    /// Retired instructions per hardware thread.
    pub instructions: Vec<u64>,
    /// Unhalted core cycles per hardware thread.
    pub cycles: Vec<u64>,
    /// Packed double-precision SIMD operations per hardware thread.
    pub simd_packed_double: Vec<u64>,
    /// Scalar double-precision operations per hardware thread.
    pub simd_scalar_double: Vec<u64>,
    /// Retired branch instructions per hardware thread.
    pub branches: Vec<u64>,
    /// Mispredicted branches per hardware thread.
    pub branch_misses: Vec<u64>,
}

impl ExecutionProfile {
    /// An empty profile for a machine.
    pub fn new(num_threads: usize) -> Self {
        ExecutionProfile {
            instructions: vec![0; num_threads],
            cycles: vec![0; num_threads],
            simd_packed_double: vec![0; num_threads],
            simd_scalar_double: vec![0; num_threads],
            branches: vec![0; num_threads],
            branch_misses: vec![0; num_threads],
        }
    }

    /// Credit one application thread's streaming-loop execution to hardware
    /// thread `hw`. The busy time is assigned (`cycles` is wall-clock on
    /// the hardware thread, the same however many application threads share
    /// it); the work counters accumulate, so an oversubscribed hardware
    /// thread carries the work of every application thread placed on it.
    /// Loop model: `instructions_per_element` retired instructions per
    /// element, flops carried by packed SSE (two per operation), one branch
    /// per eight elements with a 1/64 misprediction rate.
    pub(crate) fn credit_streaming_thread(
        &mut self,
        hw: usize,
        cycles: u64,
        elements: u64,
        instructions_per_element: u64,
        flops_per_element: f64,
    ) {
        self.cycles[hw] = cycles;
        self.instructions[hw] += elements * instructions_per_element;
        self.simd_packed_double[hw] += (elements as f64 * flops_per_element / 2.0) as u64;
        self.branches[hw] += elements / 8;
        self.branch_misses[hw] += elements / 512;
    }

    /// The profile scaled to `fraction` of its counts (floored; fraction
    /// 1.0 reproduces the profile exactly). Workload drivers use this to
    /// spread a run's totals over its progress ticks.
    pub fn scaled(&self, fraction: f64) -> ExecutionProfile {
        let scale = |v: &[u64]| v.iter().map(|&x| (x as f64 * fraction).floor() as u64).collect();
        ExecutionProfile {
            instructions: scale(&self.instructions),
            cycles: scale(&self.cycles),
            simd_packed_double: scale(&self.simd_packed_double),
            simd_scalar_double: scale(&self.simd_scalar_double),
            branches: scale(&self.branches),
            branch_misses: scale(&self.branch_misses),
        }
    }
}

/// Build an [`EventSample`] from cache-simulator statistics and an execution
/// profile.
///
/// * Per-thread kinds (instructions, cycles, SIMD, loads, stores, branches)
///   come from the profile and the simulator's per-thread access counters.
/// * Per-core cache kinds (L1 misses, L2 lines in/out) are taken from the
///   per-instance statistics of the owning cache and attributed to the
///   hardware threads of that instance in proportion to their access counts.
/// * Uncore kinds (L3 lines in/out, memory reads/writes, uncore cycles) come
///   from the socket-level L3 instance and memory-controller counters.
pub fn sample_from_simulation(
    machine: &SimMachine,
    stats: &NodeStats,
    profile: &ExecutionProfile,
) -> EventSample {
    let topo = machine.topology();
    let num_threads = topo.num_hw_threads();
    let num_sockets = topo.sockets as usize;
    let line = machine.caches().first().map(|c| c.line_size as u64).unwrap_or(64);
    let mut sample = EventSample::new(num_threads, num_sockets);

    for cpu in 0..num_threads {
        let t = &mut sample.threads[cpu];
        t.set(
            HwEventKind::InstructionsRetired,
            profile.instructions.get(cpu).copied().unwrap_or(0),
        );
        t.set(HwEventKind::CoreCycles, profile.cycles.get(cpu).copied().unwrap_or(0));
        t.set(
            HwEventKind::SimdPackedDouble,
            profile.simd_packed_double.get(cpu).copied().unwrap_or(0),
        );
        t.set(
            HwEventKind::SimdScalarDouble,
            profile.simd_scalar_double.get(cpu).copied().unwrap_or(0),
        );
        t.set(HwEventKind::BranchesRetired, profile.branches.get(cpu).copied().unwrap_or(0));
        t.set(
            HwEventKind::BranchMispredictions,
            profile.branch_misses.get(cpu).copied().unwrap_or(0),
        );
        t.set(HwEventKind::LoadsRetired, stats.thread_loads.get(cpu).copied().unwrap_or(0));
        t.set(HwEventKind::StoresRetired, stats.thread_stores.get(cpu).copied().unwrap_or(0));
        t.set(
            HwEventKind::L1Accesses,
            stats.thread_loads.get(cpu).copied().unwrap_or(0)
                + stats.thread_stores.get(cpu).copied().unwrap_or(0),
        );
    }

    // Per-core cache levels: attribute instance totals evenly over the
    // threads of the instance that issued any accesses at all.
    let weights: Vec<u64> = (0..num_threads)
        .map(|c| {
            stats.thread_loads.get(c).copied().unwrap_or(0)
                + stats.thread_stores.get(c).copied().unwrap_or(0)
        })
        .collect();
    for level in &stats.levels {
        // The last level is handled as uncore below.
        let is_llc = level.level == stats.levels.last().map(|l| l.level).unwrap_or(3)
            && stats.levels.len() > 1;
        if is_llc && machine.arch().has_uncore() {
            continue;
        }
        let instances = level.instances.len().max(1);
        let threads_per_instance = (num_threads / instances).max(1);
        for (inst_idx, inst) in level.instances.iter().enumerate() {
            // Hardware threads mapped to this instance, in (socket, core, smt) order.
            let mut order: Vec<usize> = (0..num_threads).collect();
            order.sort_by_key(|&t| {
                let h = &topo.hw_threads[t];
                (h.socket, h.core_index, h.smt_id)
            });
            let members: Vec<usize> = order[inst_idx * threads_per_instance
                ..((inst_idx + 1) * threads_per_instance).min(num_threads)]
                .to_vec();
            let active: Vec<usize> = members.iter().copied().filter(|&m| weights[m] > 0).collect();
            let share_over = if active.is_empty() { members.clone() } else { active };
            if share_over.is_empty() {
                continue;
            }
            let n = share_over.len() as u64;
            for &m in &share_over {
                let t = &mut sample.threads[m];
                match level.level {
                    1 => {
                        t.add(HwEventKind::L1Misses, inst.misses / n);
                    }
                    2 => {
                        t.add(HwEventKind::L2Accesses, inst.accesses / n);
                        t.add(HwEventKind::L2Misses, inst.misses / n);
                        t.add(HwEventKind::L2LinesIn, inst.lines_in / n);
                        t.add(HwEventKind::L2LinesOut, inst.lines_out / n);
                    }
                    _ => {
                        t.add(HwEventKind::L3Accesses, inst.accesses / n);
                        t.add(HwEventKind::L3Misses, inst.misses / n);
                        t.add(HwEventKind::L3LinesIn, inst.lines_in / n);
                        t.add(HwEventKind::L3LinesOut, inst.lines_out / n);
                    }
                }
            }
        }
    }

    // Uncore: LLC per socket plus the memory controllers.
    if let Some(llc) = stats.levels.last() {
        if stats.levels.len() > 1 {
            let instances = llc.instances.len().max(1);
            for (inst_idx, inst) in llc.instances.iter().enumerate() {
                let socket = (inst_idx * num_sockets / instances).min(num_sockets - 1);
                let s = &mut sample.sockets[socket];
                s.add(HwEventKind::L3Accesses, inst.accesses);
                s.add(HwEventKind::L3Misses, inst.misses);
                s.add(HwEventKind::L3LinesIn, inst.lines_in);
                s.add(HwEventKind::L3LinesOut, inst.lines_out);
            }
        }
    }
    for (socket, mem) in stats.memory.iter().enumerate().take(num_sockets) {
        let s = &mut sample.sockets[socket];
        s.add(HwEventKind::MemoryReads, mem.bytes_read / line);
        s.add(HwEventKind::MemoryWrites, mem.bytes_written / line);
    }
    let max_cycles = profile.cycles.iter().copied().max().unwrap_or(0);
    for socket in 0..num_sockets {
        sample.sockets[socket].add(HwEventKind::UncoreCycles, max_cycles);
    }

    sample
}

/// One progress tick of a workload run: the *cumulative* simulation state
/// at a virtual timestamp. Workload drivers push ticks while they execute
/// (after each sweep, pass or pipeline batch); the timeline harness slices
/// the run at sampling boundaries by interpolating between ticks.
#[derive(Debug, Clone)]
pub struct ProgressTick {
    /// Virtual time since run start, in seconds.
    pub t_s: f64,
    /// Cache/memory statistics accumulated from run start through this
    /// tick.
    pub stats: NodeStats,
    /// Execution profile accumulated from run start through this tick.
    pub profile: ExecutionProfile,
}

/// The progress trace of one workload run: cumulative ticks in
/// non-decreasing virtual-time order, the last one covering the full run.
#[derive(Debug, Clone, Default)]
pub struct ProgressTrace {
    /// The recorded ticks.
    pub ticks: Vec<ProgressTick>,
}

impl ProgressTrace {
    /// Record a cumulative tick. Timestamps must be non-decreasing.
    pub fn record(&mut self, t_s: f64, stats: NodeStats, profile: ExecutionProfile) {
        debug_assert!(
            self.ticks.last().map(|t| t.t_s <= t_s).unwrap_or(true),
            "progress ticks must advance in time"
        );
        self.ticks.push(ProgressTick { t_s, stats, profile });
    }

    /// Total virtual runtime covered by the trace.
    pub fn runtime_s(&self) -> f64 {
        self.ticks.last().map(|t| t.t_s).unwrap_or(0.0)
    }
}

/// Linear interpolation of one event record between two cumulative
/// snapshots at fraction `alpha`, floored to whole counts. Floor of a
/// monotone interpolant is monotone and hits both endpoints exactly, so
/// deltas between consecutive boundaries telescope to the total.
fn lerp_pairs(
    prev_pairs: &[(HwEventKind, u64)],
    next_pairs: &[(HwEventKind, u64)],
    alpha: f64,
    mut set: impl FnMut(HwEventKind, u64),
) {
    let prev_of = |kind: HwEventKind| {
        prev_pairs.iter().find(|(k, _)| *k == kind).map(|(_, v)| *v).unwrap_or(0)
    };
    for &(kind, next_v) in next_pairs {
        let prev_v = prev_of(kind);
        let value = prev_v + ((next_v.saturating_sub(prev_v)) as f64 * alpha).floor() as u64;
        set(kind, value);
    }
    // Kinds present only in the earlier snapshot keep their value (a
    // consistent cumulative trace never loses a kind, but stay safe).
    for &(kind, prev_v) in prev_pairs {
        if !next_pairs.iter().any(|(k, _)| *k == kind) {
            set(kind, prev_v);
        }
    }
}

/// The cumulative event sample at fraction `alpha` between two cumulative
/// samples.
fn lerp_sample(prev: &EventSample, next: &EventSample, alpha: f64) -> EventSample {
    let mut out = EventSample::new(next.threads.len(), next.sockets.len());
    for (cpu, next_rec) in next.threads.iter().enumerate() {
        let prev_pairs: Vec<(HwEventKind, u64)> =
            prev.threads.get(cpu).map(|r| r.iter().collect()).unwrap_or_default();
        let next_pairs: Vec<(HwEventKind, u64)> = next_rec.iter().collect();
        let slot = &mut out.threads[cpu];
        lerp_pairs(&prev_pairs, &next_pairs, alpha, |k, v| {
            slot.set(k, v);
        });
    }
    for (socket, next_rec) in next.sockets.iter().enumerate() {
        let prev_pairs: Vec<(HwEventKind, u64)> =
            prev.sockets.get(socket).map(|r| r.iter().collect()).unwrap_or_default();
        let next_pairs: Vec<(HwEventKind, u64)> = next_rec.iter().collect();
        let slot = &mut out.sockets[socket];
        lerp_pairs(&prev_pairs, &next_pairs, alpha, |k, v| {
            slot.set(k, v);
        });
    }
    out
}

/// The per-count difference of two cumulative samples (`next - prev`).
fn diff_sample(prev: &EventSample, next: &EventSample) -> EventSample {
    let mut out = EventSample::new(next.threads.len(), next.sockets.len());
    for (cpu, next_rec) in next.threads.iter().enumerate() {
        for (kind, v) in next_rec.iter() {
            let prev_v = prev.threads.get(cpu).map(|r| r.get(kind)).unwrap_or(0);
            out.threads[cpu].set(kind, v.saturating_sub(prev_v));
        }
    }
    for (socket, next_rec) in next.sockets.iter().enumerate() {
        for (kind, v) in next_rec.iter() {
            let prev_v = prev.sockets.get(socket).map(|r| r.get(kind)).unwrap_or(0);
            out.sockets[socket].set(kind, v.saturating_sub(prev_v));
        }
    }
    out
}

/// Slice a progress trace into timeline intervals of (at most)
/// `interval_s` seconds of virtual time: returns `(t_start, t_end,
/// slice sample)` triples whose samples sum — count by count — exactly to
/// the sample of the full run (the last tick). Sampling points that fall
/// between two ticks interpolate the cumulative counts linearly, so even a
/// single-tick (constant-rate) trace yields mid-run sampling points.
pub(crate) fn slice_samples(
    machine: &SimMachine,
    trace: &ProgressTrace,
    interval_s: f64,
) -> Vec<(f64, f64, EventSample)> {
    assert!(interval_s > 0.0, "interval must be positive");
    let cumulative: Vec<(f64, EventSample)> = trace
        .ticks
        .iter()
        .map(|tick| (tick.t_s, sample_from_simulation(machine, &tick.stats, &tick.profile)))
        .collect();
    let runtime = trace.runtime_s();
    let num_threads = machine.num_hw_threads();
    let num_sockets = machine.topology().sockets as usize;
    let empty = EventSample::new(num_threads, num_sockets);

    // Cumulative sample at virtual time `t`.
    let at = |t: f64| -> EventSample {
        if cumulative.is_empty() {
            return empty.clone();
        }
        let mut prev_t = 0.0;
        let mut prev_sample = &empty;
        for (tick_t, sample) in &cumulative {
            if t <= *tick_t {
                let span = tick_t - prev_t;
                let alpha = if span > 0.0 { ((t - prev_t) / span).clamp(0.0, 1.0) } else { 1.0 };
                return lerp_sample(prev_sample, sample, alpha);
            }
            prev_t = *tick_t;
            prev_sample = sample;
        }
        cumulative.last().map(|(_, s)| s.clone()).unwrap_or(empty.clone())
    };

    let mut out = Vec::new();
    let mut prev_boundary = empty.clone();
    let mut t0 = 0.0;
    for i in 0.. {
        let (t1, last) = interval_end(i, interval_s, runtime);
        let boundary = at(t1);
        out.push((t0, t1, diff_sample(&prev_boundary, &boundary)));
        if last {
            break;
        }
        prev_boundary = boundary;
        t0 = t1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_cache_sim::{Access, HierarchyConfig, NodeCacheSystem, NumaPolicy};
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn uncore_lines_reach_the_right_socket_record() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::interleave(4096));
        let mut sys = NodeCacheSystem::new(cfg);
        // Thread 0 (socket 0) streams 1000 lines; thread 4 (socket 1) streams 10.
        for i in 0..1000u64 {
            sys.access(0, Access::load(i * 64));
        }
        for i in 0..10u64 {
            sys.access(4, Access::load((1 << 30) + i * 64));
        }
        let stats = sys.stats();
        let profile = ExecutionProfile::new(machine.num_hw_threads());
        let sample = sample_from_simulation(&machine, &stats, &profile);
        assert!(sample.sockets[0].get(HwEventKind::L3LinesIn) >= 1000);
        assert!(sample.sockets[1].get(HwEventKind::L3LinesIn) >= 10);
        assert!(
            sample.sockets[0].get(HwEventKind::L3LinesIn)
                > sample.sockets[1].get(HwEventKind::L3LinesIn)
        );
        // Memory reads counted in cache lines: at least the 1010 demanded
        // lines, plus a handful of prefetches running past the stream ends.
        let total_reads: u64 =
            (0..2).map(|s| sample.sockets[s].get(HwEventKind::MemoryReads)).sum();
        assert!((1010..=1030).contains(&total_reads), "got {total_reads}");
    }

    #[test]
    fn per_thread_loads_and_profile_values_are_copied() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
        let mut sys = NodeCacheSystem::new(cfg);
        sys.access(2, Access::load(0));
        sys.access(2, Access::store(64));
        let stats = sys.stats();
        let mut profile = ExecutionProfile::new(machine.num_hw_threads());
        profile.instructions[2] = 500;
        profile.cycles[2] = 900;
        profile.simd_packed_double[2] = 16;
        let sample = sample_from_simulation(&machine, &stats, &profile);
        assert_eq!(sample.threads[2].get(HwEventKind::LoadsRetired), 1);
        assert_eq!(sample.threads[2].get(HwEventKind::StoresRetired), 1);
        assert_eq!(sample.threads[2].get(HwEventKind::InstructionsRetired), 500);
        assert_eq!(sample.threads[2].get(HwEventKind::SimdPackedDouble), 16);
        assert_eq!(sample.threads[0].get(HwEventKind::LoadsRetired), 0);
    }

    #[test]
    fn slice_samples_telescope_exactly_to_the_full_run() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
        let mut sys = NodeCacheSystem::new(cfg);
        for i in 0..5000u64 {
            sys.access(0, Access::load(i * 64));
            if i % 2 == 0 {
                sys.access(1, Access::store((1 << 24) + i * 64));
            }
        }
        let mut profile = ExecutionProfile::new(machine.num_hw_threads());
        profile.cycles[0] = 1_000_003; // deliberately not divisible by the slices
        profile.instructions[0] = 777_777;
        profile.cycles[1] = 999_999;
        let stats = sys.stats();
        let total = sample_from_simulation(&machine, &stats, &profile);

        let mut trace = ProgressTrace::default();
        trace.record(1e-3, stats, profile);
        // 7 intervals over a single-tick (constant-rate) trace: sampling
        // points are interpolated mid-tick, and the slice deltas must sum
        // count-by-count to the full-run sample.
        let slices = slice_samples(&machine, &trace, 1e-3 / 7.0);
        assert_eq!(slices.len(), 7);
        let mut summed = EventSample::new(total.threads.len(), total.sockets.len());
        for (t0, t1, sample) in &slices {
            assert!(t1 > t0);
            summed.merge(sample);
        }
        assert_eq!(summed, total, "slice samples must telescope to the total");
        // Interior slices actually carry activity (not everything lumped
        // into one interval).
        let mid_cycles = slices[3].2.threads[0].get(HwEventKind::CoreCycles);
        assert!(mid_cycles > 0, "mid-run sampling points exist");
    }

    #[test]
    fn slice_samples_follow_multi_tick_phase_structure() {
        // Two ticks: all activity in the first half, nothing in the second.
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
        let mut sys = NodeCacheSystem::new(cfg);
        for i in 0..1000u64 {
            sys.access(0, Access::load(i * 64));
        }
        let stats = sys.stats();
        let mut profile = ExecutionProfile::new(machine.num_hw_threads());
        profile.cycles[0] = 500_000;
        let mut trace = ProgressTrace::default();
        trace.record(1e-3, stats.clone(), profile.clone());
        profile.cycles[0] = 1_000_000;
        trace.record(2e-3, stats, profile); // same stats: an idle phase
        let slices = slice_samples(&machine, &trace, 5e-4);
        assert_eq!(slices.len(), 4);
        let loads = |s: &EventSample| s.threads[0].get(HwEventKind::LoadsRetired);
        assert!(loads(&slices[0].2) > 0 && loads(&slices[1].2) > 0);
        assert_eq!(loads(&slices[2].2), 0, "the idle phase moves no data");
        assert_eq!(loads(&slices[3].2), 0);
        assert!(slices[3].2.threads[0].get(HwEventKind::CoreCycles) > 0, "but burns cycles");
    }

    #[test]
    fn scaled_profile_is_exact_at_unity() {
        let mut profile = ExecutionProfile::new(2);
        profile.cycles[0] = 12345;
        profile.instructions[1] = 999;
        assert_eq!(profile.scaled(1.0).cycles, profile.cycles);
        assert_eq!(profile.scaled(1.0).instructions, profile.instructions);
        assert_eq!(profile.scaled(0.5).cycles[0], 6172);
        assert_eq!(profile.scaled(0.0).instructions[1], 0);
    }

    #[test]
    fn l1_misses_are_attributed_to_the_issuing_thread() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let cfg = HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: 0 });
        let mut sys = NodeCacheSystem::new(cfg);
        for i in 0..100u64 {
            sys.access(1, Access::load(i * 64));
        }
        let stats = sys.stats();
        let profile = ExecutionProfile::new(machine.num_hw_threads());
        let sample = sample_from_simulation(&machine, &stats, &profile);
        assert!(sample.threads[1].get(HwEventKind::L1Misses) > 0);
        assert_eq!(sample.threads[0].get(HwEventKind::L1Misses), 0);
    }
}
