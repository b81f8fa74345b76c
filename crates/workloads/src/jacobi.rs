//! The 3D Jacobi smoother of case studies 2 and 3 (Figure 11, Table II).
//!
//! Three variants of an iterative 7-point Jacobi sweep over a cubic grid:
//!
//! * **threaded** — straightforward OpenMP-style domain decomposition over
//!   the outer (plane) dimension, ordinary (write-allocate) stores;
//! * **threaded (NT)** — the same with non-temporal stores, saving the
//!   write-allocate stream (about one third of the traffic, Table II);
//! * **wavefront** — the temporally blocked, pipeline-parallel variant of
//!   [Treibig et al.]: a group of four threads applies four time steps in a
//!   pipeline, passing intermediate planes through the *shared* cache, so
//!   that only the first read and the final write touch main memory.
//!
//! The variants are executed as cache-line-granularity address streams
//! through the cache simulator; the resulting traffic, combined with a
//! roofline model, yields MLUPS. The wavefront variant only works when its
//! four threads share a last-level cache — pinning the group 2+2 across the
//! sockets (Figure 11's "2 per socket" curve) turns the plane hand-off into
//! cross-socket memory traffic and performance collapses below the
//! baseline, which is exactly the effect the simulation reproduces.

use likwid_cache_sim::{
    AccessKind, HierarchyConfig, NodeCacheSystem, NodeStats, NumaPolicy, ReplayQueue, RunOp,
};
use likwid_x86_machine::SimMachine;

use crate::exec::{ExecutionProfile, ProgressTrace};
use crate::workload::{Placement, Workload, WorkloadRun};

/// The Jacobi variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JacobiVariant {
    /// Standard threaded sweep with temporal (write-allocate) stores.
    Threaded,
    /// Standard threaded sweep with non-temporal stores.
    ThreadedNt,
    /// Pipeline-parallel temporal blocking through the shared cache
    /// (wavefront, one thread per pipeline stage).
    Wavefront,
}

impl JacobiVariant {
    /// Display name used in figures and tables.
    pub fn name(self) -> &'static str {
        match self {
            JacobiVariant::Threaded => "threaded",
            JacobiVariant::ThreadedNt => "threaded (NT)",
            JacobiVariant::Wavefront => "wavefront",
        }
    }

    /// Modelled pipeline cost per lattice-site update in core cycles. The
    /// wavefront kernel pays for the pipeline synchronisation and the
    /// in-cache copies, which is why its speedup stays well below the
    /// traffic reduction (Section IV-C).
    fn cycles_per_update(self) -> f64 {
        match self {
            JacobiVariant::Threaded | JacobiVariant::ThreadedNt => 6.0,
            JacobiVariant::Wavefront => 8.0,
        }
    }
}

/// Configuration of one Jacobi run.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiConfig {
    /// Grid size in every dimension (the paper sweeps 50–500).
    pub size: usize,
    /// Number of time steps. The wavefront variant processes
    /// [`JacobiConfig::WAVEFRONT_DEPTH`] steps per pass; use a multiple of
    /// it to compare equal work.
    pub time_steps: usize,
    /// The hardware threads the worker threads are pinned to, in pipeline
    /// order for the wavefront variant.
    pub placement: Vec<usize>,
    /// Which variant to run.
    pub variant: JacobiVariant,
}

impl JacobiConfig {
    /// Pipeline depth of the wavefront variant (the paper's 1×4 thread group).
    pub const WAVEFRONT_DEPTH: usize = 4;

    /// The paper's Table II setup: four threads on the physical cores of one
    /// socket of the Nehalem EP node.
    pub fn table2(variant: JacobiVariant, size: usize) -> Self {
        JacobiConfig {
            size,
            time_steps: Self::WAVEFRONT_DEPTH,
            placement: vec![0, 1, 2, 3],
            variant,
        }
    }
}

/// The outcome of one Jacobi run.
#[derive(Debug, Clone)]
pub struct JacobiResult {
    /// Million lattice site updates per second.
    pub mlups: f64,
    /// Modelled wall-clock time in seconds.
    pub runtime_s: f64,
    /// Total lattice site updates performed.
    pub updates: u64,
    /// Bytes moved to/from main memory (all sockets).
    pub memory_bytes: u64,
    /// Lines allocated into the last-level caches (`UNC_L3_LINES_IN_ANY`).
    pub l3_lines_in: u64,
    /// Lines victimized from the last-level caches (`UNC_L3_LINES_OUT_ANY`).
    pub l3_lines_out: u64,
    /// Full cache/memory statistics of the run.
    pub stats: NodeStats,
    /// Execution profile (cycles, instructions) consistent with the model.
    pub profile: ExecutionProfile,
}

/// The Jacobi workload bound to one machine.
pub struct Jacobi<'m> {
    machine: &'m SimMachine,
}

impl<'m> Jacobi<'m> {
    /// Bind the workload to a machine.
    pub fn new(machine: &'m SimMachine) -> Self {
        Jacobi { machine }
    }

    /// Run one configuration: simulate the address streams, then apply the
    /// performance model.
    pub fn run(&self, config: &JacobiConfig) -> JacobiResult {
        self.run_traced(config, None)
    }

    /// Run one configuration, optionally recording a progress trace for
    /// time-resolved measurement. The threaded variants tick after every
    /// sweep *and* after every fork/join barrier (the barrier moves no
    /// memory, so the timeline shows the alternating sweep/boundary phase
    /// structure); the wavefront variant ticks after every pipeline plane
    /// batch.
    pub(crate) fn run_traced(
        &self,
        config: &JacobiConfig,
        trace: Option<&mut ProgressTrace>,
    ) -> JacobiResult {
        assert!(!config.placement.is_empty(), "at least one worker thread is required");
        let line = 64u64;
        let n = config.size as u64;
        let elems_per_line = line / 8;
        let lines_per_row = n.div_ceil(elems_per_line);
        let plane_bytes = n * n * 8;
        let src_base = 0u64;
        let dst_base = plane_bytes * n + (1 << 20);

        // First-touch placement: the grid is initialised by the worker
        // threads themselves, so its pages are local to the socket the first
        // worker runs on (all workers, for the correctly pinned runs).
        let home_socket =
            self.machine.topology().hw_thread(config.placement[0]).map(|t| t.socket).unwrap_or(0);
        let hierarchy = HierarchyConfig::from_machine(
            self.machine,
            NumaPolicy::SingleNode { socket: home_socket },
        );
        let mut sys = NodeCacheSystem::new(hierarchy);

        let mut snapshots: Option<Vec<NodeStats>> = trace.as_ref().map(|_| Vec::new());
        match config.variant {
            JacobiVariant::Threaded | JacobiVariant::ThreadedNt => self.run_threaded(
                config,
                &mut sys,
                src_base,
                dst_base,
                lines_per_row,
                snapshots.as_mut(),
            ),
            JacobiVariant::Wavefront => self.run_wavefront(
                config,
                &mut sys,
                src_base,
                dst_base,
                lines_per_row,
                snapshots.as_mut(),
            ),
        }

        self.finish(config, sys.stats(), snapshots, trace)
    }

    /// The threaded sweep as an epoch-batched replay queue. Each time step
    /// becomes two epochs: an *interior* epoch whose stores keep a two-plane
    /// margin to the thread's block boundaries (so each thread's loads stay
    /// inside its own block and socket shards proceed independently), and a
    /// *boundary* epoch with the remaining planes, whose stencil loads reach
    /// into the neighbour blocks and which the sharded engine therefore
    /// replays serially when the blocks straddle sockets. Only the sharded
    /// engine's tests and self-benchmark probe replay this queue.
    pub fn threaded_replay_queue(&self, config: &JacobiConfig) -> ReplayQueue {
        assert!(
            config.variant != JacobiVariant::Wavefront,
            "only the threaded variants replay as epochs"
        );
        let n = config.size as u64;
        let lines_per_row = n.div_ceil(8);
        let plane_bytes = n * n * 8;
        let src_base = 0u64;
        let dst_base = plane_bytes * n + (1 << 20);
        let threads = config.placement.len() as u64;
        let store_kind = if config.variant == JacobiVariant::ThreadedNt {
            AccessKind::NonTemporalStore
        } else {
            AccessKind::Store
        };

        let mut queue = ReplayQueue::new(self.machine.topology().num_hw_threads());
        let mut src = src_base;
        let mut dst = dst_base;
        for _step in 0..config.time_steps {
            // One plane's row sweep: the five stencil load runs, then the
            // destination store run, exactly as in `run_threaded`.
            let sweep_plane = |queue: &mut ReplayQueue, hw: usize, k: u64| {
                for j in 1..n - 1 {
                    for (kk, jj) in [(k, j), (k, j - 1), (k, j + 1), (k - 1, j), (k + 1, j)] {
                        queue.push(
                            hw,
                            RunOp::load_lines(
                                Self::line_addr(src, n, lines_per_row, kk, jj, 0),
                                lines_per_row,
                            ),
                        );
                    }
                    queue.push(
                        hw,
                        RunOp {
                            base: Self::line_addr(dst, n, lines_per_row, k, j, 0),
                            stride: 64,
                            count: lines_per_row,
                            size: 64,
                            kind: store_kind,
                        },
                    );
                }
            };

            queue.begin_epoch();
            for (t_index, &hw) in config.placement.iter().enumerate() {
                let k_begin = 1 + (t_index as u64) * (n - 2) / threads;
                let k_end = 1 + (t_index as u64 + 1) * (n - 2) / threads;
                for k in (k_begin + 2)..k_end.saturating_sub(2) {
                    sweep_plane(&mut queue, hw, k);
                }
            }
            queue.begin_epoch();
            for (t_index, &hw) in config.placement.iter().enumerate() {
                let k_begin = 1 + (t_index as u64) * (n - 2) / threads;
                let k_end = 1 + (t_index as u64 + 1) * (n - 2) / threads;
                for k in k_begin..k_end {
                    let interior = k >= k_begin + 2 && k + 2 < k_end;
                    if !interior {
                        sweep_plane(&mut queue, hw, k);
                    }
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }
        queue
    }

    /// Address of the line `l` of row `j` of plane `k` of the array at `base`.
    fn line_addr(base: u64, n: u64, lines_per_row: u64, k: u64, j: u64, l: u64) -> u64 {
        base + ((k * n + j) * lines_per_row + l) * 64
    }

    /// The standard threaded sweep: every thread owns a contiguous block of
    /// planes; for every destination row it streams the five source rows of
    /// the stencil (same row, j±1, k±1; the i±1 neighbours live in the same
    /// line) and the destination row, each as one batched line run.
    fn run_threaded(
        &self,
        config: &JacobiConfig,
        sys: &mut NodeCacheSystem,
        src_base: u64,
        dst_base: u64,
        lines_per_row: u64,
        mut snapshots: Option<&mut Vec<NodeStats>>,
    ) {
        let n = config.size as u64;
        let threads = config.placement.len() as u64;
        let nt = config.variant == JacobiVariant::ThreadedNt;
        let mut src = src_base;
        let mut dst = dst_base;
        for _step in 0..config.time_steps {
            for (t_index, &hw) in config.placement.iter().enumerate() {
                let k_begin = 1 + (t_index as u64) * (n - 2) / threads;
                let k_end = 1 + (t_index as u64 + 1) * (n - 2) / threads;
                for k in k_begin..k_end {
                    for j in 1..n - 1 {
                        for (kk, jj) in [(k, j), (k, j - 1), (k, j + 1), (k - 1, j), (k + 1, j)] {
                            sys.access_run(
                                hw,
                                Self::line_addr(src, n, lines_per_row, kk, jj, 0),
                                64,
                                lines_per_row,
                                64,
                                likwid_cache_sim::AccessKind::Load,
                            );
                        }
                        let kind = if nt {
                            likwid_cache_sim::AccessKind::NonTemporalStore
                        } else {
                            likwid_cache_sim::AccessKind::Store
                        };
                        sys.access_run(
                            hw,
                            Self::line_addr(dst, n, lines_per_row, k, j, 0),
                            64,
                            lines_per_row,
                            64,
                            kind,
                        );
                    }
                }
            }
            std::mem::swap(&mut src, &mut dst);
            if let Some(snapshots) = snapshots.as_deref_mut() {
                snapshots.push(sys.stats());
            }
        }
    }

    /// The wavefront variant: `WAVEFRONT_DEPTH` threads form a pipeline.
    /// Stage 0 reads the source array from memory and writes into a small
    /// ring buffer; stages 1..d-1 read the previous stage's ring buffer and
    /// write their own; the last stage writes the result array with
    /// non-temporal stores. The ring buffers are sized to stay resident in
    /// the shared cache (the real code's temporal blocking), so when all
    /// stages share an L3 the intermediate traffic never reaches memory.
    fn run_wavefront(
        &self,
        config: &JacobiConfig,
        sys: &mut NodeCacheSystem,
        src_base: u64,
        dst_base: u64,
        lines_per_row: u64,
        mut snapshots: Option<&mut Vec<NodeStats>>,
    ) {
        let n = config.size as u64;
        let depth = JacobiConfig::WAVEFRONT_DEPTH.min(config.placement.len());
        let passes = (config.time_steps / JacobiConfig::WAVEFRONT_DEPTH).max(1);

        // Ring buffers: one per pipeline stage boundary, holding 4 planes of
        // a j-tile. The tile width is chosen so that all buffers together
        // use at most about half of one LLC instance.
        let llc_bytes = self.machine.caches().last().map(|c| c.size_bytes).unwrap_or(8 << 20);
        let bytes_per_row = lines_per_row * 64;
        let max_tile_rows = ((llc_bytes / 2) / ((depth as u64).max(1) * 4 * bytes_per_row)).max(4);
        let tile_rows = max_tile_rows.min(n);
        let ring_bytes = 4 * tile_rows * bytes_per_row;
        let ring_base = |stage: u64| dst_base + (1 << 28) + stage * (ring_bytes + (1 << 20));

        let ring_addr = |stage: u64, k: u64, j_in_tile: u64, l: u64| {
            ring_base(stage) + ((k % 4) * tile_rows + j_in_tile) * bytes_per_row + l * 64
        };

        for _pass in 0..passes {
            let mut j0 = 1;
            while j0 < n - 1 {
                let rows = tile_rows.min(n - 1 - j0);
                // Pipelined sweep over planes: in steady state stage p works
                // on plane k - p.
                for k in 1..(n - 1 + depth as u64) {
                    for (stage, &hw) in config.placement.iter().enumerate().take(depth) {
                        let stage = stage as u64;
                        let Some(plane) = k.checked_sub(stage) else { continue };
                        if plane < 1 || plane >= n - 1 {
                            continue;
                        }
                        for j_off in 0..rows {
                            let j = j0 + j_off;
                            // Input: memory for stage 0, the previous
                            // stage's ring buffer otherwise (three
                            // neighbouring planes of it) — one batched line
                            // run per plane row.
                            if stage == 0 {
                                for kk in [plane - 1, plane, plane + 1] {
                                    sys.access_run(
                                        hw,
                                        Self::line_addr(src_base, n, lines_per_row, kk, j, 0),
                                        64,
                                        lines_per_row,
                                        64,
                                        likwid_cache_sim::AccessKind::Load,
                                    );
                                }
                            } else {
                                for kk in [plane.saturating_sub(1), plane, plane + 1] {
                                    sys.access_run(
                                        hw,
                                        ring_addr(stage - 1, kk, j_off, 0),
                                        64,
                                        lines_per_row,
                                        64,
                                        likwid_cache_sim::AccessKind::Load,
                                    );
                                }
                            }
                            // Output: the own ring buffer, or the result
                            // array (streaming stores) for the last stage.
                            if stage == depth as u64 - 1 {
                                sys.access_run(
                                    hw,
                                    Self::line_addr(dst_base, n, lines_per_row, plane, j, 0),
                                    64,
                                    lines_per_row,
                                    64,
                                    likwid_cache_sim::AccessKind::NonTemporalStore,
                                );
                            } else {
                                sys.access_run(
                                    hw,
                                    ring_addr(stage, plane, j_off, 0),
                                    64,
                                    lines_per_row,
                                    64,
                                    likwid_cache_sim::AccessKind::Store,
                                );
                            }
                        }
                    }
                    if let Some(snapshots) = snapshots.as_deref_mut() {
                        snapshots.push(sys.stats());
                    }
                }
                j0 += rows;
            }
        }
    }

    /// Apply the roofline model to the simulated traffic and assemble the
    /// result.
    fn finish(
        &self,
        config: &JacobiConfig,
        stats: NodeStats,
        snapshots: Option<Vec<NodeStats>>,
        trace: Option<&mut ProgressTrace>,
    ) -> JacobiResult {
        let topo = self.machine.topology();
        let memory = self.machine.memory_system();
        let clock = self.machine.clock();
        let n = config.size as u64;
        let interior = (n - 2).max(1);
        let updates = interior * interior * interior * config.time_steps as u64;

        // Traffic.
        let local_bytes: u64 = stats
            .memory
            .iter()
            .map(|m| {
                // Local vs. remote by transaction counts.
                let total_tx = m.local_reads + m.remote_reads + m.local_writes + m.remote_writes;
                if total_tx == 0 {
                    return 0;
                }
                let local_tx = m.local_reads + m.local_writes;
                m.total_bytes() * local_tx / total_tx
            })
            .sum();
        let total_bytes = stats.total_memory_bytes();
        let remote_bytes = total_bytes - local_bytes;

        let llc_total =
            stats.level_total(self.machine.caches().last().map(|c| c.level).unwrap_or(3));
        let l3_bytes = (llc_total.lines_in + llc_total.lines_out) * 64;

        // Effective bandwidths for this placement.
        let sockets_used: std::collections::HashSet<u32> = config
            .placement
            .iter()
            .filter_map(|&hw| topo.hw_thread(hw).ok().map(|t| t.socket))
            .collect();
        let streamers = match config.variant {
            JacobiVariant::Threaded | JacobiVariant::ThreadedNt => config.placement.len(),
            // Only the first and last pipeline stage touch main memory.
            JacobiVariant::Wavefront => 2,
        };
        let local_bw = (streamers as f64 * memory.per_core_bandwidth_bps)
            .min(memory.socket_bandwidth_bps * sockets_used.len().max(1) as f64);

        // Pipeline hand-off penalty (wavefront only): every stage boundary
        // whose producer and consumer sit on different sockets cannot pass
        // the intermediate planes through a shared cache. The consumer's
        // full stencil input (three planes, 24 B/update), the producer's
        // store stream with its read-for-ownership (16 B/update) and the
        // per-plane pipeline synchronisation flushes (8 B/update) — 48 bytes
        // per update handled by that boundary — cross the interconnect
        // instead. The factor is calibrated so that the wrongly pinned
        // wavefront lands at/below the threaded baseline, the collapse the
        // paper reports in Figure 11.
        let cross_socket_handoff_bytes = if config.variant == JacobiVariant::Wavefront {
            let depth = JacobiConfig::WAVEFRONT_DEPTH.min(config.placement.len()).max(1);
            let crossing_boundaries = config
                .placement
                .windows(2)
                .take(depth - 1)
                .filter(|w| {
                    let a = topo.hw_thread(w[0]).map(|t| t.socket).unwrap_or(0);
                    let b = topo.hw_thread(w[1]).map(|t| t.socket).unwrap_or(0);
                    a != b
                })
                .count() as u64;
            crossing_boundaries * (updates / depth as u64) * 48
        } else {
            0
        };

        let memory_time = local_bytes as f64 / local_bw
            + (remote_bytes + cross_socket_handoff_bytes) as f64 / memory.remote_bandwidth_bps;

        let l3_bw = 2.5 * memory.socket_bandwidth_bps * sockets_used.len().max(1) as f64;
        let l3_time = l3_bytes as f64 / l3_bw;

        let compute_time = (updates as f64 / config.placement.len() as f64)
            * config.variant.cycles_per_update()
            / clock.frequency_hz;

        // The straightforward OpenMP variants pay a fork/join barrier per
        // sweep; at small grid sizes this overhead dominates, which is why
        // the threaded baseline curve of Figure 11 starts low. The wavefront
        // kernel's per-plane pipeline synchronisation is already folded into
        // its higher cycles-per-update cost.
        let sync_time = match config.variant {
            JacobiVariant::Threaded | JacobiVariant::ThreadedNt => config.time_steps as f64 * 60e-6,
            JacobiVariant::Wavefront => 0.0,
        };

        let runtime_s = memory_time.max(l3_time).max(compute_time) + sync_time;
        let mlups = updates as f64 / runtime_s / 1e6;

        // Execution profile consistent with the model (drives the counting
        // engine when the run is measured through likwid-perfctr).
        let mut profile = ExecutionProfile::new(topo.num_hw_threads());
        let cycles = clock.seconds_to_cycles(runtime_s);
        for &hw in &config.placement {
            profile.cycles[hw] = cycles;
            let per_thread_updates = updates / config.placement.len() as u64;
            profile.instructions[hw] = per_thread_updates * 10;
            profile.simd_packed_double[hw] = per_thread_updates * 4;
            profile.branches[hw] = per_thread_updates;
            profile.branch_misses[hw] = per_thread_updates / 64;
        }

        // Materialize the progress trace: convert the recorded cumulative
        // stats snapshots into ticks with virtual timestamps, spreading the
        // profile linearly over time. The threaded variants insert a
        // zero-traffic tick after every sweep for the fork/join barrier, so
        // the timeline shows the sweep/boundary alternation; the wavefront
        // spreads its plane batches uniformly (its pipeline sync cost is
        // folded into cycles-per-update).
        if let (Some(snapshots), Some(trace)) = (snapshots, trace) {
            let m = snapshots.len().max(1);
            match config.variant {
                JacobiVariant::Threaded | JacobiVariant::ThreadedNt => {
                    let sync_each = sync_time / config.time_steps.max(1) as f64;
                    let sweep_each = (runtime_s - sync_time) / m as f64;
                    let mut t = 0.0;
                    for (i, stats) in snapshots.iter().enumerate() {
                        t += sweep_each;
                        trace.record(t, stats.clone(), profile.scaled(t / runtime_s));
                        t = if i + 1 == m { runtime_s } else { t + sync_each };
                        trace.record(t, stats.clone(), profile.scaled(t / runtime_s));
                    }
                }
                JacobiVariant::Wavefront => {
                    for (i, stats) in snapshots.iter().enumerate() {
                        let t = if i + 1 == m {
                            runtime_s
                        } else {
                            runtime_s * (i + 1) as f64 / m as f64
                        };
                        trace.record(t, stats.clone(), profile.scaled(t / runtime_s));
                    }
                }
            }
        }

        JacobiResult {
            mlups,
            runtime_s,
            updates,
            memory_bytes: total_bytes,
            l3_lines_in: llc_total.lines_in,
            l3_lines_out: llc_total.lines_out,
            stats,
            profile,
        }
    }
}

/// The Jacobi smoother as a pluggable [`Workload`]: one variant at one grid
/// size, executed for the placement the experiment harness resolves. An
/// iteration is one lattice-site update, so
/// [`WorkloadRun::iterations_per_second`] `/ 1e6` is the MLUPS figure of
/// the paper.
#[derive(Debug, Clone, Copy)]
pub struct JacobiWorkload {
    /// Which variant to run.
    pub variant: JacobiVariant,
    /// Grid size in every dimension.
    pub size: usize,
    /// Number of time steps.
    pub time_steps: usize,
}

impl Workload for JacobiWorkload {
    fn name(&self) -> &str {
        match self.variant {
            JacobiVariant::Threaded => "jacobi-threaded",
            JacobiVariant::ThreadedNt => "jacobi-threaded-nt",
            JacobiVariant::Wavefront => "jacobi-wavefront",
        }
    }

    fn flops_per_iteration(&self) -> f64 {
        8.0 // 7-point stencil: six adds and two multiplies per update
    }

    fn bytes_per_iteration(&self) -> f64 {
        // Streaming traffic per update once the grid exceeds the caches:
        // the stencil neighbours come from cache, so the source costs one
        // read; the destination costs write-allocate plus write-back (or a
        // streamed store); the wavefront touches memory only at the
        // pipeline's two ends, once per WAVEFRONT_DEPTH time steps.
        match self.variant {
            JacobiVariant::Threaded => 24.0,
            JacobiVariant::ThreadedNt => 16.0,
            JacobiVariant::Wavefront => 16.0 / JacobiConfig::WAVEFRONT_DEPTH as f64,
        }
    }

    fn working_set_bytes(&self) -> u64 {
        2 * (self.size as u64).pow(3) * 8
    }

    fn run(&self, machine: &SimMachine, placement: &Placement) -> WorkloadRun {
        self.traced(machine, placement, None)
    }

    fn run_traced(
        &self,
        machine: &SimMachine,
        placement: &Placement,
        trace: &mut ProgressTrace,
    ) -> WorkloadRun {
        self.traced(machine, placement, Some(trace))
    }
}

impl JacobiWorkload {
    fn traced(
        &self,
        machine: &SimMachine,
        placement: &Placement,
        trace: Option<&mut ProgressTrace>,
    ) -> WorkloadRun {
        let result = Jacobi::new(machine).run_traced(
            &JacobiConfig {
                size: self.size,
                time_steps: self.time_steps,
                placement: placement.compute.clone(),
                variant: self.variant,
            },
            trace,
        );
        WorkloadRun {
            iterations: result.updates,
            runtime_s: result.runtime_s,
            bandwidth_mbs: result.memory_bytes as f64 / result.runtime_s / 1e6,
            mflops: result.updates as f64 * self.flops_per_iteration() / result.runtime_s / 1e6,
            stats: result.stats,
            profile: result.profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_cache_sim::ShardedCacheSystem;
    use likwid_x86_machine::MachinePreset;

    /// Grid size used by the heavier tests: large enough that the two grids
    /// (≈18 MB) stream through the Nehalem preset's 8 MB L3 without reuse
    /// between sweeps, so the memory-traffic differences of Table II
    /// actually materialise.
    const TEST_SIZE: usize = 104;

    fn nehalem() -> SimMachine {
        SimMachine::new(MachinePreset::NehalemEp2S)
    }

    fn run_sized(
        machine: &SimMachine,
        variant: JacobiVariant,
        placement: Vec<usize>,
        size: usize,
    ) -> JacobiResult {
        Jacobi::new(machine).run(&JacobiConfig {
            size,
            time_steps: JacobiConfig::WAVEFRONT_DEPTH,
            placement,
            variant,
        })
    }

    fn run(machine: &SimMachine, variant: JacobiVariant, placement: Vec<usize>) -> JacobiResult {
        run_sized(machine, variant, placement, TEST_SIZE)
    }

    #[test]
    fn table2_traffic_performance_and_ballpark() {
        let machine = nehalem();
        let one_socket = vec![0, 1, 2, 3];
        let threaded = run(&machine, JacobiVariant::Threaded, one_socket.clone());
        let nt = run(&machine, JacobiVariant::ThreadedNt, one_socket.clone());
        let blocked = run(&machine, JacobiVariant::Wavefront, one_socket);

        // Traffic ordering of Table II: NT saves roughly the write-allocate
        // third, temporal blocking cuts traffic by several x.
        assert!(
            nt.memory_bytes as f64 <= 0.8 * threaded.memory_bytes as f64,
            "NT vs threaded traffic: {} vs {}",
            nt.memory_bytes,
            threaded.memory_bytes
        );
        assert!(
            (blocked.memory_bytes as f64) < 0.45 * threaded.memory_bytes as f64,
            "blocked vs threaded traffic: {} vs {}",
            blocked.memory_bytes,
            threaded.memory_bytes
        );
        // The same ordering shows up in the uncore L3 line counts.
        assert!(blocked.l3_lines_in < nt.l3_lines_in);
        assert!(nt.l3_lines_in < threaded.l3_lines_in);

        // Performance ordering: threaded < NT < blocked …
        assert!(nt.mlups > threaded.mlups, "{} !> {}", nt.mlups, threaded.mlups);
        assert!(blocked.mlups > nt.mlups, "{} !> {}", blocked.mlups, nt.mlups);
        // … but the speedup lags far behind the traffic reduction (IV-C).
        let speedup = blocked.mlups / threaded.mlups;
        let traffic_reduction = threaded.memory_bytes as f64 / blocked.memory_bytes as f64;
        assert!(
            speedup < 0.75 * traffic_reduction,
            "speedup {speedup} must lag the traffic reduction {traffic_reduction}"
        );

        // Paper Table II reports 784 / 1032 / 1331 MLUPS; the simulated
        // substrate is not the authors' testbed, so require the right
        // ballpark rather than exact values.
        assert!(threaded.mlups > 400.0 && threaded.mlups < 1100.0, "threaded {}", threaded.mlups);
        assert!(nt.mlups > 600.0 && nt.mlups < 1400.0, "NT {}", nt.mlups);
        assert!(blocked.mlups > 900.0 && blocked.mlups < 1800.0, "blocked {}", blocked.mlups);
    }

    #[test]
    fn figure11_wrong_pinning_ruins_the_wavefront() {
        let machine = nehalem();
        // Right: the four pipeline stages on the physical cores of socket 0.
        let right = run(&machine, JacobiVariant::Wavefront, vec![0, 1, 2, 3]);
        // Wrong: pairs of stages split across the two sockets.
        let wrong = run(&machine, JacobiVariant::Wavefront, vec![0, 1, 4, 5]);
        let baseline = run(&machine, JacobiVariant::Threaded, vec![0, 1, 2, 3]);
        assert!(
            right.mlups > 1.5 * wrong.mlups,
            "wrong pinning must cost about a factor of two: {} vs {}",
            right.mlups,
            wrong.mlups
        );
        assert!(
            wrong.memory_bytes as f64 > 1.25 * right.memory_bytes as f64,
            "the plane hand-off turns into measurable memory traffic: {} vs {}",
            wrong.memory_bytes,
            right.memory_bytes
        );
        // And the badly pinned wavefront drops to (or below) the plain
        // threaded baseline, as in Figure 11.
        assert!(wrong.mlups < 1.1 * baseline.mlups);
    }

    #[test]
    fn updates_and_runtime_are_consistent() {
        let machine = nehalem();
        let size = 32;
        let result = run_sized(&machine, JacobiVariant::Threaded, vec![0, 1, 2, 3], size);
        let n = (size - 2) as u64;
        assert_eq!(result.updates, n * n * n * 4);
        assert!(result.runtime_s > 0.0);
        assert!((result.mlups - result.updates as f64 / result.runtime_s / 1e6).abs() < 1e-6);
        // The profile charges cycles to exactly the worker threads.
        assert!(result.profile.cycles[0] > 0);
        assert_eq!(result.profile.cycles[7], 0);
    }

    #[test]
    fn workload_trait_run_matches_the_direct_run() {
        let machine = nehalem();
        let direct = run_sized(&machine, JacobiVariant::Wavefront, vec![0, 1, 2, 3], 48);
        let run = JacobiWorkload { variant: JacobiVariant::Wavefront, size: 48, time_steps: 4 }
            .run(&machine, &Placement::pinned(vec![0, 1, 2, 3]));
        assert_eq!(run.iterations, direct.updates);
        assert_eq!(run.runtime_s, direct.runtime_s);
        assert_eq!(run.stats, direct.stats);
        assert!((run.iterations_per_second() / 1e6 - direct.mlups).abs() < 1e-9);
    }

    #[test]
    fn sharded_replay_matches_the_sequential_drain_of_the_same_queue() {
        let machine = nehalem();
        // Socket-straddling placement on a grid whose planes span two
        // directory pages, so the interior epochs actually shard.
        for variant in [JacobiVariant::Threaded, JacobiVariant::ThreadedNt] {
            let config =
                JacobiConfig { size: 32, time_steps: 3, placement: vec![0, 1, 4, 5], variant };
            let jacobi = Jacobi::new(&machine);
            let queue = jacobi.threaded_replay_queue(&config);
            let home =
                machine.topology().hw_thread(config.placement[0]).map(|t| t.socket).unwrap_or(0);
            let hierarchy =
                HierarchyConfig::from_machine(&machine, NumaPolicy::SingleNode { socket: home });
            let mut sequential = NodeCacheSystem::new(hierarchy.clone());
            sequential.replay(&queue);
            for workers in [1, 2, 4] {
                let mut sharded = ShardedCacheSystem::with_workers(hierarchy.clone(), workers);
                sharded.replay(&queue);
                assert_eq!(
                    sharded.stats(),
                    sequential.stats(),
                    "{} with {workers} workers",
                    variant.name()
                );
                assert!(
                    sharded.epochs_parallel() > 0,
                    "{} interior epochs must shard",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn wavefront_needs_the_shared_cache_not_just_any_four_cores() {
        // Same experiment on the Westmere preset with its 12 MB L3: the
        // correctly pinned wavefront must beat the split one there too.
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let size = 64;
        let right = run_sized(&machine, JacobiVariant::Wavefront, vec![0, 1, 2, 3], size);
        let wrong = run_sized(&machine, JacobiVariant::Wavefront, vec![0, 1, 6, 7], size);
        assert!(right.mlups > 1.3 * wrong.mlups, "{} vs {}", right.mlups, wrong.mlups);
    }
}
