//! The registered microbenchmark kernels of the `likwid-bench` harness.
//!
//! Each kernel is a [`Workload`] driven as cache-line-granularity address
//! streams through the cache simulator, so its memory traffic — including
//! write-allocate transfers — is *measured*, not assumed. The modelled
//! runtime combines the measured traffic with the machine's bandwidth
//! model (roofline style), which makes bandwidth and MFlops/s fall out for
//! any placement on any machine preset.
//!
//! The registry covers the classic STREAM family plus a dependent-load
//! latency probe:
//!
//! | name    | kernel                | streams (R+W)     | flops/elem |
//! |---------|-----------------------|-------------------|------------|
//! | `copy`  | `a[i] = b[i]`         | 1 + 1             | 0          |
//! | `scale` | `a[i] = s*b[i]`       | 1 + 1             | 1          |
//! | `add`   | `a[i] = b[i] + c[i]`  | 2 + 1             | 1          |
//! | `triad` | `a[i] = b[i] + s*c[i]`| 2 + 1             | 2          |
//! | `daxpy` | `y[i] += a*x[i]`      | 2 + 1 (y is both) | 2          |
//! | `chase` | pointer chase         | 1 dependent load  | 0          |

use likwid_cache_sim::{Access, HierarchyConfig, NodeCacheSystem, NumaPolicy, ReplayQueue, RunOp};
use likwid_x86_machine::SimMachine;

use crate::coherence::StoreCoherence;
use crate::exec::ExecutionProfile;
use crate::perfmodel::{BandwidthModel, StreamKernelModel};
use crate::workload::{Placement, Workload, WorkloadRun};

/// Lines per blocked sub-run: small enough that all streams of a block stay
/// resident between their load and store passes (4 KiB per stream), so a
/// read-modify-write target is not write-allocated twice.
const BLOCK_LINES: u64 = 64;

/// Gap between consecutive arrays, so streams never share a page.
const ARRAY_GAP: u64 = 1 << 21;

/// A STREAM-style streaming kernel, parameterised by its stream counts.
#[derive(Debug, Clone)]
pub struct StreamingKernel {
    name: &'static str,
    /// Arrays that are only read.
    read_streams: u64,
    /// Whether the kernel writes an output array.
    writes: bool,
    /// Whether the written array is also one of the read streams (`daxpy`'s
    /// `y` — a read-modify-write target pays no write-allocate).
    store_is_read: bool,
    flops_per_element: f64,
    working_set_bytes: u64,
    /// Passes over the working set.
    passes: u64,
}

impl StreamingKernel {
    fn new(
        name: &'static str,
        read_streams: u64,
        store_is_read: bool,
        flops_per_element: f64,
        working_set_bytes: u64,
        passes: u64,
    ) -> Self {
        StreamingKernel {
            name,
            read_streams,
            writes: true,
            store_is_read,
            flops_per_element,
            working_set_bytes,
            passes: passes.max(1),
        }
    }

    /// STREAM copy: `a[i] = b[i]`.
    pub fn copy(working_set_bytes: u64, passes: u64) -> Self {
        Self::new("copy", 1, false, 0.0, working_set_bytes, passes)
    }

    /// STREAM scale: `a[i] = s*b[i]`.
    pub fn scale(working_set_bytes: u64, passes: u64) -> Self {
        Self::new("scale", 1, false, 1.0, working_set_bytes, passes)
    }

    /// STREAM add: `a[i] = b[i] + c[i]`.
    pub fn add(working_set_bytes: u64, passes: u64) -> Self {
        Self::new("add", 2, false, 1.0, working_set_bytes, passes)
    }

    /// STREAM triad: `a[i] = b[i] + s*c[i]`.
    pub fn triad(working_set_bytes: u64, passes: u64) -> Self {
        Self::new("triad", 2, false, 2.0, working_set_bytes, passes)
    }

    /// BLAS-1 daxpy: `y[i] = y[i] + a*x[i]` — the output vector is also an
    /// input, so its stores pay no write-allocate.
    pub fn daxpy(working_set_bytes: u64, passes: u64) -> Self {
        Self::new("daxpy", 2, true, 2.0, working_set_bytes, passes)
    }

    /// Number of distinct arrays the kernel touches.
    fn num_arrays(&self) -> u64 {
        self.read_streams + if self.writes && !self.store_is_read { 1 } else { 0 }
    }

    /// Elements per array: the working set split evenly, whole lines, and
    /// never zero — a degenerate `-w` still streams one line per array
    /// instead of producing a 0-iteration run with NaN-valued rates.
    fn elements_per_array(&self) -> u64 {
        ((self.working_set_bytes / (8 * self.num_arrays().max(1))) & !7).max(8)
    }

    /// Useful bytes per element as STREAM counts them (reads + writes, no
    /// write-allocate).
    fn useful_bytes_per_element(&self) -> f64 {
        8.0 * (self.read_streams + u64::from(self.writes)) as f64
    }

    /// The kernel's whole access stream as an epoch-batched replay queue
    /// (one epoch per pass), in exactly the order the blocked per-thread
    /// loop issues it.
    fn replay_queue(&self, num_hw_threads: usize, threads: &[usize]) -> ReplayQueue {
        let elems = self.elements_per_array();
        let lines = elems / 8;
        let array_bytes = elems * 8;
        let base_of = |array: u64| array * (array_bytes + ARRAY_GAP);
        let store_array = if self.store_is_read {
            // The last read stream is the read-modify-write target.
            self.read_streams - 1
        } else {
            self.read_streams
        };
        let num_threads = threads.len() as u64;
        let chunk = |t: u64| (t * lines / num_threads, (t + 1) * lines / num_threads);

        let mut queue = ReplayQueue::new(num_hw_threads);
        for _pass in 0..self.passes {
            queue.begin_epoch();
            for (t, &hw) in threads.iter().enumerate() {
                let (l0, l1) = chunk(t as u64);
                let mut block = l0;
                while block < l1 {
                    let count = BLOCK_LINES.min(l1 - block);
                    for array in 0..self.read_streams {
                        queue.push(hw, RunOp::load_lines(base_of(array) + block * 64, count));
                    }
                    if self.writes {
                        queue
                            .push(hw, RunOp::store_lines(base_of(store_array) + block * 64, count));
                    }
                    block += count;
                }
            }
        }
        queue
    }
}

impl Workload for StreamingKernel {
    fn name(&self) -> &str {
        self.name
    }

    fn flops_per_iteration(&self) -> f64 {
        self.flops_per_element
    }

    fn bytes_per_iteration(&self) -> f64 {
        let store_bytes = if !self.writes {
            0.0
        } else if self.store_is_read {
            8.0 // the line is already present from the read: write-back only
        } else {
            16.0 // write-allocate read plus eventual write-back
        };
        8.0 * self.read_streams as f64 + store_bytes
    }

    fn working_set_bytes(&self) -> u64 {
        // The bytes the kernel actually touches: the requested budget split
        // into equal whole-line arrays (with the one-line floor), not the
        // raw `-w` value.
        self.num_arrays() * self.elements_per_array() * 8
    }

    fn run(&self, machine: &SimMachine, placement: &Placement) -> WorkloadRun {
        let threads = &placement.compute;
        assert!(!threads.is_empty(), "at least one thread is required");
        let topo = machine.topology();
        let elems = self.elements_per_array();
        let lines = elems / 8;

        // First-touch placement, as in the Jacobi runs: the pages live on
        // the socket of the thread that initialised them.
        let home_socket = topo.hw_thread(placement.init[0]).map(|t| t.socket).unwrap_or(0);
        let hierarchy =
            HierarchyConfig::from_machine(machine, NumaPolicy::SingleNode { socket: home_socket });
        let mut sys = NodeCacheSystem::new(hierarchy);
        sys.replay(&self.replay_queue(topo.num_hw_threads(), threads));

        let num_threads = threads.len() as u64;
        let chunk = |t: u64| (t * lines / num_threads, (t + 1) * lines / num_threads);
        let stats = sys.stats();
        let iterations = self.passes * elems;

        // Roofline: the measured memory traffic over the bandwidth the
        // placement can achieve, against the in-core throughput limit.
        let memory = machine.memory_system();
        let model = BandwidthModel::new(topo, memory);
        let kernel_model = StreamKernelModel {
            traffic_bytes_per_iteration: self.bytes_per_iteration(),
            useful_bytes_per_iteration: self.useful_bytes_per_element(),
            per_core_traffic_bps: memory.per_core_bandwidth_bps,
            smt_benefit: 0.05,
        };
        let homes = model.home_sockets(threads.len(), &placement.init);
        let achieved_bps = model.achieved_traffic_bps(threads, &homes, &kernel_model);
        let memory_time = stats.total_memory_bytes() as f64 / achieved_bps;
        let cycles_per_element = 1.0 + self.flops_per_element / 2.0;
        // The in-core bound is set by the busiest thread's chunk (with a
        // degenerate working set some threads may own no lines at all).
        let max_thread_elems = (0..num_threads)
            .map(|t| {
                let (l0, l1) = chunk(t);
                (l1 - l0) * 8 * self.passes
            })
            .max()
            .unwrap_or(0);
        let compute_time =
            max_thread_elems as f64 * cycles_per_element / machine.clock().frequency_hz;
        let runtime_s = memory_time.max(compute_time);

        let mut profile = ExecutionProfile::new(topo.num_hw_threads());
        let cycles = machine.clock().seconds_to_cycles(runtime_s);
        for (t, &hw) in threads.iter().enumerate() {
            let (l0, l1) = chunk(t as u64);
            if l0 == l1 {
                continue; // this thread owned no lines and did no work
            }
            profile.credit_streaming_thread(
                hw,
                cycles,
                (l1 - l0) * 8 * self.passes,
                self.read_streams + u64::from(self.writes) + 1,
                self.flops_per_element,
            );
        }

        let useful_bytes = iterations as f64 * self.useful_bytes_per_element();
        WorkloadRun {
            iterations,
            runtime_s,
            bandwidth_mbs: useful_bytes / runtime_s / 1e6,
            mflops: iterations as f64 * self.flops_per_element / runtime_s / 1e6,
            stats,
            profile,
        }
    }
}

/// A serial pointer-chase latency workload: one thread follows a full-period
/// permutation of the cache lines of its working set, one dependent load at
/// a time. The modelled runtime charges every access the latency of the
/// cache level that satisfied it, so the time per iteration *is* the average
/// load-to-use latency — a scenario the paper never ran.
#[derive(Debug, Clone)]
pub struct PointerChase {
    working_set_bytes: u64,
    passes: u64,
}

impl PointerChase {
    /// A chase over `working_set_bytes` (rounded down to a power-of-two
    /// number of cache lines), `passes` rounds through the permutation.
    pub fn new(working_set_bytes: u64, passes: u64) -> Self {
        PointerChase { working_set_bytes, passes: passes.max(1) }
    }

    /// Cache lines in the chase (a power of two, so the permutation has
    /// full period).
    fn lines(&self) -> u64 {
        let lines = (self.working_set_bytes / 64).max(16);
        if lines.is_power_of_two() {
            lines
        } else {
            lines.next_power_of_two() / 2
        }
    }
}

impl Workload for PointerChase {
    fn name(&self) -> &str {
        "chase"
    }

    fn flops_per_iteration(&self) -> f64 {
        0.0
    }

    fn bytes_per_iteration(&self) -> f64 {
        64.0
    }

    fn working_set_bytes(&self) -> u64 {
        self.lines() * 64
    }

    fn run(&self, machine: &SimMachine, placement: &Placement) -> WorkloadRun {
        let thread = placement.compute[0];
        let topo = machine.topology();
        let home_socket = topo.hw_thread(placement.init[0]).map(|t| t.socket).unwrap_or(0);
        let hierarchy =
            HierarchyConfig::from_machine(machine, NumaPolicy::SingleNode { socket: home_socket });
        let mut sys = NodeCacheSystem::new(hierarchy);

        let lines = self.lines();
        let memory_latency = machine.memory_system().memory_latency_cycles;
        // Full-period LCG permutation over the power-of-two line count
        // (a ≡ 1 mod 4, c odd): visits every line once per pass, in an
        // order the strided prefetchers cannot follow.
        let (a, c) = (6364136223846793005u64, 1442695040888963407u64);
        let mut index = 0u64;
        let mut total_cycles = 0u64;
        for _pass in 0..self.passes {
            for _ in 0..lines {
                index = a.wrapping_mul(index).wrapping_add(c) & (lines - 1);
                let level = sys.access(thread, Access::load(index * 64));
                total_cycles += level.latency_cycles(memory_latency);
            }
        }

        let stats = sys.stats();
        let iterations = self.passes * lines;
        let runtime_s = total_cycles as f64 / machine.clock().frequency_hz;

        let mut profile = ExecutionProfile::new(topo.num_hw_threads());
        profile.cycles[thread] = total_cycles;
        profile.instructions[thread] = iterations * 4;
        profile.branches[thread] = iterations;
        profile.branch_misses[thread] = iterations / 512;

        WorkloadRun {
            iterations,
            runtime_s,
            bandwidth_mbs: iterations as f64 * 64.0 / runtime_s / 1e6,
            mflops: 0.0,
            stats,
            profile,
        }
    }
}

/// The registered kernel names, in listing order.
pub fn kernel_names() -> &'static [&'static str] {
    &["copy", "scale", "add", "triad", "daxpy", "chase", "coherence"]
}

/// One-line description of a registered kernel.
pub fn kernel_description(name: &str) -> Option<&'static str> {
    match name {
        "copy" => Some("STREAM copy: a[i] = b[i]"),
        "scale" => Some("STREAM scale: a[i] = s*b[i]"),
        "add" => Some("STREAM add: a[i] = b[i] + c[i]"),
        "triad" => Some("STREAM triad: a[i] = b[i] + s*c[i]"),
        "daxpy" => Some("BLAS-1 daxpy: y[i] = y[i] + a*x[i]"),
        "chase" => Some("serial pointer chase (load-to-use latency)"),
        "coherence" => Some("per-socket producer/consumer ring + private store streams"),
        _ => None,
    }
}

/// Instantiate a registered kernel by name — the only way the harness and
/// the `likwid-bench` tool construct kernels.
pub fn kernel_by_name(
    name: &str,
    working_set_bytes: u64,
    passes: u64,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "copy" => Box::new(StreamingKernel::copy(working_set_bytes, passes)),
        "scale" => Box::new(StreamingKernel::scale(working_set_bytes, passes)),
        "add" => Box::new(StreamingKernel::add(working_set_bytes, passes)),
        "triad" => Box::new(StreamingKernel::triad(working_set_bytes, passes)),
        "daxpy" => Box::new(StreamingKernel::daxpy(working_set_bytes, passes)),
        "chase" => Box::new(PointerChase::new(working_set_bytes, passes)),
        "coherence" => Box::new(StoreCoherence::new(working_set_bytes, passes)),
        _ => return None,
    })
}

/// Parse a working-set size expression: a plain byte count or a number with
/// a binary `kB`/`MB`/`GB` suffix (case-insensitive), e.g. `64MB`.
pub fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let lower = text.to_ascii_lowercase();
    let (digits, factor) = if let Some(d) = lower.strip_suffix("gb") {
        (d, 1u64 << 30)
    } else if let Some(d) = lower.strip_suffix("mb") {
        (d, 1u64 << 20)
    } else if let Some(d) = lower.strip_suffix("kb") {
        (d, 1u64 << 10)
    } else if let Some(d) = lower.strip_suffix('b') {
        (d, 1)
    } else {
        (lower.as_str(), 1)
    };
    let value: u64 = digits.trim().parse().ok()?;
    value.checked_mul(factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn size_expressions_parse() {
        assert_eq!(parse_size("64MB"), Some(64 << 20));
        assert_eq!(parse_size("16kb"), Some(16 << 10));
        assert_eq!(parse_size("1GB"), Some(1 << 30));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("512B"), Some(512));
        assert_eq!(parse_size(" 2 MB "), Some(2 << 20));
        assert_eq!(parse_size("lots"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn every_registered_kernel_instantiates_and_declares_metadata() {
        for &name in kernel_names() {
            let k = kernel_by_name(name, 4 << 20, 1).expect(name);
            assert_eq!(k.name(), name);
            assert!(k.bytes_per_iteration() > 0.0, "{name}");
            assert!(k.working_set_bytes() > 0, "{name}");
            assert!(kernel_description(name).is_some(), "{name}");
        }
        assert!(kernel_by_name("frobnicate", 1 << 20, 1).is_none());
    }

    #[test]
    fn declared_traffic_reflects_the_write_allocate_model() {
        let ws = 8 << 20;
        // copy moves 16 useful bytes but 24 actual (write allocate).
        assert_eq!(StreamingKernel::copy(ws, 1).bytes_per_iteration(), 24.0);
        // daxpy reads its store target: no write allocate, 24 bytes total.
        assert_eq!(StreamingKernel::daxpy(ws, 1).bytes_per_iteration(), 24.0);
        // add streams three arrays plus the write allocate.
        assert_eq!(StreamingKernel::add(ws, 1).bytes_per_iteration(), 32.0);
    }

    #[test]
    fn copy_bandwidth_is_memory_bound_on_a_large_working_set() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let kernel = StreamingKernel::copy(64 << 20, 1);
        let run = kernel.run(&machine, &Placement::pinned(vec![0, 1, 2, 3]));
        // Four cores on one socket: bounded by the socket's controller.
        let socket_bw = machine.memory_system().socket_bandwidth_bps;
        let useful_fraction = 16.0 / 24.0;
        assert!(run.bandwidth_mbs * 1e6 < socket_bw, "useful rate below raw socket bandwidth");
        assert!(
            run.bandwidth_mbs * 1e6 > 0.5 * socket_bw * useful_fraction,
            "a four-core streaming copy should get close to the controller limit, got {} MB/s",
            run.bandwidth_mbs
        );
        assert!(run.stats.total_memory_bytes() > 0);
    }

    #[test]
    fn chase_latency_grows_with_the_working_set() {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let l1 = PointerChase::new(16 << 10, 4); // fits in L1 (32 KB)
        let mem = PointerChase::new(64 << 20, 1); // far beyond the 8 MB L3
        let p = Placement::pinned(vec![0]);
        let lat_l1 = l1.run(&machine, &p).time_per_iteration_ns();
        let lat_mem = mem.run(&machine, &p).time_per_iteration_ns();
        assert!(
            lat_mem > 5.0 * lat_l1,
            "memory chase ({lat_mem} ns) must dwarf the in-cache chase ({lat_l1} ns)"
        );
    }
}
