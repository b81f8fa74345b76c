//! Bandwidth-centric performance model.
//!
//! The STREAM figures of the paper are entirely about how a bandwidth-bound
//! loop's performance depends on where its threads run. The model here
//! captures the four mechanisms that produce those shapes:
//!
//! 1. **Per-core limits** — a single core cannot saturate a socket's memory
//!    controller; the achievable per-core traffic depends on the code
//!    generation (icc vs. gcc) and improves slightly (icc) or substantially
//!    (gcc) when the second SMT thread of the core is used.
//! 2. **Core sharing** — application threads placed on the same physical
//!    core (SMT siblings or oversubscription) share that core's capability.
//! 3. **Memory-controller saturation** — the summed demand on one socket's
//!    controller is capped by its sustainable bandwidth; this is the
//!    plateau of every STREAM figure.
//! 4. **ccNUMA placement** — pages live where they were first touched; a
//!    thread whose pages sit on the other socket pulls them across the
//!    inter-socket link, which has its own (lower) cap. This is why
//!    unpinned runs that migrate away from their data are slow.
//!
//! The same primitives feed the Jacobi model in [`crate::jacobi`].

use std::collections::HashMap;

use likwid_x86_machine::presets::MemorySystemSpec;
use likwid_x86_machine::TopologySpec;

use crate::openmp::CompilerPersonality;

/// Kernel parameters of the modelled streaming loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamKernelModel {
    /// Actual memory traffic per loop iteration in bytes (including write
    /// allocate if the stores are not non-temporal).
    pub traffic_bytes_per_iteration: f64,
    /// Bytes the benchmark counts as useful per iteration (STREAM counts
    /// 24 bytes for the triad regardless of the write-allocate stream).
    pub useful_bytes_per_iteration: f64,
    /// Maximum traffic one physical core can generate, in bytes/s.
    pub per_core_traffic_bps: f64,
    /// Fractional throughput gained by the core when its second SMT thread
    /// also runs the loop.
    pub smt_benefit: f64,
}

impl StreamKernelModel {
    /// The triad kernel as compiled by `personality` on `machine`.
    pub fn triad(personality: CompilerPersonality, memory: &MemorySystemSpec) -> Self {
        StreamKernelModel {
            traffic_bytes_per_iteration: personality.triad_bytes_per_iteration(),
            useful_bytes_per_iteration: 24.0,
            per_core_traffic_bps: memory.per_core_bandwidth_bps
                * personality.per_core_traffic_fraction(),
            smt_benefit: personality.smt_benefit(),
        }
    }
}

/// The bandwidth model for one node.
pub struct BandwidthModel<'a> {
    topo: &'a TopologySpec,
    memory: MemorySystemSpec,
}

impl<'a> BandwidthModel<'a> {
    /// Model for a topology and its memory system.
    pub fn new(topo: &'a TopologySpec, memory: MemorySystemSpec) -> Self {
        BandwidthModel { topo, memory }
    }

    /// The NUMA home socket of each application thread's array partition.
    ///
    /// STREAM initialises its arrays in a parallel loop, so thread *t*'s
    /// partition is first-touched — and therefore physically allocated — on
    /// whatever socket thread *t* happened to run on during initialisation.
    /// A serial initialisation (empty `init_placement`) puts everything on
    /// socket 0.
    pub(crate) fn home_sockets(&self, num_threads: usize, init_placement: &[usize]) -> Vec<usize> {
        (0..num_threads)
            .map(|t| {
                if init_placement.is_empty() {
                    0
                } else {
                    let hw = init_placement[t % init_placement.len()];
                    self.topo.hw_thread(hw).map(|h| h.socket as usize).unwrap_or(0)
                }
            })
            .collect()
    }

    /// The traffic each application thread can demand given the placement:
    /// threads sharing a physical core share its capability (with the SMT
    /// bonus when two distinct hardware threads of the core are used).
    pub(crate) fn per_thread_demand(
        &self,
        placement: &[usize],
        kernel: &StreamKernelModel,
    ) -> Vec<f64> {
        // Group application threads by physical core.
        let mut core_app_threads: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        let mut core_hw_threads: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        for (app, &hw) in placement.iter().enumerate() {
            let Ok(t) = self.topo.hw_thread(hw) else { continue };
            let key = (t.socket, t.core_index);
            core_app_threads.entry(key).or_default().push(app);
            let hw_list = core_hw_threads.entry(key).or_default();
            if !hw_list.contains(&hw) {
                hw_list.push(hw);
            }
        }

        let mut demand = vec![0.0; placement.len()];
        for (key, apps) in &core_app_threads {
            let distinct_hw = core_hw_threads[key].len();
            let capability = kernel.per_core_traffic_bps
                * (1.0 + kernel.smt_benefit * (distinct_hw.saturating_sub(1)) as f64);
            let per_thread = capability / apps.len() as f64;
            for &app in apps {
                demand[app] = per_thread;
            }
        }
        demand
    }

    /// Penalty applied to a single thread's achievable traffic when its data
    /// lives on the remote socket: besides the link bandwidth cap, the
    /// additional latency of crossing QPI/HyperTransport limits how much a
    /// single thread can keep in flight.
    const REMOTE_THREAD_FACTOR: f64 = 0.6;

    /// Total achieved memory traffic (bytes/s) of a placement, given the
    /// NUMA home socket of each thread's partition. Demand is capped per
    /// memory controller and per inter-socket link.
    pub(crate) fn achieved_traffic_bps(
        &self,
        placement: &[usize],
        home_sockets: &[usize],
        kernel: &StreamKernelModel,
    ) -> f64 {
        let sockets = self.topo.sockets as usize;
        let mut demand = self.per_thread_demand(placement, kernel);
        let thread_socket: Vec<usize> = placement
            .iter()
            .map(|&hw| self.topo.hw_thread(hw).map(|t| t.socket as usize).unwrap_or(0))
            .collect();

        // Remote threads cannot keep as many requests in flight.
        for (t, d) in demand.iter_mut().enumerate() {
            let home = home_sockets.get(t).copied().unwrap_or(0);
            if home != thread_socket[t] {
                *d *= Self::REMOTE_THREAD_FACTOR;
            }
        }

        // Aggregate demand per memory controller and on the interconnect.
        let mut controller_load = vec![0.0; sockets];
        let mut remote_load = 0.0;
        for (t, &d) in demand.iter().enumerate() {
            let home = home_sockets.get(t).copied().unwrap_or(0).min(sockets - 1);
            controller_load[home] += d;
            if home != thread_socket[t] {
                remote_load += d;
            }
        }

        let controller_scale: Vec<f64> = controller_load
            .iter()
            .map(|&load| {
                if load <= self.memory.socket_bandwidth_bps || load == 0.0 {
                    1.0
                } else {
                    self.memory.socket_bandwidth_bps / load
                }
            })
            .collect();
        let remote_scale = if remote_load <= self.memory.remote_bandwidth_bps || remote_load == 0.0
        {
            1.0
        } else {
            self.memory.remote_bandwidth_bps / remote_load
        };

        // Achieved traffic per thread: each thread's flow is scaled by its
        // home controller (and additionally by the link if it is remote).
        let mut total = 0.0;
        for (t, &d) in demand.iter().enumerate() {
            let home = home_sockets.get(t).copied().unwrap_or(0).min(sockets - 1);
            let mut scale = controller_scale[home];
            if home != thread_socket[t] {
                scale = scale.min(remote_scale);
            }
            total += d * scale;
        }
        total
    }

    /// The bandwidth a STREAM-style benchmark *reports* for a run with the
    /// given run-time placement and initialisation placement, in MB/s
    /// (decimal, as in the paper's figures).
    pub(crate) fn reported_stream_bandwidth(
        &self,
        placement: &[usize],
        init_placement: &[usize],
        kernel: &StreamKernelModel,
    ) -> f64 {
        let homes = self.home_sockets(placement.len(), init_placement);
        let traffic = self.achieved_traffic_bps(placement, &homes, kernel);
        let useful =
            traffic * kernel.useful_bytes_per_iteration / kernel.traffic_bytes_per_iteration;
        useful / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::MachinePreset;

    fn westmere_model(topo: &TopologySpec) -> BandwidthModel<'_> {
        BandwidthModel::new(topo, MachinePreset::WestmereEp2S.memory_system())
    }

    fn icc_kernel() -> StreamKernelModel {
        StreamKernelModel::triad(
            CompilerPersonality::IntelIcc,
            &MachinePreset::WestmereEp2S.memory_system(),
        )
    }

    fn gcc_kernel() -> StreamKernelModel {
        StreamKernelModel::triad(
            CompilerPersonality::Gcc,
            &MachinePreset::WestmereEp2S.memory_system(),
        )
    }

    #[test]
    fn single_thread_is_core_limited_not_socket_limited() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        let bw = model.reported_stream_bandwidth(&[0], &[0], &icc_kernel());
        // One icc thread: ~9.5 GB/s, far below the ~20.5 GB/s socket limit.
        assert!(bw > 8_000.0 && bw < 11_000.0, "got {bw}");
    }

    #[test]
    fn full_machine_saturates_both_sockets() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        // 12 threads pinned scatter (physical cores, 6 per socket), pages local.
        let placement: Vec<usize> = (0..12).collect();
        let bw = model.reported_stream_bandwidth(&placement, &placement, &icc_kernel());
        assert!(bw > 38_000.0 && bw < 43_000.0, "icc plateau ≈ 41 GB/s, got {bw}");

        let bw_gcc = model.reported_stream_bandwidth(&placement, &placement, &gcc_kernel());
        assert!(
            bw_gcc > 28_000.0 && bw_gcc < 33_000.0,
            "gcc plateau ≈ 31 GB/s (write allocate costs 25%), got {bw_gcc}"
        );
    }

    #[test]
    fn one_socket_placement_halves_the_plateau() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        // 6 threads all on socket 0's physical cores.
        let placement: Vec<usize> = vec![0, 1, 2, 3, 4, 5];
        let both: Vec<usize> = vec![0, 1, 2, 6, 7, 8];
        let one_socket = model.reported_stream_bandwidth(&placement, &placement, &icc_kernel());
        let two_sockets = model.reported_stream_bandwidth(&both, &both, &icc_kernel());
        assert!(
            two_sockets > 1.8 * one_socket,
            "spreading over both sockets roughly doubles bandwidth: {one_socket} vs {two_sockets}"
        );
    }

    #[test]
    fn sharing_a_physical_core_hurts_icc_but_helps_less_than_a_second_core() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        let kernel = icc_kernel();
        // Two threads on the SMT siblings of core 0 vs. on two distinct cores.
        let smt_pair = model.reported_stream_bandwidth(&[0, 12], &[0, 12], &kernel);
        let two_cores = model.reported_stream_bandwidth(&[0, 1], &[0, 1], &kernel);
        assert!(two_cores > 1.5 * smt_pair, "{two_cores} vs {smt_pair}");
    }

    #[test]
    fn gcc_benefits_from_smt_more_than_icc() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        let gcc_one = model.reported_stream_bandwidth(&[0], &[0], &gcc_kernel());
        let gcc_smt = model.reported_stream_bandwidth(&[0, 12], &[0, 12], &gcc_kernel());
        let icc_one = model.reported_stream_bandwidth(&[0], &[0], &icc_kernel());
        let icc_smt = model.reported_stream_bandwidth(&[0, 12], &[0, 12], &icc_kernel());
        let gcc_gain = gcc_smt / gcc_one;
        let icc_gain = icc_smt / icc_one;
        assert!(gcc_gain > 1.3, "gcc SMT gain {gcc_gain}");
        assert!(icc_gain < 1.15, "icc SMT gain {icc_gain}");
    }

    #[test]
    fn remote_pages_are_limited_by_the_interconnect() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        let kernel = icc_kernel();
        // Six threads run on socket 1 but all pages were touched on socket 0.
        let run: Vec<usize> = vec![6, 7, 8, 9, 10, 11];
        let init: Vec<usize> = vec![0, 1, 2, 3, 4, 5];
        let remote = model.reported_stream_bandwidth(&run, &init, &kernel);
        let local = model.reported_stream_bandwidth(&run, &run, &kernel);
        assert!(
            remote < 0.6 * local,
            "remote-only access must be much slower: {remote} vs {local}"
        );
    }

    #[test]
    fn istanbul_plateau_matches_the_paper_scale() {
        let topo = MachinePreset::IstanbulH2S.topology();
        let memory = MachinePreset::IstanbulH2S.memory_system();
        let model = BandwidthModel::new(&topo, memory);
        let kernel = StreamKernelModel::triad(CompilerPersonality::IntelIcc, &memory);
        let placement: Vec<usize> = (0..12).collect();
        let bw = model.reported_stream_bandwidth(&placement, &placement, &kernel);
        assert!(bw > 22_000.0 && bw < 26_000.0, "Istanbul plateau ≈ 24-25 GB/s, got {bw}");
    }

    #[test]
    fn home_sockets_follow_the_first_touch_placement() {
        let topo = MachinePreset::WestmereEp2S.topology();
        let model = westmere_model(&topo);
        assert_eq!(
            model.home_sockets(3, &[]),
            vec![0, 0, 0],
            "serial init puts all data on socket 0"
        );
        assert_eq!(model.home_sockets(2, &[0, 6]), vec![0, 1]);
        assert_eq!(
            model.home_sockets(4, &[0, 6]),
            vec![0, 1, 0, 1],
            "wraps around the init placement"
        );
    }
}
