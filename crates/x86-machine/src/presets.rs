//! Machine presets: the node configurations used throughout the paper.
//!
//! Each preset captures a complete node: microarchitecture, socket/core/SMT
//! counts, core-ID numbering, cache hierarchy, nominal clock, per-socket
//! memory bandwidth and NUMA capacity. The evaluation machines of the paper
//! are all here:
//!
//! * **Westmere EP 2-socket** (Figures 4–8): 2 × 6 cores × 2 SMT, 12 MB L3.
//! * **Nehalem EP 2-socket** (Figure 11, Table II): 2 × 4 cores × 2 SMT,
//!   8 MB L3, 2.66 GHz.
//! * **AMD Istanbul 2-socket** (Figures 9–10): 2 × 6 cores, 6 MB L3.
//! * **Core 2 Quad** (the FLOPS_DP marker listing): 1 × 4 cores, 2.83 GHz.
//!
//! plus the remaining architectures of the supported list (Pentium M, Atom,
//! Core 2 Duo, K8) so that the identification and event-table code paths are
//! exercised.

use crate::cache::{cache, CacheKind, CacheSpec};
use crate::clock::ClockDomain;
use crate::topology::{EnumerationOrder, TopologySpec};
use crate::vendor::Microarch;

/// Memory-system parameters of a preset used by the performance model and
/// the cache simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemorySystemSpec {
    /// Sustainable memory bandwidth of one socket's integrated memory
    /// controller (or chipset), in bytes per second.
    pub socket_bandwidth_bps: f64,
    /// Bandwidth available to a single core streaming alone, in bytes per
    /// second (one core usually cannot saturate the socket).
    pub per_core_bandwidth_bps: f64,
    /// Bandwidth of the inter-socket link (QPI / HyperTransport) for remote
    /// accesses, in bytes per second.
    pub remote_bandwidth_bps: f64,
    /// Main memory access latency in core cycles.
    pub memory_latency_cycles: u64,
    /// Local memory per socket in bytes.
    pub memory_per_socket: u64,
}

/// A complete machine preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MachinePreset {
    /// Dual-socket Intel Westmere EP (X5670-class): 2 × 6 cores × 2 SMT,
    /// 2.93 GHz. The STREAM machine of Figures 4–8.
    WestmereEp2S,
    /// Dual-socket Intel Nehalem EP (X5550-class): 2 × 4 cores × 2 SMT,
    /// 2.66 GHz. The stencil machine of Figure 11 and Table II.
    NehalemEp2S,
    /// Dual-socket AMD Istanbul: 2 × 6 cores, 2.6 GHz. Figures 9–10.
    IstanbulH2S,
    /// Intel Core 2 Quad (Q9550-class, 45 nm): 1 × 4 cores, 2.83 GHz.
    /// The marker-API FLOPS_DP listing.
    Core2Quad,
    /// Intel Core 2 Duo (65 nm), 2.4 GHz. The likwid-features listing.
    Core2Duo,
    /// Intel Atom (single core, 2 SMT threads), 1.6 GHz.
    Atom,
    /// Intel Pentium M (Dothan), 1.7 GHz, single core.
    PentiumM,
    /// Dual-socket AMD K8 Opteron, 2 × 2 cores, 2.4 GHz.
    K8Opteron2S,
}

impl MachinePreset {
    /// All presets.
    pub fn all() -> &'static [MachinePreset] {
        &[
            MachinePreset::WestmereEp2S,
            MachinePreset::NehalemEp2S,
            MachinePreset::IstanbulH2S,
            MachinePreset::Core2Quad,
            MachinePreset::Core2Duo,
            MachinePreset::Atom,
            MachinePreset::PentiumM,
            MachinePreset::K8Opteron2S,
        ]
    }

    /// Microarchitecture of the preset.
    pub fn arch(self) -> Microarch {
        match self {
            MachinePreset::WestmereEp2S => Microarch::WestmereEp,
            MachinePreset::NehalemEp2S => Microarch::NehalemEp,
            MachinePreset::IstanbulH2S => Microarch::K10,
            MachinePreset::Core2Quad | MachinePreset::Core2Duo => Microarch::Core2,
            MachinePreset::Atom => Microarch::Atom,
            MachinePreset::PentiumM => Microarch::PentiumM,
            MachinePreset::K8Opteron2S => Microarch::K8,
        }
    }

    /// Nominal clock.
    pub fn clock(self) -> ClockDomain {
        match self {
            MachinePreset::WestmereEp2S => ClockDomain::from_ghz(2.93),
            MachinePreset::NehalemEp2S => ClockDomain::from_ghz(2.66),
            MachinePreset::IstanbulH2S => ClockDomain::from_ghz(2.6),
            MachinePreset::Core2Quad => ClockDomain::from_ghz(2.83),
            MachinePreset::Core2Duo => ClockDomain::from_ghz(2.4),
            MachinePreset::Atom => ClockDomain::from_ghz(1.6),
            MachinePreset::PentiumM => ClockDomain::from_ghz(1.7),
            MachinePreset::K8Opteron2S => ClockDomain::from_ghz(2.4),
        }
    }

    /// Processor brand string.
    pub fn brand(self) -> &'static str {
        match self {
            MachinePreset::WestmereEp2S => "Intel(R) Xeon(R) CPU X5670",
            MachinePreset::NehalemEp2S => "Intel(R) Xeon(R) CPU X5550",
            MachinePreset::IstanbulH2S => "Six-Core AMD Opteron(tm) Processor 2435",
            MachinePreset::Core2Quad => "Intel(R) Core(TM)2 Quad CPU Q9550",
            MachinePreset::Core2Duo => "Intel(R) Core(TM)2 CPU 6600",
            MachinePreset::Atom => "Intel(R) Atom(TM) CPU N270",
            MachinePreset::PentiumM => "Intel(R) Pentium(R) M processor 1.70GHz",
            MachinePreset::K8Opteron2S => "Dual-Core AMD Opteron(tm) Processor 2216",
        }
    }

    /// Node topology.
    pub fn topology(self) -> TopologySpec {
        let mem = self.memory_system().memory_per_socket;
        match self {
            MachinePreset::WestmereEp2S => TopologySpec::new(
                2,
                6,
                2,
                Some(vec![0, 1, 2, 8, 9, 10]),
                EnumerationOrder::SmtLast,
                mem,
            ),
            MachinePreset::NehalemEp2S => {
                TopologySpec::new(2, 4, 2, Some(vec![0, 1, 2, 3]), EnumerationOrder::SmtLast, mem)
            }
            MachinePreset::IstanbulH2S => {
                TopologySpec::new(2, 6, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, mem)
            }
            MachinePreset::Core2Quad => {
                TopologySpec::new(1, 4, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, mem)
            }
            MachinePreset::Core2Duo => {
                TopologySpec::new(1, 2, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, mem)
            }
            MachinePreset::Atom => TopologySpec::new(1, 1, 2, None, EnumerationOrder::SmtLast, mem),
            MachinePreset::PentiumM => {
                TopologySpec::new(1, 1, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, mem)
            }
            MachinePreset::K8Opteron2S => {
                TopologySpec::new(2, 2, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, mem)
            }
        }
        .expect("preset topologies are valid by construction")
    }

    /// Data/unified cache hierarchy (instruction caches are omitted, like in
    /// the tool output which only prints data caches).
    pub fn caches(self) -> Vec<CacheSpec> {
        match self {
            MachinePreset::WestmereEp2S => vec![
                cache(1, CacheKind::Data, 32 << 10, 8, 64, true, 2),
                cache(2, CacheKind::Unified, 256 << 10, 8, 64, true, 2),
                cache(3, CacheKind::Unified, 12 << 20, 16, 64, false, 12),
            ],
            MachinePreset::NehalemEp2S => vec![
                cache(1, CacheKind::Data, 32 << 10, 8, 64, true, 2),
                cache(2, CacheKind::Unified, 256 << 10, 8, 64, true, 2),
                cache(3, CacheKind::Unified, 8 << 20, 16, 64, true, 8),
            ],
            MachinePreset::IstanbulH2S => vec![
                cache(1, CacheKind::Data, 64 << 10, 2, 64, false, 1),
                cache(2, CacheKind::Unified, 512 << 10, 16, 64, false, 1),
                cache(3, CacheKind::Unified, 6 << 20, 48, 64, false, 6),
            ],
            MachinePreset::Core2Quad => vec![
                cache(1, CacheKind::Data, 32 << 10, 8, 64, false, 1),
                // Core 2 Quad: two 6 MB L2 caches, each shared by a core pair.
                cache(2, CacheKind::Unified, 6 << 20, 24, 64, false, 2),
            ],
            MachinePreset::Core2Duo => vec![
                cache(1, CacheKind::Data, 32 << 10, 8, 64, false, 1),
                cache(2, CacheKind::Unified, 4 << 20, 16, 64, false, 2),
            ],
            MachinePreset::Atom => vec![
                cache(1, CacheKind::Data, 24 << 10, 6, 64, false, 2),
                cache(2, CacheKind::Unified, 512 << 10, 8, 64, false, 2),
            ],
            MachinePreset::PentiumM => vec![
                cache(1, CacheKind::Data, 32 << 10, 8, 64, false, 1),
                cache(2, CacheKind::Unified, 2 << 20, 8, 64, false, 1),
            ],
            MachinePreset::K8Opteron2S => vec![
                cache(1, CacheKind::Data, 64 << 10, 2, 64, false, 1),
                cache(2, CacheKind::Unified, 1 << 20, 16, 64, false, 1),
            ],
        }
    }

    /// Memory-system parameters used by the cache simulator and the
    /// roofline performance model.
    pub fn memory_system(self) -> MemorySystemSpec {
        match self {
            // Westmere EP: three DDR3-1333 channels per socket; the paper's
            // STREAM plots saturate around 20-21 GB/s per socket (~41 GB/s node).
            MachinePreset::WestmereEp2S => MemorySystemSpec {
                socket_bandwidth_bps: 20.5e9,
                per_core_bandwidth_bps: 9.5e9,
                remote_bandwidth_bps: 10.0e9,
                memory_latency_cycles: 200,
                memory_per_socket: 12 << 30,
            },
            // Nehalem EP: ~17 GB/s per socket sustainable.
            MachinePreset::NehalemEp2S => MemorySystemSpec {
                socket_bandwidth_bps: 17.0e9,
                per_core_bandwidth_bps: 8.0e9,
                remote_bandwidth_bps: 9.0e9,
                memory_latency_cycles: 190,
                memory_per_socket: 12 << 30,
            },
            // Istanbul: two DDR2-800 channels per socket, ~12 GB/s; the
            // paper's plots saturate around 24-25 GB/s for the full node.
            MachinePreset::IstanbulH2S => MemorySystemSpec {
                socket_bandwidth_bps: 12.3e9,
                per_core_bandwidth_bps: 5.5e9,
                remote_bandwidth_bps: 6.0e9,
                memory_latency_cycles: 230,
                memory_per_socket: 16 << 30,
            },
            // Core 2: front-side bus limited, ~7 GB/s for the whole socket.
            MachinePreset::Core2Quad => MemorySystemSpec {
                socket_bandwidth_bps: 7.0e9,
                per_core_bandwidth_bps: 4.0e9,
                remote_bandwidth_bps: 7.0e9,
                memory_latency_cycles: 250,
                memory_per_socket: 8 << 30,
            },
            MachinePreset::Core2Duo => MemorySystemSpec {
                socket_bandwidth_bps: 6.0e9,
                per_core_bandwidth_bps: 4.0e9,
                remote_bandwidth_bps: 6.0e9,
                memory_latency_cycles: 250,
                memory_per_socket: 4 << 30,
            },
            MachinePreset::Atom => MemorySystemSpec {
                socket_bandwidth_bps: 3.0e9,
                per_core_bandwidth_bps: 2.0e9,
                remote_bandwidth_bps: 3.0e9,
                memory_latency_cycles: 300,
                memory_per_socket: 2 << 30,
            },
            MachinePreset::PentiumM => MemorySystemSpec {
                socket_bandwidth_bps: 2.5e9,
                per_core_bandwidth_bps: 2.0e9,
                remote_bandwidth_bps: 2.5e9,
                memory_latency_cycles: 280,
                memory_per_socket: 2 << 30,
            },
            MachinePreset::K8Opteron2S => MemorySystemSpec {
                socket_bandwidth_bps: 6.4e9,
                per_core_bandwidth_bps: 3.5e9,
                remote_bandwidth_bps: 4.0e9,
                memory_latency_cycles: 220,
                memory_per_socket: 8 << 30,
            },
        }
    }

    /// Short identifier used on command lines and in figure captions.
    pub fn id(self) -> &'static str {
        match self {
            MachinePreset::WestmereEp2S => "westmere-ep-2s",
            MachinePreset::NehalemEp2S => "nehalem-ep-2s",
            MachinePreset::IstanbulH2S => "istanbul-2s",
            MachinePreset::Core2Quad => "core2-quad",
            MachinePreset::Core2Duo => "core2-duo",
            MachinePreset::Atom => "atom",
            MachinePreset::PentiumM => "pentium-m",
            MachinePreset::K8Opteron2S => "k8-opteron-2s",
        }
    }

    /// Parse a preset identifier.
    pub fn from_id(id: &str) -> Option<Self> {
        Self::all().iter().copied().find(|p| p.id() == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_have_consistent_caches() {
        for &p in MachinePreset::all() {
            for c in p.caches() {
                assert!(c.is_consistent(), "{p:?} cache L{} is inconsistent", c.level);
            }
        }
    }

    #[test]
    fn all_presets_build_valid_topologies() {
        for &p in MachinePreset::all() {
            let topo = p.topology();
            assert!(topo.num_hw_threads() >= 1);
            // Every cache sharing count divides the thread count of its domain.
            for c in p.caches() {
                assert!(
                    (topo.num_hw_threads() as u32).is_multiple_of(c.shared_by_threads),
                    "{p:?}: L{} shared_by {} does not divide {}",
                    c.level,
                    c.shared_by_threads,
                    topo.num_hw_threads()
                );
            }
        }
    }

    #[test]
    fn paper_machines_have_the_right_shape() {
        let westmere = MachinePreset::WestmereEp2S;
        assert_eq!(westmere.topology().num_hw_threads(), 24);
        assert_eq!(westmere.caches()[2].size_bytes, 12 << 20);
        assert_eq!(westmere.clock().display(), "2.93 GHz");

        let nehalem = MachinePreset::NehalemEp2S;
        assert_eq!(nehalem.topology().num_hw_threads(), 16);
        assert_eq!(nehalem.clock().display(), "2.66 GHz");

        let istanbul = MachinePreset::IstanbulH2S;
        assert_eq!(istanbul.topology().num_hw_threads(), 12);
        assert_eq!(istanbul.topology().threads_per_core, 1);

        let core2 = MachinePreset::Core2Quad;
        assert_eq!(core2.topology().num_hw_threads(), 4);
        assert_eq!(core2.clock().display(), "2.83 GHz");
    }

    #[test]
    fn ids_round_trip() {
        for &p in MachinePreset::all() {
            assert_eq!(MachinePreset::from_id(p.id()), Some(p));
        }
        assert_eq!(MachinePreset::from_id("sparc-t4"), None);
    }

    #[test]
    fn node_bandwidth_ordering_matches_the_paper() {
        // Westmere node bandwidth > Istanbul node bandwidth (40+ vs ~25 GB/s).
        let w = MachinePreset::WestmereEp2S.memory_system();
        let i = MachinePreset::IstanbulH2S.memory_system();
        assert!(w.socket_bandwidth_bps * 2.0 > 38e9);
        assert!(i.socket_bandwidth_bps * 2.0 < 27e9);
        // A single core cannot saturate a socket on either machine.
        assert!(w.per_core_bandwidth_bps < w.socket_bandwidth_bps);
        assert!(i.per_core_bandwidth_bps < i.socket_bandwidth_bps);
    }
}
