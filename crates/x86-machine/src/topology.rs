//! Node-level thread topology model.
//!
//! A machine is a set of packages (sockets), each with a number of physical
//! cores, each running one or more SMT hardware threads. The operating
//! system enumerates the hardware threads and assigns them the processor IDs
//! that appear in `/proc/cpuinfo` and that all affinity interfaces use. The
//! mapping between those OS processor IDs and the physical resources depends
//! on BIOS and kernel enumeration order and is exactly the information
//! `likwid-topology` recovers from the APIC IDs.

use crate::apic::ApicLayout;
use crate::error::{MachineError, Result};

/// Operating-system processor ID of a hardware thread (the number used with
/// `taskset`, `sched_setaffinity` and in `/proc/cpuinfo`).
pub type HwThreadId = usize;

/// How the (simulated) BIOS/kernel assigns OS processor IDs to hardware
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EnumerationOrder {
    /// All first SMT threads of all cores of all sockets, then all second SMT
    /// threads, … This is what the Westmere EP listing in the paper shows
    /// (hardware threads 0–11 are SMT thread 0, 12–23 are SMT thread 1).
    SmtLast,
    /// All hardware threads of socket 0, then socket 1, …; within a socket
    /// the SMT siblings are adjacent (core0-smt0, core0-smt1, core1-smt0, …).
    SocketsFirstSmtAdjacent,
    /// Sockets interleaved per core: core0/socket0, core0/socket1,
    /// core1/socket0, … (seen on some Opteron BIOSes).
    RoundRobinSockets,
}

/// One hardware thread with its physical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HwThread {
    /// OS processor ID.
    pub os_id: HwThreadId,
    /// APIC ID as reported by cpuid.
    pub apic_id: u32,
    /// Package (socket) number.
    pub socket: u32,
    /// Core ID within the package. May be non-contiguous (BIOS holes).
    pub core_id: u32,
    /// SMT thread number within the core.
    pub smt_id: u32,
    /// Dense core index within the package (0..cores_per_socket), useful for
    /// array indexing regardless of core-ID holes.
    pub core_index: u32,
}

/// A ccNUMA locality domain: a set of hardware threads with local memory.
///
/// On the machines covered here each socket is one NUMA domain.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NumaNode {
    /// NUMA node number.
    pub id: u32,
    /// Local memory capacity in bytes.
    pub memory_bytes: u64,
    /// OS processor IDs belonging to this domain.
    pub hw_threads: Vec<HwThreadId>,
}

/// Complete description of the node's processor topology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TopologySpec {
    /// Number of packages (sockets).
    pub sockets: u32,
    /// Physical cores per package.
    pub cores_per_socket: u32,
    /// SMT hardware threads per core.
    pub threads_per_core: u32,
    /// Physical core IDs used inside each package (length == cores_per_socket).
    /// Real BIOSes leave holes; the Westmere EP in the paper uses 0,1,2,8,9,10.
    pub core_ids: Vec<u32>,
    /// OS enumeration order.
    pub enumeration: EnumerationOrder,
    /// APIC ID bit-field layout.
    pub apic_layout: ApicLayout,
    /// All hardware threads, indexed by OS processor ID.
    pub hw_threads: Vec<HwThread>,
    /// NUMA domains (one per socket on the machines modelled here).
    pub numa_nodes: Vec<NumaNode>,
}

impl TopologySpec {
    /// Build a topology.
    ///
    /// `core_ids` lists the per-package physical core IDs; if `None`,
    /// consecutive IDs `0..cores_per_socket` are used. `memory_per_socket`
    /// is the local NUMA memory in bytes.
    pub fn new(
        sockets: u32,
        cores_per_socket: u32,
        threads_per_core: u32,
        core_ids: Option<Vec<u32>>,
        enumeration: EnumerationOrder,
        memory_per_socket: u64,
    ) -> Result<Self> {
        if sockets == 0 || cores_per_socket == 0 || threads_per_core == 0 {
            return Err(MachineError::InvalidTopology(
                "sockets, cores per socket and threads per core must all be non-zero".into(),
            ));
        }
        let core_ids = core_ids.unwrap_or_else(|| (0..cores_per_socket).collect());
        if core_ids.len() != cores_per_socket as usize {
            return Err(MachineError::InvalidTopology(format!(
                "core_ids has {} entries but cores_per_socket is {}",
                core_ids.len(),
                cores_per_socket
            )));
        }
        {
            let mut sorted = core_ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != core_ids.len() {
                return Err(MachineError::InvalidTopology("duplicate core IDs".into()));
            }
        }

        let max_core_id = *core_ids.iter().max().expect("non-empty core_ids");
        let apic_layout = ApicLayout::for_counts(threads_per_core, max_core_id);

        // Enumerate (socket, core_index, smt) triples in the OS order.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        match enumeration {
            EnumerationOrder::SmtLast => {
                for smt in 0..threads_per_core {
                    for socket in 0..sockets {
                        for core_index in 0..cores_per_socket {
                            triples.push((socket, core_index, smt));
                        }
                    }
                }
            }
            EnumerationOrder::SocketsFirstSmtAdjacent => {
                for socket in 0..sockets {
                    for core_index in 0..cores_per_socket {
                        for smt in 0..threads_per_core {
                            triples.push((socket, core_index, smt));
                        }
                    }
                }
            }
            EnumerationOrder::RoundRobinSockets => {
                for smt in 0..threads_per_core {
                    for core_index in 0..cores_per_socket {
                        for socket in 0..sockets {
                            triples.push((socket, core_index, smt));
                        }
                    }
                }
            }
        }

        let hw_threads: Vec<HwThread> = triples
            .iter()
            .enumerate()
            .map(|(os_id, &(socket, core_index, smt))| {
                let core_id = core_ids[core_index as usize];
                HwThread {
                    os_id,
                    apic_id: apic_layout.compose(socket, core_id, smt),
                    socket,
                    core_id,
                    smt_id: smt,
                    core_index,
                }
            })
            .collect();

        let numa_nodes = (0..sockets)
            .map(|socket| NumaNode {
                id: socket,
                memory_bytes: memory_per_socket,
                hw_threads: hw_threads
                    .iter()
                    .filter(|t| t.socket == socket)
                    .map(|t| t.os_id)
                    .collect(),
            })
            .collect();

        Ok(TopologySpec {
            sockets,
            cores_per_socket,
            threads_per_core,
            core_ids,
            enumeration,
            apic_layout,
            hw_threads,
            numa_nodes,
        })
    }

    /// Total number of hardware threads in the node.
    pub fn num_hw_threads(&self) -> usize {
        self.hw_threads.len()
    }

    /// Total number of physical cores in the node.
    pub(crate) fn num_cores(&self) -> usize {
        (self.sockets * self.cores_per_socket) as usize
    }

    /// Look up a hardware thread by OS processor ID.
    pub fn hw_thread(&self, os_id: HwThreadId) -> Result<&HwThread> {
        self.hw_threads
            .get(os_id)
            .ok_or(MachineError::NoSuchCpu { cpu: os_id, available: self.hw_threads.len() })
    }

    /// The physical cores of a socket, each represented by the OS IDs of its
    /// SMT threads (SMT 0 first). Used to pin "physical cores first".
    pub fn socket_cores(&self, socket: u32) -> Vec<Vec<HwThreadId>> {
        (0..self.cores_per_socket)
            .map(|core_index| {
                let mut ids: Vec<&HwThread> = self
                    .hw_threads
                    .iter()
                    .filter(|t| t.socket == socket && t.core_index == core_index)
                    .collect();
                ids.sort_by_key(|t| t.smt_id);
                ids.iter().map(|t| t.os_id).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn westmere() -> TopologySpec {
        TopologySpec::new(
            2,
            6,
            2,
            Some(vec![0, 1, 2, 8, 9, 10]),
            EnumerationOrder::SmtLast,
            12 * 1024 * 1024 * 1024,
        )
        .unwrap()
    }

    #[test]
    fn westmere_matches_the_paper_listing() {
        let topo = westmere();
        assert_eq!(topo.num_hw_threads(), 24);
        assert_eq!(topo.num_cores(), 12);

        // The paper's listing: HWThread 0 -> thread 0, core 0, socket 0;
        // HWThread 3 -> thread 0, core 8, socket 0; HWThread 12 -> thread 1,
        // core 0, socket 0; HWThread 23 -> thread 1, core 10, socket 1.
        let t0 = topo.hw_thread(0).unwrap();
        assert_eq!((t0.smt_id, t0.core_id, t0.socket), (0, 0, 0));
        let t3 = topo.hw_thread(3).unwrap();
        assert_eq!((t3.smt_id, t3.core_id, t3.socket), (0, 8, 0));
        let t12 = topo.hw_thread(12).unwrap();
        assert_eq!((t12.smt_id, t12.core_id, t12.socket), (1, 0, 0));
        let t23 = topo.hw_thread(23).unwrap();
        assert_eq!((t23.smt_id, t23.core_id, t23.socket), (1, 10, 1));

        // Socket membership as printed: Socket 0: ( 0 12 1 13 2 14 3 15 4 16 5 17 )
        assert_eq!(topo.socket_cores(0).concat(), vec![0, 12, 1, 13, 2, 14, 3, 15, 4, 16, 5, 17]);
        assert_eq!(topo.socket_cores(1).concat(), vec![6, 18, 7, 19, 8, 20, 9, 21, 10, 22, 11, 23]);
    }

    #[test]
    fn core_siblings_pair_smt_threads() {
        let topo = westmere();
        assert_eq!(topo.socket_cores(0)[0], vec![0, 12]);
        assert_eq!(topo.socket_cores(1)[5], vec![11, 23]);
    }

    #[test]
    fn apic_ids_are_unique() {
        let topo = westmere();
        let mut ids: Vec<u32> = topo.hw_threads.iter().map(|t| t.apic_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), topo.num_hw_threads());
    }

    #[test]
    fn numa_nodes_partition_the_threads() {
        let topo = westmere();
        assert_eq!(topo.numa_nodes.len(), 2);
        let total: usize = topo.numa_nodes.iter().map(|n| n.hw_threads.len()).sum();
        assert_eq!(total, topo.num_hw_threads());
        assert!(topo.numa_nodes[0].hw_threads.contains(&0));
        assert!(topo.numa_nodes[1].hw_threads.contains(&23));
    }

    #[test]
    fn sockets_first_enumeration() {
        let topo =
            TopologySpec::new(2, 4, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, 8 << 30)
                .unwrap();
        // Nehalem EP quad-core without SMT in this order: 0-3 socket 0, 4-7 socket 1.
        assert_eq!(topo.hw_thread(0).unwrap().socket, 0);
        assert_eq!(topo.hw_thread(3).unwrap().socket, 0);
        assert_eq!(topo.hw_thread(4).unwrap().socket, 1);
        assert_eq!(topo.hw_thread(7).unwrap().socket, 1);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(TopologySpec::new(0, 4, 1, None, EnumerationOrder::SmtLast, 1).is_err());
        assert!(TopologySpec::new(2, 4, 1, Some(vec![0, 1]), EnumerationOrder::SmtLast, 1).is_err());
        assert!(
            TopologySpec::new(1, 2, 1, Some(vec![3, 3]), EnumerationOrder::SmtLast, 1).is_err(),
            "duplicate core IDs must be rejected"
        );
    }

    #[test]
    fn socket_cores_lists_physical_cores_with_their_siblings() {
        let topo = westmere();
        let cores = topo.socket_cores(0);
        assert_eq!(cores.len(), 6);
        assert_eq!(cores[0], vec![0, 12]);
        assert_eq!(cores[5], vec![5, 17]);
    }
}
