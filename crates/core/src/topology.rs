//! `likwid-topology`: node topology probing via `cpuid`.
//!
//! The tool never asks the operating system (or, here, the machine model)
//! for the topology directly: everything is reconstructed from the `cpuid`
//! leaves, exactly like the real implementation — leaf 0xB on Nehalem and
//! newer, the legacy leaf 0x1/0x4 method on Core 2 class parts, and the
//! extended AMD leaves on K8/K10. The tests then verify that the decoded
//! picture matches the machine's ground truth for every preset, which is
//! the property the real tool relies on silicon to provide.

use likwid_x86_machine::cpuid::{decode_brand_string, decode_family_model, decode_vendor_string};
use likwid_x86_machine::{apic, CacheKind, Microarch, SimMachine, Vendor};

use crate::error::{LikwidError, Result};
use crate::output;
use crate::report::{Ascii, Body, KvEntry, Render, Report, Row, Section, Table, Value};

/// One hardware thread as reported by the tool (the rows of the
/// "HWThread / Thread / Core / Socket" listing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwThreadInfo {
    /// OS processor ID.
    pub os_id: usize,
    /// APIC ID the thread reported.
    pub apic_id: u32,
    /// SMT thread number within the core.
    pub thread_id: u32,
    /// Core ID within the package (as numbered by the hardware, holes and all).
    pub core_id: u32,
    /// Package (socket) number.
    pub socket_id: u32,
}

/// One cache level as reported by `likwid-topology -c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheInfo {
    /// Cache level.
    pub level: u32,
    /// Data/instruction/unified.
    pub kind: CacheKind,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub associativity: u32,
    /// Number of sets.
    pub sets: u32,
    /// Line size in bytes.
    pub line_size: u32,
    /// Whether the cache is inclusive.
    pub inclusive: bool,
    /// Number of hardware threads actually sharing one instance (the
    /// "Shared among N threads" line of the listing).
    pub shared_by_threads: u32,
    /// The cache groups: for each instance, the OS processor IDs sharing it.
    pub groups: Vec<Vec<usize>>,
}

/// The probed node topology.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuTopology {
    /// CPU vendor.
    pub vendor: Vendor,
    /// Identified microarchitecture.
    pub arch: Microarch,
    /// Brand string.
    pub brand: String,
    /// Display family/model.
    pub family_model: (u32, u32),
    /// Nominal clock in GHz.
    pub clock_ghz: f64,
    /// Number of sockets found.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// SMT threads per core.
    pub threads_per_core: u32,
    /// All hardware threads, indexed by OS processor ID.
    pub hw_threads: Vec<HwThreadInfo>,
    /// Data/unified cache levels.
    pub caches: Vec<CacheInfo>,
}

impl CpuTopology {
    /// Probe the topology of a machine through its `cpuid` interface.
    pub fn probe(machine: &SimMachine) -> Result<Self> {
        let num_threads = machine.num_hw_threads();

        // Identification from hardware thread 0.
        let leaf0 = machine.cpuid(0, 0, 0)?;
        let vendor_string = decode_vendor_string(leaf0);
        let vendor = Vendor::from_id_string(&vendor_string)
            .ok_or_else(|| LikwidError::Unsupported(format!("unknown vendor '{vendor_string}'")))?;
        let leaf1 = machine.cpuid(0, 1, 0)?;
        let family_model = decode_family_model(leaf1.eax);
        let arch = Microarch::from_family_model(vendor, family_model.0, family_model.1)
            .ok_or_else(|| {
                LikwidError::Unsupported(format!(
                    "unsupported processor family {:#x} model {:#x}",
                    family_model.0, family_model.1
                ))
            })?;
        let brand = decode_brand_string([
            machine.cpuid(0, 0x8000_0002, 0)?,
            machine.cpuid(0, 0x8000_0003, 0)?,
            machine.cpuid(0, 0x8000_0004, 0)?,
        ]);

        // Per-thread APIC decomposition.
        let mut hw_threads = Vec::with_capacity(num_threads);
        for cpu in 0..num_threads {
            hw_threads.push(Self::probe_thread(machine, arch, cpu)?);
        }

        // Normalise socket numbering to be dense and stable.
        let mut socket_ids: Vec<u32> = hw_threads.iter().map(|t| t.socket_id).collect();
        socket_ids.sort_unstable();
        socket_ids.dedup();
        let sockets = socket_ids.len() as u32;

        let mut core_ids_socket0: Vec<u32> =
            hw_threads.iter().filter(|t| t.socket_id == socket_ids[0]).map(|t| t.core_id).collect();
        core_ids_socket0.sort_unstable();
        core_ids_socket0.dedup();
        let cores_per_socket = core_ids_socket0.len() as u32;

        let mut smt_ids: Vec<u32> = hw_threads.iter().map(|t| t.thread_id).collect();
        smt_ids.sort_unstable();
        smt_ids.dedup();
        let threads_per_core = smt_ids.len() as u32;

        // Cache hierarchy.
        let caches = Self::probe_caches(machine, arch, &hw_threads)?;

        Ok(CpuTopology {
            vendor,
            arch,
            brand,
            family_model,
            clock_ghz: machine.clock().ghz(),
            sockets,
            cores_per_socket,
            threads_per_core,
            hw_threads,
            caches,
        })
    }

    /// Decode the topology coordinates of one hardware thread.
    fn probe_thread(machine: &SimMachine, arch: Microarch, cpu: usize) -> Result<HwThreadInfo> {
        if arch.has_leaf_0xb() {
            // Extended topology enumeration: the SMT subleaf gives the shift
            // to strip the SMT field, the core subleaf the shift to reach the
            // package number.
            let smt_leaf = machine.cpuid(cpu, 0xB, 0)?;
            let core_leaf = machine.cpuid(cpu, 0xB, 1)?;
            let apic_id = smt_leaf.edx;
            let smt_shift = smt_leaf.eax & 0x1F;
            let package_shift = core_leaf.eax & 0x1F;
            let smt_mask = (1u32 << smt_shift) - 1;
            let core_mask = (1u32 << (package_shift - smt_shift)) - 1;
            return Ok(HwThreadInfo {
                os_id: cpu,
                apic_id,
                thread_id: apic_id & smt_mask,
                core_id: (apic_id >> smt_shift) & core_mask,
                socket_id: apic_id >> package_shift,
            });
        }

        let leaf1 = machine.cpuid(cpu, 1, 0)?;
        let apic_id = leaf1.ebx >> 24;
        match arch.vendor() {
            Vendor::Intel => {
                // Legacy method: logical processors per package from leaf 1,
                // cores per package from leaf 4.
                let logical_per_package = ((leaf1.ebx >> 16) & 0xFF).max(1);
                let cores_per_package =
                    if arch.has_leaf_0x4() { (machine.cpuid(cpu, 4, 0)?.eax >> 26) + 1 } else { 1 };
                let smt_per_core = (logical_per_package / cores_per_package).max(1);
                let smt_bits = apic::ceil_log2(smt_per_core);
                let core_bits = apic::ceil_log2(cores_per_package);
                let smt_mask = (1u32 << smt_bits).wrapping_sub(1);
                let core_mask = (1u32 << core_bits).wrapping_sub(1);
                Ok(HwThreadInfo {
                    os_id: cpu,
                    apic_id,
                    thread_id: apic_id & smt_mask,
                    core_id: (apic_id >> smt_bits) & core_mask,
                    socket_id: apic_id >> (smt_bits + core_bits),
                })
            }
            Vendor::Amd => {
                let cores_per_package = (machine.cpuid(cpu, 0x8000_0008, 0)?.ecx & 0xFF) + 1;
                let core_bits = apic::ceil_log2(cores_per_package);
                let core_mask = (1u32 << core_bits).wrapping_sub(1);
                Ok(HwThreadInfo {
                    os_id: cpu,
                    apic_id,
                    thread_id: 0,
                    core_id: apic_id & core_mask,
                    socket_id: apic_id >> core_bits,
                })
            }
        }
    }

    /// Decode the cache hierarchy and build the per-level sharing groups.
    fn probe_caches(
        machine: &SimMachine,
        arch: Microarch,
        hw_threads: &[HwThreadInfo],
    ) -> Result<Vec<CacheInfo>> {
        let mut caches = Vec::new();
        match arch.vendor() {
            Vendor::Intel if arch.has_leaf_0x4() => {
                for subleaf in 0..16u32 {
                    let r = machine.cpuid(0, 4, subleaf)?;
                    let kind_bits = r.eax & 0x1F;
                    if kind_bits == 0 {
                        break;
                    }
                    let kind = CacheKind::from_cpuid_encoding(kind_bits)
                        .ok_or_else(|| LikwidError::Unsupported("bad cache type".into()))?;
                    let level = (r.eax >> 5) & 0x7;
                    // The cpuid field is the APIC-ID *span* of the sharing
                    // domain; the actual number of sharers is the size of
                    // the resulting groups (what the listing reports as
                    // "Shared among N threads").
                    let sharing_span = ((r.eax >> 14) & 0xFFF) + 1;
                    let groups = Self::sharing_groups(hw_threads, sharing_span);
                    let shared_by = groups.first().map(|g| g.len() as u32).unwrap_or(1);
                    let line_size = (r.ebx & 0xFFF) + 1;
                    let associativity = (r.ebx >> 22) + 1;
                    let sets = r.ecx + 1;
                    let size = line_size as u64 * associativity as u64 * sets as u64;
                    caches.push(CacheInfo {
                        level,
                        kind,
                        size_bytes: size,
                        associativity,
                        sets,
                        line_size,
                        inclusive: r.edx & 0b10 != 0,
                        shared_by_threads: shared_by,
                        groups,
                    });
                }
            }
            Vendor::Intel => {
                // Pentium M: leaf 2 descriptor table. Decode the descriptors
                // the machine substrate emits.
                let r = machine.cpuid(0, 2, 0)?;
                let bytes: Vec<u8> =
                    [r.eax, r.ebx, r.ecx, r.edx].iter().flat_map(|v| v.to_le_bytes()).collect();
                for (i, &b) in bytes.iter().enumerate() {
                    if i == 0 {
                        continue; // AL is the repeat count
                    }
                    let info = match b {
                        0x2c => Some((1, CacheKind::Data, 32 * 1024, 8, 64)),
                        0x30 => Some((1, CacheKind::Instruction, 32 * 1024, 8, 64)),
                        0x7d => Some((2, CacheKind::Unified, 2 * 1024 * 1024, 8, 64)),
                        0x29 => Some((3, CacheKind::Unified, 4 * 1024 * 1024, 8, 64)),
                        _ => None,
                    };
                    if let Some((level, kind, size, assoc, line)) = info {
                        caches.push(CacheInfo {
                            level,
                            kind,
                            size_bytes: size,
                            associativity: assoc,
                            sets: (size / (assoc as u64 * line as u64)) as u32,
                            line_size: line,
                            inclusive: false,
                            shared_by_threads: 1,
                            groups: Self::sharing_groups(hw_threads, 1),
                        });
                    }
                }
            }
            Vendor::Amd => {
                let l1 = machine.cpuid(0, 0x8000_0005, 0)?;
                let l1_size_kb = l1.ecx >> 24;
                let l1_assoc = (l1.ecx >> 16) & 0xFF;
                let l1_line = l1.ecx & 0xFF;
                if l1_size_kb > 0 {
                    let size = l1_size_kb as u64 * 1024;
                    caches.push(CacheInfo {
                        level: 1,
                        kind: CacheKind::Data,
                        size_bytes: size,
                        associativity: l1_assoc,
                        sets: (size / (l1_assoc as u64 * l1_line as u64)) as u32,
                        line_size: l1_line,
                        inclusive: false,
                        shared_by_threads: 1,
                        groups: Self::sharing_groups(hw_threads, 1),
                    });
                }
                let l23 = machine.cpuid(0, 0x8000_0006, 0)?;
                let l2_size_kb = l23.ecx >> 16;
                let l2_line = l23.ecx & 0xFF;
                let amd_assoc = |code: u32| match code {
                    0x1 => 1,
                    0x2 => 2,
                    0x4 => 4,
                    0x6 => 8,
                    0x8 => 16,
                    0xA => 32,
                    0xB => 48,
                    0xC => 64,
                    0xD => 96,
                    0xE => 128,
                    _ => 16,
                };
                if l2_size_kb > 0 {
                    let assoc = amd_assoc((l23.ecx >> 12) & 0xF);
                    let size = l2_size_kb as u64 * 1024;
                    caches.push(CacheInfo {
                        level: 2,
                        kind: CacheKind::Unified,
                        size_bytes: size,
                        associativity: assoc,
                        sets: (size / (assoc as u64 * l2_line as u64)) as u32,
                        line_size: l2_line,
                        inclusive: false,
                        shared_by_threads: 1,
                        groups: Self::sharing_groups(hw_threads, 1),
                    });
                }
                let l3_size = (l23.edx >> 18) as u64 * 512 * 1024;
                let l3_line = l23.edx & 0xFF;
                if l3_size > 0 {
                    let assoc = amd_assoc((l23.edx >> 12) & 0xF);
                    // The L3 is shared by all cores of the package.
                    let cores_per_package = (machine.cpuid(0, 0x8000_0008, 0)?.ecx & 0xFF) + 1;
                    caches.push(CacheInfo {
                        level: 3,
                        kind: CacheKind::Unified,
                        size_bytes: l3_size,
                        associativity: assoc,
                        sets: (l3_size / (assoc as u64 * l3_line as u64)) as u32,
                        line_size: l3_line,
                        inclusive: false,
                        shared_by_threads: cores_per_package,
                        groups: Self::sharing_groups(hw_threads, cores_per_package),
                    });
                }
            }
        }
        Ok(caches)
    }

    /// Group hardware threads that share one cache instance: threads share a
    /// cache when their APIC IDs agree above the `ceil_log2(shared_by)` low
    /// bits (the standard Intel enumeration algorithm).
    fn sharing_groups(hw_threads: &[HwThreadInfo], shared_by: u32) -> Vec<Vec<usize>> {
        let shift = apic::ceil_log2(shared_by.max(1));
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for t in hw_threads {
            let key = t.apic_id >> shift;
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(t.os_id),
                None => groups.push((key, vec![t.os_id])),
            }
        }
        // Order groups by their first member for stable output and sort the
        // members by (SMT, core) so siblings interleave like the listings.
        let mut out: Vec<Vec<usize>> = groups.into_iter().map(|(_, m)| m).collect();
        out.sort_by_key(|g| g.iter().copied().min().unwrap_or(0));
        out
    }

    /// The OS processor IDs of one socket, SMT siblings interleaved per core
    /// (the "Socket N: ( … )" line of the listing).
    pub(crate) fn socket_members(&self, socket: u32) -> Vec<usize> {
        let mut members: Vec<&HwThreadInfo> =
            self.hw_threads.iter().filter(|t| t.socket_id == socket).collect();
        members.sort_by_key(|t| (t.core_id, t.thread_id));
        members.iter().map(|t| t.os_id).collect()
    }

    /// Build the structured report of the probed topology: the standard
    /// listing (Section II-B), with the per-level cache parameters when
    /// `extended` is set (`-c`) and the per-socket ASCII art when
    /// `ascii_art` is set (`-g`).
    pub fn report(&self, extended: bool, ascii_art: bool) -> Report {
        let mut report = Report::new("likwid-topology");
        report.push(
            Section::new(
                "identification",
                Body::KeyValues(vec![
                    KvEntry::new("CPU name", Value::Str(self.brand.clone())),
                    KvEntry::new("CPU type", Value::Str(self.arch.display_name().to_string())),
                    KvEntry::new("CPU clock", Value::Real(self.clock_ghz))
                        .with_ascii(format!("CPU clock: {:.2} GHz", self.clock_ghz)),
                ]),
            )
            .with_rule_before(),
        );
        report.push(
            Section::new(
                "thread-topology",
                Body::KeyValues(vec![
                    KvEntry::new("Sockets", Value::Count(self.sockets as u64)),
                    KvEntry::new("Cores per socket", Value::Count(self.cores_per_socket as u64)),
                    KvEntry::new("Threads per core", Value::Count(self.threads_per_core as u64)),
                ]),
            )
            .with_boxed_heading("Hardware Thread Topology"),
        );
        let mut threads = Table::plain(vec!["hwthread", "thread", "core", "socket"])
            .with_ascii_header("HWThread\tThread\tCore\tSocket");
        for t in &self.hw_threads {
            threads.push(
                Row::new(vec![
                    Value::CpuId(t.os_id),
                    Value::Count(t.thread_id as u64),
                    Value::Count(t.core_id as u64),
                    Value::Count(t.socket_id as u64),
                ])
                .with_ascii(format!(
                    "{}\t\t{}\t{}\t{}",
                    t.os_id, t.thread_id, t.core_id, t.socket_id
                )),
            );
        }
        report.push(Section::new("hwthreads", Body::Table(threads)).with_rule_before());
        let sockets = (0..self.sockets)
            .map(|socket| {
                let ids: Vec<String> =
                    self.socket_members(socket).iter().map(|id| id.to_string()).collect();
                KvEntry::new(
                    format!("Socket {socket}"),
                    Value::Str(format!("( {} )", ids.join(" "))),
                )
            })
            .collect();
        report.push(
            Section::new("sockets", Body::KeyValues(sockets)).with_rule_before().with_rule_after(),
        );
        report.push(
            Section::new("cache-topology", Body::Text(String::new()))
                .with_boxed_heading("Cache Topology"),
        );
        for cache in self.caches.iter().filter(|c| c.kind != CacheKind::Instruction) {
            let mut entries = vec![
                KvEntry::new("Level", Value::Count(cache.level as u64)),
                KvEntry::new("Size", Value::Bytes(cache.size_bytes)).with_ascii(format!(
                    "Size: {}",
                    if cache.size_bytes >= 1024 * 1024 {
                        format!("{} MB", cache.size_bytes / (1024 * 1024))
                    } else {
                        format!("{} kB", cache.size_bytes / 1024)
                    }
                )),
                KvEntry::new("Type", Value::Str(cache.kind.display_name().to_string())),
            ];
            if extended {
                entries
                    .push(KvEntry::new("Associativity", Value::Count(cache.associativity as u64)));
                entries.push(KvEntry::new("Number of sets", Value::Count(cache.sets as u64)));
                entries.push(KvEntry::new("Cache line size", Value::Bytes(cache.line_size as u64)));
                entries.push(
                    KvEntry::new(
                        "Inclusive",
                        Value::Str(if cache.inclusive { "true" } else { "false" }.to_string()),
                    )
                    .with_ascii(if cache.inclusive {
                        "Inclusive cache"
                    } else {
                        "Non Inclusive cache"
                    }),
                );
                entries.push(
                    KvEntry::new(
                        "Shared among threads",
                        Value::Count(cache.shared_by_threads as u64),
                    )
                    .with_ascii(format!("Shared among {} threads", cache.shared_by_threads)),
                );
            }
            let groups: Vec<String> = cache
                .groups
                .iter()
                .map(|g| {
                    let ids: Vec<String> = g.iter().map(|id| id.to_string()).collect();
                    format!("( {} )", ids.join(" "))
                })
                .collect();
            entries.push(KvEntry::new("Cache groups", Value::Str(groups.join(" "))));
            report.push(
                Section::new(format!("cache.l{}", cache.level), Body::KeyValues(entries))
                    .with_rule_after(),
            );
        }
        if ascii_art {
            for socket in 0..self.sockets {
                report.push(
                    Section::new(
                        format!("art.socket{socket}"),
                        Body::Text(self.render_ascii_socket(socket)),
                    )
                    .with_heading(format!("Socket {socket}:")),
                );
            }
        }
        report
    }

    /// Render the standard text report (the `likwid-topology` output of
    /// Section II-B); `extended` adds the per-level cache parameters (`-c`).
    pub fn render_text(&self, extended: bool) -> String {
        Ascii.render(&self.report(extended, false))
    }

    /// Render the `-g` ASCII-art view of one socket.
    pub fn render_ascii_socket(&self, socket: u32) -> String {
        let members = self.socket_members(socket);
        // Core boxes: the SMT siblings of each physical core.
        let mut core_boxes: Vec<String> = Vec::new();
        let mut seen_cores: Vec<u32> = Vec::new();
        for &os_id in &members {
            let t = &self.hw_threads[os_id];
            if seen_cores.contains(&t.core_id) {
                continue;
            }
            seen_cores.push(t.core_id);
            let siblings: Vec<String> = members
                .iter()
                .filter(|&&m| self.hw_threads[m].core_id == t.core_id)
                .map(|m| m.to_string())
                .collect();
            core_boxes.push(siblings.join(" "));
        }

        // One row per data cache level: per-core caches repeat per core, the
        // shared LLC spans the socket.
        let mut cache_rows: Vec<Vec<String>> = Vec::new();
        for cache in self.caches.iter().filter(|c| c.kind != CacheKind::Instruction) {
            let label = if cache.size_bytes >= 1024 * 1024 {
                format!("{}MB", cache.size_bytes / (1024 * 1024))
            } else {
                format!("{}kB", cache.size_bytes / 1024)
            };
            let instances_in_socket =
                cache.groups.iter().filter(|g| g.iter().any(|&id| members.contains(&id))).count();
            cache_rows.push(vec![label; instances_in_socket.max(1)]);
        }
        output::socket_ascii_art(&core_boxes, &cache_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likwid_x86_machine::MachinePreset;

    #[test]
    fn probe_matches_ground_truth_for_all_presets() {
        for &preset in MachinePreset::all() {
            let machine = SimMachine::new(preset);
            let probed = CpuTopology::probe(&machine).unwrap();
            let truth = machine.topology();
            assert_eq!(probed.sockets, truth.sockets, "{preset:?} sockets");
            assert_eq!(probed.cores_per_socket, truth.cores_per_socket, "{preset:?} cores");
            assert_eq!(probed.threads_per_core, truth.threads_per_core, "{preset:?} smt");
            assert_eq!(probed.arch, machine.arch(), "{preset:?} arch identification");
            for t in &probed.hw_threads {
                let gt = truth.hw_thread(t.os_id).unwrap();
                assert_eq!(t.socket_id, gt.socket, "{preset:?} cpu {} socket", t.os_id);
                assert_eq!(t.core_id, gt.core_id, "{preset:?} cpu {} core", t.os_id);
                assert_eq!(t.thread_id, gt.smt_id, "{preset:?} cpu {} smt", t.os_id);
            }
        }
    }

    #[test]
    fn westmere_listing_matches_the_paper() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let topo = CpuTopology::probe(&machine).unwrap();
        assert_eq!(topo.sockets, 2);
        assert_eq!(topo.cores_per_socket, 6);
        assert_eq!(topo.threads_per_core, 2);
        // HWThread 3 -> thread 0, core 8, socket 0 (the BIOS hole numbering).
        let t3 = topo.hw_threads[3];
        assert_eq!((t3.thread_id, t3.core_id, t3.socket_id), (0, 8, 0));
        // Socket membership lines.
        assert_eq!(topo.socket_members(0), vec![0, 12, 1, 13, 2, 14, 3, 15, 4, 16, 5, 17]);
        assert_eq!(topo.socket_members(1), vec![6, 18, 7, 19, 8, 20, 9, 21, 10, 22, 11, 23]);
    }

    #[test]
    fn westmere_cache_listing_matches_the_paper() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let topo = CpuTopology::probe(&machine).unwrap();
        assert_eq!(topo.caches.len(), 3);
        let l1 = &topo.caches[0];
        assert_eq!(l1.size_bytes, 32 * 1024);
        assert_eq!(l1.associativity, 8);
        assert_eq!(l1.sets, 64);
        assert_eq!(l1.line_size, 64);
        assert!(l1.inclusive);
        assert_eq!(l1.shared_by_threads, 2);
        // L1 cache groups pair SMT siblings: ( 0 12 ) ( 1 13 ) …
        assert_eq!(l1.groups[0], vec![0, 12]);
        assert_eq!(l1.groups[1], vec![1, 13]);
        assert_eq!(l1.groups.len(), 12);

        let l3 = &topo.caches[2];
        assert_eq!(l3.size_bytes, 12 * 1024 * 1024);
        assert_eq!(l3.associativity, 16);
        assert_eq!(l3.sets, 12288);
        assert!(!l3.inclusive);
        assert_eq!(l3.groups.len(), 2, "one L3 group per socket");
        assert_eq!(l3.groups[0].len(), 12);
        // The socket-0 L3 group contains exactly socket 0's threads.
        let mut g = l3.groups[0].clone();
        g.sort_unstable();
        assert_eq!(g, vec![0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17]);
    }

    #[test]
    fn text_report_contains_the_key_lines() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let topo = CpuTopology::probe(&machine).unwrap();
        let text = topo.render_text(true);
        assert!(text.contains("Sockets: 2"));
        assert!(text.contains("Cores per socket: 6"));
        assert!(text.contains("Threads per core: 2"));
        assert!(text.contains("Socket 0: ( 0 12 1 13 2 14 3 15 4 16 5 17 )"));
        assert!(text.contains("Size: 12 MB"));
        assert!(text.contains("Non Inclusive cache"));
        assert!(text.contains("Shared among 12 threads"));
        assert!(text.contains("CPU clock: 2.93 GHz"));
    }

    #[test]
    fn ascii_art_shows_cores_and_the_shared_l3() {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        let topo = CpuTopology::probe(&machine).unwrap();
        let art = topo.render_ascii_socket(0);
        assert!(art.contains("0 12"));
        assert!(art.contains("5 17"));
        assert!(art.contains("32kB"));
        assert!(art.contains("256kB"));
        assert!(art.contains("12MB"));
    }

    #[test]
    fn core2_uses_the_legacy_enumeration_path() {
        let machine = SimMachine::new(MachinePreset::Core2Quad);
        let topo = CpuTopology::probe(&machine).unwrap();
        assert_eq!(topo.sockets, 1);
        assert_eq!(topo.cores_per_socket, 4);
        assert_eq!(topo.threads_per_core, 1);
        // The Core 2 Quad's shared L2 groups pair cores 0/1 and 2/3.
        let l2 = topo.caches.iter().find(|c| c.level == 2).unwrap();
        assert_eq!(l2.groups.len(), 2);
        assert_eq!(l2.groups[0], vec![0, 1]);
        assert_eq!(l2.groups[1], vec![2, 3]);
    }

    #[test]
    fn istanbul_decodes_amd_cache_leaves() {
        let machine = SimMachine::new(MachinePreset::IstanbulH2S);
        let topo = CpuTopology::probe(&machine).unwrap();
        assert_eq!(topo.vendor, Vendor::Amd);
        assert_eq!(topo.sockets, 2);
        assert_eq!(topo.cores_per_socket, 6);
        let l3 = topo.caches.iter().find(|c| c.level == 3).unwrap();
        assert_eq!(l3.size_bytes, 6 * 1024 * 1024);
        assert_eq!(l3.groups.len(), 2);
        assert_eq!(l3.groups[0].len(), 6);
        let l1 = topo.caches.iter().find(|c| c.level == 1).unwrap();
        assert_eq!(l1.size_bytes, 64 * 1024);
    }

    #[test]
    fn pentium_m_uses_the_descriptor_table() {
        let machine = SimMachine::new(MachinePreset::PentiumM);
        let topo = CpuTopology::probe(&machine).unwrap();
        assert!(topo.caches.iter().any(|c| c.level == 1 && c.kind == CacheKind::Data));
        assert!(topo.caches.iter().any(|c| c.level == 2));
    }
}
