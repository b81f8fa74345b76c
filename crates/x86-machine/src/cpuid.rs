//! Bit-exact encoding of the `cpuid` leaves used by `likwid-topology`.
//!
//! The topology tool recovers three things from `cpuid`: the processor
//! identification (leaf 0x0 and 0x1), the thread topology (leaf 0xB on
//! Nehalem and newer, the legacy leaf 0x1/0x4 method on Core 2 class parts,
//! and leaf 0x8000_0008 on AMD), and the cache topology (deterministic cache
//! parameters in leaf 0x4 on Intel, the descriptor table of leaf 0x2 on
//! Pentium M, and leaves 0x8000_0005/0x8000_0006 on AMD). This module
//! encodes those leaves from a `CpuidSource` description so that the
//! decoder in the `likwid` crate operates on exactly the register images a
//! real processor would return.

use crate::cache::{CacheKind, CacheSpec};
use crate::clock::ClockDomain;
use crate::error::{MachineError, Result};
use crate::topology::TopologySpec;
use crate::vendor::{Microarch, Vendor};

/// The four registers returned by a `cpuid` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CpuidResult {
    /// EAX output register.
    pub eax: u32,
    /// EBX output register.
    pub ebx: u32,
    /// ECX output register.
    pub ecx: u32,
    /// EDX output register.
    pub edx: u32,
}

/// Everything needed to answer `cpuid` queries for one machine.
pub(crate) struct CpuidSource<'a> {
    /// Microarchitecture (determines which leaves exist and family/model).
    pub arch: Microarch,
    /// Node topology.
    pub topology: &'a TopologySpec,
    /// Data/unified cache levels, ordered by level.
    pub caches: &'a [CacheSpec],
    /// Nominal clock (used only for the brand string frequency suffix).
    pub clock: ClockDomain,
    /// Processor brand string (leaves 0x8000_0002..4).
    pub brand: &'a str,
}

impl<'a> CpuidSource<'a> {
    /// Maximum standard leaf for this microarchitecture.
    pub(crate) fn max_standard_leaf(&self) -> u32 {
        match self.arch {
            Microarch::PentiumM => 0x02,
            Microarch::K8 | Microarch::K10 => 0x01,
            Microarch::Core2 | Microarch::Atom => 0x0A,
            Microarch::NehalemEp | Microarch::WestmereEp => 0x0B,
        }
    }

    /// Maximum extended leaf.
    pub(crate) fn max_extended_leaf(&self) -> u32 {
        match self.arch.vendor() {
            Vendor::Intel => 0x8000_0008,
            Vendor::Amd => 0x8000_0008,
        }
    }

    /// Execute `cpuid` with the given leaf/subleaf as seen from hardware
    /// thread `cpu`.
    pub fn query(&self, cpu: usize, leaf: u32, subleaf: u32) -> Result<CpuidResult> {
        let thread = self.topology.hw_thread(cpu)?;
        let apic_id = thread.apic_id;
        match leaf {
            0x0 => Ok(self.leaf_0()),
            0x1 => Ok(self.leaf_1(apic_id)),
            0x2 => Ok(self.leaf_2()),
            0x4 if self.arch.has_leaf_0x4() => Ok(self.leaf_4(subleaf)),
            0xB if self.arch.has_leaf_0xb() => Ok(self.leaf_b(subleaf, apic_id)),
            0x8000_0000 => Ok(CpuidResult { eax: self.max_extended_leaf(), ..Default::default() }),
            0x8000_0002..=0x8000_0004 => Ok(self.brand_string_leaf(leaf - 0x8000_0002)),
            0x8000_0005 if self.arch.vendor() == Vendor::Amd => Ok(self.amd_l1_leaf()),
            0x8000_0006 if self.arch.vendor() == Vendor::Amd => Ok(self.amd_l2_l3_leaf()),
            0x8000_0008 => Ok(self.leaf_8000_0008()),
            _ => Err(MachineError::UnsupportedLeaf { leaf, subleaf }),
        }
    }

    /// Leaf 0x0: maximum leaf and vendor identification string.
    fn leaf_0(&self) -> CpuidResult {
        let id = self.arch.vendor().id_string().as_bytes();
        let word = |i: usize| u32::from_le_bytes([id[i], id[i + 1], id[i + 2], id[i + 3]]);
        CpuidResult { eax: self.max_standard_leaf(), ebx: word(0), edx: word(4), ecx: word(8) }
    }

    /// Leaf 0x1: family/model/stepping, logical processor count, APIC ID and
    /// feature flags.
    fn leaf_1(&self, apic_id: u32) -> CpuidResult {
        let (family, model) = self.arch.family_model();
        let (base_family, ext_family) =
            if family > 0xF { (0xF, family - 0xF) } else { (family, 0) };
        let (base_model, ext_model) = (model & 0xF, (model >> 4) & 0xF);
        let stepping = 2u32;
        let eax = (ext_family << 20)
            | (ext_model << 16)
            | (base_family << 8)
            | (base_model << 4)
            | stepping;

        let logical_per_package = self.topology.cores_per_socket * self.topology.threads_per_core;
        // EBX 23:16 must be a power of two >= the logical count (the legacy
        // enumeration algorithm rounds it up).
        let logical_rounded = logical_per_package.next_power_of_two();
        let ebx =
            (apic_id << 24) | (logical_rounded << 16) | (8 << 8/* CLFLUSH line size in qwords */);

        // EDX feature flags: TSC (4), MSR (5), APIC (9), CMOV (15), CLFSH (19),
        // MMX (23), FXSR (24), SSE (25), SSE2 (26), HTT (28).
        let mut edx = (1 << 4)
            | (1 << 5)
            | (1 << 9)
            | (1 << 15)
            | (1 << 19)
            | (1 << 23)
            | (1 << 24)
            | (1 << 25)
            | (1 << 26);
        if logical_per_package > 1 {
            edx |= 1 << 28;
        }
        // ECX feature flags: SSE3 (0), SSSE3 (9), SSE4.1 (19), SSE4.2 (20) on
        // Nehalem/Westmere.
        let mut ecx = 1 << 0;
        if matches!(
            self.arch,
            Microarch::Core2 | Microarch::Atom | Microarch::NehalemEp | Microarch::WestmereEp
        ) {
            ecx |= 1 << 9;
        }
        if matches!(self.arch, Microarch::NehalemEp | Microarch::WestmereEp) {
            ecx |= (1 << 19) | (1 << 20);
        }
        CpuidResult { eax, ebx, ecx, edx }
    }

    /// Leaf 0x2: cache descriptor bytes (legacy table used by Pentium M).
    ///
    /// Only a small subset of descriptors is emitted: one per data/unified
    /// cache level with a matching well-known descriptor value.
    fn leaf_2(&self) -> CpuidResult {
        // Descriptor values from the SDM table:
        //   0x2c: L1D 32 kB, 8-way, 64-byte lines
        //   0x30: L1I 32 kB
        //   0x7d: L2 2 MB, 8-way, 64-byte lines
        //   0x29: L3 4 MB (placeholder for larger unified caches)
        let mut bytes: Vec<u8> = vec![0x01]; // AL = number of times to run leaf 2
        for c in self.caches {
            let desc = match (c.level, c.kind) {
                (1, CacheKind::Data) => 0x2c,
                (1, CacheKind::Instruction) => 0x30,
                (2, _) => 0x7d,
                (3, _) => 0x29,
                _ => 0x00,
            };
            bytes.push(desc);
        }
        while bytes.len() < 16 {
            bytes.push(0);
        }
        let reg =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        CpuidResult { eax: reg(0), ebx: reg(4), ecx: reg(8), edx: reg(12) }
    }

    /// Leaf 0x4: deterministic cache parameters (Intel, Core 2 and newer).
    fn leaf_4(&self, subleaf: u32) -> CpuidResult {
        // Subleaves enumerate caches; an EAX type field of 0 terminates.
        let Some(cache) = self.caches.get(subleaf as usize) else {
            return CpuidResult::default();
        };
        // Bits 25:14 report the *APIC-ID span* of the sharing domain, i.e.
        // "maximum number of addressable IDs for logical processors sharing
        // this cache", not the actual thread count: on a hexa-core Westmere
        // with core-ID holes the socket-wide L3 reports 32 even though only
        // 12 hardware threads exist. The decoder masks APIC IDs with this
        // span to build the sharing groups.
        let layout = &self.topology.apic_layout;
        let threads_per_core = self.topology.threads_per_core;
        let max_logical_sharing = if cache.shared_by_threads <= threads_per_core {
            cache.shared_by_threads.next_power_of_two()
        } else {
            let cores_sharing = cache.shared_by_threads / threads_per_core.max(1);
            if cores_sharing >= self.topology.cores_per_socket {
                1 << layout.package_shift()
            } else {
                cores_sharing.next_power_of_two() * (1 << layout.smt_bits)
            }
        };
        let max_cores_per_package = self.topology.cores_per_socket.next_power_of_two();
        let eax = cache.kind.cpuid_encoding()
            | (cache.level << 5)
            | (1 << 8) // self initializing
            | ((max_logical_sharing - 1) << 14)
            | ((max_cores_per_package - 1) << 26);
        // Bits 21:12 hold the physical line partitions minus one: zero.
        let ebx = (cache.line_size - 1) | ((cache.associativity - 1) << 22);
        let ecx = cache.num_sets() - 1;
        let edx = if cache.inclusive { 1 << 1 } else { 0 };
        CpuidResult { eax, ebx, ecx, edx }
    }

    /// Leaf 0xB: extended topology enumeration (Nehalem and newer).
    fn leaf_b(&self, subleaf: u32, apic_id: u32) -> CpuidResult {
        let layout = &self.topology.apic_layout;
        match subleaf {
            0 => CpuidResult {
                eax: layout.smt_bits,
                ebx: self.topology.threads_per_core,
                ecx: (1 << 8) | subleaf, // level type 1 = SMT
                edx: apic_id,
            },
            1 => CpuidResult {
                eax: layout.package_shift(),
                ebx: self.topology.cores_per_socket * self.topology.threads_per_core,
                ecx: (2 << 8) | subleaf, // level type 2 = Core
                edx: apic_id,
            },
            _ => CpuidResult {
                eax: 0,
                ebx: 0,
                ecx: subleaf, // level type 0 = invalid, terminates enumeration
                edx: apic_id,
            },
        }
    }

    /// Leaves 0x8000_0002..4: the 48-character processor brand string.
    fn brand_string_leaf(&self, index: u32) -> CpuidResult {
        let mut brand = format!("{} @ {}", self.brand, self.clock.display());
        brand.truncate(47);
        let mut bytes = brand.into_bytes();
        bytes.resize(48, 0);
        let base = (index * 16) as usize;
        let reg = |i: usize| {
            u32::from_le_bytes([
                bytes[base + i],
                bytes[base + i + 1],
                bytes[base + i + 2],
                bytes[base + i + 3],
            ])
        };
        CpuidResult { eax: reg(0), ebx: reg(4), ecx: reg(8), edx: reg(12) }
    }

    /// AMD leaf 0x8000_0005: L1 cache and TLB information.
    fn amd_l1_leaf(&self) -> CpuidResult {
        let l1d = self.caches.iter().find(|c| c.level == 1 && c.kind == CacheKind::Data);
        let ecx = l1d.map_or(0, |c| {
            let size_kb = (c.size_bytes / 1024) as u32;
            (size_kb << 24) | (c.associativity << 16) | (1 << 8) | c.line_size
        });
        CpuidResult { eax: 0, ebx: 0, ecx, edx: 0 }
    }

    /// AMD leaf 0x8000_0006: L2 and L3 cache information.
    fn amd_l2_l3_leaf(&self) -> CpuidResult {
        let assoc_code = |ways: u32| -> u32 {
            match ways {
                1 => 0x1,
                2 => 0x2,
                4 => 0x4,
                8 => 0x6,
                16 => 0x8,
                32 => 0xA,
                48 => 0xB,
                64 => 0xC,
                96 => 0xD,
                128 => 0xE,
                _ => 0xF, // fully associative / other
            }
        };
        let l2 = self.caches.iter().find(|c| c.level == 2);
        let ecx = l2.map_or(0, |c| {
            let size_kb = (c.size_bytes / 1024) as u32;
            (size_kb << 16) | (assoc_code(c.associativity) << 12) | c.line_size
        });
        let l3 = self.caches.iter().find(|c| c.level == 3);
        let edx = l3.map_or(0, |c| {
            let size_512kb = (c.size_bytes / (512 * 1024)) as u32;
            (size_512kb << 18) | (assoc_code(c.associativity) << 12) | c.line_size
        });
        CpuidResult { eax: 0, ebx: 0, ecx, edx }
    }

    /// Leaf 0x8000_0008: physical address bits and (on AMD) the core count
    /// per package used for topology enumeration.
    fn leaf_8000_0008(&self) -> CpuidResult {
        let cores_minus_one = self.topology.cores_per_socket * self.topology.threads_per_core - 1;
        let ecx = match self.arch.vendor() {
            Vendor::Amd => cores_minus_one,
            Vendor::Intel => 0,
        };
        CpuidResult { eax: (48 << 8) | 40, ebx: 0, ecx, edx: 0 }
    }
}

/// Extract the display family/model from a leaf 0x1 EAX value (the inverse of
/// the encoding above), as performed by the identification code in the tools.
pub fn decode_family_model(eax: u32) -> (u32, u32) {
    let base_family = (eax >> 8) & 0xF;
    let ext_family = (eax >> 20) & 0xFF;
    let base_model = (eax >> 4) & 0xF;
    let ext_model = (eax >> 16) & 0xF;
    let family = if base_family == 0xF { base_family + ext_family } else { base_family };
    let model = if base_family == 0xF || base_family == 6 {
        (ext_model << 4) | base_model
    } else {
        base_model
    };
    (family, model)
}

/// Decode the vendor string from a leaf 0x0 result.
pub fn decode_vendor_string(leaf0: CpuidResult) -> String {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&leaf0.ebx.to_le_bytes());
    bytes.extend_from_slice(&leaf0.edx.to_le_bytes());
    bytes.extend_from_slice(&leaf0.ecx.to_le_bytes());
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decode the brand string from the three extended leaves.
pub fn decode_brand_string(leaves: [CpuidResult; 3]) -> String {
    let mut bytes = Vec::with_capacity(48);
    for l in leaves {
        bytes.extend_from_slice(&l.eax.to_le_bytes());
        bytes.extend_from_slice(&l.ebx.to_le_bytes());
        bytes.extend_from_slice(&l.ecx.to_le_bytes());
        bytes.extend_from_slice(&l.edx.to_le_bytes());
    }
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    String::from_utf8_lossy(&bytes[..end]).trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache;
    use crate::topology::EnumerationOrder;

    fn westmere_topo() -> TopologySpec {
        TopologySpec::new(
            2,
            6,
            2,
            Some(vec![0, 1, 2, 8, 9, 10]),
            EnumerationOrder::SmtLast,
            12 << 30,
        )
        .unwrap()
    }

    fn westmere_caches() -> Vec<CacheSpec> {
        vec![
            cache(1, CacheKind::Data, 32 * 1024, 8, 64, true, 2),
            cache(2, CacheKind::Unified, 256 * 1024, 8, 64, true, 2),
            cache(3, CacheKind::Unified, 12 * 1024 * 1024, 16, 64, false, 12),
        ]
    }

    fn source<'a>(topo: &'a TopologySpec, caches: &'a [CacheSpec]) -> CpuidSource<'a> {
        CpuidSource {
            arch: Microarch::WestmereEp,
            topology: topo,
            caches,
            clock: ClockDomain::from_ghz(2.93),
            brand: "Intel(R) Xeon(R) CPU X5670",
        }
    }

    #[test]
    fn leaf0_vendor_string_decodes_to_genuine_intel() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);
        let r = src.query(0, 0, 0).unwrap();
        assert_eq!(decode_vendor_string(r), "GenuineIntel");
        assert_eq!(r.eax, 0x0B);
    }

    #[test]
    fn leaf1_family_model_round_trips() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);
        let r = src.query(0, 1, 0).unwrap();
        assert_eq!(decode_family_model(r.eax), (6, 0x2C));
        // HTT flag set, initial APIC ID of cpu 0 is 0.
        assert_ne!(r.edx & (1 << 28), 0);
        assert_eq!(r.ebx >> 24, 0);
    }

    #[test]
    fn leaf1_reports_the_apic_id_of_the_queried_thread() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);
        for cpu in [0usize, 3, 12, 23] {
            let expect = topo.hw_thread(cpu).unwrap().apic_id;
            let r = src.query(cpu, 1, 0).unwrap();
            assert_eq!(r.ebx >> 24, expect);
        }
    }

    #[test]
    fn leaf4_encodes_the_westmere_cache_parameters() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);

        // Subleaf 0: L1D 32 kB, 8-way, 64 sets, inclusive, shared by 2 threads.
        let r = src.query(0, 4, 0).unwrap();
        assert_eq!(r.eax & 0x1F, 1, "data cache");
        assert_eq!((r.eax >> 5) & 0x7, 1, "level 1");
        assert_eq!(((r.eax >> 14) & 0xFFF) + 1, 2, "shared by 2 threads");
        assert_eq!((r.ebx & 0xFFF) + 1, 64, "line size");
        assert_eq!((r.ebx >> 22) + 1, 8, "associativity");
        assert_eq!(r.ecx + 1, 64, "sets");
        assert_ne!(r.edx & 0b10, 0, "inclusive");

        // Subleaf 2: the 12 MB L3, 16-way, 12288 sets, non-inclusive, shared
        // by the whole socket (APIC span 32 on this core-ID-holed hexa-core).
        let r = src.query(0, 4, 2).unwrap();
        assert_eq!((r.eax >> 5) & 0x7, 3);
        assert_eq!(((r.eax >> 14) & 0xFFF) + 1, 32, "socket-wide sharing spans the APIC ID space");
        assert_eq!(r.ecx + 1, 12288);
        assert_eq!(r.edx & 0b10, 0, "non-inclusive");

        // Subleaf 3 terminates the enumeration.
        let r = src.query(0, 4, 3).unwrap();
        assert_eq!(r.eax & 0x1F, 0);
    }

    #[test]
    fn leaf_b_reports_shift_widths_and_apic_id() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);

        let smt = src.query(13, 0xB, 0).unwrap();
        assert_eq!(smt.eax, 1, "one SMT bit");
        assert_eq!(smt.ebx, 2, "two threads per core");
        assert_eq!((smt.ecx >> 8) & 0xFF, 1, "SMT level type");
        assert_eq!(smt.edx, topo.hw_thread(13).unwrap().apic_id);

        let core = src.query(13, 0xB, 1).unwrap();
        assert_eq!(core.eax, 5, "1 smt bit + 4 core bits");
        assert_eq!(core.ebx, 12, "12 logical processors per package");
        assert_eq!((core.ecx >> 8) & 0xFF, 2, "core level type");

        let invalid = src.query(13, 0xB, 2).unwrap();
        assert_eq!((invalid.ecx >> 8) & 0xFF, 0, "enumeration terminates");
    }

    #[test]
    fn brand_string_round_trips() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);
        let leaves = [
            src.query(0, 0x8000_0002, 0).unwrap(),
            src.query(0, 0x8000_0003, 0).unwrap(),
            src.query(0, 0x8000_0004, 0).unwrap(),
        ];
        let brand = decode_brand_string(leaves);
        assert!(brand.starts_with("Intel(R) Xeon(R) CPU X5670"));
        assert!(brand.contains("2.93 GHz"));
    }

    #[test]
    fn amd_leaves_encode_cache_sizes() {
        let topo =
            TopologySpec::new(2, 6, 1, None, EnumerationOrder::SocketsFirstSmtAdjacent, 16 << 30)
                .unwrap();
        let caches = vec![
            cache(1, CacheKind::Data, 64 * 1024, 2, 64, false, 1),
            cache(2, CacheKind::Unified, 512 * 1024, 16, 64, false, 1),
            cache(3, CacheKind::Unified, 6 * 1024 * 1024, 48, 64, false, 6),
        ];
        let src = CpuidSource {
            arch: Microarch::K10,
            topology: &topo,
            caches: &caches,
            clock: ClockDomain::from_ghz(2.6),
            brand: "AMD Opteron(tm) Processor 2435",
        };
        let l1 = src.query(0, 0x8000_0005, 0).unwrap();
        assert_eq!(l1.ecx >> 24, 64, "64 kB L1D");
        assert_eq!(l1.ecx & 0xFF, 64, "64-byte lines");

        let l23 = src.query(0, 0x8000_0006, 0).unwrap();
        assert_eq!(l23.ecx >> 16, 512, "512 kB L2");
        assert_eq!(l23.edx >> 18, 12, "6 MB L3 in 512 kB units");

        let topo_leaf = src.query(0, 0x8000_0008, 0).unwrap();
        assert_eq!((topo_leaf.ecx & 0xFF) + 1, 6, "six cores per package");
    }

    #[test]
    fn unsupported_leaves_error_out() {
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = source(&topo, &caches);
        assert!(matches!(
            src.query(0, 0x15, 0),
            Err(MachineError::UnsupportedLeaf { leaf: 0x15, .. })
        ));
        // Core 2 has no leaf 0xB.
        let core2_src = CpuidSource { arch: Microarch::Core2, ..source(&topo, &caches) };
        assert!(core2_src.query(0, 0xB, 0).is_err());
    }

    #[test]
    fn family_model_decoder_handles_amd_extended_family() {
        // AMD K10: family 0x10 is encoded as base 0xF + extended 0x1.
        let topo = westmere_topo();
        let caches = westmere_caches();
        let src = CpuidSource { arch: Microarch::K10, ..source(&topo, &caches) };
        let r = src.query(0, 1, 0).unwrap();
        assert_eq!(decode_family_model(r.eax).0, 0x10);
    }
}
