//! The performance-monitoring register layout of each architecture.
//!
//! One `const` table per layout lists its counter blocks: general-purpose
//! core counters, fixed-function core counters, and the uncore's
//! general-purpose and fixed counters. A block names its control register
//! (one event select per counter, or one control register shared by its
//! counters), its counter registers with their count, implemented width
//! and scope, and the global control register that gates it. Every bit
//! field those control registers carry is one [`Field`] constant here.
//!
//! The MSR file builds its counter registers from these tables
//! ([`crate::msr::register_map`]); `likwid-perf-events` programs the
//! counters through them (its `PerfMon`) and advances them through them
//! (its `EventEngine`). As with svd2rust's field readers and writers, a
//! writer changes only its own field's bits and a reader names the field
//! it reads.

use std::ops::Range;

use crate::msr::{Msr, MsrScope};

/// A bit field of a control register: `width` bits from bit `offset` up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Position of the field's lowest bit.
    pub offset: u32,
    /// Number of bits.
    pub width: u32,
}

impl Field {
    const fn new(offset: u32, width: u32) -> Self {
        Field { offset, width }
    }

    /// The field's bits, in place.
    #[inline]
    pub const fn mask(self) -> u64 {
        (u64::MAX >> (64 - self.width)) << self.offset
    }

    /// The field's value in `register`.
    #[inline]
    pub const fn read(self, register: u64) -> u64 {
        (register & self.mask()) >> self.offset
    }

    /// Whether any bit of the field is set in `register`.
    #[inline]
    pub const fn is_set(self, register: u64) -> bool {
        register & self.mask() != 0
    }

    /// `register` with the field set to `value` and every other bit kept.
    #[inline]
    pub const fn write(self, register: u64, value: u64) -> u64 {
        (register & !self.mask()) | ((value << self.offset) & self.mask())
    }

    /// Counter `n`'s field in a register that holds one such field per
    /// counter, counter 0's being `self`.
    #[inline]
    pub const fn nth(self, n: u32) -> Field {
        Field { offset: self.offset + n * self.width, width: self.width }
    }
}

/// Fields of an event-select register: Intel `IA32_PERFEVTSELx` and
/// `MSR_UNCORE_PERFEVTSELx`, AMD `PERF_CTLx`.
pub mod evtsel {
    use super::Field;

    /// The event code.
    pub const EVENT_CODE: Field = Field::new(0, 8);
    /// The unit mask.
    pub const UMASK: Field = Field::new(8, 8);
    /// The event selector: event code and unit mask together.
    pub const SELECTOR: Field = Field::new(0, 16);
    /// Count in user mode.
    pub const USR: Field = Field::new(16, 1);
    /// Count in kernel mode.
    pub const OS: Field = Field::new(17, 1);
    /// Counter enable.
    pub const ENABLE: Field = Field::new(22, 1);
}

/// Fields of `IA32_FIXED_CTR_CTRL`.
pub mod fixed_ctrl {
    use super::Field;

    /// Fixed counter 0's four bits; counter `n` owns `COUNTER.nth(n)`.
    pub const COUNTER: Field = Field::new(0, 4);
    /// Count in kernel (bit 0) and user (bit 1) mode: the value the tool
    /// programs, and the bits of which any one enables counting.
    pub const OS_USR: u64 = 0b011;
}

/// Fields of `MSR_UNCORE_FIXED_CTR_CTRL`.
pub mod uncore_fixed_ctrl {
    use super::Field;

    /// Enable of the uncore clock counter.
    pub const ENABLE: Field = Field::new(0, 1);
}

/// Fields of the global control registers, core and uncore alike: one
/// enable bit per counter, `nth(n)` of the first.
pub mod global_ctrl {
    use super::Field;

    /// Enable of general-purpose counter 0.
    pub const PMC0: Field = Field::new(0, 1);
    /// Enable of fixed counter 0.
    pub const FIXED0: Field = Field::new(32, 1);
}

/// Reserved bits of the Intel event selects: bits 63:32.
const EVTSEL_RESERVED: u64 = 0xFFFF_FFFF_0000_0000;

/// The class of counters a block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// General-purpose core counters.
    Pmc,
    /// Fixed-function core counters.
    Fixed,
    /// General-purpose uncore counters.
    UncorePmc,
    /// The fixed uncore clock counter.
    UncoreFixed,
}

/// How a block's counters are programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// One event-select register per counter, counter 0's at `base`.
    Select {
        /// Counter 0's select register.
        base: u32,
        /// Bits that must be written as zero.
        reserved: u64,
    },
    /// One control register for the whole block: counter `n` owns
    /// `field.nth(n)`, is programmed to `enable` and counts while any bit
    /// of `enable` is set in it.
    Shared {
        /// The control register.
        register: u32,
        /// Counter 0's field.
        field: Field,
        /// The programmed value of a counter's field.
        enable: u64,
        /// Bits that must be written as zero.
        reserved: u64,
    },
}

/// A global control register with its status and overflow-control
/// siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalControl {
    /// The control register: one enable bit per counter.
    pub ctrl: u32,
    /// The read-only overflow status register.
    pub status: u32,
    /// The overflow-control register.
    pub ovf_ctrl: u32,
    /// Sharing scope of all three.
    pub scope: MsrScope,
}

/// Where a block's counters have their global enable bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalEnable {
    /// The global control register.
    pub control: &'static GlobalControl,
    /// Counter 0's enable bit; counter `n`'s is `first.nth(n)`.
    pub first: Field,
}

/// One block of counters of the same class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    /// The class of the block's counters.
    pub kind: BlockKind,
    /// How the counters are programmed.
    pub control: Control,
    /// Counter 0's register; the others follow consecutively.
    pub counter_base: u32,
    /// Number of counters.
    pub count: u32,
    /// Implemented bits of each counter.
    pub width: u32,
    /// Sharing scope of the counter and control registers.
    pub scope: MsrScope,
    /// The global enable bits, if the block has any.
    pub global: Option<GlobalEnable>,
}

impl CounterBlock {
    /// Counter `n`'s register.
    #[inline]
    pub const fn counter(&self, n: u32) -> u32 {
        self.counter_base + n
    }

    /// Every counter register of the block.
    #[inline]
    pub const fn counters(&self) -> Range<u32> {
        self.counter_base..self.counter_base + self.count
    }

    /// Counter `n`'s control register: its own select, or the block's
    /// shared control register.
    #[inline]
    pub const fn control_register(&self, n: u32) -> u32 {
        match self.control {
            Control::Select { base, .. } => base + n,
            Control::Shared { register, .. } => register,
        }
    }

    /// The global enable bits of the block's counters in `global`, the
    /// value of its global control register: counter `n`'s at bit `n`, all
    /// set for a block without global enables.
    #[inline]
    pub const fn global_enables(&self, global: u64) -> u64 {
        match self.global {
            // One-bit enable fields, one per counter, side by side.
            Some(enable) => Field { offset: enable.first.offset, width: self.count }.read(global),
            None => u64::MAX,
        }
    }

    /// Every control register of the block: its selects, or its one
    /// shared control register.
    #[inline]
    pub const fn controls(&self) -> Range<u32> {
        match self.control {
            Control::Select { base, .. } => base..base + self.count,
            Control::Shared { register, .. } => register..register + 1,
        }
    }
}

/// The performance-monitoring registers of one architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pmu {
    /// The counter blocks.
    pub blocks: &'static [CounterBlock],
    /// The global control registers the blocks' enable bits live in.
    pub globals: &'static [GlobalControl],
    /// Each class's block, at `BlockKind as usize`.
    by_kind: [Option<&'static CounterBlock>; 4],
}

impl Pmu {
    /// The layout of `blocks`, at most one per class, gated by `globals`.
    const fn new(blocks: &'static [CounterBlock], globals: &'static [GlobalControl]) -> Self {
        let mut by_kind = [None; 4];
        let mut i = 0;
        while i < blocks.len() {
            let kind = blocks[i].kind as usize;
            assert!(by_kind[kind].is_none(), "two blocks of one class");
            by_kind[kind] = Some(&blocks[i]);
            i += 1;
        }
        Pmu { blocks, globals, by_kind }
    }

    /// The block of counters of class `kind`, if the part has one.
    #[inline]
    pub fn block(&self, kind: BlockKind) -> Option<&'static CounterBlock> {
        self.by_kind[kind as usize]
    }

    /// The number of counters of class `kind` (0 when absent).
    #[inline]
    pub fn count(&self, kind: BlockKind) -> u32 {
        self.block(kind).map_or(0, |block| block.count)
    }
}

const CORE_GLOBAL: GlobalControl = GlobalControl {
    ctrl: Msr::IA32_PERF_GLOBAL_CTRL,
    status: Msr::IA32_PERF_GLOBAL_STATUS,
    ovf_ctrl: Msr::IA32_PERF_GLOBAL_OVF_CTRL,
    scope: MsrScope::Thread,
};

const UNCORE_GLOBAL: GlobalControl = GlobalControl {
    ctrl: Msr::MSR_UNCORE_PERF_GLOBAL_CTRL,
    status: Msr::MSR_UNCORE_PERF_GLOBAL_STATUS,
    ovf_ctrl: Msr::MSR_UNCORE_PERF_GLOBAL_OVF_CTRL,
    scope: MsrScope::Package,
};

/// `count` general-purpose core counters of `width` bits on an Intel part.
const fn intel_pmc(count: u32, width: u32) -> CounterBlock {
    CounterBlock {
        kind: BlockKind::Pmc,
        control: Control::Select { base: Msr::IA32_PERFEVTSEL0, reserved: EVTSEL_RESERVED },
        counter_base: Msr::IA32_PMC0,
        count,
        width,
        scope: MsrScope::Thread,
        global: Some(GlobalEnable { control: &CORE_GLOBAL, first: global_ctrl::PMC0 }),
    }
}

/// The three fixed-function counters: instructions retired, core cycles
/// and reference cycles. They are narrower than the PMCs and wrap earlier.
const INTEL_FIXED: CounterBlock = CounterBlock {
    kind: BlockKind::Fixed,
    control: Control::Shared {
        register: Msr::IA32_FIXED_CTR_CTRL,
        field: fixed_ctrl::COUNTER,
        enable: fixed_ctrl::OS_USR,
        // Bits 11:0 hold the three counters' fields.
        reserved: 0xFFFF_FFFF_FFFF_F000,
    },
    counter_base: Msr::IA32_FIXED_CTR0,
    count: 3,
    width: 44,
    scope: MsrScope::Thread,
    global: Some(GlobalEnable { control: &CORE_GLOBAL, first: global_ctrl::FIXED0 }),
};

/// The eight general-purpose uncore counters of Nehalem and Westmere.
const UNCORE_PMC: CounterBlock = CounterBlock {
    kind: BlockKind::UncorePmc,
    control: Control::Select { base: Msr::MSR_UNCORE_PERFEVTSEL0, reserved: EVTSEL_RESERVED },
    counter_base: Msr::MSR_UNCORE_PMC0,
    count: 8,
    width: 48,
    scope: MsrScope::Package,
    global: Some(GlobalEnable { control: &UNCORE_GLOBAL, first: global_ctrl::PMC0 }),
};

/// The uncore clock counter of Nehalem and Westmere.
const UNCORE_FIXED: CounterBlock = CounterBlock {
    kind: BlockKind::UncoreFixed,
    control: Control::Shared {
        register: Msr::MSR_UNCORE_FIXED_CTR_CTRL,
        field: uncore_fixed_ctrl::ENABLE,
        enable: 1,
        reserved: 0,
    },
    counter_base: Msr::MSR_UNCORE_FIXED_CTR0,
    count: 1,
    width: 48,
    scope: MsrScope::Package,
    global: Some(GlobalEnable { control: &UNCORE_GLOBAL, first: global_ctrl::FIXED0 }),
};

/// The four counters of AMD K8 and K10, enabled by their selects alone.
const AMD_PMC: CounterBlock = CounterBlock {
    kind: BlockKind::Pmc,
    control: Control::Select { base: Msr::AMD_PERFEVTSEL0, reserved: 0 },
    counter_base: Msr::AMD_PMC0,
    count: 4,
    width: 48,
    scope: MsrScope::Thread,
    global: None,
};

/// Pentium M: two 40-bit PMCs, enabled by their selects alone: the part
/// has no global control register.
pub(crate) const PENTIUM_M: Pmu =
    Pmu::new(&[CounterBlock { global: None, ..intel_pmc(2, 40) }], &[]);

/// Core 2 and Atom: two 40-bit PMCs and the fixed counters.
pub(crate) const CORE2: Pmu = Pmu::new(&[intel_pmc(2, 40), INTEL_FIXED], &[CORE_GLOBAL]);

/// Nehalem EP and Westmere EP: four 48-bit PMCs, the fixed counters and
/// the uncore.
pub(crate) const NEHALEM: Pmu = Pmu::new(
    &[intel_pmc(4, 48), INTEL_FIXED, UNCORE_PMC, UNCORE_FIXED],
    &[CORE_GLOBAL, UNCORE_GLOBAL],
);

/// AMD K8 and K10.
pub(crate) const AMD: Pmu = Pmu::new(&[AMD_PMC], &[]);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_field_writer_changes_only_its_own_bits() {
        let field = fixed_ctrl::COUNTER.nth(1);
        assert_eq!(field, Field::new(4, 4));
        assert_eq!(field.write(u64::MAX, fixed_ctrl::OS_USR), !0xF0 | 0x30);
        assert_eq!(field.write(0, 0x1F), 0xF0, "a value wider than the field is cut");
        assert_eq!(field.read(0xABCD), 0xC);
        assert!(global_ctrl::FIXED0.nth(2).is_set(1 << 34));
        assert!(!evtsel::ENABLE.is_set(!evtsel::ENABLE.mask()));
        assert_eq!(evtsel::SELECTOR.mask(), 0xFFFF);
    }

    #[test]
    fn blocks_address_their_registers() {
        let fixed = NEHALEM.block(BlockKind::Fixed).unwrap();
        assert_eq!(fixed.counter(2), 0x30B);
        assert_eq!(fixed.controls(), Msr::IA32_FIXED_CTR_CTRL..Msr::IA32_FIXED_CTR_CTRL + 1);
        let uncore = NEHALEM.block(BlockKind::UncorePmc).unwrap();
        assert_eq!(uncore.control_register(7), 0x3C7);
        assert_eq!(uncore.counters(), 0x3B0..0x3B8);
        assert_eq!(AMD.count(BlockKind::Pmc), 4);
        assert_eq!(AMD.count(BlockKind::Fixed), 0);
    }
}
