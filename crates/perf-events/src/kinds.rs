//! Architectural event kinds and workload samples.
//!
//! A [`HwEventKind`] names a microarchitectural quantity independent of how
//! a particular CPU generation encodes it (the per-architecture encoding
//! lives in the event tables). The workload execution engine summarises a
//! simulated run — or a slice of one — as an [`EventSample`]: per hardware
//! thread the core-local quantities, per socket the uncore quantities. The
//! counting engine then credits whatever counters are programmed.
//!
//! An [`EventRecord`] is a fixed array with one count per kind, indexed by
//! the kind's declaration position: recording, reading and merging
//! activity never hashes or allocates. A kind that was never set and one
//! set to 0 are the same record, and iteration yields the non-zero kinds
//! in declaration order.

/// Microarchitectural quantities the simulated hardware can count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwEventKind {
    /// Retired instructions.
    InstructionsRetired,
    /// Unhalted core clock cycles.
    CoreCycles,
    /// Unhalted reference clock cycles.
    ReferenceCycles,
    /// Packed (SIMD) double-precision floating point operations retired.
    SimdPackedDouble,
    /// Scalar double-precision floating point operations retired.
    SimdScalarDouble,
    /// Packed (SIMD) single-precision floating point operations retired.
    SimdPackedSingle,
    /// Scalar single-precision floating point operations retired.
    SimdScalarSingle,
    /// Retired load instructions.
    LoadsRetired,
    /// Retired store instructions.
    StoresRetired,
    /// Retired branch instructions.
    BranchesRetired,
    /// Mispredicted retired branches.
    BranchMispredictions,
    /// Data TLB misses.
    DtlbMisses,
    /// L1 data cache accesses (loads + stores reaching L1).
    L1Accesses,
    /// L1 data cache misses (lines replaced / demanded from L2).
    L1Misses,
    /// L2 cache accesses from this core.
    L2Accesses,
    /// L2 cache misses from this core.
    L2Misses,
    /// Lines allocated into this core's L2.
    L2LinesIn,
    /// Lines evicted from this core's L2.
    L2LinesOut,
    /// L3 (uncore) accesses of the whole package.
    L3Accesses,
    /// L3 (uncore) misses of the whole package.
    L3Misses,
    /// Lines allocated into the package's L3 (`UNC_L3_LINES_IN_ANY`).
    L3LinesIn,
    /// Lines victimized from the package's L3 (`UNC_L3_LINES_OUT_ANY`).
    L3LinesOut,
    /// Full cache-line reads from the package's memory controller.
    MemoryReads,
    /// Full cache-line writes at the package's memory controller.
    MemoryWrites,
    /// Uncore clock cycles.
    UncoreCycles,
}

impl HwEventKind {
    /// Number of kinds.
    pub const COUNT: usize = HwEventKind::ALL.len();

    /// Every kind, in declaration order.
    pub const ALL: [HwEventKind; 25] = [
        HwEventKind::InstructionsRetired,
        HwEventKind::CoreCycles,
        HwEventKind::ReferenceCycles,
        HwEventKind::SimdPackedDouble,
        HwEventKind::SimdScalarDouble,
        HwEventKind::SimdPackedSingle,
        HwEventKind::SimdScalarSingle,
        HwEventKind::LoadsRetired,
        HwEventKind::StoresRetired,
        HwEventKind::BranchesRetired,
        HwEventKind::BranchMispredictions,
        HwEventKind::DtlbMisses,
        HwEventKind::L1Accesses,
        HwEventKind::L1Misses,
        HwEventKind::L2Accesses,
        HwEventKind::L2Misses,
        HwEventKind::L2LinesIn,
        HwEventKind::L2LinesOut,
        HwEventKind::L3Accesses,
        HwEventKind::L3Misses,
        HwEventKind::L3LinesIn,
        HwEventKind::L3LinesOut,
        HwEventKind::MemoryReads,
        HwEventKind::MemoryWrites,
        HwEventKind::UncoreCycles,
    ];

    /// Whether this quantity lives in the uncore (per package) rather than
    /// in a core.
    pub fn is_uncore(self) -> bool {
        matches!(
            self,
            HwEventKind::L3Accesses
                | HwEventKind::L3Misses
                | HwEventKind::L3LinesIn
                | HwEventKind::L3LinesOut
                | HwEventKind::MemoryReads
                | HwEventKind::MemoryWrites
                | HwEventKind::UncoreCycles
        )
    }
}

/// Event quantities over a sample period, one count per [`HwEventKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRecord {
    counts: [u64; HwEventKind::COUNT],
}

/// Core-local event quantities of one hardware thread.
pub type ThreadEventRecord = EventRecord;

/// Uncore event quantities of one socket.
pub type SocketEventRecord = EventRecord;

impl EventRecord {
    /// Empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the count of a kind (overwrites).
    pub fn set(&mut self, kind: HwEventKind, value: u64) -> &mut Self {
        self.counts[kind as usize] = value;
        self
    }

    /// Add to the count of a kind.
    pub fn add(&mut self, kind: HwEventKind, value: u64) -> &mut Self {
        self.counts[kind as usize] += value;
        self
    }

    /// The count of a kind (0 if never set).
    pub fn get(&self, kind: HwEventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Iterate over all non-zero kinds, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (HwEventKind, u64)> + '_ {
        HwEventKind::ALL.into_iter().zip(self.counts).filter(|&(_, v)| v != 0)
    }

    /// Add every count of `other` to this record.
    fn merge(&mut self, other: &EventRecord) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }
}

/// A complete sample of simulated hardware activity: what happened on every
/// hardware thread and in every socket's uncore during one period.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventSample {
    /// Indexed by OS processor ID.
    pub threads: Vec<ThreadEventRecord>,
    /// Indexed by socket number.
    pub sockets: Vec<SocketEventRecord>,
}

impl EventSample {
    /// A sample for a machine with `num_threads` hardware threads and
    /// `num_sockets` sockets, all counts zero.
    pub fn new(num_threads: usize, num_sockets: usize) -> Self {
        EventSample {
            threads: vec![ThreadEventRecord::default(); num_threads],
            sockets: vec![SocketEventRecord::default(); num_sockets],
        }
    }

    /// Merge another sample (e.g. from a later execution phase) into this one.
    pub fn merge(&mut self, other: &EventSample) {
        if self.threads.len() < other.threads.len() {
            self.threads.resize(other.threads.len(), ThreadEventRecord::default());
        }
        if self.sockets.len() < other.sockets.len() {
            self.sockets.resize(other.sockets.len(), SocketEventRecord::default());
        }
        for (mine, theirs) in self.threads.iter_mut().zip(&other.threads) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.sockets.iter_mut().zip(&other.sockets) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncore_classification() {
        assert!(HwEventKind::L3LinesIn.is_uncore());
        assert!(HwEventKind::MemoryReads.is_uncore());
        assert!(!HwEventKind::InstructionsRetired.is_uncore());
        assert!(!HwEventKind::L2Misses.is_uncore());
    }

    #[test]
    fn all_lists_every_kind_at_its_index() {
        for (index, kind) in HwEventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, index, "{kind:?}");
        }
        assert_eq!(HwEventKind::UncoreCycles as usize + 1, HwEventKind::COUNT, "last variant");
    }

    #[test]
    fn thread_record_set_add_get() {
        let mut r = ThreadEventRecord::new();
        r.set(HwEventKind::InstructionsRetired, 100);
        r.add(HwEventKind::InstructionsRetired, 50);
        assert_eq!(r.get(HwEventKind::InstructionsRetired), 150);
        assert_eq!(r.get(HwEventKind::CoreCycles), 0);
    }

    #[test]
    fn iteration_yields_non_zero_kinds_in_declaration_order() {
        let mut r = ThreadEventRecord::new();
        r.set(HwEventKind::UncoreCycles, 3);
        r.set(HwEventKind::L1Misses, 0);
        r.set(HwEventKind::InstructionsRetired, 1);
        r.add(HwEventKind::L2Misses, 2);
        let kinds: Vec<(HwEventKind, u64)> = r.iter().collect();
        assert_eq!(
            kinds,
            [
                (HwEventKind::InstructionsRetired, 1),
                (HwEventKind::L2Misses, 2),
                (HwEventKind::UncoreCycles, 3)
            ]
        );
    }

    #[test]
    fn a_kind_set_to_zero_equals_an_absent_kind() {
        let mut zeroed = SocketEventRecord::new();
        zeroed.set(HwEventKind::MemoryReads, 0);
        assert_eq!(zeroed, SocketEventRecord::new());
        zeroed.add(HwEventKind::MemoryReads, 5).set(HwEventKind::MemoryReads, 0);
        assert_eq!(zeroed, SocketEventRecord::new());
        assert_eq!(zeroed.iter().count(), 0);
    }

    #[test]
    fn sample_merge_accumulates_threads_and_sockets() {
        let mut a = EventSample::new(2, 1);
        a.threads[0].set(HwEventKind::CoreCycles, 10);
        a.sockets[0].set(HwEventKind::L3LinesIn, 5);
        let mut b = EventSample::new(2, 1);
        b.threads[0].set(HwEventKind::CoreCycles, 7);
        b.threads[1].set(HwEventKind::InstructionsRetired, 3);
        b.sockets[0].set(HwEventKind::L3LinesIn, 2);
        a.merge(&b);
        assert_eq!(a.threads[0].get(HwEventKind::CoreCycles), 17);
        assert_eq!(a.threads[1].get(HwEventKind::InstructionsRetired), 3);
        assert_eq!(a.sockets[0].get(HwEventKind::L3LinesIn), 7);
    }

    #[test]
    fn merge_grows_a_smaller_sample() {
        let mut a = EventSample::new(1, 1);
        let mut b = EventSample::new(4, 2);
        b.threads[3].set(HwEventKind::LoadsRetired, 9);
        b.sockets[1].set(HwEventKind::MemoryWrites, 4);
        a.merge(&b);
        assert_eq!(a.threads.len(), 4);
        assert_eq!(a.threads[3].get(HwEventKind::LoadsRetired), 9);
        assert_eq!(a.sockets[1].get(HwEventKind::MemoryWrites), 4);
    }
}
