//! Epoch-batched replay queues: the batched access-stream format of the
//! simulator.
//!
//! A [`ReplayQueue`] is a sequence of *epochs*; each epoch is an ordered
//! list of `(thread, RunOp)` batched access runs. The semantics of a queue
//! are defined by the sequential drain [`NodeCacheSystem::replay`] that the
//! tools use: within an epoch the ops execute **in push order**, and epochs
//! execute one after another. The library's sharded engine
//! ([`crate::shard::ShardedCacheSystem`]) must reproduce that drain
//! bit-identically, running epochs whose shards provably do not interact
//! in parallel and everything else in the sequential order.
//!
//! Workload drivers emit one epoch per natural synchronisation point
//! (a Jacobi time step, a pass over a working set, a producer/consumer
//! round): an epoch boundary is a point where reordering *between threads
//! of different sockets* is semantically acceptable, because the driver
//! placed no intra-epoch cross-socket data dependence.

use crate::access::{AccessKind, HitLevel};
use crate::hierarchy::NodeCacheSystem;

/// One batched access run: `count` accesses of `size` bytes each at
/// `base`, `base + stride`, `base + 2*stride`, … issued with `kind` —
/// exactly the argument tuple of [`NodeCacheSystem::access_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOp {
    /// Byte address of the first element.
    pub base: u64,
    /// Byte stride between elements (may be negative, zero or sub-line).
    pub stride: i64,
    /// Number of elements.
    pub count: u64,
    /// Bytes per element.
    pub size: u32,
    /// Access kind of every element.
    pub kind: AccessKind,
}

impl RunOp {
    /// A whole-line load run (the most common op of the stencil drivers).
    pub fn load_lines(base: u64, lines: u64) -> Self {
        RunOp { base, stride: 64, count: lines, size: 64, kind: AccessKind::Load }
    }

    /// A whole-line store run.
    pub fn store_lines(base: u64, lines: u64) -> Self {
        RunOp { base, stride: 64, count: lines, size: 64, kind: AccessKind::Store }
    }

    /// The inclusive byte interval `[lo, hi]` touched by the run, or `None`
    /// when the run is empty or its affine address sequence leaves
    /// `[0, 2^64)` (the engine then wraps element addresses; such ops are
    /// treated as unanalyzable by the conflict analysis). Element addresses
    /// are affine in the element index, so the extremes sit at the first
    /// and last element.
    pub(crate) fn byte_extent(&self) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let size = self.size.max(1) as i128;
        let first = self.base as i128;
        let last = first + (self.count as i128 - 1) * self.stride as i128;
        let (lo, hi) = if first <= last { (first, last) } else { (last, first) };
        let hi = hi + size - 1;
        if lo < 0 || hi > u64::MAX as i128 {
            return None;
        }
        Some((lo as u64, hi as u64))
    }

    /// The inclusive cache-line interval of the run (line size a power of
    /// two, given as its log2).
    pub(crate) fn line_hull(&self, line_shift: u32) -> Option<(u64, u64)> {
        self.byte_extent().map(|(lo, hi)| (lo >> line_shift, hi >> line_shift))
    }

    /// Line of the first element (only meaningful when `count > 0`).
    pub(crate) fn first_line(&self, line_shift: u32) -> u64 {
        self.base >> line_shift
    }

    /// The last cache line the engine *observes* while replaying the run:
    /// the last line of the last element (element order, not address
    /// order). Feeds the cross-op IP-prefetcher carry analysis.
    pub(crate) fn last_observed_line(&self, line_shift: u32) -> Option<u64> {
        let (_, hi_byte) = self.byte_extent()?;
        let last_elem = self.base as i128 + (self.count as i128 - 1) * self.stride as i128;
        let end = (last_elem + self.size.max(1) as i128 - 1).min(hi_byte as i128);
        Some((end as u64) >> line_shift)
    }

    /// Sound bound (in lines) on how far the hardware prefetchers can reach
    /// past the run's line hull while it replays: the streamer/DCU/adjacent
    /// prefetchers reach at most 2 lines, the IP-stride prefetcher at most
    /// one intra-run stride (`|stride|` in lines, plus one for straddling
    /// elements). The cross-run IP carry target is handled separately as a
    /// singleton by the conflict analysis.
    pub(crate) fn prefetch_pad_lines(&self, line_shift: u32) -> u64 {
        (self.stride.unsigned_abs() >> line_shift) + 2
    }

    /// Append every cache line touched by the run (in element order, with
    /// the engine's wrapping address arithmetic) to `out`, skipping
    /// immediately repeated lines. Used by the serial fallback to apply
    /// cross-shard store invalidations at exact line granularity.
    pub(crate) fn collect_lines(&self, line_size: u64, out: &mut Vec<u64>) {
        let mut prev = None;
        for i in 0..self.count {
            let address = self.base.wrapping_add((i as i64).wrapping_mul(self.stride) as u64);
            let first = address / line_size;
            let last = (address + self.size.max(1) as u64 - 1) / line_size;
            for line in first..=last {
                if prev != Some(line) {
                    out.push(line);
                    prev = Some(line);
                }
            }
        }
    }
}

/// An epoch-batched, per-thread run queue (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReplayQueue {
    num_threads: usize,
    epochs: Vec<Vec<(usize, RunOp)>>,
}

impl ReplayQueue {
    /// An empty queue for a node with `num_threads` hardware threads.
    pub fn new(num_threads: usize) -> Self {
        ReplayQueue { num_threads, epochs: Vec::new() }
    }

    /// Number of hardware threads the queue addresses.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Start a new epoch. A no-op when the current epoch is still empty, so
    /// drivers can call it unconditionally at every synchronisation point.
    pub fn begin_epoch(&mut self) {
        if self.epochs.last().is_none_or(|e| !e.is_empty()) {
            self.epochs.push(Vec::new());
        }
    }

    /// Append one run to the current epoch (opening the first epoch if none
    /// exists yet).
    pub fn push(&mut self, thread: usize, op: RunOp) {
        assert!(thread < self.num_threads, "no such hardware thread {thread}");
        if self.epochs.is_empty() {
            self.epochs.push(Vec::new());
        }
        self.epochs.last_mut().expect("epoch present").push((thread, op));
    }

    /// The epochs, each an ordered `(thread, op)` list.
    pub fn epochs(&self) -> &[Vec<(usize, RunOp)>] {
        &self.epochs
    }

    /// Number of (possibly empty) epochs.
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Total element accesses across all epochs.
    pub fn total_accesses(&self) -> u64 {
        self.epochs.iter().flatten().map(|(_, op)| op.count).sum()
    }
}

impl NodeCacheSystem {
    /// Sequentially drain a replay queue: epochs in order, ops of each epoch
    /// in push order — the ground-truth semantics the sharded engine must
    /// reproduce bit-identically. Returns the worst hit level of the run.
    pub fn replay(&mut self, queue: &ReplayQueue) -> HitLevel {
        assert_eq!(
            queue.num_threads(),
            self.config().num_threads,
            "queue thread count must match the hierarchy"
        );
        let mut worst = HitLevel::L1;
        for epoch in queue.epochs() {
            for &(thread, op) in epoch {
                let level = self.access_run(thread, op.base, op.stride, op.count, op.size, op.kind);
                if level > worst {
                    worst = level;
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_extent_covers_both_stride_directions() {
        let fwd = RunOp { base: 1000, stride: 64, count: 4, size: 8, kind: AccessKind::Load };
        assert_eq!(fwd.byte_extent(), Some((1000, 1000 + 3 * 64 + 7)));
        let back = RunOp { base: 1000, stride: -64, count: 4, size: 8, kind: AccessKind::Load };
        assert_eq!(back.byte_extent(), Some((1000 - 3 * 64, 1007)));
        let empty = RunOp { base: 0, stride: 64, count: 0, size: 8, kind: AccessKind::Load };
        assert_eq!(empty.byte_extent(), None);
    }

    #[test]
    fn wrapping_runs_are_flagged_unanalyzable() {
        let op = RunOp { base: 64, stride: -4096, count: 10, size: 8, kind: AccessKind::Load };
        assert_eq!(op.byte_extent(), None, "the run leaves [0, 2^64)");
        let op =
            RunOp { base: u64::MAX - 64, stride: 64, count: 4, size: 8, kind: AccessKind::Load };
        assert_eq!(op.byte_extent(), None);
    }

    #[test]
    fn last_observed_line_follows_element_order() {
        let back = RunOp { base: 10 * 64, stride: -64, count: 4, size: 8, kind: AccessKind::Load };
        assert_eq!(back.last_observed_line(6), Some(7), "last element is the lowest address");
        let fwd = RunOp { base: 0, stride: 64, count: 4, size: 8, kind: AccessKind::Load };
        assert_eq!(fwd.last_observed_line(6), Some(3));
    }

    #[test]
    fn collect_lines_skips_immediate_repeats_and_expands_straddles() {
        let op = RunOp { base: 0, stride: 8, count: 16, size: 8, kind: AccessKind::Store };
        let mut lines = Vec::new();
        op.collect_lines(64, &mut lines);
        assert_eq!(lines, vec![0, 1], "sub-line stride repeats collapse");
        let op = RunOp { base: 32, stride: 64, count: 2, size: 64, kind: AccessKind::Store };
        let mut lines = Vec::new();
        op.collect_lines(64, &mut lines);
        assert_eq!(lines, vec![0, 1, 2], "straddling elements cover both lines");
    }

    #[test]
    fn begin_epoch_is_idempotent_on_an_empty_epoch() {
        let mut q = ReplayQueue::new(2);
        q.begin_epoch();
        q.begin_epoch();
        q.push(0, RunOp::load_lines(0, 4));
        q.begin_epoch();
        q.push(1, RunOp::store_lines(4096, 4));
        assert_eq!(q.num_epochs(), 2);
        assert_eq!(q.total_accesses(), 8);
    }
}
