//! Peak live heap of the process, counted by a wrapper around the system
//! allocator.
//!
//! The kernel's peak resident set (`VmHWM`) of a multi-threaded run swings
//! by a quarter between identical runs, depending on how many malloc arenas
//! the threads happened to create and on where the allocator's dynamic
//! mmap threshold ended up. The bytes the program holds live at its peak
//! do not depend on either, so the benchmark bounds those.
//!
//! Counting stops for good when the peak is read, after set-up and warm-up:
//! from then on an allocation costs one relaxed load more than the system
//! allocator's, so the timed passes do not pay for shared counters that
//! several threads would write on every allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, counting live and peak bytes until
/// [`final_peak_mb`] is called.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Relaxed throughout: the counters are statistics and publish no other data.

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc_zeroed`'s
        // contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller: `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Stop counting and return the most bytes that were live at once since
/// the process started, in MB. Growth after this call is not seen.
pub fn final_peak_mb() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
