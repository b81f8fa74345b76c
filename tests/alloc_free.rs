//! Allocation contracts of the measurement hot path, checked with a
//! counting global allocator.
//!
//! * Recording activity into an event record (`ThreadEventRecord::add`,
//!   `SocketEventRecord::add`) never allocates: records are fixed arrays.
//! * While tracing is off, the instrumentation points (`trace::span`,
//!   `trace::complete_since`, `trace::count_with`) never allocate: their
//!   names and annotations are built lazily, only when recording.
//!
//! * A `westmere-ep-2s` cache simulator (`NodeCacheSystem::new`) stays
//!   under a fixed host-memory budget.
//!
//! The allocator counts per thread, so the test harness's own threads and
//! neighbouring tests cannot disturb a measurement. Nothing in this binary
//! starts the trace recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use likwid_suite::cache_sim::{HierarchyConfig, NodeCacheSystem, NumaPolicy};
use likwid_suite::likwid::trace;
use likwid_suite::perf_events::{HwEventKind, SocketEventRecord, ThreadEventRecord};
use likwid_suite::x86_machine::{MachinePreset, SimMachine};

/// The system allocator, counting the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn counted(bytes: usize) {
    // `try_with`: the slots are gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only notes
// that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: forwarded from our caller, who upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        // SAFETY: forwarded from our caller, who upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations the calling thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// How many bytes the calling thread requested while running `f`, counting
/// each reallocation at its new size.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

#[test]
fn the_counter_proves_it_counts() {
    assert_eq!(allocations_in(|| drop(black_box(vec![1u8; 16]))), 1);
    assert_eq!(bytes_in(|| drop(black_box(vec![1u8; 16]))), 16);
}

#[test]
fn a_two_socket_cache_simulator_fits_its_memory_budget() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let config = HierarchyConfig::from_machine(&machine, NumaPolicy::interleave(4096));
    let bytes = bytes_in(|| drop(black_box(NodeCacheSystem::new(config))));
    assert!(bytes <= 5_000_000, "NodeCacheSystem::new allocated {bytes} bytes");
}

#[test]
fn adding_to_event_records_allocates_nothing() {
    let mut thread = ThreadEventRecord::new();
    let mut socket = SocketEventRecord::new();
    let allocations = allocations_in(|| {
        for round in 0..100u64 {
            for kind in HwEventKind::ALL {
                thread.add(kind, round);
                socket.add(kind, round + 1);
            }
        }
    });
    assert_eq!(allocations, 0);
    assert_eq!(black_box(&thread).get(HwEventKind::CoreCycles), 4950);
    assert_eq!(black_box(&socket).get(HwEventKind::L3LinesIn), 5050);
}

#[test]
fn instrumentation_points_allocate_nothing_while_tracing_is_off() {
    assert!(!trace::enabled(), "nothing in this binary starts the recorder");
    let allocations = allocations_in(|| {
        for i in 0..100u64 {
            let started = trace::now();
            let span = trace::span(trace::cat::CORE, "alloc_free.span");
            drop(black_box(span));
            trace::complete_since(
                trace::cat::DAEMON,
                started,
                || format!("interval.window {i}"),
                || vec![("index", i.to_string())],
            );
            trace::count_with(trace::cat::FLEET, || format!("points.{i}"), 1);
        }
    });
    assert_eq!(allocations, 0);
}
