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
//! * A warm daemon interval allocates nothing: from the demo activity
//!   through programming, counting, reading and suspending the counters,
//!   `SessionHandle::next_interval_into` refills one frame in place.
//!   `next_interval` allocates exactly the frame it returns.
//!
//! * A client's frames are as flat: decoding an interval line into a warm
//!   frame (`Frame::decode_line`) allocates nothing, and recording it in a
//!   `StreamAccumulator` allocates only when the flat log grows.
//! * Opening a daemon session (`Daemon::validate`, `Daemon::open_session`)
//!   allocates the same bytes whatever its duration: the daemon keeps no
//!   interval history, so it reserves none.
//! * `SessionHandle::finish` allocates the same bytes whatever the number
//!   of intervals: it rebuilds nothing per interval.
//!
//! The allocator counts per thread, so the test harness's own threads and
//! neighbouring tests cannot disturb a measurement. Nothing in this binary
//! starts the trace recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use likwid_suite::cache_sim::{HierarchyConfig, NodeCacheSystem, NumaPolicy};
use likwid_suite::daemon::{
    ActivitySource, Daemon, Frame, IntervalFrame, OpenRequest, SessionHandle, StreamAccumulator,
};
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

/// Open a `-c cpus -g group` session of `duration` in 100 µs intervals.
fn open<'d, 'm>(
    daemon: &'d Daemon<'m>,
    cpus: &str,
    group: &str,
    duration: &str,
) -> SessionHandle<'d, 'm> {
    let request = OpenRequest {
        machine: None,
        cpus: cpus.to_string(),
        group: group.to_string(),
        interval: "100us".to_string(),
        duration: duration.to_string(),
    };
    let config = daemon.validate(&request).expect("valid request");
    daemon.open_session(config, ActivitySource::Demo).expect("admitted")
}

/// Every interval frame of an in-process daemon session, next to the
/// session's `opened` frame.
fn stream_frames(cpus: &str, group: &str, duration: &str) -> (Frame, Vec<IntervalFrame>) {
    let machine = SimMachine::new(MachinePreset::NehalemEp2S);
    let daemon = Daemon::new(&machine);
    let mut handle = open(&daemon, cpus, group, duration);
    let mut frames = Vec::new();
    while let Some(frame) = handle.next_interval().expect("interval") {
        frames.push(frame);
    }
    (Frame::Opened(handle.opened().clone()), frames)
}

/// Every interval frame of a short in-process daemon session.
fn session_frames(cpus: &str, group: &str) -> Vec<IntervalFrame> {
    stream_frames(cpus, group, "5ms").1
}

/// Session kinds whose frames have more rows and columns than a growing
/// vector's first allocation holds (four), so growth would show.
const SESSIONS: [(&str, &str); 3] = [
    ("0-7", "MEM"),
    ("2-7", "FLOPS_DP,MEM"),
    (
        "0-5",
        "INSTR_RETIRED_ANY:FIXC0,CPU_CLK_UNHALTED_CORE:FIXC1,CPU_CLK_UNHALTED_REF:FIXC2,\
         FP_COMP_OPS_EXE_SSE_FP_PACKED:PMC0,FP_COMP_OPS_EXE_SSE_FP_SCALAR:PMC1,\
         UNC_L3_LINES_IN_ANY:UPMC0",
    ),
];

/// The session kinds of the `daemon_sessions` benchmark, on its
/// `nehalem-ep-2s` node: uncore, multiplexed uncore and core-only.
const DAEMON_KINDS: [(&str, &str); 3] =
    [("0-3", "MEM"), ("2-5", "FLOPS_DP,MEM"), ("2-5", "FLOPS_DP")];

#[test]
fn a_warm_daemon_interval_allocates_nothing() {
    for (cpus, group) in DAEMON_KINDS {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let daemon = Daemon::new(&machine);
        let request = OpenRequest {
            machine: None,
            cpus: cpus.to_string(),
            group: group.to_string(),
            interval: "100us".to_string(),
            duration: "10ms".to_string(),
        };
        let config = daemon.validate(&request).expect("valid request");
        let mut handle = daemon.open_session(config, ActivitySource::Demo).expect("admitted");
        // A rotation through the groups and back to the first sizes the
        // frame, its parked rows and the session's per-group buffers.
        let mut frame = IntervalFrame::default();
        for _ in 0..3 {
            assert!(handle.next_interval_into(&mut frame).expect("interval"));
        }
        let mut intervals = 0;
        let allocations = allocations_in(|| {
            while handle.next_interval_into(&mut frame).expect("interval") {
                intervals += 1;
            }
        });
        assert!(intervals >= 90, "-c {cpus} -g {group}: {intervals} intervals");
        assert_eq!(allocations, 0, "-c {cpus} -g {group}: {allocations} allocations");
    }
}

#[test]
fn next_interval_allocates_only_the_frame_it_returns() {
    for (cpus, group) in DAEMON_KINDS {
        let machine = SimMachine::new(MachinePreset::NehalemEp2S);
        let daemon = Daemon::new(&machine);
        let request = OpenRequest {
            machine: None,
            cpus: cpus.to_string(),
            group: group.to_string(),
            interval: "100us".to_string(),
            duration: "2ms".to_string(),
        };
        let config = daemon.validate(&request).expect("valid request");
        let mut handle = daemon.open_session(config, ActivitySource::Demo).expect("admitted");
        for _ in 0..2 {
            handle.next_interval().expect("interval").expect("a warm-up interval");
        }
        loop {
            let mut next = None;
            let allocations = allocations_in(|| next = handle.next_interval().expect("interval"));
            let Some(frame) = next else { break };
            let owned = 1 + frame.counts.len();
            assert_eq!(allocations, owned as u64, "-c {cpus} -g {group}");
        }
    }
}

#[test]
fn a_warm_line_buffer_encodes_interval_frames_without_allocating() {
    for (cpus, group) in SESSIONS {
        let frames: Vec<Frame> =
            session_frames(cpus, group).into_iter().map(Frame::Interval).collect();
        // One pass sizes the buffer for the stream's longest line.
        let mut line = String::new();
        for frame in &frames {
            frame.encode_line(&mut line);
        }
        for frame in &frames {
            assert_eq!(allocations_in(|| frame.encode_line(&mut line)), 0, "-c {cpus} -g {group}");
            assert_eq!(line, frame.to_line());
        }
    }
}

#[test]
fn decoding_an_interval_line_allocates_only_what_the_frame_owns() {
    for (cpus, group) in SESSIONS {
        let frames = session_frames(cpus, group);
        // The thread's first decode sizes the decoder's reused staging.
        Frame::from_line(&Frame::Interval(frames[0].clone()).to_line()).expect("decodes");
        for frame in frames {
            let line = Frame::Interval(frame).to_line();
            let mut decoded = None;
            let allocations = allocations_in(|| decoded = Some(Frame::from_line(&line)));
            let Some(Ok(Frame::Interval(frame))) = decoded else {
                panic!("{line} did not decode to an interval frame");
            };
            let owned = 1 + frame.counts.len();
            assert!(allocations <= owned as u64, "{allocations} > {owned} for {line}");
        }
    }
}

#[test]
fn decoding_an_interval_line_into_a_warm_frame_allocates_nothing() {
    for (cpus, group) in SESSIONS {
        let lines: Vec<String> =
            session_frames(cpus, group).into_iter().map(|f| Frame::Interval(f).to_line()).collect();
        // One pass through the session's groups warms the frame's rows.
        let mut frame = Frame::Ok;
        for line in &lines[..3] {
            frame.decode_line(line).expect("decodes");
        }
        for line in &lines {
            let allocations = allocations_in(|| frame.decode_line(line).expect("decodes"));
            assert_eq!(allocations, 0, "-c {cpus} -g {group}: {line}");
            assert_eq!(frame, Frame::from_line(line).expect("decodes"));
        }
    }
}

#[test]
fn a_warm_client_frame_is_recorded_without_allocating_until_the_log_grows() {
    for (cpus, group) in DAEMON_KINDS {
        let (opened, frames) = stream_frames(cpus, group, "100ms");
        let Frame::Opened(opened) = opened else { unreachable!("an opened frame") };
        let lines: Vec<String> = frames.into_iter().map(|f| Frame::Interval(f).to_line()).collect();
        let mut frame = Frame::Ok;
        for line in &lines[..3] {
            frame.decode_line(line).expect("decodes");
        }
        let mut stream = StreamAccumulator::new(opened);
        // Decode and record every line, as `SocketClient::run_session`
        // does, counting the lines that allocated and what they allocated.
        let (mut growing, mut counts) = (0u64, 0usize);
        for line in &lines {
            let allocations = allocations_in(|| {
                frame.decode_line(line).expect("decodes");
                let Frame::Interval(interval) = &frame else { unreachable!("an interval") };
                stream.record(interval).expect("in order");
            });
            let Frame::Interval(interval) = &frame else { unreachable!("an interval") };
            counts += interval.counts.iter().map(Vec::len).sum::<usize>();
            // At most one growth of the span vector and one of the counts.
            assert!(allocations <= 2, "-c {cpus} -g {group}: {allocations} allocations at {line}");
            growing += u64::from(allocations > 0);
        }
        // Both vectors grow geometrically: a handful of growths in all.
        let bound = u64::from(2 * (usize::BITS - counts.leading_zeros()));
        assert!(lines.len() >= 1000, "-c {cpus} -g {group}: {} intervals", lines.len());
        assert!(growing <= bound, "-c {cpus} -g {group}: {growing} of {} lines grew", lines.len());
        assert_eq!(stream.intervals().len(), lines.len());
    }
}

#[test]
fn opening_a_session_allocates_the_same_bytes_for_nine_times_the_duration() {
    for (cpus, group) in DAEMON_KINDS {
        // Spelled with as many characters: the request strings are copied.
        let bytes = ["10ms", "90ms"].map(|duration| {
            let machine = SimMachine::new(MachinePreset::NehalemEp2S);
            let daemon = Daemon::new(&machine);
            bytes_in(|| drop(black_box(open(&daemon, cpus, group, duration))))
        });
        assert_eq!(bytes[0], bytes[1], "-c {cpus} -g {group}: bytes an open allocated");
    }
}

#[test]
fn finish_allocates_the_same_bytes_for_ten_times_the_intervals() {
    for (cpus, group) in DAEMON_KINDS {
        let bytes = ["10ms", "100ms"].map(|duration| {
            let machine = SimMachine::new(MachinePreset::NehalemEp2S);
            let daemon = Daemon::new(&machine);
            let mut handle = open(&daemon, cpus, group, duration);
            let mut frame = IntervalFrame::default();
            while handle.next_interval_into(&mut frame).expect("interval") {}
            let mut done = None;
            let bytes = bytes_in(|| done = Some(handle.finish().expect("finish").0));
            let intervals = done.expect("a done frame").intervals;
            (intervals, bytes)
        });
        let intervals = (bytes[0].0, bytes[1].0);
        assert_eq!(intervals, (100, 1_000), "-c {cpus} -g {group}: 100 us intervals");
        assert_eq!(bytes[0].1, bytes[1].1, "-c {cpus} -g {group}: bytes finish allocated");
    }
}
