//! A client's rebuild of a session agrees with the session's finish.
//!
//! `SessionHandle::finish` returns the `done` frame next to the
//! timeline's totals. A client that rebuilds a time-sliced stream — whose
//! coverage scale exceeds 1 — from its frames, each sent through the wire
//! codec, must arrive at those totals, field by field.

use likwid::perfctr::TimelineTotals;
use likwid_daemon::{Daemon, DoneFrame, Frame, OpenRequest, SessionHandle, StreamAccumulator};
use likwid_x86_machine::{MachinePreset, SimMachine};

fn request(cpus: &str, group: &str) -> OpenRequest {
    OpenRequest {
        machine: None,
        cpus: cpus.to_string(),
        group: group.to_string(),
        interval: "2ms".to_string(),
        duration: "10ms".to_string(),
    }
}

/// A frame after a trip over the wire: encoded to its line, decoded back.
fn reparse(frame: Frame) -> Frame {
    Frame::from_line(&frame.to_line()).expect("wire round-trip")
}

/// Drive a session to its end through the wire codec and finish it.
/// Returns what `finish` returned next to the stream a client
/// accumulated from the session's frames.
fn drive(mut handle: SessionHandle<'_, '_>) -> (DoneFrame, TimelineTotals, StreamAccumulator) {
    let Frame::Opened(opened) = reparse(Frame::Opened(handle.opened().clone())) else {
        panic!("an opened frame");
    };
    let mut stream = StreamAccumulator::new(opened);
    while let Some(interval) = handle.next_interval().expect("interval") {
        let Frame::Interval(interval) = reparse(Frame::Interval(interval)) else {
            panic!("an interval frame");
        };
        stream.push(interval).expect("in order");
    }
    let (done, totals) = handle.finish().expect("finish");
    let Frame::Done(streamed) = reparse(Frame::Done(done.clone())) else { panic!("a done frame") };
    stream.complete(streamed).expect("consistent");
    (done, totals, stream)
}

#[test]
fn a_time_sliced_stream_rebuilds_the_result_of_finish() {
    // Two `FLOPS_DP` sessions on cpu 0, each on its own thread: the
    // broker's tickets alternate them, so both are time-sliced. The one
    // opened second is charged every interval of the first and is
    // extrapolated by exactly 2.
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);
    let first = daemon.open(&request("0", "FLOPS_DP")).expect("first admitted");
    let (done, totals, stream) = std::thread::scope(|scope| {
        let second =
            scope.spawn(|| drive(daemon.open(&request("0", "FLOPS_DP")).expect("second admitted")));
        while daemon.stats().live < 2 {
            std::thread::yield_now();
        }
        drive(first);
        second.join().expect("the second session's thread")
    });
    assert!(daemon.is_quiescent());

    assert_eq!(done.time_scale, 2.0);
    assert_eq!(done.intervals, 5);
    stream.verify_telescoping().expect("the deltas telescope");
    let rebuilt = stream.result().expect("rebuild");
    assert_eq!(rebuilt.interval_s.to_bits(), totals.interval_s.to_bits());
    assert_eq!(rebuilt.duration_s.to_bits(), totals.duration_s.to_bits());
    assert_eq!(rebuilt.cpus, totals.cpus);
    assert_eq!(rebuilt.socket_lock_owners, totals.socket_lock_owners);
    assert_eq!(rebuilt.group_names, totals.group_names);
    assert_eq!(rebuilt.intervals.len(), totals.intervals);
    assert_eq!(rebuilt.aggregate, totals.aggregate);
    assert_eq!(rebuilt.extrapolated, totals.extrapolated);
    assert_eq!(rebuilt.aggregate_results, totals.aggregate_results);
    assert_ne!(rebuilt.aggregate, rebuilt.extrapolated, "extrapolated by coverage");
    assert_eq!(rebuilt.timeseries.len(), totals.group_names.len());
    for series in &rebuilt.timeseries {
        assert_eq!(series.timestamps.len(), totals.intervals);
    }
}
