//! The two ways to finish a session agree.
//!
//! `SessionHandle::finish_done` builds the `done` frame from the
//! timeline's totals alone; `SessionHandle::finish` also rebuilds every
//! interval and its metrics. Both must send the same frame: for a solo
//! session, a multiplexed one and a time-sliced one, whose coverage scale
//! exceeds 1. A client that rebuilds a time-sliced stream from its frames
//! must arrive at `finish`'s result, field by field.

use likwid::perfctr::TimelineResult;
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

/// What a finished session yields: its `done` frame and, from
/// [`SessionHandle::finish`], the post-mortem result next to the stream a
/// client accumulated from the session's frames.
struct Finished {
    done: DoneFrame,
    full: Option<(TimelineResult, StreamAccumulator)>,
}

/// Drive a session to its end through the wire codec, then finish it in
/// full or for the wire alone.
fn drive(mut handle: SessionHandle<'_, '_>, full: bool) -> Finished {
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
    if !full {
        return Finished { done: handle.finish_done().expect("finish_done"), full: None };
    }
    let (done, result) = handle.finish().expect("finish");
    let Frame::Done(streamed) = reparse(Frame::Done(done.clone())) else { panic!("a done frame") };
    stream.complete(streamed).expect("consistent");
    Finished { done, full: Some((result, stream)) }
}

/// A `-c cpus -g group` session with nothing else on a fresh machine.
fn solo(preset: MachinePreset, cpus: &str, group: &str, full: bool) -> Finished {
    let machine = SimMachine::new(preset);
    let daemon = Daemon::new(&machine);
    let finished = drive(daemon.open(&request(cpus, group)).expect("admitted"), full);
    assert!(daemon.is_quiescent());
    finished
}

/// Two `FLOPS_DP` sessions on cpu 0 of a fresh machine, each on its own
/// thread: the broker's tickets alternate them, so both are time-sliced.
/// Returns the one opened second, which is charged every interval of the
/// first and is extrapolated by exactly 2.
fn sliced(full: bool) -> Finished {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);
    let first = daemon.open(&request("0", "FLOPS_DP")).expect("first admitted");
    let second = std::thread::scope(|scope| {
        let second = scope.spawn(|| {
            drive(daemon.open(&request("0", "FLOPS_DP")).expect("second admitted"), full)
        });
        while daemon.stats().live < 2 {
            std::thread::yield_now();
        }
        drive(first, full);
        second.join().expect("the second session's thread")
    });
    assert!(daemon.is_quiescent());
    second
}

/// Reals as their bits, so that equal NaNs compare equal.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn finish_done_sends_the_done_frame_of_finish() {
    let preset = MachinePreset::WestmereEp2S;
    let solo = |cpus, group| (solo(preset, cpus, group, true), solo(preset, cpus, group, false));
    for (context, (full, lean)) in [
        ("solo", solo("0,6", "MEM")),
        ("multiplexed", solo("0,1,2", "FLOPS_DP,MEM,L3")),
        ("time-sliced", (sliced(true), sliced(false))),
    ] {
        assert_eq!(lean.done, full.done, "{context}");
        assert_eq!(lean.done.intervals, 5, "{context}");
        if context == "time-sliced" {
            assert_eq!(lean.done.time_scale, 2.0, "{context}: extrapolated by coverage");
            assert_ne!(lean.done.aggregate, lean.done.extrapolated, "{context}");
        } else {
            assert_eq!(lean.done.time_scale, 1.0, "{context}");
        }
    }
}

#[test]
fn a_time_sliced_stream_rebuilds_the_result_of_finish() {
    let Finished { done, full: Some((local, stream)) } = sliced(true) else {
        panic!("a full finish");
    };
    assert_eq!(done.time_scale, 2.0);
    stream.verify_telescoping().expect("the deltas telescope");
    let rebuilt = stream.result().expect("rebuild");
    assert_eq!(rebuilt.interval_s.to_bits(), local.interval_s.to_bits());
    assert_eq!(rebuilt.duration_s.to_bits(), local.duration_s.to_bits());
    assert_eq!(rebuilt.cpus, local.cpus);
    assert_eq!(rebuilt.socket_lock_owners, local.socket_lock_owners);
    assert_eq!(rebuilt.group_names, local.group_names);
    assert_eq!(rebuilt.intervals, local.intervals);
    assert_eq!(rebuilt.aggregate, local.aggregate);
    assert_eq!(rebuilt.extrapolated, local.extrapolated);
    assert_eq!(rebuilt.aggregate_results, local.aggregate_results);
    assert_eq!(rebuilt.timeseries.len(), local.timeseries.len());
    for (r, l) in rebuilt.timeseries.iter().zip(&local.timeseries) {
        assert_eq!(bits(&r.timestamps), bits(&l.timestamps));
        assert_eq!(r.series.len(), l.series.len());
        for (r, l) in r.series.iter().zip(&l.series) {
            assert_eq!((&r.metric, r.cpu, bits(&r.values)), (&l.metric, l.cpu, bits(&l.values)));
        }
    }
}
