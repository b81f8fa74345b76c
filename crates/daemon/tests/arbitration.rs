//! Socket-lock and turn arbitration: uncore sessions on the same socket
//! serialize FIFO, uncore sessions on disjoint sockets overlap, dropped
//! clients release every lock and slot (no leaks after repeated
//! connect/abandon cycles), time-sliced sessions sharing cpus are
//! extrapolated by their measured coverage, and time-sliced streams stay
//! exact on a machine with faulty MSRs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use likwid::perfctr::session::Diagnostic;
use likwid_daemon::{Daemon, DaemonStatus, DoneFrame, Frame, OpenRequest, StreamAccumulator};
use likwid_x86_machine::fault::FaultPlan;
use likwid_x86_machine::{MachinePreset, SimMachine};

fn request(cpus: &str, group: &str, interval: &str, duration: &str) -> OpenRequest {
    OpenRequest {
        machine: None,
        cpus: cpus.to_string(),
        group: group.to_string(),
        interval: interval.to_string(),
        duration: duration.to_string(),
    }
}

/// The machine's hardware threads on one socket, as a pin-list string.
fn socket_cpus(machine: &SimMachine, socket: u32, count: usize) -> String {
    let topo = machine.topology();
    let cpus: Vec<String> = (0..machine.num_hw_threads())
        .filter(|&cpu| topo.hw_thread(cpu).map(|t| t.socket == socket).unwrap_or(false))
        .take(count)
        .map(|cpu| cpu.to_string())
        .collect();
    assert_eq!(cpus.len(), count, "socket {socket} has at least {count} hw threads");
    cpus.join(",")
}

/// Drive a session to completion and return its interval count.
fn run_to_completion(daemon: &Daemon<'_>, request: &OpenRequest) -> usize {
    let mut handle = daemon.open(request).expect("session admitted");
    let mut n = 0;
    while handle.next_interval().expect("interval").is_some() {
        n += 1;
    }
    let (done, _result) = handle.finish().expect("finish");
    assert_eq!(done.intervals, n);
    n
}

fn wait_for(mut condition: impl FnMut() -> bool, what: &str) {
    for _ in 0..2000 {
        if condition() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn same_socket_uncore_sessions_serialize_fifo() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);
    let cpus = socket_cpus(&machine, 0, 2);

    // The holder takes socket 0's uncore lock at admission.
    let mut holder = daemon.open(&request(&cpus, "MEM", "2ms", "6ms")).expect("holder admitted");
    assert_eq!(daemon.stats().uncore_locks_held, 1);

    // Two more uncore sessions on the same socket queue behind it, in
    // arrival order; their `open` blocks, so each runs on its own thread.
    let order = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let spawn_waiter = |tag: &'static str| {
            let daemon = &daemon;
            let order = &order;
            let cpus = cpus.clone();
            scope.spawn(move || {
                let req = request(&cpus, "MEM", "2ms", "6ms");
                let mut handle = daemon.open(&req).expect("waiter admitted");
                order.lock().unwrap().push(tag);
                while handle.next_interval().expect("interval").is_some() {}
                handle.finish().expect("finish");
            })
        };
        spawn_waiter("first");
        wait_for(|| daemon.stats().uncore_waiters == 1, "first waiter queued");
        spawn_waiter("second");
        wait_for(|| daemon.stats().uncore_waiters == 2, "second waiter queued");

        // While the lock is held neither waiter is admitted.
        while holder.next_interval().expect("interval").is_some() {}
        assert!(order.lock().unwrap().is_empty(), "waiters blocked while the lock is held");
        holder.finish().expect("finish");
    });
    assert_eq!(*order.lock().unwrap(), vec!["first", "second"], "FIFO grant order");
    assert!(daemon.is_quiescent());
    assert_eq!(daemon.stats().finished, 3);
}

#[test]
fn disjoint_socket_uncore_sessions_overlap() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);

    // Both admissions succeed immediately — no cross-socket serialization.
    let h0 = daemon
        .open(&request(&socket_cpus(&machine, 0, 2), "MEM", "2ms", "6ms"))
        .expect("socket 0 session");
    let h1 = daemon
        .open(&request(&socket_cpus(&machine, 1, 2), "MEM", "2ms", "6ms"))
        .expect("socket 1 session");
    let stats = daemon.stats();
    assert_eq!(stats.uncore_locks_held, 2, "one lock per socket, held concurrently");
    assert_eq!(stats.uncore_waiters, 0);
    assert_eq!(stats.live, 2);

    // They interleave interval-by-interval without ever waiting on each
    // other (disjoint cpu sets: a single thread can alternate freely).
    let mut handles = [h0, h1];
    loop {
        let mut progressed = false;
        for handle in &mut handles {
            if handle.next_interval().expect("interval").is_some() {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for handle in handles {
        let (done, result) = handle.finish().expect("finish");
        // Disjoint cpu sets: never time-sliced, coverage scale is exactly 1.
        assert_eq!(done.time_scale, 1.0);
        assert_eq!(result.aggregate, result.extrapolated);
    }
    assert!(daemon.is_quiescent());
}

#[test]
fn dropped_handle_releases_locks_and_slots() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);
    let cpus = socket_cpus(&machine, 0, 2);

    let mut handle = daemon.open(&request(&cpus, "MEM", "2ms", "6ms")).expect("admitted");
    handle.next_interval().expect("one interval");
    assert_eq!(daemon.stats().uncore_locks_held, 1);
    drop(handle);

    assert!(daemon.is_quiescent(), "dropping the handle releases the lock and slot");
    let stats = daemon.stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.finished, 0);

    // The lock is immediately grantable again.
    run_to_completion(&daemon, &request(&cpus, "MEM", "2ms", "6ms"));
    assert_eq!(daemon.stats().finished, 1);
}

#[test]
fn hundred_connect_abandon_cycles_leak_nothing() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);
    let uncore_cpus = socket_cpus(&machine, 0, 1);

    for i in 0..100 {
        // Alternate core-only and uncore sessions; abandon at different
        // stages of their lifecycle.
        let req = if i % 2 == 0 {
            request("0,1", "FLOPS_DP", "2ms", "6ms")
        } else {
            request(&uncore_cpus, "MEM", "2ms", "6ms")
        };
        let mut handle = daemon.open(&req).expect("admitted");
        for _ in 0..(i % 3) {
            handle.next_interval().expect("interval");
        }
        drop(handle);
    }
    assert!(daemon.is_quiescent(), "100 abandoned sessions must leak no slot or lock");
    let stats = daemon.stats();
    assert_eq!(stats.opened, 100);
    assert_eq!(stats.aborted, 100);
    assert_eq!(stats.uncore_locks_held, 0);
    assert_eq!(stats.uncore_waiters, 0);

    // And the broker still works.
    assert_eq!(run_to_completion(&daemon, &request(&uncore_cpus, "MEM", "2ms", "6ms")), 3);
}

#[test]
fn shared_cpu_sessions_time_slice_with_coverage_extrapolation() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);

    // Two core-only sessions on the same cpu: the broker's tickets force
    // strict alternation, so each session measures half the combined wall
    // time. Each session is driven by its own thread (as each connection
    // handler would); the tickets alone determine the schedule. Session
    // b's admission (programming its counters takes a turn) waits for a's
    // first ticket renewal, so b is opened on its own thread too; its slot
    // exists — and accrues foreign wall time — as soon as `open` is
    // called, which the `live == 2` wait below pins down before a runs.
    let mut a = daemon.open(&request("0", "FLOPS_DP", "2ms", "6ms")).expect("a admitted");
    let (done_a, result_a, done_b, result_b) = std::thread::scope(|scope| {
        let driver_b = scope.spawn(|| {
            let mut b = daemon.open(&request("0", "FLOPS_DP", "2ms", "6ms")).expect("b admitted");
            while b.next_interval().expect("b interval").is_some() {}
            b.finish().expect("b finish")
        });
        wait_for(|| daemon.stats().live == 2, "b's slot admitted");
        while a.next_interval().expect("a interval").is_some() {}
        let (done_a, result_a) = a.finish().expect("a finish");
        let (done_b, result_b) = driver_b.join().expect("driver b");
        (done_a, result_a, done_b, result_b)
    });

    // The ticket order is deterministic: a1, b-admission, a2, b1, a3
    // (a parks), b2, b3. b is charged all three of a's intervals — 6 ms
    // foreign over 6 ms measured; the boundary walks are identical, so
    // the ratio is exactly 2. a is charged b1 only (it parks before b2).
    assert_eq!(done_b.time_scale, 2.0);
    assert!((done_a.time_scale - (1.0 + 2.0 / 6.0)).abs() < 1e-12, "{}", done_a.time_scale);

    // Extrapolated counts are the raw aggregates scaled by the coverage
    // ratio (rounded per counter).
    for (result, scale) in [(&result_b, done_b.time_scale), (&result_a, done_a.time_scale)] {
        for (agg, extra) in result.aggregate.iter().zip(&result.extrapolated) {
            for (per_cpu_raw, per_cpu_scaled) in agg.iter().zip(extra) {
                for (&raw, &scaled) in per_cpu_raw.iter().zip(per_cpu_scaled) {
                    assert_eq!(scaled, (raw as f64 * scale).round() as u64);
                }
            }
        }
    }
    assert!(daemon.is_quiescent());
}

#[test]
fn concurrent_disjoint_core_sessions_never_wait() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);

    // Eight sessions on eight distinct cpus, all driven concurrently; none
    // shares a cpu, so every next_interval proceeds without a turn wait
    // and every coverage scale is exactly 1. The barrier holds every
    // session open until all eight are admitted.
    let completed = AtomicUsize::new(0);
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for cpu in 0..8 {
            let daemon = &daemon;
            let completed = &completed;
            let barrier = &barrier;
            scope.spawn(move || {
                let req = request(&cpu.to_string(), "FLOPS_DP", "1ms", "5ms");
                let mut handle = daemon.open(&req).expect("admitted");
                barrier.wait();
                while handle.next_interval().expect("interval").is_some() {}
                let (done, _) = handle.finish().expect("finish");
                assert_eq!(done.time_scale, 1.0, "disjoint sessions are never sliced");
                completed.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(completed.load(Ordering::SeqCst), 8);
    assert_eq!(daemon.stats().peak_live, 8, "all eight sessions were live at once");
    assert!(daemon.is_quiescent());
}

#[test]
fn status_snapshots_sessions_queues_and_uncore_without_blocking() {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let daemon = Daemon::new(&machine);
    assert_eq!(daemon.status(), DaemonStatus::default(), "idle broker, empty snapshot");

    let cpus = socket_cpus(&machine, 0, 2);
    let holder = daemon.open(&request(&cpus, "MEM", "2ms", "6ms")).expect("holder admitted");
    let core = daemon.open(&request("12", "FLOPS_DP", "2ms", "6ms")).expect("core admitted");

    std::thread::scope(|scope| {
        // A second uncore session on the same socket queues behind the
        // holder; its `open` blocks on the lock, so it runs on its own
        // thread while the main thread inspects the snapshot.
        scope.spawn(|| {
            drop(daemon.open(&request(&cpus, "MEM", "2ms", "6ms")).expect("waiter admitted"));
        });
        wait_for(|| daemon.stats().uncore_waiters == 1, "waiter queued");

        // status() takes only the state mutex: it answers while the
        // holder's turn is live and the waiter is parked in arbitration.
        let status = daemon.status();
        assert_eq!(status.sessions.len(), 3);
        assert!(status.sessions.windows(2).all(|w| w[0].id < w[1].id), "id-ordered");
        let phases: Vec<&str> = status.sessions.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(phases.iter().filter(|p| **p == "waiting-uncore").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "running").count(), 2);
        for session in &status.sessions {
            assert_eq!(session.ticket.is_some(), session.phase == "running");
        }

        // Ticket-queue depth covers exactly the running sessions' cpus.
        let holder_cpus: Vec<usize> = cpus.split(',').map(|c| c.parse().unwrap()).collect();
        let mut expected: Vec<(usize, usize)> =
            holder_cpus.iter().map(|&c| (c, 1)).chain([(12, 1)]).collect();
        expected.sort_unstable();
        assert_eq!(status.queue_depth, expected);

        // Socket 0's lock: held by the first session, one queued waiter.
        assert_eq!(status.uncore.len(), 1);
        let uncore = &status.uncore[0];
        assert_eq!(uncore.socket, 0);
        assert_eq!(uncore.holder, Some(status.sessions[0].id));
        assert_eq!(uncore.waiters.len(), 1);

        // Release everything so the waiter's open() can be granted.
        drop(holder);
        drop(core);
    });
    assert!(daemon.is_quiescent());
    assert_eq!(daemon.status(), DaemonStatus::default(), "quiescent broker, empty snapshot");
}

/// Drive a session to completion through the stream accumulator, which
/// checks the frame order; returns the verified stream's `done` frame.
fn stream_to_completion(daemon: &Daemon<'_>, request: &OpenRequest) -> DoneFrame {
    let mut handle = daemon.open(request).expect("session admitted");
    let mut stream = StreamAccumulator::new(handle.opened().clone());
    while let Some(frame) = handle.next_interval().expect("interval, not an error") {
        stream.push(frame).expect("in-order frame");
    }
    let (done, _result) = handle.finish().expect("finish");
    stream.complete(done.clone()).expect("done matches the stream");
    stream.verify_telescoping().expect("interval deltas telescope to the aggregate");
    done
}

#[test]
fn time_sliced_streams_telescope_on_faulty_msrs() {
    for plan in ["seed=99,read=0.8x6,write=0.8x6,dirty", "stuck=0x186@0"] {
        let machine = SimMachine::new(MachinePreset::WestmereEp2S);
        machine.inject_faults(FaultPlan::parse(plan).expect("valid plan"));
        let daemon = Daemon::new(&machine);
        // A multiplexed uncore session and a core-only one, time-sliced
        // on the shared cpus 2 and 3; each holds PMC0 on its cpus.
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                stream_to_completion(&daemon, &request("0-3", "FLOPS_DP,MEM", "1ms", "8ms"))
            });
            let b = scope
                .spawn(|| stream_to_completion(&daemon, &request("2-5", "FLOPS_DP", "1ms", "8ms")));
            (a.join().expect("session a"), b.join().expect("session b"))
        });
        let diagnostics: Vec<&Diagnostic> =
            [&a, &b].iter().flat_map(|done| &done.results).flat_map(|r| &r.diagnostics).collect();
        if plan.starts_with("stuck") {
            // cpu 0's PERFEVTSEL0 never takes a write: a diagnostic, not
            // an error frame, and only session a measures cpu 0.
            assert!(
                diagnostics
                    .iter()
                    .any(|d| d.subject.starts_with("PMC0") && d.subject.ends_with("on cpu 0")),
                "{plan}: {diagnostics:?}"
            );
            assert!(b.results.iter().all(|r| r.diagnostics.is_empty()), "{plan}: {b:?}");
        } else {
            // Transient faults are retried away without a trace.
            assert!(diagnostics.is_empty(), "{plan}: {diagnostics:?}");
        }
        assert!(daemon.is_quiescent(), "{plan}");
    }
}

/// The NDJSON frames of one in-process session on `westmere-ep-2s` under
/// seeded transient faults, dirty registers and a cpu whose MSR device
/// dies partway through the stream: after 1000 device accesses, in the
/// eleventh of twenty intervals.
fn faulty_session_lines() -> String {
    let plan = "seed=99,read=0.8x6,write=0.8x6,dirty,dead=2@1000";
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    machine.inject_faults(FaultPlan::parse(plan).expect("valid plan"));
    let daemon = Daemon::new(&machine);
    let mut handle =
        daemon.open(&request("0-3", "FLOPS_DP,MEM", "500us", "10ms")).expect("session admitted");
    let mut lines = Frame::Opened(handle.opened().clone()).to_line();
    while let Some(frame) = handle.next_interval().expect("interval, not an error") {
        lines.push_str(&Frame::Interval(frame).to_line());
    }
    let (done, _result) = handle.finish().expect("finish");
    lines.push_str(&Frame::Done(done).to_line());
    assert!(daemon.is_quiescent());
    lines
}

#[test]
fn a_cpu_dying_mid_stream_reproduces_the_fault_golden() {
    // Fault plans count device accesses: which registers are touched, in
    // which order, decides every transient fault and the moment cpu 2
    // dies. Any change to that sequence changes these bytes.
    let lines = faulty_session_lines();
    assert_eq!(lines, include_str!("golden/daemon_faults_westmere-ep-2s.ndjson"));
    assert!(lines.contains("\"cpu 2\""), "cpu 2 dies within the session");
}
