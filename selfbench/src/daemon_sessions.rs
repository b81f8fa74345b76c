//! `daemon_sessions`: live measurement sessions through the daemon socket.
//!
//! `likwid_daemon::server::serve` runs in-process on a Unix socket in a
//! scratch directory, on a simulated Nehalem EP node. Two `SocketClient`
//! connections drive it in a closed loop, each opening its next session
//! as soon as the previous one is done. A round is three sessions per
//! client of 1,000 intervals of 100 µs each:
//!
//! * client A: `-c 0-3 -g MEM` three times, taking socket 0's uncore lock;
//! * client B: `-c 2-5 -g FLOPS_DP,MEM` twice and `-c 2-5 -g FLOPS_DP`
//!   once, in an order drawn from the seed. The multiplexed sessions need
//!   both sockets' uncore locks, so they queue behind A; the core-only one
//!   runs beside A on the shared cpus 2 and 3, where turn tickets
//!   time-slice the two.
//!
//! An operation is one interval frame received by a client; its latency
//! is the gap since that client's previous frame (or since the round
//! started). No cache simulation runs: the time goes to the MSR layer, the
//! counter sessions, broker arbitration, the NDJSON protocol and the
//! client's reconstruction.
//!
//! Every frame passes from a connection handler to its client thread, and
//! the broker hands interval windows from one handler to the other. Under
//! the default scheduling policy a woken thread preempts the one that woke
//! it: on a two-cpu virtual machine that made about 3.4 context switches
//! per frame, and rounds ran at about 0.45 s or 0.8 s in spells of tens of
//! seconds, depending on how the switches fell. The run therefore holds
//! all its threads on one host cpu under `SCHED_BATCH`, where a woken
//! thread waits until the running one blocks: about 0.75 switches per
//! frame, and no such spells. Frames then reach a client in bursts, so
//! the median frame gap is the client's own cost per frame and the tail
//! is its wait while the handlers run. Rounds still vary by a third within
//! a run, so `wall_s` is the median round: the fastest one is a single
//! draw and moved more from run to run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use likwid::perfctr::timeline::run_demo_timeline;
use likwid::perfctr::{parse_interval, parse_measurement_spec, PerfCtrConfig};
use likwid::report::{Ascii, Render};
use likwid_affinity::{host, CpuSet};
use likwid_daemon::server::serve;
use likwid_daemon::{Frame, OpenRequest, SocketClient};
use likwid_x86_machine::{MachinePreset, SimMachine};

use crate::harness::{self, timed, Args, Outcome, ScratchDir, SplitMix, Timings};
use crate::heap;
use crate::layers;
use crate::stats::Tally;

/// The simulated node the daemon serves.
pub const PRESET: MachinePreset = MachinePreset::NehalemEp2S;
const INTERVAL: &str = "100us";
const DURATION: &str = "100ms";

/// One kind of session: its cpu list and event group spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// `-c` list.
    pub cpus: &'static str,
    /// `-g` spelling.
    pub group: &'static str,
}

/// Client A's session: socket 0's uncore.
pub const A_MEM: Kind = Kind { cpus: "0-3", group: "MEM" };
/// Client B's multiplexed session: both sockets' uncore.
pub const B_MUX: Kind = Kind { cpus: "2-5", group: "FLOPS_DP,MEM" };
/// Client B's core-only session, time-sliced against A on cpus 2 and 3.
pub const B_CORE: Kind = Kind { cpus: "2-5", group: "FLOPS_DP" };
/// Client A's sessions of one round.
pub const A_ROUND: [Kind; 3] = [A_MEM, A_MEM, A_MEM];
/// Client B's sessions of one round, before the seeded shuffle.
pub const B_ROUND: [Kind; 3] = [B_MUX, B_MUX, B_CORE];

/// The `open` request of one session.
pub fn request(kind: Kind, interval: &str, duration: &str) -> OpenRequest {
    OpenRequest {
        machine: None,
        cpus: kind.cpus.to_string(),
        group: kind.group.to_string(),
        interval: interval.to_string(),
        duration: duration.to_string(),
    }
}

/// What one client saw in one round.
#[derive(Debug, Default)]
struct ClientRound {
    gaps: Vec<f64>,
    tally: Tally,
    violations: Vec<String>,
}

/// Run `kinds` back to back on one connection.
fn client_round(client: &mut SocketClient, kinds: &[Kind]) -> ClientRound {
    let mut round = ClientRound::default();
    let mut last = Instant::now();
    for &kind in kinds {
        let streamed = client.run_session(&request(kind, INTERVAL, DURATION), |frame| {
            if let Frame::Interval(_) = frame {
                let now = Instant::now();
                round.gaps.push((now - last).as_secs_f64());
                last = now;
            }
        });
        match streamed {
            Ok(stream) => {
                for _ in stream.intervals() {
                    round.tally.record(true);
                }
                if let Err(e) = stream.verify_telescoping() {
                    round.violations.push(format!("{} -g {}: {e}", kind.cpus, kind.group));
                }
            }
            Err(e) => {
                // An error frame or an aborted stream: one failed operation.
                eprintln!("daemon_sessions: {} -g {}: {e}", kind.cpus, kind.group);
                round.tally.record(false);
            }
        }
    }
    round
}

/// One round of both clients in parallel. Returns the round's wall time.
fn round(
    a: &mut SocketClient,
    b: &mut SocketClient,
    rng: &mut SplitMix,
    out: &mut Outcome,
    gaps: &mut Vec<f64>,
) -> Result<f64, String> {
    let mut b_order = B_ROUND;
    rng.shuffle(&mut b_order);
    let ((ra, rb), wall) = timed(|| {
        std::thread::scope(|scope| {
            let ha = scope.spawn(|| client_round(a, &A_ROUND));
            let hb = scope.spawn(|| client_round(b, &b_order));
            (ha.join(), hb.join())
        })
    });
    for result in [ra, rb] {
        let result = result.map_err(|_| "a client thread panicked".to_string())?;
        gaps.extend(result.gaps);
        out.tally.merge(result.tally);
        for violation in result.violations {
            out.gate(false, || violation);
        }
    }
    Ok(wall)
}

/// Sets the server's shutdown flag when dropped, so every exit path of a
/// run (errors included) lets the scoped server thread finish.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn connect(path: &Path) -> Result<SocketClient, String> {
    SocketClient::connect(path).map(|(client, _hello)| client).map_err(|e| e.to_string())
}

/// Set-up: bind the socket, start the server thread, wait for the first
/// `hello`. Returns the server thread, the connected client and the
/// socket path.
fn start<'scope>(
    scope: &'scope Scope<'scope, '_>,
    machine: &'scope SimMachine,
    dir: &Path,
    shutdown: &'scope AtomicBool,
) -> Result<(ScopedJoinHandle<'scope, likwid::Result<()>>, SocketClient, PathBuf), String> {
    let path = dir.join("perfctrd.sock");
    let server = {
        let path = path.clone();
        scope.spawn(move || serve(machine, &path, shutdown))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !path.exists() {
        if server.is_finished() || Instant::now() > deadline {
            return Err(format!("the daemon did not bind {}", path.display()));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok((server, connect(&path)?, path))
}

fn join(server: ScopedJoinHandle<'_, likwid::Result<()>>) -> Result<(), String> {
    match server.join() {
        Ok(result) => result.map_err(|e| format!("daemon: {e}")),
        Err(_) => Err("the daemon thread panicked".to_string()),
    }
}

/// A solo client-A session must rebuild exactly what a local
/// `run_demo_timeline` with the same arguments produces.
fn check_solo(client: &mut SocketClient, out: &mut Outcome) -> Result<(), String> {
    let stream = client
        .run_session(&request(A_MEM, INTERVAL, DURATION), |_| {})
        .map_err(|e| format!("solo session: {e}"))?;
    let streamed = stream.result().map_err(|e| format!("solo rebuild: {e}"))?;
    let machine = SimMachine::new(PRESET);
    let table = likwid_perf_events::tables::for_arch(PRESET.arch());
    let spec = parse_measurement_spec(A_MEM.group, &table).map_err(|e| e.to_string())?;
    let config = PerfCtrConfig { cpus: vec![0, 1, 2, 3], spec };
    let interval = parse_interval(INTERVAL).map_err(|e| e.to_string())?;
    let duration = parse_interval(DURATION).map_err(|e| e.to_string())?;
    let local =
        run_demo_timeline(&machine, config, interval, duration).map_err(|e| e.to_string())?;
    out.gate(
        Ascii.render(&streamed.report()) == Ascii.render(&local.report())
            && streamed.aggregate == local.aggregate
            && streamed.extrapolated == local.extrapolated,
        || "a solo daemon session differs from the local run_demo_timeline".to_string(),
    );
    Ok(())
}

/// Bind the calling thread, and so every thread it starts later, to the
/// highest-numbered host cpu it may run on. Returns that cpu, or `None`
/// when the host does not allow it.
fn pin_to_one_cpu() -> Option<usize> {
    let cpu = host::get_current_thread_affinity()?.iter().max()?;
    host::set_current_thread_affinity(&CpuSet::from_iter([cpu])).then_some(cpu)
}

/// Put the calling thread, and so every thread it starts later, under
/// `SCHED_BATCH`, which needs no privilege. Returns whether the host
/// allowed it.
fn batch_policy() -> bool {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_BATCH: i32 = 3;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: pid 0 names the calling thread, and `param` is a live
        // `struct sched_param` for the whole call.
        unsafe { sched_setscheduler(0, SCHED_BATCH, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    // The sessions run from a thread of their own, so that its cpu and
    // policy pass to the daemon's and the clients' threads but not to the
    // per-layer probes, which time parallel replays.
    let measured = std::thread::scope(|scope| scope.spawn(|| measure(args)).join());
    let (mut out, t) = measured.map_err(|_| "the measuring thread panicked".to_string())??;
    if args.trace {
        layers::probe(&mut out)?;
    } else {
        out.metrics = harness::end_to_end(&t)?;
    }
    Ok(out)
}

/// Settle the calling thread, then set up, warm up and measure.
fn measure(args: &Args) -> Result<(Outcome, Timings), String> {
    match (pin_to_one_cpu(), batch_policy()) {
        (Some(cpu), true) => eprintln!("daemon_sessions: every thread on host cpu {cpu}, batch"),
        (cpu, batch) => eprintln!(
            "daemon_sessions: running as the host allows: cpu {cpu:?}, batch policy {batch}"
        ),
    }
    let machine = SimMachine::new(PRESET);
    let mut out = Outcome::default();
    let mut t = Timings::default();
    for _ in 1..harness::SETUP_REPS {
        let dir = ScratchDir::new("daemon")?;
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = StopOnDrop(&shutdown);
            let (started, dt) = timed(|| start(scope, &machine, dir.path(), &shutdown));
            t.setup_s.push(dt);
            let (server, client, _) = started?;
            drop((client, stop));
            join(server)
        })?;
    }

    let dir = ScratchDir::new("daemon")?;
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| -> Result<(), String> {
        let stop = StopOnDrop(&shutdown);
        let (started, dt) = timed(|| start(scope, &machine, dir.path(), &shutdown));
        t.setup_s.push(dt);
        let (server, mut a, path) = started?;
        let mut b = connect(&path)?;
        let mut rng = SplitMix::new(args.seed, 3);
        // Warm-up round, discarded.
        round(&mut a, &mut b, &mut rng, &mut out, &mut Vec::new())?;
        t.peak_heap_mb = heap::final_peak_mb();

        if args.trace {
            drop((a, b));
            // Fresh connections per pass: a connection's handler thread
            // hands its trace buffer over only when the connection ends,
            // and the pause lets both handlers end before the recorder
            // stops.
            let overhead = harness::trace_overhead(args.seconds / 2.0, || {
                let (mut a, mut b) = (connect(&path)?, connect(&path)?);
                let wall = round(&mut a, &mut b, &mut rng, &mut out, &mut Vec::new())?;
                drop((a, b));
                std::thread::sleep(Duration::from_millis(50));
                Ok(wall)
            })?;
            out.metrics = overhead;
            check_solo(&mut connect(&path)?, &mut out)?;
        } else {
            t.min_ops = 3 * (A_ROUND.len() + B_ROUND.len()) * 1000;
            t.pass_s = harness::pass_loop(args.seconds, 3, || {
                round(&mut a, &mut b, &mut rng, &mut out, &mut t.op_latency_s)
            })?;
            t.ops = t.op_latency_s.len() as u64;
            t.latency_sample = "frame gaps".to_string();
            drop(b);
            check_solo(&mut a, &mut out)?;
            drop(a);
        }
        drop(stop);
        join(server)
    })?;
    Ok((out, t))
}
