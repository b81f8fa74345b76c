//! End-to-end socket round trip: a real `likwid-perfctrd` server on a Unix
//! socket, driven by [`SocketClient`] — session streaming, ping/pong,
//! error frames for bad requests, and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use likwid::LikwidError;
use likwid_daemon::jsonv::{obj, JsonValue};
use likwid_daemon::{Frame, OpenRequest, SocketClient};
use likwid_x86_machine::{MachinePreset, SimMachine};

fn socket_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("likwid-perfctrd-test-{tag}-{}.sock", std::process::id()));
    path
}

fn request(cpus: &str, group: &str) -> OpenRequest {
    OpenRequest {
        machine: None,
        cpus: cpus.to_string(),
        group: group.to_string(),
        interval: "2ms".to_string(),
        duration: "6ms".to_string(),
    }
}

/// Run `body` against a live server, then shut the server down. A panic
/// in `body` still stops the server (via the shutdown flag) before the
/// scope joins it, so a failed assertion fails the test instead of
/// deadlocking the join.
fn with_server(tag: &str, body: impl FnOnce(&std::path::Path)) {
    let machine = SimMachine::new(MachinePreset::WestmereEp2S);
    let path = socket_path(tag);
    let shutdown = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        let server = {
            let machine = &machine;
            let path = path.clone();
            let shutdown = &shutdown;
            scope.spawn(move || likwid_daemon::server::serve(machine, &path, shutdown))
        };
        // Wait for the socket to appear.
        for _ in 0..2000 {
            if path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&path)));
        if outcome.is_ok() && !shutdown.load(Ordering::SeqCst) {
            let (mut client, _) = SocketClient::connect(&path).expect("shutdown connect");
            client.send(&obj(vec![("cmd", JsonValue::Str("shutdown".into()))])).expect("send");
            assert!(matches!(client.next_frame().expect("ok frame"), Frame::Ok));
        } else {
            shutdown.store(true, Ordering::SeqCst);
        }
        server.join().expect("server thread").expect("server exits cleanly");
        outcome
    });
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
    assert!(!path.exists(), "server removes its socket file on exit");
}

#[test]
fn hello_ping_session_and_shutdown() {
    with_server("roundtrip", |path| {
        let (mut client, hello) = SocketClient::connect(path).expect("connect");
        match hello {
            Frame::Hello { server, protocol, machine } => {
                assert_eq!(server, "likwid-perfctrd");
                assert_eq!(protocol, 1);
                assert_eq!(machine, MachinePreset::WestmereEp2S.id());
            }
            other => panic!("expected hello, got {other:?}"),
        }

        client.send(&obj(vec![("cmd", JsonValue::Str("ping".into()))])).expect("send ping");
        assert!(matches!(client.next_frame().expect("pong"), Frame::Pong));

        let mut frames = Vec::new();
        let accumulator = client
            .run_session(&request("0,1", "FLOPS_DP"), |frame| {
                frames.push(format!("{frame:?}").split('(').next().unwrap().to_string());
            })
            .expect("session runs");
        assert_eq!(accumulator.intervals().len(), 3);
        accumulator.verify_telescoping().expect("deltas telescope to the aggregate");
        let result = accumulator.result().expect("result");
        assert_eq!(result.cpus, vec![0, 1]);
        assert_eq!(result.intervals.len(), 3);
        // The callback saw the full live stream, in order.
        assert_eq!(frames.first().map(String::as_str), Some("Opened"));
        assert_eq!(frames.last().map(String::as_str), Some("Done"));
        assert_eq!(frames.iter().filter(|f| f.as_str() == "Interval").count(), 3);

        // The connection survives a completed session: run another.
        let accumulator = client.run_session(&request("2", "MEM"), |_| {}).expect("uncore runs");
        accumulator.verify_telescoping().expect("uncore deltas telescope");
    });
}

#[test]
fn bad_requests_get_typed_error_frames_and_the_connection_survives() {
    with_server("badreq", |path| {
        let (mut client, _hello) = SocketClient::connect(path).expect("connect");

        let err = client.run_session(&request("0", "NO_SUCH_GROUP"), |_| {}).unwrap_err();
        match err {
            LikwidError::Protocol(msg) => assert!(msg.contains("group"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }

        // Malformed JSON gets an error frame, not a dropped connection.
        client.send(&JsonValue::Str("not an object".into())).expect("send");
        match client.next_frame().expect("error frame") {
            Frame::Error { kind, .. } => assert_eq!(kind, "protocol"),
            other => panic!("expected error frame, got {other:?}"),
        }

        // Unknown commands too.
        client.send(&obj(vec![("cmd", JsonValue::Str("dance".into()))])).expect("send");
        match client.next_frame().expect("error frame") {
            Frame::Error { kind, message } => {
                assert_eq!(kind, "protocol");
                assert!(message.contains("dance"), "{message}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }

        // After all that abuse the connection still serves a session.
        let accumulator = client.run_session(&request("0", "FLOPS_DP"), |_| {}).expect("runs");
        assert_eq!(accumulator.intervals().len(), 3);
    });
}

#[test]
fn deeply_nested_line_gets_an_error_frame_and_the_connection_survives() {
    with_server("deep", |path| {
        // A raw stream: `SocketClient::send` encodes a `JsonValue`, and this
        // line is deliberately too deep to build as one.
        let stream = UnixStream::connect(path).expect("connect");
        let mut writer = stream.try_clone().expect("clone socket");
        let mut reader = BufReader::new(stream);
        let mut next_frame = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read frame");
            Frame::from_line(&line).expect("well-formed frame")
        };
        assert!(matches!(next_frame(), Frame::Hello { .. }));

        let deep = "[".repeat(100_000) + "\n";
        writer.write_all(deep.as_bytes()).expect("send deep line");
        match next_frame() {
            Frame::Error { kind, message } => {
                assert_eq!(kind, "protocol");
                assert!(message.contains("nesting"), "{message}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }

        writer.write_all(b"{\"cmd\":\"status\"}\n").expect("send status");
        assert!(matches!(next_frame(), Frame::Status(_)));
    });
}

#[test]
fn concurrent_clients_core_and_uncore() {
    with_server("concurrent", |path| {
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for i in 0..6 {
                workers.push(scope.spawn(move || {
                    let (mut client, _hello) = SocketClient::connect(path).expect("connect");
                    // Disjoint cpus; sessions 0/3 take socket-0 uncore
                    // locks and serialize, the rest run core-only.
                    let group = if i % 3 == 0 { "MEM" } else { "FLOPS_DP" };
                    let accumulator = client
                        .run_session(&request(&i.to_string(), group), |_| {})
                        .expect("session runs");
                    accumulator.verify_telescoping().expect("telescoping");
                    accumulator.result().expect("result").intervals.len()
                }));
            }
            for worker in workers {
                assert_eq!(worker.join().expect("worker"), 3);
            }
        });
    });
}

#[test]
fn dropped_connection_mid_stream_frees_the_daemon() {
    with_server("drop", |path| {
        // Open a session and vanish after the first frame: the server-side
        // write eventually fails and the handle drop releases the slot.
        {
            let (mut client, _hello) = SocketClient::connect(path).expect("connect");
            client.send(&request("0,1", "MEM").to_json()).expect("send open");
            let frame = client.next_frame().expect("opened");
            assert!(matches!(frame, Frame::Opened(_)));
            // Drop the client here, mid-stream.
        }
        // A new client can immediately take the same uncore locks — the
        // abandoned session cannot hold them for long.
        let (mut client, _hello) = SocketClient::connect(path).expect("connect");
        let accumulator =
            client.run_session(&request("0,1", "MEM"), |_| {}).expect("locks were released");
        assert_eq!(accumulator.intervals().len(), 3);
    });
}
