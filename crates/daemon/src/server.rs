//! The Unix-domain-socket front end of `likwid-perfctrd`.
//!
//! One listener thread accepts connections; each connection gets a scoped
//! handler thread speaking the NDJSON protocol of [`crate::protocol`]. A
//! handler greets with `hello`, then serves commands: `open` admits a
//! measurement session through the broker and streams its interval frames
//! until `done`; `status` answers with the broker's observability snapshot
//! (never blocking a measurement turn); `ping` answers `pong`; `shutdown`
//! stops the daemon. Any
//! write failure (the client vanished) aborts the in-flight session, which
//! releases its broker slot and uncore locks.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use likwid::Result;
use likwid_x86_machine::SimMachine;

use crate::broker::Daemon;
use crate::protocol::{Frame, OpenRequest, PROTOCOL_VERSION, SERVER_NAME};
use likwid::json::JsonValue;

/// Accept-loop poll interval while checking the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Serve the daemon protocol on a Unix socket until `shutdown` becomes
/// true (a client's `shutdown` command sets it). Removes a stale socket
/// file first; the socket file is removed again on exit.
pub fn serve(machine: &SimMachine, socket_path: &Path, shutdown: &AtomicBool) -> Result<()> {
    // Bind under a temporary name and rename into place once listening:
    // clients poll for the socket file, and between bind(2) and listen(2)
    // a connect would be refused. The rename is atomic, so the advertised
    // path only ever names a socket that is already accepting.
    let bind_path = {
        let mut name = socket_path.as_os_str().to_os_string();
        name.push(".bind");
        std::path::PathBuf::from(name)
    };
    let _ = std::fs::remove_file(&bind_path);
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(&bind_path).map_err(|e| {
        likwid::LikwidError::Protocol(format!("bind {}: {e}", socket_path.display()))
    })?;
    std::fs::rename(&bind_path, socket_path).map_err(|e| {
        likwid::LikwidError::Protocol(format!("rename {}: {e}", socket_path.display()))
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| likwid::LikwidError::Protocol(format!("nonblocking: {e}")))?;

    let daemon = Daemon::new(machine);
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let daemon = &daemon;
                    scope.spawn(move || {
                        handle_connection(daemon, stream, shutdown);
                        // The scope unblocks on closure return, before the
                        // thread-local trace buffer's exit-time flush —
                        // hand broker spans over explicitly.
                        likwid::trace::flush_thread();
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // The scope joins the remaining handlers; wake any that poll.
    });
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Serve one connection. Errors answering a request become `error` frames;
/// errors writing to the socket end the connection (and abort any
/// in-flight session via the handle's drop).
fn handle_connection(daemon: &Daemon<'_>, stream: UnixStream, shutdown: &AtomicBool) {
    // A finite read timeout lets an idle handler notice a daemon shutdown
    // instead of blocking the scope join forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    let hello = Frame::Hello {
        server: SERVER_NAME.to_string(),
        protocol: PROTOCOL_VERSION,
        machine: daemon.machine().preset().id().to_string(),
    };
    if writer.write_all(hello.to_line().as_bytes()).is_err() {
        return;
    }

    let mut line = String::new();
    loop {
        // On timeout, read_line may have consumed a partial line into the
        // buffer — keep it and retry; clear only after processing.
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let text = std::mem::take(&mut line);
        if text.trim().is_empty() {
            continue;
        }
        let command = match JsonValue::parse(text.trim()) {
            Ok(value) => value,
            Err(e) => {
                let frame = Frame::Error {
                    kind: "protocol".to_string(),
                    message: format!("malformed command: {e}"),
                };
                if writer.write_all(frame.to_line().as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        match command.get("cmd").and_then(JsonValue::as_str) {
            Some("open") => {
                if !serve_session(daemon, &command, &mut writer) {
                    return;
                }
            }
            Some("ping") => {
                if writer.write_all(Frame::Pong.to_line().as_bytes()).is_err() {
                    return;
                }
            }
            Some("status") => {
                // Answered from the broker's state mutex alone: the snapshot
                // never waits on a measurement turn, so a monitoring client
                // can poll while sessions stream.
                let frame = Frame::Status(daemon.status());
                if writer.write_all(frame.to_line().as_bytes()).is_err() {
                    return;
                }
            }
            Some("shutdown") => {
                shutdown.store(true, Ordering::SeqCst);
                let _ = writer.write_all(Frame::Ok.to_line().as_bytes());
                return;
            }
            other => {
                let frame = Frame::Error {
                    kind: "protocol".to_string(),
                    message: match other {
                        Some(cmd) => format!("unknown command '{cmd}'"),
                        None => "missing 'cmd'".to_string(),
                    },
                };
                if writer.write_all(frame.to_line().as_bytes()).is_err() {
                    return;
                }
            }
        }
    }
}

/// Admit and stream one session. Returns false when the connection died
/// (the caller stops serving it); request errors are answered with an
/// `error` frame and return true — the broker and the connection stay
/// healthy.
fn serve_session(daemon: &Daemon<'_>, command: &JsonValue, writer: &mut UnixStream) -> bool {
    let outcome = (|| -> Result<()> {
        let request = OpenRequest::from_json(command)?;
        let mut handle = daemon.open(&request)?;
        let opened = Frame::Opened(handle.opened().clone());
        if writer.write_all(opened.to_line().as_bytes()).is_err() {
            return Ok(()); // connection gone; handle drop aborts the session
        }
        while let Some(interval) = handle.next_interval()? {
            let frame = Frame::Interval(interval);
            if writer.write_all(frame.to_line().as_bytes()).is_err() {
                return Ok(());
            }
        }
        let (done, _result) = handle.finish()?;
        let _ = writer.write_all(Frame::Done(done).to_line().as_bytes());
        Ok(())
    })();
    if let Err(e) = outcome {
        let frame = Frame::from_error(&e);
        return writer.write_all(frame.to_line().as_bytes()).is_ok();
    }
    true
}
