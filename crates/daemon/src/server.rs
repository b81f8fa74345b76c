//! The Unix-domain-socket front end of `likwid-perfctrd`.
//!
//! One listener thread accepts connections; each connection gets a scoped
//! handler thread speaking the NDJSON protocol of [`crate::protocol`]. A
//! handler greets with `hello`, then serves commands: `open` admits a
//! measurement session through the broker and streams its interval frames
//! until `done`, the frame of [`crate::SessionHandle::finish`], built from
//! the session's totals; the intervals went out in their own frames and
//! are not kept. `status` answers with the broker's observability
//! snapshot (never blocking a measurement turn); `ping` answers `pong`;
//! `shutdown` stops the daemon. Any write failure (the
//! client vanished) aborts the in-flight session, which releases its
//! broker slot and uncore locks. So does a client that stays
//! connected but stops reading: once its socket buffer is full, a write
//! that cannot proceed for 2 s fails the same way.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use likwid::Result;
use likwid_x86_machine::SimMachine;

use crate::broker::Daemon;
use crate::protocol::{Frame, IntervalFrame, OpenRequest, PROTOCOL_VERSION, SERVER_NAME};
use likwid::json::JsonValue;

/// Accept-loop poll interval while checking the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long one write to a client may block before the connection counts
/// as dead. A client that stops reading would otherwise hold its session,
/// turn ticket and uncore locks for good, and hang the daemon's shutdown.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

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

/// Longest command line a connection may send, newline excluded. A longer
/// one is answered with a `protocol` error frame and the connection is
/// closed, so a peer that never sends a newline cannot grow a handler's
/// buffer without bound. Real commands are a few hundred bytes; the cap
/// still admits a hostile 100,000-level nesting line, which the JSON
/// reader refuses with an ordinary error frame.
pub(crate) const MAX_COMMAND_LINE: usize = 128 * 1024;

/// A connection's socket writer and the one line buffer every frame it
/// sends is encoded into.
struct Outbox {
    stream: UnixStream,
    line: String,
}

impl Outbox {
    /// Send one frame; false when the client is gone.
    fn send(&mut self, frame: &Frame) -> bool {
        frame.encode_line(&mut self.line);
        self.stream.write_all(self.line.as_bytes()).is_ok()
    }

    fn error(&mut self, message: String) -> bool {
        self.send(&Frame::Error { kind: "protocol".to_string(), message })
    }
}

/// Serve one connection. Errors answering a request become `error` frames;
/// errors writing to the socket end the connection (and abort any
/// in-flight session via the handle's drop).
fn handle_connection(daemon: &Daemon<'_>, stream: UnixStream, shutdown: &AtomicBool) {
    // A finite read timeout lets an idle handler notice a daemon shutdown
    // instead of blocking the scope join forever; the write timeout drops
    // a client that stopped reading.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let mut out = match stream.try_clone() {
        Ok(stream) => Outbox { stream, line: String::new() },
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    let hello = Frame::Hello {
        server: SERVER_NAME.to_string(),
        protocol: PROTOCOL_VERSION,
        machine: daemon.machine().preset().id().to_string(),
    };
    if !out.send(&hello) {
        return;
    }

    let mut line = Vec::new();
    loop {
        // On timeout, read_until may have consumed a partial line into the
        // buffer — keep it and retry; clear only after processing. The
        // budget stops one byte past the cap, which marks the line as
        // too long.
        let budget = (MAX_COMMAND_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.last() != Some(&b'\n') && line.len() > MAX_COMMAND_LINE {
            out.error(format!("command line longer than {MAX_COMMAND_LINE} bytes"));
            return;
        }
        let bytes = std::mem::take(&mut line);
        let command = match std::str::from_utf8(&bytes) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => JsonValue::parse(text.trim()),
            Err(e) => Err(e.to_string()),
        };
        let command = match command {
            Ok(value) => value,
            Err(e) => {
                if !out.error(format!("malformed command: {e}")) {
                    return;
                }
                continue;
            }
        };
        let served = match command.get("cmd").and_then(JsonValue::as_str) {
            Some("open") => serve_session(daemon, &command, &mut out),
            Some("ping") => out.send(&Frame::Pong),
            // Answered from the broker's state mutex alone: the snapshot
            // never waits on a measurement turn, so a monitoring client
            // can poll while sessions stream.
            Some("status") => out.send(&Frame::Status(daemon.status())),
            Some("shutdown") => {
                shutdown.store(true, Ordering::SeqCst);
                out.send(&Frame::Ok);
                return;
            }
            Some(cmd) => out.error(format!("unknown command '{cmd}'")),
            None => out.error("missing 'cmd'".to_string()),
        };
        if !served {
            return;
        }
    }
}

/// Admit and stream one session. Returns false when the connection died
/// (the caller stops serving it); request errors are answered with an
/// `error` frame and return true — the broker and the connection stay
/// healthy.
fn serve_session(daemon: &Daemon<'_>, command: &JsonValue, out: &mut Outbox) -> bool {
    let outcome = (|| -> Result<bool> {
        let request = OpenRequest::from_json(command)?;
        let mut handle = daemon.open(&request)?;
        // A failed send means the connection is gone; the handle's drop
        // aborts the session.
        if !out.send(&Frame::Opened(handle.opened().clone())) {
            return Ok(false);
        }
        // One frame, refilled in place for every interval.
        let mut frame = Frame::Interval(IntervalFrame::default());
        loop {
            let Frame::Interval(interval) = &mut frame else { unreachable!("an interval frame") };
            if !handle.next_interval_into(interval)? {
                break;
            }
            if !out.send(&frame) {
                return Ok(false);
            }
        }
        Ok(out.send(&Frame::Done(handle.finish()?.0)))
    })();
    match outcome {
        Ok(alive) => alive,
        Err(e) => out.send(&Frame::from_error(&e)),
    }
}
