//! Client-side stream handling: frame accumulation, bit-identical result
//! reconstruction, and the Unix-socket client.
//!
//! A measurement session streams `interval` frames while it runs and a
//! `done` frame when it finishes. The daemon keeps no interval history, so
//! the stream is the only place a session's intervals are kept.
//! [`StreamAccumulator`] consumes it and rebuilds the session's full
//! [`TimelineResult`] — the per-interval raw deltas, the aggregates the
//! deltas telescope to, and the per-group time series in exactly the order
//! a local `TimelineSession::run` emits them, so
//! `accumulator.result().report()` renders byte-identically to the report
//! a local `likwid-perfctr -t` run would have produced.
//!
//! Interval frames carry raw counts only. The per-interval metrics are
//! derived here, when a client renders a row ([`stream_row`]) or rebuilds
//! the result, through the [`MetricEvaluator`] of the `opened` frame: the
//! same evaluator, with the same `time` binding, as the post-mortem
//! result's.
//!
//! A client keeps a stream flat. [`SocketClient::run_session`] decodes
//! every interval line into one reused [`Frame`], whose rows are
//! overwritten in place, hands it to the caller's hook and copies its
//! counts into the accumulator's [`IntervalLog`]: the spans in one vector,
//! the count rows back to back in another, the log a local
//! `TimelineSession::run` keeps. A warm frame allocates nothing, and a
//! stream of any length costs two growing vectors instead of a heap block
//! per count row. The per-interval [`TimelineInterval`](likwid::perfctr::TimelineInterval)s
//! exist only while [`StreamAccumulator::result`] rebuilds them.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use likwid::perfctr::{IntervalLog, MetricEvaluator, TimelineResult, TimelineTotals};
use likwid::{LikwidError, Result};

use crate::protocol::{DoneFrame, Frame, IntervalFrame, OpenRequest, OpenedFrame};
use likwid::json::JsonValue;

/// Accumulates one session's frame stream and reconstructs the post-mortem
/// result.
///
/// The interval frames are not kept as frames: their spans and counts
/// append to one flat [`IntervalLog`], the log a local
/// `TimelineSession::run` keeps, so a stream of any length costs two
/// growing vectors rather than one heap block per count row. The log grows as frames arrive; it
/// is not sized from the `opened` frame's duration up front.
#[derive(Debug, Clone)]
pub struct StreamAccumulator {
    opened: OpenedFrame,
    log: IntervalLog,
    done: Option<DoneFrame>,
}

impl StreamAccumulator {
    /// Start accumulating a session announced by its `opened` frame.
    pub fn new(opened: OpenedFrame) -> Self {
        let rows = opened.groups.iter().map(|g| g.events.len()).collect();
        let log = IntervalLog::new(rows, opened.cpus.len());
        StreamAccumulator { opened, log, done: None }
    }

    /// The session's `opened` frame.
    pub fn opened(&self) -> &OpenedFrame {
        &self.opened
    }

    /// The interval frames received so far, in order, each rebuilt from
    /// the log as it is yielded.
    pub fn intervals(&self) -> impl ExactSizeIterator<Item = IntervalFrame> + '_ {
        self.log.iter().enumerate().map(|(index, interval)| IntervalFrame {
            session: self.opened.session,
            index,
            group: interval.group,
            t_start_s: interval.t_start_s,
            t_end_s: interval.t_end_s,
            counts: interval.rows().map(<[u64]>::to_vec).collect(),
        })
    }

    /// Feed one `interval` frame: [`StreamAccumulator::record`] of an
    /// owned frame.
    pub fn push(&mut self, frame: IntervalFrame) -> Result<()> {
        self.record(&frame)
    }

    /// Copy one `interval` frame into the log. Frames must belong to this
    /// session, arrive in index order and fit its shape
    /// ([`OpenedFrame::check`]). Once the log has room for it, recording a
    /// frame allocates nothing.
    pub fn record(&mut self, frame: &IntervalFrame) -> Result<()> {
        if frame.session != self.opened.session {
            return Err(LikwidError::Protocol(format!(
                "interval frame for session {} on a stream of session {}",
                frame.session, self.opened.session
            )));
        }
        if frame.index != self.log.len() {
            return Err(LikwidError::Protocol(format!(
                "interval frame {} out of order (expected {})",
                frame.index,
                self.log.len()
            )));
        }
        self.opened.check(frame)?;
        self.log.push(frame.t_start_s, frame.t_end_s, frame.group, &frame.counts);
        Ok(())
    }

    /// Feed the terminating `done` frame.
    pub fn complete(&mut self, done: DoneFrame) -> Result<()> {
        if done.session != self.opened.session {
            return Err(LikwidError::Protocol(format!(
                "done frame for session {} on a stream of session {}",
                done.session, self.opened.session
            )));
        }
        if done.intervals != self.log.len() {
            return Err(LikwidError::Protocol(format!(
                "done frame reports {} intervals, stream carried {}",
                done.intervals,
                self.log.len()
            )));
        }
        self.done = Some(done);
        Ok(())
    }

    /// The `done` frame, once the stream is complete.
    fn done(&self) -> Result<&DoneFrame> {
        self.done.as_ref().ok_or_else(|| LikwidError::Protocol("stream not complete".into()))
    }

    /// Verify the telescoping invariant: per group, the streamed interval
    /// deltas sum count-by-count exactly to the aggregate of the `done`
    /// frame.
    pub fn verify_telescoping(&self) -> Result<()> {
        let done = self.done()?;
        let sums = self.log.group_sums();
        if sums.len() != done.aggregate.len() {
            return Err(LikwidError::Protocol(format!(
                "done frame aggregates {} groups, the session has {}",
                done.aggregate.len(),
                sums.len()
            )));
        }
        for (g, (sums, aggregate)) in sums.iter().zip(&done.aggregate).enumerate() {
            if sums != aggregate {
                return Err(LikwidError::Protocol(format!(
                    "group {g}: interval deltas do not telescope to the aggregate"
                )));
            }
        }
        Ok(())
    }

    /// Rebuild the full [`TimelineResult`] from the accumulated stream,
    /// deriving the per-interval metrics from the streamed counts: the
    /// rebuild step of a local `TimelineSession::run`
    /// ([`TimelineTotals::rebuild`]), over the totals the `done` frame
    /// carries.
    pub fn result(&self) -> Result<TimelineResult> {
        let done = self.done()?;
        let totals = TimelineTotals {
            interval_s: self.opened.interval_s,
            duration_s: done.duration_s,
            intervals: done.intervals,
            cpus: self.opened.cpus.clone(),
            socket_lock_owners: self.opened.socket_lock_owners.clone(),
            group_names: self.opened.groups.iter().map(|g| g.name.clone()).collect(),
            aggregate: done.aggregate.clone(),
            extrapolated: done.extrapolated.clone(),
            aggregate_results: done.results.clone(),
        };
        totals.rebuild(&self.log, &self.opened.metric_evaluator()?)
    }
}

/// A blocking NDJSON client over a Unix domain socket.
pub struct SocketClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// The last frame's line, its buffer reused for the next.
    line: String,
    /// The last session frame, decoded in place: interval frames
    /// overwrite its rows.
    frame: Frame,
}

impl SocketClient {
    /// Connect and consume the server's `hello` frame, which is returned.
    pub fn connect(path: &Path) -> Result<(Self, Frame)> {
        let stream = UnixStream::connect(path)
            .map_err(|e| LikwidError::Protocol(format!("connect {}: {e}", path.display())))?;
        let writer =
            stream.try_clone().map_err(|e| LikwidError::Protocol(format!("clone socket: {e}")))?;
        let mut client = SocketClient {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            frame: Frame::Ok,
        };
        let hello = client.next_frame()?;
        match &hello {
            Frame::Hello { .. } => Ok((client, hello)),
            other => Err(LikwidError::Protocol(format!("expected hello, got {other:?}"))),
        }
    }

    /// Send one command as an NDJSON line.
    pub fn send(&mut self, command: &JsonValue) -> Result<()> {
        let mut line = command.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| LikwidError::Protocol(format!("send: {e}")))
    }

    /// Read the next frame. EOF is a protocol error (the server always
    /// terminates a session stream with `done` or `error`).
    pub fn next_frame(&mut self) -> Result<Frame> {
        self.read_line()?;
        Frame::from_line(&self.line)
    }

    /// Read the next line into the line buffer.
    fn read_line(&mut self) -> Result<()> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| LikwidError::Protocol(format!("recv: {e}")))?;
        if n == 0 {
            return Err(LikwidError::Protocol("connection closed by server".into()));
        }
        Ok(())
    }

    /// Ask the daemon for its observability snapshot. Answered from the
    /// broker's state mutex, so it returns promptly even while other
    /// clients stream measurement sessions.
    pub fn status(&mut self) -> Result<crate::broker::DaemonStatus> {
        self.send(&likwid::json::obj(vec![("cmd", JsonValue::Str("status".into()))]))?;
        match self.next_frame()? {
            Frame::Status(status) => Ok(status),
            Frame::Error { kind, message } => Err(error_from_frame(&kind, message)),
            other => Err(LikwidError::Protocol(format!("expected status, got {other:?}"))),
        }
    }

    /// Open a session and drive it to completion, invoking `on_frame` for
    /// every session frame as it arrives (`opened`, each `interval`, then
    /// `done`) — the live-rendering hook. Returns the accumulated stream.
    /// A server-side `error` frame is returned as the matching typed
    /// error.
    pub fn run_session(
        &mut self,
        request: &OpenRequest,
        mut on_frame: impl FnMut(&Frame),
    ) -> Result<StreamAccumulator> {
        self.send(&request.to_json())?;
        let frame = self.next_frame()?;
        let opened = match frame {
            Frame::Opened(ref opened) => opened.clone(),
            Frame::Error { kind, message } => return Err(error_from_frame(&kind, message)),
            other => return Err(LikwidError::Protocol(format!("expected opened, got {other:?}"))),
        };
        on_frame(&frame);
        let mut accumulator = StreamAccumulator::new(opened);
        loop {
            // Interval lines are decoded into the one reused frame and
            // copied into the log: once warm, a frame allocates nothing.
            self.read_line()?;
            self.frame.decode_line(&self.line)?;
            on_frame(&self.frame);
            if let Frame::Interval(interval) = &self.frame {
                accumulator.record(interval)?;
                continue;
            }
            match std::mem::replace(&mut self.frame, Frame::Ok) {
                Frame::Done(done) => {
                    accumulator.complete(done)?;
                    return Ok(accumulator);
                }
                Frame::Error { kind, message } => return Err(error_from_frame(&kind, message)),
                other => {
                    return Err(LikwidError::Protocol(format!(
                        "unexpected frame mid-stream: {other:?}"
                    )))
                }
            }
        }
    }
}

/// Map a wire error frame back to a typed error.
fn error_from_frame(kind: &str, message: String) -> LikwidError {
    match kind {
        "usage" => LikwidError::Usage(message),
        _ => LikwidError::Protocol(message),
    }
}

/// The live-stream column layout of a session: one column per (metric or
/// event, cpu) pair of every group, in group order — the same `"{name}
/// core {cpu}"` labels the post-mortem time-series renderer uses.
pub fn stream_header(opened: &OpenedFrame) -> likwid::report::stream::StreamHeader {
    let mut columns = Vec::new();
    for group in &opened.groups {
        let names: Vec<&str> = if group.metrics.is_empty() {
            group.events.iter().map(|(name, _)| name.as_str()).collect()
        } else {
            group.metrics.iter().map(String::as_str).collect()
        };
        for name in names {
            for &cpu in &opened.cpus {
                columns.push(format!("{name} core {cpu}"));
            }
        }
    }
    likwid::report::stream::StreamHeader { time_label: "time[s]".to_string(), columns }
}

/// One interval frame as a live-stream row: the measured group's values in
/// its column span, `None` (not covered this interval) everywhere else.
/// The values are the interval's metrics, derived by `metrics` (the
/// `opened` frame's [`OpenedFrame::metric_evaluator`]), or its raw counts
/// for a custom event list. A frame that does not fit the session is a
/// protocol error.
pub fn stream_row(
    opened: &OpenedFrame,
    metrics: &MetricEvaluator,
    frame: &IntervalFrame,
) -> Result<likwid::report::stream::StreamRow> {
    opened.check(frame)?;
    let span = |group: &crate::protocol::GroupSchema| {
        let names = if group.metrics.is_empty() { group.events.len() } else { group.metrics.len() };
        names * opened.cpus.len()
    };
    let total: usize = opened.groups.iter().map(span).sum();
    let offset: usize = opened.groups.iter().take(frame.group).map(span).sum();
    let group = &opened.groups[frame.group];
    let covered: Vec<f64> = if group.metrics.is_empty() {
        frame.counts.iter().flatten().map(|&v| v as f64).collect()
    } else {
        let mut values = vec![vec![0.0; opened.cpus.len()]; group.metrics.len()];
        metrics.interval_into(
            frame.group,
            &frame.counts,
            frame.t_start_s,
            frame.t_end_s,
            &mut values,
        )?;
        values.into_iter().flatten().collect()
    };
    let mut values = vec![None; total];
    for (value, v) in values[offset..].iter_mut().zip(covered) {
        *value = Some(v);
    }
    Ok(likwid::report::stream::StreamRow { t: frame.t_end_s, values })
}
