//! Client-side stream handling: frame accumulation, bit-identical result
//! reconstruction, and the Unix-socket client.
//!
//! A measurement session streams `interval` frames while it runs and a
//! `done` frame when it finishes. [`StreamAccumulator`] consumes that
//! stream and rebuilds the session's full [`TimelineResult`] — the
//! per-interval raw deltas, the aggregates the deltas telescope to, and
//! the per-group time series in exactly the order the post-mortem
//! `TimelineSession::finish` emits them, so `accumulator.result().report()`
//! renders byte-identically to the report a local `likwid-perfctr -t` run
//! would have produced.
//!
//! Interval frames carry raw counts only. The per-interval metrics are
//! derived here, when a client renders a row ([`stream_row`]) or rebuilds
//! the result, through the [`MetricEvaluator`] of the `opened` frame: the
//! same evaluator, with the same `time` binding, as the post-mortem
//! result's.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use likwid::perfctr::{MetricEvaluator, TimelineInterval, TimelineResult};
use likwid::{LikwidError, Result};

use crate::protocol::{DoneFrame, Frame, IntervalFrame, OpenRequest, OpenedFrame};
use likwid::json::JsonValue;

/// Accumulates one session's frame stream and reconstructs the post-mortem
/// result.
#[derive(Debug, Clone)]
pub struct StreamAccumulator {
    opened: OpenedFrame,
    intervals: Vec<IntervalFrame>,
    done: Option<DoneFrame>,
}

impl StreamAccumulator {
    /// Start accumulating a session announced by its `opened` frame.
    pub fn new(opened: OpenedFrame) -> Self {
        StreamAccumulator { opened, intervals: Vec::new(), done: None }
    }

    /// The session's `opened` frame.
    pub fn opened(&self) -> &OpenedFrame {
        &self.opened
    }

    /// The interval frames received so far.
    pub fn intervals(&self) -> &[IntervalFrame] {
        &self.intervals
    }

    /// Feed one `interval` frame. Frames must belong to this session,
    /// arrive in index order and fit its shape ([`OpenedFrame::check`]).
    pub fn push(&mut self, frame: IntervalFrame) -> Result<()> {
        if frame.session != self.opened.session {
            return Err(LikwidError::Protocol(format!(
                "interval frame for session {} on a stream of session {}",
                frame.session, self.opened.session
            )));
        }
        if frame.index != self.intervals.len() {
            return Err(LikwidError::Protocol(format!(
                "interval frame {} out of order (expected {})",
                frame.index,
                self.intervals.len()
            )));
        }
        self.opened.check(&frame)?;
        self.intervals.push(frame);
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
        if done.intervals != self.intervals.len() {
            return Err(LikwidError::Protocol(format!(
                "done frame reports {} intervals, stream carried {}",
                done.intervals,
                self.intervals.len()
            )));
        }
        self.done = Some(done);
        Ok(())
    }

    /// Verify the telescoping invariant: per group, the streamed interval
    /// deltas sum count-by-count exactly to the aggregate of the `done`
    /// frame.
    pub fn verify_telescoping(&self) -> Result<()> {
        let done = self
            .done
            .as_ref()
            .ok_or_else(|| LikwidError::Protocol("stream not complete".into()))?;
        for (g, aggregate) in done.aggregate.iter().enumerate() {
            let mut sums: Vec<Vec<u64>> =
                aggregate.iter().map(|per_cpu| vec![0u64; per_cpu.len()]).collect();
            for frame in self.intervals.iter().filter(|f| f.group == g) {
                for (ei, per_cpu) in frame.counts.iter().enumerate() {
                    for (ci, &v) in per_cpu.iter().enumerate() {
                        sums[ei][ci] += v;
                    }
                }
            }
            if &sums != aggregate {
                return Err(LikwidError::Protocol(format!(
                    "group {g}: interval deltas do not telescope to the aggregate"
                )));
            }
        }
        Ok(())
    }

    /// Rebuild the full [`TimelineResult`] from the accumulated stream,
    /// deriving the per-interval metrics from the streamed counts.
    pub fn result(&self) -> Result<TimelineResult> {
        let done = self
            .done
            .as_ref()
            .ok_or_else(|| LikwidError::Protocol("stream not complete".into()))?;
        let intervals: Vec<TimelineInterval> =
            self.intervals.iter().map(IntervalFrame::to_interval).collect();
        let timeseries = self.opened.metric_evaluator()?.timeseries(&intervals)?;
        Ok(TimelineResult {
            interval_s: self.opened.interval_s,
            duration_s: done.duration_s,
            cpus: self.opened.cpus.clone(),
            socket_lock_owners: self.opened.socket_lock_owners.clone(),
            group_names: self.opened.groups.iter().map(|g| g.name.clone()).collect(),
            intervals,
            aggregate: done.aggregate.clone(),
            extrapolated: done.extrapolated.clone(),
            aggregate_results: done.results.clone(),
            timeseries,
        })
    }
}

/// A blocking NDJSON client over a Unix domain socket.
pub struct SocketClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// The last frame's line, its buffer reused for the next.
    line: String,
}

impl SocketClient {
    /// Connect and consume the server's `hello` frame, which is returned.
    pub fn connect(path: &Path) -> Result<(Self, Frame)> {
        let stream = UnixStream::connect(path)
            .map_err(|e| LikwidError::Protocol(format!("connect {}: {e}", path.display())))?;
        let writer =
            stream.try_clone().map_err(|e| LikwidError::Protocol(format!("clone socket: {e}")))?;
        let mut client =
            SocketClient { reader: BufReader::new(stream), writer, line: String::new() };
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
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| LikwidError::Protocol(format!("recv: {e}")))?;
        if n == 0 {
            return Err(LikwidError::Protocol("connection closed by server".into()));
        }
        Frame::from_line(&self.line)
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
            let frame = self.next_frame()?;
            on_frame(&frame);
            match frame {
                Frame::Interval(interval) => accumulator.push(interval)?,
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
