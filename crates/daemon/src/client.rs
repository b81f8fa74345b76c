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

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use likwid::perfctr::TimelineResult;
use likwid::report::{Series, TimeSeries};
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

    /// Feed one `interval` frame. Frames must belong to this session and
    /// arrive in index order.
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

    /// Rebuild the full [`TimelineResult`] from the accumulated stream.
    pub fn result(&self) -> Result<TimelineResult> {
        let done = self
            .done
            .as_ref()
            .ok_or_else(|| LikwidError::Protocol("stream not complete".into()))?;
        let cpus = self.opened.cpus.clone();
        let group_names: Vec<String> = self.opened.groups.iter().map(|g| g.name.clone()).collect();

        let mut timeseries = Vec::with_capacity(self.opened.groups.len());
        for (g, schema) in self.opened.groups.iter().enumerate() {
            let frames: Vec<&IntervalFrame> =
                self.intervals.iter().filter(|f| f.group == g).collect();
            let timestamps: Vec<f64> = frames.iter().map(|f| f.t_end_s).collect();
            let mut series = Vec::new();
            if !frames.is_empty() {
                if schema.metrics.is_empty() {
                    for (ei, (name, _)) in schema.events.iter().enumerate() {
                        for (ci, &cpu) in cpus.iter().enumerate() {
                            let values = frames.iter().map(|f| f.counts[ei][ci] as f64).collect();
                            series.push(Series::new(name.clone(), cpu, values));
                        }
                    }
                } else {
                    for (mi, name) in schema.metrics.iter().enumerate() {
                        for (ci, &cpu) in cpus.iter().enumerate() {
                            let values = frames
                                .iter()
                                .map(|f| {
                                    f.metrics
                                        .get(mi)
                                        .and_then(|row| row.get(ci))
                                        .copied()
                                        .unwrap_or(f64::NAN)
                                })
                                .collect();
                            series.push(Series::new(name.clone(), cpu, values));
                        }
                    }
                }
            }
            timeseries.push(TimeSeries { timestamps, series });
        }

        Ok(TimelineResult {
            interval_s: self.opened.interval_s,
            duration_s: done.duration_s,
            cpus,
            socket_lock_owners: self.opened.socket_lock_owners.clone(),
            group_names,
            intervals: self.intervals.iter().map(IntervalFrame::to_interval).collect(),
            aggregate: done.aggregate.clone(),
            extrapolated: done.extrapolated.clone(),
            aggregate_results: done.results.iter().map(|r| r.to_results()).collect(),
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
pub fn stream_row(
    opened: &OpenedFrame,
    frame: &IntervalFrame,
) -> likwid::report::stream::StreamRow {
    let span = |group: &crate::protocol::GroupSchema| {
        let names = if group.metrics.is_empty() { group.events.len() } else { group.metrics.len() };
        names * opened.cpus.len()
    };
    let total: usize = opened.groups.iter().map(span).sum();
    let offset: usize = opened.groups.iter().take(frame.group).map(span).sum();
    let mut values = vec![None; total];
    if let Some(group) = opened.groups.get(frame.group) {
        let mut at = offset;
        if group.metrics.is_empty() {
            for per_cpu in &frame.counts {
                for &v in per_cpu {
                    if at < total {
                        values[at] = Some(v as f64);
                    }
                    at += 1;
                }
            }
        } else {
            for per_cpu in &frame.metrics {
                for &v in per_cpu {
                    if at < total {
                        values[at] = Some(v);
                    }
                    at += 1;
                }
            }
        }
    }
    likwid::report::stream::StreamRow { t: frame.t_end_s, values }
}
