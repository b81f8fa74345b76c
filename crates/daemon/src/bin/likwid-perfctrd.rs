//! The `likwid-perfctrd` binary: measurement daemon and its command-line
//! client.
//!
//! Serve mode (`--socket`): bind a Unix socket, simulate one machine, and
//! accept concurrent measurement sessions until a client sends `shutdown`.
//!
//! Client mode (`--connect`): open one session and render the live stream —
//! `-O ascii` as a scrolling fixed-width table, `-O csv` as comma-separated
//! rows (both followed by the post-mortem aggregate report), `-O json` as
//! the raw NDJSON frames (one JSON document per line, ready for
//! `python3 -m json.tool --json-lines`).

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicBool;

use likwid::report::stream::{CsvStream, LiveTable, StreamRender};
use likwid::report::OutputFormat;
use likwid::{ArgSpec, LikwidError, Result};
use likwid_daemon::client::{stream_header, stream_row};
use likwid_daemon::protocol::{Frame, OpenRequest};
use likwid_daemon::SocketClient;
use likwid_x86_machine::{FaultPlan, SimMachine};

fn spec() -> ArgSpec {
    let spec = ArgSpec::new(
        "likwid-perfctrd",
        "measurement daemon: concurrent live-streaming counter sessions over a Unix socket",
    )
    .machine_flag()
    .flag("--socket", None, Some("path"), "serve the daemon protocol on this Unix socket")
    .flag("--connect", None, Some("path"), "connect to a serving daemon instead")
    .flag("-c", None, Some("cpus"), "client: hardware threads to measure (pin list)")
    .flag("-g", None, Some("group|EVENT:CTR,..."), "client: event group(s) or custom event set")
    .flag("-t", None, Some("interval"), "client: sampling interval (e.g. 1ms)")
    .flag("-S", None, Some("duration"), "client: measurement duration (e.g. 10ms)")
    .flag("--status", None, None, "client: print the daemon's observability snapshot and exit")
    .flag(
        "--inject",
        None,
        Some("spec"),
        "serve: inject faults into the MSR substrate (e.g. seed=7,read=0.2x3)",
    );
    likwid::trace::trace_flag(spec)
}

fn run(args: &[String]) -> Result<String> {
    let spec = spec();
    let parsed = spec.parse(args)?;
    if parsed.help_requested() {
        return Ok(spec.help_text());
    }
    let trace_sink = likwid::trace::begin_cli(&parsed)?;
    let text = match (parsed.value("--socket"), parsed.value("--connect")) {
        (Some(path), None) => {
            let preset = likwid::cli::parse_machine(&parsed)?;
            let machine = SimMachine::new(preset);
            if let Some(plan) = parsed.value("--inject") {
                let plan = FaultPlan::parse(plan)
                    .map_err(|e| LikwidError::Usage(format!("--inject: {e}")))?;
                machine.inject_faults(plan);
            }
            eprintln!("likwid-perfctrd: serving {} on {}", preset.id(), path);
            let shutdown = AtomicBool::new(false);
            likwid_daemon::server::serve(&machine, Path::new(path), &shutdown)?;
            Ok(String::new())
        }
        (None, Some(path)) => run_client(&parsed, Path::new(path)),
        _ => Err(LikwidError::Usage(
            "exactly one of --socket <path> (serve) or --connect <path> (client) is required"
                .into(),
        )),
    }?;
    if let Some(sink) = trace_sink {
        sink.finish()?;
    }
    Ok(text)
}

fn run_client(parsed: &likwid::ParsedArgs, path: &Path) -> Result<String> {
    if parsed.has("--status") {
        let (mut client, _hello) = SocketClient::connect(path)?;
        let status = client.status()?;
        return Ok(parsed.output()?.format.render(&status.report()));
    }
    let cpus = parsed.value("-c").unwrap_or("0").to_string();
    let group = parsed
        .value("-g")
        .ok_or_else(|| LikwidError::Usage("client mode requires -g <group>".into()))?
        .to_string();
    // Validation happens in the daemon (it answers with a typed error
    // frame); the client only needs the raw strings.
    let interval = parsed.value("-t").unwrap_or("1ms").to_string();
    let duration = parsed.value("-S").unwrap_or("10ms").to_string();
    let format = parsed.output()?.format;

    let request = OpenRequest { machine: None, cpus, group, interval, duration };
    let (mut client, _hello) = SocketClient::connect(path)?;

    let stdout = std::io::stdout();
    match format {
        OutputFormat::Json => {
            // Raw NDJSON passthrough: re-encode each frame on its own line
            // as it arrives (one JSON document per line).
            let mut line = String::new();
            client.run_session(&request, |frame| {
                frame.encode_line(&mut line);
                let _ = stdout.lock().write_all(line.as_bytes());
            })?;
            Ok(String::new())
        }
        OutputFormat::Ascii | OutputFormat::Csv => {
            let mut renderer: Box<dyn StreamRender> = match format {
                OutputFormat::Ascii => Box::new(LiveTable::new()),
                _ => Box::new(CsvStream::new()),
            };
            // Render rows live as the frames arrive, deriving each row's
            // metrics from its counts; the aggregate report follows once
            // the session is done. The first frame that cannot be
            // rendered ends the run with its error.
            let mut live = None;
            let mut failed = None;
            let accumulator = client.run_session(&request, |frame| {
                if failed.is_some() {
                    return;
                }
                let mut out = stdout.lock();
                match frame {
                    Frame::Opened(opened) => match opened.metric_evaluator() {
                        Ok(metrics) => {
                            let header = stream_header(opened);
                            let _ = out.write_all(renderer.begin(&header).as_bytes());
                            live = Some((opened.clone(), metrics, header));
                        }
                        Err(e) => failed = Some(e),
                    },
                    Frame::Interval(interval) => {
                        if let Some((opened, metrics, header)) = &live {
                            match stream_row(opened, metrics, interval) {
                                Ok(row) => {
                                    let _ = out.write_all(renderer.row(header, &row).as_bytes());
                                }
                                Err(e) => failed = Some(e),
                            }
                        }
                    }
                    _ => {}
                }
            })?;
            if let Some(e) = failed {
                return Err(e);
            }
            let header = match live {
                Some((_, _, header)) => header,
                None => stream_header(accumulator.opened()),
            };
            let report = accumulator.result()?.report();
            Ok(renderer.end(&header, Some(&report)))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("likwid-perfctrd: {e}");
            std::process::exit(1);
        }
    }
}
