//! Declarative command-line parsing shared by every binary of the suite.
//!
//! Each tool and figure binary describes its switches once as an
//! [`ArgSpec`]; parsing, `--help` generation and the common output switches
//! (`-O <ascii|csv|json>`, `-o <file>`) fall out of the spec instead of
//! being re-implemented per tool. The parser fixes two long-standing holes
//! of the ad-hoc flag scanning it replaces:
//!
//! * a flag that expects a value no longer consumes a following flag as
//!   that value (`likwid-perfctr -c -g MEM` is now a usage error instead of
//!   the cpus expression `"-g"`), and
//! * occurrences are kept in command-line order, so order-sensitive
//!   switches (`likwid-features -e X -u X`) apply as written.

use crate::error::{LikwidError, Result};
use crate::report::OutputFormat;

/// One switch of a tool.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    /// Primary (short) name, e.g. `-c`.
    pub short: &'static str,
    /// Optional long alias, e.g. `--machine`.
    pub long: Option<&'static str>,
    /// Placeholder name of the value (`None` for boolean flags).
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// Trailing positional arguments of a binary (the figure binaries take
/// sample counts / problem sizes positionally).
#[derive(Debug, Clone, Copy)]
pub struct PositionalDef {
    /// Placeholder name shown in the usage line.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Whether more than one value may be given.
    pub many: bool,
}

/// The declarative argument specification of one binary.
#[derive(Debug, Clone)]
pub struct ArgSpec {
    tool: &'static str,
    about: &'static str,
    flags: Vec<FlagDef>,
    positional: Option<PositionalDef>,
    notes: Vec<String>,
}

/// The output switches every binary of the suite carries.
const OUTPUT_FLAGS: [FlagDef; 2] = [
    FlagDef {
        short: "-O",
        long: None,
        value: Some("ascii|csv|json"),
        help: "output format (default: ascii, or inferred from the -o extension)",
    },
    FlagDef {
        short: "-o",
        long: None,
        value: Some("file"),
        help: "write the output to a file instead of stdout",
    },
];

impl ArgSpec {
    /// A new spec; `-h`/`--help` and the output switches `-O`/`-o` are
    /// implicit on every binary.
    pub fn new(tool: &'static str, about: &'static str) -> Self {
        ArgSpec { tool, about, flags: OUTPUT_FLAGS.to_vec(), positional: None, notes: Vec::new() }
    }

    /// The tool name.
    pub fn tool(&self) -> &'static str {
        self.tool
    }

    /// Add a switch.
    pub fn flag(
        mut self,
        short: &'static str,
        long: Option<&'static str>,
        value: Option<&'static str>,
        help: &'static str,
    ) -> Self {
        self.flags.push(FlagDef { short, long, value, help });
        self
    }

    /// Add the `--machine <preset>` switch shared by the four tools.
    pub fn machine_flag(self) -> Self {
        self.flag("-M", Some("--machine"), Some("preset"), "simulated machine preset")
    }

    /// Declare trailing positional arguments.
    pub fn positional(mut self, name: &'static str, help: &'static str, many: bool) -> Self {
        self.positional = Some(PositionalDef { name, help, many });
        self
    }

    /// Append a free-form paragraph to the generated `--help` text (flag
    /// semantics the one-line help cannot carry, e.g. which `-g` spellings
    /// multiplex).
    pub fn note(mut self, text: impl Into<String>) -> Self {
        self.notes.push(text.into());
        self
    }

    fn find(&self, token: &str) -> Option<usize> {
        self.flags.iter().position(|f| f.short == token || f.long == Some(token))
    }

    /// Parse a command line against the spec.
    pub fn parse(&self, args: &[String]) -> Result<ParsedArgs> {
        let mut parsed =
            ParsedArgs { occurrences: Vec::new(), positionals: Vec::new(), help: false };
        let mut iter = args.iter();
        while let Some(token) = iter.next() {
            if token == "-h" || token == "--help" {
                parsed.help = true;
                continue;
            }
            if let Some(index) = self.find(token) {
                let def = &self.flags[index];
                let value = if def.value.is_some() {
                    let value = iter.next().ok_or_else(|| {
                        LikwidError::Usage(format!("option '{token}' requires a value"))
                    })?;
                    if value.starts_with('-') {
                        return Err(LikwidError::Usage(format!(
                            "option '{token}' requires a value, but got flag '{value}'"
                        )));
                    }
                    Some(value.clone())
                } else {
                    None
                };
                parsed.occurrences.push((def.short, value));
            } else if token.starts_with('-') && token.len() > 1 {
                return Err(LikwidError::Usage(format!("unknown option '{token}' (try --help)")));
            } else {
                match self.positional {
                    Some(def) => {
                        if !def.many && !parsed.positionals.is_empty() {
                            return Err(LikwidError::Usage(format!(
                                "unexpected extra argument '{token}'"
                            )));
                        }
                        parsed.positionals.push(token.clone());
                    }
                    None => {
                        return Err(LikwidError::Usage(format!("unexpected argument '{token}'")))
                    }
                }
            }
        }
        Ok(parsed)
    }

    /// The auto-generated `--help` text.
    pub fn help_text(&self) -> String {
        let mut usage = format!("{}", self.tool);
        for f in &self.flags {
            match f.value {
                Some(v) => usage.push_str(&format!(" [{} <{v}>]", f.short)),
                None => usage.push_str(&format!(" [{}]", f.short)),
            }
        }
        if let Some(p) = self.positional {
            if p.many {
                usage.push_str(&format!(" [{}...]", p.name));
            } else {
                usage.push_str(&format!(" [{}]", p.name));
            }
        }
        let mut out = format!("{usage}\n{}\n\nOptions:\n", self.about);
        let name_of = |f: &FlagDef| {
            let mut name = f.short.to_string();
            if let Some(long) = f.long {
                name.push_str(&format!(", {long}"));
            }
            if let Some(v) = f.value {
                name.push_str(&format!(" <{v}>"));
            }
            name
        };
        let width = self
            .flags
            .iter()
            .map(|f| name_of(f).len())
            .chain(std::iter::once("-h, --help".len()))
            .max()
            .unwrap_or(0);
        for f in &self.flags {
            out.push_str(&format!("  {:width$}  {}\n", name_of(f), f.help, width = width));
        }
        out.push_str(&format!("  {:width$}  print this help\n", "-h, --help", width = width));
        if let Some(p) = self.positional {
            out.push_str(&format!("\nArguments:\n  {}  {}\n", p.name, p.help));
        }
        for note in &self.notes {
            out.push_str(&format!("\n{note}\n"));
        }
        out
    }
}

/// The parsed command line of one invocation.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// `(flag short name, value)` in command-line order.
    occurrences: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
    help: bool,
}

impl ParsedArgs {
    /// Whether `-h`/`--help` was given.
    pub fn help_requested(&self) -> bool {
        self.help
    }

    /// Whether a flag occurred at least once (by its short name).
    pub fn has(&self, flag: &str) -> bool {
        self.occurrences.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the last occurrence of a flag.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.occurrences.iter().rev().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// All occurrences of the given flags, in command-line order (for
    /// order-sensitive switches like `-e`/`-u`).
    pub fn occurrences_of(&self, flags: &[&str]) -> Vec<(&'static str, Option<&str>)> {
        self.occurrences
            .iter()
            .filter(|(f, _)| flags.contains(f))
            .map(|(f, v)| (*f, v.as_deref()))
            .collect()
    }

    /// The trailing positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Parse the single positional argument as a number, defaulting when
    /// absent (the figure binaries' sample count / problem size).
    pub fn positional_number(&self, default: usize) -> Result<usize> {
        match self.positionals.first() {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| LikwidError::Usage(format!("bad number '{raw}'"))),
        }
    }

    /// Parse an interval/duration-valued flag (`likwid-perfctr -t`/`-S`,
    /// `likwid-bench -T`): `Ok(None)` when the flag is absent, the value in
    /// seconds when it parses, and a [`LikwidError::Usage`] error naming
    /// the flag for zero, negative or unparsable values. The single
    /// validation authority is [`crate::perfctr::parse_interval`], which
    /// the `likwid-perfctrd` protocol routes its `interval`/`duration`
    /// fields through as well.
    pub fn interval(&self, flag: &str) -> Result<Option<f64>> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => match crate::perfctr::parse_interval(raw) {
                Ok(value) => Ok(Some(value)),
                Err(LikwidError::Usage(msg)) => Err(LikwidError::Usage(format!("{flag}: {msg}"))),
                Err(e) => Err(e),
            },
        }
    }

    /// Parse a positive-count flag (`likwid-bench -i`, `likwid-fleet
    /// -n`/`-W`): `default` when the flag is absent, the value when it is a
    /// positive integer, and a [`LikwidError::Usage`] error naming the flag
    /// for zero and non-numbers.
    pub fn count(&self, flag: &str, default: usize) -> Result<usize> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(LikwidError::Usage(format!(
                    "{flag}: bad count '{raw}' (expected a positive integer)"
                ))),
            },
        }
    }

    /// The effective output target: format from `-O`, falling back to the
    /// `-o` file extension, falling back to ASCII.
    pub fn output(&self) -> Result<OutputTarget> {
        let path = self.value("-o").map(str::to_string);
        let format = match self.value("-O") {
            Some(name) => OutputFormat::parse(name).ok_or_else(|| {
                LikwidError::Usage(format!(
                    "unknown output format '{name}' (expected ascii, csv or json)"
                ))
            })?,
            None => path
                .as_deref()
                .and_then(OutputFormat::from_extension)
                .unwrap_or(OutputFormat::Ascii),
        };
        Ok(OutputTarget { format, path })
    }
}

/// Where and how a binary's report goes out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputTarget {
    /// The rendering format.
    pub format: OutputFormat,
    /// Output file (`None` = stdout).
    pub path: Option<String>,
}

impl OutputTarget {
    /// Write rendered text to the target; returns whether stdout was used.
    pub fn write(&self, text: &str) -> std::io::Result<bool> {
        match &self.path {
            Some(path) => {
                std::fs::write(path, text)?;
                Ok(false)
            }
            None => {
                print!("{text}");
                Ok(true)
            }
        }
    }

    /// Write to the `-o` file when one was given; a no-op for stdout
    /// targets (used by string-level front ends that return the text to the
    /// caller instead of printing it).
    pub fn write_file_if_requested(&self, text: &str) -> Result<()> {
        if let Some(path) = &self.path {
            std::fs::write(path, text)
                .map_err(|e| LikwidError::Output(format!("cannot write '{path}': {e}")))?;
        }
        Ok(())
    }
}

/// The outcome of driving one binary invocation through its spec.
pub enum Invocation {
    /// `-h`/`--help` was given; carries the generated help text.
    Help(String),
    /// The report was built and rendered in the selected format.
    Rendered {
        /// The rendered document.
        text: String,
        /// Where the text should go.
        target: OutputTarget,
    },
}

/// Drive one invocation: parse the command line against the spec, resolve
/// the output target, build the report and render it. Shared by the 19
/// binaries of the four tools and of `likwid-bench` (through [`bin_main`])
/// and by the string-level tool front ends ([`crate::cli::run_topology`]
/// and its siblings), so `--trace` and `-o` behave the same on every path.
pub fn drive(
    spec: &ArgSpec,
    args: &[String],
    build: impl FnOnce(&ParsedArgs) -> Result<crate::report::Report>,
) -> Result<Invocation> {
    let parsed = spec.parse(args)?;
    if parsed.help_requested() {
        return Ok(Invocation::Help(spec.help_text()));
    }
    let target = parsed.output()?;
    // Tools whose spec carries `--trace` (see `trace::trace_flag`) record
    // the build; the trace file and stderr rollup never touch the report.
    let trace_sink = crate::trace::begin_cli(&parsed)?;
    let report = match build(&parsed) {
        Ok(report) => report,
        Err(e) => {
            if trace_sink.is_some() {
                let _ = crate::trace::stop();
            }
            return Err(e);
        }
    };
    if let Some(sink) = trace_sink {
        sink.finish()?;
    }
    Ok(Invocation::Rendered { text: target.format.render(&report), target })
}

/// The binary entry point shared by every tool and figure binary: drive the
/// invocation, write the result to stdout or the `-o` file, report errors
/// as `tool-name: message` on stderr. Returns the process exit code.
pub fn bin_main(
    spec: &ArgSpec,
    args: &[String],
    build: impl FnOnce(&ParsedArgs) -> Result<crate::report::Report>,
) -> i32 {
    match drive(spec, args, build) {
        Ok(Invocation::Help(help)) => {
            print!("{help}");
            0
        }
        Ok(Invocation::Rendered { text, target }) => match target.write(&text) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("{}: cannot write output: {e}", spec.tool());
                1
            }
        },
        Err(e) => {
            eprintln!("{}: {e}", spec.tool());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArgSpec {
        ArgSpec::new("likwid-test", "a test tool")
            .machine_flag()
            .flag("-c", None, Some("list"), "cpu list")
            .flag("-g", None, Some("group"), "event group")
            .flag("-a", None, None, "list groups")
            .flag("-e", None, Some("name"), "enable")
            .flag("-u", None, Some("name"), "disable")
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_by_short_and_long_name() {
        let parsed = spec().parse(&args(&["--machine", "core2-quad", "-c", "0-3", "-a"])).unwrap();
        assert_eq!(parsed.value("-M"), Some("core2-quad"));
        assert_eq!(parsed.value("-c"), Some("0-3"));
        assert!(parsed.has("-a"));
        assert!(!parsed.has("-g"));
        assert!(!parsed.help_requested());
    }

    #[test]
    fn flag_shaped_values_are_rejected() {
        // The old scanner happily took "-g" as the cpus expression.
        let err = spec().parse(&args(&["-c", "-g", "MEM"])).unwrap_err();
        assert!(matches!(err, LikwidError::Usage(_)));
        assert!(err.to_string().contains("'-c'"));
        assert!(err.to_string().contains("'-g'"));
    }

    #[test]
    fn missing_values_and_unknown_flags_error() {
        assert!(matches!(spec().parse(&args(&["--machine"])).unwrap_err(), LikwidError::Usage(_)));
        let err = spec().parse(&args(&["-z"])).unwrap_err();
        assert!(err.to_string().contains("unknown option"));
        assert!(matches!(spec().parse(&args(&["stray"])).unwrap_err(), LikwidError::Usage(_)));
    }

    #[test]
    fn occurrences_preserve_command_line_order() {
        let parsed = spec()
            .parse(&args(&["-e", "HW_PREFETCHER", "-u", "HW_PREFETCHER", "-e", "DCU_PREFETCHER"]))
            .unwrap();
        let toggles = parsed.occurrences_of(&["-e", "-u"]);
        assert_eq!(
            toggles,
            vec![
                ("-e", Some("HW_PREFETCHER")),
                ("-u", Some("HW_PREFETCHER")),
                ("-e", Some("DCU_PREFETCHER")),
            ]
        );
        // Last occurrence wins for single-value lookups.
        assert_eq!(parsed.value("-e"), Some("DCU_PREFETCHER"));
    }

    #[test]
    fn positionals_are_collected_and_validated() {
        let many = ArgSpec::new("fig", "sizes").positional("size", "problem size", true);
        let parsed = many.parse(&args(&["32", "48"])).unwrap();
        assert_eq!(parsed.positionals(), &["32".to_string(), "48".to_string()]);

        let single = ArgSpec::new("fig", "samples").positional("samples", "sample count", false);
        assert_eq!(single.parse(&args(&["7"])).unwrap().positional_number(100).unwrap(), 7);
        assert_eq!(single.parse(&args(&[])).unwrap().positional_number(100).unwrap(), 100);
        assert!(single.parse(&args(&["7", "8"])).is_err(), "only one positional allowed");
        assert!(single.parse(&args(&["seven"])).unwrap().positional_number(100).is_err());
    }

    #[test]
    fn help_text_is_generated_from_the_spec() {
        let help = spec().help_text();
        assert!(help.starts_with("likwid-test"));
        assert!(help.contains("a test tool"));
        assert!(help.contains("-M, --machine <preset>"));
        assert!(help.contains("-O <ascii|csv|json>"));
        assert!(help.contains("-o <file>"));
        assert!(help.contains("-h, --help"));
        let parsed = spec().parse(&args(&["-h"])).unwrap();
        assert!(parsed.help_requested());
    }

    #[test]
    fn notes_append_paragraphs_after_the_flag_table() {
        let help = spec().note("A comma-separated -g list multiplexes.").help_text();
        let flags_at = help.find("-h, --help").unwrap();
        let note_at = help.find("A comma-separated -g list multiplexes.").unwrap();
        assert!(note_at > flags_at, "notes come after the options:\n{help}");
        assert!(help.ends_with("multiplexes.\n"));
    }

    #[test]
    fn interval_flags_share_one_validator() {
        let s = ArgSpec::new("t", "t").flag("-t", None, Some("interval"), "sampling interval");
        assert_eq!(s.parse(&args(&[])).unwrap().interval("-t").unwrap(), None);
        assert_eq!(s.parse(&args(&["-t", "1ms"])).unwrap().interval("-t").unwrap(), Some(1e-3));
        assert_eq!(s.parse(&args(&["-t", "250us"])).unwrap().interval("-t").unwrap(), Some(250e-6));
        for bad in ["0", "0ms", "bogus", "", "nan", "inf"] {
            let err = s.parse(&args(&["-t", bad])).unwrap().interval("-t").unwrap_err();
            assert!(matches!(err, LikwidError::Usage(_)), "'{bad}' gave {err:?}");
            assert!(err.to_string().contains("-t"), "error must name the flag: {err}");
        }
        // A leading dash never reaches the validator: the arg parser itself
        // rejects "-1ms" as an unknown flag.
        assert!(s.parse(&args(&["-t", "-1ms"])).is_err());
    }

    #[test]
    fn output_target_resolution() {
        let s = ArgSpec::new("t", "t");
        assert_eq!(
            s.parse(&args(&[])).unwrap().output().unwrap(),
            OutputTarget { format: OutputFormat::Ascii, path: None }
        );
        assert_eq!(
            s.parse(&args(&["-O", "json"])).unwrap().output().unwrap().format,
            OutputFormat::Json
        );
        let inferred = s.parse(&args(&["-o", "out.csv"])).unwrap().output().unwrap();
        assert_eq!(inferred.format, OutputFormat::Csv);
        assert_eq!(inferred.path.as_deref(), Some("out.csv"));
        // -O beats the extension.
        let both = s.parse(&args(&["-O", "ascii", "-o", "out.json"])).unwrap().output().unwrap();
        assert_eq!(both.format, OutputFormat::Ascii);
        assert!(s.parse(&args(&["-O", "xml"])).unwrap().output().is_err());
    }
}
