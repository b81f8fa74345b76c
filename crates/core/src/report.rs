//! The structured report document model.
//!
//! Every tool and figure generator in the suite builds a [`Report`] — a
//! typed document of [`Section`]s holding [`Table`]s, [`KeyValues`] lists or
//! free [`Body::Text`] blocks over typed [`Value`]s — instead of pushing
//! pre-rendered strings. Formatting is a separate, second step: the three
//! renderers behind the [`Render`] trait turn one and the same document into
//!
//! * [`Ascii`] — the classic terminal output (byte-identical to the
//!   listings of the paper; pinned by the golden-file tests),
//! * [`Csv`] — flat machine-readable rows, and
//! * [`Json`] — a lossless serialization that [`Report::from_json`] parses
//!   back into an equal document (round-trip property).
//!
//! The model keeps *data* typed and primary; where today's ASCII output
//! uses a presentation that cannot be derived from the data alone (fixed
//! column widths, unit suffixes, free-form phrases like "Shared among 12
//! threads"), the entry or row carries an explicit ASCII override next to
//! the typed value. Scriptable consumers read the values; the ASCII
//! renderer honours the overrides.

use crate::output;

pub mod stream;

/// A typed scalar in a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An event or occurrence count (rendered like the tool listings:
    /// plain digits up to seven digits, scientific above).
    Count(u64),
    /// A derived metric or other real quantity.
    Real(f64),
    /// Free text.
    Str(String),
    /// An OS hardware-thread (processor) ID.
    CpuId(usize),
    /// A byte quantity (cache sizes, line sizes, data volumes).
    Bytes(u64),
}

impl Value {
    /// Default ASCII rendering of the value (used when no override is set).
    pub fn ascii(&self) -> String {
        match self {
            Value::Count(v) => output::format_count(*v),
            Value::Real(v) => output::format_value(*v),
            Value::Str(s) => s.clone(),
            Value::CpuId(c) => c.to_string(),
            Value::Bytes(b) => b.to_string(),
        }
    }

    /// Raw machine rendering (used by the CSV renderer): counts and byte
    /// quantities print full digits, reals print with round-trip precision.
    pub fn raw(&self) -> String {
        match self {
            Value::Count(v) => v.to_string(),
            Value::Real(v) => format_real(*v),
            Value::Str(s) => s.clone(),
            Value::CpuId(c) => c.to_string(),
            Value::Bytes(b) => b.to_string(),
        }
    }

    /// The count, if this is a [`Value::Count`].
    pub fn as_count(&self) -> Option<u64> {
        match self {
            Value::Count(v) => Some(*v),
            _ => None,
        }
    }

    /// The real value; counts, cpu IDs and byte quantities convert.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Count(v) | Value::Bytes(v) => Some(*v as f64),
            Value::CpuId(c) => Some(*c as f64),
            Value::Str(_) => None,
        }
    }

    /// The string, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The hardware-thread ID, if this is a [`Value::CpuId`].
    pub fn as_cpu_id(&self) -> Option<usize> {
        match self {
            Value::CpuId(c) => Some(*c),
            _ => None,
        }
    }

    /// The byte quantity, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<u64> {
        match self {
            Value::Bytes(b) => Some(*b),
            _ => None,
        }
    }
}

/// One typed table row, with an optional pre-formatted ASCII line that
/// overrides the default cell-by-cell rendering (fixed-width figure rows,
/// tab-separated topology rows, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The typed cells, in column order.
    pub values: Vec<Value>,
    /// Full ASCII line override (without the trailing newline).
    pub ascii: Option<String>,
}

impl Row {
    /// A row from typed values with default ASCII rendering.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values, ascii: None }
    }

    /// Attach an explicit ASCII line.
    pub fn with_ascii(mut self, line: impl Into<String>) -> Self {
        self.ascii = Some(line.into());
        self
    }
}

/// How a table is framed in ASCII output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableStyle {
    /// The bordered `+---+` grid of the `likwid-perfctr` listings; the
    /// header row is derived from the column names.
    Bordered,
    /// Plain lines: an optional explicit header line followed by one line
    /// per row (the figure tables and the topology thread listing).
    Plain,
}

/// A typed table: named columns over typed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Machine-readable column names (CSV header, JSON keys, and — for
    /// [`TableStyle::Bordered`] — the ASCII header row).
    pub columns: Vec<String>,
    /// The data rows.
    pub rows: Vec<Row>,
    /// ASCII framing.
    pub style: TableStyle,
    /// Explicit ASCII header line(s) for [`TableStyle::Plain`] tables
    /// (`None` prints no header line at all).
    pub ascii_header: Option<String>,
}

impl Table {
    /// A bordered table (the `likwid-perfctr` listing style).
    pub fn bordered<S: Into<String>>(columns: Vec<S>) -> Self {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            style: TableStyle::Bordered,
            ascii_header: None,
        }
    }

    /// A plain-line table without an ASCII header line.
    pub fn plain<S: Into<String>>(columns: Vec<S>) -> Self {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            style: TableStyle::Plain,
            ascii_header: None,
        }
    }

    /// Set the explicit ASCII header line of a plain table.
    pub fn with_ascii_header(mut self, header: impl Into<String>) -> Self {
        self.ascii_header = Some(header.into());
        self
    }

    /// Append a row.
    pub fn push(&mut self, row: Row) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The row whose first cell is `Value::Str(key)` (event names, metric
    /// names, variant names, … label the rows of every tool table).
    pub fn row_by_key(&self, key: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.values.first().and_then(Value::as_str) == Some(key))
    }

    /// Typed lookup: the cell of the row labelled `row_key` in `column`.
    pub fn cell(&self, row_key: &str, column: &str) -> Option<&Value> {
        let col = self.column_index(column)?;
        self.row_by_key(row_key)?.values.get(col)
    }
}

/// One key/value entry, with an optional ASCII line override for free-form
/// phrasings ("Shared among 12 threads", "CPU clock: 2.93 GHz").
#[derive(Debug, Clone, PartialEq)]
pub struct KvEntry {
    /// Machine-readable key.
    pub key: String,
    /// Typed value.
    pub value: Value,
    /// Full ASCII line override (without the trailing newline); defaults to
    /// `key: value`.
    pub ascii: Option<String>,
}

impl KvEntry {
    /// An entry with default `key: value` ASCII rendering.
    pub fn new(key: impl Into<String>, value: Value) -> Self {
        KvEntry { key: key.into(), value, ascii: None }
    }

    /// Attach an explicit ASCII line.
    pub fn with_ascii(mut self, line: impl Into<String>) -> Self {
        self.ascii = Some(line.into());
        self
    }
}

/// One named series of a [`TimeSeries`] body: the per-interval values of a
/// metric (or raw event) on one measured hardware thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric or event name.
    pub metric: String,
    /// The OS hardware-thread ID the series was measured on.
    pub cpu: usize,
    /// One value per timestamp of the owning [`TimeSeries`].
    pub values: Vec<f64>,
}

impl Series {
    /// A new series.
    pub fn new(metric: impl Into<String>, cpu: usize, values: Vec<f64>) -> Self {
        Series { metric: metric.into(), cpu, values }
    }
}

/// A time-resolved measurement: one shared timestamp axis (interval end
/// times in seconds since measurement start) plus named per-metric series.
/// The ASCII renderer prints a compact value table with a trailing
/// sparkline per series; the CSV renderer emits long-format
/// `time,metric,cpu,value` rows; JSON round-trips losslessly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Interval end timestamps in seconds.
    pub timestamps: Vec<f64>,
    /// The series, in display order.
    pub series: Vec<Series>,
}

impl TimeSeries {
    /// The series of a metric on one cpu.
    pub fn series_for(&self, metric: &str, cpu: usize) -> Option<&Series> {
        self.series.iter().find(|s| s.metric == metric && s.cpu == cpu)
    }
}

/// The content of a section.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A typed table.
    Table(Table),
    /// A list of key/value entries.
    KeyValues(Vec<KvEntry>),
    /// A free text block, rendered verbatim by the ASCII renderer (ASCII
    /// art, pre-laid-out listings).
    Text(String),
    /// A time-resolved measurement (timeline mode).
    TimeSeries(TimeSeries),
}

/// How a section announces itself in ASCII output.
#[derive(Debug, Clone, PartialEq)]
pub enum Heading {
    /// No heading line.
    None,
    /// A single heading line (`Region: Init`, `Figure 5: …`).
    Line(String),
    /// A title framed by heavy rules (`likwid-topology`'s
    /// `Hardware Thread Topology` banner).
    Boxed(String),
}

/// One section of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Machine-readable section identifier (JSON/CSV key).
    pub id: String,
    /// ASCII heading.
    pub heading: Heading,
    /// Print a rule line before the body (after the heading).
    pub rule_before: bool,
    /// Print a rule line after the body.
    pub rule_after: bool,
    /// The content.
    pub body: Body,
}

impl Section {
    /// A heading-less section.
    pub fn new(id: impl Into<String>, body: Body) -> Self {
        Section {
            id: id.into(),
            heading: Heading::None,
            rule_before: false,
            rule_after: false,
            body,
        }
    }

    /// Set a single-line heading.
    pub fn with_heading(mut self, line: impl Into<String>) -> Self {
        self.heading = Heading::Line(line.into());
        self
    }

    /// Set a heavy-rule boxed heading.
    pub fn with_boxed_heading(mut self, title: impl Into<String>) -> Self {
        self.heading = Heading::Boxed(title.into());
        self
    }

    /// Print a rule before the body.
    pub fn with_rule_before(mut self) -> Self {
        self.rule_before = true;
        self
    }

    /// Print a rule after the body.
    pub fn with_rule_after(mut self) -> Self {
        self.rule_after = true;
        self
    }
}

/// A structured tool report: the typed document every tool and figure
/// generator produces, and every renderer consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The producing tool or figure (metadata; not part of ASCII output).
    pub title: String,
    /// The sections, in output order.
    pub sections: Vec<Section>,
}

impl Report {
    /// An empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report { title: title.into(), sections: Vec::new() }
    }

    /// Append a section.
    pub fn push(&mut self, section: Section) -> &mut Self {
        self.sections.push(section);
        self
    }

    /// Append all sections of another report (used by front ends that
    /// prepend their own sections to a tool's report).
    pub fn extend(&mut self, other: Report) -> &mut Self {
        self.sections.extend(other.sections);
        self
    }

    /// The first section with the given id.
    pub fn section(&self, id: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.id == id)
    }

    /// The table body of the section with the given id.
    pub fn table(&self, id: &str) -> Option<&Table> {
        match &self.section(id)?.body {
            Body::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The value of a key in a key/value section. Returns the first match;
    /// sections may repeat a key (e.g. several socket-lock owners), in which
    /// case [`Report::values`] lists them all.
    pub fn value(&self, section_id: &str, key: &str) -> Option<&Value> {
        match &self.section(section_id)?.body {
            Body::KeyValues(entries) => entries.iter().find(|e| e.key == key).map(|e| &e.value),
            _ => None,
        }
    }

    /// All values of a (possibly repeated) key in a key/value section.
    pub fn values<'a>(&'a self, section_id: &str, key: &'a str) -> Vec<&'a Value> {
        match self.section(section_id).map(|s| &s.body) {
            Some(Body::KeyValues(entries)) => {
                entries.iter().filter(|e| e.key == key).map(|e| &e.value).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Parse a report back from its [`Json`] rendering (the round-trip
    /// property the golden tests pin: `from_json(Json.render(r)) == r`).
    pub fn from_json(text: &str) -> Result<Report, String> {
        json::parse_report(text)
    }
}

/// Round-trip rendering of a real: shortest decimal that parses back to the
/// same bits (Rust's `Display` guarantee); non-finite values use the
/// conventional spellings.
fn format_real(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "inf".to_string()
        } else {
            "-inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

/// A report renderer.
pub trait Render {
    /// Render the document to its output text.
    fn render(&self, report: &Report) -> String;
}

/// The output format selected on a tool command line (`-O`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Classic terminal output.
    #[default]
    Ascii,
    /// Flat comma-separated rows.
    Csv,
    /// Lossless JSON document.
    Json,
}

impl OutputFormat {
    /// Parse a `-O` argument.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ascii" => Some(OutputFormat::Ascii),
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            _ => None,
        }
    }

    /// Infer the format from an output file extension (`-o out.json`).
    pub fn from_extension(path: &str) -> Option<Self> {
        let ext = path.rsplit_once('.')?.1;
        match ext {
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            "txt" => Some(OutputFormat::Ascii),
            _ => None,
        }
    }

    /// Render a report in this format.
    pub fn render(&self, report: &Report) -> String {
        match self {
            OutputFormat::Ascii => Ascii.render(report),
            OutputFormat::Csv => Csv.render(report),
            OutputFormat::Json => Json.render(report),
        }
    }
}

/// Eight-level sparkline of a series (`▁▂▃▄▅▆▇█`), scaled to its own
/// min/max; non-finite values print as spaces, a constant series as `▄`.
fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                ' '
            } else if max <= min {
                LEVELS[3]
            } else {
                let level = ((v - min) / (max - min) * 7.0).round() as usize;
                LEVELS[level.min(7)]
            }
        })
        .collect()
}

/// Render a [`TimeSeries`] body: a `time[s]` header row, one aligned value
/// row per series, and a trailing sparkline per row.
fn render_time_series(out: &mut String, ts: &TimeSeries) {
    const TIME_LABEL: &str = "time[s]";
    let labels: Vec<String> =
        ts.series.iter().map(|s| format!("{} core {}", s.metric, s.cpu)).collect();
    let label_w =
        labels.iter().map(String::len).chain(std::iter::once(TIME_LABEL.len())).max().unwrap_or(0);
    let time_cells: Vec<String> = ts.timestamps.iter().map(|&t| output::format_value(t)).collect();
    let value_cells: Vec<Vec<String>> = ts
        .series
        .iter()
        .map(|s| s.values.iter().map(|&v| output::format_value(v)).collect())
        .collect();
    let widths: Vec<usize> = (0..ts.timestamps.len())
        .map(|j| {
            value_cells
                .iter()
                .filter_map(|row| row.get(j).map(String::len))
                .chain(std::iter::once(time_cells[j].len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    out.push_str(&format!("{TIME_LABEL:<label_w$}"));
    for (j, cell) in time_cells.iter().enumerate() {
        out.push_str(&format!("  {cell:>w$}", w = widths[j]));
    }
    out.push('\n');
    for (i, s) in ts.series.iter().enumerate() {
        out.push_str(&format!("{:<label_w$}", labels[i]));
        // A malformed document (hand-written JSON) may carry more values
        // than timestamps; render only the timestamped columns.
        for (j, cell) in value_cells[i].iter().enumerate().take(widths.len()) {
            out.push_str(&format!("  {cell:>w$}", w = widths[j]));
        }
        out.push_str("  ");
        out.push_str(&sparkline(&s.values));
        out.push('\n');
    }
}

/// The classic terminal renderer. Byte-identical to the pre-report string
/// output of every tool (pinned by `tests/report_golden.rs`).
pub struct Ascii;

impl Render for Ascii {
    fn render(&self, report: &Report) -> String {
        let mut out = String::new();
        for section in &report.sections {
            match &section.heading {
                Heading::None => {}
                Heading::Line(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                Heading::Boxed(title) => {
                    out.push_str(&output::heavy_rule());
                    out.push('\n');
                    out.push_str(title);
                    out.push('\n');
                    out.push_str(&output::heavy_rule());
                    out.push('\n');
                }
            }
            if section.rule_before {
                out.push_str(&output::rule());
                out.push('\n');
            }
            match &section.body {
                Body::KeyValues(entries) => {
                    for entry in entries {
                        match &entry.ascii {
                            Some(line) => out.push_str(line),
                            None => {
                                out.push_str(&entry.key);
                                out.push_str(": ");
                                out.push_str(&entry.value.ascii());
                            }
                        }
                        out.push('\n');
                    }
                }
                Body::Table(table) => match table.style {
                    TableStyle::Bordered => {
                        let mut grid = output::Table::new(table.columns.clone());
                        for row in &table.rows {
                            grid.add_row(row.values.iter().map(Value::ascii).collect::<Vec<_>>());
                        }
                        out.push_str(&grid.render());
                    }
                    TableStyle::Plain => {
                        if let Some(header) = &table.ascii_header {
                            out.push_str(header);
                            out.push('\n');
                        }
                        for row in &table.rows {
                            match &row.ascii {
                                Some(line) => out.push_str(line),
                                None => out.push_str(
                                    &row.values
                                        .iter()
                                        .map(Value::ascii)
                                        .collect::<Vec<_>>()
                                        .join("  "),
                                ),
                            }
                            out.push('\n');
                        }
                    }
                },
                Body::Text(text) => out.push_str(text),
                Body::TimeSeries(ts) => render_time_series(&mut out, ts),
            }
            if section.rule_after {
                out.push_str(&output::rule());
                out.push('\n');
            }
        }
        out
    }
}

/// Escape one CSV field.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The CSV renderer. Each section starts with a `SECTION,<id>` marker line;
/// key/value sections emit one `key,value` line per entry, tables emit the
/// column-name header followed by one raw-value line per row, and text
/// blocks emit one quoted `text,…` line. Values print in raw machine form
/// (full digits, round-trip reals), never the ASCII presentation.
pub struct Csv;

impl Render for Csv {
    fn render(&self, report: &Report) -> String {
        let mut out = String::new();
        for section in &report.sections {
            out.push_str("SECTION,");
            out.push_str(&csv_field(&section.id));
            out.push('\n');
            match &section.body {
                Body::KeyValues(entries) => {
                    for entry in entries {
                        out.push_str(&csv_field(&entry.key));
                        out.push(',');
                        out.push_str(&csv_field(&entry.value.raw()));
                        out.push('\n');
                    }
                }
                Body::Table(table) => {
                    out.push_str(
                        &table.columns.iter().map(|c| csv_field(c)).collect::<Vec<_>>().join(","),
                    );
                    out.push('\n');
                    for row in &table.rows {
                        out.push_str(
                            &row.values
                                .iter()
                                .map(|v| csv_field(&v.raw()))
                                .collect::<Vec<_>>()
                                .join(","),
                        );
                        out.push('\n');
                    }
                }
                Body::Text(text) => {
                    out.push_str("text,");
                    out.push_str(&csv_field(text));
                    out.push('\n');
                }
                Body::TimeSeries(ts) => {
                    out.push_str("time,metric,cpu,value\n");
                    for (j, &t) in ts.timestamps.iter().enumerate() {
                        for s in &ts.series {
                            let Some(&v) = s.values.get(j) else { continue };
                            out.push_str(&csv_field(&format_real(t)));
                            out.push(',');
                            out.push_str(&csv_field(&s.metric));
                            out.push_str(&format!(",{},", s.cpu));
                            out.push_str(&csv_field(&format_real(v)));
                            out.push('\n');
                        }
                    }
                }
            }
        }
        out
    }
}

/// The JSON renderer: a lossless serialization of the document (typed
/// values, headings, rules and ASCII overrides included), hand-rolled so
/// the workspace stays dependency-free. [`Report::from_json`] parses the
/// output back into an equal `Report`.
pub struct Json;

impl Render for Json {
    fn render(&self, report: &Report) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"title\": ");
        json::write_string(&mut out, &report.title);
        out.push_str(",\n  \"sections\": [");
        for (i, section) in report.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_section(&mut out, section);
        }
        if !report.sections.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Hand-rolled JSON writer and reader for [`Report`] documents.
mod json {
    use super::{
        Body, Heading, KvEntry, Report, Row, Section, Series, Table, TableStyle, TimeSeries, Value,
    };

    pub(super) fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_value(out: &mut String, value: &Value) {
        match value {
            Value::Count(v) => out.push_str(&format!("{{\"type\":\"count\",\"v\":{v}}}")),
            Value::Real(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{{\"type\":\"real\",\"v\":{v}}}"));
                } else {
                    out.push_str("{\"type\":\"real\",\"v\":");
                    write_string(out, &super::format_real(*v));
                    out.push('}');
                }
            }
            Value::Str(s) => {
                out.push_str("{\"type\":\"str\",\"v\":");
                write_string(out, s);
                out.push('}');
            }
            Value::CpuId(c) => out.push_str(&format!("{{\"type\":\"cpu\",\"v\":{c}}}")),
            Value::Bytes(b) => out.push_str(&format!("{{\"type\":\"bytes\",\"v\":{b}}}")),
        }
    }

    fn write_opt_string(out: &mut String, s: &Option<String>) {
        match s {
            Some(s) => write_string(out, s),
            None => out.push_str("null"),
        }
    }

    /// A raw f64 array element: a JSON number for finite values, the
    /// conventional string spelling for NaN/±inf.
    fn write_real_token(out: &mut String, v: f64) {
        if v.is_finite() {
            out.push_str(&format!("{v}"));
        } else {
            write_string(out, &super::format_real(v));
        }
    }

    fn write_real_array(out: &mut String, values: &[f64]) {
        out.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_real_token(out, v);
        }
        out.push(']');
    }

    pub(super) fn write_section(out: &mut String, section: &Section) {
        out.push_str("{\"id\":");
        write_string(out, &section.id);
        out.push_str(",\"heading\":");
        match &section.heading {
            Heading::None => out.push_str("null"),
            Heading::Line(s) => {
                out.push_str("{\"kind\":\"line\",\"text\":");
                write_string(out, s);
                out.push('}');
            }
            Heading::Boxed(s) => {
                out.push_str("{\"kind\":\"boxed\",\"text\":");
                write_string(out, s);
                out.push('}');
            }
        }
        out.push_str(&format!(
            ",\"rule_before\":{},\"rule_after\":{},\"body\":",
            section.rule_before, section.rule_after
        ));
        match &section.body {
            Body::KeyValues(entries) => {
                out.push_str("{\"kind\":\"keyvalues\",\"entries\":[");
                for (i, e) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"key\":");
                    write_string(out, &e.key);
                    out.push_str(",\"value\":");
                    write_value(out, &e.value);
                    out.push_str(",\"ascii\":");
                    write_opt_string(out, &e.ascii);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Body::Table(table) => {
                out.push_str("{\"kind\":\"table\",\"style\":");
                write_string(
                    out,
                    match table.style {
                        TableStyle::Bordered => "bordered",
                        TableStyle::Plain => "plain",
                    },
                );
                out.push_str(",\"columns\":[");
                for (i, c) in table.columns.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, c);
                }
                out.push_str("],\"ascii_header\":");
                write_opt_string(out, &table.ascii_header);
                out.push_str(",\"rows\":[");
                for (i, row) in table.rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"values\":[");
                    for (j, v) in row.values.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        write_value(out, v);
                    }
                    out.push_str("],\"ascii\":");
                    write_opt_string(out, &row.ascii);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Body::Text(text) => {
                out.push_str("{\"kind\":\"text\",\"text\":");
                write_string(out, text);
                out.push('}');
            }
            Body::TimeSeries(ts) => {
                out.push_str("{\"kind\":\"timeseries\",\"timestamps\":");
                write_real_array(out, &ts.timestamps);
                out.push_str(",\"series\":[");
                for (i, s) in ts.series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"metric\":");
                    write_string(out, &s.metric);
                    out.push_str(&format!(",\"cpu\":{},\"values\":", s.cpu));
                    write_real_array(out, &s.values);
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
        out.push('}');
    }

    /// A parsed generic JSON value. Numbers keep their raw token so 64-bit
    /// counts survive without a detour through `f64`.
    #[derive(Debug, Clone, PartialEq)]
    enum JsonValue {
        Null,
        Bool(bool),
        Num(String),
        Str(String),
        Array(Vec<JsonValue>),
        Object(Vec<(String, JsonValue)>),
    }

    impl JsonValue {
        fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::Str(s) => Some(s),
                _ => None,
            }
        }

        fn as_array(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Array(items) => Some(items),
                _ => None,
            }
        }

        fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        fn as_opt_string(&self) -> Result<Option<String>, String> {
            match self {
                JsonValue::Null => Ok(None),
                JsonValue::Str(s) => Ok(Some(s.clone())),
                _ => Err("expected string or null".into()),
            }
        }
    }

    /// Deepest array/object nesting the parser accepts. It recurses once
    /// per level, so the bound keeps a hostile document from overflowing
    /// the stack; a report nests only a few levels.
    pub(super) const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn new(text: &'a str) -> Self {
            Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
        }

        fn error(&self, msg: &str) -> String {
            format!("JSON parse error at byte {}: {msg}", self.pos)
        }

        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(&format!("expected '{}'", c as char)))
            }
        }

        fn parse_value(&mut self) -> Result<JsonValue, String> {
            match self.peek() {
                Some(b'{') => self.nested(Self::parse_object),
                Some(b'[') => self.nested(Self::parse_array),
                Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
                Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
                Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
                Some(b'n') => self.parse_keyword("null", JsonValue::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
                _ => Err(self.error("expected a value")),
            }
        }

        /// Parse an array or object one level deeper, refusing to pass
        /// [`MAX_DEPTH`].
        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<JsonValue, String>,
        ) -> Result<JsonValue, String> {
            if self.depth == MAX_DEPTH {
                return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
            }
            self.depth += 1;
            let value = parse(self);
            self.depth -= 1;
            value
        }

        fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.error(&format!("expected '{word}'")))
            }
        }

        fn parse_number(&mut self) -> Result<JsonValue, String> {
            self.skip_ws();
            let start = self.pos;
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(self.error("expected a number"));
            }
            Ok(JsonValue::Num(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("bad number"))?
                    .to_string(),
            ))
        }

        fn parse_hex4(&mut self) -> Result<u32, String> {
            let hex = self
                .bytes
                .get(self.pos..self.pos + 4)
                .and_then(|h| std::str::from_utf8(h).ok())
                .ok_or_else(|| self.error("bad \\u escape"))?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
            self.pos += 4;
            Ok(code)
        }

        fn parse_string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let Some(&c) = self.bytes.get(self.pos) else {
                    return Err(self.error("unterminated string"));
                };
                self.pos += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(&esc) = self.bytes.get(self.pos) else {
                            return Err(self.error("unterminated escape"));
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let code = self.parse_hex4()?;
                                let ch = if (0xD800..0xDC00).contains(&code) {
                                    // High surrogate: serializers that force
                                    // ASCII (e.g. Python's json) encode
                                    // non-BMP characters as surrogate pairs.
                                    if self.bytes.get(self.pos) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(self.error("lone high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.error("bad surrogate pair"))?
                                } else if (0xDC00..0xE000).contains(&code) {
                                    return Err(self.error("lone low surrogate"));
                                } else {
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("bad \\u code point"))?
                                };
                                out.push(ch);
                            }
                            _ => return Err(self.error("unknown escape")),
                        }
                    }
                    _ => {
                        // Continue a multi-byte UTF-8 sequence verbatim.
                        let len = utf8_len(c);
                        let chunk = self
                            .bytes
                            .get(self.pos - 1..self.pos - 1 + len)
                            .ok_or_else(|| self.error("truncated UTF-8"))?;
                        out.push_str(
                            std::str::from_utf8(chunk).map_err(|_| self.error("bad UTF-8"))?,
                        );
                        self.pos += len - 1;
                    }
                }
            }
        }

        fn parse_array(&mut self) -> Result<JsonValue, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(self.parse_value()?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(self.error("expected ',' or ']'")),
                }
            }
        }

        fn parse_object(&mut self) -> Result<JsonValue, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.expect(b':')?;
                let value = self.parse_value()?;
                fields.push((key, value));
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(self.error("expected ',' or '}'")),
                }
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0xF0..=0xF7 => 4,
            0xE0..=0xEF => 3,
            0xC0..=0xDF => 2,
            _ => 1,
        }
    }

    fn read_real_token(v: &JsonValue) -> Result<f64, String> {
        match v {
            JsonValue::Num(raw) => raw.parse().map_err(|_| format!("bad real '{raw}'")),
            JsonValue::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                other => Err(format!("bad non-finite real '{other}'")),
            },
            _ => Err("expected a real number".into()),
        }
    }

    fn read_real_array(v: &JsonValue) -> Result<Vec<f64>, String> {
        v.as_array()
            .ok_or_else(|| "expected an array of reals".to_string())?
            .iter()
            .map(read_real_token)
            .collect()
    }

    fn read_value(v: &JsonValue) -> Result<Value, String> {
        let kind = v
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "value without a type".to_string())?;
        let payload = v.get("v").ok_or_else(|| "value without a payload".to_string())?;
        match kind {
            "count" | "cpu" | "bytes" => {
                let JsonValue::Num(raw) = payload else {
                    return Err(format!("{kind} payload must be a number"));
                };
                let n: u64 = raw.parse().map_err(|_| format!("bad {kind} '{raw}'"))?;
                Ok(match kind {
                    "count" => Value::Count(n),
                    "cpu" => Value::CpuId(n as usize),
                    _ => Value::Bytes(n),
                })
            }
            "real" => Ok(Value::Real(read_real_token(payload)?)),
            "str" => Ok(Value::Str(
                payload.as_str().ok_or_else(|| "str payload must be a string".to_string())?.into(),
            )),
            other => Err(format!("unknown value type '{other}'")),
        }
    }

    fn read_section(v: &JsonValue) -> Result<Section, String> {
        let id = v
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "section without an id".to_string())?
            .to_string();
        let heading = match v.get("heading") {
            None | Some(JsonValue::Null) => Heading::None,
            Some(h) => {
                let text = h
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "heading without text".to_string())?
                    .to_string();
                match h.get("kind").and_then(JsonValue::as_str) {
                    Some("line") => Heading::Line(text),
                    Some("boxed") => Heading::Boxed(text),
                    _ => return Err("unknown heading kind".into()),
                }
            }
        };
        let rule_before = v.get("rule_before").and_then(JsonValue::as_bool).unwrap_or(false);
        let rule_after = v.get("rule_after").and_then(JsonValue::as_bool).unwrap_or(false);
        let body_json = v.get("body").ok_or_else(|| "section without a body".to_string())?;
        let body = match body_json.get("kind").and_then(JsonValue::as_str) {
            Some("keyvalues") => {
                let entries = body_json
                    .get("entries")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "keyvalues without entries".to_string())?;
                let mut out = Vec::with_capacity(entries.len());
                for e in entries {
                    out.push(KvEntry {
                        key: e
                            .get("key")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| "entry without a key".to_string())?
                            .to_string(),
                        value: read_value(
                            e.get("value").ok_or_else(|| "entry without a value".to_string())?,
                        )?,
                        ascii: e.get("ascii").map(JsonValue::as_opt_string).transpose()?.flatten(),
                    });
                }
                Body::KeyValues(out)
            }
            Some("table") => {
                let style = match body_json.get("style").and_then(JsonValue::as_str) {
                    Some("bordered") => TableStyle::Bordered,
                    Some("plain") => TableStyle::Plain,
                    _ => return Err("unknown table style".into()),
                };
                let columns = body_json
                    .get("columns")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "table without columns".to_string())?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "column names must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let ascii_header = body_json
                    .get("ascii_header")
                    .map(JsonValue::as_opt_string)
                    .transpose()?
                    .flatten();
                let mut rows = Vec::new();
                for r in body_json
                    .get("rows")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "table without rows".to_string())?
                {
                    let values = r
                        .get("values")
                        .and_then(JsonValue::as_array)
                        .ok_or_else(|| "row without values".to_string())?
                        .iter()
                        .map(read_value)
                        .collect::<Result<Vec<_>, _>>()?;
                    let ascii = r.get("ascii").map(JsonValue::as_opt_string).transpose()?.flatten();
                    rows.push(Row { values, ascii });
                }
                Body::Table(Table { columns, rows, style, ascii_header })
            }
            Some("text") => Body::Text(
                body_json
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "text body without text".to_string())?
                    .to_string(),
            ),
            Some("timeseries") => {
                let timestamps = read_real_array(
                    body_json
                        .get("timestamps")
                        .ok_or_else(|| "timeseries without timestamps".to_string())?,
                )?;
                let mut series = Vec::new();
                for s in body_json
                    .get("series")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "timeseries without series".to_string())?
                {
                    let metric = s
                        .get("metric")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| "series without a metric name".to_string())?
                        .to_string();
                    let cpu: usize = match s.get("cpu") {
                        Some(JsonValue::Num(raw)) => {
                            raw.parse().map_err(|_| format!("bad series cpu '{raw}'"))?
                        }
                        _ => return Err("series without a cpu".into()),
                    };
                    let values = read_real_array(
                        s.get("values").ok_or_else(|| "series without values".to_string())?,
                    )?;
                    series.push(Series { metric, cpu, values });
                }
                Body::TimeSeries(TimeSeries { timestamps, series })
            }
            _ => return Err("unknown body kind".into()),
        };
        Ok(Section { id, heading, rule_before, rule_after, body })
    }

    pub(super) fn parse_report(text: &str) -> Result<Report, String> {
        let mut parser = Parser::new(text);
        let root = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing data after document"));
        }
        let title = root
            .get("title")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "report without a title".to_string())?
            .to_string();
        let sections = root
            .get("sections")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "report without sections".to_string())?
            .iter()
            .map(read_section)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report { title, sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut report = Report::new("sample");
        report.push(
            Section::new(
                "identification",
                Body::KeyValues(vec![
                    KvEntry::new("CPU name", Value::Str("Test CPU".into())),
                    KvEntry::new("CPU clock", Value::Real(2.93)).with_ascii("CPU clock: 2.93 GHz"),
                    KvEntry::new("L3 size", Value::Bytes(12 * 1024 * 1024))
                        .with_ascii("Size: 12 MB"),
                ]),
            )
            .with_rule_before(),
        );
        let mut events = Table::bordered(vec!["Event", "core 0", "core 1"]);
        events.push(Row::new(vec![
            Value::Str("INSTR_RETIRED_ANY".into()),
            Value::Count(313742),
            Value::Count(18_802_400),
        ]));
        report.push(Section::new("events", Body::Table(events)));
        let mut series =
            Table::plain(vec!["threads", "median"]).with_ascii_header("threads  median[MB/s]");
        series.push(
            Row::new(vec![Value::Count(4), Value::Real(38000.0)]).with_ascii("      4       38000"),
        );
        report.push(
            Section::new("series", Body::Table(series)).with_heading("Figure 5: STREAM triad"),
        );
        report.push(
            Section::new("art", Body::Text("+---+\n| 0 |\n+---+\n".into()))
                .with_boxed_heading("Cache Topology"),
        );
        report
    }

    #[test]
    fn ascii_rendering_honours_overrides_and_frames() {
        let text = Ascii.render(&sample_report());
        assert!(text.starts_with(&format!("{}\n", output::rule())));
        assert!(text.contains("CPU name: Test CPU\n"));
        assert!(text.contains("CPU clock: 2.93 GHz\n"), "override wins over default formatting");
        assert!(text.contains("Size: 12 MB\n"));
        assert!(text.contains("| INSTR_RETIRED_ANY | 313742 | 1.88024e+07 |"));
        assert!(
            text.contains("Figure 5: STREAM triad\nthreads  median[MB/s]\n      4       38000\n")
        );
        assert!(text.contains(&format!(
            "{}\nCache Topology\n{}\n",
            output::heavy_rule(),
            output::heavy_rule()
        )));
        assert!(text.ends_with("+---+\n| 0 |\n+---+\n"));
    }

    #[test]
    fn csv_rendering_uses_raw_values() {
        let csv = Csv.render(&sample_report());
        assert!(csv.contains("SECTION,identification\n"));
        assert!(csv.contains("CPU clock,2.93\n"), "raw value, not the GHz phrasing");
        assert!(csv.contains("L3 size,12582912\n"), "bytes stay full digits");
        assert!(csv.contains("Event,core 0,core 1\n"));
        assert!(csv.contains("INSTR_RETIRED_ANY,313742,18802400\n"), "counts never go scientific");
        assert!(csv.contains("text,\"+---+\n| 0 |\n+---+\n\""));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut report = Report::new("csv");
        report.push(Section::new(
            "kv",
            Body::KeyValues(vec![KvEntry::new("groups", Value::Str("( 0, 1 ) \"both\"".into()))]),
        ));
        let csv = Csv.render(&report);
        assert!(csv.contains("groups,\"( 0, 1 ) \"\"both\"\"\"\n"));
    }

    #[test]
    fn json_round_trips_the_document() {
        let report = sample_report();
        let json = Json.render(&report);
        let parsed = Report::from_json(&json).expect("parse back");
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_round_trips_awkward_values() {
        let mut report = Report::new("edge \"cases\"\n\t");
        report.push(Section::new(
            "kv",
            Body::KeyValues(vec![
                KvEntry::new("huge", Value::Count(u64::MAX)),
                KvEntry::new("tiny", Value::Real(7.679_06e-5)),
                KvEntry::new("negative", Value::Real(-0.5)),
                KvEntry::new("inf", Value::Real(f64::INFINITY)),
                KvEntry::new("ninf", Value::Real(f64::NEG_INFINITY)),
                KvEntry::new("unicode", Value::Str("Größe 12 µm — done".into())),
                KvEntry::new("cpu", Value::CpuId(23)),
            ]),
        ));
        report.push(Section::new("empty", Body::KeyValues(Vec::new())));
        let parsed = Report::from_json(&Json.render(&report)).expect("parse back");
        assert_eq!(parsed, report);
        assert_eq!(parsed.value("kv", "huge").unwrap().as_count(), Some(u64::MAX));
        assert_eq!(parsed.value("kv", "tiny").unwrap().as_real(), Some(7.679_06e-5));
    }

    #[test]
    fn json_parser_decodes_surrogate_pair_escapes() {
        // ASCII-forcing serializers (Python's json with ensure_ascii=True)
        // encode non-BMP characters as UTF-16 surrogate pairs.
        let doc = "{\"title\":\"\\ud835\\udc65\",\"sections\":[]}";
        assert_eq!(Report::from_json(doc).unwrap().title, "\u{1d465}");
        assert!(Report::from_json("{\"title\":\"\\ud835\",\"sections\":[]}").is_err());
        assert!(Report::from_json("{\"title\":\"\\ud835x\",\"sections\":[]}").is_err());
        assert!(Report::from_json("{\"title\":\"\\udc65\",\"sections\":[]}").is_err());
        assert!(Report::from_json("{\"title\":\"\\ud835\\ud835\",\"sections\":[]}").is_err());
    }

    #[test]
    fn json_parser_bounds_nesting() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let doc = |sections: &str| format!("{{\"title\":\"x\",\"sections\":{sections}}}");
        // The root object is one of the levels.
        let err = Report::from_json(&doc(&nest(json::MAX_DEPTH))).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = Report::from_json(&doc(&nest(json::MAX_DEPTH - 1))).unwrap_err();
        assert!(!err.contains("nesting"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(Report::from_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("{\"title\":\"x\"}").is_err(), "sections required");
        assert!(Report::from_json("{\"title\":\"x\",\"sections\":[]}{}").is_err(), "trailing data");
        assert!(Report::from_json("[1,2,3]").is_err());
    }

    #[test]
    fn typed_lookups_find_cells_and_values() {
        let report = sample_report();
        let events = report.table("events").expect("events table");
        assert_eq!(
            events.cell("INSTR_RETIRED_ANY", "core 1").unwrap().as_count(),
            Some(18_802_400)
        );
        assert!(events.cell("INSTR_RETIRED_ANY", "core 9").is_none());
        assert!(events.cell("NOT_AN_EVENT", "core 0").is_none());
        assert_eq!(report.value("identification", "CPU clock").unwrap().as_real(), Some(2.93));
        assert!(report.value("identification", "missing").is_none());
        assert!(report.section("missing").is_none());
    }

    #[test]
    fn output_format_selection_and_inference() {
        assert_eq!(OutputFormat::parse("ascii"), Some(OutputFormat::Ascii));
        assert_eq!(OutputFormat::parse("csv"), Some(OutputFormat::Csv));
        assert_eq!(OutputFormat::parse("json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::parse("xml"), None);
        assert_eq!(OutputFormat::from_extension("out.json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::from_extension("out.csv"), Some(OutputFormat::Csv));
        assert_eq!(OutputFormat::from_extension("out.txt"), Some(OutputFormat::Ascii));
        assert_eq!(OutputFormat::from_extension("out"), None);
    }

    fn sample_time_series() -> TimeSeries {
        TimeSeries {
            timestamps: vec![0.001, 0.002, 0.003, 0.004],
            series: vec![
                Series::new("Memory bandwidth [MBytes/s]", 0, vec![20480.0, 64.0, 20480.0, 64.0]),
                Series::new("CPI", 1, vec![1.5, 1.5, 1.5, 1.5]),
            ],
        }
    }

    #[test]
    fn time_series_ascii_prints_table_and_sparkline() {
        let mut report = Report::new("tl");
        report.push(Section::new("timeseries", Body::TimeSeries(sample_time_series())));
        let text = Ascii.render(&report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header plus one line per series:\n{text}");
        assert!(lines[0].starts_with("time[s]"));
        assert!(lines[0].contains("0.001") && lines[0].contains("0.004"));
        assert!(lines[1].starts_with("Memory bandwidth [MBytes/s] core 0"));
        assert!(lines[1].ends_with("█▁█▁"), "alternating series sparkline: {}", lines[1]);
        assert!(lines[2].starts_with("CPI core 1"));
        assert!(lines[2].ends_with("▄▄▄▄"), "constant series sparkline: {}", lines[2]);
        // Columns align: every value column is right-aligned under its
        // timestamp, so the header and rows share the table width up to the
        // sparkline suffix.
        let data_width = lines[0].len();
        assert!(lines[1].chars().count() > data_width, "sparkline extends past the table");
    }

    #[test]
    fn time_series_csv_uses_long_format() {
        let mut report = Report::new("tl");
        report.push(Section::new("timeseries", Body::TimeSeries(sample_time_series())));
        let csv = Csv.render(&report);
        assert!(csv.starts_with("SECTION,timeseries\ntime,metric,cpu,value\n"));
        assert!(csv.contains("0.001,Memory bandwidth [MBytes/s],0,20480\n"));
        assert!(csv.contains("0.001,CPI,1,1.5\n"));
        assert!(csv.contains("0.004,Memory bandwidth [MBytes/s],0,64\n"));
        // One record per (timestamp, series) pair plus the two headers.
        assert_eq!(csv.lines().count(), 2 + 4 * 2);
    }

    #[test]
    fn time_series_json_round_trips() {
        let mut report = Report::new("tl");
        report.push(
            Section::new("timeseries", Body::TimeSeries(sample_time_series()))
                .with_heading("Timeline MEM"),
        );
        let json = Json.render(&report);
        let parsed = Report::from_json(&json).expect("timeseries JSON must parse");
        assert_eq!(parsed, report);
        // Timestamps and values survive as raw reals, not stringified.
        assert!(json.contains("\"timestamps\":[0.001,0.002,0.003,0.004]"));
        assert!(json.contains("\"cpu\":1"));
    }

    #[test]
    fn time_series_with_mismatched_lengths_renders_without_panicking() {
        // A hand-written JSON document may carry more (or fewer) values
        // than timestamps; every renderer must tolerate it.
        let ts = TimeSeries {
            timestamps: vec![0.1, 0.2],
            series: vec![
                Series::new("long", 0, vec![1.0, 2.0, 3.0]),
                Series::new("short", 1, vec![4.0]),
            ],
        };
        let mut report = Report::new("tl");
        report.push(Section::new("timeseries", Body::TimeSeries(ts)));
        let text = Ascii.render(&report);
        assert!(text.contains("long core 0"));
        assert!(text.contains("short core 1"));
        let csv = Csv.render(&report);
        assert!(csv.contains("0.1,short,1,4\n"));
        assert!(!csv.contains("0.2,short"), "short series has no second value");
        let parsed = Report::from_json(&Json.render(&report)).expect("still round-trips");
        assert_eq!(parsed.sections.len(), 1);
    }

    #[test]
    fn time_series_sparkline_handles_degenerate_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0]), "▄");
        assert_eq!(sparkline(&[1.0, f64::NAN, 2.0]), "▁ █");
        assert_eq!(sparkline(&[0.0, 3.5, 7.0]), "▁▅█");
    }

    #[test]
    fn values_expose_typed_accessors() {
        assert_eq!(Value::Count(7).as_count(), Some(7));
        assert_eq!(Value::Count(7).as_real(), Some(7.0));
        assert_eq!(Value::Bytes(64).as_bytes(), Some(64));
        assert_eq!(Value::CpuId(3).as_cpu_id(), Some(3));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_real(), None);
        assert_eq!(Value::Count(18_802_400).ascii(), "1.88024e+07");
        assert_eq!(Value::Count(18_802_400).raw(), "18802400");
    }
}
