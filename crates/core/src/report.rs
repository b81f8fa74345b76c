//! The structured report document model.
//!
//! Every tool and figure generator in the suite builds a [`Report`] — a
//! typed document of [`Section`]s holding [`Table`]s,
//! [`KeyValues`](Body::KeyValues) lists or free [`Body::Text`] blocks over
//! typed [`Value`]s — instead of pushing pre-rendered strings. Formatting
//! is a separate, second step: the three renderers behind the [`Render`]
//! trait turn one and the same document into
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

use crate::json::{obj, JsonValue};
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
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The row whose first cell is `Value::Str(key)` (event names, metric
    /// names, variant names, … label the rows of every tool table).
    pub(crate) fn row_by_key(&self, key: &str) -> Option<&Row> {
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
    pub(crate) fn with_rule_before(mut self) -> Self {
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
        let root = JsonValue::parse(text)?;
        Ok(Report {
            title: str_member(&root, "title", "report")?,
            sections: list_member(&root, "sections", "report", Section::from_json)?,
        })
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
    pub(crate) fn from_extension(path: &str) -> Option<Self> {
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
/// values, headings, rules and ASCII overrides included) through the
/// suite's [`crate::json`] codec, one compact line per section.
/// [`Report::from_json`] parses the output back into an equal `Report`.
pub struct Json;

impl Render for Json {
    fn render(&self, report: &Report) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"title\": ");
        out.push_str(&JsonValue::Str(report.title.clone()).encode());
        out.push_str(",\n  \"sections\": [");
        for (i, section) in report.sections.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&section.to_json().encode());
        }
        if !report.sections.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// A required member of a JSON object.
fn member<'a>(v: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("{what} without '{key}'"))
}

fn str_member(v: &JsonValue, key: &str, what: &str) -> Result<String, String> {
    member(v, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: '{key}' must be a string"))
}

/// An array member decoded item by item.
fn list_member<T>(
    v: &JsonValue,
    key: &str,
    what: &str,
    item: impl Fn(&JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    member(v, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: '{key}' must be an array"))?
        .iter()
        .map(item)
        .collect()
}

/// An optional ASCII override: absent or `null` is `None`.
fn opt_str_member(v: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("'{key}' must be a string or null")),
    }
}

fn real_from_json(v: &JsonValue) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| "expected a real".to_string())
}

fn str_json(s: &str) -> JsonValue {
    JsonValue::Str(s.to_string())
}

fn opt_str_json(s: &Option<String>) -> JsonValue {
    s.as_deref().map_or(JsonValue::Null, str_json)
}

fn arr_json<T>(items: &[T], item: impl Fn(&T) -> JsonValue) -> JsonValue {
    JsonValue::Arr(items.iter().map(item).collect())
}

impl Value {
    fn to_json(&self) -> JsonValue {
        let (kind, v) = match self {
            Value::Count(v) => ("count", JsonValue::UInt(*v)),
            Value::Real(v) => ("real", JsonValue::real(*v)),
            Value::Str(s) => ("str", str_json(s)),
            Value::CpuId(c) => ("cpu", JsonValue::UInt(*c as u64)),
            Value::Bytes(b) => ("bytes", JsonValue::UInt(*b)),
        };
        obj(vec![("type", str_json(kind)), ("v", v)])
    }

    fn from_json(v: &JsonValue) -> Result<Value, String> {
        let kind = str_member(v, "type", "value")?;
        let payload = member(v, "v", "value")?;
        let uint = || payload.as_u64().ok_or_else(|| format!("{kind} payload must be a count"));
        Ok(match kind.as_str() {
            "count" => Value::Count(uint()?),
            "cpu" => Value::CpuId(uint()? as usize),
            "bytes" => Value::Bytes(uint()?),
            "real" => Value::Real(real_from_json(payload)?),
            "str" => Value::Str(payload.as_str().ok_or("str payload must be a string")?.into()),
            other => return Err(format!("unknown value type '{other}'")),
        })
    }
}

impl KvEntry {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("key", str_json(&self.key)),
            ("value", self.value.to_json()),
            ("ascii", opt_str_json(&self.ascii)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<KvEntry, String> {
        Ok(KvEntry {
            key: str_member(v, "key", "entry")?,
            value: Value::from_json(member(v, "value", "entry")?)?,
            ascii: opt_str_member(v, "ascii")?,
        })
    }
}

impl Row {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("values", arr_json(&self.values, Value::to_json)),
            ("ascii", opt_str_json(&self.ascii)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Row, String> {
        Ok(Row {
            values: list_member(v, "values", "row", Value::from_json)?,
            ascii: opt_str_member(v, "ascii")?,
        })
    }
}

impl Series {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("metric", str_json(&self.metric)),
            ("cpu", JsonValue::UInt(self.cpu as u64)),
            ("values", arr_json(&self.values, |&v| JsonValue::real(v))),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Series, String> {
        Ok(Series {
            metric: str_member(v, "metric", "series")?,
            cpu: member(v, "cpu", "series")?.as_u64().ok_or("series cpu must be a count")? as usize,
            values: list_member(v, "values", "series", real_from_json)?,
        })
    }
}

impl Section {
    fn to_json(&self) -> JsonValue {
        let heading =
            |kind: &str, text: &str| obj(vec![("kind", str_json(kind)), ("text", str_json(text))]);
        let heading = match &self.heading {
            Heading::None => JsonValue::Null,
            Heading::Line(s) => heading("line", s),
            Heading::Boxed(s) => heading("boxed", s),
        };
        let kind = |kind: &str| ("kind", str_json(kind));
        let body = match &self.body {
            Body::KeyValues(entries) => {
                obj(vec![kind("keyvalues"), ("entries", arr_json(entries, KvEntry::to_json))])
            }
            Body::Table(table) => {
                let style = match table.style {
                    TableStyle::Bordered => "bordered",
                    TableStyle::Plain => "plain",
                };
                obj(vec![
                    kind("table"),
                    ("style", str_json(style)),
                    ("columns", arr_json(&table.columns, |c| str_json(c))),
                    ("ascii_header", opt_str_json(&table.ascii_header)),
                    ("rows", arr_json(&table.rows, Row::to_json)),
                ])
            }
            Body::Text(text) => obj(vec![kind("text"), ("text", str_json(text))]),
            Body::TimeSeries(ts) => obj(vec![
                kind("timeseries"),
                ("timestamps", arr_json(&ts.timestamps, |&v| JsonValue::real(v))),
                ("series", arr_json(&ts.series, Series::to_json)),
            ]),
        };
        obj(vec![
            ("id", str_json(&self.id)),
            ("heading", heading),
            ("rule_before", JsonValue::Bool(self.rule_before)),
            ("rule_after", JsonValue::Bool(self.rule_after)),
            ("body", body),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Section, String> {
        let heading = match v.get("heading") {
            None | Some(JsonValue::Null) => Heading::None,
            Some(h) => {
                let text = str_member(h, "text", "heading")?;
                match h.get("kind").and_then(JsonValue::as_str) {
                    Some("line") => Heading::Line(text),
                    Some("boxed") => Heading::Boxed(text),
                    _ => return Err("unknown heading kind".into()),
                }
            }
        };
        let b = member(v, "body", "section")?;
        let body = match b.get("kind").and_then(JsonValue::as_str) {
            Some("keyvalues") => {
                Body::KeyValues(list_member(b, "entries", "keyvalues", KvEntry::from_json)?)
            }
            Some("table") => Body::Table(Table {
                style: match b.get("style").and_then(JsonValue::as_str) {
                    Some("bordered") => TableStyle::Bordered,
                    Some("plain") => TableStyle::Plain,
                    _ => return Err("unknown table style".into()),
                },
                columns: list_member(b, "columns", "table", |c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "column names must be strings".into())
                })?,
                ascii_header: opt_str_member(b, "ascii_header")?,
                rows: list_member(b, "rows", "table", Row::from_json)?,
            }),
            Some("text") => Body::Text(str_member(b, "text", "text body")?),
            Some("timeseries") => Body::TimeSeries(TimeSeries {
                timestamps: list_member(b, "timestamps", "timeseries", real_from_json)?,
                series: list_member(b, "series", "timeseries", Series::from_json)?,
            }),
            _ => return Err("unknown body kind".into()),
        };
        let flag = |key: &str| v.get(key).and_then(JsonValue::as_bool).unwrap_or(false);
        Ok(Section {
            id: str_member(v, "id", "section")?,
            heading,
            rule_before: flag("rule_before"),
            rule_after: flag("rule_after"),
            body,
        })
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
        let err = Report::from_json(&doc(&nest(crate::json::MAX_DEPTH))).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = Report::from_json(&doc(&nest(crate::json::MAX_DEPTH - 1))).unwrap_err();
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
