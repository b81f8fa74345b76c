//! Row-at-a-time rendering for live measurement streams.
//!
//! The post-mortem [`Render`] trait consumes a finished
//! [`Report`]; a daemon session instead emits one row of
//! metric values per interval while the measurement is still running.  A
//! [`StreamRender`] turns that trickle into terminal output incrementally:
//! `begin` prints the column header once, `row` prints each interval as it
//! arrives, and `end` optionally appends the post-mortem aggregate report
//! once the session finishes.
//!
//! Two implementations mirror the batch formats: [`LiveTable`] is the
//! fixed-width ASCII table a human watches scroll by, [`CsvStream`] is the
//! flat comma-separated form for spreadsheets and pipes.  Machine clients
//! that want lossless values skip this layer entirely and read the daemon's
//! NDJSON frames.

use super::{csv_field, format_real, Csv, Render, Report};
use crate::output::format_value;

/// The immutable shape of a stream: one time column plus one column per
/// streamed metric (or raw event) series.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHeader {
    /// Label of the leading time column (conventionally `time[s]`).
    pub time_label: String,
    /// Labels of the value columns, e.g. `"DP MFlops/s core 2"`.
    pub columns: Vec<String>,
}

/// One interval's worth of values: the interval end time and one value per
/// header column.  `None` marks a column the interval did not cover (a group
/// that was not scheduled during multiplexed rotation).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// End of the interval on the session's virtual clock, in seconds.
    pub t: f64,
    /// One value per [`StreamHeader::columns`] entry.
    pub values: Vec<Option<f64>>,
}

/// An incremental renderer for live interval streams.
///
/// Each method returns the text to append to the output (possibly empty);
/// implementations may keep state between calls (column widths, row counts)
/// but must not reorder or buffer rows.
pub trait StreamRender {
    /// Render the stream header.  Called exactly once, before any row.
    fn begin(&mut self, header: &StreamHeader) -> String;
    /// Render one interval row.
    fn row(&mut self, header: &StreamHeader, row: &StreamRow) -> String;
    /// Render the stream trailer.  `aggregate` carries the post-mortem
    /// report of the finished session when the caller has one.
    fn end(&mut self, header: &StreamHeader, aggregate: Option<&Report>) -> String;
}

/// Minimum column width of the live table, so short labels still leave room
/// for six-significant-digit values.
const MIN_COL_WIDTH: usize = 12;

/// The human-facing live view: a fixed-width right-aligned table whose
/// column widths are locked in by the header so rows never jitter.
#[derive(Debug, Default)]
pub struct LiveTable {
    widths: Vec<usize>,
}

impl LiveTable {
    /// Create a live table renderer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamRender for LiveTable {
    fn begin(&mut self, header: &StreamHeader) -> String {
        self.widths = std::iter::once(&header.time_label)
            .chain(header.columns.iter())
            .map(|label| label.len().max(MIN_COL_WIDTH))
            .collect();
        let cells: Vec<String> = std::iter::once(&header.time_label)
            .chain(header.columns.iter())
            .zip(&self.widths)
            .map(|(label, &w)| format!("{label:>w$}"))
            .collect();
        let head = cells.join("  ");
        let rule = "-".repeat(head.len());
        format!("{head}\n{rule}\n")
    }

    fn row(&mut self, header: &StreamHeader, row: &StreamRow) -> String {
        debug_assert_eq!(row.values.len(), header.columns.len());
        let cells: Vec<String> = std::iter::once(format_value(row.t))
            .chain(row.values.iter().map(|v| match v {
                Some(v) => format_value(*v),
                None => "-".to_string(),
            }))
            .zip(&self.widths)
            .map(|(cell, &w)| format!("{cell:>w$}"))
            .collect();
        format!("{}\n", cells.join("  "))
    }

    fn end(&mut self, _header: &StreamHeader, aggregate: Option<&Report>) -> String {
        match aggregate {
            Some(report) => format!("\n{}", super::Ascii.render(report)),
            None => String::new(),
        }
    }
}

/// The machine-facing live view: comma-separated rows with round-trip reals,
/// mirroring the batch [`Csv`] renderer's conventions.  Uncovered columns
/// render as empty fields.
#[derive(Debug, Default)]
pub struct CsvStream;

impl CsvStream {
    /// Create a CSV stream renderer.
    pub fn new() -> Self {
        Self
    }
}

impl StreamRender for CsvStream {
    fn begin(&mut self, header: &StreamHeader) -> String {
        let cells: Vec<String> = std::iter::once(&header.time_label)
            .chain(header.columns.iter())
            .map(|label| csv_field(label))
            .collect();
        format!("{}\n", cells.join(","))
    }

    fn row(&mut self, header: &StreamHeader, row: &StreamRow) -> String {
        debug_assert_eq!(row.values.len(), header.columns.len());
        let cells: Vec<String> = std::iter::once(format_real(row.t))
            .chain(row.values.iter().map(|v| match v {
                Some(v) => format_real(*v),
                None => String::new(),
            }))
            .collect();
        format!("{}\n", cells.join(","))
    }

    fn end(&mut self, _header: &StreamHeader, aggregate: Option<&Report>) -> String {
        match aggregate {
            Some(report) => Csv.render(report),
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Body, Section};

    fn header() -> StreamHeader {
        StreamHeader {
            time_label: "time[s]".to_string(),
            columns: vec!["DP MFlops/s core 0".to_string(), "x,y core 1".to_string()],
        }
    }

    #[test]
    fn live_table_locks_column_widths_at_begin() {
        let mut table = LiveTable::new();
        let header = header();
        let head = table.begin(&header);
        let lines: Vec<&str> = head.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("x,y core 1"));
        assert_eq!(lines[1], "-".repeat(lines[0].len()));

        let row1 = table.row(&header, &StreamRow { t: 0.0025, values: vec![Some(1234.5), None] });
        let row2 = table.row(&header, &StreamRow { t: 0.005, values: vec![Some(7.0), Some(0.25)] });
        // Fixed widths: every row is exactly as wide as the header line.
        assert_eq!(row1.trim_end().len(), lines[0].len());
        assert_eq!(row2.trim_end().len(), lines[0].len());
        assert!(row1.contains("1234.5"));
        // Uncovered column renders as a right-aligned dash.
        assert!(row1.trim_end().ends_with('-'));
        assert_eq!(table.end(&header, None), "");
    }

    #[test]
    fn csv_stream_escapes_labels_and_round_trips_values() {
        let mut csv = CsvStream::new();
        let header = header();
        assert_eq!(csv.begin(&header), "time[s],DP MFlops/s core 0,\"x,y core 1\"\n");
        let row = csv.row(&header, &StreamRow { t: 2.5e-3, values: vec![Some(0.1 + 0.2), None] });
        assert_eq!(row, "0.0025,0.30000000000000004,\n");
        assert_eq!(csv.end(&header, None), "");
    }

    #[test]
    fn end_appends_the_post_mortem_report() {
        let mut report = Report::new("test");
        report.push(Section::new("s", Body::Text("k v".into())).with_heading("Summary:"));

        let mut table = LiveTable::new();
        let head = table.begin(&header());
        assert!(!head.is_empty());
        let tail = table.end(&header(), Some(&report));
        assert!(tail.starts_with('\n'));
        assert!(tail.contains("Summary:"));

        let mut csv = CsvStream::new();
        let tail = csv.end(&header(), Some(&report));
        assert_eq!(tail, Csv.render(&report));
    }
}
