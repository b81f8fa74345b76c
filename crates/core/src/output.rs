//! ASCII table and box rendering.
//!
//! `likwid-perfCtr` prints its per-core event counts and derived metrics as
//! bordered ASCII tables (see the FLOPS_DP listing in Section II-A of the
//! paper), and `likwid-topology -g` prints the cache hierarchy of a socket
//! as nested ASCII boxes. This module provides both renderers.

/// A simple ASCII table with a header row, rendered in the style of the
/// paper's listings:
///
/// ```text
/// +--------+--------+--------+
/// | Event  | core 0 | core 1 |
/// +--------+--------+--------+
/// | ...    | ...    | ...    |
/// +--------+--------+--------+
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given header cells.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (padded or truncated to the header width).
    pub(crate) fn add_row<S: Into<String>>(&mut self, row: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let separator = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let render_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                s.push_str(&format!(" {cell:<w$} |", w = w));
            }
            s
        };
        let mut out = String::new();
        out.push_str(&separator);
        out.push('\n');
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&separator);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&separator);
        out.push('\n');
        out
    }
}

/// The horizontal rule used between tool output sections
/// (`likwid-perfCtr`, `likwid-topology` and `likwid-features` all print it).
pub fn rule() -> String {
    "-".repeat(61)
}

/// The heavier rule used around section headings in `likwid-topology`.
pub(crate) fn heavy_rule() -> String {
    "*".repeat(61)
}

/// Format a floating point value the way the tool output does: six
/// significant digits, falling back to scientific notation for very small or
/// very large magnitudes (the paper's listings mix `0.693493` and
/// `7.67906e-05`).
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let magnitude = v.abs();
    if !(1e-4..1e7).contains(&magnitude) {
        format!("{v:.5e}")
    } else if (v.fract()).abs() < f64::EPSILON && magnitude < 1e7 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}").trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// Format a large integer count the way the listings do: plain digits up to
/// seven digits, scientific notation above (`1.88024e+07`).
pub(crate) fn format_count(v: u64) -> String {
    if v < 10_000_000 {
        v.to_string()
    } else {
        let value = v as f64;
        let exponent = value.log10().floor() as i32;
        let mantissa = value / 10f64.powi(exponent);
        format!("{mantissa:.5}e+{exponent:02}")
    }
}

/// Render nested ASCII boxes: a socket box containing one row of core boxes
/// and one box per shared cache level, in the style of `likwid-topology -g`.
pub(crate) fn socket_ascii_art(core_labels: &[String], cache_rows: &[Vec<String>]) -> String {
    // Compute the inner width from the widest row.
    let core_box_width = core_labels.iter().map(|l| l.len()).max().unwrap_or(4) + 2;
    let inner_width = (core_box_width + 3) * core_labels.len() + 1;

    let mut out = String::new();
    out.push('+');
    out.push_str(&"-".repeat(inner_width + 2));
    out.push_str("+\n");

    let mut push_box_row = |labels: &[String]| {
        // Per-cache-instance boxes spread evenly over the inner width.
        let n = labels.len();
        let width = if n == core_labels.len() {
            core_box_width
        } else {
            // A shared cache spans the space of its sharers.
            (inner_width - 2 * n - (n - 1)) / n
        };
        let mut top = String::from("| ");
        let mut mid = String::from("| ");
        let mut bot = String::from("| ");
        for label in labels {
            top.push_str(&format!("+{}+ ", "-".repeat(width)));
            mid.push_str(&format!("|{:^width$}| ", label, width = width));
            bot.push_str(&format!("+{}+ ", "-".repeat(width)));
        }
        for line in [top, mid, bot] {
            let padded = format!("{line:<w$}|", w = inner_width + 3);
            out.push_str(&padded);
            out.push('\n');
        }
    };

    push_box_row(core_labels);
    for row in cache_rows {
        push_box_row(row);
    }

    out.push('+');
    out.push_str(&"-".repeat(inner_width + 2));
    out.push_str("+\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_aligned_columns() {
        let mut t = Table::new(vec!["Event", "core 0", "core 1"]);
        t.add_row(vec!["INSTR_RETIRED_ANY", "313742", "376154"]);
        t.add_row(vec!["CPI", "0.69", "1.34"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("+-"));
        assert!(lines[1].contains("| Event"));
        assert!(lines[3].contains("INSTR_RETIRED_ANY"));
        // All border lines have equal length.
        let lengths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lengths.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.add_row(vec!["1"]);
        let s = t.render();
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn format_value_matches_listing_style() {
        assert_eq!(format_value(0.693493), "0.693493");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1624.08), "1624.08");
        assert!(format_value(7.67906e-05).contains('e'));
        assert_eq!(format_value(3.0), "3");
    }

    #[test]
    fn format_count_switches_to_scientific_for_large_values() {
        assert_eq!(format_count(313742), "313742");
        assert!(format_count(18_802_400).contains("e+07"));
    }

    #[test]
    fn rules_have_the_conventional_width() {
        assert_eq!(rule().len(), 61);
        assert_eq!(heavy_rule().len(), 61);
        assert!(rule().chars().all(|c| c == '-'));
    }

    #[test]
    fn ascii_art_contains_cores_and_caches() {
        let cores = vec!["0 12".to_string(), "1 13".to_string(), "2 14".to_string()];
        let caches = vec![
            vec!["32kB".to_string(), "32kB".to_string(), "32kB".to_string()],
            vec!["12MB".to_string()],
        ];
        let art = socket_ascii_art(&cores, &caches);
        assert!(art.contains("0 12"));
        assert!(art.contains("32kB"));
        assert!(art.contains("12MB"));
        assert!(art.starts_with("+-"));
        assert!(art.trim_end().ends_with('+'));
    }
}
