//! Minimal aligned-column text tables for worksheet reports.
//!
//! The paper presents everything as small tables (input parameters,
//! predicted-vs-actual performance, resource usage); this renderer produces
//! the same artifacts on a terminal without pulling in a formatting crate.

use std::fmt::{Display, Write};
use std::ops::Range;

/// A simple text table with a header row and aligned columns.
///
/// Cells are written once, through `Display`, into one buffer, and a render
/// writes every line into one string sized before the first line. A report
/// passes `format_args!` cells, so no cell is a `String` of its own.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: Option<String>,
    /// Every cell's text, back to back, in the order the cells were added.
    text: String,
    /// Where each cell ends in `text`; a cell starts where the one before
    /// it ends.
    ends: Vec<usize>,
    /// The header's cells, as a range of indices into `ends`.
    header: Range<usize>,
    /// Each row's cells, likewise.
    rows: Vec<Range<usize>>,
}

impl TextTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the table title (rendered above the header).
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Set the header cells.
    pub fn header<D: Display>(mut self, cells: impl IntoIterator<Item = D>) -> Self {
        self.header = self.push_cells(cells);
        self
    }

    /// Append one row. Rows may be ragged; short rows pad with empty cells.
    pub fn row<D: Display>(&mut self, cells: impl IntoIterator<Item = D>) -> &mut Self {
        let row = self.push_cells(cells);
        self.rows.push(row);
        self
    }

    /// Append a full-width section label row.
    pub fn section(&mut self, label: impl Display) -> &mut Self {
        self.row([format_args!("-- {label} --")])
    }

    /// Write `cells` into the buffer and return their index range.
    fn push_cells<D: Display>(&mut self, cells: impl IntoIterator<Item = D>) -> Range<usize> {
        let first = self.ends.len();
        for cell in cells {
            write!(self.text, "{cell}").expect("a cell's Display impl does not fail");
            self.ends.push(self.text.len());
        }
        first..self.ends.len()
    }

    /// The text of cell `i`.
    fn cell(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// The widest row's cell count, header included.
    fn columns(&self) -> usize {
        self.rows
            .iter()
            .chain(std::iter::once(&self.header))
            .map(Range::len)
            .max()
            .unwrap_or(0)
    }

    /// The label line of a full-width section row, or `None` for any other
    /// row. A lone cell starting `-- ` spans the table once it has more
    /// than one column.
    fn section_label(&self, row: &Range<usize>, cols: usize) -> Option<&str> {
        let cell = (row.len() == 1 && cols > 1).then(|| self.cell(row.start))?;
        cell.starts_with("-- ").then_some(cell)
    }

    /// Render with single-space-padded, left-aligned columns separated by two
    /// spaces.
    pub fn render(&self) -> String {
        let cols = self.columns();
        if cols == 0 {
            return String::new();
        }
        let mut widths = vec![0usize; cols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows.clone() {
            // Full-width section rows don't participate in column sizing.
            if self.section_label(row, cols).is_some() {
                continue;
            }
            for (w, i) in widths.iter_mut().zip(row.clone()) {
                *w = (*w).max(self.cell(i).len());
            }
        }
        // Widths count bytes but padding counts characters, as `{:<w$}`
        // does, so a multi-byte cell adds its extra bytes to its line.
        // Every line fits `line` plus those extra bytes.
        let line = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let mut capacity = self.title.as_ref().map_or(0, |t| t.len() + 1)
            + (self.text.len() - self.text.chars().count());
        for row in all_rows.clone() {
            capacity += 1 + self.section_label(row, cols).map_or(line, str::len);
        }
        if !self.header.is_empty() {
            capacity += line + 1;
        }
        let mut out = String::with_capacity(capacity);
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let render_row = |out: &mut String, row: &Range<usize>| {
            if let Some(label) = self.section_label(row, cols) {
                out.push_str(label);
                out.push('\n');
                return;
            }
            let start = out.len();
            let mut cells = row.clone().map(|i| self.cell(i));
            for (i, &w) in widths.iter().enumerate() {
                let cell = cells.next().unwrap_or("");
                out.push_str(cell);
                if i + 1 < cols {
                    push_repeated(out, ' ', w.saturating_sub(cell.chars().count()) + 2);
                }
            }
            let kept = out[start..].trim_end().len();
            out.truncate(start + kept);
            out.push('\n');
        };
        if !self.header.is_empty() {
            render_row(&mut out, &self.header);
            push_repeated(&mut out, '-', line);
            out.push('\n');
        }
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Append `n` copies of `c`.
fn push_repeated(out: &mut String, c: char, n: usize) {
    out.extend(std::iter::repeat_n(c, n));
}

impl TextTable {
    /// Render as a GitHub-flavored-Markdown table. Section rows become bold
    /// full-width cells; the title becomes a `###` heading.
    pub fn render_markdown(&self) -> String {
        let cols = self.columns();
        if cols == 0 {
            return String::new();
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(&format!("### {t}\n\n"));
        }
        let row_line = |out: &mut String, cells: &mut dyn Iterator<Item = &str>| {
            out.push('|');
            for _ in 0..cols {
                out.push(' ');
                out.push_str(&cells.next().unwrap_or("").replace('|', "\\|"));
                out.push_str(" |");
            }
            out.push('\n');
        };
        row_line(&mut out, &mut self.header.clone().map(|i| self.cell(i)));
        out.push_str(&format!("|{}\n", "---|".repeat(cols)));
        for row in &self.rows {
            match self.section_label(row, cols) {
                Some(label) => {
                    let label = format!("**{}**", label.trim_matches(|c| c == '-' || c == ' '));
                    row_line(&mut out, &mut std::iter::once(label.as_str()));
                }
                None => row_line(&mut out, &mut row.clone().map(|i| self.cell(i))),
            }
        }
        out
    }
}

/// A quantity in engineering scientific notation with 3 significant digits,
/// as a `Display` value: [`sci`] without the `String`, for a table cell.
#[derive(Debug, Clone, Copy)]
pub struct Sci(pub f64);

impl Display for Sci {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0.0 {
            f.write_str("0")
        } else {
            write!(f, "{:.2e}", self.0)
        }
    }
}

/// Format a quantity in engineering scientific notation with 3 significant
/// digits, e.g. `5.56e-6` — the paper's table style.
pub fn sci(v: f64) -> String {
    Sci(v).to_string()
}

/// Format a ratio as a percentage with no decimals (e.g. `4%`), or one decimal
/// below 1% — matching the paper's utilization rows.
pub fn pct(v: f64) -> String {
    let p = v * 100.0;
    if p >= 1.0 {
        format!("{p:.0}%")
    } else {
        format!("{p:.1}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_rule_and_rows() {
        let mut t = TextTable::new().title("Demo").header(["a", "bb", "ccc"]);
        t.row(["1", "2", "3"]);
        t.row(["10", "20", "30"]);
        let s = t.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines[0], "Demo");
        assert!(lines[1].starts_with("a"));
        assert!(lines[2].chars().all(|c| c == '-'));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn columns_align() {
        let mut t = TextTable::new().header(["name", "value"]);
        t.row(["x", "1"]);
        t.row(["longer-name", "2"]);
        let s = t.render();
        let data_lines: Vec<_> = s.lines().skip(2).collect();
        let col1 = data_lines[0].find('1').unwrap();
        let col2 = data_lines[1].find('2').unwrap();
        assert_eq!(col1, col2, "value column should align:\n{s}");
    }

    #[test]
    fn ragged_rows_pad() {
        let mut t = TextTable::new().header(["a", "b"]);
        t.row(["only"]);
        let s = t.render();
        assert!(s.contains("only"));
    }

    #[test]
    fn section_rows_span() {
        let mut t = TextTable::new().header(["param", "value"]);
        t.section("Dataset Parameters");
        t.row(["elements", "512"]);
        let s = t.render();
        assert!(s.contains("-- Dataset Parameters --"));
    }

    #[test]
    fn empty_table_renders_empty() {
        assert_eq!(TextTable::new().render(), "");
    }

    #[test]
    fn markdown_rendering() {
        let mut t = TextTable::new().title("Demo").header(["Param", "Value"]);
        t.section("Dataset");
        t.row(["elements", "512"]);
        t.row(["pipe|char", "x"]);
        let s = t.render_markdown();
        assert!(s.starts_with("### Demo"));
        assert!(s.contains("| Param | Value |"));
        assert!(s.contains("|---|---|"));
        assert!(s.contains("| **Dataset** |  |"));
        assert!(s.contains("pipe\\|char"), "pipes must be escaped:\n{s}");
        // Every table line has a consistent pipe count.
        for line in s.lines().filter(|l| l.starts_with('|')) {
            assert_eq!(
                line.matches('|').count() - line.matches("\\|").count(),
                3,
                "{line}"
            );
        }
    }

    #[test]
    fn markdown_empty_table() {
        assert_eq!(TextTable::new().render_markdown(), "");
    }

    #[test]
    fn sci_and_pct_formatting() {
        assert_eq!(sci(5.56e-6), "5.56e-6");
        assert_eq!(sci(0.0), "0");
        assert_eq!(pct(0.04), "4%");
        assert_eq!(pct(0.152), "15%");
        assert_eq!(pct(0.004), "0.4%");
    }
}
