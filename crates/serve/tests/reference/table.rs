//! The `TextTable` renderers from before cells went into one buffer: each
//! cell its own `String`, a `format!` per padded cell and a `String` per
//! line. Kept as the reference the one-buffer renderer is fuzzed against.

/// A table as the old `TextTable` stored it.
pub struct Table {
    pub title: Option<String>,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Render with single-space-padded, left-aligned columns separated by two
    /// spaces.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        if cols == 0 {
            return String::new();
        }
        let mut widths = vec![0usize; cols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows.clone() {
            // Full-width section rows don't participate in column sizing.
            if row.len() == 1 && cols > 1 && row[0].starts_with("-- ") {
                continue;
            }
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let render_row = |row: &[String]| -> String {
            if row.len() == 1 && cols > 1 && row[0].starts_with("-- ") {
                return row[0].clone();
            }
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == cols {
                    line.push_str(cell);
                } else {
                    line.push_str(&format!("{cell:<w$}"));
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            out.push_str(&render_row(&self.header));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavored-Markdown table. Section rows become bold
    /// full-width cells; the title becomes a `###` heading.
    pub fn render_markdown(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        if cols == 0 {
            return String::new();
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(&format!("### {t}\n\n"));
        }
        let escape = |s: &str| s.replace('|', "\\|");
        let row_line = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                line.push_str(&format!(
                    " {} |",
                    escape(cells.get(i).map(String::as_str).unwrap_or(""))
                ));
            }
            line
        };
        if self.header.is_empty() {
            out.push_str(&row_line(&vec![String::new(); cols]));
        } else {
            out.push_str(&row_line(&self.header));
        }
        out.push('\n');
        out.push_str(&format!("|{}\n", "---|".repeat(cols)));
        for row in &self.rows {
            if row.len() == 1 && cols > 1 && row[0].starts_with("-- ") {
                let label = row[0].trim_matches(|c| c == '-' || c == ' ');
                let mut cells = vec![format!("**{label}**")];
                cells.resize(cols, String::new());
                out.push_str(&row_line(&cells));
            } else {
                out.push_str(&row_line(row));
            }
            out.push('\n');
        }
        out
    }
}
