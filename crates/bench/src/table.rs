use std::fmt;

/// A printable results table, rendered as markdown.
///
/// # Examples
///
/// ```
/// use amo_bench::Table;
///
/// let mut t = Table::new("Table X: demo", &["n", "m", "result"]);
/// t.row(["256", "4", "ok"]);
/// assert!(t.to_markdown().contains("| 256"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs columns");
        Self {
            title: title.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row (stringifies each cell).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// All cells of a named column.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn column(&self, name: &str) -> Vec<&str> {
        let idx = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column named {name:?}"));
        self.rows.iter().map(|r| r[idx].as_str()).collect()
    }

    /// Renders as a fixed-width markdown table with the title above.
    /// Widths count characters, not bytes, so cells holding `×` or `β`
    /// pad like ASCII ones.
    pub fn to_markdown(&self) -> String {
        let width = |cell: &String| cell.chars().count();
        let mut widths: Vec<usize> = self.columns.iter().map(width).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(width(cell));
            }
        }
        let mut out = String::new();
        out.push_str("### ");
        out.push_str(&self.title);
        out.push('\n');
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push(' ');
                line.push_str(cell);
                line.push_str(&" ".repeat(w - width(cell) + 1));
                line.push('|');
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Formats a float with three significant decimals (table cells).
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats `a / b` as a ratio cell (`"-"` when `b == 0`).
pub fn fmt_ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".to_owned()
    } else {
        fmt_f64(a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_aligns() {
        let mut t = Table::new("T", &["a", "long-column"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        t.row(["β × 2", "n−(β+m−2)"]);
        let md = t.to_markdown();
        assert!(md.starts_with("### T\n"));
        let lines: Vec<&str> = md.lines().skip(1).collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert_eq!(
                line.chars().count(),
                lines[0].chars().count(),
                "rows padded to equal width: {line:?}"
            );
        }
    }

    #[test]
    fn column_access() {
        let mut t = Table::new("T", &["n", "eff"]);
        t.row(["10", "9"]).row(["20", "18"]);
        assert_eq!(t.column("eff"), vec!["9", "18"]);
        assert_eq!(t.cell(1, 0), "20");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("T", &["a", "b"]).row(["only-one"]);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        Table::new("T", &["a"]).column("b");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_f64(12.3456), "12.35");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_ratio(1.0, 0.0), "-");
        assert_eq!(fmt_ratio(1.0, 2.0), "0.5000");
        assert_eq!(fmt_ratio(3.0, 2.0), "1.50");
    }
}
