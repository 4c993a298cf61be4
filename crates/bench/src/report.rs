//! Plain-text/CSV table output shared by the experiments.

use std::fmt::Write as _;

/// A simple aligned table that can also dump CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn to_text(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = width[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(&esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(&esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the titled text table, then the CSV under a marker (the
    /// format every experiment emits).
    pub fn render(&self, title: &str) -> String {
        format!(
            "== {title} ==\n{}\n--- csv ---\n{}\n",
            self.to_text(),
            self.to_csv()
        )
    }
}

/// Formats a fraction as a percent string with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats seconds adaptively.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_text_and_csv() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "hello"]);
        t.row(vec!["22", "x,y"]);
        let text = t.to_text();
        assert!(text.contains("hello"));
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn row_length_checked() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(1.5), "1.50");
        assert_eq!(secs(0.1234), "0.1234");
    }
}
