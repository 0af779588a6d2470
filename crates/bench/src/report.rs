//! Markdown table rendering for the paper report.

/// A measured/paper ratio at or beyond this factor, either way, is flagged.
const RATIO_FLAG: f64 = 1.5;

/// A titled table, rendered as a Markdown heading and a pipe table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: AsRef<str>>(title: impl Into<String>, headers: &[S]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table as a `##` heading and a column-aligned pipe table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self
            .headers
            .iter()
            .map(|h| h.chars().count().max(3))
            .collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = widths
                .iter()
                .zip(cells)
                .map(|(&w, c)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let mut out = format!("## {}\n\n", self.title);
        out.push_str(&line(&self.headers));
        out.push_str(&line(&rule));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// Prints the rendered table to stdout, followed by a blank line.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a floating-point speedup like the paper ("194.0x").
pub fn fmt_speedup(v: f64) -> String {
    format!("{v:.1}x")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// Formats the ratio measured/paper of two unrounded values, in bold when it
/// is 1.5 or more either way.
pub fn fmt_ratio(measured: f64, paper: f64) -> String {
    let r = measured / paper;
    if r >= RATIO_FLAG || r <= 1.0 / RATIO_FLAG {
        format!("**{r:.2}**")
    } else {
        format!("{r:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "2.5×".into()]);
        assert_eq!(
            t.render(),
            "## Demo\n\n\
             | name               | value |\n\
             | ------------------ | ----- |\n\
             | short              | 1     |\n\
             | a-much-longer-name | 2.5×  |\n"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(193.96), "194.0x");
        assert_eq!(fmt_pct(0.58), "58%");
        assert_eq!(fmt_ratio(1.0, 1.0), "1.00");
        assert_eq!(fmt_ratio(1.49, 1.0), "1.49");
        assert_eq!(fmt_ratio(3.0, 2.0), "**1.50**");
        assert_eq!(fmt_ratio(2.0, 3.0), "**0.67**");
        assert_eq!(fmt_ratio(2.01, 3.0), "0.67");
    }
}
