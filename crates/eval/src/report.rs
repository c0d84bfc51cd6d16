//! Plain-text report formatting for the experiment runners.
//!
//! Every table binary in `cdrib-bench` prints rows through these helpers so
//! the output has a consistent, paper-like layout that is easy to diff.

/// A simple fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        while row.len() < self.header.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; n_cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a metric value in percent with two decimals (paper convention).
pub fn pct(value: f64) -> String {
    format!("{:.2}", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RankingMetrics;
    use crate::stats::MeanStd;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Method", "MRR"]);
        t.add_row(vec!["CDRIB", "7.01"]);
        t.add_row(vec!["a-very-long-method-name", "4.2"]);
        t.add_row(vec!["short"]);
        let s = t.render();
        assert!(s.contains("CDRIB"));
        assert!(s.contains("a-very-long-method-name"));
        assert_eq!(t.n_rows(), 3);
        // header line and separator line present
        assert!(s.lines().count() >= 5);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0701), "7.01");
        assert_eq!(pct(0.0768), "7.68");
        assert_eq!(MeanStd::of(&[7.0, 7.2, 6.8]).format(2), "7.00 ±0.20");
    }

    #[test]
    fn aggregation_over_runs() {
        // Per-seed bundles fold into one mean ± std per metric, the way the
        // table bins print them.
        let runs = [
            RankingMetrics::from_rank(1),
            RankingMetrics::from_rank(2),
            RankingMetrics::from_rank(3),
        ];
        let mrr = MeanStd::of(&runs.iter().map(|m| m.mrr).collect::<Vec<_>>());
        assert_eq!(mrr.n, 3);
        assert!(mrr.mean > 0.5 && mrr.mean < 1.0);
        assert_eq!(pct(mrr.mean), "61.11");
    }
}
