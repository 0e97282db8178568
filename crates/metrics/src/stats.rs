//! Small statistical helpers used across reports: geometric means and
//! formatting utilities shared by every figure/table regenerator.

/// Geometric mean of positive values; `None` when empty or any value is
/// non-positive.
///
/// # Examples
///
/// ```
/// use contig_metrics::geomean;
/// assert_eq!(geomean(&[2.0, 8.0]), Some(4.0));
/// assert_eq!(geomean(&[]), None);
/// assert_eq!(geomean(&[1.0, 0.0]), None);
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Geometric mean of counts where zeros are tolerated by the paper's usual
/// `+1` trick (useful for mapping counts that can legitimately be small).
pub fn geomean_counts(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| ((v + 1) as f64).ln()).sum();
    (log_sum / values.len() as f64).exp() - 1.0
}

/// Formats a byte count in a compact human unit (KiB/MiB/GiB).
///
/// # Examples
///
/// ```
/// use contig_metrics::human_bytes;
/// assert_eq!(human_bytes(2 << 20), "2.0M");
/// assert_eq!(human_bytes(1536), "1.5K");
/// assert_eq!(human_bytes(5 << 30), "5.0G");
/// ```
pub fn human_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KIB * KIB * KIB {
        format!("{:.1}G", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.1}M", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1}K", b / KIB)
    } else {
        format!("{bytes}B")
    }
}

/// A minimal fixed-width text table builder for the experiment binaries.
///
/// # Examples
///
/// ```
/// use contig_metrics::TextTable;
/// let mut t = TextTable::new(&["workload", "overhead"]);
/// t.row(&["SVM".into(), "28.0%".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("workload"));
/// assert!(rendered.contains("SVM"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[4.0]), Some(4.0));
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[-1.0, 2.0]), None);
    }

    #[test]
    fn geomean_counts_tolerates_zero() {
        let g = geomean_counts(&[0, 0, 0]);
        assert!(g.abs() < 1e-9);
        let g = geomean_counts(&[9, 99]);
        assert!((g - (1000f64.sqrt() - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0B");
        assert_eq!(human_bytes(1023), "1023B");
        assert_eq!(human_bytes(1 << 30), "1.0G");
    }

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(&["xxxxx".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(!t.is_empty());
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
