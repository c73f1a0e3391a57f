//! Result containers and text rendering.
//!
//! Every experiment emits a [`Series`]: an x-axis, one or more named
//! columns, and optional analytic-model columns. `Display` renders the
//! aligned table the paper's figure would be plotted from; `to_csv` feeds
//! external plotting.

use std::fmt;

/// One row of an experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// The x-axis value (failure fraction, malicious fraction, k, l, time
    /// unit, or network size — per experiment).
    pub x: f64,
    /// One value per column, aligned with [`Series::columns`].
    pub values: Vec<f64>,
}

/// A named family of curves over a shared x-axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Experiment title (e.g. `"Fig. 2 — tunnel failures"`).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Column (curve) names.
    pub columns: Vec<String>,
    /// The measured rows, in x order.
    pub rows: Vec<SeriesRow>,
    /// Structured observability: the `tap_metrics::MetricsReport` of the
    /// run that produced this series, serialized to JSON.
    pub metrics_json: Option<String>,
    /// Extras for the `BENCH_sim.json` record of this figure, which the
    /// bench gate reads (the resilience figures' delivered fractions and
    /// p99 latencies at their reference fault level). Deliberately *not*
    /// part of the CSV or the printed table.
    pub bench_extras: Vec<(String, f64)>,
}

impl Series {
    /// An empty series with the given shape.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        columns: Vec<String>,
    ) -> Series {
        Series {
            title: title.into(),
            x_label: x_label.into(),
            columns,
            rows: Vec::new(),
            metrics_json: None,
            bench_extras: Vec::new(),
        }
    }

    /// Append a row; panics if the value count does not match the columns.
    pub fn push(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(SeriesRow { x, values });
    }

    /// The values of a named column, in row order.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r.values[idx]).collect())
    }

    /// Render as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.replace(',', ";"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format_num(r.x));
            for v in &r.values {
                out.push(',');
                out.push_str(&format_num(*v));
            }
            out.push('\n');
        }
        out
    }
}

fn format_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        // Column widths: max of header and any value rendering.
        let headers: Vec<&str> = std::iter::once(self.x_label.as_str())
            .chain(self.columns.iter().map(String::as_str))
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                std::iter::once(format_num(r.x))
                    .chain(r.values.iter().map(|v| format!("{v:.4}")))
                    .collect()
            })
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        for (h, w) in headers.iter().zip(widths.iter()) {
            write!(f, "{h:>w$}  ")?;
        }
        writeln!(f)?;
        for (h, w) in headers.iter().zip(widths.iter()) {
            let _ = h;
            write!(f, "{:->w$}  ", "")?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (cell, w) in row.iter().zip(widths.iter()) {
                write!(f, "{cell:>w$}  ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("Fig. X", "p", vec!["measured".into(), "analytic".into()]);
        s.push(0.1, vec![0.41, 0.40951]);
        s.push(0.2, vec![0.67, 0.67232]);
        s
    }

    #[test]
    fn push_and_column() {
        let s = sample();
        assert_eq!(s.column("measured"), Some(vec![0.41, 0.67]));
        assert_eq!(s.column("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut s = sample();
        s.push(0.3, vec![1.0]);
    }

    #[test]
    fn csv_roundtrippable_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "p,measured,analytic");
        assert!(lines[1].starts_with("0.1"));
        assert_eq!(lines[1].split(',').count(), 3);
    }

    #[test]
    fn display_contains_all_cells() {
        let text = sample().to_string();
        assert!(text.contains("Fig. X"));
        assert!(text.contains("measured"));
        assert!(text.contains("0.6723"));
    }

    #[test]
    fn integer_x_renders_without_decimals() {
        let mut s = Series::new("t", "N", vec!["v".into()]);
        s.push(10_000.0, vec![1.5]);
        assert!(s.to_csv().contains("10000,1.5"));
    }
}
