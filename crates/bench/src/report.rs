//! Plain-text tables and CSV emission for the experiment binaries, plus
//! the shared JCT-summary columns (mean, p50/p95/p99, SLO attainment)
//! result tables report per run.

use std::fmt::Write as _;
use std::path::Path;

use llmsched_dag::time::SimDuration;
use llmsched_sim::metrics::SimResult;

/// A simple aligned table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row arity differs from the header's.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for c in 0..cols {
            width[c] = self.header[c].len();
            for r in &self.rows {
                width[c] = width[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", cell, w = width[c]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            fmt_row(r, &width, &mut out);
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Header cells of the per-run JCT summary ([`jct_summary_cells`]).
pub const JCT_SUMMARY_HEADER: [&str; 5] = ["avg_jct_s", "p50_s", "p95_s", "p99_s", "slo_att"];

/// Formats one run's JCT summary — mean, p50/p95/p99 and attainment of a
/// JCT SLO at `slo` — as table cells matching [`JCT_SUMMARY_HEADER`].
pub fn jct_summary_cells(r: &SimResult, slo: SimDuration) -> Vec<String> {
    let p = r.jct_percentiles();
    vec![
        format!("{:.2}", r.avg_jct_secs()),
        format!("{:.2}", p.p50),
        format!("{:.2}", p.p95),
        format!("{:.2}", p.p99),
        format!("{:.3}", r.slo_attainment(slo)),
    ]
}

/// Writes a table's CSV under `results/` (created if missing), returning
/// the path written.
///
/// # Panics
/// Panics on I/O errors — experiment binaries want loud failures.
pub fn write_csv(table: &Table, name: &str) -> std::path::PathBuf {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write csv");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["k"]);
        t.row(vec!["a,b"]);
        assert_eq!(t.to_csv(), "k\n\"a,b\"\n");
    }

    #[test]
    fn jct_summary_cells_match_header_arity() {
        use llmsched_dag::ids::{AppId, JobId};
        use llmsched_dag::time::SimTime;
        use llmsched_sim::metrics::{JobOutcome, Utilization};
        let r = SimResult {
            scheduler: "test".into(),
            backend: "cluster/jsq".into(),
            jobs: vec![JobOutcome {
                id: JobId(0),
                app: AppId(0),
                arrival: SimTime::ZERO,
                completion: SimTime::from_secs_f64(4.0),
            }],
            makespan: SimTime::from_secs_f64(4.0),
            sched_calls: 1,
            sched_skipped: 0,
            sched_elided: 0,
            sched_deferred: 0,
            sched_wall: std::time::Duration::ZERO,
            sched_wall_samples: [std::time::Duration::ZERO].into_iter().collect(),
            utilization: Utilization::default(),
            events: 1,
            incomplete: 0,
            timeseries: None,
        };
        let cells = jct_summary_cells(&r, SimDuration::from_secs(5));
        assert_eq!(cells.len(), JCT_SUMMARY_HEADER.len());
        assert_eq!(cells[0], "4.00");
        assert_eq!(cells[4], "1.000");
        // The cells drop straight into a table with the shared header.
        let mut t = Table::new(JCT_SUMMARY_HEADER.to_vec());
        t.row(cells);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }
}
