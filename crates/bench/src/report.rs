//! Result tables: aligned console output plus CSV persistence.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple rectangular results table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment identifier (used as the CSV filename).
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: &str, headers: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity disagrees with the headers.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// CSV serialization (RFC 4180 quoting: cells containing commas,
    /// quotes, or line breaks are quoted; quotes double).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table and writes `results/<name>.csv` next to the
    /// bench crate (best-effort; printing always happens).
    pub fn emit(&self) {
        println!("\n== {} ==", self.name);
        println!("{}", self.render());
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.csv", self.name));
            match std::fs::write(&path, self.to_csv()) {
                Ok(()) => println!("[saved {}]", path.display()),
                Err(e) => mfbc_trace::log(mfbc_trace::Level::Warn, || {
                    format!("could not save {}: {e}", path.display())
                }),
            }
        }
    }
}

/// Builds a Table-3-style per-collective summary from a recorded
/// trace: one row per [`mfbc_machine::CollectiveKind`] that fired,
/// with invocation count, bytes moved, charged bytes, message count,
/// and total modeled seconds (sorted by modeled time, descending).
pub fn trace_summary(records: &[mfbc_trace::TraceRecord]) -> Table {
    let mut t = Table::new(
        "trace_summary",
        &[
            "collective",
            "count",
            "bytes",
            "charged",
            "msgs",
            "modeled_s",
        ],
    );
    for k in mfbc_trace::collective_summary(records) {
        t.push(vec![
            k.kind,
            k.count.to_string(),
            k.bytes.to_string(),
            k.bytes_charged.to_string(),
            k.msgs.to_string(),
            format!("{:.6}", k.modeled_s),
        ]);
    }
    t
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Formats an `f64` with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats an `f64` with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats bytes as mebibytes with 2 decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["graph", "MTEPS"]);
        t.push(vec!["orkut".into(), "123.45".into()]);
        t.push(vec!["x".into(), "1.0".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("graph"));
        assert!(lines[2].contains("orkut"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", &["a"]);
        t.push(vec!["x,y".into()]);
        assert_eq!(t.to_csv(), "a\n\"x,y\"\n");
    }

    #[test]
    fn csv_quotes_newlines_and_quotes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["line\nbreak".into(), "say \"hi\"".into()]);
        t.push(vec!["bare\rreturn".into(), String::new()]);
        assert_eq!(
            t.to_csv(),
            "a,b\n\"line\nbreak\",\"say \"\"hi\"\"\"\n\"bare\rreturn\",\n"
        );
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn trace_summary_tabulates_collectives() {
        use mfbc_trace::{CollectiveCharge, TraceEvent, TraceRecord};
        let rec = |kind, bytes, modeled_s| TraceRecord {
            ts_us: 0,
            tid: 0,
            event: TraceEvent::Collective {
                charge: CollectiveCharge {
                    kind,
                    group: 4,
                    ranks: vec![0, 1, 2, 3],
                    seq: 0,
                    bytes,
                    msgs: 2,
                    bytes_charged: bytes,
                    modeled_s,
                },
            },
        };
        let records = vec![
            rec("allgather", 100, 0.5),
            rec("allgather", 50, 0.25),
            rec("broadcast", 10, 2.0),
        ];
        let t = trace_summary(&records);
        assert_eq!(t.rows.len(), 2);
        // Sorted by modeled seconds, descending.
        assert_eq!(t.rows[0][0], "broadcast");
        assert_eq!(t.rows[1][0], "allgather");
        assert_eq!(t.rows[1][1], "2");
        assert_eq!(t.rows[1][2], "150");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // Rust rounds half-to-even on format
        assert_eq!(mib(1 << 20), "1.00");
    }
}
