//! Self-contained single-file HTML report for a [`Profile`]: inline
//! CSS only, no scripts, no external assets. Exact metric values are
//! embedded as `data-*` attributes using the same formatting as the
//! JSON and Prometheus exporters, so the three outputs can be
//! cross-checked mechanically. Its tables, and the timeline Gantt
//! chart's, are written by one [`Table`] writer.

use std::fmt::Write as _;

use crate::profiler::Profile;
use mfbc_trace::json::num;

/// Escapes text for an HTML context (element content and quoted
/// attribute values). The timeline's Gantt chart uses it too.
pub fn esc_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// One cell of a [`Table`]: its attributes and raw HTML content.
pub struct Cell(String, String);

/// A right-aligned cell (the tables' default).
pub fn cell(html: impl std::fmt::Display) -> Cell {
    Cell(String::new(), html.to_string())
}

/// A left-aligned (`class="l"`) cell.
pub fn left(html: impl std::fmt::Display) -> Cell {
    Cell(" class=\"l\"".to_string(), html.to_string())
}

impl Cell {
    /// Adds an exact `data-{name}` attribute.
    pub fn data(mut self, name: &str, value: &str) -> Cell {
        let _ = write!(self.0, " data-{name}=\"{value}\"");
        self
    }
}

/// The one HTML table writer of both reports (this one and the
/// timeline's Gantt chart): a header row, body rows with optional
/// `data-*` attributes, then [`Table::end`]. Content is written as
/// given; callers escape text with [`esc_html`].
pub struct Table<'a> {
    out: &'a mut String,
}

impl<'a> Table<'a> {
    /// Opens `<table{attrs}>` with a row of `head` header cells.
    pub fn new(out: &'a mut String, attrs: &str, head: &[Cell]) -> Table<'a> {
        let _ = write!(out, "<table{attrs}>");
        let mut table = Table { out };
        table.tr(&[], "th", head);
        table
    }

    /// One body row; `data` becomes its `data-{name}="value"`
    /// attributes, in order.
    pub fn row(&mut self, data: &[(&str, String)], cells: &[Cell]) {
        self.tr(data, "td", cells);
    }

    fn tr(&mut self, data: &[(&str, String)], tag: &str, cells: &[Cell]) {
        self.out.push_str("<tr");
        for (name, value) in data {
            let _ = write!(self.out, " data-{name}=\"{value}\"");
        }
        self.out.push('>');
        for c in cells {
            let _ = write!(self.out, "<{tag}{}>{}</{tag}>", c.0, c.1);
        }
        self.out.push_str("</tr>\n");
    }

    /// Closes the table.
    pub fn end(self) {
        self.out.push_str("</table>\n");
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        (part / whole * 100.0).clamp(0.0, 100.0)
    } else {
        0.0
    }
}

const STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:2em;max-width:70em;color:#222}\
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em}\
table{border-collapse:collapse;font-size:0.85em}\
td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}\
th{background:#f2f2f2}td.l,th.l{text-align:left}\
.bar{display:flex;height:1.1em;background:#eee;min-width:24em}\
.comm{background:#d9534f;height:100%}\
.comp{background:#5b9bd5;height:100%}\
.tl{display:flex;align-items:flex-end;gap:1px;height:6em;border-bottom:1px solid #999;margin:0.5em 0}\
.tl div{width:0.6em;min-height:1px}\
.fwd{background:#5b9bd5}.bwd{background:#7cb66b}\
.kv{color:#555;font-size:0.9em}\
";

fn header(out: &mut String, p: &Profile) {
    let _ = writeln!(out, "<h1>MFBC profile</h1>");
    let _ = writeln!(
        out,
        "<p class=\"kv\">ranks={} &middot; modeled critical path: comm {} s + comp {} s \
         &middot; total ops {} &middot; load imbalance {} &middot; events {}</p>",
        p.p,
        num(p.critical.comm_s),
        num(p.critical.comp_s),
        p.critical.total_ops,
        num(p.imbalance),
        p.events
    );
}

fn rank_table(out: &mut String, p: &Profile) {
    let max_t = p.max_rank_total_s();
    let _ = writeln!(out, "<h2>Per-rank utilization</h2>");
    let _ = writeln!(
        out,
        "<p class=\"kv\">bar = modeled time vs slowest rank; \
         <span style=\"color:#d9534f\">&#9632;</span> comm, \
         <span style=\"color:#5b9bd5\">&#9632;</span> compute</p>"
    );
    let head = [
        cell("rank"),
        left("utilization"),
        cell("comm s"),
        cell("comp s"),
        cell("msgs"),
        cell("bytes"),
        cell("peak bytes"),
    ];
    let mut t = Table::new(out, "", &head);
    for r in &p.ranks {
        let comm_w = pct(r.comm_s, max_t);
        let comp_w = pct(r.comp_s, max_t);
        let bar = format!(
            "<div class=\"bar\"><div class=\"comm\" style=\"width:{comm_w:.2}%\"></div>\
             <div class=\"comp\" style=\"width:{comp_w:.2}%\"></div></div>"
        );
        let data = [
            ("rank", r.rank.to_string()),
            ("comm-s", num(r.comm_s)),
            ("comp-s", num(r.comp_s)),
            ("peak-bytes", r.peak_bytes.to_string()),
        ];
        t.row(
            &data,
            &[
                cell(r.rank),
                left(bar),
                cell(num(r.comm_s)),
                cell(num(r.comp_s)),
                cell(r.msgs),
                cell(r.bytes),
                cell(r.peak_bytes),
            ],
        );
    }
    t.end();
}

fn superstep_timeline(out: &mut String, p: &Profile) {
    if p.supersteps.is_empty() {
        return;
    }
    let _ = writeln!(out, "<h2>Superstep timeline</h2>");
    let max_nnz = p
        .supersteps
        .iter()
        .map(|s| s.frontier_nnz)
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let _ = writeln!(
        out,
        "<p class=\"kv\">bar height = frontier nnz; \
         <span style=\"color:#5b9bd5\">&#9632;</span> forward, \
         <span style=\"color:#7cb66b\">&#9632;</span> backward</p>"
    );
    out.push_str("<div class=\"tl\">\n");
    for s in &p.supersteps {
        let h = (s.frontier_nnz as f64 / max_nnz * 100.0).max(1.0);
        let class = if s.phase == "forward" { "fwd" } else { "bwd" };
        let _ = writeln!(
            out,
            "<div class=\"{class}\" style=\"height:{h:.1}%\" \
             title=\"{} b{} s{}: nnz={} comm={} s\"></div>",
            esc_html(&s.phase),
            s.batch,
            s.step,
            s.frontier_nnz,
            num(s.comm_s)
        );
    }
    out.push_str("</div>\n");
    let head = [
        "phase",
        "batch",
        "step",
        "frontier nnz",
        "active rows",
        "comm s",
        "collectives",
        "spgemm ops",
    ];
    let mut t = Table::new(out, "", &head.map(cell));
    for s in &p.supersteps {
        t.row(
            &[],
            &[
                left(esc_html(&s.phase)),
                cell(s.batch),
                cell(s.step),
                cell(s.frontier_nnz),
                cell(s.active_rows),
                cell(num(s.comm_s)),
                cell(s.collectives),
                cell(s.spgemm_ops),
            ],
        );
    }
    t.end();
}

fn collectives_table(out: &mut String, p: &Profile) {
    if p.collectives.is_empty() {
        return;
    }
    let _ = writeln!(out, "<h2>Collectives</h2>");
    let _ = writeln!(
        out,
        "<p class=\"kv\">setup (pre-superstep) comm: {} s</p>",
        num(p.setup_comm_s)
    );
    let head = [
        left("kind"),
        cell("count"),
        cell("modeled s"),
        cell("share"),
        cell("msgs"),
        cell("bytes"),
    ];
    let mut t = Table::new(out, "", &head);
    for c in &p.collectives {
        t.row(
            &[],
            &[
                left(esc_html(&c.kind)),
                cell(c.count),
                cell(num(c.modeled_s)),
                cell(format!("{:.1}%", c.share * 100.0)),
                cell(c.msgs),
                cell(c.bytes),
            ],
        );
    }
    t.end();
}

fn plan_mix_table(out: &mut String, p: &Profile) {
    if p.plan_mix.is_empty() {
        return;
    }
    let _ = writeln!(out, "<h2>SpGEMM plan mix</h2>");
    let _ = writeln!(
        out,
        "<p class=\"kv\">autotune decisions: {} (candidates rejected by memory gate: {})</p>",
        p.autotune.decisions, p.autotune.infeasible
    );
    let head = [
        left("plan"),
        cell("count"),
        cell("ops"),
        cell("nnz(C)"),
        cell("autotune wins"),
    ];
    let mut t = Table::new(out, "", &head);
    for m in &p.plan_mix {
        t.row(
            &[],
            &[
                left(esc_html(&m.plan)),
                cell(m.count),
                cell(m.ops),
                cell(m.nnz_c),
                cell(m.autotune_wins),
            ],
        );
    }
    t.end();
}

fn faults_table(out: &mut String, p: &Profile) {
    if p.faults.is_empty() && p.recoveries.is_empty() {
        return;
    }
    let _ = writeln!(out, "<h2>Faults &amp; recovery</h2>");
    let _ = writeln!(
        out,
        "<p class=\"kv\">modeled seconds of discarded work: {}</p>",
        num(p.wasted_s)
    );
    let mut t = Table::new(out, "", &[left("fault kind"), cell("count")]);
    for f in &p.faults {
        t.row(&[], &[left(esc_html(&f.kind)), cell(f.count)]);
    }
    t.end();
    if !p.recoveries.is_empty() {
        let head = [left("recovery action"), cell("count"), cell("wasted s")];
        let mut t = Table::new(out, " style=\"margin-top:0.6em\"", &head);
        for r in &p.recoveries {
            let row = [
                left(esc_html(&r.action)),
                cell(r.count),
                cell(num(r.wasted_s)),
            ];
            t.row(&[], &row);
        }
        t.end();
    }
}

fn pool_table(out: &mut String, p: &Profile) {
    if p.pool.is_empty() {
        return;
    }
    let _ = writeln!(out, "<h2>Shared-memory pool</h2>");
    let head = [
        left("kernel"),
        cell("calls"),
        cell("tasks"),
        cell("busy &micro;s"),
    ];
    let mut t = Table::new(out, "", &head);
    for w in &p.pool {
        let row = [
            left(esc_html(&w.kernel)),
            cell(w.calls),
            cell(w.tasks),
            cell(w.busy_us),
        ];
        t.row(&[], &row);
    }
    t.end();
}

/// Renders the whole report as one self-contained HTML document.
pub fn render(p: &Profile) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>MFBC profile</title>\n<style>");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body>\n");
    header(&mut out, p);
    rank_table(&mut out, p);
    superstep_timeline(&mut out, p);
    collectives_table(&mut out, p);
    plan_mix_table(&mut out, p);
    faults_table(&mut out, p);
    pool_table(&mut out, p);
    out.push_str("</body>\n</html>\n");
    out
}

/// The `<tr data-rank="…">` rows of a rendered document, in document
/// order: each row's rank and the raw values of the `data-*`
/// attributes named in `names` (`None` where absent). This is the one
/// scanner behind both reports' exact-value cross-checks.
pub fn data_rank_rows<'a, const N: usize>(
    html: &'a str,
    names: [&str; N],
) -> Vec<(usize, [Option<&'a str>; N])> {
    let mut rows = Vec::new();
    for chunk in html.split("<tr data-rank=\"").skip(1) {
        let attr = |name: &str| -> Option<&'a str> {
            let key = format!("{name}=\"");
            let start = chunk.find(&key)? + key.len();
            let end = chunk[start..].find('"')? + start;
            Some(&chunk[start..end])
        };
        let Some(rank) = chunk.split('"').next().and_then(|s| s.parse().ok()) else {
            continue;
        };
        rows.push((rank, names.map(attr)));
    }
    rows
}

/// Extracts the per-rank exact values embedded in a rendered report's
/// `data-*` attributes: `(rank, comm_s, comp_s, peak_bytes)` in
/// document order. Used by tests to cross-check the HTML against the
/// JSON and Prometheus exporters.
pub fn parse_rank_rows(html: &str) -> Vec<(usize, f64, f64, u64)> {
    data_rank_rows(html, ["data-comm-s", "data-comp-s", "data-peak-bytes"])
        .into_iter()
        .filter_map(|(rank, [comm, comp, peak])| {
            Some((
                rank,
                comm?.parse().ok()?,
                comp?.parse().ok()?,
                peak?.parse().ok()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::RankProfile;
    use mfbc_trace::StepTotals;

    fn sample() -> Profile {
        Profile {
            p: 2,
            ranks: vec![
                RankProfile {
                    rank: 0,
                    comm_s: 0.125,
                    comp_s: 0.5,
                    msgs: 3,
                    bytes: 100,
                    resident_bytes: 10,
                    peak_bytes: 90,
                },
                RankProfile {
                    rank: 1,
                    comm_s: 0.0625,
                    comp_s: 0.25,
                    msgs: 2,
                    bytes: 60,
                    resident_bytes: 5,
                    peak_bytes: 40,
                },
            ],
            supersteps: vec![StepTotals {
                phase: "forward".into(),
                batch: 0,
                step: 0,
                frontier_nnz: 17,
                active_rows: 4,
                comm_s: 0.01,
                collectives: 2,
                spgemm_ops: 99,
                plans: Vec::new(),
            }],
            ..Profile::default()
        }
    }

    #[test]
    fn report_is_self_contained() {
        let html = render(&sample());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<style>"));
        for needle in ["<script", "http://", "https://", "url("] {
            assert!(!html.contains(needle), "external reference: {needle}");
        }
    }

    #[test]
    fn data_attributes_round_trip_exact_values() {
        let p = sample();
        let rows = parse_rank_rows(&render(&p));
        assert_eq!(rows.len(), 2);
        for (row, r) in rows.iter().zip(&p.ranks) {
            assert_eq!(row.0, r.rank);
            assert_eq!(row.1.to_bits(), r.comm_s.to_bits());
            assert_eq!(row.2.to_bits(), r.comp_s.to_bits());
            assert_eq!(row.3, r.peak_bytes);
        }
    }

    #[test]
    fn plan_labels_are_html_escaped() {
        let mut p = sample();
        p.plan_mix.push(mfbc_trace::PlanMixEntry {
            plan: "cannon(q=4)<&>".into(),
            count: 1,
            ops: 2,
            nnz_c: 3,
            autotune_wins: 0,
        });
        let html = render(&p);
        assert!(html.contains("cannon(q=4)&lt;&amp;&gt;"));
        assert!(!html.contains("cannon(q=4)<&>"));
    }
}
