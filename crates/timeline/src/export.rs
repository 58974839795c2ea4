//! Timeline exports: the versioned `timeline.json` document (written
//! and parsed by the report-row walks of [`mfbc_trace::json`], with
//! run-vs-run diffs), a self-contained Gantt-style HTML view, and
//! metric-registry mirroring.
//!
//! Every number is written with the exact `{:?}` formatter shared
//! with the profile/Prometheus exporters, so documents can be
//! compared bit-for-bit across exporters and across runs.

use crate::builder::{RoundInfo, SegmentKind, Timeline};
use crate::critical::{Analysis, Bottleneck, StepAttribution};
use crate::whatif::WhatIfReport;
use mfbc_profile::html::{cell, data_rank_rows, esc_html, left, Table};
use mfbc_profile::{MetricKind, MetricsRegistry};
use mfbc_trace::json::{self, num, parse, Row, Version};
use mfbc_trace::{row, Value};
use std::fmt::Write as _;

/// Format version of the `timeline.json` document. Version 2 added
/// the top-level `overlap` flag (which clock recurrence the run was
/// modeled under) and issue-anchored collective spans in the Gantt
/// view. Version 3 added the `rounds` array (serve drain rounds with
/// degradation decisions and DAG-node attribution).
pub const TIMELINE_JSON_VERSION: u64 = 3;

/// One rank's row in the document: a [`Lane`](crate::Lane) without
/// its node list, under its slot number.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankRow {
    /// Lane slot (initial rank id).
    pub lane: u64,
    /// Whether the rank survived to the end of the run.
    pub alive: bool,
    /// Final causal clock in seconds.
    pub clock_s: f64,
    /// Replica communication seconds.
    pub comm_s: f64,
    /// Replica computation seconds.
    pub comp_s: f64,
    /// Replica critical-path messages.
    pub msgs: u64,
    /// Replica critical-path bytes.
    pub bytes: u64,
}

row! { RankRow {
    "lane" => lane,
    "alive" => alive,
    "clock_s" => clock_s,
    "comm_s" => comm_s,
    "comp_s" => comp_s,
    "msgs" => msgs,
    "bytes" => bytes,
} }

/// One critical-path segment row: a
/// [`PathSegment`](crate::PathSegment) without its `comm` flag.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathRow {
    /// Node index in the timeline.
    pub node: usize,
    /// Lane the segment gates.
    pub lane: usize,
    /// Segment label.
    pub label: String,
    /// Causal start in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub dt_s: f64,
    /// Superstep index, if inside one.
    pub superstep: Option<usize>,
}

row! { PathRow {
    "node" => node,
    "lane" => lane,
    "label" => label,
    "start_s" => start_s,
    "dt_s" => dt_s,
    "superstep" => superstep,
} }

/// The parsed/parseable `timeline.json` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineDoc {
    /// Format version.
    pub version: Version<TIMELINE_JSON_VERSION>,
    /// Surviving rank count.
    pub p: u64,
    /// Whether the run was modeled under overlapped accounting
    /// (in-flight collectives hide their bandwidth under compute).
    pub overlap: bool,
    /// Modeled makespan in seconds.
    pub makespan_s: f64,
    /// Fraction of the makespan gated by communication.
    pub comm_share: f64,
    /// Segment (node) count in the timeline.
    pub events: u64,
    /// Replay-dropped event count (nonzero = untrustworthy trace).
    pub dropped: u64,
    /// Per-lane rows.
    pub ranks: Vec<RankRow>,
    /// The gating chain in forward order.
    pub critical_path: Vec<PathRow>,
    /// Ranked bottleneck classes.
    pub bottlenecks: Vec<Bottleneck>,
    /// Per-superstep attribution.
    pub supersteps: Vec<StepAttribution>,
    /// Serve drain rounds (empty for non-serve runs).
    pub rounds: Vec<RoundInfo>,
    /// Evaluated what-if edits.
    pub what_if: Vec<WhatIfReport>,
}

row! { TimelineDoc {
    "version" => version,
    "p" => p,
    "overlap" => overlap,
    "makespan_s" => makespan_s,
    "comm_share" => comm_share,
    "events" => events,
    "dropped" => dropped,
    "ranks" => ranks,
    "critical_path" => critical_path,
    "bottlenecks" => bottlenecks,
    "supersteps" => supersteps,
    "rounds" => rounds,
    "what_if" => what_if,
} }

/// Builds the document from a sealed timeline, its analysis, and any
/// evaluated what-if edits.
pub fn doc(tl: &Timeline, an: &Analysis, what_ifs: &[WhatIfReport]) -> TimelineDoc {
    TimelineDoc {
        version: Version,
        p: tl.p_alive() as u64,
        overlap: tl.spec.overlap,
        makespan_s: tl.makespan_s(),
        comm_share: an.comm_share(),
        events: tl.nodes.len() as u64,
        dropped: tl.dropped,
        ranks: tl
            .lanes
            .iter()
            .enumerate()
            .map(|(i, l)| RankRow {
                lane: i as u64,
                alive: l.alive,
                clock_s: l.clock_s,
                comm_s: l.cost.comm_time,
                comp_s: l.cost.comp_time,
                msgs: l.cost.msgs,
                bytes: l.cost.bytes,
            })
            .collect(),
        critical_path: an
            .path
            .segments
            .iter()
            .map(|s| PathRow {
                node: s.node,
                lane: s.lane,
                label: s.label.clone(),
                start_s: s.start_s,
                dt_s: s.dt_s,
                superstep: s.superstep,
            })
            .collect(),
        bottlenecks: an.bottlenecks.clone(),
        supersteps: an.steps.clone(),
        rounds: tl.rounds.clone(),
        what_if: what_ifs.to_vec(),
    }
}

/// Serializes the document (one row object per line, exact numbers).
pub fn to_json(d: &TimelineDoc) -> String {
    json::write_doc(d)
}

/// Parses a `timeline.json` document back into a [`TimelineDoc`].
pub fn parse_timeline(text: &str) -> Result<TimelineDoc, String> {
    TimelineDoc::read(&parse(text)?)
}

/// One row of a run-vs-run comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// What is being compared (e.g. `makespan_s`,
    /// `bottleneck allgather seconds`).
    pub what: String,
    /// Value in the first (baseline) document.
    pub before: f64,
    /// Value in the second (candidate) document.
    pub after: f64,
}

impl DiffRow {
    /// `after - before`.
    pub fn delta(&self) -> f64 {
        self.after - self.before
    }
}

/// Structured run-vs-run diff: compares the document's real-valued
/// headline fields (makespan, comm share), the path length, per-rank
/// clocks, and per-class bottleneck seconds. Rows where both sides
/// are bit-identical are omitted, so an empty result means the two
/// runs are indistinguishable at this granularity.
pub fn diff_docs(before: &TimelineDoc, after: &TimelineDoc) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let mut push = |what: String, b: f64, a: f64| {
        if b.to_bits() != a.to_bits() {
            rows.push(DiffRow {
                what,
                before: b,
                after: a,
            });
        }
    };
    json::diff(before, after, &mut |key, b, a| {
        if let (Value::F64(b), Value::F64(a)) = (b, a) {
            push(key.into(), b, a);
        }
    });
    push(
        "critical_path segments".into(),
        before.critical_path.len() as f64,
        after.critical_path.len() as f64,
    );
    let lanes = before.ranks.len().max(after.ranks.len());
    for lane in 0..lanes {
        let b = before.ranks.get(lane).map_or(0.0, |r| r.clock_s);
        let a = after.ranks.get(lane).map_or(0.0, |r| r.clock_s);
        push(format!("rank {lane} clock_s"), b, a);
    }
    let mut labels: Vec<&str> = before
        .bottlenecks
        .iter()
        .chain(&after.bottlenecks)
        .map(|b| b.label.as_str())
        .collect();
    labels.dedup();
    labels.sort_unstable();
    labels.dedup();
    for label in labels {
        let find = |d: &TimelineDoc| {
            d.bottlenecks
                .iter()
                .find(|b| b.label == label)
                .map_or(0.0, |b| b.seconds)
        };
        push(
            format!("bottleneck {label} seconds"),
            find(before),
            find(after),
        );
    }
    rows
}

/// Renders a diff as an aligned text table (`(identical)` when
/// empty).
pub fn render_diff(rows: &[DiffRow]) -> String {
    if rows.is_empty() {
        return "(identical)\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>16} {:>16} {:>16}",
        "metric", "before", "after", "delta"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<32} {:>16.6e} {:>16.6e} {:>+16.6e}",
            r.what,
            r.before,
            r.after,
            r.delta()
        );
    }
    out
}

/// Mirrors the headline analysis numbers into a metrics registry
/// (rendered by the shared Prometheus exporter).
pub fn register_metrics(reg: &MetricsRegistry, tl: &Timeline, an: &Analysis) {
    reg.declare(
        "mfbc_timeline_makespan_seconds",
        MetricKind::Gauge,
        "Modeled causal makespan of the run",
    );
    reg.declare(
        "mfbc_timeline_critical_comm_share",
        MetricKind::Gauge,
        "Fraction of the makespan gated by communication segments",
    );
    reg.declare(
        "mfbc_timeline_path_segments",
        MetricKind::Gauge,
        "Number of segments on the critical path",
    );
    reg.declare(
        "mfbc_timeline_bottleneck_seconds",
        MetricKind::Gauge,
        "Critical-path seconds gated by one segment class",
    );
    reg.gauge_set("mfbc_timeline_makespan_seconds", &[], tl.makespan_s());
    reg.gauge_set("mfbc_timeline_critical_comm_share", &[], an.comm_share());
    reg.gauge_set(
        "mfbc_timeline_path_segments",
        &[],
        an.path.segments.len() as f64,
    );
    for b in &an.bottlenecks {
        reg.gauge_set(
            "mfbc_timeline_bottleneck_seconds",
            &[("label", b.label.as_str())],
            b.seconds,
        );
    }
}

const HTML_STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:2em;max-width:80em;color:#222}\
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em}\
table{border-collapse:collapse;font-size:0.85em}\
td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}\
th{background:#f2f2f2}td.l,th.l{text-align:left}\
.lane{position:relative;height:1.4em;background:#f4f4f4;margin:2px 0;border:1px solid #ddd}\
.lane span{position:absolute;top:0;bottom:0;min-width:1px}\
.lane .dead{background:repeating-linear-gradient(45deg,#eee,#eee 4px,#ddd 4px,#ddd 8px)}\
.seg-compute{background:#5b9bd5}\
.seg-backoff{background:#f0ad4e}\
.seg-c0{background:#d9534f}.seg-c1{background:#c9302c}.seg-c2{background:#b52b27}\
.seg-c3{background:#e06666}.seg-c4{background:#a94442}.seg-c5{background:#d43f3a}\
.seg-c6{background:#c45850}.seg-c7{background:#e9967a}.seg-c8{background:#cd5c5c}\
.crit{outline:2px solid #222;z-index:2}\
.legend span{display:inline-block;width:0.9em;height:0.9em;margin:0 0.3em 0 1em;vertical-align:middle}\
.kv{color:#555;font-size:0.9em}\
";

fn collective_class(kind: &str) -> String {
    // Stable small palette: hash the kind name onto 9 red-family
    // shades so each collective kind keeps its color across runs.
    let h: u32 = kind
        .bytes()
        .fold(0u32, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u32));
    format!("seg-c{}", h % 9)
}

/// Renders a self-contained Gantt-style HTML timeline: one bar per
/// lane, segments positioned by causal clock, critical-path segments
/// outlined, plus the bottleneck table and per-rank totals with exact
/// values in `data-*` attributes (cross-checkable against the JSON
/// and Prometheus exporters).
pub fn to_html(tl: &Timeline, an: &Analysis) -> String {
    let makespan = tl.makespan_s();
    let mut out = String::with_capacity(16 * 1024);
    let _ = writeln!(out, "<!doctype html>");
    let _ = writeln!(out, "<html lang=\"en\"><head><meta charset=\"utf-8\">");
    let _ = writeln!(out, "<title>MFBC timeline</title>");
    let _ = writeln!(out, "<style>{HTML_STYLE}</style></head><body>");
    let _ = writeln!(out, "<h1>MFBC causal timeline</h1>");
    let _ = writeln!(
        out,
        "<p class=\"kv\" data-makespan=\"{}\" data-comm-share=\"{}\" data-overlap=\"{}\">ranks={} &middot; \
         {} accounting &middot; makespan {} s \
         &middot; critical comm share {:.1}% &middot; {} segments ({} on the critical path)</p>",
        num(makespan),
        num(an.comm_share()),
        tl.spec.overlap,
        tl.p_alive(),
        if tl.spec.overlap {
            "overlapped"
        } else {
            "serialized"
        },
        num(makespan),
        an.comm_share() * 100.0,
        tl.nodes.len(),
        an.path.segments.len()
    );

    // Gantt lanes.
    let _ = writeln!(out, "<h2>Per-rank timeline</h2>");
    let on_path: std::collections::BTreeSet<usize> =
        an.path.segments.iter().map(|s| s.node).collect();
    for (lane_id, lane) in tl.lanes.iter().enumerate() {
        let _ = writeln!(
            out,
            "<div class=\"kv\">rank {lane_id}{}</div>",
            if lane.alive { "" } else { " (failed)" }
        );
        let _ = write!(out, "<div class=\"lane\">");
        for &id in &lane.node_ids {
            let node = &tl.nodes[id];
            if makespan <= 0.0 {
                break;
            }
            // Under overlapped accounting a collective's transfer is
            // in flight from its issue anchor to its completion, so
            // the Gantt span covers that whole window (the part before
            // `start_s` hid under local compute); serialized segments
            // render their ready-clock window unchanged.
            let overlapped_coll = tl.spec.overlap
                && node.issue_at.is_some()
                && matches!(node.kind, SegmentKind::Collective { .. });
            let (span_start, span_dt, title) = if overlapped_coll {
                (
                    node.issue_s,
                    node.end_s - node.issue_s,
                    format!(
                        "{} {} s in flight {} – {} s (issued @ {} s)",
                        esc_html(node.label()),
                        num(node.dt_s),
                        num(node.issue_s),
                        num(node.end_s),
                        num(node.issue_s)
                    ),
                )
            } else {
                (
                    node.start_s,
                    node.dt_s,
                    format!(
                        "{} {} s @ {} s",
                        esc_html(node.label()),
                        num(node.dt_s),
                        num(node.start_s)
                    ),
                )
            };
            let left = span_start / makespan * 100.0;
            let width = (span_dt / makespan * 100.0).max(0.05);
            let class = match &node.kind {
                SegmentKind::Collective { kind, .. } => collective_class(kind),
                SegmentKind::Compute { .. } => "seg-compute".to_string(),
                SegmentKind::Backoff => "seg-backoff".to_string(),
            };
            let crit = if on_path.contains(&id) { " crit" } else { "" };
            let _ = write!(
                out,
                "<span class=\"{class}{crit}\" style=\"left:{left:.4}%;width:{width:.4}%\" \
                 title=\"{title}\"></span>"
            );
        }
        if !lane.alive {
            let _ = write!(
                out,
                "<span class=\"dead\" style=\"left:0;width:100%\"></span>"
            );
        }
        let _ = writeln!(out, "</div>");
    }
    // Serve round lane: one span per drain round, shaded by rung,
    // positioned on the same causal-clock axis as the rank lanes.
    if !tl.rounds.is_empty() && makespan > 0.0 {
        let _ = writeln!(out, "<div class=\"kv\">serve rounds</div>");
        let _ = write!(out, "<div class=\"lane\">");
        for r in &tl.rounds {
            let left = r.start_s / makespan * 100.0;
            let width = ((r.end_s - r.start_s) / makespan * 100.0).max(0.05);
            let class = match r.rung.as_str() {
                "exact" => "seg-compute",
                "approx" => "seg-backoff",
                _ => "seg-c0",
            };
            let _ = write!(
                out,
                "<span class=\"{class}\" style=\"left:{left:.4}%;width:{width:.4}%\" \
                 title=\"round {} {} ({}) {} req → {} resp\"></span>",
                r.round,
                esc_html(&r.rung),
                esc_html(&r.reason),
                r.requests,
                r.responses
            );
        }
        let _ = writeln!(out, "</div>");
    }
    let _ = writeln!(
        out,
        "<p class=\"legend kv\"><span class=\"seg-compute\"></span>compute\
         <span class=\"seg-backoff\"></span>backoff\
         <span class=\"seg-c0\"></span>collectives (by kind) \
         &middot; outlined = on the critical path</p>"
    );

    // Bottleneck table.
    let _ = writeln!(out, "<h2>Critical-path bottlenecks</h2>");
    let head = [
        left("segment class"),
        cell("gating s"),
        cell("share"),
        cell("count"),
    ];
    let mut t = Table::new(&mut out, "", &head);
    for b in &an.bottlenecks {
        let seconds = num(b.seconds);
        t.row(
            &[],
            &[
                left(esc_html(&b.label)),
                cell(&seconds).data("seconds", &seconds),
                cell(format!("{:.1}%", b.share * 100.0)),
                cell(b.count),
            ],
        );
    }
    t.end();

    // Per-rank totals with exact data-* attributes.
    let _ = writeln!(out, "<h2>Per-rank totals</h2>");
    let head = ["rank", "clock s", "comm s", "comp s", "msgs", "bytes"];
    let mut t = Table::new(&mut out, "", &head.map(cell));
    for (lane_id, lane) in tl.lanes.iter().enumerate() {
        let data = [
            ("rank", lane_id.to_string()),
            ("clock", num(lane.clock_s)),
            ("comm", num(lane.cost.comm_time)),
            ("comp", num(lane.cost.comp_time)),
        ];
        t.row(
            &data,
            &[
                cell(format!("{lane_id}{}", if lane.alive { "" } else { " ✝" })),
                cell(num(lane.clock_s)),
                cell(num(lane.cost.comm_time)),
                cell(num(lane.cost.comp_time)),
                cell(lane.cost.msgs),
                cell(lane.cost.bytes),
            ],
        );
    }
    t.end();

    // Serve rounds table with exact data-* attributes, if any.
    if !tl.rounds.is_empty() {
        out.push_str("<h2>Serve rounds</h2>");
        let head = [
            cell("round"),
            cell("requests"),
            left("rung"),
            left("reason"),
            cell("responses"),
            cell("budget s"),
            cell("start s"),
            cell("end s"),
            cell("nodes"),
        ];
        let mut t = Table::new(&mut out, "", &head);
        for r in &tl.rounds {
            let data = [
                ("round", r.round.to_string()),
                ("start", num(r.start_s)),
                ("end", num(r.end_s)),
            ];
            t.row(
                &data,
                &[
                    cell(r.round),
                    cell(r.requests),
                    left(esc_html(&r.rung)),
                    left(esc_html(&r.reason)),
                    cell(r.responses),
                    cell(r.budget_s.map_or("∞".to_string(), num)),
                    cell(num(r.start_s)),
                    cell(num(r.end_s)),
                    cell(r.nodes),
                ],
            );
        }
        t.end();
    }

    // Markers, if any.
    if !tl.markers.is_empty() {
        out.push_str("<h2>Events</h2>");
        let head = [cell("at s"), left("event"), left("detail")];
        let mut t = Table::new(&mut out, "", &head);
        for m in &tl.markers {
            let row = [
                cell(num(m.at_s)),
                left(esc_html(&m.label)),
                left(esc_html(&m.detail)),
            ];
            t.row(&[], &row);
        }
        t.end();
    }
    let _ = writeln!(out, "</body></html>");
    out
}

/// Extracts `(rank, clock_s, comm_s, comp_s)` rows from the exact
/// `data-*` attributes of [`to_html`] output — the mechanical
/// cross-check used by the exporter-agreement tests.
pub fn parse_html_rank_rows(html: &str) -> Vec<(usize, f64, f64, f64)> {
    data_rank_rows(html, ["data-clock", "data-comm", "data-comp"])
        .into_iter()
        .filter_map(|(rank, [clock, comm, comp])| {
            Some((
                rank,
                clock?.parse().ok()?,
                comm?.parse().ok()?,
                comp?.parse().ok()?,
            ))
        })
        .collect()
}
