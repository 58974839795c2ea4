//! Per-rank causal timelines, critical-path extraction, and what-if
//! bottleneck analysis for MFBC runs.
//!
//! The machine layer meters cost (per-rank α–β–γ meters) and streams
//! a typed trace ([`mfbc_trace`]); this crate replays that stream
//! into a *causal* model of the run:
//!
//! 1. [`TimelineBuilder`] is a [`mfbc_trace::Recorder`] that folds the
//!    event stream into per-rank lanes of typed segments (collectives
//!    by kind with their exact α/β split, local compute, fault-retry
//!    backoff), each carrying modeled seconds, bytes/messages, and
//!    superstep/plan provenance. The builder maintains a replica of
//!    the machine's per-rank cost meters and can bit-compare itself
//!    against them ([`Timeline::validate_against`]). It also folds
//!    every event into the [`mfbc_trace::Summary`] the timeline
//!    carries ([`Timeline::summary`]) — the superstep list, and all a
//!    profile needs — so one recorder yields both the timeline and
//!    `mfbc_profile::Profile::of(&timeline.summary, &machine)`.
//! 2. [`critical_path`] walks the BSP dependency DAG backwards from
//!    the lane that attains the makespan and returns the exact gating
//!    chain — segment durations folded left-to-right reproduce the
//!    makespan **bit-for-bit** ([`CriticalPath::sum_s`]). On top of
//!    it sit the ranked bottleneck table ([`bottlenecks`]) and
//!    per-superstep straggler attribution ([`step_attribution`]).
//! 3. [`whatif`] replays the causal recurrence under counterfactual
//!    edits (zero a collective kind, scale α/β/γ, perfectly overlap
//!    communication with compute) yielding modeled lower bounds; the
//!    identity edit reproduces the makespan bit-for-bit and every
//!    edit is monotone non-increasing.
//! 4. [`export`] renders the versioned `timeline.json` document (with
//!    a parser for round-trips and run-vs-run diffs), a
//!    self-contained Gantt-style HTML view, and metric-registry
//!    gauges — all using the shared exact-`f64` formatter so numbers
//!    agree bit-for-bit across exporters. The document is a report
//!    row ([`mfbc_trace::json::Row`]): [`Bottleneck`],
//!    [`StepAttribution`], [`RoundInfo`] and [`WhatIfReport`] list
//!    their `"key" => field` pairs where they are defined and go into
//!    the document as they are; only a lane and a path segment are
//!    projected ([`RankRow`], [`PathRow`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod critical;
pub mod export;
pub mod whatif;

pub use builder::{Lane, Marker, Node, RoundInfo, SegmentKind, Timeline, TimelineBuilder};
pub use critical::{
    analyze, bottlenecks, critical_path, step_attribution, Analysis, Bottleneck, CriticalPath,
    PathSegment, StepAttribution,
};
pub use export::{
    diff_docs, doc, parse_html_rank_rows, parse_timeline, register_metrics, render_diff, to_html,
    to_json, DiffRow, PathRow, RankRow, TimelineDoc, TIMELINE_JSON_VERSION,
};
pub use whatif::{evaluate, report, WhatIf, WhatIfReport};
