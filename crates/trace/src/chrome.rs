//! Chrome `trace_event` exporter.
//!
//! The output opens directly in `chrome://tracing` or Perfetto
//! (<https://ui.perfetto.dev>, "Open trace file"). Spans become
//! nested `B`/`E` slices per thread, counters become counter tracks,
//! and everything else becomes instant events named by
//! [`TraceEvent::title`] with the structured payload in `args`.
//!
//! Rank-attributed events ([`TraceEvent::lanes`]: collectives, compute
//! charges, backoff waits, rank-targeted faults) are fanned out into
//! **one process lane per rank** (`pid = rank + 1`, labeled `rank N`
//! via `process_name` metadata), so the per-rank concurrency structure
//! is visible instead of being flattened into a single lane. Events
//! with no rank attribution (spans, counters, autotune decisions, …)
//! stay on `pid 0` (`stream`), keyed by emitting thread.
//! [Global](TraceEvent::is_global) events are rendered as
//! global-scoped instants (`"s":"g"`) so recovery gaps draw a line
//! across every lane.
//!
//! `args` is the JSON-lines field list minus the `ranks` list that
//! became the lanes.

use crate::event::{TraceEvent, TraceRecord, Value};
use crate::json::{esc, num};
use std::fmt::Write as _;

/// Lane id for events with no rank attribution.
const STREAM_PID: u64 = 0;

/// Lane id for a rank's process lane.
fn rank_pid(rank: usize) -> u64 {
    rank as u64 + 1
}

/// Starts one event object (left open for `args` or the closing brace).
fn head(name: &str, cat: &str, ph: &str, ts_us: u64, pid: u64, tid: u64) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{tid}",
        esc(name),
    )
}

fn one_event(events: &mut Vec<String>, rec: &TraceRecord) {
    let event = &rec.event;
    let (name, cat) = (event.title(), event.category());
    match event {
        TraceEvent::SpanBegin { .. } => {
            events.push(head(&name, cat, "B", rec.ts_us, STREAM_PID, rec.tid) + "}");
        }
        TraceEvent::SpanEnd { .. } => {
            events.push(head(&name, cat, "E", rec.ts_us, STREAM_PID, rec.tid) + "}");
        }
        TraceEvent::Counter { value, .. } => {
            let mut out = head(&name, cat, "C", rec.ts_us, STREAM_PID, rec.tid);
            let _ = write!(out, ",\"args\":{{\"{}\":{}}}}}", esc(&name), num(*value));
            events.push(out);
        }
        _ => {
            let mut args = String::new();
            event.fields(&mut |key, value| {
                if matches!(value, Value::Ranks(_)) {
                    return;
                }
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"{key}\":");
                value.write_json(&mut args);
            });
            let scope = if event.is_global() { "g" } else { "t" };
            let mut instant = |pid: u64| {
                let mut out = head(&name, cat, "i", rec.ts_us, pid, 0);
                let _ = write!(out, ",\"s\":\"{scope}\",\"args\":{{{args}}}}}");
                events.push(out);
            };
            match event.lanes() {
                [] => instant(STREAM_PID),
                ranks => ranks.iter().for_each(|&r| instant(rank_pid(r))),
            }
        }
    }
}

/// Serializes records as a complete Chrome `trace_event` JSON
/// document with one process lane per rank.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(records.len() + 8);
    // Label the lanes first: pid 0 is the un-attributed event stream,
    // pid r+1 is rank r.
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{STREAM_PID},\"tid\":0,\"args\":{{\"name\":\"stream\"}}}}"
    ));
    if let Some(mx) = records.iter().filter_map(|r| r.event.max_rank()).max() {
        for r in 0..=mx {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"rank {r}\"}}}}",
                rank_pid(r)
            ));
        }
    }
    for rec in records {
        one_event(&mut events, rec);
    }
    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}
