//! JSON-lines exporter: one self-describing JSON object per record.
//!
//! Machine-friendly for ad-hoc analysis (`jq`, pandas, …); see
//! [`crate::chrome`] for the timeline-viewer format.

use crate::event::{TraceEvent, TraceRecord};
use std::fmt::Write as _;

/// Appends an event's members of a JSON object: its tag as `type`,
/// then every declared field in order. Whoever stamps the event
/// (the recorder, the serve engine's flight recorder) writes its own
/// members first.
pub fn write_event(out: &mut String, event: &TraceEvent) {
    let _ = write!(out, "\"type\":\"{}\"", event.tag());
    event.fields(&mut |name, value| {
        let _ = write!(out, ",\"{name}\":");
        value.write_json(out);
    });
}

/// Serializes one record as a single-line JSON object (no trailing
/// newline): the recorder's stamps, then [`write_event`].
pub fn record_to_json(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(s, "{{\"ts_us\":{},\"tid\":{},", rec.ts_us, rec.tid);
    write_event(&mut s, &rec.event);
    s.push('}');
    s
}

/// Serializes records as JSON-lines text (one object per line,
/// trailing newline).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&record_to_json(rec));
        out.push('\n');
    }
    out
}
