//! JSON-lines exporter: one self-describing JSON object per record.
//!
//! Machine-friendly for ad-hoc analysis (`jq`, pandas, …); see
//! [`crate::chrome`] for the timeline-viewer format.

use crate::event::TraceRecord;
use std::fmt::Write as _;

/// Serializes one record as a single-line JSON object (no trailing
/// newline): the recorder's stamps, the event's tag as `type`, then
/// every declared field in order.
pub fn record_to_json(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"ts_us\":{},\"tid\":{},\"type\":\"{}\"",
        rec.ts_us,
        rec.tid,
        rec.event.tag()
    );
    rec.event.fields(&mut |name, value| {
        let _ = write!(s, ",\"{name}\":");
        value.write_json(&mut s);
    });
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
