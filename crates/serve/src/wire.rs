//! Dependency-free JSON-lines wire protocol for the engine.
//!
//! One request per line; a blank line is the flush boundary that
//! triggers a coalesced [`crate::Engine::drain`]. Score values are
//! rendered with `mfbc_trace::json::write_num`, which round-trips f64
//! bits exactly — the conformance harness compares exact-mode
//! responses to one-shot runs *through* this format.
//!
//! ```text
//! > {"id":1,"query":"topk","k":3,"deadline_s":0.5}
//! > {"id":2,"query":"vertex","v":7}
//! >
//! < {"id":1,"quality":"exact","version":4,...,"topk":[[2,17.0],...]}
//! < {"id":2,"quality":"exact","version":4,...,"v":7,"score":3.5}
//! > {"cmd":"health"}
//! < {"ready":true,"live":true,...}
//! ```

use crate::engine::{Health, Payload, Quality, Query, Request, Response, ShedReason};
use mfbc_trace::json::{self, Json};
use std::fmt::Write as _;

/// A parsed input line.
#[derive(Clone, Debug, PartialEq)]
pub enum WireCmd {
    /// A query to enqueue.
    Request(Request),
    /// An immediate health probe (not queued, not coalesced).
    Health,
    /// An immediate flight-recorder dump (not queued, not coalesced).
    Dump,
}

/// Parses one JSON-lines request.
///
/// # Errors
/// Returns a message describing the malformed field; the caller
/// answers with a `shed: invalid-request` line rather than dying.
pub fn parse_line(line: &str) -> Result<WireCmd, String> {
    let v = json::parse(line)?;
    if let Some(cmd) = v.get("cmd").and_then(Json::as_str) {
        return match cmd {
            "health" => Ok(WireCmd::Health),
            "dump" => Ok(WireCmd::Dump),
            other => Err(format!("unknown cmd {other:?}")),
        };
    }
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("request needs a numeric \"id\"")?;
    let query = match v.get("query").and_then(Json::as_str) {
        Some("topk") => Query::TopK {
            k: v.get("k")
                .and_then(Json::as_u64)
                .ok_or("topk needs a numeric \"k\"")? as usize,
        },
        Some("vertex") => Query::Vertex {
            v: v.get("v")
                .and_then(Json::as_u64)
                .ok_or("vertex needs a numeric \"v\"")? as usize,
        },
        Some("full") => Query::Full,
        Some(other) => return Err(format!("unknown query {other:?}")),
        None => return Err("request needs a \"query\" of topk|vertex|full".into()),
    };
    let deadline_s = v.get("deadline_s").and_then(Json::as_f64);
    if let Some(d) = deadline_s {
        if !d.is_finite() || d < 0.0 {
            return Err(format!("deadline_s must be a nonnegative number, got {d}"));
        }
    }
    Ok(WireCmd::Request(Request {
        id,
        query,
        deadline_s,
    }))
}

/// Appends a served response to `out` as one JSON line (no trailing
/// newline). Everything is formatted straight into `out`, so a caller
/// that reuses the buffer renders without allocating; a `full` payload
/// is one copy of its snapshot's memoised array.
pub fn write_response(out: &mut String, r: &Response) {
    // Room for a typical line up front, so a fresh buffer grows once.
    out.reserve(
        160 + match &r.payload {
            Payload::TopK(pairs) => 32 * pairs.len(),
            Payload::Vertex { .. } => 0,
            Payload::Full(snapshot) => snapshot.json_array().len(),
        },
    );
    let _ = write!(
        out,
        "{{\"id\":{},\"quality\":\"{}\"",
        r.id,
        r.quality.name()
    );
    match r.quality {
        Quality::Exact => {}
        Quality::Approx { k, ci } => {
            let _ = write!(out, ",\"approx_k\":{k},\"ci\":");
            json::write_num(out, ci);
        }
        Quality::Stale { version } => {
            let _ = write!(out, ",\"stale_version\":{version}");
        }
    }
    let _ = write!(out, ",\"version\":{},\"latency_modeled_s\":", r.version);
    json::write_num(out, r.latency_modeled_s);
    let _ = write!(out, ",\"retries\":{}", r.retries);
    match &r.payload {
        Payload::TopK(pairs) => {
            out.push_str(",\"topk\":[");
            for (i, (v, score)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{v},");
                json::write_num(out, *score);
                out.push(']');
            }
            out.push(']');
        }
        Payload::Vertex { v, score } => {
            let _ = write!(out, ",\"v\":{v},\"score\":");
            json::write_num(out, *score);
        }
        Payload::Full(snapshot) => {
            out.push_str(",\"scores\":");
            out.push_str(snapshot.json_array());
        }
    }
    out.push('}');
}

/// [`write_response`] into a fresh `String`.
pub fn render_response(r: &Response) -> String {
    let mut out = String::new();
    write_response(&mut out, r);
    out
}

/// Renders the refusal line for a shed submission.
pub fn render_shed(id: u64, reason: ShedReason) -> String {
    format!("{{\"id\":{id},\"shed\":\"{}\"}}", reason.name())
}

/// Renders the refusal line for an unparseable submission (no
/// trustworthy id).
pub fn render_invalid(detail: &str) -> String {
    format!(
        "{{\"shed\":\"invalid-request\",\"detail\":\"{}\"}}",
        json::esc(detail)
    )
}

/// Renders a health snapshot as one JSON line, including breaker
/// state, last-poison detail, the rolling SLO window, and mm-cache
/// activity.
pub fn render_health(h: &Health) -> String {
    let mut s = format!(
        "{{\"ready\":{},\"live\":{},\"queue_depth\":{},\"version\":{},\"exact_complete\":{},\"p\":{},\"served\":{},\"shed\":{}",
        h.ready, h.live, h.queue_depth, h.store_version, h.exact_complete, h.p, h.served, h.shed
    );
    s.push_str(&format!(",\"breaker\":\"{}\"", h.breaker));
    match &h.last_poison {
        Some(detail) => s.push_str(&format!(",\"last_poison\":\"{}\"", json::esc(detail))),
        None => s.push_str(",\"last_poison\":null"),
    }
    s.push_str(&format!(
        ",\"window\":{{\"len\":{},\"deadline_met\":{},\"max_latency_s\":{}}}",
        h.window_len,
        h.window_deadline_met,
        json::num(h.window_max_latency_s)
    ));
    s.push_str(&format!(
        ",\"mm_cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}}}}",
        h.mm_cache.hits, h.mm_cache.misses, h.mm_cache.inserts, h.mm_cache.evictions
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_each_query_shape() {
        let topk = parse_line(r#"{"id":1,"query":"topk","k":5,"deadline_s":0.5}"#).unwrap();
        assert_eq!(
            topk,
            WireCmd::Request(Request {
                id: 1,
                query: Query::TopK { k: 5 },
                deadline_s: Some(0.5),
            })
        );
        let vertex = parse_line(r#"{"id":2,"query":"vertex","v":7}"#).unwrap();
        assert_eq!(
            vertex,
            WireCmd::Request(Request {
                id: 2,
                query: Query::Vertex { v: 7 },
                deadline_s: None,
            })
        );
        let full = parse_line(r#"{"id":3,"query":"full"}"#).unwrap();
        assert_eq!(
            full,
            WireCmd::Request(Request {
                id: 3,
                query: Query::Full,
                deadline_s: None,
            })
        );
        assert_eq!(parse_line(r#"{"cmd":"health"}"#).unwrap(), WireCmd::Health);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "not json",
            r#"{"query":"topk","k":5}"#,
            r#"{"id":1,"query":"nope"}"#,
            r#"{"id":1,"query":"topk"}"#,
            r#"{"id":1,"query":"vertex"}"#,
            r#"{"id":1,"query":"full","deadline_s":-1}"#,
            r#"{"cmd":"restart"}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn responses_render_bit_exact_scores() {
        let r = Response {
            id: 9,
            quality: Quality::Approx { k: 4, ci: 0.25 },
            payload: Payload::Vertex {
                v: 3,
                score: 0.1 + 0.2, // not exactly 0.3: bits must survive
            },
            version: 2,
            latency_modeled_s: 1.5,
            retries: 1,
        };
        let line = render_response(&r);
        let v = json::parse(&line).unwrap();
        let score = v.get("score").and_then(Json::as_f64).unwrap();
        assert_eq!(score.to_bits(), (0.1_f64 + 0.2).to_bits());
        assert_eq!(v.get("approx_k").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("quality").and_then(Json::as_str), Some("approx"));
    }

    /// Every payload shape under every quality, byte for byte — what
    /// `render_response` produced when it formatted one `String` per
    /// score. Scores include a non-finite one and `0.1 + 0.2`.
    #[test]
    fn response_lines_are_pinned_byte_for_byte() {
        use crate::ScoreSnapshot;
        use mfbc_core::BcScores;
        use std::sync::Arc;

        let scores = vec![0.1 + 0.2, f64::INFINITY, 2.0, 1e-7];
        let snapshot = Arc::new(ScoreSnapshot::new(BcScores {
            lambda: scores.clone(),
        }));
        let payloads = [
            (
                Payload::TopK(vec![(1, scores[1]), (2, scores[2]), (0, scores[0])]),
                r#""topk":[[1,null],[2,2.0],[0,0.30000000000000004]]"#,
            ),
            (
                Payload::Vertex {
                    v: 0,
                    score: scores[0],
                },
                r#""v":0,"score":0.30000000000000004"#,
            ),
            (
                Payload::Full(snapshot),
                r#""scores":[0.30000000000000004,null,2.0,1e-7]"#,
            ),
        ];
        let qualities = [
            (Quality::Exact, r#""quality":"exact""#),
            (
                Quality::Approx { k: 4, ci: 0.25 },
                r#""quality":"approx","approx_k":4,"ci":0.25"#,
            ),
            (
                Quality::Stale { version: 2 },
                r#""quality":"stale","stale_version":2"#,
            ),
        ];
        let mut reused = String::from("kept");
        for (payload, payload_text) in &payloads {
            for (quality, quality_text) in &qualities {
                let r = Response {
                    id: 9,
                    quality: *quality,
                    payload: payload.clone(),
                    version: 3,
                    latency_modeled_s: 1.5e-6,
                    retries: 1,
                };
                let want = format!(
                    "{{\"id\":9,{quality_text},\"version\":3,\
                     \"latency_modeled_s\":1.5e-6,\"retries\":1,{payload_text}}}"
                );
                assert_eq!(render_response(&r), want);
                // Appends: what the buffer held stays.
                reused.truncate(4);
                write_response(&mut reused, &r);
                assert_eq!(reused, format!("kept{want}"));
            }
        }
        assert_eq!(
            render_response(&Response {
                id: u64::MAX,
                quality: Quality::Exact,
                payload: Payload::TopK(Vec::new()),
                version: 0,
                latency_modeled_s: f64::NAN,
                retries: 0,
            }),
            r#"{"id":18446744073709551615,"quality":"exact","version":0,"latency_modeled_s":null,"retries":0,"topk":[]}"#
        );
    }

    #[test]
    fn shed_and_health_lines_parse_back() {
        let shed = render_shed(4, ShedReason::QueueFull);
        let v = json::parse(&shed).unwrap();
        assert_eq!(v.get("shed").and_then(Json::as_str), Some("queue-full"));
        let h = Health {
            ready: true,
            live: true,
            queue_depth: 1,
            store_version: 2,
            exact_complete: false,
            p: 4,
            served: 3,
            shed: 0,
            breaker: "closed",
            last_poison: None,
            window_len: 2,
            window_deadline_met: 1,
            window_max_latency_s: 0.5,
            mm_cache: mfbc_tensor::CacheStats {
                hits: 5,
                misses: 2,
                inserts: 2,
                evictions: 0,
            },
        };
        let v = json::parse(&render_health(&h)).unwrap();
        assert_eq!(v.get("queue_depth").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("p").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("breaker").and_then(Json::as_str), Some("closed"));
        assert!(matches!(v.get("last_poison"), Some(Json::Null)));
        assert_eq!(
            v.get("window")
                .and_then(|w| w.get("deadline_met"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("mm_cache")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_u64),
            Some(5)
        );

        let poisoned = Health {
            last_poison: Some("rank 0 crashed \"hard\"".to_string()),
            breaker: "open",
            ..h
        };
        let v = json::parse(&render_health(&poisoned)).unwrap();
        assert_eq!(
            v.get("last_poison").and_then(Json::as_str),
            Some("rank 0 crashed \"hard\"")
        );
        assert_eq!(v.get("breaker").and_then(Json::as_str), Some("open"));
    }
}
