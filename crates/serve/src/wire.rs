//! Dependency-free JSON-lines wire protocol for the engine.
//!
//! One request per line; a blank line is the flush boundary that
//! triggers a coalesced [`crate::Engine::drain`]. Score values are
//! rendered with `mfbc_trace::json::num`, which round-trips f64
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

/// Renders a served response as one JSON line.
pub fn render_response(r: &Response) -> String {
    let mut s = format!("{{\"id\":{},\"quality\":\"{}\"", r.id, r.quality.name());
    match r.quality {
        Quality::Exact => {}
        Quality::Approx { k, ci } => {
            s.push_str(&format!(",\"approx_k\":{k},\"ci\":{}", json::num(ci)));
        }
        Quality::Stale { version } => {
            s.push_str(&format!(",\"stale_version\":{version}"));
        }
    }
    s.push_str(&format!(
        ",\"version\":{},\"latency_modeled_s\":{},\"retries\":{}",
        r.version,
        json::num(r.latency_modeled_s),
        r.retries
    ));
    match &r.payload {
        Payload::TopK(pairs) => {
            s.push_str(",\"topk\":[");
            for (i, (v, score)) in pairs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{v},{}]", json::num(*score)));
            }
            s.push(']');
        }
        Payload::Vertex { v, score } => {
            s.push_str(&format!(",\"v\":{v},\"score\":{}", json::num(*score)));
        }
        Payload::Full(scores) => {
            s.push_str(",\"scores\":[");
            for (i, score) in scores.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&json::num(*score));
            }
            s.push(']');
        }
    }
    s.push('}');
    s
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
