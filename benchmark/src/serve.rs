//! The two serve workloads. One closed-loop client: the wire is a
//! sequential JSON-lines pipe and callers wait for replies, so the
//! next request is sent only after the previous one is answered.
//!
//! * `serve-converge`: a fresh `Engine`, one request per round until
//!   `exact_complete()` — advance plus the approx/stale ladder.
//! * `serve-warm`: a converged engine answering a full/topk/vertex mix
//!   through `parse_line → submit → drain → render_response` — pure
//!   per-request overhead.

use crate::decl::{Sizes, SERVE_P};
use crate::inputs::{measure, serve_graph, timed};
use crate::report::{peak_rss_mib, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use mfbc_core::oracle::brandes_unweighted;
use mfbc_core::{mfbc_dist, MfbcConfig};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_serve::wire::{parse_line, render_response, WireCmd};
use mfbc_serve::{Admission, Engine, EngineConfig, Payload, Quality, Query, Request, Response};
use rand::SplitMix64;
use std::time::Instant;

fn config(sizes: &Sizes) -> MfbcConfig {
    MfbcConfig::default()
        .with_batch_size(sizes.serve_nb)
        .with_threads(1)
}

fn machine() -> Machine {
    Machine::new(MachineSpec::gemini(SERVE_P))
}

/// Set-up as a user pays it: the graph, the machine, the engine.
fn setup(sizes: &Sizes, seed: u64) -> (Graph, Engine) {
    let g = serve_graph(sizes, seed);
    let ecfg = EngineConfig {
        seed,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&machine(), g.clone(), &config(sizes), ecfg)
        .expect("engine builds on a fault-free machine");
    (g, engine)
}

/// Bits of the exact scores from a one-shot `mfbc_dist` on an
/// identical machine: what every exact `full` payload must equal.
fn oracle_bits(sizes: &Sizes, g: &Graph) -> Vec<u64> {
    let run = mfbc_dist(&machine(), g, &config(sizes)).expect("fault-free mfbc_dist completes");
    run.scores.lambda.iter().map(|x| x.to_bits()).collect()
}

/// The serving contract for one request: answered exactly once, under
/// its own id, and bit-equal to the one-shot run when exact and full.
fn check_response(id: u64, responses: &[Response], oracle: &[u64]) -> Option<String> {
    let [r] = responses else {
        return Some(format!("request {id}: {} responses", responses.len()));
    };
    if r.id != id {
        return Some(format!("request {id} answered as {}", r.id));
    }
    if let (Quality::Exact, Payload::Full(scores)) = (&r.quality, &r.payload) {
        if !scores
            .iter()
            .map(|x| x.to_bits())
            .eq(oracle.iter().copied())
        {
            return Some(format!(
                "request {id}: exact payload differs from mfbc_dist"
            ));
        }
    }
    None
}

/// One round of the converge phase and how it was answered.
struct Round {
    secs: f64,
    quality: &'static str,
}

/// Drives `engine` to `exact_complete()`, one request per round:
/// topk/vertex/full rotating; three of four rounds carry a deadline of
/// 1.25 batches (re-read each round), the fourth a zero deadline.
fn converge(
    engine: &mut Engine,
    oracle: &[u64],
    out: &mut Outcome,
    mut tr: Option<&mut Tracer>,
) -> Vec<Round> {
    let n = engine.graph().n();
    let mut rounds = Vec::new();
    let mut id = 0u64;
    while !engine.exact_complete() {
        let req = Request {
            id,
            query: match id % 3 {
                0 => Query::TopK { k: 8 },
                1 => Query::Vertex { v: id as usize % n },
                _ => Query::Full,
            },
            deadline_s: Some(if id % 4 == 3 {
                0.0
            } else {
                1.25 * engine.est_batch_modeled_s()
            }),
        };
        let started = Instant::now();
        let (admission, responses) = match tr.as_deref_mut() {
            Some(tr) => tr.span("serve.round", |tr| {
                let a = tr.leaf("serve.submit", || engine.submit(req));
                (a, tr.leaf("serve.drain", || engine.drain()))
            }),
            None => (engine.submit(req), engine.drain()),
        };
        let secs = started.elapsed().as_secs_f64();
        out.check(match admission {
            Admission::Admitted => check_response(id, &responses, oracle),
            Admission::Shed(why) => Some(format!("request {id} shed: {}", why.name())),
        });
        rounds.push(Round {
            secs,
            quality: responses.first().map_or("none", |r| r.quality.name()),
        });
        id += 1;
        // Every deadline-funded round commits a batch; a store that
        // stops advancing would spin here forever.
        assert!(id < 100_000, "engine does not converge");
    }
    // Converged: a full query must now be exact and bit-equal.
    let admission = engine.submit(Request {
        id,
        query: Query::Full,
        deadline_s: None,
    });
    let responses = engine.drain();
    out.check(match (admission, responses.first().map(|r| r.quality)) {
        (Admission::Admitted, Some(Quality::Exact)) => check_response(id, &responses, oracle),
        other => Some(format!("converged engine answered {other:?}")),
    });
    rounds
}

pub fn converge_untraced(sizes: &Sizes, seed: u64, seconds: f64, delay_pct: f64) -> Outcome {
    let mut out = Outcome::default();
    let (g, _) = setup(sizes, seed);
    let oracle = oracle_bits(sizes, &g);
    let rep = |out: &mut Outcome, delay_pct: f64| {
        let (_, mut engine) = setup(sizes, seed);
        timed(delay_pct, || converge(&mut engine, &oracle, out, None)).1
    };
    rep(&mut out, 0.0);
    // After one whole convergence; see `bc::run_untraced`.
    out.set("peak_rss_mib", peak_rss_mib());
    let measured = measure(
        seconds,
        || setup(sizes, seed),
        || brandes_unweighted(&g),
        || rep(&mut out, delay_pct),
    );
    out.set_end_to_end(measured);
    out
}

pub fn converge_traced(sizes: &Sizes, seed: u64) -> Outcome {
    let mut out = Outcome::per_layer_zeroed();
    let mut tr = Tracer::new("serve-converge");
    let (g, gen_s) = timed(0.0, || serve_graph(sizes, seed));
    let oracle = oracle_bits(sizes, &g);
    let base: Vec<f64> = (0..3)
        .map(|_| {
            let (_, mut engine) = setup(sizes, seed);
            timed(0.0, || converge(&mut engine, &oracle, &mut out, None)).1
        })
        .collect();

    let ((_, mut engine), engine_s) = tr.span("serve.setup", |_| timed(0.0, || setup(sizes, seed)));
    let (rounds, traced_s) = tr.span("serve.converge", |tr| {
        timed(0.0, || converge(&mut engine, &oracle, &mut out, Some(tr)))
    });
    let count = |q: &str| rounds.iter().filter(|r| r.quality == q).count() as f64;
    let approx_s: Vec<f64> = rounds
        .iter()
        .filter(|r| r.quality == "approx")
        .map(|r| r.secs)
        .collect();
    let health = engine.health();
    let cache = engine.cache_stats();
    out.set("graph.gen_s", gen_s);
    out.set("graph.n", g.n() as f64);
    out.set("graph.arcs", g.m() as f64);
    out.set("serve.engine_new_s", engine_s - gen_s);
    out.set("serve.converge_s", median(&base));
    out.set(
        "serve.round_p50_s",
        median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>()),
    );
    out.set(
        "serve.approx_round_s",
        approx_s.iter().sum::<f64>() / approx_s.len().max(1) as f64,
    );
    out.set(
        "serve.batches_per_round",
        health.store_version as f64 / rounds.len() as f64,
    );
    out.set("serve.exact", count("exact"));
    out.set("serve.approx", count("approx"));
    out.set("serve.stale", count("stale"));
    out.set("serve.shed", health.shed as f64);
    out.set_cache_stats(cache.hits, cache.misses);
    out.set("bench.trace_overhead_ratio", traced_s / median(&base));
    out.finish_trace(&tr, "serve-converge");
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Full,
    TopK,
    Vertex,
}

/// The warm mix as wire lines: 10 % full, 40 % topk, 50 % vertex.
fn warm_lines(count: usize, n: usize, seed: u64) -> Vec<(String, Kind)> {
    let mut rng = SplitMix64::new(seed ^ 0x5e12_7e10_ad00_0001);
    (0..count as u64)
        .map(|id| match rng.next_u64() % 10 {
            0 => (format!("{{\"id\":{id},\"query\":\"full\"}}"), Kind::Full),
            1..=4 => {
                let k = 1 + rng.next_u64() % 8;
                (
                    format!("{{\"id\":{id},\"query\":\"topk\",\"k\":{k}}}"),
                    Kind::TopK,
                )
            }
            _ => {
                let v = rng.next_u64() % n as u64;
                (
                    format!("{{\"id\":{id},\"query\":\"vertex\",\"v\":{v}}}"),
                    Kind::Vertex,
                )
            }
        })
        .collect()
}

/// One request through the whole pipe. Returns the rendered reply's
/// length so the work cannot be optimized away.
fn serve_line(engine: &mut Engine, line: &str, oracle: &[u64], out: &mut Outcome) -> usize {
    let req = match parse_line(line) {
        Ok(WireCmd::Request(req)) => req,
        other => {
            out.check(Some(format!("line {line:?} parsed as {other:?}")));
            return 0;
        }
    };
    let admission = engine.submit(req);
    let responses = engine.drain();
    let failure = match (admission, responses.first().map(|r| r.quality)) {
        (Admission::Admitted, Some(Quality::Exact)) => check_response(req.id, &responses, oracle),
        other => Some(format!("warm request {} answered {other:?}", req.id)),
    };
    out.check(failure);
    responses.first().map_or(0, |r| render_response(r).len())
}

/// A converged engine and everything a warm segment needs.
fn warm_setup(sizes: &Sizes, seed: u64) -> (Engine, Graph, Vec<u64>, Vec<(String, Kind)>) {
    let (g, mut engine) = setup(sizes, seed);
    let oracle = oracle_bits(sizes, &g);
    engine.warm();
    assert!(engine.exact_complete(), "warm() leaves the store exact");
    let lines = warm_lines(sizes.warm_segment, g.n(), seed);
    (engine, g, oracle, lines)
}

pub fn warm_untraced(sizes: &Sizes, seed: u64, seconds: f64, delay_pct: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut engine, g, oracle, lines) = warm_setup(sizes, seed);
    let mut segment = |out: &mut Outcome, delay_pct: f64| {
        timed(delay_pct, || {
            lines
                .iter()
                .map(|(line, _)| serve_line(&mut engine, line, &oracle, out))
                .sum::<usize>()
        })
        .1
    };
    segment(&mut out, 0.0);
    // After one whole segment; see `bc::run_untraced`.
    out.set("peak_rss_mib", peak_rss_mib());
    let measured = measure(
        seconds,
        || setup(sizes, seed),
        || brandes_unweighted(&g),
        || segment(&mut out, delay_pct),
    );
    out.set_end_to_end(measured);
    out
}

/// Requests of the spanned segment: four spans each, kept short so
/// the trace file stays readable.
const SPANNED_REQUESTS: usize = 2_000;
/// Segments pooled for the latency percentiles.
const POOLED_SEGMENTS: usize = 5;

pub fn warm_traced(sizes: &Sizes, seed: u64) -> Outcome {
    let mut out = Outcome::per_layer_zeroed();
    let mut tr = Tracer::new("serve-warm");
    let (mut engine, g, oracle, lines) = tr.span("serve.setup", |_| warm_setup(sizes, seed));
    out.set("graph.n", g.n() as f64);
    out.set("graph.arcs", g.m() as f64);

    // Per-request latencies, pooled over the segments.
    let mut lat_us: Vec<(f64, Kind)> = Vec::with_capacity(POOLED_SEGMENTS * lines.len());
    let mut segment_s = Vec::new();
    let (_, allocs, _) = tr.span("serve.pooled_segments", |_| {
        crate::alloc::counted(|| {
            for _ in 0..POOLED_SEGMENTS {
                let started = Instant::now();
                for (line, kind) in &lines {
                    let (_, s) = timed(0.0, || serve_line(&mut engine, line, &oracle, &mut out));
                    lat_us.push((s * 1e6, *kind));
                }
                segment_s.push(started.elapsed().as_secs_f64());
            }
        })
    });
    out.set("serve.allocs_per_request", allocs / lat_us.len() as f64);
    let all: Vec<f64> = lat_us.iter().map(|l| l.0).collect();
    let mean_of = |kind: Kind| {
        let v: Vec<f64> = lat_us.iter().filter(|l| l.1 == kind).map(|l| l.0).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    out.set("serve.warm_rps", lines.len() as f64 / median(&segment_s));
    out.set("serve.warm_p50_us", percentile(&all, 0.50));
    out.set("serve.warm_p99_us", percentile(&all, 0.99));
    out.set("serve.vertex_us", mean_of(Kind::Vertex));
    out.set("serve.topk_us", mean_of(Kind::TopK));
    out.set("serve.full_us", mean_of(Kind::Full));

    // The same pipe, one span per stage.
    let spanned = &lines[..SPANNED_REQUESTS.min(lines.len())];
    let (_, spanned_s) = tr.span("serve.spanned_segment", |tr| {
        timed(0.0, || {
            for (line, _) in spanned {
                tr.span("serve.request", |tr| {
                    let Ok(WireCmd::Request(req)) = tr.leaf("serve.parse", || parse_line(line))
                    else {
                        return;
                    };
                    tr.leaf("serve.submit", || engine.submit(req));
                    let responses = tr.leaf("serve.drain", || engine.drain());
                    tr.leaf("serve.render", || {
                        responses.first().map_or(0, |r| render_response(r).len())
                    });
                });
            }
        })
    });
    let per_request = |name: &str| tr.total_s(name) / spanned.len() as f64;
    out.set("serve.parse_ns", per_request("serve.parse") * 1e9);
    out.set("serve.submit_ns", per_request("serve.submit") * 1e9);
    out.set("serve.drain_us", per_request("serve.drain") * 1e6);
    out.set("serve.render_ns", per_request("serve.render") * 1e9);
    let untraced_s = median(&segment_s) * spanned.len() as f64 / lines.len() as f64;
    out.set("bench.trace_overhead_ratio", spanned_s / untraced_s);
    out.finish_trace(&tr, "serve-warm");
    out
}
