//! The serve engine's Prometheus text, byte for byte, over five engine
//! histories that between them write every serve metric family.

use mfbc_core::dist::MfbcConfig;
use mfbc_fault::{FaultPlan, RetryPolicy};
use mfbc_graph::gen::uniform;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_profile::prometheus::render;
use mfbc_serve::{Admission, Engine, EngineConfig, Query, Request, ShedReason};

fn request(id: u64, query: Query, deadline_s: Option<f64>) -> Request {
    Request {
        id,
        query,
        deadline_s,
    }
}

fn full(id: u64) -> Request {
    request(id, Query::Full, None)
}

/// An engine on a seeded uniform graph, batches of `batch` sources.
fn engine(
    m: &Machine,
    (n, arcs, seed): (usize, usize, u64),
    batch: usize,
    ecfg: EngineConfig,
) -> Engine {
    let g = uniform(n, arcs, false, None, seed);
    let cfg = MfbcConfig::default().with_batch_size(batch);
    Engine::new(m, g, &cfg, ecfg).unwrap()
}

fn fresh() -> Engine {
    let m = Machine::new(MachineSpec::test(4));
    engine(&m, (24, 90, 7), 4, EngineConfig::default())
}

/// The history of `slo_families_reach_snapshot_and_prometheus`: a
/// zero-budget round served stale, an exact round a zero-deadline
/// member misses, then a warm-store hit.
fn stale_then_exact() -> Engine {
    let mut e = fresh();
    e.submit(request(2, Query::Full, Some(0.0)));
    e.drain();
    e.submit(full(1));
    e.submit(request(4, Query::Full, Some(0.0)));
    e.drain();
    e.submit(full(3));
    e.drain();
    e
}

/// Both admission refusals, then the admitted pair answered within a
/// deadline that funds no exact batch but a sample: approximate
/// answers whose deadlines are met with a margin.
fn sheds() -> Engine {
    let m = Machine::new(MachineSpec::test(4));
    let ecfg = EngineConfig {
        max_queue: 2,
        ..EngineConfig::default()
    };
    let mut e = engine(&m, (48, 180, 5), 8, ecfg);
    let budget = 0.9 * e.est_batch_modeled_s();
    for id in 1..=3 {
        let admitted = e.submit(request(id, Query::TopK { k: 3 }, Some(budget)));
        let want = if id <= 2 {
            Admission::Admitted
        } else {
            Admission::Shed(ShedReason::QueueFull)
        };
        assert_eq!(admitted, want, "request {id}");
    }
    let invalid = e.submit(request(4, Query::Vertex { v: 999 }, None));
    assert_eq!(invalid, Admission::Shed(ShedReason::InvalidRequest));
    e.drain();
    e
}

/// Transients outlast the machine's own retries, so the engine retries
/// with backoff; its one-failure breaker trips, and a crash at p = 2
/// under a budget the survivor cannot rebuild in poisons the engine.
fn faulted() -> Engine {
    let spec = MachineSpec {
        mem_bytes: Some(21_000),
        ..MachineSpec::test(2)
    };
    let m = Machine::with_faults(
        spec,
        FaultPlan::parse("transient:30@1,crash:0@80").unwrap(),
        RetryPolicy::default(),
    );
    let ecfg = EngineConfig {
        breaker_threshold: 1,
        breaker_cooldown: 1,
        ..EngineConfig::default()
    };
    let mut e = engine(&m, (48, 600, 3), 1, ecfg);
    for id in 1..=3 {
        e.submit(full(id));
        e.drain();
    }
    e
}

/// A `warm()`ed engine answering a full/topk/vertex mix from its exact
/// store.
fn warm_mix() -> Engine {
    let m = Machine::new(MachineSpec::test(4));
    let mut e = engine(&m, (32, 120, 11), 4, EngineConfig::default());
    e.warm();
    for round in 0..2u64 {
        let id = 3 * round;
        e.submit(full(id));
        e.submit(request(id + 1, Query::TopK { k: 5 }, Some(1.0)));
        e.submit(request(id + 2, Query::Vertex { v: 7 }, None));
        e.drain();
    }
    e
}

fn scenarios() -> Vec<(&'static str, Engine)> {
    vec![
        ("fresh", fresh()),
        ("stale-then-exact", stale_then_exact()),
        ("sheds", sheds()),
        ("faulted", faulted()),
        ("warm-mix", warm_mix()),
    ]
}

/// Every scenario's text under a `# scenario <name>` line.
fn rendered() -> String {
    scenarios()
        .into_iter()
        .map(|(name, e)| format!("# scenario {name}\n{}", render(&e.metrics())))
        .collect()
}

/// `golden/metrics.prom` holds [`rendered`] as the engine wrote it
/// while it still updated a live registry on every request. The fresh
/// text lands in `metrics.actual.prom` next to the test binaries.
#[test]
fn serve_metrics_match_the_golden() {
    let fresh = rendered();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("metrics.actual.prom");
    std::fs::write(&path, &fresh).unwrap();
    assert!(
        fresh == include_str!("golden/metrics.prom"),
        "serve metrics drifted from golden/metrics.prom; fresh text in {}",
        path.display()
    );
}

/// The families DESIGN §12 lists, each written by some scenario.
#[test]
fn the_scenarios_cover_every_serve_family() {
    let text = rendered();
    for family in [
        "serve_requests_total",
        "serve_responses_total",
        "serve_shed_total",
        "serve_retries_total",
        "serve_breaker_trips_total",
        "serve_batches_total",
        "serve_coalesced_requests",
        "serve_rounds_total",
        "serve_deadline_total",
        "serve_degrade_total",
        "serve_queue_depth",
        "serve_store_version",
        "serve_ready",
        "serve_mm_cache_hits",
        "serve_mm_cache_misses",
        "serve_mm_cache_inserts",
        "serve_mm_cache_evictions",
        "serve_latency_modeled_us",
        "serve_queue_wait_modeled_us",
        "serve_deadline_margin_modeled_us",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "no scenario writes {family}"
        );
    }
}

/// What each history is for shows in its text: the faulted engine
/// retried, tripped and was poisoned; both refusals were counted.
#[test]
fn each_scenario_reaches_its_state() {
    let texts: Vec<(&str, String)> = scenarios()
        .into_iter()
        .map(|(name, e)| (name, render(&e.metrics())))
        .collect();
    let text = |name: &str| &texts.iter().find(|(n, _)| *n == name).unwrap().1;
    let ready = "# TYPE serve_ready gauge\nserve_ready 1.0\n";
    assert!(text("fresh").ends_with(ready), "{}", text("fresh"));
    assert_eq!(text("fresh").lines().count(), 3, "{}", text("fresh"));
    for line in [
        "serve_retries_total ",
        "serve_breaker_trips_total ",
        "serve_ready 0.0\n",
    ] {
        assert!(text("faulted").contains(line), "faulted lacks {line:?}");
    }
    for line in [
        "reason=\"queue-full\"} 1.0",
        "reason=\"invalid-request\"} 1.0",
        "serve_responses_total{quality=\"approx\"} 2.0",
    ] {
        assert!(text("sheds").contains(line), "sheds lacks {line:?}");
    }
    for query in ["full", "topk", "vertex"] {
        let line = format!("serve_requests_total{{query=\"{query}\"}} 2.0");
        assert!(text("warm-mix").contains(&line), "warm-mix lacks {line:?}");
    }
}
