//! Flight-recorder and SLO-telemetry integration: auto-dump on
//! poison, observation-free response streams, and the serve metric
//! families reaching every exporter.

use mfbc_core::dist::MfbcConfig;
use mfbc_fault::{FaultPlan, RetryPolicy};
use mfbc_graph::gen::uniform;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_serve::{wire, Engine, EngineConfig, Query, Request};
use mfbc_trace::json::{self, Json};
use mfbc_trace::MemoryRecorder;
use std::sync::Arc;

fn full(id: u64) -> Request {
    Request {
        id,
        query: Query::Full,
        deadline_s: None,
    }
}

/// The pinned unrecoverable-crash recipe shared with the engine and
/// CLI tests: crash at p = 2 under a 21 kB memory budget the single
/// survivor cannot rebuild in.
fn poisoned_engine(flight_capacity: usize) -> Engine {
    let g = uniform(48, 600, false, None, 3);
    let spec = MachineSpec {
        mem_bytes: Some(21_000),
        ..MachineSpec::test(2)
    };
    let m = Machine::with_faults(
        spec,
        FaultPlan::parse("crash:0@2").unwrap(),
        RetryPolicy::default(),
    );
    let cfg = MfbcConfig::default().with_batch_size(1);
    let ecfg = EngineConfig {
        flight_capacity,
        ..EngineConfig::default()
    };
    Engine::new(&m, g, &cfg, ecfg).unwrap()
}

#[test]
fn poison_auto_dumps_and_final_dump_explains_the_journey() {
    let mut engine = poisoned_engine(64);
    engine.submit(full(1));
    let responses = engine.drain();
    assert_eq!(responses.len(), 1);
    assert!(engine.poisoned());

    // The engine snapshotted the recorder at the moment of poisoning.
    let auto = engine
        .take_auto_dump()
        .expect("poisoning auto-dumps the flight recorder");
    let v = json::parse(&auto).expect("auto-dump parses as JSON");
    assert_eq!(v.get("flight").and_then(Json::as_u64), Some(1));
    let kinds: Vec<&str> = v
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"poison"), "auto-dump has the poison event");
    assert!(kinds.contains(&"admitted"));
    assert!(kinds.contains(&"round_start"));
    // Taking it is one-shot.
    assert!(engine.take_auto_dump().is_none());

    // The on-demand dump after the round explains the degraded
    // response from the journey record alone.
    let dump = engine.flight_dump().expect("recorder is enabled");
    assert!(!dump.contains('\n'), "dump is one JSON line");
    let v = json::parse(&dump).unwrap();
    let journeys = v.get("journeys").and_then(Json::as_array).unwrap();
    let j = journeys
        .iter()
        .find(|j| j.get("id").and_then(Json::as_u64) == Some(1))
        .expect("admitted request has a journey record");
    assert_eq!(j.get("complete"), Some(&Json::Bool(true)));
    assert_eq!(j.get("rung").and_then(Json::as_str), Some("stale"));
    assert_eq!(j.get("reason").and_then(Json::as_str), Some("poisoned"));
    assert!(j.get("round").and_then(Json::as_u64).unwrap() > 0);

    // The health line carries the poison detail and breaker state.
    let h = engine.health();
    assert!(h.last_poison.is_some(), "health keeps the poison detail");
    let line = wire::render_health(&h);
    let v = json::parse(&line).unwrap();
    assert!(matches!(v.get("last_poison"), Some(Json::Str(_))));
}

#[test]
fn two_identical_poisoned_runs_dump_identical_bytes() {
    let run = || {
        let mut engine = poisoned_engine(64);
        engine.submit(full(1));
        engine.drain();
        engine.submit(full(2));
        engine.drain();
        (
            engine.take_auto_dump().unwrap(),
            engine.flight_dump().unwrap(),
        )
    };
    let (auto_a, final_a) = run();
    let (auto_b, final_b) = run();
    assert_eq!(auto_a, auto_b, "auto-dumps are byte-deterministic");
    assert_eq!(final_a, final_b, "final dumps are byte-deterministic");
}

#[test]
fn tracing_and_flight_recording_do_not_perturb_responses() {
    // One engine observed (trace recorder installed + flight recorder
    // on), one unobserved: same seed and fault schedule must yield
    // bit-identical wire lines.
    let run = |observed: bool| -> Vec<String> {
        let g = uniform(32, 120, false, None, 11);
        let m = Machine::with_faults(
            MachineSpec::test(4),
            FaultPlan::parse("transient:2@4").unwrap(),
            RetryPolicy::default(),
        );
        let cfg = MfbcConfig::default().with_batch_size(4);
        let ecfg = EngineConfig {
            seed: 42,
            flight_capacity: if observed { 32 } else { 0 },
            ..EngineConfig::default()
        };
        let serve_all = |engine: &mut Engine| -> Vec<String> {
            let mut lines = Vec::new();
            for (i, deadline) in [Some(0.0), None, Some(500.0)].iter().enumerate() {
                engine.submit(Request {
                    id: i as u64,
                    query: Query::Full,
                    deadline_s: *deadline,
                });
                engine.submit(Request {
                    id: 100 + i as u64,
                    query: Query::TopK { k: 5 },
                    deadline_s: *deadline,
                });
                for r in engine.drain() {
                    lines.push(wire::render_response(&r));
                }
            }
            lines
        };
        let mut engine = Engine::new(&m, g, &cfg, ecfg).unwrap();
        if observed {
            let rec = Arc::new(MemoryRecorder::new());
            let lines = mfbc_trace::scoped(rec.clone(), || serve_all(&mut engine));
            assert!(
                !rec.snapshot().is_empty(),
                "the observed run actually traced"
            );
            assert!(engine.flight().is_some());
            lines
        } else {
            assert!(engine.flight().is_none(), "capacity 0 disables recording");
            serve_all(&mut engine)
        }
    };
    assert_eq!(
        run(true),
        run(false),
        "observation must not change a single response bit"
    );
}

#[test]
fn slo_families_reach_snapshot_and_prometheus() {
    let g = uniform(24, 90, false, None, 7);
    let machine = Machine::new(MachineSpec::test(4));
    let cfg = MfbcConfig::default().with_batch_size(4);
    let mut engine = Engine::new(&machine, g, &cfg, EngineConfig::default()).unwrap();
    // Round 1: a lone zero-budget request degrades to stale.
    engine.submit(Request {
        id: 2,
        query: Query::Full,
        deadline_s: Some(0.0),
    });
    engine.drain();
    // Round 2: the unbounded member funds an exact round whose
    // elapsed time makes the zero-deadline member miss.
    engine.submit(full(1));
    engine.submit(Request {
        id: 4,
        query: Query::Full,
        deadline_s: Some(0.0),
    });
    engine.drain();
    engine.submit(full(3)); // warm-store hit exercises the mm-cache
    engine.drain();

    let reg = engine.metrics();
    let names: Vec<String> = reg.snapshot().into_iter().map(|f| f.name).collect();
    for family in [
        "serve_rounds_total",
        "serve_deadline_total",
        "serve_deadline_margin_modeled_us",
        "serve_queue_wait_modeled_us",
        "serve_degrade_total",
        "serve_mm_cache_hits",
        "serve_mm_cache_misses",
        "serve_mm_cache_inserts",
        "serve_mm_cache_evictions",
    ] {
        assert!(names.iter().any(|n| n == family), "missing {family}");
    }

    // The Prometheus exporter sees the same families.
    let prom = mfbc_profile::prometheus::render(reg);
    for family in [
        "serve_deadline_total",
        "serve_queue_wait_modeled_us",
        "serve_mm_cache_hits",
        "serve_degrade_total",
    ] {
        assert!(prom.contains(family), "prometheus missing {family}");
    }

    // Deadline attainment has both outcomes; the mm-cache saw real
    // traffic once the store was warm.
    assert!(prom.contains("result=\"met\"") && prom.contains("result=\"missed\""));
    assert!(engine.cache_stats().hits + engine.cache_stats().misses > 0);
    assert_eq!(engine.health().mm_cache, engine.cache_stats());
    // A degraded round is attributed with rung and reason labels.
    assert!(prom.contains("rung=\"stale\""));
}
