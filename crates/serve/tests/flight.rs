//! Flight-recorder and SLO-telemetry integration: the dumps against
//! their golden, one record shared by the trace and the ring,
//! auto-dump on poison, observation-free response streams, and the
//! serve metric families reaching every exporter.

use mfbc_core::dist::MfbcConfig;
use mfbc_fault::{FaultPlan, RetryPolicy};
use mfbc_graph::gen::uniform;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_serve::{wire, Engine, EngineConfig, Query, Request};
use mfbc_trace::json::{self, Json};
use mfbc_trace::{MemoryRecorder, TraceEvent};
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

/// A transient fault that outlasts every retry layer once the first
/// batch has committed: each round's advance retries with backoff and
/// gives up, and the second failure trips the breaker.
fn flaky_engine(flight_capacity: usize) -> Engine {
    let g = uniform(24, 90, false, None, 9);
    let m = Machine::with_faults(
        MachineSpec::test(4),
        FaultPlan::parse("transient:100000@30").unwrap(),
        RetryPolicy::default(),
    );
    let cfg = MfbcConfig::default().with_batch_size(4);
    let ecfg = EngineConfig {
        breaker_threshold: 2,
        breaker_cooldown: 2,
        flight_capacity,
        ..EngineConfig::default()
    };
    Engine::new(&m, g, &cfg, ecfg).unwrap()
}

/// Both recipes driven through a few rounds, the poisoned one first;
/// the flaky schedule also sheds a malformed request.
fn drive_recipes(flight_capacity: usize) -> [Engine; 2] {
    let mut poisoned = poisoned_engine(flight_capacity);
    for id in 1..=2 {
        poisoned.submit(full(id));
        poisoned.drain();
    }
    let mut flaky = flaky_engine(flight_capacity);
    flaky.submit(Request {
        id: 9,
        query: Query::Vertex { v: 999 },
        deadline_s: None,
    });
    for id in 1..=3 {
        flaky.submit(full(id));
        flaky.drain();
    }
    [poisoned, flaky]
}

/// Each recipe's dumps in order: the automatic one, then the final one.
fn golden_dumps() -> Vec<String> {
    drive_recipes(64)
        .into_iter()
        .flat_map(|mut engine| [engine.take_auto_dump(), engine.flight_dump()])
        .flatten()
        .collect()
}

/// Event names version 2 of the dump took from the trace.
const TYPE_RENAMES: [(&str, &str); 2] = [
    ("admitted", "request_admitted"),
    ("degrade", "degrade_decision"),
];

/// One JSON object's members, in order.
type Fields = Vec<(String, Json)>;

/// Splits a dump into its header, its events and the raw text of its
/// journeys, the first two as version 2 writes them. A version-1 dump
/// is renamed on the way, and these renames are all version 2 may
/// change: `flight` 1 → 2, `kind` → `type`, [`TYPE_RENAMES`], `id` →
/// `request_id` in the two events about one request, and `round_end`
/// gains the store version its round's decision served.
fn as_version_2(dump: &str) -> (Fields, Vec<Fields>, &str) {
    let (head, journeys) = dump
        .split_once(",\"journeys\":")
        .expect("a dump ends with its journeys");
    let Ok(Json::Obj(mut header)) = json::parse(&format!("{head}}}")) else {
        panic!("dump head is not an object: {head}");
    };
    let Some((_, Json::Arr(events))) = header.pop() else {
        panic!("the events array closes the head: {head}");
    };
    for (key, value) in &mut header {
        if key == "flight" && *value == Json::Num(1.0) {
            *value = Json::Num(2.0);
        }
    }
    let mut decided: Vec<(Json, Json)> = Vec::new();
    let events = events
        .into_iter()
        .map(|event| {
            let Json::Obj(pairs) = event else {
                panic!("event is not an object: {event:?}");
            };
            let mut ty = String::new();
            let mut out: Fields = Vec::new();
            for (mut key, mut value) in pairs {
                if key == "kind" {
                    key = "type".into();
                }
                if key == "type" {
                    if let Some((_, new)) = TYPE_RENAMES
                        .iter()
                        .find(|(old, _)| value.as_str() == Some(old))
                    {
                        value = Json::Str(new.to_string());
                    }
                    ty = value.as_str().expect("type is a string").to_string();
                }
                if key == "id" && (ty == "request_admitted" || ty == "shed") {
                    key = "request_id".into();
                }
                out.push((key, value));
            }
            let get = |key: &str| out.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
            let round = get("round");
            if ty == "degrade_decision" {
                decided.push((round.clone().unwrap(), get("store_version").unwrap()));
            }
            if ty == "round_end" && get("store_version").is_none() {
                let (_, version) = decided
                    .iter()
                    .rev()
                    .find(|(r, _)| Some(r) == round.as_ref())
                    .expect("a round ends after its decision")
                    .clone();
                out.push(("store_version".into(), version));
            }
            out
        })
        .collect();
    (header, events, journeys)
}

/// `golden/flight.jsonl` holds the dumps of [`golden_dumps`] as the
/// version-1 recorder wrote them. Journeys must match byte for byte;
/// headers and events must match after [`as_version_2`], field by
/// field and in order. The fresh dumps land in `flight.actual.jsonl`
/// next to the test binaries.
#[test]
fn dumps_match_the_version_1_golden_modulo_the_renames() {
    let fresh = golden_dumps();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flight.actual.jsonl");
    std::fs::write(&path, fresh.join("\n") + "\n").unwrap();
    let golden: Vec<&str> = include_str!("golden/flight.jsonl").lines().collect();
    assert_eq!(
        fresh.len(),
        golden.len(),
        "dump count; fresh dumps at {}",
        path.display()
    );
    for (i, (f, g)) in fresh.iter().zip(&golden).enumerate() {
        let (f_head, f_events, f_journeys) = as_version_2(f);
        let (g_head, g_events, g_journeys) = as_version_2(g);
        assert_eq!(f_journeys, g_journeys, "dump {i}: journeys");
        assert_eq!(f_head, g_head, "dump {i}: header");
        assert_eq!(f_events.len(), g_events.len(), "dump {i}: event count");
        for (j, (fe, ge)) in f_events.iter().zip(&g_events).enumerate() {
            assert_eq!(fe, ge, "dump {i}, event {j}");
        }
    }
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
    assert_eq!(v.get("flight").and_then(Json::as_u64), Some(2));
    let types: Vec<&str> = v
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("type").and_then(Json::as_str))
        .collect();
    assert!(types.contains(&"poison"), "auto-dump has the poison event");
    assert!(types.contains(&"request_admitted"));
    assert!(types.contains(&"round_start"));
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

/// Whether two events are one variant with the same fields in the
/// same order, `f64`s bit for bit.
fn same_event(a: &TraceEvent, b: &TraceEvent) -> bool {
    let (mut i, mut same) = (0, a.tag() == b.tag());
    a.fields(&mut |key, value| {
        let mut j = 0;
        b.fields(&mut |other_key, other| {
            if j == i {
                same &= key == other_key && value.same(&other);
            }
            j += 1;
        });
        i += 1;
    });
    let mut n = 0;
    b.fields(&mut |_, _| n += 1);
    same && i == n
}

/// The trace and the flight recorder hold one record of the engine's
/// decisions: over both recipes, the trace's `serve` events are the
/// rings' events, in order and field by field.
#[test]
fn the_trace_and_the_ring_record_the_same_decisions() {
    let rec = Arc::new(MemoryRecorder::new());
    let engines = mfbc_trace::scoped(rec.clone(), || drive_recipes(256));
    let records = rec.snapshot();
    let traced: Vec<&TraceEvent> = records
        .iter()
        .map(|r| &r.event)
        .filter(|e| e.category() == "serve")
        .collect();
    let rings: Vec<_> = engines.iter().map(|e| e.flight().unwrap()).collect();
    assert!(
        rings.iter().all(|fr| fr.dropped_events() == 0),
        "the rings hold every event"
    );
    let ring: Vec<&TraceEvent> = rings
        .iter()
        .flat_map(|fr| fr.events().map(|f| &f.event))
        .collect();
    assert_eq!(traced.len(), ring.len(), "event count");
    for (i, (t, r)) in traced.iter().zip(&ring).enumerate() {
        assert!(same_event(t, r), "event {i}: traced {t:?}, ringed {r:?}");
    }
    // A traced run shows why the poisoned engine went stale.
    let jsonl = mfbc_trace::to_jsonl(&records);
    assert!(jsonl.contains("\"type\":\"poison\""), "{jsonl}");
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
    let prom = mfbc_profile::prometheus::render(&reg);
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
