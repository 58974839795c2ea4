//! End-to-end engine behavior: exactness, admission, the degradation
//! ladder, fault absorption, the breaker, and determinism.

use mfbc_core::dist::{mfbc_dist, MfbcConfig};
use mfbc_fault::{BreakerState, FaultPlan, RetryPolicy};
use mfbc_graph::gen::uniform;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_profile::registry::SampleValue;
use mfbc_serve::{
    wire, Admission, Engine, EngineConfig, Payload, Quality, Query, Request, ShedReason,
};

fn ladder() -> Graph {
    Graph::unweighted(
        8,
        false,
        vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (1, 5),
            (2, 6),
        ],
    )
}

fn full(id: u64) -> Request {
    Request {
        id,
        query: Query::Full,
        deadline_s: None,
    }
}

fn counter_total(engine: &Engine, family: &str) -> f64 {
    engine
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|f| f.name == family)
        .flat_map(|f| f.samples)
        .map(|(_, v)| match v {
            SampleValue::Counter(x) | SampleValue::Gauge(x) => x,
            SampleValue::Histogram(_) => 0.0,
        })
        .sum()
}

#[test]
fn unbounded_deadline_serves_exact_bits_of_a_one_shot_run() {
    let g = uniform(24, 90, false, None, 7);
    let machine = Machine::new(MachineSpec::test(4));
    let cfg = MfbcConfig::default().with_batch_size(4);
    let one_shot = mfbc_dist(&machine, &g, &cfg).unwrap();

    let mut engine = Engine::new(&machine, g, &cfg, EngineConfig::default()).unwrap();
    assert_eq!(engine.submit(full(1)), Admission::Admitted);
    assert_eq!(
        engine.submit(Request {
            id: 2,
            query: Query::TopK { k: 3 },
            deadline_s: None,
        }),
        Admission::Admitted
    );
    let responses = engine.drain();
    assert_eq!(responses.len(), 2);
    for r in &responses {
        assert_eq!(r.quality, Quality::Exact, "id {}: {:?}", r.id, r.quality);
    }
    let Payload::Full(scores) = &responses[0].payload else {
        panic!("full query returns Full payload");
    };
    let got: Vec<u64> = scores.iter().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = one_shot.scores.lambda.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want, "served exact scores must be the one-shot bits");
    let Payload::TopK(pairs) = &responses[1].payload else {
        panic!("topk query returns TopK payload");
    };
    assert_eq!(pairs.len(), 3);
    assert!(engine.exact_complete());
    // A later query is served from the warm store, instantly exact.
    engine.submit(full(3));
    let later = engine.drain();
    assert_eq!(later[0].quality, Quality::Exact);
}

#[test]
fn bounded_queue_sheds_excess_and_invalid_but_answers_all_admitted() {
    let g = uniform(16, 60, false, None, 1);
    let machine = Machine::new(MachineSpec::test(2));
    let ecfg = EngineConfig {
        max_queue: 2,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&machine, g, &MfbcConfig::default(), ecfg).unwrap();
    assert_eq!(engine.submit(full(1)), Admission::Admitted);
    assert_eq!(engine.submit(full(2)), Admission::Admitted);
    assert_eq!(
        engine.submit(full(3)),
        Admission::Shed(ShedReason::QueueFull)
    );
    assert_eq!(
        engine.submit(Request {
            id: 4,
            query: Query::Vertex { v: 99 },
            deadline_s: None,
        }),
        Admission::Shed(ShedReason::InvalidRequest)
    );
    let responses = engine.drain();
    let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![1, 2], "exactly the admitted ids, in order");
    assert_eq!(counter_total(&engine, "serve_shed_total"), 2.0);
    assert_eq!(engine.health().shed, 2);
}

#[test]
fn tight_deadline_degrades_to_approx_and_zero_deadline_to_stale() {
    let g = uniform(48, 180, false, None, 5);
    let machine = Machine::new(MachineSpec::test(4));
    let cfg = MfbcConfig::default().with_batch_size(8);
    let mut engine = Engine::new(&machine, g, &cfg, EngineConfig::default()).unwrap();

    // No budget at all: nothing advances, the empty store is served
    // stale at version 0.
    engine.submit(Request {
        id: 1,
        query: Query::Full,
        deadline_s: Some(0.0),
    });
    let stale = engine.drain();
    assert_eq!(stale[0].quality, Quality::Stale { version: 0 });
    let Payload::Full(scores) = &stale[0].payload else {
        panic!()
    };
    assert!(scores.iter().all(|&x| x == 0.0), "version-0 store is zero");

    // Most of one batch's budget: no exact batch fits, but the
    // sampled estimator does — tagged with its sample size and
    // standard error.
    let tight = engine.est_batch_modeled_s() * 0.9;
    engine.submit(Request {
        id: 2,
        query: Query::Full,
        deadline_s: Some(tight),
    });
    let degraded = engine.drain();
    match degraded[0].quality {
        Quality::Approx { k, ci } => {
            assert!(k >= 4, "sample at least min_approx_k, got {k}");
            assert!(ci > 0.0 && ci < 1.0, "useful rel-SE tag, got {ci}");
        }
        ref q => panic!("expected approx, got {q:?}"),
    }
    assert_eq!(
        engine.store_version(),
        0,
        "no exact batch fits 0.9× one batch's budget"
    );
    // The store still converges: one unbounded request finishes the
    // exact computation.
    engine.submit(full(3));
    let done = engine.drain();
    assert_eq!(done[0].quality, Quality::Exact);
}

#[test]
fn crash_fault_is_absorbed_and_still_serves_the_clean_bits() {
    // Dyadic ladder: crash recovery is bit-exact, so the served
    // scores must equal the clean one-shot run even though a rank
    // died mid-stream and the machine shrank 8 → 7.
    let g = ladder();
    let cfg = MfbcConfig::default().with_batch_size(2);
    let clean = mfbc_dist(&Machine::new(MachineSpec::test(8)), &g, &cfg).unwrap();

    let faulted = Machine::with_faults(
        MachineSpec::test(8),
        FaultPlan::parse("crash:3@5").unwrap(),
        RetryPolicy::default(),
    );
    let mut engine = Engine::new(&faulted, g, &cfg, EngineConfig::default()).unwrap();
    engine.submit(full(1));
    let responses = engine.drain();
    assert_eq!(responses.len(), 1, "admitted request served, not dropped");
    assert_eq!(responses[0].quality, Quality::Exact);
    let Payload::Full(scores) = &responses[0].payload else {
        panic!()
    };
    let got: Vec<u64> = scores.iter().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = clean.scores.lambda.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want);
    assert!(engine.health().ready);
}

#[test]
fn unrecoverable_crash_poisons_but_keeps_serving_stale() {
    // Same scenario as the core session test: crash at p = 2 under a
    // budget the single survivor cannot rebuild in. The engine stops
    // exact progress, reports not-ready, and keeps answering.
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
    let mut engine = Engine::new(&m, g, &cfg, EngineConfig::default()).unwrap();
    engine.submit(full(1));
    let responses = engine.drain();
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(responses[0].quality, Quality::Stale { .. }),
        "poisoned engine serves stale, got {:?}",
        responses[0].quality
    );
    assert!(engine.poisoned());
    let h = engine.health();
    assert!(!h.ready, "poisoned engine is not ready");
    assert!(h.live, "but it stays live");
    // Still answering after the poisoning.
    engine.submit(full(2));
    let more = engine.drain();
    assert_eq!(more.len(), 1);
    assert!(matches!(more[0].quality, Quality::Stale { .. }));
}

#[test]
fn persistent_transients_trip_the_breaker_to_stale_serving() {
    // A transient budget far beyond every retry layer: each drain's
    // advance exhausts the engine's retry policy and records a
    // failure; at the threshold the breaker opens and rounds serve
    // stale (no estimator run either) until the cooldown admits a
    // probe.
    let g = uniform(24, 90, false, None, 9);
    let m = Machine::with_faults(
        MachineSpec::test(4),
        FaultPlan::parse("transient:100000@3").unwrap(),
        RetryPolicy::default(),
    );
    let ecfg = EngineConfig {
        breaker_threshold: 2,
        breaker_cooldown: 2,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&m, g, &MfbcConfig::default(), ecfg).unwrap();

    // Rounds 1–2: advances fail (engine retries, then gives up), the
    // estimator still answers.
    for round in 1..=2u64 {
        engine.submit(full(round));
        let r = engine.drain();
        assert!(
            matches!(r[0].quality, Quality::Approx { .. }),
            "round {round}: {:?}",
            r[0].quality
        );
    }
    assert_eq!(engine.breaker_state(), BreakerState::Open);
    assert!(counter_total(&engine, "serve_breaker_trips_total") >= 1.0);
    assert!(counter_total(&engine, "serve_retries_total") >= 2.0);

    // Open breaker: the next round is pinned to stale.
    engine.submit(full(10));
    let stale = engine.drain();
    assert!(
        matches!(stale[0].quality, Quality::Stale { .. }),
        "open breaker serves stale, got {:?}",
        stale[0].quality
    );
    // Every admitted request got exactly one answer.
    assert_eq!(engine.health().served, 3);
}

#[test]
fn equal_seeds_produce_bit_identical_response_streams() {
    let run = |seed: u64| -> Vec<String> {
        let g = uniform(32, 120, false, None, 11);
        let m = Machine::with_faults(
            MachineSpec::test(4),
            FaultPlan::parse("transient:2@4").unwrap(),
            RetryPolicy::default(),
        );
        let cfg = MfbcConfig::default().with_batch_size(4);
        let ecfg = EngineConfig {
            seed,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(&m, g, &cfg, ecfg).unwrap();
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
    assert_eq!(run(42), run(42), "same seed, same stream");
}

#[test]
fn a_commit_is_never_answered_from_the_previous_versions_caches() {
    let g = uniform(40, 150, false, None, 13);
    let cfg = MfbcConfig::default().with_batch_size(4);
    // Never approx: every degraded answer is the store's snapshot.
    let ecfg = EngineConfig {
        min_approx_k: usize::MAX,
        ..EngineConfig::default()
    };
    let engine =
        || Engine::new(&Machine::new(MachineSpec::test(4)), g.clone(), &cfg, ecfg).unwrap();
    // One round funded for about one batch, answering `queries`.
    let round = |engine: &mut Engine, budget: f64, queries: &[Query]| {
        for (id, query) in queries.iter().enumerate() {
            engine.submit(Request {
                id: id as u64,
                query: *query,
                deadline_s: Some(budget),
            });
        }
        engine.drain()
    };
    let one_batch = |engine: &Engine| 1.25 * engine.est_batch_modeled_s();
    let asked = [Query::TopK { k: 5 }, Query::Full];
    let payload_text = |r: &mfbc_serve::Response| {
        let line = wire::render_response(r);
        let (_, payload) = line.split_once("\"retries\":").expect("a response line");
        payload.to_string()
    };

    // `warm` is asked for topk and full at every version it passes
    // through, so every one of its snapshots has memoised both.
    let mut warm = engine();
    let mut last: Option<(u64, Payload)> = None;
    let mut versions = 0;
    while !warm.exact_complete() {
        let budget = one_batch(&warm);
        let answers = round(&mut warm, budget, &asked);
        let version = answers[0].version;

        // `fresh` reaches the same store asking only for a vertex —
        // nothing memoised on the way — and is then asked once.
        let mut fresh = engine();
        while fresh.store_version() < version || fresh.exact_complete() != warm.exact_complete() {
            let budget = one_batch(&fresh);
            round(&mut fresh, budget, &[Query::Vertex { v: 0 }]);
        }
        assert_eq!(fresh.store_version(), version);
        let reference = round(&mut fresh, 0.0, &asked);
        for (got, want) in answers.iter().zip(&reference) {
            assert_eq!(got.quality, want.quality, "version {version}");
            assert_eq!(got.payload, want.payload, "version {version}");
            assert_eq!(payload_text(got), payload_text(want), "version {version}");
        }

        // The versions really differ, so a cache kept across a commit
        // would have shown above.
        let full = answers[1].payload.clone();
        if let Some((last_version, last_full)) = &last {
            if *last_version != version {
                assert_ne!(*last_full, full, "version {version} changed no score");
                versions += 1;
            }
        }
        last = Some((version, full));
    }
    assert!(versions >= 5, "only {versions} commits were observed");
}
