//! The report documents, pinned: the committed files under
//! `tests/golden/` and the two `BENCH_*.json` baselines are what the
//! writers produce, to the byte, and every declared row reads back as
//! what was written.

use mfbc_bench::regress::{run_named_case, SuiteOptions};
use mfbc_bench::serveload::ServeLoadReport;
use mfbc_conformance::SplitMix64;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_profile::export::profile_to_json;
use mfbc_profile::{html, prometheus};
use mfbc_profile::{
    ActionTotals, AutotuneProfile, Baseline, BaselineCase, CollectiveProfile, CriticalProfile,
    PlanMixEntry, PoolTotals, Profile, Profiler, RankProfile, StepTotals,
};
use mfbc_timeline::{
    doc, register_metrics, to_html, to_json, Bottleneck, PathRow, RankRow, RoundInfo,
    StepAttribution, TimelineDoc, WhatIfReport,
};
use mfbc_trace::json::{parse, write_doc, write_row, Json, Row};
use mfbc_trace::{FaultCount, PlanChoice, Value};
use std::fmt::Debug;
use std::sync::Arc;

#[test]
fn bench_case_documents_match_the_committed_bytes() {
    // One thread pins the profile's event count (pool events are per
    // fan-out); `busy_us` is wall-clock, so it is zeroed. The profile
    // HTML and the Gantt chart are pinned beside the JSON documents.
    let mut r = mfbc_parallel::with_threads(1, || {
        run_named_case(Some("rmat-s8-p4-b32"), &SuiteOptions::default())
    })
    .expect("pinned case");
    for w in &mut r.profile.pool {
        w.busy_us = 0;
    }
    assert_eq!(
        profile_to_json(&r.profile),
        include_str!("golden/rmat-s8-p4-b32.profile.json")
    );
    assert_eq!(
        to_json(&doc(&r.timeline, &r.analysis, &[])),
        include_str!("golden/rmat-s8-p4-b32.timeline.json")
    );
    assert_eq!(
        html::render(&r.profile),
        include_str!("golden/rmat-s8-p4-b32.profile.html")
    );
    assert_eq!(
        to_html(&r.timeline, &r.analysis),
        include_str!("golden/rmat-s8-p4-b32.gantt.html")
    );
    assert_eq!(
        bench_prom_text(&r),
        include_str!("golden/rmat-s8-p4-b32.metrics.prom")
    );
}

/// The bench case installs one recorder, the timeline builder; a
/// profiler installed around it folds the same stream. The machine
/// only adds per-rank meters, read the same way on both sides, so a
/// fresh one of the case's shape stands in for the run's.
#[test]
fn bench_case_profile_is_the_profilers() {
    let profiler = Arc::new(Profiler::new());
    let r = mfbc_trace::scoped(profiler.clone(), || {
        run_named_case(Some("rmat-s8-p4-b32"), &SuiteOptions::default())
    })
    .expect("pinned case");
    let m = Machine::new(MachineSpec::gemini(4));
    assert_eq!(
        profile_to_json(&Profile::of(&r.timeline.summary, &m)),
        profile_to_json(&profiler.finish(&m))
    );
    assert_eq!(r.profile.supersteps, r.timeline.summary.supersteps);
}

/// The Prometheus text `bench --prom-out` writes for a case: its
/// registry plus the timeline's gauges. The pool's busy microseconds
/// are wall-clock, so their samples are left out.
fn bench_prom_text(r: &mfbc_bench::regress::SuiteCaseResult) -> String {
    register_metrics(&r.registry, &r.timeline, &r.analysis);
    prometheus::render(&r.registry)
        .lines()
        .filter(|l| !l.starts_with("mfbc_pool_busy_microseconds_total"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn committed_baselines_are_what_the_writers_write() {
    let text = include_str!("../../../BENCH_mfbc.json");
    let parsed = Baseline::<BaselineCase>::from_json(text).unwrap();
    assert_eq!(parsed.to_json(), text);
    let text = include_str!("../../../BENCH_serve.json");
    let parsed = Baseline::<ServeLoadReport>::from_json(text).unwrap();
    assert_eq!(parsed.to_json(), text);
}

/// Reals the `{:?}` formatter must carry exactly: signed zero, the
/// smallest subnormal, 2⁵³, a sum with a long expansion, and raw
/// finite bit patterns.
fn real(rng: &mut SplitMix64) -> f64 {
    match rng.below(6) {
        0 => -0.0,
        1 => 5e-324,
        2 => 9_007_199_254_740_992.0,
        3 => 0.1 + 0.2,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// Integers up to the 2⁵³ a JSON number carries exactly.
fn count(rng: &mut SplitMix64) -> f64 {
    match rng.below(4) {
        0 => 0.0,
        1 => 9_007_199_254_740_992.0,
        _ => (rng.next_u64() >> 11) as f64,
    }
}

fn text(rng: &mut SplitMix64) -> String {
    let samples = ["", "1d(A)", "quo\"te", "back\\slash", "ctl\u{1}\n\t", "μ→∞"];
    rng.pick(&samples).to_string()
}

/// A random object with `like`'s keys and cell shapes. Lists of rows
/// stay empty (an empty list does not show its row type; callers fill
/// them), and `version` keeps the one value its cell reads back.
fn object_like(rng: &mut SplitMix64, like: &dyn Row) -> Json {
    let mut pairs = Vec::new();
    like.fields(&mut |key, value| {
        let cell = match value {
            Value::U64(v) if key == "version" => Json::Num(v as f64),
            Value::U64(_) => Json::Num(count(rng)),
            Value::F64(_) => Json::Num(real(rng)),
            Value::Bool(_) => Json::Bool(rng.chance(1, 2)),
            Value::Str(_) => Json::Str(text(rng)),
            Value::OptF64(_) | Value::Rank(_) if rng.chance(1, 3) => Json::Null,
            Value::OptF64(_) => Json::Num(real(rng)),
            Value::Rank(_) => Json::Num(count(rng)),
            Value::Strs(_) => Json::Arr((0..rng.below(3)).map(|_| Json::Str(text(rng))).collect()),
            Value::Row(row) => object_like(rng, row),
            Value::Rows(_) => Json::Arr(Vec::new()),
            Value::Ranks(_) | Value::U64s(_) => unreachable!("no report row has a {key} list"),
        };
        pairs.push((key.to_string(), cell));
    });
    Json::Obj(pairs)
}

fn arbitrary<T: Row + Default>(rng: &mut SplitMix64) -> T {
    T::read(&object_like(rng, &T::default())).expect("a row reads its own shape")
}

fn rows<T: Row + Default>(rng: &mut SplitMix64) -> Vec<T> {
    (0..rng.below(4)).map(|_| arbitrary(rng)).collect()
}

/// `read(write(x)) == x`, and writing what was read reproduces the
/// bytes (which, unlike `==`, tells `-0.0` from `0.0`).
fn assert_round_trips<T: Row + PartialEq + Debug>(x: &T, write: impl Fn(&T) -> String) {
    let written = write(x);
    let back = T::read(&parse(&written).expect("written rows parse")).expect("and read back");
    assert_eq!(&back, x, "{written}");
    assert_eq!(write(&back), written);
}

fn row_round_trips<T: Row + Default + PartialEq + Debug>(rng: &mut SplitMix64) {
    for _ in 0..64 {
        assert_round_trips(&arbitrary::<T>(rng), |x| {
            let mut written = String::new();
            write_row(&mut written, x, true);
            written
        });
    }
}

#[test]
fn every_row_type_round_trips() {
    let rng = &mut SplitMix64::new(0x0d0c_5eed);
    row_round_trips::<PlanChoice>(rng);
    row_round_trips::<FaultCount>(rng);
    row_round_trips::<RankProfile>(rng);
    row_round_trips::<CollectiveProfile>(rng);
    row_round_trips::<StepTotals>(rng);
    row_round_trips::<PlanMixEntry>(rng);
    row_round_trips::<ActionTotals>(rng);
    row_round_trips::<PoolTotals>(rng);
    row_round_trips::<CriticalProfile>(rng);
    row_round_trips::<AutotuneProfile>(rng);
    row_round_trips::<BaselineCase>(rng);
    row_round_trips::<ServeLoadReport>(rng);
    row_round_trips::<RankRow>(rng);
    row_round_trips::<PathRow>(rng);
    row_round_trips::<Bottleneck>(rng);
    row_round_trips::<StepAttribution>(rng);
    row_round_trips::<RoundInfo>(rng);
    row_round_trips::<WhatIfReport>(rng);
}

#[test]
fn every_document_round_trips() {
    let rng = &mut SplitMix64::new(0xd0c5);
    for _ in 0..32 {
        let tl = TimelineDoc {
            ranks: rows(rng),
            critical_path: rows(rng),
            bottlenecks: rows(rng),
            supersteps: rows(rng),
            rounds: rows(rng),
            what_if: rows(rng),
            ..arbitrary(rng)
        };
        assert_round_trips(&tl, |d| write_doc(d));

        let profile = Profile {
            ranks: rows(rng),
            collectives: rows(rng),
            supersteps: rows(rng),
            plan_mix: rows(rng),
            faults: rows(rng),
            recoveries: rows(rng),
            pool: rows(rng),
            ..arbitrary(rng)
        };
        assert_round_trips(&profile, |d| write_doc(d));

        let mfbc = Baseline::<BaselineCase>::new(rows(rng));
        assert_round_trips(&mfbc, Baseline::to_json);
        let serve = Baseline::<ServeLoadReport>::new(rows(rng));
        assert_round_trips(&serve, Baseline::to_json);
    }
}
