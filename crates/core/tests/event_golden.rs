//! The ordered event trace of `mfbc_dist`, pinned line for line.
//!
//! `golden/events.txt` holds, per run, every event `mfbc_dist` emits
//! at a pool of one thread, in order: its tag and every field the
//! JSON-lines exporter writes, less the one wall-clock field (a pool
//! event's `busy_us`). Spans, collectives (issue and wait), compute
//! charges, cache counters, products and their plans, the pool
//! fan-outs of the table steps and the autotuner's candidate tables
//! are all in it, so a change that moves a charge, reorders two
//! events, renames a kernel or drops a product shows as a diff.
//!
//! The runs cover a small unit-weighted R-MAT graph, masked and not,
//! and a small weighted grid (where no mask applies), each under the
//! autotuner at p = 16 — which reduces its products under `3d(C/…)`
//! plans — and under three fixed plans at p = 4 whose output is
//! reduced or assembled across ranks: `1d(C)`, `2d(AC,2x2)` and
//! `cannon(q=2)`.
//!
//! On a mismatch the fresh trace is written next to the test binaries
//! (`events.actual.txt`).

use mfbc_core::dist::{mfbc_dist, MfbcConfig, PlanMode};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_graph::prep::randomize_weights;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_tensor::{MmPlan, Variant1D, Variant2D};
use mfbc_trace::{MemoryRecorder, TraceEvent};
use std::fmt::Write as _;
use std::sync::Arc;

/// A `side × side` grid with seeded weights 1..=4.
fn weighted_grid(side: usize) -> Graph {
    let at = |r: usize, c: usize| r * side + c;
    let across = (0..side).flat_map(|r| (1..side).map(move |c| (at(r, c - 1), at(r, c))));
    let down = (1..side).flat_map(|r| (0..side).map(move |c| (at(r - 1, c), at(r, c))));
    let edges: Vec<(usize, usize)> = across.chain(down).collect();
    randomize_weights(&Graph::unweighted(side * side, false, edges), 4, 7)
}

/// `(name, graph, masked)`.
fn graphs() -> Vec<(&'static str, Graph, bool)> {
    let r = || rmat(&RmatConfig::paper(5, 3, 5));
    vec![
        ("rmat-masked", r(), true),
        ("rmat-unmasked", r(), false),
        ("grid-weighted", weighted_grid(4), true),
    ]
}

/// `(p, plan mode)`.
fn modes() -> Vec<(usize, PlanMode)> {
    vec![
        (16, PlanMode::Auto),
        (4, PlanMode::Fixed(MmPlan::OneD(Variant1D::C))),
        (
            4,
            PlanMode::Fixed(MmPlan::TwoD {
                variant: Variant2D::AC,
                p2: 2,
                p3: 2,
            }),
        ),
        (4, PlanMode::Fixed(MmPlan::Cannon { q: 2 })),
    ]
}

/// One event as a line: its tag, then `name=value` for every field
/// but the wall-clock one. The autotuner's candidate table — every
/// plan's modeled cost, a few kilobytes — is pinned by a digest of
/// its JSON.
fn line(event: &TraceEvent) -> String {
    let mut out = event.tag().to_string();
    event.fields(&mut |name, value| {
        if name == "busy_us" {
            return;
        }
        let mut json = String::new();
        value.write_json(&mut json);
        if name == "candidates" {
            json = format!("#{:016x}", fnv1a(&json));
        }
        write!(out, " {name}={json}").unwrap();
    });
    out
}

/// 64-bit FNV-1a of `s`.
fn fnv1a(s: &str) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    s.as_bytes().iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// Every run's trace, one event a line.
fn table() -> String {
    let mut out = String::new();
    for (name, g, masked) in graphs() {
        for (p, mode) in modes() {
            let m = Machine::new(MachineSpec::gemini(p));
            let cfg = MfbcConfig {
                plan_mode: mode.clone(),
                masked,
                ..MfbcConfig::default()
            }
            .with_batch_size(8)
            .with_threads(1);
            let cfg = MfbcConfig {
                max_batches: Some(1),
                ..cfg
            };
            let rec = Arc::new(MemoryRecorder::new());
            mfbc_trace::scoped(rec.clone(), || mfbc_dist(&m, &g, &cfg).expect("fault-free"));
            let records = rec.take();
            writeln!(out, "# {name} p={p} {mode:?}: {} events", records.len()).unwrap();
            for r in &records {
                writeln!(out, "{}", line(&r.event)).unwrap();
            }
        }
    }
    out
}

#[test]
fn dist_event_trace_matches_the_golden() {
    let fresh = table();
    let golden = include_str!("golden/events.txt");
    if fresh == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("events.actual.txt");
    std::fs::write(&path, &fresh).expect("write the fresh trace");
    let first = fresh
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (f, g))| f != g)
        .map(|(k, (f, g))| format!("line {}\n  fresh:  {f}\n  golden: {g}", k + 1))
        .unwrap_or_else(|| "one trace is a prefix of the other".to_string());
    panic!(
        "drifted from golden/events.txt; fresh trace at {}; first difference at {first}",
        path.display()
    );
}

/// Per batch of a traced `mfbc_dist` run, in order: whether MFBr's
/// count landed — the plan of the first product after the batch's
/// forward sweep is `1d(A)` or `1d(B)` — and how many `dmat_map`
/// fan-outs ran between the sweep and that product.
fn seed_maps(events: &[TraceEvent]) -> Vec<(bool, usize)> {
    let landing = [Variant1D::A, Variant1D::B].map(|v| MmPlan::OneD(v).to_string());
    let (mut out, mut maps) = (Vec::new(), None);
    for event in events {
        match event {
            TraceEvent::SpanEnd { name } if name.ends_with("/forward") => maps = Some(0),
            TraceEvent::Pool {
                kernel: "dmat_map", ..
            } => *maps.as_mut().expect("only the count's seeds are a map") += 1,
            TraceEvent::Spgemm { plan, .. } => {
                if let Some(maps) = maps.take() {
                    out.push((landing.contains(plan), maps));
                }
            }
            _ => {}
        }
    }
    out
}

#[test]
fn a_count_that_lands_builds_no_seeds() {
    // MFBr's count is handed `T`; the `(τ, 0, 1)` seeds it stands for
    // are built — one `dmat_map` fan-out — only for a plan that moves
    // them. The autotuner picks a landing count at every p here.
    let g = rmat(&RmatConfig::paper(7, 8, 2));
    let runs = [
        (1, PlanMode::Auto),
        (4, PlanMode::Auto),
        (16, PlanMode::Auto),
        (4, PlanMode::Fixed(MmPlan::OneD(Variant1D::A))),
        (4, PlanMode::Fixed(MmPlan::OneD(Variant1D::B))),
        (4, PlanMode::Fixed(MmPlan::OneD(Variant1D::C))),
    ];
    for (p, mode) in runs {
        let m = Machine::new(MachineSpec::gemini(p));
        let cfg = MfbcConfig {
            plan_mode: mode.clone(),
            ..MfbcConfig::default()
        }
        .with_batch_size(32)
        .with_threads(1);
        let rec = Arc::new(MemoryRecorder::new());
        let run = mfbc_trace::scoped(rec.clone(), || mfbc_dist(&m, &g, &cfg).expect("fault-free"));
        let events: Vec<TraceEvent> = rec.take().into_iter().map(|r| r.event).collect();
        let batches = seed_maps(&events);
        let what = format!("p={p} {mode:?}");
        assert_eq!(batches.len(), run.batches, "{what}: one count a batch");
        for (b, &(lands, maps)) in batches.iter().enumerate() {
            assert_eq!(maps, usize::from(!lands), "{what}, batch {b}: seed maps");
        }
        let landed = batches.iter().filter(|&&(lands, _)| lands).count();
        let want = match &mode {
            PlanMode::Fixed(plan) if plan.lands() => run.batches,
            PlanMode::Fixed(_) => 0,
            _ => landed.max(1),
        };
        assert_eq!(landed, want, "{what}: counts that land");
    }
}
