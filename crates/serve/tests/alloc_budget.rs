//! The warm path's allocation budget (ROADMAP item 5(c)): on a
//! converged engine, answering a request and rendering it into a
//! reused buffer allocates a small constant number of times — the
//! response vector, plus the pairs of a `topk` — whatever the graph's
//! size. The counting allocator lives here, in the test crate; the
//! library keeps `#![deny(unsafe_code)]`.

use mfbc_core::dist::MfbcConfig;
use mfbc_graph::gen::uniform;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_profile::MetricsRegistry;
use mfbc_serve::{wire, Admission, Engine, EngineConfig, Quality, Query, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread (tests run on parallel
    /// threads of one process, so a process-wide count would mix them).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `System`, with this thread's allocation calls counted.
struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `Cell` of an
// integer in const-initialised thread-local storage, so touching it
// neither allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A converged engine on an `n`-vertex graph that has answered enough
/// of every query kind for each lazily sized thing — queue, SLO
/// window, metric samples, the snapshot's memos, the render buffer —
/// to have reached its steady state.
fn warmed(n: usize) -> (Engine, String) {
    let g = uniform(n, 4 * n, false, None, 3);
    let cfg = MfbcConfig::default().with_batch_size(16);
    let machine = Machine::new(MachineSpec::test(4));
    let mut engine = Engine::new(&machine, g, &cfg, EngineConfig::default()).unwrap();
    engine.warm();
    assert!(engine.exact_complete());
    let mut line = String::new();
    for id in 0..48 {
        answer(&mut engine, &mut line, id, kinds(n)[id as usize % 3]);
    }
    (engine, line)
}

fn kinds(n: usize) -> [Query; 3] {
    [
        Query::Vertex { v: n / 2 },
        Query::TopK { k: 8 },
        Query::Full,
    ]
}

/// One request through `submit` → `drain` → `write_response`; returns
/// the allocation calls that took.
fn answer(engine: &mut Engine, line: &mut String, id: u64, query: Query) -> u64 {
    let before = allocs();
    let admission = engine.submit(Request {
        id,
        query,
        deadline_s: None,
    });
    let responses = engine.drain();
    line.clear();
    wire::write_response(line, &responses[0]);
    let used = allocs() - before;
    assert_eq!(admission, Admission::Admitted);
    assert_eq!(responses[0].quality, Quality::Exact);
    assert!(line.starts_with(&format!("{{\"id\":{id},")));
    used
}

#[test]
fn a_warm_request_allocates_a_constant_number_of_times() {
    let per_size: Vec<[u64; 3]> = [48, 192]
        .into_iter()
        .map(|n| {
            let (mut engine, mut line) = warmed(n);
            let mut worst = [0u64; 3];
            for id in 100..130 {
                let kind = id as usize % 3;
                let used = answer(&mut engine, &mut line, id, kinds(n)[kind]);
                worst[kind] = worst[kind].max(used);
            }
            worst
        })
        .collect();
    for [vertex, topk, full] in &per_size {
        assert!(*vertex <= 4, "a vertex request allocated {vertex} times");
        assert!(*topk <= 4, "a topk request allocated {topk} times");
        assert!(*full <= 4, "a full request allocated {full} times");
    }
    assert_eq!(
        per_size[0][2], per_size[1][2],
        "a full request's allocations depend on n"
    );
}

#[test]
fn updating_an_existing_sample_allocates_nothing() {
    let registry = MetricsRegistry::new();
    let update = |labels: &[(&str, &str)]| {
        registry.counter_add("serve_degrade_total", labels, 1.0);
        registry.gauge_set("serve_queue_depth", &[], 2.0);
        registry.observe("serve_latency_modeled_us", &[], 3.5);
    };
    update(&[("rung", "stale"), ("reason", "budget")]);
    let before = allocs();
    update(&[("rung", "stale"), ("reason", "budget")]);
    update(&[("reason", "budget"), ("rung", "stale")]);
    assert_eq!(allocs() - before, 0);
}
