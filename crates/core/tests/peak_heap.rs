//! Regression alarm for what a one-rank simulated run holds at once:
//! `mfbc_dist` on one rank runs the sweeps `mfbc_seq` runs, so its peak
//! live heap may exceed `mfbc_seq`'s only by the machine's bookkeeping,
//! not by a matrix the shared-memory sweep never builds.
//!
//! The peak sits inside MFBr's opening. There `mfbc_seq` counts each
//! entry's children in place off `T`; a simulated run that first built
//! the `n_b × n` matrix of `(τ, 0, 1)` seeds the count product stands
//! for held it beside `T` and `Z`. This binary holds one test so that
//! nothing else allocates while it counts.

use mfbc_core::dist::{mfbc_dist, MfbcConfig};
use mfbc_core::seq::mfbc_seq;
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_graph::prep::{randomize_weights, remove_isolated};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// The most `LIVE` has held since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn grew(by: u64) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(by: u64) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counters are the
// only addition and touch no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Counting::grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Counting::grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            Counting::grew(new_size as u64);
            Counting::shrank(layout.size() as u64);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::shrank(layout.size() as u64);
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes `f` holds live at once beyond what was live when it
/// started, and its result.
fn peak_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// A `side × side` grid with seeded weights 1..=4: high diameter,
/// hypersparse frontiers, no masks.
fn weighted_grid(side: usize) -> Graph {
    let at = |r: usize, c: usize| r * side + c;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                edges.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < side {
                edges.push((at(r, c), at(r + 1, c)));
            }
        }
    }
    randomize_weights(&Graph::unweighted(side * side, false, edges), 4, 7)
}

/// One-rank `mfbc_dist`'s peak live heap over `mfbc_seq`'s, in batches
/// of `nb`; the scores must agree bit for bit.
fn dist_over_seq(g: &Graph, nb: usize) -> f64 {
    let (seq, (scores, _)) = peak_of(|| mfbc_seq(g, nb));
    let m = Machine::new(MachineSpec::gemini(1));
    let cfg = MfbcConfig::default().with_batch_size(nb).with_threads(1);
    let (dist, run) = peak_of(|| mfbc_dist(&m, g, &cfg).expect("fault-free"));
    assert_eq!(
        run.scores.lambda, scores.lambda,
        "one rank scores as mfbc_seq"
    );
    dist as f64 / seq as f64
}

/// One-rank `mfbc_dist`'s peak live heap over `mfbc_seq`'s, per input.
/// Measured (unit-weighted R-MAT, weighted grid): 1.022 and 1.022 with
/// MFBr's count reading `T` in place where its plan lands; 1.235 and
/// 1.400 when the count multiplied a seeds matrix built first. The
/// counts are deterministic; the bound lies between the two.
const MAX_DIST_OVER_SEQ_PEAK: f64 = 1.1;

#[test]
fn one_rank_holds_what_the_shared_memory_sweep_holds() {
    let inputs = [
        (
            "rmat",
            remove_isolated(&rmat(&RmatConfig::paper(9, 8, 1))),
            256,
        ),
        ("grid", weighted_grid(16), 128),
    ];
    mfbc_parallel::with_threads(1, || {
        for (name, g, nb) in &inputs {
            let ratio = dist_over_seq(g, *nb);
            assert!(
                ratio < MAX_DIST_OVER_SEQ_PEAK,
                "{name}: one-rank mfbc_dist peaks at {ratio:.3}x mfbc_seq's live heap"
            );
        }
    });
}
