//! Regression alarm for per-superstep table copies: the bytes one
//! `mfbc_seq` call requests from the allocator stay within a small
//! multiple of the tables it builds, and `mfbc_dist` on one simulated
//! rank stays within a small multiple of that.
//!
//! A superstep is priced by its frontier and the products it induces
//! (Theorem 5.1). Rebuilding the `n_b × n` tables `T` and `Z` around
//! every product instead costs `supersteps × (nnz(T) + nnz(Z))`, which
//! on a high-diameter graph is two orders of magnitude more than the
//! tables themselves. This binary holds one test so that nothing else
//! allocates while it counts.

use mfbc_core::dist::{mfbc_dist, MfbcConfig};
use mfbc_core::seq::{mfbc_seq, mfbf_seq, mfbr_seq};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_graph::prep::{randomize_weights, remove_isolated};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested so far (a statistic: `Relaxed` suffices).
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is the
// only addition and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A `side × side` grid with seeded weights 1..=4: high diameter,
/// hypersparse frontiers, weighted re-relaxation, no masks.
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

/// Requested bytes per byte of final table. Measured on this graph
/// (122 supersteps): 19.0 with in-place supersteps and one anchor
/// pass, 138 with the tables rebuilt around every product — the bound
/// is the measurement × 1.5.
const MAX_REQUESTED_PER_TABLE_BYTE: f64 = 28.5;

/// The same ratio on a unit-weighted R-MAT graph, where every product
/// runs under a mask: the alarm for per-superstep copies of a mask's
/// pattern. Measured: 10.5 with masks that borrow the table's and the
/// pending set's rows, 16.4 before (every superstep copied the
/// pattern into its mask, and `Z` was opened in three passes) —
/// measurement × 1.5 again.
const MAX_MASKED_REQUESTED_PER_TABLE_BYTE: f64 = 15.8;

/// Bytes `mfbc_dist` at `p = 1` may request per byte `mfbc_seq`
/// requests for the same sweep. One rank moves nothing, so what the
/// tensor layer adds — placing operands, re-assembling every product —
/// has to stay a fraction of the sweep itself. Measured: 1.11 with
/// slab-wise movement (whole blocks cloned or moved), 2.80 when every
/// product and operand went through a coordinate list and a sort.
const MAX_DIST_OVER_SEQ_REQUESTED: f64 = 1.5;

/// Bytes of `T` and `Z` over every batch of `nb` sources, and the
/// supersteps it takes to build them.
fn tables_of(g: &Graph, nb: usize) -> (u64, usize) {
    let sources: Vec<usize> = (0..g.n()).collect();
    let (mut table_bytes, mut supersteps) = (0u64, 0);
    for chunk in sources.chunks(nb) {
        let fwd = mfbf_seq(g, chunk);
        let back = mfbr_seq(g, &fwd.t);
        table_bytes += (fwd.t.payload_bytes() + back.z.payload_bytes()) as u64;
        supersteps += fwd.iterations + back.iterations;
    }
    (table_bytes, supersteps)
}

/// One `mfbc_seq` call: the bytes it requests, and its scores.
fn requested_by_seq(g: &Graph, nb: usize, supersteps: usize) -> (u64, Vec<f64>) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let (scores, stats) = mfbc_seq(g, nb);
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(
        stats.forward_iterations + stats.backward_iterations,
        supersteps
    );
    assert!(scores.lambda.iter().any(|&x| x > 0.0));
    (requested, scores.lambda)
}

#[test]
fn mfbc_requests_a_small_multiple_of_its_tables() {
    let (g, nb) = (weighted_grid(16), 128);
    // One kernel thread: the pool's fan-out allocates per participant.
    mfbc_parallel::with_threads(1, || {
        let (table_bytes, supersteps) = tables_of(&g, nb);
        assert!(supersteps > 100, "the grid must take many supersteps");
        let (requested, lambda) = requested_by_seq(&g, nb, supersteps);
        let ratio = requested as f64 / table_bytes as f64;
        assert!(
            ratio < MAX_REQUESTED_PER_TABLE_BYTE,
            "{requested} bytes requested for {table_bytes} bytes of tables over \
             {supersteps} supersteps: {ratio:.1}x"
        );

        // A unit-weighted R-MAT graph: few dense supersteps, every
        // product under a mask read off the table or the pending set.
        let (rg, rnb) = (remove_isolated(&rmat(&RmatConfig::paper(8, 8, 3))), 64);
        let (rtable_bytes, rsupersteps) = tables_of(&rg, rnb);
        let (rrequested, _) = requested_by_seq(&rg, rnb, rsupersteps);
        let rratio = rrequested as f64 / rtable_bytes as f64;
        assert!(
            rratio < MAX_MASKED_REQUESTED_PER_TABLE_BYTE,
            "{rrequested} bytes requested for {rtable_bytes} bytes of tables over \
             {rsupersteps} masked supersteps: {rratio:.1}x"
        );

        // The same sweep on a one-rank simulated machine.
        let m = Machine::new(MachineSpec::gemini(1));
        let cfg = MfbcConfig::default().with_batch_size(nb).with_threads(1);
        let before = REQUESTED.load(Ordering::Relaxed);
        let run = mfbc_dist(&m, &g, &cfg).expect("fault-free");
        let dist_requested = REQUESTED.load(Ordering::Relaxed) - before;
        assert_eq!(run.forward_iterations + run.backward_iterations, supersteps);
        assert_eq!(run.scores.lambda, lambda);
        let dist_over_seq = dist_requested as f64 / requested as f64;
        assert!(
            dist_over_seq < MAX_DIST_OVER_SEQ_REQUESTED,
            "mfbc_dist at p=1 requested {dist_requested} bytes, {dist_over_seq:.2}x the \
             {requested} of mfbc_seq"
        );
    });
}
