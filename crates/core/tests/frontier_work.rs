//! Regression alarm for per-superstep table copies: the bytes one
//! `mfbc_seq` call requests from the allocator stay within a small
//! multiple of the tables it builds, so do those of `mfbc_dist` on one
//! simulated rank and of `sssp_seq`, a superstep of either sweep
//! makes the same few allocation calls however much it explores or
//! fires, and a superstep of `mfbc_dist` on sixteen ranks a bounded
//! number.
//!
//! A superstep is priced by its frontier and the products it induces
//! (Theorem 5.1). Rebuilding the `n_b × n` tables `T` and `Z` around
//! every product instead costs `supersteps × (nnz(T) + nnz(Z))`, which
//! on a high-diameter graph is two orders of magnitude more than the
//! tables themselves. This binary holds one test so that nothing else
//! allocates while it counts.

use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel};
use mfbc_algebra::{Centpath, Multpath, MultpathMonoid};
use mfbc_core::backend::Simulated;
use mfbc_core::bfs::sssp_seq;
use mfbc_core::dist::{mfbc_dist, MfbcConfig};
use mfbc_core::seq::{mfbc_seq, mfbf_seq, mfbr_seq};
use mfbc_core::sweep::{backward, forward, mfbf_keep_in_frontier, mfbr_fire};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_graph::prep::{randomize_weights, remove_isolated};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr, MaskKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested so far (a statistic: `Relaxed` suffices).
static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is the
// only addition and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
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
/// (122 supersteps): 6.4 with both sweeps' products consumed where
/// they land (the forward sweep's share 3.1), 10.1 when MFBF's were
/// still built as matrices and merged into `T` (its share 6.7), 19.0
/// when MFBr's were too, 138 with the tables rebuilt around every
/// product — the bound is the measurement × 1.5.
const MAX_REQUESTED_PER_TABLE_BYTE: f64 = 9.7;

/// The same ratio on a unit-weighted R-MAT graph, where every product
/// runs under a mask: the alarm for per-superstep copies of a mask's
/// pattern. Measured: 6.59 with `Z` opened by counting children in
/// place, 7.18 when the count was a product of a seeds matrix with
/// `Aᵀ` consumed where it landed (like both sweeps' loop products;
/// the forward sweep's share 3.3), 7.8 when MFBF's were matrices (its
/// share 3.9), 10.5 when MFBr's were too, 16.4 when every superstep
/// also copied the pattern into its mask and `Z` was opened in three
/// passes. The count is deterministic; the bound lies between the
/// first two, so a seeds matrix coming back fails it.
const MAX_MASKED_REQUESTED_PER_TABLE_BYTE: f64 = 6.9;

/// Requested bytes per byte of final table for `mfbc_dist` at `p = 1`
/// on the grid. One rank moves nothing, so what the simulated backend
/// adds to the sweep — placing operands and the machine's bookkeeping —
/// has to stay a fraction of the sweep itself. Measured: 5.45 with a
/// product's layouts shared and its per-rank and per-band lists kept
/// off the heap, 5.48 before, with
/// MFBr's count reading `T` in place (its seeds charged, not built),
/// 6.07 when it multiplied a seeds matrix built first, with
/// what MFBr fires kept as the frontier it becomes, 6.52 when it was
/// copied into a fresh matrix, with λ folded in place, 6.79 when the fold grew a vector per column, both
/// with each 1D product landing band by band and reading the
/// frontier's one block in place, 8.62 when it copied the frontier
/// first (a replica under `1d(A)`, a redistributed copy under
/// `1d(B)`), 22.3 when every
/// product was a matrix re-assembled to the canonical layout and
/// merged by `dmat_*` with MFBr's opening a count product, and 53 when
/// every product and operand went through a coordinate list and a
/// sort. The counts are deterministic; the bound lies between the
/// first two, so a seeds matrix coming back fails it.
const MAX_DIST_REQUESTED_PER_TABLE_BYTE: f64 = 5.9;

/// Allocation calls per superstep of `mfbc_dist` on the grid at
/// `p = 16`, where the canonical layout cuts the tables into 4 × 4
/// blocks: the alarm for work a simulated superstep repeats per rank.
/// Measured: 402.5 with a product's layouts shared, its world group
/// and cache key built once and its cell lists kept between products;
/// 409.9 before, with MFBr's count reading `T` in place where its
/// plan lands and a fan-out that runs inline building no statistics
/// vectors; 411.3 before that, with what MFBr fires kept as the frontier it
/// becomes; 428.9 when it was copied into a fresh matrix, with λ folded
/// in place and no mask view built for a landing product; 454.5 before, with each 1D product formed band by
/// band (one kernel call per block row, its cells billed to the
/// ranks); 1 114 when it was formed rank by rank (a kernel call per
/// rank and block row, each piece's windows stitched back into the
/// blocks, the frontier copied per product). The count is
/// deterministic: × 1.1.
const MAX_DIST_P16_CALLS_PER_SUPERSTEP: f64 = 443.0;

/// Requested bytes per byte of final table for `mfbc_dist` on the
/// masked R-MAT graph, at one and at four ranks: the alarm for a
/// superstep that copies a mask's pattern on the simulated backend —
/// a global mask assembled from the table's blocks, a window copied
/// per output block, a scan of the whole pattern to price the
/// product — or that materialises a 1D product again. Measured: 6.56
/// at p = 1 and 8.44 at p = 4 with a product's layouts shared and its
/// per-rank and per-band lists kept off the heap; 6.58 and 8.47 before,
/// with MFBr's count reading `T` in place where its plan lands; 7.17
/// and 9.22 when it multiplied a seeds
/// matrix built first, with what MFBr fires kept as the frontier it
/// becomes; 7.36 and 9.36 when it was copied, with λ folded in place, 7.56 and 9.55
/// with a vector per column, both with every mask a view of the blocks
/// where they lie and the 1D products landing band by band, reading
/// the frontier's blocks in place; 9.15 and 11.37 when each product
/// copied the frontier first; 12.69 and 14.33 when those products were
/// matrices merged after assembly; 14.60 and 16.25 when each superstep
/// also made the three mask copies. The usual × 1.3 would let them
/// back in: the counts are deterministic, and the bounds lie between
/// the first two, so a seeds matrix coming back fails them.
const MAX_MASKED_DIST_REQUESTED_PER_TABLE_BYTE: [(usize, f64); 2] = [(1, 7.0), (4, 9.0)];

/// Requested bytes per byte of final distance table for `sssp_seq`
/// from every vertex of the grid. Measured: 6.5 with its products
/// accumulated into the table where they land and no `Aᵀ` built, 14.4
/// when each product was a matrix folded into the table and the
/// backend transposed `A` up front, 83.6 when every superstep merged
/// them into a fresh copy of the whole table — the bound is the
/// measurement × 1.5.
const MAX_SSSP_REQUESTED_PER_TABLE_BYTE: f64 = 9.7;

/// Allocation calls any one backward superstep of `mfbr_seq` may make
/// on the grid. A superstep allocates its accumulator, its sinks and a
/// frontier reserved once at the size of the one it multiplies, which
/// becomes the next frontier as it stands, and stages what each row
/// fires in one vector that doubles up to the most a row fires: 14
/// calls in the busiest superstep measured, 9 in the last (17 and 10
/// when what fired was copied into a fresh matrix after the product).
/// So a superstep's calls follow the logarithm of its busiest row, not
/// what it fires; when every product was drained into a matrix,
/// re-assembled and merged from vectors grown entry by entry they
/// averaged 46.7 — measured maximum × 1.5.
const MAX_CALLS_PER_BACKWARD_SUPERSTEP: u64 = 21;

/// The same for opening `Z` (the table, the counting buffer, the
/// leaves' vectors doubling as they fill), on a backend that has
/// built `Aᵀ` already. Measured: 33 counting children in place, 37
/// when the count was a product of a seeds matrix; the count is
/// deterministic, and the bound lies between the two.
const MAX_CALLS_TO_OPEN_Z: u64 = 35;

/// Allocation calls any one forward superstep of `mfbf_seq` may make
/// on the grids, where nothing masks. A superstep allocates its
/// accumulator, the kept frontier's three vectors — room for one entry
/// per row, doubled up to what it keeps — and, rarely, a doubling of
/// `T`'s arena: 18 calls in the busiest superstep measured, 7 in the
/// last. When every product was drained into a matrix, re-assembled,
/// validated and merged into `T` it took 40 — measured maximum × 1.5.
const MAX_CALLS_PER_FORWARD_SUPERSTEP: u64 = 27;

/// The same on the masked R-MAT graph, where a superstep also grows the
/// mask row of each batch row that discovers a vertex (one vector per
/// row of `T`'s `SortedRows`, 64 here) and lists the new coordinates
/// for it: 106 calls in the busiest superstep measured, 110 when the
/// products were matrices — × 1.5.
const MAX_CALLS_PER_MASKED_FORWARD_SUPERSTEP: u64 = 159;

/// Allocation calls of every forward superstep of `mfbf_seq(g,
/// sources)`: `sweep::forward`'s loop on `be`, the machine `mfbf_seq`
/// runs on, with the counter read around each `explore`.
fn forward_calls(be: &mut Simulated, g: &Graph, sources: &[usize]) -> Vec<u64> {
    let (mut init, mut diag) = (
        Coo::new(sources.len(), g.n()),
        Coo::new(sources.len(), g.n()),
    );
    for (s, &src) in sources.iter().enumerate() {
        for (v, w) in g.neighbors(src) {
            init.push(s, v, Multpath::new(w, 1.0));
        }
        diag.push(s, src, Multpath::trivial());
    }
    let mut frontier = be.place(init.into_csr::<MultpathMonoid>());
    let diag = be.place(diag.into_csr::<MultpathMonoid>());
    let mut table = be.open::<MultpathMonoid>(&frontier, Some(&diag)).unwrap();
    let keep =
        |gv: &Multpath, _: Option<&Multpath>, tv: &Multpath| mfbf_keep_in_frontier(gv, Some(tv));
    let (mut steps, mut frontier_nnz) = (Vec::with_capacity(g.n()), 0);
    while frontier.nnz() > 0 {
        frontier_nnz += frontier.nnz() as u64;
        let before = CALLS.load(Ordering::Relaxed);
        let (kept, _) = be
            .explore::<BellmanFordKernel>(&mut table, &frontier, keep)
            .unwrap();
        steps.push(CALLS.load(Ordering::Relaxed) - before);
        frontier = kept;
    }
    let seq = mfbf_seq(g, sources);
    assert_eq!(
        (seq.iterations, seq.frontier_nnz),
        (steps.len(), frontier_nnz),
        "the loop above is not mfbf_seq's"
    );
    steps
}

/// Asserts, batch by batch of `nb` sources, that every single forward
/// superstep stays within `bound` allocation calls. The batches share
/// one machine, as in `mfbc_seq`, which prepares the adjacency's
/// replicated form for its first product: a sweep run beforehand keeps
/// that one-time preparation out of the counts.
fn assert_forward_calls_bounded(g: &Graph, nb: usize, bound: u64) {
    let sources: Vec<usize> = (0..g.n()).collect();
    let mut be = Simulated::sequential(g);
    forward(&mut be, g, &sources[..1]).unwrap();
    for chunk in sources.chunks(nb) {
        let steps = forward_calls(&mut be, g, chunk);
        assert!(
            steps.iter().all(|&c| c <= bound),
            "allocation calls per forward superstep of mfbf_seq: {steps:?}"
        );
    }
}

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

/// Allocation calls of one `mfbr_seq(g, t)` on `be`, taken apart: the
/// opening product, then every backward superstep. The loop is
/// `sweep::backward`'s, on the machine `mfbr_seq` runs on, with the
/// counter read between its steps.
fn backward_calls(be: &mut Simulated, g: &Graph, t: &Csr<Multpath>) -> (u64, Vec<u64>) {
    let seq = mfbr_seq(g, t);
    let t = &be.place(t);
    let reached = be.mask_of(MaskKind::Structural, t);
    let fire = |z: &mut Centpath, tv: &Multpath| {
        let fired = mfbr_fire(z, tv.m)?;
        z.c = -1;
        Some(fired)
    };
    let mut steps = Vec::with_capacity(t.ncols());
    let before = CALLS.load(Ordering::Relaxed);
    let (mut z, mut frontier, _) = be.anchor(t, fire).unwrap();
    let opening = CALLS.load(Ordering::Relaxed) - before;
    let mut frontier_nnz = 0;
    while frontier.nnz() > 0 {
        frontier_nnz += frontier.nnz() as u64;
        let before = CALLS.load(Ordering::Relaxed);
        let (fired, _) = be
            .settle::<BrandesKernel, _>(&mut z, &frontier, reached.as_ref(), t, fire)
            .unwrap();
        steps.push(CALLS.load(Ordering::Relaxed) - before);
        frontier = fired;
    }
    assert_eq!(
        (seq.iterations, seq.frontier_nnz),
        (steps.len(), frontier_nnz),
        "the loop above is not mfbr_seq's"
    );
    (opening, steps)
}

/// Asserts, batch by batch of `nb` sources, that opening `Z` and every
/// single backward superstep stay within their allocation-call bounds.
/// The batches share one machine, as in `mfbc_seq`, which prepares
/// `Aᵀ`'s replicated form in its first backward sweep: a sweep run
/// beforehand keeps that one-time preparation out of the counts.
fn assert_backward_calls_bounded(g: &Graph, nb: usize) {
    let sources: Vec<usize> = (0..g.n()).collect();
    let mut be = Simulated::sequential(g);
    let t = be.place(mfbf_seq(g, &sources[..1]).t);
    backward(&mut be, &t).unwrap();
    for chunk in sources.chunks(nb) {
        let (opening, steps) = backward_calls(&mut be, g, &mfbf_seq(g, chunk).t);
        assert!(
            opening <= MAX_CALLS_TO_OPEN_Z,
            "opening Z allocates {opening} times"
        );
        assert!(
            steps.iter().all(|&c| c <= MAX_CALLS_PER_BACKWARD_SUPERSTEP),
            "allocation calls per backward superstep of mfbr_seq: {steps:?}"
        );
    }
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
        // Superstep by superstep, here and on a grid whose supersteps
        // fire a third as much.
        assert_backward_calls_bounded(&g, nb);
        assert_backward_calls_bounded(&weighted_grid(10), 40);
        assert_forward_calls_bounded(&g, nb, MAX_CALLS_PER_FORWARD_SUPERSTEP);
        assert_forward_calls_bounded(&weighted_grid(10), 40, MAX_CALLS_PER_FORWARD_SUPERSTEP);
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
        assert_forward_calls_bounded(&rg, rnb, MAX_CALLS_PER_MASKED_FORWARD_SUPERSTEP);
        let (rtable_bytes, rsupersteps) = tables_of(&rg, rnb);
        let (rrequested, _) = requested_by_seq(&rg, rnb, rsupersteps);
        let rratio = rrequested as f64 / rtable_bytes as f64;
        assert!(
            rratio < MAX_MASKED_REQUESTED_PER_TABLE_BYTE,
            "{rrequested} bytes requested for {rtable_bytes} bytes of tables over \
             {rsupersteps} masked supersteps: {rratio:.1}x"
        );
        // The same masked sweep on simulated machines, every product
        // under a mask read off `T`'s or `Z`'s blocks.
        for (p, bound) in MAX_MASKED_DIST_REQUESTED_PER_TABLE_BYTE {
            let m = Machine::new(MachineSpec::gemini(p));
            let cfg = MfbcConfig::default().with_batch_size(rnb).with_threads(1);
            let before = REQUESTED.load(Ordering::Relaxed);
            let run = mfbc_dist(&m, &rg, &cfg).expect("fault-free");
            let requested = REQUESTED.load(Ordering::Relaxed) - before;
            let steps = run.forward_iterations + run.backward_iterations;
            assert_eq!(steps, rsupersteps, "p={p}");
            let ratio = requested as f64 / rtable_bytes as f64;
            assert!(
                ratio < bound,
                "mfbc_dist at p={p} requested {requested} bytes for {rtable_bytes} bytes of \
                 masked tables: {ratio:.2}x"
            );
        }

        // The same sweep on a one-rank simulated machine.
        let m = Machine::new(MachineSpec::gemini(1));
        let cfg = MfbcConfig::default().with_batch_size(nb).with_threads(1);
        let before = REQUESTED.load(Ordering::Relaxed);
        let run = mfbc_dist(&m, &g, &cfg).expect("fault-free");
        let dist_requested = REQUESTED.load(Ordering::Relaxed) - before;
        assert_eq!(run.forward_iterations + run.backward_iterations, supersteps);
        assert_eq!(run.scores.lambda, lambda);
        let dratio = dist_requested as f64 / table_bytes as f64;
        assert!(
            dratio < MAX_DIST_REQUESTED_PER_TABLE_BYTE,
            "mfbc_dist at p=1 requested {dist_requested} bytes for {table_bytes} bytes of \
             tables: {dratio:.1}x ({requested} by mfbc_seq)"
        );

        // The same sweep on sixteen simulated ranks, superstep by
        // superstep.
        let m = Machine::new(MachineSpec::gemini(16));
        let before = CALLS.load(Ordering::Relaxed);
        let run = mfbc_dist(&m, &g, &cfg).expect("fault-free");
        let calls = CALLS.load(Ordering::Relaxed) - before;
        let steps = run.forward_iterations + run.backward_iterations;
        assert_eq!(steps, supersteps);
        let per_step = calls as f64 / steps as f64;
        assert!(
            per_step < MAX_DIST_P16_CALLS_PER_SUPERSTEP,
            "mfbc_dist at p=16 made {calls} allocation calls over {steps} supersteps: \
             {per_step:.1} per superstep"
        );

        // SSSP from every vertex of the grid: the same loop, its
        // supersteps priced by their frontiers.
        let sources: Vec<usize> = (0..g.n()).collect();
        let before = REQUESTED.load(Ordering::Relaxed);
        let dist = sssp_seq(&g, &sources);
        let sssp_requested = REQUESTED.load(Ordering::Relaxed) - before;
        let dist_bytes = dist.payload_bytes() as u64;
        let sratio = sssp_requested as f64 / dist_bytes as f64;
        assert!(
            sratio < MAX_SSSP_REQUESTED_PER_TABLE_BYTE,
            "sssp_seq requested {sssp_requested} bytes for {dist_bytes} bytes of distances: \
             {sratio:.1}x"
        );
    });
}
