//! Algorithms 1–3, once, on the simulated machine at any processor
//! count ([`Simulated`]; the sequential entry points run them on one
//! rank).
//!
//! * [`forward`] — MFBF (Algorithm 1): for a batch of sources `®s`,
//!   the multpath table `T(s,v) = (τ(®s(s),v), σ̄(®s(s),v))` —
//!   shortest-path distances *and* multiplicities — by relaxing every
//!   edge adjacent to an entry whose path information changed in the
//!   previous iteration (the *maximal frontier*). Its superstep
//!   driver, [`sweep`], takes any kernel: [`crate::bfs`] runs it with
//!   the tropical kernel and [`crate::cc`] with min-label propagation,
//!   both under the [`improved`] frontier rule;
//! * [`backward`] — MFBr (Algorithm 2): back-propagates the partial
//!   centrality *factors* `ζ(s,v) = δ(s,v)/σ̄(s,v)` from the leaves of
//!   each shortest-path tree toward its root. Every entry counts the
//!   shortest-path children that have not yet reported and joins the
//!   frontier exactly when the count hits zero, then is pinned to −1
//!   so it fires once (the paper's optimal-progress property);
//! * [`fold`] — `λ(v) += Σ_s ζ(s,v)·σ̄(s,v)` (Algorithm 3, line 5);
//! * [`batch`] — the three in sequence: Algorithm 3's loop body.
//!
//! Sparse-representation note: the paper initializes `T(s,v) =
//! (A(®s(s),v), 1)` including `(∞, 1)` entries for non-edges so they
//! are "considered in the main loop". Under our sparse-zero
//! convention `(∞, ·)` entries are never stored — the Bellman–Ford
//! kernel annihilates them — which realizes the same semantics
//! without materializing `n·n_b` placeholder entries. The diagonal
//! is seeded as the ground truth `T(s, ®s(s)) = (0, 1)` — present in
//! the table but *not* in the initial frontier (seeding it in the
//! frontier would double-count the pre-seeded one-edge paths). With
//! the paper's literal `(A(s,s), 1) = (∞, 1)` diagonal, a
//! finite-weight cycle back to the source would overwrite `τ(s,s)`
//! with the cycle length and let MFBr back-propagate spurious factors
//! onto cycle vertices (see `seq::mfbf`'s `cycle_back_to_source`).
//!
//! Masks: where the run masks (unit-weighted graphs), forward
//! expansion runs under the complement of `T`'s pattern, the
//! child-count product under `T`'s pattern itself and every
//! back-propagation under the *pending* set — the entries of `Z` whose
//! counter is still positive, which only shrinks. None of the three
//! can change a result (see [`forward`] and [`backward`] for why);
//! they change which
//! elementary products are formed, so `ops` counts the products
//! towards entries that can still use them and Theorem 5.1's `ops` is
//! its upper bound. Only the forward mask needs unit weights.

use crate::backend::Simulated;
use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel, KernelOut};
use mfbc_algebra::monoid::SumF64;
use mfbc_algebra::{Centpath, Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_graph::Graph;
use mfbc_machine::MachineError;
use mfbc_sparse::{Coo, MaskKind};
use mfbc_tensor::DistMat;

/// The dependency-counter anchor of Algorithm 2, defined beside the
/// opening count that applies it on the simulated backend.
pub use mfbc_sparse::spgemm::mfbr_anchor;

/// The frontier-update rule of Algorithm 1, line 6, applied per
/// explored entry: the freshly-explored multpath `g` stays in the
/// next frontier iff it carries paths and its weight survived the
/// accumulation `T := T ⊕ G` (i.e. matches the updated table entry
/// `t_new`).
#[inline]
pub fn mfbf_keep_in_frontier(g: &Multpath, t_new: Option<&Multpath>) -> Option<Multpath> {
    match t_new {
        Some(t) if g.is_path() && g.w == t.w => Some(*g),
        _ => None,
    }
}

/// The frontier-emission rule of Algorithm 2, lines 3/9–10: a vertex
/// whose counter reached zero fires once, carrying
/// `p = ζ(s,v) + 1/σ̄(s,v)`; its table entry is pinned to `c = −1`.
#[inline]
pub fn mfbr_fire(z: &Centpath, sigma: f64) -> Option<Centpath> {
    if z.c == 0 {
        Some(Centpath::new(z.w, z.p + 1.0 / sigma, -1))
    } else {
        None
    }
}

/// [`mfbr_fire`] as the hook of [`Simulated::anchor`] and
/// [`Simulated::settle`]: a vertex whose counter reached zero fires and
/// is pinned. Every zero is pinned by the step that produced it, so
/// only an entry just written can fire.
fn fire_and_pin(z: &mut Centpath, t: &Multpath) -> Option<Centpath> {
    let fired = mfbr_fire(z, t.m)?;
    z.c = -1;
    Some(fired)
}

/// What one sweep did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Supersteps (for [`forward`], ≤ the shortest-path hop bound `d`;
    /// on weighted graphs each weight correction adds rounds —
    /// §5.3.1).
    pub iterations: usize,
    /// `Σᵢ nnz(Fᵢ)` — the frontier-volume term of Theorem 5.1.
    pub frontier_nnz: u64,
    /// Elementary products formed (`ops`).
    pub ops: u64,
}

/// Algorithm 1: the multpath table of `sources`, left charged.
///
/// # Panics
/// Panics if a source is out of range.
pub fn forward(
    be: &mut Simulated,
    g: &Graph,
    sources: &[usize],
) -> Result<(DistMat<Multpath>, SweepStats), MachineError> {
    let n = g.n();
    // Lines 1–2: T(s,v) := (A(®s(s),v), 1). The one-edge paths are
    // the initial frontier; the table also gets the (0, 1) diagonal
    // (see the module docs).
    let mut init = Coo::new(sources.len(), n);
    let mut diag = Coo::new(sources.len(), n);
    for (s, &src) in sources.iter().enumerate() {
        assert!(src < n, "source {src} out of range");
        for (v, w) in g.neighbors(src) {
            init.push(s, v, Multpath::new(w, 1.0));
        }
        diag.push(s, src, Multpath::trivial());
    }
    let frontier = be.place(init.into_csr::<MultpathMonoid>());
    let diag = be.place(diag.into_csr::<MultpathMonoid>());
    // Lines 4–6: the next frontier keeps explored entries whose weight
    // survived. Where the table masks, a product goes to the pairs not
    // yet discovered only: on unit-weighted graphs a rediscovery
    // always loses the distance combine *and* the frontier filter, so
    // pruning it at the multiply changes nothing downstream — it just
    // skips the products (and lets redistribution skip B columns the
    // mask rules out).
    let keep =
        |gv: &Multpath, _: Option<&Multpath>, tv: &Multpath| mfbf_keep_in_frontier(gv, Some(tv));
    sweep::<BellmanFordKernel>(be, "forward", frontier, Some(&diag), keep)
}

/// The frontier rule of a min-monoid sweep — §2.3's BFS/SSSP, label
/// propagation: an explored value `g` goes on iff it improved the
/// table entry, i.e. won the fold (`after == g`) and was not there
/// already (`before != g`), which `after` alone cannot tell from a
/// tie.
pub fn improved<T: PartialEq + Clone>(g: &T, before: Option<&T>, after: &T) -> Option<T> {
    (after == g && before != Some(g)).then(|| g.clone())
}

/// The superstep loop every frontier algorithm runs (Algorithm 1,
/// lines 3–6, for any kernel): opens the table on `frontier` (and
/// `diag`, see [`Simulated::open`]); then, while the frontier holds an
/// entry, explores it — one product into the table — and moves on to
/// the explored entries `keep(explored, before, after)` lets through.
/// Returns the table, frozen and left charged.
///
/// Who masks is the run's and the table's business: a table opened
/// with tracking sends each product to the pairs it does not hold yet.
#[allow(clippy::type_complexity)]
pub fn sweep<K>(
    be: &mut Simulated,
    phase: &'static str,
    mut frontier: DistMat<KernelOut<K>>,
    diag: Option<&DistMat<KernelOut<K>>>,
    keep: impl Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>> + Sync,
) -> Result<(DistMat<KernelOut<K>>, SweepStats), MachineError>
where
    K: SpMulKernel<Left = KernelOut<K>, Right = Dist>,
{
    // From here the table is updated in place: a superstep costs what
    // its frontier and products cost, never a pass over the table.
    let mut table = be.open::<K::Acc>(&frontier, diag)?;
    let mut st = SweepStats::default();
    let _span = be.span(phase);
    loop {
        let nnz = be.nnz_sync(phase, st.iterations, &frontier)?;
        if nnz == 0 {
            return Ok((be.freeze(table), st));
        }
        st.iterations += 1;
        st.frontier_nnz += nnz as u64;
        let (kept, ops) = be.explore::<K>(&mut table, &frontier, &keep)?;
        st.ops += ops;
        frontier = kept;
    }
}

/// Algorithm 2: `Z = MFBr(A, T)` with `Z(s,v).p = ζ(s,v)` on `T`'s
/// pattern, left charged.
pub fn backward(
    be: &mut Simulated,
    t: &DistMat<Multpath>,
) -> Result<(DistMat<Centpath>, SweepStats), MachineError> {
    let mut st = SweepStats::default();
    // Lines 1–4: open Z, every entry anchored at (τ, 0, #children) —
    // the children each vertex has on a shortest path from the source;
    // the leaves (counter 0) form the first frontier and are pinned,
    // every other entry is pending (see `Simulated::anchor`).
    let (mut z, mut frontier, ops) = be.anchor(t, fire_and_pin)?;
    st.ops += ops;
    // T's pattern: what a run that masks prices the loop's products
    // under, and runs them under where Z reports no mask.
    let reached = be.mask_of(MaskKind::Structural, t);
    let reached = reached.as_ref();
    let _span = be.span("backward");
    // Lines 5–12.
    loop {
        let nnz = be.nnz_sync("backward", st.iterations, &frontier)?;
        if nnz == 0 {
            return Ok((be.freeze(z), st));
        }
        st.iterations += 1;
        st.frontier_nnz += nnz as u64;
        // Lines 6–11, one product into Z: back-propagate the frontier
        // of centralities, accumulate them and decrement counters
        // (frontier entries carry c = −1 each) where they land; what
        // fires leaves the pending set. Where Z masks, the product goes
        // to the pending entries only. An entry is pinned once its last
        // shortest-path child has reported, so whatever a later firing
        // (s,v) sends a pinned (s,u) travels a non-shortest edge: its
        // weight is below τ(s,u) and `⊗` ("greater wins") would
        // discard it. Skipping those products changes `ops` and
        // nothing else, for any edge weights. The product is still
        // priced under T's pattern, which holds for the whole sweep.
        let (fired, ops) =
            be.settle::<BrandesKernel, _>(&mut z, &frontier, reached, t, fire_and_pin)?;
        st.ops += ops;
        frontier = fired;
    }
}

/// Algorithm 3, line 5: `acc[v] += Z(s,v).p · T(s,v).m`, skipping the
/// diagonal (`δ(s,s)` is excluded by the definition of `σ(s,t,v)`).
///
/// Contributions fold in ascending global source order: the
/// accumulation each `acc[v]` sees is independent of the batch size,
/// so re-cutting the batches (an OOM retreat, a post-crash replan)
/// cannot change a bit here; only products whose own sums regroup can.
pub fn fold(
    be: &Simulated,
    z: &DistMat<Centpath>,
    t: &DistMat<Multpath>,
    sources: &[usize],
    acc: &mut [f64],
) -> Result<(), MachineError> {
    let products = be.zip_filter::<SumF64, _, _>(z, t, |s, v, zv, tv| {
        (v != sources[s]).then(|| zv.p * tv.expect("Z pattern ⊆ T pattern").m)
    });
    be.fold_columns(&products, acc)
}

/// One batch of Algorithm 3: both sweeps from `sources`, folded into
/// `acc`; returns the forward and backward statistics.
pub fn batch(
    be: &mut Simulated,
    g: &Graph,
    sources: &[usize],
    acc: &mut [f64],
) -> Result<(SweepStats, SweepStats), MachineError> {
    let (t, fwd) = forward(be, g, sources)?;
    let (z, back) = backward(be, &t)?;
    fold(be, &z, &t, sources, acc)?;
    be.release(&z);
    be.release(&t);
    Ok((fwd, back))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::CentpathMonoid;
    use mfbc_graph::gen::{rmat, uniform, RmatConfig};
    use mfbc_graph::prep::randomize_weights;
    use mfbc_machine::{Machine, MachineSpec};
    use mfbc_sparse::{Csr, Idx, Mask};
    use mfbc_tensor::DistTable;

    /// [`backward`]'s loop under `reached`, with `each` shown `Z`
    /// ahead of every loop product and once more at the end.
    fn backward_watching(
        be: &mut Simulated,
        t: &DistMat<Multpath>,
        reached: Option<&Mask>,
        mut each: impl FnMut(&DistTable<Centpath>),
    ) -> Result<(DistMat<Centpath>, SweepStats), MachineError> {
        let mut st = SweepStats::default();
        let (mut z, mut frontier, ops) = be.anchor(t, fire_and_pin)?;
        st.ops += ops;
        loop {
            let nnz = be.nnz_sync("backward", st.iterations, &frontier)?;
            each(&z);
            if nnz == 0 {
                return Ok((be.freeze(z), st));
            }
            st.iterations += 1;
            st.frontier_nnz += nnz as u64;
            let (fired, ops) =
                be.settle::<BrandesKernel, _>(&mut z, &frontier, reached, t, fire_and_pin)?;
            st.ops += ops;
            frontier = fired;
        }
    }

    /// A `side × side` grid with seeded weights 1..=4.
    fn weighted_grid(side: usize, seed: u64) -> Graph {
        let at = |r: usize, c: usize| r * side + c;
        let across = (0..side).flat_map(|r| (1..side).map(move |c| (at(r, c - 1), at(r, c))));
        let down = (1..side).flat_map(|r| (0..side).map(move |c| (at(r - 1, c), at(r, c))));
        let edges: Vec<(usize, usize)> = across.chain(down).collect();
        randomize_weights(&Graph::unweighted(side * side, false, edges), 4, seed)
    }

    #[test]
    fn pending_mask_is_inert() {
        let graphs = [
            rmat(&RmatConfig::paper(7, 4, 5)),
            rmat(&RmatConfig::paper(6, 8, 9)),
            uniform(60, 200, false, None, 3),
            uniform(50, 120, true, None, 4),
            weighted_grid(7, 1),
            weighted_grid(6, 2),
        ];
        for (k, g) in graphs.iter().enumerate() {
            let sources: Vec<usize> = (0..g.n()).step_by(2).collect();
            // T under the sequential run's own forward policy; the
            // backward masks are then forced off and on, weighted or
            // not.
            let (t, _) = forward(&mut Simulated::sequential(g), g, &sources).unwrap();
            let (mut off, mut on) = (Simulated::one_rank(g, false), Simulated::one_rank(g, true));
            let (z_none, none) = backward(&mut off, &t).unwrap();
            // `T`'s pattern for the loop, as before the pending set
            // existed: `Z` opened untracked (its count unmasked), every
            // loop product under `reached`.
            let reached = t.pattern_mask(MaskKind::Structural);
            let (z_table, table) = backward_watching(&mut off, &t, Some(&reached), |z| {
                assert!(z.mask().is_none(), "graph {k}: an untracked Z");
            })
            .unwrap();
            let (z_pending, pending) = backward(&mut on, &t).unwrap();
            let [z_none, z_table, z_pending] =
                [z_none, z_table, z_pending].map(DistMat::into_block);
            assert_eq!(z_none.first_difference(&z_table), None, "graph {k}: T mask");
            assert_eq!(
                z_none.first_difference(&z_pending),
                None,
                "graph {k}: pending"
            );
            assert!(
                none.ops >= table.ops && table.ops > pending.ops,
                "graph {k}: ops {} / {} / {} must fall",
                none.ops,
                table.ops,
                pending.ops
            );
            let steps = |st: &SweepStats| (st.iterations, st.frontier_nnz);
            assert_eq!(steps(&none), steps(&pending), "graph {k}: supersteps");
            // The harness above, on a run that masks, is `backward`.
            let (z_again, again) = backward_watching(&mut on, &t, Some(&reached), |_| ()).unwrap();
            let z_again = z_again.into_block();
            assert_eq!(z_again.first_difference(&z_pending), None, "graph {k}");
            assert_eq!(again, pending, "graph {k}");
        }
    }

    /// Asserts `mask` lists exactly the coordinates of `z` whose
    /// counter is still positive; returns how many there are.
    fn assert_pending_is_positive_counters(mask: &Mask, z: &Csr<Centpath>, what: &str) -> usize {
        for i in 0..z.nrows() {
            let waits = z.row(i).filter(|(_, zv)| zv.c > 0);
            let waits: Vec<Idx> = waits.map(|(j, _)| j as Idx).collect();
            assert!(mask.row(i).cols().eq(waits), "{what}: row {i}");
        }
        mask.pattern_nnz()
    }

    #[test]
    fn pending_rows_are_the_positive_counters_after_every_superstep() {
        for (k, g) in [
            rmat(&RmatConfig::paper(7, 4, 5)),
            uniform(60, 200, false, None, 3),
        ]
        .iter()
        .enumerate()
        {
            let sources: Vec<usize> = (0..g.n()).step_by(3).collect();
            let mut be = Simulated::sequential(g);
            let (t, _) = forward(&mut be, g, &sources).unwrap();
            let mut sizes = Vec::new();
            let reached = be.mask_of(MaskKind::Structural, &t);
            let (z, st) = backward_watching(&mut be, &t, reached.as_ref(), |z| {
                let mask = z.mask().expect("unit weights mask");
                let z = z.clone().freeze().into_block();
                sizes.push(assert_pending_is_positive_counters(&mask, &z, "sequential"));
            })
            .unwrap();
            let z = z.into_block();
            // Checked before every product and once more at the end,
            // shrinking from "not a leaf" to nothing (the sources fire
            // last, into a product nothing is pending for).
            assert_eq!(sizes.len(), st.iterations + 1, "graph {k}");
            let shrinks = |w: &[usize]| w[0] > w[1] || w[0] == 0;
            assert!(sizes.windows(2).all(shrinks), "graph {k}: {sizes:?}");
            assert_eq!(sizes.last(), Some(&0), "graph {k}: every entry fires");

            for p in [1usize, 4] {
                let m = Machine::new(MachineSpec::test(p));
                let mut sim = Simulated::new(&m, g, None, true, true).unwrap();
                let (dt, _) = forward(&mut sim, g, &sources).unwrap();
                let mut checks = 0;
                let reached = sim.mask_of(MaskKind::Structural, &dt);
                let (dz, dst) = backward_watching(&mut sim, &dt, reached.as_ref(), |z| {
                    let mask = z.mask().expect("masked");
                    let z = z.clone().freeze().to_global::<CentpathMonoid>();
                    assert_pending_is_positive_counters(&mask, &z, "simulated");
                    checks += 1;
                })
                .unwrap();
                sim.close();
                assert_eq!(checks, st.iterations + 1, "graph {k} p={p}");
                assert_eq!(dst, st, "graph {k} p={p}: counters");
                // One rank forms the sums in the sequential order;
                // several regroup them.
                if p == 1 {
                    let dz = dz.to_global::<CentpathMonoid>();
                    assert_eq!(dz.first_difference(&z), None, "graph {k}: Z");
                }
            }
        }
    }
}
