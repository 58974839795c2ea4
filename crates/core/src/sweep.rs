//! Algorithms 1–3, once, generic over where they run.
//!
//! * [`forward`] — MFBF (Algorithm 1): for a batch of sources `®s`,
//!   the multpath table `T(s,v) = (τ(®s(s),v), σ̄(®s(s),v))` —
//!   shortest-path distances *and* multiplicities — by relaxing every
//!   edge adjacent to an entry whose path information changed in the
//!   previous iteration (the *maximal frontier*);
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
//! Masks: where the backend allows them (unit-weighted graphs),
//! forward expansion runs under the complement of `T`'s pattern and
//! every backward product under `T`'s pattern itself — see the two
//! loops for why neither can change a result.

use crate::backend::{Adj, Backend};
use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel};
use mfbc_algebra::monoid::SumF64;
use mfbc_algebra::{Centpath, CentpathMonoid, Multpath, MultpathMonoid};
use mfbc_graph::Graph;
use mfbc_sparse::{Coo, MaskKind};

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

/// The dependency-counter anchor of Algorithm 2: given the
/// child-count accumulation `d` for a vertex whose shortest-path
/// weight is `tau_w`, the initial centpath is `(τ, 0, #children)` —
/// contributions of other weights are discarded (they come from
/// non-shortest-path edges).
#[inline]
pub fn mfbr_anchor(tau: &Multpath, d: Option<&Centpath>) -> Centpath {
    let deps = match d {
        Some(c) if c.w == tau.w => c.c,
        _ => 0,
    };
    Centpath::new(tau.w, 0.0, deps)
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
pub fn forward<B: Backend>(
    be: &mut B,
    g: &Graph,
    sources: &[usize],
) -> Result<(B::Mat<Multpath>, SweepStats), B::Error> {
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
    let mut frontier = be.place(init.into_csr::<MultpathMonoid>());
    let diag = be.place(diag.into_csr::<MultpathMonoid>());
    let seeded = be.combine::<MultpathMonoid>(&frontier, &diag);
    be.charge(&seeded)?;
    // From here T is updated in place: a superstep costs what its
    // frontier and products cost, never a pass over the table.
    let mut t = be.table(seeded);

    let mut st = SweepStats::default();
    let _span = be.span("forward");
    // Line 3: loop while the frontier carries any path.
    loop {
        let nnz = be.nnz_sync("forward", st.iterations, &frontier)?;
        if nnz == 0 {
            return Ok((be.freeze(t), st));
        }
        st.iterations += 1;
        st.frontier_nnz += nnz as u64;
        // Line 4: explore nodes adjacent to the frontier. T holds
        // every (source, vertex) pair already discovered; on
        // unit-weighted graphs a rediscovery always loses the distance
        // combine *and* the frontier filter, so pruning it at the
        // multiply changes nothing downstream — it just skips the
        // products (and lets redistribution skip B columns the mask
        // rules out).
        let mask = be.table_mask(&t);
        let (explored, ops) = be.mm::<BellmanFordKernel>(&frontier, Adj::A, mask.as_ref())?;
        st.ops += ops;
        // Lines 5–6: accumulate multiplicities; the next frontier
        // keeps explored entries whose weight survived.
        frontier = be.accumulate::<MultpathMonoid>(&mut t, &explored, |gv, tv| {
            mfbf_keep_in_frontier(gv, Some(tv))
        })?;
    }
}

/// Algorithm 2: `Z = MFBr(A, T)` with `Z(s,v).p = ζ(s,v)` on `T`'s
/// pattern, left charged.
pub fn backward<B: Backend>(
    be: &mut B,
    t: &B::Mat<Multpath>,
) -> Result<(B::Mat<Centpath>, SweepStats), B::Error> {
    // Every backward product is consumed anchored on T's pattern:
    // `counted` through a zip keyed on T, the loop updates through
    // `settle` (Z's pattern ⊆ T's, fixed). Contributions at
    // (source, vertex) pairs outside T — possible when an edge leads
    // to a vertex no source reaches — are inert by the paper's
    // `(∞,0,0)` semantics and the anchors drop them, so a structural
    // mask of T skips those products (and lets redistribution drop Aᵀ
    // columns of vertices no source discovered).
    let mask = be.mask_of(MaskKind::Structural, t);
    let mut st = SweepStats::default();
    // Lines 1–2: count each vertex's shortest-path children by one
    // generalized product of per-entry (τ, 0, 1) seeds with Aᵀ.
    let seeds = be.map_filter::<CentpathMonoid, _>(t, |_, _, mp: &Multpath| {
        Some(Centpath::new(mp.w, 0.0, 1))
    });
    let (counted, ops) = be.mm::<BrandesKernel>(&seeds, Adj::At, mask.as_ref())?;
    st.ops += ops;
    let mut z =
        be.zip_filter::<CentpathMonoid, _, _>(t, &counted, |_, _, mp, d| Some(mfbr_anchor(mp, d)));
    be.charge(&z)?;

    // Lines 3–4: leaves (counter 0) form the first frontier and are
    // pinned — the one pass over all of Z.
    let mut frontier = be.zip_filter::<CentpathMonoid, _, _>(&z, t, |_, _, zv, tv| {
        mfbr_fire(zv, tv.expect("Z pattern ⊆ T pattern").m)
    });
    z = be.map_filter::<CentpathMonoid, _>(&z, |_, _, zv| {
        Some(Centpath::new(zv.w, zv.p, if zv.c == 0 { -1 } else { zv.c }))
    });
    let _span = be.span("backward");
    // Lines 5–12.
    loop {
        let nnz = be.nnz_sync("backward", st.iterations, &frontier)?;
        if nnz == 0 {
            return Ok((z, st));
        }
        st.iterations += 1;
        st.frontier_nnz += nnz as u64;
        // Line 6: back-propagate the frontier of centralities.
        let (back, ops) = be.mm::<BrandesKernel>(&frontier, Adj::At, mask.as_ref())?;
        st.ops += ops;
        // Lines 8–11: accumulate centralities and decrement counters
        // (frontier entries carry c = −1 each) in place; a vertex
        // whose counter reached zero fires and is pinned. Every zero
        // was pinned by the step that produced it, so only an entry
        // just decremented can fire.
        frontier = be.settle::<CentpathMonoid, _>(&mut z, &back, t, |zv, tv| {
            let fired = mfbr_fire(zv, tv.m)?;
            zv.c = -1;
            Some(fired)
        });
    }
}

/// Algorithm 3, line 5: `acc[v] += Z(s,v).p · T(s,v).m`, skipping the
/// diagonal (`δ(s,s)` is excluded by the definition of `σ(s,t,v)`).
///
/// Contributions fold in ascending global source order: the
/// accumulation each `acc[v]` sees is independent of the batch size,
/// so an OOM retreat or a post-crash replan reproduces the fault-free
/// scores bit for bit.
pub fn fold<B: Backend>(
    be: &B,
    z: &B::Mat<Centpath>,
    t: &B::Mat<Multpath>,
    sources: &[usize],
    acc: &mut [f64],
) -> Result<(), B::Error> {
    let products = be.zip_filter::<SumF64, _, _>(z, t, |s, v, zv, tv| {
        (v != sources[s]).then(|| zv.p * tv.expect("Z pattern ⊆ T pattern").m)
    });
    be.fold_columns(&products, acc)
}

/// One batch of Algorithm 3: both sweeps from `sources`, folded into
/// `acc`; returns the forward and backward statistics.
pub fn batch<B: Backend>(
    be: &mut B,
    g: &Graph,
    sources: &[usize],
    acc: &mut [f64],
) -> Result<(SweepStats, SweepStats), B::Error> {
    let (t, fwd) = forward(be, g, sources)?;
    let (z, back) = backward(be, &t)?;
    fold(be, &z, &t, sources, acc)?;
    be.release(&z);
    be.release(&t);
    Ok((fwd, back))
}
