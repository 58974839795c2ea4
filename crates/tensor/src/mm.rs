//! Distributed generalized sparse matrix multiplication: plans and
//! the execution entry point.
//!
//! The algorithm space matches §5.2 of the paper:
//!
//! * three **1D** variants (`A`, `B`, `C`) that replicate one matrix
//!   and block the others;
//! * three **2D** variants (`AB`, `AC`, `BC`), SUMMA-style grids
//!   where the named matrices move (broadcasts for operands, sparse
//!   reductions for the output);
//! * nine **3D** variants obtained by nesting a 1D variant over `p1`
//!   layers with a 2D variant on each layer's `p2 × p3` grid.
//!
//! A [`MmPlan`] pins the variant and grid; [`mm_land`], the one
//! executor, redistributes the operands into the layouts the variant
//! needs (charged as all-to-alls, like CTF's redistribution kernels),
//! runs the communication schedule with *real data movement* through
//! the machine's collectives, and hands the product to a [`Land`]: a
//! `1d(A)` or `1d(B)` schedule band by band, which the landing consumes
//! in the canonical blocks it covers, any other plan whole, in the
//! canonical world layout. [`mm_exec`] is `mm_land` into a landing that
//! keeps the product as a matrix, on a one-shot cache.
//!
//! Deviation noted for reviewers: results are re-assembled into the
//! canonical blocked layout without charging that final reshuffle.
//! Every consumer charges its own redistribution *from* the canonical
//! layout, which is the same Θ(nnz/p)-per-rank all-to-all it would
//! pay from the variant's native output layout, so total charged
//! volume is preserved; see DESIGN.md. A product that lands band by
//! band is not assembled at all.

use crate::cache::MmCache;
use crate::dist::{DistMat, Layout};
use crate::grid::{Grid2, Grid3};
use crate::land::{Collect, Land};
use crate::mm1d::Piece;
use crate::{mm1d, mm2d, mm3d};
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::slice::{stitch, Slab};
use mfbc_sparse::{Few, Mask};
use std::borrow::Cow;

/// The 1D algorithm variants of §5.2.1, named by the matrix they
/// replicate (`A`, `B`) or reduce (`C`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant1D {
    /// Replicate the left operand; processors own columns of B and C.
    A,
    /// Replicate the right operand; processors own rows of A and C.
    B,
    /// Split the contraction dimension; reduce C.
    C,
}

/// The 2D algorithm variants of §5.2.2, named by the pair of matrices
/// that move: `AB` broadcasts both operands (stationary C), `AC`
/// broadcasts A and reduces C (stationary B), `BC` broadcasts B and
/// reduces C (stationary A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant2D {
    /// Stationary C: broadcast A and B.
    AB,
    /// Stationary B: broadcast A, reduce C.
    AC,
    /// Stationary A: broadcast B, reduce C.
    BC,
}

/// A fully specified execution plan: variant plus processor grid
/// `(p1, p2, p3)` with `p1·p2·p3 == p`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MmPlan {
    /// Pure 1D over all `p` ranks.
    OneD(Variant1D),
    /// Pure 2D on a `p2 × p3` grid (`p2·p3 == p`).
    TwoD {
        /// The 2D variant.
        variant: Variant2D,
        /// Grid rows.
        p2: usize,
        /// Grid columns.
        p3: usize,
    },
    /// Cannon's algorithm on a square `q × q` grid: point-to-point
    /// shifts of both operands (§5.2.2), `O(α·√p)` latency.
    Cannon {
        /// Grid side (`q² == p`).
        q: usize,
    },
    /// 3D: 1D variant `split` over `p1` layers, 2D variant `inner` on
    /// each `p2 × p3` layer.
    ThreeD {
        /// Which matrix the 1D dimension handles.
        split: Variant1D,
        /// The per-layer 2D variant.
        inner: Variant2D,
        /// Layers.
        p1: usize,
        /// Layer-grid rows.
        p2: usize,
        /// Layer-grid columns.
        p3: usize,
    },
}

impl std::fmt::Display for Variant1D {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant1D::A => write!(f, "A"),
            Variant1D::B => write!(f, "B"),
            Variant1D::C => write!(f, "C"),
        }
    }
}

impl std::fmt::Display for Variant2D {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant2D::AB => write!(f, "AB"),
            Variant2D::AC => write!(f, "AC"),
            Variant2D::BC => write!(f, "BC"),
        }
    }
}

impl std::fmt::Display for MmPlan {
    /// Compact plan label used in traces and autotuner tables, e.g.
    /// `1d(A)`, `2d(AB,4x4)`, `cannon(q=4)`, `3d(C/AB,2x2x2)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MmPlan::OneD(v) => write!(f, "1d({v})"),
            MmPlan::TwoD { variant, p2, p3 } => write!(f, "2d({variant},{p2}x{p3})"),
            MmPlan::Cannon { q } => write!(f, "cannon(q={q})"),
            MmPlan::ThreeD {
                split,
                inner,
                p1,
                p2,
                p3,
            } => write!(f, "3d({split}/{inner},{p1}x{p2}x{p3})"),
        }
    }
}

impl MmPlan {
    /// The plan's variant *family* — the label without grid dims
    /// (`1d(A)`, `2d(AC)`, `cannon`, `3d(C/AB)`). The sixteen
    /// families `1D×3 + 2D×3 + 3D×9 + cannon` partition the
    /// enumerable plan space; the conformance harness buckets its
    /// coverage counters by family and the fault-injection hook
    /// matches on family prefixes.
    pub fn family(&self) -> String {
        match *self {
            MmPlan::OneD(v) => format!("1d({v})"),
            MmPlan::TwoD { variant, .. } => format!("2d({variant})"),
            MmPlan::Cannon { .. } => "cannon".to_string(),
            MmPlan::ThreeD { split, inner, .. } => format!("3d({split}/{inner})"),
        }
    }

    /// Whether the plan's output lands where it is consumed, band by
    /// band ([`mm_land`]): `1d(A)` and `1d(B)` form every piece whole
    /// on one rank; every other plan reduces or assembles its output
    /// first, and hands it over whole.
    pub fn lands(&self) -> bool {
        matches!(self, MmPlan::OneD(Variant1D::A | Variant1D::B))
    }

    /// The `(p1, p2, p3)` grid of this plan given `p` total ranks.
    pub fn dims(&self, p: usize) -> (usize, usize, usize) {
        match *self {
            MmPlan::OneD(_) => (p, 1, 1),
            MmPlan::TwoD { p2, p3, .. } => (1, p2, p3),
            MmPlan::Cannon { q } => (1, q, q),
            MmPlan::ThreeD { p1, p2, p3, .. } => (p1, p2, p3),
        }
    }

    /// Validates the plan against a machine size. Plans come from
    /// user configuration (`--plan`, replication factors), so a
    /// mismatch is a typed [`MachineError::InvalidConfig`].
    pub fn check(&self, p: usize) -> Result<(), MachineError> {
        let (a, b, c) = self.dims(p);
        if a * b * c != p {
            return Err(MachineError::invalid(format!(
                "plan {self} needs a {a}x{b}x{c} = {} rank grid, but the machine has p = {p}",
                a * b * c
            )));
        }
        Ok(())
    }
}

/// The three 1D variants, in enumeration order.
pub const VARIANTS_1D: [Variant1D; 3] = [Variant1D::A, Variant1D::B, Variant1D::C];

/// The three 2D variants, in enumeration order.
pub const VARIANTS_2D: [Variant2D; 3] = [Variant2D::AB, Variant2D::AC, Variant2D::BC];

/// Every executable plan for `p` ranks: all three 1D variants, every
/// 2D variant × grid factorization, Cannon when `p` is a perfect
/// square, and all nine 3D `(split, inner)` nestings × factorization.
///
/// This is the seam the conformance harness uses to *force* each
/// variant individually (instead of going through the autotuner,
/// which would only ever execute its predicted winner); the autotuner
/// scores exactly this same list, so harness coverage and tuner
/// search space cannot drift apart.
pub fn enumerate_plans(p: usize) -> Vec<MmPlan> {
    let mut plans = Vec::new();
    for v in VARIANTS_1D {
        plans.push(MmPlan::OneD(v));
    }
    let q = (p as f64).sqrt().round() as usize;
    if q * q == p && q > 1 {
        plans.push(MmPlan::Cannon { q });
    }
    for (p1, p2, p3) in crate::grid::factorizations(p) {
        if p1 == 1 && (p2 > 1 || p3 > 1) {
            for v in VARIANTS_2D {
                plans.push(MmPlan::TwoD { variant: v, p2, p3 });
            }
        }
        if p1 > 1 && p2 * p3 > 1 {
            for s in VARIANTS_1D {
                for i in VARIANTS_2D {
                    plans.push(MmPlan::ThreeD {
                        split: s,
                        inner: i,
                        p1,
                        p2,
                        p3,
                    });
                }
            }
        }
    }
    plans
}

/// Result of a distributed multiplication.
#[derive(Clone, Debug)]
pub struct MmOut<T> {
    /// The product in the canonical world layout.
    pub c: DistMat<T>,
    /// Total nonzero elementary products (`ops(A,B)`).
    pub ops: u64,
}

/// The canonical world layout: the most-square 2D grid over all `p`
/// ranks (CTF's default placement: "block dimensions owned by each
/// processor as close to a square as possible", §6.2).
pub fn canonical_layout(m: &Machine, nrows: usize, ncols: usize) -> Layout {
    let p = m.p();
    let (g1, g2) = squarest_grid(p);
    let grid = Grid2::new(m.world(), g1, g2).expect("squarest grid tiles p by construction");
    Layout::on_grid(nrows, ncols, &grid)
}

/// The factorization `p = g1·g2` minimizing `|g1 − g2|` with
/// `g1 ≤ g2`.
pub fn squarest_grid(p: usize) -> (usize, usize) {
    let mut g1 = (p as f64).sqrt() as usize;
    while g1 > 1 && !p.is_multiple_of(g1) {
        g1 -= 1;
    }
    (g1.max(1), p / g1.max(1))
}

/// Assembles per-block outputs (with global offsets) into a canonical
/// [`DistMat`]: each canonical block is stitched from the pieces it
/// overlaps, and a piece that already is a canonical block (every
/// piece at `p = 1`, stationary-C plans on the canonical grid) is
/// moved into place. Local bookkeeping only — not charged (see module
/// docs).
///
/// # Panics
/// Panics if two pieces overlap: plans partition the output, and
/// concatenation (unlike the monoid) would not reconcile a collision.
pub(crate) fn assemble_canonical<M, T>(
    m: &Machine,
    nrows: usize,
    ncols: usize,
    pieces: Vec<Piece<T>>,
) -> DistMat<T>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    if let Some((a, b)) = first_overlap(&pieces) {
        panic!("output pieces {a} and {b} overlap");
    }
    let layout = canonical_layout(m, nrows, ncols);
    let mut slabs: Vec<Slab<'_, T>> = pieces
        .into_iter()
        .map(|(r0, c0, _pos, piece)| (r0, c0, Cow::Owned(piece)))
        .collect();
    let blocks: Few<_> = layout
        .blocks()
        .map(|(bi, bj)| {
            let (rows, cols) = (layout.row_range(bi), layout.col_range(bj));
            stitch(rows, cols, &mut slabs, |v| !M::is_identity(v)).0
        })
        .collect();
    let c = DistMat::from_blocks(layout, blocks);
    debug_assert!(
        c.validate().is_ok(),
        "assembled an invalid product: {:?}",
        c.validate()
    );
    c
}

/// The first two pieces (by index) whose rectangles share a cell.
pub(crate) fn first_overlap<T>(pieces: &[Piece<T>]) -> Option<(usize, usize)> {
    let meet = |a0: usize, an: usize, b0: usize, bn: usize| a0.max(b0) < (a0 + an).min(b0 + bn);
    pieces.iter().enumerate().find_map(|(k, (r0, c0, _, x))| {
        pieces[..k]
            .iter()
            .position(|(s0, d0, _, y)| {
                meet(*r0, x.nrows(), *s0, y.nrows()) && meet(*c0, x.ncols(), *d0, y.ncols())
            })
            .map(|j| (j, k))
    })
}

/// Drops right-operand entries in output columns the mask excludes
/// for *every* output row. Such entries can only feed skipped
/// products, so removing them changes neither the kept entries nor
/// the `ops` counter — but it shrinks the bytes a fresh (uncached)
/// B-panel redistribution must move. Returns `None` when the drop is
/// empty — no column is fully excluded (the common early-iteration
/// case), or every excluded column is structurally empty in B — so
/// callers fall back to the cacheable full form.
pub(crate) fn shrink_rhs_against_mask<T: Clone + Send + Sync>(
    b: &DistMat<T>,
    mask: &Mask,
) -> Option<DistMat<T>> {
    let excluded = mask.fully_excluded_cols();
    if !excluded.iter().any(|&e| e) {
        return None;
    }
    let l = b.layout().clone();
    let mut blocks = Vec::with_capacity(l.nblocks());
    for bi in 0..l.br() {
        for bj in 0..l.bc() {
            let c0 = l.col_range(bj).start;
            blocks.push(b.block(bi, bj).filter(|_, j, _| !excluded[c0 + j]));
        }
    }
    let out = DistMat::from_blocks(l, blocks);
    // Excluded columns that hold no B entries shrink nothing; report
    // "no shrink" so callers can fall back to the cacheable full form.
    if out.nnz() == b.nnz() {
        return None;
    }
    Some(out)
}

/// Runs the communication schedule and local multiplies of a plan that
/// does not land (1D-C, 2D, Cannon, 3D), returning its output pieces
/// (pairwise disjoint, at global offsets) and `ops`.
fn plan_pieces<K: SpMulKernel>(
    m: &Machine,
    plan: &MmPlan,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    match *plan {
        MmPlan::OneD(_) => mm1d::run_reduced::<K>(m, &m.world(), a, b, mask, cache),
        MmPlan::TwoD { variant, p2, p3 } => {
            let grid = Grid2::new(m.world(), p2, p3)?;
            mm2d::run_pieces::<K>(m, &grid, variant, a, b, mask, cache)
        }
        MmPlan::Cannon { q } => {
            let grid = Grid2::new(m.world(), q, q)?;
            crate::cannon::run_pieces::<K>(m, &grid, a, b, mask)
        }
        MmPlan::ThreeD {
            split,
            inner,
            p1,
            p2,
            p3,
        } => {
            let grid = Grid3::new(m.world(), p1, p2, p3)?;
            mm3d::run_pieces::<K>(m, &grid, split, inner, a, b, mask, cache)
        }
    }
}

/// Executes `C = A •⟨⊕,f⟩ B` under `plan`.
///
/// # Errors
/// Propagates [`MachineError::OutOfMemory`] when a rank's simulated
/// memory budget is exceeded (e.g. 1D replication of a matrix larger
/// than `M`).
pub fn mm_exec<K: SpMulKernel>(
    m: &Machine,
    plan: &MmPlan,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
) -> Result<MmOut<KernelOut<K>>, MachineError> {
    mm_exec_masked::<K>(m, plan, a, b, None)
}

/// [`mm_exec`] with an optional output mask in global coordinates:
/// each plan windows the mask to its output blocks, so excluded
/// elementary products are skipped inside every local kernel call and
/// never counted in `ops`.
pub fn mm_exec_masked<K: SpMulKernel>(
    m: &Machine,
    plan: &MmPlan,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
) -> Result<MmOut<KernelOut<K>>, MachineError> {
    mm_exec_cached_masked::<K>(m, plan, a, b, mask, &mut MmCache::amortizing(false))
}

/// Like [`mm_exec_masked`], but reusing prepared right-operand forms
/// from `cache` across calls — the Theorem-5.1 amortization for the
/// iterated frontier × adjacency products of MFBC. The cached forms
/// stay resident (charged) until [`MmCache::release_all`]. They are
/// mask-*independent* (they key on the operand alone), so the
/// amortization survives a mask that changes every iteration; only
/// B-panel paths that nothing will reuse
/// — a plan that never caches, or a one-shot cache — shrink operand
/// volume against the mask (see DESIGN.md).
///
/// [`mm_land`] into a landing that keeps the product as a matrix,
/// assembled if its plan landed it in pieces.
pub fn mm_exec_cached_masked<K: SpMulKernel>(
    m: &Machine,
    plan: &MmPlan,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<MmOut<KernelOut<K>>, MachineError> {
    let mut collect = Collect {
        mask,
        pieces: Vec::new(),
        formed: None,
    };
    let ops = mm_land::<K, _>(m, plan, a, b, &mut collect, cache)?;
    let c = match collect.formed {
        Some(c) => c,
        None => assemble_canonical::<K::Acc, _>(m, a.nrows(), b.ncols(), collect.pieces),
    };
    Ok(MmOut { c, ops })
}

/// Executes `a •⟨⊕,f⟩ b` under `plan` into `land`, under the mask the
/// landing reports ([`Land::mask`]); returns `ops`. The one executor:
/// [`mm_exec`] and the sweeps' table steps both run here. The landing
/// has been readied for `plan` ([`Land::open`]).
///
/// A plan that lands ([`MmPlan::lands`]) hands each band of the output
/// ([`Land::bands`]) to `land`, which forms it in place off `a`'s rows
/// — no product matrix is built or assembled, nor a mask view. Every
/// other plan multiplies the left operand the landing names
/// ([`Land::left`]), reduces or assembles its output across ranks under
/// the mask, built once, and hands it over whole in the canonical
/// layout ([`Land::formed`]). The operands move and are charged alike
/// either way, the left one at `K::Left`'s entry size; a one-shot
/// `cache` is emptied before `mm_land` returns.
///
/// # Errors
/// Propagates [`MachineError::OutOfMemory`] when a rank's simulated
/// memory budget is exceeded (e.g. 1D replication of a matrix larger
/// than `M`), and injected faults.
///
/// # Panics
/// Panics on mismatched shapes.
pub fn mm_land<K: SpMulKernel, L: Clone + Send + Sync>(
    m: &Machine,
    plan: &MmPlan,
    a: &DistMat<L>,
    b: &DistMat<K::Right>,
    land: &mut impl Land<K, L>,
    cache: &mut MmCache<K::Right>,
) -> Result<u64, MachineError> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "mm inner dimension mismatch: {}x{} by {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    plan.check(m.p())?;
    let _span = mfbc_trace::span(|| format!("spgemm {plan}"));
    let landed = match *plan {
        MmPlan::OneD(variant) if plan.lands() => {
            mm1d::run_slabs::<K, L>(m, &m.world(), variant, a, b, cache, land)
        }
        _ => {
            let mask = output_mask(land, (a.nrows(), b.ncols()));
            let left = land.left(a);
            let pieces = plan_pieces::<K>(m, plan, left, b, mask.as_ref(), cache);
            drop(mask);
            pieces.map(|(pieces, ops)| {
                let c = assemble_canonical::<K::Acc, _>(m, a.nrows(), b.ncols(), pieces);
                let nnz = c.nnz() as u64;
                land.formed(c);
                (ops, nnz)
            })
        }
    };
    cache.end_product(m);
    let (mut ops, formed) = landed?;
    if mfbc_fault::sabotage::armed_for(plan) && !land.corrupt() {
        ops = ops.wrapping_add(1);
    }
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Spgemm {
        plan: plan.to_string(),
        m: a.nrows() as u64,
        k: a.ncols() as u64,
        n: b.ncols() as u64,
        nnz_a: a.nnz() as u64,
        nnz_b: b.nnz() as u64,
        nnz_c: formed,
        ops,
    });
    Ok(ops)
}

/// Builds the mask `land` reports and checks it against the `shape`.
pub(crate) fn output_mask<K: SpMulKernel, L>(
    land: &impl Land<K, L>,
    shape: Shape,
) -> Option<Mask<'_>> {
    land.mask()
        .inspect(|mk| assert_shape("mask", (mk.nrows(), mk.ncols()), shape))
}

/// A product's `(rows, columns)`.
pub type Shape = (usize, usize);

/// Asserts that `what` a product lands in or under has its `shape`.
pub(crate) fn assert_shape(what: &str, (r, c): Shape, (nr, nc): Shape) {
    assert!(
        (r, c) == (nr, nc),
        "{what} shape {r}x{c} does not match output shape {nr}x{nc}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::kernel::TropicalKernel;
    use mfbc_algebra::monoid::{MinDist, SumU64};
    use mfbc_algebra::Dist;
    use mfbc_machine::MachineSpec;
    use mfbc_sparse::{Coo, Csr};
    use std::collections::BTreeSet;

    /// A deterministic `n × n` tropical operand with a few entries per
    /// row, so every block of every grid below holds some.
    fn operand(n: usize, stride: usize) -> Csr<Dist> {
        let triples = (0..n).flat_map(|i| {
            (0..4).map(move |k| (i, (i * stride + k * 5) % n, Dist::new((1 + i + k) as u64)))
        });
        Coo::from_triples(n, n, triples).into_csr::<MinDist>()
    }

    #[test]
    fn every_plan_family_hands_over_disjoint_pieces() {
        let n = 29;
        let (a, b) = (operand(n, 3), operand(n, 7));
        let mut families = BTreeSet::new();
        for p in [4usize, 8, 16] {
            let m = Machine::new(MachineSpec::test(p));
            let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
            let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
            for plan in enumerate_plans(p).into_iter().filter(|plan| !plan.lands()) {
                let mut cache = MmCache::new();
                let (pieces, _) =
                    plan_pieces::<TropicalKernel>(&m, &plan, &da, &db, None, &mut cache).unwrap();
                cache.release_all(&m);
                assert!(!pieces.is_empty(), "{plan} produced nothing at p={p}");
                assert_eq!(first_overlap(&pieces), None, "{plan} at p={p}");
                families.insert(plan.family());
            }
        }
        // `1d(A)` and `1d(B)` land band by band: see `land::tests`.
        assert_eq!(
            families.len(),
            14,
            "1d(C) + 2D×3 + 3D×9 + cannon: {families:?}"
        );
    }

    #[test]
    #[should_panic(expected = "output pieces 0 and 1 overlap")]
    fn overlapping_pieces_are_rejected() {
        let m = Machine::new(MachineSpec::test(4));
        let piece = |v| Coo::from_triples(3, 3, [(1, 1, v)]).into_csr::<SumU64>();
        // Rows 2..3 and columns 2..3 are claimed twice.
        let pieces = vec![(0, 0, 0, piece(1u64)), (2, 2, 1, piece(2))];
        assemble_canonical::<SumU64, _>(&m, 6, 6, pieces);
    }

    #[test]
    fn empty_and_touching_pieces_do_not_overlap() {
        let z = |r, c| Csr::<u64>::zero(r, c);
        let pieces = vec![
            (0, 0, 0, z(2, 2)),
            (2, 0, 1, z(2, 2)),
            (1, 1, 2, z(0, 5)),
            (0, 2, 3, z(4, 1)),
        ];
        assert_eq!(first_overlap(&pieces), None);
    }

    #[test]
    fn squarest_grids() {
        assert_eq!(squarest_grid(1), (1, 1));
        assert_eq!(squarest_grid(4), (2, 2));
        assert_eq!(squarest_grid(12), (3, 4));
        assert_eq!(squarest_grid(7), (1, 7));
        assert_eq!(squarest_grid(36), (6, 6));
    }

    #[test]
    fn plan_dims() {
        assert_eq!(MmPlan::OneD(Variant1D::A).dims(8), (8, 1, 1));
        assert_eq!(
            MmPlan::TwoD {
                variant: Variant2D::AB,
                p2: 2,
                p3: 4
            }
            .dims(8),
            (1, 2, 4)
        );
        let t = MmPlan::ThreeD {
            split: Variant1D::C,
            inner: Variant2D::AB,
            p1: 2,
            p2: 2,
            p3: 2,
        };
        assert_eq!(t.dims(8), (2, 2, 2));
        t.check(8).unwrap();
    }

    #[test]
    fn bad_plan_rejected() {
        let err = MmPlan::TwoD {
            variant: Variant2D::AB,
            p2: 3,
            p3: 3,
        }
        .check(8)
        .unwrap_err();
        assert!(matches!(err, MachineError::InvalidConfig { .. }));
    }
}
