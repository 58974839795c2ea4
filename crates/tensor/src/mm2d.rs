//! The 2D sparse matrix multiplication variants (§5.2.2).
//!
//! SUMMA-style algorithms on a `g1 × g2` grid using broadcasts and
//! sparse reductions. `lcm(g1, g2)` steps walk the loop dimension;
//! the autotuner prefers grids with `lcm(g1,g2) = max(g1,g2)`,
//! mirroring CTF's grid adjustment (§5.2.2). Per variant `YZ`, the
//! matrices named `Y` and `Z` move:
//!
//! * **AB** (stationary C): at step `t`, broadcast the A-chunk along
//!   grid rows and the B-chunk along grid columns; accumulate C in
//!   place. Cannon's algorithm ([`crate::cannon`]) is the same
//!   C-stationary loop with ring shifts in place of broadcasts: both
//!   multiply through one `StationaryC`, which folds every output
//!   block's k panels in ascending order, so the two produce the same
//!   bits.
//! * **AC** (stationary B): broadcast the A-chunk along rows, form
//!   partial products, sparse-reduce C-chunks along columns.
//! * **BC** (stationary A): broadcast the B-chunk along columns,
//!   sparse-reduce C-chunks along rows.
//!
//! Cost: `W_YZ = O(α·max(g1,g2)·log p + β·(nnz(Y)/g1 + nnz(Z)/g2))`.
//!
//! A superstep's broadcast panels are charged to their receivers on
//! one receipt (`Held`), posted with the panels and released after the
//! step's multiply; the redistributed right operand is the cache's.

// Loop indices below are grid coordinates that index several aligned
// per-position tables at once; `enumerate()` over one of them would
// obscure the geometry.
#![allow(clippy::needless_range_loop)]

use crate::cache::MmCache;
use crate::dist::{DistMat, Layout};
use crate::grid::{lcm, Grid2};
use crate::held::Held;
use crate::mm::Variant2D;
use crate::mm1d::{redistributed_rhs, FirstWins, Piece};
use crate::redist::redistribute;
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::collectives::{wait_all, Pending, Volume};
use mfbc_machine::{CollectiveKind, Group, Machine, MachineError};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::{spgemm_opt, Csr, Mask};
use std::sync::Arc;

/// [`redistributed_rhs`] under this grid/variant's key.
fn cached_rhs_layout<K: SpMulKernel>(
    m: &Machine,
    variant: Variant2D,
    grid: &Grid2,
    b: &DistMat<K::Right>,
    lb: &Layout,
    cache: &mut MmCache<K::Right>,
) -> Result<Arc<DistMat<K::Right>>, MachineError> {
    let key = format!(
        "2d:{variant:?}:{}x{}:{}",
        grid.g1(),
        grid.g2(),
        b.content_id()
    );
    redistributed_rhs::<K>(m, key, b, lb, cache)
}

/// Broadcasts `block` from grid position `root_idx` within `group`
/// and charges the receivers' copies to `held`; the block may be
/// multiplied once the returned [`Pending`] is waited.
fn bcast_block<'a, T>(
    m: &Machine,
    group: &Group,
    root_idx: usize,
    block: &'a Csr<T>,
    held: &mut Held,
) -> Result<Pending<&'a Csr<T>>, MachineError> {
    let posted = m.post_collective(group, CollectiveKind::Broadcast, block.comm_bytes(), block)?;
    let bytes = block.payload_bytes() as u64;
    for (idx, &r) in group.ranks().iter().enumerate() {
        if idx != root_idx {
            held.charge(m, r, bytes)?;
        }
    }
    Ok(posted)
}

/// Sparse-reduces C-chunk contributions over `group`, folded in group
/// order and charged by the result's size; the reduced chunk is
/// delivered behind the returned [`Pending`].
pub(crate) fn reduce_chunk<K: SpMulKernel>(
    m: &Machine,
    group: &Group,
    contribs: Vec<Csr<KernelOut<K>>>,
) -> Result<Pending<Csr<KernelOut<K>>>, MachineError> {
    let total = contribs
        .into_iter()
        .reduce(|x, y| combine::<K::Acc, _>(&x, &y))
        .expect("one contribution per member");
    m.post_collective(
        group,
        CollectiveKind::SparseReduce,
        total.comm_bytes(),
        total,
    )
}

/// Runs supersteps `0..s`, each on the collectives `stage(t)` posted
/// for it, which `arrive` waits. Under overlapped accounting step
/// t+1's are posted before step t computes, so their β time hides
/// under its compute — before step t's arrival, or after it when the
/// rounds `forward` (each sends on what the previous one delivered,
/// as Cannon's shifts do). Blocking mode posts at the top of each
/// step, preserving the serialized schedule exactly.
pub(crate) fn pipelined<P, D>(
    m: &Machine,
    s: usize,
    forward: bool,
    stage: impl Fn(usize) -> Result<P, MachineError>,
    arrive: impl Fn(P) -> Result<D, MachineError>,
    mut step: impl FnMut(usize, D) -> Result<(), MachineError>,
) -> Result<(), MachineError> {
    let overlap = m.spec().overlap;
    let mut prefetched = if overlap { Some(stage(0)?) } else { None };
    for t in 0..s {
        let posted = match prefetched.take() {
            Some(posted) => posted,
            None => stage(t)?,
        };
        let early = overlap && t + 1 < s;
        if early && !forward {
            prefetched = Some(stage(t + 1)?);
        }
        let delivered = arrive(posted)?;
        if early && forward {
            prefetched = Some(stage(t + 1)?);
        }
        step(t, delivered)?;
    }
    Ok(())
}

/// The output side of a C-stationary plan (SUMMA-AB, Cannon): one
/// accumulator per grid position `(bi, bj)`, which owns output block
/// `(bi, bj)` at every step.
///
/// A position folds its panel products in ascending panel order,
/// whatever order they arrive in: a product ahead of a lower panel is
/// held until every lower one has been folded or turned out empty.
/// SUMMA's arrive in order and fold at once; Cannon's skew starts
/// position `(bi, bj)` at panel `(bi + bj) mod q`, so it holds at most
/// `q − 1` products per position. Either way an output entry sums its
/// terms in an order set by the k cuts alone.
pub(crate) struct StationaryC<'a, K: SpMulKernel> {
    la: &'a Layout,
    lb: &'a Layout,
    mask: Option<&'a Mask<'a>>,
    folds: Vec<Fold<KernelOut<K>>>,
    ops: u64,
}

/// One position's ascending-panel accumulator.
struct Fold<T> {
    acc: Csr<T>,
    /// The lowest panel neither folded nor found empty.
    next: usize,
    /// Panels that arrived ahead of `next`; `None` marks an empty one.
    held: Vec<(usize, Option<Csr<T>>)>,
}

impl<'a, K: SpMulKernel> StationaryC<'a, K> {
    /// Accumulators for C's blocks: A's row cuts by B's column cuts.
    pub(crate) fn new(la: &'a Layout, lb: &'a Layout, mask: Option<&'a Mask<'a>>) -> Self {
        let folds = (0..la.br() * lb.bc())
            .map(|pos| Fold {
                acc: Csr::zero(
                    la.row_range(pos / lb.bc()).len(),
                    lb.col_range(pos % lb.bc()).len(),
                ),
                next: 0,
                held: Vec::new(),
            })
            .collect();
        StationaryC {
            la,
            lb,
            mask,
            folds,
            ops: 0,
        }
    }

    /// One superstep: every position `(bi, bj)`, in row-major order,
    /// multiplies `a(bi, k) × b(k, bj)` for its panel
    /// `k = panel(bi, bj)`, charging the product to its rank.
    pub(crate) fn superstep(
        &mut self,
        m: &Machine,
        grid: &Grid2,
        a: &DistMat<K::Left>,
        b: &DistMat<K::Right>,
        panel: impl Fn(usize, usize) -> usize,
    ) {
        for pos in 0..self.folds.len() {
            let (bi, bj) = (pos / self.lb.bc(), pos % self.lb.bc());
            let k = panel(bi, bj);
            let (ab, bb) = (a.block(bi, k), b.block(k, bj));
            let product = (!ab.is_empty() && !bb.is_empty()).then(|| {
                let (rows, cols) = (self.la.row_range(bi), self.lb.col_range(bj));
                let w = self.mask.map(|mk| mk.window(rows, cols));
                let out = spgemm_opt::<K>(ab, bb, w.as_ref());
                m.charge_compute(grid.rank(bi, bj), out.ops + out.mat.nnz() as u64);
                self.ops += out.ops;
                out.mat
            });
            self.folds[pos].settle::<K::Acc>(k, product);
        }
    }

    /// The non-empty output blocks at their global offsets, and `ops`.
    pub(crate) fn into_pieces(self) -> (Vec<Piece<KernelOut<K>>>, u64) {
        let mut pieces = Vec::with_capacity(self.folds.len());
        for (pos, f) in self.folds.into_iter().enumerate() {
            debug_assert!(f.held.is_empty(), "panel {} never arrived", f.next);
            if !f.acc.is_empty() {
                let (bi, bj) = (pos / self.lb.bc(), pos % self.lb.bc());
                let (r0, c0) = (self.la.row_range(bi).start, self.lb.col_range(bj).start);
                pieces.push((r0, c0, pos, f.acc));
            }
        }
        (pieces, self.ops)
    }
}

impl<T: Clone + PartialEq + Send + Sync + std::fmt::Debug> Fold<T> {
    /// Records panel `k`'s product (`None`: an operand was empty) and
    /// folds every panel that is now next in line.
    fn settle<M: Monoid<Elem = T>>(&mut self, k: usize, product: Option<Csr<T>>) {
        self.held.push((k, product));
        while let Some(at) = self.held.iter().position(|&(k, _)| k == self.next) {
            if let (_, Some(p)) = self.held.swap_remove(at) {
                self.acc = combine::<M, _>(&self.acc, &p);
            }
            self.next += 1;
        }
    }
}

pub(crate) fn run_pieces<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid2,
    variant: Variant2D,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    match variant {
        Variant2D::AB => stationary_c::<K>(m, grid, a, b, mask, cache),
        Variant2D::AC => stationary_b::<K>(m, grid, a, b, mask, cache),
        Variant2D::BC => stationary_a::<K>(m, grid, a, b, mask, cache),
    }
}

/// Variant AB: C stationary on the grid; A and B chunks broadcast.
fn stationary_c<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid2,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let (g1, g2) = (grid.g1(), grid.g2());
    let s = lcm(g1, g2);
    let (mm, kk, nn) = (a.nrows(), a.ncols(), b.ncols());

    // k cut into s panels; panel t of A lives in grid column t mod g2,
    // of B in grid row t mod g1. On a square grid these are
    // `Layout::on_grid`, the layouts Cannon multiplies on.
    let la = Layout::even(mm, kk, (g1, s), |bi, t| grid.rank(bi, t % g2));
    let lb = Layout::even(kk, nn, (s, g2), |t, bj| grid.rank(t % g1, bj));
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = cached_rhs_layout::<K>(m, Variant2D::AB, grid, b, &lb, cache)?;
    let mut c = StationaryC::<K>::new(&la, &lb, mask);

    // Post every broadcast of superstep `t`: A chunks along grid rows,
    // then B chunks along grid columns. The step's copies are released
    // after its multiply.
    let stage = |t: usize| -> Result<(Vec<Pending<_>>, Vec<Pending<_>>, Held), MachineError> {
        let mut held = Held::default();
        let a_posted = (0..g1)
            .map(|bi| bcast_block(m, &grid.row_group(bi), t % g2, a2.block(bi, t), &mut held))
            .collect::<Result<_, _>>()?;
        let b_posted = (0..g2)
            .map(|bj| bcast_block(m, &grid.col_group(bj), t % g1, b2.block(t, bj), &mut held))
            .collect::<Result<_, _>>()?;
        Ok((a_posted, b_posted, held))
    };
    let arrive = |(a, b, held)| Ok((wait_all(m, a)?, wait_all(m, b)?, held));

    pipelined(m, s, false, stage, arrive, |t, (_, _, held)| {
        c.superstep(m, grid, &a2, &b2, |_, _| t);
        held.release(m);
        Ok(())
    })?;
    Ok(c.into_pieces())
}

/// Variant AC: B stationary; A chunks broadcast along rows, C chunks
/// sparse-reduced along columns.
fn stationary_b<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid2,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let (g1, g2) = (grid.g1(), grid.g2());
    let s = lcm(g1, g2);
    let (mm, kk, nn) = (a.nrows(), a.ncols(), b.ncols());

    // B natural: k-rows over g1, n-cols over g2.
    let lb = Layout::on_grid(kk, nn, grid);
    // A: m split into s chunks, k over g1; chunk (t, bk) lives in
    // grid row bk (so the row-group broadcast reaches all columns).
    let la = Layout::even(mm, kk, (s, g1), |t, bk| grid.rank(bk, t % g2));
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = cached_rhs_layout::<K>(m, Variant2D::AC, grid, b, &lb, cache)?;

    let ncols_of = |bj: usize| lb.col_range(bj).len();
    let mut pieces = Vec::new();
    let mut ops = 0u64;

    let stage = |t: usize| -> Result<(Vec<_>, Held), MachineError> {
        let mut held = Held::default();
        let posted = (0..g1)
            .map(|bk| bcast_block(m, &grid.row_group(bk), t % g2, a2.block(t, bk), &mut held))
            .collect::<Result<_, _>>()?;
        Ok((posted, held))
    };

    // Prefetch next step's A panels under this step's compute, and
    // drain the C reductions only after the loop — the reduced chunks
    // feed nothing inside it.
    let mut reduced: Vec<(usize, usize, usize, Pending<Csr<KernelOut<K>>>)> = Vec::new();
    let arrive = |(posted, held)| Ok((wait_all(m, posted)?, held));
    pipelined(m, s, false, stage, arrive, |t, (a_shared, held)| {
        let chunk_rows = la.row_range(t).len();
        for bj in 0..g2 {
            // All g1 partials of this (t, bj) output rectangle share
            // one window.
            let w = mask.map(|mk| mk.window(la.row_range(t), lb.col_range(bj)));
            let mut contribs: Vec<Csr<KernelOut<K>>> = Vec::with_capacity(g1);
            for bk in 0..g1 {
                let (ab, bb) = (a_shared[bk], b2.block(bk, bj));
                if ab.is_empty() || bb.is_empty() {
                    contribs.push(Csr::zero(chunk_rows, ncols_of(bj)));
                    continue;
                }
                let out = spgemm_opt::<K>(ab, bb, w.as_ref());
                m.charge_compute(grid.rank(bk, bj), out.ops + out.mat.nnz() as u64);
                ops += out.ops;
                contribs.push(out.mat);
            }
            let cblk = reduce_chunk::<K>(m, &grid.col_group(bj), contribs)?;
            let pos = (t % g1) * g2 + bj;
            reduced.push((la.row_range(t).start, lb.col_range(bj).start, pos, cblk));
        }
        held.release(m);
        Ok(())
    })?;
    for (r0, c0, pos, pending) in reduced {
        let cblk = pending.wait(m)?;
        if !cblk.is_empty() {
            pieces.push((r0, c0, pos, cblk));
        }
    }
    Ok((pieces, ops))
}

/// Variant BC: A stationary; B chunks broadcast along columns, C
/// chunks sparse-reduced along rows.
fn stationary_a<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid2,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let (g1, g2) = (grid.g1(), grid.g2());
    let s = lcm(g1, g2);
    let (mm, kk, nn) = (a.nrows(), a.ncols(), b.ncols());

    // A natural: m-rows over g1, k-cols over g2.
    let la = Layout::on_grid(mm, kk, grid);
    // B: k split over g2 (matching A's k cuts), n split into s
    // chunks; block (bk, t) lives in grid column bk.
    let lb = Layout::even(kk, nn, (g2, s), |bk, t| grid.rank(t % g1, bk));
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = cached_rhs_layout::<K>(m, Variant2D::BC, grid, b, &lb, cache)?;

    let mut pieces = Vec::new();
    let mut ops = 0u64;

    let stage = |t: usize| -> Result<(Vec<_>, Held), MachineError> {
        let mut held = Held::default();
        let posted = (0..g2)
            .map(|bk| bcast_block(m, &grid.col_group(bk), t % g1, b2.block(bk, t), &mut held))
            .collect::<Result<_, _>>()?;
        Ok((posted, held))
    };

    // Mirror of the AC pipeline: prefetch B panels, drain reductions
    // after the loop.
    let mut reduced: Vec<(usize, usize, usize, Pending<Csr<KernelOut<K>>>)> = Vec::new();
    let arrive = |(posted, held)| Ok((wait_all(m, posted)?, held));
    pipelined(m, s, false, stage, arrive, |t, (b_shared, held)| {
        let chunk_cols = lb.col_range(t).len();
        for bi in 0..g1 {
            let rows = la.row_range(bi).len();
            // All g2 partials of this (bi, t) output rectangle share
            // one window.
            let w = mask.map(|mk| mk.window(la.row_range(bi), lb.col_range(t)));
            let mut contribs: Vec<Csr<KernelOut<K>>> = Vec::with_capacity(g2);
            for bk in 0..g2 {
                let (ab, bb) = (a2.block(bi, bk), b_shared[bk]);
                if ab.is_empty() || bb.is_empty() {
                    contribs.push(Csr::zero(rows, chunk_cols));
                    continue;
                }
                let out = spgemm_opt::<K>(ab, bb, w.as_ref());
                m.charge_compute(grid.rank(bi, bk), out.ops + out.mat.nnz() as u64);
                ops += out.ops;
                contribs.push(out.mat);
            }
            let cblk = reduce_chunk::<K>(m, &grid.row_group(bi), contribs)?;
            let pos = bi * g2 + (t % g2);
            reduced.push((la.row_range(bi).start, lb.col_range(t).start, pos, cblk));
        }
        held.release(m);
        Ok(())
    })?;
    for (r0, c0, pos, pending) in reduced {
        let cblk = pending.wait(m)?;
        if !cblk.is_empty() {
            pieces.push((r0, c0, pos, cblk));
        }
    }
    Ok((pieces, ops))
}
