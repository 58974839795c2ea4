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
//!   place.
//! * **AC** (stationary B): broadcast the A-chunk along rows, form
//!   partial products, sparse-reduce C-chunks along columns.
//! * **BC** (stationary A): broadcast the B-chunk along columns,
//!   sparse-reduce C-chunks along rows.
//!
//! Cost: `W_YZ = O(α·max(g1,g2)·log p + β·(nnz(Y)/g1 + nnz(Z)/g2))`.

// Loop indices below are grid coordinates that index several aligned
// per-position tables at once; `enumerate()` over one of them would
// obscure the geometry.
#![allow(clippy::needless_range_loop)]

use crate::cache::MmCache;
use crate::dist::{DistMat, Layout};
use crate::grid::{lcm, Grid2};
use crate::mm::Variant2D;
use crate::mm1d::{redistributed_rhs, FirstWins, Piece};
use crate::redist::redistribute;
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::collectives::{wait_all, Pending, Volume};
use mfbc_machine::{CollectiveKind, Group, Machine, MachineError};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::slice::even_ranges;
use mfbc_sparse::{entry_bytes, spgemm_opt, Csr, Mask};
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
/// and charges the receivers' memory; the block may be multiplied
/// once the returned [`Pending`] is waited.
fn bcast_block<'a, T>(
    m: &Machine,
    group: &Group,
    root_idx: usize,
    block: &'a Csr<T>,
) -> Result<Pending<&'a Csr<T>>, MachineError> {
    let posted = m.post_collective(group, CollectiveKind::Broadcast, block.comm_bytes(), block)?;
    let bytes = (block.nnz() * entry_bytes::<T>()) as u64;
    for (idx, &r) in group.ranks().iter().enumerate() {
        if idx != root_idx {
            m.charge_alloc(r, bytes)?;
        }
    }
    Ok(posted)
}

/// Releases the receivers' copies of a [`bcast_block`].
fn release_bcast<T>(m: &Machine, group: &Group, root_idx: usize, block: &Csr<T>) {
    let bytes = (block.nnz() * entry_bytes::<T>()) as u64;
    for (idx, &r) in group.ranks().iter().enumerate() {
        if idx != root_idx {
            m.release(r, bytes);
        }
    }
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
/// for it. Under overlapped accounting step t+1's are posted before
/// step t runs, so their β time hides under its compute; blocking
/// mode posts at the top of each step, preserving the serialized
/// schedule exactly.
fn pipelined<P>(
    m: &Machine,
    s: usize,
    stage: impl Fn(usize) -> Result<P, MachineError>,
    mut step: impl FnMut(usize, P) -> Result<(), MachineError>,
) -> Result<(), MachineError> {
    let overlap = m.spec().overlap;
    let mut prefetched = if overlap { Some(stage(0)?) } else { None };
    for t in 0..s {
        let posted = match prefetched.take() {
            Some(posted) => posted,
            None => stage(t)?,
        };
        if overlap && t + 1 < s {
            prefetched = Some(stage(t + 1)?);
        }
        step(t, posted)?;
    }
    Ok(())
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

    let la = Layout::new(
        mm,
        kk,
        even_ranges(mm, g1),
        even_ranges(kk, s),
        (0..g1)
            .flat_map(|bi| (0..s).map(move |t| (bi, t)))
            .map(|(bi, t)| grid.rank(bi, t % g2))
            .collect(),
    );
    let lb = Layout::new(
        kk,
        nn,
        even_ranges(kk, s),
        even_ranges(nn, g2),
        (0..s)
            .flat_map(|t| (0..g2).map(move |bj| (t, bj)))
            .map(|(t, bj)| grid.rank(t % g1, bj))
            .collect(),
    );
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = cached_rhs_layout::<K>(m, Variant2D::AB, grid, b, &lb, cache)?;

    let mut acc: Vec<Csr<KernelOut<K>>> = (0..g1)
        .flat_map(|bi| (0..g2).map(move |bj| (bi, bj)))
        .map(|(bi, bj)| Csr::zero(la.row_range(bi).len(), lb.col_range(bj).len()))
        .collect();
    // Each grid position (bi, bj) always writes the same output
    // rectangle, so one mask window per position covers all s steps.
    let windows: Option<Vec<Mask>> = mask.map(|mk| {
        (0..g1)
            .flat_map(|bi| (0..g2).map(move |bj| (bi, bj)))
            .map(|(bi, bj)| mk.window(la.row_range(bi), lb.col_range(bj)))
            .collect()
    });
    let mut ops = 0u64;

    // Post every broadcast of superstep `t`: A chunks along grid rows,
    // then B chunks along grid columns.
    let stage = |t: usize| -> Result<(Vec<Pending<_>>, Vec<Pending<_>>), MachineError> {
        let a_posted = (0..g1)
            .map(|bi| bcast_block(m, &grid.row_group(bi), t % g2, a2.block(bi, t)))
            .collect::<Result<_, _>>()?;
        let b_posted = (0..g2)
            .map(|bj| bcast_block(m, &grid.col_group(bj), t % g1, b2.block(t, bj)))
            .collect::<Result<_, _>>()?;
        Ok((a_posted, b_posted))
    };

    pipelined(m, s, stage, |t, (a_posted, b_posted)| {
        let a_shared = wait_all(m, a_posted)?;
        let b_shared = wait_all(m, b_posted)?;
        for bi in 0..g1 {
            for bj in 0..g2 {
                let (ab, bb) = (a_shared[bi], b_shared[bj]);
                if ab.is_empty() || bb.is_empty() {
                    continue;
                }
                let w = windows.as_ref().map(|ws| &ws[bi * g2 + bj]);
                let out = spgemm_opt::<K>(ab, bb, w);
                m.charge_compute(grid.rank(bi, bj), out.ops + out.mat.nnz() as u64);
                ops += out.ops;
                let slot = &mut acc[bi * g2 + bj];
                *slot = combine::<K::Acc, _>(slot, &out.mat);
            }
        }
        for (bi, ab) in a_shared.into_iter().enumerate() {
            release_bcast(m, &grid.row_group(bi), t % g2, ab);
        }
        for (bj, bb) in b_shared.into_iter().enumerate() {
            release_bcast(m, &grid.col_group(bj), t % g1, bb);
        }
        Ok(())
    })?;

    let mut pieces = Vec::with_capacity(g1 * g2);
    for bi in 0..g1 {
        for bj in 0..g2 {
            let blk = std::mem::replace(&mut acc[bi * g2 + bj], Csr::zero(0, 0));
            if !blk.is_empty() {
                pieces.push((
                    la.row_range(bi).start,
                    lb.col_range(bj).start,
                    bi * g2 + bj,
                    blk,
                ));
            }
        }
    }
    Ok((pieces, ops))
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
    let la = Layout::new(
        mm,
        kk,
        even_ranges(mm, s),
        even_ranges(kk, g1),
        (0..s)
            .flat_map(|t| (0..g1).map(move |bk| (t, bk)))
            .map(|(t, bk)| grid.rank(bk, t % g2))
            .collect(),
    );
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = cached_rhs_layout::<K>(m, Variant2D::AC, grid, b, &lb, cache)?;

    let ncols_of = |bj: usize| lb.col_range(bj).len();
    let mut pieces = Vec::new();
    let mut ops = 0u64;

    let stage = |t: usize| -> Result<Vec<_>, MachineError> {
        (0..g1)
            .map(|bk| bcast_block(m, &grid.row_group(bk), t % g2, a2.block(t, bk)))
            .collect()
    };

    // Prefetch next step's A panels under this step's compute, and
    // drain the C reductions only after the loop — the reduced chunks
    // feed nothing inside it.
    let mut reduced: Vec<(usize, usize, usize, Pending<Csr<KernelOut<K>>>)> = Vec::new();
    pipelined(m, s, stage, |t, a_posted| {
        let chunk_rows = la.row_range(t).len();
        let a_shared = wait_all(m, a_posted)?;
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
        for (bk, ab) in a_shared.into_iter().enumerate() {
            release_bcast(m, &grid.row_group(bk), t % g2, ab);
        }
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
    let lb = Layout::new(
        kk,
        nn,
        even_ranges(kk, g2),
        even_ranges(nn, s),
        (0..g2)
            .flat_map(|bk| (0..s).map(move |t| (bk, t)))
            .map(|(bk, t)| grid.rank(t % g1, bk))
            .collect(),
    );
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = cached_rhs_layout::<K>(m, Variant2D::BC, grid, b, &lb, cache)?;

    let mut pieces = Vec::new();
    let mut ops = 0u64;

    let stage = |t: usize| -> Result<Vec<_>, MachineError> {
        (0..g2)
            .map(|bk| bcast_block(m, &grid.col_group(bk), t % g1, b2.block(bk, t)))
            .collect()
    };

    // Mirror of the AC pipeline: prefetch B panels, drain reductions
    // after the loop.
    let mut reduced: Vec<(usize, usize, usize, Pending<Csr<KernelOut<K>>>)> = Vec::new();
    pipelined(m, s, stage, |t, b_posted| {
        let chunk_cols = lb.col_range(t).len();
        let b_shared = wait_all(m, b_posted)?;
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
        for (bk, bb) in b_shared.into_iter().enumerate() {
            release_bcast(m, &grid.col_group(bk), t % g1, bb);
        }
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
