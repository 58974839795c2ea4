//! Cannon's algorithm — the point-to-point 2D variant of §5.2.2.
//!
//! "One of the simplest 2D algorithms is Cannon's algorithm, which
//! shifts blocks of A and B on a square processor grid, achieving a
//! communication cost of O(α·√p + β·(nnz(A)+nnz(B))/√p)." Unlike the
//! broadcast-based SUMMA variants, Cannon's uses only point-to-point
//! cyclic shifts — `√p` messages instead of `√p log p`, at the price
//! of requiring a square grid and moving *both* operands.
//!
//! Included for completeness of the paper's algorithm space and for
//! the latency-vs-bandwidth ablation: the autotuner may select it
//! (`MmPlan::Cannon`) when the α term dominates.

#![allow(clippy::needless_range_loop)] // indices are grid coordinates

use crate::cache::MmCache;
use crate::dist::{DistMat, Layout};
use crate::grid::Grid2;
use crate::mm1d::{FirstWins, Piece};
use crate::redist::redistribute;
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::collectives::{wait_all, Pending};
use mfbc_machine::{CollectiveKind, Machine, MachineError};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::{entry_bytes, spgemm_opt, Csr, Mask};

/// Runs Cannon's algorithm on a `q × q` grid.
///
/// The initial skew aligns block `A(i, j)` to position
/// `(i, j−i mod q)` and `B(i, j)` to `(i−j mod q, j)`; each of the
/// `q` steps multiplies the aligned blocks and shifts A's blocks left
/// along rows, B's blocks up along columns — one point-to-point
/// message per rank per step.
pub(crate) fn run_pieces<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid2,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    _cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let q = grid.g1();
    assert_eq!(
        grid.g1(),
        grid.g2(),
        "Cannon's algorithm needs a square grid"
    );
    let (mm, kk, nn) = (a.nrows(), a.ncols(), b.ncols());

    // Natural q × q layouts; k is cut identically for both operands.
    let la = Layout::on_grid(mm, kk, grid);
    let lb = Layout::on_grid(kk, nn, grid);
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    // B's redistribution is never cached here, so (as in 1D variant
    // A) a mask can shrink the moved volume: entries in columns the
    // mask excludes for every output row only feed skipped products.
    let shrunk = mask.and_then(|mk| crate::mm::shrink_rhs_against_mask(b, mk));
    let b2 = redistribute::<FirstWins<K::Right>, _>(m, shrunk.as_ref().unwrap_or(b), &lb)?;

    // Local block tables indexed by grid position; the skew and the
    // per-step shifts permute them. `a_blocks[i][j]` is the block
    // currently *resident at* grid position (i, j).
    let mut a_blocks: Vec<Vec<Csr<K::Left>>> = (0..q)
        .map(|i| (0..q).map(|j| a2.block(i, (j + i) % q).clone()).collect())
        .collect();
    let mut b_blocks: Vec<Vec<Csr<K::Right>>> = (0..q)
        .map(|i| (0..q).map(|j| b2.block((i + j) % q, j).clone()).collect())
        .collect();
    let mut acc: Vec<Vec<Csr<KernelOut<K>>>> = (0..q)
        .map(|i| {
            (0..q)
                .map(|j| Csr::zero(la.row_range(i).len(), lb.col_range(j).len()))
                .collect()
        })
        .collect();
    // Position (i, j) accumulates the same output rectangle at every
    // step, so one mask window per position serves the whole run.
    let windows: Option<Vec<Vec<Mask>>> = mask.map(|mk| {
        (0..q)
            .map(|i| {
                (0..q)
                    .map(|j| mk.window(la.row_range(i), lb.col_range(j)))
                    .collect()
            })
            .collect()
    });
    let mut ops = 0u64;

    // One shift round arrives before each step: the initial skew
    // (each rank sends its block up to q−1 hops, modeled as one
    // point-to-point per rank, as on a torus where the skew is a
    // single permutation route), then a rotation per step. Blocking
    // mode posts a round at the top of the step it feeds; overlapped
    // mode posts the skew up front and each later round right after
    // the previous one arrived, before the compute it hides under —
    // each ring keeps the same set of blocks across a rotation, so
    // the per-ring max charge is identical pre- or post-rotation.
    let overlap = m.spec().overlap;
    let mut prefetched = if overlap {
        Some(shift_round(m, grid, &a_blocks, &b_blocks)?)
    } else {
        None
    };
    for step in 0..q {
        let arriving = match prefetched.take() {
            Some(posted) => posted,
            None => shift_round(m, grid, &a_blocks, &b_blocks)?,
        };
        wait_all(m, arriving)?;
        if overlap && step + 1 < q {
            prefetched = Some(shift_round(m, grid, &a_blocks, &b_blocks)?);
        }
        for i in 0..q {
            for j in 0..q {
                let (ab, bb) = (&a_blocks[i][j], &b_blocks[i][j]);
                if ab.is_empty() || bb.is_empty() {
                    continue;
                }
                let w = windows.as_ref().map(|ws| &ws[i][j]);
                let out = spgemm_opt::<K>(ab, bb, w);
                m.charge_compute(grid.rank(i, j), out.ops + out.mat.nnz() as u64);
                ops += out.ops;
                acc[i][j] = combine::<K::Acc, _>(&acc[i][j], &out.mat);
            }
        }
        // Shift A left along rows, B up along columns.
        for row in a_blocks.iter_mut() {
            row.rotate_left(1);
        }
        b_blocks.rotate_left(1);
    }

    let mut pieces = Vec::with_capacity(q * q);
    for (i, row) in acc.into_iter().enumerate() {
        for (j, blk) in row.into_iter().enumerate() {
            if !blk.is_empty() {
                pieces.push((la.row_range(i).start, lb.col_range(j).start, i * q + j, blk));
            }
        }
    }
    Ok((pieces, ops))
}

/// Posts one point-to-point round: every rank sends its current A
/// block along its row ring and its B block along its column ring.
/// Rings are disjoint per direction, so each ring's message lands on
/// its members' critical paths independently.
fn shift_round<L, R>(
    m: &Machine,
    grid: &Grid2,
    a_blocks: &[Vec<Csr<L>>],
    b_blocks: &[Vec<Csr<R>>],
) -> Result<Vec<Pending<()>>, MachineError> {
    let q = grid.g1();
    let p2p = CollectiveKind::PointToPoint;
    let mut posted = Vec::with_capacity(2 * q);
    for i in 0..q {
        let widest = (0..q)
            .map(|j| a_blocks[i][j].nnz() * entry_bytes::<L>())
            .max();
        posted.push(m.post_collective(&grid.row_group(i), p2p, widest.unwrap_or(0) as u64, ())?);
    }
    for j in 0..q {
        let widest = (0..q)
            .map(|i| b_blocks[i][j].nnz() * entry_bytes::<R>())
            .max();
        posted.push(m.post_collective(&grid.col_group(j), p2p, widest.unwrap_or(0) as u64, ())?);
    }
    Ok(posted)
}

/// Predicted time of Cannon's algorithm (the §5.2.2 formula):
/// `α·√p + β·(nnz(A)+nnz(B))/√p` plus compute, with the shift
/// bandwidth overlappable under compute when the spec overlaps.
pub fn predict_cannon(
    spec: &mfbc_machine::MachineSpec,
    q: usize,
    st: &crate::costmodel::MmStats,
) -> f64 {
    let p = q * q;
    // Cannon's B redistribution and shifts are uncached, so (as in
    // 1D variant A) a mask shrinks the moved B volume.
    let ba = (st.nnz_a * st.eb_a) as f64;
    let bb = (st.nnz_b * st.eb_b) as f64 * st.b_move_frac;
    let mut t = crate::costmodel::Terms {
        comp: spec.gamma * (st.ops + st.nnz_c) as f64 / p as f64,
        ..Default::default()
    };
    if p > 1 {
        // q shift rounds (incl. skew) of one message each direction.
        t.alpha = 2.0 * q as f64 * spec.alpha;
        t.beta = spec.beta * (ba + bb) / q as f64;
        // Plus the canonical redistribution of both operands.
        t.redist =
            crate::costmodel::redist_time(spec, p, ba) + crate::costmodel::redist_time(spec, p, bb);
    }
    t.combine(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::kernel::TropicalKernel;
    use mfbc_algebra::monoid::MinDist;
    use mfbc_algebra::Dist;
    use mfbc_machine::{Group, MachineSpec};
    use mfbc_sparse::{spgemm_serial, Coo};
    use rand::{Rng, SeedableRng};

    fn random_mat(seed: u64, n: usize, nnz: usize) -> Csr<Dist> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut coo = Coo::new(n, n);
        for _ in 0..nnz {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                Dist::new(rng.gen_range(1..30)),
            );
        }
        coo.into_csr::<MinDist>()
    }

    #[test]
    fn cannon_matches_serial() {
        for q in [1usize, 2, 3, 4] {
            let p = q * q;
            let n = 33;
            let a = random_mat(1, n, 180);
            let b = random_mat(2, n, 200);
            let want = spgemm_serial::<TropicalKernel>(&a, &b);
            let m = Machine::new(MachineSpec::test(p));
            let da = DistMat::from_global(crate::canonical_layout(&m, n, n), &a);
            let db = DistMat::from_global(crate::canonical_layout(&m, n, n), &b);
            let plan = crate::MmPlan::Cannon { q };
            let out = crate::mm_exec::<TropicalKernel>(&m, &plan, &da, &db).unwrap();
            assert_eq!(out.c.to_global::<MinDist>(), want.mat, "q={q}");
            assert_eq!(out.ops, want.ops, "q={q}");
        }
    }

    #[test]
    fn cannon_uses_point_to_point_only() {
        let q = 3;
        let n = 30;
        let a = random_mat(3, n, 150);
        let m = Machine::new(MachineSpec::test(q * q));
        let grid = Grid2::new(Group::all(q * q), q, q).unwrap();
        let da = DistMat::from_global(crate::canonical_layout(&m, n, n), &a);
        let db = da.clone();
        let mut cache = MmCache::new();
        let _ = run_pieces::<TropicalKernel>(&m, &grid, &da, &db, None, &mut cache).unwrap();
        cache.release_all(&m);
        // q shift rounds × 2 directions = 2q point-to-point messages
        // per rank on the critical path, plus the redistribution
        // all-to-all — far below SUMMA's 2·q·log₂(q)-per-step counts.
        let msgs = m.report().critical.msgs;
        assert!(msgs <= (2 * q + 4) as u64, "msgs = {msgs}");
    }

    #[test]
    #[should_panic]
    fn cannon_rejects_rectangular_grids() {
        let m = Machine::new(MachineSpec::test(6));
        let grid = Grid2::new(Group::all(6), 2, 3).unwrap();
        let a = random_mat(5, 12, 40);
        let da = DistMat::from_global(crate::canonical_layout(&m, 12, 12), &a);
        let mut cache = MmCache::new();
        let _ = run_pieces::<TropicalKernel>(&m, &grid, &da, &da.clone(), None, &mut cache);
    }
}
