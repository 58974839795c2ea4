//! Cannon's algorithm — the point-to-point 2D variant of §5.2.2.
//!
//! "One of the simplest 2D algorithms is Cannon's algorithm, which
//! shifts blocks of A and B on a square processor grid, achieving a
//! communication cost of O(α·√p + β·(nnz(A)+nnz(B))/√p)." Unlike the
//! broadcast-based SUMMA variants, Cannon's uses only point-to-point
//! cyclic shifts — `√p` messages instead of `√p log p`, at the price
//! of requiring a square grid and moving *both* operands.
//!
//! It is SUMMA-AB's C-stationary algorithm with shifts in place of
//! broadcasts: on a `q × q` grid both plans cut A and B into the same
//! blocks, and only which panel a grid position multiplies at step
//! `t` differs (`(i + j + t) mod q` here, `t` there). The local
//! multiplies and the accumulation are `mm2d::StationaryC`'s,
//! which folds every output block's panels in ascending order, so
//! Cannon's product is SUMMA-AB's bit for bit, at any batch size.
//!
//! Included for completeness of the paper's algorithm space and for
//! the latency-vs-bandwidth ablation: the autotuner may select it
//! (`MmPlan::Cannon`) when the α term dominates.

use crate::dist::{DistMat, Layout};
use crate::grid::Grid2;
use crate::mm1d::{FirstWins, Piece};
use crate::mm2d::{pipelined, StationaryC};
use crate::redist::redistribute;
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::collectives::{wait_all, Pending};
use mfbc_machine::{CollectiveKind, Group, Machine, MachineError};
use mfbc_sparse::{entry_bytes, Mask};

/// Runs Cannon's algorithm on a `q × q` grid.
///
/// The initial skew aligns block `A(i, k)` and `B(k, j)` at grid
/// position `(i, j)` for `k = (i + j) mod q`; each of the `q` steps
/// multiplies the aligned blocks, then shifts A's blocks left along
/// rows and B's blocks up along columns — one point-to-point message
/// per rank per step — so position `(i, j)` multiplies panel
/// `(i + j + t) mod q` at step `t`. The blocks are read where the
/// redistribution left them.
pub(crate) fn run_pieces<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid2,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
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

    // Every rank sends its A block along its row ring and its B block
    // along its column ring; rings are disjoint per direction, so each
    // ring's message lands on its members' critical paths
    // independently. A ring holds the same q blocks through every
    // rotation (row i: A(i, ·); column j: B(·, j)), so every round
    // charges it its widest one.
    let row_nnz = |i| (0..q).map(|k| a2.block(i, k).nnz()).max().unwrap_or(0);
    let col_nnz = |j| (0..q).map(|k| b2.block(k, j).nnz()).max().unwrap_or(0);
    let rings: Vec<(Group, usize)> = (0..q)
        .map(|i| (grid.row_group(i), row_nnz(i) * entry_bytes::<K::Left>()))
        .chain((0..q).map(|j| (grid.col_group(j), col_nnz(j) * entry_bytes::<K::Right>())))
        .collect();
    let p2p = CollectiveKind::PointToPoint;
    let shift_round = |_| -> Result<Vec<Pending<()>>, MachineError> {
        let post =
            |(ring, widest): &(Group, usize)| m.post_collective(ring, p2p, *widest as u64, ());
        rings.iter().map(post).collect()
    };

    // One shift round arrives before each step: the initial skew
    // (each rank sends its block up to q−1 hops, modeled as one
    // point-to-point per rank, as on a torus where the skew is a
    // single permutation route), then a rotation per step. A round
    // forwards what the previous one delivered, so overlapped mode
    // posts it only once that one has arrived, before the compute it
    // hides under.
    let mut c = StationaryC::<K>::new(&la, &lb, mask);
    let arrive = |posted| wait_all(m, posted);
    pipelined(m, q, true, shift_round, arrive, |t, _| {
        c.superstep(m, grid, &a2, &b2, |i, j| (i + j + t) % q);
        Ok(())
    })?;
    Ok(c.into_pieces())
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
    use mfbc_sparse::{spgemm_serial, Coo, Csr};
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
        let _ = run_pieces::<TropicalKernel>(&m, &grid, &da, &db, None).unwrap();
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
        let _ = run_pieces::<TropicalKernel>(&m, &grid, &da, &da.clone(), None);
    }
}
