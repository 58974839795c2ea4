//! Distributed elementwise operations on [`DistMat`]s sharing a
//! layout: monoid combination, zip-filter/map and counting — the
//! distributed counterparts of CTF's elementwise `Function` /
//! `Transform` operations and sparse writes (§6.1) — and how the fused
//! table steps a product lands in (`land::{Accumulate, Settle,
//! Count}`) are billed. All are communication-free except
//! [`nnz_sync`], which models the allreduce a bulk-synchronous loop
//! uses to agree on termination.
//!
//! Blocks are independent, so the block loop fans out on the
//! `mfbc-parallel` pool. Cost-model charges are applied *serially in
//! block order after* the parallel compute: `Machine::charge_compute`
//! accumulates an `f64` per rank, and floating-point addition order
//! must not depend on scheduling for runs to stay bit-reproducible.
//! The column fold ([`dmat_fold_columns`]) writes its sums in place
//! instead: each block-column task owns its slice of the accumulator
//! and adds into it in a fixed order, so no pool size changes a bit.

use crate::dist::{DistMat, DistTable, Layout};
use mfbc_algebra::monoid::Monoid;
use mfbc_machine::cost::CollectiveKind;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::elementwise::{combine, map_filter, zip_filter};
use mfbc_sparse::Csr;
use std::sync::Mutex;

/// Asserts two distributed matrices share cuts and owners.
fn assert_aligned<T, U>(a: &DistMat<T>, b: &DistMat<U>)
where
    T: Clone + Send + Sync,
    U: Clone + Send + Sync,
{
    assert!(
        a.layout().same_cuts(b.layout()),
        "distributed elementwise op requires aligned layouts"
    );
}

/// Emits a pool-observability event for one blockwise fan-out.
pub(crate) fn emit_pool(kernel: &'static str, stats: &mfbc_parallel::ExecStats) {
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Pool {
        kernel,
        threads: stats.threads,
        tasks: stats.tasks,
        busy_us: stats.busy.iter().map(|d| d.as_micros() as u64).collect(),
        chunk_hist: Vec::new(),
    });
}

/// One blockwise fan-out: `block(bi, bj)` computes each output block
/// on the pool; afterwards `cost(bi, bj)` operations are charged to
/// each block's owner, serially in block order (see the module docs).
fn blockwise<O: Clone + Send + Sync>(
    m: &Machine,
    kernel: &'static str,
    l: &Layout,
    block: impl Fn(usize, usize) -> Csr<O> + Sync,
    cost: impl Fn(usize, usize) -> usize,
) -> DistMat<O> {
    let (blocks, stats) = mfbc_parallel::current()
        .par_map_collect_stats(l.nblocks(), |id| block(id / l.bc(), id % l.bc()));
    emit_pool(kernel, &stats);
    charge_blocks(m, l, cost);
    DistMat::from_blocks(l.clone(), blocks)
}

/// Charges `cost(bi, bj)` operations to each block's owner, serially
/// in block order (see the module docs).
pub(crate) fn charge_blocks(m: &Machine, l: &Layout, cost: impl Fn(usize, usize) -> usize) {
    for (bi, bj) in l.blocks() {
        m.charge_compute(l.owner(bi, bj), cost(bi, bj) as u64);
    }
}

/// `C = A ⊕ B` blockwise; layouts must align. Charges each owner's
/// compute for the merge.
pub fn dmat_combine<M, T>(m: &Machine, a: &DistMat<T>, b: &DistMat<T>) -> DistMat<T>
where
    M: Monoid<Elem = T>,
    T: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    assert_aligned(a, b);
    blockwise(
        m,
        "dmat_combine",
        a.layout(),
        |bi, bj| combine::<M, _>(a.block(bi, bj), b.block(bi, bj)),
        |bi, bj| a.block(bi, bj).nnz() + b.block(bi, bj).nnz(),
    )
}

/// How Algorithm 1, lines 5–6 fused is billed (`land::Accumulate`),
/// however its product reached the table — landed band by band or
/// formed whole and merged block by block: as the composition it
/// replaces, so modeled costs stay comparable across revisions
/// (DESIGN.md §7, deviation 8). Per block, the merge `nnz(T) + nnz(G)` of a
/// [`dmat_combine`], then the `nnz(G)` of a [`dmat_zip_filter`]; then
/// what `DistMat::{release,charge}_memory` would move for the table as
/// a matrix, before and after. `old` and `explored` hold `nnz(T)`
/// before the step and `nnz(G)`, by flat block id.
///
/// # Errors
/// Propagates a memory-budget failure of the grown table.
pub(crate) fn bill_accumulate<T: Clone + Send + Sync>(
    m: &Machine,
    l: &Layout,
    old: &[usize],
    explored: &[usize],
    table: &DistTable<T>,
) -> Result<(), MachineError> {
    let id = |bi, bj| l.block_id(bi, bj);
    charge_blocks(m, l, |bi, bj| old[id(bi, bj)] + explored[id(bi, bj)]);
    charge_blocks(m, l, |bi, bj| explored[id(bi, bj)]);
    let entry = mfbc_sparse::entry_bytes::<T>() as u64;
    for (bi, bj) in l.blocks() {
        m.release(l.owner(bi, bj), old[id(bi, bj)] as u64 * entry);
    }
    for (bi, bj) in l.blocks() {
        m.charge_alloc(l.owner(bi, bj), table.block(bi, bj).nnz() as u64 * entry)?;
    }
    Ok(())
}

/// How Algorithm 2, lines 1–4 fused is billed (`land::Count`),
/// however the child count reached `Z` — counted in place band by
/// band or formed whole and anchored block by block: as the
/// composition it replaces (DESIGN.md §7, deviation 8). Per block, the `nnz(base)` of a
/// [`dmat_zip_filter`], the memory charge of `Z` as a matrix, then the
/// `nnz(Z)` of a second zip and of a [`dmat_map_filter`].
///
/// # Errors
/// Propagates a memory-budget failure of the opened table.
pub(crate) fn bill_anchor<T, U>(
    m: &Machine,
    l: &Layout,
    base: &DistMat<U>,
    z: &DistTable<T>,
) -> Result<(), MachineError>
where
    T: Clone + Send + Sync,
    U: Clone + Send + Sync,
{
    let z_nnz = |bi, bj| z.block(bi, bj).nnz();
    charge_blocks(m, l, |bi, bj| base.block(bi, bj).nnz());
    // What `DistMat::charge_memory` moves for the table as a matrix.
    let entry = mfbc_sparse::entry_bytes::<T>() as u64;
    for (bi, bj) in l.blocks() {
        m.charge_alloc(l.owner(bi, bj), z_nnz(bi, bj) as u64 * entry)?;
    }
    charge_blocks(m, l, z_nnz); // the leaf zip
    charge_blocks(m, l, z_nnz); // the pin map
    Ok(())
}

/// How Algorithm 2, lines 8–11 fused is billed (`land::Settle`),
/// however its product reached `Z` — landed band by band or formed
/// whole and settled block by block: as the composition it replaces
/// (DESIGN.md §7, deviation 8). Per block, an anchored merge `nnz(Z) + nnz(G)`, then
/// the `nnz(Z)` of a zip and of a map; `updates` holds `nnz(G)` by
/// flat block id.
pub(crate) fn bill_settle<T: Clone + Send + Sync>(
    m: &Machine,
    l: &Layout,
    updates: &[usize],
    z: &DistTable<T>,
) {
    let z_nnz = |bi, bj| z.block(bi, bj).nnz();
    charge_blocks(m, l, |bi, bj| z_nnz(bi, bj) + updates[l.block_id(bi, bj)]);
    charge_blocks(m, l, z_nnz); // the fire zip
    charge_blocks(m, l, z_nnz); // the pin map
}

/// Zip of `a`'s entries against `b`'s at the same coordinates:
/// `f(i, j, a_val, b_val_opt)` (global coordinates) returning `None`
/// drops the entry. Output shares `a`'s layout. `f` must be pure
/// (`Fn + Sync`): blocks are processed in parallel.
pub fn dmat_zip_filter<Mo, T, U, O>(
    m: &Machine,
    a: &DistMat<T>,
    b: &DistMat<U>,
    f: impl Fn(usize, usize, &T, Option<&U>) -> Option<O> + Sync,
) -> DistMat<O>
where
    Mo: Monoid<Elem = O>,
    T: Clone + Send + Sync,
    U: Clone + Send + Sync,
    O: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    assert_aligned(a, b);
    let l = a.layout();
    let block = |bi, bj| {
        let (r0, c0) = (l.row_range(bi).start, l.col_range(bj).start);
        zip_filter::<Mo, _, _, _>(a.block(bi, bj), b.block(bi, bj), |i, j, v, w| {
            f(r0 + i, c0 + j, v, w)
        })
    };
    blockwise(m, "dmat_zip", l, block, |bi, bj| a.block(bi, bj).nnz())
}

/// Blockwise map-with-filter over a single distributed matrix
/// (global coordinates). `f` must be pure (`Fn + Sync`): blocks are
/// processed in parallel.
pub fn dmat_map_filter<Mo, T, O>(
    m: &Machine,
    a: &DistMat<T>,
    f: impl Fn(usize, usize, &T) -> Option<O> + Sync,
) -> DistMat<O>
where
    Mo: Monoid<Elem = O>,
    T: Clone + Send + Sync,
    O: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    let l = a.layout();
    let block = |bi, bj| {
        let (r0, c0) = (l.row_range(bi).start, l.col_range(bj).start);
        map_filter::<Mo, _, _>(a.block(bi, bj), |i, j, v| f(r0 + i, c0 + j, v))
    };
    blockwise(m, "dmat_map", l, block, |bi, bj| a.block(bi, bj).nnz())
}

/// Global nonzero count with the termination-check allreduce charged
/// (one word per rank over the world group). Fails when the allreduce
/// hits an injected fault.
pub fn nnz_sync<T: Clone + Send + Sync>(
    m: &Machine,
    a: &DistMat<T>,
) -> Result<usize, MachineError> {
    m.charge_collective(&m.world(), CollectiveKind::Allreduce, 8)?;
    Ok(a.nnz())
}

/// Folds every entry of `a` into `acc[column]`, one `f64` addition
/// per entry straight into `acc`, in ascending (column, global row)
/// order: local per-column sums charged in serial block order, plus
/// one sparse reduction of the result vector, charged at its per-rank
/// share (e.g. the per-vertex λ contributions of Algorithm 3, line 5).
/// No buffer per column or per entry is made.
///
/// Unlike summing a batch first and adding the total afterwards, the
/// accumulation order seen by `acc[j]` is exactly "sources in
/// ascending global row order", so splitting a row range across
/// several calls (smaller batches after an OOM retreat, a different
/// batch schedule after replanning) produces bit-identical `acc` to
/// one call over the whole range. The MFBC driver relies on this for
/// its recovered-run == fault-free-run guarantee; no plan's product
/// sums differently for a smaller batch, since every plan orders an
/// output entry's terms by its k cuts alone.
pub fn dmat_fold_columns(
    m: &Machine,
    a: &DistMat<f64>,
    acc: &mut [f64],
) -> Result<(), MachineError> {
    assert_eq!(a.ncols(), acc.len(), "fold target width mismatch");
    let l = a.layout();
    // Parallelized over block-columns: each task owns the disjoint
    // slice of `acc` its columns cover and adds into it walking
    // block-rows in ascending `bi` (CSR iteration is row-major, so
    // each column's additions arrive in ascending global row order).
    let mut slices = Vec::with_capacity(l.bc());
    let mut rest = acc;
    for bj in 0..l.bc() {
        let (slice, tail) = std::mem::take(&mut rest).split_at_mut(l.col_range(bj).len());
        slices.push(Mutex::new(slice));
        rest = tail;
    }
    let (_, stats) = mfbc_parallel::current().par_map_collect_stats(l.bc(), |bj| {
        // Uncontended: task `bj` is the only one that takes slice `bj`.
        let mut slice = slices[bj].lock().expect("a fold task panicked");
        for bi in 0..l.br() {
            for (_, j, v) in a.block(bi, bj).iter() {
                slice[j] += v;
            }
        }
    });
    emit_pool("dmat_colfold", &stats);
    charge_blocks(m, l, |bi, bj| a.block(bi, bj).nnz());
    let bytes = (a.ncols() as u64 * 8).div_ceil(m.p() as u64);
    m.charge_collective(&m.world(), CollectiveKind::SparseReduce, bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2;
    use mfbc_algebra::monoid::{SumF64, SumU64};
    use mfbc_machine::{Group, MachineSpec};
    use mfbc_sparse::Coo;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineSpec::test(p))
    }

    fn dmat(m: &Machine, g: &Csr<u64>) -> DistMat<u64> {
        DistMat::from_global(
            Layout::on_grid(
                g.nrows(),
                g.ncols(),
                &Grid2::new(Group::all(m.p()), 2, 2).unwrap(),
            ),
            g,
        )
    }

    fn sample() -> Csr<u64> {
        Coo::from_triples(4, 4, vec![(0usize, 0usize, 1u64), (1, 2, 3), (3, 3, 7)])
            .into_csr::<SumU64>()
    }

    #[test]
    fn combine_matches_sequential() {
        let m = machine(4);
        let a = sample();
        let b =
            Coo::from_triples(4, 4, vec![(0usize, 0usize, 10u64), (2, 1, 5)]).into_csr::<SumU64>();
        let da = dmat(&m, &a);
        let db = dmat(&m, &b);
        let dc = dmat_combine::<SumU64, _>(&m, &da, &db);
        assert_eq!(dc.to_global::<SumU64>(), combine::<SumU64, _>(&a, &b));
        // Pure local work: no communication charged.
        assert_eq!(m.report().critical.msgs, 0);
        assert!(m.report().critical.comp_time > 0.0);
    }

    #[test]
    fn zip_filter_looks_up_matching_coords() {
        let m = machine(4);
        let a = sample();
        let b =
            Coo::from_triples(4, 4, vec![(0usize, 0usize, 2u64), (3, 3, 7)]).into_csr::<SumU64>();
        let da = dmat(&m, &a);
        let db = dmat(&m, &b);
        // Keep a-entries whose b counterpart equals them.
        let dc = dmat_zip_filter::<SumU64, _, _, u64>(&m, &da, &db, |_, _, av, bv| {
            (bv == Some(av)).then_some(*av)
        });
        let g = dc.to_global::<SumU64>();
        assert_eq!(g.nnz(), 1);
        assert_eq!(g.get(3, 3), Some(&7));
    }

    #[test]
    fn map_filter_uses_global_coords() {
        let m = machine(4);
        let da = dmat(&m, &sample());
        let dc =
            dmat_map_filter::<SumU64, _, u64>(&m, &da, |i, j, v| (i == 3 && j == 3).then_some(*v));
        assert_eq!(dc.nnz(), 1);
        assert_eq!(dc.to_global::<SumU64>().get(3, 3), Some(&7));
    }

    #[test]
    fn nnz_sync_charges_allreduce() {
        let m = machine(4);
        let da = dmat(&m, &sample());
        assert_eq!(nnz_sync(&m, &da).unwrap(), 3);
        assert!(m.report().critical.msgs > 0);
    }

    #[test]
    fn column_sums_match() {
        let m = machine(4);
        let g = Coo::from_triples(
            4,
            4,
            vec![(0usize, 1usize, 2.0f64), (2, 1, 3.0), (3, 0, 1.5)],
        )
        .into_csr::<SumF64>();
        let da = DistMat::from_global(
            Layout::on_grid(4, 4, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let mut sums = vec![0.0f64; 4];
        dmat_fold_columns(&m, &da, &mut sums).unwrap();
        assert_eq!(sums, vec![1.5, 5.0, 0.0, 0.0]);
        let mut acc = vec![1.0f64; 4];
        dmat_fold_columns(&m, &da, &mut acc).unwrap();
        assert_eq!(acc, vec![2.5, 6.0, 1.0, 1.0]);
    }

    #[test]
    fn fold_columns_is_batch_split_invariant() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let (rows, n) = (32, 24);
        let mut coo = Coo::new(rows, n);
        for _ in 0..600 {
            coo.push(
                rng.gen_range(0..rows),
                rng.gen_range(0..n),
                rng.gen::<f64>(),
            );
        }
        let g = coo.into_csr::<SumF64>();
        let m = machine(4);
        let layout = |r: usize| Layout::on_grid(r, n, &Grid2::new(Group::all(4), 2, 2).unwrap());

        let mut whole = vec![0.0f64; n];
        let da = DistMat::from_global(layout(rows), &g);
        dmat_fold_columns(&m, &da, &mut whole).unwrap();

        // Any row-partition folds to bit-identical accumulators.
        for split in [5, 16, 27] {
            let mut parts = vec![0.0f64; n];
            for (lo, hi) in [(0, split), (split, rows)] {
                let slice = mfbc_sparse::slice::slice(&g, lo..hi, 0..n);
                let d = DistMat::from_global(layout(hi - lo), &slice);
                dmat_fold_columns(&m, &d, &mut parts).unwrap();
            }
            let whole_bits: Vec<u64> = whole.iter().map(|v| v.to_bits()).collect();
            let parts_bits: Vec<u64> = parts.iter().map(|v| v.to_bits()).collect();
            assert_eq!(whole_bits, parts_bits, "fold differs for split at {split}");
        }
    }

    /// The fold's body before it added in place: per block column, a
    /// list of contributions per column, pushed walking the block rows
    /// in order, then added into `acc` in the order pushed.
    fn fold_per_column_lists(a: &DistMat<f64>, acc: &mut [f64]) {
        let l = a.layout();
        for bj in 0..l.bc() {
            let cols = l.col_range(bj);
            let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
            for bi in 0..l.br() {
                for (_, j, v) in a.block(bi, bj).iter() {
                    per_col[j].push(*v);
                }
            }
            for (j, contribs) in per_col.into_iter().enumerate() {
                for v in contribs {
                    acc[cols.start + j] += v;
                }
            }
        }
    }

    #[test]
    fn fold_adds_in_the_order_of_per_column_lists() {
        use rand::{Rng, SeedableRng};
        let bits = |acc: &[f64]| acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (seed, (rows, n)) in [(3u64, (37usize, 53usize)), (4, (64, 200)), (5, (9, 31))] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut coo = Coo::new(rows, n);
            for _ in 0..rows * n / 3 {
                // Magnitudes spread over many binades: the sum of a
                // column depends on the order of its additions.
                let v = rng.gen::<f64>() * 10f64.powi(rng.gen_range(-6..7));
                coo.push(rng.gen_range(0..rows), rng.gen_range(0..n), v);
            }
            let g = coo.into_csr::<SumF64>();
            let start: Vec<f64> = (0..n).map(|j| 0.1 * j as f64).collect();
            for p in [1usize, 4, 16] {
                let (g1, g2) = crate::mm::squarest_grid(p);
                let grid = Grid2::new(Group::all(p), g1, g2).unwrap();
                let da = DistMat::from_global(Layout::on_grid(rows, n, &grid), &g);
                let mut want = start.clone();
                fold_per_column_lists(&da, &mut want);
                for threads in [1, 2, 4] {
                    let mut got = start.clone();
                    mfbc_parallel::with_threads(threads, || {
                        dmat_fold_columns(&machine(p), &da, &mut got).unwrap()
                    });
                    let what = format!("seed {seed}, p = {p}, {threads} threads");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn ops_bit_identical_across_thread_counts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = 64;
        let mut ca = Coo::new(n, n);
        let mut cb = Coo::new(n, n);
        for _ in 0..800 {
            ca.push(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen::<f64>());
            cb.push(rng.gen_range(0..n), rng.gen_range(0..n), rng.gen::<f64>());
        }
        let (ga, gb) = (ca.into_csr::<SumF64>(), cb.into_csr::<SumF64>());
        let reference = mfbc_parallel::with_threads(1, || {
            let m = machine(4);
            let layout = Layout::on_grid(n, n, &Grid2::new(Group::all(4), 2, 2).unwrap());
            let da = DistMat::from_global(layout.clone(), &ga);
            let db = DistMat::from_global(layout, &gb);
            let c = dmat_combine::<SumF64, _>(&m, &da, &db);
            let mut sums = vec![0.0f64; n];
            dmat_fold_columns(&m, &c, &mut sums).unwrap();
            (c.to_global::<SumF64>(), sums, m.report().critical.comp_time)
        });
        for threads in [2, 4, 8] {
            let got = mfbc_parallel::with_threads(threads, || {
                let m = machine(4);
                let layout = Layout::on_grid(n, n, &Grid2::new(Group::all(4), 2, 2).unwrap());
                let da = DistMat::from_global(layout.clone(), &ga);
                let db = DistMat::from_global(layout, &gb);
                let c = dmat_combine::<SumF64, _>(&m, &da, &db);
                let mut sums = vec![0.0f64; n];
                dmat_fold_columns(&m, &c, &mut sums).unwrap();
                (c.to_global::<SumF64>(), sums, m.report().critical.comp_time)
            });
            assert_eq!(reference.0, got.0, "combine differs at {threads} threads");
            assert_eq!(
                reference.1, got.1,
                "column sums differ at {threads} threads"
            );
            assert_eq!(
                reference.2.to_bits(),
                got.2.to_bits(),
                "modeled comp_time differs at {threads} threads"
            );
        }
    }
}
