//! Elementwise monoid operations on sparse matrices.
//!
//! Implements the paper's `A ⊕ B` (elementwise application of a
//! monoid operator to a pair of matrices, §2.2) plus the whole-table
//! anchored merge MFBr is defined by ([`combine_anchored`]; the sweep
//! itself settles in place, [`crate::Table::settle`]) and
//! `Transform`-style in-structure updates (§6.1's CTF `Transform`).
//! The whole-table merges are row-parallel on the
//! [`mfbc_parallel::current`] pool: rows are split into nnz-balanced
//! contiguous ranges, each range merged by one task, and the chunks
//! concatenated in row order — bit-identical to the serial merge at
//! any thread count.

use crate::csr::{Csr, Idx};
use mfbc_algebra::monoid::Monoid;
use mfbc_parallel::balanced_ranges;

/// Below this total nnz the serial merge wins outright.
const PAR_MIN_NNZ: usize = 1 << 12;

/// Tasks created per pool participant (see `spgemm`).
const TASKS_PER_THREAD: usize = 4;

/// Consecutive output rows as one task builds them:
/// `(row lengths, colind, vals)`.
pub(crate) type RowChunk<T> = (Vec<usize>, Vec<Idx>, Vec<T>);

/// Concatenates per-range chunks, in range order, into a CSR.
pub(crate) fn assemble_rows<T>(nrows: usize, ncols: usize, chunks: Vec<RowChunk<T>>) -> Csr<T> {
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let nnz: usize = chunks.iter().map(|c| c.1.len()).sum();
    let mut colind = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (rowlen, ci, vs) in chunks {
        for len in rowlen {
            rowptr.push(rowptr.last().unwrap() + len);
        }
        colind.extend(ci);
        vals.extend(vs);
    }
    debug_assert_eq!(rowptr.len(), nrows + 1);
    Csr::from_parts(nrows, ncols, rowptr, colind, vals)
}

/// nnz-balanced row ranges for a two-operand row merge.
fn merge_ranges<A, B>(a: &Csr<A>, b: &Csr<B>, nparts: usize) -> Vec<std::ops::Range<usize>> {
    let weights: Vec<u64> = (0..a.nrows())
        .map(|i| 1 + (a.row_nnz(i) + b.row_nnz(i)) as u64)
        .collect();
    balanced_ranges(&weights, nparts)
}

/// Runs a two-operand row merge — serially, or over nnz-balanced row
/// ranges on the pool — and concatenates the chunks in row order.
///
/// # Panics
/// Panics if the shapes disagree.
fn row_merge<T: Send + Sync>(
    a: &Csr<T>,
    b: &Csr<T>,
    what: &str,
    rows: impl Fn(std::ops::Range<usize>) -> RowChunk<T> + Sync,
) -> Csr<T> {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "{what} shape mismatch"
    );
    let pool = mfbc_parallel::current();
    let chunks = if pool.threads() == 1 || a.nnz() + b.nnz() < PAR_MIN_NNZ {
        vec![rows(0..a.nrows())]
    } else {
        let ranges = merge_ranges(a, b, pool.threads() * TASKS_PER_THREAD);
        pool.par_map_collect(ranges.len(), |t| rows(ranges[t].clone()))
    };
    assemble_rows(a.nrows(), a.ncols(), chunks)
}

fn combine_rows<M, T>(a: &Csr<T>, b: &Csr<T>, rows: std::ops::Range<usize>) -> RowChunk<T>
where
    M: Monoid<Elem = T>,
    T: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    let mut rowlen = Vec::with_capacity(rows.len());
    let mut colind: Vec<Idx> = Vec::new();
    let mut vals: Vec<T> = Vec::new();
    for i in rows {
        let (ac, av) = (a.row_cols(i), a.row_vals(i));
        let (bc, bv) = (b.row_cols(i), b.row_vals(i));
        let before = colind.len();
        let (mut x, mut y) = (0usize, 0usize);
        while x < ac.len() || y < bc.len() {
            let take_a = y >= bc.len() || (x < ac.len() && ac[x] < bc[y]);
            let take_b = x >= ac.len() || (y < bc.len() && bc[y] < ac[x]);
            let (col, val) = if take_a {
                let out = (ac[x], av[x].clone());
                x += 1;
                out
            } else if take_b {
                let out = (bc[y], bv[y].clone());
                y += 1;
                out
            } else {
                let out = (ac[x], M::combine(&av[x], &bv[y]));
                x += 1;
                y += 1;
                out
            };
            if !M::is_identity(&val) {
                colind.push(col);
                vals.push(val);
            }
        }
        rowlen.push(colind.len() - before);
    }
    (rowlen, colind, vals)
}

/// `C = A ⊕ B`: a sorted two-pointer merge of each row pair,
/// combining collisions with the monoid and pruning identities.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn combine<M, T>(a: &Csr<T>, b: &Csr<T>) -> Csr<T>
where
    M: Monoid<Elem = T>,
    T: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    row_merge(a, b, "elementwise combine", |rows| {
        combine_rows::<M, T>(a, b, rows)
    })
}

fn combine_anchored_rows<M, T>(
    base: &Csr<T>,
    update: &Csr<T>,
    rows: std::ops::Range<usize>,
) -> RowChunk<T>
where
    M: Monoid<Elem = T>,
    T: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    let mut rowlen = Vec::with_capacity(rows.len());
    let mut colind: Vec<Idx> = Vec::new();
    let mut patched: Vec<T> = Vec::new();
    for i in rows {
        let (bc, bv) = (base.row_cols(i), base.row_vals(i));
        let (uc, uv) = (update.row_cols(i), update.row_vals(i));
        let before = colind.len();
        let mut y = 0usize;
        for (x, &col) in bc.iter().enumerate() {
            while y < uc.len() && uc[y] < col {
                y += 1; // update entry outside base pattern: dropped
            }
            let mut v = bv[x].clone();
            if y < uc.len() && uc[y] == col {
                v = M::combine(&v, &uv[y]);
                y += 1;
            }
            colind.push(col);
            patched.push(v);
        }
        rowlen.push(colind.len() - before);
    }
    (rowlen, colind, patched)
}

/// Merges `update` into `base` *keeping base's sparsity pattern*: an
/// update entry at a position absent from `base` is dropped; matching
/// positions are combined with the monoid.
///
/// This is the "anchored" variant MFBr uses for `Z := Z ⊗ G̃`:
/// back-propagated contributions may land on (source, vertex) pairs
/// with no finite shortest path, where they are inert garbage — the
/// anchored merge discards them instead of storing them.
pub fn combine_anchored<M, T>(base: &Csr<T>, update: &Csr<T>) -> Csr<T>
where
    M: Monoid<Elem = T>,
    T: Clone + PartialEq + Send + Sync + std::fmt::Debug,
{
    row_merge(base, update, "anchored combine", |rows| {
        combine_anchored_rows::<M, T>(base, update, rows)
    })
}

/// Map-with-filter over the stored entries, in row-major order:
/// `f(i, j, a_val)` returning `None` drops the entry, as does an
/// output equal to `Mo`'s identity. Rows are already sorted, so the
/// result is emitted directly in CSR order.
pub fn map_filter<Mo, T, O>(a: &Csr<T>, mut f: impl FnMut(usize, usize, &T) -> Option<O>) -> Csr<O>
where
    Mo: Monoid<Elem = O>,
{
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    // At most every entry survives: reserving that up front trades
    // the doubling-growth copies for one trim at the end.
    let (mut colind, mut vals) = (Vec::with_capacity(a.nnz()), Vec::with_capacity(a.nnz()));
    for i in 0..a.nrows() {
        for (j, v) in a.row(i) {
            if let Some(o) = f(i, j, v).filter(|o| !Mo::is_identity(o)) {
                colind.push(j as Idx);
                vals.push(o);
            }
        }
        rowptr.push(colind.len());
    }
    colind.shrink_to_fit();
    vals.shrink_to_fit();
    Csr::from_parts(a.nrows(), a.ncols(), rowptr, colind, vals)
}

/// Steps `*at` to the first position of the ascending `cols` holding
/// a column `≥ j` and reports whether that column is `j`: one step
/// when the patterns are aligned, a gallop over the stretch between.
#[inline]
fn seek(cols: &[Idx], at: &mut usize, j: Idx) -> bool {
    if *at < cols.len() && cols[*at] < j {
        *at += 1;
        if *at < cols.len() && cols[*at] < j {
            *at += cols[*at..].partition_point(|&c| c < j);
        }
    }
    *at < cols.len() && cols[*at] == j
}

/// Zip of `a`'s entries against `b`'s at the same coordinates:
/// [`map_filter`] with `f(i, j, a_val, b_val_opt)`. A per-row cursor
/// into `b` (`seek`) replaces one binary search per entry.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn zip_filter<Mo, T, U, O>(
    a: &Csr<T>,
    b: &Csr<U>,
    f: impl Fn(usize, usize, &T, Option<&U>) -> Option<O>,
) -> Csr<O>
where
    Mo: Monoid<Elem = O>,
{
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "elementwise zip shape mismatch"
    );
    let (mut row, mut y) = (usize::MAX, 0usize);
    map_filter::<Mo, _, _>(a, |i, j, v| {
        if row != i {
            (row, y) = (i, 0);
        }
        let hit = seek(b.row_cols(i), &mut y, j as Idx).then(|| &b.row_vals(i)[y]);
        f(i, j, v, hit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use mfbc_algebra::monoid::{MinDist, SumU64};
    use mfbc_algebra::Dist;

    fn m_u64(n: usize, c: usize, t: &[(usize, usize, u64)]) -> Csr<u64> {
        Coo::from_triples(n, c, t.iter().copied()).into_csr::<SumU64>()
    }

    #[test]
    fn disjoint_union() {
        let a = m_u64(2, 3, &[(0, 0, 1)]);
        let b = m_u64(2, 3, &[(1, 2, 5)]);
        let c = combine::<SumU64, _>(&a, &b);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(1, 2), Some(&5));
    }

    #[test]
    fn collisions_combined() {
        let a = m_u64(1, 2, &[(0, 0, 1), (0, 1, 2)]);
        let b = m_u64(1, 2, &[(0, 1, 3)]);
        let c = combine::<SumU64, _>(&a, &b);
        assert_eq!(c.get(0, 1), Some(&5));
    }

    #[test]
    fn min_combine_prunes_nothing_needed() {
        let a = Coo::from_triples(1, 2, vec![(0usize, 0usize, Dist::new(9))]).into_csr::<MinDist>();
        let b = Coo::from_triples(1, 2, vec![(0usize, 0usize, Dist::new(4))]).into_csr::<MinDist>();
        let c = combine::<MinDist, _>(&a, &b);
        assert_eq!(c.get(0, 0), Some(&Dist::new(4)));
    }

    #[test]
    fn anchored_merge_drops_foreign_positions() {
        let base = m_u64(1, 4, &[(0, 1, 10), (0, 3, 20)]);
        let upd = m_u64(1, 4, &[(0, 0, 5), (0, 1, 7), (0, 2, 9)]);
        let c = combine_anchored::<SumU64, _>(&base, &upd);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 1), Some(&17));
        assert_eq!(c.get(0, 3), Some(&20));
        assert_eq!(c.get(0, 0), None);
        assert_eq!(c.get(0, 2), None);
    }

    #[test]
    fn combine_is_commutative_for_commutative_monoid() {
        let a = m_u64(2, 2, &[(0, 0, 1), (1, 1, 2)]);
        let b = m_u64(2, 2, &[(0, 0, 3), (1, 0, 4)]);
        assert_eq!(combine::<SumU64, _>(&a, &b), combine::<SumU64, _>(&b, &a));
    }

    fn random_mat(seed: u64, n: usize, c: usize, nnz: usize) -> Csr<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut coo = Coo::new(n, c);
        for _ in 0..nnz {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..c),
                rng.gen_range(1..99u64),
            );
        }
        coo.into_csr::<SumU64>()
    }

    #[test]
    fn zip_and_map_filter_match_lookup_reference() {
        // Patterns that overlap, interleave and leave long b-only
        // stretches; outputs of 0 (SumU64's identity) must be pruned.
        let a = random_mat(7, 40, 300, 900);
        let b = random_mat(8, 40, 300, 4000);
        let f = |i: usize, j: usize, x: &u64, y: Option<&u64>| match y {
            Some(y) if !(i + j).is_multiple_of(3) => Some((x + y) % 5),
            Some(_) => None,
            None => Some(*x % 2),
        };
        let mut want = Coo::new(40, 300);
        for (i, j, x) in a.iter() {
            if let Some(o) = f(i, j, x, b.get(i, j)) {
                want.push(i, j, o);
            }
        }
        let want = want.into_csr::<SumU64>();
        let got = zip_filter::<SumU64, _, _, _>(&a, &b, f);
        assert!(got.nnz() < a.nnz(), "test must exercise pruning");
        assert_eq!(got.first_difference(&want), None);
        let mapped = map_filter::<SumU64, _, _>(&a, |i, j, x| f(i, j, x, b.get(i, j)));
        assert_eq!(mapped.first_difference(&want), None);
    }

    #[test]
    fn parallel_combine_matches_serial_across_threads() {
        let a = random_mat(3, 220, 180, 3000);
        let b = random_mat(4, 220, 180, 3000);
        assert!(a.nnz() + b.nnz() >= PAR_MIN_NNZ);
        let reference = mfbc_parallel::with_threads(1, || combine::<SumU64, _>(&a, &b));
        let anchored_ref = mfbc_parallel::with_threads(1, || combine_anchored::<SumU64, _>(&a, &b));
        for threads in [2, 4, 8] {
            let (c, ca) = mfbc_parallel::with_threads(threads, || {
                (
                    combine::<SumU64, _>(&a, &b),
                    combine_anchored::<SumU64, _>(&a, &b),
                )
            });
            assert_eq!(reference, c, "combine differs at {threads} threads");
            assert_eq!(anchored_ref, ca, "anchored differs at {threads} threads");
        }
    }
}
