//! Sub-matrix extraction and assembly — the analogue of CTF's
//! `Tensor::slice()` (§6.1) and of its block-to-block redistribution
//! kernels (§6.2). One routine, [`stitch`], cuts a window out of any
//! set of disjoint rectangular slabs; [`slice()`] is its one-slab case,
//! and every layout change of the tensor layer is a grid of windows.

use crate::csr::{Csr, Idx};
use std::borrow::Cow;
use std::ops::Range;

/// One source of a [`stitch`]: a matrix whose entry `(i, j)` sits at
/// `(row_off + i, col_off + j)` of the index space the window is cut
/// from. A borrowed slab is copied from; an owned one may be moved.
pub type Slab<'a, T> = (usize, usize, Cow<'a, Csr<T>>);

/// The part of one slab that lies inside a window.
struct Cut {
    /// Index of the slab.
    k: usize,
    /// Slab-local rows and columns inside the window.
    src_rows: Range<usize>,
    src_cols: Range<usize>,
    /// Window-local position of `(src_rows.start, src_cols.start)`.
    out_row: usize,
    out_col: usize,
    /// Entries of the slab inside the window.
    entries: usize,
    /// Where this cut's per-row column spans start in the shared span
    /// list; `None` when `src_cols` spans the slab, so whole rows go.
    spans_at: Option<usize>,
}

/// Where a slab's extent `off..off + len` meets `window`: the
/// slab-local range inside the window and the window-local position
/// where it starts.
fn meet(off: usize, len: usize, window: &Range<usize>) -> (Range<usize>, usize) {
    let lo = off.max(window.start);
    let hi = (off + len).min(window.end).max(lo);
    (lo - off..hi - off, lo - window.start)
}

/// Builds the window `[rows, cols]` of the matrix that the pairwise
/// disjoint `slabs` tile, reindexed to start at `(0, 0)`: the
/// analogue of CTF's block-to-block redistribution kernels (§6.2).
///
/// Slab rows are sorted and slabs are rectangles, so an output row is
/// the concatenation, in column order, of column sub-ranges of slab
/// rows: nothing is located entry by entry and nothing is sorted.
/// Entries `keep` rejects are skipped. Also returns `(slab index,
/// entries)` for every slab with entries inside the window (kept or
/// not) — what a redistribution has to move.
///
/// A slab that *is* the window is handed over whole: cloned when
/// borrowed, moved when owned (an empty `0 × 0` slab is left behind).
///
/// # Panics
/// Panics if overlapping slabs put two entries on one coordinate.
pub fn stitch<T: Clone>(
    rows: Range<usize>,
    cols: Range<usize>,
    slabs: &mut [Slab<'_, T>],
    keep: impl Fn(&T) -> bool,
) -> (Csr<T>, Vec<(usize, usize)>) {
    let (nrows, ncols) = (rows.len(), cols.len());
    let mut cuts: Vec<Cut> = Vec::new();
    // Per row of every column-cut slab: the positions of its sorted
    // columns that fall inside the window, found once by bisection.
    let mut spans: Vec<Range<usize>> = Vec::new();
    for (k, (row_off, col_off, mat)) in slabs.iter().enumerate() {
        let (src_rows, out_row) = meet(*row_off, mat.nrows(), &rows);
        let (src_cols, out_col) = meet(*col_off, mat.ncols(), &cols);
        if src_rows.is_empty() || src_cols.is_empty() {
            continue;
        }
        let mut entries = mat.rowptr()[src_rows.end] - mat.rowptr()[src_rows.start];
        if entries == 0 {
            continue;
        }
        let mut spans_at = None;
        if src_cols != (0..mat.ncols()) {
            spans_at = Some(spans.len());
            spans.extend(src_rows.clone().map(|i| {
                let row = mat.row_cols(i);
                row.partition_point(|&c| (c as usize) < src_cols.start)
                    ..row.partition_point(|&c| (c as usize) < src_cols.end)
            }));
            entries = spans[spans.len() - src_rows.len()..]
                .iter()
                .map(ExactSizeIterator::len)
                .sum();
        }
        if entries > 0 {
            cuts.push(Cut {
                k,
                src_rows,
                src_cols,
                out_row,
                out_col,
                entries,
                spans_at,
            });
        }
    }
    let moved = cuts.iter().map(|c| (c.k, c.entries)).collect();
    if cuts.is_empty() {
        return (Csr::zero(nrows, ncols), moved);
    }
    if let [cut] = &cuts[..] {
        let slab = &mut slabs[cut.k].2;
        if (slab.nrows(), slab.ncols()) == (nrows, ncols)
            && cut.src_rows.len() == nrows
            && cut.spans_at.is_none()
            && slab.vals().iter().all(&keep)
        {
            let whole = match slab {
                Cow::Borrowed(m) => (*m).clone(),
                Cow::Owned(m) => std::mem::replace(m, Csr::zero(0, 0)),
            };
            return (whole, moved);
        }
    }

    // Column order, so that each output row is filled left to right.
    cuts.sort_by_key(|c| c.out_col);
    let reserve = cuts.iter().map(|c| c.entries).sum();
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let mut colind: Vec<Idx> = Vec::with_capacity(reserve);
    let mut vals: Vec<T> = Vec::with_capacity(reserve);
    for i in 0..nrows {
        for cut in &cuts {
            // Rows above the cut wrap around and fail the bound too.
            let at = i.wrapping_sub(cut.out_row);
            if at >= cut.src_rows.len() {
                continue;
            }
            let (mat, src_row) = (&slabs[cut.k].2, cut.src_rows.start + at);
            if mat.row_nnz(src_row) == 0 {
                continue;
            }
            let (row_cols, row_vals) = (mat.row_cols(src_row), mat.row_vals(src_row));
            let span = match cut.spans_at {
                Some(first) => spans[first + at].clone(),
                None => 0..row_cols.len(),
            };
            let seg = row_cols[span.clone()].iter().zip(&row_vals[span]);
            for (c, v) in seg.filter(|(_, v)| keep(v)) {
                colind.push((*c as usize - cut.src_cols.start + cut.out_col) as Idx);
                vals.push(v.clone());
            }
        }
        rowptr.push(colind.len());
    }
    (Csr::from_parts(nrows, ncols, rowptr, colind, vals), moved)
}

/// Extracts the sub-matrix `a[rows, cols]`, reindexed to start at
/// `(0, 0)`.
///
/// # Panics
/// Panics if a range end exceeds the matrix shape.
pub fn slice<T: Clone>(a: &Csr<T>, rows: Range<usize>, cols: Range<usize>) -> Csr<T> {
    assert!(
        rows.end <= a.nrows() && cols.end <= a.ncols(),
        "slice out of bounds"
    );
    stitch(rows, cols, &mut [(0, 0, Cow::Borrowed(a))], |_| true).0
}

/// Splits `0..n` into `parts` contiguous chunks whose sizes differ by
/// at most one — the even block decomposition every distribution in
/// this workspace uses.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts).map(|k| even_range(n, parts, k)).collect()
}

/// Chunk `k` of [`even_ranges`]`(n, parts)`: the first `n % parts`
/// chunks hold one more than the rest.
///
/// # Panics
/// Panics if `parts` is 0.
pub fn even_range(n: usize, parts: usize, k: usize) -> Range<usize> {
    assert!(parts > 0, "cannot split into zero parts");
    let (base, extra) = (n / parts, n % parts);
    let start = k * base + k.min(extra);
    start..start + base + usize::from(k < extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use mfbc_algebra::monoid::SumU64;

    fn m(n: usize, c: usize, t: &[(usize, usize, u64)]) -> Csr<u64> {
        Coo::from_triples(n, c, t.iter().copied()).into_csr::<SumU64>()
    }

    fn sample() -> Csr<u64> {
        m(
            4,
            4,
            &[
                (0, 0, 1),
                (0, 3, 2),
                (1, 1, 3),
                (2, 0, 4),
                (2, 2, 5),
                (3, 3, 6),
            ],
        )
    }

    #[test]
    fn slice_center_block() {
        let s = slice(&sample(), 1..3, 1..3);
        assert_eq!((s.nrows(), s.ncols()), (2, 2));
        assert_eq!(s.get(0, 0), Some(&3)); // was (1,1)
        assert_eq!(s.get(1, 1), Some(&5)); // was (2,2)
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn slice_rows_and_cols() {
        let s = slice(&sample(), 2..4, 0..4);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.get(0, 0), Some(&4));
        let s = slice(&sample(), 0..4, 3..4);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 0), Some(&2));
        assert_eq!(s.get(3, 0), Some(&6));
    }

    #[test]
    fn empty_slice() {
        let s = slice(&sample(), 1..1, 0..4);
        assert_eq!((s.nrows(), s.nnz()), (0, 0));
    }

    #[test]
    fn even_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 7, 16] {
                let rs = even_ranges(n, p);
                assert_eq!(rs.len(), p);
                assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), n);
                let mut prev = 0;
                for r in &rs {
                    assert_eq!(r.start, prev);
                    prev = r.end;
                }
                let sizes: Vec<_> = rs.iter().map(|r| r.len()).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    /// `a` cut along a `br × bc` even grid, as borrowed slabs.
    fn grid_slabs(a: &Csr<u64>, br: usize, bc: usize) -> Vec<(usize, usize, Csr<u64>)> {
        let mut out = Vec::new();
        for r in even_ranges(a.nrows(), br) {
            for c in even_ranges(a.ncols(), bc) {
                out.push((r.start, c.start, slice(a, r.clone(), c)));
            }
        }
        out
    }

    fn borrowed(owned: &[(usize, usize, Csr<u64>)]) -> Vec<Slab<'_, u64>> {
        owned
            .iter()
            .map(|(r, c, m)| (*r, *c, Cow::Borrowed(m)))
            .collect()
    }

    #[test]
    fn stitch_inverts_grid_slicing() {
        let a = sample();
        for (br, bc) in [(1, 1), (3, 1), (1, 3), (2, 3), (4, 4), (5, 7)] {
            let owned = grid_slabs(&a, br, bc);
            let (back, moved) = stitch(0..4, 0..4, &mut borrowed(&owned), |_| true);
            assert_eq!(back, a, "{br}x{bc}");
            let nnz = owned.iter().map(|(_, _, m)| m.nnz()).enumerate();
            let nonempty: Vec<_> = nnz.filter(|&(_, n)| n > 0).collect();
            assert_eq!(moved, nonempty, "{br}x{bc}");
        }
    }

    #[test]
    fn stitch_cuts_windows_that_straddle_slabs() {
        let a = sample();
        let owned = grid_slabs(&a, 2, 2);
        for rows in [0..4, 1..3, 0..1, 3..4, 2..2] {
            for cols in [0..4, 1..3, 1..4, 0..1, 3..3] {
                let (w, moved) =
                    stitch(rows.clone(), cols.clone(), &mut borrowed(&owned), |_| true);
                assert_eq!(
                    w,
                    slice(&a, rows.clone(), cols.clone()),
                    "{rows:?} {cols:?}"
                );
                assert_eq!(moved.iter().map(|m| m.1).sum::<usize>(), w.nnz());
            }
        }
    }

    #[test]
    fn stitch_skips_rejected_entries_but_counts_them() {
        let a = sample();
        let odd = |v: &u64| v % 2 == 1;
        // Cut path and whole-slab path prune alike.
        for (br, bc) in [(2, 2), (1, 1)] {
            let owned = grid_slabs(&a, br, bc);
            let (w, moved) = stitch(0..4, 0..4, &mut borrowed(&owned), odd);
            assert_eq!(w, a.filter(|_, _, v| odd(v)));
            assert_eq!(moved.iter().map(|m| m.1).sum::<usize>(), a.nnz());
        }
    }

    #[test]
    fn stitch_moves_an_owned_slab_that_is_the_window() {
        let a = sample();
        let mut slabs = vec![(0, 0, Cow::Owned(a.clone())), (4, 0, Cow::Owned(a.clone()))];
        let (w, moved) = stitch(4..8, 0..4, &mut slabs, |_| true);
        assert_eq!((w, moved), (a.clone(), vec![(1, 6)]));
        assert_eq!(*slabs[0].2, a);
        assert_eq!((slabs[1].2.nrows(), slabs[1].2.nnz()), (0, 0), "moved out");
    }

    #[test]
    #[should_panic(expected = "invalid CSR parts")]
    fn stitch_rejects_slabs_that_collide() {
        let a = sample();
        let twice = [(0, 0, a.clone()), (0, 0, a)];
        stitch(0..4, 0..4, &mut borrowed(&twice), |_| true);
    }
}
