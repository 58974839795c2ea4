//! Output masks for generalized SpGEMM.
//!
//! A [`Mask`] restricts which output coordinates a multiplication may
//! produce, in the GraphBLAS sense: a *structural* mask keeps exactly
//! the coordinates present in its pattern, a *complement* mask keeps
//! exactly the coordinates absent from it. Masked multiplication
//! skips elementary products whose output column is excluded *before*
//! they are formed — they are neither accumulated nor counted in
//! `ops(A,B)` — which is what makes masked push cheaper than
//! multiply-then-filter on sparse frontiers (Burkhardt's algebraic
//! BFS argument).
//!
//! The pattern is structure only (no values), ascending within each
//! row, and a mask over a matrix or over [`SortedRows`] reads it where
//! it lies. Masks are cheap to window into sub-rectangles
//! (the distributed layers re-base one global mask per output block),
//! and windowing commutes with complementation, so a windowed
//! complement mask is the complement of the windowed pattern.

use crate::csr::{Csr, Idx};
use crate::rows::SortedRows;
use std::borrow::Cow;

/// How a mask's pattern selects output coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskKind {
    /// Keep exactly the coordinates *in* the pattern.
    Structural,
    /// Keep exactly the coordinates *not in* the pattern.
    Complement,
}

/// Where a mask's pattern is stored. A mask over a matrix or over
/// [`SortedRows`] borrows the pattern in place, so building one costs
/// nothing and reading it costs the rows that are read.
#[derive(Clone, Debug)]
enum Pattern<'a> {
    /// CSR-style row pointers and ascending columns.
    Flat {
        rowptr: Cow<'a, [usize]>,
        cols: Cow<'a, [Idx]>,
    },
    /// Per-row lists that change between multiplications.
    Rows(&'a SortedRows),
}

/// An output mask: a selection kind plus a sparse coordinate pattern,
/// owned or borrowed for `'a`.
#[derive(Clone, Debug)]
pub struct Mask<'a> {
    kind: MaskKind,
    nrows: usize,
    ncols: usize,
    pattern: Pattern<'a>,
}

/// Masks are equal when they select the same coordinates the same
/// way, however the pattern is stored.
impl PartialEq for Mask<'_> {
    fn eq(&self, other: &Mask<'_>) -> bool {
        (self.kind, self.nrows, self.ncols) == (other.kind, other.nrows, other.ncols)
            && (0..self.nrows).all(|i| self.row_cols(i) == other.row_cols(i))
    }
}

impl Eq for Mask<'_> {}

impl<'a> Mask<'a> {
    /// A structural mask with the pattern of `m` (values ignored).
    pub fn structural_of<T>(m: &'a Csr<T>) -> Mask<'a> {
        Mask::of_pattern(MaskKind::Structural, m)
    }

    /// A complement mask with the pattern of `m` (values ignored).
    pub fn complement_of<T>(m: &'a Csr<T>) -> Mask<'a> {
        Mask::of_pattern(MaskKind::Complement, m)
    }

    /// A mask of `kind` with the pattern of `m` (values ignored),
    /// read in place.
    pub fn of_pattern<T>(kind: MaskKind, m: &'a Csr<T>) -> Mask<'a> {
        Mask {
            kind,
            nrows: m.nrows(),
            ncols: m.ncols(),
            pattern: Pattern::Flat {
                rowptr: Cow::Borrowed(m.rowptr()),
                cols: Cow::Borrowed(m.colind()),
            },
        }
    }

    /// A mask of `kind` over `rows`, read in place.
    pub fn over_rows(kind: MaskKind, rows: &'a SortedRows) -> Mask<'a> {
        Mask {
            kind,
            nrows: rows.nrows(),
            ncols: rows.ncols(),
            pattern: Pattern::Rows(rows),
        }
    }

    fn owned(
        kind: MaskKind,
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        cols: Vec<Idx>,
    ) -> Mask<'a> {
        Mask {
            kind,
            nrows,
            ncols,
            pattern: Pattern::Flat {
                rowptr: Cow::Owned(rowptr),
                cols: Cow::Owned(cols),
            },
        }
    }

    /// Builds a mask from loose coordinates (duplicates tolerated).
    pub fn from_coords(
        kind: MaskKind,
        nrows: usize,
        ncols: usize,
        coords: &[(usize, usize)],
    ) -> Mask<'a> {
        let mut per_row: Vec<Vec<Idx>> = vec![Vec::new(); nrows];
        for &(i, j) in coords {
            assert!(i < nrows && j < ncols, "mask coord ({i},{j}) out of range");
            per_row[i].push(j as Idx);
        }
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut cols = Vec::with_capacity(coords.len());
        for row in &mut per_row {
            row.sort_unstable();
            row.dedup();
            cols.extend_from_slice(row);
            rowptr.push(cols.len());
        }
        Mask::owned(kind, nrows, ncols, rowptr, cols)
    }

    /// Builds a mask from exactly `nrows` rows of strictly ascending
    /// columns — the pattern as sorted storage already holds it, so
    /// nothing is sorted or deduplicated.
    ///
    /// # Panics
    /// Panics on a wrong row count, an out-of-range column or a row
    /// that is not strictly ascending.
    pub fn from_sorted_rows<R>(
        kind: MaskKind,
        nrows: usize,
        ncols: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Mask<'a>
    where
        R: IntoIterator<Item = Idx>,
    {
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut cols: Vec<Idx> = Vec::new();
        for row in rows {
            let start = cols.len();
            for j in row {
                assert!(
                    (j as usize) < ncols && (cols.len() == start || cols[cols.len() - 1] < j),
                    "mask row {} not ascending within {ncols} columns at {j}",
                    rowptr.len() - 1
                );
                cols.push(j);
            }
            rowptr.push(cols.len());
        }
        assert_eq!(rowptr.len(), nrows + 1, "mask row count");
        Mask::owned(kind, nrows, ncols, rowptr, cols)
    }

    /// The selection kind.
    #[inline]
    pub fn kind(&self) -> MaskKind {
        self.kind
    }

    /// Mask rows (must equal the output's rows).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Mask columns (must equal the output's columns).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored pattern coordinates.
    #[inline]
    pub fn pattern_nnz(&self) -> usize {
        match &self.pattern {
            Pattern::Flat { cols, .. } => cols.len(),
            Pattern::Rows(rows) => rows.nnz(),
        }
    }

    /// The same pattern under the opposite kind.
    pub fn inverted(&self) -> Mask<'a> {
        let kind = match self.kind {
            MaskKind::Structural => MaskKind::Complement,
            MaskKind::Complement => MaskKind::Structural,
        };
        Mask {
            kind,
            ..self.clone()
        }
    }

    /// Pattern columns of row `i`, sorted ascending.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Idx] {
        match &self.pattern {
            Pattern::Flat { rowptr, cols } => &cols[rowptr[i]..rowptr[i + 1]],
            Pattern::Rows(rows) => rows.row(i),
        }
    }

    /// Whether output coordinate `(i, j)` may be produced.
    pub fn allows(&self, i: usize, j: usize) -> bool {
        let present = self.row_cols(i).binary_search(&(j as Idx)).is_ok();
        present == (self.kind == MaskKind::Structural)
    }

    /// The mask re-based to the sub-rectangle `rows × cols` (same
    /// kind; windowing commutes with complementation). This is how
    /// the distributed multiplication layers carve one global output
    /// mask into per-block masks.
    pub fn window(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> Mask<'static> {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols);
        let mut rowptr = Vec::with_capacity(rows.len() + 1);
        rowptr.push(0usize);
        let mut out_cols = Vec::new();
        for i in rows.clone() {
            let rc = self.row_cols(i);
            let lo = rc.partition_point(|&j| (j as usize) < cols.start);
            let hi = rc.partition_point(|&j| (j as usize) < cols.end);
            out_cols.extend(rc[lo..hi].iter().map(|&j| j - cols.start as Idx));
            rowptr.push(out_cols.len());
        }
        Mask::owned(self.kind, rows.len(), cols.len(), rowptr, out_cols)
    }

    /// Per-column flags marking columns excluded for *every* output
    /// row: under a structural mask, columns absent from all pattern
    /// rows; under a complement mask, columns present in all of them.
    /// Entries of the right operand in such columns can only feed
    /// skipped products, so redistribution may drop them without
    /// changing any kept output or the `ops` counter.
    pub fn fully_excluded_cols(&self) -> Vec<bool> {
        let mut count = vec![0usize; self.ncols];
        for &j in (0..self.nrows).flat_map(|i| self.row_cols(i)) {
            count[j as usize] += 1;
        }
        match self.kind {
            MaskKind::Structural => count.into_iter().map(|c| c == 0).collect(),
            MaskKind::Complement => count.into_iter().map(|c| c == self.nrows).collect(),
        }
    }

    /// Fraction of the output's coordinates the mask allows — the
    /// density factor the cost model applies to the uniform-sparsity
    /// `ops`/`nnz(C)` estimates.
    pub fn allowed_fraction(&self) -> f64 {
        let area = (self.nrows * self.ncols).max(1) as f64;
        let in_pattern = self.pattern_nnz() as f64 / area;
        match self.kind {
            MaskKind::Structural => in_pattern,
            MaskKind::Complement => 1.0 - in_pattern,
        }
    }

    /// Filters a matrix down to its mask-allowed entries — the
    /// multiply-then-filter oracle the conformance harness compares
    /// masked multiplication against.
    pub fn filter_allowed<T: Clone>(&self, m: &Csr<T>) -> Csr<T> {
        assert_eq!(m.nrows(), self.nrows);
        assert_eq!(m.ncols(), self.ncols);
        m.filter(|i, j, _| self.allows(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use mfbc_algebra::monoid::SumU64;

    fn pattern() -> Csr<u64> {
        Coo::from_triples(
            3,
            4,
            vec![(0usize, 1usize, 1u64), (0, 3, 1), (2, 0, 1), (2, 1, 1)],
        )
        .into_csr::<SumU64>()
    }

    #[test]
    fn structural_allows_pattern_coords_only() {
        let p = pattern();
        let m = Mask::structural_of(&p);
        assert!(m.allows(0, 1) && m.allows(0, 3) && m.allows(2, 0));
        assert!(!m.allows(0, 0) && !m.allows(1, 2) && !m.allows(2, 3));
    }

    #[test]
    fn complement_inverts_structural() {
        let p = pattern();
        let s = Mask::structural_of(&p);
        let c = Mask::complement_of(&p);
        for i in 0..3 {
            for j in 0..4 {
                assert_ne!(s.allows(i, j), c.allows(i, j), "({i},{j})");
            }
        }
        assert_eq!(s.inverted(), c);
    }

    #[test]
    fn window_matches_global_coordinates() {
        let p = pattern();
        for mask in [Mask::structural_of(&p), Mask::complement_of(&p)] {
            let w = mask.window(1..3, 1..4);
            assert_eq!((w.nrows(), w.ncols()), (2, 3));
            for i in 0..2 {
                for j in 0..3 {
                    assert_eq!(w.allows(i, j), mask.allows(i + 1, j + 1), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn fully_excluded_cols_by_kind() {
        let p = pattern();
        // Pattern touches columns 0, 1, 3; column 2 is untouched.
        let s = Mask::structural_of(&p);
        assert_eq!(s.fully_excluded_cols(), vec![false, false, true, false]);
        // Complement: no column is present in all 3 rows.
        let c = Mask::complement_of(&p);
        assert_eq!(c.fully_excluded_cols(), vec![false; 4]);
        // A full column under complement is fully excluded.
        let full_col =
            Coo::from_triples(2, 2, vec![(0usize, 0usize, 1u64), (1, 0, 1)]).into_csr::<SumU64>();
        assert_eq!(
            Mask::complement_of(&full_col).fully_excluded_cols(),
            vec![true, false]
        );
    }

    #[test]
    fn allowed_fraction_by_kind() {
        let p = pattern();
        let s = Mask::structural_of(&p);
        assert_eq!(s.allowed_fraction(), 4.0 / 12.0);
        assert!((s.inverted().allowed_fraction() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn from_coords_dedups_and_sorts() {
        let m = Mask::from_coords(
            MaskKind::Structural,
            2,
            3,
            &[(1, 2), (1, 0), (1, 2), (0, 1)],
        );
        assert_eq!(m.pattern_nnz(), 3);
        assert_eq!(m.row_cols(1), &[0, 2]);
    }

    #[test]
    fn from_sorted_rows_equals_from_coords() {
        let p = pattern();
        let coords: Vec<(usize, usize)> = p.iter().map(|(i, j, _)| (i, j)).collect();
        for kind in [MaskKind::Structural, MaskKind::Complement] {
            let sorted =
                Mask::from_sorted_rows(kind, 3, 4, (0..3).map(|i| p.row_cols(i).iter().copied()));
            assert_eq!(sorted, Mask::from_coords(kind, 3, 4, &coords));
            assert_eq!(sorted, Mask::of_pattern(kind, &p));
        }
    }

    #[test]
    #[should_panic(expected = "not ascending")]
    fn from_sorted_rows_rejects_unsorted_rows() {
        let _ = Mask::from_sorted_rows(MaskKind::Structural, 1, 4, [[2, 1]]);
    }

    #[test]
    fn filter_allowed_is_the_filter_oracle() {
        let a = pattern();
        let m = Mask::from_coords(MaskKind::Structural, 3, 4, &[(0, 1), (2, 1)]);
        let kept = m.filter_allowed(&a);
        assert_eq!(kept.nnz(), 2);
        assert_eq!(kept.get(0, 1), Some(&1));
        assert_eq!(kept.get(0, 3), None);
    }
}
