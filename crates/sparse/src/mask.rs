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
//! row, and a mask reads it where it lies: over a matrix, over
//! [`SortedRows`], or over a grid of either side by side — the blocks
//! of a distributed matrix ([`Mask::tiled`]). A row is read as
//! [`MaskRow`] *segments*, each a borrowed run of stored columns plus
//! the shift that takes them to the mask's columns. A window
//! ([`Mask::window`]) is a row offset and a column range over the same
//! pattern: nothing is copied, windows of windows compose, and
//! windowing commutes with complementation, so a windowed complement
//! mask is the complement of the windowed pattern.

use crate::csr::{Csr, Idx};
use crate::rows::SortedRows;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// How a mask's pattern selects output coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskKind {
    /// Keep exactly the coordinates *in* the pattern.
    Structural,
    /// Keep exactly the coordinates *not in* the pattern.
    Complement,
}

/// One stored pattern, in its own coordinates.
#[derive(Clone, Debug)]
enum Leaf<'a> {
    /// CSR-style row pointers and ascending columns.
    Flat {
        ncols: usize,
        rowptr: Cow<'a, [usize]>,
        cols: Cow<'a, [Idx]>,
    },
    /// Per-row lists that change between multiplications, and their
    /// per-column counts.
    Rows(&'a SortedRows),
}

impl Leaf<'_> {
    fn nrows(&self) -> usize {
        match self {
            Leaf::Flat { rowptr, .. } => rowptr.len() - 1,
            Leaf::Rows(rows) => rows.nrows(),
        }
    }

    #[inline]
    fn ncols(&self) -> usize {
        match self {
            Leaf::Flat { ncols, .. } => *ncols,
            Leaf::Rows(rows) => rows.ncols(),
        }
    }

    fn nnz(&self) -> usize {
        match self {
            Leaf::Flat { cols, .. } => cols.len(),
            Leaf::Rows(rows) => rows.nnz(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[Idx] {
        match self {
            Leaf::Flat { rowptr, cols, .. } => &cols[rowptr[i]..rowptr[i + 1]],
            Leaf::Rows(rows) => rows.row(i),
        }
    }

    /// Per-column counts of stored coordinates, where the pattern keeps
    /// them.
    fn counts(&self) -> Option<&[u32]> {
        match self {
            Leaf::Flat { .. } => None,
            Leaf::Rows(rows) => Some(rows.col_counts()),
        }
    }
}

/// Stored patterns side by side: block `(bi, bj)` covers rows
/// `row_cuts[bi]..row_cuts[bi + 1]` and columns
/// `col_cuts[bj]..col_cuts[bj + 1]`.
#[derive(Debug)]
struct Tiles<'a> {
    row_cuts: Vec<usize>,
    col_cuts: Vec<usize>,
    /// The blocks, row-major.
    leaves: Vec<Leaf<'a>>,
    /// Per-column counts over all rows: the blocks are borrowed for as
    /// long as the tiles live, so these are taken once.
    counts: Vec<u32>,
}

impl<'a> Tiles<'a> {
    fn new(row_cuts: Vec<usize>, col_cuts: Vec<usize>, leaves: Vec<Leaf<'a>>) -> Tiles<'a> {
        let cut_ok = |c: &[usize]| c.first() == Some(&0) && c.windows(2).all(|w| w[0] <= w[1]);
        assert!(cut_ok(&row_cuts) && cut_ok(&col_cuts), "mask cuts");
        let bc = col_cuts.len() - 1;
        assert_eq!(leaves.len(), (row_cuts.len() - 1) * bc, "mask block count");
        for (id, leaf) in leaves.iter().enumerate() {
            let (bi, bj) = (id / bc, id % bc);
            let want = (
                row_cuts[bi + 1] - row_cuts[bi],
                col_cuts[bj + 1] - col_cuts[bj],
            );
            assert_eq!(
                (leaf.nrows(), leaf.ncols()),
                want,
                "mask block ({bi}, {bj})"
            );
        }
        // Added up from the blocks that keep counts, scanned from the
        // ones that keep none.
        let mut counts = vec![0u32; col_cuts[bc]];
        for (id, leaf) in leaves.iter().enumerate() {
            let c0 = col_cuts[id % bc];
            match leaf.counts() {
                Some(kept) => {
                    for (total, &c) in counts[c0..].iter_mut().zip(kept) {
                        *total += c;
                    }
                }
                None => {
                    for &j in (0..leaf.nrows()).flat_map(|i| leaf.row(i)) {
                        counts[c0 + j as usize] += 1;
                    }
                }
            }
        }
        Tiles {
            row_cuts,
            col_cuts,
            leaves,
            counts,
        }
    }
}

/// Where a mask's pattern lies.
#[derive(Clone, Debug)]
enum Pattern<'a> {
    /// One borrowed pattern.
    One(Leaf<'a>),
    /// An owned pattern or a grid of them, shared by the mask's
    /// windows.
    Tiles(Arc<Tiles<'a>>),
}

/// The column start of a lone pattern.
const ORIGIN: &[usize] = &[0];

/// An output mask: a selection kind plus a sparse coordinate pattern,
/// owned or borrowed for `'a`, seen through a window of it.
#[derive(Clone, Debug)]
pub struct Mask<'a> {
    kind: MaskKind,
    /// The window: rows `row0..row0 + nrows` and columns
    /// `col0..col0 + ncols` of the pattern.
    row0: usize,
    nrows: usize,
    col0: usize,
    ncols: usize,
    pattern: Pattern<'a>,
}

/// Masks are equal when they select the same coordinates the same
/// way, however the pattern is stored.
impl PartialEq for Mask<'_> {
    fn eq(&self, other: &Mask<'_>) -> bool {
        (self.kind, self.nrows, self.ncols) == (other.kind, other.nrows, other.ncols)
            && (0..self.nrows).all(|i| self.row(i).cols().eq(other.row(i).cols()))
    }
}

impl Eq for Mask<'_> {}

/// One row of a [`Mask`]'s pattern, read where it is stored.
#[derive(Clone, Copy, Debug)]
pub struct MaskRow<'m> {
    /// The patterns beside each other along the row, and where each
    /// one's columns start.
    leaves: &'m [Leaf<'m>],
    starts: &'m [usize],
    /// The row within them.
    local: usize,
    /// The window's columns, in the patterns' common coordinates.
    lo: usize,
    hi: usize,
}

impl<'m> MaskRow<'m> {
    /// The row as runs of stored columns, ascending: in a run `cols`
    /// with shift `d`, stored column `j` is mask column
    /// `j.wrapping_add(d)`. Runs are clipped to the window; some may be
    /// empty.
    #[inline]
    pub fn segments(self) -> impl Iterator<Item = (&'m [Idx], Idx)> + Clone {
        let MaskRow {
            leaves,
            starts,
            local,
            lo,
            hi,
        } = self;
        leaves.iter().zip(starts).filter_map(move |(leaf, &c0)| {
            let c1 = c0 + leaf.ncols();
            if c1 <= lo || hi <= c0 {
                return None;
            }
            let mut cols = leaf.row(local);
            if c0 < lo {
                cols = &cols[cols.partition_point(|&j| (j as usize) < lo - c0)..];
            }
            if hi < c1 {
                cols = &cols[..cols.partition_point(|&j| (j as usize) < hi - c0)];
            }
            Some((cols, (c0 as Idx).wrapping_sub(lo as Idx)))
        })
    }

    /// The row's pattern columns, ascending.
    #[inline]
    pub fn cols(self) -> impl Iterator<Item = Idx> + Clone + 'm {
        self.segments()
            .flat_map(|(cols, d)| cols.iter().map(move |&j| j.wrapping_add(d)))
    }

    /// How many columns the row lists.
    pub fn len(self) -> usize {
        self.segments().map(|(cols, _)| cols.len()).sum()
    }

    /// Whether the row lists no column.
    pub fn is_empty(self) -> bool {
        self.segments().all(|(cols, _)| cols.is_empty())
    }

    /// Whether the row lists column `j`.
    pub fn contains(self, j: usize) -> bool {
        let j = j as Idx;
        self.segments()
            .any(|(cols, d)| cols.binary_search(&j.wrapping_sub(d)).is_ok())
    }
}

impl<'a> Mask<'a> {
    fn whole(kind: MaskKind, (nrows, ncols): (usize, usize), pattern: Pattern<'a>) -> Mask<'a> {
        Mask {
            kind,
            row0: 0,
            nrows,
            col0: 0,
            ncols,
            pattern,
        }
    }

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
        let leaf = Leaf::Flat {
            ncols: m.ncols(),
            rowptr: Cow::Borrowed(m.rowptr()),
            cols: Cow::Borrowed(m.colind()),
        };
        Mask::whole(kind, (m.nrows(), m.ncols()), Pattern::One(leaf))
    }

    /// A mask of `kind` over `rows`, read in place.
    pub fn over_rows(kind: MaskKind, rows: &'a SortedRows) -> Mask<'a> {
        let shape = (rows.nrows(), rows.ncols());
        Mask::whole(kind, shape, Pattern::One(Leaf::Rows(rows)))
    }

    /// A mask of `kind` over patterns side by side, read in place:
    /// `blocks` (row-major) are masks over whole patterns, block
    /// `(bi, bj)` covering rows `row_cuts[bi]..row_cuts[bi + 1]` and
    /// columns `col_cuts[bj]..col_cuts[bj + 1]`; their own kinds are
    /// ignored. The mask adds up the blocks' per-column counts once
    /// here (scanning a matrix's pattern, which keeps none), so that
    /// [`Mask::fully_excluded_cols`] reads no pattern.
    ///
    /// # Panics
    /// Panics on cuts that do not start at 0 or that descend, on a
    /// block count or block shape the cuts do not give, or on a block
    /// that is a window or a grid itself.
    pub fn tiled(
        kind: MaskKind,
        row_cuts: Vec<usize>,
        col_cuts: Vec<usize>,
        blocks: impl IntoIterator<Item = Mask<'a>>,
    ) -> Mask<'a> {
        let leaves = blocks.into_iter().map(|b| {
            let whole = b.is_whole();
            match b.pattern {
                Pattern::One(leaf) if whole => leaf,
                _ => panic!("a mask block must be a whole stored pattern"),
            }
        });
        let leaves: Vec<Leaf<'a>> = leaves.collect();
        let shape = (row_cuts[row_cuts.len() - 1], col_cuts[col_cuts.len() - 1]);
        let tiles = Tiles::new(row_cuts, col_cuts, leaves);
        Mask::whole(kind, shape, Pattern::Tiles(Arc::new(tiles)))
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
        let leaf = Leaf::Flat {
            ncols,
            rowptr: Cow::Owned(rowptr),
            cols: Cow::Owned(cols),
        };
        let tiles = Tiles::new(vec![0, nrows], vec![0, ncols], vec![leaf]);
        Mask::whole(kind, (nrows, ncols), Pattern::Tiles(Arc::new(tiles)))
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

    /// The pattern's rows and columns, whatever the window.
    fn pattern_shape(&self) -> (usize, usize) {
        match &self.pattern {
            Pattern::One(leaf) => (leaf.nrows(), leaf.ncols()),
            Pattern::Tiles(t) => (
                t.row_cuts[t.row_cuts.len() - 1],
                t.col_cuts[t.col_cuts.len() - 1],
            ),
        }
    }

    /// Whether the window is all of the pattern.
    fn is_whole(&self) -> bool {
        (self.row0, self.col0) == (0, 0) && (self.nrows, self.ncols) == self.pattern_shape()
    }

    /// Pattern coordinates inside the window: the stored count when the
    /// window is all of the pattern, one clipped read per row
    /// otherwise.
    pub fn pattern_nnz(&self) -> usize {
        match &self.pattern {
            _ if !self.is_whole() => (0..self.nrows).map(|i| self.row(i).len()).sum(),
            Pattern::One(leaf) => leaf.nnz(),
            Pattern::Tiles(t) => t.leaves.iter().map(Leaf::nnz).sum(),
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

    /// Row `i` of the pattern, read where it is stored.
    #[inline]
    pub fn row(&self, i: usize) -> MaskRow<'_> {
        debug_assert!(i < self.nrows, "mask row {i} of {}", self.nrows);
        let (r, lo, hi) = (self.row0 + i, self.col0, self.col0 + self.ncols);
        match &self.pattern {
            Pattern::One(leaf) => MaskRow {
                leaves: std::slice::from_ref(leaf),
                starts: ORIGIN,
                local: r,
                lo,
                hi,
            },
            Pattern::Tiles(t) => {
                let bi = t.row_cuts.partition_point(|&c| c <= r) - 1;
                let bc = t.col_cuts.len() - 1;
                MaskRow {
                    leaves: &t.leaves[bi * bc..(bi + 1) * bc],
                    starts: &t.col_cuts[..bc],
                    local: r - t.row_cuts[bi],
                    lo,
                    hi,
                }
            }
        }
    }

    /// Whether output coordinate `(i, j)` may be produced.
    pub fn allows(&self, i: usize, j: usize) -> bool {
        self.row(i).contains(j) == (self.kind == MaskKind::Structural)
    }

    /// The mask re-based to the sub-rectangle `rows × cols` (same
    /// kind; windowing commutes with complementation): a view of the
    /// same pattern, whatever window this one is. This is how the
    /// distributed multiplication layers carve one global output mask
    /// into per-block masks.
    ///
    /// # Panics
    /// Panics if the rectangle leaves the mask.
    pub fn window(&self, rows: Range<usize>, cols: Range<usize>) -> Mask<'a> {
        assert!(
            rows.start <= rows.end
                && rows.end <= self.nrows
                && cols.start <= cols.end
                && cols.end <= self.ncols,
            "window {rows:?} x {cols:?} of a {}x{} mask",
            self.nrows,
            self.ncols
        );
        Mask {
            kind: self.kind,
            row0: self.row0 + rows.start,
            nrows: rows.len(),
            col0: self.col0 + cols.start,
            ncols: cols.len(),
            pattern: self.pattern.clone(),
        }
    }

    /// Per-column pattern counts over the window's columns, read off
    /// the counts the pattern keeps: `None` where the window leaves
    /// rows out or a lone matrix pattern keeps none.
    fn kept_counts(&self) -> Option<Vec<usize>> {
        if self.row0 != 0 || self.nrows != self.pattern_shape().0 {
            return None;
        }
        let (lo, hi) = (self.col0, self.col0 + self.ncols);
        let widen = |c: &[u32]| c.iter().map(|&x| x as usize).collect();
        match &self.pattern {
            Pattern::One(leaf) => leaf.counts().map(|c| widen(&c[lo..hi])),
            Pattern::Tiles(t) => Some(widen(&t.counts[lo..hi])),
        }
    }

    /// Per-column flags marking columns excluded for *every* output
    /// row: under a structural mask, columns absent from all pattern
    /// rows; under a complement mask, columns present in all of them.
    /// Entries of the right operand in such columns can only feed
    /// skipped products, so redistribution may drop them without
    /// changing any kept output or the `ops` counter. Costs `O(ncols)`
    /// where the pattern keeps per-column counts (a grid's are summed
    /// when it is built) and the window spans its rows, a read of the
    /// window otherwise.
    pub fn fully_excluded_cols(&self) -> Vec<bool> {
        let count = self.kept_counts().unwrap_or_else(|| {
            let mut count = vec![0usize; self.ncols];
            for j in (0..self.nrows).flat_map(|i| self.row(i).cols()) {
                count[j as usize] += 1;
            }
            count
        });
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
            // A window of the window is the window of the composed
            // rectangle.
            assert_eq!(w.window(1..2, 0..2), mask.window(2..3, 1..3));
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
        assert_eq!(m.row(1).cols().collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn over_rows_equals_from_coords() {
        let p = pattern();
        let coords: Vec<(usize, usize)> = p.iter().map(|(i, j, _)| (i, j)).collect();
        let rows = SortedRows::of_pattern(&p);
        for kind in [MaskKind::Structural, MaskKind::Complement] {
            let over = Mask::over_rows(kind, &rows);
            let of = Mask::of_pattern(kind, &p);
            assert_eq!(over, Mask::from_coords(kind, 3, 4, &coords));
            assert_eq!(over, of);
            assert_eq!(over.fully_excluded_cols(), of.fully_excluded_cols());
        }
    }

    /// The pattern cut into a 2 × 3 grid with an empty block column
    /// reads as the pattern does, windows across the cuts included.
    #[test]
    fn a_tiled_mask_reads_its_blocks_as_one_pattern() {
        let p = pattern();
        let (row_cuts, col_cuts) = (vec![0, 2, 3], vec![0, 1, 1, 4]);
        let block = |bi: usize, bj: usize| {
            let (r, c) = (
                row_cuts[bi]..row_cuts[bi + 1],
                col_cuts[bj]..col_cuts[bj + 1],
            );
            let inside = p.iter().filter(|(i, j, _)| r.contains(i) && c.contains(j));
            let triples: Vec<_> = inside
                .map(|(i, j, v)| (i - r.start, j - c.start, *v))
                .collect();
            Coo::from_triples(r.len(), c.len(), triples).into_csr::<SumU64>()
        };
        let blocks: Vec<Csr<u64>> = (0..6).map(|id| block(id / 3, id % 3)).collect();
        for kind in [MaskKind::Structural, MaskKind::Complement] {
            let whole = Mask::of_pattern(kind, &p);
            let of_blocks = blocks.iter().map(|b| Mask::of_pattern(kind, b));
            let tiled = Mask::tiled(kind, row_cuts.clone(), col_cuts.clone(), of_blocks);
            for (rows, cols) in [(0..3, 0..4), (1..3, 1..4), (0..2, 0..3), (2..3, 3..4)] {
                let t = tiled.window(rows.clone(), cols.clone());
                let w = whole.window(rows, cols);
                assert_eq!(t, w);
                assert_eq!(t.pattern_nnz(), w.pattern_nnz());
                assert_eq!(t.fully_excluded_cols(), w.fully_excluded_cols());
            }
        }
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
