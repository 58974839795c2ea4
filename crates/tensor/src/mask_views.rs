//! Test-only reference: the copying masks the distributed views
//! replaced, and the seeded property suite that holds the two equal.
//!
//! Until masks were views, `Simulated` concatenated its table blocks'
//! rows into one global pattern every superstep (`mask_of_blocks`, by
//! way of `Mask::from_sorted_rows`), every plan copied a window of it
//! per output block, and `fully_excluded_cols` counted columns by a
//! scan of the rows. Those bodies live on here as [`Copied`], and every
//! case demands that [`DistTable::mask`] and [`DistMat::pattern_mask`],
//! their windows and windows of those select the same coordinates per
//! row, with equal `pattern_nnz`, bit-equal `allowed_fraction` and
//! equal `fully_excluded_cols`.

use crate::dist::{DistMat, DistTable, Layout};
use crate::mm::canonical_layout;
use mfbc_algebra::monoid::SumU64;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::{gen, property};
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::slice::even_ranges;
use mfbc_sparse::{Coo, Csr, Idx, Mask, MaskKind};
use std::ops::Range;

/// The rank counts whose canonical grids the suite cuts masks by.
const PS: [usize; 7] = [1, 2, 3, 4, 7, 8, 16];

/// A mask as the copying code held it: one owned ascending column list
/// per row.
#[derive(Clone)]
struct Copied {
    kind: MaskKind,
    ncols: usize,
    rows: Vec<Vec<Idx>>,
}

impl Copied {
    /// `mask_of_blocks`: each global row is its blocks' rows end to
    /// end, block columns ascending, shifted to global columns.
    fn mask_of_blocks(
        kind: MaskKind,
        l: &Layout,
        row: impl Fn(usize, usize, usize) -> Vec<Idx>,
    ) -> Copied {
        let mut rows = Vec::with_capacity(l.nrows());
        for bi in 0..l.br() {
            for i in 0..l.row_range(bi).len() {
                let global = (0..l.bc()).flat_map(|bj| {
                    let c0 = l.col_range(bj).start as Idx;
                    row(bi, bj, i).into_iter().map(move |j| c0 + j)
                });
                rows.push(global.collect());
            }
        }
        Copied {
            kind,
            ncols: l.ncols(),
            rows,
        }
    }

    /// The old `Mask::window`: the rectangle copied out and re-based.
    fn window(&self, rows: Range<usize>, cols: Range<usize>) -> Copied {
        let clip = |r: &Vec<Idx>| {
            let inside = r.iter().filter(|&&j| cols.contains(&(j as usize)));
            inside.map(|&j| j - cols.start as Idx).collect()
        };
        Copied {
            kind: self.kind,
            ncols: cols.len(),
            rows: self.rows[rows].iter().map(clip).collect(),
        }
    }

    fn pattern_nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The old `fully_excluded_cols`: a count per column by a scan.
    fn fully_excluded_cols(&self) -> Vec<bool> {
        let mut count = vec![0usize; self.ncols];
        for &j in self.rows.iter().flatten() {
            count[j as usize] += 1;
        }
        match self.kind {
            MaskKind::Structural => count.into_iter().map(|c| c == 0).collect(),
            MaskKind::Complement => count.into_iter().map(|c| c == self.rows.len()).collect(),
        }
    }

    fn allowed_fraction(&self) -> f64 {
        let area = (self.rows.len() * self.ncols).max(1) as f64;
        let in_pattern = self.pattern_nnz() as f64 / area;
        match self.kind {
            MaskKind::Structural => in_pattern,
            MaskKind::Complement => 1.0 - in_pattern,
        }
    }
}

/// Panics unless `view` selects what `copy` does, row by row, and
/// answers the tuner's questions alike.
fn assert_same(view: &Mask, copy: &Copied, what: &str) {
    let shape = (view.kind(), view.nrows(), view.ncols());
    assert_eq!(
        shape,
        (copy.kind, copy.rows.len(), copy.ncols),
        "{what}: shape"
    );
    for (i, want) in copy.rows.iter().enumerate() {
        let got: Vec<Idx> = view.row(i).cols().collect();
        assert_eq!(&got, want, "{what}: row {i}");
    }
    assert_eq!(
        view.pattern_nnz(),
        copy.pattern_nnz(),
        "{what}: pattern_nnz"
    );
    let fractions = (view.allowed_fraction(), copy.allowed_fraction());
    assert_eq!(
        fractions.0.to_bits(),
        fractions.1.to_bits(),
        "{what}: allowed_fraction"
    );
    let excluded = (view.fully_excluded_cols(), copy.fully_excluded_cols());
    assert_eq!(excluded.0, excluded.1, "{what}: fully_excluded_cols");
}

/// A random sub-range of `0..n`, sometimes empty.
fn sub_range(rng: &mut SplitMix64, n: usize) -> Range<usize> {
    let (a, b) = (rng.below(n + 1), rng.below(n + 1));
    a.min(b)..a.max(b)
}

/// The view and the copy, whole and through windows: the 1D column
/// and row splits over `p` ranks (which straddle the canonical grid's
/// cuts), random rectangles, and a random window of each window.
fn assert_views(rng: &mut SplitMix64, view: &Mask, copy: &Copied, p: usize, what: &str) {
    assert_same(view, copy, what);
    let (m, n) = (view.nrows(), view.ncols());
    let mut rects: Vec<_> = even_ranges(n, p).into_iter().map(|c| (0..m, c)).collect();
    rects.extend(even_ranges(m, p).into_iter().map(|r| (r, 0..n)));
    rects.extend((0..4).map(|_| (sub_range(rng, m), sub_range(rng, n))));
    for (rows, cols) in rects {
        let what = format!("{what}, window {rows:?} x {cols:?}");
        let (w, cw) = (
            view.window(rows.clone(), cols.clone()),
            copy.window(rows.clone(), cols.clone()),
        );
        assert_same(&w, &cw, &what);
        let (r, c) = (sub_range(rng, rows.len()), sub_range(rng, cols.len()));
        let inner = format!("{what}, then {r:?} x {c:?}");
        assert_same(&w.window(r.clone(), c.clone()), &cw.window(r, c), &inner);
    }
}

/// A random pattern: from empty to dense, rows sometimes fewer than
/// the grid has block rows, so blocks come out empty.
fn matrix(rng: &mut SplitMix64, nrows: usize, ncols: usize) -> Csr<u64> {
    let nnz = rng.below(nrows * ncols + 1);
    let triples: Vec<_> = gen::coords(rng, nrows, ncols, nnz)
        .into_iter()
        .map(|(i, j)| (i, j, 1 + rng.below(9) as u64))
        .collect();
    Coo::from_triples(nrows, ncols, triples).into_csr::<SumU64>()
}

/// A table's mask: opened tracked on one pattern and grown by another,
/// as a forward step grows it, then read as both kinds.
fn check_table(rng: &mut SplitMix64) {
    let p = *rng.pick(&PS);
    let (nrows, ncols) = (rng.range(1, 12), rng.range(1, 40));
    let l = canonical_layout(&Machine::new(MachineSpec::test(p)), nrows, ncols);
    let seed = DistMat::from_global(l.clone(), &matrix(rng, nrows, ncols));
    let grown = DistMat::from_global(l.clone(), &matrix(rng, nrows, ncols));
    let mut table = DistTable::from_dmat(&seed, true);
    table.update_blocks(|bi, bj, t| t.accumulate::<SumU64>(grown.block(bi, bj), |_, _, _| None));
    let view = table.mask().expect("tracked");
    let row = |bi, bj, i| {
        let block = table.block(bi, bj).mask().expect("tracked");
        block.row(i).cols().collect()
    };
    let copy = Copied::mask_of_blocks(view.kind(), &l, row);
    for view in [view.clone(), view.inverted()] {
        let copy = Copied {
            kind: view.kind(),
            ..copy.clone()
        };
        assert_views(
            rng,
            &view,
            &copy,
            p,
            &format!("table at p={p}, {:?}", view.kind()),
        );
    }
}

/// A matrix's pattern mask, which counts its columns once when built.
fn check_pattern(rng: &mut SplitMix64) {
    let p = *rng.pick(&PS);
    let (nrows, ncols) = (rng.range(1, 12), rng.range(1, 40));
    let l = canonical_layout(&Machine::new(MachineSpec::test(p)), nrows, ncols);
    let dm = DistMat::from_global(l.clone(), &matrix(rng, nrows, ncols));
    let kind = *rng.pick(&[MaskKind::Structural, MaskKind::Complement]);
    let view = dm.pattern_mask(kind);
    let copy = Copied::mask_of_blocks(kind, &l, |bi, bj, i| dm.block(bi, bj).row_cols(i).to_vec());
    assert_views(rng, &view, &copy, p, &format!("pattern at p={p}, {kind:?}"));
}

#[test]
fn table_masks_select_what_their_copies_did() {
    property("table_masks_select_what_their_copies_did", 200, check_table);
}

#[test]
fn pattern_masks_select_what_their_copies_did() {
    property(
        "pattern_masks_select_what_their_copies_did",
        200,
        check_pattern,
    );
}
