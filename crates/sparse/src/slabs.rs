//! A right operand read as column slabs side by side.
//!
//! A distributed 1D product that replicates the left operand splits
//! the right one by columns, one slab per rank. Formed where it lands,
//! the product of one band of output rows runs once over every slab:
//! the kernels read row `k` of each slab in turn, at the output column
//! the slab starts at, and count what each slab formed. One matrix is
//! the one-slab case.

use crate::csr::{Csr, Idx};

/// The right operand of a product, as column slabs side by side: slab
/// `s` takes output columns from where slab `s - 1` ends up to
/// [`Slabs::end`]`(s)`.
pub(crate) trait Slabs<R>: Sync {
    /// Rows, shared by every slab.
    fn nrows(&self) -> usize;

    /// Output columns, all slabs together.
    fn ncols(&self) -> usize;

    /// How many slabs.
    fn slabs(&self) -> usize;

    /// The output column slab `s` ends at.
    fn end(&self, s: usize) -> usize;

    /// Stored entries of row `k`, all slabs together.
    fn row_nnz(&self, k: usize) -> usize;

    /// Row `k` of every slab, in slab order: `visit(s, at, cols, vals)`,
    /// the slab's column `j` being output column `at + j`.
    fn row<'a>(&'a self, k: usize, visit: impl FnMut(usize, usize, &'a [Idx], &'a [R]))
    where
        R: 'a;
}

impl<R: Sync> Slabs<R> for Csr<R> {
    #[inline]
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }

    #[inline]
    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }

    #[inline]
    fn slabs(&self) -> usize {
        1
    }

    #[inline]
    fn end(&self, _: usize) -> usize {
        Csr::ncols(self)
    }

    #[inline]
    fn row_nnz(&self, k: usize) -> usize {
        Csr::row_nnz(self, k)
    }

    #[inline]
    fn row<'a>(&'a self, k: usize, mut visit: impl FnMut(usize, usize, &'a [Idx], &'a [R]))
    where
        R: 'a,
    {
        visit(0, 0, self.row_cols(k), self.row_vals(k));
    }
}

/// Matrices of one height side by side, each at the output column it
/// starts at.
#[derive(Clone, Debug)]
pub struct SideBySide<'m, R> {
    slabs: Vec<(usize, &'m Csr<R>)>,
}

impl<'m, R> SideBySide<'m, R> {
    /// `slabs`, each at its first output column.
    ///
    /// # Panics
    /// Panics if there are none, their heights differ, or one does not
    /// start where the one before it ends.
    pub fn new(slabs: Vec<(usize, &'m Csr<R>)>) -> Self {
        let (first, rest) = slabs.split_first().expect("one slab at least");
        assert_eq!(first.0, 0, "the first slab starts at column 0");
        let mut end = first.1.ncols();
        for &(at, m) in rest {
            assert_eq!(at, end, "slabs side by side");
            assert_eq!(m.nrows(), first.1.nrows(), "slabs of one height");
            end += m.ncols();
        }
        SideBySide { slabs }
    }

    /// The slabs, each at its first output column.
    pub fn parts(&self) -> &[(usize, &'m Csr<R>)] {
        &self.slabs
    }
}

impl<R: Sync> Slabs<R> for SideBySide<'_, R> {
    fn nrows(&self) -> usize {
        self.slabs[0].1.nrows()
    }

    fn ncols(&self) -> usize {
        self.end(self.slabs.len() - 1)
    }

    fn slabs(&self) -> usize {
        self.slabs.len()
    }

    #[inline]
    fn end(&self, s: usize) -> usize {
        let (at, m) = self.slabs[s];
        at + m.ncols()
    }

    #[inline]
    fn row_nnz(&self, k: usize) -> usize {
        self.slabs.iter().map(|(_, m)| m.row_nnz(k)).sum()
    }

    #[inline]
    fn row<'a>(&'a self, k: usize, mut visit: impl FnMut(usize, usize, &'a [Idx], &'a [R]))
    where
        R: 'a,
    {
        for (s, &(at, m)) in self.slabs.iter().enumerate() {
            visit(s, at, m.row_cols(k), m.row_vals(k));
        }
    }
}
