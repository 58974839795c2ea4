//! A right operand cut into column slabs.
//!
//! A distributed 1D product that replicates the left operand splits
//! the right one by columns, one slab per rank. Formed where it lands,
//! the product of one band of output rows runs once over all the
//! slabs, which stay one matrix in output column ids: the kernels walk
//! row `k` of it once, as one slice, whatever the slab count, and count
//! per output column what each slab formed. One slab is the plain
//! product.

use crate::csr::Csr;
use std::ops::Range;

/// One matrix whose columns are cut into slabs: slab `s` is output
/// columns [`Slabs::cols`]`(s)`, the matrix's own column ids being
/// output columns. Slabs may be empty.
#[derive(Debug)]
pub struct Slabs<'m, R> {
    mat: &'m Csr<R>,
    /// Where slabs `1, 2, …` start; empty for one slab.
    cuts: &'m [usize],
}

impl<R> Clone for Slabs<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Slabs<'_, R> {}

impl<'m, R> Slabs<'m, R> {
    /// `mat`, its columns cut where slabs `1, 2, …` start.
    ///
    /// # Panics
    /// Panics if the cuts descend or pass `mat`'s last column.
    pub fn new(mat: &'m Csr<R>, cuts: &'m [usize]) -> Self {
        let ascending = cuts.windows(2).all(|w| w[0] <= w[1]);
        assert!(
            ascending && cuts.last().is_none_or(|&c| c <= mat.ncols()),
            "column cuts {cuts:?} of a matrix of {} columns",
            mat.ncols()
        );
        Slabs { mat, cuts }
    }

    /// `mat` as one slab.
    pub fn whole(mat: &'m Csr<R>) -> Self {
        Slabs { mat, cuts: &[] }
    }

    /// The matrix, all slabs together.
    pub fn mat(&self) -> &'m Csr<R> {
        self.mat
    }

    /// How many slabs.
    pub fn count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The output column slab `s` ends at.
    #[inline]
    pub fn end(&self, s: usize) -> usize {
        self.cuts.get(s).copied().unwrap_or(self.mat.ncols())
    }

    /// The output columns of slab `s`.
    pub fn cols(&self, s: usize) -> Range<usize> {
        let start = if s == 0 { 0 } else { self.cuts[s - 1] };
        start..self.end(s)
    }

    /// The stored entries of each slab.
    pub fn nnz(&self) -> Vec<usize> {
        let mut nnz = vec![0; self.count()];
        for k in 0..self.mat.nrows() {
            let cols = self.mat.row_cols(k);
            let mut at = 0;
            for (s, n) in nnz.iter_mut().enumerate() {
                let end = self.end(s);
                let to = at + cols[at..].partition_point(|&j| (j as usize) < end);
                *n += to - at;
                at = to;
            }
        }
        nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use mfbc_algebra::monoid::SumU64;

    #[test]
    fn cuts_split_the_columns_and_count_each_slab() {
        let triples = [(0, 0, 1), (0, 4, 1), (1, 2, 1), (1, 5, 1), (2, 5, 1)];
        let m = Coo::from_triples(3, 6, triples).into_csr::<SumU64>();
        let cuts = [2, 2, 5];
        let s = Slabs::new(&m, &cuts);
        assert_eq!(s.count(), 4);
        let cols: Vec<_> = (0..4).map(|s2| s.cols(s2)).collect();
        assert_eq!(cols, [0..2, 2..2, 2..5, 5..6]);
        assert_eq!(s.nnz(), [1, 0, 2, 2]);
        let whole = Slabs::whole(&m);
        assert_eq!(
            (whole.count(), whole.cols(0), whole.nnz()),
            (1, 0..6, vec![5])
        );
    }
}
