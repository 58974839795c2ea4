//! Coordinate-format matrices: the construction and redistribution
//! format.
//!
//! CTF stores tensors as index–value pairs during input and
//! redistribution and converts to CSR for multiplication (§6.2); this
//! module plays the same role. Duplicate coordinates are legal in a
//! `Coo` and are combined with a caller-chosen monoid when converting
//! to CSR.

use crate::csr::{Csr, Idx};
use mfbc_algebra::monoid::Monoid;

/// A coordinate-format sparse matrix: an unordered bag of
/// `(row, col, value)` triples, possibly with duplicates.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(Idx, Idx, T)>,
}

impl<T> Coo<T> {
    /// An empty COO matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Coo<T> {
        assert!(nrows <= Idx::MAX as usize, "nrows exceeds index type");
        assert!(ncols <= Idx::MAX as usize, "ncols exceeds index type");
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Builds from triples.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triples(
        nrows: usize,
        ncols: usize,
        triples: impl IntoIterator<Item = (usize, usize, T)>,
    ) -> Coo<T> {
        let mut c = Coo::new(nrows, ncols);
        for (i, j, v) in triples {
            c.push(i, j, v);
        }
        c
    }

    /// Appends a triple.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.nrows && j < self.ncols, "({i},{j}) out of bounds");
        self.entries.push((i as Idx, j as Idx, v));
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triples (duplicates counted).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw triples.
    #[inline]
    pub fn entries(&self) -> &[(Idx, Idx, T)] {
        &self.entries
    }

    /// Merges another COO of the same shape into this one.
    pub fn absorb(&mut self, other: Coo<T>) {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "shape mismatch in Coo::absorb"
        );
        self.entries.extend(other.entries);
    }

    /// Converts to CSR, combining duplicate coordinates with the
    /// monoid `M` and pruning identity entries.
    pub fn into_csr<M>(mut self) -> Csr<T>
    where
        M: Monoid<Elem = T>,
        T: Clone,
    {
        // Sort by (row, col); a stable comparison sort keeps the cost
        // at O(nnz log nnz) without the memory blowup of bucketing.
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));

        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        let mut colind: Vec<Idx> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<T> = Vec::with_capacity(self.entries.len());
        rowptr.push(0usize);
        let mut cur_row: usize = 0;
        let mut prev: Option<(Idx, Idx)> = None;

        for (i, j, v) in self.entries {
            while cur_row < i as usize {
                rowptr.push(colind.len());
                cur_row += 1;
            }
            if prev == Some((i, j)) {
                let acc = vals.last_mut().expect("vals tracks colind");
                M::fold_into(acc, &v);
            } else {
                colind.push(j);
                vals.push(v);
                prev = Some((i, j));
            }
        }
        while cur_row < self.nrows {
            rowptr.push(colind.len());
            cur_row += 1;
        }

        Csr::from_parts(self.nrows, self.ncols, rowptr, colind, vals).prune::<M>()
    }
}

impl<T: Clone> Coo<T> {
    /// Builds a COO view of a CSR matrix.
    pub fn from_csr(m: &Csr<T>) -> Coo<T> {
        let mut c = Coo::new(m.nrows(), m.ncols());
        for (i, j, v) in m.iter() {
            c.push(i, j, v.clone());
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::monoid::{MinDist, SumU64};
    use mfbc_algebra::Dist;

    #[test]
    fn round_trip_csr() {
        let triples = vec![(0, 0, 1u64), (2, 1, 4), (0, 2, 2), (2, 0, 3)];
        let coo = Coo::from_triples(3, 3, triples);
        let csr = coo.into_csr::<SumU64>();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.get(0, 0), Some(&1));
        assert_eq!(csr.get(2, 1), Some(&4));
        let back = Coo::from_csr(&csr).into_csr::<SumU64>();
        assert_eq!(back, csr);
    }

    #[test]
    fn duplicates_are_combined() {
        let coo = Coo::from_triples(2, 2, vec![(0, 1, 3u64), (0, 1, 4), (1, 0, 1), (0, 1, 2)]);
        let csr = coo.into_csr::<SumU64>();
        assert_eq!(csr.get(0, 1), Some(&9));
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn identities_are_pruned() {
        let coo = Coo::from_triples(
            2,
            2,
            vec![
                (0, 0, Dist::new(3)),
                (1, 1, Dist::INF),
                (0, 1, Dist::new(1)),
            ],
        );
        let csr = coo.into_csr::<MinDist>();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(1, 1), None);
    }

    #[test]
    fn min_combines_duplicates() {
        let coo = Coo::from_triples(
            1,
            1,
            vec![
                (0, 0, Dist::new(7)),
                (0, 0, Dist::new(3)),
                (0, 0, Dist::new(5)),
            ],
        );
        let csr = coo.into_csr::<MinDist>();
        assert_eq!(csr.get(0, 0), Some(&Dist::new(3)));
    }

    #[test]
    fn empty_and_trailing_rows() {
        let coo = Coo::from_triples(4, 3, vec![(1, 2, 5u64)]);
        let csr = coo.into_csr::<SumU64>();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.row_nnz(0), 0);
        assert_eq!(csr.row_nnz(1), 1);
        assert_eq!(csr.row_nnz(3), 0);
        assert!(csr.validate().is_ok());
    }

    #[test]
    fn zero_sized_matrices() {
        let coo: Coo<u64> = Coo::new(0, 0);
        let csr = coo.into_csr::<SumU64>();
        assert_eq!((csr.nrows(), csr.ncols(), csr.nnz()), (0, 0, 0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_rejected() {
        let mut coo = Coo::new(2, 2);
        coo.push(2, 0, 1u64);
    }
}
