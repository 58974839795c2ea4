//! A sparse matrix that grows in place.
//!
//! [`Table`] is the forward (multpath) table of MFBF while it is being
//! built: every superstep folds a few explored entries into it, and
//! rebuilding a sorted [`Csr`] around each fold would cost `O(nnz(T))`
//! per superstep where Theorem 5.1 prices `O(nnz(explored))`. The
//! table therefore keeps a dense `rows × cols` slot index into an
//! append-only value arena — one lookup per explored entry, no order
//! to maintain — and is sorted exactly once, by [`Table::freeze`].
//!
//! Where output masks read the table's pattern every superstep, the
//! pattern is kept beside it as [`SortedRows`], merged in place.

use crate::csr::{Csr, Idx};
use crate::rows::SortedRows;
use mfbc_algebra::monoid::Monoid;

/// An insert-or-combine table over a fixed `rows × cols` shape.
#[derive(Clone, Debug)]
pub struct Table<T> {
    nrows: usize,
    ncols: usize,
    /// `slot[i * ncols + j]` is 1 + the position of entry `(i, j)` in
    /// `vals`, or 0 where no entry is stored.
    slot: Vec<u32>,
    vals: Vec<T>,
    /// The stored coordinates; kept only on request.
    pattern: Option<SortedRows>,
}

impl<T: Clone> Table<T> {
    /// A table holding `seed`'s entries. With `track_pattern` the
    /// sorted pattern rows are maintained for [`Table::pattern`].
    ///
    /// # Panics
    /// Panics if the shape's area does not fit the slot index.
    pub fn from_csr(seed: &Csr<T>, track_pattern: bool) -> Table<T> {
        let (nrows, ncols) = (seed.nrows(), seed.ncols());
        let area = nrows.checked_mul(ncols).expect("table area overflows");
        assert!(area < u32::MAX as usize, "table area exceeds slot index");
        let mut slot = vec![0u32; area];
        let mut vals = Vec::with_capacity(seed.nnz());
        for (i, j, v) in seed.iter() {
            vals.push(v.clone());
            slot[i * ncols + j] = vals.len() as u32;
        }
        Table {
            nrows,
            ncols,
            slot,
            vals,
            pattern: track_pattern.then(|| SortedRows::of_pattern(seed)),
        }
    }

    /// Table rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Table columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Looks up entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        match self.slot[i * self.ncols + j] {
            0 => None,
            s => Some(&self.vals[s as usize - 1]),
        }
    }

    /// The stored coordinates.
    ///
    /// # Panics
    /// Panics if the table was built without `track_pattern`.
    #[inline]
    pub fn pattern(&self) -> &SortedRows {
        self.pattern.as_ref().expect("table tracks no pattern")
    }

    /// `T := T ⊕ G` in place, and the entries of `G` that `keep` lets
    /// through: per entry `g` of `explored`, the table entry at its
    /// coordinate becomes `g` (absent) or `M::combine(old, g)`
    /// (present), then `keep(g, updated)` decides whether — and as
    /// what — the entry is emitted. `None` and `M`'s identity drop it.
    ///
    /// Equal to `combine::<M>(T, G)` followed by a `zip_filter` of `G`
    /// against the result, at `O(nnz(G))` instead of `O(nnz(T))`, for
    /// operands in normal form (no stored identities) under a monoid
    /// that never combines two non-identities into one — a table entry
    /// is never deleted.
    ///
    /// # Panics
    /// Panics if the shapes disagree.
    pub fn accumulate<M: Monoid<Elem = T>>(
        &mut self,
        explored: &Csr<T>,
        keep: impl Fn(&T, &T) -> Option<T>,
    ) -> Csr<T> {
        assert_eq!(
            (explored.nrows(), explored.ncols()),
            (self.nrows, self.ncols),
            "table accumulate shape mismatch"
        );
        assert!(
            self.nnz() + explored.nnz() < u32::MAX as usize,
            "table entries exceed slot index"
        );
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::with_capacity(explored.nnz());
        let mut kept = Vec::with_capacity(explored.nnz());
        let mut fresh: Vec<Idx> = Vec::new();
        for i in 0..self.nrows {
            let slots = &mut self.slot[i * self.ncols..(i + 1) * self.ncols];
            for (j, g) in explored.row(i) {
                debug_assert!(!M::is_identity(g), "explored entry not in normal form");
                let updated = match slots[j] {
                    0 => {
                        self.vals.push(g.clone());
                        slots[j] = self.vals.len() as u32;
                        fresh.push(j as Idx);
                        &self.vals[self.vals.len() - 1]
                    }
                    s => {
                        let v = &mut self.vals[s as usize - 1];
                        *v = M::combine(v, g);
                        debug_assert!(!M::is_identity(v), "combine deleted a table entry");
                        &*v
                    }
                };
                if let Some(o) = keep(g, updated).filter(|o| !M::is_identity(o)) {
                    colind.push(j as Idx);
                    kept.push(o);
                }
            }
            rowptr.push(colind.len());
            if let Some(p) = &mut self.pattern {
                p.insert(i, &fresh);
            }
            fresh.clear();
        }
        Csr::from_parts(self.nrows, self.ncols, rowptr, colind, kept)
    }

    /// The table as a sorted [`Csr`]: one scan of the slot index.
    pub fn freeze(self) -> Csr<T> {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            let slots = &self.slot[i * self.ncols..(i + 1) * self.ncols];
            for (j, &s) in slots.iter().enumerate() {
                if s != 0 {
                    colind.push(j as Idx);
                    vals.push(self.vals[s as usize - 1].clone());
                }
            }
            rowptr.push(colind.len());
        }
        Csr::from_parts(self.nrows, self.ncols, rowptr, colind, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use mfbc_algebra::monoid::SumU64;

    fn m_u64(n: usize, c: usize, t: &[(usize, usize, u64)]) -> Csr<u64> {
        Coo::from_triples(n, c, t.iter().copied()).into_csr::<SumU64>()
    }

    #[test]
    fn accumulate_inserts_combines_and_filters() {
        let mut t = Table::from_csr(&m_u64(2, 4, &[(0, 1, 10), (1, 3, 20)]), true);
        // (0,1) collides, (0,0) and (1,2) are new; keep only entries
        // whose updated value is odd.
        let g = m_u64(2, 4, &[(0, 0, 3), (0, 1, 5), (1, 2, 4)]);
        let kept = t.accumulate::<SumU64>(&g, |g, t| (t % 2 == 1).then_some(*g));
        assert_eq!(kept, m_u64(2, 4, &[(0, 0, 3), (0, 1, 5)]));
        assert_eq!((t.nnz(), t.get(0, 1), t.get(1, 0)), (4, Some(&15), None));
        assert_eq!(t.pattern().row(0), &[0, 1]);
        assert_eq!(t.pattern().row(1), &[2, 3]);
        let want = m_u64(2, 4, &[(0, 0, 3), (0, 1, 15), (1, 2, 4), (1, 3, 20)]);
        assert_eq!(t.freeze().first_difference(&want), None);
    }

    #[test]
    #[should_panic(expected = "tracks no pattern")]
    fn pattern_is_opt_in() {
        let t = Table::from_csr(&m_u64(1, 2, &[(0, 1, 1)]), false);
        let _ = t.pattern();
    }
}
