//! A sparsity pattern that grows and shrinks in place.
//!
//! [`SortedRows`] keeps the stored columns of every row as one
//! ascending list. It is the pattern output masks read every
//! superstep without anything being rebuilt: the forward table's
//! ([`crate::Table`], which only inserts) and MFBr's *pending* set
//! (the entries still waiting on a child, which only shrinks). An
//! update costs the rows it touches, never the whole pattern, and a
//! [`crate::Mask`] borrows the rows as they are. Beside the rows it
//! counts, per column, the rows that store it, so a mask over it tells
//! the columns no row (or every row) stores in `O(ncols)`.

use crate::csr::{Csr, Idx};

/// Per-row ascending column lists over a fixed `rows × cols` shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortedRows {
    ncols: usize,
    nnz: usize,
    rows: Vec<Vec<Idx>>,
    /// How many rows store each column.
    counts: Vec<u32>,
}

/// Per-column counts of the columns `cols` lists.
fn count(ncols: usize, cols: impl IntoIterator<Item = Idx>) -> Vec<u32> {
    let mut counts = vec![0u32; ncols];
    for j in cols {
        counts[j as usize] += 1;
    }
    counts
}

impl SortedRows {
    /// The rows given, each strictly ascending within `ncols` columns.
    ///
    /// # Panics
    /// Panics on an out-of-range column or a row that is not strictly
    /// ascending.
    pub fn from_rows(ncols: usize, rows: impl IntoIterator<Item = Vec<Idx>>) -> SortedRows {
        let rows: Vec<Vec<Idx>> = rows.into_iter().collect();
        for (i, row) in rows.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0] < w[1])
                    && row.last().is_none_or(|&j| (j as usize) < ncols),
                "row {i} not ascending within {ncols} columns"
            );
        }
        SortedRows {
            ncols,
            nnz: rows.iter().map(Vec::len).sum(),
            counts: count(ncols, rows.iter().flatten().copied()),
            rows,
        }
    }

    /// The pattern of `m` (values ignored).
    pub fn of_pattern<T>(m: &Csr<T>) -> SortedRows {
        SortedRows {
            ncols: m.ncols(),
            nnz: m.nnz(),
            rows: (0..m.nrows()).map(|i| m.row_cols(i).to_vec()).collect(),
            counts: count(m.ncols(), m.colind().iter().copied()),
        }
    }

    /// Pattern rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Pattern columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored coordinates.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The stored columns of row `i`, ascending.
    #[inline]
    pub fn row(&self, i: usize) -> &[Idx] {
        &self.rows[i]
    }

    /// How many rows store each column.
    #[inline]
    pub fn col_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Adds the ascending columns `new`, none of them stored yet, to
    /// row `i`: one backward merge over the part of the row at or
    /// beyond `new`'s first column.
    ///
    /// # Panics
    /// Panics on an out-of-range column; debug builds also check that
    /// `new` ascends and is disjoint from the row.
    pub fn insert(&mut self, i: usize, new: &[Idx]) {
        let Some(&last) = new.last() else { return };
        assert!((last as usize) < self.ncols, "column {last} out of range");
        debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "insert not ascending");
        let row = &mut self.rows[i];
        let (mut old, mut w) = (row.len(), row.len() + new.len());
        row.resize(w, 0);
        for &c in new.iter().rev() {
            while old > 0 && row[old - 1] > c {
                w -= 1;
                old -= 1;
                row[w] = row[old];
            }
            debug_assert!(old == 0 || row[old - 1] != c, "column {c} already stored");
            w -= 1;
            row[w] = c;
            self.counts[c as usize] += 1;
        }
        self.nnz += new.len();
    }

    /// Removes the ascending columns `gone`, each shifted by `d`, all
    /// of them stored, from row `i`: one forward compaction from
    /// `gone`'s first column on.
    ///
    /// # Panics
    /// Panics if a column of `gone` is not stored in the row (or
    /// `gone` does not ascend).
    pub fn remove(&mut self, i: usize, gone: &[Idx], d: Idx) {
        let Some(&first) = gone.first() else { return };
        let row = &mut self.rows[i];
        let from = row.partition_point(|&c| c < first + d);
        let (mut w, mut g) = (from, 0);
        for r in from..row.len() {
            if g < gone.len() && row[r] == gone[g] + d {
                g += 1;
            } else {
                row[w] = row[r];
                w += 1;
            }
        }
        assert_eq!(g, gone.len(), "row {i} does not store every removed column");
        row.truncate(w);
        for &c in gone {
            self.counts[(c + d) as usize] -= 1;
        }
        self.nnz -= gone.len();
    }

    /// [`SortedRows::remove`], row by row, of every coordinate `gone`
    /// stores, `gone` being the window whose `(0, 0)` is `(row0, col0)`.
    ///
    /// # Panics
    /// Panics if `gone` reaches past the last row or a coordinate of
    /// `gone` is not stored.
    pub fn remove_window<T>(&mut self, gone: &Csr<T>, row0: usize, col0: Idx) {
        assert!(row0 + gone.nrows() <= self.rows.len(), "remove_window rows");
        for i in 0..gone.nrows() {
            self.remove(row0 + i, gone.row_cols(i), col0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn insert_interleaves_and_remove_undoes_it() {
        let mut p = SortedRows::from_rows(12, [vec![2, 5, 9], vec![]]);
        p.insert(0, &[0, 3, 4, 11]);
        assert_eq!(p.row(0), &[0, 2, 3, 4, 5, 9, 11]);
        p.insert(0, &[]);
        p.insert(1, &[1, 7]);
        assert_eq!((p.row(1), p.nnz()), (&[1, 7][..], 9));
        p.remove(0, &[0, 3, 4, 11], 0);
        p.remove(0, &[], 0);
        assert_eq!((p.row(0), p.nnz()), (&[2, 5, 9][..], 5));
        p.remove(1, &[1, 7], 0);
        assert!(p.row(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not store")]
    fn remove_rejects_a_column_not_stored() {
        SortedRows::from_rows(8, [vec![1, 4]]).remove(0, &[4, 6], 0);
    }

    #[test]
    #[should_panic(expected = "not ascending")]
    fn from_rows_rejects_unsorted_rows() {
        let _ = SortedRows::from_rows(4, [vec![2, 1]]);
    }

    /// Random insert/remove chains against a `BTreeSet` per row: the
    /// rows, the count and the per-column counts after every step.
    #[test]
    fn insert_and_remove_match_a_btreeset_model() {
        const COLS: usize = 64;
        for seed in 0..50u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut rows = SortedRows::from_rows(COLS, vec![Vec::new(); 3]);
            let mut model = vec![BTreeSet::<Idx>::new(); 3];
            for step in 0..60 {
                let i: usize = rng.gen_range(0..3);
                // A random subset of the absent (insert) or present
                // (remove) columns, from empty to all of them.
                let insert = rng.gen_bool(0.55);
                let keep = rng.gen::<f64>();
                let batch: Vec<Idx> = (0..COLS as Idx)
                    .filter(|j| model[i].contains(j) != insert && rng.gen_bool(keep))
                    .collect();
                if insert {
                    rows.insert(i, &batch);
                    model[i].extend(&batch);
                } else {
                    rows.remove(i, &batch, 0);
                    batch.iter().for_each(|j| assert!(model[i].remove(j)));
                }
                for (r, want) in model.iter().enumerate() {
                    let want: Vec<Idx> = want.iter().copied().collect();
                    assert_eq!(rows.row(r), want, "seed {seed} step {step} row {r}");
                }
                let total: usize = model.iter().map(BTreeSet::len).sum();
                assert_eq!(rows.nnz(), total, "seed {seed} step {step}");
                let counts: Vec<u32> = (0..COLS as Idx)
                    .map(|j| model.iter().filter(|row| row.contains(&j)).count() as u32)
                    .collect();
                assert_eq!(rows.col_counts(), counts, "seed {seed} step {step}");
            }
        }
    }
}
