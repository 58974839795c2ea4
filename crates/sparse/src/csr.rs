//! Compressed-sparse-row matrices.

use mfbc_algebra::monoid::Monoid;

/// Column/row index type. `u32` halves index memory versus `usize`
/// and covers every graph this simulator targets (n < 2³²); the
/// constructors check the bound.
pub type Idx = u32;

/// A compressed-sparse-row matrix over an arbitrary element type.
///
/// Invariants (checked by [`Csr::validate`], used liberally in tests
/// and debug assertions):
/// * `rowptr.len() == nrows + 1`, `rowptr[0] == 0`, non-decreasing,
///   `rowptr[nrows] == colind.len() == vals.len()`;
/// * within each row, column indices are strictly increasing and
///   `< ncols`.
#[derive(Clone, PartialEq)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<Idx>,
    vals: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty (all-sparse-zero) matrix of the given shape.
    pub fn zero(nrows: usize, ncols: usize) -> Csr<T> {
        assert!(ncols <= Idx::MAX as usize, "ncols exceeds index type");
        Csr {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds from raw parts, validating the CSR invariants.
    ///
    /// # Panics
    /// Panics if any invariant is violated.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<Idx>,
        vals: Vec<T>,
    ) -> Csr<T> {
        let m = Csr {
            nrows,
            ncols,
            rowptr,
            colind,
            vals,
        };
        m.validate().expect("invalid CSR parts");
        m
    }

    /// Checks every structural invariant, returning a description of
    /// the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.ncols > Idx::MAX as usize {
            return Err(format!("ncols {} exceeds index type", self.ncols));
        }
        if self.rowptr.len() != self.nrows + 1 {
            return Err(format!(
                "rowptr length {} != nrows+1 = {}",
                self.rowptr.len(),
                self.nrows + 1
            ));
        }
        if self.rowptr[0] != 0 {
            return Err("rowptr[0] != 0".to_string());
        }
        if *self.rowptr.last().unwrap() != self.colind.len() || self.colind.len() != self.vals.len()
        {
            return Err(format!(
                "rowptr end {} / colind {} / vals {} mismatch",
                self.rowptr.last().unwrap(),
                self.colind.len(),
                self.vals.len()
            ));
        }
        for i in 0..self.nrows {
            if self.rowptr[i] > self.rowptr[i + 1] {
                return Err(format!("rowptr decreases at row {i}"));
            }
            let row = &self.colind[self.rowptr[i]..self.rowptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i} columns not strictly increasing"));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.ncols {
                    return Err(format!("row {i} column {last} out of bounds"));
                }
            }
        }
        Ok(())
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

    /// Number of stored entries (`nnz` in the paper's notation).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Whether no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The row-pointer array.
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Every stored column index, in row-major order.
    #[inline]
    pub fn colind(&self) -> &[Idx] {
        &self.colind
    }

    /// The column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Idx] {
        &self.colind[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// The values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[T] {
        &self.vals[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Every stored value, in row-major order.
    #[inline]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Iterates `(col, &value)` over row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.row_cols(i)
            .iter()
            .zip(self.row_vals(i))
            .map(|(&c, v)| (c as usize, v))
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Looks up entry `(i, j)` by binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let row = self.row_cols(i);
        row.binary_search(&(j as Idx))
            .ok()
            .map(|k| &self.vals[self.rowptr[i] + k])
    }

    /// Iterates all `(row, col, &value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        (0..self.nrows).flat_map(move |i| self.row(i).map(move |(j, v)| (i, j, v)))
    }

    /// Approximate payload bytes (values + column indices), the
    /// quantity the machine layer charges as communication volume.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.nnz() * crate::entry_bytes::<T>()
    }

    /// Maps values, keeping the structure. The mapped type may differ.
    pub fn map<U>(&self, mut f: impl FnMut(usize, usize, &T) -> U) -> Csr<U> {
        let mut vals = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                vals.push(f(i, j, v));
            }
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colind: self.colind.clone(),
            vals,
        }
    }

    /// Retains entries satisfying the predicate — the analogue of
    /// CTF's `Tensor::sparsify()` used to filter the next frontier.
    pub fn filter(&self, mut keep: impl FnMut(usize, usize, &T) -> bool) -> Csr<T>
    where
        T: Clone,
    {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::new();
        let mut vals = Vec::new();
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                if keep(i, j, v) {
                    colind.push(j as Idx);
                    vals.push(v.clone());
                }
            }
            rowptr.push(colind.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            vals,
        }
    }

    /// Drops entries that are identities of the monoid `M` — the
    /// normal form in which all matrices of this workspace live.
    pub fn prune<M>(&self) -> Csr<T>
    where
        M: Monoid<Elem = T>,
        T: Clone,
    {
        self.filter(|_, _, v| !M::is_identity(v))
    }

    /// Describes the first coordinate at which `self` and `other`
    /// disagree — shape, structure, or value — or `None` if equal.
    /// Differential-test helper: a full `assert_eq!` dump of two large
    /// matrices is unreadable; this pinpoints the divergence.
    pub fn first_difference(&self, other: &Csr<T>) -> Option<String>
    where
        T: PartialEq + std::fmt::Debug,
    {
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) {
            return Some(format!(
                "shape {}x{} vs {}x{}",
                self.nrows, self.ncols, other.nrows, other.ncols
            ));
        }
        for i in 0..self.nrows {
            let (lc, rc) = (self.row_cols(i), other.row_cols(i));
            let (lv, rv) = (self.row_vals(i), other.row_vals(i));
            for k in 0..lc.len().max(rc.len()) {
                match (lc.get(k), rc.get(k)) {
                    (Some(&a), Some(&b)) if a != b => {
                        return Some(format!("row {i}: column {a} vs {b} at slot {k}"));
                    }
                    (Some(&a), Some(_)) => {
                        if lv[k] != rv[k] {
                            return Some(format!("entry ({i},{a}): {:?} vs {:?}", lv[k], rv[k]));
                        }
                    }
                    (Some(&a), None) => {
                        return Some(format!("entry ({i},{a})={:?} only on left", lv[k]));
                    }
                    (None, Some(&b)) => {
                        return Some(format!("entry ({i},{b})={:?} only on right", rv[k]));
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        None
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Csr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Csr<{}x{}, nnz={}>{{",
            self.nrows,
            self.ncols,
            self.nnz()
        )?;
        for (i, j, v) in self.iter().take(32) {
            write!(f, " ({i},{j})={v:?}")?;
        }
        if self.nnz() > 32 {
            write!(f, " …")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::monoid::MinDist;
    use mfbc_algebra::Dist;

    fn sample() -> Csr<i32> {
        // [ 1 . 2 ]
        // [ . . . ]
        // [ 3 4 . ]
        Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1, 2, 3, 4])
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 3, 4));
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn get_and_row_iteration() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(&2));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, &3), (1, &4)]);
        let triples: Vec<_> = m.iter().map(|(i, j, v)| (i, j, *v)).collect();
        assert_eq!(triples, vec![(0, 0, 1), (0, 2, 2), (2, 0, 3), (2, 1, 4)]);
    }

    #[test]
    fn zero_matrix() {
        let z = Csr::<i32>::zero(4, 5);
        assert_eq!(z.nnz(), 0);
        assert!(z.validate().is_ok());
        assert!(z.is_empty());
        assert_eq!(z.row(3).count(), 0);
    }

    #[test]
    fn validate_rejects_bad_columns() {
        let m = Csr {
            nrows: 1,
            ncols: 2,
            rowptr: vec![0, 2],
            colind: vec![1, 0], // not increasing
            vals: vec![1, 2],
        };
        assert!(m.validate().is_err());
        let m = Csr {
            nrows: 1,
            ncols: 2,
            rowptr: vec![0, 1],
            colind: vec![5], // out of bounds
            vals: vec![1],
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn map_preserves_structure() {
        let m = sample().map(|_, _, v| v * 10);
        assert_eq!(m.get(2, 1), Some(&40));
        assert_eq!(m.nnz(), 4);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn filter_drops_entries() {
        let m = sample().filter(|_, _, v| *v % 2 == 1);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), Some(&1));
        assert_eq!(m.get(0, 2), None);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn prune_removes_monoid_identities() {
        let m = Csr::from_parts(
            1,
            3,
            vec![0, 3],
            vec![0, 1, 2],
            vec![Dist::new(1), Dist::INF, Dist::new(2)],
        );
        let p = m.prune::<MinDist>();
        assert_eq!(p.nnz(), 2);
        assert_eq!(p.get(0, 1), None);
    }
}
