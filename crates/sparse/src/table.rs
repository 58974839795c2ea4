//! A sparse matrix that is updated in place.
//!
//! [`Table`] is the forward (multpath) table of MFBF while it is being
//! built: every superstep folds a few explored entries into it, and
//! rebuilding a sorted [`Csr`] around each fold would cost `O(nnz(T))`
//! per superstep where Theorem 5.1 prices `O(nnz(explored))`. The
//! table therefore keeps a dense `rows × cols` slot index into an
//! append-only value arena — one lookup per explored entry, no order
//! to maintain — and is sorted exactly once, by [`Table::freeze`].
//! The explored entries arrive from a matrix's rows
//! ([`Table::accumulate`]) or straight from the accumulator of the
//! product that forms them ([`crate::spgemm_accumulate_panes`]); one
//! body folds them in, appending to the arena and writing slots in
//! place.
//!
//! It is also MFBr's `Z`, which never grows: opened on `T`'s frozen
//! pattern ([`Table::on_pattern`]) — anchored against a materialised
//! child count ([`Table::anchor`]) or counted in place
//! ([`crate::count_children_panes`]) — arena position `p` of `Z` is CSR
//! position `p` of `T`, so an update finds the entry it settles into
//! *and* the `T` entry beside it by one slot lookup
//! ([`Table::settle`]) — from a matrix's rows or straight from the
//! accumulator of the product that forms them
//! ([`crate::spgemm_settle_panes`]).

//!
//! A table opened with tracking also carries the mask of what may
//! still land in it ([`Table::mask`]), as [`SortedRows`] updated in
//! place by the operations that change the answer: while the table
//! grows, the complement of every stored coordinate; once it has been
//! opened as `Z`, the *pending* coordinates — those that have not
//! fired — which [`Table::settle`] shrinks.

use crate::csr::{Csr, Idx};
use crate::mask::{Mask, MaskKind};
use crate::rows::SortedRows;
use mfbc_algebra::monoid::Monoid;
use std::ops::Range;

/// An insert-or-combine table over a fixed `rows × cols` shape.
#[derive(Clone, Debug)]
pub struct Table<T> {
    nrows: usize,
    ncols: usize,
    /// `slot[i * ncols + j]` is 1 + the position of entry `(i, j)` in
    /// `vals`, or 0 where no entry is stored. A table stores each
    /// coordinate at most once, so `vals` never holds more entries
    /// than the area, which [`Table::on_pattern`] keeps below
    /// `u32::MAX`: every slot value fits, however the table grows.
    slot: Vec<u32>,
    vals: Vec<T>,
    /// The rows [`Table::mask`] reads and how it reads them; kept
    /// only on request.
    mask: Option<(MaskKind, SortedRows)>,
}

/// The window of a table that one product's output lands in: output
/// `(i, j)` goes to table entry `(rows.start + i, cols.start + j)`. A
/// product lands in panes side by side — on one rank in one pane over
/// the whole table ([`Pane::whole`]), a band of a distributed product
/// in the blocks of one block row of its table.
#[derive(Debug)]
pub struct Pane<'t, T> {
    /// The table.
    pub table: &'t mut Table<T>,
    /// The table rows the window covers.
    pub rows: Range<usize>,
    /// The table columns the window covers.
    pub cols: Range<usize>,
}

impl<'t, T> Pane<'t, T> {
    /// The whole of `table`.
    pub fn whole(table: &'t mut Table<T>) -> Pane<'t, T> {
        let (rows, cols) = (0..table.nrows, 0..table.ncols);
        Pane { table, rows, cols }
    }
}

/// `v`, as an entry of a table whose pattern is fixed: the sparse-zero
/// convention stores no identity, and a fixed pattern cannot drop one.
pub(crate) fn stored<M: Monoid>(v: M::Elem) -> M::Elem {
    assert!(!M::is_identity(&v), "an identity on a fixed pattern");
    v
}

impl<T: Clone> Table<T> {
    /// A table on `base`'s pattern holding `f(base_val)` at each of its
    /// coordinates, arena position `p` being CSR position `p` of
    /// `base`.
    ///
    /// # Panics
    /// Panics if the shape's area does not fit the slot index.
    pub fn on_pattern<U>(base: &Csr<U>, f: impl FnMut(&U) -> T) -> Table<T> {
        let (nrows, ncols) = (base.nrows(), base.ncols());
        let area = nrows.checked_mul(ncols).expect("table area overflows");
        assert!(area < u32::MAX as usize, "table area exceeds slot index");
        let mut slot = vec![0u32; area];
        for i in 0..nrows {
            let (slots, first) = (&mut slot[i * ncols..(i + 1) * ncols], base.rowptr()[i]);
            for (k, &j) in base.row_cols(i).iter().enumerate() {
                slots[j as usize] = (first + k + 1) as u32;
            }
        }
        Table {
            nrows,
            ncols,
            slot,
            vals: base.vals().iter().map(f).collect(),
            mask: None,
        }
    }

    /// A table holding `seed`'s entries. With `track` it reports the
    /// complement of its stored coordinates as [`Table::mask`].
    ///
    /// # Panics
    /// Panics if the shape's area does not fit the slot index.
    pub fn from_csr(seed: &Csr<T>, track: bool) -> Table<T> {
        let mut table = Table::on_pattern(seed, T::clone);
        table.mask = track.then(|| (MaskKind::Complement, SortedRows::of_pattern(seed)));
        table
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

    /// The outputs a product into this table can still matter at,
    /// read in place: none already stored while the table grows, the
    /// pending ones once it has been opened as `Z`. `None` on a
    /// table opened without tracking.
    #[inline]
    pub fn mask(&self) -> Option<Mask<'_>> {
        let (kind, rows) = self.mask.as_ref()?;
        Some(Mask::over_rows(*kind, rows))
    }

    /// `T := T ⊕ G` in place, and the entries of `G` that `keep` lets
    /// through: per entry `g` of `explored`, the table entry at its
    /// coordinate goes from `before` (`None` where absent) to `g` or
    /// `M::combine(before, g)`, then `keep(g, before, updated)` decides
    /// whether — and as what — the entry is emitted. `None` and `M`'s
    /// identity drop it.
    ///
    /// Equal to `combine::<M>(T, G)` followed by a `zip_filter` of `G`
    /// against the result and the old `T`, at `O(nnz(G))` instead of
    /// `O(nnz(T))`, for operands in normal form (no stored identities)
    /// under a monoid that never combines two non-identities into one
    /// — a table entry is never deleted.
    ///
    /// # Panics
    /// Panics if the shapes disagree.
    pub fn accumulate<M: Monoid<Elem = T>>(
        &mut self,
        explored: &Csr<T>,
        keep: impl Fn(&T, Option<&T>, &T) -> Option<T>,
    ) -> Csr<T> {
        assert_eq!(
            (explored.nrows(), explored.ncols()),
            (self.nrows, self.ncols),
            "table accumulate shape mismatch"
        );
        // No more entries can be kept than are explored.
        let whole = (0..self.nrows, 0..self.ncols);
        let (_, mut sink) = self.grow::<M, _>(&keep, explored.nnz(), whole);
        for i in 0..explored.nrows() {
            for (j, g) in explored.row(i) {
                sink.entry(i, j, g);
            }
            sink.end_row(i);
        }
        let landing = sink.finish();
        self.land(landing).out
    }

    /// The table's mask, and the sink that grows the table with `keep`
    /// — its arena and slot index in place — over the window `rows` ×
    /// `cols`, with room to keep `expect` entries: a product reads the
    /// mask while the sink grows the table.
    pub(crate) fn grow<'a, M, F>(
        &'a mut self,
        keep: &'a F,
        expect: usize,
        (rows, cols): (Range<usize>, Range<usize>),
    ) -> (Option<Mask<'a>>, Accumulate<'a, M, F>)
    where
        M: Monoid<Elem = T>,
    {
        assert!(
            rows.end <= self.nrows && cols.end <= self.ncols,
            "window {rows:?} x {cols:?} of a {}x{} table",
            self.nrows,
            self.ncols
        );
        let mask = self.mask.as_ref();
        let mut rowptr = Vec::with_capacity(rows.len() + 1);
        rowptr.push(0);
        let sink = Accumulate {
            ncols: self.ncols,
            at: (rows.start, cols.start),
            // Window-relative: entry `(i, j)`'s slot is `i * ncols + j`.
            slot: &mut self.slot[rows.start * self.ncols + cols.start..],
            vals: &mut self.vals,
            keep,
            out: Landing {
                shape: (rows.len(), cols.len()),
                kept: (
                    rowptr,
                    Vec::with_capacity(expect),
                    Vec::with_capacity(expect),
                ),
                stored: mask.is_some().then(Default::default),
                received: 0,
            },
        };
        (mask.map(|(kind, rows)| Mask::over_rows(*kind, rows)), sink)
    }

    /// Closes a forward step: the coordinates each row stored for the
    /// first time join the tracked mask, and the kept entries become
    /// the window's matrix as they are.
    pub(crate) fn land(&mut self, landing: Landing<T>) -> Landed<T> {
        if let (Some((_, rows)), Some((ends, cols))) = (&mut self.mask, &landing.stored) {
            let mut lo = 0;
            for &(i, hi) in ends {
                rows.insert(i, &cols[lo..hi]);
                lo = hi;
            }
        }
        let ((nrows, ncols), (rowptr, colind, vals)) = (landing.shape, landing.kept);
        Landed {
            out: Csr::from_parts(nrows, ncols, rowptr, colind, vals),
            received: landing.received,
            pending: None,
        }
    }

    /// Asserts that this table was opened on `side`'s pattern and has
    /// not grown, once per settling pass at `O(rows)`: the shape and
    /// entry count agree, and each row of `side` begins and ends at the
    /// arena positions the slot index gives its first and last column.
    /// A table that never grew holds its arena in row-major order, so
    /// that pins every row's extent and column range; the columns in
    /// between are [`Table::on_pattern`]'s construction, re-checked
    /// per entry in debug builds.
    fn assert_on<U>(&self, side: &Csr<U>) {
        assert_eq!(
            (side.nrows(), side.ncols(), side.nnz()),
            (self.nrows, self.ncols, self.vals.len()),
            "table is not on the side matrix's pattern"
        );
        for i in 0..self.nrows {
            let (lo, hi) = (side.rowptr()[i], side.rowptr()[i + 1]);
            if lo == hi {
                continue;
            }
            let at = |p: usize| self.slot[i * self.ncols + side.colind()[p] as usize] as usize;
            assert!(
                at(lo) == lo + 1 && at(hi - 1) == hi,
                "table is not on the side matrix's pattern (row {i})"
            );
        }
    }

    /// Every row of a table opened on `side`'s pattern, with `side`
    /// beside it, and the table's mask apart from both: a product
    /// reads the mask while its sinks write the rows.
    ///
    /// # Panics
    /// Panics if the table is not on `side`'s pattern.
    pub(crate) fn lend<'a, U>(
        &'a mut self,
        side: &'a Csr<U>,
    ) -> (Option<Mask<'a>>, Rows<'a, T, U>) {
        self.assert_on(side);
        let mask = self.mask.as_ref();
        let rows = Rows {
            nrows: self.nrows,
            ncols: self.ncols,
            slot: &self.slot,
            first: 0,
            vals: &mut self.vals,
            side,
        };
        (mask.map(|(kind, rows)| Mask::over_rows(*kind, rows)), rows)
    }

    /// What fired is no longer pending: `fired` is the window at
    /// `(row0, col0)`.
    pub(crate) fn retire(&mut self, fired: &Csr<T>, (row0, col0): (usize, usize)) {
        if let Some((MaskKind::Structural, pending)) = &mut self.mask {
            pending.remove_window(fired, row0, col0 as Idx);
        }
    }

    /// Algorithm 2, lines 1–4, from a materialised `other`: the table
    /// on `base`'s pattern holding `init(base_val, other_val_opt)`,
    /// after `fire(&mut value, base_val)` has had its one chance to
    /// rewrite each entry and emit an entry of the matrix returned
    /// beside it. With `track`, the coordinates `fire` returned `None`
    /// on are *pending*, and [`Table::mask`] reports them from here on.
    ///
    /// Equal to a [`crate::elementwise::zip_filter`] of `base` against
    /// `other`, a second of the result against `base` and a map over
    /// it (MFBr's anchor, leaf and pin passes), provided the hook
    /// leaves an entry it does not fire on alone.
    ///
    /// # Panics
    /// Panics if the shapes disagree, or `init` or `fire` produces
    /// `M`'s identity.
    pub fn anchor<M, U>(
        base: &Csr<U>,
        other: &Csr<T>,
        init: impl Fn(&U, Option<&T>) -> T,
        fire: impl Fn(&mut T, &U) -> Option<T>,
        track: bool,
    ) -> (Table<T>, Csr<T>)
    where
        M: Monoid<Elem = T>,
    {
        let shape = (base.nrows(), base.ncols());
        assert_eq!(shape, (other.nrows(), other.ncols()), "anchor shape");
        let mut z = Table::on_pattern(base, |a| stored::<M>(init(a, None)));
        let mut leaves = Leaves::new(shape.0, 0, track, 0);
        let (_, mut rows) = z.lend(base);
        for i in 0..shape.0 {
            rows.anchor_row::<M>(i, other.row(i), &init);
            let (cols, vals, side) = rows.row(i);
            leaves.row::<M, U>(cols, vals, side, &fire);
        }
        let fired = Leaves::join([leaves], shape);
        z.pend(fired.pending);
        (z, fired.out)
    }

    /// Closes the opening of `Z`: with tracking, `pending` — per row,
    /// the ascending columns that wait — is the mask from here on.
    ///
    /// # Panics
    /// Panics if `pending` has another row count or a row that does
    /// not ascend within the table's columns.
    pub fn pend(&mut self, pending: Option<Vec<Vec<Idx>>>) {
        if let Some(rows) = &pending {
            assert_eq!(rows.len(), self.nrows, "pending rows");
        }
        let ncols = self.ncols;
        self.mask = pending.map(|rows| (MaskKind::Structural, SortedRows::from_rows(ncols, rows)));
    }

    /// `Z := Z ⊗ G` in place on the table's fixed pattern — `side`'s,
    /// which it was opened on — with a hook on the entries just
    /// touched: per entry `g` of `update` whose coordinate the table
    /// stores, the stored value becomes `M::combine(old, g)` and
    /// `fire(&mut value, side_val)` may rewrite it once more and emit
    /// an entry of the matrix returned, which is then no longer
    /// pending. Updates outside the pattern are dropped.
    ///
    /// Equal to [`crate::elementwise::combine_anchored`] followed by a
    /// [`crate::elementwise::zip_filter`] against `side` and a map
    /// over `Z`, provided the hook leaves untouched entries alone in
    /// that composition too — at `O(nnz(G))` instead of `O(nnz(Z))`.
    ///
    /// # Panics
    /// Panics if the shapes disagree, the table is not on `side`'s
    /// pattern, or `fire` emits `M`'s identity.
    pub fn settle<M, U>(
        &mut self,
        update: &Csr<T>,
        side: &Csr<U>,
        fire: impl Fn(&mut T, &U) -> Option<T>,
    ) -> Csr<T>
    where
        M: Monoid<Elem = T>,
    {
        let shape = (self.nrows, self.ncols);
        assert_eq!(shape, (update.nrows(), update.ncols()), "settle shape");
        // No more entries can fire than are updated.
        let rows = self.lend(side).1;
        let mut settle = Settle::<M, U, _>::new(rows, &fire, update.nnz(), (0, 0), false);
        for i in 0..shape.0 {
            update.row(i).for_each(|(j, g)| settle.entry(i, j, g));
            settle.end_row(i);
        }
        let fired = Leaves::join([settle.fired], shape).out;
        self.retire(&fired, (0, 0));
        fired
    }

    /// The table as a sorted [`Csr`]: one scan of the slot index. A
    /// table that never grew past the pattern it was opened on holds
    /// its arena in that order already and gives it up as it is.
    pub fn freeze(self) -> Csr<T> {
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        rowptr.push(0usize);
        let mut colind = Vec::with_capacity(self.nnz());
        // The values in row-major order, once the arena stops being so.
        let mut sorted: Option<Vec<T>> = None;
        for i in 0..self.nrows {
            let slots = &self.slot[i * self.ncols..(i + 1) * self.ncols];
            for (j, &s) in slots.iter().enumerate().filter(|(_, &s)| s != 0) {
                let (at, from) = (colind.len(), s as usize - 1);
                colind.push(j as Idx);
                if sorted.is_none() && from != at {
                    let mut head = Vec::with_capacity(self.nnz());
                    head.extend_from_slice(&self.vals[..at]);
                    sorted = Some(head);
                }
                if let Some(vals) = &mut sorted {
                    vals.push(self.vals[from].clone());
                }
            }
            rowptr.push(colind.len());
        }
        let vals = sorted.unwrap_or(self.vals);
        Csr::from_parts(self.nrows, self.ncols, rowptr, colind, vals)
    }
}

/// What a forward step leaves for [`Table::land`].
pub(crate) struct Landing<T> {
    /// The window's shape.
    shape: (usize, usize),
    /// The entries `keep` let through: `rowptr` from 0, `colind`,
    /// `vals`, in window coordinates.
    kept: (Vec<usize>, Vec<Idx>, Vec<T>),
    /// With a tracked mask: per row that stored new coordinates, the
    /// table row and the end of its table columns in the list beside.
    stored: Option<(Vec<(usize, usize)>, Vec<Idx>)>,
    /// The explored entries fed in.
    received: usize,
}

/// What a product left in one window of a table, and what it emitted
/// there: the output of one pane ([`crate::Pane`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Landed<T> {
    /// What the window emitted — the entries `keep` let through, or
    /// those `fire` emitted — in window coordinates.
    pub out: Csr<T>,
    /// How many product entries landed in the window (for an opening
    /// count: how many entries the count product would have held).
    pub received: usize,
    /// After an opening count with tracking: per window row, the table
    /// columns that wait. [`Table::pend`] takes them, joined per table
    /// row.
    pub pending: Option<Vec<Vec<Idx>>>,
}

/// A table's body as a sink that a product's or a matrix's entries are
/// fed to row by row: each row's entries, in the coordinates of the
/// window the sink was opened on, then the row's close.
pub(crate) trait Sink {
    /// The monoid of the entries.
    type M: Monoid;
    /// Whether a row's entries must arrive in column order.
    const ORDERED: bool;
    /// Entry `(i, j)` (not an identity) of the row being fed.
    fn entry(&mut self, i: usize, j: usize, g: &<Self::M as Monoid>::Elem);
    /// Closes row `i`.
    fn end_row(&mut self, i: usize);
}

/// [`Table::accumulate`]'s body, as a sink that explored entries are
/// fed to row by row, in column order within a row: what `keep` lets
/// through collects, row for row. Entries arrive in the coordinates of
/// the window the sink was opened on. The mask a product runs under is
/// borrowed while the sink grows the table, so the coordinates it
/// newly stores wait for [`Table::land`].
pub(crate) struct Accumulate<'a, M: Monoid, F> {
    ncols: usize,
    /// The table position of the window's `(0, 0)`.
    at: (usize, usize),
    /// The slot index from the window's `(0, 0)` on.
    slot: &'a mut [u32],
    vals: &'a mut Vec<M::Elem>,
    keep: &'a F,
    /// What the rows fed so far leave.
    out: Landing<M::Elem>,
}

impl<M, F> Sink for Accumulate<'_, M, F>
where
    M: Monoid,
    F: Fn(&M::Elem, Option<&M::Elem>, &M::Elem) -> Option<M::Elem>,
{
    type M = M;
    const ORDERED: bool = true;

    /// The one accumulate body: `g` is entry `(i, j)` of `G`'s window.
    #[inline]
    fn entry(&mut self, i: usize, j: usize, g: &M::Elem) {
        debug_assert!(!M::is_identity(g), "explored entry not in normal form");
        self.out.received += 1;
        let slot = &mut self.slot[i * self.ncols + j];
        let emitted = match *slot {
            0 => {
                self.vals.push(g.clone());
                // Fits: see `Table::slot`.
                *slot = self.vals.len() as u32;
                if let Some((_, cols)) = &mut self.out.stored {
                    cols.push((self.at.1 + j) as Idx);
                }
                (self.keep)(g, None, &self.vals[self.vals.len() - 1])
            }
            s => {
                let v = &mut self.vals[s as usize - 1];
                let updated = M::combine(v, g);
                debug_assert!(!M::is_identity(&updated), "combine deleted a table entry");
                let emitted = (self.keep)(g, Some(v), &updated);
                *v = updated;
                emitted
            }
        };
        if let Some(o) = emitted.filter(|o| !M::is_identity(o)) {
            self.out.kept.1.push(j as Idx);
            self.out.kept.2.push(o);
        }
    }

    #[inline]
    fn end_row(&mut self, i: usize) {
        let Landing { kept, stored, .. } = &mut self.out;
        kept.0.push(kept.1.len());
        if let Some((ends, cols)) = stored {
            if ends.last().map_or(0, |&(_, hi)| hi) < cols.len() {
                ends.push((self.at.0 + i, cols.len()));
            }
        }
    }
}

impl<M: Monoid, F> Accumulate<'_, M, F> {
    /// What is left to land.
    pub(crate) fn finish(self) -> Landing<M::Elem> {
        self.out
    }
}

/// Consecutive rows of a table opened on `side`'s pattern, with the
/// part of the arena that holds them: the rows one task owns.
pub(crate) struct Rows<'a, T, U> {
    nrows: usize,
    ncols: usize,
    slot: &'a [u32],
    /// Arena position of `vals[0]`.
    first: usize,
    vals: &'a mut [T],
    side: &'a Csr<U>,
}

impl<'a, T, U> Rows<'a, T, U> {
    /// The row ranges `ranges` (ascending, disjoint) of a window of
    /// these rows whose row 0 is row `row0`: what each task of a
    /// row-parallel product settles into.
    ///
    /// # Panics
    /// Panics if the ranges are out of order.
    pub(crate) fn split(self, ranges: &[Range<usize>], row0: usize) -> Vec<Rows<'a, T, U>> {
        let (ncols, slot, side) = (self.ncols, self.slot, self.side);
        let (mut rest, mut at) = (self.vals, self.first);
        let part = |r: &Range<usize>| {
            let (lo, hi) = (side.rowptr()[row0 + r.start], side.rowptr()[row0 + r.end]);
            assert!(at <= lo && lo <= hi, "row ranges out of order");
            let (vals, tail) = std::mem::take(&mut rest)[lo - at..].split_at_mut(hi - lo);
            (rest, at) = (tail, hi);
            Rows {
                nrows: r.len(),
                ncols,
                slot,
                first: lo,
                vals,
                side,
            }
        };
        ranges.iter().map(part).collect()
    }

    /// Entry `(i, j)` of the table and the `side` entry beside it.
    #[inline]
    fn at(&mut self, i: usize, j: usize) -> Option<(&mut T, &U)> {
        let p = match self.slot[i * self.ncols + j] {
            0 => return None,
            s => s as usize - 1,
        };
        debug_assert_eq!(self.side.colind()[p] as usize, j, "table not on side");
        Some((&mut self.vals[p - self.first], &self.side.vals()[p]))
    }

    /// Row `i`: its columns, its entries and the `side` entries beside
    /// them, in `side`'s column order.
    #[inline]
    pub(crate) fn row(&mut self, i: usize) -> (&'a [Idx], &mut [T], &'a [U]) {
        let (side, span) = (self.side, self.side.rowptr()[i]..self.side.rowptr()[i + 1]);
        let vals = &mut self.vals[span.start - self.first..span.end - self.first];
        (&side.colind()[span.clone()], vals, &side.vals()[span])
    }

    /// One row of [`Table::anchor`]: `init(side_val, Some(found_val))`
    /// over what was `found` in row `i`, in any order; coordinates
    /// outside the pattern are dropped.
    pub(crate) fn anchor_row<'f, M>(
        &mut self,
        i: usize,
        found: impl Iterator<Item = (usize, &'f T)>,
        init: &impl Fn(&U, Option<&T>) -> T,
    ) where
        M: Monoid<Elem = T>,
        T: 'f,
    {
        for (j, d) in found {
            if let Some((zv, sv)) = self.at(i, j) {
                *zv = stored::<M>(init(sv, Some(d)));
            }
        }
    }
}

/// What fires over one task's rows of a window of `Z`, row for row —
/// opening it or settling into it — and, with tracking, the table
/// columns of each row that wait: the rows of the pending mask.
/// [`Leaves::join`] closes a window from these.
pub(crate) struct Leaves<T> {
    /// `rowptr` from 0, `colind` (window columns), `vals`.
    fired: (Vec<usize>, Vec<Idx>, Vec<T>),
    pending: Option<Vec<Vec<Idx>>>,
    /// The table column of the window's column 0.
    col0: usize,
}

impl<T> Leaves<T> {
    /// Room for `nrows` rows, and for `expect` entries to fire before
    /// a vector has to grow, of a window whose column 0 is table column
    /// `col0`.
    pub(crate) fn new(nrows: usize, expect: usize, track: bool, col0: usize) -> Leaves<T> {
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0);
        Leaves {
            fired: (
                rowptr,
                Vec::with_capacity(expect),
                Vec::with_capacity(expect),
            ),
            pending: track.then(|| Vec::with_capacity(nrows)),
            col0,
        }
    }

    /// The next row: `fire(&mut value, side_val)` on each of its
    /// entries — `vals` at table columns `cols`, `side` beside them —
    /// in column order.
    ///
    /// # Panics
    /// Panics if `fire` emits `M`'s identity.
    #[inline]
    pub(crate) fn row<M, U>(
        &mut self,
        cols: &[Idx],
        vals: &mut [T],
        side: &[U],
        fire: &impl Fn(&mut T, &U) -> Option<T>,
    ) where
        M: Monoid<Elem = T>,
    {
        let (rowptr, colind, fired) = &mut self.fired;
        // At most the whole row waits: reserved once, not grown.
        let track = self.pending.is_some();
        let mut waits: Vec<Idx> = Vec::with_capacity(if track { cols.len() } else { 0 });
        for ((&j, v), s) in cols.iter().zip(vals).zip(side) {
            match fire(v, s) {
                Some(o) => {
                    colind.push(j - self.col0 as Idx);
                    fired.push(stored::<M>(o));
                }
                None if track => waits.push(j),
                None => {}
            }
        }
        rowptr.push(colind.len());
        if let Some(p) = &mut self.pending {
            p.push(waits);
        }
    }

    /// One window's close, from its tasks' `parts` in row order: what
    /// they fired, as the window's matrix of `shape`, and the rows that
    /// wait.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub(crate) fn join(
        parts: impl IntoIterator<Item = Leaves<T>>,
        (nrows, ncols): (usize, usize),
    ) -> Landed<T> {
        let mut parts = parts.into_iter();
        // The first part's vectors are moved, so one part is not copied.
        let Leaves {
            fired: (mut rowptr, mut colind, mut vals),
            mut pending,
            ..
        } = parts.next().expect("one part at least");
        for part in parts {
            let (at, (ptr, cols, fired)) = (colind.len(), part.fired);
            rowptr.extend(ptr[1..].iter().map(|p| at + p));
            colind.extend(cols);
            vals.extend(fired);
            if let (Some(all), Some(waits)) = (&mut pending, part.pending) {
                all.extend(waits);
            }
        }
        debug_assert_eq!(rowptr.len(), nrows + 1);
        Landed {
            out: Csr::from_parts(nrows, ncols, rowptr, colind, vals),
            received: 0,
            pending,
        }
    }
}

/// [`Table::settle`] over one task's rows of a window: each row's
/// updates go in, in window coordinates, and the entries `fire` emits
/// from them collect in `fired`. Opening `Z` fires into the same
/// [`Leaves`] row by row ([`crate::count_children_panes`]).
pub(crate) struct Settle<'a, M: Monoid, U, F> {
    pub(crate) rows: Rows<'a, M::Elem, U>,
    /// The table position of the window's `(0, 0)`.
    at: (usize, usize),
    pub(crate) fire: &'a F,
    /// What fired, row for row of the rows seen so far.
    pub(crate) fired: Leaves<M::Elem>,
    /// The updates fed in, on the pattern or not (for an opening
    /// count: the count product's entries).
    pub(crate) received: usize,
    /// What the row being settled fired, until it is in column order:
    /// grows to the most any one row fires (a few doublings a pass).
    row: Vec<(Idx, M::Elem)>,
}

impl<'a, M: Monoid, U, F> Settle<'a, M, U, F> {
    /// Settles into `rows` through the window at table position `at`,
    /// with room for `expect` entries to fire before a vector of
    /// `fired` has to grow: reserving a good guess once keeps a
    /// superstep's allocation calls from growing with how much it
    /// fires. With `track`, `fired` also keeps what waits
    /// ([`Leaves::row`]).
    pub(crate) fn new(
        rows: Rows<'a, M::Elem, U>,
        fire: &'a F,
        expect: usize,
        at: (usize, usize),
        track: bool,
    ) -> Self {
        Settle {
            fired: Leaves::new(rows.nrows, expect, track, at.1),
            rows,
            at,
            fire,
            received: 0,
            row: Vec::new(),
        }
    }
}

impl<M, U, F> Sink for Settle<'_, M, U, F>
where
    M: Monoid,
    F: Fn(&mut M::Elem, &U) -> Option<M::Elem>,
{
    type M = M;
    const ORDERED: bool = false;

    /// The one settle body: update `(i, j)` of the row being settled,
    /// in any column order.
    #[inline]
    fn entry(&mut self, i: usize, j: usize, g: &M::Elem) {
        self.received += 1;
        let Some((zv, sv)) = self.rows.at(self.at.0 + i, self.at.1 + j) else {
            return; // update entry outside the pattern: dropped
        };
        M::fold_into(zv, g);
        if let Some(o) = (self.fire)(zv, sv) {
            self.row.push((j as Idx, stored::<M>(o)));
        }
    }

    fn end_row(&mut self, _: usize) {
        // A matrix row arrives in column order, an accumulator's
        // touched list does not: only what fired is ever sorted.
        self.row.sort_unstable_by_key(|&(j, _)| j);
        let (rowptr, colind, vals) = &mut self.fired.fired;
        for (j, o) in self.row.drain(..) {
            colind.push(j);
            vals.push(o);
        }
        rowptr.push(colind.len());
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
        let kept = t.accumulate::<SumU64>(&g, |g, _, t| (t % 2 == 1).then_some(*g));
        assert_eq!(kept, m_u64(2, 4, &[(0, 0, 3), (0, 1, 5)]));
        assert_eq!((t.nnz(), t.get(0, 1), t.get(1, 0)), (4, Some(&15), None));
        let mask = t.mask().expect("tracked");
        assert_eq!(mask.kind(), MaskKind::Complement);
        let row = |i| mask.row(i).cols().collect::<Vec<_>>();
        assert_eq!((row(0), row(1)), (vec![0, 1], vec![2, 3]));
        let want = m_u64(2, 4, &[(0, 0, 3), (0, 1, 15), (1, 2, 4), (1, 3, 20)]);
        assert_eq!(t.freeze().first_difference(&want), None);
    }

    #[test]
    fn settle_combines_on_the_pattern_fires_and_drops_the_rest() {
        let side = m_u64(2, 4, &[(0, 1, 7), (0, 3, 8), (1, 0, 9)]);
        let mut z = Table::on_pattern(&side, |_| 10u64);
        // (0,0) and (1,2) miss the pattern; an entry fires when its sum
        // exceeds twice the side value beside it.
        let g = m_u64(
            2,
            4,
            &[(0, 0, 1), (0, 1, 5), (0, 3, 2), (1, 0, 4), (1, 2, 6)],
        );
        let fire = |z: &mut u64, s: &u64| (*z > 2 * s).then(|| *z + 100);
        let fired = z.settle::<SumU64, _>(&g, &side, fire);
        assert_eq!(fired, m_u64(2, 4, &[(0, 1, 115)]));
        assert_eq!(
            z.freeze(),
            m_u64(2, 4, &[(0, 1, 15), (0, 3, 12), (1, 0, 14)])
        );
    }

    #[test]
    #[should_panic(expected = "not on the side matrix's pattern")]
    fn settle_refuses_a_table_that_grew() {
        let side = m_u64(1, 3, &[(0, 1, 7)]);
        let mut z = Table::on_pattern(&side, |v| *v);
        let _ = z.accumulate::<SumU64>(&m_u64(1, 3, &[(0, 2, 1)]), |_, _, _| None);
        let _ = z.settle::<SumU64, _>(&m_u64(1, 3, &[]), &side, |_, _| None);
    }

    #[test]
    #[should_panic(expected = "not on the side matrix's pattern (row 1)")]
    fn settle_refuses_another_matrix_of_equal_shape_and_size() {
        let side = m_u64(2, 4, &[(0, 1, 7), (1, 0, 8), (1, 3, 9)]);
        let mut z = Table::on_pattern(&side, |v| *v);
        let other = m_u64(2, 4, &[(0, 1, 7), (1, 0, 8), (1, 2, 9)]);
        let _ = z.settle::<SumU64, _>(&m_u64(2, 4, &[]), &other, |_, _| None);
    }

    #[test]
    #[should_panic(expected = "identity on a fixed pattern")]
    fn a_fixed_pattern_stores_no_identity() {
        let base = m_u64(1, 3, &[(0, 1, 7)]);
        let _ = Table::anchor::<SumU64, _>(&base, &m_u64(1, 3, &[]), |_, _| 0, |_, _| None, false);
    }
}
