//! Products consumed where they land.
//!
//! A 1D plan that replicates an operand (`1d(A)`, `1d(B)`, §5.2.1)
//! forms each output piece whole on the rank that owns its slab. Sparse
//! SUMMA's premise (Buluç–Gilbert) is that the output stays where it is
//! consumed while the operands move, so such a piece need not become a
//! product matrix at all: the executor hands it to a [`Land`], whose
//! kernel writes it into the table blocks its slab covers. The sweeps'
//! three table steps land this way — [`Accumulate`] (MFBF's `T`),
//! [`Settle`] (MFBr's `Z`) and [`Count`] (the opening of `Z`, counted
//! in place) — through the sinks the shared-memory sweeps use: a slab
//! meets the table blocks of each canonical block row as panes side by
//! side ([`mfbc_sparse::Pane`]), and one pane over the whole table is
//! the shared-memory case.
//!
//! Nothing here is charged beyond what the materialising path charges:
//! the executor bills each piece its `ops` plus the entries it formed,
//! and [`Accumulate::finish`], [`Settle::finish`] and [`Count::finish`]
//! bill the blocks as `dmat_accumulate`, `dmat_settle` and `dmat_anchor`
//! do, through the same functions. Assembling a product was never
//! charged (DESIGN.md §7, deviation 4), so writing across owners moves
//! no charge.

use crate::dist::{DistMat, DistTable, Layout};
use crate::mm1d::Piece;
use crate::ops::{bill_accumulate, bill_anchor, bill_settle};
use mfbc_algebra::kernel::{BrandesKernel, KernelOut};
use mfbc_algebra::{Centpath, Multpath, SpMulKernel};
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::slice::{stitch, Slab};
use mfbc_sparse::spgemm::opened;
use mfbc_sparse::{
    count_children_panes, spgemm_accumulate_panes, spgemm_opt, spgemm_settle_panes, Csr, Idx,
    Landed, Mask, Pane, Table,
};
use std::borrow::Cow;
use std::ops::Range;

/// Where the pieces of a 1D product go.
pub trait Land<K: SpMulKernel> {
    /// The output mask the product runs under, in global coordinates:
    /// what the executor shrinks a one-shot operand against.
    fn mask(&self) -> Option<Mask<'_>>;

    /// Forms piece `k`: `a` times `b`, whose output `(i, j)` is entry
    /// `(r0 + i, c0 + j)` of the product, under the landing's mask.
    /// Returns the piece's `ops` and how many product entries it
    /// formed. Every piece of the plan arrives, one with an empty
    /// operand too: it forms nothing and is charged nothing, but its
    /// window may still be owed work (the opening count fires every
    /// entry of `Z` once).
    fn piece(
        &mut self,
        k: usize,
        at: (usize, usize),
        a: &Csr<K::Left>,
        b: &Csr<K::Right>,
    ) -> (u64, u64);

    /// The sabotage seam (`mfbc_fault::sabotage`): drops one entry of
    /// what the landing emits. `false` when it emits none.
    fn corrupt(&mut self) -> bool;
}

/// The landing that materialises: every piece becomes a product matrix
/// at its offsets, for `mm::assemble_canonical`.
pub(crate) struct Collect<'m, T> {
    mask: Option<&'m Mask<'m>>,
    pub(crate) pieces: Vec<Piece<T>>,
}

impl<'m, T> Collect<'m, T> {
    pub(crate) fn new(mask: Option<&'m Mask<'m>>) -> Self {
        Collect {
            mask,
            pieces: Vec::new(),
        }
    }
}

impl<K: SpMulKernel> Land<K> for Collect<'_, KernelOut<K>> {
    fn mask(&self) -> Option<Mask<'_>> {
        self.mask.cloned()
    }

    fn piece(
        &mut self,
        k: usize,
        (r0, c0): (usize, usize),
        a: &Csr<K::Left>,
        b: &Csr<K::Right>,
    ) -> (u64, u64) {
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        let w = self
            .mask
            .map(|mk| mk.window(r0..r0 + a.nrows(), c0..c0 + b.ncols()));
        let out = spgemm_opt::<K>(a, b, w.as_ref());
        let formed = out.mat.nnz() as u64;
        self.pieces.push((r0, c0, k, out.mat));
        (out.ops, formed)
    }

    fn corrupt(&mut self) -> bool {
        let first = self.pieces.iter_mut().find(|p| p.3.nnz() > 0);
        first.is_some_and(|p| {
            p.3 = drop_first(&p.3);
            true
        })
    }
}

/// `m` without its first stored entry.
fn drop_first<T: Clone>(m: &Csr<T>) -> Csr<T> {
    let mut first = true;
    m.filter(|_, _, _| !std::mem::take(&mut first))
}

/// One canonical block row a piece meets: the piece's output rows
/// inside it, the block rows they are, and the blocks of the row the
/// piece meets, each with the block columns it covers.
struct Band {
    bi: usize,
    rows: Range<usize>,
    trows: Range<usize>,
    cols: Vec<(usize, Range<usize>)>,
}

/// Where `x`'s extent `lo..lo + n` meets `r`, relative to `r` and to
/// `lo`; `None` where they do not meet.
fn meet(r: &Range<usize>, lo: usize, n: usize) -> Option<(Range<usize>, Range<usize>)> {
    let (a, b) = (r.start.max(lo), r.end.min(lo + n));
    (a < b).then(|| (a - r.start..b - r.start, a - lo..b - lo))
}

/// The bands of layout `l` that the `nr × nc` piece at `(r0, c0)` meets.
fn bands(l: &Layout, (r0, nr): (usize, usize), (c0, nc): (usize, usize)) -> Vec<Band> {
    let cols: Vec<(usize, Range<usize>)> = (0..l.bc())
        .filter_map(|bj| meet(&l.col_range(bj), c0, nc).map(|(inside, _)| (bj, inside)))
        .collect();
    if cols.is_empty() {
        return Vec::new();
    }
    let band = |bi| {
        meet(&l.row_range(bi), r0, nr).map(|(trows, rows)| Band {
            bi,
            rows,
            trows,
            cols: cols.clone(),
        })
    };
    (0..l.br()).filter_map(band).collect()
}

impl Band {
    /// The band's windows of `tables`' blocks.
    fn panes<'t, T>(&self, l: &Layout, tables: &'t mut [Table<T>]) -> Vec<Pane<'t, T>> {
        let first = l.block_id(self.bi, self.cols[0].0);
        let blocks = tables[first..first + self.cols.len()].iter_mut();
        let pane = |(table, (_, cols)): (&'t mut Table<T>, &(usize, Range<usize>))| Pane {
            table,
            rows: self.trows.clone(),
            cols: cols.clone(),
        };
        blocks.zip(&self.cols).map(pane).collect()
    }

    /// The flat ids of the band's blocks, in pane order.
    fn ids<'b>(&'b self, l: &'b Layout) -> impl Iterator<Item = usize> + 'b {
        self.cols
            .iter()
            .map(move |&(bj, _)| l.block_id(self.bi, bj))
    }
}

/// What landed pieces emitted, per block: each window's matrix at its
/// position in the block, and the product entries each block received.
struct Emitted<T> {
    chunks: Vec<Vec<(usize, usize, Csr<T>)>>,
    received: Vec<usize>,
}

impl<T: Clone> Emitted<T> {
    fn new(l: &Layout) -> Self {
        Emitted {
            chunks: (0..l.nblocks()).map(|_| Vec::new()).collect(),
            received: vec![0; l.nblocks()],
        }
    }

    /// Keeps what `band`'s panes emitted; returns the product entries
    /// they received.
    fn put(&mut self, l: &Layout, band: &Band, landed: Vec<Landed<T>>) -> u64 {
        let mut formed = 0;
        for ((id, landed), (_, cols)) in band.ids(l).zip(landed).zip(&band.cols) {
            self.received[id] += landed.received;
            formed += landed.received as u64;
            self.chunks[id].push((band.trows.start, cols.start, landed.out));
        }
        formed
    }

    /// Every block's emitted matrix: its windows stitched together —
    /// or moved, where one window is the block.
    fn blocks(&mut self, l: &Layout) -> Vec<Csr<T>> {
        let block = |((bi, bj), chunks): ((usize, usize), &mut Vec<(usize, usize, Csr<T>)>)| {
            let (rows, cols) = (0..l.row_range(bi).len(), 0..l.col_range(bj).len());
            let owned = chunks.drain(..).map(|(r, c, m)| (r, c, Cow::Owned(m)));
            let mut slabs: Vec<Slab<'_, T>> = owned.collect();
            stitch(rows, cols, &mut slabs, |_| true).0
        };
        l.blocks().zip(&mut self.chunks).map(block).collect()
    }

    /// Drops the first entry emitted, in block order; `false` if none
    /// was.
    fn corrupt(&mut self) -> bool {
        let mut chunks = self.chunks.iter_mut().flatten();
        chunks.find(|c| c.2.nnz() > 0).is_some_and(|c| {
            c.2 = drop_first(&c.2);
            true
        })
    }
}

/// MFBF's step landed: [`Table::accumulate`]'s body on every piece's
/// rows, in the table blocks its slab covers — `dmat_accumulate` with
/// no product in between.
pub struct Accumulate<'t, K: SpMulKernel, F> {
    table: &'t mut DistTable<KernelOut<K>>,
    keep: &'t F,
    old: Vec<usize>,
    emitted: Emitted<KernelOut<K>>,
}

impl<'t, K, F> Accumulate<'t, K, F>
where
    K: SpMulKernel,
    F: Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>> + Sync,
{
    /// A landing into `table` that emits what `keep` lets through.
    pub fn new(table: &'t mut DistTable<KernelOut<K>>, keep: &'t F) -> Self {
        let l = table.layout();
        let old = l
            .blocks()
            .map(|(bi, bj)| table.block(bi, bj).nnz())
            .collect();
        let emitted = Emitted::new(l);
        Accumulate {
            table,
            keep,
            old,
            emitted,
        }
    }

    /// Closes the step: the entries `keep` let through as the next
    /// frontier, billed as `dmat_accumulate` bills it, the table's
    /// residency re-charged at its new size.
    ///
    /// # Errors
    /// Propagates a memory-budget failure of the grown table.
    pub fn finish(mut self, m: &Machine) -> Result<DistMat<KernelOut<K>>, MachineError> {
        let l = self.table.layout().clone();
        let blocks = self.emitted.blocks(&l);
        bill_accumulate(m, &l, &self.old, &self.emitted.received, self.table)?;
        Ok(DistMat::from_blocks(l, blocks))
    }
}

impl<K, F> Land<K> for Accumulate<'_, K, F>
where
    K: SpMulKernel,
    F: Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>> + Sync,
{
    fn mask(&self) -> Option<Mask<'_>> {
        self.table.mask()
    }

    fn piece(
        &mut self,
        _: usize,
        (r0, c0): (usize, usize),
        a: &Csr<K::Left>,
        b: &Csr<K::Right>,
    ) -> (u64, u64) {
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        let l = self.table.layout().clone();
        let (mut ops, mut formed) = (0, 0);
        for band in bands(&l, (r0, a.nrows()), (c0, b.ncols())) {
            let mut panes = band.panes(&l, self.table.blocks_mut());
            let (landed, o) =
                spgemm_accumulate_panes::<K>(a, b, band.rows.clone(), &mut panes, self.keep);
            ops += o;
            formed += self.emitted.put(&l, &band, landed);
        }
        (ops, formed)
    }

    fn corrupt(&mut self) -> bool {
        self.emitted.corrupt()
    }
}

/// MFBr's loop step landed: [`Table::settle`]'s body on every piece's
/// rows, in the `Z` blocks its slab covers — `dmat_settle` with no
/// product in between.
pub struct Settle<'t, K: SpMulKernel, U, F> {
    z: &'t mut DistTable<KernelOut<K>>,
    side: &'t DistMat<U>,
    within: Option<&'t Mask<'t>>,
    fire: &'t F,
    emitted: Emitted<KernelOut<K>>,
}

impl<'t, K, U, F> Settle<'t, K, U, F>
where
    K: SpMulKernel,
    U: Clone + Send + Sync,
    F: Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
{
    /// A landing into `z`, opened on `side`'s pattern, under the mask
    /// `z` reports or else `within`, that emits what `fire` emits.
    pub fn new(
        z: &'t mut DistTable<KernelOut<K>>,
        side: &'t DistMat<U>,
        within: Option<&'t Mask<'t>>,
        fire: &'t F,
    ) -> Self {
        let emitted = Emitted::new(z.layout());
        Settle {
            z,
            side,
            within,
            fire,
            emitted,
        }
    }

    /// Closes the step: what fired, as the next frontier, billed as
    /// `dmat_settle` bills it.
    pub fn finish(mut self, m: &Machine) -> DistMat<KernelOut<K>> {
        let l = self.z.layout().clone();
        let blocks = self.emitted.blocks(&l);
        bill_settle(m, &l, &self.emitted.received, self.z);
        DistMat::from_blocks(l, blocks)
    }
}

impl<K, U, F> Land<K> for Settle<'_, K, U, F>
where
    K: SpMulKernel,
    U: Clone + Send + Sync,
    F: Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
{
    fn mask(&self) -> Option<Mask<'_>> {
        self.z.mask().or_else(|| self.within.cloned())
    }

    fn piece(
        &mut self,
        _: usize,
        (r0, c0): (usize, usize),
        a: &Csr<K::Left>,
        b: &Csr<K::Right>,
    ) -> (u64, u64) {
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        let l = self.z.layout().clone();
        let (mut ops, mut formed) = (0, 0);
        for band in bands(&l, (r0, a.nrows()), (c0, b.ncols())) {
            let rows = r0 + band.rows.start..r0 + band.rows.end;
            let within = self.within.map(|w| w.window(rows, c0..c0 + b.ncols()));
            let sides: Vec<&Csr<U>> = band
                .cols
                .iter()
                .map(|&(bj, _)| self.side.block(band.bi, bj))
                .collect();
            let mut panes = band.panes(&l, self.z.blocks_mut());
            let (landed, o) = spgemm_settle_panes::<K, U>(
                a,
                b,
                band.rows.clone(),
                within.as_ref(),
                &mut panes,
                &sides,
                self.fire,
            );
            ops += o;
            formed += self.emitted.put(&l, &band, landed);
        }
        (ops, formed)
    }

    fn corrupt(&mut self) -> bool {
        self.emitted.corrupt()
    }
}

/// MFBr's opening landed: `Z` opened on `T`'s blocks and every piece
/// of the child-count product counted in place where its slab covers
/// them ([`count_children_panes`]) — `dmat_anchor` with no product in
/// between. The pieces are those of `(τ, 0, 1)` seeds on `T`'s entries
/// times `Aᵀ`, under `T`'s structural pattern where the machine masks.
pub struct Count<'t, F> {
    t: &'t DistMat<Multpath>,
    z: DistTable<Centpath>,
    within: Option<Mask<'t>>,
    fire: &'t F,
    emitted: Emitted<Centpath>,
    /// With tracking: per block, per row, the columns that wait.
    pending: Vec<Option<Vec<Vec<Idx>>>>,
}

impl<'t, F> Count<'t, F>
where
    F: Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
{
    /// A landing that opens `Z` on `t`'s pattern and emits the leaves
    /// `fire` emits. Under `within` — `t`'s structural pattern, where
    /// the machine masks — it counts only inside that pattern and `Z`
    /// tracks its pending entries.
    pub fn new(t: &'t DistMat<Multpath>, within: Option<Mask<'t>>, fire: &'t F) -> Self {
        let (l, masked) = (t.layout(), within.is_some());
        let opened = l
            .blocks()
            .map(|(bi, bj)| Table::on_pattern(t.block(bi, bj), opened));
        let z = DistTable::from_blocks(l.clone(), opened.collect());
        let rows =
            |(bi, _): (usize, usize)| masked.then(|| vec![Vec::new(); l.row_range(bi).len()]);
        Count {
            t,
            z,
            within,
            fire,
            emitted: Emitted::new(l),
            pending: l.blocks().map(rows).collect(),
        }
    }

    /// Closes the opening: `Z`, with its pending entries as its mask,
    /// and the leaves as the first frontier, billed as `dmat_anchor`
    /// bills them, `Z`'s residency charged.
    ///
    /// # Errors
    /// Propagates a memory-budget failure of the opened table.
    pub fn finish(
        mut self,
        m: &Machine,
    ) -> Result<(DistTable<Centpath>, DistMat<Centpath>), MachineError> {
        let l = self.t.layout().clone();
        for (z, pending) in self.z.blocks_mut().iter_mut().zip(self.pending) {
            z.pend(pending);
        }
        let leaves = self.emitted.blocks(&l);
        bill_anchor(m, &l, self.t, &self.z)?;
        Ok((self.z, DistMat::from_blocks(l, leaves)))
    }
}

impl<F> Land<BrandesKernel> for Count<'_, F>
where
    F: Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
{
    fn mask(&self) -> Option<Mask<'_>> {
        self.within.clone()
    }

    fn piece(
        &mut self,
        _: usize,
        (r0, c0): (usize, usize),
        seeds: &Csr<Centpath>,
        at: &Csr<mfbc_algebra::Dist>,
    ) -> (u64, u64) {
        let l = self.t.layout().clone();
        let masked = self.within.is_some();
        let (mut ops, mut formed) = (0, 0);
        for band in bands(&l, (r0, seeds.nrows()), (c0, at.ncols())) {
            let sides: Vec<&Csr<Multpath>> = band
                .cols
                .iter()
                .map(|&(bj, _)| self.t.block(band.bi, bj))
                .collect();
            let mut panes = band.panes(&l, self.z.blocks_mut());
            let tau = |c: &Centpath| c.w;
            let (mut landed, o) = count_children_panes(
                seeds,
                tau,
                at,
                band.rows.clone(),
                &mut panes,
                &sides,
                masked,
                self.fire,
            );
            ops += o;
            for (id, landed) in band.ids(&l).zip(&mut landed) {
                let (Some(rows), Some(waits)) = (&mut self.pending[id], landed.pending.take())
                else {
                    continue;
                };
                // A block's windows of one row arrive in column order.
                for (row, w) in rows[band.trows.clone()].iter_mut().zip(waits) {
                    if row.is_empty() {
                        *row = w;
                    } else {
                        row.extend(w);
                    }
                }
            }
            formed += self.emitted.put(&l, &band, landed);
        }
        (ops, formed)
    }

    fn corrupt(&mut self) -> bool {
        self.emitted.corrupt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MmCache;
    use crate::mm::{canonical_layout, enumerate_plans, first_overlap, mm_land, MmPlan};
    use mfbc_algebra::kernel::TropicalKernel;
    use mfbc_algebra::monoid::MinDist;
    use mfbc_algebra::Dist;
    use mfbc_machine::MachineSpec;
    use mfbc_sparse::Coo;

    /// A landing that keeps where each piece lands, as an empty matrix
    /// of its shape at its offsets.
    struct Rects(Vec<Piece<Dist>>);

    impl Land<TropicalKernel> for Rects {
        fn mask(&self) -> Option<Mask<'_>> {
            None
        }

        fn piece(
            &mut self,
            k: usize,
            (r0, c0): (usize, usize),
            a: &Csr<Dist>,
            b: &Csr<Dist>,
        ) -> (u64, u64) {
            self.0.push((r0, c0, k, Csr::zero(a.nrows(), b.ncols())));
            (0, 0)
        }

        fn corrupt(&mut self) -> bool {
            false
        }
    }

    /// An `n × n` operand with an entry in every row and column.
    fn operand(n: usize) -> Csr<Dist> {
        let triples =
            (0..n).flat_map(|i| [(i, i, Dist::new(1)), (i, (i * 7 + 3) % n, Dist::new(2))]);
        Coo::from_triples(n, n, triples).into_csr::<MinDist>()
    }

    #[test]
    fn landed_slabs_never_overlap_so_no_assembly_can_panic() {
        // The landing path never assembles (`mm::assemble_canonical`
        // and its overlap panic are not on it), and what it stitches
        // per block — the windows of the pieces that meet the block —
        // tiles each piece once and never puts two windows on one
        // block cell, so `stitch` has nothing to reject either.
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            let m = Machine::new(MachineSpec::test(p));
            for n in [1usize, 3, 29, 64] {
                let x = DistMat::from_global(canonical_layout(&m, n, n), &operand(n));
                for plan in enumerate_plans(p).into_iter().filter(MmPlan::lands) {
                    let (mut rects, mut cache) = (Rects(Vec::new()), MmCache::new());
                    mm_land::<TropicalKernel>(&m, &plan, &x, &x, &mut rects, &mut cache).unwrap();
                    cache.release_all(&m);
                    let what = format!("{plan} at p={p}, n={n}");
                    assert_eq!(first_overlap(&rects.0), None, "{what}");
                    let l = x.layout();
                    let mut cells = vec![0u8; n * n];
                    for (r0, c0, _, piece) in &rects.0 {
                        let (nr, nc) = (piece.nrows(), piece.ncols());
                        for band in bands(l, (*r0, nr), (*c0, nc)) {
                            let (rs, cs) = (l.row_range(band.bi).start, band.cols.iter());
                            for (bj, cols) in cs {
                                let c_at = l.col_range(*bj).start;
                                for i in band.trows.clone() {
                                    for j in cols.clone() {
                                        cells[(rs + i) * n + c_at + j] += 1;
                                    }
                                }
                            }
                        }
                    }
                    let area: usize = rects.0.iter().map(|p| p.3.nrows() * p.3.ncols()).sum();
                    assert_eq!(area, n * n, "{what}: the slabs tile the output");
                    assert!(
                        cells.iter().all(|&c| c == 1),
                        "{what}: a cell landed twice or never"
                    );
                }
            }
        }
    }
}
