//! Products consumed where they land.
//!
//! Every product the executor (`mm::mm_land`) runs goes to a [`Land`]:
//! one of the sweeps' table steps — [`Accumulate`] (MFBF's `T`),
//! [`Settle`] (MFBr's `Z`), [`Count`] (the opening of `Z`) — or
//! `Collect`, which keeps it as a matrix for `mm_exec`. A 1D plan that
//! replicates an operand (`1d(A)`, `1d(B)`, §5.2.1) forms each output
//! piece whole on the rank that owns its slab, and Sparse SUMMA's
//! premise (Buluç–Gilbert) is that the output stays where it is
//! consumed, so such a product never becomes a matrix: it arrives band
//! by band ([`Land::band`]), and the kernel writes it into the table
//! blocks it covers through the sinks the shared-memory sweeps use
//! (`Z`'s opening counted in place, off `T`'s rows: its `(τ, 0, 1)`
//! seeds are charged, not built — [`Count`]). Every other plan reduces or
//! assembles its output across ranks; its product arrives whole, in
//! the canonical layout ([`Land::formed`]), and the landing merges it
//! block by block on arrival ([`Table`]'s `accumulate`, `settle`,
//! `anchor`). Either way the table holds the step's product once the
//! product has run; `finish` only bills the step and returns what it
//! emitted.
//!
//! A real machine forms the p slabs at once; one host forms them one
//! after another, so the landing runs the kernel once per *band*, not
//! once per rank. A band is one block row of the landing's table
//! ([`Land::bands`]): the kernel runs once over the band's rows, with
//! one accumulator as wide as the output, into the band's blocks side
//! by side ([`mfbc_sparse::Pane`]), and each block receives exactly one
//! window — the block itself. The ranks' slabs cut the band into
//! *cells*: under `1d(B)` the part of the band's rows one rank's row
//! slab covers, under `1d(A)` the part one rank's column slab of B
//! covers. The kernel counts `ops` and the product entries formed per
//! cell, and the executor bills each rank the sum over its cells — what
//! it billed the rank's piece when each slab was formed alone. Under
//! `1d(A)` B stays one matrix with the ranks' column cuts
//! ([`mfbc_sparse::Slabs`]): the kernel reads each row of it once,
//! whatever the rank count, and counts each output column's products
//! where it routes the column's entry to its cell. One band with one
//! cell (a one-rank machine) is the shared-memory call.
//!
//! A step is billed the same whichever way its product arrived: the
//! executor bills each rank its `ops` plus the entries it formed, and
//! [`Accumulate::finish`], [`Settle::finish`] and [`Count::finish`]
//! bill the blocks through one function each (`ops::bill_*`), as the
//! elementwise composition the step replaces. Assembling a product
//! was never charged (DESIGN.md §7, deviation 4), so writing across
//! owners moves no charge.

use crate::dist::{DistMat, DistTable, Layout};
use crate::mm::{assert_shape, MmPlan, Shape};
use crate::mm1d::Piece;
use crate::ops::{
    bill_accumulate, bill_anchor, bill_settle, charge_blocks, dmat_map_filter, emit_pool,
};
use mfbc_algebra::kernel::{BrandesKernel, KernelOut};
use mfbc_algebra::{Centpath, CentpathMonoid, Multpath, SpMulKernel};
use mfbc_machine::{Machine, MachineError};
use mfbc_parallel::ExecStats;
use mfbc_sparse::slice::slice;
use mfbc_sparse::spgemm::{mfbr_anchor, opened};
use mfbc_sparse::{
    count_children_panes, spgemm_accumulate_panes, spgemm_opt, spgemm_settle_panes, Csr, Few,
    Landed, Mask, Pane, Slabs, Table,
};
use std::borrow::Cow;
use std::ops::Range;

/// Where a product goes: band by band from a plan that lands, whole
/// from one that reduces or assembles its output.
///
/// The executor is handed a left operand of `L`s, which is `K::Left`
/// but for a landing that reads another matrix on the operand's pattern
/// as the operand ([`Count`]: `T`, for its seeds); the executor charges
/// it at `K::Left`'s entry size.
pub trait Land<K: SpMulKernel, L = <K as SpMulKernel>::Left> {
    /// The output mask the product runs under, in global coordinates:
    /// what a plan that forms its product whole windows to its output
    /// blocks, and what the executor shrinks a one-shot operand
    /// against; built on every call. Band kernels read their own.
    fn mask(&self) -> Option<Mask<'_>>;

    /// The output rows of each band, in order, for a product of
    /// `shape`: the block rows of the landing's table, which must have
    /// that shape.
    fn bands(&self, shape: Shape) -> Few<Range<usize>>;

    /// Readies the landing for a product under `plan`, once, before the
    /// product runs and before a tuned plan is announced
    /// ([`crate::autotune::Pick`]). Nothing by default.
    fn open(&mut self, _m: &Machine, _plan: &MmPlan) {}

    /// The left operand a plan that does not land multiplies, for the
    /// operand `a` the executor was handed: `a` itself, where `L` is
    /// `K::Left`.
    fn left<'a>(&'a self, a: &'a DistMat<L>) -> &'a DistMat<K::Left>;

    /// Forms `band` under the landing's mask. Returns, per cell of the
    /// band (in [`Band::ranks`]' order), its `ops` and how many product
    /// entries it formed. Every band of [`Land::bands`] arrives, those
    /// with empty operands too: a window may be owed work that forms
    /// nothing (the opening count fires every entry of `Z` once).
    fn band(&mut self, band: Band<'_, L, K::Right>) -> Few<(u64, u64)>;

    /// Takes the product of a plan that does not land, formed whole
    /// under [`Land::mask`] and assembled in the canonical layout. A
    /// table landing merges it block by block on arrival, into the
    /// blocks the bands would have landed in.
    fn formed(&mut self, c: DistMat<KernelOut<K>>);

    /// The sabotage seam (`mfbc_fault::sabotage`): drops one entry of
    /// what the landing emits — for `Collect`, of the product it keeps.
    /// `false` when there is none.
    fn corrupt(&mut self) -> bool;
}

/// One band of a 1D product: output rows `rows`, formed as `left` —
/// those rows of the left operand — times `right`. Its cells are its
/// rows cut at `cuts` (band-relative, ascending, ending at the band's
/// height) times `right`'s column slabs: cell `(c, s)` is cell `c *
/// slabs + s`, formed by group position `ranks[c * slabs + s]`.
pub struct Band<'b, L, R> {
    /// The band's index in [`Land::bands`].
    pub index: usize,
    /// The output rows the band covers.
    pub rows: Range<usize>,
    /// Those rows of the left operand.
    pub left: &'b Csr<L>,
    /// The right operand, cut into the column slabs the ranks hold.
    pub right: Slabs<'b, R>,
    /// Where the band's rows are cut into row cells.
    pub cuts: &'b [usize],
    /// The group position forming each cell.
    pub ranks: &'b [usize],
}

/// The landing that materialises, for `mm_exec`: a formed product is
/// kept as it arrives, and every cell of a band becomes a product
/// matrix at its offsets, for `mm::assemble_canonical`. It has one
/// band, so each of its cells is one rank's whole piece, formed from
/// the band's rows of the left operand and the rank's slab of the right
/// one, each sliced out where the band has several.
pub(crate) struct Collect<'m, T> {
    pub(crate) mask: Option<&'m Mask<'m>>,
    pub(crate) pieces: Vec<Piece<T>>,
    pub(crate) formed: Option<DistMat<T>>,
}

impl<K: SpMulKernel> Land<K> for Collect<'_, KernelOut<K>> {
    fn mask(&self) -> Option<Mask<'_>> {
        self.mask.cloned()
    }

    fn bands(&self, shape: Shape) -> Few<Range<usize>> {
        if let Some(mk) = self.mask {
            assert_shape("mask", (mk.nrows(), mk.ncols()), shape);
        }
        Few::One(0..shape.0)
    }

    fn left<'a>(&'a self, a: &'a DistMat<K::Left>) -> &'a DistMat<K::Left> {
        a
    }

    fn band(&mut self, band: Band<'_, K::Left, K::Right>) -> Few<(u64, u64)> {
        let right = band.right;
        let slab = |s: usize| match right.count() {
            1 => Cow::Borrowed(right.mat()),
            _ => Cow::Owned(slice(right.mat(), 0..right.mat().nrows(), right.cols(s))),
        };
        let slabs: Vec<_> = (0..right.count()).map(slab).collect();
        let mut cells = Vec::with_capacity(band.ranks.len());
        for (c, cut) in band.cuts.windows(2).enumerate() {
            let (rows, all) = (cut[0]..cut[1], 0..band.left.ncols());
            let a = match rows.len() == band.left.nrows() {
                true => Cow::Borrowed(band.left),
                false => Cow::Owned(slice(band.left, rows.clone(), all)),
            };
            let r0 = band.rows.start + rows.start;
            for (s, b) in slabs.iter().enumerate() {
                if a.is_empty() || b.is_empty() {
                    cells.push((0, 0));
                    continue;
                }
                let cols = right.cols(s);
                let w = self
                    .mask
                    .map(|mk| mk.window(r0..r0 + a.nrows(), cols.clone()));
                let out = spgemm_opt::<K>(&a, b, w.as_ref());
                let formed = out.mat.nnz() as u64;
                let (c0, k) = (cols.start, band.ranks[c * slabs.len() + s]);
                self.pieces.push((r0, c0, k, out.mat));
                cells.push((out.ops, formed));
            }
        }
        cells.into()
    }

    fn formed(&mut self, c: DistMat<KernelOut<K>>) {
        self.formed = Some(c);
    }

    fn corrupt(&mut self) -> bool {
        if let Some(c) = &mut self.formed {
            let first = c
                .layout()
                .blocks()
                .find(|&(bi, bj)| c.block(bi, bj).nnz() > 0);
            return first.is_some_and(|(bi, bj)| {
                let b = drop_first(c.block(bi, bj));
                c.set_block(bi, bj, b);
                true
            });
        }
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

/// The block rows of `l`: the bands of a table landing.
fn block_rows(l: &Layout, shape: Shape) -> Few<Range<usize>> {
    assert_shape("table", (l.nrows(), l.ncols()), shape);
    (0..l.br()).map(|bi| l.row_range(bi)).collect()
}

/// The flat ids of the blocks of block row `bi` of `l`.
fn row_ids(l: &Layout, bi: usize) -> Range<usize> {
    let first = l.block_id(bi, 0);
    first..first + l.bc()
}

/// The blocks `ids` of `tables`, each whole, side by side.
fn panes<T>(ids: Range<usize>, tables: &mut [Table<T>]) -> Few<Pane<'_, T>> {
    tables[ids].iter_mut().map(Pane::whole).collect()
}

/// What a table landing emitted: per block, what its band emitted —
/// the one window the band gave it — or what merging a formed product
/// into it emitted, and the product entries it received.
struct Emitted<T> {
    blocks: Few<Option<Csr<T>>>,
    received: Few<usize>,
}

impl<T: Clone + Send + Sync> Emitted<T> {
    fn new(l: &Layout) -> Self {
        Emitted {
            blocks: (0..l.nblocks()).map(|_| None).collect(),
            received: (0..l.nblocks()).map(|_| 0).collect(),
        }
    }

    /// Keeps what the blocks from flat id `first` on emitted.
    fn put(&mut self, first: usize, landed: Few<Landed<T>>) {
        for (id, landed) in (first..).zip(landed) {
            self.received[id] += landed.received;
            self.blocks[id] = Some(landed.out);
        }
    }

    /// Keeps what every block emitted merging the formed product `c`,
    /// each block having received `c`'s entries in it; announces the
    /// merge's fan-out under `kernel`.
    fn merged(&mut self, kernel: &'static str, c: &DistMat<T>, merge: (Vec<Csr<T>>, ExecStats)) {
        let (blocks, stats) = merge;
        emit_pool(kernel, &stats);
        let received = c.layout().blocks().map(|(bi, bj)| c.block(bi, bj).nnz());
        let landed = |(out, received)| Landed {
            out,
            received,
            pending: None,
        };
        self.put(0, blocks.into_iter().zip(received).map(landed).collect());
    }

    /// Every block's emitted matrix and the product entries it
    /// received.
    ///
    /// # Panics
    /// Panics if a block's product never arrived.
    fn close(self) -> (Few<Csr<T>>, Few<usize>) {
        let block = |b: Option<Csr<T>>| b.expect("every block's product arrives");
        (self.blocks.map(block), self.received)
    }

    /// Drops the first entry emitted, in block order; `false` if there
    /// is none.
    fn corrupt(&mut self) -> bool {
        let mut blocks = self.blocks.iter_mut().flatten();
        blocks.find(|b| b.nnz() > 0).is_some_and(|b| {
            *b = drop_first(b);
            true
        })
    }
}

/// MFBF's step: [`Table::accumulate`]'s body on every band's rows, in
/// the table blocks of the band, or [`Table::accumulate`] of every
/// block of a formed product as it arrives.
pub struct Accumulate<'t, K: SpMulKernel, F> {
    table: &'t mut DistTable<KernelOut<K>>,
    keep: &'t F,
    old: Few<usize>,
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
    /// frontier, billed by `bill_accumulate`, the table's residency
    /// re-charged at its new size.
    ///
    /// # Errors
    /// Propagates a memory-budget failure of the grown table.
    pub fn finish(self, m: &Machine) -> Result<DistMat<KernelOut<K>>, MachineError> {
        let (blocks, received) = self.emitted.close();
        let l = self.table.layout().clone();
        bill_accumulate(m, &l, &self.old, &received, self.table)?;
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

    fn bands(&self, shape: Shape) -> Few<Range<usize>> {
        block_rows(self.table.layout(), shape)
    }

    fn left<'a>(&'a self, a: &'a DistMat<K::Left>) -> &'a DistMat<K::Left> {
        a
    }

    fn band(&mut self, band: Band<'_, K::Left, K::Right>) -> Few<(u64, u64)> {
        let ids = row_ids(self.table.layout(), band.index);
        let mut panes = panes(ids.clone(), self.table.blocks_mut());
        let (landed, cells) =
            spgemm_accumulate_panes::<K>(band.left, band.right, band.cuts, &mut panes, self.keep);
        self.emitted.put(ids.start, landed);
        cells
    }

    fn formed(&mut self, c: DistMat<KernelOut<K>>) {
        let keep = self.keep;
        let step = |bi, bj, t: &mut Table<_>| t.accumulate::<K::Acc>(c.block(bi, bj), keep);
        let merge = self.table.update_blocks(step);
        self.emitted.merged("dmat_accumulate", &c, merge);
    }

    fn corrupt(&mut self) -> bool {
        self.emitted.corrupt()
    }
}

/// MFBr's loop step: [`Table::settle`]'s body on every band's rows, in
/// the `Z` blocks of the band, or [`Table::settle`] of every block of a
/// formed product as it arrives.
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

    /// Closes the step: what fired as the next frontier, billed by
    /// `bill_settle`.
    pub fn finish(self, m: &Machine) -> DistMat<KernelOut<K>> {
        let (blocks, received) = self.emitted.close();
        let l = self.z.layout().clone();
        bill_settle(m, &l, &received, self.z);
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

    fn bands(&self, shape: Shape) -> Few<Range<usize>> {
        block_rows(self.z.layout(), shape)
    }

    fn left<'a>(&'a self, a: &'a DistMat<K::Left>) -> &'a DistMat<K::Left> {
        a
    }

    fn band(&mut self, band: Band<'_, K::Left, K::Right>) -> Few<(u64, u64)> {
        let l = self.side.layout();
        let within = self
            .within
            .map(|w| w.window(band.rows.clone(), 0..l.ncols()));
        let side = |bj| self.side.block(band.index, bj);
        let sides: Few<&Csr<U>> = (0..l.bc()).map(side).collect();
        let ids = row_ids(l, band.index);
        let mut panes = panes(ids.clone(), self.z.blocks_mut());
        let (landed, cells) = spgemm_settle_panes::<K, U>(
            band.left,
            band.right,
            band.cuts,
            within.as_ref(),
            &mut panes,
            &sides,
            self.fire,
        );
        self.emitted.put(ids.start, landed);
        cells
    }

    fn formed(&mut self, c: DistMat<KernelOut<K>>) {
        let (side, fire) = (self.side, self.fire);
        let step = |bi, bj, z: &mut Table<_>| {
            z.settle::<K::Acc, U>(c.block(bi, bj), side.block(bi, bj), fire)
        };
        let merge = self.z.update_blocks(step);
        self.emitted.merged("dmat_settle", &c, merge);
    }

    fn corrupt(&mut self) -> bool {
        self.emitted.corrupt()
    }
}

/// MFBr's opening: `Z` opened on `T`'s blocks, every band of the
/// child-count product counted in place in the band's blocks
/// ([`count_children_panes`]), or every block of a formed count product
/// anchored as it arrives ([`Table::anchor`] with [`mfbr_anchor`]). The
/// product is that of `(τ, 0, 1)` seeds on `T`'s entries times `Aᵀ`,
/// under `T`'s structural pattern where the machine masks; the executor
/// is handed `T` ([`Land`]'s `L` is [`Multpath`]).
///
/// The seeds are charged, not built, where the plan lands: the count
/// kernel reads only each seed's τ and pattern, so the bands read `T`'s
/// rows in place, τ projected, and the map that would have built the
/// seeds is billed from `T`'s per-block counts ([`Land::open`]); their
/// moves are charged at `Centpath`'s entry size. A plan that forms the
/// product whole moves the seeds, so for it they are built, by the same
/// map at the same point.
pub struct Count<'t, F> {
    t: &'t DistMat<Multpath>,
    /// The seeds, built by [`Land::open`] for a plan that moves them.
    seeds: Option<DistMat<Centpath>>,
    /// The blocks of `Z`, in block order: opened on `T`'s by
    /// [`Land::open`] for a plan that lands, anchored by
    /// [`Land::formed`] otherwise.
    z: Option<Few<Table<Centpath>>>,
    within: Option<Mask<'t>>,
    fire: &'t F,
    emitted: Emitted<Centpath>,
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
        Count {
            t,
            seeds: None,
            z: None,
            within,
            fire,
            emitted: Emitted::new(t.layout()),
        }
    }

    /// Closes the opening: `Z`, with its pending entries as its mask,
    /// and the leaves as the first frontier, billed by `bill_anchor`,
    /// `Z`'s residency charged.
    ///
    /// # Errors
    /// Propagates a memory-budget failure of the opened table.
    pub fn finish(
        self,
        m: &Machine,
    ) -> Result<(DistTable<Centpath>, DistMat<Centpath>), MachineError> {
        let (leaves, _) = self.emitted.close();
        let (t, l) = (self.t, self.t.layout());
        let z = self.z.expect("the bands or the formed product opened Z");
        let z = DistTable::from_blocks(l.clone(), z);
        bill_anchor(m, l, t, &z)?;
        Ok((z, DistMat::from_blocks(l.clone(), leaves)))
    }
}

impl<F> Land<BrandesKernel, Multpath> for Count<'_, F>
where
    F: Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
{
    fn mask(&self) -> Option<Mask<'_>> {
        self.within.clone()
    }

    fn bands(&self, shape: Shape) -> Few<Range<usize>> {
        block_rows(self.t.layout(), shape)
    }

    /// Bills the map that makes the `(τ, 0, 1)` seeds of `T`'s entries,
    /// `nnz(T)` per block, where the product is opened, and opens `Z`'s
    /// blocks on `T`'s for the bands to count into; builds the seeds
    /// only where `plan` moves them.
    fn open(&mut self, m: &Machine, plan: &MmPlan) {
        let t = self.t;
        if plan.lands() {
            charge_blocks(m, t.layout(), |bi, bj| t.block(bi, bj).nnz());
            let block = |(bi, bj)| Table::on_pattern(t.block(bi, bj), opened);
            self.z = Some(t.layout().blocks().map(block).collect());
        } else {
            let seed = |_: usize, _: usize, mp: &Multpath| Some(Centpath::new(mp.w, 0.0, 1));
            self.seeds = Some(dmat_map_filter::<CentpathMonoid, _, _>(m, t, seed));
        }
    }

    fn left<'a>(&'a self, _: &'a DistMat<Multpath>) -> &'a DistMat<Centpath> {
        let seeds = self.seeds.as_ref();
        seeds.expect("a count formed whole multiplies the seeds `Land::open` built")
    }

    fn band(&mut self, band: Band<'_, Multpath, mfbc_algebra::Dist>) -> Few<(u64, u64)> {
        let l = self.t.layout();
        let sides: Few<&Csr<Multpath>> =
            (0..l.bc()).map(|bj| self.t.block(band.index, bj)).collect();
        let ids = row_ids(l, band.index);
        let z = self
            .z
            .as_mut()
            .expect("`Land::open` opens Z for a plan that lands");
        let mut panes = panes(ids.clone(), z);
        let tau = |mp: &Multpath| mp.w;
        let masked = self.within.is_some();
        let (mut landed, cells) = count_children_panes(
            band.left, tau, band.right, band.cuts, &mut panes, &sides, masked, self.fire,
        );
        // Each block's one window is the whole block.
        for (z, landed) in z[ids.clone()].iter_mut().zip(&mut *landed) {
            z.pend(landed.pending.take());
        }
        self.emitted.put(ids.start, landed);
        cells
    }

    fn formed(&mut self, c: DistMat<Centpath>) {
        let (t, fire, track) = (self.t, self.fire, self.within.is_some());
        let l = t.layout();
        let anchor = |id| {
            let (bi, bj) = (id / l.bc(), id % l.bc());
            let count = c.block(bi, bj);
            Table::anchor::<CentpathMonoid, _>(t.block(bi, bj), count, mfbr_anchor, fire, track)
        };
        let (opened, stats) = mfbc_parallel::current().par_map_collect_stats(l.nblocks(), anchor);
        let (z, leaves): (Vec<_>, _) = opened.into_iter().unzip();
        self.z = Some(z.into());
        self.emitted.merged("dmat_anchor", &c, (leaves, stats));
    }

    fn corrupt(&mut self) -> bool {
        self.emitted.corrupt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MmCache;
    use crate::mm::{
        canonical_layout, enumerate_plans, mm_exec_masked, mm_land, MmPlan, Variant1D,
    };
    use mfbc_algebra::kernel::TropicalKernel;
    use mfbc_algebra::monoid::MinDist;
    use mfbc_algebra::Dist;
    use mfbc_machine::MachineSpec;
    use mfbc_sparse::Coo;

    /// A landing over the block rows of `layout` that keeps where each
    /// cell lands — output rows, output columns and the group position
    /// forming it — and checks that every band arrives once, in order.
    struct Rects {
        layout: Layout,
        cells: Vec<(Range<usize>, Range<usize>, usize)>,
        next: usize,
    }

    impl Land<TropicalKernel> for Rects {
        fn mask(&self) -> Option<Mask<'_>> {
            None
        }

        fn bands(&self, shape: Shape) -> Few<Range<usize>> {
            block_rows(&self.layout, shape)
        }

        fn left<'a>(&'a self, a: &'a DistMat<Dist>) -> &'a DistMat<Dist> {
            a
        }

        fn band(&mut self, band: Band<'_, Dist, Dist>) -> Few<(u64, u64)> {
            assert_eq!(band.index, self.next, "bands arrive in order");
            self.next += 1;
            assert_eq!(band.left.nrows(), band.rows.len());
            let slabs = band.right.count();
            for (c, cut) in band.cuts.windows(2).enumerate() {
                for s in 0..slabs {
                    let rows = band.rows.start + cut[0]..band.rows.start + cut[1];
                    let k = band.ranks[c * slabs + s];
                    self.cells.push((rows, band.right.cols(s), k));
                }
            }
            vec![(0, 0); band.ranks.len()].into()
        }

        fn formed(&mut self, _: DistMat<Dist>) {
            unreachable!("a landing plan forms no product whole")
        }

        fn corrupt(&mut self) -> bool {
            false
        }
    }

    /// `Collect`, counting the mask views asked of it.
    struct Counted<'m> {
        collect: Collect<'m, Dist>,
        views: std::cell::Cell<usize>,
    }

    impl Land<TropicalKernel> for Counted<'_> {
        fn mask(&self) -> Option<Mask<'_>> {
            self.views.set(self.views.get() + 1);
            Land::<TropicalKernel>::mask(&self.collect)
        }

        fn bands(&self, shape: Shape) -> Few<Range<usize>> {
            Land::<TropicalKernel>::bands(&self.collect, shape)
        }

        fn left<'a>(&'a self, a: &'a DistMat<Dist>) -> &'a DistMat<Dist> {
            a
        }

        fn band(&mut self, band: Band<'_, Dist, Dist>) -> Few<(u64, u64)> {
            Land::<TropicalKernel>::band(&mut self.collect, band)
        }

        fn formed(&mut self, c: DistMat<Dist>) {
            Land::<TropicalKernel>::formed(&mut self.collect, c)
        }

        fn corrupt(&mut self) -> bool {
            Land::<TropicalKernel>::corrupt(&mut self.collect)
        }
    }

    #[test]
    fn a_mask_view_is_built_only_where_it_is_read() {
        // A landing plan's kernels read the landing's tables' masks
        // themselves: the executor builds no view, but for the operand
        // a one-shot 1d(A) shrinks against it. A plan that forms its
        // product whole runs under one view, built once.
        let n = 29;
        let x = operand(n);
        let pattern = operand(n).filter(|i, j, _| (i + j) % 3 != 0 && j < n - 4);
        let mask = Mask::of_pattern(mfbc_sparse::MaskKind::Structural, &pattern);
        for p in [1usize, 4, 16] {
            let m = Machine::new(MachineSpec::test(p));
            let x = DistMat::from_global(canonical_layout(&m, n, n), &x);
            for plan in enumerate_plans(p) {
                for amortize in [true, false] {
                    let mut counted = Counted {
                        collect: Collect {
                            mask: Some(&mask),
                            pieces: Vec::new(),
                            formed: None,
                        },
                        views: Default::default(),
                    };
                    let mut cache = MmCache::amortizing(amortize);
                    mm_land::<TropicalKernel, _>(&m, &plan, &x, &x, &mut counted, &mut cache)
                        .unwrap();
                    cache.release_all(&m);
                    let want = match plan {
                        MmPlan::OneD(Variant1D::A) => usize::from(!amortize),
                        MmPlan::OneD(Variant1D::B) => 0,
                        _ => 1,
                    };
                    let what = format!("{plan} at p={p}, amortizing: {amortize}");
                    assert_eq!(counted.views.get(), want, "{what}: mask views");
                }
            }
        }
    }

    /// An `n × n` operand with an entry in every row and column.
    fn operand(n: usize) -> Csr<Dist> {
        let triples =
            (0..n).flat_map(|i| [(i, i, Dist::new(1)), (i, (i * 7 + 3) % n, Dist::new(2))]);
        Coo::from_triples(n, n, triples).into_csr::<MinDist>()
    }

    /// Every block of `t`, frozen, in block order.
    fn frozen<T: Clone + Send + Sync>(t: &DistTable<T>) -> Vec<Csr<T>> {
        let t = t.clone().freeze();
        let l = t.layout().clone();
        l.blocks().map(|(bi, bj)| t.block(bi, bj).clone()).collect()
    }

    #[test]
    fn a_formed_product_is_merged_into_the_table_on_arrival() {
        // A plan that does not land hands its product over whole. The
        // table holds it once the product has run — `Table::accumulate`
        // of every block of the product `mm_exec` forms — and `finish`
        // leaves the table as it is and returns what the merge let
        // through.
        let n = 29;
        let keep = |g: &Dist, old: Option<&Dist>, t: &Dist| (old != Some(t)).then_some(*g);
        for p in [4usize, 8, 16] {
            let m = Machine::new(MachineSpec::test(p));
            let l = canonical_layout(&m, n, n);
            let x = DistMat::from_global(l.clone(), &operand(n));
            let seed = operand(n).filter(|i, j, _| (i * 5 + j) % 4 == 0);
            let seed = DistMat::from_global(l, &seed);
            for plan in enumerate_plans(p).into_iter().filter(|pl| !pl.lands()) {
                for track in [false, true] {
                    let what = format!("{plan} at p={p}, tracked: {track}");
                    let mut want = DistTable::from_dmat(&seed, track);
                    let mask = want.mask();
                    let c = mm_exec_masked::<TropicalKernel>(&m, &plan, &x, &x, mask.as_ref());
                    let c = c.unwrap().c;
                    drop(mask);
                    let step = |bi, bj, t: &mut Table<Dist>| {
                        t.accumulate::<MinDist>(c.block(bi, bj), keep)
                    };
                    let (kept, _) = want.update_blocks(step);
                    assert!(kept.iter().any(|k| k.nnz() > 0), "{what}: a product to merge");

                    seed.charge_memory(&m).unwrap();
                    let mut table = DistTable::from_dmat(&seed, track);
                    let mut land = Accumulate::<TropicalKernel, _>::new(&mut table, &keep);
                    let mut cache = MmCache::new();
                    mm_land::<TropicalKernel, _>(&m, &plan, &x, &x, &mut land, &mut cache)
                        .unwrap();
                    cache.release_all(&m);
                    assert!(frozen(land.table) == frozen(&want), "{what}: merged on arrival");
                    let frontier = land.finish(&m).unwrap();
                    assert!(frozen(&table) == frozen(&want), "{what}: finish merges nothing");
                    let l = frontier.layout();
                    let got = l.blocks().map(|(bi, bj)| frontier.block(bi, bj));
                    assert!(got.eq(&kept), "{what}: the frontier");
                }
            }
        }
    }

    #[test]
    fn landed_slabs_never_overlap_so_no_assembly_can_panic() {
        // The landing path never assembles (`mm::assemble_canonical`
        // and its overlap panic are not on it). Every band of a
        // landing arrives, and its cells tile the output once, each
        // inside the slab of the rank that forms it (a row slab under
        // 1d(B), a column slab under 1d(A)): what the rank is billed is
        // what its slab formed.
        for p in [1usize, 2, 3, 4, 6, 7, 8, 12, 16] {
            let m = Machine::new(MachineSpec::test(p));
            for n in [1usize, 3, 29, 64] {
                let x = DistMat::from_global(canonical_layout(&m, n, n), &operand(n));
                for plan in enumerate_plans(p).into_iter().filter(MmPlan::lands) {
                    let layout = x.layout().clone();
                    let mut rects = Rects {
                        layout,
                        cells: Vec::new(),
                        next: 0,
                    };
                    let mut cache = MmCache::new();
                    mm_land::<TropicalKernel, _>(&m, &plan, &x, &x, &mut rects, &mut cache)
                        .unwrap();
                    cache.release_all(&m);
                    let what = format!("{plan} at p={p}, n={n}");
                    assert_eq!(rects.next, x.layout().br(), "{what}: every band");
                    let slabs = mfbc_sparse::slice::even_ranges(n, p);
                    let mut hits = vec![0u8; n * n];
                    for (rows, cols, k) in &rects.cells {
                        let slab = &slabs[*k];
                        let own = match plan {
                            MmPlan::OneD(Variant1D::B) => {
                                slab.start <= rows.start && rows.end <= slab.end
                            }
                            _ => slab == cols,
                        };
                        let empty = rows.is_empty() || cols.is_empty();
                        assert!(own || empty, "{what}: cell {rows:?}x{cols:?} off rank {k}");
                        for i in rows.clone() {
                            for j in cols.clone() {
                                hits[i * n + j] += 1;
                            }
                        }
                    }
                    assert!(
                        hits.iter().all(|&h| h == 1),
                        "{what}: a cell landed twice or never"
                    );
                }
            }
        }
    }
}
