//! Where a sweep's matrices live and where its products run.
//!
//! Algorithms 1–3 are written once, in [`crate::sweep`], over the
//! [`Backend`] operations; the two implementations decide what a
//! matrix is and what an operation costs:
//!
//! * [`Local`] — `Csr` matrices and the `mfbc-sparse` kernels in one
//!   address space. Infallible, charges nothing, announces nothing.
//! * [`Simulated`] — canonically distributed [`DistMat`]s on a
//!   [`Machine`]: products charge their communication to the critical
//!   path, elementwise steps charge local compute, termination checks
//!   charge an allreduce, tables charge memory. It owns what a run
//!   keeps resident: `A`, `Aᵀ` and (Theorem 5.1's amortization) the
//!   prepared-adjacency caches.

use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::{Dist, SpMulKernel};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::{
    elementwise, spgemm_anchor, spgemm_opt, spgemm_settle, Csr, Idx, Mask, MaskKind, SortedRows,
    Table,
};
use mfbc_tensor::cache::{CacheStats, MmCache};
use mfbc_tensor::{autotune, canonical_layout, ops, DistMat, DistTable, Layout, MmPlan};

/// Matrix element types (what every sparse and tensor kernel asks).
pub trait Elem: Clone + PartialEq + Send + Sync + std::fmt::Debug {}
impl<T: Clone + PartialEq + Send + Sync + std::fmt::Debug> Elem for T {}

/// The resident operand a product multiplies by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adj {
    /// The adjacency matrix `A` (forward sweeps).
    A,
    /// Its transpose `Aᵀ` (backward sweeps).
    At,
}

/// `Z` while the backward sweep settles it in place
/// ([`Backend::anchor`] opens it, [`Backend::settle`] updates it,
/// [`Backend::freeze`] closes it), with — on a backend that masks —
/// the *pending* set beside it: the coordinates that have not fired
/// yet, as `P` stores them.
#[derive(Clone, Debug)]
pub struct Settling<Z, P> {
    pub(crate) z: Z,
    pub(crate) pending: Option<P>,
}

/// The operations Algorithms 1–3 are made of. Elementwise operands
/// must share a shape (and, distributed, a layout); closures receive
/// global coordinates and must be pure.
pub trait Backend {
    /// A batch-by-vertex sparse matrix.
    type Mat<T: Elem>;
    /// A matrix while it grows in place: the forward table, sorted
    /// into a [`Backend::Mat`] once, by [`Backend::freeze`].
    type Table<T: Elem>;
    /// How the pending set of a [`Settling`] matrix is stored.
    type Pending;
    /// What a charged operation can fail with.
    type Error;

    /// Places a replicated global matrix.
    fn place<T: Elem>(&self, m: Csr<T>) -> Self::Mat<T>;

    /// The per-superstep termination check: the global nonzero count
    /// of `frontier`, announced as superstep `step` of `phase` when
    /// the sweep goes on.
    fn nnz_sync<T: Elem>(
        &self,
        phase: &'static str,
        step: usize,
        frontier: &Self::Mat<T>,
    ) -> Result<usize, Self::Error>;

    /// Brackets a sweep's superstep loop for timeline views.
    fn span(&self, _phase: &'static str) -> Option<mfbc_trace::Span> {
        None
    }

    /// `frontier •⟨⊕,f⟩ adj` under an optional output mask; returns
    /// the product and its elementary-product count `ops`.
    ///
    /// `priced` is the mask a backend that picks a plan prices the
    /// product under. It allows at least what `mask` does and is the
    /// one a sweep holds still while `mask` shrinks — the table's
    /// pattern, not the pending set — so the plans of a sweep follow
    /// its frontiers rather than its masks, and what Theorem 5.1
    /// amortizes stays amortized.
    #[allow(clippy::type_complexity)]
    fn mm<K: SpMulKernel<Right = Dist>>(
        &mut self,
        frontier: &Self::Mat<K::Left>,
        adj: Adj,
        mask: Option<&Mask>,
        priced: Option<&Mask>,
    ) -> Result<(Self::Mat<KernelOut<K>>, u64), Self::Error>;

    /// An output mask of `kind` over `m`'s pattern, or `None` on a
    /// backend that does not mask. The backends refuse on weighted
    /// graphs, and that refusal is a forward-sweep argument: a
    /// rediscovery can still improve a settled distance there, so the
    /// complement of the table would drop a product that matters.
    /// Every backward mask (the table's pattern, the pending set) is
    /// inert for any weights — `⊗` discards what it skips — and is
    /// left out on weighted graphs only because it does not pay
    /// there (ROADMAP item 1).
    fn mask_of<'a, T: Elem>(&self, kind: MaskKind, m: &'a Self::Mat<T>) -> Option<Mask<'a>>;

    /// `A ⊕ B`.
    fn combine<M: Monoid>(
        &self,
        a: &Self::Mat<M::Elem>,
        b: &Self::Mat<M::Elem>,
    ) -> Self::Mat<M::Elem>;

    /// Opens the table a sweep grows, holding `seed`'s entries and
    /// taking over its residency charge.
    fn table<T: Elem>(&self, seed: Self::Mat<T>) -> Self::Table<T>;

    /// The complement mask of `table`'s pattern — [`Backend::mask_of`]
    /// read off the growing table.
    fn table_mask<'a, T: Elem>(&self, table: &'a Self::Table<T>) -> Option<Mask<'a>>;

    /// `table := table ⊕ explored` in place, the table's residency
    /// re-charged at its new size; returns the entries of `explored`
    /// that `keep(explored_val, updated_table_val)` lets through
    /// (`None` and `M`'s identity drop an entry). Work is proportional
    /// to `explored`, not to the table.
    fn accumulate<M: Monoid>(
        &self,
        table: &mut Self::Table<M::Elem>,
        explored: &Self::Mat<M::Elem>,
        keep: impl Fn(&M::Elem, &M::Elem) -> Option<M::Elem> + Sync,
    ) -> Result<Self::Mat<M::Elem>, Self::Error>;

    /// Closes a table into the matrix it describes, its residency
    /// charge carried over.
    fn freeze<T: Elem>(&self, table: Self::Table<T>) -> Self::Mat<T>;

    /// Algorithm 2, lines 1–4, as one product into a freshly opened
    /// `Z`: the table on `base`'s pattern, resident, that holds
    /// `init(base_val, counted_opt)` — `counted` being the product of
    /// `seed(base_val)` over `base`'s entries with `adj`, under (and
    /// priced under) `within` — after `fire(&mut z_val, base_val)` has
    /// had its one chance to rewrite each entry and emit an entry of
    /// the matrix returned beside it. The coordinates `fire` passes on
    /// are pending. Also returns the product's `ops`.
    #[allow(clippy::type_complexity)]
    fn anchor<K, T: Elem>(
        &mut self,
        base: &Self::Mat<T>,
        adj: Adj,
        within: Option<&Mask>,
        seed: impl Fn(&T) -> KernelOut<K> + Sync,
        init: impl Fn(&T, Option<&KernelOut<K>>) -> KernelOut<K> + Sync,
        fire: impl Fn(&mut KernelOut<K>, &T) -> Option<KernelOut<K>> + Sync,
    ) -> Result<
        (
            Settling<Self::Table<KernelOut<K>>, Self::Pending>,
            Self::Mat<KernelOut<K>>,
            u64,
        ),
        Self::Error,
    >
    where
        K: SpMulKernel<Left = KernelOut<K>, Right = Dist>;

    /// The structural mask of `z`'s pending set — the only outputs a
    /// product can still matter at — or `None` where none is kept.
    fn pending_mask<'a, T: Elem>(
        &self,
        z: &'a Settling<Self::Table<T>, Self::Pending>,
    ) -> Option<Mask<'a>>;

    /// Algorithm 2, lines 6–11, as one product into `z`:
    /// `z := z ⊕ (frontier •⟨⊕,f⟩ adj)` in place on `z`'s pattern
    /// (products landing elsewhere are dropped); on each entry just
    /// updated, `fire(&mut z_val, side_val)` may rewrite it and emit an
    /// entry of the returned matrix, and an entry it fires on is no
    /// longer pending. `side` is the matrix `z` was opened on. Work is
    /// proportional to the product, not to `z`.
    ///
    /// The product runs under `z`'s pending set where one is kept and
    /// under `within` otherwise, and is priced under `within` either
    /// way (see [`Backend::mm`]'s `priced`).
    #[allow(clippy::type_complexity)]
    fn settle<K, U: Elem>(
        &mut self,
        z: &mut Settling<Self::Table<KernelOut<K>>, Self::Pending>,
        frontier: &Self::Mat<K::Left>,
        adj: Adj,
        within: Option<&Mask>,
        side: &Self::Mat<U>,
        fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
    ) -> Result<(Self::Mat<KernelOut<K>>, u64), Self::Error>
    where
        K: SpMulKernel<Right = Dist>;

    /// `f(i, j, a_val, b_val_opt)` over `a`'s entries; `None` and
    /// `M`'s identity drop the entry.
    fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &Self::Mat<T>,
        b: &Self::Mat<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> Self::Mat<M::Elem>;

    /// `f(i, j, a_val)` over `a`'s entries; `None` and `M`'s identity
    /// drop the entry.
    fn map_filter<M: Monoid, T: Elem>(
        &self,
        a: &Self::Mat<T>,
        f: impl Fn(usize, usize, &T) -> Option<M::Elem> + Sync,
    ) -> Self::Mat<M::Elem>;

    /// `acc[j] += a(i, j)`, one addition per entry, in ascending
    /// `(j, i)` order — so `acc` is independent of how rows were
    /// batched.
    fn fold_columns(&self, a: &Self::Mat<f64>, acc: &mut [f64]) -> Result<(), Self::Error>;

    /// Makes a table resident (a memory charge).
    fn charge<T: Elem>(&self, m: &Self::Mat<T>) -> Result<(), Self::Error>;

    /// Ends a table's residency.
    fn release<T: Elem>(&self, m: &Self::Mat<T>);
}

/// Shared-memory execution on CSR matrices.
pub struct Local<'g> {
    a: &'g Csr<Dist>,
    at: Csr<Dist>,
    /// Whether sweeps run under output masks: on unit-weighted graphs,
    /// exactly where [`crate::MfbcConfig::default`] masks.
    pub(crate) masked: bool,
}

impl<'g> Local<'g> {
    /// A backend multiplying by `g`'s adjacency and its transpose.
    pub fn new(g: &'g Graph) -> Local<'g> {
        Local {
            a: g.adjacency(),
            at: g.adjacency_t(),
            masked: g.is_unit_weighted(),
        }
    }
}

impl Backend for Local<'_> {
    type Mat<T: Elem> = Csr<T>;
    type Table<T: Elem> = Table<T>;
    type Pending = SortedRows;
    type Error = std::convert::Infallible;

    fn place<T: Elem>(&self, m: Csr<T>) -> Csr<T> {
        m
    }

    fn nnz_sync<T: Elem>(
        &self,
        _: &'static str,
        _: usize,
        f: &Csr<T>,
    ) -> Result<usize, Self::Error> {
        Ok(f.nnz())
    }

    fn mm<K: SpMulKernel<Right = Dist>>(
        &mut self,
        frontier: &Csr<K::Left>,
        adj: Adj,
        mask: Option<&Mask>,
        _priced: Option<&Mask>,
    ) -> Result<(Csr<KernelOut<K>>, u64), Self::Error> {
        let out = spgemm_opt::<K>(frontier, [self.a, &self.at][adj as usize], mask);
        Ok((out.mat, out.ops))
    }

    fn mask_of<'a, T: Elem>(&self, kind: MaskKind, m: &'a Csr<T>) -> Option<Mask<'a>> {
        self.masked.then(|| Mask::of_pattern(kind, m))
    }

    fn combine<M: Monoid>(&self, a: &Csr<M::Elem>, b: &Csr<M::Elem>) -> Csr<M::Elem> {
        elementwise::combine::<M, _>(a, b)
    }

    fn table<T: Elem>(&self, seed: Csr<T>) -> Table<T> {
        Table::from_csr(&seed, self.masked)
    }

    fn table_mask<'a, T: Elem>(&self, t: &'a Table<T>) -> Option<Mask<'a>> {
        self.masked
            .then(|| Mask::over_rows(MaskKind::Complement, t.pattern()))
    }

    fn accumulate<M: Monoid>(
        &self,
        table: &mut Table<M::Elem>,
        explored: &Csr<M::Elem>,
        keep: impl Fn(&M::Elem, &M::Elem) -> Option<M::Elem> + Sync,
    ) -> Result<Csr<M::Elem>, Self::Error> {
        Ok(table.accumulate::<M>(explored, keep))
    }

    fn freeze<T: Elem>(&self, table: Table<T>) -> Csr<T> {
        table.freeze()
    }

    fn anchor<K, T: Elem>(
        &mut self,
        base: &Csr<T>,
        adj: Adj,
        within: Option<&Mask>,
        seed: impl Fn(&T) -> KernelOut<K> + Sync,
        init: impl Fn(&T, Option<&KernelOut<K>>) -> KernelOut<K> + Sync,
        fire: impl Fn(&mut KernelOut<K>, &T) -> Option<KernelOut<K>> + Sync,
    ) -> Result<
        (
            Settling<Table<KernelOut<K>>, SortedRows>,
            Csr<KernelOut<K>>,
            u64,
        ),
        Self::Error,
    >
    where
        K: SpMulKernel<Left = KernelOut<K>, Right = Dist>,
    {
        // One seed per entry of `base`, so its structure is shared
        // rather than rebuilt; an identity seed would have no place in
        // it.
        let seeds = base.map(|_, _, v| {
            let s = seed(v);
            assert!(!K::Acc::is_identity(&s), "an identity seed");
            s
        });
        let adj = [self.a, &self.at][adj as usize];
        let (z, leaves, pending) =
            spgemm_anchor::<K, T>(&seeds, adj, within, base, init, fire, self.masked);
        Ok((Settling { z, pending }, leaves.mat, leaves.ops))
    }

    fn pending_mask<'a, T: Elem>(&self, z: &'a Settling<Table<T>, SortedRows>) -> Option<Mask<'a>> {
        let rows = z.pending.as_ref()?;
        Some(Mask::over_rows(MaskKind::Structural, rows))
    }

    fn settle<K, U: Elem>(
        &mut self,
        z: &mut Settling<Table<KernelOut<K>>, SortedRows>,
        frontier: &Csr<K::Left>,
        adj: Adj,
        within: Option<&Mask>,
        side: &Csr<U>,
        fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
    ) -> Result<(Csr<KernelOut<K>>, u64), Self::Error>
    where
        K: SpMulKernel<Right = Dist>,
    {
        let adj = [self.a, &self.at][adj as usize];
        // The product's mask borrows the pending rows the entries it
        // fires must leave: the table is settled during the product,
        // the rows are shrunk after it, by what came out.
        let pending = z.pending.as_ref();
        let pending = pending.map(|rows| Mask::over_rows(MaskKind::Structural, rows));
        let mask = pending.as_ref().or(within);
        let out = spgemm_settle::<K, U>(frontier, adj, mask, &mut z.z, side, fire);
        if let Some(rows) = &mut z.pending {
            rows.remove_pattern(&out.mat);
        }
        Ok((out.mat, out.ops))
    }

    fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &Csr<T>,
        b: &Csr<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> Csr<M::Elem> {
        elementwise::zip_filter::<M, _, _, _>(a, b, f)
    }

    fn map_filter<M: Monoid, T: Elem>(
        &self,
        a: &Csr<T>,
        f: impl Fn(usize, usize, &T) -> Option<M::Elem> + Sync,
    ) -> Csr<M::Elem> {
        elementwise::map_filter::<M, _, _>(a, f)
    }

    fn fold_columns(&self, a: &Csr<f64>, acc: &mut [f64]) -> Result<(), Self::Error> {
        for (_, j, v) in a.iter() {
            acc[j] += v;
        }
        Ok(())
    }

    fn charge<T: Elem>(&self, _: &Csr<T>) -> Result<(), Self::Error> {
        Ok(())
    }

    fn release<T: Elem>(&self, _: &Csr<T>) {}
}

/// Execution on the simulated machine, every matrix in the canonical
/// world layout.
pub struct Simulated {
    /// The machine every operation charges.
    pub(crate) m: Machine,
    /// `A` and `Aᵀ`, indexed by [`Adj`].
    adj: [DistMat<Dist>; 2],
    /// Prepared forms of each, kept across products when `amortize`
    /// is set.
    caches: [MmCache<Dist>; 2],
    /// The plan every product runs; `None` autotunes each one.
    plan: Option<MmPlan>,
    amortize: bool,
    masked: bool,
    /// Batch index stamped on superstep events and phase spans.
    pub(crate) batch: usize,
    closed: bool,
}

impl Simulated {
    /// Distributes `g`'s adjacency and its transpose on `m` and charges
    /// their residency, held until [`Simulated::close`].
    ///
    /// `amortize = false` re-pays the adjacency's preparation on every
    /// product; `masked` is the caller's word that masks cannot change
    /// a result (see [`Backend::mask_of`]).
    ///
    /// # Errors
    /// Propagates memory-budget failures.
    pub fn new(
        m: &Machine,
        g: &Graph,
        plan: Option<MmPlan>,
        amortize: bool,
        masked: bool,
    ) -> Result<Simulated, MachineError> {
        let (n, at) = (g.n(), g.adjacency_t());
        let adj = [g.adjacency(), &at].map(|a| DistMat::from_global(canonical_layout(m, n, n), a));
        for a in &adj {
            a.charge_memory(m)?;
        }
        Ok(Simulated {
            m: m.clone(),
            adj,
            caches: [MmCache::new(), MmCache::new()],
            plan,
            amortize,
            masked,
            batch: 0,
            closed: false,
        })
    }

    /// Releases the adjacency and every cached form, so the memory
    /// meter balances. Idempotent.
    pub fn close(&mut self) {
        if !std::mem::replace(&mut self.closed, true) {
            self.caches.iter_mut().for_each(|c| c.release_all(&self.m));
            self.adj.iter().for_each(|a| a.release_memory(&self.m));
        }
    }

    /// Whether [`Simulated::close`] has run.
    pub(crate) fn closed(&self) -> bool {
        self.closed
    }

    /// Prepared-adjacency cache activity, both orientations.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        self.caches.iter().for_each(|c| total.absorb(c.stats()));
        total
    }

    /// The cached forms present now; a rollback keeps only these.
    pub(crate) fn cache_keys(&self) -> [Vec<String>; 2] {
        self.caches.each_ref().map(|c| c.keys())
    }

    /// Drops (and stops charging) every cached form not in `keep`.
    pub(crate) fn discard_cached_except(&mut self, keep: &[Vec<String>; 2]) {
        for (c, k) in self.caches.iter_mut().zip(keep) {
            c.discard_except(k);
        }
    }
}

/// `f(r0 + i, c0 + j)` over every stored coordinate of `m`, blocks in
/// row-major order. The pattern is read off the resident blocks; like
/// canonical output assembly, its movement is not charged (DESIGN.md
/// §7, deviation 6).
fn for_each_coord<T: Elem>(m: &DistMat<T>, mut f: impl FnMut(usize, usize)) {
    let l = m.layout();
    for bi in 0..l.br() {
        let r0 = l.row_range(bi).start;
        for bj in 0..l.bc() {
            let c0 = l.col_range(bj).start;
            for (i, j, _) in m.block(bi, bj).iter() {
                f(r0 + i, c0 + j);
            }
        }
    }
}

/// A global mask of `kind` over blocks stored by layout `l`, where
/// `row(bi, bj, i)` is the ascending local pattern of row `i` of block
/// `(bi, bj)`: block-columns ascend, so each global row is its blocks'
/// rows end to end. Like the coordinates [`for_each_coord`] reads,
/// the pattern's movement is not charged.
fn mask_of_blocks<'a>(
    kind: MaskKind,
    l: &Layout,
    row: impl Fn(usize, usize, usize) -> &'a [Idx] + Copy,
) -> Mask<'static> {
    let rows = (0..l.br()).flat_map(|bi| {
        (0..l.row_range(bi).len()).map(move |i| {
            (0..l.bc()).flat_map(move |bj| {
                let c0 = l.col_range(bj).start as Idx;
                row(bi, bj, i).iter().map(move |&j| c0 + j)
            })
        })
    });
    Mask::from_sorted_rows(kind, l.nrows(), l.ncols(), rows)
}

impl Backend for Simulated {
    type Mat<T: Elem> = DistMat<T>;
    type Table<T: Elem> = DistTable<T>;
    /// One [`SortedRows`] per block, in block order.
    type Pending = Vec<SortedRows>;
    type Error = MachineError;

    fn place<T: Elem>(&self, m: Csr<T>) -> DistMat<T> {
        DistMat::from_global(canonical_layout(&self.m, m.nrows(), m.ncols()), &m)
    }

    fn nnz_sync<T: Elem>(
        &self,
        phase: &'static str,
        step: usize,
        frontier: &DistMat<T>,
    ) -> Result<usize, MachineError> {
        let nnz = ops::nnz_sync(&self.m, frontier)?;
        if nnz > 0 {
            mfbc_trace::emit(|| {
                // Rows still holding an entry: the batch sources that
                // have not converged.
                let mut active = vec![false; frontier.nrows()];
                for_each_coord(frontier, |i, _| active[i] = true);
                mfbc_trace::TraceEvent::Superstep {
                    phase,
                    batch: self.batch,
                    step,
                    frontier_nnz: nnz as u64,
                    active_rows: active.iter().filter(|&&b| b).count() as u64,
                }
            });
        }
        Ok(nnz)
    }

    fn span(&self, phase: &'static str) -> Option<mfbc_trace::Span> {
        Some(mfbc_trace::span(|| format!("batch{}/{phase}", self.batch)))
    }

    fn mm<K: SpMulKernel<Right = Dist>>(
        &mut self,
        frontier: &DistMat<K::Left>,
        adj: Adj,
        mask: Option<&Mask>,
        priced: Option<&Mask>,
    ) -> Result<(DistMat<KernelOut<K>>, u64), MachineError> {
        let (m, f) = (&self.m, frontier);
        let (a, cache) = (&self.adj[adj as usize], &mut self.caches[adj as usize]);
        let _span = self
            .plan
            .is_none()
            .then(|| mfbc_trace::span(|| "mm_auto".to_string()));
        let tuned =
            || autotune::best_plan(m.spec(), &autotune::stats_for_masked::<K>(f, a, priced)).0;
        let plan = self.plan.clone().unwrap_or_else(tuned);
        let out = if self.amortize {
            mfbc_tensor::mm_exec_cached_masked::<K>(m, &plan, f, a, mask, cache)
        } else {
            mfbc_tensor::mm_exec_masked::<K>(m, &plan, f, a, mask)
        }?;
        Ok((out.c, out.ops))
    }

    fn mask_of<'a, T: Elem>(&self, kind: MaskKind, m: &'a DistMat<T>) -> Option<Mask<'a>> {
        self.masked
            .then(|| mask_of_blocks(kind, m.layout(), |bi, bj, i| m.block(bi, bj).row_cols(i)))
    }

    fn combine<M: Monoid>(&self, a: &DistMat<M::Elem>, b: &DistMat<M::Elem>) -> DistMat<M::Elem> {
        ops::dmat_combine::<M, _>(&self.m, a, b)
    }

    fn table<T: Elem>(&self, seed: DistMat<T>) -> DistTable<T> {
        DistTable::from_dmat(&seed, self.masked)
    }

    fn table_mask<'a, T: Elem>(&self, t: &'a DistTable<T>) -> Option<Mask<'a>> {
        self.masked.then(|| {
            mask_of_blocks(MaskKind::Complement, t.layout(), |bi, bj, i| {
                t.block(bi, bj).pattern().row(i)
            })
        })
    }

    fn accumulate<M: Monoid>(
        &self,
        table: &mut DistTable<M::Elem>,
        explored: &DistMat<M::Elem>,
        keep: impl Fn(&M::Elem, &M::Elem) -> Option<M::Elem> + Sync,
    ) -> Result<DistMat<M::Elem>, MachineError> {
        ops::dmat_accumulate::<M, _>(&self.m, table, explored, keep)
    }

    fn freeze<T: Elem>(&self, table: DistTable<T>) -> DistMat<T> {
        table.freeze()
    }

    fn anchor<K, T: Elem>(
        &mut self,
        base: &DistMat<T>,
        adj: Adj,
        within: Option<&Mask>,
        seed: impl Fn(&T) -> KernelOut<K> + Sync,
        init: impl Fn(&T, Option<&KernelOut<K>>) -> KernelOut<K> + Sync,
        fire: impl Fn(&mut KernelOut<K>, &T) -> Option<KernelOut<K>> + Sync,
    ) -> Result<
        (
            Settling<DistTable<KernelOut<K>>, Vec<SortedRows>>,
            DistMat<KernelOut<K>>,
            u64,
        ),
        MachineError,
    >
    where
        K: SpMulKernel<Left = KernelOut<K>, Right = Dist>,
    {
        // The count has to be communicated, so here it is a matrix.
        let seeds = self.map_filter::<K::Acc, T>(base, |_, _, v| Some(seed(v)));
        let (counted, ops) = self.mm::<K>(&seeds, adj, within, within)?;
        let (z, frontier, pending) =
            ops::dmat_anchor::<K::Acc, T>(&self.m, base, &counted, init, fire, self.masked)?;
        Ok((Settling { z, pending }, frontier, ops))
    }

    fn pending_mask<'a, T: Elem>(
        &self,
        z: &'a Settling<DistTable<T>, Vec<SortedRows>>,
    ) -> Option<Mask<'a>> {
        let (rows, l) = (z.pending.as_ref()?, z.z.layout());
        Some(mask_of_blocks(MaskKind::Structural, l, |bi, bj, i| {
            rows[l.block_id(bi, bj)].row(i)
        }))
    }

    fn settle<K, U: Elem>(
        &mut self,
        z: &mut Settling<DistTable<KernelOut<K>>, Vec<SortedRows>>,
        frontier: &DistMat<K::Left>,
        adj: Adj,
        within: Option<&Mask>,
        side: &DistMat<U>,
        fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
    ) -> Result<(DistMat<KernelOut<K>>, u64), MachineError>
    where
        K: SpMulKernel<Right = Dist>,
    {
        // The product has to be communicated, so here it is a matrix
        // (and the mask a copy, which does not borrow the rows).
        let pending = self.pending_mask(z);
        let (back, ops) = self.mm::<K>(frontier, adj, pending.as_ref().or(within), within)?;
        let rows = z.pending.as_deref_mut();
        let frontier = ops::dmat_settle::<K::Acc, U>(&self.m, &mut z.z, rows, &back, side, fire);
        Ok((frontier, ops))
    }

    fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &DistMat<T>,
        b: &DistMat<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> DistMat<M::Elem> {
        ops::dmat_zip_filter::<M, _, _, _>(&self.m, a, b, f)
    }

    fn map_filter<M: Monoid, T: Elem>(
        &self,
        a: &DistMat<T>,
        f: impl Fn(usize, usize, &T) -> Option<M::Elem> + Sync,
    ) -> DistMat<M::Elem> {
        ops::dmat_map_filter::<M, _, _>(&self.m, a, f)
    }

    fn fold_columns(&self, a: &DistMat<f64>, acc: &mut [f64]) -> Result<(), MachineError> {
        ops::dmat_fold_columns(&self.m, a, acc)
    }

    fn charge<T: Elem>(&self, m: &DistMat<T>) -> Result<(), MachineError> {
        m.charge_memory(&self.m)
    }

    fn release<T: Elem>(&self, m: &DistMat<T>) {
        m.release_memory(&self.m)
    }
}
