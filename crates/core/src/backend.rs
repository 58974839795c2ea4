//! Where a sweep's matrices live and where its products run.
//!
//! Algorithms 1–3 are written once, in [`crate::sweep`], over the
//! [`Backend`] operations — each sweep one opening call and then one
//! step per superstep, a product *into* the sweep's table under the
//! mask the table itself reports; the two implementations decide what
//! a matrix is, what happens behind a step and what it costs:
//!
//! * [`Local`] — `Csr` matrices and the `mfbc-sparse` kernels in one
//!   address space. Infallible, charges nothing, announces nothing.
//! * [`Simulated`] — canonically distributed [`DistMat`]s on a
//!   [`Machine`]: every step's product runs through one executor into
//!   the table blocks that consume it — band by band where its plan
//!   allows, whole where the plan reduces or assembles — and charges
//!   its communication to the critical path; elementwise steps charge
//!   local compute, termination checks charge an allreduce, tables
//!   charge memory. It owns what a run keeps resident: `A`, `Aᵀ` and
//!   (Theorem 5.1's amortization) the prepared-adjacency caches. Its
//!   [`Simulated::mm`], [`Simulated::combine`] and
//!   [`Simulated::charge`] are what the CombBLAS baseline — a
//!   different algorithm on the same machine — calls.

use mfbc_algebra::kernel::{BrandesKernel, KernelOut};
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::{Centpath, Dist, Multpath, SpMulKernel};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::transpose::transpose;
use mfbc_sparse::{
    count_children, elementwise, spgemm_accumulate, spgemm_settle, Csr, Mask, MaskKind, Table,
};
use mfbc_tensor::autotune::{self, Pick};
use mfbc_tensor::cache::{CacheStats, MmCache};
use mfbc_tensor::land::{self, Land};
use mfbc_tensor::{canonical_layout, ops, DistMat, DistTable, MmPlan};

/// Matrix element types (what every sparse and tensor kernel asks).
pub trait Elem: Clone + PartialEq + Send + Sync + std::fmt::Debug {}
impl<T: Clone + PartialEq + Send + Sync + std::fmt::Debug> Elem for T {}

/// The resident operand [`Simulated::mm`] multiplies by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adj {
    /// The adjacency matrix `A` (forward sweeps).
    A,
    /// Its transpose `Aᵀ` (backward sweeps).
    At,
}

/// The operations Algorithms 1–3 are made of: each sweep opens a table
/// and steps it ([`Backend::open`] + [`Backend::explore`] forward,
/// [`Backend::anchor`] + [`Backend::settle`] backward), one product
/// *into* the table per step. Elementwise operands must share a shape
/// (and, distributed, a layout); closures receive global coordinates
/// and must be pure.
///
/// Who masks: a backend that masks opens its tables with tracking, and
/// a table opened with tracking reports the mask of what can still
/// land in it (`mfbc_sparse::Table::mask`) — every stored coordinate,
/// complemented, while [`Backend::explore`] grows it; the *pending*
/// coordinates, those that have not fired, once [`Backend::anchor`]
/// has opened it. A step's product runs under the mask its table
/// reports; one opened without tracking reports none.
pub trait Backend {
    /// A batch-by-vertex sparse matrix.
    type Mat<T: Elem>;
    /// A matrix while it is updated in place: the forward table and
    /// MFBr's `Z`, sorted into a [`Backend::Mat`] once, by
    /// [`Backend::freeze`].
    type Table<T: Elem>;
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

    /// Algorithm 1, lines 1–2: opens the table a sweep grows,
    /// resident, holding `frontier ⊕ diag` — or `frontier` itself,
    /// which merges nothing, without `diag`.
    fn open<M: Monoid>(
        &self,
        frontier: &Self::Mat<M::Elem>,
        diag: Option<&Self::Mat<M::Elem>>,
    ) -> Result<Self::Table<M::Elem>, Self::Error>;

    /// Algorithm 1, lines 4–6, as one product into `table`:
    /// `table := table ⊕ (frontier •⟨⊕,f⟩ A)` in place, under the mask
    /// `table` reports and with its residency re-charged at its new
    /// size; returns the explored entries that
    /// `keep(explored_val, table_val_before, updated_table_val)` lets
    /// through (`None` and the identity drop an entry) and the
    /// product's `ops`. Work is proportional to the product, not to
    /// the table.
    #[allow(clippy::type_complexity)]
    fn explore<K: SpMulKernel<Right = Dist>>(
        &mut self,
        table: &mut Self::Table<KernelOut<K>>,
        frontier: &Self::Mat<K::Left>,
        keep: impl Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>>
            + Sync,
    ) -> Result<(Self::Mat<KernelOut<K>>, u64), Self::Error>;

    /// Algorithm 2, lines 1–4: opens `Z` on `t`'s pattern, resident,
    /// every entry anchored at `(τ, 0, #children)` — `#children` being
    /// how many `w` with `(s,w) ∈ t` have `τ(s,w) − A(v,w) = τ(s,v)`,
    /// and 0 where one exceeds it, as the child-count product of
    /// `(τ, 0, 1)` seeds with `Aᵀ` and [`crate::sweep::mfbr_anchor`]
    /// make it (a backend that charges that product may count it off
    /// `t` in place: the seeds are charged, not built, where nothing
    /// moves them) — after `fire(&mut z_val, t_val)` has had its one chance
    /// to rewrite each entry and emit an entry of the matrix returned
    /// beside it. The coordinates `fire` passes on are pending. Also
    /// returns the `ops` of that product, which runs under `t`'s
    /// structural pattern where the backend masks.
    #[allow(clippy::type_complexity)]
    fn anchor(
        &mut self,
        t: &Self::Mat<Multpath>,
        fire: impl Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
    ) -> Result<(Self::Table<Centpath>, Self::Mat<Centpath>, u64), Self::Error>;

    /// Algorithm 2, lines 6–11, as one product into `z`:
    /// `z := z ⊕ (frontier •⟨⊕,f⟩ Aᵀ)` in place on `z`'s pattern
    /// (products landing elsewhere are dropped); on each entry just
    /// updated, `fire(&mut z_val, side_val)` may rewrite it and emit an
    /// entry of the returned matrix, and an entry it fires on is no
    /// longer pending. `side` is the matrix `z` was opened on. Work is
    /// proportional to the product, not to `z`.
    ///
    /// The product runs under the mask `z` reports, and under `within`
    /// where it reports none.
    #[allow(clippy::type_complexity)]
    fn settle<K, U: Elem>(
        &mut self,
        z: &mut Self::Table<KernelOut<K>>,
        frontier: &Self::Mat<K::Left>,
        within: Option<&Mask>,
        side: &Self::Mat<U>,
        fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
    ) -> Result<(Self::Mat<KernelOut<K>>, u64), Self::Error>
    where
        K: SpMulKernel<Right = Dist>;

    /// Closes a table into the matrix it describes, its residency
    /// charge carried over.
    fn freeze<T: Elem>(&self, table: Self::Table<T>) -> Self::Mat<T>;

    /// `f(i, j, a_val, b_val_opt)` over `a`'s entries; `None` and
    /// `M`'s identity drop the entry.
    fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &Self::Mat<T>,
        b: &Self::Mat<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> Self::Mat<M::Elem>;

    /// `acc[j] += a(i, j)`, one addition per entry, in ascending
    /// `(j, i)` order — so `acc` is independent of how rows were
    /// batched.
    fn fold_columns(&self, a: &Self::Mat<f64>, acc: &mut [f64]) -> Result<(), Self::Error>;

    /// Ends a table's residency.
    fn release<T: Elem>(&self, m: &Self::Mat<T>);
}

/// Shared-memory execution on CSR matrices.
///
/// Every step is one product into its table, and none builds the
/// product as a matrix: the row kernel of `mfbc_sparse` hands each
/// finished accumulator row to the table — [`spgemm_accumulate`] into
/// `T` forward, [`spgemm_settle`] into `Z` backward. `Z` is opened
/// without a product at all: [`count_children`] counts each entry's
/// children in place.
pub struct Local<'g> {
    a: &'g Csr<Dist>,
    /// `Aᵀ`, transposed by the first backward sweep: a backend that
    /// only runs forward sweeps (SSSP, components) never builds it.
    at: Option<Csr<Dist>>,
    /// Whether sweeps run under output masks: on unit-weighted graphs,
    /// exactly where [`crate::MfbcConfig::default`] masks.
    pub(crate) masked: bool,
}

impl<'g> Local<'g> {
    /// A backend multiplying by `g`'s adjacency and its transpose.
    pub fn new(g: &'g Graph) -> Local<'g> {
        Local {
            a: g.adjacency(),
            at: None,
            masked: g.is_unit_weighted(),
        }
    }

    /// `Aᵀ`, built on first use.
    fn at(&mut self) -> &Csr<Dist> {
        let a = self.a;
        self.at.get_or_insert_with(|| transpose(a))
    }
}

impl Backend for Local<'_> {
    type Mat<T: Elem> = Csr<T>;
    type Table<T: Elem> = Table<T>;
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

    fn mask_of<'a, T: Elem>(&self, kind: MaskKind, m: &'a Csr<T>) -> Option<Mask<'a>> {
        self.masked.then(|| Mask::of_pattern(kind, m))
    }

    fn open<M: Monoid>(
        &self,
        frontier: &Csr<M::Elem>,
        diag: Option<&Csr<M::Elem>>,
    ) -> Result<Table<M::Elem>, Self::Error> {
        let merged = diag.map(|d| elementwise::combine::<M, _>(frontier, d));
        let seeded = merged.as_ref().unwrap_or(frontier);
        Ok(Table::from_csr(seeded, self.masked))
    }

    fn explore<K: SpMulKernel<Right = Dist>>(
        &mut self,
        table: &mut Table<KernelOut<K>>,
        frontier: &Csr<K::Left>,
        keep: impl Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>>
            + Sync,
    ) -> Result<(Csr<KernelOut<K>>, u64), Self::Error> {
        let out = spgemm_accumulate::<K>(frontier, self.a, table, keep);
        Ok((out.mat, out.ops))
    }

    fn anchor(
        &mut self,
        t: &Csr<Multpath>,
        fire: impl Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
    ) -> Result<(Table<Centpath>, Csr<Centpath>, u64), Self::Error> {
        let masked = self.masked;
        let (z, leaves) = count_children(t, self.at(), masked, fire);
        Ok((z, leaves.mat, leaves.ops))
    }

    fn settle<K, U: Elem>(
        &mut self,
        z: &mut Table<KernelOut<K>>,
        frontier: &Csr<K::Left>,
        within: Option<&Mask>,
        side: &Csr<U>,
        fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
    ) -> Result<(Csr<KernelOut<K>>, u64), Self::Error>
    where
        K: SpMulKernel<Right = Dist>,
    {
        let out = spgemm_settle::<K, U>(frontier, self.at(), within, z, side, fire);
        Ok((out.mat, out.ops))
    }

    fn freeze<T: Elem>(&self, table: Table<T>) -> Csr<T> {
        table.freeze()
    }

    fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &Csr<T>,
        b: &Csr<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> Csr<M::Elem> {
        elementwise::zip_filter::<M, _, _, _>(a, b, f)
    }

    fn fold_columns(&self, a: &Csr<f64>, acc: &mut [f64]) -> Result<(), Self::Error> {
        for (_, j, v) in a.iter() {
            acc[j] += v;
        }
        Ok(())
    }

    fn release<T: Elem>(&self, _: &Csr<T>) {}
}

/// Execution on the simulated machine, every matrix in the canonical
/// world layout.
///
/// Every step is one call of the executor, `mfbc_tensor::mm_land`,
/// into the landing of its table (`mfbc_tensor::land`), which
/// `finish` closes. Where the plan forms each output piece whole on
/// one rank (`1d(A)`, `1d(B)`: see [`MmPlan::lands`]), one kernel pass
/// per block row of `T` or `Z` runs into that row's blocks — the sinks
/// [`Local`] runs into its one table, one pane per block — with each
/// rank billed the part its slab covers, and the opening count is
/// counted in place off `T`'s rows, its seeds charged but not built, so
/// at p = 1 a step makes the calls `Local` makes, plus the machine's
/// charges. A plan that reduces or assembles its
/// output across ranks hands the landing the product in the canonical
/// layout, which it merges block by block when it closes. Both bill
/// the same charges. A run that does not amortize holds one-shot caches.
pub struct Simulated {
    /// The machine every operation charges.
    pub(crate) m: Machine,
    /// `A` and `Aᵀ`, indexed by [`Adj`].
    adj: [DistMat<Dist>; 2],
    /// Prepared forms of each: kept across products where the run
    /// amortizes, one-shot caches otherwise.
    caches: [MmCache<Dist>; 2],
    /// The plan every product runs; `None` autotunes each one.
    plan: Option<MmPlan>,
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
            caches: [MmCache::amortizing(amortize), MmCache::amortizing(amortize)],
            plan,
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

    /// `frontier •⟨⊕,f⟩ adj` under an optional output mask; returns
    /// the product and its elementary-product count `ops`.
    ///
    /// `priced` is the mask the plan is picked under. It allows at
    /// least what `mask` does and is the one a sweep holds still while
    /// `mask` shrinks — the table's pattern, not the pending set — so
    /// the plans of a sweep follow its frontiers rather than its
    /// masks, and what Theorem 5.1 amortizes stays amortized. A
    /// sweep's masks are views of its tables' blocks: the plan windows
    /// them per output block and the tuner reads their column counts,
    /// so no product copies or walks a table's pattern.
    pub fn mm<K: SpMulKernel<Right = Dist>>(
        &mut self,
        frontier: &DistMat<K::Left>,
        adj: Adj,
        mask: Option<&Mask>,
        priced: Option<&Mask>,
    ) -> Result<(DistMat<KernelOut<K>>, u64), MachineError> {
        let pick = self.pick::<K>(frontier, adj, priced);
        let (_span, plan) = self.announce(pick);
        let (a, cache) = (&self.adj[adj as usize], &mut self.caches[adj as usize]);
        let out =
            mfbc_tensor::mm_exec_cached_masked::<K>(&self.m, &plan, frontier, a, mask, cache)?;
        Ok((out.c, out.ops))
    }

    /// The tuner's pick, not yet announced, for a product of `left` by
    /// `adj` under `priced` (see [`Simulated::mm`]); `None` where the
    /// run has a fixed plan.
    fn pick<K: SpMulKernel<Right = Dist>>(
        &self,
        left: &DistMat<impl Elem>,
        adj: Adj,
        priced: Option<&Mask>,
    ) -> Option<Pick> {
        let stats = || autotune::stats_for_masked::<K>(left, &self.adj[adj as usize], priced);
        self.plan
            .is_none()
            .then(|| autotune::pick(self.m.spec(), &stats()))
    }

    /// The plan a product runs: `pick`'s, or the fixed one.
    fn planned<'a>(&'a self, pick: Option<&'a Pick>) -> &'a MmPlan {
        let fixed = || {
            self.plan
                .as_ref()
                .expect("a product not tuned has a fixed plan")
        };
        pick.map_or_else(fixed, Pick::plan)
    }

    /// The plan a product runs, `pick` announced with the span that
    /// brackets the product.
    fn announce(&self, pick: Option<Pick>) -> (Option<mfbc_trace::Span>, MmPlan) {
        let Some(pick) = pick else {
            return (None, self.planned(None).clone());
        };
        let span = mfbc_trace::span(|| "mm_auto".to_string());
        (Some(span), pick.announce().0)
    }

    /// `left •⟨⊕,f⟩ adj` into `land`, where it is consumed: band by
    /// band, or whole from a plan that does not land. The landing is
    /// readied for the plan ([`Land::open`]) before `pick` is announced.
    /// Returns `ops`.
    fn land<K: SpMulKernel<Right = Dist>, L: Elem>(
        &mut self,
        pick: Option<Pick>,
        left: &DistMat<L>,
        adj: Adj,
        land: &mut impl Land<K, L>,
    ) -> Result<u64, MachineError> {
        land.open(&self.m, self.planned(pick.as_ref()));
        let (span, plan) = self.announce(pick);
        let (a, cache) = (&self.adj[adj as usize], &mut self.caches[adj as usize]);
        let ops = mfbc_tensor::mm_land::<K, L>(&self.m, &plan, left, a, land, cache);
        drop(span);
        ops
    }

    /// `A ⊕ B`.
    pub fn combine<M: Monoid>(
        &self,
        a: &DistMat<M::Elem>,
        b: &DistMat<M::Elem>,
    ) -> DistMat<M::Elem> {
        ops::dmat_combine::<M, _>(&self.m, a, b)
    }

    /// Makes a table resident (a memory charge).
    pub fn charge<T: Elem>(&self, m: &DistMat<T>) -> Result<(), MachineError> {
        m.charge_memory(&self.m)
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

impl Backend for Simulated {
    type Mat<T: Elem> = DistMat<T>;
    type Table<T: Elem> = DistTable<T>;
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

    /// The pattern read off `m`'s resident blocks, its column counts
    /// taken once here for the tuner; like the coordinates
    /// `nnz_sync` reads, its movement is not charged (DESIGN.md
    /// §7, deviation 6).
    fn mask_of<'a, T: Elem>(&self, kind: MaskKind, m: &'a DistMat<T>) -> Option<Mask<'a>> {
        self.masked.then(|| m.pattern_mask(kind))
    }

    fn open<M: Monoid>(
        &self,
        frontier: &DistMat<M::Elem>,
        diag: Option<&DistMat<M::Elem>>,
    ) -> Result<DistTable<M::Elem>, MachineError> {
        let merged = diag.map(|d| self.combine::<M>(frontier, d));
        let seeded = merged.as_ref().unwrap_or(frontier);
        self.charge(seeded)?;
        Ok(DistTable::from_dmat(seeded, self.masked))
    }

    fn explore<K: SpMulKernel<Right = Dist>>(
        &mut self,
        table: &mut DistTable<KernelOut<K>>,
        frontier: &DistMat<K::Left>,
        keep: impl Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>>
            + Sync,
    ) -> Result<(DistMat<KernelOut<K>>, u64), MachineError> {
        let pick = self.pick::<K>(frontier, Adj::A, table.mask().as_ref());
        let mut land = land::Accumulate::<K, _>::new(table, &keep);
        let ops = self.land(pick, frontier, Adj::A, &mut land)?;
        Ok((land.finish(&self.m)?, ops))
    }

    fn anchor(
        &mut self,
        t: &DistMat<Multpath>,
        fire: impl Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
    ) -> Result<(DistTable<Centpath>, DistMat<Centpath>, u64), MachineError> {
        // The child count is the product of `(τ, 0, 1)` seeds with
        // `Aᵀ`, consumed by the anchor. The product is handed `T`: the
        // landing bills the seeds from `T`'s counts and builds them only
        // for a plan that moves them. A contribution at a pair outside
        // `T`'s pattern is inert, so where the machine masks, the
        // product runs under that pattern (and redistribution drops `Aᵀ`
        // columns of vertices no source discovered).
        let reached = self.mask_of(MaskKind::Structural, t);
        let pick = self.pick::<BrandesKernel>(t, Adj::At, reached.as_ref());
        let mut land = land::Count::new(t, reached, &fire);
        let ops = self.land(pick, t, Adj::At, &mut land)?;
        let (z, frontier) = land.finish(&self.m)?;
        Ok((z, frontier, ops))
    }

    fn settle<K, U: Elem>(
        &mut self,
        z: &mut DistTable<KernelOut<K>>,
        frontier: &DistMat<K::Left>,
        within: Option<&Mask>,
        side: &DistMat<U>,
        fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
    ) -> Result<(DistMat<KernelOut<K>>, u64), MachineError>
    where
        K: SpMulKernel<Right = Dist>,
    {
        // The product is priced under `within`, which holds for the
        // whole sweep (see [`Simulated::mm`]).
        let pick = self.pick::<K>(frontier, Adj::At, within);
        let mut land = land::Settle::<K, U, _>::new(z, side, within, &fire);
        let ops = self.land(pick, frontier, Adj::At, &mut land)?;
        Ok((land.finish(&self.m), ops))
    }

    fn freeze<T: Elem>(&self, table: DistTable<T>) -> DistMat<T> {
        table.freeze()
    }

    fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &DistMat<T>,
        b: &DistMat<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> DistMat<M::Elem> {
        ops::dmat_zip_filter::<M, _, _, _>(&self.m, a, b, f)
    }

    fn fold_columns(&self, a: &DistMat<f64>, acc: &mut [f64]) -> Result<(), MachineError> {
        ops::dmat_fold_columns(&self.m, a, acc)
    }

    fn release<T: Elem>(&self, m: &DistMat<T>) {
        m.release_memory(&self.m)
    }
}
