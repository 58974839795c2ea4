//! Where a sweep's matrices live and where its products run: the
//! simulated machine, at every processor count.
//!
//! Algorithms 1–3 are written once, in [`crate::sweep`], over
//! [`Simulated`]'s sweep operations — each sweep one opening call and
//! then one step per superstep, a product *into* the sweep's table
//! under the mask the table itself reports. Matrices are canonically
//! distributed [`DistMat`]s on a [`Machine`]: every step's product runs
//! through one executor into the table blocks that consume it — band by
//! band where its plan allows, whole where the plan reduces or
//! assembles — and charges its communication to the critical path;
//! elementwise steps charge local compute, termination checks charge an
//! allreduce, tables charge memory. [`Simulated`] owns what a run keeps
//! resident: `A`, `Aᵀ` and (Theorem 5.1's amortization) the
//! prepared-adjacency caches.
//!
//! The shared-memory case is one rank (the paper's p = 1):
//! [`Simulated::sequential`] is the machine every sequential entry
//! point runs on. Its [`Simulated::mm`], [`Simulated::combine`] and
//! [`Simulated::charge`] are what the CombBLAS baseline — a different
//! algorithm on the same machine — calls.

use mfbc_algebra::kernel::{BrandesKernel, KernelOut};
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::{Centpath, Dist, Multpath, SpMulKernel};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError, MachineSpec};
use mfbc_sparse::{Csr, Mask, MaskKind};
use mfbc_tensor::autotune::{self, Pick};
use mfbc_tensor::cache::{CacheStats, MmCache};
use mfbc_tensor::land::{self, Land};
use mfbc_tensor::{canonical_layout, ops, DistMat, DistTable, MmPlan, Variant1D};
use std::borrow::Borrow;

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

/// Execution on the simulated machine, every matrix in the canonical
/// world layout.
///
/// Every step is one call of the executor, `mfbc_tensor::mm_land`,
/// into the landing of its table (`mfbc_tensor::land`), which
/// `finish` closes. Where the plan forms each output piece whole on
/// one rank (`1d(A)`, `1d(B)`: see [`MmPlan::lands`]), one kernel pass
/// per block row of `T` or `Z` runs into that row's blocks — the
/// `mfbc-sparse` table sinks, one pane per block — with each rank
/// billed the part its slab covers, and the opening count is counted
/// in place off `T`'s rows, its seeds charged but not built; on one
/// rank that is one kernel call into a one-block table. A plan that
/// reduces or assembles its output across ranks hands the landing the
/// product in the canonical layout, which it merges block by block when
/// it closes. Both bill the same charges. A run that does not amortize
/// holds one-shot caches.
///
/// The sweep operations take elementwise operands of one shape and
/// layout; their closures receive global coordinates and must be pure.
///
/// Who masks: a run that masks opens its tables with tracking, and
/// a table opened with tracking reports the mask of what can still land
/// in it (`mfbc_sparse::Table::mask`) — every stored coordinate,
/// complemented, while [`Simulated::explore`] grows it; the *pending*
/// coordinates, those that have not fired, once [`Simulated::anchor`]
/// has opened it. A step's product runs under the mask its table
/// reports; one opened without tracking reports none.
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
    /// a result (see [`Simulated::mask_of`]).
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

    /// The machine every sequential entry point runs on, built in this
    /// one place: one `gemini` rank with no memory budget, so a
    /// sequential call cannot be refused for memory; every product
    /// under the fixed `1d(B)` plan, so no tuner runs on one rank; the
    /// adjacency's prepared form kept across products; and masks where
    /// `g` is unit-weighted, as [`crate::MfbcConfig::default`] masks.
    pub fn sequential(g: &Graph) -> Simulated {
        Simulated::one_rank(g, g.is_unit_weighted())
    }

    /// [`Simulated::sequential`], masked where `masked` says: a sweep
    /// whose table starts full (connected components) must not mask.
    pub(crate) fn one_rank(g: &Graph, masked: bool) -> Simulated {
        let m = Machine::new(MachineSpec::gemini(1).with_mem_bytes(None));
        let plan = Some(MmPlan::OneD(Variant1D::B));
        Simulated::new(&m, g, plan, true, masked)
            .expect("a machine without a budget refuses nothing")
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

/// The operations Algorithms 1–3 are made of: each sweep opens a table
/// and steps it ([`Simulated::open`] + [`Simulated::explore`] forward,
/// [`Simulated::anchor`] + [`Simulated::settle`] backward), one product
/// *into* the table per step.
impl Simulated {
    /// Places a replicated global matrix, owned or borrowed.
    pub fn place<T: Elem>(&self, m: impl Borrow<Csr<T>>) -> DistMat<T> {
        let m = m.borrow();
        DistMat::from_global(canonical_layout(&self.m, m.nrows(), m.ncols()), m)
    }

    /// The per-superstep termination check: the global nonzero count
    /// of `frontier`, announced as superstep `step` of `phase` when
    /// the sweep goes on.
    ///
    /// # Errors
    /// Propagates a failure of the allreduce it charges.
    pub fn nnz_sync<T: Elem>(
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

    /// Brackets a sweep's superstep loop for timeline views.
    pub fn span(&self, phase: &'static str) -> mfbc_trace::Span {
        mfbc_trace::span(|| format!("batch{}/{phase}", self.batch))
    }

    /// An output mask of `kind` over `m`'s pattern — read off its
    /// resident blocks, its column counts taken once here for the
    /// tuner; like the coordinates `nnz_sync` reads, its movement is
    /// not charged (DESIGN.md §7, deviation 6) — or `None` where the
    /// run does not mask. Runs on weighted graphs do not, and that is a
    /// forward-sweep argument: a rediscovery can still improve a
    /// settled distance there, so the complement of the table would
    /// drop a product that matters. Every backward mask (the table's
    /// pattern, the pending set) is inert for any weights — `⊗`
    /// discards what it skips — and is left out on weighted graphs only
    /// because it does not pay there (ROADMAP item 1).
    pub fn mask_of<'a, T: Elem>(&self, kind: MaskKind, m: &'a DistMat<T>) -> Option<Mask<'a>> {
        self.masked.then(|| m.pattern_mask(kind))
    }

    /// Algorithm 1, lines 1–2: opens the table a sweep grows,
    /// resident, holding `frontier ⊕ diag` — or `frontier` itself,
    /// which merges nothing, without `diag`.
    ///
    /// # Errors
    /// Propagates a memory-budget failure of the table.
    pub fn open<M: Monoid>(
        &self,
        frontier: &DistMat<M::Elem>,
        diag: Option<&DistMat<M::Elem>>,
    ) -> Result<DistTable<M::Elem>, MachineError> {
        let merged = diag.map(|d| self.combine::<M>(frontier, d));
        let seeded = merged.as_ref().unwrap_or(frontier);
        self.charge(seeded)?;
        Ok(DistTable::from_dmat(seeded, self.masked))
    }

    /// Algorithm 1, lines 4–6, as one product into `table`:
    /// `table := table ⊕ (frontier •⟨⊕,f⟩ A)` in place, under the mask
    /// `table` reports and with its residency re-charged at its new
    /// size; returns the explored entries that
    /// `keep(explored_val, table_val_before, updated_table_val)` lets
    /// through (`None` and the identity drop an entry) and the
    /// product's `ops`. Work is proportional to the product, not to
    /// the table.
    ///
    /// # Errors
    /// Propagates the product's machine failures.
    #[allow(clippy::type_complexity)]
    pub fn explore<K: SpMulKernel<Right = Dist>>(
        &mut self,
        table: &mut DistTable<KernelOut<K>>,
        frontier: &DistMat<K::Left>,
        keep: impl Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>>
            + Sync,
    ) -> Result<(DistMat<KernelOut<K>>, u64), MachineError> {
        // The table's mask is the landing's to read; a view of it is
        // built here only to price a tuned product.
        let priced = self.plan.is_none().then(|| table.mask()).flatten();
        let pick = self.pick::<K>(frontier, Adj::A, priced.as_ref());
        drop(priced);
        let mut land = land::Accumulate::<K, _>::new(table, &keep);
        let ops = self.land(pick, frontier, Adj::A, &mut land)?;
        Ok((land.finish(&self.m)?, ops))
    }

    /// Algorithm 2, lines 1–4: opens `Z` on `t`'s pattern, resident,
    /// every entry anchored at `(τ, 0, #children)` — `#children` being
    /// how many `w` with `(s,w) ∈ t` have `τ(s,w) − A(v,w) = τ(s,v)`,
    /// and 0 where one exceeds it, as the child-count product of
    /// `(τ, 0, 1)` seeds with `Aᵀ` and [`crate::sweep::mfbr_anchor`]
    /// make it — after `fire(&mut z_val, t_val)` has had its one chance
    /// to rewrite each entry and emit an entry of the matrix returned
    /// beside it. The coordinates `fire` passes on are pending. Also
    /// returns the `ops` of that product, which runs under `t`'s
    /// structural pattern where the run masks.
    ///
    /// # Errors
    /// Propagates the product's machine failures.
    #[allow(clippy::type_complexity)]
    pub fn anchor(
        &mut self,
        t: &DistMat<Multpath>,
        fire: impl Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
    ) -> Result<(DistTable<Centpath>, DistMat<Centpath>, u64), MachineError> {
        // The product is handed `T`: the landing bills the seeds from
        // `T`'s counts and builds them only for a plan that moves them.
        // A contribution at a pair outside `T`'s pattern is inert, so
        // where the machine masks, the product runs under that pattern
        // (and redistribution drops `Aᵀ` columns of vertices no source
        // discovered).
        let reached = self.mask_of(MaskKind::Structural, t);
        let pick = self.pick::<BrandesKernel>(t, Adj::At, reached.as_ref());
        let mut land = land::Count::new(t, reached, &fire);
        let ops = self.land(pick, t, Adj::At, &mut land)?;
        let (z, frontier) = land.finish(&self.m)?;
        Ok((z, frontier, ops))
    }

    /// Algorithm 2, lines 6–11, as one product into `z`:
    /// `z := z ⊕ (frontier •⟨⊕,f⟩ Aᵀ)` in place on `z`'s pattern
    /// (products landing elsewhere are dropped); on each entry just
    /// updated, `fire(&mut z_val, side_val)` may rewrite it and emit an
    /// entry of the returned matrix, and an entry it fires on is no
    /// longer pending. `side` is the matrix `z` was opened on. Work is
    /// proportional to the product, not to `z`.
    ///
    /// The product runs under the mask `z` reports, and under `within`
    /// where it reports none; it is priced under `within`, which holds
    /// for the whole sweep (see [`Simulated::mm`]).
    ///
    /// # Errors
    /// Propagates the product's machine failures.
    #[allow(clippy::type_complexity)]
    pub fn settle<K, U: Elem>(
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
        let pick = self.pick::<K>(frontier, Adj::At, within);
        let mut land = land::Settle::<K, U, _>::new(z, side, within, &fire);
        let ops = self.land(pick, frontier, Adj::At, &mut land)?;
        Ok((land.finish(&self.m), ops))
    }

    /// Closes a table into the matrix it describes, its residency
    /// charge carried over.
    pub fn freeze<T: Elem>(&self, table: DistTable<T>) -> DistMat<T> {
        table.freeze()
    }

    /// `f(i, j, a_val, b_val_opt)` over `a`'s entries; `None` and
    /// `M`'s identity drop the entry.
    pub fn zip_filter<M: Monoid, T: Elem, U: Elem>(
        &self,
        a: &DistMat<T>,
        b: &DistMat<U>,
        f: impl Fn(usize, usize, &T, Option<&U>) -> Option<M::Elem> + Sync,
    ) -> DistMat<M::Elem> {
        ops::dmat_zip_filter::<M, _, _, _>(&self.m, a, b, f)
    }

    /// `acc[j] += a(i, j)`, one addition per entry, in ascending
    /// `(j, i)` order — so `acc` is independent of how rows were
    /// batched.
    ///
    /// # Errors
    /// Propagates a failure of the reduction it charges.
    pub fn fold_columns(&self, a: &DistMat<f64>, acc: &mut [f64]) -> Result<(), MachineError> {
        ops::dmat_fold_columns(&self.m, a, acc)
    }

    /// Ends a table's residency.
    pub fn release<T: Elem>(&self, m: &DistMat<T>) {
        m.release_memory(&self.m)
    }
}
