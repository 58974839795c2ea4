//! Right-operand caching: the amortization of Theorem 5.1.
//!
//! MFBC multiplies a *changing* frontier by the *same* adjacency
//! matrix in every iteration of every batch. The theorem's cost
//! derivation amortizes the adjacency's replication accordingly:
//! "A's replication can be amortized over (up to d) sparse matrix
//! multiplications and over the n²/cm batches, since A is always the
//! same adjacency matrix" (§5.3).
//!
//! An [`MmCache`] keyed by (plan-layout, operand fingerprint) holds
//! the replicated/redistributed forms of the right operand between
//! multiplications: on a hit, neither the redistribution all-to-all
//! nor the replication broadcast is re-charged, but the cached form
//! *stays resident* on its ranks (memory is the price of
//! amortization — exactly the `c`-replication trade-off). Each entry
//! keeps the receipt of what its build charged and releases exactly
//! that; dropping the cache without [`MmCache::release_all`] leaks
//! simulated memory, so drivers release at end of run. A one-shot cache
//! is emptied, lookups and all, as the executor (`mm::mm_land`) returns.

use crate::dist::DistMat;
use crate::held::Held;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::{Csr, Slabs};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::Arc;

/// A cached prepared form of a right operand.
#[derive(Clone, Debug)]
pub enum CachedRhs<T> {
    /// The whole matrix, split by columns: one slab per rank (1D
    /// variant A) or one slab every rank holds (1D variant B).
    Split(Arc<ColumnSlabs<T>>),
    /// One redistributed layout (1D variant C, 2D variants).
    Dist(Arc<DistMat<T>>),
    /// Per-layer copies or slices (3D variants).
    Layers(Arc<Vec<DistMat<T>>>),
}

impl<T> CachedRhs<T> {
    /// The column slabs a 1D key holds.
    pub(crate) fn split(self) -> Arc<ColumnSlabs<T>> {
        match self {
            CachedRhs::Split(s) => s,
            _ => panic!("the key does not hold column slabs"),
        }
    }

    /// The layout a 1D-C or 2D key holds.
    pub(crate) fn dist(self) -> Arc<DistMat<T>> {
        match self {
            CachedRhs::Dist(d) => d,
            _ => panic!("the key does not hold one layout"),
        }
    }

    /// The per-layer forms a 3D key holds.
    pub(crate) fn layers(self) -> Arc<Vec<DistMat<T>>> {
        match self {
            CachedRhs::Layers(ls) => ls,
            _ => panic!("the key does not hold per-layer forms"),
        }
    }
}

/// A right operand split by columns, kept as one matrix: the whole of
/// it in global column ids, where slabs `1, 2, …` start, and the
/// stored entries of each slab. The landing kernels read it as
/// [`Slabs`], each row of it once. The matrix is shared: the 1D forms
/// of one operand — cut at the ranks' slabs, or whole — hold one copy.
#[derive(Debug)]
pub struct ColumnSlabs<T> {
    mat: Arc<Csr<T>>,
    cuts: Vec<usize>,
    nnz: Vec<usize>,
}

impl<T> ColumnSlabs<T> {
    /// `mat`, cut where slabs `1, 2, …` start, each slab's entries
    /// counted.
    pub(crate) fn new(mat: Arc<Csr<T>>, cuts: Vec<usize>) -> Self {
        let nnz = Slabs::new(&mat, &cuts).nnz();
        ColumnSlabs { mat, cuts, nnz }
    }

    /// The whole matrix, shared.
    pub(crate) fn mat(&self) -> &Arc<Csr<T>> {
        &self.mat
    }

    /// The slabs, for a kernel.
    pub fn slabs(&self) -> Slabs<'_, T> {
        Slabs::new(&self.mat, &self.cuts)
    }

    /// The stored entries of each slab.
    pub fn nnz(&self) -> &[usize] {
        &self.nnz
    }
}

/// Identity of an operand: shape plus nonzero count. Two matrices
/// colliding on this fingerprint within one cache would alias, so a
/// cache must be used with a single logical matrix (the drivers keep
/// one cache per adjacency orientation); the fingerprint check turns
/// accidental misuse into a panic instead of wrong answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    nrows: usize,
    ncols: usize,
    nnz: usize,
}

impl Fingerprint {
    /// Fingerprint of a distributed matrix.
    pub fn of<T: Clone + Send + Sync>(m: &DistMat<T>) -> Fingerprint {
        Fingerprint {
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
        }
    }
}

struct Entry<T> {
    form: CachedRhs<T>,
    fingerprint: Fingerprint,
    /// What building the form charged, released with the entry.
    held: Held,
}

/// Lifetime activity counters for one [`MmCache`] (or, summed via
/// [`CacheStats::absorb`], for a succession of caches — e.g. across a
/// crash replan that replaces them). Evictions count entries dropped
/// by [`MmCache::release_all`] and [`MmCache::discard_except`];
/// overwritten keys are not separately counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a prepared form.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Forms stored.
    pub inserts: u64,
    /// Entries dropped by release or rollback.
    pub evictions: u64,
}

impl CacheStats {
    /// Adds `other`'s counts into `self`.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }
}

/// Cross-multiplication cache of prepared right-operand forms.
pub struct MmCache<T> {
    entries: HashMap<String, Entry<T>>,
    stats: Cell<CacheStats>,
    one_shot: bool,
    /// Where a lookup writes its key: one buffer for every product.
    key: String,
    /// The cuts and ranks of a 1D band's cells, refilled band by band:
    /// kept, so a product by the operand builds no list.
    pub(crate) cells: (Vec<usize>, Vec<usize>),
}

impl<T> Default for MmCache<T> {
    fn default() -> Self {
        MmCache {
            entries: HashMap::new(),
            stats: Cell::new(CacheStats::default()),
            one_shot: false,
            key: String::new(),
            cells: Default::default(),
        }
    }
}

impl<T> MmCache<T> {
    /// An empty cache.
    pub fn new() -> MmCache<T> {
        MmCache::default()
    }

    /// An empty cache: amortizing if `amortize` is set, else one-shot —
    /// what a product builds in it is released when the product ends.
    pub fn amortizing(amortize: bool) -> MmCache<T> {
        MmCache {
            one_shot: !amortize,
            ..MmCache::default()
        }
    }

    /// Whether a later multiplication can hit what this one stores.
    /// A plan then builds the whole right-hand form — the next product
    /// gets it for free whatever its mask — where for a one-shot
    /// product it may build the smaller form this product's mask
    /// leaves.
    pub fn amortizes(&self) -> bool {
        !self.one_shot
    }

    /// Number of cached forms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The prepared form under `key`: the one an earlier multiplication
    /// stored, or the one `build(self)` makes now. `build` returns the
    /// form with the receipt of the residency it charged, which the
    /// entry keeps and [`MmCache::release_all`] releases.
    ///
    /// # Errors
    /// Propagates `build`'s failure, including the memory-budget
    /// failure of a charge; nothing is stored then.
    ///
    /// # Panics
    /// Panics if the key exists but was built for a different matrix
    /// (fingerprint mismatch) — one cache serves one logical operand.
    ///
    /// The key is written into a buffer the cache keeps, so a hit
    /// allocates nothing.
    pub(crate) fn prepared(
        &mut self,
        key: impl fmt::Display,
        fp: Fingerprint,
        build: impl FnOnce(&Self) -> Result<(CachedRhs<T>, Held), MachineError>,
    ) -> Result<CachedRhs<T>, MachineError>
    where
        T: Clone,
    {
        let mut name = std::mem::take(&mut self.key);
        name.clear();
        write!(name, "{key}").expect("a String takes any key");
        let form = match self.get(&name, fp) {
            Some(form) => form.clone(),
            None => {
                let (form, held) = build(self)?;
                self.insert(name.clone(), fp, form.clone(), held);
                form
            }
        };
        self.key = name;
        Ok(form)
    }

    /// The form under `key`, if any, without counting a lookup.
    pub(crate) fn peek(&self, key: &str) -> Option<&CachedRhs<T>> {
        self.entries.get(key).map(|e| &e.form)
    }

    /// Looks up a prepared form.
    fn get(&self, key: &str, fp: Fingerprint) -> Option<&CachedRhs<T>> {
        let hit = self.entries.get(key).map(|e| {
            assert_eq!(
                e.fingerprint, fp,
                "MmCache key {key:?} was built for a different operand"
            );
            &e.form
        });
        let mut stats = self.stats.get();
        let name = if hit.is_some() {
            stats.hits += 1;
            "mm_cache_hit"
        } else {
            stats.misses += 1;
            "mm_cache_miss"
        };
        self.stats.set(stats);
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::Counter { name, value: 1.0 });
        hit
    }

    /// Lifetime activity counters for this cache.
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// Stores a prepared form with the receipt of what it charged.
    fn insert(&mut self, key: String, fp: Fingerprint, form: CachedRhs<T>, held: Held) {
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::Counter {
            name: "mm_cache_insert",
            value: 1.0,
        });
        let mut stats = self.stats.get();
        stats.inserts += 1;
        self.stats.set(stats);
        self.entries.insert(
            key,
            Entry {
                form,
                fingerprint: fp,
                held,
            },
        );
    }

    /// Releases every cached form's simulated residency and clears
    /// the cache.
    pub fn release_all(&mut self, m: &Machine) {
        let mut stats = self.stats.get();
        stats.evictions += self.entries.len() as u64;
        self.stats.set(stats);
        for (_, e) in self.entries.drain() {
            e.held.release(m);
        }
    }

    /// Ends a product: a one-shot cache forgets it, as no run reports it.
    pub(crate) fn end_product(&mut self, m: &Machine) {
        if self.one_shot {
            self.release_all(m);
            self.stats.take();
        }
    }

    /// Keys of every cached form, in no particular order. Drivers
    /// snapshot this at a checkpoint boundary so a later rollback can
    /// tell checkpoint-era entries from mid-batch ones.
    pub fn keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Drops every entry whose key is *not* in `keep`, without
    /// releasing its simulated residency — for rollback to a memory
    /// snapshot that already reflects the kept set (releasing here
    /// too would double-credit the meter).
    pub fn discard_except(&mut self, keep: &[String]) {
        let before = self.entries.len();
        self.entries.retain(|k, _| keep.iter().any(|s| s == k));
        let mut stats = self.stats.get();
        stats.evictions += (before - self.entries.len()) as u64;
        self.stats.set(stats);
    }
}

#[cfg(test)]
impl<T> MmCache<T> {
    /// The receipt of what building the form under `key` charged.
    pub(crate) fn receipt(&self, key: &str) -> Option<&Held> {
        self.entries.get(key).map(|e| &e.held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Layout;
    use mfbc_machine::MachineSpec;

    fn dm(nnz_rows: usize) -> DistMat<u64> {
        use mfbc_algebra::monoid::SumU64;
        let coo = mfbc_sparse::Coo::from_triples(
            4,
            4,
            (0..nnz_rows).map(|i| (i % 4, (i + 1) % 4, i as u64 + 1)),
        );
        DistMat::from_global(Layout::single(4, 4, 0), &coo.into_csr::<SumU64>())
    }

    #[test]
    fn hit_and_miss() {
        let a = dm(3);
        let mut cache: MmCache<u64> = MmCache::new();
        let fp = Fingerprint::of(&a);
        assert!(cache.get("k", fp).is_none());
        cache.insert(
            "k".into(),
            fp,
            CachedRhs::Dist(Arc::new(a.clone())),
            Held::default(),
        );
        assert!(cache.get("k", fp).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic]
    fn fingerprint_mismatch_panics() {
        let a = dm(3);
        let b = dm(4);
        let mut cache: MmCache<u64> = MmCache::new();
        cache.insert(
            "k".into(),
            Fingerprint::of(&a),
            CachedRhs::Dist(Arc::new(a)),
            Held::default(),
        );
        let _ = cache.get("k", Fingerprint::of(&b));
    }

    #[test]
    fn hit_and_miss_emit_counters() {
        use mfbc_trace::{scoped, MemoryRecorder, TraceEvent};
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        scoped(rec.clone(), || {
            let a = dm(3);
            let mut cache: MmCache<u64> = MmCache::new();
            let fp = Fingerprint::of(&a);
            assert!(cache.get("k", fp).is_none());
            cache.insert(
                "k".into(),
                fp,
                CachedRhs::Dist(Arc::new(a.clone())),
                Held::default(),
            );
            assert!(cache.get("k", fp).is_some());
        });
        let counters: Vec<(&'static str, f64)> = rec
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::Counter { name, value } => Some((name, value)),
                _ => None,
            })
            .collect();
        assert_eq!(
            counters,
            vec![
                ("mm_cache_miss", 1.0),
                ("mm_cache_insert", 1.0),
                ("mm_cache_hit", 1.0),
            ]
        );
    }

    #[test]
    fn stats_track_hits_misses_inserts_evictions() {
        let a = dm(3);
        let mut cache: MmCache<u64> = MmCache::new();
        let fp = Fingerprint::of(&a);
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.get("k", fp).is_none());
        cache.insert(
            "k".into(),
            fp,
            CachedRhs::Dist(Arc::new(a.clone())),
            Held::default(),
        );
        cache.insert(
            "k2".into(),
            fp,
            CachedRhs::Dist(Arc::new(a.clone())),
            Held::default(),
        );
        assert!(cache.get("k", fp).is_some());
        cache.discard_except(&["k".to_string()]);
        let m = Machine::new(MachineSpec::test(2));
        cache.release_all(&m);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 2,
                evictions: 2,
            }
        );
        let mut total = CacheStats::default();
        total.absorb(cache.stats());
        total.absorb(cache.stats());
        assert_eq!(total.inserts, 4);
    }

    #[test]
    fn release_all_returns_memory() {
        let m = Machine::new(MachineSpec::test(2));
        let held = Held::charged(&m, [(1, 100)]).unwrap();
        let mut cache: MmCache<u64> = MmCache::new();
        cache.insert(
            "k".into(),
            Fingerprint::of(&dm(2)),
            CachedRhs::Dist(Arc::new(dm(2))),
            held,
        );
        cache.release_all(&m);
        assert!(cache.is_empty());
        assert_eq!(m.with_tracker(|t| t.resident(1)), 0);
    }
}
