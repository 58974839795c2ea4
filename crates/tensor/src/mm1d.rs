//! The 1D sparse matrix multiplication variants (§5.2.1).
//!
//! Each variant replicates one of the three matrices across the whole
//! group and blocks the other two:
//!
//! * **A** — replicate A (allgather); each rank owns a column block
//!   of B and computes the matching column block of C;
//! * **B** — replicate B; each rank owns a row block of A and
//!   computes the matching row block of C;
//! * **C** — each rank owns a column block of A and the matching row
//!   block of B, computes a full-shape partial product, and a sparse
//!   reduction combines the partials.
//!
//! Cost: `W_X(X, p) = O(α log p + β nnz(X))` — the replicated (or
//! reduced) matrix is the only one that moves.
//!
//! Every copy a variant makes is charged on a receipt (`Held`) and
//! released from it: A's replica and C's partials once the product is
//! formed, B's replica and the redistributed right operands with the
//! cache that keeps them.
//!
//! A and B form their output without reducing it, and hand it to a
//! landing ([`Land`]) band by band: a band is a block row of where the
//! product lands (one band over the whole output for `mm_exec`), formed
//! in one kernel pass. The ranks' slabs cut a band into cells — the
//! rows of the band one rank's row slab of A covers under B, one
//! rank's column slab of B under A — and the landing reports `ops` and
//! the entries formed per cell. Each rank is billed the sum over its
//! cells, once: what its slab would cost formed alone. The left rows
//! of a band are read off A's blocks in place; A's allgather (under A)
//! and its redistribution into row slabs (under B) are still posted and
//! charged as if the copies were made, at the kernel's left entry size:
//! the executor may be handed, as A, another matrix on A's pattern that
//! the landing reads as A (MFBr's count is handed `T` and reads its
//! seeds' τ off `T`'s entries, so the seeds are charged, not built).
//! Under A the right operand is kept, and cached, as one matrix with
//! the ranks' column cuts ([`ColumnSlabs`]) rather than as p blocks: it
//! is moved and held as the blocks would be — the all-to-all charged
//! from a count, each rank holding its slab's entries — and the kernel
//! reads each of its rows once; B's form shares that matrix. C's output
//! is formed whole ([`run_reduced`]), as 2D and 3D plans' are.

use crate::cache::{CachedRhs, ColumnSlabs, Fingerprint, MmCache};
use crate::dist::{DistMat, Layout};
use crate::held::Held;
use crate::land::{Band, Land};
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::collectives::Pending;
use mfbc_machine::cost::CollectiveKind;
use mfbc_machine::{Group, Machine, MachineError};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::slice::{even_range, even_ranges};
use mfbc_sparse::{entry_bytes, Csr, Few, Mask};
use std::ops::Range;
use std::sync::Arc;

use crate::mm::Variant1D;
use crate::redist::{charge_redistribute, redistribute};

/// One output piece: `(global row offset, global col offset,
/// grid-position index within the executing group, block)`. The
/// position lets 3D wrappers reduce matching pieces across layers
/// over the right fiber groups.
pub(crate) type Piece<T> = (usize, usize, usize, Csr<T>);

/// Fetches (or builds, charges, and caches) the fully replicated form
/// of the right operand — the amortized "replicate B" of Theorem 5.1.
/// A cache miss posts the allgather: the caller redistributes the
/// other operand while the replica is (under overlapped accounting)
/// in flight, and waits the returned [`Pending`] only when the
/// replica is first multiplied.
fn replicated_rhs<K: SpMulKernel>(
    m: &Machine,
    group: &Group,
    b: &DistMat<K::Right>,
    cache: &mut MmCache<K::Right>,
) -> Result<Pending<Arc<ColumnSlabs<K::Right>>>, MachineError> {
    // A hit moves nothing.
    let mut arrival = Pending::ready(());
    let form = cache.prepared(one_d_key('B', group, b), Fingerprint::of(b), |cache| {
        let held;
        (arrival, held) = replicate(m, group, entries_bytes::<K::Right>(b.nnz()))?;
        let whole = ColumnSlabs::new(host_copy::<K>('A', group, b, cache), Vec::new());
        Ok((CachedRhs::Split(Arc::new(whole)), held))
    })?;
    Ok(arrival.map(|()| form.split()))
}

/// The cache key of `b`'s form under 1D variant `v` over `group`,
/// written where it is looked up ([`MmCache::prepared`]).
fn one_d_key<T: Clone + Send + Sync>(v: char, group: &Group, b: &DistMat<T>) -> OneDKey {
    OneDKey(v, group.len(), b.content_id())
}

/// A 1D cache key: variant, group size, operand content id.
struct OneDKey(char, usize, u64);

impl std::fmt::Display for OneDKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "1d:{}:{}:{}", self.0, self.1, self.2)
    }
}

/// The host copy of `b` a 1D form is built from: the one the `other` 1D
/// form of `b` holds in `cache`, or a fresh one. `1d(A)` cuts it at the
/// ranks' column slabs and `1d(B)` reads it whole; each entry charges
/// and releases what its own form holds on the machine.
fn host_copy<K: SpMulKernel>(
    other: char,
    group: &Group,
    b: &DistMat<K::Right>,
    cache: &MmCache<K::Right>,
) -> Arc<Csr<K::Right>> {
    match cache.peek(&one_d_key(other, group, b).to_string()) {
        Some(form) => form.clone().split().mat().clone(),
        None => Arc::new(b.to_global::<FirstWins<K::Right>>()),
    }
}

/// The residency of a copy laid out as `dm`: `(owner, bytes)` of
/// every nonempty block, in block order.
pub(crate) fn block_residency<T>(dm: &DistMat<T>) -> impl Iterator<Item = (usize, u64)> + '_
where
    T: Clone + Send + Sync,
{
    let l = dm.layout();
    let held = l.blocks().map(move |(bi, bj)| {
        let bytes = dm.block(bi, bj).payload_bytes() as u64;
        (l.owner(bi, bj), bytes)
    });
    held.filter(|&(_, bytes)| bytes > 0)
}

/// Fetches (or builds, charges residency, and caches under `key`) the
/// right operand redistributed into `lb`.
pub(crate) fn redistributed_rhs<K: SpMulKernel>(
    m: &Machine,
    key: impl std::fmt::Display,
    b: &DistMat<K::Right>,
    lb: &Layout,
    cache: &mut MmCache<K::Right>,
) -> Result<Arc<DistMat<K::Right>>, MachineError> {
    let build = |_: &MmCache<_>| {
        let built = redistribute::<FirstWins<K::Right>, _>(m, b, lb)?;
        let held = Held::charged(m, block_residency(&built))?;
        Ok((CachedRhs::Dist(Arc::new(built)), held))
    };
    Ok(cache.prepared(key, Fingerprint::of(b), build)?.dist())
}

/// Layout splitting columns into `q` parts, part `k` owned by group
/// member `k`.
fn col_split_layout(nrows: usize, ncols: usize, group: &Group) -> Layout {
    let q = group.len();
    Layout::new(
        nrows,
        ncols,
        vec![0..nrows],
        even_ranges(ncols, q),
        group.ranks().to_vec(),
    )
}

/// Layout splitting rows into `q` parts, part `k` owned by member `k`.
fn row_split_layout(nrows: usize, ncols: usize, group: &Group) -> Layout {
    let q = group.len();
    Layout::new(
        nrows,
        ncols,
        even_ranges(nrows, q),
        vec![0..ncols],
        group.ranks().to_vec(),
    )
}

/// The bytes `nnz` entries of `T` occupy.
fn entries_bytes<T>(nnz: usize) -> u64 {
    (nnz * entry_bytes::<T>()) as u64
}

/// Replicates a distributed matrix of `bytes` to every member of
/// `group`: posts the allgather that moves every block to every rank
/// (charged at `β·nnz + α·log p`) and charges each rank the full matrix
/// size on the returned receipt. The caller redistributes the other
/// operand while the replica is (under overlapped accounting) in
/// flight, and reads the replica behind the returned [`Pending`] only
/// once it is multiplied.
fn replicate(m: &Machine, group: &Group, bytes: u64) -> Result<(Pending<()>, Held), MachineError> {
    let arrival = m.post_collective(group, CollectiveKind::Allgather, bytes, ())?;
    Ok((
        arrival,
        Held::charged(m, group.ranks().iter().map(|&r| (r, bytes)))?,
    ))
}

/// Runs 1D-A or 1D-B over `group`, handing the product to `land` band
/// by band ([`Land::bands`]). Each band is cut into cells by the ranks'
/// slabs — a row slab of the left operand under B, a column slab of
/// the right one under A — and each rank is charged its cells' `ops`
/// plus the entries they formed, once, as if its slab had been formed
/// alone (nothing where one of its operand slabs is empty). Returns
/// `ops` and the entries formed.
///
/// The left rows of a band are read off the left operand's blocks in
/// place: under A they stand for the allgathered replica, under B for
/// the redistributed row slabs, and both moves are posted and charged
/// as if made, at `K::Left`'s entry size. The left operand `a` may be
/// another matrix on the pattern of the one the model multiplies, which
/// the landing reads as that one (MFBr's count: `T` for its seeds).
pub(crate) fn run_slabs<K: SpMulKernel, L: Clone + Send + Sync>(
    m: &Machine,
    group: &Group,
    variant: Variant1D,
    a: &DistMat<L>,
    b: &DistMat<K::Right>,
    cache: &mut MmCache<K::Right>,
    land: &mut impl Land<K, L>,
) -> Result<(u64, u64), MachineError> {
    let p = group.len();
    // What each rank multiplies: under A, all of A by its column slab
    // of B; under B, its row slab of A (`la`) by all of B, one slab.
    let (held, rhs, la) = match variant {
        Variant1D::A => {
            // Replicate A and redistribute B concurrently: in overlap
            // mode the allgather is in flight while the alltoall below
            // is charged, and the wait lands only before the first
            // multiply that touches the replica.
            let (posted, held) = replicate(m, group, entries_bytes::<K::Left>(a.nnz()))?;
            let mask = || crate::mm::output_mask(&*land, (a.nrows(), b.ncols()));
            let b2 = rhs_for_a::<K>(m, group, b, cache, mask)?;
            posted.wait(m)?;
            (Some(held), b2, None)
        }
        Variant1D::B => {
            let b_pending = replicated_rhs::<K>(m, group, b, cache)?;
            let la = row_split(a.layout(), group);
            charge_redistribute::<K::Left, _>(m, a, &la)?;
            (None, b_pending.wait(m)?, Some(la))
        }
        Variant1D::C => unreachable!("1D-C reduces its output: see `run_reduced`"),
    };
    let (right, nnz) = (rhs.slabs(), rhs.nnz());
    // Per rank: its bill, and whether its left and its right operand
    // hold an entry — a rank with an empty operand multiplies nothing.
    let mut bills: Few<(u64, u64)> = (0..p).map(|_| (0, 0)).collect();
    let mut live: Few<(bool, bool)> = (0..p).map(|_| (false, false)).collect();
    let (cuts, ranks) = &mut cache.cells;
    for (index, rows) in land.bands((a.nrows(), b.ncols())).into_iter().enumerate() {
        // The band's row cells and the rank forming each cell.
        cuts.clear();
        ranks.clear();
        match &la {
            Some(la) => row_cells(la, &rows, cuts, ranks),
            None => {
                cuts.extend([0, rows.len()]);
                ranks.extend(0..p);
            }
        }
        let left = a.rows(rows.clone());
        for (c, ranks) in ranks.chunks(right.count()).enumerate() {
            let filled = left.rowptr()[cuts[c + 1]] > left.rowptr()[cuts[c]];
            for (&k, &nnz) in ranks.iter().zip(nnz) {
                live[k].0 |= filled;
                live[k].1 |= nnz > 0;
            }
        }
        let band = Band {
            index,
            rows,
            left: &left,
            right,
            cuts,
            ranks,
        };
        for (&k, (ops, formed)) in ranks.iter().zip(land.band(band)) {
            bills[k] = (bills[k].0 + ops, bills[k].1 + formed);
        }
    }
    for (k, &(ops, formed)) in bills.iter().enumerate() {
        if live[k] == (true, true) {
            m.charge_compute(group.rank_at(k), ops + formed);
        }
    }
    if let Some(held) = held {
        held.release(m);
    }
    Ok(bills.iter().fold((0, 0), |(o, f), b| (o + b.0, f + b.1)))
}

/// The row slabs of `la` that output rows `rows` meet, as row cells of
/// that band, written to the empty `cuts` and `ranks`: the cuts,
/// band-relative, and the slab (rank) of each.
fn row_cells(la: &Layout, rows: &Range<usize>, cuts: &mut Vec<usize>, ranks: &mut Vec<usize>) {
    let meets = |&k: &usize| {
        let slab = la.row_range(k);
        !slab.is_empty() && slab.start < rows.end && rows.start < slab.end
    };
    ranks.extend((0..la.br()).filter(meets));
    let end = |&k: &usize| la.row_range(k).end.min(rows.end) - rows.start;
    cuts.extend(std::iter::once(0).chain(ranks.iter().map(end)));
}

/// The layout cutting an operand laid out as `own` into the row slabs
/// of `group`: `own` itself where it cuts them already (a one-rank
/// operand's does), so nothing is built.
fn row_split(own: &Layout, group: &Group) -> Layout {
    let (nrows, q) = (own.nrows(), group.len());
    let slab = |k| own.row_range(k) == even_range(nrows, q, k);
    if own.bc() == 1 && own.owners() == group.ranks() && (0..q).all(slab) {
        return own.clone();
    }
    row_split_layout(nrows, own.ncols(), group)
}

/// 1D-A's right operand, split by columns over `group`: one matrix in
/// global column ids, cut where the ranks' slabs start. It is moved
/// and held as if redistributed into the slabs: the all-to-all is
/// charged from a count ([`charge_redistribute`]), and each rank holds
/// its slab's entries.
///
/// The column-split right-hand form depends only on the operand and
/// the group, so Theorem 5.1's amortization applies to it exactly as
/// to the replicated/blocked forms of the other variants; a cached
/// form serves masked calls too (compute is mask-windowed either way).
/// A miss on a cache that amortizes therefore builds and keeps the
/// whole form, whatever the mask, and never asks for it: a sweep's masks
/// change every product and the next one hits. Only a one-shot product
/// builds `mask` and ships the operand shrunk by its fully-excluded
/// output columns, whose entries would strand at home.
fn rhs_for_a<'l, K: SpMulKernel>(
    m: &Machine,
    group: &Group,
    b: &DistMat<K::Right>,
    cache: &mut MmCache<K::Right>,
    mask: impl FnOnce() -> Option<Mask<'l>>,
) -> Result<Arc<ColumnSlabs<K::Right>>, MachineError> {
    // Built where a form is built: a hit moves nothing.
    let split = |b: &DistMat<K::Right>, host| {
        let lb = col_split_layout(b.nrows(), b.ncols(), group);
        charge_redistribute::<K::Right, _>(m, b, &lb)?;
        let cuts = (1..group.len()).map(|k| lb.col_range(k).start).collect();
        Ok(ColumnSlabs::new(host, cuts))
    };
    let mask = (!cache.amortizes()).then(mask).flatten();
    if let Some(s) = mask.and_then(|mk| crate::mm::shrink_rhs_against_mask(b, &mk)) {
        let host = Arc::new(s.to_global::<FirstWins<K::Right>>());
        return split(&s, host).map(Arc::new);
    }
    let build = |cache: &MmCache<_>| {
        let built = split(b, host_copy::<K>('B', group, b, cache))?;
        let bytes = built.nnz().iter().map(|&n| entries_bytes::<K::Right>(n));
        let held = group.ranks().iter().copied().zip(bytes);
        let held = Held::charged(m, held.filter(|&(_, bytes)| bytes > 0))?;
        Ok((CachedRhs::Split(Arc::new(built)), held))
    };
    let key = one_d_key('A', group, b);
    Ok(cache.prepared(key, Fingerprint::of(b), build)?.split())
}

/// Runs 1D-C over `group`: full-shape partial products, reduced into
/// the one output piece.
pub(crate) fn run_reduced<K: SpMulKernel>(
    m: &Machine,
    group: &Group,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let la = col_split_layout(a.nrows(), a.ncols(), group);
    let lb = row_split_layout(b.nrows(), b.ncols(), group);
    let a2 = redistribute::<FirstWins<K::Left>, _>(m, a, &la)?;
    let b2 = redistributed_rhs::<K>(m, one_d_key('C', group, b), b, &lb, cache)?;
    let mut ops = 0u64;
    let mut partials: Vec<Csr<KernelOut<K>>> = Vec::with_capacity(group.len());
    let mut held = Held::default();
    for k in 0..group.len() {
        let (ab, bb) = (a2.block(0, k), b2.block(k, 0));
        if ab.is_empty() || bb.is_empty() {
            partials.push(Csr::zero(a.nrows(), b.ncols()));
            continue;
        }
        // Full-shape partials: each gets the whole mask.
        let out = mfbc_sparse::spgemm_opt::<K>(ab, bb, mask);
        m.charge_compute(group.rank_at(k), out.ops + out.mat.nnz() as u64);
        held.charge(m, group.rank_at(k), out.mat.payload_bytes() as u64)?;
        ops += out.ops;
        partials.push(out.mat);
    }
    let total = mfbc_machine::collectives::sparse_reduce(m, group, partials, |x, y| {
        combine::<K::Acc, _>(&x, &y)
    })?;
    held.release(m);
    Ok((vec![(0, 0, 0, total)], ops))
}

/// A degenerate "monoid" used only to satisfy redistribution's
/// combiner bound for operand element types that need no combining
/// (distributed operands are duplicate-free by construction): it
/// keeps the first value and is never actually invoked on two
/// distinct coordinates.
#[derive(Debug)]
pub(crate) struct FirstWins<T>(std::marker::PhantomData<T>);

impl<T> Clone for FirstWins<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for FirstWins<T> {}

impl<T> Default for FirstWins<T> {
    fn default() -> Self {
        FirstWins(std::marker::PhantomData)
    }
}

impl<T: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static> Monoid for FirstWins<T> {
    type Elem = T;

    fn combine(a: &T, _b: &T) -> T {
        a.clone()
    }

    fn identity() -> T {
        unreachable!("FirstWins::identity must never be materialized")
    }

    /// Nothing is the identity: nothing is ever pruned.
    fn is_identity(_e: &T) -> bool {
        false
    }

    fn fold_into(_acc: &mut T, _x: &T) {}
}

impl<T: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static>
    mfbc_algebra::monoid::CommutativeMonoid for FirstWins<T>
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::canonical_layout;
    use mfbc_algebra::kernel::TropicalKernel;
    use mfbc_algebra::monoid::MinDist;
    use mfbc_algebra::Dist;
    use mfbc_machine::MachineSpec;
    use mfbc_sparse::slice::slice;
    use mfbc_sparse::Coo;

    /// An `n × n` operand whose columns `n / 4 ..= 3n / 4` hold nothing:
    /// the slabs inside them are empty.
    fn operand(n: usize) -> Csr<Dist> {
        let empty = n / 4..=3 * n / 4;
        let triples = (0..n).flat_map(|i| [(i, i), (i, (i * 7 + 3) % n)]);
        let triples = triples.filter(|(_, j)| !empty.contains(j));
        let triples = triples.map(|(i, j)| (i, j, Dist::new(1 + (i + j) as u64 % 5)));
        Coo::from_triples(n, n, triples).into_csr::<MinDist>()
    }

    /// Every rank's resident bytes and clock.
    fn state(m: &Machine) -> Vec<(u64, u64)> {
        m.with_tracker(|t| {
            (0..t.p())
                .map(|r| (t.resident(r), t.clock(r).to_bits()))
                .collect()
        })
    }

    #[test]
    fn joined_slabs_are_held_as_the_split_form_was() {
        // 1d(A)'s cached right operand is one matrix with column cuts;
        // it must move, be held and be released exactly as the split
        // form the ranks stand for: the parent's per-rank blocks.
        for p in [1usize, 3, 4, 16] {
            for n in [5usize, 40] {
                let (m, split_m) = (
                    Machine::new(MachineSpec::test(p)),
                    Machine::new(MachineSpec::test(p)),
                );
                let b = DistMat::from_global(canonical_layout(&m, n, n), &operand(n));
                let group = m.world();
                let mut cache = MmCache::new();
                let joined =
                    rhs_for_a::<TropicalKernel>(&m, &group, &b, &mut cache, || None).unwrap();
                let key = format!("1d:A:{p}:{}", b.content_id());
                let held = cache
                    .receipt(&key)
                    .expect("a cached form")
                    .charges()
                    .to_vec();
                // The split form: redistributed into column slabs, each
                // nonempty one held by its rank.
                let lb = col_split_layout(n, n, &group);
                let split = redistribute::<FirstWins<Dist>, _>(&split_m, &b, &lb).unwrap();
                let want: Vec<_> = block_residency(&split).collect();
                let what = format!("p = {p}, n = {n}");
                assert_eq!(held, want, "{what}: receipt");
                let split_held = Held::charged(&split_m, want).unwrap();
                assert_eq!(state(&m), state(&split_m), "{what}: residency and clocks");
                let slabs = joined.slabs();
                for k in 0..p {
                    let slab = slice(slabs.mat(), 0..n, slabs.cols(k));
                    assert_eq!(&slab, split.block(0, k), "{what}: slab {k}");
                    assert_eq!(joined.nnz()[k], slab.nnz(), "{what}: slab {k} entries");
                }
                assert!(p == 1 || joined.nnz().contains(&0), "{what}: an empty slab");
                cache.release_all(&m);
                split_held.release(&split_m);
                assert_eq!(state(&m), state(&split_m), "{what}: released");
                assert!(
                    state(&m).iter().all(|&(bytes, _)| bytes == 0),
                    "{what}: all released"
                );
            }
        }
    }

    #[test]
    fn both_1d_forms_share_one_host_copy() {
        // 1d(A)'s column slabs and 1d(B)'s replica are cut from the
        // same matrix, so one cache holds it once, whichever form is
        // built first; each entry's receipt stays what its form holds
        // on the machine: under B the whole operand on every rank, under
        // A each rank's nonempty column slab.
        let n = 40;
        let x = operand(n);
        for p in [1usize, 3, 4, 16] {
            for order in [[Variant1D::A, Variant1D::B], [Variant1D::B, Variant1D::A]] {
                let m = Machine::new(MachineSpec::test(p));
                let b = DistMat::from_global(canonical_layout(&m, n, n), &x);
                let group = m.world();
                let mut cache = MmCache::new();
                for v in order {
                    let plan = crate::mm::MmPlan::OneD(v);
                    crate::mm::mm_exec_cached_masked::<TropicalKernel>(
                        &m, &plan, &b, &b, None, &mut cache,
                    )
                    .unwrap();
                }
                let what = format!("p = {p}, {order:?}");
                let key = |v| one_d_key(v, &group, &b).to_string();
                let (ka, kb) = (key('A'), key('B'));
                let host = |key: &str| cache.peek(key).unwrap().clone().split().mat().clone();
                assert!(Arc::ptr_eq(&host(&ka), &host(&kb)), "{what}: one copy");
                assert_eq!(*host(&ka), x, "{what}: the operand");
                let receipt = |key: &str| cache.receipt(key).unwrap().charges().to_vec();
                let lb = col_split_layout(n, n, &group);
                let split = redistribute::<FirstWins<Dist>, _>(&m, &b, &lb).unwrap();
                let slabs: Vec<_> = block_residency(&split).collect();
                assert_eq!(receipt(&ka), slabs, "{what}: 1d(A)'s receipt");
                let whole = (x.nnz() * entry_bytes::<Dist>()) as u64;
                let replicas: Vec<_> = (0..p).map(|r| (r, whole)).collect();
                assert_eq!(receipt(&kb), replicas, "{what}: 1d(B)'s receipt");
                cache.release_all(&m);
            }
        }
    }
}
