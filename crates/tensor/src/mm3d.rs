//! The 3D sparse matrix multiplication variants (§5.2.3).
//!
//! A 3D algorithm nests a 1D variant over `p1` layers with a 2D
//! variant on each layer's `p2 × p3` grid, yielding the nine
//! `(X, YZ) ∈ {A,B,C} × {AB,AC,BC}` combinations of the paper:
//!
//! * `X = A`: A is replicated across layers (fiber broadcasts of its
//!   `p2 × p3`-distributed blocks); B's and C's columns are split
//!   `p1` ways, one slice per layer;
//! * `X = B`: B replicated; A's and C's rows split;
//! * `X = C`: the contraction dimension is split — A's columns and
//!   B's rows — and each layer's full-shape partial product is
//!   sparse-reduced along the fiber groups.
//!
//! Cost matches `W_{X,YZ}` of §5.2.3: the 1D dimension contributes
//! `O(α log p1 + β·nnz(X)/(p2·p3))` (fiber collectives on blocks of
//! the `p2 × p3` distribution) and the inner 2D variant runs on
//! operands shrunk by `p1` in the split dimensions.
//!
//! The layer replicas charge each fiber rank its own block's bytes on
//! one receipt (`Held`): `X = A` releases it after the layer
//! multiplies, `X = B` hands it to the cache with the replicas.

use crate::cache::{CachedRhs, Fingerprint, MmCache};
use crate::dist::{DistMat, Layout};
use crate::grid::Grid3;
use crate::held::Held;
use crate::mm::{Variant1D, Variant2D};
use crate::mm1d::{block_residency, FirstWins, Piece};
use crate::mm2d;
use crate::redist::{extract_windows, redistribute};
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::collectives::{wait_all, Pending};
use mfbc_machine::{CollectiveKind, Machine, MachineError};
use mfbc_sparse::slice::even_ranges;
use mfbc_sparse::{Csr, Few, Mask};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs a 3D variant over `grid`, returning its output pieces.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pieces<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid3,
    split: Variant1D,
    inner: Variant2D,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    match split {
        Variant1D::A => split_a::<K>(m, grid, inner, a, b, mask, cache),
        Variant1D::B => split_b::<K>(m, grid, inner, a, b, mask, cache),
        Variant1D::C => split_c::<K>(m, grid, inner, a, b, mask, cache),
    }
}

/// Fetches (or builds, charges, and caches) the per-layer slices of
/// the right operand for a given spec list.
fn cached_rhs_slices<K: SpMulKernel>(
    m: &Machine,
    key: String,
    b: &DistMat<K::Right>,
    specs: &[(std::ops::Range<usize>, std::ops::Range<usize>, Layout)],
    cache: &mut MmCache<K::Right>,
) -> Result<Arc<Vec<DistMat<K::Right>>>, MachineError> {
    let build = |_: &MmCache<_>| {
        let built = extract_windows::<FirstWins<K::Right>, _>(m, b, specs)?;
        let held = Held::charged(m, built.iter().flat_map(block_residency))?;
        Ok((CachedRhs::Layers(Arc::new(built)), held))
    };
    Ok(cache.prepared(key, Fingerprint::of(b), build)?.layers())
}

/// Fetches (or builds and caches) the per-layer replicas of the right
/// operand (split = B); the entry keeps the replication's receipt.
/// On a cache miss the replication's fiber broadcasts are posted —
/// they must be waited before the replicas are multiplied (a hit
/// posts none).
fn cached_rhs_layers<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid3,
    b: &DistMat<K::Right>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Arc<Vec<DistMat<K::Right>>>, Vec<Pending<()>>), MachineError> {
    let key = format!(
        "3d:B:{}x{}x{}:{}",
        grid.p1(),
        grid.p2(),
        grid.p3(),
        b.content_id()
    );
    let mut arriving = Vec::new();
    let form = cache.prepared(key, Fingerprint::of(b), |_| {
        let (layers, held, posted) = replicate_over_layers::<_, FirstWins<K::Right>>(m, grid, b)?;
        arriving = posted;
        Ok((CachedRhs::Layers(Arc::new(layers)), held))
    })?;
    Ok((form.layers(), arriving))
}

/// Replicates `x` (any layout) to every layer of `grid`: first
/// redistributed to layer 0's natural 2D layout, then each block is
/// broadcast along its fiber group. Returns one per-layer copy (on
/// that layer's grid), the receipt of the copies layers `1..p1`
/// charged (each fiber rank its block's bytes), and the posted fiber
/// broadcasts: the caller overlaps them with the other operand's
/// redistribution and waits them before the replicas are multiplied.
fn replicate_over_layers<T, M>(
    machine: &Machine,
    grid: &Grid3,
    x: &DistMat<T>,
) -> Result<(Vec<DistMat<T>>, Held, Vec<Pending<()>>), MachineError>
where
    M: mfbc_algebra::monoid::Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let (p1, p2, p3) = (grid.p1(), grid.p2(), grid.p3());
    let l0 = grid.layer(0);
    let layout0 = Layout::on_grid(x.nrows(), x.ncols(), &l0);
    let x0 = redistribute::<M, _>(machine, x, &layout0)?;

    // Fiber broadcasts: disjoint groups, so each fiber's collective
    // lands on its own critical path.
    let mut posted = Vec::with_capacity(p2 * p3);
    let mut held = Held::default();
    for i in 0..p2 {
        for j in 0..p3 {
            let bytes = x0.block(i, j).payload_bytes() as u64;
            let fg = grid.fiber_group(i, j);
            posted.push(machine.post_collective(&fg, CollectiveKind::Broadcast, bytes, ())?);
            for l in 1..p1 {
                held.charge(machine, fg.rank_at(l), bytes)?;
            }
        }
    }

    let mut per_layer = Vec::with_capacity(p1);
    per_layer.push(x0.clone());
    for l in 1..p1 {
        let ll = Layout::on_grid(x.nrows(), x.ncols(), &grid.layer(l));
        let blocks: Few<_> = (0..layout0.br())
            .flat_map(|bi| (0..layout0.bc()).map(move |bj| (bi, bj)))
            .map(|(bi, bj)| x0.block(bi, bj).clone())
            .collect();
        per_layer.push(DistMat::from_blocks(ll, blocks));
    }
    Ok((per_layer, held, posted))
}

/// `X = A`: replicate the left operand; split B/C columns.
fn split_a<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid3,
    inner: Variant2D,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let p1 = grid.p1();
    // A's fiber broadcasts overlap B's slice all-to-all below; they
    // are waited before the replicas feed the layer multiplies.
    let (layer_as, a_held, arriving) = replicate_over_layers::<_, FirstWins<K::Left>>(m, grid, a)?;
    let windows = even_ranges(b.ncols(), p1);
    // All layers' slices of B move in one all-to-all.
    let specs: Vec<_> = (0..p1)
        .map(|l| {
            let w = windows[l].clone();
            let lb = Layout::on_grid(b.nrows(), w.len(), &grid.layer(l));
            (0..b.nrows(), w, lb)
        })
        .collect();
    let key = format!(
        "3d:A:{}x{}x{}:bslices:{}",
        grid.p1(),
        grid.p2(),
        grid.p3(),
        b.content_id()
    );
    let slices = cached_rhs_slices::<K>(m, key, b, &specs, cache)?;
    wait_all(m, arriving)?;
    let mut pieces = Vec::new();
    let mut ops = 0u64;
    for (l, bl) in slices.iter().enumerate() {
        let w = windows[l].clone();
        if w.is_empty() {
            continue;
        }
        // Layer l owns output columns `w`: re-base the mask to them.
        let lw = mask.map(|mk| mk.window(0..a.nrows(), w.clone()));
        let (ps, o) = mm2d::run_pieces::<K>(
            m,
            &grid.layer(l),
            inner,
            &layer_as[l],
            bl,
            lw.as_ref(),
            cache,
        )?;
        ops += o;
        pieces.extend(
            ps.into_iter()
                .map(|(r0, c0, pos, blk)| (r0, c0 + w.start, pos, blk)),
        );
    }
    a_held.release(m);
    Ok((pieces, ops))
}

/// `X = B`: replicate the right operand; split A/C rows.
fn split_b<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid3,
    inner: Variant2D,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let p1 = grid.p1();
    let (layer_bs, arriving) = cached_rhs_layers::<K>(m, grid, b, cache)?;
    let windows = even_ranges(a.nrows(), p1);
    let specs: Vec<_> = (0..p1)
        .map(|l| {
            let w = windows[l].clone();
            let la = Layout::on_grid(w.len(), a.ncols(), &grid.layer(l));
            (w, 0..a.ncols(), la)
        })
        .collect();
    let slices = extract_windows::<FirstWins<K::Left>, _>(m, a, &specs)?;
    // B's fiber broadcasts (on a cache miss) overlapped A's slice
    // all-to-all above; wait them before the multiplies.
    wait_all(m, arriving)?;
    let mut pieces = Vec::new();
    let mut ops = 0u64;
    for (l, al) in slices.into_iter().enumerate() {
        let w = windows[l].clone();
        if w.is_empty() {
            continue;
        }
        // Layer l owns output rows `w`: re-base the mask to them.
        let lw = mask.map(|mk| mk.window(w.clone(), 0..b.ncols()));
        let (ps, o) = mm2d::run_pieces::<K>(
            m,
            &grid.layer(l),
            inner,
            &al,
            &layer_bs[l],
            lw.as_ref(),
            cache,
        )?;
        ops += o;
        pieces.extend(
            ps.into_iter()
                .map(|(r0, c0, pos, blk)| (r0 + w.start, c0, pos, blk)),
        );
    }
    Ok((pieces, ops))
}

/// `X = C`: split the contraction dimension; sparse-reduce each
/// layer's full-shape partial along fiber groups.
fn split_c<K: SpMulKernel>(
    m: &Machine,
    grid: &Grid3,
    inner: Variant2D,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
    cache: &mut MmCache<K::Right>,
) -> Result<(Vec<Piece<KernelOut<K>>>, u64), MachineError> {
    let p1 = grid.p1();
    let p3 = grid.p3();
    let windows = even_ranges(a.ncols(), p1);
    let mut ops = 0u64;

    // Per (r0, c0, pos): one optional contribution per layer.
    type Key = (usize, usize, usize);
    let mut partials: HashMap<Key, Vec<Option<Csr<KernelOut<K>>>>> = HashMap::new();

    let a_specs: Vec<_> = (0..p1)
        .map(|l| {
            let w = windows[l].clone();
            let la = Layout::on_grid(a.nrows(), w.len(), &grid.layer(l));
            (0..a.nrows(), w, la)
        })
        .collect();
    let a_slices = extract_windows::<FirstWins<K::Left>, _>(m, a, &a_specs)?;
    let b_specs: Vec<_> = (0..p1)
        .map(|l| {
            let w = windows[l].clone();
            let lb = Layout::on_grid(w.len(), b.ncols(), &grid.layer(l));
            (w, 0..b.ncols(), lb)
        })
        .collect();
    let key = format!(
        "3d:C:{}x{}x{}:bslices:{}",
        grid.p1(),
        grid.p2(),
        grid.p3(),
        b.content_id()
    );
    let b_slices = cached_rhs_slices::<K>(m, key, b, &b_specs, cache)?;
    for (l, al) in a_slices.into_iter().enumerate() {
        let w = windows[l].clone();
        if w.is_empty() {
            continue;
        }
        // Contraction split: every layer forms full-shape partials,
        // so each gets the whole output mask.
        let (ps, o) =
            mm2d::run_pieces::<K>(m, &grid.layer(l), inner, &al, &b_slices[l], mask, cache)?;
        ops += o;
        for (r0, c0, pos, blk) in ps {
            partials
                .entry((r0, c0, pos))
                .or_insert_with(|| vec![None; p1])[l] = Some(blk);
        }
    }

    // Fiber reductions: one sparse reduce per surviving block
    // position, combining the layers' partial contributions. Every
    // reduce is posted before any is waited — the fiber groups are
    // disjoint, so under overlapped accounting the rounds pipeline.
    let mut keys: Vec<Key> = partials.keys().copied().collect();
    keys.sort_unstable();
    let mut reduced = Vec::with_capacity(keys.len());
    for key in keys {
        let (r0, c0, pos) = key;
        let layers = partials.remove(&key).expect("key just listed");
        let shape = layers
            .iter()
            .flatten()
            .next()
            .map(|c| (c.nrows(), c.ncols()))
            .expect("at least one layer contributed");
        let contribs: Vec<Csr<KernelOut<K>>> = layers
            .into_iter()
            .map(|o| o.unwrap_or_else(|| Csr::zero(shape.0, shape.1)))
            .collect();
        let (i, j) = (pos / p3, pos % p3);
        let fg = grid.fiber_group(i, j);
        let total = mm2d::reduce_chunk::<K>(m, &fg, contribs)?;
        reduced.push((r0, c0, pos, total));
    }
    let mut pieces = Vec::with_capacity(reduced.len());
    for (r0, c0, pos, pending) in reduced {
        let total = pending.wait(m)?;
        if !total.is_empty() {
            pieces.push((r0, c0, pos, total));
        }
    }
    Ok((pieces, ops))
}
