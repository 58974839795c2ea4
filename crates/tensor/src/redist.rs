//! Sparse redistribution between block layouts.
//!
//! CTF transitions tensors between data distributions with dedicated
//! kernels (§6.2). This module implements the sparse-to-sparse
//! redistribution slab-wise: layouts are grids of rectangular cuts
//! over blocks with sorted rows, so every destination block is
//! stitched from column sub-ranges of source-block rows
//! ([`mfbc_sparse::slice::stitch`]) — no entry is located or sorted.
//! What each source block contributes to a block on another rank
//! travels through a personalized all-to-all (charged on the
//! machine's critical path; entries that stay on their rank are
//! free).

use crate::dist::{DistMat, Layout};
use mfbc_algebra::monoid::Monoid;
use mfbc_machine::cost::CollectiveKind;
use mfbc_machine::{Machine, MachineError, RedistMode};
use mfbc_sparse::slice::stitch;
use mfbc_sparse::{entry_bytes, Csr, Few, Idx};
use std::borrow::Borrow;
use std::ops::Range;

/// Moves `src` into `dst_layout`; entries that are `M`'s identity are
/// dropped on the way (layout cuts are disjoint, so nothing is ever
/// combined).
pub fn redistribute<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    dst_layout: &Layout,
) -> Result<DistMat<T>, MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    assert_eq!(
        src.nrows(),
        dst_layout.nrows(),
        "redistribute shape mismatch"
    );
    assert_eq!(
        src.ncols(),
        dst_layout.ncols(),
        "redistribute shape mismatch"
    );
    if src.layout().same_as(dst_layout) {
        return Ok(src.clone());
    }
    let whole = (0..src.nrows(), 0..src.ncols(), dst_layout);
    let mut out = move_windows::<M, T, _>(m, src, &[whole], "redistribute")?;
    Ok(out.pop().expect("one window in, one matrix out"))
}

/// Extracts several windows `src[rows, cols]` (each into a layout of
/// the window's shape, reindexed to the window origin), moving all of
/// them through a *single* personalized all-to-all — what a real
/// implementation does when slicing a matrix across the layers of a
/// 3D algorithm (per-layer extraction would serialize the layers on
/// the critical path).
pub fn extract_windows<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    specs: &[(Range<usize>, Range<usize>, Layout)],
) -> Result<Vec<DistMat<T>>, MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    move_windows::<M, T, _>(m, src, specs, "windows")
}

/// The one redistribution body: stitches the windows, then charges
/// moving them ([`charge_move`]).
fn move_windows<M, T, L>(
    m: &Machine,
    src: &DistMat<T>,
    specs: &[(Range<usize>, Range<usize>, L)],
    what: &'static str,
) -> Result<Vec<DistMat<T>>, MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
    L: Borrow<Layout>,
{
    let outputs = stitch_windows::<M, T, L>(src, specs);
    charge_move(m, src, specs, what)?;
    Ok(outputs)
}

/// Charges what [`redistribute`] of a matrix of `E`s on `src`'s
/// pattern into `dst` moves, without moving it: for a product that
/// reads the moved operand in place — `src` itself, or, where only the
/// model holds the operand, another matrix on its pattern (MFBr's
/// seeds, read off `T`).
pub(crate) fn charge_redistribute<E, T>(
    m: &Machine,
    src: &DistMat<T>,
    dst: &Layout,
) -> Result<(), MachineError>
where
    T: Clone + Send + Sync,
{
    if src.layout().same_as(dst) {
        return Ok(());
    }
    let whole = [(0..src.nrows(), 0..src.ncols(), dst)];
    let (traffic, participants) = traffic_at(m.p(), src, &whole, entry_bytes::<E>() as u64);
    charge_redist(m, &traffic, participants, "redistribute")
}

/// Charges, in one [`charge_redist`] labeled `what`, moving the
/// windows `specs` of `src`: the bytes [`traffic`] counts.
fn charge_move<T, L>(
    m: &Machine,
    src: &DistMat<T>,
    specs: &[(Range<usize>, Range<usize>, L)],
    what: &'static str,
) -> Result<(), MachineError>
where
    T: Clone + Send + Sync,
    L: Borrow<Layout>,
{
    let (traffic, participants) = traffic(m.p(), src, specs);
    charge_redist(m, &traffic, participants, what)
}

/// Stitches every destination block of every window from the source
/// blocks.
pub(crate) fn stitch_windows<M, T, L>(
    src: &DistMat<T>,
    specs: &[(Range<usize>, Range<usize>, L)],
) -> Vec<DistMat<T>>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
    L: Borrow<Layout>,
{
    let mut slabs = src.slabs();
    let mut outputs = Vec::with_capacity(specs.len());
    for (rows, cols, dst_layout) in specs {
        let dst_layout: &Layout = dst_layout.borrow();
        check_window(src, (rows, cols), dst_layout);
        let blocks: Few<_> = dst_layout
            .blocks()
            .map(|(bi, bj)| {
                let (rr, cr) = (dst_layout.row_range(bi), dst_layout.col_range(bj));
                stitch(
                    rows.start + rr.start..rows.start + rr.end,
                    cols.start + cr.start..cols.start + cr.end,
                    &mut slabs,
                    |v| !M::is_identity(v),
                )
                .0
            })
            .collect();
        outputs.push(DistMat::from_blocks(dst_layout.clone(), blocks));
    }
    outputs
}

/// Asserts that the window `rows × cols` of `src` has `dst`'s shape and
/// lies inside `src`.
fn check_window<T>(src: &DistMat<T>, (rows, cols): (&Range<usize>, &Range<usize>), dst: &Layout)
where
    T: Clone + Send + Sync,
{
    assert_eq!(rows.len(), dst.nrows(), "window height mismatch");
    assert_eq!(cols.len(), dst.ncols(), "window width mismatch");
    assert!(
        rows.end <= src.nrows() && cols.end <= src.ncols(),
        "window out of bounds"
    );
}

/// What moving the windows `specs` of `src` sends, counted without
/// moving anything: `traffic[src_rank * p + dst_rank]` bytes of the
/// entries each source block holds inside each destination block that
/// another rank owns (the hybrid redistribution modes price each
/// sender's fan-out from its per-destination volumes), and the ranks
/// involved (senders and receivers): a redistribution confined to a
/// subset of ranks — e.g. one layer of a 3D algorithm — must not
/// synchronize the others.
pub(crate) fn traffic<T, L>(
    p: usize,
    src: &DistMat<T>,
    specs: &[(Range<usize>, Range<usize>, L)],
) -> (Vec<u64>, Vec<usize>)
where
    T: Clone + Send + Sync,
    L: Borrow<Layout>,
{
    traffic_at(p, src, specs, entry_bytes::<T>() as u64)
}

/// [`traffic`] at `ebytes` bytes an entry.
fn traffic_at<T, L>(
    p: usize,
    src: &DistMat<T>,
    specs: &[(Range<usize>, Range<usize>, L)],
    ebytes: u64,
) -> (Vec<u64>, Vec<usize>)
where
    T: Clone + Send + Sync,
    L: Borrow<Layout>,
{
    let mut traffic = vec![0u64; p * p];
    let sl = src.layout();
    let mut participants: Vec<usize> = Vec::new();
    for (rows, cols, dst_layout) in specs {
        let dst_layout: &Layout = dst_layout.borrow();
        check_window(src, (rows, cols), dst_layout);
        participants.extend(collect_owners(sl, dst_layout));
        for (bi, bj) in dst_layout.blocks() {
            let (rr, cr) = (dst_layout.row_range(bi), dst_layout.col_range(bj));
            let window = (
                rows.start + rr.start..rows.start + rr.end,
                cols.start + cr.start..cols.start + cr.end,
            );
            let dst_rank = dst_layout.owner(bi, bj);
            for (si, sj) in sl.blocks() {
                let src_rank = sl.owner(si, sj);
                if src_rank == dst_rank {
                    continue;
                }
                let at = (sl.row_range(si).start, sl.col_range(sj).start);
                let entries = inside(src.block(si, sj), at, &window);
                traffic[src_rank * p + dst_rank] += entries as u64 * ebytes;
            }
        }
    }
    participants.sort_unstable();
    participants.dedup();
    (traffic, participants)
}

/// How many entries of `mat`, sitting at `(r0, c0)`, lie inside the
/// window `rows × cols`.
fn inside<T>(
    mat: &Csr<T>,
    (r0, c0): (usize, usize),
    (rows, cols): &(Range<usize>, Range<usize>),
) -> usize {
    let (lo, hi) = (rows.start.max(r0), rows.end.min(r0 + mat.nrows()));
    let (cl, ch) = (cols.start.max(c0), cols.end.min(c0 + mat.ncols()));
    if lo >= hi || cl >= ch {
        return 0;
    }
    let (lo, hi, cl, ch) = (lo - r0, hi - r0, cl - c0, ch - c0);
    if (cl, ch) == (0, mat.ncols()) {
        return mat.rowptr()[hi] - mat.rowptr()[lo];
    }
    let below = |row: &[Idx], c: usize| row.partition_point(|&j| (j as usize) < c);
    let within = |i| below(mat.row_cols(i), ch) - below(mat.row_cols(i), cl);
    (lo..hi).map(within).sum()
}

/// Union of the owner ranks of two layouts, ascending.
pub(crate) fn collect_owners(a: &Layout, b: &Layout) -> Vec<usize> {
    let mut ranks: Vec<usize> = a.owners().iter().chain(b.owners()).copied().collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// Charges the movement described by `traffic` (true source→destination
/// byte counts, `p` rows of `p`, diagonal-free) according to the machine's
/// redistribution mode and emits one
/// [`mfbc_trace::TraceEvent::Redist`] labeled `what` with the total
/// bytes that changed owner.
///
/// * [`RedistMode::Alltoall`] — the §6.2 baseline: one personalized
///   all-to-all over `participants`, charged with the largest
///   per-sender volume.
/// * [`RedistMode::P2p`] — per sender, one point-to-point message per
///   destination (`k·α + β·b` for `k` destinations sending `b` bytes
///   total): cheapest when block sparsity leaves each sender few
///   destinations.
/// * [`RedistMode::Bcast`] — per sender, one broadcast over the
///   sender and its destinations (`2β·b + 2⌈lg(k+1)⌉·α`): fewer
///   latency hits when a block fans out to many ranks.
/// * [`RedistMode::Auto`] — per sender, whichever of the two hybrids
///   is cheaper under the spec's α and β, decided from the actual
///   per-block nnz the traffic matrix records — *unless* the traffic
///   is dense enough that the single amortized all-to-all undercuts
///   the whole hybrid schedule, in which case Auto falls back to it.
///   The comparison sums the per-sender hybrid costs (senders whose
///   groups share ranks serialize on the machine, so the sum is the
///   conservative estimate) against the all-to-all's closed form on
///   the largest per-sender volume.
pub(crate) fn charge_redist(
    m: &Machine,
    traffic: &[u64],
    participants: Vec<usize>,
    what: &'static str,
) -> Result<(), MachineError> {
    let total: u64 = traffic.iter().sum();
    if total == 0 {
        return Ok(());
    }
    let nparticipants = participants.len();
    let spec = m.spec();
    let senders = || traffic.chunks(m.p());
    let max_send = senders()
        .map(|row| row.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    let mode = match spec.redist {
        RedistMode::Auto => {
            let alltoall_t = CollectiveKind::AllToAll.time(spec, nparticipants, max_send);
            let hybrid_t: f64 = senders()
                .enumerate()
                .map(|(r, row)| {
                    let b_r: u64 = row
                        .iter()
                        .enumerate()
                        .filter(|&(d, &b)| d != r && b > 0)
                        .map(|(_, &b)| b)
                        .sum();
                    let k = row
                        .iter()
                        .enumerate()
                        .filter(|&(d, &b)| d != r && b > 0)
                        .count();
                    if k == 0 {
                        return 0.0;
                    }
                    let p2p_t = spec.beta * b_r as f64 + k as f64 * spec.alpha;
                    let bcast_t = CollectiveKind::Broadcast.time(spec, k + 1, b_r);
                    p2p_t.min(bcast_t)
                })
                .sum();
            if alltoall_t <= hybrid_t {
                RedistMode::Alltoall
            } else {
                RedistMode::Auto
            }
        }
        other => other,
    };
    match mode {
        RedistMode::Alltoall => {
            let group = mfbc_machine::Group::new(participants)
                .expect("owner union is non-empty and deduplicated");
            m.charge_collective(&group, CollectiveKind::AllToAll, max_send)?;
        }
        mode => {
            // Hybrid: price each sender's fan-out from its actual
            // per-destination volumes; ranks and destinations are
            // walked in ascending order so the schedule (and hence
            // the modeled clocks) is deterministic.
            for (r, row) in senders().enumerate() {
                let dests: Vec<(usize, u64)> = row
                    .iter()
                    .enumerate()
                    .filter(|&(d, &b)| d != r && b > 0)
                    .map(|(d, &b)| (d, b))
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                let b_r: u64 = dests.iter().map(|&(_, b)| b).sum();
                let k = dests.len();
                let use_bcast = match mode {
                    RedistMode::Bcast => true,
                    RedistMode::P2p => false,
                    RedistMode::Auto | RedistMode::Alltoall => {
                        let p2p_t = spec.beta * b_r as f64 + k as f64 * spec.alpha;
                        let bcast_t = CollectiveKind::Broadcast.time(spec, k + 1, b_r);
                        bcast_t <= p2p_t
                    }
                };
                if use_bcast {
                    let mut ranks: Vec<usize> = dests.iter().map(|&(d, _)| d).collect();
                    ranks.push(r);
                    ranks.sort_unstable();
                    let group = mfbc_machine::Group::new(ranks)
                        .expect("sender plus destinations is non-empty");
                    m.charge_collective(&group, CollectiveKind::Broadcast, b_r)?;
                } else {
                    for (d, b) in dests {
                        let mut pair = vec![r, d];
                        pair.sort_unstable();
                        let group = mfbc_machine::Group::new(pair)
                            .expect("sender–destination pair is non-empty");
                        m.charge_collective(&group, CollectiveKind::PointToPoint, b)?;
                    }
                }
            }
        }
    }
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Redist {
        what,
        bytes_moved: total,
        participants: nparticipants,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2;
    use mfbc_algebra::monoid::SumU64;
    use mfbc_machine::{Group, MachineSpec};
    use mfbc_sparse::{Coo, Csr};

    fn machine(p: usize) -> Machine {
        Machine::new(MachineSpec::test(p))
    }

    fn sample() -> Csr<u64> {
        Coo::from_triples(
            6,
            6,
            (0..6).flat_map(|i| [(i, (i + 1) % 6, (10 + i) as u64), (i, i, (1 + i) as u64)]),
        )
        .into_csr::<SumU64>()
    }

    #[test]
    fn redistribution_preserves_contents() {
        let m = machine(4);
        let g = sample();
        let src_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap());
        let dst_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 4, 1).unwrap());
        let src = DistMat::from_global(src_layout, &g);
        let dst = redistribute::<SumU64, _>(&m, &src, &dst_layout).unwrap();
        assert_eq!(dst.to_global::<SumU64>(), g);
        assert!(dst.layout().same_as(&dst_layout));
    }

    #[test]
    fn redistribution_charges_traffic() {
        let m = machine(4);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let dst_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 1, 4).unwrap());
        let _ = redistribute::<SumU64, _>(&m, &src, &dst_layout).unwrap();
        assert!(m.report().critical.bytes > 0);
    }

    #[test]
    fn same_layout_is_free() {
        let m = machine(4);
        let g = sample();
        let layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap());
        let src = DistMat::from_global(layout.clone(), &g);
        let dst = redistribute::<SumU64, _>(&m, &src, &layout).unwrap();
        assert_eq!(dst.to_global::<SumU64>(), g);
        assert_eq!(m.report().critical.bytes, 0);
        assert_eq!(m.report().critical.msgs, 0);
    }

    #[test]
    fn extract_window_preserves_window() {
        let m = machine(4);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let dst_layout = Layout::on_grid(3, 4, &Grid2::new(Group::all(4), 2, 2).unwrap());
        let w = extract_windows::<SumU64, _>(&m, &src, &[(2..5, 1..5, dst_layout)]).unwrap();
        let wg = w[0].to_global::<SumU64>();
        assert_eq!(wg, mfbc_sparse::slice::slice(&g, 2..5, 1..5));
    }

    #[test]
    fn extract_full_window_equals_redistribute() {
        let m = machine(4);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 2, 2).unwrap()),
            &g,
        );
        let dst_layout = Layout::on_grid(6, 6, &Grid2::new(Group::all(4), 4, 1).unwrap());
        let whole = [(0..6, 0..6, dst_layout.clone())];
        let a = extract_windows::<SumU64, _>(&m, &src, &whole).unwrap();
        let b = redistribute::<SumU64, _>(&m, &src, &dst_layout).unwrap();
        assert_eq!(a[0].to_global::<SumU64>(), b.to_global::<SumU64>());
    }

    #[test]
    fn to_single_rank() {
        let m = machine(2);
        let g = sample();
        let src = DistMat::from_global(
            Layout::on_grid(6, 6, &Grid2::new(Group::all(2), 1, 2).unwrap()),
            &g,
        );
        let dst = redistribute::<SumU64, _>(&m, &src, &Layout::single(6, 6, 0)).unwrap();
        assert_eq!(dst.block(0, 0), &g);
    }
}
