//! Test-only reference: the entry-wise bodies the slab-wise movers
//! replaced, and the seeded property suite that holds the two equal.
//!
//! Until slab-wise movement, `redistribute`, `extract_windows`,
//! `assemble_canonical` and `DistMat::to_global` located every entry
//! with `find_row_block`/`find_col_block`, pushed it into a
//! per-destination [`Coo`] and let `into_csr` sort, combine and prune.
//! Those bodies live on here, and every case of the suite demands
//! that the slab-wise path produce the same blocks
//! ([`Csr::first_difference`]), the same traffic matrix, and — after
//! [`charge_redist`] — bit-identical modeled clocks.
//!
//! Both suites are conformance properties: a fixed seed stream,
//! `MFBC_CONFORMANCE_CASES` to deepen it, one failing seed printed
//! with its repro line.

use crate::dist::{DistMat, Layout};
use crate::grid::{factorizations, Grid2, Grid3};
use crate::mm::{assemble_canonical, canonical_layout};
use crate::mm1d::{FirstWins, Piece};
use crate::redist::{self, charge_redist, collect_owners, extract_windows, redistribute};
use mfbc_algebra::monoid::{Monoid, SumU64};
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::{gen, property};
use mfbc_machine::{Group, Machine, MachineError, MachineSpec, RedistMode};
use mfbc_sparse::slice::even_ranges;
use mfbc_sparse::{entry_bytes, Coo, Csr};
use std::ops::Range;

type Spec = (Range<usize>, Range<usize>, Layout);

/// One empty block-local [`Coo`] per block of `layout`.
fn block_coos<T>(layout: &Layout) -> Vec<Coo<T>> {
    layout
        .blocks()
        .map(|(bi, bj)| Coo::new(layout.row_range(bi).len(), layout.col_range(bj).len()))
        .collect()
}

/// `redistribute` as it was: every entry re-bucketed to its
/// destination block. Also returns the traffic matrix it charged.
fn redistribute_ref<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    dst_layout: &Layout,
) -> Result<(DistMat<T>, Vec<Vec<u64>>), MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let p = m.p();
    let mut traffic = vec![vec![0u64; p]; p];
    if src.layout().same_as(dst_layout) {
        return Ok((src.clone(), traffic));
    }
    let mut dst_coo: Vec<Coo<T>> = block_coos(dst_layout);
    let ebytes = entry_bytes::<T>() as u64;
    let sl = src.layout();
    for sbi in 0..sl.br() {
        let r0 = sl.row_range(sbi).start;
        for sbj in 0..sl.bc() {
            let c0 = sl.col_range(sbj).start;
            let src_rank = sl.owner(sbi, sbj);
            for (i, j, v) in src.block(sbi, sbj).iter() {
                let (gi, gj) = (r0 + i, c0 + j);
                let dbi = dst_layout.find_row_block(gi);
                let dbj = dst_layout.find_col_block(gj);
                let dst_rank = dst_layout.owner(dbi, dbj);
                if dst_rank != src_rank {
                    traffic[src_rank][dst_rank] += ebytes;
                }
                dst_coo[dbi * dst_layout.bc() + dbj].push(
                    gi - dst_layout.row_range(dbi).start,
                    gj - dst_layout.col_range(dbj).start,
                    v.clone(),
                );
            }
        }
    }
    charge_redist(
        m,
        &traffic.concat(),
        collect_owners(src.layout(), dst_layout),
        "redistribute",
    )?;
    let blocks: Vec<_> = dst_coo.into_iter().map(|coo| coo.into_csr::<M>()).collect();
    Ok((DistMat::from_blocks(dst_layout.clone(), blocks), traffic))
}

/// `extract_windows` as it was: every entry tested against every
/// window. Also returns the traffic matrix it charged.
fn extract_windows_ref<M, T>(
    m: &Machine,
    src: &DistMat<T>,
    specs: &[Spec],
) -> Result<(Vec<DistMat<T>>, Vec<Vec<u64>>), MachineError>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let p = m.p();
    let mut traffic = vec![vec![0u64; p]; p];
    let ebytes = entry_bytes::<T>() as u64;
    let mut outputs: Vec<Vec<Coo<T>>> = Vec::with_capacity(specs.len());
    let mut participants: Vec<usize> = Vec::new();
    for (_, _, dst_layout) in specs {
        outputs.push(block_coos(dst_layout));
        participants.extend(collect_owners(src.layout(), dst_layout));
    }
    participants.sort_unstable();
    participants.dedup();

    let sl = src.layout();
    for sbi in 0..sl.br() {
        let rr = sl.row_range(sbi);
        for sbj in 0..sl.bc() {
            let cr = sl.col_range(sbj);
            let src_rank = sl.owner(sbi, sbj);
            for (i, j, v) in src.block(sbi, sbj).iter() {
                let (gi, gj) = (rr.start + i, cr.start + j);
                for (w, (rows, cols, dst_layout)) in specs.iter().enumerate() {
                    if !rows.contains(&gi) || !cols.contains(&gj) {
                        continue;
                    }
                    let (wi, wj) = (gi - rows.start, gj - cols.start);
                    let dbi = dst_layout.find_row_block(wi);
                    let dbj = dst_layout.find_col_block(wj);
                    if dst_layout.owner(dbi, dbj) != src_rank {
                        traffic[src_rank][dst_layout.owner(dbi, dbj)] += ebytes;
                    }
                    outputs[w][dbi * dst_layout.bc() + dbj].push(
                        wi - dst_layout.row_range(dbi).start,
                        wj - dst_layout.col_range(dbj).start,
                        v.clone(),
                    );
                }
            }
        }
    }
    charge_redist(m, &traffic.concat(), participants, "windows")?;
    let outputs = outputs
        .into_iter()
        .zip(specs)
        .map(|(coos, (_, _, dst_layout))| {
            DistMat::from_blocks(
                dst_layout.clone(),
                coos.into_iter()
                    .map(|c| c.into_csr::<M>())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Ok((outputs, traffic))
}

/// `assemble_canonical` as it was.
fn assemble_canonical_ref<M, T>(
    m: &Machine,
    nrows: usize,
    ncols: usize,
    pieces: Vec<Piece<T>>,
) -> DistMat<T>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let layout = canonical_layout(m, nrows, ncols);
    let mut per_block: Vec<Coo<T>> = block_coos(&layout);
    for (r0, c0, _pos, piece) in pieces {
        for (i, j, v) in piece.iter() {
            let (gi, gj) = (r0 + i, c0 + j);
            let bi = layout.find_row_block(gi);
            let bj = layout.find_col_block(gj);
            per_block[bi * layout.bc() + bj].push(
                gi - layout.row_range(bi).start,
                gj - layout.col_range(bj).start,
                v.clone(),
            );
        }
    }
    let blocks: Vec<_> = per_block.into_iter().map(|c| c.into_csr::<M>()).collect();
    DistMat::from_blocks(layout, blocks)
}

/// `DistMat::to_global` as it was.
fn to_global_ref<M, T>(x: &DistMat<T>) -> Csr<T>
where
    M: Monoid<Elem = T>,
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let l = x.layout();
    let mut coo = Coo::new(x.nrows(), x.ncols());
    for (bi, bj) in l.blocks() {
        let (r0, c0) = (l.row_range(bi).start, l.col_range(bj).start);
        for (i, j, v) in x.block(bi, bj).iter() {
            coo.push(r0 + i, c0 + j, v.clone());
        }
    }
    coo.into_csr::<M>()
}

/// `0..n` cut at `parts − 1` random points: ragged, possibly empty
/// blocks.
fn ragged_ranges(rng: &mut SplitMix64, n: usize, parts: usize) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = (1..parts).map(|_| rng.below(n + 1)).collect();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(n);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// A random layout of an `nrows × ncols` matrix over `p` ranks: 1D
/// row or column splits, a 2D grid, one layer of a 3D grid, or ragged
/// cuts with arbitrary (repeating) owners.
fn layout(rng: &mut SplitMix64, nrows: usize, ncols: usize, p: usize) -> Layout {
    let world: Vec<usize> = (0..p).collect();
    match rng.below(5) {
        0 => Layout::new(nrows, ncols, even_ranges(nrows, p), vec![0..ncols], world),
        1 => Layout::new(nrows, ncols, vec![0..nrows], even_ranges(ncols, p), world),
        2 => {
            let &(g1, g2, _) = rng.pick(
                &factorizations(p)
                    .into_iter()
                    .filter(|f| f.2 == 1)
                    .collect::<Vec<_>>(),
            );
            Layout::on_grid(nrows, ncols, &Grid2::new(Group::all(p), g1, g2).unwrap())
        }
        3 => {
            let &(p1, p2, p3) = rng.pick(&factorizations(p));
            let grid = Grid3::new(Group::all(p), p1, p2, p3).unwrap();
            Layout::on_grid(nrows, ncols, &grid.layer(rng.below(p1)))
        }
        _ => {
            let (br, bc) = (rng.range(1, 4), rng.range(1, 4));
            let owners = (0..br * bc).map(|_| rng.below(p)).collect();
            let rows = ragged_ranges(rng, nrows, br);
            let cols = ragged_ranges(rng, ncols, bc);
            Layout::new(nrows, ncols, rows, cols, owners)
        }
    }
}

/// A dimension: mostly small and positive, sometimes zero.
fn dim(rng: &mut SplitMix64) -> usize {
    if rng.chance(1, 12) {
        0
    } else {
        rng.range(1, 40)
    }
}

/// A random `u64` matrix that *stores* zeros — `SumU64` identities a
/// move must drop on the way, as `Coo::into_csr::<SumU64>` did.
fn matrix(rng: &mut SplitMix64, nrows: usize, ncols: usize) -> Csr<u64> {
    let nnz = if nrows * ncols == 0 {
        0
    } else {
        rng.below(nrows * ncols / 2 + 2)
    };
    let triples = gen::coords(rng, nrows.max(1), ncols.max(1), nnz)
        .into_iter()
        .map(|(i, j)| (i, j, rng.below(4) as u64))
        .collect::<Vec<_>>();
    Coo::from_triples(nrows, ncols, triples).into_csr::<FirstWins<u64>>()
}

/// A random sub-range of `0..n`: anywhere, any length, sometimes
/// empty, so windows straddle cuts.
fn window(rng: &mut SplitMix64, n: usize) -> Range<usize> {
    let a = rng.below(n + 1);
    let b = rng.below(n + 1);
    a.min(b)..a.max(b)
}

/// A machine with random α–β and a random redistribution mode, so the
/// hybrid schedules are priced from the traffic matrix too.
fn spec(rng: &mut SplitMix64) -> MachineSpec {
    let p = *rng.pick(&gen::P_ALL);
    let modes = [
        RedistMode::Alltoall,
        RedistMode::Auto,
        RedistMode::Bcast,
        RedistMode::P2p,
    ];
    gen::machine_spec(rng, p).with_redist(*rng.pick(&modes))
}

/// `Err` naming the first block where two distributed matrices differ.
fn same_blocks<T>(what: &str, got: &DistMat<T>, want: &DistMat<T>) -> Result<(), String>
where
    T: Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    if !got.layout().same_as(want.layout()) {
        return Err(format!("{what}: layouts differ"));
    }
    got.validate().map_err(|e| format!("{what}: {e}"))?;
    for (bi, bj) in want.layout().blocks() {
        if let Some(d) = got.block(bi, bj).first_difference(want.block(bi, bj)) {
            return Err(format!("{what}: block ({bi},{bj}): {d}"));
        }
    }
    Ok(())
}

/// `Err` unless two machines' modeled state is bit-identical.
fn same_clocks(what: &str, got: &Machine, want: &Machine) -> Result<(), String> {
    let bits = |m: &Machine| {
        let ranks: Vec<_> = m
            .rank_costs()
            .into_iter()
            .map(|c| {
                (
                    c.msgs,
                    c.bytes,
                    c.comm_time.to_bits(),
                    c.comp_time.to_bits(),
                )
            })
            .collect();
        (ranks, m.makespan_s().to_bits(), m.collective_seq())
    };
    if bits(got) != bits(want) {
        return Err(format!(
            "{what}: modeled clocks differ: {:?} vs {:?}",
            got.report(),
            want.report()
        ));
    }
    Ok(())
}

/// One redistribution case: `redistribute` and a multi-window
/// `extract_windows`, each against its entry-wise body.
fn check_moves(rng: &mut SplitMix64) -> Result<(), String> {
    let spec = spec(rng);
    let p = spec.p;
    let (nrows, ncols) = (dim(rng), dim(rng));
    let src = DistMat::from_global(layout(rng, nrows, ncols, p), &matrix(rng, nrows, ncols));
    let dst = layout(rng, nrows, ncols, p);
    let specs: Vec<Spec> = (0..rng.range(1, 3))
        .map(|_| {
            let (rows, cols) = (window(rng, nrows), window(rng, ncols));
            let l = layout(rng, rows.len(), cols.len(), p);
            (rows, cols, l)
        })
        .collect();
    let fail = |e: MachineError| format!("fault-free machine failed: {e}");

    let (new, old) = (Machine::new(spec.clone()), Machine::new(spec.clone()));
    let got = redistribute::<SumU64, _>(&new, &src, &dst).map_err(fail)?;
    let (want, traffic) = redistribute_ref::<SumU64, _>(&old, &src, &dst).map_err(fail)?;
    same_blocks("redistribute", &got, &want)?;
    same_clocks("redistribute", &new, &old)?;
    if !src.layout().same_as(&dst) {
        let whole = [(0..nrows, 0..ncols, &dst)];
        let (counted, _) = redist::traffic(p, &src, &whole);
        if counted != traffic.concat() {
            return Err(format!("redistribute traffic {counted:?} vs {traffic:?}"));
        }
    }

    let (new, old) = (Machine::new(spec.clone()), Machine::new(spec));
    let got = extract_windows::<SumU64, _>(&new, &src, &specs).map_err(fail)?;
    let (want, traffic) = extract_windows_ref::<SumU64, _>(&old, &src, &specs).map_err(fail)?;
    for (w, (g, r)) in got.iter().zip(&want).enumerate() {
        same_blocks(
            &format!("window {w} {:?}", (&specs[w].0, &specs[w].1)),
            g,
            r,
        )?;
    }
    same_clocks("windows", &new, &old)?;
    let (counted, _) = redist::traffic(p, &src, &specs);
    if counted != traffic.concat() {
        return Err(format!("windows traffic {counted:?} vs {traffic:?}"));
    }
    Ok(())
}

/// One assembly case: disjoint pieces on a ragged grid (some cells
/// missing, some pieces empty) into the canonical layout, and the
/// result gathered back with `to_global`.
fn check_assembly(rng: &mut SplitMix64) -> Result<(), String> {
    let m = Machine::new(spec(rng));
    let (nrows, ncols) = (dim(rng), dim(rng));
    let (br, bc) = (rng.range(1, 5), rng.range(1, 5));
    let (rows, cols) = (ragged_ranges(rng, nrows, br), ragged_ranges(rng, ncols, bc));
    let mut pieces: Vec<Piece<u64>> = Vec::new();
    for r in &rows {
        for c in &cols {
            if rng.chance(3, 4) {
                pieces.push((
                    r.start,
                    c.start,
                    pieces.len(),
                    matrix(rng, r.len(), c.len()),
                ));
            }
        }
    }
    let got = assemble_canonical::<SumU64, _>(&m, nrows, ncols, pieces.clone());
    let want = assemble_canonical_ref::<SumU64, _>(&m, nrows, ncols, pieces);
    same_blocks("assemble_canonical", &got, &want)?;
    let (got, want) = (got.to_global::<SumU64>(), to_global_ref::<SumU64, _>(&want));
    match got.first_difference(&want) {
        Some(d) => Err(format!("to_global: {d}")),
        None => Ok(()),
    }
}

#[test]
fn slab_moves_match_entrywise() {
    property("slab_moves_match_entrywise", 200, |rng| {
        check_moves(rng).unwrap_or_else(|e| panic!("{e}"))
    });
}

#[test]
fn slab_assembly_matches_entrywise() {
    property("slab_assembly_matches_entrywise", 200, |rng| {
        check_assembly(rng).unwrap_or_else(|e| panic!("{e}"))
    });
}
