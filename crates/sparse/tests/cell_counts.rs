//! Per-cell counts of the landing kernels: a product into panes side
//! by side, its rows cut into row cells and its right operand into
//! column slabs ([`Slabs`]), reports per cell `(ops, formed)` equal to
//! the standalone product of the cell's rows by its slab — `spgemm_opt`
//! on a `slice`, under the mask's window of the cell. Covered:
//! `spgemm_accumulate_panes`, `spgemm_settle_panes` and
//! `count_children_panes` at 1, 2, 3, 4, 7 and 16 slabs (empty ones
//! among them, cuts that do not meet the panes'), unmasked and under
//! structural and complement masks, products that `mul` annihilates,
//! sums that cancel to the monoid's identity, and pools of 1, 2 and 4
//! threads over enough rows that the parallel path runs. What lands is
//! the same as under one slab.

use mfbc_algebra::kernel::BrandesKernel;
use mfbc_algebra::monoid::{CommutativeMonoid, MinDist, Monoid};
use mfbc_algebra::{Centpath, Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;
use mfbc_sparse::slice::slice;
use mfbc_sparse::spgemm::opened;
use mfbc_sparse::{
    count_children_panes, spgemm_accumulate_panes, spgemm_opt, spgemm_settle_panes, Coo, Csr,
    Landed, Mask, MaskKind, Pane, Slabs, Table,
};
use std::cell::Cell;
use std::ops::Range;

/// `i64` under `+`: products of opposite signs cancel to the identity.
#[derive(Clone, Copy, Debug, Default)]
struct Sum;

impl Monoid for Sum {
    type Elem = i64;

    fn combine(a: &i64, b: &i64) -> i64 {
        a + b
    }

    fn identity() -> i64 {
        0
    }
}

impl CommutativeMonoid for Sum {}

/// A right entry that annihilates every product it is in.
const INF: i64 = i64::MAX;

/// `a · b`, or nothing where `b` is [`INF`].
#[derive(Clone, Copy, Debug, Default)]
struct Signed;

impl SpMulKernel for Signed {
    type Left = i64;
    type Right = i64;
    type Acc = Sum;

    fn mul(a: &i64, b: &i64) -> Option<i64> {
        (*b != INF).then(|| a * b)
    }
}

/// An `n × m` matrix holding each entry with chance `num / den`, valued
/// by `val`.
fn sparse<M: Monoid>(
    rng: &mut SplitMix64,
    (n, m): (usize, usize),
    (num, den): (u64, u64),
    mut val: impl FnMut(&mut SplitMix64) -> M::Elem,
) -> Csr<M::Elem> {
    let mut coo = Coo::new(n, m);
    for i in 0..n {
        for j in 0..m {
            if rng.chance(num, den) {
                let v = val(rng);
                coo.push(i, j, v);
            }
        }
    }
    coo.into_csr::<M>()
}

/// `k` cuts of `0..n` into ascending pieces (empty ones likely), as
/// where pieces `1..=k` start.
fn cuts(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..k).map(|_| rng.range(0, n)).collect();
    cuts.sort_unstable();
    cuts
}

/// The pieces `cuts` leave of `0..n`.
fn pieces(cuts: &[usize], n: usize) -> Vec<Range<usize>> {
    let ends = cuts.iter().copied().chain([n]);
    let starts = std::iter::once(0).chain(cuts.iter().copied());
    starts.zip(ends).map(|(s, e)| s..e).collect()
}

/// One case's shape: `a` is `n × k`, `b` is `k × m`; `cells` cut the
/// rows (band-relative, from 0 to `n`), `slabs` where `b`'s slabs start
/// and `panes` the columns among the tables.
struct Case {
    a: Csr<i64>,
    b: Csr<i64>,
    cells: Vec<usize>,
    slabs: Vec<usize>,
    panes: Vec<Range<usize>>,
}

/// A case with `slabs` slabs over `m` output columns.
fn case(rng: &mut SplitMix64, slabs: usize) -> Case {
    let (n, k, m) = (rng.range(32, 48), rng.range(4, 12), rng.range(12, 40));
    let a = sparse::<Sum>(rng, (n, k), (1, 3), |r| *r.pick(&[-1i64, 1, 2]));
    let b = sparse::<Sum>(rng, (k, m), (1, 3), |r| *r.pick(&[-1i64, 1, 1, INF]));
    let k = rng.range(0, 2);
    let mut cells = cuts(rng, n, k);
    cells.insert(0, 0);
    cells.push(n);
    Case {
        a,
        b,
        cells,
        slabs: cuts(rng, m, slabs - 1),
        panes: {
            let k = rng.range(0, 2);
            pieces(&cuts(rng, m, k), m)
        },
    }
}

/// Per cell `(c, s)` at `c * slabs + s`: `(ops, nnz)` of the product of
/// the cell's rows of `a` by slab `s` of `b`, under `mask`'s window.
fn standalone<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    cells: &[usize],
    slabs: &[usize],
    mask: Option<&Mask>,
) -> Vec<(u64, u64)> {
    let mut want = Vec::new();
    for rows in cells.windows(2).map(|w| w[0]..w[1]) {
        for cols in pieces(slabs, b.ncols()) {
            let ac = slice(a, rows.clone(), 0..a.ncols());
            let bs = slice(b, 0..b.nrows(), cols.clone());
            let w = mask.map(|mk| mk.window(rows.clone(), cols));
            let out = spgemm_opt::<K>(&ac, &bs, w.as_ref());
            want.push((out.ops, out.mat.nnz() as u64));
        }
    }
    want
}

/// Every coordinate `m` stores.
fn coords<T>(m: &Csr<T>) -> Vec<(usize, usize)> {
    (0..m.nrows())
        .flat_map(|i| m.row_cols(i).iter().map(move |&j| (i, j as usize)))
        .collect()
}

/// What one pane of a landing emitted, took in and left pending.
type Emitted<T> = (Csr<T>, usize, Option<Vec<Vec<u32>>>);

/// What the panes of a landing emitted and took in, for comparing two
/// runs.
fn emitted<T: Clone>(landed: &[Landed<T>]) -> Vec<Emitted<T>> {
    let one = |l: &Landed<T>| (l.out.clone(), l.received, l.pending.clone());
    landed.iter().map(one).collect()
}

/// The per-cell counts of a one-slab run, summed per row cell of a
/// run over `slabs` slabs.
fn per_row_cell(cells: &[(u64, u64)], slabs: usize) -> Vec<(u64, u64)> {
    let sum = |c: &[(u64, u64)]| c.iter().fold((0, 0), |s, x| (s.0 + x.0, s.1 + x.1));
    cells.chunks(slabs).map(sum).collect()
}

const SLABS: [usize; 6] = [1, 2, 3, 4, 7, 16];
const POOLS: [usize; 3] = [1, 2, 4];

#[test]
fn accumulate_counts_each_cell_as_its_standalone_product() {
    property("cells_accumulate", 24, |rng| {
        let slabs = *rng.pick(&SLABS);
        let Case {
            a,
            b,
            cells,
            slabs: cut,
            panes,
        } = case(rng, slabs);
        let track = rng.chance(1, 2);
        let seed = sparse::<Sum>(rng, (a.nrows(), b.ncols()), (1, 4), |r| {
            *r.pick(&[100i64, 301])
        });
        let mask = track.then(|| {
            Mask::from_coords(
                MaskKind::Complement,
                seed.nrows(),
                seed.ncols(),
                &coords(&seed),
            )
        });
        let want = standalone::<Signed>(&a, &b, &cells, &cut, mask.as_ref());
        let run = |b: Slabs<'_, i64>| {
            let mut tables: Vec<Table<i64>> = panes
                .iter()
                .map(|cols| Table::from_csr(&slice(&seed, 0..seed.nrows(), cols.clone()), track))
                .collect();
            let mut ps: Vec<Pane<'_, i64>> = tables.iter_mut().map(Pane::whole).collect();
            let keep = |g: &i64, _: Option<&i64>, t: &i64| (t % 2 != 0).then_some(*g);
            let (landed, got) = spgemm_accumulate_panes::<Signed>(&a, b, &cells, &mut ps, keep);
            let frozen: Vec<_> = tables.into_iter().map(Table::freeze).collect();
            (emitted(&landed), frozen, got)
        };
        for threads in POOLS {
            let (out, frozen, got) =
                mfbc_parallel::with_threads(threads, || run(Slabs::new(&b, &cut)));
            assert_eq!(
                got, want,
                "{slabs} slabs, tracked {track}, {threads} threads"
            );
            let (one_out, one_frozen, one) =
                mfbc_parallel::with_threads(threads, || run(Slabs::whole(&b)));
            assert_eq!((out, frozen), (one_out, one_frozen), "what lands");
            assert_eq!(one, per_row_cell(&got, slabs), "one slab");
        }
    });
}

#[test]
fn settle_counts_each_cell_as_its_standalone_product() {
    property("cells_settle", 24, |rng| {
        let slabs = *rng.pick(&SLABS);
        let Case {
            a,
            b,
            cells,
            slabs: cut,
            panes,
        } = case(rng, slabs);
        let side = sparse::<Sum>(rng, (a.nrows(), b.ncols()), (1, 2), |r| *r.pick(&[1i64, 2]));
        let pattern = sparse::<Sum>(rng, (a.nrows(), b.ncols()), (1, 2), |_| 1);
        let within = match rng.below(3) {
            0 => None,
            1 => Some(MaskKind::Structural),
            _ => Some(MaskKind::Complement),
        }
        .map(|kind| Mask::from_coords(kind, a.nrows(), b.ncols(), &coords(&pattern)));
        let want = standalone::<Signed>(&a, &b, &cells, &cut, within.as_ref());
        let sides: Vec<Csr<i64>> = panes
            .iter()
            .map(|cols| slice(&side, 0..side.nrows(), cols.clone()))
            .collect();
        let sides: Vec<&Csr<i64>> = sides.iter().collect();
        let run = |b: Slabs<'_, i64>| {
            let mut tables: Vec<Table<i64>> =
                sides.iter().map(|s| Table::on_pattern(s, |_| 1)).collect();
            let mut ps: Vec<Pane<'_, i64>> = tables.iter_mut().map(Pane::whole).collect();
            let fire = |z: &mut i64, s: &i64| (*z > *s).then_some(*z);
            let w = within.as_ref();
            let (landed, got) =
                spgemm_settle_panes::<Signed, i64>(&a, b, &cells, w, &mut ps, &sides, fire);
            let frozen: Vec<_> = tables.into_iter().map(Table::freeze).collect();
            (emitted(&landed), frozen, got)
        };
        for threads in POOLS {
            let kind = within.as_ref().map(Mask::kind);
            let (out, frozen, got) =
                mfbc_parallel::with_threads(threads, || run(Slabs::new(&b, &cut)));
            assert_eq!(got, want, "{slabs} slabs, {kind:?}, {threads} threads");
            let (one_out, one_frozen, one) =
                mfbc_parallel::with_threads(threads, || run(Slabs::whole(&b)));
            assert_eq!((out, frozen), (one_out, one_frozen), "what lands");
            assert_eq!(one, per_row_cell(&got, slabs), "one slab");
        }
    });
}

#[test]
fn count_counts_each_cell_as_its_standalone_product() {
    property("cells_count", 24, |rng| {
        let slabs = *rng.pick(&SLABS);
        let (n, m) = (rng.range(32, 48), rng.range(12, 40));
        let dist = |r: &mut SplitMix64| Dist::new(r.range(1, 4) as u64);
        // Seeds `τ(s,w)`; `Aᵀ` with infinite entries, which form nothing.
        let left = sparse::<MinDist>(rng, (n, m), (1, 3), |r| Dist::new(r.range(2, 6) as u64));
        let at = sparse::<MinDist>(rng, (m, m), (1, 3), |r| match r.chance(1, 5) {
            true => Dist::INF,
            false => dist(r),
        });
        let t = sparse::<MultpathMonoid>(rng, (n, m), (1, 3), |r| {
            Multpath::new(Dist::new(r.range(1, 5) as u64), 1.0)
        });
        let k = rng.range(0, 2);
        let mut cells = cuts(rng, n, k);
        cells.insert(0, 0);
        cells.push(n);
        let cut = cuts(rng, m, slabs - 1);
        let k = rng.range(0, 2);
        let panes = pieces(&cuts(rng, m, k), m);
        let masked = rng.chance(1, 2);
        let mask = masked.then(|| Mask::from_coords(MaskKind::Structural, n, m, &coords(&t)));
        let seeds = left.map(|_, _, w| Centpath::new(*w, 0.0, 1));
        let want = standalone::<BrandesKernel>(&seeds, &at, &cells, &cut, mask.as_ref());
        let sides: Vec<Csr<Multpath>> = panes
            .iter()
            .map(|cols| slice(&t, 0..n, cols.clone()))
            .collect();
        let sides: Vec<&Csr<Multpath>> = sides.iter().collect();
        let run = |at: Slabs<'_, Dist>| {
            let mut tables: Vec<Table<Centpath>> =
                sides.iter().map(|s| Table::on_pattern(s, opened)).collect();
            let mut ps: Vec<Pane<'_, Centpath>> = tables.iter_mut().map(Pane::whole).collect();
            let tau = |w: &Dist| *w;
            let fire = |_: &mut Centpath, _: &Multpath| None;
            let (landed, got) =
                count_children_panes(&left, tau, at, &cells, &mut ps, &sides, masked, fire);
            let frozen: Vec<_> = tables.into_iter().map(Table::freeze).collect();
            (emitted(&landed), frozen, got)
        };
        for threads in POOLS {
            let (out, frozen, got) =
                mfbc_parallel::with_threads(threads, || run(Slabs::new(&at, &cut)));
            assert_eq!(
                got, want,
                "{slabs} slabs, masked {masked}, {threads} threads"
            );
            let (one_out, one_frozen, one) =
                mfbc_parallel::with_threads(threads, || run(Slabs::whole(&at)));
            assert_eq!((out, frozen), (one_out, one_frozen), "what lands");
            assert_eq!(one, per_row_cell(&got, slabs), "one slab");
        }
    });
}

#[test]
fn cancelling_sums_and_annihilated_products_occur() {
    // The cases above draw what the counts must get right: sums that
    // cancel to the identity (counted, not delivered) and products
    // `mul` annihilates (neither).
    let (cancelled, annihilated) = (Cell::new(0), Cell::new(0));
    property("cells_occur", 24, |rng| {
        let Case { a, b, .. } = case(rng, 4);
        for i in 0..a.nrows() {
            let mut sums = vec![(0i64, 0u32); b.ncols()];
            for (k, av) in a.row(i) {
                for (j, bv) in b.row(k) {
                    match Signed::mul(av, bv) {
                        Some(c) => sums[j] = (sums[j].0 + c, sums[j].1 + 1),
                        None => annihilated.set(annihilated.get() + 1),
                    }
                }
            }
            let zero = sums.iter().filter(|&&(s, n)| s == 0 && n > 0).count();
            cancelled.set(cancelled.get() + zero);
        }
    });
    let (cancelled, annihilated) = (cancelled.get(), annihilated.get());
    assert!(
        cancelled > 0 && annihilated > 0,
        "{cancelled} cancelled, {annihilated} annihilated"
    );
}
