//! The fused in-place superstep bodies equal the whole-table
//! compositions they replace: `Table::accumulate` + `freeze` against
//! `combine` + `zip_filter` (Algorithm 1, lines 5–6), `Table::anchor`
//! against two zips and a pin map (Algorithm 2, lines 1–4), and
//! `Table::settle` against `combine_anchored` + a fire zip + a pin map
//! (lines 8–11) with the pending set its frontier leaves recomputed
//! from scratch — chained over seeded random supersteps, compared
//! entry for entry with `Csr::first_difference`; the mask a tracked
//! table reports against the one the composition derives, and none
//! from an untracked table.

use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid};
use mfbc_sparse::elementwise::{combine, combine_anchored, map_filter, zip_filter};
use mfbc_sparse::{Coo, Csr, Idx, Mask, MaskKind, SortedRows, Table};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ROWS: usize = 12;
const COLS: usize = 40;

/// MFBF's frontier rule (`mfbc_core::sweep::mfbf_keep_in_frontier`).
fn keep(g: &Multpath, t_new: Option<&Multpath>) -> Option<Multpath> {
    match t_new {
        Some(t) if g.is_path() && g.w == t.w => Some(*g),
        _ => None,
    }
}

/// [`keep`], with the table entry as it stood before the fold carried
/// into what it emits: the fused path must hand that entry over.
fn keep_seeing(
    g: &Multpath,
    before: Option<&Multpath>,
    t_new: Option<&Multpath>,
) -> Option<Multpath> {
    let kept = keep(g, t_new)?;
    Some(Multpath::new(kept.w, kept.m + before.map_or(0.5, |b| b.m)))
}

/// MFBr's frontier rule (`mfbc_core::sweep::mfbr_fire`).
fn fire(z: &Centpath, sigma: f64) -> Option<Centpath> {
    (z.c == 0).then(|| Centpath::new(z.w, z.p + 1.0 / sigma, -1))
}

/// A random multpath matrix over a narrow weight range — so a chain of
/// them rediscovers coordinates lighter, tied and heavier — that
/// leaves a random half of the rows empty.
fn explored(rng: &mut ChaCha8Rng, nnz: usize) -> Csr<Multpath> {
    let live: Vec<usize> = (0..ROWS).filter(|_| rng.gen_bool(0.5)).collect();
    let mut coo = Coo::new(ROWS, COLS);
    for _ in 0..if live.is_empty() { 0 } else { nnz } {
        let i = live[rng.gen_range(0..live.len())];
        let w = Dist::new(rng.gen_range(1..6u64));
        let m = f64::from(rng.gen_range(1..4u32));
        coo.push(i, rng.gen_range(0..COLS), Multpath::new(w, m));
    }
    coo.into_csr::<MultpathMonoid>()
}

#[test]
fn accumulate_then_freeze_equals_combine_then_zip_filter() {
    for seed in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let track = seed % 2 == 0;
        let mut composed = explored(&mut rng, 30);
        let mut table = Table::from_csr(&composed, track);
        let (mut inserted, mut combined, mut dropped) = (0, 0, 0);
        for step in 0..12 {
            // Every fourth superstep explores nothing.
            let g = explored(&mut rng, if step % 4 == 3 { 0 } else { 60 });
            let t_new = combine::<MultpathMonoid, _>(&composed, &g);
            let want = zip_filter::<MultpathMonoid, _, _, _>(&g, &t_new, |i, j, gv, tv| {
                keep_seeing(gv, composed.get(i, j), tv)
            });
            inserted += t_new.nnz() - composed.nnz();
            combined += g.nnz() - (t_new.nnz() - composed.nnz());
            dropped += g.nnz() - want.nnz();
            composed = t_new;

            let got = table.accumulate::<MultpathMonoid>(&g, |gv, before, tv| {
                keep_seeing(gv, before, Some(tv))
            });
            assert_eq!(
                got.first_difference(&want),
                None,
                "seed {seed} step {step}: frontier"
            );
            assert_eq!(table.nnz(), composed.nnz(), "seed {seed} step {step}");
            // The mask read off the table is the one the whole-table
            // path derives from T.
            assert_eq!(
                table.mask(),
                track.then(|| Mask::complement_of(&composed)),
                "seed {seed} step {step}: mask"
            );
        }
        assert_eq!(
            table.freeze().first_difference(&composed),
            None,
            "seed {seed}: table"
        );
        assert!(
            inserted > 0 && combined > 0 && dropped > 0,
            "seed {seed}: chain must insert, collide and filter"
        );
    }
}

/// The entries still waiting on a child, read off `z` itself.
fn pending_of(z: &Csr<Centpath>) -> SortedRows {
    let waits = |i: usize| {
        let row = z.row(i).filter(|(_, zv)| zv.c > 0);
        row.map(|(j, _)| j as Idx).collect::<Vec<Idx>>()
    };
    SortedRows::from_rows(COLS, (0..ROWS).map(waits))
}

/// `settle`'s hook in MFBr: fire at counter zero, and pin.
fn fire_and_pin(zv: &mut Centpath, tv: &Multpath) -> Option<Centpath> {
    let f = fire(zv, tv.m)?;
    zv.c = -1;
    Some(f)
}

#[test]
fn anchor_equals_anchor_zip_then_leaf_zip_then_pin() {
    for seed in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(2000 + seed);
        let t = explored(&mut rng, 200);
        // Child counts at a random half of T's coordinates (some at a
        // foreign weight, which the anchor discards) and outside it.
        let mut coo = Coo::new(ROWS, COLS);
        for (i, j, mp) in t.iter() {
            if rng.gen_bool(0.5) {
                let w = if rng.gen_bool(0.8) {
                    mp.w
                } else {
                    Dist::new(9)
                };
                coo.push(i, j, Centpath::new(w, 0.0, rng.gen_range(1..3)));
            }
        }
        for _ in 0..20 {
            let at = (rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
            coo.push(at.0, at.1, Centpath::new(Dist::new(1), 0.0, 1));
        }
        let counted = coo.into_csr::<CentpathMonoid>();
        let init = |mp: &Multpath, d: Option<&Centpath>| {
            Centpath::new(mp.w, 0.0, d.filter(|c| c.w == mp.w).map_or(0, |c| c.c))
        };

        let z0 =
            zip_filter::<CentpathMonoid, _, _, _>(&t, &counted, |_, _, mp, d| Some(init(mp, d)));
        let leaves = zip_filter::<CentpathMonoid, _, _, _>(&z0, &t, |_, _, zv, tv| {
            fire(zv, tv.expect("Z pattern ⊆ T pattern").m)
        });
        let pinned = map_filter::<CentpathMonoid, _, _>(&z0, |_, _, zv| {
            Some(Centpath::new(zv.w, zv.p, if zv.c == 0 { -1 } else { zv.c }))
        });
        assert!(
            leaves.nnz() > 0 && leaves.nnz() < z0.nnz(),
            "seed {seed}: some entries must fire and some wait"
        );

        for track in [false, true] {
            let (z, front) =
                Table::anchor::<CentpathMonoid, _>(&t, &counted, init, fire_and_pin, track);
            let pending = pending_of(&pinned);
            let want = track.then(|| Mask::over_rows(MaskKind::Structural, &pending));
            assert_eq!(z.mask(), want, "seed {seed}: pending");
            assert_eq!(z.freeze().first_difference(&pinned), None, "seed {seed}: Z");
            assert_eq!(front.first_difference(&leaves), None, "seed {seed}: leaves");
        }
    }
}

#[test]
fn settle_equals_combine_anchored_then_fire_then_pin() {
    for seed in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
        // T: multiplicities on a random pattern; Z: (τ, 0, children)
        // on the same pattern, as MFBr's anchor pass leaves it.
        let t = explored(&mut rng, 200);
        let counted = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, rng.gen_range(0..3)));
        let pin = |z: &Csr<Centpath>| {
            map_filter::<CentpathMonoid, _, _>(z, |_, _, zv| {
                Some(Centpath::new(zv.w, zv.p, if zv.c == 0 { -1 } else { zv.c }))
            })
        };
        // The leaf pass: afterwards no entry holds counter 0, and the
        // tracked table reports the rest as pending.
        let mut composed = pin(&counted);
        // (Every entry is opened before its count is found.)
        let as_counted =
            |mp: &Multpath, d: Option<&Centpath>| d.map_or(Centpath::new(mp.w, 0.0, 1), |c| *c);
        let (mut fused, _) =
            Table::anchor::<CentpathMonoid, _>(&t, &counted, as_counted, fire_and_pin, true);
        let waiting = pending_of(&composed);
        let mut fired_at = std::collections::BTreeSet::new();
        let (mut outside, mut repinned) = (0, 0);
        for step in 0..12 {
            // Back-propagated entries: c = −1, weights tying with,
            // below and above the anchor, some outside Z's pattern.
            let mut coo = Coo::new(ROWS, COLS);
            for _ in 0..if step % 4 == 3 { 0 } else { 50 } {
                let (i, j) = (rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
                let w = match composed.get(i, j) {
                    Some(zv) if rng.gen_bool(0.8) => zv.w,
                    _ => Dist::new(rng.gen_range(1..6u64)),
                };
                outside += usize::from(composed.get(i, j).is_none());
                repinned += usize::from(composed.get(i, j).is_some_and(|zv| zv.c < 0));
                coo.push(i, j, Centpath::new(w, rng.gen::<f64>(), -1));
            }
            let back = coo.into_csr::<CentpathMonoid>();

            let merged = combine_anchored::<CentpathMonoid, _>(&composed, &back);
            let want = zip_filter::<CentpathMonoid, _, _, _>(&merged, &t, |_, _, zv, tv| {
                fire(zv, tv.expect("Z pattern ⊆ T pattern").m)
            });
            composed = pin(&merged);

            // What fires leaves the pending set — all of it still
            // there, or `settle` panics.
            let got = fused.settle::<CentpathMonoid, _>(&back, &t, fire_and_pin);
            assert_eq!(
                got.first_difference(&want),
                None,
                "seed {seed} step {step}: frontier"
            );
            assert_eq!(
                fused.clone().freeze().first_difference(&composed),
                None,
                "seed {seed} step {step}: Z"
            );
            for (i, j, _) in got.iter() {
                assert!(
                    fired_at.insert((i, j)),
                    "seed {seed}: ({i},{j}) fired twice"
                );
            }
            // Pending is what waited at the start and has not fired (a
            // heavier update can also overwrite a counter here, which
            // MFBr's never do).
            let unfired = |i: usize| {
                let row = waiting.row(i).iter().copied();
                row.filter(|&j| !fired_at.contains(&(i, j as usize)))
                    .collect::<Vec<Idx>>()
            };
            let want = SortedRows::from_rows(COLS, (0..ROWS).map(unfired));
            assert_eq!(
                fused.mask(),
                Some(Mask::over_rows(MaskKind::Structural, &want)),
                "seed {seed} step {step}: pending"
            );
        }
        assert!(
            !fired_at.is_empty() && outside > 0 && repinned > 0,
            "seed {seed}: chain must fire, miss Z's pattern and revisit pinned entries"
        );
    }
}

#[test]
fn an_untracked_table_reports_no_mask() {
    use mfbc_algebra::kernel::BrandesKernel;
    use mfbc_algebra::monoid::MinDist;
    use mfbc_sparse::spgemm::opened;
    use mfbc_sparse::{count_children_panes, spgemm_settle_panes, Pane, Slabs};
    let mut rng = ChaCha8Rng::seed_from_u64(3000);
    // Growing: opened, accumulated into, frozen.
    let seed = explored(&mut rng, 30);
    let mut table = Table::from_csr(&seed, false);
    assert_eq!(table.mask(), None, "opened");
    let kept =
        table.accumulate::<MultpathMonoid>(&explored(&mut rng, 60), |gv, _, tv| keep(gv, Some(tv)));
    assert!(
        kept.nnz() > 0 && table.nnz() > seed.nnz(),
        "the table must grow"
    );
    assert_eq!(table.mask(), None, "accumulated");
    let t = table.freeze();

    // Settling, from a matrix and from the product's accumulator.
    let mut coo = Coo::new(COLS, COLS);
    for _ in 0..4 * COLS {
        coo.push(rng.gen_range(0..COLS), rng.gen_range(0..COLS), Dist::new(1));
    }
    let adj = coo.into_csr::<MinDist>();
    let seeds = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, 1));
    let init = |mp: &Multpath, d: Option<&Centpath>| {
        Centpath::new(mp.w, 0.0, d.filter(|c| c.w == mp.w).map_or(0, |c| c.c))
    };
    let (mut z_mat, leaves) =
        Table::anchor::<CentpathMonoid, _>(&t, &seeds, init, fire_and_pin, false);
    // The count and the settle over one whole pane, as one rank runs
    // them.
    let mut z_sink = Table::on_pattern(&t, opened);
    let (counted, _) = count_children_panes(
        &t,
        |mp: &Multpath| mp.w,
        Slabs::whole(&adj),
        &[0, t.nrows()],
        &mut [Pane::whole(&mut z_sink)],
        &[&t],
        false,
        fire_and_pin,
    );
    let fed = counted.into_iter().next().expect("one pane");
    z_sink.pend(fed.pending);
    assert_eq!((z_mat.mask(), z_sink.mask()), (None, None), "anchored");
    let fired = z_mat.settle::<CentpathMonoid, _>(&leaves, &t, fire_and_pin);
    let (settled, _) = spgemm_settle_panes::<BrandesKernel, _>(
        &fed.out,
        Slabs::whole(&adj),
        &[0, fed.out.nrows()],
        None,
        &mut [Pane::whole(&mut z_sink)],
        &[&t],
        fire_and_pin,
    );
    let out = &settled[0].out;
    assert!(leaves.nnz() + fed.out.nnz() > 0 && fired.nnz() + out.nnz() > 0);
    assert_eq!((z_mat.mask(), z_sink.mask()), (None, None), "settled");
    assert_eq!(z_mat.freeze().nnz() + z_sink.freeze().nnz(), 2 * t.nnz());
}
