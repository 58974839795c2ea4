//! The fused in-place superstep bodies equal the whole-table
//! compositions they replace: `Table::accumulate` + `freeze` against
//! `combine` + `zip_filter` (Algorithm 1, lines 5–6), and `settle`
//! against `combine_anchored` + a fire zip + a pin map (Algorithm 2,
//! lines 8–11) — chained over seeded random supersteps, compared
//! entry for entry with `Csr::first_difference`.

use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid};
use mfbc_sparse::elementwise::{combine, combine_anchored, map_filter, settle, zip_filter};
use mfbc_sparse::{Coo, Csr, Mask, MaskKind, Table};
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
            let want =
                zip_filter::<MultpathMonoid, _, _, _>(&g, &t_new, |_, _, gv, tv| keep(gv, tv));
            inserted += t_new.nnz() - composed.nnz();
            combined += g.nnz() - (t_new.nnz() - composed.nnz());
            dropped += g.nnz() - want.nnz();
            composed = t_new;

            let got = table.accumulate::<MultpathMonoid>(&g, |gv, tv| keep(gv, Some(tv)));
            assert_eq!(
                got.first_difference(&want),
                None,
                "seed {seed} step {step}: frontier"
            );
            assert_eq!(table.nnz(), composed.nnz(), "seed {seed} step {step}");
            if track {
                // The pattern read off the table is the mask the
                // whole-table path derives from T.
                let rows = (0..ROWS).map(|i| table.pattern_row(i).iter().copied());
                assert_eq!(
                    Mask::from_sorted_rows(MaskKind::Complement, ROWS, COLS, rows),
                    Mask::complement_of(&composed),
                    "seed {seed} step {step}: mask"
                );
            }
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

#[test]
fn settle_equals_combine_anchored_then_fire_then_pin() {
    for seed in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
        // T: multiplicities on a random pattern; Z: (τ, 0, children)
        // on the same pattern, as MFBr's anchor pass leaves it.
        let t = explored(&mut rng, 200);
        let mut composed = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, rng.gen_range(0..3)));
        let pin = |z: &Csr<Centpath>| {
            map_filter::<CentpathMonoid, _, _>(z, |_, _, zv| {
                Some(Centpath::new(zv.w, zv.p, if zv.c == 0 { -1 } else { zv.c }))
            })
        };
        // The leaf pass: afterwards no entry holds counter 0.
        composed = pin(&composed);
        let mut fused = composed.clone();
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

            let got = settle::<CentpathMonoid, _>(&mut fused, &back, &t, |zv, tv| {
                let f = fire(zv, tv.m)?;
                zv.c = -1;
                Some(f)
            });
            assert_eq!(
                got.first_difference(&want),
                None,
                "seed {seed} step {step}: frontier"
            );
            assert_eq!(
                fused.first_difference(&composed),
                None,
                "seed {seed} step {step}: Z"
            );
            for (i, j, _) in got.iter() {
                assert!(
                    fired_at.insert((i, j)),
                    "seed {seed}: ({i},{j}) fired twice"
                );
            }
        }
        assert!(
            !fired_at.is_empty() && outside > 0 && repinned > 0,
            "seed {seed}: chain must fire, miss Z's pattern and revisit pinned entries"
        );
    }
}
