//! Every distributed multiplication plan must produce exactly the
//! sequential generalized SpGEMM result — the central correctness
//! property of the CTF-analogue layer. Exercised for the tropical
//! kernel (square operands) and the Bellman–Ford multpath kernel
//! (rectangular frontier × adjacency), across machine sizes and every
//! candidate plan the autotuner can emit.

use mfbc_algebra::kernel::{BellmanFordKernel, TropicalKernel};
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid};
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{spgemm_serial, Coo, Csr};
use mfbc_tensor::autotune::{candidate_plans, mm_auto};
use mfbc_tensor::{canonical_layout, mm_exec, mm_exec_masked, DistMat};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_dist_mat(rng: &mut ChaCha8Rng, nrows: usize, ncols: usize, nnz: usize) -> Csr<Dist> {
    let mut coo = Coo::new(nrows, ncols);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..nrows),
            rng.gen_range(0..ncols),
            Dist::new(rng.gen_range(1..50)),
        );
    }
    coo.into_csr::<MinDist>()
}

fn random_frontier(rng: &mut ChaCha8Rng, nrows: usize, ncols: usize, nnz: usize) -> Csr<Multpath> {
    let mut coo = Coo::new(nrows, ncols);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..nrows),
            rng.gen_range(0..ncols),
            Multpath::new(
                Dist::new(rng.gen_range(0..40)),
                f64::from(rng.gen_range(1u32..4)),
            ),
        );
    }
    coo.into_csr::<MultpathMonoid>()
}

#[test]
fn every_plan_matches_serial_tropical() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let n = 37; // deliberately not divisible by typical grids
    let a = random_dist_mat(&mut rng, n, n, 140);
    let b = random_dist_mat(&mut rng, n, n, 170);
    let expected = spgemm_serial::<TropicalKernel>(&a, &b);

    for p in [1usize, 2, 4, 6, 8, 12] {
        let m = Machine::new(MachineSpec::test(p));
        let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
        let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
        for plan in candidate_plans(p) {
            let out = mm_exec::<TropicalKernel>(&m, &plan, &da, &db)
                .unwrap_or_else(|e| panic!("p={p} plan={plan:?}: {e}"));
            let got = out.c.to_global::<MinDist>();
            assert_eq!(got, expected.mat, "mismatch for p={p}, plan={plan:?}");
            assert_eq!(
                out.ops, expected.ops,
                "ops mismatch for p={p}, plan={plan:?}"
            );
        }
    }
}

#[test]
fn every_plan_matches_serial_multpath_rectangular() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let (nb, n) = (5, 41);
    let f = random_frontier(&mut rng, nb, n, 60);
    let a = random_dist_mat(&mut rng, n, n, 200);
    let expected = spgemm_serial::<BellmanFordKernel>(&f, &a);

    for p in [1usize, 4, 9] {
        let m = Machine::new(MachineSpec::test(p));
        let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
        let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
        for plan in candidate_plans(p) {
            let out = mm_exec::<BellmanFordKernel>(&m, &plan, &df, &da)
                .unwrap_or_else(|e| panic!("p={p} plan={plan:?}: {e}"));
            let got = out.c.to_global::<MultpathMonoid>();
            assert_eq!(got, expected.mat, "mismatch for p={p}, plan={plan:?}");
        }
    }
}

#[test]
fn autotuned_mm_matches_serial_and_charges_costs() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let n = 64;
    let a = random_dist_mat(&mut rng, n, n, 500);
    let b = random_dist_mat(&mut rng, n, n, 500);
    let expected = spgemm_serial::<TropicalKernel>(&a, &b).mat;

    let m = Machine::new(MachineSpec::gemini(8));
    let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
    let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
    let (out, plan) = mm_auto::<TropicalKernel>(&m, &da, &db).unwrap();
    assert_eq!(out.c.to_global::<MinDist>(), expected);
    let report = m.report();
    assert!(
        report.critical.comm_time > 0.0,
        "plan {plan:?} charged no comm"
    );
    assert!(report.critical.comp_time > 0.0);
    assert!(report.total_ops > 0);
}

#[test]
fn empty_operands_work_under_all_plans() {
    let n = 16;
    let a = Csr::<Dist>::zero(n, n);
    let b = Csr::<Dist>::zero(n, n);
    let m = Machine::new(MachineSpec::test(4));
    let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
    let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
    for plan in candidate_plans(4) {
        let out = mm_exec::<TropicalKernel>(&m, &plan, &da, &db).unwrap();
        assert_eq!(out.c.nnz(), 0, "plan {plan:?}");
        assert_eq!(out.ops, 0);
    }
}

#[test]
fn more_ranks_than_rows_still_correct() {
    // Frontier with fewer rows than ranks: empty row blocks must not
    // break any schedule.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (nb, n) = (2, 23);
    let f = random_frontier(&mut rng, nb, n, 15);
    let a = random_dist_mat(&mut rng, n, n, 80);
    let expected = spgemm_serial::<BellmanFordKernel>(&f, &a).mat;
    let m = Machine::new(MachineSpec::test(8));
    let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
    let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
    for plan in candidate_plans(8) {
        let out = mm_exec::<BellmanFordKernel>(&m, &plan, &df, &da)
            .unwrap_or_else(|e| panic!("plan={plan:?}: {e}"));
        assert_eq!(
            out.c.to_global::<MultpathMonoid>(),
            expected,
            "plan {plan:?}"
        );
    }
}

#[test]
fn replication_plans_hit_memory_budget() {
    // A machine with a tiny memory budget must fail 1D replication
    // with OutOfMemory — the mechanism behind the paper's
    // "unable to execute" data points.
    use mfbc_tensor::{MmPlan, Variant1D};
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let n = 64;
    let a = random_dist_mat(&mut rng, n, n, 1000);
    let spec = MachineSpec::test(4).with_mem_bytes(Some(2000));
    let m = Machine::new(spec);
    let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
    let db = da.clone();
    let err = mm_exec::<TropicalKernel>(&m, &MmPlan::OneD(Variant1D::A), &da, &db);
    assert!(err.is_err(), "replicating 12 kB into 2 kB budget must fail");
}

#[test]
fn every_plan_matches_masked_serial() {
    use mfbc_sparse::{spgemm_masked_serial, Mask, MaskKind};
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let (nb, n) = (6, 39);
    let f = random_frontier(&mut rng, nb, n, 70);
    let a = random_dist_mat(&mut rng, n, n, 220);
    let coords: Vec<(usize, usize)> = (0..80)
        .map(|_| (rng.gen_range(0..nb), rng.gen_range(0..n)))
        .collect();

    for kind in [MaskKind::Structural, MaskKind::Complement] {
        let mask = Mask::from_coords(kind, nb, n, &coords);
        let expected = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &mask);
        // Masked multiply must agree with multiply-then-filter on the
        // kept entries...
        let filtered = mask.filter_allowed(&spgemm_serial::<BellmanFordKernel>(&f, &a).mat);
        assert_eq!(expected.mat, filtered, "{kind:?}: serial vs filter oracle");
        // ...and every distributed plan must reproduce it exactly,
        // including the skipped-product count.
        for p in [1usize, 4, 9] {
            let m = Machine::new(MachineSpec::test(p));
            let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
            let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
            for plan in candidate_plans(p) {
                let out = mm_exec_masked::<BellmanFordKernel>(&m, &plan, &df, &da, Some(&mask))
                    .unwrap_or_else(|e| panic!("{kind:?} p={p} plan={plan:?}: {e}"));
                assert_eq!(
                    out.c.to_global::<MultpathMonoid>(),
                    expected.mat,
                    "{kind:?} p={p} plan={plan:?}"
                );
                assert_eq!(out.ops, expected.ops, "{kind:?} p={p} plan={plan:?} ops");
            }
        }
    }
}

#[test]
fn mask_shrinks_variant_a_communication() {
    use mfbc_sparse::{Mask, MaskKind};
    use mfbc_tensor::{MmPlan, Variant1D};
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let (nb, n) = (4, 48);
    let f = random_frontier(&mut rng, nb, n, 40);
    let a = random_dist_mat(&mut rng, n, n, 400);
    // Structural mask confined to the first few columns: most of the
    // adjacency's columns are fully excluded and need not move.
    let coords: Vec<(usize, usize)> = (0..nb).flat_map(|i| (0..6).map(move |j| (i, j))).collect();
    let mask = Mask::from_coords(MaskKind::Structural, nb, n, &coords);

    let run = |mask: Option<&Mask>| {
        let m = Machine::new(MachineSpec::test(4));
        let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
        let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
        let out =
            mm_exec_masked::<BellmanFordKernel>(&m, &MmPlan::OneD(Variant1D::A), &df, &da, mask)
                .unwrap();
        (m.report().critical.bytes, out.ops)
    };
    let (unmasked_bytes, unmasked_ops) = run(None);
    let (masked_bytes, masked_ops) = run(Some(&mask));
    assert!(
        masked_bytes < unmasked_bytes,
        "masked {masked_bytes} !< unmasked {unmasked_bytes}"
    );
    assert!(
        masked_ops < unmasked_ops,
        "masked {masked_ops} !< unmasked {unmasked_ops}"
    );

    // Under a cache that amortizes, the same masked miss builds and
    // keeps the whole panel — a sweep's next mask is another one — so
    // the second product moves only its frontier.
    let m = Machine::new(MachineSpec::test(4));
    let df = DistMat::from_global(canonical_layout(&m, nb, n), &f);
    let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
    let mut cache = mfbc_tensor::MmCache::new();
    let mut product = || {
        let before = m.report().critical.bytes;
        let plan = MmPlan::OneD(Variant1D::A);
        let out = mfbc_tensor::mm_exec_cached_masked::<BellmanFordKernel>(
            &m,
            &plan,
            &df,
            &da,
            Some(&mask),
            &mut cache,
        )
        .unwrap();
        assert_eq!(out.ops, masked_ops);
        m.report().critical.bytes - before
    };
    let (first, second) = (product(), product());
    assert_eq!(first, unmasked_bytes, "a kept panel is the whole panel");
    assert!(
        second < masked_bytes,
        "hit {second} !< shrunk {masked_bytes}"
    );
    cache.release_all(&m);
}

/// Cannon is SUMMA-AB with ring shifts for broadcasts: on the same
/// `q × q` grid both fold every output block's k panels in ascending
/// order, so they agree bit for bit even where `⊕` rounds. Centpath
/// factors in thirds make the grouping visible: every product of a row
/// ties on the path weight, so its factors sum, and a regrouped sum of
/// thirds rounds differently. (Dyadic values sum exactly in any order
/// and could not tell the two apart.)
#[test]
fn cannon_and_summa_ab_fold_panels_identically() {
    use mfbc_algebra::kernel::BrandesKernel;
    use mfbc_algebra::{Centpath, CentpathMonoid};
    use mfbc_sparse::{Mask, MaskKind};
    use mfbc_tensor::{MmPlan, Variant2D};
    let mut rng = ChaCha8Rng::seed_from_u64(45);
    let (nb, n) = (12, 48);
    let mut coo = Coo::new(nb, n);
    for _ in 0..300 {
        let p = f64::from(rng.gen_range(1u32..40)) / 3.0;
        coo.push(
            rng.gen_range(0..nb),
            rng.gen_range(0..n),
            Centpath::new(Dist::new(9), p, 1),
        );
    }
    let z = coo.into_csr::<CentpathMonoid>();
    let mut coo = Coo::new(n, n);
    for _ in 0..500 {
        coo.push(rng.gen_range(0..n), rng.gen_range(0..n), Dist::ONE);
    }
    let adj = coo.into_csr::<MinDist>();
    // The last third of the columns is excluded for every row, so
    // Cannon's uncached B shrinks against the mask; SUMMA's does not.
    let coords: Vec<(usize, usize)> = (0..200)
        .map(|_| (rng.gen_range(0..nb), rng.gen_range(0..2 * n / 3)))
        .collect();
    let mask = Mask::from_coords(MaskKind::Structural, nb, n, &coords);
    let bits = |c: &Csr<Centpath>| -> Vec<(usize, usize, Dist, u64, i64)> {
        c.iter()
            .map(|(i, j, v)| (i, j, v.w, v.p.to_bits(), v.c))
            .collect()
    };

    for q in [2usize, 3, 4] {
        for overlap in [false, true] {
            for mask in [None, Some(&mask)] {
                let run = |plan: MmPlan| {
                    let m = Machine::new(MachineSpec::test(q * q).with_overlap(overlap));
                    let dz = DistMat::from_global(canonical_layout(&m, nb, n), &z);
                    let da = DistMat::from_global(canonical_layout(&m, n, n), &adj);
                    let out = mm_exec_masked::<BrandesKernel>(&m, &plan, &dz, &da, mask).unwrap();
                    (bits(&out.c.to_global::<CentpathMonoid>()), out.ops)
                };
                let cannon = run(MmPlan::Cannon { q });
                let summa = run(MmPlan::TwoD {
                    variant: Variant2D::AB,
                    p2: q,
                    p3: q,
                });
                let label = format!("q={q} overlap={overlap} masked={}", mask.is_some());
                assert!(!cannon.0.is_empty(), "{label}: empty product");
                assert_eq!(cannon.1, summa.1, "{label}: ops");
                assert!(cannon.0 == summa.0, "{label}: C differs in some bit");
            }
        }
    }
}
