//! The Theorem-5.1 amortization: repeating a multiplication with the
//! *same* right operand (the adjacency matrix across MFBC iterations)
//! must not re-pay its replication/redistribution, while a different
//! right operand must.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{spgemm_serial, Coo, Csr};
use mfbc_tensor::cache::MmCache;
use mfbc_tensor::{
    canonical_layout, enumerate_plans, mm_exec, mm_exec_cached_masked, mm_exec_masked, DistMat,
    Mask, MaskKind, MmPlan, Variant1D, Variant2D,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_mat(seed: u64, n: usize, nnz: usize) -> Csr<Dist> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            Dist::new(rng.gen_range(1..40)),
        );
    }
    coo.into_csr::<MinDist>()
}

fn plans() -> Vec<MmPlan> {
    vec![
        MmPlan::OneD(Variant1D::B),
        MmPlan::OneD(Variant1D::C),
        MmPlan::TwoD {
            variant: Variant2D::AC,
            p2: 2,
            p3: 2,
        },
        MmPlan::ThreeD {
            split: Variant1D::B,
            inner: Variant2D::AC,
            p1: 2,
            p2: 2,
            p3: 1,
        },
        MmPlan::ThreeD {
            split: Variant1D::A,
            inner: Variant2D::AB,
            p1: 2,
            p2: 1,
            p3: 2,
        },
    ]
}

#[test]
fn second_iteration_is_cheaper_with_cache() {
    let n = 48;
    let a1 = random_mat(1, n, 300);
    let a2 = random_mat(2, n, 300);
    let b = random_mat(3, n, 400);

    for plan in plans() {
        // Warm path: two multiplications sharing one cache.
        let m = Machine::new(MachineSpec::test(4));
        let da1 = DistMat::from_global(canonical_layout(&m, n, n), &a1);
        let da2 = DistMat::from_global(canonical_layout(&m, n, n), &a2);
        let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
        let mut cache = MmCache::new();
        let _ = mm_exec_cached_masked::<TropicalKernel>(&m, &plan, &da1, &db, None, &mut cache)
            .unwrap();
        let after_first = m.report().critical.bytes;
        let _ = mm_exec_cached_masked::<TropicalKernel>(&m, &plan, &da2, &db, None, &mut cache)
            .unwrap();
        let cached_second = m.report().critical.bytes - after_first;
        cache.release_all(&m);

        // Cold path: the second multiplication alone on a fresh
        // machine (pays the full B preparation).
        let m2 = Machine::new(MachineSpec::test(4));
        let da2b = DistMat::from_global(canonical_layout(&m2, n, n), &a2);
        let db2 = DistMat::from_global(canonical_layout(&m2, n, n), &b);
        let _ = mm_exec::<TropicalKernel>(&m2, &plan, &da2b, &db2).unwrap();
        let cold_second = m2.report().critical.bytes;

        // For plans where the right operand genuinely moves
        // (replication or a layout different from canonical), caching
        // must save volume; plans whose B layout coincides with the
        // canonical one (e.g. square 2D AC at p=4) move nothing either
        // way, so equality is the correct outcome there.
        let strictly_cheaper = matches!(plan, MmPlan::OneD(Variant1D::B) | MmPlan::ThreeD { .. });
        if strictly_cheaper {
            assert!(
                cached_second < cold_second,
                "plan {plan:?}: cached repeat moved {cached_second} B, cold run {cold_second} B"
            );
        } else {
            assert!(
                cached_second <= cold_second,
                "plan {plan:?}: cached repeat moved {cached_second} B, cold run {cold_second} B"
            );
        }
    }
}

#[test]
fn cached_results_stay_correct() {
    let n = 40;
    let b = random_mat(5, n, 320);
    for plan in plans() {
        let m = Machine::new(MachineSpec::test(4));
        let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
        let mut cache = MmCache::new();
        for seed in 10..14 {
            let a = random_mat(seed, n, 250);
            let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
            let got =
                mm_exec_cached_masked::<TropicalKernel>(&m, &plan, &da, &db, None, &mut cache)
                    .unwrap()
                    .c
                    .to_global::<MinDist>();
            let want = spgemm_serial::<TropicalKernel>(&a, &b).mat;
            assert_eq!(got, want, "plan {plan:?}, seed {seed}");
        }
        cache.release_all(&m);
    }
}

#[test]
fn different_rhs_is_not_conflated() {
    let n = 32;
    let a = random_mat(7, n, 200);
    let b1 = random_mat(8, n, 200);
    let b2 = random_mat(9, n, 200);
    let m = Machine::new(MachineSpec::test(4));
    let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
    let db1 = DistMat::from_global(canonical_layout(&m, n, n), &b1);
    let db2 = DistMat::from_global(canonical_layout(&m, n, n), &b2);
    let plan = MmPlan::OneD(Variant1D::B);
    let mut cache = MmCache::new();
    let r1 =
        mm_exec_cached_masked::<TropicalKernel>(&m, &plan, &da, &db1, None, &mut cache).unwrap();
    let r2 =
        mm_exec_cached_masked::<TropicalKernel>(&m, &plan, &da, &db2, None, &mut cache).unwrap();
    assert_eq!(
        r1.c.to_global::<MinDist>(),
        spgemm_serial::<TropicalKernel>(&a, &b1).mat
    );
    assert_eq!(
        r2.c.to_global::<MinDist>(),
        spgemm_serial::<TropicalKernel>(&a, &b2).mat
    );
    assert_eq!(cache.len(), 2, "two distinct operands, two entries");
    cache.release_all(&m);
}

/// Every copy a plan makes is released by the time its product is
/// handed back (one-shot) or its cache is released: each rank's meter
/// returns to 0 under every enumerated plan, masked or not, in both
/// accounting modes.
#[test]
fn uncached_exec_releases_all_memory() {
    let n = 32;
    let a = random_mat(11, n, 200);
    let b = random_mat(12, n, 220);
    let coords: Vec<(usize, usize)> = (0..n * n / 3).map(|i| (i * 7 % n, i * 13 % n)).collect();
    let mask = Mask::from_coords(MaskKind::Structural, n, n, &coords);
    let mut leaks = Vec::new();
    for p in [4usize, 8, 16] {
        for plan in enumerate_plans(p) {
            for mk in [None, Some(&mask)] {
                for overlap in [false, true] {
                    for cached in [false, true] {
                        let m = Machine::new(MachineSpec::test(p).with_overlap(overlap));
                        let da = DistMat::from_global(canonical_layout(&m, n, n), &a);
                        let db = DistMat::from_global(canonical_layout(&m, n, n), &b);
                        if cached {
                            let mut cache = MmCache::new();
                            for _ in 0..2 {
                                mm_exec_cached_masked::<TropicalKernel>(
                                    &m, &plan, &da, &db, mk, &mut cache,
                                )
                                .unwrap();
                            }
                            cache.release_all(&m);
                        } else {
                            mm_exec_masked::<TropicalKernel>(&m, &plan, &da, &db, mk).unwrap();
                        }
                        let resident = m.memory_snapshot().resident().to_vec();
                        if resident.iter().any(|&r| r > 0) {
                            let masked = mk.is_some();
                            leaks.push(format!(
                                "p={p} {plan} masked={masked} overlap={overlap} \
                                 cached={cached}: {resident:?}"
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(
        leaks.is_empty(),
        "{} runs leaked simulated memory:\n{}",
        leaks.len(),
        leaks.join("\n")
    );
}
