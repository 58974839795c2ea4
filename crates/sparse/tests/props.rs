//! Property tests: the generalized SpGEMM and elementwise kernels
//! against naive dense references, plus structural round-trips.

#![allow(clippy::needless_range_loop)]

use mfbc_algebra::kernel::{BellmanFordKernel, TropicalKernel};
use mfbc_algebra::monoid::{MinDist, Monoid};
use mfbc_algebra::{Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::slice::{even_ranges, slice, stitch, Slab};
use mfbc_sparse::transpose::transpose;
use mfbc_sparse::{spgemm, spgemm_serial, Coo, Csr};
use proptest::collection::vec;
use proptest::prelude::*;
use std::borrow::Cow;

/// Random sparse Dist matrix as (shape, triples).
fn arb_dist_mat(max_n: usize) -> impl Strategy<Value = Csr<Dist>> {
    (1..max_n, 1..max_n).prop_flat_map(|(n, m)| {
        vec((0..n, 0..m, 1u64..50), 0..(2 * n * m).min(200)).prop_map(move |ts| {
            Coo::from_triples(n, m, ts.into_iter().map(|(i, j, w)| (i, j, Dist::new(w))))
                .into_csr::<MinDist>()
        })
    })
}

fn arb_square_dist_mat(max_n: usize) -> impl Strategy<Value = Csr<Dist>> {
    (2..max_n).prop_flat_map(|n| {
        vec((0..n, 0..n, 1u64..50), 0..(3 * n).min(200)).prop_map(move |ts| {
            Coo::from_triples(n, n, ts.into_iter().map(|(i, j, w)| (i, j, Dist::new(w))))
                .into_csr::<MinDist>()
        })
    })
}

fn arb_multpath_mat(rows: usize, cols: usize) -> impl Strategy<Value = Csr<Multpath>> {
    vec((0..rows, 0..cols, 0u64..40, 1u32..5), 0..60).prop_map(move |ts| {
        Coo::from_triples(
            rows,
            cols,
            ts.into_iter()
                .map(|(i, j, w, m)| (i, j, Multpath::new(Dist::new(w), f64::from(m)))),
        )
        .into_csr::<MultpathMonoid>()
    })
}

/// Dense reference for `C = A •⟨⊕,f⟩ B`.
fn dense_mm<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
) -> Vec<Vec<<K::Acc as Monoid>::Elem>> {
    let mut c = vec![vec![<K::Acc as Monoid>::identity(); b.ncols()]; a.nrows()];
    for i in 0..a.nrows() {
        for (k, av) in a.row(i) {
            for (j, bv) in b.row(k) {
                if let Some(p) = K::mul(av, bv) {
                    let acc = &mut c[i][j];
                    <K::Acc as Monoid>::fold_into(acc, &p);
                }
            }
        }
    }
    c
}

fn assert_matches_dense<K: SpMulKernel>(
    sparse: &Csr<<K::Acc as Monoid>::Elem>,
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
) where
    <K::Acc as Monoid>::Elem: PartialEq + std::fmt::Debug + Clone,
{
    let dense = dense_mm::<K>(a, b);
    for i in 0..sparse.nrows() {
        for j in 0..sparse.ncols() {
            let expected = &dense[i][j];
            match sparse.get(i, j) {
                Some(v) => assert_eq!(v, expected, "mismatch at ({i},{j})"),
                None => assert!(
                    <K::Acc as Monoid>::is_identity(expected),
                    "missing nonzero at ({i},{j}): {expected:?}"
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tropical_spgemm_matches_dense(a in arb_square_dist_mat(18)) {
        let c = spgemm_serial::<TropicalKernel>(&a, &a);
        assert_matches_dense::<TropicalKernel>(&c.mat, &a, &a);
        prop_assert!(c.mat.validate().is_ok());
    }

    #[test]
    fn multpath_spgemm_matches_dense(
        (a, f) in arb_square_dist_mat(14)
            .prop_flat_map(|a| {
                let n = a.nrows();
                (Just(a), arb_multpath_mat(3, n))
            })
    ) {
        let c = spgemm_serial::<BellmanFordKernel>(&f, &a);
        assert_matches_dense::<BellmanFordKernel>(&c.mat, &f, &a);
    }

    #[test]
    fn parallel_equals_serial(a in arb_square_dist_mat(40)) {
        let s = spgemm_serial::<TropicalKernel>(&a, &a);
        let p = spgemm::<TropicalKernel>(&a, &a);
        prop_assert_eq!(s.mat, p.mat);
        prop_assert_eq!(s.ops, p.ops);
    }

    /// Min-plus matrix multiplication is associative; our kernels must
    /// respect that (this exercises accumulation order thoroughly).
    #[test]
    fn tropical_mm_associative(a in arb_square_dist_mat(12)) {
        let ab = spgemm_serial::<TropicalKernel>(&a, &a).mat;
        let left = spgemm_serial::<TropicalKernel>(&ab, &a).mat;
        let right = spgemm_serial::<TropicalKernel>(&a, &ab).mat;
        // (A²)·A == A·(A²)
        prop_assert_eq!(left, right);
    }

    #[test]
    fn transpose_round_trip(a in arb_dist_mat(20)) {
        prop_assert_eq!(transpose(&transpose(&a)), a.clone());
        prop_assert_eq!(transpose(&a).nnz(), a.nnz());
    }

    #[test]
    fn transpose_swaps_entries(a in arb_dist_mat(20)) {
        let t = transpose(&a);
        for (i, j, v) in a.iter() {
            prop_assert_eq!(t.get(j, i), Some(v));
        }
    }

    #[test]
    fn combine_commutative_and_identity(a in arb_dist_mat(16)) {
        let z = Csr::<Dist>::zero(a.nrows(), a.ncols());
        prop_assert_eq!(combine::<MinDist, _>(&a, &z), a.clone());
        prop_assert_eq!(combine::<MinDist, _>(&z, &a), a.clone());
    }

    #[test]
    fn combine_idempotent_for_min(a in arb_dist_mat(16)) {
        prop_assert_eq!(combine::<MinDist, _>(&a, &a), a.clone());
    }

    #[test]
    fn stitching_inverts_slicing(a in arb_dist_mat(24), br in 1usize..5, bc in 1usize..5) {
        let mut blocks = Vec::new();
        for r in even_ranges(a.nrows(), br) {
            for c in even_ranges(a.ncols(), bc) {
                blocks.push((r.start, c.start, slice(&a, r.clone(), c)));
            }
        }
        let mut slabs: Vec<Slab<'_, Dist>> = blocks
            .iter()
            .map(|(r, c, m)| (*r, *c, Cow::Borrowed(m)))
            .collect();
        let (back, moved) = stitch(0..a.nrows(), 0..a.ncols(), &mut slabs, |_| true);
        prop_assert_eq!(back, a.clone());
        prop_assert_eq!(moved.iter().map(|m| m.1).sum::<usize>(), a.nnz());
    }

    #[test]
    fn coo_csr_round_trip(a in arb_dist_mat(20)) {
        prop_assert_eq!(Coo::from_csr(&a).into_csr::<MinDist>(), a.clone());
    }
}
