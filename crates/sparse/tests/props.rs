//! Property tests: the generalized SpGEMM and elementwise kernels
//! against naive dense references, plus structural round-trips.

#![allow(clippy::needless_range_loop)]

use mfbc_algebra::kernel::{BellmanFordKernel, TropicalKernel};
use mfbc_algebra::monoid::{MinDist, Monoid};
use mfbc_algebra::{Dist, SpMulKernel};
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::slice::{even_ranges, slice, stitch, Slab};
use mfbc_sparse::transpose::transpose;
use mfbc_sparse::{spgemm, spgemm_serial, Coo, Csr};
use std::borrow::Cow;

const CASES: usize = 64;

/// A random `n × m` distance matrix, `n, m ∈ 1..max_n`.
fn rect(rng: &mut SplitMix64, max_n: usize) -> Csr<Dist> {
    let (n, m) = (rng.range(1, max_n - 1), rng.range(1, max_n - 1));
    gen::dist_matrix(rng, n, m, (2 * n * m).min(200))
}

/// A random `n × n` distance matrix, `n ∈ 2..max_n`, about three
/// draws per row.
fn square(rng: &mut SplitMix64, max_n: usize) -> Csr<Dist> {
    let n = rng.range(2, max_n - 1);
    gen::dist_matrix(rng, n, n, (3 * n).min(200))
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

#[test]
fn tropical_spgemm_matches_dense() {
    property("tropical_spgemm_matches_dense", CASES, |rng| {
        let a = square(rng, 18);
        let c = spgemm_serial::<TropicalKernel>(&a, &a);
        assert_matches_dense::<TropicalKernel>(&c.mat, &a, &a);
        assert!(c.mat.validate().is_ok());
    });
}

#[test]
fn multpath_spgemm_matches_dense() {
    property("multpath_spgemm_matches_dense", CASES, |rng| {
        let a = square(rng, 14);
        let f = gen::multpath_matrix(rng, 3, a.nrows(), 60);
        let c = spgemm_serial::<BellmanFordKernel>(&f, &a);
        assert_matches_dense::<BellmanFordKernel>(&c.mat, &f, &a);
    });
}

#[test]
fn parallel_equals_serial() {
    property("parallel_equals_serial", CASES, |rng| {
        let a = square(rng, 40);
        let s = spgemm_serial::<TropicalKernel>(&a, &a);
        let p = spgemm::<TropicalKernel>(&a, &a);
        assert_eq!(s.mat, p.mat);
        assert_eq!(s.ops, p.ops);
    });
}

/// Min-plus matrix multiplication is associative; our kernels must
/// respect that (this exercises accumulation order thoroughly).
#[test]
fn tropical_mm_associative() {
    property("tropical_mm_associative", CASES, |rng| {
        let a = square(rng, 12);
        let ab = spgemm_serial::<TropicalKernel>(&a, &a).mat;
        let left = spgemm_serial::<TropicalKernel>(&ab, &a).mat;
        let right = spgemm_serial::<TropicalKernel>(&a, &ab).mat;
        // (A²)·A == A·(A²)
        assert_eq!(left, right);
    });
}

#[test]
fn transpose_round_trip() {
    property("transpose_round_trip", CASES, |rng| {
        let a = rect(rng, 20);
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).nnz(), a.nnz());
    });
}

#[test]
fn transpose_swaps_entries() {
    property("transpose_swaps_entries", CASES, |rng| {
        let a = rect(rng, 20);
        let t = transpose(&a);
        for (i, j, v) in a.iter() {
            assert_eq!(t.get(j, i), Some(v));
        }
    });
}

#[test]
fn combine_commutative_and_identity() {
    property("combine_commutative_and_identity", CASES, |rng| {
        let a = rect(rng, 16);
        let z = Csr::<Dist>::zero(a.nrows(), a.ncols());
        assert_eq!(combine::<MinDist, _>(&a, &z), a);
        assert_eq!(combine::<MinDist, _>(&z, &a), a);
    });
}

#[test]
fn combine_idempotent_for_min() {
    property("combine_idempotent_for_min", CASES, |rng| {
        let a = rect(rng, 16);
        assert_eq!(combine::<MinDist, _>(&a, &a), a);
    });
}

#[test]
fn stitching_inverts_slicing() {
    property("stitching_inverts_slicing", CASES, |rng| {
        let a = rect(rng, 24);
        let (br, bc) = (rng.range(1, 4), rng.range(1, 4));
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
        assert_eq!(back, a);
        assert_eq!(moved.iter().map(|m| m.1).sum::<usize>(), a.nnz());
    });
}

#[test]
fn coo_csr_round_trip() {
    property("coo_csr_round_trip", CASES, |rng| {
        let a = rect(rng, 20);
        assert_eq!(Coo::from_csr(&a).into_csr::<MinDist>(), a);
    });
}

/// A failing property's repro line names the package whose test
/// failed, so running it replays that test.
#[test]
fn a_failing_property_names_this_package() {
    let report = std::panic::catch_unwind(|| property("toy_failing_property", 1, |_| panic!()))
        .expect_err("the property fails");
    let report = report.downcast_ref::<String>().expect("a formatted report");
    assert!(
        report.ends_with(" cargo test -p mfbc-sparse toy_failing_property"),
        "{report}"
    );
}
