//! Property tests for masked SpGEMM: containment in the mask, exact
//! complement partition of the unmasked product, the empty-mask
//! fast path, and mask-density monotonicity of the `ops` counter.

use mfbc_algebra::kernel::BellmanFordKernel;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid};
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::{spgemm_masked_serial, spgemm_serial, Csr, Mask, MaskKind};

const CASES: usize = 64;

/// A frontier × adjacency pair plus a mask pattern over the output
/// shape — the operand shape MFBF actually runs masked.
fn masked_case(rng: &mut SplitMix64) -> (Csr<Multpath>, Csr<Dist>, Vec<(usize, usize)>) {
    let n = rng.range(2, 15);
    let a = gen::dist_matrix(rng, n, n, (4 * n).min(200));
    let f = gen::multpath_matrix(rng, 4, n, 80);
    let nnz = rng.below((2 * n).min(60));
    (f, a, gen::coords(rng, 4, n, nnz))
}

/// Every masked output entry lies at a mask-allowed coordinate.
#[test]
fn masked_result_is_contained_in_mask() {
    property("masked_result_is_contained_in_mask", CASES, |rng| {
        let (f, a, coords) = masked_case(rng);
        for kind in [MaskKind::Structural, MaskKind::Complement] {
            let mask = Mask::from_coords(kind, f.nrows(), a.ncols(), &coords);
            let out = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &mask);
            for (i, j, _) in out.mat.iter() {
                assert!(mask.allows(i, j), "{kind:?}: disallowed entry at ({i},{j})");
            }
        }
    });
}

/// A mask and its complement partition the unmasked product: the
/// union of the two masked results equals the unmasked result,
/// entry for entry and bit for bit (multiplicities are f64 sums,
/// so bit-equality proves accumulation order was untouched), and
/// the two ops counters sum to the unmasked count.
#[test]
fn mask_and_complement_partition_the_product() {
    property("mask_and_complement_partition_the_product", CASES, |rng| {
        let (f, a, coords) = masked_case(rng);
        let unmasked = spgemm_serial::<BellmanFordKernel>(&f, &a);
        let mask = Mask::from_coords(MaskKind::Structural, f.nrows(), a.ncols(), &coords);
        let kept = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &mask);
        let dropped = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &mask.inverted());
        // Disjoint patterns: the combine never merges entries.
        let union = combine::<MultpathMonoid, _>(&kept.mat, &dropped.mat);
        assert_eq!(union.nnz(), unmasked.mat.nnz());
        for (i, j, v) in unmasked.mat.iter() {
            let u = union
                .get(i, j)
                .expect("union must cover the unmasked product");
            assert_eq!(u.w, v.w, "weight mismatch at ({i},{j})");
            assert_eq!(
                u.m.to_bits(),
                v.m.to_bits(),
                "multiplicity bits differ at ({i},{j})"
            );
        }
        assert_eq!(kept.ops + dropped.ops, unmasked.ops);
    });
}

/// An empty structural mask produces an empty output and charges
/// zero elementary products — the whole multiplication is pruned
/// before any work happens.
#[test]
fn empty_structural_mask_charges_nothing() {
    property("empty_structural_mask_charges_nothing", CASES, |rng| {
        let (f, a, _) = masked_case(rng);
        let mask = Mask::from_coords(MaskKind::Structural, f.nrows(), a.ncols(), &[]);
        let out = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &mask);
        assert_eq!(out.mat.nnz(), 0);
        assert_eq!(out.ops, 0);
    });
}

/// Growing a structural mask can only grow the modeled op count:
/// ops is monotone in mask density.
#[test]
fn ops_is_monotone_in_mask_density() {
    property("ops_is_monotone_in_mask_density", CASES, |rng| {
        let (f, a, coords) = masked_case(rng);
        let (rows, cols) = (f.nrows(), a.ncols());
        let half = &coords[..coords.len() / 2];
        let small = Mask::from_coords(MaskKind::Structural, rows, cols, half);
        let large = Mask::from_coords(MaskKind::Structural, rows, cols, &coords);
        let ops_small = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &small).ops;
        let ops_large = spgemm_masked_serial::<BellmanFordKernel>(&f, &a, &large).ops;
        assert!(ops_small <= ops_large);
        let full = spgemm_serial::<BellmanFordKernel>(&f, &a).ops;
        assert!(ops_large <= full);
    });
}
