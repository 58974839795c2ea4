//! Property tests of the path arithmetic and the monoid actions the
//! MFBC correctness proofs (Lemmas 4.1/4.2) rely on, over the whole
//! element domain. The monoid laws themselves are in `laws.rs`.

use mfbc_algebra::monoid::{laws, SumF64};
use mfbc_algebra::{BellmanFordAction, BrandesAction, Dist, MonoidAction};
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;

const CASES: usize = 64;

/// A finite, positive edge weight.
fn edge_weight(rng: &mut SplitMix64) -> Dist {
    Dist::new(rng.range(1, 9_999) as u64)
}

#[test]
fn dist_add_is_associative_and_commutative() {
    property("dist_add_is_associative_and_commutative", CASES, |rng| {
        let (a, b, c) = (gen::any_dist(rng), gen::any_dist(rng), gen::any_dist(rng));
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a + b, b + a);
        assert_eq!(a + Dist::ZERO, a);
    });
}

#[test]
fn sum_f64_laws_on_dyadics() {
    property("sum_f64_laws_on_dyadics", CASES, |rng| {
        // Dyadic rationals add exactly, so associativity is testable.
        let mut dyadic = || (rng.below(2000) as f64 - 1000.0) / 8.0;
        let (x, y) = (dyadic(), dyadic());
        laws::assert_commutative::<SumF64>(&x, &y);
        laws::assert_identity::<SumF64>(&x);
    });
}

#[test]
fn bellman_ford_action_axioms() {
    property("bellman_ford_action_axioms", CASES, |rng| {
        let (x, a, b) = (gen::any_multpath(rng), edge_weight(rng), edge_weight(rng));
        assert_eq!(BellmanFordAction::act(&x, Dist::ZERO), x);
        assert_eq!(
            BellmanFordAction::act(&BellmanFordAction::act(&x, a), b),
            BellmanFordAction::act(&x, a + b)
        );
    });
}

#[test]
fn brandes_action_axioms() {
    property("brandes_action_axioms", CASES, |rng| {
        let (x, a, b) = (gen::any_centpath(rng), edge_weight(rng), edge_weight(rng));
        assert_eq!(BrandesAction::act(&x, Dist::ZERO), x);
        // Composition holds whenever both orders are defined
        // (non-underflowing); either order underflowing must agree
        // with the combined action underflowing.
        let ab = BrandesAction::act(&x, a + b);
        let step = BrandesAction::act(&BrandesAction::act(&x, a), b);
        if !x.is_none() && x.w.checked_back(a + b).is_some_and(Dist::is_finite) {
            assert_eq!(step, ab);
        } else {
            assert!(step.is_none() && ab.is_none());
        }
    });
}

/// The interchange law used implicitly by Lemma 4.1: acting then
/// joining equals joining then acting, for equal edge weights.
#[test]
fn action_distributes_over_multpath_join() {
    property("action_distributes_over_multpath_join", CASES, |rng| {
        let (x, y) = (gen::any_multpath(rng), gen::any_multpath(rng));
        let w = edge_weight(rng);
        let left = BellmanFordAction::act(&x.join(&y), w);
        let right = BellmanFordAction::act(&x, w).join(&BellmanFordAction::act(&y, w));
        assert_eq!(left, right);
    });
}
