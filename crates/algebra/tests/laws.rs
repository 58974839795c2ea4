//! Seeded property tests for the algebraic laws every distributed
//! schedule silently assumes (§3 of the paper, Lemmas 4.1/4.2): the
//! multpath and centpath operators must be associative, commutative
//! monoids — else different plans' accumulation orders give different
//! answers — and the tropical structure must be a genuine semiring.
//!
//! Every case checks one triple from the conformance harness's
//! samplers, so the elements tested here have the same distribution as
//! the matrix entries in the cross-plan differential suites, and one
//! triple over the whole domain (`∞`, the adjoined identities,
//! multiplicities up to 10⁶), which those samplers never draw.

use mfbc_algebra::monoid::{laws, MinDist, Monoid};
use mfbc_algebra::semiring::{Semiring, Tropical};
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid};
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;

const ROUNDS: usize = 2000;

/// A harness triple, then a whole-domain triple.
fn triples<T>(
    rng: &mut SplitMix64,
    harness: impl Fn(&mut SplitMix64) -> T,
    any: impl Fn(&mut SplitMix64) -> T,
) -> [(T, T, T); 2] {
    [
        (harness(rng), harness(rng), harness(rng)),
        (any(rng), any(rng), any(rng)),
    ]
}

#[test]
fn min_dist_is_a_commutative_monoid() {
    property("min_dist_is_a_commutative_monoid", ROUNDS, |rng| {
        for (a, b, c) in triples(rng, |r| gen::dist(r, 1000), gen::any_dist) {
            laws::assert_identity::<MinDist>(&a);
            laws::assert_commutative::<MinDist>(&a, &b);
            laws::assert_associative::<MinDist>(&a, &b, &c);
        }
    });
    // The identity itself participates correctly.
    laws::assert_identity::<MinDist>(&Dist::INF);
    laws::assert_associative::<MinDist>(&Dist::INF, &Dist::ZERO, &Dist::INF);
}

#[test]
fn multpath_monoid_laws() {
    // Multiplicities are integral, so the f64 sums taken on weight
    // ties are exact and associativity can be asserted with `==`, not
    // a tolerance — the same property the cross-plan equality checks
    // rely on.
    property("multpath_monoid_laws", ROUNDS, |rng| {
        for (a, b, c) in triples(rng, |r| gen::multpath(r, 40), gen::any_multpath) {
            laws::assert_identity::<MultpathMonoid>(&a);
            laws::assert_commutative::<MultpathMonoid>(&a, &b);
            laws::assert_associative::<MultpathMonoid>(&a, &b, &c);
        }
    });
    // Ties must *sum* multiplicities (the path-counting content).
    let x = Multpath::new(Dist::new(7), 2.0);
    let y = Multpath::new(Dist::new(7), 3.0);
    assert_eq!(
        MultpathMonoid::combine(&x, &y),
        Multpath::new(Dist::new(7), 5.0)
    );
}

#[test]
fn centpath_monoid_laws() {
    // Both samplers emit the adjoined identity (∞, 0, 0), so the laws
    // are exercised at the identity and at tied/untied weights alike.
    property("centpath_monoid_laws", ROUNDS, |rng| {
        for (a, b, c) in triples(rng, |r| gen::centpath(r, 40), gen::any_centpath) {
            laws::assert_identity::<CentpathMonoid>(&a);
            laws::assert_commutative::<CentpathMonoid>(&a, &b);
            laws::assert_associative::<CentpathMonoid>(&a, &b, &c);
        }
    });
    // Equal weights combine additively in both payload fields.
    let x = Centpath::new(Dist::new(5), 2.0, 1);
    let y = Centpath::new(Dist::new(5), 3.0, -1);
    assert_eq!(
        CentpathMonoid::combine(&x, &y),
        Centpath::new(Dist::new(5), 5.0, 0)
    );
}

#[test]
fn tropical_semiring_laws() {
    property("tropical_semiring_laws", ROUNDS, |rng| {
        for (a, b, c) in triples(rng, |r| gen::dist(r, 100_000), gen::any_dist) {
            // (W, min) laws via the additive monoid.
            laws::assert_identity::<MinDist>(&a);
            laws::assert_commutative::<MinDist>(&a, &b);
            laws::assert_associative::<MinDist>(&a, &b, &c);
            // (W, +) is a monoid with identity 0̄ = 0.
            assert_eq!(Tropical::mul(&a, &Tropical::one()), a);
            assert_eq!(Tropical::mul(&Tropical::one(), &a), a);
            assert_eq!(
                Tropical::mul(&Tropical::mul(&a, &b), &c),
                Tropical::mul(&a, &Tropical::mul(&b, &c)),
                "⊗ associativity for ({a:?}, {b:?}, {c:?})"
            );
            // ⊗ distributes over ⊕ on both sides:
            // a + min(b,c) = min(a+b, a+c).
            assert_eq!(
                Tropical::mul(&a, &Tropical::add(&b, &c)),
                Tropical::add(&Tropical::mul(&a, &b), &Tropical::mul(&a, &c)),
                "left distributivity for ({a:?}, {b:?}, {c:?})"
            );
            assert_eq!(
                Tropical::mul(&Tropical::add(&b, &c), &a),
                Tropical::add(&Tropical::mul(&b, &a), &Tropical::mul(&c, &a)),
                "right distributivity for ({a:?}, {b:?}, {c:?})"
            );
            // The additive identity ∞ annihilates under ⊗.
            assert_eq!(Tropical::mul(&a, &Tropical::zero()), Tropical::zero());
            assert_eq!(Tropical::mul(&Tropical::zero(), &a), Tropical::zero());
        }
    });
}

#[test]
fn multpath_identity_is_sparse_zero_of_generated_elements() {
    // Anything the generator produces is a real path, hence never
    // pruned; the adjoined identity always is. This is the contract
    // `Coo::into_csr` and `Csr::prune` rely on to keep matrices in
    // normal form.
    property(
        "multpath_identity_is_sparse_zero_of_generated_elements",
        ROUNDS,
        |rng| assert!(!MultpathMonoid::is_identity(&gen::multpath(rng, 40))),
    );
    assert!(MultpathMonoid::is_identity(&Multpath::none()));
    assert!(CentpathMonoid::is_identity(&Centpath::none()));
    assert!(MinDist::is_identity(&Dist::INF));
}
