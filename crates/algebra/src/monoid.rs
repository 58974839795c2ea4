//! Monoid and commutative-monoid traits with stock instances.
//!
//! A monoid `(S, ⊕)` is a set closed under an associative binary
//! operation with an identity element (§2.2 of the paper). Commutative
//! monoids are what the generalized matrix product accumulates with,
//! and what elementwise matrix addition `A ⊕ B` applies.
//!
//! Monoids here are *zero-sized marker types* implementing [`Monoid`];
//! operations dispatch statically, so a generalized SpGEMM
//! monomorphizes to tight per-structure kernels — the same effect CTF
//! obtains by passing user functions as C++ template arguments (§6.1).

use crate::weight::Dist;

/// A monoid `(Self::Elem, combine)` with identity `identity()`.
///
/// Laws (checked by unit and property tests, not by the compiler):
///
/// * associativity: `combine(a, combine(b, c)) == combine(combine(a, b), c)`
/// * identity: `combine(identity(), a) == a == combine(a, identity())`
pub trait Monoid: Copy + Default + Send + Sync + 'static {
    /// The carrier set.
    type Elem: Clone + PartialEq + Send + Sync + std::fmt::Debug;

    /// The associative binary operation `⊕`.
    fn combine(a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// The identity element of `⊕`.
    fn identity() -> Self::Elem;

    /// Whether `e` is the identity. Identity elements are the
    /// *sparse zeros*: a sparse matrix never stores them.
    #[inline]
    fn is_identity(e: &Self::Elem) -> bool {
        *e == Self::identity()
    }

    /// In-place fold: `acc := acc ⊕ x`. Override when an in-place
    /// update avoids allocation.
    #[inline]
    fn fold_into(acc: &mut Self::Elem, x: &Self::Elem) {
        *acc = Self::combine(acc, x);
    }
}

/// `v` under an all-ones `mask`, `-0.0` under an all-zeros one: the
/// term a branch-free fold adds for the side a comparison may have
/// dropped. `-0.0` rather than `+0.0` because it is the addend that
/// changes no `f64` — `x + -0.0` is `x` bit for bit, `x = ±0.0`
/// included — so the fold reproduces `combine`'s bits for every input.
#[inline]
pub(crate) fn under(v: f64, mask: u64) -> f64 {
    f64::from_bits((v.to_bits() & mask) | ((-0.0f64).to_bits() & !mask))
}

/// Marker trait asserting that [`Monoid::combine`] is commutative.
///
/// Only commutative monoids may be used as the accumulator `⊕` of a
/// generalized matrix multiplication, since block algorithms reorder
/// the reduction arbitrarily across processors.
pub trait CommutativeMonoid: Monoid {}

/// The `(W, min)` commutative monoid with identity `∞`.
///
/// Together with the action `(W, +)`, this is the additive part of the
/// tropical semiring used by BFS/Bellman–Ford (§2.3).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MinDist;

impl Monoid for MinDist {
    type Elem = Dist;

    #[inline]
    fn combine(a: &Dist, b: &Dist) -> Dist {
        (*a).min(*b)
    }

    #[inline]
    fn identity() -> Dist {
        Dist::INF
    }
}

impl CommutativeMonoid for MinDist {}

/// The `(f64, +)` commutative monoid with identity `0.0`.
///
/// Used to accumulate centrality scores `λ(v)`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SumF64;

impl Monoid for SumF64 {
    type Elem = f64;

    #[inline]
    fn combine(a: &f64, b: &f64) -> f64 {
        a + b
    }

    #[inline]
    fn identity() -> f64 {
        0.0
    }
}

impl CommutativeMonoid for SumF64 {}

/// The `(u64, +)` commutative monoid with identity `0`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SumU64;

impl Monoid for SumU64 {
    type Elem = u64;

    #[inline]
    fn combine(a: &u64, b: &u64) -> u64 {
        a + b
    }

    #[inline]
    fn identity() -> u64 {
        0
    }
}

impl CommutativeMonoid for SumU64 {}

/// The `(u64, max)` commutative monoid with identity `0`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MaxU64;

impl Monoid for MaxU64 {
    type Elem = u64;

    #[inline]
    fn combine(a: &u64, b: &u64) -> u64 {
        (*a).max(*b)
    }

    #[inline]
    fn identity() -> u64 {
        0
    }
}

impl CommutativeMonoid for MaxU64 {}

/// Folds an iterator with a monoid: `⊕_{i} s(i)`, returning the
/// identity for an empty iterator (the `⊕_{i=j}^{k}` notation of
/// §2.2).
pub fn fold<M, I>(iter: I) -> M::Elem
where
    M: Monoid,
    I: IntoIterator<Item = M::Elem>,
{
    let mut acc = M::identity();
    for x in iter {
        M::fold_into(&mut acc, &x);
    }
    acc
}

/// Test-support helpers asserting the monoid laws on sampled elements.
///
/// Intended for unit/property tests of concrete monoid instances; the
/// functions panic with a descriptive message when a law is violated.
pub mod laws {
    use super::Monoid;

    /// Asserts `a ⊕ (b ⊕ c) == (a ⊕ b) ⊕ c`.
    pub fn assert_associative<M: Monoid>(a: &M::Elem, b: &M::Elem, c: &M::Elem) {
        let left = M::combine(a, &M::combine(b, c));
        let right = M::combine(&M::combine(a, b), c);
        assert_eq!(
            left, right,
            "monoid associativity violated for ({a:?}, {b:?}, {c:?})"
        );
    }

    /// Asserts `e ⊕ a == a == a ⊕ e` for the identity `e`.
    pub fn assert_identity<M: Monoid>(a: &M::Elem) {
        let e = M::identity();
        assert_eq!(M::combine(&e, a), *a, "left identity violated for {a:?}");
        assert_eq!(M::combine(a, &e), *a, "right identity violated for {a:?}");
        assert!(M::is_identity(&e), "identity not recognized as identity");
    }

    /// Asserts `a ⊕ b == b ⊕ a`.
    pub fn assert_commutative<M: Monoid>(a: &M::Elem, b: &M::Elem) {
        assert_eq!(
            M::combine(a, b),
            M::combine(b, a),
            "commutativity violated for ({a:?}, {b:?})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_dist_laws() {
        let xs = [Dist::ZERO, Dist::new(3), Dist::new(7), Dist::INF];
        for a in xs {
            laws::assert_identity::<MinDist>(&a);
            for b in xs {
                laws::assert_commutative::<MinDist>(&a, &b);
                for c in xs {
                    laws::assert_associative::<MinDist>(&a, &b, &c);
                }
            }
        }
    }

    #[test]
    fn sum_f64_laws() {
        let xs = [0.0, 1.5, -2.25, 1024.0];
        for a in xs {
            laws::assert_identity::<SumF64>(&a);
            for b in xs {
                laws::assert_commutative::<SumF64>(&a, &b);
                for c in xs {
                    laws::assert_associative::<SumF64>(&a, &b, &c);
                }
            }
        }
    }

    #[test]
    fn sum_and_max_u64_laws() {
        let xs = [0u64, 1, 99, u64::MAX / 4];
        for a in xs {
            laws::assert_identity::<SumU64>(&a);
            laws::assert_identity::<MaxU64>(&a);
            for b in xs {
                laws::assert_commutative::<SumU64>(&a, &b);
                laws::assert_commutative::<MaxU64>(&a, &b);
            }
        }
    }

    #[test]
    fn fold_matches_iterated_combine() {
        let xs = vec![Dist::new(5), Dist::new(2), Dist::INF, Dist::new(9)];
        assert_eq!(fold::<MinDist, _>(xs), Dist::new(2));
        assert_eq!(fold::<MinDist, _>(Vec::new()), Dist::INF);
        assert_eq!(fold::<SumU64, _>(vec![1, 2, 3]), 6);
    }
}
