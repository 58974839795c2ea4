//! The centpath monoid `(C, ⊗)` — §4.2.1 of the paper.
//!
//! A *centpath* carries a path weight `w`, a partial centrality factor
//! `p`, and a predecessor counter `c`. The operator `⊗` keeps the
//! element of **greater** weight and, on ties, sums both the factors
//! and the counters. "Greater wins" is what makes backward propagation
//! work: a contribution arriving at `v` from a successor `k` has
//! weight `τ(s,k) − A(v,k) ≤ τ(s,v)` (triangle inequality), with
//! equality exactly when `v` is a true shortest-path predecessor of
//! `k` — so joining against the anchor `(τ(s,v), …)` discards every
//! invalid contribution.
//!
//! The factor converges to `ζ(s,v) = δ(s,v)/σ̄(s,v)`, the partial
//! centrality factor of Sariyüce et al. used by the paper instead of
//! the dependency `δ` itself. The counter tracks how many
//! shortest-path-tree children of `v` have not yet reported; `v`
//! enters the backward frontier when it reaches zero and is then
//! pinned to −1 so it never re-enters.

use crate::monoid::{under, CommutativeMonoid, Monoid};
use crate::weight::Dist;

/// A centpath `x = (x.w, x.p, x.c) ∈ C = W × ℝ × ℤ`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Centpath {
    /// Path weight anchoring the entry to `τ(s,v)`.
    pub w: Dist,
    /// Partial centrality factor (converges to `ζ(s,v)`).
    pub p: f64,
    /// Counter of shortest-path children yet to report; −1 once the
    /// vertex has passed through a frontier.
    pub c: i64,
}

impl Centpath {
    /// Builds a centpath.
    #[inline]
    pub fn new(w: Dist, p: f64, c: i64) -> Centpath {
        Centpath { w, p, c }
    }

    /// The `(∞, 0, 0)` element: "not part of any frontier / no
    /// information". It is the sparse-zero and the (adjoined) identity
    /// of `⊗`.
    #[inline]
    pub fn none() -> Centpath {
        Centpath {
            w: Dist::INF,
            p: 0.0,
            c: 0,
        }
    }

    /// Whether this is the null element `(∞, 0, 0)`.
    ///
    /// Real contributions always carry a finite weight (they are built
    /// from finite frontier entries minus finite edge weights), so
    /// `w = ∞` unambiguously marks the null element.
    #[inline]
    pub fn is_none(&self) -> bool {
        !self.w.is_finite()
    }

    /// The centpath operator `⊗`: greater weight wins; ties sum `p`
    /// and `c`. `(∞,0,0)` acts as the identity rather than absorbing,
    /// matching the paper's sparse semantics where `(∞,0,0)` entries
    /// are never stored or combined.
    #[inline]
    pub fn join(&self, other: &Centpath) -> Centpath {
        if self.is_none() {
            return *other;
        }
        if other.is_none() {
            return *self;
        }
        match self.w.cmp(&other.w) {
            std::cmp::Ordering::Greater => *self,
            std::cmp::Ordering::Less => *other,
            std::cmp::Ordering::Equal => Centpath {
                w: self.w,
                p: self.p + other.p,
                c: self.c + other.c,
            },
        }
    }
}

/// Zero-sized marker implementing [`Monoid`] for [`Centpath`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CentpathMonoid;

impl Monoid for CentpathMonoid {
    type Elem = Centpath;

    #[inline]
    fn combine(a: &Centpath, b: &Centpath) -> Centpath {
        a.join(b)
    }

    #[inline]
    fn identity() -> Centpath {
        Centpath::none()
    }

    #[inline]
    fn is_identity(e: &Centpath) -> bool {
        e.is_none()
    }

    /// Win, lose and tie in one straight line: which side a product
    /// lands on is the unpredictable branch of the row kernel's inner
    /// loop, so each side's fields are kept or zeroed by an all-ones /
    /// all-zeros mask (both kept on a tie) and summed.
    #[inline]
    fn fold_into(acc: &mut Centpath, x: &Centpath) {
        if x.is_none() {
            return;
        }
        if acc.is_none() {
            *acc = *x;
            return;
        }
        let keep = u64::from(acc.w >= x.w).wrapping_neg();
        let take = u64::from(acc.w <= x.w).wrapping_neg();
        acc.p = under(acc.p, keep) + under(x.p, take);
        acc.c = (acc.c & keep as i64) + (x.c & take as i64);
        acc.w = acc.w.max(x.w);
    }
}

impl CommutativeMonoid for CentpathMonoid {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::laws;

    fn samples() -> Vec<Centpath> {
        vec![
            Centpath::none(),
            Centpath::new(Dist::ZERO, 0.5, 1),
            Centpath::new(Dist::new(4), 1.0, 2),
            Centpath::new(Dist::new(4), 0.25, -1),
            Centpath::new(Dist::new(9), 0.0, 3),
        ]
    }

    #[test]
    fn greater_weight_wins() {
        let lo = Centpath::new(Dist::new(2), 1.0, 1);
        let hi = Centpath::new(Dist::new(7), 2.0, 1);
        assert_eq!(lo.join(&hi), hi);
        assert_eq!(hi.join(&lo), hi);
    }

    #[test]
    fn equal_weight_sums_factor_and_counter() {
        let a = Centpath::new(Dist::new(4), 0.5, 2);
        let b = Centpath::new(Dist::new(4), 0.25, -1);
        assert_eq!(a.join(&b), Centpath::new(Dist::new(4), 0.75, 1));
    }

    #[test]
    fn none_is_identity_not_absorber() {
        // A naive "greater weight wins" would let (∞,0,0) absorb
        // everything; the adjoined-identity semantics must not.
        let a = Centpath::new(Dist::new(4), 0.5, 2);
        assert_eq!(Centpath::none().join(&a), a);
        assert_eq!(a.join(&Centpath::none()), a);
    }

    #[test]
    fn monoid_laws_on_samples() {
        let xs = samples();
        for a in &xs {
            laws::assert_identity::<CentpathMonoid>(a);
            for b in &xs {
                laws::assert_commutative::<CentpathMonoid>(a, b);
                for c in &xs {
                    laws::assert_associative::<CentpathMonoid>(a, b, c);
                }
            }
        }
    }

    #[test]
    fn fold_into_matches_combine() {
        // The sample grid, then what it lacks: signed zeros on either
        // side of a win, a loss and a tie (the masked sum must not turn
        // a kept `-0.0` into `+0.0`) and a negative factor.
        let mut xs = samples();
        for p in [-0.0, 0.0, -1.5] {
            xs.push(Centpath::new(Dist::new(4), p, 1));
            xs.push(Centpath::new(Dist::new(6), p, -1));
        }
        let bits = |x: &Centpath| (x.w.raw(), x.p.to_bits(), x.c);
        for a in &xs {
            for b in &xs {
                let mut acc = *a;
                CentpathMonoid::fold_into(&mut acc, b);
                let want = CentpathMonoid::combine(a, b);
                assert_eq!(bits(&acc), bits(&want), "{a:?} ⊗ {b:?}");
            }
        }
    }
}
