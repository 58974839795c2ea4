//! The multpath monoid `(M, ⊕)` — §4.1.1 of the paper.
//!
//! A *multpath* models "all currently-known shortest paths between one
//! (source, destination) pair": a weight `w ∈ W` and a multiplicity
//! `m` counting how many distinct paths attain that weight. The monoid
//! operator keeps the lighter of two multpaths and, on ties, sums
//! multiplicities — exactly the bookkeeping Bellman–Ford needs to
//! track `(τ(s,v), σ̄(s,v))` simultaneously.

use crate::monoid::{under, CommutativeMonoid, Monoid};
use crate::weight::Dist;

/// Number of shortest paths. Stored as `f64`: path counts are sums of
/// integers, which `f64` represents exactly up to 2⁵³, and the final
/// centrality scores are `f64` ratios anyway (same choice CombBLAS
/// makes). Counts beyond 2⁵³ lose integrality but remain monotone.
pub type Multiplicity = f64;

/// A multpath `x = (x.w, x.m) ∈ M = W × ℕ`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Multpath {
    /// Total weight of the path(s).
    pub w: Dist,
    /// Number of distinct paths of weight `w`.
    pub m: Multiplicity,
}

impl Multpath {
    /// A multpath with `m` paths of weight `w`.
    #[inline]
    pub fn new(w: Dist, m: Multiplicity) -> Multpath {
        Multpath { w, m }
    }

    /// The identity of `⊕`: no path known, `(∞, 0)`.
    ///
    /// This is the sparse-zero of every multpath matrix: entries equal
    /// to it are simply not stored.
    #[inline]
    pub fn none() -> Multpath {
        Multpath {
            w: Dist::INF,
            m: 0.0,
        }
    }

    /// The trivial path from a vertex to itself: weight 0, one path.
    #[inline]
    pub fn trivial() -> Multpath {
        Multpath {
            w: Dist::ZERO,
            m: 1.0,
        }
    }

    /// Whether this multpath represents at least one finite path.
    #[inline]
    pub fn is_path(&self) -> bool {
        self.w.is_finite() && self.m > 0.0
    }

    /// The multpath operator `⊕`: keep the lighter path set, summing
    /// multiplicities on weight ties.
    #[inline]
    pub fn join(&self, other: &Multpath) -> Multpath {
        match self.w.cmp(&other.w) {
            std::cmp::Ordering::Less => *self,
            std::cmp::Ordering::Greater => *other,
            std::cmp::Ordering::Equal => Multpath {
                w: self.w,
                m: self.m + other.m,
            },
        }
    }
}

/// Zero-sized marker implementing [`Monoid`] for [`Multpath`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MultpathMonoid;

impl Monoid for MultpathMonoid {
    type Elem = Multpath;

    #[inline]
    fn combine(a: &Multpath, b: &Multpath) -> Multpath {
        a.join(b)
    }

    #[inline]
    fn identity() -> Multpath {
        Multpath::none()
    }

    /// Anything without a finite path is treated as sparse-zero, even
    /// when its stored multiplicity differs from 0 (the paper's line-1
    /// `(∞, 1)` initialization never escapes into stored state here —
    /// non-edges are non-entries).
    #[inline]
    fn is_identity(e: &Multpath) -> bool {
        !e.is_path()
    }

    /// Branch-free, like [`crate::CentpathMonoid`]'s: the lighter
    /// side's multiplicity is kept (both on a tie), the other's masked
    /// away, and the two summed.
    #[inline]
    fn fold_into(acc: &mut Multpath, x: &Multpath) {
        let keep = u64::from(acc.w <= x.w).wrapping_neg();
        let take = u64::from(acc.w >= x.w).wrapping_neg();
        acc.m = under(acc.m, keep) + under(x.m, take);
        acc.w = acc.w.min(x.w);
    }
}

impl CommutativeMonoid for MultpathMonoid {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::laws;

    fn samples() -> Vec<Multpath> {
        vec![
            Multpath::none(),
            Multpath::trivial(),
            Multpath::new(Dist::new(3), 2.0),
            Multpath::new(Dist::new(3), 5.0),
            Multpath::new(Dist::new(9), 1.0),
        ]
    }

    #[test]
    fn lighter_path_wins() {
        let a = Multpath::new(Dist::new(2), 4.0);
        let b = Multpath::new(Dist::new(5), 9.0);
        assert_eq!(a.join(&b), a);
        assert_eq!(b.join(&a), a);
    }

    #[test]
    fn equal_weight_sums_multiplicities() {
        let a = Multpath::new(Dist::new(4), 2.0);
        let b = Multpath::new(Dist::new(4), 3.0);
        assert_eq!(a.join(&b), Multpath::new(Dist::new(4), 5.0));
    }

    #[test]
    fn identity_is_no_path() {
        for x in samples() {
            laws::assert_identity::<MultpathMonoid>(&x);
        }
        assert!(MultpathMonoid::is_identity(&Multpath::none()));
        // (∞, 1) also behaves as a zero: it carries no finite path.
        assert!(MultpathMonoid::is_identity(&Multpath::new(Dist::INF, 1.0)));
        assert!(!MultpathMonoid::is_identity(&Multpath::trivial()));
    }

    #[test]
    fn monoid_laws_on_samples() {
        let xs = samples();
        for a in &xs {
            for b in &xs {
                laws::assert_commutative::<MultpathMonoid>(a, b);
                for c in &xs {
                    laws::assert_associative::<MultpathMonoid>(a, b, c);
                }
            }
        }
    }

    #[test]
    fn fold_into_matches_combine() {
        // The sample grid (identity and ties included), then signed
        // zeros on either side of a win, a loss and a tie — the masked
        // sum must not turn a kept `-0.0` into `+0.0` — and the
        // `(∞, 1)` form of the sparse zero.
        let mut xs = samples();
        for m in [-0.0, 0.0] {
            xs.push(Multpath::new(Dist::new(3), m));
            xs.push(Multpath::new(Dist::new(5), m));
        }
        xs.push(Multpath::new(Dist::INF, 1.0));
        let bits = |x: &Multpath| (x.w.raw(), x.m.to_bits());
        for a in &xs {
            for b in &xs {
                let mut acc = *a;
                MultpathMonoid::fold_into(&mut acc, b);
                let want = MultpathMonoid::combine(a, b);
                assert_eq!(bits(&acc), bits(&want), "{a:?} ⊕ {b:?}");
            }
        }
    }
}
