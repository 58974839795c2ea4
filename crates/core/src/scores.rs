//! Betweenness-centrality score vectors and comparison helpers.

use std::cmp::Ordering;

/// Betweenness centrality scores `λ(v)` for every vertex, counting
/// ordered `(s, t)` pairs (the paper's definition
/// `λ(v) = Σ_{s,t∈V} σ(s,t,v)/σ̄(s,t)`; for undirected graphs this is
/// twice the unordered-pair convention, consistently across every
/// algorithm in this workspace).
#[derive(Clone, Debug, PartialEq)]
pub struct BcScores {
    /// `λ(v)` indexed by vertex.
    pub lambda: Vec<f64>,
}

impl BcScores {
    /// All-zero scores for `n` vertices.
    pub fn zeros(n: usize) -> BcScores {
        BcScores {
            lambda: vec![0.0; n],
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.lambda.len()
    }

    /// Adds another score vector elementwise (batch accumulation).
    pub fn accumulate(&mut self, other: &BcScores) {
        assert_eq!(self.n(), other.n(), "score length mismatch");
        for (a, b) in self.lambda.iter_mut().zip(&other.lambda) {
            *a += b;
        }
    }

    /// Maximum absolute difference against another score vector.
    pub fn max_abs_diff(&self, other: &BcScores) -> f64 {
        assert_eq!(self.n(), other.n(), "score length mismatch");
        self.lambda
            .iter()
            .zip(&other.lambda)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether two score vectors agree within `tol` per entry,
    /// relative to the larger magnitude (floating-point accumulation
    /// order differs between algorithms).
    pub fn approx_eq(&self, other: &BcScores, tol: f64) -> bool {
        self.lambda.iter().zip(&other.lambda).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }

    /// Normalized scores: divides by `(n−1)(n−2)`, the number of
    /// ordered pairs a vertex could possibly lie between, mapping
    /// `λ` into `[0, 1]` (the standard normalization for comparing
    /// centralities across graphs of different sizes). Graphs with
    /// `n < 3` normalize to all-zero.
    pub fn normalized(&self) -> BcScores {
        let n = self.n() as f64;
        let denom = (n - 1.0) * (n - 2.0);
        if denom <= 0.0 {
            return BcScores::zeros(self.n());
        }
        BcScores {
            lambda: self.lambda.iter().map(|x| x / denom).collect(),
        }
    }

    /// The ranking order: higher score first, ties broken by lower
    /// index (incomparable scores rank as ties).
    fn by_rank(&self) -> impl Fn(&usize, &usize) -> Ordering + '_ {
        |&a, &b| {
            self.lambda[b]
                .partial_cmp(&self.lambda[a])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        }
    }

    /// Every vertex, highest centrality first, ties broken by index:
    /// `top_k(k)` is the first `k` entries paired with their scores.
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.n()).collect();
        idx.sort_unstable_by(self.by_rank());
        idx
    }

    /// The `k` highest-centrality vertices, ties broken by index
    /// (what BC applications actually consume). Selects the `k` best
    /// and sorts only those.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        let mut idx: Vec<usize> = (0..self.n()).collect();
        if (1..idx.len()).contains(&k) {
            idx.select_nth_unstable_by(k - 1, self.by_rank());
        }
        idx.truncate(k);
        idx.sort_unstable_by(self.by_rank());
        idx.into_iter().map(|v| (v, self.lambda[v])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_diff() {
        let mut a = BcScores {
            lambda: vec![1.0, 2.0],
        };
        let b = BcScores {
            lambda: vec![0.5, 0.5],
        };
        a.accumulate(&b);
        assert_eq!(a.lambda, vec![1.5, 2.5]);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn approx_eq_tolerates_roundoff() {
        let a = BcScores {
            lambda: vec![100.0, 0.0],
        };
        let b = BcScores {
            lambda: vec![100.0 + 1e-10, 1e-12],
        };
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(
            &BcScores {
                lambda: vec![101.0, 0.0]
            },
            1e-9
        ));
    }

    #[test]
    fn normalization_bounds() {
        // Star with 4 leaves: hub lies on all 4·3 = 12 ordered pairs,
        // the theoretical maximum → normalized hub score = 1.
        let s = BcScores {
            lambda: vec![12.0, 0.0, 0.0, 0.0, 0.0],
        };
        let norm = s.normalized();
        assert!((norm.lambda[0] - 1.0).abs() < 1e-12);
        assert_eq!(norm.lambda[1], 0.0);
        // Degenerate sizes.
        assert_eq!(BcScores::zeros(2).normalized().lambda, vec![0.0, 0.0]);
        assert_eq!(BcScores::zeros(0).normalized().n(), 0);
    }

    #[test]
    fn top_k_orders_by_score() {
        let s = BcScores {
            lambda: vec![1.0, 5.0, 3.0, 5.0],
        };
        let top = s.top_k(3);
        assert_eq!(top[0].0, 1); // tie with 3, lower index first
        assert_eq!(top[1].0, 3);
        assert_eq!(top[2].0, 2);
    }

    /// The full stable sort `top_k` replaced, kept as the reference.
    fn top_k_by_full_sort(s: &BcScores, k: usize) -> Vec<(usize, f64)> {
        let mut idx: Vec<usize> = (0..s.n()).collect();
        idx.sort_by(|&a, &b| {
            s.lambda[b]
                .partial_cmp(&s.lambda[a])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.into_iter().take(k).map(|v| (v, s.lambda[v])).collect()
    }

    #[test]
    fn top_k_equals_the_full_sort_on_seeded_vectors() {
        let mut rng = rand::SplitMix64::new(0x5c0_7e5);
        for n in [0usize, 1, 2, 7, 64, 257] {
            // Few distinct values: every prefix boundary falls inside
            // a run of ties, where only the index decides.
            for distinct in [1u64, 3, 1 << 40] {
                let s = BcScores {
                    lambda: (0..n)
                        .map(|_| (rng.next_u64() % distinct) as f64 * 0.5)
                        .collect(),
                };
                let order = s.ranking();
                for k in [0, 1, 2, n / 2, n.saturating_sub(1), n, n + 3] {
                    let got = s.top_k(k);
                    assert_eq!(got, top_k_by_full_sort(&s, k), "n={n} k={k}");
                    assert_eq!(got.len(), k.min(n));
                    let prefix: Vec<usize> = got.iter().map(|p| p.0).collect();
                    assert_eq!(prefix, order[..k.min(n)], "ranking prefix, n={n} k={k}");
                }
            }
        }
    }
}
