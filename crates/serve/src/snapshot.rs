//! Immutable score snapshots: what one store version (or one degraded
//! round's estimate) serves.
//!
//! A snapshot owns its scores and memoises the two things queries
//! derive from them — the rank order behind `topk` and the rendered
//! JSON array behind `full` — so a warm request pays for what its
//! answer touches, not for `n`. Both caches are fields of the snapshot
//! they derive from: a commit installs a new snapshot, and the old
//! one's caches go when its last response does. Nothing to size,
//! evict or invalidate. Both are lazy: a snapshot nobody asks `topk`
//! or `full` of never sorts or renders.

use mfbc_core::BcScores;
use mfbc_trace::json;
use std::sync::OnceLock;

/// The scores of one store version or one sampled estimate, shared by
/// reference count between the store and every [`crate::Payload::Full`]
/// answered from it. Derefs to the score slice, indexed by vertex.
pub struct ScoreSnapshot {
    scores: BcScores,
    /// `BcScores::ranking`, built by the first `topk`.
    ranking: OnceLock<Vec<usize>>,
    /// The scores as a JSON array, built by the first rendered `full`.
    json_array: OnceLock<String>,
}

impl ScoreSnapshot {
    /// Takes ownership of `scores`; derives nothing yet.
    pub fn new(scores: BcScores) -> ScoreSnapshot {
        ScoreSnapshot {
            scores,
            ranking: OnceLock::new(),
            json_array: OnceLock::new(),
        }
    }

    /// The `k` highest-centrality vertices with their scores, equal to
    /// `BcScores::top_k(k)`; O(k) after the snapshot's first call.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f64)> {
        self.ranking
            .get_or_init(|| self.scores.ranking())
            .iter()
            .take(k)
            .map(|&v| (v, self.scores.lambda[v]))
            .collect()
    }

    /// The scores as a JSON array (`[s0,s1,…]`, each through
    /// `json::write_num`); a borrow after the snapshot's first call.
    pub fn json_array(&self) -> &str {
        self.json_array.get_or_init(|| {
            // `{:?}` of an f64 is at most 24 bytes; most are shorter.
            let mut out = String::with_capacity(2 + 12 * self.scores.n());
            out.push('[');
            for (i, &score) in self.scores.lambda.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_num(&mut out, score);
            }
            out.push(']');
            out
        })
    }
}

impl std::ops::Deref for ScoreSnapshot {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.scores.lambda
    }
}

/// Snapshots are equal when their scores are; what has been memoised
/// so far is not part of the value.
impl PartialEq for ScoreSnapshot {
    fn eq(&self, other: &ScoreSnapshot) -> bool {
        self.scores == other.scores
    }
}

impl std::fmt::Debug for ScoreSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.scores.lambda.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: usize, seed: u64) -> BcScores {
        // Few distinct values, so ties decide most of the order.
        let mut x = seed;
        BcScores {
            lambda: (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) % 7) as f64 / 3.0
                })
                .collect(),
        }
    }

    #[test]
    fn memoised_order_equals_top_k_for_every_k() {
        for n in [0, 1, 5, 40] {
            let scores = seeded(n, n as u64);
            let snap = ScoreSnapshot::new(scores.clone());
            for k in 0..=n + 2 {
                assert_eq!(snap.top_k(k), scores.top_k(k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn memoised_array_equals_the_per_element_join() {
        let mut scores = seeded(9, 3);
        scores.lambda[2] = f64::NAN;
        scores.lambda[5] = 0.1 + 0.2;
        for scores in [scores, BcScores::zeros(0), BcScores::zeros(1)] {
            let joined: Vec<String> = scores.lambda.iter().map(|&x| json::num(x)).collect();
            let snap = ScoreSnapshot::new(scores);
            assert_eq!(snap.json_array(), format!("[{}]", joined.join(",")));
            // The second call is the memo, not a second rendering.
            assert!(std::ptr::eq(snap.json_array(), snap.json_array()));
        }
    }

    #[test]
    fn equality_and_deref_see_only_the_scores() {
        let a = ScoreSnapshot::new(seeded(6, 1));
        let b = ScoreSnapshot::new(seeded(6, 1));
        a.top_k(2);
        a.json_array();
        assert_eq!(a, b);
        assert_ne!(a, ScoreSnapshot::new(seeded(6, 2)));
        assert_eq!(a.len(), 6);
        assert_eq!(a[3], seeded(6, 1).lambda[3]);
        assert_eq!(format!("{a:?}"), format!("{:?}", seeded(6, 1).lambda));
    }
}
