//! MFBC — the combined batched algorithm (Algorithm 3), sequential.

use crate::backend::Simulated;
use crate::scores::BcScores;
use crate::seq::quietly;
use crate::sweep::batch;
use mfbc_graph::Graph;

/// Aggregate statistics of a sequential MFBC run.
#[derive(Clone, Debug, Default)]
pub struct MfbcSeqStats {
    /// Number of source batches processed (`n / n_b`).
    pub batches: usize,
    /// Total forward (MFBF) iterations across batches.
    pub forward_iterations: usize,
    /// Total backward (MFBr) iterations across batches.
    pub backward_iterations: usize,
    /// Total elementary operations (relaxations + back-propagations).
    pub ops: u64,
    /// `Σ nnz(Fᵢ)` over all forward frontiers.
    pub frontier_nnz: u64,
}

/// Runs Algorithm 3 with batch size `nb`: `λ(v) = Σ_s ζ(s,v)·σ̄(s,v)`
/// accumulated over `⌈n/n_b⌉` batches (the paper pads to `n mod n_b =
/// 0` with disconnected vertices; a short final batch is equivalent).
///
/// # Panics
/// Panics if `nb == 0` and the graph is non-empty.
pub fn mfbc_seq(g: &Graph, nb: usize) -> (BcScores, MfbcSeqStats) {
    let n = g.n();
    let mut scores = BcScores::zeros(n);
    let mut stats = MfbcSeqStats::default();
    if n == 0 {
        return (scores, stats);
    }
    assert!(nb > 0, "batch size must be positive");

    let sources: Vec<usize> = (0..n).collect();
    quietly(|| {
        let mut be = Simulated::sequential(g);
        for chunk in sources.chunks(nb) {
            let (fwd, back) = batch(&mut be, g, chunk, &mut scores.lambda)?;
            stats.batches += 1;
            stats.forward_iterations += fwd.iterations;
            stats.backward_iterations += back.iterations;
            stats.ops += fwd.ops + back.ops;
            stats.frontier_nnz += fwd.frontier_nnz;
        }
        Ok(())
    });
    (scores, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{brandes_unweighted, brandes_weighted, bruteforce_bc};
    use mfbc_algebra::Dist;

    fn assert_matches_oracle(g: &Graph, nb: usize) {
        let (got, _) = mfbc_seq(g, nb);
        let want = if g.is_unit_weighted() {
            brandes_unweighted(g)
        } else {
            brandes_weighted(g)
        };
        assert!(
            got.approx_eq(&want, 1e-9),
            "nb={nb}: {:?} vs {:?}",
            got.lambda,
            want.lambda
        );
    }

    #[test]
    fn matches_brandes_on_small_graphs() {
        let graphs = vec![
            Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]),
            Graph::unweighted(4, true, vec![(0, 1), (0, 2), (1, 3), (2, 3)]),
            Graph::unweighted(5, false, vec![(0, 1), (0, 2), (0, 3), (0, 4)]),
            Graph::unweighted(6, false, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
        ];
        for g in &graphs {
            for nb in [1, 2, g.n()] {
                assert_matches_oracle(g, nb);
            }
        }
    }

    #[test]
    fn matches_weighted_brandes() {
        let g = Graph::new(
            5,
            true,
            vec![
                (0, 1, Dist::new(2)),
                (1, 2, Dist::new(2)),
                (0, 2, Dist::new(4)),
                (2, 3, Dist::new(1)),
                (3, 4, Dist::new(1)),
                (2, 4, Dist::new(2)),
                (4, 0, Dist::new(3)),
            ],
        );
        for nb in [1, 3, 5] {
            assert_matches_oracle(&g, nb);
        }
    }

    #[test]
    fn matches_bruteforce_with_cycles_and_ties() {
        let g = Graph::new(
            6,
            false,
            vec![
                (0, 1, Dist::new(1)),
                (1, 2, Dist::new(1)),
                (2, 3, Dist::new(1)),
                (3, 0, Dist::new(1)),
                (2, 4, Dist::new(2)),
                (4, 5, Dist::new(1)),
                (3, 5, Dist::new(3)),
            ],
        );
        let (got, _) = mfbc_seq(&g, 2);
        let want = bruteforce_bc(&g);
        assert!(
            got.approx_eq(&want, 1e-9),
            "{:?} vs {:?}",
            got.lambda,
            want.lambda
        );
    }

    #[test]
    fn batching_invariance() {
        let g = Graph::unweighted(
            7,
            false,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 0),
                (1, 5),
            ],
        );
        let (full, s_full) = mfbc_seq(&g, 7);
        assert_eq!(s_full.batches, 1);
        for nb in [1, 2, 3, 4] {
            let (batched, st) = mfbc_seq(&g, nb);
            assert_eq!(st.batches, g.n().div_ceil(nb));
            assert!(
                batched.approx_eq(&full, 1e-9),
                "nb={nb}: {:?} vs {:?}",
                batched.lambda,
                full.lambda
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::unweighted(0, false, Vec::<(usize, usize)>::new());
        let (s, st) = mfbc_seq(&g, 4);
        assert_eq!(s.n(), 0);
        assert_eq!(st.batches, 0);
    }

    #[test]
    fn isolated_vertices_score_zero() {
        let g = Graph::unweighted(5, false, vec![(0, 1), (1, 2)]);
        let (s, _) = mfbc_seq(&g, 5);
        assert_eq!(s.lambda[3], 0.0);
        assert_eq!(s.lambda[4], 0.0);
        assert_eq!(s.lambda[1], 2.0);
    }
}
