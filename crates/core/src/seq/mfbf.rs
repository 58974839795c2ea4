//! MFBF — Maximal Frontier Bellman-Ford (Algorithm 1), sequential:
//! [`crate::sweep::forward`] on one rank.

use crate::backend::Simulated;
use crate::seq::quietly;
use crate::sweep::forward;
use mfbc_algebra::Multpath;
use mfbc_graph::Graph;
use mfbc_sparse::Csr;

/// Result of a sequential MFBF run.
#[derive(Clone, Debug)]
pub struct MfbfOut {
    /// `T(s,v) = (τ, σ̄)` for each batch row `s` and vertex `v`.
    pub t: Csr<Multpath>,
    /// Iterations of the relaxation loop (≤ the shortest-path hop
    /// bound `d`; for weighted graphs each weight correction adds
    /// rounds — §5.3.1).
    pub iterations: usize,
    /// `Σᵢ nnz(Fᵢ)` — the frontier-volume term of Theorem 5.1.
    pub frontier_nnz: u64,
    /// Total elementary relaxations (`ops`).
    pub ops: u64,
}

/// Runs Algorithm 1 for the given source vertices.
pub fn mfbf_seq(g: &Graph, sources: &[usize]) -> MfbfOut {
    let (t, st) = quietly(|| forward(&mut Simulated::sequential(g), g, sources));
    MfbfOut {
        t: t.into_block(),
        iterations: st.iterations,
        frontier_nnz: st.frontier_nnz,
        ops: st.ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::Dist;

    fn tau(out: &MfbfOut, s: usize, v: usize) -> Option<(u64, f64)> {
        out.t.get(s, v).map(|mp| (mp.w.raw(), mp.m))
    }

    #[test]
    fn path_graph_distances() {
        let g = Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]);
        let out = mfbf_seq(&g, &[0]);
        assert_eq!(tau(&out, 0, 1), Some((1, 1.0)));
        assert_eq!(tau(&out, 0, 2), Some((2, 1.0)));
        assert_eq!(tau(&out, 0, 3), Some((3, 1.0)));
        assert_eq!(
            tau(&out, 0, 0),
            Some((0, 1.0)),
            "diagonal is the trivial path"
        );
    }

    #[test]
    fn diamond_multiplicities() {
        let g = Graph::unweighted(4, true, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let out = mfbf_seq(&g, &[0]);
        assert_eq!(tau(&out, 0, 3), Some((2, 2.0)));
    }

    #[test]
    fn weighted_distances_and_ties() {
        // 0→3: direct w=4 (one edge) vs 0→1→2→3 w=1+1+2=4 → σ̄ = 2.
        let g = Graph::new(
            4,
            true,
            vec![
                (0, 3, Dist::new(4)),
                (0, 1, Dist::new(1)),
                (1, 2, Dist::new(1)),
                (2, 3, Dist::new(2)),
            ],
        );
        let out = mfbf_seq(&g, &[0]);
        assert_eq!(tau(&out, 0, 3), Some((4, 2.0)));
        assert_eq!(tau(&out, 0, 2), Some((2, 1.0)));
    }

    #[test]
    fn weighted_correction_rounds() {
        // A long direct edge first sets τ(0,2)=10, later corrected to
        // 5 via the two-hop route — the weighted re-frontier case.
        let g = Graph::new(
            3,
            true,
            vec![
                (0, 2, Dist::new(10)),
                (0, 1, Dist::new(2)),
                (1, 2, Dist::new(3)),
            ],
        );
        let out = mfbf_seq(&g, &[0]);
        assert_eq!(tau(&out, 0, 2), Some((5, 1.0)));
        assert!(out.iterations >= 1);
    }

    #[test]
    fn cycle_back_to_source() {
        // Triangle: a finite cycle back to the source must not create
        // a diagonal entry (σ̄(s,s) stays implicit).
        let g = Graph::unweighted(3, true, vec![(0, 1), (1, 2), (2, 0)]);
        let out = mfbf_seq(&g, &[0]);
        assert_eq!(
            tau(&out, 0, 0),
            Some((0, 1.0)),
            "cycle must not overwrite τ(s,s)=0"
        );
        assert_eq!(tau(&out, 0, 2), Some((2, 1.0)));
    }

    #[test]
    fn multiple_sources_batch() {
        let g = Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]);
        let out = mfbf_seq(&g, &[0, 3, 2]);
        assert_eq!(tau(&out, 0, 3), Some((3, 1.0)));
        assert_eq!(tau(&out, 1, 0), Some((3, 1.0))); // row 1 = source 3
        assert_eq!(tau(&out, 2, 0), Some((2, 1.0))); // row 2 = source 2
    }

    #[test]
    fn unreachable_stays_absent() {
        let g = Graph::unweighted(4, true, vec![(0, 1), (2, 3)]);
        let out = mfbf_seq(&g, &[0]);
        assert_eq!(out.t.get(0, 2), None);
        assert_eq!(out.t.get(0, 3), None);
    }

    #[test]
    fn empty_batch() {
        let g = Graph::unweighted(3, false, vec![(0, 1)]);
        let out = mfbf_seq(&g, &[]);
        assert_eq!(out.t.nrows(), 0);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn frontier_volume_bounded_unweighted() {
        // Unweighted: each vertex appears in exactly one frontier per
        // source (§5.3) — so Σ nnz(Fᵢ) ≤ n·n_b.
        let g = Graph::unweighted(8, false, (0..7).map(|i| (i, i + 1)));
        let out = mfbf_seq(&g, &[0, 4]);
        assert!(
            out.frontier_nnz <= (8 * 2) as u64,
            "got {}",
            out.frontier_nnz
        );
    }
}
