//! MFBr — Maximal Frontier Brandes (Algorithm 2), sequential:
//! [`crate::sweep::backward`] on one rank.

use crate::backend::Simulated;
use crate::seq::quietly;
use crate::sweep::backward;
use mfbc_algebra::{Centpath, Multpath};
use mfbc_graph::Graph;
use mfbc_sparse::Csr;

/// Result of a sequential MFBr run.
#[derive(Clone, Debug)]
pub struct MfbrOut {
    /// `Z(s,v).p = ζ(s,v)` on the sparsity pattern of `T`.
    pub z: Csr<Centpath>,
    /// Backward-sweep iterations.
    pub iterations: usize,
    /// `Σᵢ nnz(Fᵢ)` over backward frontiers.
    pub frontier_nnz: u64,
    /// Total elementary back-propagations (`ops`).
    pub ops: u64,
}

/// Runs Algorithm 2: `Z = MFBr(A, T)`.
pub fn mfbr_seq(g: &Graph, t: &Csr<Multpath>) -> MfbrOut {
    let (z, st) = quietly(|| {
        let mut be = Simulated::sequential(g);
        let t = be.place(t);
        backward(&mut be, &t)
    });
    MfbrOut {
        z: z.into_block(),
        iterations: st.iterations,
        frontier_nnz: st.frontier_nnz,
        ops: st.ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::mfbf::mfbf_seq;
    use mfbc_algebra::Dist;
    use mfbc_graph::Graph;

    fn zeta(g: &Graph, src: usize) -> (Csr<Multpath>, Csr<Centpath>) {
        let t = mfbf_seq(g, &[src]).t;
        let z = mfbr_seq(g, &t).z;
        (t, z)
    }

    #[test]
    fn path_graph_factors() {
        // 0-1-2-3 from source 0: ζ(0,v) = δ(0,v)/σ̄ with σ̄ = 1:
        // δ(0,1)=2 (vertices 2,3 beyond... δ counts Σ_t σ(0,t,1)/σ̄ =
        // paths to 2 and 3) → ζ(0,1)=2; ζ(0,2)=1; ζ(0,3)=0.
        let g = Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]);
        let (_, z) = zeta(&g, 0);
        assert_eq!(z.get(0, 1).unwrap().p, 2.0);
        assert_eq!(z.get(0, 2).unwrap().p, 1.0);
        assert_eq!(z.get(0, 3).unwrap().p, 0.0);
    }

    #[test]
    fn diamond_factors() {
        // 0→{1,2}→3: σ̄(0,3)=2; δ(0,1)=δ(0,2)=1/2; ζ = δ/σ̄ = 1/2.
        let g = Graph::unweighted(4, true, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (t, z) = zeta(&g, 0);
        assert_eq!(t.get(0, 3).unwrap().m, 2.0);
        assert_eq!(z.get(0, 1).unwrap().p, 0.5);
        assert_eq!(z.get(0, 2).unwrap().p, 0.5);
        assert_eq!(z.get(0, 3).unwrap().p, 0.0);
    }

    #[test]
    fn counters_are_pinned_after_firing() {
        let g = Graph::unweighted(4, false, vec![(0, 1), (1, 2), (2, 3)]);
        let (_, z) = zeta(&g, 0);
        for (_, _, c) in z.iter() {
            assert_eq!(c.c, -1, "every reachable vertex fires exactly once");
        }
    }

    #[test]
    fn weighted_unequal_hops() {
        // Two equal-weight 0→3 routes with different hop counts: the
        // counter mechanism must wait for the longer route's leaf.
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
        let (t, z) = zeta(&g, 0);
        assert_eq!(t.get(0, 3).unwrap().m, 2.0);
        // δ(0,1) = 1 (for t=2) + 1/2 (half of the two (0,3) paths);
        // ζ(0,1) = δ/σ̄(0,1) = 1.5. δ(0,2) = 1/2 likewise.
        assert_eq!(z.get(0, 1).unwrap().p, 1.5);
        assert_eq!(z.get(0, 2).unwrap().p, 0.5);
    }

    #[test]
    fn edge_into_unreachable_region_is_inert() {
        // 2→1 exists but 2 is unreachable from 0; back-propagation
        // along (1,2) must not materialize state for (0,2).
        let g = Graph::unweighted(3, true, vec![(0, 1), (2, 1)]);
        let (_, z) = zeta(&g, 0);
        assert_eq!(z.get(0, 2), None);
        assert_eq!(z.get(0, 1).unwrap().p, 0.0);
        // The source's own factor accumulates its child's report but
        // is excluded from λ by Algorithm 3.
        assert!(z.get(0, 0).is_some());
    }

    #[test]
    fn iteration_count_matches_tree_depth() {
        let g = Graph::unweighted(5, false, (0..4).map(|i| (i, i + 1)));
        let t = mfbf_seq(&g, &[0]).t;
        let out = mfbr_seq(&g, &t);
        // Path of 4 edges: leaves fire, then 3 more propagation
        // rounds reach the root's child.
        assert!(out.iterations <= 5, "iterations = {}", out.iterations);
        assert!(
            out.frontier_nnz <= 5,
            "each vertex (incl. the source) fires once"
        );
    }
}
