//! Connected components via algebraic label propagation — a worked
//! instance of the paper's extensibility claim ("Our design
//! methodology is readily extensible to other graph problems", §1/§8).
//!
//! Components are computed by iterating `x ← x •⟨min,·⟩ A` over the
//! *min-label* structure: each vertex holds a candidate component
//! label (initially its own id), and every product propagates the
//! smallest label across edges — MFBF's maximal-frontier sweep,
//! [`crate::sweep::sweep`], with [`LabelKernel`] and the
//! [`crate::sweep::improved`] frontier rule. Converges in
//! `O(component diameter)` iterations, on one rank of the simulated
//! machine (the one [`Simulated::sequential`] builds). The label table
//! never masks: it starts full, so the complement of its pattern would
//! exclude every product.

use crate::backend::Simulated;
use crate::seq::quietly;
use crate::sweep::{improved, sweep};
use mfbc_algebra::monoid::{CommutativeMonoid, MinDist, Monoid};
use mfbc_algebra::{Dist, SpMulKernel};
use mfbc_graph::Graph;
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::Coo;

/// `(u64, min)` monoid over labels with `u64::MAX` as "no label".
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MinLabel;

impl Monoid for MinLabel {
    type Elem = u64;

    #[inline]
    fn combine(a: &u64, b: &u64) -> u64 {
        *a.min(b)
    }

    #[inline]
    fn identity() -> u64 {
        u64::MAX
    }
}

impl CommutativeMonoid for MinLabel {}

/// Label-propagation kernel: a frontier of labels times the adjacency
/// structure, keeping minima. Edge weights are ignored — only
/// connectivity matters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LabelKernel;

impl SpMulKernel for LabelKernel {
    type Left = u64;
    type Right = Dist;
    type Acc = MinLabel;

    #[inline]
    fn mul(a: &u64, b: &Dist) -> Option<u64> {
        if *a == u64::MAX || !b.is_finite() {
            None
        } else {
            Some(*a)
        }
    }
}

/// Weakly-connected component labels: `labels[v]` is the smallest
/// vertex id reachable from `v` treating edges as undirected. Two
/// vertices share a component iff their labels are equal; isolated
/// vertices are their own components.
pub fn connected_components(g: &Graph) -> Vec<u64> {
    let n = g.n();
    // Work on the symmetrized structure (weak connectivity).
    let symmetrized;
    let g = if g.directed() {
        let adj = combine::<MinDist, _>(g.adjacency(), &g.adjacency_t());
        symmetrized = Graph::from_adjacency(adj, false);
        &symmetrized
    } else {
        g
    };
    // Labels as a 1 × n row, x(0, v) = v: the table and the first
    // frontier.
    let labels = Coo::from_triples(1, n, (0..n).map(|v| (0, v, v as u64)));
    let labels = labels.into_csr::<MinLabel>();
    let labels = quietly(|| {
        let mut be = Simulated::one_rank(g, false);
        let labels = be.place(labels);
        sweep::<LabelKernel>(&mut be, "components", labels, None, improved)
    });
    let labels = labels.0.into_block();
    (0..n)
        .map(|v| *labels.get(0, v).expect("every vertex keeps a label"))
        .collect()
}

/// Number of weakly-connected components.
pub fn component_count(g: &Graph) -> usize {
    let labels = connected_components(g);
    let mut uniq = labels;
    uniq.sort_unstable();
    uniq.dedup();
    uniq.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_graph::gen::uniform;
    use mfbc_graph::stats::bfs_hops;

    #[test]
    fn two_paths_and_an_isolate() {
        let g = Graph::unweighted(7, false, vec![(0, 1), (1, 2), (4, 5), (5, 6)]);
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(labels[3], 3, "isolate keeps its own id");
        assert_eq!(component_count(&g), 3);
    }

    #[test]
    fn directed_edges_connect_weakly() {
        let g = Graph::unweighted(4, true, vec![(0, 1), (2, 1), (3, 2)]);
        assert_eq!(component_count(&g), 1);
    }

    #[test]
    fn labels_are_component_minima() {
        let g = Graph::unweighted(6, false, vec![(5, 3), (3, 4), (1, 2)]);
        let labels = connected_components(&g);
        assert_eq!(labels[5], 3);
        assert_eq!(labels[4], 3);
        assert_eq!(labels[2], 1);
        assert_eq!(labels[0], 0);
    }

    #[test]
    fn matches_bfs_reachability_on_random_graphs() {
        for seed in 0..4 {
            let g = uniform(60, 80, false, None, seed);
            let labels = connected_components(&g);
            for v in 0..g.n() {
                let hops = bfs_hops(&g, v);
                for u in 0..g.n() {
                    let connected = hops[u] != usize::MAX;
                    assert_eq!(labels[u] == labels[v], connected, "seed {seed}: ({v},{u})");
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::unweighted(0, false, Vec::<(usize, usize)>::new());
        assert!(connected_components(&g).is_empty());
        assert_eq!(component_count(&g), 0);
    }
}
