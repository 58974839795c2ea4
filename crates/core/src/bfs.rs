//! Algebraic breadth-first search and single-source shortest paths —
//! the paper's introductory example (§2.3): "BFS can be expressed as
//! iterative multiplication of the sparse adjacency matrix A with a
//! sparse vector xᵢ over the tropical semiring".
//!
//! Batched (multi-source): a batch of sources is an `n_b × n`
//! tropical frontier matrix, and each superstep one generalized
//! product of it into the distance table — [`crate::sweep::sweep`],
//! the superstep driver MFBF runs, with [`TropicalKernel`] and the
//! [`crate::sweep::improved`] frontier rule, on one rank or many. The
//! table masks wherever MFBF's does: on unit weights a rediscovery can
//! never improve a distance.

use crate::backend::Simulated;
use crate::seq::quietly;
use crate::sweep::{improved, sweep};
use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::{Coo, Csr};
use mfbc_tensor::DistMat;

/// Distances from each source in `sources` to every vertex:
/// `out.get(s, v) == Some(τ(sources[s], v))` for reachable `v ≠
/// sources[s]`, diagonal entries are 0. Plain tropical Bellman–Ford
/// (no multiplicities) — the §2.3 iteration — on one rank
/// ([`Simulated::sequential`]).
pub fn sssp_seq(g: &Graph, sources: &[usize]) -> Csr<Dist> {
    quietly(|| sssp(&mut Simulated::sequential(g), g.n(), sources)).into_block()
}

/// Distributed batched SSSP over the simulated machine, with
/// autotuned products and the amortized adjacency cache: [`sssp_seq`]
/// on [`Simulated`]. The distances are handed back, not kept
/// resident: every rank's meter returns to where it was, failure or
/// not.
pub fn sssp_dist(
    machine: &Machine,
    g: &Graph,
    sources: &[usize],
) -> Result<DistMat<Dist>, MachineError> {
    let mark = machine.memory_snapshot();
    let dist = Simulated::new(machine, g, None, true, g.is_unit_weighted()).and_then(|mut be| {
        let dist = sssp(&mut be, g.n(), sources);
        be.close();
        dist
    });
    machine.restore_memory(&mark);
    dist
}

/// The distance table of `sources` on `be`: seeded with the `(s,
/// sources[s]) = 0` diagonal, which is also the first frontier.
fn sssp(be: &mut Simulated, n: usize, sources: &[usize]) -> Result<DistMat<Dist>, MachineError> {
    let mut seeds = Coo::new(sources.len(), n);
    for (s, &src) in sources.iter().enumerate() {
        assert!(src < n, "source {src} out of range");
        seeds.push(s, src, Dist::ZERO);
    }
    let seeds = be.place(seeds.into_csr::<MinDist>());
    let (dist, _) = sweep::<TropicalKernel>(be, "sssp", seeds, None, improved)?;
    Ok(dist)
}

/// Hop distances (unweighted BFS levels) from one source, as a plain
/// vector: `None` for unreachable vertices.
pub fn bfs_levels(g: &Graph, source: usize) -> Vec<Option<u64>> {
    assert!(
        g.is_unit_weighted(),
        "bfs_levels requires unit weights; use sssp_seq"
    );
    let d = sssp_seq(g, &[source]);
    (0..g.n()).map(|v| d.get(0, v).map(|w| w.raw())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_graph::stats::bfs_hops;
    use mfbc_machine::MachineSpec;

    #[test]
    fn sssp_matches_graph_bfs_on_unweighted() {
        let g = Graph::unweighted(
            8,
            false,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4), (6, 7)],
        );
        let levels = bfs_levels(&g, 0);
        let reference = bfs_hops(&g, 0);
        for v in 0..g.n() {
            match (levels[v], reference[v]) {
                (Some(d), r) => assert_eq!(d as usize, r, "vertex {v}"),
                (None, r) => assert_eq!(r, usize::MAX, "vertex {v}"),
            }
        }
    }

    #[test]
    fn weighted_sssp_finds_cheapest_route() {
        let g = Graph::new(
            4,
            true,
            vec![
                (0, 1, Dist::new(1)),
                (1, 2, Dist::new(1)),
                (0, 2, Dist::new(5)),
                (2, 3, Dist::new(1)),
            ],
        );
        let d = sssp_seq(&g, &[0]);
        assert_eq!(d.get(0, 2), Some(&Dist::new(2)));
        assert_eq!(d.get(0, 3), Some(&Dist::new(3)));
    }

    #[test]
    fn batched_sources() {
        let g = Graph::unweighted(5, false, (0..4).map(|i| (i, i + 1)));
        let d = sssp_seq(&g, &[0, 4]);
        assert_eq!(d.get(0, 4), Some(&Dist::new(4)));
        assert_eq!(d.get(1, 0), Some(&Dist::new(4)));
        assert_eq!(d.get(1, 2), Some(&Dist::new(2)));
    }

    #[test]
    fn dist_sssp_matches_seq() {
        let g = mfbc_graph::gen::uniform(40, 140, true, Some(9), 3);
        let want = sssp_seq(&g, &[0, 5, 11]);
        for p in [1usize, 4] {
            let machine = Machine::new(MachineSpec::test(p));
            let got = sssp_dist(&machine, &g, &[0, 5, 11])
                .unwrap()
                .to_global::<MinDist>();
            assert_eq!(got, want, "p={p}");
            if p > 1 {
                assert!(machine.report().critical.comm_time > 0.0);
            }
        }
    }
}
