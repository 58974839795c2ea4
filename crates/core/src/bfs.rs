//! Algebraic breadth-first search and single-source shortest paths —
//! the paper's introductory example (§2.3): "BFS can be expressed as
//! iterative multiplication of the sparse adjacency matrix A with a
//! sparse vector xᵢ over the tropical semiring".
//!
//! Exposed as batched (multi-source) operations on the same
//! distributed machinery as MFBC: a batch of sources is an
//! `n_b × n` tropical frontier matrix, each iteration one
//! generalized product. These are useful library citizens in their
//! own right (distance queries, reachability) and double as a gentle
//! on-ramp to the MFBC code.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::elementwise::combine;
use mfbc_sparse::{spgemm, Coo, Csr};
use mfbc_tensor::autotune::{best_plan, stats_for_masked};
use mfbc_tensor::cache::MmCache;
use mfbc_tensor::ops::{dmat_combine, dmat_zip_filter, nnz_sync};
use mfbc_tensor::{canonical_layout, mm_exec_cached_masked, DistMat};

/// Distances from each source in `sources` to every vertex:
/// `out.get(s, v) == Some(τ(sources[s], v))` for reachable `v ≠
/// sources[s]`, diagonal entries are 0. Plain tropical Bellman–Ford
/// (no multiplicities) on CSR — the §2.3 loop.
pub fn sssp_seq(g: &Graph, sources: &[usize]) -> Csr<Dist> {
    let n = g.n();
    let nb = sources.len();
    let a = g.adjacency();

    let mut seeds = Coo::new(nb, n);
    for (s, &src) in sources.iter().enumerate() {
        assert!(src < n, "source {src} out of range");
        seeds.push(s, src, Dist::ZERO);
    }
    let mut dist = seeds.into_csr::<MinDist>();
    let mut frontier = dist.clone();

    while !frontier.is_empty() {
        let explored = spgemm::<TropicalKernel>(&frontier, a).mat;
        let updated = combine::<MinDist, _>(&dist, &explored);
        // Next frontier: entries that improved the table.
        frontier =
            explored.filter(|s, v, w| updated.get(s, v) == Some(w) && dist.get(s, v) != Some(w));
        dist = updated;
    }
    dist
}

/// Distributed batched SSSP over the simulated machine, with
/// autotuned products and the amortized adjacency cache — the
/// "BFS primitive" most prior BC parallelizations build on, here as
/// a two-line specialization of the MFBC machinery.
pub fn sssp_dist(
    machine: &Machine,
    g: &Graph,
    sources: &[usize],
) -> Result<DistMat<Dist>, MachineError> {
    let n = g.n();
    let nb = sources.len();
    let da = DistMat::from_global(canonical_layout(machine, n, n), g.adjacency());
    da.charge_memory(machine)?;
    let mut cache = MmCache::new();

    let mut seeds = Coo::new(nb, n);
    for (s, &src) in sources.iter().enumerate() {
        assert!(src < n, "source {src} out of range");
        seeds.push(s, src, Dist::ZERO);
    }
    let layout = canonical_layout(machine, nb, n);
    let mut dist = DistMat::from_global(layout, &seeds.into_csr::<MinDist>());
    let mut frontier = dist.clone();

    let result = (|| {
        while nnz_sync(machine, &frontier)? > 0 {
            let explored = {
                let _span = mfbc_trace::span(|| "mm_auto".to_string());
                let st = stats_for_masked::<TropicalKernel>(&frontier, &da, None);
                let plan = best_plan(machine.spec(), &st).0;
                mm_exec_cached_masked::<TropicalKernel>(
                    machine, &plan, &frontier, &da, None, &mut cache,
                )?
            };
            let updated = dmat_combine::<MinDist, _>(machine, &dist, &explored.c);
            frontier = dmat_zip_filter::<MinDist, _, _, _>(
                machine,
                &explored.c,
                &updated,
                |gi, gj, w, u| {
                    let improved = u == Some(w) && dist_lookup(&dist, gi, gj) != Some(*w);
                    improved.then_some(*w)
                },
            );
            dist = updated;
        }
        Ok(dist)
    })();
    cache.release_all(machine);
    da.release_memory(machine);
    result
}

/// Global-coordinate lookup into a distributed matrix (helper for the
/// frontier filter; block-local `get` after locating the block).
fn dist_lookup(m: &DistMat<Dist>, gi: usize, gj: usize) -> Option<Dist> {
    let l = m.layout();
    let bi = l.find_row_block(gi);
    let bj = l.find_col_block(gj);
    m.block(bi, bj)
        .get(gi - l.row_range(bi).start, gj - l.col_range(bj).start)
        .copied()
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
