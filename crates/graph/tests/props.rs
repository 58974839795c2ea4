//! Property tests of the graph layer: constructor invariants,
//! generator guarantees, preprocessing correctness, and I/O
//! round-trips.

use mfbc_algebra::Dist;
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::io::{read_edge_list, write_edge_list};
use mfbc_graph::prep::{random_relabel, randomize_weights, remove_isolated, unweighted_copy};
use mfbc_graph::stats::{bfs_hops, degree_stats, isolated_vertices};
use mfbc_graph::Graph;

const CASES: usize = 64;

/// A graph on `2..max_n` vertices with up to `4n` random edges
/// (self-loops and duplicates included) of weight `1..=49`.
fn graph(rng: &mut SplitMix64, max_n: usize, directed: bool) -> Graph {
    let n = rng.range(2, max_n - 1);
    let targets = rng.below(4 * n);
    let edges = gen::erdos_renyi(rng, n, targets, 49);
    Graph::new(
        n,
        directed,
        edges.into_iter().map(|(u, v, w)| (u, v, Dist::new(w))),
    )
}

/// The adjacency matrix of an undirected graph is symmetric with
/// equal weights both ways.
#[test]
fn undirected_adjacency_is_symmetric() {
    property("undirected_adjacency_is_symmetric", CASES, |rng| {
        let g = graph(rng, 24, false);
        for (u, v, w) in g.adjacency().iter() {
            assert_eq!(g.adjacency().get(v, u), Some(w), "asymmetric at ({u}, {v})");
        }
    });
}

/// No self-loops survive construction, and every stored weight is
/// finite and positive.
#[test]
fn construction_invariants() {
    property("construction_invariants", CASES, |rng| {
        let directed = rng.chance(1, 2);
        let g = graph(rng, 24, directed);
        for (u, v, w) in g.adjacency().iter() {
            assert_ne!(u, v, "self-loop stored");
            assert!(w.is_finite() && *w > Dist::ZERO);
        }
    });
}

/// Relabeling is an isomorphism: degree multiset and BFS
/// reachable-set sizes are invariant.
#[test]
fn relabel_is_isomorphism() {
    property("relabel_is_isomorphism", CASES, |rng| {
        let g = graph(rng, 20, false);
        let r = random_relabel(&g, rng.below(50) as u64);
        assert_eq!(r.n(), g.n());
        assert_eq!(r.m(), g.m());
        let degrees = |g: &Graph| {
            let mut d: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&g), degrees(&r));
        let reachable = |g: &Graph| {
            let mut c: Vec<usize> = (0..g.n())
                .map(|v| bfs_hops(g, v).iter().filter(|&&d| d != usize::MAX).count())
                .collect();
            c.sort_unstable();
            c
        };
        assert_eq!(reachable(&g), reachable(&r));
    });
}

/// After isolated-vertex removal no vertex is isolated, and the
/// arc count is unchanged.
#[test]
fn remove_isolated_is_complete() {
    property("remove_isolated_is_complete", CASES, |rng| {
        let g = graph(rng, 20, true);
        let c = remove_isolated(&g);
        assert_eq!(c.m(), g.m());
        assert!(isolated_vertices(&c).is_empty());
    });
}

/// Weight randomization/stripping preserve structure exactly.
#[test]
fn weight_transforms_preserve_structure() {
    property("weight_transforms_preserve_structure", CASES, |rng| {
        let g = graph(rng, 20, false);
        let w = randomize_weights(&g, rng.range(1, 99) as u64, 7);
        let u = unweighted_copy(&w);
        assert_eq!(w.m(), g.m());
        assert_eq!(u.m(), g.m());
        assert!(u.is_unit_weighted());
        for (a, b, _) in g.adjacency().iter() {
            assert!(w.adjacency().get(a, b).is_some());
        }
    });
}

/// Edge-list round-trip preserves structural invariants.
fn assert_io_round_trips(g: &Graph) {
    let mut buf = Vec::new();
    write_edge_list(g, &mut buf).unwrap();
    let back = read_edge_list(buf.as_slice(), g.directed()).unwrap();
    assert_eq!(back.m(), g.m());
    let (avg_g, max_g) = degree_stats(g);
    let isolated = isolated_vertices(g).len();
    // The reader compacts labels, dropping isolated vertices.
    assert_eq!(back.n(), g.n() - isolated);
    if g.m() > 0 {
        let (avg_b, max_b) = degree_stats(&back);
        assert_eq!(max_g, max_b);
        // Average degree shifts only by the dropped isolated
        // vertices.
        let expected_avg = avg_g * g.n() as f64 / back.n() as f64;
        assert!((avg_b - expected_avg).abs() < 1e-9);
    }
}

#[test]
fn io_round_trip() {
    property("io_round_trip", CASES, |rng| {
        let directed = rng.chance(1, 2);
        assert_io_round_trips(&graph(rng, 16, directed));
    });
}

/// The one failure a shrinking run once recorded for these properties:
/// two vertices, no edges, undirected — every vertex isolated, so the
/// round trip reads back an empty graph.
#[test]
fn edgeless_pair_round_trips_and_constructs_cleanly() {
    let g = Graph::new(2, false, std::iter::empty());
    assert_eq!((g.n(), g.m()), (2, 0));
    assert_eq!(g.adjacency().iter().count(), 0);
    assert_io_round_trips(&g);
}

#[test]
fn generators_have_no_isolated_surprises() {
    // R-MAT may generate isolated vertices (the paper removes them);
    // uniform graphs at reasonable density rarely do. Either way the
    // preprocessing must make BC well-defined.
    let g = remove_isolated(&rmat(&RmatConfig::paper(9, 4, 3)));
    assert!(isolated_vertices(&g).is_empty());
    let u = uniform(500, 2000, false, None, 4);
    let c = remove_isolated(&u);
    assert!(isolated_vertices(&c).is_empty());
}
