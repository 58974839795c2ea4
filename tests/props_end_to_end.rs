//! Property-based end-to-end tests: MFBC (sequential and
//! distributed) equals the Brandes oracles on arbitrary random
//! graphs — weighted, directed, disconnected, multi-component.

#![allow(clippy::needless_range_loop)]

use mfbc::prelude::*;
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;

const CASES: usize = 48;

#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    directed: bool,
    edges: Vec<(usize, usize, u64)>,
}

/// A graph on `3..max_n` vertices, directed or not, with up to `3n`
/// random edges of weight `1..=8`.
fn graph_spec(rng: &mut SplitMix64, max_n: usize) -> GraphSpec {
    let n = rng.range(3, max_n - 1);
    let directed = rng.chance(1, 2);
    let targets = rng.below(3 * n);
    let edges = gen::erdos_renyi(rng, n, targets, 8);
    GraphSpec { n, directed, edges }
}

fn build(spec: &GraphSpec) -> Graph {
    Graph::new(
        spec.n,
        spec.directed,
        spec.edges.iter().map(|&(u, v, w)| (u, v, Dist::new(w))),
    )
}

/// The Brandes oracle for `g`'s weighting.
fn oracle(g: &Graph) -> BcScores {
    if g.is_unit_weighted() {
        brandes_unweighted(g)
    } else {
        brandes_weighted(g)
    }
}

#[test]
fn seq_mfbc_equals_oracle() {
    property("seq_mfbc_equals_oracle", CASES, |rng| {
        let spec = graph_spec(rng, 16);
        let nb = rng.range(1, 5);
        let g = build(&spec);
        let want = oracle(&g);
        let (got, _) = mfbc_seq(&g, nb);
        assert!(
            got.approx_eq(&want, 1e-7),
            "diff {} on {:?}",
            got.max_abs_diff(&want),
            spec
        );
    });
}

#[test]
fn dist_mfbc_equals_oracle() {
    property("dist_mfbc_equals_oracle", CASES, |rng| {
        let spec = graph_spec(rng, 14);
        let p = *rng.pick(&[1, 2, 4, 6]);
        let g = build(&spec);
        let want = oracle(&g);
        let machine = Machine::new(MachineSpec::test(p));
        let run = mfbc_dist(
            &machine,
            &g,
            &MfbcConfig {
                batch_size: Some(5),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            run.scores.approx_eq(&want, 1e-7),
            "p={p}, diff {} on {:?}",
            run.scores.max_abs_diff(&want),
            spec
        );
    });
}

#[test]
fn mfbf_distances_equal_dijkstra() {
    // MFBF's (τ, σ̄) against an independent Dijkstra—the Lemma 4.1
    // property.
    property("mfbf_distances_equal_dijkstra", CASES, |rng| {
        let g = build(&graph_spec(rng, 14));
        let out = mfbf_seq(&g, &[0]);
        let hops = dijkstra_ref(&g, 0);
        for v in 0..g.n() {
            match (out.t.get(0, v), hops[v]) {
                (Some(mp), Some((d, m))) => {
                    assert_eq!(mp.w.raw(), d, "distance mismatch at {v}");
                    assert_eq!(mp.m, m as f64, "multiplicity mismatch at {v}");
                }
                (None, None) => {}
                (a, b) => panic!("reachability mismatch at {v}: {a:?} vs {b:?}"),
            }
        }
    });
}

#[test]
fn brute_force_agreement_on_tiny() {
    property("brute_force_agreement_on_tiny", CASES, |rng| {
        let spec = graph_spec(rng, 7);
        let g = build(&spec);
        let bf = bruteforce_bc(&g);
        let (mf, _) = mfbc_seq(&g, 3);
        assert!(
            mf.approx_eq(&bf, 1e-7),
            "diff {} on {:?}",
            mf.max_abs_diff(&bf),
            spec
        );
    });
}

/// Independent Dijkstra with path counting (no shared code with the
/// oracles or MFBC).
fn dijkstra_ref(g: &Graph, s: usize) -> Vec<Option<(u64, u64)>> {
    let n = g.n();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut count = vec![0u64; n];
    let mut done = vec![false; n];
    dist[s] = Some(0);
    count[s] = 1;
    for _ in 0..n {
        let mut best: Option<(u64, usize)> = None;
        for v in 0..n {
            if !done[v] {
                if let Some(d) = dist[v] {
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, v));
                    }
                }
            }
        }
        let Some((d, v)) = best else { break };
        done[v] = true;
        for (u, w) in g.neighbors(v) {
            let cand = d + w.raw();
            match dist[u] {
                None => {
                    dist[u] = Some(cand);
                    count[u] = count[v];
                }
                Some(du) if cand < du => {
                    dist[u] = Some(cand);
                    count[u] = count[v];
                }
                Some(du) if cand == du => count[u] += count[v],
                _ => {}
            }
        }
    }
    (0..n)
        .map(|v| {
            if v == s {
                dist[v].map(|d| (d, 1))
            } else {
                dist[v].map(|d| (d, count[v]))
            }
        })
        .collect()
}
