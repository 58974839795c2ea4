//! R-MAT recursive power-law graph generator (Chakrabarti, Zhan,
//! Faloutsos 2004) — the paper's synthetic strong-scaling workload
//! (§7.2: "R-MAT graphs, for both of which log₂(n) ≈ S = 22, while
//! the average degree is controlled by k ≈ E ∈ {8, 128}").

use crate::graph::Graph;
use crate::prep::random_relabel;
use mfbc_algebra::Dist;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// R-MAT parameters.
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// Scale: `n = 2^scale` vertices.
    pub scale: u32,
    /// Edge factor: `edge_factor · n` edge samples.
    pub edge_factor: usize,
    /// Quadrant probabilities `(a, b, c)`; `d = 1 − a − b − c`.
    /// Graph500 defaults `(0.57, 0.19, 0.19)`.
    pub probs: (f64, f64, f64),
    /// Whether to produce a directed graph.
    pub directed: bool,
    /// Random integer weights drawn uniformly from `[1, w]`; `None`
    /// for unweighted (the paper's weighted runs use `[1, 100]`).
    pub weights: Option<u64>,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl RmatConfig {
    /// The paper's R-MAT setup: scale `s`, average degree `e`,
    /// Graph500 skew, undirected, unweighted.
    pub fn paper(s: u32, e: usize, seed: u64) -> RmatConfig {
        RmatConfig {
            scale: s,
            edge_factor: e,
            probs: (0.57, 0.19, 0.19),
            directed: false,
            weights: None,
            seed,
        }
    }
}

/// Generates an R-MAT graph. Vertex labels are randomly permuted
/// afterwards so that block decompositions are load-balanced (the
/// §5.2 randomized-order assumption).
pub fn rmat(cfg: &RmatConfig) -> Graph {
    let n = 1usize << cfg.scale;
    let target = cfg.edge_factor * n;
    let (a, b, c) = cfg.probs;
    let d = 1.0 - a - b - c;
    assert!(d >= 0.0, "quadrant probabilities exceed 1");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    let mut edges = Vec::with_capacity(target);
    for _ in 0..target {
        let (mut lo_i, mut hi_i) = (0usize, n);
        let (mut lo_j, mut hi_j) = (0usize, n);
        while hi_i - lo_i > 1 {
            // Per-level probability noise keeps the degree
            // distribution from collapsing onto exact powers.
            let r: f64 = rng.gen();
            let (top, left) = if r < a {
                (true, true)
            } else if r < a + b {
                (true, false)
            } else if r < a + b + c {
                (false, true)
            } else {
                (false, false)
            };
            let mid_i = (lo_i + hi_i) / 2;
            let mid_j = (lo_j + hi_j) / 2;
            if top {
                hi_i = mid_i;
            } else {
                lo_i = mid_i;
            }
            if left {
                hi_j = mid_j;
            } else {
                lo_j = mid_j;
            }
        }
        if lo_i != lo_j {
            let w = match cfg.weights {
                Some(wmax) => Dist::new(rng.gen_range(1..=wmax)),
                None => Dist::ONE,
            };
            edges.push((lo_i, lo_j, w));
        }
    }

    let g = Graph::new(n, cfg.directed, edges);
    random_relabel(&g, cfg.seed ^ 0x5eed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_roughly_target_edges() {
        let g = rmat(&RmatConfig::paper(10, 8, 1));
        assert_eq!(g.n(), 1024);
        // Duplicates/self-loops shave some edges off; undirected
        // doubling adds arcs.
        let arcs = g.m();
        assert!(arcs > 8 * 1024, "too few arcs: {arcs}");
        assert!(arcs <= 2 * 8 * 1024, "too many arcs: {arcs}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = rmat(&RmatConfig::paper(8, 4, 42));
        let b = rmat(&RmatConfig::paper(8, 4, 42));
        assert_eq!(a.adjacency(), b.adjacency());
        let c = rmat(&RmatConfig::paper(8, 4, 43));
        assert_ne!(a.adjacency(), c.adjacency());
    }

    #[test]
    fn skew_produces_heavy_tail() {
        let g = rmat(&RmatConfig::paper(12, 16, 7));
        let max_deg = (0..g.n()).map(|v| g.degree(v)).max().unwrap();
        let avg = g.avg_degree();
        assert!(
            (max_deg as f64) > 8.0 * avg,
            "power-law tail missing: max {max_deg}, avg {avg}"
        );
    }

    #[test]
    fn weighted_weights_in_range() {
        let g = rmat(&RmatConfig {
            weights: Some(100),
            ..RmatConfig::paper(8, 4, 11)
        });
        assert!(!g.is_unit_weighted());
        for (_, _, w) in g.adjacency().iter() {
            let raw = w.raw();
            assert!((1..=100).contains(&raw), "weight {raw} out of range");
        }
    }

    #[test]
    fn directed_variant() {
        let cfg = RmatConfig {
            directed: true,
            ..RmatConfig::paper(8, 4, 5)
        };
        let g = rmat(&cfg);
        assert!(g.directed());
    }
}
