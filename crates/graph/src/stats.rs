//! Graph statistics: degrees, BFS distances, effective diameter,
//! reachability — the quantities Table 2 reports and the TEPS metric
//! needs.

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Degree summary: `(average ρ, maximum ρ̂)`.
pub fn degree_stats(g: &Graph) -> (f64, usize) {
    let max = (0..g.n()).map(|v| g.degree(v)).max().unwrap_or(0);
    (g.avg_degree(), max)
}

/// Unweighted BFS hop distances from `src` (`usize::MAX` for
/// unreachable vertices).
pub fn bfs_hops(g: &Graph, src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[src] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        let dv = dist[v];
        for (u, _) in g.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dv + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

/// Sampled effective diameter: the maximum BFS eccentricity over
/// `samples` random sources (a lower bound on the true diameter `d`;
/// the paper's Table 2 uses SNAP's 90-percentile analogue — this
/// sampled max plays the same "how many frontier iterations" role).
pub fn effective_diameter(g: &Graph, samples: usize, seed: u64) -> usize {
    if g.n() == 0 {
        return 0;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vertices: Vec<usize> = (0..g.n()).collect();
    vertices.shuffle(&mut rng);
    let mut best = 0;
    for &src in vertices.iter().take(samples.max(1)) {
        let ecc = bfs_hops(g, src)
            .into_iter()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0);
        best = best.max(ecc);
    }
    best
}

/// Vertices with no incident arcs in either direction — what the
/// paper's preprocessing removes ("preprocessed all graphs to remove
/// completely disconnected vertices", §7.1).
pub fn isolated_vertices(g: &Graph) -> Vec<usize> {
    let mut touched = vec![false; g.n()];
    for (i, j, _) in g.adjacency().iter() {
        touched[i] = true;
        touched[j] = true;
    }
    (0..g.n()).filter(|&v| !touched[v]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::unweighted(n, false, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_hops(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_hops(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn diameter_of_path() {
        let g = path_graph(10);
        // Sampling every vertex gives the exact diameter.
        assert_eq!(effective_diameter(&g, 10, 1), 9);
    }

    #[test]
    fn unreachable_vertices() {
        let g = Graph::unweighted(4, true, vec![(0, 1)]);
        let d = bfs_hops(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], usize::MAX);
        assert_eq!(d.iter().filter(|&&h| h != usize::MAX).count(), 2);
    }

    #[test]
    fn isolated_detection() {
        let g = Graph::unweighted(5, false, vec![(0, 1), (3, 0)]);
        assert_eq!(isolated_vertices(&g), vec![2, 4]);
    }

    #[test]
    fn degree_stats_basic() {
        let g = Graph::unweighted(4, false, vec![(0, 1), (0, 2), (0, 3)]);
        let (avg, max) = degree_stats(&g);
        assert_eq!(max, 3);
        assert_eq!(avg, 1.5);
    }
}
