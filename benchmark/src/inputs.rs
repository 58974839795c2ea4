//! Seeded inputs and the timing primitives every workload shares.
//! The program under test receives only the generated inputs; the
//! seed stays in the harness.

use crate::decl::Sizes;
use crate::stats::median;
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::prep::{randomize_weights, remove_isolated};
use mfbc_graph::Graph;
use std::time::Instant;

/// The R-MAT strong-scaling input of the paper's Fig. 1(c), isolated
/// vertices removed as its §7.1 preprocessing does.
pub fn rmat_graph(sizes: &Sizes, seed: u64) -> Graph {
    remove_isolated(&rmat(&RmatConfig::paper(sizes.rmat_scale, 8, seed)))
}

/// A road-like input: a `side × side` grid with seeded weights 1..=4.
/// High diameter, hypersparse frontiers, weighted re-relaxation.
pub fn road_graph(sizes: &Sizes, seed: u64) -> Graph {
    let side = sizes.grid_side;
    let mut edges = Vec::with_capacity(2 * side * side);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                edges.push((v, v + 1));
            }
            if r + 1 < side {
                edges.push((v, v + side));
            }
        }
    }
    randomize_weights(&Graph::unweighted(side * side, false, edges), 4, seed)
}

/// The uniform random graph the serve workloads answer queries on.
pub fn serve_graph(sizes: &Sizes, seed: u64) -> Graph {
    uniform(sizes.serve_n, sizes.serve_m, false, None, seed)
}

/// Times `f`. With `delay_pct > 0` the harness then spins for that
/// share of the measured time and counts it in: an injected slowdown
/// of known size, used to show that `compare` sees one.
pub fn timed<R>(delay_pct: f64, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let ran = start.elapsed().as_secs_f64();
    let until = ran * (1.0 + delay_pct / 100.0);
    while start.elapsed().as_secs_f64() < until {
        std::hint::spin_loop();
    }
    (out, start.elapsed().as_secs_f64())
}

/// Fewest timed repetitions a reported median may rest on.
pub const MIN_REPS: usize = 3;

/// Set-up is milliseconds of work, so a burst of it — at most this
/// many repetitions or this many seconds — runs before every timed
/// repetition, and the median over all bursts is reported.
const SETUP_BURST_REPS: usize = 10;
const SETUP_BURST_S: f64 = 0.015;

/// The samples of one measurement window.
pub struct Measured {
    /// Seconds per repetition.
    pub wall_s: Vec<f64>,
    /// Each repetition's seconds over the mean of the reference calls
    /// made just before and just after it.
    pub vs_reference: Vec<f64>,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
}

/// Repeats `rep` (which returns its own measured seconds) until
/// `seconds` have passed and at least [`MIN_REPS`] samples exist, with
/// a burst of `setup` and one call of `reference` between repetitions.
///
/// The sandbox's speed shifts by 10–20 % for seconds at a time (shared
/// cores). A fixed reference computation timed next to each repetition
/// shifts with it, so the ratio of the two holds still where the raw
/// seconds do not; and set-up sampled across the whole window sees
/// every speed the window saw, not only the one it started in.
pub fn measure<S, R>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut reference: impl FnMut() -> R,
    mut rep: impl FnMut() -> f64,
) -> Measured {
    let started = Instant::now();
    let mut m = Measured {
        wall_s: Vec::new(),
        vs_reference: Vec::new(),
        setup_s: Vec::new(),
    };
    let mut before = timed(0.0, &mut reference).1;
    while m.wall_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let burst = Instant::now();
        for _ in 0..SETUP_BURST_REPS {
            m.setup_s.push(timed(0.0, &mut setup).1);
            if burst.elapsed().as_secs_f64() > SETUP_BURST_S {
                break;
            }
        }
        let wall = rep();
        let after = timed(0.0, &mut reference).1;
        m.wall_s.push(wall);
        m.vs_reference.push(wall / ((before + after) / 2.0));
        before = after;
    }
    m
}

/// Median seconds of `reps` calls to `f`, for probes.
pub fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(0.0, &mut f).1).collect();
    median(&samples)
}
