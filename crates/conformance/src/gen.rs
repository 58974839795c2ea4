//! Low-level samplers shared by the case generators and by every
//! crate's property tests: sparse coordinate lists and matrices,
//! algebra elements, Erdős–Rényi and R-MAT edge lists, and machine
//! specs with varied α–β constants.
//!
//! All floating-point payloads are kept *integral* (multiplicities
//! 1–3, centrality factors 0–4) or dyadic: additions over them are
//! exact and associative, so every plan's accumulation order produces
//! bit-identical results and the differential checks can demand exact
//! equality instead of tolerances.
//!
//! Recorded conformance seeds replay only while each sampler keeps
//! drawing exactly what it draws today: add a sampler rather than
//! change one.

use crate::rng::SplitMix64;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::{Centpath, Dist, Multpath, MultpathMonoid};
use mfbc_machine::MachineSpec;
use mfbc_sparse::{Coo, Csr};

/// The rank counts the harness exercises: 1 (degenerate), primes with
/// non-power-of-two logs (3, 7), the small powers of two the paper's
/// grids favour, and 16 (where all nine 3D nestings get nontrivial
/// grids and Cannon's `4×4` kicks in).
pub const P_ALL: [usize; 7] = [1, 2, 3, 4, 7, 8, 16];

/// Rank counts with degenerate/adversarial structure only.
pub const P_DEGENERATE: [usize; 4] = [1, 2, 3, 7];

/// Shared-memory pool sizes the harness exercises: the degenerate
/// serial pool, the smallest real pool, and two oversubscribed sizes.
/// Results must be bit-identical across all of them.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// α menus for generated machines (round binary values, so cost
/// arithmetic in assertions stays exact).
pub const ALPHAS: [f64; 3] = [0.5, 1.0, 4.0];

/// β menus for generated machines.
pub const BETAS: [f64; 3] = [0.25, 1.0, 2.0];

/// A random machine spec over `p` ranks with α–β drawn from the
/// menus, unit γ and no memory budget (conformance checks correctness,
/// not OOM behaviour). Serialized accounting and all-to-all
/// redistribution: the overlap dimension is drawn separately by the
/// case generators, last, so older seeds replay identically.
pub fn machine_spec(rng: &mut SplitMix64, p: usize) -> MachineSpec {
    MachineSpec {
        p,
        alpha: *rng.pick(&ALPHAS),
        beta: *rng.pick(&BETAS),
        gamma: 1.0,
        mem_bytes: None,
        overlap: false,
        redist: mfbc_machine::RedistMode::Alltoall,
    }
}

/// A random finite distance in `0..bound`.
pub fn dist(rng: &mut SplitMix64, bound: u64) -> Dist {
    Dist::new(rng.next_u64() % bound)
}

/// A random multpath: finite weight below `bound`, integral
/// multiplicity 1–3 (so `⊕`'s f64 sums stay exact).
pub fn multpath(rng: &mut SplitMix64, bound: u64) -> Multpath {
    Multpath::new(dist(rng, bound), 1.0 + rng.below(3) as f64)
}

/// A random centpath: finite weight below `bound`, integral partial
/// factor 0–4, child counter −2..=3. Occasionally the null element, so
/// laws are exercised at the adjoined identity too.
pub fn centpath(rng: &mut SplitMix64, bound: u64) -> Centpath {
    if rng.chance(1, 8) {
        return Centpath::none();
    }
    Centpath::new(
        dist(rng, bound),
        rng.below(5) as f64,
        rng.below(6) as i64 - 2,
    )
}

/// A distance over the whole domain: weights up to 10⁶, and `∞` one
/// time in ten (the harness's [`dist`] is always finite).
pub fn any_dist(rng: &mut SplitMix64) -> Dist {
    if rng.chance(1, 10) {
        Dist::INF
    } else {
        dist(rng, 1_000_000)
    }
}

/// A multpath over the whole domain: weights and multiplicities up to
/// 10⁶, and each of the adjoined identity [`Multpath::none`] and
/// [`Multpath::trivial`] one time in ten.
pub fn any_multpath(rng: &mut SplitMix64) -> Multpath {
    match rng.below(10) {
        0 => Multpath::none(),
        1 => Multpath::trivial(),
        _ => Multpath::new(dist(rng, 1_000_000), rng.range(1, 999_999) as f64),
    }
}

/// A centpath over the whole domain: weights up to 10⁶, dyadic partial
/// factors up to 625, child counters −1..=99, and the null element one
/// time in nine.
pub fn any_centpath(rng: &mut SplitMix64) -> Centpath {
    if rng.chance(1, 9) {
        return Centpath::none();
    }
    Centpath::new(
        dist(rng, 1_000_000),
        rng.below(10_000) as f64 / 16.0,
        rng.below(101) as i64 - 1,
    )
}

/// `nnz` random coordinates over an `nrows × ncols` index space
/// (duplicates allowed — `Coo::into_csr` merging is part of the
/// surface under test).
pub fn coords(rng: &mut SplitMix64, nrows: usize, ncols: usize, nnz: usize) -> Vec<(usize, usize)> {
    (0..nnz)
        .map(|_| (rng.below(nrows), rng.below(ncols)))
        .collect()
}

/// A random `nrows × ncols` distance matrix from `below(max_nnz)`
/// coordinate draws with weights `1..=49`; duplicates merge by `min`.
pub fn dist_matrix(rng: &mut SplitMix64, nrows: usize, ncols: usize, max_nnz: usize) -> Csr<Dist> {
    let nnz = rng.below(max_nnz);
    let triples: Vec<_> = coords(rng, nrows, ncols, nnz)
        .into_iter()
        .map(|(i, j)| (i, j, Dist::new(1 + rng.next_u64() % 49)))
        .collect();
    Coo::from_triples(nrows, ncols, triples).into_csr::<MinDist>()
}

/// A random `nrows × ncols` multpath matrix (a frontier) from
/// `below(max_nnz)` coordinate draws: weights `0..40`, integral
/// multiplicities `1..=4`; duplicates merge by `⊕`.
pub fn multpath_matrix(
    rng: &mut SplitMix64,
    nrows: usize,
    ncols: usize,
    max_nnz: usize,
) -> Csr<Multpath> {
    let nnz = rng.below(max_nnz);
    let triples: Vec<_> = coords(rng, nrows, ncols, nnz)
        .into_iter()
        .map(|(i, j)| (i, j, Multpath::new(dist(rng, 40), rng.range(1, 4) as f64)))
        .collect();
    Coo::from_triples(nrows, ncols, triples).into_csr::<MultpathMonoid>()
}

/// Erdős–Rényi-style edge list: `targets` random (possibly duplicate)
/// undirected edges over `n` vertices, weights in `1..=wmax`
/// (self-loops are emitted and left for `Graph::new` to drop — that
/// filter is part of the surface under test).
pub fn erdos_renyi(
    rng: &mut SplitMix64,
    n: usize,
    targets: usize,
    wmax: u64,
) -> Vec<(usize, usize, u64)> {
    (0..targets)
        .map(|_| (rng.below(n), rng.below(n), 1 + rng.next_u64() % wmax))
        .collect()
}

/// R-MAT edge list with the Graph500 partition probabilities
/// (A, B, C, D) = (0.57, 0.19, 0.19, 0.05), quantized to integer
/// percentages so the sampler needs no floating-point comparisons.
/// Produces the skewed degree distributions that stress load balance
/// in the distributed layers. Vertex ids are folded into `0..n`.
pub fn rmat(rng: &mut SplitMix64, n: usize, targets: usize, wmax: u64) -> Vec<(usize, usize, u64)> {
    let scale = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
    (0..targets)
        .map(|_| {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..scale {
                let r = rng.below(100);
                let (du, dv) = if r < 57 {
                    (0, 0)
                } else if r < 76 {
                    (0, 1)
                } else if r < 95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = 2 * u + du;
                v = 2 * v + dv;
            }
            (u % n, v % n, 1 + rng.next_u64() % wmax)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_elements_are_valid() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..200 {
            assert!(dist(&mut rng, 30).is_finite());
            let mp = multpath(&mut rng, 30);
            assert!(mp.is_path());
            assert!(mp.m >= 1.0 && mp.m <= 3.0 && mp.m.fract() == 0.0);
            let cp = centpath(&mut rng, 30);
            if !cp.is_none() {
                assert!(cp.p.fract() == 0.0);
            }
        }
    }

    #[test]
    fn edge_lists_stay_in_range() {
        let mut rng = SplitMix64::new(6);
        for (u, v, w) in erdos_renyi(&mut rng, 13, 60, 5) {
            assert!(u < 13 && v < 13 && (1..=5).contains(&w));
        }
        for (u, v, w) in rmat(&mut rng, 13, 60, 5) {
            assert!(u < 13 && v < 13 && (1..=5).contains(&w));
        }
    }

    #[test]
    fn rmat_is_skewed() {
        // The (0.57, .19, .19, .05) recursion concentrates edges on
        // low vertex ids; check the bias is visible.
        let mut rng = SplitMix64::new(9);
        let edges = rmat(&mut rng, 64, 600, 1);
        let low = edges.iter().filter(|&&(u, _, _)| u < 16).count();
        assert!(low > 200, "expected skew toward low ids, got {low}/600");
    }
}
