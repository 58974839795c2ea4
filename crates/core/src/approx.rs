//! Approximate betweenness centrality by source sampling.
//!
//! The paper's motivation cites Bader et al.'s adaptive sampling
//! [ref. 4]: exact BC runs Brandes from *every* source, but an
//! unbiased estimate from `k` uniformly sampled sources often
//! suffices — and MFBC's batched structure makes sampled execution
//! natural (one batch of `k` sources instead of `n/n_b` batches).
//! The estimator scales each sampled dependency by `n/k`:
//!
//! ```text
//! λ̂(v) = (n/k) · Σ_{s ∈ S} δ(s, v),   S ~ Uniform(V), |S| = k
//! ```
//!
//! which satisfies `E[λ̂(v)] = λ(v)`.

use crate::backend::Simulated;
use crate::scores::BcScores;
use crate::seq::quietly;
use crate::sweep::{backward, forward};
use mfbc_graph::Graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of a sampled run: the estimate plus the sample that
/// produced it (for reproducibility / incremental refinement).
#[derive(Clone, Debug)]
pub struct ApproxBc {
    /// The unbiased estimate `λ̂`.
    pub scores: BcScores,
    /// The sampled source vertices.
    pub sources: Vec<usize>,
}

/// Draws the `k`-source uniform sample every sampled estimator in
/// this crate uses, from an *explicit* seed — there is no ambient RNG
/// anywhere in the sampling path, so a `(n, k, seed)` triple names
/// the sample exactly (the serve engine and the conformance harness
/// rely on this to replay degraded responses bit for bit).
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k > 0 && k <= n, "sample size {k} out of range for n={n}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vertices: Vec<usize> = (0..n).collect();
    vertices.shuffle(&mut rng);
    vertices.truncate(k);
    vertices
}

/// Relative standard error of the `k`-of-`n` estimator under the
/// uniform-sampling model, with the finite-population correction:
/// `sqrt((n − k) / (k · (n − 1)))`. It is `0` exactly when `k = n`
/// (the sample is a census) and shrinks as `1/√k` — the `ci` tag a
/// degraded serve response carries so callers can judge the estimate
/// without knowing the sampling internals.
pub fn sample_rel_se(n: usize, k: usize) -> f64 {
    assert!(k > 0 && k <= n, "sample size {k} out of range for n={n}");
    if n <= 1 {
        return 0.0;
    }
    (((n - k) as f64) / ((k * (n - 1)) as f64)).sqrt()
}

/// Estimates betweenness centrality from `k` uniformly sampled
/// sources (shared-memory MFBC).
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn mfbc_approx(g: &Graph, k: usize, seed: u64) -> ApproxBc {
    let sources = sample_sources(g.n(), k, seed);
    let scores = approx_from_sources(g, &sources);
    ApproxBc { scores, sources }
}

/// The estimator for an explicit source set (exposed so callers can
/// do stratified or adaptive sampling).
pub fn approx_from_sources(g: &Graph, sources: &[usize]) -> BcScores {
    let n = g.n();
    let mut scores = BcScores::zeros(n);
    if sources.is_empty() {
        return scores;
    }
    // Both sweeps on one machine: the adjacency is set up once.
    let (t, z) = quietly(|| {
        let mut be = Simulated::sequential(g);
        let (t, _) = forward(&mut be, g, sources)?;
        let (z, _) = backward(&mut be, &t)?;
        Ok((t.into_block(), z.into_block()))
    });
    let scale = n as f64 / sources.len() as f64;
    for (s, v, z) in z.iter() {
        if v == sources[s] {
            continue;
        }
        let sigma = t.get(s, v).expect("Z pattern ⊆ T pattern").m;
        scores.lambda[v] += scale * z.p * sigma;
    }
    scores
}

/// Distributed sampled approximation: runs the batched distributed
/// driver on `k` uniformly sampled sources and scales by `n/k`.
/// Costs (communication, memory) accrue on `machine` exactly as an
/// exact run's first `⌈k/n_b⌉` batches would.
pub fn mfbc_approx_dist(
    machine: &mfbc_machine::Machine,
    g: &Graph,
    k: usize,
    seed: u64,
    cfg: &crate::dist::MfbcConfig,
) -> Result<ApproxBc, mfbc_machine::MachineError> {
    let n = g.n();
    let sources = sample_sources(n, k, seed);

    let run = crate::dist::mfbc_dist(
        machine,
        g,
        &crate::dist::MfbcConfig {
            sources: Some(sources.clone()),
            max_batches: None,
            ..cfg.clone()
        },
    )?;
    let scale = n as f64 / k as f64;
    let mut scores = run.scores;
    for x in &mut scores.lambda {
        *x *= scale;
    }
    Ok(ApproxBc { scores, sources })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::brandes_unweighted;
    use mfbc_graph::gen::uniform;

    #[test]
    fn full_sample_equals_exact() {
        let g = uniform(40, 150, false, None, 3);
        let exact = brandes_unweighted(&g);
        let approx = mfbc_approx(&g, g.n(), 1);
        assert!(
            approx.scores.approx_eq(&exact, 1e-9),
            "k = n must be exact; diff {}",
            approx.scores.max_abs_diff(&exact)
        );
        assert_eq!(approx.sources.len(), g.n());
    }

    #[test]
    fn estimator_is_unbiased_over_disjoint_samples() {
        // Averaging the estimators of a partition of V reproduces the
        // exact scores (each vertex appears in exactly one part).
        let g = uniform(30, 120, false, None, 5);
        let exact = brandes_unweighted(&g);
        let all: Vec<usize> = (0..g.n()).collect();
        let mut mean = BcScores::zeros(g.n());
        let parts: Vec<&[usize]> = all.chunks(10).collect();
        for part in &parts {
            let est = approx_from_sources(&g, part);
            for (a, b) in mean.lambda.iter_mut().zip(&est.lambda) {
                *a += b / parts.len() as f64;
            }
        }
        assert!(
            mean.approx_eq(&exact, 1e-9),
            "partition mean must be exact; diff {}",
            mean.max_abs_diff(&exact)
        );
    }

    #[test]
    fn half_sample_ranks_the_hub_first() {
        // Star graph: any nonempty sample identifies the hub.
        let g = Graph::unweighted(21, false, (1..21).map(|v| (0, v)));
        let approx = mfbc_approx(&g, 10, 7);
        assert_eq!(approx.scores.top_k(1)[0].0, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = uniform(30, 100, false, None, 9);
        let a = mfbc_approx(&g, 8, 42);
        let b = mfbc_approx(&g, 8, 42);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn dist_approx_matches_seq_approx() {
        use mfbc_machine::{Machine, MachineSpec};
        let g = uniform(36, 140, false, None, 11);
        let seq = mfbc_approx(&g, 12, 99);
        let machine = Machine::new(MachineSpec::test(4));
        let dist =
            mfbc_approx_dist(&machine, &g, 12, 99, &crate::dist::MfbcConfig::default()).unwrap();
        assert_eq!(dist.sources, seq.sources, "same seed, same sample");
        assert!(
            dist.scores.approx_eq(&seq.scores, 1e-9),
            "diff {}",
            dist.scores.max_abs_diff(&seq.scores)
        );
    }

    #[test]
    #[should_panic]
    fn oversized_sample_rejected() {
        let g = uniform(10, 20, false, None, 1);
        let _ = mfbc_approx(&g, 11, 1);
    }

    #[test]
    fn sample_sources_is_the_only_sampling_path() {
        // Both entry points must draw the exact same sample as the
        // shared helper — no second RNG stream anywhere.
        use mfbc_machine::{Machine, MachineSpec};
        let g = uniform(24, 90, false, None, 13);
        let want = sample_sources(g.n(), 6, 0xfeed);
        assert_eq!(mfbc_approx(&g, 6, 0xfeed).sources, want);
        let machine = Machine::new(MachineSpec::test(2));
        let dist =
            mfbc_approx_dist(&machine, &g, 6, 0xfeed, &crate::dist::MfbcConfig::default()).unwrap();
        assert_eq!(dist.sources, want);
    }

    #[test]
    fn scale_factor_is_exact_in_f64_for_pinned_sizes() {
        // The pinned golden below uses n = 8, k = 4: n/k = 2.0 is a
        // power of two, so the estimator's scale factor is exact in
        // f64 (no rounding enters the scaled sums beyond the products
        // themselves). Guard the arithmetic fact explicitly.
        for (n, k, want) in [(8usize, 4usize, 2.0f64), (8, 2, 4.0), (512, 128, 4.0)] {
            assert_eq!((n as f64 / k as f64).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn sample_rel_se_shrinks_and_vanishes_at_census() {
        let n = 64;
        let mut prev = f64::INFINITY;
        for k in 1..=n {
            let se = sample_rel_se(n, k);
            assert!(se >= 0.0 && se < prev, "k={k}: {se} !< {prev}");
            prev = se;
        }
        assert_eq!(sample_rel_se(n, n), 0.0);
        assert_eq!(sample_rel_se(1, 1), 0.0);
    }

    fn golden_graph() -> Graph {
        // The 8-vertex ladder the fault-recovery tests use: unit
        // weights, dyadic dependency values.
        Graph::unweighted(
            8,
            false,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (1, 5),
                (2, 6),
            ],
        )
    }

    #[test]
    fn golden_half_sample_is_bit_identical() {
        // Pinned golden: n = 8, k = 4, seed 0x5eed. The scale factor
        // n/k = 2.0 is exact in f64 (see
        // scale_factor_is_exact_in_f64_for_pinned_sizes), so this
        // estimate is reproducible bit for bit on any platform. A
        // drift here means the sampling stream or the estimator
        // arithmetic changed — both are serving-protocol breaks.
        let approx = mfbc_approx(&golden_graph(), 4, 0x5eed);
        let got: Vec<u64> = approx.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = GOLDEN_HALF_SAMPLE.to_vec();
        assert_eq!(
            got, want,
            "golden drift: sources {:?} scores {:?}",
            approx.sources, approx.scores.lambda
        );
    }

    /// `mfbc_approx(golden_graph(), 4, 0x5eed).scores.lambda` as raw
    /// f64 bits — the sample is `[3, 7, 6, 5]` and the scaled sums
    /// are the dyadic values `[0, 9, 16, 0, 4, 8, 17, 0]`.
    const GOLDEN_HALF_SAMPLE: [u64; 8] = [
        0,
        4621256167635550208,
        4625196817309499392,
        0,
        4616189618054758400,
        4620693217682128896,
        4625478292286210048,
        0,
    ];
}
