//! End-to-end correctness of every BC algorithm against the oracles,
//! on randomized graphs across machine sizes, plan modes, batch
//! sizes, weights, and directedness — the correctness spine of
//! DESIGN.md §2.

use mfbc_core::combblas::{combblas_bc, CombBlasConfig};
use mfbc_core::dist::{mfbc_dist, MfbcConfig, PlanMode};
use mfbc_core::oracle::{brandes_unweighted, brandes_weighted};
use mfbc_core::seq::mfbc_seq;
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_tensor::{MmPlan, Variant1D, Variant2D};

const TOL: f64 = 1e-7;

fn oracle(g: &Graph) -> mfbc_core::BcScores {
    if g.is_unit_weighted() {
        brandes_unweighted(g)
    } else {
        brandes_weighted(g)
    }
}

#[test]
fn seq_mfbc_matches_oracle_on_random_graphs() {
    for (seed, directed, weighted) in [
        (1u64, false, false),
        (2, true, false),
        (3, false, true),
        (4, true, true),
    ] {
        let g = uniform(60, 200, directed, weighted.then_some(10), seed);
        let want = oracle(&g);
        for nb in [7, 60] {
            let (got, _) = mfbc_seq(&g, nb);
            assert!(
                got.approx_eq(&want, TOL),
                "seed={seed} directed={directed} weighted={weighted} nb={nb}: max diff {}",
                got.max_abs_diff(&want)
            );
        }
    }
}

#[test]
fn seq_mfbc_matches_oracle_on_rmat() {
    let g = rmat(&RmatConfig::paper(7, 4, 5));
    let want = brandes_unweighted(&g);
    let (got, stats) = mfbc_seq(&g, 32);
    assert!(
        got.approx_eq(&want, TOL),
        "max diff {}",
        got.max_abs_diff(&want)
    );
    assert!(stats.ops > 0);
    assert_eq!(stats.batches, g.n().div_ceil(32));
}

#[test]
fn dist_auto_matches_oracle_across_machine_sizes() {
    let g = uniform(48, 180, false, None, 11);
    let want = brandes_unweighted(&g);
    for p in [1usize, 2, 4, 8, 9] {
        let machine = Machine::new(MachineSpec::test(p));
        let run = mfbc_dist(
            &machine,
            &g,
            &MfbcConfig {
                batch_size: Some(16),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            run.scores.approx_eq(&want, TOL),
            "p={p}: max diff {}",
            run.scores.max_abs_diff(&want)
        );
        assert_eq!(run.sources_processed, g.n());
    }
}

#[test]
fn dist_weighted_matches_weighted_oracle() {
    let g = uniform(40, 160, true, Some(20), 13);
    assert!(!g.is_unit_weighted());
    let want = brandes_weighted(&g);
    let machine = Machine::new(MachineSpec::test(4));
    let run = mfbc_dist(
        &machine,
        &g,
        &MfbcConfig {
            batch_size: Some(10),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        run.scores.approx_eq(&want, TOL),
        "max diff {}",
        run.scores.max_abs_diff(&want)
    );
}

#[test]
fn ca_mfbc_matches_oracle() {
    let g = uniform(40, 150, false, None, 17);
    let want = brandes_unweighted(&g);
    for (p, c) in [(4usize, 1usize), (4, 4), (8, 2), (16, 4)] {
        let machine = Machine::new(MachineSpec::test(p));
        let run = mfbc_dist(
            &machine,
            &g,
            &MfbcConfig {
                batch_size: Some(20),
                plan_mode: PlanMode::Ca { c },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            run.scores.approx_eq(&want, TOL),
            "p={p} c={c}: max diff {}",
            run.scores.max_abs_diff(&want)
        );
    }
}

#[test]
fn fixed_plan_modes_match_oracle() {
    let g = uniform(30, 100, true, None, 19);
    let want = brandes_unweighted(&g);
    let plans = [
        MmPlan::OneD(Variant1D::A),
        MmPlan::OneD(Variant1D::C),
        MmPlan::TwoD {
            variant: Variant2D::AB,
            p2: 2,
            p3: 2,
        },
        MmPlan::ThreeD {
            split: Variant1D::C,
            inner: Variant2D::BC,
            p1: 2,
            p2: 2,
            p3: 1,
        },
    ];
    for plan in plans {
        let machine = Machine::new(MachineSpec::test(4));
        let run = mfbc_dist(
            &machine,
            &g,
            &MfbcConfig {
                batch_size: Some(30),
                plan_mode: PlanMode::Fixed(plan.clone()),
                max_batches: None,
                amortize_adjacency: true,
                sources: None,
                threads: None,
                masked: true,
            },
        )
        .unwrap();
        assert!(
            run.scores.approx_eq(&want, TOL),
            "plan {plan:?}: max diff {}",
            run.scores.max_abs_diff(&want)
        );
    }
}

#[test]
fn combblas_baseline_matches_oracle() {
    let g = uniform(50, 200, false, None, 23);
    let want = brandes_unweighted(&g);
    for p in [1usize, 4, 16] {
        let machine = Machine::new(MachineSpec::test(p));
        let run = combblas_bc(
            &machine,
            &g,
            &CombBlasConfig {
                batch_size: Some(25),
                max_batches: None,
            },
        )
        .unwrap();
        assert!(
            run.scores.approx_eq(&want, TOL),
            "p={p}: max diff {}",
            run.scores.max_abs_diff(&want)
        );
    }
}

#[test]
fn mfbc_and_combblas_agree_on_rmat() {
    let g = rmat(&RmatConfig::paper(6, 6, 29));
    let m1 = Machine::new(MachineSpec::test(4));
    let mfbc = mfbc_dist(&m1, &g, &MfbcConfig::default()).unwrap();
    let m2 = Machine::new(MachineSpec::test(4));
    let cb = combblas_bc(&m2, &g, &CombBlasConfig::default()).unwrap();
    assert!(
        mfbc.scores.approx_eq(&cb.scores, TOL),
        "max diff {}",
        mfbc.scores.max_abs_diff(&cb.scores)
    );
}

#[test]
fn replication_invariance_of_costless_result() {
    // The scores must not depend on p, c, or plan choices — only the
    // charged costs may. (Batching invariance is covered in seq.)
    let g = uniform(36, 140, false, None, 31);
    let mut results = Vec::new();
    for p in [1usize, 4, 16] {
        let machine = Machine::new(MachineSpec::test(p));
        let run = mfbc_dist(&machine, &g, &MfbcConfig::default()).unwrap();
        results.push(run.scores);
    }
    for w in results.windows(2) {
        assert!(w[0].approx_eq(&w[1], TOL));
    }
}

/// λ must not depend on the batch size under any plan. A smaller
/// batch moves sources onto other rows of every product's output grid;
/// each plan sums an output entry's terms in an order fixed by its
/// k cuts alone, so the bits hold. Partial factors in thirds (sources
/// with three shortest paths) make a regrouped sum visible.
#[test]
fn every_plan_scores_the_same_bits_at_every_batch_size() {
    let g = uniform(20, 55, false, None, 5);
    let mut differ = Vec::new();
    for p in [4usize, 9, 16] {
        for plan in mfbc_tensor::enumerate_plans(p) {
            let lambda = |nb: usize| -> Vec<u64> {
                let machine = Machine::new(MachineSpec::test(p));
                let cfg = MfbcConfig {
                    batch_size: Some(nb),
                    plan_mode: PlanMode::Fixed(plan.clone()),
                    ..Default::default()
                };
                let run = mfbc_dist(&machine, &g, &cfg).unwrap();
                run.scores.lambda.iter().map(|l| l.to_bits()).collect()
            };
            let want = lambda(1);
            for nb in [2usize, 3, 4, 8] {
                if lambda(nb) != want {
                    differ.push(format!("p={p} {plan} nb={nb}"));
                }
            }
        }
    }
    assert!(
        differ.is_empty(),
        "λ differs from nb = 1 in some bit: {differ:?}"
    );
}

#[test]
fn directed_rmat_weighted_end_to_end() {
    let cfg = RmatConfig {
        directed: true,
        weights: Some(100),
        ..RmatConfig::paper(6, 4, 37)
    };
    let g = rmat(&cfg);
    let want = brandes_weighted(&g);
    let machine = Machine::new(MachineSpec::test(4));
    let run = mfbc_dist(&machine, &g, &MfbcConfig::default()).unwrap();
    assert!(
        run.scores.approx_eq(&want, TOL),
        "max diff {}",
        run.scores.max_abs_diff(&want)
    );
    // Weighted runs need at least as many relaxation rounds as the
    // unweighted hop count (§7.2's slowdown mechanism).
    assert!(run.forward_iterations >= 1);
}
