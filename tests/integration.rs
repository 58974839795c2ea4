//! Cross-crate integration tests at the public-API (facade) level:
//! full pipelines from generator → preprocessing → distributed BC →
//! cost report, plus the paper-shaped behavioural checks (memory
//! gates, weighted slowdown, baseline restrictions).

use mfbc::core::combblas::{combblas_bc, BaselineError, CombBlasConfig};
use mfbc::prelude::*;

#[test]
fn full_pipeline_rmat_to_report() {
    let g0 = rmat(&RmatConfig::paper(8, 8, 1));
    let g = prep::remove_isolated(&g0);
    assert!(g.n() <= g0.n());

    let machine = Machine::new(MachineSpec::gemini(16));
    let cfg = MfbcConfig {
        batch_size: Some(64),
        max_batches: Some(1),
        ..Default::default()
    };
    let run = mfbc_dist(&machine, &g, &cfg).unwrap();
    assert_eq!(run.sources_processed, 64);
    let report = machine.report();
    assert!(report.critical.comm_time > 0.0);
    assert!(report.critical.comp_time > 0.0);
    assert!(report.total_ops > 0);
    assert!(run.frontier_nnz > 0);
}

#[test]
fn scores_identical_across_all_execution_paths() {
    let g = uniform(64, 256, false, None, 7);
    let oracle = brandes_unweighted(&g);
    let (seq, stats) = mfbc_seq(&g, 16);
    assert!(seq.approx_eq(&oracle, 1e-8));

    // The sequential run is the simulated machine's one-rank case:
    // `mfbc_dist` at p = 1, autotuned on another spec, reproduces it
    // bit for bit, counters included.
    let cfg = MfbcConfig::default().with_batch_size(16);
    let run = mfbc_dist(&Machine::new(MachineSpec::test(1)), &g, &cfg).unwrap();
    let bits = |s: &BcScores| s.lambda.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&seq), bits(&run.scores), "p=1 scores differ from seq");
    assert_eq!(
        (
            stats.batches,
            stats.forward_iterations,
            stats.backward_iterations,
            stats.frontier_nnz,
            stats.ops
        ),
        (
            run.batches,
            run.forward_iterations,
            run.backward_iterations,
            run.frontier_nnz,
            run.ops
        ),
        "p=1 counters differ from seq"
    );

    for p in [4usize, 16] {
        for mode in [PlanMode::Auto, PlanMode::Ca { c: p / 4 }] {
            let machine = Machine::new(MachineSpec::test(p));
            let run = mfbc_dist(
                &machine,
                &g,
                &MfbcConfig {
                    batch_size: Some(16),
                    plan_mode: mode.clone(),
                    max_batches: None,
                    amortize_adjacency: true,
                    sources: None,
                    threads: None,
                    masked: true,
                },
            )
            .unwrap();
            assert!(
                run.scores.approx_eq(&oracle, 1e-8),
                "p={p} mode={mode:?}: diff {}",
                run.scores.max_abs_diff(&oracle)
            );
        }
        let machine = Machine::new(MachineSpec::test(p));
        let run = combblas_bc(
            &machine,
            &g,
            &CombBlasConfig {
                batch_size: Some(16),
                max_batches: None,
            },
        )
        .unwrap();
        assert!(run.scores.approx_eq(&oracle, 1e-8));
    }
}

#[test]
fn weighted_graphs_run_slower_in_iterations() {
    // §7.2: with weights "the number of sparse matrix multiplications
    // doubles and the frontier stays relatively dense" — check the
    // iteration-count mechanism on the same topology.
    let unweighted = rmat(&RmatConfig::paper(7, 8, 3));
    let weighted = prep::randomize_weights(&unweighted, 100, 9);

    let m1 = Machine::new(MachineSpec::test(4));
    let cfg = MfbcConfig {
        batch_size: Some(32),
        max_batches: Some(1),
        ..Default::default()
    };
    let ru = mfbc_dist(&m1, &unweighted, &cfg).unwrap();
    let m2 = Machine::new(MachineSpec::test(4));
    let rw = mfbc_dist(&m2, &weighted, &cfg).unwrap();
    assert!(
        rw.forward_iterations > ru.forward_iterations,
        "weighted {} vs unweighted {}",
        rw.forward_iterations,
        ru.forward_iterations
    );
    assert!(rw.frontier_nnz >= ru.frontier_nnz);
}

#[test]
fn oom_gate_reproduces_unable_to_execute() {
    // A graph too large for the per-rank budget: the CombBLAS-style
    // baseline (frontier stack + adjacency) must die with OOM while
    // MFBC still completes within the same budget — the paper's
    // Friendster scenario in miniature.
    let g = uniform(512, 16_384, false, None, 5);
    // Measured peaks at these batch sizes (with adjacency caching):
    // the baseline's frontier stack + σ/δ tables peak at ~1.6 MB/rank,
    // MFBC's multpath table + cached adjacency forms at ~1.43 MB/rank.
    // A 1.5 MB budget separates them — the paper's mechanism: MFBC
    // runs wherever M = Ω(c·m/p), the stack-keeping baseline needs
    // more.
    let budget = 1_536 * 1024;
    let spec = MachineSpec::test(4).with_mem_bytes(Some(budget));

    let m_base = Machine::new(spec.clone());
    let cfg = CombBlasConfig {
        batch_size: Some(256),
        max_batches: Some(1),
    };
    let baseline = combblas_bc(&m_base, &g, &cfg);
    assert!(
        matches!(baseline, Err(BaselineError::Machine(_))),
        "baseline should exceed {budget} B/rank, got {baseline:?}"
    );

    let m_mfbc = Machine::new(spec);
    let run = mfbc_dist(
        &m_mfbc,
        &g,
        &MfbcConfig {
            batch_size: Some(64),
            max_batches: Some(1),
            ..Default::default()
        },
    );
    assert!(run.is_ok(), "MFBC should fit: {:?}", run.err());
}

#[test]
fn snap_standins_run_end_to_end() {
    for which in [SnapGraph::Orkut, SnapGraph::Patents] {
        let g = snap_standin(which, 8192, 1);
        let machine = Machine::new(MachineSpec::gemini(4));
        let run = mfbc_dist(
            &machine,
            &g,
            &MfbcConfig {
                batch_size: Some(32),
                max_batches: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(run.frontier_nnz > 0, "{which:?}");
        // Spot-check against the oracle on these real-ish topologies.
        let oracle = brandes_unweighted(&g);
        let full = mfbc_seq(&g, 128).0;
        assert!(
            full.approx_eq(&oracle, 1e-7),
            "{which:?}: diff {}",
            full.max_abs_diff(&oracle)
        );
    }
}

#[test]
fn effective_diameter_drives_iteration_count() {
    // MFBF's unweighted iteration count per batch ≈ eccentricity of
    // the batch's sources — the d factor in Theorem 5.1.
    let path = Graph::unweighted(64, false, (0..63).map(|i| (i, i + 1)));
    let m = Machine::new(MachineSpec::test(4));
    let run = mfbc_dist(
        &m,
        &path,
        &MfbcConfig {
            batch_size: Some(64),
            max_batches: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        run.forward_iterations >= 62,
        "path graph needs ~d iterations, got {}",
        run.forward_iterations
    );
}

#[test]
fn prelude_exposes_the_documented_api() {
    // Compile-time façade check: the names used in README/examples.
    let g: Graph = Graph::unweighted(3, false, vec![(0, 1), (1, 2)]);
    let _: BcScores = brandes_unweighted(&g);
    let _: BcScores = brandes_weighted(&g);
    let _: BcScores = bruteforce_bc(&g);
    let _ = mfbf_seq(&g, &[0]);
    let t = mfbf_seq(&g, &[0]).t;
    let _ = mfbr_seq(&g, &t);
    let _: MmPlan = ca_plan(4, 1).unwrap();
    let _ = (Variant1D::A, Variant2D::AB);
    let _: (Dist, Multpath, Centpath) = (Dist::ONE, Multpath::trivial(), Centpath::none());
}
