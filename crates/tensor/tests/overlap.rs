//! Overlap and hybrid-redistribution properties at the plan level:
//! for every candidate plan the autotuner can emit, running under
//! overlapped accounting must leave the numerical result and the
//! *set of charged collectives* (kind, ranks, payload, messages)
//! bit-identical to the blocking run — only the modeled clocks may
//! move, and only downward. The per-rank critical-path meters are not
//! compared: every collective raises a rank's meters to the group
//! maximum before adding its own charge (§7.4), so the over-ranks
//! maxima depend on where synchronization points fall relative to
//! compute charges — which overlap mode moves by design. The trace is
//! the order-insensitive ground truth. Likewise every hybrid
//! redistribution mode must preserve the result exactly (it reroutes
//! the same entries through different collectives).

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_machine::{Machine, MachineSpec, RedistMode};
use mfbc_sparse::{Coo, Csr, Mask, MaskKind};
use mfbc_tensor::autotune::candidate_plans;
use mfbc_tensor::{canonical_layout, mm_exec_masked, DistMat};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One charged collective, as seen by the trace: kind, participating
/// ranks, per-rank payload, messages, and bytes on the critical path.
/// Blocking runs emit these as `Collective`; overlapped runs emit the
/// same costs on `CollectiveIssue` (the wait carries no new cost).
type ChargedCollective = (&'static str, Vec<usize>, u64, u64, u64);

fn charged_collectives(records: &[mfbc_trace::TraceRecord]) -> Vec<ChargedCollective> {
    let mut out: Vec<ChargedCollective> = records
        .iter()
        .filter_map(|r| r.event.collective())
        .map(|c| (c.kind, c.ranks.clone(), c.bytes, c.msgs, c.bytes_charged))
        .collect();
    // Issue order differs between modes (overlap prefetches ahead of
    // compute), so compare as a multiset.
    out.sort();
    out
}

fn random_dist_mat(rng: &mut ChaCha8Rng, n: usize, nnz: usize) -> Csr<Dist> {
    let mut coo = Coo::new(n, n);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            Dist::new(rng.gen_range(1..50)),
        );
    }
    coo.into_csr::<MinDist>()
}

fn random_mask(rng: &mut ChaCha8Rng, n: usize) -> Mask<'static> {
    let coords: Vec<(usize, usize)> = (0..(n * n / 3))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    Mask::from_coords(MaskKind::Structural, n, n, &coords)
}

/// Runs one plan under `spec`, returning the global result, the op
/// count, the charged-collective multiset, the critical-path comm
/// time, and the modeled makespan.
fn run_plan(
    spec: MachineSpec,
    plan: &mfbc_tensor::MmPlan,
    a: &Csr<Dist>,
    b: &Csr<Dist>,
    mask: Option<&Mask>,
) -> (Csr<Dist>, u64, Vec<ChargedCollective>, f64, f64) {
    let n = a.nrows();
    let rec = Arc::new(mfbc_trace::MemoryRecorder::new());
    let (out, comm_time, makespan) = mfbc_trace::scoped(rec.clone(), || {
        let m = Machine::new(spec);
        let da = DistMat::from_global(canonical_layout(&m, n, n), a);
        let db = DistMat::from_global(canonical_layout(&m, n, n), b);
        let out = mm_exec_masked::<TropicalKernel>(&m, plan, &da, &db, mask).unwrap();
        (out, m.report().critical.comm_time, m.makespan_s())
    });
    (
        out.c.to_global::<MinDist>(),
        out.ops,
        charged_collectives(&rec.snapshot()),
        comm_time,
        makespan,
    )
}

#[test]
fn overlap_is_score_identical_and_never_slower_for_every_plan() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0E11A9);
    let n = 37;
    let a = random_dist_mat(&mut rng, n, 150);
    let b = random_dist_mat(&mut rng, n, 180);
    let mask = random_mask(&mut rng, n);

    for p in [1usize, 2, 4, 6, 8] {
        for plan in candidate_plans(p) {
            for mk in [None, Some(&mask)] {
                let (c_ser, ops_ser, coll_ser, comm_ser, mk_ser) =
                    run_plan(MachineSpec::test(p), &plan, &a, &b, mk);
                let (c_ovl, ops_ovl, coll_ovl, comm_ovl, mk_ovl) =
                    run_plan(MachineSpec::test(p).with_overlap(true), &plan, &a, &b, mk);
                assert_eq!(c_ser, c_ovl, "p={p} plan={plan:?}: scores diverged");
                assert_eq!(ops_ser, ops_ovl, "p={p} plan={plan:?}: ops diverged");
                assert_eq!(
                    coll_ser, coll_ovl,
                    "p={p} plan={plan:?}: charged collectives diverged"
                );
                // The per-rank meters are deliberately NOT compared
                // (see module doc), but sanity-check them.
                assert!(comm_ser.is_finite() && comm_ser >= 0.0);
                assert!(comm_ovl.is_finite() && comm_ovl >= 0.0);
                assert!(
                    mk_ovl <= mk_ser,
                    "p={p} plan={plan:?}: overlapped makespan {mk_ovl} > serialized {mk_ser}"
                );
            }
        }
    }
}

#[test]
fn hybrid_redistribution_preserves_results_for_every_plan() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD15);
    let n = 29;
    let a = random_dist_mat(&mut rng, n, 120);
    let b = random_dist_mat(&mut rng, n, 140);

    for p in [2usize, 4, 6] {
        for plan in candidate_plans(p) {
            let (c_base, ops_base, coll_base, _, _) =
                run_plan(MachineSpec::test(p), &plan, &a, &b, None);
            for mode in [RedistMode::Auto, RedistMode::Bcast, RedistMode::P2p] {
                let (c, ops, coll, _, _) =
                    run_plan(MachineSpec::test(p).with_redist(mode), &plan, &a, &b, None);
                assert_eq!(c_base, c, "p={p} plan={plan:?} mode={mode:?}");
                assert_eq!(ops_base, ops, "p={p} plan={plan:?} mode={mode:?}");
                // The same entries change owner whichever collectives
                // carry them.
                assert!(coll.is_empty() == coll_base.is_empty());
            }
        }
    }
}

#[test]
fn p2p_redistribution_beats_alltoall_on_sparse_fanout() {
    // One entry moving between two ranks: a pairwise send (α + β·b)
    // must model cheaper than a full personalized all-to-all over the
    // participants (β·b + α·⌈lg p⌉ with the same volume) — the
    // sparsity-driven win the Auto mode exploits.
    let n = 32;
    let mut coo = Coo::new(n, n);
    coo.push(0, n - 1, Dist::new(3));
    let g: Csr<Dist> = coo.into_csr::<MinDist>();
    let plan = mfbc_tensor::MmPlan::OneD(mfbc_tensor::Variant1D::C);
    let p = 8;
    let (_, _, _, comm_a2a, _) = run_plan(MachineSpec::test(p), &plan, &g, &g, None);
    let (_, _, _, comm_p2p, _) = run_plan(
        MachineSpec::test(p).with_redist(RedistMode::P2p),
        &plan,
        &g,
        &g,
        None,
    );
    assert!(
        comm_p2p <= comm_a2a,
        "pairwise {comm_p2p} should not exceed all-to-all {comm_a2a} for a single moving entry"
    );
}
