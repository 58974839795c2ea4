//! Fault-recovery differential suites: the distributed MFBC driver,
//! run under seeded fault schedules (rank crashes, transient
//! collective failures, forced OOM), must terminate successfully and
//! produce betweenness scores **bit-identical** to the fault-free run
//! of the same case — across rank counts, plan modes, batch sizes and
//! thread counts. An OOM halving is held bit for bit under every plan;
//! only a run that replanned after a crash, which regroups
//! floating-point sums, is held to the oracle tolerance instead (see
//! `DriverCase::faults`). Failures shrink toward the fault-free case
//! first, then along the usual graph/rank dimensions, and replay via
//! `MFBC_CONFORMANCE_SEED` like every other suite.

use mfbc_conformance::case::DriverCase;
use mfbc_conformance::gen::P_ALL;
use mfbc_conformance::suite::run_suite_or_panic;
use mfbc_core::{mfbc_dist, MfbcConfig};
use mfbc_fault::{FaultKind, FaultPlan, RetryPolicy};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_trace::{recovery_summary, MemoryRecorder, TraceEvent};
use std::sync::Arc;

const SMOKE: usize = 120;

#[test]
fn driver_fault_recovery_unweighted() {
    run_suite_or_panic("driver_fault_recovery_unweighted", SMOKE, |seed| {
        DriverCase::generate_faulted(seed, &P_ALL, false)
    });
}

#[test]
fn driver_fault_recovery_weighted() {
    run_suite_or_panic("driver_fault_recovery_weighted", SMOKE, |seed| {
        DriverCase::generate_faulted(seed, &P_ALL, true)
    });
}

/// Every faulted case with output masking forced on: recovery must
/// reproduce the fault-free scores, and the masked run the unmasked
/// one's bit for bit (`DriverCase::generate` draws the `masked`
/// dimension for half of cases; this suite forces it on, on the
/// unit-weighted graphs where the backends mask).
#[test]
fn driver_fault_recovery_masked() {
    run_suite_or_panic("driver_fault_recovery_masked", SMOKE, |seed| DriverCase {
        masked: true,
        ..DriverCase::generate_faulted(seed, &P_ALL, false)
    });
}

/// Every faulted case under overlapped accounting: recovery must
/// reproduce the fault-free scores, and the overlapped run the
/// blocking one's bit for bit (`DriverCase::generate` draws the
/// `overlap` dimension for a third of cases; this suite forces it on,
/// weighted and unweighted by turns).
#[test]
fn driver_fault_recovery_overlapped() {
    run_suite_or_panic("driver_fault_recovery_overlapped", SMOKE, |seed| {
        DriverCase {
            overlap: true,
            ..DriverCase::generate_faulted(seed, &P_ALL, seed % 2 == 1)
        }
    });
}

/// Directed scenario from the issue: a crash at p = 8 must shrink the
/// run onto the 7 survivors, replan, and still reproduce the
/// fault-free scores bit for bit — with the fault and the recovery
/// visible in the trace summary.
#[test]
fn crash_at_p8_replans_onto_7_survivors() {
    let n = 24;
    let g = Graph::new(
        n,
        false,
        (0..n).flat_map(|v| {
            [(v, (v + 1) % n, 1), (v, (v + 5) % n, 2)]
                .into_iter()
                .map(|(u, w, d)| (u, w, mfbc_algebra::Dist::new(d)))
        }),
    );
    let cfg = MfbcConfig::default().with_batch_size(4);

    let clean = mfbc_dist(&Machine::new(MachineSpec::test(8)), &g, &cfg).unwrap();

    let plan = FaultPlan::single(6, FaultKind::Crash { rank: 3 });
    let machine = Machine::with_faults(MachineSpec::test(8), plan, RetryPolicy::default());
    let rec = Arc::new(MemoryRecorder::new());
    let faulted = {
        let rec = Arc::clone(&rec);
        mfbc_trace::scoped(rec, || mfbc_dist(&machine, &g, &cfg)).unwrap()
    };

    assert_eq!(faulted.recovery.replans, 1, "{:?}", faulted.recovery);
    assert_eq!(faulted.recovery.final_p, 7);
    assert!(faulted.recovery.faults_injected >= 1);
    assert!(faulted.recovery.checkpoints_restored >= 1);
    assert!(faulted.recovery.wasted_modeled_s > 0.0);
    for (a, b) in clean.scores.lambda.iter().zip(&faulted.scores.lambda) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "recovered scores not bit-identical"
        );
    }

    // The fault and the replan must both be visible in the trace.
    let records = rec.snapshot();
    assert!(records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::Fault {
            kind: "crash",
            rank: Some(3),
            ..
        }
    )));
    assert!(records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::Recovery {
            action: "replan",
            ..
        }
    )));
    let totals = recovery_summary(&records);
    assert!(totals.faults_injected() >= 1, "{totals:?}");
    assert!(
        totals
            .actions
            .iter()
            .any(|a| a.action == "replan" && a.count == 1),
        "{totals:?}"
    );
    assert!(!mfbc_trace::render_recovery_summary(&totals).is_empty());
}

/// The actions `TraceEvent::Recovery` documents.
const RECOVERY_ACTIONS: [&str; 3] = ["retry-batch", "replan", "shrink-batch"];

/// A crash, an OOM and a transient that outlasts the machine's own
/// retries, each traced: every `Recovery` the driver emits names a
/// documented action, and together the three faults take all of them.
#[test]
fn recovery_actions_are_the_documented_ones() {
    let n = 24;
    let g = Graph::new(
        n,
        false,
        (0..n).map(|v| (v, (v + 1) % n, mfbc_algebra::Dist::new(1))),
    );
    let cfg = MfbcConfig::default().with_batch_size(4);
    let mut seen = Vec::new();
    for fault in [
        FaultKind::Crash { rank: 1 },
        FaultKind::Oom { rank: 1 },
        FaultKind::Transient { recurrence: 8 },
    ] {
        let plan = FaultPlan::single(6, fault);
        let machine = Machine::with_faults(MachineSpec::test(4), plan, RetryPolicy::default());
        let rec = Arc::new(MemoryRecorder::new());
        mfbc_trace::scoped(rec.clone(), || mfbc_dist(&machine, &g, &cfg)).unwrap();
        for r in rec.snapshot() {
            if let TraceEvent::Recovery { action, .. } = r.event {
                assert!(
                    RECOVERY_ACTIONS.contains(&action),
                    "{action} is not a documented recovery action"
                );
                seen.push(action);
            }
        }
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), RECOVERY_ACTIONS.len(), "{seen:?}");
}
