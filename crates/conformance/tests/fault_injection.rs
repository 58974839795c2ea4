//! Meta-test of the acceptance criterion: deliberately breaking one
//! 3D multiplication variant must make the harness (a) catch it,
//! (b) shrink the failing case, and (c) print a one-line replayable
//! repro — and disarming the fault must restore a green suite,
//! proving the failure was the injected one. The same seam corrupts a
//! 1D product that lands in the table blocks it covers instead of
//! being assembled, and a `1d(C)` product that reaches the table
//! whole, and the driver suite must catch both.

use mfbc_conformance::case::{CaseSpec, DriverCase, DriverPlan, MmCase, MmKernelKind};
use mfbc_conformance::suite::run_suite;
use mfbc_fault::sabotage as fault;

const KERNELS: [MmKernelKind; 3] = [
    MmKernelKind::Tropical,
    MmKernelKind::BellmanFord,
    MmKernelKind::Brandes,
];

/// Cases pinned to p = 8 so the plan space always contains the
/// sabotaged 3D family.
fn gen(seed: u64) -> MmCase {
    MmCase::generate(seed, &KERNELS, &[8])
}

#[test]
fn injected_3d_fault_yields_shrunk_replayable_repro() {
    // Sanity: the suite is green before arming the fault.
    run_suite("fault_baseline", 10, gen).unwrap_or_else(|f| panic!("{f}"));

    // Arm: corrupt the output of every C-split/AB-inner 3D plan.
    let guard = fault::arm("3d(C/AB");
    let failure =
        run_suite("fault_injected", 10, gen).expect_err("sabotaged variant must be caught");
    drop(guard);

    // The very first case exercises the broken family (every case
    // sweeps the whole plan space).
    assert_eq!(failure.index, 0, "fault must surface on the first case");
    assert!(
        failure.original_error.contains("3d(C/AB"),
        "failure must implicate the sabotaged family: {}",
        failure.original_error
    );
    assert!(
        failure.shrunk_error.contains("3d(C/AB"),
        "shrinking must preserve the failing family: {}",
        failure.shrunk_error
    );
    // Shrinking must have made real progress: p = 8 can drop to 4
    // (the smallest rank count with 3D plans), so strictly smaller.
    assert!(
        failure.shrunk_size < failure.original_size,
        "shrunk {} !< original {}",
        failure.shrunk_size,
        failure.original_size
    );
    assert!(
        failure.shrunk_case.contains("p: 4"),
        "minimal 3D repro should sit at p = 4: {}",
        failure.shrunk_case
    );

    // The one-line repro: the exact env-var + cargo invocation.
    assert_eq!(
        failure.repro,
        format!(
            "MFBC_CONFORMANCE_SEED={:#x} cargo test -p mfbc-conformance fault_injected",
            failure.seed
        )
    );

    // Replayability, part 1: the printed seed regenerates a case that
    // still fails while the fault is armed...
    let replayed = gen(failure.seed);
    let guard = fault::arm("3d(C/AB");
    assert!(replayed.check().is_err(), "replayed case must still fail");
    drop(guard);

    // ...and part 2: with the fault disarmed the same case passes, so
    // the harness blamed the injected bug and nothing else.
    replayed
        .check()
        .unwrap_or_else(|e| panic!("case must pass once the fault is disarmed: {e}"));
    run_suite("fault_injected", 10, gen).unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn fault_guard_is_scoped_to_its_thread() {
    // Arming on another thread must not perturb checks on this one —
    // the property that lets the faulted test above coexist with the
    // rest of the suite in one test binary.
    let case = gen(1);
    case.check().unwrap();
    std::thread::spawn(|| {
        let _guard = fault::arm("3d(C/AB");
        std::thread::sleep(std::time::Duration::from_millis(30));
    });
    case.check().unwrap();
}

/// Driver cases pinned to `1d(A)` or `1d(B)` (`enumerate_plans(p)`'s
/// first two): on the simulated backend their products land in the
/// table blocks they cover, never through `mm_exec`'s assembly.
fn landing(seed: u64) -> DriverCase {
    let mut case = DriverCase::generate(seed, &[1, 2, 4], false);
    case.plan = DriverPlan::Fixed((seed % 2) as usize);
    case
}

#[test]
fn injected_landing_fault_is_caught() {
    run_suite("landing_baseline", 10, landing).unwrap_or_else(|f| panic!("{f}"));

    let guard = fault::arm("1d(");
    let failure = run_suite("landing_injected", 10, landing)
        .expect_err("a corrupted 1D landing must be caught");
    drop(guard);
    assert!(
        failure.original_error.contains("OneD("),
        "failure must implicate a 1D plan: {}",
        failure.original_error
    );

    // The printed seed replays a failing case while the fault is
    // armed, and the same case passes once it is disarmed.
    let replayed = landing(failure.seed);
    let guard = fault::arm("1d(");
    assert!(replayed.check().is_err(), "replayed case must still fail");
    drop(guard);
    replayed
        .check()
        .unwrap_or_else(|e| panic!("case must pass once the fault is disarmed: {e}"));
}

/// Driver cases pinned to `1d(C)` (`enumerate_plans(p)[2]`) at p ∈ {2,
/// 4}: its partial products are reduced across ranks, so the product
/// reaches the table whole, merged by the landing on arrival.
fn reducing(seed: u64) -> DriverCase {
    let mut case = DriverCase::generate(seed, &[2, 4], false);
    case.plan = DriverPlan::Fixed(2);
    case
}

#[test]
fn injected_fault_in_a_formed_product_is_caught() {
    run_suite("formed_baseline", 10, reducing).unwrap_or_else(|f| panic!("{f}"));

    let guard = fault::arm("1d(C");
    let failure = run_suite("formed_injected", 10, reducing)
        .expect_err("a corrupted product merged whole must be caught");
    drop(guard);
    assert!(
        failure.original_error.contains("OneD(C)"),
        "failure must implicate 1d(C): {}",
        failure.original_error
    );

    // The printed seed replays a failing case while the fault is
    // armed, and the same case passes once it is disarmed.
    let replayed = reducing(failure.seed);
    let guard = fault::arm("1d(C");
    assert!(replayed.check().is_err(), "replayed case must still fail");
    drop(guard);
    replayed
        .check()
        .unwrap_or_else(|e| panic!("case must pass once the fault is disarmed: {e}"));
}
