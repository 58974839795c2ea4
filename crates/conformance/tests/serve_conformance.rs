//! Serving-engine differential suites: seeded schedules of
//! interleaved top-k / per-vertex / full-score queries, flush
//! boundaries, and fault injections driven through a live
//! [`mfbc_serve::Engine`]. Every admitted request must be answered
//! exactly once, every `Exact` response must be bit-identical to a
//! one-shot `mfbc_dist` run under the same machine and fault
//! schedule, degraded responses must carry coherent tags, and the
//! store must converge to exact in a bounded number of unbounded
//! rounds. Failures shrink toward a fault-free single-request case
//! first and replay via `MFBC_CONFORMANCE_SEED` like every other
//! suite.

use mfbc_conformance::gen::P_ALL;
use mfbc_conformance::suite::run_suite_or_panic;
use mfbc_conformance::ServeCase;

/// Each check runs a one-shot oracle plus a full serving session, so
/// the budget sits below the single-computation suites.
const SMOKE: usize = 60;

#[test]
fn serve_schedules_fault_free() {
    run_suite_or_panic("serve_schedules_fault_free", SMOKE, |seed| {
        ServeCase::generate(seed, &P_ALL)
    });
}

#[test]
fn serve_schedules_faulted() {
    run_suite_or_panic("serve_schedules_faulted", SMOKE, |seed| {
        ServeCase::generate_faulted(seed, &P_ALL)
    });
}

/// Every case re-driven under an installed trace recorder and an
/// enabled flight recorder, fault-free and faulted on alternate seeds:
/// the response stream must stay bit-identical to the unobserved run
/// (`ServeCase::generate` draws the `traced` dimension for a third of
/// cases, last, so a seed replays the same schedule either way; this
/// suite forces it on for all of them).
#[test]
fn serve_schedules_observed() {
    run_suite_or_panic("serve_schedules_observed", SMOKE, |seed| {
        let case = if seed % 2 == 0 {
            ServeCase::generate(seed, &P_ALL)
        } else {
            ServeCase::generate_faulted(seed, &P_ALL)
        };
        ServeCase {
            traced: true,
            ..case
        }
    });
}
