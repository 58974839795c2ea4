//! End-to-end differential suites: the distributed MFBC driver —
//! under autotuned, forced-fixed, and CA plan modes, across batch
//! sizes and rank counts — must reproduce the sequential Brandes
//! oracle's betweenness scores on generated Erdős–Rényi and R-MAT
//! graphs, weighted and unweighted.

use mfbc_conformance::case::DriverCase;
use mfbc_conformance::gen::P_ALL;
use mfbc_conformance::suite::run_suite_or_panic;

const SMOKE: usize = 200;

#[test]
fn driver_unweighted_vs_brandes() {
    run_suite_or_panic("driver_unweighted_vs_brandes", SMOKE, |seed| {
        DriverCase::generate(seed, &P_ALL, false)
    });
}

#[test]
fn driver_weighted_vs_brandes() {
    run_suite_or_panic("driver_weighted_vs_brandes", SMOKE, |seed| {
        DriverCase::generate(seed, &P_ALL, true)
    });
}

/// Every case re-run with a `Profiler` attached to the trace stream:
/// the betweenness scores must be bit-identical to the unobserved run
/// (`DriverCase::generate` draws the `profile` dimension for a third
/// of cases; this suite forces it on for all of them).
#[test]
fn driver_profiled_scores_are_bit_identical() {
    run_suite_or_panic("driver_profiled_scores_are_bit_identical", SMOKE, |seed| {
        DriverCase {
            profile: true,
            ..DriverCase::generate(seed, &P_ALL, seed % 2 == 0)
        }
    });
}

/// Every case run with forward-expansion output masking forced on:
/// the check re-runs each with masking off and demands bit-identical
/// betweenness scores across every sampled plan mode, rank count,
/// thread count, and batch size (`DriverCase::generate` draws the
/// `masked` dimension for half of cases; this suite forces it on for
/// all of them).
#[test]
fn driver_masked_scores_are_bit_identical() {
    run_suite_or_panic("driver_masked_scores_are_bit_identical", SMOKE, |seed| {
        DriverCase {
            masked: true,
            ..DriverCase::generate(seed, &P_ALL, seed % 2 == 0)
        }
    });
}

/// Every case re-run with a `TimelineBuilder` attached to the trace
/// stream: the betweenness scores must be bit-identical to the
/// unobserved run, the replayed timeline must agree with the machine's
/// own meters, and the extracted critical path must fold bit-exactly
/// to the makespan (`DriverCase::generate` draws the `analyze`
/// dimension for a third of cases; this suite forces it on).
#[test]
fn driver_analyzed_scores_are_bit_identical() {
    run_suite_or_panic("driver_analyzed_scores_are_bit_identical", SMOKE, |seed| {
        DriverCase {
            analyze: true,
            ..DriverCase::generate(seed, &P_ALL, seed % 2 == 1)
        }
    });
}

/// Every case run under overlapped accounting with hybrid
/// redistribution: the check re-runs each with overlap off and
/// demands bit-identical betweenness scores (`DriverCase::generate`
/// draws the `overlap` dimension for a third of cases; this suite
/// forces it on for all of them).
#[test]
fn driver_overlapped_scores_are_bit_identical() {
    run_suite_or_panic(
        "driver_overlapped_scores_are_bit_identical",
        SMOKE,
        |seed| DriverCase {
            overlap: true,
            ..DriverCase::generate(seed, &P_ALL, seed % 2 == 0)
        },
    );
}
