//! The tentpole suites: every enumerable multiplication plan (1D A/B/C,
//! 2D AB/AC/BC over all grid factorizations, all nine 3D nestings,
//! Cannon where p is square) plus the autotuned plan, cross-checked
//! against `spgemm_serial` on seeded random operands — per kernel, and
//! additionally on degenerate rank counts.
//!
//! Each case runs the *entire* plan space for its rank count, so a
//! 200-case suite exercises every plan family hundreds of times. Set
//! `MFBC_CONFORMANCE_CASES` to scale the budget (the nightly CI job
//! uses 10×), `MFBC_CONFORMANCE_SEED` to replay one printed case.

use mfbc_conformance::case::{MmCase, MmKernelKind};
use mfbc_conformance::gen::{P_ALL, P_DEGENERATE};
use mfbc_conformance::suite::run_suite_or_panic;

/// Smoke budget per suite (ISSUE: ~200 cases/variant, < 60 s).
const SMOKE: usize = 200;

#[test]
fn mm_tropical() {
    run_suite_or_panic("mm_tropical", SMOKE, |seed| {
        MmCase::generate(seed, &[MmKernelKind::Tropical], &P_ALL)
    });
}

#[test]
fn mm_bellman_ford() {
    run_suite_or_panic("mm_bellman_ford", SMOKE, |seed| {
        MmCase::generate(seed, &[MmKernelKind::BellmanFord], &P_ALL)
    });
}

#[test]
fn mm_brandes() {
    run_suite_or_panic("mm_brandes", SMOKE, |seed| {
        MmCase::generate(seed, &[MmKernelKind::Brandes], &P_ALL)
    });
}

/// Every case with the output-mask dimension forced on, all kernels
/// mixed: the masked product under every plan must match both the
/// masked serial oracle and unmasked-multiply-then-filter bit for bit,
/// op count included (`MmCase::generate` draws the mask for two thirds
/// of cases; this suite forces it for all of them).
#[test]
fn mm_masked() {
    run_suite_or_panic("mm_masked", SMOKE, |seed| {
        MmCase::generate_masked(
            seed,
            &[
                MmKernelKind::Tropical,
                MmKernelKind::BellmanFord,
                MmKernelKind::Brandes,
            ],
            &P_ALL,
        )
    });
}

/// Every case with overlapped accounting and hybrid redistribution
/// forced on, all kernels mixed over every rank count: each plan's
/// product must still match the serial oracle bit for bit
/// (`MmCase::generate` draws the `overlap` dimension for a third of
/// cases; this suite forces it on, on the same seed stream).
#[test]
fn mm_overlapped() {
    run_suite_or_panic("mm_overlapped", SMOKE, |seed| MmCase {
        overlap: true,
        ..MmCase::generate(
            seed,
            &[
                MmKernelKind::Tropical,
                MmKernelKind::BellmanFord,
                MmKernelKind::Brandes,
            ],
            &P_ALL,
        )
    });
}

#[test]
fn mm_degenerate_ranks() {
    // p ∈ {1, 2, 3, 7}: single-rank schedules, grids that cannot be
    // squared, and prime counts whose only 2D factorizations are
    // 1×p / p×1 — the corners where schedule index arithmetic breaks
    // first. All kernels mixed.
    run_suite_or_panic("mm_degenerate_ranks", SMOKE, |seed| {
        MmCase::generate(
            seed,
            &[
                MmKernelKind::Tropical,
                MmKernelKind::BellmanFord,
                MmKernelKind::Brandes,
            ],
            &P_DEGENERATE,
        )
    });
}
