//! The suite runner: seed derivation, the replay protocol, and
//! failure reporting.
//!
//! Every suite has a stable stream tag (hashed from its name), so its
//! case sequence is fixed forever: case `i` of suite `s` is generated
//! from `mix(stream_tag(s), i)`. Two environment variables control a
//! run:
//!
//! * `MFBC_CONFORMANCE_SEED` — replay exactly one case: generate it
//!   from this seed (decimal or `0x…` hex) and check only it. This is
//!   the variable printed in every failure's repro line.
//! * `MFBC_CONFORMANCE_CASES` — override the per-suite case budget
//!   (a positive count; the nightly CI job sets it to 10× the smoke
//!   default).
//!
//! A suite either generates a shrinkable [`CaseSpec`] from each seed
//! ([`run_suite`]) or is a [`property`] whose case is just its seed:
//! the body draws what it needs from a [`SplitMix64`] seeded with it.
//! Properties run through [`run_suite`] too, so every randomized test
//! in the workspace shares one seed stream, budget, replay protocol
//! and failure report.

use crate::case::CaseSpec;
use crate::rng::{mix, stream_tag, SplitMix64};
use crate::shrink::{run_check, shrink};

/// A fully described conformance failure, ready to print.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Suite (and test filter) name.
    pub suite: String,
    /// Index of the failing case within the run (0 when replaying).
    pub index: usize,
    /// The case's generation seed — the value to replay.
    pub seed: u64,
    /// Failure message of the case as generated.
    pub original_error: String,
    /// Size of the case as generated.
    pub original_size: usize,
    /// Failure message after shrinking.
    pub shrunk_error: String,
    /// Size after shrinking.
    pub shrunk_size: usize,
    /// Debug rendering of the shrunk case.
    pub shrunk_case: String,
    /// One-line command reproducing (and re-shrinking) the failure.
    pub repro: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "conformance failure in `{}` (case #{}, seed {:#018x})",
            self.suite, self.index, self.seed
        )?;
        writeln!(
            f,
            "  original ({} units): {}",
            self.original_size, self.original_error
        )?;
        writeln!(
            f,
            "  shrunk   ({} units): {}",
            self.shrunk_size, self.shrunk_error
        )?;
        writeln!(f, "  shrunk case: {}", self.shrunk_case)?;
        write!(f, "  repro: {}", self.repro)
    }
}

/// Parses `MFBC_CONFORMANCE_SEED` (decimal or `0x…` hex).
fn env_seed() -> Option<u64> {
    let raw = std::env::var("MFBC_CONFORMANCE_SEED").ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("unparseable MFBC_CONFORMANCE_SEED: {raw:?}")))
}

/// Parses an `MFBC_CONFORMANCE_CASES` value. Zero is rejected like
/// garbage: a zero budget would pass every suite without checking a
/// case.
fn parse_cases(raw: &str) -> Result<usize, String> {
    match raw.trim().parse() {
        Ok(0) | Err(_) => Err(format!(
            "MFBC_CONFORMANCE_CASES must be a positive case count, got {raw:?}"
        )),
        Ok(n) => Ok(n),
    }
}

/// The per-suite case budget: `MFBC_CONFORMANCE_CASES` or `default`.
fn case_budget(default: usize) -> usize {
    match std::env::var("MFBC_CONFORMANCE_CASES") {
        Ok(v) => parse_cases(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => default,
    }
}

/// The one-line replay command for a failing case of `suite`. It names
/// the package of the running test binary (cargo sets `CARGO_PKG_NAME`
/// in its environment); outside cargo it filters the whole workspace.
fn repro_line(suite: &str, seed: u64) -> String {
    let package = std::env::var("CARGO_PKG_NAME")
        .map(|p| format!("-p {p} "))
        .unwrap_or_default();
    format!("MFBC_CONFORMANCE_SEED={seed:#x} cargo test {package}{suite}")
}

/// Runs a suite: `default_cases` cases generated by `generate` from
/// the suite's seed stream (or the single replayed case when
/// `MFBC_CONFORMANCE_SEED` is set). On the first failing case, shrinks
/// it and returns the full report. `Ok` carries the number of cases
/// checked.
pub fn run_suite<C: CaseSpec>(
    suite: &str,
    default_cases: usize,
    generate: impl Fn(u64) -> C,
) -> Result<usize, Box<Failure>> {
    let seeds: Vec<u64> = match env_seed() {
        Some(s) => vec![s],
        None => {
            let tag = stream_tag(suite);
            (0..case_budget(default_cases))
                .map(|i| mix(tag, i as u64))
                .collect()
        }
    };
    for (index, &seed) in seeds.iter().enumerate() {
        let case = generate(seed);
        if let Err(original_error) = run_check(&case) {
            let original_size = case.size();
            let s = shrink(&case, &original_error);
            return Err(Box::new(Failure {
                suite: suite.to_string(),
                index,
                seed,
                original_error,
                original_size,
                shrunk_error: s.error,
                shrunk_size: s.case.size(),
                shrunk_case: format!("{:?}", s.case),
                repro: repro_line(suite, seed),
            }));
        }
    }
    Ok(seeds.len())
}

/// Like [`run_suite`] but panics with the printable report — the form
/// the `#[test]` entry points use.
pub fn run_suite_or_panic<C: CaseSpec>(
    suite: &str,
    default_cases: usize,
    generate: impl Fn(u64) -> C,
) {
    if let Err(failure) = run_suite(suite, default_cases, generate) {
        panic!("{failure}");
    }
}

/// A case that is nothing but its seed. It has nothing to shrink.
struct Seeded<'a, F> {
    seed: u64,
    body: &'a F,
}

impl<F> Clone for Seeded<'_, F> {
    fn clone(&self) -> Self {
        Seeded { ..*self }
    }
}

impl<F> std::fmt::Debug for Seeded<'_, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {:#x}", self.seed)
    }
}

impl<F: Fn(&mut SplitMix64)> CaseSpec for Seeded<'_, F> {
    fn check(&self) -> Result<(), String> {
        (self.body)(&mut SplitMix64::new(self.seed));
        Ok(())
    }
    fn size(&self) -> usize {
        1
    }
    fn shrink_candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// Runs the property `suite` over `default_cases` seeds of its stream
/// (the `MFBC_CONFORMANCE_*` protocol applies): each case calls `body`
/// with a [`SplitMix64`] seeded by the case seed, and fails when
/// `body` panics. Panics with the failure report, whose repro line
/// replays the failing seed. Name the suite after its `#[test]`
/// function so that line's filter selects it.
pub fn property(suite: &str, default_cases: usize, body: impl Fn(&mut SplitMix64)) {
    run_suite_or_panic(suite, default_cases, |seed| Seeded { seed, body: &body });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct FailAbove(u64, u64);

    impl CaseSpec for FailAbove {
        fn check(&self) -> Result<(), String> {
            if self.0 > self.1 {
                Err(format!("{} exceeds {}", self.0, self.1))
            } else {
                Ok(())
            }
        }
        fn size(&self) -> usize {
            self.0 as usize
        }
        fn shrink_candidates(&self) -> Vec<FailAbove> {
            let mut out = Vec::new();
            if self.0 > 0 {
                out.push(FailAbove(self.0 / 2, self.1));
                out.push(FailAbove(self.0 - 1, self.1));
            }
            out
        }
    }

    #[test]
    fn passing_suite_reports_case_count() {
        let n = run_suite("toy_pass", 17, |_| FailAbove(0, 10)).unwrap();
        // The nightly job's MFBC_CONFORMANCE_CASES overrides the 17.
        assert_eq!(n, case_budget(17));
    }

    #[test]
    fn failing_suite_shrinks_and_reports_repro() {
        let f = run_suite("toy_fail", 5, |seed| FailAbove(100 + seed % 7, 10)).unwrap_err();
        assert_eq!(f.index, 0);
        // Shrunk to the boundary: smallest value still failing is 11.
        assert_eq!(f.shrunk_size, 11);
        assert!(
            f.repro.starts_with("MFBC_CONFORMANCE_SEED=0x"),
            "{}",
            f.repro
        );
        assert!(f.repro.ends_with("cargo test -p mfbc-conformance toy_fail"));
        let rendered = f.to_string();
        assert!(rendered.contains("shrunk case: FailAbove(11"), "{rendered}");
    }

    #[test]
    fn a_failing_property_reports_its_seed_and_replays_it() {
        let report = std::panic::catch_unwind(|| {
            property("toy_property", 50, |rng| {
                assert!(rng.below(4) != 0, "drew a zero");
            })
        })
        .expect_err("some case draws a zero");
        let report = report.downcast_ref::<String>().expect("a formatted report");
        let repro = report.lines().last().expect("a repro line");
        assert!(
            repro.ends_with("cargo test -p mfbc-conformance toy_property"),
            "{report}"
        );
        assert!(report.contains("panicked: drew a zero"), "{report}");
        // The printed seed regenerates the failing draw.
        let seed = repro
            .split_once("MFBC_CONFORMANCE_SEED=0x")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .expect("a hex seed");
        assert_eq!(SplitMix64::new(seed).below(4), 0);
    }

    #[test]
    fn case_budget_must_be_a_positive_count() {
        assert_eq!(parse_cases(" 2000 "), Ok(2000));
        assert_eq!(parse_cases("1"), Ok(1));
        for bad in ["0", "", "-3", "ten", "0x10"] {
            assert!(parse_cases(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn seed_stream_is_stable() {
        // The case sequence of a named suite is part of the replay
        // contract: changing `stream_tag`/`mix` invalidates every
        // recorded seed, so pin the first case seed.
        let tag = stream_tag("toy_fail");
        assert_eq!(mix(tag, 0), mix(stream_tag("toy_fail"), 0));
        assert_ne!(mix(tag, 0), mix(stream_tag("toy_pass"), 0));
    }
}
