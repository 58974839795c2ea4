//! The perf-regression baseline: a committed JSON file of pinned
//! benchmark measurements, plus the noise-aware comparison policy.
//!
//! Threshold policy
//! ----------------
//! Modeled quantities (α–β–γ seconds, critical-path messages/bytes,
//! operation counts, memory high-water marks) are **deterministic**:
//! they are produced by pure f64 arithmetic (`+`, `*`, `max`) and
//! integer bookkeeping over a fixed experiment, so they are compared
//! **bit-exact**. Any difference — faster or slower — fails the gate:
//! an unexplained improvement is drift that must be acknowledged by
//! refreshing the baseline (`--write`), never silently absorbed.
//!
//! Wall-clock seconds are measured and printed but neither written to
//! the file nor compared: real time is judged by the `BENCHMARK.json`
//! workloads, on the machine that runs them.

use mfbc_trace::json::{diff, parse, write_doc, Cell, Row, Version};
use mfbc_trace::{row, Value};

/// One pinned experiment's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineCase {
    /// Experiment name (stable identifier inside the suite).
    pub name: String,
    /// Modeled communication seconds on the critical path.
    pub modeled_comm_s: f64,
    /// Modeled computation seconds on the critical path.
    pub modeled_comp_s: f64,
    /// Critical-path messages.
    pub msgs: u64,
    /// Critical-path bytes.
    pub bytes: u64,
    /// Total useful operations.
    pub total_ops: u64,
    /// Largest per-rank memory high-water mark in bytes.
    pub max_peak_bytes: u64,
    /// Fraction of the causal makespan gated by communication
    /// segments, from the timeline analyzer's critical path.
    /// Deterministic, so compared bit-exact like the modeled seconds.
    pub critical_comm_share: f64,
    /// Modeled causal makespan in seconds (the timeline's maximum
    /// lane clock). Deterministic, compared bit-exact. Under
    /// overlapped accounting this is where comm/compute overlap
    /// shows up, so the gate pins it directly.
    pub makespan_s: f64,
    /// Measured wall-clock seconds of the run that produced the case
    /// (reported only: not in the file, `0.0` after a parse).
    pub wall_s: f64,
}

row! { BaselineCase {
    "name" => name,
    "modeled_comm_s" => modeled_comm_s,
    "modeled_comp_s" => modeled_comp_s,
    "msgs" => msgs,
    "bytes" => bytes,
    "total_ops" => total_ops,
    "max_peak_bytes" => max_peak_bytes,
    "critical_comm_share" => critical_comm_share,
    "makespan_s" => makespan_s,
} }

/// Schema version of `BENCH_mfbc.json`. Version 2 added
/// `critical_comm_share` (the timeline analyzer's communication share
/// of the causal critical path). Version 3 added `makespan_s` (the
/// modeled causal makespan, pinned bit-exact so communication overlap
/// wins — and regressions — are gated directly). Version 4 dropped
/// `wall_band` and the per-case `wall_s`.
pub const BASELINE_VERSION: u64 = 4;

/// One row of a baseline file: a named case whose every declared
/// field is deterministic and compared bit-exact.
pub trait Case: Row + Default {
    /// The file's format version, as a [`Version`].
    type Version: Cell + Default;

    /// Whether every field is a cost (seconds, bytes, operations), so
    /// that a larger value is a [`Severity::Regression`]. Where it is
    /// not, any difference is [`Severity::Drift`].
    const COSTS: bool;

    /// The case's stable identifier inside its suite.
    fn name(&self) -> &str;
}

impl Case for BaselineCase {
    type Version = Version<BASELINE_VERSION>;
    const COSTS: bool = true;

    fn name(&self) -> &str {
        &self.name
    }
}

/// A parsed (or freshly measured) baseline file: a format version and
/// the pinned cases — `BENCH_mfbc.json` over [`BaselineCase`],
/// `BENCH_serve.json` over the serve-load report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline<T: Case> {
    /// Schema version.
    pub version: T::Version,
    /// Pinned cases, in suite order.
    pub cases: Vec<T>,
}

row! { impl[T: Case] Baseline<T> { "version" => version, "cases" => cases } }

/// How badly a comparison failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Current is worse than baseline.
    Regression,
    /// Current differs from baseline in a deterministic metric
    /// without being slower (e.g. an improvement): the baseline is
    /// stale and must be refreshed with `--write`.
    Drift,
}

/// One failed comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Case name.
    pub case: String,
    /// Metric that failed.
    pub metric: &'static str,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// Regression or drift.
    pub severity: Severity,
}

impl Finding {
    /// One-line human rendering.
    pub fn describe(&self) -> String {
        let label = match self.severity {
            Severity::Regression => "REGRESSION",
            Severity::Drift => "DRIFT",
        };
        format!(
            "{label} {}: {} baseline={} current={}",
            self.case, self.metric, self.baseline, self.current
        )
    }
}

impl<T: Case> Baseline<T> {
    /// A baseline wrapping freshly measured cases.
    pub fn new(cases: Vec<T>) -> Baseline<T> {
        Baseline {
            version: T::Version::default(),
            cases,
        }
    }

    /// Serializes to the committed JSON format.
    pub fn to_json(&self) -> String {
        write_doc(self)
    }

    /// Parses a baseline file.
    ///
    /// # Errors
    /// A message naming the malformed field or the unsupported
    /// version.
    pub fn from_json(doc: &str) -> Result<Baseline<T>, String> {
        Self::read(&parse(doc)?)
    }

    /// Compares freshly measured `current` cases against this
    /// baseline, field by declared field. An empty result means the
    /// gate passes.
    pub fn compare(&self, current: &[T]) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut push = |case: &T, metric, baseline: String, current: String, severity| {
            findings.push(Finding {
                case: case.name().to_string(),
                metric,
                baseline,
                current,
                severity,
            });
        };
        let text = |v: Value<'_>| {
            let mut s = String::new();
            v.write_json(&mut s);
            s
        };
        for cur in current {
            let Some(base) = self.cases.iter().find(|b| b.name() == cur.name()) else {
                push(
                    cur,
                    "case",
                    "<absent>".into(),
                    "measured".into(),
                    Severity::Drift,
                );
                continue;
            };
            diff(base, cur, &mut |metric, b, c| {
                let grew = match (b, c) {
                    (Value::U64(b), Value::U64(c)) => c > b,
                    (Value::F64(b), Value::F64(c)) => c > b,
                    _ => false,
                };
                let severity = if T::COSTS && grew {
                    Severity::Regression
                } else {
                    Severity::Drift
                };
                push(cur, metric, text(b), text(c), severity);
            });
        }
        for base in &self.cases {
            if !current.iter().any(|c| c.name() == base.name()) {
                push(
                    base,
                    "case",
                    "pinned".into(),
                    "<missing>".into(),
                    Severity::Regression,
                );
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str) -> BaselineCase {
        BaselineCase {
            name: name.to_string(),
            modeled_comm_s: 0.125,
            modeled_comp_s: 0.5,
            msgs: 100,
            bytes: 4096,
            total_ops: 9999,
            max_peak_bytes: 1 << 20,
            critical_comm_share: 0.625,
            makespan_s: 0.875,
            wall_s: 0.0,
        }
    }

    #[test]
    fn makespan_is_compared_bit_exact() {
        let b = Baseline::new(vec![case("a")]);
        let mut cur = case("a");
        cur.makespan_s = f64::from_bits(cur.makespan_s.to_bits() + 1);
        let findings = b.compare(&[cur]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "makespan_s");
        assert_eq!(findings[0].severity, Severity::Regression);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let b = Baseline::new(vec![case("a"), case("b \"quoted\"")]);
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(
            parsed.cases[0].modeled_comm_s.to_bits(),
            b.cases[0].modeled_comm_s.to_bits()
        );
    }

    #[test]
    fn identical_runs_pass() {
        let b = Baseline::new(vec![case("a")]);
        assert!(b.compare(&[case("a")]).is_empty());
    }

    #[test]
    fn slower_modeled_time_is_a_regression() {
        let b = Baseline::new(vec![case("a")]);
        let mut cur = case("a");
        cur.modeled_comm_s *= 10.0;
        let findings = b.compare(&[cur]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "modeled_comm_s");
        assert_eq!(findings[0].severity, Severity::Regression);
    }

    #[test]
    fn faster_modeled_time_is_drift_not_pass() {
        let b = Baseline::new(vec![case("a")]);
        let mut cur = case("a");
        cur.modeled_comp_s /= 2.0;
        let findings = b.compare(&[cur]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Drift);
    }

    #[test]
    fn wall_clock_is_neither_written_nor_compared() {
        let b = Baseline::new(vec![case("a")]);
        assert!(!b.to_json().contains("wall"));
        let mut slow = case("a");
        slow.wall_s = 1e6;
        assert!(b.compare(&[slow]).is_empty());
    }

    #[test]
    fn missing_and_new_cases_are_flagged() {
        let b = Baseline::new(vec![case("a")]);
        let findings = b.compare(&[case("b")]);
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .any(|f| f.case == "b" && f.severity == Severity::Drift));
        assert!(findings
            .iter()
            .any(|f| f.case == "a" && f.severity == Severity::Regression));
    }

    #[test]
    fn critical_comm_share_is_compared_bit_exact() {
        let b = Baseline::new(vec![case("a")]);
        let mut cur = case("a");
        cur.critical_comm_share = f64::from_bits(cur.critical_comm_share.to_bits() + 1);
        let findings = b.compare(&[cur]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "critical_comm_share");
    }

    #[test]
    fn peak_memory_growth_is_a_regression() {
        let b = Baseline::new(vec![case("a")]);
        let mut cur = case("a");
        cur.max_peak_bytes += 1;
        let findings = b.compare(&[cur]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].metric, "max_peak_bytes");
        assert_eq!(findings[0].severity, Severity::Regression);
    }
}
