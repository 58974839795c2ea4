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

use mfbc_trace::json::{esc, num, parse, Json};

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

/// A parsed (or freshly measured) baseline file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    /// Schema version.
    pub version: u64,
    /// Pinned cases, in suite order.
    pub cases: Vec<BaselineCase>,
}

/// Schema version written by [`Baseline::to_json`]. Version 2 added
/// `critical_comm_share` (the timeline analyzer's communication share
/// of the causal critical path). Version 3 added `makespan_s` (the
/// modeled causal makespan, pinned bit-exact so communication overlap
/// wins — and regressions — are gated directly). Version 4 dropped
/// `wall_band` and the per-case `wall_s`.
pub const BASELINE_VERSION: u64 = 4;

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

impl Baseline {
    /// A baseline wrapping freshly measured cases.
    pub fn new(cases: Vec<BaselineCase>) -> Baseline {
        Baseline {
            version: BASELINE_VERSION,
            cases,
        }
    }

    /// Serializes to the committed JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            let comma = if i + 1 == self.cases.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"modeled_comm_s\": {}, \"modeled_comp_s\": {}, \
                 \"msgs\": {}, \"bytes\": {}, \"total_ops\": {}, \"max_peak_bytes\": {}, \
                 \"critical_comm_share\": {}, \"makespan_s\": {}}}{comma}\n",
                esc(&c.name),
                num(c.modeled_comm_s),
                num(c.modeled_comp_s),
                c.msgs,
                c.bytes,
                c.total_ops,
                c.max_peak_bytes,
                num(c.critical_comm_share),
                num(c.makespan_s)
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a baseline file.
    pub fn from_json(doc: &str) -> Result<Baseline, String> {
        let v = parse(doc)?;
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("baseline missing `version`")?;
        if version != BASELINE_VERSION {
            return Err(format!(
                "baseline version {version} unsupported (expected {BASELINE_VERSION})"
            ));
        }
        let cases = v
            .get("cases")
            .and_then(Json::as_array)
            .ok_or("baseline missing `cases`")?
            .iter()
            .map(|c| {
                let field_u64 = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("case missing `{k}`"))
                };
                let field_f64 = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("case missing `{k}`"))
                };
                Ok(BaselineCase {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("case missing `name`")?
                        .to_string(),
                    modeled_comm_s: field_f64("modeled_comm_s")?,
                    modeled_comp_s: field_f64("modeled_comp_s")?,
                    msgs: field_u64("msgs")?,
                    bytes: field_u64("bytes")?,
                    total_ops: field_u64("total_ops")?,
                    max_peak_bytes: field_u64("max_peak_bytes")?,
                    critical_comm_share: field_f64("critical_comm_share")?,
                    makespan_s: field_f64("makespan_s")?,
                    wall_s: 0.0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Baseline { version, cases })
    }

    /// Compares freshly measured `current` cases against this
    /// baseline. An empty result means the gate passes.
    pub fn compare(&self, current: &[BaselineCase]) -> Vec<Finding> {
        let mut findings = Vec::new();

        for cur in current {
            let Some(base) = self.cases.iter().find(|b| b.name == cur.name) else {
                findings.push(Finding {
                    case: cur.name.clone(),
                    metric: "case",
                    baseline: "<absent>".to_string(),
                    current: "measured".to_string(),
                    severity: Severity::Drift,
                });
                continue;
            };
            compare_case(base, cur, &mut findings);
        }
        for base in &self.cases {
            if !current.iter().any(|c| c.name == base.name) {
                findings.push(Finding {
                    case: base.name.clone(),
                    metric: "case",
                    baseline: "pinned".to_string(),
                    current: "<missing>".to_string(),
                    severity: Severity::Regression,
                });
            }
        }
        findings
    }
}

fn compare_case(base: &BaselineCase, cur: &BaselineCase, out: &mut Vec<Finding>) {
    let mut exact_f64 = |metric: &'static str, b: f64, c: f64| {
        if b.to_bits() != c.to_bits() {
            out.push(Finding {
                case: cur.name.clone(),
                metric,
                baseline: num(b),
                current: num(c),
                severity: if c > b {
                    Severity::Regression
                } else {
                    Severity::Drift
                },
            });
        }
    };
    exact_f64("modeled_comm_s", base.modeled_comm_s, cur.modeled_comm_s);
    exact_f64("modeled_comp_s", base.modeled_comp_s, cur.modeled_comp_s);
    exact_f64(
        "critical_comm_share",
        base.critical_comm_share,
        cur.critical_comm_share,
    );
    exact_f64("makespan_s", base.makespan_s, cur.makespan_s);

    let mut exact_u64 = |metric: &'static str, b: u64, c: u64| {
        if b != c {
            out.push(Finding {
                case: cur.name.clone(),
                metric,
                baseline: b.to_string(),
                current: c.to_string(),
                severity: if c > b {
                    Severity::Regression
                } else {
                    Severity::Drift
                },
            });
        }
    };
    exact_u64("msgs", base.msgs, cur.msgs);
    exact_u64("bytes", base.bytes, cur.bytes);
    exact_u64("total_ops", base.total_ops, cur.total_ops);
    exact_u64("max_peak_bytes", base.max_peak_bytes, cur.max_peak_bytes);
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
