//! `compare A.json B.json`: per workload and end-to-end metric, both
//! medians with their quartiles, the bound, and a verdict.

use crate::decl::END_TO_END;
use crate::stats::Summary;
use mfbc_profile::jsonio::{self, Json};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The baseline's own repetitions spread wider than the bound, so
    /// a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the baseline `a` by the change in the worse
/// direction, as a share of `a`'s median.
pub fn judge(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    let change = (b.median - a.median) / a.median;
    let worse_by = if lower_is_better { change } else { -change };
    if a.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Row {
    /// One per entry of `END_TO_END`, in its order.
    summaries: Vec<Summary>,
    attempted: u64,
    failed: u64,
}

fn load(path: &str) -> Result<Vec<(String, Row)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = jsonio::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no \"workloads\" array"))?;
    let mut rows = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: {name}: metric without {key}"))
        };
        let mut summaries = Vec::new();
        for m in &END_TO_END {
            let v = w
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .ok_or(format!("{path}: {name}: no {}", m.name))?;
            summaries.push(Summary {
                median: field(v, "median")?,
                q1: field(v, "q1")?,
                q3: field(v, "q3")?,
                n: field(v, "n")? as usize,
            });
        }
        let count = |key: &str| w.get(key).and_then(Json::as_u64).unwrap_or(0);
        rows.push((
            name.to_string(),
            Row {
                summaries,
                attempted: count("attempted"),
                failed: count("failed"),
            },
        ));
    }
    Ok(rows)
}

/// Prints the comparison; the error exit is for any `regressed` row or
/// any rise in the failed share.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a_rows, b_rows) = (load(a_path)?, load(b_path)?);
    let mut bad = false;
    println!("# A = {a_path} (baseline)   B = {b_path}");
    println!(
        "{:<15} {:<16} {:>12} {:>25} {:>12} {:>25} {:>18} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "B vs A",
        "bound"
    );
    for (name, a) in &a_rows {
        let Some((_, b)) = b_rows.iter().find(|r| r.0 == *name) else {
            return Err(format!("{b_path} has no workload {name}"));
        };
        for (m, (sa, sb)) in END_TO_END.iter().zip(a.summaries.iter().zip(&b.summaries)) {
            let verdict = judge(sa, sb, m.better == "lower", m.bound);
            bad |= verdict == Verdict::Regressed;
            let quart = |s: &Summary| format!("[{:.5}, {:.5}] {}", s.q1, s.q3, s.n);
            println!(
                "{:<15} {:<16} {:>12.6} {:>25} {:>12.6} {:>25} {:>+8.2}% of A med {:>6.0}%  {}",
                name,
                m.name,
                sa.median,
                quart(sa),
                sb.median,
                quart(sb),
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * m.bound,
                verdict.name(),
            );
        }
        let frac = |r: &Row| r.failed as f64 / r.attempted.max(1) as f64;
        let rose = frac(b) > frac(a);
        bad |= rose;
        println!(
            "{:<15} {:<16} {:>12.6} {:>25} {:>12.6} {:>25} {:>18} {:>6.0}%  {}",
            name,
            "failed_frac",
            frac(a),
            format!("{} of {}", a.failed, a.attempted),
            frac(b),
            format!("{} of {}", b.failed, b.attempted),
            "",
            0.0,
            if rose { "regressed" } else { "unchanged" },
        );
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = s(1.0, 0.99, 1.01);
        assert_eq!(judge(&a, &s(1.2, 1.2, 1.2), true, 0.1), Verdict::Regressed);
        assert_eq!(judge(&a, &s(1.05, 1.0, 1.1), true, 0.1), Verdict::Unchanged);
        assert_eq!(judge(&a, &s(0.8, 0.8, 0.8), true, 0.1), Verdict::Improved);
        // Higher is better: the same numbers read the other way.
        assert_eq!(judge(&a, &s(0.8, 0.8, 0.8), false, 0.1), Verdict::Regressed);
        assert_eq!(judge(&a, &s(1.2, 1.2, 1.2), false, 0.1), Verdict::Improved);
    }

    #[test]
    fn a_noisy_baseline_resolves_nothing() {
        let noisy = s(1.0, 0.9, 1.1);
        assert_eq!(
            judge(&noisy, &s(1.5, 1.5, 1.5), true, 0.1),
            Verdict::Unresolved
        );
    }
}
