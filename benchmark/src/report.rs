//! What one workload run produces, and the two JSON lines it prints.

use crate::decl::{unit_of, END_TO_END, PER_LAYER};
use mfbc_profile::jsonio::{esc, num};

/// Result of one workload run (untraced or traced).
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: repetitions for the BC workloads,
    /// requests for the serve workloads.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check, printed on stderr.
    pub failures: Vec<String>,
    /// Reported value per metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Raw per-repetition samples behind the end-to-end medians.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// An outcome holding every per-layer metric at 0: a traced run
    /// prints all of them and fills in the ones its workload reaches.
    pub fn per_layer_zeroed() -> Outcome {
        Outcome {
            metrics: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            ..Outcome::default()
        }
    }

    /// Sets a declared metric, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Records the samples of an end-to-end metric and reports their
    /// median.
    pub fn set_samples(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, crate::stats::median(&samples));
        self.samples.push((name, samples));
    }

    /// Counts one attempted operation; a `Some` is a failed check.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Closes a traced pass: reports how much of it the top-level
    /// spans cover and writes `benchmark/out/trace.<workload>.jsonl`.
    pub fn finish_trace(&mut self, tr: &crate::spans::Tracer, workload: &str) {
        self.set("bench.span_coverage", tr.coverage());
        let path = crate::out_dir().join(format!("trace.{workload}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            self.check(Some(format!("cannot write {}: {e}", path.display())));
        }
    }

    /// The end-to-end numbers of an untraced run's measurement window.
    /// `peak_rss_mib` is set separately, at a fixed point of the run.
    /// The raw seconds ride along as samples only: `run` prints them,
    /// nothing is judged by them (see `inputs::measure`).
    pub fn set_end_to_end(&mut self, measured: crate::inputs::Measured) {
        self.set_samples("wall_vs_brandes", measured.vs_reference);
        self.set_samples("setup_s", measured.setup_s);
        self.samples.push(("wall_s", measured.wall_s));
    }

    /// Prepared-adjacency cache activity of a session or an engine.
    pub fn set_cache_stats(&mut self, hits: u64, misses: u64) {
        self.set("tensor.cache_hits", hits as f64);
        self.set("tensor.cache_misses", misses as f64);
        self.set(
            "tensor.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The samples line: `{"samples": {"wall_s": [..], ..}}`. `run`
    /// reads it for quartiles; the last line stays exactly the result.
    pub fn samples_line(&self) -> String {
        let body: Vec<String> = self
            .samples
            .iter()
            .map(|(name, vals)| {
                let vals: Vec<String> = vals.iter().map(|v| num(*v)).collect();
                format!("\"{}\":[{}]", esc(name), vals.join(","))
            })
            .collect();
        format!("{{\"samples\":{{{}}}}}", body.join(","))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        // In declared order, whatever order the run set them in.
        let declared = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        let body: Vec<String> = declared
            .filter_map(|name| Some((name, self.get(name)?)))
            .map(|(name, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    esc(name),
                    num(v),
                    esc(unit_of(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(",")
        )
    }

    /// Whether the outcome carries exactly the metrics its mode
    /// declares (end-to-end untraced, per-layer traced).
    pub fn declares_exactly(&self, traced: bool) -> bool {
        let mut want: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        want.sort_unstable();
        got.sort_unstable();
        want == got
    }
}

/// Peak resident set of this process in MiB (`VmHWM`). Each workload
/// runs in a process of its own, so this is the workload's peak.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
