//! `run`: every workload in a child process of its own, one at a
//! time — first untraced for the end-to-end numbers, then traced for
//! the per-layer ones — a table of every metric on stdout, and
//! `benchmark/out/result.json` for `compare`.

use crate::cli::Opts;
use crate::decl::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{summarize, Summary};
use mfbc_profile::jsonio::{self, esc, num, Json};
use std::process::{Command, ExitCode, Stdio};

/// Seconds one untraced run measures; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// What one child printed: its result line and its samples line.
struct Child {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    samples: Vec<(String, Vec<f64>)>,
}

impl Child {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    }

    /// Median and quartiles of a metric's samples; of its one reported
    /// value where the child sent no samples (`peak_rss_mib`).
    fn summary(&self, name: &str) -> Summary {
        match self.samples.iter().find(|x| x.0 == name) {
            Some((_, samples)) => summarize(samples),
            None => summarize(&[self.metric(name)]),
        }
    }
}

fn entries(v: Option<&Json>) -> &[(String, Json)] {
    match v {
        Some(Json::Obj(pairs)) => pairs,
        _ => &[],
    }
}

fn spawn(workload: &str, o: &Opts, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--inject-delay-pct", &o.delay_pct.to_string()])
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        jsonio::parse(line.unwrap_or("")).map_err(|e| format!("{workload}: bad output line: {e}"))
    };
    let result = parse(lines.next())?;
    let samples = parse(lines.next())?;
    let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(Child {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: entries(result.get("metrics"))
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        samples: entries(samples.get("samples"))
            .iter()
            .map(|(k, v)| {
                let vals = v.as_array().unwrap_or(&[]);
                (k.clone(), vals.iter().filter_map(Json::as_f64).collect())
            })
            .collect(),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
fn env_block(o: &Opts) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"git_commit\":\"{}\",\"nproc\":{nproc},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"threads\":1,\"seed\":{},\"seconds\":{},\"smoke\":{},\"inject_delay_pct\":{}}}",
        esc(&command_line("git", &["rev-parse", "HEAD"])),
        esc(&cpu),
        esc(&command_line("rustc", &["--version"])),
        o.seed,
        num(o.seconds),
        o.smoke,
        num(o.delay_pct),
    )
}

fn summary_json(unit: &str, s: &Summary) -> String {
    format!(
        "{{\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
        esc(unit),
        num(s.median),
        num(s.q1),
        num(s.q3),
        s.n
    )
}

pub fn run_all(o: &Opts) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let mut any_failed = false;
    println!(
        "# seed {}  seconds {}  smoke {}  threads 1",
        o.seed, o.seconds, o.smoke
    );
    for w in &WORKLOADS {
        let untraced = spawn(w.name, o, false)?;
        let traced = spawn(w.name, o, true)?;
        let (attempted, failed) = (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        );
        any_failed |= failed > 0;
        println!("\n## {}  ({})", w.name, w.why);
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let s = untraced.summary(m.name);
            println!(
                "{:<32} {:>14.6} {:<6} q1 {:.6} q3 {:.6} n {}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
            e2e.push(format!("\"{}\":{}", m.name, summary_json(m.unit, &s)));
        }
        // Raw seconds of the same repetitions: read by people, judged
        // by nothing (the sandbox's own speed moves them by 10-20 %).
        let raw = untraced.summary("wall_s");
        println!(
            "{:<32} {:>14.6} {:<6} q1 {:.6} q3 {:.6} n {} (not judged)",
            "wall_s", raw.median, "s", raw.q1, raw.q3, raw.n
        );
        println!(
            "{:<32} {:>14.6} {:<6} ({failed} of {attempted} checked operations)",
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "share"
        );
        let mut layers = Vec::new();
        for m in PER_LAYER {
            let v = traced.metric(m.name);
            println!("{:<32} {:>14.6} {}", m.name, v, m.unit);
            layers.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(v),
                m.unit
            ));
        }
        rows.push(format!(
            "{{\"name\":\"{}\",\"attempted\":{attempted},\"failed\":{failed},\"end_to_end\":{{{}}},\"wall_s\":{},\"per_layer\":{{{}}}}}",
            w.name,
            e2e.join(","),
            summary_json("s", &raw),
            layers.join(",")
        ));
    }
    let doc = format!(
        "{{\"env\":{},\"workloads\":[\n{}\n]}}\n",
        env_block(o),
        rows.join(",\n")
    );
    let path = match &o.out {
        Some(p) => std::path::PathBuf::from(p),
        None => crate::out_dir().join("result.json"),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\n# wrote {}", path.display());
    Ok(if any_failed {
        eprintln!("mfbc-benchmark: output checks failed (named above)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
