//! Command line.
//!
//! ```text
//! mfbc-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! mfbc-benchmark run [--seed N] [--seconds S] [--out FILE]       every workload, table + result.json
//! mfbc-benchmark compare A.json B.json                           two result files, verdict per metric
//! ```
//!
//! `--smoke` swaps in tiny inputs; `--inject-delay-pct P` makes the
//! harness spin for P % of every timed call (see `tests/`).

use crate::bc::{self, BC_WORKLOADS};
use crate::decl::Sizes;
use crate::report::Outcome;
use crate::{compare, run, serve};
use std::io::Write;
use std::process::ExitCode;

/// Options shared by the single-workload mode and `run`.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub delay_pct: f64,
    pub out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: 1,
            seconds: run::DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            delay_pct: 0.0,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                o.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => o.workload = Some(value.clone()),
                "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    o.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                        return Err(bad("a nonnegative number"));
                    }
                }
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--inject-delay-pct" => {
                    o.delay_pct = value.parse().map_err(|_| bad("a number"))?;
                }
                "--out" => o.out = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(o)
    }

    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// Runs one workload in this process, every kernel on one thread:
/// the box has two shared cores, and the benchmark measures the
/// program, not the scheduler. (`MfbcConfig::with_threads(1)` alone
/// would leave the serve engine's sampled estimator on the ambient
/// pool.)
pub fn run_workload(name: &str, o: &Opts) -> Result<Outcome, String> {
    mfbc_parallel::with_threads(1, || dispatch(name, o))
}

fn dispatch(name: &str, o: &Opts) -> Result<Outcome, String> {
    let sizes = o.sizes();
    let bc_spec = BC_WORKLOADS.iter().find(|w| w.name == name);
    // The traced BC pass measures the default allocator policy first
    // and switches itself; everything else runs under the kept-memory
    // policy from the start (see `alloc.rs`).
    if !(o.trace && bc_spec.is_some()) {
        crate::alloc::keep_freed_memory();
    }
    if let Some(spec) = bc_spec {
        return Ok(if o.trace {
            bc::run_traced(spec, &sizes, o.seed)
        } else {
            bc::run_untraced(spec, &sizes, o.seed, o.seconds, o.delay_pct)
        });
    }
    match (name, o.trace) {
        ("serve-converge", false) => Ok(serve::converge_untraced(
            &sizes,
            o.seed,
            o.seconds,
            o.delay_pct,
        )),
        ("serve-converge", true) => Ok(serve::converge_traced(&sizes, o.seed)),
        ("serve-warm", false) => Ok(serve::warm_untraced(&sizes, o.seed, o.seconds, o.delay_pct)),
        ("serve-warm", true) => Ok(serve::warm_traced(&sizes, o.seed)),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

fn single(o: &Opts, name: &str) -> Result<ExitCode, String> {
    let out = run_workload(name, o)?;
    for why in &out.failures {
        eprintln!("{name}: FAILED CHECK: {why}");
    }
    assert!(
        out.declares_exactly(o.trace),
        "{name} printed a metric set other than the declared one"
    );
    let lines = format!("{}\n{}\n", out.samples_line(), out.result_line());
    std::io::stdout()
        .write_all(lines.as_bytes())
        .map_err(|e| format!("cannot print the result: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage:
  mfbc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  mfbc-benchmark run [--seed <n>] [--seconds <s>] [--smoke] [--out <result.json>]
  mfbc-benchmark compare <A.json> <B.json>";

pub fn main(args: Vec<String>) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("run") => Opts::parse(&args[1..]).and_then(|o| run::run_all(&o)),
        _ => Opts::parse(&args).and_then(|o| match o.workload.clone() {
            Some(name) => single(&o, &name),
            None => Err("no --workload and no subcommand".to_string()),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("mfbc-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
