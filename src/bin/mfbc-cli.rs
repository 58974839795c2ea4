//! `mfbc-cli` — command-line betweenness centrality and friends.
//!
//! ```text
//! mfbc-cli bc        [--directed] [--weighted] [--batch N] [--approx K]
//!                    [--top K] [--normalized] [--seed S] [--threads T]
//!                    <edge-list|->
//! mfbc-cli sssp      --source V [--directed] <edge-list|->
//! mfbc-cli components [--directed] <edge-list|->
//! mfbc-cli stats     [--directed] <edge-list|->
//! mfbc-cli simulate  --nodes P [--plan auto|ca:C|combblas] [--batch N]
//!                    [--graph rmat:S,E | uniform:N,M | FILE] [--directed]
//!                    [--threads T] [--no-masked] [--faults SPEC]
//!                    [--fault-seed S] [--trace-out FILE]
//!                    [--trace-format chrome|jsonl] [--profile-out FILE]
//!                    [--profile-html FILE] [--timeline-out FILE]
//! mfbc-cli bench     [--baseline FILE] [--write FILE]
//!                    [--case NAME] [--profile-out FILE] [--html-out FILE]
//!                    [--prom-out FILE] [--timeline-out FILE]
//!                    [--timeline-html FILE]
//! mfbc-cli analyze   [--case NAME] [--timeline-out FILE] [--html-out FILE]
//!                    [--what-if SPEC]... [--compare FILE] [--top K]
//! mfbc-cli generate  (rmat:S,E | uniform:N,M) [--weighted MAX] [--seed S]
//!                    [--directed]
//! mfbc-cli serve     --nodes P [--graph SPEC] [--batch N] [--queue N]
//!                    [--deadline S] [--faults SPEC] [--fault-seed S]
//!                    [--seed S] [--threads T] [--warm] [--prom-out FILE]
//!                    [--directed]
//! ```
//!
//! Edge lists are SNAP format (`src dst [weight]`, `#` comments);
//! `-` reads stdin. `simulate` runs one batch on the simulated
//! machine and prints the critical-path cost report. `--faults`
//! injects a failure schedule (`crash:R@K,transient:N@K,oom:R@K`,
//! keyed by collective sequence number) and `--fault-seed` a random
//! one; the driver recovers and reports what it did on stderr.
//! `--profile-out` aggregates the same trace stream into a
//! `profile.json` (per-rank comm/compute, per-superstep breakdown,
//! plan mix, memory peaks); it composes with `--trace-out` — every
//! installed sink sees every event.
//!
//! `analyze` runs one pinned bench case under the timeline analyzer
//! (`mfbc-timeline`) and prints the exact critical path — the chain
//! of segments whose modeled durations sum **bit-for-bit** to the
//! causal makespan — plus the ranked bottleneck table and
//! per-superstep straggler attribution. `--what-if` evaluates
//! counterfactual edits (`overlap`, `zero:<kind>`, `alpha:<s>`,
//! `beta:<s>`, `gamma:<s>`, comma-separable) as modeled lower bounds;
//! `--timeline-out` writes the versioned `timeline.json`;
//! `--html-out` a self-contained Gantt view; `--compare` diffs the
//! run against a previously written `timeline.json`. `simulate`
//! always prints its top-3 bottleneck segments on stderr and tees the
//! same analysis to `--timeline-out`.
//!
//! `bench` runs the pinned regression suite
//! ([`mfbc_bench::regress`]): `--write` seeds or refreshes the
//! committed baseline (`BENCH_mfbc.json`), `--baseline` compares the
//! current run against it and exits nonzero on any finding. Modeled
//! α–β–γ seconds and counts are compared bit-exact (they are
//! deterministic); wall-clock is printed per case but not gated here
//! (`BENCHMARK.json` is the wall-clock instrument).
//! `--serve-write`/`--serve-baseline` do the same for the serve load
//! suite ([`mfbc_bench::serveload`], baseline `BENCH_serve.json`).
//!
//! `serve` runs the long-lived [`mfbc_serve::Engine`] as a JSON-lines
//! loop on stdin: one request per line, a blank line flushes the
//! coalesced round, `{"cmd":"health"}` answers immediately, EOF
//! drains and exits. `--warm` completes the exact computation before
//! accepting requests; `--prom-out` writes the engine's Prometheus
//! metrics at shutdown.
//!
//! Exit codes are structured (see the README table): `0` success,
//! `2` usage/config/parse errors, `3` simulated-machine failures,
//! `4` bench-gate regressions, `5` serve shutdown with a poisoned
//! engine.

use mfbc::core::combblas::{combblas_bc, CombBlasConfig};
use mfbc::prelude::*;
use std::io::Read;
use std::io::Write as _;
use std::process::ExitCode;

/// Ends the process when a write to stdout failed: quietly when the
/// consumer closed the pipe (e.g. `mfbc-cli bc … | head`).
fn stdout_or_exit(written: std::io::Result<()>) {
    if let Err(e) = written {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("mfbc-cli: stdout: {e}");
        std::process::exit(1);
    }
}

/// Prints a line to stdout; see [`stdout_or_exit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        stdout_or_exit(writeln!(std::io::stdout().lock(), $($arg)*))
    };
}

/// Structured CLI failure: the variant picks the process exit code
/// (documented in the README's exit-code table).
enum CliError {
    /// Bad flags, malformed input, unreadable files — exit 2.
    Usage(String),
    /// The simulated machine failed with a `MachineError` — exit 3.
    Machine(String),
    /// A bench gate found regressions or drift — exit 4.
    BenchRegression(String),
    /// `serve` shut down with a poisoned engine — exit 5.
    ServePoisoned(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Machine(_) => 3,
            CliError::BenchRegression(_) => 4,
            CliError::ServePoisoned(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Machine(m)
            | CliError::BenchRegression(m)
            | CliError::ServePoisoned(m) => m,
        }
    }

    /// Wraps a `MachineError` (or anything displayable as one).
    fn machine(e: impl std::fmt::Display) -> CliError {
        CliError::Machine(e.to_string())
    }
}

/// Plain-`String` errors from the option parser and the simple
/// subcommands are all usage/config errors.
impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mfbc-cli: {}", e.message());
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.code())
        }
    }
}

const USAGE: &str = "usage:
  mfbc-cli bc [--directed] [--weighted] [--batch N] [--approx K] [--top K] [--normalized] [--seed S] [--threads T] <edge-list|->
  mfbc-cli sssp --source V [--directed] <edge-list|->
  mfbc-cli components [--directed] <edge-list|->
  mfbc-cli stats [--directed] <edge-list|->
  mfbc-cli simulate --nodes P [--plan auto|ca:C|combblas] [--batch N] [--graph rmat:S,E|uniform:N,M|FILE] [--directed] [--threads T] [--no-masked] [--no-overlap] [--hybrid-redist auto|bcast|p2p|alltoall] [--faults SPEC] [--fault-seed S] [--trace-out FILE] [--trace-format chrome|jsonl] [--profile-out FILE] [--profile-html FILE] [--timeline-out FILE]
  mfbc-cli bench [--baseline FILE] [--write FILE] [--serve-baseline FILE] [--serve-write FILE] [--case NAME] [--no-overlap] [--hybrid-redist auto|bcast|p2p|alltoall] [--profile-out FILE] [--html-out FILE] [--prom-out FILE] [--timeline-out FILE] [--timeline-html FILE]
  mfbc-cli analyze [--case NAME] [--timeline-out FILE] [--html-out FILE] [--what-if SPEC] [--compare FILE] [--top K]
  mfbc-cli generate (rmat:S,E | uniform:N,M) [--weighted MAX] [--seed S] [--directed]
  mfbc-cli serve --nodes P [--graph rmat:S,E|uniform:N,M|FILE] [--batch N] [--queue N] [--deadline S] [--faults SPEC] [--fault-seed S] [--seed S] [--threads T] [--warm] [--prom-out FILE] [--flight-out FILE] [--mem-bytes B] [--directed]
exit codes: 0 ok, 2 usage/config, 3 machine error, 4 bench regression, 5 serve poisoned";

/// Minimal flag parser: `--key value` options, `--flag` booleans, one
/// positional argument. A flag a command does not declare is an error.
struct Opts {
    flags: Vec<(String, Option<String>)>,
    positional: Option<String>,
}

impl Opts {
    fn parse(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Opts, String> {
        let mut flags = Vec::new();
        let mut positional = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), Some(v.clone())));
                } else if bool_flags.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else if positional.is_none() {
                positional = Some(a.clone());
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Opts { flags, positional })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Every value of a repeatable flag, in argument order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(k, _)| k == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "bc" => cmd_bc(rest).map_err(CliError::from),
        "sssp" => cmd_sssp(rest).map_err(CliError::from),
        "components" => cmd_components(rest).map_err(CliError::from),
        "stats" => cmd_stats(rest).map_err(CliError::from),
        "simulate" => cmd_simulate(rest),
        "bench" => cmd_bench(rest),
        "analyze" => cmd_analyze(rest).map_err(CliError::from),
        "generate" => cmd_generate(rest).map_err(CliError::from),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}

fn load_graph(path: Option<&str>, directed: bool) -> Result<Graph, String> {
    let path = path.ok_or("missing edge-list path (or '-')")?;
    let g = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        io::read_edge_list(buf.as_bytes(), directed)
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        io::read_edge_list(file, directed)
    };
    g.map_err(|e| e.to_string())
}

/// Parses `rmat:S,E` / `uniform:N,M` specs; anything else is a path.
fn load_workload(
    spec: &str,
    directed: bool,
    weighted: Option<u64>,
    seed: u64,
) -> Result<Graph, String> {
    if let Some(params) = spec.strip_prefix("rmat:") {
        let (s, e) = split2(params)?;
        let cfg = RmatConfig {
            scale: s as u32,
            edge_factor: e as usize,
            probs: (0.57, 0.19, 0.19),
            directed,
            weights: weighted,
            seed,
        };
        return Ok(prep::remove_isolated(&rmat(&cfg)));
    }
    if let Some(params) = spec.strip_prefix("uniform:") {
        let (n, m) = split2(params)?;
        return Ok(uniform(n as usize, m as usize, directed, weighted, seed));
    }
    load_graph(Some(spec), directed)
}

fn split2(params: &str) -> Result<(u64, u64), String> {
    let mut it = params.split(',');
    let a = it
        .next()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| format!("bad parameters {params:?}"))?;
    let b = it
        .next()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| format!("bad parameters {params:?}"))?;
    if it.next().is_some() {
        return Err(format!("bad parameters {params:?}"));
    }
    Ok((a, b))
}

/// Parses `--threads T`, rejecting zero (the pool needs at least one
/// worker; `1` means run serially without spawning).
fn parse_threads(o: &Opts) -> Result<Option<usize>, String> {
    match o.get_parsed::<usize>("threads")? {
        Some(0) => Err("--threads must be at least 1".into()),
        other => Ok(other),
    }
}

/// Parses `--hybrid-redist MODE` into the machine's redistribution
/// mode (`auto`, `bcast`, `p2p`, or the legacy `alltoall`).
fn parse_redist(o: &Opts) -> Result<Option<mfbc_machine::RedistMode>, String> {
    match o.get("hybrid-redist") {
        None => Ok(None),
        Some("auto") => Ok(Some(mfbc_machine::RedistMode::Auto)),
        Some("bcast") => Ok(Some(mfbc_machine::RedistMode::Bcast)),
        Some("p2p") => Ok(Some(mfbc_machine::RedistMode::P2p)),
        Some("alltoall") => Ok(Some(mfbc_machine::RedistMode::Alltoall)),
        Some(other) => Err(format!(
            "--hybrid-redist must be auto, bcast, p2p, or alltoall, got {other:?}"
        )),
    }
}

/// Prints the overlapped-vs-serialized makespan comparison for a
/// sealed timeline: whichever mode the run used, the counterpart is
/// priced with the corresponding what-if replay (bit-exact on the
/// recorded side).
fn eprint_overlap_delta(tl: &mfbc_timeline::Timeline) {
    let serialize = mfbc_timeline::WhatIf {
        serialize: true,
        ..mfbc_timeline::WhatIf::identity()
    };
    let overlap = mfbc_timeline::WhatIf {
        overlap: true,
        ..mfbc_timeline::WhatIf::identity()
    };
    let (ovl_s, ser_s) = if tl.spec.overlap {
        (tl.makespan_s(), mfbc_timeline::evaluate(tl, &serialize))
    } else {
        (mfbc_timeline::evaluate(tl, &overlap), tl.makespan_s())
    };
    let saved = ser_s - ovl_s;
    let pct = if ser_s > 0.0 {
        saved / ser_s * 100.0
    } else {
        0.0
    };
    eprintln!(
        "overlap: serialized {ser_s:.6}s vs overlapped {ovl_s:.6}s — {saved:.6}s ({pct:.1}%) hidden under compute ({})",
        if tl.spec.overlap {
            "this run overlapped; serialized bound from the `serialize` what-if"
        } else {
            "this run serialized; overlapped bound from the `overlap` what-if"
        }
    );
}

fn cmd_bc(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &["batch", "approx", "top", "seed", "threads"],
        &["directed", "weighted", "normalized"],
    )?;
    let g = load_graph(o.positional.as_deref(), o.has("directed"))?;
    if o.has("weighted") && g.is_unit_weighted() {
        eprintln!("note: --weighted given but all weights are 1");
    }
    let batch = o.get_parsed::<usize>("batch")?.unwrap_or(64).max(1);
    let seed = o.get_parsed::<u64>("seed")?.unwrap_or(42);
    let threads = parse_threads(&o)?;
    let compute = || match o.get_parsed::<usize>("approx") {
        Ok(Some(k)) => {
            let est = mfbc_approx(&g, k.min(g.n()).max(1), seed);
            eprintln!("approximated from {} sampled sources", est.sources.len());
            Ok(est.scores)
        }
        Ok(None) => Ok(mfbc_seq(&g, batch).0),
        Err(e) => Err(e),
    };
    let scores = match threads {
        Some(t) => mfbc_parallel::with_threads(t, compute)?,
        None => compute()?,
    };
    let scores = if o.has("normalized") {
        scores.normalized()
    } else {
        scores
    };
    match o.get_parsed::<usize>("top")? {
        Some(k) => {
            for (v, s) in scores.top_k(k) {
                outln!("{v}\t{s}");
            }
        }
        None => {
            for (v, s) in scores.lambda.iter().enumerate() {
                outln!("{v}\t{s}");
            }
        }
    }
    Ok(())
}

fn cmd_sssp(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["source"], &["directed"])?;
    let source: usize = o.get_parsed("source")?.ok_or("sssp needs --source V")?;
    let g = load_graph(o.positional.as_deref(), o.has("directed"))?;
    if source >= g.n() {
        return Err(format!("source {source} out of range (n = {})", g.n()));
    }
    let d = sssp_seq(&g, &[source]);
    for v in 0..g.n() {
        match d.get(0, v) {
            Some(w) => outln!("{v}\t{}", w.raw()),
            None => outln!("{v}\tinf"),
        }
    }
    Ok(())
}

fn cmd_components(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &["directed"])?;
    let g = load_graph(o.positional.as_deref(), o.has("directed"))?;
    let labels = connected_components(&g);
    eprintln!("{} components", component_count(&g));
    for (v, l) in labels.iter().enumerate() {
        outln!("{v}\t{l}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &[], &["directed"])?;
    let g = load_graph(o.positional.as_deref(), o.has("directed"))?;
    let (avg, max) = stats::degree_stats(&g);
    outln!("n\t{}", g.n());
    outln!("arcs\t{}", g.m());
    outln!("edges\t{}", g.edge_count());
    outln!("directed\t{}", g.directed());
    outln!("weighted\t{}", !g.is_unit_weighted());
    outln!("avg_degree\t{avg:.2}");
    outln!("max_degree\t{max}");
    outln!("components\t{}", component_count(&g));
    outln!("sampled_diameter\t{}", stats::effective_diameter(&g, 8, 7));
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let o = Opts::parse(
        args,
        &[
            "nodes",
            "plan",
            "batch",
            "graph",
            "seed",
            "threads",
            "faults",
            "fault-seed",
            "trace-out",
            "trace-format",
            "profile-out",
            "profile-html",
            "timeline-out",
            "hybrid-redist",
        ],
        &["directed", "no-masked", "no-overlap"],
    )?;
    let p: usize = o.get_parsed("nodes")?.ok_or("simulate needs --nodes P")?;
    let spec_str = o.get("graph").unwrap_or("rmat:12,16");
    let seed = o.get_parsed::<u64>("seed")?.unwrap_or(42);
    let g = load_workload(spec_str, o.has("directed"), None, seed)?;
    let batch = o.get_parsed::<usize>("batch")?.unwrap_or(128);
    let threads = parse_threads(&o)?;

    // Fault injection: an explicit schedule (`--faults crash:2@5,…`),
    // a seeded random one (`--fault-seed S`), or both combined.
    let mut fault_plan = match o.get("faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
        None => FaultPlan::none(),
    };
    if let Some(fseed) = o.get_parsed::<u64>("fault-seed")? {
        fault_plan.faults.extend(FaultPlan::seeded(fseed, p).faults);
    }
    let faults_scheduled = fault_plan.faults.len() as u64;
    let mut spec = MachineSpec::gemini(p);
    if o.has("no-overlap") {
        spec.overlap = false;
    }
    if let Some(mode) = parse_redist(&o)? {
        spec.redist = mode;
    }
    let machine = if fault_plan.is_empty() {
        Machine::new(spec)
    } else {
        Machine::with_faults(spec, fault_plan, RetryPolicy::default())
    };

    // Structured tracing: record every collective, SpGEMM, autotune
    // decision, and superstep; written after the run.
    let trace_out = o.get("trace-out").map(str::to_string);
    let trace_format = o.get("trace-format").unwrap_or("chrome").to_string();
    if !matches!(trace_format.as_str(), "chrome" | "jsonl") {
        return Err(format!("--trace-format must be chrome or jsonl, got {trace_format:?}").into());
    }
    let profile_out = o.get("profile-out").map(str::to_string);
    let profile_html = o.get("profile-html").map(str::to_string);
    if profile_html.is_some() && profile_out.is_none() {
        return Err("--profile-html needs --profile-out (the profile it renders)".into());
    }
    let timeline_out = o.get("timeline-out").map(str::to_string);
    let recorder = trace_out
        .as_ref()
        .map(|_| std::sync::Arc::new(mfbc_trace::MemoryRecorder::new()));
    // The timeline builder always rides along: the top-bottleneck
    // block below is printed for every run, and its fold is what the
    // trace summaries and the profile read.
    let builder = std::sync::Arc::new(mfbc_timeline::TimelineBuilder::new(machine.spec().clone()));
    // Every installed sink sees every event, in installation order.
    if let Some(rec) = &recorder {
        mfbc_trace::install(rec.clone());
    }
    mfbc_trace::install(builder.clone());

    let plan = o.get("plan").unwrap_or("auto");
    let (label, sources, report, recovery) = if plan == "combblas" {
        let combblas = || {
            combblas_bc(
                &machine,
                &g,
                &CombBlasConfig {
                    batch_size: Some(batch),
                    max_batches: Some(1),
                },
            )
        };
        let run = match threads {
            Some(t) => mfbc_parallel::with_threads(t, combblas),
            None => combblas(),
        }
        .map_err(CliError::machine)?;
        (
            "CombBLAS-style".to_string(),
            run.sources_processed,
            machine.report(),
            None,
        )
    } else {
        let mode = if let Some(c) = plan.strip_prefix("ca:") {
            PlanMode::Ca {
                c: c.parse().map_err(|_| format!("bad plan {plan:?}"))?,
            }
        } else if plan == "auto" {
            PlanMode::Auto
        } else {
            return Err(format!("unknown plan {plan:?}").into());
        };
        let run = mfbc_dist(
            &machine,
            &g,
            &MfbcConfig {
                batch_size: Some(batch),
                plan_mode: mode,
                max_batches: Some(1),
                threads,
                // Forward-expansion output masking defaults on (it is
                // a pure optimization on unit-weighted graphs);
                // `--no-masked` disables it for A/B comparisons.
                masked: !o.has("no-masked"),
                ..Default::default()
            },
        )
        .map_err(CliError::machine)?;
        // After a crash recovery the run finished on a *shrunk*
        // machine our handle no longer tracks — the run carries the
        // authoritative cost report.
        (
            format!("CTF-MFBC ({plan})"),
            run.sources_processed,
            run.report.clone(),
            Some(run.recovery),
        )
    };

    mfbc_trace::uninstall_all();
    let tl = builder.finish();
    if let (Some(path), Some(rec)) = (&trace_out, &recorder) {
        let records = rec.take();
        let text = match trace_format.as_str() {
            "jsonl" => mfbc_trace::to_jsonl(&records),
            _ => mfbc_trace::to_chrome_trace(&records),
        };
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "trace: {} events -> {path} ({trace_format}); open chrome traces in chrome://tracing or ui.perfetto.dev",
            records.len()
        );
        eprint!("{}", tl.summary.render());
    }

    if let Some(path) = &profile_out {
        if recovery.as_ref().is_some_and(|r| r.replans > 0) {
            eprintln!(
                "note: the run replanned onto a shrunk machine this handle no longer tracks; \
                 the profile's per-rank meters cover the pre-crash machine only"
            );
        }
        let profile = mfbc_profile::Profile::of(&tl.summary, &machine);
        let json = mfbc_profile::export::profile_to_json(&profile);
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "profile: {} events, {} superstep(s) -> {path}",
            profile.events,
            profile.supersteps.len()
        );
        if let Some(hpath) = &profile_html {
            let html = mfbc_profile::html::render(&profile);
            std::fs::write(hpath, html).map_err(|e| format!("{hpath}: {e}"))?;
            eprintln!("profile: report -> {hpath}");
        }
    }

    // Causal analysis: the top bottleneck segments of the run's
    // critical path (always printed; `--timeline-out` persists the
    // full document).
    {
        let an = mfbc_timeline::analyze(&tl);
        eprintln!(
            "timeline: makespan {:?}s across {} segment(s); top-3 bottleneck segments \
             (critical-path seconds, share of makespan):",
            tl.makespan_s(),
            an.path.segments.len()
        );
        for b in an.bottlenecks.iter().take(3) {
            eprintln!(
                "timeline:   {:<14} {:>12.6}s  {:>5.1}%  ({} segment(s))",
                b.label,
                b.seconds,
                b.share * 100.0,
                b.count
            );
        }
        eprint_overlap_delta(&tl);
        if let Some(path) = &timeline_out {
            let d = mfbc_timeline::doc(&tl, &an, &[]);
            std::fs::write(path, mfbc_timeline::to_json(&d)).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("timeline: {} segment(s) -> {path}", tl.nodes.len());
        }
    }

    if let Some(rec) = recovery.as_ref() {
        if rec.faults_injected < faults_scheduled {
            eprintln!(
                "note: {} of {faults_scheduled} scheduled fault(s) never fired — the run ended \
                 before their collective sequence number (try a smaller @SEQ or a larger --batch)",
                faults_scheduled - rec.faults_injected,
            );
        }
    }
    if let Some(rec) = recovery.as_ref().filter(|r| r.any()) {
        eprintln!(
            "recovery: {} fault(s) injected, {} collective retries, {} batch retries, \
             {} replan(s), {} checkpoint(s) restored, {} batch halving(s), \
             {:.6}s modeled time wasted, finished on {} node(s)",
            rec.faults_injected,
            rec.collective_retries,
            rec.batch_retries,
            rec.replans,
            rec.checkpoints_restored,
            rec.oom_halvings,
            rec.wasted_modeled_s,
            rec.final_p,
        );
    }

    let time = report.critical.total_time();
    outln!("algorithm\t{label}");
    outln!("graph\t{spec_str} (n={}, arcs={})", g.n(), g.m());
    outln!("nodes\t{p}");
    outln!("batch\t{sources}");
    outln!("modeled_time_s\t{time:.6}");
    outln!("comm_s\t{:.6}", report.critical.comm_time);
    outln!("compute_s\t{:.6}", report.critical.comp_time);
    outln!("critical_msgs\t{}", report.critical.msgs);
    outln!("critical_bytes\t{}", report.critical.bytes);
    outln!(
        "mteps_per_node\t{:.2}",
        g.m() as f64 * sources as f64 / time / 1e6 / p as f64
    );
    Ok(())
}

/// `mfbc-cli bench`: the perf regression sentinel. Runs the pinned
/// suite from [`mfbc_bench::regress`], optionally writes a fresh
/// baseline (`--write`), optionally compares against a committed one
/// (`--baseline`, nonzero exit on any finding), and exports the
/// profile artifacts of one case (`--case`, default the first).
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let o = Opts::parse(
        args,
        &[
            "baseline",
            "write",
            "serve-baseline",
            "serve-write",
            "case",
            "profile-out",
            "html-out",
            "prom-out",
            "timeline-out",
            "timeline-html",
            "hybrid-redist",
        ],
        &["no-overlap"],
    )?;
    if let Some(p) = &o.positional {
        return Err(format!("bench takes no positional argument, got {p:?}").into());
    }

    let opts = mfbc_bench::regress::SuiteOptions {
        overlap: if o.has("no-overlap") {
            Some(false)
        } else {
            None
        },
        redist: parse_redist(&o)?,
        ..mfbc_bench::regress::SuiteOptions::default()
    };
    eprintln!(
        "bench: running {} pinned case(s)...",
        mfbc_bench::regress::suite_case_names().len()
    );
    let results = mfbc_bench::regress::run_suite(&opts);
    let cases: Vec<mfbc_profile::BaselineCase> = results.iter().map(|r| r.case.clone()).collect();
    for c in &cases {
        outln!(
            "{}\tcomm_s={:?}\tcomp_s={:?}\tmsgs={}\tbytes={}\tops={}\tpeak_bytes={}\tmakespan_s={:?}\twall_s={:.3}",
            c.name,
            c.modeled_comm_s,
            c.modeled_comp_s,
            c.msgs,
            c.bytes,
            c.total_ops,
            c.max_peak_bytes,
            c.makespan_s,
            c.wall_s,
        );
    }
    for r in &results {
        eprint!("bench: {}: ", r.case.name);
        eprint_overlap_delta(&r.timeline);
    }

    // Profile artifacts for one case (CI uploads these).
    let chosen = match o.get("case") {
        Some(name) => results
            .iter()
            .find(|r| r.case.name == name)
            .ok_or_else(|| {
                format!(
                    "--case {name:?} is not in the suite (have: {})",
                    mfbc_bench::regress::suite_case_names().join(", ")
                )
            })?,
        None => results.first().expect("suite is never empty"),
    };
    if let Some(path) = o.get("profile-out") {
        let json = mfbc_profile::export::profile_to_json(&chosen.profile);
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: profile of {} -> {path}", chosen.case.name);
    }
    if let Some(path) = o.get("html-out") {
        let html = mfbc_profile::html::render(&chosen.profile);
        std::fs::write(path, html).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: report of {} -> {path}", chosen.case.name);
    }
    if let Some(path) = o.get("prom-out") {
        // Mirror the timeline headline gauges into the case registry
        // before rendering so the Prometheus text carries them too.
        mfbc_timeline::register_metrics(&chosen.registry, &chosen.timeline, &chosen.analysis);
        let text = mfbc_profile::prometheus::render(&chosen.registry);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: metrics of {} -> {path}", chosen.case.name);
    }
    if let Some(path) = o.get("timeline-out") {
        let d = mfbc_timeline::doc(&chosen.timeline, &chosen.analysis, &[]);
        std::fs::write(path, mfbc_timeline::to_json(&d)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: timeline of {} -> {path}", chosen.case.name);
    }
    if let Some(path) = o.get("timeline-html") {
        let html = mfbc_timeline::to_html(&chosen.timeline, &chosen.analysis);
        std::fs::write(path, html).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: timeline gantt of {} -> {path}", chosen.case.name);
    }

    gate("", "write", cases, o.get("write"), o.get("baseline"))?;

    // The serve load suite: same write/compare shape, its own
    // baseline (`BENCH_serve.json`), gated only when asked for.
    let serve_write = o.get("serve-write");
    let serve_baseline = o.get("serve-baseline");
    if serve_write.is_some() || serve_baseline.is_some() {
        eprintln!("bench: running serve load suite (2 cases, seed 42)...");
        let reports = mfbc_bench::serveload::run_suite(42);
        for r in &reports {
            outln!(
                "serve/{}\trequests={}\tadmitted={}\tshed={}\texact={}\tapprox={}\tstale={}\tretries={}\tstore_v={}\tmodeled_s={:?}\tp99_s={:?}\trps={:?}\twall_s={:.3}",
                r.name,
                r.requests,
                r.admitted,
                r.shed,
                r.exact,
                r.approx,
                r.stale,
                r.retries,
                r.store_version,
                r.modeled_s,
                r.p99_latency_modeled_s,
                r.rps_modeled,
                r.wall_s,
            );
        }
        gate(
            "serve ",
            "serve-write",
            reports,
            serve_write,
            serve_baseline,
        )?;
    }
    Ok(())
}

/// The shared tail of both bench suites: writes `cases` as a fresh
/// baseline file (`write`) and gates them bit-exactly against a
/// committed one (`baseline`). `what` is the suite's prefix in the
/// messages, `write_flag` the option a stale baseline is refreshed
/// with.
fn gate<T: mfbc_profile::Case>(
    what: &str,
    write_flag: &str,
    cases: Vec<T>,
    write: Option<&str>,
    baseline: Option<&str>,
) -> Result<(), CliError> {
    let fresh = mfbc_profile::Baseline::new(cases);
    let n = fresh.cases.len();
    if let Some(path) = write {
        std::fs::write(path, fresh.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("bench: wrote {what}baseline ({n} cases) -> {path}");
    }
    let Some(path) = baseline else {
        return Ok(());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let pinned =
        mfbc_profile::Baseline::<T>::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let findings = pinned.compare(&fresh.cases);
    if findings.is_empty() {
        eprintln!("bench: OK — {n} {what}case(s) within baseline {path}");
        return Ok(());
    }
    let regressions = findings
        .iter()
        .filter(|f| f.severity == mfbc_profile::Severity::Regression)
        .count();
    for f in &findings {
        eprintln!("bench: {what}{}", f.describe());
    }
    Err(CliError::BenchRegression(format!(
        "FAILED — {} {what}finding(s) against {path} ({regressions} regression(s), {} drift(s); \
         drifts mean the baseline is stale: refresh with `mfbc-cli bench --{write_flag} {path}`)",
        findings.len(),
        findings.len() - regressions,
    )))
}

/// `mfbc-cli analyze`: run one pinned bench case under the timeline
/// analyzer and print the exact critical path, the ranked bottleneck
/// table, per-superstep attribution, and any requested what-if
/// bounds. The printed chain's durations sum **bit-for-bit** to the
/// modeled makespan — the command re-checks and says so.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(
        args,
        &[
            "case",
            "timeline-out",
            "html-out",
            "what-if",
            "compare",
            "top",
        ],
        &[],
    )?;
    if let Some(p) = &o.positional {
        return Err(format!("analyze takes no positional argument, got {p:?}"));
    }
    let top = o.get_parsed::<usize>("top")?.unwrap_or(10).max(1);
    let mut edits = vec![mfbc_timeline::WhatIf::identity()];
    for spec in o.get_all("what-if") {
        edits.push(mfbc_timeline::WhatIf::parse(spec).map_err(|e| format!("--what-if: {e}"))?);
    }

    let case_name = o.get("case");
    eprintln!(
        "analyze: running pinned case {}...",
        case_name.unwrap_or(mfbc_bench::regress::suite_case_names()[0])
    );
    let result = mfbc_bench::regress::run_named_case(
        case_name,
        &mfbc_bench::regress::SuiteOptions::default(),
    )
    .ok_or_else(|| {
        format!(
            "--case {:?} is not in the suite (have: {})",
            case_name.unwrap_or("?"),
            mfbc_bench::regress::suite_case_names().join(", ")
        )
    })?;
    let tl = &result.timeline;
    let an = &result.analysis;
    let reports: Vec<mfbc_timeline::WhatIfReport> =
        edits.iter().map(|e| mfbc_timeline::report(tl, e)).collect();

    outln!("case\t{}", result.case.name);
    outln!("ranks\t{}", tl.p_alive());
    outln!("makespan_s\t{:?}", tl.makespan_s());
    outln!("segments\t{}", tl.nodes.len());
    outln!("critical_segments\t{}", an.path.segments.len());
    outln!("critical_comm_share\t{:?}", an.comm_share());

    outln!("");
    outln!("critical path (lane, label, start_s, dt_s, superstep):");
    for s in &an.path.segments {
        let step = match s.superstep {
            Some(i) => {
                let info = &tl.summary.supersteps[i];
                format!("{}#{}:{}", info.phase, info.batch, info.step)
            }
            None => "setup".to_string(),
        };
        outln!(
            "  r{}\t{:<14}\t{:?}\t{:?}\t{}",
            s.lane,
            s.label,
            s.start_s,
            s.dt_s,
            step
        );
    }
    let sum = an.path.sum_s();
    let exact = sum.to_bits() == tl.makespan_s().to_bits();
    outln!(
        "path sum {:?}s {} makespan {:?}s ({})",
        sum,
        if exact { "==" } else { "!=" },
        tl.makespan_s(),
        if exact { "bit-exact" } else { "MISMATCH" }
    );
    if !exact {
        return Err("critical path does not sum bit-exactly to the makespan".into());
    }

    outln!("");
    outln!("top-{top} bottlenecks (label, gating_s, share, count):");
    for b in an.bottlenecks.iter().take(top) {
        outln!(
            "  {:<14}\t{:?}\t{:.1}%\t{}",
            b.label,
            b.seconds,
            b.share * 100.0,
            b.count
        );
    }

    outln!("");
    outln!("supersteps (phase#batch:step, comm_s, comp_s, critical_s, straggler, imbalance):");
    for s in an.steps.iter().take(top) {
        outln!(
            "  {}#{}:{}\t{:.6}\t{:.6}\t{:.6}\t{}\t{:.2}",
            s.phase,
            s.batch,
            s.step_no,
            s.comm_s,
            s.comp_s,
            s.critical_s,
            s.straggler.map_or("-".to_string(), |r| format!("r{r}")),
            s.imbalance
        );
    }
    if an.steps.len() > top {
        outln!("  ... {} more superstep(s)", an.steps.len() - top);
    }

    outln!("");
    outln!("what-if bounds (edit, makespan_s, speedup):");
    for r in &reports {
        outln!("  {:<24}\t{:?}\t{:.3}x", r.label, r.makespan_s, r.speedup());
    }

    if let Some(path) = o.get("timeline-out") {
        let d = mfbc_timeline::doc(tl, an, &reports);
        std::fs::write(path, mfbc_timeline::to_json(&d)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("analyze: timeline -> {path}");
    }
    if let Some(path) = o.get("html-out") {
        std::fs::write(path, mfbc_timeline::to_html(tl, an)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("analyze: gantt -> {path}");
    }
    if let Some(path) = o.get("compare") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let before = mfbc_timeline::parse_timeline(&text).map_err(|e| format!("{path}: {e}"))?;
        let after = mfbc_timeline::doc(tl, an, &reports);
        outln!("");
        outln!("diff vs {path}:");
        outln!(
            "{}",
            mfbc_timeline::render_diff(&mfbc_timeline::diff_docs(&before, &after))
        );
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let o = Opts::parse(args, &["weighted", "seed"], &["directed"])?;
    let spec = o.positional.as_deref().ok_or("generate needs a spec")?;
    let weighted = o.get_parsed::<u64>("weighted")?;
    let seed = o.get_parsed::<u64>("seed")?.unwrap_or(42);
    if !spec.starts_with("rmat:") && !spec.starts_with("uniform:") {
        return Err(format!(
            "generate takes rmat:S,E or uniform:N,M, got {spec:?}"
        ));
    }
    let g = load_workload(spec, o.has("directed"), weighted, seed)?;
    io::write_edge_list(&g, std::io::stdout().lock()).map_err(|e| e.to_string())
}

/// `mfbc-cli serve`: the long-lived serving engine as a JSON-lines
/// loop on stdin. One request per line; a blank line flushes the
/// coalesced round; `{"cmd":"health"}` answers immediately;
/// `{"cmd":"dump"}` answers with a one-line flight-recorder snapshot;
/// unparseable lines are refused with a `shed: invalid-request` line
/// (the loop never dies on bad input). EOF drains the queue, writes
/// `--prom-out` and `--flight-out` (auto-dumps captured at
/// poison/breaker-trip, then a final dump), prints a summary, and
/// exits — code 5 if an unrecoverable fault poisoned the engine
/// along the way.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    use std::io::BufRead as _;

    let o = Opts::parse(
        args,
        &[
            "nodes",
            "graph",
            "batch",
            "queue",
            "deadline",
            "faults",
            "fault-seed",
            "seed",
            "threads",
            "prom-out",
            "flight-out",
            "mem-bytes",
        ],
        &["directed", "warm"],
    )?;
    if let Some(p) = &o.positional {
        return Err(format!("serve takes no positional argument, got {p:?}").into());
    }
    let p: usize = o.get_parsed("nodes")?.ok_or("serve needs --nodes P")?;
    let spec_str = o.get("graph").unwrap_or("rmat:10,8");
    let seed = o.get_parsed::<u64>("seed")?.unwrap_or(42);
    let g = load_workload(spec_str, o.has("directed"), None, seed)?;
    let batch = o.get_parsed::<usize>("batch")?.unwrap_or(8).max(1);
    let threads = parse_threads(&o)?;
    let deadline = o.get_parsed::<f64>("deadline")?;
    if deadline.is_some_and(|d| d.is_nan() || d < 0.0) {
        return Err("--deadline must be a nonnegative number of modeled seconds".into());
    }

    let mut fault_plan = match o.get("faults") {
        Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?,
        None => FaultPlan::none(),
    };
    if let Some(fseed) = o.get_parsed::<u64>("fault-seed")? {
        fault_plan.faults.extend(FaultPlan::seeded(fseed, p).faults);
    }
    let mut spec = MachineSpec::gemini(p);
    // Override the modeled per-node memory budget (e.g. to exercise
    // unrecoverable-crash degradation at laptop scale).
    if let Some(bytes) = o.get_parsed::<u64>("mem-bytes")? {
        spec.mem_bytes = Some(bytes);
    }
    let machine = if fault_plan.is_empty() {
        Machine::new(spec)
    } else {
        Machine::with_faults(spec, fault_plan, RetryPolicy::default())
    };

    let cfg = MfbcConfig {
        batch_size: Some(batch),
        threads,
        ..Default::default()
    };
    let ecfg = mfbc_serve::EngineConfig {
        max_queue: o.get_parsed::<usize>("queue")?.unwrap_or(64).max(1),
        default_deadline_s: deadline.unwrap_or(f64::INFINITY),
        seed,
        // Always keep a small flight recorder alive: it is bounded,
        // never perturbs responses, and `{"cmd":"dump"}` /
        // `--flight-out` read from it.
        flight_capacity: 256,
        ..mfbc_serve::EngineConfig::default()
    };
    let mut engine = mfbc_serve::Engine::new(&machine, g, &cfg, ecfg).map_err(CliError::machine)?;

    if o.has("warm") {
        let retries = engine.warm();
        eprintln!(
            "serve: warmed store to v{} (exact_complete={}, {} retries)",
            engine.store_version(),
            engine.exact_complete(),
            retries
        );
    }
    eprintln!(
        "serve: {} vertices on {p} node(s); JSON-lines on stdin, blank line flushes, EOF exits",
        engine.graph().n()
    );

    // Auto-dumps the engine took at poison/breaker-trip, preserved
    // here in arrival order for `--flight-out`.
    let mut flight_lines: Vec<String> = Vec::new();
    // One round's responses, rendered into one reused buffer and
    // written under one stdout lock.
    let mut rendered = String::new();
    let mut answer_round = |engine: &mut mfbc_serve::Engine| {
        rendered.clear();
        for r in engine.drain() {
            mfbc_serve::wire::write_response(&mut rendered, &r);
            rendered.push('\n');
        }
        stdout_or_exit(std::io::stdout().lock().write_all(rendered.as_bytes()));
    };
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let text = line.trim();
        if text.is_empty() {
            answer_round(&mut engine);
            flight_lines.extend(engine.take_auto_dump());
            continue;
        }
        match mfbc_serve::wire::parse_line(text) {
            Ok(mfbc_serve::wire::WireCmd::Health) => {
                outln!("{}", mfbc_serve::wire::render_health(&engine.health()));
            }
            Ok(mfbc_serve::wire::WireCmd::Dump) => {
                let dump = engine
                    .flight_dump()
                    .unwrap_or_else(|| "{\"flight\":0}".to_string());
                outln!("{dump}");
            }
            Ok(mfbc_serve::wire::WireCmd::Request(req)) => {
                let id = req.id;
                if let mfbc_serve::Admission::Shed(reason) = engine.submit(req) {
                    outln!("{}", mfbc_serve::wire::render_shed(id, reason));
                }
            }
            Err(detail) => {
                outln!("{}", mfbc_serve::wire::render_invalid(&detail));
            }
        }
    }
    // EOF: everything still queued gets its answer before shutdown.
    answer_round(&mut engine);
    flight_lines.extend(engine.take_auto_dump());

    if let Some(path) = o.get("flight-out") {
        if let Some(final_dump) = engine.flight_dump() {
            flight_lines.push(final_dump);
        }
        let mut text = flight_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("serve: flight recorder -> {path}");
    }

    if let Some(path) = o.get("prom-out") {
        let text = mfbc_profile::prometheus::render(&engine.metrics());
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("serve: metrics -> {path}");
    }
    let h = engine.health();
    eprintln!(
        "serve: served {} response(s), shed {}, store v{}{}",
        h.served,
        h.shed,
        h.store_version,
        if h.exact_complete { " (exact)" } else { "" }
    );
    if engine.poisoned() {
        return Err(CliError::ServePoisoned(
            "engine poisoned: an unrecoverable fault ended exact progress \
             (queued requests were still served, stale)"
                .into(),
        ));
    }
    Ok(())
}
