//! End-to-end tests of the `mfbc-cli` binary: generate → stats → bc
//! → sssp → components → simulate pipelines through real process
//! invocations.

use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mfbc-cli"))
}

fn run_ok_capturing(args: &[&str], stdin: Option<&str>) -> (String, String) {
    let mut cmd = cli();
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn mfbc-cli");
    if let Some(input) = stdin {
        use std::io::Write;
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("wait");
    assert!(
        out.status.success(),
        "mfbc-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn run_ok(args: &[&str], stdin: Option<&str>) -> String {
    run_ok_capturing(args, stdin).0
}

const PATH_GRAPH: &str = "0 1\n1 2\n2 3\n";

#[test]
fn bc_finds_the_path_brokers() {
    let out = run_ok(&["bc", "--top", "2", "-"], Some(PATH_GRAPH));
    let lines: Vec<&str> = out.lines().collect();
    // Vertices 1 and 2 tie at λ = 4 on a 4-path.
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("1\t4"));
    assert!(lines[1].starts_with("2\t4"));
}

#[test]
fn bc_normalized_is_bounded() {
    let out = run_ok(&["bc", "--normalized", "-"], Some(PATH_GRAPH));
    for line in out.lines() {
        let score: f64 = line.split('\t').nth(1).unwrap().parse().unwrap();
        assert!((0.0..=1.0).contains(&score), "{line}");
    }
}

#[test]
fn sssp_reports_distances_and_inf() {
    let out = run_ok(
        &["sssp", "--source", "0", "--directed", "-"],
        Some("0 1 5\n1 2 7\n3 0 1\n"),
    );
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], "0\t0");
    assert_eq!(lines[1], "1\t5");
    assert_eq!(lines[2], "2\t12");
    assert_eq!(lines[3], "3\tinf");
}

#[test]
fn components_counts() {
    let out = run_ok(&["components", "-"], Some("0 1\n2 3\n"));
    let labels: Vec<u64> = out
        .lines()
        .map(|l| l.split('\t').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[2], labels[3]);
    assert_ne!(labels[0], labels[2]);
}

/// `sssp` and `components` on one seeded weighted graph with isolated
/// vertices and ten components print, byte for byte, what the goldens
/// hold; CI `cmp`s the same files.
#[test]
fn sssp_and_components_print_their_goldens() {
    let args = [
        "generate",
        "uniform:120,100",
        "--weighted",
        "20",
        "--seed",
        "11",
    ];
    let graph = run_ok(&args, None);
    let sssp = run_ok(&["sssp", "--source", "0", "-"], Some(&graph));
    assert_eq!(sssp, include_str!("golden/cli_sssp.txt"));
    let components = run_ok(&["components", "-"], Some(&graph));
    assert_eq!(components, include_str!("golden/cli_components.txt"));
}

#[test]
fn bc_prints_its_goldens() {
    // Exact scores on the weighted graph of the goldens above, then
    // exact and sampled scores on a seeded unit-weighted R-MAT graph,
    // where the sweeps run under masks.
    let weighted = [
        "generate",
        "uniform:120,100",
        "--weighted",
        "20",
        "--seed",
        "11",
    ];
    let weighted = run_ok(&weighted, None);
    let rmat = run_ok(&["generate", "rmat:7,8", "--seed", "3"], None);
    let mut exact = run_ok(&["bc", "--batch", "7", "-"], Some(&weighted));
    exact += &run_ok(&["bc", "--batch", "16", "-"], Some(&rmat));
    assert_eq!(exact, include_str!("golden/cli_bc.txt"));
    let approx = ["bc", "--approx", "16", "--seed", "5", "-"];
    let approx = run_ok(&approx, Some(&rmat));
    assert_eq!(approx, include_str!("golden/cli_bc_approx.txt"));
}

#[test]
fn generate_stats_roundtrip() {
    let graph = run_ok(&["generate", "uniform:64,200", "--seed", "5"], None);
    let stats = run_ok(&["stats", "-"], Some(&graph));
    let get = |key: &str| -> String {
        stats
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("missing {key} in {stats}"))
            .split('\t')
            .nth(1)
            .unwrap()
            .to_string()
    };
    assert_eq!(get("directed"), "false");
    let n: usize = get("n").parse().unwrap();
    assert!(n <= 64);
    let edges: usize = get("edges").parse().unwrap();
    assert!(edges > 150 && edges <= 200);
}

#[test]
fn simulate_reports_costs() {
    let out = run_ok(
        &[
            "simulate",
            "--nodes",
            "4",
            "--graph",
            "uniform:128,512",
            "--batch",
            "32",
        ],
        None,
    );
    assert!(out.contains("algorithm\tCTF-MFBC"));
    let msgs: u64 = out
        .lines()
        .find(|l| l.starts_with("critical_msgs"))
        .unwrap()
        .split('\t')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(msgs > 0);

    let cb = run_ok(
        &[
            "simulate",
            "--nodes",
            "4",
            "--plan",
            "combblas",
            "--graph",
            "uniform:128,512",
            "--batch",
            "32",
        ],
        None,
    );
    assert!(cb.contains("algorithm\tCombBLAS-style"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = cli().args(["sssp", "-"]).output().unwrap();
    assert!(!out.status.success());

    let out = cli()
        .args(["bc", "--top", "notanumber", "-"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn simulate_prints_bottlenecks_and_tees_timeline() {
    let dir = std::env::temp_dir().join(format!("mfbc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("simulate-timeline.json");
    let (_, err) = run_ok_capturing(
        &[
            "simulate",
            "--nodes",
            "4",
            "--graph",
            "uniform:64,256",
            "--batch",
            "16",
            "--timeline-out",
            tpath.to_str().unwrap(),
        ],
        None,
    );
    assert!(
        err.contains("top-3 bottleneck segments"),
        "missing bottleneck block in stderr: {err}"
    );
    let text = std::fs::read_to_string(&tpath).unwrap();
    let doc = mfbc_timeline::parse_timeline(&text).expect("teed timeline.json must parse");
    assert_eq!(doc.p, 4);
    assert!(doc.events > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_reports_bit_exact_path_and_overlap_bound() {
    let dir = std::env::temp_dir().join(format!("mfbc-cli-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("timeline.json");
    let hpath = dir.join("gantt.html");
    let out = run_ok(
        &[
            "analyze",
            "--what-if",
            "overlap",
            "--timeline-out",
            tpath.to_str().unwrap(),
            "--html-out",
            hpath.to_str().unwrap(),
        ],
        None,
    );
    assert!(out.contains("(bit-exact)"), "no bit-exact line: {out}");
    assert!(out.contains("what-if bounds"), "no what-if table: {out}");
    let overlap = out
        .lines()
        .find(|l| l.trim_start().starts_with("overlap"))
        .expect("overlap row in what-if table");
    assert!(overlap.ends_with('x'), "no speedup column: {overlap}");

    // The exported document carries the same numbers the text report
    // printed, and --compare against it reports no differences.
    let doc = mfbc_timeline::parse_timeline(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
    let printed_makespan = out
        .lines()
        .find(|l| l.starts_with("makespan_s"))
        .and_then(|l| l.split('\t').nth(1))
        .unwrap()
        .parse::<f64>()
        .unwrap();
    assert_eq!(doc.makespan_s.to_bits(), printed_makespan.to_bits());
    assert!(std::fs::read_to_string(&hpath)
        .unwrap()
        .contains("data-rank"));

    let (again, _) = run_ok_capturing(&["analyze", "--compare", tpath.to_str().unwrap()], None);
    assert!(
        again.contains("(identical)"),
        "re-analysis of the pinned case should diff clean: {again}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn approximate_bc_runs() {
    let graph = run_ok(&["generate", "rmat:7,4", "--seed", "3"], None);
    let out = run_ok(&["bc", "--approx", "16", "--top", "3", "-"], Some(&graph));
    assert_eq!(out.lines().count(), 3);
}

/// Runs the CLI with piped stdin and returns (exit code, stdout,
/// stderr) without asserting success — for the exit-code contract.
fn run_capturing(args: &[&str], stdin: Option<&str>) -> (i32, String, String) {
    let mut cmd = cli();
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn mfbc-cli");
    if let Some(input) = stdin {
        use std::io::Write;
        let written = child
            .stdin
            .as_mut()
            .expect("piped stdin")
            .write_all(input.as_bytes());
        // A command that rejects its arguments can exit before it
        // reads its input; what it printed and returned is checked
        // below all the same.
        if let Err(e) = written {
            assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
        }
    }
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("wait");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn exit_code_2_for_usage_and_config_errors() {
    let (code, _, err) = run_capturing(&["frobnicate"], None);
    assert_eq!(code, 2, "unknown command: {err}");
    assert!(err.contains("usage:"), "usage block only for code 2: {err}");

    let (code, _, _) = run_capturing(&["simulate"], None);
    assert_eq!(code, 2, "missing --nodes is a config error");

    let (code, _, err) = run_capturing(&["serve", "--nodes", "2", "--deadline", "-1"], None);
    assert_eq!(code, 2, "negative deadline is a config error: {err}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A typo of a boolean flag used to run with the flag ignored.
    let cases: [&[&str]; 4] = [
        &["components", "--drected", "-"],
        &["simulate", "--nodes", "2", "--no-maskd"],
        &["bench", "--no-overlp"],
        &["analyze", "--verbose"],
    ];
    for args in cases {
        let (code, out, err) = run_capturing(args, Some(PATH_GRAPH));
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?} ran: {out}");
        let flag = args.iter().rfind(|a| a.starts_with("--")).unwrap();
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
    // The declared spellings still parse.
    let out = run_ok(&["components", "--directed", "-"], Some(PATH_GRAPH));
    assert_eq!(out.lines().count(), 4);
    let out = run_ok(
        &["sssp", "--directed", "--source", "1", "-"],
        Some(PATH_GRAPH),
    );
    assert_eq!(out.lines().next(), Some("0\tinf"));
}

#[test]
fn exit_code_3_for_machine_errors() {
    // A replication factor that does not divide the machine is
    // rejected by the planning layer, not the flag parser.
    let (code, _, err) = run_capturing(
        &[
            "simulate",
            "--nodes",
            "4",
            "--plan",
            "ca:3",
            "--graph",
            "uniform:32,64",
        ],
        None,
    );
    assert_eq!(code, 3, "machine error must exit 3: {err}");
    assert!(!err.contains("usage:"), "no usage block for code 3: {err}");
}

#[test]
fn exit_code_4_for_serve_bench_regressions() {
    // A doctored serve baseline: counts that cannot match.
    let dir = std::env::temp_dir().join(format!("mfbc-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve-baseline.json");
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json"))
        .expect("committed BENCH_serve.json");
    let doctored = text.replace("\"admitted\": 41", "\"admitted\": 40");
    assert_ne!(doctored, text, "baseline shape changed; update this test");
    std::fs::write(&path, doctored).unwrap();
    let (code, _, err) =
        run_capturing(&["bench", "--serve-baseline", path.to_str().unwrap()], None);
    assert_eq!(code, 4, "serve count drift must exit 4: {err}");
    assert!(err.contains("admitted"), "finding names the field: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exit_code_5_when_serve_poisons_yet_still_answers_stale() {
    // p=2 under a modeled 21 kB/rank budget: the crash at collective
    // #2 forces a shrink to p=1 whose resident state no longer fits,
    // so exact progress ends — the engine must still answer the
    // queued request (stale) and then exit 5.
    let (code, out, err) = run_capturing(
        &[
            "serve",
            "--nodes",
            "2",
            "--graph",
            "uniform:48,600",
            "--batch",
            "1",
            "--mem-bytes",
            "21000",
            "--faults",
            "crash:0@2",
            "--seed",
            "3",
        ],
        Some("{\"id\":1,\"query\":\"full\"}\n\n"),
    );
    assert_eq!(code, 5, "poisoned engine must exit 5: {err}");
    assert!(err.contains("poisoned"), "{err}");
    assert!(
        out.contains("\"id\":1") && out.contains("\"quality\":\"stale\""),
        "the admitted request must still be answered, stale: {out}"
    );
}

#[test]
fn serve_answers_json_lines_and_reports_health() {
    let (_, err) = run_ok_capturing(
        &[
            "serve", "--nodes", "4", "--graph", "uniform:32,64", "--batch", "8",
            "--seed", "7",
        ],
        Some("{\"cmd\":\"health\"}\n{\"id\":1,\"query\":\"topk\",\"k\":2}\n\n{\"id\":2,\"query\":\"vertex\",\"v\":3}\n{\"not\":\"a request\"}\n"),
    );
    assert!(err.contains("served 2 response(s)"), "{err}");
    let (out, _) = run_ok_capturing(
        &[
            "serve",
            "--nodes",
            "4",
            "--graph",
            "uniform:32,64",
            "--batch",
            "8",
            "--seed",
            "7",
        ],
        Some("{\"cmd\":\"health\"}\n{\"id\":1,\"query\":\"topk\",\"k\":2}\n\n"),
    );
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines[0].contains("\"ready\":true") && lines[0].contains("\"p\":4"),
        "health line first: {out}"
    );
    assert!(
        lines[1].contains("\"id\":1")
            && lines[1].contains("\"quality\":\"exact\"")
            && lines[1].contains("\"topk\":["),
        "exact top-k response: {out}"
    );

    // Same seed, same schedule: the response stream is bit-identical.
    let (again, _) = run_ok_capturing(
        &[
            "serve",
            "--nodes",
            "4",
            "--graph",
            "uniform:32,64",
            "--batch",
            "8",
            "--seed",
            "7",
        ],
        Some("{\"cmd\":\"health\"}\n{\"id\":1,\"query\":\"topk\",\"k\":2}\n\n"),
    );
    assert_eq!(out, again, "serve output must be deterministic");
}

#[test]
fn serve_refuses_a_line_of_brackets_and_keeps_serving() {
    // 200 kB of `[`: unbounded, the parser's recursion overflowed the
    // stack and took the engine down with no unwind to catch.
    let stdin = "[".repeat(200_000) + "\n{\"id\":1,\"query\":\"topk\",\"k\":2}\n\n";
    let (out, _) = run_ok_capturing(
        &[
            "serve",
            "--nodes",
            "4",
            "--graph",
            "uniform:32,64",
            "--batch",
            "8",
            "--seed",
            "7",
        ],
        Some(&stdin),
    );
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines[0].contains("\"shed\":\"invalid-request\"") && lines[0].contains("deeper than 64"),
        "hostile line refused: {out}"
    );
    assert!(
        lines[1].contains("\"id\":1") && lines[1].contains("\"quality\":\"exact\""),
        "next request served: {out}"
    );
}

#[test]
fn serve_dump_command_returns_one_flight_line() {
    let (out, _) = run_ok_capturing(
        &[
            "serve",
            "--nodes",
            "4",
            "--graph",
            "uniform:32,64",
            "--batch",
            "8",
            "--seed",
            "7",
        ],
        Some("{\"id\":1,\"query\":\"topk\",\"k\":2}\n\n{\"cmd\":\"dump\"}\n"),
    );
    let dump = out
        .lines()
        .find(|l| l.starts_with("{\"flight\":2"))
        .expect("dump cmd answers with a flight line");
    assert!(
        dump.contains("\"type\":\"request_admitted\"")
            && dump.contains("\"type\":\"round_start\"")
            && dump.contains("\"type\":\"round_end\""),
        "dump covers the round's events: {dump}"
    );
    assert!(
        dump.contains("\"rung\":\"exact\"") && dump.contains("\"complete\":true"),
        "journey explains the exact answer: {dump}"
    );
}

#[test]
fn flight_out_captures_the_poison_auto_dump_and_a_final_dump() {
    let dir = std::env::temp_dir().join(format!("mfbc-cli-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");
    // The pinned poison recipe from exit-code-5: the crash at p = 2
    // under a 21 kB budget ends exact progress mid-round.
    let (code, _, err) = run_capturing(
        &[
            "serve",
            "--nodes",
            "2",
            "--graph",
            "uniform:48,600",
            "--batch",
            "1",
            "--mem-bytes",
            "21000",
            "--faults",
            "crash:0@2",
            "--seed",
            "3",
            "--flight-out",
            path.to_str().unwrap(),
        ],
        Some("{\"id\":1,\"query\":\"full\"}\n\n"),
    );
    assert_eq!(code, 5, "still the poisoned exit: {err}");
    let text = std::fs::read_to_string(&path).expect("--flight-out written even on exit 5");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 2,
        "auto-dump at poison time plus a final dump: {} line(s)",
        lines.len()
    );
    for l in &lines {
        assert!(l.starts_with("{\"flight\":2"), "every line is a dump: {l}");
    }
    assert!(
        lines[0].contains("\"type\":\"poison\""),
        "the auto-dump holds the poison event: {}",
        lines[0]
    );
    let last = lines.last().unwrap();
    assert!(
        last.contains("\"rung\":\"stale\"")
            && last.contains("\"reason\":\"poisoned\"")
            && last.contains("\"complete\":true"),
        "the final dump's journey explains the stale answer: {last}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `serve --prom-out` writes, byte for byte, the text in
/// `golden/cli_serve.prom`: a health check, two rounds over three
/// query kinds, and a shed.
#[test]
fn serve_prom_out_prints_its_golden() {
    let dir = std::env::temp_dir().join(format!("mfbc-cli-prom-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.prom");
    let (_, err) = run_ok_capturing(
        &[
            "serve",
            "--nodes",
            "4",
            "--graph",
            "uniform:32,64",
            "--batch",
            "8",
            "--seed",
            "7",
            "--prom-out",
            path.to_str().unwrap(),
        ],
        Some(
            "{\"cmd\":\"health\"}\n{\"id\":1,\"query\":\"topk\",\"k\":2}\n\n\
             {\"id\":2,\"query\":\"vertex\",\"v\":3}\n{\"id\":3,\"query\":\"vertex\",\"v\":99}\n\
             {\"id\":4,\"query\":\"full\"}\n",
        ),
    );
    assert!(err.contains("served 3 response(s), shed 1"), "{err}");
    let text = std::fs::read_to_string(&path).expect("--prom-out written");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(text, include_str!("golden/cli_serve.prom"));
}
