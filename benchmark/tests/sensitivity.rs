//! The benchmark must see a slowdown of known size. The harness spins
//! for twice the `wall_vs_brandes` bound after every timed call — the program is
//! untouched — and `compare` has to call the metric regressed; with no
//! delay it must not. A row may read `unresolved` instead when the
//! baseline's own repetitions were noisier than the bound (tiny smoke
//! inputs on a shared box), never the opposite verdict.

use mfbc_benchmark::decl::END_TO_END;
use std::path::PathBuf;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mfbc-benchmark"))
}

/// A whole smoke run with the given injected delay.
fn smoke_run(tag: &str, delay_pct: f64) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}.json"));
    let status = bench()
        .args(["run", "--smoke", "--seed", "5", "--seconds", "1"])
        .args(["--inject-delay-pct", &delay_pct.to_string()])
        .arg("--out")
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "smoke run {tag} failed its output checks");
    path
}

/// `compare`'s exit success and the verdicts of its `wall_vs_brandes` rows.
fn compare(a: &PathBuf, b: &PathBuf) -> (bool, Vec<String>) {
    let out = bench()
        .arg("compare")
        .args([a, b])
        .output()
        .expect("compare runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let verdicts = stdout
        .lines()
        .filter(|l| l.split_whitespace().nth(1) == Some("wall_vs_brandes"))
        .map(|l| l.split_whitespace().last().unwrap_or("").to_string())
        .collect();
    (out.status.success(), verdicts)
}

fn count(verdicts: &[String], verdict: &str) -> usize {
    verdicts.iter().filter(|v| *v == verdict).count()
}

#[test]
fn an_injected_delay_is_reported_as_a_regression() {
    let bound = END_TO_END
        .iter()
        .find(|m| m.name == "wall_vs_brandes")
        .expect("wall_vs_brandes is declared")
        .bound;
    let base = smoke_run("base", 0.0);
    let same = smoke_run("same", 0.0);
    let slow = smoke_run("slow", 200.0 * bound);

    let (_, verdicts) = compare(&base, &same);
    assert_eq!(verdicts.len(), 7);
    assert_eq!(
        count(&verdicts, "unchanged") + count(&verdicts, "unresolved"),
        7,
        "no delay: {verdicts:?}"
    );
    assert!(count(&verdicts, "unchanged") >= 4, "no delay: {verdicts:?}");

    let (ok, verdicts) = compare(&base, &slow);
    assert_eq!(
        count(&verdicts, "regressed") + count(&verdicts, "unresolved"),
        7,
        "delay of twice the bound: {verdicts:?}"
    );
    assert!(count(&verdicts, "regressed") >= 4, "delay: {verdicts:?}");
    assert!(!ok, "compare must exit non-zero on a regression");
}
