//! `BENCHMARK.json` against its own limits and against `decl.rs`, and
//! what the binary prints against both.

use mfbc_benchmark::decl::{END_TO_END, PER_LAYER, WORKLOADS};
use mfbc_benchmark::run::DEFAULT_SECONDS;
use mfbc_profile::jsonio::{self, Json};
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    jsonio::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {v:?}"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_keeps_the_contract_limits() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = list(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().expect("command arguments are strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    assert_eq!(list(&doc, "paths"), [Json::Str("benchmark".into())]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("whole run_seconds");
    assert!((1..=60).contains(&seconds));
    assert_eq!(seconds as f64, DEFAULT_SECONDS);

    let (workloads, e2e, layers) = (
        list(&doc, "workloads"),
        list(&doc, "end_to_end"),
        list(&doc, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        names.push(text(w, "name"));
    }
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .expect("numeric bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        names.push(text(m, "name"));
    }
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        names.push(text(m, "name"));
    }
    for m in e2e.iter().chain(layers) {
        assert!(is_unit(text(m, "unit")), "{m:?}");
        assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
    }
    for name in &names {
        assert!(is_name(name), "bad name {name:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let widest = e2e
        .iter()
        .filter_map(|m| m.get("bound")?.as_f64())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(widest));
}

#[test]
fn manifest_and_declarations_agree() {
    let doc = manifest();
    let declared: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    let listed: Vec<(&str, &str)> = list(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    assert_eq!(declared, listed);

    let declared: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    let listed: Vec<(&str, &str, &str, f64)> = list(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    assert_eq!(declared, listed);

    let declared: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    let listed: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    assert_eq!(declared, listed);
}

/// Each per-layer metric says which end-to-end metric it should move
/// and on which workloads, or `none`.
#[test]
fn every_prediction_names_a_real_metric_and_workload() {
    for m in PER_LAYER {
        if m.moves == "none" {
            continue;
        }
        let (metric, workloads) = m
            .moves
            .split_once('@')
            .unwrap_or_else(|| panic!("{}: moves {:?} lacks '@'", m.name, m.moves));
        assert!(
            END_TO_END.iter().any(|e| e.name == metric),
            "{}: unknown end-to-end metric {metric}",
            m.name
        );
        for w in workloads.split(',') {
            assert!(
                WORKLOADS.iter().any(|x| x.name == w),
                "{}: unknown workload {w}",
                m.name
            );
        }
    }
}

/// Every printed metric is declared and every declared one printed, by
/// every workload, untraced and traced.
#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    for w in &WORKLOADS {
        for (trace, want) in [
            (
                "0",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                "1",
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_mfbc-benchmark"))
                .args(["--workload", w.name, "--seed", "3", "--seconds", "0.1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark binary runs");
            assert!(out.status.success(), "{} trace {trace} failed", w.name);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = jsonio::parse(last).expect("the last line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is an object");
            };
            let got: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert_eq!(keys(m), ["value", "unit"]);
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (name.as_str(), text(m, "unit"))
                })
                .collect();
            assert_eq!(got, want, "{} trace {trace}", w.name);
        }
    }
}
