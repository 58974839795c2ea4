//! Wall-clock benchmark for MFBC.
//!
//! Seven workloads, three end-to-end metrics each, and per-layer
//! metrics measured from outside the program by timing calls into each
//! crate's public functions. See `README.md` beside this package for
//! the workload and metric tables, and `BENCHMARK.json` at the
//! repository root for the contract other changes are judged by.

pub mod alloc;
pub mod bc;
pub mod cli;
pub mod compare;
pub mod decl;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// The repository root: the nearest directory at or above the current
/// one that holds `BENCHMARK.json`, else the current directory.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// Where traces and `result.json` go: `benchmark/out/` in the
/// repository the benchmark is run from.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}
