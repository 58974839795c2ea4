//! `mfbc-profile`: per-rank profiler, metrics registry, and the perf
//! regression baseline for the MFBC stack.
//!
//! This crate turns the [`mfbc_trace`] event stream plus a finished
//! [`mfbc_machine::Machine`] into three artifacts that all agree on
//! every number:
//!
//! * **Prometheus text** ([`prometheus::render`]) from a
//!   [`MetricsRegistry`] of counters, gauges, and log2 histograms;
//! * **`profile.json`** ([`export::profile_to_json`]), the
//!   machine-readable [`Profile`];
//! * a **self-contained HTML report** ([`html::render`]) with
//!   per-rank utilization bars and a superstep timeline — no scripts,
//!   no external assets.
//!
//! A [`Profile`] is a projection ([`Profile::of`]) of the run's one
//! stream fold, [`mfbc_trace::Summary`], plus the machine it finished
//! on, whose per-rank meters and memory high-water marks it seals in;
//! [`mirror`] writes both into a [`MetricsRegistry`] in one pass at
//! the end of the run. A run that installs `mfbc-timeline`'s builder
//! projects the fold its timeline carries; the [`Profiler`] is the
//! recorder for runs without one — a [`mfbc_trace::Summary`] behind a
//! lock, projected and mirrored by [`Profiler::finish`].
//!
//! [`baseline`] holds the committed-benchmark format and the
//! comparison policy behind `mfbc-cli bench`: deterministic modeled
//! metrics compare bit-exact; wall-clock is `BENCHMARK.json`'s job.
//!
//! `profile.json` and the baseline files are report rows
//! ([`mfbc_trace::json::Row`]): [`Profile`], its row types and
//! [`BaselineCase`] each list their `"key" => field` pairs once, and
//! the shared walks write, read and compare them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod export;
pub mod html;
pub mod profiler;
pub mod prometheus;
pub mod registry;

pub use baseline::{Baseline, BaselineCase, Case, Finding, Severity};
/// The workspace's one JSON module lives in `mfbc-trace`; this path is
/// kept because the `benchmark/` package names it.
pub use mfbc_trace::json as jsonio;
pub use mfbc_trace::{ActionTotals, PlanMixEntry, PoolTotals, StepTotals};
pub use profiler::{
    mirror, AutotuneProfile, CollectiveProfile, CriticalProfile, Profile, Profiler, RankProfile,
};
pub use registry::{MetricKind, MetricsRegistry};
