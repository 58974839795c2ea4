//! Long-lived betweenness-centrality serving over the MFBC stack.
//!
//! A one-shot `mfbc_dist` run answers one question and throws the
//! warm state away. This crate keeps the distributed machine, the
//! mm-cache, and the partially accumulated scores alive in an
//! [`Engine`] and answers a *stream* of queries against them, with
//! robustness as the spine:
//!
//! * **Admission control** — a bounded queue sheds excess load at
//!   submission time ([`ShedReason`]); everything admitted is
//!   answered, never dropped. Queued requests are coalesced into
//!   shared drain rounds, so concurrent queries fund one batch
//!   advance instead of `q` redundant ones (a request *is* a batch of
//!   pivot sources in the paper's formulation, so sharing batches is
//!   the natural unit of coalescing).
//! * **Deadlines** — each request carries a modeled-seconds budget.
//!   Before each batch the engine consults the autotuner's cost model
//!   (`mfbc_tensor::autotune::best_plan`) and, once at least one
//!   batch has committed, its own measured per-batch average. When an
//!   exact continuation cannot fit, the round **degrades gracefully**
//!   down the ladder Exact → `Approx{k, ci}` (the unbiased sampled
//!   estimator from `mfbc_core::approx`, sized to the budget) →
//!   `Stale{version}` (the last committed snapshot) — it never errors
//!   a request that was admitted.
//! * **Retry/backoff** — transient `MachineError`s are retried with
//!   bounded exponential backoff and deterministic jitter
//!   ([`mfbc_fault::RetryPolicy::backoff_for`]); rank crashes ride
//!   the session's shrink/replan recovery without dropping queued
//!   requests; a [`mfbc_fault::CircuitBreaker`] trips to
//!   stale-serving after consecutive batch failures.
//! * **Health** — typed totals the request path bumps with field
//!   writes: [`Engine::health`] reads them beside readiness/liveness,
//!   queue depth, breaker state, last poison, a rolling SLO window and
//!   the mm-cache stats, and [`Engine::metrics`] projects them into a
//!   fresh `mfbc_profile::MetricsRegistry` on demand, scrapeable
//!   through the existing Prometheus/JSON/HTML exporters.
//! * **Observability** — each engine decision is one
//!   `mfbc_trace::TraceEvent` (`RequestAdmitted`, `Shed`,
//!   `RoundStart`/`RoundEnd`, `DegradeDecision` with its budget
//!   arithmetic, `Retry`, `Commit`, `BreakerTrip`, `Poison`), emitted
//!   into the trace stream and kept in a bounded byte-deterministic
//!   [`FlightRecorder`] whose per-request [`Journey`] records explain
//!   every degraded answer; dumped automatically on
//!   poison/breaker-trip and on demand via the wire `{"cmd":"dump"}`
//!   command. Recording never perturbs responses and capacity 0
//!   disables it with zero allocation.
//! * **Answer-proportional warm path** — the store holds an immutable
//!   [`ScoreSnapshot`] per version that memoises the rank order and
//!   the rendered score array, so a `topk` costs O(k), a `full`
//!   response is one shared `Arc` and one copied string, and a warm
//!   request allocates a constant number of times.
//!
//! The [`wire`] module gives the engine a dependency-free JSON-lines
//! protocol (requests in, responses out) used by `mfbc-cli serve`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod flight;
pub mod snapshot;
pub mod wire;

pub use engine::{
    Admission, Engine, EngineConfig, Health, Payload, Quality, Query, Request, Response, ShedReason,
};
pub use flight::{FlightEvent, FlightRecorder, Journey};
pub use snapshot::ScoreSnapshot;
