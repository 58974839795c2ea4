//! The serving engine: warm state, admission, coalescing, the
//! degradation ladder, and retry/backoff around the resumable
//! `MfbcSession`.

use crate::flight::{FlightRecorder, Journey};
use crate::snapshot::ScoreSnapshot;
use mfbc_core::dist::{MfbcConfig, MfbcSession, SessionStep};
use mfbc_core::{mfbc_approx, sample_rel_se, BcScores};
use mfbc_fault::{BreakerState, CircuitBreaker, RetryPolicy};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_profile::registry::{
    self,
    MetricKind::{Counter, Gauge, Histogram},
};
use mfbc_profile::{MetricKind, MetricsRegistry};
use mfbc_tensor::autotune::best_plan;
use mfbc_tensor::costmodel::MmStats;
use mfbc_tensor::CacheStats;
use mfbc_trace::TraceEvent;
use std::collections::VecDeque;
use std::sync::Arc;

/// Responses kept in the rolling SLO window surfaced by
/// [`Engine::health`].
const SLO_WINDOW: usize = 32;

/// Stable label for a breaker state (the fault crate's enum has no
/// wire names of its own).
fn breaker_name(s: BreakerState) -> &'static str {
    match s {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// The `k` highest-centrality vertices with their scores.
    TopK {
        /// How many vertices to return.
        k: usize,
    },
    /// One vertex's score.
    Vertex {
        /// The vertex id.
        v: usize,
    },
    /// The full score vector.
    Full,
}

/// [`Query`] labels, by [`Query::slot`].
const QUERIES: [&str; 3] = ["topk", "vertex", "full"];

impl Query {
    /// Label used in metrics.
    pub fn name(&self) -> &'static str {
        QUERIES[self.slot()]
    }

    fn slot(&self) -> usize {
        match self {
            Query::TopK { .. } => 0,
            Query::Vertex { .. } => 1,
            Query::Full => 2,
        }
    }
}

/// A query plus its per-request quality budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen id, echoed on the response.
    pub id: u64,
    /// What to compute.
    pub query: Query,
    /// Modeled-seconds budget for this request; `None` uses the
    /// engine's default. The budget buys *progress*: the engine
    /// spends it advancing the exact computation, and degrades the
    /// answer when the budget cannot fit the remainder.
    pub deadline_s: Option<f64>,
}

/// Why a submission was refused at admission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue is full.
    QueueFull,
    /// The request is malformed (e.g. vertex id out of range).
    InvalidRequest,
}

/// [`ShedReason`] labels, in declaration order.
const SHED_REASONS: [&str; 2] = ["queue-full", "invalid-request"];

impl ShedReason {
    /// Label used in metrics and on the wire.
    pub fn name(&self) -> &'static str {
        SHED_REASONS[*self as usize]
    }
}

/// Outcome of [`Engine::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued; a later [`Engine::drain`] will answer it.
    Admitted,
    /// Refused; no response will be produced.
    Shed(ShedReason),
}

/// How trustworthy a response's scores are — the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Quality {
    /// Every source has been processed: the scores are the exact BC
    /// values, bit-identical to a one-shot `mfbc_dist` run.
    Exact,
    /// Unbiased sampled estimate from `k` sources.
    Approx {
        /// Sources sampled.
        k: usize,
        /// Relative standard error of the estimator
        /// (`mfbc_core::sample_rel_se`).
        ci: f64,
    },
    /// Last committed exact partial sums, possibly behind the full
    /// computation.
    Stale {
        /// Store version served (committed batches so far).
        version: u64,
    },
}

/// [`Quality`] labels, by [`Quality::slot`].
const QUALITIES: [&str; 3] = ["exact", "approx", "stale"];

impl Quality {
    /// Label used in metrics and on the wire.
    pub fn name(&self) -> &'static str {
        QUALITIES[self.slot()]
    }

    fn slot(&self) -> usize {
        match self {
            Quality::Exact => 0,
            Quality::Approx { .. } => 1,
            Quality::Stale { .. } => 2,
        }
    }
}

/// The answer payload, shaped by the request's [`Query`].
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// `(vertex, score)` pairs, highest first.
    TopK(Vec<(usize, f64)>),
    /// One vertex's score.
    Vertex {
        /// The vertex id.
        v: usize,
        /// Its (possibly estimated or stale) score.
        score: f64,
    },
    /// The full score vector: the snapshot the round served from,
    /// shared rather than copied (derefs to the `[f64]` of scores).
    Full(Arc<ScoreSnapshot>),
}

/// A served response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Where on the degradation ladder the answer came from.
    pub quality: Quality,
    /// The scores asked for.
    pub payload: Payload,
    /// Store version at serve time.
    pub version: u64,
    /// Modeled seconds between the drain round starting and this
    /// response being ready (shared by the round's coalesced
    /// requests), including retry backoff and degraded-estimate
    /// compute.
    pub latency_modeled_s: f64,
    /// Engine-level retries spent during this round.
    pub retries: u32,
}

/// Liveness/readiness snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Health {
    /// The engine can still make exact progress (not poisoned).
    pub ready: bool,
    /// The engine answers queries at all (always true while it
    /// exists; poisoned engines stay live and serve stale).
    pub live: bool,
    /// Requests waiting for the next drain.
    pub queue_depth: usize,
    /// Committed batches in the score store.
    pub store_version: u64,
    /// Whether the store holds the complete exact scores.
    pub exact_complete: bool,
    /// Current machine size (shrinks after crash recovery).
    pub p: usize,
    /// Responses served so far.
    pub served: u64,
    /// Requests shed at admission so far.
    pub shed: u64,
    /// Circuit-breaker state (`closed`/`open`/`half-open`).
    pub breaker: &'static str,
    /// The error that poisoned the engine, if any.
    pub last_poison: Option<String>,
    /// Responses in the rolling SLO window (≤ `SLO_WINDOW`).
    pub window_len: usize,
    /// How many of those met their deadline.
    pub window_deadline_met: usize,
    /// Worst modeled latency in the window, in seconds.
    pub window_max_latency_s: f64,
    /// Prepared-adjacency cache activity across every request served
    /// (sticky after the exact session retires).
    pub mm_cache: CacheStats,
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Bounded queue capacity; submissions beyond it are shed.
    pub max_queue: usize,
    /// Engine-level retry/backoff policy for retryable session
    /// errors (exponential schedule via `RetryPolicy::backoff_for`).
    pub retry: RetryPolicy,
    /// Consecutive failed drain-advances that trip the breaker.
    pub breaker_threshold: u32,
    /// Drain rounds an open breaker waits before a half-open probe.
    pub breaker_cooldown: u32,
    /// Budget for requests that carry no deadline, in modeled
    /// seconds.
    pub default_deadline_s: f64,
    /// Smallest sample the engine will serve as `Approx`; below this
    /// it serves `Stale`.
    pub min_approx_k: usize,
    /// Seed for backoff jitter and degraded-mode sampling. Two
    /// engines with equal seeds, configs, and request streams produce
    /// bit-identical response streams.
    pub seed: u64,
    /// Flight-recorder ring capacity (events and journeys each).
    /// 0 disables the recorder entirely — no allocation, no
    /// recording. Recording does not perturb responses: a recorded
    /// run is bit-identical to an unrecorded one.
    pub flight_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_queue: 64,
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: 2,
            default_deadline_s: f64::INFINITY,
            min_approx_k: 4,
            seed: 0,
            flight_capacity: 0,
        }
    }
}

/// The last committed scores and their version. Every commit installs
/// a new snapshot, so nothing derived from an older version can answer
/// for this one.
struct ScoreStore {
    scores: Arc<ScoreSnapshot>,
    version: u64,
    exact_complete: bool,
}

/// Every `(rung, reason)` a round's degradation decision can take.
const DECISIONS: [(&str, &str); 6] = [
    ("exact", "complete"),
    ("approx", "budget"),
    ("stale", "poisoned"),
    ("stale", "breaker-open"),
    ("stale", "min-k"),
    ("stale", "budget"),
];

/// What the engine has done, bumped by field writes where it decides
/// and read by [`Engine::health`] and [`Engine::metrics`].
struct Totals {
    /// Requests admitted, by [`Query::slot`].
    requests: [u64; QUERIES.len()],
    /// Responses served, by [`Quality::slot`].
    responses: [u64; QUALITIES.len()],
    /// Requests refused at admission, by [`ShedReason`].
    shed: [u64; SHED_REASONS.len()],
    /// Responses that met and that missed their deadline.
    deadline: [u64; 2],
    /// Degraded responses, by index into [`DECISIONS`].
    degrade: [u64; DECISIONS.len()],
    /// Engine-level retries of retryable session errors.
    retries: u64,
    /// Round latency per response, in modeled microseconds.
    latency_us: registry::Histogram,
    /// Requests per drain round.
    coalesced: registry::Histogram,
    /// Queue wait per response, in modeled microseconds.
    queue_wait_us: registry::Histogram,
    /// Slack on met finite deadlines, in modeled microseconds.
    deadline_margin_us: registry::Histogram,
}

impl Totals {
    fn new() -> Totals {
        Totals {
            requests: [0; QUERIES.len()],
            responses: [0; QUALITIES.len()],
            shed: [0; SHED_REASONS.len()],
            deadline: [0; 2],
            degrade: [0; DECISIONS.len()],
            retries: 0,
            latency_us: registry::Histogram::new(),
            coalesced: registry::Histogram::new(),
            queue_wait_us: registry::Histogram::new(),
            deadline_margin_us: registry::Histogram::new(),
        }
    }
}

/// Every family [`Engine::metrics`] writes: name, kind, help text.
#[rustfmt::skip]
const FAMILIES: &[(&str, MetricKind, &str)] = &[
    ("serve_requests_total", Counter, "Requests admitted, by query type"),
    ("serve_responses_total", Counter, "Responses served, by quality"),
    ("serve_shed_total", Counter, "Requests refused at admission, by reason"),
    ("serve_retries_total", Counter, "Engine-level retries of retryable session errors"),
    ("serve_breaker_trips_total", Counter, "Circuit-breaker trips to stale-serving"),
    ("serve_batches_total", Counter, "Exact batches committed into the score store"),
    ("serve_queue_depth", Gauge, "Requests waiting for the next drain"),
    ("serve_store_version", Gauge, "Committed batches in the score store"),
    ("serve_ready", Gauge, "1 while the engine can make exact progress"),
    ("serve_latency_modeled_us", Histogram, "Modeled round latency in microseconds"),
    ("serve_coalesced_requests", Histogram, "Requests coalesced per drain round"),
    ("serve_rounds_total", Counter, "Coalesced drain rounds"),
    ("serve_queue_wait_modeled_us", Histogram, "Modeled microseconds a request waited queued before its round"),
    ("serve_deadline_total", Counter, "Responses by deadline attainment (result = met|missed)"),
    ("serve_deadline_margin_modeled_us", Histogram, "Modeled microseconds of slack on met finite deadlines"),
    ("serve_degrade_total", Counter, "Degraded (non-exact) responses by rung and reason"),
    ("serve_mm_cache_hits", Gauge, "Prepared-adjacency cache hits across every request served"),
    ("serve_mm_cache_misses", Gauge, "Prepared-adjacency cache misses across every request served"),
    ("serve_mm_cache_inserts", Gauge, "Prepared-adjacency cache inserts across every request served"),
    ("serve_mm_cache_evictions", Gauge, "Prepared-adjacency cache entries dropped by release or rollback"),
];

/// The long-lived serving engine. See the crate docs for the design.
pub struct Engine {
    g: Graph,
    ecfg: EngineConfig,
    /// Live resumable exact computation; `None` once finished.
    session: Option<MfbcSession>,
    store: ScoreStore,
    /// Queued requests with the modeled clock at admission (for
    /// queue-wait attribution).
    queue: VecDeque<(Request, f64)>,
    breaker: CircuitBreaker,
    totals: Totals,
    /// Bounded in-engine flight recorder; `None` when disabled.
    flight: Option<FlightRecorder>,
    /// Dump captured automatically at the last poison/breaker-trip,
    /// waiting for [`Engine::take_auto_dump`].
    auto_dump: Option<String>,
    /// The error text that poisoned the engine, if any.
    last_poison: Option<String>,
    /// The session's prepared-adjacency cache stats as it retired.
    cache_stats: CacheStats,
    /// Rolling `(latency_s, deadline_met)` window of the most recent
    /// responses.
    window: VecDeque<(f64, bool)>,
    /// Modeled clock of the finished session (the machine handle is
    /// gone after `finish`).
    final_clock_s: f64,
    /// Modeled seconds spent outside the machine: retry backoff waits
    /// and degraded-estimate compute.
    extra_modeled_s: f64,
    /// Modeled seconds and count of committed batches, for the
    /// measured per-batch average.
    committed_modeled_s: f64,
    committed_batches: u64,
    batch_nb: usize,
    poisoned: bool,
    rounds: u64,
    /// Whether [`Engine::warm`] has run: a warmed engine reports its
    /// cache gauges before its first round.
    warmed: bool,
}

impl Engine {
    /// Builds a warm engine: distributes the graph on `machine` and
    /// charges the resident state.
    ///
    /// # Errors
    /// Fails if the session cannot be built (bad plan config, memory
    /// budget exceeded), or if `cfg` sets `max_batches` or an
    /// explicit source subset — the store must converge to the full
    /// exact scores, so partial configs are rejected up front.
    pub fn new(
        machine: &Machine,
        g: Graph,
        cfg: &MfbcConfig,
        ecfg: EngineConfig,
    ) -> Result<Engine, MachineError> {
        if cfg.max_batches.is_some() {
            return Err(MachineError::invalid(
                "serve engine requires max_batches = None (the store must reach exact)",
            ));
        }
        if cfg.sources.is_some() {
            return Err(MachineError::invalid(
                "serve engine requires the full source set (sources = None)",
            ));
        }
        let session = MfbcSession::new(machine, &g, cfg)?;
        let n = g.n();
        let batch_nb = session.batch_size();
        Ok(Engine {
            g,
            ecfg,
            session: Some(session),
            store: ScoreStore {
                scores: Arc::new(ScoreSnapshot::new(BcScores::zeros(n))),
                version: 0,
                exact_complete: false,
            },
            queue: VecDeque::new(),
            breaker: CircuitBreaker::new(ecfg.breaker_threshold, ecfg.breaker_cooldown),
            totals: Totals::new(),
            flight: (ecfg.flight_capacity > 0).then(|| FlightRecorder::new(ecfg.flight_capacity)),
            auto_dump: None,
            last_poison: None,
            cache_stats: CacheStats::default(),
            window: VecDeque::new(),
            final_clock_s: 0.0,
            extra_modeled_s: 0.0,
            committed_modeled_s: 0.0,
            committed_batches: 0,
            batch_nb,
            poisoned: false,
            rounds: 0,
            warmed: false,
        })
    }

    /// Offers a request to the bounded queue.
    pub fn submit(&mut self, req: Request) -> Admission {
        let valid = match req.query {
            Query::Vertex { v } => v < self.g.n(),
            Query::TopK { k } => k > 0,
            Query::Full => true,
        };
        if !valid {
            return self.shed(req.id, ShedReason::InvalidRequest);
        }
        if self.queue.len() >= self.ecfg.max_queue {
            return self.shed(req.id, ShedReason::QueueFull);
        }
        let now_s = self.modeled_s();
        self.queue.push_back((req, now_s));
        self.totals.requests[req.query.slot()] += 1;
        let deadline_s = req.deadline_s.unwrap_or(self.ecfg.default_deadline_s);
        let depth = self.queue.len() as u64;
        self.note(
            |_| now_s,
            || TraceEvent::RequestAdmitted {
                request_id: req.id,
                query: req.query.name(),
                deadline_s,
                queue_depth: depth,
            },
        );
        if let Some(fr) = &mut self.flight {
            fr.admit(Journey {
                id: req.id,
                query: req.query.name().into(),
                deadline_s,
                submitted_s: now_s,
                ..Journey::default()
            });
        }
        Admission::Admitted
    }

    fn shed(&mut self, id: u64, reason: ShedReason) -> Admission {
        self.totals.shed[reason as usize] += 1;
        self.note(Engine::modeled_s, || TraceEvent::Shed {
            request_id: id,
            reason: reason.name(),
        });
        Admission::Shed(reason)
    }

    /// Records one engine decision: emits it into the trace stream
    /// and, when the flight recorder is on, appends it to the ring at
    /// the modeled clock `clock_s` reads. An engine observed by
    /// neither runs neither closure.
    fn note(&mut self, clock_s: impl FnOnce(&Engine) -> f64, event: impl FnOnce() -> TraceEvent) {
        let Some(now_s) = self.flight.is_some().then(|| clock_s(self)) else {
            return mfbc_trace::emit(event);
        };
        let event = event();
        mfbc_trace::emit(|| event.clone());
        self.flight
            .as_mut()
            .expect("checked above")
            .record(now_s, event);
    }

    /// The engine's modeled clock in seconds: machine time plus
    /// backoff and degraded-estimate charges.
    pub fn modeled_s(&self) -> f64 {
        let machine_s = match &self.session {
            Some(s) => s.machine().report().critical.total_time(),
            None => self.final_clock_s,
        };
        machine_s + self.extra_modeled_s
    }

    /// The cost the admission ladder currently charges one exact
    /// batch, in modeled seconds: the measured average once a batch
    /// has landed, else the autotuner's cost-model prediction for the
    /// batch's products times a sweep estimate. Public so callers (CLI,
    /// load tests) can pick meaningful deadlines.
    pub fn est_batch_modeled_s(&self) -> f64 {
        if self.committed_batches > 0 {
            return self.committed_modeled_s / self.committed_batches as f64;
        }
        let Some(session) = &self.session else {
            return 0.0;
        };
        let n = self.g.n() as u64;
        let nb = self.batch_nb as u64;
        let nnz = self.g.adjacency().nnz() as u64;
        // One frontier product: Aᵀ (n×n, the graph) times the batch
        // panel (n×nb, about one incident edge set per source).
        let frontier_nnz = (nb * (nnz / n.max(1)).max(1)).max(1);
        let stats = MmStats::estimate(n, n, nb, nnz, frontier_nnz, 12, 12, 20);
        let (_, per_mm) = best_plan(session.machine().spec(), &stats);
        // Forward plus backward sweeps, roughly log n iterations
        // each; a deliberate overestimate is safer for admission than
        // an underestimate. Replaced by the measured average after
        // the first commit.
        let sweeps = 2.0 * ((n.max(2) as f64).log2().ceil() + 1.0);
        per_mm * sweeps
    }

    /// Answers every queued request in one coalesced round. Admitted
    /// requests are never dropped: each gets exactly one response at
    /// the best quality the shared budget and the machine's health
    /// allow.
    pub fn drain(&mut self) -> Vec<Response> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        // The round is the queue as it stands: nothing is admitted
        // while `drain` holds the engine, and the answering loop below
        // pops it empty.
        let requests = self.queue.len();
        self.rounds += 1;
        self.totals.coalesced.observe(requests as f64);

        let start_s = self.modeled_s();
        let default_deadline = self.ecfg.default_deadline_s;
        let deadline = move |r: &Request| r.deadline_s.unwrap_or(default_deadline);
        // The most patient request funds shared progress; everyone
        // admitted rides along (coalescing).
        let round_budget = self
            .queue
            .iter()
            .map(|(r, _)| deadline(r))
            .fold(0.0_f64, f64::max);

        let round_id = self.rounds;
        let version_at_start = self.store.version;
        self.note(
            |_| start_s,
            || TraceEvent::RoundStart {
                round: round_id,
                requests: requests as u64,
                budget_s: round_budget,
                store_version: version_at_start,
            },
        );

        let mut retries_this_round = 0u32;
        // An open breaker pins the round to stale-serving: no exact
        // advance, no fresh estimates, until the cooldown admits a
        // probe.
        let breaker_open = !self.store.exact_complete && !self.poisoned && !self.breaker.allows();
        if !self.store.exact_complete && !self.poisoned && !breaker_open {
            self.advance_within(round_budget, start_s, &mut retries_this_round);
        }

        // Degraded rung: one shared sample sized to the largest
        // leftover budget among requests that can still afford the
        // minimum sample.
        let mut approx: Option<(usize, Arc<ScoreSnapshot>)> = None;
        let mut min_k_refused = false;
        if !self.store.exact_complete && !self.poisoned && !breaker_open {
            let elapsed = self.modeled_s() - start_s;
            let est_source_s =
                (self.est_batch_modeled_s() / self.batch_nb.max(1) as f64).max(1e-12);
            let k_round = self
                .queue
                .iter()
                .map(|(r, _)| ((deadline(r) - elapsed) / est_source_s) as i64)
                .max()
                .unwrap_or(0)
                .clamp(0, self.g.n() as i64) as usize;
            if k_round >= self.ecfg.min_approx_k {
                // Seeded by (engine seed, store version, round): the
                // same schedule replays bit for bit.
                let sample_seed = self.ecfg.seed
                    ^ self.store.version.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ self.rounds;
                let est = mfbc_approx(&self.g, k_round, sample_seed);
                // The estimator runs shared-memory; charge its
                // modeled cost so latencies stay honest.
                self.extra_modeled_s += k_round as f64 * est_source_s;
                approx = Some((k_round, Arc::new(ScoreSnapshot::new(est.scores))));
            } else {
                min_k_refused = true;
            }
        }

        // The round's degradation decision, with the budget
        // arithmetic that forced it — the provenance every degraded
        // response traces back to.
        let elapsed = self.modeled_s() - start_s;
        let est_batch_s = self.est_batch_modeled_s();
        let (rung, reason): (&'static str, &'static str) = if self.store.exact_complete {
            ("exact", "complete")
        } else if approx.is_some() {
            ("approx", "budget")
        } else if self.poisoned {
            ("stale", "poisoned")
        } else if breaker_open {
            ("stale", "breaker-open")
        } else if min_k_refused {
            ("stale", "min-k")
        } else {
            ("stale", "budget")
        };
        let decision = DECISIONS
            .iter()
            .position(|&d| d == (rung, reason))
            .expect("a listed decision");
        let approx_k = approx.as_ref().map_or(0, |(k, _)| *k as u64);
        let version = self.store.version;
        self.note(
            |_| start_s + elapsed,
            || TraceEvent::DegradeDecision {
                round: round_id,
                rung,
                reason,
                budget_s: round_budget,
                spent_s: elapsed,
                est_batch_s,
                approx_k,
                store_version: version,
            },
        );

        let n = self.g.n();
        let mut out = Vec::with_capacity(requests);
        while let Some((req, submitted_s)) = self.queue.pop_front() {
            let (quality, scores) = if self.store.exact_complete {
                (Quality::Exact, &self.store.scores)
            } else if let Some((k, est)) = &approx {
                (
                    Quality::Approx {
                        k: *k,
                        ci: sample_rel_se(n, *k),
                    },
                    est,
                )
            } else {
                (Quality::Stale { version }, &self.store.scores)
            };
            let payload = match req.query {
                Query::TopK { k } => Payload::TopK(scores.top_k(k)),
                Query::Vertex { v } => Payload::Vertex {
                    v,
                    score: scores[v],
                },
                Query::Full => Payload::Full(Arc::clone(scores)),
            };
            let t = &mut self.totals;
            t.responses[quality.slot()] += 1;
            t.latency_us.observe(elapsed * 1e6);
            if quality != Quality::Exact {
                t.degrade[decision] += 1;
            }
            // SLO accounting: queue wait, deadline attainment, margin.
            let queue_wait_s = (start_s - submitted_s).max(0.0);
            t.queue_wait_us.observe(queue_wait_s * 1e6);
            let req_deadline = deadline(&req);
            let met = elapsed <= req_deadline;
            t.deadline[usize::from(!met)] += 1;
            if met && req_deadline.is_finite() {
                t.deadline_margin_us.observe((req_deadline - elapsed) * 1e6);
            }
            if self.window.len() >= SLO_WINDOW {
                self.window.pop_front();
            }
            self.window.push_back((elapsed, met));
            if let Some(fr) = &mut self.flight {
                fr.complete(req.id, |j| {
                    j.round = round_id;
                    j.queue_wait_s = queue_wait_s;
                    j.rung = rung.into();
                    j.reason = reason.into();
                    j.approx_k = approx_k;
                    j.budget_s = round_budget;
                    j.spent_s = elapsed;
                    j.est_batch_s = est_batch_s;
                    j.store_version = version;
                    j.retries = retries_this_round.into();
                    j.latency_s = elapsed;
                    j.deadline_met = met;
                });
            }
            out.push(Response {
                id: req.id,
                quality,
                payload,
                version,
                latency_modeled_s: elapsed,
                retries: retries_this_round,
            });
        }

        let responses = out.len() as u64;
        self.note(
            |_| start_s + elapsed,
            || TraceEvent::RoundEnd {
                round: round_id,
                responses,
                elapsed_s: elapsed,
                store_version: version,
            },
        );
        out
    }

    /// Advances the exact session while the cost model says the next
    /// batch fits the budget, retrying retryable failures with
    /// exponential backoff. Crash recovery happens *inside*
    /// `MfbcSession::step`; an unrecoverable error poisons the engine
    /// (it keeps serving stale).
    fn advance_within(&mut self, budget_s: f64, start_s: f64, retries: &mut u32) {
        let mut attempt = 0u32;
        loop {
            if self.session.is_none() {
                return;
            }
            let spent = self.modeled_s() - start_s;
            if self.est_batch_modeled_s() > budget_s - spent {
                return;
            }
            let before_s = self.modeled_s();
            let step = self.session.as_mut().expect("checked above").step();
            match step {
                Ok(SessionStep::Committed { .. }) => {
                    attempt = 0;
                    self.breaker.record_success();
                    let session = self.session.as_ref().expect("still live");
                    self.committed_modeled_s += self.modeled_s() - before_s;
                    self.committed_batches += 1;
                    self.store.scores = Arc::new(ScoreSnapshot::new(session.scores().clone()));
                    self.store.version += 1;
                    let (round, store_version) = (self.rounds, self.store.version);
                    self.note(Engine::modeled_s, || TraceEvent::Commit {
                        round,
                        store_version,
                    });
                }
                Ok(SessionStep::Done) => {
                    let mut session = self.session.take().expect("still live");
                    self.cache_stats = session.cache_stats();
                    let run = session.finish();
                    self.final_clock_s = run.report.critical.total_time();
                    self.store.scores = Arc::new(ScoreSnapshot::new(run.scores));
                    self.store.exact_complete = true;
                    return;
                }
                Err(e) if self.session.as_ref().is_some_and(|s| s.poisoned()) => {
                    // Unrecoverable: the session released its state.
                    // Stop computing; keep serving the stale store.
                    // Keep the machine clock (the wasted work is real
                    // modeled time) before dropping the handle.
                    let session = self.session.take().expect("still live");
                    self.cache_stats = session.cache_stats();
                    self.final_clock_s = session.machine().report().critical.total_time();
                    self.poisoned = true;
                    self.last_poison = Some(e.to_string());
                    self.record_failure();
                    let round = self.rounds;
                    self.note(Engine::modeled_s, || TraceEvent::Poison {
                        round,
                        detail: e.to_string(),
                    });
                    self.auto_dump = self.flight.as_ref().map(FlightRecorder::dump);
                    return;
                }
                Err(_) => {
                    // Retryable: state is rolled back and resident.
                    if attempt + 1 >= self.ecfg.retry.max_attempts {
                        self.record_failure();
                        return;
                    }
                    let wait = self
                        .ecfg
                        .retry
                        .backoff_for(attempt, self.ecfg.seed ^ self.rounds);
                    self.extra_modeled_s += wait;
                    let (round, retried) = (self.rounds, attempt.into());
                    attempt += 1;
                    *retries += 1;
                    self.totals.retries += 1;
                    self.note(Engine::modeled_s, || TraceEvent::Retry {
                        round,
                        attempt: retried,
                        wait_s: wait,
                    });
                }
            }
        }
    }

    /// Records a failed advance with the breaker, noting a trip.
    fn record_failure(&mut self) {
        let before = self.breaker.trips();
        self.breaker.record_failure();
        let trips = self.breaker.trips();
        if trips > before {
            let round = self.rounds;
            self.note(Engine::modeled_s, || TraceEvent::BreakerTrip {
                round,
                trips,
            });
            self.auto_dump = self.flight.as_ref().map(FlightRecorder::dump);
        }
    }

    /// Liveness/readiness snapshot.
    pub fn health(&self) -> Health {
        Health {
            ready: !self.poisoned,
            live: true,
            queue_depth: self.queue.len(),
            store_version: self.store.version,
            exact_complete: self.store.exact_complete,
            p: self
                .session
                .as_ref()
                .map(|s| s.machine().p())
                .unwrap_or_default(),
            served: self.totals.responses.iter().sum(),
            shed: self.totals.shed.iter().sum(),
            breaker: breaker_name(self.breaker.state()),
            last_poison: self.last_poison.clone(),
            window_len: self.window.len(),
            window_deadline_met: self.window.iter().filter(|(_, met)| *met).count(),
            window_max_latency_s: self.window.iter().map(|(l, _)| *l).fold(0.0_f64, f64::max),
            mm_cache: self.cache_stats(),
        }
    }

    /// The engine's metrics, projected into a fresh registry on each
    /// call (render with `mfbc_profile::prometheus::render`): the
    /// request path's totals, plus what the engine's state already
    /// holds. A sample exists once its event has happened: the store
    /// gauges after a commit, the queue depth after an admission, the
    /// cache gauges after a round or [`Engine::warm`].
    pub fn metrics(&self) -> MetricsRegistry {
        let r = MetricsRegistry::new();
        for &(name, kind, help) in FAMILIES {
            r.declare(name, kind, help);
        }
        let count = |name: &str, labels: &[(&str, &str)], n: u64| {
            if n > 0 {
                r.counter_add(name, labels, n as f64);
            }
        };
        let t = &self.totals;
        let labelled: [(&str, &str, &[&str], &[u64]); 4] = [
            ("serve_requests_total", "query", &QUERIES, &t.requests),
            ("serve_responses_total", "quality", &QUALITIES, &t.responses),
            ("serve_shed_total", "reason", &SHED_REASONS, &t.shed),
            (
                "serve_deadline_total",
                "result",
                &["met", "missed"],
                &t.deadline,
            ),
        ];
        for (name, key, values, counts) in labelled {
            for (value, &n) in values.iter().zip(counts) {
                count(name, &[(key, value)], n);
            }
        }
        for (&(rung, reason), &n) in DECISIONS.iter().zip(&t.degrade) {
            let labels = [("rung", rung), ("reason", reason)];
            count("serve_degrade_total", &labels, n);
        }
        count("serve_retries_total", &[], t.retries);
        count("serve_rounds_total", &[], self.rounds);
        count("serve_batches_total", &[], self.store.version);
        count("serve_breaker_trips_total", &[], self.breaker.trips());
        for (name, h) in [
            ("serve_latency_modeled_us", &t.latency_us),
            ("serve_coalesced_requests", &t.coalesced),
            ("serve_queue_wait_modeled_us", &t.queue_wait_us),
            ("serve_deadline_margin_modeled_us", &t.deadline_margin_us),
        ] {
            if h.count > 0 {
                r.histogram_set(name, &[], h.clone());
            }
        }
        let gauge = |name: &str, value: f64| r.gauge_set(name, &[], value);
        gauge("serve_ready", if self.poisoned { 0.0 } else { 1.0 });
        if t.requests.iter().sum::<u64>() > 0 {
            gauge("serve_queue_depth", self.queue.len() as f64);
        }
        if self.store.version > 0 {
            gauge("serve_store_version", self.store.version as f64);
        }
        if self.rounds > 0 || self.warmed {
            let c = self.cache_stats();
            gauge("serve_mm_cache_hits", c.hits as f64);
            gauge("serve_mm_cache_misses", c.misses as f64);
            gauge("serve_mm_cache_inserts", c.inserts as f64);
            gauge("serve_mm_cache_evictions", c.evictions as f64);
        }
        r
    }

    /// Whether an unrecoverable error ended exact progress. A
    /// poisoned engine stays live and serves `Stale`.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Whether the store holds the complete exact scores.
    pub fn exact_complete(&self) -> bool {
        self.store.exact_complete
    }

    /// Committed batches in the score store.
    pub fn store_version(&self) -> u64 {
        self.store.version
    }

    /// Drives the exact computation as far as it will go before any
    /// request arrives (`mfbc-cli serve --warm`): repeated unbounded
    /// advances until the store is exact, the engine is poisoned, or
    /// the circuit breaker opens on persistent failures. Returns the
    /// engine-level retries spent.
    pub fn warm(&mut self) -> u32 {
        let mut retries = 0u32;
        while !self.store.exact_complete && !self.poisoned && self.breaker.allows() {
            let start_s = self.modeled_s();
            self.advance_within(f64::INFINITY, start_s, &mut retries);
        }
        self.warmed = true;
        retries
    }

    /// Current circuit-breaker state.
    pub fn breaker_state(&self) -> mfbc_fault::BreakerState {
        self.breaker.state()
    }

    /// Dumps the flight recorder now, as one JSON line. `None` when
    /// the recorder is disabled (`flight_capacity = 0`).
    pub fn flight_dump(&self) -> Option<String> {
        self.flight.as_ref().map(FlightRecorder::dump)
    }

    /// The dump captured automatically at the most recent poison or
    /// breaker trip, if one happened since the last call (taking
    /// clears it).
    pub fn take_auto_dump(&mut self) -> Option<String> {
        self.auto_dump.take()
    }

    /// Read access to the flight recorder (e.g. for journey
    /// inspection in tests and load harnesses). `None` when disabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Prepared-adjacency cache activity across every request served
    /// (sticky after the exact session retires).
    pub fn cache_stats(&self) -> CacheStats {
        self.session
            .as_ref()
            .map_or(self.cache_stats, MfbcSession::cache_stats)
    }

    /// The graph being served.
    pub fn graph(&self) -> &Graph {
        &self.g
    }
}
