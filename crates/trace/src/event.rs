//! Typed trace events emitted by the MFBC stack.
//!
//! This file is the only place that knows an event's shape. A variant
//! is declared once — its `tag`, and one arm of [`TraceEvent::fields`]
//! listing its `(name, value)` pairs in export order — and the
//! JSON-lines, Chrome and stderr renderings are generic walks over
//! that list. [`TraceEvent::title`], [`TraceEvent::category`],
//! [`TraceEvent::lanes`] and [`TraceEvent::is_global`] say how an
//! event is drawn; each has a default, so a new variant needs none.

use crate::json::{esc, write_num, write_row, Row, Rows};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Severity of a [`TraceEvent::Log`] message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Informational progress message.
    Info,
    /// A recoverable problem worth surfacing even without a sink.
    Warn,
}

impl Level {
    /// Lower-case name, as written by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// One autotuner candidate: a plan with its modeled cost and memory
/// footprint, plus whether it passed the per-rank memory gate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanChoice {
    /// Compact plan label (e.g. `2d(AB,4x4)`).
    pub plan: String,
    /// Modeled execution time in seconds under the α–β–γ model.
    pub cost_s: f64,
    /// Modeled peak memory per rank in bytes.
    pub mem_bytes: u64,
    /// Whether the plan fit within the per-rank memory budget.
    pub feasible: bool,
}

crate::row! { PlanChoice {
    "plan" => plan,
    "cost_s" => cost_s,
    "mem_bytes" => mem_bytes,
    "feasible" => feasible,
} }

/// The cost of one collective, as charged to the machine model:
/// what [`TraceEvent::Collective`] and [`TraceEvent::CollectiveIssue`]
/// both carry (see [`TraceEvent::collective`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveCharge {
    /// Collective kind name (e.g. `allgather`).
    pub kind: &'static str,
    /// Number of ranks in the participating group.
    pub group: usize,
    /// Participating rank ids, in the machine's numbering at the
    /// time the collective was issued.
    pub ranks: Vec<usize>,
    /// Collective sequence number (the machine's issue order).
    pub seq: u64,
    /// Per-rank payload in bytes, as passed to the cost model.
    pub bytes: u64,
    /// Messages charged on the critical path.
    pub msgs: u64,
    /// Bytes charged on the critical path.
    pub bytes_charged: u64,
    /// Modeled time in seconds (α–β closed form).
    pub modeled_s: f64,
}

impl CollectiveCharge {
    /// The charge's fields in export order; a nonblocking issue's
    /// `handle` sits before the rank list.
    fn fields(&self, handle: Option<u64>, sink: &mut dyn FnMut(&'static str, Value<'_>)) {
        use Value::{Ranks, Str, F64, U64};
        sink("kind", Str(self.kind));
        sink("group", U64(self.group as u64));
        sink("seq", U64(self.seq));
        sink("bytes", U64(self.bytes));
        sink("msgs", U64(self.msgs));
        sink("bytes_charged", U64(self.bytes_charged));
        sink("modeled_s", F64(self.modeled_s));
        if let Some(handle) = handle {
            sink("handle", U64(handle));
        }
        sink("ranks", Ranks(&self.ranks));
    }
}

/// A structured event observed somewhere in the stack.
///
/// Events carry *modeled* quantities (α–β times, charged bytes) next
/// to measured ones (wall-clock timestamps are stamped by the
/// recorder), so a trace can be cross-checked against the cost
/// accounting that produced it.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A collective communication charged to the machine model.
    Collective {
        /// What was charged, and to whom.
        charge: CollectiveCharge,
    },
    /// A nonblocking collective issued to the machine model; its cost
    /// lands on the clocks at the matching [`TraceEvent::CollectiveWait`].
    /// Carries the same charge as [`TraceEvent::Collective`] so a
    /// replayer can price the operation without waiting for the wait.
    CollectiveIssue {
        /// What will be charged, and to whom.
        charge: CollectiveCharge,
        /// Machine-unique handle pairing this issue with its wait.
        handle: u64,
    },
    /// Completion of a nonblocking collective: the handle's modeled
    /// cost is charged, with the transfer window running from the
    /// issue point under overlapped accounting.
    CollectiveWait {
        /// Handle of the completed [`TraceEvent::CollectiveIssue`].
        handle: u64,
    },
    /// Local compute charged to one rank of the machine model.
    Compute {
        /// Rank the operations were charged to.
        rank: usize,
        /// Multiply–add operations charged.
        ops: u64,
        /// Modeled time in seconds (`ops · γ`).
        modeled_s: f64,
    },
    /// A retry backoff wait charged to a group after a transient
    /// fault (the group synchronizes, then sits out the wait).
    Backoff {
        /// Ranks that waited out the backoff.
        ranks: Vec<usize>,
        /// Modeled seconds of backoff charged.
        seconds: f64,
    },
    /// The machine shrank by one rank (crash recovery); subsequent
    /// events use the renumbered `0..p-1` rank ids.
    Shrink {
        /// Rank that was removed, in the pre-shrink numbering.
        failed: usize,
        /// Rank count before the shrink.
        p_before: usize,
    },
    /// One distributed SpGEMM kernel invocation.
    Spgemm {
        /// Plan label (e.g. `1d(A)`, `cannon(q=4)`).
        plan: String,
        /// Rows of A / C.
        m: u64,
        /// Inner (contraction) dimension.
        k: u64,
        /// Columns of B / C.
        n: u64,
        /// Nonzeros of A.
        nnz_a: u64,
        /// Nonzeros of B.
        nnz_b: u64,
        /// Nonzeros of the product C.
        nnz_c: u64,
        /// Useful multiply–add operations performed.
        ops: u64,
    },
    /// A tensor redistribution between layouts.
    Redist {
        /// What moved (e.g. `blocks`, `window`).
        what: &'static str,
        /// Total bytes that changed owner.
        bytes_moved: u64,
        /// Ranks involved in the exchange.
        participants: usize,
    },
    /// An autotuner decision with the full candidate table.
    Autotune {
        /// Rows of A / C.
        m: u64,
        /// Inner dimension.
        k: u64,
        /// Columns of B / C.
        n: u64,
        /// Nonzeros of A.
        nnz_a: u64,
        /// Nonzeros of B.
        nnz_b: u64,
        /// Every candidate plan considered, with modeled cost.
        candidates: Vec<PlanChoice>,
        /// Label of the winning plan.
        winner: String,
        /// Modeled cost of the winner in seconds.
        winner_cost_s: f64,
    },
    /// One MFBC superstep (a frontier-advance iteration).
    Superstep {
        /// `forward` (MFBF) or `backward` (MFBr).
        phase: &'static str,
        /// Source-batch index within the run.
        batch: usize,
        /// Iteration number within the phase (0-based).
        step: usize,
        /// Nonzeros in the current frontier.
        frontier_nnz: u64,
        /// Frontier rows (batch sources) still active this step.
        active_rows: u64,
    },
    /// One shared-memory pool fan-out executed by a local kernel
    /// (`mfbc-parallel`).
    Pool {
        /// Kernel that fanned out (e.g. `spgemm`, `transpose`).
        kernel: &'static str,
        /// Participants the pool ran with (workers + calling thread).
        threads: usize,
        /// Jobs (chunks) executed by the call.
        tasks: u64,
        /// Busy microseconds per participant (index 0 is the caller).
        busy_us: Vec<u64>,
        /// Chunk-size histogram: `chunk_hist[b]` counts chunks whose
        /// item count lies in `[2^b, 2^{b+1})`.
        chunk_hist: Vec<u64>,
    },
    /// An injected fault fired in the simulated machine.
    Fault {
        /// Fault kind name (`crash`, `transient`, `oom`).
        kind: &'static str,
        /// Targeted rank, when the fault targets one.
        rank: Option<usize>,
        /// Collective sequence number at which it fired.
        seq: u64,
    },
    /// A recovery decision taken by a fault-tolerant driver.
    Recovery {
        /// Action taken (`retry-batch`, `replan`, `shrink-batch`).
        action: &'static str,
        /// Human-readable context (e.g. `p=8->7 plan=auto`).
        detail: String,
        /// Modeled seconds of work discarded by rolling back.
        wasted_s: f64,
    },
    /// Opens a nested wall-clock span; paired with [`TraceEvent::SpanEnd`].
    SpanBegin {
        /// Span name (e.g. `mm_auto`, `batch 3`).
        name: String,
    },
    /// Closes the most recent span with the same name on this thread.
    SpanEnd {
        /// Span name; matches the corresponding `SpanBegin`.
        name: String,
    },
    /// A request admitted into the serving engine's bounded queue
    /// (`mfbc-serve`). Carries the request's provenance so downstream
    /// consumers can attribute later round work to it.
    RequestAdmitted {
        /// Caller-chosen request id (echoed on the response).
        request_id: u64,
        /// Query kind label (`full`, `topk`, `vertex`).
        query: &'static str,
        /// Modeled-seconds budget; `f64::INFINITY` when unbounded.
        deadline_s: f64,
        /// Queue depth after admission.
        queue_depth: u64,
    },
    /// A coalesced serve round began: the engine drained its queue
    /// and is about to spend the round budget. Collectives and
    /// compute emitted between this and the matching
    /// [`TraceEvent::RoundEnd`] belong to the round.
    RoundStart {
        /// 1-based round id (the engine's drain counter).
        round: u64,
        /// Requests coalesced into the round.
        requests: u64,
        /// Shared budget in modeled seconds (the most patient
        /// request's deadline; `f64::INFINITY` when unbounded).
        budget_s: f64,
        /// Score-store version entering the round.
        store_version: u64,
    },
    /// The degradation-ladder decision for one serve round, with the
    /// budget arithmetic that produced it.
    DegradeDecision {
        /// Round the decision belongs to.
        round: u64,
        /// Chosen rung (`exact`, `approx`, `stale`).
        rung: &'static str,
        /// Why that rung (`complete`, `budget`, `min-k`,
        /// `breaker-open`, `poisoned`).
        reason: &'static str,
        /// The round's shared budget in modeled seconds.
        budget_s: f64,
        /// Modeled seconds already spent when the decision was made.
        spent_s: f64,
        /// Cost the ladder charged one more exact batch.
        est_batch_s: f64,
        /// Sample size of the approx rung (0 for other rungs).
        approx_k: u64,
        /// Score-store version at decision time.
        store_version: u64,
    },
    /// A coalesced serve round finished; every coalesced request was
    /// answered.
    RoundEnd {
        /// Round id matching the [`TraceEvent::RoundStart`].
        round: u64,
        /// Responses produced (equals the round's request count).
        responses: u64,
        /// Modeled seconds the round took end to end.
        elapsed_s: f64,
        /// Score-store version leaving the round.
        store_version: u64,
    },
    /// The serving engine refused a submission at admission.
    Shed {
        /// The refused request's id.
        request_id: u64,
        /// Why (`queue-full`, `invalid-request`).
        reason: &'static str,
    },
    /// The serving engine backs off from a retryable session error.
    Retry {
        /// The engine's latest round (0 before the first).
        round: u64,
        /// Zero-based attempt being retried.
        attempt: u64,
        /// Backoff wait in modeled seconds.
        wait_s: f64,
    },
    /// An exact batch committed into the serving engine's score store.
    Commit {
        /// The engine's latest round (0 before the first).
        round: u64,
        /// Score-store version after the commit.
        store_version: u64,
    },
    /// The serving engine's circuit breaker tripped to stale-serving.
    BreakerTrip {
        /// The engine's latest round (0 before the first).
        round: u64,
        /// Lifetime trip count.
        trips: u64,
    },
    /// An unrecoverable error ended the serving engine's exact
    /// progress; it keeps serving the stale store.
    Poison {
        /// The engine's latest round (0 before the first).
        round: u64,
        /// The session error text.
        detail: String,
    },
    /// A sampled numeric value (rendered as a counter track).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// A free-form log message routed through the trace pipeline.
    Log {
        /// Severity.
        level: Level,
        /// Message text.
        message: String,
    },
}

impl TraceEvent {
    /// Short type tag used by the exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Collective { .. } => "collective",
            TraceEvent::CollectiveIssue { .. } => "collective_issue",
            TraceEvent::CollectiveWait { .. } => "collective_wait",
            TraceEvent::Compute { .. } => "compute",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::Shrink { .. } => "shrink",
            TraceEvent::Spgemm { .. } => "spgemm",
            TraceEvent::Redist { .. } => "redist",
            TraceEvent::Autotune { .. } => "autotune",
            TraceEvent::Superstep { .. } => "superstep",
            TraceEvent::Pool { .. } => "pool",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::SpanBegin { .. } => "span_begin",
            TraceEvent::SpanEnd { .. } => "span_end",
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::DegradeDecision { .. } => "degrade_decision",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::BreakerTrip { .. } => "breaker_trip",
            TraceEvent::Poison { .. } => "poison",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::Log { .. } => "log",
        }
    }

    /// Visits the event's fields as ordered `(name, value)` pairs —
    /// the order the JSON-lines exporter writes them in.
    pub fn fields(&self, sink: &mut dyn FnMut(&'static str, Value<'_>)) {
        use Value::{Rank, Ranks, Rows, Str, U64s, F64, U64};
        match self {
            TraceEvent::Collective { charge } => charge.fields(None, sink),
            TraceEvent::CollectiveIssue { charge, handle } => charge.fields(Some(*handle), sink),
            TraceEvent::CollectiveWait { handle } => sink("handle", U64(*handle)),
            TraceEvent::Compute {
                rank,
                ops,
                modeled_s,
            } => {
                sink("rank", U64(*rank as u64));
                sink("ops", U64(*ops));
                sink("modeled_s", F64(*modeled_s));
            }
            TraceEvent::Backoff { ranks, seconds } => {
                sink("seconds", F64(*seconds));
                sink("ranks", Ranks(ranks));
            }
            TraceEvent::Shrink { failed, p_before } => {
                sink("failed", U64(*failed as u64));
                sink("p_before", U64(*p_before as u64));
            }
            TraceEvent::Spgemm {
                plan,
                m,
                k,
                n,
                nnz_a,
                nnz_b,
                nnz_c,
                ops,
            } => {
                sink("plan", Str(plan));
                sink("m", U64(*m));
                sink("k", U64(*k));
                sink("n", U64(*n));
                sink("nnz_a", U64(*nnz_a));
                sink("nnz_b", U64(*nnz_b));
                sink("nnz_c", U64(*nnz_c));
                sink("ops", U64(*ops));
            }
            TraceEvent::Redist {
                what,
                bytes_moved,
                participants,
            } => {
                sink("what", Str(what));
                sink("bytes_moved", U64(*bytes_moved));
                sink("participants", U64(*participants as u64));
            }
            TraceEvent::Autotune {
                m,
                k,
                n,
                nnz_a,
                nnz_b,
                candidates,
                winner,
                winner_cost_s,
            } => {
                sink("m", U64(*m));
                sink("k", U64(*k));
                sink("n", U64(*n));
                sink("nnz_a", U64(*nnz_a));
                sink("nnz_b", U64(*nnz_b));
                sink("winner", Str(winner));
                sink("winner_cost_s", F64(*winner_cost_s));
                sink("candidates", Rows(candidates));
            }
            TraceEvent::Superstep {
                phase,
                batch,
                step,
                frontier_nnz,
                active_rows,
            } => {
                sink("phase", Str(phase));
                sink("batch", U64(*batch as u64));
                sink("step", U64(*step as u64));
                sink("frontier_nnz", U64(*frontier_nnz));
                sink("active_rows", U64(*active_rows));
            }
            TraceEvent::Pool {
                kernel,
                threads,
                tasks,
                busy_us,
                chunk_hist,
            } => {
                sink("kernel", Str(kernel));
                sink("threads", U64(*threads as u64));
                sink("tasks", U64(*tasks));
                sink("busy_us", U64s(busy_us));
                sink("chunk_hist", U64s(chunk_hist));
            }
            TraceEvent::Fault { kind, rank, seq } => {
                sink("kind", Str(kind));
                sink("rank", Rank(*rank));
                sink("seq", U64(*seq));
            }
            TraceEvent::Recovery {
                action,
                detail,
                wasted_s,
            } => {
                sink("action", Str(action));
                sink("detail", Str(detail));
                sink("wasted_s", F64(*wasted_s));
            }
            TraceEvent::SpanBegin { name } | TraceEvent::SpanEnd { name } => {
                sink("name", Str(name));
            }
            TraceEvent::RequestAdmitted {
                request_id,
                query,
                deadline_s,
                queue_depth,
            } => {
                sink("request_id", U64(*request_id));
                sink("query", Str(query));
                sink("deadline_s", F64(*deadline_s));
                sink("queue_depth", U64(*queue_depth));
            }
            TraceEvent::RoundStart {
                round,
                requests,
                budget_s,
                store_version,
            } => {
                sink("round", U64(*round));
                sink("requests", U64(*requests));
                sink("budget_s", F64(*budget_s));
                sink("store_version", U64(*store_version));
            }
            TraceEvent::DegradeDecision {
                round,
                rung,
                reason,
                budget_s,
                spent_s,
                est_batch_s,
                approx_k,
                store_version,
            } => {
                sink("round", U64(*round));
                sink("rung", Str(rung));
                sink("reason", Str(reason));
                sink("budget_s", F64(*budget_s));
                sink("spent_s", F64(*spent_s));
                sink("est_batch_s", F64(*est_batch_s));
                sink("approx_k", U64(*approx_k));
                sink("store_version", U64(*store_version));
            }
            TraceEvent::RoundEnd {
                round,
                responses,
                elapsed_s,
                store_version,
            } => {
                sink("round", U64(*round));
                sink("responses", U64(*responses));
                sink("elapsed_s", F64(*elapsed_s));
                sink("store_version", U64(*store_version));
            }
            TraceEvent::Shed { request_id, reason } => {
                sink("request_id", U64(*request_id));
                sink("reason", Str(reason));
            }
            TraceEvent::Retry {
                round,
                attempt,
                wait_s,
            } => {
                sink("round", U64(*round));
                sink("attempt", U64(*attempt));
                sink("wait_s", F64(*wait_s));
            }
            TraceEvent::Commit {
                round,
                store_version,
            } => {
                sink("round", U64(*round));
                sink("store_version", U64(*store_version));
            }
            TraceEvent::BreakerTrip { round, trips } => {
                sink("round", U64(*round));
                sink("trips", U64(*trips));
            }
            TraceEvent::Poison { round, detail } => {
                sink("round", U64(*round));
                sink("detail", Str(detail));
            }
            TraceEvent::Counter { name, value } => {
                sink("name", Str(name));
                sink("value", F64(*value));
            }
            TraceEvent::Log { level, message } => {
                sink("level", Str(level.name()));
                sink("message", Str(message));
            }
        }
    }

    /// The charge a [`TraceEvent::Collective`] or
    /// [`TraceEvent::CollectiveIssue`] carries; `None` for every other
    /// event. Consumers that price communication read this instead of
    /// matching the two variants.
    pub fn collective(&self) -> Option<&CollectiveCharge> {
        match self {
            TraceEvent::Collective { charge } | TraceEvent::CollectiveIssue { charge, .. } => {
                Some(charge)
            }
            _ => None,
        }
    }

    /// Display name: the Chrome event name and the timeline marker
    /// label. Defaults to the [tag](TraceEvent::tag).
    pub fn title(&self) -> Cow<'_, str> {
        match self {
            TraceEvent::Collective { charge } => charge.kind.into(),
            TraceEvent::CollectiveIssue { charge, .. } => format!("{} (issue)", charge.kind).into(),
            TraceEvent::CollectiveWait { .. } => "wait".into(),
            TraceEvent::Shrink { failed, .. } => format!("shrink -rank{failed}").into(),
            TraceEvent::Spgemm { plan, .. } => format!("spgemm {plan}").into(),
            TraceEvent::Redist { what, .. } => format!("redist {what}").into(),
            TraceEvent::Autotune { winner, .. } => format!("autotune -> {winner}").into(),
            TraceEvent::Superstep { phase, .. } => format!("superstep {phase}").into(),
            TraceEvent::Pool { kernel, .. } => format!("pool {kernel}").into(),
            TraceEvent::Fault { kind, .. } => format!("fault {kind}").into(),
            TraceEvent::Recovery { action, .. } => format!("recovery {action}").into(),
            TraceEvent::SpanBegin { name } | TraceEvent::SpanEnd { name } => name.into(),
            TraceEvent::RequestAdmitted { request_id, .. } => {
                format!("request {request_id} admitted").into()
            }
            TraceEvent::RoundStart { round, .. } => format!("round {round} start").into(),
            TraceEvent::DegradeDecision { rung, .. } => format!("degrade -> {rung}").into(),
            TraceEvent::RoundEnd { round, .. } => format!("round {round} end").into(),
            TraceEvent::Counter { name, .. } => Cow::Borrowed(name),
            TraceEvent::Log { message, .. } => message.into(),
            _ => self.tag().into(),
        }
    }

    /// Chrome event category. Defaults to the [tag](TraceEvent::tag).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::Collective { .. }
            | TraceEvent::CollectiveIssue { .. }
            | TraceEvent::CollectiveWait { .. } => "collective",
            TraceEvent::Shrink { .. } => "fault",
            TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. } => "span",
            TraceEvent::RequestAdmitted { .. }
            | TraceEvent::RoundStart { .. }
            | TraceEvent::DegradeDecision { .. }
            | TraceEvent::RoundEnd { .. }
            | TraceEvent::Shed { .. }
            | TraceEvent::Retry { .. }
            | TraceEvent::Commit { .. }
            | TraceEvent::BreakerTrip { .. }
            | TraceEvent::Poison { .. } => "serve",
            _ => self.tag(),
        }
    }

    /// Ranks the event is attributed to, in the machine's numbering at
    /// emission time. The Chrome exporter draws one instant per entry
    /// on that rank's lane; empty (the default) means the
    /// un-attributed stream lane.
    pub fn lanes(&self) -> &[usize] {
        match self {
            TraceEvent::Collective { charge } | TraceEvent::CollectiveIssue { charge, .. } => {
                &charge.ranks
            }
            TraceEvent::Backoff { ranks, .. } => ranks,
            TraceEvent::Compute { rank, .. } => std::slice::from_ref(rank),
            TraceEvent::Fault { rank, .. } => rank.as_slice(),
            _ => &[],
        }
    }

    /// Whether the event is drawn across every lane (faults,
    /// recoveries, shrinks, degradation decisions) rather than on its
    /// own.
    pub fn is_global(&self) -> bool {
        matches!(
            self,
            TraceEvent::Shrink { .. }
                | TraceEvent::Fault { .. }
                | TraceEvent::Recovery { .. }
                | TraceEvent::DegradeDecision { .. }
        )
    }

    /// Largest rank id the event shows to exist: its own
    /// [lanes](TraceEvent::lanes), or the pre-shrink machine's last
    /// rank.
    pub fn max_rank(&self) -> Option<usize> {
        match self {
            TraceEvent::Shrink { p_before, .. } => p_before.checked_sub(1),
            _ => self.lanes().iter().copied().max(),
        }
    }

    /// Severity and text of a [`TraceEvent::Log`]; `None` for every
    /// other event.
    pub fn as_log(&self) -> Option<(Level, &str)> {
        match self {
            TraceEvent::Log { level, message } => Some((*level, message)),
            _ => None,
        }
    }
}

/// A field value: the closed set of shapes the exporters render —
/// the trace exports for an event's fields, the report documents for
/// a [`Row`]'s.
#[derive(Clone, Copy)]
pub enum Value<'a> {
    /// An integer count, size or id.
    U64(u64),
    /// A real quantity (modeled seconds, sampled values); non-finite
    /// renders as `null`.
    F64(f64),
    /// An optional real quantity (`null` when absent).
    OptF64(Option<f64>),
    /// A flag.
    Bool(bool),
    /// Text, escaped on output.
    Str(&'a str),
    /// One optional rank id (`null` when absent).
    Rank(Option<usize>),
    /// The participating rank ids. The Chrome exporter leaves these
    /// out of `args`: each participant gets the event on its own lane.
    Ranks(&'a [usize]),
    /// A list of counts.
    U64s(&'a [u64]),
    /// A list of labels.
    Strs(&'a [String]),
    /// A nested row.
    Row(&'a dyn Row),
    /// A list of rows (the autotuner's candidate table, a report
    /// document's arrays).
    Rows(&'a dyn Rows),
}

impl Value<'_> {
    /// Appends the value as compact JSON (no spaces).
    pub fn write_json(&self, out: &mut String) {
        fn list<T>(out: &mut String, items: &[T], mut one: impl FnMut(&mut String, &T)) {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                one(out, item);
            }
            out.push(']');
        }
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) | Value::OptF64(Some(v)) => write_num(out, *v),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(v) => {
                let _ = write!(out, "\"{}\"", esc(v));
            }
            Value::Rank(Some(v)) => {
                let _ = write!(out, "{v}");
            }
            Value::Rank(None) | Value::OptF64(None) => out.push_str("null"),
            Value::Ranks(v) => list(out, v, |out, r| {
                let _ = write!(out, "{r}");
            }),
            Value::U64s(v) => list(out, v, |out, x| {
                let _ = write!(out, "{x}");
            }),
            Value::Strs(v) => list(out, v, |out, s| {
                let _ = write!(out, "\"{}\"", esc(s));
            }),
            Value::Row(row) => write_row(out, *row, false),
            Value::Rows(rows) => {
                out.push('[');
                let mut sep = "";
                rows.each(&mut |row| {
                    out.push_str(sep);
                    write_row(out, row, false);
                    sep = ",";
                });
                out.push(']');
            }
        }
    }

    /// Exact equality: `f64` by bit pattern, everything else by its
    /// rendering.
    pub fn same(&self, other: &Value<'_>) -> bool {
        match (self, other) {
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            _ => {
                let (mut a, mut b) = (String::new(), String::new());
                self.write_json(&mut a);
                other.write_json(&mut b);
                a == b
            }
        }
    }
}

/// An event plus the context the recorder stamped on it.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Small dense id of the emitting thread.
    pub tid: u64,
    /// The event itself.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_to_json, to_chrome_trace};

    /// The sample after `prev` (`None` starts the chain). The `match`
    /// has no wildcard, so a new variant does not compile until it has
    /// a sample here — and then [`JSONL_GOLDEN`] fails until it has its
    /// line. New samples join at the end, so earlier lines keep their
    /// timestamps.
    fn next_sample(prev: Option<&TraceEvent>) -> Option<TraceEvent> {
        let Some(prev) = prev else {
            return Some(TraceEvent::Collective {
                charge: CollectiveCharge {
                    kind: "allgather",
                    group: 2,
                    ranks: vec![0, 3],
                    seq: 3,
                    bytes: 1024,
                    msgs: 3,
                    bytes_charged: 2048,
                    modeled_s: 1.5e-6,
                },
            });
        };
        Some(match prev {
            TraceEvent::Collective { .. } => TraceEvent::CollectiveIssue {
                charge: CollectiveCharge {
                    kind: "bcast",
                    group: 0,
                    ranks: vec![],
                    seq: 4,
                    bytes: 64,
                    msgs: 1,
                    bytes_charged: 64,
                    modeled_s: 2e-6,
                },
                handle: 9,
            },
            TraceEvent::CollectiveIssue { .. } => TraceEvent::CollectiveWait { handle: 9 },
            TraceEvent::CollectiveWait { .. } => TraceEvent::Compute {
                rank: 2,
                ops: 1000,
                modeled_s: 1e-6,
            },
            TraceEvent::Compute { .. } => TraceEvent::Backoff {
                ranks: vec![0, 1],
                seconds: 0.5,
            },
            TraceEvent::Backoff { .. } => TraceEvent::Shrink {
                failed: 3,
                p_before: 8,
            },
            TraceEvent::Shrink { .. } => TraceEvent::Spgemm {
                plan: "2d(\"AB\",2x2)".into(),
                m: 4,
                k: 5,
                n: 6,
                nnz_a: 7,
                nnz_b: 8,
                nnz_c: 9,
                ops: 10,
            },
            TraceEvent::Spgemm { .. } => TraceEvent::Redist {
                what: "blocks",
                bytes_moved: 4096,
                participants: 4,
            },
            TraceEvent::Redist { .. } => TraceEvent::Autotune {
                m: 4,
                k: 4,
                n: 4,
                nnz_a: 9,
                nnz_b: 9,
                candidates: vec![
                    PlanChoice {
                        plan: "1d(A)".into(),
                        cost_s: 2.0,
                        mem_bytes: 100,
                        feasible: false,
                    },
                    PlanChoice {
                        plan: "2d(AB,2x2)".into(),
                        cost_s: 1.0,
                        mem_bytes: 60,
                        feasible: true,
                    },
                ],
                winner: "2d(AB,2x2)".into(),
                winner_cost_s: 1.0,
            },
            TraceEvent::Autotune { .. } => TraceEvent::Superstep {
                phase: "forward",
                batch: 1,
                step: 2,
                frontier_nnz: 37,
                active_rows: 4,
            },
            TraceEvent::Superstep { .. } => TraceEvent::Pool {
                kernel: "spgemm",
                threads: 2,
                tasks: 8,
                busy_us: vec![10, 12],
                chunk_hist: vec![0, 2, 6],
            },
            TraceEvent::Pool { .. } => TraceEvent::Fault {
                kind: "transient",
                rank: None,
                seq: 5,
            },
            TraceEvent::Fault { .. } => TraceEvent::Recovery {
                action: "replan",
                detail: "p=8->7\tplan=\"auto\"".into(),
                wasted_s: 0.25,
            },
            TraceEvent::Recovery { .. } => TraceEvent::SpanBegin {
                name: "batch \\0".into(),
            },
            TraceEvent::SpanBegin { .. } => TraceEvent::SpanEnd {
                name: "batch \\0".into(),
            },
            TraceEvent::SpanEnd { .. } => TraceEvent::RequestAdmitted {
                request_id: 17,
                query: "topk",
                deadline_s: f64::INFINITY,
                queue_depth: 3,
            },
            TraceEvent::RequestAdmitted { .. } => TraceEvent::RoundStart {
                round: 2,
                requests: 3,
                budget_s: f64::INFINITY,
                store_version: 5,
            },
            TraceEvent::RoundStart { .. } => TraceEvent::DegradeDecision {
                round: 2,
                rung: "approx",
                reason: "budget",
                budget_s: 1.5,
                spent_s: 1.25,
                est_batch_s: 0.5,
                approx_k: 16,
                store_version: 5,
            },
            TraceEvent::DegradeDecision { .. } => TraceEvent::RoundEnd {
                round: 2,
                responses: 3,
                elapsed_s: 1.25,
                store_version: 6,
            },
            TraceEvent::RoundEnd { .. } => TraceEvent::Counter {
                name: "frontier",
                value: 37.0,
            },
            TraceEvent::Counter { .. } => TraceEvent::Log {
                level: Level::Warn,
                message: "path \"a\\b\"\nnext\u{1}".into(),
            },
            TraceEvent::Log { .. } => TraceEvent::Shed {
                request_id: 4,
                reason: "queue-full",
            },
            TraceEvent::Shed { .. } => TraceEvent::Retry {
                round: 3,
                attempt: 1,
                wait_s: 0.125,
            },
            TraceEvent::Retry { .. } => TraceEvent::Commit {
                round: 3,
                store_version: 7,
            },
            TraceEvent::Commit { .. } => TraceEvent::BreakerTrip { round: 3, trips: 1 },
            TraceEvent::BreakerTrip { .. } => TraceEvent::Poison {
                round: 3,
                detail: "rank 0 out of memory: \"22560 B\"".into(),
            },
            TraceEvent::Poison { .. } => return None,
        })
    }

    /// One record per variant, `ts_us` counting from 10, all on tid 1.
    fn samples() -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = Vec::new();
        while let Some(event) = next_sample(out.last().map(|r| &r.event)) {
            out.push(TraceRecord {
                ts_us: 10 + out.len() as u64,
                tid: 1,
                event,
            });
        }
        out
    }

    #[test]
    fn tags_are_pairwise_distinct() {
        let mut tags: Vec<&str> = samples().iter().map(|r| r.event.tag()).collect();
        let n = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), n);
    }

    /// `record_to_json` of [`samples`], line for line: escaped strings,
    /// `rank: None`, infinite `deadline_s`/`budget_s`, an empty `ranks`.
    const JSONL_GOLDEN: &[&str] = &[
        r#"{"ts_us":10,"tid":1,"type":"collective","kind":"allgather","group":2,"seq":3,"bytes":1024,"msgs":3,"bytes_charged":2048,"modeled_s":1.5e-6,"ranks":[0,3]}"#,
        r#"{"ts_us":11,"tid":1,"type":"collective_issue","kind":"bcast","group":0,"seq":4,"bytes":64,"msgs":1,"bytes_charged":64,"modeled_s":2e-6,"handle":9,"ranks":[]}"#,
        r#"{"ts_us":12,"tid":1,"type":"collective_wait","handle":9}"#,
        r#"{"ts_us":13,"tid":1,"type":"compute","rank":2,"ops":1000,"modeled_s":1e-6}"#,
        r#"{"ts_us":14,"tid":1,"type":"backoff","seconds":0.5,"ranks":[0,1]}"#,
        r#"{"ts_us":15,"tid":1,"type":"shrink","failed":3,"p_before":8}"#,
        r#"{"ts_us":16,"tid":1,"type":"spgemm","plan":"2d(\"AB\",2x2)","m":4,"k":5,"n":6,"nnz_a":7,"nnz_b":8,"nnz_c":9,"ops":10}"#,
        r#"{"ts_us":17,"tid":1,"type":"redist","what":"blocks","bytes_moved":4096,"participants":4}"#,
        r#"{"ts_us":18,"tid":1,"type":"autotune","m":4,"k":4,"n":4,"nnz_a":9,"nnz_b":9,"winner":"2d(AB,2x2)","winner_cost_s":1.0,"candidates":[{"plan":"1d(A)","cost_s":2.0,"mem_bytes":100,"feasible":false},{"plan":"2d(AB,2x2)","cost_s":1.0,"mem_bytes":60,"feasible":true}]}"#,
        r#"{"ts_us":19,"tid":1,"type":"superstep","phase":"forward","batch":1,"step":2,"frontier_nnz":37,"active_rows":4}"#,
        r#"{"ts_us":20,"tid":1,"type":"pool","kernel":"spgemm","threads":2,"tasks":8,"busy_us":[10,12],"chunk_hist":[0,2,6]}"#,
        r#"{"ts_us":21,"tid":1,"type":"fault","kind":"transient","rank":null,"seq":5}"#,
        r#"{"ts_us":22,"tid":1,"type":"recovery","action":"replan","detail":"p=8->7\tplan=\"auto\"","wasted_s":0.25}"#,
        r#"{"ts_us":23,"tid":1,"type":"span_begin","name":"batch \\0"}"#,
        r#"{"ts_us":24,"tid":1,"type":"span_end","name":"batch \\0"}"#,
        r#"{"ts_us":25,"tid":1,"type":"request_admitted","request_id":17,"query":"topk","deadline_s":null,"queue_depth":3}"#,
        r#"{"ts_us":26,"tid":1,"type":"round_start","round":2,"requests":3,"budget_s":null,"store_version":5}"#,
        r#"{"ts_us":27,"tid":1,"type":"degrade_decision","round":2,"rung":"approx","reason":"budget","budget_s":1.5,"spent_s":1.25,"est_batch_s":0.5,"approx_k":16,"store_version":5}"#,
        r#"{"ts_us":28,"tid":1,"type":"round_end","round":2,"responses":3,"elapsed_s":1.25,"store_version":6}"#,
        r#"{"ts_us":29,"tid":1,"type":"counter","name":"frontier","value":37.0}"#,
        r#"{"ts_us":30,"tid":1,"type":"log","level":"warn","message":"path \"a\\b\"\nnext\u0001"}"#,
        r#"{"ts_us":31,"tid":1,"type":"shed","request_id":4,"reason":"queue-full"}"#,
        r#"{"ts_us":32,"tid":1,"type":"retry","round":3,"attempt":1,"wait_s":0.125}"#,
        r#"{"ts_us":33,"tid":1,"type":"commit","round":3,"store_version":7}"#,
        r#"{"ts_us":34,"tid":1,"type":"breaker_trip","round":3,"trips":1}"#,
        r#"{"ts_us":35,"tid":1,"type":"poison","round":3,"detail":"rank 0 out of memory: \"22560 B\""}"#,
    ];

    #[test]
    fn jsonl_matches_golden_byte_for_byte() {
        let lines: Vec<String> = samples().iter().map(record_to_json).collect();
        assert_eq!(lines, JSONL_GOLDEN);
        assert_eq!(crate::to_jsonl(&samples()), JSONL_GOLDEN.join("\n") + "\n");
    }

    /// Everything of `to_chrome_trace(samples())` but the `args`
    /// payloads: lane metadata, then each event's
    /// `name`/`cat`/`ph`/`ts`/`pid`/`tid`/`s`. Rank-attributed events
    /// fan out one instant per participant on `pid = rank + 1`; an
    /// empty `ranks` and `rank: None` stay on the stream lane; faults,
    /// recoveries, shrinks and degradations are global instants.
    const CHROME_HEADS: &[&str] = &[
        r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"stream"}}"#,
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rank 0"}}"#,
        r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"rank 1"}}"#,
        r#"{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"rank 2"}}"#,
        r#"{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"rank 3"}}"#,
        r#"{"name":"process_name","ph":"M","pid":5,"tid":0,"args":{"name":"rank 4"}}"#,
        r#"{"name":"process_name","ph":"M","pid":6,"tid":0,"args":{"name":"rank 5"}}"#,
        r#"{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"rank 6"}}"#,
        r#"{"name":"process_name","ph":"M","pid":8,"tid":0,"args":{"name":"rank 7"}}"#,
        r#"{"name":"allgather","cat":"collective","ph":"i","ts":10,"pid":1,"tid":0,"s":"t""#,
        r#"{"name":"allgather","cat":"collective","ph":"i","ts":10,"pid":4,"tid":0,"s":"t""#,
        r#"{"name":"bcast (issue)","cat":"collective","ph":"i","ts":11,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"wait","cat":"collective","ph":"i","ts":12,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"compute","cat":"compute","ph":"i","ts":13,"pid":3,"tid":0,"s":"t""#,
        r#"{"name":"backoff","cat":"backoff","ph":"i","ts":14,"pid":1,"tid":0,"s":"t""#,
        r#"{"name":"backoff","cat":"backoff","ph":"i","ts":14,"pid":2,"tid":0,"s":"t""#,
        r#"{"name":"shrink -rank3","cat":"fault","ph":"i","ts":15,"pid":0,"tid":0,"s":"g""#,
        r#"{"name":"spgemm 2d(\"AB\",2x2)","cat":"spgemm","ph":"i","ts":16,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"redist blocks","cat":"redist","ph":"i","ts":17,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"autotune -> 2d(AB,2x2)","cat":"autotune","ph":"i","ts":18,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"superstep forward","cat":"superstep","ph":"i","ts":19,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"pool spgemm","cat":"pool","ph":"i","ts":20,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"fault transient","cat":"fault","ph":"i","ts":21,"pid":0,"tid":0,"s":"g""#,
        r#"{"name":"recovery replan","cat":"recovery","ph":"i","ts":22,"pid":0,"tid":0,"s":"g""#,
        r#"{"name":"batch \\0","cat":"span","ph":"B","ts":23,"pid":0,"tid":1}"#,
        r#"{"name":"batch \\0","cat":"span","ph":"E","ts":24,"pid":0,"tid":1}"#,
        r#"{"name":"request 17 admitted","cat":"serve","ph":"i","ts":25,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"round 2 start","cat":"serve","ph":"i","ts":26,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"degrade -> approx","cat":"serve","ph":"i","ts":27,"pid":0,"tid":0,"s":"g""#,
        r#"{"name":"round 2 end","cat":"serve","ph":"i","ts":28,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"frontier","cat":"counter","ph":"C","ts":29,"pid":0,"tid":1"#,
        r#"{"name":"path \"a\\b\"\nnext\u0001","cat":"log","ph":"i","ts":30,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"shed","cat":"serve","ph":"i","ts":31,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"retry","cat":"serve","ph":"i","ts":32,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"commit","cat":"serve","ph":"i","ts":33,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"breaker_trip","cat":"serve","ph":"i","ts":34,"pid":0,"tid":0,"s":"t""#,
        r#"{"name":"poison","cat":"serve","ph":"i","ts":35,"pid":0,"tid":0,"s":"t""#,
    ];

    #[test]
    fn chrome_lanes_names_and_scopes_match_golden() {
        let text = to_chrome_trace(&samples());
        let body = text
            .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
            .and_then(|t| t.strip_suffix("\n]}\n"))
            .expect("chrome document frame");
        let heads: Vec<&str> = body
            .split(",\n")
            .map(|line| match line.find(",\"args\":") {
                Some(at) if !line.contains("\"ph\":\"M\"") => &line[..at],
                _ => line,
            })
            .collect();
        assert_eq!(heads, CHROME_HEADS);
        // The payload survives: counter tracks are keyed by name, and
        // the candidate table is a JSON array of objects.
        assert!(text.contains(",\"args\":{\"frontier\":37.0}}"));
        assert!(text.contains("\"candidates\":[{\"plan\":\"1d(A)\",\"cost_s\":2.0,\"mem_bytes\":100,\"feasible\":false},"));
        assert!(text.contains("\"bytes_charged\":2048"));
    }
}
