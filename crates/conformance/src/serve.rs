//! The serving-engine conformance case: seeded schedules of
//! interleaved queries, flush boundaries, and fault injections driven
//! through a live [`mfbc_serve::Engine`].
//!
//! The contract under test is the serve crate's robustness spine:
//!
//! * every admitted request is answered **exactly once**, across any
//!   interleaving of queries, coalesced flushes, and injected faults;
//! * every `Exact`-quality response is **bit-identical** to a one-shot
//!   `mfbc_dist` run on an identically configured machine (same fault
//!   schedule — the engine replays the same collective sequence, so
//!   even crash recovery lands on the same bits);
//! * degraded responses carry coherent tags (`Approx` sample size at
//!   least the configured minimum, `Stale` version never ahead of the
//!   store);
//! * the store converges: once the schedule ends, a bounded number of
//!   unbounded-deadline rounds reaches the complete exact scores.
//!
//! Shrinking moves toward a fault-free, single-request schedule first
//! — the easiest repro to read — then along the usual rank / thread /
//! graph dimensions.

use crate::case::CaseSpec;
use crate::gen;
use crate::rng::SplitMix64;
use mfbc_algebra::Dist;
use mfbc_core::{mfbc_dist, MfbcConfig};
use mfbc_fault::{FaultKind, FaultPlan, RetryPolicy, ScheduledFault};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_serve::{Admission, Engine, EngineConfig, Payload, Quality, Query, Request, Response};

/// What one scheduled request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeQuery {
    /// Full score vector.
    Full,
    /// Highest-`k` vertices.
    TopK(usize),
    /// One vertex (may fall out of range under graph shrinking, in
    /// which case admission sheds it — also part of the contract).
    Vertex(usize),
}

/// The deadline class a scheduled request carries. Classes rather
/// than raw seconds so the schedule stays meaningful as the graph and
/// machine shrink underneath it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDeadline {
    /// No budget limit: funds exact progress.
    Unbounded,
    /// About half of one exact batch: forces the degraded rungs.
    TightBatch,
    /// Zero budget: a stale-serving probe.
    Zero,
}

/// One step of a serve schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// Submit a request.
    Query {
        /// What it asks for.
        query: ServeQuery,
        /// Its budget class.
        deadline: ServeDeadline,
    },
    /// A flush boundary: drain the coalesced round.
    Flush,
}

/// A seeded serving scenario: a graph, a machine, a schedule of
/// interleaved queries and flushes, and an optional fault schedule.
#[derive(Clone, Debug)]
pub struct ServeCase {
    /// The seed this case was generated from (0 for hand-built cases).
    pub seed: u64,
    /// Vertex count.
    pub n: usize,
    /// Undirected edge list (duplicates and self-loops allowed).
    pub edges: Vec<(usize, usize, u64)>,
    /// Rank count.
    pub p: usize,
    /// Sources per exact batch (clamped to `1..=n`).
    pub batch: usize,
    /// Shared-memory pool size the engine runs under.
    pub threads: usize,
    /// The interleaved request/flush schedule.
    pub schedule: Vec<ServeOp>,
    /// Fault schedule injected into the machine (the one-shot oracle
    /// runs under the *same* schedule).
    pub faults: Vec<ScheduledFault>,
    /// Engine seed (backoff jitter, degraded-mode sampling).
    pub eseed: u64,
    /// The observability dimension: when set, the schedule is driven a
    /// second time under an installed trace recorder and an enabled
    /// flight recorder, and the response stream must stay
    /// bit-identical (observation must never perturb results). Drawn
    /// for a third of cases, and drawn *last* so seeds replay to the
    /// same case with it forced on or off.
    pub traced: bool,
}

/// Convergence rounds allowed after the schedule: enough for finite
/// transient budgets to exhaust and an open breaker to half-open and
/// probe (default cooldown 2), with slack.
const CONVERGE_ROUNDS: usize = 8;

impl ServeCase {
    /// Generates a fault-free case from `seed`, with ranks drawn from
    /// `ps`.
    pub fn generate(seed: u64, ps: &[usize]) -> ServeCase {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range(2, 22);
        let p = *rng.pick(ps);
        let wmax = if rng.chance(1, 3) { 6 } else { 1 };
        let targets = rng.below(3 * n) + 1;
        let edges = if rng.chance(1, 3) {
            gen::rmat(&mut rng, n, targets, wmax)
        } else {
            gen::erdos_renyi(&mut rng, n, targets, wmax)
        };
        let batch = 1 + rng.below(n);
        let threads = gen::THREAD_COUNTS[rng.below(gen::THREAD_COUNTS.len())];
        let ops = 1 + rng.below(11);
        let mut schedule = Vec::with_capacity(ops);
        for _ in 0..ops {
            if rng.chance(1, 4) {
                schedule.push(ServeOp::Flush);
            } else {
                let query = match rng.below(3) {
                    0 => ServeQuery::Full,
                    1 => ServeQuery::TopK(1 + rng.below(4)),
                    _ => ServeQuery::Vertex(rng.below(n)),
                };
                let deadline = match rng.below(3) {
                    0 => ServeDeadline::Unbounded,
                    1 => ServeDeadline::TightBatch,
                    _ => ServeDeadline::Zero,
                };
                schedule.push(ServeOp::Query { query, deadline });
            }
        }
        let eseed = rng.next_u64();
        // Drawn last: earlier fields replay identically for old seeds.
        let traced = rng.chance(1, 3);
        ServeCase {
            seed,
            n,
            edges,
            p,
            batch,
            threads,
            schedule,
            faults: Vec::new(),
            eseed,
            traced,
        }
    }

    /// Like [`ServeCase::generate`], plus a survivable fault schedule
    /// (one or two of {crash, transient, oom} at early collective
    /// sequence numbers, at most one crash, never a crash on a
    /// one-rank machine).
    pub fn generate_faulted(seed: u64, ps: &[usize]) -> ServeCase {
        let mut case = ServeCase::generate(seed, ps);
        let mut rng = SplitMix64::new(seed ^ 0x5e12_fa17);
        let count = 1 + rng.below(2);
        let mut crashed = false;
        for _ in 0..count {
            let at = rng.below(24) as u64;
            let kind = match rng.below(3) {
                0 if case.p >= 2 && !crashed => {
                    crashed = true;
                    FaultKind::Crash {
                        rank: rng.below(case.p),
                    }
                }
                1 => FaultKind::Transient {
                    recurrence: 1 + rng.below(4) as u32,
                },
                _ => FaultKind::Oom {
                    rank: rng.below(case.p),
                },
            };
            case.faults.push(ScheduledFault { at, kind });
        }
        case
    }

    fn graph(&self) -> Graph {
        Graph::new(
            self.n,
            false,
            self.edges.iter().map(|&(u, v, w)| (u, v, Dist::new(w))),
        )
    }

    fn config(&self) -> MfbcConfig {
        MfbcConfig {
            batch_size: Some(self.batch.clamp(1, self.n)),
            threads: Some(self.threads),
            ..MfbcConfig::default()
        }
    }

    fn machine(&self) -> Machine {
        if self.faults.is_empty() {
            Machine::new(MachineSpec::test(self.p))
        } else {
            Machine::with_faults(
                MachineSpec::test(self.p),
                FaultPlan {
                    faults: self.faults.clone(),
                },
                RetryPolicy::default(),
            )
        }
    }

    /// Checks one drained response against the bookkeeping and the
    /// one-shot oracle bits.
    fn check_response(
        &self,
        r: &Response,
        pending: &mut Vec<(u64, ServeQuery)>,
        oracle: &[f64],
        min_approx_k: usize,
    ) -> Result<(), String> {
        let Some(slot) = pending.iter().position(|&(id, _)| id == r.id) else {
            return Err(format!(
                "response for id {} which was never admitted (or already answered)",
                r.id
            ));
        };
        let (_, query) = pending.swap_remove(slot);
        match r.quality {
            Quality::Exact => {
                let check_bits = |got: f64, want: f64, what: &str| {
                    if got.to_bits() != want.to_bits() {
                        return Err(format!(
                            "id {}: exact {what} = {got:?} differs from one-shot {want:?} \
                             (exact responses must be bit-identical)",
                            r.id
                        ));
                    }
                    Ok(())
                };
                match (&r.payload, query) {
                    (Payload::Full(scores), ServeQuery::Full) => {
                        if scores.len() != oracle.len() {
                            return Err(format!(
                                "id {}: {} scores for an n={} graph",
                                r.id,
                                scores.len(),
                                oracle.len()
                            ));
                        }
                        for (v, (g, w)) in scores.iter().zip(oracle).enumerate() {
                            check_bits(*g, *w, &format!("λ[{v}]"))?;
                        }
                    }
                    (Payload::Vertex { v, score }, ServeQuery::Vertex(want_v)) => {
                        if *v != want_v {
                            return Err(format!("id {}: vertex {v} echoed for {want_v}", r.id));
                        }
                        check_bits(*score, oracle[*v], &format!("λ[{v}]"))?;
                    }
                    (Payload::TopK(pairs), ServeQuery::TopK(k)) => {
                        if pairs.len() != k.min(oracle.len()) {
                            return Err(format!(
                                "id {}: {} top-k pairs for k={k}",
                                r.id,
                                pairs.len()
                            ));
                        }
                        for &(v, score) in pairs {
                            check_bits(score, oracle[v], &format!("top-k λ[{v}]"))?;
                        }
                    }
                    (payload, query) => {
                        return Err(format!(
                            "id {}: payload {payload:?} does not answer {query:?}",
                            r.id
                        ));
                    }
                }
            }
            Quality::Approx { k, ci } => {
                if k < min_approx_k {
                    return Err(format!(
                        "id {}: approx sample {k} below the configured minimum {min_approx_k}",
                        r.id
                    ));
                }
                if !(ci > 0.0 && ci.is_finite()) {
                    return Err(format!("id {}: approx rel-SE tag {ci:?} is unusable", r.id));
                }
            }
            Quality::Stale { version } => {
                if version > r.version {
                    return Err(format!(
                        "id {}: stale version {version} ahead of store version {}",
                        r.id, r.version
                    ));
                }
            }
        }
        Ok(())
    }

    /// Drives the full schedule (plus convergence probes and the
    /// final warm-store query) through one engine, checking every
    /// response against `oracle`, and returns the rendered wire lines
    /// in order. `flight_capacity > 0` additionally enables the
    /// in-engine flight recorder, whose journey records must then
    /// cover every answered request.
    fn drive(&self, oracle: &[f64], flight_capacity: usize) -> Result<Vec<String>, String> {
        let cfg = self.config();
        let ecfg = EngineConfig {
            seed: self.eseed,
            flight_capacity,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(&self.machine(), self.graph(), &cfg, ecfg)
            .map_err(|e| format!("engine build: machine error: {e}"))?;
        let tight_s = engine.est_batch_modeled_s() * 0.5;

        let mut pending: Vec<(u64, ServeQuery)> = Vec::new();
        let mut lines: Vec<String> = Vec::new();
        let mut next_id = 0u64;
        for op in &self.schedule {
            match *op {
                ServeOp::Query { query, deadline } => {
                    let req = Request {
                        id: next_id,
                        query: match query {
                            ServeQuery::Full => Query::Full,
                            ServeQuery::TopK(k) => Query::TopK { k },
                            ServeQuery::Vertex(v) => Query::Vertex { v },
                        },
                        deadline_s: match deadline {
                            ServeDeadline::Unbounded => None,
                            ServeDeadline::TightBatch => Some(tight_s),
                            ServeDeadline::Zero => Some(0.0),
                        },
                    };
                    if engine.submit(req) == Admission::Admitted {
                        pending.push((next_id, query));
                    }
                    next_id += 1;
                }
                ServeOp::Flush => {
                    for r in engine.drain() {
                        self.check_response(&r, &mut pending, oracle, ecfg.min_approx_k)?;
                        lines.push(mfbc_serve::wire::render_response(&r));
                    }
                }
            }
        }
        // The schedule may end mid-round: the final drain must answer
        // everything still queued.
        for r in engine.drain() {
            self.check_response(&r, &mut pending, oracle, ecfg.min_approx_k)?;
            lines.push(mfbc_serve::wire::render_response(&r));
        }
        if !pending.is_empty() {
            return Err(format!(
                "admitted requests never answered after the final drain: {pending:?}"
            ));
        }

        // Convergence: unbounded rounds must reach the exact store in
        // bounded time (fault budgets are finite on this machine).
        let mut rounds = 0;
        while !engine.exact_complete() {
            rounds += 1;
            if rounds > CONVERGE_ROUNDS {
                return Err(format!(
                    "store not exact after {CONVERGE_ROUNDS} unbounded rounds \
                     (version {}, breaker {:?})",
                    engine.store_version(),
                    engine.breaker_state()
                ));
            }
            let id = u64::MAX - rounds as u64;
            if engine.submit(Request {
                id,
                query: Query::Full,
                deadline_s: None,
            }) != Admission::Admitted
            {
                return Err("empty queue refused an unbounded convergence probe".into());
            }
            pending.push((id, ServeQuery::Full));
            for r in engine.drain() {
                self.check_response(&r, &mut pending, oracle, ecfg.min_approx_k)?;
                lines.push(mfbc_serve::wire::render_response(&r));
            }
            if !pending.is_empty() {
                return Err(format!("convergence probe never answered: {pending:?}"));
            }
        }
        // And once exact, the served bits are the one-shot bits (the
        // per-response check above already compared them for the final
        // probe; re-assert through a fresh query for the warm-store
        // path).
        engine.submit(Request {
            id: u64::MAX,
            query: Query::Full,
            deadline_s: Some(0.0),
        });
        let warm = engine.drain();
        let Some(r) = warm.first() else {
            return Err("warm-store query got no response".into());
        };
        if r.quality != Quality::Exact {
            return Err(format!(
                "warm-store query served {:?} from a complete exact store",
                r.quality
            ));
        }
        lines.push(mfbc_serve::wire::render_response(r));
        let mut pending = vec![(u64::MAX, ServeQuery::Full)];
        self.check_response(r, &mut pending, oracle, ecfg.min_approx_k)?;

        if flight_capacity > 0 {
            let fr = engine
                .flight()
                .ok_or("flight_capacity > 0 but no recorder was enabled")?;
            let incomplete = fr.journeys().filter(|j| !j.complete).count();
            if incomplete > 0 {
                return Err(format!(
                    "{incomplete} journey record(s) never completed even though \
                     every admitted request was answered"
                ));
            }
            if fr.journeys().count() != lines.len() {
                return Err(format!(
                    "{} journey records for {} responses (capacity {flight_capacity} \
                     should hold them all)",
                    fr.journeys().count(),
                    lines.len()
                ));
            }
        }
        Ok(lines)
    }
}

impl CaseSpec for ServeCase {
    fn check(&self) -> Result<(), String> {
        // The bit-identity oracle: one-shot `mfbc_dist` under the same
        // machine spec and fault schedule.
        let one_shot = mfbc_dist(&self.machine(), &self.graph(), &self.config())
            .map_err(|e| format!("one-shot oracle: machine error: {e}"))?;
        let oracle = &one_shot.scores.lambda;

        let base = self.drive(oracle, 0)?;
        if self.traced {
            // The observability dimension: the same schedule under an
            // installed trace recorder and an enabled flight recorder
            // must produce the same bytes on the wire.
            let rec = std::sync::Arc::new(mfbc_trace::MemoryRecorder::new());
            let observed = mfbc_trace::scoped(rec.clone(), || self.drive(oracle, 64))?;
            if observed != base {
                let diverged = base
                    .iter()
                    .zip(&observed)
                    .position(|(a, b)| a != b)
                    .map_or_else(
                        || format!("line count {} vs {}", base.len(), observed.len()),
                        |i| format!("first divergence at line {i}"),
                    );
                return Err(format!(
                    "tracing + flight recording perturbed the response stream ({diverged})"
                ));
            }
            if rec.is_empty() {
                return Err("observed run recorded no trace events".into());
            }
        }
        Ok(())
    }

    fn size(&self) -> usize {
        self.edges.len()
            + self.n
            + self.p
            + self.threads
            + self.schedule.len()
            + self.faults.len()
            + usize::from(self.traced)
    }

    fn shrink_candidates(&self) -> Vec<ServeCase> {
        let mut out = Vec::new();
        // Toward untraced first: a failure that survives without the
        // observability re-run is an ordinary serving bug, and the
        // repro no longer needs the double drive.
        if self.traced {
            out.push(ServeCase {
                traced: false,
                ..self.clone()
            });
        }
        // Toward fault-free next: a failure that survives without the
        // schedule is an ordinary serving bug, the easiest to read.
        if !self.faults.is_empty() {
            out.push(ServeCase {
                faults: Vec::new(),
                ..self.clone()
            });
            for skip in 0..self.faults.len() {
                let mut c = self.clone();
                c.faults.remove(skip);
                out.push(c);
            }
        }
        // Toward a single-request schedule next.
        if self.schedule.len() > 1 {
            for keep in crate::case::chunk_reductions(self.schedule.len()) {
                let mut c = self.clone();
                c.schedule = keep.iter().map(|&i| self.schedule[i]).collect();
                out.push(c);
            }
        }
        for &q in gen::P_ALL.iter().filter(|&&q| q < self.p) {
            out.push(ServeCase {
                p: q,
                faults: crate::case::faults_for_p(&self.faults, q),
                ..self.clone()
            });
        }
        for &t in gen::THREAD_COUNTS.iter().filter(|&&t| t < self.threads) {
            out.push(ServeCase {
                threads: t,
                ..self.clone()
            });
        }
        for keep in crate::case::chunk_reductions(self.edges.len()) {
            let mut c = self.clone();
            c.edges = keep.iter().map(|&i| self.edges[i]).collect();
            out.push(c);
        }
        if self.n > 2 {
            let n = (self.n / 2).max(2);
            let mut c = self.clone();
            c.n = n;
            c.edges.retain(|&(u, v, _)| u < n && v < n);
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ServeCase::generate_faulted(42, &gen::P_ALL);
        let b = ServeCase::generate_faulted(42, &gen::P_ALL);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn shrink_moves_toward_fault_free_single_request_first() {
        let mut c = ServeCase::generate(5, &[4]);
        c.traced = false;
        c.faults = vec![ScheduledFault {
            at: 3,
            kind: FaultKind::Transient { recurrence: 1 },
        }];
        let cands = c.shrink_candidates();
        assert!(
            cands[0].faults.is_empty(),
            "first candidate drops the whole fault schedule"
        );
        assert!(cands
            .iter()
            .any(|cand| cand.schedule.len() < c.schedule.len()));
    }

    #[test]
    fn shrink_drops_the_observability_dimension_first() {
        let mut c = ServeCase::generate(5, &[4]);
        c.traced = true;
        let cands = c.shrink_candidates();
        assert!(!cands[0].traced, "first candidate turns tracing off");
        assert!(
            cands[0].size() < c.size(),
            "untraced must be strictly smaller or the shrinker refuses it"
        );
    }

    #[test]
    fn small_case_passes() {
        let c = ServeCase::generate(9, &[2]);
        c.check().unwrap();
    }

    #[test]
    fn small_traced_case_passes() {
        let mut c = ServeCase::generate(9, &[2]);
        c.traced = true;
        c.check().unwrap();
    }
}
