//! Distributed MFBC over the simulated machine — the paper's two
//! parallel implementations (§6):
//!
//! * **CTF-MFBC** ([`PlanMode::Auto`]): every generalized matrix
//!   multiplication is planned by the autotuner, which searches data
//!   decompositions and 1D/2D/3D algorithm variants per operation;
//! * **CA-MFBC** ([`PlanMode::Ca`]): the fixed 3D processor grid of
//!   Theorem 5.1 — the adjacency matrix replicated over `c` layers
//!   (1D variant B), each layer running the stationary-adjacency 2D
//!   variant (AC) on a `√(p/c) × √(p/c)` grid;
//! * [`PlanMode::Fixed`] pins one explicit plan for every product
//!   (used by the ablation benchmarks).
//!
//! The algorithm itself is [`crate::sweep`] on [`Simulated`] (which
//! does all the charging), the code `seq` runs on one rank. What
//! this module adds is what only a machine needs: plan resolution,
//! the resumable [`MfbcSession`], and its batch-boundary checkpoint /
//! rollback / shrink-and-replan recovery.

use crate::backend::Simulated;
use crate::scores::BcScores;
use crate::sweep::batch;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_tensor::cache::CacheStats;
use mfbc_tensor::{MmPlan, Variant1D, Variant2D};

/// How multiplication plans are chosen.
#[derive(Clone, Debug)]
pub enum PlanMode {
    /// CTF-MFBC: autotune every product.
    Auto,
    /// CA-MFBC: the Theorem-5.1 grid with `c` adjacency replicas;
    /// requires `p/c` to be a perfect square.
    Ca {
        /// Replication factor `c ∈ [1, p]`.
        c: usize,
    },
    /// One fixed plan for every product.
    Fixed(MmPlan),
}

impl PlanMode {
    fn plan_for(&self, m: &Machine) -> Result<Option<MmPlan>, MachineError> {
        match self {
            PlanMode::Auto => Ok(None),
            PlanMode::Ca { c } => ca_plan(m.p(), *c).map(Some),
            PlanMode::Fixed(plan) => Ok(Some(plan.clone())),
        }
    }
}

/// The CA-MFBC plan: `p1 = c` layers replicating the (right-operand)
/// adjacency, inner 2D stationary-adjacency on `√(p/c) × √(p/c)`.
///
/// # Errors
/// Returns [`MachineError::InvalidConfig`] unless `c` divides `p` and
/// `p/c` is a perfect square — `c` comes straight from user
/// configuration (`--c`), so a bad value must surface as a message,
/// not a panic.
pub fn ca_plan(p: usize, c: usize) -> Result<MmPlan, MachineError> {
    if c < 1 || !p.is_multiple_of(c) {
        return Err(MachineError::invalid(format!(
            "replication factor c={c} must be in [1, p] and divide p={p}"
        )));
    }
    let layer = p / c;
    let r = (layer as f64).sqrt().round() as usize;
    if r * r != layer {
        return Err(MachineError::invalid(format!(
            "CA-MFBC needs p/c to be a perfect square, got p/c = {layer} (p={p}, c={c})"
        )));
    }
    if c == 1 {
        if r == 1 {
            return Ok(MmPlan::OneD(Variant1D::A));
        }
        return Ok(MmPlan::TwoD {
            variant: Variant2D::AC,
            p2: r,
            p3: r,
        });
    }
    Ok(MmPlan::ThreeD {
        split: Variant1D::B,
        inner: Variant2D::AC,
        p1: c,
        p2: r,
        p3: r,
    })
}

/// Configuration of a distributed MFBC run.
#[derive(Clone, Debug)]
pub struct MfbcConfig {
    /// Sources per batch (`n_b`); `None` chooses `min(n, 512)`, the
    /// batch size the paper's Table 3 uses.
    pub batch_size: Option<usize>,
    /// Plan selection mode.
    pub plan_mode: PlanMode,
    /// Cap on processed batches (benchmarks measure a single batch,
    /// as the paper's Table 3 does). `None` runs all `⌈n/n_b⌉`.
    pub max_batches: Option<usize>,
    /// Whether to amortize the adjacency's replication/redistribution
    /// across iterations and batches (Theorem 5.1's derivation;
    /// default true). `false` re-pays the preparation on every
    /// product — the ablation baseline.
    pub amortize_adjacency: bool,
    /// Source vertices to process; `None` means all of `0..n` (exact
    /// BC). An explicit subset computes the partial sums
    /// `Σ_{s ∈ S} δ(s, ·)` — the building block of sampled
    /// approximation (see [`crate::approx`]).
    pub sources: Option<Vec<usize>>,
    /// Shared-memory threads for the local kernels (`mfbc-parallel`
    /// pool size). `None` uses the process default (`MFBC_THREADS`
    /// env, else available parallelism). Results are bit-identical at
    /// any value.
    pub threads: Option<usize>,
    /// Whether the sweeps run under output masks (default true):
    /// forward frontier expansion under the complement of `Numsp`'s
    /// pattern, pruning elementary products into already-discovered
    /// vertices before they are formed, and back-propagation under
    /// the entries of `Z` still pending. Only applied on unit-weighted
    /// graphs, where a rediscovery can never improve a settled
    /// distance, so the masked run is score-bit-identical to the
    /// unmasked one; on weighted graphs the flag is ignored.
    pub masked: bool,
}

impl Default for MfbcConfig {
    fn default() -> MfbcConfig {
        MfbcConfig {
            batch_size: None,
            plan_mode: PlanMode::Auto,
            max_batches: None,
            amortize_adjacency: true,
            sources: None,
            threads: None,
            masked: true,
        }
    }
}

impl MfbcConfig {
    /// A config that pins every product to one explicit `plan` —
    /// the conformance harness's way of forcing a specific variant
    /// through the whole driver instead of going through autotune.
    pub fn fixed(plan: mfbc_tensor::MmPlan) -> MfbcConfig {
        MfbcConfig {
            plan_mode: PlanMode::Fixed(plan),
            ..MfbcConfig::default()
        }
    }

    /// A config using the CA-MFBC fixed 3D grid with replication `c`.
    pub fn ca(c: usize) -> MfbcConfig {
        MfbcConfig {
            plan_mode: PlanMode::Ca { c },
            ..MfbcConfig::default()
        }
    }

    /// Sets the per-batch source count, returning `self` for chaining.
    #[must_use]
    pub fn with_batch_size(mut self, nb: usize) -> MfbcConfig {
        self.batch_size = Some(nb);
        self
    }

    /// Sets the shared-memory thread count for the local kernels,
    /// returning `self` for chaining.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> MfbcConfig {
        self.threads = Some(threads);
        self
    }

    /// Enables or disables the complement-of-`Numsp` output mask on
    /// forward expansion, returning `self` for chaining.
    #[must_use]
    pub fn with_masked(mut self, masked: bool) -> MfbcConfig {
        self.masked = masked;
        self
    }
}

/// What the driver did to survive injected or modeled failures.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Faults the machine injected during the run.
    pub faults_injected: u64,
    /// In-place collective retries performed by the machine itself
    /// (transient faults absorbed below the driver).
    pub collective_retries: u64,
    /// Whole-batch restarts from a checkpoint (transient overflow or
    /// OOM at the minimum batch size).
    pub batch_retries: u64,
    /// Rank-crash recoveries: shrink to the survivors and replan.
    pub replans: u64,
    /// Checkpoint restorations (every recovery path restores one).
    pub checkpoints_restored: u64,
    /// OOM retreats that halved the batch size.
    pub oom_halvings: u64,
    /// Modeled seconds spent on work that was rolled back.
    pub wasted_modeled_s: f64,
    /// Ranks still alive at the end of the run.
    pub final_p: usize,
}

impl RecoveryStats {
    /// Whether anything at all went wrong (and was survived).
    pub fn any(&self) -> bool {
        self.faults_injected > 0 || self.checkpoints_restored > 0 || self.collective_retries > 0
    }
}

/// Statistics and result of a distributed MFBC run.
#[derive(Clone, Debug)]
pub struct MfbcRun {
    /// Accumulated centrality scores (exact if every batch ran).
    pub scores: BcScores,
    /// Batches processed.
    pub batches: usize,
    /// Sources actually processed (for TEPS accounting).
    pub sources_processed: usize,
    /// Total forward iterations.
    pub forward_iterations: usize,
    /// Total backward iterations.
    pub backward_iterations: usize,
    /// `Σ nnz(Fᵢ)` over forward frontiers.
    pub frontier_nnz: u64,
    /// Total kernel applications.
    pub ops: u64,
    /// Final cost report. After a crash recovery the driver runs on a
    /// *shrunk* machine whose tracker the caller's handle no longer
    /// sees, so consumers must read costs from here, not from the
    /// machine they passed in.
    pub report: mfbc_machine::cost::CostReport,
    /// Per-rank memory high-water marks in bytes, read from the final
    /// machine (after a crash recovery: the shrunk one, so the length
    /// is [`RecoveryStats::final_p`], not the starting rank count).
    /// Each entry is a monotone upper bound on every `memory_snapshot`
    /// the run ever took for that rank.
    pub peak_bytes: Vec<u64>,
    /// Fault-and-recovery accounting for the run.
    pub recovery: RecoveryStats,
}

/// Bound on checkpoint restarts of one batch (transient overflow or
/// OOM at the minimum batch size). With the machine's own in-place
/// retry underneath, this covers any recurrence the conformance
/// schedules generate; a longer-lived failure surfaces as the typed
/// error after the budget is spent.
const MAX_BATCH_RETRIES: u32 = 8;

/// Runs distributed MFBC on `machine`.
///
/// When [`MfbcConfig::threads`] is set, every batch executes under an
/// `mfbc_parallel::with_threads` override, sizing every local
/// kernel's pool; results are bit-identical at any thread count.
///
/// # Fault tolerance
/// The driver checkpoints scores and batch progress at every batch
/// boundary. A failed collective restarts the batch from the
/// checkpoint (bounded retries); a rank crash shrinks the machine to
/// the survivors and replans every remaining product with the
/// autotuner; an out-of-memory failure halves the batch size and
/// resumes. Transient and OOM recovery never change the machine
/// shape, so their recovered scores are *bit-identical* to a
/// fault-free run: a halved batch moves sources onto other rows of
/// each product's output grid, and every plan sums an output entry's
/// terms in an order set by its k cuts alone. Crash recovery finishes
/// the run on a smaller machine whose plans group floating-point
/// accumulations differently, so its scores match a fault-free run to
/// accumulation-order tolerance (and exactly when the dependency
/// values are dyadic). [`RecoveryStats`] records what happened. After a crash
/// the caller's machine handle no longer tracks the run — read
/// [`MfbcRun::report`] instead.
///
/// # Errors
/// Propagates simulated out-of-memory failures that survive the
/// batch-size retreat, collective failures that outlive the retry
/// budget, and invalid plan configuration.
pub fn mfbc_dist(machine: &Machine, g: &Graph, cfg: &MfbcConfig) -> Result<MfbcRun, MachineError> {
    let mut session = MfbcSession::new(machine, g, cfg)?;
    // One-shot semantics: any error ends the run, and dropping the
    // session releases its resident state (a long-lived caller may
    // instead keep the session and retry the step — see
    // `MfbcSession::step`).
    while session.step()? != SessionStep::Done {}
    Ok(session.finish())
}

/// What one [`MfbcSession::step`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStep {
    /// One batch committed; `sources` of them were newly processed.
    Committed {
        /// Sources processed by the committed batch.
        sources: usize,
    },
    /// Nothing left to do: every requested source is processed, or
    /// the configured `max_batches` cap is reached.
    Done,
}

/// A resumable distributed MFBC computation: the batched driver loop
/// of [`mfbc_dist`], opened up so a long-lived caller (the
/// `mfbc-serve` engine) can advance it one committed batch at a time
/// while keeping the machine, the distributed adjacency, and the
/// prepared-adjacency caches warm between requests.
///
/// Invariants:
///
/// * Driving a session to completion with repeated [`step`] calls is
///   *the same code path* as [`mfbc_dist`] — the scores after `k`
///   committed batches are bit-identical to a one-shot run's partial
///   sums after the same `k` batches, and the final [`finish`] run
///   equals the one-shot [`MfbcRun`] field for field.
/// * A step that fails with a *retryable* error ([`MachineError::
///   CollectiveFailed`], or [`MachineError::OutOfMemory`] at the
///   minimum batch size) rolls back to the batch-boundary checkpoint
///   and leaves the session coherent: the caller may call [`step`]
///   again later (after its own backoff) and the retry resumes at the
///   same cursor. Unrecoverable errors (a crash on the last rank,
///   invalid configuration) poison the session: its resident state is
///   released and every later [`step`] fails fast.
/// * Crash faults are absorbed *inside* [`step`] by the shrink/replan
///   path, exactly as in the one-shot driver; the caller observes the
///   new rank count via [`machine`](MfbcSession::machine).
///
/// [`step`]: MfbcSession::step
/// [`finish`]: MfbcSession::finish
pub struct MfbcSession {
    g: Graph,
    cfg: MfbcConfig,
    /// The machine (a crash recovery swaps in the shrunk one), the
    /// resident adjacency, the plan and the prepared-adjacency caches.
    be: Simulated,
    /// Current batch size; the OOM retreat halves it.
    nb: usize,
    /// Counts folded in from caches retired by a crash replan, so
    /// [`cache_stats`](MfbcSession::cache_stats) spans cache
    /// generations.
    retired_cache_stats: CacheStats,
    run: MfbcRun,
    recovery: RecoveryStats,
    sources: Vec<usize>,
    /// Batch cursor over `sources`; advances only when a batch
    /// commits, so every recovery resumes exactly where it left off.
    cursor: usize,
    poisoned: bool,
}

/// The backend a session runs on: `g` resident on `m`, masked where
/// the configuration asks for it and the graph allows it.
fn backend(
    m: &Machine,
    g: &Graph,
    cfg: &MfbcConfig,
    plan: Option<MmPlan>,
) -> Result<Simulated, MachineError> {
    let masked = cfg.masked && g.is_unit_weighted();
    Simulated::new(m, g, plan, cfg.amortize_adjacency, masked)
}

impl MfbcSession {
    /// Opens a session: distributes the adjacency and its transpose
    /// on `machine` (resident until [`finish`](MfbcSession::finish)
    /// or drop) and resolves the plan mode.
    ///
    /// # Errors
    /// Propagates memory-budget failures from charging the adjacency
    /// and invalid plan configuration.
    ///
    /// # Panics
    /// Panics if an explicit [`MfbcConfig::sources`] entry is out of
    /// range — same contract as [`mfbc_dist`].
    pub fn new(
        machine: &Machine,
        g: &Graph,
        cfg: &MfbcConfig,
    ) -> Result<MfbcSession, MachineError> {
        let n = g.n();
        let nb = cfg.batch_size.unwrap_or_else(|| n.min(512)).max(1);
        let plan = cfg.plan_mode.plan_for(machine)?;
        let sources: Vec<usize> = match &cfg.sources {
            Some(s) => {
                for &v in s {
                    assert!(v < n, "source {v} out of range for n={n}");
                }
                s.clone()
            }
            None => (0..n).collect(),
        };
        Ok(MfbcSession {
            g: g.clone(),
            cfg: cfg.clone(),
            be: backend(machine, g, cfg, plan)?,
            nb,
            retired_cache_stats: CacheStats::default(),
            run: MfbcRun {
                scores: BcScores::zeros(n),
                batches: 0,
                sources_processed: 0,
                forward_iterations: 0,
                backward_iterations: 0,
                frontier_nnz: 0,
                ops: 0,
                report: Default::default(),
                peak_bytes: Vec::new(),
                recovery: RecoveryStats::default(),
            },
            recovery: RecoveryStats::default(),
            sources,
            cursor: 0,
            poisoned: false,
        })
    }

    /// Commits the next batch (or reports [`SessionStep::Done`]).
    ///
    /// When [`MfbcConfig::threads`] is set the step runs under an
    /// `mfbc_parallel::with_threads` override.
    ///
    /// # Errors
    /// Retryable errors (`CollectiveFailed` past the per-step retry
    /// budget, `OutOfMemory` at `nb = 1`) leave the session rolled
    /// back to the batch boundary, ready for a later retry.
    /// Unrecoverable errors poison the session (see
    /// [`poisoned`](MfbcSession::poisoned)).
    pub fn step(&mut self) -> Result<SessionStep, MachineError> {
        if self.be.closed() {
            return Err(MachineError::invalid(
                "MFBC session is poisoned (resident state already released)",
            ));
        }
        if self.cursor >= self.sources.len() {
            return Ok(SessionStep::Done);
        }
        if let Some(max) = self.cfg.max_batches {
            if self.run.batches >= max {
                return Ok(SessionStep::Done);
            }
        }
        match self.cfg.threads {
            Some(t) => mfbc_parallel::with_threads(t, || self.step_inner()),
            None => self.step_inner(),
        }
    }

    fn step_inner(&mut self) -> Result<SessionStep, MachineError> {
        'batches: loop {
            // ---- checkpoint (batch boundary) ----
            // Scores + progress are cloned; the memory meter and the
            // set of cached adjacency forms are snapshotted so a
            // rollback can discard mid-batch allocations and cache
            // entries without double-counting.
            let snapshot = self.be.m.memory_snapshot();
            let cache_keys = self.be.cache_keys();
            let run_ckpt = self.run.clone();
            let mut batch_attempts = 0u32;
            loop {
                let end = (self.cursor + self.nb).min(self.sources.len());
                let chunk = &self.sources[self.cursor..end];
                let started_s = self.be.m.report().critical.total_time();
                let _span = mfbc_trace::span(|| format!("batch {}", self.run.batches));
                self.be.batch = self.run.batches;
                match batch(&mut self.be, &self.g, chunk, &mut self.run.scores.lambda) {
                    Ok((fwd, back)) => {
                        let committed = chunk.len();
                        self.run.forward_iterations += fwd.iterations;
                        self.run.backward_iterations += back.iterations;
                        self.run.frontier_nnz += fwd.frontier_nnz;
                        self.run.ops += fwd.ops + back.ops;
                        self.run.batches += 1;
                        self.run.sources_processed += committed;
                        self.cursor = end;
                        return Ok(SessionStep::Committed { sources: committed });
                    }
                    Err(e) => {
                        // Roll back to the checkpoint. Modeled time is
                        // *not* rolled back: the failed attempt's seconds
                        // stay on the clock and are reported as waste.
                        // Its in-flight collectives are abandoned, never
                        // waited.
                        let wasted = self.be.m.report().critical.total_time() - started_s;
                        self.recovery.wasted_modeled_s += wasted;
                        self.recovery.checkpoints_restored += 1;
                        self.run = run_ckpt.clone();
                        self.be.m.abort_pending();
                        self.be.m.restore_memory(&snapshot);
                        self.be.discard_cached_except(&cache_keys);
                        match e {
                            MachineError::CollectiveFailed { .. } => {
                                batch_attempts += 1;
                                if batch_attempts > MAX_BATCH_RETRIES {
                                    // Retryable: the checkpoint is
                                    // restored, state stays resident —
                                    // a long-lived caller may back off
                                    // and step again.
                                    return Err(e);
                                }
                                self.recovery.batch_retries += 1;
                                mfbc_trace::emit(|| mfbc_trace::TraceEvent::Recovery {
                                    action: "retry-batch",
                                    detail: format!("attempt {batch_attempts}: {e}"),
                                    wasted_s: wasted,
                                });
                            }
                            MachineError::RankFailed { rank, .. } => {
                                // Graceful degradation: release everything
                                // from the dead configuration, shrink to
                                // the survivors, rebuild the distributed
                                // state (the canonical layout depends on
                                // p), and let the autotuner replan for the
                                // smaller machine. A failure before the
                                // rebuild succeeds finds nothing resident
                                // to release again.
                                self.be.close();
                                let old_p = self.be.m.p();
                                self.be.m = match self.be.m.shrink(rank) {
                                    Ok(m) => m,
                                    Err(e) => return Err(self.poison(e)),
                                };
                                match backend(&self.be.m, &self.g, &self.cfg, None) {
                                    Ok(be) => {
                                        // Fold the retired caches' activity
                                        // in before replacing them (their
                                        // release already counted the
                                        // evictions).
                                        self.retired_cache_stats.absorb(self.be.cache_stats());
                                        self.be = be;
                                    }
                                    Err(e) => return Err(self.poison(e)),
                                }
                                self.recovery.replans += 1;
                                mfbc_trace::emit(|| mfbc_trace::TraceEvent::Recovery {
                                    action: "replan",
                                    detail: format!("p={old_p}->{} plan=auto", self.be.m.p()),
                                    wasted_s: wasted,
                                });
                                // The snapshot predates the shrink (wrong
                                // rank count) — take a fresh checkpoint.
                                continue 'batches;
                            }
                            MachineError::OutOfMemory { .. } if self.nb > 1 => {
                                self.nb /= 2;
                                self.recovery.oom_halvings += 1;
                                mfbc_trace::emit(|| mfbc_trace::TraceEvent::Recovery {
                                    action: "shrink-batch",
                                    detail: format!("nb={}", self.nb),
                                    wasted_s: wasted,
                                });
                                continue 'batches;
                            }
                            MachineError::OutOfMemory { .. } => {
                                // Already at nb = 1: retry in place — an
                                // injected OOM fault has been consumed and
                                // will not re-fire; a real capacity limit
                                // exhausts the budget and propagates.
                                batch_attempts += 1;
                                if batch_attempts > MAX_BATCH_RETRIES {
                                    // Retryable, like CollectiveFailed.
                                    return Err(e);
                                }
                                self.recovery.batch_retries += 1;
                                mfbc_trace::emit(|| mfbc_trace::TraceEvent::Recovery {
                                    action: "retry-batch",
                                    detail: format!("attempt {batch_attempts}: {e}"),
                                    wasted_s: wasted,
                                });
                            }
                            other => return Err(self.poison(other)),
                        }
                    }
                }
            }
        }
    }

    /// Marks the session unusable after an unrecoverable error and
    /// releases its resident state so the memory meter balances.
    fn poison(&mut self, e: MachineError) -> MachineError {
        self.poisoned = true;
        self.be.close();
        e
    }

    /// Whether an unrecoverable error has poisoned the session: its
    /// state is released and every later [`step`](MfbcSession::step)
    /// fails fast. A long-lived server maps this to "not ready".
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The machine the session currently runs on — after a crash
    /// recovery, the shrunk one.
    pub fn machine(&self) -> &Machine {
        &self.be.m
    }

    /// The partial (or, once [`MfbcSession::remaining_sources`] is 0,
    /// exact) accumulated scores: the sums
    /// `Σ δ(s,·)` over every source committed so far, bit-identical
    /// to a one-shot run's accumulator at the same batch count.
    pub fn scores(&self) -> &BcScores {
        &self.run.scores
    }

    /// Batches committed so far.
    pub fn batches(&self) -> usize {
        self.run.batches
    }

    /// Prepared-adjacency cache activity over the whole session,
    /// spanning cache generations retired by crash replans.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = self.retired_cache_stats;
        total.absorb(self.be.cache_stats());
        total
    }

    /// Sources committed so far.
    pub fn sources_processed(&self) -> usize {
        self.run.sources_processed
    }

    /// Sources not yet committed.
    pub fn remaining_sources(&self) -> usize {
        self.sources.len() - self.cursor
    }

    /// The current batch size (after any OOM halvings).
    pub fn batch_size(&self) -> usize {
        self.nb
    }

    /// Driver-level recovery accounting so far (the machine-side
    /// fields are filled in by [`finish`](MfbcSession::finish)).
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Releases the resident state and assembles the final
    /// [`MfbcRun`], exactly as the one-shot driver does on the way
    /// out. Idempotent in effect; the session is unusable afterwards.
    pub fn finish(&mut self) -> MfbcRun {
        self.be.close();
        let m = &self.be.m;
        let stats = m.fault_stats();
        let mut recovery = self.recovery.clone();
        recovery.faults_injected = stats.faults_injected;
        recovery.collective_retries = stats.retries;
        recovery.final_p = m.p();
        let mut run = self.run.clone();
        run.report = m.report();
        run.peak_bytes = m.memory_peaks();
        run.recovery = recovery;
        run
    }
}

impl Drop for MfbcSession {
    fn drop(&mut self) {
        self.be.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::brandes_unweighted;
    use mfbc_machine::MachineSpec;

    #[test]
    fn dist_matches_oracle_small() {
        let g = Graph::unweighted(
            6,
            false,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)],
        );
        let want = brandes_unweighted(&g);
        for p in [1usize, 4] {
            let machine = Machine::new(MachineSpec::test(p));
            let run = mfbc_dist(&machine, &g, &MfbcConfig::default()).unwrap();
            assert!(
                run.scores.approx_eq(&want, 1e-9),
                "p={p}: {:?} vs {:?}",
                run.scores.lambda,
                want.lambda
            );
        }
    }

    #[test]
    fn run_carries_memory_peaks() {
        let g = Graph::unweighted(
            6,
            false,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)],
        );
        let machine = Machine::new(MachineSpec::test(4));
        let run = mfbc_dist(&machine, &g, &MfbcConfig::default()).unwrap();
        assert_eq!(run.peak_bytes.len(), run.recovery.final_p);
        assert!(
            run.peak_bytes.iter().any(|&b| b > 0),
            "a run that distributed an adjacency must have touched memory"
        );
        // End-of-run state: everything released, yet the high-water
        // marks match the machine's own peak meters.
        let snap = machine.memory_snapshot();
        for (r, &peak) in run.peak_bytes.iter().enumerate() {
            assert_eq!(snap.resident()[r], 0, "rank {r} left charged");
            assert_eq!(peak, snap.peak()[r]);
        }
    }

    #[test]
    fn ca_plan_shapes() {
        assert_eq!(ca_plan(1, 1).unwrap(), MmPlan::OneD(Variant1D::A));
        assert_eq!(
            ca_plan(16, 4).unwrap(),
            MmPlan::ThreeD {
                split: Variant1D::B,
                inner: Variant2D::AC,
                p1: 4,
                p2: 2,
                p3: 2
            }
        );
        assert_eq!(
            ca_plan(16, 1).unwrap(),
            MmPlan::TwoD {
                variant: Variant2D::AC,
                p2: 4,
                p3: 4
            }
        );
    }

    #[test]
    fn ca_plan_rejects_bad_configs() {
        // p/c = 2 is not a perfect square.
        assert!(matches!(
            ca_plan(8, 4),
            Err(MachineError::InvalidConfig { .. })
        ));
        // c does not divide p.
        assert!(matches!(
            ca_plan(8, 3),
            Err(MachineError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ca_plan(8, 0),
            Err(MachineError::InvalidConfig { .. })
        ));
    }

    fn ladder() -> Graph {
        Graph::unweighted(
            8,
            false,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (1, 5),
                (2, 6),
            ],
        )
    }

    fn faulted_run(p: usize, spec: &str, cfg: MfbcConfig) -> (MfbcRun, MfbcRun) {
        use mfbc_machine::{FaultPlan, MachineSpec, RetryPolicy};
        let g = ladder();
        let clean = mfbc_dist(&Machine::new(MachineSpec::test(p)), &g, &cfg).unwrap();
        let plan = FaultPlan::parse(spec).unwrap();
        let m = Machine::with_faults(MachineSpec::test(p), plan, RetryPolicy::default());
        let faulted = mfbc_dist(&m, &g, &cfg).unwrap();
        (clean, faulted)
    }

    #[test]
    fn masked_forward_is_bit_identical_and_cheaper() {
        use crate::sweep::{backward, forward};
        let g = ladder();
        // The sequential machine, whose one-block tables are visible
        // whole.
        let sources: Vec<usize> = (0..g.n()).collect();
        let sequential = |masked: bool| {
            let mut be = Simulated::one_rank(&g, masked);
            let (t, fwd) = forward(&mut be, &g, &sources).unwrap();
            let (z, back) = backward(&mut be, &t).unwrap();
            (t.into_block(), z.into_block(), fwd.ops + back.ops)
        };
        let ((ut, uz, uops), (mt, mz, mops)) = (sequential(false), sequential(true));
        assert_eq!(ut.first_difference(&mt), None, "masking changed T");
        assert_eq!(uz.first_difference(&mz), None, "masking changed Z");
        assert!(mops < uops, "sequential: masked {mops} !< unmasked {uops}");
        for p in [1usize, 4] {
            let run_with = |masked: bool| {
                let m = Machine::new(MachineSpec::test(p));
                mfbc_dist(&m, &g, &MfbcConfig::default().with_masked(masked)).unwrap()
            };
            let unmasked = run_with(false);
            let masked = run_with(true);
            let ub: Vec<u64> = unmasked.scores.lambda.iter().map(|v| v.to_bits()).collect();
            let mb: Vec<u64> = masked.scores.lambda.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ub, mb, "p={p}: masking changed the scores");
            assert!(
                masked.ops < unmasked.ops,
                "p={p}: masked {} !< unmasked {}",
                masked.ops,
                unmasked.ops
            );
        }
    }

    #[test]
    fn weighted_graphs_ignore_the_mask_flag() {
        // Weighted: rediscoveries can improve distances, so the
        // driver must not mask — and scores must match regardless of
        // the flag.
        use mfbc_algebra::Dist;
        let g = Graph::new(
            5,
            false,
            vec![
                (0, 1, Dist::new(2)),
                (1, 2, Dist::new(3)),
                (0, 2, Dist::new(9)),
                (2, 3, Dist::new(1)),
                (3, 4, Dist::new(4)),
            ],
        );
        let run_with = |masked: bool| {
            let m = Machine::new(MachineSpec::test(4));
            mfbc_dist(&m, &g, &MfbcConfig::default().with_masked(masked)).unwrap()
        };
        let a = run_with(true);
        let b = run_with(false);
        let ab: Vec<u64> = a.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = b.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
        assert_eq!(a.ops, b.ops, "weighted run must ignore `masked`");
    }

    #[test]
    fn crash_recovery_replans_and_matches_fault_free() {
        let cfg = MfbcConfig::default().with_batch_size(2);
        let (clean, faulted) = faulted_run(8, "crash:3@5", cfg);
        assert_eq!(faulted.recovery.replans, 1);
        assert_eq!(faulted.recovery.final_p, 7);
        assert!(faulted.recovery.faults_injected >= 1);
        assert!(faulted.recovery.wasted_modeled_s > 0.0);
        let clean_bits: Vec<u64> = clean.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let fault_bits: Vec<u64> = faulted.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(clean_bits, fault_bits, "crash recovery changed the scores");
    }

    #[test]
    fn transient_fault_is_absorbed() {
        let cfg = MfbcConfig::default().with_batch_size(4);
        let (clean, faulted) = faulted_run(4, "transient:2@3", cfg);
        assert!(faulted.recovery.collective_retries >= 1);
        assert_eq!(faulted.recovery.replans, 0);
        let clean_bits: Vec<u64> = clean.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let fault_bits: Vec<u64> = faulted.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(clean_bits, fault_bits);
    }

    #[test]
    fn session_steps_match_one_shot_bit_for_bit() {
        // Driving a session step by step must be indistinguishable —
        // scores, counters, modeled costs, memory peaks — from the
        // one-shot wrapper, which is the property the serve engine's
        // exact responses rely on.
        let g = ladder();
        let cfg = MfbcConfig::default().with_batch_size(2);
        let one_shot = mfbc_dist(&Machine::new(MachineSpec::test(4)), &g, &cfg).unwrap();

        let m = Machine::new(MachineSpec::test(4));
        let mut session = MfbcSession::new(&m, &g, &cfg).unwrap();
        let mut committed = 0;
        let mut partials: Vec<Vec<u64>> = Vec::new();
        while let SessionStep::Committed { sources } = session.step().unwrap() {
            committed += sources;
            partials.push(
                session
                    .scores()
                    .lambda
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
            assert_eq!(session.sources_processed(), committed);
        }
        assert_eq!(committed, g.n());
        assert_eq!(session.remaining_sources(), 0);
        let run = session.finish();

        let a: Vec<u64> = one_shot.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = run.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "incremental scores differ from one-shot");
        assert_eq!(run.batches, one_shot.batches);
        assert_eq!(run.ops, one_shot.ops);
        assert_eq!(run.frontier_nnz, one_shot.frontier_nnz);
        assert_eq!(
            run.report.critical.total_time().to_bits(),
            one_shot.report.critical.total_time().to_bits(),
            "modeled time diverged"
        );
        assert_eq!(run.peak_bytes, one_shot.peak_bytes);
        // Each committed prefix is a strict accumulation: the last
        // partial equals the final scores.
        assert_eq!(partials.last().unwrap(), &b);
    }

    #[test]
    fn session_respects_max_batches_and_reports_done() {
        let g = ladder();
        let cfg = MfbcConfig {
            max_batches: Some(2),
            ..MfbcConfig::default().with_batch_size(2)
        };
        let m = Machine::new(MachineSpec::test(2));
        let mut session = MfbcSession::new(&m, &g, &cfg).unwrap();
        assert!(matches!(
            session.step().unwrap(),
            SessionStep::Committed { sources: 2 }
        ));
        assert!(matches!(
            session.step().unwrap(),
            SessionStep::Committed { sources: 2 }
        ));
        assert_eq!(session.step().unwrap(), SessionStep::Done);
        assert_eq!(session.batches(), 2);
        assert!(!session.poisoned());
    }

    #[test]
    fn session_survives_crash_mid_stream() {
        // A crash fault absorbed inside step(): the session shrinks,
        // keeps going, and its final scores match the fault-free run
        // (the ladder's dependency values are dyadic).
        use mfbc_machine::{FaultPlan, RetryPolicy};
        let g = ladder();
        let cfg = MfbcConfig::default().with_batch_size(2);
        let clean = mfbc_dist(&Machine::new(MachineSpec::test(8)), &g, &cfg).unwrap();
        let m = Machine::with_faults(
            MachineSpec::test(8),
            FaultPlan::parse("crash:3@5").unwrap(),
            RetryPolicy::default(),
        );
        let mut session = MfbcSession::new(&m, &g, &cfg).unwrap();
        while session.step().unwrap() != SessionStep::Done {}
        assert_eq!(session.machine().p(), 7, "shrink not visible to caller");
        let run = session.finish();
        assert_eq!(run.recovery.replans, 1);
        let a: Vec<u64> = clean.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = run.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn session_retryable_failure_keeps_state_for_a_later_retry() {
        // A transient recurrence deep enough to outlive the machine's
        // in-place retries *and* the per-step batch retries makes
        // step() fail — but the session stays coherent, and a later
        // step() (the serve engine's backoff path) finishes the job
        // bit-identically to a fault-free run.
        use mfbc_machine::{FaultPlan, RetryPolicy};
        let g = ladder();
        let cfg = MfbcConfig::default().with_batch_size(4);
        let clean = mfbc_dist(&Machine::new(MachineSpec::test(4)), &g, &cfg).unwrap();
        // Machine retries 3 attempts per collective; the driver
        // retries the batch 8 more times => 27 failed attempts per
        // step. A recurrence of 40 survives the first step call.
        let m = Machine::with_faults(
            MachineSpec::test(4),
            FaultPlan::parse("transient:40@3").unwrap(),
            RetryPolicy::default(),
        );
        let mut session = MfbcSession::new(&m, &g, &cfg).unwrap();
        let err = loop {
            match session.step() {
                Ok(SessionStep::Done) => panic!("expected the first step to exhaust its budget"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, MachineError::CollectiveFailed { .. }));
        assert!(!session.poisoned(), "retryable error must not poison");
        // Second try from the same cursor: the remaining recurrence
        // budget is consumed and the run completes.
        while session.step().unwrap() != SessionStep::Done {}
        let run = session.finish();
        let a: Vec<u64> = clean.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = run.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert!(run.recovery.batch_retries >= 1);
    }

    #[test]
    fn session_poisons_on_unrecoverable_crash() {
        // A crash on a 2-rank machine under a per-rank memory budget
        // that fits the halved state but not the whole problem: the
        // shrink succeeds, but rebuilding the adjacency on the single
        // survivor overflows the budget — unrecoverable. The session
        // poisons, later steps fail fast, and dropping it
        // double-releases nothing. (On a 1-rank machine faults never
        // fire at all: size-1 groups skip the collective fault gate;
        // and with a looser budget the batch-halving path would
        // absorb the pressure — only the fixed adjacency footprint is
        // immovable, so nb = 1 keeps temporaries out of the picture.)
        use mfbc_graph::gen::uniform;
        use mfbc_machine::{FaultPlan, RetryPolicy};
        let g = uniform(48, 600, false, None, 3);
        // Probed footprints for this graph at nb = 1: peak 19 160
        // B/rank at p = 2; adjacency (da + dat) alone is 22 560 B on
        // one rank — 21 000 B admits the former, rejects the latter.
        let spec = MachineSpec {
            mem_bytes: Some(21_000),
            ..MachineSpec::test(2)
        };
        let m = Machine::with_faults(
            spec,
            FaultPlan::parse("crash:0@2").unwrap(),
            RetryPolicy::default(),
        );
        let cfg = MfbcConfig::default().with_batch_size(1);
        let mut session = MfbcSession::new(&m, &g, &cfg).unwrap();
        let err = loop {
            match session.step() {
                Ok(SessionStep::Done) => panic!("rebuild over budget must be unrecoverable"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, MachineError::OutOfMemory { .. }), "{err}");
        assert!(session.poisoned());
        assert!(session.step().is_err(), "poisoned session must fail fast");
    }

    #[test]
    fn rolled_back_batches_leave_no_collective_in_flight() {
        // On an overlapped machine the transient fault at collective
        // #11 overflows while three collectives of the batch are in
        // flight (the stage-ahead broadcasts of a 2D product). The
        // rollback must abort them — before the fix they stayed in the
        // machine's pending table for good — and the recovered scores
        // stay bit-identical to a fault-free run.
        use mfbc_machine::{FaultPlan, RetryPolicy};
        let g = ladder();
        let cfg = MfbcConfig::default().with_batch_size(4);
        let spec = MachineSpec::test(4).with_overlap(true);
        let bits =
            |run: &MfbcRun| -> Vec<u64> { run.scores.lambda.iter().map(|v| v.to_bits()).collect() };
        let clean = mfbc_dist(&Machine::new(spec.clone()), &g, &cfg).unwrap();
        let faulted = |schedule: &str| {
            let plan = FaultPlan::parse(schedule).unwrap();
            Machine::with_faults(spec.clone(), plan, RetryPolicy::default())
        };

        // A recurrence past every retry budget fails the step.
        let m = faulted("transient:40@11");
        let mut session = MfbcSession::new(&m, &g, &cfg).unwrap();
        assert!(matches!(
            session.step(),
            Err(MachineError::CollectiveFailed { .. })
        ));
        assert_eq!(m.outstanding_collectives(), 0, "failed step leaked");
        while session.step().unwrap() != SessionStep::Done {}
        assert_eq!(bits(&session.finish()), bits(&clean));

        // A shorter one is absorbed by one batch retry.
        let m = faulted("transient:5@11");
        let run = mfbc_dist(&m, &g, &cfg).unwrap();
        assert_eq!(run.recovery.batch_retries, 1);
        assert_eq!(m.outstanding_collectives(), 0, "retried batch leaked");
        assert_eq!(bits(&run), bits(&clean));
    }

    #[test]
    fn oom_fault_halves_batch_and_matches() {
        let cfg = MfbcConfig::default().with_batch_size(4);
        let (clean, faulted) = faulted_run(4, "oom:1@4", cfg);
        assert!(
            faulted.recovery.oom_halvings >= 1 || faulted.recovery.batch_retries >= 1,
            "OOM fault was never acted on: {:?}",
            faulted.recovery
        );
        let clean_bits: Vec<u64> = clean.scores.lambda.iter().map(|v| v.to_bits()).collect();
        let fault_bits: Vec<u64> = faulted.scores.lambda.iter().map(|v| v.to_bits()).collect();
        assert_eq!(clean_bits, fault_bits);
    }
}
