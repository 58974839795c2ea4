//! A simulated distributed-memory machine for MFBC.
//!
//! The paper evaluates on the Blue Waters Cray XE6 over MPI. This
//! crate replaces that testbed with an in-process *bulk-synchronous
//! simulated machine*: `p` virtual ranks, each with its own logical
//! memory, communicating through collective operations that **really
//! move the data** between rank-local stores while an α–β–γ cost
//! model charges every rank for latency, bandwidth, and computation.
//!
//! Cost accounting follows the paper exactly:
//!
//! * §5.1 — a collective (scatter, gather, broadcast, reduction,
//!   allreduction) over `p` ranks moving `x` words costs
//!   `O(β·x + α·log p)`; broadcast/reduce are modeled at
//!   `2xβ + 2⌈log₂ p⌉α`, scatter/allgather at half that (§7.4);
//! * §7.4 — critical-path accumulation: before a collective, every
//!   participant's running cost is raised to the maximum over the
//!   group, then the collective's cost is added; the reported totals
//!   are per-metric maxima over ranks ("the greatest amount of data
//!   communicated along any dependent sequence of collectives").
//!
//! A distributed algorithm posts every collective through
//! [`Machine::post_collective`] and gets the delivered value back
//! behind a [`collectives::Pending`]. The machine decides how the
//! collective completes: a one-rank group moves nothing and is free
//! (no charge, no tick of the fault clock); under
//! [`MachineSpec::overlap`] it is issued nonblocking and its transfer
//! hides under the compute charged before the wait; otherwise it is
//! charged on the spot. The algorithm decides only when to post and
//! when to wait.
//!
//! A per-rank memory meter reproduces the paper's out-of-memory
//! behaviour (e.g. CombBLAS failing on Friendster): algorithms charge
//! their resident sets and a [`MachineError::OutOfMemory`] surfaces
//! where the paper reports "unable to execute".
//!
//! # Fault injection
//!
//! At Blue Waters scale node failures are routine, so the machine can
//! carry a seeded [`FaultPlan`] (see `mfbc-fault`): every collective
//! advances a sequence counter, and scheduled faults fire when their
//! sequence number comes up. A crash marks a rank permanently failed
//! (later collectives containing it return
//! [`MachineError::RankFailed`]); a transient fault makes collectives
//! fail until its finite recurrence budget is spent, with bounded
//! in-machine retry and modeled backoff (overflow surfaces as
//! [`MachineError::CollectiveFailed`]); a forced OOM surfaces as
//! [`MachineError::OutOfMemory`]. [`Machine::shrink`] rebuilds a
//! `p−1`-rank machine around the survivors, carrying their
//! accumulated costs, so a recovering driver can replan and resume.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod topology;

pub use collectives::Volume;
pub use comm::Group;
pub use cost::{CollectiveKind, CostReport, CostTracker, RankCost};
pub use mfbc_fault::{FaultKind, FaultPlan, FaultStats, RetryPolicy, ScheduledFault};
pub use topology::{MachineSpec, RedistMode};

use collectives::Pending;
use parking_lot::Mutex;
use std::sync::Arc;

/// Errors surfaced by the simulated machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// A rank exceeded its memory budget `M`; carries (rank, resident
    /// bytes, budget bytes).
    OutOfMemory {
        /// The rank that exceeded its budget.
        rank: usize,
        /// Resident bytes at the moment of failure.
        resident: u64,
        /// The per-rank budget in bytes.
        budget: u64,
    },
    /// A rank crashed: a collective was attempted whose group
    /// contains a permanently failed rank.
    RankFailed {
        /// The failed rank (numbering of the machine that detected it).
        rank: usize,
        /// Collective sequence number at which the failure was detected.
        seq: u64,
    },
    /// A collective kept failing transiently and the machine's
    /// bounded retry budget ran out.
    CollectiveFailed {
        /// Collective kind name (e.g. `"allgather"`).
        kind: &'static str,
        /// Collective sequence number of the failed operation.
        seq: u64,
        /// Attempts made (including the initial one) before giving up.
        attempts: u32,
    },
    /// User-reachable configuration was invalid (bad group, grid
    /// shape, or replication factor). Carries a human-readable reason.
    InvalidConfig {
        /// What was wrong with the configuration.
        reason: String,
    },
}

impl MachineError {
    /// Builds an [`MachineError::InvalidConfig`] from any message.
    pub fn invalid(reason: impl Into<String>) -> MachineError {
        MachineError::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::OutOfMemory {
                rank,
                resident,
                budget,
            } => write!(
                f,
                "rank {rank} out of memory: resident {resident} B exceeds budget {budget} B"
            ),
            MachineError::RankFailed { rank, seq } => write!(
                f,
                "rank {rank} failed (crash detected at collective #{seq})"
            ),
            MachineError::CollectiveFailed {
                kind,
                seq,
                attempts,
            } => write!(
                f,
                "{kind} collective #{seq} failed after {attempts} attempts (transient fault persists)"
            ),
            MachineError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Per-rank memory snapshot: resident bytes (restorable) plus the
/// high-water marks at the moment the snapshot was taken; see
/// [`Machine::memory_snapshot`].
///
/// Peaks are *observations*, not restorable state: the meter only
/// ever ratchets them upward, so for any snapshot
/// `peak[r] >= resident[r]`, and across two snapshots of the same
/// machine the later peaks dominate the earlier ones — the invariant
/// the profiler's "memory high-water mark" column rests on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemorySnapshot {
    resident: Vec<u64>,
    peak: Vec<u64>,
}

impl MemorySnapshot {
    /// Resident bytes per rank at snapshot time.
    pub fn resident(&self) -> &[u64] {
        &self.resident
    }

    /// Peak (high-water) resident bytes per rank at snapshot time.
    pub fn peak(&self) -> &[u64] {
        &self.peak
    }
}

/// Mutable fault-injection state shared by clones of a machine.
#[derive(Debug, Default)]
struct FaultState {
    /// Faults not yet fired.
    pending: Vec<ScheduledFault>,
    /// Permanently failed ranks, in the machine's current numbering.
    failed: Vec<usize>,
    /// Remaining transient failures to deliver.
    transient_budget: u32,
    /// Collective sequence counter ("superstep" clock).
    seq: u64,
    /// Retry policy for transient failures.
    policy: RetryPolicy,
    /// Injection-side counters.
    stats: FaultStats,
}

impl FaultState {
    fn fresh(plan: FaultPlan, policy: RetryPolicy) -> FaultState {
        FaultState {
            pending: plan.faults,
            policy,
            ..FaultState::default()
        }
    }

    /// Renumbers the state for a machine that dropped `failed`: the
    /// dead rank's remaining faults are discarded and higher ranks
    /// shift down by one. The sequence clock keeps running.
    fn shrunk(&self, failed: usize) -> FaultState {
        let remap = |r: usize| if r > failed { r - 1 } else { r };
        let pending = self
            .pending
            .iter()
            .filter(|sf| sf.kind.rank() != Some(failed))
            .map(|sf| {
                let kind = match sf.kind {
                    FaultKind::Crash { rank } => FaultKind::Crash { rank: remap(rank) },
                    FaultKind::Oom { rank } => FaultKind::Oom { rank: remap(rank) },
                    k @ FaultKind::Transient { .. } => k,
                };
                ScheduledFault { at: sf.at, kind }
            })
            .collect();
        FaultState {
            pending,
            failed: self
                .failed
                .iter()
                .filter(|&&r| r != failed)
                .map(|&r| remap(r))
                .collect(),
            transient_budget: self.transient_budget,
            seq: self.seq,
            policy: self.policy,
            stats: self.stats,
        }
    }
}

/// One issued-but-not-yet-waited nonblocking collective.
#[derive(Clone, Debug)]
struct PendingOp {
    handle: u64,
    kind: CollectiveKind,
    ranks: Vec<usize>,
    bytes: u64,
    /// Issue clock captured when the operation was issued.
    issue_s: f64,
}

/// Outstanding nonblocking collectives, in issue order.
#[derive(Debug, Default)]
struct PendingTable {
    next_handle: u64,
    ops: Vec<PendingOp>,
}

/// The simulated machine: a spec plus shared cost/memory trackers and
/// fault-injection state.
///
/// Cheap to clone (trackers are shared behind an `Arc`), so a single
/// machine can be threaded through nested algorithm layers.
#[derive(Clone)]
pub struct Machine {
    spec: MachineSpec,
    /// The group of all ranks, built once.
    world: Group,
    tracker: Arc<Mutex<CostTracker>>,
    faults: Arc<Mutex<FaultState>>,
    pending: Arc<Mutex<PendingTable>>,
}

impl Machine {
    /// Builds a machine from a spec with fresh cost meters and no
    /// scheduled faults.
    pub fn new(spec: MachineSpec) -> Machine {
        Machine::with_faults(spec, FaultPlan::none(), RetryPolicy::default())
    }

    /// Builds a machine carrying a fault schedule and retry policy.
    pub fn with_faults(spec: MachineSpec, plan: FaultPlan, policy: RetryPolicy) -> Machine {
        let tracker = CostTracker::new(spec.p);
        Machine {
            world: Group::all(spec.p),
            spec,
            tracker: Arc::new(Mutex::new(tracker)),
            faults: Arc::new(Mutex::new(FaultState::fresh(plan, policy))),
            pending: Arc::new(Mutex::new(PendingTable::default())),
        }
    }

    /// Injection-side fault counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.lock().stats
    }

    /// Current collective sequence number (the fault clock).
    pub fn collective_seq(&self) -> u64 {
        self.faults.lock().seq
    }

    /// Ranks marked permanently failed, in current numbering.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.faults.lock().failed.clone()
    }

    /// The machine description.
    #[inline]
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Number of ranks.
    #[inline]
    pub fn p(&self) -> usize {
        self.spec.p
    }

    /// The group of all ranks.
    pub fn world(&self) -> Group {
        self.world.clone()
    }

    /// Runs `f` with the cost tracker locked.
    pub fn with_tracker<R>(&self, f: impl FnOnce(&mut CostTracker) -> R) -> R {
        f(&mut self.tracker.lock())
    }

    /// Posts a collective over `group` moving up to `bytes` per rank
    /// and returns `value`, the data it delivers, behind a
    /// [`Pending`] — the call the plan families' broadcasts,
    /// allgathers, shifts and 2D/3D sparse reductions go through.
    /// Not every plan collective is posted: redistributions and 1D-C's
    /// sparse reduction ([`collectives::sparse_reduce`]) are charged
    /// blocking, through [`Machine::charge_collective`]. How a posted
    /// collective completes is decided here:
    ///
    /// * on a one-rank group nothing moves — nothing is charged, the
    ///   fault clock does not tick, and the value is ready;
    /// * under `spec.overlap` it is issued nonblocking
    ///   ([`Machine::icharge_collective`]) and the value waits on its
    ///   handle, so its transfer runs under whatever the caller
    ///   charges before [`Pending::wait`];
    /// * otherwise it is charged on the spot
    ///   ([`Machine::charge_collective`]) and the value is ready.
    pub fn post_collective<T>(
        &self,
        group: &Group,
        kind: CollectiveKind,
        bytes: u64,
        value: T,
    ) -> Result<Pending<T>, MachineError> {
        if self.spec.overlap && group.len() > 1 {
            let handle = self.icharge_collective(group, kind, bytes)?;
            return Ok(Pending::inflight(value, handle));
        }
        self.charge_collective(group, kind, bytes)?;
        Ok(Pending::ready(value))
    }

    /// Charges a collective over `group` moving up to `bytes` per rank;
    /// a one-rank group moves nothing and is free (no charge, no tick
    /// of the fault clock, no event).
    ///
    /// This is the fault-injection point: the collective sequence
    /// counter advances, due faults fire, and the operation fails with
    /// a typed [`MachineError`] if a participant has crashed, a forced
    /// OOM was scheduled, or a transient fault outlives the bounded
    /// retry budget. On success the cost is charged and emitted as a
    /// [`mfbc_trace::TraceEvent::Collective`] when tracing is enabled,
    /// carrying the modeled α–β time and the critical-path
    /// message/byte charges, so a trace reproduces the accounting
    /// exactly.
    pub fn charge_collective(
        &self,
        group: &Group,
        kind: CollectiveKind,
        bytes: u64,
    ) -> Result<(), MachineError> {
        if group.len() <= 1 {
            return Ok(());
        }
        let seq = self.fault_gate(group, kind)?;
        self.with_tracker(|t| t.collective(&self.spec, group.ranks(), kind, bytes));
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::Collective {
            charge: self.trace_charge(group, kind, seq, bytes),
        });
        Ok(())
    }

    /// What a collective over `group` is charged, as the trace carries
    /// it: the modeled α–β time and the critical-path message/byte
    /// charges.
    fn trace_charge(
        &self,
        group: &Group,
        kind: CollectiveKind,
        seq: u64,
        bytes: u64,
    ) -> mfbc_trace::CollectiveCharge {
        mfbc_trace::CollectiveCharge {
            kind: kind.name(),
            group: group.len(),
            ranks: group.ranks().to_vec(),
            seq,
            bytes,
            msgs: kind.msgs(group.len()),
            bytes_charged: kind.bytes_charged(bytes),
            modeled_s: kind.time(&self.spec, group.len(), bytes),
        }
    }

    /// Issues a nonblocking collective and returns its handle. The
    /// fault gate fires here (same sequence-number semantics as
    /// [`Machine::charge_collective`]), and the issue clock — the
    /// group's last synchronization point — is captured here, but
    /// nothing is charged to the meters until the matching
    /// [`Machine::wait_collective`]. Under overlapped accounting the
    /// collective's transfer window therefore runs concurrently with
    /// whatever compute is charged between issue and wait.
    pub fn icharge_collective(
        &self,
        group: &Group,
        kind: CollectiveKind,
        bytes: u64,
    ) -> Result<u64, MachineError> {
        let seq = self.fault_gate(group, kind)?;
        let issue_s = self.with_tracker(|t| t.issue_time(group.ranks()));
        let handle = {
            let mut pt = self.pending.lock();
            let h = pt.next_handle;
            pt.next_handle += 1;
            pt.ops.push(PendingOp {
                handle: h,
                kind,
                ranks: group.ranks().to_vec(),
                bytes,
                issue_s,
            });
            h
        };
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::CollectiveIssue {
            charge: self.trace_charge(group, kind, seq, bytes),
            handle,
        });
        Ok(handle)
    }

    /// Completes a nonblocking collective: charges its meters (raise
    /// to group max, then add — identical to the blocking path) and
    /// advances the causal clocks, with the transfer window anchored
    /// at the captured issue clock when `spec.overlap` is set. Waiting
    /// on a handle that was never issued (or already waited) is an
    /// [`MachineError::InvalidConfig`].
    pub fn wait_collective(&self, handle: u64) -> Result<(), MachineError> {
        let op = {
            let mut pt = self.pending.lock();
            let Some(i) = pt.ops.iter().position(|op| op.handle == handle) else {
                return Err(MachineError::invalid(format!(
                    "wait on unknown collective handle #{handle}"
                )));
            };
            pt.ops.remove(i)
        };
        self.with_tracker(|t| {
            t.complete_collective(&self.spec, &op.ranks, op.kind, op.bytes, op.issue_s)
        });
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::CollectiveWait { handle });
        Ok(())
    }

    /// Number of issued-but-not-waited collectives.
    pub fn outstanding_collectives(&self) -> usize {
        self.pending.lock().ops.len()
    }

    /// Discards every outstanding nonblocking collective without
    /// charging it (a batch rollback abandons the failed attempt's
    /// in-flight work; the wasted time is accounted separately).
    /// Returns how many were dropped.
    pub fn abort_pending(&self) -> usize {
        let mut pt = self.pending.lock();
        let n = pt.ops.len();
        pt.ops.clear();
        n
    }

    /// The modeled makespan so far: the maximum causal clock over
    /// ranks. Under serialized accounting this equals the single-clock
    /// BSP replay; under overlapped accounting it is never larger.
    pub fn makespan_s(&self) -> f64 {
        self.with_tracker(|t| t.makespan_s())
    }

    /// Advances the fault clock and applies any due fault to this
    /// collective attempt; returns the attempt's sequence number.
    fn fault_gate(&self, group: &Group, kind: CollectiveKind) -> Result<u64, MachineError> {
        let mut fs = self.faults.lock();
        let seq = fs.seq;
        fs.seq += 1;
        if fs.pending.is_empty() && fs.failed.is_empty() && fs.transient_budget == 0 {
            return Ok(seq); // fault-free fast path
        }

        // Fire every scheduled fault whose time has come.
        let mut due = Vec::new();
        fs.pending.retain(|sf| {
            if sf.at <= seq {
                due.push(*sf);
                false
            } else {
                true
            }
        });
        let mut forced_oom = None;
        for sf in due {
            fs.stats.faults_injected += 1;
            mfbc_trace::emit(|| mfbc_trace::TraceEvent::Fault {
                kind: sf.kind.name(),
                rank: sf.kind.rank(),
                seq,
            });
            match sf.kind {
                FaultKind::Crash { rank } => {
                    let rank = rank.min(self.spec.p.saturating_sub(1));
                    if !fs.failed.contains(&rank) {
                        fs.failed.push(rank);
                    }
                }
                FaultKind::Transient { recurrence } => {
                    fs.transient_budget += recurrence;
                }
                FaultKind::Oom { rank } => {
                    forced_oom = Some(rank.min(self.spec.p.saturating_sub(1)));
                }
            }
        }
        if let Some(rank) = forced_oom {
            let resident = self.with_tracker(|t| t.resident(rank));
            // A forced OOM reports the resident set as the budget when
            // the machine is otherwise unbounded.
            let budget = self.spec.mem_bytes.unwrap_or(resident);
            return Err(MachineError::OutOfMemory {
                rank,
                resident,
                budget,
            });
        }

        // A crashed participant poisons the whole collective.
        if let Some(&rank) = group.ranks().iter().find(|r| fs.failed.contains(r)) {
            return Err(MachineError::RankFailed { rank, seq });
        }

        // Transient failures: bounded in-machine retry with modeled
        // backoff; each failed attempt consumes recurrence budget.
        if fs.transient_budget > 0 {
            let policy = fs.policy;
            let mut attempts = 1u32;
            while fs.transient_budget > 0 && attempts < policy.max_attempts {
                fs.transient_budget -= 1;
                fs.stats.retries += 1;
                fs.stats.backoff_s += policy.backoff_s;
                self.with_tracker(|t| t.backoff(group.ranks(), policy.backoff_s));
                mfbc_trace::emit(|| mfbc_trace::TraceEvent::Backoff {
                    ranks: group.ranks().to_vec(),
                    seconds: policy.backoff_s,
                });
                attempts += 1;
            }
            if fs.transient_budget > 0 {
                fs.transient_budget -= 1;
                return Err(MachineError::CollectiveFailed {
                    kind: kind.name(),
                    seq,
                    attempts,
                });
            }
        }
        Ok(seq)
    }

    /// Charges `ops` elementary operations of local compute on `rank`.
    ///
    /// Emitted as a [`mfbc_trace::TraceEvent::Compute`] when tracing
    /// is enabled, carrying the same `ops · γ` seconds the tracker
    /// charges, so a trace carries full per-rank attribution.
    pub fn charge_compute(&self, rank: usize, ops: u64) {
        self.with_tracker(|t| t.compute(&self.spec, rank, ops));
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::Compute {
            rank,
            ops,
            modeled_s: ops as f64 * self.spec.gamma,
        });
    }

    /// Charges `bytes` of resident memory on `rank`, failing if the
    /// budget is exceeded.
    pub fn charge_alloc(&self, rank: usize, bytes: u64) -> Result<(), MachineError> {
        self.with_tracker(|t| t.alloc(rank, bytes));
        self.check_memory(rank)
    }

    /// Releases `bytes` of resident memory on `rank`.
    pub fn release(&self, rank: usize, bytes: u64) {
        self.with_tracker(|t| t.free(rank, bytes));
    }

    fn check_memory(&self, rank: usize) -> Result<(), MachineError> {
        if let Some(budget) = self.spec.mem_bytes {
            let resident = self.with_tracker(|t| t.resident(rank));
            if resident > budget {
                return Err(MachineError::OutOfMemory {
                    rank,
                    resident,
                    budget,
                });
            }
        }
        Ok(())
    }

    /// Snapshot of every rank's resident bytes, restorable with
    /// [`Machine::restore_memory`]. Recovery code takes one at a
    /// checkpoint boundary so a failed batch's leaked residency can be
    /// rolled back without replaying every release. Peak meters are
    /// unaffected by restoration.
    pub fn memory_snapshot(&self) -> MemorySnapshot {
        self.with_tracker(|t| MemorySnapshot {
            resident: t.memory_snapshot(),
            peak: t.peak_snapshot(),
        })
    }

    /// Per-rank accumulated critical-path costs — the raw data behind
    /// [`Machine::report`]'s maxima, exposed for per-rank utilization
    /// and load-imbalance profiling.
    pub fn rank_costs(&self) -> Vec<RankCost> {
        self.with_tracker(|t| (0..t.p()).map(|r| t.rank(r)).collect())
    }

    /// Per-rank memory high-water marks (peak resident bytes).
    pub fn memory_peaks(&self) -> Vec<u64> {
        self.with_tracker(|t| t.peak_snapshot())
    }

    /// Restores resident bytes to a snapshot taken on this machine.
    pub fn restore_memory(&self, snapshot: &MemorySnapshot) {
        self.with_tracker(|t| t.restore_memory(&snapshot.resident));
    }

    /// Builds the `p−1`-rank machine that survives the permanent
    /// failure of `failed`: surviving ranks keep their accumulated
    /// costs and peak meters (degraded-mode accounting — the time
    /// already spent is not forgotten), resident memory carries over,
    /// and the fault schedule is renumbered (the dead rank's pending
    /// faults are dropped, higher ranks shift down). Fails on a
    /// 1-rank machine, where there is nothing to shrink onto.
    pub fn shrink(&self, failed: usize) -> Result<Machine, MachineError> {
        if self.spec.p <= 1 {
            return Err(MachineError::invalid(
                "cannot shrink a 1-rank machine: no surviving ranks",
            ));
        }
        if failed >= self.spec.p {
            return Err(MachineError::invalid(format!(
                "cannot shrink: rank {failed} out of range (p = {})",
                self.spec.p
            )));
        }
        let spec = MachineSpec {
            p: self.spec.p - 1,
            ..self.spec
        };
        let tracker = self.with_tracker(|t| t.shrunk(failed));
        let faults = self.faults.lock().shrunk(failed);
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::Shrink {
            failed,
            p_before: self.spec.p,
        });
        // In-flight collectives of the dead configuration are
        // abandoned, not charged.
        Ok(Machine {
            world: Group::all(spec.p),
            spec,
            tracker: Arc::new(Mutex::new(tracker)),
            faults: Arc::new(Mutex::new(faults)),
            pending: Arc::new(Mutex::new(PendingTable::default())),
        })
    }

    /// Snapshot of the per-metric critical-path costs (Table 3's
    /// methodology).
    pub fn report(&self) -> CostReport {
        self.with_tracker(|t| t.report())
    }

    /// Resets all cost and memory meters (budgets unchanged), and
    /// discards any outstanding nonblocking collectives.
    pub fn reset_meters(&self) {
        self.with_tracker(|t| *t = CostTracker::new(self.spec.p));
        self.pending.lock().ops.clear();
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Machine(p={}, α={}, β={}, γ={})",
            self.spec.p, self.spec.alpha, self.spec.beta, self.spec.gamma
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_facade_charges_costs() {
        let m = Machine::new(MachineSpec::test(4));
        m.charge_collective(&m.world(), CollectiveKind::Broadcast, 1000)
            .unwrap();
        m.charge_compute(0, 500);
        let r = m.report();
        assert!(r.critical.comm_time > 0.0);
        assert!(r.critical.comp_time > 0.0);
        assert_eq!(r.critical.msgs, 2 * 2); // 2·log2(4) messages
    }

    #[test]
    fn memory_budget_enforced() {
        let spec = MachineSpec {
            mem_bytes: Some(1000),
            ..MachineSpec::test(2)
        };
        let m = Machine::new(spec);
        assert!(m.charge_alloc(0, 900).is_ok());
        let err = m.charge_alloc(0, 200).unwrap_err();
        match err {
            MachineError::OutOfMemory {
                rank,
                resident,
                budget,
            } => {
                assert_eq!(rank, 0);
                assert_eq!(resident, 1100);
                assert_eq!(budget, 1000);
            }
            other => panic!("unexpected error {other:?}"),
        }
        m.release(0, 900);
        assert!(m.charge_alloc(0, 100).is_ok());
    }

    #[test]
    fn reset_clears_meters() {
        let m = Machine::new(MachineSpec::test(2));
        m.charge_compute(1, 100);
        m.reset_meters();
        assert_eq!(m.report().critical.comp_time, 0.0);
    }

    #[test]
    fn crash_fault_poisons_later_collectives() {
        let m = Machine::with_faults(
            MachineSpec::test(4),
            FaultPlan::single(1, FaultKind::Crash { rank: 2 }),
            RetryPolicy::default(),
        );
        let w = m.world();
        assert!(m
            .charge_collective(&w, CollectiveKind::Broadcast, 8)
            .is_ok());
        let err = m
            .charge_collective(&w, CollectiveKind::Broadcast, 8)
            .unwrap_err();
        assert_eq!(err, MachineError::RankFailed { rank: 2, seq: 1 });
        // Still failed on the next attempt.
        assert!(matches!(
            m.charge_collective(&w, CollectiveKind::Reduce, 8),
            Err(MachineError::RankFailed { rank: 2, .. })
        ));
        // A group avoiding the dead rank still works.
        let g = Group::new(vec![0, 1, 3]).unwrap();
        assert!(m.charge_collective(&g, CollectiveKind::Reduce, 8).is_ok());
        assert_eq!(m.fault_stats().faults_injected, 1);
    }

    #[test]
    fn transient_fault_retries_in_machine_then_succeeds() {
        let m = Machine::with_faults(
            MachineSpec::test(2),
            FaultPlan::single(0, FaultKind::Transient { recurrence: 2 }),
            RetryPolicy {
                max_attempts: 3,
                backoff_s: 0.5,
                ..RetryPolicy::default()
            },
        );
        let before = m.report().critical.comm_time;
        m.charge_collective(&m.world(), CollectiveKind::Allreduce, 8)
            .unwrap();
        let stats = m.fault_stats();
        assert_eq!(stats.retries, 2);
        assert!((stats.backoff_s - 1.0).abs() < 1e-12);
        // Backoff is charged as modeled communication time.
        assert!(m.report().critical.comm_time >= before + 1.0);
        // Budget exhausted: later collectives are clean.
        m.charge_collective(&m.world(), CollectiveKind::Allreduce, 8)
            .unwrap();
    }

    #[test]
    fn transient_fault_overflows_bounded_retry() {
        let m = Machine::with_faults(
            MachineSpec::test(2),
            FaultPlan::single(0, FaultKind::Transient { recurrence: 5 }),
            RetryPolicy {
                max_attempts: 3,
                backoff_s: 1e-3,
                ..RetryPolicy::default()
            },
        );
        let err = m
            .charge_collective(&m.world(), CollectiveKind::Allgather, 8)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::CollectiveFailed {
                kind: "allgather",
                seq: 0,
                attempts: 3
            }
        );
        // Budget 5 − 3 = 2 left: next call retries twice then succeeds.
        m.charge_collective(&m.world(), CollectiveKind::Allgather, 8)
            .unwrap();
        assert_eq!(m.fault_stats().retries, 4);
    }

    #[test]
    fn forced_oom_fires_once() {
        let m = Machine::with_faults(
            MachineSpec::test(2),
            FaultPlan::single(0, FaultKind::Oom { rank: 1 }),
            RetryPolicy::default(),
        );
        let err = m
            .charge_collective(&m.world(), CollectiveKind::Broadcast, 8)
            .unwrap_err();
        assert!(matches!(err, MachineError::OutOfMemory { rank: 1, .. }));
        assert!(m
            .charge_collective(&m.world(), CollectiveKind::Broadcast, 8)
            .is_ok());
    }

    #[test]
    fn shrink_carries_costs_and_renumbers_faults() {
        let m = Machine::with_faults(
            MachineSpec::test(4),
            FaultPlan {
                faults: vec![
                    ScheduledFault {
                        at: 0,
                        kind: FaultKind::Crash { rank: 1 },
                    },
                    ScheduledFault {
                        at: 100,
                        kind: FaultKind::Oom { rank: 3 },
                    },
                    ScheduledFault {
                        at: 200,
                        kind: FaultKind::Oom { rank: 1 },
                    },
                ],
            },
            RetryPolicy::default(),
        );
        m.charge_compute(3, 1000);
        m.charge_alloc(2, 64).unwrap();
        let err = m
            .charge_collective(&m.world(), CollectiveKind::Broadcast, 8)
            .unwrap_err();
        let MachineError::RankFailed { rank, .. } = err else {
            panic!("expected RankFailed, got {err:?}");
        };
        let s = m.shrink(rank).unwrap();
        assert_eq!(s.p(), 3);
        // Rank 3's compute survives as rank 2; rank 2's memory as rank 1.
        assert!(s.report().critical.comp_time > 0.0);
        assert_eq!(s.with_tracker(|t| t.resident(1)), 64);
        // The dead rank leaves the failed set of the shrunk machine.
        assert!(s.failed_ranks().is_empty());
        // The clock keeps running across the shrink.
        assert_eq!(s.collective_seq(), m.collective_seq());
        // Shrinking a 1-rank machine is rejected.
        let one = Machine::new(MachineSpec::test(1));
        assert!(matches!(
            one.shrink(0),
            Err(MachineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn nonblocking_pair_matches_blocking_when_adjacent() {
        let m = Machine::new(MachineSpec::test(4));
        let h = m
            .icharge_collective(&m.world(), CollectiveKind::Broadcast, 100)
            .unwrap();
        assert_eq!(m.outstanding_collectives(), 1);
        m.wait_collective(h).unwrap();
        assert_eq!(m.outstanding_collectives(), 0);
        let b = Machine::new(MachineSpec::test(4));
        b.charge_collective(&b.world(), CollectiveKind::Broadcast, 100)
            .unwrap();
        assert_eq!(m.report().critical, b.report().critical);
        assert_eq!(m.makespan_s().to_bits(), b.makespan_s().to_bits());
        // Double-wait is a typed error.
        assert!(matches!(
            m.wait_collective(h),
            Err(MachineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn overlap_hides_inflight_collective_under_compute() {
        let m = Machine::new(MachineSpec::test(2).with_overlap(true));
        // Allgather of 8 B over 2 ranks: dt = 9, α = 1.
        let h = m
            .icharge_collective(&m.world(), CollectiveKind::Allgather, 8)
            .unwrap();
        m.charge_compute(0, 20);
        m.wait_collective(h).unwrap();
        // issue = 0, ready = 20 → max(20 + 1, 0 + 9) = 21; the
        // serialized schedule would have taken 29.
        assert_eq!(m.makespan_s(), 21.0);
        // Meters still carry the full busy time.
        assert_eq!(m.report().critical.comm_time, 9.0);
        assert_eq!(m.report().critical.comp_time, 20.0);
    }

    #[test]
    fn abort_pending_discards_without_charging() {
        let m = Machine::new(MachineSpec::test(2).with_overlap(true));
        let g = m.world();
        let h = m
            .icharge_collective(&g, CollectiveKind::Allgather, 4)
            .unwrap();
        m.wait_collective(h).unwrap();
        let before = m.report().critical.comm_time;
        let h = m
            .icharge_collective(&g, CollectiveKind::Broadcast, 1000)
            .unwrap();
        assert_eq!(m.abort_pending(), 1);
        assert_eq!(m.outstanding_collectives(), 0);
        // Aborted work was never charged, and its handle is gone.
        assert_eq!(m.report().critical.comm_time.to_bits(), before.to_bits());
        assert!(m.wait_collective(h).is_err());
    }

    #[test]
    fn post_collective_decides_how_a_collective_completes() {
        let schedule = || FaultPlan::single(0, FaultKind::Crash { rank: 3 });
        for overlap in [false, true] {
            let spec = MachineSpec::test(4).with_overlap(overlap);
            let m = Machine::with_faults(spec, schedule(), RetryPolicy::default());
            // A one-rank group: free, ready, and the clock stands still
            // — the crash scheduled at #0 does not fire.
            let one = Group::new(vec![3]).unwrap();
            let posted = m
                .post_collective(&one, CollectiveKind::Broadcast, 64, 'x')
                .unwrap();
            assert_eq!(m.outstanding_collectives(), 0);
            assert_eq!(posted.wait(&m).unwrap(), 'x');
            assert_eq!(m.collective_seq(), 0);
            assert_eq!(m.report().critical, RankCost::default());
            // A real group: in flight under overlap, charged otherwise;
            // either way the clock ticks at the post.
            let two = Group::new(vec![0, 1]).unwrap();
            let posted = m
                .post_collective(&two, CollectiveKind::Broadcast, 64, 'y')
                .unwrap();
            assert_eq!(m.collective_seq(), 1);
            assert_eq!(m.outstanding_collectives(), usize::from(overlap));
            assert_eq!(m.report().critical.msgs, if overlap { 0 } else { 2 });
            assert_eq!(posted.wait(&m).unwrap(), 'y');
            assert_eq!(m.outstanding_collectives(), 0);
            assert_eq!(m.report().critical.msgs, 2);
        }
    }

    #[test]
    fn icharge_advances_the_fault_clock() {
        let m = Machine::with_faults(
            MachineSpec::test(4).with_overlap(true),
            FaultPlan::single(1, FaultKind::Crash { rank: 2 }),
            RetryPolicy::default(),
        );
        let w = m.world();
        let h = m
            .icharge_collective(&w, CollectiveKind::Broadcast, 8)
            .unwrap();
        // The crash fires at the second issue, not at the wait.
        assert!(matches!(
            m.icharge_collective(&w, CollectiveKind::Broadcast, 8),
            Err(MachineError::RankFailed { rank: 2, .. })
        ));
        m.wait_collective(h).unwrap();
    }

    #[test]
    fn memory_snapshot_roundtrip() {
        let m = Machine::new(MachineSpec::test(2));
        m.charge_alloc(0, 100).unwrap();
        let snap = m.memory_snapshot();
        m.charge_alloc(0, 50).unwrap();
        m.charge_alloc(1, 70).unwrap();
        m.restore_memory(&snap);
        assert_eq!(m.with_tracker(|t| t.resident(0)), 100);
        assert_eq!(m.with_tracker(|t| t.resident(1)), 0);
        // Peak is not rolled back.
        assert_eq!(m.with_tracker(|t| t.peak(0)), 150);
    }

    #[test]
    fn peaks_are_monotone_upper_bounds_of_every_snapshot() {
        // Drive an alloc/free/restore workload and check, at every
        // snapshot point, that peaks dominate residents and never
        // decrease — including across a restore_memory rollback.
        let m = Machine::new(MachineSpec::test(3));
        let mut prev_peak = vec![0u64; 3];
        let mut check = || {
            let snap = m.memory_snapshot();
            for (r, &prev) in prev_peak.iter().enumerate() {
                assert!(
                    snap.peak()[r] >= snap.resident()[r],
                    "rank {r}: peak {} below resident {}",
                    snap.peak()[r],
                    snap.resident()[r]
                );
                assert!(
                    snap.peak()[r] >= prev,
                    "rank {r}: peak regressed {} -> {}",
                    prev,
                    snap.peak()[r]
                );
            }
            prev_peak = snap.peak().to_vec();
            snap
        };
        check();
        m.charge_alloc(0, 500).unwrap();
        m.charge_alloc(1, 200).unwrap();
        let ckpt = check();
        m.charge_alloc(0, 300).unwrap();
        m.release(1, 150);
        check();
        m.restore_memory(&ckpt);
        let after_restore = check();
        // The rollback dropped rank 0's resident but kept its peak.
        assert_eq!(after_restore.resident()[0], 500);
        assert_eq!(after_restore.peak()[0], 800);
        m.release(0, 500);
        m.charge_alloc(2, 50).unwrap();
        let last = check();
        assert_eq!(m.memory_peaks(), last.peak().to_vec());
    }

    #[test]
    fn rank_costs_expose_per_rank_breakdown() {
        let m = Machine::new(MachineSpec::test(4));
        m.charge_compute(2, 1000);
        m.charge_collective(
            &Group::new(vec![0, 1]).unwrap(),
            CollectiveKind::Broadcast,
            64,
        )
        .unwrap();
        let costs = m.rank_costs();
        assert_eq!(costs.len(), 4);
        assert!(costs[2].comp_time > 0.0);
        assert_eq!(costs[0].comm_time, costs[1].comm_time);
        assert!(costs[0].comm_time > 0.0);
        assert_eq!(costs[3], RankCost::default());
        // The report's critical path is the per-metric max of these.
        let r = m.report();
        assert_eq!(
            r.critical.comp_time,
            costs.iter().map(|c| c.comp_time).fold(0.0, f64::max)
        );
    }
}
