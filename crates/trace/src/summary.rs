//! The one aggregate fold of a run's event stream ([`Summary`]):
//! per-collective-kind totals in the spirit of the paper's Table 3
//! communication breakdown, and the superstep, plan, pool, fault and
//! recovery totals every report reads.

use crate::event::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Totals for one collective kind across a recorded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KindTotals {
    /// Collective kind name.
    pub kind: String,
    /// Number of invocations.
    pub count: u64,
    /// Sum of per-rank payload bytes passed to the cost model.
    pub bytes: u64,
    /// Sum of critical-path bytes charged.
    pub bytes_charged: u64,
    /// Sum of critical-path messages charged.
    pub msgs: u64,
    /// Sum of modeled α–β seconds.
    pub modeled_s: f64,
}

/// One superstep of a run, with the communication and SpGEMM work
/// issued while it was the latest [`TraceEvent::Superstep`] marker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepTotals {
    /// `forward` or `backward`.
    pub phase: String,
    /// Source-batch index.
    pub batch: usize,
    /// Iteration within the phase.
    pub step: usize,
    /// Frontier nonzeros at the start of the step.
    pub frontier_nnz: u64,
    /// Active frontier rows at the start of the step.
    pub active_rows: u64,
    /// Modeled seconds of the collectives issued in the step (a
    /// nonblocking one counts where it was issued, not where it
    /// completed).
    pub comm_s: f64,
    /// Collectives issued in the step.
    pub collectives: u64,
    /// SpGEMM operations of the step.
    pub spgemm_ops: u64,
    /// SpGEMM plan labels of the step, deduplicated in first-seen
    /// order (not a `profile.json` key).
    pub plans: Vec<String>,
}

crate::row! { StepTotals {
    "phase" => phase,
    "batch" => batch,
    "step" => step,
    "frontier_nnz" => frontier_nnz,
    "active_rows" => active_rows,
    "comm_s" => comm_s,
    "collectives" => collectives,
    "spgemm_ops" => spgemm_ops,
} }

/// Aggregate over one SpGEMM plan label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanMixEntry {
    /// Plan label (e.g. `1d(A)`, `cannon(q=4)`).
    pub plan: String,
    /// Kernel invocations that used this plan.
    pub count: u64,
    /// Summed useful multiply–add operations.
    pub ops: u64,
    /// Summed output nonzeros.
    pub nnz_c: u64,
    /// Times the autotuner picked this plan as winner.
    pub autotune_wins: u64,
}

crate::row! { PlanMixEntry {
    "plan" => plan,
    "count" => count,
    "ops" => ops,
    "nnz_c" => nnz_c,
    "autotune_wins" => autotune_wins,
} }

/// The one fold of a run's event stream: feed it events in stream
/// order ([`Summary::observe`]), read totals out at any point. The
/// tables of this module ([`collective_summary`], [`pool_summary`],
/// [`recovery_summary`]) are this fold over a recorded slice;
/// `mfbc-profile`'s `Profiler` holds one live and `mfbc-timeline`'s
/// builder carries one, and the profile, its Prometheus mirror and
/// the timeline's superstep list are all read from it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Events observed.
    pub events: u64,
    /// Modeled collective seconds issued before the first superstep
    /// (distribution / setup traffic).
    pub setup_comm_s: f64,
    /// Supersteps in stream order.
    pub supersteps: Vec<StepTotals>,
    /// SpGEMM plan mix and autotune wins, by plan label.
    pub plans: BTreeMap<String, PlanMixEntry>,
    /// Autotune decisions observed.
    pub autotune_decisions: u64,
    /// Candidates rejected by the memory gate, across decisions.
    pub autotune_infeasible: u64,
    /// [`TraceEvent::Counter`] values summed by name, in stream order.
    pub counters: BTreeMap<&'static str, f64>,
    /// Bytes moved by redistributions, by what moved.
    pub redist_bytes: BTreeMap<&'static str, u64>,
    /// Recovery `wasted_s` summed in stream order (the per-action sums
    /// of [`Summary::recovery`] group the same additions differently).
    pub recovery_wasted_s: f64,
    /// Every collective's payload bytes, in stream order.
    pub payload_bytes: Vec<u64>,
    kinds: BTreeMap<&'static str, KindTotals>,
    pool: BTreeMap<&'static str, PoolTotals>,
    faults: BTreeMap<&'static str, u64>,
    actions: BTreeMap<&'static str, ActionTotals>,
}

impl Summary {
    /// The fold of a recorded run.
    fn of(records: &[TraceRecord]) -> Summary {
        let mut summary = Summary::default();
        for rec in records {
            summary.observe(&rec.event);
        }
        summary
    }

    /// Folds one event in. Nonblocking collectives carry their cost
    /// on the issue event, so both collective shapes count once each,
    /// in the superstep that issued them.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.events += 1;
        if let Some(c) = event.collective() {
            let entry = self.kinds.entry(c.kind).or_insert_with(|| KindTotals {
                kind: c.kind.to_string(),
                ..KindTotals::default()
            });
            entry.count += 1;
            entry.bytes += c.bytes;
            entry.bytes_charged += c.bytes_charged;
            entry.msgs += c.msgs;
            entry.modeled_s += c.modeled_s;
            match self.supersteps.last_mut() {
                Some(step) => {
                    step.comm_s += c.modeled_s;
                    step.collectives += 1;
                }
                None => self.setup_comm_s += c.modeled_s,
            }
            self.payload_bytes.push(c.bytes);
            return;
        }
        match event {
            TraceEvent::Pool {
                kernel,
                threads,
                tasks,
                busy_us,
                chunk_hist,
            } => {
                let entry = self.pool.entry(kernel).or_insert_with(|| PoolTotals {
                    kernel: (*kernel).to_string(),
                    ..PoolTotals::default()
                });
                entry.calls += 1;
                entry.tasks += tasks;
                entry.busy_us += busy_us.iter().sum::<u64>();
                entry.max_threads = entry.max_threads.max(*threads);
                if entry.chunk_hist.len() < chunk_hist.len() {
                    entry.chunk_hist.resize(chunk_hist.len(), 0);
                }
                for (slot, c) in entry.chunk_hist.iter_mut().zip(chunk_hist) {
                    *slot += c;
                }
            }
            TraceEvent::Fault { kind, .. } => *self.faults.entry(kind).or_insert(0) += 1,
            TraceEvent::Recovery {
                action,
                detail,
                wasted_s,
            } => {
                let entry = self.actions.entry(action).or_insert_with(|| ActionTotals {
                    action: (*action).to_string(),
                    ..ActionTotals::default()
                });
                entry.count += 1;
                entry.wasted_s += wasted_s;
                entry.detail.clone_from(detail);
                self.recovery_wasted_s += wasted_s;
            }
            TraceEvent::Spgemm {
                plan, ops, nnz_c, ..
            } => {
                let entry = self.plan(plan);
                entry.count += 1;
                entry.ops += ops;
                entry.nnz_c += nnz_c;
                if let Some(step) = self.supersteps.last_mut() {
                    step.spgemm_ops += ops;
                    if !step.plans.contains(plan) {
                        step.plans.push(plan.clone());
                    }
                }
            }
            TraceEvent::Autotune {
                candidates, winner, ..
            } => {
                self.autotune_decisions += 1;
                self.autotune_infeasible +=
                    candidates.iter().filter(|c| !c.feasible).count() as u64;
                self.plan(winner).autotune_wins += 1;
            }
            &TraceEvent::Superstep {
                phase,
                batch,
                step,
                frontier_nnz,
                active_rows,
            } => self.supersteps.push(StepTotals {
                phase: phase.to_string(),
                batch,
                step,
                frontier_nnz,
                active_rows,
                ..StepTotals::default()
            }),
            TraceEvent::Redist {
                what, bytes_moved, ..
            } => *self.redist_bytes.entry(what).or_insert(0) += bytes_moved,
            TraceEvent::Counter { name, value } => {
                *self.counters.entry(name).or_insert(0.0) += value
            }
            _ => {}
        }
    }

    /// The plan's mix entry; only a plan not seen before allocates.
    fn plan(&mut self, plan: &str) -> &mut PlanMixEntry {
        if !self.plans.contains_key(plan) {
            let entry = PlanMixEntry {
                plan: plan.to_string(),
                ..PlanMixEntry::default()
            };
            self.plans.insert(plan.to_string(), entry);
        }
        self.plans.get_mut(plan).expect("inserted above")
    }

    /// Per-collective-kind totals, sorted by kind.
    pub fn kinds(&self) -> Vec<KindTotals> {
        self.kinds.values().cloned().collect()
    }

    /// Per-pool-kernel totals, sorted by kernel.
    pub fn pool(&self) -> Vec<PoolTotals> {
        self.pool.values().cloned().collect()
    }

    /// Fault and recovery totals, sorted by kind / action.
    pub fn recovery(&self) -> RecoveryTotals {
        RecoveryTotals {
            faults: self
                .faults
                .iter()
                .map(|(kind, &count)| FaultCount {
                    kind: kind.to_string(),
                    count,
                })
                .collect(),
            actions: self.actions.values().cloned().collect(),
        }
    }

    /// The three text tables of a traced run — collectives by
    /// descending modeled time, pool kernels by descending busy time,
    /// then faults and recoveries (nothing for a fault-free run).
    pub fn render(&self) -> String {
        render_summary(&by_time(self.kinds()))
            + &render_pool_summary(&by_busy(self.pool()))
            + &render_recovery_summary(&self.recovery())
    }
}

fn by_time(mut totals: Vec<KindTotals>) -> Vec<KindTotals> {
    totals.sort_by(|a, b| b.modeled_s.total_cmp(&a.modeled_s));
    totals
}

fn by_busy(mut totals: Vec<PoolTotals>) -> Vec<PoolTotals> {
    totals.sort_by(|a, b| b.busy_us.cmp(&a.busy_us).then(a.kernel.cmp(&b.kernel)));
    totals
}

/// Aggregates all [`TraceEvent::Collective`] and
/// [`TraceEvent::CollectiveIssue`] records per kind, sorted by
/// descending modeled time.
pub fn collective_summary(records: &[TraceRecord]) -> Vec<KindTotals> {
    by_time(Summary::of(records).kinds())
}

/// Sum of modeled seconds over every collective event in the trace.
///
/// Because the machine model synchronizes groups (takes the max over
/// ranks) before adding a collective's time, the critical-path
/// communication time reported by a run can never exceed this sum —
/// a cross-check harnesses assert.
pub fn total_modeled_comm_s(records: &[TraceRecord]) -> f64 {
    records
        .iter()
        .filter_map(|r| r.event.collective())
        .map(|c| c.modeled_s)
        .sum()
}

/// Renders the per-kind totals as an aligned text table.
pub fn render_summary(totals: &[KindTotals]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>14} {:>14} {:>10} {:>12}",
        "collective", "count", "bytes", "charged", "msgs", "modeled_s"
    );
    for t in totals {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>14} {:>14} {:>10} {:>12.3e}",
            t.kind, t.count, t.bytes, t.bytes_charged, t.msgs, t.modeled_s
        );
    }
    if totals.is_empty() {
        let _ = writeln!(out, "(no collective events recorded)");
    }
    out
}

/// Totals for one shared-memory pool kernel across a recorded run
/// (`profile.json`'s `pool` rows carry the first four).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolTotals {
    /// Kernel name (e.g. `spgemm`).
    pub kernel: String,
    /// Number of fan-out calls.
    pub calls: u64,
    /// Total jobs (chunks) executed.
    pub tasks: u64,
    /// Total busy microseconds summed over every participant.
    pub busy_us: u64,
    /// Largest participant count observed for the kernel.
    pub max_threads: usize,
    /// Merged chunk-size histogram (`[b]` counts chunks of size in
    /// `[2^b, 2^{b+1})`).
    pub chunk_hist: Vec<u64>,
}

crate::row! { PoolTotals {
    "kernel" => kernel,
    "calls" => calls,
    "tasks" => tasks,
    "busy_us" => busy_us,
} }

/// Aggregates all [`TraceEvent::Pool`] records per kernel, sorted by
/// descending total busy time.
pub fn pool_summary(records: &[TraceRecord]) -> Vec<PoolTotals> {
    by_busy(Summary::of(records).pool())
}

/// Renders the per-kernel pool totals as an aligned text table. The
/// `chunks` column shows the histogram as `2^b:count` pairs.
pub fn render_pool_summary(totals: &[PoolTotals]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>10} {:>8} {:>12}  chunk sizes",
        "pool kernel", "calls", "tasks", "threads", "busy_us"
    );
    for t in totals {
        let mut hist = String::new();
        for (b, &c) in t.chunk_hist.iter().enumerate() {
            if c > 0 {
                if !hist.is_empty() {
                    hist.push(' ');
                }
                let _ = write!(hist, "2^{b}:{c}");
            }
        }
        if hist.is_empty() {
            hist.push('-');
        }
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>10} {:>8} {:>12}  {}",
            t.kernel, t.calls, t.tasks, t.max_threads, t.busy_us, hist
        );
    }
    if totals.is_empty() {
        let _ = writeln!(out, "(no pool events recorded)");
    }
    out
}

/// Injected faults of one kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultCount {
    /// Fault kind name (`crash`, `transient`, `oom`).
    pub kind: String,
    /// Faults of that kind injected.
    pub count: u64,
}

crate::row! { FaultCount { "kind" => kind, "count" => count } }

/// Recovery actions of one kind across a recorded run
/// (`profile.json`'s `recoveries` rows carry all but the detail).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ActionTotals {
    /// Action name (`retry-batch`, `replan`, `shrink-batch`).
    pub action: String,
    /// Times the action was taken.
    pub count: u64,
    /// Summed modeled seconds of discarded work.
    pub wasted_s: f64,
    /// The last action's detail string.
    pub detail: String,
}

crate::row! { ActionTotals {
    "action" => action,
    "count" => count,
    "wasted_s" => wasted_s,
} }

/// Fault-injection and recovery totals across a recorded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryTotals {
    /// Injected faults per kind, sorted by kind.
    pub faults: Vec<FaultCount>,
    /// Recovery actions, sorted by action.
    pub actions: Vec<ActionTotals>,
}

impl RecoveryTotals {
    /// Total injected faults across kinds.
    pub fn faults_injected(&self) -> u64 {
        self.faults.iter().map(|f| f.count).sum()
    }

    /// Total modeled seconds discarded by rollbacks.
    pub fn wasted_s(&self) -> f64 {
        self.actions.iter().map(|a| a.wasted_s).sum()
    }
}

/// Aggregates [`TraceEvent::Fault`] and [`TraceEvent::Recovery`]
/// records into per-kind / per-action totals.
pub fn recovery_summary(records: &[TraceRecord]) -> RecoveryTotals {
    Summary::of(records).recovery()
}

/// Renders the fault/recovery totals as an aligned text table; empty
/// output (not even a header) for a fault-free run, so the report
/// only appears when there is something to say.
pub fn render_recovery_summary(totals: &RecoveryTotals) -> String {
    let mut out = String::new();
    if totals.faults.is_empty() && totals.actions.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>12}  detail",
        "fault/recovery", "count", "wasted_s"
    );
    for f in &totals.faults {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12}  -",
            format!("fault:{}", f.kind),
            f.count,
            "-"
        );
    }
    for a in &totals.actions {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12.3e}  {}",
            a.action,
            a.count,
            a.wasted_s,
            if a.detail.is_empty() { "-" } else { &a.detail }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CollectiveCharge;

    fn coll(kind: &'static str, bytes: u64, modeled_s: f64) -> TraceRecord {
        TraceRecord {
            ts_us: 0,
            tid: 0,
            event: TraceEvent::Collective {
                charge: CollectiveCharge {
                    kind,
                    group: 4,
                    ranks: vec![0, 1, 2, 3],
                    seq: 0,
                    bytes,
                    msgs: 2,
                    bytes_charged: 2 * bytes,
                    modeled_s,
                },
            },
        }
    }

    #[test]
    fn summary_groups_and_sorts_by_time() {
        let records = vec![
            coll("bcast", 10, 1.0),
            coll("allgather", 20, 5.0),
            coll("bcast", 30, 2.0),
        ];
        let totals = collective_summary(&records);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].kind, "allgather");
        assert_eq!(totals[1].kind, "bcast");
        assert_eq!(totals[1].count, 2);
        assert_eq!(totals[1].bytes, 40);
        assert_eq!(totals[1].bytes_charged, 80);
        assert_eq!(totals[1].msgs, 4);
        assert!((totals[1].modeled_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn total_comm_ignores_non_collectives() {
        let mut records = vec![coll("bcast", 1, 0.25)];
        records.push(TraceRecord {
            ts_us: 0,
            tid: 0,
            event: TraceEvent::Counter {
                name: "x",
                value: 9.0,
            },
        });
        assert!((total_modeled_comm_s(&records) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn render_handles_empty() {
        assert!(render_summary(&[]).contains("no collective events"));
        let text = render_summary(&collective_summary(&[coll("scatter", 8, 0.5)]));
        assert!(text.contains("scatter"));
    }

    fn pool(kernel: &'static str, threads: usize, tasks: u64, hist: Vec<u64>) -> TraceRecord {
        TraceRecord {
            ts_us: 0,
            tid: 0,
            event: TraceEvent::Pool {
                kernel,
                threads,
                tasks,
                busy_us: vec![10; threads],
                chunk_hist: hist,
            },
        }
    }

    #[test]
    fn pool_summary_merges_histograms() {
        let records = vec![
            pool("spgemm", 4, 8, vec![0, 2, 6]),
            pool("spgemm", 2, 4, vec![1, 3]),
            pool("transpose", 4, 4, vec![4]),
        ];
        let totals = pool_summary(&records);
        assert_eq!(totals.len(), 2);
        let sp = totals.iter().find(|t| t.kernel == "spgemm").unwrap();
        assert_eq!(sp.calls, 2);
        assert_eq!(sp.tasks, 12);
        assert_eq!(sp.max_threads, 4);
        assert_eq!(sp.busy_us, 4 * 10 + 2 * 10);
        assert_eq!(sp.chunk_hist, vec![1, 5, 6]);
    }

    #[test]
    fn recovery_summary_groups_faults_and_actions() {
        let mk = |event| TraceRecord {
            ts_us: 0,
            tid: 0,
            event,
        };
        let records = vec![
            mk(TraceEvent::Fault {
                kind: "crash",
                rank: Some(3),
                seq: 5,
            }),
            mk(TraceEvent::Fault {
                kind: "oom",
                rank: Some(0),
                seq: 9,
            }),
            mk(TraceEvent::Recovery {
                action: "replan",
                detail: "p=8->7 plan=auto".into(),
                wasted_s: 1.5,
            }),
            mk(TraceEvent::Recovery {
                action: "replan",
                detail: "p=7->6 plan=auto".into(),
                wasted_s: 0.5,
            }),
        ];
        let totals = recovery_summary(&records);
        assert_eq!(totals.faults_injected(), 2);
        assert_eq!(totals.actions.len(), 1);
        assert_eq!(totals.actions[0].action, "replan");
        assert_eq!(totals.actions[0].count, 2);
        assert!((totals.wasted_s() - 2.0).abs() < 1e-12);
        assert_eq!(totals.actions[0].detail, "p=7->6 plan=auto");
        let text = render_recovery_summary(&totals);
        assert!(text.contains("fault:crash"));
        assert!(text.contains("replan"));
        assert!(text.contains("p=7->6"));
        // Fault-free runs render nothing at all.
        assert!(render_recovery_summary(&RecoveryTotals::default()).is_empty());
    }

    #[test]
    fn pool_render_shows_buckets_and_empty() {
        assert!(render_pool_summary(&[]).contains("no pool events"));
        let text = render_pool_summary(&pool_summary(&[pool("spgemm", 4, 8, vec![0, 2])]));
        assert!(text.contains("spgemm"));
        assert!(text.contains("2^1:2"));
        assert!(!text.contains("2^0:"));
    }
}
