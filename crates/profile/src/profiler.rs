//! The [`Profiler`]: a [`Recorder`] sink that aggregates the trace
//! stream into a [`Profile`] — per-rank and per-superstep breakdowns,
//! plan mix, collective shares, and fault/recovery waste.
//!
//! The profiler is streaming: it keeps O(kinds + supersteps) state,
//! never the raw event log, so it can ride along any run that the
//! `MemoryRecorder` would be too heavy for. It also mirrors its
//! aggregates into a [`MetricsRegistry`] for Prometheus export.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mfbc_machine::Machine;
use mfbc_trace::json::Version;
use mfbc_trace::{row, FaultCount, Recorder, Summary, TraceEvent};

use crate::export::PROFILE_JSON_VERSION;
use crate::registry::{MetricKind, MetricsRegistry};

/// Aggregate over one collective kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectiveProfile {
    /// Collective kind name (e.g. `allgather`).
    pub kind: String,
    /// Invocations observed.
    pub count: u64,
    /// Summed modeled seconds across invocations.
    pub modeled_s: f64,
    /// Summed critical-path messages.
    pub msgs: u64,
    /// Summed critical-path bytes.
    pub bytes: u64,
    /// Share of this kind in the summed modeled collective seconds
    /// (0 when no collective time was observed).
    pub share: f64,
}

row! { CollectiveProfile {
    "kind" => kind,
    "count" => count,
    "modeled_s" => modeled_s,
    "msgs" => msgs,
    "bytes" => bytes,
    "share" => share,
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

row! { PlanMixEntry {
    "plan" => plan,
    "count" => count,
    "ops" => ops,
    "nnz_c" => nnz_c,
    "autotune_wins" => autotune_wins,
} }

/// One MFBC superstep with the communication attributed to it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuperstepProfile {
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
    /// Modeled seconds of collectives attributed to this step.
    pub comm_s: f64,
    /// Collectives attributed to this step.
    pub collectives: u64,
    /// SpGEMM operations attributed to this step.
    pub spgemm_ops: u64,
}

row! { SuperstepProfile {
    "phase" => phase,
    "batch" => batch,
    "step" => step,
    "frontier_nnz" => frontier_nnz,
    "active_rows" => active_rows,
    "comm_s" => comm_s,
    "collectives" => collectives,
    "spgemm_ops" => spgemm_ops,
} }

/// Aggregate over one recovery action kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryProfile {
    /// Action name (`retry-batch`, `replan`, `shrink-batch`).
    pub action: String,
    /// Times the action was taken.
    pub count: u64,
    /// Summed modeled seconds of discarded work.
    pub wasted_s: f64,
}

row! { RecoveryProfile {
    "action" => action,
    "count" => count,
    "wasted_s" => wasted_s,
} }

/// Aggregate over one pool kernel.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolProfile {
    /// Kernel name (e.g. `spgemm`).
    pub kernel: String,
    /// Fan-out calls observed.
    pub calls: u64,
    /// Total chunks executed.
    pub tasks: u64,
    /// Total busy microseconds across participants.
    pub busy_us: u64,
}

row! { PoolProfile {
    "kernel" => kernel,
    "calls" => calls,
    "tasks" => tasks,
    "busy_us" => busy_us,
} }

/// Per-rank modeled costs and memory, pulled from the [`Machine`] at
/// [`Profiler::finish`] time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankProfile {
    /// Rank id.
    pub rank: usize,
    /// Modeled communication seconds on this rank's dependent path.
    pub comm_s: f64,
    /// Modeled computation seconds.
    pub comp_s: f64,
    /// Critical-path messages.
    pub msgs: u64,
    /// Critical-path bytes.
    pub bytes: u64,
    /// Resident bytes at finish time.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes over the whole run.
    pub peak_bytes: u64,
}

row! { RankProfile {
    "rank" => rank,
    "comm_s" => comm_s,
    "comp_s" => comp_s,
    "msgs" => msgs,
    "bytes" => bytes,
    "resident_bytes" => resident_bytes,
    "peak_bytes" => peak_bytes,
} }

impl RankProfile {
    /// Modeled *busy* seconds for this rank (comm + compute). The
    /// meters behind this are mode-independent: under overlapped
    /// accounting a rank's causal clock can be smaller than its busy
    /// time because in-flight collective bandwidth hides under
    /// compute, but the work charged here is the same either way.
    pub fn total_s(&self) -> f64 {
        self.comm_s + self.comp_s
    }
}

/// The machine's critical path: the maxima over ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalProfile {
    /// Modeled comm seconds on the critical path (max over ranks).
    pub comm_s: f64,
    /// Modeled compute seconds on the critical path.
    pub comp_s: f64,
    /// Total useful operations across ranks.
    pub total_ops: u64,
}

row! { CriticalProfile {
    "comm_s" => comm_s,
    "comp_s" => comp_s,
    "total_ops" => total_ops,
} }

/// Autotuner activity over the run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AutotuneProfile {
    /// Autotune decisions observed.
    pub decisions: u64,
    /// Candidates rejected by the memory gate across decisions.
    pub infeasible: u64,
}

row! { AutotuneProfile { "decisions" => decisions, "infeasible" => infeasible } }

/// The finished profile: everything the exporters render, in the
/// order `profile.json` lists it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// `profile.json`'s format version.
    pub version: Version<PROFILE_JSON_VERSION>,
    /// Ranks in the machine the profile was finished against.
    pub p: usize,
    /// Trace events consumed.
    pub events: u64,
    /// Load imbalance: max over ranks of modeled total time divided
    /// by the mean (1.0 = perfectly balanced; 0 when no time accrued).
    pub imbalance: f64,
    /// Critical-path seconds and total operations.
    pub critical: CriticalProfile,
    /// Modeled collective seconds observed before the first superstep
    /// (distribution / setup traffic).
    pub setup_comm_s: f64,
    /// Modeled seconds of work discarded across all recoveries.
    pub wasted_s: f64,
    /// Autotune decisions and memory-gate rejections.
    pub autotune: AutotuneProfile,
    /// Per-rank breakdown, indexed by rank.
    pub ranks: Vec<RankProfile>,
    /// Per-collective-kind aggregates, sorted by kind.
    pub collectives: Vec<CollectiveProfile>,
    /// Supersteps in emission order.
    pub supersteps: Vec<SuperstepProfile>,
    /// SpGEMM plan mix, sorted by plan label.
    pub plan_mix: Vec<PlanMixEntry>,
    /// Fault counts by kind, sorted by kind.
    pub faults: Vec<FaultCount>,
    /// Recovery actions, sorted by action.
    pub recoveries: Vec<RecoveryProfile>,
    /// Shared-memory pool aggregates, sorted by kernel.
    pub pool: Vec<PoolProfile>,
}

row! { Profile {
    "version" => version,
    "p" => p,
    "events" => events,
    "imbalance" => imbalance,
    "critical" => critical,
    "setup_comm_s" => setup_comm_s,
    "wasted_s" => wasted_s,
    "autotune" => autotune,
    "ranks" => ranks,
    "collectives" => collectives,
    "supersteps" => supersteps,
    "plan_mix" => plan_mix,
    "faults" => faults,
    "recoveries" => recoveries,
    "pool" => pool,
} }

impl Profile {
    /// Largest modeled per-rank total time (the utilization
    /// denominator; 0 when no rank accrued time).
    pub fn max_rank_total_s(&self) -> f64 {
        self.ranks
            .iter()
            .map(RankProfile::total_s)
            .fold(0.0, f64::max)
    }

    /// Largest per-rank memory high-water mark in bytes.
    pub fn max_peak_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.peak_bytes).max().unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct PlanAgg {
    count: u64,
    ops: u64,
    nnz_c: u64,
    wins: u64,
}

/// The per-kind, pool, fault and recovery totals are `mfbc-trace`'s
/// [`Summary`] fold; the rest is what only a profile attributes.
#[derive(Debug, Default)]
struct State {
    events: u64,
    summary: Summary,
    setup_comm_s: f64,
    supersteps: Vec<SuperstepProfile>,
    plan_mix: BTreeMap<String, PlanAgg>,
    autotune: AutotuneProfile,
}

/// A [`Recorder`] that aggregates trace events into a [`Profile`].
#[derive(Debug)]
pub struct Profiler {
    registry: Arc<MetricsRegistry>,
    state: Mutex<State>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler with its own registry.
    pub fn new() -> Profiler {
        Profiler::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// A profiler writing into a caller-supplied registry (so several
    /// instruments can share one Prometheus exposition).
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Profiler {
        declare_metrics(&registry);
        Profiler {
            registry,
            state: Mutex::new(State::default()),
        }
    }

    /// The registry this profiler mirrors its aggregates into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Seals the stream aggregates with the machine's per-rank meters
    /// and memory high-water marks, producing the final [`Profile`].
    ///
    /// Per-rank numbers come from the machine meters, which are
    /// authoritative (the timeline analyzer independently rebuilds
    /// them from the rank-attributed trace events and cross-checks
    /// against these); pass the machine the run actually finished on —
    /// after a crash-shrink that is the shrunk machine.
    pub fn finish(&self, machine: &Machine) -> Profile {
        let costs = machine.rank_costs();
        let snap = machine.memory_snapshot();
        let report = machine.report();
        let state = self.state.lock().expect("profiler state lock");

        let ranks: Vec<RankProfile> = costs
            .iter()
            .enumerate()
            .map(|(r, c)| RankProfile {
                rank: r,
                comm_s: c.comm_time,
                comp_s: c.comp_time,
                msgs: c.msgs,
                bytes: c.bytes,
                resident_bytes: snap.resident()[r],
                peak_bytes: snap.peak()[r],
            })
            .collect();

        let totals: Vec<f64> = ranks.iter().map(RankProfile::total_s).collect();
        let max_t = totals.iter().copied().fold(0.0, f64::max);
        let mean_t = if totals.is_empty() {
            0.0
        } else {
            totals.iter().sum::<f64>() / totals.len() as f64
        };
        let imbalance = if mean_t > 0.0 { max_t / mean_t } else { 0.0 };

        let kinds = state.summary.kinds();
        let coll_total: f64 = kinds.iter().map(|k| k.modeled_s).sum();
        let collectives: Vec<CollectiveProfile> = kinds
            .into_iter()
            .map(|k| CollectiveProfile {
                kind: k.kind,
                count: k.count,
                modeled_s: k.modeled_s,
                msgs: k.msgs,
                bytes: k.bytes_charged,
                share: if coll_total > 0.0 {
                    k.modeled_s / coll_total
                } else {
                    0.0
                },
            })
            .collect();

        let plan_mix: Vec<PlanMixEntry> = state
            .plan_mix
            .iter()
            .map(|(plan, a)| PlanMixEntry {
                plan: plan.clone(),
                count: a.count,
                ops: a.ops,
                nnz_c: a.nnz_c,
                autotune_wins: a.wins,
            })
            .collect();

        let recovery = state.summary.recovery();
        let recoveries: Vec<RecoveryProfile> = recovery
            .actions
            .into_iter()
            .map(|(action, count, wasted_s, _)| RecoveryProfile {
                action,
                count,
                wasted_s,
            })
            .collect();
        let wasted_s = recoveries.iter().map(|r| r.wasted_s).sum();

        let pool: Vec<PoolProfile> = state
            .summary
            .pool()
            .into_iter()
            .map(|k| PoolProfile {
                kernel: k.kernel,
                calls: k.calls,
                tasks: k.tasks,
                busy_us: k.busy_us,
            })
            .collect();

        for r in &ranks {
            let rank = r.rank.to_string();
            let l = [("rank", rank.as_str())];
            self.registry
                .gauge_set("mfbc_rank_comm_seconds", &l, r.comm_s);
            self.registry
                .gauge_set("mfbc_rank_comp_seconds", &l, r.comp_s);
            self.registry.gauge_set("mfbc_rank_msgs", &l, r.msgs as f64);
            self.registry
                .gauge_set("mfbc_rank_bytes", &l, r.bytes as f64);
            self.registry
                .gauge_set("mfbc_rank_resident_bytes", &l, r.resident_bytes as f64);
            self.registry
                .gauge_set("mfbc_rank_peak_bytes", &l, r.peak_bytes as f64);
        }
        self.registry
            .gauge_set("mfbc_ranks", &[], ranks.len() as f64);
        self.registry
            .gauge_set("mfbc_load_imbalance", &[], imbalance);
        self.registry
            .gauge_set("mfbc_critical_comm_seconds", &[], report.critical.comm_time);
        self.registry
            .gauge_set("mfbc_critical_comp_seconds", &[], report.critical.comp_time);
        self.registry
            .gauge_set("mfbc_total_ops", &[], report.total_ops as f64);

        Profile {
            version: Version,
            p: ranks.len(),
            events: state.events,
            imbalance,
            critical: CriticalProfile {
                comm_s: report.critical.comm_time,
                comp_s: report.critical.comp_time,
                total_ops: report.total_ops,
            },
            setup_comm_s: state.setup_comm_s,
            wasted_s,
            autotune: state.autotune.clone(),
            ranks,
            collectives,
            supersteps: state.supersteps.clone(),
            plan_mix,
            faults: recovery.faults,
            recoveries,
            pool,
        }
    }
}

fn declare_metrics(r: &MetricsRegistry) {
    r.declare(
        "mfbc_trace_events_total",
        MetricKind::Counter,
        "Trace events consumed by the profiler",
    );
    r.declare(
        "mfbc_collectives_total",
        MetricKind::Counter,
        "Collective invocations by kind",
    );
    r.declare(
        "mfbc_collective_modeled_seconds_total",
        MetricKind::Counter,
        "Summed modeled collective seconds by kind",
    );
    r.declare(
        "mfbc_collective_payload_bytes",
        MetricKind::Histogram,
        "Per-invocation collective payload bytes",
    );
    r.declare(
        "mfbc_spgemm_total",
        MetricKind::Counter,
        "SpGEMM kernel invocations by plan",
    );
    r.declare(
        "mfbc_spgemm_ops_total",
        MetricKind::Counter,
        "Useful multiply-add operations by plan",
    );
    r.declare(
        "mfbc_frontier_nnz",
        MetricKind::Histogram,
        "Frontier nonzeros at each superstep",
    );
    r.declare(
        "mfbc_supersteps_total",
        MetricKind::Counter,
        "Supersteps by phase",
    );
    r.declare(
        "mfbc_redist_bytes_total",
        MetricKind::Counter,
        "Bytes moved by tensor redistributions, by what moved",
    );
    r.declare(
        "mfbc_autotune_total",
        MetricKind::Counter,
        "Autotune decisions",
    );
    r.declare(
        "mfbc_autotune_wins_total",
        MetricKind::Counter,
        "Autotune wins by plan",
    );
    r.declare("mfbc_faults_total", MetricKind::Counter, "Faults by kind");
    r.declare(
        "mfbc_recovery_total",
        MetricKind::Counter,
        "Recovery actions by action",
    );
    r.declare(
        "mfbc_recovery_wasted_seconds_total",
        MetricKind::Counter,
        "Modeled seconds of work discarded by recoveries",
    );
    r.declare(
        "mfbc_pool_tasks_total",
        MetricKind::Counter,
        "Thread-pool chunks executed by kernel",
    );
    r.declare(
        "mfbc_pool_busy_microseconds_total",
        MetricKind::Counter,
        "Thread-pool busy microseconds by kernel",
    );
    r.declare(
        "mfbc_counter_total",
        MetricKind::Counter,
        "Accumulated TraceEvent::Counter samples by name",
    );
    r.declare(
        "mfbc_rank_comm_seconds",
        MetricKind::Gauge,
        "Modeled communication seconds by rank",
    );
    r.declare(
        "mfbc_rank_comp_seconds",
        MetricKind::Gauge,
        "Modeled computation seconds by rank",
    );
    r.declare(
        "mfbc_rank_msgs",
        MetricKind::Gauge,
        "Critical-path messages by rank",
    );
    r.declare(
        "mfbc_rank_bytes",
        MetricKind::Gauge,
        "Critical-path bytes by rank",
    );
    r.declare(
        "mfbc_rank_resident_bytes",
        MetricKind::Gauge,
        "Resident bytes by rank at finish",
    );
    r.declare(
        "mfbc_rank_peak_bytes",
        MetricKind::Gauge,
        "Memory high-water mark by rank",
    );
    r.declare("mfbc_ranks", MetricKind::Gauge, "Ranks in the machine");
    r.declare(
        "mfbc_load_imbalance",
        MetricKind::Gauge,
        "Max over mean of per-rank modeled total seconds",
    );
    r.declare(
        "mfbc_critical_comm_seconds",
        MetricKind::Gauge,
        "Critical-path modeled communication seconds",
    );
    r.declare(
        "mfbc_critical_comp_seconds",
        MetricKind::Gauge,
        "Critical-path modeled computation seconds",
    );
    r.declare(
        "mfbc_total_ops",
        MetricKind::Gauge,
        "Total useful operations",
    );
}

impl Recorder for Profiler {
    fn record(&self, event: TraceEvent) {
        let reg = &self.registry;
        let mut st = self.state.lock().expect("profiler state lock");
        st.events += 1;
        reg.counter_add("mfbc_trace_events_total", &[], 1.0);
        st.summary.observe(&event);
        // Nonblocking collectives carry their full cost on the issue
        // event; the superstep attribution happens at issue so
        // overlapped and blocking runs bucket identically.
        if let Some(c) = event.collective() {
            match st.supersteps.last_mut() {
                Some(step) => {
                    step.comm_s += c.modeled_s;
                    step.collectives += 1;
                }
                None => st.setup_comm_s += c.modeled_s,
            }
            let l = [("kind", c.kind)];
            reg.counter_add("mfbc_collectives_total", &l, 1.0);
            reg.counter_add("mfbc_collective_modeled_seconds_total", &l, c.modeled_s);
            reg.observe("mfbc_collective_payload_bytes", &[], c.bytes as f64);
            return;
        }
        match event {
            TraceEvent::Spgemm {
                plan, ops, nnz_c, ..
            } => {
                let agg = st.plan_mix.entry(plan.clone()).or_default();
                agg.count += 1;
                agg.ops += ops;
                agg.nnz_c += nnz_c;
                if let Some(step) = st.supersteps.last_mut() {
                    step.spgemm_ops += ops;
                }
                let l = [("plan", plan.as_str())];
                reg.counter_add("mfbc_spgemm_total", &l, 1.0);
                reg.counter_add("mfbc_spgemm_ops_total", &l, ops as f64);
            }
            TraceEvent::Redist {
                what, bytes_moved, ..
            } => {
                reg.counter_add(
                    "mfbc_redist_bytes_total",
                    &[("what", what)],
                    bytes_moved as f64,
                );
            }
            TraceEvent::Autotune {
                candidates, winner, ..
            } => {
                st.autotune.decisions += 1;
                st.autotune.infeasible += candidates.iter().filter(|c| !c.feasible).count() as u64;
                st.plan_mix.entry(winner.clone()).or_default().wins += 1;
                reg.counter_add("mfbc_autotune_total", &[], 1.0);
                reg.counter_add(
                    "mfbc_autotune_wins_total",
                    &[("plan", winner.as_str())],
                    1.0,
                );
            }
            TraceEvent::Superstep {
                phase,
                batch,
                step,
                frontier_nnz,
                active_rows,
            } => {
                st.supersteps.push(SuperstepProfile {
                    phase: phase.to_string(),
                    batch,
                    step,
                    frontier_nnz,
                    active_rows,
                    comm_s: 0.0,
                    collectives: 0,
                    spgemm_ops: 0,
                });
                reg.counter_add("mfbc_supersteps_total", &[("phase", phase)], 1.0);
                reg.observe("mfbc_frontier_nnz", &[], frontier_nnz as f64);
            }
            TraceEvent::Pool {
                kernel,
                tasks,
                busy_us,
                ..
            } => {
                let busy: u64 = busy_us.iter().sum();
                let l = [("kernel", kernel)];
                reg.counter_add("mfbc_pool_tasks_total", &l, tasks as f64);
                reg.counter_add("mfbc_pool_busy_microseconds_total", &l, busy as f64);
            }
            TraceEvent::Fault { kind, .. } => {
                reg.counter_add("mfbc_faults_total", &[("kind", kind)], 1.0);
            }
            TraceEvent::Recovery {
                action, wasted_s, ..
            } => {
                reg.counter_add("mfbc_recovery_total", &[("action", action)], 1.0);
                reg.counter_add("mfbc_recovery_wasted_seconds_total", &[], wasted_s);
            }
            TraceEvent::Counter { name, value } => {
                reg.counter_add("mfbc_counter_total", &[("name", name)], value);
            }
            // Everything else is counted in `events` and otherwise
            // ignored. Per-rank compute/backoff/shrink attribution is
            // the timeline analyzer's domain (the profiler's per-rank
            // numbers are sealed from the machine meters in `finish`);
            // the serve engine's decisions are counted by its own
            // registry and kept in its flight recorder.
            _ => {}
        }
    }
}
