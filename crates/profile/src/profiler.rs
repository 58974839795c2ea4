//! The [`Profile`]: a projection of the run's one stream fold,
//! [`mfbc_trace::Summary`], plus the machine it finished on —
//! per-rank and per-superstep breakdowns, plan mix, collective
//! shares, and fault/recovery waste ([`Profile::of`]). [`mirror`]
//! writes the fold and the profile into a [`MetricsRegistry`] for
//! Prometheus export, in one pass at the end of the run.
//!
//! The [`Profiler`] is the thinnest recorder that yields a profile:
//! a [`Summary`] behind a lock, projected and mirrored at
//! [`Profiler::finish`]. A run that installs a timeline builder reads
//! the same fold from the timeline instead.

use std::sync::{Arc, Mutex};

use mfbc_machine::Machine;
use mfbc_trace::json::Version;
use mfbc_trace::{
    row, ActionTotals, FaultCount, PlanMixEntry, PoolTotals, Recorder, StepTotals, Summary,
    TraceEvent,
};

use crate::export::PROFILE_JSON_VERSION;
use crate::registry::MetricKind::{self, Counter, Gauge, Histogram};
use crate::registry::MetricsRegistry;

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

/// Per-rank modeled costs and memory, pulled from the [`Machine`] by
/// [`Profile::of`].
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
    pub supersteps: Vec<StepTotals>,
    /// SpGEMM plan mix, sorted by plan label.
    pub plan_mix: Vec<PlanMixEntry>,
    /// Fault counts by kind, sorted by kind.
    pub faults: Vec<FaultCount>,
    /// Recovery actions, sorted by action.
    pub recoveries: Vec<ActionTotals>,
    /// Shared-memory pool aggregates, sorted by kernel.
    pub pool: Vec<PoolTotals>,
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

    /// The profile of a run: the fold's stream aggregates sealed with
    /// the machine's per-rank meters and memory high-water marks.
    ///
    /// Per-rank numbers come from the machine meters, which are
    /// authoritative (the timeline analyzer independently rebuilds
    /// them from the rank-attributed trace events and cross-checks
    /// against these); pass the machine the run actually finished on —
    /// after a crash-shrink that is the shrunk machine.
    pub fn of(summary: &Summary, machine: &Machine) -> Profile {
        let costs = machine.rank_costs();
        let snap = machine.memory_snapshot();
        let report = machine.report();

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

        let kinds = summary.kinds();
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

        let recovery = summary.recovery();

        Profile {
            version: Version,
            p: ranks.len(),
            events: summary.events,
            imbalance,
            critical: CriticalProfile {
                comm_s: report.critical.comm_time,
                comp_s: report.critical.comp_time,
                total_ops: report.total_ops,
            },
            setup_comm_s: summary.setup_comm_s,
            wasted_s: recovery.wasted_s(),
            autotune: AutotuneProfile {
                decisions: summary.autotune_decisions,
                infeasible: summary.autotune_infeasible,
            },
            ranks,
            collectives,
            supersteps: summary.supersteps.clone(),
            plan_mix: summary.plans.values().cloned().collect(),
            faults: recovery.faults,
            recoveries: recovery.actions,
            pool: summary.pool(),
        }
    }
}

/// Writes a run's metrics into `r`: every family declared, counters
/// and histograms from the fold, gauges from the profile. A sample
/// exists only for what the stream held, and each counter or histogram
/// sum is the fold's own, so its additions are the stream's, in stream
/// order.
pub fn mirror(r: &MetricsRegistry, summary: &Summary, profile: &Profile) {
    for &(name, kind, help) in FAMILIES {
        r.declare(name, kind, help);
    }
    if summary.events > 0 {
        r.counter_add("mfbc_trace_events_total", &[], summary.events as f64);
    }
    for k in summary.kinds() {
        let l = [("kind", k.kind.as_str())];
        r.counter_add("mfbc_collectives_total", &l, k.count as f64);
        r.counter_add("mfbc_collective_modeled_seconds_total", &l, k.modeled_s);
    }
    for &bytes in &summary.payload_bytes {
        r.observe("mfbc_collective_payload_bytes", &[], bytes as f64);
    }
    for m in summary.plans.values() {
        let l = [("plan", m.plan.as_str())];
        if m.count > 0 {
            r.counter_add("mfbc_spgemm_total", &l, m.count as f64);
            r.counter_add("mfbc_spgemm_ops_total", &l, m.ops as f64);
        }
        if m.autotune_wins > 0 {
            r.counter_add("mfbc_autotune_wins_total", &l, m.autotune_wins as f64);
        }
    }
    if summary.autotune_decisions > 0 {
        let decisions = summary.autotune_decisions as f64;
        r.counter_add("mfbc_autotune_total", &[], decisions);
    }
    for s in &summary.supersteps {
        r.counter_add("mfbc_supersteps_total", &[("phase", &s.phase)], 1.0);
        r.observe("mfbc_frontier_nnz", &[], s.frontier_nnz as f64);
    }
    for (what, &bytes) in &summary.redist_bytes {
        r.counter_add("mfbc_redist_bytes_total", &[("what", what)], bytes as f64);
    }
    for w in summary.pool() {
        let l = [("kernel", w.kernel.as_str())];
        r.counter_add("mfbc_pool_tasks_total", &l, w.tasks as f64);
        r.counter_add("mfbc_pool_busy_microseconds_total", &l, w.busy_us as f64);
    }
    for f in &profile.faults {
        r.counter_add("mfbc_faults_total", &[("kind", &f.kind)], f.count as f64);
    }
    for a in &profile.recoveries {
        r.counter_add(
            "mfbc_recovery_total",
            &[("action", &a.action)],
            a.count as f64,
        );
    }
    if !profile.recoveries.is_empty() {
        let wasted_s = summary.recovery_wasted_s;
        r.counter_add("mfbc_recovery_wasted_seconds_total", &[], wasted_s);
    }
    for (name, &value) in &summary.counters {
        r.counter_add("mfbc_counter_total", &[("name", name)], value);
    }
    for rank in &profile.ranks {
        let label = rank.rank.to_string();
        let l = [("rank", label.as_str())];
        r.gauge_set("mfbc_rank_comm_seconds", &l, rank.comm_s);
        r.gauge_set("mfbc_rank_comp_seconds", &l, rank.comp_s);
        r.gauge_set("mfbc_rank_msgs", &l, rank.msgs as f64);
        r.gauge_set("mfbc_rank_bytes", &l, rank.bytes as f64);
        r.gauge_set("mfbc_rank_resident_bytes", &l, rank.resident_bytes as f64);
        r.gauge_set("mfbc_rank_peak_bytes", &l, rank.peak_bytes as f64);
    }
    r.gauge_set("mfbc_ranks", &[], profile.p as f64);
    r.gauge_set("mfbc_load_imbalance", &[], profile.imbalance);
    let critical = &profile.critical;
    r.gauge_set("mfbc_critical_comm_seconds", &[], critical.comm_s);
    r.gauge_set("mfbc_critical_comp_seconds", &[], critical.comp_s);
    r.gauge_set("mfbc_total_ops", &[], critical.total_ops as f64);
}

/// A [`Recorder`] that folds the stream into a [`Summary`] and
/// projects it into a [`Profile`] at [`Profiler::finish`].
#[derive(Debug, Default)]
pub struct Profiler {
    registry: Arc<MetricsRegistry>,
    summary: Mutex<Summary>,
}

impl Profiler {
    /// A fresh profiler with its own registry.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// The registry [`Profiler::finish`] mirrors the run into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The [`Profile`] of the events so far against `machine` (see
    /// [`Profile::of`]); rewrites the registry with its [`mirror`], so
    /// finishing twice renders the same text.
    pub fn finish(&self, machine: &Machine) -> Profile {
        let summary = self.summary.lock().expect("profiler fold lock");
        let profile = Profile::of(&summary, machine);
        self.registry.clear();
        mirror(&self.registry, &summary, &profile);
        profile
    }
}

/// Every family [`mirror`] writes: name, kind, help text.
#[rustfmt::skip]
const FAMILIES: &[(&str, MetricKind, &str)] = &[
    ("mfbc_trace_events_total", Counter, "Trace events consumed by the profiler"),
    ("mfbc_collectives_total", Counter, "Collective invocations by kind"),
    ("mfbc_collective_modeled_seconds_total", Counter, "Summed modeled collective seconds by kind"),
    ("mfbc_collective_payload_bytes", Histogram, "Per-invocation collective payload bytes"),
    ("mfbc_spgemm_total", Counter, "SpGEMM kernel invocations by plan"),
    ("mfbc_spgemm_ops_total", Counter, "Useful multiply-add operations by plan"),
    ("mfbc_frontier_nnz", Histogram, "Frontier nonzeros at each superstep"),
    ("mfbc_supersteps_total", Counter, "Supersteps by phase"),
    ("mfbc_redist_bytes_total", Counter, "Bytes moved by tensor redistributions, by what moved"),
    ("mfbc_autotune_total", Counter, "Autotune decisions"),
    ("mfbc_autotune_wins_total", Counter, "Autotune wins by plan"),
    ("mfbc_faults_total", Counter, "Faults by kind"),
    ("mfbc_recovery_total", Counter, "Recovery actions by action"),
    ("mfbc_recovery_wasted_seconds_total", Counter, "Modeled seconds of work discarded by recoveries"),
    ("mfbc_pool_tasks_total", Counter, "Thread-pool chunks executed by kernel"),
    ("mfbc_pool_busy_microseconds_total", Counter, "Thread-pool busy microseconds by kernel"),
    ("mfbc_counter_total", Counter, "Accumulated TraceEvent::Counter samples by name"),
    ("mfbc_rank_comm_seconds", Gauge, "Modeled communication seconds by rank"),
    ("mfbc_rank_comp_seconds", Gauge, "Modeled computation seconds by rank"),
    ("mfbc_rank_msgs", Gauge, "Critical-path messages by rank"),
    ("mfbc_rank_bytes", Gauge, "Critical-path bytes by rank"),
    ("mfbc_rank_resident_bytes", Gauge, "Resident bytes by rank at finish"),
    ("mfbc_rank_peak_bytes", Gauge, "Memory high-water mark by rank"),
    ("mfbc_ranks", Gauge, "Ranks in the machine"),
    ("mfbc_load_imbalance", Gauge, "Max over mean of per-rank modeled total seconds"),
    ("mfbc_critical_comm_seconds", Gauge, "Critical-path modeled communication seconds"),
    ("mfbc_critical_comp_seconds", Gauge, "Critical-path modeled computation seconds"),
    ("mfbc_total_ops", Gauge, "Total useful operations"),
];

impl Recorder for Profiler {
    fn record(&self, event: TraceEvent) {
        let mut summary = self.summary.lock().expect("profiler fold lock");
        summary.observe(&event);
    }
}
