//! Replays the `mfbc-trace` event stream into per-rank causal
//! timelines.
//!
//! The machine model is bulk-synchronous: compute segments chain
//! within a rank, and a collective synchronizes its group (every
//! participant's clock is raised to the group maximum before the
//! collective's modeled time is added). Under overlapped accounting
//! (`MachineSpec::overlap`) a collective instead completes at
//! `max(ready + α, issue + dt)`, where `issue` is the group's last
//! synchronization point when the collective was issued — its
//! bandwidth term hides under whatever local compute ran in between,
//! and only the latency α stays on the critical path. The builder
//! replays exactly the machine's recurrence on a causal clock (and a
//! last-synchronization clock) per rank, so the resulting per-rank
//! end times — and the makespan, their maximum — are *derived from
//! the trace alone*, bit-for-bit reproducible, and decomposable into
//! the exact chain of additions that produced them (see
//! [`crate::critical`]).
//!
//! Alongside the causal clocks the builder maintains a replica of the
//! machine's per-rank [`RankCost`] meters (same elementwise-max
//! synchronization); [`Timeline::validate_against`] cross-checks it
//! against the live machine to prove the trace is complete.

use mfbc_machine::{CollectiveKind, Machine, MachineSpec, RankCost};
use mfbc_trace::{row, CollectiveCharge, Recorder, Summary, TraceEvent, TraceRecord};
use std::sync::Mutex;

/// What a timeline segment spent its modeled time on.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentKind {
    /// A collective communication, with its exact α/β cost split
    /// (`alpha_s + beta_s` reproduces the modeled time bit-for-bit).
    Collective {
        /// Collective kind name (e.g. `allgather`).
        kind: String,
        /// Latency term in seconds.
        alpha_s: f64,
        /// Bandwidth term in seconds.
        beta_s: f64,
        /// Per-rank payload bytes passed to the cost model.
        bytes: u64,
        /// Critical-path messages charged.
        msgs: u64,
        /// Collective sequence number (machine issue order).
        seq: u64,
    },
    /// Local compute charged to one rank.
    Compute {
        /// Multiply–add operations charged.
        ops: u64,
    },
    /// A retry backoff wait after a transient fault (a fixed gap: not
    /// scaled by the what-if α/β knobs).
    Backoff,
}

/// One node of the BSP dependency DAG: a segment present on every
/// participating lane, between a synchronization point and the next.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// What the time was spent on.
    pub kind: SegmentKind,
    /// Participating lane ids (original slot numbering; one entry for
    /// compute, the whole group for collectives/backoffs).
    pub lanes: Vec<usize>,
    /// Causal clock when the segment starts: the participant
    /// maximum for a synchronizing segment, the lane's own clock for
    /// compute.
    pub start_s: f64,
    /// Modeled duration in seconds.
    pub dt_s: f64,
    /// Every participant's clock after the segment: `start_s + dt_s`
    /// for compute and serialized synchronizing segments,
    /// `max(start_s + α, issue_s + dt_s)` for an overlapped
    /// collective.
    pub end_s: f64,
    /// The lane whose pre-sync clock attained `start_s` (for compute,
    /// the lane itself).
    pub pred_lane: usize,
    /// The node whose end clock this node's `end_s` chains from:
    /// `end_s == nodes[pred].end_s + crit_dt_s` **bit-for-bit**
    /// (`end_s == crit_dt_s` when `None` — the chain starts at 0).
    pub pred: Option<usize>,
    /// The single IEEE addend on the critical-path chain: the full
    /// duration for compute/serialized segments, and for an
    /// overlapped collective either α (latency-gated) or the full
    /// duration (transfer-gated), whichever branch of the `max`
    /// attained `end_s`.
    pub crit_dt_s: f64,
    /// Group clock at the last synchronization before the collective
    /// was issued (the transfer window start under overlapped
    /// accounting); equals `start_s` for compute/backoff segments.
    pub issue_s: f64,
    /// Stream position (node count) at which `issue_s` was captured —
    /// `Some` for every collective (a blocking collective issues at
    /// its own position), `None` for compute/backoff. What-if replays
    /// recompute issue clocks at this anchor under edited durations.
    pub issue_at: Option<usize>,
    /// Index into the fold's `supersteps` ([`Timeline::summary`]) of
    /// the superstep this segment belongs to, `None` for work before
    /// the first superstep marker (setup).
    pub superstep: Option<usize>,
}

impl Node {
    /// Display label: the collective kind name, `compute`, or
    /// `backoff`.
    pub fn label(&self) -> &str {
        match &self.kind {
            SegmentKind::Collective { kind, .. } => kind,
            SegmentKind::Compute { .. } => "compute",
            SegmentKind::Backoff => "backoff",
        }
    }

    /// Whether the segment is communication (collective or backoff
    /// wait) rather than local compute.
    pub fn is_comm(&self) -> bool {
        !matches!(self.kind, SegmentKind::Compute { .. })
    }
}

/// One rank's lane: its causal clock, replica cost meter, and the
/// nodes it participated in.
#[derive(Clone, Debug, PartialEq)]
pub struct Lane {
    /// Causal clock after the last segment the lane took part in.
    pub clock_s: f64,
    /// Replica of the machine's per-rank cost meter.
    pub cost: RankCost,
    /// False once the rank was removed by a shrink; a dead lane keeps
    /// its history but stops advancing.
    pub alive: bool,
    /// Indices into [`Timeline::nodes`], ascending.
    pub node_ids: Vec<usize>,
}

/// A point-in-time annotation that carries no modeled duration:
/// faults, recovery decisions, shrinks, redistributions.
#[derive(Clone, Debug, PartialEq)]
pub struct Marker {
    /// Causal clock (max over lanes) when the marker was observed.
    pub at_s: f64,
    /// Marker label (e.g. `fault crash`, `recovery replan`,
    /// `shrink -rank1`, `redist blocks`).
    pub label: String,
    /// Extra context (detail string, byte counts, …).
    pub detail: String,
}

/// One coalesced serve round, bracketing the DAG nodes its exact
/// advance produced: every node with index in
/// `first_node..first_node + nodes` — collectives included — was
/// emitted between the round's start and end events, attributing the
/// communication to the round that triggered it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundInfo {
    /// 1-based round id (the serve engine's drain counter).
    pub round: u64,
    /// Requests coalesced into the round.
    pub requests: u64,
    /// Shared budget in modeled seconds (`None` = unbounded; infinite
    /// budgets don't survive JSON).
    pub budget_s: Option<f64>,
    /// Chosen degradation rung (`exact`, `approx`, `stale`); empty if
    /// the round carried no decision event.
    pub rung: String,
    /// Why that rung was chosen; empty if undecided.
    pub reason: String,
    /// Responses produced by the round.
    pub responses: u64,
    /// Max alive-lane causal clock at round start.
    pub start_s: f64,
    /// Max alive-lane causal clock at round end (equals `start_s`
    /// for a round that advanced nothing, or while still open).
    pub end_s: f64,
    /// Index of the first DAG node emitted inside the round.
    pub first_node: usize,
    /// Number of DAG nodes attributed to the round.
    pub nodes: usize,
}

row! { RoundInfo {
    "round" => round,
    "requests" => requests,
    "budget_s" => budget_s,
    "rung" => rung,
    "reason" => reason,
    "responses" => responses,
    "start_s" => start_s,
    "end_s" => end_s,
    "first_node" => first_node,
    "nodes" => nodes,
} }

/// A sealed causal timeline: the BSP dependency DAG plus per-lane
/// clocks and replica cost meters.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
    /// Machine spec the run was modeled under (α, β, γ, initial `p`).
    pub spec: MachineSpec,
    /// The dependency DAG in stream order.
    pub nodes: Vec<Node>,
    /// One lane per rank slot of the *initial* machine; shrunk ranks
    /// stay as dead lanes.
    pub lanes: Vec<Lane>,
    /// The run's stream fold: every event, including those the replay
    /// dropped. Its `supersteps` are the superstep markers with their
    /// plans, in stream order.
    pub summary: Summary,
    /// Serve rounds in stream order (empty for one-shot runs).
    pub rounds: Vec<RoundInfo>,
    /// Zero-duration annotations in stream order.
    pub markers: Vec<Marker>,
    /// Events referencing an out-of-range rank (a malformed or
    /// truncated trace); nonzero means the timeline is untrustworthy.
    pub dropped: u64,
    /// Replica of the machine's total operation counter.
    pub total_ops: u64,
}

impl Timeline {
    /// The modeled makespan: the maximum causal clock over surviving
    /// lanes (exactly what the critical path sums to, bit-for-bit).
    pub fn makespan_s(&self) -> f64 {
        self.lanes
            .iter()
            .filter(|l| l.alive)
            .map(|l| l.clock_s)
            .fold(0.0, f64::max)
    }

    /// The lane attaining [`Timeline::makespan_s`] (first such lane).
    pub fn end_lane(&self) -> usize {
        let m = self.makespan_s();
        self.lanes
            .iter()
            .position(|l| l.alive && l.clock_s.to_bits() == m.to_bits())
            .unwrap_or(0)
    }

    /// Surviving rank count.
    pub fn p_alive(&self) -> usize {
        self.lanes.iter().filter(|l| l.alive).count()
    }

    /// Replica per-rank costs of the surviving ranks, in the shrunk
    /// machine's numbering (dead lanes skipped in order).
    pub fn alive_costs(&self) -> Vec<RankCost> {
        self.lanes
            .iter()
            .filter(|l| l.alive)
            .map(|l| l.cost)
            .collect()
    }

    /// Cross-checks the replica meters against the machine the run
    /// finished on. Every per-rank comm/comp second, message and byte
    /// count, and the total op counter must agree **bit-for-bit**;
    /// returns a human-readable list of mismatches (empty = the trace
    /// fully accounts for the machine's state).
    pub fn validate_against(&self, machine: &Machine) -> Vec<String> {
        let mut problems = Vec::new();
        if self.dropped > 0 {
            problems.push(format!("{} events dropped during replay", self.dropped));
        }
        let ours = self.alive_costs();
        let theirs = machine.rank_costs();
        if ours.len() != theirs.len() {
            problems.push(format!(
                "rank count mismatch: timeline has {}, machine has {}",
                ours.len(),
                theirs.len()
            ));
            return problems;
        }
        for (r, (a, b)) in ours.iter().zip(&theirs).enumerate() {
            if a.comm_time.to_bits() != b.comm_time.to_bits() {
                problems.push(format!(
                    "rank {r} comm_s: timeline {:?} != machine {:?}",
                    a.comm_time, b.comm_time
                ));
            }
            if a.comp_time.to_bits() != b.comp_time.to_bits() {
                problems.push(format!(
                    "rank {r} comp_s: timeline {:?} != machine {:?}",
                    a.comp_time, b.comp_time
                ));
            }
            if a.msgs != b.msgs {
                problems.push(format!(
                    "rank {r} msgs: timeline {} != machine {}",
                    a.msgs, b.msgs
                ));
            }
            if a.bytes != b.bytes {
                problems.push(format!(
                    "rank {r} bytes: timeline {} != machine {}",
                    a.bytes, b.bytes
                ));
            }
        }
        let total_ops = machine.report().total_ops;
        if self.total_ops != total_ops {
            problems.push(format!(
                "total_ops: timeline {} != machine {}",
                self.total_ops, total_ops
            ));
        }
        problems
    }

    /// Replays an already-captured record stream (e.g. from a
    /// [`mfbc_trace::MemoryRecorder`]).
    pub fn from_records(spec: &MachineSpec, records: &[TraceRecord]) -> Timeline {
        let mut st = BuildState::new(spec.p, spec.overlap);
        for rec in records {
            st.apply(spec, &rec.event);
        }
        st.seal(spec.clone())
    }
}

/// A collective priced at its issue point, waiting to be charged: a
/// nonblocking one between its issue and wait events, a blocking one
/// for the length of one call.
#[derive(Clone, Debug)]
struct PendingColl {
    /// The [`SegmentKind::Collective`] it will become.
    segment: SegmentKind,
    alpha_s: f64,
    msgs: u64,
    bytes_charged: u64,
    modeled_s: f64,
    lanes: Vec<usize>,
    issue_s: f64,
    issue_pred: Option<usize>,
    issue_at: usize,
}

/// Mutable replay state behind the recorder's lock.
#[derive(Clone, Debug)]
struct BuildState {
    /// Replica of `MachineSpec::overlap` (which clock recurrence the
    /// machine ran).
    overlap: bool,
    nodes: Vec<Node>,
    lanes: Vec<Lane>,
    /// Current machine numbering → lane slot.
    slots: Vec<usize>,
    /// Per-lane clock at the lane's last synchronization (the issue
    /// clock of the next collective), and the node that set it.
    synced: Vec<f64>,
    synced_node: Vec<Option<usize>>,
    /// In-flight nonblocking collectives keyed by machine handle.
    pending: std::collections::BTreeMap<u64, PendingColl>,
    summary: Summary,
    rounds: Vec<RoundInfo>,
    markers: Vec<Marker>,
    current_round: Option<usize>,
    dropped: u64,
    total_ops: u64,
}

impl BuildState {
    fn new(p: usize, overlap: bool) -> BuildState {
        BuildState {
            overlap,
            nodes: Vec::new(),
            lanes: vec![
                Lane {
                    clock_s: 0.0,
                    cost: RankCost::default(),
                    alive: true,
                    node_ids: Vec::new(),
                };
                p
            ],
            slots: (0..p).collect(),
            synced: vec![0.0; p],
            synced_node: vec![None; p],
            pending: std::collections::BTreeMap::new(),
            summary: Summary::default(),
            rounds: Vec::new(),
            markers: Vec::new(),
            current_round: None,
            dropped: 0,
            total_ops: 0,
        }
    }

    fn seal(self, spec: MachineSpec) -> Timeline {
        Timeline {
            spec,
            nodes: self.nodes,
            lanes: self.lanes,
            summary: self.summary,
            rounds: self.rounds,
            markers: self.markers,
            dropped: self.dropped,
            total_ops: self.total_ops,
        }
    }

    /// The superstep new segments belong to: the fold's latest marker.
    fn current_step(&self) -> Option<usize> {
        self.summary.supersteps.len().checked_sub(1)
    }

    /// Max alive-lane causal clock (where a zero-duration annotation
    /// lands).
    fn now_s(&self) -> f64 {
        self.lanes
            .iter()
            .filter(|l| l.alive)
            .map(|l| l.clock_s)
            .fold(0.0, f64::max)
    }

    /// The group's issue clock (max last-synchronization clock over
    /// `lanes`) and the node that attained it.
    fn issue_point(&self, lanes: &[usize]) -> (f64, Option<usize>) {
        let mut issue = 0.0f64;
        for &l in lanes {
            issue = issue.max(self.synced[l]);
        }
        let pred = lanes
            .iter()
            .copied()
            .find(|&l| self.synced[l].to_bits() == issue.to_bits())
            .and_then(|l| self.synced_node[l]);
        (issue, pred)
    }

    /// Maps current machine ranks to lane slots; `None` (and a
    /// dropped-event count) on out-of-range ranks.
    fn map_ranks(&mut self, ranks: &[usize]) -> Option<Vec<usize>> {
        let mut lanes = Vec::with_capacity(ranks.len());
        for &r in ranks {
            match self.slots.get(r) {
                Some(&slot) => lanes.push(slot),
                None => {
                    self.dropped += 1;
                    return None;
                }
            }
        }
        Some(lanes)
    }

    /// Charges the replica meters for a synchronizing segment:
    /// elementwise max over the group, then add. Identical in both
    /// accounting modes (the meters measure work, not clocks).
    fn charge_meters(&mut self, lanes: &[usize], dt_s: f64, dm: u64, db: u64) {
        let mut mx_cost = RankCost::default();
        for &l in lanes {
            mx_cost = mx_cost.max(self.lanes[l].cost);
        }
        for &l in lanes {
            let c = &mut self.lanes[l].cost;
            *c = mx_cost;
            c.comm_time += dt_s;
            c.msgs += dm;
            c.bytes += db;
        }
    }

    /// Appends a synchronizing segment over `lanes`, replaying the
    /// machine's clock recurrence. `coll` carries the α term and
    /// captured issue point for collectives; backoffs pass `None` and
    /// are serialized in both modes (matching `Machine::backoff`).
    #[allow(clippy::too_many_arguments)]
    fn sync_segment(
        &mut self,
        kind: SegmentKind,
        lanes: Vec<usize>,
        dt_s: f64,
        dm: u64,
        db: u64,
        coll: Option<(f64, f64, Option<usize>, usize)>,
    ) {
        if lanes.is_empty() {
            self.dropped += 1;
            return;
        }
        self.charge_meters(&lanes, dt_s, dm, db);
        // Causal clock: group max ("ready"), then the mode recurrence.
        let mut ready = 0.0f64;
        for &l in &lanes {
            ready = ready.max(self.lanes[l].clock_s);
        }
        let pred_lane = lanes
            .iter()
            .copied()
            .find(|&l| self.lanes[l].clock_s.to_bits() == ready.to_bits())
            .unwrap_or(lanes[0]);
        let ready_pred = self.lanes[pred_lane].node_ids.last().copied();
        let (issue_s, issue_at, end_s, pred, crit_dt_s) = match coll {
            Some((alpha_s, issue_s, issue_pred, issue_at)) if self.overlap => {
                // Overlapped completion: max(ready + α, issue + dt),
                // each branch one IEEE addition on a predecessor end.
                let a = ready + alpha_s;
                let b = issue_s + dt_s;
                let post = a.max(b);
                if post.to_bits() == a.to_bits() {
                    (issue_s, Some(issue_at), post, ready_pred, alpha_s)
                } else {
                    (issue_s, Some(issue_at), post, issue_pred, dt_s)
                }
            }
            Some((_, issue_s, _, issue_at)) => {
                // Serialized mode still records the issue anchor so a
                // what-if `overlap` edit can replay it faithfully.
                (issue_s, Some(issue_at), ready + dt_s, ready_pred, dt_s)
            }
            None => (ready, None, ready + dt_s, ready_pred, dt_s),
        };
        let id = self.nodes.len();
        for &l in &lanes {
            self.lanes[l].clock_s = end_s;
            self.synced[l] = end_s;
            self.synced_node[l] = Some(id);
            self.lanes[l].node_ids.push(id);
        }
        self.nodes.push(Node {
            kind,
            lanes,
            start_s: ready,
            dt_s,
            end_s,
            pred_lane,
            pred,
            crit_dt_s,
            issue_s,
            issue_at,
            superstep: self.current_step(),
        });
    }

    /// Records a zero-duration annotation for `event`, labeled by its
    /// title.
    fn marker(&mut self, event: &TraceEvent, detail: String) {
        let at_s = self.now_s();
        self.markers.push(Marker {
            at_s,
            label: event.title().into_owned(),
            detail,
        });
    }

    /// Charges a priced collective as one synchronizing segment.
    fn complete(&mut self, pc: PendingColl) {
        self.sync_segment(
            pc.segment,
            pc.lanes,
            pc.modeled_s,
            pc.msgs,
            pc.bytes_charged,
            Some((pc.alpha_s, pc.issue_s, pc.issue_pred, pc.issue_at)),
        );
    }

    /// Prices a collective at its issue point: lane slots, exact α/β
    /// split, and the group's issue clock. `None` (and a dropped-event
    /// count) on out-of-range ranks.
    fn price(&mut self, spec: &MachineSpec, c: &CollectiveCharge) -> Option<PendingColl> {
        let lanes = self.map_ranks(&c.ranks)?;
        let (alpha_s, beta_s) = cost_split(spec, c.kind, c.group, c.bytes, c.modeled_s);
        let (issue_s, issue_pred) = self.issue_point(&lanes);
        Some(PendingColl {
            segment: SegmentKind::Collective {
                kind: c.kind.to_string(),
                alpha_s,
                beta_s,
                bytes: c.bytes,
                msgs: c.msgs,
                seq: c.seq,
            },
            alpha_s,
            msgs: c.msgs,
            bytes_charged: c.bytes_charged,
            modeled_s: c.modeled_s,
            lanes,
            issue_s,
            issue_pred,
            issue_at: self.nodes.len(),
        })
    }

    fn apply(&mut self, spec: &MachineSpec, event: &TraceEvent) {
        // The fold sees every event, the ones dropped below included.
        self.summary.observe(event);
        match event {
            // A blocking collective issues at its own stream position:
            // its transfer window cannot start earlier than the call,
            // so nothing hides under prior compute unless the group
            // had already synchronized.
            TraceEvent::Collective { charge } => {
                if let Some(pc) = self.price(spec, charge) {
                    self.complete(pc);
                }
            }
            TraceEvent::CollectiveIssue { charge, handle } => {
                if let Some(pc) = self.price(spec, charge) {
                    self.pending.insert(*handle, pc);
                }
            }
            TraceEvent::CollectiveWait { handle } => match self.pending.remove(handle) {
                Some(pc) => self.complete(pc),
                // A wait with no matching issue: malformed trace.
                None => self.dropped += 1,
            },
            &TraceEvent::Compute {
                rank,
                ops,
                modeled_s,
            } => {
                let Some(lanes) = self.map_ranks(&[rank]) else {
                    return;
                };
                let l = lanes[0];
                self.lanes[l].cost.comp_time += modeled_s;
                self.total_ops += ops;
                let start_s = self.lanes[l].clock_s;
                let end_s = start_s + modeled_s;
                let id = self.nodes.len();
                let pred = self.lanes[l].node_ids.last().copied();
                self.lanes[l].clock_s = end_s;
                self.lanes[l].node_ids.push(id);
                self.nodes.push(Node {
                    kind: SegmentKind::Compute { ops },
                    lanes,
                    start_s,
                    dt_s: modeled_s,
                    end_s,
                    pred_lane: l,
                    pred,
                    crit_dt_s: modeled_s,
                    issue_s: start_s,
                    issue_at: None,
                    superstep: self.current_step(),
                });
            }
            TraceEvent::Backoff { ranks, seconds } => {
                let Some(lanes) = self.map_ranks(ranks) else {
                    return;
                };
                self.sync_segment(SegmentKind::Backoff, lanes, *seconds, 0, 0, None);
            }
            &TraceEvent::Shrink { failed, p_before } => {
                if self.slots.len() != p_before || failed >= self.slots.len() {
                    self.dropped += 1;
                    return;
                }
                let slot = self.slots.remove(failed);
                self.lanes[slot].alive = false;
                self.marker(event, format!("p={}->{}", p_before, p_before - 1));
            }
            TraceEvent::Fault { rank, seq, .. } => {
                let detail = match rank {
                    Some(r) => format!("rank={r} seq={seq}"),
                    None => format!("seq={seq}"),
                };
                self.marker(event, detail);
            }
            TraceEvent::Recovery {
                detail, wasted_s, ..
            } => self.marker(event, format!("{detail} wasted_s={wasted_s:?}")),
            TraceEvent::Redist {
                bytes_moved,
                participants,
                ..
            } => self.marker(event, format!("bytes={bytes_moved} p={participants}")),
            TraceEvent::RequestAdmitted {
                query,
                deadline_s,
                queue_depth,
                ..
            } => self.marker(
                event,
                format!("query={query} deadline_s={deadline_s:?} depth={queue_depth}"),
            ),
            &TraceEvent::RoundStart {
                round,
                requests,
                budget_s,
                ..
            } => {
                let start_s = self.now_s();
                self.current_round = Some(self.rounds.len());
                self.rounds.push(RoundInfo {
                    round,
                    requests,
                    budget_s: budget_s.is_finite().then_some(budget_s),
                    rung: String::new(),
                    reason: String::new(),
                    responses: 0,
                    start_s,
                    end_s: start_s,
                    first_node: self.nodes.len(),
                    nodes: 0,
                });
            }
            &TraceEvent::DegradeDecision {
                round,
                rung,
                reason,
                ..
            } => {
                match self.current_round {
                    Some(i) if self.rounds[i].round == round => {
                        self.rounds[i].rung = rung.to_string();
                        self.rounds[i].reason = reason.to_string();
                    }
                    // A decision outside its round: malformed stream.
                    _ => self.dropped += 1,
                }
                self.marker(event, format!("round={round} reason={reason}"));
            }
            &TraceEvent::RoundEnd {
                round, responses, ..
            } => {
                let end_s = self.now_s();
                match self.current_round.take() {
                    Some(i) if self.rounds[i].round == round => {
                        let nodes = self.nodes.len() - self.rounds[i].first_node;
                        let r = &mut self.rounds[i];
                        r.responses = responses;
                        r.nodes = nodes;
                        r.end_s = r.start_s.max(end_s);
                    }
                    _ => self.dropped += 1,
                }
            }
            // Supersteps and SpGEMM plans are the fold's; autotune
            // tables, pool fan-outs, spans, counters and logs carry no
            // modeled time and no annotation.
            _ => {}
        }
    }
}

/// Recovers the exact α/β split of a collective's modeled time;
/// `time()` is defined as `time_beta + time_alpha`, so the parts
/// re-add to `modeled_s` bit-for-bit. If the split cannot be
/// reproduced (foreign spec, unknown kind), fold everything into the
/// β term so the identity `alpha_s + beta_s == modeled_s` still
/// holds (overlapped replays then degrade to a zero latency term).
fn cost_split(
    spec: &MachineSpec,
    kind: &str,
    group: usize,
    bytes: u64,
    modeled_s: f64,
) -> (f64, f64) {
    match CollectiveKind::from_name(kind) {
        Some(ck) => {
            let a = ck.time_alpha(spec, group);
            let b = ck.time_beta(spec, bytes);
            if (b + a).to_bits() == modeled_s.to_bits() {
                (a, b)
            } else {
                (0.0, modeled_s)
            }
        }
        None => (0.0, modeled_s),
    }
}

/// A streaming [`Recorder`] that replays the event stream into a
/// [`Timeline`] and folds it into the timeline's [`Summary`], so a run
/// that installs it needs no other aggregating recorder: the profile
/// is `Profile::of(&timeline.summary, &machine)`. Install it (scoped
/// or global), run, then call [`TimelineBuilder::finish`].
#[derive(Debug)]
pub struct TimelineBuilder {
    spec: MachineSpec,
    state: Mutex<BuildState>,
}

impl TimelineBuilder {
    /// A builder for a run on a machine described by `spec` (the α–β
    /// values are used to recover each collective's exact cost split).
    pub fn new(spec: MachineSpec) -> TimelineBuilder {
        let p = spec.p;
        let overlap = spec.overlap;
        TimelineBuilder {
            spec,
            state: Mutex::new(BuildState::new(p, overlap)),
        }
    }

    /// Seals the replayed state into a [`Timeline`]. The builder can
    /// keep receiving events afterwards (they accumulate onto the same
    /// state), but typical callers finish once, after the run.
    pub fn finish(&self) -> Timeline {
        let st = self.state.lock().expect("timeline state lock");
        st.clone().seal(self.spec.clone())
    }
}

impl Recorder for TimelineBuilder {
    fn record(&self, event: TraceEvent) {
        let mut st = self.state.lock().expect("timeline state lock");
        st.apply(&self.spec, &event);
    }
}
