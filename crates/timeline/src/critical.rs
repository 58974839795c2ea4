//! Critical-path extraction over the BSP dependency DAG.
//!
//! Dependencies: segments chain within a lane, and a synchronizing
//! segment (collective, backoff) depends on *every* participant's
//! previous segment — its start clock is the group maximum; under
//! overlapped accounting an in-flight collective additionally chains
//! from the synchronization point it was issued at. Because
//! `f64::max` returns one of its operands bit-for-bit and every
//! completion clock is one IEEE addition on a predecessor's end
//! clock, the builder records for each node the predecessor whose end
//! attained it and the single addend (`Node::pred`,
//! `Node::crit_dt_s`: the full duration for serialized segments; α or
//! the full duration for an overlapped collective, depending on which
//! branch of its `max` won). Walking that chain backwards from the
//! lane attaining the makespan yields segments whose addends, folded
//! left-to-right from zero, reproduce the makespan **bit-exactly**.

use crate::builder::Timeline;
use mfbc_trace::row;

/// One segment on the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathSegment {
    /// Index into [`Timeline::nodes`].
    pub node: usize,
    /// Lane whose chain the segment gates.
    pub lane: usize,
    /// Display label (collective kind, `compute`, `backoff`).
    pub label: String,
    /// Causal start clock in seconds.
    pub start_s: f64,
    /// Gating seconds: the segment's addend on the critical-path
    /// chain. Equals the modeled duration for compute and serialized
    /// segments; for an overlapped collective it is α when the
    /// group's readiness gated completion (the transfer hid under
    /// compute) or the full duration when the transfer itself gated.
    pub dt_s: f64,
    /// Whether the segment is communication.
    pub comm: bool,
    /// Superstep index (`None` = setup).
    pub superstep: Option<usize>,
}

/// The exact gating chain of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// The run's modeled makespan in seconds.
    pub makespan_s: f64,
    /// Lane whose final clock attains the makespan.
    pub end_lane: usize,
    /// Gating segments in forward (chronological) order.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// Left-to-right fold of the segment durations — bit-identical to
    /// [`CriticalPath::makespan_s`] by construction.
    pub fn sum_s(&self) -> f64 {
        self.segments.iter().fold(0.0, |acc, s| acc + s.dt_s)
    }

    /// Seconds of the makespan gated by communication segments.
    pub fn comm_s(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.comm)
            .map(|s| s.dt_s)
            .sum()
    }

    /// Fraction of the makespan gated by communication (0 when the
    /// makespan is zero).
    pub fn comm_share(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.comm_s() / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Extracts the critical path of `tl` by the backward walk described
/// in the module docs.
pub fn critical_path(tl: &Timeline) -> CriticalPath {
    let makespan_s = tl.makespan_s();
    let end_lane = tl.end_lane();
    let mut segments = Vec::new();
    let mut cur = tl.lanes[end_lane].node_ids.last().copied();
    while let Some(id) = cur {
        let node = &tl.nodes[id];
        segments.push(PathSegment {
            node: id,
            lane: node.pred_lane,
            label: node.label().to_string(),
            start_s: node.start_s,
            dt_s: node.crit_dt_s,
            comm: node.is_comm(),
            superstep: node.superstep,
        });
        cur = node.pred;
    }
    segments.reverse();
    CriticalPath {
        makespan_s,
        end_lane,
        segments,
    }
}

/// Aggregated share of the critical path attributed to one segment
/// class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bottleneck {
    /// Segment label (collective kind, `compute`, `backoff`).
    pub label: String,
    /// Total gating seconds of the class.
    pub seconds: f64,
    /// Number of gating segments in the class.
    pub count: u64,
    /// `seconds / makespan` (0 when the makespan is zero).
    pub share: f64,
}

row! { Bottleneck {
    "label" => label,
    "seconds" => seconds,
    "count" => count,
    "share" => share,
} }

/// Ranks segment classes by their gating seconds, descending (ties
/// broken by label). Returns every class; callers take the top-k.
pub fn bottlenecks(path: &CriticalPath) -> Vec<Bottleneck> {
    let mut by_label: Vec<Bottleneck> = Vec::new();
    for seg in &path.segments {
        match by_label.iter_mut().find(|b| b.label == seg.label) {
            Some(b) => {
                b.seconds += seg.dt_s;
                b.count += 1;
            }
            None => by_label.push(Bottleneck {
                label: seg.label.clone(),
                seconds: seg.dt_s,
                count: 1,
                share: 0.0,
            }),
        }
    }
    for b in &mut by_label {
        b.share = if path.makespan_s > 0.0 {
            b.seconds / path.makespan_s
        } else {
            0.0
        };
    }
    by_label.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| a.label.cmp(&b.label))
    });
    by_label
}

/// Per-superstep attribution: where the time inside one superstep
/// went, which lane straggled, and how much of the critical path the
/// superstep gates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepAttribution {
    /// Phase name (`forward` / `backward`).
    pub phase: String,
    /// Source-batch index.
    pub batch: usize,
    /// Iteration within the phase.
    pub step_no: usize,
    /// Sum of communication segment durations in the superstep
    /// (each synchronizing segment counted once).
    pub comm_s: f64,
    /// Sum of compute segment durations in the superstep.
    pub comp_s: f64,
    /// Seconds of the critical path attributed to the superstep.
    pub critical_s: f64,
    /// Lane with the most compute time in the superstep, if any
    /// compute was charged.
    pub straggler: Option<usize>,
    /// Max-over-mean of per-lane compute seconds in the superstep
    /// (1.0 = perfectly balanced; 0.0 when no compute was charged).
    pub imbalance: f64,
    /// SpGEMM plan labels observed during the superstep.
    pub plans: Vec<String>,
}

row! { StepAttribution {
    "phase" => phase,
    "batch" => batch,
    "step" => step_no,
    "comm_s" => comm_s,
    "comp_s" => comp_s,
    "critical_s" => critical_s,
    "straggler" => straggler,
    "imbalance" => imbalance,
    "plans" => plans,
} }

/// Attributes segment time, stragglers, and critical-path seconds to
/// each superstep.
pub fn step_attribution(tl: &Timeline, path: &CriticalPath) -> Vec<StepAttribution> {
    let n_lanes = tl.lanes.len();
    let mut out: Vec<StepAttribution> = tl
        .summary
        .supersteps
        .iter()
        .map(|s| StepAttribution {
            phase: s.phase.clone(),
            batch: s.batch,
            step_no: s.step,
            comm_s: 0.0,
            comp_s: 0.0,
            critical_s: 0.0,
            straggler: None,
            imbalance: 0.0,
            plans: s.plans.clone(),
        })
        .collect();
    // Per-superstep per-lane compute for straggler/imbalance.
    let mut comp_by_lane: Vec<Vec<f64>> = vec![vec![0.0; n_lanes]; out.len()];
    for node in &tl.nodes {
        let Some(i) = node.superstep else { continue };
        if node.is_comm() {
            out[i].comm_s += node.dt_s;
        } else {
            out[i].comp_s += node.dt_s;
            comp_by_lane[i][node.lanes[0]] += node.dt_s;
        }
    }
    for seg in &path.segments {
        if let Some(i) = seg.superstep {
            out[i].critical_s += seg.dt_s;
        }
    }
    for (att, per_lane) in out.iter_mut().zip(&comp_by_lane) {
        let alive: Vec<f64> = per_lane
            .iter()
            .enumerate()
            .filter(|&(l, _)| tl.lanes[l].alive || per_lane[l] > 0.0)
            .map(|(_, &v)| v)
            .collect();
        let max = alive.iter().copied().fold(0.0, f64::max);
        if max > 0.0 {
            att.straggler = per_lane.iter().position(|&v| v.to_bits() == max.to_bits());
            let mean = alive.iter().sum::<f64>() / alive.len() as f64;
            att.imbalance = if mean > 0.0 { max / mean } else { 0.0 };
        }
    }
    out
}

/// The full analysis bundle: critical path, ranked bottleneck table,
/// and per-superstep attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// The exact gating chain.
    pub path: CriticalPath,
    /// Segment classes ranked by gating seconds (full table).
    pub bottlenecks: Vec<Bottleneck>,
    /// Per-superstep attribution in stream order.
    pub steps: Vec<StepAttribution>,
}

impl Analysis {
    /// Fraction of the makespan gated by communication.
    pub fn comm_share(&self) -> f64 {
        self.path.comm_share()
    }
}

/// Runs the whole analysis over a sealed timeline.
pub fn analyze(tl: &Timeline) -> Analysis {
    let path = critical_path(tl);
    let bottlenecks = bottlenecks(&path);
    let steps = step_attribution(tl, &path);
    Analysis {
        path,
        bottlenecks,
        steps,
    }
}
