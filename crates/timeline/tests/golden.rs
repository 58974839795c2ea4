//! Golden critical-path test on a hand-computable two-rank machine.
//!
//! Under `MachineSpec::test(2)` (α = β = γ = 1) every modeled time is
//! a small integer, so the whole causal schedule can be verified by
//! hand, segment by segment:
//!
//! | op                      | dt | rank 0 clock | rank 1 clock |
//! |-------------------------|----|--------------|--------------|
//! | compute(rank 0, 3 ops)  |  3 |            3 |            0 |
//! | broadcast(world, 10 B)  | 22 |           25 |           25 |
//! | compute(rank 1, 5 ops)  |  5 |           25 |           30 |
//! | allgather(world, 4 B)   |  5 |           35 |           35 |
//!
//! broadcast dt = 2·bytes·β + 2·lg p·α = 20 + 2; allgather dt =
//! bytes·β + lg p·α = 4 + 1. The critical path is the chain
//! compute(0) → broadcast → compute(1) → allgather, and its durations
//! must fold to the makespan 35 bit-for-bit.

use mfbc_machine::{CollectiveKind, Machine, MachineSpec};
use mfbc_timeline::{
    analyze, critical_path, doc, evaluate, report, to_json, Timeline, TimelineBuilder, WhatIf,
};
use mfbc_trace::scoped;
use std::sync::Arc;

/// The `timeline.json` text of `tl` with the identity and `overlap`
/// what-ifs evaluated — compared byte for byte against the files under
/// `tests/golden/`, which the hand-serialising writer of PR 19 produced.
fn timeline_json(tl: &Timeline) -> String {
    let overlap = WhatIf {
        overlap: true,
        ..WhatIf::identity()
    };
    let what_ifs = [report(tl, &WhatIf::identity()), report(tl, &overlap)];
    to_json(&doc(tl, &analyze(tl), &what_ifs))
}

/// Runs the golden schedule on a live machine under a scoped
/// timeline builder and returns the sealed timeline plus the machine.
fn golden_run() -> (mfbc_timeline::Timeline, Machine) {
    let spec = MachineSpec::test(2);
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::new(spec);
    scoped(builder.clone(), || {
        machine.charge_compute(0, 3);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Broadcast, 10)
            .unwrap();
        machine.charge_compute(1, 5);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allgather, 4)
            .unwrap();
    });
    (builder.finish(), machine)
}

#[test]
fn golden_chain_segment_by_segment() {
    let (tl, machine) = golden_run();
    assert_eq!(tl.makespan_s(), 35.0);
    assert_eq!(tl.validate_against(&machine), Vec::<String>::new());

    let path = critical_path(&tl);
    let got: Vec<(&str, f64, f64)> = path
        .segments
        .iter()
        .map(|s| (s.label.as_str(), s.start_s, s.dt_s))
        .collect();
    assert_eq!(
        got,
        vec![
            ("compute", 0.0, 3.0),
            ("broadcast", 3.0, 22.0),
            ("compute", 25.0, 5.0),
            ("allgather", 30.0, 5.0),
        ]
    );
    // The chain crosses ranks: the gating compute segments are on
    // rank 0 then rank 1.
    assert_eq!(path.segments[0].lane, 0);
    assert_eq!(path.segments[2].lane, 1);
    assert_eq!(
        timeline_json(&tl),
        include_str!("golden/serialized.timeline.json")
    );
}

#[test]
fn golden_sum_is_bit_exact() {
    let (tl, _machine) = golden_run();
    let path = critical_path(&tl);
    assert_eq!(path.sum_s().to_bits(), tl.makespan_s().to_bits());
    assert_eq!(path.makespan_s.to_bits(), tl.makespan_s().to_bits());
}

#[test]
fn golden_bottlenecks_rank_broadcast_first() {
    let (tl, _machine) = golden_run();
    let an = analyze(&tl);
    let table: Vec<(&str, f64, u64)> = an
        .bottlenecks
        .iter()
        .map(|b| (b.label.as_str(), b.seconds, b.count))
        .collect();
    assert_eq!(
        table,
        vec![
            ("broadcast", 22.0, 1),
            ("compute", 8.0, 2),
            ("allgather", 5.0, 1)
        ]
    );
    // Communication gates 27 of 35 seconds.
    assert_eq!(an.comm_share(), 27.0 / 35.0);
}

#[test]
fn golden_identity_what_if_is_bit_exact() {
    let (tl, _machine) = golden_run();
    let identity = WhatIf::identity();
    assert_eq!(
        evaluate(&tl, &identity).to_bits(),
        tl.makespan_s().to_bits()
    );
}

#[test]
fn golden_overlap_bound_is_hand_computable() {
    let (tl, _machine) = golden_run();
    // Overlapped accounting: the broadcast issues at t=0 (last sync
    // point) and its transfer runs under rank 0's compute, but its
    // latency (2·lg 2·α = 2) stays on the path: completion at
    // max(3+2, 0+22) = 22; rank 1 then computes to 27; the allgather
    // issues at 22, latency 1, so the group resumes at
    // max(27+1, 22+5) = 28.
    let overlap = WhatIf {
        overlap: true,
        ..WhatIf::identity()
    };
    assert_eq!(evaluate(&tl, &overlap), 28.0);
}

/// Runs the same golden schedule under overlapped accounting
/// (`with_overlap(true)`): the live machine clocks, the timeline
/// replay, the critical-path fold, and the `overlap` what-if (now the
/// identity) must all agree bit-for-bit at the hand-computed 28.
#[test]
fn golden_overlapped_run_matches_whatif_and_folds_bit_exactly() {
    let spec = MachineSpec::test(2).with_overlap(true);
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::new(spec);
    scoped(builder.clone(), || {
        machine.charge_compute(0, 3);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Broadcast, 10)
            .unwrap();
        machine.charge_compute(1, 5);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allgather, 4)
            .unwrap();
    });
    let tl = builder.finish();
    assert_eq!(tl.makespan_s(), 28.0);
    assert_eq!(machine.makespan_s().to_bits(), tl.makespan_s().to_bits());
    // Meters are mode-independent: the replica still validates.
    assert_eq!(tl.validate_against(&machine), Vec::<String>::new());

    // The broadcast gates on its transfer branch (22 ≥ 3+2) while the
    // allgather gates on its latency branch (27+1 ≥ 22+5), so the
    // chain is broadcast (addend 22, chained from t=0 where it was
    // issued) → compute (5) → allgather (α = 1), folding to 28.
    let path = critical_path(&tl);
    assert_eq!(path.sum_s().to_bits(), tl.makespan_s().to_bits());
    let got: Vec<(&str, f64)> = path
        .segments
        .iter()
        .map(|s| (s.label.as_str(), s.dt_s))
        .collect();
    assert_eq!(
        got,
        vec![("broadcast", 22.0), ("compute", 5.0), ("allgather", 1.0)]
    );
    // Gating comm seconds drop from 27 (serialized) to 23: the
    // allgather's bandwidth term hid under rank 1's compute.
    assert_eq!(path.comm_s(), 23.0);

    // The identity edit and the `overlap` edit are both bit-exact on
    // an already-overlapped run.
    assert_eq!(
        evaluate(&tl, &WhatIf::identity()).to_bits(),
        tl.makespan_s().to_bits()
    );
    let overlap = WhatIf {
        overlap: true,
        ..WhatIf::identity()
    };
    assert_eq!(evaluate(&tl, &overlap).to_bits(), tl.makespan_s().to_bits());
    assert_eq!(
        timeline_json(&tl),
        include_str!("golden/overlapped.timeline.json")
    );
}

#[test]
fn golden_zero_and_scale_edits_are_hand_computable() {
    let (tl, _machine) = golden_run();
    // Free broadcasts: 35 - 22 = 13.
    let zero_bcast = WhatIf {
        zero_kind: Some("broadcast".to_string()),
        ..WhatIf::identity()
    };
    assert_eq!(evaluate(&tl, &zero_bcast), 13.0);
    // Infinite bandwidth (β → 0) keeps only the α terms: broadcast
    // dt 2, allgather dt 1 → 3 + 2 + 5 + 1 = 11.
    let infinite_bw = WhatIf {
        beta_scale: 0.0,
        ..WhatIf::identity()
    };
    assert_eq!(evaluate(&tl, &infinite_bw), 11.0);
    // Twice the compute rate (γ × 0.5): 1.5 + 22 + 2.5 + 5 = 31.
    let faster_cpu = WhatIf {
        gamma_scale: 0.5,
        ..WhatIf::identity()
    };
    assert_eq!(evaluate(&tl, &faster_cpu), 31.0);
}

#[test]
fn transient_fault_puts_backoff_on_the_path() {
    use mfbc_machine::{FaultKind, FaultPlan, RetryPolicy};
    let spec = MachineSpec::test(2);
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::with_faults(
        spec,
        FaultPlan::single(0, FaultKind::Transient { recurrence: 1 }),
        RetryPolicy {
            max_attempts: 3,
            backoff_s: 7.0,
            ..RetryPolicy::default()
        },
    );
    scoped(builder.clone(), || {
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allreduce, 2)
            .unwrap();
    });
    let tl = builder.finish();
    // allreduce dt = 4·2·β + 4·lg 2·α = 8 + 4 = 12, behind a 7 s
    // retry backoff.
    assert_eq!(tl.makespan_s(), 19.0);
    let path = critical_path(&tl);
    let labels: Vec<&str> = path.segments.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["backoff", "allreduce"]);
    assert_eq!(path.sum_s().to_bits(), tl.makespan_s().to_bits());
    assert_eq!(tl.validate_against(&machine), Vec::<String>::new());

    // `zero:backoff` removes exactly the retry gap.
    let no_backoff = WhatIf {
        zero_kind: Some("backoff".to_string()),
        ..WhatIf::identity()
    };
    assert_eq!(evaluate(&tl, &no_backoff), 12.0);
}

#[test]
fn shrink_keeps_dead_lane_history_and_matches_survivors() {
    let spec = MachineSpec::test(3);
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::new(spec);
    let shrunk = scoped(builder.clone(), || {
        machine.charge_compute(1, 4);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allgather, 2)
            .unwrap();
        let shrunk = machine.shrink(1).unwrap();
        // Post-shrink rank 1 is the *old* rank 2; the timeline must
        // renumber through its slot map.
        shrunk.charge_compute(1, 6);
        shrunk
            .charge_collective(&shrunk.world(), CollectiveKind::Reduce, 1)
            .unwrap();
        shrunk
    });
    let tl = builder.finish();
    assert_eq!(tl.p_alive(), 2);
    assert!(!tl.lanes[1].alive);
    // Dead lane keeps its pre-shrink history.
    assert_eq!(tl.lanes[1].cost.comp_time, 4.0);
    assert_eq!(tl.validate_against(&shrunk), Vec::<String>::new());
    // allgather dt = bytes·β + lg 3·α = 2 + 2 = 4, starting after
    // rank 1's 4 s compute (ends at 8); old rank 2 then computes 6 s
    // (ends at 14); the reduce over the shrunk p = 2 world adds
    // 2·1·β + 2·lg 2·α = 4 → makespan 18.
    assert_eq!(tl.makespan_s(), 18.0);
    let path = critical_path(&tl);
    assert_eq!(path.sum_s().to_bits(), tl.makespan_s().to_bits());
    let labels: Vec<&str> = path.segments.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["compute", "allgather", "compute", "reduce"]);
    assert_eq!(
        timeline_json(&tl),
        include_str!("golden/shrink.timeline.json")
    );
}
