//! One fold of a run: a `Profiler` and a `TimelineBuilder` installed
//! on one stream hold the same `Summary`, so the profile projected
//! from the timeline is the profiler's own, to the byte.

use mfbc_machine::{CollectiveKind, Machine, MachineSpec};
use mfbc_profile::export::profile_to_json;
use mfbc_profile::{Profile, Profiler};
use mfbc_timeline::{Timeline, TimelineBuilder};
use mfbc_trace::{emit, scoped, TraceEvent};
use std::sync::Arc;

/// Runs `run` with a profiler and a timeline builder both installed.
fn observed<T>(spec: &MachineSpec, run: impl FnOnce() -> T) -> (T, Timeline, Arc<Profiler>) {
    let profiler = Arc::new(Profiler::new());
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let out = scoped(profiler.clone(), || scoped(builder.clone(), run));
    (out, builder.finish(), profiler)
}

fn assert_same_profile(tl: &Timeline, profiler: &Profiler, machine: &Machine) {
    assert_eq!(
        profile_to_json(&Profile::of(&tl.summary, machine)),
        profile_to_json(&profiler.finish(machine))
    );
}

fn superstep(phase: &'static str, step: usize) {
    emit(|| TraceEvent::Superstep {
        phase,
        batch: 0,
        step,
        frontier_nnz: 5 + step as u64,
        active_rows: 2,
    });
}

fn spgemm(plan: &str, ops: u64) {
    emit(|| TraceEvent::Spgemm {
        plan: plan.to_string(),
        m: 8,
        k: 8,
        n: 2,
        nnz_a: 16,
        nnz_b: 4,
        nnz_c: 6,
        ops,
    });
}

/// The shrink schedule of `golden.rs`, with superstep markers and
/// SpGEMM events around it; the profile is read against the shrunk
/// machine the run finished on.
#[test]
fn shrink_stream_profile_is_the_profilers() {
    let spec = MachineSpec::test(3);
    let machine = Machine::new(spec.clone());
    let (shrunk, tl, profiler) = observed(&spec, || {
        machine.charge_compute(1, 4);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allgather, 2)
            .unwrap();
        superstep("forward", 0);
        spgemm("1d(A)", 40);
        let shrunk = machine.shrink(1).unwrap();
        shrunk.charge_compute(1, 6);
        superstep("backward", 0);
        spgemm("1d(B)", 7);
        shrunk
            .charge_collective(&shrunk.world(), CollectiveKind::Reduce, 1)
            .unwrap();
        shrunk
    });
    assert_eq!(tl.summary.supersteps.len(), 2);
    assert_eq!(tl.summary.supersteps[1].plans, vec!["1d(B)".to_string()]);
    assert_same_profile(&tl, &profiler, &shrunk);
}

/// The overlapped schedule of `golden.rs`, plus a nonblocking
/// collective issued in one superstep and completed in the next: the
/// fold attributes it where it was issued.
#[test]
fn overlapped_stream_profile_is_the_profilers() {
    let spec = MachineSpec::test(2).with_overlap(true);
    let machine = Machine::new(spec.clone());
    let ((), tl, profiler) = observed(&spec, || {
        machine.charge_compute(0, 3);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Broadcast, 10)
            .unwrap();
        machine.charge_compute(1, 5);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allgather, 4)
            .unwrap();
        superstep("forward", 0);
        let h = machine
            .icharge_collective(&machine.world(), CollectiveKind::Allreduce, 8)
            .unwrap();
        machine.charge_compute(0, 2);
        superstep("forward", 1);
        machine.wait_collective(h).unwrap();
    });
    let steps = &tl.summary.supersteps;
    assert_eq!((steps[0].collectives, steps[1].collectives), (1, 0));
    assert_same_profile(&tl, &profiler, &machine);
}

/// An event naming a rank the machine does not have is dropped by the
/// replay, after the fold has counted it.
#[test]
fn dropped_events_are_still_folded() {
    let spec = MachineSpec::test(2);
    let machine = Machine::new(spec.clone());
    let ((), tl, profiler) = observed(&spec, || {
        superstep("forward", 0);
        machine.charge_compute(0, 3);
        emit(|| TraceEvent::Compute {
            rank: 9,
            ops: 1,
            modeled_s: 1.0,
        });
        spgemm("1d(A)", 3);
    });
    assert_eq!(tl.dropped, 1);
    assert_eq!(tl.summary.events, 4);
    assert_same_profile(&tl, &profiler, &machine);
}
