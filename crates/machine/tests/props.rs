//! Property tests of the cost model's structural guarantees: the
//! critical-path accounting of §7.4 must behave like a max-plus
//! semiring over dependent operations.

#![allow(clippy::needless_range_loop)]

use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;
use mfbc_machine::cost::{log2_ceil, CollectiveKind, CostTracker};
use mfbc_machine::{Group, Machine, MachineSpec};

const CASES: usize = 64;

const KINDS: [CollectiveKind; 9] = [
    CollectiveKind::Broadcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Scatter,
    CollectiveKind::Gather,
    CollectiveKind::Allgather,
    CollectiveKind::SparseReduce,
    CollectiveKind::PointToPoint,
    CollectiveKind::AllToAll,
];

/// A random schedule of 1–19 collectives over random subgroups of `p`
/// ranks (sorted, deduplicated, never empty).
fn schedule(rng: &mut SplitMix64, p: usize) -> Vec<(Vec<usize>, CollectiveKind, u64)> {
    (0..rng.range(1, 19))
        .map(|_| {
            let mut group: Vec<usize> = (0..rng.range(1, p)).map(|_| rng.below(p)).collect();
            group.sort_unstable();
            group.dedup();
            (group, *rng.pick(&KINDS), rng.below(10_000) as u64)
        })
        .collect()
}

/// Critical-path costs are monotone: adding one more collective
/// never decreases any rank's accumulated metrics.
#[test]
fn costs_are_monotone() {
    property("costs_are_monotone", CASES, |rng| {
        let spec = MachineSpec::test(6);
        let mut t = CostTracker::new(6);
        for (group, kind, bytes) in &schedule(rng, 6) {
            t.collective(&spec, group, *kind, *bytes);
        }
        let before: Vec<_> = (0..6).map(|r| t.rank(r)).collect();
        t.collective(
            &spec,
            &[0, 3],
            CollectiveKind::Broadcast,
            rng.below(1000) as u64,
        );
        for r in 0..6 {
            let after = t.rank(r);
            assert!(after.msgs >= before[r].msgs);
            assert!(after.bytes >= before[r].bytes);
            assert!(after.comm_time >= before[r].comm_time);
        }
    });
}

/// Every participant of a collective ends with an identical
/// critical path (the §7.4 synchronization), and non-participants
/// are untouched.
#[test]
fn collectives_synchronize_participants() {
    property("collectives_synchronize_participants", CASES, |rng| {
        let spec = MachineSpec::test(6);
        let mut t = CostTracker::new(6);
        for (group, kind, bytes) in &schedule(rng, 6) {
            let before: Vec<_> = (0..6).map(|r| t.rank(r)).collect();
            t.collective(&spec, group, *kind, *bytes);
            let first = t.rank(group[0]);
            for &r in group {
                assert_eq!(t.rank(r), first);
            }
            for r in 0..6 {
                if !group.contains(&r) {
                    assert_eq!(t.rank(r), before[r]);
                }
            }
        }
    });
}

/// The reported critical path dominates every rank, and equals
/// per-metric maxima.
#[test]
fn report_is_per_metric_max() {
    property("report_is_per_metric_max", CASES, |rng| {
        let spec = MachineSpec::test(5);
        let mut t = CostTracker::new(5);
        for (group, kind, bytes) in &schedule(rng, 5) {
            t.collective(&spec, group, *kind, *bytes);
        }
        let rep = t.report();
        let mut max_bytes = 0;
        let mut max_msgs = 0;
        for r in 0..5 {
            let c = t.rank(r);
            assert!(rep.critical.bytes >= c.bytes);
            assert!(rep.critical.msgs >= c.msgs);
            max_bytes = max_bytes.max(c.bytes);
            max_msgs = max_msgs.max(c.msgs);
        }
        assert_eq!(rep.critical.bytes, max_bytes);
        assert_eq!(rep.critical.msgs, max_msgs);
    });
}

/// Collective time formulas: linear in bytes, logarithmic in
/// group size, and never free for non-trivial groups.
#[test]
fn cost_formulas_scale_sanely() {
    property("cost_formulas_scale_sanely", CASES, |rng| {
        let kind = *rng.pick(&KINDS);
        let bytes = rng.range(1, 999_999) as u64;
        let p = rng.range(2, 511);
        let spec = MachineSpec::test(p);
        let t1 = kind.time(&spec, p, bytes);
        let t2 = kind.time(&spec, p, 2 * bytes);
        // Doubling bytes adds exactly the β term once more.
        assert!(t2 > t1);
        assert!((t2 - t1 - (t1 - kind.time(&spec, p, 0))).abs() < 1e-9);
        // α term grows with log p.
        let tp = kind.time(&spec, 2 * p, bytes);
        assert!(tp >= t1);
        assert!(t1 > 0.0);
    });
}

/// Memory accounting: alloc/free are inverse, peak is monotone.
#[test]
fn memory_meter_invariants() {
    property("memory_meter_invariants", CASES, |rng| {
        let mut t = CostTracker::new(4);
        let mut shadow = [0u64; 4];
        let mut peaks = [0u64; 4];
        for _ in 0..rng.range(1, 39) {
            let (r, b) = (rng.below(4), rng.below(10_000) as u64);
            if rng.chance(1, 2) {
                t.alloc(r, b);
                shadow[r] += b;
            } else {
                t.free(r, b);
                shadow[r] = shadow[r].saturating_sub(b);
            }
            peaks[r] = peaks[r].max(shadow[r]);
            assert_eq!(t.resident(r), shadow[r]);
            assert_eq!(t.peak(r), peaks[r]);
        }
        assert_eq!(t.max_peak(), peaks.iter().copied().max().unwrap());
    });
}

#[test]
fn machine_is_cheaply_cloneable_and_shared() {
    let m = Machine::new(MachineSpec::test(3));
    let m2 = m.clone();
    m.charge_compute(1, 100);
    // Clones share meters.
    assert_eq!(m2.report().critical.comp_time, 100.0);
    m2.charge_collective(&Group::all(3), CollectiveKind::Broadcast, 10)
        .unwrap();
    assert!(m.report().critical.msgs > 0);
}

#[test]
fn log2_ceil_matches_f64_definition() {
    for p in 1..2000usize {
        let expect = (p as f64).log2().ceil() as u64;
        assert_eq!(log2_ceil(p), expect, "p={p}");
    }
}
