//! Property test tying the tracing subsystem to the harness metrics:
//! the critical-path communication time reported by a measurement can
//! never exceed the plain sum of modeled times over the collective
//! events traced during that same run (§7.4 accounting takes a
//! group-max before adding each collective's cost, so the per-event
//! sum is an upper bound on any single rank's accumulated time).

use mfbc_bench::{measure_mfbc, measure_traced, verify_against_trace, BenchSpec};
use mfbc_conformance::suite::property;
use mfbc_core::dist::PlanMode;
use mfbc_graph::gen::uniform;
use mfbc_trace::TraceEvent;

#[test]
fn traced_comm_dominates_critical_path() {
    property("traced_comm_dominates_critical_path", 12, |rng| {
        let n = rng.range(40, 219);
        let edges = n * rng.range(2, 7);
        let p = *rng.pick(&[1, 2, 4, 9, 16]);
        let batch = rng.range(4, 47);
        let g = uniform(n, edges, false, None, rng.below(1000) as u64);
        let bench = BenchSpec { p, mem_divisor: 1 };
        let (result, records) = measure_traced(|| measure_mfbc(&g, &bench, batch, PlanMode::Auto));
        // OOM points are legitimate outcomes, but this spec has full
        // memory — treat any failure as a bug.
        let m = result.unwrap_or_else(|e| panic!("measure_mfbc failed unexpectedly: {e}"));
        // The run must actually have been traced.
        let collectives = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Collective { .. }))
            .count();
        if p > 1 {
            assert!(collectives > 0, "no collective events traced for p={p}");
        }
        assert!(
            verify_against_trace(&m, &records).is_ok(),
            "comm_s {} vs traced total {} ({} collectives)",
            m.comm_s,
            mfbc_trace::total_modeled_comm_s(&records),
            collectives
        );
    });
}

#[test]
fn verify_against_trace_rejects_drift() {
    let g = uniform(120, 600, false, None, 5);
    let bench = BenchSpec {
        p: 4,
        mem_divisor: 1,
    };
    let (result, records) = measure_traced(|| measure_mfbc(&g, &bench, 16, PlanMode::Auto));
    let mut m = result.unwrap();
    assert!(verify_against_trace(&m, &records).is_ok());
    // Inflate the reported critical path past the traced sum: the
    // cross-check must flag the discrepancy.
    m.comm_s = mfbc_trace::total_modeled_comm_s(&records) * 2.0 + 1.0;
    assert!(verify_against_trace(&m, &records).is_err());
}
