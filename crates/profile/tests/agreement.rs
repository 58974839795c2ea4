//! Cross-exporter agreement and end-to-end profiler behavior: drive a
//! real `Machine` under a scoped `Profiler`, then check that the JSON
//! profile, the Prometheus text, and the HTML report all carry the
//! same exact per-rank numbers, and that memory high-water marks
//! bound every snapshot.

use std::sync::Arc;

use mfbc_machine::{CollectiveKind, Machine, MachineSpec};
use mfbc_profile::{export, html, prometheus, Profiler};
use mfbc_trace::{emit, scoped, TraceEvent};

fn drive(machine: &Machine) {
    let world = machine.world();
    emit(|| TraceEvent::Superstep {
        phase: "forward",
        batch: 0,
        step: 0,
        frontier_nnz: 37,
        active_rows: 4,
    });
    machine
        .charge_collective(&world, CollectiveKind::Allgather, 4096)
        .expect("allgather");
    machine.charge_compute(0, 100_000);
    machine.charge_compute(1, 50_000);
    emit(|| TraceEvent::Spgemm {
        plan: "1d(A)".to_string(),
        m: 64,
        k: 64,
        n: 8,
        nnz_a: 500,
        nnz_b: 37,
        nnz_c: 120,
        ops: 700,
    });
    emit(|| TraceEvent::Superstep {
        phase: "backward",
        batch: 0,
        step: 0,
        frontier_nnz: 120,
        active_rows: 4,
    });
    machine
        .charge_collective(&world, CollectiveKind::Allreduce, 1024)
        .expect("allreduce");
    machine.charge_alloc(0, 900).expect("alloc");
    machine.release(0, 800);
    machine.charge_alloc(1, 400).expect("alloc");
}

/// Extracts `metric{rank="r"} value` samples from a Prometheus text
/// exposition, returning values keyed by rank in rank order.
fn prom_rank_values(text: &str, metric: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&format!("{metric}{{rank=\"")) else {
            continue;
        };
        let Some((rank, tail)) = rest.split_once("\"}") else {
            continue;
        };
        out.push((
            rank.parse().expect("rank label"),
            tail.trim().parse().expect("sample value"),
        ));
    }
    out.sort_by_key(|&(r, _)| r);
    out
}

#[test]
fn three_exporters_agree_on_per_rank_totals() {
    let machine = Machine::new(MachineSpec::test(4));
    let profiler = Arc::new(Profiler::new());
    scoped(profiler.clone(), || drive(&machine));
    let profile = profiler.finish(&machine);

    assert_eq!(profile.p, 4);
    assert!(profile.ranks.iter().any(|r| r.comp_s > 0.0));

    let json_doc = export::profile_to_json(&profile);
    let html_doc = html::render(&profile);
    let prom_text = prometheus::render(profiler.registry());

    let json_rows = export::parse_rank_rows(&json_doc).expect("parse profile.json");
    let html_rows = html::parse_rank_rows(&html_doc);
    let prom_comm = prom_rank_values(&prom_text, "mfbc_rank_comm_seconds");
    let prom_comp = prom_rank_values(&prom_text, "mfbc_rank_comp_seconds");
    let prom_peak = prom_rank_values(&prom_text, "mfbc_rank_peak_bytes");

    assert_eq!(json_rows.len(), 4);
    assert_eq!(html_rows.len(), 4);
    assert_eq!(prom_comm.len(), 4);

    for r in 0..4 {
        let expect = &profile.ranks[r];
        for (label, rows) in [("json", &json_rows), ("html", &html_rows)] {
            assert_eq!(rows[r].0, r, "{label} rank order");
            assert_eq!(
                rows[r].1.to_bits(),
                expect.comm_s.to_bits(),
                "{label} comm_s rank {r}"
            );
            assert_eq!(
                rows[r].2.to_bits(),
                expect.comp_s.to_bits(),
                "{label} comp_s rank {r}"
            );
            assert_eq!(rows[r].3, expect.peak_bytes, "{label} peak rank {r}");
        }
        assert_eq!(
            prom_comm[r].1.to_bits(),
            expect.comm_s.to_bits(),
            "prom comm rank {r}"
        );
        assert_eq!(
            prom_comp[r].1.to_bits(),
            expect.comp_s.to_bits(),
            "prom comp rank {r}"
        );
        assert_eq!(
            prom_peak[r].1 as u64, expect.peak_bytes,
            "prom peak rank {r}"
        );
    }
}

#[test]
fn profiler_attributes_stream_aggregates() {
    let machine = Machine::new(MachineSpec::test(2));
    let profiler = Arc::new(Profiler::new());
    scoped(profiler.clone(), || drive(&machine));
    let profile = profiler.finish(&machine);

    assert_eq!(profile.supersteps.len(), 2);
    assert_eq!(profile.supersteps[0].phase, "forward");
    assert_eq!(profile.supersteps[0].spgemm_ops, 700);
    assert_eq!(profile.supersteps[0].collectives, 1);
    assert_eq!(profile.supersteps[1].phase, "backward");
    assert_eq!(profile.supersteps[1].collectives, 1);
    assert_eq!(profile.setup_comm_s, 0.0);

    assert_eq!(profile.collectives.len(), 2);
    let share_sum: f64 = profile.collectives.iter().map(|c| c.share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-12,
        "shares sum to 1, got {share_sum}"
    );

    assert_eq!(profile.plan_mix.len(), 1);
    assert_eq!(profile.plan_mix[0].plan, "1d(A)");
    assert_eq!(profile.plan_mix[0].ops, 700);

    // Stream comm aggregates reconcile with the superstep attribution.
    let step_comm: f64 = profile.supersteps.iter().map(|s| s.comm_s).sum();
    let kind_comm: f64 = profile.collectives.iter().map(|c| c.modeled_s).sum();
    assert_eq!(step_comm.to_bits(), kind_comm.to_bits());
}

/// The trace summaries and the profiler are two readings of one fold:
/// per-kind, pool, fault and recovery totals of the same stream, taken
/// by two sinks installed side by side, must agree to the bit,
/// blocking and nonblocking collectives alike.
#[test]
fn profile_equals_trace_summaries_of_the_same_stream() {
    use mfbc_trace::MemoryRecorder;
    let machine = Machine::new(MachineSpec::test(4));
    let profiler = Arc::new(Profiler::new());
    let memory = Arc::new(MemoryRecorder::new());
    let run = || {
        let world = machine.world();
        drive(&machine);
        let h = machine
            .icharge_collective(&world, CollectiveKind::Allgather, 777)
            .expect("issue");
        machine.charge_compute(2, 30_000);
        machine.wait_collective(h).expect("wait");
        for (kernel, threads, tasks) in [("spgemm", 4, 8), ("transpose", 2, 3), ("spgemm", 2, 5)] {
            emit(|| TraceEvent::Pool {
                kernel,
                threads,
                tasks,
                busy_us: vec![7; threads],
                chunk_hist: vec![1, tasks],
            });
        }
        for (kind, rank) in [("transient", None), ("crash", Some(1)), ("transient", None)] {
            emit(|| TraceEvent::Fault { kind, rank, seq: 9 });
        }
        for (action, wasted_s) in [("retry", 0.1), ("replan", 0.7), ("retry", 0.2)] {
            emit(|| TraceEvent::Recovery {
                action,
                detail: format!("after {wasted_s}"),
                wasted_s,
            });
        }
    };
    scoped(memory.clone(), || scoped(profiler.clone(), run));
    let profile = profiler.finish(&machine);
    let records = memory.take();
    assert_eq!(profile.events, records.len() as u64);

    let mut kinds = mfbc_trace::collective_summary(&records);
    kinds.sort_by(|a, b| a.kind.cmp(&b.kind));
    assert_eq!(
        kinds.len(),
        2,
        "allgather (blocking + issued) and allreduce"
    );
    assert_eq!(profile.collectives.len(), kinds.len());
    for (p, k) in profile.collectives.iter().zip(&kinds) {
        assert_eq!(p.kind, k.kind);
        assert_eq!(p.count, k.count);
        assert_eq!(p.msgs, k.msgs);
        assert_eq!(p.bytes, k.bytes_charged);
        assert_eq!(p.modeled_s.to_bits(), k.modeled_s.to_bits(), "{}", p.kind);
    }
    assert_eq!(kinds[0].count, 2, "the issued allgather counts once");

    let mut pool = mfbc_trace::pool_summary(&records);
    pool.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    assert_eq!(profile.pool.len(), pool.len());
    for (p, k) in profile.pool.iter().zip(&pool) {
        assert_eq!(
            (p.kernel.as_str(), p.calls, p.tasks, p.busy_us),
            (k.kernel.as_str(), k.calls, k.tasks, k.busy_us)
        );
    }

    let recovery = mfbc_trace::recovery_summary(&records);
    assert_eq!(profile.faults, recovery.faults);
    assert_eq!(profile.recoveries.len(), recovery.actions.len());
    for (p, a) in profile.recoveries.iter().zip(&recovery.actions) {
        assert_eq!((&p.action, p.count), (&a.action, a.count));
        assert_eq!(p.wasted_s.to_bits(), a.wasted_s.to_bits(), "{}", a.action);
    }
    assert_eq!(profile.wasted_s.to_bits(), recovery.wasted_s().to_bits());

    // Every array of the document is populated here; the bytes are
    // the ones PR 19's hand-serialising writer produced.
    assert_eq!(
        export::profile_to_json(&profile),
        include_str!("golden/stream.profile.json")
    );
    // The only pinned stream with faults and recoveries: its
    // Prometheus text carries their families.
    assert_eq!(
        prometheus::render(profiler.registry()),
        include_str!("golden/stream.metrics.prom")
    );
}

#[test]
fn peaks_in_profile_bound_machine_snapshots() {
    let machine = Machine::new(MachineSpec::test(2));
    let profiler = Arc::new(Profiler::new());
    scoped(profiler.clone(), || {
        machine.charge_alloc(0, 1000).expect("alloc");
        machine.release(0, 990);
        machine.charge_alloc(1, 10).expect("alloc");
    });
    let snap = machine.memory_snapshot();
    let profile = profiler.finish(&machine);
    for r in &profile.ranks {
        assert!(r.peak_bytes >= snap.resident()[r.rank]);
        assert!(r.peak_bytes >= r.resident_bytes);
    }
    assert_eq!(profile.ranks[0].peak_bytes, 1000);
    assert_eq!(profile.ranks[0].resident_bytes, 10);
    assert_eq!(profile.max_peak_bytes(), 1000);
}

/// `finish` rewrites the registry from the fold rather than adding to
/// it: finishing twice renders the same documents.
#[test]
fn finishing_twice_renders_the_same_text() {
    let machine = Machine::new(MachineSpec::test(4));
    let profiler = Arc::new(Profiler::new());
    scoped(profiler.clone(), || drive(&machine));
    let finish = || {
        let profile = profiler.finish(&machine);
        (
            export::profile_to_json(&profile),
            prometheus::render(profiler.registry()),
        )
    };
    let first = finish();
    assert!(
        first.1.contains("mfbc_trace_events_total 7.0"),
        "{}",
        first.1
    );
    assert_eq!(finish(), first);
}
