//! Exporter agreement: one run, observed simultaneously by the PR 5
//! profiler and the timeline builder, must produce per-rank numbers
//! that agree **bit-for-bit** across every exporter — profile.json,
//! the profiler's HTML report, Prometheus text, timeline.json, and
//! the timeline's HTML Gantt (via its exact `data-*` attributes).
//!
//! Extends the profile crate's exporter-agreement test with the
//! timeline as a fourth independent observer.

use mfbc_machine::{CollectiveKind, Machine, MachineSpec};
use mfbc_profile::export::{parse_rank_rows, profile_to_json};
use mfbc_profile::{html, prometheus, Profiler};
use mfbc_timeline::{
    analyze, doc, parse_html_rank_rows, parse_timeline, register_metrics, to_html, to_json,
    TimelineBuilder,
};
use mfbc_trace::scoped;
use std::sync::Arc;

#[test]
fn timeline_and_profile_exporters_agree_bitwise() {
    let spec = MachineSpec::gemini(4);
    let profiler = Arc::new(Profiler::new());
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::new(spec);
    let run = || {
        machine.charge_compute(0, 1_000_003);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allgather, 123_457)
            .unwrap();
        machine.charge_compute(2, 777_777);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allreduce, 999)
            .unwrap();
        machine.charge_compute(3, 41);
        machine
            .charge_collective(&machine.world(), CollectiveKind::AllToAll, 65_536)
            .unwrap();
    };
    scoped(profiler.clone(), || scoped(builder.clone(), run));

    let profile = profiler.finish(&machine);
    let tl = builder.finish();
    assert_eq!(tl.validate_against(&machine), Vec::<String>::new());
    let an = analyze(&tl);

    // 1. timeline.json per-rank rows == profile.json per-rank rows,
    //    both parsed back from their serialized text.
    let tl_doc = parse_timeline(&to_json(&doc(&tl, &an, &[]))).expect("parse timeline.json");
    let profile_rows =
        parse_rank_rows(&profile_to_json(&profile)).expect("parse profile.json rank rows");
    assert_eq!(tl_doc.ranks.len(), profile_rows.len());
    for ((rank, comm, comp, _peak), row) in profile_rows.iter().zip(&tl_doc.ranks) {
        assert_eq!(row.lane, *rank as u64);
        assert_eq!(row.comm_s.to_bits(), comm.to_bits(), "rank {rank} comm_s");
        assert_eq!(row.comp_s.to_bits(), comp.to_bits(), "rank {rank} comp_s");
    }

    // 2. The profiler's own HTML rows agree with the timeline rows.
    let html_rows = html::parse_rank_rows(&html::render(&profile));
    assert_eq!(html_rows.len(), tl_doc.ranks.len());
    for ((rank, comm, comp, _bytes), row) in html_rows.iter().zip(&tl_doc.ranks) {
        assert_eq!(row.lane, *rank as u64);
        assert_eq!(row.comm_s.to_bits(), comm.to_bits(), "html rank {rank}");
        assert_eq!(row.comp_s.to_bits(), comp.to_bits(), "html rank {rank}");
    }

    // 3. The timeline's Gantt HTML carries the same exact values in
    //    its data-* attributes.
    let gantt_rows = parse_html_rank_rows(&to_html(&tl, &an));
    assert_eq!(gantt_rows.len(), tl_doc.ranks.len());
    for ((rank, clock, comm, comp), row) in gantt_rows.iter().zip(&tl_doc.ranks) {
        assert_eq!(row.lane, *rank as u64);
        assert_eq!(row.clock_s.to_bits(), clock.to_bits(), "gantt rank {rank}");
        assert_eq!(row.comm_s.to_bits(), comm.to_bits(), "gantt rank {rank}");
        assert_eq!(row.comp_s.to_bits(), comp.to_bits(), "gantt rank {rank}");
    }

    // 4. The registry gauges render the same makespan/share the JSON
    //    document carries, through the shared exact formatter.
    register_metrics(profiler.registry(), &tl, &an);
    let prom = prometheus::render(profiler.registry());
    let expect_makespan = format!(
        "mfbc_timeline_makespan_seconds {}",
        mfbc_trace::json::num(tl_doc.makespan_s)
    );
    let expect_share = format!(
        "mfbc_timeline_critical_comm_share {}",
        mfbc_trace::json::num(tl_doc.comm_share)
    );
    assert!(
        prom.contains(&expect_makespan),
        "prometheus text missing `{expect_makespan}`"
    );
    assert!(
        prom.contains(&expect_share),
        "prometheus text missing `{expect_share}`"
    );

    // 5. And the critical path still folds to that same makespan.
    assert_eq!(
        an.path.sum_s().to_bits(),
        tl_doc.makespan_s.to_bits(),
        "critical path must sum bit-exactly to the exported makespan"
    );
}

#[test]
fn serve_rounds_round_trip_through_json_and_html() {
    // Synthesize the serve provenance stream directly (the serve
    // engine emits exactly these events) so the timeline crate pins
    // its own round-trip without a dependency on mfbc-serve.
    let spec = MachineSpec::gemini(2);
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::new(spec);
    scoped(builder.clone(), || {
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::RequestAdmitted {
            request_id: 1,
            query: "full",
            deadline_s: 250.0,
            queue_depth: 1,
        });
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::RoundStart {
            round: 1,
            requests: 2,
            budget_s: 250.0,
            store_version: 0,
        });
        machine.charge_compute(0, 1_000_003);
        machine
            .charge_collective(&machine.world(), CollectiveKind::Allreduce, 4_096)
            .unwrap();
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::DegradeDecision {
            round: 1,
            rung: "approx",
            reason: "budget",
            budget_s: 250.0,
            spent_s: 10.0,
            est_batch_s: 300.0,
            approx_k: 8,
            store_version: 0,
        });
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::RoundEnd {
            round: 1,
            responses: 2,
            elapsed_s: 10.0,
            store_version: 1,
        });
        // An unbounded round that advances nothing: exercises the
        // `None` budget and the zero-node attribution.
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::RoundStart {
            round: 2,
            requests: 1,
            budget_s: f64::INFINITY,
            store_version: 1,
        });
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::DegradeDecision {
            round: 2,
            rung: "exact",
            reason: "complete",
            budget_s: f64::INFINITY,
            spent_s: 0.0,
            est_batch_s: 0.0,
            approx_k: 0,
            store_version: 1,
        });
        mfbc_trace::emit(|| mfbc_trace::TraceEvent::RoundEnd {
            round: 2,
            responses: 1,
            elapsed_s: 0.0,
            store_version: 1,
        });
    });

    let tl = builder.finish();
    assert_eq!(tl.validate_against(&machine), Vec::<String>::new());
    assert_eq!(tl.rounds.len(), 2);
    assert!(
        tl.rounds[0].nodes > 0,
        "machine activity inside round 1 must be attributed to it"
    );
    assert_eq!(tl.rounds[0].budget_s, Some(250.0));
    assert_eq!(tl.rounds[1].budget_s, None, "infinite budget maps to None");
    assert_eq!(tl.rounds[1].nodes, 0);

    let an = analyze(&tl);
    let d = doc(&tl, &an, &[]);
    assert_eq!(d.version, 3, "rounds arrived with format version 3");
    let json = to_json(&d);
    assert_eq!(json, include_str!("golden/serve_rounds.timeline.json"));
    let parsed = parse_timeline(&json).expect("parse timeline.json");
    assert_eq!(
        parsed.rounds, d.rounds,
        "rounds array must survive the JSON round trip"
    );
    for (a, b) in parsed.rounds.iter().zip(&d.rounds) {
        assert_eq!(a.start_s.to_bits(), b.start_s.to_bits(), "round start_s");
        assert_eq!(a.end_s.to_bits(), b.end_s.to_bits(), "round end_s");
    }
    assert_eq!(
        to_json(&parsed),
        json,
        "parse -> re-serialize must be byte-identical"
    );

    let html = to_html(&tl, &an);
    assert!(html.contains("<div class=\"kv\">serve rounds</div>"));
    assert!(html.contains("round 1 approx (budget) 2 req → 2 resp"));
    assert!(html.contains("<h2>Serve rounds</h2>"));
    assert!(html.contains("data-round=\"1\""));
    assert!(html.contains("data-round=\"2\""));
}
