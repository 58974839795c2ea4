//! SSSP and connected components, pinned bit for bit.
//!
//! `golden/frontier.txt` was generated by the hand-written loops
//! `bfs::sssp_seq`, `bfs::sssp_dist` and `cc::connected_components`
//! ran before they became `sweep` callers. Per seeded graph — unit and
//! weighted weights, directed and undirected, isolated vertices and
//! several components — it holds the component labels, every row of
//! `sssp_seq`'s distances, the supersteps `sssp_dist` takes (its
//! termination allreduces at p = 4, less the final one) and, on
//! weighted graphs, where no mask applies, the bits of `sssp_dist`'s
//! cost report at p ∈ {1, 4, 16} on a serialized and on an overlapped
//! machine. Beside the table the test asserts that `sssp_dist`'s
//! distances are `sssp_seq`'s and that every rank's resident bytes are
//! back to zero when it returns. On a mismatch the fresh table is
//! written next to the test binaries (`frontier.actual.txt`).

use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_core::bfs::{sssp_dist, sssp_seq};
use mfbc_core::cc::connected_components;
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::prep::randomize_weights;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_trace::{MemoryRecorder, TraceEvent};
use std::fmt::Write as _;
use std::sync::Arc;

/// A `side × side` grid with seeded weights 1..=4: many supersteps.
fn weighted_grid(side: usize) -> Graph {
    let at = |r: usize, c: usize| r * side + c;
    let across = (0..side).flat_map(|r| (1..side).map(move |c| (at(r, c - 1), at(r, c))));
    let down = (1..side).flat_map(|r| (0..side).map(move |c| (at(r - 1, c), at(r, c))));
    let edges: Vec<(usize, usize)> = across.chain(down).collect();
    randomize_weights(&Graph::unweighted(side * side, false, edges), 4, 7)
}

fn graphs() -> Vec<(&'static str, Graph)> {
    let w = |u, v, d| (u, v, Dist::new(d));
    vec![
        ("uniform-unit-undirected", uniform(40, 60, false, None, 1)),
        ("uniform-unit-directed", uniform(40, 90, true, None, 2)),
        (
            "uniform-weighted-undirected",
            uniform(48, 110, false, Some(9), 3),
        ),
        (
            "uniform-weighted-directed",
            uniform(48, 120, true, Some(7), 4),
        ),
        ("rmat-unit", rmat(&RmatConfig::paper(6, 3, 5))),
        (
            "rmat-weighted",
            randomize_weights(&rmat(&RmatConfig::paper(6, 3, 6)), 20, 1),
        ),
        ("grid-weighted", weighted_grid(8)),
        (
            "islands-unit",
            Graph::unweighted(12, false, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4), (8, 9)]),
        ),
        (
            "islands-weighted-directed",
            Graph::new(
                10,
                true,
                [
                    w(0, 1, 3),
                    w(1, 2, 1),
                    w(0, 2, 5),
                    w(3, 4, 2),
                    w(6, 5, 1),
                    w(8, 7, 4),
                ],
            ),
        ),
    ]
}

/// Termination allreduces `sssp_dist` charges on `m` — the only
/// allreduces it makes.
fn allreduces(m: &Machine, g: &Graph, sources: &[usize]) -> usize {
    let rec = Arc::new(MemoryRecorder::new());
    mfbc_trace::scoped(rec.clone(), || sssp_dist(m, g, sources).unwrap());
    let is_allreduce = |e: &TraceEvent| match e {
        TraceEvent::Collective { charge } | TraceEvent::CollectiveIssue { charge, .. } => {
            charge.kind == "allreduce"
        }
        _ => false,
    };
    rec.take().iter().filter(|r| is_allreduce(&r.event)).count()
}

fn table() -> String {
    let mut out = String::new();
    for (name, g) in graphs() {
        let (n, unit) = (g.n(), g.is_unit_weighted());
        let sources: Vec<usize> = (0..n).step_by(3).collect();
        writeln!(
            out,
            "== {name} n={n} arcs={} directed={} unit={unit}",
            g.m(),
            g.directed()
        )
        .unwrap();
        let labels = connected_components(&g);
        let labels: Vec<String> = labels.iter().map(u64::to_string).collect();
        writeln!(out, "components: {}", labels.join(" ")).unwrap();
        let dist = sssp_seq(&g, &sources);
        for (s, &src) in sources.iter().enumerate() {
            let row = (0..n).map(|v| dist.get(s, v).map_or(".".into(), |d| d.raw().to_string()));
            writeln!(out, "sssp {src}: {}", row.collect::<Vec<_>>().join(" ")).unwrap();
        }
        let steps = allreduces(&Machine::new(MachineSpec::test(4)), &g, &sources) - 1;
        writeln!(out, "supersteps={steps}").unwrap();
        for p in [1usize, 4, 16] {
            for (spec_name, spec) in [
                ("test", MachineSpec::test(p)),
                ("gemini", MachineSpec::gemini(p)),
            ] {
                let m = Machine::new(spec);
                let got = sssp_dist(&m, &g, &sources).unwrap();
                assert_eq!(got.to_global::<MinDist>(), dist, "{name} p={p} {spec_name}");
                let resident = m.memory_snapshot().resident().to_vec();
                assert!(
                    resident.iter().all(|&b| b == 0),
                    "{name} p={p}: {resident:?}"
                );
                if unit {
                    continue;
                }
                let r = m.report();
                writeln!(
                    out,
                    "p={p} {spec_name} makespan={:016x} comm={:016x} comp={:016x} \
                     msgs={} bytes={} ops={}",
                    m.makespan_s().to_bits(),
                    r.critical.comm_time.to_bits(),
                    r.critical.comp_time.to_bits(),
                    r.critical.msgs,
                    r.critical.bytes,
                    r.total_ops,
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn sssp_and_components_match_the_golden() {
    let fresh = table();
    let golden = include_str!("golden/frontier.txt");
    if fresh != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontier.actual.txt");
        std::fs::write(&path, &fresh).unwrap();
        let first = fresh
            .lines()
            .zip(golden.lines())
            .find(|(f, g)| f != g)
            .map(|(f, g)| format!("\n  fresh:  {f}\n  golden: {g}"))
            .unwrap_or_else(|| " (line counts differ)".into());
        panic!(
            "SSSP/CC drifted from golden/frontier.txt; fresh table at {}; first difference:{first}",
            path.display()
        );
    }
}
