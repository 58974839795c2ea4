//! SSSP, connected components and MFBF, pinned bit for bit.
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
//! back to zero when it returns.
//!
//! `golden/mfbf.txt` was generated by `mfbf_seq` while it ran on a
//! shared-memory backend (since deleted) that still built each product
//! as a matrix and merged it into `T` on the next line. Per batch of a masked R-MAT graph and of a weighted grid
//! it holds every superstep's frontier nnz and `ops` and, per row of
//! `T`, its entry count and a digest of every entry's column and the
//! bits of both fields. Batches hold more rows than the parallel
//! product's threshold, and the table is checked at pools of 1, 2 and
//! 4 threads.
//!
//! On a mismatch the fresh table is written next to the test binaries
//! (`frontier.actual.txt`, `mfbf.actual.txt`).

use mfbc_algebra::kernel::BellmanFordKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::{Dist, Multpath, MultpathMonoid};
use mfbc_core::backend::Simulated;
use mfbc_core::bfs::{sssp_dist, sssp_seq};
use mfbc_core::cc::connected_components;
use mfbc_core::seq::{mfbf_keep_in_frontier, mfbf_seq};
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::prep::{randomize_weights, remove_isolated};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr};
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

/// Asserts `fresh` is `golden`; otherwise writes `fresh` to
/// `{name}.actual.txt` and names the first differing line.
fn assert_golden(name: &str, fresh: &str, golden: &str) {
    if fresh == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&path, fresh).unwrap();
    let first = fresh
        .lines()
        .zip(golden.lines())
        .find(|(f, g)| f != g)
        .map(|(f, g)| format!("\n  fresh:  {f}\n  golden: {g}"))
        .unwrap_or_else(|| " (line counts differ)".into());
    panic!(
        "drifted from golden/{name}.txt; fresh table at {}; first difference:{first}",
        path.display()
    );
}

#[test]
fn sssp_and_components_match_the_golden() {
    assert_golden("frontier", &table(), include_str!("golden/frontier.txt"));
}

/// MFBF's loop (`sweep::forward` on the sequential machine) stepped by
/// hand, so that every superstep can be read: `T` and each superstep's
/// frontier nnz and `ops`. Asserted to be `mfbf_seq`'s run.
fn mfbf_steps(g: &Graph, sources: &[usize]) -> (Csr<Multpath>, Vec<(usize, u64)>) {
    let (mut init, mut diag) = (
        Coo::new(sources.len(), g.n()),
        Coo::new(sources.len(), g.n()),
    );
    for (s, &src) in sources.iter().enumerate() {
        for (v, w) in g.neighbors(src) {
            init.push(s, v, Multpath::new(w, 1.0));
        }
        diag.push(s, src, Multpath::trivial());
    }
    let mut be = Simulated::sequential(g);
    let mut frontier = be.place(init.into_csr::<MultpathMonoid>());
    let diag = be.place(diag.into_csr::<MultpathMonoid>());
    let mut table = be.open::<MultpathMonoid>(&frontier, Some(&diag)).unwrap();
    let keep =
        |gv: &Multpath, _: Option<&Multpath>, tv: &Multpath| mfbf_keep_in_frontier(gv, Some(tv));
    let mut steps = Vec::new();
    while frontier.nnz() > 0 {
        let (kept, ops) = be
            .explore::<BellmanFordKernel>(&mut table, &frontier, keep)
            .unwrap();
        steps.push((frontier.nnz(), ops));
        frontier = kept;
    }
    let t = be.freeze(table).into_block();
    let seq = mfbf_seq(g, sources);
    assert_eq!(
        seq.t.first_difference(&t),
        None,
        "the loop above is not mfbf_seq's"
    );
    let nnz: u64 = steps.iter().map(|&(f, _)| f as u64).sum();
    let ops: u64 = steps.iter().map(|&(_, o)| o).sum();
    assert_eq!(
        (seq.iterations, seq.frontier_nnz, seq.ops),
        (steps.len(), nnz, ops)
    );
    (t, steps)
}

/// FNV-1a over a row of `T`: each entry's column, weight and the bits
/// of its multiplicity.
fn row_digest(t: &Csr<Multpath>, s: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (v, mp) in t.row(s) {
        for word in [v as u64, mp.w.raw(), mp.m.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn mfbf_table() -> String {
    let rmat_unit = remove_isolated(&rmat(&RmatConfig::paper(7, 8, 3)));
    let mut out = String::new();
    for (name, g, nb) in [
        ("rmat-unit", rmat_unit, 48),
        ("grid-weighted", weighted_grid(12), 40),
    ] {
        let sources: Vec<usize> = (0..g.n()).collect();
        let unit = g.is_unit_weighted();
        writeln!(
            out,
            "== {name} n={} arcs={} unit={unit} nb={nb}",
            g.n(),
            g.m()
        )
        .unwrap();
        for chunk in sources.chunks(nb) {
            let (t, steps) = mfbf_steps(&g, chunk);
            let steps: Vec<String> = steps.iter().map(|(f, o)| format!("{f}/{o}")).collect();
            writeln!(out, "batch {}: nnz/ops {}", chunk[0], steps.join(" ")).unwrap();
            for (s, &src) in chunk.iter().enumerate() {
                writeln!(
                    out,
                    "T {src}: nnz={} {:016x}",
                    t.row_nnz(s),
                    row_digest(&t, s)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn mfbf_tables_match_the_golden_at_every_pool_size() {
    for threads in [1, 2, 4] {
        let fresh = mfbc_parallel::with_threads(threads, mfbf_table);
        assert_golden("mfbf", &fresh, include_str!("golden/mfbf.txt"));
    }
}
