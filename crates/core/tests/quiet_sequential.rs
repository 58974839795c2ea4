//! A sequential call announces nothing: the entry points run on a
//! one-rank machine, and none of that machine's events — nor the row
//! kernels' `Pool` events on a pool of several threads — may enter a
//! recorder installed around the call (the serve engine's `mfbc_approx`
//! runs inside a traced round, whose trace is the engine machine's).
//! Tracing a one-rank run stays possible through `mfbc_dist`.
//!
//! The recorder is installed process-wide, so events from pool worker
//! threads would be caught too. This binary holds one test so that no
//! other test's events reach it.

use mfbc_core::approx::mfbc_approx;
use mfbc_core::bfs::sssp_seq;
use mfbc_core::cc::connected_components;
use mfbc_core::dist::{mfbc_dist, MfbcConfig};
use mfbc_core::seq::{mfbc_seq, mfbf_seq, mfbr_seq};
use mfbc_graph::gen::{rmat, RmatConfig};
use mfbc_graph::prep::{randomize_weights, remove_isolated};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_trace::MemoryRecorder;
use std::sync::Arc;

/// A `side × side` grid with seeded weights 1..=4: weighted, unmasked.
fn weighted_grid(side: usize) -> Graph {
    let at = |r: usize, c: usize| r * side + c;
    let across = (0..side).flat_map(|r| (1..side).map(move |c| (at(r, c - 1), at(r, c))));
    let down = (1..side).flat_map(|r| (0..side).map(move |c| (at(r - 1, c), at(r, c))));
    let edges: Vec<(usize, usize)> = across.chain(down).collect();
    randomize_weights(&Graph::unweighted(side * side, false, edges), 4, 7)
}

/// The tags of what `rec` holds, in order.
fn tags(rec: &MemoryRecorder) -> Vec<&'static str> {
    rec.snapshot().iter().map(|r| r.event.tag()).collect()
}

#[test]
fn sequential_calls_record_no_event() {
    let rec = Arc::new(MemoryRecorder::new());
    mfbc_trace::install(rec.clone());
    // A masked R-MAT graph and a weighted grid, in batches larger than
    // the row kernels' parallel threshold.
    let graphs = [
        (remove_isolated(&rmat(&RmatConfig::paper(8, 8, 3))), 64),
        (weighted_grid(12), 48),
    ];
    for (g, nb) in &graphs {
        let sources: Vec<usize> = (0..*nb).collect();
        for threads in [1, 2] {
            mfbc_parallel::with_threads(threads, || {
                mfbc_seq(g, *nb);
                let fwd = mfbf_seq(g, &sources);
                mfbr_seq(g, &fwd.t);
                sssp_seq(g, &sources);
                connected_components(g);
                mfbc_approx(g, *nb, 5);
            });
            let what = format!("n = {}, pool {threads}", g.n());
            assert_eq!(tags(&rec), Vec::<&str>::new(), "{what}: recorded");
        }
    }
    // The same machine, reached through the distributed driver, is
    // traced.
    let (g, nb) = &graphs[0];
    let cfg = MfbcConfig::default().with_batch_size(*nb);
    mfbc_dist(&Machine::new(MachineSpec::gemini(1)), g, &cfg).expect("fault-free");
    let seen = tags(&rec);
    mfbc_trace::uninstall_all();
    for tag in ["superstep", "spgemm"] {
        assert!(seen.contains(&tag), "a one-rank mfbc_dist records no {tag}");
    }
}
