//! The five betweenness-centrality workloads: `mfbc_seq` and
//! `mfbc_dist` on an R-MAT graph and on a weighted grid.
//!
//! Untraced repetitions time the one user-facing call. The traced
//! pass calls the same public pieces the program is built from, one
//! span per call, and re-steps batch 0 so the `sparse` numbers are
//! measured on the workload's real operands.

use crate::decl::Sizes;
use crate::inputs::{measure, median_of, rmat_graph, road_graph, timed};
use crate::probes;
use crate::report::{peak_rss_mib, Outcome};
use crate::spans::Tracer;
use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel};
use mfbc_algebra::{Centpath, CentpathMonoid, Multpath, MultpathMonoid};
use mfbc_core::oracle::{brandes_unweighted, brandes_weighted};
use mfbc_core::seq::mfbr::mfbr_seq;
use mfbc_core::seq::{mfbf_keep_in_frontier, mfbf_seq, mfbr_anchor, mfbr_fire};
use mfbc_core::{mfbc_dist, mfbc_seq, BcScores, MfbcConfig, MfbcRun, MfbcSession, SessionStep};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::elementwise::{combine, combine_anchored};
use mfbc_sparse::transpose::transpose;
use mfbc_sparse::{spgemm, spgemm_masked, Coo, Csr, Mask};

#[derive(Clone, Copy, PartialEq)]
pub enum GraphKind {
    Rmat,
    Road,
}

/// One BC workload: which graph, and `mfbc_seq` (`p = None`) or
/// `mfbc_dist` on `p` simulated ranks.
#[derive(Clone, Copy)]
pub struct BcSpec {
    pub name: &'static str,
    pub graph: GraphKind,
    pub p: Option<usize>,
}

pub const BC_WORKLOADS: [BcSpec; 5] = [
    BcSpec {
        name: "seq-rmat",
        graph: GraphKind::Rmat,
        p: None,
    },
    BcSpec {
        name: "seq-road",
        graph: GraphKind::Road,
        p: None,
    },
    BcSpec {
        name: "dist-p1",
        graph: GraphKind::Rmat,
        p: Some(1),
    },
    BcSpec {
        name: "dist-p16",
        graph: GraphKind::Rmat,
        p: Some(16),
    },
    BcSpec {
        name: "dist-road-p16",
        graph: GraphKind::Road,
        p: Some(16),
    },
];

impl BcSpec {
    fn nb(&self, sizes: &Sizes) -> usize {
        match self.graph {
            GraphKind::Rmat => sizes.rmat_nb,
            GraphKind::Road => sizes.road_nb,
        }
    }

    fn graph(&self, sizes: &Sizes, seed: u64) -> Graph {
        match self.graph {
            GraphKind::Rmat => rmat_graph(sizes, seed),
            GraphKind::Road => road_graph(sizes, seed),
        }
    }

    /// A fresh machine: meters accumulate, so every run gets its own.
    fn machine(&self) -> Option<Machine> {
        self.p.map(|p| Machine::new(MachineSpec::gemini(p)))
    }

    fn config(&self, sizes: &Sizes) -> MfbcConfig {
        MfbcConfig::default()
            .with_batch_size(self.nb(sizes))
            .with_threads(1)
    }
}

fn oracle(g: &Graph) -> BcScores {
    if g.is_unit_weighted() {
        brandes_unweighted(g)
    } else {
        brandes_weighted(g)
    }
}

/// One repetition's output: scores plus every count the program
/// reports, modeled ones included. Counts must repeat exactly.
struct Rep {
    wall_s: f64,
    scores: BcScores,
    counters: Vec<u64>,
}

fn dist_counters(run: &MfbcRun) -> Vec<u64> {
    let c = &run.report.critical;
    let mut v = vec![
        run.batches as u64,
        run.forward_iterations as u64,
        run.backward_iterations as u64,
        run.ops,
        run.frontier_nnz,
        c.total_time().to_bits(),
        c.comm_time.to_bits(),
        c.comp_time.to_bits(),
        c.msgs,
        c.bytes,
        run.report.total_ops,
    ];
    v.extend(&run.peak_bytes);
    v
}

fn one_rep(spec: &BcSpec, sizes: &Sizes, g: &Graph, delay_pct: f64) -> Rep {
    match spec.machine() {
        None => {
            let nb = spec.nb(sizes);
            let ((scores, st), wall_s) = timed(delay_pct, || mfbc_seq(g, nb));
            Rep {
                wall_s,
                scores,
                counters: vec![
                    st.batches as u64,
                    st.forward_iterations as u64,
                    st.backward_iterations as u64,
                    st.ops,
                    st.frontier_nnz,
                ],
            }
        }
        Some(m) => {
            let cfg = spec.config(sizes);
            let (run, wall_s) = timed(delay_pct, || {
                mfbc_dist(&m, g, &cfg).expect("fault-free mfbc_dist completes")
            });
            Rep {
                wall_s,
                counters: dist_counters(&run),
                scores: run.scores,
            }
        }
    }
}

/// The output checks of one repetition: scores against the Brandes
/// oracle, and counters against the first repetition's.
fn verify(rep: &Rep, want: &BcScores, first: &[u64]) -> Option<String> {
    if !rep.scores.approx_eq(want, 1e-9) {
        return Some(format!(
            "scores miss the Brandes oracle (max abs diff {:e})",
            rep.scores.max_abs_diff(want)
        ));
    }
    if rep.counters != first {
        return Some("program counters differ between repetitions".to_string());
    }
    None
}

pub fn run_untraced(
    spec: &BcSpec,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    delay_pct: f64,
) -> Outcome {
    let mut out = Outcome::default();
    let setup = || (spec.graph(sizes, seed), spec.machine());
    let (g, _machine) = setup();
    let want = oracle(&g);
    // Warm-up: pool creation and allocator growth happen once per
    // process, not once per call.
    let first = one_rep(spec, sizes, &g, 0.0);
    out.check(verify(&first, &want, &first.counters));
    // Read here, after one whole call: later the high-water mark creeps
    // with the number of repetitions, which the clock decides.
    out.set("peak_rss_mib", peak_rss_mib());
    let measured = measure(
        seconds,
        setup,
        || oracle(&g),
        || {
            let rep = one_rep(spec, sizes, &g, delay_pct);
            out.check(verify(&rep, &want, &first.counters));
            rep.wall_s
        },
    );
    out.set_end_to_end(measured);
    out
}

/// Batch 0 re-stepped from the public pieces, every operand kept.
struct Replay {
    /// Forward frontiers, in the order the sweep multiplied them.
    frontiers: Vec<Csr<Multpath>>,
    /// The multpath table before the first product.
    t0: Csr<Multpath>,
    t: Csr<Multpath>,
    z: Csr<Centpath>,
    fwd_ops: u64,
    bwd_ops: u64,
    bwd_steps: usize,
}

/// Algorithm 1 on `chunk`, one span per public call.
fn replay_forward(tr: &mut Tracer, g: &Graph, chunk: &[usize]) -> Replay {
    let (n, a) = (g.n(), g.adjacency());
    let (mut frontier, t0) = tr.leaf("core.init", || {
        let mut init = Coo::new(chunk.len(), n);
        let mut diag = Coo::new(chunk.len(), n);
        for (s, &src) in chunk.iter().enumerate() {
            for (v, w) in g.neighbors(src) {
                init.push(s, v, Multpath::new(w, 1.0));
            }
            diag.push(s, src, Multpath::trivial());
        }
        let frontier = init.into_csr::<MultpathMonoid>();
        let t = combine::<MultpathMonoid, _>(&frontier, &diag.into_csr::<MultpathMonoid>());
        (frontier, t)
    });
    let mut t = t0.clone();
    let mut frontiers = Vec::new();
    let mut fwd_ops = 0;
    while !frontier.is_empty() {
        let explored = tr.leaf("sparse.spgemm_bf", || {
            spgemm::<BellmanFordKernel>(&frontier, a)
        });
        fwd_ops += explored.ops;
        let t_new = tr.leaf("sparse.combine", || {
            combine::<MultpathMonoid, _>(&t, &explored.mat)
        });
        let next = tr.leaf("sparse.filter", || {
            explored
                .mat
                .filter(|s, v, gv| mfbf_keep_in_frontier(gv, t_new.get(s, v)).is_some())
        });
        frontiers.push(std::mem::replace(&mut frontier, next));
        t = t_new;
    }
    Replay {
        frontiers,
        t0,
        t,
        z: Csr::zero(chunk.len(), n),
        fwd_ops,
        bwd_ops: 0,
        bwd_steps: 0,
    }
}

/// `seq::mfbr`'s fire-and-pin from the public `mfbr_fire`.
fn fire_and_pin(tr: &mut Tracer, z: &mut Csr<Centpath>, t: &Csr<Multpath>) -> Csr<Centpath> {
    let frontier = tr.leaf("sparse.filter", || z.filter(|_, _, zv| zv.c == 0));
    if frontier.is_empty() {
        return frontier;
    }
    let fired = tr.leaf("sparse.map", || {
        frontier.map(|s, v, zv| {
            let sigma = t.get(s, v).expect("Z pattern is a subset of T's").m;
            mfbr_fire(zv, sigma).expect("filtered to c == 0")
        })
    });
    *z = tr.leaf("sparse.map", || {
        z.map(|_, _, zv| {
            if zv.c == 0 {
                Centpath::new(zv.w, zv.p, -1)
            } else {
                *zv
            }
        })
    });
    fired
}

/// Algorithm 2 on the replayed table, one span per public call.
fn replay_backward(tr: &mut Tracer, g: &Graph, rp: &mut Replay) {
    let t = &rp.t;
    let at = tr.leaf("sparse.transpose", || transpose(g.adjacency()));
    let seeds = tr.leaf("sparse.map", || {
        t.map(|_, _, mp| Centpath::new(mp.w, 0.0, 1))
    });
    let counted = tr.leaf("sparse.spgemm_brandes", || {
        spgemm::<BrandesKernel>(&seeds, &at)
    });
    rp.bwd_ops += counted.ops;
    let mut z = tr.leaf("sparse.map", || {
        t.map(|s, v, mp| mfbr_anchor(mp, counted.mat.get(s, v)))
    });
    let mut frontier = fire_and_pin(tr, &mut z, t);
    while !frontier.is_empty() {
        rp.bwd_steps += 1;
        let back = tr.leaf("sparse.spgemm_brandes", || {
            spgemm::<BrandesKernel>(&frontier, &at)
        });
        rp.bwd_ops += back.ops;
        z = tr.leaf("sparse.combine_anchored", || {
            combine_anchored::<CentpathMonoid, _>(&z, &back.mat)
        });
        frontier = fire_and_pin(tr, &mut z, t);
    }
    rp.z = z;
}

/// What the program itself reports for a whole traced pass.
struct Program {
    scores: BcScores,
    ops: u64,
    fwd_steps: usize,
    bwd_steps: usize,
    frontier_nnz: u64,
    /// Seconds of the traced pass over the public per-batch calls.
    pass_s: f64,
}

/// The program's own tables and operation count for batch 0: what the
/// replay has to reproduce.
struct Batch0 {
    t: Csr<Multpath>,
    z: Csr<Centpath>,
    ops: u64,
}

fn batch0_of(g: &Graph, chunk: &[usize]) -> Batch0 {
    let fwd = mfbf_seq(g, chunk);
    let back = mfbr_seq(g, &fwd.t);
    Batch0 {
        ops: fwd.ops + back.ops,
        t: fwd.t,
        z: back.z,
    }
}

/// Traced pass of `mfbc_seq`: Algorithm 3 from `mfbf_seq`/`mfbr_seq`
/// per batch, with the λ accumulation (the glue) done here.
fn traced_seq(tr: &mut Tracer, g: &Graph, nb: usize) -> (Program, Batch0) {
    let sources: Vec<usize> = (0..g.n()).collect();
    let mut prog = Program {
        scores: BcScores::zeros(g.n()),
        ops: 0,
        fwd_steps: 0,
        bwd_steps: 0,
        frontier_nnz: 0,
        pass_s: 0.0,
    };
    let mut batch0 = None;
    let (_, pass_s) = timed(0.0, || {
        for chunk in sources.chunks(nb) {
            let fwd = tr.leaf("core.mfbf_seq", || mfbf_seq(g, chunk));
            let back = tr.leaf("core.mfbr_seq", || mfbr_seq(g, &fwd.t));
            tr.leaf("core.glue", || {
                for (s, v, z) in back.z.iter() {
                    if v != chunk[s] {
                        let sigma = fwd.t.get(s, v).expect("Z pattern is a subset of T's").m;
                        prog.scores.lambda[v] += z.p * sigma;
                    }
                }
            });
            prog.ops += fwd.ops + back.ops;
            prog.fwd_steps += fwd.iterations;
            prog.bwd_steps += back.iterations;
            prog.frontier_nnz += fwd.frontier_nnz;
            batch0.get_or_insert(Batch0 {
                ops: fwd.ops + back.ops,
                t: fwd.t,
                z: back.z,
            });
        }
    });
    prog.pass_s = pass_s;
    (prog, batch0.expect("a non-empty graph has a first batch"))
}

/// Traced pass of `mfbc_dist`: the same session calls the one-shot
/// driver makes, one span each.
fn traced_dist(
    tr: &mut Tracer,
    out: &mut Outcome,
    m: &Machine,
    g: &Graph,
    cfg: &MfbcConfig,
) -> Program {
    let ((run, cache), pass_s) = timed(0.0, || {
        let mut session = tr
            .leaf("core.session_new", || MfbcSession::new(m, g, cfg))
            .expect("session opens on a fault-free machine");
        while tr
            .leaf("core.session_step", || session.step())
            .expect("fault-free step commits")
            != SessionStep::Done
        {}
        let cache = session.cache_stats();
        (tr.leaf("core.session_finish", || session.finish()), cache)
    });
    let c = &run.report.critical;
    out.set("core.session_new_s", tr.total_s("core.session_new"));
    out.set("core.step_s", tr.total_s("core.session_step"));
    out.set("core.finish_s", tr.total_s("core.session_finish"));
    out.set_cache_stats(cache.hits, cache.misses);
    out.set("machine.modeled_makespan_s", c.total_time());
    out.set("machine.msgs", c.msgs as f64);
    out.set("machine.bytes", c.bytes as f64);
    out.set("machine.comm_s", c.comm_time);
    out.set("machine.comp_s", c.comp_time);
    out.set("machine.comm_share", c.comm_time / c.total_time());
    out.set(
        "machine.max_peak_bytes",
        run.peak_bytes.iter().copied().max().unwrap_or(0) as f64,
    );
    Program {
        ops: run.ops,
        fwd_steps: run.forward_iterations,
        bwd_steps: run.backward_iterations,
        frontier_nnz: run.frontier_nnz,
        scores: run.scores,
        pass_s,
    }
}

/// The `sparse` metrics, read off the replay's spans.
fn report_sparse(out: &mut Outcome, tr: &Tracer, rp: &Replay, program_ops: u64) {
    let fwd_spgemm_s = tr.total_s("sparse.spgemm_bf");
    let bwd_spgemm_s = tr.total_s("sparse.spgemm_brandes");
    out.set("sparse.fwd_spgemm_s", fwd_spgemm_s);
    out.set("sparse.fwd_spgemm_ops", rp.fwd_ops as f64);
    out.set(
        "sparse.fwd_ns_per_op",
        fwd_spgemm_s * 1e9 / rp.fwd_ops as f64,
    );
    out.set("sparse.bwd_spgemm_s", bwd_spgemm_s);
    out.set("sparse.bwd_spgemm_ops", rp.bwd_ops as f64);
    out.set(
        "sparse.bwd_ns_per_op",
        bwd_spgemm_s * 1e9 / rp.bwd_ops as f64,
    );
    out.set(
        "sparse.fwd_us_per_step",
        tr.total_s("replay.forward") * 1e6 / rp.frontiers.len().max(1) as f64,
    );
    // The counting product before the loop is a backward step too.
    out.set(
        "sparse.bwd_us_per_step",
        tr.total_s("replay.backward") * 1e6 / (rp.bwd_steps + 1) as f64,
    );
    out.set(
        "sparse.combine_s",
        tr.total_s("sparse.combine") + tr.total_s("sparse.combine_anchored"),
    );
    out.set(
        "sparse.filter_map_s",
        tr.total_s("sparse.filter") + tr.total_s("sparse.map"),
    );
    out.set("sparse.transpose_s", tr.total_s("sparse.transpose"));
    out.set(
        "sparse.replay_ops_ratio",
        (rp.fwd_ops + rp.bwd_ops) as f64 / program_ops as f64,
    );
}

/// The forward operand sequence once more: the local kernel as
/// `mfbc_dist` calls it (under the complement-of-`T` mask where the
/// graph is unit-weighted) and, for a dist workload, the same products
/// through `mm_auto_masked` on a fresh machine.
fn operand_pass(
    tr: &mut Tracer,
    out: &mut Outcome,
    g: &Graph,
    rp: &Replay,
    p: Option<usize>,
) -> Option<String> {
    let a = g.adjacency();
    let masked = g.is_unit_weighted();
    let dist = p.map(|p| probes::DistOperands::new(p, g));
    let mut t = rp.t0.clone();
    let mut local_ops = 0;
    for f in &rp.frontiers {
        let mask = masked.then(|| Mask::complement_of(&t));
        let local = tr.leaf("sparse.spgemm_local", || match &mask {
            Some(mask) => spgemm_masked::<BellmanFordKernel>(f, a, mask),
            None => spgemm::<BellmanFordKernel>(f, a),
        });
        local_ops += local.ops;
        if let Some(d) = &dist {
            let df = d.lhs(f);
            let ops = tr.leaf("tensor.mm_auto", || d.multiply(&df, mask.as_ref()));
            assert_eq!(
                ops, local.ops,
                "distributed product forms the same products"
            );
        }
        t = combine::<MultpathMonoid, _>(&t, &local.mat);
    }
    let local_s = tr.total_s("sparse.spgemm_local");
    let probe_s = tr.total_s("tensor.mm_auto");
    if masked {
        out.set(
            "sparse.masked_ops_ratio",
            local_ops as f64 / rp.fwd_ops as f64,
        );
        out.set("sparse.masked_ns_per_op", local_s * 1e9 / local_ops as f64);
    }
    if dist.is_some() {
        out.set("tensor.mm_probe_s", probe_s);
        out.set("tensor.mm_local_s", local_s);
        out.set("tensor.mm_overhead_ratio", probe_s / local_s);
    }
    t.first_difference(&rp.t)
        .map(|d| format!("operand pass: table differs from the replayed T: {d}"))
}

/// The untraced base every ratio is taken against: the median of three
/// calls, first under glibc's default thresholds, then with freed
/// memory kept, as the end-to-end runs have it (see `alloc.rs`).
fn base_wall_s(out: &mut Outcome, spec: &BcSpec, sizes: &Sizes, g: &Graph, want: &BcScores) -> f64 {
    let base = |out: &mut Outcome| {
        let reps: Vec<Rep> = (0..3).map(|_| one_rep(spec, sizes, g, 0.0)).collect();
        for rep in &reps {
            out.check(verify(rep, want, &reps[0].counters));
        }
        crate::stats::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>())
    };
    let default_s = base(out);
    crate::alloc::keep_freed_memory();
    let (_, allocs, alloc_mib) = crate::alloc::counted(|| one_rep(spec, sizes, g, 0.0));
    let wall_s = base(out);
    out.set("core.default_malloc_ratio", default_s / wall_s);
    out.set("core.allocs_per_call", allocs);
    out.set("core.alloc_mib_per_call", alloc_mib);
    wall_s
}

pub fn run_traced(spec: &BcSpec, sizes: &Sizes, seed: u64) -> Outcome {
    let mut out = Outcome::per_layer_zeroed();
    let mut tr = Tracer::new(spec.name);
    let nb = spec.nb(sizes);
    let cfg = spec.config(sizes);

    let (g, gen_s) = timed(0.0, || spec.graph(sizes, seed));
    out.set("graph.gen_s", gen_s);
    out.set("graph.n", g.n() as f64);
    out.set("graph.arcs", g.m() as f64);
    let want = oracle(&g);
    let brandes_s = median_of(3, || oracle(&g));
    let wall_s = base_wall_s(&mut out, spec, sizes, &g, &want);

    // (a) the traced pass over the public per-batch calls.
    let chunk0: Vec<usize> = (0..nb.min(g.n())).collect();
    let (prog, batch0) = match spec.machine() {
        None => {
            let (prog, batch0) = traced_seq(&mut tr, &g, nb);
            let (mfbf_s, mfbr_s) = (tr.total_s("core.mfbf_seq"), tr.total_s("core.mfbr_seq"));
            out.set("core.mfbf_s", mfbf_s);
            out.set("core.mfbr_s", mfbr_s);
            out.set("core.glue_s", wall_s - mfbf_s - mfbr_s);
            (prog, batch0)
        }
        Some(m) => {
            let prog = traced_dist(&mut tr, &mut out, &m, &g, &cfg);
            // The dist driver keeps T and Z to itself; the replay is
            // checked against the sequential program on the same batch.
            (
                prog,
                tr.span("replay.reference", |_| batch0_of(&g, &chunk0)),
            )
        }
    };
    out.check(
        (!prog.scores.approx_eq(&want, 1e-9))
            .then(|| "traced pass: scores miss the Brandes oracle".to_string()),
    );
    out.set("bench.trace_overhead_ratio", prog.pass_s / wall_s);
    out.set("core.wall_s", wall_s);
    out.set("core.brandes_s", brandes_s);
    out.set("core.mteps", (g.n() * g.m()) as f64 / wall_s / 1e6);
    out.set("core.fwd_steps", prog.fwd_steps as f64);
    out.set("core.bwd_steps", prog.bwd_steps as f64);
    out.set("core.ops", prog.ops as f64);
    out.set("core.frontier_nnz", prog.frontier_nnz as f64);

    // (b) batch 0 re-stepped from the public sparse pieces.
    let mut rp = tr.span("replay.forward", |tr| replay_forward(tr, &g, &chunk0));
    tr.span("replay.backward", |tr| replay_backward(tr, &g, &mut rp));
    tr.span("replay.check", |_| {
        for (what, diff) in [
            ("T", rp.t.first_difference(&batch0.t)),
            ("Z", rp.z.first_difference(&batch0.z)),
        ] {
            out.check(diff.map(|d| format!("replayed {what} differs from the program's: {d}")));
        }
    });
    report_sparse(&mut out, &tr, &rp, batch0.ops);
    if spec.p.is_none() {
        // Batch 0's mfbf_seq minus the sparse calls it is made of.
        let batch0_mfbf_s = tr
            .spans()
            .iter()
            .find(|s| s.name == "core.mfbf_seq")
            .map_or(0.0, |s| s.dur_ns() as f64 * 1e-9);
        out.set(
            "core.mfbf_self_s",
            batch0_mfbf_s - tr.total_under_s("replay.forward", "sparse."),
        );
    }

    // (c) the captured operands fed to the layer probes.
    let failure = tr.span("probe.operands", |tr| {
        operand_pass(tr, &mut out, &g, &rp, spec.p)
    });
    out.check(failure);
    let densest = rp
        .frontiers
        .iter()
        .max_by_key(|f| f.nnz())
        .expect("a batch has at least one frontier");
    tr.span("probe.algebra", |_| probes::algebra(&mut out, seed));
    tr.span("probe.parallel", |_| {
        probes::parallel(&mut out, densest, g.adjacency())
    });
    if let Some(p) = spec.p {
        tr.span("probe.tensor", |_| probes::tensor(&mut out, p, &g, densest));
        tr.span("probe.machine", |_| probes::machine(&mut out, p, seed));
        let failure = tr.span("probe.recorders", |_| {
            probes::recorders(&mut out, p, &g, &cfg, wall_s, &prog.scores)
        });
        out.check(failure);
        let seq_s = tr.span("probe.seq_base", |_| median_of(3, || mfbc_seq(&g, nb)));
        out.set("core.dist_over_seq_ratio", wall_s / seq_s);
        let collectives = out.get("machine.collectives").unwrap_or(0.0);
        if collectives > 0.0 {
            out.set("machine.host_us_per_collective", wall_s * 1e6 / collectives);
        }
        let makespan = out.get("machine.modeled_makespan_s").unwrap_or(0.0);
        out.set("machine.host_s_per_modeled_s", wall_s / makespan);
    }

    out.finish_trace(&tr, spec.name);
    out
}
