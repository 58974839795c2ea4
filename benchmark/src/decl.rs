//! What the benchmark declares: workloads, input sizes, and every
//! metric it prints. `BENCHMARK.json` at the repository root repeats
//! the names, units and directions; `tests/schema.rs` holds the two
//! in step.

/// One workload: a name and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "seq-rmat",
        why: "mfbc_seq on R-MAT: few dense supersteps, elementary products dominate, no simulator",
    },
    Workload {
        name: "seq-road",
        why: "mfbc_seq on a weighted grid: many hypersparse supersteps, per-step fixed cost dominates",
    },
    Workload {
        name: "dist-p1",
        why: "mfbc_dist on the R-MAT graph at p=1: what exceeds seq-rmat is driver and simulator overhead",
    },
    Workload {
        name: "dist-p16",
        why: "mfbc_dist on the R-MAT graph at p=16: plans, redistribution and cache work on few large products",
    },
    Workload {
        name: "dist-road-p16",
        why: "mfbc_dist on the grid at p=16: thousands of collectives on tiny operands, bookkeeping dominates",
    },
    Workload {
        name: "serve-converge",
        why: "fresh Engine driven by one closed-loop client until exact: advance plus approx/stale ladder",
    },
    Workload {
        name: "serve-warm",
        why: "converged Engine answering a 10/40/50 full/topk/vertex mix: pure per-request overhead",
    },
];

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `SMOKE` is
/// a seconds-long whole run for the sensitivity test.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub rmat_scale: u32,
    pub rmat_nb: usize,
    pub grid_side: usize,
    pub road_nb: usize,
    pub serve_n: usize,
    pub serve_m: usize,
    pub serve_nb: usize,
    /// Requests per warm segment (one `wall_s` sample of `serve-warm`).
    pub warm_segment: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rmat_scale: 10,
        rmat_nb: 512,
        grid_side: 24,
        road_nb: 256,
        serve_n: 512,
        serve_m: 4096,
        serve_nb: 64,
        warm_segment: 40_000,
    };
    pub const SMOKE: Sizes = Sizes {
        rmat_scale: 8,
        rmat_nb: 128,
        grid_side: 10,
        road_nb: 50,
        serve_n: 128,
        serve_m: 768,
        serve_nb: 32,
        warm_segment: 4_000,
    };
}

/// Ranks of the simulated machine behind both serve workloads.
pub const SERVE_P: usize = 4;

/// An end-to-end metric: what a user of the system sees. Every
/// workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression. A bound has to be three
    /// times the spread between runs of unchanged code; across seeds
    /// on the shared two-core sandbox that spread reaches 8 %, and
    /// single runs of the memory-heavy workloads have differed by 24 %.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_vs_brandes",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric. `moves` names the end-to-end metric and the
/// workloads it is predicted to move, as `metric@workload,workload`,
/// or `none`; everywhere else the prediction is no change.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const ALL: &str =
    "setup_s@seq-rmat,seq-road,dist-p1,dist-p16,dist-road-p16,serve-converge,serve-warm";
const DIST: &str = "wall_vs_brandes@dist-p1,dist-p16,dist-road-p16";

pub const PER_LAYER: &[PerLayer] = &[
    // graph
    pl("graph.gen_s", "s", "lower", ALL),
    pl("graph.n", "count", "lower", ALL),
    pl("graph.arcs", "count", "lower", ALL),
    // algebra
    pl(
        "algebra.multpath_bytes",
        "B",
        "lower",
        "peak_rss_mib@seq-rmat",
    ),
    pl(
        "algebra.centpath_bytes",
        "B",
        "lower",
        "peak_rss_mib@seq-rmat",
    ),
    pl(
        "algebra.bf_relax_ns",
        "ns",
        "lower",
        "wall_vs_brandes@seq-rmat",
    ),
    pl(
        "algebra.brandes_relax_ns",
        "ns",
        "lower",
        "wall_vs_brandes@seq-rmat",
    ),
    // sparse (batch-0 replay)
    pl(
        "sparse.fwd_spgemm_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "sparse.fwd_spgemm_ops",
        "count",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "sparse.fwd_ns_per_op",
        "ns",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "sparse.bwd_spgemm_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "sparse.bwd_spgemm_ops",
        "count",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "sparse.bwd_ns_per_op",
        "ns",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "sparse.fwd_us_per_step",
        "us",
        "lower",
        "wall_vs_brandes@seq-road,dist-road-p16",
    ),
    pl(
        "sparse.bwd_us_per_step",
        "us",
        "lower",
        "wall_vs_brandes@seq-road,dist-road-p16",
    ),
    pl(
        "sparse.combine_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "sparse.filter_map_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "sparse.transpose_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "sparse.masked_ops_ratio",
        "ratio",
        "lower",
        "wall_vs_brandes@dist-p1,dist-p16",
    ),
    pl(
        "sparse.masked_ns_per_op",
        "ns",
        "lower",
        "wall_vs_brandes@dist-p1,dist-p16",
    ),
    pl("sparse.replay_ops_ratio", "ratio", "lower", "none"),
    // parallel
    pl("parallel.spgemm_t2_speedup", "ratio", "higher", "none"),
    // core
    pl("core.wall_s", "s", "lower", "none"),
    pl("core.brandes_s", "s", "lower", "none"),
    pl(
        "core.mteps",
        "MTEPS",
        "higher",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "core.mfbf_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "core.mfbr_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "core.glue_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "core.mfbf_self_s",
        "s",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "core.allocs_per_call",
        "count",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl(
        "core.alloc_mib_per_call",
        "MiB",
        "lower",
        "wall_vs_brandes@seq-rmat,seq-road",
    ),
    pl("core.default_malloc_ratio", "ratio", "lower", "none"),
    pl(
        "core.fwd_steps",
        "count",
        "lower",
        "wall_vs_brandes@seq-road,dist-road-p16",
    ),
    pl(
        "core.bwd_steps",
        "count",
        "lower",
        "wall_vs_brandes@seq-road,dist-road-p16",
    ),
    pl(
        "core.ops",
        "count",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl(
        "core.frontier_nnz",
        "count",
        "lower",
        "wall_vs_brandes@seq-rmat,dist-p1",
    ),
    pl("core.session_new_s", "s", "lower", DIST),
    pl("core.step_s", "s", "lower", DIST),
    pl("core.finish_s", "s", "lower", DIST),
    pl(
        "core.dist_over_seq_ratio",
        "ratio",
        "lower",
        "wall_vs_brandes@dist-p1,dist-road-p16",
    ),
    // tensor (probes at the workload's p on the captured batch-0 operands)
    pl("tensor.from_global_s", "s", "lower", DIST),
    pl("tensor.to_global_s", "s", "lower", DIST),
    pl(
        "tensor.mm_probe_s",
        "s",
        "lower",
        "wall_vs_brandes@dist-p16,dist-road-p16",
    ),
    pl(
        "tensor.mm_local_s",
        "s",
        "lower",
        "wall_vs_brandes@dist-p16,dist-road-p16",
    ),
    pl(
        "tensor.mm_overhead_ratio",
        "ratio",
        "lower",
        "wall_vs_brandes@dist-p16,dist-road-p16",
    ),
    pl(
        "tensor.autotune_us",
        "us",
        "lower",
        "wall_vs_brandes@dist-road-p16",
    ),
    pl(
        "tensor.autotune_calls",
        "count",
        "lower",
        "wall_vs_brandes@dist-road-p16",
    ),
    pl("tensor.redist_s", "s", "lower", "wall_vs_brandes@dist-p16"),
    pl(
        "tensor.redist_mb_per_s",
        "MB/s",
        "higher",
        "wall_vs_brandes@dist-p16",
    ),
    pl(
        "tensor.cache_hits",
        "count",
        "higher",
        "wall_vs_brandes@dist-p16",
    ),
    pl(
        "tensor.cache_misses",
        "count",
        "lower",
        "wall_vs_brandes@dist-p16",
    ),
    pl(
        "tensor.cache_hit_ratio",
        "ratio",
        "higher",
        "wall_vs_brandes@dist-p16",
    ),
    pl("tensor.mm_calls", "count", "lower", DIST),
    pl(
        "tensor.redist_calls",
        "count",
        "lower",
        "wall_vs_brandes@dist-p16",
    ),
    pl(
        "tensor.redist_bytes",
        "B",
        "lower",
        "wall_vs_brandes@dist-p16",
    ),
    pl("tensor.plan_1d_share", "ratio", "higher", "none"),
    // machine (modeled numbers are exact and repeat bit for bit)
    pl("machine.modeled_makespan_s", "s", "lower", "none"),
    pl(
        "machine.collectives",
        "count",
        "lower",
        "wall_vs_brandes@dist-road-p16",
    ),
    pl("machine.msgs", "count", "lower", "none"),
    pl("machine.bytes", "B", "lower", "none"),
    pl("machine.comm_s", "s", "lower", "none"),
    pl("machine.comp_s", "s", "lower", "none"),
    pl("machine.comm_share", "ratio", "lower", "none"),
    pl("machine.max_peak_bytes", "B", "lower", "none"),
    pl(
        "machine.charge_ns",
        "ns",
        "lower",
        "wall_vs_brandes@dist-road-p16",
    ),
    pl(
        "machine.host_us_per_collective",
        "us",
        "lower",
        "wall_vs_brandes@dist-road-p16",
    ),
    pl(
        "machine.allgather_mb_per_s",
        "MB/s",
        "higher",
        "wall_vs_brandes@dist-p16",
    ),
    pl("machine.host_s_per_modeled_s", "ratio", "lower", DIST),
    // trace / profile / timeline (recorder-on repetitions)
    pl("trace.events", "count", "lower", "none"),
    pl("trace.overhead_ratio", "ratio", "lower", "none"),
    pl("profile.overhead_ratio", "ratio", "lower", "none"),
    pl("profile.export_s", "s", "lower", "none"),
    pl("timeline.build_s", "s", "lower", "none"),
    pl("timeline.critical_path_s", "s", "lower", "none"),
    pl("timeline.segments", "count", "lower", "none"),
    // serve
    pl(
        "serve.engine_new_s",
        "s",
        "lower",
        "setup_s@serve-converge,serve-warm",
    ),
    pl(
        "serve.converge_s",
        "s",
        "lower",
        "wall_vs_brandes@serve-converge",
    ),
    pl(
        "serve.round_p50_s",
        "s",
        "lower",
        "wall_vs_brandes@serve-converge",
    ),
    pl(
        "serve.approx_round_s",
        "s",
        "lower",
        "wall_vs_brandes@serve-converge",
    ),
    pl(
        "serve.batches_per_round",
        "ratio",
        "higher",
        "wall_vs_brandes@serve-converge",
    ),
    pl(
        "serve.exact",
        "count",
        "higher",
        "wall_vs_brandes@serve-converge",
    ),
    pl(
        "serve.approx",
        "count",
        "lower",
        "wall_vs_brandes@serve-converge",
    ),
    pl(
        "serve.stale",
        "count",
        "lower",
        "wall_vs_brandes@serve-converge",
    ),
    pl("serve.shed", "count", "lower", "none"),
    pl(
        "serve.warm_rps",
        "1/s",
        "higher",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.warm_p50_us",
        "us",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.warm_p99_us",
        "us",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.parse_ns",
        "ns",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.submit_ns",
        "ns",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.drain_us",
        "us",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.render_ns",
        "ns",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl(
        "serve.vertex_us",
        "us",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    pl("serve.topk_us", "us", "lower", "wall_vs_brandes@serve-warm"),
    pl("serve.full_us", "us", "lower", "wall_vs_brandes@serve-warm"),
    pl(
        "serve.allocs_per_request",
        "count",
        "lower",
        "wall_vs_brandes@serve-warm",
    ),
    // the harness itself
    pl("bench.trace_overhead_ratio", "ratio", "lower", "none"),
    pl("bench.span_coverage", "ratio", "higher", "none"),
];

/// The unit a declared metric is printed with.
///
/// # Panics
/// Panics on an undeclared name: printing a metric `BENCHMARK.json`
/// does not know is a bug in the harness.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in decl.rs"))
        .1
}
