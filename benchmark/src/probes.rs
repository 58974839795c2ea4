//! Layer probes: each times one layer's public functions from
//! outside, on the workload's captured operands where the layer takes
//! operands, on seeded synthetic input where it does not.

use crate::inputs::{median_of, timed};
use crate::report::Outcome;
use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel};
use mfbc_algebra::monoid::{MinDist, Monoid};
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_core::{mfbc_dist, BcScores, MfbcConfig};
use mfbc_graph::Graph;
use mfbc_machine::collectives::allgather;
use mfbc_machine::{CollectiveKind, Machine, MachineSpec};
use mfbc_profile::Profiler;
use mfbc_sparse::{spgemm, Csr, Mask};
use mfbc_tensor::{
    best_plan, canonical_layout, mm_auto_masked, redistribute, stats_for_masked, DistMat, Grid2,
    Layout,
};
use mfbc_timeline::{critical_path, Timeline};
use mfbc_trace::{MemoryRecorder, TraceEvent};
use rand::SplitMix64;
use std::sync::Arc;

/// `algebra`: payload widths, and nanoseconds per kernel multiply plus
/// monoid combine over 2²⁰ seeded pairs.
pub fn algebra(out: &mut Outcome, seed: u64) {
    const PAIRS: usize = 1 << 20;
    out.set(
        "algebra.multpath_bytes",
        std::mem::size_of::<Multpath>() as f64,
    );
    out.set(
        "algebra.centpath_bytes",
        std::mem::size_of::<Centpath>() as f64,
    );
    let mut rng = SplitMix64::new(seed);
    let mut small = |span: u64| 1 + rng.next_u64() % span;
    let bf: Vec<(Multpath, Dist)> = (0..PAIRS)
        .map(|_| {
            (
                Multpath::new(Dist::new(small(64)), small(8) as f64),
                Dist::new(small(4)),
            )
        })
        .collect();
    // Weights above the edge weight, so every back-step is a path.
    let br: Vec<(Centpath, Dist)> = (0..PAIRS)
        .map(|_| {
            (
                Centpath::new(Dist::new(8 + small(64)), small(8) as f64, -1),
                Dist::new(small(4)),
            )
        })
        .collect();
    let bf_s = median_of(3, || {
        bf.iter().fold(
            MultpathMonoid::identity(),
            |acc, (a, b)| match BellmanFordKernel::mul(a, b) {
                Some(x) => MultpathMonoid::combine(&acc, &x),
                None => acc,
            },
        )
    });
    let br_s = median_of(3, || {
        br.iter().fold(
            CentpathMonoid::identity(),
            |acc, (a, b)| match BrandesKernel::mul(a, b) {
                Some(x) => CentpathMonoid::combine(&acc, &x),
                None => acc,
            },
        )
    });
    out.set("algebra.bf_relax_ns", bf_s * 1e9 / PAIRS as f64);
    out.set("algebra.brandes_relax_ns", br_s * 1e9 / PAIRS as f64);
}

/// `parallel`: the densest forward product on two pool threads
/// against one. No workload runs with two, so this moves no
/// end-to-end metric; it is here so a pool change shows.
pub fn parallel(out: &mut Outcome, frontier: &Csr<Multpath>, a: &Csr<Dist>) {
    let at = |threads: usize| {
        mfbc_parallel::with_threads(threads, || {
            median_of(3, || spgemm::<BellmanFordKernel>(frontier, a))
        })
    };
    let (t1, t2) = (at(1), at(2));
    out.set("parallel.spgemm_t2_speedup", t1 / t2);
}

/// A fresh machine with the workload's adjacency distributed on it:
/// what a forward product of `mfbc_dist` multiplies against.
pub struct DistOperands {
    m: Machine,
    da: DistMat<Dist>,
}

impl DistOperands {
    pub fn new(p: usize, g: &Graph) -> DistOperands {
        let m = Machine::new(MachineSpec::gemini(p));
        let da = DistMat::from_global(canonical_layout(&m, g.n(), g.n()), g.adjacency());
        DistOperands { m, da }
    }

    /// Distributes a captured frontier the way the driver holds it.
    pub fn lhs(&self, f: &Csr<Multpath>) -> DistMat<Multpath> {
        DistMat::from_global(canonical_layout(&self.m, f.nrows(), f.ncols()), f)
    }

    pub fn multiply(&self, df: &DistMat<Multpath>, mask: Option<&Mask>) -> u64 {
        mm_auto_masked::<BellmanFordKernel>(&self.m, df, &self.da, mask)
            .expect("fault-free multiply completes")
            .0
            .ops
    }
}

/// `tensor`: distribution, gathering, plan choice and redistribution
/// at the workload's `p`.
pub fn tensor(out: &mut Outcome, p: usize, g: &Graph, densest: &Csr<Multpath>) {
    let d = DistOperands::new(p, g);
    let n = g.n();
    out.set(
        "tensor.from_global_s",
        median_of(5, || {
            DistMat::from_global(canonical_layout(&d.m, n, n), g.adjacency())
        }),
    );
    out.set(
        "tensor.to_global_s",
        median_of(5, || d.da.to_global::<MinDist>()),
    );
    const CALLS: usize = 50;
    let st = stats_for_masked::<BellmanFordKernel>(&d.lhs(densest), &d.da, None);
    let plan_s = median_of(3, || {
        for _ in 0..CALLS {
            std::hint::black_box(best_plan(d.m.spec(), std::hint::black_box(&st)));
        }
    });
    out.set("tensor.autotune_us", plan_s * 1e6 / CALLS as f64);
    // Canonical → 1D rows → back. Bytes are computed from the array
    // size, not measured on a wire.
    let grid = Grid2::new(d.m.world(), p, 1).expect("p x 1 tiles p ranks");
    let rows = Layout::on_grid(n, n, &grid);
    let redist_s = median_of(5, || {
        let there = redistribute::<MinDist, _>(&d.m, &d.da, &rows).expect("fault-free");
        redistribute::<MinDist, _>(&d.m, &there, d.da.layout()).expect("fault-free")
    });
    let moved = 2.0 * g.adjacency().payload_bytes() as f64;
    out.set("tensor.redist_s", redist_s);
    out.set("tensor.redist_mb_per_s", moved / 1e6 / redist_s);
}

/// `machine`: host cost of the simulator's own bookkeeping.
pub fn machine(out: &mut Outcome, p: usize, seed: u64) {
    const CHARGES: usize = 100_000;
    let m = Machine::new(MachineSpec::gemini(p));
    let world = m.world();
    let (_, s) = timed(0.0, || {
        for _ in 0..CHARGES {
            m.charge_collective(&world, CollectiveKind::Allreduce, 64)
                .expect("fault-free");
        }
    });
    out.set("machine.charge_ns", s * 1e9 / CHARGES as f64);
    const PAYLOAD: usize = 1 << 20;
    let mut rng = SplitMix64::new(seed);
    let parts: Vec<Vec<u8>> = (0..p)
        .map(|_| (0..PAYLOAD).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let gather_s = median_of(3, || {
        allgather(&m, &world, parts.clone()).expect("fault-free")
    });
    out.set(
        "machine.allgather_mb_per_s",
        (p * PAYLOAD) as f64 / 1e6 / gather_s,
    );
}

/// `trace` / `profile` / `timeline`: the workload again with a
/// recorder installed. Counts come from the program's own event
/// stream; the ratios are recorder-on time over the untraced median.
/// Returns a failed check if a recorded run's scores differ from the
/// unrecorded ones by a single bit.
pub fn recorders(
    out: &mut Outcome,
    p: usize,
    g: &Graph,
    cfg: &MfbcConfig,
    wall_s: f64,
    want: &BcScores,
) -> Option<String> {
    let spec = MachineSpec::gemini(p);
    let rec = Arc::new(MemoryRecorder::new());
    let m = Machine::new(spec.clone());
    let (run, traced_s) = timed(0.0, || {
        mfbc_trace::scoped(rec.clone(), || mfbc_dist(&m, g, cfg)).expect("fault-free")
    });
    let records = rec.take();
    out.set("trace.events", records.len() as f64);
    out.set("trace.overhead_ratio", traced_s / wall_s);

    let (mut collectives, mut mm, mut mm_1d, mut redist, mut redist_bytes, mut tunes) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for r in &records {
        match &r.event {
            TraceEvent::Collective { .. } | TraceEvent::CollectiveIssue { .. } => collectives += 1,
            TraceEvent::Spgemm { plan, .. } => {
                mm += 1;
                mm_1d += u64::from(plan.starts_with("1d"));
            }
            TraceEvent::Redist { bytes_moved, .. } => {
                redist += 1;
                redist_bytes += bytes_moved;
            }
            TraceEvent::Autotune { .. } => tunes += 1,
            _ => {}
        }
    }
    out.set("machine.collectives", collectives as f64);
    out.set("tensor.mm_calls", mm as f64);
    out.set("tensor.plan_1d_share", mm_1d as f64 / mm.max(1) as f64);
    out.set("tensor.redist_calls", redist as f64);
    out.set("tensor.redist_bytes", redist_bytes as f64);
    out.set("tensor.autotune_calls", tunes as f64);

    let (tl, build_s) = timed(0.0, || Timeline::from_records(&spec, &records));
    let (_, path_s) = timed(0.0, || critical_path(&tl));
    out.set("timeline.build_s", build_s);
    out.set("timeline.critical_path_s", path_s);
    out.set("timeline.segments", tl.nodes.len() as f64);

    let profiler = Arc::new(Profiler::new());
    let m = Machine::new(spec);
    let (_, profiled_s) = timed(0.0, || {
        mfbc_trace::scoped(profiler.clone(), || mfbc_dist(&m, g, cfg)).expect("fault-free")
    });
    out.set("profile.overhead_ratio", profiled_s / wall_s);
    let (_, export_s) = timed(0.0, || {
        mfbc_profile::export::profile_to_json(&profiler.finish(&m))
    });
    out.set("profile.export_s", export_s);

    (run.scores != *want).then(|| "recorded run's scores differ from the unrecorded run's".into())
}
