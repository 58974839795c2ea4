//! Measurement harness: runs one algorithm on one graph on one
//! simulated machine and extracts the paper's metrics.

use mfbc_core::combblas::{combblas_bc, BaselineError, CombBlasConfig};
use mfbc_core::dist::{mfbc_dist, MfbcConfig, PlanMode};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec};

/// Machine configuration for a benchmark run.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Simulated node count `p`.
    pub p: usize,
    /// Divisor applied to the Blue-Waters-like 32 GiB per-node memory
    /// (match the graph's down-scaling so memory gates reproduce).
    pub mem_divisor: u64,
}

impl BenchSpec {
    /// A Gemini-class machine with scaled memory.
    pub fn machine(&self) -> Machine {
        let mem = (32u64 << 30) / self.mem_divisor.max(1);
        Machine::new(MachineSpec::gemini(self.p).with_mem_bytes(Some(mem)))
    }
}

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Simulated nodes.
    pub p: usize,
    /// Million traversed edges per second per node — the paper's
    /// headline metric (§7.1: every edge is traversed once per
    /// starting vertex).
    pub mteps_per_node: f64,
    /// Modeled wall-clock seconds (critical-path comm + compute).
    pub time_s: f64,
    /// Modeled communication seconds on the critical path.
    pub comm_s: f64,
    /// Critical-path message count (`S` of Table 3).
    pub msgs: u64,
    /// Critical-path bytes (`W` of Table 3).
    pub bytes: u64,
    /// Sources processed (TEPS numerator uses this).
    pub sources: usize,
    /// Forward+backward frontier iterations.
    pub iterations: usize,
}

fn finish(
    p: usize,
    report: &mfbc_machine::cost::CostReport,
    g: &Graph,
    sources: usize,
    iterations: usize,
) -> Measurement {
    let time_s = report.critical.total_time();
    let traversals = g.m() as f64 * sources as f64;
    Measurement {
        p,
        mteps_per_node: traversals / time_s / 1e6 / p as f64,
        time_s,
        comm_s: report.critical.comm_time,
        msgs: report.critical.msgs,
        bytes: report.critical.bytes,
        sources,
        iterations,
    }
}

/// Runs `f` with a thread-scoped trace recorder and returns its
/// result alongside everything it emitted. The captured records can
/// be summarized ([`crate::report::trace_summary`]) or cross-checked
/// against a [`Measurement`] ([`verify_against_trace`]).
pub fn measure_traced<R>(f: impl FnOnce() -> R) -> (R, Vec<mfbc_trace::TraceRecord>) {
    let rec = std::sync::Arc::new(mfbc_trace::MemoryRecorder::new());
    let out = mfbc_trace::scoped(rec.clone(), f);
    (out, rec.take())
}

/// Cross-checks a harness [`Measurement`] against the trace of the
/// run that produced it.
///
/// The machine model synchronizes each collective's group (raising
/// every participant to the group maximum) *before* adding the
/// collective's cost, so the critical-path `comm_s` can never exceed
/// the plain sum of per-event modeled times. A violation means the
/// accounting and the instrumentation have drifted apart.
///
/// # Errors
/// Returns a description of the discrepancy.
pub fn verify_against_trace(
    m: &Measurement,
    records: &[mfbc_trace::TraceRecord],
) -> Result<(), String> {
    let total = mfbc_trace::total_modeled_comm_s(records);
    // Tolerate f64 summation noise across orderings.
    let slack = 1e-9 + total.abs() * 1e-9;
    if m.comm_s > total + slack {
        return Err(format!(
            "critical-path comm_s {} exceeds the sum of traced collective times {} \
             ({} collective events)",
            m.comm_s,
            total,
            records
                .iter()
                .filter(|r| r.event.collective().is_some())
                .count()
        ));
    }
    Ok(())
}

/// Runs one MFBC batch-measurement; `Err` carries a short reason
/// (out of memory), matching the paper's missing data points.
pub fn measure_mfbc(
    g: &Graph,
    bench: &BenchSpec,
    batch: usize,
    mode: PlanMode,
) -> Result<Measurement, String> {
    let machine = bench.machine();
    let cfg = MfbcConfig {
        batch_size: Some(batch.min(g.n().max(1))),
        plan_mode: mode,
        max_batches: Some(1),
        amortize_adjacency: true,
        sources: None,
        threads: None,
        masked: true,
    };
    match mfbc_dist(&machine, g, &cfg) {
        // The run's own report: after a crash recovery the driver
        // finishes on a shrunk machine this handle no longer tracks.
        Ok(run) => Ok(finish(
            run.recovery.final_p,
            &run.report,
            g,
            run.sources_processed,
            run.forward_iterations + run.backward_iterations,
        )),
        Err(e) => Err(format!("OOM ({e})")),
    }
}

/// The paper's methodology (§7.1): benchmark a range of batch sizes
/// and report the best rate ("usually achieved by the largest
/// batch-size that still fit in memory"). Returns the best
/// measurement and its batch size; `Err` only if *no* batch size
/// runs.
pub fn measure_mfbc_best(
    g: &Graph,
    bench: &BenchSpec,
    batches: &[usize],
    mode: PlanMode,
) -> Result<(Measurement, usize), String> {
    let mut best: Option<(Measurement, usize)> = None;
    let mut last_err = "no batch sizes tried".to_string();
    for &nb in batches {
        match measure_mfbc(g, bench, nb, mode.clone()) {
            Ok(m) => {
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| m.mteps_per_node > b.mteps_per_node)
                {
                    best = Some((m, nb));
                }
            }
            Err(e) => last_err = e,
        }
    }
    best.ok_or(last_err)
}

/// Best-over-batch-sizes for the baseline; see [`measure_mfbc_best`].
pub fn measure_combblas_best(
    g: &Graph,
    bench: &BenchSpec,
    batches: &[usize],
) -> Result<(Measurement, usize), String> {
    let mut best: Option<(Measurement, usize)> = None;
    let mut last_err = "no batch sizes tried".to_string();
    for &nb in batches {
        match measure_combblas(g, bench, nb) {
            Ok(m) => {
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| m.mteps_per_node > b.mteps_per_node)
                {
                    best = Some((m, nb));
                }
            }
            Err(e) => last_err = e,
        }
    }
    best.ok_or(last_err)
}

/// Runs one CombBLAS-style baseline measurement.
pub fn measure_combblas(g: &Graph, bench: &BenchSpec, batch: usize) -> Result<Measurement, String> {
    let machine = bench.machine();
    let cfg = CombBlasConfig {
        batch_size: Some(batch.min(g.n().max(1))),
        max_batches: Some(1),
    };
    match combblas_bc(&machine, g, &cfg) {
        Ok(run) => Ok(finish(
            machine.p(),
            &machine.report(),
            g,
            run.sources_processed,
            run.levels,
        )),
        Err(BaselineError::Machine(e)) => Err(format!("OOM ({e})")),
        Err(e) => Err(format!("n/a ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_graph::gen::uniform;

    #[test]
    fn measurements_have_sane_metrics() {
        let g = uniform(200, 1000, false, None, 1);
        let bench = BenchSpec {
            p: 4,
            mem_divisor: 1,
        };
        let m = measure_mfbc(&g, &bench, 32, PlanMode::Auto).unwrap();
        assert!(m.mteps_per_node > 0.0);
        assert!(m.time_s > 0.0);
        assert!(m.comm_s <= m.time_s);
        assert_eq!(m.sources, 32);
        let c = measure_combblas(&g, &bench, 32).unwrap();
        assert!(c.mteps_per_node > 0.0);
        assert!(c.msgs > 0);
    }

    #[test]
    fn oom_reports_as_error_string() {
        let g = uniform(400, 20_000, false, None, 2);
        let bench = BenchSpec {
            p: 4,
            mem_divisor: 1 << 20, // 32 KiB per rank
        };
        let r = measure_combblas(&g, &bench, 128);
        assert!(r.is_err());
        assert!(r.unwrap_err().starts_with("OOM"));
    }

    #[test]
    fn nonsquare_baseline_grid_is_na() {
        let g = uniform(50, 200, false, None, 3);
        let bench = BenchSpec {
            p: 8,
            mem_divisor: 1,
        };
        let r = measure_combblas(&g, &bench, 16);
        assert!(r.unwrap_err().starts_with("n/a"));
    }
}
