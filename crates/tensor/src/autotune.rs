//! Plan autotuning: the search over data decompositions and
//! multiplication algorithms.
//!
//! This is the paper's headline implementation feature ("MFBC …
//! automatically searches a space of distributed data decompositions
//! and sparse matrix multiplication algorithms for the most
//! advantageous configuration", §1/§6.2): for each multiplication the
//! tuner enumerates every 1D variant, every 2D variant × grid
//! factorization, and every 3D `(split, inner)` pairing × grid
//! factorization, scores them with the analytic models of
//! [`crate::costmodel`], filters out plans whose estimated per-rank
//! memory exceeds the machine budget, and picks the cheapest.

use crate::costmodel::{memory_per_rank, predict, MmStats};
use crate::dist::DistMat;
use crate::mm::{MmOut, MmPlan};
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::SpMulKernel;
use mfbc_machine::{Machine, MachineError, MachineSpec};
use mfbc_sparse::{entry_bytes, Mask};

/// Every candidate plan for `p` ranks — the tuner's search space is
/// exactly the enumerable plan space of [`crate::mm::enumerate_plans`]
/// (re-exported here under its historical name).
pub use crate::mm::enumerate_plans as candidate_plans;

/// Scores all candidates and returns `(best plan, predicted cost)`,
/// announced at once ([`pick`], then [`Pick::announce`]).
pub fn best_plan(spec: &MachineSpec, st: &MmStats) -> (MmPlan, f64) {
    pick(spec, st).announce()
}

/// The tuner's choice for one product, not yet announced.
///
/// A product whose left operand exists in the model before it exists
/// on the host — MFBr's seeds ([`crate::land::Count`]), which the host
/// builds only for a plan that moves them — is tuned on the operand's
/// counts, readied for the plan ([`crate::land::Land::open`]), and only
/// then announced, so the trace reads in the model's order: the seeds,
/// then the tuner that priced them.
pub struct Pick {
    plan: MmPlan,
    cost: f64,
    /// The `Autotune` event, built only while a recorder is installed.
    event: Option<mfbc_trace::TraceEvent>,
}

impl Pick {
    /// The plan picked.
    pub fn plan(&self) -> &MmPlan {
        &self.plan
    }

    /// Emits the pick's `Autotune` event; returns the plan and its
    /// predicted cost.
    pub fn announce(self) -> (MmPlan, f64) {
        if let Some(event) = self.event {
            mfbc_trace::emit(|| event);
        }
        (self.plan, self.cost)
    }
}

/// Scores all candidates and picks the cheapest, announcing nothing.
///
/// Plans whose estimated per-rank memory exceeds the spec's budget
/// are skipped; if *every* plan exceeds it, the cheapest is picked
/// anyway (the executor will surface the out-of-memory error, as the
/// real run would).
pub fn pick(spec: &MachineSpec, st: &MmStats) -> Pick {
    let mut best: Option<(MmPlan, f64)> = None;
    let mut best_any: Option<(MmPlan, f64)> = None;
    // Candidate table kept only while a trace recorder is active.
    let mut table: Vec<mfbc_trace::PlanChoice> = Vec::new();
    let tracing = mfbc_trace::enabled();
    for plan in candidate_plans(spec.p) {
        let t = predict(spec, &plan, st);
        let mem = memory_per_rank(&plan, st, spec.p);
        let feasible = spec.mem_bytes.is_none_or(|budget| mem <= budget);
        if tracing {
            table.push(mfbc_trace::PlanChoice {
                plan: plan.to_string(),
                cost_s: t,
                mem_bytes: mem,
                feasible,
            });
        }
        if best_any.as_ref().is_none_or(|(_, bt)| t < *bt) {
            best_any = Some((plan.clone(), t));
        }
        if !feasible {
            continue;
        }
        if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
            best = Some((plan, t));
        }
    }
    let (plan, cost) = best.or(best_any).expect("candidate set is never empty");
    let event = tracing.then(|| mfbc_trace::TraceEvent::Autotune {
        m: st.m,
        k: st.k,
        n: st.n,
        nnz_a: st.nnz_a,
        nnz_b: st.nnz_b,
        candidates: table,
        winner: plan.to_string(),
        winner_cost_s: cost,
    });
    Pick { plan, cost, event }
}

/// Builds [`MmStats`] for a concrete operand pair, using the measured
/// operand counts and the uniform-model estimates for the output. The
/// left operand is priced at `K::Left`'s entry size whatever `a` holds:
/// a landing may multiply another matrix on the operand's pattern
/// (MFBr's count reads `T` for its seeds).
pub fn stats_for<K: SpMulKernel>(
    a: &DistMat<impl Clone + Send + Sync>,
    b: &DistMat<K::Right>,
) -> MmStats {
    MmStats::estimate(
        a.nrows() as u64,
        a.ncols() as u64,
        b.ncols() as u64,
        a.nnz() as u64,
        b.nnz() as u64,
        entry_bytes::<K::Left>() as u64,
        entry_bytes::<K::Right>() as u64,
        entry_bytes::<KernelOut<K>>() as u64,
    )
}

/// Builds [`MmStats`] for a masked multiplication: the unmasked stats
/// thinned by the mask's allowed fraction, with the movable-B
/// fraction measured exactly — the entries of B that sit in fully
/// masked-out output columns are the ones an uncached B-panel
/// redistribution leaves at home, so the model prices precisely what
/// the executor would ship. The mask answers from its per-column
/// counts ([`Mask::fully_excluded_cols`]), so pricing walks no mask
/// pattern, only `b`'s blocks.
pub fn stats_for_masked<K: SpMulKernel>(
    a: &DistMat<impl Clone + Send + Sync>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
) -> MmStats {
    let st = stats_for::<K>(a, b);
    match mask {
        None => st,
        Some(mk) => {
            let excluded = mk.fully_excluded_cols();
            let mut dropped = 0u64;
            if excluded.iter().any(|&e| e) {
                let l = b.layout();
                for bi in 0..l.br() {
                    for bj in 0..l.bc() {
                        let c0 = l.col_range(bj).start;
                        dropped += b
                            .block(bi, bj)
                            .iter()
                            .filter(|(_, j, _)| excluded[c0 + *j])
                            .count() as u64;
                    }
                }
            }
            let kept_frac = if st.nnz_b == 0 {
                1.0
            } else {
                (st.nnz_b - dropped) as f64 / st.nnz_b as f64
            };
            st.with_mask(mk.allowed_fraction(), kept_frac)
        }
    }
}

/// Autotuned multiplication: pick the best plan for these operands
/// and execute it. Returns the chosen plan alongside the product.
pub fn mm_auto<K: SpMulKernel>(
    m: &Machine,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
) -> Result<(MmOut<KernelOut<K>>, MmPlan), MachineError> {
    mm_auto_masked::<K>(m, a, b, None)
}

/// [`mm_auto`] with an optional output mask: masked stats steer the
/// plan choice, and the chosen plan executes masked.
pub fn mm_auto_masked<K: SpMulKernel>(
    m: &Machine,
    a: &DistMat<K::Left>,
    b: &DistMat<K::Right>,
    mask: Option<&Mask>,
) -> Result<(MmOut<KernelOut<K>>, MmPlan), MachineError> {
    let _span = mfbc_trace::span(|| "mm_auto".to_string());
    let st = stats_for_masked::<K>(a, b, mask);
    let (plan, _) = best_plan(m.spec(), &st);
    let out = crate::mm::mm_exec_masked::<K>(m, &plan, a, b, mask)?;
    Ok((out, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::Variant1D;

    #[test]
    fn candidate_space_shape() {
        // p = 8: 1D ×3; 2D pairs (1,8),(2,4),(4,2),(8,1) ×3; 3D
        // factorizations with p1>1 and p2·p3>1 × 9.
        let plans = candidate_plans(8);
        let one = plans
            .iter()
            .filter(|p| matches!(p, MmPlan::OneD(_)))
            .count();
        let two = plans
            .iter()
            .filter(|p| matches!(p, MmPlan::TwoD { .. }))
            .count();
        let three = plans
            .iter()
            .filter(|p| matches!(p, MmPlan::ThreeD { .. }))
            .count();
        assert_eq!(one, 3);
        assert_eq!(two, 12);
        // (2,1,4),(2,2,2),(2,4,1),(4,1,2),(4,2,1) → 5 grids × 9.
        assert_eq!(three, 45);
        // p = 8 is not square: no Cannon candidate.
        assert!(!plans.iter().any(|p| matches!(p, MmPlan::Cannon { .. })));
        // p = 16 is: exactly one.
        let c16 = candidate_plans(16)
            .into_iter()
            .filter(|p| matches!(p, MmPlan::Cannon { .. }))
            .count();
        assert_eq!(c16, 1);
    }

    #[test]
    fn p1_is_degenerate_single_plan_space() {
        let plans = candidate_plans(1);
        assert!(plans.iter().all(|p| matches!(p, MmPlan::OneD(_))));
    }

    #[test]
    fn best_plan_prefers_not_replicating_the_dense_operand() {
        let spec = MachineSpec::test(16);
        // B is enormous compared to A.
        let st = MmStats::estimate(512, 100_000, 100_000, 2_000, 10_000_000, 12, 12, 20);
        let (plan, _) = best_plan(&spec, &st);
        assert!(
            !matches!(plan, MmPlan::OneD(Variant1D::B)),
            "must not replicate the big operand: {plan:?}"
        );
    }

    #[test]
    fn memory_budget_excludes_replication_plans() {
        // Budget below full-matrix replication but above blocked use.
        let st = MmStats::estimate(1000, 1000, 1000, 100_000, 100_000, 12, 12, 20);
        let mut spec = MachineSpec::test(16);
        // Enough for blocked layouts (~1.6 MB/rank with the dense
        // nnz(C) estimate) but not for full replication (+1.2 MB).
        spec.mem_bytes = Some(2_000_000);
        let (plan, _) = best_plan(&spec, &st);
        assert!(
            memory_per_rank(&plan, &st, 16) <= 2_000_000,
            "plan {plan:?} violates budget"
        );
        // Sanity: replication really is over budget.
        assert!(memory_per_rank(&MmPlan::OneD(Variant1D::A), &st, 16) > 2_000_000);
    }
}
