//! CombBLAS-style distributed betweenness centrality — the paper's
//! comparison baseline (§7), rebuilt in-repo per DESIGN.md §3.
//!
//! Faithful to the real CombBLAS BC benchmark's constraints:
//!
//! * **unweighted graphs only** (the CombBLAS BC code is BFS-based);
//! * **square 2D processor grids only** ("CombBLAS requires square
//!   processor grids", §7.1) — no 1D/3D variants, no replication, no
//!   layout autotuning;
//! * batched BFS forward sweep that **stores the frontier stack** of
//!   every level for the backward dependency sweep (the memory
//!   footprint that makes the real CombBLAS fail on Friendster);
//! * every SpGEMM runs the SUMMA stationary-C schedule (broadcast
//!   both operands), CombBLAS's algorithm.

use crate::backend::{Adj, Simulated};
use crate::scores::BcScores;
use mfbc_algebra::kernel::CountKernel;
use mfbc_algebra::monoid::SumF64;
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineError};
use mfbc_sparse::{Coo, MaskKind};
use mfbc_tensor::ops::nnz_sync;
use mfbc_tensor::{DistMat, MmPlan, Variant1D, Variant2D};

/// Failure modes of the baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum BaselineError {
    /// The graph has non-unit weights (BFS-Brandes cannot run).
    WeightedUnsupported,
    /// `p` is not a perfect square.
    NonSquareGrid(usize),
    /// Simulated machine failure (out of memory).
    Machine(MachineError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::WeightedUnsupported => {
                write!(f, "CombBLAS-style baseline supports unweighted graphs only")
            }
            BaselineError::NonSquareGrid(p) => {
                write!(f, "CombBLAS-style baseline requires a square grid; p={p}")
            }
            BaselineError::Machine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<MachineError> for BaselineError {
    fn from(e: MachineError) -> BaselineError {
        BaselineError::Machine(e)
    }
}

/// Configuration of a baseline run.
#[derive(Clone, Debug, Default)]
pub struct CombBlasConfig {
    /// Sources per batch; `None` chooses `min(n, 512)`.
    pub batch_size: Option<usize>,
    /// Cap on processed batches.
    pub max_batches: Option<usize>,
}

/// Result and statistics of a baseline run.
#[derive(Clone, Debug)]
pub struct CombBlasRun {
    /// Accumulated centrality scores.
    pub scores: BcScores,
    /// Batches processed.
    pub batches: usize,
    /// Sources actually processed.
    pub sources_processed: usize,
    /// BFS levels summed over batches.
    pub levels: usize,
    /// Total kernel applications.
    pub ops: u64,
}

/// Runs the CombBLAS-style batched BFS-Brandes.
pub fn combblas_bc(
    machine: &Machine,
    g: &Graph,
    cfg: &CombBlasConfig,
) -> Result<CombBlasRun, BaselineError> {
    if !g.is_unit_weighted() {
        return Err(BaselineError::WeightedUnsupported);
    }
    let p = machine.p();
    let r = (p as f64).sqrt().round() as usize;
    if r * r != p {
        return Err(BaselineError::NonSquareGrid(p));
    }
    let plan = if p == 1 {
        MmPlan::OneD(Variant1D::A)
    } else {
        MmPlan::TwoD {
            variant: Variant2D::AB,
            p2: r,
            p3: r,
        }
    };

    let n = g.n();
    let nb = cfg.batch_size.unwrap_or_else(|| n.min(512)).max(1);
    // Unit weights: a mask can never change a result.
    let mut be = Simulated::new(machine, g, Some(plan), true, true)?;
    let mut run = CombBlasRun {
        scores: BcScores::zeros(n),
        batches: 0,
        sources_processed: 0,
        levels: 0,
        ops: 0,
    };
    let sources: Vec<usize> = (0..n).collect();
    let result = sources
        .chunks(nb)
        .take(cfg.max_batches.unwrap_or(usize::MAX))
        .try_for_each(|chunk| {
            batch(&mut be, chunk, &mut run)?;
            run.batches += 1;
            run.sources_processed += chunk.len();
            Ok(())
        });
    be.close();
    result.map(|()| run)
}

fn batch(be: &mut Simulated, chunk: &[usize], run: &mut CombBlasRun) -> Result<(), BaselineError> {
    let n = run.scores.n();

    // Level 0: each source visits itself with σ = 1.
    let mut seed = Coo::new(chunk.len(), n);
    for (s, &src) in chunk.iter().enumerate() {
        seed.push(s, src, 1.0f64);
    }
    let f0 = be.place(seed.into_csr::<SumF64>());

    // Forward BFS, storing the per-level frontier stack (σ values) —
    // the CombBLAS memory profile.
    let mut fronts: Vec<DistMat<f64>> = vec![f0.clone()];
    let mut sigma = f0;
    be.charge(&sigma)?;
    be.charge(&fronts[0])?;

    loop {
        let cur = fronts.last().expect("at least the seed level");
        if nnz_sync(&be.m, cur)? == 0 {
            if let Some(f) = fronts.pop() {
                be.release(&f)
            }
            break;
        }
        // Unvisited vertices only: the complement of σ's pattern as
        // an output mask prunes already-discovered products inside
        // the multiply instead of filtering them out afterwards.
        let unvisited = be.mask_of(MaskKind::Complement, &sigma);
        let (next, ops) =
            be.mm::<CountKernel>(cur, Adj::A, unvisited.as_ref(), unvisited.as_ref())?;
        run.ops += ops;
        let sigma_new = be.combine::<SumF64>(&sigma, &next);
        be.release(&sigma);
        sigma = sigma_new;
        be.charge(&sigma)?;
        be.charge(&next)?;
        fronts.push(next);
        run.levels += 1;
    }

    // Backward dependency sweep over the stored stack.
    let mut delta = DistMat::<f64>::zero(fronts[0].layout().clone());
    for l in (1..fronts.len()).rev() {
        // wₗ(s,v) = (1 + δ(s,v)) / σ(s,v) on level-l vertices.
        let wl = be.zip_filter::<SumF64, _, _>(&fronts[l], &delta, |_, _, s_v, d| {
            Some((1.0 + d.copied().unwrap_or(0.0)) / *s_v)
        });
        // Restrict to true predecessors (level l−1) via a structural
        // output mask on the multiply; the zip then only scales by σ.
        let preds = be.mask_of(MaskKind::Structural, &fronts[l - 1]);
        let (contrib, ops) = be.mm::<CountKernel>(&wl, Adj::At, preds.as_ref(), preds.as_ref())?;
        run.ops += ops;
        let upd = be.zip_filter::<SumF64, _, _>(&contrib, &fronts[l - 1], |_, _, x, pred| {
            pred.map(|s_v| x * s_v)
        });
        delta = be.combine::<SumF64>(&delta, &upd);
    }

    // λ(v) += Σ_s δ(s,v), excluding the sources themselves.
    let masked = be.zip_filter::<SumF64, _, _>(&delta, &fronts[0], |_, _, d, is_source| {
        is_source.is_none().then_some(*d)
    });
    let mut partial = vec![0.0; n];
    be.fold_columns(&masked, &mut partial)?;
    for (v, x) in partial.into_iter().enumerate() {
        run.scores.lambda[v] += x;
    }

    for f in &fronts {
        be.release(f);
    }
    be.release(&sigma);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::brandes_unweighted;
    use mfbc_algebra::Dist;
    use mfbc_machine::MachineSpec;

    #[test]
    fn matches_brandes_small() {
        let g = Graph::unweighted(
            7,
            false,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 0),
                (1, 5),
            ],
        );
        let want = brandes_unweighted(&g);
        for p in [1usize, 4] {
            let machine = Machine::new(MachineSpec::test(p));
            let run = combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap();
            assert!(
                run.scores.approx_eq(&want, 1e-9),
                "p={p}: {:?} vs {:?}",
                run.scores.lambda,
                want.lambda
            );
        }
    }

    #[test]
    fn rejects_weighted_graphs() {
        let g = Graph::new(3, true, vec![(0, 1, Dist::new(2))]);
        let machine = Machine::new(MachineSpec::test(4));
        assert_eq!(
            combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap_err(),
            BaselineError::WeightedUnsupported
        );
    }

    #[test]
    fn rejects_nonsquare_grids() {
        let g = Graph::unweighted(3, false, vec![(0, 1)]);
        let machine = Machine::new(MachineSpec::test(8));
        assert_eq!(
            combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap_err(),
            BaselineError::NonSquareGrid(8)
        );
    }

    #[test]
    fn directed_graph_matches_brandes() {
        let g = Graph::unweighted(5, true, vec![(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)]);
        let want = brandes_unweighted(&g);
        let machine = Machine::new(MachineSpec::test(4));
        let run = combblas_bc(&machine, &g, &CombBlasConfig::default()).unwrap();
        assert!(run.scores.approx_eq(&want, 1e-9));
    }
}
