//! # MFBC — Maximal Frontier Betweenness Centrality
//!
//! A from-scratch Rust reproduction of *"Scaling Betweenness
//! Centrality using Communication-Efficient Sparse Matrix
//! Multiplication"* (Solomonik, Besta, Vella, Hoefler — SC 2017):
//! betweenness centrality formulated as generalized sparse matrix
//! multiplication over *monoids*, executed on a distributed machine
//! through a Cyclops-Tensor-Framework-style layer with
//! communication-optimal 1D/2D/3D algorithms and per-operation
//! autotuning.
//!
//! The workspace layers (each a crate, re-exported here):
//!
//! * [`algebra`] — weights, monoids (multpath/centpath), monoid
//!   actions, and the `⟨⊕,f⟩` multiplication kernels;
//! * [`sparse`] — CSR/COO formats and generalized Gustavson SpGEMM;
//! * [`machine`] — the simulated distributed-memory machine: α–β–γ
//!   cost model, critical-path accounting, per-rank memory budgets,
//!   and one call to post a collective (`Machine::post_collective`),
//!   which decides whether it is free, in flight or charged on the
//!   spot;
//! * [`tensor`] — distributed matrices, redistribution, the nine
//!   3D (and three 1D, three 2D) multiplication variants, analytic
//!   cost models, and the plan autotuner;
//! * [`graph`] — graph type, R-MAT / uniform / SNAP-stand-in
//!   generators, statistics, preprocessing;
//! * [`core`] — MFBF, MFBr, MFBC (sequential and distributed),
//!   the CombBLAS-style baseline, and the Brandes/brute-force
//!   oracles.
//!
//! ## Quickstart
//!
//! ```
//! use mfbc::prelude::*;
//!
//! // A small social network.
//! let g = Graph::unweighted(5, false, vec![(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
//!
//! // Exact betweenness centrality, shared-memory.
//! let (scores, _stats) = mfbc_seq(&g, 8);
//! let top = scores.top_k(1);
//! assert_eq!(top[0].0, 1); // vertex 1 is the broker
//!
//! // The same computation on a simulated 4-node machine with
//! // communication-cost accounting.
//! let machine = Machine::new(MachineSpec::gemini(4));
//! let run = mfbc_dist(&machine, &g, &MfbcConfig::default()).unwrap();
//! assert!(run.scores.approx_eq(&scores, 1e-9));
//! let report = machine.report();
//! assert!(report.critical.comm_time >= 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use mfbc_algebra as algebra;
pub use mfbc_core as core;
pub use mfbc_fault as fault;
pub use mfbc_graph as graph;
pub use mfbc_machine as machine;
pub use mfbc_sparse as sparse;
pub use mfbc_tensor as tensor;

/// The commonly-needed names in one import.
pub mod prelude {
    pub use mfbc_algebra::{Centpath, Dist, Multpath};
    pub use mfbc_core::approx::{approx_from_sources, mfbc_approx, mfbc_approx_dist};
    pub use mfbc_core::apsp::{apsp_dist, apsp_seq};
    pub use mfbc_core::bfs::{bfs_levels, sssp_dist, sssp_seq};
    pub use mfbc_core::cc::{component_count, connected_components};
    pub use mfbc_core::combblas::{combblas_bc, CombBlasConfig};
    pub use mfbc_core::dist::{ca_plan, mfbc_dist, MfbcConfig, MfbcRun, PlanMode, RecoveryStats};
    pub use mfbc_core::oracle::{brandes_unweighted, brandes_weighted, bruteforce_bc};
    pub use mfbc_core::seq::{mfbc_seq, mfbf_seq, mfbr_seq};
    pub use mfbc_core::BcScores;
    pub use mfbc_fault::{FaultKind, FaultPlan, RetryPolicy, ScheduledFault};
    pub use mfbc_graph::gen::{rmat, snap_standin, uniform, RmatConfig, SnapGraph};
    pub use mfbc_graph::{io, prep, stats, Graph};
    pub use mfbc_machine::{Machine, MachineError, MachineSpec};
    pub use mfbc_tensor::{MmPlan, Variant1D, Variant2D};
}
