//! MFBC — Maximal Frontier Betweenness Centrality.
//!
//! The paper's primary contribution (Solomonik, Besta, Vella,
//! Hoefler — SC'17): betweenness centrality via
//! communication-efficient generalized sparse matrix multiplication
//! over the multpath and centpath monoids.
//!
//! * [`sweep`] — Algorithms 1–3, written once over the [`backend`]
//!   they run on, `Simulated` (distributed matrices on the simulated
//!   machine, one code path at every processor count);
//! * [`seq`] — `sweep` on one rank (`Simulated::sequential`): the
//!   shared-memory entry points, the paper's p = 1;
//! * [`dist`] — `sweep` on any number of ranks: autotuned **CTF-MFBC**
//!   and fixed-grid **CA-MFBC** (§6), resumable, fault-tolerant;
//! * [`combblas`] — the CombBLAS-style comparison baseline: batched
//!   BFS-Brandes on a square 2D grid, unweighted only (§7);
//! * [`approx`] — unbiased sampled-source approximation (the Bader
//!   et al. estimator the paper's intro cites);
//! * [`bfs`] — algebraic BFS/SSSP over the tropical semiring (§2.3's
//!   introductory primitive, batched and distributed);
//! * [`apsp`] — path-doubling all-pairs shortest paths, the §5.3.2
//!   memory-hungry comparator;
//! * [`cc`] — connected components by min-label propagation (the
//!   extensibility claim of §8, worked);
//! * [`oracle`] — textbook Brandes (BFS + Dijkstra) and brute-force
//!   path enumeration, the correctness spine;
//! * [`scores`] — score vectors and comparisons.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod approx;
pub mod apsp;
pub mod backend;
pub mod bfs;
pub mod cc;
pub mod combblas;
pub mod dist;
pub mod oracle;
pub mod scores;
pub mod seq;
pub mod sweep;

pub use approx::{approx_from_sources, mfbc_approx, sample_rel_se, sample_sources};
pub use dist::{mfbc_dist, MfbcConfig, MfbcRun, MfbcSession, PlanMode, SessionStep};
pub use scores::BcScores;
pub use seq::{mfbc_seq, MfbcSeqStats};
