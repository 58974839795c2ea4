//! Distributed sparse tensor (matrix) framework — the workspace's
//! Cyclops-Tensor-Framework analogue.
//!
//! The MFBC paper implements its algorithm on CTF, which distributes
//! sparse matrices over processor grids, redistributes them between
//! layouts, multiplies them with a communication-efficient suite of
//! 1D/2D/3D algorithms, and auto-selects the cheapest configuration
//! per operation (§5.2, §6.2). This crate rebuilds that stack on the
//! simulated machine of `mfbc-machine`:
//!
//! * [`grid`] — 1D/2D/3D processor grids and factorization search;
//! * [`dist`] — block [`Layout`]s and the distributed matrix
//!   [`DistMat`];
//! * [`redist`] — sparse redistribution (personalized all-to-all);
//! * [`mm`] (with private 1D/2D/3D submodules) — the generalized
//!   multiplication algorithms over any
//!   [`SpMulKernel`](mfbc_algebra::SpMulKernel);
//! * [`land`] — 1D products consumed where they land, in the
//!   blocks of the table a sweep steps;
//! * [`costmodel`] — closed-form α–β–γ predictions per variant;
//! * [`autotune`] — plan enumeration + scoring + execution.

#![deny(missing_docs)]
#![deny(unsafe_code)]
// `vec![0..n]` block-range literals are the natural layout syntax
// here, and the internal piece/chunk tuples are contained.
#![allow(clippy::single_range_in_vec_init)]
#![allow(clippy::type_complexity)]

pub mod autotune;
pub mod cache;
pub mod cannon;
pub mod costmodel;
pub mod dist;
#[cfg(test)]
mod entrywise;
pub mod grid;
mod held;
pub mod land;
#[cfg(test)]
mod mask_views;
pub mod mm;
mod mm1d;
mod mm2d;
mod mm3d;
pub mod ops;
pub mod redist;

pub use autotune::{best_plan, mm_auto, mm_auto_masked, stats_for_masked};
pub use cache::{CacheStats, MmCache};
pub use costmodel::MmStats;
pub use dist::{DistMat, DistTable, Layout};
pub use grid::{Grid2, Grid3};
pub use mfbc_sparse::{Mask, MaskKind};
pub use mm::{
    canonical_layout, enumerate_plans, mm_exec, mm_exec_cached_masked, mm_exec_masked, mm_land,
    MmOut, MmPlan, Variant1D, Variant2D, VARIANTS_1D, VARIANTS_2D,
};
pub use redist::redistribute;
