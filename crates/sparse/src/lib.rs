//! Sparse matrix formats and generalized sparse matrix multiplication
//! for MFBC.
//!
//! This crate is the workspace's replacement for the blockwise sparse
//! kernels the paper obtains from Intel MKL plus CTF's fallback
//! routines (§6.2): coordinate ([`Coo`]) and compressed-sparse-row
//! ([`Csr`]) formats, a generalized Gustavson SpGEMM driven by an
//! [`SpMulKernel`](mfbc_algebra::SpMulKernel) (so the same code path
//! multiplies tropical, multpath, and centpath matrices), GraphBLAS
//! style output [`Mask`]s (structural and complement) that skip
//! excluded elementary products before they form, elementwise monoid
//! combination, `sparsify`-style filtering, transposition, and
//! slicing. Row-parallel variants run on the `mfbc-parallel` thread
//! pool (sized by `MFBC_THREADS`), standing in for CTF's on-node
//! threading: rows are split into flops-balanced contiguous ranges,
//! each output row is produced by exactly one task, and chunks are
//! assembled in row order — so parallel results are bit-identical to
//! the serial kernels at any thread count.
//!
//! The sweeps' table steps consume a product where it lands, in
//! [`Table`]s side by side ([`Pane`]s), and have one entry each:
//! [`spgemm_accumulate_panes`], [`spgemm_settle_panes`] and
//! [`count_children_panes`]. One pane over a whole table is the
//! one-rank step.
//!
//! Sparse-zero convention: an entry equal to the accumulating monoid's
//! identity is never stored; every constructor and kernel filters such
//! entries on the way in and out.

#![deny(missing_docs)]
// `unsafe` is denied except for the documented disjoint-scatter
// writes in `transpose`, which carry their own SAFETY argument.
#![deny(unsafe_code)]
// Internal SPA chunk tuples are contained within spgemm.rs.
#![allow(clippy::type_complexity)]

pub mod coo;
pub mod csr;
pub mod elementwise;
pub mod few;
pub mod mask;
pub mod rows;
pub mod slabs;
pub mod slice;
pub mod spgemm;
pub mod table;
pub mod transpose;

pub use coo::Coo;
pub use csr::{Csr, Idx};
pub use few::Few;
pub use mask::{Mask, MaskKind, MaskRow};
pub use rows::SortedRows;
pub use slabs::Slabs;
pub use spgemm::{
    count_children_panes, spgemm, spgemm_accumulate_panes, spgemm_masked, spgemm_masked_serial,
    spgemm_opt, spgemm_serial, spgemm_settle_panes,
};
pub use table::{Landed, Pane, Table};

/// Estimated in-memory payload bytes of one stored entry of type `T`
/// in CSR/COO form: the value plus one column index. Used by the
/// machine layer to charge communication volume for sparse blocks.
#[inline]
pub const fn entry_bytes<T>() -> usize {
    std::mem::size_of::<T>() + std::mem::size_of::<Idx>()
}
