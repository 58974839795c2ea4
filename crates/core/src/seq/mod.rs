//! Sequential (single address space) MFBC: Algorithms 1–3 of
//! [`crate::sweep`] on the [`Local`](crate::backend::Local) backend —
//! CSR matrices and the generalized-SpGEMM kernels, which run on the
//! `mfbc-parallel` pool. This is both a usable shared-memory BC
//! implementation and the reference the simulated backend at `p = 1`
//! must reproduce bit for bit.

pub mod mfbc;
pub mod mfbf;
pub mod mfbr;

pub use crate::sweep::{mfbf_keep_in_frontier, mfbr_anchor, mfbr_fire};
pub use mfbc::{mfbc_seq, MfbcSeqStats};
pub use mfbf::{mfbf_seq, MfbfOut};
pub use mfbr::mfbr_seq;
