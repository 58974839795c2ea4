//! Sequential (single address space) MFBC: Algorithms 1–3 of
//! [`crate::sweep`] on one rank of the simulated machine
//! ([`Simulated::sequential`](crate::backend::Simulated::sequential)) — the paper's shared-memory case is
//! p = 1, the code path every processor count runs. The kernels run on
//! the `mfbc-parallel` pool. The entry points hand back plain `Csr`
//! matrices and announce nothing: a one-rank machine's events do not
//! enter a recorder installed around them (trace a one-rank run with
//! `mfbc_dist` on a one-rank machine).

pub mod mfbc;
pub mod mfbf;
pub mod mfbr;

pub use crate::sweep::{mfbf_keep_in_frontier, mfbr_anchor, mfbr_fire};
pub use mfbc::{mfbc_seq, MfbcSeqStats};
pub use mfbf::{mfbf_seq, MfbfOut};
pub use mfbr::mfbr_seq;

use mfbc_machine::MachineError;

/// Runs a sequential entry point's body — its sweeps on a machine it
/// builds ([`crate::backend::Simulated::sequential`]) — under a mute scope, so nothing
/// it emits is recorded.
///
/// # Panics
/// Panics if the body fails, which a machine without a memory budget
/// or faults does not.
pub(crate) fn quietly<R>(body: impl FnOnce() -> Result<R, MachineError>) -> R {
    mfbc_trace::muted(body).expect("a sequential machine refuses nothing")
}
