//! Conformance harness: seeded differential testing with shrinking,
//! and the one way the workspace draws a random test case.
//!
//! The paper's implementation strategy only works if every member of
//! the 1D/2D/3D multiplication-plan space is interchangeable under
//! arbitrary monoid kernels, if the monoids obey the laws behind
//! Lemmas 4.1/4.2, and if the driver built on top of them matches
//! textbook Brandes. This crate turns that obligation into a
//! repeatable harness, and every crate's randomized tests run on it:
//!
//! * [`rng`] — the SplitMix64 PRNG (defined in `mfbc-fault`) and the
//!   seed-stream derivation (`case i of suite s` ← `mix(stream_tag(s), i)`);
//! * [`gen`] — samplers for algebra elements, sparse coordinates and
//!   matrices, Erdős–Rényi / R-MAT edge lists, and α–β machine specs;
//! * [`case`] — self-contained cases: [`case::MmCase`] cross-checks
//!   every enumerable plan plus the autotuned one against
//!   `spgemm_serial`; [`case::DriverCase`] runs the distributed MFBC
//!   driver against the Brandes oracles;
//! * [`serve`] — [`serve::ServeCase`]: seeded interleavings of
//!   queries, flushes, and fault injections through a live serving
//!   engine, with exact-mode responses checked bit-for-bit against a
//!   one-shot run;
//! * [`mod@shrink`] — greedy delta-debugging minimization of a failing
//!   case (fewer nonzeros, vertices, ranks, smaller dimensions);
//! * [`suite`] — the runner: fixed-seed smoke streams, the
//!   `MFBC_CONFORMANCE_SEED` / `MFBC_CONFORMANCE_CASES` environment
//!   protocol, and one-line repro reporting. [`suite::property`] runs a
//!   test whose case is just its seed through the same runner; the
//!   property tests of every other crate use it.
//!
//! A failing run prints something like:
//!
//! ```text
//! conformance failure in `mm_tropical` (case #137, seed 0x9e3779b97f4a7c15)
//!   original (96 units): plan 3d(C/AB,2x2x2): result diverges from serial: …
//!   shrunk   (14 units): plan 3d(C/AB,2x2x2): result diverges from serial: …
//!   shrunk case: MmCase { seed: …, kernel: Tropical, m: 2, … }
//!   repro: MFBC_CONFORMANCE_SEED=0x9e3779b97f4a7c15 cargo test -p mfbc-conformance mm_tropical
//! ```
//!
//! Replaying the printed command regenerates the identical case and
//! re-shrinks it deterministically to the same minimal repro. The
//! command names the package of the failing test, whichever crate it
//! lives in.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod case;
pub mod gen;
pub mod rng;
pub mod serve;
pub mod shrink;
pub mod suite;

pub use case::{CaseSpec, DriverCase, DriverPlan, MmCase, MmKernelKind, Payload};
pub use rng::SplitMix64;
pub use serve::{ServeCase, ServeDeadline, ServeOp, ServeQuery};
pub use shrink::{shrink, Shrunk};
pub use suite::{property, run_suite, run_suite_or_panic, Failure};
