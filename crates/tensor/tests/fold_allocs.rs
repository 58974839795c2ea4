//! Allocation calls of one `dmat_fold_columns` (Algorithm 3's λ fold):
//! a small constant per block, whatever the width of the matrix. The
//! fold adds every entry straight into the accumulator; growing a list
//! per column and adding it back afterwards would make its calls follow
//! the columns the batch touched. This binary holds one test so that
//! nothing else allocates while it counts.

use mfbc_algebra::monoid::SumF64;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::Coo;
use mfbc_tensor::ops::dmat_fold_columns;
use mfbc_tensor::{canonical_layout, DistMat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is the
// only addition and touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls one fold may make per block of its matrix, plus
/// [`MAX_CALLS_PER_FOLD`] per call: the pool's fan-out and the
/// accumulator's slices. Measured at one thread: 2 calls per fold at
/// p = 1, 4 and 16, at every width below; 4 when a fan-out that runs
/// inline still built its statistics' two per-participant vectors, 6
/// when it also built its per-participant scratch and per-job result
/// vectors; with a list per nonempty column, 23, 263 and 2 055 calls at
/// p = 1 for 16, 256 and 2 048 columns.
const MAX_CALLS_PER_BLOCK: u64 = 1;
/// See [`MAX_CALLS_PER_BLOCK`].
const MAX_CALLS_PER_FOLD: u64 = 2;

/// A `rows × n` matrix with an entry in every column.
fn spread(rows: usize, n: usize) -> Coo<f64> {
    let mut coo = Coo::new(rows, n);
    for j in 0..n {
        for k in 0..3 {
            coo.push((j * 7 + k * 5) % rows, j, 1.0 + (j + k) as f64 / 8.0);
        }
    }
    coo
}

#[test]
fn a_fold_allocates_per_block_not_per_column() {
    // One kernel thread: the pool's fan-out allocates per participant.
    mfbc_parallel::with_threads(1, || {
        for p in [1usize, 4, 16] {
            let m = Machine::new(MachineSpec::test(p));
            let fold = |n: usize| {
                let g = spread(32, n).into_csr::<SumF64>();
                let a = DistMat::from_global(canonical_layout(&m, 32, n), &g);
                let mut acc = vec![0.0f64; n];
                let before = CALLS.load(Ordering::Relaxed);
                dmat_fold_columns(&m, &a, &mut acc).unwrap();
                let calls = CALLS.load(Ordering::Relaxed) - before;
                assert_eq!(
                    acc.iter().sum::<f64>(),
                    g.iter().map(|(_, _, v)| v).sum::<f64>()
                );
                (calls, a.layout().nblocks() as u64)
            };
            // The first fold also makes what a process makes once.
            fold(16);
            let calls: Vec<_> = [16, 256, 2048].map(fold).to_vec();
            for (n, (calls, blocks)) in [16, 256, 2048].iter().zip(&calls) {
                let bound = MAX_CALLS_PER_BLOCK * blocks + MAX_CALLS_PER_FOLD;
                assert!(
                    *calls <= bound,
                    "p = {p}, n = {n}: {calls} allocation calls, bound {bound}"
                );
            }
            assert!(
                calls.windows(2).all(|w| w[0] == w[1]),
                "p = {p}: allocation calls follow the width: {calls:?}"
            );
        }
    });
}
