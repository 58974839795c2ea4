//! A window that *is* one slab is handed over whole: `stitch` must
//! not touch the slab's entries one by one, let alone copy them twice.
//! The allocator is the witness — an owned slab moves for a handful of
//! bookkeeping bytes, a borrowed one costs exactly its clone — so this
//! binary holds one test and nothing else allocates while it counts.

use mfbc_sparse::slice::{stitch, Slab};
use mfbc_sparse::Csr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls and bytes requested so far (statistics: `Relaxed`
/// suffices).
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counters are the
// only addition and touch no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// `(calls, bytes)` requested while `f` ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[test]
fn a_window_equal_to_one_slab_is_handed_over_whole() {
    // 200 × 300 with 40 entries per row: 8000 entries, 96 kB of payload.
    let (nrows, ncols, per_row) = (200usize, 300usize, 40usize);
    let rowptr = (0..=nrows).map(|i| i * per_row).collect();
    let colind = (0..nrows)
        .flat_map(|i| (0..per_row).map(move |k| ((i + 7 * k) % 7 + 7 * k) as u32))
        .collect();
    let vals = (0..(nrows * per_row) as u64).collect();
    let a: Csr<u64> = Csr::from_parts(nrows, ncols, rowptr, colind, vals);
    // The window sits at (1000, 50) of a larger index space, next to a
    // neighbour that contributes nothing.
    let window = (1000..1000 + nrows, 50..50 + ncols);
    let neighbour = Csr::<u64>::zero(nrows, 50);

    let mut slabs: Vec<Slab<'_, u64>> = vec![
        (1000, 0, Cow::Borrowed(&neighbour)),
        (1000, 50, Cow::Owned(a.clone())),
    ];
    let ((block, moved), calls, bytes) = counted(|| {
        stitch(window.0.clone(), window.1.clone(), &mut slabs, |v| {
            *v != u64::MAX
        })
    });
    assert!(block.first_difference(&a).is_none());
    assert_eq!(moved, vec![(1, a.nnz())]);
    assert!(
        calls <= 4 && bytes <= 1024,
        "moving an owned slab took {calls} allocations, {bytes} bytes"
    );

    let mut slabs: Vec<Slab<'_, u64>> = vec![
        (1000, 0, Cow::Borrowed(&neighbour)),
        (1000, 50, Cow::Borrowed(&a)),
    ];
    let ((block, _), calls, bytes) = counted(|| {
        stitch(window.0.clone(), window.1.clone(), &mut slabs, |v| {
            *v != u64::MAX
        })
    });
    assert!(block.first_difference(&a).is_none());
    let clone_bytes = ((nrows + 1) * 8 + a.nnz() * (4 + 8)) as u64;
    assert!(
        calls <= 6 && bytes <= clone_bytes + 1024,
        "copying a borrowed slab took {calls} allocations, {bytes} bytes \
         for a {clone_bytes}-byte clone"
    );
}
