//! The benchmark process's allocator: glibc's, counted, and told to
//! keep freed memory.
//!
//! Why the policy: MFBC allocates fresh vectors for every product, and
//! under glibc's default dynamic `mmap`/trim thresholds the same
//! `mfbc_seq` call takes 0.40 s or 0.70 s depending on what the heap
//! went through before it — memory handed back to the kernel is
//! faulted in again, page by page. That swing follows heap history,
//! not the code under test, and no regression bound survives it. So
//! the end-to-end numbers are taken with freed memory kept in the
//! heap, and what that hides is reported beside them: allocations and
//! bytes per call, and `core.default_malloc_ratio`, the same call under
//! the default policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, with every allocation counted.
pub struct Counting;

fn count(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that
// publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes requested since the process started.
pub fn counters() -> (u64, u64) {
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

/// Runs `f` and returns its result with the allocation calls and MiB
/// it requested.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (calls, bytes) = counters();
    let out = f();
    let (calls_after, bytes_after) = counters();
    let mib = (bytes_after - bytes) as f64 / (1024.0 * 1024.0);
    (out, (calls_after - calls) as f64, mib)
}

/// Tells glibc malloc to keep freed memory: never trim the heap top,
/// never serve a request with its own `mmap`. Returns whether the
/// policy took; on another C library nothing is changed.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` takes two ints by value, changes only the
        // allocator's own tunables, and may be called at any time;
        // glibc is this target's C library (the cfg above).
        unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_MAX, 0) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}
