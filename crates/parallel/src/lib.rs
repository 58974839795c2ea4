//! `mfbc-parallel`: dependency-free shared-memory parallelism for the
//! MFBC stack.
//!
//! The workspace previously "parallelized" its local kernels through a
//! sequential `rayon` stub; this crate replaces that with a real
//! `std::thread`-based scoped pool while keeping the one property the
//! cost model and conformance suites depend on: **determinism**.
//! Every fan-out assigns each output element to exactly one job and
//! assembles results in job order, so parallel results are
//! bit-identical to the serial reference at any thread count.
//!
//! # Sizing and selection
//!
//! * [`global()`] — the process-wide pool, lazily created on first
//!   use. Sized by the `MFBC_THREADS` environment variable when set
//!   (a positive integer; `1` means "serial: spawn nothing"),
//!   otherwise by [`std::thread::available_parallelism`].
//! * [`sized`]`(n)` — a leaked pool of exactly `n` participants,
//!   memoized per size. Lets tests and benches compare thread counts
//!   inside one process regardless of the environment.
//! * [`with_threads(n, f)`] — runs `f` with a thread-local override:
//!   every kernel that resolves its pool through [`current()`] (all
//!   of `mfbc-sparse` / `mfbc-tensor` do) uses `n` participants for
//!   the duration of `f`. Nestable; restores the previous override.
//!
//! # Determinism contract
//!
//! [`Pool::par_map_collect`] and friends return results **in job
//! order**, never in completion order, and each job index is executed
//! exactly once by exactly one participant. Per-participant scratch
//! ([`Pool::par_scratch_map`]) is the only scheduling-dependent state,
//! and its contract requires results not to depend on scratch history.
//! Floating-point reductions that are order-sensitive must therefore
//! be performed by the *caller* over the ordered results, which is
//! exactly how the ported kernels charge the cost model.

#![deny(missing_docs)]

mod partition;
mod pool;
mod scatter;

pub use partition::balanced_ranges;
pub use pool::{ExecStats, PerParticipant, Pool};
pub use scatter::ScatterVec;

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

/// Environment variable controlling the [`global()`] pool size.
pub const THREADS_ENV: &str = "MFBC_THREADS";

/// Leaked, memoized pools by size. Pools are small (a handful of
/// parked threads) and the set of distinct sizes a process asks for is
/// tiny, so leaking is the honest lifetime.
fn registry() -> &'static Mutex<Vec<(usize, &'static Pool)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(usize, &'static Pool)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Returns the memoized pool of exactly `threads` participants
/// (clamped to at least 1), creating and leaking it on first request.
pub fn sized(threads: usize) -> &'static Pool {
    let threads = threads.max(1);
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, p)) = reg.iter().find(|(n, _)| *n == threads) {
        return p;
    }
    let pool: &'static Pool = Box::leak(Box::new(Pool::new(threads)));
    reg.push((threads, pool));
    pool
}

/// Reads `MFBC_THREADS`, returning `None` when unset or empty.
///
/// # Panics
/// On a value that is not a positive integer — a silently ignored
/// typo would change performance without changing results, which is
/// the worst way to fail.
pub fn threads_from_env() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => panic!("{THREADS_ENV} must be a positive integer, got {raw:?}"),
    }
}

/// The process-wide pool: sized by `MFBC_THREADS` when set, otherwise
/// by available parallelism. Created lazily — a process that never
/// fans out (or runs with `MFBC_THREADS=1`) spawns no threads.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<&'static Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = threads_from_env().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        sized(threads)
    })
}

thread_local! {
    /// Per-thread pool-size override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with [`current()`] resolving to a pool of `threads`
/// participants on this thread. Nestable: the previous override is
/// restored when `f` returns or panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            OVERRIDE.with(|o| o.set(prev));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// The pool the current thread should fan out on: the innermost
/// [`with_threads`] override if one is active, else [`global()`].
pub fn current() -> &'static Pool {
    match OVERRIDE.with(|o| o.get()) {
        Some(n) => sized(n),
        None => global(),
    }
}

/// Participant count of [`current()`] — handy for sizing partitions
/// without touching the pool.
pub fn current_threads() -> usize {
    current().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_pool_spawns_nothing_and_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let main_id = std::thread::current().id();
        let ids = pool.par_map_collect(8, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == main_id));
    }

    #[test]
    fn results_in_job_order_despite_uneven_work() {
        let pool = sized(4);
        let out = pool.par_map_collect(64, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_runs_are_identical() {
        let pool = sized(4);
        let reference: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        for _ in 0..10 {
            let got = pool.par_map_collect(200, |i| (i as u64).wrapping_mul(0x9e3779b9));
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn scratch_allocations_bounded_by_pool_size() {
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let pool = sized(4);
        let (out, stats) = pool.par_scratch_map(
            || {
                INITS.fetch_add(1, Ordering::SeqCst);
                vec![0u8; 16]
            },
            100,
            |s, i| {
                s[0] = s[0].wrapping_add(1);
                i
            },
        );
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(
            INITS.load(Ordering::SeqCst) <= 4,
            "scratch must not scale with jobs"
        );
        assert_eq!(stats.tasks, 100);
        assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), 100);
    }

    #[test]
    fn nested_fanout_runs_inline_without_deadlock() {
        let pool = sized(4);
        let out = pool.par_map_collect(8, |i| {
            let inner = pool.par_map_collect(4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panic_in_job_propagates_and_pool_survives() {
        let pool = sized(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_collect(16, |i| {
                if i == 9 {
                    panic!("job 9 exploded");
                }
                i
            })
        }));
        assert!(caught.is_err());
        // The pool remains usable after a job panic.
        let out = pool.par_map_collect(4, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        assert!(OVERRIDE.with(|o| o.get()).is_none());
        let inner = with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || {
                assert_eq!(current_threads(), 2);
            });
            assert_eq!(current_threads(), 3);
            current_threads()
        });
        assert_eq!(inner, 3);
        assert!(OVERRIDE.with(|o| o.get()).is_none());
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("boom"));
        });
        assert!(OVERRIDE.with(|o| o.get()).is_none());
    }

    #[test]
    fn sized_memoizes() {
        let a = sized(2) as *const Pool;
        let b = sized(2) as *const Pool;
        assert_eq!(a, b);
        assert_ne!(a, sized(3) as *const Pool);
    }

    #[test]
    fn stats_reflect_execution() {
        let pool = sized(2);
        let (out, stats) = pool.par_map_collect_stats(32, |i| i);
        assert_eq!(out.len(), 32);
        assert_eq!(stats.tasks, 32);
        assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), 32);
        assert!(stats.participants_used() >= 1);
        assert_eq!(stats.busy.len(), stats.tasks_per_worker.len());
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let pool = sized(4);
        let out: Vec<usize> = pool.par_map_collect(0, |i| i);
        assert!(out.is_empty());
    }
}
