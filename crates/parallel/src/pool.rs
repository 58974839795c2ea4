//! The scoped worker pool.
//!
//! One [`Pool`] owns `threads - 1` parked OS threads (the calling
//! thread is always participant `0`). A fan-out call publishes a
//! *batch* — a type-erased reference to the per-call closure plus an
//! atomic job cursor — wakes the workers, participates in the work
//! itself, and blocks until every job completed. Because the caller
//! does not return before the last job finishes, jobs may borrow from
//! the caller's stack even though the workers are long-lived; the
//! lifetime erasure below is sound for exactly that reason.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-call execution statistics, returned by the `*_stats` entry
/// points and consumed by `mfbc-trace` pool events.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Pool size used for the call (participants = workers + caller).
    pub threads: usize,
    /// Jobs executed (the fan-out width of the call).
    pub tasks: u64,
    /// Busy time per participant (index 0 is the calling thread).
    /// Participants that never claimed a job stay at zero.
    pub busy: PerParticipant<Duration>,
    /// Jobs executed per participant.
    pub tasks_per_worker: PerParticipant<u64>,
}

/// One value per participant of a fan-out, read as a slice. A call the
/// caller ran alone holds its one value in place, so the inline path
/// allocates nothing for its statistics.
#[derive(Clone, Debug)]
pub enum PerParticipant<T> {
    /// The caller's, the only participant.
    Caller(T),
    /// Every participant's, in participant order.
    Each(Vec<T>),
}

impl<T> std::ops::Deref for PerParticipant<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            PerParticipant::Caller(x) => std::slice::from_ref(x),
            PerParticipant::Each(v) => v,
        }
    }
}

impl ExecStats {
    /// A call of `njobs` jobs the caller ran alone, busy for `busy`.
    fn inline(njobs: usize, busy: Duration) -> ExecStats {
        ExecStats {
            threads: 1,
            tasks: njobs as u64,
            busy: PerParticipant::Caller(busy),
            tasks_per_worker: PerParticipant::Caller(njobs as u64),
        }
    }

    /// Number of participants that executed at least one job.
    pub fn participants_used(&self) -> usize {
        self.tasks_per_worker.iter().filter(|&&t| t > 0).count()
    }
}

thread_local! {
    /// Set while this thread is executing pool jobs. Nested fan-out
    /// calls from inside a job run inline on the current thread, so
    /// the pool can never deadlock on itself.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a pool job.
pub(crate) fn in_pool_job() -> bool {
    IN_POOL_JOB.with(|f| f.get())
}

/// RAII marker for "this thread is executing pool jobs". Restores the
/// *previous* value on drop, so a nested inline fan-out returning does
/// not strip the marker from the enclosing job.
struct JobGuard {
    prev: bool,
}

impl JobGuard {
    fn enter() -> JobGuard {
        let prev = IN_POOL_JOB.with(|f| f.replace(true));
        JobGuard { prev }
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_JOB.with(|f| f.set(prev));
    }
}

/// Type-erased pointer to the per-call job closure.
///
/// The `'static` here is a lie told to the type system; see the
/// module docs and the safety comment in [`Batch::work`] for why the
/// pointer is never dereferenced after the owning call returns.
struct Job(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation from many threads
// is its contract) and the pointer itself is only a capability to
// call it; sending that capability between threads is what the pool
// exists to do.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

/// Completion state of a batch, guarded by one mutex so that when
/// `pending` reaches zero every participant's accounting is already
/// published.
struct DoneState {
    pending: usize,
    busy: Vec<Duration>,
    tasks: Vec<u64>,
    panic: Option<Box<dyn Any + Send>>,
}

/// One fan-out call: the erased closure, the job cursor, and the
/// completion latch.
struct Batch {
    job: Job,
    njobs: usize,
    next: AtomicUsize,
    state: Mutex<DoneState>,
    done_cv: Condvar,
}

impl Batch {
    fn new(job: &(dyn Fn(usize, usize) + Sync), njobs: usize, threads: usize) -> Batch {
        // SAFETY (lifetime erasure): the reference is valid for the
        // duration of the fan-out call, and `Batch::work` proves no
        // job can start after the call returned.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, usize) + Sync),
                *const (dyn Fn(usize, usize) + Sync + 'static),
            >(job as *const _)
        });
        Batch {
            job,
            njobs,
            next: AtomicUsize::new(0),
            state: Mutex::new(DoneState {
                pending: njobs,
                busy: vec![Duration::ZERO; threads],
                tasks: vec![0; threads],
                panic: None,
            }),
            done_cv: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, DoneState> {
        // A job panic is propagated through `DoneState::panic`; mutex
        // poisoning carries no extra information here.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claims and runs jobs until the cursor is exhausted.
    ///
    /// # Safety of the `job` dereference
    /// A job index is only obtained while `next < njobs`. Every
    /// claimed index decrements `pending` exactly once, and the
    /// caller blocks until `pending == 0` before returning from the
    /// fan-out call. Therefore every dereference of `job` happens
    /// before the call returns, while the erased borrow is live. A
    /// participant that arrives late claims nothing and never touches
    /// `job`.
    fn work(&self, participant: usize) {
        let _guard = JobGuard::enter();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.njobs {
                return;
            }
            let f = unsafe { &*self.job.0 };
            let started = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f(participant, i);
            }));
            let elapsed = started.elapsed();
            let mut s = self.lock_state();
            s.busy[participant] += elapsed;
            s.tasks[participant] += 1;
            if let Err(payload) = result {
                if s.panic.is_none() {
                    s.panic = Some(payload);
                }
            }
            s.pending -= 1;
            if s.pending == 0 {
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every job completed, returning the accounting and
    /// any captured panic payload.
    fn wait(&self, threads: usize, njobs: usize) -> (ExecStats, Option<Box<dyn Any + Send>>) {
        let mut s = self.lock_state();
        while s.pending > 0 {
            s = self.done_cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        let stats = ExecStats {
            threads,
            tasks: njobs as u64,
            busy: PerParticipant::Each(std::mem::take(&mut s.busy)),
            tasks_per_worker: PerParticipant::Each(std::mem::take(&mut s.tasks)),
        };
        (stats, s.panic.take())
    }
}

/// The batch slot workers poll: `epoch` distinguishes a fresh batch
/// from one a worker has already drained.
struct Slot {
    batch: Option<Arc<Batch>>,
    epoch: u64,
    shutdown: bool,
}

struct PoolInner {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    /// Serializes concurrent fan-out calls from different threads;
    /// held (with the caller working, not idling) for the duration of
    /// a call.
    submit: Mutex<()>,
}

fn worker_loop(inner: &PoolInner, participant: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut s = inner.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if s.shutdown {
                    return;
                }
                if s.epoch != seen_epoch {
                    if let Some(b) = &s.batch {
                        seen_epoch = s.epoch;
                        break b.clone();
                    }
                    seen_epoch = s.epoch;
                }
                s = inner.work_cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        };
        batch.work(participant);
    }
}

/// A shared-memory worker pool of a fixed size.
///
/// `threads == 1` spawns nothing: every call runs inline on the
/// caller, which is also the deterministic reference behaviour the
/// parallel paths must reproduce bit-for-bit.
pub struct Pool {
    threads: usize,
    inner: Option<Arc<PoolInner>>,
}

impl Pool {
    /// Creates a pool executing on `threads` participants (the caller
    /// plus `threads - 1` spawned workers). `0` is clamped to `1`.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        if threads == 1 {
            return Pool {
                threads,
                inner: None,
            };
        }
        let inner = Arc::new(PoolInner {
            slot: Mutex::new(Slot {
                batch: None,
                epoch: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            submit: Mutex::new(()),
        });
        for w in 1..threads {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("mfbc-worker-{w}"))
                .spawn(move || worker_loop(&inner, w))
                .expect("failed to spawn mfbc-parallel worker");
        }
        Pool {
            threads,
            inner: Some(inner),
        }
    }

    /// Pool size (participants including the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(participant, job)` for every `job in 0..njobs` on the
    /// workers of `inner` and the caller, returning when all jobs
    /// completed. The erased core every typed entry point that fans out
    /// funnels through.
    fn run(&self, inner: &PoolInner, njobs: usize, f: &(dyn Fn(usize, usize) + Sync)) -> ExecStats {
        let _submit = inner.submit.lock().unwrap_or_else(|e| e.into_inner());
        let batch = Arc::new(Batch::new(f, njobs, self.threads));
        {
            let mut s = inner.slot.lock().unwrap_or_else(|e| e.into_inner());
            s.epoch += 1;
            s.batch = Some(Arc::clone(&batch));
            inner.work_cv.notify_all();
        }
        batch.work(0);
        let (stats, panic) = batch.wait(self.threads, njobs);
        {
            let mut s = inner.slot.lock().unwrap_or_else(|e| e.into_inner());
            s.batch = None;
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        stats
    }

    /// Maps `0..njobs` through `f` in parallel, collecting results in
    /// job order regardless of completion order.
    pub fn par_map_collect<R, F>(&self, njobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.par_map_collect_stats(njobs, f).0
    }

    /// [`Pool::par_map_collect`] plus the per-call [`ExecStats`].
    pub fn par_map_collect_stats<R, F>(&self, njobs: usize, f: F) -> (Vec<R>, ExecStats)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.par_scratch_map(|| (), njobs, |(), i| f(i))
    }

    /// Like [`Pool::par_map_collect_stats`], with a per-participant
    /// scratch value created lazily by `init` and reused across every
    /// job that participant executes — so scratch allocation scales
    /// with the pool size, not with the job count.
    ///
    /// Scratch-to-job assignment is scheduling-dependent; results
    /// must not depend on scratch history (the SPA reset-by-stamp
    /// discipline upholds exactly this).
    pub fn par_scratch_map<S, R, I, F>(&self, init: I, njobs: usize, f: F) -> (Vec<R>, ExecStats)
    where
        S: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        if njobs == 0 {
            return (Vec::new(), ExecStats::inline(0, Duration::ZERO));
        }
        let inner = match &self.inner {
            Some(inner) if njobs > 1 && !in_pool_job() => inner,
            // One participant, one job, or a job that fans out again: the
            // caller runs every job in order, on one scratch of its own.
            _ => {
                let _guard = JobGuard::enter();
                let started = Instant::now();
                let mut scratch = init();
                let out = (0..njobs).map(|i| f(&mut scratch, i)).collect();
                return (out, ExecStats::inline(njobs, started.elapsed()));
            }
        };
        let scratch: Vec<Mutex<Option<S>>> = (0..self.threads).map(|_| Mutex::new(None)).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..njobs).map(|_| Mutex::new(None)).collect();
        let stats = self.run(inner, njobs, &|participant, i| {
            let mut guard = scratch[participant]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let s = guard.get_or_insert_with(&init);
            let r = f(s, i);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        });
        let out = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every job fills its slot")
            })
            .collect();
        (out, stats)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            let mut s = inner.slot.lock().unwrap_or_else(|e| e.into_inner());
            s.shutdown = true;
            inner.work_cv.notify_all();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}
