//! `mfbc-trace`: structured tracing and metrics for the MFBC stack.
//!
//! The stack (machine model, tensor layer, MFBC driver) calls
//! [`emit`] with a *closure* producing a [`TraceEvent`]. When no
//! recorder is installed the closure is never invoked — the hot-path
//! cost is a single relaxed atomic load, with no allocation and no
//! locking. When one or more [`Recorder`]s are installed (globally
//! via [`install`], or per-thread via [`scoped`]), every event is
//! dispatched to every sink, global ones first, each list in
//! installation order.
//!
//! Recorded runs can be exported as JSON-lines ([`to_jsonl`]) or as a
//! Chrome `trace_event` document ([`to_chrome_trace`]) that opens in
//! `chrome://tracing` / Perfetto, and aggregated into a Table-3-style
//! per-collective summary ([`collective_summary`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod event;
pub mod json;
mod jsonl;
mod recorder;
mod summary;

pub use chrome::to_chrome_trace;
pub use event::{CollectiveCharge, Level, PlanChoice, TraceEvent, TraceRecord, Value};
pub use jsonl::{record_to_json, to_jsonl, write_event};
pub use recorder::{current_tid, MemoryRecorder, Recorder, StderrRecorder};
pub use summary::{
    collective_summary, pool_summary, recovery_summary, render_pool_summary,
    render_recovery_summary, render_summary, total_modeled_comm_s, ActionTotals, FaultCount,
    KindTotals, PlanMixEntry, PoolTotals, RecoveryTotals, StepTotals, Summary,
};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Count of installed recorders across all threads. Zero means
/// tracing is disabled and [`emit`] returns immediately.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Globally installed sinks (process-wide).
static GLOBAL: Mutex<Vec<Arc<dyn Recorder>>> = Mutex::new(Vec::new());

thread_local! {
    /// Sinks installed for the current thread only (see [`scoped`]).
    static SCOPED: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
    /// How many [`muted`] scopes the current thread is inside.
    static MUTED: Cell<usize> = const { Cell::new(0) };
}

/// Whether at least one recorder is installed anywhere and the current
/// thread is not inside a [`muted`] scope.
///
/// This is the fast path: with no recorder installed, a single relaxed
/// atomic load. Instrumented code may use it to skip gathering event
/// inputs that are not already at hand.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && MUTED.with(|m| m.get() == 0)
}

/// Runs `f` with every event and span it emits on the current thread
/// dropped, recorders installed or not — also those of a [`scoped`]
/// recorder installed inside it. What a computation that is not the
/// traced run announces (a sequential call inside a traced round, say)
/// stays out of the run's trace. Unwinds on panic.
pub fn muted<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            MUTED.with(|m| m.set(m.get() - 1));
        }
    }
    MUTED.with(|m| m.set(m.get() + 1));
    let _guard = Guard;
    f()
}

/// Emits the event produced by `build` to every active recorder.
///
/// When tracing is disabled, `build` is **not** invoked — callers can
/// freely capture `format!` work or table construction inside the
/// closure without paying for it in untraced runs.
#[inline]
pub fn emit<F: FnOnce() -> TraceEvent>(build: F) {
    if !enabled() {
        return;
    }
    dispatch(build());
}

#[cold]
fn dispatch(event: TraceEvent) {
    // Snapshot the sink lists first so no lock is held while sinks
    // run (a sink may itself take locks, e.g. MemoryRecorder).
    let global: Vec<Arc<dyn Recorder>> = GLOBAL.lock().expect("trace registry lock").clone();
    let scoped: Vec<Arc<dyn Recorder>> = SCOPED.with(|s| s.borrow().clone());
    let total = global.len() + scoped.len();
    let mut remaining = total;
    for sink in global.iter().chain(scoped.iter()) {
        remaining -= 1;
        if remaining == 0 {
            return sink.record(event);
        }
        sink.record(event.clone());
    }
}

/// Installs a process-wide recorder. Pair with [`uninstall_all`].
pub fn install(rec: Arc<dyn Recorder>) {
    GLOBAL.lock().expect("trace registry lock").push(rec);
    ACTIVE.fetch_add(1, Ordering::Relaxed);
}

/// Removes every process-wide recorder (thread-scoped recorders are
/// unaffected).
pub fn uninstall_all() {
    let mut global = GLOBAL.lock().expect("trace registry lock");
    let n = global.len();
    global.clear();
    drop(global);
    ACTIVE.fetch_sub(n, Ordering::Relaxed);
}

/// Runs `f` with `rec` installed for the current thread only, then
/// removes it (also on panic). The test-friendly way to capture a
/// trace without cross-test interference.
pub fn scoped<R>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
    SCOPED.with(|s| s.borrow_mut().push(rec));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let _guard = Guard;
    f()
}

/// A wall-clock span: emits `SpanBegin` on creation and `SpanEnd` on
/// drop. When tracing is disabled both the name closure and the
/// events are skipped entirely.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    name: Option<String>,
}

/// Opens a span named by `name` (invoked only while tracing is
/// enabled). Hold the returned guard for the duration of the work:
///
/// ```
/// let _span = mfbc_trace::span(|| "mm_auto".to_string());
/// ```
#[inline]
pub fn span<F: FnOnce() -> String>(name: F) -> Span {
    if !enabled() {
        return Span { name: None };
    }
    let name = name();
    dispatch(TraceEvent::SpanBegin { name: name.clone() });
    Span { name: Some(name) }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            dispatch(TraceEvent::SpanEnd { name });
        }
    }
}

/// Emits a counter sample.
#[inline]
pub fn counter(name: &'static str, value: f64) {
    emit(|| TraceEvent::Counter { name, value });
}

/// Routes a log message through the trace pipeline. `message` is
/// invoked lazily; when tracing is disabled, [`Level::Warn`] messages
/// still reach stderr so problems are never silently dropped, while
/// [`Level::Info`] messages are discarded.
pub fn log<F: FnOnce() -> String>(level: Level, message: F) {
    if enabled() {
        dispatch(TraceEvent::Log {
            level,
            message: message(),
        });
    } else if level == Level::Warn {
        eprintln!("[warn] {}", message());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_never_builds_the_event() {
        // This test relies on no *global* recorder being installed;
        // other tests in this crate only use scoped recorders on
        // their own threads, which cannot make this thread's flag
        // fire because dispatch still finds no sink here.
        let mut built = false;
        if !enabled() {
            emit(|| {
                built = true;
                TraceEvent::Counter {
                    name: "x",
                    value: 0.0,
                }
            });
            assert!(!built, "event closure ran while tracing was disabled");
        }
    }

    #[test]
    fn disabled_span_skips_name_construction() {
        let mut named = false;
        if !enabled() {
            let _span = span(|| {
                named = true;
                "unused".to_string()
            });
            assert!(!named);
        }
    }

    #[test]
    fn scoped_recorder_captures_and_unwinds() {
        let rec = Arc::new(MemoryRecorder::new());
        let out = scoped(rec.clone(), || {
            counter("inside", 1.0);
            let _span = span(|| "work".to_string());
            counter("inside", 2.0);
            42
        });
        assert_eq!(out, 42);
        let records = rec.snapshot();
        // counter, span begin, counter, span end
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].event.tag(), "counter");
        assert_eq!(records[1].event.tag(), "span_begin");
        assert_eq!(records[3].event.tag(), "span_end");
        counter("outside", 3.0);
        assert_eq!(rec.len(), 4, "recorder still active after scoped exit");
    }

    #[test]
    fn scoped_unwinds_on_panic() {
        let rec = Arc::new(MemoryRecorder::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped(rec.clone(), || panic!("boom"));
        }));
        assert!(result.is_err());
        counter("after", 1.0);
        assert_eq!(rec.len(), 0, "scoped recorder leaked past a panic");
    }

    #[test]
    fn muted_drops_what_its_thread_emits_and_unwinds() {
        let rec = Arc::new(MemoryRecorder::new());
        scoped(rec.clone(), || {
            muted(|| {
                counter("hidden", 1.0);
                let _span = span(|| "hidden".to_string());
                assert!(!enabled());
            });
            let panicked = std::panic::catch_unwind(|| muted(|| panic!("boom")));
            assert!(panicked.is_err());
            counter("shown", 2.0);
        });
        let records = rec.snapshot();
        assert_eq!(records.len(), 1, "only the unmuted counter");
        assert_eq!(records[0].event.tag(), "counter");
    }

    #[test]
    fn multiple_scoped_sinks_all_receive() {
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        scoped(a.clone(), || {
            scoped(b.clone(), || {
                counter("x", 5.0);
            });
            counter("y", 6.0);
        });
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
    }

    /// Logs `(label, tag)` arrivals into a journal shared between
    /// sinks, so the order across sinks is observable.
    struct Journaling {
        label: &'static str,
        journal: Arc<Mutex<Vec<(&'static str, &'static str)>>>,
    }

    impl Recorder for Journaling {
        fn record(&self, event: TraceEvent) {
            self.journal.lock().unwrap().push((self.label, event.tag()));
        }
    }

    #[test]
    fn sinks_receive_every_event_in_installation_order() {
        let journal = Arc::new(Mutex::new(Vec::new()));
        let sink = |label| {
            let journal = journal.clone();
            Arc::new(Journaling { label, journal })
        };
        scoped(sink("a"), || {
            scoped(sink("b"), || {
                counter("x", 1.0);
                log(Level::Warn, || "y".to_string());
            })
        });
        assert_eq!(
            *journal.lock().unwrap(),
            [
                ("a", "counter"),
                ("b", "counter"),
                ("a", "log"),
                ("b", "log")
            ],
            "every event visits every sink, in installation order"
        );
    }

    #[test]
    fn log_warn_reaches_sink_when_enabled() {
        let rec = Arc::new(MemoryRecorder::new());
        scoped(rec.clone(), || {
            log(Level::Warn, || "careful".to_string());
            log(Level::Info, || "fyi".to_string());
        });
        let records = rec.snapshot();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            &records[0].event,
            TraceEvent::Log {
                level: Level::Warn,
                message
            } if message == "careful"
        ));
    }
}
