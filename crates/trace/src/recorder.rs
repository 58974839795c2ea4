//! Recorder sinks: where emitted events go.

use crate::event::{TraceEvent, TraceRecord};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A sink for trace events.
///
/// Implementations must be cheap and non-blocking where possible:
/// `record` is called from instrumented hot paths (though only while
/// a recorder is installed — disabled tracing never reaches here).
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: TraceEvent);

    /// Whether this sink currently wants events. A [`TeeRecorder`]
    /// skips disabled sinks *before* cloning the event for them, so a
    /// temporarily switched-off sink costs one virtual call, nothing
    /// more. Defaults to always-on.
    fn enabled(&self) -> bool {
        true
    }
}

/// Fans every event out to N inner sinks, in insertion order.
///
/// This is how `--trace-out` (a [`MemoryRecorder`] for later export)
/// and a live aggregator (e.g. `mfbc-profile`'s `Profiler`) share one
/// installed recorder slot in the same invocation. The last *active*
/// sink receives the event by value; earlier ones get clones; sinks
/// whose [`Recorder::enabled`] returns `false` are skipped without a
/// clone being made for them.
pub struct TeeRecorder {
    sinks: Vec<std::sync::Arc<dyn Recorder>>,
}

impl TeeRecorder {
    /// Builds a tee over `sinks`, delivered to in the given order.
    pub fn over(sinks: Vec<std::sync::Arc<dyn Recorder>>) -> TeeRecorder {
        TeeRecorder { sinks }
    }
}

impl Recorder for TeeRecorder {
    fn record(&self, event: TraceEvent) {
        // Resolve the active set first so the by-value hand-off goes
        // to the last sink that will actually consume the event.
        let active: Vec<&std::sync::Arc<dyn Recorder>> =
            self.sinks.iter().filter(|s| s.enabled()).collect();
        let mut remaining = active.len();
        for sink in active {
            remaining -= 1;
            if remaining == 0 {
                return sink.record(event);
            }
            sink.record(event.clone());
        }
    }

    /// A tee is enabled iff any inner sink is — so nested tees
    /// short-circuit too.
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id of the calling thread (stable for its lifetime).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Thread-safe in-memory recorder stamping wall-clock microseconds
/// and thread ids onto every event.
#[derive(Debug)]
pub struct MemoryRecorder {
    start: Instant,
    records: Mutex<Vec<TraceRecord>>,
}

impl Default for MemoryRecorder {
    fn default() -> MemoryRecorder {
        MemoryRecorder::new()
    }
}

impl MemoryRecorder {
    /// An empty recorder; timestamps count from now.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder {
            start: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("trace records lock").clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock().expect("trace records lock"))
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.lock().expect("trace records lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: TraceEvent) {
        let rec = TraceRecord {
            ts_us: self.start.elapsed().as_micros() as u64,
            tid: current_tid(),
            event,
        };
        self.records.lock().expect("trace records lock").push(rec);
    }
}

/// Human-readable recorder writing one line per event to stderr.
/// Backs `--verbose` modes: log messages print as `[level] text`,
/// every other event as `[trace] <tag> name=value …` over its
/// declared fields (values in their JSON form).
#[derive(Debug, Default)]
pub struct StderrRecorder;

impl StderrRecorder {
    /// A stderr line-printer.
    pub fn new() -> StderrRecorder {
        StderrRecorder
    }
}

impl Recorder for StderrRecorder {
    fn record(&self, event: TraceEvent) {
        if let Some((level, message)) = event.as_log() {
            return eprintln!("[{}] {message}", level.name());
        }
        let mut line = format!("[trace] {}", event.tag());
        event.fields(&mut |name, value| {
            let _ = write!(line, " {name}=");
            value.write_json(&mut line);
        });
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warn_event(message: &str) -> TraceEvent {
        TraceEvent::Log {
            level: crate::event::Level::Warn,
            message: message.to_string(),
        }
    }

    #[test]
    fn memory_recorder_stamps_monotonic_timestamps() {
        let rec = MemoryRecorder::new();
        for i in 0..4 {
            rec.record(TraceEvent::Counter {
                name: "i",
                value: i as f64,
            });
        }
        let records = rec.snapshot();
        assert_eq!(records.len(), 4);
        for w in records.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
        assert_eq!(rec.take().len(), 4);
        assert!(rec.is_empty());
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }

    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Test sink logging (label, event) arrivals into a shared journal
    /// so cross-sink ordering is observable; gate toggles `enabled`.
    struct Journaling {
        label: &'static str,
        journal: Arc<Mutex<Vec<(&'static str, String)>>>,
        gate: AtomicBool,
    }

    impl Journaling {
        fn new(
            label: &'static str,
            journal: Arc<Mutex<Vec<(&'static str, String)>>>,
        ) -> Journaling {
            Journaling {
                label,
                journal,
                gate: AtomicBool::new(true),
            }
        }
    }

    impl Recorder for Journaling {
        fn record(&self, event: TraceEvent) {
            self.journal
                .lock()
                .unwrap()
                .push((self.label, event.tag().to_string()));
        }
        fn enabled(&self) -> bool {
            self.gate.load(Ordering::Relaxed)
        }
    }

    fn counter_event(value: f64) -> TraceEvent {
        TraceEvent::Counter { name: "x", value }
    }

    #[test]
    fn tee_delivers_in_insertion_order() {
        let journal = Arc::new(Mutex::new(Vec::new()));
        let a = Arc::new(Journaling::new("a", journal.clone()));
        let b = Arc::new(Journaling::new("b", journal.clone()));
        let tee = TeeRecorder::over(vec![a.clone(), b.clone()]);
        tee.record(counter_event(1.0));
        tee.record(warn_event("y"));
        let got = journal.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                ("a", "counter".to_string()),
                ("b", "counter".to_string()),
                ("a", "log".to_string()),
                ("b", "log".to_string()),
            ],
            "per-event fan-out must visit sinks in insertion order"
        );
    }

    #[test]
    fn tee_skips_disabled_sinks_and_resumes() {
        let journal = Arc::new(Mutex::new(Vec::new()));
        let a = Arc::new(Journaling::new("a", journal.clone()));
        let b = Arc::new(Journaling::new("b", journal.clone()));
        let tee = TeeRecorder::over(vec![a.clone(), b.clone()]);
        b.gate.store(false, Ordering::Relaxed);
        tee.record(counter_event(1.0));
        assert_eq!(journal.lock().unwrap().len(), 1, "disabled sink received");
        // The tee itself stays enabled while any sink is.
        assert!(tee.enabled());
        a.gate.store(false, Ordering::Relaxed);
        assert!(!tee.enabled(), "all sinks off must disable the tee");
        tee.record(counter_event(2.0));
        assert_eq!(journal.lock().unwrap().len(), 1);
        // Re-enabling resumes delivery.
        a.gate.store(true, Ordering::Relaxed);
        b.gate.store(true, Ordering::Relaxed);
        tee.record(counter_event(3.0));
        let got = journal.lock().unwrap().clone();
        assert_eq!(got.len(), 3);
        assert_eq!(got[1], ("a", "counter".to_string()));
        assert_eq!(got[2], ("b", "counter".to_string()));
    }

    #[test]
    fn empty_tee_is_disabled_noop() {
        let tee = TeeRecorder::over(Vec::new());
        assert!(!tee.enabled());
        tee.record(counter_event(0.0)); // must not panic
    }
}
