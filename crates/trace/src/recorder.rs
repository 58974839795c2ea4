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
/// Several sinks take the same stream by being installed side by side
/// ([`crate::install`], [`crate::scoped`]): every installed sink gets
/// every event, in installation order.
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: TraceEvent);
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
}
