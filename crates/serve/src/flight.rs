//! The in-engine flight recorder: a bounded ring of recent engine
//! decisions plus per-request journey records, cheap enough to leave
//! on in production and byte-deterministic to snapshot.
//!
//! A decision is the [`TraceEvent`] the engine emits into the
//! [`mfbc_trace`] stream; the ring keeps the same value. That stream is
//! off unless a recorder is installed and captures *everything*; the
//! ring keeps only the last `capacity` events of the engine's own
//! story — admissions, sheds, round boundaries, degradation decisions,
//! retries, commits, breaker trips, poison — timestamped on the
//! engine's *modeled* clock, so two identical runs dump identical
//! bytes. The engine dumps it automatically when it poisons or the
//! breaker trips, and on demand via the wire `{"cmd":"dump"}` command.

use mfbc_trace::json::{write_row, Version};
use mfbc_trace::{write_event, TraceEvent, Value};
use std::borrow::Cow;
use std::collections::VecDeque;

/// One recorded event: a monotonic sequence number (never reused,
/// so eviction is visible), the engine's modeled clock, and the
/// decision.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number across the recorder's lifetime.
    pub seq: u64,
    /// Engine modeled clock when recorded, in seconds.
    pub clock_s: f64,
    /// What the engine decided, as it emitted it into the trace.
    pub event: TraceEvent,
}

/// The full audit trail of one request, from admission to response.
/// Every degraded response is explainable from this record alone:
/// the rung, the budget arithmetic that forced it, and the round the
/// work was attributed to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journey {
    /// Request id.
    pub id: u64,
    /// Query label.
    pub query: Cow<'static, str>,
    /// Effective deadline in modeled seconds.
    pub deadline_s: f64,
    /// Modeled clock at admission.
    pub submitted_s: f64,
    /// Round that answered it (0 while still queued).
    pub round: u64,
    /// Modeled seconds spent queued before its round started.
    pub queue_wait_s: f64,
    /// Rung the response came from (empty while queued).
    pub rung: Cow<'static, str>,
    /// Why that rung (empty while queued).
    pub reason: Cow<'static, str>,
    /// Sample size when the rung is `approx`, else 0.
    pub approx_k: u64,
    /// The round's shared budget in modeled seconds.
    pub budget_s: f64,
    /// Modeled seconds the round had spent at decision time.
    pub spent_s: f64,
    /// Cost the ladder charged one more exact batch.
    pub est_batch_s: f64,
    /// Store version served.
    pub store_version: u64,
    /// Engine-level retries during its round.
    pub retries: u64,
    /// Shared modeled round latency.
    pub latency_s: f64,
    /// Whether the deadline was met (`latency_s <= deadline_s`).
    pub deadline_met: bool,
    /// Whether a response was produced.
    pub complete: bool,
}

mfbc_trace::row! { Journey {
    "id" => id,
    "query" => query,
    "deadline_s" => deadline_s,
    "submitted_s" => submitted_s,
    "round" => round,
    "queue_wait_s" => queue_wait_s,
    "rung" => rung,
    "reason" => reason,
    "approx_k" => approx_k,
    "budget_s" => budget_s,
    "spent_s" => spent_s,
    "est_batch_s" => est_batch_s,
    "store_version" => store_version,
    "retries" => retries,
    "latency_s" => latency_s,
    "deadline_met" => deadline_met,
    "complete" => complete,
} }

/// The dump's leading members; its `events` and `journeys` arrays
/// follow in the same object.
#[derive(Default)]
struct Header {
    flight: Version<2>,
    capacity: usize,
    dropped_events: u64,
    dropped_journeys: u64,
}

mfbc_trace::row! { Header {
    "flight" => flight,
    "capacity" => capacity,
    "dropped_events" => dropped_events,
    "dropped_journeys" => dropped_journeys,
} }

/// Fixed-capacity recorder: a ring of recent [`FlightEvent`]s and a
/// ring of recent [`Journey`]s, both evicting oldest-first.
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<FlightEvent>,
    journeys: VecDeque<Journey>,
    seq: u64,
    dropped_events: u64,
    dropped_journeys: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events and `capacity`
    /// journeys (oldest evicted first).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            journeys: VecDeque::new(),
            seq: 0,
            dropped_events: 0,
            dropped_journeys: 0,
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&mut self, clock_s: f64, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(FlightEvent {
            seq: self.seq,
            clock_s,
            event,
        });
        self.seq += 1;
    }

    /// Opens a journey at admission time.
    pub fn admit(&mut self, journey: Journey) {
        if self.journeys.len() >= self.capacity {
            self.journeys.pop_front();
            self.dropped_journeys += 1;
        }
        self.journeys.push_back(journey);
    }

    /// Completes the journey for request `id` (the most recent
    /// incomplete one with that id, so re-used ids stay coherent).
    /// Returns whether a journey was found.
    pub fn complete(&mut self, id: u64, fill: impl FnOnce(&mut Journey)) -> bool {
        if let Some(j) = self
            .journeys
            .iter_mut()
            .rev()
            .find(|j| j.id == id && !j.complete)
        {
            fill(j);
            j.complete = true;
            return true;
        }
        false
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Journey records, oldest first.
    pub fn journeys(&self) -> impl Iterator<Item = &Journey> {
        self.journeys.iter()
    }

    /// Events evicted from the ring so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Renders the whole recorder state as one JSON line: the header,
    /// each event as `seq` and `clock_s` followed by the members the
    /// trace's JSON-lines export writes for it, then the journeys. All
    /// f64s go through the exact formatter shared with the other
    /// exporters (non-finite renders as `null`), timestamps are
    /// modeled-clock, and ordering is the ring order — so two
    /// identical runs dump byte-identical lines.
    pub fn dump(&self) -> String {
        let mut s = String::with_capacity(4096);
        let header = Header {
            flight: Version,
            capacity: self.capacity,
            dropped_events: self.dropped_events,
            dropped_journeys: self.dropped_journeys,
        };
        write_row(&mut s, &header, false);
        s.pop(); // the arrays below close the header's object
        s.push_str(",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"seq\":");
            Value::U64(e.seq).write_json(&mut s);
            s.push_str(",\"clock_s\":");
            Value::F64(e.clock_s).write_json(&mut s);
            s.push(',');
            write_event(&mut s, &e.event);
            s.push('}');
        }
        s.push_str("],\"journeys\":[");
        for (i, j) in self.journeys.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_row(&mut s, j, false);
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_trace::json::{parse, Json};

    fn ev(round: u64) -> TraceEvent {
        TraceEvent::Commit {
            round,
            store_version: round,
        }
    }

    #[test]
    fn ring_evicts_oldest_first_and_keeps_seq() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(i as f64, ev(i));
        }
        let seqs: Vec<u64> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest two evicted, order kept");
        assert_eq!(fr.dropped_events(), 2);
        let events: Vec<TraceEvent> = fr.events().map(|e| e.event.clone()).collect();
        assert_eq!(events, vec![ev(2), ev(3), ev(4)]);
    }

    #[test]
    fn dump_is_valid_json_and_deterministic() {
        let build = || {
            let mut fr = FlightRecorder::new(8);
            fr.record(0.0, ev(1));
            fr.record(
                0.5,
                TraceEvent::DegradeDecision {
                    round: 1,
                    rung: "approx",
                    reason: "budget",
                    budget_s: 2.0,
                    spent_s: 0.5,
                    est_batch_s: 3.0,
                    approx_k: 16,
                    store_version: 1,
                },
            );
            fr.record(
                0.75,
                TraceEvent::Poison {
                    round: 1,
                    detail: "rank 0 \"lost\"".into(),
                },
            );
            fr.admit(Journey {
                id: 7,
                query: "full".into(),
                deadline_s: f64::INFINITY,
                submitted_s: 0.25,
                ..Journey::default()
            });
            fr.complete(7, |j| {
                j.round = 1;
                j.rung = "approx".into();
                j.deadline_met = true;
            });
            fr
        };
        let a = build().dump();
        let b = build().dump();
        assert_eq!(a, b, "identical histories dump identical bytes");
        assert!(!a.contains('\n'), "dump is one line");
        let v = parse(&a).expect("dump parses as JSON");
        assert_eq!(v.get("flight").and_then(Json::as_u64), Some(2));
        // Events are named and keyed the way the trace's JSON-lines
        // export writes them.
        let events = v.get("events").and_then(Json::as_array).unwrap();
        let types: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("type").and_then(Json::as_str))
            .collect();
        assert_eq!(types, ["commit", "degrade_decision", "poison"]);
        assert_eq!(
            events[2].get("detail").and_then(Json::as_str),
            Some("rank 0 \"lost\"")
        );
        let journeys = v.get("journeys").and_then(Json::as_array).unwrap();
        assert_eq!(journeys.len(), 1);
        // Infinite deadline survives as null, per the shared formatter.
        assert!(matches!(journeys[0].get("deadline_s"), Some(Json::Null)));
        assert_eq!(
            journeys[0].get("rung").and_then(Json::as_str),
            Some("approx")
        );
    }

    #[test]
    fn complete_targets_latest_incomplete_journey() {
        let mut fr = FlightRecorder::new(4);
        let j = |id| Journey {
            id,
            query: "full".into(),
            deadline_s: 1.0,
            ..Journey::default()
        };
        fr.admit(j(1));
        assert!(fr.complete(1, |x| x.round = 1));
        fr.admit(j(1));
        assert!(fr.complete(1, |x| x.round = 2));
        let rounds: Vec<u64> = fr.journeys().map(|x| x.round).collect();
        assert_eq!(rounds, vec![1, 2]);
        assert!(!fr.complete(1, |_| {}), "no incomplete journey left");
        assert!(!fr.complete(99, |_| {}));
    }
}
