//! The in-engine flight recorder: a bounded ring of recent
//! engine-level events plus per-request journey records, cheap enough
//! to leave on in production and byte-deterministic to snapshot.
//!
//! Unlike the [`mfbc_trace`] stream (which is off unless a recorder
//! is installed and captures *everything*), the flight recorder keeps
//! only the last `capacity` events of the engine's own story —
//! admissions, round boundaries, degradation decisions, retries,
//! breaker trips, poison — timestamped on the engine's *modeled*
//! clock, so two identical runs dump identical bytes. The engine
//! dumps it automatically when it poisons or the breaker trips, and
//! on demand via the wire `{"cmd":"dump"}` command.

use mfbc_trace::json::{esc, num};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// What one flight-recorder event records.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightKind {
    /// A request entered the bounded queue.
    Admitted {
        /// Request id.
        id: u64,
        /// Query label (`topk`/`vertex`/`full`).
        query: &'static str,
        /// Effective deadline in modeled seconds.
        deadline_s: f64,
        /// Queue depth after admission.
        queue_depth: u64,
    },
    /// A submission was refused.
    Shed {
        /// Request id (0 when the line never parsed).
        id: u64,
        /// Refusal reason label.
        reason: &'static str,
    },
    /// A coalesced drain round began.
    RoundStart {
        /// 1-based round id.
        round: u64,
        /// Requests coalesced into it.
        requests: u64,
        /// Shared budget in modeled seconds.
        budget_s: f64,
        /// Store version at round start.
        store_version: u64,
    },
    /// The round chose its degradation rung.
    Degrade {
        /// Round id.
        round: u64,
        /// Chosen rung (`exact`/`approx`/`stale`).
        rung: &'static str,
        /// Why (`complete`/`budget`/`min-k`/`breaker-open`/`poisoned`).
        reason: &'static str,
        /// Shared budget in modeled seconds.
        budget_s: f64,
        /// Modeled seconds already spent when deciding.
        spent_s: f64,
        /// Cost the ladder charged one more exact batch.
        est_batch_s: f64,
        /// Sample size (0 unless the rung is `approx`).
        approx_k: u64,
        /// Store version at decision time.
        store_version: u64,
    },
    /// A retryable session error was backed off.
    Retry {
        /// Round id.
        round: u64,
        /// Zero-based attempt being retried.
        attempt: u32,
        /// Backoff wait in modeled seconds.
        wait_s: f64,
    },
    /// An exact batch committed into the store.
    Commit {
        /// Round id (0 during `warm`).
        round: u64,
        /// Store version after the commit.
        store_version: u64,
    },
    /// The circuit breaker tripped to stale-serving.
    BreakerTrip {
        /// Round id (0 during `warm`).
        round: u64,
        /// Lifetime trip count.
        trips: u64,
    },
    /// An unrecoverable error poisoned the engine.
    Poison {
        /// Round id (0 during `warm`).
        round: u64,
        /// The session error text.
        detail: String,
    },
    /// A drain round finished.
    RoundEnd {
        /// Round id.
        round: u64,
        /// Responses produced.
        responses: u64,
        /// Shared modeled latency of the round.
        elapsed_s: f64,
    },
}

impl FlightKind {
    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            FlightKind::Admitted { .. } => "admitted",
            FlightKind::Shed { .. } => "shed",
            FlightKind::RoundStart { .. } => "round_start",
            FlightKind::Degrade { .. } => "degrade",
            FlightKind::Retry { .. } => "retry",
            FlightKind::Commit { .. } => "commit",
            FlightKind::BreakerTrip { .. } => "breaker_trip",
            FlightKind::Poison { .. } => "poison",
            FlightKind::RoundEnd { .. } => "round_end",
        }
    }
}

/// One recorded event: a monotonic sequence number (never reused,
/// so eviction is visible), the engine's modeled clock, and the
/// payload.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number across the recorder's lifetime.
    pub seq: u64,
    /// Engine modeled clock when recorded, in seconds.
    pub clock_s: f64,
    /// What happened.
    pub kind: FlightKind,
}

/// The full audit trail of one request, from admission to response.
/// Every degraded response is explainable from this record alone:
/// the rung, the budget arithmetic that forced it, and the round the
/// work was attributed to.
#[derive(Clone, Debug, PartialEq)]
pub struct Journey {
    /// Request id.
    pub id: u64,
    /// Query label.
    pub query: &'static str,
    /// Effective deadline in modeled seconds.
    pub deadline_s: f64,
    /// Modeled clock at admission.
    pub submitted_s: f64,
    /// Round that answered it (0 while still queued).
    pub round: u64,
    /// Modeled seconds spent queued before its round started.
    pub queue_wait_s: f64,
    /// Rung the response came from (empty while queued).
    pub rung: &'static str,
    /// Why that rung (empty while queued).
    pub reason: &'static str,
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
    pub retries: u32,
    /// Shared modeled round latency.
    pub latency_s: f64,
    /// Whether the deadline was met (`latency_s <= deadline_s`).
    pub deadline_met: bool,
    /// Whether a response was produced.
    pub complete: bool,
}

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
    pub fn record(&mut self, clock_s: f64, kind: FlightKind) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(FlightEvent {
            seq: self.seq,
            clock_s,
            kind,
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

    /// Renders the whole recorder state as one JSON line. All f64s go
    /// through the exact formatter shared with the other exporters
    /// (non-finite renders as `null`), timestamps are modeled-clock,
    /// and ordering is the ring order — so two identical runs dump
    /// byte-identical lines.
    pub fn dump(&self) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\"flight\":1,\"capacity\":{},\"dropped_events\":{},\"dropped_journeys\":{},\"events\":[",
            self.capacity, self.dropped_events, self.dropped_journeys
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"seq\":{},\"clock_s\":{},\"kind\":\"{}\"",
                e.seq,
                num(e.clock_s),
                e.kind.tag()
            );
            match &e.kind {
                FlightKind::Admitted {
                    id,
                    query,
                    deadline_s,
                    queue_depth,
                } => {
                    let _ = write!(
                        s,
                        ",\"id\":{id},\"query\":\"{query}\",\"deadline_s\":{},\"queue_depth\":{queue_depth}",
                        num(*deadline_s)
                    );
                }
                FlightKind::Shed { id, reason } => {
                    let _ = write!(s, ",\"id\":{id},\"reason\":\"{reason}\"");
                }
                FlightKind::RoundStart {
                    round,
                    requests,
                    budget_s,
                    store_version,
                } => {
                    let _ = write!(
                        s,
                        ",\"round\":{round},\"requests\":{requests},\"budget_s\":{},\"store_version\":{store_version}",
                        num(*budget_s)
                    );
                }
                FlightKind::Degrade {
                    round,
                    rung,
                    reason,
                    budget_s,
                    spent_s,
                    est_batch_s,
                    approx_k,
                    store_version,
                } => {
                    let _ = write!(
                        s,
                        ",\"round\":{round},\"rung\":\"{rung}\",\"reason\":\"{reason}\",\"budget_s\":{},\"spent_s\":{},\"est_batch_s\":{},\"approx_k\":{approx_k},\"store_version\":{store_version}",
                        num(*budget_s),
                        num(*spent_s),
                        num(*est_batch_s)
                    );
                }
                FlightKind::Retry {
                    round,
                    attempt,
                    wait_s,
                } => {
                    let _ = write!(
                        s,
                        ",\"round\":{round},\"attempt\":{attempt},\"wait_s\":{}",
                        num(*wait_s)
                    );
                }
                FlightKind::Commit {
                    round,
                    store_version,
                } => {
                    let _ = write!(s, ",\"round\":{round},\"store_version\":{store_version}");
                }
                FlightKind::BreakerTrip { round, trips } => {
                    let _ = write!(s, ",\"round\":{round},\"trips\":{trips}");
                }
                FlightKind::Poison { round, detail } => {
                    let _ = write!(s, ",\"round\":{round},\"detail\":\"{}\"", esc(detail));
                }
                FlightKind::RoundEnd {
                    round,
                    responses,
                    elapsed_s,
                } => {
                    let _ = write!(
                        s,
                        ",\"round\":{round},\"responses\":{responses},\"elapsed_s\":{}",
                        num(*elapsed_s)
                    );
                }
            }
            s.push('}');
        }
        s.push_str("],\"journeys\":[");
        for (i, j) in self.journeys.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"query\":\"{}\",\"deadline_s\":{},\"submitted_s\":{},\"round\":{},\"queue_wait_s\":{},\"rung\":\"{}\",\"reason\":\"{}\",\"approx_k\":{},\"budget_s\":{},\"spent_s\":{},\"est_batch_s\":{},\"store_version\":{},\"retries\":{},\"latency_s\":{},\"deadline_met\":{},\"complete\":{}}}",
                j.id,
                j.query,
                num(j.deadline_s),
                num(j.submitted_s),
                j.round,
                num(j.queue_wait_s),
                j.rung,
                j.reason,
                j.approx_k,
                num(j.budget_s),
                num(j.spent_s),
                num(j.est_batch_s),
                j.store_version,
                j.retries,
                num(j.latency_s),
                j.deadline_met,
                j.complete
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64) -> FlightKind {
        FlightKind::Commit {
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
        let rounds: Vec<u64> = fr
            .events()
            .map(|e| match e.kind {
                FlightKind::Commit { round, .. } => round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn dump_is_valid_json_and_deterministic() {
        let build = || {
            let mut fr = FlightRecorder::new(8);
            fr.record(0.0, ev(1));
            fr.record(
                0.5,
                FlightKind::Degrade {
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
            fr.admit(Journey {
                id: 7,
                query: "full",
                deadline_s: f64::INFINITY,
                submitted_s: 0.25,
                round: 0,
                queue_wait_s: 0.0,
                rung: "",
                reason: "",
                approx_k: 0,
                budget_s: 0.0,
                spent_s: 0.0,
                est_batch_s: 0.0,
                store_version: 0,
                retries: 0,
                latency_s: 0.0,
                deadline_met: false,
                complete: false,
            });
            fr.complete(7, |j| {
                j.round = 1;
                j.rung = "approx";
                j.deadline_met = true;
            });
            fr
        };
        let a = build().dump();
        let b = build().dump();
        assert_eq!(a, b, "identical histories dump identical bytes");
        assert!(!a.contains('\n'), "dump is one line");
        let v = mfbc_trace::json::parse(&a).expect("dump parses as JSON");
        assert_eq!(
            v.get("flight").and_then(mfbc_trace::json::Json::as_u64),
            Some(1)
        );
        let journeys = v
            .get("journeys")
            .and_then(mfbc_trace::json::Json::as_array)
            .unwrap();
        assert_eq!(journeys.len(), 1);
        // Infinite deadline survives as null, per the shared formatter.
        assert!(matches!(
            journeys[0].get("deadline_s"),
            Some(mfbc_trace::json::Json::Null)
        ));
        assert_eq!(
            journeys[0]
                .get("rung")
                .and_then(mfbc_trace::json::Json::as_str),
            Some("approx")
        );
    }

    #[test]
    fn complete_targets_latest_incomplete_journey() {
        let mut fr = FlightRecorder::new(4);
        let j = |id| Journey {
            id,
            query: "full",
            deadline_s: 1.0,
            submitted_s: 0.0,
            round: 0,
            queue_wait_s: 0.0,
            rung: "",
            reason: "",
            approx_k: 0,
            budget_s: 0.0,
            spent_s: 0.0,
            est_batch_s: 0.0,
            store_version: 0,
            retries: 0,
            latency_s: 0.0,
            deadline_met: false,
            complete: false,
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
