//! Load test for the `mfbc-serve` engine, gated like the modeled
//! regression suite.
//!
//! A seeded mixed request stream (top-k / vertex / full, deadlines
//! from zero through infinite) is driven through the engine in
//! coalesced flush groups — once fault-free and once under a pinned
//! crash+transient schedule. The harness *asserts* the serving
//! contract while it measures:
//!
//! * every admitted request is answered exactly once (never dropped,
//!   fault schedule or not);
//! * every exact-quality response is bit-identical to a one-shot
//!   `mfbc_dist` run on the same machine configuration;
//! * degraded responses carry their tags (`approx_k`/`ci`, stale
//!   version).
//!
//! The report's modeled fields (requests served per modeled second,
//! p99 modeled latency, store version, quality counts) are
//! deterministic and compared bit-exact against `BENCH_serve.json`;
//! wall-clock is reported only, like `BENCH_mfbc.json`'s.

use mfbc_core::dist::{mfbc_dist, MfbcConfig};
use mfbc_fault::{FaultPlan, RetryPolicy, SplitMix64};
use mfbc_graph::gen::uniform;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_profile::Case;
use mfbc_serve::{Admission, Engine, EngineConfig, Payload, Quality, Query, Request};
use mfbc_trace::json::Version;
use mfbc_trace::row;
use std::time::Instant;

/// The pinned fault schedule of the faulted case: one crash early,
/// a transient burst shortly after.
pub const FAULTED_SCHEDULE: &str = "crash:1@2,transient:2@4";

/// Requests per case (mixed queries, mixed deadlines).
pub const REQUESTS: usize = 50;

/// Measured (and contract-checked) outcome of one load case: one
/// row of `BENCH_serve.json`, gated through
/// [`mfbc_profile::Baseline`] like the modeled suite's cases.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeLoadReport {
    /// Case name (`fault-free` / `faulted`).
    pub name: String,
    /// Requests offered.
    pub requests: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Requests shed at admission (bounded queue).
    pub shed: u64,
    /// Responses by quality rung.
    pub exact: u64,
    /// Sampled-estimator responses.
    pub approx: u64,
    /// Stale-store responses.
    pub stale: u64,
    /// Engine-level retries spent.
    pub retries: u64,
    /// Final committed store version.
    pub store_version: u64,
    /// Engine modeled clock at the end of the run.
    pub modeled_s: f64,
    /// 99th-percentile modeled response latency.
    pub p99_latency_modeled_s: f64,
    /// Responses per modeled second.
    pub rps_modeled: f64,
    /// Wall-clock seconds (reported only: not in the baseline file,
    /// `0.0` after a parse).
    pub wall_s: f64,
}

row! { ServeLoadReport {
    "name" => name,
    "requests" => requests,
    "admitted" => admitted,
    "shed" => shed,
    "exact" => exact,
    "approx" => approx,
    "stale" => stale,
    "retries" => retries,
    "store_version" => store_version,
    "modeled_s" => modeled_s,
    "p99_latency_modeled_s" => p99_latency_modeled_s,
    "rps_modeled" => rps_modeled,
} }

/// Schema version of `BENCH_serve.json`. Version 2 dropped
/// `wall_band` and the per-case `wall_s`.
pub const SERVE_BASELINE_VERSION: u64 = 2;

impl Case for ServeLoadReport {
    type Version = Version<SERVE_BASELINE_VERSION>;
    /// Served-exact counts and throughput are not costs.
    const COSTS: bool = false;

    fn name(&self) -> &str {
        &self.name
    }
}

/// Runs one load case. `faults` is a `FaultPlan::parse` schedule or
/// `None` for the clean case.
///
/// # Panics
/// Panics if the engine violates the serving contract (a dropped or
/// duplicated response, or an exact response whose bits differ from
/// the one-shot run) — a contract break must fail the bench loudly,
/// not skew its numbers.
pub fn run_load(name: &str, faults: Option<&str>, seed: u64) -> ServeLoadReport {
    let wall_start = Instant::now();
    let g = uniform(64, 320, false, None, 3);
    let cfg = MfbcConfig::default().with_batch_size(8);
    let spec = MachineSpec::test(8);
    let plan = faults.map(|s| FaultPlan::parse(s).expect("pinned schedule parses"));

    // The bit-identity oracle: a one-shot run on an identical machine
    // (same fault schedule — the session replays the same collective
    // sequence, so crash recovery lands identically).
    let oracle_machine = match &plan {
        Some(p) => Machine::with_faults(spec.clone(), p.clone(), RetryPolicy::default()),
        None => Machine::new(spec.clone()),
    };
    let oracle = mfbc_dist(&oracle_machine, &g, &cfg).expect("oracle run completes");
    let oracle_bits: Vec<u64> = oracle.scores.lambda.iter().map(|x| x.to_bits()).collect();

    let machine = match &plan {
        Some(p) => Machine::with_faults(spec.clone(), p.clone(), RetryPolicy::default()),
        None => Machine::new(spec),
    };
    // A queue of 4 against flushes every ~4 submissions: long streaks
    // overflow, so the report exercises load-shedding too.
    let ecfg = EngineConfig {
        max_queue: 4,
        seed,
        // The flight recorder stays on under load: it must never
        // perturb the modeled numbers the baseline pins, and every
        // degraded response below is audited against its journey.
        flight_capacity: 256,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&machine, g, &cfg, ecfg).expect("engine builds");
    let est_batch = engine.est_batch_modeled_s();

    let mut mix = SplitMix64::new(seed ^ 0x5e12_7e10_ad00_0001);
    let mut admitted: u64 = 0;
    let mut shed: u64 = 0;
    let mut pending: Vec<u64> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut qualities: Vec<(u64, &'static str)> = Vec::new();
    let (mut exact, mut approx, mut stale, mut retries) = (0u64, 0u64, 0u64, 0u64);

    let mut answer = |engine: &mut Engine, pending: &mut Vec<u64>| {
        for r in engine.drain() {
            let slot = pending
                .iter()
                .position(|&id| id == r.id)
                .expect("response for an id that was admitted and unanswered");
            pending.swap_remove(slot);
            latencies.push(r.latency_modeled_s);
            qualities.push((r.id, r.quality.name()));
            retries += r.retries as u64;
            match r.quality {
                Quality::Exact => {
                    exact += 1;
                    if let Payload::Full(scores) = &r.payload {
                        let got: Vec<u64> = scores.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(
                            got, oracle_bits,
                            "exact response diverged from the one-shot run"
                        );
                    }
                }
                Quality::Approx { k, ci } => {
                    approx += 1;
                    assert!(k > 0 && ci >= 0.0, "approx response must carry its tags");
                }
                Quality::Stale { .. } => stale += 1,
            }
        }
    };

    for i in 0..REQUESTS as u64 {
        let query = match mix.below(4) {
            0 => Query::Full,
            1 => Query::Vertex { v: mix.below(64) },
            _ => Query::TopK {
                k: 1 + mix.below(8),
            },
        };
        // Deadline mix: a third unbounded (funds exact progress), a
        // third about a batch's worth, a third zero (stale probes).
        let deadline_s = match mix.below(3) {
            0 => None,
            1 => Some(est_batch * (0.2 + 0.1 * mix.below(8) as f64)),
            _ => Some(0.0),
        };
        match engine.submit(Request {
            id: i,
            query,
            deadline_s,
        }) {
            Admission::Admitted => {
                admitted += 1;
                pending.push(i);
            }
            Admission::Shed(_) => shed += 1,
        }
        // Flush boundary every few submissions: the coalescing unit.
        if mix.below(4) == 0 {
            answer(&mut engine, &mut pending);
        }
    }
    answer(&mut engine, &mut pending);
    assert!(
        pending.is_empty(),
        "every admitted request must be answered: {pending:?} never were"
    );
    assert_eq!(admitted + shed, REQUESTS as u64);
    assert_eq!(exact + approx + stale, admitted);

    // Every response — and in particular every *degraded* one — must
    // be explainable from its journey record alone: the rung it was
    // served from, the round that answered it, and (when the reason
    // is the budget) the arithmetic that forced the rung.
    let fr = engine.flight().expect("the load harness records flights");
    for &(id, quality) in &qualities {
        let j = fr
            .journeys()
            .find(|j| j.id == id)
            .unwrap_or_else(|| panic!("no journey record for answered id {id}"));
        assert!(j.complete, "id {id}: journey never completed");
        assert_eq!(j.rung, quality, "id {id}: journey rung vs response quality");
        assert!(j.round > 0, "id {id}: no round attribution");
        if j.rung != "exact" {
            assert!(!j.reason.is_empty(), "id {id}: degraded without a reason");
            if j.reason == "budget" {
                assert!(
                    j.spent_s + j.est_batch_s > j.budget_s,
                    "id {id}: budget arithmetic does not explain the degradation \
                     (spent {} + est batch {} within budget {})",
                    j.spent_s,
                    j.est_batch_s,
                    j.budget_s
                );
            }
        }
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p99 = latencies
        .get(((latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let modeled_s = engine.modeled_s();
    ServeLoadReport {
        name: name.to_string(),
        requests: REQUESTS as u64,
        admitted,
        shed,
        exact,
        approx,
        stale,
        retries,
        store_version: engine.store_version(),
        modeled_s,
        p99_latency_modeled_s: p99,
        rps_modeled: if modeled_s > 0.0 {
            admitted as f64 / modeled_s
        } else {
            0.0
        },
        wall_s: wall_start.elapsed().as_secs_f64(),
    }
}

/// Runs both pinned cases: fault-free, then the crash+transient
/// schedule.
pub fn run_suite(seed: u64) -> Vec<ServeLoadReport> {
    vec![
        run_load("fault-free", None, seed),
        run_load("faulted", Some(FAULTED_SCHEDULE), seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_profile::Baseline;

    #[test]
    fn baseline_round_trips_through_json() {
        let base = Baseline::new(vec![ServeLoadReport {
            name: "fault-free".into(),
            requests: 50,
            admitted: 48,
            shed: 2,
            exact: 30,
            approx: 10,
            stale: 8,
            retries: 3,
            store_version: 8,
            modeled_s: 123.456,
            p99_latency_modeled_s: 0.5,
            rps_modeled: 0.38,
            wall_s: 0.0,
        }]);
        let parsed = Baseline::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
        assert!(base.compare(&parsed.cases).is_empty());
        let v1 = base.to_json().replace("\"version\": 2", "\"version\": 1");
        assert!(Baseline::<ServeLoadReport>::from_json(&v1).is_err());
    }

    #[test]
    fn compare_flags_modeled_drift_and_ignores_wall() {
        let base = Baseline::new(vec![ServeLoadReport {
            name: "faulted".into(),
            requests: 50,
            admitted: 50,
            shed: 0,
            exact: 50,
            approx: 0,
            stale: 0,
            retries: 1,
            store_version: 8,
            modeled_s: 100.0,
            p99_latency_modeled_s: 1.0,
            rps_modeled: 0.5,
            wall_s: 1.0,
        }]);
        let mut drifted = base.cases.clone();
        drifted[0].modeled_s = 100.1;
        drifted[0].exact = 49;
        drifted[0].stale = 1;
        let findings = base.compare(&drifted);
        assert_eq!(findings.len(), 3, "{findings:?}");
        let mut slower = base.cases.clone();
        slower[0].wall_s = 2.0;
        assert!(base.compare(&slower).is_empty());
    }
}
