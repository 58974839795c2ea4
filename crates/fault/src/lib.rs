//! `mfbc-fault`: seeded, schedulable fault injection for the
//! simulated machine.
//!
//! The paper's target regime (Blue Waters, up to 16k cores) is one
//! where node failures and memory exhaustion are routine. This crate
//! defines the *vocabulary* of failures the simulated machine can
//! inject — it is a dependency-free leaf so `mfbc-machine` (which
//! consumes [`FaultPlan`]s), `mfbc-conformance` (which generates
//! them), and the CLI (which parses them) can all share the types.
//!
//! A [`FaultPlan`] is a set of [`ScheduledFault`]s keyed by the
//! machine's *collective sequence number*: every collective the
//! machine charges advances a counter, and a fault scheduled `at = k`
//! fires on the `k`-th collective (0-based). Three kinds exist, one
//! per recovery strategy the MFBC driver implements:
//!
//! * [`FaultKind::Crash`] — a rank fails permanently; every later
//!   collective whose group contains it returns `RankFailed`. The
//!   driver recovers by shrinking to the surviving ranks and
//!   replanning via the autotuner.
//! * [`FaultKind::Transient`] — a flaky interconnect: once triggered,
//!   every attempted collective fails until the finite `recurrence`
//!   budget is spent. The machine retries internally with bounded
//!   backoff ([`RetryPolicy`]); overflow surfaces as
//!   `CollectiveFailed` and the driver retries the batch.
//! * [`FaultKind::Oom`] — a forced per-rank memory exhaustion,
//!   surfacing as `OutOfMemory`. The driver halves the batch size
//!   and resumes from the checkpoint.
//!
//! The [`sabotage`] module hosts the *result-corruption* seam used by
//! the conformance harness's meta-tests (previously
//! `mfbc_tensor::mm::fault`); it is test-only tooling, not part of
//! the fault model proper.
//!
//! [`SplitMix64`] is the workspace's one seeded PRNG: the seeded
//! schedules and retry jitter here draw from it, and so do the serve
//! load stream and every randomized test.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod rng;

pub use rng::SplitMix64;

use std::fmt;

/// One kind of injectable failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent failure of `rank`: it never participates in a
    /// collective again. Survivable by shrinking the machine.
    Crash {
        /// The rank that dies.
        rank: usize,
    },
    /// Transient collective failure. Once triggered, every attempted
    /// collective fails until `recurrence` failures have been
    /// delivered; the budget is finite so runs always terminate.
    Transient {
        /// Total number of failed collective *attempts* to deliver.
        recurrence: u32,
    },
    /// Forced out-of-memory on `rank`, delivered once.
    Oom {
        /// The rank that (virtually) exhausts its memory budget.
        rank: usize,
    },
}

impl FaultKind {
    /// Short stable name used in trace events and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Transient { .. } => "transient",
            FaultKind::Oom { .. } => "oom",
        }
    }

    /// The rank the fault targets, if it targets one.
    pub fn rank(&self) -> Option<usize> {
        match self {
            FaultKind::Crash { rank } | FaultKind::Oom { rank } => Some(*rank),
            FaultKind::Transient { .. } => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash { rank } => write!(f, "crash:{rank}"),
            FaultKind::Transient { recurrence } => write!(f, "transient:{recurrence}"),
            FaultKind::Oom { rank } => write!(f, "oom:{rank}"),
        }
    }
}

/// A fault scheduled to fire at a given collective sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// 0-based collective sequence number ("superstep") at which the
    /// fault fires. The fault fires on the first collective whose
    /// sequence number is `>= at`.
    pub at: u64,
    /// What fails.
    pub kind: FaultKind,
}

impl fmt::Display for ScheduledFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.at)
    }
}

/// A full fault schedule for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single scheduled fault.
    pub fn single(at: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            faults: vec![ScheduledFault { at, kind }],
        }
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses a comma-separated fault spec, the `--faults` CLI
    /// grammar: each element is `crash:R@K`, `transient:N@K` or
    /// `oom:R@K`, where `K` is the collective sequence number, `R` a
    /// rank, and `N` a transient recurrence budget. Example:
    /// `crash:2@5,oom:0@40`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let part = part.trim();
            let (kind_arg, at) = part
                .split_once('@')
                .ok_or_else(|| format!("fault {part:?}: expected KIND:ARG@SEQ"))?;
            let at: u64 = at
                .parse()
                .map_err(|_| format!("fault {part:?}: bad sequence number {at:?}"))?;
            let (kind, arg) = kind_arg
                .split_once(':')
                .ok_or_else(|| format!("fault {part:?}: expected KIND:ARG@SEQ"))?;
            let kind = match kind {
                "crash" => FaultKind::Crash {
                    rank: parse_num(part, arg)? as usize,
                },
                "transient" => FaultKind::Transient {
                    recurrence: parse_num(part, arg)? as u32,
                },
                "oom" => FaultKind::Oom {
                    rank: parse_num(part, arg)? as usize,
                },
                other => {
                    return Err(format!(
                        "fault {part:?}: unknown kind {other:?} (expected crash, transient or oom)"
                    ))
                }
            };
            if let FaultKind::Transient { recurrence: 0 } = kind {
                return Err(format!("fault {part:?}: transient recurrence must be >= 1"));
            }
            faults.push(ScheduledFault { at, kind });
        }
        Ok(FaultPlan { faults })
    }

    /// Generates a small random fault schedule for a `p`-rank machine
    /// from a seed — the `--fault-seed` CLI path and the conformance
    /// generator both use this. Deterministic in `(seed, p)`.
    pub fn seeded(seed: u64, p: usize) -> FaultPlan {
        let mut s = SplitMix64::new(seed ^ 0xfa17_fa17_fa17_fa17);
        let count = 1 + (s.next_u64() % 2) as usize;
        let mut faults = Vec::new();
        for _ in 0..count {
            let at = s.next_u64() % 24;
            let kind = match s.next_u64() % 3 {
                0 if p >= 2 => FaultKind::Crash {
                    rank: (s.next_u64() as usize) % p,
                },
                1 => FaultKind::Transient {
                    recurrence: 1 + (s.next_u64() % 5) as u32,
                },
                _ => FaultKind::Oom {
                    rank: (s.next_u64() as usize) % p,
                },
            };
            faults.push(ScheduledFault { at, kind });
        }
        FaultPlan { faults }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, sf) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{sf}")?;
        }
        Ok(())
    }
}

fn parse_num(part: &str, arg: &str) -> Result<u64, String> {
    arg.parse()
        .map_err(|_| format!("fault {part:?}: bad argument {arg:?}"))
}

/// Bounded-retry policy for transient collective failures.
///
/// Two layers consume it. *Inside* the machine, each failed
/// collective attempt charges the flat `backoff_s` modeled seconds of
/// communication time to every rank in the group before retrying, up
/// to `max_attempts` attempts total (the flat charge is pinned by the
/// timeline goldens and stays as-is). *Above* the machine, long-lived
/// callers (the serve engine) wait [`RetryPolicy::backoff_for`]
/// seconds between whole-request attempts — bounded exponential
/// growth from `backoff_s`, capped at `cap_s`, with deterministic
/// downward jitter so coalesced retries decorrelate without ever
/// exceeding the cap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per collective (1 = no retry).
    pub max_attempts: u32,
    /// Modeled seconds charged per retry (the backoff interval), and
    /// the base of the exponential schedule.
    pub backoff_s: f64,
    /// Exponential growth factor of [`RetryPolicy::backoff_for`].
    pub multiplier: f64,
    /// Upper bound on any single backoff wait, jitter included.
    pub cap_s: f64,
    /// Jitter fraction in `[0, 1)`: attempt `a` waits uniformly in
    /// `(wait·(1 − jitter), wait]`. Downward-only, so the cap holds
    /// and the wait is strictly positive.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_s: 1e-3,
            multiplier: 2.0,
            cap_s: 1.0,
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), in modeled
    /// seconds: `backoff_s · multiplier^attempt`, capped at `cap_s`,
    /// then jittered downward by a deterministic function of
    /// `(attempt, seed)` — the same `(attempt, seed)` pair always
    /// produces the same wait, the wait never exceeds `cap_s`, and it
    /// is strictly positive whenever `backoff_s > 0`.
    pub fn backoff_for(&self, attempt: u32, seed: u64) -> f64 {
        let mut wait = self.backoff_s;
        // Multiply iteratively (rather than powf) so the schedule is
        // bit-reproducible across platforms and saturates cleanly.
        for _ in 0..attempt {
            wait *= self.multiplier;
            if wait >= self.cap_s {
                break;
            }
        }
        wait = wait.min(self.cap_s);
        let jitter = self.jitter.clamp(0.0, 0.999_999);
        if jitter <= 0.0 {
            return wait;
        }
        // One PRNG draw per (attempt, seed): mix the attempt into the
        // stream so consecutive attempts decorrelate under one seed.
        let mut rng = SplitMix64::new(seed ^ (((attempt as u64) << 32) | 0x6a17_7e12));
        // u ∈ [0, 1): 53 uniform mantissa bits.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Downward-only: wait · (1 − jitter·u) ∈ (wait·(1−jitter), wait].
        wait * (1.0 - jitter * u)
    }
}

/// Consecutive-failure circuit breaker for the serve engine's batch
/// loop: after `threshold` consecutive failures the breaker *opens*
/// (callers stop attempting work and serve stale state), stays open
/// for `cooldown` ticks, then admits a single probe (*half-open*). A
/// success while half-open closes it; a failure re-opens it for
/// another full cooldown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitBreaker {
    /// Consecutive failures that trip the breaker open.
    pub threshold: u32,
    /// Ticks (calls to [`CircuitBreaker::allows`]) an open breaker
    /// waits before admitting a half-open probe.
    pub cooldown: u32,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    trips: u64,
}

/// Observable state of a [`CircuitBreaker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: work is attempted.
    Closed,
    /// Tripped: work is refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe attempt is admitted.
    HalfOpen,
}

impl CircuitBreaker {
    /// A closed breaker that trips after `threshold` consecutive
    /// failures and cools down for `cooldown` ticks.
    pub fn new(threshold: u32, cooldown: u32) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            trips: 0,
        }
    }

    /// Whether an attempt may proceed right now. Each call on an open
    /// breaker ticks the cooldown; the call on which it reaches zero
    /// half-opens the breaker and admits the probe.
    pub fn allows(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.cooldown_left > 0 {
                    self.cooldown_left -= 1;
                }
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful attempt: closes the breaker and clears
    /// the failure streak.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a failed attempt: a half-open probe failure re-opens
    /// immediately; otherwise the streak grows and trips the breaker
    /// at `threshold`.
    pub fn record_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || (self.state == BreakerState::Closed && self.consecutive_failures >= self.threshold);
        if trip {
            self.state = BreakerState::Open;
            self.cooldown_left = self.cooldown;
            self.trips += 1;
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Counters describing what the fault machinery did during a run.
/// The machine fills the injection-side fields; the recovering driver
/// adds its own (replans, checkpoints restored, wasted time) on top —
/// see `RecoveryStats` in `mfbc-core`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Scheduled faults that actually fired.
    pub faults_injected: u64,
    /// Machine-internal retry attempts after transient failures.
    pub retries: u64,
    /// Modeled seconds spent in retry backoff.
    pub backoff_s: f64,
}

pub mod sabotage {
    //! Thread-local *result corruption* seam for harness meta-tests.
    //!
    //! This is not part of the fault model: it exists so the
    //! conformance suite can prove that the differential harness
    //! *catches, shrinks and replays* a seeded wrong-answer bug.
    //! Production code paths only consult [`armed_for`], which is a
    //! thread-local read that is `None` outside those meta-tests.

    use std::cell::RefCell;

    thread_local! {
        static ARMED: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// Arms result corruption for every SpGEMM whose plan label
    /// starts with `prefix`, until the returned guard drops.
    pub fn arm(prefix: &str) -> SabotageGuard {
        ARMED.with(|a| *a.borrow_mut() = Some(prefix.to_string()));
        SabotageGuard(())
    }

    /// Whether corruption is armed for the plan labelled `label`. The
    /// label is only formatted while something is armed.
    pub fn armed_for(label: impl std::fmt::Display) -> bool {
        ARMED.with(|a| {
            a.borrow()
                .as_ref()
                .is_some_and(|prefix| label.to_string().starts_with(prefix.as_str()))
        })
    }

    /// Disarms the seam when dropped.
    pub struct SabotageGuard(());

    impl Drop for SabotageGuard {
        fn drop(&mut self) {
            ARMED.with(|a| *a.borrow_mut() = None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let plan = FaultPlan::parse("crash:2@5,transient:3@7, oom:0@40").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                ScheduledFault {
                    at: 5,
                    kind: FaultKind::Crash { rank: 2 }
                },
                ScheduledFault {
                    at: 7,
                    kind: FaultKind::Transient { recurrence: 3 }
                },
                ScheduledFault {
                    at: 40,
                    kind: FaultKind::Oom { rank: 0 }
                },
            ]
        );
        let rendered = plan.to_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "crash:2",
            "crash@5",
            "meteor:1@2",
            "crash:x@5",
            "crash:1@y",
            "transient:0@3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn seeded_is_deterministic_and_valid() {
        for seed in 0..64u64 {
            for p in [1usize, 2, 8, 16] {
                let a = FaultPlan::seeded(seed, p);
                let b = FaultPlan::seeded(seed, p);
                assert_eq!(a, b);
                assert!(!a.is_empty());
                for sf in &a.faults {
                    if let Some(r) = sf.kind.rank() {
                        assert!(r < p);
                    }
                    if let FaultKind::Crash { .. } = sf.kind {
                        assert!(p >= 2, "no crash faults on a 1-rank machine");
                    }
                    if let FaultKind::Transient { recurrence } = sf.kind {
                        assert!(recurrence >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn sabotage_guard_scopes_arming() {
        assert!(!sabotage::armed_for("3d(C/AB,2x2x2)"));
        {
            let _g = sabotage::arm("3d(C/AB");
            assert!(sabotage::armed_for("3d(C/AB,2x2x2)"));
            assert!(!sabotage::armed_for("2d(AB,4x4)"));
        }
        assert!(!sabotage::armed_for("3d(C/AB,2x2x2)"));
    }

    #[test]
    fn retry_policy_default_is_bounded() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts >= 1);
        assert!(p.backoff_s > 0.0);
        assert!(p.multiplier >= 1.0);
        assert!(p.cap_s >= p.backoff_s);
        assert!((0.0..1.0).contains(&p.jitter));
    }

    #[test]
    fn backoff_schedule_is_deterministic_positive_and_capped() {
        let p = RetryPolicy::default();
        for seed in [0u64, 1, 0x5eed, u64::MAX] {
            for attempt in 0..64 {
                let a = p.backoff_for(attempt, seed);
                let b = p.backoff_for(attempt, seed);
                assert_eq!(a.to_bits(), b.to_bits(), "nondeterministic wait");
                assert!(a > 0.0, "attempt {attempt} seed {seed}: wait {a} <= 0");
                assert!(a <= p.cap_s, "attempt {attempt} seed {seed}: {a} > cap");
            }
        }
    }

    #[test]
    fn backoff_grows_geometrically_without_jitter() {
        let p = RetryPolicy {
            jitter: 0.0,
            cap_s: f64::INFINITY,
            ..RetryPolicy::default()
        };
        for attempt in 0..10u32 {
            let want = p.backoff_s * p.multiplier.powi(attempt as i32);
            let got = p.backoff_for(attempt, 42);
            assert!((got - want).abs() <= want * 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn backoff_jitter_decorrelates_attempts_and_seeds() {
        let p = RetryPolicy::default();
        // Same attempt, different seeds → different waits; same seed,
        // consecutive capped attempts → different waits (the attempt
        // index is mixed into the stream).
        assert_ne!(p.backoff_for(3, 1).to_bits(), p.backoff_for(3, 2).to_bits());
        let late_a = p.backoff_for(40, 7); // both capped pre-jitter
        let late_b = p.backoff_for(41, 7);
        assert_ne!(late_a.to_bits(), late_b.to_bits());
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let mut b = CircuitBreaker::new(3, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Cooldown: first tick refused, second admits the probe.
        assert!(!b.allows());
        assert!(b.allows());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows());
    }

    #[test]
    fn breaker_probe_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new(2, 1);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allows(), "cooldown 1 admits the probe on the first tick");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "probe failure reopens");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn breaker_success_clears_the_failure_streak() {
        let mut b = CircuitBreaker::new(2, 1);
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }
}
