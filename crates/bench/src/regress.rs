//! The pinned regression suite behind `mfbc-cli bench`.
//!
//! A fixed set of experiments — graph, machine, plan mode, batch
//! size, all seeded — each run under one [`TimelineBuilder`], whose
//! stream fold the profile and its metrics are read from.
//! The modeled outputs (α–β–γ seconds, critical-path counts, memory
//! high-water marks) are deterministic, so the suite's results can be
//! compared bit-exact against the committed `BENCH_mfbc.json`
//! baseline; wall-clock is measured too but only reported.

use std::sync::Arc;
use std::time::Instant;

use mfbc_core::dist::{mfbc_dist, MfbcConfig, PlanMode};
use mfbc_graph::gen::{rmat, uniform, RmatConfig};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec, RedistMode};
use mfbc_profile::{mirror, BaselineCase, MetricsRegistry, Profile};
use mfbc_timeline::{analyze, Analysis, Timeline, TimelineBuilder};

/// Knobs for a suite run. Defaults reproduce the pinned baseline;
/// anything else exists to *provoke* the gate in tests.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Multiplier on the machine's α (message latency). `1.0` for the
    /// real suite; inflate it to simulate a communication regression.
    pub alpha_scale: f64,
    /// Overrides the machine's overlapped-accounting flag. `None`
    /// keeps the preset's default (gemini overlaps); `Some(false)` is
    /// the serialized ablation behind `--no-overlap`.
    pub overlap: Option<bool>,
    /// Overrides the machine's redistribution mode. `None` keeps the
    /// preset's default (gemini picks per-block between broadcast and
    /// pairwise sends).
    pub redist: Option<RedistMode>,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions {
            alpha_scale: 1.0,
            overlap: None,
            redist: None,
        }
    }
}

/// One pinned experiment's full result: the baseline-comparable
/// numbers plus the profile artifacts for export.
pub struct SuiteCaseResult {
    /// Baseline-comparable measurements.
    pub case: BaselineCase,
    /// The sealed profile of the run.
    pub profile: Profile,
    /// The run's metrics: the [`mirror`] of its fold and profile (for
    /// Prometheus export).
    pub registry: Arc<MetricsRegistry>,
    /// The causal timeline of the run; its fold is what the profile
    /// projects.
    pub timeline: Timeline,
    /// Critical path, bottleneck table, and superstep attribution of
    /// [`SuiteCaseResult::timeline`].
    pub analysis: Analysis,
}

struct SuiteCase {
    name: &'static str,
    p: usize,
    batch: usize,
    max_batches: usize,
    graph: fn() -> Graph,
}

/// The pinned experiments. Scales are chosen so the whole suite runs
/// in seconds; coverage spans both generators, two machine sizes, and
/// (via the autotuner) more than one SpGEMM plan family.
const SUITE: &[SuiteCase] = &[
    SuiteCase {
        name: "uniform-n256-p4-b64",
        p: 4,
        batch: 64,
        max_batches: 2,
        graph: || uniform(256, 1024, false, None, 1),
    },
    SuiteCase {
        name: "uniform-n192-p8-b32",
        p: 8,
        batch: 32,
        max_batches: 2,
        graph: || uniform(192, 960, false, None, 7),
    },
    SuiteCase {
        name: "rmat-s8-p4-b32",
        p: 4,
        batch: 32,
        max_batches: 2,
        graph: || rmat(&RmatConfig::paper(8, 8, 42)),
    },
];

/// Names of the pinned cases, in suite order.
pub fn suite_case_names() -> Vec<&'static str> {
    SUITE.iter().map(|c| c.name).collect()
}

fn run_case(case: &SuiteCase, opts: &SuiteOptions) -> SuiteCaseResult {
    let mut spec = MachineSpec::gemini(case.p);
    spec.alpha *= opts.alpha_scale;
    if let Some(ovl) = opts.overlap {
        spec.overlap = ovl;
    }
    if let Some(mode) = opts.redist {
        spec.redist = mode;
    }
    let machine = Machine::new(spec);
    let g = (case.graph)();
    let cfg = MfbcConfig {
        batch_size: Some(case.batch),
        plan_mode: PlanMode::Auto,
        max_batches: Some(case.max_batches),
        amortize_adjacency: true,
        sources: None,
        threads: None,
        masked: true,
    };
    let builder = Arc::new(TimelineBuilder::new(machine.spec().clone()));
    let started = Instant::now();
    let run = mfbc_trace::scoped(builder.clone(), || mfbc_dist(&machine, &g, &cfg))
        .expect("pinned suite case must run fault-free");
    let wall_s = started.elapsed().as_secs_f64();
    let timeline = builder.finish();
    let profile = Profile::of(&timeline.summary, &machine);
    let registry = Arc::new(MetricsRegistry::new());
    mirror(&registry, &timeline.summary, &profile);
    let analysis = analyze(&timeline);
    SuiteCaseResult {
        case: BaselineCase {
            name: case.name.to_string(),
            modeled_comm_s: run.report.critical.comm_time,
            modeled_comp_s: run.report.critical.comp_time,
            msgs: run.report.critical.msgs,
            bytes: run.report.critical.bytes,
            total_ops: run.report.total_ops,
            max_peak_bytes: run.peak_bytes.iter().copied().max().unwrap_or(0),
            critical_comm_share: analysis.comm_share(),
            makespan_s: timeline.makespan_s(),
            wall_s,
        },
        profile,
        registry,
        timeline,
        analysis,
    }
}

/// Runs the whole pinned suite and returns per-case results in suite
/// order.
pub fn run_suite(opts: &SuiteOptions) -> Vec<SuiteCaseResult> {
    SUITE.iter().map(|c| run_case(c, opts)).collect()
}

/// Runs one pinned case by name (`None` in suite order picks the
/// first) — the entry point behind `mfbc-cli analyze`, which needs a
/// single case's timeline without paying for the whole suite.
pub fn run_named_case(name: Option<&str>, opts: &SuiteOptions) -> Option<SuiteCaseResult> {
    let case = match name {
        Some(n) => SUITE.iter().find(|c| c.name == n)?,
        None => SUITE.first()?,
    };
    Some(run_case(case, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_profile::{Baseline, Severity};

    fn cases(results: &[SuiteCaseResult]) -> Vec<BaselineCase> {
        results.iter().map(|r| r.case.clone()).collect()
    }

    #[test]
    fn suite_is_deterministic_in_modeled_metrics() {
        let a = cases(&run_suite(&SuiteOptions::default()));
        let b = cases(&run_suite(&SuiteOptions::default()));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                x.modeled_comm_s.to_bits(),
                y.modeled_comm_s.to_bits(),
                "{}: comm drifted between identical runs",
                x.name
            );
            assert_eq!(x.modeled_comp_s.to_bits(), y.modeled_comp_s.to_bits());
            assert_eq!(x.msgs, y.msgs);
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.total_ops, y.total_ops);
            assert_eq!(x.max_peak_bytes, y.max_peak_bytes);
        }
    }

    #[test]
    fn identical_suite_passes_its_own_baseline() {
        let measured = cases(&run_suite(&SuiteOptions::default()));
        let baseline = Baseline::new(measured.clone());
        // Wall-clock differs between the two runs; modeled metrics are
        // bit-equal and wall is not compared, so re-measuring must
        // pass.
        let rerun = cases(&run_suite(&SuiteOptions::default()));
        let findings = baseline.compare(&rerun);
        assert!(
            findings.is_empty(),
            "unexpected findings: {:?}",
            findings.iter().map(|f| f.describe()).collect::<Vec<_>>()
        );
    }

    /// The acceptance demonstration: a run on a machine with 10× the
    /// message latency must fail the gate against the healthy
    /// baseline, and the failure must be a modeled-comm regression.
    #[test]
    fn inflated_alpha_fails_the_gate() {
        let healthy = cases(&run_suite(&SuiteOptions::default()));
        let baseline = Baseline::new(healthy);
        let degraded = cases(&run_suite(&SuiteOptions {
            alpha_scale: 10.0,
            ..SuiteOptions::default()
        }));
        let findings = baseline.compare(&degraded);
        assert!(!findings.is_empty(), "degraded run slipped past the gate");
        assert!(
            findings
                .iter()
                .any(|f| f.metric == "modeled_comm_s" && f.severity == Severity::Regression),
            "expected a comm-time regression, got: {:?}",
            findings.iter().map(|f| f.describe()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn suite_timelines_sum_bit_exact_and_carry_comm_share() {
        let results = run_suite(&SuiteOptions::default());
        for r in &results {
            assert_eq!(
                r.analysis.path.sum_s().to_bits(),
                r.timeline.makespan_s().to_bits(),
                "{}: critical path does not fold to the makespan",
                r.case.name
            );
            assert_eq!(r.timeline.dropped, 0, "{}: dropped events", r.case.name);
            assert!(
                r.case.critical_comm_share > 0.0 && r.case.critical_comm_share <= 1.0,
                "{}: implausible comm share {}",
                r.case.name,
                r.case.critical_comm_share
            );
            assert_eq!(
                r.case.critical_comm_share.to_bits(),
                r.analysis.comm_share().to_bits()
            );
        }
    }

    /// The mask tentpole's headline claim, pinned on the suite's own
    /// R-MAT case. Masked MFBC (complement-of-`T` forward, `T`'s
    /// pattern for the child count, the pending set for every
    /// back-propagation) must strictly reduce modeled elementary
    /// products and never increase communication relative to the
    /// unmasked run; the suite's own rmat numbers must land strictly
    /// below the pre-mask (PR-6) baseline on *both* ops and
    /// critical-path bytes — the acceptance gate for the masking work
    /// — and, since the pending set, strictly below the fixed-`T`-mask
    /// ops with no more bytes than it moved. The comm drop
    /// comes from amortizing the 1D-A column-split B-panel (the one
    /// right-hand move the pre-mask code re-paid every product);
    /// masked and unmasked runs move identical bytes here because the
    /// runs are bit-identical by construction and every column this
    /// graph's masks fully exclude is structurally empty in the
    /// adjacency, so there is nothing extra for the mask to strand.
    #[test]
    fn masking_strictly_reduces_rmat_ops_and_comm() {
        /// `rmat-s8-p4-b32` as pinned by the PR-6 `BENCH_mfbc.json`,
        /// before masked multiplication existed.
        const PRE_MASK_RMAT_OPS: u64 = 846_283;
        const PRE_MASK_RMAT_BYTES: u64 = 378_284;
        /// The same case as pinned by PR 16, every backward product
        /// under `T`'s whole pattern.
        const TABLE_MASK_RMAT_OPS: u64 = 702_810;
        const TABLE_MASK_RMAT_BYTES: u64 = 288_392;
        let g = rmat(&RmatConfig::paper(8, 8, 42));
        let measure = |masked: bool| {
            let machine = Machine::new(MachineSpec::gemini(4));
            let cfg = MfbcConfig {
                batch_size: Some(32),
                plan_mode: PlanMode::Auto,
                max_batches: Some(2),
                amortize_adjacency: true,
                sources: None,
                threads: None,
                masked,
            };
            let run = mfbc_dist(&machine, &g, &cfg).expect("pinned case must run fault-free");
            (run.report.total_ops, run.report.critical.bytes, run.scores)
        };
        let (mops, mbytes, mscores) = measure(true);
        let (uops, ubytes, uscores) = measure(false);
        assert!(mops < uops, "masked ops {mops} !< unmasked {uops}");
        assert!(
            mbytes <= ubytes,
            "masked bytes {mbytes} > unmasked {ubytes}"
        );
        assert!(
            mops < PRE_MASK_RMAT_OPS,
            "rmat ops {mops} !< pre-mask baseline {PRE_MASK_RMAT_OPS}"
        );
        assert!(
            mbytes < PRE_MASK_RMAT_BYTES,
            "rmat bytes {mbytes} !< pre-mask baseline {PRE_MASK_RMAT_BYTES}"
        );
        assert!(
            mops < TABLE_MASK_RMAT_OPS,
            "rmat ops {mops} !< fixed-T-mask baseline {TABLE_MASK_RMAT_OPS}"
        );
        assert!(
            mbytes <= TABLE_MASK_RMAT_BYTES,
            "rmat bytes {mbytes} > fixed-T-mask baseline {TABLE_MASK_RMAT_BYTES}"
        );
        for (v, (a, b)) in mscores.lambda.iter().zip(&uscores.lambda).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "λ[{v}]: masking changed a betweenness score"
            );
        }
    }

    /// The overlap tentpole's headline claim, pinned on the suite's
    /// own R-MAT case. Overlapped accounting (the gemini default) must
    /// strictly shrink both the modeled makespan and the critical
    /// path's communication share relative to the serialized ablation
    /// (`overlap: Some(false)`, the `--no-overlap` path), the
    /// overlapped critical-path communication seconds must not exceed
    /// the committed pin — seconds, not a share: a share rises
    /// whenever compute falls, which masking does on purpose — and the
    /// betweenness scores must be bit-identical: overlap only moves
    /// clocks, never data.
    #[test]
    fn overlap_strictly_shrinks_rmat_makespan_and_comm_share() {
        /// `rmat-s8-p4-b32` `modeled_comm_s` as the committed
        /// `BENCH_mfbc.json` pins it (overlapped accounting).
        const OVERLAPPED_RMAT_COMM_S: f64 = 0.0005440653333333335;
        let rmat_name = Some("rmat-s8-p4-b32");
        let ovl = run_named_case(rmat_name, &SuiteOptions::default()).unwrap();
        let ser = run_named_case(
            rmat_name,
            &SuiteOptions {
                overlap: Some(false),
                ..SuiteOptions::default()
            },
        )
        .unwrap();
        assert!(
            ovl.case.makespan_s < ser.case.makespan_s,
            "overlapped makespan {} !< serialized {}",
            ovl.case.makespan_s,
            ser.case.makespan_s
        );
        assert!(
            ovl.case.critical_comm_share < ser.case.critical_comm_share,
            "overlapped comm share {} !< serialized {}",
            ovl.case.critical_comm_share,
            ser.case.critical_comm_share
        );
        assert!(
            ovl.case.modeled_comm_s <= OVERLAPPED_RMAT_COMM_S,
            "overlapped comm seconds {} > pin {OVERLAPPED_RMAT_COMM_S}",
            ovl.case.modeled_comm_s
        );
        // Scores are untouched by the accounting mode.
        let g = rmat(&RmatConfig::paper(8, 8, 42));
        let cfg = MfbcConfig {
            batch_size: Some(32),
            plan_mode: PlanMode::Auto,
            max_batches: Some(2),
            amortize_adjacency: true,
            sources: None,
            threads: None,
            masked: true,
        };
        let score = |spec: MachineSpec| {
            mfbc_dist(&Machine::new(spec), &g, &cfg)
                .expect("pinned case must run fault-free")
                .scores
        };
        let s_ovl = score(MachineSpec::gemini(4));
        let s_ser = score(MachineSpec::gemini(4).with_overlap(false));
        for (v, (a, b)) in s_ovl.lambda.iter().zip(&s_ser.lambda).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "λ[{v}]: overlap changed a betweenness score"
            );
        }
    }

    #[test]
    fn suite_profiles_carry_stream_data() {
        let results = run_suite(&SuiteOptions::default());
        for r in &results {
            assert!(r.profile.events > 0, "{}: empty profile", r.case.name);
            assert!(!r.profile.supersteps.is_empty());
            assert!(!r.profile.plan_mix.is_empty());
            assert_eq!(
                r.profile.max_peak_bytes(),
                r.case.max_peak_bytes,
                "{}: profile and baseline disagree on peak memory",
                r.case.name
            );
        }
    }
}
