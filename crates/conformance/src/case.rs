//! Self-contained test cases and their differential checks.
//!
//! A case owns *all* the data needed to run its check — explicit entry
//! lists, dimensions, rank count, α–β — so the shrinker can produce
//! smaller variants by deleting parts of it. Generation from a seed
//! and checking are separate steps: replaying a seed regenerates the
//! identical case, and a shrunk case remains checkable on its own.

use crate::gen;
use crate::rng::SplitMix64;
use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel, KernelOut, TropicalKernel};
use mfbc_algebra::{Centpath, Dist, Multpath, SpMulKernel};
use mfbc_core::oracle::{brandes_unweighted, brandes_weighted};
use mfbc_core::{mfbc_dist, mfbc_seq, BcScores, MfbcConfig, PlanMode};
use mfbc_fault::{FaultKind, FaultPlan, RetryPolicy, ScheduledFault};
use mfbc_graph::Graph;
use mfbc_machine::{Machine, MachineSpec, RedistMode};
use mfbc_sparse::{spgemm_masked_serial, spgemm_serial, Coo, Csr, Mask, MaskKind};
use mfbc_tensor::{
    canonical_layout, enumerate_plans, mm_auto, mm_auto_masked, mm_exec, mm_exec_masked, DistMat,
};

/// A case the suite runner can check and the shrinker can minimize.
pub trait CaseSpec: Clone + std::fmt::Debug {
    /// Runs the differential check; `Err` describes the divergence.
    fn check(&self) -> Result<(), String>;
    /// A size measure the shrinker must strictly decrease.
    fn size(&self) -> usize;
    /// Strictly-smaller candidate reductions, in preference order.
    fn shrink_candidates(&self) -> Vec<Self>;
}

/// Which generalized-multiplication kernel an [`MmCase`] exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmKernelKind {
    /// Min-plus over plain distances (both operands `Dist`).
    Tropical,
    /// Multpath frontier × adjacency (the MFBF product).
    BellmanFord,
    /// Centpath frontier × adjacency (the MFBr product).
    Brandes,
}

/// A kernel-agnostic left-operand payload; each kernel interprets the
/// fields it needs (`w` weight, `x` multiplicity/factor, `c` counter).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Payload {
    /// Finite weight.
    pub w: u64,
    /// Integral f64 payload (multiplicity or centrality factor).
    pub x: f64,
    /// Child counter (Brandes only).
    pub c: i64,
}

/// One cross-plan multiplication case: `C = A • B` computed under
/// every enumerable plan for `p` ranks plus the autotuned plan, each
/// compared entry-for-entry (and op-for-op) against `spgemm_serial`.
#[derive(Clone, Debug)]
pub struct MmCase {
    /// The seed this case was generated from (0 for hand-built cases).
    pub seed: u64,
    /// Kernel under test.
    pub kernel: MmKernelKind,
    /// Left operand rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Right operand columns.
    pub n: usize,
    /// Rank count.
    pub p: usize,
    /// Machine latency constant.
    pub alpha: f64,
    /// Machine inverse-bandwidth constant.
    pub beta: f64,
    /// Left operand triples (duplicates allowed; merged by the
    /// kernel's monoid on ingest, as production inputs are).
    pub a: Vec<(usize, usize, Payload)>,
    /// Right operand triples (weight entries).
    pub b: Vec<(usize, usize, u64)>,
    /// Optional output mask over the `m × n` result: kind plus pattern
    /// coordinates (duplicates allowed; `Mask::from_coords` dedups).
    /// When present, the masked product under every plan must match
    /// both `spgemm_masked_serial` and the multiply-then-filter oracle
    /// bit for bit, including the surviving-op count.
    pub mask: Option<(MaskKind, Vec<(usize, usize)>)>,
    /// Whether the machine runs under overlapped accounting with
    /// sparsity-driven hybrid redistribution. Overlap changes which
    /// communication code paths the plans take (issue/compute/wait
    /// pipelines, per-block bcast-vs-p2p decisions) but must never
    /// change a result: the serial comparison stays bit-exact.
    pub overlap: bool,
}

impl MmCase {
    /// Generates a case from `seed`, drawing the kernel from
    /// `kernels` and the rank count from `ps`. The mask dimension is
    /// drawn for two thirds of cases.
    pub fn generate(seed: u64, kernels: &[MmKernelKind], ps: &[usize]) -> MmCase {
        MmCase::generate_inner(seed, kernels, ps, false)
    }

    /// Like [`MmCase::generate`], but the output-mask dimension is
    /// always on — the dedicated masked suite's generator.
    pub fn generate_masked(seed: u64, kernels: &[MmKernelKind], ps: &[usize]) -> MmCase {
        MmCase::generate_inner(seed, kernels, ps, true)
    }

    fn generate_inner(
        seed: u64,
        kernels: &[MmKernelKind],
        ps: &[usize],
        force_mask: bool,
    ) -> MmCase {
        let mut rng = SplitMix64::new(seed);
        let kernel = *rng.pick(kernels);
        let p = *rng.pick(ps);
        let spec = gen::machine_spec(&mut rng, p);
        // Deliberately not divisible by typical grids; occasionally
        // degenerate (1) or smaller than p.
        let dim = |r: &mut SplitMix64| {
            if r.chance(1, 10) {
                1 + r.below(3)
            } else {
                r.range(5, 34)
            }
        };
        let (m, k, n) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let nnz_a = rng.below(2 * (m * k).min(3 * (m + k)) + 1);
        let nnz_b = rng.below(2 * (k * n).min(3 * (k + n)) + 1);
        let a = gen::coords(&mut rng, m, k, nnz_a)
            .into_iter()
            .map(|(i, j)| {
                let w = rng.next_u64() % 30;
                let x = 1.0 + rng.below(3) as f64;
                let c = rng.below(6) as i64 - 2;
                (i, j, Payload { w, x, c })
            })
            .collect();
        let b = gen::coords(&mut rng, k, n, nnz_b)
            .into_iter()
            .map(|(i, j)| (i, j, rng.next_u64() % 25))
            .collect();
        // The mask dimension is drawn last so earlier dimensions
        // replay identically for seeds recorded before it existed;
        // every value is drawn unconditionally so the stream does not
        // depend on `force_mask` either.
        let mask_draw = rng.below(3);
        let nnz_mask = rng.below(2 * (m * n).min(3 * (m + n)) + 1);
        let mask_coords = gen::coords(&mut rng, m, n, nnz_mask);
        let mask = match mask_draw {
            0 if !force_mask => None,
            1 => Some((MaskKind::Structural, mask_coords)),
            _ => Some((MaskKind::Complement, mask_coords)),
        };
        // The overlap dimension is drawn last (after the mask) so
        // seeds recorded before it existed replay identically.
        let overlap = rng.chance(1, 3);
        MmCase {
            seed,
            kernel,
            m,
            k,
            n,
            p,
            alpha: spec.alpha,
            beta: spec.beta,
            a,
            b,
            mask,
            overlap,
        }
    }

    fn spec(&self) -> MachineSpec {
        MachineSpec {
            p: self.p,
            alpha: self.alpha,
            beta: self.beta,
            gamma: 1.0,
            mem_bytes: None,
            overlap: self.overlap,
            // Overlapped cases also exercise the sparsity-driven
            // hybrid redistribution decisions.
            redist: if self.overlap {
                RedistMode::Auto
            } else {
                RedistMode::Alltoall
            },
        }
    }

    fn right_csr(&self) -> Csr<Dist> {
        let mut coo = Coo::new(self.k, self.n);
        for &(i, j, w) in &self.b {
            coo.push(i, j, Dist::new(w));
        }
        coo.into_csr::<mfbc_algebra::monoid::MinDist>()
    }

    fn check_kernel<K>(&self, a: Csr<K::Left>, b: Csr<K::Right>) -> Result<(), String>
    where
        K: SpMulKernel,
        KernelOut<K>: Clone + PartialEq + Send + Sync + std::fmt::Debug,
    {
        let expected = spgemm_serial::<K>(&a, &b);
        let spec = self.spec();
        for plan in enumerate_plans(self.p) {
            let machine = Machine::new(spec.clone());
            let da = DistMat::from_global(canonical_layout(&machine, self.m, self.k), &a);
            let db = DistMat::from_global(canonical_layout(&machine, self.k, self.n), &b);
            let out = mm_exec::<K>(&machine, &plan, &da, &db)
                .map_err(|e| format!("plan {plan}: machine error: {e}"))?;
            out.c
                .validate()
                .map_err(|e| format!("plan {plan}: invalid distributed result: {e}"))?;
            let got = out.c.to_global::<K::Acc>();
            if let Some(diff) = expected.mat.first_difference(&got) {
                return Err(format!("plan {plan}: result diverges from serial: {diff}"));
            }
            if out.ops != expected.ops {
                return Err(format!(
                    "plan {plan}: ops {} != serial ops {}",
                    out.ops, expected.ops
                ));
            }
        }
        // The autotuner's pick (whatever it is under this α–β) must
        // agree too — this is the plan production code actually runs.
        let machine = Machine::new(spec);
        let da = DistMat::from_global(canonical_layout(&machine, self.m, self.k), &a);
        let db = DistMat::from_global(canonical_layout(&machine, self.k, self.n), &b);
        let (out, plan) =
            mm_auto::<K>(&machine, &da, &db).map_err(|e| format!("mm_auto: machine error: {e}"))?;
        let got = out.c.to_global::<K::Acc>();
        if let Some(diff) = expected.mat.first_difference(&got) {
            return Err(format!(
                "mm_auto (chose {plan}): diverges from serial: {diff}"
            ));
        }
        if let Some((kind, coords)) = &self.mask {
            self.check_masked::<K>(&a, &b, &expected.mat, *kind, coords)?;
        }
        Ok(())
    }

    /// The masked leg of the differential: the masked serial product
    /// must equal the multiply-then-filter oracle on the unmasked
    /// result, and every plan (plus the masked autotuner) must
    /// reproduce it bit for bit — including the count of elementary
    /// products that survive the mask.
    fn check_masked<K>(
        &self,
        a: &Csr<K::Left>,
        b: &Csr<K::Right>,
        unmasked: &Csr<KernelOut<K>>,
        kind: MaskKind,
        coords: &[(usize, usize)],
    ) -> Result<(), String>
    where
        K: SpMulKernel,
        KernelOut<K>: Clone + PartialEq + Send + Sync + std::fmt::Debug,
    {
        let mask = Mask::from_coords(kind, self.m, self.n, coords);
        let expected = spgemm_masked_serial::<K>(a, b, &mask);
        let filtered = mask.filter_allowed(unmasked);
        if let Some(diff) = expected.mat.first_difference(&filtered) {
            return Err(format!(
                "{kind:?} mask: masked serial diverges from multiply-then-filter: {diff}"
            ));
        }
        let spec = self.spec();
        for plan in enumerate_plans(self.p) {
            let machine = Machine::new(spec.clone());
            let da = DistMat::from_global(canonical_layout(&machine, self.m, self.k), a);
            let db = DistMat::from_global(canonical_layout(&machine, self.k, self.n), b);
            let out = mm_exec_masked::<K>(&machine, &plan, &da, &db, Some(&mask))
                .map_err(|e| format!("{kind:?} mask, plan {plan}: machine error: {e}"))?;
            out.c
                .validate()
                .map_err(|e| format!("{kind:?} mask, plan {plan}: invalid result: {e}"))?;
            let got = out.c.to_global::<K::Acc>();
            if let Some(diff) = expected.mat.first_difference(&got) {
                return Err(format!(
                    "{kind:?} mask, plan {plan}: diverges from masked serial: {diff}"
                ));
            }
            if out.ops != expected.ops {
                return Err(format!(
                    "{kind:?} mask, plan {plan}: ops {} != masked serial ops {}",
                    out.ops, expected.ops
                ));
            }
        }
        let machine = Machine::new(spec);
        let da = DistMat::from_global(canonical_layout(&machine, self.m, self.k), a);
        let db = DistMat::from_global(canonical_layout(&machine, self.k, self.n), b);
        let (out, plan) = mm_auto_masked::<K>(&machine, &da, &db, Some(&mask))
            .map_err(|e| format!("{kind:?} mask, mm_auto_masked: machine error: {e}"))?;
        let got = out.c.to_global::<K::Acc>();
        if let Some(diff) = expected.mat.first_difference(&got) {
            return Err(format!(
                "{kind:?} mask, mm_auto_masked (chose {plan}): diverges from masked serial: {diff}"
            ));
        }
        Ok(())
    }
}

impl CaseSpec for MmCase {
    fn check(&self) -> Result<(), String> {
        let b = self.right_csr();
        match self.kernel {
            MmKernelKind::Tropical => {
                let mut coo = Coo::new(self.m, self.k);
                for &(i, j, pl) in &self.a {
                    coo.push(i, j, Dist::new(pl.w));
                }
                let a = coo.into_csr::<mfbc_algebra::monoid::MinDist>();
                self.check_kernel::<TropicalKernel>(a, b)
            }
            MmKernelKind::BellmanFord => {
                let mut coo = Coo::new(self.m, self.k);
                for &(i, j, pl) in &self.a {
                    coo.push(i, j, Multpath::new(Dist::new(pl.w), pl.x));
                }
                let a = coo.into_csr::<mfbc_algebra::MultpathMonoid>();
                self.check_kernel::<BellmanFordKernel>(a, b)
            }
            MmKernelKind::Brandes => {
                let mut coo = Coo::new(self.m, self.k);
                for &(i, j, pl) in &self.a {
                    coo.push(i, j, Centpath::new(Dist::new(pl.w), pl.x, pl.c));
                }
                let a = coo.into_csr::<mfbc_algebra::CentpathMonoid>();
                self.check_kernel::<BrandesKernel>(a, b)
            }
        }
    }

    fn size(&self) -> usize {
        self.a.len()
            + self.b.len()
            + self.m
            + self.k
            + self.n
            + self.p
            + self.mask.as_ref().map_or(0, |(_, cs)| 1 + cs.len())
            + usize::from(self.overlap)
    }

    fn shrink_candidates(&self) -> Vec<MmCase> {
        let mut out = Vec::new();
        // Toward blocking first: a failure that survives with
        // serialized accounting is an ordinary plan bug rather than an
        // overlap-pipeline bug.
        if self.overlap {
            out.push(MmCase {
                overlap: false,
                ..self.clone()
            });
        }
        // Toward an unmasked repro next: a failure that survives
        // without the mask is an ordinary plan bug.
        if self.mask.is_some() {
            out.push(MmCase {
                mask: None,
                ..self.clone()
            });
        }
        // Fewer ranks next: a single-rank repro is the easiest to read.
        for &q in gen::P_ALL.iter().filter(|&&q| q < self.p) {
            out.push(MmCase {
                p: q,
                ..self.clone()
            });
        }
        // Thin the mask pattern.
        if let Some((kind, cs)) = &self.mask {
            for keep in chunk_reductions(cs.len()) {
                let mut c = self.clone();
                c.mask = Some((*kind, keep.iter().map(|&i| cs[i]).collect()));
                out.push(c);
            }
        }
        for keep in chunk_reductions(self.a.len()) {
            let mut c = self.clone();
            c.a = keep.iter().map(|&i| self.a[i]).collect();
            out.push(c);
        }
        for keep in chunk_reductions(self.b.len()) {
            let mut c = self.clone();
            c.b = keep.iter().map(|&i| self.b[i]).collect();
            out.push(c);
        }
        // Halve each dimension, dropping out-of-range entries.
        if self.m > 1 {
            let m = self.m / 2;
            let mut c = self.clone();
            c.m = m;
            c.a.retain(|&(i, _, _)| i < m);
            if let Some((_, cs)) = &mut c.mask {
                cs.retain(|&(i, _)| i < m);
            }
            out.push(c);
        }
        if self.k > 1 {
            let k = self.k / 2;
            let mut c = self.clone();
            c.k = k;
            c.a.retain(|&(_, j, _)| j < k);
            c.b.retain(|&(i, _, _)| i < k);
            out.push(c);
        }
        if self.n > 1 {
            let n = self.n / 2;
            let mut c = self.clone();
            c.n = n;
            c.b.retain(|&(_, j, _)| j < n);
            if let Some((_, cs)) = &mut c.mask {
                cs.retain(|&(_, j)| j < n);
            }
            out.push(c);
        }
        out
    }
}

/// Remaps a fault schedule onto a `p`-rank machine: targeted ranks
/// wrap modulo `p`, and crash faults are dropped when fewer than two
/// ranks remain (a one-rank machine cannot survive a crash, so such a
/// schedule would fail for the wrong reason).
pub(crate) fn faults_for_p(faults: &[ScheduledFault], p: usize) -> Vec<ScheduledFault> {
    faults
        .iter()
        .filter_map(|sf| {
            let kind = match sf.kind {
                FaultKind::Crash { rank } => {
                    if p < 2 {
                        return None;
                    }
                    FaultKind::Crash { rank: rank % p }
                }
                FaultKind::Oom { rank } => FaultKind::Oom { rank: rank % p },
                transient => transient,
            };
            Some(ScheduledFault { at: sf.at, kind })
        })
        .collect()
}

/// `Err` naming the `leg` that computed `got` and the first vertex
/// whose λ differs in any bit from the `reference` run's `want`.
fn same_bits(leg: &str, got: &BcScores, reference: &str, want: &BcScores) -> Result<(), String> {
    let pairs = got.lambda.iter().zip(&want.lambda);
    match pairs
        .enumerate()
        .find(|(_, (a, b))| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some((v, (a, b))) => Err(format!(
            "{leg} driver: λ[{v}] = {a:?} differs from {reference} {b:?} (not bit-identical)"
        )),
    }
}

/// Index subsets to try when reducing an entry list of length `len`:
/// both halves and the two alternating combs, then (for short lists)
/// every single-element deletion.
pub(crate) fn chunk_reductions(len: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if len == 0 {
        return out;
    }
    if len > 1 {
        out.push((0..len / 2).collect());
        out.push((len / 2..len).collect());
        out.push((0..len).filter(|i| i % 2 == 0).collect());
        out.push((0..len).filter(|i| i % 2 == 1).collect());
    }
    if len <= 8 {
        for skip in 0..len {
            out.push((0..len).filter(|&i| i != skip).collect());
        }
    }
    out
}

/// How a [`DriverCase`] selects its multiplication plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverPlan {
    /// Autotune every product (CTF-MFBC).
    Auto,
    /// Force plan `enumerate_plans(p)[idx % len]` for every product.
    Fixed(usize),
    /// CA-MFBC with replication factor chosen by preference index
    /// over the valid divisors of `p`.
    Ca(usize),
}

/// An end-to-end case: run the distributed MFBC driver on a generated
/// graph and compare the betweenness scores against the sequential
/// Brandes oracle.
#[derive(Clone, Debug)]
pub struct DriverCase {
    /// The seed this case was generated from (0 for hand-built cases).
    pub seed: u64,
    /// Vertex count.
    pub n: usize,
    /// Whether edge weights vary (`false` pins all weights to 1 and
    /// compares against the unweighted-BFS oracle).
    pub weighted: bool,
    /// Undirected edge list (duplicates and self-loops allowed —
    /// `Graph::new`'s normalization is under test too).
    pub edges: Vec<(usize, usize, u64)>,
    /// Rank count.
    pub p: usize,
    /// Plan selection mode.
    pub plan: DriverPlan,
    /// Sources per batch (clamped to `1..=n`).
    pub batch: usize,
    /// Whether adjacency preparation is amortized across products.
    pub amortize: bool,
    /// Shared-memory pool size the driver runs under (drawn from
    /// [`gen::THREAD_COUNTS`]; the scores must not depend on it).
    pub threads: usize,
    /// Fault schedule injected into a second, faulted run of the same
    /// case. When non-empty, the faulted run's recovered scores must
    /// be *bit-identical* to the fault-free run's, unless recovery
    /// replanned after a crash; that run matches to the oracle
    /// tolerance. Empty in the plain differential suites;
    /// [`DriverCase::generate_faulted`] fills it.
    pub faults: Vec<ScheduledFault>,
    /// Whether the check re-runs the case under an installed
    /// [`mfbc_profile::Profiler`] and demands the scores stay
    /// bit-identical: observation must never perturb the computation.
    pub profile: bool,
    /// Whether the check re-runs the case under an installed
    /// [`mfbc_timeline::TimelineBuilder`] and demands both that the
    /// scores stay bit-identical and that the extracted critical path
    /// folds bit-exactly to the timeline's makespan.
    pub analyze: bool,
    /// Whether the driver runs with complement-of-`T` output masking
    /// in the forward expansion ([`MfbcConfig::masked`]). When set,
    /// the check additionally re-runs the case with masking off and
    /// demands *bit-identical* betweenness scores: skipping products
    /// into already-discovered vertices must never change a result.
    pub masked: bool,
    /// Whether the driver runs under overlapped accounting with
    /// hybrid redistribution. When set, the check additionally re-runs
    /// the case with overlap off and demands *bit-identical* λ:
    /// comm/compute overlap changes modeled clocks and communication
    /// code paths, never results.
    pub overlap: bool,
}

impl DriverCase {
    /// Generates a case from `seed`, with ranks drawn from `ps` and
    /// the weighted flag forced by `weighted`.
    pub fn generate(seed: u64, ps: &[usize], weighted: bool) -> DriverCase {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range(2, 22);
        let p = *rng.pick(ps);
        let wmax = if weighted { 6 } else { 1 };
        let targets = rng.below(3 * n) + 1;
        let edges = if rng.chance(1, 3) {
            gen::rmat(&mut rng, n, targets, wmax)
        } else {
            gen::erdos_renyi(&mut rng, n, targets, wmax)
        };
        let plan = match rng.below(4) {
            0 => DriverPlan::Auto,
            1 => DriverPlan::Ca(rng.below(4)),
            _ => DriverPlan::Fixed(rng.below(128)),
        };
        DriverCase {
            seed,
            n,
            weighted,
            edges,
            p,
            plan,
            batch: 1 + rng.below(n),
            amortize: rng.chance(1, 2),
            threads: gen::THREAD_COUNTS[rng.below(gen::THREAD_COUNTS.len())],
            faults: Vec::new(),
            profile: rng.chance(1, 3),
            analyze: rng.chance(1, 3),
            // Drawn last so earlier dimensions replay identically for
            // seeds generated before this dimension existed; overlap
            // is drawn after masked, for the same reason.
            masked: rng.chance(1, 2),
            overlap: rng.chance(1, 3),
        }
    }

    /// Like [`DriverCase::generate`], plus a random survivable fault
    /// schedule: one or two faults drawn from {crash, transient, oom}
    /// at early collective sequence numbers (so most of them actually
    /// fire), with at most one crash and never a crash on a one-rank
    /// machine. The check then demands the faulted run recover with
    /// the fault-free run's scores (see [`DriverCase::faults`] for when
    /// that is bit for bit).
    pub fn generate_faulted(seed: u64, ps: &[usize], weighted: bool) -> DriverCase {
        let mut case = DriverCase::generate(seed, ps, weighted);
        let mut rng = SplitMix64::new(seed ^ 0xfa17_cafe);
        let count = 1 + rng.below(2);
        let mut crashed = false;
        for _ in 0..count {
            let at = rng.below(24) as u64;
            let kind = match rng.below(3) {
                0 if case.p >= 2 && !crashed => {
                    crashed = true;
                    FaultKind::Crash {
                        rank: rng.below(case.p),
                    }
                }
                1 => FaultKind::Transient {
                    recurrence: 1 + rng.below(4) as u32,
                },
                _ => FaultKind::Oom {
                    rank: rng.below(case.p),
                },
            };
            case.faults.push(ScheduledFault { at, kind });
        }
        case
    }

    /// Replication factors `c` for which `ca_plan(p, c)` is
    /// well-formed: `c | p` with `p/c` a perfect square. Non-empty for
    /// every `p` (`c = p` always qualifies).
    pub fn valid_ca_factors(p: usize) -> Vec<usize> {
        (1..=p)
            .filter(|c| {
                if !p.is_multiple_of(*c) {
                    return false;
                }
                let r = p / c;
                let q = (r as f64).sqrt().round() as usize;
                q * q == r
            })
            .collect()
    }

    fn config(&self) -> MfbcConfig {
        let plan_mode = match self.plan {
            DriverPlan::Auto => PlanMode::Auto,
            DriverPlan::Fixed(idx) => {
                let plans = enumerate_plans(self.p);
                PlanMode::Fixed(plans[idx % plans.len()].clone())
            }
            DriverPlan::Ca(pref) => {
                let cs = Self::valid_ca_factors(self.p);
                PlanMode::Ca {
                    c: cs[pref % cs.len()],
                }
            }
        };
        MfbcConfig {
            batch_size: Some(self.batch.clamp(1, self.n)),
            plan_mode,
            max_batches: None,
            amortize_adjacency: self.amortize,
            sources: None,
            threads: Some(self.threads),
            masked: self.masked,
        }
    }

    fn graph(&self) -> Graph {
        Graph::new(
            self.n,
            false,
            self.edges.iter().map(|&(u, v, w)| (u, v, Dist::new(w))),
        )
    }

    /// The machine spec the case runs under: `test(p)` (serialized,
    /// all-to-all) by default; overlapped accounting with hybrid
    /// redistribution when the overlap dimension is on.
    fn spec(&self) -> MachineSpec {
        let s = MachineSpec::test(self.p);
        if self.overlap {
            s.with_overlap(true).with_redist(RedistMode::Auto)
        } else {
            s
        }
    }
}

impl CaseSpec for DriverCase {
    fn check(&self) -> Result<(), String> {
        let g = self.graph();
        let oracle = if self.weighted {
            brandes_weighted(&g)
        } else {
            brandes_unweighted(&g)
        };
        let machine = Machine::new(self.spec());
        let cfg = self.config();
        let run = mfbc_dist(&machine, &g, &cfg)
            .map_err(|e| format!("driver ({:?}): machine error: {e}", cfg.plan_mode))?;
        // Everything a run charges, it releases: copies from their
        // receipts, the distributed state when the run closes.
        let resident = machine.memory_snapshot().resident().to_vec();
        if resident.iter().any(|&r| r > 0) {
            return Err(format!(
                "driver ({:?}) left ranks charged after the run: {resident:?}",
                cfg.plan_mode
            ));
        }
        if run.scores.n() != oracle.n() {
            return Err(format!(
                "driver returned {} scores for an n={} graph",
                run.scores.n(),
                oracle.n()
            ));
        }
        if !run.scores.approx_eq(&oracle, 1e-9) {
            return Err(format!(
                "driver ({:?}) diverges from Brandes: max |Δλ| = {:.3e}",
                cfg.plan_mode,
                run.scores.max_abs_diff(&oracle)
            ));
        }
        // One algorithm at every p: the sequential run of the same
        // batches (one rank, fixed `1d(B)`) sees the same blocks in
        // the same order at p = 1, so it must agree bit for bit there;
        // elsewhere the plans group floating-point accumulations
        // differently.
        let (local, _) =
            mfbc_parallel::with_threads(self.threads, || mfbc_seq(&g, self.batch.clamp(1, self.n)));
        let agree = if self.p == 1 {
            local.lambda.iter().map(|v| v.to_bits()).eq(run
                .scores
                .lambda
                .iter()
                .map(|v| v.to_bits()))
        } else {
            local.approx_eq(&run.scores, 1e-9)
        };
        if !agree {
            return Err(format!(
                "driver ({:?}) diverges from mfbc_seq at p={}: max |Δλ| = {:.3e}",
                cfg.plan_mode,
                self.p,
                run.scores.max_abs_diff(&local)
            ));
        }
        if self.masked {
            // Masking is an optimization, never a semantic switch: the
            // same case with masking off must produce bit-identical
            // scores (on weighted graphs the flag is inert, so this
            // also pins that inertness).
            let mut ucfg = cfg.clone();
            ucfg.masked = false;
            let umachine = Machine::new(self.spec());
            let urun = mfbc_dist(&umachine, &g, &ucfg).map_err(|e| {
                format!("unmasked driver ({:?}): machine error: {e}", cfg.plan_mode)
            })?;
            same_bits("masked", &run.scores, "unmasked", &urun.scores)?;
        }
        if self.overlap {
            // Overlap is a modeled-clock optimization, never a
            // semantic switch: the same case re-run under serialized
            // accounting (blocking collectives, all-to-all
            // redistribution) must produce bit-identical scores.
            let smachine = Machine::new(MachineSpec::test(self.p));
            let srun = mfbc_dist(&smachine, &g, &cfg).map_err(|e| {
                format!(
                    "serialized driver ({:?}): machine error: {e}",
                    cfg.plan_mode
                )
            })?;
            same_bits("overlapped", &run.scores, "serialized", &srun.scores)?;
        }
        if self.profile {
            // Observation must not perturb the computation: the same
            // case re-run with a Profiler attached to the trace stream
            // must produce bit-identical betweenness scores.
            let profiler = std::sync::Arc::new(mfbc_profile::Profiler::new());
            let pmachine = Machine::new(self.spec());
            let prun = mfbc_trace::scoped(profiler.clone(), || mfbc_dist(&pmachine, &g, &cfg))
                .map_err(|e| {
                    format!("profiled driver ({:?}): machine error: {e}", cfg.plan_mode)
                })?;
            same_bits("profiled", &prun.scores, "unprofiled", &run.scores)?;
            if profiler.finish(&pmachine).events == 0 {
                return Err("profiled run recorded no trace events".into());
            }
        }
        if self.analyze {
            // Same invariant for the timeline builder: replaying the
            // trace into a causal timeline must not perturb the
            // computation, and the analysis on top must be coherent —
            // the critical path folds bit-exactly to the makespan. A
            // profiler rides beside the builder: the profile projected
            // from the timeline's fold must be the profiler's own.
            let builder = std::sync::Arc::new(mfbc_timeline::TimelineBuilder::new(self.spec()));
            let profiler = std::sync::Arc::new(mfbc_profile::Profiler::new());
            let amachine = Machine::new(self.spec());
            let arun = mfbc_trace::scoped(profiler.clone(), || {
                mfbc_trace::scoped(builder.clone(), || mfbc_dist(&amachine, &g, &cfg))
            })
            .map_err(|e| format!("analyzed driver ({:?}): machine error: {e}", cfg.plan_mode))?;
            same_bits("analyzed", &arun.scores, "unanalyzed", &run.scores)?;
            let tl = builder.finish();
            if tl.dropped != 0 {
                return Err(format!("timeline dropped {} trace events", tl.dropped));
            }
            let problems = tl.validate_against(&amachine);
            if !problems.is_empty() {
                return Err(format!(
                    "timeline disagrees with machine meters: {}",
                    problems.join("; ")
                ));
            }
            let projected = mfbc_profile::Profile::of(&tl.summary, &amachine);
            let recorded = profiler.finish(&amachine);
            let json = mfbc_profile::export::profile_to_json;
            if json(&projected) != json(&recorded) {
                return Err("the timeline fold's profile differs from the profiler's".into());
            }
            let path = mfbc_timeline::critical_path(&tl);
            if path.sum_s().to_bits() != tl.makespan_s().to_bits() {
                return Err(format!(
                    "critical path folds to {:?} but makespan is {:?} (not bit-exact)",
                    path.sum_s(),
                    tl.makespan_s()
                ));
            }
        }
        if !self.faults.is_empty() {
            let plan = FaultPlan {
                faults: self.faults.clone(),
            };
            let faulted = Machine::with_faults(self.spec(), plan.clone(), RetryPolicy::default());
            let frun = mfbc_dist(&faulted, &g, &cfg)
                .map_err(|e| format!("faulted driver (faults {plan}): unrecovered: {e}"))?;
            // A crash shrinks the machine, and the remaining batches
            // run under plans whose floating-point accumulation
            // *grouping* differs — ulp-level divergence there is
            // inherent (two fault-free runs at p and p−1 already
            // differ), so a run that replanned is held to the same
            // tolerance as the Brandes oracle. An OOM retreat that
            // halved the batch moves sources onto other rows of the
            // output grid, which changes no plan's accumulation order:
            // every plan sums an output entry's terms in an order set
            // by its k cuts alone (Cannon's too: it folds its panels in
            // ascending order). Everything else — transient recovery,
            // an OOM retried in place, a halving under any plan — must
            // reproduce the fault-free scores *bit for bit*.
            if frun.recovery.replans > 0 {
                if !frun.scores.approx_eq(&run.scores, 1e-9) {
                    return Err(format!(
                        "faulted driver (faults {plan}, {} injected, {} replans): \
                         diverges from fault-free run: max |Δλ| = {:.3e}",
                        frun.recovery.faults_injected,
                        frun.recovery.replans,
                        frun.scores.max_abs_diff(&run.scores)
                    ));
                }
            } else {
                let injected = frun.recovery.faults_injected;
                let leg = format!("faulted (faults {plan}, {injected} injected)");
                same_bits(&leg, &frun.scores, "fault-free", &run.scores)?;
            }
        }
        Ok(())
    }

    fn size(&self) -> usize {
        self.edges.len()
            + self.n
            + self.p
            + self.threads
            + self.faults.len()
            + usize::from(self.profile)
            + usize::from(self.analyze)
            + usize::from(self.masked)
            + usize::from(self.overlap)
    }

    fn shrink_candidates(&self) -> Vec<DriverCase> {
        let mut out = Vec::new();
        // Toward blocking first: a failure that survives with
        // serialized accounting is an ordinary driver bug rather than
        // an overlap-pipeline bug.
        if self.overlap {
            out.push(DriverCase {
                overlap: false,
                ..self.clone()
            });
        }
        // Toward an unmasked repro next: a failure that survives with
        // masked=false is an ordinary driver bug.
        if self.masked {
            out.push(DriverCase {
                masked: false,
                ..self.clone()
            });
        }
        // Toward an unobserved repro next: a failure that survives
        // with analyze=false / profile=false is an ordinary driver bug.
        if self.analyze {
            out.push(DriverCase {
                analyze: false,
                ..self.clone()
            });
        }
        if self.profile {
            out.push(DriverCase {
                profile: false,
                ..self.clone()
            });
        }
        // Toward fault-free next: a failure that survives without any
        // schedule is an ordinary driver bug, the easiest kind to read.
        if !self.faults.is_empty() {
            out.push(DriverCase {
                faults: Vec::new(),
                ..self.clone()
            });
            for skip in 0..self.faults.len() {
                let mut c = self.clone();
                c.faults.remove(skip);
                out.push(c);
            }
        }
        for &q in gen::P_ALL.iter().filter(|&&q| q < self.p) {
            out.push(DriverCase {
                p: q,
                faults: faults_for_p(&self.faults, q),
                ..self.clone()
            });
        }
        // Fewer pool workers next: a serial repro is easiest to debug.
        for &t in gen::THREAD_COUNTS.iter().filter(|&&t| t < self.threads) {
            out.push(DriverCase {
                threads: t,
                ..self.clone()
            });
        }
        for keep in chunk_reductions(self.edges.len()) {
            let mut c = self.clone();
            c.edges = keep.iter().map(|&i| self.edges[i]).collect();
            out.push(c);
        }
        if self.n > 2 {
            let n = (self.n / 2).max(2);
            let mut c = self.clone();
            c.n = n;
            c.edges.retain(|&(u, v, _)| u < n && v < n);
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bits_names_the_leg_and_the_first_differing_vertex() {
        let want = BcScores {
            lambda: vec![1.0, 0.5, 2.0, 3.0],
        };
        let mut got = want.clone();
        assert_eq!(same_bits("masked", &got, "unmasked", &want), Ok(()));
        got.lambda[2] = f64::from_bits(2.0f64.to_bits() + 1);
        got.lambda[3] = -0.0;
        let err = same_bits("masked", &got, "unmasked", &want).unwrap_err();
        assert!(err.starts_with("masked driver: λ[2] = "), "{err}");
        assert!(err.contains("differs from unmasked 2.0"), "{err}");
        // Sign of zero is a bit too.
        let zero = BcScores { lambda: vec![0.0] };
        let negative = BcScores { lambda: vec![-0.0] };
        assert!(same_bits("profiled", &negative, "unprofiled", &zero).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MmCase::generate(42, &[MmKernelKind::Tropical], &[4]);
        let b = MmCase::generate(42, &[MmKernelKind::Tropical], &[4]);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let d1 = DriverCase::generate(7, &gen::P_ALL, true);
        let d2 = DriverCase::generate(7, &gen::P_ALL, true);
        assert_eq!(format!("{d1:?}"), format!("{d2:?}"));
    }

    #[test]
    fn shrink_candidates_strictly_smaller_exist() {
        let c = MmCase::generate(3, &[MmKernelKind::BellmanFord], &[8]);
        assert!(c
            .shrink_candidates()
            .iter()
            .any(|cand| cand.size() < c.size()));
    }

    #[test]
    fn ca_factors_are_always_available() {
        for p in gen::P_ALL {
            let cs = DriverCase::valid_ca_factors(p);
            assert!(cs.contains(&p), "c = p must qualify for p={p}");
            for c in cs {
                let r = p / c;
                let q = (r as f64).sqrt() as usize;
                assert_eq!(q * q, r);
            }
        }
    }

    #[test]
    fn small_tropical_case_passes() {
        let c = MmCase::generate(11, &[MmKernelKind::Tropical], &[2]);
        c.check().unwrap();
    }
}
