//! Differential pin: on `Simulated`, products consumed where they land
//! must agree with products materialised, assembled to the canonical
//! layout and merged into the table whole, bit for bit.
//!
//! `Simulated` runs every product through `mm_land` into its table's
//! landing (`mfbc_tensor::land`): `1d(A)` and `1d(B)` hand their
//! output, band by band, to the table blocks it covers, billing each
//! rank for the cells its slab covers; every other plan hands over its
//! product whole, which the landing merges block by block. Each case
//! runs one chain — MFBF's forward steps into `T`, or MFBr's opening
//! count and settling steps into `Z` — through `Simulated`'s sweep
//! operations under one forced plan, and the same chain through the
//! materialising path on a second machine: `mm_exec(_cached)_masked`,
//! then the product handed to the landing whole (`Land::formed`). After every step
//! it compares the table's blocks, the frontier the step emits, each
//! block's pending or complement mask, the `ops`, every field of the
//! machine's cost report, every rank's costs and clock bit for bit,
//! and every rank's resident and peak bytes.
//!
//! Cases draw p from {1, 2, 4, 8, 16}, any enumerated plan, masking,
//! overlapped accounting, amortized or one-shot adjacency preparation
//! and pools of 1, 2 and 4 threads; `every_plan_family_lands_like_it_
//! materialises` runs one plan of every family at every p, masked and
//! not, both legs; `cut_bands_land_like_they_materialise` runs the two
//! landing plans at p ∈ {3, 6, 12} on shapes whose slabs cut the
//! canonical block rows. `MFBC_CONFORMANCE_CASES` scales the seeded
//! suite, `MFBC_CONFORMANCE_SEED` replays one printed case.

use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel};
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid};
use mfbc_conformance::case::CaseSpec;
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::run_suite_or_panic;
use mfbc_core::backend::Simulated;
use mfbc_core::seq::mfbf_keep_in_frontier;
use mfbc_graph::Graph;
use mfbc_machine::cost::RankCost;
use mfbc_machine::{Machine, MachineError, MachineSpec};
use mfbc_sparse::{Coo, Csr, Mask};
use mfbc_tensor::land::{self, Land};
use mfbc_tensor::{
    canonical_layout, enumerate_plans, ops, DistMat, DistTable, MaskKind, MmCache, MmPlan,
};

const PS: [usize; 5] = [1, 2, 4, 8, 16];
const THREADS: [usize; 3] = [1, 2, 4];

/// MFBr's hook (`mfbc_core::sweep`'s `fire_and_pin`).
fn fire(z: &mut Centpath, t: &Multpath) -> Option<Centpath> {
    if z.c != 0 {
        return None;
    }
    z.c = -1;
    Some(Centpath::new(z.w, z.p + 1.0 / t.m, -1))
}

/// MFBF's keep rule.
fn keep(g: &Multpath, _: Option<&Multpath>, t: &Multpath) -> Option<Multpath> {
    mfbf_keep_in_frontier(g, Some(t))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leg {
    Forward,
    Backward,
}

/// One chain under one plan.
#[derive(Clone, Debug)]
struct LandCase {
    // Read only through the derived Debug impl, which is what puts the
    // seed into the shrunk-case printout.
    #[allow(dead_code)]
    seed: u64,
    p: usize,
    /// `enumerate_plans(p)[plan % len]`.
    plan: usize,
    threads: usize,
    leg: Leg,
    masked: bool,
    overlap: bool,
    amortize: bool,
    rows: usize,
    n: usize,
    /// `(u, v, weight)` directed edges.
    edges: Vec<(usize, usize, u64)>,
    /// `(s, v, weight, multiplicity)`: forward, the table `T` opens
    /// holding; backward, `T` itself.
    t: Vec<(usize, usize, u64, f64)>,
    /// Per step, `(s, k, weight, multiplicity or factor)` frontier
    /// entries.
    steps: Vec<Vec<(usize, usize, u64, f64)>>,
}

impl LandCase {
    fn generate(seed: u64) -> LandCase {
        let mut rng = SplitMix64::new(seed);
        let p = *rng.pick(&PS);
        let leg = if rng.chance(1, 2) {
            Leg::Forward
        } else {
            Leg::Backward
        };
        LandCase::draw(&mut rng, seed, p, rng_plan(seed), leg)
    }

    /// A case at `p` under plan index `plan`, the rest drawn.
    fn draw(rng: &mut SplitMix64, seed: u64, p: usize, plan: usize, leg: Leg) -> LandCase {
        let threads = *rng.pick(&THREADS);
        let (rows, n) = (rng.range(1, 40), rng.range(2, 40));
        LandCase::shaped(rng, seed, (p, plan, leg), threads, (rows, n))
    }

    /// A case of `rows` sources on `n` vertices at `p` under plan
    /// index `plan` on `threads` threads, the rest drawn.
    fn shaped(
        rng: &mut SplitMix64,
        seed: u64,
        (p, plan, leg): (usize, usize, Leg),
        threads: usize,
        (rows, n): (usize, usize),
    ) -> LandCase {
        let wmax = if rng.chance(1, 2) { 1 } else { 3 };
        let count = rng.range(n, 5 * n);
        let edges = if rng.chance(1, 2) {
            gen::rmat(rng, n, count, wmax)
        } else {
            gen::erdos_renyi(rng, n, count, wmax)
        };
        let fill = rng.range(1, 9);
        let mut t = Vec::new();
        let live: Vec<usize> = (0..rows).filter(|_| !rng.chance(1, 5)).collect();
        for s in live {
            for v in 0..n {
                if rng.below(10) < fill {
                    let m = 1.0 + (rng.next_u64() % 1000) as f64 / 7.0;
                    t.push((s, v, 2 + rng.next_u64() % 6, m));
                }
            }
        }
        let steps = (0..rng.range(1, 5))
            .map(|_| {
                let nnz = if rng.chance(1, 6) {
                    0
                } else {
                    rng.range(1, 3 * rows)
                };
                let coords = gen::coords(rng, rows, n, nnz);
                let entry = |(s, k)| {
                    (
                        s,
                        k,
                        1 + rng.next_u64() % 6,
                        (rng.next_u64() % 997) as f64 / 7.0,
                    )
                };
                coords.into_iter().map(entry).collect()
            })
            .collect();
        LandCase {
            seed,
            p,
            plan,
            threads,
            leg,
            masked: rng.chance(1, 2),
            overlap: rng.chance(1, 3),
            amortize: rng.chance(2, 3),
            rows,
            n,
            edges,
            t,
            steps,
        }
    }

    fn plan(&self) -> MmPlan {
        let plans = enumerate_plans(self.p);
        plans[self.plan % plans.len()].clone()
    }

    fn spec(&self) -> MachineSpec {
        MachineSpec::test(self.p).with_overlap(self.overlap)
    }

    fn graph(&self) -> Graph {
        let edges = self.edges.iter().map(|&(u, v, w)| (u, v, Dist::new(w)));
        Graph::new(self.n, true, edges)
    }

    /// `entries` as a `rows × n` matrix of `value(weight, x)`.
    fn matrix<T: Clone + PartialEq + Send + Sync + std::fmt::Debug>(
        &self,
        entries: &[(usize, usize, u64, f64)],
        value: impl Fn(u64, f64) -> T,
        fold: fn(Coo<T>) -> Csr<T>,
    ) -> Csr<T> {
        let mut coo = Coo::new(self.rows, self.n);
        for &(s, v, w, x) in entries {
            coo.push(s, v, value(w, x));
        }
        fold(coo)
    }

    fn multpaths(&self, entries: &[(usize, usize, u64, f64)]) -> Csr<Multpath> {
        let value = |w, m| Multpath::new(Dist::new(w), m);
        self.matrix(entries, value, Coo::into_csr::<MultpathMonoid>)
    }

    fn run(&self) -> Result<(), String> {
        let g = self.graph();
        let plan = self.plan();
        let (ml, mm) = (Machine::new(self.spec()), Machine::new(self.spec()));
        let err = |e: MachineError| format!("{plan}: machine error: {e}");
        let mut landed =
            Simulated::new(&ml, &g, Some(plan.clone()), self.amortize, self.masked).map_err(err)?;
        let mut mat = Materialised::new(&mm, &g, plan.clone(), self.amortize).map_err(err)?;
        let what = |step: &str| format!("{plan} {:?} {step}", self.leg);
        match self.leg {
            Leg::Forward => {
                let opened = self.multpaths(&self.t);
                let (f1, f2) = (landed.place(opened.clone()), mat.place(&opened));
                let mut t1 = landed.open::<MultpathMonoid>(&f1, None).map_err(err)?;
                f2.charge_memory(&mm).map_err(err)?;
                let mut t2 = DistTable::from_dmat(&f2, self.masked);
                for (k, entries) in self.steps.iter().enumerate() {
                    let frontier = self.multpaths(entries);
                    let (f1, f2) = (landed.place(frontier.clone()), mat.place(&frontier));
                    let got = landed.explore::<BellmanFordKernel>(&mut t1, &f1, keep);
                    let want = mat.explore(&mut t2, &f2);
                    let ((g1, o1), (g2, o2)) = (got.map_err(err)?, want.map_err(err)?);
                    let what = what(&format!("step {k}"));
                    same(&what, (&g1, o1, &t1, &ml), (&g2, o2, &t2, &mm), mp_bits)?;
                }
            }
            Leg::Backward => {
                let t = self.multpaths(&self.t);
                let (t1, t2) = (landed.place(t.clone()), mat.place(&t));
                let reached = self.masked.then(|| t2.pattern_mask(MaskKind::Structural));
                let (mut z1, f1, o1) = landed.anchor(&t1, fire).map_err(err)?;
                let (mut z2, f2, o2) = mat.anchor(&t2, reached.as_ref()).map_err(err)?;
                same(
                    &what("anchor"),
                    (&f1, o1, &z1, &ml),
                    (&f2, o2, &z2, &mm),
                    cp_bits,
                )?;
                let within1 = self.masked.then(|| t1.pattern_mask(MaskKind::Structural));
                for (k, entries) in self.steps.iter().enumerate() {
                    let value = |w, p| Centpath::new(Dist::new(w), p, -1);
                    let frontier = self.matrix(entries, value, Coo::into_csr::<CentpathMonoid>);
                    let (f1, f2) = (landed.place(frontier.clone()), mat.place(&frontier));
                    let got = landed.settle::<BrandesKernel, _>(
                        &mut z1,
                        &f1,
                        within1.as_ref(),
                        &t1,
                        fire,
                    );
                    let want = mat.settle(&mut z2, &f2, reached.as_ref(), &t2);
                    let ((g1, o1), (g2, o2)) = (got.map_err(err)?, want.map_err(err)?);
                    let what = what(&format!("step {k}"));
                    same(&what, (&g1, o1, &z1, &ml), (&g2, o2, &z2, &mm), cp_bits)?;
                }
            }
        }
        landed.close();
        mat.close();
        same_machine(&what("close"), &ml, &mm)
    }
}

/// The plan index a seeded case draws: spread over the families of the
/// largest enumeration.
fn rng_plan(seed: u64) -> usize {
    SplitMix64::new(seed ^ 0x1a4d).below(128)
}

/// The materialising path `Simulated` took for every product before
/// 1D products landed: the product assembled to the canonical layout,
/// then merged into the table as the landing merges a product formed
/// whole ([`Land::formed`]).
struct Materialised {
    m: Machine,
    adj: [DistMat<Dist>; 2],
    caches: [MmCache<Dist>; 2],
    plan: MmPlan,
    amortize: bool,
}

impl Materialised {
    fn new(m: &Machine, g: &Graph, plan: MmPlan, amortize: bool) -> Result<Self, MachineError> {
        let (n, at) = (g.n(), g.adjacency_t());
        let adj = [g.adjacency(), &at].map(|a| DistMat::from_global(canonical_layout(m, n, n), a));
        for a in &adj {
            a.charge_memory(m)?;
        }
        Ok(Materialised {
            m: m.clone(),
            adj,
            caches: [MmCache::new(), MmCache::new()],
            plan,
            amortize,
        })
    }

    fn place<T: Clone + Send + Sync>(&self, c: &Csr<T>) -> DistMat<T> {
        DistMat::from_global(canonical_layout(&self.m, c.nrows(), c.ncols()), c)
    }

    fn mm<K: mfbc_algebra::SpMulKernel<Right = Dist>>(
        &mut self,
        f: &DistMat<K::Left>,
        adj: usize,
        mask: Option<&Mask>,
    ) -> Result<(DistMat<mfbc_algebra::kernel::KernelOut<K>>, u64), MachineError> {
        let (m, a, plan) = (&self.m, &self.adj[adj], &self.plan);
        let out = if self.amortize {
            mfbc_tensor::mm_exec_cached_masked::<K>(m, plan, f, a, mask, &mut self.caches[adj])
        } else {
            mfbc_tensor::mm_exec_masked::<K>(m, plan, f, a, mask)
        }?;
        Ok((out.c, out.ops))
    }

    fn explore(
        &mut self,
        t: &mut DistTable<Multpath>,
        f: &DistMat<Multpath>,
    ) -> Result<(DistMat<Multpath>, u64), MachineError> {
        let mask = t.mask();
        let (explored, ops) = self.mm::<BellmanFordKernel>(f, 0, mask.as_ref())?;
        drop(mask);
        let mut land = land::Accumulate::<BellmanFordKernel, _>::new(t, &keep);
        land.formed(explored);
        Ok((land.finish(&self.m)?, ops))
    }

    fn anchor(
        &mut self,
        t: &DistMat<Multpath>,
        within: Option<&Mask>,
    ) -> Result<(DistTable<Centpath>, DistMat<Centpath>, u64), MachineError> {
        let seed = |_: usize, _: usize, mp: &Multpath| Some(Centpath::new(mp.w, 0.0, 1));
        let seeds = ops::dmat_map_filter::<CentpathMonoid, _, _>(&self.m, t, seed);
        let (counted, ops) = self.mm::<BrandesKernel>(&seeds, 1, within)?;
        let mut land = land::Count::new(t, within.cloned(), &fire);
        land.formed(counted);
        let (z, f) = land.finish(&self.m)?;
        Ok((z, f, ops))
    }

    fn settle(
        &mut self,
        z: &mut DistTable<Centpath>,
        f: &DistMat<Centpath>,
        within: Option<&Mask>,
        t: &DistMat<Multpath>,
    ) -> Result<(DistMat<Centpath>, u64), MachineError> {
        let pending = z.mask();
        let (back, ops) = self.mm::<BrandesKernel>(f, 1, pending.as_ref().or(within))?;
        drop(pending);
        let mut land = land::Settle::<BrandesKernel, _, _>::new(z, t, within, &fire);
        land.formed(back);
        Ok((land.finish(&self.m), ops))
    }

    fn close(&mut self) {
        self.caches.iter_mut().for_each(|c| c.release_all(&self.m));
        self.adj.iter().for_each(|a| a.release_memory(&self.m));
    }
}

fn mp_bits(x: &Multpath) -> [u64; 3] {
    [x.w.raw(), x.m.to_bits(), 0]
}

fn cp_bits(x: &Centpath) -> [u64; 3] {
    [x.w.raw(), x.p.to_bits(), x.c as u64]
}

/// The first block entry at which two distributed matrices differ.
fn blocks_differ<T: PartialEq + std::fmt::Debug + Clone + Send + Sync>(
    got: &DistMat<T>,
    want: &DistMat<T>,
    bits: fn(&T) -> [u64; 3],
) -> Option<String> {
    if !got.layout().same_as(want.layout()) {
        return Some("layouts differ".into());
    }
    for (bi, bj) in got.layout().blocks() {
        let (a, b) = (got.block(bi, bj), want.block(bi, bj));
        if let Some(d) = a.first_difference(b) {
            return Some(format!("block ({bi},{bj}): {d}"));
        }
        let mut pairs = a.iter().zip(b.iter());
        if let Some(((i, j, x), _)) = pairs.find(|((_, _, x), (_, _, y))| bits(x) != bits(y)) {
            return Some(format!("block ({bi},{bj}) entry ({i},{j}): bits of {x:?}"));
        }
    }
    None
}

/// A step's frontier, `ops`, table, masks and machine, landed against
/// materialised.
fn same<T: PartialEq + std::fmt::Debug + Clone + Send + Sync>(
    what: &str,
    (f1, o1, t1, m1): (&DistMat<T>, u64, &DistTable<T>, &Machine),
    (f2, o2, t2, m2): (&DistMat<T>, u64, &DistTable<T>, &Machine),
    bits: fn(&T) -> [u64; 3],
) -> Result<(), String> {
    if let Some(d) = blocks_differ(f1, f2, bits) {
        return Err(format!("{what}: frontier: {d}"));
    }
    if o1 != o2 {
        return Err(format!("{what}: ops {o1} != {o2}"));
    }
    let (z1, z2) = (t1.clone().freeze(), t2.clone().freeze());
    if let Some(d) = blocks_differ(&z1, &z2, bits) {
        return Err(format!("{what}: table: {d}"));
    }
    for (bi, bj) in t1.layout().blocks() {
        if t1.block(bi, bj).mask() != t2.block(bi, bj).mask() {
            return Err(format!("{what}: mask of block ({bi},{bj}) differs"));
        }
    }
    same_machine(what, m1, m2)
}

/// Every cost-report field, every rank's costs and clock, bit for bit,
/// and every rank's resident and peak bytes. The report holds maxima
/// over ranks: a bill moved from one rank to another can leave them
/// as they were.
fn same_machine(what: &str, m1: &Machine, m2: &Machine) -> Result<(), String> {
    let (r1, r2) = (format!("{:?}", m1.report()), format!("{:?}", m2.report()));
    if r1 != r2 {
        return Err(format!(
            "{what}: cost report\n  landed {r1}\n  materialised {r2}"
        ));
    }
    let ranks = |m: &Machine| {
        let clocks: Vec<f64> = m.with_tracker(|t| (0..t.p()).map(|r| t.clock(r)).collect());
        let cost = |(c, clock): (RankCost, f64)| {
            let times = [c.comm_time, c.comp_time, clock].map(f64::to_bits);
            (c.msgs, c.bytes, times)
        };
        let costs = m.rank_costs().into_iter().zip(clocks);
        costs.map(cost).collect::<Vec<_>>()
    };
    let (k1, k2) = (ranks(m1), ranks(m2));
    if let Some(r) = (0..k1.len()).find(|&r| k1[r] != k2[r]) {
        return Err(format!(
            "{what}: rank {r}'s costs\n  landed {:?}\n  materialised {:?}",
            k1[r], k2[r]
        ));
    }
    let (s1, s2) = (m1.memory_snapshot(), m2.memory_snapshot());
    if (s1.resident(), s1.peak()) != (s2.resident(), s2.peak()) {
        return Err(format!("{what}: memory {s1:?} != {s2:?}"));
    }
    Ok(())
}

impl CaseSpec for LandCase {
    fn check(&self) -> Result<(), String> {
        mfbc_parallel::with_threads(self.threads, || self.run())
    }

    fn size(&self) -> usize {
        let frontier: usize = self.steps.iter().map(Vec::len).sum();
        self.p + self.threads + self.rows + self.n + self.edges.len() + self.t.len() + frontier
    }

    fn shrink_candidates(&self) -> Vec<LandCase> {
        let mut out = Vec::new();
        for &threads in THREADS.iter().filter(|&&t| t < self.threads) {
            out.push(LandCase {
                threads,
                ..self.clone()
            });
        }
        if self.steps.len() > 1 {
            let mut c = self.clone();
            c.steps.pop();
            out.push(c);
        }
        if self.edges.len() > 1 {
            let mut c = self.clone();
            c.edges.truncate(self.edges.len() / 2);
            out.push(c);
        }
        if self.t.len() > 1 {
            let mut c = self.clone();
            c.t.truncate(self.t.len() / 2);
            out.push(c);
        }
        for k in (0..self.steps.len()).filter(|&k| self.steps[k].len() > 1) {
            let mut c = self.clone();
            c.steps[k].truncate(self.steps[k].len() / 2);
            out.push(c);
        }
        out
    }
}

#[test]
fn landed_vs_materialised_seeded() {
    run_suite_or_panic("landed_vs_materialised_seeded", 120, LandCase::generate);
}

#[test]
fn cut_bands_land_like_they_materialise() {
    // At p in {3, 6, 12} the canonical grid has fewer block rows than
    // ranks, and with neither the batch nor n a multiple of p the
    // ranks' slabs cut the bands off their block boundaries: a row slab
    // straddles two bands, a band holds slabs in part, a column slab
    // straddles two block columns.
    let mut seed = 0xC07_0000u64;
    for p in [3usize, 6, 12] {
        for (idx, plan) in enumerate_plans(p).iter().enumerate() {
            if !plan.lands() {
                continue;
            }
            for leg in [Leg::Forward, Leg::Backward] {
                for masked in [false, true] {
                    seed += 1;
                    let mut rng = SplitMix64::new(seed);
                    // Several slabs' worth of rows and vertices, no
                    // multiple of p.
                    let mut dim = || match rng.range(p + 1, 4 * p) {
                        x if x % p == 0 => x + 1,
                        x => x,
                    };
                    let shape = (dim(), dim());
                    let threads = THREADS[seed as usize % THREADS.len()];
                    let mut case = LandCase::shaped(&mut rng, seed, (p, idx, leg), threads, shape);
                    case.masked = masked;
                    case.check()
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
                }
            }
        }
    }
}

#[test]
fn every_plan_family_lands_like_it_materialises() {
    let mut landing = std::collections::BTreeSet::new();
    let mut seed = 0x1A2D_0000u64;
    for p in PS {
        let plans = enumerate_plans(p);
        let mut families = std::collections::BTreeSet::new();
        for (idx, plan) in plans.iter().enumerate() {
            if !families.insert(plan.family()) {
                continue;
            }
            for leg in [Leg::Forward, Leg::Backward] {
                for masked in [false, true] {
                    seed += 1;
                    let mut case = LandCase::draw(&mut SplitMix64::new(seed), seed, p, idx, leg);
                    case.masked = masked;
                    case.threads = THREADS[seed as usize % THREADS.len()];
                    case.check()
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
                }
            }
            if plan.lands() {
                landing.insert(plan.family());
            }
        }
    }
    let landing: Vec<String> = landing.into_iter().collect();
    assert_eq!(landing, ["1d(A)", "1d(B)"]);
}
