//! Differential pin: the sweeps' products consumed where they land
//! must agree with the product materialised by `spgemm_opt` and merged
//! into the table, bit for bit.
//!
//! * Backward: MFBr's opening and its loop products —
//!   `count_children_panes`, which counts each entry's children in
//!   place of the child-count product, and `spgemm_settle_panes`, which
//!   feeds every finished accumulator row straight into `Z` — against
//!   `Table::anchor` over the materialised count product and
//!   `Table::settle`: `Z` after every step, the frontier each step
//!   fires, the pending rows its `mask()` reports and the `ops` it
//!   forms (the count's too: the products it stands for).
//! * Forward: `spgemm_accumulate_panes`, which runs
//!   `Table::accumulate`'s body on every accumulator row, against
//!   `Table::accumulate` of the matrix, for the three kernels
//!   `sweep::sweep` runs — MFBF's Bellman–Ford kernel under
//!   `mfbf_keep_in_frontier`, SSSP's tropical kernel and components'
//!   label kernel under `sweep::improved`: the frozen `T`, the frontier
//!   it keeps, the complement rows its `mask()` reports and the `ops`.
//!
//! Cases are seeded chains of one opening product and several loop
//! products over random operands — weighted and unit adjacency, masks
//! (the table's pattern, then the shrinking pending set) or none,
//! frontiers with empty rows, tables sparse enough that products land
//! outside `Z`'s pattern — run under pools of 1, 2 and 4 threads, with
//! row counts biased above the parallel threshold so that tasks own
//! disjoint row ranges of `Z`. Factors are non-integral, so a changed
//! accumulation order would show in the low bits. Forward cases open
//! `T` on weighted entries in every row, tracked (masked) or not, so
//! that stored entries are re-relaxed by tasks other than the first;
//! multiplicities are non-integral too.
//!
//! Each kernel runs as the one-rank step runs it: one pane over the
//! whole table, one row cell, the right operand one slab.
//!
//! `MFBC_CONFORMANCE_CASES` scales the budget, `MFBC_CONFORMANCE_SEED`
//! replays one printed case.

use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel, KernelOut, TropicalKernel};
use mfbc_algebra::monoid::{MinDist, Monoid};
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid, SpMulKernel};
use mfbc_conformance::case::CaseSpec;
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::run_suite_or_panic;
use mfbc_core::cc::LabelKernel;
use mfbc_core::seq::mfbf_keep_in_frontier;
use mfbc_core::sweep::improved;
use mfbc_sparse::spgemm::opened;
use mfbc_sparse::{
    count_children_panes, spgemm_accumulate_panes, spgemm_opt, spgemm_settle_panes, Coo, Csr, Few,
    Landed, Mask, MaskKind, Pane, Slabs, Table,
};

/// Pool sizes a case draws from: the serial degenerate pool and two
/// real ones (oversubscribed on a two-core runner; results must not
/// depend on it).
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The kernels of `sweep::sweep`'s callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kernel {
    BellmanFord,
    Tropical,
    Label,
}

const KERNELS: [Kernel; 3] = [Kernel::BellmanFord, Kernel::Tropical, Kernel::Label];

/// Which sweep a chain steps.
#[derive(Clone, Copy, Debug)]
enum Leg {
    /// MFBr into `Z`.
    Backward,
    /// A forward sweep into `T`, under one of `sweep::sweep`'s kernels.
    Forward(Kernel),
}

/// MFBr's anchor (`mfbc_core::sweep::mfbr_anchor`).
fn init(tau: &Multpath, d: Option<&Centpath>) -> Centpath {
    Centpath::new(tau.w, 0.0, d.filter(|c| c.w == tau.w).map_or(0, |c| c.c))
}

/// MFBr's hook (`mfbc_core::sweep`'s `fire_and_pin`).
fn fire(z: &mut Centpath, t: &Multpath) -> Option<Centpath> {
    if z.c != 0 {
        return None;
    }
    z.c = -1;
    Some(Centpath::new(z.w, z.p + 1.0 / t.m, -1))
}

/// What the one pane of a one-cell landing emitted, and the products
/// formed.
fn one_pane<T>((landed, cells): (Few<Landed<T>>, Few<(u64, u64)>)) -> (Landed<T>, u64) {
    (landed.into_iter().next().expect("one pane"), cells[0].0)
}

/// What a case exercised, for the coverage checks.
#[derive(Default, Debug)]
struct Seen {
    /// Backward: entries fired.
    fired: usize,
    /// Backward: products landing outside `Z`'s pattern — the count's
    /// where nothing masks it, which count towards `ops` all the same,
    /// and the loop's.
    outside: usize,
    /// Backward: entries with a child whose count a contribution
    /// heavier than `τ(s,v)` zeroes ("greater wins", then the anchor's
    /// compare).
    zeroed: usize,
    /// Backward: frontier rows left empty.
    empty_rows: usize,
    /// Forward: entries kept.
    kept: usize,
    /// Forward: explored entries at coordinates `T` did not store.
    fresh: usize,
    /// Forward: explored entries that landed on a stored entry in the
    /// last quarter of the rows — re-relaxed by a task other than the
    /// first wherever the product ran in parallel.
    relaxed_late: usize,
    parallel: bool,
}

/// One chain: the table opened on `t`, then the product of each
/// frontier of `steps` with `adj` into it. Backward, `Z` is opened on
/// `t` by the count product with `adj` and settled; forward, `T` is
/// opened holding `t` and accumulated into.
#[derive(Clone, Debug)]
struct SinkCase {
    // Read only through the derived Debug impl, which is what puts the
    // seed into the shrunk-case printout.
    #[allow(dead_code)]
    seed: u64,
    threads: usize,
    leg: Leg,
    rows: usize,
    n: usize,
    /// Whether the products run under masks and the table keeps them:
    /// backward, the count under `t`'s pattern and the loop under the
    /// pending set; forward, every product under the complement of
    /// what `T` stores.
    masked: bool,
    /// `(k, j, weight)` entries of the `n × n` right operand.
    adj: Vec<(usize, usize, u64)>,
    /// `(s, v, weight, multiplicity)` entries of the `rows × n` table.
    t: Vec<(usize, usize, u64, f64)>,
    /// Per step, the `(s, k, weight, factor or multiplicity)` frontier
    /// entries.
    steps: Vec<Vec<(usize, usize, u64, f64)>>,
}

/// Mostly ≥ 32 rows: the pool's row-chunking regime.
fn draw_rows(rng: &mut SplitMix64) -> usize {
    if rng.chance(3, 4) {
        rng.range(32, 72)
    } else {
        rng.range(1, 10)
    }
}

/// Per step, frontier coordinates (none one step in six), each with
/// the weight and the value `entry` draws.
fn draw_steps(
    rng: &mut SplitMix64,
    (rows, n): (usize, usize),
    count: usize,
    mut entry: impl FnMut(&mut SplitMix64) -> (u64, f64),
) -> Vec<Vec<(usize, usize, u64, f64)>> {
    (0..count)
        .map(|_| {
            let nnz = if rng.chance(1, 6) {
                0
            } else {
                rng.range(1, 3 * rows)
            };
            gen::coords(rng, rows, n, nnz)
                .into_iter()
                .map(|(s, k)| {
                    let (w, x) = entry(rng);
                    (s, k, w, x)
                })
                .collect()
        })
        .collect()
}

/// A non-integral multiplicity: a changed summation order shows.
fn multiplicity(rng: &mut SplitMix64) -> f64 {
    1.0 + (rng.next_u64() % 1000) as f64 / 7.0
}

impl SinkCase {
    /// A backward chain.
    fn generate(seed: u64) -> SinkCase {
        let mut rng = SplitMix64::new(seed);
        let threads = *rng.pick(&THREAD_COUNTS);
        let rows = draw_rows(&mut rng);
        let n = rng.range(2, 48);
        let masked = rng.chance(1, 2);
        // Unit weights half the time; a narrow range otherwise, so
        // back-propagated weights tie with, fall below and exceed the
        // anchors.
        let wmax = if rng.chance(1, 2) { 1 } else { 3 };
        let edges = rng.range(n, 5 * n);
        let adj = if rng.chance(1, 2) {
            gen::rmat(&mut rng, n, edges, wmax)
        } else {
            gen::erdos_renyi(&mut rng, n, edges, wmax)
        };
        // From a third of the coordinates to nearly all of them; a
        // quarter of the rows empty.
        let fill = rng.range(3, 10);
        let live: Vec<usize> = (0..rows).filter(|_| !rng.chance(1, 4)).collect();
        let mut t = Vec::new();
        for &s in &live {
            for v in 0..n {
                if rng.below(10) < fill {
                    let m = 1.0 + rng.below(3) as f64;
                    t.push((s, v, 2 + rng.next_u64() % 4, m));
                }
            }
        }
        let count = rng.range(1, 6);
        let steps = draw_steps(&mut rng, (rows, n), count, |rng| {
            let p = (rng.next_u64() % 1000) as f64 / 7.0;
            (2 + rng.next_u64() % 6, p)
        });
        SinkCase {
            seed,
            threads,
            leg: Leg::Backward,
            rows,
            n,
            masked,
            adj,
            t,
            steps,
        }
    }

    /// A forward chain.
    fn forward(seed: u64) -> SinkCase {
        let mut rng = SplitMix64::new(seed);
        let threads = *rng.pick(&THREAD_COUNTS);
        let kernel = *rng.pick(&KERNELS);
        let rows = draw_rows(&mut rng);
        let n = rng.range(2, 48);
        let masked = rng.chance(1, 2);
        let edges = rng.range(n, 5 * n);
        let adj = if rng.chance(1, 2) {
            gen::rmat(&mut rng, n, edges, 3)
        } else {
            gen::erdos_renyi(&mut rng, n, edges, 3)
        };
        // Every row holds a few entries heavy enough to be improved.
        let fill = rng.range(1, 5);
        let mut t = Vec::new();
        for s in 0..rows {
            for v in 0..n {
                if rng.below(10) < fill {
                    t.push((s, v, 4 + rng.next_u64() % 8, multiplicity(&mut rng)));
                }
            }
        }
        let count = rng.range(1, 5);
        let steps = draw_steps(&mut rng, (rows, n), count, |rng| {
            (1 + rng.next_u64() % 4, multiplicity(rng))
        });
        SinkCase {
            seed,
            threads,
            leg: Leg::Forward(kernel),
            rows,
            n,
            masked,
            adj,
            t,
            steps,
        }
    }

    fn adjacency(&self) -> Csr<Dist> {
        let mut coo = Coo::new(self.n, self.n);
        for &(k, j, w) in &self.adj {
            coo.push(k, j, Dist::new(w));
        }
        coo.into_csr::<MinDist>()
    }

    /// `entries` as a `rows × n` matrix of `value(weight, x)`.
    fn matrix<M: Monoid>(
        &self,
        entries: &[(usize, usize, u64, f64)],
        value: fn(u64, f64) -> M::Elem,
    ) -> Csr<M::Elem> {
        let mut coo = Coo::new(self.rows, self.n);
        for &(s, v, w, x) in entries {
            coo.push(s, v, value(w, x));
        }
        coo.into_csr::<M>()
    }

    fn run(&self) -> Result<Seen, String> {
        let mut seen = Seen {
            parallel: self.threads > 1 && self.rows >= 32,
            ..Seen::default()
        };
        match self.leg {
            Leg::Backward => self.backward(&mut seen)?,
            Leg::Forward(Kernel::BellmanFord) => self.forward_chain::<BellmanFordKernel>(
                &mut seen,
                |w, m| Multpath::new(Dist::new(w), m),
                |g, _, t| mfbf_keep_in_frontier(g, Some(t)),
                |x| [x.w.raw(), x.m.to_bits()],
            )?,
            Leg::Forward(Kernel::Tropical) => self.forward_chain::<TropicalKernel>(
                &mut seen,
                |w, _| Dist::new(w),
                improved,
                |x| [x.raw(), 0],
            )?,
            Leg::Forward(Kernel::Label) => {
                self.forward_chain::<LabelKernel>(&mut seen, |w, _| w, improved, |&x| [x, 0])?
            }
        }
        Ok(seen)
    }

    /// The backward chain, sink-fed against materialised after every
    /// step.
    fn backward(&self, seen: &mut Seen) -> Result<(), String> {
        let adj = self.adjacency();
        let t = self.matrix::<MultpathMonoid>(&self.t, |w, m| Multpath::new(Dist::new(w), m));
        let reached = self
            .masked
            .then(|| Mask::of_pattern(MaskKind::Structural, &t));
        let seeds = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, 1));

        let mut z_sink = Table::on_pattern(&t, opened);
        let (leaves, ops) = one_pane(count_children_panes(
            &t,
            |mp: &Multpath| mp.w,
            Slabs::whole(&adj),
            &[0, t.nrows()],
            &mut [Pane::whole(&mut z_sink)],
            &[&t],
            self.masked,
            fire,
        ));
        z_sink.pend(leaves.pending);
        let counted = spgemm_opt::<BrandesKernel>(&seeds, &adj, reached.as_ref());
        let (mut z_mat, want) =
            Table::anchor::<CentpathMonoid, _>(&t, &counted.mat, init, fire, self.masked);
        same_step("anchor", &leaves.out, &want, ops, counted.ops)?;
        same_state("anchor", &z_sink, &z_mat, self.masked)?;
        seen.fired += want.nnz();
        for (s, v, d) in counted.mat.iter() {
            match t.get(s, v) {
                None => seen.outside += 1,
                Some(tau) if d.w > tau.w && has_child(&t, &adj, s, v) => seen.zeroed += 1,
                Some(_) => {}
            }
        }

        for (k, entries) in self.steps.iter().enumerate() {
            let what = format!("step {k}");
            // Every counter −1 (−2 where two drawn entries met at one
            // coordinate and weight).
            let frontier =
                self.matrix::<CentpathMonoid>(entries, |w, p| Centpath::new(Dist::new(w), p, -1));
            seen.empty_rows += (0..self.rows).filter(|&s| frontier.row_nnz(s) == 0).count();

            let back = spgemm_opt::<BrandesKernel>(&frontier, &adj, z_mat.mask().as_ref());
            let want = z_mat.settle::<CentpathMonoid, _>(&back.mat, &t, fire);
            seen.outside += back
                .mat
                .iter()
                .filter(|&(s, v, _)| t.get(s, v).is_none())
                .count();

            let (got, ops) = one_pane(spgemm_settle_panes::<BrandesKernel, _>(
                &frontier,
                Slabs::whole(&adj),
                &[0, frontier.nrows()],
                None,
                &mut [Pane::whole(&mut z_sink)],
                &[&t],
                fire,
            ));

            same_step(&what, &got.out, &want, ops, back.ops)?;
            same_state(&what, &z_sink, &z_mat, self.masked)?;
            seen.fired += want.nnz();
        }
        Ok(())
    }

    /// The forward chain under kernel `K`, sink-fed against
    /// materialised after every step.
    #[allow(clippy::type_complexity)]
    fn forward_chain<K>(
        &self,
        seen: &mut Seen,
        value: fn(u64, f64) -> KernelOut<K>,
        keep: fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>>,
        bits: fn(&KernelOut<K>) -> [u64; 2],
    ) -> Result<(), String>
    where
        K: SpMulKernel<Left = KernelOut<K>, Right = Dist>,
    {
        let adj = self.adjacency();
        let opened = self.matrix::<K::Acc>(&self.t, value);
        let (mut t_sink, mut t_mat) = (
            Table::from_csr(&opened, self.masked),
            Table::from_csr(&opened, self.masked),
        );
        for (k, entries) in self.steps.iter().enumerate() {
            let what = format!("{:?} step {k}", self.leg);
            let frontier = self.matrix::<K::Acc>(entries, value);

            let explored = spgemm_opt::<K>(&frontier, &adj, t_mat.mask().as_ref());
            for (s, v, _) in explored.mat.iter() {
                match t_mat.get(s, v) {
                    None => seen.fresh += 1,
                    Some(_) if 4 * s >= 3 * self.rows => seen.relaxed_late += 1,
                    Some(_) => {}
                }
            }
            let want = t_mat.accumulate::<K::Acc>(&explored.mat, keep);
            let (got, ops) = one_pane(spgemm_accumulate_panes::<K>(
                &frontier,
                Slabs::whole(&adj),
                &[0, frontier.nrows()],
                &mut [Pane::whole(&mut t_sink)],
                keep,
            ));

            if let Some(d) = bits_difference(&got.out, &want, bits) {
                return Err(format!("{what}: kept frontier: {d}"));
            }
            if ops != explored.ops {
                return Err(format!("{what}: ops {ops} != {}", explored.ops));
            }
            let (frozen_sink, frozen_mat) = (t_sink.clone().freeze(), t_mat.clone().freeze());
            if let Some(d) = bits_difference(&frozen_sink, &frozen_mat, bits) {
                return Err(format!("{what}: T: {d}"));
            }
            let (got_mask, want_mask) = (t_sink.mask(), t_mat.mask());
            if got_mask != want_mask || got_mask.is_some() != self.masked {
                return Err(format!("{what}: mask rows differ"));
            }
            seen.kept += want.nnz();
        }
        Ok(())
    }
}

/// Whether some `(s,k) ∈ t` reaches `(s,v)` over `adj(k,v)` at exactly
/// `τ(s,v)`: a child the count would find if nothing heavier came.
fn has_child(t: &Csr<Multpath>, adj: &Csr<Dist>, s: usize, v: usize) -> bool {
    let tau = t.get(s, v).expect("on t's pattern").w.raw();
    t.row(s).any(|(k, tk)| {
        adj.get(k, v)
            .is_some_and(|a| a.raw() <= tk.w.raw() && tk.w.raw() - a.raw() == tau)
    })
}

/// A centpath's fields as bits.
fn centpath_bits(x: &Centpath) -> [u64; 3] {
    [x.w.raw(), x.p.to_bits(), x.c as u64]
}

/// The first entry at which two matrices differ in structure or in
/// the bits `bits` reads.
fn bits_difference<T: PartialEq + std::fmt::Debug, B: PartialEq>(
    got: &Csr<T>,
    want: &Csr<T>,
    bits: fn(&T) -> B,
) -> Option<String> {
    if let Some(d) = got.first_difference(want) {
        return Some(d);
    }
    let mut pairs = got.iter().zip(want.iter());
    pairs
        .find(|((_, _, a), (_, _, b))| bits(a) != bits(b))
        .map(|((i, j, a), (_, _, b))| format!("entry ({i},{j}): bits of {a:?} vs {b:?}"))
}

/// A step's frontier and `ops`, sink-fed against materialised.
fn same_step(
    what: &str,
    got: &Csr<Centpath>,
    want: &Csr<Centpath>,
    got_ops: u64,
    want_ops: u64,
) -> Result<(), String> {
    if let Some(d) = bits_difference(got, want, centpath_bits) {
        return Err(format!("{what}: frontier: {d}"));
    }
    if got_ops != want_ops {
        return Err(format!("{what}: ops {got_ops} != {want_ops}"));
    }
    Ok(())
}

/// `Z` and the pending rows its mask reports (none unless `masked`)
/// after a step, sink-fed against materialised.
fn same_state(
    what: &str,
    got: &Table<Centpath>,
    want: &Table<Centpath>,
    masked: bool,
) -> Result<(), String> {
    let (frozen_got, frozen_want) = (got.clone().freeze(), want.clone().freeze());
    if let Some(d) = bits_difference(&frozen_got, &frozen_want, centpath_bits) {
        return Err(format!("{what}: Z: {d}"));
    }
    let (got, want) = (got.mask(), want.mask());
    if got != want || got.is_some() != masked {
        return Err(format!("{what}: pending rows differ"));
    }
    Ok(())
}

impl CaseSpec for SinkCase {
    fn check(&self) -> Result<(), String> {
        mfbc_parallel::with_threads(self.threads, || self.run().map(|_| ()))
    }

    fn size(&self) -> usize {
        let frontier: usize = self.steps.iter().map(Vec::len).sum();
        self.threads + self.rows + self.n + self.adj.len() + self.t.len() + frontier
    }

    fn shrink_candidates(&self) -> Vec<SinkCase> {
        let mut out = Vec::new();
        for &threads in THREAD_COUNTS.iter().filter(|&&t| t < self.threads) {
            out.push(SinkCase {
                threads,
                ..self.clone()
            });
        }
        // The last step, then the first half of each list.
        if self.steps.len() > 1 {
            let mut c = self.clone();
            c.steps.pop();
            out.push(c);
        }
        if self.adj.len() > 1 {
            let mut c = self.clone();
            c.adj.truncate(self.adj.len() / 2);
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
        if self.rows > 1 {
            let rows = self.rows / 2;
            let mut c = self.clone();
            c.rows = rows;
            c.t.retain(|&(s, ..)| s < rows);
            c.steps
                .iter_mut()
                .for_each(|f| f.retain(|&(s, ..)| s < rows));
            out.push(c);
        }
        out
    }
}

#[test]
fn sink_fed_vs_materialised_seeded() {
    run_suite_or_panic("sink_fed_vs_materialised_seeded", 200, SinkCase::generate);
}

#[test]
fn forward_sink_fed_vs_materialised_seeded() {
    run_suite_or_panic(
        "forward_sink_fed_vs_materialised_seeded",
        200,
        SinkCase::forward,
    );
}

/// Runs the first 60 cases of a fixed stream, summing what they
/// exercised; returns the sums, the cases run and the pool sizes drawn.
fn reach(stream: u64, generate: fn(u64) -> SinkCase) -> (Seen, Vec<SinkCase>) {
    let mut total = Seen::default();
    let mut cases = Vec::new();
    for i in 0..60u64 {
        let case = generate(stream + i);
        let seen = mfbc_parallel::with_threads(case.threads, || case.run()).expect("case passes");
        total.fired += seen.fired;
        total.outside += seen.outside;
        total.zeroed += seen.zeroed;
        total.empty_rows += seen.empty_rows;
        total.kept += seen.kept;
        total.fresh += seen.fresh;
        total.relaxed_late += usize::from(seen.parallel) * seen.relaxed_late;
        total.parallel |= seen.parallel;
        cases.push(case);
    }
    let pools: std::collections::BTreeSet<usize> = cases.iter().map(|c| c.threads).collect();
    assert_eq!(pools.into_iter().collect::<Vec<_>>(), THREAD_COUNTS);
    assert!(cases.iter().any(|c| c.masked) && cases.iter().any(|c| !c.masked));
    (total, cases)
}

#[test]
fn the_generator_reaches_what_the_suite_claims() {
    // Entries fire, products land outside Z's pattern, heavier
    // contributions zero counts, frontiers leave rows empty, both mask
    // settings, unit and weighted adjacency and every pool size are
    // drawn, and the parallel path (tasks owning row ranges of Z) runs.
    let (total, cases) = reach(0x51AC_0000, SinkCase::generate);
    assert!(
        total.fired > 0
            && total.outside > 0
            && total.zeroed > 0
            && total.empty_rows > 0
            && total.parallel,
        "{total:?}"
    );
    let unit = |c: &SinkCase| c.adj.iter().all(|&(_, _, w)| w == 1);
    assert!(cases.iter().any(unit) && !cases.iter().all(unit));
}

#[test]
fn the_forward_generator_reaches_what_the_suite_claims() {
    // Entries are kept, new coordinates are stored, stored entries in
    // late rows of parallel products are re-relaxed, and every kernel,
    // both mask settings and every pool size are drawn.
    let (total, cases) = reach(0xF0E0_0000, SinkCase::forward);
    assert!(
        total.kept > 0 && total.fresh > 0 && total.relaxed_late > 0 && total.parallel,
        "{total:?}"
    );
    let kernels: std::collections::BTreeSet<Kernel> = cases
        .iter()
        .filter_map(|c| match c.leg {
            Leg::Forward(k) => Some(k),
            Leg::Backward => None,
        })
        .collect();
    assert_eq!(kernels.into_iter().collect::<Vec<_>>(), KERNELS);
}
