//! Differential pin: MFBr's two products consumed where they land —
//! `spgemm_anchor` and `spgemm_settle`, which feed every finished
//! accumulator row straight into `Z` — must agree with the product
//! materialised by `spgemm_opt` and merged by `Table::anchor` /
//! `Table::settle`, bit for bit: `Z` after every step, the frontier
//! each step fires, the pending rows its `mask()` reports and the
//! `ops` it forms.
//!
//! Cases are seeded chains of one opening product and several loop
//! products over random operands — weighted and unit adjacency, masks
//! (the table's pattern, then the shrinking pending set) or none,
//! frontiers with empty rows, tables sparse enough that products land
//! outside `Z`'s pattern — run under pools of 1, 2 and 4 threads, with
//! row counts biased above the parallel threshold so that tasks own
//! disjoint row ranges of `Z`. Factors are non-integral, so a changed
//! accumulation order would show in the low bits.
//!
//! `MFBC_CONFORMANCE_CASES` scales the budget, `MFBC_CONFORMANCE_SEED`
//! replays one printed case.

use mfbc_algebra::kernel::BrandesKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, MultpathMonoid};
use mfbc_conformance::case::CaseSpec;
use mfbc_conformance::gen;
use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::run_suite_or_panic;
use mfbc_sparse::{spgemm_anchor, spgemm_opt, spgemm_settle, Coo, Csr, Mask, MaskKind, Table};

/// Pool sizes a case draws from: the serial degenerate pool and two
/// real ones (oversubscribed on a two-core runner; results must not
/// depend on it).
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

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

/// What a case exercised, for the coverage check.
#[derive(Default, Debug)]
struct Seen {
    fired: usize,
    outside: usize,
    empty_rows: usize,
    parallel: bool,
}

/// One chain: `Z` opened on `t` by the count product with `adj`, then
/// settled by the product of each frontier of `steps` with `adj`.
#[derive(Clone, Debug)]
struct SinkCase {
    // Read only through the derived Debug impl, which is what puts the
    // seed into the shrunk-case printout.
    #[allow(dead_code)]
    seed: u64,
    threads: usize,
    rows: usize,
    n: usize,
    /// Whether the products run under masks (the count under `t`'s
    /// pattern, the loop under the pending set) and the pending rows
    /// are kept.
    masked: bool,
    /// `(k, j, weight)` entries of the `n × n` right operand.
    adj: Vec<(usize, usize, u64)>,
    /// `(s, v, weight, multiplicity)` entries of the `rows × n` table.
    t: Vec<(usize, usize, u64, f64)>,
    /// Per loop step, the `(s, k, weight, factor)` frontier entries.
    steps: Vec<Vec<(usize, usize, u64, f64)>>,
}

impl SinkCase {
    fn generate(seed: u64) -> SinkCase {
        let mut rng = SplitMix64::new(seed);
        let threads = *rng.pick(&THREAD_COUNTS);
        // Mostly ≥ 32 rows: the pool's row-chunking regime.
        let rows = if rng.chance(3, 4) {
            rng.range(32, 72)
        } else {
            rng.range(1, 10)
        };
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
        let steps = (0..rng.range(1, 6))
            .map(|_| {
                let nnz = if rng.chance(1, 6) {
                    0
                } else {
                    rng.range(1, 3 * rows)
                };
                gen::coords(&mut rng, rows, n, nnz)
                    .into_iter()
                    .map(|(s, k)| {
                        let p = (rng.next_u64() % 1000) as f64 / 7.0;
                        (s, k, 2 + rng.next_u64() % 6, p)
                    })
                    .collect()
            })
            .collect();
        SinkCase {
            seed,
            threads,
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

    fn table(&self) -> Csr<Multpath> {
        let mut coo = Coo::new(self.rows, self.n);
        for &(s, v, w, m) in &self.t {
            coo.push(s, v, Multpath::new(Dist::new(w), m));
        }
        coo.into_csr::<MultpathMonoid>()
    }

    /// A frontier: every counter −1 (−2 where two drawn entries met at
    /// one coordinate and weight).
    fn frontier(&self, entries: &[(usize, usize, u64, f64)]) -> Csr<Centpath> {
        let mut coo = Coo::new(self.rows, self.n);
        for &(s, k, w, p) in entries {
            coo.push(s, k, Centpath::new(Dist::new(w), p, -1));
        }
        coo.into_csr::<CentpathMonoid>()
    }

    fn run(&self) -> Result<Seen, String> {
        let (adj, t) = (self.adjacency(), self.table());
        let mut seen = Seen {
            parallel: self.threads > 1 && self.rows >= 32,
            ..Seen::default()
        };
        let reached = self
            .masked
            .then(|| Mask::of_pattern(MaskKind::Structural, &t));
        let seeds = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, 1));

        let (mut z_sink, leaves) = spgemm_anchor::<BrandesKernel, _>(
            &seeds,
            &adj,
            reached.as_ref(),
            &t,
            init,
            fire,
            self.masked,
        );
        let counted = spgemm_opt::<BrandesKernel>(&seeds, &adj, reached.as_ref());
        let (mut z_mat, want) =
            Table::anchor::<CentpathMonoid, _>(&t, &counted.mat, init, fire, self.masked);
        same_step("anchor", &leaves.mat, &want, leaves.ops, counted.ops)?;
        same_state("anchor", &z_sink, &z_mat, self.masked)?;
        seen.fired += want.nnz();

        for (k, entries) in self.steps.iter().enumerate() {
            let what = format!("step {k}");
            let frontier = self.frontier(entries);
            seen.empty_rows += (0..self.rows).filter(|&s| frontier.row_nnz(s) == 0).count();

            let back = spgemm_opt::<BrandesKernel>(&frontier, &adj, z_mat.mask().as_ref());
            let want = z_mat.settle::<CentpathMonoid, _>(&back.mat, &t, fire);
            seen.outside += back
                .mat
                .iter()
                .filter(|&(s, v, _)| t.get(s, v).is_none())
                .count();

            let got =
                spgemm_settle::<BrandesKernel, _>(&frontier, &adj, None, &mut z_sink, &t, fire);

            same_step(&what, &got.mat, &want, got.ops, back.ops)?;
            same_state(&what, &z_sink, &z_mat, self.masked)?;
            seen.fired += want.nnz();
        }
        Ok(seen)
    }
}

/// The first entry at which two centpath matrices differ in structure
/// or in the bits of a field.
fn bits_difference(got: &Csr<Centpath>, want: &Csr<Centpath>) -> Option<String> {
    if let Some(d) = got.first_difference(want) {
        return Some(d);
    }
    let bits = |x: &Centpath| (x.w.raw(), x.p.to_bits(), x.c);
    let (mut g, mut w) = (got.iter(), want.iter());
    loop {
        match (g.next(), w.next()) {
            (Some((i, j, a)), Some((_, _, b))) if bits(a) != bits(b) => {
                return Some(format!("entry ({i},{j}): bits of {a:?} vs {b:?}"));
            }
            (None, None) => return None,
            _ => {}
        }
    }
}

/// A step's frontier and `ops`, sink-fed against materialised.
fn same_step(
    what: &str,
    got: &Csr<Centpath>,
    want: &Csr<Centpath>,
    got_ops: u64,
    want_ops: u64,
) -> Result<(), String> {
    if let Some(d) = bits_difference(got, want) {
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
    if let Some(d) = bits_difference(&got.clone().freeze(), &want.clone().freeze()) {
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
fn the_generator_reaches_what_the_suite_claims() {
    // Over the first cases of a fixed stream: entries fire, products
    // land outside Z's pattern, frontiers leave rows empty, both mask
    // settings and every pool size are drawn, and the parallel path
    // (tasks owning row ranges of Z) runs.
    let mut total = Seen::default();
    let (mut masked, mut unmasked, mut unit, mut weighted) = (0, 0, 0, 0);
    let mut pools = std::collections::BTreeSet::new();
    for i in 0..60u64 {
        let case = SinkCase::generate(0x51AC_0000 + i);
        let seen = mfbc_parallel::with_threads(case.threads, || case.run()).expect("case passes");
        total.fired += seen.fired;
        total.outside += seen.outside;
        total.empty_rows += seen.empty_rows;
        total.parallel |= seen.parallel;
        *(if case.masked {
            &mut masked
        } else {
            &mut unmasked
        }) += 1;
        let is_unit = case.adj.iter().all(|&(_, _, w)| w == 1);
        *(if is_unit { &mut unit } else { &mut weighted }) += 1;
        pools.insert(case.threads);
    }
    assert!(
        total.fired > 0 && total.outside > 0 && total.empty_rows > 0 && total.parallel,
        "{total:?}"
    );
    assert!(masked > 0 && unmasked > 0 && unit > 0 && weighted > 0);
    assert_eq!(pools.into_iter().collect::<Vec<_>>(), THREAD_COUNTS);
}
