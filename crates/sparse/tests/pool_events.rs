//! The pool runs the table steps announce: every call of
//! `spgemm_accumulate_panes`, `spgemm_settle_panes` and
//! `count_children_panes` that fans its rows out on a pool of 2 or 4
//! emits one `Pool` event, and its kernel name, participants, task
//! count and chunk-size histogram are pinned here — busy time is not,
//! it is the clock's. Covered: each step over one whole pane, one row
//! cell and one slab (the blocks labelled `spgemm_accumulate`,
//! `spgemm_settle` and `count_children`, as one rank runs them), and
//! over two panes side by side, three slabs and two row cells. At pool 1 the rows run on the caller and nothing is emitted,
//! which is why no golden recorded at pool 1 covers these events.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::{MinDist, Monoid};
use mfbc_algebra::{Centpath, Dist, Multpath, MultpathMonoid};
use mfbc_conformance::rng::SplitMix64;
use mfbc_sparse::slice::slice;
use mfbc_sparse::spgemm::opened;
use mfbc_sparse::transpose::transpose;
use mfbc_sparse::{
    count_children_panes, spgemm_accumulate_panes, spgemm_settle_panes, Coo, Csr, Pane, Slabs,
    Table,
};
use mfbc_trace::{MemoryRecorder, TraceEvent};
use std::fmt::Write;
use std::ops::Range;
use std::sync::Arc;

/// Output rows: enough for the row fan-out to run.
const N: usize = 200;
/// Inner dimension.
const K: usize = 60;
/// Output columns.
const M: usize = 90;
/// Where the right operand's slabs start.
const SLABS: [usize; 2] = [30, 60];
/// The row cells.
const CELLS: [usize; 3] = [0, 70, N];
/// The columns of the two panes.
const PANES: [Range<usize>; 2] = [0..50, 50..M];

/// An `n × m` matrix holding each entry with chance `1 / den` — four
/// times that in its first fifth of rows, so that ranges balanced by
/// flops differ in length — of weights 1 to 9.
fn sparse<Mo: Monoid>(
    rng: &mut SplitMix64,
    (n, m): (usize, usize),
    den: u64,
    val: impl Fn(Dist) -> Mo::Elem,
) -> Csr<Mo::Elem> {
    let mut coo = Coo::new(n, m);
    for i in 0..n {
        let den = if i < n / 5 { den.div_ceil(4) } else { den };
        for j in 0..m {
            if rng.chance(1, den) {
                coo.push(i, j, val(Dist::new(rng.range(1, 10) as u64)));
            }
        }
    }
    coo.into_csr::<Mo>()
}

/// The panes' columns of `m`.
fn cols<T: Clone>(m: &Csr<T>) -> [Csr<T>; 2] {
    PANES.map(|c| slice(m, 0..N, c))
}

/// One line per `Pool` event `run` emits on the calling thread.
fn pool_events(run: impl FnOnce()) -> String {
    let rec = Arc::new(MemoryRecorder::new());
    mfbc_trace::scoped(rec.clone(), run);
    let mut out = String::new();
    for r in rec.take() {
        if let TraceEvent::Pool {
            kernel,
            threads,
            tasks,
            chunk_hist,
            ..
        } = r.event
        {
            writeln!(
                out,
                "{kernel} threads={threads} tasks={tasks} hist={chunk_hist:?}"
            )
            .unwrap();
        }
    }
    out
}

/// Every step's events at pools 2 and 4, one block per call.
fn events() -> String {
    let mut rng = SplitMix64::new(0x5EED_F00D);
    let a = sparse::<MinDist>(&mut rng, (N, K), 12, |d| d);
    let b = sparse::<MinDist>(&mut rng, (K, M), 10, |d| d);
    let seed = sparse::<MinDist>(&mut rng, (N, M), 6, |d| d);
    let side = sparse::<MinDist>(&mut rng, (N, M), 3, |d| d);
    let t = sparse::<MultpathMonoid>(&mut rng, (N, M), 4, |d| Multpath::new(d, 1.0));
    let at = transpose(&sparse::<MinDist>(&mut rng, (M, M), 8, |d| d));
    let left = sparse::<MinDist>(&mut rng, (N, M), 5, |d| d);
    let slabs = |m| Slabs::new(m, &SLABS);

    let keep = |g: &Dist, _: Option<&Dist>, _: &Dist| Some(*g);
    let settle_fire = |z: &mut Dist, s: &Dist| (z.raw() % 2 == s.raw() % 2).then_some(*z);
    let count_fire = |z: &mut Centpath, _: &Multpath| (z.c == 0).then_some(*z);
    let mut out = String::new();
    for threads in [2, 4] {
        let mut step = |name: &str, run: &mut dyn FnMut()| {
            let got = mfbc_parallel::with_threads(threads, || pool_events(run));
            write!(out, "-- {name}, pool {threads}\n{got}").unwrap();
        };
        step("spgemm_accumulate", &mut || {
            let mut table = Table::from_csr(&seed, true);
            let one = &mut [Pane::whole(&mut table)];
            spgemm_accumulate_panes::<TropicalKernel>(&a, Slabs::whole(&b), &[0, N], one, keep);
        });
        step("spgemm_settle", &mut || {
            let mut z = Table::on_pattern(&side, |s| *s);
            let (b, one) = (Slabs::whole(&b), &mut [Pane::whole(&mut z)]);
            spgemm_settle_panes::<TropicalKernel, Dist>(
                &a,
                b,
                &[0, N],
                None,
                one,
                &[&side],
                settle_fire,
            );
        });
        step("count_children", &mut || {
            let mut z = Table::on_pattern(&t, opened);
            let (tau, one) = (|mp: &Multpath| mp.w, &mut [Pane::whole(&mut z)]);
            let at = Slabs::whole(&at);
            count_children_panes(&t, tau, at, &[0, N], one, &[&t], true, count_fire);
        });
        step("spgemm_accumulate_panes", &mut || {
            let mut tables = cols(&seed).map(|s| Table::from_csr(&s, true));
            let mut panes = tables.each_mut().map(Pane::whole);
            spgemm_accumulate_panes::<TropicalKernel>(&a, slabs(&b), &CELLS, &mut panes, keep);
        });
        step("spgemm_settle_panes", &mut || {
            let sides = cols(&side);
            let mut tables = sides.each_ref().map(|s| Table::on_pattern(s, |v| *v));
            let mut panes = tables.each_mut().map(Pane::whole);
            let sides = sides.each_ref();
            let (b, fire) = (slabs(&b), settle_fire);
            spgemm_settle_panes::<TropicalKernel, Dist>(
                &a, b, &CELLS, None, &mut panes, &sides, fire,
            );
        });
        step("count_children_panes", &mut || {
            let sides = cols(&t);
            let mut tables = sides.each_ref().map(|s| Table::on_pattern(s, opened));
            let mut panes = tables.each_mut().map(Pane::whole);
            let (tau, sides) = (|w: &Dist| *w, sides.each_ref());
            let at = slabs(&at);
            count_children_panes(&left, tau, at, &CELLS, &mut panes, &sides, true, count_fire);
        });
    }
    out
}

/// The events, one block per call and pool. A product's rows are
/// weighed by its operands: `count_children_panes` over two panes
/// multiplies another left operand than over one, hence its own
/// histograms.
const EVENTS: &str = "\
-- spgemm_accumulate, pool 2\n\
spgemm threads=2 tasks=8 hist=[0, 0, 0, 4, 0, 4]\n\
-- spgemm_settle, pool 2\n\
spgemm threads=2 tasks=8 hist=[0, 0, 0, 4, 0, 4]\n\
-- count_children, pool 2\n\
count_children threads=2 tasks=8 hist=[0, 0, 0, 4, 0, 4]\n\
-- spgemm_accumulate_panes, pool 2\n\
spgemm threads=2 tasks=8 hist=[0, 0, 0, 4, 0, 4]\n\
-- spgemm_settle_panes, pool 2\n\
spgemm threads=2 tasks=8 hist=[0, 0, 0, 4, 0, 4]\n\
-- count_children_panes, pool 2\n\
count_children threads=2 tasks=8 hist=[0, 0, 0, 3, 1, 4]\n\
-- spgemm_accumulate, pool 4\n\
spgemm threads=4 tasks=16 hist=[0, 0, 8, 0, 8]\n\
-- spgemm_settle, pool 4\n\
spgemm threads=4 tasks=16 hist=[0, 0, 8, 0, 8]\n\
-- count_children, pool 4\n\
count_children threads=4 tasks=16 hist=[0, 0, 8, 0, 8]\n\
-- spgemm_accumulate_panes, pool 4\n\
spgemm threads=4 tasks=16 hist=[0, 0, 8, 0, 8]\n\
-- spgemm_settle_panes, pool 4\n\
spgemm threads=4 tasks=16 hist=[0, 0, 8, 0, 8]\n\
-- count_children_panes, pool 4\n\
count_children threads=4 tasks=16 hist=[0, 0, 6, 4, 6]\n\
";

#[test]
fn each_table_step_announces_its_row_fan_out() {
    assert_eq!(events(), EVENTS);
}
