//! Generalized sparse × sparse matrix multiplication.
//!
//! Computes `C(i,j) = ⊕_k f(A(i,k), B(k,j))` for an arbitrary
//! [`SpMulKernel`] — the `•⟨⊕,f⟩` operator of §3 of the paper — using
//! Gustavson's row-wise algorithm with a dense sparse-accumulator
//! (SPA). This is the open replacement for the MKL SpGEMM variants
//! the paper's implementation calls for blockwise products (§6.2).
//!
//! Besides the output matrix, the multiplication reports the number
//! of *nonzero products* formed — `ops(A, B)` in the paper's §5
//! notation — which the cost model and the TEPS accounting both
//! consume.
//!
//! A finished accumulator row goes to a *row sink*. Draining it into a
//! sorted CSR row builds the product matrix ([`spgemm`] and its masked,
//! serial and optional-mask forms). The sweeps' products are consumed
//! where they land instead, so the product matrix is never built,
//! copied or validated. Three table steps do that, each one masked
//! product into tables side by side (panes) — one pane over a whole
//! table, or the blocks of one block row of a distributed table:
//! - [`spgemm_accumulate_panes`] runs
//!   [`Table::accumulate`](crate::Table::accumulate)'s body on each
//!   row, in the column order draining would emit it (MFBF's `T`);
//! - [`spgemm_settle_panes`] feeds the accumulator's touched list into
//!   [`Table::settle`](crate::Table::settle)'s body (MFBr's `Z`);
//! - [`count_children_panes`] opens `Z` without forming its product at
//!   all: all that survives of it is one integer per entry of `T`,
//!   counted in place by a row kernel of its own, with the product's
//!   `ops`.
//!
//! One driver runs the three. It checks the shapes, finds where the
//! panes sit and builds their mask, runs the rows on the calling thread
//! or on the pool, tallies what each cell of the output formed and
//! gathers what each pane's tasks kept. A step supplies only what
//! differs: what its tables lend the run, its row kernel, and how a
//! pane closes.

use crate::csr::{Csr, Idx};
use crate::elementwise::{assemble_rows, RowChunk};
use crate::few::{Few, FewIter};
use crate::mask::{Mask, MaskKind, MaskRow};
use crate::slabs::Slabs;
use crate::table::{stored, Accumulate, Landed, Landing, Leaves, Pane, Settle, Sink};
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::{Centpath, CentpathMonoid, Dist, Multpath, SpMulKernel};
use mfbc_parallel::balanced_ranges;
use std::ops::Range;
use std::sync::Mutex;

/// Result of a generalized SpGEMM: the product matrix plus the
/// `ops(A, B)` work counter.
#[derive(Clone, Debug)]
pub struct SpGemmOut<T> {
    /// The product `C = A •⟨⊕,f⟩ B`, pruned of monoid identities.
    pub mat: Csr<T>,
    /// Number of non-annihilated elementary products `f(a, b)` formed
    /// (`ops(A,B)` in §5.1).
    pub ops: u64,
}

/// A row's output is emitted without sorting once it has touched at
/// least one in this many of the columns an ordered walk would visit.
const DENSE_DRAIN: usize = 8;

/// Dense sparse-accumulator for one output row, the row's mask
/// included.
///
/// One stamp per column answers everything the row kernel asks about
/// it. Every row takes a fresh even `mark`: `stamp[j] == mark` is the
/// mask's word on column `j` (the pattern row lists it — allowed under
/// a structural mask, excluded under a complement one), `mark + 1`
/// says the row has accumulated into `j`, and any other value that
/// neither holds. Values are lazily reset by overwrite-on-first-touch,
/// so the per-row cost is proportional to the row's flops plus its
/// mask row, not to `ncols`.
///
/// A *counted* accumulator — one for a right operand of several slabs
/// ([`Slabs`]) — also keeps, per column, how many products the row
/// folded into it: a column lies in one slab, so the sink that routes
/// an entry to its slab counts its products there too.
struct Spa<T> {
    stamp: Vec<u32>,
    vals: Vec<T>,
    /// Per column, the products folded in: counted accumulators only.
    hits: Vec<u32>,
    touched: Vec<Idx>,
    mark: u32,
}

impl<T: Clone> Spa<T> {
    fn new(ncols: usize, fill: T, counted: bool) -> Spa<T> {
        Spa {
            stamp: vec![0; ncols],
            vals: vec![fill; ncols],
            hits: if counted { vec![0; ncols] } else { Vec::new() },
            // A row touches a column once: the inner loop's `push`
            // never reallocates.
            touched: Vec::with_capacity(ncols),
            mark: 0,
        }
    }

    /// Opens a row under mask row `pattern` (none without a mask),
    /// stamping each of its segments where it lies, at its shift;
    /// returns the row's `mark` and how many columns the pattern lists.
    #[inline]
    fn begin_row(&mut self, pattern: Option<MaskRow<'_>>) -> (u32, usize) {
        // Marks are even and `mark + 1` must fit: start over before
        // the last even value would be passed.
        if self.mark > u32::MAX - 3 {
            self.stamp.fill(0);
            self.mark = 0;
        }
        self.mark += 2;
        self.touched.clear();
        let mut listed = 0;
        for (cols, d) in pattern.into_iter().flat_map(MaskRow::segments) {
            for &j in cols {
                self.stamp[j.wrapping_add(d) as usize] = self.mark;
            }
            listed += cols.len();
        }
        (self.mark, listed)
    }

    /// Whether the row counts its products per column.
    #[inline]
    fn counted(&self) -> bool {
        !self.hits.is_empty()
    }

    /// Visits the touched entries, identities included, each with the
    /// products folded into it (0 in an uncounted row): in column order
    /// where `ordered` says — `walk` being the row's structural mask
    /// pattern, an ascending superset of the touched columns, if it has
    /// one (see [`in_order`]) — and else in the order they were first
    /// touched.
    #[inline]
    fn drain(
        &mut self,
        ordered: bool,
        walk: Option<Walk<'_>>,
        mut visit: impl FnMut(usize, &T, u64),
    ) {
        let (vals, hits) = (&self.vals, &self.hits);
        let mut emit = |j: Idx| {
            let j = j as usize;
            visit(j, &vals[j], hits.get(j).map_or(0, |&n| u64::from(n)));
        };
        if !ordered {
            self.touched.iter().for_each(|&j| emit(j));
        } else if !self.touched.is_empty() {
            in_order(&self.stamp, &mut self.touched, self.mark + 1, walk, emit);
        }
    }
}

/// Visits the columns a row touched (`stamp[j] == on`) in column order.
/// A dense row is read off `walk`, or off the stamps themselves, in
/// order; only a sparse one sorts what it touched.
#[inline]
fn in_order(
    stamp: &[u32],
    touched: &mut [Idx],
    on: u32,
    walk: Option<Walk<'_>>,
    mut visit: impl FnMut(Idx),
) {
    let dense = touched.len() * DENSE_DRAIN;
    if let Some(walk) = walk.filter(|w| dense >= w.len) {
        walk.row
            .cols()
            .filter(|&j| stamp[j as usize] == on)
            .for_each(visit);
    } else if dense >= stamp.len() {
        (0..stamp.len() as Idx)
            .filter(|&j| stamp[j as usize] == on)
            .for_each(visit);
    } else {
        touched.sort_unstable();
        touched.iter().for_each(|&j| visit(j));
    }
}

/// A row's structural mask pattern — an ascending superset of the
/// columns the row touched — and how many columns it lists.
#[derive(Clone, Copy)]
struct Walk<'m> {
    row: MaskRow<'m>,
    len: usize,
}

/// What becomes of the output rows of one task. The row kernel hands
/// over every row of its range, in order, as the accumulator holds it;
/// a row that formed no product arrives with nothing touched. `walk`
/// is the row's structural mask pattern, if it has one.
trait RowSink<T> {
    fn row(&mut self, i: usize, spa: &mut Spa<T>, walk: Option<Walk<'_>>);
}

/// The sink that builds the product matrix: rows drained in column
/// order into one CSR chunk, identities dropped.
struct Drain<M: Monoid>(RowChunk<M::Elem>);

impl<M: Monoid> RowSink<M::Elem> for Drain<M> {
    fn row(&mut self, _: usize, spa: &mut Spa<M::Elem>, walk: Option<Walk<'_>>) {
        let (rowlen, colind, vals) = &mut self.0;
        let before = colind.len();
        spa.drain(true, walk, |j, v, _| {
            if !M::is_identity(v) {
                colind.push(j as Idx);
                vals.push(v.clone());
            }
        });
        rowlen.push(colind.len() - before);
    }
}

/// The row cells of `cuts` that output rows `rows` meet — row cell `c`
/// is output rows `cuts[c]..cuts[c + 1]` — each with the part of
/// `rows` inside it.
///
/// A band's output is cut into cells: its rows at `cuts`, its columns
/// where the right operand's slabs end ([`Slabs`]). Cell `(c, s)` —
/// row cell `c`, slab `s` — is cell `c * slabs + s`, and every product
/// counts, per cell, the elementary products it formed there and the
/// product entries it delivered there.
fn cut(cuts: &[usize], rows: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let meet = move |(c, w): (usize, &[usize])| {
        let (lo, hi) = (w[0].max(rows.start), w[1].min(rows.end));
        (lo < hi).then_some((c, lo..hi))
    };
    cuts.windows(2).enumerate().filter_map(meet)
}

/// `n` zero counters.
fn zeros<T: Copy + Default>(n: usize) -> Few<T> {
    if n == 1 {
        Few::One(T::default())
    } else {
        Few::Many(vec![T::default(); n])
    }
}

/// What a product formed, per cell of its output ([`cut`]): `(ops,
/// formed)` — the elementary products, and the product entries the
/// panes took in.
type Tally = Few<(u64, u64)>;

/// Adds `from` into `into`, cell by cell.
fn add_cells(into: &mut [(u64, u64)], from: &[(u64, u64)]) {
    for (a, b) in into.iter_mut().zip(from) {
        (a.0, a.1) = (a.0 + b.0, a.1 + b.1);
    }
}

/// One task's share of panes side by side ([`Pane`]): output columns
/// `sits[b].span()` go to `sinks[b]`, shifted to start at 0, and what
/// each cell of the output received is counted there — with, for a
/// counted row, the products folded into each entry. One pane over the
/// whole table is the shared-memory case.
struct Panes<'s, S> {
    sits: &'s [Sits],
    stops: &'s [Stop],
    sinks: Few<S>,
    /// The first cell of the row cell being fed.
    cell: usize,
    /// Per cell, `(ops, formed)` as far as the panes count them.
    counts: Tally,
}

impl<'s, S> Panes<'s, S> {
    fn new(sits: &'s [Sits], stops: &'s [Stop], sinks: Few<S>, cells: usize) -> Self {
        Panes {
            sits,
            stops,
            sinks,
            cell: 0,
            counts: zeros(cells),
        }
    }

    /// The stop of output column `j` of a row whose columns arrive in
    /// ascending order, `b` being the stop of the last one.
    #[inline]
    fn stop(&self, j: usize, b: &mut usize) -> Stop {
        while j >= self.stops[*b].end {
            *b += 1;
        }
        self.stops[*b]
    }
}

/// The entries a [`Sink`] takes.
type Elem<S> = <<S as Sink>::M as Monoid>::Elem;

/// A row of the accumulator into the panes, in one pass over what it
/// touched — in column order where the sinks ask for it — each entry
/// routed to its stop.
impl<S: Sink> RowSink<Elem<S>> for Panes<'_, S> {
    fn row(&mut self, i: usize, spa: &mut Spa<Elem<S>>, walk: Option<Walk<'_>>) {
        // Every column goes to one pane and one cell, uncounted: no
        // entry is routed. (Empty panes or slabs after the last column
        // add no stop, but a pane still closes its rows and a counted
        // row still counts.)
        if self.stops.len() == 1 && self.sinks.len() == 1 && !spa.counted() {
            let (one, mut formed) = (&mut self.sinks[0], 0);
            spa.drain(S::ORDERED, walk, |j, g, _| {
                if !S::M::is_identity(g) {
                    formed += 1;
                    one.entry(i, j, g);
                }
            });
            one.end_row(i);
            self.counts[self.cell].1 += formed;
            return;
        }
        let mut b = 0;
        spa.drain(S::ORDERED, walk, |j, g, hits| {
            let Stop { pane, slab, .. } = match S::ORDERED {
                true => self.stop(j, &mut b),
                false => stop_of(self.stops, j),
            };
            let cell = &mut self.counts[self.cell + slab];
            cell.0 += hits;
            if !S::M::is_identity(g) {
                cell.1 += 1;
                self.sinks[pane].entry(i, j - self.sits[pane].at, g);
            }
        });
        self.sinks.iter_mut().for_each(|s| s.end_row(i));
    }
}

/// Where one pane sits: its window, its table's shape, and the first
/// output column it takes.
#[derive(Clone, Debug)]
struct Sits {
    rows: Range<usize>,
    cols: Range<usize>,
    table: (usize, usize),
    at: usize,
}

impl Sits {
    /// The output columns the pane takes.
    #[inline]
    fn span(&self) -> Range<usize> {
        self.at..self.at + self.cols.len()
    }

    /// The pane's window of its table.
    fn window(&self) -> (Range<usize>, Range<usize>) {
        (self.rows.clone(), self.cols.clone())
    }

    /// The part of table row `cols` inside the window: all of it where
    /// the window spans the table.
    #[inline]
    fn inside(&self, cols: &[Idx]) -> Range<usize> {
        if self.cols.len() == self.table.1 {
            return 0..cols.len();
        }
        let at = |c: usize| cols.partition_point(|&j| (j as usize) < c);
        at(self.cols.start)..at(self.cols.end)
    }
}

/// Where `panes` sit side by side, after checking that they take
/// `nrows` rows and `ncols` columns of output.
fn sits<T: Clone>(nrows: usize, ncols: usize, panes: &[Pane<'_, T>]) -> Few<Sits> {
    let mut at = 0;
    let sit = |p: &Pane<'_, T>| {
        let table = (p.table.nrows(), p.table.ncols());
        assert!(
            p.rows.len() == nrows && p.rows.end <= table.0 && p.cols.end <= table.1,
            "pane {:?} x {:?} of a {}x{} table for {nrows} output rows",
            p.rows,
            p.cols,
            table.0,
            table.1
        );
        at += p.cols.len();
        Sits {
            rows: p.rows.clone(),
            cols: p.cols.clone(),
            table,
            at: at - p.cols.len(),
        }
    };
    let sits = panes.iter().map(sit).collect();
    assert_eq!(at, ncols, "panes cover the output columns");
    sits
}

/// Output columns up to `end` (from where the stop before ends) go to
/// pane `pane` and lie in slab `slab`.
#[derive(Clone, Copy, Debug)]
struct Stop {
    end: usize,
    pane: usize,
    slab: usize,
}

/// Where the output columns change pane or slab, for panes sitting at
/// `sits` over the slabs of `b`.
fn stops<R>(sits: &[Sits], b: Slabs<'_, R>) -> Few<Stop> {
    let (mut pane, mut slab) = (0, 0);
    let next = || {
        if pane == sits.len() || slab == b.count() {
            return None;
        }
        let (pe, se) = (sits[pane].span().end, b.end(slab));
        let stop = Stop {
            end: pe.min(se),
            pane,
            slab,
        };
        pane += usize::from(pe <= se);
        slab += usize::from(se <= pe);
        Some(stop)
    };
    std::iter::from_fn(next).collect()
}

/// The stop of output column `j`, in any column order.
#[inline]
fn stop_of(stops: &[Stop], j: usize) -> Stop {
    stops[stops.partition_point(|s| s.end <= j)]
}

/// The mask a product into panes sitting at `sits` runs under: their
/// tables' `masks` side by side, cut to the panes' windows — `None`
/// where the tables report none. Panes side by side share their rows,
/// so their tables share a height.
fn pane_mask<'m>(sits: &[Sits], masks: Few<Option<Mask<'m>>>) -> Option<Mask<'m>> {
    let (first, last) = (&sits[0], &sits[sits.len() - 1]);
    let masks = match masks {
        Few::One(mask) if (first.rows.len(), first.cols.len()) == first.table => return mask,
        Few::One(mask) => return Some(mask?.window(first.rows.clone(), first.cols.clone())),
        Few::Many(masks) => masks.into_iter().collect::<Option<Vec<_>>>()?,
    };
    let height = first.table.0;
    let mut cols = Vec::with_capacity(sits.len() + 1);
    cols.push(0);
    for s in sits {
        assert_eq!(s.table.0, height, "panes side by side");
        cols.push(cols[cols.len() - 1] + s.table.1);
    }
    let span = first.cols.start..cols[sits.len() - 1] + last.cols.end;
    let tiled = Mask::tiled(masks[0].kind(), vec![0, height], cols, masks);
    Some(tiled.window(first.rows.clone(), span))
}

/// The mask modes of [`multiply_rows`].
const UNMASKED: u8 = 0;
const STRUCTURAL: u8 = 1;
const COMPLEMENT: u8 = 2;

/// The row kernel: Gustavson over output rows `rows` under `mask` read
/// the way `MODE` says, every finished row handed to `sink`. An
/// elementary product whose output column the mask excludes is skipped
/// before `f` is applied — it neither accumulates nor counts toward
/// `ops` — at one stamp load per candidate, masked or not. An empty
/// left-operand row, or a structural mask with an empty pattern row,
/// forms nothing. Row `k` of `b` is read once, as one slice, and
/// contributions to an entry fold in ascending `k`.
///
/// Uncounted (`COUNTED` false), the products formed are added to `ops`.
/// Counted — `b` of several slabs — the accumulator counts them per
/// column instead ([`Spa`]), for the sink to add to the slab each
/// column lies in, and `ops` is left alone.
fn multiply_rows<K: SpMulKernel, const MODE: u8, const COUNTED: bool>(
    (a, b): (&Csr<K::Left>, &Csr<K::Right>),
    mask: Option<&Mask>,
    rows: Range<usize>,
    spa: &mut Spa<KernelOut<K>>,
    sink: &mut impl RowSink<KernelOut<K>>,
    ops: &mut u64,
) {
    let mut formed = 0u64;
    for i in rows {
        if a.row_nnz(i) == 0 {
            spa.touched.clear();
            sink.row(i, spa, None);
            continue;
        }
        let pattern = mask.map(|m| m.row(i));
        let (mark, listed) = spa.begin_row(pattern);
        if MODE == STRUCTURAL && listed == 0 {
            sink.row(i, spa, None);
            continue;
        }
        let on = mark + 1;
        for (k, av) in a.row(i) {
            for (&j, bv) in b.row_cols(k).iter().zip(b.row_vals(k)) {
                let j = j as usize;
                let s = spa.stamp[j];
                let fresh = s != on;
                let excluded = match MODE {
                    STRUCTURAL => s != mark,
                    COMPLEMENT => s == mark,
                    _ => false,
                };
                if fresh && excluded {
                    continue;
                }
                if let Some(c) = K::mul(av, bv) {
                    if !COUNTED {
                        formed += 1;
                    }
                    if fresh {
                        spa.stamp[j] = on;
                        spa.vals[j] = c;
                        spa.touched.push(j as Idx);
                        if COUNTED {
                            spa.hits[j] = 1;
                        }
                    } else {
                        K::Acc::fold_into(&mut spa.vals[j], &c);
                        if COUNTED {
                            spa.hits[j] += 1;
                        }
                    }
                }
            }
        }
        let walk = pattern.filter(|_| MODE == STRUCTURAL);
        sink.row(i, spa, walk.map(|row| Walk { row, len: listed }));
    }
    *ops += formed;
}

/// [`multiply_rows`] in the mode `mask` asks for, counted where
/// `counted` says.
fn multiply<K: SpMulKernel>(
    ab: (&Csr<K::Left>, &Csr<K::Right>),
    mask: Option<&Mask>,
    counted: bool,
    rows: Range<usize>,
    spa: &mut Spa<KernelOut<K>>,
    sink: &mut impl RowSink<KernelOut<K>>,
    ops: &mut u64,
) {
    let (s, o) = (spa, ops);
    match (mask.map(Mask::kind), counted) {
        (None, false) => multiply_rows::<K, UNMASKED, false>(ab, None, rows, s, sink, o),
        (None, true) => multiply_rows::<K, UNMASKED, true>(ab, None, rows, s, sink, o),
        (Some(MaskKind::Structural), false) => {
            multiply_rows::<K, STRUCTURAL, false>(ab, mask, rows, s, sink, o)
        }
        (Some(MaskKind::Structural), true) => {
            multiply_rows::<K, STRUCTURAL, true>(ab, mask, rows, s, sink, o)
        }
        (Some(MaskKind::Complement), false) => {
            multiply_rows::<K, COMPLEMENT, false>(ab, mask, rows, s, sink, o)
        }
        (Some(MaskKind::Complement), true) => {
            multiply_rows::<K, COMPLEMENT, true>(ab, mask, rows, s, sink, o)
        }
    }
}

/// Minimum row count before the parallel SpGEMM fans out; below this
/// the sequential kernel is used outright, avoiding pool latency on
/// tiny products.
const PAR_MIN_ROWS: usize = 32;

/// Tasks created per pool participant. Oversubscription lets the
/// work-stealing cursor absorb the error between the flops *estimate*
/// (every elementary product counted) and the true per-row cost.
const TASKS_PER_THREAD: usize = 4;

/// Per-row flops upper bound over the first `nrows` rows of `a`:
/// `1 + Σ_{k ∈ A.row(i)} nnz(B.row(k))`. The constant keeps empty rows
/// from collapsing a range to zero weight, so partitions stay
/// contiguous and non-degenerate.
fn flops_weights<L, R>(a: &Csr<L>, b: &Csr<R>, nrows: usize) -> Vec<u64> {
    (0..nrows)
        .map(|i| {
            1 + a
                .row_cols(i)
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .collect()
}

/// The output row ranges of a product of `a` and `b`, and whether the
/// pool runs them. All the rows are one range on the calling thread:
/// asked to, or on a one-thread pool, or with too few rows to fan out.
/// Otherwise the ranges are balanced by [`flops_weights`], a few per
/// pool participant.
fn row_ranges<L, R>(a: &Csr<L>, b: &Csr<R>, serial: bool) -> (Few<Range<usize>>, bool) {
    let (nrows, pool) = (a.nrows(), mfbc_parallel::current());
    if serial || pool.threads() == 1 || nrows < PAR_MIN_ROWS {
        return (Few::One(0..nrows), false);
    }
    let weights = flops_weights(a, b, nrows);
    let ranges = balanced_ranges(&weights, pool.threads() * TASKS_PER_THREAD);
    (Few::Many(ranges), true)
}

/// The row fan-out of a product: `work(scratch, range, part)` over each
/// of the output row ranges `ranges` ([`row_ranges`]) with its part, in
/// range order — on the calling thread, or where `pool` says on the
/// pool, one `scratch` per participant, announced as a pool run of
/// `kernel`. The parts come back having seen their rows.
fn fan_out<S: Send, P: Send>(
    kernel: &'static str,
    (ranges, pool): Run<'_>,
    scratch: impl Fn() -> S + Sync,
    mut parts: Vec<P>,
    work: impl Fn(&mut S, Range<usize>, &mut P) + Sync,
) -> Vec<P> {
    if !pool {
        work(&mut scratch(), ranges[0].clone(), &mut parts[0]);
        return parts;
    }
    // One lock per range, taken by the one task that works it.
    let parts: Vec<Mutex<P>> = parts.into_iter().map(Mutex::new).collect();
    let run = |s: &mut S, t: usize| {
        let mut part = parts[t].lock().expect("a row task panicked");
        work(s, ranges[t].clone(), &mut *part);
    };
    let (_, stats) = mfbc_parallel::current().par_scratch_map(scratch, ranges.len(), run);
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Pool {
        kernel,
        threads: stats.threads,
        tasks: stats.tasks,
        busy_us: stats.busy.iter().map(|d| d.as_micros() as u64).collect(),
        chunk_hist: chunk_histogram(ranges.iter().map(|r| r.len())),
    });
    let part = |p: Mutex<P>| p.into_inner().expect("a row task panicked");
    parts.into_iter().map(part).collect()
}

/// Checks that `a` and `b` multiply, and that `mask`, if any, has the
/// shape of their product.
fn assert_shapes<L, R>(a: &Csr<L>, b: &Csr<R>, mask: Option<&Mask>) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "spgemm inner dimension mismatch: {}x{} by {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    if let Some(mask) = mask {
        assert_eq!(
            (mask.nrows(), mask.ncols()),
            (a.nrows(), b.ncols()),
            "mask shape {}x{} does not match output shape {}x{}",
            mask.nrows(),
            mask.ncols(),
            a.nrows(),
            b.ncols()
        );
    }
}

/// Every product matrix: checks shapes, then drains `a` times `b` —
/// under `mask` of the output's shape — into one chunk per row range
/// ([`fan_out`]), on the calling thread where `serial` asks for it.
/// Row partitioning ignores the mask — the unmasked flops are a valid
/// upper bound per row, and identical partitions keep the trace stream
/// stable whether or not a mask is present.
fn product<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: Option<&Mask>,
    serial: bool,
) -> SpGemmOut<KernelOut<K>> {
    assert_shapes(a, b, mask);
    let (ranges, pool) = row_ranges(a, b, serial);
    let drain = |r: &Range<usize>| {
        (
            Drain::<K::Acc>((Vec::with_capacity(r.len()), vec![], vec![])),
            0,
        )
    };
    let drains = ranges.iter().map(drain).collect();
    let spa = || Spa::new(b.ncols(), <K::Acc as Monoid>::identity(), false);
    let work = |spa: &mut _, rows, (sink, ops): &mut (_, u64)| {
        multiply::<K>((a, b), mask, false, rows, spa, sink, ops);
    };
    let drains = fan_out("spgemm", (&ranges, pool), spa, drains, work);
    let ops = drains.iter().map(|d| d.1).sum();
    let chunks = drains.into_iter().map(|(d, _)| d.0).collect();
    SpGemmOut {
        mat: assemble_rows(a.nrows(), b.ncols(), chunks),
        ops,
    }
}

/// How a product's output rows run: its row ranges, and whether on the
/// pool ([`row_ranges`]).
type Run<'r> = (&'r [Range<usize>], bool);

/// Per pane, its table's mask and each row range's share of the pane.
type Lent<'m, S> = Few<(Option<Mask<'m>>, Few<S>)>;

/// The one landing driver: a product landing in panes side by side,
/// its output rows cut into row cells at `cuts` and its columns at the
/// right operand's slabs ([`cut`]). [`Drive::new`] checks the shapes,
/// finds where the panes sit and the slabs stop, and splits the rows
/// between the calling thread and the pool ([`row_ranges`]);
/// [`Drive::run`] runs a step's row kernel over one task's share of
/// every pane per range and tallies each cell. The three table steps —
/// [`spgemm_accumulate_panes`], [`spgemm_settle_panes`] and
/// [`count_children_panes`] — lend their tables to the run and close
/// them; the rest is here, once.
struct Drive<'c> {
    within: Option<&'c Mask<'c>>,
    sits: Few<Sits>,
    stops: Few<Stop>,
    cuts: &'c [usize],
    slabs: usize,
    ranges: Few<Range<usize>>,
    pool: bool,
}

impl<'c> Drive<'c> {
    /// The landing of the product of `a` by `b`'s slabs in `panes` —
    /// under `within`, of the output's shape, where the panes report no
    /// mask.
    ///
    /// # Panics
    /// Panics if the operands do not multiply, `within` has another
    /// shape, `cuts` does not end at `a`'s rows, or the panes do not
    /// take `a`'s rows and `b`'s columns between them.
    fn new<L, R, T: Clone>(
        (a, b): (&Csr<L>, Slabs<'_, R>),
        cuts: &'c [usize],
        within: Option<&'c Mask<'c>>,
        panes: &[Pane<'_, T>],
    ) -> Self {
        assert_shapes(a, b.mat(), within);
        assert_eq!(cuts.last(), Some(&a.nrows()), "row cells cover the rows");
        let sits = sits(a.nrows(), b.mat().ncols(), panes);
        let (ranges, pool) = row_ranges(a, b.mat(), false);
        let stops = stops(&sits, b);
        let slabs = b.count();
        Drive {
            within,
            sits,
            stops,
            cuts,
            slabs,
            ranges,
            pool,
        }
    }

    /// Runs `rows` — a step's row kernel, counted where the right
    /// operand has several slabs ([`multiply_rows`]) — over the rows of
    /// each row cell of each range, into one task's share of every pane
    /// out of `lent`, under the panes' mask, or the driver's `within`
    /// where they report none. A run on the pool is announced as one of
    /// `kernel`,
    /// with one `scratch` per participant. Returns per pane what `keep`
    /// kept of its shares, in range order, and per cell the products
    /// formed and the entries the panes took in.
    fn run<S: Send, X: Send, K: Default>(
        &self,
        kernel: &'static str,
        lent: Lent<'_, S>,
        scratch: impl Fn(bool) -> X + Sync,
        rows: impl Fn(Option<&Mask>, bool, Range<usize>, &mut X, &mut Panes<'_, S>, &mut u64) + Sync,
        mut keep: impl FnMut(&mut K, S),
    ) -> (Few<K>, Tally) {
        let (masks, shares) = lent.unzip();
        let mask = pane_mask(&self.sits, masks);
        let mask = mask.as_ref().or(self.within);
        let (counted, cells) = (self.slabs > 1, (self.cuts.len() - 1) * self.slabs);
        let mut shares: Few<_> = shares.into_iter().map(Few::into_iter).collect();
        let part = |_: &Range<usize>| {
            let share = |s: &mut FewIter<_>| s.next().expect("one share per range");
            Panes::new(
                &self.sits,
                &self.stops,
                shares.iter_mut().map(share).collect(),
                cells,
            )
        };
        let parts = self.ranges.iter().map(part).collect();
        let run = (&self.ranges[..], self.pool);
        let parts = fan_out(
            kernel,
            run,
            || scratch(counted),
            parts,
            |x, range, part| {
                for (c, r) in cut(self.cuts, range) {
                    let mut ops = 0;
                    part.cell = c * self.slabs;
                    rows(mask, counted, r, x, part, &mut ops);
                    part.counts[part.cell].0 += ops;
                }
            },
        );
        let mut counts = zeros(cells);
        let mut kept: Few<K> = self.sits.iter().map(|_| K::default()).collect();
        for part in parts {
            add_cells(&mut counts, &part.counts);
            kept.iter_mut()
                .zip(part.sinks)
                .for_each(|(k, s)| keep(k, s));
        }
        (kept, counts)
    }
}

/// One task's share of a pane the product accumulates into.
///
/// On the calling thread each row goes into the table as it is
/// finished: the arena is appended to and the slots written in place,
/// and what `keep` lets through is the landing as it was written. An
/// arena is append-only, so on the pool each task drains its rows, and
/// the pane then feeds them to the same body in row order — measured
/// faster than tasks that grow arenas of their own, stitched after the
/// product, or that read the table and leave what they change to a
/// serial pass (EXPERIMENTS.md).
enum Grow<'a, M: Monoid, F> {
    Now(Accumulate<'a, M, F>),
    Later(Drained<M::Elem>),
}

/// Rows drained for a table: where each row ends, counted from the
/// first row's start, the entries' window columns and their values.
type Drained<T> = (Vec<usize>, Vec<Idx>, Vec<T>);

impl<M, F> Sink for Grow<'_, M, F>
where
    M: Monoid,
    F: Fn(&M::Elem, Option<&M::Elem>, &M::Elem) -> Option<M::Elem>,
{
    type M = M;
    const ORDERED: bool = true;

    #[inline]
    fn entry(&mut self, i: usize, j: usize, g: &M::Elem) {
        match self {
            Grow::Now(table) => table.entry(i, j, g),
            Grow::Later((_, cols, vals)) => {
                cols.push(j as Idx);
                vals.push(g.clone());
            }
        }
    }

    #[inline]
    fn end_row(&mut self, i: usize) {
        match self {
            Grow::Now(table) => table.end_row(i),
            Grow::Later((ends, cols, _)) => ends.push(cols.len()),
        }
    }
}

/// `T := T ⊕ (A •⟨⊕,f⟩ B)`, the product consumed where it lands
/// (Algorithm 1, lines 4–6): the product of `a` by `b` into `panes`
/// side by side, under their tables' masks, every finished accumulator
/// row fed to [`Table::accumulate`](crate::Table::accumulate)'s body in
/// the column order draining would emit it — no product matrix is
/// built. Output `(i, j)` is explored entry `(i, j)` of the pane
/// holding column `j`, at its window. Per pane, what `keep` let through
/// (in window coordinates) and the explored entries it took in; and per
/// cell of the output — its rows cut at `cuts`, its columns at `b`'s
/// slabs, cell `(c, s)` at `c * slabs + s` — the products formed and
/// the explored entries taken in. Bit-identical, pane for pane, to
/// [`spgemm_opt`] followed by
/// [`Table::accumulate`](crate::Table::accumulate) of the window of its
/// product, at any thread count, and cell for cell to the `ops` and
/// entries of the product of the cell's rows of `a` by its slab. One
/// pane over the whole table ([`Pane::whole`]), cuts `[0, a.nrows()]`
/// and [`Slabs::whole`] is the one-rank step.
///
/// # Panics
/// Panics if the panes do not take `a`'s rows and `b`'s columns between
/// them, `cuts` does not end at `a`'s rows, and where [`spgemm_opt`] or
/// [`Table::accumulate`](crate::Table::accumulate) would.
pub fn spgemm_accumulate_panes<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: Slabs<'_, K::Right>,
    cuts: &[usize],
    panes: &mut [Pane<'_, KernelOut<K>>],
    keep: impl Fn(&KernelOut<K>, Option<&KernelOut<K>>, &KernelOut<K>) -> Option<KernelOut<K>> + Sync,
) -> (Few<Landed<KernelOut<K>>>, Few<(u64, u64)>) {
    // MFBF's step: each task's share of a pane is a `Grow`.
    let keep = &keep;
    let drive = Drive::new((a, b), cuts, None, panes);
    let drain = |r: &Range<usize>| Grow::Later((Vec::with_capacity(r.len()), vec![], vec![]));
    let lent = (panes.iter_mut().zip(drive.sits.iter())).map(|(pane, at)| {
        if drive.pool {
            return (pane.table.mask(), drive.ranges.iter().map(drain).collect());
        }
        // Room for one kept entry per row: reserving the frontier's
        // size instead, ahead of the product that grows the arena,
        // raised `mfbc_seq`'s peak RSS on the weighted grid by 3–6 %
        // (EXPERIMENTS.md).
        let (mask, table) = pane
            .table
            .grow::<K::Acc, _>(keep, at.rows.len(), at.window());
        (mask, Few::One(Grow::Now(table)))
    });
    let kept = |(landing, drained): &mut (Option<Landing<_>>, Vec<_>), share| match share {
        Grow::Now(table) => *landing = Some(table.finish()),
        Grow::Later(rows) => drained.push(rows),
    };
    let (ab, n) = ((a, b.mat()), b.mat().ncols());
    let spa = |counted| Spa::new(n, <K::Acc as Monoid>::identity(), counted);
    let (kept, tally) = drive.run(
        "spgemm",
        lent.collect(),
        spa,
        |mask, counted, rows, spa, part, ops| {
            multiply::<K>(ab, mask, counted, rows, spa, part, ops)
        },
        kept,
    );
    let close = |((pane, (landing, drained)), at): ((&mut Pane<'_, _>, (Option<_>, Vec<_>)), _)| {
        let landing = landing.unwrap_or_else(|| {
            // No more entries can be kept than were drained.
            let expect = drained.iter().map(|d: &Drained<_>| d.1.len()).sum();
            let (_, mut table) = pane.table.grow::<K::Acc, _>(keep, expect, Sits::window(at));
            let mut i = 0;
            for (ends, cols, vals) in drained {
                let mut start = 0;
                for end in ends {
                    for (&j, g) in cols[start..end].iter().zip(&vals[start..end]) {
                        table.entry(i, j as usize, g);
                    }
                    table.end_row(i);
                    (start, i) = (end, i + 1);
                }
            }
            table.finish()
        });
        pane.table.land(landing)
    };
    let landed = panes.iter_mut().zip(kept).zip(drive.sits.iter()).map(close);
    (landed.collect(), tally)
}

/// Pane `pane` of `Z`, sitting at `at`, lent to `run` with `side`
/// beside it: its table's mask, and per range a [`Settle`] into its
/// rows, with room for `expect` of the range to fire, keeping what
/// waits where `track` says.
fn lend_z<'a, M, U, F>(
    (pane, side, at): (&'a mut Pane<'_, M::Elem>, &'a Csr<U>, &Sits),
    (ranges, _): Run<'_>,
    fire: &'a F,
    expect: impl Fn(&Range<usize>) -> usize,
    track: bool,
) -> (Option<Mask<'a>>, Few<Settle<'a, M, U, F>>)
where
    M: Monoid,
    F: Fn(&mut M::Elem, &U) -> Option<M::Elem>,
{
    let (mask, rows) = pane.table.lend(side);
    let window = (at.rows.start, at.cols.start);
    let split = rows.split(ranges, at.rows.start).into_iter().zip(ranges);
    let settle = |(rows, r)| Settle::new(rows, fire, expect(r), window, track);
    (mask, split.map(settle).collect())
}

/// What a pane of `Z` keeps of a task's share: what it fired, in range
/// order, and the entries it took in.
fn keep_z<M: Monoid, U, F>((fired, n): &mut (Vec<Leaves<M::Elem>>, usize), s: Settle<'_, M, U, F>) {
    fired.push(s.fired);
    *n += s.received;
}

/// `Z := Z ⊗ (A •⟨⊗,g⟩ B)`, the product consumed where it lands
/// (Algorithm 2, lines 6–11): the product of `a` by `b` into `panes`
/// side by side, each table opened on the pattern of the matrix beside
/// it in `sides`, every finished accumulator row fed as the update to
/// [`Table::settle`](crate::Table::settle)'s body — the product matrix
/// itself is never built. It runs under the tables' masks where they
/// report them, under `within` (of the output's shape) otherwise. Per
/// pane, what `fire` emitted (in window coordinates) and the updates it
/// took in, on the pattern or not; and per cell of the output (as
/// [`spgemm_accumulate_panes`] cuts it) the products formed and the
/// updates taken in. Bit-identical, pane for pane, to [`spgemm_opt`]
/// followed by [`Table::settle`](crate::Table::settle) of the window of
/// its product, at any thread count. Parallel tasks own disjoint row
/// ranges of every table.
///
/// # Panics
/// Panics if the panes do not take `a`'s rows and `b`'s columns between
/// them, `cuts` does not end at `a`'s rows, and where [`spgemm_opt`] or
/// [`Table::settle`](crate::Table::settle) would.
pub fn spgemm_settle_panes<K: SpMulKernel, U: Sync>(
    a: &Csr<K::Left>,
    b: Slabs<'_, K::Right>,
    cuts: &[usize],
    within: Option<&Mask>,
    panes: &mut [Pane<'_, KernelOut<K>>],
    sides: &[&Csr<U>],
    fire: impl Fn(&mut KernelOut<K>, &U) -> Option<KernelOut<K>> + Sync,
) -> (Few<Landed<KernelOut<K>>>, Few<(u64, u64)>) {
    assert_eq!(sides.len(), panes.len(), "one side per pane");
    let fire = &fire;
    let drive = Drive::new((a, b), cuts, within, panes);
    let run = (&drive.ranges[..], drive.pool);
    // A frontier is followed by one of its own order: the rows' share
    // of `a` is the guess for what they fire. The mask borrows the
    // pending rows the entries it fires must leave: the tables are
    // settled during the product, the rows are shrunk after it, by
    // what came out.
    let expect = |r: &Range<usize>| (a.rowptr()[r.end] - a.rowptr()[r.start]) / sides.len();
    let lent = (panes.iter_mut().zip(sides).zip(drive.sits.iter()))
        .map(|((pane, side), at)| lend_z((pane, *side, at), run, fire, expect, false));
    let (ab, n) = ((a, b.mat()), b.mat().ncols());
    let spa = |counted| Spa::new(n, <K::Acc as Monoid>::identity(), counted);
    let (kept, tally) = drive.run(
        "spgemm",
        lent.collect(),
        spa,
        |mask, counted, rows, spa, part, ops| {
            multiply::<K>(ab, mask, counted, rows, spa, part, ops)
        },
        keep_z::<K::Acc, U, _>,
    );
    let close = |((pane, (fired, received)), at): ((&mut Pane<'_, _>, (Vec<_>, _)), &Sits)| {
        let landed = Leaves::join(fired, (at.rows.len(), at.cols.len()));
        pane.table
            .retire(&landed.out, (at.rows.start, at.cols.start));
        Landed { received, ..landed }
    };
    let landed = panes.iter_mut().zip(kept).zip(drive.sits.iter()).map(close);
    (landed.collect(), tally)
}

/// One column of [`count_children_panes`]' dense buffer while a row is
/// counted: whether `T`'s row lists it, how many candidates reached it,
/// the weight a child's contribution must match, and how many did.
#[derive(Clone, Copy, Default)]
struct Child {
    listed: bool,
    /// The candidates formed here: nonzero where the count product has
    /// an entry.
    hits: u32,
    matched: u32,
    /// `τ(s,v)` — or `u64::MAX`, which nothing matches, once a heavier
    /// contribution has arrived: "greater wins" would keep that one,
    /// and the anchor discard it.
    tau: u64,
}

/// The entry a table opened for [`count_children_panes`] holds at
/// `T`'s entry `mp` before it is counted: `(τ, 0, 0)`.
pub fn opened(mp: &Multpath) -> Centpath {
    stored::<CentpathMonoid>(Centpath::new(mp.w, 0.0, 0))
}

/// The dependency-counter anchor of Algorithm 2: given the
/// child-count accumulation `d` for a vertex whose shortest-path
/// weight is `tau_w`, the initial centpath is `(τ, 0, #children)` —
/// contributions of other weights are discarded (they come from
/// non-shortest-path edges).
#[inline]
pub fn mfbr_anchor(tau: &Multpath, d: Option<&Centpath>) -> Centpath {
    let deps = match d {
        Some(c) if c.w == tau.w => c.c,
        _ => 0,
    };
    Centpath::new(tau.w, 0.0, deps)
}

/// Algorithm 2, lines 1–4, without the product: `Z` opened on `T`'s
/// pattern, every entry anchored at `(τ, 0, #children)`, and the leaves
/// `fire` emits, counted in `panes` side by side — each table [`opened`]
/// on the matrix beside it in `sides` (the window's block of `T`) —
/// off the seeds `left`, `τ(s,w)` being `tau` of each entry. Row by
/// row, the seeds' row is scattered into a dense buffer; every
/// candidate `(s,w)`, `v ∈ at.row(w)` with `τ(s,w) ≥ A(v,w)` — where
/// `BrandesKernel` forms a product — counts towards `ops`, and bumps
/// `v`'s count where `τ(s,w) − A(v,w) = τ(s,v)` and `(s,v)` is in a
/// pane's window of `T`; then the row's counts are written, and
/// `fire(&mut z_val, t_val)` has its one chance to rewrite each entry
/// and emit a leaf.
///
/// With `masked`, only candidates with `(s,v) ∈ T` are formed, and the
/// coordinates `fire` returned `None` on are *pending*: per pane, the
/// table columns of each window row that wait, for
/// [`Table::pend`](crate::Table::pend). Without it, a candidate outside
/// `T`'s pattern counts towards `ops` and lands nowhere.
///
/// Per pane, the leaves `fire` emitted (window coordinates) and how
/// many entries the count product would have held in the window; and
/// per cell of the output (as [`spgemm_accumulate_panes`] cuts it) the
/// products the count stands for and the count product's entries.
/// Bit-identical to [`Table::anchor`](crate::Table::anchor) of each
/// side against the window of the product of `(τ, 0, 1)` seeds on the
/// seeds' entries with `at` (under `T`'s structural pattern when
/// `masked`), with [`mfbr_anchor`] as `init`, and to that product's
/// `ops`, on any table and at any thread count: a count is an integer,
/// whatever order it is summed in, and is zeroed where a contribution
/// heavier than `τ(s,v)` arrived, as the product's "greater wins" and
/// the anchor's compare zero it. Parallel tasks own disjoint row ranges
/// of `Z`.
///
/// # Panics
/// Panics if the panes do not take `left`'s rows and `at`'s columns
/// between them, `cuts` does not end at `left`'s rows, a table is not
/// on its side's pattern, the seeds store an infinite weight or `fire`
/// emits an identity.
#[allow(clippy::too_many_arguments)]
pub fn count_children_panes<L: Sync>(
    left: &Csr<L>,
    tau: impl Fn(&L) -> Dist + Sync,
    at: Slabs<'_, Dist>,
    cuts: &[usize],
    panes: &mut [Pane<'_, Centpath>],
    sides: &[&Csr<Multpath>],
    masked: bool,
    fire: impl Fn(&mut Centpath, &Multpath) -> Option<Centpath> + Sync,
) -> (Few<Landed<Centpath>>, Few<(u64, u64)>) {
    assert_eq!(sides.len(), panes.len(), "one side per pane");
    let counting = Counting {
        left,
        tau,
        at,
        masked,
    };
    // A task's share of a pane is a `Settle` that the count writes and
    // fires into itself, its `received` the count product's entries.
    let fire = &fire;
    let drive = Drive::new((counting.left, counting.at), cuts, None, panes);
    let run = (&drive.ranges[..], drive.pool);
    let lend = |((pane, side), at)| lend_z((pane, side, at), run, fire, |_| 0, counting.masked).1;
    let lent = (panes
        .iter_mut()
        .zip(sides.iter().copied())
        .zip(drive.sits.iter()))
    .map(|lent| (None, lend(lent)));
    let ncols = counting.at.mat().ncols();
    let (kept, tally) = drive.run(
        "count_children",
        lent.collect(),
        |_| (vec![Child::default(); ncols], Vec::new()),
        |_, counted, rows, scratch, part, ops| match counted {
            true => counting.rows::<true, _>(rows, scratch, part, ops),
            false => counting.rows::<false, _>(rows, scratch, part, ops),
        },
        keep_z::<CentpathMonoid, Multpath, _>,
    );
    let close = |((fired, received), at): ((Vec<_>, _), &Sits)| {
        let joined = Leaves::join(fired, (at.rows.len(), at.cols.len()));
        Landed { received, ..joined }
    };
    (
        kept.into_iter().zip(drive.sits.iter()).map(close).collect(),
        tally,
    )
}

/// What every task of an opening count counts against: the seeds
/// `left`, `τ(s,w)` being `tau` of each entry, against `at`; with
/// `masked`, only candidates inside `T` are formed.
struct Counting<'o, L, Tau> {
    left: &'o Csr<L>,
    tau: Tau,
    at: Slabs<'o, Dist>,
    masked: bool,
}

impl<L, Tau: Fn(&L) -> Dist> Counting<'_, L, Tau> {
    /// [`count_children_panes`] over output rows `rows`, all in the row
    /// cell `part` is fed, into one task's share of every pane. Row `w`
    /// of `at` is read once, as one slice. Uncounted, the products
    /// formed are added to `ops`; `COUNTED` — `at` of several slabs —
    /// each column's products are added to its cell where the column's
    /// entry is routed, strays included, and `ops` is left alone. Every
    /// row leaves the buffer's cells as it found them.
    fn rows<const COUNTED: bool, F: Fn(&mut Centpath, &Multpath) -> Option<Centpath>>(
        &self,
        rows: Range<usize>,
        (cells, strays): &mut (Vec<Child>, Vec<Idx>),
        part: &mut Panes<'_, Settle<'_, CentpathMonoid, Multpath, F>>,
        ops: &mut u64,
    ) {
        let (left, at, masked) = (self.left, self.at.mat(), self.masked);
        let (sits, stops, first) = (part.sits, part.stops, part.cell);
        let (panes, counts) = (&mut part.sinks, &mut part.counts);
        let mut formed = 0u64;
        for i in rows {
            for (share, s) in panes.iter_mut().zip(sits) {
                let (cols, _, ts) = share.rows.row(s.rows.start + i);
                let span = s.inside(cols);
                for (&v, tv) in cols[span.clone()].iter().zip(&ts[span]) {
                    cells[v as usize - s.cols.start + s.at] = Child {
                        listed: true,
                        hits: 0,
                        matched: 0,
                        tau: tv.w.raw(),
                    };
                }
            }
            for (&w, lw) in left.row_cols(i).iter().zip(left.row_vals(i)) {
                let tw = (self.tau)(lw).raw();
                let w = w as usize;
                for (&v, a) in at.row_cols(w).iter().zip(at.row_vals(w)) {
                    // `τ(s,w)` is finite: an infinite `A(v,w)` lands here too.
                    if a.raw() > tw {
                        continue;
                    }
                    let v = v as usize;
                    let c = &mut cells[v];
                    if !c.listed {
                        if !masked {
                            formed += u64::from(!COUNTED);
                            c.hits += 1;
                            if c.hits == 1 {
                                strays.push(v as Idx);
                            }
                        }
                        continue;
                    }
                    formed += u64::from(!COUNTED);
                    c.hits += 1;
                    // Whether `w` is a child of `v` is the unpredictable
                    // branch of the loop: counted without one.
                    let back = tw - a.raw();
                    c.matched += u32::from(back == c.tau);
                    if back > c.tau {
                        c.tau = u64::MAX;
                    }
                }
            }
            let mut b = 0;
            for (share, s) in panes.iter_mut().zip(sits) {
                let (cols, zs, ts) = share.rows.row(s.rows.start + i);
                let span = s.inside(cols);
                let (cols, zs, ts) = (&cols[span.clone()], &mut zs[span.clone()], &ts[span]);
                for ((&v, zv), tv) in cols.iter().zip(zs.iter_mut()).zip(ts) {
                    let out = v as usize - s.cols.start + s.at;
                    let c = std::mem::take(&mut cells[out]);
                    if c.hits > 0 {
                        share.received += 1;
                        while out >= stops[b].end {
                            b += 1;
                        }
                        let cell = &mut counts[first + stops[b].slab];
                        cell.1 += 1;
                        if COUNTED {
                            cell.0 += u64::from(c.hits);
                        }
                    }
                    if c.tau == tv.w.raw() {
                        zv.c = i64::from(c.matched);
                    }
                }
                share
                    .fired
                    .row::<CentpathMonoid, _>(cols, zs, ts, share.fire);
            }
            for v in strays.drain(..) {
                let v = v as usize;
                let hits = std::mem::take(&mut cells[v]).hits;
                let stop = stop_of(stops, v);
                panes[stop.pane].received += 1;
                let cell = &mut counts[first + stop.slab];
                cell.1 += 1;
                if COUNTED {
                    cell.0 += u64::from(hits);
                }
            }
        }
        *ops += formed;
    }
}

/// Sequential generalized SpGEMM (row-wise Gustavson).
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn spgemm_serial<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
) -> SpGemmOut<KernelOut<K>> {
    product::<K>(a, b, None, true)
}

/// Sequential masked SpGEMM: like [`spgemm_serial`] but elementary
/// products whose output coordinate `mask` excludes are skipped
/// before they are formed (not accumulated, not counted in `ops`).
///
/// # Panics
/// Panics if the inner dimensions disagree or the mask shape differs
/// from the output shape.
pub fn spgemm_masked_serial<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: &Mask,
) -> SpGemmOut<KernelOut<K>> {
    product::<K>(a, b, Some(mask), true)
}

/// Row-parallel generalized SpGEMM on the `mfbc-parallel` pool
/// ([`mfbc_parallel::current`]), with flops-balanced row partitioning
/// and one reusable SPA per pool participant.
///
/// Deterministic: each output row is produced by exactly one task,
/// chunks are assembled in row order, and every accumulation happens
/// in ascending-`k` order within a row — so the result (entries *and*
/// the `ops` counter) is bit-identical to [`spgemm_serial`] at any
/// thread count, even for non-commutative payload effects like `f64`
/// summation order.
pub fn spgemm<K: SpMulKernel>(a: &Csr<K::Left>, b: &Csr<K::Right>) -> SpGemmOut<KernelOut<K>> {
    product::<K>(a, b, None, false)
}

/// Row-parallel masked SpGEMM. Same determinism contract as
/// [`spgemm`]: results (entries *and* `ops`) are bit-identical to
/// [`spgemm_masked_serial`] at any thread count.
pub fn spgemm_masked<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: &Mask,
) -> SpGemmOut<KernelOut<K>> {
    product::<K>(a, b, Some(mask), false)
}

/// The masked or unmasked parallel multiplication — the form the
/// distributed layers call with their per-block mask windows.
pub fn spgemm_opt<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: Option<&Mask>,
) -> SpGemmOut<KernelOut<K>> {
    product::<K>(a, b, mask, false)
}

/// Log2-bucketed size histogram: slot `b` counts chunks whose size
/// lies in `[2^b, 2^{b+1})`.
pub(crate) fn chunk_histogram(sizes: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut hist: Vec<u64> = Vec::new();
    for size in sizes {
        let bucket = usize::BITS as usize - 1 - size.max(1).leading_zeros() as usize;
        if hist.len() <= bucket {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::table::Table;
    use mfbc_algebra::kernel::{BellmanFordKernel, BrandesKernel, TropicalKernel};
    use mfbc_algebra::monoid::MinDist;
    use mfbc_algebra::{Dist, Multpath, MultpathMonoid};

    fn dist_mat(n: usize, m: usize, triples: &[(usize, usize, u64)]) -> Csr<Dist> {
        Coo::from_triples(n, m, triples.iter().map(|&(i, j, w)| (i, j, Dist::new(w))))
            .into_csr::<MinDist>()
    }

    #[test]
    fn tropical_identity_multiplication() {
        // I (0 on diagonal) times A equals A under min-plus.
        let a = dist_mat(3, 3, &[(0, 1, 4), (1, 2, 7), (2, 0, 1)]);
        let eye = dist_mat(3, 3, &[(0, 0, 0), (1, 1, 0), (2, 2, 0)]);
        let c = spgemm_serial::<TropicalKernel>(&eye, &a);
        assert_eq!(c.mat, a);
        assert_eq!(c.ops, 3);
    }

    #[test]
    fn tropical_two_hop_paths() {
        // Path graph 0 -> 1 -> 2 with weights 4, 7: A² gives 0->2 = 11.
        let a = dist_mat(3, 3, &[(0, 1, 4), (1, 2, 7)]);
        let c = spgemm_serial::<TropicalKernel>(&a, &a).mat;
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 2), Some(&Dist::new(11)));
    }

    #[test]
    fn min_accumulation_picks_shortest() {
        // Two 2-hop routes 0->2: via 1 (3+9=12) and via 3 (5+2=7).
        let a = dist_mat(4, 4, &[(0, 1, 3), (1, 2, 9), (0, 3, 5), (3, 2, 2)]);
        let c = spgemm_serial::<TropicalKernel>(&a, &a).mat;
        assert_eq!(c.get(0, 2), Some(&Dist::new(7)));
    }

    #[test]
    fn multpath_product_sums_tied_multiplicities() {
        // Frontier holds source 0 at vertices 1 and 3, both multpath
        // weight 1; both reach vertex 2 with total weight 3 -> m = 2.
        let f = Coo::from_triples(
            1,
            4,
            vec![
                (0usize, 1usize, Multpath::new(Dist::new(1), 1.0)),
                (0, 3, Multpath::new(Dist::new(1), 1.0)),
            ],
        )
        .into_csr::<MultpathMonoid>();
        let a = dist_mat(4, 4, &[(1, 2, 2), (3, 2, 2)]);
        let g = spgemm_serial::<BellmanFordKernel>(&f, &a);
        assert_eq!(g.mat.get(0, 2), Some(&Multpath::new(Dist::new(3), 2.0)));
        assert_eq!(g.ops, 2);
    }

    #[test]
    fn empty_operands() {
        let a = Csr::<Dist>::zero(3, 4);
        let b = Csr::<Dist>::zero(4, 2);
        let c = spgemm_serial::<TropicalKernel>(&a, &b);
        assert_eq!(c.mat.nnz(), 0);
        assert_eq!(c.ops, 0);
        assert_eq!((c.mat.nrows(), c.mat.ncols()), (3, 2));
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Csr::<Dist>::zero(3, 4);
        let b = Csr::<Dist>::zero(5, 2);
        let _ = spgemm_serial::<TropicalKernel>(&a, &b);
    }

    #[test]
    fn parallel_matches_serial_on_larger_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let n = 200;
        let mut coo = Coo::new(n, n);
        for _ in 0..4000 {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            coo.push(i, j, Dist::new(rng.gen_range(1..100)));
        }
        let a = coo.into_csr::<MinDist>();
        let s = spgemm_serial::<TropicalKernel>(&a, &a);
        let p = spgemm::<TropicalKernel>(&a, &a);
        assert_eq!(s.mat, p.mat);
        assert_eq!(s.ops, p.ops);
        assert!(s.ops > 0);
    }

    #[test]
    fn parallel_bit_identical_across_thread_counts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 150;
        let mut coo = Coo::new(n, n);
        for _ in 0..3000 {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            coo.push(i, j, Dist::new(rng.gen_range(1..50)));
        }
        let a = coo.into_csr::<MinDist>();
        let reference = spgemm_serial::<TropicalKernel>(&a, &a);
        for threads in [1, 2, 4, 8] {
            let p = mfbc_parallel::with_threads(threads, || spgemm::<TropicalKernel>(&a, &a));
            assert_eq!(reference.mat, p.mat, "entries differ at {threads} threads");
            assert_eq!(reference.ops, p.ops, "ops differ at {threads} threads");
        }
    }

    #[test]
    fn structural_mask_skips_products_and_ops() {
        use crate::mask::{Mask, MaskKind};
        // Two 2-hop routes 0->2 plus a route 0->? : mask keeps only
        // (0,2), so the products into other columns are never formed.
        let a = dist_mat(
            4,
            4,
            &[(0, 1, 3), (1, 2, 9), (0, 3, 5), (3, 2, 2), (1, 1, 1)],
        );
        let unmasked = spgemm_serial::<TropicalKernel>(&a, &a);
        let mask = Mask::from_coords(MaskKind::Structural, 4, 4, &[(0, 2)]);
        let masked = spgemm_masked_serial::<TropicalKernel>(&a, &a, &mask);
        assert_eq!(masked.mat.nnz(), 1);
        assert_eq!(masked.mat.get(0, 2), Some(&Dist::new(7)));
        assert!(masked.ops < unmasked.ops, "mask must drop ops");
        // Kept entries are bit-identical to the unmasked product.
        assert_eq!(masked.mat.get(0, 2), unmasked.mat.get(0, 2));
    }

    #[test]
    fn complement_mask_excludes_pattern_coords() {
        use crate::mask::Mask;
        let a = dist_mat(4, 4, &[(0, 1, 3), (1, 2, 9), (0, 3, 5), (3, 2, 2)]);
        let unmasked = spgemm_serial::<TropicalKernel>(&a, &a);
        let mask = Mask::complement_of(&unmasked.mat);
        let masked = spgemm_masked_serial::<TropicalKernel>(&a, &a, &mask);
        assert_eq!(masked.mat.nnz(), 0);
        assert_eq!(masked.ops, 0);
    }

    #[test]
    fn masked_parallel_bit_identical_to_masked_serial() {
        use crate::mask::{Mask, MaskKind};
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let n = 150;
        let mut coo = Coo::new(n, n);
        for _ in 0..3000 {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                Dist::new(rng.gen_range(1..50)),
            );
        }
        let a = coo.into_csr::<MinDist>();
        let pattern: Vec<(usize, usize)> = (0..n * 4)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        for kind in [MaskKind::Structural, MaskKind::Complement] {
            let mask = Mask::from_coords(kind, n, n, &pattern);
            let reference = spgemm_masked_serial::<TropicalKernel>(&a, &a, &mask);
            for threads in [1, 2, 4, 8] {
                let p = mfbc_parallel::with_threads(threads, || {
                    spgemm_masked::<TropicalKernel>(&a, &a, &mask)
                });
                assert_eq!(
                    reference.mat, p.mat,
                    "{kind:?} entries at {threads} threads"
                );
                assert_eq!(reference.ops, p.ops, "{kind:?} ops at {threads} threads");
            }
        }
    }

    /// `rows × inner` by `inner × ncols` operands with exactly
    /// `a_row` / `b_row` entries in every row.
    fn operands(
        rng: &mut rand_chacha::ChaCha8Rng,
        (rows, inner, ncols): (usize, usize, usize),
        (a_row, b_row): (usize, usize),
    ) -> (Csr<Dist>, Csr<Dist>) {
        use rand::Rng;
        let mut fill = |n: usize, m: usize, per_row: usize| {
            let mut coo = Coo::new(n, m);
            for i in 0..n {
                let mut taken = vec![false; m];
                while taken.iter().filter(|&&t| t).count() < per_row {
                    let j = rng.gen_range(0..m);
                    if !std::mem::replace(&mut taken[j], true) {
                        coo.push(i, j, Dist::new(rng.gen_range(1..50)));
                    }
                }
            }
            coo.into_csr::<MinDist>()
        };
        (fill(rows, inner, a_row), fill(inner, ncols, b_row))
    }

    /// Multiply-then-filter: the entries `mask` allows of the unmasked
    /// product, and the elementary products that land on them.
    fn filter_oracle(a: &Csr<Dist>, b: &Csr<Dist>, mask: Option<&Mask>) -> (Csr<Dist>, u64) {
        let full = spgemm_serial::<TropicalKernel>(a, b).mat;
        let mut ops = 0;
        for (i, k, av) in a.iter() {
            for (j, bv) in b.row(k) {
                let allowed = mask.is_none_or(|m| m.allows(i, j));
                ops += u64::from(allowed && TropicalKernel::mul(av, bv).is_some());
            }
        }
        (mask.map_or(full.clone(), |m| m.filter_allowed(&full)), ops)
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Drain {
        Walk,
        Scan,
        Sort,
    }

    /// The drain path `Spa::drain` takes for a row that touched
    /// `touched` columns under a structural pattern row of `walk`
    /// columns (0 otherwise).
    fn drain_of(touched: usize, walk: usize, ncols: usize) -> Drain {
        if walk > 0 && touched * DENSE_DRAIN >= walk {
            Drain::Walk
        } else if touched * DENSE_DRAIN >= ncols {
            Drain::Scan
        } else {
            Drain::Sort
        }
    }

    #[test]
    fn mask_modes_and_drain_paths_match_the_filter_oracle_at_any_thread_count() {
        use crate::mask::{Mask, MaskKind};
        use rand::{Rng, SeedableRng};
        const SHAPE: (usize, usize, usize) = (48, 40, 256);
        // (mask kind, pattern columns per row, entries per row of A
        // and B, the drain path that density forces on every row).
        let cases = [
            (None, 0, (2, 3), Drain::Sort),
            (None, 0, (8, 64), Drain::Scan),
            (Some(MaskKind::Complement), 20, (2, 3), Drain::Sort),
            (Some(MaskKind::Complement), 20, (8, 64), Drain::Scan),
            (Some(MaskKind::Structural), 16, (8, 64), Drain::Walk),
            (Some(MaskKind::Structural), 200, (2, 3), Drain::Sort),
        ];
        for (seed, (kind, pattern_cols, density, want_path)) in cases.into_iter().enumerate() {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(100 + seed as u64);
            let (a, b) = operands(&mut rng, SHAPE, density);
            let coords: Vec<(usize, usize)> = (0..SHAPE.0 * pattern_cols)
                .map(|x| (x / pattern_cols, rng.gen_range(0..SHAPE.2)))
                .collect();
            let mask = kind.map(|kind| Mask::from_coords(kind, SHAPE.0, SHAPE.2, &coords));
            let mask = mask.as_ref();
            let (want, want_ops) = filter_oracle(&a, &b, mask);
            assert!(want_ops > 0, "{kind:?} {density:?}: no product survives");

            // The tropical kernel forms no identity, so a row touched
            // what it emitted.
            for i in (0..SHAPE.0).filter(|&i| want.row_nnz(i) > 0) {
                let walk = match kind {
                    Some(MaskKind::Structural) => mask.unwrap().row(i).len(),
                    _ => 0,
                };
                let path = drain_of(want.row_nnz(i), walk, SHAPE.2);
                assert_eq!(path, want_path, "{kind:?} {density:?}: row {i}");
            }

            let serial = product::<TropicalKernel>(&a, &b, mask, true);
            assert_eq!(
                serial.mat.first_difference(&want),
                None,
                "{kind:?} {density:?}"
            );
            assert_eq!(serial.ops, want_ops, "{kind:?} {density:?}: ops");
            for threads in [1, 2, 4, 8] {
                let p = mfbc_parallel::with_threads(threads, || {
                    spgemm_opt::<TropicalKernel>(&a, &b, mask)
                });
                assert_eq!(
                    p.mat, serial.mat,
                    "{kind:?} {density:?} at {threads} threads"
                );
                assert_eq!(
                    p.ops, want_ops,
                    "{kind:?} {density:?} ops at {threads} threads"
                );
            }

            // The same mask read as a 3 × 3 grid of block patterns (an
            // empty block row, a one-column block column) and as a
            // window of a wider pattern with entries around it: rows of
            // several segments, each stamped and walked at its shift.
            let Some(kind) = kind else { continue };
            let (row_cuts, col_cuts) = (vec![0, 17, 17, SHAPE.0], vec![0, 100, 101, SHAPE.2]);
            let block = |id: usize| {
                let r = row_cuts[id / 3]..row_cuts[id / 3 + 1];
                let c = col_cuts[id % 3]..col_cuts[id % 3 + 1];
                let inside = coords
                    .iter()
                    .filter(|(i, j)| r.contains(i) && c.contains(j));
                let triples = inside.map(|&(i, j)| (i - r.start, j - c.start, Dist::new(1)));
                Coo::from_triples(r.len(), c.len(), triples).into_csr::<MinDist>()
            };
            let blocks: Vec<Csr<Dist>> = (0..9).map(block).collect();
            let of_blocks = blocks.iter().map(|b| Mask::of_pattern(kind, b));
            let tiled = Mask::tiled(kind, row_cuts.clone(), col_cuts.clone(), of_blocks);
            let (rows, cols) = (SHAPE.0 + 5, SHAPE.2 + 9);
            let mut wide: Vec<(usize, usize)> =
                coords.iter().map(|&(i, j)| (i + 3, j + 5)).collect();
            wide.extend((0..rows).flat_map(|i| [(i, i % 5), (i, SHAPE.2 + 5 + i % 4)]));
            wide.extend((0..cols).map(|j| (1, j)));
            let wide = Mask::from_coords(kind, rows, cols, &wide);
            let window = wide.window(3..3 + SHAPE.0, 5..5 + SHAPE.2);
            for (what, view) in [("tiled", tiled), ("window", window)] {
                let out = product::<TropicalKernel>(&a, &b, Some(&view), true);
                assert_eq!(out.mat, serial.mat, "{kind:?} {density:?}: {what}");
                assert_eq!(out.ops, want_ops, "{kind:?} {density:?}: {what} ops");
            }
        }
    }

    #[test]
    fn stamp_mark_wraps_without_changing_results() {
        use crate::mask::{Mask, MaskKind};
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let (a, b) = operands(&mut rng, (8, 12, 30), (4, 6));
        let coords: Vec<(usize, usize)> = (0..80)
            .map(|_| (rng.gen_range(0..8), rng.gen_range(0..30)))
            .collect();
        let masks = [
            None,
            Some(Mask::from_coords(MaskKind::Structural, 8, 30, &coords)),
            Some(Mask::from_coords(MaskKind::Complement, 8, 30, &coords)),
        ];
        // One task's rows through the draining sink: (chunk, ops).
        let rows_of = |mask: Option<&Mask>, spa: &mut Spa<Dist>| {
            let (mut sink, mut ops) = (super::Drain::<MinDist>(RowChunk::default()), 0);
            multiply::<TropicalKernel>((&a, &b), mask, false, 0..8, spa, &mut sink, &mut ops);
            (sink.0, ops)
        };
        // The same rows settled into a table on every other coordinate
        // of the product: (what fired, the table, ops).
        let side = spgemm_serial::<TropicalKernel>(&a, &b).mat;
        let side = side
            .filter(|i, j, _| (i + j) % 2 == 0)
            .map(|_, _, _| Dist::new(60));
        let fire = |z: &mut Dist, _: &Dist| z.raw().is_multiple_of(2).then_some(*z);
        let settled_of = |mask: Option<&Mask>, spa: &mut Spa<Dist>| {
            let mut z = Table::on_pattern(&side, |s| *s);
            let settle = Settle::<MinDist, Dist, _>::new(z.lend(&side).1, &fire, 0, (0, 0), false);
            let sits = sits(8, 30, &[Pane::whole(&mut Table::on_pattern(&side, |s| *s))]);
            let stops = stops(&sits, Slabs::whole(&b));
            let mut sink = Panes::new(&sits, &stops, Few::One(settle), 1);
            let mut ops = 0;
            multiply::<TropicalKernel>((&a, &b), mask, false, 0..8, spa, &mut sink, &mut ops);
            let fired = sink.sinks.into_iter().next().expect("one pane").fired;
            (Leaves::join([fired], (8, 30)).out, z.freeze(), ops)
        };
        for mask in &masks {
            let want = rows_of(mask.as_ref(), &mut Spa::new(30, MinDist::identity(), false));
            let settled = settled_of(mask.as_ref(), &mut Spa::new(30, MinDist::identity(), false));
            assert!(want.1 > 0, "the rows must form products");
            assert!(settled.0.nnz() > 0, "some entries must fire");
            // Two rows fit below the last even mark; the third starts
            // over — with stamps of both kinds left behind.
            let old = || {
                let mut old = Spa::new(30, MinDist::identity(), false);
                old.mark = u32::MAX - 5;
                old.stamp.fill(u32::MAX - 5);
                old
            };
            let (mut drained, mut fed) = (old(), old());
            let got = rows_of(mask.as_ref(), &mut drained);
            assert_eq!(got, want, "{:?}", mask.as_ref().map(Mask::kind));
            let got = settled_of(mask.as_ref(), &mut fed);
            assert_eq!(got, settled, "{:?}", mask.as_ref().map(Mask::kind));
            for spa in [drained, fed] {
                assert!(spa.mark < 16, "the mark must have wrapped: {}", spa.mark);
            }
        }
    }

    /// MFBr's hook: a zero counter fires and is pinned.
    fn fire_and_pin(z: &mut Centpath, t: &Multpath) -> Option<Centpath> {
        (z.c == 0).then(|| {
            z.c = -1;
            Centpath::new(z.w, z.p + 1.0 / t.m, -1)
        })
    }

    #[test]
    fn count_children_counts_ties_zeroes_heavier_and_counts_what_lands_outside() {
        // A: 0→1, 0→2, 1→3, 2→3, 4→3 of weight 1, 3→4 of weight 2 and
        // 4→1 of weight 3, which no path of weight 1 to 1 can use.
        let a = dist_mat(
            5,
            5,
            &[
                (0, 1, 1),
                (0, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
                (4, 3, 1),
                (3, 4, 2),
                (4, 1, 3),
            ],
        );
        let at = crate::transpose::transpose(&a);
        // Row 0 is a shortest-path table from 0 without vertex 4; row 1
        // is not one: 2 sends 0 a contribution of weight 2, heavier
        // than τ(1,0) = 0, which zeroes the count 1 finds.
        let entries = [(0, 0, 0), (0, 1, 1), (0, 2, 1), (0, 3, 2)];
        let entries = entries
            .iter()
            .chain(&[(1, 0, 0), (1, 1, 1), (1, 2, 3), (1, 3, 2)]);
        let t = Coo::from_triples(
            2,
            5,
            entries.map(|&(s, v, w)| (s, v, Multpath::new(Dist::new(w), 2.0))),
        )
        .into_csr::<MultpathMonoid>();
        let counts = [(0, 0, 2), (0, 1, 1), (0, 2, 1), (0, 3, 0)];
        let counts = counts
            .iter()
            .chain(&[(1, 0, 0), (1, 1, 1), (1, 2, 0), (1, 3, 0)]);
        let leaves = counts.clone().filter(|c| c.2 == 0);
        let pinned = |c: i64| if c == 0 { -1 } else { c };
        let want_z = Coo::from_triples(
            2,
            5,
            counts.map(|&(s, v, c)| (s, v, Centpath::new(t.get(s, v).unwrap().w, 0.0, pinned(c)))),
        )
        .into_csr::<CentpathMonoid>();
        let want_leaves = Coo::from_triples(
            2,
            5,
            leaves.map(|&(s, v, _)| (s, v, Centpath::new(t.get(s, v).unwrap().w, 0.5, -1))),
        )
        .into_csr::<CentpathMonoid>();
        // Candidates with τ(s,w) ≥ A(v,w): four in each row towards the
        // table, and one more towards vertex 4, outside it.
        let seeds = t.map(|_, _, mp| Centpath::new(mp.w, 0.0, 1));
        let reached = Mask::of_pattern(MaskKind::Structural, &t);
        for (masked, want_ops) in [(true, 8), (false, 10)] {
            let product = spgemm_opt::<BrandesKernel>(&seeds, &at, masked.then_some(&reached));
            assert_eq!(product.ops, want_ops, "the product, masked {masked}");
            let mut z = Table::on_pattern(&t, opened);
            let (landed, tally) = count_children_panes(
                &t,
                |mp: &Multpath| mp.w,
                Slabs::whole(&at),
                &[0, t.nrows()],
                &mut [Pane::whole(&mut z)],
                &[&t],
                masked,
                fire_and_pin,
            );
            let Landed { out, pending, .. } = landed.into_iter().next().expect("one pane");
            z.pend(pending);
            assert_eq!(tally[0].0, want_ops, "masked {masked}");
            assert_eq!(out, want_leaves, "masked {masked}");
            let waits = |s: usize| z.mask().map(|m| m.row(s).cols().collect::<Vec<_>>());
            let want = |cols: Vec<Idx>| masked.then_some(cols);
            assert_eq!((waits(0), waits(1)), (want(vec![0, 1, 2]), want(vec![1])));
            assert_eq!(z.freeze(), want_z, "masked {masked}");
        }
    }

    #[test]
    fn flops_weights_count_elementary_products() {
        // A row's weight is 1 + the number of products it forms.
        let a = dist_mat(3, 3, &[(0, 1, 4), (0, 2, 1), (1, 2, 7)]);
        let w = flops_weights(&a, &a, 3);
        // Row 0 hits rows 1 (nnz 1) and 2 (nnz 0); row 1 hits row 2.
        assert_eq!(w, vec![2, 1, 1]);
    }

    #[test]
    fn chunk_histogram_buckets_by_log2() {
        let h = chunk_histogram([1usize, 1, 2, 3, 4, 9].into_iter());
        assert_eq!(h, vec![2, 2, 1, 1]);
        assert!(chunk_histogram(std::iter::empty()).is_empty());
    }
}
