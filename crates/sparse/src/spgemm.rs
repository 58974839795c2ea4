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

use crate::csr::{Csr, Idx};
use crate::mask::{Mask, MaskKind};
use mfbc_algebra::kernel::KernelOut;
use mfbc_algebra::monoid::Monoid;
use mfbc_algebra::SpMulKernel;
use mfbc_parallel::balanced_ranges;

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

/// Dense sparse-accumulator for one output row.
///
/// `stamp[j] == row_tag` marks column `j` as touched in the current
/// row; values are lazily reset by overwrite-on-first-touch, so the
/// per-row cost is proportional to the row's flops, not to `ncols`.
struct Spa<T> {
    stamp: Vec<u64>,
    vals: Vec<T>,
    touched: Vec<Idx>,
    tag: u64,
}

impl<T: Clone> Spa<T> {
    fn new(ncols: usize, fill: T) -> Spa<T> {
        Spa {
            stamp: vec![0; ncols],
            vals: vec![fill; ncols],
            touched: Vec::new(),
            tag: 0,
        }
    }

    #[inline]
    fn begin_row(&mut self) {
        self.tag += 1;
        self.touched.clear();
    }

    #[inline]
    fn accumulate<M: Monoid<Elem = T>>(&mut self, j: usize, v: T) {
        if self.stamp[j] == self.tag {
            M::fold_into(&mut self.vals[j], &v);
        } else {
            self.stamp[j] = self.tag;
            self.vals[j] = v;
            self.touched.push(j as Idx);
        }
    }

    /// Emits the touched entries in column order, skipping identities.
    fn drain_into<M: Monoid<Elem = T>>(&mut self, colind: &mut Vec<Idx>, vals: &mut Vec<T>) {
        self.touched.sort_unstable();
        for &j in &self.touched {
            let v = &self.vals[j as usize];
            if !M::is_identity(v) {
                colind.push(j);
                vals.push(v.clone());
            }
        }
    }
}

fn multiply_rows<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    rows: std::ops::Range<usize>,
    spa: &mut Spa<KernelOut<K>>,
) -> (Vec<usize>, Vec<Idx>, Vec<KernelOut<K>>, u64) {
    let mut rowlen = Vec::with_capacity(rows.len());
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    let mut ops = 0u64;
    for i in rows {
        spa.begin_row();
        for (k, av) in a.row(i) {
            for (j, bv) in b.row(k) {
                if let Some(c) = K::mul(av, bv) {
                    ops += 1;
                    spa.accumulate::<K::Acc>(j, c);
                }
            }
        }
        let before = colind.len();
        spa.drain_into::<K::Acc>(&mut colind, &mut vals);
        rowlen.push(colind.len() - before);
    }
    (rowlen, colind, vals, ops)
}

/// Per-row mask marker, the mask-side analogue of [`Spa`]: the
/// current row's pattern columns are stamped with a row tag, so
/// allowed-column checks are O(1) per product and per-row setup costs
/// only the pattern row's length.
struct MaskStamp {
    stamp: Vec<u64>,
    tag: u64,
}

impl MaskStamp {
    fn new(ncols: usize) -> MaskStamp {
        MaskStamp {
            stamp: vec![0; ncols],
            tag: 0,
        }
    }

    #[inline]
    fn begin_row(&mut self, pattern_cols: &[Idx]) {
        self.tag += 1;
        for &j in pattern_cols {
            self.stamp[j as usize] = self.tag;
        }
    }

    #[inline]
    fn in_pattern(&self, j: usize) -> bool {
        self.stamp[j] == self.tag
    }
}

/// Masked [`multiply_rows`]: elementary products whose output column
/// the mask excludes are skipped before `f` is applied — they neither
/// accumulate nor count toward `ops`. An empty left-operand row, or a
/// structural mask with an empty pattern row, skips that output row
/// outright.
fn multiply_rows_masked<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: &Mask,
    rows: std::ops::Range<usize>,
    spa: &mut Spa<KernelOut<K>>,
    ms: &mut MaskStamp,
) -> (Vec<usize>, Vec<Idx>, Vec<KernelOut<K>>, u64) {
    let structural = mask.kind() == MaskKind::Structural;
    let mut rowlen = Vec::with_capacity(rows.len());
    let mut colind = Vec::new();
    let mut vals = Vec::new();
    let mut ops = 0u64;
    for i in rows {
        let pattern = mask.row_cols(i);
        // Nothing to multiply, or nothing allowed: the row is empty
        // without stamping its pattern.
        if a.row_nnz(i) == 0 || (structural && pattern.is_empty()) {
            rowlen.push(0);
            continue;
        }
        ms.begin_row(pattern);
        spa.begin_row();
        for (k, av) in a.row(i) {
            for (j, bv) in b.row(k) {
                if ms.in_pattern(j) != structural {
                    continue;
                }
                if let Some(c) = K::mul(av, bv) {
                    ops += 1;
                    spa.accumulate::<K::Acc>(j, c);
                }
            }
        }
        let before = colind.len();
        spa.drain_into::<K::Acc>(&mut colind, &mut vals);
        rowlen.push(colind.len() - before);
    }
    (rowlen, colind, vals, ops)
}

fn assemble<K: SpMulKernel>(
    nrows: usize,
    ncols: usize,
    chunks: Vec<(Vec<usize>, Vec<Idx>, Vec<KernelOut<K>>, u64)>,
) -> SpGemmOut<KernelOut<K>> {
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let nnz: usize = chunks.iter().map(|c| c.1.len()).sum();
    let mut colind = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    let mut ops = 0u64;
    for (rowlen, ci, vs, o) in chunks {
        for len in rowlen {
            rowptr.push(rowptr.last().unwrap() + len);
        }
        colind.extend(ci);
        vals.extend(vs);
        ops += o;
    }
    debug_assert_eq!(rowptr.len(), nrows + 1);
    SpGemmOut {
        mat: Csr::from_parts(nrows, ncols, rowptr, colind, vals),
        ops,
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
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "spgemm inner dimension mismatch: {}x{} by {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let mut spa = Spa::new(b.ncols(), <K::Acc as Monoid>::identity());
    let chunk = multiply_rows::<K>(a, b, 0..a.nrows(), &mut spa);
    assemble::<K>(a.nrows(), b.ncols(), vec![chunk])
}

/// Checks operand and mask shapes for a masked multiplication.
fn check_mask_shapes<L, R>(a: &Csr<L>, b: &Csr<R>, mask: &Mask) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "spgemm inner dimension mismatch: {}x{} by {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
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
    check_mask_shapes(a, b, mask);
    let mut spa = Spa::new(b.ncols(), <K::Acc as Monoid>::identity());
    let mut ms = MaskStamp::new(b.ncols());
    let chunk = multiply_rows_masked::<K>(a, b, mask, 0..a.nrows(), &mut spa, &mut ms);
    assemble::<K>(a.nrows(), b.ncols(), vec![chunk])
}

/// Minimum row count before the parallel SpGEMM fans out; below this
/// the sequential kernel is used outright, avoiding pool latency on
/// tiny products.
const PAR_MIN_ROWS: usize = 32;

/// Tasks created per pool participant. Oversubscription lets the
/// work-stealing cursor absorb the error between the flops *estimate*
/// (every elementary product counted) and the true per-row cost.
const TASKS_PER_THREAD: usize = 4;

/// Per-row flops upper bound: `1 + Σ_{k ∈ A.row(i)} nnz(B.row(k))`.
/// The constant keeps empty rows from collapsing a range to zero
/// weight, so partitions stay contiguous and non-degenerate.
fn flops_weights<L, R>(a: &Csr<L>, b: &Csr<R>) -> Vec<u64> {
    (0..a.nrows())
        .map(|i| {
            1 + a
                .row_cols(i)
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .collect()
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
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "spgemm inner dimension mismatch: {}x{} by {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let nrows = a.nrows();
    let pool = mfbc_parallel::current();
    if pool.threads() == 1 || nrows < PAR_MIN_ROWS {
        return spgemm_serial::<K>(a, b);
    }
    let weights = flops_weights(a, b);
    let ranges = balanced_ranges(&weights, pool.threads() * TASKS_PER_THREAD);
    let (chunks, stats) = pool.par_ranges_scratch(
        &ranges,
        || Spa::new(b.ncols(), <K::Acc as Monoid>::identity()),
        |spa, rows| multiply_rows::<K>(a, b, rows, spa),
    );
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Pool {
        kernel: "spgemm",
        threads: stats.threads,
        tasks: stats.tasks,
        busy_us: stats.busy.iter().map(|d| d.as_micros() as u64).collect(),
        chunk_hist: chunk_histogram(ranges.iter().map(|r| r.len())),
    });
    assemble::<K>(nrows, b.ncols(), chunks)
}

/// Row-parallel masked SpGEMM. Same determinism contract as
/// [`spgemm`]: results (entries *and* `ops`) are bit-identical to
/// [`spgemm_masked_serial`] at any thread count. Row partitioning
/// reuses the unmasked flops weights — a valid upper bound per row,
/// and identical partitions keep the trace stream stable whether or
/// not a mask is present.
pub fn spgemm_masked<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: &Mask,
) -> SpGemmOut<KernelOut<K>> {
    check_mask_shapes(a, b, mask);
    let nrows = a.nrows();
    let pool = mfbc_parallel::current();
    if pool.threads() == 1 || nrows < PAR_MIN_ROWS {
        return spgemm_masked_serial::<K>(a, b, mask);
    }
    let weights = flops_weights(a, b);
    let ranges = balanced_ranges(&weights, pool.threads() * TASKS_PER_THREAD);
    let (chunks, stats) = pool.par_ranges_scratch(
        &ranges,
        || {
            (
                Spa::new(b.ncols(), <K::Acc as Monoid>::identity()),
                MaskStamp::new(b.ncols()),
            )
        },
        |(spa, ms), rows| multiply_rows_masked::<K>(a, b, mask, rows, spa, ms),
    );
    mfbc_trace::emit(|| mfbc_trace::TraceEvent::Pool {
        kernel: "spgemm",
        threads: stats.threads,
        tasks: stats.tasks,
        busy_us: stats.busy.iter().map(|d| d.as_micros() as u64).collect(),
        chunk_hist: chunk_histogram(ranges.iter().map(|r| r.len())),
    });
    assemble::<K>(nrows, b.ncols(), chunks)
}

/// Dispatches to the masked or unmasked parallel kernel — the form
/// the distributed multiplication layers call with their per-block
/// mask windows.
pub fn spgemm_opt<K: SpMulKernel>(
    a: &Csr<K::Left>,
    b: &Csr<K::Right>,
    mask: Option<&Mask>,
) -> SpGemmOut<KernelOut<K>> {
    match mask {
        Some(m) => spgemm_masked::<K>(a, b, m),
        None => spgemm::<K>(a, b),
    }
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
    use mfbc_algebra::kernel::{BellmanFordKernel, TropicalKernel};
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

    #[test]
    fn flops_weights_count_elementary_products() {
        // A row's weight is 1 + the number of products it forms.
        let a = dist_mat(3, 3, &[(0, 1, 4), (0, 2, 1), (1, 2, 7)]);
        let w = flops_weights(&a, &a);
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
