//! Distributed sparse matrices: block layouts and per-block storage.
//!
//! A [`Layout`] cuts a matrix into a `br × bc` grid of contiguous
//! blocks and assigns each block to an owner rank; a [`DistMat`]
//! pairs a layout with the actual sparse blocks. Rows and columns are
//! split evenly — the paper's §5.2 load-balance assumption (randomized
//! vertex order makes each block's nonzero count proportional to its
//! area) is established upstream by the graph generators, which
//! randomize vertex labels.

use mfbc_algebra::monoid::Monoid;
use mfbc_machine::{Machine, MachineError};
use mfbc_parallel::ExecStats;
use mfbc_sparse::slice::{even_ranges, slice, stitch, Slab};
use mfbc_sparse::{Csr, Few, Mask, MaskKind, Table};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::grid::Grid2;

/// A block decomposition plus block→rank ownership. Its cuts are
/// shared: a clone (every matrix a step derives from a table carries
/// the table's layout) allocates nothing.
#[derive(Clone, Debug)]
pub struct Layout {
    nrows: usize,
    ncols: usize,
    cuts: Arc<Cuts>,
}

/// Where a [`Layout`] cuts and who owns each block.
#[derive(Debug, PartialEq, Eq)]
struct Cuts {
    row_ranges: Vec<Range<usize>>,
    col_ranges: Vec<Range<usize>>,
    owners: Vec<usize>,
}

impl Layout {
    /// Builds a layout from explicit ranges and owners
    /// (`owners[bi * ncols_blocks + bj]` is a world rank).
    pub fn new(
        nrows: usize,
        ncols: usize,
        row_ranges: Vec<Range<usize>>,
        col_ranges: Vec<Range<usize>>,
        owners: Vec<usize>,
    ) -> Layout {
        assert_eq!(owners.len(), row_ranges.len() * col_ranges.len());
        assert_eq!(
            row_ranges.iter().map(ExactSizeIterator::len).sum::<usize>(),
            nrows
        );
        assert_eq!(
            col_ranges.iter().map(ExactSizeIterator::len).sum::<usize>(),
            ncols
        );
        let cuts = Cuts {
            row_ranges,
            col_ranges,
            owners,
        };
        Layout {
            nrows,
            ncols,
            cuts: Arc::new(cuts),
        }
    }

    /// Even `br × bc` cuts, block `(i, j)` owned by `owner(i, j)`.
    pub(crate) fn even(
        nrows: usize,
        ncols: usize,
        (br, bc): (usize, usize),
        owner: impl Fn(usize, usize) -> usize,
    ) -> Layout {
        let (rows, cols) = (even_ranges(nrows, br), even_ranges(ncols, bc));
        let cells = (0..br).flat_map(|i| (0..bc).map(move |j| (i, j)));
        let owners = cells.map(|(i, j)| owner(i, j)).collect();
        Layout::new(nrows, ncols, rows, cols, owners)
    }

    /// The natural layout on a 2D grid: block `(i, j)` owned by grid
    /// rank `(i, j)`.
    pub fn on_grid(nrows: usize, ncols: usize, grid: &Grid2) -> Layout {
        Layout::even(nrows, ncols, (grid.g1(), grid.g2()), |i, j| grid.rank(i, j))
    }

    /// A single-block layout owned by `rank` (replication helper /
    /// sequential embedding).
    pub fn single(nrows: usize, ncols: usize, rank: usize) -> Layout {
        Layout::new(nrows, ncols, vec![0..nrows], vec![0..ncols], vec![rank])
    }

    /// Matrix rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Matrix columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of block rows.
    #[inline]
    pub fn br(&self) -> usize {
        self.cuts.row_ranges.len()
    }

    /// Number of block columns.
    #[inline]
    pub fn bc(&self) -> usize {
        self.cuts.col_ranges.len()
    }

    /// Total number of blocks.
    #[inline]
    pub fn nblocks(&self) -> usize {
        self.cuts.owners.len()
    }

    /// Row range of block row `bi`.
    #[inline]
    pub fn row_range(&self, bi: usize) -> Range<usize> {
        self.cuts.row_ranges[bi].clone()
    }

    /// Column range of block column `bj`.
    #[inline]
    pub fn col_range(&self, bj: usize) -> Range<usize> {
        self.cuts.col_ranges[bj].clone()
    }

    /// Owner rank of block `(bi, bj)`.
    #[inline]
    pub fn owner(&self, bi: usize, bj: usize) -> usize {
        self.cuts.owners[bi * self.bc() + bj]
    }

    /// Every block's owner rank, in flat block id order.
    #[inline]
    pub fn owners(&self) -> &[usize] {
        &self.cuts.owners
    }

    /// Flat block id.
    #[inline]
    pub fn block_id(&self, bi: usize, bj: usize) -> usize {
        bi * self.bc() + bj
    }

    /// Every block's `(bi, bj)`, in flat block id (row-major) order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, usize)> {
        let bc = self.bc();
        (0..self.nblocks()).map(move |id| (id / bc, id % bc))
    }

    /// Whether two layouts share the same block cuts and owners
    /// (shapes may hold different element types, so this is the
    /// alignment precondition for elementwise zips).
    pub fn same_cuts(&self, other: &Layout) -> bool {
        self.cuts == other.cuts
    }

    /// Whether two layouts cut and assign identically.
    pub fn same_as(&self, other: &Layout) -> bool {
        self.nrows == other.nrows && self.ncols == other.ncols && self.same_cuts(other)
    }

    /// A mask of `kind` over `blocks` (row-major, one per block of this
    /// layout), read where they lie: [`Mask::tiled`] at this layout's
    /// cuts.
    fn mask_over<'a>(&self, kind: MaskKind, blocks: Vec<Mask<'a>>) -> Mask<'a> {
        let cuts =
            |ranges: &[Range<usize>], n: usize| ranges.iter().map(|r| r.start).chain([n]).collect();
        let rows = cuts(&self.cuts.row_ranges, self.nrows);
        Mask::tiled(kind, rows, cuts(&self.cuts.col_ranges, self.ncols), blocks)
    }
}

/// A block-distributed sparse matrix: a layout plus one CSR per
/// block, indexed by flat block id (a one-block matrix holds its block
/// in place). Block contents are stored with *local* (block-relative)
/// indices.
///
/// Each matrix carries a `content_id`: a process-unique token minted
/// at construction and preserved by `clone` (clones share content).
/// The right-operand cache keys on it, so "the same adjacency matrix
/// every iteration" is recognized without content hashing.
#[derive(Clone, Debug)]
pub struct DistMat<T> {
    layout: Layout,
    blocks: Few<Csr<T>>,
    content_id: u64,
}

fn next_content_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl<T: Clone + Send + Sync> DistMat<T> {
    /// Cuts a global matrix into blocks per `layout` (a setup-time
    /// operation: no communication is charged; benchmark drivers
    /// treat graph loading as outside the measured region, as the
    /// paper does).
    pub fn from_global(layout: Layout, global: &Csr<T>) -> DistMat<T> {
        assert_eq!(global.nrows(), layout.nrows());
        assert_eq!(global.ncols(), layout.ncols());
        let block = |(bi, bj)| slice(global, layout.row_range(bi), layout.col_range(bj));
        let blocks = layout.blocks().map(block).collect();
        DistMat {
            layout,
            blocks,
            content_id: next_content_id(),
        }
    }

    /// An all-zero distributed matrix.
    pub fn zero(layout: Layout) -> DistMat<T> {
        let block = |(bi, bj)| Csr::zero(layout.row_range(bi).len(), layout.col_range(bj).len());
        let blocks = layout.blocks().map(block).collect();
        DistMat {
            layout,
            blocks,
            content_id: next_content_id(),
        }
    }

    /// Builds from pre-cut blocks, in flat block id order.
    ///
    /// # Panics
    /// Panics if a block's shape disagrees with the layout.
    pub fn from_blocks(layout: Layout, blocks: impl Into<Few<Csr<T>>>) -> DistMat<T> {
        let blocks = blocks.into();
        assert_eq!(blocks.len(), layout.nblocks());
        for bi in 0..layout.br() {
            for bj in 0..layout.bc() {
                let b = &blocks[layout.block_id(bi, bj)];
                assert_eq!(b.nrows(), layout.row_range(bi).len(), "block row mismatch");
                assert_eq!(b.ncols(), layout.col_range(bj).len(), "block col mismatch");
            }
        }
        DistMat {
            layout,
            blocks,
            content_id: next_content_id(),
        }
    }

    /// The process-unique content token (see the type docs).
    #[inline]
    pub fn content_id(&self) -> u64 {
        self.content_id
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Matrix rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.layout.nrows()
    }

    /// Matrix columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.layout.ncols()
    }

    /// Block `(bi, bj)`.
    #[inline]
    pub fn block(&self, bi: usize, bj: usize) -> &Csr<T> {
        &self.blocks[self.layout.block_id(bi, bj)]
    }

    /// Replaces block `(bi, bj)`. Mints a fresh content id: the
    /// matrix no longer equals whatever shared its old token.
    pub fn set_block(&mut self, bi: usize, bj: usize, b: Csr<T>) {
        assert_eq!(b.nrows(), self.layout.row_range(bi).len());
        assert_eq!(b.ncols(), self.layout.col_range(bj).len());
        let id = self.layout.block_id(bi, bj);
        self.blocks[id] = b;
        self.content_id = next_content_id();
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(Csr::nnz).sum()
    }

    /// A mask of `kind` over this matrix's pattern, read off its blocks
    /// where they lie. Blocks keep no column counts, so the mask counts
    /// them once, here.
    pub fn pattern_mask(&self, kind: MaskKind) -> Mask<'_> {
        let blocks = self.blocks.iter().map(|b| Mask::of_pattern(kind, b));
        self.layout.mask_over(kind, blocks.collect())
    }

    /// Charges each block's bytes as resident memory on its owner.
    pub fn charge_memory(&self, m: &Machine) -> Result<(), MachineError> {
        for bi in 0..self.layout.br() {
            for bj in 0..self.layout.bc() {
                let rank = self.layout.owner(bi, bj);
                m.charge_alloc(rank, self.block(bi, bj).payload_bytes() as u64)?;
            }
        }
        Ok(())
    }

    /// Releases what [`DistMat::charge_memory`] charged.
    pub fn release_memory(&self, m: &Machine) {
        for bi in 0..self.layout.br() {
            for bj in 0..self.layout.bc() {
                let rank = self.layout.owner(bi, bj);
                m.release(rank, self.block(bi, bj).payload_bytes() as u64);
            }
        }
    }

    /// Checks every structural invariant of the distributed matrix:
    /// each block satisfies the CSR invariants ([`Csr::validate`])
    /// and has exactly the shape its layout cell prescribes. Returns
    /// a description of the first violation.
    ///
    /// Used by the conformance harness after every kernel execution
    /// (and by `mm_exec` itself under `debug_assertions`), so a
    /// corrupted communication schedule fails loudly at the operation
    /// that produced it instead of as a distant wrong answer.
    pub fn validate(&self) -> Result<(), String> {
        for bi in 0..self.layout.br() {
            for bj in 0..self.layout.bc() {
                let b = self.block(bi, bj);
                if b.nrows() != self.layout.row_range(bi).len()
                    || b.ncols() != self.layout.col_range(bj).len()
                {
                    return Err(format!(
                        "block ({bi},{bj}) shape {}x{} != layout cell {}x{}",
                        b.nrows(),
                        b.ncols(),
                        self.layout.row_range(bi).len(),
                        self.layout.col_range(bj).len()
                    ));
                }
                b.validate()
                    .map_err(|e| format!("block ({bi},{bj}): {e}"))?;
            }
        }
        Ok(())
    }

    /// Every block as a borrowed slab at its global offset, in flat
    /// block id order — the source form of every slab-wise move.
    pub(crate) fn slabs(&self) -> Vec<Slab<'_, T>> {
        self.layout
            .blocks()
            .zip(&self.blocks)
            .map(|((bi, bj), b)| {
                let (r0, c0) = (
                    self.layout.row_range(bi).start,
                    self.layout.col_range(bj).start,
                );
                (r0, c0, Cow::Borrowed(b))
            })
            .collect()
    }

    /// Rows `rows` of the matrix, across its block columns: the block
    /// itself where they are a block row of one block, else joined
    /// from the blocks they meet.
    pub(crate) fn rows(&self, rows: Range<usize>) -> Cow<'_, Csr<T>> {
        let l = &self.layout;
        if l.bc() == 1 {
            if let Some(bi) = (0..l.br()).find(|&bi| l.row_range(bi) == rows) {
                return Cow::Borrowed(self.block(bi, 0));
            }
        }
        let mut slabs = self.slabs();
        let meets = |s: &Slab<'_, T>| s.0 < rows.end && rows.start < s.0 + s.2.nrows();
        slabs.retain(meets);
        Cow::Owned(stitch(rows, 0..self.ncols(), &mut slabs, |_| true).0)
    }

    /// The matrix of a one-block layout, its block moved out (block
    /// and global coordinates agree).
    ///
    /// # Panics
    /// Panics if the layout has several blocks.
    pub fn into_block(self) -> Csr<T> {
        match self.blocks {
            Few::One(block) => block,
            Few::Many(_) => panic!("a matrix of {} blocks is not one", self.layout.nblocks()),
        }
    }

    /// Reassembles the global matrix (gather for verification/output):
    /// block cuts are disjoint, so this is pure concatenation, minus
    /// any entries that are `M`'s identity.
    pub fn to_global<M>(&self) -> Csr<T>
    where
        M: Monoid<Elem = T>,
        T: PartialEq + std::fmt::Debug,
    {
        let (rows, cols) = (0..self.nrows(), 0..self.ncols());
        stitch(rows, cols, &mut self.slabs(), |v| !M::is_identity(v)).0
    }
}

/// A growing table distributed like a [`DistMat`]: one
/// [`Table`] per block of the layout (the forward table of MFBF while
/// the sweep runs; [`DistTable::freeze`] turns it into the matrix).
#[derive(Clone, Debug)]
pub struct DistTable<T> {
    layout: Layout,
    blocks: Few<Table<T>>,
}

impl<T: Clone + Send + Sync> DistTable<T> {
    /// A table holding `seed`'s entries, block for block; see
    /// [`Table::from_csr`] for `track`.
    pub fn from_dmat(seed: &DistMat<T>, track: bool) -> DistTable<T> {
        DistTable {
            layout: seed.layout.clone(),
            blocks: seed
                .blocks
                .iter()
                .map(|b| Table::from_csr(b, track))
                .collect(),
        }
    }

    /// Builds from per-block tables, in block order.
    ///
    /// # Panics
    /// Panics if a block's shape disagrees with the layout.
    pub fn from_blocks(layout: Layout, blocks: impl Into<Few<Table<T>>>) -> DistTable<T> {
        let blocks = blocks.into();
        assert_eq!(blocks.len(), layout.nblocks());
        for ((bi, bj), b) in layout.blocks().zip(&blocks) {
            assert_eq!(b.nrows(), layout.row_range(bi).len(), "block row mismatch");
            assert_eq!(b.ncols(), layout.col_range(bj).len(), "block col mismatch");
        }
        DistTable { layout, blocks }
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Block `(bi, bj)`.
    #[inline]
    pub fn block(&self, bi: usize, bj: usize) -> &Table<T> {
        &self.blocks[self.layout.block_id(bi, bj)]
    }

    /// Every block, in flat block id order.
    pub(crate) fn blocks_mut(&mut self) -> &mut [Table<T>] {
        &mut self.blocks
    }

    /// Updates every block in place — `f(bi, bj, block)` on the
    /// `mfbc-parallel` pool, results in block order. Every block is
    /// handed to exactly one job, so the outcome does not depend on
    /// scheduling.
    pub fn update_blocks<R: Send>(
        &mut self,
        f: impl Fn(usize, usize, &mut Table<T>) -> R + Sync,
    ) -> (Vec<R>, ExecStats) {
        let bc = self.layout.bc();
        let blocks: Vec<Mutex<&mut Table<T>>> = self.blocks.iter_mut().map(Mutex::new).collect();
        mfbc_parallel::current().par_map_collect_stats(blocks.len(), |id| {
            // Uncontended: job `id` is the only one that takes block `id`.
            let mut block = blocks[id].lock().expect("a block job panicked");
            f(id / bc, id % bc, &mut block)
        })
    }

    /// The mask of what can still land in the table — every block's
    /// [`Table::mask`], read off its rows where they lie; `None` on a
    /// table opened without tracking.
    pub fn mask(&self) -> Option<Mask<'_>> {
        let blocks: Vec<Mask> = self.blocks.iter().map(Table::mask).collect::<Option<_>>()?;
        Some(self.layout.mask_over(blocks[0].kind(), blocks))
    }

    /// The table as a matrix, every block sorted once.
    pub fn freeze(self) -> DistMat<T> {
        DistMat::from_blocks(self.layout, self.blocks.map(Table::freeze))
    }
}

/// Which block holds a coordinate: what the per-entry references of
/// the tests look up, and nothing else does.
#[cfg(test)]
impl Layout {
    /// Block row containing matrix row `i` (ranges are even, so this
    /// is a two-candidate computation rather than a search).
    pub(crate) fn find_row_block(&self, i: usize) -> usize {
        find_even(&self.cuts.row_ranges, i)
    }

    /// Block column containing matrix column `j`.
    pub(crate) fn find_col_block(&self, j: usize) -> usize {
        find_even(&self.cuts.col_ranges, j)
    }
}

#[cfg(test)]
/// Locates `x` in a list of contiguous ascending ranges.
fn find_even(ranges: &[Range<usize>], x: usize) -> usize {
    // Even splits differ in length by ≤1, so estimate then correct.
    let n: usize = ranges.last().map(|r| r.end).unwrap_or(0);
    debug_assert!(x < n);
    let parts = ranges.len();
    let mut guess = (x * parts / n.max(1)).min(parts - 1);
    while x < ranges[guess].start {
        guess -= 1;
    }
    while x >= ranges[guess].end {
        guess += 1;
    }
    guess
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfbc_algebra::monoid::SumU64;
    use mfbc_machine::Group;
    use mfbc_sparse::Coo;

    fn sample_global() -> Csr<u64> {
        Coo::from_triples(
            4,
            6,
            vec![
                (0usize, 0usize, 1u64),
                (0, 5, 2),
                (1, 2, 3),
                (2, 3, 4),
                (3, 0, 5),
                (3, 5, 6),
            ],
        )
        .into_csr::<SumU64>()
    }

    fn grid22() -> Grid2 {
        Grid2::new(Group::all(4), 2, 2).unwrap()
    }

    #[test]
    fn layout_on_grid_covers_matrix() {
        let l = Layout::on_grid(4, 6, &grid22());
        assert_eq!((l.br(), l.bc()), (2, 2));
        assert_eq!(l.row_range(0), 0..2);
        assert_eq!(l.col_range(1), 3..6);
        assert_eq!(l.owner(1, 0), 2);
    }

    #[test]
    fn find_blocks() {
        let l = Layout::on_grid(10, 10, &grid22());
        for i in 0..10 {
            let bi = l.find_row_block(i);
            assert!(l.row_range(bi).contains(&i));
            let bj = l.find_col_block(i);
            assert!(l.col_range(bj).contains(&i));
        }
    }

    #[test]
    fn find_blocks_uneven() {
        // 7 rows over 3 blocks: 3/2/2.
        let l = Layout::new(7, 7, even_ranges(7, 3), even_ranges(7, 3), vec![0; 9]);
        for i in 0..7 {
            assert!(l.row_range(l.find_row_block(i)).contains(&i));
        }
    }

    #[test]
    fn split_and_reassemble() {
        let g = sample_global();
        let dm = DistMat::from_global(Layout::on_grid(4, 6, &grid22()), &g);
        assert_eq!(dm.nnz(), g.nnz());
        assert_eq!(dm.to_global::<SumU64>(), g);
    }

    #[test]
    fn block_local_indices() {
        let g = sample_global();
        let dm = DistMat::from_global(Layout::on_grid(4, 6, &grid22()), &g);
        // Global (3,5)=6 lives in block (1,1) at local (1,2).
        assert_eq!(dm.block(1, 1).get(1, 2), Some(&6));
    }

    #[test]
    fn nnz_per_rank() {
        let g = sample_global();
        let dm = DistMat::from_global(Layout::on_grid(4, 6, &grid22()), &g);
        let l = dm.layout();
        let on = |r: usize| {
            let owned = l.blocks().filter(move |&(bi, bj)| l.owner(bi, bj) == r);
            owned.map(|(bi, bj)| dm.block(bi, bj).nnz()).sum::<usize>()
        };
        assert_eq!((0..4).map(on).sum::<usize>(), g.nnz());
    }

    #[test]
    fn zero_matrix_blocks() {
        let dm = DistMat::<u64>::zero(Layout::on_grid(5, 5, &grid22()));
        assert_eq!(dm.nnz(), 0);
        // 5 rows over 2 block rows split 3/2.
        assert_eq!(dm.block(0, 0).nrows(), 3);
        assert_eq!(dm.block(1, 1).nrows(), 2);
    }

    #[test]
    fn dist_table_round_trips_through_freeze() {
        let dm = DistMat::from_global(Layout::on_grid(4, 6, &grid22()), &sample_global());
        let mut table = DistTable::from_dmat(&dm, true);
        assert_eq!(table.block(1, 1).get(1, 2), Some(&6));
        // Insert (global) (0, 1) = 9 through block (0, 0).
        let add = DistMat::from_global(
            dm.layout().clone(),
            &Coo::from_triples(4, 6, vec![(0usize, 1usize, 9u64)]).into_csr::<SumU64>(),
        );
        table.update_blocks(|bi, bj, t| {
            t.accumulate::<SumU64>(add.block(bi, bj), |_, _, _| None);
        });
        let mask = table.mask().expect("tracked");
        assert_eq!(mask.row(0).cols().collect::<Vec<_>>(), [0, 1, 5]);
        let frozen = table.freeze();
        frozen.validate().unwrap();
        assert_eq!(frozen.nnz(), dm.nnz() + 1);
        assert_eq!(frozen.to_global::<SumU64>().get(0, 1), Some(&9));
    }

    #[test]
    fn single_layout() {
        let g = sample_global();
        let dm = DistMat::from_global(Layout::single(4, 6, 0), &g);
        assert_eq!(dm.block(0, 0), &g);
    }

    #[test]
    fn memory_charging_round_trip() {
        use mfbc_machine::MachineSpec;
        let m = Machine::new(MachineSpec::test(4));
        let dm = DistMat::from_global(Layout::on_grid(4, 6, &grid22()), &sample_global());
        dm.charge_memory(&m).unwrap();
        let resident: u64 = m.with_tracker(|t| (0..4).map(|r| t.resident(r)).sum());
        assert_eq!(resident, dm.nnz() as u64 * 12);
        dm.release_memory(&m);
        let resident: u64 = m.with_tracker(|t| (0..4).map(|r| t.resident(r)).sum());
        assert_eq!(resident, 0);
    }
}
