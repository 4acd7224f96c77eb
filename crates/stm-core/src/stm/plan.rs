//! Per-call data-set resolution and reusable execution scratch.
//!
//! The paper's transactions are *static*: the data set is declared with every
//! call. Resolving it — the ascending acquisition order, duplicate detection
//! on that order, and the cell/ownership addresses — is one sort of at most
//! `max_locs` cells plus a shift-and-add per address, so it is done afresh on
//! every call into the caller's [`TxScratch`] instead of being looked up in a
//! cache (see `docs/protocol.md` §9). Resolution happens once per *call*, not
//! per attempt: the retry loop, the helping path, and the dynamic layer's
//! commit then run with **zero heap allocations** once the scratch is warm.

use crate::layout::{StmLayout, MAX_PARAMS};
use crate::program::OpCode;
use crate::word::{Addr, CellIdx, Word};

use super::TxSpec;

/// The commit-sweep kernel a call executes with.
///
/// Small data sets (the common case: counters, queue pointers, small MWCAS)
/// get fully monomorphized acquisition/agreement/update/release sweeps whose
/// loop bounds are compile-time constants — the paper's k-word
/// compare-and-swap specialization. Every kernel issues the **identical**
/// sequence of shared-memory operations and step hooks as
/// [`Kernel::General`]; the kernels differ only in local code shape
/// (stack arrays instead of scratch vectors, unrolled loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Monomorphized single-cell sweep (`k = 1`).
    K1,
    /// Monomorphized two-cell sweep (`k = 2`).
    K2,
    /// Monomorphized four-cell sweep (`k = 4`).
    K4,
    /// The general slice-driven sweep, for any `k` (also the one the
    /// reference [`Stm::run`](super::Stm::run) always executes).
    General,
}

impl Kernel {
    /// The kernel selected for a data set of `k` cells.
    pub(crate) fn for_k(k: usize) -> Self {
        match k {
            1 => Kernel::K1,
            2 => Kernel::K2,
            4 => Kernel::K4,
            _ => Kernel::General,
        }
    }
}

/// A borrowed, fully resolved view of one transaction: the commit program,
/// its parameters, and the data set with its acquisition order and resolved
/// addresses, borrowed from a [`ViewBuf`]. The whole protocol in `algo.rs`
/// runs off it.
#[derive(Clone, Copy)]
pub(crate) struct ViewRef<'a> {
    pub op: OpCode,
    pub params: &'a [Word],
    pub cells: &'a [CellIdx],
    pub order: &'a [usize],
    pub cell_addrs: &'a [Addr],
    pub own_addrs: &'a [Addr],
}

/// Reusable owned backing for a [`ViewRef`]: the entry points fill one per
/// *call*, and the helping path refills one per helped transaction —
/// `clear` + `extend` only, so a warm buffer never reallocates.
#[derive(Debug, Default)]
pub(crate) struct ViewBuf {
    pub params: Vec<Word>,
    pub cells: Vec<CellIdx>,
    pub order: Vec<usize>,
    pub cell_addrs: Vec<Addr>,
    pub own_addrs: Vec<Addr>,
}

/// Grow `v` to an absolute capacity of at least `want` elements.
///
/// `Vec::reserve` reserves *beyond the current length*, so calling it on a
/// buffer still holding the previous run's results would creep the capacity
/// up run after run; this keeps re-reservation a true no-op once warm.
fn ensure_capacity<T>(v: &mut Vec<T>, want: usize) {
    if v.capacity() < want {
        v.reserve(want - v.len());
    }
}

impl ViewBuf {
    pub(crate) fn reserve_for(&mut self, layout: &StmLayout) {
        let k = layout.max_locs();
        ensure_capacity(&mut self.params, MAX_PARAMS);
        ensure_capacity(&mut self.cells, k);
        ensure_capacity(&mut self.order, k);
        ensure_capacity(&mut self.cell_addrs, k);
        ensure_capacity(&mut self.own_addrs, k);
    }

    /// Copy a spec's parameters and data set in and resolve them. Cells must
    /// be in range; duplicates are left for [`ViewBuf::duplicate`] to find.
    pub(crate) fn fill(&mut self, layout: &StmLayout, spec: &TxSpec<'_>) {
        self.params.clear();
        self.params.extend_from_slice(spec.params);
        self.cells.clear();
        self.cells.extend_from_slice(spec.cells);
        self.finish(layout);
    }

    /// Recompute the acquisition order and resolved addresses from the
    /// already-filled `params`/`cells` (the helping snapshot fills those
    /// directly from port reads, then validates, then calls this).
    pub(crate) fn finish(&mut self, layout: &StmLayout) {
        self.order.clear();
        self.order.extend(0..self.cells.len());
        let cells = &self.cells;
        self.order.sort_unstable_by_key(|&j| cells[j]);
        self.cell_addrs.clear();
        self.cell_addrs.extend(self.cells.iter().map(|&c| layout.cell(c)));
        self.own_addrs.clear();
        self.own_addrs.extend(self.cells.iter().map(|&c| layout.ownership(c)));
    }

    /// A cell listed twice, if any: duplicates sit next to each other in the
    /// ascending acquisition order, so one pass over it finds them.
    pub(crate) fn duplicate(&self) -> Option<CellIdx> {
        self.order
            .windows(2)
            .map(|w| (self.cells[w[0]], self.cells[w[1]]))
            .find_map(|(a, b)| (a == b).then_some(b))
    }

    pub(crate) fn view(&self, op: OpCode) -> ViewRef<'_> {
        ViewRef {
            op,
            params: &self.params,
            cells: &self.cells,
            order: &self.order,
            cell_addrs: &self.cell_addrs,
            own_addrs: &self.own_addrs,
        }
    }
}

/// Reusable protocol-phase buffers: the agreed pre-images and the commit
/// program's old/new value slices.
#[derive(Debug, Default)]
pub(crate) struct ProtoBuf {
    pub olds: Vec<Word>,
    pub old_values: Vec<u32>,
    pub new_values: Vec<u32>,
}

impl ProtoBuf {
    fn reserve_for(&mut self, layout: &StmLayout) {
        let k = layout.max_locs();
        ensure_capacity(&mut self.olds, k);
        ensure_capacity(&mut self.old_values, k);
        ensure_capacity(&mut self.new_values, k);
    }
}

/// The reusable per-thread execution arena for [`Stm::run_in`](super::Stm::run_in).
///
/// Holds every buffer a call needs — the caller's resolved data set, the
/// retry loop's and commit sweeps' phase buffers, and the one-level helping
/// path's — so that a warm scratch resolves and executes an entire call,
/// including helping another processor's transaction, without touching the
/// heap. The helping path has its **own** view and phase buffers
/// (`help_*`): a helper snapshots the victim's record and replays its
/// commit while the helper's own view is still borrowed, so the two must
/// not share storage.
///
/// After a committed [`Stm::run_in`](super::Stm::run_in), the data set's old
/// values are left in the scratch ([`TxScratch::old`] /
/// [`TxScratch::old_stamps`]) — returning them by value would force an
/// allocation per call.
#[derive(Debug, Default)]
pub struct TxScratch {
    /// The caller's own data set, resolved per call.
    pub(crate) view: ViewBuf,
    /// Phase buffers for the caller's own transaction.
    pub(crate) proto: ProtoBuf,
    /// Committed old values (program order), valid after a successful run.
    pub(crate) out_old: Vec<u32>,
    /// Committed old stamps (program order), parallel to `out_old`.
    pub(crate) out_stamps: Vec<u16>,
    /// Distinct cells this call lost an acquisition on (sorted).
    pub(crate) contended: Vec<CellIdx>,
    /// Snapshot view of a transaction being helped.
    pub(crate) help_view: ViewBuf,
    /// Phase buffers for the helping path.
    pub(crate) help_proto: ProtoBuf,
}

impl TxScratch {
    /// An empty scratch. The first [`Stm::run_in`](super::Stm::run_in)
    /// reserves every buffer to the instance's `max_locs` bound, so warm-up
    /// is one-time and small; later calls reuse the buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The old values (program order) of the last committed run, matching
    /// [`TxOutcome::old`](crate::stm::TxOutcome::old).
    pub fn old(&self) -> &[u32] {
        &self.out_old
    }

    /// The old stamps of the last committed run, matching
    /// [`TxOutcome::old_stamps`](crate::stm::TxOutcome::old_stamps).
    pub fn old_stamps(&self) -> &[u16] {
        &self.out_stamps
    }

    /// Reserve every buffer to the instance's bounds so the attempt loop
    /// (helping included) never allocates. Constant-time no-op when warm.
    pub(crate) fn reserve_for(&mut self, layout: &StmLayout) {
        let k = layout.max_locs();
        self.view.reserve_for(layout);
        self.proto.reserve_for(layout);
        ensure_capacity(&mut self.out_old, k);
        ensure_capacity(&mut self.out_stamps, k);
        ensure_capacity(&mut self.contended, k);
        self.help_view.reserve_for(layout);
        self.help_proto.reserve_for(layout);
    }

    /// Record a lost acquisition on `cell` (sorted-insert dedup; the cell
    /// set is bounded by the data set, so a reserved buffer never grows).
    pub(crate) fn note_contended(&mut self, cell: CellIdx) {
        if let Err(at) = self.contended.binary_search(&cell) {
            self.contended.insert(at, cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_selection_matches_k() {
        assert_eq!(Kernel::for_k(1), Kernel::K1);
        assert_eq!(Kernel::for_k(2), Kernel::K2);
        assert_eq!(Kernel::for_k(3), Kernel::General);
        assert_eq!(Kernel::for_k(4), Kernel::K4);
        assert_eq!(Kernel::for_k(5), Kernel::General);
    }

    #[test]
    fn view_buf_resolves_order_and_addresses() {
        let layout = StmLayout::new(0, 16, 2, 8);
        let mut b = crate::program::ProgramTable::builder();
        let add = crate::program::register_builtins(&mut b).add;
        let mut buf = ViewBuf::default();
        buf.fill(&layout, &TxSpec::new(add, &[7], &[9, 1, 5]));
        assert_eq!(buf.order, vec![1, 2, 0]);
        assert_eq!(buf.cell_addrs, vec![layout.cell(9), layout.cell(1), layout.cell(5)]);
        assert_eq!(buf.own_addrs, vec![layout.ownership(9), layout.ownership(1), layout.ownership(5)]);
        assert_eq!(buf.duplicate(), None);
        // Refill reuses the buffers and fully replaces the contents.
        buf.fill(&layout, &TxSpec::new(add, &[], &[3]));
        assert_eq!(buf.cells, vec![3]);
        assert_eq!(buf.order, vec![0]);
        // Duplicates are found wherever they sit in program order.
        for cells in [&[4usize, 4][..], &[2, 9, 4, 9], &[6, 1, 0, 1]] {
            buf.fill(&layout, &TxSpec::new(add, &[], cells));
            assert_eq!(buf.duplicate(), Some(cells[cells.len() - 1]), "{cells:?}");
        }
    }

    #[test]
    fn contended_set_is_sorted_and_deduped() {
        let mut s = TxScratch::new();
        for c in [5usize, 1, 5, 3, 1] {
            s.note_contended(c);
        }
        assert_eq!(s.contended, vec![1, 3, 5]);
    }
}
