//! Address-space layout of one STM instance inside a machine.
//!
//! Mirroring the paper's data structures, an STM instance occupies a
//! contiguous region of the machine's shared memory holding
//!
//! * `Memory[0..n_cells]` — the transactional cells (packed `stamp|value`),
//! * `Ownerships[0..n_cells]` — one ownership word per cell,
//! * `Records[0..n_procs]` — one transaction record per processor, reused
//!   across that processor's transactions (versioned), containing the status
//!   word, the declared data set (size + sorted cell indices), the
//!   transaction's code reference (opcode + parameters), and the old-value
//!   agreement entries.
//!
//! # Cache alignment
//!
//! The layout supports an optional `pad_shift`: with `pad_shift = s`, cells
//! and ownership words are spread one per `1 << s` words, and each record
//! base is rounded up to a `1 << s`-word boundary. On a real machine with
//! 64-byte cache lines (8 × 8-byte words), `pad_shift = 3` puts every cell,
//! every ownership word, and every record on its own cache line, eliminating
//! false sharing between processors hammering adjacent protocol words. The
//! default (`pad_shift = 0`) is the dense, address-faithful layout that the
//! `stm-sim` bus/mesh cost models assume — simulated figures stay comparable
//! to the paper's.
//!
//! # The sharded arena geometry
//!
//! [`StmLayout::arena`] lays the same protocol words out for a *growable*
//! cell heap: records come first, then up to `max_segments` fixed-size
//! segments, each holding `seg_cells` cells immediately followed by their
//! `seg_cells` ownership words. Segments are assigned round-robin to
//! `n_shards` shards (`shard = segment % n_shards`), so each shard's
//! protocol words cluster in its own address runs — which is what lets the
//! simulator's cost models charge cross-shard traffic, and what keeps
//! unrelated shards' ownership words off each other's cache lines on the
//! host.
//!
//! The layout itself remains an immutable, pure address function over the
//! *maximum* capacity: growth (committing fresh segments, allocating and
//! freeing cells) lives entirely in [`CellArena`](crate::arena::CellArena).
//! A cell's address therefore never moves once handed out, an address a
//! transaction resolved stays valid across growth, and — because
//! both `cell(idx)` and `ownership(idx)` are strictly increasing in `idx` —
//! sorting a data set by [`CellIdx`] still sorts it by ownership address, so
//! the paper's ascending-order acquisition argument survives verbatim
//! (docs/protocol.md §15).

use crate::word::{Addr, CellIdx, MAX_DATASET, MAX_PROCS};

/// Maximum number of parameter words a transaction program may take.
pub const MAX_PARAMS: usize = 8;

/// Offsets of the fixed fields inside a record (in words, relative to the
/// record base).
pub(crate) mod rec {
    /// Status word (version | code | fail index).
    pub const STATUS: usize = 0;
    /// Data-set size.
    pub const SIZE: usize = 1;
    /// Opcode: index into the process-wide program table.
    pub const OPCODE: usize = 2;
    /// Number of live parameter words.
    pub const NPARAMS: usize = 3;
    /// First parameter word.
    pub const PARAMS: usize = 4;
    /// First data-set address word (cell indices, ascending).
    pub const ADDRS: usize = PARAMS + super::MAX_PARAMS;
}

/// How cells and ownership words are arranged inside the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Geom {
    /// The paper's flat arrangement: all cells, then all ownership words,
    /// then the records.
    Fixed,
    /// Sharded segment arena: records first, then `max_segments` segments of
    /// `1 << seg_shift` cells each (cells then ownerships per segment),
    /// segment `s` belonging to shard `s & (n_shards - 1)` with
    /// `n_shards = 1 << shard_shift`.
    Arena { seg_shift: u8, shard_shift: u8 },
}

/// The segment-region geometry of an arena layout, as the simulator's cost
/// models need it: enough to map a raw address back to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGeometry {
    /// First address of the segment region (addresses below it are records).
    pub segments_base: Addr,
    /// One-past-the-end address of the segment region.
    pub segments_end: Addr,
    /// Words per segment (cells + ownerships, padded).
    pub seg_words: usize,
    /// Number of shards (power of two).
    pub n_shards: usize,
}

impl ShardGeometry {
    /// Shard owning `addr`, or `None` if the address lies outside the
    /// segment region (records, journal, other instances...).
    #[inline]
    pub fn shard_of(&self, addr: Addr) -> Option<usize> {
        if addr < self.segments_base || addr >= self.segments_end {
            return None;
        }
        let seg = (addr - self.segments_base) / self.seg_words;
        Some(seg & (self.n_shards - 1))
    }
}

/// Computes the addresses of every STM protocol word inside a machine's
/// address space.
///
/// # Examples
///
/// ```
/// use stm_core::layout::StmLayout;
///
/// let layout = StmLayout::new(0, 128, 4, 8);
/// assert!(layout.words_needed() > 128 * 2);
/// assert_eq!(layout.cell(0), 0);
/// assert_eq!(layout.ownership(0), 128);
///
/// // Cache-aligned: one word per 64-byte line (8 words) on the host.
/// let padded = StmLayout::with_pad_shift(0, 128, 4, 8, 3);
/// assert_eq!(padded.cell(1) - padded.cell(0), 8);
/// assert_eq!(padded.record(0) % 8, 0);
///
/// // Growable sharded arena: 4 shards, 16-cell segments, up to 8 segments.
/// let arena = StmLayout::arena(0, 4, 8, 0, 4, 16, 8);
/// assert_eq!(arena.n_cells(), 8 * 16);
/// assert_eq!(arena.shard_of(17), 1); // cell 17 lives in segment 1 → shard 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmLayout {
    base: Addr,
    n_cells: usize,
    n_procs: usize,
    max_locs: usize,
    pad_shift: u8,
    geom: Geom,
}

impl StmLayout {
    /// Lay out an STM instance at `base` with `n_cells` transactional cells
    /// for `n_procs` processors, allowing data sets of up to `max_locs`
    /// locations.
    ///
    /// # Panics
    ///
    /// Panics if `max_locs` is 0 or exceeds [`MAX_DATASET`], or if `n_procs`
    /// is 0 or exceeds [`MAX_PROCS`].
    pub fn new(base: Addr, n_cells: usize, n_procs: usize, max_locs: usize) -> Self {
        Self::with_pad_shift(base, n_cells, n_procs, max_locs, 0)
    }

    /// Like [`StmLayout::new`], but spreading protocol words so that each
    /// cell, each ownership word, and each record starts on a
    /// `1 << pad_shift`-word boundary (its own cache line for
    /// `pad_shift = 3` on 64-byte-line hosts).
    ///
    /// # Panics
    ///
    /// Panics on the same out-of-range arguments as [`StmLayout::new`], or
    /// if `pad_shift` exceeds 6 (128 words per line is already absurd).
    pub fn with_pad_shift(
        base: Addr,
        n_cells: usize,
        n_procs: usize,
        max_locs: usize,
        pad_shift: u8,
    ) -> Self {
        assert!(max_locs > 0 && max_locs <= MAX_DATASET, "max_locs out of range");
        assert!(n_procs > 0 && n_procs <= MAX_PROCS, "n_procs out of range");
        assert!(pad_shift <= 6, "pad_shift out of range");
        StmLayout { base, n_cells, n_procs, max_locs, pad_shift, geom: Geom::Fixed }
    }

    /// Lay out a growable sharded cell arena at `base`: `n_procs` records
    /// first, then up to `max_segments` segments of `seg_cells` cells each
    /// (cells followed by their ownership words), segments striped
    /// round-robin over `n_shards` shards.
    ///
    /// The returned layout addresses the *full* capacity
    /// (`max_segments * seg_cells` cells); which cells actually exist at any
    /// moment is [`CellArena`](crate::arena::CellArena)'s business. Untouched
    /// segments cost only zero pages on the host, so capacity is cheap until
    /// grown into.
    ///
    /// # Panics
    ///
    /// Panics on the same out-of-range arguments as
    /// [`StmLayout::with_pad_shift`], or if `seg_cells`/`n_shards` are not
    /// powers of two, or if `max_segments` is 0.
    pub fn arena(
        base: Addr,
        n_procs: usize,
        max_locs: usize,
        pad_shift: u8,
        n_shards: usize,
        seg_cells: usize,
        max_segments: usize,
    ) -> Self {
        assert!(max_locs > 0 && max_locs <= MAX_DATASET, "max_locs out of range");
        assert!(n_procs > 0 && n_procs <= MAX_PROCS, "n_procs out of range");
        assert!(pad_shift <= 6, "pad_shift out of range");
        assert!(seg_cells.is_power_of_two(), "seg_cells must be a power of two");
        assert!(n_shards.is_power_of_two(), "n_shards must be a power of two");
        assert!(max_segments > 0, "max_segments must be positive");
        StmLayout {
            base,
            n_cells: max_segments * seg_cells,
            n_procs,
            max_locs,
            pad_shift,
            geom: Geom::Arena {
                seg_shift: seg_cells.trailing_zeros() as u8,
                shard_shift: n_shards.trailing_zeros() as u8,
            },
        }
    }

    /// The configured padding shift (0 = dense, address-faithful layout).
    pub fn pad_shift(&self) -> u8 {
        self.pad_shift
    }

    /// Words per padding unit (`1 << pad_shift`); consecutive cells,
    /// ownership words, and record bases are this many words apart.
    #[inline]
    pub fn pad_unit(&self) -> usize {
        1 << self.pad_shift
    }

    /// Number of transactional cells (for an arena layout: full capacity).
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Number of per-processor records.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Maximum data-set size per transaction.
    pub fn max_locs(&self) -> usize {
        self.max_locs
    }

    /// Whether this is a sharded arena layout.
    pub fn is_arena(&self) -> bool {
        matches!(self.geom, Geom::Arena { .. })
    }

    /// Cells per segment (1 segment spanning everything for fixed layouts).
    pub fn seg_cells(&self) -> usize {
        match self.geom {
            Geom::Fixed => self.n_cells,
            Geom::Arena { seg_shift, .. } => 1 << seg_shift,
        }
    }

    /// Maximum number of segments (1 for fixed layouts).
    pub fn max_segments(&self) -> usize {
        match self.geom {
            Geom::Fixed => 1,
            Geom::Arena { seg_shift, .. } => self.n_cells >> seg_shift,
        }
    }

    /// Number of shards (1 for fixed layouts).
    pub fn n_shards(&self) -> usize {
        match self.geom {
            Geom::Fixed => 1,
            Geom::Arena { shard_shift, .. } => 1 << shard_shift,
        }
    }

    /// Segment holding cell `idx` (0 for fixed layouts).
    #[inline]
    pub fn segment_of(&self, idx: CellIdx) -> usize {
        match self.geom {
            Geom::Fixed => 0,
            Geom::Arena { seg_shift, .. } => idx >> seg_shift,
        }
    }

    /// Shard owning cell `idx` (0 for fixed layouts).
    #[inline]
    pub fn shard_of(&self, idx: CellIdx) -> usize {
        match self.geom {
            Geom::Fixed => 0,
            Geom::Arena { seg_shift, shard_shift } => {
                (idx >> seg_shift) & ((1 << shard_shift) - 1)
            }
        }
    }

    /// The global cell index of `slot` within `seg`. Inverse of
    /// ([`segment_of`](Self::segment_of), `idx % seg_cells`); ascending in
    /// `(seg, slot)` lexicographic order, which is what keeps the sorted
    /// data-set → ascending-ownership-address argument intact.
    #[inline]
    pub fn cell_index(&self, seg: usize, slot: usize) -> CellIdx {
        debug_assert!(slot < self.seg_cells(), "slot {slot} out of range");
        match self.geom {
            Geom::Fixed => slot,
            Geom::Arena { seg_shift, .. } => (seg << seg_shift) + slot,
        }
    }

    /// Words per segment: cells plus ownership words, padded.
    #[inline]
    fn seg_words(&self) -> usize {
        (2 * self.seg_cells()) << self.pad_shift
    }

    /// The segment-region geometry, for cost models that charge cross-shard
    /// traffic. `None` for fixed layouts.
    pub fn shard_geometry(&self) -> Option<ShardGeometry> {
        match self.geom {
            Geom::Fixed => None,
            Geom::Arena { .. } => {
                let segments_base = self.base + self.n_procs * self.record_stride();
                Some(ShardGeometry {
                    segments_base,
                    segments_end: segments_base + self.max_segments() * self.seg_words(),
                    seg_words: self.seg_words(),
                    n_shards: self.n_shards(),
                })
            }
        }
    }

    /// Words occupied by one record, including any trailing padding needed
    /// to keep consecutive record bases on distinct padding units.
    pub fn record_stride(&self) -> usize {
        let dense = rec::ADDRS + 2 * self.max_locs;
        let unit = self.pad_unit();
        dense.div_ceil(unit) * unit
    }

    /// Total words this instance occupies starting at its base address.
    pub fn words_needed(&self) -> usize {
        match self.geom {
            Geom::Fixed => 2 * self.n_cells * self.pad_unit() + self.n_procs * self.record_stride(),
            Geom::Arena { .. } => {
                self.n_procs * self.record_stride() + self.max_segments() * self.seg_words()
            }
        }
    }

    /// One-past-the-end address of the region.
    pub fn end(&self) -> Addr {
        self.base + self.words_needed()
    }

    /// Address of transactional cell `idx`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `idx` is out of range.
    #[inline]
    pub fn cell(&self, idx: CellIdx) -> Addr {
        debug_assert!(idx < self.n_cells, "cell index {idx} out of range");
        match self.geom {
            Geom::Fixed => self.base + (idx << self.pad_shift),
            Geom::Arena { seg_shift, .. } => {
                let seg = idx >> seg_shift;
                let slot = idx & ((1 << seg_shift) - 1);
                self.base
                    + self.n_procs * self.record_stride()
                    + seg * self.seg_words()
                    + (slot << self.pad_shift)
            }
        }
    }

    /// Address of the ownership word guarding cell `idx`.
    ///
    /// Strictly increasing in `idx` for both geometries, so a data set
    /// sorted by cell index is acquired in ascending address order.
    #[inline]
    pub fn ownership(&self, idx: CellIdx) -> Addr {
        debug_assert!(idx < self.n_cells, "cell index {idx} out of range");
        match self.geom {
            Geom::Fixed => self.base + ((self.n_cells + idx) << self.pad_shift),
            Geom::Arena { seg_shift, .. } => {
                let seg = idx >> seg_shift;
                let slot = idx & ((1 << seg_shift) - 1);
                self.base
                    + self.n_procs * self.record_stride()
                    + seg * self.seg_words()
                    + (((1 << seg_shift) + slot) << self.pad_shift)
            }
        }
    }

    /// Base address of processor `proc`'s record.
    #[inline]
    pub fn record(&self, proc: usize) -> Addr {
        debug_assert!(proc < self.n_procs, "processor id {proc} out of range");
        match self.geom {
            Geom::Fixed => {
                self.base + ((2 * self.n_cells) << self.pad_shift) + proc * self.record_stride()
            }
            Geom::Arena { .. } => self.base + proc * self.record_stride(),
        }
    }

    /// Address of `proc`'s status word.
    #[inline]
    pub fn status(&self, proc: usize) -> Addr {
        self.record(proc) + rec::STATUS
    }

    /// Address of `proc`'s data-set size word.
    #[inline]
    pub fn size(&self, proc: usize) -> Addr {
        self.record(proc) + rec::SIZE
    }

    /// Address of `proc`'s opcode word.
    #[inline]
    pub fn opcode(&self, proc: usize) -> Addr {
        self.record(proc) + rec::OPCODE
    }

    /// Address of `proc`'s parameter-count word.
    #[inline]
    pub fn nparams(&self, proc: usize) -> Addr {
        self.record(proc) + rec::NPARAMS
    }

    /// Address of `proc`'s `i`-th parameter word.
    #[inline]
    pub fn param(&self, proc: usize, i: usize) -> Addr {
        debug_assert!(i < MAX_PARAMS, "parameter index {i} out of range");
        self.record(proc) + rec::PARAMS + i
    }

    /// Address of `proc`'s `j`-th data-set address word.
    #[inline]
    pub fn addr_slot(&self, proc: usize, j: usize) -> Addr {
        debug_assert!(j < self.max_locs, "data-set position {j} out of range");
        self.record(proc) + rec::ADDRS + j
    }

    /// Address of `proc`'s `j`-th old-value agreement entry.
    #[inline]
    pub fn oldval_slot(&self, proc: usize, j: usize) -> Addr {
        debug_assert!(j < self.max_locs, "data-set position {j} out of range");
        self.record(proc) + rec::ADDRS + self.max_locs + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_addrs(l: &StmLayout) -> Vec<Addr> {
        let mut v = Vec::new();
        for i in 0..l.n_cells() {
            v.push(l.cell(i));
        }
        for i in 0..l.n_cells() {
            v.push(l.ownership(i));
        }
        for p in 0..l.n_procs() {
            v.push(l.status(p));
            v.push(l.size(p));
            v.push(l.opcode(p));
            v.push(l.nparams(p));
            for i in 0..MAX_PARAMS {
                v.push(l.param(p, i));
            }
            for j in 0..l.max_locs() {
                v.push(l.addr_slot(p, j));
                v.push(l.oldval_slot(p, j));
            }
        }
        v
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = StmLayout::new(10, 100, 8, 16);
        let addrs = all_addrs(&l);
        let seen: std::collections::HashSet<Addr> = addrs.iter().copied().collect();
        assert_eq!(seen.len(), addrs.len(), "duplicate addresses");
        // Dense layout wastes no words.
        assert_eq!(seen.len(), l.words_needed());
        assert!(seen.iter().all(|&a| a >= 10 && a < l.end()));
    }

    #[test]
    fn padded_regions_do_not_overlap() {
        for shift in [1u8, 3, 6] {
            let l = StmLayout::with_pad_shift(10, 100, 8, 16, shift);
            let addrs = all_addrs(&l);
            let seen: std::collections::HashSet<Addr> = addrs.iter().copied().collect();
            assert_eq!(seen.len(), addrs.len(), "duplicate addresses at shift {shift}");
            // Padded layout leaves gaps, but never escapes its region.
            assert!(seen.len() <= l.words_needed());
            assert!(seen.iter().all(|&a| a >= 10 && a < l.end()));
        }
    }

    #[test]
    fn pad_shift_separates_cache_lines() {
        // With pad_shift = 3 (64-byte lines of 8-byte words), every cell,
        // every ownership word, and every record lives on its own line.
        let l = StmLayout::with_pad_shift(0, 32, 4, 8, 3);
        let line = |a: Addr| a / 8;
        let mut lines = std::collections::HashSet::new();
        for i in 0..l.n_cells() {
            assert!(lines.insert(line(l.cell(i))), "cell {i} shares a line");
        }
        for i in 0..l.n_cells() {
            assert!(lines.insert(line(l.ownership(i))), "ownership {i} shares a line");
        }
        for p in 0..l.n_procs() {
            // Records are multi-word; only their *bases* must start fresh
            // lines so two processors' status words never share one.
            assert!(lines.insert(line(l.record(p))), "record {p} shares a line");
            assert_eq!(l.record(p) % 8, 0, "record {p} not line-aligned");
        }
    }

    #[test]
    fn dense_layout_is_address_faithful() {
        // The simulator's bus/mesh cost models rely on the dense layout the
        // paper assumes: consecutive cells at consecutive addresses.
        let l = StmLayout::new(0, 16, 2, 4);
        assert_eq!(l.pad_shift(), 0);
        for i in 0..16 {
            assert_eq!(l.cell(i), i);
            assert_eq!(l.ownership(i), 16 + i);
        }
    }

    #[test]
    fn words_needed_matches_stride() {
        let l = StmLayout::new(0, 10, 3, 4);
        assert_eq!(l.record_stride(), super::rec::ADDRS + 8);
        assert_eq!(l.words_needed(), 20 + 3 * l.record_stride());
    }

    #[test]
    #[should_panic(expected = "max_locs out of range")]
    fn zero_max_locs_panics() {
        let _ = StmLayout::new(0, 1, 1, 0);
    }

    #[test]
    fn arena_regions_do_not_overlap() {
        for shift in [0u8, 1, 3] {
            let l = StmLayout::arena(10, 3, 8, shift, 4, 16, 8);
            assert!(l.is_arena());
            assert_eq!(l.n_cells(), 128);
            let addrs = all_addrs(&l);
            let seen: std::collections::HashSet<Addr> = addrs.iter().copied().collect();
            assert_eq!(seen.len(), addrs.len(), "duplicate addresses at shift {shift}");
            assert!(seen.len() <= l.words_needed());
            assert!(seen.iter().all(|&a| a >= 10 && a < l.end()));
            if shift == 0 {
                // Dense arena wastes no words either.
                assert_eq!(seen.len(), l.words_needed());
            }
        }
    }

    #[test]
    fn arena_ownership_addresses_strictly_ascend() {
        // The lock-freedom argument needs: sorting by CellIdx sorts by
        // ownership address, across segment boundaries included.
        for shift in [0u8, 2] {
            let l = StmLayout::arena(0, 2, 8, shift, 2, 8, 6);
            for i in 1..l.n_cells() {
                assert!(l.ownership(i) > l.ownership(i - 1), "ownership not ascending at {i}");
                assert!(l.cell(i) > l.cell(i - 1), "cell not ascending at {i}");
            }
        }
    }

    #[test]
    fn arena_shard_mapping_round_trips() {
        let l = StmLayout::arena(100, 2, 8, 1, 4, 16, 12);
        let geom = l.shard_geometry().expect("arena has a shard geometry");
        assert_eq!(l.n_shards(), 4);
        assert_eq!(l.max_segments(), 12);
        for idx in 0..l.n_cells() {
            let seg = l.segment_of(idx);
            let slot = idx % l.seg_cells();
            assert_eq!(l.cell_index(seg, slot), idx);
            assert_eq!(l.shard_of(idx), seg % 4);
            // The address-level mapping used by the cost models agrees with
            // the index-level mapping, for cells and ownership words alike.
            assert_eq!(geom.shard_of(l.cell(idx)), Some(l.shard_of(idx)));
            assert_eq!(geom.shard_of(l.ownership(idx)), Some(l.shard_of(idx)));
        }
        // Record words belong to no shard.
        assert_eq!(geom.shard_of(l.record(0)), None);
        assert_eq!(geom.shard_of(l.end()), None);
    }

    #[test]
    fn fixed_geometry_formulas_are_unchanged() {
        // The arena refactor must not perturb a single fixed-layout address:
        // bench_gate pins simulated schedules bit-exactly.
        let l = StmLayout::with_pad_shift(7, 33, 5, 9, 2);
        let unit = 1 << 2;
        for i in 0..33 {
            assert_eq!(l.cell(i), 7 + i * unit);
            assert_eq!(l.ownership(i), 7 + (33 + i) * unit);
        }
        for p in 0..5 {
            assert_eq!(l.record(p), 7 + 66 * unit + p * l.record_stride());
        }
        assert_eq!(l.shard_of(32), 0);
        assert_eq!(l.seg_cells(), 33);
        assert!(l.shard_geometry().is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn arena_non_pow2_seg_cells_panics() {
        let _ = StmLayout::arena(0, 1, 1, 0, 2, 12, 4);
    }
}
