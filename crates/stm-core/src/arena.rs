//! The growable sharded cell heap: allocation state over an arena
//! [`StmLayout`].
//!
//! The layout (see [`StmLayout::arena`]) is a pure address function over the
//! arena's *maximum* capacity; this module owns the mutable side — which
//! segments have been grown into, which cells are live. Splitting it this
//! way keeps every protocol invariant untouched: cell addresses never move,
//! so an address a transaction resolved stays valid across growth, and
//! freeing a cell does not disturb its packed `stamp|value` word, so a
//! transaction that raced a free still fails validation the ordinary way
//! (its logged stamp no longer matches) instead of misbehaving.
//!
//! # Sharding
//!
//! Allocation state is striped over `n_shards` independent shards, each
//! behind its own mutex. Shard `s` claims the global segments congruent to
//! `s` modulo `n_shards` (its `k`-th claim is segment `s + k * n_shards`),
//! so growth needs no cross-shard coordination at all: a processor allocates
//! from its home shard (`proc % n_shards`) and only spills to neighbours
//! when its own shard is exhausted. Per shard, the arena keeps a bump
//! pointer into the newest claimed segment, LIFO free lists (one per span
//! length), and a per-segment allocation bitmap that turns double-frees into
//! immediate panics instead of silent corruption.
//!
//! # Spans
//!
//! Structures that need small contiguous cell runs (the
//! `stm-structures` hash map stores each entry as a `key, value, next`
//! triple) allocate *spans*: `alloc_span(proc, 3)` returns the first of
//! three consecutive cell indices inside one segment. Spans never straddle
//! segments, so a span's ownership words are consecutive too.
//!
//! # Determinism
//!
//! All bookkeeping is host-side (mutexes, not simulated words). Under
//! `stm-sim` the engine runs exactly one processor at a time, so allocator
//! decisions are a deterministic function of the schedule and replay
//! bit-identically — which the arena growth proptests pin on Bus and Mesh.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::flight::FlightRecorder;
use crate::layout::StmLayout;
use crate::observe::{TxEvent, TxObserver};
use crate::word::CellIdx;

/// A point-in-time summary of arena occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Cells currently allocated (sum of live span lengths).
    pub live_cells: usize,
    /// Maximum `live_cells` ever observed.
    pub high_water_cells: usize,
    /// Segments grown into so far.
    pub segments_live: usize,
    /// Total capacity in cells (`max_segments * seg_cells`).
    pub capacity_cells: usize,
    /// Spans handed out since construction.
    pub allocs: u64,
    /// Spans returned since construction.
    pub frees: u64,
}

/// Per-shard allocation state; `claimed` counts this shard's segments, whose
/// global ids are `shard + k * n_shards` for `k < claimed`.
#[derive(Debug)]
struct Shard {
    claimed: usize,
    /// Slots consumed in the newest claimed segment.
    bump: usize,
    /// LIFO stacks of freed spans, one per span length seen.
    free: Vec<(usize, Vec<CellIdx>)>,
    /// One bit per slot of each claimed segment, set while allocated.
    bitmaps: Vec<Box<[u64]>>,
}

/// The growable sharded cell heap (see module docs).
///
/// # Examples
///
/// ```
/// use stm_core::arena::CellArena;
/// use stm_core::layout::StmLayout;
///
/// // 2 shards, 8-cell segments, up to 4 segments: capacity 32 cells.
/// let layout = StmLayout::arena(0, 2, 8, 0, 2, 8, 4);
/// let arena = CellArena::new(layout);
/// let a = arena.alloc(0).unwrap();
/// let b = arena.alloc_span(1, 3).unwrap(); // key, value, next triple
/// assert_ne!(layout.shard_of(a), layout.shard_of(b));
/// assert_eq!(arena.stats().live_cells, 4);
/// arena.free(a);
/// arena.free_span(b, 3);
/// assert_eq!(arena.stats().live_cells, 0);
/// ```
#[derive(Debug)]
pub struct CellArena {
    layout: StmLayout,
    shards: Box<[Mutex<Shard>]>,
    live_cells: AtomicUsize,
    high_water: AtomicUsize,
    segments_live: AtomicUsize,
    allocs: AtomicU64,
    frees: AtomicU64,
    /// Optional flight recorder fed one `CellAlloc`/`CellFree` event per
    /// span transition; `recording` keeps the no-recorder fast path to one
    /// relaxed load.
    recorder: Mutex<Option<FlightRecorder>>,
    recording: AtomicBool,
    /// Monotonic event ticket used as the recorder timestamp (the arena is
    /// host-side and has no port clock).
    events: AtomicU64,
}

impl CellArena {
    /// Create the allocator for an arena layout, with no segments grown yet.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is not an arena layout ([`StmLayout::arena`]).
    pub fn new(layout: StmLayout) -> Self {
        assert!(layout.is_arena(), "CellArena needs an arena StmLayout");
        let shards = (0..layout.n_shards())
            .map(|_| Mutex::new(Shard { claimed: 0, bump: 0, free: Vec::new(), bitmaps: Vec::new() }))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        CellArena {
            layout,
            shards,
            live_cells: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            segments_live: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            recorder: Mutex::new(None),
            recording: AtomicBool::new(false),
            events: AtomicU64::new(0),
        }
    }

    /// Attach a [`FlightRecorder`]: every span allocation and free emits a
    /// [`TxEvent::CellAlloc`]/[`TxEvent::CellFree`] (first cell index, live
    /// cells after), which the attribution fold and the metrics exporters
    /// surface as `stm_cell_allocs_total`/`stm_cell_frees_total`. Timestamps
    /// are a monotonic arena-local event counter, not machine cycles. Alloc
    /// events carry the allocating processor; free events (which have no
    /// processor argument) carry the freed cell's shard index in the proc
    /// column.
    pub fn attach_recorder(&self, recorder: FlightRecorder) {
        *self.recorder.lock().unwrap() = Some(recorder);
        self.recording.store(true, Ordering::Release);
    }

    fn record(&self, alloc: bool, proc: usize, cell: CellIdx, live: usize) {
        if !self.recording.load(Ordering::Relaxed) {
            return;
        }
        let (live, at) = (live as u64, self.events.fetch_add(1, Ordering::Relaxed));
        let ev = if alloc {
            TxEvent::CellAlloc { proc, cell, live, at }
        } else {
            TxEvent::CellFree { proc, cell, live, at }
        };
        if let Some(rec) = self.recorder.lock().unwrap().as_mut() {
            rec.on(&ev);
        }
    }

    /// The layout this arena allocates from.
    pub fn layout(&self) -> &StmLayout {
        &self.layout
    }

    /// Allocate one cell, preferring processor `proc`'s home shard.
    /// `None` when every shard is exhausted.
    pub fn alloc(&self, proc: usize) -> Option<CellIdx> {
        self.alloc_span(proc, 1)
    }

    /// Allocate `span` consecutive cells within one segment, preferring
    /// `proc`'s home shard (`proc % n_shards`) and spilling to the other
    /// shards in deterministic round-robin order only when it is full.
    ///
    /// # Panics
    ///
    /// Panics if `span` is 0 or exceeds the segment size.
    pub fn alloc_span(&self, proc: usize, span: usize) -> Option<CellIdx> {
        assert!(span > 0 && span <= self.layout.seg_cells(), "span out of range");
        let n_shards = self.shards.len();
        let home = proc & (n_shards - 1);
        for i in 0..n_shards {
            let shard = (home + i) & (n_shards - 1);
            if let Some(idx) = self.alloc_in_shard(shard, span) {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                let live = self.live_cells.fetch_add(span, Ordering::Relaxed) + span;
                self.high_water.fetch_max(live, Ordering::Relaxed);
                self.record(true, proc, idx, live);
                return Some(idx);
            }
        }
        None
    }

    fn alloc_in_shard(&self, shard: usize, span: usize) -> Option<CellIdx> {
        let n_shards = self.shards.len();
        let seg_cells = self.layout.seg_cells();
        let mut st = self.shards[shard].lock().unwrap();

        // Reuse a freed span of the exact length first (LIFO keeps the
        // working set hot).
        if let Some((_, stack)) = st.free.iter_mut().find(|(s, _)| *s == span) {
            if let Some(idx) = stack.pop() {
                let local_seg = self.layout.segment_of(idx) / n_shards;
                let slot = idx % seg_cells;
                Self::set_bits(&mut st.bitmaps[local_seg], slot, span, true);
                return Some(idx);
            }
        }

        // Bump-allocate, claiming this shard's next segment when the current
        // one can't fit the span (tail slots shorter than `span` are simply
        // never handed out).
        if st.claimed == 0 || st.bump + span > seg_cells {
            let next_global = shard + st.claimed * n_shards;
            if next_global >= self.layout.max_segments() {
                return None;
            }
            st.claimed += 1;
            st.bump = 0;
            st.bitmaps.push(vec![0u64; seg_cells.div_ceil(64)].into_boxed_slice());
            self.segments_live.fetch_add(1, Ordering::Relaxed);
        }
        let local_seg = st.claimed - 1;
        let slot = st.bump;
        st.bump += span;
        Self::set_bits(&mut st.bitmaps[local_seg], slot, span, true);
        Some(self.layout.cell_index(shard + local_seg * n_shards, slot))
    }

    /// Return one cell allocated with [`alloc`](Self::alloc).
    pub fn free(&self, idx: CellIdx) {
        self.free_span(idx, 1);
    }

    /// Return a span allocated with [`alloc_span`](Self::alloc_span); `span`
    /// must match the allocation.
    ///
    /// The span's packed `stamp|value` words are deliberately left as they
    /// were: a concurrent transaction that read them revalidates against the
    /// unchanged stamps, and the next allocation of these cells inherits
    /// stamps that keep moving forward.
    ///
    /// # Panics
    ///
    /// Panics if any cell of the span is not currently allocated (double
    /// free, wrong span length, or an index the arena never handed out).
    pub fn free_span(&self, idx: CellIdx, span: usize) {
        assert!(span > 0 && span <= self.layout.seg_cells(), "span out of range");
        assert!(idx + span <= self.layout.n_cells(), "cell index out of range");
        let seg_cells = self.layout.seg_cells();
        let slot = idx % seg_cells;
        assert!(slot + span <= seg_cells, "span straddles a segment boundary");
        let shard = self.layout.shard_of(idx);
        let n_shards = self.shards.len();
        let local_seg = self.layout.segment_of(idx) / n_shards;
        let mut st = self.shards[shard].lock().unwrap();
        assert!(local_seg < st.claimed, "freeing a cell in an unclaimed segment");
        for s in slot..slot + span {
            assert!(
                st.bitmaps[local_seg][s / 64] & (1u64 << (s % 64)) != 0,
                "double free of cell {}",
                idx + (s - slot)
            );
        }
        Self::set_bits(&mut st.bitmaps[local_seg], slot, span, false);
        match st.free.iter_mut().find(|(s, _)| *s == span) {
            Some((_, stack)) => stack.push(idx),
            None => st.free.push((span, vec![idx])),
        }
        drop(st);
        let live = self.live_cells.fetch_sub(span, Ordering::Relaxed) - span;
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.record(false, shard, idx, live);
    }

    /// Whether cell `idx` is currently allocated.
    pub fn is_live(&self, idx: CellIdx) -> bool {
        if idx >= self.layout.n_cells() {
            return false;
        }
        let shard = self.layout.shard_of(idx);
        let local_seg = self.layout.segment_of(idx) / self.shards.len();
        let slot = idx % self.layout.seg_cells();
        let st = self.shards[shard].lock().unwrap();
        local_seg < st.claimed && st.bitmaps[local_seg][slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Cells currently allocated.
    pub fn live_cells(&self) -> usize {
        self.live_cells.load(Ordering::Relaxed)
    }

    /// Total capacity in cells.
    pub fn capacity_cells(&self) -> usize {
        self.layout.n_cells()
    }

    /// Segments grown into so far.
    pub fn segments_live(&self) -> usize {
        self.segments_live.load(Ordering::Relaxed)
    }

    /// Point-in-time occupancy summary.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live_cells: self.live_cells.load(Ordering::Relaxed),
            high_water_cells: self.high_water.load(Ordering::Relaxed),
            segments_live: self.segments_live.load(Ordering::Relaxed),
            capacity_cells: self.layout.n_cells(),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }

    fn set_bits(bitmap: &mut [u64], slot: usize, span: usize, on: bool) {
        for s in slot..slot + span {
            if on {
                bitmap[s / 64] |= 1u64 << (s % 64);
            } else {
                bitmap[s / 64] &= !(1u64 << (s % 64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CellArena {
        // 2 shards, 8-cell segments, 6 segments: capacity 48.
        CellArena::new(StmLayout::arena(0, 4, 8, 0, 2, 8, 6))
    }

    #[test]
    fn alloc_prefers_home_shard_and_grows_by_segments() {
        let a = small();
        assert_eq!(a.segments_live(), 0);
        let c0 = a.alloc(0).unwrap();
        let c1 = a.alloc(1).unwrap();
        assert_eq!(a.layout().shard_of(c0), 0);
        assert_eq!(a.layout().shard_of(c1), 1);
        assert_eq!(a.segments_live(), 2);
        // Filling shard 0's first segment claims its *next* congruent
        // segment (global id 2), not shard 1's.
        for _ in 0..8 {
            a.alloc(0).unwrap();
        }
        assert_eq!(a.segments_live(), 3);
        assert_eq!(a.stats().high_water_cells, 10);
    }

    #[test]
    fn addresses_are_stable_and_reused_lifo() {
        let a = small();
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        a.free(x);
        assert!(!a.is_live(x) && a.is_live(y));
        // LIFO reuse hands the same index back; the address never moved.
        assert_eq!(a.alloc(0), Some(x));
        assert_eq!(a.layout().cell(x), a.layout().cell(x));
    }

    #[test]
    fn spans_stay_inside_one_segment() {
        let a = small();
        let mut spans = Vec::new();
        while let Some(s) = a.alloc_span(0, 3) {
            spans.push(s);
        }
        for &s in &spans {
            assert_eq!(a.layout().segment_of(s), a.layout().segment_of(s + 2));
        }
        // 8-cell segments fit two 3-spans each (2 tail slots wasted); both
        // shards' 3 segments each get exhausted.
        assert_eq!(spans.len(), 12);
        assert_eq!(a.live_cells(), 36);
        for &s in &spans {
            a.free_span(s, 3);
        }
        assert_eq!(a.live_cells(), 0);
        assert_eq!(a.stats().frees, 12);
    }

    #[test]
    fn exhaustion_returns_none_then_free_recovers() {
        let a = small();
        let all: Vec<_> = std::iter::from_fn(|| a.alloc(0)).collect();
        assert_eq!(all.len(), 48);
        assert_eq!(a.alloc(3), None);
        a.free(all[7]);
        assert_eq!(a.alloc(3), Some(all[7]));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let a = small();
        let x = a.alloc(0).unwrap();
        a.free(x);
        a.free(x);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_unallocated_cell_panics() {
        let a = small();
        let _ = a.alloc(0).unwrap();
        a.free(5); // same segment, never handed out
    }

    #[test]
    fn attached_recorder_sees_every_alloc_and_free() {
        let a = small();
        let rec = FlightRecorder::new(0, 64);
        let buf = rec.buffer();
        a.attach_recorder(rec);
        let x = a.alloc_span(1, 3).unwrap();
        let y = a.alloc_span(0, 2).unwrap();
        a.free_span(x, 3);
        a.free_span(y, 2);
        let read = buf.read_since(0);
        assert_eq!(read.dropped, 0);
        // First cell index and live cells after each transition. Alloc
        // events carry the allocating proc; frees carry the shard.
        let shard = |c| a.layout().shard_of(c);
        let events: Vec<TxEvent> = read.events.iter().map(|e| e.event).collect();
        assert_eq!(
            events,
            vec![
                TxEvent::CellAlloc { proc: 1, cell: x, live: 3, at: 0 },
                TxEvent::CellAlloc { proc: 0, cell: y, live: 5, at: 1 },
                TxEvent::CellFree { proc: shard(x), cell: x, live: 2, at: 2 },
                TxEvent::CellFree { proc: shard(y), cell: y, live: 0, at: 3 },
            ]
        );
    }

    #[test]
    fn concurrent_alloc_free_is_consistent() {
        let a = std::sync::Arc::new(CellArena::new(StmLayout::arena(0, 4, 8, 0, 4, 64, 64)));
        std::thread::scope(|s| {
            for p in 0..4 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for round in 0..500 {
                        if round % 3 == 2 {
                            if let Some(idx) = mine.pop() {
                                a.free_span(idx, 2);
                            }
                        } else if let Some(idx) = a.alloc_span(p, 2) {
                            mine.push(idx);
                        }
                    }
                    for idx in mine {
                        a.free_span(idx, 2);
                    }
                });
            }
        });
        let st = a.stats();
        assert_eq!(st.live_cells, 0);
        assert_eq!(st.allocs, st.frees);
        assert!(st.high_water_cells <= st.capacity_cells);
    }
}
