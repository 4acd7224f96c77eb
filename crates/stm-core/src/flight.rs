//! Always-on flight recorder: a lock-free, per-thread ring of compact
//! transaction events.
//!
//! [`FlightRecorder`] is a [`TxObserver`] that appends one fixed-width
//! record per *coarse* [`TxEvent`] — every variant except the per-cell
//! micro events `Acquired`, `WriteBack` and `Released`, which dominate
//! event volume and would blow the observer-overhead budget the bench gate
//! enforces ([`is_recorded`] is the rule) — into a power-of-two
//! [`FlightBuffer`]. A record is the event plus what the recorder adds at
//! record time ([`FlightEvent`]); one packing function and its inverse map
//! it to and from the four payload words of a ring slot.
//!
//! # Memory-ordering argument
//!
//! Each buffer has exactly **one writer** (the owning transaction thread)
//! and any number of concurrent readers (aggregators taking snapshots).
//! Every slot is a tiny seqlock:
//!
//! * the writer stores `seq = 2h + 1` (odd: write in progress, `h` is the
//!   global event index landing in this slot), publishes the four payload
//!   words with `Relaxed` stores behind a `Release` fence, then stores
//!   `seq = 2h + 2` (even: slot holds event `h`) with `Release`, and
//!   finally advances the shared head with `Release`;
//! * a reader loads `seq` with `Acquire`, copies the payload, issues an
//!   `Acquire` fence, and re-loads `seq`. The copy is coherent **iff** both
//!   loads observed the same even value `2h + 2`; otherwise the slot was
//!   concurrently overwritten and the reader counts it as dropped instead
//!   of surfacing torn data.
//!
//! The writer never waits, never loops, and never takes a branch that
//! depends on readers — appends are wait-free and the recorder adds no
//! [`MemPort`](crate::machine::MemPort) traffic, so attaching it to a
//! simulated run leaves default-config schedules bit-identical (the
//! `telemetry` test suite pins this with a proptest oracle).

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::observe::{TxEvent, TxObserver};
use crate::word::CellIdx;

/// Default per-thread ring capacity (events) used by convenience
/// constructors; callers with tighter memory budgets can pass their own.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Operation tag meaning "no operation registered" on an [`OpBoard`].
pub const NO_OP_TAG: u32 = 0;

/// Operation tags are truncated to this many bits when packed into a slot.
const OP_TAG_BITS: u32 = 24;
const OP_TAG_MASK: u32 = (1 << OP_TAG_BITS) - 1;

/// Sentinel for "no cell" in a packed `Conflict` record.
const NO_CELL: u64 = u64::MAX;

/// Flag bit marking a packed `Conflict` record whose owner is known.
const OWNER_KNOWN: u64 = 1 << 63;

// ---------------------------------------------------------------------------
// Event encoding
// ---------------------------------------------------------------------------

/// One flight-recorder record: a [`TxEvent`] plus the context the recorder
/// adds when it records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// The recorded event.
    pub event: TxEvent,
    /// Operation tag of the recording proc's current op (24 bits;
    /// [`NO_OP_TAG`] when untagged). See [`FlightRecorder::set_op`].
    pub op: u32,
    /// For a `Conflict` with a known owner: the owner's op tag, read from
    /// the [`OpBoard`] at record time ([`NO_OP_TAG`] otherwise).
    pub owner_op: u32,
    /// For `Committed`/`Aborted`: port time since the attempt's
    /// `AttemptBegin` (0 otherwise, and 0 on hosts without a cycle source).
    pub cycles: u64,
}

/// Whether the flight recorder keeps `ev`: every event except the per-cell
/// `Acquired`, `WriteBack` and `Released`.
#[inline]
pub fn is_recorded(ev: &TxEvent) -> bool {
    FlightEvent { event: *ev, op: NO_OP_TAG, owner_op: NO_OP_TAG, cycles: 0 }
        .pack()
        .is_some()
}

/// Saturate a count into the 32 bits a packed field has.
#[inline]
fn u32_sat(v: u64) -> u64 {
    v.min(u64::from(u32::MAX))
}

impl FlightEvent {
    /// Pack into a ring slot's four words, or `None` for an event the
    /// recorder skips. Word 0 is `kind << 56 | op << 32 | proc`, word 3 is
    /// `at`, and words 1 and 2 hold the variant's payload. `kind` numbers
    /// are the record format; [`unpack`](Self::unpack) is the inverse.
    /// `JournalFlush` saturates `records` and `bytes` at `u32::MAX`.
    #[inline(always)]
    fn pack(&self) -> Option<[u64; 4]> {
        let (kind, proc, a, b, at) = match self.event {
            TxEvent::Acquired { .. } | TxEvent::WriteBack { .. } | TxEvent::Released { .. } => {
                return None
            }
            TxEvent::AttemptBegin { proc, attempt, at } => (1, proc, attempt, 0, at),
            TxEvent::Conflict { proc, cell, owner, at } => {
                let tag = u64::from(self.owner_op & OP_TAG_MASK);
                let b = owner.map_or(0, |p| OWNER_KNOWN | tag << 32 | p as u64);
                (2, proc, cell.map_or(NO_CELL, |c| c as u64), b, at)
            }
            TxEvent::HelpBegin { proc, owner, at } => (3, proc, owner as u64, 0, at),
            TxEvent::HelpEnd { proc, owner, at } => (4, proc, owner as u64, 0, at),
            TxEvent::Committed { proc, attempts, at } => (5, proc, attempts, self.cycles, at),
            TxEvent::Aborted { proc, at_pos, at } => (6, proc, at_pos as u64, self.cycles, at),
            TxEvent::BackoffWait { proc, attempt, amount, at } => (7, proc, attempt, amount, at),
            TxEvent::StarvationEscalated { proc, owner, attempts, at } => {
                (8, proc, attempts, owner.map_or(0, |p| p as u64 + 1), at)
            }
            TxEvent::OpPanicked { proc, attempts, at } => (9, proc, attempts, 0, at),
            TxEvent::JournalFlush { proc, records, bytes, latency, at } => {
                (10, proc, u32_sat(records) << 32 | u32_sat(bytes), latency, at)
            }
            TxEvent::RecoveryReplayed { records, installed, at } => (11, 0, records, installed, at),
            TxEvent::ForcedCommit { proc, attempts, at } => (12, proc, attempts, 0, at),
            TxEvent::ConflictDeferred { proc, owner, at } => (13, proc, owner as u64, 0, at),
            TxEvent::DeltaCommitted { proc, cells_changed, at } => (14, proc, cells_changed, 0, at),
            TxEvent::RetryBlocked { proc, watched, at } => (15, proc, watched, 0, at),
            TxEvent::RetryWoken { proc, wakeups, at } => (16, proc, wakeups, 0, at),
            TxEvent::CellAlloc { proc, cell, live, at } => (17, proc, cell as u64, live, at),
            TxEvent::CellFree { proc, cell, live, at } => (18, proc, cell as u64, live, at),
        };
        let w0 = (kind << 56) | (u64::from(self.op & OP_TAG_MASK) << 32) | u64::from(proc as u32);
        Some([w0, a, b, at])
    }

    /// Inverse of [`pack`](Self::pack); `None` for an unknown kind.
    fn unpack(w: [u64; 4]) -> Option<Self> {
        let proc = w[0] as u32 as usize;
        let (a, b, at) = (w[1], w[2], w[3]);
        let (mut owner_op, mut cycles) = (NO_OP_TAG, 0);
        let event = match w[0] >> 56 {
            1 => TxEvent::AttemptBegin { proc, attempt: a, at },
            2 => {
                owner_op = (b >> 32) as u32 & OP_TAG_MASK;
                let cell = (a != NO_CELL).then_some(a as CellIdx);
                let owner = (b & OWNER_KNOWN != 0).then_some(b as u32 as usize);
                TxEvent::Conflict { proc, cell, owner, at }
            }
            3 => TxEvent::HelpBegin { proc, owner: a as usize, at },
            4 => TxEvent::HelpEnd { proc, owner: a as usize, at },
            5 => {
                cycles = b;
                TxEvent::Committed { proc, attempts: a, at }
            }
            6 => {
                cycles = b;
                TxEvent::Aborted { proc, at_pos: a as usize, at }
            }
            7 => TxEvent::BackoffWait { proc, attempt: a, amount: b, at },
            8 => {
                let owner = b.checked_sub(1).map(|p| p as usize);
                TxEvent::StarvationEscalated { proc, owner, attempts: a, at }
            }
            9 => TxEvent::OpPanicked { proc, attempts: a, at },
            10 => {
                let (records, bytes) = (a >> 32, a & u64::from(u32::MAX));
                TxEvent::JournalFlush { proc, records, bytes, latency: b, at }
            }
            11 => TxEvent::RecoveryReplayed { records: a, installed: b, at },
            12 => TxEvent::ForcedCommit { proc, attempts: a, at },
            13 => TxEvent::ConflictDeferred { proc, owner: a as usize, at },
            14 => TxEvent::DeltaCommitted { proc, cells_changed: a, at },
            15 => TxEvent::RetryBlocked { proc, watched: a, at },
            16 => TxEvent::RetryWoken { proc, wakeups: a, at },
            17 => TxEvent::CellAlloc { proc, cell: a as CellIdx, live: b, at },
            18 => TxEvent::CellFree { proc, cell: a as CellIdx, live: b, at },
            _ => return None,
        };
        let op = (w[0] >> 32) as u32 & OP_TAG_MASK;
        Some(Self { event, op, owner_op, cycles })
    }
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

struct Slot {
    /// Seqlock word: 0 = never written, `2h + 1` = event `h` in flight,
    /// `2h + 2` = event `h` published.
    seq: AtomicU64,
    w: [AtomicU64; 4],
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            w: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// Result of [`FlightBuffer::read_since`].
#[derive(Debug, Clone, Default)]
pub struct RingRead {
    /// Events recovered coherently, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events lost since the caller's cursor: overwritten before they were
    /// read, plus any slot torn by a concurrent write during this read.
    pub dropped: u64,
    /// Cursor to pass to the next `read_since` call.
    pub cursor: u64,
}

/// Fixed-size power-of-two ring of [`FlightEvent`]s with one wait-free
/// writer and lock-free snapshot readers. See the module docs for the
/// seqlock protocol and memory-ordering argument.
pub struct FlightBuffer {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for FlightBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightBuffer")
            .field("capacity", &self.slots.len())
            .field("written", &self.written())
            .finish()
    }
}

impl FlightBuffer {
    /// Allocate a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        Self {
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of event slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever appended (monotone; not bounded by capacity).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Append one record; a per-cell event ([`is_recorded`] false) is not
    /// appended. Wait-free; must only be called from the single owning
    /// writer thread (enforced by [`FlightRecorder`] holding the only
    /// append path).
    #[inline(always)]
    pub fn append(&self, ev: &FlightEvent) {
        let Some(words) = ev.pack() else { return };
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        slot.seq.store(2 * h + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, &v) in slot.w.iter().zip(&words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copy out every event with index `>= cursor` that is still resident,
    /// counting anything already overwritten (or torn mid-read) as dropped.
    pub fn read_since(&self, cursor: u64) -> RingRead {
        let head = self.written();
        let cap = self.slots.len() as u64;
        let lo = cursor.max(head.saturating_sub(cap));
        let mut out = RingRead {
            events: Vec::with_capacity((head - lo) as usize),
            dropped: lo - cursor,
            cursor: head,
        };
        for idx in lo..head {
            let slot = &self.slots[(idx & self.mask) as usize];
            let expect = 2 * idx + 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != expect {
                // Already recycled for a newer event (or still in flight
                // after a torn writer death): the record is gone.
                out.dropped += 1;
                continue;
            }
            let words = [
                slot.w[0].load(Ordering::Relaxed),
                slot.w[1].load(Ordering::Relaxed),
                slot.w[2].load(Ordering::Relaxed),
                slot.w[3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            match (s2 == s1, FlightEvent::unpack(words)) {
                (true, Some(ev)) => out.events.push(ev),
                _ => out.dropped += 1,
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Op board
// ---------------------------------------------------------------------------

/// Shared proc → operation-tag board.
///
/// Each worker publishes the tag of the operation it is currently running
/// ([`FlightRecorder::set_op`]); a victim reads the *aborter's* tag here at
/// conflict time, giving the attribution layer victim-op → aborter-op
/// pairs without touching the transactional memory port (so simulated
/// schedules stay untouched).
#[derive(Debug)]
pub struct OpBoard {
    tags: Box<[AtomicU32]>,
}

impl OpBoard {
    /// Board for `procs` workers, all initially [`NO_OP_TAG`].
    pub fn new(procs: usize) -> Self {
        Self {
            tags: (0..procs).map(|_| AtomicU32::new(NO_OP_TAG)).collect(),
        }
    }

    /// Publish `tag` as proc `proc`'s current operation.
    #[inline]
    pub fn set(&self, proc: usize, tag: u32) {
        if let Some(t) = self.tags.get(proc) {
            t.store(tag & OP_TAG_MASK, Ordering::Relaxed);
        }
    }

    /// Read proc `proc`'s current operation tag ([`NO_OP_TAG`] if unknown).
    #[inline]
    pub fn get(&self, proc: usize) -> u32 {
        self.tags.get(proc).map_or(NO_OP_TAG, |t| t.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Per-thread flight recorder: a [`TxObserver`] appending compact records
/// into its [`FlightBuffer`].
///
/// Construct one per worker thread (e.g. via
/// [`MetricsRegistry::recorder`](crate::export::MetricsRegistry::recorder))
/// and pass it to [`TxOptions::observer`](crate::stm::TxOptions::observer).
/// The buffer is shared (`Arc`), so aggregators can snapshot concurrently
/// while the worker keeps committing.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Arc<FlightBuffer>,
    board: Option<Arc<OpBoard>>,
    proc: u32,
    op: u32,
    attempt_started: u64,
    cursor: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Recorder for `proc` with a private ring of `capacity` events.
    pub fn new(proc: usize, capacity: usize) -> Self {
        Self::from_parts(proc, Arc::new(FlightBuffer::new(capacity)), None)
    }

    /// Recorder for `proc` publishing its op tag on (and reading aborter
    /// tags from) a shared [`OpBoard`].
    pub fn with_board(proc: usize, capacity: usize, board: Arc<OpBoard>) -> Self {
        Self::from_parts(proc, Arc::new(FlightBuffer::new(capacity)), Some(board))
    }

    /// Recorder over an existing shared buffer (used by the registry).
    pub fn from_parts(proc: usize, buf: Arc<FlightBuffer>, board: Option<Arc<OpBoard>>) -> Self {
        Self {
            buf,
            board,
            proc: proc as u32,
            op: NO_OP_TAG,
            attempt_started: 0,
            cursor: 0,
            dropped: 0,
        }
    }

    /// Tag subsequent events (and this proc's [`OpBoard`] entry) with
    /// operation `tag`. Tags are app-defined, truncated to 24 bits;
    /// [`NO_OP_TAG`] means untagged.
    #[inline]
    pub fn set_op(&mut self, tag: u32) {
        self.op = tag & OP_TAG_MASK;
        if let Some(b) = &self.board {
            b.set(self.proc as usize, self.op);
        }
    }

    /// The shared ring this recorder appends to.
    pub fn buffer(&self) -> Arc<FlightBuffer> {
        Arc::clone(&self.buf)
    }

    /// The proc this recorder was built for.
    pub fn proc(&self) -> usize {
        self.proc as usize
    }

    /// Cumulative events lost to ring overwrite across all [`drain`]
    /// calls so far.
    ///
    /// [`drain`]: Self::drain
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain every event recorded since the previous drain (oldest first).
    /// Events overwritten before this call are counted in [`dropped`],
    /// never silently lost.
    ///
    /// [`dropped`]: Self::dropped
    pub fn drain(&mut self) -> Vec<FlightEvent> {
        let read = self.buf.read_since(self.cursor);
        self.cursor = read.cursor;
        self.dropped += read.dropped;
        read.events
    }
}

impl TxObserver for FlightRecorder {
    #[inline(always)]
    fn on(&mut self, ev: &TxEvent) {
        let mut rec = FlightEvent { event: *ev, op: self.op, owner_op: NO_OP_TAG, cycles: 0 };
        match *ev {
            TxEvent::AttemptBegin { at, .. } => self.attempt_started = at,
            TxEvent::Conflict { owner: Some(p), .. } => {
                rec.owner_op = self.board.as_ref().map_or(NO_OP_TAG, |b| b.get(p));
            }
            TxEvent::Committed { at, .. } | TxEvent::Aborted { at, .. } => {
                rec.cycles = at.saturating_sub(self.attempt_started);
            }
            _ => {}
        }
        self.buf.append(&rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event: TxEvent) -> FlightEvent {
        FlightEvent { event, op: 7, owner_op: NO_OP_TAG, cycles: 0 }
    }

    #[test]
    fn pack_unpack_roundtrips_every_recorded_variant() {
        let owned = TxEvent::Conflict { proc: 1, cell: Some(42), owner: Some(5), at: 77 };
        let kept = [
            rec(TxEvent::AttemptBegin { proc: 3, attempt: 9, at: 100 }),
            FlightEvent { owner_op: 0xabcdef, ..rec(owned) },
            rec(TxEvent::Conflict { proc: 1, cell: None, owner: None, at: 78 }),
            rec(TxEvent::HelpBegin { proc: 2, owner: 4, at: 5 }),
            rec(TxEvent::HelpEnd { proc: 2, owner: 4, at: 6 }),
            FlightEvent {
                cycles: 880,
                ..rec(TxEvent::Committed { proc: 0, attempts: 4, at: 999 })
            },
            FlightEvent { cycles: 30, ..rec(TxEvent::Aborted { proc: 0, at_pos: 2, at: 50 }) },
            rec(TxEvent::BackoffWait { proc: 1, attempt: 3, amount: 64, at: 9 }),
            rec(TxEvent::StarvationEscalated { proc: 1, owner: Some(0), attempts: 12, at: 9 }),
            rec(TxEvent::StarvationEscalated { proc: 1, owner: None, attempts: 13, at: 9 }),
            rec(TxEvent::OpPanicked { proc: 2, attempts: 1, at: 4 }),
            rec(TxEvent::JournalFlush { proc: 2, records: 3, bytes: 128, latency: 17, at: 5 }),
            rec(TxEvent::RecoveryReplayed { records: 5, installed: 4, at: 0 }),
            rec(TxEvent::ForcedCommit { proc: 3, attempts: 40, at: 8 }),
            rec(TxEvent::ConflictDeferred { proc: 3, owner: 1, at: 8 }),
            rec(TxEvent::DeltaCommitted { proc: 0, cells_changed: 2, at: 8 }),
            rec(TxEvent::RetryBlocked { proc: 1, watched: 6, at: 8 }),
            rec(TxEvent::RetryWoken { proc: 1, wakeups: 2, at: 8 }),
            rec(TxEvent::CellAlloc { proc: 1, cell: 640, live: 5, at: 1 }),
            rec(TxEvent::CellFree { proc: 0, cell: 640, live: 2, at: 2 }),
        ];
        for r in kept {
            assert!(is_recorded(&r.event), "{r:?}");
            assert_eq!(FlightEvent::unpack(r.pack().unwrap()), Some(r));
        }
        let skipped = [
            TxEvent::Acquired { proc: 0, cell: 1, at: 0 },
            TxEvent::WriteBack { proc: 0, cell: 1, at: 0 },
            TxEvent::Released { proc: 0, cell: 1, at: 0 },
        ];
        for ev in skipped {
            assert!(!is_recorded(&ev), "{ev:?}");
            assert_eq!(rec(ev).pack(), None);
        }
    }

    #[test]
    fn ring_drains_in_order_and_counts_overflow() {
        let buf = FlightBuffer::new(8);
        let begin = |i| TxEvent::AttemptBegin { proc: 0, attempt: i, at: i };
        for i in 0..20u64 {
            buf.append(&rec(begin(i)));
        }
        let read = buf.read_since(0);
        // Capacity 8: only the last 8 events survive, 12 are dropped.
        assert_eq!(read.dropped, 12);
        assert_eq!(read.events.len(), 8);
        assert_eq!(read.events.first().map(|e| e.event), Some(begin(12)));
        assert_eq!(read.events.last().map(|e| e.event), Some(begin(19)));
        assert_eq!(read.cursor, 20);
        // A second read from the returned cursor sees nothing new.
        let again = buf.read_since(read.cursor);
        assert!(again.events.is_empty());
        assert_eq!(again.dropped, 0);
        // Per-cell events are never appended.
        buf.append(&rec(TxEvent::Released { proc: 0, cell: 3, at: 0 }));
        assert_eq!(buf.written(), 20);
    }

    #[test]
    fn recorder_drain_preserves_written_accounting() {
        let mut rec = FlightRecorder::new(1, 8);
        let buf = rec.buffer();
        for i in 0..30 {
            rec.on(&TxEvent::AttemptBegin { proc: 1, attempt: i, at: i });
        }
        let drained = rec.drain();
        assert_eq!(drained.len() as u64 + rec.dropped(), buf.written());
        assert!(rec.dropped() > 0, "tiny ring must overflow");
    }

    #[test]
    fn board_attribution_tags_conflicts() {
        let board = Arc::new(OpBoard::new(4));
        board.set(2, 0x1234);
        let mut rec = FlightRecorder::with_board(0, 32, Arc::clone(&board));
        rec.set_op(0x42);
        let conflict = TxEvent::Conflict { proc: 0, cell: Some(7), owner: Some(2), at: 10 };
        rec.on(&conflict);
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, 0x42);
        assert_eq!(events[0].owner_op, 0x1234);
        assert_eq!(events[0].event, conflict);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_slots() {
        let buf = Arc::new(FlightBuffer::new(64));
        let writer = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    let commit = TxEvent::Committed { proc: 0, attempts: i, at: i };
                    buf.append(&FlightEvent { cycles: i.wrapping_mul(3), ..rec(commit) });
                }
            })
        };
        let mut cursor = 0;
        let mut seen = 0u64;
        while seen < 50_000 {
            let read = buf.read_since(cursor);
            cursor = read.cursor;
            for e in &read.events {
                // Payload invariant: cycles == 3 * attempts == 3 * at for
                // every coherent record.
                let TxEvent::Committed { attempts, at, .. } = e.event else {
                    panic!("torn slot surfaced: {e:?}")
                };
                assert_eq!(at, attempts, "torn slot surfaced");
                assert_eq!(e.cycles, attempts.wrapping_mul(3), "torn slot surfaced");
            }
            seen += read.events.len() as u64 + read.dropped;
        }
        writer.join().unwrap();
    }
}
