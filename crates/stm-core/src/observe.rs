//! Transaction lifecycle observers — zero-cost telemetry.
//!
//! The protocol in [`crate::stm`] (and the dynamic layer in
//! [`crate::dynamic`]) reports every externally meaningful event of a
//! transaction's life to a [`TxObserver`] as a [`TxEvent`]: attempt begin,
//! per-cell acquisition, the conflict that failed an attempt, the helping
//! span spent on another processor's transaction, installs, releases, and
//! the terminal commit/abort of each attempt. `TxEvent` is the one event
//! vocabulary: the observer trait has a single method,
//! [`on`](TxObserver::on), and every consumer — [`RecordingObserver`],
//! [`crate::metrics::TxMetrics`], the flight recorder in [`crate::flight`]
//! and the counters folded from it — matches on the same enum.
//!
//! The observer parameter is **monomorphized**
//! ([`Stm::run`](crate::stm::Stm::run) is generic over `O: TxObserver`) and
//! every `on` is `#[inline]`, so each call site's `match` folds to the one
//! arm its event reaches, and the uninstrumented path — [`NoopObserver`],
//! whose `on` is empty — compiles to exactly the code the unobserved fast
//! path had before observers existed. The counting-port footprint test in
//! [`crate::machine::counting`] pins that equivalence.
//!
//! Timestamps (`at`) come from [`MemPort::now`](crate::machine::MemPort::now):
//! real virtual cycles on the `stm-sim` simulator, `0` on the host machine
//! (where duration metrics degenerate to counts).
//!
//! Two observers ship with this module:
//!
//! * [`NoopObserver`] — the default; costs nothing.
//! * [`RecordingObserver`] — appends every event to a vector, for tests and
//!   tooling (the observer-ordering property tests are built on it).
//!
//! # Event grammar
//!
//! Per observed [`Stm::run`](crate::stm::Stm::run) call, the emitted
//! sequence is:
//!
//! ```text
//! ( AttemptBegin
//!     Acquired*                          ascending cell order
//!     [ Conflict
//!       [ HelpBegin ...helped work... HelpEnd ]
//!       Aborted ]                        terminal for a failed attempt
//! )*
//! AttemptBegin Acquired* WriteBack* Released* Committed
//! ```
//!
//! Events between `HelpBegin` and `HelpEnd` (`Acquired`/`WriteBack`/
//! `Released`) belong to the *helped* transaction, executed by this
//! processor on the owner's behalf — helping is one level deep, so help
//! spans never nest. The remaining variants sit outside this grammar and
//! each documents where it is emitted.

use crate::word::CellIdx;

/// Observer of one processor's transaction lifecycle events.
///
/// Implementations match on the [`TxEvent`] variants they care about and
/// ignore the rest. The protocol emits each event at a fixed call site with
/// a known variant, and only an inlined `on` lets the compiler fold the
/// `match` down to that one arm: mark `on` `#[inline]`, or
/// `#[inline(always)]` when its body is large enough that the inliner would
/// decline it before folding (the flight recorder's is).
pub trait TxObserver {
    /// Observe one event.
    fn on(&mut self, ev: &TxEvent);
}

/// A mutable reference to an observer is itself an observer, so callers can
/// keep ownership of a long-lived observer while handing it to
/// [`TxOptions`](crate::stm::TxOptions) by value:
/// `TxOptions::new().observer(&mut recorder)`.
///
/// The forwarders are `#[inline(always)]`: one left out of line carries the
/// inner observer's whole `match` into every call. On `bench_gate`'s W1 host
/// ladder (2-core Xeon) that measured as a +10% flight-recorder overhead,
/// against ~0% with the forwarders inlined.
impl<O: TxObserver + ?Sized> TxObserver for &mut O {
    #[inline(always)]
    fn on(&mut self, ev: &TxEvent) {
        (**self).on(ev)
    }
}

/// A pair of observers is an observer: every event is forwarded to both
/// elements, in order. This is the zero-allocation way to tee one run into
/// two sinks, e.g. end-of-run metrics plus a live flight recorder:
/// `TxOptions::new().observer((&mut metrics, &mut recorder))`.
impl<A: TxObserver, B: TxObserver> TxObserver for (A, B) {
    #[inline(always)]
    fn on(&mut self, ev: &TxEvent) {
        self.0.on(ev);
        self.1.on(ev);
    }
}

/// The default observer: `on` is empty, and the monomorphized protocol code
/// is identical to the unobserved path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl TxObserver for NoopObserver {
    #[inline]
    fn on(&mut self, _ev: &TxEvent) {}
}

/// One transaction lifecycle event.
///
/// `proc` is always the *acting* processor (the one running the protocol
/// code); `at` is that processor's local time per
/// [`MemPort::now`](crate::machine::MemPort::now).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the fields are described on each variant
pub enum TxEvent {
    /// A new attempt (1-based `attempt` counter) of this processor's own
    /// transaction was published.
    AttemptBegin { proc: usize, attempt: u64, at: u64 },
    /// Ownership of `cell` is now held for the running transaction (claimed
    /// by this participant or found already claimed by a co-participant).
    /// Emitted in ascending cell order within each acquisition pass.
    Acquired { proc: usize, cell: CellIdx, at: u64 },
    /// This processor's own attempt was decided `Failure` because `cell`
    /// (if known — `None` only for a malformed failure index) was owned by
    /// a live conflicting transaction. `owner` is the processor that held
    /// the obstructing ownership, when the protocol re-read it (helping
    /// paths do; pure-backoff paths report `None` rather than pay an extra
    /// ownership read). Emitted exactly once per
    /// [`TxStats::conflicts`](crate::stm::TxStats::conflicts) increment.
    Conflict { proc: usize, cell: Option<CellIdx>, owner: Option<usize>, at: u64 },
    /// This processor is about to help the transaction initiated by `owner`
    /// (the paper's non-redundant helping; one level only). Emitted exactly
    /// once per [`TxStats::helps`](crate::stm::TxStats::helps) increment.
    HelpBegin { proc: usize, owner: usize, at: u64 },
    /// The helping span opened by the matching `HelpBegin` finished (the
    /// helped transaction is complete or was already done).
    HelpEnd { proc: usize, owner: usize, at: u64 },
    /// This participant is about to install a changed value into `cell`
    /// (positions whose new value equals the old are logical reads and are
    /// not reported).
    WriteBack { proc: usize, cell: CellIdx, at: u64 },
    /// This participant is about to release ownership of `cell`.
    Released { proc: usize, cell: CellIdx, at: u64 },
    /// This processor's own transaction committed after `attempts` attempts.
    /// Terminal event of the final attempt.
    Committed { proc: usize, attempts: u64, at: u64 },
    /// This processor's own attempt was decided `Failure` at data-set
    /// position `at_pos` (program order). Terminal event of a failed
    /// attempt; emitted after any conflict/help events of that attempt.
    Aborted { proc: usize, at_pos: usize, at: u64 },
    /// The managed retry loop ([`Stm::run`](crate::stm::Stm::run)) is about
    /// to wait between attempts on a
    /// [`ContentionManager`](crate::contention::ContentionManager) decision.
    /// `amount` is the spin window in cycles for a spin wait, the park
    /// duration in microseconds for a parked wait, and `0` for a plain
    /// yield.
    BackoffWait { proc: usize, attempt: u64, amount: u64, at: u64 },
    /// The contention manager detected starvation (repeated losses to the
    /// same owner, or too many attempts overall) and escalated this
    /// processor to help-first mode. `owner` is the obstructing owner at the
    /// moment of escalation, if still visible. Managed paths only.
    StarvationEscalated { proc: usize, owner: Option<usize>, attempts: u64, at: u64 },
    /// A commit program panicked inside this processor's own attempt. The
    /// transaction installed nothing, all ownerships were released, and the
    /// panic is being surfaced as
    /// [`TxError::OpPanicked`](crate::stm::TxError::OpPanicked).
    OpPanicked { proc: usize, attempts: u64, at: u64 },
    /// A durable backend ([`Journal`](crate::durable::Journal)) flushed
    /// `records` redo records (`bytes` encoded bytes) to stable storage
    /// before this participant installed any value. `latency` is in the
    /// port's time units (virtual cycles on the simulator, nanoseconds on
    /// the host). Emitted once per non-empty journal flush, by whichever
    /// participant (owner or helper) performed it.
    JournalFlush { proc: usize, records: u64, bytes: u64, latency: u64, at: u64 },
    /// A recovery pass ([`recover_with`](crate::durable::recover_with))
    /// finished: `records` verified records were scanned and `installed`
    /// individual cell installs were replayed. `at` is `0` — recovery runs
    /// before any port exists.
    RecoveryReplayed { records: u64, installed: u64, at: u64 },
    /// A helping excursion hit a live conflict while helping the escalated
    /// transaction of `owner` and **deferred** — left the record undecided
    /// instead of failing it (the
    /// [`PriorityBoard`](crate::contention::PriorityBoard) protection). Only
    /// emitted when an escalation board is attached.
    ConflictDeferred { proc: usize, owner: usize, at: u64 },
    /// This processor's own transaction committed while holding the forced
    /// slot (the never-self-fail sweep). Emitted immediately after the
    /// matching `Committed`. Only emitted when an escalation board is
    /// attached and the manager reached
    /// [`PriorityLevel::Forced`](crate::contention::PriorityLevel).
    ForcedCommit { proc: usize, attempts: u64, at: u64 },
    /// The dynamic layer's commit-time validation failed but only
    /// `cells_changed` read cells moved (at most
    /// [`StmConfig::delta_retry_cells`](crate::stm::StmConfig::delta_retry_cells)),
    /// so the transaction re-ran its body against the validated snapshot and
    /// committed without a full re-read retry. Emitted immediately after the
    /// delta-committed attempt's `Committed`.
    DeltaCommitted { proc: usize, cells_changed: u64, at: u64 },
    /// A blocking dynamic transaction
    /// ([`DynamicStm::run_blocking`](crate::dynamic::DynamicStm::run_blocking))
    /// hit `retry` and is about to park on its read set of `watched` cells.
    RetryBlocked { proc: usize, watched: u64, at: u64 },
    /// A blocking dynamic transaction returned from its park (cumulative
    /// `wakeups` for this call, counting this one) and is about to re-run
    /// its body.
    RetryWoken { proc: usize, wakeups: u64, at: u64 },
    /// A [`CellArena`](crate::arena::CellArena) handed out the span starting
    /// at `cell`; `live` is the arena's live-cell count after it. Arena
    /// bookkeeping is host-side, so `at` is an arena-local event counter.
    CellAlloc { proc: usize, cell: CellIdx, live: u64, at: u64 },
    /// A span starting at `cell` was returned to the arena (counterpart of
    /// `CellAlloc`).
    CellFree { proc: usize, cell: CellIdx, live: u64, at: u64 },
}

/// Default [`RecordingObserver`] capacity: generous for tests and tours,
/// but bounded so a long chaos/stress run cannot grow the vector forever.
pub const DEFAULT_RECORDING_CAPACITY: usize = 1 << 20;

/// An observer that appends every event to a vector — the test and tooling
/// workhorse.
///
/// Capacity-bounded: once `capacity` events are held, further events are
/// counted in [`dropped`](Self::dropped) instead of stored. [`take`]
/// drains the vector, so periodic consumers never hit the bound.
///
/// [`take`]: Self::take
#[derive(Debug, Clone)]
pub struct RecordingObserver {
    events: Vec<TxEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for RecordingObserver {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RECORDING_CAPACITY)
    }
}

impl RecordingObserver {
    /// An empty recorder with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder holding at most `capacity` events at a time.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { events: Vec::new(), capacity, dropped: 0 }
    }

    /// The events recorded so far, in emission order.
    pub fn events(&self) -> &[TxEvent] {
        &self.events
    }

    /// Events discarded because the recorder was at capacity (cumulative;
    /// not reset by [`take`](Self::take)).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain and return the recorded events (the recorder is reusable and
    /// regains its full capacity).
    pub fn take(&mut self) -> Vec<TxEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TxObserver for RecordingObserver {
    #[inline]
    fn on(&mut self, ev: &TxEvent) {
        if self.events.len() < self.capacity {
            self.events.push(*ev);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::host::HostMachine;
    use crate::ops::StmOps;
    use crate::stm::{StmConfig, TxOptions, TxSpec};

    #[test]
    fn uncontended_commit_emits_the_expected_sequence() {
        let ops = StmOps::new(0, 4, 1, 4, StmConfig::default());
        let m = HostMachine::new(ops.stm().layout().words_needed(), 1);
        let mut port = m.port(0);
        let mut rec = RecordingObserver::new();
        let out = ops
            .stm()
            .run(
                &mut port,
                &TxSpec::new(ops.builtins().add, &[5, 7], &[2, 0]),
                &mut TxOptions::new().observer(&mut rec),
            )
            .unwrap();
        assert_eq!(out.stats.attempts, 1);
        let ev = rec.events();
        // attempt begin, two acquires (ascending cell order: 0 then 2), two
        // installs, two releases, commit.
        assert!(matches!(ev[0], TxEvent::AttemptBegin { proc: 0, attempt: 1, .. }), "{ev:?}");
        assert!(matches!(ev[1], TxEvent::Acquired { cell: 0, .. }), "{ev:?}");
        assert!(matches!(ev[2], TxEvent::Acquired { cell: 2, .. }), "{ev:?}");
        assert!(
            matches!(ev.last(), Some(TxEvent::Committed { proc: 0, attempts: 1, .. })),
            "{ev:?}"
        );
        let installs = ev.iter().filter(|e| matches!(e, TxEvent::WriteBack { .. })).count();
        let releases = ev.iter().filter(|e| matches!(e, TxEvent::Released { .. })).count();
        assert_eq!(installs, 2);
        assert_eq!(releases, 2);
        assert_eq!(
            ev.iter().filter(|e| matches!(e, TxEvent::Committed { .. })).count(),
            1,
            "exactly one terminal event"
        );
    }

    #[test]
    fn logical_reads_emit_no_write_back() {
        let ops = StmOps::new(0, 4, 1, 4, StmConfig::default());
        let m = HostMachine::new(ops.stm().layout().words_needed(), 1);
        let mut port = m.port(0);
        let mut rec = RecordingObserver::new();
        let _ = ops.stm().run(
            &mut port,
            &TxSpec::new(ops.builtins().read, &[], &[1, 3]),
            &mut TxOptions::new().observer(&mut rec),
        );
        assert_eq!(
            rec.events().iter().filter(|e| matches!(e, TxEvent::WriteBack { .. })).count(),
            0,
            "identity transaction installs nothing"
        );
    }

    #[test]
    fn recorder_take_drains() {
        let mut rec = RecordingObserver::new();
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 0 });
        assert_eq!(rec.take().len(), 1);
        assert!(rec.events().is_empty());
    }

    #[test]
    fn recorder_capacity_counts_drops_and_take_restores_room() {
        let mut rec = RecordingObserver::with_capacity(2);
        for i in 0..5 {
            rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: i, at: 0 });
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.take().len(), 2);
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 9, at: 0 });
        assert_eq!(rec.events().len(), 1, "take() frees capacity");
        assert_eq!(rec.dropped(), 3, "drop counter is cumulative");
    }

    #[test]
    fn tuple_observer_tees_to_both() {
        let mut a = RecordingObserver::new();
        let mut b = RecordingObserver::new();
        {
            let mut tee = (&mut a, &mut b);
            tee.on(&TxEvent::AttemptBegin { proc: 1, attempt: 1, at: 0 });
            tee.on(&TxEvent::Conflict { proc: 1, cell: Some(3), owner: Some(2), at: 5 });
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 2);
        assert!(matches!(
            a.events()[1],
            TxEvent::Conflict { proc: 1, cell: Some(3), owner: Some(2), .. }
        ));
    }
}
