//! Contention management for the real-thread runtime.
//!
//! The paper's lock-freedom guarantee is a *system-wide* progress property:
//! some transaction always completes. An individual processor can still
//! starve — repeatedly losing `acquireOwnerships` to the same neighbour — and
//! the paper itself notes that practical throughput leans on (unspecified)
//! back-off. This module supplies that layer for the host machine as a
//! pluggable policy:
//!
//! * [`ContentionManager`] — the policy trait consulted once per failed
//!   attempt by any run with [`TxOptions::manager`](crate::stm::TxOptions::manager)
//!   attached;
//! * [`AdaptiveManager`] — the default policy: a **wait lattice** escalating
//!   `spin → yield → parked exponential back-off`, with deterministic
//!   per-processor jitter, plus **starvation detection** that switches the
//!   transaction into *help-first mode* (helping the obstructing owner even
//!   when [`StmConfig::helping`](crate::stm::StmConfig::helping) is off, and
//!   skipping further waits) after repeatedly losing cells to the same owner;
//! * [`ImmediateRetry`] — the paper's configuration: never wait, never
//!   escalate (useful as a rigged pessimistic policy in tests).
//!
//! Waits are expressed as machine-agnostic [`WaitAction`]s and realized
//! through [`MemPort::yield_now`](crate::machine::MemPort::yield_now) /
//! [`MemPort::park_micros`](crate::machine::MemPort::park_micros): real
//! thread yields and parks on the host, deterministic virtual-clock delays on
//! the simulator. Escalations and waits are reported to the
//! [`TxObserver`](crate::observe::TxObserver) as `BackoffWait` /
//! `StarvationEscalated` [`TxEvent`](crate::observe::TxEvent)s, so
//! [`crate::metrics::TxMetrics`] can assert on them.
//!
//! # Priority escalation
//!
//! Help-first mode clears obstructions but cannot stop *other* processors
//! from failing a starving transaction's record. The escalation ladder built
//! on a shared [`PriorityBoard`] closes that gap:
//!
//! 1. **Escalated** — when the starvation detector trips, the manager
//!    publishes [`PriorityLevel::Escalated`] for its proc. Helpers that hit a
//!    live conflict while helping an escalated record *defer* (leave the
//!    record undecided) instead of failing it, and non-escalated managers
//!    that lose to an escalated owner back off with a full spin window.
//! 2. **Forced** — after [`AdaptiveConfig::forced_losses`] further losses,
//!    the manager claims the board's single forced slot. A forced
//!    transaction's own acquisition sweep never self-fails: on a live
//!    conflict it helps the obstructor to completion and resumes the
//!    ascending sweep while keeping its held prefix (see
//!    `docs/protocol.md` §13 for the safety argument).
//!
//! The board is host-side state (plain atomics, no
//! [`MemPort`](crate::machine::MemPort) traffic): with no board attached —
//! the default — every path compiles to today's behavior and simulated
//! schedules stay bit-identical.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::word::CellIdx;

/// Priority of a processor's in-flight transaction, published on a
/// [`PriorityBoard`]. Ordered: `Normal < Escalated < Forced`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PriorityLevel {
    /// No special treatment (the paper's protocol).
    #[default]
    Normal = 0,
    /// Starving: helpers defer instead of failing this proc's record, and
    /// conflicting managers back off.
    Escalated = 1,
    /// Irrevocable: this proc's acquisition sweep never self-fails. At most
    /// one proc holds this level at a time (single forced slot).
    Forced = 2,
}

impl PriorityLevel {
    fn from_u8(v: u8) -> Self {
        match v {
            2 => PriorityLevel::Forced,
            1 => PriorityLevel::Escalated,
            _ => PriorityLevel::Normal,
        }
    }
}

/// Sentinel for "no proc holds the forced slot".
const NO_FORCED: usize = usize::MAX;

/// Shared proc → [`PriorityLevel`] board coordinating the escalation ladder.
///
/// Managers publish their level here ([`PriorityBoard::raise`] /
/// [`PriorityBoard::try_force`] / [`PriorityBoard::clear`]) and the protocol
/// reads it when deciding whether a helper may fail a record. All state is
/// host-side (`Relaxed` atomics — the board is advisory: a stale read costs
/// at most one extra loss, never safety), so attaching a board adds no
/// shared-memory-port traffic and leaves simulated schedules untouched.
#[derive(Debug)]
pub struct PriorityBoard {
    levels: Box<[AtomicU8]>,
    forced: AtomicUsize,
}

impl PriorityBoard {
    /// A board for `procs` processors, all at [`PriorityLevel::Normal`].
    pub fn new(procs: usize) -> Self {
        PriorityBoard {
            levels: (0..procs).map(|_| AtomicU8::new(0)).collect(),
            forced: AtomicUsize::new(NO_FORCED),
        }
    }

    /// Number of processor slots.
    pub fn procs(&self) -> usize {
        self.levels.len()
    }

    /// Current level of `proc` ([`PriorityLevel::Normal`] if out of range).
    #[inline]
    pub fn level(&self, proc: usize) -> PriorityLevel {
        self.levels
            .get(proc)
            .map_or(PriorityLevel::Normal, |l| PriorityLevel::from_u8(l.load(Ordering::Relaxed)))
    }

    /// Raise `proc` to [`PriorityLevel::Escalated`] (never lowers a level).
    pub fn raise(&self, proc: usize) {
        if let Some(l) = self.levels.get(proc) {
            l.fetch_max(PriorityLevel::Escalated as u8, Ordering::Relaxed);
        }
    }

    /// Try to claim the single forced slot for `proc`; on success the proc's
    /// level becomes [`PriorityLevel::Forced`]. Fails (returning `false`)
    /// while another proc holds the slot.
    pub fn try_force(&self, proc: usize) -> bool {
        if proc >= self.levels.len() {
            return false;
        }
        let won = self
            .forced
            .compare_exchange(NO_FORCED, proc, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
            || self.forced.load(Ordering::Relaxed) == proc;
        if won {
            self.levels[proc].store(PriorityLevel::Forced as u8, Ordering::Relaxed);
        }
        won
    }

    /// Reset `proc` to [`PriorityLevel::Normal`], releasing the forced slot
    /// if it held it.
    pub fn clear(&self, proc: usize) {
        if let Some(l) = self.levels.get(proc) {
            l.store(PriorityLevel::Normal as u8, Ordering::Relaxed);
        }
        let _ = self.forced.compare_exchange(proc, NO_FORCED, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The proc currently holding the forced slot, if any.
    pub fn forced_holder(&self) -> Option<usize> {
        match self.forced.load(Ordering::Relaxed) {
            NO_FORCED => None,
            p => Some(p),
        }
    }
}

/// How to wait before the next retry, as directed by a
/// [`ContentionManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitAction {
    /// Retry immediately.
    None,
    /// Spin for approximately this many cycles
    /// ([`MemPort::delay`](crate::machine::MemPort::delay)).
    Spin(u64),
    /// Give up the processor's timeslice
    /// ([`MemPort::yield_now`](crate::machine::MemPort::yield_now)).
    Yield,
    /// Park the thread for approximately `micros` microseconds
    /// ([`MemPort::park_micros`](crate::machine::MemPort::park_micros)).
    Park {
        /// Park duration in microseconds.
        micros: u64,
    },
}

/// What the protocol knows about one failed attempt, handed to
/// [`ContentionManager::on_conflict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictInfo {
    /// The losing processor.
    pub proc: usize,
    /// Failed attempts of this call so far (1-based; includes this one).
    pub attempt: u64,
    /// The contended cell, if the failure index was well-formed.
    pub cell: Option<CellIdx>,
    /// The processor whose transaction held the cell when re-inspected after
    /// the failure (best-effort: the owner may already have moved on).
    pub owner: Option<usize>,
}

/// The manager's directive for the next retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryDecision {
    /// How to wait before retrying.
    pub wait: WaitAction,
    /// `true` exactly when this conflict tripped the starvation detector
    /// (reported once per escalation as
    /// [`TxEvent::StarvationEscalated`](crate::observe::TxEvent::StarvationEscalated)).
    pub newly_escalated: bool,
}

impl RetryDecision {
    /// Retry immediately, no escalation.
    pub fn immediate() -> Self {
        RetryDecision { wait: WaitAction::None, newly_escalated: false }
    }
}

/// A per-transaction contention-management policy.
///
/// The managed execution paths call [`ContentionManager::on_conflict`] once
/// per failed attempt and obey the returned [`RetryDecision`]; while
/// [`ContentionManager::help_first`] is `true` the next attempts run with
/// helping forced on (even if the instance was configured with
/// `helping: false`) so a starving transaction can clear the obstruction
/// itself. [`ContentionManager::on_commit`] resets per-transaction state.
pub trait ContentionManager {
    /// Record a failed attempt and decide how to retry.
    fn on_conflict(&mut self, info: &ConflictInfo) -> RetryDecision;

    /// The transaction committed (or the call is returning): reset state.
    fn on_commit(&mut self);

    /// Whether retries should run in help-first mode.
    fn help_first(&self) -> bool {
        false
    }

    /// Whether [`ConflictInfo::owner`] should be populated. Re-inspecting the
    /// obstructing owner costs one shared-memory read per conflict; a manager
    /// that ignores the owner (like [`ImmediateRetry`]) declines it, keeping
    /// the default [`Stm::run`](crate::stm::Stm::run) retry loop's memory
    /// traffic identical to the paper's classic loop.
    fn wants_conflict_owner(&self) -> bool {
        true
    }

    /// The priority this manager has secured for the next attempt.
    /// [`PriorityLevel::Forced`] switches the protocol's acquisition sweep
    /// into forced mode (never self-fail; help obstructors and resume).
    /// Defaults to [`PriorityLevel::Normal`], which compiles to the classic
    /// sweep.
    fn priority(&self) -> PriorityLevel {
        PriorityLevel::Normal
    }
}

/// A mutable reference to a manager is itself a manager, so callers can keep
/// ownership of a long-lived manager (accumulating starvation pressure across
/// transactions) while handing it to [`TxOptions`](crate::stm::TxOptions) by
/// value: `TxOptions::new().manager(&mut manager)`.
impl<C: ContentionManager + ?Sized> ContentionManager for &mut C {
    fn on_conflict(&mut self, info: &ConflictInfo) -> RetryDecision {
        (**self).on_conflict(info)
    }
    fn on_commit(&mut self) {
        (**self).on_commit()
    }
    fn help_first(&self) -> bool {
        (**self).help_first()
    }
    fn wants_conflict_owner(&self) -> bool {
        (**self).wants_conflict_owner()
    }
    fn priority(&self) -> PriorityLevel {
        (**self).priority()
    }
}

/// The paper's configuration: retry immediately, never wait, never escalate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImmediateRetry;

impl ContentionManager for ImmediateRetry {
    fn on_conflict(&mut self, _info: &ConflictInfo) -> RetryDecision {
        RetryDecision::immediate()
    }
    fn on_commit(&mut self) {}
    fn wants_conflict_owner(&self) -> bool {
        false
    }
}

/// Tuning knobs of the [`AdaptiveManager`] wait lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Attempts `1..=spin_attempts` spin (doubling window from
    /// `spin_base`, capped at `spin_max`, jittered).
    pub spin_attempts: u64,
    /// Initial spin window in cycles.
    pub spin_base: u64,
    /// Spin cap in cycles.
    pub spin_max: u64,
    /// After spinning, this many further attempts yield the timeslice.
    pub yield_attempts: u64,
    /// Beyond yielding, park with exponential duration starting here
    /// (microseconds, jittered).
    pub park_base_micros: u64,
    /// Park duration cap in microseconds.
    pub park_max_micros: u64,
    /// Consecutive losses to the *same* owner that trip the starvation
    /// detector into help-first mode.
    pub starvation_losses: u64,
    /// Total consecutive failed attempts that trip the detector regardless
    /// of owner (covers owners that cannot be identified).
    pub starvation_attempts: u64,
    /// Further losses *after* escalation before the manager tries to claim
    /// the [`PriorityBoard`]'s forced slot (no effect without a board).
    pub forced_losses: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            spin_attempts: 4,
            spin_base: 64,
            spin_max: 1 << 14,
            yield_attempts: 4,
            park_base_micros: 50,
            park_max_micros: 10_000,
            starvation_losses: 3,
            starvation_attempts: 16,
            forced_losses: 4,
        }
    }
}

/// The default adaptive policy: spin → yield → parked exponential back-off,
/// with starvation detection escalating to help-first mode.
///
/// Jitter is deterministic per `(proc, attempt)` (same hash family as
/// [`BackoffPolicy::Exponential`](crate::stm::BackoffPolicy)), so simulator
/// runs using this manager replay exactly.
#[derive(Debug, Clone)]
pub struct AdaptiveManager {
    proc: usize,
    cfg: AdaptiveConfig,
    /// Consecutive failed attempts since the last commit.
    fails: u64,
    /// The owner observed at the last conflict, and how many consecutive
    /// conflicts were lost to it.
    last_owner: Option<usize>,
    owner_losses: u64,
    escalated: bool,
    /// Shared escalation board; `None` keeps the classic two-level behavior.
    board: Option<Arc<PriorityBoard>>,
    /// Losses recorded after the escalation that tripped the detector.
    losses_since_escalation: u64,
    forced: bool,
}

impl AdaptiveManager {
    /// A manager for `proc` with the default [`AdaptiveConfig`].
    pub fn new(proc: usize) -> Self {
        Self::with_config(proc, AdaptiveConfig::default())
    }

    /// A manager for `proc` with explicit tuning.
    pub fn with_config(proc: usize, cfg: AdaptiveConfig) -> Self {
        AdaptiveManager {
            proc,
            cfg,
            fails: 0,
            last_owner: None,
            owner_losses: 0,
            escalated: false,
            board: None,
            losses_since_escalation: 0,
            forced: false,
        }
    }

    /// Attach the shared [`PriorityBoard`], enabling the escalation ladder
    /// (publish Escalated on starvation, claim the forced slot after
    /// [`AdaptiveConfig::forced_losses`] further losses, and defer to other
    /// procs' raised transactions).
    pub fn with_board(mut self, board: Arc<PriorityBoard>) -> Self {
        self.board = Some(board);
        self
    }

    /// Consecutive failed attempts since the last commit.
    pub fn consecutive_failures(&self) -> u64 {
        self.fails
    }

    /// Whether the starvation detector has escalated to help-first mode.
    pub fn is_escalated(&self) -> bool {
        self.escalated
    }

    /// Whether this manager holds the board's forced slot.
    pub fn is_forced(&self) -> bool {
        self.forced
    }

    /// Deterministic jitter: a value in `1..=window` hashed from
    /// `(proc, attempt)`.
    fn jitter(&self, attempt: u64, window: u64) -> u64 {
        let window = window.max(1);
        let h = (self.proc as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        (splitmix64(h) % window) + 1
    }
}

impl ContentionManager for AdaptiveManager {
    fn on_conflict(&mut self, info: &ConflictInfo) -> RetryDecision {
        self.fails += 1;
        match (info.owner, self.last_owner) {
            (Some(o), Some(prev)) if o == prev => self.owner_losses += 1,
            (Some(_), _) => self.owner_losses = 1,
            (None, _) => self.owner_losses = 0,
        }
        self.last_owner = info.owner;

        let starved = (self.owner_losses >= self.cfg.starvation_losses)
            || (self.fails >= self.cfg.starvation_attempts);
        let newly_escalated = starved && !self.escalated;
        self.escalated = self.escalated || starved;

        if let Some(board) = &self.board {
            if newly_escalated {
                board.raise(self.proc);
            } else if self.escalated && !self.forced {
                // Losses *after* the escalating conflict count toward forcing.
                self.losses_since_escalation += 1;
                if self.losses_since_escalation >= self.cfg.forced_losses {
                    self.forced = board.try_force(self.proc);
                }
            }
            // Back off from someone else's raised transaction: a full spin
            // window gives the starving proc a clear shot at its cells.
            if !self.escalated {
                if let Some(owner) = info.owner {
                    if owner != self.proc && board.level(owner) >= PriorityLevel::Escalated {
                        return RetryDecision {
                            wait: WaitAction::Spin(self.jitter(self.fails, self.cfg.spin_max)),
                            newly_escalated,
                        };
                    }
                }
            }
        }

        let wait = if self.escalated {
            // Help-first mode: clearing the obstruction is the priority;
            // waiting would only delay the help excursion.
            WaitAction::None
        } else if self.fails <= self.cfg.spin_attempts {
            let shift = (self.fails - 1).min(16) as u32;
            let window = self.cfg.spin_base.saturating_mul(1 << shift).min(self.cfg.spin_max);
            WaitAction::Spin(self.jitter(self.fails, window))
        } else if self.fails <= self.cfg.spin_attempts + self.cfg.yield_attempts {
            WaitAction::Yield
        } else {
            let k = (self.fails - self.cfg.spin_attempts - self.cfg.yield_attempts - 1).min(16);
            let window =
                self.cfg.park_base_micros.saturating_mul(1 << k).min(self.cfg.park_max_micros);
            WaitAction::Park { micros: self.jitter(self.fails, window) }
        };
        RetryDecision { wait, newly_escalated }
    }

    fn on_commit(&mut self) {
        self.fails = 0;
        self.last_owner = None;
        self.owner_losses = 0;
        self.escalated = false;
        self.losses_since_escalation = 0;
        self.forced = false;
        if let Some(board) = &self.board {
            board.clear(self.proc);
        }
    }

    fn help_first(&self) -> bool {
        self.escalated
    }

    fn priority(&self) -> PriorityLevel {
        if self.forced {
            PriorityLevel::Forced
        } else if self.escalated && self.board.is_some() {
            PriorityLevel::Escalated
        } else {
            PriorityLevel::Normal
        }
    }
}

/// SplitMix64 finalizer — the jitter hash (no external RNG dependency).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lost_to(owner: usize, attempt: u64) -> ConflictInfo {
        ConflictInfo { proc: 1, attempt, cell: Some(0), owner: Some(owner) }
    }

    #[test]
    fn lattice_escalates_spin_yield_park() {
        let cfg = AdaptiveConfig::default();
        let mut m = AdaptiveManager::with_config(1, cfg);
        // Alternate owners so the same-owner detector never trips.
        for a in 1..=cfg.spin_attempts {
            let d = m.on_conflict(&lost_to(a as usize % 2, a));
            assert!(matches!(d.wait, WaitAction::Spin(_)), "attempt {a}: {d:?}");
            assert!(!d.newly_escalated);
        }
        for a in cfg.spin_attempts + 1..=cfg.spin_attempts + cfg.yield_attempts {
            let d = m.on_conflict(&lost_to(a as usize % 2, a));
            assert_eq!(d.wait, WaitAction::Yield, "attempt {a}");
        }
        let a = cfg.spin_attempts + cfg.yield_attempts + 1;
        let d = m.on_conflict(&lost_to(a as usize % 2, a));
        assert!(matches!(d.wait, WaitAction::Park { .. }), "attempt {a}: {d:?}");
    }

    #[test]
    fn spin_and_park_windows_are_bounded_and_deterministic() {
        let cfg = AdaptiveConfig::default();
        for proc in 0..4 {
            let mut a = AdaptiveManager::with_config(proc, cfg);
            let mut b = AdaptiveManager::with_config(proc, cfg);
            for attempt in 1..30 {
                let da = a.on_conflict(&lost_to(attempt as usize % 2, attempt));
                let db = b.on_conflict(&lost_to(attempt as usize % 2, attempt));
                assert_eq!(da, db, "same proc and history must decide identically");
                match da.wait {
                    WaitAction::Spin(c) => assert!((1..=cfg.spin_max).contains(&c)),
                    WaitAction::Park { micros } => {
                        assert!((1..=cfg.park_max_micros).contains(&micros))
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn repeated_losses_to_same_owner_escalate_to_help_first() {
        let cfg = AdaptiveConfig::default();
        let mut m = AdaptiveManager::with_config(1, cfg);
        for a in 1..cfg.starvation_losses {
            let d = m.on_conflict(&lost_to(0, a));
            assert!(!d.newly_escalated);
            assert!(!m.help_first());
        }
        let d = m.on_conflict(&lost_to(0, cfg.starvation_losses));
        assert!(d.newly_escalated, "losing {} times to one owner must escalate", cfg.starvation_losses);
        assert!(m.help_first());
        assert_eq!(d.wait, WaitAction::None, "help-first mode retries immediately");
        // Escalation reports once; further conflicts stay escalated silently.
        let d = m.on_conflict(&lost_to(0, cfg.starvation_losses + 1));
        assert!(!d.newly_escalated);
        assert!(m.help_first());
        // Commit resets everything.
        m.on_commit();
        assert!(!m.help_first());
        assert_eq!(m.consecutive_failures(), 0);
    }

    #[test]
    fn attempt_count_alone_escalates_when_owner_is_unknown() {
        let cfg = AdaptiveConfig::default();
        let mut m = AdaptiveManager::with_config(0, cfg);
        for a in 1..cfg.starvation_attempts {
            let info = ConflictInfo { proc: 0, attempt: a, cell: None, owner: None };
            assert!(!m.on_conflict(&info).newly_escalated);
        }
        let info = ConflictInfo { proc: 0, attempt: cfg.starvation_attempts, cell: None, owner: None };
        assert!(m.on_conflict(&info).newly_escalated);
    }

    #[test]
    fn immediate_retry_never_waits_or_escalates() {
        let mut m = ImmediateRetry;
        for a in 1..100 {
            let d = m.on_conflict(&lost_to(0, a));
            assert_eq!(d, RetryDecision::immediate());
            assert!(!m.help_first());
        }
    }

    #[test]
    fn board_ladder_escalates_then_forces_then_clears() {
        let cfg = AdaptiveConfig::default();
        let board = Arc::new(PriorityBoard::new(4));
        let mut m = AdaptiveManager::with_config(1, cfg).with_board(Arc::clone(&board));
        assert_eq!(m.priority(), PriorityLevel::Normal);
        // Trip the same-owner detector: board shows Escalated.
        for a in 1..=cfg.starvation_losses {
            m.on_conflict(&lost_to(0, a));
        }
        assert!(m.is_escalated());
        assert_eq!(m.priority(), PriorityLevel::Escalated);
        assert_eq!(board.level(1), PriorityLevel::Escalated);
        assert_eq!(board.forced_holder(), None);
        // `forced_losses` further losses claim the forced slot.
        for a in 1..=cfg.forced_losses {
            m.on_conflict(&lost_to(0, cfg.starvation_losses + a));
        }
        assert!(m.is_forced());
        assert_eq!(m.priority(), PriorityLevel::Forced);
        assert_eq!(board.level(1), PriorityLevel::Forced);
        assert_eq!(board.forced_holder(), Some(1));
        // Commit releases the slot and resets the level.
        m.on_commit();
        assert_eq!(m.priority(), PriorityLevel::Normal);
        assert_eq!(board.level(1), PriorityLevel::Normal);
        assert_eq!(board.forced_holder(), None);
    }

    #[test]
    fn forced_slot_is_exclusive() {
        let board = PriorityBoard::new(3);
        assert!(board.try_force(0));
        assert!(board.try_force(0), "re-claim by the holder is idempotent");
        assert!(!board.try_force(1), "slot is single-occupancy");
        assert_eq!(board.level(1), PriorityLevel::Normal);
        board.clear(0);
        assert!(board.try_force(1), "cleared slot is claimable again");
        assert_eq!(board.forced_holder(), Some(1));
        board.clear(1);
    }

    #[test]
    fn starving_procs_defer_to_escalated_owners() {
        let cfg = AdaptiveConfig::default();
        let board = Arc::new(PriorityBoard::new(4));
        board.raise(2);
        let mut m = AdaptiveManager::with_config(1, cfg).with_board(Arc::clone(&board));
        // First loss would normally spin with the tiny first-attempt window;
        // losing to the escalated proc 2 backs off with the full window knob.
        let d = m.on_conflict(&lost_to(2, 1));
        assert!(matches!(d.wait, WaitAction::Spin(_)));
        // The deferral must not stop this proc's own detector from tripping.
        for a in 2..=cfg.starvation_losses {
            m.on_conflict(&lost_to(2, a));
        }
        assert!(m.is_escalated(), "deferring proc still escalates eventually");
    }

    #[test]
    fn boardless_manager_never_reports_priority() {
        let cfg = AdaptiveConfig::default();
        let mut m = AdaptiveManager::with_config(1, cfg);
        for a in 1..40 {
            m.on_conflict(&lost_to(0, a));
            assert_eq!(m.priority(), PriorityLevel::Normal, "no board, no ladder");
        }
        assert!(m.is_escalated(), "help-first escalation is board-independent");
    }

    #[test]
    fn splitmix_spreads_consecutive_seeds() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a >> 32, b >> 32, "high bits must differ too");
    }
}
