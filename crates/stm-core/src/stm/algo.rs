//! The transaction protocol itself — the paper's `startTransaction` /
//! `transaction` / `acquireOwnerships` / `agreeOldValues` / `updateMemory` /
//! `releaseOwnerships` procedures.
//!
//! Every participant of a transaction (the initiating owner plus any helping
//! processors) runs [`run_transaction`] for the same `(owner, version)` pair;
//! all steps are idempotent under the version-tagged CAS discipline described
//! in [`crate::word`], so redundant execution is harmless — exactly the
//! paper's design.
//!
//! The protocol executes off a borrowed [`ViewRef`] (the data set resolved
//! once per call) plus reusable [`TxScratch`] buffers, so the retry loop and
//! the helping path allocate nothing per attempt. The per-cell protocol
//! steps live in `*_cell` functions shared by the general slice-driven
//! sweeps and the monomorphized small-k kernels ([`Kernel::K1`]/[`K2`]/
//! [`K4`](Kernel::K4)), which guarantees every kernel issues the identical
//! sequence of shared-memory operations and [`StepPoint`] hooks.

use std::any::Any;

use crate::contention::{ConflictInfo, ContentionManager, PriorityLevel, WaitAction};
use crate::durable::{Journal, RedoRecord};
use crate::machine::MemPort;
use crate::observe::{NoopObserver, TxEvent, TxObserver};
use crate::program::OpCode;
use crate::step::StepPoint;
use crate::word::{
    cell_successor, cell_value, oldval_for_version, pack_oldval_set, pack_oldval_unset,
    pack_owner, pack_status, status_is_version, unpack_owner, unpack_status, Addr, CellIdx,
    TxStatus, Word, OWNER_FREE,
};

use super::plan::{Kernel, ProtoBuf, TxScratch, ViewBuf, ViewRef};
use super::{Stm, TxBudget, TxError, TxStats};

/// A contained panic payload from a user commit program (re-raised or
/// surfaced as [`TxError::OpPanicked`] by the caller, after cleanup).
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Why one [`attempt`] did not commit.
enum AttemptError {
    /// The attempt was decided `Failure` at data-set position `at`.
    Conflict {
        at: usize,
    },
    /// The attempt was decided `Success` but the commit program panicked;
    /// nothing was installed, every ownership was released, and the machine
    /// is clean. Carries the payload for re-raising.
    Panicked(PanicPayload),
}

/// What an acquisition sweep does when it meets a live conflicting owner.
///
/// [`SweepMode::Classic`] is the paper's protocol and the only mode reachable
/// without a [`PriorityBoard`](crate::contention::PriorityBoard) attached —
/// the other two exist solely for the fairness ladder and add no port
/// operations to default-config schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepMode {
    /// Fail the swept transaction at the conflicting position (the paper).
    Classic,
    /// Helping a record whose owner outranks this actor on the board: leave
    /// the record *undecided* on a live conflict instead of failing it, so
    /// the escalated owner keeps its progress.
    Defer,
    /// The owner's own forced sweep: never self-fail. A live conflict
    /// reports the blocked position so the caller can help the obstructor to
    /// completion and resume the sweep (held prefix kept). Newly claimed
    /// locations are announced via [`StepPoint::ForcedAcquired`] for the
    /// ascending-order checker.
    Forced,
}

/// Result of [`acquire_cell`] for one location.
enum CellAcquire {
    /// The location is held by the swept transaction; `newly` iff this
    /// call's CAS claimed it (as opposed to finding it already claimed).
    Acquired { newly: bool },
    /// The sweep must stop: the status moved, or a live conflict failed the
    /// transaction (Classic mode).
    Stop,
    /// Live conflict under [`SweepMode::Defer`]/[`SweepMode::Forced`]: the
    /// record was left undecided and still holds its ascending prefix.
    Blocked,
}

/// Result of one [`run_transaction_general`] sweep.
enum SweepOutcome {
    /// The transaction ran to a decided status and this participant's
    /// release sweep ran; carries the contained panic payload if this
    /// participant's own update panicked.
    Completed(Option<PanicPayload>),
    /// Non-Classic modes only: the sweep stopped *undecided* at data-set
    /// position `at`. Nothing was released — the record keeps every
    /// ownership it holds, by design.
    Blocked { at: usize },
}

/// Fault injection for tests: initialize the record and acquire ownerships
/// for `spec`, then abandon the transaction undecided (as a processor that
/// crashed mid-protocol would). The paper's liveness claim is that other
/// processors *complete* such a transaction via helping.
pub(super) fn start_and_abandon<P: MemPort>(stm: &Stm, port: &mut P, view: ViewRef<'_>) {
    let me = port.proc_id();
    let l = *stm.layout();
    let (prev_version, _) = unpack_status(port.read(l.status(me)));
    let version = prev_version.wrapping_add(1);
    port.write(l.status(me), pack_status(version, TxStatus::Initializing));
    port.write(l.size(me), view.cells.len() as Word);
    port.write(l.opcode(me), view.op.index() as Word);
    port.write(l.nparams(me), view.params.len() as Word);
    for (i, &p) in view.params.iter().enumerate() {
        port.write(l.param(me, i), p);
    }
    for (j, &c) in view.cells.iter().enumerate() {
        port.write(l.addr_slot(me, j), c as Word);
        port.write(l.oldval_slot(me, j), pack_oldval_unset(version));
    }
    port.write(l.status(me), pack_status(version, TxStatus::Null));
    let _ = acquire_general(stm, port, me, version, view, &mut NoopObserver, SweepMode::Classic);
    // ... and vanish: no decision handling, no release, no retry.
}

/// The retry loop behind every budgeted/managed entry point
/// ([`Stm::run`](crate::stm::Stm::run) and
/// [`Stm::run_in`](crate::stm::Stm::run_in)): run `view` under a
/// [`TxBudget`], consulting a [`ContentionManager`] between attempts.
///
/// On commit the data set's old values are left in `scratch`
/// ([`TxScratch::old`]/[`TxScratch::old_stamps`]) — with a warm scratch the
/// whole loop, helping included, performs **zero heap allocations per
/// attempt**.
///
/// While the manager reports help-first mode, attempts run with helping
/// forced on regardless of [`StmConfig::helping`](crate::stm::StmConfig) —
/// the starvation escape hatch. Panicking commit programs surface as
/// [`TxError::OpPanicked`] instead of unwinding.
#[allow(clippy::too_many_arguments)] // the one hot loop behind every entry point
pub(super) fn execute_loop<P: MemPort, C: ContentionManager, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    view: ViewRef<'_>,
    kernel: Kernel,
    budget: TxBudget,
    cm: &mut C,
    obs: &mut O,
    jrn: &mut J,
    scratch: &mut TxScratch,
) -> Result<TxStats, TxError> {
    let mut stats = TxStats::default();
    scratch.contended.clear();
    let started = std::time::Instant::now();
    let cycles0 = port.now();
    loop {
        let help = stm.config.helping || cm.help_first();
        // The level the manager secured before this attempt. The default
        // implementation returns `Normal`, which compiles the forced branch
        // away entirely — no port traffic, no schedule change.
        let level = cm.priority();
        match attempt(stm, port, view, kernel, &mut stats, obs, &mut *jrn, help, level, scratch) {
            Ok(()) => {
                cm.on_commit();
                return Ok(stats);
            }
            Err(AttemptError::Panicked(_payload)) => {
                // The attempt already released everything; drop the payload
                // and surface the typed error.
                return Err(TxError::OpPanicked { attempts: stats.attempts });
            }
            Err(AttemptError::Conflict { at }) => {
                let me = port.proc_id();
                let cell = view.cells.get(at).copied();
                if let Some(c) = cell {
                    scratch.note_contended(c);
                }
                let cycles_lost = port.now().saturating_sub(cycles0);
                if budget.is_exhausted(stats.attempts, cycles_lost, started) {
                    return Err(TxError::BudgetExhausted {
                        attempts: stats.attempts,
                        cells_contended: scratch.contended.len() as u64,
                        cycles_lost,
                    });
                }
                // Best-effort re-inspection of the obstructing owner (it may
                // already have moved on) — the starvation detector's input.
                // Skipped (one shared read saved per conflict) for managers
                // that ignore the owner, so the default options' retry loop
                // issues exactly the classic loop's memory operations.
                let owner = if cm.wants_conflict_owner() {
                    view.own_addrs.get(at).and_then(|&own_addr| {
                        unpack_owner(port.read(own_addr))
                            .map(|(p2, _)| p2)
                            .filter(|&p2| p2 != me)
                    })
                } else {
                    None
                };
                let info = ConflictInfo { proc: me, attempt: stats.attempts, cell, owner };
                let decision = cm.on_conflict(&info);
                if decision.newly_escalated {
                    obs.on(&TxEvent::StarvationEscalated {
                        proc: me,
                        owner,
                        attempts: stats.attempts,
                        at: port.now(),
                    });
                }
                match decision.wait {
                    WaitAction::None => {
                        // Preserve the instance's static back-off policy when
                        // the manager declines to wait (the default
                        // `ImmediateRetry` + `BackoffPolicy::None` combination
                        // does nothing here), so `Stm::run` with default
                        // options retries exactly like the classic loop.
                        let wait = stm.config.backoff.wait_cycles(me, stats.attempts);
                        if wait > 0 {
                            port.delay(wait);
                        }
                    }
                    WaitAction::Spin(cycles) => {
                        obs.on(&TxEvent::BackoffWait {
                            proc: me,
                            attempt: stats.attempts,
                            amount: cycles,
                            at: port.now(),
                        });
                        port.delay(cycles);
                    }
                    WaitAction::Yield => {
                        obs.on(&TxEvent::BackoffWait {
                            proc: me,
                            attempt: stats.attempts,
                            amount: 0,
                            at: port.now(),
                        });
                        port.yield_now();
                    }
                    WaitAction::Park { micros } => {
                        obs.on(&TxEvent::BackoffWait {
                            proc: me,
                            attempt: stats.attempts,
                            amount: micros,
                            at: port.now(),
                        });
                        port.park_micros(micros);
                    }
                }
            }
        }
    }
}

/// One attempt by the record owner: initialize the record, run the
/// transaction, and on failure help the obstructing transaction once
/// (non-redundant helping) when `help` is set. On commit, leaves the old
/// values in `scratch`; otherwise returns an [`AttemptError`].
///
/// `help_on_conflict` is [`StmConfig::helping`](crate::stm::StmConfig) on
/// the classic paths; the managed path forces it on in help-first mode.
///
/// `level` is the priority the contention manager secured for this attempt.
/// At [`PriorityLevel::Forced`] the attempt runs the never-self-fail general
/// sweep: a live conflict blocks, the obstructor is helped to completion
/// (the same one-level excursion as classic helping), and the sweep resumes
/// with its held ascending prefix intact — repeated until the transaction is
/// decided. [`PriorityLevel::Normal`]/[`Escalated`](PriorityLevel::Escalated)
/// take the classic path, so default-config schedules are untouched.
#[allow(clippy::too_many_arguments)] // internal: one call site per entry point
fn attempt<P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    view: ViewRef<'_>,
    kernel: Kernel,
    stats: &mut TxStats,
    obs: &mut O,
    mut jrn: J,
    help_on_conflict: bool,
    level: PriorityLevel,
    scratch: &mut TxScratch,
) -> Result<(), AttemptError> {
    stats.attempts += 1;
    let me = port.proc_id();
    obs.on(&TxEvent::AttemptBegin { proc: me, attempt: stats.attempts, at: port.now() });
    let l = *stm.layout();

    // New version: successor of whatever version the record last carried.
    let (prev_version, _) = unpack_status(port.read(l.status(me)));
    let version = prev_version.wrapping_add(1);

    // (1) Fence: helpers that land mid-rewrite see `Initializing` and bail.
    port.write(l.status(me), pack_status(version, TxStatus::Initializing));
    // (2) Record body: code reference + data set + fresh agreement entries.
    port.write(l.size(me), view.cells.len() as Word);
    port.write(l.opcode(me), view.op.index() as Word);
    port.write(l.nparams(me), view.params.len() as Word);
    for (i, &p) in view.params.iter().enumerate() {
        port.write(l.param(me, i), p);
    }
    for (j, &c) in view.cells.iter().enumerate() {
        port.write(l.addr_slot(me, j), c as Word);
        port.write(l.oldval_slot(me, j), pack_oldval_unset(version));
    }
    // (3) Publish: the transaction is now live and helpable.
    port.write(l.status(me), pack_status(version, TxStatus::Null));
    port.step(StepPoint::TxPublished);

    let panicked = if level == PriorityLevel::Forced {
        // The forced sweep never self-fails: on a live conflict it helps the
        // obstructor to completion (one level, like classic helping) and
        // resumes — held cells short-circuit on the re-walk, so the
        // ascending prefix is kept and acquisition order is preserved.
        // Always the general kernel: the blocked-resume loop has no
        // monomorphized counterpart.
        loop {
            match run_transaction_general(
                stm,
                port,
                me,
                version,
                view,
                &mut scratch.proto,
                obs,
                &mut jrn,
                SweepMode::Forced,
            ) {
                SweepOutcome::Completed(p) => break p,
                SweepOutcome::Blocked { at } => {
                    let mut obstructor: Option<(usize, u64)> = None;
                    if let Some(&own_addr) = view.own_addrs.get(at) {
                        if let Some((p2, v2)) = unpack_owner(port.read(own_addr)) {
                            if p2 != me {
                                obstructor = Some((p2, v2));
                            }
                        }
                    }
                    if let Some((p2, v2)) = obstructor {
                        stats.helps += 1;
                        port.step(StepPoint::HelpBegin { owner: p2 });
                        obs.on(&TxEvent::HelpBegin { proc: me, owner: p2, at: port.now() });
                        help(stm, port, p2, v2, scratch, obs, &mut jrn);
                        obs.on(&TxEvent::HelpEnd { proc: me, owner: p2, at: port.now() });
                    }
                    // The obstructor is decided (or was already gone — the
                    // re-read raced its release): re-run the sweep; the
                    // blocked cell is now failable-or-free.
                }
            }
        }
    } else {
        run_transaction(stm, port, me, version, view, kernel, &mut scratch.proto, obs, &mut jrn)
    };

    // Only the owner advances its record's version, so the status read below
    // necessarily still belongs to `version`, and is decided.
    let stw = port.read(l.status(me));
    debug_assert!(status_is_version(stw, version), "own status moved without owner");
    match unpack_status(stw).1 {
        TxStatus::Success => {
            if let Some(payload) = panicked {
                // The commit program panicked in our own `update_memory` call:
                // nothing was installed and `run_transaction` already released
                // every ownership, so memory is untouched and the machine is
                // helpable. Surface the containment instead of the old values.
                obs.on(&TxEvent::OpPanicked { proc: me, attempts: stats.attempts, at: port.now() });
                return Err(AttemptError::Panicked(payload));
            }
            scratch.out_old.clear();
            scratch.out_stamps.clear();
            for j in 0..view.cells.len() {
                let entry = port.read(l.oldval_slot(me, j));
                // Invariant, not an error path: `Success` is only decided once
                // every location is owned, and release requires the agreement
                // phase to have fixed every pre-image for this version first.
                let cw = oldval_for_version(entry, version)
                    .expect("committed transaction must have agreed old values");
                scratch.out_old.push(cell_value(cw));
                scratch.out_stamps.push(crate::word::cell_stamp(cw));
            }
            obs.on(&TxEvent::Committed { proc: me, attempts: stats.attempts, at: port.now() });
            if level == PriorityLevel::Forced {
                obs.on(&TxEvent::ForcedCommit {
                    proc: me,
                    attempts: stats.attempts,
                    at: port.now(),
                });
            }
            Ok(())
        }
        TxStatus::Failure(j) => {
            stats.conflicts += 1;
            // When helping is on, the obstructing ownership word is re-read
            // *before* the `Conflict` event so the observer learns who won
            // the cell (conflict attribution). The port-op sequence is
            // identical to the pre-attribution code — the read always
            // happened here on helping paths, only the event moved after
            // it — so simulated schedules stay bit-identical. Pure-backoff
            // paths still pay no extra read and report `owner: None`.
            let mut obstructor: Option<(usize, u64)> = None;
            if help_on_conflict {
                if let (Some(&_cell), Some(&own_addr)) =
                    (view.cells.get(j), view.own_addrs.get(j))
                {
                    if let Some((p2, v2)) = unpack_owner(port.read(own_addr)) {
                        if p2 != me {
                            obstructor = Some((p2, v2));
                        }
                    }
                }
            }
            obs.on(&TxEvent::Conflict {
                proc: me,
                cell: view.cells.get(j).copied(),
                owner: obstructor.map(|(p2, _)| p2),
                at: port.now(),
            });
            if let Some((p2, v2)) = obstructor {
                stats.helps += 1;
                port.step(StepPoint::HelpBegin { owner: p2 });
                obs.on(&TxEvent::HelpBegin { proc: me, owner: p2, at: port.now() });
                help(stm, port, p2, v2, scratch, obs, &mut jrn);
                obs.on(&TxEvent::HelpEnd { proc: me, owner: p2, at: port.now() });
            }
            obs.on(&TxEvent::Aborted { proc: me, at_pos: j, at: port.now() });
            Err(AttemptError::Conflict { at: j })
        }
        TxStatus::Null | TxStatus::Initializing => {
            unreachable!("initiator returned with undecided status")
        }
    }
}

/// Help another processor's transaction `(owner, version)` to completion —
/// the paper's non-redundant helping (helpers never recurse into further
/// helping).
///
/// The snapshot and the replay run out of the scratch's dedicated `help_*`
/// buffers: the helper's own view stays borrowed while it replays the
/// victim's commit, so the two transactions must never share storage.
///
/// If the helped commit program panics, the payload is swallowed here: the
/// helper's own transaction is unaffected, and the *owner* observes the same
/// panic from its own `run_transaction` call (commit programs are pure
/// functions of the agreed pre-images, so every participant panics alike).
fn help<P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    scratch: &mut TxScratch,
    obs: &mut O,
    jrn: &mut J,
) {
    let TxScratch { help_view, help_proto, .. } = scratch;
    if let Some(op) = snapshot_into(stm, port, owner, version, help_view) {
        // Escalation: when the helped record's owner outranks this actor on
        // the board, a live conflict defers (leaves the record undecided)
        // instead of failing it. The level comparison is strict, so a
        // Forced actor may still fail an Escalated record — no priority
        // inversion — and without a board the mode is always Classic.
        let me = port.proc_id();
        let mode = match stm.priority_board() {
            Some(board) if board.level(owner) > board.level(me) => SweepMode::Defer,
            _ => SweepMode::Classic,
        };
        // Helped data sets have dynamic size; the general sweep handles any
        // k. The helper journals with its *own* backend: if the owner died
        // before its flush, the helper's record is the one recovery replays
        // (duplicates collapse at replay via the pre-image CAS discipline).
        match run_transaction_general(
            stm,
            port,
            owner,
            version,
            help_view.view(op),
            help_proto,
            obs,
            jrn,
            mode,
        ) {
            SweepOutcome::Completed(_swallowed) => {}
            SweepOutcome::Blocked { .. } => {
                // The record is live and keeps its holdings; report the
                // deferral and leave the escalated owner to finish.
                obs.on(&TxEvent::ConflictDeferred { proc: me, owner, at: port.now() });
            }
        }
    }
}

/// The paper's `transaction` procedure, executed identically by the owner
/// and by helpers, dispatched to the call's commit kernel.
///
/// Every kernel issues the identical shared-memory operation and step
/// sequence (they share the `*_cell` building blocks); the small-k variants
/// only replace the slice-driven sweeps with fully unrolled, stack-resident
/// ones.
///
/// Returns the contained panic payload if the commit program panicked in
/// *this* participant's update sweep (`None` otherwise). Whatever happens,
/// every path performs exactly one release sweep for the ownerships this
/// `(owner, version)` pair may hold — a panicking program can never strand
/// (or double-free) an ownership record.
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn run_transaction<P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    view: ViewRef<'_>,
    kernel: Kernel,
    proto: &mut ProtoBuf,
    obs: &mut O,
    jrn: &mut J,
) -> Option<PanicPayload> {
    match kernel {
        Kernel::K1 => run_transaction_k::<1, P, O, J>(stm, port, owner, version, view, obs, jrn),
        Kernel::K2 => run_transaction_k::<2, P, O, J>(stm, port, owner, version, view, obs, jrn),
        Kernel::K4 => run_transaction_k::<4, P, O, J>(stm, port, owner, version, view, obs, jrn),
        Kernel::General => {
            match run_transaction_general(
                stm,
                port,
                owner,
                version,
                view,
                proto,
                obs,
                jrn,
                SweepMode::Classic,
            ) {
                SweepOutcome::Completed(p) => p,
                SweepOutcome::Blocked { .. } => unreachable!("classic sweep never blocks"),
            }
        }
    }
}

/// The general slice-driven `transaction` body (any data-set size; also the
/// helping path's kernel).
///
/// Non-Classic modes may return [`SweepOutcome::Blocked`]: the record is
/// still *undecided and live*, keeps every ownership of its ascending
/// prefix, and **nothing is released** — releasing here would free a live
/// transaction's holdings out from under it.
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn run_transaction_general<P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    view: ViewRef<'_>,
    proto: &mut ProtoBuf,
    obs: &mut O,
    jrn: &mut J,
    mode: SweepMode,
) -> SweepOutcome {
    let l = *stm.layout();
    if let Some(at) = acquire_general(stm, port, owner, version, view, obs, mode) {
        return SweepOutcome::Blocked { at };
    }

    let stw = port.read(l.status(owner));
    if !status_is_version(stw, version) {
        // The transaction finished while we worked; free anything we may
        // still hold for it (exact-tag CAS makes this safe).
        release_general(port, owner, version, view, obs);
        return SweepOutcome::Completed(None);
    }
    match unpack_status(stw).1 {
        TxStatus::Success => {
            // Agreement entries are contiguous per record; resolve the base
            // once and index by data-set position.
            let oldval_base = l.oldval_slot(owner, 0);
            let ProtoBuf { olds, old_values, new_values } = proto;
            if stm.config.sabotage == crate::stm::Sabotage::ReleaseBeforeUpdate {
                // Deliberately broken ordering for harness validation: free
                // the locations first, then install. See [`crate::stm::Sabotage`].
                // The sweep already happened — return the payload directly so
                // the unwind cleanup cannot release a second time.
                release_general(port, owner, version, view, obs);
                if agree_general(port, oldval_base, version, view)
                    && read_agreed_general(port, oldval_base, version, view.cells.len(), olds)
                {
                    return SweepOutcome::Completed(update_general(
                        stm, port, owner, version, view, olds, old_values, new_values, obs, jrn,
                    ));
                }
                return SweepOutcome::Completed(None);
            }
            let mut panicked = None;
            if agree_general(port, oldval_base, version, view)
                && read_agreed_general(port, oldval_base, version, view.cells.len(), olds)
            {
                panicked = update_general(
                    stm, port, owner, version, view, olds, old_values, new_values, obs, jrn,
                );
            }
            release_general(port, owner, version, view, obs);
            SweepOutcome::Completed(panicked)
        }
        TxStatus::Failure(_) => {
            release_general(port, owner, version, view, obs);
            SweepOutcome::Completed(None)
        }
        TxStatus::Null | TxStatus::Initializing => {
            // `acquire_general` always decides the status before returning
            // `None` while the version matches; defensively release and
            // leave. (A `Blocked` sweep returned above, before this read.)
            debug_assert!(false, "undecided status after acquisition");
            release_general(port, owner, version, view, obs);
            SweepOutcome::Completed(None)
        }
    }
}

/// The monomorphized `transaction` body for a data set of exactly `K` cells:
/// every buffer is a stack array and every sweep bound is a compile-time
/// constant, so the compiler fully unrolls the k-word CAS.
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn run_transaction_k<const K: usize, P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    view: ViewRef<'_>,
    obs: &mut O,
    jrn: &mut J,
) -> Option<PanicPayload> {
    debug_assert_eq!(view.cells.len(), K, "kernel width must match the data set");
    let l = *stm.layout();
    let mut cells = [0 as CellIdx; K];
    cells.copy_from_slice(view.cells);
    let mut order = [0usize; K];
    order.copy_from_slice(view.order);
    let mut cell_addrs = [0 as Addr; K];
    cell_addrs.copy_from_slice(view.cell_addrs);
    let mut own_addrs = [0 as Addr; K];
    own_addrs.copy_from_slice(view.own_addrs);

    let mine = pack_owner(owner, version);
    let status_addr = l.status(owner);
    let live = pack_status(version, TxStatus::Null);

    // acquireOwnerships, unrolled. Kernels only ever run the owner's own
    // non-forced attempts (helping and forced sweeps take the general path),
    // so the mode is always Classic and `Blocked` is unreachable.
    let mut all_acquired = true;
    for &j in &order {
        let got = acquire_cell(
            &l, port, status_addr, live, mine, version, j, cells[j], own_addrs[j], obs,
            SweepMode::Classic,
        );
        if !matches!(got, CellAcquire::Acquired { .. }) {
            all_acquired = false;
            break;
        }
    }
    if all_acquired {
        port.step(StepPoint::BeforeDecisionCas);
        if port.compare_exchange(status_addr, live, pack_status(version, TxStatus::Success)).is_ok()
        {
            port.step(StepPoint::Decided { committed: true });
        }
    }

    let stw = port.read(status_addr);
    if !status_is_version(stw, version) {
        release_k::<K, P, O>(port, &cells, &own_addrs, mine, obs);
        return None;
    }
    match unpack_status(stw).1 {
        TxStatus::Success => {
            let oldval_base = l.oldval_slot(owner, 0);
            let mut olds = [0 as Word; K];
            if stm.config.sabotage == crate::stm::Sabotage::ReleaseBeforeUpdate {
                release_k::<K, P, O>(port, &cells, &own_addrs, mine, obs);
                if agree_k::<K, P>(port, oldval_base, version, &cell_addrs)
                    && read_agreed_k::<K, P>(port, oldval_base, version, &mut olds)
                {
                    return update_k::<K, P, O, J>(
                        stm, port, owner, version, view.op, view.params, &cells, &cell_addrs,
                        &olds, obs, jrn,
                    );
                }
                return None;
            }
            let mut panicked = None;
            if agree_k::<K, P>(port, oldval_base, version, &cell_addrs)
                && read_agreed_k::<K, P>(port, oldval_base, version, &mut olds)
            {
                panicked = update_k::<K, P, O, J>(
                    stm, port, owner, version, view.op, view.params, &cells, &cell_addrs, &olds,
                    obs, jrn,
                );
            }
            release_k::<K, P, O>(port, &cells, &own_addrs, mine, obs);
            panicked
        }
        TxStatus::Failure(_) => {
            release_k::<K, P, O>(port, &cells, &own_addrs, mine, obs);
            None
        }
        TxStatus::Null | TxStatus::Initializing => {
            debug_assert!(false, "undecided status after acquisition");
            release_k::<K, P, O>(port, &cells, &own_addrs, mine, obs);
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Per-cell protocol steps (shared by the general sweeps and the kernels)
// ---------------------------------------------------------------------------

/// Claim one data-set location for `(owner, version)` — the body of the
/// paper's `acquireOwnerships` loop for position `j`. Returns
/// [`CellAcquire::Stop`] when the sweep must stop (the status moved, or a
/// live conflict failed the transaction at `j` in [`SweepMode::Classic`]),
/// and [`CellAcquire::Blocked`] when a live conflict was met under a
/// non-failing mode (the record stays undecided).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn acquire_cell<P: MemPort, O: TxObserver>(
    l: &crate::layout::StmLayout,
    port: &mut P,
    status_addr: Addr,
    live: Word,
    mine: Word,
    version: u64,
    j: usize,
    cell: CellIdx,
    own_addr: Addr,
    obs: &mut O,
    mode: SweepMode,
) -> CellAcquire {
    let newly;
    loop {
        port.step(StepPoint::AcquireAttempt { j });
        // Another participant may have decided the outcome already.
        if port.read(status_addr) != live {
            return CellAcquire::Stop;
        }
        let cur = port.read(own_addr);
        if cur == mine {
            newly = false;
            break; // already claimed (by us or a co-participant)
        }
        if cur == OWNER_FREE {
            match port.compare_exchange(own_addr, OWNER_FREE, mine) {
                Ok(()) => {
                    newly = true;
                    break;
                }
                Err(_) => continue,
            }
        }
        // Invariant: `cur != OWNER_FREE` was checked just above, and every
        // non-free ownership word is a packed `(proc, version)` pair.
        let (p2, v2) = unpack_owner(cur).expect("non-free ownership");
        if !status_is_version(port.read(l.status(p2)), v2) {
            // The owning transaction already finished: this ownership is
            // a stale leftover (e.g. installed by a slow helper after the
            // fact). Reclaim it; all of that transaction's effects are
            // tag-guarded, so freeing early is safe.
            let _ = port.compare_exchange(own_addr, cur, OWNER_FREE);
            continue;
        }
        if mode != SweepMode::Classic {
            // Fairness ladder: leave the record undecided (prefix kept) and
            // let the caller decide how to clear the obstruction.
            return CellAcquire::Blocked;
        }
        // Live conflict: fail this transaction at data-set position `j`.
        if port
            .compare_exchange(status_addr, live, pack_status(version, TxStatus::Failure(j)))
            .is_ok()
        {
            port.step(StepPoint::Decided { committed: false });
        }
        return CellAcquire::Stop;
    }
    port.step(StepPoint::Acquired { j });
    obs.on(&TxEvent::Acquired { proc: port.proc_id(), cell, at: port.now() });
    CellAcquire::Acquired { newly }
}

/// Fix the pre-image of one location exactly once per version — the body of
/// the paper's `agreeOldValues` loop. Returns `false` if the record moved to
/// another version.
#[inline(always)]
fn agree_cell<P: MemPort>(port: &mut P, slot: Addr, cell_addr: Addr, version: u64) -> bool {
    loop {
        let entry = port.read(slot);
        match oldval_for_version(entry, version) {
            Ok(_) => return true,
            Err(false) => return false,
            Err(true) => {
                // Entry still unset for our version: the location is
                // still owned (release requires full agreement first), so
                // the cell word is the frozen pre-image.
                let cw = port.read(cell_addr);
                if port.compare_exchange(slot, entry, pack_oldval_set(version, cw)).is_ok() {
                    return true;
                }
                // Lost the race; re-inspect the slot.
            }
        }
    }
}

/// Read back one agreed pre-image; `None` if the record moved versions.
#[inline(always)]
fn read_agreed_cell<P: MemPort>(port: &mut P, slot: Addr, version: u64) -> Option<Word> {
    oldval_for_version(port.read(slot), version).ok()
}

/// Install one location's new value — the body of the paper's `updateMemory`
/// loop. A CAS from the agreed pre-image (stamp included) rejects replays by
/// other participants or stale helpers.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn install_cell<P: MemPort, O: TxObserver>(
    port: &mut P,
    j: usize,
    cell: CellIdx,
    cell_addr: Addr,
    old: Word,
    old_value: u32,
    new_value: u32,
    obs: &mut O,
) {
    port.step(StepPoint::UpdateWrite { j });
    if new_value == old_value {
        return; // logical read: leave the cell (and its stamp) untouched
    }
    obs.on(&TxEvent::WriteBack { proc: port.proc_id(), cell, at: port.now() });
    let _ = port.compare_exchange(cell_addr, old, cell_successor(old, new_value));
    // Wake transactions blocked on this cell. Announced even when the CAS
    // lost (another participant of the same transaction installed first):
    // the value changed either way, and notify after the install's SeqCst
    // point is what rules out the sleep/commit race (docs/protocol.md §14).
    // Helpers completing a crashed writer's commit pass through here too, so
    // parked waiters survive crash-while-committing interleavings.
    port.notify(cell_addr);
}

/// Free one location iff it is still held by `(owner, version)` — the body
/// of the paper's `releaseOwnerships` loop (an exact-tag CAS).
#[inline(always)]
fn release_cell<P: MemPort, O: TxObserver>(
    port: &mut P,
    j: usize,
    cell: CellIdx,
    own_addr: Addr,
    mine: Word,
    obs: &mut O,
) {
    port.step(StepPoint::BeforeRelease { j });
    obs.on(&TxEvent::Released { proc: port.proc_id(), cell, at: port.now() });
    let _ = port.compare_exchange(own_addr, mine, OWNER_FREE);
}

// ---------------------------------------------------------------------------
// General (slice-driven) sweeps
// ---------------------------------------------------------------------------

/// The paper's `acquireOwnerships`: claim every data-set location in
/// ascending cell order, failing the transaction on a live conflict
/// ([`SweepMode::Classic`]). Non-Classic modes return `Some(j)` — the
/// data-set position of a live conflict — with the record undecided and its
/// ascending prefix still held; Classic always returns `None`.
fn acquire_general<P: MemPort, O: TxObserver>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    view: ViewRef<'_>,
    obs: &mut O,
    mode: SweepMode,
) -> Option<usize> {
    let l = stm.layout();
    let mine = pack_owner(owner, version);
    let status_addr = l.status(owner);
    let live = pack_status(version, TxStatus::Null);

    for &j in view.order {
        match acquire_cell(
            l, port, status_addr, live, mine, version, j, view.cells[j], view.own_addrs[j], obs,
            mode,
        ) {
            CellAcquire::Acquired { newly } => {
                if newly && mode == SweepMode::Forced {
                    // Announce the claim for the sim's ascending-order
                    // checker. A resumed sweep re-walks the whole order but
                    // held cells short-circuit (`newly == false`), so across
                    // the entire forced episode the announced cell indices
                    // are strictly increasing.
                    let cell = if stm.config.sabotage == crate::stm::Sabotage::ForcedOutOfOrder {
                        0
                    } else {
                        view.cells[j]
                    };
                    port.step(StepPoint::ForcedAcquired { cell });
                }
            }
            CellAcquire::Stop => return None,
            CellAcquire::Blocked => return Some(j),
        }
    }
    // Every location is held by `(owner, version)`: decide success. If the
    // CAS fails, another participant decided first — equally final.
    port.step(StepPoint::BeforeDecisionCas);
    if port.compare_exchange(status_addr, live, pack_status(version, TxStatus::Success)).is_ok() {
        port.step(StepPoint::Decided { committed: true });
    }
    None
}

/// The paper's `agreeOldValues` over the whole data set. Returns `false` if
/// the record moved to another version mid-way.
fn agree_general<P: MemPort>(
    port: &mut P,
    oldval_base: Addr,
    version: u64,
    view: ViewRef<'_>,
) -> bool {
    for j in 0..view.cells.len() {
        if !agree_cell(port, oldval_base + j, view.cell_addrs[j], version) {
            return false;
        }
        port.step(StepPoint::OldValAgreed { j });
    }
    true
}

/// Read back the agreed pre-images (packed cell words) in program order into
/// `olds`; `false` if the record moved to another version.
fn read_agreed_general<P: MemPort>(
    port: &mut P,
    oldval_base: Addr,
    version: u64,
    k: usize,
    olds: &mut Vec<Word>,
) -> bool {
    olds.clear();
    for j in 0..k {
        match read_agreed_cell(port, oldval_base + j, version) {
            Some(w) => olds.push(w),
            None => return false,
        }
    }
    true
}

/// The paper's `updateMemory`: apply the commit function and install the new
/// values.
///
/// The commit program is the only user code the protocol ever runs, so this
/// is the one containment point: it executes under `catch_unwind`, and a
/// panic installs *nothing* (an identity commit — the `new == old` skip in
/// [`install_cell`] means untouched cells keep their stamps). Since commit
/// programs are pure functions of `(params, old_values)`, every participant
/// replaying this version panics identically, so no participant can install
/// a torn subset. The payload is returned for the caller to surface after
/// release.
///
/// With an active [`Journal`], the redo record is appended and flushed
/// *between* the commit computation and the first install — the write-ahead
/// invariant recovery relies on (`docs/protocol.md` §11).
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn update_general<P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    view: ViewRef<'_>,
    olds: &[Word],
    old_values: &mut Vec<u32>,
    new_values: &mut Vec<u32>,
    obs: &mut O,
    jrn: &mut J,
) -> Option<PanicPayload> {
    old_values.clear();
    old_values.extend(olds.iter().map(|&w| cell_value(w)));
    new_values.clear();
    new_values.extend_from_slice(old_values);
    let (op, params) = (view.op, view.params);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.table().run(op, params, old_values, new_values);
    }));
    if let Err(payload) = run {
        return Some(payload);
    }
    let journal_late =
        J::ACTIVE && stm.config.sabotage == crate::stm::Sabotage::JournalAfterInstall;
    if J::ACTIVE && !journal_late {
        journal_commit(port, owner, version, view.cells, olds, new_values, obs, jrn);
    }
    for j in 0..view.cells.len() {
        install_cell(port, j, view.cells[j], view.cell_addrs[j], olds[j], old_values[j], new_values[j], obs);
    }
    if journal_late {
        journal_commit(port, owner, version, view.cells, olds, new_values, obs, jrn);
    }
    None
}

/// Make a decided-`Success` transaction durable *before* any install: append
/// its redo record (identity of the transaction, agreed pre-images, new
/// values) and flush. Every participant that reaches the update sweep
/// journals — owner and helpers alike — so the record survives whichever of
/// them lives long enough to flush; duplicates collapse at replay.
///
/// Identity commits (every new value equals its pre-image) install nothing,
/// so there is nothing to redo; the skip is deterministic across
/// participants because commit programs are pure.
///
/// Callers gate on [`Journal::ACTIVE`], so the inactive path compiles to
/// nothing — including the three `Journal*` step announcements, keeping
/// non-durable schedules bit-identical.
#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn journal_commit<P: MemPort, O: TxObserver, J: Journal>(
    port: &mut P,
    owner: usize,
    version: u64,
    cells: &[CellIdx],
    pre: &[Word],
    new: &[u32],
    obs: &mut O,
    jrn: &mut J,
) {
    if pre.iter().zip(new).all(|(&p, &n)| cell_value(p) == n) {
        return;
    }
    port.step(StepPoint::JournalAppend);
    jrn.append(&RedoRecord { owner, version, cells, pre, new });
    port.step(StepPoint::JournalFlush);
    let info = jrn.flush(port);
    obs.on(&TxEvent::JournalFlush {
        proc: port.proc_id(),
        records: info.records,
        bytes: info.bytes,
        latency: info.latency,
        at: port.now(),
    });
    port.step(StepPoint::JournalDurable);
}

/// The paper's `releaseOwnerships`: free exactly the locations held by
/// `(owner, version)`.
fn release_general<P: MemPort, O: TxObserver>(
    port: &mut P,
    owner: usize,
    version: u64,
    view: ViewRef<'_>,
    obs: &mut O,
) {
    let mine = pack_owner(owner, version);
    for (j, &c) in view.cells.iter().enumerate() {
        release_cell(port, j, c, view.own_addrs[j], mine, obs);
    }
}

// ---------------------------------------------------------------------------
// Monomorphized small-k sweeps
// ---------------------------------------------------------------------------

fn agree_k<const K: usize, P: MemPort>(
    port: &mut P,
    oldval_base: Addr,
    version: u64,
    cell_addrs: &[Addr; K],
) -> bool {
    for (j, &cell_addr) in cell_addrs.iter().enumerate() {
        if !agree_cell(port, oldval_base + j, cell_addr, version) {
            return false;
        }
        port.step(StepPoint::OldValAgreed { j });
    }
    true
}

fn read_agreed_k<const K: usize, P: MemPort>(
    port: &mut P,
    oldval_base: Addr,
    version: u64,
    olds: &mut [Word; K],
) -> bool {
    for (j, old) in olds.iter_mut().enumerate() {
        match read_agreed_cell(port, oldval_base + j, version) {
            Some(w) => *old = w,
            None => return false,
        }
    }
    true
}

#[allow(clippy::too_many_arguments)] // flattened hot-loop state
fn update_k<const K: usize, P: MemPort, O: TxObserver, J: Journal>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    op: OpCode,
    params: &[Word],
    cells: &[CellIdx; K],
    cell_addrs: &[Addr; K],
    olds: &[Word; K],
    obs: &mut O,
    jrn: &mut J,
) -> Option<PanicPayload> {
    let mut old_values = [0u32; K];
    for j in 0..K {
        old_values[j] = cell_value(olds[j]);
    }
    let mut new_values = old_values;
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.table().run(op, params, &old_values, &mut new_values);
    }));
    if let Err(payload) = run {
        return Some(payload);
    }
    let journal_late =
        J::ACTIVE && stm.config.sabotage == crate::stm::Sabotage::JournalAfterInstall;
    if J::ACTIVE && !journal_late {
        journal_commit(port, owner, version, cells, olds, &new_values, obs, jrn);
    }
    for j in 0..K {
        install_cell(port, j, cells[j], cell_addrs[j], olds[j], old_values[j], new_values[j], obs);
    }
    if journal_late {
        journal_commit(port, owner, version, cells, olds, &new_values, obs, jrn);
    }
    None
}

fn release_k<const K: usize, P: MemPort, O: TxObserver>(
    port: &mut P,
    cells: &[CellIdx; K],
    own_addrs: &[Addr; K],
    mine: Word,
    obs: &mut O,
) {
    for j in 0..K {
        release_cell(port, j, cells[j], own_addrs[j], mine, obs);
    }
}

// ---------------------------------------------------------------------------
// Read-only fast path & helping snapshot
// ---------------------------------------------------------------------------

/// The read-only fast path: a validated double-collect of the cells' packed
/// words, without acquiring anything — the *invisible read* the acquiring
/// protocol forgoes (see `docs/protocol.md` §8 for the full argument).
///
/// Each round: collect every cell word, check that every guarding ownership
/// is **free or dead** (held by a transaction whose status word has moved on
/// from the owning version), then re-collect and require every word
/// unchanged (value *and* stamp). A round that passes returns a consistent
/// cut of committed values, linearized at the validation point:
///
/// * a *live* owner still mid-install must hold its ownership until after
///   its last install, so the ownership check catches it;
/// * a *dead* ownership implies the owning transaction's `run_transaction`
///   completed — every install of that version is already in memory, and any
///   straggling helper's install CAS fails against the advanced pre-image;
/// * an install that raced between the two collects changes the cell's
///   stamp, so the re-collect catches it.
///
/// Performs **zero shared-memory writes**. Returns the packed cell words and
/// the number of rounds used, or `None` after `max_rounds` failed
/// validations — the caller's cue to fall back to the acquiring protocol
/// (which helps, preserving lock-freedom under writer storms).
pub(super) fn try_read_only<P: MemPort>(
    stm: &Stm,
    port: &mut P,
    cells: &[CellIdx],
    max_rounds: u32,
) -> Option<(Vec<Word>, u64)> {
    let l = *stm.layout();
    let mut words: Vec<Word> = Vec::with_capacity(cells.len());
    for round in 1..=u64::from(max_rounds) {
        words.clear();
        for &c in cells {
            words.push(port.read(l.cell(c)));
        }
        let entries: Vec<(CellIdx, Word)> =
            cells.iter().copied().zip(words.iter().copied()).collect();
        if validate_read_set(stm, port, &entries) {
            return Some((words, round));
        }
    }
    None
}

/// Validate that `entries` — `(cell, packed word)` pairs observed earlier —
/// still form a consistent cut *now*: every guarding ownership is free or
/// dead, and every cell still holds exactly the observed word. Zero
/// shared-memory writes; this is the second collect of the double-collect
/// (the dynamic layer reuses it with the body's read log as first collect).
pub(super) fn validate_read_set<P: MemPort>(
    stm: &Stm,
    port: &mut P,
    entries: &[(CellIdx, Word)],
) -> bool {
    let l = *stm.layout();
    for &(c, _) in entries {
        let ow = port.read(l.ownership(c));
        if ow == OWNER_FREE {
            continue;
        }
        // Invariant: every non-free ownership word is a packed pair.
        let (p2, v2) = unpack_owner(ow).expect("non-free ownership");
        if status_is_version(port.read(l.status(p2)), v2) {
            // Live owner (undecided, mid-commit, or a crashed transaction a
            // helper must finish): conservatively fail validation.
            return false;
        }
        // Dead ownership: the owning transaction completed; its installs are
        // all in memory and the word comparison below is decisive.
    }
    for &(c, w) in entries {
        if port.read(l.cell(c)) != w {
            return false;
        }
    }
    true
}

/// Snapshot the record of `(owner, version)` into `buf` for helping,
/// returning the resolved opcode. The two status validations bracket the
/// body reads; the owner publishes `Initializing` before rewriting the body
/// for a new version, so a bracketed snapshot is never torn. Allocation-free
/// once `buf` is warm.
fn snapshot_into<P: MemPort>(
    stm: &Stm,
    port: &mut P,
    owner: usize,
    version: u64,
    buf: &mut ViewBuf,
) -> Option<OpCode> {
    let l = *stm.layout();
    let ok = |w: Word| status_is_version(w, version) && unpack_status(w).1 != TxStatus::Initializing;

    if !ok(port.read(l.status(owner))) {
        return None;
    }
    let size = port.read(l.size(owner)) as usize;
    if size == 0 || size > l.max_locs() {
        return None;
    }
    let op_raw = port.read(l.opcode(owner));
    let nparams = (port.read(l.nparams(owner)) as usize).min(crate::layout::MAX_PARAMS);
    buf.params.clear();
    for i in 0..nparams {
        buf.params.push(port.read(l.param(owner, i)));
    }
    buf.cells.clear();
    for j in 0..size {
        buf.cells.push(port.read(l.addr_slot(owner, j)) as CellIdx);
    }
    if !ok(port.read(l.status(owner))) {
        return None;
    }
    // The snapshot is consistent; validate it came from a well-formed spec.
    let op = stm.table().resolve_raw(op_raw)?;
    if buf.cells.iter().any(|&c| c >= l.n_cells()) {
        return None;
    }
    buf.finish(&l);
    Some(op)
}
