//! Dynamic transactions — the paper's "future work" extension.
//!
//! The 1995 STM is *static*: a transaction must declare its data set before
//! running. The paper notes (§ discussion) that dynamic transactions —
//! where the locations accessed are discovered during execution — were an
//! open problem. This module provides the classic construction layered on
//! the static machinery: run the transaction body **optimistically** against
//! a local read/write log (reads go through
//! [`Stm::read_cell`], which always returns committed
//! values), then commit the log with a single *static* validate-and-write
//! transaction that re-checks every read value and installs every write
//! atomically. If validation fails, re-run the body.
//!
//! Commits are serializable: each commit is one static transaction
//! (atomic, lock-free), and a body that observed a stale mix of values
//! fails validation and retries. Bodies are **not opaque**: nothing is
//! validated until commit, so a body may observe *inconsistent snapshots
//! across reads* mid-run — like the original optimistic STMs. The probe in
//! `ROADMAP.md` item 4 (a transfer writer against a reader body checking
//! `x + y == 100`, 2 host threads) found an inconsistent pair in 36% of
//! body executions. Bodies must therefore be pure (no side effects, no
//! panics driven by impossible states; use [`DynamicTx::read`]'s values
//! only to compute).
//!
//! **Read-only transactions take a fast path**: a body that never calls
//! [`DynamicTx::write`] commits by *validating* its read set against memory
//! ([`Stm::validate_read_set`]) instead of running the acquiring commit
//! transaction — zero shared-memory writes when the validation holds. After
//! [`StmConfig::fast_read_rounds`](crate::stm::StmConfig::fast_read_rounds)
//! failed validations the commit falls back to the full acquiring protocol
//! (an identity transaction through the `read` builtin), which helps
//! blockers and preserves lock-freedom.
//!
//! **Footprint limits.** Every commit is one static transaction over the
//! whole footprint, resolved per call by
//! [`Stm::run_in`](crate::stm::Stm::run_in), so a footprint may hold at
//! most the instance's `max_locs` cells (64 for [`DynamicStm::new`]). A
//! footprint that *writes* is committed by the builtin MWCAS, which packs
//! one parameter word per cell, so it is further limited to
//! [`MAX_PARAMS`](crate::layout::MAX_PARAMS) (8) cells: a larger one panics
//! with "too many parameter words" at commit. Read-only footprints carry no
//! parameters and are bounded by `max_locs` alone.
//!
//! # Examples
//!
//! ```
//! use stm_core::dynamic::DynamicStm;
//! use stm_core::machine::host::HostMachine;
//! use stm_core::stm::{StmConfig, TxOptions};
//!
//! let dstm = DynamicStm::new(0, 16, 1, StmConfig::default());
//! let machine = HostMachine::new(dstm.stm().layout().words_needed(), 1);
//! let mut port = machine.port(0);
//!
//! // Walk a "linked list" of cells (cell value = next index) and bump a
//! // counter at its end — the data set depends on the data.
//! dstm.run(&mut port, |tx| {
//!     let mut at = 0usize;
//!     for _ in 0..3 {
//!         at = tx.read(at) as usize % 16;
//!     }
//!     let v = tx.read(at);
//!     tx.write(at, v + 1);
//! }, &mut TxOptions::new()).unwrap();
//! assert_eq!(dstm.read_cell(&mut port, 0), 1);
//! ```

use crate::contention::ContentionManager;
use crate::machine::MemPort;
use crate::observe::TxEvent;
use crate::ops::StmOps;
use crate::stm::{Stm, StmConfig, TxBudget, TxError, TxOptions, TxScratch, TxSpec, TxStats};
use crate::word::{cell_value, pack_cell, Addr, CellIdx, Word};

/// Witness that a transaction body chose to block ([`DynamicTx::retry`]).
///
/// Only [`DynamicTx::retry`] produces one, so a body can signal "wait until
/// my read set changes" but cannot forge the signal from outside a
/// transaction. Bodies propagate it with `?` or return it directly; the
/// enclosing [`DynamicStm::run_blocking`] call turns it into a park on the
/// read set.
#[derive(Debug)]
pub struct Retry {
    _private: (),
}

/// A software transactional memory supporting dynamic transactions.
///
/// Wraps the static [`Stm`] (exposed via [`DynamicStm::stm`]) and shares its
/// cells, so static and dynamic transactions interoperate on the same data.
#[derive(Debug, Clone)]
pub struct DynamicStm {
    ops: StmOps,
}

/// The per-attempt transaction context handed to the body.
///
/// The read/write logs are sorted vectors borrowed from the enclosing
/// [`DynamicStm::run`] call and reused across body retries (`clear`, not
/// reallocate), so re-running a body allocates nothing once the logs are
/// warm. Footprints are bounded by `max_locs`, so the binary-searched
/// vectors also beat tree maps on locality at these sizes.
#[derive(Debug)]
pub struct DynamicTx<'a, P: MemPort> {
    stm: &'a Stm,
    port: &'a mut P,
    /// Read set: first-observed `(cell, value, stamp)`, sorted by cell.
    reads: &'a mut Vec<(CellIdx, u32, u16)>,
    /// Write set: last value written per cell, sorted by cell.
    writes: &'a mut Vec<(CellIdx, u32)>,
}

impl<'a, P: MemPort> DynamicTx<'a, P> {
    /// Transactional read of `cell`.
    ///
    /// Returns the pending write if the transaction already wrote the cell,
    /// otherwise the committed value at first access (cached thereafter, so
    /// a transaction reads each cell at one point in time).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn read(&mut self, cell: CellIdx) -> u32 {
        if let Ok(at) = self.writes.binary_search_by_key(&cell, |e| e.0) {
            return self.writes[at].1;
        }
        match self.reads.binary_search_by_key(&cell, |e| e.0) {
            Ok(at) => self.reads[at].1,
            Err(at) => {
                let w = self.port.read(self.stm.layout().cell(cell));
                let (value, stamp) = (cell_value(w), crate::word::cell_stamp(w));
                self.reads.insert(at, (cell, value, stamp));
                value
            }
        }
    }

    /// Transactional write of `cell` (buffered until commit).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn write(&mut self, cell: CellIdx, value: u32) {
        assert!(cell < self.stm.layout().n_cells(), "cell index {cell} out of range");
        // Track the pre-image too, so validation covers blind writes.
        if let Err(at) = self.reads.binary_search_by_key(&cell, |e| e.0) {
            let w = self.port.read(self.stm.layout().cell(cell));
            self.reads.insert(at, (cell, cell_value(w), crate::word::cell_stamp(w)));
        }
        match self.writes.binary_search_by_key(&cell, |e| e.0) {
            Ok(at) => self.writes[at].1 = value,
            Err(at) => self.writes.insert(at, (cell, value)),
        }
    }

    /// Number of distinct cells in the transaction's footprint so far.
    pub fn footprint(&self) -> usize {
        self.reads.len().max(self.writes.len())
    }

    /// Abort this attempt and block until a cell the body has read changes.
    ///
    /// Returns `Err(`[`Retry`]`)` for the body to propagate (typically with
    /// `?` or `return tx.retry()`). The enclosing
    /// [`DynamicStm::run_blocking`] call then discards the write log,
    /// registers on every cell in the read set, parks until some watched
    /// cell's stamped word changes, and re-runs the body. Inside a
    /// non-blocking [`DynamicStm::run`] body there is no way to return it,
    /// so non-blocking schedules are unaffected.
    pub fn retry<T>(&mut self) -> Result<T, Retry> {
        Err(Retry { _private: () })
    }

    /// Haskell-style `orElse` composition: run `first`; if it retries, roll
    /// its writes back and run `second` instead.
    ///
    /// The first branch's *reads* are kept: if both branches retry, the
    /// enclosing [`DynamicStm::run_blocking`] call waits on the **union** of
    /// both read sets — a change that would unblock either branch re-runs
    /// the body. The rolled-back writes stay validated too (their pre-images
    /// were logged on first write), so a committed alternative still
    /// linearizes against the state the abandoned branch observed. Nests
    /// freely.
    pub fn or_else<T>(
        &mut self,
        first: impl FnOnce(&mut Self) -> Result<T, Retry>,
        second: impl FnOnce(&mut Self) -> Result<T, Retry>,
    ) -> Result<T, Retry> {
        let saved_writes = self.writes.clone();
        match first(self) {
            Ok(v) => Ok(v),
            Err(Retry { .. }) => {
                *self.writes = saved_writes;
                second(self)
            }
        }
    }
}

/// Sorted-insert dedup for small cell sets (bounded by `max_locs`).
fn note_cell(set: &mut Vec<CellIdx>, cell: CellIdx) {
    if let Err(at) = set.binary_search(&cell) {
        set.insert(at, cell);
    }
}

impl DynamicStm {
    /// Create a dynamic STM with `n_cells` cells for `n_procs` processors.
    ///
    /// The underlying static instance allows data sets up to the validate-
    /// and-write commit footprint; dynamic transactions may touch at most
    /// `max_locs` = 64 distinct cells (enforced at commit).
    pub fn new(base: Addr, n_cells: usize, n_procs: usize, config: StmConfig) -> Self {
        let max_locs = 64.min(n_cells).max(1);
        DynamicStm { ops: StmOps::new(base, n_cells, n_procs, max_locs, config) }
    }

    /// Wrap an existing operations handle, sharing its cells, config, and
    /// (if attached) priority board with static transactions. Dynamic
    /// footprints are bounded by the handle's `max_locs`.
    pub fn from_ops(ops: StmOps) -> Self {
        DynamicStm { ops }
    }

    /// Create a dynamic STM over a pre-built layout — the entry point for
    /// the growable sharded arena ([`crate::layout::StmLayout::arena`]).
    /// Allocate and free the cells dynamic transactions touch through a
    /// [`CellArena`](crate::arena::CellArena) built from the same layout;
    /// commits validate stamps, so a transaction racing a free/realloc
    /// fails validation and re-runs rather than observing a torn structure.
    pub fn with_layout(layout: crate::layout::StmLayout, config: StmConfig) -> Self {
        DynamicStm { ops: StmOps::with_layout(layout, config) }
    }

    /// The underlying static STM instance.
    pub fn stm(&self) -> &Stm {
        self.ops.stm()
    }

    /// The underlying static operations handle (built-in programs included),
    /// for mixing static transactions over the same cells.
    pub fn ops(&self) -> &StmOps {
        &self.ops
    }

    /// Read one cell's committed value outside any transaction.
    pub fn read_cell<P: MemPort>(&self, port: &mut P, cell: CellIdx) -> u32 {
        self.ops.stm().read_cell(port, cell)
    }

    /// Initialize a cell before concurrent use.
    pub fn init_cell<P: MemPort>(&self, port: &mut P, cell: CellIdx, value: u32) {
        self.ops.stm().init_cell(port, cell, value)
    }

    /// Run `body` as an atomic dynamic transaction under the given
    /// [`TxOptions`]; returns the body's result and cumulative retry
    /// statistics.
    ///
    /// `body` may run several times; it must be pure (compute only from the
    /// values [`DynamicTx::read`] returns).
    ///
    /// A body that never writes commits via the **read-only fast path**: its
    /// read set is validated in place ([`Stm::validate_read_set`]) with zero
    /// shared-memory writes. After
    /// [`StmConfig::fast_read_rounds`](crate::stm::StmConfig::fast_read_rounds)
    /// failed validations, the commit falls back to the acquiring identity
    /// transaction, which helps blockers (lock-freedom preserved).
    ///
    /// When [`StmConfig::delta_retry_cells`](crate::stm::StmConfig::delta_retry_cells)
    /// is non-zero and a validate-and-write commit fails with at most that
    /// many read cells changed, the body is **delta re-run**: the read log
    /// is refreshed in place from the failed commit's atomic snapshot and
    /// the body re-executes against that consistent cut without re-reading
    /// its footprint from memory. A commit that lands this way reports
    /// [`TxEvent::DeltaCommitted`].
    /// The default (`0`) disables the path, leaving schedules identical to
    /// the classic full-retry loop.
    ///
    /// Budget semantics: `max_attempts` bounds *body executions* (the first
    /// always runs); `max_cycles`/`max_wall` bound the whole call, with the
    /// remaining allowance handed to each validate-and-write commit (so a
    /// commit cannot overrun the caller's deadline by retrying internally).
    /// The contention manager persists across body retries, so starvation
    /// pressure accumulates over the whole dynamic transaction.
    ///
    /// A panicking body is *contained*: the local read/write log is
    /// discarded (nothing was shared yet, so there is nothing to release)
    /// and [`TxError::OpPanicked`] is returned.
    ///
    /// # Errors
    ///
    /// [`TxError::BudgetExhausted`] when the budget runs out before a
    /// validated commit; [`TxError::OpPanicked`] when the body panics.
    ///
    /// # Panics
    ///
    /// Panics if the transaction's footprint exceeds the instance's
    /// `max_locs`, or if a footprint that writes exceeds
    /// [`MAX_PARAMS`](crate::layout::MAX_PARAMS) cells (see the module doc).
    pub fn run<P, R, O, C, J>(
        &self,
        port: &mut P,
        mut body: impl FnMut(&mut DynamicTx<'_, P>) -> R,
        opts: &mut TxOptions<O, C, J>,
    ) -> Result<(R, TxStats), TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: ContentionManager,
        J: crate::durable::Journal,
    {
        self.run_impl(port, |tx| Ok(body(tx)), opts, false)
    }

    /// Run `body` as a *blocking* dynamic transaction: a body that returns
    /// `Err(`[`Retry`]`)` (via [`DynamicTx::retry`]) aborts its attempt,
    /// registers on every cell of its read set, and parks until some watched
    /// cell's stamped word changes — then re-runs. On the host the OS thread
    /// parks ([`MemPort::wait_on`]): no spin CPU while idle. On the
    /// simulator the virtual processor parks without consuming scheduler
    /// steps and wakes deterministically when a committer installs into a
    /// watched cell.
    ///
    /// All [`DynamicStm::run`] semantics (fast read path, delta re-runs,
    /// budget, panic containment) apply to each attempt. Additionally
    /// [`TxBudget::max_wakeups`] bounds the park/wake rounds.
    ///
    /// # Errors
    ///
    /// Everything [`DynamicStm::run`] returns, plus [`TxError::Retry`] when
    /// the wakeup budget is exhausted while still blocked or when the body
    /// retried with an **empty read set** (nothing watched could ever wake
    /// it).
    ///
    /// # Examples
    ///
    /// ```
    /// use stm_core::dynamic::DynamicStm;
    /// use stm_core::machine::host::HostMachine;
    /// use stm_core::stm::{StmConfig, TxOptions};
    ///
    /// let dstm = DynamicStm::new(0, 4, 1, StmConfig::default());
    /// let machine = HostMachine::new(dstm.stm().layout().words_needed(), 1);
    /// let mut port = machine.port(0);
    /// dstm.init_cell(&mut port, 0, 2); // two tokens available
    ///
    /// // Take a token, waiting (not spinning) if none are available.
    /// let (left, _) = dstm
    ///     .run_blocking(
    ///         &mut port,
    ///         |tx| {
    ///             let n = tx.read(0);
    ///             if n == 0 {
    ///                 return tx.retry(); // park until cell 0 changes
    ///             }
    ///             tx.write(0, n - 1);
    ///             Ok(n - 1)
    ///         },
    ///         &mut TxOptions::new(),
    ///     )
    ///     .unwrap();
    /// assert_eq!(left, 1);
    /// ```
    pub fn run_blocking<P, R, O, C, J>(
        &self,
        port: &mut P,
        body: impl FnMut(&mut DynamicTx<'_, P>) -> Result<R, Retry>,
        opts: &mut TxOptions<O, C, J>,
    ) -> Result<(R, TxStats), TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: ContentionManager,
        J: crate::durable::Journal,
    {
        self.run_impl(port, body, opts, true)
    }

    /// Run `first`, falling back to `second` when it retries — the
    /// top-level convenience for [`DynamicTx::or_else`]. If both branches
    /// retry, the transaction parks on the union of both read sets.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicStm::run_blocking`].
    pub fn run_or_else<P, R, O, C, J>(
        &self,
        port: &mut P,
        mut first: impl FnMut(&mut DynamicTx<'_, P>) -> Result<R, Retry>,
        mut second: impl FnMut(&mut DynamicTx<'_, P>) -> Result<R, Retry>,
        opts: &mut TxOptions<O, C, J>,
    ) -> Result<(R, TxStats), TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: ContentionManager,
        J: crate::durable::Journal,
    {
        self.run_blocking(port, |tx| tx.or_else(|tx| first(tx), |tx| second(tx)), opts)
    }

    /// The shared loop behind [`DynamicStm::run`] (where `Retry` is
    /// unconstructible) and [`DynamicStm::run_blocking`].
    fn run_impl<P, R, O, C, J>(
        &self,
        port: &mut P,
        mut body: impl FnMut(&mut DynamicTx<'_, P>) -> Result<R, Retry>,
        opts: &mut TxOptions<O, C, J>,
        blocking: bool,
    ) -> Result<(R, TxStats), TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: ContentionManager,
        J: crate::durable::Journal,
    {
        let budget = opts.budget;
        let cm = &mut opts.manager;
        let obs = &mut opts.observer;
        let jrn = &mut opts.journal;
        let mut stats = TxStats::default();
        // Per-call buffers, reused across body retries: the read/write logs,
        // the commit footprint and its packed parameters, and the static
        // commit's execution scratch. After the first attempt warms them, a
        // retry (body re-run + validate-and-write commit) allocates nothing
        // beyond what the body itself allocates.
        let mut read_log: Vec<(CellIdx, u32, u16)> = Vec::new();
        let mut write_log: Vec<(CellIdx, u32)> = Vec::new();
        let mut entries: Vec<(CellIdx, Word)> = Vec::new();
        let mut watches: Vec<(Addr, Word)> = Vec::new();
        let mut cells: Vec<CellIdx> = Vec::new();
        let mut params: Vec<Word> = Vec::new();
        let mut contended: Vec<CellIdx> = Vec::new();
        let mut scratch = TxScratch::new();
        let mut fast_fails: u64 = 0;
        // Cells changed in the last failed validation, when few enough for a
        // delta re-run (read log already refreshed in place; see below).
        let mut delta_pending: Option<u64> = None;
        let started = std::time::Instant::now();
        let cycles0 = port.now();
        loop {
            let cycles_lost = port.now().saturating_sub(cycles0);
            if stats.attempts > 0 && budget.is_exhausted(stats.attempts, cycles_lost, started) {
                return Err(TxError::BudgetExhausted {
                    attempts: stats.attempts,
                    cells_contended: contended.len() as u64,
                    cycles_lost,
                });
            }
            if delta_pending.is_none() {
                read_log.clear();
            }
            write_log.clear();
            let result = {
                let mut tx = DynamicTx {
                    stm: self.ops.stm(),
                    port: &mut *port,
                    reads: &mut read_log,
                    writes: &mut write_log,
                };
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut tx)));
                match caught {
                    Ok(result) => result,
                    Err(_payload) => {
                        // The body only touched its local log; clearing the
                        // log (next attempt, or never) is the whole abort.
                        let _ = tx;
                        stats.attempts += 1;
                        obs.on(&TxEvent::OpPanicked {
                            proc: port.proc_id(),
                            attempts: stats.attempts,
                            at: port.now(),
                        });
                        return Err(TxError::OpPanicked { attempts: stats.attempts });
                    }
                }
            };
            stats.attempts += 1;

            let result = match result {
                Ok(result) => result,
                // The body chose to block: abort this attempt (the write log
                // is local, so dropping it is the whole abort), watch the
                // read set, and park. The watch words are the exact stamped
                // words the body observed — any commit into a watched cell
                // after that observation makes some watch differ, so
                // register-then-revalidate inside `wait_on` cannot miss it
                // (docs/protocol.md §14).
                Err(Retry { .. }) if blocking => {
                    if read_log.is_empty()
                        || budget.max_wakeups.is_some_and(|m| stats.wakeups >= m)
                    {
                        return Err(TxError::Retry { wakeups: stats.wakeups });
                    }
                    watches.clear();
                    watches.extend(read_log.iter().map(|&(c, value, stamp)| {
                        (self.ops.stm().layout().cell(c), pack_cell(stamp, value))
                    }));
                    obs.on(&TxEvent::RetryBlocked {
                        proc: port.proc_id(),
                        watched: watches.len() as u64,
                        at: port.now(),
                    });
                    port.step(crate::step::StepPoint::RetryPark);
                    // Cap a single park at the remaining wall budget so a
                    // deadline cannot be slept through.
                    let cap = budget
                        .max_wall
                        .map(|m| {
                            let rem = m.saturating_sub(started.elapsed());
                            u64::try_from(rem.as_micros()).unwrap_or(u64::MAX)
                        })
                        .unwrap_or(u64::MAX);
                    port.wait_on(&watches, cap);
                    port.step(crate::step::StepPoint::RetryWake);
                    stats.wakeups += 1;
                    obs.on(&TxEvent::RetryWoken {
                        proc: port.proc_id(),
                        wakeups: stats.wakeups,
                        at: port.now(),
                    });
                    delta_pending = None;
                    continue;
                }
                Err(Retry { .. }) => {
                    unreachable!("Retry is unconstructible outside blocking bodies")
                }
            };

            if write_log.is_empty() && read_log.is_empty() {
                return Ok((result, stats)); // pure computation, nothing to commit
            }

            // Read-only fast commit: the cached (value, stamp) pairs are the
            // collect; validating them in place is the second collect. On
            // success the transaction linearizes at the validation point with
            // zero shared-memory writes.
            if write_log.is_empty() && fast_fails < u64::from(self.stm().config().fast_read_rounds)
            {
                entries.clear();
                entries.extend(
                    read_log.iter().map(|&(c, value, stamp)| (c, pack_cell(stamp, value))),
                );
                port.step(crate::step::StepPoint::DynCommit);
                if self.stm().validate_read_set(port, &entries) {
                    return Ok((result, stats));
                }
                // A writer or live owner intervened; re-run the body for a
                // fresh cut. After fast_read_rounds misses, fall through to
                // the acquiring commit below, which helps blockers.
                fast_fails += 1;
                stats.conflicts += 1;
                continue;
            }

            // Commit: one static validate-and-write transaction over the
            // whole footprint, resolved into this call's scratch. Each
            // location's parameter packs (expected_old << 32 | new); the
            // program writes only if every expected value matches — exactly
            // the builtin MWCAS. A read-only body (its fast path exhausted)
            // commits through the parameterless `read` builtin instead: the
            // same identity commit, with no per-cell parameter words, so its
            // footprint is bounded by `max_locs` alone. Either way the check
            // below compares the agreed old values against the read log.
            cells.clear();
            cells.extend(read_log.iter().map(|e| e.0));
            assert!(
                cells.len() <= self.ops.stm().layout().max_locs(),
                "dynamic transaction footprint {} exceeds max_locs {}",
                cells.len(),
                self.ops.stm().layout().max_locs()
            );
            params.clear();
            let op = if write_log.is_empty() {
                self.ops.builtins().read
            } else {
                params.extend(read_log.iter().map(|&(c, expected, _)| {
                    let new = write_log
                        .binary_search_by_key(&c, |e| e.0)
                        .map_or(expected, |at| write_log[at].1);
                    ((expected as Word) << 32) | new as Word
                }));
                self.ops.builtins().mwcas
            };
            // Hand the commit whatever time remains; attempt budgeting stays
            // at this level (it counts body executions, not commit CASes).
            let commit_budget = TxBudget {
                max_attempts: None,
                max_cycles: budget
                    .max_cycles
                    .map(|m| m.saturating_sub(port.now().saturating_sub(cycles0))),
                max_wall: budget.max_wall.map(|m| m.saturating_sub(started.elapsed())),
                max_wakeups: None, // commits never block
            };
            port.step(crate::step::StepPoint::DynCommit);
            let mut commit_opts = TxOptions::new()
                .observer(&mut *obs)
                .manager(&mut *cm)
                .budget(commit_budget)
                .journal(&mut *jrn);
            let spec = TxSpec::new(op, &params, &cells);
            let out = match self.ops.stm().run_in(port, &spec, &mut commit_opts, &mut scratch) {
                Ok(out) => out,
                Err(TxError::BudgetExhausted { cells_contended, .. }) => {
                    return Err(TxError::BudgetExhausted {
                        attempts: stats.attempts,
                        cells_contended: cells_contended.max(contended.len() as u64),
                        cycles_lost: port.now().saturating_sub(cycles0),
                    });
                }
                Err(TxError::OpPanicked { .. }) => {
                    return Err(TxError::OpPanicked { attempts: stats.attempts });
                }
                Err(TxError::Retry { .. }) => {
                    // Only the blocking loop above constructs Retry, and the
                    // commit budget carries `max_wakeups: None`.
                    unreachable!("static commit paths never block")
                }
            };
            stats.helps += out.helps;
            stats.conflicts += out.conflicts;
            let mut changed: u64 = 0;
            for (i, &old) in scratch.old().iter().enumerate() {
                if old != read_log[i].1 {
                    changed += 1;
                    note_cell(&mut contended, cells[i]);
                }
            }
            if changed == 0 {
                if let Some(cells_changed) = delta_pending {
                    obs.on(&TxEvent::DeltaCommitted {
                        proc: port.proc_id(),
                        cells_changed,
                        at: port.now(),
                    });
                }
                return Ok((result, stats));
            }
            // Validation failed: some read was stale. If only a few cells
            // moved (the tunable `delta_retry_cells`; 0 disables the path),
            // take the **delta re-run**: the failed commit executed as an
            // identity commit, so `scratch` holds a consistent snapshot of
            // the whole footprint linearized at that commit. Refresh the read
            // log from it in place and re-run the body served from the log —
            // no fresh memory reads for footprint cells, so the body computes
            // against one atomic cut. This is unconditionally safe: the next
            // commit re-validates every read atomically, so a refresh gone
            // stale costs one more retry, never consistency.
            if changed as usize <= self.stm().config().delta_retry_cells {
                for ((entry, &old), &stamp) in
                    read_log.iter_mut().zip(scratch.old()).zip(scratch.old_stamps())
                {
                    entry.1 = old;
                    entry.2 = stamp;
                }
                delta_pending = Some(changed);
            } else {
                delta_pending = None; // full retry: discard the log
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::host::HostMachine;

    fn setup(n_cells: usize, n_procs: usize) -> (DynamicStm, HostMachine) {
        let d = DynamicStm::new(0, n_cells, n_procs, StmConfig::default());
        let m = HostMachine::new(d.stm().layout().words_needed(), n_procs);
        (d, m)
    }

    #[test]
    fn read_write_roundtrip() {
        let (d, m) = setup(8, 1);
        let mut port = m.port(0);
        let ((), stats) = d.run(&mut port, |tx| {
            assert_eq!(tx.read(3), 0);
            tx.write(3, 42);
            assert_eq!(tx.read(3), 42, "read-own-write");
        }, &mut TxOptions::new()).unwrap();
        assert_eq!(stats.attempts, 1);
        assert_eq!(d.read_cell(&mut port, 3), 42);
    }

    #[test]
    fn data_dependent_footprint() {
        // cell 0 holds an index; the transaction follows it.
        let (d, m) = setup(8, 1);
        let mut port = m.port(0);
        d.init_cell(&mut port, 0, 5);
        d.init_cell(&mut port, 5, 100);
        let (seen, _) = d.run(&mut port, |tx| {
            let idx = tx.read(0) as usize;
            let v = tx.read(idx);
            tx.write(idx, v + 1);
            v
        }, &mut TxOptions::new()).unwrap();
        assert_eq!(seen, 100);
        assert_eq!(d.read_cell(&mut port, 5), 101);
    }

    #[test]
    fn pure_body_commits_without_memory() {
        let (d, m) = setup(4, 1);
        let mut port = m.port(0);
        let (x, stats) = d.run(&mut port, |_tx| 7, &mut TxOptions::new()).unwrap();
        assert_eq!(x, 7);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn blind_writes_are_validated_too() {
        let (d, m) = setup(4, 1);
        let mut port = m.port(0);
        let ((), _) = d.run(&mut port, |tx| {
            tx.write(2, 9); // no prior read
        }, &mut TxOptions::new()).unwrap();
        assert_eq!(d.read_cell(&mut port, 2), 9);
    }

    #[test]
    fn concurrent_dynamic_counters_are_exact() {
        const PROCS: usize = 4;
        const PER: u32 = 300;
        let (d, m) = setup(4, PROCS);
        std::thread::scope(|s| {
            for p in 0..PROCS {
                let d = d.clone();
                let m = m.clone();
                s.spawn(move || {
                    let mut port = m.port(p);
                    for _ in 0..PER {
                        d.run(&mut port, |tx| {
                            let v = tx.read(1);
                            tx.write(1, v + 1);
                        }, &mut TxOptions::new()).unwrap();
                    }
                });
            }
        });
        let mut port = m.port(0);
        assert_eq!(d.read_cell(&mut port, 1), PROCS as u32 * PER);
    }

    #[test]
    fn concurrent_list_walk_transfer_conserves() {
        // Cells 0..4 are a ring of "next" pointers; cells 4..8 hold money.
        // Each transaction walks one hop from its start and moves a unit to
        // the account after it — a data-dependent footprint under
        // contention.
        const PROCS: usize = 4;
        let (d, m) = setup(8, PROCS);
        {
            let mut port = m.port(0);
            for i in 0..4 {
                d.init_cell(&mut port, i, ((i + 1) % 4) as u32);
                d.init_cell(&mut port, 4 + i, 50);
            }
        }
        std::thread::scope(|s| {
            for p in 0..PROCS {
                let d = d.clone();
                let m = m.clone();
                s.spawn(move || {
                    let mut port = m.port(p);
                    for i in 0..150 {
                        d.run(&mut port, |tx| {
                            let a = tx.read((p + i) % 4) as usize;
                            let b = (a + 1) % 4;
                            let va = tx.read(4 + a);
                            if va > 0 {
                                let vb = tx.read(4 + b);
                                tx.write(4 + a, va - 1);
                                tx.write(4 + b, vb + 1);
                            }
                        }, &mut TxOptions::new()).unwrap();
                    }
                });
            }
        });
        let mut port = m.port(0);
        let total: u32 = (4..8).map(|c| d.read_cell(&mut port, c)).sum();
        assert_eq!(total, 200, "money conserved through dynamic transactions");
    }

    #[test]
    fn blocking_pop_waits_for_a_concurrent_push() {
        let (d, m) = setup(4, 2);
        std::thread::scope(|s| {
            let d2 = d.clone();
            let m2 = m.clone();
            let consumer = s.spawn(move || {
                let mut port = m2.port(0);
                d2.run_blocking(
                    &mut port,
                    |tx| {
                        let v = tx.read(0);
                        if v == 0 {
                            return tx.retry();
                        }
                        tx.write(0, 0);
                        Ok(v)
                    },
                    &mut TxOptions::new(),
                )
                .unwrap()
                .0
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut port = m.port(1);
            d.run(&mut port, |tx| tx.write(0, 7), &mut TxOptions::new()).unwrap();
            assert_eq!(consumer.join().unwrap(), 7);
        });
    }

    #[test]
    fn wakeup_budget_zero_fails_without_parking() {
        let (d, m) = setup(4, 1);
        let mut port = m.port(0);
        let err = d
            .run_blocking(
                &mut port,
                |tx| {
                    let _ = tx.read(0);
                    tx.retry::<()>()
                },
                &mut TxOptions::new().budget(TxBudget::wakeups(0)),
            )
            .unwrap_err();
        assert_eq!(err, TxError::Retry { wakeups: 0 });
    }

    #[test]
    fn retry_with_empty_read_set_errors_instead_of_sleeping_forever() {
        let (d, m) = setup(4, 1);
        let mut port = m.port(0);
        let err =
            d.run_blocking(&mut port, |tx| tx.retry::<()>(), &mut TxOptions::new()).unwrap_err();
        assert!(matches!(err, TxError::Retry { wakeups: 0 }));
    }

    #[test]
    fn or_else_falls_through_and_rolls_back_the_first_branch_writes() {
        let (d, m) = setup(4, 1);
        let mut port = m.port(0);
        d.init_cell(&mut port, 1, 5);
        let (v, _) = d
            .run_or_else(
                &mut port,
                |tx| {
                    tx.write(3, 99); // must be rolled back when the branch retries
                    let v = tx.read(0);
                    if v == 0 {
                        return tx.retry();
                    }
                    Ok(v)
                },
                |tx| {
                    let v = tx.read(1);
                    tx.write(1, 0);
                    Ok(v)
                },
                &mut TxOptions::new(),
            )
            .unwrap();
        assert_eq!(v, 5, "second branch committed");
        assert_eq!(d.read_cell(&mut port, 3), 0, "first branch's write rolled back");
        assert_eq!(d.read_cell(&mut port, 1), 0);
    }

    #[test]
    fn stats_report_retries_under_contention() {
        // Not asserting a particular count — just that the plumbing reports
        // attempts >= 1 and merges static-commit stats.
        let (d, m) = setup(2, 2);
        let mut port = m.port(0);
        let ((), stats) = d.run(&mut port, |tx| {
            let v = tx.read(0);
            tx.write(0, v + 1);
        }, &mut TxOptions::new()).unwrap();
        assert!(stats.attempts >= 1);
    }
}
