//! The Shavit–Touitou software transactional memory.
//!
//! [`Stm`] implements the paper's non-blocking static-transaction protocol:
//! a transaction declares its data set up front, acquires per-location
//! ownership in ascending address order, agrees on the old values, applies a
//! pure commit function, and releases. On conflict it fails itself and
//! *helps* the transaction that owns the contended location (one level of
//! non-redundant helping), which is what makes the construction lock-free.
//!
//! The API is machine-agnostic: the same [`Stm`] instance drives transactions
//! on the host machine and on the `stm-sim` simulated multiprocessor.
//!
//! # Examples
//!
//! ```
//! use stm_core::machine::host::HostMachine;
//! use stm_core::program::{register_builtins, ProgramTable};
//! use stm_core::stm::{Stm, StmConfig, TxOptions, TxSpec};
//!
//! let mut builder = ProgramTable::builder();
//! let ops = register_builtins(&mut builder);
//! let table = builder.build();
//!
//! let stm = Stm::new(0, 8, 1, 4, table, StmConfig::default());
//! let machine = HostMachine::new(stm.layout().words_needed(), 1);
//! let mut port = machine.port(0);
//!
//! // Atomically add 5 to cell 2 and 7 to cell 3. Default options: the
//! // classic unobserved, unbudgeted lock-free retry loop.
//! let outcome =
//!     stm.run(&mut port, &TxSpec::new(ops.add, &[5, 7], &[2, 3]), &mut TxOptions::new()).unwrap();
//! assert_eq!(outcome.old, vec![0, 0]);
//! assert_eq!(stm.read_cell(&mut port, 2), 5);
//! assert_eq!(stm.read_cell(&mut port, 3), 7);
//! ```

mod algo;
mod options;
mod plan;

pub use options::TxOptions;
pub use plan::TxScratch;

use std::fmt;
use std::sync::Arc;

use crate::layout::{StmLayout, MAX_PARAMS};
use crate::machine::MemPort;
use crate::program::{OpCode, ProgramTable};
use crate::word::{cell_value, Addr, CellIdx, Word};

use plan::{Kernel, ViewBuf};

/// Back-off policy applied between retries of a failed transaction.
///
/// The paper's STM relies on helping rather than back-off, so the default is
/// [`BackoffPolicy::None`]; exponential back-off is provided for ablations
/// and for the Herlihy baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffPolicy {
    /// Retry immediately (the paper's configuration).
    None,
    /// Exponential back-off: retry `k` (1-based) waits from a window of
    /// `base << min(k - 1, 16)` cycles, capped at `max` — so the *first*
    /// retry draws from `1..=base`, the initial back-off (randomization is
    /// deterministic per processor/attempt).
    Exponential {
        /// Initial back-off in cycles.
        base: u64,
        /// Cap in cycles.
        max: u64,
    },
}

impl BackoffPolicy {
    /// Cycles to wait before retry number `attempt` (1-based) on `proc`.
    pub fn wait_cycles(&self, proc: usize, attempt: u64) -> u64 {
        match *self {
            BackoffPolicy::None => 0,
            BackoffPolicy::Exponential { base, max } => {
                // 1-based attempts: the first retry keeps the initial window
                // (shift 0), doubling from there.
                let shift = attempt.saturating_sub(1).min(16) as u32;
                let window = (base.saturating_mul(1 << shift)).min(max).max(1);
                // Cheap deterministic jitter: hash proc and attempt.
                let h = (proc as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                (h % window) + 1
            }
        }
    }
}

/// Deliberately broken protocol variants, used only to validate that the
/// fault-injection harness in `stm-sim` actually catches protocol bugs (a
/// checker that never fires is indistinguishable from a vacuous one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// The correct protocol (the only setting for real use).
    #[default]
    None,
    /// Release ownerships *before* installing the new values on commit.
    /// This breaks atomicity: between release and update another transaction
    /// can acquire the cells and read pre-commit values, or a crash between
    /// the two phases strands a committed-but-never-applied transaction that
    /// no helper can finish (helpers need the ownerships to be obliged to
    /// run the update).
    ReleaseBeforeUpdate,
    /// Journal the redo record *after* installing the new values instead of
    /// before. This breaks the write-ahead invariant durability relies on: a
    /// crash between the installs and the flush leaves a committed
    /// transaction visible in live memory but absent from the journal, so
    /// recovery rebuilds a heap that silently lost it. Exists to prove the
    /// recovery-equivalence checker in the sim has teeth. No effect without
    /// an active [`Journal`](crate::durable::Journal).
    JournalAfterInstall,
    /// Report every forced-mode acquisition as cell 0 instead of the real
    /// cell index, so any forced sweep that newly claims two or more
    /// locations announces a non-increasing
    /// [`StepPoint::ForcedAcquired`](crate::step::StepPoint) sequence. This
    /// breaks nothing in the protocol itself — it exists to prove the
    /// ascending-order checker in `stm-sim` has teeth. No effect unless a
    /// transaction actually runs at
    /// [`PriorityLevel::Forced`](crate::contention::PriorityLevel).
    ForcedOutOfOrder,
}

/// Configuration of the STM protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmConfig {
    /// Enable non-redundant helping (the paper's mechanism; disabling it is
    /// the A1 ablation and forfeits the lock-freedom guarantee).
    pub helping: bool,
    /// Back-off between retries (default: none, as in the paper).
    pub backoff: BackoffPolicy,
    /// Deliberate protocol bug for harness validation (default: none).
    pub sabotage: Sabotage,
    /// Cache-line padding shift for the memory layout (see
    /// [`StmLayout::with_pad_shift`]). The default `0` is the dense,
    /// address-faithful layout the paper (and the `stm-sim` cost models)
    /// assume; `3` gives every cell, ownership word, and record its own
    /// 64-byte line on the host.
    pub pad_shift: u8,
    /// Rounds of the validated double-collect read-only fast path
    /// ([`Stm::try_read_only`]) before callers fall back to the acquiring
    /// protocol. `0` disables the fast path entirely.
    pub fast_read_rounds: u32,
    /// Delta-revalidation threshold for the dynamic layer
    /// ([`DynamicStm::run`](crate::dynamic::DynamicStm::run)): when a
    /// dynamic transaction's commit-time validation fails but at most this
    /// many read cells changed, the body is re-run against the validated
    /// snapshot the failed commit linearized, skipping the full
    /// re-read-from-memory retry. `0` (the default) disables the path
    /// entirely and keeps retry schedules bit-identical to the classic loop.
    pub delta_retry_cells: usize,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            helping: true,
            backoff: BackoffPolicy::None,
            sabotage: Sabotage::None,
            pad_shift: 0,
            fast_read_rounds: 8,
            delta_retry_cells: 0,
        }
    }
}

impl StmConfig {
    /// The host-machine preset: the default protocol on a cache-aligned
    /// layout (`pad_shift = 3`, one 64-byte line per protocol word), killing
    /// false sharing between processors under contention. Simulated runs
    /// should keep [`StmConfig::default`]'s dense layout, which the bus/mesh
    /// cost models are calibrated against.
    pub fn host_tuned() -> Self {
        StmConfig { pad_shift: 3, ..Self::default() }
    }
}

/// A static transaction request: which program to run over which cells.
///
/// `cells` lists the data set in *program order* (the order `old`/`new`
/// slices are presented to the [`TxProgram`](crate::program::TxProgram)); the
/// protocol acquires ownership in ascending cell order internally, as the
/// paper requires. Cells must be distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxSpec<'a> {
    /// The registered commit program.
    pub op: OpCode,
    /// Parameter words passed to the program (at most
    /// [`MAX_PARAMS`]).
    pub params: &'a [Word],
    /// The data set: distinct cell indices, in program order.
    pub cells: &'a [CellIdx],
}

impl<'a> TxSpec<'a> {
    /// Convenience constructor.
    pub fn new(op: OpCode, params: &'a [Word], cells: &'a [CellIdx]) -> Self {
        TxSpec { op, params, cells }
    }
}

/// Statistics of one transaction call ([`Stm::run`] /
/// [`DynamicStm::run`](crate::dynamic::DynamicStm::run)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Number of attempts (1 = committed first try).
    pub attempts: u64,
    /// Number of times this call helped another processor's transaction.
    pub helps: u64,
    /// Number of ownership conflicts encountered across all attempts.
    pub conflicts: u64,
    /// Number of times a blocking call
    /// ([`DynamicStm::run_blocking`](crate::dynamic::DynamicStm::run_blocking))
    /// parked on its read set and was woken. Always 0 for non-blocking
    /// entry points.
    pub wakeups: u64,
}

impl TxStats {
    /// Accumulate another call's statistics into this one.
    pub fn merge(&mut self, other: &TxStats) {
        self.attempts += other.attempts;
        self.helps += other.helps;
        self.conflicts += other.conflicts;
        self.wakeups += other.wakeups;
    }
}

/// The result of a committed transaction: the data set's old values (in
/// program order) plus retry statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a committed transaction's old values are its return value"]
pub struct TxOutcome {
    /// Pre-commit value of each cell in the data set, in the order given in
    /// [`TxSpec::cells`]. A static transaction is a k-word
    /// read-modify-write, so the old values are its return value.
    pub old: Vec<u32>,
    /// Pre-commit update stamp of each cell (same order as `old`). The
    /// stamp identifies the exact version of the cell this transaction read
    /// — the hook the serializability checker
    /// ([`crate::history`]) is built on.
    pub old_stamps: Vec<u16>,
    /// Retry/help statistics for this call.
    pub stats: TxStats,
}

/// Typed failure of a budgeted execution ([`Stm::run`] /
/// [`DynamicStm::run`](crate::dynamic::DynamicStm::run) /
/// [`DynamicStm::run_blocking`](crate::dynamic::DynamicStm::run_blocking)).
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a budgeted transaction's failure must be handled, not dropped"]
pub enum TxError {
    /// The transaction did not commit within its [`TxBudget`]. The machine is
    /// left clean: no ownerships held, no values installed by this call's
    /// undecided attempts.
    BudgetExhausted {
        /// Attempts made before giving up.
        attempts: u64,
        /// Distinct cells this call lost an acquisition on.
        cells_contended: u64,
        /// Local-clock cycles spent across all failed attempts (per
        /// [`MemPort::now`]; 0 on ports
        /// without a local clock, e.g. the host) — the starvation
        /// post-mortem's cost figure.
        cycles_lost: u64,
    },
    /// The transaction's commit program panicked. The panic was contained:
    /// the attempt was decided, **no values were installed** (an identity
    /// commit), and every acquired ownership was released — the machine
    /// stays helpable, never poisoned.
    OpPanicked {
        /// Attempts made, including the one whose program panicked.
        attempts: u64,
    },
    /// A blocking transaction
    /// ([`DynamicStm::run_blocking`](crate::dynamic::DynamicStm::run_blocking))
    /// gave up while waiting: either its wakeup budget
    /// ([`TxBudget::max_wakeups`]) ran out, or the body retried with an
    /// empty read set (nothing watched can ever change, so waiting would
    /// sleep forever). The machine is left clean either way.
    Retry {
        /// Wakeups consumed before giving up.
        wakeups: u64,
    },
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::BudgetExhausted { attempts, cells_contended, cycles_lost } => write!(
                f,
                "transaction budget exhausted after {attempts} attempts \
                 ({cells_contended} distinct cells contended, {cycles_lost} cycles lost)"
            ),
            TxError::OpPanicked { attempts } => write!(
                f,
                "transaction program panicked on attempt {attempts} \
                 (aborted cleanly; all ownerships released)"
            ),
            TxError::Retry { wakeups } => write!(
                f,
                "blocking transaction gave up after {wakeups} wakeups \
                 (wakeup budget exhausted or empty read set)"
            ),
        }
    }
}

impl std::error::Error for TxError {}

/// A retry budget for budgeted entry points ([`Stm::run`] /
/// [`DynamicStm::run`](crate::dynamic::DynamicStm::run)).
///
/// Any combination of limits may be set; the first one hit ends the call
/// with [`TxError::BudgetExhausted`]. Limits are checked *between* attempts,
/// so at least one attempt always runs and a started attempt is never
/// abandoned mid-protocol (the machine is left clean).
///
/// * `max_attempts` — protocol attempts (deterministic on any machine);
/// * `max_cycles` — local-clock cycles per
///   [`MemPort::now`] (meaningful on the
///   simulator; the host clock reports 0, so this limit is inert there);
/// * `max_wall` — wall-clock time (meaningful on the host);
/// * `max_wakeups` — park/wake rounds of a blocking call
///   ([`DynamicStm::run_blocking`](crate::dynamic::DynamicStm::run_blocking));
///   hitting it ends the call with [`TxError::Retry`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxBudget {
    /// Maximum attempts (`None` = unlimited).
    pub max_attempts: Option<u64>,
    /// Maximum elapsed local-clock cycles (`None` = unlimited).
    pub max_cycles: Option<u64>,
    /// Maximum elapsed wall-clock time (`None` = unlimited).
    pub max_wall: Option<std::time::Duration>,
    /// Maximum blocking wakeups (`None` = wait as long as it takes).
    /// Ignored by non-blocking entry points.
    pub max_wakeups: Option<u64>,
}

impl TxBudget {
    /// No limits: retry forever (the [`Stm::run`] default behaviour).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit to `n` attempts.
    pub fn attempts(n: u64) -> Self {
        TxBudget { max_attempts: Some(n), ..Self::default() }
    }

    /// Limit to `n` elapsed local-clock cycles.
    pub fn cycles(n: u64) -> Self {
        TxBudget { max_cycles: Some(n), ..Self::default() }
    }

    /// Limit to `d` of wall-clock time.
    pub fn wall(d: std::time::Duration) -> Self {
        TxBudget { max_wall: Some(d), ..Self::default() }
    }

    /// Limit a blocking call to `n` park/wake rounds.
    pub fn wakeups(n: u64) -> Self {
        TxBudget { max_wakeups: Some(n), ..Self::default() }
    }

    /// Whether any limit has been hit after `attempts` attempts,
    /// `cycles_elapsed` local cycles, and wall time since `started`.
    pub(crate) fn is_exhausted(
        &self,
        attempts: u64,
        cycles_elapsed: u64,
        started: std::time::Instant,
    ) -> bool {
        self.max_attempts.is_some_and(|m| attempts >= m)
            || self.max_cycles.is_some_and(|m| cycles_elapsed >= m)
            || self.max_wall.is_some_and(|m| started.elapsed() >= m)
    }
}

/// A Shavit–Touitou software transactional memory instance.
///
/// The instance itself is immutable configuration (layout + program table);
/// all shared state lives in the machine's memory, so an `Stm` can be shared
/// freely across threads (clone it or wrap it in `Arc`).
#[derive(Clone)]
pub struct Stm {
    layout: StmLayout,
    table: Arc<ProgramTable>,
    config: StmConfig,
    /// Shared escalation board consulted by helpers and forced sweeps.
    /// `None` (the default) compiles every priority check away.
    priority: Option<Arc<crate::contention::PriorityBoard>>,
}

impl fmt::Debug for Stm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stm")
            .field("layout", &self.layout)
            .field("programs", &self.table.len())
            .field("config", &self.config)
            .field("priority_board", &self.priority.is_some())
            .finish()
    }
}

impl Stm {
    /// Create an STM instance occupying machine addresses
    /// `base .. base + layout.words_needed()` with `n_cells` transactional
    /// cells, `n_procs` processors, and data sets of at most `max_locs`
    /// locations.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `n_procs`/`max_locs` (see
    /// [`StmLayout::new`]).
    pub fn new(
        base: Addr,
        n_cells: usize,
        n_procs: usize,
        max_locs: usize,
        table: Arc<ProgramTable>,
        config: StmConfig,
    ) -> Self {
        Stm {
            layout: StmLayout::with_pad_shift(base, n_cells, n_procs, max_locs, config.pad_shift),
            table,
            config,
            priority: None,
        }
    }

    /// Create an STM instance over a pre-built layout — the entry point for
    /// the sharded arena geometry ([`StmLayout::arena`]), whose cells are
    /// handed out by a [`CellArena`](crate::arena::CellArena) sharing the
    /// same layout. The protocol itself is geometry-agnostic: it only ever
    /// asks the layout for addresses.
    ///
    /// `config.pad_shift` is overwritten with the layout's own shift so the
    /// two can never disagree.
    pub fn with_layout(layout: StmLayout, table: Arc<ProgramTable>, mut config: StmConfig) -> Self {
        config.pad_shift = layout.pad_shift();
        Stm { layout, table, config, priority: None }
    }

    /// Attach a shared [`PriorityBoard`](crate::contention::PriorityBoard),
    /// activating the fairness ladder in the protocol: helpers defer to
    /// records whose owner's published level exceeds their own, and managers
    /// holding the forced slot run the never-self-fail sweep. Pair the same
    /// board with each proc's
    /// [`AdaptiveManager::with_board`](crate::contention::AdaptiveManager::with_board).
    /// Without a board every priority check compiles to the classic path.
    #[must_use]
    pub fn with_priority_board(mut self, board: Arc<crate::contention::PriorityBoard>) -> Self {
        self.priority = Some(board);
        self
    }

    /// The attached escalation board, if any.
    pub fn priority_board(&self) -> Option<&Arc<crate::contention::PriorityBoard>> {
        self.priority.as_ref()
    }

    /// The memory layout of this instance.
    pub fn layout(&self) -> &StmLayout {
        &self.layout
    }

    /// The shared program table.
    pub fn table(&self) -> &Arc<ProgramTable> {
        &self.table
    }

    /// The protocol configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Execute `spec` under `opts` — the unified transaction entry point.
    ///
    /// This is the paper's `startTransaction` loop, parameterized by one
    /// [`TxOptions`] value instead of one method per knob combination:
    /// [`TxOptions::new`] gives the classic unobserved, unbudgeted lock-free
    /// retry (the old `execute`), a [`TxBudget`] bounds the retries, and the
    /// observer/manager knobs replace the `*_observed` / `*_within`
    /// variants. On commit, returns the data set's old values in program
    /// order.
    ///
    /// Each call allocates a fresh [`TxScratch`] and always runs the general
    /// commit sweep: this is the reference the small-k kernels of
    /// [`Stm::run_in`], the allocation-free hot path, are checked against.
    ///
    /// While the manager reports
    /// [`help_first`](crate::contention::ContentionManager::help_first),
    /// retries run with helping forced on even if this instance was
    /// configured with `helping: false` — the starvation escape hatch. When
    /// the manager declines to wait, the instance's static
    /// [`BackoffPolicy`] still applies.
    ///
    /// # Errors
    ///
    /// [`TxError::BudgetExhausted`] when the budget ran out before a commit
    /// (never with the default unlimited budget);
    /// [`TxError::OpPanicked`] when the commit program panicked — contained:
    /// nothing installed, every ownership released.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed: too many cells or parameters, an
    /// out-of-range cell index, duplicate cells, or an opcode foreign to this
    /// instance's table.
    pub fn run<P, O, C, J>(
        &self,
        port: &mut P,
        spec: &TxSpec<'_>,
        opts: &mut TxOptions<O, C, J>,
    ) -> Result<TxOutcome, TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: crate::contention::ContentionManager,
        J: crate::durable::Journal,
    {
        let mut scratch = TxScratch::new();
        let stats = self.run_kernel(port, spec, opts, &mut scratch, Kernel::General)?;
        Ok(TxOutcome {
            old: std::mem::take(&mut scratch.out_old),
            old_stamps: std::mem::take(&mut scratch.out_stamps),
            stats,
        })
    }

    /// Execute `spec` under `opts` out of a caller-owned [`TxScratch`] — the
    /// allocation-free hot path. The data set is resolved into the scratch
    /// once per call (acquisition order, duplicate check, addresses), and
    /// data sets of 1, 2 or 4 cells run on monomorphized commit sweeps that
    /// issue exactly [`Stm::run`]'s shared-memory operations. With a warm
    /// scratch the whole call — the retry loop, the commit sweeps, and any
    /// helping of other processors' transactions — performs **zero heap
    /// allocations**; on commit the data set's old values are left in the
    /// scratch ([`TxScratch::old`] / [`TxScratch::old_stamps`]).
    ///
    /// # Errors
    ///
    /// Same as [`Stm::run`].
    ///
    /// # Panics
    ///
    /// Same as [`Stm::run`], with the same messages.
    pub fn run_in<P, O, C, J>(
        &self,
        port: &mut P,
        spec: &TxSpec<'_>,
        opts: &mut TxOptions<O, C, J>,
        scratch: &mut TxScratch,
    ) -> Result<TxStats, TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: crate::contention::ContentionManager,
        J: crate::durable::Journal,
    {
        self.run_kernel(port, spec, opts, scratch, Kernel::for_k(spec.cells.len()))
    }

    /// Validate and resolve `spec` into `scratch`, then drive the retry loop
    /// on `kernel`.
    fn run_kernel<P, O, C, J>(
        &self,
        port: &mut P,
        spec: &TxSpec<'_>,
        opts: &mut TxOptions<O, C, J>,
        scratch: &mut TxScratch,
        kernel: Kernel,
    ) -> Result<TxStats, TxError>
    where
        P: MemPort,
        O: crate::observe::TxObserver,
        C: crate::contention::ContentionManager,
        J: crate::durable::Journal,
    {
        scratch.reserve_for(&self.layout);
        self.resolve(port, spec, &mut scratch.view);
        // The view is read-only while the loop runs but lives in the scratch
        // the loop also writes; moving its buffers out and back costs no
        // allocation.
        let view = std::mem::take(&mut scratch.view);
        let stats = algo::execute_loop(
            self,
            port,
            view.view(spec.op),
            kernel,
            opts.budget,
            &mut opts.manager,
            &mut opts.observer,
            &mut opts.journal,
            scratch,
        );
        scratch.view = view;
        stats
    }

    /// The read-only fast path: snapshot `cells` via a validated
    /// double-collect — collect the version-tagged cell words, check that no
    /// guarding ownership is held by a live transaction, re-collect to
    /// confirm nothing moved — performing **zero shared-memory writes**.
    ///
    /// A passing round returns a consistent cut of committed values (`old`,
    /// with matching `old_stamps`), linearized at the validation point;
    /// `stats.attempts` reports the rounds used. After
    /// [`StmConfig::fast_read_rounds`] failed validations the call returns
    /// `None`: the caller must fall back to the acquiring protocol (e.g. an
    /// identity transaction via [`Stm::run`]), whose helping preserves
    /// lock-freedom under writer storms. [`StmOps::snapshot`](crate::ops::StmOps::snapshot)
    /// packages exactly that fallback.
    ///
    /// Unlike the acquiring path, the data set is *not* bounded by the
    /// layout's `max_locs` (no transaction record is involved) and duplicate
    /// cells are harmless — but callers intending to fall back must respect
    /// the static-spec rules.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or contains an out-of-range index.
    #[must_use = "a failed validation means the snapshot must be retried via the acquiring path"]
    pub fn try_read_only<P: MemPort>(&self, port: &mut P, cells: &[CellIdx]) -> Option<TxOutcome> {
        assert!(!cells.is_empty(), "empty data set");
        for &c in cells {
            assert!(c < self.layout.n_cells(), "cell index {c} out of range");
        }
        let (words, rounds) = algo::try_read_only(self, port, cells, self.config.fast_read_rounds)?;
        Some(TxOutcome {
            old: words.iter().map(|&w| cell_value(w)).collect(),
            old_stamps: words.iter().map(|&w| crate::word::cell_stamp(w)).collect(),
            stats: TxStats { attempts: rounds, helps: 0, conflicts: rounds - 1, wakeups: 0 },
        })
    }

    /// Validate that `entries` — `(cell, packed word)` pairs observed
    /// earlier (e.g. by [`Stm::read_cell_word`]) — still form a consistent
    /// cut: every guarding ownership is free or dead and every cell still
    /// holds exactly the observed word. Zero shared-memory writes. This is
    /// the second collect of the double-collect; the dynamic layer commits
    /// read-only transactions with it.
    #[must_use = "an invalid read set must be retried or committed via the acquiring path"]
    pub fn validate_read_set<P: MemPort>(
        &self,
        port: &mut P,
        entries: &[(CellIdx, Word)],
    ) -> bool {
        algo::validate_read_set(self, port, entries)
    }

    /// Read one cell's current committed value directly (no transaction).
    ///
    /// Cell payloads only ever change via committed transactions (single CAS
    /// per cell), so this always observes *some* committed value of that
    /// cell — but reads of several cells are not mutually atomic; use an
    /// identity transaction (e.g. the `read` builtin) for an atomic snapshot.
    pub fn read_cell<P: MemPort>(&self, port: &mut P, idx: CellIdx) -> u32 {
        cell_value(port.read(self.layout.cell(idx)))
    }

    /// Read one cell's current packed word (`stamp | value`) directly — the
    /// raw form of [`Stm::read_cell`], for callers that want to validate the
    /// observation later via [`Stm::validate_read_set`].
    pub fn read_cell_word<P: MemPort>(&self, port: &mut P, idx: CellIdx) -> Word {
        port.read(self.layout.cell(idx))
    }

    /// Initialize a cell before concurrent activity starts (bumps the cell's
    /// stamp like a committed write, so it is safe even against a concurrent
    /// reader, but it bypasses ownership and must not race with transactions
    /// on the same cell).
    pub fn init_cell<P: MemPort>(&self, port: &mut P, idx: CellIdx, value: u32) {
        let addr = self.layout.cell(idx);
        loop {
            let cur = port.read(addr);
            let next = crate::word::cell_successor(cur, value);
            if port.compare_exchange(addr, cur, next).is_ok() {
                return;
            }
        }
    }

    /// Fault injection for liveness tests: start `spec` — record
    /// initialization plus ownership acquisition — and then abandon it, as a
    /// processor that crashed mid-protocol would. The transaction is left
    /// undecided with its locations claimed; the paper's helping mechanism
    /// obliges any conflicting processor to *complete* it (the transaction
    /// commits even though its initiator died).
    ///
    /// The crashed processor's record must not be reused afterwards (do not
    /// call [`Stm::run`] on the same `proc_id` again in the test).
    ///
    /// # Panics
    ///
    /// Same spec validation as [`Stm::run`].
    pub fn inject_crash_after_acquire<P: MemPort>(&self, port: &mut P, spec: &TxSpec<'_>) {
        let mut view = ViewBuf::default();
        self.resolve(port, spec, &mut view);
        algo::start_and_abandon(self, port, view.view(spec.op));
    }

    /// Validate `spec` and resolve it into `view`: the acquisition order, the
    /// cell and ownership addresses, and the duplicate check on that order
    /// (`O(k log k)`).
    ///
    /// # Panics
    ///
    /// On every malformed-spec condition listed under [`Stm::run`].
    pub(crate) fn resolve<P: MemPort>(&self, port: &P, spec: &TxSpec<'_>, view: &mut ViewBuf) {
        assert!(!spec.cells.is_empty(), "empty data set");
        assert!(
            spec.cells.len() <= self.layout.max_locs(),
            "data set of {} exceeds max_locs {}",
            spec.cells.len(),
            self.layout.max_locs()
        );
        assert!(spec.params.len() <= MAX_PARAMS, "too many parameter words");
        assert!(port.proc_id() < self.layout.n_procs(), "port processor id out of range for this STM");
        assert!(
            self.table.resolve_raw(spec.op.index() as Word).is_some(),
            "opcode not registered in this instance's table"
        );
        for &c in spec.cells {
            assert!(c < self.layout.n_cells(), "cell index {c} out of range");
        }
        view.fill(&self.layout, spec);
        if let Some(c) = view.duplicate() {
            panic!("duplicate cell {c} in data set");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::host::HostMachine;
    use crate::program::register_builtins;

    fn setup(n_cells: usize, n_procs: usize) -> (Stm, HostMachine, crate::program::Builtins) {
        let mut b = ProgramTable::builder();
        let ops = register_builtins(&mut b);
        let table = b.build();
        let stm = Stm::new(0, n_cells, n_procs, 8, table, StmConfig::default());
        let machine = HostMachine::new(stm.layout().words_needed(), n_procs);
        (stm, machine, ops)
    }

    #[test]
    fn single_threaded_add_and_read() {
        let (stm, m, ops) = setup(16, 1);
        let mut port = m.port(0);
        let out = stm.run(&mut port, &TxSpec::new(ops.add, &[3], &[5]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![0]);
        assert_eq!(out.stats.attempts, 1);
        let out = stm.run(&mut port, &TxSpec::new(ops.add, &[4], &[5]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![3]);
        assert_eq!(stm.read_cell(&mut port, 5), 7);
    }

    #[test]
    fn multi_cell_swap_returns_old_values_in_program_order() {
        let (stm, m, ops) = setup(16, 1);
        let mut port = m.port(0);
        stm.init_cell(&mut port, 1, 100);
        stm.init_cell(&mut port, 9, 900);
        // program order deliberately not ascending
        let out = stm.run(&mut port, &TxSpec::new(ops.swap, &[11, 99], &[9, 1]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![900, 100]);
        assert_eq!(stm.read_cell(&mut port, 9), 11);
        assert_eq!(stm.read_cell(&mut port, 1), 99);
    }

    #[test]
    fn identity_read_is_atomic_snapshot() {
        let (stm, m, ops) = setup(4, 1);
        let mut port = m.port(0);
        stm.init_cell(&mut port, 0, 1);
        stm.init_cell(&mut port, 1, 2);
        let out = stm.run(&mut port, &TxSpec::new(ops.read, &[], &[0, 1]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![1, 2]);
        assert_eq!(stm.read_cell(&mut port, 0), 1);
    }

    #[test]
    fn mwcas_success_and_failure() {
        let (stm, m, ops) = setup(4, 1);
        let mut port = m.port(0);
        stm.init_cell(&mut port, 0, 1);
        stm.init_cell(&mut port, 1, 2);
        let pack = |exp: u32, new: u32| ((exp as u64) << 32) | new as u64;
        let out = stm.run(&mut port, &TxSpec::new(ops.mwcas, &[pack(1, 10), pack(2, 20)], &[0, 1]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![1, 2]); // matched
        assert_eq!(stm.read_cell(&mut port, 0), 10);
        let out = stm.run(&mut port, &TxSpec::new(ops.mwcas, &[pack(1, 5), pack(20, 7)], &[0, 1]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![10, 20]); // old[0] != 1 -> no write
        assert_eq!(stm.read_cell(&mut port, 0), 10);
        assert_eq!(stm.read_cell(&mut port, 1), 20);
    }

    #[test]
    #[should_panic(expected = "duplicate cell")]
    fn duplicate_cells_panic() {
        let (stm, m, ops) = setup(4, 1);
        let mut port = m.port(0);
        let _ = stm.run(&mut port, &TxSpec::new(ops.add, &[], &[1, 1]), &mut TxOptions::new()).unwrap();
    }

    #[test]
    #[should_panic(expected = "empty data set")]
    fn empty_dataset_panics() {
        let (stm, m, ops) = setup(4, 1);
        let mut port = m.port(0);
        let _ = stm.run(&mut port, &TxSpec::new(ops.add, &[], &[]), &mut TxOptions::new()).unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_out_of_range_panics() {
        let (stm, m, ops) = setup(4, 1);
        let mut port = m.port(0);
        let _ = stm.run(&mut port, &TxSpec::new(ops.add, &[], &[4]), &mut TxOptions::new()).unwrap();
    }

    #[test]
    fn single_attempt_budget_succeeds_uncontended() {
        let (stm, m, ops) = setup(4, 1);
        let mut port = m.port(0);
        let mut opts = TxOptions::new().budget(TxBudget::attempts(1));
        let out = stm.run(&mut port, &TxSpec::new(ops.add, &[1], &[0]), &mut opts).unwrap();
        assert_eq!(out.old, vec![0]);
        assert_eq!(out.stats.attempts, 1);
    }

    #[test]
    fn fast_read_agrees_with_identity_transaction() {
        let (stm, m, ops) = setup(8, 1);
        let mut port = m.port(0);
        for c in 0..8 {
            stm.init_cell(&mut port, c, 100 + c as u32);
        }
        let cells = [6, 0, 3];
        let fast = stm.try_read_only(&mut port, &cells).expect("uncontended fast read");
        let slow =
            stm.run(&mut port, &TxSpec::new(ops.read, &[], &cells), &mut TxOptions::new()).unwrap();
        assert_eq!(fast.old, slow.old);
        assert_eq!(fast.old_stamps, slow.old_stamps);
        assert_eq!(fast.stats.attempts, 1, "uncontended: one double-collect round");
    }

    #[test]
    fn fast_read_fails_under_a_live_owner() {
        // A crashed (undecided) transaction holds its cells forever; the
        // invisible read must refuse to return values it cannot validate.
        let (stm, m, ops) = setup(4, 2);
        let mut p1 = m.port(1);
        stm.inject_crash_after_acquire(&mut p1, &TxSpec::new(ops.add, &[7], &[2]));
        let mut p0 = m.port(0);
        assert!(stm.try_read_only(&mut p0, &[2]).is_none(), "live owner must fail validation");
        // The acquiring path helps the crashed transaction and completes it.
        let out =
            stm.run(&mut p0, &TxSpec::new(ops.read, &[], &[2]), &mut TxOptions::new()).unwrap();
        assert_eq!(out.old, vec![7], "helper completed the crashed +7");
        // With the obstruction cleared, the fast path works again.
        assert_eq!(stm.try_read_only(&mut p0, &[2]).unwrap().old, vec![7]);
    }

    #[test]
    fn fast_read_disabled_by_config() {
        let config = StmConfig { fast_read_rounds: 0, ..StmConfig::default() };
        let mut b = ProgramTable::builder();
        let _ = register_builtins(&mut b);
        let stm = Stm::new(0, 4, 1, 4, b.build(), config);
        let m = HostMachine::new(stm.layout().words_needed(), 1);
        let mut port = m.port(0);
        assert!(stm.try_read_only(&mut port, &[0]).is_none());
    }

    #[test]
    fn padded_instance_behaves_identically() {
        let mut b = ProgramTable::builder();
        let ops = register_builtins(&mut b);
        let stm = Stm::new(0, 16, 2, 8, b.build(), StmConfig::host_tuned());
        assert_eq!(stm.layout().pad_shift(), 3);
        let m = HostMachine::new(stm.layout().words_needed(), 2);
        let mut port = m.port(0);
        stm.init_cell(&mut port, 3, 9);
        let out =
            stm.run(&mut port, &TxSpec::new(ops.add, &[1, 2], &[3, 7]), &mut TxOptions::new())
                .unwrap();
        assert_eq!(out.old, vec![9, 0]);
        assert_eq!(stm.read_cell(&mut port, 3), 10);
        assert_eq!(stm.try_read_only(&mut port, &[3, 7]).unwrap().old, vec![10, 2]);
    }

    #[test]
    fn backoff_policy_is_bounded_and_deterministic() {
        let p = BackoffPolicy::Exponential { base: 4, max: 1000 };
        for proc in 0..8 {
            for attempt in 1..20 {
                let w = p.wait_cycles(proc, attempt);
                assert!((1..=1000).contains(&w));
                assert_eq!(w, p.wait_cycles(proc, attempt));
            }
            // The first retry draws from the *initial* window `1..=base`
            // (shift 0), per the "Initial back-off" doc.
            assert!((1..=4).contains(&p.wait_cycles(proc, 1)));
            // Second retry: doubled window.
            assert!((1..=8).contains(&p.wait_cycles(proc, 2)));
        }
        assert_eq!(BackoffPolicy::None.wait_cycles(0, 3), 0);
    }

    #[test]
    fn record_version_wraps_past_oldval_tag_width() {
        // Old-value agreement entries carry only 15 bits of the record
        // version; a single record must stay correct across (several times)
        // that many reuses.
        let (stm, m, ops) = setup(2, 1);
        let mut port = m.port(0);
        const N: u32 = (1 << 15) * 2 + 17;
        for i in 0..N {
            let out = stm.run(&mut port, &TxSpec::new(ops.add, &[1], &[0]), &mut TxOptions::new()).unwrap();
            assert_eq!(out.old[0], i, "lost update at version {i}");
        }
        assert_eq!(stm.read_cell(&mut port, 0), N);
    }

    #[test]
    fn cell_stamp_wraps_past_16_bits() {
        // Cell stamps are 16-bit; >2^16 committed updates of one cell must
        // stay exact.
        let (stm, m, ops) = setup(2, 1);
        let mut port = m.port(0);
        const N: u32 = (1 << 16) + 33;
        for _ in 0..N {
            let _ = stm.run(&mut port, &TxSpec::new(ops.add, &[1], &[1]), &mut TxOptions::new()).unwrap();
        }
        assert_eq!(stm.read_cell(&mut port, 1), N);
    }

    #[test]
    fn concurrent_counter_on_host() {
        const PROCS: usize = 4;
        const PER: u64 = 500;
        let (stm, m, ops) = setup(4, PROCS);
        std::thread::scope(|s| {
            for p in 0..PROCS {
                let stm = stm.clone();
                let m = m.clone();
                s.spawn(move || {
                    let mut port = m.port(p);
                    for _ in 0..PER {
                        let _ = stm.run(&mut port, &TxSpec::new(ops.add, &[1], &[2]), &mut TxOptions::new()).unwrap();
                    }
                });
            }
        });
        let mut port = m.port(0);
        assert_eq!(stm.read_cell(&mut port, 2), (PROCS as u64 * PER) as u32);
    }

    #[test]
    fn concurrent_multiword_transfer_conserves_sum_on_host() {
        // 4 threads move value between 8 cells; total must be conserved.
        const PROCS: usize = 4;
        const PER: usize = 300;
        let (stm, m, ops) = setup(8, PROCS);
        {
            let mut port = m.port(0);
            for c in 0..8 {
                stm.init_cell(&mut port, c, 1000);
            }
        }
        std::thread::scope(|s| {
            for p in 0..PROCS {
                let stm = stm.clone();
                let m = m.clone();
                s.spawn(move || {
                    let mut port = m.port(p);
                    for i in 0..PER {
                        let from = (p + i) % 8;
                        let to = (p + i + 3) % 8;
                        if from == to {
                            continue;
                        }
                        // add -1 (wrapping) to from, +1 to to
                        let params = [1u32.wrapping_neg() as u64, 1];
                        let cells = [from, to];
                        let _ = stm.run(&mut port, &TxSpec::new(ops.add, &params, &cells), &mut TxOptions::new()).unwrap();
                    }
                });
            }
        });
        let mut port = m.port(0);
        let total: u64 = (0..8).map(|c| stm.read_cell(&mut port, c) as u64).sum();
        assert_eq!(total, 8000);
    }
}
