//! High-level operations over an [`Stm`] instance: the derived primitives the
//! paper presents as corollaries of static transactions — multi-word
//! compare-and-swap, multi-word fetch-and-add, atomic swap, and atomic
//! snapshots.
//!
//! [`StmOps`] bundles an [`Stm`] with the built-in program table so common
//! operations need no program plumbing.
//!
//! [`StmOps::snapshot`] is special: it first attempts the invisible
//! double-collect read ([`Stm::try_read_only`]), which commits without a
//! single shared-memory write when no live owner intervenes, and only falls
//! back to the full acquiring protocol after the configured number of
//! validation rounds fail.
//!
//! # Examples
//!
//! ```
//! use stm_core::machine::host::HostMachine;
//! use stm_core::ops::StmOps;
//! use stm_core::stm::StmConfig;
//!
//! let ops = StmOps::new(0, 16, 1, 8, StmConfig::default());
//! let machine = HostMachine::new(ops.stm().layout().words_needed(), 1);
//! let mut port = machine.port(0);
//!
//! assert_eq!(ops.fetch_add(&mut port, 3, 10), 0);
//! assert_eq!(ops.fetch_add(&mut port, 3, 5), 10);
//! assert!(ops.mwcas(&mut port, &[(3, 15, 100), (4, 0, 200)]).is_ok());
//! assert_eq!(ops.snapshot(&mut port, &[3, 4]), vec![100, 200]);
//! ```

use std::cell::RefCell;
use std::sync::Arc;

use crate::machine::MemPort;
use crate::program::{register_builtins, Builtins, OpCode, ProgramTable, ProgramTableBuilder};
use crate::stm::{Stm, StmConfig, TxError, TxOptions, TxOutcome, TxScratch, TxSpec};
use crate::word::{Addr, CellIdx, Word};

/// Hit/miss counters of a plan cache (see [`StmOps::plan_cache_stats`]).
///
/// Static transactions go through no cache — each call resolves its data
/// set into the thread's scratch — so both counters stay 0. The type
/// remains for callers that still report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served by an already-compiled plan.
    pub hits: u64,
    /// Lookups that had to compile (including cold-start compiles).
    pub misses: u64,
}

thread_local! {
    /// Per-thread execution arena for [`StmOps::run_planned`]: one warm
    /// scratch per OS thread means the built-in hot ops run allocation-free
    /// no matter how many `StmOps` handles the thread touches.
    static OPS_SCRATCH: RefCell<TxScratch> = RefCell::new(TxScratch::new());
}

/// An [`Stm`] instance together with the built-in operation programs.
#[derive(Debug, Clone)]
pub struct StmOps {
    stm: Stm,
    ops: Builtins,
}

impl StmOps {
    /// Create an instance with only the built-in programs registered.
    ///
    /// Arguments are as in [`Stm::new`].
    pub fn new(base: Addr, n_cells: usize, n_procs: usize, max_locs: usize, config: StmConfig) -> Self {
        Self::with_programs(base, n_cells, n_procs, max_locs, config, |_| ()).0
    }

    /// Create an instance, also registering application programs via
    /// `extra`; returns whatever `extra` produced (typically the opcodes).
    pub fn with_programs<X>(
        base: Addr,
        n_cells: usize,
        n_procs: usize,
        max_locs: usize,
        config: StmConfig,
        extra: impl FnOnce(&mut ProgramTableBuilder) -> X,
    ) -> (Self, X) {
        let mut builder = ProgramTable::builder();
        let ops = register_builtins(&mut builder);
        let x = extra(&mut builder);
        let table: Arc<ProgramTable> = builder.build();
        (
            StmOps {
                stm: Stm::new(base, n_cells, n_procs, max_locs, table, config),
                ops,
            },
            x,
        )
    }

    /// Create an instance over a pre-built layout (see
    /// [`Stm::with_layout`]) with only the built-in programs registered —
    /// the entry point for the sharded arena geometry.
    pub fn with_layout(layout: crate::layout::StmLayout, config: StmConfig) -> Self {
        Self::with_layout_programs(layout, config, |_| ()).0
    }

    /// Like [`StmOps::with_layout`], also registering application programs
    /// via `extra`; returns whatever `extra` produced.
    pub fn with_layout_programs<X>(
        layout: crate::layout::StmLayout,
        config: StmConfig,
        extra: impl FnOnce(&mut ProgramTableBuilder) -> X,
    ) -> (Self, X) {
        let mut builder = ProgramTable::builder();
        let ops = register_builtins(&mut builder);
        let x = extra(&mut builder);
        let table: Arc<ProgramTable> = builder.build();
        (
            StmOps { stm: Stm::with_layout(layout, table, config), ops },
            x,
        )
    }

    /// Attach a shared [`PriorityBoard`](crate::contention::PriorityBoard)
    /// to the underlying instance (see
    /// [`Stm::with_priority_board`](crate::stm::Stm::with_priority_board)).
    #[must_use]
    pub fn with_priority_board(
        mut self,
        board: Arc<crate::contention::PriorityBoard>,
    ) -> Self {
        self.stm = self.stm.with_priority_board(board);
        self
    }

    /// The underlying STM instance.
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// The built-in opcodes.
    pub fn builtins(&self) -> Builtins {
        self.ops
    }

    /// Plan-cache hit/miss counters: always zero, since calls resolve their
    /// data sets per call and no cache exists (see [`PlanCacheStats`]).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats::default()
    }

    /// Run `(op, params, cells)` with default options (unlimited budget —
    /// retries until commit) on the thread-local scratch via
    /// [`Stm::run_in`], handing the committed old values to `read_out`
    /// while the scratch borrow is live.
    ///
    /// This is the allocation-free hot path for registered programs: the
    /// data set is resolved into the per-thread [`TxScratch`] on each call,
    /// so a call on a warm thread performs zero heap allocations whether or
    /// not its data set was seen before. The built-in derived ops
    /// ([`StmOps::fetch_add`], [`StmOps::swap`], [`StmOps::mwcas`], …) and
    /// the `stm-structures` containers all route through here.
    ///
    /// # Panics
    ///
    /// Panics on any malformed data set (empty, over `max_locs`, duplicate
    /// or out-of-range cells, unregistered opcode) with the same messages as
    /// the spec-validating [`StmOps::run`], and if the registered program
    /// itself panics.
    pub fn run_planned<P: MemPort, R>(
        &self,
        port: &mut P,
        op: OpCode,
        params: &[Word],
        cells: &[CellIdx],
        read_out: impl FnOnce(&[u32]) -> R,
    ) -> R {
        OPS_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            let _stats = self
                .stm
                .run_in(port, &TxSpec::new(op, params, cells), &mut TxOptions::new(), &mut scratch)
                .expect("unlimited budget cannot be exhausted and builtins do not panic");
            read_out(scratch.old())
        })
    }

    /// Atomically add `delta` (wrapping) to `cell`, returning the old value.
    /// Runs on the single-cell commit kernel, allocation-free once the
    /// thread's scratch is warm.
    pub fn fetch_add<P: MemPort>(&self, port: &mut P, cell: CellIdx, delta: u32) -> u32 {
        self.run_planned(port, self.ops.add, &[delta as Word], &[cell], |old| {
            // Invariant: `TxOutcome::old` has exactly one entry per data-set
            // cell, established by the agreement phase before commit.
            debug_assert_eq!(old.len(), 1, "one old value per data-set cell");
            old[0]
        })
    }

    /// Atomically add per-cell deltas to several cells, returning old values.
    ///
    /// # Panics
    ///
    /// Panics if `cells` and `deltas` differ in length (or on any
    /// [`Stm::run`] spec violation).
    pub fn fetch_add_many<P: MemPort>(
        &self,
        port: &mut P,
        cells: &[CellIdx],
        deltas: &[u32],
    ) -> Vec<u32> {
        assert_eq!(cells.len(), deltas.len(), "one delta per cell");
        let params: Vec<Word> = deltas.iter().map(|&d| d as Word).collect();
        self.run_planned(port, self.ops.add, &params, cells, |old| old.to_vec())
    }

    /// Atomically replace `cell` with `value`, returning the old value.
    /// Runs on the single-cell commit kernel, like [`StmOps::fetch_add`].
    pub fn swap<P: MemPort>(&self, port: &mut P, cell: CellIdx, value: u32) -> u32 {
        self.run_planned(port, self.ops.swap, &[value as Word], &[cell], |old| {
            debug_assert_eq!(old.len(), 1, "one old value per data-set cell");
            old[0]
        })
    }

    /// Atomic multi-cell snapshot.
    ///
    /// First tries the invisible double-collect read
    /// ([`Stm::try_read_only`]): when it validates, the snapshot commits
    /// with **zero shared-memory writes**. After
    /// [`StmConfig::fast_read_rounds`] failed validation rounds (a live
    /// owner keeps intervening), falls back to the identity transaction over
    /// `cells`, which acquires ownerships and helps blockers — preserving
    /// the protocol's lock-freedom guarantee.
    ///
    /// The spec-validation rules of the acquiring path (non-empty,
    /// in-range, within `max_locs`, strictly ascending) are enforced up
    /// front so both paths accept exactly the same inputs.
    pub fn snapshot<P: MemPort>(&self, port: &mut P, cells: &[CellIdx]) -> Vec<u32> {
        let spec = TxSpec::new(self.ops.read, &[], cells);
        OPS_SCRATCH.with(|s| self.stm.resolve(port, &spec, &mut s.borrow_mut().view));
        if let Some(out) = self.stm.try_read_only(port, cells) {
            return out.old;
        }
        self.run_planned(port, self.ops.read, &[], cells, |old| old.to_vec())
    }

    /// Multi-word compare-and-swap: atomically, if every `cell` holds its
    /// `expected` value, install every `new` value.
    ///
    /// # Errors
    ///
    /// On mismatch, returns the witnessed values (an atomic snapshot taken at
    /// the linearization point).
    pub fn mwcas<P: MemPort>(
        &self,
        port: &mut P,
        entries: &[(CellIdx, u32, u32)],
    ) -> Result<(), Vec<u32>> {
        let cells: Vec<CellIdx> = entries.iter().map(|e| e.0).collect();
        let params: Vec<Word> =
            entries.iter().map(|&(_, exp, new)| ((exp as Word) << 32) | new as Word).collect();
        self.run_planned(port, self.ops.mwcas, &params, &cells, |old| {
            let matched = entries.iter().zip(old).all(|(&(_, exp, _), &o)| o == exp);
            if matched {
                Ok(())
            } else {
                Err(old.to_vec())
            }
        })
    }

    /// Run an arbitrary registered program (see [`StmOps::with_programs`])
    /// under the given options.
    ///
    /// # Errors
    ///
    /// Propagates [`TxError`] from [`Stm::run`]: budget exhaustion or an
    /// op panic.
    pub fn run<P: MemPort, O, C, J>(
        &self,
        port: &mut P,
        spec: &TxSpec<'_>,
        opts: &mut TxOptions<O, C, J>,
    ) -> Result<TxOutcome, TxError>
    where
        O: crate::observe::TxObserver,
        C: crate::contention::ContentionManager,
        J: crate::durable::Journal,
    {
        self.stm.run(port, spec, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::host::HostMachine;

    fn setup(n_procs: usize) -> (StmOps, HostMachine) {
        let ops = StmOps::new(0, 32, n_procs, 8, StmConfig::default());
        let m = HostMachine::new(ops.stm().layout().words_needed(), n_procs);
        (ops, m)
    }

    #[test]
    fn fetch_add_many_is_atomic() {
        let (ops, m) = setup(1);
        let mut port = m.port(0);
        let old = ops.fetch_add_many(&mut port, &[1, 2, 3], &[10, 20, 30]);
        assert_eq!(old, vec![0, 0, 0]);
        assert_eq!(ops.snapshot(&mut port, &[1, 2, 3]), vec![10, 20, 30]);
    }

    #[test]
    fn swap_returns_old() {
        let (ops, m) = setup(1);
        let mut port = m.port(0);
        assert_eq!(ops.swap(&mut port, 7, 42), 0);
        assert_eq!(ops.swap(&mut port, 7, 43), 42);
    }

    #[test]
    fn mwcas_mismatch_reports_witnessed_values() {
        let (ops, m) = setup(1);
        let mut port = m.port(0);
        ops.swap(&mut port, 0, 5);
        let err = ops.mwcas(&mut port, &[(0, 4, 9)]).unwrap_err();
        assert_eq!(err, vec![5]);
        assert_eq!(ops.snapshot(&mut port, &[0]), vec![5]);
    }

    #[test]
    fn mwcas_two_thread_contention_linearizes() {
        // Two threads repeatedly MWCAS two cells from (a,a) -> (a+1,a+1); the
        // cells must advance in lockstep.
        let (ops, m) = setup(2);
        std::thread::scope(|s| {
            for p in 0..2 {
                let ops = ops.clone();
                let m = m.clone();
                s.spawn(move || {
                    let mut port = m.port(p);
                    let mut done = 0;
                    while done < 200 {
                        let snap = ops.snapshot(&mut port, &[0, 1]);
                        assert_eq!(snap[0], snap[1], "cells advanced out of lockstep");
                        let a = snap[0];
                        if ops.mwcas(&mut port, &[(0, a, a + 1), (1, a, a + 1)]).is_ok() {
                            done += 1;
                        }
                    }
                });
            }
        });
        let mut port = m.port(0);
        let snap = ops.snapshot(&mut port, &[0, 1]);
        assert_eq!(snap[0], 400);
        assert_eq!(snap[1], 400);
    }

    #[test]
    fn snapshot_duplicate_cells_panic_even_on_fast_path() {
        // The fast path itself tolerates duplicates, but `snapshot` enforces
        // the static-spec rules so both paths accept the same inputs
        // deterministically.
        let (ops, m) = setup(1);
        let mut port = m.port(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ops.snapshot(&mut port, &[3, 3])
        }));
        assert!(r.is_err(), "duplicate cells in the data set must be rejected");
    }

    #[test]
    #[should_panic(expected = "one delta per cell")]
    fn fetch_add_many_length_mismatch_panics() {
        let (ops, m) = setup(1);
        let mut port = m.port(0);
        let _ = ops.fetch_add_many(&mut port, &[1, 2], &[1]);
    }
}
