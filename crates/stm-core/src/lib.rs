//! # stm-core — Shavit–Touitou Software Transactional Memory
//!
//! A from-scratch reproduction of the algorithm introduced in
//! **Nir Shavit and Dan Touitou, "Software Transactional Memory", PODC 1995**
//! (journal version: *Distributed Computing* 10(2):99–116, 1997): the first
//! software-only, **non-blocking** implementation of transactional memory,
//! for *static* transactions whose data set is declared up front.
//!
//! The protocol, in the paper's terms:
//!
//! 1. a transaction **acquires ownership** of every location in its data set,
//!    in ascending address order;
//! 2. participants **agree on the old values** of the data set;
//! 3. the transaction's pure commit function computes the new values, which
//!    are **installed** and the ownerships **released**;
//! 4. on conflict the transaction fails itself and **helps** the obstructing
//!    transaction complete (one level of *non-redundant helping*) before
//!    retrying — this is what makes the construction lock-free: a stalled
//!    processor can never block the system, because any processor that needs
//!    its locations finishes its transaction for it.
//!
//! ## Crate tour
//!
//! * [`machine`] — the word-addressed shared-memory abstraction
//!   ([`machine::MemPort`]); includes the host machine
//!   ([`machine::host::HostMachine`]) backed by `std` atomics. The companion
//!   crate `stm-sim` provides a deterministic simulated multiprocessor with
//!   bus/mesh cost models, on which the paper's figures are regenerated.
//! * [`word`] — the packed, version-tagged protocol words (cells,
//!   ownerships, statuses, old-value entries).
//! * [`layout`] — the shared-memory layout of an STM instance (cells,
//!   ownership array, per-processor transaction records).
//! * [`program`] — transaction commit functions ([`program::TxProgram`]) and
//!   the process-wide table helpers resolve opcodes through.
//! * [`stm`] — the protocol itself ([`stm::Stm`]).
//! * [`ops`] — derived operations: MWCAS, fetch-and-add, swap, snapshot
//!   ([`ops::StmOps`]).
//!
//! ## Quick start
//!
//! ```
//! use stm_core::machine::host::HostMachine;
//! use stm_core::ops::StmOps;
//! use stm_core::stm::StmConfig;
//!
//! // 64 transactional cells, 2 processors, data sets of up to 8 cells.
//! let ops = StmOps::new(0, 64, 2, 8, StmConfig::default());
//! let machine = HostMachine::new(ops.stm().layout().words_needed(), 2);
//!
//! std::thread::scope(|s| {
//!     for p in 0..2 {
//!         let ops = ops.clone();
//!         let machine = machine.clone();
//!         s.spawn(move || {
//!             let mut port = machine.port(p);
//!             for _ in 0..1000 {
//!                 ops.fetch_add(&mut port, 0, 1); // lock-free shared counter
//!             }
//!         });
//!     }
//! });
//!
//! let mut port = machine.port(0);
//! assert_eq!(ops.snapshot(&mut port, &[0]), vec![2000]);
//! ```
//!
//! ## Faithfulness
//!
//! The implementation follows the paper's procedures one-for-one
//! (`startTransaction`, `transaction`, `acquireOwnerships`,
//! `agreeOldValues`, `updateMemory`, `releaseOwnerships`). Where the 1995
//! pseudocode leaves record reuse informal, this crate uses explicit bounded
//! version tags packed into single CAS-able words — see `DESIGN.md` §4 at the
//! repository root for the exact layouts and the staleness argument.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod attribution;
pub mod contention;
pub mod durable;
pub mod export;
pub mod flight;
pub mod dynamic;
pub mod history;
pub mod layout;
pub mod machine;
pub mod metrics;
pub mod observe;
pub mod ops;
pub mod program;
pub mod step;
pub mod stm;
pub mod word;

pub use arena::{ArenaStats, CellArena};
pub use attribution::{Attribution, CellBlame};
pub use contention::{
    AdaptiveConfig, AdaptiveManager, ConflictInfo, ContentionManager, ImmediateRetry,
    RetryDecision, WaitAction,
};
pub use durable::{
    DurableMem, FileJournal, FlushInfo, Journal, MemJournal, NoJournal, RecoveryReport, RedoRecord,
};
pub use dynamic::{DynamicStm, DynamicTx, Retry};
pub use export::{
    encode_openmetrics, parse_openmetrics, snapshot_json, MetricsRegistry, MetricsSnapshot,
    OpLatency, ProcCounters,
};
pub use flight::{
    FlightBuffer, FlightEvent, FlightRecorder, OpBoard, RingRead, DEFAULT_FLIGHT_CAPACITY,
    NO_OP_TAG,
};
pub use machine::chaos::{ChaosConfig, ChaosPort, ChaosStats, Watchdog, WatchdogHandle};
pub use machine::MemPort;
pub use metrics::{Log2Histogram, TxMetrics};
pub use observe::{NoopObserver, RecordingObserver, TxEvent, TxObserver};
pub use step::{StepKind, StepPoint};
pub use ops::StmOps;
pub use program::{OpCode, ProgramTable, TxProgram};
pub use stm::{
    BackoffPolicy, Sabotage, Stm, StmConfig, TxBudget, TxError, TxOptions, TxOutcome, TxScratch,
    TxSpec, TxStats,
};
pub use word::{Addr, CellIdx, Word};

/// The one-stop import for typical users of the crate.
///
/// Curates the types needed to build an STM instance, run static and dynamic
/// transactions through the unified [`Stm::run`] / [`DynamicStm::run`] entry
/// points (or block until a wakeup via
/// [`DynamicStm::run_blocking`](dynamic::DynamicStm::run_blocking)), and tune
/// them via [`TxOptions`]:
///
/// ```
/// use stm_core::prelude::*;
///
/// let ops = StmOps::new(0, 16, 1, 8, StmConfig::default());
/// let machine = HostMachine::new(ops.stm().layout().words_needed(), 1);
/// let mut port = machine.port(0);
/// ops.fetch_add(&mut port, 0, 7);
/// let out = ops
///     .run(
///         &mut port,
///         &TxSpec::new(ops.builtins().read, &[], &[0]),
///         &mut TxOptions::new().budget(TxBudget::attempts(4)),
///     )
///     .unwrap();
/// assert_eq!(out.old, vec![7]);
/// ```
///
/// Deliberately excluded: the packed-word helpers ([`word`]), layout
/// internals, simulation hooks ([`step`]), and the telemetry/chaos machinery
/// — import those from their modules when a test or tool needs them.
pub mod prelude {
    pub use crate::arena::CellArena;
    pub use crate::contention::{AdaptiveManager, ContentionManager, ImmediateRetry};
    pub use crate::durable::{FileJournal, Journal, MemJournal, NoJournal};
    pub use crate::dynamic::{DynamicStm, DynamicTx, Retry};
    pub use crate::machine::host::HostMachine;
    pub use crate::machine::MemPort;
    pub use crate::observe::{NoopObserver, TxEvent, TxObserver};
    pub use crate::ops::StmOps;
    pub use crate::program::{OpCode, ProgramTable, TxProgram};
    pub use crate::stm::{
        Stm, StmConfig, TxBudget, TxError, TxOptions, TxOutcome, TxScratch, TxSpec, TxStats,
    };
    pub use crate::word::{Addr, CellIdx, Word};
}
