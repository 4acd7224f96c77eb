//! # stm-sim — a deterministic Proteus-like multiprocessor simulator
//!
//! The Shavit–Touitou paper evaluated STM on the Proteus simulator, running
//! up to 64 simulated processors on two architectures: a cache-coherent bus
//! machine and an Alewife-like distributed-shared-memory mesh. This crate
//! provides the equivalent substrate for the reproduction:
//!
//! * [`engine`] — a discrete-event engine: every simulated processor is a
//!   stackful coroutine on the calling host thread, every shared-memory
//!   operation is charged a virtual cycle cost and applied in global
//!   completion-time order. Fully deterministic given a seed.
//! * [`arch`] — the architecture cost models: [`arch::BusModel`] (snoopy
//!   caches + one shared bus), [`arch::MeshModel`] (home nodes + per-hop
//!   latency + hot-spot queueing), and [`arch::UniformModel`] (ideal
//!   machine, for tests and ablations).
//! * [`harness`] — [`harness::StmSim`], an STM instance wired into a
//!   simulated machine: the building block of every figure regeneration.
//! * [`faults`] — scripted fault injection: crash, stall, or slow any
//!   processor at any named protocol step (see [`stm_core::step`]) or
//!   virtual-clock deadline, delivered deterministically by the engine.
//! * [`liveness`] — [`liveness::LivenessChecker`], a trace-consuming
//!   progress monitor asserting the paper's lock-freedom bound, and
//!   [`liveness::ForcedOrderChecker`], asserting the forced-priority tier's
//!   ascending-acquisition invariant.
//! * [`explore`] — seed-sweeping schedule exploration with failing-seed
//!   replay, the systematic crash matrix, a seeded fault-plan fuzzer, and a
//!   counterexample shrinker.
//! * [`stats`] — per-processor operation and protocol counters.
//! * [`perfetto`] — Chrome-trace-event (Perfetto) export of engine traces:
//!   open a fault-injection run at `ui.perfetto.dev` instead of reading a
//!   text dump.
//!
//! Any code written against [`stm_core::machine::MemPort`] runs unmodified on
//! the simulator — the STM itself, the lock baselines, and the benchmark data
//! structures all do.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arch;
mod coroutine;
pub mod engine;
pub mod explore;
pub mod faults;
pub mod harness;
pub mod liveness;
pub mod perfetto;
pub mod stats;
pub mod trace;

pub use arch::{BusModel, CostModel, MeshModel, OpKind, UniformModel};
pub use engine::{SimConfig, SimPort, SimReport, Simulation, Violation};
pub use faults::{Fault, FaultKind, FaultPlan, Trigger};
pub use harness::StmSim;
pub use liveness::{ForcedOrderChecker, LivenessChecker};
