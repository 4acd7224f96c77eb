//! # stm-bench — the figure-regeneration harness
//!
//! For every figure of the Shavit–Touitou evaluation this crate runs the
//! corresponding workload on the simulated machine, sweeping processor
//! counts and methods, and emits the paper's throughput-vs-processors series
//! as printed tables and CSV files.
//!
//! * [`workloads`] — one driver per benchmark (counting, queue, resource
//!   allocation, priority queue), returning a [`workloads::DataPoint`] per
//!   (architecture, method, processor-count) configuration.
//! * [`read_heavy`] — snapshot-dominated and 90/10 read/write workloads
//!   measuring the invisible-read fast path (classic vs fast-read modes on
//!   the simulator, plus a wall-clock host ladder for the cache-aligned
//!   layout).
//! * [`write_path`] — the MWCAS-kernel ladder: committing `add`
//!   transactions over k = 1..4 cells, interpreted (the allocating
//!   general-sweep reference) vs compiled (the allocation-free per-call
//!   resolution hot path), on the simulator (deterministic, CI-gated,
//!   bit-identity witness) and as a wall-clock host ladder.
//! * [`durable`] — the durable-commit latency ladder: the contended write
//!   path with write-ahead journaling as the variable, from the compiled-out
//!   no-journal baseline through a simulated flush-cost ladder
//!   (deterministic) to an fsync'd file journal on the host (wall-clock,
//!   informational). Every simulated point re-verifies recovery equivalence
//!   before it is emitted.
//! * [`blocking`] — the B1 producer–consumer idle-cost comparison: a
//!   consumer draining a paced bounded queue by parking (`retry`) vs by
//!   spin-retrying `try_pop`, on the simulator (deterministic; the parked
//!   consumer takes zero scheduler steps) and on host threads (per-thread
//!   CPU time across the wait window; wall-clock, informational).
//! * [`kv`] — the million-key KV service over the growable sharded cell
//!   arena: Zipfian get/put/delete traffic against an arena-backed hash map
//!   with a live population in the millions of cells, swept over a
//!   threads × skew × read-ratio ladder (wall-clock throughput is
//!   informational; the `bench_gate` binary pins the workload's functional
//!   invariants — the live-cell floor, arena accounting, and a
//!   duplicate-free scan).
//! * [`fairness`] — the F1 starvation ablation: a big-k transaction under a
//!   small-tx storm, with the escalation ladder as the variable. Reports
//!   max-losses-before-commit and the big transaction's p99 tail latency;
//!   deterministic, CI-gated (an escalation row must respect the N+M loss
//!   bound).
//! * [`runner`] — parameter sweeps and the summary/crossover analysis.
//! * [`table`] — aligned table printing and CSV output.
//! * [`report`] — the machine-readable `BENCH_stm.json` report (throughput
//!   plus per-point conflict/help/retry rates). The read-heavy section and
//!   the write-path rows of the points section are the CI regression
//!   baseline checked by the `bench_gate` binary.
//!
//! The `figures` binary (`cargo run -p stm-bench --release --bin figures`)
//! regenerates every experiment; see `DESIGN.md` §6 for the experiment
//! index and `EXPERIMENTS.md` for recorded results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocking;
pub mod durable;
pub mod fairness;
pub mod kv;
pub mod read_heavy;
pub mod report;
pub mod runner;
pub mod table;
pub mod workloads;
pub mod write_path;
