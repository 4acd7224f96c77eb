//! Write-path ladder: the MWCAS-kernel microbenchmarks.
//!
//! Every operation here is a committing `add` transaction over `k` cells —
//! the pure acquiring write path, with `k` selecting the MWCAS kernel tier:
//! `k = 1, 2, 4` hit the monomorphized small-k kernels and `k = 3` the
//! general sweep. Each tier runs in both modes of [`WriteMode`]:
//!
//! * `interpreted` — the reference entry point ([`StmOps::run`]), which
//!   allocates a fresh scratch per call and always runs the general sweep.
//! * `compiled` — the hot path ([`StmOps::run_planned`]): the data set is
//!   resolved per call into the per-thread scratch and runs on its small-k
//!   kernel, allocation-free once the thread is warm. (The label predates
//!   per-call resolution, when this mode replayed cached compiled plans;
//!   it is kept so committed rows stay comparable.)
//!
//! On the **simulated** machines the two modes are bit-identical by
//! construction — the kernels issue the same memory operations in the same
//! order — so [`run_write_point`] rows serve double duty: they are the
//! deterministic baseline the `bench_gate` binary replays on every PR
//! (regression anchor for the write path's simulated cost), and the gate
//! additionally asserts `interpreted.cycles == compiled.cycles`, a standing
//! bit-identity witness.
//!
//! The hot path's *win* is host-side: [`run_write_host_point`] measures
//! wall-clock throughput on real threads, where skipping per-call
//! allocation is the whole point. Wall-clock rows are informational (never
//! CI-gated).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stm_core::machine::host::HostMachine;
use stm_core::ops::StmOps;
use stm_core::stm::{StmConfig, TxOptions, TxSpec};
use stm_core::word::Word;
use stm_sim::engine::SimPort;
use stm_sim::harness::StmSim;

use crate::workloads::{ArchKind, DynModel};

/// Cells in the write-path working set.
pub const WRITE_CELLS: usize = 8;

/// The kernel-tier ladder: k = 1, 2, 4 (monomorphized MWCAS kernels) and
/// k = 3 (general sweep control).
pub const WRITE_KS: [usize; 4] = [1, 2, 3, 4];

/// Processor counts for the simulated ladder: 1 isolates uncontended kernel
/// cost, 4 adds conflicts and helping. Pinned (rather than swept) to keep
/// the CI gate's replay bounded.
pub const WRITE_PROCS: [usize; 2] = [1, 4];

/// Execution mode under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Reference entry point: fresh scratch per call, general sweep.
    Interpreted,
    /// Hot path: per-call resolution into the thread's scratch, small-k
    /// kernels, allocation-free once warm.
    Compiled,
}

impl WriteMode {
    /// Both modes.
    pub const ALL: [WriteMode; 2] = [WriteMode::Interpreted, WriteMode::Compiled];

    /// Short name used in tables, CSV, and `BENCH_stm.json`.
    pub fn label(self) -> &'static str {
        match self {
            WriteMode::Interpreted => "interpreted",
            WriteMode::Compiled => "compiled",
        }
    }

    /// Inverse of [`WriteMode::label`] (used by the CI gate to replay
    /// baseline rows).
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.label() == s)
    }
}

impl std::fmt::Display for WriteMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Label for a kernel tier (`"k1"` .. `"k4"`).
pub fn k_label(k: usize) -> &'static str {
    match k {
        1 => "k1",
        2 => "k2",
        3 => "k3",
        4 => "k4",
        _ => panic!("write-path ladder covers k = 1..=4, got {k}"),
    }
}

/// Inverse of [`k_label`].
pub fn k_from_label(s: &str) -> Option<usize> {
    WRITE_KS.into_iter().find(|&k| k_label(k) == s)
}

/// One measured write-path configuration (simulated machine).
#[derive(Debug, Clone)]
pub struct WritePoint {
    /// Transaction width (kernel tier).
    pub k: usize,
    /// Machine.
    pub arch: ArchKind,
    /// Execution mode.
    pub mode: WriteMode,
    /// Simulated processors.
    pub procs: usize,
    /// Committed transactions across all processors.
    pub total_ops: u64,
    /// Schedule seed (recorded so the CI gate can replay the row exactly).
    pub seed: u64,
    /// Virtual cycles for the whole run.
    pub cycles: u64,
    /// Operations per million simulated cycles.
    pub throughput: f64,
    /// Transactions committed through the acquiring protocol.
    pub commits: u64,
    /// Attempts failed on an ownership conflict.
    pub conflicts: u64,
    /// Helping spans entered.
    pub helps: u64,
}

/// Run one write-path configuration on the simulated machine.
///
/// Every processor commits `total_ops / procs` `add(+1)` transactions over
/// cells `0..k`, so at `procs > 1` all processors collide on the same data
/// set — worst-case contention for the kernel under test.
///
/// # Panics
///
/// Panics if updates are lost (every cell in the working set must end at
/// exactly the committed-transaction count) or the run leaks an ownership —
/// a benchmark that produces wrong answers must never emit a data point.
pub fn run_write_point(
    k: usize,
    arch: ArchKind,
    mode: WriteMode,
    procs: usize,
    total_ops: u64,
    seed: u64,
) -> WritePoint {
    assert!(WRITE_KS.contains(&k), "write-path ladder covers k = 1..=4, got {k}");
    let per_proc = (total_ops / procs as u64).max(1);
    let actual_total = per_proc * procs as u64;
    let sim =
        StmSim::new(procs, WRITE_CELLS, WRITE_CELLS, StmConfig::default()).seed(seed).jitter(2);
    let committed = Arc::new(AtomicU64::new(0));
    let report = sim.run(DynModel(arch.model(procs)), |_p, ops| {
        let committed = Arc::clone(&committed);
        move |mut port: SimPort| {
            let add = ops.builtins().add;
            let cells: Vec<usize> = (0..k).collect();
            let params = vec![1 as Word; k];
            for _ in 0..per_proc {
                match mode {
                    WriteMode::Compiled => {
                        ops.run_planned(&mut port, add, &params, &cells, |_| ());
                    }
                    WriteMode::Interpreted => {
                        let _ = ops
                            .run(
                                &mut port,
                                &TxSpec::new(add, &params, &cells),
                                &mut TxOptions::new(),
                            )
                            .expect("unlimited budget cannot be exhausted");
                    }
                }
                committed.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    // Correctness gates: conservation and protocol quiescence.
    let writes = committed.load(Ordering::Relaxed);
    let cells = sim.all_cells(&report);
    for (c, &v) in cells.iter().enumerate() {
        let want = if c < k { writes } else { 0 };
        assert_eq!(v as u64, want, "cell {c} must equal the committed count ({mode}, k={k})");
    }
    assert!(sim.leaked_ownerships(&report).is_empty(), "run must end protocol-quiescent");
    let cycles = report.cycles;
    WritePoint {
        k,
        arch,
        mode,
        procs,
        total_ops: actual_total,
        seed,
        cycles,
        throughput: if cycles == 0 {
            0.0
        } else {
            actual_total as f64 * 1_000_000.0 / cycles as f64
        },
        commits: report.stats.commits(),
        conflicts: report.stats.aborts(),
        helps: report.stats.helps(),
    }
}

/// One wall-clock write-path measurement on the real host machine
/// (informational; not CI-gated — but the uncontended small-k rows are
/// where the compiled path's ≥ 1.5× claim lives).
#[derive(Debug, Clone)]
pub struct WriteHostPoint {
    /// Transaction width (kernel tier).
    pub k: usize,
    /// Execution mode.
    pub mode: WriteMode,
    /// Real threads.
    pub procs: usize,
    /// Committed transactions across all threads.
    pub total_ops: u64,
    /// Wall-clock nanoseconds for the whole run.
    pub nanos: u64,
    /// Transactions per second.
    pub ops_per_sec: f64,
}

impl WriteHostPoint {
    /// `BENCH_stm.json` host-row config label, e.g. `"k2-compiled"`.
    pub fn config(&self) -> String {
        format!("{}-{}", k_label(self.k), self.mode)
    }
}

/// Run one write-path configuration on the real host machine with real
/// threads, measuring wall-clock time.
///
/// # Panics
///
/// Panics on a lost update, as in [`run_write_point`].
pub fn run_write_host_point(
    k: usize,
    mode: WriteMode,
    procs: usize,
    total_ops: u64,
) -> WriteHostPoint {
    assert!(WRITE_KS.contains(&k), "write-path ladder covers k = 1..=4, got {k}");
    let ops = StmOps::new(0, WRITE_CELLS, procs, WRITE_CELLS, StmConfig::default());
    let machine = HostMachine::new(ops.stm().layout().words_needed(), procs);
    let per_proc = (total_ops / procs as u64).max(1);
    let actual_total = per_proc * procs as u64;
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for p in 0..procs {
            let ops = ops.clone();
            let machine = machine.clone();
            s.spawn(move || {
                let mut port = machine.port(p);
                let add = ops.builtins().add;
                let cells: Vec<usize> = (0..k).collect();
                let params = vec![1 as Word; k];
                for _ in 0..per_proc {
                    match mode {
                        WriteMode::Compiled => {
                            ops.run_planned(&mut port, add, &params, &cells, |_| ());
                        }
                        WriteMode::Interpreted => {
                            let _ = ops
                                .run(
                                    &mut port,
                                    &TxSpec::new(add, &params, &cells),
                                    &mut TxOptions::new(),
                                )
                                .expect("unlimited budget cannot be exhausted");
                        }
                    }
                }
            });
        }
    });
    let nanos = start.elapsed().as_nanos() as u64;
    let mut port = machine.port(0);
    let finals = ops.snapshot(&mut port, &(0..WRITE_CELLS).collect::<Vec<_>>());
    for (c, &v) in finals.iter().enumerate() {
        let want = if c < k { actual_total } else { 0 };
        assert_eq!(v as u64, want, "host cell {c} must equal the committed count (k={k})");
    }
    WriteHostPoint {
        k,
        mode,
        procs,
        total_ops: actual_total,
        nanos,
        ops_per_sec: if nanos == 0 {
            0.0
        } else {
            actual_total as f64 * 1e9 / nanos as f64
        },
    }
}

/// Observer under measurement in [`run_observer_ladder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverMode {
    /// `NoopObserver` — the unobserved baseline.
    Noop,
    /// A per-thread [`FlightRecorder`](stm_core::flight::FlightRecorder)
    /// appending into a [`stm_core::DEFAULT_FLIGHT_CAPACITY`]-event ring on a shared
    /// [`OpBoard`](stm_core::flight::OpBoard) — the always-on production
    /// configuration.
    Flight,
}

impl ObserverMode {
    /// Short name used by `bench_gate` output.
    pub fn label(self) -> &'static str {
        match self {
            ObserverMode::Noop => "noop",
            ObserverMode::Flight => "flight",
        }
    }
}

/// Run the full W1 host kernel ladder (the [`Stm::run_in`] hot path,
/// `k` = 1..=4, every thread committing `ops_per_k` `add` transactions per
/// tier) under the given observer, returning total wall-clock nanoseconds.
///
/// This is the measurement behind the flight-recorder overhead gate:
/// `bench_gate` runs it interleaved for both [`ObserverMode`]s and compares
/// them, so the recorder's per-event cost is priced on exactly the shortest
/// (allocation-free) committing path the runtime has.
///
/// [`Stm::run_in`]: stm_core::stm::Stm::run_in
///
/// # Panics
///
/// Panics on a lost update, as in [`run_write_host_point`].
pub fn run_observer_ladder(mode: ObserverMode, procs: usize, ops_per_k: u64) -> u64 {
    use stm_core::flight::{FlightRecorder, OpBoard, DEFAULT_FLIGHT_CAPACITY};
    use stm_core::stm::TxScratch;

    let mut nanos = 0u64;
    for k in WRITE_KS {
        let ops = StmOps::new(0, WRITE_CELLS, procs, WRITE_CELLS, StmConfig::default());
        let machine = HostMachine::new(ops.stm().layout().words_needed(), procs);
        let board = Arc::new(OpBoard::new(procs));
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for p in 0..procs {
                let ops = ops.clone();
                let machine = machine.clone();
                let board = Arc::clone(&board);
                s.spawn(move || {
                    let mut port = machine.port(p);
                    let cells: Vec<usize> = (0..k).collect();
                    let params = vec![1 as Word; k];
                    let spec = TxSpec::new(ops.builtins().add, &params, &cells);
                    let mut scratch = TxScratch::new();
                    match mode {
                        ObserverMode::Noop => {
                            let mut opts = TxOptions::new();
                            for _ in 0..ops_per_k {
                                ops.stm()
                                    .run_in(&mut port, &spec, &mut opts, &mut scratch)
                                    .expect("unlimited budget cannot be exhausted");
                            }
                        }
                        ObserverMode::Flight => {
                            let mut rec =
                                FlightRecorder::with_board(p, DEFAULT_FLIGHT_CAPACITY, board);
                            rec.set_op(k as u32);
                            let mut opts = TxOptions::new().observer(&mut rec);
                            for _ in 0..ops_per_k {
                                ops.stm()
                                    .run_in(&mut port, &spec, &mut opts, &mut scratch)
                                    .expect("unlimited budget cannot be exhausted");
                            }
                        }
                    }
                });
            }
        });
        nanos += start.elapsed().as_nanos() as u64;
        let mut port = machine.port(0);
        let finals = ops.snapshot(&mut port, &(0..WRITE_CELLS).collect::<Vec<_>>());
        let want = ops_per_k * procs as u64;
        for (c, &v) in finals.iter().enumerate() {
            let expect = if c < k { want } else { 0 };
            assert_eq!(v as u64, expect, "cell {c} must equal the committed count (k={k})");
        }
    }
    nanos
}

/// Compiled-over-interpreted wall-clock speedups, one per (k, procs) pair
/// present in both modes.
pub fn compiled_speedups(points: &[WriteHostPoint]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for c in points.iter().filter(|p| p.mode == WriteMode::Compiled) {
        if let Some(i) = points
            .iter()
            .find(|p| p.mode == WriteMode::Interpreted && p.k == c.k && p.procs == c.procs)
        {
            if i.ops_per_sec > 0.0 {
                out.push((c.k, c.procs, c.ops_per_sec / i.ops_per_sec));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_modes_are_bit_identical_per_tier() {
        // The PR's hard constraint, restated as a benchmark invariant: the
        // gate relies on interpreted and compiled rows agreeing exactly.
        for k in WRITE_KS {
            for arch in [ArchKind::Bus, ArchKind::Mesh] {
                let i = run_write_point(k, arch, WriteMode::Interpreted, 4, 128, 9);
                let c = run_write_point(k, arch, WriteMode::Compiled, 4, 128, 9);
                assert_eq!(i.cycles, c.cycles, "k={k} {arch}");
                assert_eq!(i.commits, c.commits, "k={k} {arch}");
                assert_eq!(i.conflicts, c.conflicts, "k={k} {arch}");
                assert_eq!(i.helps, c.helps, "k={k} {arch}");
            }
        }
    }

    #[test]
    fn sim_points_are_deterministic() {
        let a = run_write_point(2, ArchKind::Bus, WriteMode::Compiled, 2, 128, 5);
        let b = run_write_point(2, ArchKind::Bus, WriteMode::Compiled, 2, 128, 5);
        assert_eq!(a.cycles, b.cycles, "simulated runs must be reproducible");
        assert_eq!(a.total_ops, 128);
        assert!(a.throughput > 0.0);
    }

    #[test]
    fn labels_round_trip() {
        for k in WRITE_KS {
            assert_eq!(k_from_label(k_label(k)), Some(k));
        }
        for mode in WriteMode::ALL {
            assert_eq!(WriteMode::from_label(mode.label()), Some(mode));
        }
    }

    #[test]
    fn observer_ladder_runs_under_both_modes() {
        for mode in [ObserverMode::Noop, ObserverMode::Flight] {
            let nanos = run_observer_ladder(mode, 2, 500);
            assert!(nanos > 0, "{}", mode.label());
        }
    }

    #[test]
    fn host_ladder_runs_and_checks() {
        let mut points = Vec::new();
        for mode in WriteMode::ALL {
            let p = run_write_host_point(1, mode, 1, 2_000);
            assert_eq!(p.total_ops, 2_000);
            assert!(p.ops_per_sec > 0.0, "{mode}");
            points.push(p);
        }
        let speedups = compiled_speedups(&points);
        assert_eq!(speedups.len(), 1);
        assert!(speedups[0].2 > 0.0);
    }
}
