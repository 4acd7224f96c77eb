//! F1 starvation ablation: a big-k transaction under a small-tx storm.
//!
//! The paper's protocol is lock-free but not starvation-free: a transaction
//! spanning many hot cells can lose to a stream of small commits
//! indefinitely. The fairness ladder (escalation after N losses, the forced
//! tier after M further losses — see `docs/protocol.md` §13) bounds that.
//! This module measures the bound: one processor runs big-k read-modify-write
//! transactions across the storm's hot cells while the rest hammer the two
//! hottest cells with single-cell commits, on the bus and mesh machines.
//!
//! Each configuration runs in both modes of [`FairMode`]: `baseline`
//! disables the ladder (thresholds at `u64::MAX` — the pre-fairness
//! contention manager) and `escalation` is the aggressive ladder. The
//! headline columns are `max_losses` — the most conflicts any single big
//! transaction suffered before committing — and the big transaction's p99
//! commit latency in simulated cycles. Under `escalation`, `max_losses` must
//! not exceed the N+M bound ([`fair_loss_bound`]); the point asserts that
//! before it is emitted, and the `bench_gate` binary re-checks it on every
//! replay.
//!
//! The simulator is deterministic: the same `(arch, mode, procs, ops, seed)`
//! tuple always yields the same cycle count and loss tally, which is what
//! lets CI gate fairness rows against the committed `BENCH_stm.json`
//! baseline exactly like the read-heavy and write-path families.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use stm_core::contention::{AdaptiveConfig, AdaptiveManager, PriorityBoard};
use stm_core::observe::{TxEvent, TxObserver};
use stm_core::stm::{StmConfig, TxOptions, TxSpec};
use stm_core::word::Word;
use stm_sim::engine::SimPort;
use stm_sim::harness::StmSim;
use stm_sim::liveness::{ForcedOrderChecker, LivenessChecker};

use crate::workloads::{ArchKind, DynModel};

/// Simulated processors in the storm (one big-k victim + the storm).
pub const FAIR_PROCS: usize = 4;

/// Cells in the storm's working set.
pub const FAIR_CELLS: usize = 8;

/// Cells spanned by the big transaction (includes the storm's hot cells).
pub const FAIR_BIG_K: usize = 6;

/// The aggressive escalation ladder measured by the ablation: escalation
/// trips within N = 4 attempts, M = 2 further losses claims the forced slot.
pub fn fair_ladder() -> AdaptiveConfig {
    AdaptiveConfig {
        starvation_losses: 2,
        starvation_attempts: 4,
        forced_losses: 2,
        ..AdaptiveConfig::default()
    }
}

/// N+M: the most conflicts an escalating transaction can suffer before its
/// sweep goes forced (which cannot lose).
pub fn fair_loss_bound() -> u64 {
    let cfg = fair_ladder();
    cfg.starvation_attempts + cfg.forced_losses
}

/// Fairness mode under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FairMode {
    /// Ladder disabled (every threshold at `u64::MAX`): the pre-fairness
    /// contention manager, whose worst-case losses are unbounded.
    Baseline,
    /// The escalation ladder of [`fair_ladder`], sharing a
    /// [`PriorityBoard`] across all processors.
    Escalation,
}

impl FairMode {
    /// Both modes.
    pub const ALL: [FairMode; 2] = [FairMode::Baseline, FairMode::Escalation];

    /// Short name used in tables, CSV, and `BENCH_stm.json`.
    pub fn label(self) -> &'static str {
        match self {
            FairMode::Baseline => "baseline",
            FairMode::Escalation => "escalation",
        }
    }

    /// Inverse of [`FairMode::label`] (used by the CI gate to replay
    /// baseline rows).
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.label() == s)
    }
}

impl std::fmt::Display for FairMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One measured storm configuration (simulated machine).
#[derive(Debug, Clone)]
pub struct FairnessPoint {
    /// Machine.
    pub arch: ArchKind,
    /// Fairness mode.
    pub mode: FairMode,
    /// Simulated processors (always [`FAIR_PROCS`]; recorded for replay).
    pub procs: usize,
    /// Requested operation budget, recorded verbatim (the split across
    /// victim and storm is derived from it, so replaying with this value
    /// reproduces the row exactly; the committed count is `big_txs` plus the
    /// storm's share and may fall short of the budget by a rounding sliver).
    pub total_ops: u64,
    /// Schedule seed (recorded so the CI gate can replay the row exactly).
    pub seed: u64,
    /// Virtual cycles for the whole run.
    pub cycles: u64,
    /// Committed transactions per million simulated cycles.
    pub throughput: f64,
    /// Big-k transactions committed by the victim processor.
    pub big_txs: u64,
    /// Most conflicts any single big transaction suffered before committing.
    pub max_losses: u64,
    /// The N+M bound `max_losses` must respect under `escalation`
    /// (0 = unbounded, recorded for `baseline` rows).
    pub loss_bound: u64,
    /// p99 big-transaction commit latency in simulated cycles.
    pub p99_big_latency: u64,
    /// Escalations observed (victim entering the escalated tier).
    pub escalations: u64,
    /// Forced-tier commits observed.
    pub forced: u64,
    /// Conflicts where a storm transaction deferred to the escalated victim.
    pub deferrals: u64,
}

/// Tallies of the fairness lifecycle events, shared across the simulated
/// processors' observers.
#[derive(Clone, Default)]
struct StormCounters {
    escalations: Arc<AtomicU64>,
    deferrals: Arc<AtomicU64>,
    forced: Arc<AtomicU64>,
}

struct StormObserver(StormCounters);

impl TxObserver for StormObserver {
    #[inline]
    fn on(&mut self, ev: &TxEvent) {
        let counter = match ev {
            TxEvent::StarvationEscalated { .. } => &self.0.escalations,
            TxEvent::ConflictDeferred { .. } => &self.0.deferrals,
            TxEvent::ForcedCommit { .. } => &self.0.forced,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run one storm configuration on the simulated machine.
///
/// `total_ops` is split: the victim commits `total_ops / 8` big-k
/// transactions (at least 8), the storm processors share the rest as
/// single-cell commits on the two hottest cells.
///
/// # Panics
///
/// Panics if any add is lost or duplicated, if the run leaks an ownership,
/// if the run violates lock-freedom or the forced tier's ascending-order
/// invariant, or if an `escalation` row exceeds the N+M loss bound — a
/// benchmark that produces wrong answers must never emit a data point.
pub fn run_fairness_point(
    arch: ArchKind,
    mode: FairMode,
    total_ops: u64,
    seed: u64,
) -> FairnessPoint {
    let big_txs = (total_ops / 8).max(8);
    let small_per_proc =
        (total_ops.saturating_sub(big_txs) / (FAIR_PROCS as u64 - 1)).max(1);
    let actual_total = big_txs + small_per_proc * (FAIR_PROCS as u64 - 1);

    let board = Arc::new(PriorityBoard::new(FAIR_PROCS));
    let mut sim = StmSim::new(FAIR_PROCS, FAIR_CELLS, FAIR_CELLS, StmConfig::default())
        .seed(seed)
        .jitter(3)
        .trace(1 << 20);
    if mode == FairMode::Escalation {
        sim = sim.priority_board(Arc::clone(&board));
    }
    // Pre-fairness manager: the ladder exists but can never trip.
    let disabled = AdaptiveConfig {
        starvation_losses: u64::MAX,
        starvation_attempts: u64::MAX,
        forced_losses: u64::MAX,
        ..AdaptiveConfig::default()
    };

    let counters = StormCounters::default();
    let max_losses = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(big_txs as usize)));
    let report = sim.run(DynModel(arch.model(FAIR_PROCS)), |p, ops| {
        let board = Arc::clone(&board);
        let counters = counters.clone();
        let max_losses = Arc::clone(&max_losses);
        let latencies = Arc::clone(&latencies);
        move |mut port: SimPort| {
            let mut obs = StormObserver(counters);
            if p == 0 {
                // The victim: one big-k read-modify-write per iteration,
                // spanning the storm's hot cells.
                let mut cm = match mode {
                    FairMode::Baseline => AdaptiveManager::with_config(0, disabled),
                    FairMode::Escalation => {
                        AdaptiveManager::with_config(0, fair_ladder()).with_board(board)
                    }
                };
                let cells: Vec<usize> = (0..FAIR_BIG_K).collect();
                let params: Vec<Word> = vec![1; FAIR_BIG_K];
                let mut lats = Vec::with_capacity(big_txs as usize);
                for _ in 0..big_txs {
                    use stm_core::machine::MemPort;
                    let t0 = port.now();
                    let out = ops
                        .run(
                            &mut port,
                            &TxSpec::new(ops.builtins().add, &params, &cells),
                            &mut TxOptions::new().observer(&mut obs).manager(&mut cm),
                        )
                        .expect("unlimited budget");
                    lats.push(port.now().saturating_sub(t0));
                    max_losses.fetch_max(out.stats.conflicts, Ordering::Relaxed);
                }
                *latencies.lock().expect("latency lock") = lats;
            } else {
                // The storm: short adds hammering the two hottest cells.
                let mut cm = match mode {
                    FairMode::Baseline => AdaptiveManager::with_config(p, disabled),
                    FairMode::Escalation => AdaptiveManager::new(p).with_board(board),
                };
                for i in 0..small_per_proc as usize {
                    let cell = [(p + i) % 2];
                    let _ = ops
                        .run(
                            &mut port,
                            &TxSpec::new(ops.builtins().add, &[1], &cell),
                            &mut TxOptions::new().observer(&mut obs).manager(&mut cm),
                        )
                        .expect("unlimited budget");
                }
            }
        }
    });

    // Correctness gates: conservation, quiescence, liveness, forced order.
    let cells = sim.all_cells(&report);
    let total: u64 = cells.iter().map(|&v| v as u64).sum();
    let expected = big_txs * FAIR_BIG_K as u64 + small_per_proc * (FAIR_PROCS as u64 - 1);
    assert_eq!(total, expected, "{arch}/{mode}: lost or duplicated adds");
    for (c, &v) in cells.iter().enumerate().take(FAIR_BIG_K).skip(2) {
        assert_eq!(v as u64, big_txs, "{arch}/{mode}: big-only cell {c}");
    }
    assert!(sim.leaked_ownerships(&report).is_empty(), "{arch}/{mode}: leaked ownership");
    assert_eq!(LivenessChecker::default().check(&report), None, "{arch}/{mode}");
    assert_eq!(ForcedOrderChecker.check(&report), None, "{arch}/{mode}");

    let max_losses = max_losses.load(Ordering::Relaxed);
    let loss_bound = match mode {
        FairMode::Baseline => 0,
        FairMode::Escalation => fair_loss_bound(),
    };
    if mode == FairMode::Escalation {
        assert!(
            max_losses <= loss_bound,
            "{arch}: a big transaction lost {max_losses} times, above the N+M bound {loss_bound}"
        );
    }

    let mut lats = latencies.lock().expect("latency lock").clone();
    lats.sort_unstable();
    let p99_big_latency =
        if lats.is_empty() { 0 } else { lats[(lats.len() - 1) * 99 / 100] };

    let cycles = report.cycles;
    FairnessPoint {
        arch,
        mode,
        procs: FAIR_PROCS,
        total_ops,
        seed,
        cycles,
        throughput: if cycles == 0 {
            0.0
        } else {
            actual_total as f64 * 1_000_000.0 / cycles as f64
        },
        big_txs,
        max_losses,
        loss_bound,
        p99_big_latency,
        escalations: counters.escalations.load(Ordering::Relaxed),
        forced: counters.forced.load(Ordering::Relaxed),
        deferrals: counters.deferrals.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_bounds_losses_where_baseline_exceeds_them() {
        // The ablation's reason to exist: on at least one architecture the
        // unprotected baseline must lose more than the ladder's bound, and
        // the ladder must hold it (run_fairness_point asserts the bound
        // internally before emitting an escalation row).
        let mut baseline_worst = 0;
        for arch in [ArchKind::Bus, ArchKind::Mesh] {
            let base = run_fairness_point(arch, FairMode::Baseline, 256, 9);
            let esc = run_fairness_point(arch, FairMode::Escalation, 256, 9);
            baseline_worst = baseline_worst.max(base.max_losses);
            assert!(esc.escalations > 0, "{arch}: storm produced no escalations");
            assert!(esc.max_losses <= fair_loss_bound(), "{arch}");
        }
        assert!(
            baseline_worst > fair_loss_bound(),
            "storm too weak: baseline max losses {baseline_worst} within the bound"
        );
    }

    #[test]
    fn fairness_points_are_deterministic() {
        let a = run_fairness_point(ArchKind::Bus, FairMode::Escalation, 128, 5);
        let b = run_fairness_point(ArchKind::Bus, FairMode::Escalation, 128, 5);
        assert_eq!(a.cycles, b.cycles, "simulated runs must be reproducible");
        assert_eq!(a.max_losses, b.max_losses);
        assert_eq!(a.p99_big_latency, b.p99_big_latency);
        assert!(a.throughput > 0.0);
    }

    #[test]
    fn labels_round_trip() {
        for mode in FairMode::ALL {
            assert_eq!(FairMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(FairMode::from_label("nonsense"), None);
    }
}
