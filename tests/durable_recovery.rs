//! Crash durability under systematic kill testing.
//!
//! The durable commit path journals a redo record and flushes it to stable
//! storage *before any participant installs a value*. These tests kill the
//! victim at every instrumented protocol step — the classic matrix plus the
//! three journal steps — and check two oracles at every point:
//!
//! * the live oracle from `fault_injection.rs`: helpers complete every
//!   post-decision transaction exactly once and drain the ownership table;
//! * the **recovery oracle**: rebuilding the heap from the base image plus
//!   the durable journal yields bit-for-bit the live run's final heap, so a
//!   full machine crash at that same point would lose nothing that was
//!   decided and durable.
//!
//! A deliberately sabotaged variant (journal *after* install — the classic
//! missing-write-ahead bug) proves the recovery-equivalence checker has
//! teeth: crashing in the install-to-flush window makes the recovered heap
//! diverge from the live one, the fuzzer finds it, and the shrinker reduces
//! the plan to a minimal reproducer.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use stm_core::durable::{recover, recover_with, scan_journal, DurableMem, MemJournal, RedoRecord};
use stm_core::metrics::TxMetrics;
use stm_core::ops::StmOps;
use stm_core::step::StepKind;
use stm_core::stm::{Sabotage, StmConfig, TxOptions, TxSpec};
use stm_core::word::{pack_cell, Word};
use stm_sim::engine::{SimPort, SimReport};
use stm_sim::explore::{durable_crash_matrix, shrink, MatrixPoint};
use stm_sim::faults::FaultPlan;
use stm_sim::liveness::LivenessChecker;
use stm_sim::trace::render_trace;
use stm_sim::{BusModel, MeshModel, StmSim};

/// The victim's transaction adds this to each of its cells.
const VICTIM_ADD: u32 = 100;
/// Each of the two survivors runs this many 2-cell add transactions.
const SURVIVOR_TXS: usize = 10;
/// Survivors sleep this long before starting, so the victim reliably reaches
/// its scripted crash point first on every architecture model.
const SURVIVOR_DELAY: u64 = 5000;
/// Simulated fsync latency in virtual cycles. Non-zero so a crash delivered
/// during the flush window is distinguishable from one delivered after it.
const FLUSH_COST: u64 = 300;

/// Run one journaled add transaction through the options-based entry point.
fn durable_add(
    ops: &StmOps,
    port: &mut SimPort,
    jrn: &mut MemJournal,
    cells: &[usize],
    deltas: &[u32],
) {
    let params: Vec<Word> = deltas.iter().map(|&d| d as Word).collect();
    let mut opts = TxOptions::new().journal(&mut *jrn);
    let _ = ops
        .run(port, &TxSpec::new(ops.builtins().add, &params, cells), &mut opts)
        .expect("unlimited budget: add must commit");
}

fn port_delay(port: &mut SimPort, cycles: u64) {
    use stm_core::machine::MemPort;
    port.delay(cycles);
}

/// The durable matrix scenario: processor 0 (the victim) runs one journaled
/// 2-cell transaction and is crashed somewhere inside it by the plan;
/// processors 1 and 2 then hammer the same two cells, also journaled. Every
/// processor's handle shares one [`DurableMem`]; a crashed processor's
/// un-flushed pending bytes die with its handle.
fn durable_matrix_scenario(sim: &StmSim, storage: &DurableMem, arch: usize) -> SimReport {
    let body = |p: usize, ops: StmOps| {
        let mut jrn = storage.handle().flush_cost(FLUSH_COST);
        move |mut port: SimPort| {
            if p == 0 {
                durable_add(&ops, &mut port, &mut jrn, &[0, 1], &[VICTIM_ADD, VICTIM_ADD]);
                return;
            }
            port_delay(&mut port, SURVIVOR_DELAY);
            for _ in 0..SURVIVOR_TXS {
                durable_add(&ops, &mut port, &mut jrn, &[0, 1], &[1, 1]);
            }
        }
    };
    match arch {
        0 => sim.run(BusModel::for_procs(3), body),
        _ => sim.run(MeshModel::for_procs(3), body),
    }
}

fn matrix_sim(seed: u64, plan: &FaultPlan) -> StmSim {
    StmSim::new(3, 4, 4, StmConfig::default())
        .seed(seed)
        .jitter(2)
        .trace(100_000)
        .faults(plan.clone())
}

fn check_matrix_point(decode: &StmSim, report: &SimReport, point: &MatrixPoint, ctx: &str) {
    let effect = if point.expect_effect { 1u32 } else { 0 };
    let want = VICTIM_ADD * effect + (2 * SURVIVOR_TXS) as u32;
    for cell in 0..2 {
        assert_eq!(
            decode.cell_value(report, cell),
            want,
            "{ctx}: cell {cell} — victim effect must land {} times",
            effect
        );
    }
    assert_eq!(
        decode.leaked_ownerships(report),
        Vec::<usize>::new(),
        "{ctx}: helpers must drain every ownership the victim left behind"
    );
    assert_eq!(report.crashed, vec![0], "{ctx}: exactly the victim crashed");
    assert_eq!(
        LivenessChecker::with_budget(80_000).check(report),
        None,
        "{ctx}: lock-freedom bound"
    );
}

/// The recovery oracle: replaying the durable journal over the run's base
/// image must reproduce the live run's final heap, packed stamps included.
/// Every cell starts at `pack_cell(0, 0)` (the harness default), so the base
/// image is the all-zero word vector.
fn check_recovery_matches_live(decode: &StmSim, report: &SimReport, storage: &DurableMem, ctx: &str) {
    let layout = decode.ops().stm().layout();
    let mut recovered: Vec<Word> = vec![pack_cell(0, 0); layout.n_cells()];
    let rep = recover(&mut recovered, &storage.bytes());
    let live: Vec<Word> =
        (0..layout.n_cells()).map(|i| report.memory[layout.cell(i)]).collect();
    assert_eq!(
        recovered, live,
        "{ctx}: recovered heap must equal the live heap ({rep:?})"
    );
}

/// Seeds per matrix point: 10 by default, raised by the nightly CI sweep via
/// the `FAULT_MATRIX_SEEDS` environment variable.
fn matrix_seeds() -> u64 {
    std::env::var("FAULT_MATRIX_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(10)
}

fn run_durable_crash_matrix(arch: usize, arch_name: &str) {
    let decode = StmSim::new(3, 4, 4, StmConfig::default());
    for point in durable_crash_matrix(0, 2) {
        for seed in 0..matrix_seeds() {
            let storage = DurableMem::new();
            let report =
                durable_matrix_scenario(&matrix_sim(seed, &point.plan), &storage, arch);
            let ctx = format!("{arch_name}/crash@{}/seed{seed}", point.label);
            check_matrix_point(&decode, &report, &point, &ctx);
            check_recovery_matches_live(&decode, &report, &storage, &ctx);
        }
    }
}

#[test]
fn durable_crash_matrix_holds_on_bus_model() {
    run_durable_crash_matrix(0, "bus");
}

#[test]
fn durable_crash_matrix_holds_on_mesh_model() {
    run_durable_crash_matrix(1, "mesh");
}

#[test]
fn decided_durable_but_uninstalled_commit_replays_exactly_once() {
    // An uncontended victim crashes right after its record became durable
    // and before installing anything: nobody is around to help, so the live
    // heap never sees the effect — but the journal does, and recovery must
    // replay it exactly once. This is the case that distinguishes durable
    // recovery from the in-memory helping story.
    let plan = FaultPlan::new().crash_at_step(0, StepKind::JournalDurable, None);
    let storage = DurableMem::new();
    let sim = StmSim::new(1, 4, 4, StmConfig::default()).seed(0).trace(10_000).faults(plan);
    let report = sim.run(BusModel::for_procs(1), |_p, ops| {
        let mut jrn = storage.handle().flush_cost(FLUSH_COST);
        move |mut port: SimPort| {
            durable_add(&ops, &mut port, &mut jrn, &[0, 1], &[VICTIM_ADD, VICTIM_ADD]);
        }
    });
    assert_eq!(report.crashed, vec![0]);
    assert_eq!(sim.cell_value(&report, 0), 0, "no install happened before the crash");
    assert_eq!(sim.cell_value(&report, 1), 0);

    let n = sim.ops().stm().layout().n_cells();
    let mut recovered: Vec<Word> = vec![pack_cell(0, 0); n];
    let rep = recover(&mut recovered, &storage.bytes());
    assert_eq!(rep.records_scanned, 1);
    assert_eq!(rep.records_installed, 1);
    assert_eq!(rep.cells_installed, 2);
    assert_eq!(rep.tail_discarded, 0);
    assert_eq!(stm_core::word::cell_value(recovered[0]), VICTIM_ADD);
    assert_eq!(stm_core::word::cell_value(recovered[1]), VICTIM_ADD);

    // Recovery is idempotent: a second replay over the recovered heap — a
    // restart that crashed after recovering but before checkpointing — must
    // install nothing.
    let again = recover(&mut recovered, &storage.bytes());
    assert_eq!(again.records_installed, 0);
    assert_eq!(stm_core::word::cell_value(recovered[0]), VICTIM_ADD);
}

#[test]
fn stale_duplicate_from_a_stalled_flusher_is_skipped_at_replay() {
    // The victim stalls right before its flush, long enough for the helpers
    // to complete — and journal — its transaction. When the victim resumes
    // it flushes its now-stale record anyway, so the durable stream carries
    // a late duplicate of an already-installed commit. Replay must collapse
    // the duplicate via the pre-image discipline.
    let plan = FaultPlan::new().stall_at_step(0, StepKind::JournalFlush, None, 40_000);
    let decode = StmSim::new(3, 4, 4, StmConfig::default());
    for seed in 0..matrix_seeds() {
        let storage = DurableMem::new();
        let report = durable_matrix_scenario(&matrix_sim(seed, &plan), &storage, 0);
        let ctx = format!("seed{seed}");
        assert!(report.crashed.is_empty(), "{ctx}: a stall is not a crash");
        let want = VICTIM_ADD + (2 * SURVIVOR_TXS) as u32;
        for cell in 0..2 {
            assert_eq!(decode.cell_value(&report, cell), want, "{ctx}: cell {cell}");
        }
        let victim_records =
            scan_journal(&storage.bytes()).records.iter().filter(|r| r.owner == 0).count();
        assert!(
            victim_records >= 2,
            "{ctx}: expected the helper's record plus the victim's stale \
             duplicate, got {victim_records}"
        );
        check_recovery_matches_live(&decode, &report, &storage, &ctx);
    }
}

#[test]
fn journal_flush_metrics_and_recovery_hook_fire() {
    let storage = DurableMem::new();
    let sim = StmSim::new(2, 2, 2, StmConfig::default()).seed(1).jitter(2);
    let metrics_cell = std::sync::Arc::new(std::sync::Mutex::new(TxMetrics::default()));
    let report = sim.run(BusModel::for_procs(2), |_p, ops| {
        let mut jrn = storage.handle().flush_cost(FLUSH_COST);
        let metrics_cell = std::sync::Arc::clone(&metrics_cell);
        move |mut port: SimPort| {
            let mut metrics = TxMetrics::default();
            for _ in 0..5 {
                let mut opts = TxOptions::new().observer(&mut metrics).journal(&mut jrn);
                let _ = ops
                    .run(&mut port, &TxSpec::new(ops.builtins().add, &[1], &[0]), &mut opts)
                    .expect("add must commit");
            }
            metrics_cell.lock().unwrap().merge(&metrics);
        }
    });
    assert_eq!(sim.cell_value(&report, 0), 10);

    let mut metrics = std::sync::Arc::try_unwrap(metrics_cell)
        .expect("all clones dropped")
        .into_inner()
        .unwrap();
    // One flush per commit, possibly more when a processor helped a rival's
    // commit; every flush records the configured simulated latency.
    assert!(metrics.journal_flushes() >= 10, "flushes: {}", metrics.journal_flushes());
    assert!(metrics.journal_records() >= 10);
    assert!(metrics.journal_bytes() > 0);
    assert_eq!(metrics.flush_latency.max(), FLUSH_COST);

    // Replay through the observer-aware entry point: the recovery event
    // lands in the replay histogram.
    let n = sim.ops().stm().layout().n_cells();
    let mut recovered: Vec<Word> = vec![pack_cell(0, 0); n];
    recover_with(&mut recovered, &storage.bytes(), &mut metrics);
    assert_eq!(metrics.recoveries(), 1);
    let live: Vec<Word> = (0..n)
        .map(|i| report.memory[sim.ops().stm().layout().cell(i)])
        .collect();
    assert_eq!(recovered, live);
}

// ---------------------------------------------------------------------------
// Sabotage: the recovery-equivalence checker must have teeth
// ---------------------------------------------------------------------------

/// Run two non-conflicting processors under the journal-after-install
/// sabotage and report whether the recovery oracle catches the bug. The
/// processors share no cells, so no helper can paper over the victim's
/// missing record by journaling the commit itself.
fn durable_sabotage_fails(seed: u64, plan: &FaultPlan) -> bool {
    let config = StmConfig { sabotage: Sabotage::JournalAfterInstall, ..Default::default() };
    let storage = DurableMem::new();
    let sim = StmSim::new(2, 2, 2, config).seed(seed).jitter(3).trace(200_000).faults(plan.clone());
    let report = sim.run(BusModel::for_procs(2), |p, ops| {
        let mut jrn = storage.handle().flush_cost(FLUSH_COST);
        move |mut port: SimPort| {
            for _ in 0..5 {
                durable_add(&ops, &mut port, &mut jrn, &[p], &[1]);
            }
        }
    });
    let layout = sim.ops().stm().layout();
    let mut recovered: Vec<Word> = vec![pack_cell(0, 0); layout.n_cells()];
    recover(&mut recovered, &storage.bytes());
    let live: Vec<Word> =
        (0..layout.n_cells()).map(|i| report.memory[layout.cell(i)]).collect();
    recovered != live
}

#[test]
fn journal_after_install_sabotage_is_caught_and_shrunk() {
    // A protocol that installs before flushing violates write-ahead
    // ordering: a crash in the install-to-flush window leaves an effect in
    // the live heap that the journal never saw. The recovery-equivalence
    // checker must catch it, and the shrinker must reduce the failing plan.
    let canonical = FaultPlan::new().crash_at_step(0, StepKind::JournalAppend, None);
    let mut fuzzer = stm_sim::explore::FaultFuzzer::new(11, 2, 1).durable();
    let mut candidates = vec![FaultPlan::new(), canonical];
    for _ in 0..20 {
        candidates.push(fuzzer.next_plan());
    }

    let mut failing: Option<(u64, FaultPlan)> = None;
    'search: for seed in 0..10u64 {
        for plan in &candidates {
            if durable_sabotage_fails(seed, plan) {
                failing = Some((seed, plan.clone()));
                break 'search;
            }
        }
    }
    let (seed, plan) = failing
        .expect("the sabotaged write-ahead order evaded the recovery checker: no teeth");

    let (min_seed, min_plan) = shrink(seed, &plan, durable_sabotage_fails);
    assert!(durable_sabotage_fails(min_seed, &min_plan), "shrunk reproducer must still fail");
    assert!(min_plan.faults.len() <= plan.faults.len(), "shrinking must never grow the plan");
    assert!(!min_plan.is_empty(), "the bug needs a crash: an empty plan cannot expose it");

    // Correctness control: the same reproducer passes on the real protocol.
    {
        let storage = DurableMem::new();
        let sim = StmSim::new(2, 2, 2, StmConfig::default())
            .seed(min_seed)
            .jitter(3)
            .trace(200_000)
            .faults(min_plan.clone());
        let report = sim.run(BusModel::for_procs(2), |p, ops| {
            let mut jrn = storage.handle().flush_cost(FLUSH_COST);
            move |mut port: SimPort| {
                for _ in 0..5 {
                    durable_add(&ops, &mut port, &mut jrn, &[p], &[1]);
                }
            }
        });
        let decode = StmSim::new(2, 2, 2, StmConfig::default());
        check_recovery_matches_live(&decode, &report, &storage, "control");
    }

    // Render the counterexample the way a human would receive it.
    let config = StmConfig { sabotage: Sabotage::JournalAfterInstall, ..Default::default() };
    let storage = DurableMem::new();
    let sim = StmSim::new(2, 2, 2, config)
        .seed(min_seed)
        .jitter(3)
        .trace(200_000)
        .faults(min_plan.clone());
    let report = sim.run(BusModel::for_procs(2), |p, ops| {
        let mut jrn = storage.handle().flush_cost(FLUSH_COST);
        move |mut port: SimPort| {
            for _ in 0..5 {
                durable_add(&ops, &mut port, &mut jrn, &[p], &[1]);
            }
        }
    });
    let dump = render_trace(&report.trace, 60, report.trace_dropped);
    println!("minimal reproducer: seed {min_seed}, plan [{min_plan}]");
    println!("{dump}");
    assert!(dump.contains("step "), "dump must show protocol steps:\n{dump}");
}

// ---------------------------------------------------------------------------
// CRC corruption property
// ---------------------------------------------------------------------------

proptest! {
    /// Flipping any single bit anywhere in a journal makes the scanner stop
    /// exactly at the record containing the flip: every record before it is
    /// recovered verbatim, and nothing at or after it is — a corrupted
    /// stream never replays a damaged or fabricated record.
    #[test]
    fn single_bit_corruption_discards_exactly_the_tail(
        recs in pvec(
            (0usize..8, 1u64..1000, pvec((0usize..64, any::<u16>(), any::<u32>(), any::<u32>()), 1..4)),
            1..5,
        ),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for (owner, version, cells) in &recs {
            let idx: Vec<usize> = cells.iter().map(|c| c.0).collect();
            let pre: Vec<Word> =
                cells.iter().map(|&(_, stamp, old, _)| pack_cell(stamp, old)).collect();
            let new: Vec<u32> = cells.iter().map(|c| c.3).collect();
            stm_core::durable::encode_record(
                &RedoRecord { owner: *owner, version: *version, cells: &idx, pre: &pre, new: &new },
                &mut bytes,
            );
            ends.push(bytes.len());
        }
        let intact = scan_journal(&bytes);
        prop_assert_eq!(intact.records.len(), recs.len());
        prop_assert_eq!(intact.tail_discarded, 0);

        let at = (pos % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 1 << bit;
        // The record containing the flipped byte, and everything after it,
        // must be discarded; everything before it survives verbatim.
        let intact_prefix = ends.iter().filter(|&&end| end <= at).count();
        let scan = scan_journal(&corrupt);
        prop_assert_eq!(scan.records.len(), intact_prefix);
        prop_assert_eq!(&scan.records[..], &intact.records[..intact_prefix]);
        prop_assert_eq!(
            scan.tail_discarded,
            corrupt.len() - ends.get(intact_prefix.wrapping_sub(1)).copied().unwrap_or(0)
        );
    }
}
