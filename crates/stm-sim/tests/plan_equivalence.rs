//! Property test: the `run_planned`/`run_in` hot path is *trace-equivalent*
//! to the general-sweep reference `Stm::run` under deterministic simulation.
//!
//! The small-k MWCAS kernels (`Kernel::K1/K2/K4`) are monomorphized copies
//! of the general sweep built from the same per-cell primitives, so they
//! must issue the **identical sequence** of simulated memory operations and
//! protocol step announcements — same addresses, same order, same cycle
//! costs — as `Stm::run` does for the same workload. This pins the hard
//! constraint on the hot path: running it on the small-k kernels cannot
//! perturb a single simulated schedule.

use proptest::prelude::*;
use stm_core::ops::StmOps;
use stm_core::stm::{StmConfig, TxOptions, TxSpec};
use stm_core::word::Word;
use stm_sim::arch::{BusModel, MeshModel};
use stm_sim::engine::{SimPort, SimReport};
use stm_sim::harness::StmSim;

const N_PROCS: usize = 3;
const N_CELLS: usize = 6;
const TRACE_LIMIT: usize = 400_000;

/// One generated transaction: a non-empty set of distinct cells (from a
/// 6-bit mask, truncated to 4 so every kernel tier is exercised) and a
/// per-cell delta.
fn decode(mask: u8, delta: u32) -> (Vec<usize>, Vec<Word>) {
    let cells: Vec<usize> = (0..N_CELLS).filter(|c| mask & (1 << c) != 0).take(4).collect();
    let params = vec![delta as Word; cells.len()];
    (cells, params)
}

/// Run the generated workload with every processor executing the whole
/// transaction list; `planned` selects the `run_planned` hot path or the
/// `Stm::run` reference.
fn run_workload(txs: &[(u8, u32)], seed: u64, jitter: u64, mesh: bool, planned: bool) -> SimReport {
    let sim = StmSim::new(N_PROCS, N_CELLS, 8, StmConfig::default())
        .seed(seed)
        .jitter(jitter)
        .trace(TRACE_LIMIT);
    let body = |_p: usize, ops: StmOps| {
        let txs = txs.to_vec();
        move |mut port: SimPort| {
            let add = ops.builtins().add;
            for &(mask, delta) in &txs {
                let (cells, params) = decode(mask, delta);
                if planned {
                    ops.run_planned(&mut port, add, &params, &cells, |_| ());
                } else {
                    let _ = ops
                        .run(&mut port, &TxSpec::new(add, &params, &cells), &mut TxOptions::new())
                        .expect("unlimited budget cannot be exhausted");
                }
            }
        }
    };
    if mesh {
        sim.run(MeshModel::for_procs(N_PROCS), body)
    } else {
        sim.run(BusModel::for_procs(N_PROCS), body)
    }
}

fn assert_equivalent(txs: &[(u8, u32)], seed: u64, jitter: u64, mesh: bool) {
    let interpreted = run_workload(txs, seed, jitter, mesh, false);
    let planned = run_workload(txs, seed, jitter, mesh, true);
    assert_eq!(interpreted.trace_dropped, 0, "trace overflow invalidates the comparison");
    assert_eq!(planned.trace_dropped, 0, "trace overflow invalidates the comparison");
    assert_eq!(
        interpreted.cycles, planned.cycles,
        "the hot path must not change simulated time (mesh={mesh})"
    );
    assert_eq!(
        interpreted.memory, planned.memory,
        "the hot path must not change final memory (mesh={mesh})"
    );
    // The strongest form: every memory operation, delay, and protocol step,
    // at the same virtual time, from the same processor.
    assert_eq!(
        interpreted.trace, planned.trace,
        "the hot path must replay the reference step trace exactly (mesh={mesh})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bus_schedules_are_bit_identical(
        txs in proptest::collection::vec((1u8..64, 1u32..100), 2..6),
        seed in 0u64..500,
        jitter in 0u64..4,
    ) {
        assert_equivalent(&txs, seed, jitter, false);
    }

    #[test]
    fn mesh_schedules_are_bit_identical(
        txs in proptest::collection::vec((1u8..64, 1u32..100), 2..6),
        seed in 0u64..500,
        jitter in 0u64..4,
    ) {
        assert_equivalent(&txs, seed, jitter, true);
    }
}

#[test]
fn kernel_ladder_is_bit_identical_on_both_models() {
    // Deterministic witness per kernel tier: k = 1 (K1), 2 (K2), 3
    // (general), 4 (K4) — one mask each, under contention from all
    // processors running the same list.
    let txs = [(0b000001u8, 3u32), (0b000101, 5), (0b101001, 7), (0b101101, 11)];
    for mesh in [false, true] {
        assert_equivalent(&txs, 42, 2, mesh);
    }
}

#[test]
fn final_values_match_the_workload_sum() {
    // Cross-check the harness itself: the planned run's committed deltas
    // add up exactly (every proc applies every tx once).
    let txs = [(0b000011u8, 2u32), (0b110000, 9)];
    let report = run_workload(&txs, 7, 1, false, true);
    let mut expected = vec![0u32; N_CELLS];
    for &(mask, delta) in &txs {
        let (cells, _) = decode(mask, delta);
        for c in cells {
            expected[c] += delta * N_PROCS as u32;
        }
    }
    // A same-shape harness decodes the final memory (layouts are identical).
    let sim = StmSim::new(N_PROCS, N_CELLS, 8, StmConfig::default());
    assert_eq!(sim.all_cells(&report), expected);
}
