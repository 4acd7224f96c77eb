//! API tests for `Stm::run_in`, the per-call-resolution hot path: it must
//! reject every malformed spec exactly as the reference `Stm::run` does,
//! and leave in the caller's scratch the same old values and stamps that
//! `run` returns.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stm_core::machine::host::HostMachine;
use stm_core::ops::StmOps;
use stm_core::stm::{StmConfig, TxOptions, TxScratch, TxSpec};
use stm_core::word::Word;

const N_CELLS: usize = 16;
const MAX_LOCS: usize = 4;

fn setup() -> (StmOps, HostMachine) {
    let ops = StmOps::new(0, N_CELLS, 1, MAX_LOCS, StmConfig::default());
    let m = HostMachine::new(ops.stm().layout().words_needed(), 1);
    (ops, m)
}

/// The panic message of `f`, or `None` if it returned normally.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}

/// Run `spec` through both entry points on fresh instances and return the
/// two panic messages.
fn both_panics(
    spec_of: impl Fn(&StmOps) -> (stm_core::program::OpCode, Vec<Word>, Vec<usize>),
) -> (String, String) {
    let run = {
        let (ops, m) = setup();
        let (op, params, cells) = spec_of(&ops);
        let mut port = m.port(0);
        panic_message(|| {
            let _ = ops.stm().run(
                &mut port,
                &TxSpec::new(op, &params, &cells),
                &mut TxOptions::new(),
            );
        })
    };
    let run_in = {
        let (ops, m) = setup();
        let (op, params, cells) = spec_of(&ops);
        let mut port = m.port(0);
        let mut scratch = TxScratch::new();
        panic_message(|| {
            let _ = ops.stm().run_in(
                &mut port,
                &TxSpec::new(op, &params, &cells),
                &mut TxOptions::new(),
                &mut scratch,
            );
        })
    };
    (
        run.expect("run must reject the spec"),
        run_in.expect("run_in must reject the spec"),
    )
}

fn assert_same_panic(
    expected: &str,
    spec_of: impl Fn(&StmOps) -> (stm_core::program::OpCode, Vec<Word>, Vec<usize>),
) {
    let (run, run_in) = both_panics(spec_of);
    assert!(
        run.contains(expected),
        "run panicked with {run:?}, expected {expected:?}"
    );
    assert_eq!(run_in, run, "run_in must panic exactly like run");
}

#[test]
fn empty_data_set_panics_like_run() {
    assert_same_panic("empty data set", |ops| {
        (ops.builtins().read, vec![], vec![])
    });
}

#[test]
fn oversized_data_set_panics_like_run() {
    assert_same_panic("data set of 5 exceeds max_locs 4", |ops| {
        (ops.builtins().read, vec![], vec![0, 1, 2, 3, 4])
    });
}

#[test]
fn too_many_parameters_panic_like_run() {
    assert_same_panic("too many parameter words", |ops| {
        (ops.builtins().add, vec![1; 9], vec![0])
    });
}

#[test]
fn out_of_range_cell_panics_like_run() {
    for cells in [vec![N_CELLS], vec![0, N_CELLS + 3], vec![5, 2, usize::MAX]] {
        let bad = *cells.iter().find(|&&c| c >= N_CELLS).unwrap();
        assert_same_panic(&format!("cell index {bad} out of range"), move |ops| {
            (ops.builtins().read, vec![], cells.clone())
        });
    }
}

#[test]
fn duplicate_cell_panics_like_run_in_any_order() {
    for cells in [
        vec![7, 7],
        vec![1, 0, 1],
        vec![2, 9, 4, 9],
        vec![3, 5, 6, 3],
        vec![8, 8, 1],
    ] {
        assert_same_panic("duplicate cell", move |ops| {
            (ops.builtins().read, vec![], cells.clone())
        });
    }
    let (run, _) = both_panics(|ops| (ops.builtins().read, vec![], vec![3, 5, 3]));
    assert_eq!(run, "duplicate cell 3 in data set");
}

#[test]
fn foreign_opcode_panics_like_run() {
    // An opcode registered only in a larger table is out of range in ours.
    let (other, foreign) =
        StmOps::with_programs(0, N_CELLS, 1, MAX_LOCS, StmConfig::default(), |b| {
            b.register("test.noop", |_: &[Word], old: &[u32], new: &mut [u32]| {
                new.copy_from_slice(old)
            })
        });
    drop(other);
    assert_same_panic("opcode not registered", move |_| (foreign, vec![], vec![0]));
}

#[test]
fn run_in_leaves_run_outcome_in_scratch() {
    // The same transaction sequence through `run` on one machine and
    // `run_in` on another: every commit's old values and stamps, and the
    // final memory, agree. Data sets of 1..=4 cells cover every kernel.
    let (ops_a, m_a) = setup();
    let (ops_b, m_b) = setup();
    let (mut pa, mut pb) = (m_a.port(0), m_b.port(0));
    let mut scratch = TxScratch::new();
    let add = ops_a.builtins().add;
    let shapes: [&[usize]; 6] = [&[3], &[9, 1], &[4, 0, 12], &[15, 2, 7, 5], &[1, 9], &[5, 3]];
    for round in 0..3u64 {
        for (i, cells) in shapes.iter().enumerate() {
            let params: Vec<Word> = (0..cells.len())
                .map(|j| round * 10 + (i + j) as Word)
                .collect();
            let spec = TxSpec::new(add, &params, cells);
            let out = ops_a
                .stm()
                .run(&mut pa, &spec, &mut TxOptions::new())
                .unwrap();
            let stats = ops_b
                .stm()
                .run_in(&mut pb, &spec, &mut TxOptions::new(), &mut scratch)
                .unwrap();
            assert_eq!(
                scratch.old(),
                &out.old[..],
                "round {round}, cells {cells:?}"
            );
            assert_eq!(
                scratch.old_stamps(),
                &out.old_stamps[..],
                "round {round}, cells {cells:?}"
            );
            assert_eq!(stats, out.stats);
        }
    }
    let all: Vec<usize> = (0..N_CELLS).collect();
    for chunk in all.chunks(MAX_LOCS) {
        assert_eq!(
            ops_a.snapshot(&mut pa, chunk),
            ops_b.snapshot(&mut pb, chunk)
        );
    }
}
