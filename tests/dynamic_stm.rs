//! The dynamic-transaction extension under concurrency, on both machines,
//! including interoperation with static transactions on the same cells.

use stm_core::dynamic::DynamicStm;
use stm_core::machine::host::HostMachine;
use stm_core::stm::{StmConfig, TxOptions};
use stm_sim::arch::{BusModel, MeshModel};
use stm_sim::engine::{SimConfig, SimPort, Simulation};
use stm_sim::explore::sweep;

fn make_sim_config(d: &DynamicStm, seed: u64, init: &[(usize, u32)]) -> SimConfig {
    let l = d.stm().layout();
    SimConfig {
        n_words: l.words_needed(),
        seed,
        jitter: 4,
        init: init.iter().map(|&(c, v)| (l.cell(c), stm_core::word::pack_cell(0, v))).collect(),
        ..Default::default()
    }
}

#[test]
fn dynamic_counters_exact_across_schedules() {
    const PROCS: usize = 4;
    const PER: u32 = 15;
    let d = DynamicStm::new(0, 4, PROCS, StmConfig::default());
    sweep(
        8,
        |seed| {
            let d = d.clone();
            Simulation::new(make_sim_config(&d, seed, &[]), BusModel::for_procs(PROCS)).run(
                PROCS,
                |p| {
                    let d = d.clone();
                    move |mut port: SimPort| {
                        for i in 0..PER {
                            d.run(
                                &mut port,
                                |tx| {
                                    let c = (p + i as usize) % 2;
                                    let v = tx.read(c);
                                    tx.write(c, v + 1);
                                },
                                &mut TxOptions::new(),
                            )
                            .unwrap();
                        }
                    }
                },
            )
        },
        |seed, report| {
            let l = d.stm().layout();
            let total: u32 = (0..2)
                .map(|c| stm_core::word::cell_value(report.memory[l.cell(c)]))
                .sum();
            assert_eq!(total, PROCS as u32 * PER, "seed {seed}");
        },
    );
}

#[test]
fn dynamic_pointer_chase_conserves_on_mesh() {
    // Cells 0..3: ring of next-pointers; cells 4..8: balances. Transactions
    // discover their accounts by chasing pointers (data-dependent data set).
    const PROCS: usize = 4;
    let d = DynamicStm::new(0, 8, PROCS, StmConfig::default());
    let init = [(0usize, 1u32), (1, 2), (2, 3), (3, 0), (4, 25), (5, 25), (6, 25), (7, 25)];
    sweep(
        6,
        |seed| {
            let d = d.clone();
            Simulation::new(make_sim_config(&d, seed, &init), MeshModel::for_procs(PROCS)).run(
                PROCS,
                |p| {
                    let d = d.clone();
                    move |mut port: SimPort| {
                        for i in 0..12 {
                            d.run(
                                &mut port,
                                |tx| {
                                    let start = (p + i) % 4;
                                    let a = tx.read(start) as usize % 4;
                                    let b = tx.read(a) as usize % 4;
                                    if a == b {
                                        return;
                                    }
                                    let va = tx.read(4 + a);
                                    if va > 0 {
                                        let vb = tx.read(4 + b);
                                        tx.write(4 + a, va - 1);
                                        tx.write(4 + b, vb + 1);
                                    }
                                },
                                &mut TxOptions::new(),
                            )
                            .unwrap();
                        }
                    }
                },
            )
        },
        |seed, report| {
            let l = d.stm().layout();
            let total: u32 = (4..8)
                .map(|c| stm_core::word::cell_value(report.memory[l.cell(c)]))
                .sum();
            assert_eq!(total, 100, "seed {seed}: balance not conserved");
        },
    );
}

#[test]
fn dynamic_and_static_transactions_interoperate_on_host() {
    // Half the threads use dynamic transactions, half use static ones, all
    // incrementing the same pair of cells in lockstep.
    const PROCS: usize = 4;
    const PER: u32 = 400;
    let d = DynamicStm::new(0, 2, PROCS, StmConfig::default());
    let machine = HostMachine::new(d.stm().layout().words_needed(), PROCS);
    std::thread::scope(|s| {
        for p in 0..PROCS {
            let d = d.clone();
            let machine = machine.clone();
            s.spawn(move || {
                let mut port = machine.port(p);
                for _ in 0..PER {
                    if p % 2 == 0 {
                        // NB: the body may transiently observe a != b (the
                        // optimistic reads are not mutually atomic); the
                        // commit-time validation rejects those attempts, so
                        // the committed effect is still a lockstep +1/+1.
                        d.run(
                            &mut port,
                            |tx| {
                                let a = tx.read(0);
                                let b = tx.read(1);
                                tx.write(0, a + 1);
                                tx.write(1, b + 1);
                            },
                            &mut TxOptions::new(),
                        )
                        .unwrap();
                    } else {
                        // Static 2-cell add through the same instance's
                        // underlying static STM (shared cells).
                        let cells = [0usize, 1];
                        let deltas = [1u32, 1];
                        let old = d.ops().fetch_add_many(&mut port, &cells, &deltas);
                        assert_eq!(old[0], old[1], "pair must advance in lockstep");
                    }
                }
            });
        }
    });
    let mut port = machine.port(0);
    assert_eq!(d.read_cell(&mut port, 0), PROCS as u32 * PER);
    assert_eq!(d.read_cell(&mut port, 1), PROCS as u32 * PER);
}

#[test]
fn wide_read_only_body_commits_through_the_acquiring_path() {
    // With the fast path disabled, a read-only body always commits through
    // the acquiring protocol. Its 16-cell footprint is twice the parameter
    // words a transaction may carry, so the commit must not need one per
    // cell. Meanwhile a writer moves value between the same cells: every
    // committed audit must see the conserved total.
    const CELLS: usize = 16;
    const TRANSFERS: u32 = 2_000;
    let config = StmConfig { fast_read_rounds: 0, ..StmConfig::default() };
    let d = DynamicStm::new(0, CELLS, 2, config);
    let m = HostMachine::new(d.stm().layout().words_needed(), 2);
    {
        let mut port = m.port(0);
        for c in 0..CELLS {
            d.init_cell(&mut port, c, 100);
        }
    }
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut port = m.port(1);
            for i in 0..TRANSFERS {
                let (from, to) = (i as usize % CELLS, (i as usize * 7 + 3) % CELLS);
                if from != to {
                    d.run(
                        &mut port,
                        |tx| {
                            let (a, b) = (tx.read(from), tx.read(to));
                            if a > 0 {
                                tx.write(from, a - 1);
                                tx.write(to, b + 1);
                            }
                        },
                        &mut TxOptions::new(),
                    )
                    .unwrap();
                }
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let mut port = m.port(0);
        let mut audits = 0u32;
        while audits < 50 || !done.load(std::sync::atomic::Ordering::SeqCst) {
            let audit = |tx: &mut stm_core::dynamic::DynamicTx<'_, _>| {
                (0..CELLS).map(|c| tx.read(c)).sum::<u32>()
            };
            let (total, stats) = d.run(&mut port, audit, &mut TxOptions::new()).unwrap();
            assert_eq!(total, 100 * CELLS as u32, "audit {audits} saw a torn total");
            assert!(stats.attempts >= 1);
            audits += 1;
        }
    });
    let mut port = m.port(0);
    let total: u32 = (0..CELLS).map(|c| d.read_cell(&mut port, c)).sum();
    assert_eq!(total, 100 * CELLS as u32);
}
