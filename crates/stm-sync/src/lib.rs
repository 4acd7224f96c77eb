//! # stm-sync — the synchronization baselines of the Shavit–Touitou evaluation
//!
//! The paper compares its STM against the contemporary alternatives on every
//! benchmark; this crate implements those baselines from scratch, generic
//! over the same [`MemPort`](stm_core::machine::MemPort) machine abstraction
//! so they run both on the host and on the simulated bus/mesh machines:
//!
//! * [`TtasLock`] — test-and-test-and-set spin lock with exponential
//!   back-off (blocking).
//! * [`McsLock`] — MCS queue lock: local spinning, FIFO handoff (blocking,
//!   scalable).
//! * [`HerlihyObject`] — Herlihy's non-blocking small-object translation:
//!   whole-object copy + pointer CAS + back-off (the non-blocking method STM
//!   is measured against).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod herlihy;
pub mod mcs;
pub mod ttas;

pub use herlihy::{HerlihyHandle, HerlihyObject};
pub use mcs::McsLock;
pub use ttas::TtasLock;

#[cfg(test)]
mod sim_tests {
    use super::*;
    use stm_core::machine::MemPort;
    use stm_sim::arch::{BusModel, MeshModel};
    use stm_sim::engine::{SimConfig, SimPort, Simulation};

    /// All three baselines run a shared counter on the simulated bus machine
    /// and must produce exact counts under every seed tested.
    #[test]
    fn ttas_counter_on_simulated_bus() {
        for seed in 0..4 {
            let lock = TtasLock::new(0);
            let report = Simulation::new(
                SimConfig { n_words: 2, seed, jitter: 3, ..Default::default() },
                BusModel::for_procs(4),
            )
            .run(4, |_p| {
                move |mut port: SimPort| {
                    for _ in 0..50 {
                        lock.with(&mut port, |port| {
                            let v = port.read(1);
                            port.write(1, v + 1);
                        });
                    }
                }
            });
            assert_eq!(report.memory[1], 200, "seed {seed}");
            assert_eq!(report.memory[0], 0, "lock must end free");
        }
    }

    #[test]
    fn mcs_counter_on_simulated_bus() {
        const PROCS: usize = 6;
        for seed in 0..4 {
            let lock = McsLock::new(0, PROCS);
            let data = McsLock::words_needed(PROCS);
            let report = Simulation::new(
                SimConfig { n_words: data + 1, seed, jitter: 3, ..Default::default() },
                BusModel::for_procs(PROCS),
            )
            .run(PROCS, |_p| {
                move |mut port: SimPort| {
                    for _ in 0..30 {
                        lock.with(&mut port, |port| {
                            let v = port.read(data);
                            port.write(data, v + 1);
                        });
                    }
                }
            });
            assert_eq!(report.memory[data], (PROCS * 30) as u64, "seed {seed}");
            assert_eq!(report.memory[0], 0, "queue must end empty");
        }
    }

    #[test]
    fn herlihy_counter_on_simulated_mesh() {
        const PROCS: usize = 4;
        for seed in 0..4 {
            let obj = HerlihyObject::new(0, 2, PROCS);
            let report = Simulation::new(
                SimConfig {
                    n_words: HerlihyObject::words_needed(2, PROCS),
                    seed,
                    jitter: 3,
                    init: vec![(0, 1 << 16)], // version 1, buffer 0 current
                    ..Default::default()
                },
                MeshModel::for_procs(PROCS),
            )
            .run(PROCS, |_p| {
                move |mut port: SimPort| {
                    let mut h = obj.handle(&port);
                    for _ in 0..30 {
                        h.update(&mut port, |o| {
                            assert_eq!(o[0], o[1], "torn object state observed");
                            o[0] += 1;
                            o[1] += 1;
                        });
                    }
                }
            });
            // Decode the final object straight out of the memory image.
            let cur = (report.memory[0] & 0xFFFF) as usize;
            let val = report.memory[1 + cur * 2];
            assert_eq!(val, (PROCS * 30) as u64, "seed {seed}");
        }
    }

    /// Herlihy's method is non-blocking: a crashed processor mid-update
    /// cannot stop the others (it never holds a lock).
    #[test]
    fn herlihy_survives_a_crashed_processor() {
        const PROCS: usize = 3;
        let obj = HerlihyObject::new(0, 1, PROCS);
        let report = Simulation::new(
            SimConfig {
                n_words: HerlihyObject::words_needed(1, PROCS),
                seed: 9,
                jitter: 2,
                init: vec![(0, 1 << 16)],
                ..Default::default()
            },
            BusModel::for_procs(PROCS),
        )
        .run(PROCS, |p| {
            move |mut port: SimPort| {
                let mut h = obj.handle(&port);
                if p == 0 {
                    h.update(&mut port, |o| o[0] += 1);
                    return; // crash after one op
                }
                for _ in 0..50 {
                    h.update(&mut port, |o| o[0] += 1);
                }
            }
        });
        let cur = (report.memory[0] & 0xFFFF) as usize;
        assert_eq!(report.memory[1 + cur], 101);
    }
}
