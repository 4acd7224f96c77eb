//! Pins the engine's complete observable output.
//!
//! Every scenario below runs on the Uniform, Bus and Mesh models for each
//! seed in `0..FAULT_MATRIX_SEEDS` (default 10). Each run is reduced to one
//! digest line: simulated cycles, a hash of final memory, a hash of the
//! statistics, a hash of the full trace, the violation, and the crashed
//! processors. The lines for the default seed count are pinned in
//! `engine_digests.txt`; any change to grant order, memory effects, timing,
//! fault delivery, park/notify or halting semantics changes some line.
//! Seeds past the pinned range are checked for run-to-run determinism only.
//!
//! The scenarios cover plain contention, jitter, crash/stall/slow faults,
//! park/notify blocking, the watchdog, a retry deadlock, and a workload
//! panic (whose digest is the panic message plus what the surviving
//! processors observed, since a panicking run returns no report).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use stm_core::machine::MemPort;
use stm_core::step::StepKind;
use stm_core::stm::StmConfig;
use stm_sim::arch::{BusModel, MeshModel, UniformModel};
use stm_sim::engine::{SimConfig, SimPort, SimReport, Simulation};
use stm_sim::faults::FaultPlan;
use stm_sim::harness::StmSim;

const PINNED_SEEDS: u64 = 10;
const N_PROCS: usize = 4;
const TRACE_LIMIT: usize = 1 << 20;

fn seeds() -> u64 {
    std::env::var("FAULT_MATRIX_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(PINNED_SEEDS)
}

#[derive(Clone, Copy, Debug)]
enum Model {
    Uniform,
    Bus,
    Mesh,
}

const MODELS: [Model; 3] = [Model::Uniform, Model::Bus, Model::Mesh];

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Uniform => "uniform",
            Model::Bus => "bus",
            Model::Mesh => "mesh",
        }
    }
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn digest(r: &SimReport) -> String {
    let mem: Vec<u8> = r.memory.iter().flat_map(|w| w.to_le_bytes()).collect();
    format!(
        "cycles={} mem={:016x} stats={:016x} trace={:016x}/{} dropped={} violation={:?} crashed={:?}",
        r.cycles,
        fnv(&mem),
        fnv(format!("{:?}", r.stats).as_bytes()),
        fnv(format!("{:?}", r.trace).as_bytes()),
        r.trace.len(),
        r.trace_dropped,
        r.violation,
        r.crashed,
    )
}

/// Run a raw simulation on `model`.
fn raw<F, B>(model: Model, config: SimConfig, make_body: F) -> SimReport
where
    F: FnMut(usize) -> B,
    B: FnOnce(SimPort) + Send,
{
    match model {
        Model::Uniform => Simulation::new(config, UniformModel::new(1, 10)).run(N_PROCS, make_body),
        Model::Bus => Simulation::new(config, BusModel::for_procs(N_PROCS)).run(N_PROCS, make_body),
        Model::Mesh => Simulation::new(config, MeshModel::for_procs(N_PROCS)).run(N_PROCS, make_body),
    }
}

/// Run an STM workload on `model`: every processor adds into a few shared
/// cells with single- and multi-cell transactions.
fn stm_counters(model: Model, sim: StmSim, seed: u64) -> SimReport {
    let body = move |p: usize, ops: stm_core::ops::StmOps| {
        move |mut port: SimPort| {
            for i in 0..12u64 {
                let a = ((p as u64 + i + seed) % 4) as usize;
                if i % 3 == 0 {
                    let b = (a + 1 + (i as usize % 3)) % 4;
                    let mut cells = [a.min(b), a.max(b)];
                    cells.sort_unstable();
                    ops.fetch_add_many(&mut port, &cells, &[1, 2]);
                } else {
                    ops.fetch_add(&mut port, a, 1);
                }
                if i % 4 == 1 {
                    let _ = ops.snapshot(&mut port, &[0, 1, 2, 3]);
                }
            }
        }
    };
    let sim = sim.trace(TRACE_LIMIT);
    match model {
        Model::Uniform => sim.run(UniformModel::new(1, 10), body),
        Model::Bus => sim.run(BusModel::for_procs(N_PROCS), body),
        Model::Mesh => sim.run(MeshModel::for_procs(N_PROCS), body),
    }
}

fn stm_sim() -> StmSim {
    StmSim::new(N_PROCS, 4, 4, StmConfig::default())
}

fn plain(model: Model, seed: u64) -> String {
    digest(&stm_counters(model, stm_sim().seed(seed), seed))
}

fn jitter(model: Model, seed: u64) -> String {
    digest(&stm_counters(model, stm_sim().seed(seed).jitter(1 + seed % 7), seed))
}

fn faults(model: Model, seed: u64) -> String {
    let victim = seed as usize % N_PROCS;
    let staller = (victim + 1) % N_PROCS;
    let slow = (victim + 2) % N_PROCS;
    let plan = FaultPlan::new()
        .crash_at_step(victim, StepKind::Acquired, Some(seed as usize % 2))
        .stall_at_step(staller, StepKind::Decided, None, 500 + 37 * seed)
        .slow_from_cycle(slow, 40 * seed, 3);
    digest(&stm_counters(model, stm_sim().seed(seed).jitter(3).faults(plan), seed))
}

/// Producer/consumer handoff through parked waiters: processor 0 fills a
/// slot, the others each wait for "their" value and acknowledge it.
fn blocking(model: Model, seed: u64) -> String {
    let config = SimConfig { n_words: 8, seed, jitter: 2, trace_limit: TRACE_LIMIT, ..Default::default() };
    digest(&raw(model, config, |p| {
        move |mut port: SimPort| {
            if p == 0 {
                for round in 1..=(N_PROCS as u64 - 1) * 3 {
                    port.delay(seed * 11 + round * 5);
                    port.write(0, round);
                    port.notify(0);
                    // Wait for the acknowledgement of this round.
                    loop {
                        let ack = port.read(1);
                        if ack == round {
                            break;
                        }
                        port.wait_on(&[(1, ack)], u64::MAX);
                    }
                }
            } else {
                let mine = |round: u64| (round - 1) % (N_PROCS as u64 - 1) + 1 == p as u64;
                let mut handled = 0;
                while handled < 3 {
                    let v = port.read(0);
                    if v != 0 && mine(v) && port.read(1) != v {
                        port.write(2 + p, v);
                        port.write(1, v);
                        port.notify(1);
                        handled += 1;
                    } else {
                        port.wait_on(&[(0, v)], u64::MAX);
                    }
                }
            }
        }
    }))
}

/// A livelocked CAS loop trips the watchdog while one sibling is parked and
/// another is parked after a long delay.
fn watchdog(model: Model, seed: u64) -> String {
    let config = SimConfig {
        n_words: 2,
        seed,
        jitter: 1,
        max_cycles: 3_000 + 100 * seed,
        trace_limit: TRACE_LIMIT,
        ..Default::default()
    };
    digest(&raw(model, config, |p| {
        move |mut port: SimPort| match p {
            0 => {
                let v = port.read(1);
                port.wait_on(&[(1, v)], u64::MAX);
            }
            1 => {
                port.delay(500 + 13 * seed);
                let v = port.read(1);
                port.wait_on(&[(1, v)], u64::MAX);
            }
            _ => loop {
                let v = port.read(0);
                let _ = port.compare_exchange(0, v, v + p as u64);
            },
        }
    }))
}

/// Every processor does some work, then parks on a word nobody writes.
fn retry_deadlock(model: Model, seed: u64) -> String {
    let config = SimConfig { n_words: 2, seed, jitter: 2, trace_limit: TRACE_LIMIT, ..Default::default() };
    digest(&raw(model, config, |p| {
        move |mut port: SimPort| {
            for _ in 0..(p as u64 + seed % 3) {
                let v = port.read(0);
                let _ = port.compare_exchange(0, v, v + 1);
            }
            let v = port.read(1);
            port.wait_on(&[(1, v)], u64::MAX);
            unreachable!("nobody writes word 1");
        }
    }))
}

/// One processor panics mid-run. The digest is the panic message plus what
/// each survivor saw: its final local time and the last counter value it
/// read.
fn workload_panic(model: Model, seed: u64) -> String {
    let seen = Arc::new(Mutex::new(vec![None; N_PROCS]));
    let config = SimConfig { n_words: 1, seed, jitter: 2, ..Default::default() };
    let victim = seed as usize % N_PROCS;
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        raw(model, config, |p| {
            let seen = Arc::clone(&seen);
            move |mut port: SimPort| {
                let mut last = 0;
                for i in 0..20u64 {
                    last = port.read(0);
                    let _ = port.compare_exchange(0, last, last + 1);
                    if p == victim && i == 3 + seed % 5 {
                        panic!("workload panic on P{p} at value {last}");
                    }
                }
                seen.lock().unwrap()[p] = Some((port.now(), last));
            }
        })
    }));
    let payload = result.expect_err("the victim's panic propagates out of the run");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    format!("panic={msg:?} survivors={:?}", seen.lock().unwrap())
}

type Scenario = fn(Model, u64) -> String;

const SCENARIOS: [(&str, Scenario); 7] = [
    ("plain", plain),
    ("jitter", jitter),
    ("faults", faults),
    ("blocking", blocking),
    ("watchdog", watchdog),
    ("retry-deadlock", retry_deadlock),
    ("workload-panic", workload_panic),
];

#[test]
fn every_report_matches_its_pinned_digest() {
    let pinned: HashMap<&str, &str> = include_str!("engine_digests.txt")
        .lines()
        .filter_map(|l| l.rsplit_once(" | "))
        .collect();
    let (mut table, mut mismatches) = (String::new(), Vec::new());
    for (name, scenario) in SCENARIOS {
        for model in MODELS {
            for seed in 0..seeds() {
                let key = format!("{name} {} {seed}", model.name());
                let got = scenario(model, seed);
                if seed >= PINNED_SEEDS {
                    assert_eq!(got, scenario(model, seed), "{key}: unpinned seed is not deterministic");
                    continue;
                }
                writeln!(table, "{key} | {got}").unwrap();
                if pinned.get(key.as_str()) != Some(&got.as_str()) {
                    mismatches.push(format!("{key}\n  pinned {:?}\n  actual {got}", pinned.get(key.as_str())));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} digests differ from engine_digests.txt:\n{}\n\nfull table:\n{table}",
        mismatches.len(),
        mismatches.join("\n"),
    );
}
