//! The paper workload on the simulator: counting on the Bus machine and
//! resource allocation on the Mesh machine, both `Method::Stm` on 8
//! simulated processors with a fixed operation count.
//!
//! A processor whose resource acquisition finds a resource taken waits a
//! random time below a cap that doubles with each failure (from 16 to 4096
//! cycles), then retries. With a constant short wait, pollers' failed
//! acquisitions, which still take ownership of the cells they read, can fail
//! a holder's release on every attempt (the protocol is lock-free, not
//! starvation-free). A simulation that passes `CYCLE_BUDGET` is stopped by
//! the engine's watchdog and reported as a failure.

use std::sync::{Arc, Mutex};

use stm_core::machine::MemPort;
use stm_core::ops::StmOps;
use stm_core::step::StepPoint;
use stm_core::word::{Addr, Word};
use stm_sim::arch::{BusModel, CostModel, MeshModel, UniformModel};
use stm_sim::engine::{SimConfig, SimPort, Simulation};
use stm_structures::counter::Counter;
use stm_structures::resource::{ResourcePool, MAX_K};
use stm_structures::Method;

use crate::clock::ticks;
use crate::hist::Hist;
use crate::rng::{seeded, Draw, SplitMix64};
use crate::trace::{Phase, Probe, Region, TracePort, Tracer};

/// Simulated processors.
pub const PROCS: usize = 8;
/// Counting increments per processor.
const COUNT_OPS: u64 = 32;
/// Resource acquire/release rounds per processor.
const RESOURCE_OPS: u64 = 12;
/// Simulated cycles a run may take before the watchdog stops it: over 50
/// times what a run of either benchmark needs.
const CYCLE_BUDGET: u64 = 1 << 24;
/// Resources in the pool (one unit each), and resources per acquisition.
const RESOURCES: usize = 64;
const RESOURCE_K: usize = 3;

/// The two paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Shared-counter increments on the Bus machine.
    CountingBus,
    /// Resource allocation on the Mesh machine.
    ResourceMesh,
}

impl Bench {
    /// Both, in run order.
    pub const ALL: [Bench; 2] = [Bench::CountingBus, Bench::ResourceMesh];

    /// Name used in output.
    pub fn name(self) -> &'static str {
        match self {
            Bench::CountingBus => "counting-bus",
            Bench::ResourceMesh => "resource-mesh",
        }
    }

    /// Simulated operations per run.
    pub fn ops(self) -> u64 {
        PROCS as u64
            * match self {
                Bench::CountingBus => COUNT_OPS,
                Bench::ResourceMesh => RESOURCE_OPS,
            }
    }

    /// The STM layout the benchmark's structure builds (records give the
    /// ledger its phase boundaries).
    fn layout(self) -> stm_core::layout::StmLayout {
        let ops = match self {
            Bench::CountingBus => StmOps::new(0, 1, PROCS, 1, Default::default()),
            Bench::ResourceMesh => StmOps::new(0, RESOURCES, PROCS, MAX_K, Default::default()),
        };
        *ops.stm().layout()
    }
}

/// A run's set-up: the structures under test and each processor's seeded
/// resource sets.
pub struct Inputs {
    seed: u64,
    counter: Counter,
    pool: ResourcePool,
    sets: Vec<Vec<[usize; RESOURCE_K]>>,
}

/// Build the structures and generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let sets = (0..PROCS)
        .map(|p| {
            let mut rng = seeded(seed, 0x5E7 + p as u64);
            (0..RESOURCE_OPS)
                .map(|_| {
                    let v = rng.distinct(RESOURCE_K, RESOURCES as u64);
                    [v[0], v[1], v[2]]
                })
                .collect()
        })
        .collect();
    Inputs {
        seed,
        counter: Counter::new(Method::Stm, 0, PROCS),
        pool: ResourcePool::new(Method::Stm, 0, PROCS, RESOURCES),
        sets,
    }
}

/// A port that times every memory access it forwards: what one simulated
/// memory request costs the host while the engine schedules it.
pub struct LatencyPort<P> {
    inner: P,
    /// Read latencies in ticks.
    pub reads: Hist,
    /// Write and CAS latencies in ticks.
    pub writes: Hist,
}

impl<P: MemPort> Probe for LatencyPort<P> {}

impl<P: MemPort> MemPort for LatencyPort<P> {
    fn proc_id(&self) -> usize {
        self.inner.proc_id()
    }
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }
    fn read(&mut self, addr: Addr) -> Word {
        let t0 = ticks();
        let v = self.inner.read(addr);
        self.reads.record(ticks().wrapping_sub(t0));
        v
    }
    fn write(&mut self, addr: Addr, value: Word) {
        let t0 = ticks();
        self.inner.write(addr, value);
        self.writes.record(ticks().wrapping_sub(t0));
    }
    fn compare_exchange(&mut self, addr: Addr, expected: Word, new: Word) -> Result<(), Word> {
        let t0 = ticks();
        let r = self.inner.compare_exchange(addr, expected, new);
        self.writes.record(ticks().wrapping_sub(t0));
        r
    }
    fn delay(&mut self, cycles: u64) {
        self.inner.delay(cycles)
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn step(&mut self, point: StepPoint) {
        self.inner.step(point)
    }
    fn yield_now(&mut self) {
        self.inner.yield_now()
    }
    fn park_micros(&mut self, micros: u64) {
        self.inner.park_micros(micros)
    }
    fn wait_on(&mut self, watches: &[(Addr, Word)], max_park_micros: u64) {
        self.inner.wait_on(watches, max_park_micros)
    }
    fn notify(&mut self, addr: Addr) {
        self.inner.notify(addr)
    }
}

/// One simulation's outcome.
pub struct SimRun {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated operations completed.
    pub ops: u64,
    /// Simulated memory operations (reads + writes + CAS).
    pub memops: u64,
    /// Host wall time in seconds.
    pub wall_s: f64,
    /// Host latency of every simulated read, and of every write and CAS
    /// (untraced runs).
    pub latency: Option<(Hist, Hist)>,
    /// Every processor's ledger (traced runs).
    pub tracers: Vec<Tracer>,
    /// Correctness failures.
    pub failures: Vec<String>,
}

/// What one processor hands back. The port itself must be dropped inside
/// the processor's closure: the engine learns the processor finished when
/// its `SimPort` drops.
enum Collected {
    Timed(Hist, Hist),
    Traced(Box<Tracer>),
}

/// Run one benchmark; `traced` runs every processor behind a ledger
/// instead of a latency timer.
pub fn run(bench: Bench, inputs: &Inputs, traced: bool) -> SimRun {
    let layout = bench.layout();
    let (counter, pool) = (&inputs.counter, &inputs.pool);
    let (n_words, init, model): (usize, _, Box<dyn CostModel>) = match bench {
        Bench::CountingBus => (
            Counter::words_needed(Method::Stm, PROCS),
            counter.init_words(0),
            Box::new(BusModel::for_procs(PROCS)),
        ),
        Bench::ResourceMesh => (
            ResourcePool::words_needed(Method::Stm, PROCS, RESOURCES),
            pool.init_words(1),
            Box::new(MeshModel::for_procs(PROCS)),
        ),
    };
    let config = SimConfig {
        n_words,
        seed: inputs.seed,
        jitter: 2,
        max_cycles: CYCLE_BUDGET,
        init,
        ..Default::default()
    };
    let done: Arc<Mutex<Vec<Collected>>> = Arc::new(Mutex::new(Vec::new()));
    let started = std::time::Instant::now();
    let report = Simulation::new(config, DynModel(model)).run(PROCS, |p| {
        let (counter, pool, done) = (counter.clone(), pool.clone(), Arc::clone(&done));
        let sets = inputs.sets[p].clone();
        let wait = seeded(inputs.seed, 0xB0FF + p as u64);
        move |port: SimPort| {
            let collected = if traced {
                let tracer = Tracer::new(vec![Region::of(&layout, p)], 1, u64::MAX);
                let mut port = TracePort::new(port, tracer);
                body(bench, &mut port, &counter, &pool, &sets, wait.clone());
                Collected::Traced(Box::new(port.tracer))
            } else {
                let (reads, writes) = (Hist::default(), Hist::default());
                let mut port = LatencyPort {
                    inner: port,
                    reads,
                    writes,
                };
                body(bench, &mut port, &counter, &pool, &sets, wait.clone());
                Collected::Timed(port.reads, port.writes)
            };
            done.lock().expect("results lock").push(collected);
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = SimRun {
        cycles: report.cycles,
        ops: bench.ops(),
        memops: report.stats.total_ops(),
        wall_s,
        latency: None,
        tracers: Vec::new(),
        failures: Vec::new(),
    };
    for c in std::mem::take(&mut *done.lock().expect("results lock")) {
        match c {
            Collected::Timed(r, w) => match &mut out.latency {
                Some((reads, writes)) => {
                    reads.merge(&r);
                    writes.merge(&w);
                }
                None => out.latency = Some((r, w)),
            },
            Collected::Traced(tracer) => out.tracers.push(*tracer),
        }
    }
    if let Some(v) = report.violation {
        out.failures
            .push(format!("{}: violation {v:?}", bench.name()));
    }
    match bench {
        Bench::CountingBus => {
            let value = replay(&report.memory, |port| {
                counter.handle(port).read(port) as u64
            });
            if value != bench.ops() {
                out.failures
                    .push(format!("counter reads {value}, expected {}", bench.ops()));
            }
        }
        Bench::ResourceMesh => {
            let units = replay(&report.memory, |port| {
                pool.handle(port)
                    .read_all(port)
                    .iter()
                    .map(|&u| u64::from(u))
                    .sum()
            });
            if units != RESOURCES as u64 {
                out.failures
                    .push(format!("{units} resource units, expected {RESOURCES}"));
            }
        }
    }
    out
}

/// One processor's work; `wait` draws the randomized retry waits.
fn body<P: Probe>(
    bench: Bench,
    port: &mut P,
    counter: &Counter,
    pool: &ResourcePool,
    sets: &[[usize; RESOURCE_K]],
    mut wait: SplitMix64,
) {
    match bench {
        Bench::CountingBus => {
            let mut h = counter.handle(port);
            for _ in 0..COUNT_OPS {
                port.begin_op(0, Phase::Plan);
                h.increment(port);
                port.end_op();
            }
        }
        Bench::ResourceMesh => {
            let mut h = pool.handle(port);
            for set in sets {
                port.begin_op(0, Phase::Plan);
                let mut cap = 16;
                while !h.try_acquire(port, set) {
                    port.delay(1 + wait.below(cap));
                    cap = (cap * 2).min(4096);
                }
                h.release(port, set);
                port.end_op();
            }
        }
    }
}

/// Read a final memory image back through a structure on a fresh
/// one-processor simulation.
fn replay(memory: &[Word], read: impl Fn(&mut SimPort) -> u64 + Send + Sync) -> u64 {
    let config = SimConfig {
        n_words: memory.len(),
        init: memory.iter().copied().enumerate().collect(),
        ..Default::default()
    };
    let out = Mutex::new(0);
    Simulation::new(config, UniformModel::new(1, 1)).run(1, |_| {
        let (read, out) = (&read, &out);
        move |mut port: SimPort| *out.lock().expect("replay lock") = read(&mut port)
    });
    out.into_inner().expect("replay lock")
}

/// A boxed cost model as a sized one.
struct DynModel(Box<dyn CostModel>);

impl CostModel for DynModel {
    fn access(&mut self, t: u64, proc: usize, kind: stm_sim::arch::OpKind, addr: usize) -> u64 {
        self.0.access(t, proc, kind, addr)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}
