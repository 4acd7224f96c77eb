//! Certifies that simulated processors sharing one host thread keep the
//! static write path allocation-free: 8 processors interleave
//! `StmOps::run_planned` calls (through `fetch_add` and `fetch_add_many`)
//! on the engine's thread, each holding its own pooled scratch across its
//! memory operations, and once the thread's pool is warm not one of those
//! calls allocates.
//!
//! A counting `#[global_allocator]` keeps a per-thread count, so only what
//! the simulation's own thread allocates is attributed to it. The machine
//! is the uniform model: the Bus and Mesh models grow their line tables as
//! new addresses are touched, which is the model's cost, not the path's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use stm_core::stm::StmConfig;
use stm_sim::arch::UniformModel;
use stm_sim::engine::SimPort;
use stm_sim::harness::StmSim;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: TLS may be mid-teardown when a destructor allocates.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter has no safety role.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

const PROCS: usize = 8;
const CELLS: usize = 16;

/// Run 8 contending processors; returns the allocations made while some
/// processor was inside a `run_planned` call, and the final cell sum.
fn run_once(sim: &StmSim) -> (u64, u64) {
    let during = AtomicU64::new(0);
    let report = sim.run(UniformModel::new(1, 10), |p, ops| {
        let during = &during;
        move |mut port: SimPort| {
            let mut cells = [0; 2];
            for i in 0..40 {
                let a = (p * 3 + i) % CELLS;
                let before = allocs();
                if i % 2 == 0 {
                    ops.fetch_add(&mut port, a, 1);
                } else {
                    cells[0] = a.min((a + 5) % CELLS);
                    cells[1] = a.max((a + 5) % CELLS);
                    // Straight through `run_planned`: `fetch_add_many` would
                    // build its parameter `Vec` on every call.
                    ops.run_planned(&mut port, ops.builtins().add, &[1, 1], &cells, |_| ());
                }
                during.fetch_add(allocs() - before, Ordering::Relaxed);
            }
        }
    });
    let sum = sim.all_cells(&report).iter().map(|&v| u64::from(v)).sum();
    (during.into_inner(), sum)
}

#[test]
fn eight_interleaved_processors_allocate_nothing_once_warm() {
    let sim = StmSim::new(PROCS, CELLS, 2, StmConfig::default()).seed(7).jitter(3);
    // The first run warms the thread's scratch pool: one scratch per
    // processor that is inside a transaction at the same time.
    let (_, sum) = run_once(&sim);
    assert_eq!(sum, (PROCS * (20 + 2 * 20)) as u64);
    let (during, sum) = run_once(&sim);
    assert_eq!(sum, (PROCS * (20 + 2 * 20)) as u64);
    assert_eq!(during, 0, "warm run_planned calls allocated {during} times");
}

