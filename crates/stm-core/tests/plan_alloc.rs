//! Certifies the static write path is allocation-free on fresh data sets:
//! once the scratch is warm, neither `Stm::run_in` nor the `StmOps` entry
//! points perform a single heap allocation per call — even when every call
//! names a data set no earlier call used, as the KV service's puts and
//! deletes do.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The count is
//! kept **per thread** (const-initialized TLS, so reading it never allocates)
//! because the libtest harness's own threads may allocate concurrently;
//! only what the measuring thread itself allocates is attributable to the
//! transaction path under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stm_core::machine::host::HostMachine;
use stm_core::ops::StmOps;
use stm_core::stm::{StmConfig, TxOptions, TxScratch, TxSpec};
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

/// Cells in the test instance: enough that consecutive data sets share no
/// shape.
const N_CELLS: usize = 4096;

/// The KV service's data-set sizes: 2-cell value updates, 4-cell
/// mid-chain unlinks, 5-cell inserts.
const SIZES: [usize; 3] = [2, 4, 5];

/// Fill `out` with `out.len()` distinct cells derived from `i`, in no
/// particular order (a stride walk from a hashed start, never repeating
/// within one data set). Allocation-free.
fn data_set(i: u64, out: &mut [usize]) {
    let start = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % N_CELLS;
    let stride = 1 + (i as usize % 97);
    for (j, c) in out.iter_mut().enumerate() {
        // Alternate sides of the start so program order is not ascending.
        let off = if j % 2 == 0 {
            j * stride
        } else {
            N_CELLS - j * stride
        };
        *c = (start + off) % N_CELLS;
    }
}

#[test]
fn fresh_data_sets_allocate_nothing_once_warm() {
    const ITERS: u64 = 1_000;
    let ops = StmOps::new(0, N_CELLS, 1, 8, StmConfig::default());
    let m = HostMachine::new(ops.stm().layout().words_needed(), 1);
    let mut port = m.port(0);
    let add = ops.builtins().add;
    let params = [1u64; 5];
    let mut scratch = TxScratch::new();
    let mut cells = [0usize; 5];

    // Warm both scratches (the caller's and the thread-local one behind the
    // `StmOps` entry points) with one call each.
    let warm = &mut cells[..2];
    data_set(u64::MAX, warm);
    ops.stm()
        .run_in(
            &mut port,
            &TxSpec::new(add, &params[..2], warm),
            &mut TxOptions::new(),
            &mut scratch,
        )
        .unwrap();
    ops.run_planned(&mut port, add, &params[..2], warm, |_| ());

    // Measure: every call names a data set not seen before.
    let mut calls = 0u64;
    let before = allocs();
    for i in 0..ITERS {
        for (s, &k) in SIZES.iter().enumerate() {
            let set = &mut cells[..k];
            data_set(2 * (i * SIZES.len() as u64 + s as u64), set);
            ops.stm()
                .run_in(
                    &mut port,
                    &TxSpec::new(add, &params[..k], set),
                    &mut TxOptions::new(),
                    &mut scratch,
                )
                .unwrap();
            data_set(2 * (i * SIZES.len() as u64 + s as u64) + 1, set);
            ops.run_planned(&mut port, add, &params[..k], set, |_| ());
            calls += 2;
        }
        ops.fetch_add(&mut port, (i as usize) % N_CELLS, 1);
        calls += 1;
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warm per-call resolution must be allocation-free \
         ({} allocations over {calls} transactions)",
        after - before,
    );

    // Sanity: the workload really ran — every call added 1 to each of its
    // cells, so the cells sum to the total data-set size.
    let mut sum = 0u64;
    for chunk in (0..N_CELLS).collect::<Vec<_>>().chunks(8) {
        sum += ops
            .snapshot(&mut port, chunk)
            .iter()
            .map(|&v| u64::from(v))
            .sum::<u64>();
    }
    let per_iter: u64 = SIZES.iter().map(|&k| 2 * k as u64).sum::<u64>() + 1;
    assert_eq!(
        sum,
        ITERS * per_iter + 2 * 2,
        "the two warm-up calls add 2 each"
    );
}
