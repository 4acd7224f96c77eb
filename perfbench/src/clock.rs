//! A cheap monotonic tick source for per-operation timing.
//!
//! On x86-64 the time-stamp counter is read directly (a few nanoseconds per
//! read, against ~20 ns for `Instant::now`), which keeps the latency
//! histograms and the phase ledger from inflating the operations they time.
//! Ticks are converted to nanoseconds with a rate calibrated against
//! `Instant` once per process.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NS_PER_TICK: OnceLock<f64> = OnceLock::new();

/// The current tick count.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; it only reads a counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, calibrated on first use (about 40 ms).
pub fn ns_per_tick() -> f64 {
    *NS_PER_TICK.get_or_init(|| {
        let _ = EPOCH.get_or_init(Instant::now);
        let mut rates = Vec::with_capacity(3);
        for _ in 0..3 {
            let (i0, t0) = (Instant::now(), ticks());
            while i0.elapsed() < Duration::from_millis(12) {
                std::hint::spin_loop();
            }
            let (ns, dt) = (
                i0.elapsed().as_nanos() as f64,
                ticks().wrapping_sub(t0) as f64,
            );
            rates.push(ns / dt.max(1.0));
        }
        rates.sort_by(f64::total_cmp);
        rates[1]
    })
}

/// Convert a tick interval to nanoseconds.
pub fn to_ns(ticks: u64) -> f64 {
    ticks as f64 * ns_per_tick()
}

/// Convert a duration in seconds to ticks.
pub fn secs_to_ticks(secs: f64) -> u64 {
    (secs * 1e9 / ns_per_tick()) as u64
}
