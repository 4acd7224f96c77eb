//! Process resource usage via `getrusage(2)`: peak RSS and CPU time split.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// A `cpu_set_t` (1024 CPUs).
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// A snapshot of this process's resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

/// Resource usage of the whole process so far.
pub fn usage() -> Usage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a properly sized, writable `struct rusage` on 64-bit
    // Linux, and RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&r.utime),
        sys_s: secs(&r.stime),
        peak_rss_mb: r.maxrss_kb as f64 / 1024.0,
    }
}

/// Restrict the calling thread, and every thread it spawns afterwards, to
/// the first CPU it is allowed to run on. Returns that CPU, or `None` if the
/// affinity calls failed (the thread then keeps its mask).
pub fn pin_to_first_cpu() -> Option<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a writable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| set.bits[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes naming a CPU the
    // thread was already allowed on; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
