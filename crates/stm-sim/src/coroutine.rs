//! Stackful coroutines for the simulation engine.
//!
//! Each simulated processor runs on its own [`Stack`]: an anonymous mapping
//! of [`STACK_SIZE`] bytes with one `PROT_NONE` guard page below it, so an
//! overflow faults instead of silently corrupting a neighbour. A
//! [`Context`] is a saved stack pointer; [`Context::switch`] saves the
//! callee-saved registers of the running code on its own stack, stores the
//! stack pointer, and resumes another context. That is the whole
//! scheduler primitive — no kernel involvement, a few nanoseconds a switch.
//!
//! A run hands its stacks back to a per-thread spare list when it ends, so
//! the next run on the thread neither maps them again nor faults their
//! pages in again.
//!
//! Under ThreadSanitizer (`--cfg stm_tsan`, set by the build script when
//! the crate is compiled with `-Zsanitizer=thread`) every context is also a
//! TSan fiber and every switch is announced to it, so TSan sees the
//! happens-before edge each switch creates.

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("stm-sim runs simulated processors as coroutines with an x86_64 Linux context switch");

/// Usable stack per simulated processor: 2 MiB, the default stack of a
/// spawned std thread. Pages are committed only when touched.
const STACK_SIZE: usize = 2 << 20;
const GUARD: usize = 4096;
/// Spare stacks a thread keeps mapped for its next runs.
const SPARE_CAP: usize = 64;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: i64) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

// `stm_sim_switch(save, to)`: push the callee-saved registers, store the
// stack pointer to `*save`, load `to` as the stack pointer, pop the
// registers it saved, and return into it.
//
// `stm_sim_trampoline` is where a fresh context's first switch "returns"
// to: it calls the entry function (in r12) with its argument (in r13). The
// entry never returns. `.cfi_undefined rip` marks this frame as the
// outermost one, so unwinders and backtraces stop here cleanly.
core::arch::global_asm!(
    ".pushsection .text.stm_sim_switch,\"ax\",@progbits",
    ".globl stm_sim_switch",
    ".hidden stm_sim_switch",
    ".type stm_sim_switch,@function",
    ".p2align 4",
    "stm_sim_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size stm_sim_switch, . - stm_sim_switch",
    ".globl stm_sim_trampoline",
    ".hidden stm_sim_trampoline",
    ".type stm_sim_trampoline,@function",
    ".p2align 4",
    "stm_sim_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r13",
    "call r12",
    "ud2",
    ".cfi_endproc",
    ".size stm_sim_trampoline, . - stm_sim_trampoline",
    ".popsection",
);

extern "C" {
    fn stm_sim_switch(save: *mut usize, to: usize);
    fn stm_sim_trampoline();
}

#[cfg(stm_tsan)]
extern "C" {
    fn __tsan_get_current_fiber() -> *mut c_void;
    fn __tsan_create_fiber(flags: std::ffi::c_uint) -> *mut c_void;
    fn __tsan_destroy_fiber(fiber: *mut c_void);
    fn __tsan_switch_to_fiber(fiber: *mut c_void, flags: std::ffi::c_uint);
}

thread_local! {
    /// Stacks of finished runs, still mapped, for the next runs on this
    /// thread.
    static SPARE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// One coroutine stack: a guard page followed by [`STACK_SIZE`] usable
/// bytes.
pub(crate) struct Stack {
    base: *mut u8,
}

impl Stack {
    /// A spare stack of this thread, or a fresh one.
    pub(crate) fn take() -> Stack {
        SPARE.with(|s| s.borrow_mut().pop()).unwrap_or_else(Stack::map)
    }

    /// Keep the stack mapped for a later run on this thread. Nothing may
    /// run on it any more.
    pub(crate) fn recycle(self) {
        SPARE.with(|s| {
            let mut spare = s.borrow_mut();
            if spare.len() < SPARE_CAP {
                spare.push(self);
            }
        });
    }

    fn map() -> Stack {
        // SAFETY: a fresh private anonymous mapping; the guard page is the
        // lowest page of it.
        unsafe {
            let base = mmap(
                std::ptr::null_mut(),
                GUARD + STACK_SIZE,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(base as isize != -1, "cannot map a {STACK_SIZE}-byte coroutine stack");
            assert_eq!(mprotect(base, GUARD, PROT_NONE), 0, "cannot protect a coroutine guard page");
            Stack { base: base.cast() }
        }
    }

    /// One past the highest usable byte (16-byte aligned).
    fn top(&self) -> usize {
        self.base as usize + GUARD + STACK_SIZE
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: this `Stack` owns the mapping and nothing runs on it.
        unsafe { munmap(self.base.cast(), GUARD + STACK_SIZE) };
    }
}

/// A suspended execution context: the host thread's own stack, or a
/// coroutine's.
pub(crate) struct Context {
    sp: Cell<usize>,
    #[cfg(stm_tsan)]
    fiber: *mut c_void,
    #[cfg(stm_tsan)]
    owns_fiber: bool,
}

impl Context {
    /// The context of the code that is running now; [`Context::switch`]
    /// away from it fills it in.
    pub(crate) fn current() -> Context {
        Context {
            sp: Cell::new(0),
            #[cfg(stm_tsan)]
            // SAFETY: plain query of the TSan runtime.
            fiber: unsafe { __tsan_get_current_fiber() },
            #[cfg(stm_tsan)]
            owns_fiber: false,
        }
    }

    /// A coroutine context; [`Context::prepare`] gives it code to run.
    pub(crate) fn coroutine() -> Context {
        Context {
            sp: Cell::new(0),
            #[cfg(stm_tsan)]
            // SAFETY: plain call into the TSan runtime.
            fiber: unsafe { __tsan_create_fiber(0) },
            #[cfg(stm_tsan)]
            owns_fiber: true,
        }
    }

    /// Make the context's next resumption call `entry(arg)` on `stack`.
    ///
    /// # Safety
    ///
    /// The context must not be running, `stack` must outlive every
    /// resumption of it, and `entry` must never return: it ends by
    /// switching away for good.
    pub(crate) unsafe fn prepare(&self, stack: &Stack, entry: unsafe extern "C" fn(*mut u8) -> !, arg: *mut u8) {
        // The frame `stm_sim_switch` pops: r15, r14, r13 = arg, r12 = entry,
        // rbx, rbp = 0 (ends frame-pointer walks), then the return address.
        // After the return the stack pointer is 16-byte aligned, as the
        // trampoline's call requires.
        let sp = stack.top() - 72;
        let frame = [0, 0, arg as usize, entry as usize, 0, 0, stm_sim_trampoline as *const () as usize];
        // SAFETY: the frame lies inside the stack's usable range.
        unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
        self.sp.set(sp);
    }

    /// Save the running code into `self` and resume `to`. Returns when some
    /// later switch resumes `self`.
    ///
    /// # Safety
    ///
    /// The running code must be the code `self` describes, and `to` must be
    /// a suspended context whose stack is still alive.
    pub(crate) unsafe fn switch(&self, to: &Context) {
        #[cfg(stm_tsan)]
        // SAFETY: `to.fiber` is a live fiber; flags 0 synchronizes.
        unsafe {
            __tsan_switch_to_fiber(to.fiber, 0)
        };
        // SAFETY: per the contract, `to.sp` holds a frame `stm_sim_switch`
        // (or `prepare`) laid down.
        unsafe { stm_sim_switch(self.sp.as_ptr(), to.sp.get()) }
    }
}

#[cfg(stm_tsan)]
impl Drop for Context {
    fn drop(&mut self) {
        if self.owns_fiber {
            // SAFETY: the fiber was created by `coroutine` and is not running.
            unsafe { __tsan_destroy_fiber(self.fiber) };
        }
    }
}
