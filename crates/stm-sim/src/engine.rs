//! The discrete-event simulation engine.
//!
//! Every simulated processor runs its workload closure against a
//! [`SimPort`] (an implementation of [`stm_core::machine::MemPort`]) as a
//! stackful coroutine on the thread that called [`Simulation::run`].
//! Exactly **one** processor executes at a time: when a processor issues a
//! memory operation, the architecture [`CostModel`] assigns it a completion
//! time on the virtual clock, the processor queues that completion event
//! and switches back to the engine, and the engine resumes whichever
//! processor owns the globally earliest pending event. The effect of each
//! operation is applied atomically at its completion time, so the
//! simulated execution is a deterministic (seed-controlled) interleaving —
//! the same property the paper relied on Proteus for, plus exact
//! reproducibility.
//!
//! Determinism: given the same configuration, seed, model, and workload, the
//! grant order, all memory contents, and all timings are identical on every
//! run. The seed perturbs completion times by a small jitter, which is how
//! the schedule-exploration tests enumerate distinct interleavings.
//!
//! # Processors as coroutines
//!
//! * Each processor gets a 2 MiB stack — a spawned std thread's default —
//!   with a `PROT_NONE` guard page below it. Pages are committed when first
//!   touched, and a finished run leaves its stacks to the next run on the
//!   same host thread. A body that overflows its stack hits the guard page
//!   and the process dies with `SIGSEGV`.
//! * A context switch saves the callee-saved registers and the stack
//!   pointer in a few lines of x86_64 assembly, so the crate builds only
//!   for x86_64 Linux; other targets stop at a `compile_error!`.
//! * Scripted crashes, structured halts, and genuine workload panics all
//!   unwind on the processor's own stack and are caught at its entry.
//!   After a halt every suspended processor is resumed once, so it unwinds
//!   and runs its destructors; the first genuine panic (lowest processor
//!   index) is then re-raised on the caller's stack.
//! * Processors share the host thread's thread-locals. Code that keeps a
//!   thread-local borrowed across a [`MemPort`] call is re-entered by the
//!   next processor the engine resumes.

use std::cell::{Cell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stm_core::machine::MemPort;
use stm_core::step::StepPoint;
use stm_core::word::{Addr, Word};

use crate::arch::{CostModel, OpKind};
use crate::coroutine::{Context, Stack};
use crate::faults::{CrashSignal, FaultKind, FaultPlan, ProcFaults};
use crate::stats::SimStats;

/// Panic payload used to unwind processors after a structured halt (watchdog
/// violation). Recognized — and swallowed — by [`Simulation::run`].
pub(crate) struct HaltSignal;

thread_local! {
    /// Set immediately before a *planned* unwind (scripted crash or
    /// structured halt) so the panic hook stays silent for it.
    static PLANNED_UNWIND: Cell<bool> = const { Cell::new(false) };
}

/// Unwind the current simulated processor with a planned payload
/// ([`CrashSignal`] or [`HaltSignal`]) without the default panic hook
/// printing a backtrace: planned deaths are simulation events, not host
/// failures. Genuine workload panics take the normal path and stay loud.
pub(crate) fn planned_unwind<T: Send + 'static>(payload: T) -> ! {
    static SILENCER: std::sync::Once = std::sync::Once::new();
    SILENCER.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if PLANNED_UNWIND.with(|f| f.replace(false)) {
                return;
            }
            prev(info);
        }));
    });
    PLANNED_UNWIND.with(|f| f.set(true));
    panic::panic_any(payload)
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of shared memory words.
    pub n_words: usize,
    /// RNG seed controlling tie-breaking jitter.
    pub seed: u64,
    /// Maximum jitter (cycles) added to each operation's completion time;
    /// `0` gives the pure cost-model schedule.
    pub jitter: u64,
    /// Watchdog: if the virtual clock exceeds this, the run halts and
    /// reports a structured [`Violation::Watchdog`] on the
    /// [`SimReport`] (it does *not* panic). Guards tests against
    /// livelock/deadlock bugs.
    pub max_cycles: u64,
    /// Words to pre-load into memory before the first cycle (address, value).
    pub init: Vec<(Addr, Word)>,
    /// Record up to this many [`TraceEvent`](crate::trace::TraceEvent)s
    /// (0 disables tracing).
    pub trace_limit: usize,
    /// Scripted faults to deliver during the run (default: none).
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n_words: 0,
            seed: 0,
            jitter: 0,
            max_cycles: 1 << 33,
            init: Vec::new(),
            trace_limit: 0,
            faults: FaultPlan::new(),
        }
    }
}

impl SimConfig {
    /// Convenience constructor: `n_words` of memory with defaults otherwise.
    pub fn with_words(n_words: usize) -> Self {
        SimConfig { n_words, ..Default::default() }
    }
}

/// A structured liveness violation attached to a [`SimReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The virtual clock exceeded [`SimConfig::max_cycles`]: the system as a
    /// whole ran past its budget without finishing (livelock, deadlock, or a
    /// runaway workload).
    Watchdog {
        /// Processor whose operation first crossed the limit.
        proc: usize,
        /// Completion time of the offending operation.
        at: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Non-crashed processors kept taking protocol steps, but no transaction
    /// committed within the configured budget — the lock-freedom bound was
    /// missed. Produced by [`crate::liveness::LivenessChecker`].
    NoProgress {
        /// Time of the last commit (or run start) before the silent window.
        window_start: u64,
        /// Time at which the budget was exceeded.
        at: u64,
        /// Protocol steps taken by non-crashed processors in the window.
        steps: usize,
    },
    /// Every live processor was parked on a retry watch with no pending
    /// event left to change memory: the blocking composition deadlocked.
    /// Reported structurally (like a watchdog trip) rather than poisoning
    /// the engine, so tests can assert on it.
    RetryDeadlock {
        /// Processors parked when the engine ran out of events, ascending.
        parked: Vec<usize>,
        /// Virtual clock when the deadlock was detected.
        at: u64,
    },
    /// A forced-priority acquisition sweep claimed locations out of
    /// ascending cell order — the invariant that makes the forced tier's
    /// never-self-fail sweep deadlock-free. Produced by
    /// [`crate::liveness::ForcedOrderChecker`].
    ForcedOrder {
        /// Processor whose forced episode regressed.
        proc: usize,
        /// Cell index of the previous claim in the episode.
        prev_cell: usize,
        /// Cell index of the offending (non-increasing) claim.
        cell: usize,
        /// Virtual time of the offending claim.
        at: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Violation::Watchdog { proc, at, limit } => write!(
                f,
                "watchdog: P{proc} reached cycle {at}, past the {limit}-cycle limit"
            ),
            Violation::NoProgress { window_start, at, steps } => write!(
                f,
                "no progress: {steps} protocol steps between cycles {window_start} and {at} without a commit"
            ),
            Violation::RetryDeadlock { ref parked, at } => {
                write!(f, "retry deadlock: at cycle {at} every live processor was parked (")?;
                for (i, p) in parked.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "P{p}")?;
                }
                write!(f, ") with no writer left to wake them")
            }
            Violation::ForcedOrder { proc, prev_cell, cell, at } => write!(
                f,
                "forced order: P{proc} claimed cell {cell} after cell {prev_cell} at cycle {at}"
            ),
        }
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual cycles at which the last processor finished.
    pub cycles: u64,
    /// Aggregate operation statistics.
    pub stats: SimStats,
    /// Final contents of the shared memory.
    pub memory: Vec<Word>,
    /// Recorded events, if tracing was enabled (see
    /// [`SimConfig::trace_limit`]).
    pub trace: Vec<crate::trace::TraceEvent>,
    /// Structured violation, if the watchdog halted the run.
    pub violation: Option<Violation>,
    /// Processors crashed by the fault plan, in ascending order.
    pub crashed: Vec<usize>,
    /// Events that would have been traced but fell past
    /// [`SimConfig::trace_limit`]. Nonzero means [`SimReport::trace`] is a
    /// truncated prefix of the execution, not the whole story.
    pub trace_dropped: u64,
}

/// Park timestamp plus the watched `(addr, word)` pairs of one parked proc.
type ParkedWaiter = (u64, Vec<(Addr, Word)>);

struct SimState {
    mem: Vec<Word>,
    model: Box<dyn CostModel>,
    /// Pending operations: earliest (time, issue-seq, proc) first.
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Per-proc park state: `Some((t_parked, watches))` while the proc sits
    /// in [`SimPort::wait_on`] with **no** pending queue event — a parked
    /// processor consumes zero scheduler steps until a notify re-queues it.
    parked: Vec<Option<ParkedWaiter>>,
    parked_count: usize,
    /// Virtual time a notify assigned to each proc's next wakeup.
    wake_time: Vec<u64>,
    finished: usize,
    n_procs: usize,
    seq: u64,
    clock: u64,
    rng: SmallRng,
    stats: SimStats,
    poisoned: bool,
    /// Structured halt: the watchdog tripped; every processor unwinds with
    /// [`HaltSignal`] and the run returns a report with `violation` set.
    halted: bool,
    violation: Option<Violation>,
    crashed: Vec<usize>,
    trace: Vec<crate::trace::TraceEvent>,
    trace_limit: usize,
    trace_dropped: u64,
}

impl SimState {
    fn record_trace(&mut self, time: u64, proc: usize, kind: crate::trace::TraceKind) {
        if self.trace.len() < self.trace_limit {
            self.trace.push(crate::trace::TraceEvent { time, proc, kind });
        } else if self.trace_limit > 0 {
            // The trace is full: count what it silently loses, so reports
            // and renderings can say "truncated" instead of lying by
            // omission. (trace_limit == 0 means tracing is off entirely —
            // nothing is "dropped" from a trace nobody asked for.)
            self.trace_dropped += 1;
        }
    }

    /// Queue an event for `proc` at time `t`.
    fn push(&mut self, t: u64, proc: usize) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse((t, seq, proc)));
    }

    /// Unwind the calling processor if the run is over.
    fn check_live(&self) {
        if self.poisoned {
            panic!("simulation poisoned by a failing co-processor");
        }
        if self.halted {
            planned_unwind(HaltSignal);
        }
    }

    /// Watchdog trip: record a structured violation, halt every processor,
    /// and unwind the calling one.
    fn trip_watchdog(&mut self, proc: usize, at: u64, limit: u64) -> ! {
        self.halted = true;
        if self.violation.is_none() {
            self.violation = Some(Violation::Watchdog { proc, at, limit });
        }
        planned_unwind(HaltSignal);
    }

    /// The processor to resume next: the owner of the earliest pending
    /// event. `None` once the run is over — every processor finished, the
    /// run halted, or the engine is poisoned.
    fn next_grant(&mut self) -> Option<usize> {
        if self.poisoned || self.halted {
            return None;
        }
        if let Some(Reverse((t, _, p))) = self.queue.pop() {
            self.clock = self.clock.max(t);
            return Some(p);
        }
        if self.finished == self.n_procs {
            return None;
        }
        if self.parked_count > 0 && self.finished + self.parked_count == self.n_procs {
            // Every live processor is parked on a retry watch and no event
            // remains to change memory: a genuine blocking deadlock. Halt
            // structurally (the report carries the violation) instead of
            // poisoning — this is a workload property, not an engine bug.
            self.halted = true;
            if self.violation.is_none() {
                let parked: Vec<usize> = self
                    .parked
                    .iter()
                    .enumerate()
                    .filter_map(|(p, e)| e.as_ref().map(|_| p))
                    .collect();
                self.violation = Some(Violation::RetryDeadlock { parked, at: self.clock });
            }
        } else {
            // Every live processor must be queued, parked, or done; an empty
            // queue with a live processor unaccounted for means the engine
            // lost a wakeup.
            self.poisoned = true;
        }
        None
    }
}

/// How a processor's workload ended: normally, or with a panic payload.
type Outcome = Result<(), Box<dyn std::any::Any + Send>>;

/// What the engine loop and the processors' ports share. Everything runs on
/// one host thread, one context at a time, and no reference into `state`
/// is held across a context switch.
struct Shared {
    state: UnsafeCell<SimState>,
    /// The engine loop's context while a processor runs.
    engine: Context,
    /// Each processor's context while it is suspended.
    procs: Vec<Context>,
    /// The processor running now (`usize::MAX` while the engine runs).
    current: Cell<usize>,
    /// How the processor that just finished ended, for the engine to collect.
    exit: Cell<Option<Outcome>>,
    max_cycles: u64,
    n_words: usize,
}

impl Shared {
    /// Run `f` on the engine state. `f` must not switch contexts or
    /// re-enter `with_state`.
    fn with_state<R>(&self, f: impl FnOnce(&mut SimState) -> R) -> R {
        // SAFETY: one host thread runs one context at a time, and the only
        // reference into `state` is `f`'s, which ends before any switch.
        f(unsafe { &mut *self.state.get() })
    }

    /// Run processor `p` until it suspends or finishes; returns how it
    /// ended if it finished.
    fn resume(&self, p: usize) -> Option<Outcome> {
        self.current.set(p);
        // SAFETY: the engine loop is the running context, and `p` is
        // suspended: `run` resumes only unfinished processors, whose
        // stacks live until it returns.
        unsafe { self.engine.switch(&self.procs[p]) };
        self.current.set(usize::MAX);
        let outcome = self.exit.take();
        if outcome.is_some() {
            self.with_state(|st| st.finished += 1);
        }
        outcome
    }
}

/// A simulated processor's port into the shared memory.
///
/// Implements [`MemPort`]; obtained only inside
/// [`Simulation::run`] workload closures. A port belongs to its processor's
/// coroutine: it is not `Send`, and an operation that would suspend it
/// anywhere else panics.
pub struct SimPort {
    shared: Rc<Shared>,
    proc: usize,
    n_procs: usize,
    t_local: u64,
    jitter: u64,
    faults: ProcFaults,
    /// Slow-down multiplier from a delivered [`FaultKind::SlowBy`] (1 = normal).
    slow_mult: u64,
    /// Re-entrancy guard: set while delivering a fault (a stall runs through
    /// `delay`, which must not evaluate further faults recursively).
    in_fault: bool,
}

impl std::fmt::Debug for SimPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPort")
            .field("proc", &self.proc)
            .field("t_local", &self.t_local)
            .finish()
    }
}

impl SimPort {
    /// Switch back to the engine until it resumes this processor, then
    /// unwind if the run ended meanwhile.
    fn suspend(&self) {
        let shared = &*self.shared;
        assert_eq!(shared.current.get(), self.proc, "SimPort used outside its own simulated processor");
        // SAFETY: this processor is the running context (checked above) and
        // the engine loop is suspended in `Shared::resume`.
        unsafe { shared.procs[self.proc].switch(&shared.engine) };
        shared.with_state(|st| st.check_live());
    }

    /// Issue a memory operation: charge it via the cost model, suspend until
    /// it is globally next, apply its effect.
    fn mem_op<R>(&mut self, kind: OpKind, addr: Addr, apply: impl FnOnce(&mut SimState) -> R) -> R {
        assert!(addr < self.shared.n_words, "address {addr} out of simulated memory");
        self.check_cycle_faults();
        let (p, t_local, slow_mult, jitter) = (self.proc, self.t_local, self.slow_mult, self.jitter);
        let limit = self.shared.max_cycles;
        let t_complete = self.shared.with_state(|st| {
            st.check_live();
            let base = st.model.access(t_local, p, kind, addr);
            let duration = base.saturating_sub(t_local) * slow_mult;
            let jitter = if jitter > 0 { st.rng.gen_range(0..=jitter) } else { 0 };
            let t_complete = t_local + duration + jitter;
            if t_complete > limit {
                st.trip_watchdog(p, t_complete, limit);
            }
            st.stats.record(p, kind);
            st.record_trace(t_complete, p, crate::trace::TraceKind::Mem(kind, addr));
            st.push(t_complete, p);
            t_complete
        });
        self.suspend();
        self.t_local = t_complete;
        self.shared.with_state(apply)
    }

    /// Evaluate (and deliver) any cycle-triggered fault due at local time.
    fn check_cycle_faults(&mut self) {
        if self.in_fault || self.faults.is_empty() {
            return;
        }
        if let Some(kind) = self.faults.on_cycle(self.t_local) {
            self.deliver(kind);
        }
    }

    /// Deliver one fired fault. May panic (crash) or advance time (stall).
    fn deliver(&mut self, kind: FaultKind) {
        self.in_fault = true;
        let (p, t) = (self.proc, self.t_local);
        match kind {
            FaultKind::Crash => {
                self.shared.with_state(|st| {
                    st.crashed.push(p);
                    st.record_trace(t, p, crate::trace::TraceKind::FaultCrash);
                });
                // Unwind the workload closure; this processor finishes
                // exactly as an early return ("crash") does.
                planned_unwind(CrashSignal { proc: p });
            }
            FaultKind::Stall { cycles } => {
                self.shared.with_state(|st| st.record_trace(t, p, crate::trace::TraceKind::FaultStall(cycles)));
                self.delay(cycles);
            }
            FaultKind::SlowBy { factor } => {
                self.shared.with_state(|st| st.record_trace(t, p, crate::trace::TraceKind::FaultSlow(factor)));
                self.slow_mult = self.slow_mult.saturating_mul(factor.max(1));
            }
        }
        self.in_fault = false;
    }

    fn with(shared: Rc<Shared>, proc: usize, n_procs: usize, jitter: u64, faults: ProcFaults) -> Self {
        SimPort {
            shared,
            proc,
            n_procs,
            t_local: 0,
            jitter,
            faults,
            slow_mult: 1,
            in_fault: false,
        }
    }
}

impl MemPort for SimPort {
    fn proc_id(&self) -> usize {
        self.proc
    }

    fn n_procs(&self) -> usize {
        self.n_procs
    }

    fn read(&mut self, addr: Addr) -> Word {
        self.mem_op(OpKind::Read, addr, |st| st.mem[addr])
    }

    fn write(&mut self, addr: Addr, value: Word) {
        self.mem_op(OpKind::Write, addr, |st| st.mem[addr] = value)
    }

    fn compare_exchange(&mut self, addr: Addr, expected: Word, new: Word) -> Result<(), Word> {
        self.mem_op(OpKind::Cas, addr, |st| {
            let cur = st.mem[addr];
            if cur == expected {
                st.mem[addr] = new;
                Ok(())
            } else {
                Err(cur)
            }
        })
    }

    fn delay(&mut self, cycles: u64) {
        // Purely local time: suspend until the virtual clock reaches it, with
        // no memory traffic and no contention effects.
        let cycles = cycles.saturating_mul(self.slow_mult);
        let (p, t_complete, limit) = (self.proc, self.t_local + cycles, self.shared.max_cycles);
        self.shared.with_state(|st| {
            st.check_live();
            if t_complete > limit {
                st.trip_watchdog(p, t_complete, limit);
            }
            st.record_trace(t_complete, p, crate::trace::TraceKind::Delay(cycles));
            st.push(t_complete, p);
        });
        self.suspend();
        self.t_local = t_complete;
    }

    fn now(&self) -> u64 {
        self.t_local
    }

    fn wait_on(&mut self, watches: &[(Addr, Word)], _max_park_micros: u64) {
        // The cap is a wall-clock concern; on the simulator a park either
        // ends with a wakeup or the run ends structurally (deadlock
        // violation / watchdog), so it is ignored here.
        let (p, t) = (self.proc, self.t_local);
        let parked = self.shared.with_state(|st| {
            st.check_live();
            // Registration and revalidation are one atomic step of the
            // engine (the sim analogue of the host's register-then-
            // revalidate, see docs/protocol.md §14): a writer that already
            // changed a watched word cannot have its notify lost, because we
            // observe the change right here and decline to park.
            if watches.iter().any(|&(a, w)| st.mem[a] != w) {
                return false;
            }
            st.record_trace(t, p, crate::trace::TraceKind::Park(watches.len()));
            st.parked[p] = Some((t, watches.to_vec()));
            st.parked_count += 1;
            true
        });
        if parked {
            // Unlike a memory operation, a parked processor has NO pending
            // queue event: it takes zero scheduler steps until a committing
            // writer's notify re-queues it (that is the acceptance criterion
            // the blocking tests pin). The wakeup time is whatever the
            // notifier assigned.
            self.suspend();
            self.t_local = self.shared.with_state(|st| st.wake_time[p]);
        }
    }

    fn notify(&mut self, addr: Addr) {
        // Announcements ride the install write the cost model already
        // charged: the notifier keeps running, pays no cycles, and pushes
        // no event of its own — so default (non-blocking) schedules are
        // bit-identical whether or not anyone ever parks.
        let t_notify = self.t_local;
        self.shared.with_state(|st| {
            if st.parked_count == 0 {
                return;
            }
            for q in 0..st.n_procs {
                let fired = match &st.parked[q] {
                    Some((_, watches)) => watches.iter().any(|&(a, w)| a == addr && st.mem[a] != w),
                    None => false,
                };
                if !fired {
                    continue;
                }
                let (t_parked, _) = st.parked[q].take().expect("checked Some above");
                st.parked_count -= 1;
                // The waiter slept from t_parked; it cannot wake before the
                // notifying install happened.
                let wake = t_parked.max(t_notify);
                st.wake_time[q] = wake;
                st.push(wake, q);
                st.record_trace(wake, q, crate::trace::TraceKind::Wake(addr));
            }
        });
    }

    fn step(&mut self, point: StepPoint) {
        // A step announcement costs no cycles and does not reschedule: the
        // announcing processor keeps running. It is recorded in the trace
        // (for the liveness checker and dump rendering) and evaluated
        // against this processor's fault script.
        let (p, t) = (self.proc, self.t_local);
        self.shared.with_state(|st| {
            st.check_live();
            st.record_trace(t, p, crate::trace::TraceKind::Step(point));
            st.stats.record_step(p, &point);
        });
        if self.in_fault || self.faults.is_empty() {
            return;
        }
        if let Some(kind) = self.faults.on_step(point) {
            self.deliver(kind);
        }
        self.check_cycle_faults();
    }
}

impl Drop for SimPort {
    fn drop(&mut self) {
        let (p, t) = (self.proc, self.t_local);
        self.shared.with_state(|st| {
            if st.parked[p].take().is_some() {
                // Unwound (crash fault / halt) while parked: the watch list
                // dies with the processor.
                st.parked_count -= 1;
            }
            st.clock = st.clock.max(t);
        });
    }
}

/// What a processor's coroutine starts from: its workload and its port.
type Start<B> = Option<(B, SimPort)>;

/// Entry point of a processor's coroutine: run the workload, hand the
/// engine its outcome, and switch back to the engine for good.
///
/// # Safety
///
/// `start` points to this processor's [`Start`], filled and kept alive by
/// [`Simulation::run`] until every processor has finished.
unsafe extern "C" fn proc_main<B: FnOnce(SimPort)>(start: *mut u8) -> ! {
    // SAFETY: per the contract; nothing else touches this `Start`.
    let Some((body, port)) = (unsafe { &mut *start.cast::<Start<B>>() }).take() else {
        std::process::abort();
    };
    let (p, shared) = (port.proc, Rc::as_ptr(&port.shared));
    let outcome = panic::catch_unwind(AssertUnwindSafe(move || {
        port.shared.with_state(|st| st.check_live());
        body(port)
    }));
    // Every local that owned anything has been consumed or dropped: this
    // stack is never resumed again.
    // SAFETY: `run` holds the engine state until every processor finished.
    let shared = unsafe { &*shared };
    shared.exit.set(Some(outcome));
    // SAFETY: the engine loop is suspended in `Shared::resume`.
    unsafe { shared.procs[p].switch(&shared.engine) };
    std::process::abort()
}

/// A simulated multiprocessor execution.
///
/// # Examples
///
/// ```
/// use stm_core::machine::MemPort;
/// use stm_sim::arch::UniformModel;
/// use stm_sim::engine::{SimConfig, Simulation};
///
/// let report = Simulation::new(SimConfig::with_words(4), UniformModel::new(1, 10))
///     .run(2, |_proc| {
///         move |mut port: stm_sim::engine::SimPort| {
///             for _ in 0..100 {
///                 loop {
///                     let v = port.read(0);
///                     if port.compare_exchange(0, v, v + 1).is_ok() {
///                         break;
///                     }
///                 }
///             }
///         }
///     });
/// assert_eq!(report.memory[0], 200);
/// assert!(report.cycles > 0);
/// ```
pub struct Simulation {
    config: SimConfig,
    model: Box<dyn CostModel>,
}

impl Simulation {
    /// Create a simulation with `config` over architecture `model`.
    pub fn new(config: SimConfig, model: impl CostModel + 'static) -> Self {
        Simulation { config, model: Box::new(model) }
    }

    /// Run `n_procs` simulated processors; `make_body(p)` builds processor
    /// `p`'s workload. Returns when every processor's closure has returned.
    ///
    /// # Panics
    ///
    /// Panics if any workload closure panics, or if the watchdog trips.
    pub fn run<F, B>(self, n_procs: usize, make_body: F) -> SimReport
    where
        F: FnMut(usize) -> B,
        B: FnOnce(SimPort) + Send,
    {
        assert!(n_procs > 0, "need at least one processor");
        let mut mem = vec![0; self.config.n_words];
        for &(addr, value) in &self.config.init {
            mem[addr] = value;
        }
        let mut state = SimState {
            mem,
            model: self.model,
            queue: BinaryHeap::new(),
            parked: vec![None; n_procs],
            parked_count: 0,
            wake_time: vec![0; n_procs],
            finished: 0,
            n_procs,
            seq: 0,
            clock: 0,
            rng: SmallRng::seed_from_u64(self.config.seed),
            stats: SimStats::new(n_procs),
            poisoned: false,
            halted: false,
            violation: None,
            crashed: Vec::new(),
            trace: Vec::new(),
            trace_limit: self.config.trace_limit,
            trace_dropped: 0,
        };
        // Seed the queue: every processor starts with a wake-up event at t=0
        // so the engine owns the interleaving from the first instruction.
        for p in 0..n_procs {
            state.push(0, p);
        }
        let shared = Rc::new(Shared {
            state: UnsafeCell::new(state),
            engine: Context::current(),
            procs: (0..n_procs).map(|_| Context::coroutine()).collect(),
            current: Cell::new(usize::MAX),
            exit: Cell::new(None),
            max_cycles: self.config.max_cycles,
            n_words: self.config.n_words,
        });
        let (jitter, plan) = (self.config.jitter, &self.config.faults);
        let mut starts: Vec<Start<B>> = (0..n_procs)
            .map(make_body)
            .enumerate()
            .map(|(p, body)| {
                Some((body, SimPort::with(Rc::clone(&shared), p, n_procs, jitter, ProcFaults::for_proc(plan, p))))
            })
            .collect();
        let stacks: Vec<Stack> = (0..n_procs).map(|_| Stack::take()).collect();
        for (p, stack) in stacks.iter().enumerate() {
            // SAFETY: `starts` is neither moved nor resized until every
            // coroutine has finished, and `stacks` outlives them all.
            unsafe { shared.procs[p].prepare(stack, proc_main::<B>, starts.as_mut_ptr().add(p).cast()) };
        }

        let mut outcomes: Vec<Option<Outcome>> = (0..n_procs).map(|_| None).collect();
        while let Some(p) = shared.with_state(SimState::next_grant) {
            if let Some(outcome) = shared.resume(p) {
                outcomes[p] = Some(outcome);
            }
        }
        // The run is over. After a halt (or poisoning) processors are still
        // suspended mid-operation: resume each so it unwinds on its own
        // stack and runs its destructors.
        for (p, slot) in outcomes.iter_mut().enumerate() {
            while slot.is_none() {
                *slot = shared.resume(p);
            }
        }
        stacks.into_iter().for_each(Stack::recycle);

        for outcome in outcomes.into_iter().flatten() {
            if let Err(payload) = outcome {
                // Planned crashes and structured halts are not failures.
                if !payload.is::<CrashSignal>() && !payload.is::<HaltSignal>() {
                    panic::resume_unwind(payload);
                }
            }
        }

        shared.with_state(|st| {
            st.crashed.sort_unstable();
            SimReport {
                cycles: st.clock,
                stats: st.stats.clone(),
                memory: std::mem::take(&mut st.mem),
                trace: std::mem::take(&mut st.trace),
                violation: st.violation.take(),
                crashed: std::mem::take(&mut st.crashed),
                trace_dropped: st.trace_dropped,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::UniformModel;

    #[test]
    fn single_proc_sequences_reads_and_writes() {
        let report = Simulation::new(SimConfig::with_words(2), UniformModel::new(1, 5)).run(1, |_| {
            |mut port: SimPort| {
                port.write(0, 7);
                assert_eq!(port.read(0), 7);
                assert_eq!(port.compare_exchange(0, 7, 9), Ok(()));
                assert_eq!(port.compare_exchange(0, 7, 11), Err(9));
                assert_eq!(port.now(), 4 * 6); // 4 ops x (1 local + 5 mem)
            }
        });
        assert_eq!(report.memory[0], 9);
        assert_eq!(report.cycles, 24);
        assert_eq!(report.stats.total_ops(), 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Simulation::new(
                SimConfig { n_words: 4, seed: 42, jitter: 3, ..Default::default() },
                UniformModel::new(1, 7),
            )
            .run(4, |p| {
                move |mut port: SimPort| {
                    for i in 0..50 {
                        let a = (p + i) % 4;
                        let v = port.read(a);
                        port.write(a, v.wrapping_add(p as u64 + 1));
                    }
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn different_seeds_can_differ() {
        let run = |seed| {
            Simulation::new(
                SimConfig { n_words: 1, seed, jitter: 6, ..Default::default() },
                UniformModel::new(1, 7),
            )
            .run(3, |p| {
                move |mut port: SimPort| {
                    for _ in 0..30 {
                        let v = port.read(0);
                        // Last-writer-wins records the schedule in memory.
                        port.write(0, v.wrapping_mul(31).wrapping_add(p as u64 + 1));
                    }
                }
            })
        };
        let outcomes: Vec<u64> = (0..10).map(|s| run(s).memory[0]).collect();
        // With jitter, at least two seeds should produce distinct interleavings.
        assert!(outcomes.iter().any(|&o| o != outcomes[0]), "jitter produced no schedule diversity");
    }

    #[test]
    fn cas_tickets_are_unique_under_simulation() {
        const PROCS: usize = 8;
        const TICKETS: u64 = 200;
        let report = Simulation::new(
            SimConfig { n_words: 1 + TICKETS as usize, seed: 1, jitter: 2, ..Default::default() },
            UniformModel::new(1, 4),
        )
        .run(PROCS, |p| {
            move |mut port: SimPort| loop {
                let t = port.read(0);
                if t >= TICKETS {
                    break;
                }
                if port.compare_exchange(0, t, t + 1).is_ok() {
                    let prev = port.read(1 + t as usize);
                    assert_eq!(prev, 0, "ticket double-claimed");
                    port.write(1 + t as usize, p as u64 + 1);
                }
            }
        });
        assert!(report.memory[1..].iter().all(|&w| w >= 1 && w <= PROCS as u64));
    }

    #[test]
    fn early_return_models_a_crashed_processor() {
        // Proc 1 "crashes" immediately; the rest of the system still finishes.
        let report = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 3)).run(2, |p| {
            move |mut port: SimPort| {
                if p == 1 {
                    return; // crash
                }
                for _ in 0..10 {
                    let v = port.read(0);
                    port.write(0, v + 1);
                }
            }
        });
        assert_eq!(report.memory[0], 10);
    }

    #[test]
    fn watchdog_reports_structured_violation() {
        let report = Simulation::new(
            SimConfig { n_words: 1, max_cycles: 1000, ..Default::default() },
            UniformModel::new(1, 10),
        )
        .run(1, |_| {
            |mut port: SimPort| loop {
                let _ = port.read(0);
            }
        });
        match report.violation {
            Some(Violation::Watchdog { proc: 0, at, limit: 1000 }) => assert!(at > 1000),
            ref other => panic!("expected watchdog violation, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_in_delay_reports_structured_violation() {
        // Satellite check: a runaway `delay` also halts structurally — the
        // sibling processor unwinds instead of deadlocking, and the report
        // carries the violation.
        let report = Simulation::new(
            SimConfig { n_words: 1, max_cycles: 1000, ..Default::default() },
            UniformModel::new(1, 2),
        )
        .run(2, |p| {
            move |mut port: SimPort| {
                if p == 0 {
                    port.delay(50_000);
                }
                loop {
                    let _ = port.read(0);
                }
            }
        });
        assert!(
            matches!(report.violation, Some(Violation::Watchdog { .. })),
            "{:?}",
            report.violation
        );
        assert!(report.crashed.is_empty());
    }

    #[test]
    fn scripted_crash_is_benign_and_reported() {
        let report = Simulation::new(
            SimConfig {
                n_words: 1,
                faults: crate::faults::FaultPlan::new().crash_at_cycle(1, 0),
                ..Default::default()
            },
            UniformModel::new(1, 3),
        )
        .run(2, |p| {
            move |mut port: SimPort| {
                for _ in 0..10 {
                    let v = port.read(0);
                    port.write(0, v + 1);
                }
                assert_ne!(p, 1, "processor 1 must have been crashed by the plan");
            }
        });
        assert_eq!(report.crashed, vec![1]);
        assert_eq!(report.memory[0], 10, "survivor finished its work");
        assert!(report.violation.is_none());
    }

    #[test]
    fn slow_by_fault_stretches_op_durations() {
        let run = |factor: u64| {
            let faults = if factor > 1 {
                crate::faults::FaultPlan::new().with(crate::faults::Fault {
                    proc: 0,
                    trigger: crate::faults::Trigger::Cycle { at: 0 },
                    kind: crate::faults::FaultKind::SlowBy { factor },
                })
            } else {
                crate::faults::FaultPlan::new()
            };
            Simulation::new(SimConfig { n_words: 1, faults, ..Default::default() }, UniformModel::new(1, 5))
                .run(1, |_| {
                    |mut port: SimPort| {
                        for _ in 0..10 {
                            let _ = port.read(0);
                        }
                    }
                })
                .cycles
        };
        let normal = run(1);
        let slowed = run(4);
        assert_eq!(slowed, normal * 4, "SlowBy must scale every op's duration");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn workload_panic_propagates() {
        let _ = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 1)).run(2, |p| {
            move |mut port: SimPort| {
                let _ = port.read(0);
                if p == 0 {
                    panic!("boom");
                }
                // The sibling must not deadlock waiting forever.
                for _ in 0..5 {
                    let _ = port.read(0);
                }
            }
        });
    }

    #[test]
    fn delay_advances_only_local_time() {
        let report = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 2)).run(2, |p| {
            move |mut port: SimPort| {
                if p == 0 {
                    port.delay(1000);
                    assert_eq!(port.now(), 1000);
                    port.write(0, 1); // completes ~1002
                } else {
                    port.write(0, 2); // completes ~2, long before proc 0
                }
            }
        });
        assert_eq!(report.memory[0], 1, "slow processor's write must land last");
        assert!(report.cycles >= 1000);
    }

    #[test]
    fn parked_processor_takes_zero_scheduler_steps_until_notified() {
        let report = Simulation::new(
            SimConfig { n_words: 2, trace_limit: 1000, ..Default::default() },
            UniformModel::new(1, 5),
        )
        .run(2, |p| {
            move |mut port: SimPort| {
                if p == 0 {
                    let v = port.read(0);
                    port.wait_on(&[(0, v)], u64::MAX);
                    assert_eq!(port.read(0), 9, "woken only after the write landed");
                } else {
                    for _ in 0..20 {
                        let _ = port.read(1);
                    }
                    port.write(0, 9);
                    port.notify(0);
                }
            }
        });
        assert!(report.violation.is_none(), "{:?}", report.violation);
        // While parked, P0 must appear in the trace exactly as park → wake
        // with nothing of its own in between: zero scheduler steps consumed.
        let p0: Vec<&crate::trace::TraceKind> = report
            .trace
            .iter()
            .filter(|e| e.proc == 0)
            .map(|e| &e.kind)
            .collect();
        let park = p0
            .iter()
            .position(|k| matches!(k, crate::trace::TraceKind::Park(_)))
            .expect("P0 parked");
        assert!(
            matches!(p0[park + 1], crate::trace::TraceKind::Wake(0)),
            "nothing between park and wake, got {:?}",
            p0[park + 1]
        );
        // The wakeup cannot precede the notifying install's completion.
        let write_t = report
            .trace
            .iter()
            .filter(|e| e.proc == 1 && matches!(e.kind, crate::trace::TraceKind::Mem(OpKind::Write, 0)))
            .map(|e| e.time)
            .max()
            .unwrap();
        let wake_t = report
            .trace
            .iter()
            .find(|e| matches!(e.kind, crate::trace::TraceKind::Wake(_)))
            .map(|e| e.time)
            .unwrap();
        assert!(wake_t >= write_t, "wake {wake_t} before install {write_t}");
    }

    #[test]
    fn wait_on_declines_to_park_when_a_watch_already_moved() {
        // Register-then-revalidate, sim flavor: the recheck happens in the
        // same engine step, so a write that already landed is never slept
        // through (the run would otherwise deadlock — nobody notifies again).
        let report = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 3)).run(1, |_| {
            |mut port: SimPort| {
                port.write(0, 5);
                port.wait_on(&[(0, 4)], u64::MAX); // watch is stale: returns
                assert_eq!(port.read(0), 5);
            }
        });
        assert!(report.violation.is_none());
    }

    #[test]
    fn all_live_processors_parked_is_a_structured_deadlock() {
        let report = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 3)).run(2, |_| {
            move |mut port: SimPort| {
                let v = port.read(0);
                port.wait_on(&[(0, v)], u64::MAX); // nobody will ever write
                unreachable!("the engine halts parked processors structurally");
            }
        });
        match report.violation {
            Some(Violation::RetryDeadlock { ref parked, .. }) => {
                assert_eq!(parked, &[0, 1]);
            }
            ref other => panic!("expected retry deadlock, got {other:?}"),
        }
    }

    #[test]
    fn crash_fault_while_a_sibling_is_parked_is_reported_not_hung() {
        // P0 parks; P1 is scripted to crash before it ever writes. The run
        // must end with a structured deadlock (P0 alone parked), not hang.
        let report = Simulation::new(
            SimConfig {
                n_words: 1,
                faults: crate::faults::FaultPlan::new().crash_at_cycle(1, 2),
                ..Default::default()
            },
            UniformModel::new(1, 3),
        )
        .run(2, |p| {
            move |mut port: SimPort| {
                if p == 0 {
                    let v = port.read(0);
                    port.wait_on(&[(0, v)], u64::MAX);
                } else {
                    for _ in 0..10 {
                        let _ = port.read(0);
                    }
                    port.write(0, 1);
                    port.notify(0);
                }
            }
        });
        assert_eq!(report.crashed, vec![1]);
        assert!(
            matches!(report.violation, Some(Violation::RetryDeadlock { ref parked, .. }) if parked == &[0]),
            "{:?}",
            report.violation
        );
    }

    #[test]
    #[should_panic(expected = "out of simulated memory")]
    fn out_of_bounds_access_panics() {
        let _ = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 1)).run(1, |_| {
            |mut port: SimPort| {
                let _ = port.read(5);
            }
        });
    }

    #[test]
    fn a_body_can_use_a_mebibyte_of_stack() {
        /// Recurse through ~1 MiB of frames, reading simulated memory at
        /// every level so the other processor runs in between.
        fn deep(port: &mut SimPort, depth: usize) -> u64 {
            let mut frame = [0u8; 4096];
            frame[depth % 4096] = depth as u8;
            let v = port.read(0);
            if depth == 0 {
                return v;
            }
            std::hint::black_box(&mut frame);
            deep(port, depth - 1) + u64::from(frame[depth % 4096] == depth as u8)
        }
        let report = Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 2)).run(2, |_| {
            |mut port: SimPort| {
                assert_eq!(deep(&mut port, 256), 256);
                let v = port.read(0);
                port.write(0, v + 1);
            }
        });
        assert_eq!(report.memory[0], 1);
    }

    #[test]
    fn a_backtrace_inside_a_processor_ends_at_its_entry() {
        let captured = std::sync::OnceLock::new();
        Simulation::new(SimConfig::with_words(1), UniformModel::new(1, 2)).run(1, |_| {
            let captured = &captured;
            move |mut port: SimPort| {
                let _ = port.read(0);
                captured.set(std::backtrace::Backtrace::force_capture().to_string()).unwrap();
            }
        });
        let bt = captured.into_inner().expect("the body ran");
        // Frame lines look like "  7: symbol"; source lines start with "at".
        let frames: Vec<&str> = bt
            .lines()
            .map(str::trim)
            .filter(|l| l.split_once(": ").is_some_and(|(n, _)| n.parse::<usize>().is_ok()))
            .collect();
        assert!(frames.iter().any(|f| f.contains("proc_main")), "the walk reaches the entry:\n{bt}");
        assert!(
            frames.last().is_some_and(|f| f.ends_with("stm_sim_trampoline")),
            "the walk ends at the trampoline, not on the caller's stack:\n{bt}"
        );
    }

    #[test]
    fn halted_processors_unwind_and_run_their_destructors() {
        struct Guard<'a>(&'a std::sync::atomic::AtomicUsize);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let dropped = std::sync::atomic::AtomicUsize::new(0);
        let report = Simulation::new(
            SimConfig { n_words: 1, max_cycles: 500, ..Default::default() },
            UniformModel::new(1, 3),
        )
        .run(4, |p| {
            let dropped = &dropped;
            move |mut port: SimPort| {
                let _guard = Guard(dropped);
                if p == 3 {
                    let v = port.read(0);
                    port.wait_on(&[(0, v + 1)], u64::MAX);
                }
                loop {
                    let _ = port.read(0);
                }
            }
        });
        assert!(matches!(report.violation, Some(Violation::Watchdog { .. })), "{:?}", report.violation);
        assert_eq!(dropped.into_inner(), 4, "every processor unwound through its guard");
    }
}
