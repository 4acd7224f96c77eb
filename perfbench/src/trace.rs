//! The phase ledger: a [`MemPort`] wrapper that attributes every
//! shared-memory operation and every tick of an operation to a protocol
//! phase.
//!
//! The protocol announces its phase boundaries through
//! [`MemPort::step`]; on the host port that call compiles to nothing. A
//! [`TracePort`] forwards every method to the port it wraps (the blocking
//! hooks `wait_on` and `notify` included) and, between the client's
//! [`Probe::begin_op`] and [`Probe::end_op`], counts reads, writes,
//! CAS ok/failed, `notify` calls and back-off calls (`delay`, `yield_now`,
//! `park_micros`) and timestamps each phase transition. Transitions come
//! from two sources:
//!
//! * step points — `TxPublished` opens *acquire*, `BeforeDecisionCas` and
//!   `Decided` open *decide*, `OldValAgreed` *agree*, `JournalAppend`
//!   *journal*, `UpdateWrite` *install*, `BeforeRelease` *release*,
//!   `HelpBegin` *help* (which lasts until the owner's next attempt), and
//!   `DynCommit` closes a dynamic body;
//! * the first access to the owner's own transaction record, for the
//!   boundaries the protocol does not announce: leaving the pre-commit
//!   structure work for *publish*, leaving *decide* for *agree* (first
//!   old-value slot), and leaving *release* for *finish* (the owner's
//!   read-back of status and agreed old values). The owner's read of an
//!   agreed old value in *finish* is what marks an attempt as committed.
//!
//! Phases partition the operation, so a phase's time is its self time. The
//! first ops of an operation belong to the layer that issued it (the hash
//! map's walk, a dynamic body, a static op's plan lookup, a snapshot's
//! invisible read); they are its `pre` phase.

use stm_core::layout::StmLayout;
use stm_core::machine::counting::CountingPort;
use stm_core::machine::host::{HostMachine, HostPort};
use stm_core::machine::MemPort;
use stm_core::ops::StmOps;
use stm_core::step::StepPoint;
use stm_core::stm::StmConfig;
use stm_core::word::{Addr, Word};

use crate::clock::ticks;

/// One phase of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Hash-map chain walk, arena alloc/free and plan lookup before publish.
    Walk,
    /// A dynamic transaction's body.
    Body,
    /// A static op's plan lookup before publish.
    Plan,
    /// A snapshot's invisible double-collect read.
    FastRead,
    /// A dynamic transaction's read-set validation and commit preparation.
    Validate,
    /// Transaction record initialisation and publication.
    Publish,
    /// Ownership acquisition.
    Acquire,
    /// The status decision CAS.
    Decide,
    /// Old-value agreement and read-back.
    Agree,
    /// Redo-record append and flush.
    Journal,
    /// New-value installs.
    Install,
    /// Ownership release.
    Release,
    /// The owner's read-back of status and agreed old values.
    Finish,
    /// Helping another processor's transaction.
    Help,
}

/// Number of phases.
pub const N_PHASES: usize = 14;

impl Phase {
    /// Every phase, in ledger order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Walk,
        Phase::Body,
        Phase::Plan,
        Phase::FastRead,
        Phase::Validate,
        Phase::Publish,
        Phase::Acquire,
        Phase::Decide,
        Phase::Agree,
        Phase::Journal,
        Phase::Install,
        Phase::Release,
        Phase::Finish,
        Phase::Help,
    ];

    /// Phase name as used in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Walk => "walk",
            Phase::Body => "body",
            Phase::Plan => "plan",
            Phase::FastRead => "fastread",
            Phase::Validate => "validate",
            Phase::Publish => "publish",
            Phase::Acquire => "acquire",
            Phase::Decide => "decide",
            Phase::Agree => "agree",
            Phase::Journal => "journal",
            Phase::Install => "install",
            Phase::Release => "release",
            Phase::Finish => "finish",
            Phase::Help => "help",
        }
    }

    /// The layer a phase belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            Phase::Walk => "hashmap",
            Phase::Body | Phase::Validate => "dynamic",
            Phase::Plan | Phase::FastRead => "ops",
            _ => "stm",
        }
    }

    fn is_pre(self) -> bool {
        matches!(
            self,
            Phase::Walk | Phase::Body | Phase::Plan | Phase::FastRead | Phase::Validate
        )
    }
}

/// Shared-memory operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Atomic reads.
    pub reads: u64,
    /// Atomic writes.
    pub writes: u64,
    /// Successful CASes.
    pub cas_ok: u64,
    /// Failed CASes.
    pub cas_fail: u64,
    /// `notify` calls.
    pub notify: u64,
    /// Back-off calls (`delay`, `yield_now`, `park_micros`).
    pub backoff: u64,
}

impl Counts {
    /// Reads + writes + CASes.
    pub fn memops(&self) -> u64 {
        self.reads + self.writes + self.cas_ok + self.cas_fail
    }

    /// All CASes.
    pub fn cas(&self) -> u64 {
        self.cas_ok + self.cas_fail
    }

    fn add(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.cas_ok += o.cas_ok;
        self.cas_fail += o.cas_fail;
        self.notify += o.notify;
        self.backoff += o.backoff;
    }
}

/// Cumulative cost of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTot {
    /// Operations issued in the phase.
    pub counts: Counts,
    /// Ticks spent in the phase.
    pub ticks: u64,
    /// Simulated cycles spent in the phase (0 on the host).
    pub cycles: u64,
}

/// Cumulative per-operation-class totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTot {
    /// Operations of this class.
    pub ops: u64,
    /// Their shared-memory operations.
    pub counts: Counts,
    /// Transaction attempts published.
    pub attempts: u64,
    /// Attempts that committed.
    pub commits: u64,
    /// Helping episodes entered.
    pub helps: u64,
    /// Operations that committed at least once.
    pub committed_ops: u64,
    /// Operations that never published a transaction record.
    pub unpublished_ops: u64,
    /// Ticks spent in pre-commit phases.
    pub pre_ticks: u64,
    /// Ticks spent in the whole operation.
    pub ticks: u64,
}

/// One recorded span: a phase segment of a sampled operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation id (per client).
    pub op: u64,
    /// Operation class.
    pub class: u8,
    /// Phase.
    pub phase: Phase,
    /// Start tick.
    pub t0: u64,
    /// Duration in ticks.
    pub dur: u64,
    /// Operations issued in the segment.
    pub counts: Counts,
}

/// The owner's transaction record inside one STM instance.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    rec: (Addr, Addr),
    oldval: (Addr, Addr),
}

impl Region {
    /// Processor `proc`'s record in `layout`.
    pub fn of(layout: &StmLayout, proc: usize) -> Self {
        let rec = layout.record(proc);
        Region {
            rec: (rec, rec + layout.record_stride()),
            oldval: (
                layout.oldval_slot(proc, 0),
                layout.oldval_slot(proc, 0) + layout.max_locs(),
            ),
        }
    }
}

#[derive(Default)]
struct OpAcc {
    counts: Counts,
    attempts: u64,
    commits: u64,
    helps: u64,
    pre_ticks: u64,
}

/// The ledger of one port.
pub struct Tracer {
    regions: Vec<Region>,
    in_op: bool,
    class: usize,
    pre: Phase,
    phase: Phase,
    seg_t0: u64,
    seg_c0: u64,
    seg: Counts,
    op_t0: u64,
    op_id: u64,
    op: OpAcc,
    attempt_committed: bool,
    flush_t0: u64,
    span_every: u64,
    span_cap: usize,
    /// Per-phase totals.
    pub phases: [PhaseTot; N_PHASES],
    /// Per-class totals.
    pub classes: Vec<ClassTot>,
    /// Every journal flush's duration in ticks.
    pub flushes: Vec<u64>,
    /// Spans of sampled operations (one op in `span_every`).
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A ledger for a port whose own records are `regions`, with
    /// `n_classes` operation classes, keeping spans of one op in
    /// `span_every`.
    pub fn new(regions: Vec<Region>, n_classes: usize, span_every: u64) -> Self {
        Tracer {
            regions,
            in_op: false,
            class: 0,
            pre: Phase::Plan,
            phase: Phase::Plan,
            seg_t0: 0,
            seg_c0: 0,
            seg: Counts::default(),
            op_t0: 0,
            op_id: 0,
            op: OpAcc::default(),
            attempt_committed: false,
            flush_t0: 0,
            span_every: span_every.max(1),
            span_cap: 400_000,
            phases: [PhaseTot::default(); N_PHASES],
            classes: vec![ClassTot::default(); n_classes],
            flushes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Fold another ledger (another client's) into this one.
    pub fn merge(&mut self, o: &Tracer) {
        for (a, b) in self.phases.iter_mut().zip(&o.phases) {
            a.counts.add(&b.counts);
            a.ticks += b.ticks;
            a.cycles += b.cycles;
        }
        for (a, b) in self.classes.iter_mut().zip(&o.classes) {
            a.ops += b.ops;
            a.counts.add(&b.counts);
            a.attempts += b.attempts;
            a.commits += b.commits;
            a.helps += b.helps;
            a.committed_ops += b.committed_ops;
            a.unpublished_ops += b.unpublished_ops;
            a.pre_ticks += b.pre_ticks;
            a.ticks += b.ticks;
        }
        self.flushes.extend_from_slice(&o.flushes);
    }

    /// Total counts over every phase.
    pub fn total_counts(&self) -> Counts {
        let mut c = Counts::default();
        for p in &self.phases {
            c.add(&p.counts);
        }
        c
    }

    /// Total attempts and commits over every class.
    pub fn attempts_commits(&self) -> (u64, u64) {
        self.classes
            .iter()
            .fold((0, 0), |(a, c), t| (a + t.attempts, c + t.commits))
    }

    fn in_record(&self, a: Addr) -> bool {
        self.regions.iter().any(|r| a >= r.rec.0 && a < r.rec.1)
    }

    fn in_oldval(&self, a: Addr) -> bool {
        self.regions
            .iter()
            .any(|r| a >= r.oldval.0 && a < r.oldval.1)
    }

    fn switch(&mut self, to: Phase, now_cycles: u64) {
        if to != self.phase {
            self.close(now_cycles);
            self.phase = to;
        }
    }

    fn close(&mut self, now_cycles: u64) {
        let t = ticks();
        let dur = t.wrapping_sub(self.seg_t0);
        let tot = &mut self.phases[self.phase as usize];
        tot.counts.add(&self.seg);
        tot.ticks += dur;
        tot.cycles += now_cycles.saturating_sub(self.seg_c0);
        self.op.counts.add(&self.seg);
        if self.phase.is_pre() {
            self.op.pre_ticks += dur;
        }
        if self.op_id.is_multiple_of(self.span_every) && self.spans.len() < self.span_cap {
            self.spans.push(Span {
                op: self.op_id,
                class: self.class as u8,
                phase: self.phase,
                t0: self.seg_t0,
                dur,
                counts: self.seg,
            });
        }
        self.seg = Counts::default();
        self.seg_t0 = t;
        self.seg_c0 = now_cycles;
    }

    fn access(&mut self, a: Addr, write: bool, now_cycles: u64) {
        match self.phase {
            p if p.is_pre() && self.in_record(a) => self.switch(Phase::Publish, now_cycles),
            Phase::Acquire | Phase::Decide if self.in_oldval(a) => {
                self.switch(Phase::Agree, now_cycles)
            }
            Phase::Release if self.in_record(a) => self.switch(Phase::Finish, now_cycles),
            Phase::Finish => {
                if self.in_record(a) {
                    if write {
                        self.switch(Phase::Publish, now_cycles); // the next attempt
                    } else if self.in_oldval(a) && !self.attempt_committed {
                        self.attempt_committed = true;
                        self.op.commits += 1;
                    }
                } else if self.attempt_committed {
                    // The structure resumed after a commit (a re-walk, arena
                    // bookkeeping, or a dynamic body re-run).
                    self.switch(self.pre, now_cycles);
                }
            }
            Phase::Help if write && self.in_record(a) => self.switch(Phase::Publish, now_cycles),
            _ => {}
        }
    }

    fn step(&mut self, point: StepPoint, now_cycles: u64) {
        match point {
            StepPoint::TxPublished => {
                self.op.attempts += 1;
                self.attempt_committed = false;
                self.switch(Phase::Acquire, now_cycles);
            }
            StepPoint::HelpBegin { .. } => {
                self.op.helps += 1;
                self.switch(Phase::Help, now_cycles);
            }
            _ if self.phase == Phase::Help => {}
            StepPoint::AcquireAttempt { .. }
            | StepPoint::Acquired { .. }
            | StepPoint::ForcedAcquired { .. } => self.switch(Phase::Acquire, now_cycles),
            StepPoint::BeforeDecisionCas | StepPoint::Decided { .. } => {
                self.switch(Phase::Decide, now_cycles)
            }
            StepPoint::OldValAgreed { .. } => self.switch(Phase::Agree, now_cycles),
            StepPoint::JournalAppend => self.switch(Phase::Journal, now_cycles),
            StepPoint::JournalFlush => self.flush_t0 = ticks(),
            StepPoint::JournalDurable => self.flushes.push(ticks().wrapping_sub(self.flush_t0)),
            StepPoint::UpdateWrite { .. } => self.switch(Phase::Install, now_cycles),
            StepPoint::BeforeRelease { .. } => self.switch(Phase::Release, now_cycles),
            StepPoint::DynCommit => self.switch(Phase::Validate, now_cycles),
            StepPoint::RetryPark | StepPoint::RetryWake => {}
        }
    }

    fn begin(&mut self, class: usize, pre: Phase, now_cycles: u64) {
        self.in_op = true;
        self.op_id += 1;
        self.class = class;
        self.pre = pre;
        self.phase = pre;
        self.op = OpAcc::default();
        self.attempt_committed = false;
        self.seg = Counts::default();
        self.seg_t0 = ticks();
        self.seg_c0 = now_cycles;
        self.op_t0 = self.seg_t0;
    }

    fn end(&mut self, now_cycles: u64) {
        self.close(now_cycles);
        self.in_op = false;
        let op = std::mem::take(&mut self.op);
        let c = &mut self.classes[self.class];
        c.ops += 1;
        c.counts.add(&op.counts);
        c.attempts += op.attempts;
        c.commits += op.commits;
        c.helps += op.helps;
        c.committed_ops += u64::from(op.commits > 0);
        c.unpublished_ops += u64::from(op.attempts == 0);
        c.pre_ticks += op.pre_ticks;
        c.ticks += self.seg_t0.wrapping_sub(self.op_t0);
    }
}

/// A port that marks operation boundaries for the ledger. Plain ports
/// ignore the marks, so client loops are written once for both runs.
pub trait Probe: MemPort {
    /// An operation of `class` starts; its first ops belong to `pre`.
    fn begin_op(&mut self, _class: usize, _pre: Phase) {}
    /// The operation ended.
    fn end_op(&mut self) {}
}

impl Probe for HostPort {}

/// A ledger-keeping wrapper around any port.
pub struct TracePort<P> {
    /// The wrapped port.
    pub inner: P,
    /// Its ledger.
    pub tracer: Tracer,
}

impl<P: MemPort> TracePort<P> {
    /// Wrap `inner`.
    pub fn new(inner: P, tracer: Tracer) -> Self {
        TracePort { inner, tracer }
    }
}

impl<P: MemPort> Probe for TracePort<P> {
    fn begin_op(&mut self, class: usize, pre: Phase) {
        let now = self.inner.now();
        self.tracer.begin(class, pre, now);
    }
    fn end_op(&mut self) {
        let now = self.inner.now();
        self.tracer.end(now);
    }
}

impl<P: MemPort> MemPort for TracePort<P> {
    fn proc_id(&self) -> usize {
        self.inner.proc_id()
    }
    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }
    #[inline]
    fn read(&mut self, addr: Addr) -> Word {
        if self.tracer.in_op {
            let now = self.inner.now();
            self.tracer.access(addr, false, now);
            self.tracer.seg.reads += 1;
        }
        self.inner.read(addr)
    }
    #[inline]
    fn write(&mut self, addr: Addr, value: Word) {
        if self.tracer.in_op {
            let now = self.inner.now();
            self.tracer.access(addr, true, now);
            self.tracer.seg.writes += 1;
        }
        self.inner.write(addr, value)
    }
    #[inline]
    fn compare_exchange(&mut self, addr: Addr, expected: Word, new: Word) -> Result<(), Word> {
        if self.tracer.in_op {
            let now = self.inner.now();
            self.tracer.access(addr, true, now);
        }
        let r = self.inner.compare_exchange(addr, expected, new);
        if self.tracer.in_op {
            if r.is_ok() {
                self.tracer.seg.cas_ok += 1;
            } else {
                self.tracer.seg.cas_fail += 1;
            }
        }
        r
    }
    fn delay(&mut self, cycles: u64) {
        self.tracer.seg.backoff += u64::from(self.tracer.in_op);
        self.inner.delay(cycles)
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn step(&mut self, point: StepPoint) {
        if self.tracer.in_op {
            let now = self.inner.now();
            self.tracer.step(point, now);
        }
        self.inner.step(point)
    }
    fn yield_now(&mut self) {
        self.tracer.seg.backoff += u64::from(self.tracer.in_op);
        self.inner.yield_now()
    }
    fn park_micros(&mut self, micros: u64) {
        self.tracer.seg.backoff += u64::from(self.tracer.in_op);
        self.inner.park_micros(micros)
    }
    fn wait_on(&mut self, watches: &[(Addr, Word)], max_park_micros: u64) {
        self.inner.wait_on(watches, max_park_micros)
    }
    fn notify(&mut self, addr: Addr) {
        self.tracer.seg.notify += u64::from(self.tracer.in_op);
        self.inner.notify(addr)
    }
}

/// The per-phase split of one uncontended k=1 `fetch_add`.
pub struct SelfCheck {
    /// `(phase, counts)` for every phase that issued an op.
    pub rows: Vec<(Phase, Counts)>,
    /// The ledger's total.
    pub ledger: Counts,
    /// What a `CountingPort` under the ledger saw for the same op.
    pub counting: (u64, u64, u64),
}

impl SelfCheck {
    /// The ledger's totals equal the `CountingPort` totals.
    pub fn conserved(&self) -> bool {
        (self.ledger.reads, self.ledger.writes, self.ledger.cas()) == self.counting
    }

    /// The ROADMAP baseline: 9 reads, 8 writes, 5 CAS.
    pub fn matches_baseline(&self) -> bool {
        self.counting == (9, 8, 5)
    }
}

/// Run one warm, uncontended k=1 `fetch_add` through a ledger stacked on a
/// [`CountingPort`] and compare the two.
pub fn k1_self_check() -> SelfCheck {
    let ops = StmOps::new(0, 4, 1, 4, StmConfig::default());
    let layout = *ops.stm().layout();
    let machine = HostMachine::new(layout.words_needed(), 1);
    let tracer = Tracer::new(vec![Region::of(&layout, 0)], 1, 1);
    let mut port = TracePort::new(CountingPort::new(machine.port(0)), tracer);
    ops.fetch_add(&mut port, 0, 1); // warm-up: compiles and caches the plan
    port.inner.reset();
    port.begin_op(0, Phase::Plan);
    ops.fetch_add(&mut port, 0, 1);
    port.end_op();
    let c = port.inner.counts();
    let rows = Phase::ALL
        .iter()
        .map(|&p| (p, port.tracer.phases[p as usize].counts))
        .filter(|(_, c)| c.memops() > 0)
        .collect();
    SelfCheck {
        rows,
        ledger: port.tracer.total_counts(),
        counting: (c.reads, c.writes, c.cas_ok + c.cas_failed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_fetch_add_is_attributed_in_full() {
        let sc = k1_self_check();
        assert!(
            sc.conserved(),
            "ledger {:?} vs counting {:?}",
            sc.ledger,
            sc.counting
        );
        assert_eq!(sc.ledger.memops(), 22);
        let phases: Vec<&str> = sc.rows.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(
            phases,
            ["publish", "acquire", "decide", "agree", "install", "release", "finish"]
        );
    }
}
