//! The bank workload: 64 cache-resident accounts in 8 branches of 8 plus a
//! fee counter under static and dynamic transactions, and 16 durable
//! accounts whose transfers are journaled before they install.
//!
//! Transfers stay inside a branch, a dynamic audit reads one branch (whose
//! balance is invariant), and static snapshot audits read all 64 accounts.
//! The durable group journals to stable storage in memory, so the journal's
//! own CPU path is measured without the device's latency.

use std::sync::Arc;

use stm_core::durable::{recover, DurableMem, MemJournal};
use stm_core::dynamic::DynamicStm;
use stm_core::export::MetricsRegistry;
use stm_core::flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use stm_core::machine::host::HostMachine;
use stm_core::ops::StmOps;
use stm_core::stm::{StmConfig, TxOptions, TxSpec};
use stm_core::word::{cell_value, Word};

use crate::clock::ticks;
use crate::measure::{Client, Recorder};
use crate::rng::{seeded, Draw};
use crate::trace::{Phase, Probe, Region};

/// Volatile accounts (cells `0..ACCOUNTS`); cell `ACCOUNTS` is the fee
/// counter.
const ACCOUNTS: usize = 64;
/// Durable accounts.
const DURABLE: usize = 16;
/// Accounts per branch.
const BRANCH: usize = 8;
/// Every account's opening balance.
const OPENING: u32 = 1_000_000;
/// Operations in each client's pre-generated stream.
const STREAM: usize = 1 << 16;
/// Every volatile account, in ascending order (the audit data set).
const ALL_ACCOUNTS: [usize; ACCOUNTS] = {
    let mut a = [0; ACCOUNTS];
    let mut i = 0;
    while i < ACCOUNTS {
        a[i] = i;
        i += 1;
    }
    a
};
/// Client 0 folds the flight recorders into the metrics registry this often.
const SNAPSHOT_EVERY: u64 = 4096;

/// Static two-account transfer (`fetch_add_many`, k=2).
pub const TRANSFER: usize = 0;
/// Static eight-account batch (`fetch_add_many`, k=8).
pub const BATCH: usize = 1;
/// Fee counter bump (`fetch_add`, k=1).
pub const FEE: usize = 2;
/// Dynamic conditional transfer (`DynamicStm::run`, flight recorder on).
pub const DYN_TRANSFER: usize = 3;
/// Static snapshot audit of every account.
pub const SNAPSHOT: usize = 4;
/// Read-only dynamic audit of one branch.
pub const DYN_AUDIT: usize = 5;
/// Journaled transfer between durable accounts.
pub const DURABLE_TRANSFER: usize = 6;
/// Class names, by class index.
pub const CLASSES: [&str; 7] = [
    "transfer",
    "batch8",
    "fee",
    "dyn_transfer",
    "snapshot",
    "dyn_audit",
    "durable",
];
/// Mix in ops per thousand, by class index.
const MIX: [u64; 7] = [300, 100, 100, 250, 60, 185, 5];

/// The two instances, their machine, the journal and the registry.
pub struct World {
    /// Volatile accounts (dynamic and static transactions).
    pub dstm: DynamicStm,
    /// Durable accounts.
    pub durable: StmOps,
    /// The machine both instances live in.
    pub machine: HostMachine,
    /// The flight-recorder registry.
    pub registry: MetricsRegistry,
    storage: DurableMem,
    base_image: Vec<Word>,
}

/// Build both instances and open every account.
pub fn build_world(clients: usize) -> World {
    let dstm = DynamicStm::new(0, ACCOUNTS + 1, clients, StmConfig::default());
    let base = dstm.stm().layout().end();
    let durable = StmOps::new(base, DURABLE, clients, 2, StmConfig::default());
    let machine = HostMachine::new(durable.stm().layout().end(), clients);
    let mut port = machine.port(0);
    for c in 0..ACCOUNTS {
        dstm.init_cell(&mut port, c, OPENING);
    }
    for c in 0..DURABLE {
        durable.stm().init_cell(&mut port, c, OPENING);
    }
    let base_image = (0..DURABLE)
        .map(|c| durable.stm().read_cell_word(&mut port, c))
        .collect();
    World {
        dstm,
        durable,
        machine,
        registry: MetricsRegistry::new(clients, DEFAULT_FLIGHT_CAPACITY),
        storage: DurableMem::new(),
        base_image,
    }
}

impl World {
    /// Each client's own records in both instances.
    pub fn regions(&self, clients: usize) -> Vec<Vec<Region>> {
        (0..clients)
            .map(|p| {
                vec![
                    Region::of(self.dstm.stm().layout(), p),
                    Region::of(self.durable.stm().layout(), p),
                ]
            })
            .collect()
    }

    /// A client over fresh handles (each with its own plan cache).
    pub fn client(&self, stream: Arc<[BankOp]>, client: usize) -> BankClient {
        BankClient {
            dstm: self.dstm.clone(),
            durable: self.durable.clone(),
            journal: self.storage.handle(),
            recorder: self.registry.recorder(client),
            registry: (client == 0).then(|| self.registry.clone()),
            stream,
            pos: 0,
            stats: BankStats::default(),
        }
    }

    /// Journal bytes written so far.
    pub fn journal_bytes(&self) -> u64 {
        self.storage.bytes().len() as u64
    }

    /// Quiescent checks: conservation in both groups, the fee counter equals
    /// the committed fee ops, and replaying the journal over the opening
    /// image reproduces every live durable balance.
    pub fn check(&self, fee_ops: u64) -> Vec<String> {
        let mut port = self.machine.port(0);
        let mut failures = Vec::new();
        let volatile: u64 = (0..ACCOUNTS)
            .map(|c| u64::from(self.dstm.read_cell(&mut port, c)))
            .sum();
        if volatile != ACCOUNTS as u64 * u64::from(OPENING) {
            failures.push(format!("volatile accounts sum to {volatile}"));
        }
        let fee = self.dstm.read_cell(&mut port, ACCOUNTS);
        if u64::from(fee) != fee_ops {
            failures.push(format!("fee counter {fee} != {fee_ops} committed fee ops"));
        }
        let live: Vec<u32> = (0..DURABLE)
            .map(|c| self.durable.stm().read_cell(&mut port, c))
            .collect();
        let durable: u64 = live.iter().map(|&v| u64::from(v)).sum();
        if durable != DURABLE as u64 * u64::from(OPENING) {
            failures.push(format!("durable accounts sum to {durable}"));
        }
        let mut cells = self.base_image.clone();
        let report = recover(&mut cells, &self.storage.bytes());
        let recovered: Vec<u32> = cells.iter().map(|&w| cell_value(w)).collect();
        if recovered != live || report.tail_discarded != 0 {
            failures.push(format!(
                "recovery gave {recovered:?} (tail {}), live is {live:?}",
                report.tail_discarded
            ));
        }
        failures
    }
}

/// One pre-generated bank operation: the first of `k` distinct accounts
/// pays each of the others `amount`; `cells` are the accounts in ascending
/// order and `deltas` their wrapping balance changes.
#[derive(Debug, Clone, Copy)]
pub struct BankOp {
    class: u8,
    k: u8,
    amount: u32,
    from: u8,
    to: u8,
    /// The accounts a dynamic audit reads, as a half-open range.
    audit: (u8, u8),
    cells: [u8; 8],
    deltas: [u32; 8],
}

impl BankOp {
    /// The same operation with money flowing the other way.
    fn reversed(mut self) -> BankOp {
        for d in &mut self.deltas {
            *d = d.wrapping_neg();
        }
        std::mem::swap(&mut self.from, &mut self.to);
        self
    }
}

/// Pre-generate a client's op stream; transfers and dynamic audits range
/// over one branch. The stream is
/// replayed cyclically, so its second half reverses every transfer of the
/// first: each cycle moves no net money, and no balance drifts below zero
/// however long a run replays it.
pub fn stream(seed: u64, client: usize) -> Arc<[BankOp]> {
    let mut rng = seeded(seed, 0xBA4C + client as u64);
    let half: Vec<BankOp> = (0..STREAM / 2)
        .map(|_| {
            let roll = rng.below(1000);
            let mut class = 0;
            let mut below = MIX[0];
            while roll >= below {
                class += 1;
                below += MIX[class];
            }
            let k = match class {
                TRANSFER | DYN_TRANSFER | DURABLE_TRANSFER => 2,
                BATCH => 8,
                _ => 1,
            };
            let (n, base) = match class {
                DURABLE_TRANSFER => (DURABLE, 0),
                _ => (
                    BRANCH,
                    BRANCH * rng.below((ACCOUNTS / BRANCH) as u64) as usize,
                ),
            };
            let amount = 1 + rng.below(100) as u32;
            let accounts: Vec<usize> = rng
                .distinct(k.max(2), n as u64)
                .into_iter()
                .map(|a| base + a)
                .collect();
            let mut pairs: Vec<(usize, u32)> = accounts[..k]
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let pays = amount.wrapping_mul(k as u32 - 1).wrapping_neg();
                    (a, if i == 0 { pays } else { amount })
                })
                .collect();
            pairs.sort_unstable();
            let (mut cells, mut deltas) = ([0; 8], [0; 8]);
            for (i, (c, d)) in pairs.into_iter().enumerate() {
                cells[i] = c as u8;
                deltas[i] = d;
            }
            let audit = if class == DYN_AUDIT {
                base..base + n
            } else {
                0..0
            };
            BankOp {
                class: class as u8,
                k: k as u8,
                amount,
                from: accounts[0] as u8,
                to: accounts[1] as u8,
                audit: (audit.start as u8, audit.end as u8),
                cells,
                deltas,
            }
        })
        .collect();
    half.iter()
        .copied()
        .chain(half.iter().map(|op| op.reversed()))
        .collect()
}

/// Per-client counters beyond latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankStats {
    /// Wrong answers and transaction errors, by class.
    pub wrong: [u64; 7],
    /// Fee ops committed.
    pub fee_ops: u64,
    /// Dynamic transactions committed.
    pub dyn_commits: u64,
    /// Dynamic body executions.
    pub body_runs: u64,
    /// Their body executions.
    pub audit_runs: u64,
    /// Audit body executions that saw a sum other than the invariant total.
    pub inconsistent_runs: u64,
}

impl BankStats {
    /// Field-wise sum.
    pub fn sum(it: impl Iterator<Item = BankStats>) -> BankStats {
        it.fold(BankStats::default(), |a, b| BankStats {
            wrong: std::array::from_fn(|i| a.wrong[i] + b.wrong[i]),
            fee_ops: a.fee_ops + b.fee_ops,
            dyn_commits: a.dyn_commits + b.dyn_commits,
            body_runs: a.body_runs + b.body_runs,
            audit_runs: a.audit_runs + b.audit_runs,
            inconsistent_runs: a.inconsistent_runs + b.inconsistent_runs,
        })
    }

    /// Field-wise difference from an earlier reading.
    pub fn minus(&self, before: &BankStats) -> BankStats {
        BankStats {
            wrong: std::array::from_fn(|i| self.wrong[i] - before.wrong[i]),
            fee_ops: self.fee_ops - before.fee_ops,
            dyn_commits: self.dyn_commits - before.dyn_commits,
            body_runs: self.body_runs - before.body_runs,
            audit_runs: self.audit_runs - before.audit_runs,
            inconsistent_runs: self.inconsistent_runs - before.inconsistent_runs,
        }
    }
}

/// One closed-loop bank client.
pub struct BankClient {
    dstm: DynamicStm,
    durable: StmOps,
    journal: MemJournal,
    recorder: FlightRecorder,
    registry: Option<MetricsRegistry>,
    stream: Arc<[BankOp]>,
    pos: usize,
    /// Counters so far.
    pub stats: BankStats,
}

impl BankClient {
    /// Plan-cache `(hits, misses)` over this client's handles.
    pub fn plan_cache(&self) -> (u64, u64) {
        let (a, b) = (
            self.dstm.ops().plan_cache_stats(),
            self.durable.plan_cache_stats(),
        );
        (a.hits + b.hits, a.misses + b.misses)
    }

    fn op<P: Probe>(&mut self, port: &mut P, op: BankOp) -> bool {
        let ops = self.dstm.ops();
        let total = ACCOUNTS as u64 * u64::from(OPENING);
        let k = usize::from(op.k);
        let mut cells = [0usize; 8];
        for (c, &a) in cells.iter_mut().zip(&op.cells[..k]) {
            *c = usize::from(a);
        }
        let (cells, deltas) = (&cells[..k], &op.deltas[..k]);
        match op.class as usize {
            TRANSFER | BATCH => {
                ops.fetch_add_many(port, cells, deltas);
                true
            }
            FEE => {
                ops.fetch_add(port, ACCOUNTS, 1);
                self.stats.fee_ops += 1;
                true
            }
            DYN_TRANSFER => {
                let (from, to) = (usize::from(op.from), usize::from(op.to));
                let runs = &mut self.stats.body_runs;
                let r = self.dstm.run(
                    port,
                    |tx| {
                        *runs += 1;
                        let a = tx.read(from);
                        if a < op.amount {
                            return false;
                        }
                        let b = tx.read(to);
                        tx.write(from, a - op.amount);
                        tx.write(to, b + op.amount);
                        true
                    },
                    &mut TxOptions::new().observer(&mut self.recorder),
                );
                self.stats.dyn_commits += u64::from(r.is_ok());
                r.is_ok()
            }
            SNAPSHOT => {
                ops.snapshot(port, &ALL_ACCOUNTS)
                    .iter()
                    .map(|&v| u64::from(v))
                    .sum::<u64>()
                    == total
            }
            DYN_AUDIT => {
                let (lo, hi) = (usize::from(op.audit.0), usize::from(op.audit.1));
                let total = (hi - lo) as u64 * u64::from(OPENING);
                let s = &mut self.stats;
                let r = self.dstm.run(
                    port,
                    |tx| {
                        s.body_runs += 1;
                        s.audit_runs += 1;
                        let sum: u64 = (lo..hi).map(|c| u64::from(tx.read(c))).sum();
                        s.inconsistent_runs += u64::from(sum != total);
                        sum
                    },
                    &mut TxOptions::new().observer(&mut self.recorder),
                );
                s.dyn_commits += u64::from(r.is_ok());
                matches!(r, Ok((sum, _)) if sum == total)
            }
            _ => {
                let params: Vec<Word> = deltas.iter().map(|&x| Word::from(x)).collect();
                let spec = TxSpec::new(self.durable.builtins().add, &params, cells);
                self.durable
                    .run(
                        port,
                        &spec,
                        &mut TxOptions::new().journal(&mut self.journal),
                    )
                    .is_ok()
            }
        }
    }
}

impl Client for BankClient {
    fn run<P: Probe>(&mut self, port: &mut P, rec: &mut Recorder) {
        loop {
            let op = self.stream[self.pos % STREAM];
            self.pos += 1;
            let class = op.class as usize;
            let pre = match class {
                DYN_TRANSFER | DYN_AUDIT => Phase::Body,
                SNAPSHOT => Phase::FastRead,
                _ => Phase::Plan,
            };
            let t0 = ticks();
            port.begin_op(class, pre);
            let ok = self.op(port, op);
            port.end_op();
            let t1 = ticks();
            self.stats.wrong[class] += u64::from(!ok);
            if let Some(reg) = &self.registry {
                if (self.pos as u64).is_multiple_of(SNAPSHOT_EVERY) {
                    let _ = reg.snapshot();
                }
            }
            if !rec.record(class, t0, t1) {
                return;
            }
        }
    }
}
