//! Conflict attribution: fold flight-recorder events into a blame table.
//!
//! The Shavit–Touitou protocol makes every abort *attributable*: a failing
//! acquisition names the cell it lost and (when helping is on) the owner
//! it lost to. [`Attribution`] folds a stream of [`FlightEvent`]s into
//! per-cell abort/help counts with cycles lost, and victim-op → aborter-op
//! pair counts — the "who keeps killing whom, where, and how expensive is
//! it" table that Kuznetsov–Ravi-style abort-cost analyses need. It is
//! merged into [`TxMetrics`](crate::metrics::TxMetrics) so existing
//! end-of-run reports pick it up, and exported live by
//! [`MetricsRegistry`](crate::export::MetricsRegistry).

use std::collections::BTreeMap;

use crate::flight::{FlightEvent, NO_OP_TAG};
use crate::observe::TxEvent;

/// Per-cell blame counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellBlame {
    /// Aborts in which acquiring this cell failed.
    pub aborts: u64,
    /// Help episodes triggered by conflicts on this cell.
    pub helps: u64,
    /// Total attempt cycles thrown away by those aborts (virtual cycles on
    /// the sim; 0 on hosts without a cycle source).
    pub cycles_lost: u64,
}

impl CellBlame {
    /// Mean cycles lost per abort on this cell (0 when no aborts).
    pub fn mean_cycles_lost(&self) -> f64 {
        if self.aborts == 0 {
            0.0
        } else {
            self.cycles_lost as f64 / self.aborts as f64
        }
    }
}

/// Blame table folded from flight-recorder events.
///
/// All fields are integer counters, so snapshots compare with `==` and
/// merge associatively across threads and time windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    cells: BTreeMap<u64, CellBlame>,
    pairs: BTreeMap<(u32, u32), u64>,
    aborts: u64,
    helps: u64,
    cycles_lost: u64,
    escalations: u64,
    forced_commits: u64,
    deferrals: u64,
    delta_commits: u64,
    cell_allocs: u64,
    cell_frees: u64,
}

impl Attribution {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `events` (one recorder's drain, oldest first) and return the
    /// resulting table.
    pub fn from_events(events: &[FlightEvent]) -> Self {
        let mut a = Self::new();
        a.fold(events);
        a
    }

    /// Fold one drain worth of events into the table.
    ///
    /// `Conflict` charges the named cell (and the victim-op → aborter-op
    /// pair when the owner is known); the `Aborted` that follows on the
    /// same proc charges the attempt's lost cycles to that cell;
    /// `HelpBegin` after a conflict credits the cell with a help episode.
    /// Per-proc pending state is local to the call, so events for one
    /// abort must arrive in the same drain to be cycle-attributed — counts
    /// themselves are never lost across drains.
    pub fn fold(&mut self, events: &[FlightEvent]) {
        // proc -> cell of its most recent unresolved conflict.
        let mut pending: BTreeMap<usize, Option<u64>> = BTreeMap::new();
        for rec in events {
            match rec.event {
                TxEvent::Conflict { proc, cell, owner, .. } => {
                    self.aborts += 1;
                    let cell = cell.map(|c| c as u64);
                    if let Some(c) = cell {
                        self.cells.entry(c).or_default().aborts += 1;
                    }
                    if owner.is_some() {
                        *self.pairs.entry((rec.op, rec.owner_op)).or_default() += 1;
                    }
                    pending.insert(proc, cell);
                }
                TxEvent::HelpBegin { proc, .. } => {
                    self.helps += 1;
                    if let Some(Some(c)) = pending.get(&proc) {
                        self.cells.entry(*c).or_default().helps += 1;
                    }
                }
                TxEvent::Aborted { proc, .. } => {
                    self.cycles_lost += rec.cycles;
                    if let Some(Some(c)) = pending.remove(&proc) {
                        self.cells.entry(c).or_default().cycles_lost += rec.cycles;
                    }
                }
                TxEvent::Committed { proc, .. } => {
                    pending.remove(&proc);
                }
                TxEvent::StarvationEscalated { .. } => self.escalations += 1,
                TxEvent::ForcedCommit { .. } => self.forced_commits += 1,
                TxEvent::ConflictDeferred { .. } => self.deferrals += 1,
                TxEvent::DeltaCommitted { .. } => self.delta_commits += 1,
                TxEvent::CellAlloc { .. } => self.cell_allocs += 1,
                TxEvent::CellFree { .. } => self.cell_frees += 1,
                _ => {}
            }
        }
    }

    /// Merge another table into this one (associative, commutative).
    pub fn merge(&mut self, other: &Attribution) {
        for (&cell, blame) in &other.cells {
            let e = self.cells.entry(cell).or_default();
            e.aborts += blame.aborts;
            e.helps += blame.helps;
            e.cycles_lost += blame.cycles_lost;
        }
        for (&pair, &n) in &other.pairs {
            *self.pairs.entry(pair).or_default() += n;
        }
        self.aborts += other.aborts;
        self.helps += other.helps;
        self.cycles_lost += other.cycles_lost;
        self.escalations += other.escalations;
        self.forced_commits += other.forced_commits;
        self.deferrals += other.deferrals;
        self.delta_commits += other.delta_commits;
        self.cell_allocs += other.cell_allocs;
        self.cell_frees += other.cell_frees;
    }

    /// True when nothing has been attributed yet.
    pub fn is_empty(&self) -> bool {
        self.aborts == 0
            && self.helps == 0
            && self.cells.is_empty()
            && self.pairs.is_empty()
            && self.escalations == 0
            && self.forced_commits == 0
            && self.deferrals == 0
            && self.delta_commits == 0
            && self.cell_allocs == 0
            && self.cell_frees == 0
    }

    /// Total attributed aborts (conflict events folded).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Total help episodes folded.
    pub fn helps(&self) -> u64 {
        self.helps
    }

    /// Total attempt cycles lost to aborts.
    pub fn cycles_lost(&self) -> u64 {
        self.cycles_lost
    }

    /// Starvation escalations folded.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Forced-tier commits folded.
    pub fn forced_commits(&self) -> u64 {
        self.forced_commits
    }

    /// Deferred conflicts (helpers backing off an escalated owner) folded.
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Delta-revalidation commits folded.
    pub fn delta_commits(&self) -> u64 {
        self.delta_commits
    }

    /// Arena cell-span allocations folded.
    pub fn cell_allocs(&self) -> u64 {
        self.cell_allocs
    }

    /// Arena cell-span frees folded.
    pub fn cell_frees(&self) -> u64 {
        self.cell_frees
    }

    /// Per-cell blame counters, keyed by cell index.
    pub fn cells(&self) -> &BTreeMap<u64, CellBlame> {
        &self.cells
    }

    /// Victim-op → aborter-op conflict counts ([`NO_OP_TAG`] = untagged).
    pub fn pairs(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.pairs
    }

    /// The `k` hottest cells by abort count (descending; ties by cell
    /// index for determinism).
    pub fn top_cells(&self, k: usize) -> Vec<(u64, CellBlame)> {
        let mut v: Vec<(u64, CellBlame)> = self.cells.iter().map(|(&c, &b)| (c, b)).collect();
        v.sort_by(|a, b| b.1.aborts.cmp(&a.1.aborts).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Multi-line human-readable blame summary (top `k` cells + pairs).
    pub fn summary(&self, k: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "attribution: {} aborts, {} helps, {} cycles lost",
            self.aborts, self.helps, self.cycles_lost
        );
        if self.escalations + self.forced_commits + self.deferrals + self.delta_commits > 0 {
            let _ = writeln!(
                s,
                "  fairness: {} escalations, {} forced commits, {} deferrals, {} delta commits",
                self.escalations, self.forced_commits, self.deferrals, self.delta_commits
            );
        }
        if self.cell_allocs + self.cell_frees > 0 {
            let _ = writeln!(
                s,
                "  arena: {} allocs, {} frees",
                self.cell_allocs, self.cell_frees
            );
        }
        for (cell, blame) in self.top_cells(k) {
            let _ = writeln!(
                s,
                "  cell {cell:>4}: {:>6} aborts  {:>5} helps  {:>8} cyc lost  ({:.1} cyc/abort)",
                blame.aborts,
                blame.helps,
                blame.cycles_lost,
                blame.mean_cycles_lost()
            );
        }
        let mut pairs: Vec<((u32, u32), u64)> = self.pairs.iter().map(|(&p, &n)| (p, n)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((victim, aborter), n) in pairs.into_iter().take(k) {
            let name = |t: u32| {
                if t == NO_OP_TAG {
                    "untagged".to_string()
                } else {
                    format!("op{t}")
                }
            };
            let _ = writeln!(s, "  {} aborted-by {}: {n}", name(victim), name(aborter));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::observe::TxObserver;

    #[test]
    fn folds_conflict_help_abort_chain() {
        let mut rec = FlightRecorder::new(0, 64);
        rec.set_op(3);
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 0, at: 100 });
        rec.on(&TxEvent::Conflict { proc: 0, cell: Some(5), owner: Some(1), at: 150 });
        rec.on(&TxEvent::HelpBegin { proc: 0, owner: 1, at: 150 });
        rec.on(&TxEvent::HelpEnd { proc: 0, owner: 1, at: 160 });
        rec.on(&TxEvent::Aborted { proc: 0, at_pos: 0, at: 180 });
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 180 });
        rec.on(&TxEvent::Committed { proc: 0, attempts: 2, at: 250 });
        let attr = Attribution::from_events(&rec.drain());
        assert_eq!(attr.aborts(), 1);
        assert_eq!(attr.helps(), 1);
        assert_eq!(attr.cycles_lost(), 80); // 180 - 100
        let blame = attr.cells()[&5];
        assert_eq!(blame.aborts, 1);
        assert_eq!(blame.helps, 1);
        assert_eq!(blame.cycles_lost, 80);
        // Victim op 3 aborted by whatever owner proc 1 was running
        // (untagged here: no board attached).
        assert_eq!(attr.pairs()[&(3, NO_OP_TAG)], 1);
    }

    #[test]
    fn merge_is_additive_and_top_cells_rank() {
        let mut rec = FlightRecorder::new(0, 64);
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 0, at: 0 });
        rec.on(&TxEvent::Conflict { proc: 0, cell: Some(1), owner: None, at: 5 });
        rec.on(&TxEvent::Aborted { proc: 0, at_pos: 0, at: 10 });
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 10 });
        rec.on(&TxEvent::Conflict { proc: 0, cell: Some(2), owner: None, at: 12 });
        rec.on(&TxEvent::Aborted { proc: 0, at_pos: 0, at: 20 });
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 2, at: 20 });
        rec.on(&TxEvent::Conflict { proc: 0, cell: Some(2), owner: None, at: 22 });
        rec.on(&TxEvent::Aborted { proc: 0, at_pos: 0, at: 30 });
        let one = Attribution::from_events(&rec.drain());
        let mut both = one.clone();
        both.merge(&one);
        assert_eq!(both.aborts(), 2 * one.aborts());
        let top = both.top_cells(1);
        assert_eq!(top[0].0, 2, "cell 2 has the most aborts");
        assert_eq!(top[0].1.aborts, 4);
        assert!(!both.summary(4).is_empty());
    }

    #[test]
    fn empty_and_eq() {
        assert!(Attribution::new().is_empty());
        assert_eq!(Attribution::new(), Attribution::default());
    }
}
