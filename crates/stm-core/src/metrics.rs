//! Aggregating transaction metrics: log2-bucket histograms, hot-cell
//! contention counters, and helping-chain accounting.
//!
//! [`TxMetrics`] is a [`TxObserver`] that condenses the lifecycle event
//! stream into the quantities the paper's evaluation argues about:
//!
//! * **attempts-to-commit** — how many attempts each committed transaction
//!   needed (1 = first try; the tail measures retry pressure);
//! * **cycles-per-attempt** — virtual cycles from attempt publication to its
//!   terminal commit/abort (host runs report 0-cycle durations);
//! * **help duration** — cycles spent inside helping spans;
//! * **hot cells** — per-address conflict counts (which cells fail
//!   transactions), the contention heatmap;
//! * **helping depth** — the observer-side check of the paper's one-level
//!   *non-redundant helping* bound: helpers never recurse, so the observed
//!   maximum depth of nested `HelpBegin`/`HelpEnd` spans must be ≤ 1.
//!
//! Observers are per-port (one processor's view); aggregate a
//! multiprocessor run by [`TxMetrics::merge`]-ing the per-processor
//! instances.

use std::collections::BTreeMap;
use std::fmt;

use crate::attribution::Attribution;
use crate::observe::{TxEvent, TxObserver};
use crate::word::CellIdx;

/// Number of buckets in a [`Log2Histogram`]: one for zero plus one per
/// possible `floor(log2(v)) + 1` of a non-zero `u64`.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-size histogram over `u64` values with logarithmic buckets.
///
/// Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds the values
/// in `[2^(i-1), 2^i)`. Recording is O(1) with no allocation, so the
/// histogram is cheap enough to live on the transaction fast path.
#[derive(Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; LOG2_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `value` (`0` for zero, else `floor(log2) + 1`).
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_low(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            _ => 1u64 << (i - 1),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Observations in bucket `i` (see [`Log2Histogram::bucket_of`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// `(bucket_low, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_low(i), n))
            .collect()
    }

    /// Estimated `p`-th percentile (`0.0 ..= 100.0`) by linear
    /// interpolation inside the owning log2 bucket.
    ///
    /// The rank-selected bucket `[2^(i-1), 2^i)` is assumed uniformly
    /// filled; the estimate interpolates by the rank's position among that
    /// bucket's observations, clamped to the recorded [`max`](Self::max)
    /// so the top bucket (whose nominal width can exceed the data) never
    /// overstates the tail. Returns 0.0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        // 1-based rank of the order statistic: ceil(p/100 * count), >= 1.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let low = Self::bucket_low(i) as f64;
                // Exclusive upper bound of bucket i; bucket 64's nominal
                // 2^64 would overflow `bucket_low(65)`, and `max + 1`
                // bounds it tighter anyway.
                let high = if i + 1 < LOG2_BUCKETS {
                    (Self::bucket_low(i + 1) as f64).min(self.max as f64 + 1.0)
                } else {
                    self.max as f64 + 1.0
                };
                let into = (rank - seen) as f64 / n as f64;
                return (low + (high - low) * into).min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("max", &self.max)
            .field("nonzero_buckets", &self.nonzero_buckets())
            .finish()
    }
}

impl fmt::Display for Log2Histogram {
    /// Compact one-line rendering: `n=<count> mean=<mean> max=<max> [lo:n ...]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.1} max={} [", self.count, self.mean(), self.max)?;
        for (k, (low, n)) in self.nonzero_buckets().iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "≥{low}:{n}")?;
        }
        write!(f, "]")
    }
}

/// Metrics accumulated from one processor's transaction lifecycle events.
///
/// # Examples
///
/// ```
/// use stm_core::machine::host::HostMachine;
/// use stm_core::metrics::TxMetrics;
/// use stm_core::ops::StmOps;
/// use stm_core::stm::{StmConfig, TxOptions, TxSpec};
///
/// let ops = StmOps::new(0, 8, 1, 4, StmConfig::default());
/// let machine = HostMachine::new(ops.stm().layout().words_needed(), 1);
/// let mut port = machine.port(0);
/// let mut metrics = TxMetrics::new();
/// for _ in 0..10 {
///     ops.stm()
///         .run(
///             &mut port,
///             &TxSpec::new(ops.builtins().add, &[1], &[0]),
///             &mut TxOptions::new().observer(&mut metrics),
///         )
///         .unwrap();
/// }
/// assert_eq!(metrics.commits(), 10);
/// assert_eq!(metrics.attempts_to_commit.mean(), 1.0); // uncontended
/// assert!(metrics.helping_is_non_redundant());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxMetrics {
    /// Histogram of attempts needed per committed transaction.
    pub attempts_to_commit: Log2Histogram,
    /// Histogram of cycles from attempt publication to its terminal event.
    pub cycles_per_attempt: Log2Histogram,
    /// Histogram of cycles spent per helping span.
    pub help_cycles: Log2Histogram,
    /// Histogram of contention-manager wait amounts (spin cycles or park
    /// microseconds; yields record 0). Managed retry paths only.
    pub backoff_waits: Log2Histogram,
    /// Histogram of journal flush latencies (virtual cycles on the
    /// simulator, nanoseconds on the host). Durable backends only.
    pub flush_latency: Log2Histogram,
    /// Histogram of cell installs replayed per recovery pass.
    pub recovery_replays: Log2Histogram,
    /// Conflict blame folded from flight-recorder drains (see
    /// [`Attribution`]); empty unless the workload merges one in via
    /// [`TxMetrics::absorb_attribution`].
    pub attribution: Attribution,
    commits: u64,
    aborts: u64,
    conflicts: u64,
    helps: u64,
    write_backs: u64,
    releases: u64,
    starvation_escalations: u64,
    forced_commits: u64,
    conflicts_deferred: u64,
    delta_commits: u64,
    retry_blocks: u64,
    retry_wakeups: u64,
    op_panics: u64,
    journal_records: u64,
    journal_bytes: u64,
    contention: BTreeMap<CellIdx, u64>,
    attempt_start: Option<u64>,
    help_start: Option<u64>,
    help_depth: u32,
    max_help_depth: u32,
}

impl TxMetrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Committed transactions observed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Failed (aborted) attempts observed.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Conflict events observed (equals [`TxMetrics::aborts`] by the event
    /// grammar; kept separate as a cross-check).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Helping spans entered.
    pub fn helps(&self) -> u64 {
        self.helps
    }

    /// Values installed (write-backs; logical reads excluded).
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// Ownership releases performed.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Total attempts observed (commits + aborts).
    pub fn attempts(&self) -> u64 {
        self.commits + self.aborts
    }

    /// Starvation escalations to help-first mode (managed retry paths only).
    pub fn starvation_escalations(&self) -> u64 {
        self.starvation_escalations
    }

    /// Commits that landed at the forced (escalated-past-threshold)
    /// priority tier.
    pub fn forced_commits(&self) -> u64 {
        self.forced_commits
    }

    /// Times a helper declined to fail a higher-priority owner's live
    /// transaction.
    pub fn conflicts_deferred(&self) -> u64 {
        self.conflicts_deferred
    }

    /// Dynamic commits that landed via delta-revalidation (read log
    /// refreshed in place instead of a full retry).
    pub fn delta_commits(&self) -> u64 {
        self.delta_commits
    }

    /// Times a blocking dynamic transaction parked on its read set.
    pub fn retry_blocks(&self) -> u64 {
        self.retry_blocks
    }

    /// Times a parked blocking transaction returned from its park to re-run.
    pub fn retry_wakeups(&self) -> u64 {
        self.retry_wakeups
    }

    /// Commit programs contained after panicking mid-transaction.
    pub fn op_panics(&self) -> u64 {
        self.op_panics
    }

    /// Journal flushes observed (durable backends only).
    pub fn journal_flushes(&self) -> u64 {
        self.flush_latency.count()
    }

    /// Redo records made durable across all observed flushes.
    pub fn journal_records(&self) -> u64 {
        self.journal_records
    }

    /// Encoded journal bytes made durable across all observed flushes.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    /// Recovery passes observed.
    pub fn recoveries(&self) -> u64 {
        self.recovery_replays.count()
    }

    /// Deepest observed nesting of helping spans. The paper's non-redundant
    /// helping bound says helpers never help transitively, so this must
    /// never exceed 1.
    pub fn max_help_depth(&self) -> u32 {
        self.max_help_depth
    }

    /// Whether the observed helping chains respected the one-level bound.
    pub fn helping_is_non_redundant(&self) -> bool {
        self.max_help_depth <= 1
    }

    /// Per-cell conflict counts (the contention heatmap), every observed
    /// cell, ascending cell index.
    pub fn contention(&self) -> &BTreeMap<CellIdx, u64> {
        &self.contention
    }

    /// The `k` most conflicted cells as `(cell, conflicts)`, hottest first
    /// (ties broken by ascending cell index).
    pub fn hot_cells(&self, k: usize) -> Vec<(CellIdx, u64)> {
        let mut v: Vec<(CellIdx, u64)> = self.contention.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
        v.truncate(k);
        v
    }

    /// Fold another processor's metrics into this one (aggregate a
    /// multiprocessor run). In-flight attempt/help timing state is not
    /// merged — merge finished observers.
    pub fn merge(&mut self, other: &TxMetrics) {
        self.attempts_to_commit.merge(&other.attempts_to_commit);
        self.cycles_per_attempt.merge(&other.cycles_per_attempt);
        self.help_cycles.merge(&other.help_cycles);
        self.backoff_waits.merge(&other.backoff_waits);
        self.flush_latency.merge(&other.flush_latency);
        self.recovery_replays.merge(&other.recovery_replays);
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.conflicts += other.conflicts;
        self.helps += other.helps;
        self.write_backs += other.write_backs;
        self.releases += other.releases;
        self.starvation_escalations += other.starvation_escalations;
        self.forced_commits += other.forced_commits;
        self.conflicts_deferred += other.conflicts_deferred;
        self.delta_commits += other.delta_commits;
        self.retry_blocks += other.retry_blocks;
        self.retry_wakeups += other.retry_wakeups;
        self.op_panics += other.op_panics;
        self.journal_records += other.journal_records;
        self.journal_bytes += other.journal_bytes;
        for (&c, &n) in &other.contention {
            *self.contention.entry(c).or_default() += n;
        }
        self.attribution.merge(&other.attribution);
        self.max_help_depth = self.max_help_depth.max(other.max_help_depth);
    }

    /// Fold a flight-recorder blame table into these metrics so existing
    /// reports (summary, merge trees) carry conflict attribution.
    pub fn absorb_attribution(&mut self, attr: &Attribution) {
        self.attribution.merge(attr);
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "commits {}  aborts {}  helps {}  installs {}  releases {}\n",
            self.commits, self.aborts, self.helps, self.write_backs, self.releases
        ));
        out.push_str(&format!("attempts/commit:   {}\n", self.attempts_to_commit));
        out.push_str(&format!("cycles/attempt:    {}\n", self.cycles_per_attempt));
        out.push_str(&format!("help cycles:       {}\n", self.help_cycles));
        if self.backoff_waits.count() > 0 || self.starvation_escalations > 0 || self.op_panics > 0
        {
            out.push_str(&format!(
                "contention mgmt:   backoff-waits {} escalations {} op-panics {}\n",
                self.backoff_waits.count(),
                self.starvation_escalations,
                self.op_panics
            ));
        }
        if self.forced_commits > 0 || self.conflicts_deferred > 0 || self.delta_commits > 0 {
            out.push_str(&format!(
                "fairness:          forced-commits {} deferrals {} delta-commits {}\n",
                self.forced_commits, self.conflicts_deferred, self.delta_commits
            ));
        }
        if self.retry_blocks > 0 || self.retry_wakeups > 0 {
            out.push_str(&format!(
                "blocking:          parks {} wakeups {}\n",
                self.retry_blocks, self.retry_wakeups
            ));
        }
        if self.flush_latency.count() > 0 || self.recovery_replays.count() > 0 {
            out.push_str(&format!(
                "journal:           flushes {} records {} bytes {}\n",
                self.journal_flushes(),
                self.journal_records,
                self.journal_bytes
            ));
            out.push_str(&format!("flush latency:     {}\n", self.flush_latency));
            if self.recovery_replays.count() > 0 {
                out.push_str(&format!("recovery replays:  {}\n", self.recovery_replays));
            }
        }
        out.push_str(&format!(
            "help depth:        max {} ({})\n",
            self.max_help_depth,
            if self.helping_is_non_redundant() { "non-redundant bound held" } else { "BOUND VIOLATED" }
        ));
        let hot = self.hot_cells(8);
        if !hot.is_empty() {
            out.push_str("hot cells:        ");
            for (c, n) in hot {
                out.push_str(&format!(" c{c}:{n}"));
            }
            out.push('\n');
        }
        if !self.attribution.is_empty() {
            out.push_str(&self.attribution.summary(8));
        }
        out
    }
}

impl TxObserver for TxMetrics {
    #[inline]
    fn on(&mut self, ev: &TxEvent) {
        match *ev {
            TxEvent::AttemptBegin { at, .. } => self.attempt_start = Some(at),
            TxEvent::Conflict { cell, .. } => {
                self.conflicts += 1;
                if let Some(c) = cell {
                    *self.contention.entry(c).or_default() += 1;
                }
            }
            TxEvent::HelpBegin { at, .. } => {
                self.helps += 1;
                self.help_depth += 1;
                self.max_help_depth = self.max_help_depth.max(self.help_depth);
                if self.help_depth == 1 {
                    self.help_start = Some(at);
                }
            }
            TxEvent::HelpEnd { at, .. } => {
                if self.help_depth == 1 {
                    if let Some(t0) = self.help_start.take() {
                        self.help_cycles.record(at.saturating_sub(t0));
                    }
                }
                self.help_depth = self.help_depth.saturating_sub(1);
            }
            TxEvent::WriteBack { .. } => self.write_backs += 1,
            TxEvent::Released { .. } => self.releases += 1,
            TxEvent::Committed { attempts, at, .. } => {
                self.commits += 1;
                self.attempts_to_commit.record(attempts);
                if let Some(t0) = self.attempt_start.take() {
                    self.cycles_per_attempt.record(at.saturating_sub(t0));
                }
            }
            TxEvent::Aborted { at, .. } => {
                self.aborts += 1;
                if let Some(t0) = self.attempt_start.take() {
                    self.cycles_per_attempt.record(at.saturating_sub(t0));
                }
            }
            TxEvent::BackoffWait { amount, .. } => self.backoff_waits.record(amount),
            TxEvent::StarvationEscalated { .. } => self.starvation_escalations += 1,
            TxEvent::OpPanicked { .. } => self.op_panics += 1,
            TxEvent::JournalFlush { records, bytes, latency, .. } => {
                self.flush_latency.record(latency);
                self.journal_records += records;
                self.journal_bytes += bytes;
            }
            TxEvent::RecoveryReplayed { installed, .. } => self.recovery_replays.record(installed),
            TxEvent::ConflictDeferred { .. } => self.conflicts_deferred += 1,
            TxEvent::ForcedCommit { .. } => self.forced_commits += 1,
            TxEvent::DeltaCommitted { .. } => self.delta_commits += 1,
            TxEvent::RetryBlocked { .. } => self.retry_blocks += 1,
            TxEvent::RetryWoken { .. } => self.retry_wakeups += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_partition_u64() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for i in 1..LOG2_BUCKETS {
            assert_eq!(Log2Histogram::bucket_of(Log2Histogram::bucket_low(i)), i);
        }
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Log2Histogram::new();
        a.record(0);
        a.record(1);
        a.record(5);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 6);
        assert_eq!(a.max(), 5);
        assert_eq!(a.bucket(0), 1);
        assert_eq!(a.bucket(3), 1); // 5 ∈ [4, 8)
        let mut b = Log2Histogram::new();
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 100);
        assert_eq!(a.bucket(3), 2);
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (1, 1), (4, 2), (64, 1)]);
    }

    #[test]
    fn top_bucket_saturates_and_percentile_clamps() {
        // Values at and beyond the top bucket's lower bound (2^63) land in
        // bucket 64, whose nominal width exceeds u64: recording must not
        // panic and every percentile must clamp to the observed max instead
        // of extrapolating into the bucket's nominal 2^64 upper bound.
        let mut h = Log2Histogram::new();
        for v in [1u64 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket(64), 4);
        assert_eq!(h.max(), u64::MAX);
        // The sum has long overflowed; it saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
        for p in [0.0, 50.0, 99.0, 100.0] {
            let est = h.percentile(p);
            assert!(est.is_finite(), "p{p} not finite");
            assert!(
                est <= u64::MAX as f64,
                "p{p} escaped the observed range: {est}"
            );
        }
        assert_eq!(h.percentile(100.0), u64::MAX as f64);
        // Mixing in small values keeps the tail clamped and monotone.
        h.record(3);
        let p50 = h.percentile(50.0);
        let p100 = h.percentile(100.0);
        assert!(p50 <= p100);
        assert_eq!(p100, u64::MAX as f64);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        assert_eq!(Log2Histogram::new().percentile(50.0), 0.0);

        let mut h = Log2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Coarse log2 buckets: percentiles must be monotone, within the
        // observed range, and land in the right bucket's span.
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99, "monotone: {p50} {p90} {p99}");
        assert!(p99 <= 100.0, "clamped to max, got {p99}");
        assert!((32.0..=64.0).contains(&p50), "rank 50 is in [32,64): {p50}");
        assert!((64.0..=100.0).contains(&p90), "rank 90 is in [64,128): {p90}");

        // Exact cases: a single-value histogram pins every percentile.
        let mut one = Log2Histogram::new();
        one.record(7);
        assert_eq!(one.percentile(0.0), 7.0);
        assert_eq!(one.percentile(100.0), 7.0);

        // The max-value bucket (bucket 64) must not overflow bucket_low(65).
        let mut top = Log2Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.percentile(99.0), u64::MAX as f64);
    }

    #[test]
    fn metrics_track_a_synthetic_lifecycle() {
        let mut m = TxMetrics::new();
        // Attempt 1: conflict on cell 3, help P2, abort.
        m.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 100 });
        m.on(&TxEvent::Acquired { proc: 0, cell: 1, at: 110 });
        m.on(&TxEvent::Conflict { proc: 0, cell: Some(3), owner: Some(2), at: 120 });
        m.on(&TxEvent::HelpBegin { proc: 0, owner: 2, at: 125 });
        m.on(&TxEvent::Acquired { proc: 0, cell: 3, at: 130 });
        m.on(&TxEvent::HelpEnd { proc: 0, owner: 2, at: 140 });
        m.on(&TxEvent::Aborted { proc: 0, at_pos: 1, at: 150 });
        // Attempt 2: commit.
        m.on(&TxEvent::AttemptBegin { proc: 0, attempt: 2, at: 200 });
        m.on(&TxEvent::Acquired { proc: 0, cell: 1, at: 210 });
        m.on(&TxEvent::WriteBack { proc: 0, cell: 1, at: 220 });
        m.on(&TxEvent::Released { proc: 0, cell: 1, at: 230 });
        m.on(&TxEvent::Committed { proc: 0, attempts: 2, at: 240 });

        assert_eq!(m.commits(), 1);
        assert_eq!(m.aborts(), 1);
        assert_eq!(m.attempts(), 2);
        assert_eq!(m.conflicts(), 1);
        assert_eq!(m.helps(), 1);
        assert_eq!(m.write_backs(), 1);
        assert_eq!(m.releases(), 1);
        assert_eq!(m.hot_cells(4), vec![(3, 1)]);
        assert_eq!(m.max_help_depth(), 1);
        assert!(m.helping_is_non_redundant());
        assert_eq!(m.attempts_to_commit.count(), 1);
        assert_eq!(m.cycles_per_attempt.count(), 2);
        assert_eq!(m.cycles_per_attempt.sum(), 50 + 40);
        assert_eq!(m.help_cycles.sum(), 15);
        assert!(m.summary().contains("non-redundant bound held"));
    }

    #[test]
    fn nested_help_would_violate_the_bound() {
        let mut m = TxMetrics::new();
        m.on(&TxEvent::HelpBegin { proc: 0, owner: 1, at: 0 });
        // Transitive helping: must be flagged.
        m.on(&TxEvent::HelpBegin { proc: 0, owner: 2, at: 1 });
        m.on(&TxEvent::HelpEnd { proc: 0, owner: 2, at: 2 });
        m.on(&TxEvent::HelpEnd { proc: 0, owner: 1, at: 3 });
        assert_eq!(m.max_help_depth(), 2);
        assert!(!m.helping_is_non_redundant());
        assert!(m.summary().contains("BOUND VIOLATED"));
    }

    #[test]
    fn journal_and_recovery_hooks_aggregate() {
        let mut a = TxMetrics::new();
        a.on(&TxEvent::JournalFlush { proc: 0, records: 2, bytes: 96, latency: 150, at: 0 });
        a.on(&TxEvent::JournalFlush { proc: 0, records: 1, bytes: 48, latency: 90, at: 0 });
        assert_eq!(a.journal_flushes(), 2);
        assert_eq!(a.journal_records(), 3);
        assert_eq!(a.journal_bytes(), 144);
        assert_eq!(a.flush_latency.max(), 150);
        let mut b = TxMetrics::new();
        b.on(&TxEvent::RecoveryReplayed { records: 5, installed: 4, at: 0 });
        assert_eq!(b.recoveries(), 1);
        assert_eq!(b.recovery_replays.sum(), 4);
        a.merge(&b);
        assert_eq!(a.recoveries(), 1);
        assert_eq!(a.journal_records(), 3);
        let s = a.summary();
        assert!(s.contains("journal:"), "{s}");
        assert!(s.contains("recovery replays:"), "{s}");
        assert!(!TxMetrics::new().summary().contains("journal:"));
    }

    #[test]
    fn merge_aggregates_across_processors() {
        let mut a = TxMetrics::new();
        a.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 0 });
        a.on(&TxEvent::Committed { proc: 0, attempts: 1, at: 10 });
        a.on(&TxEvent::Conflict { proc: 0, cell: Some(7), owner: None, at: 0 });
        let mut b = TxMetrics::new();
        b.on(&TxEvent::AttemptBegin { proc: 1, attempt: 1, at: 0 });
        b.on(&TxEvent::Aborted { proc: 1, at_pos: 0, at: 5 });
        b.on(&TxEvent::Conflict { proc: 1, cell: Some(7), owner: None, at: 0 });
        a.merge(&b);
        assert_eq!(a.commits(), 1);
        assert_eq!(a.aborts(), 1);
        assert_eq!(a.contention()[&7], 2);
        assert_eq!(a.cycles_per_attempt.count(), 2);
    }
}
