//! Live metrics export: aggregate per-thread flight recorders into
//! periodic snapshots, and encode them as OpenMetrics text or JSON.
//!
//! [`MetricsRegistry`] owns one shared [`FlightBuffer`] per worker proc
//! plus the [`OpBoard`] the recorders publish their operation tags on.
//! Workers hold a [`FlightRecorder`] (from [`MetricsRegistry::recorder`])
//! and keep committing; any thread may call
//! [`MetricsRegistry::snapshot`] concurrently to fold everything recorded
//! since the previous snapshot into cumulative counters, a conflict
//! [`Attribution`] blame table, and per-interval rates.
//!
//! Snapshots serialize to:
//!
//! * **OpenMetrics / Prometheus text** ([`encode_openmetrics`]) — the
//!   format scrapers expect, terminated by `# EOF`. A minimal validating
//!   parser ([`parse_openmetrics`]) round-trips the encoder's output; CI
//!   schema-lints every exported snapshot through it.
//! * **JSON** ([`snapshot_json`]) — a self-describing dump (schema
//!   `stm-top-snapshot/v1`) for artifacts and post-mortems.
//!
//! `stm-core` has no dependencies by design, so both encoders are
//! hand-rolled string builders.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::attribution::Attribution;
use crate::flight::{FlightBuffer, FlightRecorder, OpBoard, NO_OP_TAG};
use crate::metrics::Log2Histogram;
use crate::observe::TxEvent;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Per-proc cumulative event counters folded from flight-recorder drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Attempts begun.
    pub attempts: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Attempts aborted.
    pub aborts: u64,
    /// Helping spans entered.
    pub helps: u64,
    /// Contention-manager waits.
    pub backoff_waits: u64,
    /// Starvation escalations to help-first mode.
    pub escalations: u64,
    /// Forced-tier commits (escalated past the forced-losses threshold).
    pub forced_commits: u64,
    /// Conflicts a helper deferred on instead of failing the owner.
    pub conflicts_deferred: u64,
    /// Dynamic commits that landed via delta-revalidation.
    pub delta_commits: u64,
    /// Contained op panics.
    pub op_panics: u64,
    /// Journal flushes.
    pub journal_flushes: u64,
    /// Arena cell-span allocations.
    pub cell_allocs: u64,
    /// Arena cell-span frees.
    pub cell_frees: u64,
    /// Total events folded (all kinds).
    pub events: u64,
    /// Events lost to ring overwrite before they could be folded.
    pub dropped: u64,
}

impl ProcCounters {
    fn absorb(&mut self, ev: &TxEvent) {
        self.events += 1;
        match ev {
            TxEvent::AttemptBegin { .. } => self.attempts += 1,
            TxEvent::Committed { .. } => self.commits += 1,
            TxEvent::Aborted { .. } => self.aborts += 1,
            TxEvent::HelpBegin { .. } => self.helps += 1,
            TxEvent::BackoffWait { .. } => self.backoff_waits += 1,
            TxEvent::StarvationEscalated { .. } => self.escalations += 1,
            TxEvent::ForcedCommit { .. } => self.forced_commits += 1,
            TxEvent::ConflictDeferred { .. } => self.conflicts_deferred += 1,
            TxEvent::DeltaCommitted { .. } => self.delta_commits += 1,
            TxEvent::OpPanicked { .. } => self.op_panics += 1,
            TxEvent::JournalFlush { .. } => self.journal_flushes += 1,
            TxEvent::CellAlloc { .. } => self.cell_allocs += 1,
            TxEvent::CellFree { .. } => self.cell_frees += 1,
            _ => {}
        }
    }

    fn add(&mut self, o: &ProcCounters) {
        self.attempts += o.attempts;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.helps += o.helps;
        self.backoff_waits += o.backoff_waits;
        self.escalations += o.escalations;
        self.forced_commits += o.forced_commits;
        self.conflicts_deferred += o.conflicts_deferred;
        self.delta_commits += o.delta_commits;
        self.op_panics += o.op_panics;
        self.journal_flushes += o.journal_flushes;
        self.cell_allocs += o.cell_allocs;
        self.cell_frees += o.cell_frees;
        self.events += o.events;
        self.dropped += o.dropped;
    }
}

/// One operation's latency histogram in a snapshot (workload-layer
/// observations merged in via [`MetricsRegistry::merge_latency`]).
#[derive(Debug, Clone)]
pub struct OpLatency {
    /// The op tag the histogram belongs to.
    pub op: u32,
    /// Registered display name (`op<tag>` if unregistered).
    pub name: String,
    /// The merged histogram.
    pub hist: Log2Histogram,
}

/// A point-in-time aggregate of everything the registry has folded.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Cumulative counters per proc.
    pub procs: Vec<ProcCounters>,
    /// Sum over [`procs`](Self::procs).
    pub totals: ProcCounters,
    /// Wall-clock seconds since the previous snapshot.
    pub interval_secs: f64,
    /// Commits per second over the last interval.
    pub commit_rate: f64,
    /// Aborts per second over the last interval.
    pub abort_rate: f64,
    /// Help episodes per second over the last interval.
    pub help_rate: f64,
    /// Cumulative conflict blame table.
    pub attribution: Attribution,
    /// Per-op latency histograms, ascending op tag.
    pub latency: Vec<OpLatency>,
    /// Registered op-tag → name map (for resolving attribution pairs).
    pub op_names: BTreeMap<u32, String>,
}

impl MetricsSnapshot {
    /// Display name for an op tag in this snapshot.
    pub fn op_name(&self, tag: u32) -> String {
        match self.op_names.get(&tag) {
            Some(n) => n.clone(),
            None if tag == NO_OP_TAG => "untagged".to_string(),
            None => format!("op{tag}"),
        }
    }
}

struct RegistryState {
    cursors: Vec<u64>,
    procs: Vec<ProcCounters>,
    attribution: Attribution,
    latency: BTreeMap<u32, Log2Histogram>,
    op_names: BTreeMap<u32, String>,
    prev: ProcCounters,
    prev_at: Instant,
}

struct RegistryInner {
    board: Arc<OpBoard>,
    buffers: Vec<Arc<FlightBuffer>>,
    state: Mutex<RegistryState>,
}

/// Aggregator of per-thread [`FlightRecorder`]s into periodic
/// [`MetricsSnapshot`]s. Cheap to clone (shared `Arc` inner).
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("procs", &self.inner.buffers.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Registry for `procs` workers, each with a flight ring of
    /// `capacity` events.
    pub fn new(procs: usize, capacity: usize) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                board: Arc::new(OpBoard::new(procs)),
                buffers: (0..procs).map(|_| Arc::new(FlightBuffer::new(capacity))).collect(),
                state: Mutex::new(RegistryState {
                    cursors: vec![0; procs],
                    procs: vec![ProcCounters::default(); procs],
                    attribution: Attribution::new(),
                    latency: BTreeMap::new(),
                    op_names: BTreeMap::new(),
                    prev: ProcCounters::default(),
                    prev_at: Instant::now(),
                }),
            }),
        }
    }

    /// Number of worker procs this registry aggregates.
    pub fn procs(&self) -> usize {
        self.inner.buffers.len()
    }

    /// The shared proc → op-tag board.
    pub fn board(&self) -> Arc<OpBoard> {
        Arc::clone(&self.inner.board)
    }

    /// Build the flight recorder for worker `proc`, appending into this
    /// registry's shared ring for that proc.
    ///
    /// # Panics
    /// If `proc >= self.procs()`.
    pub fn recorder(&self, proc: usize) -> FlightRecorder {
        let buf = Arc::clone(&self.inner.buffers[proc]);
        FlightRecorder::from_parts(proc, buf, Some(self.board()))
    }

    /// Register a display name for op tag `tag` (used by exports).
    pub fn register_op(&self, tag: u32, name: &str) {
        let mut st = self.inner.state.lock().expect("registry poisoned");
        st.op_names.insert(tag, name.to_string());
    }

    /// Merge a workload-layer latency histogram (e.g. per-op wall-clock
    /// nanoseconds) into op `tag`'s cumulative histogram.
    pub fn merge_latency(&self, tag: u32, hist: &Log2Histogram) {
        let mut st = self.inner.state.lock().expect("registry poisoned");
        st.latency.entry(tag).or_default().merge(hist);
    }

    /// Drain every proc's ring since the previous snapshot, fold the
    /// events into cumulative counters and the blame table, and return
    /// the point-in-time aggregate with per-interval rates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut st = self.inner.state.lock().expect("registry poisoned");
        for (p, buf) in self.inner.buffers.iter().enumerate() {
            let read = buf.read_since(st.cursors[p]);
            st.cursors[p] = read.cursor;
            st.procs[p].dropped += read.dropped;
            for rec in &read.events {
                st.procs[p].absorb(&rec.event);
            }
            st.attribution.fold(&read.events);
        }
        let mut totals = ProcCounters::default();
        for pc in &st.procs {
            totals.add(pc);
        }
        let interval_secs = st.prev_at.elapsed().as_secs_f64().max(1e-9);
        let rate = |now: u64, before: u64| now.saturating_sub(before) as f64 / interval_secs;
        let snap = MetricsSnapshot {
            procs: st.procs.clone(),
            totals,
            interval_secs,
            commit_rate: rate(totals.commits, st.prev.commits),
            abort_rate: rate(totals.aborts, st.prev.aborts),
            help_rate: rate(totals.helps, st.prev.helps),
            attribution: st.attribution.clone(),
            latency: st
                .latency
                .iter()
                .map(|(&op, hist)| OpLatency {
                    op,
                    name: st.op_names.get(&op).cloned().unwrap_or_else(|| format!("op{op}")),
                    hist: hist.clone(),
                })
                .collect(),
            op_names: st.op_names.clone(),
        };
        st.prev = totals;
        st.prev_at = Instant::now();
        snap
    }
}

// ---------------------------------------------------------------------------
// OpenMetrics encoding
// ---------------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Encode a snapshot as OpenMetrics text (Prometheus exposition format,
/// `# EOF`-terminated). Hot-cell blame is bounded to the top 16 cells and
/// pairs to keep scrape size stable under wide heaps.
pub fn encode_openmetrics(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(4096);
    let counter = |s: &mut String, name: &str, help: &str, rows: &[(String, u64)]| {
        let _ = writeln!(s, "# HELP {name} {help}");
        let _ = writeln!(s, "# TYPE {name} counter");
        for (labels, v) in rows {
            let _ = writeln!(s, "{name}{labels} {v}");
        }
    };
    let per_proc = |field: fn(&ProcCounters) -> u64| -> Vec<(String, u64)> {
        snap.procs
            .iter()
            .enumerate()
            .map(|(p, pc)| (format!("{{proc=\"{p}\"}}"), field(pc)))
            .collect()
    };
    counter(&mut s, "stm_attempts_total", "Transaction attempts begun.", &per_proc(|p| p.attempts));
    counter(&mut s, "stm_commits_total", "Transactions committed.", &per_proc(|p| p.commits));
    counter(&mut s, "stm_aborts_total", "Transaction attempts aborted.", &per_proc(|p| p.aborts));
    counter(&mut s, "stm_helps_total", "Helping spans entered.", &per_proc(|p| p.helps));
    counter(
        &mut s,
        "stm_backoff_waits_total",
        "Contention-manager waits imposed.",
        &per_proc(|p| p.backoff_waits),
    );
    counter(
        &mut s,
        "stm_starvation_escalations_total",
        "Starvation escalations to help-first mode.",
        &per_proc(|p| p.escalations),
    );
    counter(
        &mut s,
        "stm_forced_commits_total",
        "Commits landed at the forced priority tier.",
        &per_proc(|p| p.forced_commits),
    );
    counter(
        &mut s,
        "stm_conflicts_deferred_total",
        "Conflicts a helper deferred on instead of failing the owner.",
        &per_proc(|p| p.conflicts_deferred),
    );
    counter(
        &mut s,
        "stm_delta_commits_total",
        "Dynamic commits landed via delta-revalidation.",
        &per_proc(|p| p.delta_commits),
    );
    counter(
        &mut s,
        "stm_op_panics_total",
        "Contained commit-program panics.",
        &per_proc(|p| p.op_panics),
    );
    counter(
        &mut s,
        "stm_journal_flushes_total",
        "Durable journal flushes.",
        &per_proc(|p| p.journal_flushes),
    );
    counter(
        &mut s,
        "stm_cell_allocs_total",
        "Arena cell-span allocations.",
        &per_proc(|p| p.cell_allocs),
    );
    counter(
        &mut s,
        "stm_cell_frees_total",
        "Arena cell-span frees.",
        &per_proc(|p| p.cell_frees),
    );
    counter(
        &mut s,
        "stm_flight_events_total",
        "Flight-recorder events folded.",
        &per_proc(|p| p.events),
    );
    counter(
        &mut s,
        "stm_flight_dropped_total",
        "Flight-recorder events lost to ring overwrite.",
        &per_proc(|p| p.dropped),
    );

    for (name, help, v) in [
        ("stm_commit_rate", "Commits per second over the last snapshot interval.", snap.commit_rate),
        ("stm_abort_rate", "Aborts per second over the last snapshot interval.", snap.abort_rate),
        ("stm_help_rate", "Help episodes per second over the last snapshot interval.", snap.help_rate),
    ] {
        let _ = writeln!(s, "# HELP {name} {help}");
        let _ = writeln!(s, "# TYPE {name} gauge");
        let _ = writeln!(s, "{name} {}", fmt_f64(v));
    }

    let top = snap.attribution.top_cells(16);
    if !top.is_empty() {
        let rows = |f: fn(&crate::attribution::CellBlame) -> u64| -> Vec<(String, u64)> {
            top.iter().map(|(c, b)| (format!("{{cell=\"{c}\"}}"), f(b))).collect()
        };
        counter(
            &mut s,
            "stm_cell_aborts_total",
            "Aborts attributed to losing this cell (top cells).",
            &rows(|b| b.aborts),
        );
        counter(
            &mut s,
            "stm_cell_helps_total",
            "Help episodes attributed to this cell (top cells).",
            &rows(|b| b.helps),
        );
        counter(
            &mut s,
            "stm_cell_cycles_lost_total",
            "Attempt cycles lost to aborts on this cell (top cells).",
            &rows(|b| b.cycles_lost),
        );
    }
    let mut pairs: Vec<((u32, u32), u64)> =
        snap.attribution.pairs().iter().map(|(&p, &n)| (p, n)).collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(16);
    if !pairs.is_empty() {
        let rows: Vec<(String, u64)> = pairs
            .iter()
            .map(|&((victim, aborter), n)| {
                (
                    format!(
                        "{{victim=\"{}\",aborter=\"{}\"}}",
                        escape_label(&snap.op_name(victim)),
                        escape_label(&snap.op_name(aborter))
                    ),
                    n,
                )
            })
            .collect();
        counter(
            &mut s,
            "stm_conflict_pairs_total",
            "Conflicts by victim-op and aborter-op (top pairs).",
            &rows,
        );
    }

    if !snap.latency.is_empty() {
        let name = "stm_op_latency";
        let _ = writeln!(s, "# HELP {name} Per-operation latency (workload units, log2 buckets).");
        let _ = writeln!(s, "# TYPE {name} histogram");
        for ol in &snap.latency {
            let op = escape_label(&ol.name);
            let mut cumulative = 0u64;
            for (low, n) in ol.hist.nonzero_buckets() {
                cumulative += n;
                // `low` is the bucket's inclusive lower bound; its inclusive
                // upper bound is the next bucket's low - 1, but emitting the
                // observed cumulative count at `le = 2*low.max(1) - 1`
                // (bucket upper edge) keeps buckets parseable without
                // emitting all 65.
                let le = if low == 0 { 0 } else { 2 * low - 1 };
                let _ = writeln!(s, "{name}_bucket{{op=\"{op}\",le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(s, "{name}_bucket{{op=\"{op}\",le=\"+Inf\"}} {}", ol.hist.count());
            let _ = writeln!(s, "{name}_sum{{op=\"{op}\"}} {}", ol.hist.sum());
            let _ = writeln!(s, "{name}_count{{op=\"{op}\"}} {}", ol.hist.count());
        }
    }

    s.push_str("# EOF\n");
    s
}

// ---------------------------------------------------------------------------
// OpenMetrics parsing (schema lint)
// ---------------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

/// Result of [`parse_openmetrics`].
#[derive(Debug, Clone, Default)]
pub struct ParsedMetrics {
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: family name → type string.
    pub types: BTreeMap<String, String>,
}

impl ParsedMetrics {
    /// Value of the first sample matching `name` with every label in
    /// `labels` present with the given value.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value)
    }
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value after {key}"));
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e @ ('\\' | '"'))) => value.push(e),
                    other => return Err(format!("bad escape {other:?} in label {key}")),
                },
                '"' => {
                    end = Some(i + 2); // skip opening quote + this index
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for {key}"))?;
        labels.push((key, value));
        // `end` indexes into `after` just past the closing quote.
        rest = after[end..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

/// Minimal validating parser for the subset of OpenMetrics that
/// [`encode_openmetrics`] produces: `# HELP`/`# TYPE` metadata, labeled
/// samples, and a mandatory trailing `# EOF`. Rejects samples whose
/// family was never given a `# TYPE`, malformed labels, and unparseable
/// values — the properties CI lints every exported snapshot for.
pub fn parse_openmetrics(text: &str) -> Result<ParsedMetrics, String> {
    let mut out = ParsedMetrics::default();
    let mut saw_eof = false;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(format!("line {ln}: content after # EOF"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(meta) = line.strip_prefix("# ") {
            let mut parts = meta.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or(format!("line {ln}: TYPE without name"))?;
                    let kind = parts.next().ok_or(format!("line {ln}: TYPE without kind"))?;
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "unknown") {
                        return Err(format!("line {ln}: unknown TYPE kind {kind:?}"));
                    }
                    out.types.insert(name.to_string(), kind.to_string());
                }
                Some("HELP") => {}
                _ => return Err(format!("line {ln}: unrecognized comment {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: unrecognized comment {line:?}"));
        }
        // Sample: name[{labels}] value
        let (name_labels, value) =
            line.rsplit_once(' ').ok_or(format!("line {ln}: sample without value"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| format!("line {ln}: bad value {v:?}"))?,
        };
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {ln}: unterminated label set"))?;
                (n.to_string(), parse_labels(body).map_err(|e| format!("line {ln}: {e}"))?)
            }
            None => (name_labels.to_string(), Vec::new()),
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| out.types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name);
        if !out.types.contains_key(family) {
            return Err(format!("line {ln}: sample {name:?} has no # TYPE declaration"));
        }
        out.samples.push(Sample { name, labels, value });
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn counters_json(pc: &ProcCounters) -> String {
    format!(
        "{{\"attempts\":{},\"commits\":{},\"aborts\":{},\"helps\":{},\
         \"backoff_waits\":{},\"escalations\":{},\"forced_commits\":{},\
         \"conflicts_deferred\":{},\"delta_commits\":{},\"op_panics\":{},\
         \"journal_flushes\":{},\"cell_allocs\":{},\"cell_frees\":{},\
         \"events\":{},\"dropped\":{}}}",
        pc.attempts,
        pc.commits,
        pc.aborts,
        pc.helps,
        pc.backoff_waits,
        pc.escalations,
        pc.forced_commits,
        pc.conflicts_deferred,
        pc.delta_commits,
        pc.op_panics,
        pc.journal_flushes,
        pc.cell_allocs,
        pc.cell_frees,
        pc.events,
        pc.dropped
    )
}

/// Encode a snapshot as a self-describing JSON document (schema
/// `stm-top-snapshot/v1`): totals, per-proc counters, interval rates, the
/// blame table (cells + victim/aborter pairs), and per-op latency
/// percentiles from [`Log2Histogram::percentile`].
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "0".to_string()
        }
    };
    let mut s = String::with_capacity(2048);
    s.push_str("{\"schema\":\"stm-top-snapshot/v1\"");
    let _ = write!(s, ",\"totals\":{}", counters_json(&snap.totals));
    s.push_str(",\"procs\":[");
    for (i, pc) in snap.procs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&counters_json(pc));
    }
    s.push(']');
    let _ = write!(
        s,
        ",\"rates\":{{\"interval_secs\":{},\"commits_per_sec\":{},\
         \"aborts_per_sec\":{},\"helps_per_sec\":{}}}",
        num(snap.interval_secs),
        num(snap.commit_rate),
        num(snap.abort_rate),
        num(snap.help_rate)
    );
    let attr = &snap.attribution;
    let _ = write!(
        s,
        ",\"attribution\":{{\"aborts\":{},\"helps\":{},\"cycles_lost\":{},\
         \"escalations\":{},\"forced_commits\":{},\"deferrals\":{},\
         \"delta_commits\":{},\"cell_allocs\":{},\"cell_frees\":{},\"cells\":[",
        attr.aborts(),
        attr.helps(),
        attr.cycles_lost(),
        attr.escalations(),
        attr.forced_commits(),
        attr.deferrals(),
        attr.delta_commits(),
        attr.cell_allocs(),
        attr.cell_frees()
    );
    for (i, (cell, blame)) in attr.top_cells(16).into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"cell\":{cell},\"aborts\":{},\"helps\":{},\"cycles_lost\":{}}}",
            blame.aborts, blame.helps, blame.cycles_lost
        );
    }
    s.push_str("],\"pairs\":[");
    let mut pairs: Vec<((u32, u32), u64)> = attr.pairs().iter().map(|(&p, &n)| (p, n)).collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (i, ((victim, aborter), n)) in pairs.into_iter().take(16).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"victim\":\"{}\",\"aborter\":\"{}\",\"count\":{n}}}",
            json_escape(&snap.op_name(victim)),
            json_escape(&snap.op_name(aborter))
        );
    }
    s.push_str("]}");
    s.push_str(",\"latency\":[");
    for (i, ol) in snap.latency.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let h = &ol.hist;
        let _ = write!(
            s,
            "{{\"op\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\
             \"p99\":{},\"max\":{}}}",
            json_escape(&ol.name),
            h.count(),
            num(h.mean()),
            num(h.percentile(50.0)),
            num(h.percentile(90.0)),
            num(h.percentile(99.0)),
            h.max()
        );
    }
    s.push(']');
    let _ = write!(s, ",\"flight_dropped\":{}", snap.totals.dropped);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::TxObserver;

    fn contended_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new(2, 256);
        reg.register_op(1, "hot-add");
        reg.register_op(2, "transfer");
        let mut r0 = reg.recorder(0);
        let mut r1 = reg.recorder(1);
        r0.set_op(1);
        r1.set_op(2);
        r0.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 0 });
        r0.on(&TxEvent::Conflict { proc: 0, cell: Some(3), owner: Some(1), at: 10 });
        r0.on(&TxEvent::HelpBegin { proc: 0, owner: 1, at: 10 });
        r0.on(&TxEvent::HelpEnd { proc: 0, owner: 1, at: 20 });
        r0.on(&TxEvent::Aborted { proc: 0, at_pos: 0, at: 30 });
        r0.on(&TxEvent::AttemptBegin { proc: 0, attempt: 2, at: 30 });
        r0.on(&TxEvent::Committed { proc: 0, attempts: 2, at: 40 });
        r1.on(&TxEvent::AttemptBegin { proc: 1, attempt: 1, at: 0 });
        r1.on(&TxEvent::Committed { proc: 1, attempts: 1, at: 8 });
        let mut lat = Log2Histogram::new();
        for v in [120, 340, 900, 1800] {
            lat.record(v);
        }
        reg.merge_latency(1, &lat);
        reg.snapshot()
    }

    #[test]
    fn registry_folds_counters_and_blame() {
        let snap = contended_snapshot();
        assert_eq!(snap.totals.commits, 2);
        assert_eq!(snap.totals.aborts, 1);
        assert_eq!(snap.totals.helps, 1);
        assert_eq!(snap.procs[0].commits, 1);
        assert!(snap.commit_rate > 0.0);
        assert_eq!(snap.attribution.aborts(), 1);
        assert_eq!(snap.attribution.cells()[&3].aborts, 1);
        // Victim op 1 ("hot-add") was aborted by proc 1's op 2 ("transfer"),
        // resolved through the shared board.
        assert_eq!(snap.attribution.pairs()[&(1, 2)], 1);
        assert_eq!(snap.latency.len(), 1);
        assert_eq!(snap.latency[0].name, "hot-add");
    }

    #[test]
    fn openmetrics_roundtrip() {
        let snap = contended_snapshot();
        let text = encode_openmetrics(&snap);
        let parsed = parse_openmetrics(&text).expect("encoder output must parse");
        assert_eq!(parsed.value("stm_commits_total", &[("proc", "0")]), Some(1.0));
        assert_eq!(parsed.value("stm_cell_aborts_total", &[("cell", "3")]), Some(1.0));
        assert_eq!(
            parsed.value(
                "stm_conflict_pairs_total",
                &[("victim", "hot-add"), ("aborter", "transfer")]
            ),
            Some(1.0)
        );
        assert_eq!(parsed.value("stm_op_latency_count", &[("op", "hot-add")]), Some(4.0));
        assert_eq!(parsed.types.get("stm_op_latency").map(String::as_str), Some("histogram"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_openmetrics("stm_x_total 1\n# EOF\n").is_err(), "undeclared family");
        assert!(parse_openmetrics("# TYPE stm_x_total counter\nstm_x_total 1\n").is_err(), "no EOF");
        assert!(
            parse_openmetrics("# TYPE stm_x_total counter\nstm_x_total{p=\"1} 1\n# EOF\n")
                .is_err(),
            "unterminated label"
        );
        assert!(
            parse_openmetrics("# TYPE stm_x_total counter\nstm_x_total abc\n# EOF\n").is_err(),
            "bad value"
        );
        assert!(parse_openmetrics("# TYPE stm_x_total counter\n# EOF\n").is_ok());
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let snap = contended_snapshot();
        let json = snapshot_json(&snap);
        assert!(json.starts_with("{\"schema\":\"stm-top-snapshot/v1\""));
        assert!(json.contains("\"cells\":[{\"cell\":3,"), "{json}");
        assert!(json.contains("\"victim\":\"hot-add\",\"aborter\":\"transfer\",\"count\":1"));
        assert!(json.contains("\"p99\":"));
        // Structural sanity: balanced braces/brackets, no trailing comma.
        let depth = json.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        assert!(!json.contains(",]") && !json.contains(",}"));
    }
}
