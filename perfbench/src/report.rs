//! Metric names, the per-layer ledger metrics and the phase × cost table.

use std::fmt::Write as _;

use crate::clock::to_ns;
use crate::measure::{ratio, Metrics};
use crate::trace::{Phase, Tracer};

/// End-to-end metrics every workload reports (the gated set), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Protocol phases whose op counts are reported per commit.
const PROTOCOL: [Phase; 9] = [
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

/// Protocol phases every committing workload passes through; their times
/// are in the per-layer list (journal and help times, which some workloads
/// never spend, are in the ledger file and table only).
const TIMED: [Phase; 7] = [
    Phase::Publish,
    Phase::Acquire,
    Phase::Decide,
    Phase::Agree,
    Phase::Install,
    Phase::Release,
    Phase::Finish,
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("machine.reads_per_op", "count"),
        ("machine.writes_per_op", "count"),
        ("machine.cas_per_op", "count"),
        ("machine.cas_fail_frac", "frac"),
        ("machine.notify_per_op", "count"),
        ("machine.backoff_calls_per_op", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(
        PROTOCOL
            .iter()
            .map(|p| (format!("stm.{}.ops_per_commit", p.name()), "count")),
    );
    v.extend(
        TIMED
            .iter()
            .map(|p| (format!("stm.{}.ns_per_commit", p.name()), "ns")),
    );
    v.extend(
        [
            ("stm.attempts_per_commit", "count"),
            ("stm.commit_frac", "frac"),
            ("stm.helps_per_commit", "count"),
            ("ops.plan_hit_frac", "frac"),
            ("ops.snapshot_fast_frac", "frac"),
            ("hashmap.reads_per_get", "count"),
            ("hashmap.commits_per_write", "count"),
            ("arena.allocs_per_write", "count"),
            ("arena.frees_per_write", "count"),
            ("arena.segments_grown", "count"),
            ("arena.live_cells", "count"),
            ("dynamic.body_runs_per_commit", "count"),
            ("dynamic.inconsistent_body_frac", "frac"),
            ("dynamic.readonly_fast_frac", "frac"),
            ("flight.events_per_commit", "count"),
            ("flight.dropped_frac", "frac"),
            ("durable.bytes_per_commit", "bytes"),
            ("durable.flush_share", "frac"),
            ("engine.memops_per_op", "count"),
            ("engine.sys_cpu_frac", "frac"),
            ("arch.cycles_per_memop", "cycles"),
            ("trace.ops_per_s", "1/s"),
            ("trace.untraced_ops_per_s", "1/s"),
            ("trace.overhead_frac", "frac"),
            ("selfcheck.k1_ops", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Order `layers` by the per-layer list, filling layers the workload does
/// not exercise with 0; metrics outside the list are returned separately.
pub fn complete(layers: &Metrics) -> (Metrics, Metrics) {
    let list = per_layer();
    let mut listed = Metrics::default();
    for (name, unit) in &list {
        listed.push(name.clone(), layers.get(name).unwrap_or(0.0), unit);
    }
    let rest = Metrics(
        layers
            .0
            .iter()
            .filter(|m| !list.iter().any(|(n, _)| *n == m.name))
            .cloned()
            .collect(),
    );
    (listed, rest)
}

/// The machine and protocol metrics of a ledger covering `ops` operations.
pub fn ledger_metrics(t: &Tracer, ops: u64) -> Metrics {
    let mut m = Metrics::default();
    let c = t.total_counts();
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    m.push("machine.reads_per_op", per_op(c.reads), "count");
    m.push("machine.writes_per_op", per_op(c.writes), "count");
    m.push("machine.cas_per_op", per_op(c.cas()), "count");
    m.push(
        "machine.cas_fail_frac",
        ratio(c.cas_fail as f64, c.cas() as f64),
        "frac",
    );
    m.push("machine.notify_per_op", per_op(c.notify), "count");
    m.push("machine.backoff_calls_per_op", per_op(c.backoff), "count");
    let (attempts, commits) = t.attempts_commits();
    let per_commit = |x: f64| ratio(x, commits as f64);
    for p in PROTOCOL {
        let tot = &t.phases[p as usize];
        m.push(
            format!("stm.{}.ops_per_commit", p.name()),
            per_commit(tot.counts.memops() as f64),
            "count",
        );
        m.push(
            format!("stm.{}.ns_per_commit", p.name()),
            per_commit(to_ns(tot.ticks)),
            "ns",
        );
        if tot.cycles > 0 {
            m.push(
                format!("stm.{}.cycles_per_commit", p.name()),
                per_commit(tot.cycles as f64),
                "cycles",
            );
        }
    }
    let helps: u64 = t.classes.iter().map(|c| c.helps).sum();
    m.push(
        "stm.attempts_per_commit",
        per_commit(attempts as f64),
        "count",
    );
    m.push(
        "stm.commit_frac",
        ratio(commits as f64, attempts as f64),
        "frac",
    );
    m.push("stm.helps_per_commit", per_commit(helps as f64), "count");
    m
}

/// The phase × cost table: per phase, its layer, ops and self time per
/// commit and its share of all traced time; then one row per op class.
pub fn phase_table(title: &str, t: &Tracer, classes: &[&str]) -> String {
    let (_, commits) = t.attempts_commits();
    let total: u64 = t.phases.iter().map(|p| p.ticks).sum();
    let with_cycles = t.phases.iter().any(|p| p.cycles > 0);
    let mut s = String::new();
    let _ = writeln!(s, "{title}: phase ledger over {commits} commits");
    let _ = write!(
        s,
        "  {:<10} {:<8} {:>9} {:>9} {:>9} {:>9} {:>11} {:>7}",
        "phase", "layer", "reads/c", "writes/c", "cas/c", "ops/c", "self_ns/c", "time%"
    );
    if with_cycles {
        let _ = write!(s, " {:>10}", "cycles/c");
    }
    s.push('\n');
    let pc = |x: f64| ratio(x, commits as f64);
    for p in Phase::ALL {
        let tot = &t.phases[p as usize];
        if tot.counts.memops() == 0 && tot.ticks == 0 {
            continue;
        }
        let c = &tot.counts;
        let _ = write!(
            s,
            "  {:<10} {:<8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>11.1} {:>6.1}%",
            p.name(),
            p.layer(),
            pc(c.reads as f64),
            pc(c.writes as f64),
            pc(c.cas() as f64),
            pc(c.memops() as f64),
            pc(to_ns(tot.ticks)),
            100.0 * ratio(tot.ticks as f64, total as f64)
        );
        if with_cycles {
            let _ = write!(s, " {:>10.1}", pc(tot.cycles as f64));
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "  {:<14} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "class", "ops", "ops/op", "att/op", "commit/op", "help/op", "ns/op"
    );
    for (i, c) in t.classes.iter().enumerate() {
        if c.ops == 0 {
            continue;
        }
        let po = |x: f64| ratio(x, c.ops as f64);
        let _ = writeln!(
            s,
            "  {:<14} {:>10} {:>9.2} {:>9.3} {:>9.3} {:>9.4} {:>9.1}",
            classes.get(i).copied().unwrap_or("?"),
            c.ops,
            po(c.counts.memops() as f64),
            po(c.attempts as f64),
            po(c.commits as f64),
            po(c.helps as f64),
            po(to_ns(c.ticks))
        );
    }
    s
}

/// JSON number text: finite values as Rust prints them (every digit), other
/// values as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A `{"name": {"value": v, "unit": u}, ...}` object.
pub fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    num(x.value),
                    x.unit
                )
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
