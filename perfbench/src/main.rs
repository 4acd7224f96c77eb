//! The repository benchmark: workloads over the STM crates, each reporting
//! end-to-end metrics (`--trace 0`) or a per-layer ledger built from the
//! protocol's step points (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--clients <n>]
//! ```
//!
//! Workloads: `kv-uniform-churn`, `bank-branch` and `sim-paper` (see the
//! package README).
//!
//! Host workloads run closed-loop clients (default `min(2, nproc)`; more
//! clients than cores is refused). Each client's operation stream is
//! generated from the seed before any timing. A run then builds several
//! worlds in turn; each is set up (build and prefill, timed: the median is
//! `setup_s`), warmed up untimed, and measured for its share of `--seconds`.
//! Every run checks its outputs; a failed check makes `correct` false and
//! the exit code non-zero. The last line of standard output is the JSON
//! result.

mod bank;
mod clock;
mod hist;
mod kv;
mod measure;
mod report;
mod rng;
mod sim;
mod sys;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use measure::{drive, median, quantile, ratio, Driven, Metrics, LATENCY_Q, RATE_Q};
use report::{complete, ledger_metrics, metrics_json, num, phase_table, quote};
use stm_core::machine::host::HostMachine;
use trace::{Span, Tracer};

/// Host worlds built per run. Each is set up, warmed and measured in turn:
/// the median set-up time is `setup_s`, and rates and latencies pool the
/// windows of every world, so one memory layout does not decide the result.
const KV_WORLDS: usize = 3;
/// Bank worlds per run. The bank's few hundred hot words make its speed
/// depend on where an allocation lands relative to cache lines (each world
/// keeps its own level to within a few percent, and worlds differ by up to
/// 40%), so a run samples many worlds.
const BANK_WORLDS: usize = 60;
/// Set-ups timed for the simulator workload, whose set-up is input
/// generation and structure construction only.
const SIM_SETUPS: usize = 101;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    clients: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench-out"),
        clients: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(val),
            "--clients" => a.clients = Some(val.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Run parameters shared by every workload.
struct Ctx {
    seed: u64,
    seconds: f64,
    trace: bool,
    clients: usize,
}

impl Ctx {
    /// The untraced measured interval (half the run when tracing).
    fn measured(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Warm-up before each world's measured interval of `secs`: a fifth of it,
/// 0.2–1 s.
fn warmup(secs: f64) -> f64 {
    (secs * 0.2).clamp(0.2, 1.0)
}

/// What one run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The gated end-to-end metrics.
    e2e: Metrics,
    /// End-to-end metrics only some workloads have.
    extra: Metrics,
    /// Per-layer metrics (traced runs).
    layers: Metrics,
    table: String,
    spans: Vec<(usize, Vec<Span>)>,
    class_names: &'static [&'static str],
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Merge per-client ledgers, keeping each client's spans.
fn merge_tracers(tracers: Vec<Tracer>, spans: &mut Vec<(usize, Vec<Span>)>) -> Tracer {
    let mut all = Tracer::new(
        Vec::new(),
        tracers.first().map_or(1, |t| t.classes.len()),
        1,
    );
    for (i, mut t) in tracers.into_iter().enumerate() {
        all.merge(&t);
        spans.push((i, std::mem::take(&mut t.spans)));
    }
    all
}

fn class_ops(t: &Tracer) -> u64 {
    t.classes.iter().map(|c| c.ops).sum()
}

/// A latency figure: its metric name, the operation classes it covers and
/// the quantile.
type Latency = (&'static str, &'static [usize], f64);

/// The per-window figures of every world's measured intervals. Each
/// interval is reduced to its windows' rates and latency quantiles as soon
/// as it ends, so a run's memory does not grow with its world count.
struct Pooled {
    latencies: Vec<Latency>,
    setups: Vec<f64>,
    rates: Vec<f64>,
    /// Per-window values, one list per entry of `latencies`.
    windows: Vec<Vec<f64>>,
    traced_rates: Vec<f64>,
    attempted: u64,
    tracers: Vec<Tracer>,
}

impl Pooled {
    fn new(latencies: Vec<Latency>) -> Self {
        let windows = vec![Vec::new(); latencies.len()];
        Pooled {
            latencies,
            setups: Vec::new(),
            rates: Vec::new(),
            windows,
            traced_rates: Vec::new(),
            attempted: 0,
            tracers: Vec::new(),
        }
    }

    /// Warm one world's clients up, then measure them untraced.
    fn untraced<C: measure::Client>(
        &mut self,
        secs: f64,
        machine: &HostMachine,
        clients: &mut [C],
        n_classes: usize,
    ) -> Result<(), String> {
        drive(machine, clients, n_classes, warmup(secs), None)?;
        let rec = drive(machine, clients, n_classes, secs, None)?.rec;
        self.attempted += rec.total_ops();
        self.rates.extend(rec.window_rates());
        for (w, &(_, classes, q)) in self.windows.iter_mut().zip(&self.latencies) {
            w.extend(rec.window_quantiles_us(classes, q));
        }
        Ok(())
    }

    /// Measure one world's clients behind ledgers.
    fn traced<C: measure::Client>(
        &mut self,
        secs: f64,
        machine: &HostMachine,
        clients: &mut [C],
        n_classes: usize,
        regions: &[Vec<trace::Region>],
    ) -> Result<(), String> {
        let Driven { rec, mut tracers } = drive(machine, clients, n_classes, secs, Some(regions))?;
        self.attempted += rec.total_ops();
        self.traced_rates.extend(rec.window_rates());
        if !self.tracers.is_empty() {
            // The span file samples the first world only.
            tracers.iter_mut().for_each(|t| t.spans = Vec::new());
        }
        self.tracers.extend(tracers);
        Ok(())
    }

    /// The fast-side quantile ([`LATENCY_Q`]) over every window of the named
    /// latency, in µs (0 when no window had a sample).
    fn latency(&self, name: &str) -> f64 {
        let i = self
            .latencies
            .iter()
            .position(|l| l.0 == name)
            .expect("declared latency");
        if self.windows[i].is_empty() {
            0.0
        } else {
            quantile(self.windows[i].clone(), LATENCY_Q)
        }
    }

    /// The end-to-end metrics, in the declared order.
    fn e2e(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("ops_per_s", quantile(self.rates.clone(), RATE_Q), "1/s");
        for name in ["read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"] {
            m.push(name, self.latency(name), "us");
        }
        m.push("setup_s", median(self.setups.clone()), "s");
        m.push("peak_rss_mb", sys::usage().peak_rss_mb, "MB");
        m
    }

    /// Trace-overhead metrics of the pooled intervals.
    fn overhead(&self, layers: &mut Metrics) {
        let traced = quantile(self.traced_rates.clone(), RATE_Q);
        overhead(layers, traced, quantile(self.rates.clone(), RATE_Q));
    }
}

/// Trace-overhead metrics: traced against untraced throughput.
fn overhead(layers: &mut Metrics, traced: f64, untraced: f64) {
    layers.push("trace.ops_per_s", traced, "1/s");
    layers.push("trace.untraced_ops_per_s", untraced, "1/s");
    layers.push("trace.overhead_frac", 1.0 - ratio(traced, untraced), "frac");
}

/// Read and write latency figures over the given classes.
fn rw_latencies(reads: &'static [usize], writes: &'static [usize]) -> Vec<Latency> {
    vec![
        ("read_p50_us", reads, 0.5),
        ("read_p99_us", reads, 0.99),
        ("write_p50_us", writes, 0.5),
        ("write_p99_us", writes, 0.99),
    ]
}

/// Sum of `(hits, misses)` pairs.
fn sum_pairs(it: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
    it.fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Count wrong results as failed operations, naming each class that had one.
fn wrong_results(out: &mut Outcome, classes: &[&str], wrong: &[u64]) {
    out.failed = wrong.iter().sum();
    for (name, n) in classes.iter().zip(wrong).filter(|(_, n)| **n > 0) {
        out.failures.push(format!("{n} wrong {name} results"));
    }
}

fn run_kv(ctx: &Ctx) -> Result<Outcome, String> {
    let n = kv::CLASSES.len();
    let mut pooled = Pooled::new(rw_latencies(&[kv::GET], &[kv::PUT, kv::DELETE]));
    let mut out = Outcome {
        class_names: &kv::CLASSES,
        ..Default::default()
    };
    // Traced-interval deltas: arena (allocs, frees, segments) and plan cache.
    let (mut arena, mut plan, mut live) = ((0, 0, 0), (0, 0), 0);
    let mut wrong = [0u64; 3];
    if !ctx.clients.is_power_of_two() {
        return Err(format!(
            "kv-uniform-churn splits its buckets among a power of two of clients, not {}",
            ctx.clients
        ));
    }
    let streams: Vec<_> = (0..ctx.clients)
        .map(|c| kv::stream(ctx.seed, c, ctx.clients))
        .collect();
    for _ in 0..KV_WORLDS {
        let ((world, mut clients), setup) = timed(|| {
            let world = kv::build(ctx.clients);
            let clients: Vec<kv::KvClient> = streams
                .iter()
                .map(|s| kv::KvClient::new(world.map().clone(), Arc::clone(s)))
                .collect();
            (world, clients)
        });
        pooled.setups.push(setup);
        let secs = ctx.measured() / KV_WORLDS as f64;
        pooled.untraced(secs, world.machine(), &mut clients, n)?;
        if ctx.trace {
            let before = (
                world.arena_stats(),
                sum_pairs(clients.iter().map(|c| c.plan_cache())),
            );
            let regions = world.regions(ctx.clients);
            pooled.traced(secs, world.machine(), &mut clients, n, &regions)?;
            let after = (
                world.arena_stats(),
                sum_pairs(clients.iter().map(|c| c.plan_cache())),
            );
            arena.0 += after.0.allocs - before.0.allocs;
            arena.1 += after.0.frees - before.0.frees;
            arena.2 += after.0.segments_live - before.0.segments_live;
            plan.0 += after.1 .0 - before.1 .0;
            plan.1 += after.1 .1 - before.1 .1;
            live = after.0.live_cells;
        }
        for c in &clients {
            for (w, x) in wrong.iter_mut().zip(c.wrong) {
                *w += x;
            }
        }
        out.failures.extend(world.check());
    }
    wrong_results(&mut out, &kv::CLASSES, &wrong);
    out.attempted = pooled.attempted;
    out.e2e = pooled.e2e();
    if ctx.trace {
        let t = merge_tracers(std::mem::take(&mut pooled.tracers), &mut out.spans);
        let mut l = ledger_metrics(&t, class_ops(&t));
        let get = &t.classes[kv::GET];
        let (put, del) = (&t.classes[kv::PUT], &t.classes[kv::DELETE]);
        let writes = (put.ops + del.ops) as f64;
        l.push(
            "hashmap.reads_per_get",
            ratio(get.counts.reads as f64, get.ops as f64),
            "count",
        );
        l.push(
            "hashmap.commits_per_write",
            ratio(
                (put.commits + del.commits) as f64,
                (put.committed_ops + del.committed_ops) as f64,
            ),
            "count",
        );
        l.push(
            "hashmap.write_precommit_ns",
            ratio(clock::to_ns(put.pre_ticks + del.pre_ticks), writes),
            "ns",
        );
        l.push(
            "arena.allocs_per_write",
            ratio(arena.0 as f64, writes),
            "count",
        );
        l.push(
            "arena.frees_per_write",
            ratio(arena.1 as f64, writes),
            "count",
        );
        l.push("arena.segments_grown", arena.2 as f64, "count");
        l.push("arena.live_cells", live as f64, "count");
        l.push(
            "ops.plan_hit_frac",
            ratio(plan.0 as f64, (plan.0 + plan.1) as f64),
            "frac",
        );
        pooled.overhead(&mut l);
        out.table = phase_table("ledger", &t, &kv::CLASSES);
        out.layers = l;
    }
    Ok(out)
}

fn run_bank(ctx: &Ctx) -> Result<Outcome, String> {
    let n = bank::CLASSES.len();
    let mut latencies = rw_latencies(
        &[bank::SNAPSHOT, bank::DYN_AUDIT],
        &[bank::TRANSFER, bank::BATCH, bank::FEE, bank::DYN_TRANSFER],
    );
    latencies.push(("durable_p50_us", &[bank::DURABLE_TRANSFER], 0.5));
    latencies.push(("durable_p99_us", &[bank::DURABLE_TRANSFER], 0.99));
    let mut pooled = Pooled::new(latencies);
    let mut out = Outcome {
        class_names: &bank::CLASSES,
        ..Default::default()
    };
    let mut wrong = [0u64; 7];
    // Traced-interval deltas.
    let (mut stats, mut plan, mut bytes) = (bank::BankStats::default(), (0, 0), 0);
    let (mut events, mut dropped) = (0, 0);
    let streams: Vec<_> = (0..ctx.clients)
        .map(|c| bank::stream(ctx.seed, c))
        .collect();
    for _ in 0..BANK_WORLDS {
        let ((world, mut clients), setup) = timed(|| {
            let world = bank::build_world(ctx.clients);
            let clients: Vec<bank::BankClient> = streams
                .iter()
                .enumerate()
                .map(|(c, s)| world.client(Arc::clone(s), c))
                .collect();
            (world, clients)
        });
        pooled.setups.push(setup);
        let secs = ctx.measured() / BANK_WORLDS as f64;
        pooled.untraced(secs, &world.machine, &mut clients, n)?;
        if ctx.trace {
            let sums = |cs: &[bank::BankClient]| {
                let plan = sum_pairs(cs.iter().map(|c| c.plan_cache()));
                (bank::BankStats::sum(cs.iter().map(|c| c.stats)), plan)
            };
            let (s0, b0) = (sums(&clients), world.journal_bytes());
            let f0 = world.registry.snapshot().totals;
            let regions = world.regions(ctx.clients);
            pooled.traced(secs, &world.machine, &mut clients, n, &regions)?;
            let (s1, b1) = (sums(&clients), world.journal_bytes());
            let f1 = world.registry.snapshot().totals;
            stats = bank::BankStats::sum([stats, s1.0.minus(&s0.0)].into_iter());
            plan.0 += s1.1 .0 - s0.1 .0;
            plan.1 += s1.1 .1 - s0.1 .1;
            bytes += b1 - b0;
            events += f1.events - f0.events;
            dropped += f1.dropped - f0.dropped;
        }
        let fee_ops = clients.iter().map(|c| c.stats.fee_ops).sum();
        for c in &clients {
            for (w, x) in wrong.iter_mut().zip(c.stats.wrong) {
                *w += x;
            }
        }
        drop(clients);
        out.failures.extend(world.check(fee_ops));
    }
    wrong_results(&mut out, &bank::CLASSES, &wrong);
    out.attempted = pooled.attempted;
    out.e2e = pooled.e2e();
    for name in ["durable_p50_us", "durable_p99_us"] {
        out.extra.push(name, pooled.latency(name), "us");
    }
    if ctx.trace {
        let t = merge_tracers(std::mem::take(&mut pooled.tracers), &mut out.spans);
        let mut l = ledger_metrics(&t, class_ops(&t));
        l.push(
            "ops.plan_hit_frac",
            ratio(plan.0 as f64, (plan.0 + plan.1) as f64),
            "frac",
        );
        let snap = &t.classes[bank::SNAPSHOT];
        l.push(
            "ops.snapshot_fast_frac",
            ratio(snap.unpublished_ops as f64, snap.ops as f64),
            "frac",
        );
        let commits = stats.dyn_commits as f64;
        l.push(
            "dynamic.body_runs_per_commit",
            ratio(stats.body_runs as f64, commits),
            "count",
        );
        l.push(
            "dynamic.inconsistent_body_frac",
            ratio(stats.inconsistent_runs as f64, stats.audit_runs as f64),
            "frac",
        );
        let audit = &t.classes[bank::DYN_AUDIT];
        l.push(
            "dynamic.readonly_fast_frac",
            ratio(audit.unpublished_ops as f64, audit.ops as f64),
            "frac",
        );
        let dynt = &t.classes[bank::DYN_TRANSFER];
        l.push(
            "dynamic.ns_per_commit",
            ratio(
                clock::to_ns(dynt.ticks + audit.ticks),
                (dynt.ops + audit.ops) as f64,
            ),
            "ns",
        );
        l.push(
            "flight.events_per_commit",
            ratio(events as f64, commits),
            "count",
        );
        l.push(
            "flight.dropped_frac",
            ratio(dropped as f64, (events + dropped) as f64),
            "frac",
        );
        let durable = &t.classes[bank::DURABLE_TRANSFER];
        l.push(
            "durable.bytes_per_commit",
            ratio(bytes as f64, durable.ops as f64),
            "bytes",
        );
        let flush_ticks: u64 = t.flushes.iter().sum();
        l.push(
            "durable.flush_share",
            ratio(flush_ticks as f64, durable.ticks as f64),
            "frac",
        );
        if !t.flushes.is_empty() {
            let ns: Vec<f64> = t.flushes.iter().map(|&f| clock::to_ns(f)).collect();
            l.push("durable.flush_ns_p50", median(ns), "ns");
        }
        pooled.overhead(&mut l);
        out.table = phase_table("ledger", &t, &bank::CLASSES);
        out.layers = l;
    }
    Ok(out)
}

/// One counting + resource pair of simulations.
struct Unit {
    runs: [sim::SimRun; 2],
    /// Host latency of one simulated access over both simulations, in µs:
    /// `[read p50, read p99, write p50, write p99]`.
    latency_us: [f64; 4],
}

impl Unit {
    fn run(inputs: &sim::Inputs, traced: bool) -> Unit {
        let mut runs = sim::Bench::ALL.map(|b| sim::run(b, inputs, traced));
        let (mut reads, mut writes) = (hist::Hist::default(), hist::Hist::default());
        for (r, w) in runs.iter_mut().filter_map(|r| r.latency.take()) {
            reads.merge(&r);
            writes.merge(&w);
        }
        let us = |h: &hist::Hist, q| h.quantile(q).unwrap_or(0.0) * clock::ns_per_tick() * 1e-3;
        let latency_us = [
            us(&reads, 0.5),
            us(&reads, 0.99),
            us(&writes, 0.5),
            us(&writes, 0.99),
        ];
        Unit { runs, latency_us }
    }
    fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_s).sum()
    }
    fn ops(&self) -> u64 {
        self.runs.iter().map(|r| r.ops).sum()
    }
    fn memops(&self) -> u64 {
        self.runs.iter().map(|r| r.memops).sum()
    }
}

fn run_sim(ctx: &Ctx) -> Result<Outcome, String> {
    // The engine runs one simulated processor at a time, handing a token
    // between its threads; on a shared virtual machine, wakeups across cores
    // cost more and vary more than the engine's own work, so its threads are
    // kept on one core.
    if sys::pin_to_first_cpu().is_none() {
        eprintln!("perfbench: could not pin the simulator to one core; running unpinned");
    }
    // Each unit simulates its own seed, derived from the run's: how often
    // the engine must hand the token to another thread depends on the
    // simulated schedule, so a run averages over many schedules.
    let unit_seed = |i: u64| rng::seeded(ctx.seed, 0x51A0 + i).next_u64();
    let mut setups = Vec::with_capacity(SIM_SETUPS);
    for _ in 0..SIM_SETUPS {
        setups.push(timed(|| sim::inputs(unit_seed(0))).1);
    }
    let mut out = Outcome {
        class_names: &["sim_op"],
        ..Default::default()
    };
    let first = sim::inputs(unit_seed(0));
    let reference = Unit::run(&first, false); // warm-up, and the cycle reference
    let mut next = 1;
    let mut run_for = |secs: f64, traced: bool| {
        let started = Instant::now();
        let mut units = Vec::new();
        while units.is_empty() || started.elapsed().as_secs_f64() < secs {
            units.push(Unit::run(&sim::inputs(unit_seed(next)), traced));
            next += 1;
        }
        units
    };
    let cpu0 = sys::usage();
    let untraced = run_for(ctx.measured(), false);
    let traced = if ctx.trace {
        run_for(ctx.seconds / 2.0, true)
    } else {
        Vec::new()
    };
    let cpu1 = sys::usage();
    // One seed, simulated twice, must give identical cycle counts.
    let again = Unit::run(&first, ctx.trace);
    for (r, want) in again.runs.iter().zip(&reference.runs) {
        if r.cycles != want.cycles {
            out.failures.push(format!(
                "cycles {} then {} for one seed",
                want.cycles, r.cycles
            ));
        }
    }
    for u in untraced.iter().chain(&traced).chain([&reference, &again]) {
        out.attempted += u.ops();
        for r in &u.runs {
            out.failures.extend(r.failures.iter().cloned());
        }
    }
    out.failed = out.failures.len() as u64;
    // The simulator's operations are simulated memory accesses: its rate is
    // accesses served per host second, and its latencies are per access.
    let rate = |us: &[Unit]| {
        let rates = us.iter().map(|u| u.memops() as f64 / u.wall_s()).collect();
        quantile(rates, RATE_Q)
    };
    let latency = |i: usize| {
        quantile(
            untraced.iter().map(|u| u.latency_us[i]).collect(),
            LATENCY_Q,
        )
    };
    let m = &mut out.e2e;
    m.push("ops_per_s", rate(&untraced), "1/s");
    m.push("read_p50_us", latency(0), "us");
    m.push("read_p99_us", latency(1), "us");
    m.push("write_p50_us", latency(2), "us");
    m.push("write_p99_us", latency(3), "us");
    m.push("setup_s", median(setups), "s");
    m.push("peak_rss_mb", sys::usage().peak_rss_mb, "MB");
    let per_mcycle = |ops: u64, cycles: u64| ratio(ops as f64 * 1e6, cycles as f64);
    let (ops, cycles) = reference
        .runs
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.ops, a.1 + r.cycles));
    out.extra
        .push("sim_ops_per_mcycle", per_mcycle(ops, cycles), "1/Mcycle");
    out.extra.push(
        "sim_wall_s",
        quantile(untraced.iter().map(Unit::wall_s).collect(), LATENCY_Q),
        "s",
    );
    for (b, r) in sim::Bench::ALL.iter().zip(&reference.runs) {
        out.extra.push(
            format!("sim.{}.ops_per_mcycle", b.name()),
            per_mcycle(r.ops, r.cycles),
            "1/Mcycle",
        );
    }
    if ctx.trace {
        let tracers = traced
            .iter()
            .flat_map(|u| u.runs.iter().flat_map(|r| r.tracers.iter()));
        let mut t = Tracer::new(Vec::new(), 1, 1);
        for x in tracers {
            t.merge(x);
        }
        let mut l = ledger_metrics(&t, class_ops(&t));
        let runs = || traced.iter().flat_map(|u| u.runs.iter());
        let memops: u64 = runs().map(|r| r.memops).sum();
        let sim_ops: u64 = runs().map(|r| r.ops).sum();
        let wall: f64 = runs().map(|r| r.wall_s).sum();
        let proc_cycles: u64 = runs().map(|r| r.cycles * sim::PROCS as u64).sum();
        l.push(
            "engine.memops_per_op",
            ratio(memops as f64, sim_ops as f64),
            "count",
        );
        l.push(
            "engine.wall_ns_per_memop",
            ratio(wall * 1e9, memops as f64),
            "ns",
        );
        let (user, sys_s) = (cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s);
        l.push("engine.sys_cpu_frac", ratio(sys_s, user + sys_s), "frac");
        l.push(
            "arch.cycles_per_memop",
            ratio(proc_cycles as f64, memops as f64),
            "cycles",
        );
        overhead(&mut l, rate(&traced), rate(&untraced));
        out.table = phase_table("ledger (8 simulated processors)", &t, &["sim_op"]);
        out.layers = l;
    }
    Ok(out)
}

fn self_check_line(sc: &trace::SelfCheck) -> String {
    let rows: Vec<String> = sc
        .rows
        .iter()
        .map(|(p, c)| format!("{} r{} w{} c{}", p.name(), c.reads, c.writes, c.cas()))
        .collect();
    format!(
        "k=1 fetch_add: {} ops ({} reads, {} writes, {} CAS) = {}; CountingPort agrees: {}; ROADMAP baseline 9/8/5: {}",
        sc.ledger.memops(),
        sc.ledger.reads,
        sc.ledger.writes,
        sc.ledger.cas(),
        rows.join(" | "),
        if sc.conserved() { "yes" } else { "NO" },
        if sc.matches_baseline() { "yes" } else { "no" },
    )
}

fn write_spans(path: &Path, spans: &[(usize, Vec<Span>)], classes: &[&str]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let t0 = spans
        .iter()
        .flat_map(|(_, s)| s.first())
        .map(|s| s.t0)
        .min()
        .unwrap_or(0);
    for (client, list) in spans {
        for s in list {
            writeln!(
                f,
                "{{\"client\": {client}, \"op\": {}, \"class\": {}, \"layer\": \"{}\", \"phase\": \"{}\", \"t0_ns\": {}, \"dur_ns\": {}, \"reads\": {}, \"writes\": {}, \"cas\": {}}}",
                s.op,
                quote(classes.get(s.class as usize).copied().unwrap_or("?")),
                s.phase.layer(),
                s.phase.name(),
                num(clock::to_ns(s.t0.wrapping_sub(t0))),
                num(clock::to_ns(s.dur)),
                s.counts.reads,
                s.counts.writes,
                s.counts.cas()
            )?;
        }
    }
    f.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = sys::nproc();
    let clients = args.clients.unwrap_or(2.min(nproc));
    if clients == 0 || clients > nproc {
        eprintln!("perfbench: refusing to run {clients} clients on {nproc} cores");
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        clients,
    };
    clock::ns_per_tick();
    let sc = trace::k1_self_check();
    let result = match args.workload.as_str() {
        "kv-uniform-churn" => run_kv(&ctx),
        "bank-branch" => run_bank(&ctx),
        "sim-paper" => run_sim(&ctx),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    let mut out = result.unwrap_or_else(|e| Outcome {
        attempted: 1,
        failed: 1,
        failures: vec![format!("client panicked: {e}")],
        ..Default::default()
    });
    let names: Vec<&str> = out.e2e.0.iter().map(|m| m.name.as_str()).collect();
    if !out
        .failures
        .iter()
        .any(|f| f.starts_with("client panicked"))
        && names != report::END_TO_END.map(|(n, _)| n)
    {
        out.failures.push(format!(
            "end-to-end metrics {names:?} do not match the declared set"
        ));
    }
    if !sc.conserved() {
        out.failures
            .push("phase ledger does not conserve the CountingPort totals".into());
    }
    let fail_frac = ratio(out.failed as f64, out.attempted as f64);
    out.extra.push("fail_frac", fail_frac, "frac");
    out.layers
        .push("selfcheck.k1_ops", sc.ledger.memops() as f64, "count");
    let correct = out.failed == 0 && out.failures.is_empty();

    println!(
        "perfbench {} seed={} seconds={} trace={} clients={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        clients,
        nproc
    );
    println!("  self-check: {}", self_check_line(&sc));
    println!("  end-to-end:");
    for m in out.e2e.0.iter().chain(&out.extra.0) {
        println!("    {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let (layers, layer_extra) = complete(&out.layers);
    if args.trace {
        print!("{}", out.table);
        println!("  per-layer:");
        for m in layers.0.iter().chain(&layer_extra.0) {
            println!("    {:<32} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("  correctness: {}", if correct { "ok" } else { "FAILED" });

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"clients\": {}, \"nproc\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"end_to_end\": {}, \"workload_end_to_end\": {}, \"per_layer\": {}, \"ledger_extra\": {}, \"self_check\": {}}}\n",
        quote(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        clients,
        nproc,
        correct,
        out.attempted,
        out.failed,
        out.failures.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", "),
        metrics_json(&out.e2e),
        metrics_json(&out.extra),
        metrics_json(&layers),
        metrics_json(&layer_extra),
        quote(&self_check_line(&sc)),
    );
    let mut written = vec![args.out_dir.join(format!("result-{stem}.json"))];
    let mut io = std::fs::write(&written[0], record);
    if args.trace && io.is_ok() {
        written.push(args.out_dir.join(format!("ledger-{stem}.txt")));
        io = std::fs::write(&written[1], &out.table);
        written.push(args.out_dir.join(format!("spans-{stem}.jsonl")));
        io = io.and_then(|_| write_spans(&written[2], &out.spans, out.class_names));
    }
    match io {
        Ok(()) => {
            let names: Vec<String> = written.iter().map(|p| p.display().to_string()).collect();
            println!("  wrote {}", names.join(", "));
        }
        Err(e) => println!("  could not write results: {e}"),
    }
    let metrics = if args.trace { &layers } else { &out.e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
