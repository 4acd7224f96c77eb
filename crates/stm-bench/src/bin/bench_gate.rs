//! CI regression gate for the read-only fast path.
//!
//! ```text
//! cargo run -p stm-bench --release --bin bench_gate -- [OPTIONS]
//!
//! OPTIONS
//!   --baseline PATH   committed report to gate against
//!                     (default results/BENCH_stm.json)
//!   --tolerance PCT   allowed throughput regression in percent (default 15)
//!   --observer-tolerance PCT
//!                     allowed flight-recorder overhead vs NoopObserver on
//!                     the W1 host kernel ladder, in percent (default 12)
//!   --observer-ops N  committed transactions per thread per kernel tier in
//!                     the overhead measurement (default 50000)
//! ```
//!
//! Replays every `read_heavy` row, every write-path `points` row, and every
//! `fairness` row of the committed `BENCH_stm.json` baseline — same
//! workload, architecture, mode, processor count, operation count, and
//! seed, so on an unchanged protocol the simulated cycle counts reproduce
//! bit-exactly — and fails (exit 1) if any row's fresh throughput falls
//! more than the tolerance below the committed number. Also enforces
//! structural invariants on the fresh run: every write-path row's fresh
//! cycle count must equal the committed one exactly — the default
//! (non-blocking) configuration's schedules are pinned bit-identically, so
//! an inert-by-design feature (the blocking layer's park/wake hooks, say)
//! cannot silently perturb them; the fast-read mode beats classic
//! on every read-heavy (bench, arch, procs) configuration; the write path's
//! interpreted and compiled modes agree cycle-for-cycle on every
//! (kernel, arch, procs) configuration — the standing bit-identity witness
//! for the small-k kernels; and on the fairness rows, a fresh
//! `max_losses` must never exceed the committed one (starvation must not
//! regress), with every escalation row inside its N+M `loss_bound`.
//!
//! The `kv` rows are replayed differently: wall-clock throughput does not
//! reproduce across machines, so the gate rebuilds the committed world
//! (same keys, buckets, seed) once, re-runs every rung at a quarter of the
//! committed operation count, and pins the workload's *functional*
//! invariants instead — every rung must sustain at least one million live
//! arena cells (the flagship claim), the quiesced map scan must match the
//! length counter with no duplicate keys and exact arena accounting
//! (`live == 2·buckets + 3·len`), and the read-heavy rung must reach at
//! least a quarter of the write-heavy rung's fresh throughput at equal
//! thread count and skew (both sides measured on this machine, so the
//! ratio is meaningful).
//!
//! Write-path rows are recognized inside `points` by `"bench":
//! "write-path"`; figure rows (no seed) are not replayable and are
//! skipped. Host (`host` section) rows are wall-clock and are deliberately
//! ignored.

use std::path::PathBuf;

use stm_bench::fairness::{run_fairness_point, FairMode};
use stm_bench::kv::{build_world, run_kv_point, KvConfig, KvPoint};
use stm_bench::read_heavy::{run_read_point, ReadBench, ReadMode, ReadPoint};
use stm_bench::table::thousands;
use stm_bench::workloads::ArchKind;
use stm_bench::write_path::{
    k_from_label, k_label, run_observer_ladder, run_write_point, ObserverMode, WriteMode,
    WritePoint,
};

struct Options {
    baseline: PathBuf,
    tolerance: f64,
    observer_tolerance: f64,
    observer_ops: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        baseline: PathBuf::from("results/BENCH_stm.json"),
        tolerance: 15.0,
        // The recorder's true cost on the W1 ladder is ~2%; the headroom
        // absorbs code-alignment jitter between builds and shared-runner
        // noise, which has been measured swinging the median by +/-6 points
        // on busy hosts. A real recorder regression (an allocation or lock
        // on the record path) shows up at 2-10x this limit, not near it.
        observer_tolerance: 12.0,
        observer_ops: 50_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => opts.baseline = PathBuf::from(val("--baseline")),
            "--tolerance" => {
                opts.tolerance = val("--tolerance").parse().expect("--tolerance PCT")
            }
            "--observer-tolerance" => {
                opts.observer_tolerance =
                    val("--observer-tolerance").parse().expect("--observer-tolerance PCT")
            }
            "--observer-ops" => {
                opts.observer_ops = val("--observer-ops").parse().expect("--observer-ops N")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_gate [--baseline PATH] [--tolerance PCT] \
                     [--observer-tolerance PCT] [--observer-ops N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// A baseline row's replay parameters plus its committed throughput.
struct BaselineRow {
    bench: ReadBench,
    arch: ArchKind,
    mode: ReadMode,
    procs: usize,
    total_ops: u64,
    seed: u64,
    throughput: f64,
}

fn parse_baseline(doc: &serde_json::Value) -> Vec<BaselineRow> {
    let rows = doc["read_heavy"]
        .as_array()
        .unwrap_or_else(|| die("baseline has no read_heavy section (schema too old?)"));
    rows.iter()
        .map(|r| BaselineRow {
            bench: ReadBench::from_label(r["bench"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown bench label in baseline")),
            arch: ArchKind::from_label(r["arch"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown arch label in baseline")),
            mode: ReadMode::from_label(r["config"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown config label in baseline")),
            procs: r["procs"].as_u64().unwrap_or_else(|| die("missing procs")) as usize,
            total_ops: r["total_ops"].as_u64().unwrap_or_else(|| die("missing total_ops")),
            seed: r["seed"].as_u64().unwrap_or_else(|| die("missing seed")),
            throughput: r["throughput"].as_f64().unwrap_or_else(|| die("missing throughput")),
        })
        .collect()
}

/// A baseline write-path row's replay parameters plus its committed
/// throughput.
struct WriteRow {
    k: usize,
    arch: ArchKind,
    mode: WriteMode,
    procs: usize,
    total_ops: u64,
    seed: u64,
    throughput: f64,
    cycles: u64,
}

fn parse_write_baseline(doc: &serde_json::Value) -> Vec<WriteRow> {
    let Some(rows) = doc["points"].as_array() else { return Vec::new() };
    rows.iter()
        .filter(|r| r["bench"].as_str() == Some("write-path"))
        .map(|r| WriteRow {
            k: k_from_label(r["kernel"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown kernel label in baseline")),
            arch: ArchKind::from_label(r["arch"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown arch label in baseline")),
            mode: WriteMode::from_label(r["method"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown method label in baseline")),
            procs: r["procs"].as_u64().unwrap_or_else(|| die("missing procs")) as usize,
            total_ops: r["total_ops"].as_u64().unwrap_or_else(|| die("missing total_ops")),
            seed: r["seed"].as_u64().unwrap_or_else(|| die("missing seed")),
            throughput: r["throughput"].as_f64().unwrap_or_else(|| die("missing throughput")),
            cycles: r["cycles"].as_u64().unwrap_or_else(|| die("missing cycles")),
        })
        .collect()
}

/// A baseline fairness row's replay parameters plus its committed numbers.
struct FairRow {
    arch: ArchKind,
    mode: FairMode,
    total_ops: u64,
    seed: u64,
    throughput: f64,
    max_losses: u64,
    loss_bound: u64,
}

fn parse_fairness_baseline(doc: &serde_json::Value) -> Vec<FairRow> {
    let Some(rows) = doc["fairness"].as_array() else { return Vec::new() };
    rows.iter()
        .map(|r| FairRow {
            arch: ArchKind::from_label(r["arch"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown arch label in baseline")),
            mode: FairMode::from_label(r["config"].as_str().unwrap_or_default())
                .unwrap_or_else(|| die("unknown fairness config label in baseline")),
            total_ops: r["total_ops"].as_u64().unwrap_or_else(|| die("missing total_ops")),
            seed: r["seed"].as_u64().unwrap_or_else(|| die("missing seed")),
            throughput: r["throughput"].as_f64().unwrap_or_else(|| die("missing throughput")),
            max_losses: r["max_losses"].as_u64().unwrap_or_else(|| die("missing max_losses")),
            loss_bound: r["loss_bound"].as_u64().unwrap_or_else(|| die("missing loss_bound")),
        })
        .collect()
}

/// A baseline KV rung's replay parameters plus its committed numbers.
struct KvRow {
    keys: u32,
    n_buckets: usize,
    threads: usize,
    total_ops: u64,
    skew: f64,
    read_pct: u32,
    seed: u64,
    ops_per_sec: f64,
    live_cells: u64,
}

fn parse_kv_baseline(doc: &serde_json::Value) -> Vec<KvRow> {
    let rows = doc["kv"]
        .as_array()
        .unwrap_or_else(|| die("baseline has no kv section (schema too old?)"));
    rows.iter()
        .map(|r| KvRow {
            keys: r["keys"].as_u64().unwrap_or_else(|| die("missing keys")) as u32,
            n_buckets: r["n_buckets"].as_u64().unwrap_or_else(|| die("missing n_buckets"))
                as usize,
            threads: r["threads"].as_u64().unwrap_or_else(|| die("missing threads")) as usize,
            total_ops: r["total_ops"].as_u64().unwrap_or_else(|| die("missing total_ops")),
            skew: r["skew"].as_f64().unwrap_or_else(|| die("missing skew")),
            read_pct: r["read_pct"].as_u64().unwrap_or_else(|| die("missing read_pct")) as u32,
            seed: r["seed"].as_u64().unwrap_or_else(|| die("missing seed")),
            ops_per_sec: r["ops_per_sec"].as_f64().unwrap_or_else(|| die("missing ops_per_sec")),
            live_cells: r["live_cells"].as_u64().unwrap_or_else(|| die("missing live_cells")),
        })
        .collect()
}

fn die<T>(msg: &str) -> T {
    eprintln!("[bench-gate] error: {msg}");
    std::process::exit(2);
}

fn main() {
    let opts = parse_args();
    let text = std::fs::read_to_string(&opts.baseline).unwrap_or_else(|e| {
        die(&format!("cannot read {}: {e}", opts.baseline.display()))
    });
    let doc: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("bad baseline JSON: {e}")));
    let baseline = parse_baseline(&doc);
    if baseline.is_empty() {
        die::<()>("baseline read_heavy section is empty; regenerate with `figures read-heavy`");
    }
    let write_baseline = parse_write_baseline(&doc);
    if write_baseline.is_empty() {
        die::<()>("baseline has no write-path points; regenerate with `figures write-path`");
    }
    let fairness_baseline = parse_fairness_baseline(&doc);
    if fairness_baseline.is_empty() {
        die::<()>("baseline has no fairness rows; regenerate with `figures fairness`");
    }
    let kv_baseline = parse_kv_baseline(&doc);
    if kv_baseline.is_empty() {
        die::<()>(
            "baseline has no kv rows; regenerate with `cargo run --release --example \
             kv_service -- --update-bench`",
        );
    }
    eprintln!(
        "[bench-gate] replaying {} read-heavy + {} write-path + {} fairness + {} kv rows \
         from {} (tolerance {}%)",
        baseline.len(),
        write_baseline.len(),
        fairness_baseline.len(),
        kv_baseline.len(),
        opts.baseline.display(),
        opts.tolerance
    );

    let floor = 1.0 - opts.tolerance / 100.0;
    let mut fresh: Vec<ReadPoint> = Vec::with_capacity(baseline.len());
    let mut failures = 0usize;
    for row in &baseline {
        let p = run_read_point(row.bench, row.arch, row.mode, row.procs, row.total_ops, row.seed);
        let ratio = if row.throughput > 0.0 { p.throughput / row.throughput } else { 1.0 };
        let ok = ratio >= floor;
        println!(
            "{} {:>14} {:>5} {:>10} P={:<3} baseline {:>10.1} fresh {:>10.1} ({:+.1}%)",
            if ok { "ok  " } else { "FAIL" },
            row.bench.label(),
            row.arch.label(),
            row.mode.label(),
            row.procs,
            row.throughput,
            p.throughput,
            (ratio - 1.0) * 100.0
        );
        if !ok {
            failures += 1;
        }
        fresh.push(p);
    }

    // Structural invariant: fast-read must beat classic in the fresh run on
    // every configuration both modes cover.
    for f in fresh.iter().filter(|p| p.mode == ReadMode::Fast) {
        if let Some(c) = fresh.iter().find(|p| {
            p.mode == ReadMode::Classic
                && p.bench == f.bench
                && p.arch == f.arch
                && p.procs == f.procs
        }) {
            if f.throughput <= c.throughput {
                println!(
                    "FAIL {:>14} {:>5} P={:<3} fast-read {:.1} does not beat classic {:.1}",
                    f.bench.label(),
                    f.arch.label(),
                    f.procs,
                    f.throughput,
                    c.throughput
                );
                failures += 1;
            }
        }
    }

    // Write-path rows: same replay-and-compare, against the kernel ladder.
    let mut fresh_write: Vec<WritePoint> = Vec::with_capacity(write_baseline.len());
    for row in &write_baseline {
        let p = run_write_point(row.k, row.arch, row.mode, row.procs, row.total_ops, row.seed);
        let ratio = if row.throughput > 0.0 { p.throughput / row.throughput } else { 1.0 };
        let mut ok = ratio >= floor;
        // These rows run the default (non-blocking) configuration, whose
        // schedules must replay the committed baseline bit-identically:
        // any cycle drift means a supposedly-inert feature (the blocking
        // layer's park/wake hooks, an observer, ...) perturbed the
        // protocol schedule.
        let mut note = String::new();
        if p.cycles != row.cycles {
            ok = false;
            note = format!("  cycles {} drifted from committed {}", p.cycles, row.cycles);
        }
        println!(
            "{} {:>14} {:>5} {:>12} P={:<3} baseline {:>10.1} fresh {:>10.1} ({:+.1}%){}",
            if ok { "ok  " } else { "FAIL" },
            format!("write-path/{}", k_label(row.k)),
            row.arch.label(),
            row.mode.label(),
            row.procs,
            row.throughput,
            p.throughput,
            (ratio - 1.0) * 100.0,
            note
        );
        if !ok {
            failures += 1;
        }
        fresh_write.push(p);
    }

    // Structural invariant: the small-k kernels behind the compiled mode
    // must replay the interpreted general sweep's schedule cycle-for-cycle
    // on every configuration both modes cover, checked against fresh runs.
    for c in fresh_write.iter().filter(|p| p.mode == WriteMode::Compiled) {
        if let Some(i) = fresh_write.iter().find(|p| {
            p.mode == WriteMode::Interpreted
                && p.k == c.k
                && p.arch == c.arch
                && p.procs == c.procs
        }) {
            if c.cycles != i.cycles {
                println!(
                    "FAIL {:>14} {:>5} P={:<3} compiled {} cycles != interpreted {} cycles",
                    format!("write-path/{}", k_label(c.k)),
                    c.arch.label(),
                    c.procs,
                    c.cycles,
                    i.cycles
                );
                failures += 1;
            }
        }
    }

    // Fairness rows: replay-and-compare on throughput like the other
    // families, plus the starvation gate — a fresh row may never lose more
    // than the committed baseline did, and an escalation row must stay
    // inside its N+M loss bound (run_fairness_point also asserts the bound
    // internally, so a broken ladder aborts loudly rather than emitting).
    for row in &fairness_baseline {
        let p = run_fairness_point(row.arch, row.mode, row.total_ops, row.seed);
        let ratio = if row.throughput > 0.0 { p.throughput / row.throughput } else { 1.0 };
        let mut ok = ratio >= floor;
        let mut note = String::new();
        if p.max_losses > row.max_losses {
            ok = false;
            note = format!(
                "  max-losses {} regressed past committed {}",
                p.max_losses, row.max_losses
            );
        }
        if row.mode == FairMode::Escalation && p.max_losses > row.loss_bound {
            ok = false;
            note.push_str(&format!(
                "  max-losses {} above the N+M bound {}",
                p.max_losses, row.loss_bound
            ));
        }
        println!(
            "{} {:>14} {:>5} {:>10} P={:<3} baseline {:>10.1} fresh {:>10.1} ({:+.1}%) \
             losses {}/{}{}",
            if ok { "ok  " } else { "FAIL" },
            "storm",
            row.arch.label(),
            row.mode.label(),
            p.procs,
            row.throughput,
            p.throughput,
            (ratio - 1.0) * 100.0,
            p.max_losses,
            row.max_losses,
            note
        );
        if !ok {
            failures += 1;
        }
    }

    // Observer-overhead gate: the always-on flight recorder must cost at
    // most `observer_tolerance` percent over NoopObserver on the W1 host
    // kernel ladder. Wall-clock measurements are noisy, so each trial runs
    // the two modes back-to-back and contributes one flight/noop *ratio* —
    // a noise burst (co-tenant, thermal dip) lands on both halves of a
    // pair and cancels in the quotient, where it used to poison one side's
    // minimum. The median ratio over nine trials is the estimate. This
    // runs *before* the KV replay: the ladder needs a quiet machine, and
    // the KV rungs below saturate every core for seconds at a time.
    const OBSERVER_TRIALS: usize = 9;
    let procs = 2;
    // Warm-up: warm the scratches, fault in pages, spin up the allocator.
    let _ = run_observer_ladder(ObserverMode::Noop, procs, opts.observer_ops / 10);
    let _ = run_observer_ladder(ObserverMode::Flight, procs, opts.observer_ops / 10);
    let mut ratios = [0.0f64; OBSERVER_TRIALS];
    let mut best = [u64::MAX; 2];
    for (i, r) in ratios.iter_mut().enumerate() {
        // Alternate which mode goes first: a machine that slows (or
        // recovers) monotonically across the sweep otherwise always puts
        // the second-run mode on the slow side and biases every ratio the
        // same way.
        let (noop, flight) = if i % 2 == 0 {
            let n = run_observer_ladder(ObserverMode::Noop, procs, opts.observer_ops);
            (n, run_observer_ladder(ObserverMode::Flight, procs, opts.observer_ops))
        } else {
            let f = run_observer_ladder(ObserverMode::Flight, procs, opts.observer_ops);
            (run_observer_ladder(ObserverMode::Noop, procs, opts.observer_ops), f)
        };
        *r = flight as f64 / noop.max(1) as f64;
        best[0] = best[0].min(noop);
        best[1] = best[1].min(flight);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead = (ratios[OBSERVER_TRIALS / 2] - 1.0) * 100.0;
    let ok = overhead <= opts.observer_tolerance;
    println!(
        "{} {:>14} P={procs:<3} noop {:>10} ns  flight {:>10} ns  overhead {overhead:+.2}% \
         (median of {OBSERVER_TRIALS} paired ratios, limit {}%)",
        if ok { "ok  " } else { "FAIL" },
        "observer/W1",
        best[0],
        best[1],
        opts.observer_tolerance
    );
    if !ok {
        failures += 1;
    }

    // KV rows: wall-clock throughput does not reproduce across machines,
    // so instead of a throughput floor the gate rebuilds the committed
    // world once (the rows must agree on its shape) and replays every rung
    // at a quarter of the committed operation count, pinning the workload's
    // functional invariants: the million-live-cell floor per rung, exact
    // arena accounting after quiescence, and read-heavy rungs keeping up
    // with write-heavy ones on *this* machine.
    let kv0 = &kv_baseline[0];
    let (kv_keys, kv_buckets) = (kv0.keys, kv0.n_buckets);
    if kv_baseline.iter().any(|r| r.keys != kv_keys || r.n_buckets != kv_buckets) {
        die::<()>("kv rows disagree on keys/n_buckets; the ladder shares one world");
    }
    let kv_procs = kv_baseline.iter().map(|r| r.threads).max().unwrap_or(1);
    eprintln!(
        "[bench-gate] building kv world ({} keys, {} buckets)...",
        thousands(u64::from(kv_keys)),
        thousands(kv_buckets as u64)
    );
    // Scoped so the multi-million-cell world is torn down before the
    // wall-clock observer ladder below — tens of megabytes of hot heap
    // would otherwise sit on that measurement.
    let fresh_kv = {
        let world = build_world(kv_keys, kv_buckets, kv_procs);
        let mut fresh_kv: Vec<KvPoint> = Vec::with_capacity(kv_baseline.len());
        for row in &kv_baseline {
            let cfg = KvConfig {
                keys: kv_keys,
                n_buckets: kv_buckets,
                threads: row.threads,
                total_ops: row.total_ops.div_ceil(4),
                skew: row.skew,
                read_pct: row.read_pct,
                seed: row.seed,
            };
            let p = run_kv_point(&world, &cfg);
            let mut ok = true;
            let mut note = String::new();
            if p.live_cells < 1_000_000 {
                ok = false;
                note = format!(
                    "  live cells {} below the million-cell floor",
                    thousands(p.live_cells)
                );
            }
            println!(
                "{} {:>14} {:>14} T={:<2} committed {:>12.0} ops/s fresh {:>12.0} ops/s \
                 live {:>10} (baseline {:>10}){}",
                if ok { "ok  " } else { "FAIL" },
                "kv",
                p.label(),
                row.threads,
                row.ops_per_sec,
                p.ops_per_sec,
                thousands(p.live_cells),
                thousands(row.live_cells),
                note
            );
            if !ok {
                failures += 1;
            }
            fresh_kv.push(p);
        }
        // Quiesced integrity: the scan must match the length counter with no
        // duplicates or reachable tombstones, and arena accounting must be
        // exact (the map owns the arena, so live == 2·buckets + 3·len). These
        // assert internally — a violation is a protocol bug and aborts loudly.
        let scanned = {
            let mut port = world.machine().port(0);
            world.map().check_quiesced(&mut port, true)
        };
        println!(
            "ok   {:>14} quiesced scan {} entries, arena accounting exact ({} live cells)",
            "kv/scan",
            thousands(scanned),
            thousands(world.map().arena().live_cells() as u64)
        );
        fresh_kv
    };
    // Read-heavy rungs must keep up with write-heavy ones: both sides are
    // fresh numbers from this machine, so the ratio is meaningful even
    // though the absolute throughput is not.
    for f in fresh_kv.iter().filter(|p| p.read_pct == 95) {
        if let Some(w) = fresh_kv
            .iter()
            .find(|p| p.read_pct == 50 && p.threads == f.threads && p.skew == f.skew)
        {
            if f.ops_per_sec < 0.25 * w.ops_per_sec {
                println!(
                    "FAIL {:>14} {:>14} read-heavy {:.0} ops/s under a quarter of \
                     write-heavy {:.0} ops/s",
                    "kv",
                    f.label(),
                    f.ops_per_sec,
                    w.ops_per_sec
                );
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("[bench-gate] {failures} regression(s) beyond {}% tolerance", opts.tolerance);
        std::process::exit(1);
    }
    eprintln!(
        "[bench-gate] all rows within tolerance; fast path still a win; write-path schedules \
         bit-identical to the committed baseline; small-k kernels bit-identical; starvation \
         still bounded; kv service holding a million-plus live cells with exact accounting; \
         flight recorder within the overhead budget"
    );
}
