//! KV service: a million-key transactional key-value store over the
//! growable sharded cell arena.
//!
//! The service is an [`StmHashMap`](stm_structures::hashmap::StmHashMap)
//! whose 3-cell entries are allocated and freed from a
//! [`CellArena`](stm_core::arena::CellArena) while transactions run:
//! segment-append growth keeps every cell address stable, per-shard free
//! lists recycle spans, and the frozen-bucket validation scheme makes
//! stale traversals into recycled spans provably fail. Traffic is Zipfian
//! get/put/delete on allocation-free static transactions (value updates
//! commit as 2-cell transactions).
//!
//! ```text
//! cargo run --release --example kv_service -- [OPTIONS]
//!
//! OPTIONS
//!   --keys N        key-space size (default 600000 — ≥1M live cells)
//!   --buckets N     hash buckets, power of two (default 262144)
//!   --threads N     worker threads for single runs and soaks (default 4)
//!   --ops N         operations per run/rung (default 400000)
//!   --skew S        Zipf exponent (default 0.99; 0 = uniform)
//!   --read-pct P    percent of ops that are gets (default 95)
//!   --seed S        RNG seed (default 31415)
//!   --ladder        run the full threads × skew × read-ratio ladder
//!   --soak N        churn N total ops in chunks, printing live-cell
//!                   progress (the nightly CI soak runs 10M)
//!   --flight PATH   write a metrics sidecar JSON (arena alloc/free flight
//!                   events folded into per-proc counters) after the run
//!   --update-bench  run the ladder and splice the rows into
//!                   results/BENCH_stm.json (other sections untouched)
//! ```

use std::path::PathBuf;

use stm_bench::kv::{
    build_world, kv_ladder, run_kv_point, KvConfig, KvPoint, KvWorld, KV_BUCKETS, KV_KEYS,
    KV_OPS, KV_SEED,
};
use stm_bench::report::splice_kv_section;
use stm_bench::table::{render_columns, thousands};
use stm_core::export::{snapshot_json, MetricsRegistry};
use stm_core::DEFAULT_FLIGHT_CAPACITY;

struct Args {
    keys: u32,
    buckets: usize,
    threads: usize,
    ops: u64,
    skew: f64,
    read_pct: u32,
    seed: u64,
    ladder: bool,
    soak: Option<u64>,
    flight: Option<PathBuf>,
    update_bench: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        keys: KV_KEYS,
        buckets: KV_BUCKETS,
        threads: 4,
        ops: KV_OPS,
        skew: 0.99,
        read_pct: 95,
        seed: KV_SEED,
        ladder: false,
        soak: None,
        flight: None,
        update_bench: false,
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
            "--keys" => a.keys = val("--keys").parse().expect("--keys N"),
            "--buckets" => a.buckets = val("--buckets").parse().expect("--buckets N"),
            "--threads" => a.threads = val("--threads").parse().expect("--threads N"),
            "--ops" => a.ops = val("--ops").parse().expect("--ops N"),
            "--skew" => a.skew = val("--skew").parse().expect("--skew S"),
            "--read-pct" => a.read_pct = val("--read-pct").parse().expect("--read-pct P"),
            "--seed" => a.seed = val("--seed").parse().expect("--seed S"),
            "--ladder" => a.ladder = true,
            "--soak" => a.soak = Some(val("--soak").parse().expect("--soak N")),
            "--flight" => a.flight = Some(PathBuf::from(val("--flight"))),
            "--update-bench" => a.update_bench = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: kv_service [--keys N] [--buckets N] [--threads N] [--ops N] \
                     [--skew S] [--read-pct P] [--seed S] [--ladder] [--soak N] \
                     [--flight PATH] [--update-bench]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }
    a
}

fn main() {
    let a = parse_args();
    println!(
        "kv service: {} keys, {} buckets, seed {}",
        thousands(u64::from(a.keys)),
        thousands(a.buckets as u64),
        a.seed
    );
    let n_procs = if a.ladder || a.update_bench { 4 } else { a.threads.max(1) };
    let t0 = std::time::Instant::now();
    let world = build_world(a.keys, a.buckets, n_procs);
    println!(
        "world built in {:.2}s: {} live cells in {} segments ({} capacity)",
        t0.elapsed().as_secs_f64(),
        thousands(world.map().arena().live_cells() as u64),
        world.map().arena().segments_live(),
        thousands(world.map().arena().capacity_cells() as u64),
    );

    // The sidecar registry folds the arena's alloc/free flight events into
    // per-proc counters; attached after the prefill so it narrates churn.
    let registry = MetricsRegistry::new(n_procs, DEFAULT_FLIGHT_CAPACITY);
    if a.flight.is_some() {
        world.map().arena().attach_recorder(registry.recorder(0));
    }

    let points = if let Some(total) = a.soak {
        run_soak(&world, &a, total)
    } else if a.ladder || a.update_bench {
        let ladder = kv_ladder(a.keys, a.buckets, a.ops);
        ladder.iter().map(|cfg| run_kv_point(&world, cfg)).collect()
    } else {
        vec![run_kv_point(
            &world,
            &KvConfig {
                keys: a.keys,
                n_buckets: a.buckets,
                threads: a.threads.max(1),
                total_ops: a.ops,
                skew: a.skew,
                read_pct: a.read_pct,
                seed: a.seed,
            },
        )]
    };
    print_points(&points);

    // Quiesced integrity: exact accounting is the whole point of the arena.
    let scanned = {
        let mut port = world.machine().port(0);
        world.map().check_quiesced(&mut port, true)
    };
    println!(
        "quiesced scan: {} entries, arena accounting exact ({} live cells, high water {})",
        thousands(scanned),
        thousands(world.map().arena().live_cells() as u64),
        thousands(world.map().arena().stats().high_water_cells as u64),
    );

    if let Some(path) = &a.flight {
        let snap = registry.snapshot();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create flight sidecar dir");
        }
        std::fs::write(path, snapshot_json(&snap)).expect("write flight sidecar");
        println!("wrote flight sidecar {}", path.display());
    }

    if a.update_bench {
        let path = PathBuf::from("results/BENCH_stm.json");
        splice_kv_section(&path, &points).expect("splice kv section into BENCH_stm.json");
        println!("spliced {} kv rows into {}", points.len(), path.display());
    }
    println!("kv_service OK");
}

/// Churn `total` operations in chunks, printing live-cell progress per
/// chunk (each chunk re-seeds its streams so the soak keeps exploring).
fn run_soak(world: &KvWorld, a: &Args, total: u64) -> Vec<KvPoint> {
    let chunk = (total / 20).clamp(10_000, 1_000_000);
    let mut points = Vec::new();
    let mut done = 0u64;
    println!(
        "soak: {} ops in {} chunks of {} ({} threads, skew {}, {}% reads)",
        thousands(total),
        total.div_ceil(chunk),
        thousands(chunk),
        a.threads,
        a.skew,
        a.read_pct
    );
    while done < total {
        let cfg = KvConfig {
            keys: a.keys,
            n_buckets: a.buckets,
            threads: a.threads.max(1),
            total_ops: chunk.min(total - done),
            skew: a.skew,
            read_pct: a.read_pct,
            seed: a.seed.wrapping_add(done),
        };
        let p = run_kv_point(world, &cfg);
        done += p.total_ops;
        println!(
            "  {:>13} ops done: {:>10} entries, {:>10} live cells, {:>12.0} ops/s",
            thousands(done),
            thousands(p.entries),
            thousands(p.live_cells),
            p.ops_per_sec
        );
        points.push(p);
    }
    points
}

fn print_points(points: &[KvPoint]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label(),
                format!("{:.0}", p.ops_per_sec),
                thousands(p.gets),
                format!("{:.3}", if p.gets == 0 { 0.0 } else { p.hits as f64 / p.gets as f64 }),
                thousands(p.puts),
                thousands(p.deletes),
                thousands(p.entries),
                thousands(p.live_cells),
                thousands(p.high_water_cells),
                p.segments_live.to_string(),
            ]
        })
        .collect();
    println!();
    print!(
        "{}",
        render_columns(
            "KV service ladder (wall-clock)",
            &[
                "config", "ops/sec", "gets", "hit-rate", "puts", "deletes", "entries",
                "live-cells", "high-water", "segments"
            ],
            &rows
        )
    );
    println!();
}
