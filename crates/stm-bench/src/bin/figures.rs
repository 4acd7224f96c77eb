//! Regenerate the figures and tables of the Shavit–Touitou evaluation.
//!
//! ```text
//! cargo run -p stm-bench --release --bin figures -- [EXPERIMENTS] [OPTIONS]
//!
//! EXPERIMENTS (any subset; default: all)
//!   counting-bus counting-mesh queue-bus queue-mesh
//!   resource-bus resource-mesh prio-bus prio-mesh
//!   summary ablate-helping ablate-backoff ablate-arch
//!   read-heavy read-heavy-host write-path write-path-host
//!   durable durable-host fairness blocking blocking-host kv
//!
//! OPTIONS
//!   --ops N        total operations per data point (default 2048)
//!   --quick        sweep P in {1,2,4,8} instead of the paper's {1..64}
//!   --procs LIST   comma-separated processor counts (overrides --quick)
//!   --seed S       schedule seed (default 0x5EED)
//!   --out DIR      CSV output directory (default results/)
//! ```
//!
//! Each experiment prints the paper-shaped throughput table and writes a CSV
//! under the output directory. See DESIGN.md §6 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured comparisons.

use std::path::PathBuf;

use stm_bench::blocking::{run_blocking_host_point, run_blocking_point, BlockMode};
use stm_bench::durable::{
    run_durable_host_point, run_durable_point, DURABLE_FLUSH_COSTS, DURABLE_PROCS,
};
use stm_bench::fairness::{run_fairness_point, FairMode, FairnessPoint, FAIR_BIG_K};
use stm_bench::kv::{run_kv_ladder, KvPoint, KV_BUCKETS, KV_KEYS, KV_OPS};
use stm_bench::read_heavy::{
    run_host_point, run_read_point, HostPoint, ReadBench, ReadMode, ReadPoint, HOST_CONFIGS,
};
use stm_bench::report::write_bench_json;
use stm_bench::runner::{summarize, Sweep, PAPER_PROCS, QUICK_PROCS};
use stm_bench::table::{render_table, thousands, write_csv};
use stm_bench::workloads::{ArchKind, Bench, DataPoint};
use stm_bench::write_path::{
    compiled_speedups, k_label, run_write_host_point, run_write_point, WriteHostPoint, WriteMode,
    WritePoint, WRITE_KS, WRITE_PROCS,
};
use stm_core::stm::BackoffPolicy;
use stm_structures::Method;

#[derive(Debug, Clone)]
struct Options {
    experiments: Vec<String>,
    ops: u64,
    procs: Vec<usize>,
    seed: u64,
    out: PathBuf,
    quick: bool,
}

const ALL_EXPERIMENTS: [&str; 22] = [
    "counting-bus",
    "counting-mesh",
    "queue-bus",
    "queue-mesh",
    "resource-bus",
    "resource-mesh",
    "prio-bus",
    "prio-mesh",
    "summary",
    "ablate-helping",
    "ablate-backoff",
    "ablate-arch",
    "read-heavy",
    "read-heavy-host",
    "write-path",
    "write-path-host",
    "durable",
    "durable-host",
    "fairness",
    "blocking",
    "blocking-host",
    "kv",
];

fn parse_args() -> Options {
    let mut opts = Options {
        experiments: Vec::new(),
        ops: 2048,
        procs: PAPER_PROCS.to_vec(),
        seed: 0x5EED,
        out: PathBuf::from("results"),
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => opts.ops = expect_val(&mut args, "--ops").parse().expect("--ops N"),
            "--seed" => opts.seed = expect_val(&mut args, "--seed").parse().expect("--seed S"),
            "--quick" => {
                opts.procs = QUICK_PROCS.to_vec();
                opts.quick = true;
            }
            "--procs" => {
                opts.procs = expect_val(&mut args, "--procs")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--procs LIST"))
                    .collect()
            }
            "--out" => opts.out = PathBuf::from(expect_val(&mut args, "--out")),
            "--help" | "-h" => {
                eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
                eprintln!("options: --ops N --quick --procs LIST --seed S --out DIR");
                std::process::exit(0);
            }
            name => {
                if ALL_EXPERIMENTS.contains(&name) {
                    opts.experiments.push(name.to_owned());
                } else {
                    eprintln!("unknown experiment or option: {name}");
                    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
                    std::process::exit(2);
                }
            }
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments = ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
    }
    opts
}

fn expect_val(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn main() {
    let opts = parse_args();
    let mut all_points: Vec<DataPoint> = Vec::new();
    let mut write_points: Vec<WritePoint> = Vec::new();
    let mut read_points: Vec<ReadPoint> = Vec::new();
    let mut fairness_points: Vec<FairnessPoint> = Vec::new();
    let mut kv_points: Vec<KvPoint> = Vec::new();
    let mut host_points: Vec<HostPoint> = Vec::new();
    let mut write_host_points: Vec<WriteHostPoint> = Vec::new();

    let mut figure_points: Vec<DataPoint> = Vec::new();

    for exp in &opts.experiments {
        match exp.as_str() {
            "summary" => {} // handled after the sweeps
            "ablate-helping" => all_points.extend(run_ablate_helping(&opts)),
            "ablate-backoff" => run_ablate_backoff(&opts),
            "ablate-arch" => all_points.extend(run_ablate_arch(&opts)),
            "read-heavy" => read_points.extend(run_read_heavy(&opts)),
            "read-heavy-host" => host_points.extend(run_read_heavy_host(&opts)),
            "write-path" => write_points.extend(run_write_path(&opts)),
            "write-path-host" => write_host_points.extend(run_write_path_host(&opts)),
            "durable" => run_durable(&opts),
            "durable-host" => run_durable_host(&opts),
            "fairness" => fairness_points.extend(run_fairness(&opts)),
            "kv" => kv_points.extend(run_kv(&opts)),
            "blocking" => run_blocking(&opts),
            "blocking-host" => run_blocking_host(&opts),
            name => {
                let (bench, arch) = parse_figure(name);
                let points = run_figure(&opts, name, bench, arch);
                figure_points.extend(points.iter().cloned());
                all_points.extend(points);
            }
        }
    }

    if opts.experiments.iter().any(|e| e == "summary") {
        run_summary(&figure_points);
    }

    if !all_points.is_empty()
        || !write_points.is_empty()
        || !read_points.is_empty()
        || !fairness_points.is_empty()
        || !kv_points.is_empty()
        || !host_points.is_empty()
        || !write_host_points.is_empty()
    {
        let path = opts.out.join("BENCH_stm.json");
        write_bench_json(
            &path,
            &all_points,
            &write_points,
            &read_points,
            &fairness_points,
            &kv_points,
            &host_points,
            &write_host_points,
        )
        .expect("write BENCH_stm.json");
        eprintln!(
            "[figures] wrote {} ({} points, {} write-path, {} read-heavy, {} fairness, {} kv, \
             {} host)",
            path.display(),
            all_points.len() + write_points.len(),
            write_points.len(),
            read_points.len(),
            fairness_points.len(),
            kv_points.len(),
            host_points.len() + write_host_points.len()
        );
    }
}

fn parse_figure(name: &str) -> (Bench, ArchKind) {
    let (b, a) = name.split_once('-').expect("figure name is bench-arch");
    let bench = match b {
        "counting" => Bench::Counting,
        "queue" => Bench::Queue,
        "resource" => Bench::Resource,
        "prio" => Bench::Prio,
        _ => unreachable!("validated in parse_args"),
    };
    let arch = match a {
        "bus" => ArchKind::Bus,
        "mesh" => ArchKind::Mesh,
        _ => unreachable!("validated in parse_args"),
    };
    (bench, arch)
}

fn figure_id(bench: Bench, arch: ArchKind) -> &'static str {
    match (bench, arch) {
        (Bench::Counting, ArchKind::Bus) => "F1",
        (Bench::Counting, ArchKind::Mesh) => "F2",
        (Bench::Queue, ArchKind::Bus) => "F3",
        (Bench::Queue, ArchKind::Mesh) => "F4",
        (Bench::Resource, ArchKind::Bus) => "F5",
        (Bench::Resource, ArchKind::Mesh) => "F6",
        (Bench::Prio, ArchKind::Bus) => "F7",
        (Bench::Prio, ArchKind::Mesh) => "F8",
        _ => "F?",
    }
}

fn run_figure(opts: &Options, name: &str, bench: Bench, arch: ArchKind) -> Vec<DataPoint> {
    let mut sweep = Sweep::paper(bench, arch, opts.ops);
    sweep.procs = opts.procs.clone();
    sweep.seed = opts.seed;
    eprintln!("[figures] running {name} ({} points)...", sweep.methods.len() * sweep.procs.len());
    let points = sweep.run();
    let title = format!(
        "{} — {} benchmark on the {} machine ({} ops/point, seed {:#x})",
        figure_id(bench, arch),
        bench,
        arch,
        opts.ops,
        opts.seed
    );
    println!("{}", render_table(&title, &points));
    let path = opts.out.join(format!("{name}.csv"));
    write_csv(&path, &points).expect("write CSV");
    eprintln!("[figures] wrote {}", path.display());
    points
}

fn run_summary(points: &[DataPoint]) {
    if points.is_empty() {
        eprintln!("[figures] summary requested without figure sweeps; run figures together with it");
        return;
    }
    println!("# T1 — per-figure curve summary (peak and final throughput, ops/Mcycle)");
    println!(
        "{:>4} {:>14} {:>12} {:>12} {:>8} {:>12}",
        "fig", "bench/arch", "method", "peak-thr", "peak-P", "final-thr"
    );
    let mut combos: Vec<(Bench, ArchKind)> = Vec::new();
    for p in points {
        if !combos.contains(&(p.bench, p.arch)) {
            combos.push((p.bench, p.arch));
        }
    }
    for (bench, arch) in combos {
        let subset: Vec<DataPoint> =
            points.iter().filter(|p| p.bench == bench && p.arch == arch).cloned().collect();
        for s in summarize(&subset) {
            println!(
                "{:>4} {:>14} {:>12} {:>12.1} {:>8} {:>12.1}",
                figure_id(bench, arch),
                format!("{bench}/{arch}"),
                s.method.label(),
                s.peak_throughput,
                s.peak_procs,
                s.final_throughput
            );
        }
    }
    println!();
}

/// A1: the paper's core mechanism — helping on vs off, on the two workloads
/// where conflicts matter most.
fn run_ablate_helping(opts: &Options) -> Vec<DataPoint> {
    let mut all = Vec::new();
    for (bench, name) in
        [(Bench::Counting, "ablate-helping-counting"), (Bench::Resource, "ablate-helping-resource")]
    {
        let sweep = Sweep {
            bench,
            arch: ArchKind::Bus,
            methods: vec![Method::Stm, Method::StmNoHelp],
            procs: opts.procs.clone(),
            total_ops: opts.ops,
            seed: opts.seed,
        };
        eprintln!("[figures] running {name}...");
        let points = sweep.run();
        let title = format!("A1 — STM helping ablation, {bench} benchmark on the bus machine");
        println!("{}", render_table(&title, &points));
        write_csv(&opts.out.join(format!("{name}.csv")), &points).expect("write CSV");
        all.extend(points);
    }
    all
}

/// A3: architecture ablation — the STM's resource-allocation curve on the
/// plain mesh vs the coherently-caching mesh (Alewife-style).
fn run_ablate_arch(opts: &Options) -> Vec<DataPoint> {
    let mut all = Vec::new();
    for arch in [ArchKind::Mesh, ArchKind::MeshCached] {
        let sweep = Sweep {
            bench: Bench::Resource,
            arch,
            methods: vec![Method::Stm, Method::Mcs],
            procs: opts.procs.clone(),
            total_ops: opts.ops,
            seed: opts.seed,
        };
        eprintln!("[figures] running ablate-arch ({arch})...");
        let points = sweep.run();
        let title = format!("A3 — architecture ablation, resource benchmark on the {arch} machine");
        println!("{}", render_table(&title, &points));
        write_csv(&opts.out.join(format!("ablate-arch-{arch}.csv")), &points).expect("write CSV");
        all.extend(points);
    }
    all
}

/// R1: the read-heavy fast-path sweep — snapshot-dominated and 90/10
/// read/write workloads, classic (fast path off) vs fast-read, on the bus
/// and mesh machines. Deterministic; the rows CI gates against the
/// committed `BENCH_stm.json` baseline.
fn run_read_heavy(opts: &Options) -> Vec<ReadPoint> {
    let mut all = Vec::new();
    let mut csv = String::from(
        "bench,arch,config,procs,total_ops,seed,cycles,throughput,commits,conflicts,helps\n",
    );
    println!("# R1 — read-heavy fast-path sweep ({} ops/point, seed {:#x})", opts.ops, opts.seed);
    println!("# throughput: operations per million simulated cycles");
    for bench in ReadBench::ALL {
        for arch in [ArchKind::Bus, ArchKind::Mesh] {
            print!("{:>14} {:>5} {:>6}", bench.label(), arch.label(), "procs:");
            println!();
            for mode in ReadMode::ALL {
                print!("{:>27}", mode.label());
                for &procs in &opts.procs {
                    let p = run_read_point(bench, arch, mode, procs, opts.ops, opts.seed);
                    print!(" {:>10.1}", p.throughput);
                    csv.push_str(&format!(
                        "{},{},{},{},{},{},{},{:.3},{},{},{}\n",
                        p.bench, p.arch, p.mode, p.procs, p.total_ops, p.seed, p.cycles,
                        p.throughput, p.commits, p.conflicts, p.helps
                    ));
                    all.push(p);
                }
                println!();
            }
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("read-heavy.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("read-heavy.csv").display());
    all
}

/// R2: the host-machine ladder — the snapshot-dominated workload on real
/// threads, from the pre-fast-path protocol (`classic-dense`) through the
/// fast path (`fast-dense`) to the cache-aligned layout (`fast-padded`).
/// Wall-clock, so informational only: recorded in `BENCH_stm.json` but
/// never CI-gated.
fn run_read_heavy_host(opts: &Options) -> Vec<HostPoint> {
    let host_procs: Vec<usize> =
        opts.procs.iter().copied().filter(|&p| p <= num_cpus_cap()).collect();
    // Host ops need to be large enough to outlast thread startup.
    let ops = (opts.ops * 64).max(50_000);
    let mut all = Vec::new();
    let mut csv = String::from("workload,config,procs,total_ops,nanos,ops_per_sec\n");
    println!("# R2 — host snapshot ladder ({ops} ops/point, wall-clock, informational)");
    println!("{:>6} {:>15} {:>14} {:>14}", "procs", "config", "nanos", "ops/sec");
    for &procs in &host_procs {
        for (label, fast, padded) in HOST_CONFIGS {
            let p = run_host_point(label, fast, padded, procs, ops);
            println!("{:>6} {:>15} {:>14} {:>14.0}", p.procs, p.config, p.nanos, p.ops_per_sec);
            csv.push_str(&format!(
                "snapshot,{},{},{},{},{:.1}\n",
                p.config, p.procs, p.total_ops, p.nanos, p.ops_per_sec
            ));
            all.push(p);
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("read-heavy-host.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("read-heavy-host.csv").display());
    all
}

/// W1: the write-path kernel ladder — committing `add` transactions over
/// k = 1..4 cells (k = 1, 2, 4 hit the monomorphized MWCAS kernels, k = 3
/// the general sweep), interpreted vs compiled, on the bus and mesh
/// machines at the pinned processor counts. Deterministic; the rows CI
/// gates against the committed `BENCH_stm.json` baseline, where the two
/// modes must also agree cycle-for-cycle (bit-identity witness).
fn run_write_path(opts: &Options) -> Vec<WritePoint> {
    let mut all = Vec::new();
    let mut csv = String::from(
        "kernel,arch,mode,procs,total_ops,seed,cycles,throughput,commits,conflicts,helps\n",
    );
    println!(
        "# W1 — write-path kernel ladder ({} ops/point, seed {:#x})",
        opts.ops, opts.seed
    );
    println!("# throughput: committed transactions per million simulated cycles");
    for k in WRITE_KS {
        for arch in [ArchKind::Bus, ArchKind::Mesh] {
            print!("{:>4} {:>5} {:>6}", k_label(k), arch.label(), "procs:");
            println!();
            for mode in WriteMode::ALL {
                print!("{:>27}", mode.label());
                for procs in WRITE_PROCS {
                    let p = run_write_point(k, arch, mode, procs, opts.ops, opts.seed);
                    print!(" {:>10.1}", p.throughput);
                    csv.push_str(&format!(
                        "{},{},{},{},{},{},{},{:.3},{},{},{}\n",
                        k_label(p.k), p.arch, p.mode, p.procs, p.total_ops, p.seed, p.cycles,
                        p.throughput, p.commits, p.conflicts, p.helps
                    ));
                    all.push(p);
                }
                println!();
            }
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("write-path.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("write-path.csv").display());
    all
}

/// W1 (host half): the wall-clock write-path ladder — the same kernel tiers
/// on one real uncontended thread, interpreted (the allocating general-sweep
/// reference) vs compiled (the allocation-free `run_planned` hot path). This
/// is where the hot path's speedup is visible (the simulator charges memory
/// traffic, not allocator traffic). Wall-clock, so informational only:
/// recorded in `BENCH_stm.json` but never CI-gated.
fn run_write_path_host(opts: &Options) -> Vec<WriteHostPoint> {
    // Host ops need to be large enough to outlast thread startup.
    let ops = (opts.ops * 64).max(100_000);
    let mut all = Vec::new();
    let mut csv = String::from("kernel,mode,procs,total_ops,nanos,ops_per_sec\n");
    println!("# W1 (host) — write-path ladder ({ops} ops/point, wall-clock, informational)");
    println!("{:>4} {:>13} {:>14} {:>14}", "k", "mode", "nanos", "ops/sec");
    for k in WRITE_KS {
        for mode in WriteMode::ALL {
            let p = run_write_host_point(k, mode, 1, ops);
            println!("{:>4} {:>13} {:>14} {:>14.0}", k_label(p.k), p.mode, p.nanos, p.ops_per_sec);
            csv.push_str(&format!(
                "{},{},{},{},{},{:.1}\n",
                k_label(p.k), p.mode, p.procs, p.total_ops, p.nanos, p.ops_per_sec
            ));
            all.push(p);
        }
    }
    for (k, procs, speedup) in compiled_speedups(&all) {
        println!("{:>4} P={procs} compiled/interpreted speedup: {speedup:.2}x", k_label(k));
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("write-path-host.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("write-path-host.csv").display());
    all
}

/// D1: the durable-commit latency ladder — the contended single-cell write
/// path with the durability backend as the variable: no journal (the
/// compiled-out default) against memory journals of rising flush cost.
/// Deterministic; every point re-verifies recovery equivalence before it is
/// emitted. CSV-only (the CI gate replays other row families).
fn run_durable(opts: &Options) {
    println!(
        "# D1 — durable-commit latency ladder ({} ops/point, seed {:#x})",
        opts.ops, opts.seed
    );
    println!("# throughput: committed transactions per million simulated cycles");
    let mut csv =
        String::from("config,arch,procs,total_ops,seed,cycles,throughput,flushes\n");
    let configs: Vec<Option<u64>> =
        std::iter::once(None).chain(DURABLE_FLUSH_COSTS.into_iter().map(Some)).collect();
    for arch in [ArchKind::Bus, ArchKind::Mesh] {
        println!("{:>5} {:>6}", arch.label(), "procs:");
        for &flush_cost in &configs {
            print!("{:>22}", stm_bench::durable::durable_config(flush_cost));
            for procs in DURABLE_PROCS {
                let p = run_durable_point(arch, flush_cost, procs, opts.ops, opts.seed);
                print!(" {:>10.1}", p.throughput);
                csv.push_str(&format!(
                    "{},{},{},{},{},{},{:.3},{}\n",
                    p.config, p.arch, p.procs, p.total_ops, p.seed, p.cycles, p.throughput,
                    p.flushes
                ));
            }
            println!();
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("durable.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("durable.csv").display());
}

/// D1 (host half): the same ladder on real threads against an fsync'd file
/// journal. Wall-clock, so informational only — fsync latency is a property
/// of the machine's storage stack, not of the protocol.
fn run_durable_host(opts: &Options) {
    let host_procs: Vec<usize> =
        DURABLE_PROCS.iter().copied().filter(|&p| p <= num_cpus_cap()).collect();
    let ops = (opts.ops * 4).max(4_000);
    println!("# D1 (host) — durable-commit ladder ({ops} ops/point, wall-clock, informational)");
    println!("{:>6} {:>12} {:>14} {:>14}", "procs", "config", "nanos", "ops/sec");
    let mut csv = String::from("config,procs,total_ops,nanos,ops_per_sec\n");
    for &procs in &host_procs {
        for journaled in [false, true] {
            let p = run_durable_host_point(journaled, procs, ops);
            println!("{:>6} {:>12} {:>14} {:>14.0}", p.procs, p.config, p.nanos, p.ops_per_sec);
            csv.push_str(&format!(
                "{},{},{},{},{:.1}\n",
                p.config, p.procs, p.total_ops, p.nanos, p.ops_per_sec
            ));
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("durable-host.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("durable-host.csv").display());
}

/// F1 (fairness): the starvation ablation — a big-k transaction under a
/// small-tx storm, baseline contention manager vs the escalation ladder, on
/// the bus and mesh machines. The headline columns are the worst
/// losses-before-commit any single big transaction suffered and the big
/// transaction's p99 commit latency. Deterministic; the rows CI gates
/// against the committed `BENCH_stm.json` baseline, where an escalation row
/// must also respect its N+M loss bound.
fn run_fairness(opts: &Options) -> Vec<FairnessPoint> {
    let mut all = Vec::new();
    let mut csv = String::from(
        "arch,config,procs,total_ops,seed,cycles,throughput,big_txs,max_losses,loss_bound,\
         p99_big_latency,escalations,forced,deferrals\n",
    );
    println!(
        "# F1 — starvation ablation, big-{FAIR_BIG_K} transaction under a small-tx storm \
         ({} ops/point, seed {:#x})",
        opts.ops, opts.seed
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "arch", "config", "max-losses", "loss-bound", "p99-big", "throughput", "forced"
    );
    for arch in [ArchKind::Bus, ArchKind::Mesh] {
        for mode in FairMode::ALL {
            let p = run_fairness_point(arch, mode, opts.ops, opts.seed);
            println!(
                "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12.1} {:>8}",
                p.arch.label(),
                p.mode.label(),
                p.max_losses,
                if p.loss_bound == 0 { "-".to_string() } else { p.loss_bound.to_string() },
                p.p99_big_latency,
                p.throughput,
                p.forced
            );
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.3},{},{},{},{},{},{},{}\n",
                p.arch, p.mode, p.procs, p.total_ops, p.seed, p.cycles, p.throughput,
                p.big_txs, p.max_losses, p.loss_bound, p.p99_big_latency, p.escalations,
                p.forced, p.deferrals
            ));
            all.push(p);
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("fairness.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("fairness.csv").display());
    all
}

/// K1: the million-key KV service ladder — Zipfian get/put/delete traffic
/// against the arena-backed hash map, one world reused across every
/// threads × skew × read-ratio rung. Wall-clock throughput is
/// informational; the functional columns (live cells, entries, arena
/// accounting) are what the CI gate replays from the committed baseline.
/// `--quick` shrinks the key space for CI smoke; the committed baseline is
/// regenerated at full scale by `examples/kv_service.rs --update-bench`.
fn run_kv(opts: &Options) -> Vec<KvPoint> {
    let (keys, n_buckets, ops) = if opts.quick {
        (20_000u32, 8_192usize, (opts.ops * 16).max(8_192))
    } else {
        (KV_KEYS, KV_BUCKETS, KV_OPS)
    };
    println!(
        "# K1 — KV service ladder ({} keys, {} buckets, {} ops/rung, wall-clock)",
        thousands(u64::from(keys)),
        thousands(n_buckets as u64),
        thousands(ops)
    );
    eprintln!("[figures] building KV world ({} keys)...", thousands(u64::from(keys)));
    let points = run_kv_ladder(keys, n_buckets, ops);
    println!(
        "{:>14} {:>12} {:>14} {:>12} {:>12} {:>10}",
        "config", "ops/sec", "live-cells", "entries", "high-water", "segments"
    );
    let mut csv = String::from(
        "config,keys,n_buckets,threads,total_ops,skew,read_pct,seed,nanos,ops_per_sec,gets,\
         hits,puts,deletes,entries,live_cells,high_water_cells,segments_live\n",
    );
    for p in &points {
        println!(
            "{:>14} {:>12.0} {:>14} {:>12} {:>12} {:>10}",
            p.label(),
            p.ops_per_sec,
            thousands(p.live_cells),
            thousands(p.entries),
            thousands(p.high_water_cells),
            p.segments_live
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.1},{},{},{},{},{},{},{},{}\n",
            p.label(),
            p.keys,
            p.n_buckets,
            p.threads,
            p.total_ops,
            p.skew,
            p.read_pct,
            p.seed,
            p.nanos,
            p.ops_per_sec,
            p.gets,
            p.hits,
            p.puts,
            p.deletes,
            p.entries,
            p.live_cells,
            p.high_water_cells,
            p.segments_live
        ));
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("kv.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("kv.csv").display());
    points
}

/// B1: the blocking producer–consumer idle-cost comparison — a consumer
/// draining a paced bounded queue by parking (`retry`) vs by spin-retrying
/// `try_pop`, on the bus and mesh machines. The headline column is the
/// consumer's memory-operation count: the parked consumer takes zero
/// scheduler steps while it waits. Deterministic; CSV-only (the CI gate's
/// bit-identity check on the write-path rows already pins the non-blocking
/// schedules this feature must not perturb).
fn run_blocking(opts: &Options) {
    let items = (opts.ops / 16).clamp(16, 512);
    println!("# B1 — blocking vs spin producer–consumer ({items} items/point, seed {:#x})", opts.seed);
    println!(
        "{:>5} {:>10} {:>12} {:>8} {:>8} {:>12} {:>12}",
        "arch", "mode", "consumer-ops", "parks", "wakeups", "cycles", "throughput"
    );
    let mut csv = String::from(
        "arch,mode,procs,items,seed,cycles,throughput,consumer_ops,parks,wakeups\n",
    );
    for arch in [ArchKind::Bus, ArchKind::Mesh] {
        for mode in BlockMode::ALL {
            let p = run_blocking_point(arch, mode, items, opts.seed);
            println!(
                "{:>5} {:>10} {:>12} {:>8} {:>8} {:>12} {:>12.1}",
                p.arch.label(),
                p.mode.label(),
                p.consumer_ops,
                p.parks,
                p.wakeups,
                p.cycles,
                p.throughput
            );
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.3},{},{},{}\n",
                p.arch, p.mode, p.procs, p.items, p.seed, p.cycles, p.throughput,
                p.consumer_ops, p.parks, p.wakeups
            ));
        }
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("blocking.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("blocking.csv").display());
}

/// B1 (host half): the same wait on real threads, measuring the consumer
/// thread's CPU time across a window in which the producer deliberately
/// delays. Parking must show near-zero CPU where the spinner burns the
/// whole window. Wall-clock, so informational only.
fn run_blocking_host(opts: &Options) {
    let wait = std::time::Duration::from_millis(200);
    println!("# B1 (host) — idle CPU across a {}ms wait (wall-clock, informational)", wait.as_millis());
    println!("{:>10} {:>14} {:>14}", "mode", "wall-nanos", "cpu-ticks");
    let mut csv = String::from("mode,wall_nanos,cpu_ticks\n");
    for mode in BlockMode::ALL {
        let p = run_blocking_host_point(mode, wait);
        let ticks = p.cpu_ticks.map_or("n/a".to_owned(), |t| t.to_string());
        println!("{:>10} {:>14} {:>14}", p.mode.label(), p.wall_nanos, ticks);
        csv.push_str(&format!("{},{},{}\n", p.mode, p.wall_nanos, ticks));
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("blocking-host.csv"), csv).expect("write CSV");
    eprintln!("[figures] wrote {}", opts.out.join("blocking-host.csv").display());
}

/// Cap host-ladder thread counts at the machine's parallelism (sweeping 64
/// simulated processors is fine; 64 real threads on a 4-core runner is not).
fn num_cpus_cap() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// A2: Herlihy's method with different back-off policies (its performance is
/// known to be very sensitive to back-off tuning).
fn run_ablate_backoff(opts: &Options) {
    use stm_sim::engine::{SimConfig, SimPort, Simulation};
    use stm_sync::HerlihyObject;

    let policies: [(&str, BackoffPolicy); 3] = [
        ("none", BackoffPolicy::None),
        ("exp-small", BackoffPolicy::Exponential { base: 2, max: 256 }),
        ("exp-large", BackoffPolicy::Exponential { base: 16, max: 16384 }),
    ];
    println!("# A2 — Herlihy back-off ablation, counting benchmark on the bus machine");
    println!("# throughput: operations per million simulated cycles");
    print!("{:>6}", "procs");
    for (name, _) in &policies {
        print!(" {name:>12}");
    }
    println!();
    let mut csv = String::from("procs,policy,total_ops,cycles,throughput\n");
    for &procs in &opts.procs {
        print!("{procs:>6}");
        for (name, policy) in &policies {
            let per_proc = (opts.ops / procs as u64).max(1);
            let obj = HerlihyObject::with_backoff(0, 1, procs, *policy);
            let report = Simulation::new(
                SimConfig {
                    n_words: HerlihyObject::words_needed(1, procs),
                    seed: opts.seed,
                    jitter: 2,
                    max_cycles: 1 << 36,
                    init: obj.initial_words(&[0]),
                    ..Default::default()
                },
                stm_sim::arch::BusModel::for_procs(procs),
            )
            .run(procs, |_| {
                move |mut port: SimPort| {
                    let mut h = obj.handle(&port);
                    for _ in 0..per_proc {
                        h.update(&mut port, |o| o[0] += 1);
                    }
                }
            });
            let total = per_proc * procs as u64;
            let thr = total as f64 * 1e6 / report.cycles as f64;
            print!(" {thr:>12.1}");
            csv.push_str(&format!("{procs},{name},{total},{},{thr:.3}\n", report.cycles));
        }
        println!();
    }
    println!();
    std::fs::create_dir_all(&opts.out).expect("create output dir");
    std::fs::write(opts.out.join("ablate-backoff.csv"), csv).expect("write CSV");
}
