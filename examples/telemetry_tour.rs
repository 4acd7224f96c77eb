//! Telemetry tour: the observer events, the metrics they feed, and the
//! Perfetto trace they export.
//!
//! Three acts:
//!
//! 1. **Zero-cost events.** The observer is monomorphized into the protocol:
//!    with [`NoopObserver`] its one `on` method is empty and inlined. A
//!    [`CountingPort`] proves the shared-memory footprint of a transaction
//!    is bit-for-bit identical with and without the instrumentation, and a
//!    [`RecordingObserver`] shows the lifecycle event stream the protocol
//!    emits.
//! 2. **Contention metrics.** A deliberately contended simulated run feeds
//!    [`TxMetrics`] on every processor: attempts-to-commit and cycles
//!    histograms, the hot-cell heatmap, and the paper's one-level
//!    non-redundant-helping bound checked from live counts.
//! 3. **Perfetto export.** The same run's engine trace is exported as
//!    Chrome-trace-event JSON — openable at `ui.perfetto.dev` — and round-
//!    tripped through the JSON parser to prove the file is well-formed.
//!
//! Run with: `cargo run --release --example telemetry_tour`

use std::sync::{Arc, Mutex};

use stm_core::machine::counting::CountingPort;
use stm_core::machine::host::HostMachine;
use stm_core::ops::StmOps;
use stm_core::stm::{StmConfig, TxOptions, TxSpec};
use stm_core::{NoopObserver, RecordingObserver, TxMetrics};
use stm_sim::engine::SimPort;
use stm_sim::perfetto;
use stm_sim::{BusModel, StmSim};

fn main() {
    zero_cost_hooks();
    let report = contention_metrics();
    perfetto_export(&report);
    println!("telemetry_tour OK");
}

/// Act 1: instrumentation costs nothing when unused, and the events narrate
/// the protocol when used.
fn zero_cost_hooks() {
    println!("--- act 1: observer hooks are free until you use them ---");
    let ops = StmOps::new(0, 8, 1, 4, StmConfig::default());
    let machine = HostMachine::new(ops.stm().layout().words_needed(), 1);
    let mut port = CountingPort::new(machine.port(0));
    let spec = |params: &'static [u64]| TxSpec::new(ops.builtins().add, params, &[1, 4]);

    // Footprint of a plain (default-options) transaction...
    let _ = ops.stm().run(&mut port, &spec(&[1, 1]), &mut TxOptions::new());
    port.reset();
    let _ = ops.stm().run(&mut port, &spec(&[1, 1]), &mut TxOptions::new());
    let plain = port.counts();

    // ...equals the footprint with the no-op observer threaded through.
    port.reset();
    let _ = ops.stm().run(&mut port, &spec(&[1, 1]), &mut TxOptions::new().observer(NoopObserver));
    let observed = port.counts();
    println!("plain footprint:    {plain:?}");
    println!("noop-observed:      {observed:?}");
    assert_eq!(plain, observed, "NoopObserver must be free");

    // A RecordingObserver sees the full lifecycle of the same transaction.
    let mut rec = RecordingObserver::default();
    let _ = ops.stm().run(&mut port, &spec(&[2, 2]), &mut TxOptions::new().observer(&mut rec));
    println!("lifecycle events:");
    for e in rec.events() {
        println!("  {e:?}");
    }
    println!();
}

/// Act 2: a contended simulated run, measured per processor.
fn contention_metrics() -> stm_sim::SimReport {
    println!("--- act 2: contention metrics on a 6-processor bus machine ---");
    const PROCS: usize = 6;
    const TXS: usize = 20;
    let sim = StmSim::new(PROCS, 4, 2, StmConfig::default()).seed(42).jitter(3).trace(200_000);
    let collected: Arc<Mutex<Vec<TxMetrics>>> = Arc::new(Mutex::new(Vec::new()));
    let report = sim.run(BusModel::for_procs(PROCS), |p, ops| {
        let collected = Arc::clone(&collected);
        move |mut port: SimPort| {
            let mut metrics = TxMetrics::default();
            for i in 0..TXS {
                // Everyone hammers cell 0; cell 1..3 spread the rest.
                let cells = [0, 1 + (p + i) % 3];
                let spec = TxSpec::new(ops.builtins().add, &[1, 1], &cells);
                let _ = ops
                    .stm()
                    .run(&mut port, &spec, &mut TxOptions::new().observer(&mut metrics));
            }
            collected.lock().unwrap().push(metrics);
        }
    });

    let mut total = TxMetrics::default();
    for m in collected.lock().unwrap().iter() {
        total.merge(m);
    }
    println!("commits={} conflicts={} helps={}", total.commits(), total.conflicts(), total.helps());
    println!("attempts/commit:    {}", total.attempts_to_commit);
    println!("cycles/attempt:     {}", total.cycles_per_attempt);
    println!("help cycles:        {}", total.help_cycles);
    println!("hot cells:          {:?}", total.hot_cells(3));
    println!("{}", total.summary());
    assert_eq!(total.commits(), (PROCS * TXS) as u64, "every transaction commits eventually");
    assert!(total.helping_is_non_redundant(), "one-level helping bound must hold");
    let hot = total.hot_cells(1);
    assert_eq!(hot.first().map(|&(c, _)| c), Some(0), "cell 0 is the scripted hot spot");
    println!();
    report
}

/// Act 3: export the engine trace for the Perfetto UI and round-trip it.
fn perfetto_export(report: &stm_sim::SimReport) {
    println!("--- act 3: Chrome-trace (Perfetto) export ---");
    let path = std::path::Path::new("results/telemetry_tour_trace.json");
    perfetto::write_chrome_trace(path, report).expect("write trace");
    let json = std::fs::read_to_string(path).expect("read back");
    let v: serde_json::Value = serde_json::from_str(&json).expect("exported trace must parse");
    let n_events = v["traceEvents"].as_array().expect("traceEvents").len();
    println!("wrote {} ({} events, {} bytes)", path.display(), n_events, json.len());
    println!("open it at ui.perfetto.dev: one track per processor, spans per attempt");
    assert_eq!(v["otherData"]["commits"].as_u64(), Some(report.stats.commits()));
    assert!(n_events > 0);
    println!();
}
