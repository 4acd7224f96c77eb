//! Telemetry properties: the observer event stream obeys its grammar on
//! both simulated architectures, and the Perfetto export is schema-valid
//! JSON for arbitrary seeds.
//!
//! The event grammar checked per observed [`Stm::run`] call:
//!
//! ```text
//! call    := attempt* final
//! attempt := AttemptBegin body Aborted
//! final   := AttemptBegin body Committed
//! body    := (Acquired | WriteBack | Released | Conflict | help)*
//! help    := HelpBegin (Acquired | WriteBack | Released)* HelpEnd
//! ```
//!
//! plus the cross-cutting invariants: event counts match the call's
//! [`TxStats`] exactly, and ownership acquisitions outside help spans are
//! strictly ascending in cell order (the paper's deadlock-avoidance
//! discipline, observed from the outside).

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use stm_core::stm::{StmConfig, TxOptions, TxSpec, TxStats};
use stm_core::durable::DurableMem;
use stm_core::flight::is_recorded;
use stm_core::{FlightEvent, FlightRecorder, RecordingObserver, TxEvent, NO_OP_TAG};
use stm_sim::arch::{BusModel, CostModel, MeshModel};
use stm_sim::engine::SimPort;
use stm_sim::harness::StmSim;

/// Validate one call's event stream against the grammar and its stats.
fn check_stream(events: &[TxEvent], stats: &TxStats) -> Result<(), String> {
    let count = |f: fn(&TxEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let begins = count(|e| matches!(e, TxEvent::AttemptBegin { .. }));
    let commits = count(|e| matches!(e, TxEvent::Committed { .. }));
    let aborts = count(|e| matches!(e, TxEvent::Aborted { .. }));
    let conflicts = count(|e| matches!(e, TxEvent::Conflict { .. }));
    let help_begins = count(|e| matches!(e, TxEvent::HelpBegin { .. }));
    let help_ends = count(|e| matches!(e, TxEvent::HelpEnd { .. }));

    if begins != stats.attempts {
        return Err(format!("{begins} AttemptBegin for {} attempts", stats.attempts));
    }
    if conflicts != stats.conflicts {
        return Err(format!("{conflicts} Conflict events for {} conflicts", stats.conflicts));
    }
    if help_begins != stats.helps || help_ends != stats.helps {
        return Err(format!(
            "help events {help_begins}/{help_ends} for {} helps",
            stats.helps
        ));
    }
    if commits != 1 || aborts != stats.attempts - 1 {
        return Err(format!(
            "terminals {commits} Committed / {aborts} Aborted for {} attempts",
            stats.attempts
        ));
    }

    // Walk the stream: terminals close attempts, help spans never nest, and
    // acquires outside help spans ascend strictly within each attempt.
    let mut in_attempt = false;
    let mut help_depth = 0u32;
    let mut last_cell: Option<usize> = None;
    for e in events {
        match *e {
            TxEvent::AttemptBegin { attempt, .. } => {
                if in_attempt || help_depth != 0 {
                    return Err(format!("AttemptBegin inside open attempt: {e:?}"));
                }
                in_attempt = true;
                last_cell = None;
                let _ = attempt;
            }
            TxEvent::Committed { .. } | TxEvent::Aborted { .. } => {
                if !in_attempt || help_depth != 0 {
                    return Err(format!("terminal outside attempt: {e:?}"));
                }
                in_attempt = false;
            }
            TxEvent::HelpBegin { .. } => {
                if !in_attempt || help_depth != 0 {
                    return Err(format!("nested or stray HelpBegin: {e:?}"));
                }
                help_depth = 1;
            }
            TxEvent::HelpEnd { .. } => {
                if help_depth != 1 {
                    return Err(format!("HelpEnd without HelpBegin: {e:?}"));
                }
                help_depth = 0;
            }
            TxEvent::Acquired { cell, .. } => {
                if !in_attempt {
                    return Err(format!("Acquired outside attempt: {e:?}"));
                }
                if help_depth == 0 {
                    if let Some(prev) = last_cell {
                        if cell <= prev {
                            return Err(format!("acquires not ascending: {prev} then {cell}"));
                        }
                    }
                    last_cell = Some(cell);
                }
            }
            TxEvent::WriteBack { .. } | TxEvent::Released { .. } | TxEvent::Conflict { .. } => {
                if !in_attempt {
                    return Err(format!("{e:?} outside attempt"));
                }
            }
            _ => {
                // Managed-retry-loop / durability / fairness / blocking /
                // arena events; the plain observed single-attempt stream
                // under test never emits them.
                return Err(format!("managed-path event on plain path: {e:?}"));
            }
        }
    }
    if in_attempt || help_depth != 0 {
        return Err("stream ends with an open attempt or help span".into());
    }
    if let Some(last) = events.last() {
        if !matches!(last, TxEvent::Committed { .. }) {
            return Err(format!("stream must end in Committed, ended in {last:?}"));
        }
    }
    Ok(())
}

/// Run a contended workload and check every call's event stream.
fn run_ordering_check(model: impl CostModel + 'static, procs: usize, seed: u64, jitter: u64) {
    const TXS: usize = 12;
    let sim = StmSim::new(procs, 4, 3, StmConfig::default()).seed(seed).jitter(jitter);
    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let total_helps = Arc::new(Mutex::new(0u64));
    let report = sim.run(model, |p, ops| {
        let violations = Arc::clone(&violations);
        let total_helps = Arc::clone(&total_helps);
        move |mut port: SimPort| {
            let mut helps = 0;
            for i in 0..TXS {
                let mut rec = RecordingObserver::default();
                // Overlapping 2- and 3-cell sets centered on shared cell 0.
                let cells = if i % 2 == 0 { vec![0, 1 + (p + i) % 3] } else { vec![0, 1, 3] };
                let spec = TxSpec::new(ops.builtins().add, &[1; 3][..cells.len()], &cells);
                let out = ops
                    .stm()
                    .run(&mut port, &spec, &mut TxOptions::new().observer(&mut rec))
                    .unwrap();
                helps += out.stats.helps;
                if let Err(msg) = check_stream(rec.events(), &out.stats) {
                    violations.lock().unwrap().push(format!("P{p} tx{i}: {msg}"));
                }
            }
            *total_helps.lock().unwrap() += helps;
        }
    });
    assert_eq!(report.crashed, Vec::<usize>::new());
    let v = violations.lock().unwrap();
    assert!(v.is_empty(), "observer grammar violations: {v:#?}");
}

/// Check a drained flight stream against the reference observer stream,
/// field for field: the records are exactly the reference events the
/// recorder keeps ([`is_recorded`]), in order, and each `Committed` /
/// `Aborted` record carries the time since its attempt's `AttemptBegin`.
fn check_flight_against_reference(
    flight: &[FlightEvent],
    reference: &[TxEvent],
) -> Result<(), String> {
    let expected: Vec<TxEvent> = reference.iter().copied().filter(is_recorded).collect();
    let got: Vec<TxEvent> = flight.iter().map(|r| r.event).collect();
    if got != expected {
        return Err(format!("record stream diverged:\n  flight {got:?}\n  ref    {expected:?}"));
    }
    let mut begun = 0;
    for r in flight {
        let cycles = match r.event {
            TxEvent::AttemptBegin { at, .. } => {
                begun = at;
                0
            }
            TxEvent::Committed { at, .. } | TxEvent::Aborted { at, .. } => at - begun,
            _ => 0,
        };
        if (r.op, r.owner_op, r.cycles) != (NO_OP_TAG, NO_OP_TAG, cycles) {
            return Err(format!("recorder context diverged: {r:?}, expected {cycles} cycles"));
        }
    }
    Ok(())
}

/// Fingerprint of a sim run for schedule-identity comparisons: virtual
/// cycles, full aggregate stats, and final memory image.
fn run_fingerprint(
    model: impl CostModel + 'static,
    procs: usize,
    seed: u64,
    with_recorder: bool,
) -> (u64, stm_sim::stats::SimStats, Vec<stm_core::word::Word>) {
    const TXS: usize = 10;
    let sim = StmSim::new(procs, 4, 3, StmConfig::default()).seed(seed);
    let report = sim.run(model, |p, ops| {
        move |mut port: SimPort| {
            let mut rec = FlightRecorder::new(p, 64);
            for i in 0..TXS {
                let cells = if i % 2 == 0 { vec![0, 1 + (p + i) % 3] } else { vec![0, 1, 3] };
                let spec = TxSpec::new(ops.builtins().add, &[1; 3][..cells.len()], &cells);
                if with_recorder {
                    let _ = ops
                        .stm()
                        .run(&mut port, &spec, &mut TxOptions::new().observer(&mut rec))
                        .unwrap();
                } else {
                    let _ = ops.stm().run(&mut port, &spec, &mut TxOptions::new()).unwrap();
                }
            }
        }
    });
    assert_eq!(report.crashed, Vec::<usize>::new());
    (report.cycles, report.stats, report.memory)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// S4a: draining the flight ring reconstructs the observer event
    /// stream — the decoded records are exactly the reference
    /// `RecordingObserver` events the recorder keeps, field for field.
    /// Every third transaction is journaled, so `JournalFlush` records are
    /// compared too. The tee observer `(A, B)` feeds both from the same
    /// events, so any divergence is the ring's fault.
    #[test]
    fn flight_ring_reconstructs_observer_grammar(
        seed in 0u64..1000,
        jitter in 0u64..4,
        procs in 2usize..6,
    ) {
        const TXS: usize = 10;
        let sim = StmSim::new(procs, 4, 3, StmConfig::default()).seed(seed).jitter(jitter);
        let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let storage = DurableMem::new();
        let report = sim.run(BusModel::for_procs(procs), |p, ops| {
            let violations = Arc::clone(&violations);
            let mut jrn = storage.handle().flush_cost(40);
            move |mut port: SimPort| {
                // Large enough that nothing wraps: drops would break the
                // reconstruction and are tested separately below.
                let mut tee = (RecordingObserver::default(), FlightRecorder::new(p, 4096));
                for i in 0..TXS {
                    let cells =
                        if i % 2 == 0 { vec![0, 1 + (p + i) % 3] } else { vec![0, 1, 3] };
                    let spec = TxSpec::new(ops.builtins().add, &[1; 3][..cells.len()], &cells);
                    let mut opts = TxOptions::new().observer(&mut tee);
                    let out = if i % 3 == 0 {
                        ops.stm().run(&mut port, &spec, &mut opts.journal(&mut jrn))
                    } else {
                        ops.stm().run(&mut port, &spec, &mut opts)
                    };
                    let _ = out.unwrap();
                }
                let (reference, mut rec) = tee;
                assert_eq!(rec.dropped(), 0, "ring sized to never wrap");
                if let Err(msg) = check_flight_against_reference(&rec.drain(), reference.events())
                {
                    violations.lock().unwrap().push(format!("P{p}: {msg}"));
                }
            }
        });
        prop_assert_eq!(report.crashed, Vec::<usize>::new());
        let v = violations.lock().unwrap();
        prop_assert!(v.is_empty(), "flight reconstruction violations: {:#?}", *v);
    }

    /// S4b: overflowing a deliberately tiny ring loses the oldest events to
    /// overwrite, but the accounting is exact — drained + dropped equals
    /// the number of events written, and what survives is a suffix of the
    /// coarse projection.
    #[test]
    fn flight_overflow_drops_are_counted_not_lost(
        seed in 0u64..1000,
        procs in 2usize..5,
    ) {
        const TXS: usize = 12;
        let sim = StmSim::new(procs, 4, 3, StmConfig::default()).seed(seed);
        let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let report = sim.run(BusModel::for_procs(procs), |p, ops| {
            let failures = Arc::clone(&failures);
            move |mut port: SimPort| {
                // 8 slots: guaranteed to wrap (each tx writes >= 2 events).
                let mut tee = (RecordingObserver::default(), FlightRecorder::new(p, 8));
                for i in 0..TXS {
                    let cells =
                        if i % 2 == 0 { vec![0, 1 + (p + i) % 3] } else { vec![0, 1, 3] };
                    let spec = TxSpec::new(ops.builtins().add, &[1; 3][..cells.len()], &cells);
                    let _ = ops
                        .stm()
                        .run(&mut port, &spec, &mut TxOptions::new().observer(&mut tee))
                        .unwrap();
                }
                let (reference, mut rec) = tee;
                let written = rec.buffer().written();
                let drained = rec.drain();
                if drained.len() as u64 + rec.dropped() != written {
                    failures.lock().unwrap().push(format!(
                        "P{p}: {} drained + {} dropped != {written} written",
                        drained.len(),
                        rec.dropped()
                    ));
                }
                let expected: Vec<TxEvent> =
                    reference.events().iter().copied().filter(is_recorded).collect();
                let got: Vec<TxEvent> = drained.iter().map(|r| r.event).collect();
                if written != expected.len() as u64 || !expected.ends_with(&got) {
                    failures
                        .lock()
                        .unwrap()
                        .push(format!("P{p}: surviving tail is not a suffix: {got:?}"));
                }
            }
        });
        prop_assert_eq!(report.crashed, Vec::<usize>::new());
        let v = failures.lock().unwrap();
        prop_assert!(v.is_empty(), "overflow accounting violations: {:#?}", *v);
    }

    /// S4c: attaching the flight recorder leaves default-config schedules
    /// bit-identical on both architectures — same virtual cycle count, same
    /// aggregate stats, same final memory image. The recorder performs no
    /// port operations, so the simulated interleaving cannot observe it.
    #[test]
    fn schedules_bit_identical_with_recorder_attached(
        seed in 0u64..1000,
        procs in 2usize..6,
    ) {
        let bare = run_fingerprint(BusModel::for_procs(procs), procs, seed, false);
        let observed = run_fingerprint(BusModel::for_procs(procs), procs, seed, true);
        prop_assert_eq!(bare, observed, "bus schedule diverged under observation");

        let bare = run_fingerprint(MeshModel::for_procs(procs), procs, seed, false);
        let observed = run_fingerprint(MeshModel::for_procs(procs), procs, seed, true);
        prop_assert_eq!(bare, observed, "mesh schedule diverged under observation");
    }

    #[test]
    fn observer_ordering_holds_on_bus(seed in 0u64..1000, jitter in 0u64..4, procs in 2usize..6) {
        run_ordering_check(BusModel::for_procs(procs), procs, seed, jitter);
    }

    #[test]
    fn observer_ordering_holds_on_mesh(seed in 0u64..1000, jitter in 0u64..4, procs in 2usize..6) {
        run_ordering_check(MeshModel::for_procs(procs), procs, seed, jitter);
    }

    #[test]
    fn perfetto_export_is_schema_valid_for_any_seed(seed in 0u64..1000, procs in 2usize..5) {
        let sim = StmSim::new(procs, 2, 2, StmConfig::default()).seed(seed).jitter(2).trace(100_000);
        let report = sim.run(BusModel::for_procs(procs), |_p, ops| {
            move |mut port: SimPort| {
                for _ in 0..6 {
                    ops.fetch_add_many(&mut port, &[0, 1], &[1, 1]);
                }
            }
        });
        let json = stm_sim::perfetto::chrome_trace_json(&report);
        let v: serde_json::Value = serde_json::from_str(&json).expect("export must parse");
        let evs = v["traceEvents"].as_array().expect("traceEvents is an array");
        // Every event carries the required Trace Event Format fields.
        for e in evs {
            prop_assert!(e["ph"].as_str().is_some(), "missing ph: {e:?}");
            prop_assert!(e["pid"].as_u64().is_some(), "missing pid: {e:?}");
        }
        // Commit spans mirror the engine's commit count exactly.
        let commit_spans = evs
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some("tx commit"))
            .count() as u64;
        prop_assert_eq!(commit_spans, report.stats.commits());
        prop_assert_eq!(v["otherData"]["trace_dropped"].as_u64(), Some(0));
    }
}
