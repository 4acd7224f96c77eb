//! Chrome-trace-event (Perfetto-compatible) export of engine traces.
//!
//! A traced [`SimReport`] can be turned into the JSON Trace Event Format
//! understood by `ui.perfetto.dev` and `chrome://tracing`: one track (thread)
//! per simulated processor, a span per transaction attempt, and instants for
//! protocol steps and scripted faults. Virtual cycles map 1:1 to trace
//! microseconds (the `ts`/`dur` unit of the format), so the Perfetto
//! timeline reads directly in cycles.
//!
//! ```
//! use stm_core::stm::StmConfig;
//! use stm_sim::engine::SimPort;
//! use stm_sim::perfetto::chrome_trace_json;
//! use stm_sim::{BusModel, StmSim};
//!
//! let sim = StmSim::new(2, 1, 1, StmConfig::default()).trace(10_000);
//! let report = sim.run(BusModel::for_procs(2), |_p, ops| {
//!     move |mut port: SimPort| {
//!         for _ in 0..3 {
//!             ops.fetch_add(&mut port, 0, 1);
//!         }
//!     }
//! });
//! let json = chrome_trace_json(&report);
//! assert!(json.contains("traceEvents"));
//! ```

use std::io::Write as _;
use std::path::Path;

use stm_core::attribution::Attribution;
use stm_core::step::StepPoint;

use crate::engine::SimReport;
use crate::trace::TraceKind;

/// The Perfetto process id under which all processor tracks are grouped.
const PID: u64 = 0;

/// Flight-recorder aggregate attached to an exported trace: drained event
/// and drop totals plus the folded [`Attribution`] blame table. Surfaced in
/// the trace's `otherData` alongside the engine's own `trace_dropped`, so a
/// post-mortem carries both truncation accountings and the blame summary.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Flight-recorder events drained across all procs.
    pub events: u64,
    /// Flight-recorder events lost to ring overwrite.
    pub dropped: u64,
    /// Conflict blame folded from the drained events.
    pub attribution: Attribution,
}

/// Build the Chrome-trace-event JSON document for `report` as a
/// [`serde_json::Value`] tree.
///
/// Layout: a top-level object with `traceEvents` (metadata naming the
/// process and one thread per processor; an `"X"` complete span per
/// transaction attempt, named by its outcome; an `"i"` instant per protocol
/// step and per fault delivery) plus an `otherData` summary (cycles, commit
/// and abort totals, dropped-event count).
pub fn chrome_trace(report: &SimReport) -> serde_json::Value {
    chrome_trace_with(report, None)
}

/// [`chrome_trace`] with an optional flight-recorder aggregate folded into
/// `otherData`: `flight_events` / `flight_dropped` totals, attributed
/// abort/help/cycles-lost counters, and the top hot cells by blame.
pub fn chrome_trace_with(report: &SimReport, flight: Option<&FlightDump>) -> serde_json::Value {
    let n_procs = report.stats.n_procs();
    let mut events: Vec<serde_json::Value> = Vec::new();

    events.push(meta("process_name", PID, None, "stm-sim"));
    for p in 0..n_procs {
        events.push(meta("thread_name", PID, Some(p as u64), &format!("P{p}")));
    }

    // Attempt spans: each processor's TxPublished opens an attempt, closed
    // by that processor's next TxPublished (retry) or its last traced event.
    // The span is named by the Decided announcement observed within it
    // (helpers may decide for the owner, so "tx attempt" — undecided within
    // this track — is a legitimate outcome, not a bug).
    let mut sorted: Vec<&crate::trace::TraceEvent> = report.trace.iter().collect();
    sorted.sort_by_key(|e| e.time);
    let mut open: Vec<Option<(u64, &'static str)>> = vec![None; n_procs];
    let mut last_t: Vec<u64> = vec![0; n_procs];
    let mut spans: Vec<serde_json::Value> = Vec::new();
    let mut close = |open: &mut Option<(u64, &'static str)>, p: usize, end: u64| {
        if let Some((start, name)) = open.take() {
            spans.push(span(name, p as u64, start, end.saturating_sub(start)));
        }
    };
    for e in &sorted {
        if e.proc >= n_procs {
            continue;
        }
        last_t[e.proc] = last_t[e.proc].max(e.time);
        match e.kind {
            TraceKind::Step(StepPoint::TxPublished) => {
                close(&mut open[e.proc], e.proc, e.time);
                open[e.proc] = Some((e.time, "tx attempt"));
            }
            TraceKind::Step(StepPoint::Decided { committed }) => {
                if let Some((_, name)) = open[e.proc].as_mut() {
                    *name = if committed { "tx commit" } else { "tx conflict" };
                }
            }
            _ => {}
        }
    }
    for p in 0..n_procs {
        close(&mut open[p], p, last_t[p]);
    }
    events.extend(spans);

    // Instants: every protocol step (category "step") and fault (category
    // "fault"), visible as ticks on the processor tracks.
    for e in &sorted {
        let (name, cat) = match e.kind {
            TraceKind::Step(p) => (format!("{p}"), "step"),
            TraceKind::Park(n) => (format!("park ({n} watches)"), "park"),
            TraceKind::Wake(addr) => (format!("wake @{addr}"), "park"),
            TraceKind::FaultCrash => ("crash".to_owned(), "fault"),
            TraceKind::FaultStall(c) => (format!("stall {c}"), "fault"),
            TraceKind::FaultSlow(f) => (format!("slow x{f}"), "fault"),
            TraceKind::Mem(..) | TraceKind::Delay(_) => continue,
        };
        events.push(instant(&name, cat, e.proc as u64, e.time));
    }

    let mut other: Vec<(String, serde_json::Value)> = vec![
        ("source".into(), "stm-sim".into()),
        ("cycles".into(), report.cycles.into()),
        ("commits".into(), report.stats.commits().into()),
        ("aborts".into(), report.stats.aborts().into()),
        ("helps".into(), report.stats.helps().into()),
        ("trace_dropped".into(), report.trace_dropped.into()),
    ];
    if let Some(fl) = flight {
        other.push(("flight_events".into(), fl.events.into()));
        other.push(("flight_dropped".into(), fl.dropped.into()));
        other.push(("attributed_aborts".into(), fl.attribution.aborts().into()));
        other.push(("attributed_helps".into(), fl.attribution.helps().into()));
        other.push(("attributed_cycles_lost".into(), fl.attribution.cycles_lost().into()));
        let hot: Vec<serde_json::Value> = fl
            .attribution
            .top_cells(8)
            .into_iter()
            .map(|(cell, blame)| {
                serde_json::Value::Object(vec![
                    ("cell".into(), cell.into()),
                    ("aborts".into(), blame.aborts.into()),
                    ("helps".into(), blame.helps.into()),
                    ("cycles_lost".into(), blame.cycles_lost.into()),
                ])
            })
            .collect();
        other.push(("hot_cells".into(), serde_json::Value::Array(hot)));
    }
    serde_json::Value::Object(vec![
        ("traceEvents".into(), serde_json::Value::Array(events)),
        ("displayTimeUnit".into(), "ns".into()),
        ("otherData".into(), serde_json::Value::Object(other)),
    ])
}

/// [`chrome_trace`] rendered as a compact JSON string.
pub fn chrome_trace_json(report: &SimReport) -> String {
    serde_json::to_string(&chrome_trace(report)).expect("trace values are finite")
}

/// [`chrome_trace_with`] rendered as a compact JSON string.
pub fn chrome_trace_json_with(report: &SimReport, flight: Option<&FlightDump>) -> String {
    serde_json::to_string(&chrome_trace_with(report, flight)).expect("trace values are finite")
}

/// Write the Chrome-trace JSON for `report` to `path` (openable at
/// `ui.perfetto.dev`).
///
/// # Errors
///
/// Propagates filesystem errors from creating or writing the file.
pub fn write_chrome_trace(path: &Path, report: &SimReport) -> std::io::Result<()> {
    write_chrome_trace_with(path, report, None)
}

/// [`write_chrome_trace`] with a flight-recorder aggregate in `otherData`.
///
/// # Errors
///
/// Propagates filesystem errors from creating or writing the file.
pub fn write_chrome_trace_with(
    path: &Path,
    report: &SimReport,
    flight: Option<&FlightDump>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace_json_with(report, flight).as_bytes())
}

fn meta(name: &str, pid: u64, tid: Option<u64>, value: &str) -> serde_json::Value {
    let mut m: Vec<(String, serde_json::Value)> = vec![
        ("name".into(), name.into()),
        ("ph".into(), "M".into()),
        ("pid".into(), pid.into()),
    ];
    if let Some(tid) = tid {
        m.push(("tid".into(), tid.into()));
    }
    m.push((
        "args".into(),
        serde_json::Value::Object(vec![("name".into(), value.into())]),
    ));
    serde_json::Value::Object(m)
}

fn span(name: &str, tid: u64, ts: u64, dur: u64) -> serde_json::Value {
    serde_json::Value::Object(vec![
        ("name".into(), name.into()),
        ("cat".into(), "tx".into()),
        ("ph".into(), "X".into()),
        ("pid".into(), PID.into()),
        ("tid".into(), tid.into()),
        ("ts".into(), ts.into()),
        // Zero-duration spans are invisible in Perfetto; clamp to 1 cycle.
        ("dur".into(), dur.max(1).into()),
    ])
}

fn instant(name: &str, cat: &str, tid: u64, ts: u64) -> serde_json::Value {
    serde_json::Value::Object(vec![
        ("name".into(), name.into()),
        ("cat".into(), cat.into()),
        ("ph".into(), "i".into()),
        ("s".into(), "t".into()),
        ("pid".into(), PID.into()),
        ("tid".into(), tid.into()),
        ("ts".into(), ts.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimPort;
    use crate::{BusModel, StmSim};
    use stm_core::stm::StmConfig;

    fn contended_report() -> SimReport {
        let sim = StmSim::new(3, 2, 2, StmConfig::default()).seed(5).jitter(3).trace(100_000);
        sim.run(BusModel::for_procs(3), |_p, ops| {
            move |mut port: SimPort| {
                for _ in 0..5 {
                    ops.fetch_add_many(&mut port, &[0, 1], &[1, 1]);
                }
            }
        })
    }

    #[test]
    fn export_round_trips_and_has_expected_schema() {
        let report = contended_report();
        let json = chrome_trace_json(&report);
        let v = serde_json::from_str(&json).expect("exporter must emit valid JSON");
        let evs = v["traceEvents"].as_array().expect("traceEvents array");
        // Metadata names the process and all three threads.
        let metas: Vec<&serde_json::Value> =
            evs.iter().filter(|e| e["ph"].as_str() == Some("M")).collect();
        assert_eq!(metas.len(), 1 + 3);
        assert_eq!(metas[0]["args"]["name"].as_str(), Some("stm-sim"));
        // Every commit decision shows up as a "tx commit" span; 2 procs x 5
        // committed transactions each.
        let commit_spans = evs
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some("tx commit"))
            .count();
        assert_eq!(commit_spans as u64, report.stats.commits());
        // Spans are well-formed: positive duration, tid in range, ts bounded.
        for e in evs.iter().filter(|e| e["ph"].as_str() == Some("X")) {
            assert!(e["dur"].as_u64().unwrap() >= 1);
            assert!(e["tid"].as_u64().unwrap() < 3);
            assert!(e["ts"].as_u64().unwrap() <= report.cycles);
        }
        // Step instants exist and carry the "step" category.
        assert!(evs
            .iter()
            .any(|e| e["ph"].as_str() == Some("i") && e["cat"].as_str() == Some("step")));
        // The summary block mirrors the report.
        assert_eq!(v["otherData"]["cycles"].as_u64(), Some(report.cycles));
        assert_eq!(v["otherData"]["trace_dropped"].as_u64(), Some(0));
    }

    #[test]
    fn fault_events_become_fault_instants() {
        use crate::FaultPlan;
        use stm_core::step::StepKind;
        let plan = FaultPlan::new().crash_at_step(0, StepKind::Acquired, Some(1));
        let sim =
            StmSim::new(3, 2, 2, StmConfig::default()).seed(1).jitter(2).trace(100_000).faults(plan);
        let report = sim.run(BusModel::for_procs(3), |p, ops| {
            move |mut port: SimPort| {
                if p == 0 {
                    ops.fetch_add_many(&mut port, &[0, 1], &[100, 100]);
                    return;
                }
                for _ in 0..5 {
                    ops.fetch_add_many(&mut port, &[0, 1], &[1, 1]);
                }
            }
        });
        assert_eq!(report.crashed, vec![0]);
        let v = serde_json::from_str(&chrome_trace_json(&report)).unwrap();
        let crashes: Vec<&serde_json::Value> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"].as_str() == Some("fault"))
            .collect();
        assert_eq!(crashes.len(), 1, "one scripted crash, one fault instant");
        assert_eq!(crashes[0]["name"].as_str(), Some("crash"));
        assert_eq!(crashes[0]["tid"].as_u64(), Some(0));
    }

    #[test]
    fn flight_dump_lands_in_other_data() {
        use stm_core::flight::FlightRecorder;
        use stm_core::observe::{TxEvent, TxObserver as _};
        let report = contended_report();
        let mut rec = FlightRecorder::new(0, 64);
        rec.on(&TxEvent::AttemptBegin { proc: 0, attempt: 1, at: 0 });
        rec.on(&TxEvent::Conflict { proc: 0, cell: Some(1), owner: Some(2), at: 5 });
        rec.on(&TxEvent::Aborted { proc: 0, at_pos: 0, at: 9 });
        let events = rec.drain();
        let dump = FlightDump {
            events: events.len() as u64,
            dropped: rec.dropped(),
            attribution: Attribution::from_events(&events),
        };
        let v = chrome_trace_with(&report, Some(&dump));
        assert_eq!(v["otherData"]["flight_events"].as_u64(), Some(3));
        assert_eq!(v["otherData"]["flight_dropped"].as_u64(), Some(0));
        assert_eq!(v["otherData"]["attributed_aborts"].as_u64(), Some(1));
        assert_eq!(v["otherData"]["hot_cells"][0]["cell"].as_u64(), Some(1));
        // The baseline export carries no flight keys at all.
        let plain = chrome_trace(&report);
        assert!(plain["otherData"].get("flight_events").is_none());
    }

    #[test]
    fn untraced_report_exports_metadata_only() {
        let sim = StmSim::new(1, 1, 1, StmConfig::default()); // trace disabled
        let report = sim.run(BusModel::for_procs(1), |_p, ops| {
            move |mut port: SimPort| {
                ops.fetch_add(&mut port, 0, 1);
            }
        });
        let v = serde_json::from_str(&chrome_trace_json(&report)).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert!(evs.iter().all(|e| e["ph"].as_str() == Some("M")));
    }
}
