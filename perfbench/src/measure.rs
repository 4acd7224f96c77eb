//! Closed-loop measurement: per-client windowed latency recorders, the host
//! client runner, and the metric list a run reports.

use std::sync::Barrier;

use stm_core::machine::host::HostMachine;

use crate::clock::{ns_per_tick, secs_to_ticks, ticks, to_ns};
use crate::hist::Hist;
use crate::trace::{Probe, Region, TracePort, Tracer};

/// Length of a measurement window, in seconds. A measured interval is cut
/// into windows of about this length; rates and percentiles are computed
/// per window.
pub const WINDOW_S: f64 = 0.25;

/// The quantile of per-window rates a run reports: the rate the fastest
/// fifth of its windows reach. Other tenants of a shared host slow every
/// thread of the benchmark alike for seconds at a time (a fixed loop runs up
/// to 1.8 times slower), while a change to the program moves every window;
/// so the fast side of the windows follows the program and not the host.
pub const RATE_Q: f64 = 0.8;

/// The quantile of per-window latency figures a run reports (the fast side,
/// as for [`RATE_Q`]).
pub const LATENCY_Q: f64 = 0.2;

/// Keep the spans of one operation in this many.
pub const SPAN_EVERY: u64 = 64;

/// Per-window, per-class latency histograms and operation counts of one
/// client (or, after [`Recorder::merge`], of all clients).
#[derive(Clone)]
pub struct Recorder {
    t0: u64,
    win: u64,
    windows: usize,
    n_classes: usize,
    hists: Vec<Hist>,
    ops: Vec<u64>,
}

impl Recorder {
    /// A recorder of `n_classes` classes over `secs` seconds.
    pub fn new(n_classes: usize, secs: f64) -> Self {
        let windows = ((secs / WINDOW_S).round() as usize).max(1);
        Recorder {
            t0: ticks(),
            win: (secs_to_ticks(secs) / windows as u64).max(1),
            windows,
            n_classes,
            hists: vec![Hist::default(); n_classes * windows],
            ops: vec![0; windows],
        }
    }

    /// Start the clock now.
    pub fn start(&mut self) {
        self.t0 = ticks();
    }

    /// Record one operation of `class` that ran from tick `start` to `end`.
    /// Returns `false` once the measured interval is over (the operation is
    /// then not counted).
    #[inline]
    pub fn record(&mut self, class: usize, start: u64, end: u64) -> bool {
        let w = (end.wrapping_sub(self.t0) / self.win) as usize;
        if w >= self.windows {
            return false;
        }
        self.hists[w * self.n_classes + class].record(end.wrapping_sub(start));
        self.ops[w] += 1;
        true
    }

    /// Add another client's samples (same shape).
    pub fn merge(&mut self, o: &Recorder) {
        for (a, b) in self.hists.iter_mut().zip(&o.hists) {
            a.merge(b);
        }
        for (a, b) in self.ops.iter_mut().zip(&o.ops) {
            *a += b;
        }
    }

    /// Operations recorded.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// The operation rate of each window, in 1/s.
    pub fn window_rates(&self) -> Vec<f64> {
        let win_s = to_ns(self.win) * 1e-9;
        self.ops.iter().map(|&n| n as f64 / win_s).collect()
    }

    /// The `q`-quantile latency of `classes` in each window that holds a
    /// sample, in µs.
    pub fn window_quantiles_us(&self, classes: &[usize], q: f64) -> Vec<f64> {
        (0..self.windows)
            .filter_map(|w| {
                let mut h = Hist::default();
                for &c in classes {
                    h.merge(&self.hists[w * self.n_classes + c]);
                }
                h.quantile(q).map(|t| t * ns_per_tick() * 1e-3)
            })
            .collect()
    }
}

/// Median of a non-empty list (mean of the middle two for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a non-empty list, interpolating between ranks.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One closed-loop client of a host workload.
pub trait Client: Send {
    /// Issue operations back to back until `rec` reports the interval over.
    fn run<P: Probe>(&mut self, port: &mut P, rec: &mut Recorder);
}

/// What one driven interval produced.
pub struct Driven {
    /// All clients' samples.
    pub rec: Recorder,
    /// Each client's ledger, when traced.
    pub tracers: Vec<Tracer>,
}

/// Run every client on its own thread (client `i` drives port `i` of
/// `machine`) for `secs` seconds. With `regions`, each client runs behind a
/// [`TracePort`] whose own records are `regions[i]`.
///
/// # Errors
///
/// Returns the panic message if any client panicked.
pub fn drive<C: Client>(
    machine: &HostMachine,
    clients: &mut [C],
    n_classes: usize,
    secs: f64,
    regions: Option<&[Vec<Region>]>,
) -> Result<Driven, String> {
    let barrier = Barrier::new(clients.len());
    let results: Vec<std::thread::Result<(Recorder, Option<Tracer>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rec = Recorder::new(n_classes, secs);
                    barrier.wait();
                    rec.start();
                    match regions {
                        Some(r) => {
                            let tracer = Tracer::new(r[i].clone(), n_classes, SPAN_EVERY);
                            let mut port = TracePort::new(machine.port(i), tracer);
                            client.run(&mut port, &mut rec);
                            (rec, Some(port.tracer))
                        }
                        None => {
                            client.run(&mut machine.port(i), &mut rec);
                            (rec, None)
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut rec: Option<Recorder> = None;
    let mut tracers = Vec::new();
    for r in results {
        let (r, t) = r.map_err(|e| panic_message(&e))?;
        match &mut rec {
            Some(all) => all.merge(&r),
            None => rec = Some(r),
        }
        tracers.extend(t);
    }
    Ok(Driven {
        rec: rec.expect("at least one client"),
        tracers,
    })
}

/// A panic payload as text.
pub fn panic_message(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
