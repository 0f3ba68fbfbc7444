//! The run shape every workload shares: a closed loop of whole corpus
//! passes per client, grouped into windows, once with tracing off (the
//! end-to-end numbers) and once recording spans (the per-layer numbers).

use std::sync::Barrier;
use std::time::Instant;

use crate::span::{Span, Tracer};
use crate::stats::{percentile, Windowed};

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` and the README spell it.
    pub name: String,
    /// Unit string (`ms`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// The reported value (the best window for a timing).
    pub value: f64,
    /// `(median, worst)` over the run's windows; `None` for exact metrics
    /// and for single measurements.
    pub windows: Option<(f64, f64)>,
}

impl Metric {
    /// A metric without a window spread.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value, windows: None }
    }

    fn windowed(name: &str, unit: &'static str, values: &[f64], higher_is_better: bool) -> Self {
        let w = Windowed::of(values, higher_is_better);
        Metric { name: name.to_owned(), unit, value: w.best, windows: Some((w.median, w.worst)) }
    }
}

/// A named pass/fail check on the program's outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

impl Check {
    /// Builds a check result.
    pub fn new(name: impl Into<String>, ok: bool) -> Self {
        Check { name: name.into(), ok }
    }
}

/// One benchmark workload after set-up: inputs generated, expected
/// outputs known, servers running.
///
/// A *pass* is the fixed op sequence one client runs over its corpus; the
/// harness only ever runs whole passes, so every window holds the same op
/// mix and exact metrics never depend on where a time window fell.
pub trait Workload: Sync {
    /// Concurrent closed-loop clients (each waits for its reply before
    /// sending the next op).
    fn clients(&self) -> usize {
        1
    }

    /// Ops in one pass of one client.
    fn pass_len(&self) -> usize;

    /// Runs op `i` of `client`'s pass and checks its output against the
    /// set-up pass. `Err` is a failed op.
    fn op(&self, client: usize, i: usize, tr: &mut Tracer) -> Result<(), String>;

    /// Simulated instructions retired by one pass of every client
    /// together; 0 when the cycle engine does not run.
    fn sim_instr_per_pass(&self) -> u64 {
        0
    }

    /// Workload-specific exact end-to-end metrics, from the set-up pass.
    fn exact_metrics(&self) -> Vec<Metric>;

    /// FNV-1a over every deterministic output of the set-up pass.
    fn digest(&self) -> u64;

    /// Checks established during set-up.
    fn setup_checks(&self) -> Vec<Check>;

    /// The traced run's work beyond the op loop: calls into layers the
    /// ops do not reach (inside spans on `tr`) and the layer metrics that
    /// are not span aggregates. `ops` are the op-loop recordings.
    fn layer_extras(
        &self,
        tr: &mut Tracer,
        ops: &[Vec<Span>],
        checks: &mut Vec<Check>,
        quick: bool,
    ) -> Vec<Metric>;

    /// End-of-run checks; stops whatever set-up started.
    fn close(self: Box<Self>) -> Vec<Check>;
}

/// How long a measured run lasts, in whole passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Consecutive windows.
    pub windows: usize,
    /// Whole passes per client per window.
    pub passes_per_window: usize,
}

impl RunPlan {
    /// The plan whose windows come nearest to `window_s` seconds at the
    /// pass time the warm-up measured.
    pub fn fit(windows: usize, window_s: f64, pass_s: f64) -> Self {
        let passes = (window_s / pass_s.max(1e-9)).round().clamp(1.0, 1e7) as usize;
        RunPlan { windows, passes_per_window: passes }
    }
}

/// One client's record of one window.
#[derive(Debug, Clone, Default)]
pub struct WindowLog {
    /// Wall time the window's passes took.
    pub dur_ns: u64,
    /// Latency of each op, in issue order.
    pub lat_ns: Vec<u64>,
}

/// Everything one client recorded over a run.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Per-window records.
    pub windows: Vec<WindowLog>,
    /// Messages of failed ops.
    pub failures: Vec<String>,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Runs `plan` on every client of `w`, recording spans against `epoch`
/// when given. All clients start together behind a barrier.
pub fn drive(w: &dyn Workload, plan: RunPlan, epoch: Option<Instant>) -> Vec<ClientLog> {
    let clients = w.clients();
    let barrier = Barrier::new(clients);
    let run_client = |client: usize| {
        let mut tr = epoch.map_or_else(Tracer::off, Tracer::on);
        let mut log = ClientLog::default();
        let mut seq = 0u64;
        barrier.wait();
        for _ in 0..plan.windows {
            let mut win = WindowLog::default();
            let t0 = Instant::now();
            for _ in 0..plan.passes_per_window {
                for i in 0..w.pass_len() {
                    tr.set_op(((client as u64) << 48) | seq);
                    seq += 1;
                    let t = Instant::now();
                    let res = tr.span("op", |tr| w.op(client, i, tr));
                    win.lat_ns.push(t.elapsed().as_nanos() as u64);
                    if let Err(e) = res {
                        log.failures.push(format!("client {client} op {i}: {e}"));
                    }
                }
            }
            win.dur_ns = t0.elapsed().as_nanos() as u64;
            log.windows.push(win);
        }
        log.spans = tr.into_spans();
        log
    };
    if clients == 1 {
        return vec![run_client(0)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || run_client(c))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// The timing metrics of a run, one value per window reduced to the best
/// window with the median and the worst beside it, plus the op counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// `ops_per_s`, `op_ms_p50`, `op_ms_p90`, `op_ms_p99` and, when the
    /// engine runs, `sim_mips`.
    pub metrics: Vec<Metric>,
    /// Ops attempted over all windows and clients.
    pub attempted: u64,
    /// Latency samples in the smallest window (what the percentiles rest on).
    pub samples_per_window: usize,
    /// Wall seconds the run took (longest client).
    pub wall_s: f64,
}

/// Reduces client logs to the timing metrics.
pub fn timing(logs: &[ClientLog], plan: RunPlan, instr_per_pass: u64) -> Timing {
    let mut ops_per_s = Vec::new();
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut p99 = Vec::new();
    let mut mips = Vec::new();
    let mut samples = usize::MAX;
    for k in 0..plan.windows {
        let mut lat: Vec<f64> = Vec::new();
        let mut rate = 0.0;
        let mut dur_s = 0.0;
        for log in logs {
            let win = &log.windows[k];
            let secs = win.dur_ns as f64 / 1e9;
            rate += win.lat_ns.len() as f64 / secs;
            dur_s += secs / logs.len() as f64;
            lat.extend(win.lat_ns.iter().map(|&ns| ns as f64 / 1e6));
        }
        lat.sort_by(f64::total_cmp);
        samples = samples.min(lat.len());
        ops_per_s.push(rate);
        p50.push(percentile(&lat, 0.50));
        p90.push(percentile(&lat, 0.90));
        p99.push(percentile(&lat, 0.99));
        mips.push((instr_per_pass * plan.passes_per_window as u64) as f64 / dur_s / 1e6);
    }
    let mut metrics = vec![
        Metric::windowed("ops_per_s", "1/s", &ops_per_s, true),
        Metric::windowed("op_ms_p50", "ms", &p50, false),
        Metric::windowed("op_ms_p90", "ms", &p90, false),
        Metric::windowed("op_ms_p99", "ms", &p99, false),
    ];
    if instr_per_pass > 0 {
        metrics.push(Metric::windowed("sim_mips", "Minstr/s", &mips, true));
    }
    let wall_ns =
        logs.iter().map(|l| l.windows.iter().map(|w| w.dur_ns).sum::<u64>()).max().unwrap_or(0);
    Timing {
        metrics,
        attempted: logs.iter().flat_map(|l| &l.windows).map(|w| w.lat_ns.len() as u64).sum(),
        samples_per_window: samples,
        wall_s: wall_ns as f64 / 1e9,
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(windows: &[(u64, &[u64])]) -> ClientLog {
        ClientLog {
            windows: windows
                .iter()
                .map(|&(dur_ns, lat)| WindowLog { dur_ns, lat_ns: lat.to_vec() })
                .collect(),
            ..ClientLog::default()
        }
    }

    #[test]
    fn plan_rounds_to_the_nearest_whole_pass() {
        assert_eq!(RunPlan::fit(5, 2.0, 0.85).passes_per_window, 2);
        assert_eq!(RunPlan::fit(5, 2.0, 0.18).passes_per_window, 11);
        assert_eq!(RunPlan::fit(1, 0.5, 3.0).passes_per_window, 1, "never less than one pass");
    }

    #[test]
    fn timing_takes_the_best_window_and_sums_client_rates() {
        // Two clients, three windows of 1 s; 2 ops per client per window.
        let ms = 1_000_000u64;
        let a = log(&[
            (1_000 * ms, &[10 * ms, 20 * ms]),
            (1_000 * ms, &[10 * ms, 20 * ms]),
            (2_000 * ms, &[10 * ms, 90 * ms]),
        ]);
        let b = log(&[
            (1_000 * ms, &[30 * ms, 40 * ms]),
            (1_000 * ms, &[30 * ms, 40 * ms]),
            (2_000 * ms, &[30 * ms, 40 * ms]),
        ]);
        let plan = RunPlan { windows: 3, passes_per_window: 1 };
        let t = timing(&[a, b], plan, 4_000_000);
        assert_eq!(t.attempted, 12);
        assert_eq!(t.samples_per_window, 4);
        let get = |n: &str| t.metrics.iter().find(|m| m.name == n).unwrap().clone();
        assert_eq!(get("ops_per_s").value, 4.0);
        assert_eq!(get("ops_per_s").windows, Some((4.0, 2.0)));
        assert_eq!(get("op_ms_p50").value, 20.0);
        assert_eq!(get("op_ms_p90").value, 40.0);
        assert_eq!(get("op_ms_p90").windows, Some((40.0, 90.0)));
        assert_eq!(get("sim_mips").value, 4.0);
        assert_eq!(get("sim_mips").windows, Some((4.0, 2.0)));
        assert_eq!(t.wall_s, 4.0);
    }

    #[test]
    fn engine_free_workloads_report_no_mips() {
        let t = timing(&[log(&[(1, &[1])])], RunPlan { windows: 1, passes_per_window: 1 }, 0);
        assert!(t.metrics.iter().all(|m| m.name != "sim_mips"));
    }
}
