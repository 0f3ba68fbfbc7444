//! One invocation, start to finish: set-up (with one untimed warm-up
//! pass) → timed run, tracing off → traced run → checks.

use std::time::Instant;

use crate::harness::{drive, peak_rss_mb, timing, Check, Metric, RunPlan, Workload};
use crate::manifest::{END_TO_END, TIMED};
use crate::report::{Env, Report};
use crate::span::{by_name, Span, Tracer};
use crate::stats::median;
use crate::workloads;

/// Most and fewest windows of a timed run. Windows are short, so that a
/// quiet one is likely among them, but never shorter than a pass.
const MAX_WINDOWS: usize = 16;
const MIN_WINDOWS: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds of the timed run (up to [`MAX_WINDOWS`] windows); `None` skips it.
    pub timed_s: Option<f64>,
    /// Seconds of the traced run's op loop; `None` skips it.
    pub traced_s: Option<f64>,
    /// Set-ups measured; `setup_s` is their median.
    pub setup_repeats: usize,
    /// One short window and shortened layer work; every check still runs.
    pub quick: bool,
}

/// A report plus the traced run's spans (for `out/trace-*.json`).
pub struct Outcome {
    pub report: Report,
    pub recordings: Vec<Vec<Span>>,
}

fn env() -> Env {
    Env {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        l15_jobs: l15_testkit::pool::jobs(),
        rustc: std::env::var("L15_BENCH_RUSTC").unwrap_or_default(),
    }
}

/// A workload ready for its measured runs.
struct Ready {
    workload: Box<dyn Workload>,
    /// Seconds the warm-up pass took: what run lengths are fitted to.
    pass_s: f64,
    /// Ops of the warm-up pass that failed their check.
    failures: Vec<String>,
}

/// Sets up once: inputs, reference pass, server, then one warm-up pass
/// through the op path.
fn set_up(name: &str, seed: u64, quick: bool) -> Result<Ready, String> {
    let workload = workloads::setup(name, seed, quick)?;
    let t = Instant::now();
    let logs = drive(workload.as_ref(), RunPlan { windows: 1, passes_per_window: 1 }, None);
    let failures = logs.into_iter().flat_map(|l| l.failures).collect();
    Ok(Ready { workload, pass_s: t.elapsed().as_secs_f64(), failures })
}

/// Runs `opts` and reports.
///
/// # Errors
///
/// A set-up that could not produce its reference outputs.
pub fn run(opts: &Options, process_start: Instant) -> Result<Outcome, String> {
    // Set-up, several times over when asked: each from scratch, the
    // previous one torn down outside the measurement.
    let mut setup_s = Vec::new();
    let mut current = None;
    for rep in 0..opts.setup_repeats.max(1) {
        drop(current.take());
        let t = if rep == 0 { process_start } else { Instant::now() };
        current = Some(set_up(&opts.workload, opts.seed, opts.quick)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Ready { workload: w, pass_s, mut failures } = current.expect("at least one set-up ran");
    let mut attempted = (w.pass_len() * w.clients()) as u64;
    let mut checks = w.setup_checks();
    let mut end_to_end = vec![Metric::new("setup_s", "s", median(&setup_s))];
    let mut info = Vec::new();

    // Timed run, tracing off.
    let mut timed_rate = None;
    if let Some(seconds) = opts.timed_s {
        // A window is at least one pass: fewer windows when passes are
        // long, so the run keeps to its length.
        let windows = if opts.quick {
            1
        } else {
            ((seconds / pass_s).round() as usize).clamp(MIN_WINDOWS, MAX_WINDOWS)
        };
        let plan = RunPlan::fit(windows, seconds / windows as f64, pass_s);
        let logs = drive(w.as_ref(), plan, None);
        let t = timing(&logs, plan, w.sim_instr_per_pass());
        attempted += t.attempted;
        failures.extend(logs.into_iter().flat_map(|l| l.failures));
        // The traced run has one window: compare it with a typical timed
        // window, not with the best one.
        timed_rate = t.metrics.first().and_then(|m| m.windows).map(|(median, _)| median);
        for m in t.metrics {
            if m.name == "op_ms_p99" {
                info.push(m);
            } else {
                end_to_end.push(m);
            }
        }
        info.push(Metric::new("latency_samples_per_window", "count", t.samples_per_window as f64));
        info.push(Metric::new("passes_per_window", "count", plan.passes_per_window as f64));
        info.push(Metric::new("timed_run_s", "s", t.wall_s));
        if w.sim_instr_per_pass() > 0 {
            info.push(Metric::new("sim_instr_per_pass", "count", w.sim_instr_per_pass() as f64));
        }
    }

    // Traced run: the same ops under spans, then the layers' extra work.
    let mut per_layer = Vec::new();
    let mut recordings = Vec::new();
    if let Some(seconds) = opts.traced_s {
        let epoch = Instant::now();
        let plan = RunPlan::fit(1, seconds, pass_s);
        let logs = drive(w.as_ref(), plan, Some(epoch));
        let t = timing(&logs, plan, 0);
        attempted += t.attempted;
        for mut log in logs {
            failures.append(&mut log.failures);
            recordings.push(log.spans);
        }
        if let (Some(timed), Some(traced)) = (timed_rate, t.metrics.first()) {
            let overhead = (timed / traced.value - 1.0) * 100.0;
            info.push(Metric::new("trace_overhead_pct", "%", overhead));
        }
        let mut tr = Tracer::on(epoch);
        let extras = w.layer_extras(&mut tr, &recordings, &mut checks, opts.quick);
        recordings.push(tr.into_spans());

        let agg = by_name(&recordings);
        for f in TIMED {
            if let Some(l) = agg.get(f) {
                per_layer.push(Metric::new(format!("{f}.calls"), "count", l.calls as f64));
                per_layer.push(Metric::new(format!("{f}.busy_ms"), "ms", l.busy_ms));
                per_layer.push(Metric::new(format!("{f}.p50_us"), "us", l.p50_us));
            }
        }
        per_layer.extend(extras);
    }

    let digest = w.digest();
    // Exact metrics of the workload; what the table does not know is
    // printed beside them, ungated (errors against the paper's figures).
    for m in w.exact_metrics() {
        if END_TO_END.iter().any(|d| d.name == m.name) {
            end_to_end.push(m);
        } else {
            info.push(m);
        }
    }
    checks.extend(w.close());
    let failed = failures.len() as u64;
    end_to_end.push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
    end_to_end.push(Metric::new("fail_ratio", "ratio", failed as f64 / attempted.max(1) as f64));
    checks.push(Check::new("every_op_matches_the_set-up_pass", failed == 0));
    failures.truncate(8);
    end_to_end.sort_by_key(|m| END_TO_END.iter().position(|d| d.name == m.name));
    Ok(Outcome {
        report: Report {
            workload: opts.workload.clone(),
            seed: opts.seed,
            quick: opts.quick,
            env: env(),
            end_to_end,
            info,
            per_layer,
            attempted,
            failed,
            checks,
            failures,
            digest,
        },
        recordings,
    })
}
