//! `l15 trace` — flight-recorder capture and export.
//!
//! The command-line face of the tracing stack: runs a preset SoC workload
//! with a bounded [`l15_trace::FlightRecorder`] attached and exports the
//! capture as Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`), prints the Alg. 1 plan-vs-observed Gantt diff, or
//! validates an existing trace file with the in-tree schema checker.
//!
//! ```text
//! l15 trace [--quick]                    capture + validate + gantt smoke
//! l15 trace capture [--preset P] [--out FILE]
//! l15 trace gantt [--preset P]
//! l15 trace validate FILE
//! l15 trace bench [--out FILE]           multi-DAG fig7 trace artifact
//! ```
//!
//! Every export is deterministic: byte-identical output at any
//! `L15_JOBS` setting (the CI trace stage diffs the bytes), integer
//! cycle timestamps only. `bench` fans DAG instances across the
//! `l15_testkit::pool` workers and assembles the recordings in index
//! order, one Chrome process per instance.

use l15_core::gantt::planned_nodes;
use l15_core::makespan::simulate;
use l15_core::plan::SchedulePlan;
use l15_dag::topology::{self, UniformPayload};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_runtime::kernel::{preset_plan, RunReport};
use l15_runtime::run_task_traced;
use l15_runtime::workgen::WorkScale;
use l15_soc::{Soc, SocConfig};
use l15_testkit::cli::Parsed;
use l15_testkit::pool;
use l15_trace::span::Spans;
use l15_trace::{chrome, gantt, schema, FlightRecorder};

use crate::{env_usize, scaled, Outcome};

/// Ring capacity for CLI captures — ample for the preset workloads, and
/// a fixed constant so the artifact bytes never depend on the host.
const CAPTURE_EVENTS: usize = 1 << 18;

/// Cycle budget for one preset workload run.
const MAX_CYCLES: u64 = 5_000_000;

/// The preset workload: a 3-layer mesh, wide enough to exercise
/// cross-core edges, gv_set publication and Walloc on every preset.
fn workload(width: usize) -> DagTask {
    let dag = topology::layered_mesh(3, width, UniformPayload::default())
        .expect("layered mesh parameters are valid");
    DagTask::new(dag, 1e6, 1e6).expect("workload deadline is valid")
}

/// One recorded run: its report, its recording and the plan it ran.
type Capture = (RunReport, FlightRecorder, SchedulePlan);

/// Runs `task` on `preset` with a recorder attached.
fn capture_run(preset: &str, task: &DagTask) -> Result<Capture, String> {
    let cfg = SocConfig::preset(preset).ok_or_else(|| {
        format!("unknown preset {:?}; valid: {}", preset, SocConfig::preset_names().join(", "))
    })?;
    let (plan, kcfg) = preset_plan(task, &cfg, WorkScale { compute_iters: 8 }, MAX_CYCLES);
    let mut soc = Soc::new(cfg, 0);
    let (report, rec) = run_task_traced(&mut soc, task, &plan, &kcfg, CAPTURE_EVENTS)
        .map_err(|e| format!("kernel error on preset {preset}: {e}"))?;
    Ok((report, rec, plan))
}

/// Renders the Alg. 1 plan-vs-observed Gantt diff for one capture.
fn gantt_text(preset: &str, task: &DagTask, capture: &Capture) -> String {
    let (report, rec, plan) = capture;
    let dag = task.graph();
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let result = simulate(
        task,
        SocConfig::preset(preset).expect("preset checked above").total_cores(),
        &plan.priorities,
        |v| dag.node(v).wcet,
        |e, _| etm.edge_cost_in(dag, e, plan.local_ways[dag.edge(e).from.0]),
    );
    // Normalise the abstract plan to the observed clock so the diff shows
    // per-node shape deviations, not the global cycles-per-unit factor.
    let scale =
        if result.makespan > 0.0 { report.makespan_cycles as f64 / result.makespan } else { 1.0 };
    let planned = planned_nodes(task, &result, scale.max(f64::MIN_POSITIVE));
    let spans = Spans::from_events(&rec.to_vec());
    format!("preset {preset}\n{}", gantt::diff(&planned, &spans))
}

/// Writes `text` to `--out FILE` or stdout.
fn emit(out: Option<&str>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// The `--preset` flag, `proposed_8core` by default.
fn preset(p: &Parsed) -> &str {
    p.string("--preset").unwrap_or("proposed_8core")
}

/// `capture`: one preset workload, Chrome JSON out.
pub fn capture(p: &Parsed) -> Outcome {
    let task = workload(3);
    let (_report, rec, _plan) = capture_run(preset(p), &task)?;
    let json = chrome::export(preset(p), &rec);
    schema::validate(&json)
        .map_err(|errs| format!("export failed validation: {}", errs.join("; ")))?;
    emit(p.string("--out"), &json)?;
    Ok(true)
}

/// `gantt`: plan-vs-observed table for one preset workload.
pub fn gantt(p: &Parsed) -> Outcome {
    let task = workload(3);
    print!("{}", gantt_text(preset(p), &task, &capture_run(preset(p), &task)?));
    Ok(true)
}

/// `validate FILE`: schema-check an existing trace artifact.
pub fn validate(p: &Parsed) -> Outcome {
    let path = p.positional(0).unwrap_or_default();
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let stats = schema::validate(&text).map_err(|errs| {
        let mut out = format!("{path}: {} error(s)\n", errs.len());
        for e in &errs {
            out.push_str("  ");
            out.push_str(e);
            out.push('\n');
        }
        out
    })?;
    println!(
        "{path}: ok — {} events ({} spans, {} instants, {} metadata), max ts {}, {} dropped",
        stats.events, stats.spans, stats.instants, stats.metadata, stats.max_ts, stats.dropped
    );
    Ok(true)
}

/// `bench`: the fig7-style artifact — several DAG instances captured in
/// parallel across the pool, assembled one Chrome process per instance.
pub fn bench(p: &Parsed) -> Outcome {
    let n = env_usize("L15_DAGS", scaled(p, 6, 3));
    let preset = "proposed_8core";
    let runs = pool::run(n, |i| {
        // Width varies per instance so the artifact shows differently
        // shaped schedules side by side.
        let task = workload(2 + i % 3);
        capture_run(preset, &task).map(|(report, rec, _plan)| (report, rec))
    });
    let mut trace = chrome::ChromeTrace::new();
    let mut makespans = Vec::with_capacity(n);
    for (i, run) in runs.into_iter().enumerate() {
        let (report, rec) = run?;
        makespans.push(report.makespan_cycles);
        trace.add_recording(i as u32, &format!("dag {i} (width {})", 2 + i % 3), &rec);
    }
    let json = trace.render();
    schema::validate(&json)
        .map_err(|errs| format!("artifact failed validation: {}", errs.join("; ")))?;
    let out = p.string("--out");
    emit(out, &json)?;
    if out.is_some() {
        for (i, m) in makespans.iter().enumerate() {
            println!("dag {i}: makespan {m} cycles");
        }
    }
    Ok(true)
}

/// `trace [--quick]`, the smoke: capture, validate, then the Gantt diff.
pub fn smoke(_: &Parsed) -> Outcome {
    let task = workload(3);
    let preset = "proposed_8core";
    let capture = capture_run(preset, &task)?;
    let (report, rec, _) = &capture;
    let json = chrome::export(preset, rec);
    let stats = schema::validate(&json)
        .map_err(|errs| format!("export failed validation: {}", errs.join("; ")))?;
    if rec.dropped().total() > 0 {
        return Err(format!(
            "preset capture overflowed a {CAPTURE_EVENTS}-event ring: {:?}",
            rec.dropped()
        )
        .into());
    }
    println!(
        "capture: {} events recorded, {} exported ({} spans), makespan {} cycles",
        rec.recorded(),
        stats.events,
        stats.spans,
        report.makespan_cycles
    );
    print!("{}", gantt_text(preset, &task, &capture));
    Ok(true)
}
