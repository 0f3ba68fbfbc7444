//! The service endpoints: the table [`ROWS`], the one place an endpoint is
//! named, and the pure handlers it routes to over the existing pipeline
//! (`l15-dag` parsing and analysis, `l15-core` Alg. 1 / baselines / RTA,
//! `l15-runtime` + `l15-soc` for the cycle-accurate run).
//!
//! Handlers are **deterministic**: no RNG, no clocks — a response is a
//! pure function of the request bytes. The makespan predictions therefore
//! use the worst-case closures (cold, fully contended baselines; the
//! proposed system is deterministic by construction, Sec. 4.2), and two
//! identical requests always produce byte-identical responses, which is
//! what lets `loadgen` diff whole runs across `L15_JOBS` worker counts.

use std::fmt::Display;

use l15_check::program::{CheckProgram, ParseProgramError};
use l15_check::LiftError;
use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::{baseline_priorities, SystemModel};
use l15_core::federated::{federated_partition, ClusterTopology};
use l15_core::makespan::simulate;
use l15_core::plan::SchedulePlan;
use l15_core::rta;
use l15_dag::textio::{self, ParseDagError};
use l15_dag::{analysis, Dag, DagTask, ExecutionTimeModel};
use l15_runtime::kernel::{preset_plan, run_task, KernelConfig, KernelError};
use l15_runtime::{run_task_traced, WorkScale};
use l15_soc::{Soc, SocConfig};
use l15_trace::chrome;

use crate::http::{Request, Response};
use crate::json::{self, Obj};
use crate::metrics::Endpoint;

/// Validation caps of the compute endpoints (the HTTP-level body cap lives
/// in [`crate::ServeConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Node cap for `/schedule` and `/analyze` (analytic pipeline).
    pub max_nodes: usize,
    /// Node cap for the engine endpoints (cycle-accurate, far costlier).
    pub max_sim_nodes: usize,
    /// Per-node data cap for the engine endpoints, bytes.
    pub max_sim_data_bytes: u64,
    /// Cycle budget cap for the engine endpoints.
    pub max_sim_cycles: u64,
    /// Cap on the `cores` query parameter.
    pub max_cores: usize,
    /// Cap on the `clusters` query parameter (federated scheduling).
    pub max_clusters: usize,
    /// Task cap for a multi-task `/schedule?clusters=` body.
    pub max_federated_tasks: usize,
    /// Flight-recorder capacity cap for `/trace` (events per capture;
    /// bounds both the default and the `max_events` query parameter).
    pub max_trace_events: usize,
    /// Job-record cap of the persistent `/submit` session; past it,
    /// submissions get `429` until the session is reset.
    pub max_online_jobs: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_nodes: 4096,
            max_sim_nodes: 64,
            max_sim_data_bytes: 32 * 1024,
            max_sim_cycles: 20_000_000,
            max_cores: 64,
            max_clusters: 16,
            max_federated_tasks: 64,
            max_trace_events: 1 << 18,
            max_online_jobs: 10_000,
        }
    }
}

/// A compute handler: a pure function of the request; `Err` is the 4xx.
pub type Handler = fn(&Request, &Limits) -> Result<Response, Response>;

/// How a row is served.
#[derive(Debug, Clone, Copy)]
pub enum Serve {
    /// Admitted through the gate, then run on the connection thread.
    Compute(Endpoint, Handler),
    /// Liveness probe, inline.
    Healthz,
    /// The exposition page, inline.
    Metrics,
    /// Stateful online admission, inline on the session mutex.
    Submit,
    /// The online session's job ledger, inline.
    Jobs,
    /// Answers, then starts the graceful drain.
    Shutdown,
}

/// One endpoint.
#[derive(Debug)]
pub struct Row {
    /// The one method the path accepts.
    pub method: &'static str,
    /// The path, which is also the metric label without its `/`.
    pub path: &'static str,
    /// How a request is served.
    pub serve: Serve,
}

/// Every endpoint, in `/metrics` order: the compute rows first, so
/// `Endpoint as usize` is the row index.
pub const ROWS: [Row; 11] = [
    Row { method: "POST", path: "/schedule", serve: Serve::Compute(Endpoint::Schedule, schedule) },
    Row { method: "POST", path: "/analyze", serve: Serve::Compute(Endpoint::Analyze, analyze) },
    Row {
        method: "POST",
        path: "/simulate",
        serve: Serve::Compute(Endpoint::Simulate, simulate_soc),
    },
    Row { method: "POST", path: "/check", serve: Serve::Compute(Endpoint::Check, check) },
    Row { method: "POST", path: "/trace", serve: Serve::Compute(Endpoint::Trace, trace_capture) },
    Row { method: "POST", path: "/certify", serve: Serve::Compute(Endpoint::Certify, certify) },
    Row { method: "GET", path: "/healthz", serve: Serve::Healthz },
    Row { method: "GET", path: "/metrics", serve: Serve::Metrics },
    Row { method: "POST", path: "/submit", serve: Serve::Submit },
    Row { method: "GET", path: "/jobs", serve: Serve::Jobs },
    Row { method: "POST", path: "/shutdown", serve: Serve::Shutdown },
];

impl Row {
    /// The `endpoint` label on the exposition page.
    pub fn name(&self) -> &'static str {
        &self.path[1..]
    }
}

/// Routes a request to the index of its row in [`ROWS`]; an unknown path is
/// a `404`, a known path with the wrong method a `405` naming the method
/// it allows.
pub fn route(method: &str, path: &str) -> Result<usize, Response> {
    match ROWS.iter().position(|row| row.path == path) {
        Some(ix) if ROWS[ix].method == method => Ok(ix),
        Some(ix) => Err(Response::error(405, "method not allowed for this path")
            .with_header("Allow", ROWS[ix].method.to_owned())),
        None => Err(Response::error(404, "no such endpoint")),
    }
}

/// Executes a compute endpoint. Pure and deterministic; called from
/// connection threads, one call per admitted request.
pub fn handle_compute(endpoint: Endpoint, req: &Request, limits: &Limits) -> Response {
    match ROWS[endpoint as usize].serve {
        Serve::Compute(_, handler) => handler(req, limits).unwrap_or_else(|resp| resp),
        _ => unreachable!("the first rows are the compute endpoints"),
    }
}

/// The body as text; `what` names the expected format in the `400`.
fn utf8<'b>(body: &'b [u8], what: &str) -> Result<&'b str, Response> {
    std::str::from_utf8(body)
        .map_err(|_| Response::error(400, &format!("body must be UTF-8 {what}")))
}

/// A `.dag` parse error: a resource cap (`TooLarge`) is `413`, any other
/// error `422` with `context` before its message.
fn dag_error(e: &ParseDagError, context: impl Display) -> Response {
    match e {
        ParseDagError::TooLarge { .. } => Response::error(413, &e.to_string()),
        _ => Response::error(422, &format!("{context}{e}")),
    }
}

/// Parses a one-task `.dag` body under the analytic node cap.
pub(crate) fn parse_body(body: &[u8], limits: &Limits) -> Result<DagTask, Response> {
    let task =
        textio::parse_task(utf8(body, "`.dag` task text")?).map_err(|e| dag_error(&e, ""))?;
    let (n, cap) = (task.graph().node_count(), limits.max_nodes);
    if n > cap {
        return Err(Response::error(413, &format!("task has {n} nodes; limit {cap}")));
    }
    Ok(task)
}

/// Parses a body holding one task block per `task` directive line — the
/// multi-application input of the federated `/schedule?clusters=` path.
/// A single-task body parses to a one-element set, so the federated path
/// accepts everything the plain path does.
fn parse_multi_body(body: &[u8], limits: &Limits) -> Result<Vec<DagTask>, Response> {
    let text = utf8(body, "`.dag` task text")?;
    let mut chunks: Vec<String> = Vec::new();
    for line in text.lines() {
        let fresh = line.trim_start().starts_with("task")
            && chunks
                .last()
                .is_some_and(|c: &String| c.lines().any(|l| l.trim_start().starts_with("task")));
        if chunks.is_empty() || fresh {
            chunks.push(String::new());
        }
        let chunk = chunks.last_mut().expect("pushed above");
        chunk.push_str(line);
        chunk.push('\n');
    }
    if chunks.len() > limits.max_federated_tasks {
        return Err(Response::error(
            413,
            &format!("body has {} task blocks; limit {}", chunks.len(), limits.max_federated_tasks),
        ));
    }
    let mut tasks = Vec::with_capacity(chunks.len());
    let mut nodes = 0usize;
    for (i, chunk) in chunks.iter().enumerate() {
        let task = textio::parse_task(chunk)
            .map_err(|e| dag_error(&e, format_args!("task block {i}: ")))?;
        nodes += task.graph().node_count();
        tasks.push(task);
    }
    if nodes > limits.max_nodes {
        return Err(Response::error(
            413,
            &format!("task blocks total {nodes} nodes; limit {}", limits.max_nodes),
        ));
    }
    Ok(tasks)
}

/// Parses an integer query parameter in `[1, max]`, with a default.
pub(crate) fn int_param(req: &Request, key: &str, default: u64, max: u64) -> Result<u64, Response> {
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) if (1..=max).contains(&v) => Ok(v),
            _ => Err(Response::error(400, &format!("`{key}` must be an integer in [1, {max}]"))),
        },
    }
}

/// `POST /schedule` — Alg. 1 against the baseline priorities on one task;
/// `clusters=N` selects the federated tier.
fn schedule(req: &Request, limits: &Limits) -> Result<Response, Response> {
    if req.query_param("clusters").is_some() {
        return schedule_federated(req, limits);
    }
    let task = parse_body(&req.body, limits)?;
    let cores = int_param(req, "cores", 8, limits.max_cores as u64)? as usize;
    let zeta = int_param(req, "zeta", 16, 64)? as usize;
    let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
    let dag = task.graph();

    let plan = schedule_with_l15(&task, zeta, &etm);
    let proposed = simulate(
        &task,
        cores,
        &plan.priorities,
        |v| dag.node(v).wcet,
        |e, _| etm.edge_cost_in(dag, e, plan.local_ways[dag.edge(e).from.0]),
    );
    let proposed_bound = rta::makespan_bound(
        &task,
        cores,
        |v| dag.node(v).wcet,
        |e| etm.edge_cost_in(dag, e, plan.local_ways[dag.edge(e).from.0]),
    );

    let base = baseline_priorities(&task);
    let baseline =
        simulate(&task, cores, &base.priorities, |v| dag.node(v).wcet, |e, _| dag.edge(e).cost);
    let baseline_bound =
        rta::makespan_bound(&task, cores, |v| dag.node(v).wcet, |e| dag.edge(e).cost);

    let mut p = Obj::new();
    p.num("makespan", proposed.makespan);
    p.num("bound", proposed_bound.bound);
    p.bool("schedulable", proposed_bound.bound <= task.deadline() + 1e-9);
    p.raw("priorities", &json::int_array(plan.priorities.iter().map(|&x| u64::from(x))));
    p.raw("ways", &json::int_array(plan.local_ways.iter().map(|&x| x as u64)));
    let mut b = Obj::new();
    b.num("makespan", baseline.makespan);
    b.num("bound", baseline_bound.bound);
    b.bool("schedulable", baseline_bound.bound <= task.deadline() + 1e-9);
    b.raw("priorities", &json::int_array(base.priorities.iter().map(|&x| u64::from(x))));

    let improvement = if baseline.makespan > 0.0 {
        (1.0 - proposed.makespan / baseline.makespan) * 100.0
    } else {
        0.0
    };
    let mut o = Obj::new();
    o.int("nodes", dag.node_count() as u64);
    o.int("edges", dag.edge_count() as u64);
    o.int("cores", cores as u64);
    o.int("zeta", zeta as u64);
    o.raw("proposed", &p.finish());
    o.raw("baseline", &b.finish());
    o.num("improvement_pct", improvement);
    Ok(Response::json(200, o.finish()))
}

/// `POST /schedule?clusters=N` — the federated tier over a multi-task
/// body: heavy/light classification, dedicated clusters for heavy tasks,
/// first-fit packing for light ones. An infeasible set is a 422 carrying
/// the typed verdict's message, never a panic.
fn schedule_federated(req: &Request, limits: &Limits) -> Result<Response, Response> {
    let clusters = int_param(req, "clusters", 2, limits.max_clusters as u64)? as usize;
    let cores_per_cluster = int_param(req, "cores_per_cluster", 4, 16)? as usize;
    let tasks = parse_multi_body(&req.body, limits)?;
    let topo = ClusterTopology { clusters, cores_per_cluster };
    let model = SystemModel::proposed();
    let plan = federated_partition(&tasks, topo, &model)
        .map_err(|e| Response::error(422, &format!("infeasible: {e}")))?;

    let mut o = Obj::new();
    o.int("clusters", clusters as u64);
    o.int("cores_per_cluster", cores_per_cluster as u64);
    o.int("tasks", tasks.len() as u64);
    o.bool("feasible", true);
    o.raw(
        "assignments",
        &json::obj_array(&plan.assignments, |ao, a| {
            ao.int("task", a.task as u64)
                .bool("heavy", a.heavy)
                .num("density", a.density)
                .raw("clusters", &json::int_array(a.clusters.iter().map(|&c| c as u64)))
                .num("bound", a.bound)
                .int("tid", u64::from(a.tid));
        }),
    );
    Ok(Response::json(200, o.finish()))
}

/// `POST /analyze` — critical path, width profile and the RTA bound;
/// `clusters=N` adds the task's federated verdict.
fn analyze(req: &Request, limits: &Limits) -> Result<Response, Response> {
    let task = parse_body(&req.body, limits)?;
    let cores = int_param(req, "cores", 8, limits.max_cores as u64)? as usize;
    let dag = task.graph();
    let lengths = analysis::lambda(dag);
    let path = lengths.critical_path(dag, |e| dag.edge(e).cost);
    let widths = analysis::width_profile(dag);
    let bound = rta::makespan_bound(&task, cores, |v| dag.node(v).wcet, |e| dag.edge(e).cost);

    let mut o = Obj::new();
    o.int("nodes", dag.node_count() as u64);
    o.int("edges", dag.edge_count() as u64);
    o.int("cores", cores as u64);
    o.num("period", task.period());
    o.num("deadline", task.deadline());
    o.num("utilisation", task.utilisation());
    o.num("total_work", dag.total_work());
    o.num("total_comm_cost", dag.total_comm_cost());
    o.num("critical_path_length", lengths.critical_path_length());
    o.raw("critical_path", &json::int_array(path.iter().map(|v| v.0 as u64)));
    o.raw("width_profile", &json::int_array(widths.iter().map(|&w| w as u64)));
    o.int("max_parallelism", widths.iter().copied().max().unwrap_or(0) as u64);
    o.num("makespan_lower_bound", analysis::makespan_lower_bound(dag, cores));
    o.num("makespan_upper_bound", analysis::makespan_upper_bound(dag));
    let mut r = Obj::new();
    r.num("bound", bound.bound);
    r.num("path_term", bound.path_term);
    r.num("interference_term", bound.interference_term);
    r.bool("schedulable", bound.bound <= task.deadline() + 1e-9);
    o.raw("rta", &r.finish());
    // `clusters=N` adds the federated verdict for this task alone: its
    // heavy/light class and the clusters it needs on an N-cluster
    // platform. Absent the parameter the response is unchanged.
    if req.query_param("clusters").is_some() {
        let clusters = int_param(req, "clusters", 2, limits.max_clusters as u64)? as usize;
        let topo = ClusterTopology { clusters, cores_per_cluster: 4 };
        let plan = federated_partition(std::slice::from_ref(&task), topo, &SystemModel::proposed())
            .map_err(|e| Response::error(422, &format!("infeasible: {e}")))?;
        let a = &plan.assignments[0];
        let mut fo = Obj::new();
        fo.int("clusters", clusters as u64);
        fo.bool("heavy", a.heavy);
        fo.num("density", a.density);
        fo.int("clusters_needed", a.clusters.len() as u64);
        fo.num("bound", a.bound);
        o.raw("federated", &fo.finish());
    }
    Ok(Response::json(200, o.finish()))
}

/// What `/simulate`, `/trace` and `/certify` share: the task under the
/// [`engine_caps`], its SoC preset and the plan the kernel runs.
struct Engine<'r> {
    task: DagTask,
    preset: &'r str,
    cfg: SocConfig,
    plan: SchedulePlan,
    kcfg: KernelConfig,
}

/// The cycle-accurate run's caps on a task's nodes and per-node data.
fn engine_caps(dag: &Dag, limits: &Limits, endpoint: Endpoint) -> Result<(), Response> {
    let what = endpoint.name();
    let (n, cap) = (dag.node_count(), limits.max_sim_nodes);
    if n > cap {
        let message = format!("{what} accepts at most {cap} nodes (cycle-accurate run), got {n}");
        return Err(Response::error(413, &message));
    }
    let cap = limits.max_sim_data_bytes;
    if let Some(v) = dag.node_ids().find(|&v| dag.node(v).data_bytes > cap) {
        let bytes = dag.node(v).data_bytes;
        let message = format!("node {v} carries {bytes} data bytes; {what} caps at {cap}");
        return Err(Response::error(413, &message));
    }
    Ok(())
}

/// The engine endpoints' shared prelude: parse the body under the
/// [`engine_caps`], resolve `preset`, read `max_cycles` (not for
/// `/certify`, which runs nothing) and `compute_iters`, derive the plan.
fn engine_request<'r>(
    req: &'r Request,
    limits: &Limits,
    endpoint: Endpoint,
) -> Result<Engine<'r>, Response> {
    let task = parse_body(&req.body, limits)?;
    engine_caps(task.graph(), limits, endpoint)?;
    let preset = req.query_param("preset").unwrap_or("proposed_8core");
    let cfg = SocConfig::preset(preset).ok_or_else(|| {
        let valid = SocConfig::preset_names().join(", ");
        Response::error(400, &format!("unknown preset {preset:?}; valid: {valid}"))
    })?;
    let max_cycles = match endpoint {
        Endpoint::Certify => 0,
        _ => int_param(req, "max_cycles", 5_000_000, limits.max_sim_cycles)?,
    };
    let compute_iters = int_param(req, "compute_iters", 8, 256)? as u32;
    let (plan, kcfg) = preset_plan(&task, &cfg, WorkScale { compute_iters }, max_cycles);
    Ok(Engine { task, preset, cfg, plan, kcfg })
}

fn kernel_error_response(e: KernelError, max_cycles: u64) -> Response {
    match e {
        KernelError::Timeout { completed, total } => Response::error(
            422,
            &format!("run exceeded {max_cycles} cycles ({completed}/{total} nodes completed)"),
        ),
        e => Response::error(422, &format!("kernel error: {e}")),
    }
}

/// `POST /simulate` — a bounded cycle-accurate run on a SoC preset.
fn simulate_soc(req: &Request, limits: &Limits) -> Result<Response, Response> {
    let run = engine_request(req, limits, Endpoint::Simulate)?;
    let mut soc = Soc::new(run.cfg, 0);
    let report = run_task(&mut soc, &run.task, &run.plan, &run.kcfg)
        .map_err(|e| kernel_error_response(e, run.kcfg.max_cycles))?;

    let mut o = Obj::new();
    o.str("preset", run.preset);
    o.int("nodes", run.task.graph().node_count() as u64);
    o.int("makespan_cycles", report.makespan_cycles);
    o.raw("node_finish", &json::int_array(report.node_finish.iter().copied()));
    o.int("l15_hits", report.l15_hits);
    o.int("l15_misses", report.l15_misses);
    o.num("l15_utilisation", report.l15_utilisation);
    o.num("phi", report.phi);
    o.bool("dataflow_ok", report.dataflow_ok);
    Ok(Response::json(200, o.finish()))
}

/// `POST /trace` — runs the submitted task on a preset SoC with an
/// `l15-trace` flight recorder attached and returns the capture as Chrome
/// trace-event JSON (loadable in Perfetto / `chrome://tracing`).
///
/// The capture is bounded: `max_events` (default and cap
/// [`Limits::max_trace_events`]) sizes the ring. When the run outgrows it
/// the response is `413` carrying the per-category drop counts — a
/// truncated trace would silently misrepresent the schedule, so the
/// service refuses to return one. Both outcomes carry
/// `X-L15-Trace-Events` / `X-L15-Trace-Dropped` headers (plus
/// `X-L15-Trace-Dropped-By` with `category=count` pairs when non-zero);
/// the server folds those into `l15_trace_dropped_events_total`.
fn trace_capture(req: &Request, limits: &Limits) -> Result<Response, Response> {
    let run = engine_request(req, limits, Endpoint::Trace)?;
    let cap = limits.max_trace_events as u64;
    let max_events = int_param(req, "max_events", cap, cap)? as usize;
    let mut soc = Soc::new(run.cfg, 0);
    let (_report, rec) = run_task_traced(&mut soc, &run.task, &run.plan, &run.kcfg, max_events)
        .map_err(|e| kernel_error_response(e, run.kcfg.max_cycles))?;

    let dropped = rec.dropped();
    let with_trace_headers = |resp: Response| {
        resp.with_header("X-L15-Trace-Events", rec.recorded().to_string())
            .with_header("X-L15-Trace-Dropped", dropped.total().to_string())
    };
    if dropped.total() == 0 {
        return Ok(with_trace_headers(Response::json(200, chrome::export(run.preset, &rec))));
    }
    let by: Vec<String> =
        dropped.iter().filter(|&(_, n)| n > 0).map(|(c, n)| format!("{}={n}", c.name())).collect();
    let message = format!(
        "capture overflowed: {} of {} events dropped; raise max_events (cap {})",
        dropped.total(),
        rec.recorded(),
        limits.max_trace_events
    );
    Err(with_trace_headers(Response::error(413, &message))
        .with_header("X-L15-Trace-Dropped-By", by.join(",")))
}

/// `POST /certify` — the `l15-check` abstract-interpretation certifier
/// over a submitted task on a preset SoC. The service derives the same
/// plan `/simulate` would run (Alg. 1 on L1.5 presets, the baseline
/// elsewhere), unrolls every node's generated program, and returns one
/// sound static cycle bound per `(node, way-allocation)` pair plus the
/// certified RTA makespan bound. When a plan assumption is not statically
/// justified — the way budget overcommits ζ, a store lands before the
/// Walloc settle horizon, a program is untraceable — the response carries
/// machine-readable findings and `certified:false` instead of a makespan.
/// Pure analysis: nothing is simulated.
fn certify(req: &Request, limits: &Limits) -> Result<Response, Response> {
    let Engine { task, preset, cfg, plan, kcfg } = engine_request(req, limits, Endpoint::Certify)?;
    let report = l15_check::certify_task(&task, &plan, &cfg, kcfg.scale);
    let certified = report.certified();
    let cores = cfg.cores_per_cluster;

    let (makespan, slack) = if certified {
        let rta = rta::certified_makespan_bound(&task, cores, &report.bounds());
        (Some(rta.makespan.bound), rta.node_slack)
    } else {
        (None, Vec::new())
    };

    let mut o = Obj::new();
    o.str("preset", preset);
    o.int("nodes", task.graph().node_count() as u64);
    o.int("cores", cores as u64);
    o.int("zeta", cfg.l15.map_or(0, |c| c.ways) as u64);
    o.raw("ways", &json::int_array(plan.local_ways.iter().map(|&x| x as u64)));
    o.bool("certified", certified);
    match makespan {
        Some(m) => o.num("makespan_bound_cycles", m),
        None => o.raw("makespan_bound_cycles", "null"),
    };
    o.raw(
        "node_bounds",
        &json::obj_array(report.node_bounds.iter().enumerate(), |b, (i, nb)| {
            b.int("node", nb.node as u64);
            match nb.bound_cycles {
                u64::MAX => b.raw("bound_cycles", "null"),
                c => b.int("bound_cycles", c),
            };
            b.int("ah", nb.ah).int("am", nb.am).int("nc", nb.nc);
            b.bool("routed", nb.routed_justified);
            match slack.get(i) {
                Some(&s) => b.num("slack_cycles", s),
                None => b.raw("slack_cycles", "null"),
            };
        }),
    );
    o.raw(
        "findings",
        &json::obj_array(&report.findings, |fo, f| {
            fo.str("code", f.code);
            match f.node {
                Some(v) => fo.int("node", v as u64),
                None => fo.raw("node", "null"),
            };
            fo.str("message", &f.message).str("text", &f.to_string());
        }),
    );
    Ok(Response::json(200, o.finish()))
}

/// `POST /check` — the `l15-check` rules (R1–R5) over a recorded run of a
/// submitted program: `.dag` task text, optionally with embedded `plan`
/// lines (else an Alg. 1 plan over `zeta` ways), run under the
/// [`engine_caps`] on `proposed_8core` with `cores` cores per cluster and
/// ζ = `zeta`. Findings carry the canonical `text` rendering of the shared
/// testkit formatter, byte-identical to `l15 check`'s output.
fn check(req: &Request, limits: &Limits) -> Result<Response, Response> {
    let cores = int_param(req, "cores", 4, limits.max_cores as u64)? as usize;
    let zeta = int_param(req, "zeta", 16, 64)? as usize;
    let spec =
        l15_check::parse_program_text(utf8(&req.body, "program text")?).map_err(|e| match &e {
            ParseProgramError::Dag(d) => dag_error(d, ""),
            _ => Response::error(422, &e.to_string()),
        })?;
    let n = spec.task.graph().node_count();
    engine_caps(spec.task.graph(), limits, Endpoint::Check)?;
    let mut cfg = SocConfig { cores_per_cluster: cores, ..SocConfig::proposed_8core() };
    cfg.l15.iter_mut().for_each(|l15| l15.ways = zeta);
    let (preset, kcfg) = preset_plan(&spec.task, &cfg, WorkScale::default(), limits.max_sim_cycles);
    let plan = spec.plan.unwrap_or(preset);
    let findings = CheckProgram::new(spec.task, &plan, spec.tids, &cfg, &kcfg)
        .map_err(|e| match e {
            LiftError::Run(e) => kernel_error_response(e, kcfg.max_cycles),
            e => Response::error(413, &e.to_string()),
        })?
        .check();

    let mut o = Obj::new();
    o.int("nodes", n as u64);
    o.int("cores", cores as u64);
    o.int("zeta", zeta as u64);
    o.bool("clean", findings.is_empty());
    o.raw(
        "findings",
        &json::obj_array(&findings, |fo, f| {
            fo.str("rule", f.rule.name());
            fo.raw("nodes", &json::int_array(f.nodes.iter().map(|v| v.0 as u64)));
            match f.line {
                Some(l) => fo.str("line", &format!("{l:#010x}")),
                None => fo.raw("line", "null"),
            };
            fo.str("text", &f.render());
        }),
    );
    Ok(Response::json(200, o.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
task period=100 deadline=90
node 0 wcet=1 data=2048
node 1 wcet=2 data=2048
node 2 wcet=3 data=2048
node 3 wcet=1 data=0
edge 0 1 cost=1.5 alpha=0.5
edge 0 2 cost=1.5 alpha=0.5
edge 1 3 cost=1 alpha=0.6
edge 2 3 cost=1 alpha=0.6
";

    fn post(path: &str, query: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query.into(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The served kind of `method path`, or the refusal's status and `Allow`.
    fn routed(method: &str, path: &str) -> Result<&'static str, (u16, Option<String>)> {
        match route(method, path) {
            Ok(ix) => Ok(match ROWS[ix].serve {
                Serve::Compute(ep, _) => ep.name(),
                Serve::Healthz => "healthz",
                Serve::Metrics => "metrics",
                Serve::Submit => "submit",
                Serve::Jobs => "jobs",
                Serve::Shutdown => "shutdown",
            }),
            Err(resp) => Err((resp.status, resp.header("Allow").map(str::to_owned))),
        }
    }

    #[test]
    fn routing_table() {
        assert_eq!(routed("GET", "/healthz"), Ok("healthz"));
        assert_eq!(routed("GET", "/metrics"), Ok("metrics"));
        assert_eq!(routed("POST", "/shutdown"), Ok("shutdown"));
        assert_eq!(routed("POST", "/schedule"), Ok("schedule"));
        assert_eq!(routed("POST", "/analyze"), Ok("analyze"));
        assert_eq!(routed("POST", "/simulate"), Ok("simulate"));
        assert_eq!(routed("POST", "/check"), Ok("check"));
        assert_eq!(routed("POST", "/certify"), Ok("certify"));
        assert_eq!(routed("POST", "/trace"), Ok("trace"));
        assert_eq!(routed("POST", "/submit"), Ok("submit"));
        assert_eq!(routed("GET", "/jobs"), Ok("jobs"));
        let not_allowed = |allow: &str| Err((405, Some(allow.to_owned())));
        assert_eq!(routed("GET", "/submit"), not_allowed("POST"));
        assert_eq!(routed("POST", "/jobs"), not_allowed("GET"));
        assert_eq!(routed("GET", "/trace"), not_allowed("POST"));
        assert_eq!(routed("POST", "/healthz"), not_allowed("GET"));
        assert_eq!(routed("GET", "/schedule"), not_allowed("POST"));
        assert_eq!(routed("GET", "/nope"), Err((404, None)));
    }

    #[test]
    fn compute_rows_come_first_in_endpoint_order() {
        for ep in Endpoint::ALL {
            let row = &ROWS[ep as usize];
            assert!(matches!(row.serve, Serve::Compute(e, _) if e == ep), "{ep:?}");
            assert_eq!(row.name(), ep.name());
        }
        assert!(ROWS[Endpoint::ALL.len()..].iter().all(|r| !matches!(r.serve, Serve::Compute(..))));
    }

    #[test]
    fn the_readme_lists_every_row() {
        let readme = include_str!("../README.md");
        for row in &ROWS {
            let cell = format!("`{} {}`", row.method, row.path);
            assert!(readme.contains(&cell), "crates/serve/README.md lacks {cell}");
        }
    }

    #[test]
    fn schedule_beats_baseline_on_the_sample() {
        let req = post("/schedule", "cores=4", SAMPLE);
        let resp = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"nodes\":4"), "{body}");
        assert!(body.contains("\"proposed\""));
        assert!(body.contains("\"baseline\""));
        // The L1.5 plan can only shrink edge costs → improvement >= 0.
        let imp = body
            .split("\"improvement_pct\":")
            .nth(1)
            .and_then(|s| s.trim_end_matches('}').parse::<f64>().ok())
            .expect("improvement field");
        assert!(imp >= 0.0, "{imp}");
    }

    #[test]
    fn schedule_is_deterministic() {
        let req = post("/schedule", "", SAMPLE);
        let a = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        let b = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        assert_eq!(a, b, "handlers must be pure functions of the request");
    }

    /// Two SAMPLE-shaped applications with distinct periods as one
    /// federated request body.
    fn two_task_body() -> String {
        format!("{SAMPLE}{}", SAMPLE.replace("period=100 deadline=90", "period=80 deadline=70"))
    }

    #[test]
    fn schedule_with_clusters_returns_the_federated_assignment() {
        let req = post("/schedule", "clusters=2", &two_task_body());
        let resp = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"clusters\":2"), "{body}");
        assert!(body.contains("\"tasks\":2"), "{body}");
        assert!(body.contains("\"feasible\":true"), "{body}");
        assert!(body.contains("\"assignments\":["), "{body}");
        assert!(body.contains("\"tid\":1"), "{body}");
        assert!(body.contains("\"tid\":2"), "{body}");
    }

    #[test]
    fn schedule_without_clusters_is_unchanged_by_the_federated_tier() {
        // The legacy single-task path must stay byte-identical: no
        // `clusters` parameter, no federated fields.
        let req = post("/schedule", "cores=4", SAMPLE);
        let resp = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(!body.contains("assignments"), "{body}");
        assert!(!body.contains("feasible"), "{body}");
    }

    #[test]
    fn overutilized_federated_body_is_a_422_with_the_typed_verdict() {
        // Utilisation 40/10 per task × 3 tasks on 2 clusters × 4 cores:
        // the core tier's Overutilized error must surface as a 422.
        let fat = "task period=10 deadline=10\nnode 0 wcet=40 data=0\n";
        let body = format!("{fat}{fat}{fat}");
        let req = post("/schedule", "clusters=2", &body);
        let resp = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        assert_eq!(resp.status, 422, "{:?}", String::from_utf8(resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("over-utilized"), "{text}");
    }

    #[test]
    fn federated_schedule_is_deterministic() {
        let req = post("/schedule", "clusters=4", &two_task_body());
        let a = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        let b = handle_compute(Endpoint::Schedule, &req, &Limits::default());
        assert_eq!(a, b, "federated handler must be a pure function of the request");
    }

    #[test]
    fn federated_bad_task_block_and_params_are_4xx() {
        let broken = format!("{SAMPLE}task period=0 deadline=0\n");
        let resp = handle_compute(
            Endpoint::Schedule,
            &post("/schedule", "clusters=2", &broken),
            &Limits::default(),
        );
        assert_eq!(resp.status, 422, "{:?}", String::from_utf8(resp.body));

        for q in ["clusters=0", "clusters=abc", "clusters=999"] {
            let resp = handle_compute(
                Endpoint::Schedule,
                &post("/schedule", q, SAMPLE),
                &Limits::default(),
            );
            assert_eq!(resp.status, 400, "{q}");
        }
    }

    #[test]
    fn analyze_with_clusters_adds_the_federated_verdict() {
        let req = post("/analyze", "cores=4&clusters=2", SAMPLE);
        let resp = handle_compute(Endpoint::Analyze, &req, &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"federated\":{"), "{body}");
        assert!(body.contains("\"clusters_needed\":"), "{body}");
        assert!(body.contains("\"density\":"), "{body}");

        // Without the parameter, nothing federated appears.
        let plain = handle_compute(
            Endpoint::Analyze,
            &post("/analyze", "cores=4", SAMPLE),
            &Limits::default(),
        );
        let plain_body = String::from_utf8(plain.body).unwrap();
        assert!(!plain_body.contains("federated"), "{plain_body}");
    }

    #[test]
    fn analyze_infeasible_task_on_clusters_is_422() {
        // A chain whose critical path alone exceeds the deadline is
        // unschedulable at any cluster count.
        let doomed = "task period=10 deadline=10\n\
                      node 0 wcet=20 data=0\nnode 1 wcet=20 data=0\n\
                      edge 0 1 cost=1 alpha=0.5\n";
        let req = post("/analyze", "clusters=8", doomed);
        let resp = handle_compute(Endpoint::Analyze, &req, &Limits::default());
        assert_eq!(resp.status, 422, "{:?}", String::from_utf8(resp.body));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("infeasible"), "{text}");
    }

    #[test]
    fn analyze_reports_critical_path() {
        let req = post("/analyze", "cores=2", SAMPLE);
        let resp = handle_compute(Endpoint::Analyze, &req, &Limits::default());
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        // Sample: 0 → 2 (wcet 3) → 3 is the longest path: 1+1.5+3+1+1 = 7.5.
        assert!(body.contains("\"critical_path_length\":7.5"), "{body}");
        assert!(body.contains("\"critical_path\":[0,2,3]"), "{body}");
        assert!(body.contains("\"rta\""));
    }

    #[test]
    fn simulate_runs_on_presets_with_and_without_l15() {
        for preset in ["proposed_8core", "cmp_l2_8core"] {
            let req = post("/simulate", &format!("preset={preset}&compute_iters=4"), SAMPLE);
            let resp = handle_compute(Endpoint::Simulate, &req, &Limits::default());
            assert_eq!(resp.status, 200, "{preset}: {:?}", String::from_utf8(resp.body));
            let body = String::from_utf8(resp.body).unwrap();
            assert!(body.contains("\"dataflow_ok\":true"), "{preset}: {body}");
            if preset == "cmp_l2_8core" {
                assert!(body.contains("\"l15_hits\":0"), "{body}");
            }
        }
    }

    #[test]
    fn simulate_rejects_unknown_presets_and_oversized_tasks() {
        let req = post("/simulate", "preset=warp_drive", SAMPLE);
        let resp = handle_compute(Endpoint::Simulate, &req, &Limits::default());
        assert_eq!(resp.status, 400);

        let tight = Limits { max_sim_nodes: 2, ..Limits::default() };
        let resp = handle_compute(Endpoint::Simulate, &post("/simulate", "", SAMPLE), &tight);
        assert_eq!(resp.status, 413);

        let fat = "task period=10 deadline=10\nnode 0 wcet=1 data=999999999\n";
        let resp =
            handle_compute(Endpoint::Simulate, &post("/simulate", "", fat), &Limits::default());
        assert_eq!(resp.status, 413);
    }

    #[test]
    fn trace_returns_valid_chrome_json() {
        let req = post("/trace", "preset=proposed_8core&compute_iters=4", SAMPLE);
        let resp = handle_compute(Endpoint::Trace, &req, &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body.clone()));
        assert_eq!(resp.header("X-L15-Trace-Dropped"), Some("0"));
        assert!(resp.header("X-L15-Trace-Events").unwrap().parse::<u64>().unwrap() > 0);
        assert_eq!(resp.header("X-L15-Trace-Dropped-By"), None);
        let body = String::from_utf8(resp.body).unwrap();
        let stats = l15_trace::schema::validate(&body).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(stats.spans > 0, "{stats:?}");
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn trace_is_deterministic() {
        let req = post("/trace", "compute_iters=4", SAMPLE);
        let a = handle_compute(Endpoint::Trace, &req, &Limits::default());
        let b = handle_compute(Endpoint::Trace, &req, &Limits::default());
        assert_eq!(a, b, "trace captures must be byte-identical");
    }

    #[test]
    fn tiny_trace_capture_is_413_with_drop_accounting() {
        let req = post("/trace", "max_events=64&compute_iters=4", SAMPLE);
        let resp = handle_compute(Endpoint::Trace, &req, &Limits::default());
        assert_eq!(resp.status, 413, "{:?}", String::from_utf8(resp.body.clone()));
        let total: u64 = resp.header("X-L15-Trace-Dropped").unwrap().parse().unwrap();
        assert!(total > 0);
        let by = resp.header("X-L15-Trace-Dropped-By").unwrap();
        let sum: u64 =
            by.split(',').map(|pair| pair.split_once('=').unwrap().1.parse::<u64>().unwrap()).sum();
        assert_eq!(sum, total, "per-category counts must reconcile: {by}");

        // max_events above the cap is a 400, not a bigger buffer.
        let req = post("/trace", "max_events=99999999", SAMPLE);
        let resp = handle_compute(Endpoint::Trace, &req, &Limits::default());
        assert_eq!(resp.status, 400);
    }

    /// The full `/certify` response for the sample on the proposed
    /// preset, pinned byte-for-byte. Any analyzer change that moves a
    /// bound, a classification census or the certified makespan must
    /// update this string *consciously* — the table is a public contract.
    const CERTIFY_GOLDEN: &str = "{\"preset\":\"proposed_8core\",\"nodes\":4,\"cores\":4,\
\"zeta\":16,\"ways\":[1,1,1,0],\"certified\":true,\"makespan_bound_cycles\":32813,\
\"node_bounds\":[\
{\"node\":0,\"bound_cycles\":8138,\"ah\":3061,\"am\":0,\"nc\":33,\"routed\":true,\"slack_cycles\":3147},\
{\"node\":1,\"bound_cycles\":12588,\"ah\":6134,\"am\":0,\"nc\":34,\"routed\":true,\"slack_cycles\":3147},\
{\"node\":2,\"bound_cycles\":12588,\"ah\":6134,\"am\":0,\"nc\":34,\"routed\":true,\"slack_cycles\":3147},\
{\"node\":3,\"bound_cycles\":8940,\"ah\":6166,\"am\":0,\"nc\":2,\"routed\":false,\"slack_cycles\":3147}\
],\"findings\":[]}";

    #[test]
    fn certify_response_is_pinned_on_the_proposed_preset() {
        let req = post("/certify", "preset=proposed_8core&compute_iters=4", SAMPLE);
        let resp = handle_compute(Endpoint::Certify, &req, &Limits::default());
        assert_eq!(resp.status, 200);
        assert_eq!(String::from_utf8(resp.body).unwrap(), CERTIFY_GOLDEN);
    }

    #[test]
    fn certify_certifies_the_sample_on_the_proposed_preset() {
        let req = post("/certify", "preset=proposed_8core&compute_iters=4", SAMPLE);
        let resp = handle_compute(Endpoint::Certify, &req, &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"certified\":true"), "{body}");
        assert!(body.contains("\"findings\":[]"), "{body}");
        assert!(body.contains("\"makespan_bound_cycles\":"), "{body}");
        // One bound per node, each finite and positive.
        for i in 0..4u64 {
            assert!(body.contains(&format!("{{\"node\":{i},\"bound_cycles\":")), "{body}");
        }
        assert!(!body.contains("\"bound_cycles\":null"), "{body}");
    }

    #[test]
    fn certify_bounds_cover_a_real_run_of_the_same_plan() {
        // The certified bounds must be sound for the exact run `/simulate`
        // performs: replay the sample on the same preset and compare the
        // per-node observed cycles against the certified table.
        let cfg = SocConfig::preset("proposed_8core").unwrap();
        let task = parse_body(SAMPLE.as_bytes(), &Limits::default()).unwrap();
        let (plan, kcfg) = preset_plan(&task, &cfg, WorkScale { compute_iters: 4 }, 5_000_000);
        let report = l15_check::certify_task(&task, &plan, &cfg, kcfg.scale);
        assert!(report.certified(), "{:?}", report.findings);

        let mut soc = Soc::new(cfg, 0);
        let run = run_task(&mut soc, &task, &plan, &kcfg).unwrap();
        for nb in &report.node_bounds {
            let observed = run.node_finish[nb.node] - run.node_start[nb.node];
            assert!(
                observed <= nb.bound_cycles,
                "node {}: observed {observed} > bound {}",
                nb.node,
                nb.bound_cycles
            );
        }
    }

    #[test]
    fn certify_flags_unjustified_plans_on_legacy_presets() {
        // A no-L1.5 preset runs the baseline plan: every store is
        // conventional, nothing is routed, yet the table stays sound and
        // the response still certifies (no assumption was *needed*).
        let req = post("/certify", "preset=cmp_l2_8core&compute_iters=4", SAMPLE);
        let resp = handle_compute(Endpoint::Certify, &req, &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"zeta\":0"), "{body}");
        assert!(body.contains("\"routed\":false"), "{body}");
        assert!(body.contains("\"certified\":true"), "{body}");
    }

    #[test]
    fn certify_rejects_bad_presets_and_oversized_tasks() {
        let resp = handle_compute(
            Endpoint::Certify,
            &post("/certify", "preset=warp_drive", SAMPLE),
            &Limits::default(),
        );
        assert_eq!(resp.status, 400);

        let tight = Limits { max_sim_nodes: 2, ..Limits::default() };
        let resp = handle_compute(Endpoint::Certify, &post("/certify", "", SAMPLE), &tight);
        assert_eq!(resp.status, 413);

        let fat = "task period=10 deadline=10\nnode 0 wcet=1 data=999999999\n";
        let resp =
            handle_compute(Endpoint::Certify, &post("/certify", "", fat), &Limits::default());
        assert_eq!(resp.status, 413);

        let resp = handle_compute(
            Endpoint::Certify,
            &post("/certify", "", "garbage\n"),
            &Limits::default(),
        );
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn certify_is_deterministic() {
        let req = post("/certify", "compute_iters=4", SAMPLE);
        let a = handle_compute(Endpoint::Certify, &req, &Limits::default());
        let b = handle_compute(Endpoint::Certify, &req, &Limits::default());
        assert_eq!(a, b, "the bound table must be a pure function of the request");
    }

    #[test]
    fn check_passes_a_valid_program() {
        let req = post("/check", "cores=4&zeta=16", SAMPLE);
        let resp = handle_compute(Endpoint::Check, &req, &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"clean\":true"), "{body}");
        assert!(body.contains("\"findings\":[]"), "{body}");
        assert!(body.contains("\"nodes\":4"), "{body}");
    }

    #[test]
    fn check_reports_cross_tid_reads_on_an_embedded_plan() {
        // Node 1 runs as a different application (tid 1), so the reads
        // along 0 → 1 and 1 → 3 cross the TID protector boundary.
        let program = format!(
            "{SAMPLE}plan 0 pri=3 ways=4 tid=0\nplan 1 pri=2 ways=4 tid=1\n\
             plan 2 pri=2 ways=4 tid=0\nplan 3 pri=1 ways=4 tid=0\n"
        );
        let resp =
            handle_compute(Endpoint::Check, &post("/check", "", &program), &Limits::default());
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8(resp.body));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"clean\":false"), "{body}");
        assert!(body.contains("\"rule\":\"R4_TID_PROTECTOR\""), "{body}");
        assert!(body.contains("TID boundary"), "{body}");
    }

    #[test]
    fn check_rejects_bad_plan_lines_and_oversized_programs() {
        let bad = format!("{SAMPLE}plan 0 pri=1\n");
        let resp = handle_compute(Endpoint::Check, &post("/check", "", &bad), &Limits::default());
        assert_eq!(resp.status, 422, "{:?}", String::from_utf8(resp.body));

        let tight = Limits { max_sim_nodes: 2, ..Limits::default() };
        let resp = handle_compute(Endpoint::Check, &post("/check", "", SAMPLE), &tight);
        assert_eq!(resp.status, 413);

        // A way count past the mask width never reaches the kernel.
        let wide = format!("{SAMPLE}plan 0 pri=1 ways=18446744073709551615\n");
        let resp = handle_compute(Endpoint::Check, &post("/check", "", &wide), &Limits::default());
        assert_eq!(resp.status, 422, "{:?}", String::from_utf8(resp.body));

        let tight = Limits { max_sim_cycles: 1000, ..Limits::default() };
        let resp = handle_compute(Endpoint::Check, &post("/check", "", SAMPLE), &tight);
        assert_eq!(resp.status, 422, "{:?}", String::from_utf8(resp.body));
    }

    #[test]
    fn check_judges_a_program_that_over_demands_the_cluster() {
        // Every node asks for all 16 ways of the cluster and four run at
        // once, so the SDU stalls on an unmet demand for the whole run
        // (≈ 1.7 M stall events); the lift keeps only the events it reads
        // and still answers. Nodes finish before their Walloc settles and
        // leave their demand set; the kernel reclaims what the Walloc later
        // grants their idle lanes, so the run is clean and its ways balance.
        let n = 16;
        let mut program = String::from("task period=1000000 deadline=1000000\n");
        for v in 0..n {
            program += &format!("node {v} wcet=1 data=32768\n");
        }
        for v in 1..n - 1 {
            program +=
                &format!("edge 0 {v} cost=1 alpha=0.5\nedge {v} {} cost=1 alpha=0.5\n", n - 1);
        }
        for v in 0..n {
            program += &format!("plan {v} pri={} ways=16\n", n - v);
        }
        let req = post("/check", "zeta=16", &program);
        let resp = handle_compute(Endpoint::Check, &req, &Limits::default());
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(resp.status, 200, "{body}");
        assert!(body.contains("\"clean\":true"), "{body}");

        let spec = l15_check::parse_program_text(&program).unwrap();
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        run_task(&mut soc, &spec.task, &spec.plan.unwrap(), &KernelConfig::default()).unwrap();
        let c = soc.uncore().trace().counters();
        assert_eq!(c.grants, c.revokes, "{c:?}");
    }

    #[test]
    fn check_is_deterministic() {
        let req = post("/check", "", SAMPLE);
        let a = handle_compute(Endpoint::Check, &req, &Limits::default());
        let b = handle_compute(Endpoint::Check, &req, &Limits::default());
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_bodies_are_4xx_never_5xx() {
        let cases = [
            ("", 422),          // missing header
            ("garbage\n", 422), // unknown directive
            ("task period=10 deadline=10\nnode 0 wcet=1 data=0\nedge 0 9 cost=1 alpha=0.5\n", 422),
        ];
        for (body, want) in cases {
            for ep in Endpoint::ALL {
                let resp = handle_compute(ep, &post("/x", "", body), &Limits::default());
                assert_eq!(resp.status, want, "{ep:?} body {body:?}");
            }
        }
        let non_utf8 = Request {
            method: "POST".into(),
            path: "/schedule".into(),
            query: String::new(),
            body: vec![0xff, 0xfe],
        };
        let resp = handle_compute(Endpoint::Schedule, &non_utf8, &Limits::default());
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn bad_query_params_are_400() {
        for q in ["cores=0", "cores=abc", "cores=9999", "zeta=0"] {
            let resp = handle_compute(
                Endpoint::Schedule,
                &post("/schedule", q, SAMPLE),
                &Limits::default(),
            );
            assert_eq!(resp.status, 400, "{q}");
        }
    }

    #[test]
    fn node_cap_applies_to_analytic_endpoints() {
        let mut body = String::from("task period=1000 deadline=1000\n");
        for i in 0..10 {
            body.push_str(&format!("node {i} wcet=1 data=0\n"));
        }
        for i in 0..9 {
            body.push_str(&format!("edge {i} {} cost=1 alpha=0.5\n", i + 1));
        }
        let tight = Limits { max_nodes: 5, ..Limits::default() };
        let resp = handle_compute(Endpoint::Analyze, &post("/analyze", "", &body), &tight);
        assert_eq!(resp.status, 413);
    }
}
