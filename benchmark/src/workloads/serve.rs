//! The two HTTP workloads. Both start `l15_serve` in-process and drive it
//! closed-loop from two connections (a client sends its next request when
//! the reply arrives, as the tools calling this service do).

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use l15_core::baseline::baseline_priorities;
use l15_dag::gen::DagGenParams;
use l15_dag::{textio, DagTask};
use l15_runtime::{run_task, KernelConfig, WorkScale};
use l15_serve::http::{read_request, Request};
use l15_serve::{api, client, scrape, Endpoint, Handle, Limits, ServeConfig};
use l15_soc::{Soc, SocConfig};
use l15_testkit::pool;
use l15_testkit::rng::{Rng, SmallRng};

use super::{alg1_plan, corpus, fullstack_corpus, EngineCounters, FULLSTACK_ITERS};
use crate::harness::{Check, Metric, Workload};
use crate::span::{by_name, Span, Tracer};
use crate::stats::{fnv1a, FNV_SEED};

const CLIENTS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(30);
/// 503 retries one request may spend before it counts as failed.
const RETRY_BUDGET: u32 = 1_000;

/// What a request asks for; indexes the span-name tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Schedule,
    ScheduleFederated,
    Analyze,
    Simulate,
    Certify,
    Trace,
}

const KINDS: [Kind; 6] = [
    Kind::Schedule,
    Kind::ScheduleFederated,
    Kind::Analyze,
    Kind::Simulate,
    Kind::Certify,
    Kind::Trace,
];

impl Kind {
    fn endpoint(self) -> Endpoint {
        match self {
            Kind::Schedule | Kind::ScheduleFederated => Endpoint::Schedule,
            Kind::Analyze => Endpoint::Analyze,
            Kind::Simulate => Endpoint::Simulate,
            Kind::Certify => Endpoint::Certify,
            Kind::Trace => Endpoint::Trace,
        }
    }

    fn roundtrip_span(self) -> &'static str {
        [
            "serve.roundtrip_schedule",
            "serve.roundtrip_schedule_federated",
            "serve.roundtrip_analyze",
            "serve.roundtrip_simulate",
            "serve.roundtrip_certify",
            "serve.roundtrip_trace",
        ][self as usize]
    }

    fn handle_span(self) -> &'static str {
        [
            "serve.handle_schedule",
            "serve.handle_schedule_federated",
            "serve.handle_analyze",
            "serve.handle_simulate",
            "serve.handle_certify",
            "serve.handle_trace",
        ][self as usize]
    }
}

/// One distinct request with the reply a direct call gave.
struct Req {
    kind: Kind,
    path: &'static str,
    query: String,
    /// Index into the corpus texts.
    body: usize,
    status: u16,
    reply: Vec<u8>,
    /// What the handler's engine run retires and takes, from the same run
    /// done directly (the HTTP body carries cycles only).
    sim: EngineCounters,
}

impl Req {
    fn target(&self) -> String {
        format!("{}?{}", self.path, self.query)
    }

    fn as_request(&self, texts: &[String]) -> Request {
        Request {
            method: "POST".to_owned(),
            path: self.path.to_owned(),
            query: self.query.clone(),
            body: texts[self.body].clone().into_bytes(),
        }
    }
}

/// A serve workload after set-up: server up, expected replies known.
pub struct Serve {
    handle: Option<Handle>,
    addr: SocketAddr,
    texts: Vec<String>,
    requests: Vec<Req>,
    /// The request indices each client's pass walks.
    passes: [Vec<usize>; CLIENTS],
    /// Replies received per endpoint (everything but a 503).
    answered: [AtomicU64; 6],
    replies_200: AtomicU64,
    replies_503: AtomicU64,
    checks: Vec<Check>,
    /// The `fullstack_8core` tasks, for the stage replay (`serve_simulate`).
    sim_tasks: Vec<DagTask>,
}

/// The run `/simulate` and `/trace` do for `preset`, done directly.
fn direct_run(task: &DagTask, preset: &str, compute_iters: u32) -> Result<EngineCounters, String> {
    let cfg = SocConfig::preset(preset).ok_or_else(|| format!("no preset {preset}"))?;
    let use_l15 = cfg.l15.is_some();
    let plan = if use_l15 { alg1_plan(task) } else { baseline_priorities(task) };
    let kcfg = KernelConfig {
        use_l15,
        scale: WorkScale { compute_iters },
        max_cycles: 5_000_000,
        ..KernelConfig::default()
    };
    let mut soc = Soc::new(cfg.clone(), 0);
    let report = run_task(&mut soc, task, &plan, &kcfg).map_err(|e| e.to_string())?;
    Ok(EngineCounters::harvest(&soc, report.makespan_cycles))
}

/// `/trace` refuses (413) a capture that overflows its 2^18-event ring,
/// and loads and stores of the payloads are most of the events: 11 of 12
/// corpus DAGs overflow at any work scale. The `/trace` arm therefore
/// posts each corpus DAG with its payloads cut to an eighth, which every
/// seed's corpus fits with the server's limits left at their defaults.
fn light_copy(task: &DagTask) -> DagTask {
    let mut dag = task.clone().into_graph();
    for v in dag.node_ids().collect::<Vec<_>>() {
        let bytes = dag.node(v).data_bytes / 8;
        dag.set_data_bytes(v, bytes);
    }
    DagTask::new(dag, task.period(), task.deadline()).expect("timing is the original's")
}

/// `items` in a seeded order of `client`'s own.
fn shuffled(seed: u64, client: usize, mut items: Vec<usize>) -> Vec<usize> {
    SmallRng::seed_from_u64(pool::item_seed(seed ^ 0x7365_7276, client)).shuffle(&mut items);
    items
}

impl Serve {
    /// Starts the server and computes each request's reply directly.
    /// Which request a client sends at each position of its pass is
    /// seed-derived, never timing-derived.
    fn start(
        texts: Vec<String>,
        sim_tasks: Vec<DagTask>,
        mut requests: Vec<Req>,
        passes: [Vec<usize>; CLIENTS],
    ) -> Result<Self, String> {
        for r in &mut requests {
            let resp =
                api::handle_compute(r.kind.endpoint(), &r.as_request(&texts), &Limits::default());
            r.status = resp.status;
            r.reply = resp.body;
        }
        let all_ok = requests.iter().all(|r| r.status == 200);
        let handle = l15_serve::start(ServeConfig::default()).map_err(|e| e.to_string())?;
        Ok(Serve {
            addr: handle.addr(),
            handle: Some(handle),
            texts,
            requests,
            passes,
            answered: Default::default(),
            replies_200: AtomicU64::new(0),
            replies_503: AtomicU64::new(0),
            checks: vec![Check::new("every_request_answers_200", all_ok)],
            sim_tasks,
        })
    }

    /// `serve_analytic`: the loadgen mix over a 16-task corpus — a third
    /// each of `/schedule`, `/analyze` and federated `/schedule`; a pass
    /// sends every (task, endpoint) pair ten times.
    pub fn setup_analytic(seed: u64, quick: bool) -> Result<Self, String> {
        let params = DagGenParams { layers: (3, 5), max_width: 6, ..DagGenParams::default() };
        let texts: Vec<String> = corpus(&mut Tracer::off(), seed, 0x616e_616c, 16, 1, &params)
            .iter()
            .map(textio::write_task)
            .collect();
        let arms = [
            (Kind::Schedule, "/schedule", "cores=8"),
            (Kind::Analyze, "/analyze", "cores=8"),
            (Kind::ScheduleFederated, "/schedule", "clusters=2&cores_per_cluster=4"),
        ];
        let requests = (0..texts.len())
            .flat_map(|body| {
                arms.iter().map(move |&(kind, path, query)| Req {
                    kind,
                    path,
                    query: query.to_owned(),
                    body,
                    status: 0,
                    reply: Vec::new(),
                    sim: EngineCounters::default(),
                })
            })
            .collect::<Vec<_>>();
        let repeats = if quick { 2 } else { 10 };
        let walk: Vec<usize> = (0..requests.len() * repeats).map(|j| j % requests.len()).collect();
        let passes = std::array::from_fn(|c| shuffled(seed, c, walk.clone()));
        Self::start(texts, Vec::new(), requests, passes)
    }

    /// `serve_simulate`: engine-backed endpoints over the `fullstack_8core`
    /// DAGs. A pass of 20 requests is 10 `/simulate` on `proposed_8core`,
    /// 4 on `cmp_l2_8core`, 4 `/certify` and 2 `/trace`, shuffled.
    pub fn setup_simulate(seed: u64, quick: bool) -> Result<Self, String> {
        let tasks = fullstack_corpus(&mut Tracer::off(), seed, quick);
        // The corpus, then its light copies for `/trace`.
        let texts: Vec<String> = tasks
            .iter()
            .cloned()
            .chain(tasks.iter().map(light_copy))
            .map(|t| textio::write_task(&t))
            .collect();
        let iters = FULLSTACK_ITERS;
        let simulate = |preset: &'static str| {
            (Kind::Simulate, "/simulate", format!("preset={preset}&compute_iters={iters}"), preset)
        };
        let arms = [
            simulate("proposed_8core"),
            simulate("cmp_l2_8core"),
            (Kind::Certify, "/certify", format!("preset=proposed_8core&compute_iters={iters}"), ""),
            (Kind::Trace, "/trace", format!("preset=proposed_8core&compute_iters={iters}"), ""),
        ];
        let mut requests = Vec::new();
        for (body, task) in tasks.iter().enumerate() {
            for (kind, path, query, preset) in &arms {
                let sim = if preset.is_empty() {
                    EngineCounters::default()
                } else {
                    direct_run(task, preset, iters)?
                };
                requests.push(Req {
                    kind: *kind,
                    path,
                    query: query.clone(),
                    body: if *kind == Kind::Trace { tasks.len() + body } else { body },
                    status: 0,
                    reply: Vec::new(),
                    sim,
                });
            }
        }
        let counts = if quick { [2, 1, 1, 1] } else { [10, 4, 4, 2] };
        let mix: Vec<usize> =
            counts.iter().enumerate().flat_map(|(arm, &n)| vec![arm; n]).collect();
        let passes = std::array::from_fn(|c| {
            // Arms in a seeded order; DAGs round-robin from a seeded
            // start, so a pass touches the whole corpus.
            let first = pool::item_seed(seed, c) as usize;
            shuffled(seed, c, mix.clone())
                .iter()
                .enumerate()
                .map(|(j, &arm)| ((first + j) % tasks.len()) * arms.len() + arm)
                .collect()
        });
        Self::start(texts, tasks, requests, passes)
    }

    fn metrics_page(&self) -> Result<String, String> {
        client::get(self.addr, "/metrics", TIMEOUT).map(|r| r.text()).map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn pass_len(&self) -> usize {
        self.passes[0].len()
    }

    fn op(&self, client: usize, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let req = &self.requests[self.passes[client][i]];
        let target = req.target();
        let body = self.texts[req.body].as_bytes();
        for _ in 0..=RETRY_BUDGET {
            let resp = tr
                .span(req.kind.roundtrip_span(), |_| {
                    client::post(self.addr, &target, body, TIMEOUT)
                })
                .map_err(|e| format!("{target}: {e}"))?;
            if resp.status == 503 {
                self.replies_503.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.answered[req.kind.endpoint() as usize].fetch_add(1, Ordering::Relaxed);
            if resp.status == 200 {
                self.replies_200.fetch_add(1, Ordering::Relaxed);
            }
            if resp.status != req.status {
                return Err(format!(
                    "{target}: status {} (direct call: {})",
                    resp.status, req.status
                ));
            }
            if resp.body != req.reply {
                return Err(format!("{target}: body differs from the direct call"));
            }
            return Ok(());
        }
        Err(format!("{target}: 503 retry budget exhausted"))
    }

    fn sim_instr_per_pass(&self) -> u64 {
        self.passes.iter().flatten().map(|&r| self.requests[r].sim.instructions).sum()
    }

    fn exact_metrics(&self) -> Vec<Metric> {
        if self.sim_tasks.is_empty() {
            return Vec::new();
        }
        // One pass over the corpus on both `/simulate` presets, as
        // `fullstack_8core` counts it.
        let sims = self.requests.iter().filter(|r| r.kind == Kind::Simulate).map(|r| &r.sim);
        let total = EngineCounters::sum(sims);
        vec![
            Metric::new("sim_cycles", "cycles", total.makespan_cycles as f64),
            Metric::new("sim_ipc", "instr/cycle", total.ipc()),
        ]
    }

    fn digest(&self) -> u64 {
        self.requests.iter().fold(FNV_SEED, |h, r| fnv1a(fnv1a(h, r.target().as_bytes()), &r.reply))
    }

    fn setup_checks(&self) -> Vec<Check> {
        self.checks.clone()
    }

    fn layer_extras(
        &self,
        tr: &mut Tracer,
        ops: &[Vec<Span>],
        _checks: &mut Vec<Check>,
        _quick: bool,
    ) -> Vec<Metric> {
        let limits = Limits::default();
        let cfg = SocConfig::proposed_8core();
        let kcfg = KernelConfig {
            scale: WorkScale { compute_iters: FULLSTACK_ITERS },
            max_cycles: 5_000_000,
            ..KernelConfig::default()
        };
        // Each distinct request once more, directly and as raw bytes.
        for req in &self.requests {
            let request = req.as_request(&self.texts);
            tr.span(req.kind.handle_span(), |_| {
                api::handle_compute(req.kind.endpoint(), &request, &limits)
            });
            let text = &self.texts[req.body];
            let raw = format!(
                "POST {} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
                req.target(),
                self.addr,
                request.body.len(),
            );
            let _ = tr.span("serve.read_request", |_| {
                read_request(&mut Cursor::new(raw.as_bytes()), 256 * 1024)
            });
            // The stages inside the handler, replayed from outside right
            // after it: all of them for a `/simulate` on the proposed
            // preset, the parse alone for the analytic endpoints.
            match req.kind {
                Kind::Simulate if req.query.starts_with("preset=proposed_8core") => {
                    let task =
                        tr.span("dag.parse_task", |_| textio::parse_task(text)).expect("own text");
                    let plan = tr.span("core.alg1", |_| alg1_plan(&task));
                    let mut soc = tr.span("soc.new_8core", |_| Soc::new(cfg.clone(), 0));
                    let _ = tr
                        .span("runtime.run_task_l15", |_| run_task(&mut soc, &task, &plan, &kcfg));
                }
                Kind::Schedule => {
                    let _ = tr.span("dag.parse_task", |_| textio::parse_task(text));
                }
                _ => {}
            }
        }

        // overhead = client round trip − direct handler, per request kind,
        // weighted by how often the op loop sent the kind.
        let trips = by_name(ops);
        let direct = by_name(&[tr.spans().to_vec()]);
        let (mut over_us, mut n) = (0.0, 0u64);
        for kind in KINDS {
            let (Some(t), Some(d)) =
                (trips.get(kind.roundtrip_span()), direct.get(kind.handle_span()))
            else {
                continue;
            };
            let handle_mean_us = d.total_ms * 1e3 / d.calls as f64;
            over_us += t.total_ms * 1e3 - handle_mean_us * t.calls as f64;
            n += t.calls;
        }
        let mut out = vec![Metric::new("serve.overhead_us", "us", over_us / n.max(1) as f64)];

        if let Ok(page) = self.metrics_page() {
            let sum = |what: &str, phase: &str| -> u64 {
                Endpoint::ALL
                    .iter()
                    .filter_map(|ep| {
                        let sel = format!(
                            "l15_latency_us_{what}{{endpoint=\"{}\",phase=\"{phase}\"}}",
                            ep.name()
                        );
                        scrape(&page, &sel)
                    })
                    .sum()
            };
            let mean = |phase: &str| sum("sum", phase) as f64 / sum("count", phase).max(1) as f64;
            let counter = |sel: &str| scrape(&page, sel).unwrap_or(0) as f64;
            out.extend([
                Metric::new("serve.queue_wait_us", "us", mean("queue")),
                Metric::new("serve.handle_us", "us", mean("handle")),
                Metric::new(
                    "serve.responses_503",
                    "count",
                    counter("l15_responses_total{status=\"503\"}"),
                ),
                Metric::new("serve.batches", "count", counter("l15_batches_total")),
                Metric::new("serve.batch_jobs", "count", counter("l15_batch_jobs_total")),
            ]);
        }
        out
    }

    fn close(mut self: Box<Self>) -> Vec<Check> {
        // Client tallies against the server's own counters, exactly.
        let reconciled = self.metrics_page().is_ok_and(|page| {
            let served = |ep: Endpoint| {
                scrape(&page, &format!("l15_requests_total{{endpoint=\"{}\"}}", ep.name()))
            };
            let status = |s: &str| scrape(&page, &format!("l15_responses_total{{status=\"{s}\"}}"));
            Endpoint::ALL
                .iter()
                .all(|&ep| served(ep) == Some(self.answered[ep as usize].load(Ordering::Relaxed)))
                && status("503") == Some(self.replies_503.load(Ordering::Relaxed))
                // Earlier `/metrics` fetches answered 200 too; this one's
                // own reply is recorded after its page rendered.
                && status("200").zip(scrape(&page, "l15_requests_total{endpoint=\"metrics\"}"))
                    .is_some_and(|(ok, fetches)| {
                        ok == self.replies_200.load(Ordering::Relaxed) + fetches - 1
                    })
        });
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        vec![Check::new("client_tallies_match_/metrics", reconciled)]
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}
