//! The two cycle-engine workloads: `fullstack_8core` (data-heavy, both
//! publish paths) and `cluster_32core` (compute-heavy, all 8 clusters).

use std::time::Instant;

use l15_core::baseline::{baseline_priorities, SystemModel};
use l15_core::federated::{federated_partition, ClusterPlan, ClusterTopology};
use l15_core::plan::SchedulePlan;
use l15_core::rta;
use l15_dag::gen::DagGenParams;
use l15_dag::{analysis, textio, DagTask};
use l15_runtime::{
    node_program, run_cluster_plan, run_task, run_task_traced, CoResidencyReport, KernelConfig,
    RunReport, TaskLayout, WorkScale, DEFAULT_CAPTURE_EVENTS,
};
use l15_soc::{Soc, SocConfig};
use l15_trace::chrome;

use super::{
    alg1_plan, corpus, corpus_digest, fullstack_corpus, EngineCounters, FULLSTACK_ITERS, STRATIFY,
};
use crate::harness::{Check, Metric, Workload};
use crate::ladder;
use crate::span::{by_name, Span, Tracer};
use crate::stats::{fnv1a, FNV_SEED};

/// One DAG with the plan each hardware variant runs it under.
struct Case {
    task: DagTask,
    /// `[Alg. 1 on proposed_8core, baseline priorities on cmp_l2_8core]`.
    plans: [SchedulePlan; 2],
}

/// The two hardware variants of `fullstack_8core`, by op parity.
struct Variant {
    cfg: SocConfig,
    kcfg: KernelConfig,
    run_span: &'static str,
}

fn variants() -> [Variant; 2] {
    let scale = WorkScale { compute_iters: FULLSTACK_ITERS };
    [
        Variant {
            cfg: SocConfig::proposed_8core(),
            kcfg: KernelConfig { scale, ..KernelConfig::default() },
            run_span: "runtime.run_task_l15",
        },
        Variant {
            cfg: SocConfig::cmp_l2_8core(),
            kcfg: KernelConfig { use_l15: false, scale, ..KernelConfig::default() },
            run_span: "runtime.run_task_legacy",
        },
    ]
}

/// `fullstack_8core`: op `2d + v` runs DAG `d` on variant `v`.
pub struct Fullstack {
    seed: u64,
    quick: bool,
    cases: Vec<Case>,
    variants: [Variant; 2],
    expected: Vec<(RunReport, EngineCounters)>,
    checks: Vec<Check>,
    chain: Chain,
}

/// Cycles from the first dispatch to the last completion of a run.
/// `run_task` measures `makespan_cycles` from the SoC-wide clock (the
/// furthest-ahead core), so an application that `run_cluster_plan` starts
/// on a cluster whose cores are behind that clock reports a makespan that
/// is too short, down to 0; the per-node cycles are right.
fn span_cycles(r: &RunReport) -> u64 {
    let first = r.node_start.iter().copied().min().unwrap_or(0);
    r.node_finish.iter().copied().max().unwrap_or(0).saturating_sub(first)
}

/// Longest path through `task` under the observed per-node cycles: no
/// schedule can finish sooner.
fn observed_critical_path(task: &DagTask, r: &RunReport) -> u64 {
    let dag = task.graph();
    let mut dist = vec![0u64; dag.node_count()];
    let mut longest = 0;
    for v in analysis::topological_order(dag) {
        let before = dag.predecessors(v).iter().map(|&(_, p)| dist[p.0]).max().unwrap_or(0);
        dist[v.0] = before + r.node_finish[v.0].saturating_sub(r.node_start[v.0]);
        longest = longest.max(dist[v.0]);
    }
    longest
}

/// The conformance chain over the runs the certifier certifies: critical
/// path <= observed makespan <= certified bound. The observed makespan is
/// handed in beside the report, because a co-resident run's
/// `makespan_cycles` is not one (see [`span_cycles`]).
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    certified: usize,
    holds: bool,
    bound_over_observed_max: f64,
}

impl Chain {
    fn over<'a>(
        runs: impl Iterator<Item = (&'a DagTask, &'a SchedulePlan, &'a RunReport, u64)>,
        cfg: &SocConfig,
        kcfg: &KernelConfig,
    ) -> Self {
        let mut chain = Chain { holds: true, ..Chain::default() };
        for (task, plan, report, observed) in runs {
            let cert = l15_check::certify_task(task, plan, cfg, kcfg.scale);
            if !cert.certified() {
                continue;
            }
            let bound = rta::certified_makespan_bound(task, cfg.cores_per_cluster, &cert.bounds())
                .makespan
                .bound;
            chain.certified += 1;
            chain.holds &=
                observed_critical_path(task, report) <= observed && observed as f64 <= bound;
            chain.bound_over_observed_max =
                chain.bound_over_observed_max.max(bound / observed as f64);
        }
        chain
    }

    fn check(&self) -> Check {
        Check::new("critical_path<=observed<=certified_bound", self.holds)
    }

    /// How many runs the chain was checked on (printed, not gated).
    fn coverage(&self) -> Metric {
        Metric::new("certified_runs", "count", self.certified as f64)
    }
}

impl Fullstack {
    fn run(
        &self,
        d: usize,
        v: usize,
        tr: &mut Tracer,
    ) -> Result<(RunReport, EngineCounters), String> {
        let var = &self.variants[v];
        let case = &self.cases[d];
        let mut soc = tr.span("soc.new_8core", |_| Soc::new(var.cfg.clone(), 0));
        let report = tr
            .span(var.run_span, |_| run_task(&mut soc, &case.task, &case.plans[v], &var.kcfg))
            .map_err(|e| format!("dag {d} variant {v}: {e}"))?;
        let counters = EngineCounters::harvest(&soc, report.makespan_cycles);
        Ok((report, counters))
    }

    /// Generates the corpus, plans it and runs the reference pass.
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let cases = fullstack_corpus(&mut Tracer::off(), seed, quick)
            .into_iter()
            .map(|task| {
                let plans = [alg1_plan(&task), baseline_priorities(&task)];
                Case { task, plans }
            })
            .collect();
        let mut w = Fullstack {
            seed,
            quick,
            cases,
            variants: variants(),
            expected: Vec::new(),
            checks: Vec::new(),
            chain: Chain::default(),
        };
        let mut tr = Tracer::off();
        for i in 0..w.pass_len() {
            let run = w.run(i / 2, i % 2, &mut tr)?;
            w.expected.push(run);
        }
        w.checks.push(Check::new("dataflow_ok", w.expected.iter().all(|(r, _)| r.dataflow_ok)));

        let var = &w.variants[0];
        let runs = w.cases.iter().zip(w.expected.iter().step_by(2));
        w.chain = Chain::over(
            runs.map(|(c, (r, _))| (&c.task, &c.plans[0], r, r.makespan_cycles)),
            &var.cfg,
            &var.kcfg,
        );
        w.checks.push(w.chain.check());
        Ok(w)
    }

    fn totals(&self, v: usize) -> EngineCounters {
        EngineCounters::sum(self.expected.iter().skip(v).step_by(2).map(|(_, c)| c))
    }
}

impl Workload for Fullstack {
    fn pass_len(&self) -> usize {
        2 * self.cases.len()
    }

    fn op(&self, _client: usize, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let got = self.run(i / 2, i % 2, tr)?;
        if !got.0.dataflow_ok {
            return Err("dataflow_ok=false".to_owned());
        }
        if got != self.expected[i] {
            return Err("cycle/instruction counts differ from the set-up pass".to_owned());
        }
        Ok(())
    }

    fn sim_instr_per_pass(&self) -> u64 {
        self.expected.iter().map(|(_, c)| c.instructions).sum()
    }

    fn exact_metrics(&self) -> Vec<Metric> {
        let (l15, legacy) = (self.totals(0), self.totals(1));
        let all = EngineCounters::sum([&l15, &legacy]);
        let speedup = (1.0 - l15.makespan_cycles as f64 / legacy.makespan_cycles as f64) * 100.0;
        vec![
            Metric::new("sim_cycles", "cycles", all.makespan_cycles as f64),
            Metric::new("sim_ipc", "instr/cycle", all.ipc()),
            Metric::new("l15_hit_ratio", "ratio", super::ratio(l15.l15.0, l15.l15.1)),
            Metric::new("l15_speedup_pct", "%", speedup),
            self.chain.coverage(),
        ]
    }

    fn digest(&self) -> u64 {
        let tasks: Vec<DagTask> = self.cases.iter().map(|c| c.task.clone()).collect();
        let h = corpus_digest(FNV_SEED, &tasks);
        self.expected.iter().fold(h, |h, (r, c)| c.digest(fnv1a(h, format!("{r:?}").as_bytes())))
    }

    fn setup_checks(&self) -> Vec<Check> {
        self.checks.clone()
    }

    fn layer_extras(
        &self,
        tr: &mut Tracer,
        ops: &[Vec<Span>],
        checks: &mut Vec<Check>,
        quick: bool,
    ) -> Vec<Metric> {
        let var = &self.variants[0];
        let mut instr_traced = 0u64;
        let mut program_words = 0u64;
        let (mut plain_ns, mut traced_ns, mut export_ns, mut events) = (0u64, 0u64, 0u64, 0u64);

        let mut recorder_changes_nothing = true;
        fullstack_corpus(tr, self.seed, self.quick);
        for (d, case) in self.cases.iter().enumerate() {
            let text = tr.span("dag.write_task", |_| textio::write_task(&case.task));
            tr.span("dag.parse_task", |_| textio::parse_task(&text)).expect("own output parses");
            tr.span("core.alg1", |_| alg1_plan(&case.task));
            let dag = case.task.graph();
            tr.span("core.rta_bound", |_| {
                rta::makespan_bound(&case.task, 4, |v| dag.node(v).wcet, |e| dag.edge(e).cost)
            });
            let layout = TaskLayout::new(dag);
            for v in dag.node_ids() {
                let words = tr
                    .span("runtime.node_program", |_| node_program(dag, v, &layout, var.kcfg.scale))
                    .expect("corpus programs assemble");
                program_words += words.len() as u64;
            }
            tr.span("check.certify_task", |_| {
                l15_check::certify_task(&case.task, &case.plans[0], &var.cfg, var.kcfg.scale)
            });

            // Recorder overhead: the same run with and without a flight
            // recorder attached, back to back.
            let t = Instant::now();
            let mut soc = Soc::new(var.cfg.clone(), 0);
            run_task(&mut soc, &case.task, &case.plans[0], &var.kcfg).expect("ran in set-up");
            plain_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let mut soc = Soc::new(var.cfg.clone(), 0);
            let (report, rec) = tr
                .span("runtime.run_task_traced", |_| {
                    run_task_traced(
                        &mut soc,
                        &case.task,
                        &case.plans[0],
                        &var.kcfg,
                        DEFAULT_CAPTURE_EVENTS,
                    )
                })
                .expect("ran in set-up");
            traced_ns += t.elapsed().as_nanos() as u64;
            recorder_changes_nothing &= report == self.expected[2 * d].0;
            instr_traced += self.expected[2 * d].1.instructions;
            let t = Instant::now();
            std::hint::black_box(chrome::export("proposed_8core", &rec));
            export_ns += t.elapsed().as_nanos() as u64;
            events += rec.len() as u64;
        }

        checks.push(Check::new(
            "traced_run_reports_what_the_untraced_run_did",
            recorder_changes_nothing,
        ));

        let agg = by_name(ops);
        let extras = by_name(&[tr.spans().to_vec()]);
        let passes = agg.get("op").map_or(0, |o| o.calls) / self.pass_len() as u64;
        let ns_per_instr = |total_ms: f64, instr: u64| total_ms * 1e6 / instr.max(1) as f64;
        let op_ns_per_instr = |span: &str, v: usize| {
            let total = agg.get(span).map_or(0.0, |l| l.total_ms);
            ns_per_instr(total, passes * self.totals(v).instructions)
        };
        let extra_total = |span: &str| extras.get(span).map_or(0.0, |l| l.total_ms);
        let l15_runs = self.expected.iter().step_by(2);
        let n = self.cases.len() as f64;
        let mut out = vec![
            Metric::new(
                "runtime.run_task_l15.ns_per_instr",
                "ns",
                op_ns_per_instr("runtime.run_task_l15", 0),
            ),
            Metric::new(
                "runtime.run_task_legacy.ns_per_instr",
                "ns",
                op_ns_per_instr("runtime.run_task_legacy", 1),
            ),
            Metric::new(
                "runtime.run_task_traced.ns_per_instr",
                "ns",
                ns_per_instr(extra_total("runtime.run_task_traced"), instr_traced),
            ),
            Metric::new(
                "runtime.node_program.ns_per_instr",
                "ns",
                ns_per_instr(extra_total("runtime.node_program"), program_words),
            ),
            Metric::new(
                "runtime.phi_mean",
                "ratio",
                l15_runs.clone().map(|(r, _)| r.phi).sum::<f64>() / n,
            ),
            Metric::new(
                "runtime.l15_utilisation",
                "ratio",
                l15_runs.map(|(r, _)| r.l15_utilisation).sum::<f64>() / n,
            ),
            Metric::new(
                "check.bound_over_observed_max",
                "ratio",
                self.chain.bound_over_observed_max,
            ),
            Metric::new(
                "trace.recorder_overhead_pct",
                "%",
                (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0) * 100.0,
            ),
            Metric::new(
                "trace.chrome_export.ns_per_op",
                "ns",
                export_ns as f64 / events.max(1) as f64,
            ),
        ];
        out.extend(EngineCounters::sum(self.expected.iter().map(|(_, c)| c)).layer_metrics());
        out.extend(ladder::run(quick));
        out
    }

    fn close(self: Box<Self>) -> Vec<Check> {
        Vec::new()
    }
}

/// What one `cluster_32core` op runs.
struct CoResident {
    tasks: Vec<DagTask>,
    plan: ClusterPlan,
    cfg: SocConfig,
    kcfg: KernelConfig,
}

impl CoResident {
    fn run(&self, tr: &mut Tracer) -> Result<(CoResidencyReport, EngineCounters), String> {
        let mut soc = tr.span("soc.new_32core", |_| Soc::new(self.cfg.clone(), 0));
        let report = tr
            .span("runtime.run_cluster_plan", |_| {
                run_cluster_plan(&mut soc, &self.tasks, &self.plan, &self.kcfg)
            })
            .map_err(|e| e.to_string())?;
        // The whole co-resident run's makespan: the SoC-wide clock at the end
        // (the per-application `makespan_cycles` do not add up to it).
        let counters = EngineCounters::harvest(&soc, soc.global_cycle());
        Ok((report, counters))
    }
}

/// `cluster_32core`: one op runs the whole 16-task federated plan.
pub struct Cluster {
    input: CoResident,
    expected: (CoResidencyReport, EngineCounters),
    checks: Vec<Check>,
    chain: Chain,
}

const TOPOLOGY: ClusterTopology = ClusterTopology { clusters: 8, cores_per_cluster: 4 };

impl Cluster {
    fn light_tasks(seed: u64, attempt: u64) -> Vec<DagTask> {
        let params = DagGenParams {
            layers: (2, 3),
            max_width: 4,
            data_bytes_range: (2 * 1024, 2 * 1024),
            utilisation: 0.9,
            ..DagGenParams::default()
        };
        corpus(&mut Tracer::off(), seed, 0x636c_7573 + attempt, 16, STRATIFY, &params)
    }

    /// Draws 16 light tasks that the federated tier spreads over all 8
    /// clusters (a draw that does not is redrawn, deterministically),
    /// then runs the reference pass.
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let model = SystemModel::proposed();
        let (tasks, plan) = (0..64)
            .find_map(|attempt| {
                let tasks = Self::light_tasks(seed, attempt);
                let plan = federated_partition(&tasks, TOPOLOGY, &model).ok()?;
                let all_used = (0..TOPOLOGY.clusters).all(|c| !plan.tasks_on(c).is_empty());
                all_used.then_some((tasks, plan))
            })
            .ok_or("no 16-task draw occupied all 8 clusters in 64 attempts")?;
        let input = CoResident {
            tasks,
            plan,
            cfg: SocConfig::proposed_32core(),
            kcfg: KernelConfig {
                scale: WorkScale { compute_iters: if quick { 32 } else { 256 } },
                ..KernelConfig::default()
            },
        };
        let expected = input.run(&mut Tracer::off())?;
        let report = &expected.0;
        let mut homes: Vec<usize> = report.apps.iter().map(|a| a.cluster).collect();
        homes.sort_unstable();
        homes.dedup();
        let runs = input.plan.assignments.iter().zip(&report.apps);
        let chain = Chain::over(
            runs.map(|(a, app)| {
                (&input.tasks[a.task], &a.plan, &app.report, span_cycles(&app.report))
            }),
            &input.cfg,
            &input.kcfg,
        );
        let checks = vec![
            Check::new("dataflow_ok", report.dataflow_ok()),
            Check::new("occupies_8_clusters", homes.len() == TOPOLOGY.clusters),
            chain.check(),
        ];
        Ok(Cluster { input, expected, checks, chain })
    }
}

impl Workload for Cluster {
    fn pass_len(&self) -> usize {
        1
    }

    fn op(&self, _client: usize, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let got = self.input.run(tr)?;
        if !got.0.dataflow_ok() {
            return Err("dataflow_ok=false".to_owned());
        }
        if got != self.expected {
            return Err("cycle/instruction counts differ from the set-up pass".to_owned());
        }
        Ok(())
    }

    fn sim_instr_per_pass(&self) -> u64 {
        self.expected.1.instructions
    }

    fn exact_metrics(&self) -> Vec<Metric> {
        let c = &self.expected.1;
        vec![
            Metric::new("sim_cycles", "cycles", c.makespan_cycles as f64),
            Metric::new("sim_ipc", "instr/cycle", c.ipc()),
            Metric::new("l15_hit_ratio", "ratio", super::ratio(c.l15.0, c.l15.1)),
            self.chain.coverage(),
        ]
    }

    fn digest(&self) -> u64 {
        let h = corpus_digest(FNV_SEED, &self.input.tasks);
        self.expected.1.digest(fnv1a(h, format!("{:?}", self.expected.0).as_bytes()))
    }

    fn setup_checks(&self) -> Vec<Check> {
        self.checks.clone()
    }

    fn layer_extras(
        &self,
        tr: &mut Tracer,
        ops: &[Vec<Span>],
        _checks: &mut Vec<Check>,
        quick: bool,
    ) -> Vec<Metric> {
        let model = SystemModel::proposed();
        for _ in 0..if quick { 1 } else { 8 } {
            tr.span("core.federated_partition", |_| {
                federated_partition(&self.input.tasks, TOPOLOGY, &model)
            })
            .expect("partitioned in set-up");
        }
        let agg = by_name(ops);
        let run = agg.get("runtime.run_cluster_plan");
        let instr = run.map_or(0, |r| r.calls) * self.expected.1.instructions;
        let apps = &self.expected.0.apps;
        let n = apps.len() as f64;
        let mut out = vec![
            Metric::new(
                "runtime.run_cluster_plan.ns_per_instr",
                "ns",
                run.map_or(0.0, |r| r.total_ms * 1e6 / instr.max(1) as f64),
            ),
            Metric::new(
                "runtime.phi_mean",
                "ratio",
                apps.iter().map(|a| a.report.phi).sum::<f64>() / n,
            ),
            Metric::new(
                "runtime.l15_utilisation",
                "ratio",
                apps.iter().map(|a| a.report.l15_utilisation).sum::<f64>() / n,
            ),
            Metric::new(
                "check.bound_over_observed_max",
                "ratio",
                self.chain.bound_over_observed_max,
            ),
        ];
        out.extend(self.expected.1.layer_metrics());
        out.extend(ladder::run(quick));
        out
    }

    fn close(self: Box<Self>) -> Vec<Check> {
        Vec::new()
    }
}
