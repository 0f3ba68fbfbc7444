//! Periodic multi-DAG scheduling on a clustered multi-core — the engine
//! behind the Sec. 5.2 case study (success ratios, Fig. 8(a)/(b)) and the
//! Sec. 5.3 side-effects analysis (L1.5 utilisation and misconfiguration
//! ratio φ, Fig. 8(c)).
//!
//! Each DAG task releases `releases` jobs at its period with an implicit
//! deadline. Jobs across tasks share the cores under global non-preemptive
//! fixed-priority scheduling: rate-monotonic between tasks, Alg. 1 (or the
//! baseline longest-path-first rule) within a task, on the event loop of
//! [`makespan::simulate`](crate::makespan::simulate).
//!
//! For the proposed system, every cluster owns a pool of `ζ` L1.5 ways.
//! When a node is dispatched, its planned local ways are requested from the
//! executing core's cluster pool (granted best-effort — exactly what the
//! SDU does); the Walloc configures **one way per cycle**, so a grant of
//! `g` ways leaves the first `g · way_config_time` of the node's execution
//! running "with an unexpected setting" — the φ metric. A node's ways go
//! back to the pool when the last consumer of its data *finishes* (the
//! kernel's `consumers_left` rule; the sink returns its own at its finish),
//! and cross-**cluster** edges cannot use the L1.5 at all (the paper's
//! sharing scope is one computing cluster).

use std::cmp::Ordering;

use l15_testkit::rng::Rng;

use l15_dag::{Dag, DagTask, NodeId};

use crate::baseline::{SystemKind, SystemModel};
use crate::makespan::{list_schedule, Policy, Running};
use crate::plan::SchedulePlan;

/// Parameters of the periodic simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicParams {
    /// Total cores.
    pub cores: usize,
    /// Cores per cluster (the paper: 4).
    pub cores_per_cluster: usize,
    /// L1.5 ways per cluster `ζ`.
    pub zeta: usize,
    /// Jobs released per task.
    pub releases: usize,
    /// Model-time cost of configuring one way (the Walloc's one way per
    /// cycle; with model units of ~1 ms at 1.2 GHz this is minuscule but
    /// non-zero — the source of φ).
    pub way_config_time: f64,
}

impl Default for PeriodicParams {
    fn default() -> Self {
        PeriodicParams {
            cores: 8,
            cores_per_cluster: 4,
            zeta: 16,
            releases: 5,
            way_config_time: 0.0005,
        }
    }
}

/// Aggregate outcome of one simulated trial.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeriodicOutcome {
    /// Total jobs simulated.
    pub jobs: usize,
    /// Jobs that missed their deadline.
    pub misses: usize,
    /// Time-weighted fraction of L1.5 ways *assigned* over the trial
    /// horizon (ways are reclaimed lazily, so an assigned way counts until
    /// another demand takes it) — the utilisation metric of Fig. 8(c).
    /// Zero for baselines.
    pub l15_utilisation: f64,
    /// Mean per-job fraction of execution time spent with an unexpected
    /// cache setting (φ). Zero for baselines.
    pub phi_avg: f64,
    /// Maximum per-job φ.
    pub phi_max: f64,
}

impl PeriodicOutcome {
    /// Whether the trial succeeded (no deadline miss).
    pub fn success(&self) -> bool {
        self.misses == 0
    }
}

struct Job {
    task: usize,
    /// The task's rate-monotonic priority: shorter period = higher.
    prio: u32,
    release: f64,
    deadline: f64,
    warm: f64,
    contention: f64,
    granted: Vec<usize>,
    consumers_left: Vec<usize>,
    exec_total: f64,
    misconfig: f64,
}

/// Simulates one trial of `tasks` under `model`.
///
/// Admits any non-empty set — including over-utilized ones, which the
/// success-ratio experiments rely on.
///
/// # Panics
///
/// Panics if `params.cores == 0`, `params.cores_per_cluster == 0` or the
/// task set is empty.
pub fn simulate_taskset<R: Rng + ?Sized>(
    tasks: &[DagTask],
    model: &SystemModel,
    params: &PeriodicParams,
    rng: &mut R,
) -> PeriodicOutcome {
    assert!(params.cores > 0, "need at least one core");
    assert!(params.cores_per_cluster > 0, "need at least one core per cluster");
    assert!(!tasks.is_empty(), "need at least one task");
    let n_clusters = params.cores.div_ceil(params.cores_per_cluster);
    let proposed = model.kind == SystemKind::Proposed;

    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| tasks[a].period().total_cmp(&tasks[b].period()));
    let mut task_prio = vec![0u32; tasks.len()];
    for (rank, &t) in order.iter().enumerate() {
        task_prio[t] = (tasks.len() - rank) as u32;
    }

    // Materialise all jobs.
    let mut jobs: Vec<Job> = Vec::new();
    for (ti, t) in tasks.iter().enumerate() {
        let g = t.graph();
        for k in 0..params.releases {
            let release = k as f64 * t.period();
            jobs.push(Job {
                task: ti,
                prio: task_prio[ti],
                release,
                deadline: release + t.deadline(),
                warm: model.warm(k),
                contention: rng.gen_range(0.0..1.0),
                granted: vec![0; g.node_count()],
                consumers_left: g.node_ids().map(|v| g.out_degree(v)).collect(),
                exec_total: 0.0,
                misconfig: 0.0,
            });
        }
    }
    let graphs: Vec<(&Dag, f64)> =
        jobs.iter().map(|j| (tasks[j.task].graph(), j.release)).collect();

    let mut trial = Trial {
        tasks,
        model,
        params,
        plans: tasks.iter().map(|t| model.plan(t)).collect(),
        jobs,
        proposed,
        free_ways: vec![params.zeta; n_clusters],
        reclaimable: vec![0; n_clusters],
        occ_time: 0.0,
        occ_level: 0,
        occ_last: 0.0,
        misses: 0,
    };
    let now = list_schedule(params.cores, &graphs, &mut trial).makespan;
    trial.account(now);

    let horizon = now.max(1e-12);
    let total_ways = (params.zeta * n_clusters) as f64;
    let mut phi_sum = 0.0;
    let mut phi_max = 0.0f64;
    for job in &trial.jobs {
        let phi = if job.exec_total > 0.0 { job.misconfig / job.exec_total } else { 0.0 };
        phi_sum += phi;
        phi_max = phi_max.max(phi);
    }

    PeriodicOutcome {
        jobs: trial.jobs.len(),
        misses: trial.misses,
        l15_utilisation: if proposed { trial.occ_time / (total_ways * horizon) } else { 0.0 },
        phi_avg: phi_sum / trial.jobs.len() as f64,
        phi_max,
    }
}

/// [`simulate_taskset`]'s policy and its state beside the loop's: grants,
/// the per-cluster way pools and their occupancy integral, φ and misses.
struct Trial<'a> {
    tasks: &'a [DagTask],
    model: &'a SystemModel,
    params: &'a PeriodicParams,
    plans: Vec<SchedulePlan>,
    jobs: Vec<Job>,
    proposed: bool,
    // Never-assigned ways vs. assigned-but-reclaimable ways: the kernel
    // reclaims lazily (an assigned way stays assigned until somebody else
    // demands it), which is what the Fig. 8(c) utilisation metric counts.
    free_ways: Vec<usize>,
    reclaimable: Vec<usize>,
    // Way-pool occupancy integration for the utilisation metric:
    // `occ_level` ways (all clusters) held since `occ_last`.
    occ_time: f64,
    occ_level: usize,
    occ_last: f64,
    misses: usize,
}

impl Trial<'_> {
    fn account(&mut self, t: f64) {
        self.occ_time += self.occ_level as f64 * (t - self.occ_last);
        self.occ_last = t;
    }

    /// Takes `n` ways from cluster `cl`'s pool at `now`: fresh ways first,
    /// then lazily-reclaimed ones (already assigned, so the level stays).
    /// Returns how many were fresh.
    fn take(&mut self, cl: usize, n: usize, now: f64) -> usize {
        let from_free = n.min(self.free_ways[cl]);
        self.free_ways[cl] -= from_free;
        self.reclaimable[cl] -= n - from_free;
        self.account(now);
        self.occ_level += from_free;
        from_free
    }
}

impl Policy for Trial<'_> {
    fn order(&self, (ja, va): (usize, NodeId), (jb, vb): (usize, NodeId)) -> Ordering {
        // Highest (task priority, node priority), then earliest deadline.
        let key = |j: usize, v: NodeId| {
            let job = &self.jobs[j];
            (job.prio, self.plans[job.task].priorities[v.0])
        };
        key(ja, va)
            .cmp(&key(jb, vb))
            .then(self.jobs[jb].deadline.total_cmp(&self.jobs[ja].deadline))
    }

    fn data_ready(&mut self, j: usize, v: NodeId, c: usize, finish: &[f64], core: &[usize]) -> f64 {
        let job = &self.jobs[j];
        let dag = self.tasks[job.task].graph();
        let cpc = self.params.cores_per_cluster;
        dag.predecessors(v)
            .iter()
            .map(|&(e, p)| {
                let edge = dag.edge(e);
                let cost = self.model.comm_cost(
                    edge.cost,
                    edge.alpha,
                    dag.node(p).data_bytes,
                    job.granted[p.0],
                    core[p.0] == c,
                    core[p.0] / cpc == c / cpc,
                    job.warm,
                    job.contention,
                );
                finish[p.0] + cost
            })
            .fold(job.release, f64::max)
    }

    fn dispatch(&mut self, j: usize, v: NodeId, c: usize, now: f64) -> f64 {
        let job = &self.jobs[j];
        let task = job.task;
        let exec =
            self.model.exec_time(self.tasks[task].graph().node(v).wcet, job.warm, job.contention);
        // L1.5 way grant from the cluster pool (best effort); a reclaimed
        // way costs the Walloc a revoke *and* a grant — two cycles.
        let (mut grant, mut config_actions) = (0, 0);
        if self.proposed {
            let cl = c / self.params.cores_per_cluster;
            grant = self.plans[task].local_ways[v.0].min(self.free_ways[cl] + self.reclaimable[cl]);
            let from_free = self.take(cl, grant, now);
            config_actions = from_free + 2 * (grant - from_free);
        }
        let config_delay = config_actions as f64 * self.params.way_config_time;
        let job = &mut self.jobs[j];
        job.exec_total += exec; // configuration overlaps execution
        job.misconfig += config_delay.min(exec);
        job.granted[v.0] = grant;
        exec
    }

    fn complete(&mut self, (now, j, v, c): Running, core: &[usize], running: &[Running]) {
        let dag = self.tasks[self.jobs[j].task].graph();
        let sink = dag.out_degree(v) == 0;
        let cpc = self.params.cores_per_cluster;
        if self.proposed {
            // Returned ways stay assigned until re-demanded.
            let job = &mut self.jobs[j];
            for &(_, p) in dag.predecessors(v) {
                job.consumers_left[p.0] -= 1;
                if job.consumers_left[p.0] == 0 {
                    self.reclaimable[core[p.0] / cpc] += job.granted[p.0];
                }
            }
            if sink {
                self.reclaimable[c / cpc] += job.granted[v.0];
            }
            // The SDU keeps serving outstanding demands: freed ways flow to
            // running nodes whose grant fell short of the plan.
            for &(_, rj, rv, rc) in running {
                let rcl = rc / cpc;
                let want = self.plans[self.jobs[rj].task].local_ways[rv.0];
                let short = want.saturating_sub(self.jobs[rj].granted[rv.0]);
                let extra = short.min(self.free_ways[rcl] + self.reclaimable[rcl]);
                if extra > 0 {
                    self.take(rcl, extra, now);
                    self.jobs[rj].granted[rv.0] += extra;
                }
            }
        }
        // Every other node of a job precedes its sink: the job is done.
        if sink && now > self.jobs[j].deadline + 1e-9 {
            self.misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_dag::gen::DagGenParams;
    use l15_dag::taskset::{generate_taskset, TaskSetParams};
    use l15_testkit::rng::SmallRng;

    fn taskset(total_util: f64, seed: u64) -> Vec<DagTask> {
        generate_taskset(
            &TaskSetParams {
                n_tasks: 4,
                total_utilisation: total_util,
                dag: DagGenParams {
                    layers: (3, 5),
                    max_width: 5,
                    period_range: (50.0, 400.0),
                    ..Default::default()
                },
            },
            &mut SmallRng::seed_from_u64(seed),
        )
        .unwrap()
    }

    #[test]
    fn low_utilisation_succeeds() {
        let tasks = taskset(1.0, 1); // 12.5 % of 8 cores
        let mut rng = SmallRng::seed_from_u64(2);
        let out = simulate_taskset(
            &tasks,
            &SystemModel::proposed(),
            &PeriodicParams::default(),
            &mut rng,
        );
        assert_eq!(out.jobs, 4 * 5);
        assert!(out.success(), "misses: {}", out.misses);
    }

    #[test]
    fn overload_misses_deadlines() {
        let tasks = taskset(24.0, 3); // 300 % of 8 cores
        let mut rng = SmallRng::seed_from_u64(4);
        let out = simulate_taskset(
            &tasks,
            &SystemModel::proposed(),
            &PeriodicParams::default(),
            &mut rng,
        );
        assert!(out.misses > 0, "an overloaded system must miss");
    }

    #[test]
    fn phi_is_small_but_positive_for_proposed() {
        let tasks = taskset(4.0, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let out = simulate_taskset(
            &tasks,
            &SystemModel::proposed(),
            &PeriodicParams::default(),
            &mut rng,
        );
        assert!(out.phi_avg > 0.0, "reconfiguration has a cost");
        assert!(out.phi_max < 0.05, "φ stays far below 5 %: {}", out.phi_max);
    }

    #[test]
    fn baselines_report_no_l15_metrics() {
        let tasks = taskset(4.0, 7);
        let mut rng = SmallRng::seed_from_u64(8);
        let out =
            simulate_taskset(&tasks, &SystemModel::cmp_l1(), &PeriodicParams::default(), &mut rng);
        assert_eq!(out.l15_utilisation, 0.0);
        assert_eq!(out.phi_avg, 0.0);
    }

    #[test]
    fn utilisation_is_high_and_bounded_under_load() {
        // With lazy reclamation the assigned fraction converges towards
        // saturation on a busy system (Fig. 8(c): > 95 %).
        let params = PeriodicParams::default();
        let model = SystemModel::proposed();
        let mut rng = SmallRng::seed_from_u64(9);
        let high = simulate_taskset(&taskset(6.4, 10), &model, &params, &mut rng);
        assert!(
            high.l15_utilisation > 0.5,
            "busy system keeps ways assigned: {}",
            high.l15_utilisation
        );
        assert!(high.l15_utilisation <= 1.0 + 1e-9);
    }

    #[test]
    fn success_ratio_declines_with_utilisation() {
        let params = PeriodicParams::default();
        let model = SystemModel::proposed();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seed = 100u64;
        let mut ratio_at = |u: f64, rng: &mut SmallRng| {
            let ok = (0..20)
                .filter(|_| {
                    seed += 1;
                    simulate_taskset(&taskset(u, seed), &model, &params, rng).success()
                })
                .count();
            ok as f64 / 20.0
        };
        let lo = ratio_at(2.0, &mut rng);
        let hi = ratio_at(12.0, &mut rng);
        assert!(lo >= hi, "lo {lo} hi {hi}");
        assert!(lo > 0.5);
    }

    #[test]
    fn degenerate_platforms_and_empty_sets_panic() {
        let tasks = taskset(1.0, 21);
        let model = SystemModel::proposed();
        let run = |tasks: &[DagTask], params: PeriodicParams| {
            let mut rng = SmallRng::seed_from_u64(22);
            let sim = || simulate_taskset(tasks, &model, &params, &mut rng);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(sim)).is_err()
        };
        assert!(run(&tasks, PeriodicParams { cores: 0, ..Default::default() }), "no cores");
        assert!(run(&[], PeriodicParams::default()), "no tasks");
        assert!(
            run(&tasks, PeriodicParams { cores_per_cluster: 0, ..Default::default() }),
            "no cores per cluster"
        );
        assert!(!run(&tasks, PeriodicParams::default()));
    }

    #[test]
    fn proposed_beats_cmp_on_success_ratio() {
        // Identical task sets for both systems (fair comparison).
        let params = PeriodicParams::default();
        let run = |model: &SystemModel| {
            let mut rng = SmallRng::seed_from_u64(13);
            let mut ok = 0;
            for trial in 0..30u64 {
                let tasks = taskset(6.4, 500 + trial); // 80 % of 8 cores
                if simulate_taskset(&tasks, model, &params, &mut rng).success() {
                    ok += 1;
                }
            }
            ok as f64 / 30.0
        };
        let prop = run(&SystemModel::proposed());
        let cmp = run(&SystemModel::cmp_l2());
        assert!(prop >= cmp, "proposed {prop} must not lose to CMP|L2 {cmp}");
    }
}
