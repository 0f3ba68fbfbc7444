//! The persistent online session: one live SoC, a stream of sporadic
//! job arrivals, per-arrival admission control and R6-gated mode
//! changes.
//!
//! The session owns a simulated [`Soc`] that stays up across jobs. Every
//! arrival is decided as `l15_core::federated::federated_partition` over
//! the active set plus the candidate would decide it, at the price of one
//! task: the per-task half (Alg. 1 plan, RTA bounds, light/heavy verdict —
//! [`TaskAnalysis`]) is computed once per job, at its own `submit`, and
//! kept while the job is active; only the placement ([`place`]) is
//! replayed over the whole set, because a heavy arrival or a retirement
//! moves every later index, cluster and `tid`. An admissible candidate
//! yields a fresh [`ClusterPlan`] (the replan), an inadmissible one a
//! typed rejection carrying the [`FederatedError::code`] — never a panic.
//! A committed mode change (a new `ζ`) is the one event that re-analyses
//! the jobs it keeps. Admitted jobs optionally execute on the live SoC
//! with a flight recorder attached, and the observed spans are diffed
//! against the replanned schedule ([`l15_trace::gantt::stats`]).
//!
//! A *mode* names a set of active DAGs plus a Walloc configuration (the
//! way budget `zeta_cap` standing on each cluster between jobs). A mode
//! change runs the quiescence protocol of
//! [`l15_runtime::quiesce_cluster`] at a switch point that the bounded
//! model check of the Walloc FSM (`l15-check` rule R6) has declared
//! admissible, reclaims the standing L1.5 ways, drops the jobs the new
//! mode does not keep and replans the survivors.
//!
//! Everything is deterministic in **virtual cycles**: admission latency
//! is `decision_cycle - arrival_cycle` where evaluation charges a fixed
//! per-candidate cost and execution advances the clock by the simulated
//! makespan. No wall-clock time enters any decision, so a session replay
//! is byte-identical at any `L15_JOBS`.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use l15_check::{check_walloc, FsmBounds};
use l15_core::baseline::SystemModel;
use l15_core::federated::{
    place, ClusterPlan, ClusterTopology, FederatedError, TaskAnalysis, TaskAssignment,
};
use l15_core::gantt::planned_nodes;
use l15_core::makespan::simulate;
use l15_core::plan::SchedulePlan;
use l15_dag::DagTask;
use l15_runtime::kernel::KernelConfig;
use l15_runtime::workgen::WorkScale;
use l15_runtime::{quiesce_cluster, run_task_traced, DEFAULT_CAPTURE_EVENTS};
use l15_rvcore::bus::SystemBus;
use l15_rvcore::isa::L15Op;
use l15_soc::{Soc, SocConfig};
use l15_testkit::rng::{fnv1a, FNV1A_OFFSET};
use l15_trace::gantt::{self, DiffStats};
use l15_trace::span::Spans;

/// [`fnv1a`] over whatever is formatted into it, so a rendering is hashed
/// as it is produced instead of being materialised first.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, text.as_bytes());
        Ok(())
    }
}

/// FNV-1a over the `Display` rendering of `value`.
fn digest_of(value: impl fmt::Display) -> u64 {
    let mut h = Fnv1a(FNV1A_OFFSET);
    write!(h, "{value}").expect("hashing cannot fail");
    h.0
}

/// FNV-1a over `text` — the session's plan digest.
pub fn digest64(text: &str) -> u64 {
    fnv1a(FNV1A_OFFSET, text.as_bytes())
}

/// Digest of a [`ClusterPlan`]: [`digest64`] of its `Debug` rendering —
/// stable across runs and worker counts (the plan is a pure function of
/// its inputs and `Debug` renders floats shortest-roundtrip).
pub fn plan_digest(plan: &ClusterPlan) -> u64 {
    digest_of(format_args!("{plan:?}"))
}

/// Static configuration of an online session.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The cluster shape admission partitions over. Must match `soc`.
    pub topology: ClusterTopology,
    /// The simulated platform the session keeps alive.
    pub soc: SocConfig,
    /// Virtual cycles the admission test charges per candidate task —
    /// the modelled cost of evaluating one task of the candidate set.
    pub eval_cost_per_task: u64,
    /// Whether admitted jobs execute on the live SoC (with tracing) or
    /// the session runs admission-only (the bench sweeps).
    pub execute: bool,
    /// Flight-recorder capacity for executed jobs.
    pub capture_events: usize,
    /// Work scale for executed node programs.
    pub compute_iters: u32,
    /// Cycle budget for one executed job.
    pub max_cycles: u64,
    /// Virtual cycles an admitted job stays active before it retires and
    /// stops occupying capacity.
    pub job_lifetime: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            topology: ClusterTopology::default(),
            soc: SocConfig::proposed_8core(),
            eval_cost_per_task: 2_000,
            execute: true,
            capture_events: DEFAULT_CAPTURE_EVENTS,
            compute_iters: 8,
            max_cycles: 5_000_000,
            job_lifetime: 2_000_000,
        }
    }
}

/// The session's current mode: a name plus the Walloc configuration (way
/// budget) standing on each cluster between jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mode {
    /// Mode name (free-form, part of the admission log).
    pub name: String,
    /// Way budget per cluster: caps both the standing allocation and the
    /// per-node ways of executed plans, and sets the `ζ` the admission
    /// model plans with.
    pub zeta_cap: usize,
}

/// The admission verdict for one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The candidate fits: home cluster and makespan bound of the fresh
    /// plan's assignment.
    Admitted {
        /// Home cluster of the new job.
        cluster: usize,
        /// Its RTA makespan bound.
        bound: f64,
    },
    /// The candidate does not fit; the active set and plan are unchanged.
    Rejected {
        /// Stable machine-readable reason ([`FederatedError::code`]).
        code: &'static str,
        /// Human-readable diagnostic.
        reason: String,
    },
}

impl Decision {
    /// Whether this is an admission.
    pub fn admitted(&self) -> bool {
        matches!(self, Decision::Admitted { .. })
    }
}

/// One submitted job, from arrival to (possible) execution.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (submission order).
    pub id: usize,
    /// Virtual cycle the job arrived.
    pub arrival_cycle: u64,
    /// Virtual cycle the admission decision was made.
    pub decision_cycle: u64,
    /// Virtual cycles the admission evaluation itself cost.
    pub eval_cycles: u64,
    /// The admission verdict.
    pub decision: Decision,
    /// The submitted task.
    pub task: DagTask,
    /// Plan-vs-observed Gantt summary of the executed run, when the job
    /// was admitted and the session executes.
    pub gantt: Option<DiffStats>,
    /// Kernel error of the executed run, if any.
    pub exec_error: Option<String>,
    /// Digest of the [`ClusterPlan`] this admission produced (0 for a
    /// rejection).
    pub plan_digest: u64,
    /// Virtual cycle the job retires (admitted jobs only).
    pub retire_cycle: Option<u64>,
    /// Whether the job has retired (or was dropped by a mode change).
    pub retired: bool,
}

impl JobRecord {
    /// Admission latency in virtual cycles (decision minus arrival).
    pub fn admission_latency(&self) -> u64 {
        self.decision_cycle.saturating_sub(self.arrival_cycle)
    }
}

/// Per-session counters (the `/metrics` mirror).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Fresh [`ClusterPlan`]s produced (admissions + mode-change
    /// replans).
    pub replans: u64,
    /// Mode changes completed.
    pub mode_changes: u64,
    /// L1.5 ways reclaimed by mode-change quiescence.
    pub reclaimed_ways: u64,
    /// Jobs retired (lifetime elapsed or dropped at a mode change).
    pub retired: u64,
    /// Jobs executed on the live SoC.
    pub executed: u64,
    /// Per-task admission analyses run ([`TaskAnalysis::new`]): one per
    /// arrival, admitted or not, plus one per survivor of a mode change.
    pub analysed: u64,
}

/// Why a mode change was refused. The session state is unchanged except
/// where noted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModeError {
    /// A kept job id is not currently active.
    UnknownJob(usize),
    /// The bounded model check of the Walloc FSM (rule R6) found the
    /// target configuration unsafe — the switch point is inadmissible.
    WallocUnsafe {
        /// Findings the check reported.
        findings: usize,
    },
    /// The survivors do not fit the topology under the new mode.
    Replan(FederatedError),
    /// Quiescence left a cluster unbalanced (R2) or with a stale GV copy
    /// readable (R3). The SoC has been drained but mode and active set
    /// are unchanged.
    QuiesceIncomplete {
        /// The offending cluster.
        cluster: usize,
    },
}

impl ModeError {
    /// Stable short reason code (the `/submit?mode=` rejection body).
    pub fn code(&self) -> &'static str {
        match self {
            ModeError::UnknownJob(_) => "unknown-job",
            ModeError::WallocUnsafe { .. } => "walloc-unsafe",
            ModeError::Replan(e) => e.code(),
            ModeError::QuiesceIncomplete { .. } => "quiesce-incomplete",
        }
    }
}

impl fmt::Display for ModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeError::UnknownJob(id) => write!(f, "job {id} is not active"),
            ModeError::WallocUnsafe { findings } => {
                write!(f, "R6 model check refused the switch point: {findings} finding(s)")
            }
            ModeError::Replan(e) => write!(f, "survivors do not fit the new mode: {e}"),
            ModeError::QuiesceIncomplete { cluster } => {
                write!(f, "cluster {cluster} failed to quiesce (R2/R3 post-condition)")
            }
        }
    }
}

impl std::error::Error for ModeError {}

/// Outcome of a completed mode change.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeChangeReport {
    /// The new mode's name.
    pub mode: String,
    /// L1.5 ways the quiescence protocol reclaimed across clusters.
    pub reclaimed_ways: usize,
    /// Virtual cycles spent settling the Walloc FSMs.
    pub settle_cycles: u64,
    /// Active jobs surviving into the new mode.
    pub survivors: usize,
    /// Active jobs dropped by the switch.
    pub dropped: usize,
    /// Digest of the survivors' replan (0 when no job survived).
    pub plan_digest: u64,
}

/// A persistent online scheduling session on a live SoC.
pub struct OnlineSession {
    cfg: OnlineConfig,
    model: SystemModel,
    soc: Soc,
    virtual_now: u64,
    mode: Mode,
    jobs: Vec<JobRecord>,
    active: Vec<usize>,
    /// The admission memo, by job id: `Some` exactly for the active jobs,
    /// each analysed once — at its own `submit` — under the model then in
    /// force. Only a committed mode change (a new `ζ`) replaces entries.
    analyses: Vec<Option<TaskAnalysis>>,
    plan: Option<ClusterPlan>,
    metrics: SessionMetrics,
    log: Vec<String>,
}

impl OnlineSession {
    /// Boots a session: brings the SoC up in mode `boot` with the full
    /// L1.5 way budget standing on each cluster.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.topology` disagrees with `cfg.soc` on the
    /// cluster shape.
    pub fn new(cfg: OnlineConfig) -> Self {
        assert_eq!(cfg.topology.clusters, cfg.soc.clusters, "topology/soc cluster mismatch");
        assert_eq!(
            cfg.topology.cores_per_cluster, cfg.soc.cores_per_cluster,
            "topology/soc cores-per-cluster mismatch"
        );
        let zeta_cap = cfg.soc.l15.map(|c| c.ways).unwrap_or(16);
        let mut model = SystemModel::proposed();
        model.zeta = zeta_cap.max(1);
        let soc = Soc::new(cfg.soc.clone(), 0);
        let mut s = OnlineSession {
            cfg,
            model,
            soc,
            virtual_now: 0,
            mode: Mode { name: String::from("boot"), zeta_cap },
            jobs: Vec::new(),
            active: Vec::new(),
            analyses: Vec::new(),
            plan: None,
            metrics: SessionMetrics::default(),
            log: Vec::new(),
        };
        for c in 0..s.cfg.topology.clusters {
            s.arm_mode_walloc(c);
        }
        s
    }

    /// The session's virtual clock, in cycles.
    pub fn virtual_now(&self) -> u64 {
        self.virtual_now
    }

    /// The current mode.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// All submitted jobs, in submission order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// One job by id.
    pub fn job(&self, id: usize) -> Option<&JobRecord> {
        self.jobs.get(id)
    }

    /// Ids of the currently active (admitted, unretired) jobs.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// The current cluster plan (None before the first admission or
    /// after a switch that kept no job).
    pub fn plan(&self) -> Option<&ClusterPlan> {
        self.plan.as_ref()
    }

    /// Session counters.
    pub fn metrics(&self) -> SessionMetrics {
        self.metrics
    }

    /// The deterministic admission log, one line per event.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Settle budget for one Walloc reconfiguration episode, in cycles.
    fn settle_budget(&self) -> u32 {
        let ways = self.cfg.soc.l15.map(|c| c.ways).unwrap_or(0);
        (ways * 4 + 64) as u32
    }

    /// Installs the mode's standing Walloc configuration on `cluster`:
    /// `zeta_cap` ways spread round-robin over the lanes.
    fn arm_mode_walloc(&mut self, cluster: usize) {
        let Some(l15) = self.cfg.soc.l15 else { return };
        let cpc = self.cfg.topology.cores_per_cluster;
        let ways = self.mode.zeta_cap.min(l15.ways);
        let (base, extra) = (ways / cpc, ways % cpc);
        for lane in 0..cpc {
            let want = base + usize::from(lane < extra);
            self.soc.uncore_mut().l15_ctrl(cluster * cpc + lane, L15Op::Demand, want as u32);
        }
        let settle = self.settle_budget();
        self.soc.uncore_mut().advance(settle);
        self.virtual_now += u64::from(settle);
    }

    /// Drops the standing configuration on `cluster` so a dispatched job
    /// takes the whole L1.5 (the kernel re-demands per node).
    fn disarm_mode_walloc(&mut self, cluster: usize) {
        if self.cfg.soc.l15.is_none() {
            return;
        }
        let cpc = self.cfg.topology.cores_per_cluster;
        for lane in 0..cpc {
            self.soc.uncore_mut().l15_ctrl(cluster * cpc + lane, L15Op::Demand, 0);
        }
        let settle = self.settle_budget();
        self.soc.uncore_mut().advance(settle);
        self.virtual_now += u64::from(settle);
    }

    /// Retires active jobs whose lifetime elapsed by `now`.
    fn retire_expired(&mut self) {
        let now = self.virtual_now;
        let jobs = &mut self.jobs;
        let analyses = &mut self.analyses;
        let log = &mut self.log;
        let retired = &mut self.metrics.retired;
        self.active.retain(|&id| {
            let job = &mut jobs[id];
            match job.retire_cycle {
                Some(at) if at <= now => {
                    job.retired = true;
                    analyses[id] = None;
                    *retired += 1;
                    log.push(format!("job {id} retire at={now}"));
                    false
                }
                _ => true,
            }
        });
    }

    /// Clamps a per-cluster plan's way allocation to the mode budget.
    fn clamp_to_mode(&self, plan: &SchedulePlan) -> SchedulePlan {
        let mut p = plan.clone();
        for w in &mut p.local_ways {
            *w = (*w).min(self.mode.zeta_cap);
        }
        p
    }

    /// Submits one sporadic arrival. Returns the job id; the decision is
    /// on [`Self::job`]. Admission analyses the candidate alone (Alg. 1 +
    /// RTA, [`TaskAnalysis::new`]) and places it behind the memoised
    /// analyses of the active set ([`place`]) — verdict and plan are those
    /// of `federated_partition` over the active tasks plus the candidate.
    /// An infeasible candidate is rejected with a typed reason and leaves
    /// plan and active set untouched.
    pub fn submit(&mut self, task: DagTask, arrival_cycle: u64) -> usize {
        let id = self.jobs.len();
        self.virtual_now = self.virtual_now.max(arrival_cycle);
        self.retire_expired();

        let candidates = self.active.len() + 1;
        let eval_cycles = self.cfg.eval_cost_per_task * candidates as u64;
        self.virtual_now += eval_cycles;
        let decision_cycle = self.virtual_now;
        self.metrics.submitted += 1;

        let mut record = JobRecord {
            id,
            arrival_cycle,
            decision_cycle,
            eval_cycles,
            decision: Decision::Rejected { code: "unreached", reason: String::new() },
            task,
            gantt: None,
            exec_error: None,
            plan_digest: 0,
            retire_cycle: None,
            retired: false,
        };

        let analysis = TaskAnalysis::new(&record.task, self.cfg.topology, &self.model);
        self.metrics.analysed += 1;
        let memo = |&j: &usize| self.analyses[j].as_ref().expect("active jobs are memoised");
        let set = self.active.iter().map(memo).chain([&analysis]).map(Cow::Borrowed);
        match place(set, self.cfg.topology) {
            Ok(plan) => {
                let a = plan.assignments.last().expect("candidate set is non-empty");
                let cluster = a.clusters[0];
                let bound = a.bound;
                let digest = plan_digest(&plan);
                record.decision = Decision::Admitted { cluster, bound };
                record.plan_digest = digest;
                record.retire_cycle = Some(decision_cycle.saturating_add(self.cfg.job_lifetime));
                self.metrics.admitted += 1;
                self.metrics.replans += 1;
                self.log.push(format!(
                    "job {id} arrive={arrival_cycle} decide={decision_cycle} admit \
                     cluster={cluster} bound={bound:.3} candidates={candidates} \
                     plan={digest:016x}",
                ));
                if self.cfg.execute {
                    (record.gantt, record.exec_error) = self.execute_job(id, &record.task, a);
                }
                self.active.push(id);
                self.plan = Some(plan);
            }
            Err(e) => {
                record.decision = Decision::Rejected { code: e.code(), reason: e.to_string() };
                self.metrics.rejected += 1;
                self.log.push(format!(
                    "job {id} arrive={arrival_cycle} decide={decision_cycle} reject \
                     code={} candidates={candidates}",
                    e.code(),
                ));
            }
        }
        self.analyses.push(record.decision.admitted().then_some(analysis));
        self.jobs.push(record);
        id
    }

    /// Runs one admitted job on its home cluster with a recorder
    /// attached, diffing the observed spans against the replanned
    /// schedule. Advances the virtual clock by the run's makespan.
    fn execute_job(
        &mut self,
        id: usize,
        task: &DagTask,
        assignment: &TaskAssignment,
    ) -> (Option<DiffStats>, Option<String>) {
        let cluster = assignment.clusters[0];
        let cpc = self.cfg.topology.cores_per_cluster;
        let plan = self.clamp_to_mode(&assignment.plan);
        let kcfg = KernelConfig {
            cluster,
            use_l15: self.cfg.soc.l15.is_some(),
            scale: WorkScale { compute_iters: self.cfg.compute_iters },
            max_cycles: self.cfg.max_cycles,
        };
        self.disarm_mode_walloc(cluster);
        let run = run_task_traced(&mut self.soc, task, &plan, &kcfg, self.cfg.capture_events);
        let out = match run {
            Ok((report, rec)) => {
                self.virtual_now += report.makespan_cycles;
                self.metrics.executed += 1;
                let dag = task.graph();
                let result = simulate(
                    task,
                    cpc,
                    &plan.priorities,
                    |v| dag.node(v).wcet,
                    |e, _| self.model.etm.edge_cost_in(dag, e, plan.local_ways[dag.edge(e).from.0]),
                );
                let scale = if result.makespan > 0.0 {
                    report.makespan_cycles as f64 / result.makespan
                } else {
                    1.0
                };
                let mut planned = planned_nodes(task, &result, scale.max(f64::MIN_POSITIVE));
                // The kernel dispatches on the home cluster's physical
                // lanes; rebase the abstract plan onto them so the diff
                // compares like with like.
                for p in &mut planned {
                    p.core += (cluster * cpc) as u32;
                }
                let spans = Spans::from_events(&rec.to_vec());
                let stats = gantt::stats(&planned, &spans);
                self.log.push(format!(
                    "job {id} run makespan={} tracks={} overruns={}",
                    report.makespan_cycles,
                    stats.tracks_plan(),
                    stats.overruns,
                ));
                (Some(stats), None)
            }
            Err(e) => {
                self.log.push(format!("job {id} run error: {e}"));
                (None, Some(e.to_string()))
            }
        };
        self.arm_mode_walloc(cluster);
        out
    }

    /// Switches to mode `name`: gates the switch point on the R6 bounded
    /// model check of the target Walloc configuration, replans the kept
    /// jobs, quiesces every cluster (verifying the R2/R3
    /// post-conditions), reclaims the standing ways and installs the new
    /// mode's configuration.
    ///
    /// # Errors
    ///
    /// A typed [`ModeError`]; the active set and mode are unchanged on
    /// every error.
    pub fn switch_mode(
        &mut self,
        name: &str,
        keep: &[usize],
        zeta_cap: usize,
    ) -> Result<ModeChangeReport, ModeError> {
        let refuse = |log: &mut Vec<String>, e: ModeError| {
            log.push(format!("mode {name} refused code={}", e.code()));
            Err(e)
        };
        for &id in keep {
            if !self.active.contains(&id) {
                return refuse(&mut self.log, ModeError::UnknownJob(id));
            }
        }

        // R6 gate: bounded model check of the Walloc FSM at the target
        // configuration (bounds clamped to keep the state space exact
        // but exhaustive).
        let cpc = self.cfg.topology.cores_per_cluster;
        let bounds = FsmBounds { max_cores: cpc.min(3), max_ways: zeta_cap.clamp(1, 4) };
        let findings = check_walloc(&bounds);
        if !findings.is_empty() {
            return refuse(&mut self.log, ModeError::WallocUnsafe { findings: findings.len() });
        }

        // Replan the survivors against the new mode's way budget before
        // touching the machine, so a refusal leaves the session intact.
        let survivors: Vec<usize> =
            self.active.iter().copied().filter(|id| keep.contains(id)).collect();
        let mut model = self.model.clone();
        model.zeta = zeta_cap.max(1);
        // The analyses depend on `ζ`, so the survivors are analysed afresh
        // — into a temporary that joins the memo only at commit.
        let topo = self.cfg.topology;
        let fresh: Vec<TaskAnalysis> = survivors
            .iter()
            .map(|&j| TaskAnalysis::new(&self.jobs[j].task, topo, &model))
            .collect();
        self.metrics.analysed += fresh.len() as u64;
        let plan = if survivors.is_empty() {
            None
        } else {
            self.virtual_now += self.cfg.eval_cost_per_task * survivors.len() as u64;
            match place(fresh.iter().map(Cow::Borrowed), topo) {
                Ok(p) => Some(p),
                Err(e) => return refuse(&mut self.log, ModeError::Replan(e)),
            }
        };

        // Quiesce every cluster at the admissible switch point and verify
        // the R2/R3 post-conditions before any way changes hands.
        let mut reclaimed = 0usize;
        let mut settle = 0u64;
        for c in 0..self.cfg.topology.clusters {
            let rep = quiesce_cluster(self.soc.uncore_mut(), c);
            self.virtual_now += u64::from(rep.settle_cycles);
            settle += u64::from(rep.settle_cycles);
            reclaimed += rep.reclaimed_ways;
            if !rep.clean() {
                return refuse(&mut self.log, ModeError::QuiesceIncomplete { cluster: c });
            }
        }

        // Commit: drop the non-kept jobs, install mode + plan, re-arm.
        let dropped = self.active.len() - survivors.len();
        for &id in &self.active {
            if !survivors.contains(&id) {
                self.jobs[id].retired = true;
                self.analyses[id] = None;
                self.metrics.retired += 1;
                self.log.push(format!("job {id} drop at={}", self.virtual_now));
            }
        }
        for (&id, analysis) in survivors.iter().zip(fresh) {
            self.analyses[id] = Some(analysis);
        }
        self.active = survivors;
        self.model = model;
        self.mode = Mode { name: name.to_owned(), zeta_cap };
        let digest = plan.as_ref().map(plan_digest).unwrap_or(0);
        if plan.is_some() {
            self.metrics.replans += 1;
        }
        self.plan = plan;
        self.metrics.mode_changes += 1;
        self.metrics.reclaimed_ways += reclaimed as u64;
        for c in 0..self.cfg.topology.clusters {
            self.arm_mode_walloc(c);
        }
        self.log.push(format!(
            "mode {name} zeta={zeta_cap} survivors={} dropped={dropped} reclaimed={reclaimed} \
             plan={digest:016x}",
            self.active.len(),
        ));
        Ok(ModeChangeReport {
            mode: name.to_owned(),
            reclaimed_ways: reclaimed,
            settle_cycles: settle,
            survivors: self.active.len(),
            dropped,
            plan_digest: digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_dag::{DagBuilder, Node};

    fn light_task(work: f64, period: f64) -> DagTask {
        let mut b = DagBuilder::new();
        let p = b.add_node(Node::new(work / 2.0, 2048));
        let c = b.add_node(Node::new(work / 2.0, 0));
        b.add_edge(p, c, 0.2, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), period, period).unwrap()
    }

    fn heavy_task() -> DagTask {
        let mut b = DagBuilder::new();
        let s = b.add_node(Node::new(0.1, 2048));
        let t = b.add_node(Node::new(0.1, 0));
        for _ in 0..6 {
            let v = b.add_node(Node::new(5.0, 2048));
            b.add_edge(s, v, 0.2, 0.5).unwrap();
            b.add_edge(v, t, 0.2, 0.5).unwrap();
        }
        DagTask::new(b.build().unwrap(), 9.0, 9.0).unwrap()
    }

    fn analytic() -> OnlineConfig {
        OnlineConfig { execute: false, ..OnlineConfig::default() }
    }

    #[test]
    fn admission_is_incremental_and_typed() {
        let mut s = OnlineSession::new(analytic());
        let a = s.submit(light_task(1.0, 10.0), 1_000);
        assert!(s.job(a).unwrap().decision.admitted());
        // A heavy task that needs both clusters is refused while a light
        // job occupies one — the active set stays intact.
        let b = s.submit(heavy_task(), 2_000);
        let rec = s.job(b).unwrap().clone();
        match rec.decision {
            Decision::Rejected { code, ref reason } => {
                assert!(!reason.is_empty());
                assert!(!code.is_empty());
            }
            ref d => panic!("expected rejection, got {d:?}"),
        }
        assert_eq!(s.active(), &[a]);
        assert_eq!(s.metrics().admitted, 1);
        assert_eq!(s.metrics().rejected, 1);
        assert_eq!(s.metrics().replans, 1);
        // Rejection leaves the plan at the last admitted state.
        assert_eq!(s.plan().unwrap().assignments.len(), 1);
    }

    #[test]
    fn admission_latency_charges_eval_cost_per_candidate() {
        let mut s = OnlineSession::new(analytic());
        let boot = s.virtual_now();
        let a = s.submit(light_task(1.0, 10.0), boot + 500);
        let ja = s.job(a).unwrap();
        assert_eq!(ja.eval_cycles, 2_000);
        assert_eq!(ja.admission_latency(), 2_000);
        let b = s.submit(light_task(1.0, 12.0), s.virtual_now() + 100);
        assert_eq!(s.job(b).unwrap().eval_cycles, 4_000, "two candidates now");
    }

    #[test]
    fn late_arrival_queues_behind_the_virtual_clock() {
        let mut s = OnlineSession::new(analytic());
        let now = s.virtual_now();
        // Arrives "in the past": decision still happens at now + eval.
        let a = s.submit(light_task(1.0, 10.0), now.saturating_sub(1));
        let ja = s.job(a).unwrap();
        assert!(ja.admission_latency() > ja.eval_cycles, "queueing delay shows up");
    }

    #[test]
    fn jobs_retire_after_their_lifetime() {
        let cfg = OnlineConfig { job_lifetime: 10_000, ..analytic() };
        let mut s = OnlineSession::new(cfg);
        let a = s.submit(light_task(1.0, 10.0), 0);
        assert_eq!(s.active(), &[a]);
        let b = s.submit(light_task(1.0, 10.0), s.virtual_now() + 20_000);
        assert!(s.job(a).unwrap().retired, "lifetime elapsed before the second arrival");
        assert_eq!(s.active(), &[b]);
        assert_eq!(s.metrics().retired, 1);
    }

    #[test]
    fn a_job_with_the_longest_lifetime_never_retires() {
        // `decision + lifetime` saturates: unchecked it wrapped into the
        // past and the job retired at the very next arrival.
        let cfg = OnlineConfig { job_lifetime: u64::MAX, ..analytic() };
        let mut s = OnlineSession::new(cfg);
        let a = s.submit(light_task(1.0, 10.0), 1_000);
        assert_eq!(s.job(a).unwrap().retire_cycle, Some(u64::MAX));
        let b = s.submit(light_task(1.0, 10.0), 2_000_000_000);
        let c = s.submit(light_task(1.0, 10.0), u64::MAX / 2);
        assert_eq!(s.active(), &[a, b, c]);
        assert_eq!(s.metrics().retired, 0);
    }

    #[test]
    fn the_steady_state_analyses_one_task_per_arrival() {
        let cfg = OnlineConfig {
            topology: ClusterTopology { clusters: 8, cores_per_cluster: 4 },
            soc: SocConfig::proposed_32core(),
            job_lifetime: u64::MAX,
            ..analytic()
        };
        let mut s = OnlineSession::new(cfg);
        for i in 0..200u64 {
            // Every 50th arrival is refused (its critical path exceeds its
            // deadline): rejected candidates are analysed too.
            let task = if i % 50 == 49 { light_task(20.0, 5.0) } else { light_task(1.0, 100.0) };
            s.submit(task, i * 1_000);
        }
        let m = s.metrics();
        assert_eq!((m.submitted, m.admitted, m.rejected), (200, 196, 4));
        assert_eq!(m.analysed, m.submitted, "residents are never re-analysed by an arrival");
        assert_eq!(m.replans, m.admitted);

        // A new ζ invalidates the memo: the 16 survivors, and only they,
        // are analysed again.
        let keep = s.active()[s.active().len() - 16..].to_vec();
        s.switch_mode("half", &keep, 8).unwrap();
        let m = s.metrics();
        assert_eq!(m.analysed, m.submitted + 16);
        assert_eq!(m.replans, m.admitted + 1);
    }

    #[test]
    fn sessions_replay_byte_identically() {
        let run = || {
            let mut s = OnlineSession::new(analytic());
            s.submit(light_task(1.0, 10.0), 1_000);
            s.submit(heavy_task(), 2_000);
            s.submit(light_task(2.0, 20.0), 3_000);
            s.switch_mode("quiet", &[0], 4).unwrap();
            s.submit(light_task(1.0, 8.0), s.virtual_now() + 1);
            s.log().join("\n")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mode_change_reclaims_standing_ways_and_replans_survivors() {
        let mut s = OnlineSession::new(analytic());
        let a = s.submit(light_task(1.0, 10.0), 0);
        let b = s.submit(light_task(2.0, 20.0), 1);
        assert_eq!(s.active(), &[a, b]);
        let report = s.switch_mode("low-power", &[b], 4).unwrap();
        // The boot mode armed the full 16-way budget across clusters.
        assert_eq!(report.reclaimed_ways, 32, "16 standing ways per cluster");
        assert_eq!(report.survivors, 1);
        assert_eq!(report.dropped, 1);
        assert!(report.plan_digest != 0);
        assert_eq!(s.active(), &[b]);
        assert!(s.jobs()[a].retired);
        assert_eq!(s.mode().name, "low-power");
        assert_eq!(s.mode().zeta_cap, 4);
        let m = s.metrics();
        assert_eq!(m.mode_changes, 1);
        assert_eq!(m.reclaimed_ways, 32);
        assert_eq!(m.replans, 3, "two admissions + one survivor replan");
        // The survivor's replan is a single-task plan.
        assert_eq!(s.plan().unwrap().assignments.len(), 1);
    }

    #[test]
    fn mode_change_errors_are_typed_and_leave_state_intact() {
        let mut s = OnlineSession::new(analytic());
        let a = s.submit(light_task(1.0, 10.0), 0);
        let err = s.switch_mode("bogus", &[a, 99], 4).unwrap_err();
        assert_eq!(err, ModeError::UnknownJob(99));
        assert_eq!(err.code(), "unknown-job");
        assert_eq!(s.mode().name, "boot");
        assert_eq!(s.active(), &[a]);
        assert_eq!(s.metrics().mode_changes, 0);
        // A survivor set that cannot fit the new mode is a Replan error.
        let fat = {
            let mut bld = DagBuilder::new();
            let p = bld.add_node(Node::new(30.0, 2048));
            let c = bld.add_node(Node::new(1.0, 0));
            bld.add_edge(p, c, 0.2, 0.5).unwrap();
            DagTask::new(bld.build().unwrap(), 40.0, 40.0).unwrap()
        };
        let b = s.submit(fat, 10);
        if s.job(b).unwrap().decision.admitted() {
            // Shrinking zeta can push the survivor over its deadline; if
            // it does the error is typed and nothing changed.
            if let Err(e) = s.switch_mode("tiny", &[b], 1) {
                assert!(matches!(e, ModeError::Replan(_)), "{e:?}");
                assert_eq!(s.mode().name, "boot");
            }
        }
    }

    #[test]
    fn empty_keep_set_clears_the_platform() {
        let mut s = OnlineSession::new(analytic());
        // Fill both shared clusters: utilisation 0.8 per job against the
        // first-fit cap of (4 + 1) / 2 = 2.5 per cluster — three jobs fit
        // each cluster, the seventh fits nowhere.
        let mut last = 0;
        for i in 0..7u64 {
            last = s.submit(light_task(8.0, 10.0), i * 10);
        }
        let rejected = s.job(last).unwrap();
        assert!(!rejected.decision.admitted(), "7th job must not fit: {:?}", rejected.decision);
        let report = s.switch_mode("drain", &[], 8).unwrap();
        assert_eq!(report.survivors, 0);
        assert_eq!(report.plan_digest, 0);
        assert!(s.plan().is_none());
        assert!(s.active().is_empty());
        // The platform is free again: the same job shape now fits.
        let h = s.submit(light_task(8.0, 10.0), s.virtual_now());
        assert!(s.job(h).unwrap().decision.admitted(), "{:?}", s.job(h).unwrap().decision);
    }

    #[test]
    fn executed_jobs_track_their_replanned_schedule() {
        let cfg = OnlineConfig::default();
        let mut s = OnlineSession::new(cfg);
        let a = s.submit(light_task(2.0, 50.0), 0);
        let rec = s.job(a).unwrap();
        assert!(rec.decision.admitted(), "{:?}", rec.decision);
        assert_eq!(rec.exec_error, None);
        let stats = rec.gantt.expect("executed job carries a Gantt diff");
        assert_eq!(stats.unobserved, 0, "{stats:?}");
        assert_eq!(stats.truncated, 0, "{stats:?}");
        assert!(stats.observed_makespan > 0);
        assert_eq!(s.metrics().executed, 1);
    }
}
