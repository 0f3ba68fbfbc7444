//! Multi-application co-residency: several DAG applications share one SoC,
//! each pinned to the cluster(s) a federated [`ClusterPlan`] assigned it
//! and registered with its own **TID** — so the R4 protection rule (a
//! demand never steals a way whose owner registered a different TID) is
//! exercised across cluster boundaries exactly as a mixed-criticality
//! deployment would.
//!
//! The runner executes the applications in input order (the federated
//! tier's determinism contract), switching every core of an application's
//! home cluster to its TID before dispatching a single node. A heavy
//! application that the federated tier spread over several clusters
//! executes on its *home* (first assigned) cluster here: the kernel
//! dispatches within one cluster, and the extra clusters model analytic
//! slack, not a second dispatch domain.
//!
//! Per-cluster cache statistics ([`ClusterStats`]) come back with the
//! report, so a co-residency run shows which cluster's L1.5 served which
//! application — the observability the multi-cluster parity test pins.

use l15_core::federated::ClusterPlan;
use l15_dag::DagTask;
use l15_soc::uncore::ClusterStats;
use l15_soc::Soc;

use crate::kernel::{run_task, KernelConfig, KernelError, RunReport};

/// One application's outcome in a co-residency run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// Input index of the application.
    pub task: usize,
    /// Home cluster it executed on.
    pub cluster: usize,
    /// TID its cores were registered with (R4 protection domain).
    pub tid: u32,
    /// The kernel's per-run measurements.
    pub report: RunReport,
}

/// Aggregate outcome of [`run_cluster_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoResidencyReport {
    /// Per-application outcomes, in input order.
    pub apps: Vec<AppOutcome>,
    /// Per-cluster cache statistics accumulated over the whole run.
    pub clusters: Vec<ClusterStats>,
}

impl CoResidencyReport {
    /// Whether every application's end-to-end data flow checked out.
    pub fn dataflow_ok(&self) -> bool {
        self.apps.iter().all(|a| a.report.dataflow_ok)
    }
}

/// Runs `tasks` co-resident on `soc` under the federated `plan`.
///
/// Each application is pinned to its assigned home cluster, every core of
/// that cluster is registered with the application's TID, and the
/// application's inner Alg. 1 plan drives the dispatch — so distinct
/// applications on distinct clusters hold L1.5 ways under distinct TIDs
/// concurrently (the data of an earlier application stays resident, and
/// R4 keeps later demands from stealing protected ways).
///
/// # Errors
///
/// [`KernelError::PlanMismatch`] when `plan` does not cover `tasks`
/// one-to-one, [`KernelError::NoSuchCluster`] when an assignment points
/// off the SoC, and any [`KernelError`] a job execution raises.
pub fn run_cluster_plan(
    soc: &mut Soc,
    tasks: &[DagTask],
    plan: &ClusterPlan,
    cfg: &KernelConfig,
) -> Result<CoResidencyReport, KernelError> {
    if plan.assignments.len() != tasks.len() {
        return Err(KernelError::PlanMismatch {
            tasks: tasks.len(),
            assignments: plan.assignments.len(),
        });
    }
    let clusters = soc.uncore().config().clusters;
    let cpc = soc.uncore().config().cores_per_cluster;
    let mut apps = Vec::with_capacity(tasks.len());
    for a in &plan.assignments {
        let home = *a.clusters.first().ok_or(KernelError::PlanMismatch {
            tasks: tasks.len(),
            assignments: plan.assignments.len(),
        })?;
        if home >= clusters {
            return Err(KernelError::NoSuchCluster(home));
        }
        for lane in 0..cpc {
            let core = home * cpc + lane;
            soc.uncore_mut().set_tid(core, a.tid).map_err(|_| KernelError::NoSuchCluster(home))?;
        }
        let kcfg = KernelConfig { cluster: home, ..*cfg };
        let report = run_task(soc, &tasks[a.task], &a.plan, &kcfg)?;
        apps.push(AppOutcome { task: a.task, cluster: home, tid: a.tid, report });
    }
    Ok(CoResidencyReport { apps, clusters: soc.uncore().per_cluster_stats() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::baseline::SystemModel;
    use l15_core::federated::{federated_partition, ClusterTopology};
    use l15_dag::{DagBuilder, Node};
    use l15_soc::SocConfig;

    fn app(wcet: f64, period: f64) -> DagTask {
        let mut b = DagBuilder::new();
        let s = b.add_node(Node::new(wcet, 2048));
        let x = b.add_node(Node::new(wcet, 2048));
        let t = b.add_node(Node::new(wcet, 0));
        b.add_edge(s, x, 1.0, 0.5).unwrap();
        b.add_edge(x, t, 1.0, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), period, period).unwrap()
    }

    fn two_app_plan(tasks: &[DagTask]) -> ClusterPlan {
        federated_partition(
            tasks,
            ClusterTopology { clusters: 2, cores_per_cluster: 4 },
            &SystemModel::proposed(),
        )
        .unwrap()
    }

    #[test]
    fn two_applications_run_on_their_assigned_clusters_with_distinct_tids() {
        let tasks = vec![app(1.0, 1e5), app(1.0, 1e5)];
        let plan = two_app_plan(&tasks);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let out = run_cluster_plan(&mut soc, &tasks, &plan, &KernelConfig::default()).unwrap();

        assert_eq!(out.apps.len(), 2);
        assert!(out.dataflow_ok());
        assert_ne!(out.apps[0].tid, out.apps[1].tid, "distinct R4 protection domains");
        assert!(out.apps.iter().all(|a| a.tid > 0));
        for (app, assign) in out.apps.iter().zip(&plan.assignments) {
            assert_eq!(app.cluster, assign.clusters[0], "pinned to the assigned cluster");
        }
        // Per-cluster stats attribute each application's L1.5 traffic to
        // its own cluster when the two landed on different clusters.
        assert_eq!(out.clusters.len(), 2);
        if out.apps[0].cluster != out.apps[1].cluster {
            for app in &out.apps {
                let s = &out.clusters[app.cluster];
                assert!(s.l15.accesses() > 0, "cluster {} saw no L1.5 traffic", app.cluster);
            }
        }
    }

    #[test]
    fn plan_and_taskset_must_match_one_to_one() {
        let tasks = vec![app(1.0, 1e5), app(1.0, 1e5)];
        let plan = two_app_plan(&tasks);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let err =
            run_cluster_plan(&mut soc, &tasks[..1], &plan, &KernelConfig::default()).unwrap_err();
        assert!(matches!(err, KernelError::PlanMismatch { tasks: 1, assignments: 2 }), "{err}");
    }

    #[test]
    fn off_soc_assignment_is_a_typed_error() {
        // A 4-cluster plan cannot run on a 2-cluster SoC when an
        // application was assigned past the edge.
        let tasks = vec![app(1.0, 1e5), app(1.0, 1e5), app(1.0, 1e5)];
        let plan = federated_partition(
            &tasks,
            ClusterTopology { clusters: 4, cores_per_cluster: 4 },
            &SystemModel::proposed(),
        )
        .unwrap();
        if plan.assignments.iter().any(|a| a.clusters[0] >= 2) {
            let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
            let err =
                run_cluster_plan(&mut soc, &tasks, &plan, &KernelConfig::default()).unwrap_err();
            assert!(matches!(err, KernelError::NoSuchCluster(_)), "{err}");
        }
    }
}
