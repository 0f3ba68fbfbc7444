//! Federated scheduling across L1.5 clusters.
//!
//! The paper schedules one DAG inside one cluster (Alg. 1); Tessler et
//! al. (arXiv:2002.12516) show how inter-thread cache benefit folds into
//! *federated* scheduling across processor groups. This module is that
//! missing tier: it classifies DAG tasks as **heavy** or **light** by
//! density (worst-case work over deadline), dedicates whole clusters to
//! heavy tasks, and first-fit partitions light tasks onto the remaining
//! clusters — emitting a [`ClusterPlan`] that composes the existing
//! per-cluster [`SchedulePlan`] (Alg. 1) and Graham-style RTA
//! ([`rta::makespan_bound`]) per task.
//!
//! The capacity bound is Alg.-1-aware: a task confined to **one** cluster
//! is analysed with the ETM-reduced edge costs its way allocation earns
//! (the L1.5 benefit term), while a heavy task spilled over several
//! clusters pays the full communication cost on every edge — placement
//! across clusters is not known analytically, and the L1.5 does not reach
//! across a cluster boundary ([`SystemModel::comm_cost`] with
//! `same_cluster = false`). That asymmetry is exactly why the L1.5 raises
//! the success ratio of the cluster sweeps: tasks fit in fewer clusters
//! when the benefit term applies.
//!
//! The tier is two halves: [`TaskAnalysis`] is everything that depends on
//! one task alone (plan, bounds, light/heavy verdict — the expensive part)
//! and [`place`] everything that depends on the set (cluster hand-out,
//! first-fit packing). [`federated_partition`] composes them; the online
//! session keeps the first half per resident job and replays the second.
//!
//! An unschedulable input is an explicit, typed [`FederatedError`] — never
//! a panic — so callers (the `l15-serve` endpoints, the bench sweeps) can
//! surface an infeasible verdict end-to-end.

use std::borrow::Cow;
use std::fmt;

use l15_dag::DagTask;

use crate::baseline::SystemModel;
use crate::plan::SchedulePlan;
use crate::rta;

/// The cluster shape the federated tier partitions over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of clusters.
    pub clusters: usize,
    /// Cores per cluster (the paper: 4).
    pub cores_per_cluster: usize,
}

impl ClusterTopology {
    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }
}

impl Default for ClusterTopology {
    /// The proposed 8-core shape: 2 clusters × 4 cores.
    fn default() -> Self {
        ClusterTopology { clusters: 2, cores_per_cluster: 4 }
    }
}

/// Why a task set does not fit the topology. The variants carry enough
/// context to render a useful diagnostic (the `l15-serve` 422 body).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FederatedError {
    /// The topology has no clusters or no cores per cluster.
    NoClusters,
    /// The task set is empty.
    EmptyTaskset,
    /// The set's total worst-case utilisation exceeds the platform's core
    /// count — infeasible before any placement is attempted.
    Overutilized {
        /// Total worst-case utilisation of the set.
        utilisation: f64,
        /// Total cores of the topology.
        cores: usize,
    },
    /// A task's makespan bound exceeds its deadline even on every cluster
    /// of the platform.
    TaskUnschedulable {
        /// Input index of the task.
        task: usize,
        /// Its best achievable bound.
        bound: f64,
        /// Its deadline.
        deadline: f64,
    },
    /// The heavy tasks together need more dedicated clusters than exist.
    NotEnoughClusters {
        /// Clusters the heavy prefix of the set needs.
        needed: usize,
        /// Clusters available.
        available: usize,
    },
    /// A light task fits no remaining cluster under the first-fit
    /// utilisation bound.
    LightTaskUnplaceable {
        /// Input index of the task.
        task: usize,
        /// Its worst-case utilisation.
        utilisation: f64,
    },
}

impl FederatedError {
    /// A stable short reason code for machine consumers (the online
    /// admission log, the `/submit` rejection body). Codes are part of
    /// the determinism contract: they never change once published.
    pub fn code(&self) -> &'static str {
        match self {
            FederatedError::NoClusters => "no-clusters",
            FederatedError::EmptyTaskset => "empty-taskset",
            FederatedError::Overutilized { .. } => "overutilized",
            FederatedError::TaskUnschedulable { .. } => "task-unschedulable",
            FederatedError::NotEnoughClusters { .. } => "not-enough-clusters",
            FederatedError::LightTaskUnplaceable { .. } => "light-unplaceable",
        }
    }
}

impl fmt::Display for FederatedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederatedError::NoClusters => write!(f, "topology has no clusters"),
            FederatedError::EmptyTaskset => write!(f, "task set is empty"),
            FederatedError::Overutilized { utilisation, cores } => write!(
                f,
                "task set is over-utilized: total utilisation {utilisation:.3} \
                 exceeds {cores} cores"
            ),
            FederatedError::TaskUnschedulable { task, bound, deadline } => write!(
                f,
                "task {task} is unschedulable on the whole platform: \
                 bound {bound:.3} > deadline {deadline:.3}"
            ),
            FederatedError::NotEnoughClusters { needed, available } => {
                write!(f, "heavy tasks need {needed} dedicated cluster(s), only {available} exist")
            }
            FederatedError::LightTaskUnplaceable { task, utilisation } => write!(
                f,
                "light task {task} (utilisation {utilisation:.3}) fits no remaining cluster"
            ),
        }
    }
}

impl std::error::Error for FederatedError {}

/// One task's placement in the federated plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAssignment {
    /// Input index of the task.
    pub task: usize,
    /// Whether the task is heavy (dedicated clusters).
    pub heavy: bool,
    /// The clusters the task runs on: several dedicated ones for a heavy
    /// task, exactly one (possibly shared with other light tasks) for a
    /// light task. Never empty.
    pub clusters: Vec<usize>,
    /// The task's makespan bound on its assigned capacity.
    pub bound: f64,
    /// Worst-case density (work / deadline) that drove the classification.
    pub density: f64,
    /// The application id the runtime registers with the TID protector
    /// (input index + 1; 0 is reserved for "no application").
    pub tid: u32,
    /// The inner per-cluster plan (Alg. 1 for the proposed system).
    pub plan: SchedulePlan,
}

/// The federated tier's output: per-task placements over the topology,
/// composing the per-cluster Alg. 1 plan + RTA verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// The topology the plan was built for.
    pub topology: ClusterTopology,
    /// One assignment per input task, in input order.
    pub assignments: Vec<TaskAssignment>,
}

impl ClusterPlan {
    /// The home cluster of `task` (its first assigned cluster).
    pub fn cluster_of(&self, task: usize) -> Option<usize> {
        self.assignments.get(task).and_then(|a| a.clusters.first().copied())
    }

    /// The tasks placed on `cluster`, in input order.
    pub fn tasks_on(&self, cluster: usize) -> Vec<usize> {
        self.assignments.iter().filter(|a| a.clusters.contains(&cluster)).map(|a| a.task).collect()
    }
}

/// Worst-case execution and edge-cost closures for one task under
/// `model`: in-cluster edges earn the ETM benefit of the task's way
/// allocation, cross-cluster edges pay the full cost.
fn bound_on(
    task: &DagTask,
    plan: &SchedulePlan,
    model: &SystemModel,
    cores: usize,
    single_cluster: bool,
) -> rta::MakespanBound {
    let dag = task.graph();
    rta::makespan_bound(
        task,
        cores,
        |v| model.worst_case_exec(dag.node(v).wcet),
        |e| {
            let edge = dag.edge(e);
            let producer = dag.node(edge.from);
            model.worst_case_edge_cost(
                edge.cost,
                edge.alpha,
                producer.data_bytes,
                plan.local_ways[edge.from.0],
                false,
                single_cluster,
            )
        },
    )
}

/// How much of the platform one task needs — the capacity verdict of its
/// [`TaskAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Capacity {
    /// Density ≤ 1 and the one-cluster bound meets the deadline: shares a
    /// cluster with other light tasks.
    Light,
    /// Needs this many dedicated clusters (the smallest count whose bound
    /// meets the deadline).
    Heavy { clusters: usize },
    /// Misses its deadline even on every cluster of the platform.
    Unschedulable,
}

/// Everything the federated tier computes about **one** task: its
/// per-cluster plan (Alg. 1 for the proposed system), its worst-case
/// utilisation and density, and whether it is light, heavy (and on how many
/// clusters) or unschedulable, with the bound that says so.
///
/// A pure function of `(task, topology, model)` — nothing here looks at
/// the rest of the set — so a caller that places the same task again and
/// again (the online session) computes it once and keeps it; it goes stale
/// only when the topology or the model (`ζ` included) changes.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAnalysis {
    plan: SchedulePlan,
    utilisation: f64,
    density: f64,
    deadline: f64,
    /// On the capacity the verdict names: one cluster for a light task, its
    /// dedicated clusters for a heavy one, the best achievable for an
    /// unschedulable one.
    bound: f64,
    capacity: Capacity,
}

impl TaskAnalysis {
    /// Analyses `task` for `topo` under `model`.
    ///
    /// A task is heavy when its density exceeds 1 or its bound over one
    /// full cluster exceeds the deadline; it then gets the smallest cluster
    /// count whose bound meets the deadline — one cluster is analysed with
    /// the L1.5 benefit term, more pay full communication costs.
    pub fn new(task: &DagTask, topo: ClusterTopology, model: &SystemModel) -> Self {
        // A topology without cores is `place`'s to refuse (`NoClusters`,
        // before any verdict is read); this only keeps the bound defined.
        let cpc = topo.cores_per_cluster.max(1);
        let plan = model.plan(task);
        let dag = task.graph();
        let work: f64 = dag.node_ids().map(|v| model.worst_case_exec(dag.node(v).wcet)).sum();
        let density = work / task.deadline();
        let meets = |bound: f64| bound <= task.deadline() + 1e-9;

        let b1 = bound_on(task, &plan, model, cpc, true).bound;
        let (capacity, bound) = if meets(b1) {
            let light = density <= 1.0 + 1e-9;
            (if light { Capacity::Light } else { Capacity::Heavy { clusters: 1 } }, b1)
        } else {
            let mut best = b1;
            let fits = (2..=topo.clusters).find_map(|n| {
                let b = bound_on(task, &plan, model, n * cpc, false).bound;
                best = best.min(b);
                meets(b).then_some((Capacity::Heavy { clusters: n }, b))
            });
            fits.unwrap_or((Capacity::Unschedulable, best))
        };
        let (utilisation, deadline) = (work / task.period(), task.deadline());
        TaskAnalysis { plan, utilisation, density, deadline, bound, capacity }
    }
}

/// Places analysed tasks on `topo`, in input order: the federated tier's
/// one placement, behind [`federated_partition`] and the online session
/// alike. Every analysis must have been made for `topo`.
///
/// Heavy tasks take their dedicated clusters from the front; light tasks
/// are then first-fit packed onto the remaining clusters under the
/// conservative non-preemptive utilisation bound
/// `U ≤ (cores_per_cluster + 1) / 2` per cluster, each running under its
/// own Alg. 1 plan and RTA inside its home cluster. An owned analysis
/// gives its plan to the assignment; a borrowed one is cloned.
///
/// The result is deterministic: placement depends only on the input
/// order, never on iteration over unordered containers.
///
/// # Errors
///
/// Returns a typed [`FederatedError`], checked in this order: degenerate
/// topology, empty input, over-utilisation, the first heavy task in input
/// order that is unschedulable or finds too few clusters left, the first
/// light task that fits no remaining cluster.
pub fn place<'a>(
    analyses: impl IntoIterator<Item = Cow<'a, TaskAnalysis>>,
    topo: ClusterTopology,
) -> Result<ClusterPlan, FederatedError> {
    if topo.clusters == 0 || topo.cores_per_cluster == 0 {
        return Err(FederatedError::NoClusters);
    }
    let analyses: Vec<Cow<'a, TaskAnalysis>> = analyses.into_iter().collect();
    if analyses.is_empty() {
        return Err(FederatedError::EmptyTaskset);
    }
    let total_util: f64 = analyses.iter().map(|a| a.utilisation).sum();
    if total_util > topo.total_cores() as f64 + 1e-9 {
        return Err(FederatedError::Overutilized {
            utilisation: total_util,
            cores: topo.total_cores(),
        });
    }

    let mut homes: Vec<Vec<usize>> = vec![Vec::new(); analyses.len()];
    let mut next_cluster = 0usize; // heavy tasks take clusters from the front
    for (task, a) in analyses.iter().enumerate() {
        let n = match a.capacity {
            // Light: placed after every heavy task has its clusters.
            Capacity::Light => continue,
            Capacity::Heavy { clusters } => clusters,
            Capacity::Unschedulable => {
                return Err(FederatedError::TaskUnschedulable {
                    task,
                    bound: a.bound,
                    deadline: a.deadline,
                });
            }
        };
        if next_cluster + n > topo.clusters {
            return Err(FederatedError::NotEnoughClusters {
                needed: next_cluster + n,
                available: topo.clusters,
            });
        }
        homes[task] = (next_cluster..next_cluster + n).collect();
        next_cluster += n;
    }

    // First-fit light packing onto the clusters the heavy tasks left over,
    // under the conservative non-preemptive utilisation bound per cluster.
    let cap = (topo.cores_per_cluster as f64 + 1.0) / 2.0;
    let mut load = vec![0.0f64; topo.clusters - next_cluster];
    for (task, a) in analyses.iter().enumerate().filter(|(_, a)| a.capacity == Capacity::Light) {
        let Some(slot) = load.iter().position(|&u| u + a.utilisation <= cap + 1e-9) else {
            return Err(if load.is_empty() {
                FederatedError::NotEnoughClusters {
                    needed: next_cluster + 1,
                    available: topo.clusters,
                }
            } else {
                FederatedError::LightTaskUnplaceable { task, utilisation: a.utilisation }
            });
        };
        load[slot] += a.utilisation;
        homes[task] = vec![next_cluster + slot];
    }

    let mut assignments = Vec::with_capacity(analyses.len());
    for (task, (a, clusters)) in analyses.into_iter().zip(homes).enumerate() {
        let a = a.into_owned();
        assignments.push(TaskAssignment {
            task,
            heavy: a.capacity != Capacity::Light,
            clusters,
            bound: a.bound,
            density: a.density,
            tid: task as u32 + 1,
            plan: a.plan,
        });
    }
    Ok(ClusterPlan { topology: topo, assignments })
}

/// Partitions `tasks` over `topo` federated-style under `model`: analyses
/// each task ([`TaskAnalysis::new`]) and places the analyses ([`place`]).
///
/// # Errors
///
/// Returns a typed [`FederatedError`] — degenerate topology, empty or
/// over-utilized input, or an explicit infeasible verdict.
pub fn federated_partition(
    tasks: &[DagTask],
    topo: ClusterTopology,
    model: &SystemModel,
) -> Result<ClusterPlan, FederatedError> {
    place(tasks.iter().map(|t| Cow::Owned(TaskAnalysis::new(t, topo, model))), topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::{generate_case_study, CaseStudyParams};
    use l15_dag::{DagBuilder, Node};
    use l15_testkit::rng::{fnv1a, SmallRng, FNV1A_OFFSET};
    use l15_testkit::{pool, prop};

    fn light_task(work: f64, period: f64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_node(Node::new(work, 1024));
        DagTask::new(b.build().unwrap(), period, period).unwrap()
    }

    fn wide_task(branch_wcet: f64, deadline: f64) -> DagTask {
        let mut b = DagBuilder::new();
        let s = b.add_node(Node::new(0.1, 2048));
        let t = b.add_node(Node::new(0.1, 0));
        for _ in 0..6 {
            let v = b.add_node(Node::new(branch_wcet, 2048));
            b.add_edge(s, v, 0.2, 0.5).unwrap();
            b.add_edge(v, t, 0.2, 0.5).unwrap();
        }
        DagTask::new(b.build().unwrap(), deadline, deadline).unwrap()
    }

    fn topo(clusters: usize) -> ClusterTopology {
        ClusterTopology { clusters, cores_per_cluster: 4 }
    }

    #[test]
    fn heavy_and_light_split_composes_cluster_plans() {
        // One heavy DAG (6 × 5.0 of work against a deadline of 9) and two
        // small light tasks on a 4-cluster / 16-core platform.
        let tasks = vec![wide_task(5.0, 9.0), light_task(1.0, 10.0), light_task(2.0, 20.0)];
        let model = SystemModel::proposed();
        let plan = federated_partition(&tasks, topo(4), &model).unwrap();
        assert_eq!(plan.assignments.len(), 3);
        let heavy = &plan.assignments[0];
        assert!(heavy.heavy, "{heavy:?}");
        assert!(heavy.density > 1.0);
        assert!(!heavy.clusters.is_empty());
        // Light tasks land on clusters the heavy task does not own.
        for a in &plan.assignments[1..] {
            assert!(!a.heavy);
            assert_eq!(a.clusters.len(), 1);
            assert!(!heavy.clusters.contains(&a.clusters[0]), "{a:?}");
            assert_eq!(plan.cluster_of(a.task), Some(a.clusters[0]));
        }
        // TIDs are distinct and non-zero.
        let mut tids: Vec<u32> = plan.assignments.iter().map(|a| a.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3);
        assert!(tids.iter().all(|&t| t > 0));
    }

    #[test]
    fn single_cluster_bound_keeps_the_l15_benefit_term() {
        // A task that fits one cluster only because the ETM reduces its
        // edge costs: the bound over 4 cores with the benefit must beat
        // the full-cost bound over the same 4 cores.
        let t = wide_task(1.0, 20.0);
        let model = SystemModel::proposed();
        let plan = model.plan(&t);
        let etm = bound_on(&t, &plan, &model, 4, true);
        let full = bound_on(&t, &plan, &model, 4, false);
        assert!(etm.bound < full.bound, "etm {} vs full {}", etm.bound, full.bound);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let model = SystemModel::proposed();
        let t = light_task(1.0, 10.0);
        assert_eq!(
            federated_partition(std::slice::from_ref(&t), topo(0), &model),
            Err(FederatedError::NoClusters)
        );
        // The analysis itself is total: a topology without cores is refused
        // by the placement, not by a panic in the constructor.
        let coreless = ClusterTopology { clusters: 2, cores_per_cluster: 0 };
        let analysed = Cow::Owned(TaskAnalysis::new(&t, coreless, &model));
        assert_eq!(place([analysed], coreless), Err(FederatedError::NoClusters));
        assert_eq!(federated_partition(&[], topo(2), &model), Err(FederatedError::EmptyTaskset));
        // Over-utilized: 3 tasks of utilisation ≈ 4 each on 8 cores.
        let fat = light_task(40.0, 10.0);
        let err =
            federated_partition(&[fat.clone(), fat.clone(), fat], topo(2), &model).unwrap_err();
        assert!(matches!(err, FederatedError::Overutilized { .. }), "{err}");
        assert!(err.to_string().contains("over-utilized"), "{err}");
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let errs = [
            FederatedError::NoClusters,
            FederatedError::EmptyTaskset,
            FederatedError::Overutilized { utilisation: 9.0, cores: 8 },
            FederatedError::TaskUnschedulable { task: 0, bound: 2.0, deadline: 1.0 },
            FederatedError::NotEnoughClusters { needed: 3, available: 2 },
            FederatedError::LightTaskUnplaceable { task: 1, utilisation: 2.0 },
        ];
        let mut codes: Vec<&str> = errs.iter().map(|e| e.code()).collect();
        assert_eq!(codes[0], "no-clusters");
        assert_eq!(codes[2], "overutilized");
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "codes must be distinct");
    }

    #[test]
    fn infeasible_critical_path_is_an_explicit_verdict() {
        // A two-node chain whose path alone exceeds the deadline can never
        // be schedulable — more clusters do not shorten the path.
        let mut b = DagBuilder::new();
        let x = b.add_node(Node::new(20.0, 512));
        let y = b.add_node(Node::new(20.0, 512));
        b.add_edge(x, y, 1.0, 0.5).unwrap();
        let t = DagTask::new(b.build().unwrap(), 60.0, 30.0).unwrap();
        let err = federated_partition(&[t], topo(8), &SystemModel::proposed()).unwrap_err();
        assert!(matches!(err, FederatedError::TaskUnschedulable { task: 0, .. }), "{err}");
    }

    #[test]
    fn heavy_tasks_exhausting_the_platform_report_not_enough_clusters() {
        let tasks = vec![wide_task(5.0, 9.0), wide_task(5.0, 9.0), wide_task(5.0, 9.0)];
        let err = federated_partition(&tasks, topo(2), &SystemModel::proposed()).unwrap_err();
        assert!(
            matches!(
                err,
                FederatedError::NotEnoughClusters { .. } | FederatedError::Overutilized { .. }
            ),
            "{err}"
        );
    }

    /// FNV-1a of the partition's `Debug` rendering — plan or typed error,
    /// every float bit included.
    fn verdict_digest(tasks: &[DagTask], clusters: usize) -> u64 {
        let text =
            format!("{:?}", federated_partition(tasks, topo(clusters), &SystemModel::proposed()));
        fnv1a(FNV1A_OFFSET, text.as_bytes())
    }

    /// The analyse/place split keeps every verdict of the monolithic
    /// partition it replaced: the digests below were recorded on the
    /// parent commit (6ac920c), before the split, over 1–8 clusters from
    /// under- to over-utilised — light-only plans, one- and two-cluster
    /// heavy tasks, `TaskUnschedulable`, `NotEnoughClusters`,
    /// `Overutilized`.
    #[test]
    fn split_keeps_the_verdicts_recorded_before_it() {
        const RECORDED: [u64; 40] = [
            0xb4df_f6d6_8fec_2361,
            0x4caa_87c9_e4f6_4a6d,
            0x7843_7afc_a076_4561,
            0xbd25_bab9_9e97_5066,
            0xd9c9_82ef_527e_0f50,
            0xf555_dc68_255a_5ded,
            0x9d97_40b6_7dd5_11c7,
            0xfc21_afcb_4c1d_3500,
            0xb2e5_9baf_2e72_4bd5,
            0xd03a_9dc1_507d_c984,
            0x8e6b_0325_14d9_cbe2,
            0xf905_fd48_013d_1ac3,
            0x0f44_3d04_9ca4_ebfc,
            0xd029_f0cf_8f15_318a,
            0x41d5_2d07_0ac6_aea0,
            0x587a_917f_40fc_c0ad,
            0x18bf_d007_4348_c729,
            0x35d3_66d6_1264_a46d,
            0xee73_9942_a35b_5e55,
            0xb2df_3328_48ca_adcb,
            0xe055_d885_8c04_f7dd,
            0xdab0_dcf2_3b64_f09c,
            0xdad2_6f60_cb87_77c0,
            0x8ef1_0d6b_8472_e4cd,
            0x211d_b598_580d_0b16,
            0xb72f_229b_eb57_294f,
            0x051a_cb23_8d13_c8d5,
            0x09af_19ac_2514_20d8,
            0xf016_f284_89ea_d506,
            0x98e8_569c_644b_897e,
            0x307e_ed8d_f3bc_e5a2,
            0xd313_fa30_e0b3_fccf,
            0xe9df_854d_91d1_8d3f,
            0x3100_2ff4_f543_4a02,
            0xd176_3802_85ee_bda4,
            0x42aa_5d3e_436d_9770,
            0x173b_a4bc_9b25_55fe,
            0x9d2e_a214_0004_430b,
            0xdaf8_09e9_bcf7_742c,
            0xfa4d_e376_a329_343d,
        ];
        let params = CaseStudyParams { width: 4, ..Default::default() };
        let mut got = Vec::new();
        for clusters in 1..=8usize {
            for (k, load) in [0.1, 0.2, 0.35, 0.5, 1.1].into_iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(0x20 * clusters as u64 + k as u64);
                let util = load * (clusters * 4) as f64;
                let tasks =
                    generate_case_study(clusters + 1 + k % 3, util, &params, &mut rng).unwrap();
                got.push(verdict_digest(&tasks, clusters));
            }
        }
        assert_eq!(got, RECORDED, "{got:#018x?}");
    }

    /// A two-node chain whose critical path exceeds its deadline on any
    /// number of cores; utilisation ≈ 0.67.
    fn hopeless_task() -> DagTask {
        let mut b = DagBuilder::new();
        let x = b.add_node(Node::new(20.0, 512));
        let y = b.add_node(Node::new(20.0, 512));
        b.add_edge(x, y, 1.0, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), 60.0, 30.0).unwrap()
    }

    /// Where two errors compete the split reports the one the monolithic
    /// walk reached first, with the same input index.
    #[test]
    fn competing_errors_keep_their_precedence_and_index() {
        let model = SystemModel::proposed();
        let part = |tasks: &[DagTask], clusters| federated_partition(tasks, topo(clusters), &model);

        // Over-utilised *and* holding an unschedulable task: the
        // utilisation test runs before any task is classified.
        let fat = light_task(40.0, 10.0);
        let err = part(&[hopeless_task(), fat.clone(), fat.clone(), fat], 2).unwrap_err();
        assert!(matches!(err, FederatedError::Overutilized { cores: 8, .. }), "{err}");

        // A heavy prefix that exhausts the clusters, then an unschedulable
        // task: the walk stops at the lowest failing index. (Density 3.4
        // makes the task heavy; the long period keeps utilisation low.)
        let heavy = {
            let t = wide_task(5.0, 9.0);
            DagTask::new(t.graph().clone(), 90.0, 9.0).unwrap()
        };
        let err = part(&[heavy.clone(), heavy.clone(), hopeless_task()], 2).unwrap_err();
        assert_eq!(err, FederatedError::NotEnoughClusters { needed: 4, available: 2 });
        let err = part(&[heavy.clone(), hopeless_task(), heavy], 2).unwrap_err();
        assert!(matches!(err, FederatedError::TaskUnschedulable { task: 1, .. }), "{err}");

        // An unplaceable light *before* an unschedulable heavy in input
        // order: every heavy task is classified before any light task is
        // packed, so the later index wins.
        let light = light_task(9.0, 10.0);
        let mut tasks = vec![light.clone(), light.clone(), light];
        let err = part(&tasks, 1).unwrap_err();
        assert!(matches!(err, FederatedError::LightTaskUnplaceable { task: 2, .. }), "{err}");
        tasks.push(hopeless_task());
        let err = part(&tasks, 1).unwrap_err();
        assert!(matches!(err, FederatedError::TaskUnschedulable { task: 3, .. }), "{err}");
    }

    /// Satellite property: every task is assigned exactly once (one
    /// assignment, non-empty cluster list, heavy clusters never shared)
    /// or the whole set is reported infeasible — no drops, no
    /// double-assignment. `L15_PROP_SEED`-replayable via the prop runner.
    #[test]
    fn prop_every_task_assigned_exactly_once_or_infeasible() {
        prop::run_with(prop::Config::with_cases(48), "federated_exactly_once", |g| {
            let seed = g.any_u64();
            let n_tasks = g.usize_in(1..=6);
            let clusters = g.usize_in(1..=8);
            let util = g.f64_in(0.2, 1.2) * (clusters * 4) as f64;
            let params = CaseStudyParams { width: 4, ..Default::default() };
            let mut rng = SmallRng::seed_from_u64(seed);
            let Ok(tasks) = generate_case_study(n_tasks, util, &params, &mut rng) else {
                return;
            };
            let model = SystemModel::proposed();
            match federated_partition(&tasks, topo(clusters), &model) {
                Ok(plan) => {
                    assert_eq!(plan.assignments.len(), tasks.len(), "one assignment per task");
                    for (i, a) in plan.assignments.iter().enumerate() {
                        assert_eq!(a.task, i, "assignments in input order");
                        assert!(!a.clusters.is_empty(), "task {i} got no cluster");
                        assert!(
                            a.clusters.iter().all(|&c| c < clusters),
                            "task {i} placed off-platform: {:?}",
                            a.clusters
                        );
                    }
                    // A heavy task's clusters are dedicated: nobody else
                    // may touch them.
                    for a in plan.assignments.iter().filter(|a| a.heavy) {
                        for b in plan.assignments.iter().filter(|b| b.task != a.task) {
                            assert!(
                                a.clusters.iter().all(|c| !b.clusters.contains(c)),
                                "cluster shared with heavy task: {a:?} vs {b:?}"
                            );
                        }
                    }
                }
                Err(e) => {
                    // Infeasible is a verdict, not a crash; it renders.
                    assert!(!e.to_string().is_empty());
                }
            }
        });
    }

    /// Satellite property: the partition is a pure function of its input
    /// — fanned out over the worker pool it returns exactly the
    /// sequential result, so reports built from it are byte-identical at
    /// any `L15_JOBS`.
    #[test]
    fn partition_is_deterministic_across_the_worker_pool() {
        let model = SystemModel::proposed();
        let params = CaseStudyParams { width: 4, ..Default::default() };
        let build = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let tasks = generate_case_study(3, 6.0, &params, &mut rng).unwrap();
            format!("{:?}", federated_partition(&tasks, topo(4), &model))
        };
        let pooled = pool::run_seeded(0x5eed, 8, |_, seed| build(seed));
        let sequential: Vec<String> = (0..8).map(|i| build(pool::item_seed(0x5eed, i))).collect();
        assert_eq!(pooled, sequential);
    }
}
