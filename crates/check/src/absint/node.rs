//! Per-node static ETM certification for a `(task, plan)` pair.
//!
//! For every DAG node this module unrolls the generated program
//! ([`l15_runtime::workgen::node_program`]) into its exact dynamic trace
//! ([`super::interp`]), runs the must-analysis of [`super::domain`] over
//! the L1I, L1D and L1.5 levels, and folds the AH/NC classification into a
//! **sound upper bound on the node's execution cycles** under the concrete
//! `l15-runtime` kernel. The analysis justifies — or reports as findings —
//! the two assumptions the plan's tighter bounds rest on:
//!
//! 1. **Way capacity** (`WAY_OVERCOMMIT`): the sum of all nodes' local-way
//!    demands must fit the cluster's ζ ways. Only then is every Walloc
//!    demand served from the free pool and no globally-visible way is ever
//!    revoked while a consumer may still read it.
//! 2. **Settle horizon** (`EARLY_STORE`): the Walloc applies a demanded
//!    configuration one way per cycle while the node already runs. A store
//!    issued before the horizon (ζ instructions + the kernel's `ip_set`
//!    re-issue) may take either the conventional or the routed path, so
//!    its cost — and the residency of the written line — is unknown.
//!
//! When both hold for a producer, its output lines written by routed
//!    stores are *guaranteed* globally visible at completion (the kernel
//! publishes exactly the freshly granted ways, and join-at-merge keeps
//! them until the last consumer finishes), so consumers' reads of them are
//! **always hits** in the L1.5.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use l15_cache::plru::TreePlru;
use l15_core::plan::SchedulePlan;
use l15_dag::DagTask;
use l15_runtime::layout::TaskLayout;
use l15_runtime::workgen::{node_program, WorkScale};
use l15_soc::SocConfig;

use super::cost::CostModel;
use super::domain::MustCache;
use super::interp::{trace_program, TraceStep};

/// Machine-readable reason a plan assumption is not statically justified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyFinding {
    /// Stable finding code (`WAY_OVERCOMMIT`, `EARLY_STORE`, `UNTRACEABLE`).
    pub code: &'static str,
    /// The node concerned, if any.
    pub node: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for CertifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(v) => write!(f, "{} node {}: {}", self.code, v, self.message),
            None => write!(f, "{}: {}", self.code, self.message),
        }
    }
}

/// Sound static bound for one node under its Walloc allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBound {
    /// The node.
    pub node: usize,
    /// Upper bound on the node's cycles from dispatch to `ebreak`,
    /// including the kernel's mid-run `ip_set` re-issue. `u64::MAX` when
    /// the node is untraceable (a finding explains why).
    pub bound_cycles: u64,
    /// Accesses classified always-hit (L1 or L1.5 must-resident).
    pub ah: u64,
    /// Accesses classified always-miss (never produced here: a node's
    /// incoming machine state is unknown, so the may-analysis is ⊤).
    pub am: u64,
    /// Accesses not classified (charged the full miss chain).
    pub nc: u64,
    /// Whether the node's store routing was statically justified.
    pub routed_justified: bool,
}

/// Result of [`certify_task`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyReport {
    /// Per-node bounds, indexed by node id.
    pub node_bounds: Vec<NodeBound>,
    /// Assumptions that could not be justified (empty ⇔ certified).
    pub findings: Vec<CertifyFinding>,
}

impl CertifyReport {
    /// Whether every plan assumption was statically justified.
    pub fn certified(&self) -> bool {
        self.findings.is_empty()
    }

    /// The per-node cycle bounds as a plain vector.
    pub fn bounds(&self) -> Vec<u64> {
        self.node_bounds.iter().map(|b| b.bound_cycles).collect()
    }
}

/// Extra cycles charged per node for kernel work on the node's own clock
/// (the mid-run `ip_set` re-issue once the Walloc settles, plus margin).
const KERNEL_CTRL_SLACK: u64 = 2;

/// Certifies `task` under `plan` on the SoC described by `cfg`, assuming
/// the `l15-runtime` kernel defaults (`use_l15` whenever the SoC has an
/// L1.5) and `scale` compute weights.
///
/// The returned bounds are sound for *any* dispatch order and core
/// assignment the kernel may choose; precision comes from the per-node
/// must-analysis and from predecessors' certified publications.
pub fn certify_task(
    task: &DagTask,
    plan: &SchedulePlan,
    cfg: &SocConfig,
    scale: WorkScale,
) -> CertifyReport {
    let dag = task.graph();
    let layout = TaskLayout::new(dag);
    let cost = CostModel::from_soc(cfg);
    let lb = cfg.l1d.line_bytes;
    let has_l15 = cfg.l15.is_some();
    let l15_sets = cfg.l15.map(|l| (l.way_bytes / lb) as usize).unwrap_or(1).max(1);
    let zeta = cfg.l15.map(|l| l.ways).unwrap_or(0);

    let mut findings = Vec::new();

    // Assumption 1: every demand fits the pool even with zero reclamation,
    // so no globally-visible way is ever forcibly revoked mid-task.
    let total_ways: usize = plan.local_ways.iter().sum();
    let ways_ok = !has_l15 || total_ways <= zeta;
    if !ways_ok {
        findings.push(CertifyFinding {
            code: "WAY_OVERCOMMIT",
            node: None,
            message: format!(
                "plan demands {total_ways} local ways in total but the \
                 cluster has {zeta}; published ways may be revoked while \
                 consumers still read them"
            ),
        });
    }
    // Assumption 2 horizon: the Walloc backlog across all lanes is at most
    // ζ grants (one applied per cycle, and every executed instruction
    // advances the uncore by at least one cycle), plus the kernel's
    // settle-detection and `ip_set` re-issue lag.
    let settle_horizon = zeta + 2;

    let mut node_bounds: Vec<NodeBound> = Vec::with_capacity(dag.node_count());
    for v in dag.node_ids() {
        node_bounds.push(NodeBound {
            node: v.0,
            bound_cycles: u64::MAX,
            ah: 0,
            am: 0,
            nc: 0,
            routed_justified: false,
        });
    }
    // Output lines guaranteed globally visible in the L1.5 after each
    // node completes.
    let mut guaranteed: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); dag.node_count()];

    for &v in dag.topological_order() {
        let program = match node_program(dag, v, &layout, scale) {
            Ok(p) => p,
            Err(e) => {
                findings.push(CertifyFinding {
                    code: "UNTRACEABLE",
                    node: Some(v.0),
                    message: format!("program generation failed: {e}"),
                });
                continue;
            }
        };
        let trace = match trace_program(&program, layout.code_of(v)) {
            Ok(t) => t,
            Err(e) => {
                findings.push(CertifyFinding {
                    code: "UNTRACEABLE",
                    node: Some(v.0),
                    message: e.to_string(),
                });
                continue;
            }
        };

        let local = plan.local_ways.get(v.0).copied().unwrap_or(0);
        let first_store = trace.iter().position(|s| matches!(s.mem, Some((true, _))));
        // Routing is justified when the node demands ways, the pool can
        // serve every demand, and no store can race the Walloc.
        let routed_ok =
            has_l15 && ways_ok && local > 0 && first_store.is_none_or(|i| i >= settle_horizon);
        if has_l15 && ways_ok && local > 0 && !routed_ok {
            findings.push(CertifyFinding {
                code: "EARLY_STORE",
                node: Some(v.0),
                message: format!(
                    "first store at instruction {} but the Walloc settle \
                     horizon is {} instructions; store routing is unknown",
                    first_store.expect("routed_ok is false because a store exists"),
                    settle_horizon
                ),
            });
        }

        // Direct predecessors' certified publications: must-resident in
        // the L1.5 for the whole node (join-at-merge reclamation).
        let mut published: BTreeSet<u64> = BTreeSet::new();
        if has_l15 && ways_ok {
            for &(_, p) in dag.predecessors(v) {
                published.extend(guaranteed[p.0].iter().copied());
            }
        }

        let b = analyze_node_trace(
            &trace,
            &cost,
            cfg,
            &published,
            NodeParams {
                node: v.0,
                routed_ok,
                settle_horizon,
                l15_sets,
                conventional: !has_l15 || local == 0,
            },
        );
        let own_view = b.own_view;
        node_bounds[v.0] = b.bound;

        if routed_ok {
            let out_base = u64::from(layout.output_of(v));
            let out_end = out_base + dag.node(v).data_bytes;
            guaranteed[v.0] =
                own_view.into_values().filter(|&line| line >= out_base && line < out_end).collect();
        }
    }

    CertifyReport { node_bounds, findings }
}

struct NodeParams {
    node: usize,
    routed_ok: bool,
    settle_horizon: usize,
    l15_sets: usize,
    /// Stores definitely take the conventional path (no L1.5, or zero
    /// local ways so the writable mask is empty).
    conventional: bool,
}

struct NodeAnalysis {
    bound: NodeBound,
    /// L1.5 set → line known resident in one of the node's writable ways.
    own_view: BTreeMap<usize, u64>,
}

fn analyze_node_trace(
    trace: &[TraceStep],
    cost: &CostModel,
    cfg: &SocConfig,
    published: &BTreeSet<u64>,
    p: NodeParams,
) -> NodeAnalysis {
    let lb = cfg.l1d.line_bytes;
    let sets_of =
        |l: &l15_soc::LevelConfig| ((l.capacity / (l.line_bytes * l.ways as u64)) as usize).max(1);
    let mut l1i = MustCache::new(sets_of(&cfg.l1i), TreePlru::must_capacity(cfg.l1i.ways), lb);
    let mut l1d = MustCache::new(sets_of(&cfg.l1d), TreePlru::must_capacity(cfg.l1d.ways), lb);
    // The node's freshly granted L1.5 ways: masked PLRU gives a must
    // capacity of one line per set.
    let mut own_view: BTreeMap<usize, u64> = BTreeMap::new();
    let l15_set = |addr: u64| ((addr / lb) % p.l15_sets as u64) as usize;
    let line_of = |addr: u64| addr & !(lb - 1);

    let mut total = 0u64;
    let (mut ah, mut nc) = (0u64, 0u64);

    // Transfer + cost of a load or fetch; returns (cycles, always_hit).
    // On a possible L1.5 miss the fill may evict whatever the own-view
    // held in the target set, so the fact is pruned.
    let charge_read = |must: &mut MustCache, own_view: &mut BTreeMap<usize, u64>, addr: u64| {
        let line = line_of(addr);
        if must.access(addr) {
            return (cost.read_l1_hit(), true);
        }
        let set = l15_set(addr);
        if published.contains(&line) || own_view.get(&set) == Some(&line) {
            (cost.read_l15_hit(), true)
        } else {
            own_view.remove(&set);
            (cost.read_chain(), false)
        }
    };

    for (idx, step) in trace.iter().enumerate() {
        // A definite fill into a writable way is only known once the
        // Walloc has settled; possible fills always prune the view.
        let settled = p.routed_ok && idx >= p.settle_horizon;

        let (fetch_cycles, fetch_ah) = charge_read(&mut l1i, &mut own_view, u64::from(step.fetch));
        if fetch_ah {
            ah += 1;
        } else {
            nc += 1;
        }

        let mem_cycles = match step.mem {
            None => 0,
            Some((false, addr)) => {
                let (c, hit) = charge_read(&mut l1d, &mut own_view, u64::from(addr));
                if hit {
                    ah += 1;
                } else {
                    nc += 1;
                }
                c
            }
            Some((true, addr)) => {
                let addr = u64::from(addr);
                let line = line_of(addr);
                let set = l15_set(addr);
                if p.conventional {
                    // Write-allocate through the L1D.
                    if l1d.access(addr) {
                        ah += 1;
                        cost.store_l1_hit()
                    } else {
                        nc += 1;
                        cost.store_chain()
                    }
                } else if settled {
                    // Routed store: bypasses the L1D (its copy of the line
                    // is invalidated) and lands in a writable way.
                    l1d.remove(addr);
                    if own_view.get(&set) == Some(&line) {
                        ah += 1;
                        cost.store_posted()
                    } else {
                        nc += 1;
                        own_view.insert(set, line);
                        cost.store_routed_chain()
                    }
                } else {
                    // Routing unknown: either path may be taken.
                    nc += 1;
                    l1d.remove(addr);
                    if own_view.get(&set) != Some(&line) {
                        own_view.remove(&set);
                    }
                    cost.store_unknown()
                }
            }
        };

        // Per-instruction cycle composition of the RV32 core: base cycle,
        // load-use stall (bounded by 1), taken-branch/jump flush, M-unit
        // penalty, plus the memory-system cycles beyond the first.
        total += 1
            + u64::from(step.load_use)
            + if step.flush { 2 } else { 0 }
            + if step.muldiv { 3 } else { 0 }
            + fetch_cycles.saturating_sub(1)
            + mem_cycles.saturating_sub(1);
    }

    NodeAnalysis {
        bound: NodeBound {
            node: p.node,
            bound_cycles: total + KERNEL_CTRL_SLACK * cost.ctrl,
            ah,
            am: 0,
            nc,
            routed_justified: p.routed_ok,
        },
        own_view,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::alg1::schedule_with_l15;
    use l15_core::baseline::baseline_priorities;
    use l15_dag::{DagBuilder, ExecutionTimeModel, Node};
    use l15_runtime::kernel::{run_task, KernelConfig};
    use l15_soc::Soc;

    fn diamond() -> DagTask {
        let mut b = DagBuilder::new();
        let s = b.add_node(Node::new(1.0, 2048));
        let a = b.add_node(Node::new(1.0, 2048));
        let c = b.add_node(Node::new(1.0, 2048));
        let t = b.add_node(Node::new(1.0, 0));
        b.add_edge(s, a, 1.0, 0.5).unwrap();
        b.add_edge(s, c, 1.0, 0.5).unwrap();
        b.add_edge(a, t, 1.0, 0.5).unwrap();
        b.add_edge(c, t, 1.0, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
    }

    #[test]
    fn diamond_bounds_are_sound_on_the_proposed_soc() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let cfg = SocConfig::proposed_8core();
        let report = certify_task(&task, &plan, &cfg, WorkScale::default());

        let mut soc = Soc::new(cfg, 0);
        let run = run_task(&mut soc, &task, &plan, &KernelConfig::default()).unwrap();
        for b in &report.node_bounds {
            let observed = run.node_finish[b.node] - run.node_start[b.node];
            assert!(
                observed <= b.bound_cycles,
                "node {}: observed {observed} > bound {}",
                b.node,
                b.bound_cycles
            );
        }
    }

    #[test]
    fn diamond_bounds_are_sound_on_the_legacy_soc() {
        let task = diamond();
        let plan = baseline_priorities(&task);
        let cfg = SocConfig::cmp_l1_8core();
        let report = certify_task(&task, &plan, &cfg, WorkScale::default());
        assert!(report.certified(), "{:?}", report.findings);

        let mut soc = Soc::new(cfg, 0);
        let kc = KernelConfig { use_l15: false, ..Default::default() };
        let run = run_task(&mut soc, &task, &plan, &kc).unwrap();
        for b in &report.node_bounds {
            let observed = run.node_finish[b.node] - run.node_start[b.node];
            assert!(
                observed <= b.bound_cycles,
                "node {}: observed {observed} > bound {}",
                b.node,
                b.bound_cycles
            );
        }
    }

    #[test]
    fn certified_plans_classify_consumer_reads_as_hits() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let report = certify_task(&task, &plan, &SocConfig::proposed_8core(), WorkScale::default());
        assert!(report.certified(), "{:?}", report.findings);
        // The sink (node 3) reads two 2 KiB buffers published by its
        // predecessors: the bulk of its accesses are always-hits.
        let sink = &report.node_bounds[3];
        assert!(sink.routed_justified || plan.local_ways[3] == 0);
        assert!(sink.ah > sink.nc, "sink ah={} nc={}", sink.ah, sink.nc);
    }

    #[test]
    fn overcommitted_plans_are_flagged() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let mut plan = schedule_with_l15(&task, 16, &etm);
        plan.local_ways = vec![9, 9, 9, 9]; // 36 > ζ = 16
        let report = certify_task(&task, &plan, &SocConfig::proposed_8core(), WorkScale::default());
        assert!(!report.certified());
        assert!(report.findings.iter().any(|f| f.code == "WAY_OVERCOMMIT"));
        // Conservative bounds are still produced for every node.
        assert!(report.node_bounds.iter().all(|b| b.bound_cycles != u64::MAX));
    }

    #[test]
    fn certification_is_deterministic() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let cfg = SocConfig::proposed_8core();
        let a = certify_task(&task, &plan, &cfg, WorkScale::default());
        let b = certify_task(&task, &plan, &cfg, WorkScale::default());
        assert_eq!(a, b);
    }
}
