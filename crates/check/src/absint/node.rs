//! Per-node static ETM certification for a `(task, plan)` pair.
//!
//! For every DAG node this module unrolls the generated program
//! ([`l15_runtime::workgen::node_program`]) into its exact dynamic trace
//! ([`super::interp`]), runs the must-analysis of [`super::domain`] over
//! the L1I and L1D levels and steps the node's lane of
//! [`L15Must`] — the L1.5 state the fuzz-stream analysis
//! ([`super::stream`]) steps too — and folds the AH/NC classification into a
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
//! stores are *guaranteed* globally visible at completion (the kernel
//! publishes exactly the freshly granted ways, and join-at-merge keeps
//! them until the last consumer finishes), so consumers' reads of them are
//! **always hits** in the L1.5.

use std::collections::BTreeSet;
use std::fmt;

use l15_cache::plru::TreePlru;
use l15_core::plan::SchedulePlan;
use l15_dag::DagTask;
use l15_runtime::layout::TaskLayout;
use l15_runtime::workgen::{node_program, WorkScale};
use l15_soc::SocConfig;

use super::cost::CostModel;
use super::domain::{Census, Classification, L15Must, MustCache};
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
    /// Classification of the node's accesses. Always-miss is never
    /// produced here: a node's incoming machine state is unknown, so no
    /// access is provably a first touch.
    pub census: Census,
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

    let mut node_bounds: Vec<NodeBound> = dag
        .node_ids()
        .map(|v| NodeBound {
            node: v.0,
            bound_cycles: u64::MAX,
            census: Census::default(),
            routed_justified: false,
        })
        .collect();
    // Output lines guaranteed globally visible in the L1.5 after each
    // node completes.
    let mut guaranteed: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); dag.node_count()];

    for &v in dag.topological_order() {
        let traced = node_program(dag, v, &layout, scale)
            .map_err(|e| format!("program generation failed: {e}"))
            .and_then(|p| trace_program(&p, layout.code_of(v)).map_err(|e| e.to_string()));
        let trace = match traced {
            Ok(t) => t,
            Err(message) => {
                findings.push(CertifyFinding { code: "UNTRACEABLE", node: Some(v.0), message });
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
        let preds = if has_l15 && ways_ok { dag.predecessors(v) } else { &[] };
        let inherited = preds.iter().flat_map(|&(_, p)| guaranteed[p.0].iter().copied());
        let writable = if has_l15 { local } else { 0 };
        let mut l15 = L15Must::new(l15_sets, lb, &[writable], inherited.collect());
        // Without writable ways every store is conventional from the start;
        // with them, routing is known from the horizon on, if justified.
        let settle_at = if writable == 0 { Some(0) } else { routed_ok.then_some(settle_horizon) };
        let (cycles, census) = analyze_node_trace(&trace, &cost, cfg, &mut l15, settle_at);
        node_bounds[v.0] = NodeBound {
            node: v.0,
            bound_cycles: cycles + KERNEL_CTRL_SLACK * cost.ctrl,
            census,
            routed_justified: routed_ok,
        };

        if routed_ok {
            // gv_set at completion publishes the node's output lines. Output
            // buffers are disjoint, so the predecessors' lines fall outside
            // this node's range.
            let out_base = u64::from(layout.output_of(v));
            let out = out_base..out_base + dag.node(v).data_bytes;
            l15.publish(0, |line| out.contains(&line));
            guaranteed[v.0] = l15.published().range(out).copied().collect();
        }
    }

    CertifyReport { node_bounds, findings }
}

/// Steps the node's trace through its L1I / L1D must-caches and `l15`,
/// the node's single lane of L1.5 must-facts (settled at instruction
/// `settle_at`), composing the per-instruction cycles of the RV32 core.
/// Returns the cycle bound and the census.
fn analyze_node_trace(
    trace: &[TraceStep],
    cost: &CostModel,
    cfg: &SocConfig,
    l15: &mut L15Must,
    settle_at: Option<usize>,
) -> (u64, Census) {
    let lb = cfg.l1d.line_bytes;
    let sets_of =
        |l: &l15_soc::LevelConfig| ((l.capacity / (l.line_bytes * l.ways as u64)) as usize).max(1);
    let mut l1i = MustCache::new(sets_of(&cfg.l1i), TreePlru::must_capacity(cfg.l1i.ways), lb);
    let mut l1d = MustCache::new(sets_of(&cfg.l1d), TreePlru::must_capacity(cfg.l1d.ways), lb);

    // A load or fetch; a possible L1.5 miss may fill a writable way. The
    // node's incoming machine state is unknown, so no access is
    // a first touch and no fill is definite.
    let read = |must: &mut MustCache, l15: &mut L15Must, addr: u64| {
        let l1_hit = must.access(addr);
        let l15_hit = !l1_hit && l15.hits(0, addr);
        if !l1_hit && !l15_hit {
            l15.fill(0, addr, false);
        }
        cost.access(l1_hit, l15_hit, false)
    };

    let mut total = 0u64;
    let mut census = Census::default();
    for (idx, step) in trace.iter().enumerate() {
        if settle_at == Some(idx) {
            l15.settle();
        }
        let fetch = read(&mut l1i, l15, u64::from(step.fetch));
        let mem = step.mem.map(|(store, addr)| {
            let addr = u64::from(addr);
            if !store {
                return read(&mut l1d, l15, addr);
            }
            match l15.routing(0) {
                // Write-allocate through the L1D.
                Some(false) => cost.access(l1d.access(addr), false, false),
                // Routed store: bypasses the L1D (its copy of the line is
                // invalidated) and lands in a writable way.
                Some(true) => {
                    l1d.remove(addr);
                    cost.routed(l15.routed_store(0, addr))
                }
                // Routing unknown: either path may be taken.
                None => {
                    l1d.remove(addr);
                    l15.unknown_store(0, addr);
                    (Classification::Nc, cost.store_unknown())
                }
            }
        });
        let fetch_cycles = census.tally(fetch);
        let mem_cycles = mem.map_or(0, |m| census.tally(m));

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

    (total, census)
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
        assert!(sink.census.ah > sink.census.nc, "sink {:?}", sink.census);
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
