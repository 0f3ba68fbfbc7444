//! Safe timing bounds for DAG tasks with communication costs.
//!
//! Sec. 4.2 notes that the proposed method "does not undermine the
//! predictability, as the inter-core interference is eliminated in the
//! L1.5 Cache. Existing analysis (e.g., the one in \[8\]) can be applied to
//! provide safe timing bounds, with minor modifications for communication
//! cost on edges." This module provides those modified bounds:
//!
//! * [`makespan_bound`] — a Graham-style bound for non-preemptive
//!   work-conserving list scheduling in which a dispatched node may hold
//!   its core while waiting for dependent data. Each node `v_j` is charged
//!   an *occupancy* `C'_j = C_j + max_{e ∈ in(v_j)} ET(e)` (the longest it
//!   can hold a core), giving `R ≤ L' + (W' − L') / m` with `L'` the
//!   longest path and `W'` the total occupancy.
//! * [`schedulable`] — deadline test for a single DAG task.
//! * [`certified_makespan_bound`] — the same bound over the per-node cycle
//!   bounds the abstract-interpretation certifier proves.
//!
//! Multi-DAG (federated) schedulability lives in [`crate::federated`],
//! which sizes dedicated clusters and packs light tasks with these bounds.
//!
//! The bounds account for the system through the per-edge cost closure, so
//! the same machinery analyses the proposed system (ETM-reduced costs,
//! deterministic) and the conventional baselines (full costs — their
//! *worst case* since interference can only inflate them further; safe
//! bounds for CMPs must also inflate `C_j`, which
//! [`SystemModel::worst_case_edge_cost`] and
//! [`SystemModel::worst_case_exec`] provide).
//!
//! [`SystemModel::worst_case_edge_cost`]: crate::baseline::SystemModel::worst_case_edge_cost
//! [`SystemModel::worst_case_exec`]: crate::baseline::SystemModel::worst_case_exec

use l15_dag::{DagTask, EdgeId, NodeId};

/// Result of the single-task bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakespanBound {
    /// The bound `R` on the makespan.
    pub bound: f64,
    /// The longest occupancy-weighted path `L'`.
    pub path_term: f64,
    /// The interference term `(W' − L')/m`.
    pub interference_term: f64,
}

/// Computes the Graham-style bound for `task` on `m` cores, with per-edge
/// communication costs and per-node execution times supplied by closures.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn makespan_bound<E, X>(
    task: &DagTask,
    m: usize,
    mut exec_time: X,
    mut edge_cost: E,
) -> MakespanBound
where
    X: FnMut(NodeId) -> f64,
    E: FnMut(EdgeId) -> f64,
{
    assert!(m > 0, "need at least one core");
    let dag = task.graph();
    // Occupancy per node: execution plus the worst single incoming wait.
    let occupancy: Vec<f64> = dag
        .node_ids()
        .map(|v| {
            let wait =
                dag.predecessors(v).iter().map(|&(e, _)| edge_cost(e)).fold(0.0f64, f64::max);
            exec_time(v) + wait
        })
        .collect();
    let total: f64 = occupancy.iter().sum();

    // Longest path under occupancy weights (edge costs are already folded
    // into the consumer's occupancy, so edges weigh zero here — but a path
    // only sees *one* of the incoming edges, hence this is conservative).
    let mut dist = vec![0.0f64; dag.node_count()];
    let mut longest = 0.0f64;
    for &v in dag.topological_order() {
        let best_in = dag.predecessors(v).iter().map(|&(_, p)| dist[p.0]).fold(0.0f64, f64::max);
        dist[v.0] = best_in + occupancy[v.0];
        longest = longest.max(dist[v.0]);
    }

    let interference = (total - longest).max(0.0) / m as f64;
    MakespanBound {
        bound: longest + interference,
        path_term: longest,
        interference_term: interference,
    }
}

/// Makespan bound computed from **statically certified** per-node cycle
/// bounds (`l15-check`'s abstract interpretation).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedMakespan {
    /// The Graham-style bound over the certified node cycles.
    pub makespan: MakespanBound,
    /// Per-node slack: `R` minus the longest certified path through the
    /// node. A node with zero slack sits on the critical path of the
    /// bound; large-slack nodes can absorb that many extra cycles without
    /// moving `R`.
    pub node_slack: Vec<f64>,
}

/// [`makespan_bound`] over statically certified per-node cycle bounds.
///
/// Certified bounds already charge every read of dependent data inside
/// the consuming node (always-hit or full-chain), so edges carry **zero**
/// additional cost here — the producer→consumer wait is pure precedence.
///
/// # Panics
///
/// Panics if `m == 0` or `node_cycles` is not one bound per node.
pub fn certified_makespan_bound(
    task: &DagTask,
    m: usize,
    node_cycles: &[u64],
) -> CertifiedMakespan {
    let dag = task.graph();
    assert_eq!(node_cycles.len(), dag.node_count(), "one certified bound per node");
    let makespan = makespan_bound(task, m, |v| node_cycles[v.0] as f64, |_| 0.0);

    // Longest certified path through each node (forward + backward chains).
    let order = dag.topological_order();
    let mut fwd = vec![0.0f64; dag.node_count()];
    for &v in order {
        let best_in = dag.predecessors(v).iter().map(|&(_, p)| fwd[p.0]).fold(0.0f64, f64::max);
        fwd[v.0] = best_in + node_cycles[v.0] as f64;
    }
    let mut bwd = vec![0.0f64; dag.node_count()];
    for &v in order.iter().rev() {
        let best_out = dag.successors(v).iter().map(|&(_, s)| bwd[s.0]).fold(0.0f64, f64::max);
        bwd[v.0] = best_out + node_cycles[v.0] as f64;
    }
    let node_slack = (0..dag.node_count())
        .map(|i| (makespan.bound - (fwd[i] + bwd[i] - node_cycles[i] as f64)).max(0.0))
        .collect();
    CertifiedMakespan { makespan, node_slack }
}

/// Deadline test: is the bound within `D_i`?
pub fn schedulable<E, X>(task: &DagTask, m: usize, exec_time: X, edge_cost: E) -> bool
where
    X: FnMut(NodeId) -> f64,
    E: FnMut(EdgeId) -> f64,
{
    makespan_bound(task, m, exec_time, edge_cost).bound <= task.deadline() + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::SystemModel;
    use crate::makespan::simulate;
    use l15_dag::gen::{DagGenParams, DagGenerator};
    use l15_dag::{DagBuilder, Node};
    use l15_testkit::rng::SmallRng;

    fn gen_task(seed: u64) -> DagTask {
        DagGenerator::new(DagGenParams::default())
            .generate(&mut SmallRng::seed_from_u64(seed))
            .unwrap()
    }

    #[test]
    fn bound_dominates_simulation() {
        // Safety: for many random DAGs, the analytic bound must be at
        // least the simulated makespan under the same cost model.
        for seed in 0..25 {
            let t = gen_task(seed);
            let model = SystemModel::proposed();
            let plan = model.plan(&t);
            let g = t.graph();
            for m in [2usize, 4, 8] {
                let bound = makespan_bound(
                    &t,
                    m,
                    |v| g.node(v).wcet,
                    |e| {
                        let from = g.edge(e).from;
                        model.etm.edge_cost_in(g, e, plan.local_ways[from.0])
                    },
                );
                let sim = simulate(
                    &t,
                    m,
                    &plan.priorities,
                    |v| g.node(v).wcet,
                    |e, _| {
                        let from = g.edge(e).from;
                        model.etm.edge_cost_in(g, e, plan.local_ways[from.0])
                    },
                );
                assert!(
                    bound.bound >= sim.makespan - 1e-6,
                    "seed {seed}, m {m}: bound {} < sim {}",
                    bound.bound,
                    sim.makespan
                );
            }
        }
    }

    #[test]
    fn bound_is_tight_for_a_chain_on_one_core() {
        let mut b = DagBuilder::new();
        let x = b.add_node(Node::new(2.0, 1024));
        let y = b.add_node(Node::new(3.0, 1024));
        b.add_edge(x, y, 1.5, 0.5).unwrap();
        let t = DagTask::new(b.build().unwrap(), 100.0, 100.0).unwrap();
        let bound = makespan_bound(&t, 1, |v| t.graph().node(v).wcet, |e| t.graph().edge(e).cost);
        // Chain: 2 + (1.5 wait) + 3 = 6.5; no interference on 1 core? W'=L'
        assert!((bound.bound - 6.5).abs() < 1e-9, "bound {}", bound.bound);
        assert_eq!(bound.interference_term, 0.0);
    }

    #[test]
    fn more_cores_tighten_the_bound() {
        let t = gen_task(3);
        let g = t.graph();
        let b2 = makespan_bound(&t, 2, |v| g.node(v).wcet, |e| g.edge(e).cost);
        let b8 = makespan_bound(&t, 8, |v| g.node(v).wcet, |e| g.edge(e).cost);
        assert!(b8.bound <= b2.bound);
        assert_eq!(b2.path_term, b8.path_term);
    }

    #[test]
    fn reduced_comm_costs_tighten_the_bound() {
        let t = gen_task(5);
        let g = t.graph();
        let full = makespan_bound(&t, 8, |v| g.node(v).wcet, |e| g.edge(e).cost);
        let reduced = makespan_bound(&t, 8, |v| g.node(v).wcet, |e| g.edge(e).cost * 0.3);
        assert!(reduced.bound < full.bound);
    }

    #[test]
    fn schedulable_respects_deadline() {
        let mut b = DagBuilder::new();
        let x = b.add_node(Node::new(5.0, 1024));
        let y = b.add_node(Node::new(5.0, 1024));
        b.add_edge(x, y, 1.0, 0.5).unwrap();
        let tight = DagTask::new(b.build().unwrap(), 10.0, 10.0).unwrap();
        assert!(!schedulable(
            &tight,
            4,
            |v| tight.graph().node(v).wcet,
            |e| tight.graph().edge(e).cost
        ));
        let mut b2 = DagBuilder::new();
        let x = b2.add_node(Node::new(2.0, 1024));
        let y = b2.add_node(Node::new(2.0, 1024));
        b2.add_edge(x, y, 1.0, 0.5).unwrap();
        let loose = DagTask::new(b2.build().unwrap(), 10.0, 10.0).unwrap();
        assert!(schedulable(
            &loose,
            4,
            |v| loose.graph().node(v).wcet,
            |e| loose.graph().edge(e).cost
        ));
    }

    #[test]
    fn certified_bound_matches_hand_computation_on_a_chain() {
        let mut b = DagBuilder::new();
        let x = b.add_node(Node::new(1.0, 1024));
        let y = b.add_node(Node::new(1.0, 1024));
        b.add_edge(x, y, 1.0, 0.5).unwrap();
        let t = DagTask::new(b.build().unwrap(), 1e9, 1e9).unwrap();
        let c = certified_makespan_bound(&t, 4, &[100, 250]);
        // A chain: the bound is the path itself, every node is critical.
        assert!((c.makespan.bound - 350.0).abs() < 1e-9);
        assert_eq!(c.node_slack, vec![0.0, 0.0]);
    }

    #[test]
    fn certified_slack_identifies_off_critical_nodes() {
        // Diamond with one heavy and one light branch.
        let mut b = DagBuilder::new();
        let s = b.add_node(Node::new(1.0, 512));
        let heavy = b.add_node(Node::new(1.0, 512));
        let light = b.add_node(Node::new(1.0, 512));
        let t = b.add_node(Node::new(1.0, 0));
        b.add_edge(s, heavy, 1.0, 0.5).unwrap();
        b.add_edge(s, light, 1.0, 0.5).unwrap();
        b.add_edge(heavy, t, 1.0, 0.5).unwrap();
        b.add_edge(light, t, 1.0, 0.5).unwrap();
        let task = DagTask::new(b.build().unwrap(), 1e9, 1e9).unwrap();
        let c = certified_makespan_bound(&task, 4, &[10, 1000, 50, 10]);
        assert!(c.node_slack[1] < c.node_slack[2], "heavy branch has less slack");
        assert_eq!(c.node_slack[1], c.node_slack[0], "source shares the critical path");
        assert!(c.node_slack.iter().all(|&s| s >= 0.0));
        // The bound dominates the critical path 10 + 1000 + 10.
        assert!(c.makespan.bound >= 1020.0);
    }

    #[test]
    #[should_panic(expected = "one certified bound per node")]
    fn certified_bound_rejects_mismatched_lengths() {
        let mut b = DagBuilder::new();
        b.add_node(Node::new(1.0, 0));
        let t = DagTask::new(b.build().unwrap(), 1e9, 1e9).unwrap();
        certified_makespan_bound(&t, 2, &[1, 2]);
    }
}
