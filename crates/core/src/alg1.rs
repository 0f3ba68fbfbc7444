//! Algorithm 1: DAG scheduling with the L1.5 cache.
//!
//! The algorithm walks the DAG frontier by frontier, starting from
//! `Q = {v_src}`. Each iteration:
//!
//! 1. **Global-way lifecycle (lines 4–10).** Every *local* way group from
//!    the previous round flips to *global* and its ownership moves to the
//!    first successor of the producing node, making the dependent data
//!    visible to all consumers; way groups that were already global are
//!    freed (their data has been consumed).
//! 2. **Local allocation + priorities (lines 11–19).** Nodes in `Q` are
//!    examined in decreasing `λ_j`. While capacity remains, the node
//!    receives `F(v_j, Ω, ζ) = min(⌈δ_j/κ⌉, ζ − Σ ω.size)` local ways. The
//!    node's priority is the current `pri` counter, decremented per node —
//!    longest path first.
//! 3. **λ update (line 20).** All `λ_j` are recomputed by dynamic
//!    programming with the ETM-reduced edge costs implied by the allocation
//!    so far, so subsequent rounds chase the *residual* long paths. A grant
//!    is final, so a round rewrites only its own grantees' out-edges in the
//!    per-edge cost table.
//! 4. **Frontier update (line 21).** `Q` becomes the set of unexamined
//!    nodes whose predecessors have all been examined — [`next_frontier`].
//!
//! The returned [`SchedulePlan`] carries, per node, the priority and the
//! number of local ways; the makespan simulator applies
//! `ET(e_{j,k}, n_j)` to each edge accordingly.

use l15_dag::analysis;
use l15_dag::{Dag, DagTask, ExecutionTimeModel, NodeId};

use crate::plan::{SchedulePlan, WayGroup, WayGroupKind};

/// Way-allocation policies for the ablation study (DESIGN.md item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// The paper's `F(v_j, Ω, ζ) = min(⌈δ_j/κ⌉, ζ − Σ ω.size)`:
    /// longest-path-first greedy, full demand if capacity allows.
    #[default]
    GreedyFull,
    /// Proportional share: each node of the round gets an equal slice of
    /// the remaining capacity (capped by its demand).
    ProportionalShare,
}

/// Knobs for [`schedule_with_l15_with`] (the ablation entry point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alg1Options {
    /// Whether to re-run the dynamic-programming λ update after each round
    /// (Alg. 1 line 20). Disabling it reproduces a one-shot-λ variant.
    pub update_lambda: bool,
    /// The way-allocation function.
    pub allocation: AllocationPolicy,
}

impl Default for Alg1Options {
    fn default() -> Self {
        Alg1Options { update_lambda: true, allocation: AllocationPolicy::GreedyFull }
    }
}

/// Runs Alg. 1 on `task` with `zeta` L1.5 ways of `etm.way_bytes()` each.
///
/// # Panics
///
/// Panics if `zeta == 0` (a cache with no ways cannot be configured; use
/// the baseline scheduler instead).
pub fn schedule_with_l15(task: &DagTask, zeta: usize, etm: &ExecutionTimeModel) -> SchedulePlan {
    schedule_with_l15_with(task, zeta, etm, Alg1Options::default())
}

/// Alg. 1 with explicit ablation knobs (see [`Alg1Options`]).
///
/// # Panics
///
/// Panics if `zeta == 0`.
pub fn schedule_with_l15_with(
    task: &DagTask,
    zeta: usize,
    etm: &ExecutionTimeModel,
    opts: Alg1Options,
) -> SchedulePlan {
    assert!(zeta > 0, "the L1.5 cache needs at least one way");
    let dag = task.graph();
    let n = dag.node_count();

    let mut priorities = vec![0u32; n];
    let mut local_ways = vec![0usize; n];
    let mut preds_left: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
    let mut rounds: Vec<Vec<NodeId>> = Vec::new();

    // Ω: currently allocated way groups.
    let mut omega: Vec<WayGroup> = Vec::new();
    let mut pri = n as u32;

    // `ET(e, n_from)` and λ under the current allocation (initially none).
    let mut costs: Vec<f64> = dag.edge_ids().map(|e| etm.edge_cost_in(dag, e, 0)).collect();
    let mut lambda = analysis::lambda_from(dag, &costs);

    let mut round: Vec<NodeId> = vec![dag.source()];

    while !round.is_empty() {
        // --- lines 4–10: flip locals to global, free globals -------------
        let mut next_omega = Vec::with_capacity(omega.len());
        for mut group in omega.drain(..) {
            match group.kind {
                WayGroupKind::Local => {
                    group.kind = WayGroupKind::Global;
                    if let Some(&(_, first_succ)) = dag.successors(group.owner).first() {
                        group.owner = first_succ;
                    }
                    next_omega.push(group);
                }
                WayGroupKind::Global => { /* freed: dropped from Ω */ }
            }
        }
        omega = next_omega;

        // --- lines 11–19: examine Q in decreasing λ ----------------------
        round.sort_by(|&a, &b| {
            lambda.lambda[b.0]
                .partial_cmp(&lambda.lambda[a.0])
                .expect("lambda values are finite")
                .then(a.0.cmp(&b.0)) // deterministic tie-break
        });
        // Proportional share divides the free capacity of this round
        // evenly; the paper's F serves longest-λ first until it runs out.
        let round_cap = {
            let used: usize = omega.iter().map(|g| g.size).sum();
            zeta.saturating_sub(used)
        };
        let share = match opts.allocation {
            AllocationPolicy::GreedyFull => usize::MAX,
            AllocationPolicy::ProportionalShare => (round_cap / round.len().max(1)).max(1),
        };
        for &v in &round {
            let used: usize = omega.iter().map(|g| g.size).sum();
            if used < zeta {
                let need = etm.ways_required(dag.node(v).data_bytes);
                let grant = need.min(zeta - used).min(share);
                if grant > 0 {
                    omega.push(WayGroup { size: grant, kind: WayGroupKind::Local, owner: v });
                    local_ways[v.0] = grant;
                }
            }
            priorities[v.0] = pri;
            pri -= 1;
        }

        // --- line 21: next frontier --------------------------------------
        let next = next_frontier(dag, &round, &mut preds_left);

        // --- line 20: λ update via DP (no reader after the last round) ---
        if opts.update_lambda && !next.is_empty() {
            for &v in round.iter().filter(|v| local_ways[v.0] > 0) {
                for &(e, _) in dag.successors(v) {
                    costs[e.0] = etm.edge_cost_in(dag, e, local_ways[v.0]);
                }
            }
            debug_assert!(
                dag.edge_ids()
                    .all(|e| costs[e.0]
                        == etm.edge_cost_in(dag, e, local_ways[dag.edge(e).from.0])),
                "the cost table is edge_cost_in under the allocation so far"
            );
            lambda = analysis::lambda_from(dag, &costs);
        }

        rounds.push(std::mem::replace(&mut round, next));
    }

    SchedulePlan { priorities, local_ways, rounds }
}

/// Alg. 1 line 21: the nodes whose last unexamined predecessor (counted in
/// `preds_left`, initially the in-degrees) was in `round`, in no particular
/// order — a round is sorted before use.
pub(crate) fn next_frontier(dag: &Dag, round: &[NodeId], preds_left: &mut [usize]) -> Vec<NodeId> {
    let mut next = Vec::new();
    for &v in round {
        for &(_, s) in dag.successors(v) {
            preds_left[s.0] -= 1;
            if preds_left[s.0] == 0 {
                next.push(s);
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_dag::gen::{DagGenParams, DagGenerator};
    use l15_dag::{DagBuilder, Node};
    use l15_testkit::rng::SmallRng;

    fn etm() -> ExecutionTimeModel {
        ExecutionTimeModel::new(2048).unwrap()
    }

    /// Fig. 6's running example: v1 fans out to v2..v4, converging to v7.
    fn example_task() -> DagTask {
        let mut b = DagBuilder::new();
        let v1 = b.add_node(Node::new(2.0, 4096)); // needs 2 ways
        let v2 = b.add_node(Node::new(5.0, 2048));
        let v3 = b.add_node(Node::new(3.0, 2048));
        let v4 = b.add_node(Node::new(4.0, 2048));
        let v5 = b.add_node(Node::new(2.0, 2048));
        let v6 = b.add_node(Node::new(3.0, 2048));
        let v7 = b.add_node(Node::new(1.0, 0));
        b.add_edge(v1, v2, 2.0, 0.6).unwrap();
        b.add_edge(v1, v3, 2.0, 0.6).unwrap();
        b.add_edge(v1, v4, 2.0, 0.6).unwrap();
        b.add_edge(v2, v5, 1.5, 0.5).unwrap();
        b.add_edge(v3, v5, 1.5, 0.5).unwrap();
        b.add_edge(v3, v6, 1.5, 0.5).unwrap();
        b.add_edge(v4, v6, 1.5, 0.5).unwrap();
        b.add_edge(v5, v7, 1.0, 0.5).unwrap();
        b.add_edge(v6, v7, 1.0, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), 100.0, 100.0).unwrap()
    }

    #[test]
    fn priorities_are_a_permutation() {
        let t = example_task();
        let plan = schedule_with_l15(&t, 16, &etm());
        let mut p: Vec<u32> = plan.priorities.clone();
        p.sort_unstable();
        let expected: Vec<u32> = (1..=t.graph().node_count() as u32).collect();
        assert_eq!(p, expected);
    }

    #[test]
    fn source_has_highest_priority() {
        let t = example_task();
        let plan = schedule_with_l15(&t, 16, &etm());
        let n = t.graph().node_count() as u32;
        assert_eq!(plan.priority(t.graph().source()), n);
    }

    #[test]
    fn rounds_follow_the_frontier() {
        let t = example_task();
        let plan = schedule_with_l15(&t, 16, &etm());
        // Fig. 6 structure: {v1}, {v2,v3,v4}, {v5,v6}, {v7}.
        assert_eq!(plan.rounds.len(), 4);
        assert_eq!(plan.rounds[0], vec![NodeId(0)]);
        assert_eq!(plan.rounds[1].len(), 3);
        assert_eq!(plan.rounds[2].len(), 2);
        assert_eq!(plan.rounds[3], vec![NodeId(6)]);
    }

    #[test]
    fn longer_path_gets_higher_priority_within_round() {
        let t = example_task();
        let plan = schedule_with_l15(&t, 16, &etm());
        // Within round 1, v2 (wcet 5) heads the longest path v1-v2-v5-v7
        // (5+2+1.5+2+1+1=...); compare priorities by recomputing λ with
        // zero-allocation costs — v2's λ must dominate v3's.
        let dag = t.graph();
        let lam = l15_dag::analysis::lambda_with(dag, |e| {
            etm().edge_cost_in(dag, e, plan.ways(dag.edge(e).from))
        });
        let (v2, v3, v4) = (NodeId(1), NodeId(2), NodeId(3));
        let by_lambda = |a: NodeId, b: NodeId| lam.lambda[a.0] > lam.lambda[b.0];
        // Priorities must be consistent with λ ordering inside the round.
        for &(a, b) in &[(v2, v3), (v2, v4), (v3, v4)] {
            if by_lambda(a, b) {
                assert!(plan.priority(a) > plan.priority(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn way_allocation_respects_demand() {
        let t = example_task();
        let plan = schedule_with_l15(&t, 16, &etm());
        // v1 produces 4096 B = 2 ways of 2 KiB.
        assert_eq!(plan.ways(NodeId(0)), 2);
        // v2..v4 produce 2048 B = 1 way each.
        for v in 1..=3 {
            assert_eq!(plan.ways(NodeId(v)), 1);
        }
        // The sink produces nothing.
        assert_eq!(plan.ways(t.graph().sink()), 0);
    }

    #[test]
    fn capacity_is_never_exceeded_per_round_window() {
        // With ζ = 3: v1 takes 2; in round 1 those 2 flip to global, so only
        // 1 way remains for v2..v4 — the highest-λ node gets it.
        let t = example_task();
        let plan = schedule_with_l15(&t, 3, &etm());
        assert_eq!(plan.ways(NodeId(0)), 2);
        let round1_total: usize = plan.rounds[1].iter().map(|&v| plan.ways(v)).sum();
        assert_eq!(round1_total, 1, "only ζ − |global| ways available");
    }

    #[test]
    fn zero_capacity_panics() {
        let t = example_task();
        let r = std::panic::catch_unwind(|| schedule_with_l15(&t, 0, &etm()));
        assert!(r.is_err());
    }

    #[test]
    fn random_dags_satisfy_invariants() {
        let gen = DagGenerator::new(DagGenParams::default());
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..10 {
            let t = gen.generate(&mut rng).unwrap();
            let zeta = 16;
            let plan = schedule_with_l15(&t, zeta, &etm());
            let n = t.graph().node_count();
            // Priorities are a permutation of 1..=n.
            let mut p = plan.priorities.clone();
            p.sort_unstable();
            assert_eq!(p, (1..=n as u32).collect::<Vec<_>>());
            // Every node appears in exactly one round.
            let total: usize = plan.rounds.iter().map(Vec::len).sum();
            assert_eq!(total, n);
            // A node never gets more ways than its data needs.
            for v in t.graph().node_ids() {
                let need = etm().ways_required(t.graph().node(v).data_bytes);
                assert!(plan.ways(v) <= need);
            }
            // Within any two consecutive rounds, live way groups never
            // exceed ζ: check per round sum of this round's local + previous
            // round's (now global) ways.
            for w in plan.rounds.windows(2) {
                let live: usize = w[0].iter().chain(w[1].iter()).map(|&v| plan.ways(v)).sum();
                assert!(live <= zeta, "live ways {live} exceed ζ {zeta}");
            }
            // Priorities respect precedence: predecessors examined earlier
            // always hold larger priorities.
            for e in t.graph().edge_ids() {
                let edge = t.graph().edge(e);
                assert!(
                    plan.priority(edge.from) > plan.priority(edge.to),
                    "precedence violated on {e}"
                );
            }
        }
    }

    #[test]
    fn ways_help_long_paths_first_under_scarcity() {
        // ζ = 2: in each round only the longest-λ node can be served.
        let t = example_task();
        let plan = schedule_with_l15(&t, 2, &etm());
        // v1 takes both ways. Round 1 has no free capacity (2 global), so
        // nobody gets local ways.
        assert_eq!(plan.ways(NodeId(0)), 2);
        let round1_total: usize = plan.rounds[1].iter().map(|&v| plan.ways(v)).sum();
        assert_eq!(round1_total, 0);
        // Round 2: the globals from round 0 were freed in round 1's
        // preamble... they became global in round 1 and freed in round 2,
        // while round 1 allocated nothing; so round 2 has capacity again.
        let round2_total: usize = plan.rounds[2].iter().map(|&v| plan.ways(v)).sum();
        assert!(round2_total > 0);
    }
}
