//! Path analysis: longest-path lengths `λ_j`, critical paths, width
//! profiles, reachability and makespan bounds.
//!
//! `λ_j` is defined in Sec. 4.1 as the length of the longest path that
//! *contains* `v_j`, counting node computation times and edge communication
//! costs along the path. Alg. 1 (line 20) re-computes all `λ_j` by dynamic
//! programming each round, with edge costs replaced by their ETM-reduced
//! values `ET(e_{j,k}, n_j)` once `n_j` ways have been allocated to the
//! producer; [`lambda_from`] takes that per-edge cost table directly and
//! [`lambda_with`] tabulates an arbitrary per-edge cost function first.
//!
//! Nothing here sorts the graph: every sweep borrows
//! [`Dag::topological_order`], computed once where `DagBuilder::build`
//! proves acyclicity, and the critical path is read off the
//! [`PathLengths`] the caller already holds (DESIGN.md §4.8).

use crate::model::{Dag, EdgeId, NodeId};

/// The DAG's topological order (Kahn's algorithm, deterministic:
/// lowest-index-first among ready nodes), as an owned copy of
/// [`Dag::topological_order`].
///
/// The returned vector contains every node exactly once, and every edge goes
/// from an earlier to a later position.
pub fn topological_order(dag: &Dag) -> Vec<NodeId> {
    dag.topological_order().to_vec()
}

/// Per-node longest-path decomposition produced by [`lambda_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct PathLengths {
    /// `head[j]`: longest path length from the source up to and including `v_j`.
    pub head: Vec<f64>,
    /// `tail[j]`: longest path length from `v_j` (inclusive) down to the sink.
    pub tail: Vec<f64>,
    /// `λ_j = head[j] + tail[j] − C_j`: longest path containing `v_j`.
    pub lambda: Vec<f64>,
}

impl PathLengths {
    /// `λ` of the whole DAG = critical-path length = `λ_src` = `λ_sin`.
    pub fn critical_path_length(&self) -> f64 {
        self.lambda.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// `λ_j` for one node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn lambda_of(&self, v: NodeId) -> f64 {
        self.lambda[v.0]
    }

    /// One critical path (source → sink) as a node sequence, walked off
    /// `tail`. `edge_cost` must be the cost function these lengths were
    /// computed under.
    pub fn critical_path<F>(&self, dag: &Dag, mut edge_cost: F) -> Vec<NodeId>
    where
        F: FnMut(EdgeId) -> f64,
    {
        let mut path = vec![dag.source()];
        let mut v = dag.source();
        while v != dag.sink() {
            // Follow the successor on the longest remaining path.
            let (_, next) = dag
                .successors(v)
                .iter()
                .copied()
                .max_by(|&(e1, s1), &(e2, s2)| {
                    let a = edge_cost(e1) + self.tail[s1.0];
                    let b = edge_cost(e2) + self.tail[s2.0];
                    a.partial_cmp(&b).expect("path lengths are finite")
                })
                .expect("non-sink node has a successor");
            path.push(next);
            v = next;
        }
        path
    }
}

/// Computes `λ_j` for every node from a per-edge cost table (`costs[e]` for
/// `EdgeId(e)`, e.g. the ETM-reduced costs given currently allocated ways).
///
/// Runs two linear DAG sweeps (forward and backward) in `O(|V| + |E|)`.
///
/// # Panics
///
/// Panics if `costs` is not one cost per edge.
pub fn lambda_from(dag: &Dag, costs: &[f64]) -> PathLengths {
    assert_eq!(costs.len(), dag.edge_count(), "one cost per edge");
    let n = dag.node_count();
    let order = dag.topological_order();

    let mut head = vec![0.0f64; n];
    for &v in order {
        let c = dag.node(v).wcet;
        let best_in =
            dag.predecessors(v).iter().map(|&(e, p)| head[p.0] + costs[e.0]).fold(0.0f64, f64::max);
        head[v.0] = best_in + c;
    }

    let mut tail = vec![0.0f64; n];
    for &v in order.iter().rev() {
        let c = dag.node(v).wcet;
        let best_out =
            dag.successors(v).iter().map(|&(e, s)| tail[s.0] + costs[e.0]).fold(0.0f64, f64::max);
        tail[v.0] = best_out + c;
    }

    let lambda = (0..n).map(|i| head[i] + tail[i] - dag.node(NodeId(i)).wcet).collect();
    PathLengths { head, tail, lambda }
}

/// [`lambda_from`] with the costs supplied by `edge_cost`, called once per
/// edge in index order.
pub fn lambda_with<F>(dag: &Dag, edge_cost: F) -> PathLengths
where
    F: FnMut(EdgeId) -> f64,
{
    let costs: Vec<f64> = dag.edge_ids().map(edge_cost).collect();
    lambda_from(dag, &costs)
}

/// `λ_j` with the full (unaccelerated) edge costs `μ`.
pub fn lambda(dag: &Dag) -> PathLengths {
    lambda_with(dag, |e| dag.edge(e).cost)
}

/// Extracts one critical path (source → sink) under the full edge costs,
/// as a node sequence.
pub fn critical_path(dag: &Dag) -> Vec<NodeId> {
    lambda(dag).critical_path(dag, |e| dag.edge(e).cost)
}

/// Per-node slack under full edge costs: how much a node's λ falls short
/// of the critical path. Zero slack = the node lies on a critical path.
pub fn slack(dag: &Dag) -> Vec<f64> {
    let l = lambda(dag);
    let cp = l.critical_path_length();
    l.lambda.iter().map(|&x| cp - x).collect()
}

/// The *width profile*: for each precedence depth (longest hop-distance
/// from the source), how many nodes sit at that depth — the DAG's maximum
/// exploitable parallelism per phase.
pub fn width_profile(dag: &Dag) -> Vec<usize> {
    let mut depth = vec![0usize; dag.node_count()];
    let mut max_depth = 0;
    for &v in dag.topological_order() {
        let d = dag.predecessors(v).iter().map(|&(_, p)| depth[p.0] + 1).max().unwrap_or(0);
        depth[v.0] = d;
        max_depth = max_depth.max(d);
    }
    let mut widths = vec![0usize; max_depth + 1];
    for &d in &depth {
        widths[d] += 1;
    }
    widths
}

/// Lower bound on the makespan of `dag` on `m` cores:
/// `max(critical path, (W + residual comm) / m)` — the classic Graham bound
/// extended with edge costs on the critical path.
pub fn makespan_lower_bound(dag: &Dag, m: usize) -> f64 {
    assert!(m > 0, "need at least one core");
    let cp = lambda(dag).critical_path_length();
    let w = dag.total_work() / m as f64;
    cp.max(w)
}

/// Upper bound on the makespan: fully sequential execution, every edge paid.
pub fn makespan_upper_bound(dag: &Dag) -> f64 {
    dag.total_work() + dag.total_comm_cost()
}

/// Transitive reachability over the DAG edges, as per-node ancestor
/// bitsets (O(V·E/64) to build, O(1) to query).
///
/// Two nodes with no path either way are *concurrent*: the schedule may
/// place them on different cores at the same time, which is exactly the
/// precondition the happens-before race rule of `l15-check` tests for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachability {
    n: usize,
    words: usize,
    /// `ancestors[v]`: bitset of nodes with a path **to** `v` (v excluded).
    ancestors: Vec<u64>,
}

impl Reachability {
    /// Builds the reachability relation of `dag`.
    pub fn new(dag: &Dag) -> Self {
        let n = dag.node_count();
        let words = n.div_ceil(64);
        let mut ancestors = vec![0u64; n * words];
        for &v in dag.topological_order() {
            // Union every predecessor's ancestor set, plus the predecessor.
            for &(_, p) in dag.predecessors(v) {
                for w in 0..words {
                    let bits = ancestors[p.0 * words + w];
                    ancestors[v.0 * words + w] |= bits;
                }
                ancestors[v.0 * words + p.0 / 64] |= 1u64 << (p.0 % 64);
            }
        }
        Reachability { n, words, ancestors }
    }

    /// Whether a directed path `from → … → to` exists (false for
    /// `from == to`).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        assert!(from.0 < self.n && to.0 < self.n, "node out of range");
        self.ancestors[to.0 * self.words + from.0 / 64] & (1u64 << (from.0 % 64)) != 0
    }

    /// Whether `a` and `b` are order-unrelated (distinct, no path either
    /// way).
    pub fn concurrent(&self, a: NodeId, b: NodeId) -> bool {
        a != b && !self.reaches(a, b) && !self.reaches(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DagBuilder, Node};

    /// The example DAG from Fig. 1 of the paper: seven nodes, with node
    /// computation times (black) and edge communication costs (red).
    /// v1 -(2)-> v2,v3,v4; v2 -(1)-> v5; v3 -(1)-> v5 ... we reconstruct a
    /// plausible shape: v1 fans out to v2,v3,v4 (cost 2), middle nodes join
    /// into v5/v6, sink v7.
    fn fig1_like() -> Dag {
        let mut b = DagBuilder::new();
        let v1 = b.add_node(Node::new(1.0, 4096)); // source
        let v2 = b.add_node(Node::new(3.0, 2048));
        let v3 = b.add_node(Node::new(2.0, 2048));
        let v4 = b.add_node(Node::new(4.0, 2048));
        let v5 = b.add_node(Node::new(2.0, 2048));
        let v6 = b.add_node(Node::new(3.0, 2048));
        let v7 = b.add_node(Node::new(1.0, 0)); // sink
        b.add_edge(v1, v2, 2.0, 0.5).unwrap();
        b.add_edge(v1, v3, 2.0, 0.5).unwrap();
        b.add_edge(v1, v4, 2.0, 0.5).unwrap();
        b.add_edge(v2, v5, 1.0, 0.5).unwrap();
        b.add_edge(v3, v5, 1.0, 0.5).unwrap();
        b.add_edge(v3, v6, 1.0, 0.5).unwrap();
        b.add_edge(v4, v6, 2.0, 0.5).unwrap();
        b.add_edge(v5, v7, 1.0, 0.5).unwrap();
        b.add_edge(v6, v7, 1.0, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topological_order_respects_edges() {
        let dag = fig1_like();
        let order = topological_order(&dag);
        assert_eq!(order.len(), dag.node_count());
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.node_count()];
            for (i, v) in order.iter().enumerate() {
                p[v.0] = i;
            }
            p
        };
        for e in dag.edge_ids() {
            let edge = dag.edge(e);
            assert!(pos[edge.from.0] < pos[edge.to.0]);
        }
    }

    #[test]
    fn critical_path_length_matches_manual() {
        let dag = fig1_like();
        // Longest path: v1 -2-> v4 -2-> v6 -1-> v7 = 1+2+4+2+3+1+1 = 14
        let l = lambda(&dag);
        assert!((l.critical_path_length() - 14.0).abs() < 1e-12);
        // λ of v4 equals the critical path (v4 lies on it).
        assert!((l.lambda_of(NodeId(3)) - 14.0).abs() < 1e-12);
        // λ of v2: v1 -2-> v2 -1-> v5 -1-> v7 = 1+2+3+1+2+1+1 = 11
        assert!((l.lambda_of(NodeId(1)) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_source_and_sink_are_critical() {
        let dag = fig1_like();
        let l = lambda(&dag);
        let cp = l.critical_path_length();
        assert!((l.lambda_of(dag.source()) - cp).abs() < 1e-12);
        assert!((l.lambda_of(dag.sink()) - cp).abs() < 1e-12);
    }

    #[test]
    fn reduced_edge_costs_reduce_lambda() {
        let dag = fig1_like();
        let full = lambda(&dag).critical_path_length();
        let reduced = lambda_with(&dag, |e| dag.edge(e).cost * 0.3).critical_path_length();
        assert!(reduced < full);
        // With zero comm cost, critical path = computation chain only:
        // v1+v4+v6+v7 = 9
        let zero = lambda_with(&dag, |_| 0.0).critical_path_length();
        assert!((zero - 9.0).abs() < 1e-12);
    }

    #[test]
    fn lambda_from_is_lambda_with_tabulated() {
        let dag = fig1_like();
        let costs: Vec<f64> = dag.edge_ids().map(|e| 0.25 + e.0 as f64).collect();
        let from = lambda_from(&dag, &costs);
        assert_eq!(from, lambda_with(&dag, |e| costs[e.0]));
        // The path walked off those lengths is a longest one under them.
        let path = from.critical_path(&dag, |e| costs[e.0]);
        let len: f64 = path.iter().map(|&v| dag.node(v).wcet).sum::<f64>()
            + path.windows(2).map(|w| costs[dag.find_edge(w[0], w[1]).unwrap().0]).sum::<f64>();
        assert!((len - from.critical_path_length()).abs() < 1e-12);
        // One cost per edge, or a panic.
        assert!(std::panic::catch_unwind(|| lambda_from(&dag, &costs[1..])).is_err());
    }

    #[test]
    fn critical_path_nodes_are_connected_and_span() {
        let dag = fig1_like();
        let path = critical_path(&dag);
        assert_eq!(path[0], dag.source());
        assert_eq!(*path.last().unwrap(), dag.sink());
        for w in path.windows(2) {
            assert!(dag.find_edge(w[0], w[1]).is_some());
        }
        // Its length equals the critical-path length.
        let mut len = 0.0;
        for w in path.windows(2) {
            let e = dag.find_edge(w[0], w[1]).unwrap();
            len += dag.edge(e).cost;
        }
        len += path.iter().map(|&v| dag.node(v).wcet).sum::<f64>();
        assert!((len - lambda(&dag).critical_path_length()).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_ordered() {
        let dag = fig1_like();
        for m in 1..=8 {
            let lo = makespan_lower_bound(&dag, m);
            let hi = makespan_upper_bound(&dag);
            assert!(lo <= hi + 1e-12);
        }
        // On one core the lower bound is at least total work.
        assert!(makespan_lower_bound(&dag, 1) >= dag.total_work());
    }

    #[test]
    fn slack_zero_on_critical_path() {
        let dag = fig1_like();
        let sl = slack(&dag);
        let path = critical_path(&dag);
        for v in path {
            assert!(sl[v.0].abs() < 1e-9, "critical node {v} has slack {}", sl[v.0]);
        }
        // Non-critical nodes have positive slack.
        assert!(sl[1] > 0.0, "v2 is off the critical path");
    }

    #[test]
    fn width_profile_partitions_nodes() {
        let dag = fig1_like();
        let w = width_profile(&dag);
        assert_eq!(w.iter().sum::<usize>(), dag.node_count());
        // Fig. 1 shape: 1 source, 3 middle, 2 join, 1 sink.
        assert_eq!(w, vec![1, 3, 2, 1]);
    }

    #[test]
    fn huge_wcets_accumulate_exactly() {
        // Guard against narrowing: WCETs near and above u32::MAX must
        // flow through the path analysis as exact f64 sums (integers up
        // to 2^53 are exactly representable, so any `as u32`/`as i32`
        // sneaking into the sweeps would show up as a wrong total here).
        let big = u32::MAX as f64; // 4294967295
        let bigger = (u64::from(u32::MAX) + 7) as f64;
        let mut b = DagBuilder::new();
        let a = b.add_node(Node::new(big, 1024));
        let c = b.add_node(Node::new(bigger, 1024));
        let d = b.add_node(Node::new(big, 0));
        b.add_edge(a, c, big, 0.5).unwrap();
        b.add_edge(c, d, 3.0, 0.5).unwrap();
        let dag = b.build().unwrap();
        let expected = big + big + bigger + 3.0 + big;
        let l = lambda(&dag);
        assert_eq!(l.critical_path_length(), expected);
        assert_eq!(l.lambda_of(NodeId(1)), expected);
        assert_eq!(makespan_upper_bound(&dag), expected);
        assert_eq!(makespan_lower_bound(&dag, 1), expected);
    }

    #[test]
    fn single_node_dag() {
        let mut b = DagBuilder::new();
        b.add_node(Node::new(5.0, 0));
        let dag = b.build().unwrap();
        let l = lambda(&dag);
        assert_eq!(l.critical_path_length(), 5.0);
        assert_eq!(critical_path(&dag), vec![NodeId(0)]);
        assert_eq!(topological_order(&dag), vec![NodeId(0)]);
    }

    #[test]
    fn reachability_matches_paths_on_fig1() {
        let dag = fig1_like();
        let r = Reachability::new(&dag);
        // Direct edge, transitive path, and the reflexive case.
        assert!(r.reaches(NodeId(0), NodeId(1)));
        assert!(r.reaches(NodeId(0), NodeId(6)));
        assert!(r.reaches(NodeId(2), NodeId(6)), "v3 → v5/v6 → v7");
        assert!(!r.reaches(NodeId(1), NodeId(0)), "edges are directed");
        assert!(!r.reaches(NodeId(3), NodeId(3)), "not reflexive");
        // v2 and v4 share no path: concurrent; v1/v7 relate to everything.
        assert!(r.concurrent(NodeId(1), NodeId(3)));
        assert!(!r.concurrent(NodeId(0), NodeId(5)));
        assert!(!r.concurrent(NodeId(4), NodeId(4)), "a node is not its own peer");
    }

    #[test]
    fn reachability_agrees_with_exhaustive_dfs_on_generated_dags() {
        use crate::gen::{DagGenParams, DagGenerator};
        let gen = DagGenerator::new(DagGenParams::default());
        let mut rng = l15_testkit::rng::SmallRng::seed_from_u64(11);
        for _ in 0..5 {
            let dag_task = gen.generate(&mut rng).unwrap();
            let dag = dag_task.graph();
            let r = Reachability::new(dag);
            // Oracle: per-source DFS.
            for s in dag.node_ids() {
                let mut seen = vec![false; dag.node_count()];
                let mut stack = vec![s];
                while let Some(v) = stack.pop() {
                    for &(_, w) in dag.successors(v) {
                        if !seen[w.0] {
                            seen[w.0] = true;
                            stack.push(w);
                        }
                    }
                }
                for t in dag.node_ids() {
                    assert_eq!(r.reaches(s, t), seen[t.0], "{s} → {t}");
                }
            }
        }
    }

    #[test]
    fn reachability_crosses_word_boundaries() {
        // A 70-node chain exercises the multi-word bitset path.
        let mut b = DagBuilder::new();
        let mut prev = b.add_node(Node::new(1.0, 0));
        for _ in 0..69 {
            let v = b.add_node(Node::new(1.0, 0));
            b.add_edge(prev, v, 0.0, 0.5).unwrap();
            prev = v;
        }
        let dag = b.build().unwrap();
        let r = Reachability::new(&dag);
        assert!(r.reaches(NodeId(0), NodeId(69)));
        assert!(r.reaches(NodeId(63), NodeId(64)));
        assert!(!r.reaches(NodeId(69), NodeId(0)));
    }
}
