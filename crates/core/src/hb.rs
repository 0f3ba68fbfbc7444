//! Happens-before over one dispatch: per-core vector clocks built from
//! the cores nodes ran on, the order they were dispatched in and the DAG
//! edges between them.
//!
//! Two orderings hold in any such dispatch:
//!
//! * **program order** — nodes dispatched to the same core execute in
//!   dispatch order;
//! * **dependency order** — a DAG edge orders producer before consumer.
//!
//! [`vector_clocks_from`] closes both under transitivity with per-core
//! vector clocks: node `a` happens-before node `b` iff `b`'s clock has
//! seen `a`'s tick on `a`'s core. Accesses by clock-unordered nodes on
//! different cores are concurrent in that dispatch — the precondition of
//! the checker's data-race rule. The checker (`l15-check`) builds the
//! clocks from the dispatch the kernel actually made (Tessler et al.: the
//! schedule is part of the cache-correctness argument, and the schedule
//! that matters is the one that executed).

use l15_dag::NodeId;

/// Per-node vector clocks over the dispatch's cores.
///
/// Clocks are built by walking the dispatch order: each node joins the
/// clocks of its DAG predecessors and of the previous node on its core,
/// then ticks its own core component. The result supports O(cores)
/// happens-before queries via [`VectorClocks::happens_before`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClocks {
    cores: usize,
    core_of: Vec<usize>,
    /// Flattened `node × core` clock matrix.
    clock: Vec<u64>,
}

impl VectorClocks {
    /// The clock row of `v`.
    pub fn of(&self, v: NodeId) -> &[u64] {
        &self.clock[v.0 * self.cores..(v.0 + 1) * self.cores]
    }

    /// Whether `a` happens-before `b` under program order + dependency
    /// order (false for `a == b`).
    pub fn happens_before(&self, a: NodeId, b: NodeId) -> bool {
        let ca = self.core_of[a.0];
        a != b && self.of(b)[ca] >= self.of(a)[ca]
    }

    /// Whether `a` and `b` are concurrent: distinct, on different cores,
    /// ordered neither way.
    pub fn concurrent(&self, a: NodeId, b: NodeId) -> bool {
        a != b
            && self.core_of[a.0] != self.core_of[b.0]
            && !self.happens_before(a, b)
            && !self.happens_before(b, a)
    }
}

/// Builds the per-node vector clocks (see [`VectorClocks`]) from raw
/// dispatch facts: `cores` clock components, per-node core assignment,
/// dispatch `order` and per-node predecessor lists. The checker passes the
/// dispatch a kernel run recorded; the fuzz harness builds synthetic
/// producer→consumer edges for its generated streams.
///
/// A predecessor dispatched *after* its successor contributes nothing to
/// the successor's clock (its row is still zero when the successor is
/// walked), so callers must list predecessors earlier in `order` for the
/// edge to establish an ordering — exactly the property a real dispatch
/// order has by construction.
pub fn vector_clocks_from(
    cores: usize,
    core_of: &[usize],
    order: &[NodeId],
    preds: &[Vec<NodeId>],
) -> VectorClocks {
    let n = core_of.len();
    let mut clock = vec![0u64; n * cores];
    let mut core_clock = vec![vec![0u64; cores]; cores];
    for &v in order {
        let c = core_of[v.0];
        let mut row = core_clock[c].clone();
        for &p in &preds[v.0] {
            for k in 0..cores {
                row[k] = row[k].max(clock[p.0 * cores + k]);
            }
        }
        row[c] += 1;
        clock[v.0 * cores..(v.0 + 1) * cores].copy_from_slice(&row);
        core_clock[c] = row;
    }
    VectorClocks { cores, core_of: core_of.to_vec(), clock }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_dag::{analysis, topology, DagBuilder, DagTask, Node};

    fn diamond() -> DagTask {
        let mut b = DagBuilder::new();
        let src = b.add_node(Node::new(1.0, 2048));
        let a = b.add_node(Node::new(4.0, 2048));
        let c = b.add_node(Node::new(4.0, 2048));
        let sink = b.add_node(Node::new(1.0, 0));
        b.add_edge(src, a, 1.0, 0.5).unwrap();
        b.add_edge(src, c, 1.0, 0.5).unwrap();
        b.add_edge(a, sink, 1.0, 0.5).unwrap();
        b.add_edge(c, sink, 1.0, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
    }

    /// Clocks of `task` dispatched in topological order, round-robin over
    /// `cores` cores.
    fn clocks(task: &DagTask, cores: usize) -> (Vec<usize>, Vec<NodeId>, VectorClocks) {
        let dag = task.graph();
        let order: Vec<NodeId> = dag.topological_order().to_vec();
        let mut core_of = vec![0; dag.node_count()];
        for (i, v) in order.iter().enumerate() {
            core_of[v.0] = i % cores;
        }
        let preds: Vec<Vec<NodeId>> =
            dag.node_ids().map(|v| dag.predecessors(v).iter().map(|&(_, p)| p).collect()).collect();
        let vc = vector_clocks_from(cores, &core_of, &order, &preds);
        (core_of, order, vc)
    }

    #[test]
    fn dag_edges_imply_happens_before() {
        let task = diamond();
        let (_, _, vc) = clocks(&task, 2);
        let (src, sink) = (task.graph().source(), task.graph().sink());
        for v in task.graph().node_ids() {
            if v != src {
                assert!(vc.happens_before(src, v), "source precedes {v}");
                assert!(!vc.happens_before(v, src));
            }
            if v != sink {
                assert!(vc.happens_before(v, sink), "{v} precedes sink");
            }
            assert!(!vc.happens_before(v, v), "irreflexive");
        }
    }

    #[test]
    fn parallel_branches_on_two_cores_are_concurrent() {
        let task = diamond();
        let (core_of, _, vc) = clocks(&task, 2);
        let (a, c) = (NodeId(1), NodeId(2));
        assert_ne!(core_of[a.0], core_of[c.0], "the branches split");
        assert!(vc.concurrent(a, c));
        assert!(!vc.concurrent(a, a));
    }

    #[test]
    fn single_core_serialises_everything() {
        let task = diamond();
        let (_, order, vc) = clocks(&task, 1);
        // On one core, program order totally orders the nodes.
        for (i, &a) in order.iter().enumerate() {
            for &b in &order[i + 1..] {
                assert!(vc.happens_before(a, b), "{a} before {b}");
                assert!(!vc.concurrent(a, b));
            }
        }
    }

    #[test]
    fn happens_before_is_contained_in_reachability_union_program_order() {
        // On a wider topology: hb(a,b) must come from a DAG path or from
        // same-core ordering (transitively) — never relate two nodes the
        // dispatch could overlap.
        let dag = topology::layered_mesh(4, 3, topology::UniformPayload::default()).unwrap();
        let task = DagTask::new(dag, 1e6, 1e6).unwrap();
        let (_, _, vc) = clocks(&task, 3);
        let reach = analysis::Reachability::new(task.graph());
        for a in task.graph().node_ids() {
            for b in task.graph().node_ids() {
                if vc.concurrent(a, b) {
                    assert!(
                        reach.concurrent(a, b),
                        "{a}/{b}: clock-concurrent nodes must be DAG-concurrent"
                    );
                    // Concurrency is symmetric.
                    assert!(vc.concurrent(b, a));
                }
                if reach.reaches(a, b) {
                    assert!(vc.happens_before(a, b), "{a} → {b} is a DAG path");
                }
            }
        }
    }
}
