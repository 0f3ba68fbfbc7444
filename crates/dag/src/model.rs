//! The DAG task model of Sec. 4.1.
//!
//! A recurrent DAG task `τ_i = {V_i, E_i, T_i, D_i}` consists of a node set
//! `V_i`, an edge set `E_i`, a period `T_i` and a constrained deadline
//! `D_i ≤ T_i`. A node `v_j` carries a worst-case computation time `C_j` and
//! produces `δ_j` bytes of dependent data consumed by its successors; an edge
//! `e_{j,k}` carries a communication cost `μ_{j,k}` and an ETM speed-up ratio
//! `α_{j,k}`. Following the paper (and ref. \[8\]), the DAG has exactly one
//! source and one sink.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::DagError;

/// Identifier of a node inside one [`Dag`] (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(ix: usize) -> Self {
        NodeId(ix)
    }
}

/// Identifier of an edge inside one [`Dag`] (index into the edge table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A DAG node: one sequential series of computations.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Worst-case computation time `C_j` (model time units).
    pub wcet: f64,
    /// Volume of dependent data `δ_j` produced by this node, in bytes.
    ///
    /// The paper obtains `δ_j` with profiling tools (e.g. Valgrind); the
    /// synthetic generator draws it from a configured range.
    pub data_bytes: u64,
}

impl Node {
    /// Creates a node with the given WCET and produced-data volume.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is negative or not finite.
    pub fn new(wcet: f64, data_bytes: u64) -> Self {
        assert!(wcet.is_finite() && wcet >= 0.0, "wcet must be finite and >= 0");
        Node { wcet, data_bytes }
    }
}

/// A directed edge `e_{j,k}`: `to` may only start once `from` has finished and
/// the dependent data has been transmitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producer node `v_j`.
    pub from: NodeId,
    /// Consumer node `v_k`.
    pub to: NodeId,
    /// Communication cost `μ_{j,k}` when no L1.5 ways accelerate the edge.
    pub cost: f64,
    /// ETM speed-up ratio `α_{j,k} ∈ (0, 1]`; the paper draws it in `(0, 0.7]`.
    pub alpha: f64,
}

/// An immutable directed acyclic graph with exactly one source and one sink.
///
/// Construct one through [`DagBuilder`], which validates acyclicity and the
/// single-source/single-sink property required by the paper's model.
/// Topology is immutable after `build` (the setters touch payloads only), so
/// the order that proved it acyclic stays valid (DESIGN.md §4.8).
#[derive(Debug, Clone, PartialEq)]
pub struct Dag {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing `(edge, consumer)` pairs per node.
    succ: Vec<Vec<(EdgeId, NodeId)>>,
    /// Incoming `(edge, producer)` pairs per node.
    pred: Vec<Vec<(EdgeId, NodeId)>>,
    order: Vec<NodeId>,
    source: NodeId,
    sink: NodeId,
}

impl Dag {
    /// Number of nodes `|V_i|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E_i|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The unique source node `v_src` (no predecessors).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The unique sink node `v_sin` (no successors).
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The topological order every analysis sweeps in: Kahn's algorithm,
    /// lowest index first among ready nodes.
    pub fn topological_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Returns the node payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Returns the edge payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds for this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over all edge ids in index order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Successor `(edge, node)` pairs of `v`, i.e. `suc(v)` with the
    /// connecting edges.
    pub fn successors(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        &self.succ[v.0]
    }

    /// Predecessor `(edge, node)` pairs of `v`, i.e. `pre(v)` with the
    /// connecting edges.
    pub fn predecessors(&self, v: NodeId) -> &[(EdgeId, NodeId)] {
        &self.pred[v.0]
    }

    /// In-degree of `v` (`|pre(v)|`).
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.pred[v.0].len()
    }

    /// Out-degree of `v` (`|suc(v)|`).
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.succ[v.0].len()
    }

    /// Total workload `W_i = Σ_j C_j`.
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.wcet).sum()
    }

    /// Sum of all edge communication costs `Σμ`.
    pub fn total_comm_cost(&self) -> f64 {
        self.edges.iter().map(|e| e.cost).sum()
    }

    /// Looks up the edge connecting `from` to `to`, if any.
    pub fn find_edge(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.succ[from.0].iter().find(|(_, n)| *n == to).map(|(e, _)| *e)
    }

    /// Mutable access to a node's payload (used by generators to rescale
    /// WCETs after topology construction).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Mutable access to an edge's payload.
    pub(crate) fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.0]
    }

    /// Sets the WCET of `id` (topology is immutable; payloads are not).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds or `wcet` is negative/not finite.
    pub fn set_wcet(&mut self, id: NodeId, wcet: f64) {
        assert!(wcet.is_finite() && wcet >= 0.0, "wcet must be finite and >= 0");
        self.nodes[id.0].wcet = wcet;
    }

    /// Sets the produced-data volume `δ` of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn set_data_bytes(&mut self, id: NodeId, bytes: u64) {
        self.nodes[id.0].data_bytes = bytes;
    }

    /// Sets the communication cost `μ` of edge `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds or `cost` is negative/not finite.
    pub fn set_edge_cost(&mut self, id: EdgeId, cost: f64) {
        assert!(cost.is_finite() && cost >= 0.0, "cost must be finite and >= 0");
        self.edges[id.0].cost = cost;
    }

    /// Sets the ETM ratio `α` of edge `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds or `alpha` is outside `[0, 1]`.
    pub fn set_edge_alpha(&mut self, id: EdgeId, alpha: f64) {
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
        self.edges[id.0].alpha = alpha;
    }
}

/// Incremental builder for [`Dag`], validating the model constraints at
/// [`build`](DagBuilder::build) time.
///
/// # Example
///
/// ```
/// use l15_dag::{DagBuilder, Node};
///
/// let mut b = DagBuilder::new();
/// let src = b.add_node(Node::new(3.0, 4096));
/// let mid = b.add_node(Node::new(5.0, 2048));
/// let sink = b.add_node(Node::new(2.0, 0));
/// b.add_edge(src, mid, 2.0, 0.5)?;
/// b.add_edge(mid, sink, 1.0, 0.5)?;
/// let dag = b.build()?;
/// assert_eq!(dag.source(), src);
/// assert_eq!(dag.sink(), sink);
/// # Ok::<(), l15_dag::DagError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds an edge `from -> to` with communication cost `μ` and ETM ratio `α`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownNode`] if either endpoint has not been
    /// added, [`DagError::SelfLoop`] for `from == to`, and
    /// [`DagError::DuplicateEdge`] if the pair is already connected.
    /// Returns [`DagError::InvalidParameter`] if `cost` is negative/not finite
    /// or `alpha` is outside `[0, 1]`.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        cost: f64,
        alpha: f64,
    ) -> Result<EdgeId, DagError> {
        if from.0 >= self.nodes.len() {
            return Err(DagError::UnknownNode(from));
        }
        if to.0 >= self.nodes.len() {
            return Err(DagError::UnknownNode(to));
        }
        if from == to {
            return Err(DagError::SelfLoop(from));
        }
        if !(cost.is_finite() && cost >= 0.0) {
            return Err(DagError::InvalidParameter {
                name: "cost",
                reason: format!("must be finite and >= 0, got {cost}"),
            });
        }
        if !(0.0..=1.0).contains(&alpha) {
            return Err(DagError::InvalidParameter {
                name: "alpha",
                reason: format!("must lie in [0, 1], got {alpha}"),
            });
        }
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(DagError::DuplicateEdge(from, to));
        }
        self.edges.push(Edge { from, to, cost, alpha });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Validates and finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Empty`] for a node-less graph,
    /// [`DagError::Cycle`] if the edges are not acyclic, and
    /// [`DagError::MultipleSources`] / [`DagError::MultipleSinks`] when the
    /// single-source/single-sink assumption of the paper is violated.
    pub fn build(self) -> Result<Dag, DagError> {
        if self.nodes.is_empty() {
            return Err(DagError::Empty);
        }
        let n = self.nodes.len();
        let mut succ: Vec<Vec<(EdgeId, NodeId)>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<(EdgeId, NodeId)>> = vec![Vec::new(); n];
        for (ix, e) in self.edges.iter().enumerate() {
            succ[e.from.0].push((EdgeId(ix), e.to));
            pred[e.to.0].push((EdgeId(ix), e.from));
        }

        // Kahn's algorithm, lowest index first: proves acyclicity and is
        // the one topological order every analysis sweeps in.
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(v)) = ready.pop() {
            order.push(NodeId(v));
            for &(_, w) in &succ[v] {
                indeg[w.0] -= 1;
                if indeg[w.0] == 0 {
                    ready.push(Reverse(w.0));
                }
            }
        }
        if order.len() != n {
            return Err(DagError::Cycle);
        }

        let sources: Vec<NodeId> = (0..n).filter(|&i| pred[i].is_empty()).map(NodeId).collect();
        let sinks: Vec<NodeId> = (0..n).filter(|&i| succ[i].is_empty()).map(NodeId).collect();
        if sources.len() != 1 {
            return Err(DagError::MultipleSources(sources));
        }
        if sinks.len() != 1 {
            return Err(DagError::MultipleSinks(sinks));
        }

        Ok(Dag {
            nodes: self.nodes,
            edges: self.edges,
            succ,
            pred,
            order,
            source: sources[0],
            sink: sinks[0],
        })
    }
}

/// A recurrent DAG task: a [`Dag`] plus a period `T_i` and deadline `D_i ≤ T_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct DagTask {
    graph: Dag,
    period: f64,
    deadline: f64,
}

impl DagTask {
    /// Wraps a graph with timing parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidParameter`] if `period <= 0`, if `deadline`
    /// is not in `(0, period]` (the paper uses constrained deadlines
    /// `D_i ≤ T_i`), or if either value is not finite.
    pub fn new(graph: Dag, period: f64, deadline: f64) -> Result<Self, DagError> {
        if !(period.is_finite() && period > 0.0) {
            return Err(DagError::InvalidParameter {
                name: "period",
                reason: format!("must be finite and > 0, got {period}"),
            });
        }
        if !(deadline.is_finite() && deadline > 0.0 && deadline <= period) {
            return Err(DagError::InvalidParameter {
                name: "deadline",
                reason: format!("must lie in (0, period], got {deadline} with period {period}"),
            });
        }
        Ok(DagTask { graph, period, deadline })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Dag {
        &self.graph
    }

    /// Period `T_i`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Deadline `D_i`.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// Task utilisation `U_i = W_i / T_i`.
    pub fn utilisation(&self) -> f64 {
        self.graph.total_work() / self.period
    }

    /// Consumes the task and returns the underlying graph.
    pub fn into_graph(self) -> Dag {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DagBuilder {
        // v0 -> {v1, v2} -> v3
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 1024));
        let v1 = b.add_node(Node::new(2.0, 1024));
        let v2 = b.add_node(Node::new(3.0, 1024));
        let v3 = b.add_node(Node::new(1.0, 0));
        b.add_edge(v0, v1, 2.0, 0.5).unwrap();
        b.add_edge(v0, v2, 2.0, 0.5).unwrap();
        b.add_edge(v1, v3, 1.0, 0.5).unwrap();
        b.add_edge(v2, v3, 1.0, 0.5).unwrap();
        b
    }

    #[test]
    fn builds_diamond() {
        let dag = diamond().build().unwrap();
        assert_eq!(dag.node_count(), 4);
        assert_eq!(dag.edge_count(), 4);
        assert_eq!(dag.source(), NodeId(0));
        assert_eq!(dag.sink(), NodeId(3));
        assert_eq!(dag.out_degree(NodeId(0)), 2);
        assert_eq!(dag.in_degree(NodeId(3)), 2);
        assert_eq!(dag.total_work(), 7.0);
        assert_eq!(dag.total_comm_cost(), 6.0);
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        let v1 = b.add_node(Node::new(1.0, 0));
        b.add_edge(v0, v1, 1.0, 0.5).unwrap();
        b.add_edge(v1, v0, 1.0, 0.5).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        assert_eq!(b.add_edge(v0, v0, 1.0, 0.5).unwrap_err(), DagError::SelfLoop(v0));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        let v1 = b.add_node(Node::new(1.0, 0));
        b.add_edge(v0, v1, 1.0, 0.5).unwrap();
        assert_eq!(b.add_edge(v0, v1, 2.0, 0.5).unwrap_err(), DagError::DuplicateEdge(v0, v1));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        assert_eq!(
            b.add_edge(v0, NodeId(9), 1.0, 0.5).unwrap_err(),
            DagError::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn rejects_multiple_sources() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        let v1 = b.add_node(Node::new(1.0, 0));
        let v2 = b.add_node(Node::new(1.0, 0));
        b.add_edge(v0, v2, 1.0, 0.5).unwrap();
        b.add_edge(v1, v2, 1.0, 0.5).unwrap();
        match b.build().unwrap_err() {
            DagError::MultipleSources(s) => assert_eq!(s, vec![v0, v1]),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_multiple_sinks() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        let v1 = b.add_node(Node::new(1.0, 0));
        let v2 = b.add_node(Node::new(1.0, 0));
        b.add_edge(v0, v1, 1.0, 0.5).unwrap();
        b.add_edge(v0, v2, 1.0, 0.5).unwrap();
        assert!(matches!(b.build().unwrap_err(), DagError::MultipleSinks(_)));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn rejects_bad_edge_params() {
        let mut b = DagBuilder::new();
        let v0 = b.add_node(Node::new(1.0, 0));
        let v1 = b.add_node(Node::new(1.0, 0));
        assert!(matches!(
            b.add_edge(v0, v1, -1.0, 0.5).unwrap_err(),
            DagError::InvalidParameter { name: "cost", .. }
        ));
        assert!(matches!(
            b.add_edge(v0, v1, 1.0, 1.5).unwrap_err(),
            DagError::InvalidParameter { name: "alpha", .. }
        ));
    }

    #[test]
    fn task_validates_timing() {
        let dag = diamond().build().unwrap();
        assert!(DagTask::new(dag.clone(), 10.0, 10.0).is_ok());
        assert!(DagTask::new(dag.clone(), 10.0, 11.0).is_err());
        assert!(DagTask::new(dag.clone(), 0.0, 0.0).is_err());
        // Every degenerate period and every deadline outside (0, T] is
        // refused at construction, so no scheduler ever sees one.
        for period in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                DagTask::new(dag.clone(), period, 5.0).unwrap_err(),
                DagError::InvalidParameter { name: "period", .. }
            ));
        }
        for deadline in [0.0, -2.0, f64::NAN, f64::INFINITY, 10.5] {
            assert!(matches!(
                DagTask::new(dag.clone(), 10.0, deadline).unwrap_err(),
                DagError::InvalidParameter { name: "deadline", .. }
            ));
        }
        let t = DagTask::new(dag, 14.0, 14.0).unwrap();
        assert!((t.utilisation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn find_edge_works() {
        let dag = diamond().build().unwrap();
        assert!(dag.find_edge(NodeId(0), NodeId(1)).is_some());
        assert!(dag.find_edge(NodeId(1), NodeId(0)).is_none());
    }
}
