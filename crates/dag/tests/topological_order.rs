//! `Dag::topological_order` is the one walk order of the workspace: held
//! here against an independent lowest-index-first Kahn, across every payload
//! setter, and against the builder's error verdicts.

use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{analysis, Dag, DagBuilder, DagError, EdgeId, Node, NodeId};
use l15_testkit::rng::{Rng, SmallRng};

/// Kahn's algorithm with a sorted ready list, sharing no code with the
/// builder's heap.
fn reference_order(dag: &Dag) -> Vec<NodeId> {
    let n = dag.node_count();
    let mut waiting: Vec<usize> = (0..n).map(|i| dag.in_degree(NodeId(i))).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        ready.sort_unstable();
        let v = ready.remove(0);
        order.push(NodeId(v));
        for &(_, w) in dag.successors(NodeId(v)) {
            waiting[w.0] -= 1;
            if waiting[w.0] == 0 {
                ready.push(w.0);
            }
        }
    }
    order
}

fn build(n: usize, edges: &[(usize, usize)]) -> Result<Dag, DagError> {
    let mut b = DagBuilder::new();
    for _ in 0..n {
        b.add_node(Node::new(1.0, 1024));
    }
    for &(u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v), 1.0, 0.5)?;
    }
    b.build()
}

fn ids(order: &[NodeId]) -> Vec<usize> {
    order.iter().map(|v| v.0).collect()
}

#[test]
fn hand_built_graphs_sweep_lowest_index_first() {
    let diamond = build(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    assert_eq!(ids(diamond.topological_order()), [0, 1, 2, 3]);
    // A chain labelled against its direction.
    let chain = build(4, &[(3, 2), (2, 1), (1, 0)]).unwrap();
    assert_eq!(ids(chain.topological_order()), [3, 2, 1, 0]);
    // A wide fan whose middle nodes become ready together, high labels
    // added first.
    let fan =
        build(7, &[(6, 5), (6, 3), (6, 4), (6, 1), (6, 2), (5, 0), (3, 0), (4, 0), (1, 0), (2, 0)])
            .unwrap();
    assert_eq!(ids(fan.topological_order()), [6, 1, 2, 3, 4, 5, 0]);
    // A low-index node that becomes ready late overtakes waiting high ones.
    let late = build(5, &[(2, 3), (2, 4), (3, 0), (4, 1), (0, 1)]).unwrap();
    assert_eq!(ids(late.topological_order()), [2, 3, 0, 4, 1]);
    for dag in [&diamond, &chain, &fan, &late] {
        assert_eq!(dag.topological_order(), reference_order(dag));
        assert_eq!(analysis::topological_order(dag), dag.topological_order());
    }
}

/// A connected single-source/single-sink DAG over randomly permuted labels,
/// so that index order and precedence order disagree.
fn shuffled_dag(rng: &mut SmallRng) -> Dag {
    let n = rng.gen_range(2..40usize);
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.gen_range(0..=i));
    }
    // Position 0 is the source, n-1 the sink; every inner position gets a
    // predecessor before it and a successor after it.
    let mut edges = std::collections::BTreeSet::new();
    for pos in 1..n {
        edges.insert((rng.gen_range(0..pos), pos));
    }
    for pos in 0..n - 1 {
        edges.insert((pos, rng.gen_range(pos + 1..n)));
    }
    for _ in 0..rng.gen_range(0..2 * n) {
        let a = rng.gen_range(0..n - 1);
        edges.insert((a, rng.gen_range(a + 1..n)));
    }
    let edges: Vec<(usize, usize)> = edges.into_iter().map(|(a, b)| (label[a], label[b])).collect();
    build(n, &edges).expect("connected, acyclic, one source, one sink")
}

#[test]
fn random_graphs_match_the_reference_kahn() {
    let mut rng = SmallRng::seed_from_u64(0x6f72_6465);
    for _ in 0..300 {
        let dag = shuffled_dag(&mut rng);
        assert_eq!(dag.topological_order(), reference_order(&dag));
    }
    let gen = DagGenerator::new(DagGenParams::default());
    for _ in 0..20 {
        let task = gen.generate(&mut rng).unwrap();
        assert_eq!(task.graph().topological_order(), reference_order(task.graph()));
    }
}

#[test]
fn payload_setters_leave_the_order_alone() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut dag = shuffled_dag(&mut rng);
    let before = dag.topological_order().to_vec();
    let pristine = dag.clone();
    for v in 0..dag.node_count() {
        dag.set_wcet(NodeId(v), 10.0 + v as f64);
        dag.set_data_bytes(NodeId(v), 4096 * v as u64);
    }
    for e in 0..dag.edge_count() {
        dag.set_edge_cost(EdgeId(e), 0.5 * e as f64);
        dag.set_edge_alpha(EdgeId(e), 0.25);
    }
    assert_eq!(dag.topological_order(), before);
    assert_eq!(dag.topological_order(), reference_order(&dag));
    // Equality still tells payloads apart, and a clone carries the order.
    assert_ne!(dag, pristine);
    assert_eq!(dag.clone().topological_order(), before);
}

#[test]
fn invalid_graphs_fail_with_the_same_errors() {
    assert_eq!(build(0, &[]).unwrap_err(), DagError::Empty);
    assert_eq!(build(2, &[(0, 1), (1, 0)]).unwrap_err(), DagError::Cycle);
    // A cycle is reported before the source/sink counts it also breaks.
    assert_eq!(build(4, &[(0, 1), (1, 2), (2, 1), (0, 3)]).unwrap_err(), DagError::Cycle);
    assert_eq!(
        build(3, &[(0, 2), (1, 2)]).unwrap_err(),
        DagError::MultipleSources(vec![NodeId(0), NodeId(1)])
    );
    assert_eq!(
        build(3, &[(0, 1), (0, 2)]).unwrap_err(),
        DagError::MultipleSinks(vec![NodeId(1), NodeId(2)])
    );
}
