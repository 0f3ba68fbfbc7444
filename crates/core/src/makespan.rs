//! Non-preemptive, fixed-priority, work-conserving list scheduling of one
//! DAG instance on `m` identical cores, with per-edge communication costs —
//! the simulator class of ref. \[15\] that the paper's Sec. 5.1 evaluation
//! runs on.
//!
//! A node becomes *ready* when all predecessors have finished. When a core
//! is idle, the highest-priority ready node is dispatched to it; its start
//! time additionally waits for the dependent data of each incoming edge,
//! whose cost may depend on whether producer and consumer share a core
//! (conventional caches) or on the L1.5 allocation (the proposed system) —
//! both expressed through the caller-supplied cost closures.
//!
//! The closures are taken to be **pure**: a node's dependent data arrives at
//! the same time on every idle core that ran none of its producers, so that
//! arrival is priced once per dispatched node (DESIGN.md §4.8) — bit for bit
//! the schedule per-core pricing gives, which the test-only oracle holds.
//!
//! The event loop, `list_schedule`, also runs [`crate::periodic`]'s jobs; a
//! `Policy` supplies only what differs between the two callers.

use std::cmp::Ordering;

use l15_dag::{Dag, DagTask, EdgeId, NodeId};

/// A simulated schedule of one DAG instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Completion time of the sink (the makespan).
    pub makespan: f64,
    /// Per-node start times.
    pub start: Vec<f64>,
    /// Per-node finish times.
    pub finish: Vec<f64>,
    /// Per-node executing core.
    pub core: Vec<usize>,
}

/// Simulates one instance.
///
/// * `priorities` — per-node priority, larger = dispatched first;
/// * `exec_time(v)` — effective computation time of `v`;
/// * `comm_cost(e, same_core)` — effective communication cost of edge `e`
///   given whether its producer ran on the consumer's core.
///
/// Both closures must be pure: how often and in which order they are called
/// is unspecified.
///
/// # Panics
///
/// Panics if `cores == 0` or `priorities.len()` mismatches the node count.
pub fn simulate<X, E>(
    task: &DagTask,
    cores: usize,
    priorities: &[u32],
    exec_time: X,
    comm_cost: E,
) -> SimResult
where
    X: FnMut(NodeId) -> f64,
    E: FnMut(EdgeId, bool) -> f64,
{
    assert!(cores > 0, "need at least one core");
    let dag = task.graph();
    assert_eq!(priorities.len(), dag.node_count(), "one priority per node");
    let mut policy = OneInstance {
        dag,
        priorities,
        exec_time,
        comm_cost,
        ran_producer: vec![0; cores],
        remote_ready: 0.0,
    };
    // The sink completes last: the loop's end is its finish.
    list_schedule(cores, &[(dag, 0.0)], &mut policy)
}

/// [`simulate`]'s policy: priority order and the caller's closures.
struct OneInstance<'a, X, E> {
    dag: &'a Dag,
    priorities: &'a [u32],
    exec_time: X,
    comm_cost: E,
    /// `ran_producer[c] == v.0 + 1`: core `c` ran a producer of the node `v`
    /// being dispatched (a stamp, so nothing is cleared between nodes).
    ran_producer: Vec<usize>,
    /// When `v`'s data arrives on a core that ran none of its producers.
    remote_ready: f64,
}

impl<X, E> Policy for OneInstance<'_, X, E>
where
    X: FnMut(NodeId) -> f64,
    E: FnMut(EdgeId, bool) -> f64,
{
    fn order(&self, (_, a): (usize, NodeId), (_, b): (usize, NodeId)) -> Ordering {
        self.priorities[a.0].cmp(&self.priorities[b.0]).then(b.0.cmp(&a.0))
    }

    fn price(&mut self, _: usize, v: NodeId, finish: &[f64], core: &[usize]) {
        self.remote_ready = 0.0;
        for &(e, p) in self.dag.predecessors(v) {
            self.remote_ready = self.remote_ready.max(finish[p.0] + (self.comm_cost)(e, false));
            self.ran_producer[core[p.0]] = v.0 + 1;
        }
    }

    fn data_ready(&mut self, _: usize, v: NodeId, c: usize, finish: &[f64], core: &[usize]) -> f64 {
        // Only a core that ran a producer sees a same-core edge.
        if self.ran_producer[c] != v.0 + 1 {
            return self.remote_ready;
        }
        self.dag
            .predecessors(v)
            .iter()
            .map(|&(e, p)| finish[p.0] + (self.comm_cost)(e, core[p.0] == c))
            .fold(0.0f64, f64::max)
    }

    fn dispatch(&mut self, _: usize, v: NodeId, _: usize, _: f64) -> f64 {
        (self.exec_time)(v)
    }
}

/// A node on a core: `(finish, job, node, core)`.
pub(crate) type Running = (f64, usize, NodeId, usize);

/// What the callers of [`list_schedule`] differ in. Nodes are named
/// `(job, node)`; `finish` / `core` slices are the job's own, indexed by
/// node (`NaN` / `usize::MAX` until dispatched).
pub(crate) trait Policy {
    /// Dispatch order: the greatest ready entry goes first, the last of
    /// equals in ready-`Vec` order (`max_by`).
    fn order(&self, a: (usize, NodeId), b: (usize, NodeId)) -> Ordering;

    /// Node `v` of job `j` is about to be dispatched: called once, before
    /// `data_ready` is asked about each idle core.
    fn price(&mut self, _j: usize, _v: NodeId, _finish: &[f64], _core: &[usize]) {}

    /// When every input of node `v` of job `j` is on idle core `c`; asked
    /// about each idle core in index order.
    fn data_ready(&mut self, j: usize, v: NodeId, c: usize, finish: &[f64], core: &[usize]) -> f64;

    /// Node `v` of job `j` starts on core `c` (at `now` or later); returns
    /// its execution time.
    fn dispatch(&mut self, j: usize, v: NodeId, c: usize, now: f64) -> f64;

    /// `done` finished (now is its finish time); `running` no longer holds
    /// it, its ready successors are queued, and `core` is its job's.
    fn complete(&mut self, _done: Running, _core: &[usize], _running: &[Running]) {}
}

/// The one list-scheduling event loop: non-preemptive, work-conserving,
/// each dispatch to the idle core where the node starts earliest (`s <
/// best − 1e-12`, cores in index order), each completion the first minimum
/// finish. `jobs` holds `(graph, release)`; a job queues its source once
/// `release <= now + 1e-12`, and an idle system jumps to the next release
/// (earliest first, the higher index first among equal ones).
///
/// Returns every (job, node)'s start, finish and core, flat in job order,
/// with the last completion time as `makespan`.
pub(crate) fn list_schedule<P: Policy>(
    cores: usize,
    jobs: &[(&Dag, f64)],
    policy: &mut P,
) -> SimResult {
    // Job `j`'s nodes are `base[j]..base[j + 1]` of the flat arrays.
    let mut base = Vec::with_capacity(jobs.len() + 1);
    let mut preds_left = Vec::new();
    for (dag, _) in jobs {
        base.push(preds_left.len());
        preds_left.extend(dag.node_ids().map(|v| dag.in_degree(v)));
    }
    base.push(preds_left.len());
    let n = preds_left.len();
    let mut start = vec![f64::NAN; n];
    let mut finish = vec![f64::NAN; n];
    let mut on_core = vec![usize::MAX; n];

    let mut core_free = vec![0.0f64; cores];
    let mut core_busy = vec![false; cores];
    let mut pending: Vec<usize> = (0..jobs.len()).collect();
    pending.sort_by(|&a, &b| jobs[b].1.total_cmp(&jobs[a].1)); // pop() yields the earliest
    let mut ready: Vec<(usize, NodeId)> = Vec::new();
    let mut running: Vec<Running> = Vec::new();
    let mut now = 0.0f64;

    loop {
        while let Some(&j) = pending.last().filter(|&&j| jobs[j].1 <= now + 1e-12) {
            pending.pop();
            ready.push((j, jobs[j].0.source()));
        }

        while !ready.is_empty() && core_busy.contains(&false) {
            let (ri, &(j, v)) = ready
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| policy.order(a, b))
                .expect("ready is non-empty");
            let (lo, hi) = (base[j], base[j + 1]);
            let (job_finish, job_core) = (&finish[lo..hi], &on_core[lo..hi]);
            policy.price(j, v, job_finish, job_core);
            let mut best: Option<(f64, usize)> = None;
            for c in 0..cores {
                if core_busy[c] {
                    continue;
                }
                let data_ready = policy.data_ready(j, v, c, job_finish, job_core);
                let s = now.max(core_free[c]).max(data_ready);
                if best.is_none_or(|(bs, _)| s < bs - 1e-12) {
                    best = Some((s, c));
                }
            }
            let (s, c) = best.expect("an idle core exists");
            ready.swap_remove(ri);
            let f = s + policy.dispatch(j, v, c, now);
            start[lo + v.0] = s;
            finish[lo + v.0] = f;
            on_core[lo + v.0] = c;
            core_busy[c] = true;
            core_free[c] = f;
            running.push((f, j, v, c));
        }

        if running.is_empty() {
            let Some(&j) = pending.last() else { break };
            now = jobs[j].1; // idle until the next release
            continue;
        }

        let (idx, _) = running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .expect("running is non-empty");
        let (f, j, v, c) = running.swap_remove(idx);
        now = f;
        core_busy[c] = false;
        let (lo, hi) = (base[j], base[j + 1]);
        for &(_, s) in jobs[j].0.successors(v) {
            preds_left[lo + s.0] -= 1;
            if preds_left[lo + s.0] == 0 {
                ready.push((j, s));
            }
        }
        policy.complete((f, j, v, c), &on_core[lo..hi], &running);
    }

    SimResult { makespan: now, start, finish, core: on_core }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_dag::analysis;
    use l15_dag::{DagBuilder, Node};

    /// `simulate` as it was before the cross-core arrival was priced once
    /// per node: every idle core folds over every predecessor. Kept as the
    /// reference the rewritten body must match field by field.
    fn simulate_oracle<X, E>(
        task: &DagTask,
        cores: usize,
        priorities: &[u32],
        mut exec_time: X,
        mut comm_cost: E,
    ) -> SimResult
    where
        X: FnMut(NodeId) -> f64,
        E: FnMut(EdgeId, bool) -> f64,
    {
        let dag = task.graph();
        let n = dag.node_count();
        let mut start = vec![f64::NAN; n];
        let mut finish = vec![f64::NAN; n];
        let mut on_core = vec![usize::MAX; n];
        let mut preds_left: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        let mut core_free = vec![0.0f64; cores];
        let mut core_busy = vec![false; cores];
        let mut running: Vec<(f64, NodeId, usize)> = Vec::new();
        let mut ready: Vec<NodeId> = vec![dag.source()];
        let mut now = 0.0f64;
        loop {
            while !ready.is_empty() {
                let Some(_) = core_busy.iter().position(|&b| !b) else { break };
                let (ri, &v) = ready
                    .iter()
                    .enumerate()
                    .max_by(|(_, &a), (_, &b)| {
                        priorities[a.0].cmp(&priorities[b.0]).then(b.0.cmp(&a.0))
                    })
                    .expect("ready is non-empty");
                let mut best: Option<(f64, usize)> = None;
                for c in 0..cores {
                    if core_busy[c] {
                        continue;
                    }
                    let data_ready = dag
                        .predecessors(v)
                        .iter()
                        .map(|&(e, p)| finish[p.0] + comm_cost(e, on_core[p.0] == c))
                        .fold(0.0f64, f64::max);
                    let s = now.max(core_free[c]).max(data_ready);
                    if best.is_none_or(|(bs, _)| s < bs - 1e-12) {
                        best = Some((s, c));
                    }
                }
                let (s, c) = best.expect("an idle core exists");
                ready.swap_remove(ri);
                let f = s + exec_time(v);
                start[v.0] = s;
                finish[v.0] = f;
                on_core[v.0] = c;
                core_busy[c] = true;
                core_free[c] = f;
                running.push((f, v, c));
            }
            if running.is_empty() {
                break;
            }
            let (idx, _) = running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.partial_cmp(&b.0).expect("finite times"))
                .expect("running is non-empty");
            let (f, v, c) = running.swap_remove(idx);
            now = f;
            core_busy[c] = false;
            for &(_, s) in dag.successors(v) {
                preds_left[s.0] -= 1;
                if preds_left[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        SimResult { makespan: finish[dag.sink().0], start, finish, core: on_core }
    }

    #[test]
    fn matches_the_per_core_oracle_field_by_field() {
        use l15_dag::gen::{DagGenParams, DagGenerator};
        use l15_testkit::rng::{Rng, SmallRng};
        // Same-core cheaper, dearer and equal to cross-core; a zero-cost
        // and a `u32::MAX`-scale case.
        let shapes: [(f64, f64); 5] =
            [(0.25, 1.0), (1.5, 1.0), (1.0, 1.0), (0.0, 0.0), (0.5, u32::MAX as f64)];
        let mut rng = SmallRng::seed_from_u64(0x6f72_6163);
        for case in 0..200usize {
            let params = DagGenParams {
                layers: (1, 6),
                max_width: 2 + case % 9,
                edge_prob: [0.0, 0.2, 0.6, 1.0][case % 4],
                ..DagGenParams::default()
            };
            let t = DagGenerator::new(params).generate(&mut rng).unwrap();
            let g = t.graph();
            // A handful of levels, so most ready sets hold ties.
            let levels = rng.gen_range(1..=5u32);
            let p: Vec<u32> = g.node_ids().map(|_| rng.gen_range(0..levels)).collect();
            for cores in 1..=16 {
                let (same, cross) = shapes[(case + cores) % shapes.len()];
                let exec = |v: NodeId| g.node(v).wcet * cross.max(1.0);
                let comm = |e: EdgeId, same_core: bool| {
                    g.edge(e).cost * if same_core { same } else { cross }
                };
                let got = simulate(&t, cores, &p, exec, comm);
                let want = simulate_oracle(&t, cores, &p, exec, comm);
                let bits = |ts: &[f64]| ts.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(
                    got.makespan.to_bits(),
                    want.makespan.to_bits(),
                    "case {case} m {cores}"
                );
                assert_eq!(bits(&got.start), bits(&want.start), "case {case} m {cores}");
                assert_eq!(bits(&got.finish), bits(&want.finish), "case {case} m {cores}");
                assert_eq!(got.core, want.core, "case {case} m {cores}");
            }
        }
    }

    fn chain(costs: &[(f64, f64)]) -> DagTask {
        // Alternating node wcet / edge cost chain.
        let mut b = DagBuilder::new();
        let mut prev = b.add_node(Node::new(costs[0].0, 1024));
        for &(w, c) in &costs[1..] {
            let v = b.add_node(Node::new(w, 1024));
            b.add_edge(prev, v, c, 0.5).unwrap();
            prev = v;
        }
        DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
    }

    fn fork_join() -> DagTask {
        let mut b = DagBuilder::new();
        let src = b.add_node(Node::new(1.0, 1024));
        let a = b.add_node(Node::new(4.0, 1024));
        let c = b.add_node(Node::new(4.0, 1024));
        let d = b.add_node(Node::new(4.0, 1024));
        let sink = b.add_node(Node::new(1.0, 0));
        for v in [a, c, d] {
            b.add_edge(src, v, 1.0, 0.5).unwrap();
            b.add_edge(v, sink, 1.0, 0.5).unwrap();
        }
        DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
    }

    fn uniform_priorities(t: &DagTask) -> Vec<u32> {
        // Longest-path-first consistent with precedence.
        let lam = analysis::lambda(t.graph());
        let mut idx: Vec<usize> = (0..t.graph().node_count()).collect();
        idx.sort_by(|&a, &b| lam.lambda[b].partial_cmp(&lam.lambda[a]).unwrap());
        let mut p = vec![0u32; idx.len()];
        for (rank, &v) in idx.iter().enumerate() {
            p[v] = (idx.len() - rank) as u32;
        }
        p
    }

    #[test]
    fn serial_chain_sums_everything() {
        let t = chain(&[(2.0, 1.0), (3.0, 2.0), (4.0, 0.0)]);
        let p = uniform_priorities(&t);
        // Cross-core cost = full; same-core = 0. Single core: all same-core.
        let r = simulate(
            &t,
            1,
            &p,
            |v| t.graph().node(v).wcet,
            |e, same| {
                if same {
                    0.0
                } else {
                    t.graph().edge(e).cost
                }
            },
        );
        assert!((r.makespan - 9.0).abs() < 1e-9, "chain on one core: {}", r.makespan);
    }

    #[test]
    fn fork_join_parallelises() {
        let t = fork_join();
        let p = uniform_priorities(&t);
        let exec = |v: NodeId| t.graph().node(v).wcet;
        let zero_comm = |_: EdgeId, _: bool| 0.0;
        let seq = simulate(&t, 1, &p, exec, zero_comm);
        let par = simulate(&t, 3, &p, exec, zero_comm);
        assert!((seq.makespan - 14.0).abs() < 1e-9);
        assert!((par.makespan - 6.0).abs() < 1e-9);
    }

    #[test]
    fn comm_costs_delay_cross_core_consumers() {
        let t = fork_join();
        let p = uniform_priorities(&t);
        let exec = |v: NodeId| t.graph().node(v).wcet;
        // Expensive cross-core edges: the sink pays for whichever of its
        // producers ran remotely.
        let r = simulate(
            &t,
            3,
            &p,
            exec,
            |e, same| {
                if same {
                    0.0
                } else {
                    t.graph().edge(e).cost * 10.0
                }
            },
        );
        // src on c0; a,c,d on three cores; sink shares a core with one of
        // them but pays 10 for the other two: start ≥ 5 + 10.
        assert!(r.makespan >= 15.0, "makespan {}", r.makespan);
    }

    #[test]
    fn makespan_within_analytic_bounds() {
        use l15_dag::gen::{DagGenParams, DagGenerator};
        use l15_testkit::rng::SmallRng;
        let gen = DagGenerator::new(DagGenParams::default());
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..5 {
            let t = gen.generate(&mut rng).unwrap();
            let p = uniform_priorities(&t);
            let r = simulate(&t, 8, &p, |v| t.graph().node(v).wcet, |e, _| t.graph().edge(e).cost);
            let lo = analysis::lambda_with(t.graph(), |_| 0.0).critical_path_length();
            let hi = analysis::makespan_upper_bound(t.graph());
            assert!(r.makespan >= lo - 1e-9, "{} < {lo}", r.makespan);
            assert!(r.makespan <= hi + 1e-9, "{} > {hi}", r.makespan);
        }
    }

    #[test]
    fn all_nodes_scheduled_exactly_once() {
        let t = fork_join();
        let p = uniform_priorities(&t);
        let r = simulate(&t, 2, &p, |v| t.graph().node(v).wcet, |_, _| 0.5);
        for v in t.graph().node_ids() {
            assert!(r.start[v.0].is_finite());
            assert!(r.finish[v.0] >= r.start[v.0]);
            assert!(r.core[v.0] < 2);
        }
        // Precedence holds in simulated times.
        for e in t.graph().edge_ids() {
            let edge = t.graph().edge(e);
            assert!(r.start[edge.to.0] >= r.finish[edge.from.0] - 1e-9);
        }
    }

    #[test]
    fn cores_never_overlap() {
        let t = fork_join();
        let p = uniform_priorities(&t);
        let r = simulate(&t, 2, &p, |v| t.graph().node(v).wcet, |_, _| 0.0);
        // Collect intervals per core and check pairwise disjointness.
        for c in 0..2 {
            let mut iv: Vec<(f64, f64)> = t
                .graph()
                .node_ids()
                .filter(|v| r.core[v.0] == c)
                .map(|v| (r.start[v.0], r.finish[v.0]))
                .collect();
            iv.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in iv.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-9, "overlap on core {c}: {w:?}");
            }
        }
    }

    #[test]
    fn huge_wcets_simulate_exactly() {
        // Guard against narrowing: times near and above u32::MAX must
        // accumulate exactly through the event loop's f64 arithmetic
        // (any `as u32` truncation on the way would corrupt the sum).
        let big = u32::MAX as f64;
        let bigger = (u64::from(u32::MAX) + 11) as f64;
        let t = chain(&[(big, 0.0), (bigger, big), (big, 2.0)]);
        let p = uniform_priorities(&t);
        // Two cores force cross-core data waits to be paid in full.
        let r = simulate(&t, 2, &p, |v| t.graph().node(v).wcet, |e, _| t.graph().edge(e).cost);
        assert_eq!(r.makespan, big + big + bigger + 2.0 + big);
        for v in t.graph().node_ids() {
            assert!(r.finish[v.0].is_finite());
        }
    }

    #[test]
    fn higher_priority_dispatches_first_under_contention() {
        // Two parallel nodes, one core: the higher-priority one runs first.
        let mut b = DagBuilder::new();
        let src = b.add_node(Node::new(0.0, 0));
        let hi = b.add_node(Node::new(1.0, 0));
        let lo = b.add_node(Node::new(1.0, 0));
        let sink = b.add_node(Node::new(0.0, 0));
        b.add_edge(src, hi, 0.0, 0.5).unwrap();
        b.add_edge(src, lo, 0.0, 0.5).unwrap();
        b.add_edge(hi, sink, 0.0, 0.5).unwrap();
        b.add_edge(lo, sink, 0.0, 0.5).unwrap();
        let t = DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap();
        let mut p = vec![4, 1, 3, 0];
        p[1] = 1; // hi gets LOW value first; check ordering flips with it
        let r1 = simulate(&t, 1, &p, |v| t.graph().node(v).wcet, |_, _| 0.0);
        assert!(r1.start[2] < r1.start[1], "node with priority 3 first");
        let p2 = vec![4, 3, 1, 0];
        let r2 = simulate(&t, 1, &p2, |v| t.graph().node(v).wcet, |_, _| 0.0);
        assert!(r2.start[1] < r2.start[2]);
    }
}
