//! Synthetic DAG generation following the experimental setup of Sec. 5.1.
//!
//! A DAG task is generated as follows (quoting the paper):
//!
//! * the number of layers is randomly decided in `[5, 10]`;
//! * the number of nodes in each layer is decided in `[2, p]` (`p = 15` by
//!   default);
//! * a node has a probability of 20 % to connect with every node in the
//!   previous layer;
//! * the period `T_i` is randomly generated in `[1, 1440]` units of time with
//!   `D_i = T_i`;
//! * the workload `W_i = U_i · T_i` is computed from a utilisation `U_i`, and
//!   node WCETs are generated uniformly based on `W_i`;
//! * the *critical path ratio* `cpr` controls the proportion of the longest
//!   path: `cpr = 20 %` means the longest (computation) path has length
//!   `W_i · 20 %`;
//! * the ratio between the total communication cost `Σμ` and `W_i` is 0.5,
//!   with each edge cost generated in `[1, Σμ/|E| · 2]`;
//! * every edge's ETM ratio `α_{j,k}` is generated in `(0, 0.7]`.
//!
//! On top of the layered topology we add a dedicated source and sink so that
//! the single-source/single-sink assumption holds; connectivity fix-ups
//! guarantee every non-source node has a predecessor in the previous layer and
//! every non-sink node a successor in the next one. The `cpr` steering runs
//! one path analysis per round on the order the build computed (DESIGN.md
//! §4.8).

use l15_testkit::rng::Rng;

use crate::analysis;
use crate::model::{Dag, DagBuilder, DagTask, EdgeId, Node, NodeId};
use crate::DagError;

/// Parameters of the synthetic generator. Defaults mirror Sec. 5.1.
#[derive(Debug, Clone, PartialEq)]
pub struct DagGenParams {
    /// Inclusive range for the number of inner layers (paper: `[5, 10]`).
    pub layers: (usize, usize),
    /// Maximum nodes per layer `p`; each layer draws its width from
    /// `[2, p]` (paper default `p = 15`).
    pub max_width: usize,
    /// Probability for a node to connect to each node of the previous layer
    /// (paper: 0.2).
    pub edge_prob: f64,
    /// Inclusive range for the period `T_i` (paper: `[1, 1440]`).
    pub period_range: (f64, f64),
    /// Task utilisation `U_i`; the workload is `W_i = U_i · T_i`.
    pub utilisation: f64,
    /// Critical path ratio: the longest computation path is steered towards
    /// `cpr · W_i`.
    pub cpr: f64,
    /// `Σμ / W_i` (paper: 0.5).
    pub comm_ratio: f64,
    /// Upper bound of the per-edge ETM ratio `α` (paper: 0.7, drawn in
    /// `(0, alpha_max]`).
    pub alpha_max: f64,
    /// Inclusive range for the per-node dependent-data volume `δ_j` in bytes
    /// (the case study uses `[2 KiB, 16 KiB]`).
    pub data_bytes_range: (u64, u64),
}

impl Default for DagGenParams {
    fn default() -> Self {
        DagGenParams {
            layers: (5, 10),
            max_width: 15,
            edge_prob: 0.2,
            period_range: (1.0, 1440.0),
            utilisation: 0.6,
            cpr: 0.3,
            comm_ratio: 0.5,
            alpha_max: 0.7,
            data_bytes_range: (2 * 1024, 16 * 1024),
        }
    }
}

impl DagGenParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidParameter`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), DagError> {
        let err =
            |name: &'static str, reason: String| Err(DagError::InvalidParameter { name, reason });
        if self.layers.0 == 0 || self.layers.0 > self.layers.1 {
            return err("layers", format!("need 1 <= lo <= hi, got {:?}", self.layers));
        }
        if self.max_width < 2 {
            return err("max_width", format!("p must be >= 2, got {}", self.max_width));
        }
        if !(0.0..=1.0).contains(&self.edge_prob) {
            return err("edge_prob", format!("must be in [0,1], got {}", self.edge_prob));
        }
        if !(self.period_range.0 > 0.0 && self.period_range.0 <= self.period_range.1) {
            return err("period_range", format!("need 0 < lo <= hi, got {:?}", self.period_range));
        }
        if !(self.utilisation > 0.0 && self.utilisation.is_finite()) {
            return err("utilisation", format!("must be > 0, got {}", self.utilisation));
        }
        if !(self.cpr > 0.0 && self.cpr <= 1.0) {
            return err("cpr", format!("must be in (0,1], got {}", self.cpr));
        }
        if !(self.comm_ratio >= 0.0 && self.comm_ratio.is_finite()) {
            return err("comm_ratio", format!("must be >= 0, got {}", self.comm_ratio));
        }
        if !(self.alpha_max > 0.0 && self.alpha_max <= 1.0) {
            return err("alpha_max", format!("must be in (0,1], got {}", self.alpha_max));
        }
        if self.data_bytes_range.0 > self.data_bytes_range.1 {
            return err(
                "data_bytes_range",
                format!("need lo <= hi, got {:?}", self.data_bytes_range),
            );
        }
        Ok(())
    }
}

/// Synthetic DAG-task generator (Sec. 5.1).
///
/// # Example
///
/// ```
/// use l15_dag::gen::{DagGenerator, DagGenParams};
///
/// let mut rng = l15_testkit::rng::SmallRng::seed_from_u64(42);
/// let gen = DagGenerator::new(DagGenParams { utilisation: 0.8, ..Default::default() });
/// let task = gen.generate(&mut rng)?;
/// let w = task.graph().total_work();
/// assert!((w / task.period() - 0.8).abs() < 1e-6);
/// # Ok::<(), l15_dag::DagError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DagGenerator {
    params: DagGenParams,
}

impl DagGenerator {
    /// Creates a generator with the given parameters (validated lazily at
    /// [`generate`](Self::generate) time).
    pub fn new(params: DagGenParams) -> Self {
        DagGenerator { params }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &DagGenParams {
        &self.params
    }

    /// Generates one DAG task.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidParameter`] if the parameter set is invalid.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<DagTask, DagError> {
        self.params.validate()?;
        let p = &self.params;

        // --- Topology: layered graph + dedicated source/sink -------------
        let n_layers = rng.gen_range(p.layers.0..=p.layers.1);
        let widths: Vec<usize> = (0..n_layers).map(|_| rng.gen_range(2..=p.max_width)).collect();

        let mut b = DagBuilder::new();
        let source = b.add_node(Node::new(0.0, 0));
        let mut layers: Vec<Vec<NodeId>> = Vec::with_capacity(n_layers);
        for &w in &widths {
            let layer: Vec<NodeId> = (0..w).map(|_| b.add_node(Node::new(0.0, 0))).collect();
            layers.push(layer);
        }
        let sink = b.add_node(Node::new(0.0, 0));

        // Random 20 % connections between consecutive layers.
        let mut has_succ = vec![false; b.node_count()];
        for li in 1..layers.len() {
            // Split to satisfy the borrow checker: read prev, write edges.
            let (prev_slice, cur_slice) = {
                let (a, c) = layers.split_at(li);
                (a[li - 1].clone(), c[0].clone())
            };
            for &v in &cur_slice {
                let mut connected = false;
                for &u in &prev_slice {
                    if rng.gen_bool(p.edge_prob) {
                        b.add_edge(u, v, 0.0, 1.0).expect("layered edges are valid");
                        has_succ[u.0] = true;
                        connected = true;
                    }
                }
                if !connected {
                    let u = prev_slice[rng.gen_range(0..prev_slice.len())];
                    b.add_edge(u, v, 0.0, 1.0).expect("layered edges are valid");
                    has_succ[u.0] = true;
                }
            }
            // Every node of the previous layer needs a successor; patch
            // orphans so the sink stays unique.
            for &u in &prev_slice {
                if !has_succ[u.0] {
                    let v = cur_slice[rng.gen_range(0..cur_slice.len())];
                    // A duplicate is impossible: u had no successors.
                    b.add_edge(u, v, 0.0, 1.0).expect("fixup edge is valid");
                    has_succ[u.0] = true;
                }
            }
        }
        // Source feeds the whole first layer; last layer drains to the sink.
        for &v in &layers[0] {
            b.add_edge(source, v, 0.0, 1.0).expect("source edges are valid");
        }
        for &u in layers.last().expect("at least one layer") {
            b.add_edge(u, sink, 0.0, 1.0).expect("sink edges are valid");
        }

        let mut dag = b.build().expect("generator builds a valid DAG");

        // --- Timing: period, workload, cpr-steered WCETs -----------------
        let period = rng.gen_range(p.period_range.0..=p.period_range.1);
        let workload = p.utilisation * period;
        let n = dag.node_count();

        // Uniform raw weights scaled to the workload. Source/sink get small
        // weights so they do not dominate the critical path.
        let mut raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        raw[source.0] *= 0.1;
        raw[sink.0] *= 0.1;
        let scale = workload / raw.iter().sum::<f64>();
        for (i, r) in raw.iter().enumerate() {
            dag.node_mut(NodeId(i)).wcet = r * scale;
        }

        steer_critical_path(&mut dag, workload, p.cpr);

        // --- Dependent data volumes --------------------------------------
        for v in 0..n {
            let id = NodeId(v);
            let bytes = if dag.out_degree(id) == 0 {
                0 // the sink produces no dependent data
            } else if p.data_bytes_range.0 == p.data_bytes_range.1 {
                p.data_bytes_range.0
            } else {
                rng.gen_range(p.data_bytes_range.0..=p.data_bytes_range.1)
            };
            dag.node_mut(id).data_bytes = bytes;
        }

        // --- Communication costs and ETM ratios ---------------------------
        let total_comm = p.comm_ratio * workload;
        let e_count = dag.edge_count();
        if e_count > 0 && total_comm > 0.0 {
            let hi = (total_comm / e_count as f64) * 2.0;
            let mut costs: Vec<f64> =
                (0..e_count).map(|_| rng.gen_range(1.0f64.min(hi)..=hi.max(1.0))).collect();
            // Rescale so Σμ matches exactly.
            let s = total_comm / costs.iter().sum::<f64>();
            for c in &mut costs {
                *c *= s;
            }
            for (i, c) in costs.into_iter().enumerate() {
                let e = dag.edge_mut(EdgeId(i));
                e.cost = c;
                // α ∈ (0, alpha_max]
                e.alpha = rng.gen_range(f64::EPSILON..=p.alpha_max);
            }
        }

        DagTask::new(dag, period, period)
    }

    /// Generates `count` independent DAG tasks.
    ///
    /// # Errors
    ///
    /// Propagates the first generation error (invalid parameters).
    pub fn generate_batch<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Result<Vec<DagTask>, DagError> {
        (0..count).map(|_| self.generate(rng)).collect()
    }
}

/// Iteratively rescales node WCETs so the longest computation-only path
/// approaches `cpr · workload` while the total stays `workload`.
///
/// Infeasibly small `cpr` values (the longest chain cannot shrink further
/// without another path taking over) converge to the achievable minimum.
fn steer_critical_path(dag: &mut Dag, workload: f64, cpr: f64) {
    let target = cpr * workload;
    let no_comm = vec![0.0; dag.edge_count()];
    for _ in 0..32 {
        let lengths = analysis::lambda_from(dag, &no_comm);
        let current = lengths.critical_path_length();
        if (current - target).abs() <= 1e-6 * workload {
            break;
        }
        // Scale nodes on the current critical path towards the target and
        // renormalise everything back to the workload.
        let path = lengths.critical_path(dag, |_| 0.0);
        let path_work: f64 = path.iter().map(|&v| dag.node(v).wcet).sum();
        if path_work <= 0.0 {
            break;
        }
        // Damped adjustment avoids oscillation between competing paths.
        let f = (target / current).clamp(0.25, 4.0);
        let f = 1.0 + 0.8 * (f - 1.0);
        for v in path {
            dag.node_mut(v).wcet *= f;
        }
        let renorm = workload / dag.total_work();
        for v in 0..dag.node_count() {
            dag.node_mut(NodeId(v)).wcet *= renorm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_testkit::rng::SmallRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn default_params_validate() {
        DagGenParams::default().validate().unwrap();
    }

    #[test]
    fn invalid_params_are_rejected() {
        let p = DagGenParams { max_width: 1, ..DagGenParams::default() };
        assert!(p.validate().is_err());
        let p = DagGenParams { cpr: 0.0, ..DagGenParams::default() };
        assert!(p.validate().is_err());
        let p = DagGenParams { layers: (6, 5), ..DagGenParams::default() };
        assert!(p.validate().is_err());
        let p = DagGenParams { edge_prob: 1.5, ..DagGenParams::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn generated_dag_respects_structure() {
        let gen = DagGenerator::new(DagGenParams::default());
        for seed in 0..20 {
            let t = gen.generate(&mut rng(seed)).unwrap();
            let g = t.graph();
            // 5..=10 layers of 2..=15 nodes, plus source and sink.
            assert!(g.node_count() >= 5 * 2 + 2);
            assert!(g.node_count() <= 10 * 15 + 2);
            assert_eq!(g.in_degree(g.source()), 0);
            assert_eq!(g.out_degree(g.sink()), 0);
            for v in g.node_ids() {
                if v != g.source() {
                    assert!(g.in_degree(v) >= 1, "node {v} unreachable");
                }
                if v != g.sink() {
                    assert!(g.out_degree(v) >= 1, "node {v} is a spurious sink");
                }
            }
        }
    }

    #[test]
    fn workload_matches_utilisation() {
        for &u in &[0.2, 0.4, 0.6, 0.8, 1.0] {
            let gen = DagGenerator::new(DagGenParams { utilisation: u, ..Default::default() });
            let t = gen.generate(&mut rng(1)).unwrap();
            assert!((t.graph().total_work() / t.period() - u).abs() < 1e-9);
        }
    }

    #[test]
    fn comm_ratio_is_respected() {
        let gen = DagGenerator::new(DagGenParams::default());
        let t = gen.generate(&mut rng(3)).unwrap();
        let g = t.graph();
        assert!((g.total_comm_cost() / g.total_work() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cpr_steering_changes_critical_path() {
        let base = DagGenParams::default();
        let lo = DagGenerator::new(DagGenParams { cpr: 0.15, ..base.clone() })
            .generate(&mut rng(7))
            .unwrap();
        let hi =
            DagGenerator::new(DagGenParams { cpr: 0.6, ..base }).generate(&mut rng(7)).unwrap();
        let cp = |t: &DagTask| {
            analysis::lambda_with(t.graph(), |_| 0.0).critical_path_length()
                / t.graph().total_work()
        };
        assert!(cp(&lo) < cp(&hi));
        // High cpr targets are easy to hit exactly.
        assert!((cp(&hi) - 0.6).abs() < 0.05, "got {}", cp(&hi));
    }

    #[test]
    fn alpha_in_range() {
        let gen = DagGenerator::new(DagGenParams::default());
        let t = gen.generate(&mut rng(9)).unwrap();
        for e in t.graph().edge_ids() {
            let a = t.graph().edge(e).alpha;
            assert!(a > 0.0 && a <= 0.7, "alpha {a} out of range");
        }
    }

    #[test]
    fn data_bytes_in_range_and_sink_empty() {
        let gen = DagGenerator::new(DagGenParams::default());
        let t = gen.generate(&mut rng(11)).unwrap();
        let g = t.graph();
        for v in g.node_ids() {
            let d = g.node(v).data_bytes;
            if v == g.sink() {
                assert_eq!(d, 0);
            } else {
                assert!((2 * 1024..=16 * 1024).contains(&d));
            }
        }
    }

    #[test]
    fn batch_generates_distinct_tasks() {
        let gen = DagGenerator::new(DagGenParams::default());
        let batch = gen.generate_batch(5, &mut rng(13)).unwrap();
        assert_eq!(batch.len(), 5);
        let counts: std::collections::HashSet<usize> =
            batch.iter().map(|t| t.graph().node_count()).collect();
        // Extremely unlikely that all five have identical node counts.
        assert!(counts.len() > 1);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let gen = DagGenerator::new(DagGenParams::default());
        let a = gen.generate(&mut rng(99)).unwrap();
        let b = gen.generate(&mut rng(99)).unwrap();
        assert_eq!(a.graph().node_count(), b.graph().node_count());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.period(), b.period());
    }
}
