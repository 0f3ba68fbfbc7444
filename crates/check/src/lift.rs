//! The lifter: one recorded `run_task` (see
//! [`CheckProgram::new`](crate::CheckProgram::new)) → the per-node protocol
//! streams R1–R5 judge. [`lift`] hands each kept event, in recorded order,
//! to the node it belongs to:
//!
//! * `NodeStart` — the node's core and place in the dispatch order;
//! * `Ctrl` `demand` / `ip_set` — the node dispatched on the core, from
//!   just before its `NodeStart` to its publish section;
//! * `WayGrant` — a `Grant` of the node last dispatched on the lane;
//! * `WayRevoke` — a `Release` of the node whose completion last opened a
//!   reclaim section (the kernel never demands fewer ways than a lane
//!   owns, so the Walloc itself never revokes);
//! * `GvPublish` — a `GvPublish` of the node's output line.
//!
//! Accesses carry no address in the recording, so `Read` / `Write` come
//! from the [`TaskLayout`]: the reads right after the dispatch section, the
//! write at `WallocDone`, where the kernel owes the `ip_set` re-issue. A
//! node that finishes before its Walloc settles is owed none (the
//! completion flush covers its conventional-path stores): its write sits
//! with its reads, before any grant.

use std::error::Error;
use std::fmt;

use l15_cache::l15::protocol::ProtocolOp;
use l15_core::hb::{vector_clocks_from, VectorClocks};
use l15_dag::{DagTask, NodeId};
use l15_runtime::kernel::KernelError;
use l15_runtime::TaskLayout;
use l15_soc::SocConfig;
use l15_trace::{Category, CtrlKind, EventKind, FlightRecorder, SectionKind};

/// The events [`lift`] reads, and all a lift's recorder keeps: node,
/// control and kernel-section events, grants, revokes and publishes. Not
/// the SDU's per-cycle stalls or the per-hit GV consumes: a program that
/// over-demands the cluster emits those by the million.
pub fn lifted(kind: &EventKind) -> bool {
    matches!(kind.category(), Category::Ctrl | Category::Node | Category::Kernel)
        || matches!(
            kind,
            EventKind::WayGrant { .. } | EventKind::WayRevoke { .. } | EventKind::GvPublish { .. }
        )
}

/// Ring capacity of a lift's recorder: 24 MiB of events at most. The
/// largest run of the full `l15 check` sweep keeps under 352 k events.
pub const CAPTURE_EVENTS: usize = 1 << 20;

/// The ops one node's dispatch-to-completion issued, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStream {
    /// The node.
    pub node: NodeId,
    /// The core the kernel dispatched it to.
    pub core: usize,
    /// The ops, each with the index of the recorded event it was lifted
    /// from (non-decreasing: R2 merges all streams in that order).
    pub ops: Vec<(u64, ProtocolOp)>,
}

/// Every node's stream plus the shared facts the checker needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStreams {
    /// Total cluster ways (ζ).
    pub ways: usize,
    /// Per-node application ids (index = node id).
    pub tids: Vec<u8>,
    /// Streams in dispatch order.
    pub streams: Vec<NodeStream>,
    /// Per-node dependent-data line address (index = node id).
    pub line_of: Vec<u64>,
    /// Ways granted to each node (index = node id).
    pub granted: Vec<Vec<usize>>,
}

impl KernelStreams {
    /// The stream of node `v`, if present.
    pub fn stream_of(&self, v: NodeId) -> Option<&NodeStream> {
        self.streams.iter().find(|s| s.node == v)
    }

    /// Mutable access to the stream of node `v` (for seeded mutations).
    pub fn stream_of_mut(&mut self, v: NodeId) -> Option<&mut NodeStream> {
        self.streams.iter_mut().find(|s| s.node == v)
    }
}

/// Why a program could not be lifted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LiftError {
    /// The kernel run failed.
    Run(KernelError),
    /// The recorder's ring dropped this many events the lift reads: the
    /// stream would be partial, so there is none.
    Dropped(u64),
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::Run(e) => e.fmt(f),
            LiftError::Dropped(n) => {
                write!(f, "the recording dropped {n} protocol event(s); no partial stream")
            }
        }
    }
}

impl Error for LiftError {}

/// Lifts a complete recording of `task` on a `cfg` SoC into its kernel
/// streams and the happens-before clocks of the dispatch it records.
/// `tids` declares each node's application (all zero when `None`; panics
/// on a length other than the node count).
///
/// # Errors
///
/// [`LiftError::Dropped`] when the ring dropped any event (record with a
/// recorder [`keeping`](FlightRecorder::keeping) only the [`lifted`]
/// events).
pub fn lift(
    task: &DagTask,
    tids: Option<Vec<u8>>,
    cfg: &SocConfig,
    rec: &FlightRecorder,
) -> Result<(KernelStreams, VectorClocks), LiftError> {
    let dropped = rec.dropped().total();
    if dropped > 0 {
        return Err(LiftError::Dropped(dropped));
    }
    let dag = task.graph();
    let n = dag.node_count();
    let tids = tids.unwrap_or_else(|| vec![0; n]);
    assert_eq!(tids.len(), n, "one tid per node");
    let layout = TaskLayout::new(dag);
    let line_of: Vec<u64> = dag.node_ids().map(|v| u64::from(layout.output_of(v))).collect();
    let carries = |v: usize| dag.node(NodeId(v)).data_bytes > 0;
    let preds: Vec<Vec<NodeId>> =
        dag.node_ids().map(|v| dag.predecessors(v).iter().map(|&(_, p)| p).collect()).collect();
    let (cpc, cores) = (cfg.cores_per_cluster, cfg.total_cores());

    let mut ops: Vec<Vec<(u64, ProtocolOp)>> = vec![Vec::new(); n];
    let mut granted: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut core_of = vec![0; n];
    let mut order = Vec::with_capacity(n);
    // Per node, until its Walloc settles: the dispatch section's event and
    // op count, where an unsettled node's write goes.
    let mut unsettled: Vec<Option<(u64, usize)>> = vec![None; n];
    // Per core: control ops issued for the next dispatch, the node whose
    // dispatch-to-publish window is open, the node last dispatched.
    let mut pending: Vec<Vec<(u64, ProtocolOp)>> = vec![Vec::new(); cores];
    let mut open: Vec<Option<usize>> = vec![None; cores];
    let mut last: Vec<Option<usize>> = vec![None; cores];
    let mut reclaimer: Option<usize> = None;

    for (seq, e) in rec.events().enumerate() {
        let seq = seq as u64;
        match e.kind {
            EventKind::NodeStart { node, core } => {
                let (v, c) = (node as usize, core as usize);
                ops[v] = std::mem::take(&mut pending[c]);
                (open[c], last[c], core_of[v]) = (Some(v), Some(v), c);
                order.push(NodeId(v));
            }
            EventKind::Section { node, kind: SectionKind::Dispatch, .. } => {
                let v = node as usize;
                let inputs = preds[v].iter().filter(|p| carries(p.0));
                ops[v].extend(inputs.map(|p| (seq, ProtocolOp::Read { line: line_of[p.0] })));
                unsettled[v] = Some((seq, ops[v].len()));
            }
            EventKind::WallocDone { core, .. } => {
                if let Some(v) = open[core as usize] {
                    unsettled[v] = None;
                    if carries(v) {
                        ops[v].push((seq, ProtocolOp::Write { line: line_of[v] }));
                    }
                }
            }
            EventKind::NodeFinish { node, .. } => {
                let v = node as usize;
                if let Some((at, len)) = unsettled[v].filter(|_| carries(v)) {
                    ops[v].insert(len, (at, ProtocolOp::Write { line: line_of[v] }));
                }
            }
            EventKind::Ctrl { core, op, arg } => {
                let op = match op {
                    CtrlKind::Demand => ProtocolOp::Demand { ways: arg as usize },
                    CtrlKind::IpSet => ProtocolOp::IpSet { on: arg != 0 },
                    _ => continue,
                };
                let c = core as usize;
                match open[c] {
                    Some(v) => ops[v].push((seq, op)),
                    None => pending[c].push((seq, op)),
                }
            }
            EventKind::WayGrant { cluster, lane, way } => {
                if let Some(v) = last[cluster as usize * cpc + lane as usize] {
                    ops[v].push((seq, ProtocolOp::Grant { way: way as usize }));
                    granted[v].push(way as usize);
                }
            }
            EventKind::WayRevoke { way, .. } => {
                if let Some(v) = reclaimer {
                    ops[v].push((seq, ProtocolOp::Release { way: way as usize }));
                }
            }
            EventKind::GvPublish { cluster, lane, .. } => {
                if let Some(v) = open[cluster as usize * cpc + lane as usize] {
                    ops[v].push((seq, ProtocolOp::GvPublish { line: line_of[v] }));
                }
            }
            EventKind::Section { core, kind: SectionKind::Publish, .. } => {
                open[core as usize] = None;
            }
            EventKind::Section { core, kind: SectionKind::Reclaim, .. } => {
                reclaimer = last[core as usize];
            }
            _ => {}
        }
    }

    let vc = vector_clocks_from(cores, &core_of, &order, &preds);
    let streams = order
        .iter()
        .map(|&v| NodeStream { node: v, core: core_of[v.0], ops: std::mem::take(&mut ops[v.0]) })
        .collect();
    let ways = cfg.l15.map_or(0, |l| l.ways);
    Ok((KernelStreams { ways, tids, streams, line_of, granted }, vc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckProgram;
    use l15_core::alg1::schedule_with_l15;
    use l15_core::plan::SchedulePlan;
    use l15_dag::{DagBuilder, ExecutionTimeModel, Node};
    use l15_runtime::kernel::KernelConfig;
    use l15_runtime::run_task_traced;
    use l15_soc::Soc;

    fn diamond() -> (DagTask, SchedulePlan) {
        let mut b = DagBuilder::new();
        let src = b.add_node(Node::new(1.0, 2048));
        let a = b.add_node(Node::new(4.0, 2048));
        let c = b.add_node(Node::new(4.0, 2048));
        let sink = b.add_node(Node::new(1.0, 0));
        b.add_edge(src, a, 1.0, 0.5).unwrap();
        b.add_edge(src, c, 1.0, 0.5).unwrap();
        b.add_edge(a, sink, 1.0, 0.5).unwrap();
        b.add_edge(c, sink, 1.0, 0.5).unwrap();
        let task = DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap();
        let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048).unwrap());
        (task, plan)
    }

    #[test]
    fn each_stream_follows_the_section_4_3_shape_of_the_run() {
        let (task, plan) = diamond();
        let (cfg, kcfg) = (SocConfig::proposed_8core(), KernelConfig::default());
        let prog = CheckProgram::new(task.clone(), &plan, None, &cfg, &kcfg).unwrap();
        let (ks, vc) = (prog.streams(), prog.vc());
        assert_eq!(ks.streams.len(), 4, "one stream per node");
        assert_eq!(ks.streams[0].node, task.graph().source(), "dispatch order");
        assert!(vc.concurrent(NodeId(1), NodeId(2)), "the branches ran on two cores");
        let src = &ks.stream_of(NodeId(0)).unwrap().ops;
        let kinds: Vec<ProtocolOp> = src.iter().map(|&(_, o)| o).collect();
        let line = ks.line_of[0];
        assert_eq!(kinds[..2], [ProtocolOp::Demand { ways: 1 }, ProtocolOp::IpSet { on: true }]);
        assert_eq!(
            kinds[2..],
            [
                ProtocolOp::Grant { way: ks.granted[0][0] },
                ProtocolOp::IpSet { on: true },
                ProtocolOp::Write { line },
                ProtocolOp::GvPublish { line },
            ],
            "{kinds:?}"
        );
        assert!(src.windows(2).all(|w| w[0].0 <= w[1].0), "ops in recorded order");
        // Every grant comes back, in the stream of a last consumer.
        let releases = ks.streams[1..]
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|&&(_, o)| matches!(o, ProtocolOp::Release { .. }))
            .count();
        assert_eq!(releases, ks.granted.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn a_ring_that_dropped_a_protocol_event_is_a_typed_error() {
        let (task, plan) = diamond();
        let cfg = SocConfig::proposed_8core();
        let mut soc = Soc::new(cfg.clone(), 0);
        let (_, rec) = run_task_traced(&mut soc, &task, &plan, &KernelConfig::default(), 64)
            .expect("the run completes");
        let dropped = rec.dropped().total();
        assert!(rec.dropped().of(Category::Node) > 0, "a 64-slot ring loses protocol events");
        assert_eq!(lift(&task, None, &cfg, &rec).unwrap_err(), LiftError::Dropped(dropped));
    }
}
