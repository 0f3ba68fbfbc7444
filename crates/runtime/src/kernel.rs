//! The RTOS-like kernel: dispatches the nodes of one DAG task onto the
//! cores of a computing cluster, performing the Sec. 4.3 programming-model
//! steps at every context switch.
//!
//! Before a node `v_j` is dispatched (paper, Sec. 4.3):
//!
//! 1. `demand()` is invoked with the number of local ways Alg. 1 assigned
//!    to `v_j` (on top of what the core already owns);
//! 2. `ip_set()` marks the ways inclusive, so the dependent data `v_j`
//!    produces is written into the L1.5 through the L1;
//! 3. the predecessors' local ways were flipped to global (`gv_set`) when
//!    the predecessors finished, so `v_j` reads its inputs straight from
//!    the L1.5.
//!
//! When every consumer of a node's data has finished, the kernel (which,
//! per Sec. 2.3, holds "a comprehensive view of the system") revokes those
//! specific ways, returning the capacity to the pool.
//!
//! The kernel doubles as the **cycle-accurate monitor** of Sec. 5.3: it
//! integrates the L1.5 way utilisation over the global clock and measures
//! the misconfiguration ratio φ — the fraction of task execution that ran
//! before the one-way-per-cycle Walloc finished applying the demanded
//! configuration.
//!
//! One loop: dispatch, account what ran ahead ([`Soc::next_real`]), step,
//! react — and only then let the stepped core, if its lane's demand is met,
//! run ahead privately ([`Soc::run_ahead`], whose contract the kernel keeps:
//! `DESIGN.md` §4.7).

use std::error::Error;
use std::fmt;

use l15_cache::WayMask;
use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::baseline_priorities;
use l15_core::plan::SchedulePlan;
use l15_dag::{DagTask, ExecutionTimeModel, NodeId};
use l15_rvcore::bus::SystemBus;
use l15_rvcore::isa::L15Op;
use l15_soc::{Soc, SocConfig};
use l15_trace::{EventKind, SectionKind};

use crate::layout::TaskLayout;
use crate::workgen::{node_program, WorkScale};

/// Kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Which cluster executes the task.
    pub cluster: usize,
    /// Whether to drive the L1.5 (false = legacy mode: publish dependent
    /// data by flushing the L1D to the shared L2 at node completion).
    pub use_l15: bool,
    /// Compute weight per node.
    pub scale: WorkScale,
    /// Abort threshold (cycles).
    pub max_cycles: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cluster: 0,
            use_l15: true,
            scale: WorkScale::default(),
            max_cycles: 50_000_000,
        }
    }
}

/// The plan and configuration a preset SoC runs `task` under: Alg. 1
/// over the L1.5's ways (2 KiB way size) with the L1.5 driven, or the
/// baseline priorities in legacy mode. `/simulate`, `/trace`, `/certify`,
/// `l15 trace` and `l15 absint` all derive their run from it.
pub fn preset_plan(
    task: &DagTask,
    cfg: &SocConfig,
    scale: WorkScale,
    max_cycles: u64,
) -> (SchedulePlan, KernelConfig) {
    let etm = ExecutionTimeModel::new(2048).expect("2 KiB is a valid way size");
    let plan = match cfg.l15 {
        Some(l15) => schedule_with_l15(task, l15.ways, &etm),
        None => baseline_priorities(task),
    };
    (plan, KernelConfig { cluster: 0, use_l15: cfg.l15.is_some(), scale, max_cycles })
}

/// Errors from a kernel run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KernelError {
    /// A node program failed to assemble.
    Assemble(String),
    /// The run exceeded [`KernelConfig::max_cycles`].
    Timeout {
        /// Nodes completed before the abort.
        completed: usize,
        /// Total nodes.
        total: usize,
    },
    /// The requested cluster does not exist on this SoC.
    NoSuchCluster(usize),
    /// A federated [`ClusterPlan`](l15_core::federated::ClusterPlan) does
    /// not cover the task set one-to-one.
    PlanMismatch {
        /// Tasks handed to the runner.
        tasks: usize,
        /// Assignments in the plan.
        assignments: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Assemble(e) => write!(f, "node program assembly failed: {e}"),
            KernelError::Timeout { completed, total } => {
                write!(f, "timed out with {completed}/{total} nodes complete")
            }
            KernelError::NoSuchCluster(c) => write!(f, "no cluster {c} on this SoC"),
            KernelError::PlanMismatch { tasks, assignments } => {
                write!(f, "cluster plan covers {assignments} task(s), runner got {tasks}")
            }
        }
    }
}

impl Error for KernelError {}

/// Per-run measurements (the Sec. 5.3 monitor's output).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Cycles from kernel start to the sink's completion.
    pub makespan_cycles: u64,
    /// Per-node dispatch cycle (the core's clock right before the first
    /// instruction), for per-node observed-cycle accounting against
    /// static bounds.
    pub node_start: Vec<u64>,
    /// Per-node completion cycle.
    pub node_finish: Vec<u64>,
    /// Cycle-weighted average L1.5 way utilisation during the run.
    pub l15_utilisation: f64,
    /// Misconfiguration ratio φ: mean per-node fraction of execution spent
    /// before the demanded way configuration had been fully applied.
    pub phi: f64,
    /// L1.5 hits observed (zero in legacy mode).
    pub l15_hits: u64,
    /// L1.5 misses observed.
    pub l15_misses: u64,
    /// Whether every producer's output buffer contained data after the run
    /// (end-to-end data-flow check).
    pub dataflow_ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Pending,
    Ready,
    Running { core: usize },
    Done,
}

/// Runs one DAG task instance on `soc` under `plan`.
///
/// # Errors
///
/// Returns [`KernelError`] on assembly failure, missing cluster or timeout.
pub fn run_task(
    soc: &mut Soc,
    task: &DagTask,
    plan: &SchedulePlan,
    cfg: &KernelConfig,
) -> Result<RunReport, KernelError> {
    let dag = task.graph();
    let n = dag.node_count();
    let cpc = soc.uncore().config().cores_per_cluster;
    let clusters = soc.uncore().config().clusters;
    if cfg.cluster >= clusters {
        return Err(KernelError::NoSuchCluster(cfg.cluster));
    }
    let cores = cfg.cluster * cpc..(cfg.cluster + 1) * cpc;
    let has_l15 = cfg.use_l15 && soc.uncore().l15(cfg.cluster).is_some();

    // Load all node programs.
    let layout = TaskLayout::new(dag);
    for v in dag.node_ids() {
        let words = node_program(dag, v, &layout, cfg.scale)
            .map_err(|e| KernelError::Assemble(e.to_string()))?;
        soc.uncore_mut().load_program(layout.code_of(v), &words);
    }

    // Park every core: from here on a cluster core that is not halted is
    // running a node.
    for c in cores.clone() {
        soc.core_mut(c).halt();
    }

    let mut state = vec![NodeState::Pending; n];
    state[dag.source().0] = NodeState::Ready;
    // How many nodes are `Ready` and how many cluster cores hold no node:
    // the dispatch scan below only runs while both are non-zero.
    let mut ready = 1usize;
    let mut idle = cores.len();
    // Cycle at which each node became ready (its latest predecessor's
    // completion): an idle core picking the node up fast-forwards there.
    let mut ready_cycle = vec![0u64; n];
    let mut preds_left: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
    let mut consumers_left: Vec<usize> = dag.node_ids().map(|v| dag.out_degree(v)).collect();
    let mut node_ways: Vec<WayMask> = vec![WayMask::EMPTY; n];
    let mut node_start = vec![0u64; n];
    let mut node_finish = vec![0u64; n];
    let mut done = 0usize;

    // Per-core bookkeeping.
    let mut core_node: Vec<Option<NodeId>> = vec![None; soc.n_cores()];
    let mut dispatch_cycle = vec![0u64; soc.n_cores()];
    let mut want_ways = vec![0usize; soc.n_cores()];
    let mut config_done_cycle: Vec<Option<u64>> = vec![None; soc.n_cores()];
    let mut owned_before = vec![WayMask::EMPTY; soc.n_cores()];
    // A node that finishes before its Walloc settles leaves its lane's
    // demand set, so the Walloc may go on granting to the idle lane. Per
    // core: that node and the lane's ways at its completion; anything the
    // lane gains beyond them belongs to no node. Scanned when the grant
    // count moves.
    let mut unsettled: Vec<Option<(usize, WayMask)>> = vec![None; soc.n_cores()];
    let mut seen_grants = soc.uncore().trace().counters().grants;

    // Monitor accumulators. Utilisation integrates owned ways × cycles in
    // an integer: one sample covers any steps during which no way moved.
    let start_cycle = soc.global_cycle();
    let (mut last_sample, mut way_cycles) = (start_cycle, 0u64);
    // Owned ways, and the grant + revoke count they were read at: way
    // ownership only moves with one of those two counters.
    let (mut owned, mut owned_moves) = (0u64, u64::MAX);
    let mut sample = |soc: &Soc| {
        let nowc = soc.global_cycle();
        if has_l15 && nowc > last_sample {
            let counters = soc.uncore().trace().counters();
            let moves = counters.grants + counters.revokes;
            let l15 = soc.uncore().l15(cfg.cluster).expect("has_l15 checked");
            if moves != owned_moves {
                (owned, owned_moves) = (l15.owned_ways() as u64, moves);
            }
            debug_assert_eq!(owned, l15.owned_ways() as u64, "a way moved uncounted");
            way_cycles += owned * (nowc - last_sample);
            last_sample = nowc;
        }
    };
    let mut phi_sum = 0.0f64;
    let mut phi_nodes = 0usize;

    // Left early on a timeout, or (alike) if nothing runs but nodes remain.
    while done < n {
        // --- Dispatch ready nodes to idle cores ------------------------
        while ready > 0 && idle > 0 {
            let Some(core) =
                cores.clone().find(|&c| core_node[c].is_none() && soc.core(c).is_halted())
            else {
                break;
            };
            // Highest-priority ready node.
            let Some(v) = (0..n)
                .filter(|&i| state[i] == NodeState::Ready)
                .max_by_key(|&i| plan.priorities[i])
                .map(NodeId)
            else {
                break;
            };
            ready -= 1;
            idle -= 1;

            let lane = core % cpc;
            if has_l15 {
                unsettled[core] = None;
                // Context-switch reconfiguration (Sec. 4.3): grow the
                // core's ownership by the node's local ways, set them
                // inclusive. The Walloc applies it one way per cycle while
                // the node already runs — the source of φ.
                let owned = soc
                    .uncore()
                    .l15(cfg.cluster)
                    .expect("has_l15 checked")
                    .supply(lane)
                    .expect("lane in range");
                owned_before[core] = owned;
                let want = owned.count() + plan.local_ways[v.0];
                want_ways[core] = want;
                soc.uncore_mut().l15_ctrl(core, L15Op::Demand, want as u32);
                soc.uncore_mut().l15_ctrl(core, L15Op::IpSet, 1);
                config_done_cycle[core] =
                    if plan.local_ways[v.0] == 0 { Some(soc.clock(core)) } else { None };
            }

            let entry = layout.code_of(v);
            soc.advance_clock(core, ready_cycle[v.0]);
            let c = soc.core_mut(core);
            c.set_pc(entry);
            c.resume();
            core_node[core] = Some(v);
            dispatch_cycle[core] = soc.clock(core);
            node_start[v.0] = dispatch_cycle[core];
            state[v.0] = NodeState::Running { core };

            // Flight recorder: node lifecycle plus the Sec. 4.3
            // context-switch section (no-ops unless a recorder is attached).
            if soc.uncore().trace().recording() {
                let dc = dispatch_cycle[core];
                let (nv, cv) = (v.0 as u32, core as u32);
                let want = want_ways[core] as u32;
                let settled = config_done_cycle[core].is_some();
                let t = soc.uncore_mut().trace_mut();
                t.emit_at(dc, EventKind::NodeStart { node: nv, core: cv });
                if has_l15 {
                    t.emit_at(
                        dc,
                        EventKind::Section { core: cv, node: nv, kind: SectionKind::Dispatch },
                    );
                    t.emit_at(dc, EventKind::WallocStart { core: cv, want });
                    if settled {
                        // No extra local ways demanded: the episode is
                        // zero-length, closed at the dispatch cycle.
                        t.emit_at(dc, EventKind::WallocDone { core: cv, got: want });
                    }
                }
            }
        }

        // --- Account what ran ahead, then advance the laggard ------------
        // No way moves while queued cycles are accounted, so one sample
        // covers them, and the per-step timeout check they skip is monotone
        // in the clock: made once, after them, it decides alike.
        let Some(core) = soc.next_real(cores.clone()) else { break };
        sample(soc);
        if soc.global_cycle() - start_cycle > cfg.max_cycles {
            break;
        }
        soc.step_core(core);
        sample(soc);
        if has_l15 && config_done_cycle[core].is_none() {
            let supplied = soc
                .uncore()
                .l15(cfg.cluster)
                .expect("has_l15 checked")
                .supply(core % cpc)
                .expect("lane in range")
                .count();
            if supplied >= want_ways[core] {
                let cyc = soc.clock(core);
                config_done_cycle[core] = Some(cyc);
                // The Walloc grants ways non-inclusive; now that the
                // demanded configuration is fully applied, mark the node's
                // ways inclusive so the IPU routes its stores into the
                // L1.5 (the dispatch-time ip_set only covered ways owned
                // *before* the grant).
                soc.uncore_mut().l15_ctrl(core, L15Op::IpSet, 1);
                soc.uncore_mut().trace_mut().emit_at(
                    cyc,
                    EventKind::WallocDone { core: core as u32, got: supplied as u32 },
                );
            }
        }
        let grants = soc.uncore().trace().counters().grants;
        if has_l15 && grants != seen_grants {
            seen_grants = grants;
            // Late grants to an idle lane go back before anything is
            // dispatched there; the revoke also lowers the lane's demand.
            for c in cores.clone() {
                let Some((v, owned)) = unsettled[c] else { continue };
                let l15 = soc.uncore().l15(cfg.cluster).expect("has_l15 checked");
                let late = l15.supply(c % cpc).expect("lane in range").difference(owned);
                if !late.is_empty() {
                    reclaim(soc, cfg.cluster, c, v, late, soc.clock(core));
                    unsettled[c] = None;
                }
            }
        }

        // --- Completion handling -----------------------------------------
        if soc.core(core).is_halted() {
            let v = core_node[core].take().expect("core was running a node");
            idle += 1;
            let lane = core % cpc;
            let finish = soc.clock(core);
            node_finish[v.0] = finish;
            state[v.0] = NodeState::Done;
            done += 1;
            soc.uncore_mut()
                .trace_mut()
                .emit_at(finish, EventKind::NodeFinish { node: v.0 as u32, core: core as u32 });

            // φ contribution for this node.
            if has_l15 {
                let exec = finish.saturating_sub(dispatch_cycle[core]).max(1);
                let cfg_done = config_done_cycle[core].unwrap_or(finish);
                let miscfg = cfg_done.saturating_sub(dispatch_cycle[core]).min(exec);
                phi_sum += miscfg as f64 / exec as f64;
                phi_nodes += 1;

                // Publish the node's ways: everything gained since
                // dispatch plus what was already published stays visible.
                let owned_now = soc
                    .uncore()
                    .l15(cfg.cluster)
                    .expect("has_l15 checked")
                    .supply(lane)
                    .expect("lane in range");
                let fresh = owned_now.difference(owned_before[core]);
                node_ways[v.0] = fresh;
                if config_done_cycle[core].is_none() {
                    unsettled[core] = Some((v.0, owned_now));
                }
                // Stores issued during the misconfiguration window (before
                // the Walloc finished granting ways) took the conventional
                // L1D write-back path; push them down so consumers on
                // other cores observe the full output, then publish.
                soc.uncore_mut().flush_l1d(core);
                let published = soc
                    .uncore()
                    .l15(cfg.cluster)
                    .expect("has_l15 checked")
                    .gv_get(lane)
                    .expect("lane in range");
                soc.uncore_mut().l15_ctrl(core, L15Op::GvSet, published.union(fresh).port_word());
                soc.uncore_mut().trace_mut().emit_at(
                    finish,
                    EventKind::Section {
                        core: core as u32,
                        node: v.0 as u32,
                        kind: SectionKind::Publish,
                    },
                );
            } else {
                // Legacy publication: flush the producer's L1D to the L2.
                soc.uncore_mut().flush_l1d(core);
            }

            // Readiness propagation + way reclamation.
            for &(_, s) in dag.successors(v) {
                preds_left[s.0] -= 1;
                ready_cycle[s.0] = ready_cycle[s.0].max(finish);
                if preds_left[s.0] == 0 && state[s.0] == NodeState::Pending {
                    state[s.0] = NodeState::Ready;
                    ready += 1;
                }
            }
            if has_l15 {
                // Back to the pool: a producer's ways after its last consumer.
                for &(_, p) in dag.predecessors(v) {
                    consumers_left[p.0] -= 1;
                    if consumers_left[p.0] == 0 {
                        reclaim(soc, cfg.cluster, core, p.0, node_ways[p.0], finish);
                    }
                }
                if dag.out_degree(v) == 0 {
                    reclaim(soc, cfg.cluster, core, v.0, node_ways[v.0], finish);
                }
            }
        } else if !has_l15
            || soc.uncore().l15(cfg.cluster).is_some_and(|l| l.demand_met(core % cpc) == Ok(true))
        {
            // Still running, and the Walloc owes its lane nothing (a settled
            // demand, or one a reclaim cancelled): execute ahead what only
            // it can see. Here, after all post-step work, not in a step.
            soc.run_ahead(core);
        }
    }
    if done < n {
        // Leave no core with executed but unaccounted instructions.
        soc.settle(cores);
        return Err(KernelError::Timeout { completed: done, total: n });
    }

    // End-to-end data-flow check: every producer's buffer holds data.
    soc.uncore_mut().flush_all();
    let mut dataflow_ok = true;
    for v in dag.node_ids() {
        if dag.node(v).data_bytes >= 4 && dag.out_degree(v) > 0 {
            let mut b = [0u8; 4];
            soc.uncore_mut().host_read(layout.output_of(v), &mut b);
            if u32::from_le_bytes(b) == 0 {
                dataflow_ok = false;
            }
        }
    }

    let end_cycle = soc.global_cycle();
    let stats = soc.uncore().stats();
    Ok(RunReport {
        makespan_cycles: end_cycle - start_cycle,
        node_start,
        node_finish,
        l15_utilisation: if end_cycle > start_cycle {
            let ways = soc.uncore().l15(cfg.cluster).map_or(1, |l15| l15.config().ways) as u64;
            way_cycles as f64 / (ways * (end_cycle - start_cycle)) as f64
        } else {
            0.0
        },
        phi: if phi_nodes > 0 { phi_sum / phi_nodes as f64 } else { 0.0 },
        l15_hits: stats.l15.hits(),
        l15_misses: stats.l15.misses(),
        dataflow_ok,
    })
}

/// Returns `ways` of `node` to the pool under a reclaim section opened
/// by `core` at `cycle`.
fn reclaim(soc: &mut Soc, cluster: usize, core: usize, node: usize, ways: WayMask, cycle: u64) {
    if ways.is_empty() {
        return;
    }
    let (core, node, kind) = (core as u32, node as u32, SectionKind::Reclaim);
    soc.uncore_mut().trace_mut().emit_at(cycle, EventKind::Section { core, node, kind });
    for w in ways.iter() {
        soc.uncore_mut().kernel_revoke_way(cluster, w).expect("way index from supply bitmap");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::alg1::schedule_with_l15;
    use l15_core::baseline::baseline_priorities;
    use l15_dag::{DagBuilder, ExecutionTimeModel, Node};
    use l15_soc::SocConfig;

    /// A small diamond: src → {a, b} → sink, 2 KiB of data each.
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
    fn runs_diamond_with_l15() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let report = run_task(&mut soc, &task, &plan, &KernelConfig::default()).unwrap();
        assert!(report.makespan_cycles > 0);
        assert!(report.dataflow_ok, "dependent data must flow end to end");
        assert!(report.l15_hits > 0, "consumers must hit the L1.5");
        assert!(report.phi < 0.1, "φ should be small: {}", report.phi);
        assert!(report.l15_utilisation > 0.0);
        // All nodes finished in precedence order.
        let g = task.graph();
        for e in g.edge_ids() {
            let edge = g.edge(e);
            assert!(report.node_finish[edge.from.0] <= report.node_finish[edge.to.0]);
        }
    }

    #[test]
    fn runs_diamond_legacy_mode() {
        let task = diamond();
        let plan = baseline_priorities(&task);
        let mut soc = Soc::new(SocConfig::cmp_l1_8core(), 0);
        let cfg = KernelConfig { use_l15: false, ..Default::default() };
        let report = run_task(&mut soc, &task, &plan, &cfg).unwrap();
        assert!(report.dataflow_ok);
        assert_eq!(report.l15_hits, 0, "no L1.5 in the legacy system");
        assert_eq!(report.phi, 0.0);
    }

    #[test]
    fn l15_reduces_consumer_latency() {
        // The same DAG on the proposed vs legacy system: the consumer-side
        // L1.5 hits must make the proposed run at least not slower overall
        // on the data-heavy diamond.
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();

        let plan_p = schedule_with_l15(&task, 16, &etm);
        let mut soc_p = Soc::new(SocConfig::proposed_8core(), 0);
        let rep_p = run_task(&mut soc_p, &task, &plan_p, &KernelConfig::default()).unwrap();

        let plan_b = baseline_priorities(&task);
        let mut soc_b = Soc::new(SocConfig::cmp_l2_8core(), 0);
        let cfg_b = KernelConfig { use_l15: false, ..Default::default() };
        let rep_b = run_task(&mut soc_b, &task, &plan_b, &cfg_b).unwrap();

        assert!(
            rep_p.makespan_cycles <= rep_b.makespan_cycles,
            "proposed {} vs legacy {}",
            rep_p.makespan_cycles,
            rep_b.makespan_cycles
        );
    }

    #[test]
    fn ways_are_reclaimed_after_consumption() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        run_task(&mut soc, &task, &plan, &KernelConfig::default()).unwrap();
        // After the run every way is back in the pool.
        assert_eq!(soc.uncore().l15(0).unwrap().utilisation(), 0.0);
    }

    #[test]
    fn missing_cluster_is_rejected() {
        let task = diamond();
        let plan = baseline_priorities(&task);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let cfg = KernelConfig { cluster: 9, ..Default::default() };
        assert!(matches!(
            run_task(&mut soc, &task, &plan, &cfg),
            Err(KernelError::NoSuchCluster(9))
        ));
    }
}
