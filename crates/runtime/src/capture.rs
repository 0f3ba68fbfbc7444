//! Traced kernel runs: attach an `l15-trace` flight recorder to the SoC's
//! monitor for the duration of one [`run_task`], then hand the recording
//! back together with the [`RunReport`].
//!
//! Attaching a recorder changes **nothing** about the run — it only
//! observes (the parity contract of `tests/trace_parity.rs`) — so a traced
//! run returns exactly the report an untraced run would.

use l15_core::plan::SchedulePlan;
use l15_dag::DagTask;
use l15_soc::Soc;
use l15_trace::FlightRecorder;

use crate::kernel::{run_task, KernelConfig, KernelError, RunReport};

/// Default flight-recorder capacity for [`run_task_traced`]: large enough
/// that the small benchmark DAGs record loss-free, small enough that a
/// soak run cannot exhaust memory.
pub const DEFAULT_CAPTURE_EVENTS: usize = 1 << 18;

/// Runs one DAG task instance with a [`FlightRecorder`] of `capacity`
/// events attached, returning the run report and the recording.
///
/// The recorder is always detached again, even when the run fails; on
/// error the recording is discarded with the error returned unchanged.
///
/// # Errors
///
/// Exactly the errors of [`run_task`].
pub fn run_task_traced(
    soc: &mut Soc,
    task: &DagTask,
    plan: &SchedulePlan,
    cfg: &KernelConfig,
    capacity: usize,
) -> Result<(RunReport, FlightRecorder), KernelError> {
    soc.uncore_mut().trace_mut().attach(FlightRecorder::new(capacity));
    let result = run_task(soc, task, plan, cfg);
    let rec =
        soc.uncore_mut().trace_mut().detach().expect("attached above, run_task never detaches");
    result.map(|report| (report, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::alg1::schedule_with_l15;
    use l15_dag::{DagBuilder, ExecutionTimeModel, Node};
    use l15_soc::SocConfig;
    use l15_trace::{Category, EventKind, Spans};

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
    fn traced_run_records_node_lifecycle_and_matches_untraced() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let cfg = KernelConfig::default();

        let mut soc_t = Soc::new(SocConfig::proposed_8core(), 0);
        let (report, rec) =
            run_task_traced(&mut soc_t, &task, &plan, &cfg, DEFAULT_CAPTURE_EVENTS).unwrap();
        assert!(!soc_t.uncore().trace().recording(), "recorder detached after the run");

        let mut soc_u = Soc::new(SocConfig::proposed_8core(), 0);
        let untraced = run_task(&mut soc_u, &task, &plan, &cfg).unwrap();
        assert_eq!(report, untraced, "tracing must not perturb the run");

        let n = task.graph().node_count();
        let events = rec.to_vec();
        let starts =
            events.iter().filter(|e| matches!(e.kind, EventKind::NodeStart { .. })).count();
        let finishes =
            events.iter().filter(|e| matches!(e.kind, EventKind::NodeFinish { .. })).count();
        assert_eq!(starts, n);
        assert_eq!(finishes, n);
        assert_eq!(rec.dropped().of(Category::Node), 0);
        assert_eq!(rec.dropped().of(Category::Kernel), 0);

        // Every node produced a complete, untruncated span whose finish
        // matches the monitor's completion cycle.
        let spans = Spans::from_events(&events);
        assert_eq!(spans.nodes.len(), n);
        for s in &spans.nodes {
            assert!(!s.truncated, "{s:?}");
            assert_eq!(s.finish, report.node_finish[s.node as usize]);
        }
        // Each dispatch opened a Walloc episode and every episode closed.
        let walloc_starts =
            events.iter().filter(|e| matches!(e.kind, EventKind::WallocStart { .. })).count();
        assert_eq!(walloc_starts, n);
        assert!(spans.walloc.iter().all(|w| !w.truncated), "{:?}", spans.walloc);
        assert_eq!(spans.walloc.len(), n);
    }

    #[test]
    fn tiny_recorder_drops_but_keeps_exact_accounts() {
        let task = diamond();
        let etm = ExecutionTimeModel::new(2048).unwrap();
        let plan = schedule_with_l15(&task, 16, &etm);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let (_, rec) =
            run_task_traced(&mut soc, &task, &plan, &KernelConfig::default(), 32).unwrap();
        assert!(rec.dropped().total() > 0, "a 32-slot ring must overflow");
        assert_eq!(rec.recorded() - rec.len() as u64, rec.dropped().total());
        assert_eq!(rec.len(), 32);
    }

    #[test]
    fn error_runs_still_detach_the_recorder() {
        let task = diamond();
        let plan = l15_core::baseline::baseline_priorities(&task);
        let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
        let cfg = KernelConfig { cluster: 9, ..Default::default() };
        assert!(run_task_traced(&mut soc, &task, &plan, &cfg, 64).is_err());
        assert!(!soc.uncore().trace().recording());
    }
}
