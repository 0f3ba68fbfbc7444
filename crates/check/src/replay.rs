//! Conservation checks: a run's always-on counters against what its plan
//! (or a fuzz case's clean contract) promises.
//!
//! The SoC's [`TraceCounters`] are maintained with or without a recorder
//! attached, so every run — including long soak runs where a recorder's
//! ring would wrap — leaves enough evidence for conservation checks. The
//! expectation is derived from the plan or the case, never from the run
//! it judges, so the check cannot agree with a run merely because it read
//! that run.
//!
//! The checks are deliberately *conservation* properties (equalities and
//! lower bounds that hold for any legal interleaving), never exact
//! counts: dynamic grant totals depend on contention timing.

use l15_core::plan::SchedulePlan;
use l15_dag::DagTask;
use l15_soc::trace::TraceCounters;

use crate::rules::{Finding, RuleId};

/// What a dynamic run of the program must leave in the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceExpectation {
    /// Nodes that publish a line held in L1.5 ways (`gv_set` must take
    /// effect at least once when positive).
    pub publishers: u64,
    /// Whether some node granted L1.5 ways writes dependent data (then at
    /// least one store must route via the L1.5).
    pub l15_stores_expected: bool,
    /// Lower bound on control-port operations: every dispatch issues at
    /// least `demand` and `ip_set`.
    pub min_ctrl_ops: u64,
}

impl TraceExpectation {
    /// Derives the expectation from the plan: every node the plan gives
    /// L1.5 ways and that produces dependent data publishes it from those
    /// ways, and every dispatch issues `demand` and `ip_set`.
    pub fn from_plan(task: &DagTask, plan: &SchedulePlan) -> Self {
        let dag = task.graph();
        let publishers = dag
            .node_ids()
            .filter(|&v| plan.local_ways[v.0] > 0 && dag.node(v).data_bytes > 0)
            .count() as u64;
        TraceExpectation {
            publishers,
            l15_stores_expected: publishers > 0,
            min_ctrl_ops: 2 * dag.node_count() as u64,
        }
    }
}

/// Checks a run's counters against `expect`, returning sorted findings.
pub fn check_counters(c: &TraceCounters, expect: &TraceExpectation) -> Vec<Finding> {
    let mut findings = Vec::new();
    if c.grants != c.revokes {
        findings.push(Finding {
            rule: RuleId::WayBalance,
            nodes: Vec::new(),
            line: None,
            witness: format!(
                "trace counts {} grants but {} revocations — way ownership did not \
                 return to the pool at quiesce",
                c.grants, c.revokes
            ),
        });
    }
    if expect.publishers > 0 && c.gv_updates == 0 {
        findings.push(Finding {
            rule: RuleId::GvStaleness,
            nodes: Vec::new(),
            line: None,
            witness: format!(
                "{} producer(s) must publish their lines, but no gv_set took effect",
                expect.publishers
            ),
        });
    }
    if expect.l15_stores_expected && c.stores_via_l15 == 0 {
        findings.push(Finding {
            rule: RuleId::IpSetBeforeGrant,
            nodes: Vec::new(),
            line: None,
            witness: format!(
                "ways were granted for dependent data, yet all {} stores took the \
                 conventional path — the inclusion policy never covered the grants",
                c.stores_conventional
            ),
        });
    }
    if c.ctrl_ops < expect.min_ctrl_ops {
        findings.push(Finding {
            rule: RuleId::IpSetBeforeGrant,
            nodes: Vec::new(),
            line: None,
            witness: format!(
                "only {} control ops observed; the Sec. 4.3 sequence needs at least {}",
                c.ctrl_ops, expect.min_ctrl_ops
            ),
        });
    }
    crate::rules::sort_findings(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::alg1::schedule_with_l15;
    use l15_dag::{DagBuilder, ExecutionTimeModel, Node};

    fn chain3() -> (DagTask, SchedulePlan) {
        let mut b = DagBuilder::new();
        let a = b.add_node(Node::new(1.0, 2048));
        let m = b.add_node(Node::new(1.0, 2048));
        let z = b.add_node(Node::new(1.0, 0));
        b.add_edge(a, m, 1.0, 0.5).unwrap();
        b.add_edge(m, z, 1.0, 0.5).unwrap();
        let task = DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap();
        let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048).unwrap());
        (task, plan)
    }

    fn expectation() -> TraceExpectation {
        let (task, plan) = chain3();
        TraceExpectation::from_plan(&task, &plan)
    }

    fn plausible_counters(e: &TraceExpectation) -> TraceCounters {
        TraceCounters {
            grants: 4,
            revokes: 4,
            gv_updates: e.publishers,
            stores_via_l15: 64,
            stores_conventional: 16,
            ctrl_ops: e.min_ctrl_ops + 3,
            ..TraceCounters::default()
        }
    }

    #[test]
    fn expectation_reflects_the_plan() {
        let e = expectation();
        assert!(e.publishers >= 1, "{e:?}");
        assert!(e.l15_stores_expected);
        assert_eq!(e.min_ctrl_ops, 6);
    }

    #[test]
    fn conforming_counters_are_clean() {
        let e = expectation();
        assert_eq!(check_counters(&plausible_counters(&e), &e), Vec::new());
    }

    #[test]
    fn each_conservation_violation_names_its_rule() {
        let e = expectation();
        let base = plausible_counters(&e);

        let c = TraceCounters { revokes: base.grants + 1, ..base };
        let f = check_counters(&c, &e);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::WayBalance);

        let c = TraceCounters { gv_updates: 0, ..base };
        let f = check_counters(&c, &e);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::GvStaleness);

        let c = TraceCounters { stores_via_l15: 0, ..base };
        let f = check_counters(&c, &e);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::IpSetBeforeGrant);
        assert!(f[0].witness.contains("conventional path"));

        let c = TraceCounters { ctrl_ops: 1, ..base };
        let f = check_counters(&c, &e);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::IpSetBeforeGrant);
    }
}
