//! Trace-replay against a real cycle-accurate run: the kernel executes a
//! task on the simulated SoC, and the always-on counters must satisfy the
//! conservation expectation derived from the plan.

use l15_check::replay::{check_counters, TraceExpectation};
use l15_core::alg1::schedule_with_l15;
use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
use l15_runtime::kernel::{run_task, KernelConfig};
use l15_soc::{Soc, SocConfig};

fn diamond() -> DagTask {
    let mut b = DagBuilder::new();
    let src = b.add_node(Node::new(1.0, 2048));
    let a = b.add_node(Node::new(1.0, 2048));
    let c = b.add_node(Node::new(1.0, 2048));
    let sink = b.add_node(Node::new(1.0, 0));
    b.add_edge(src, a, 1.0, 0.5).unwrap();
    b.add_edge(src, c, 1.0, 0.5).unwrap();
    b.add_edge(a, sink, 1.0, 0.5).unwrap();
    b.add_edge(c, sink, 1.0, 0.5).unwrap();
    DagTask::new(b.build().unwrap(), 1e6, 1e6).unwrap()
}

#[test]
fn dynamic_counters_satisfy_the_static_expectation() {
    let task = diamond();
    let cfg = SocConfig::proposed_8core();
    let zeta = cfg.l15.map(|l| l.ways).unwrap_or(16);
    let plan = schedule_with_l15(&task, zeta, &ExecutionTimeModel::new(2048).unwrap());

    let mut soc = Soc::new(cfg, 0);
    let report = run_task(&mut soc, &task, &plan, &KernelConfig::default()).expect("run completes");
    assert!(report.dataflow_ok, "consumers observed every producer's data");

    let expect = TraceExpectation::from_plan(&task, &plan);
    assert!(expect.publishers > 0 && expect.l15_stores_expected, "{expect:?}");

    let counters = soc.uncore().trace().counters();
    let findings = check_counters(counters, &expect);
    assert_eq!(
        findings,
        Vec::new(),
        "a healthy kernel run violates no conservation law: {counters:?}"
    );
}
