//! Per-rule firing and clean-pass tests on programs lifted from recorded
//! kernel runs: each rule has a seeded mutation that makes it (and only
//! it) fire with a correct witness, and the unmutated program passes every
//! rule.

use std::collections::BTreeSet;

use l15_cache::l15::protocol::ProtocolOp;
use l15_check::program::{CheckProgram, Mutation};
use l15_check::rules::RuleId;
use l15_core::alg1::schedule_with_l15;
use l15_core::plan::SchedulePlan;
use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node, NodeId};
use l15_runtime::kernel::KernelConfig;
use l15_soc::SocConfig;

/// A diamond: source → {a, c} → sink, every producer carrying data. On
/// two or more cores the branches are clock-concurrent.
fn diamond() -> (DagTask, l15_core::plan::SchedulePlan) {
    let mut b = DagBuilder::new();
    let src = b.add_node(Node::new(1.0, 2048));
    let a = b.add_node(Node::new(4.0, 2048));
    let c = b.add_node(Node::new(4.0, 2048));
    let sink = b.add_node(Node::new(1.0, 0));
    b.add_edge(src, a, 1.0, 0.5).unwrap();
    b.add_edge(src, c, 1.0, 0.5).unwrap();
    b.add_edge(a, sink, 1.0, 0.5).unwrap();
    b.add_edge(c, sink, 1.0, 0.5).unwrap();
    let task = DagTask::new(b.build().unwrap(), 100.0, 100.0).unwrap();
    let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048).unwrap());
    (task, plan)
}

fn run(task: DagTask, plan: SchedulePlan, cfg: &SocConfig) -> CheckProgram {
    CheckProgram::new(task, &plan, None, cfg, &KernelConfig::default()).expect("the run lifts")
}

fn program() -> CheckProgram {
    let (task, plan) = diamond();
    run(task, plan, &SocConfig::proposed_8core())
}

fn fired_rules(prog: &CheckProgram) -> BTreeSet<RuleId> {
    prog.check().iter().map(|f| f.rule).collect()
}

#[test]
fn the_valid_diamond_passes_every_rule() {
    assert_eq!(program().check(), Vec::new());
}

/// The PR-1 revert replica: the pre-fix kernel issued `ip_set` only at
/// dispatch, before the grants existed — dropping the re-issue reproduces
/// it, and R1 must name the node, the uncovered grant and the access.
#[test]
fn pr1_revert_replica_fires_ipset_before_grant_with_witness() {
    let mut prog = program();
    let src = NodeId(0);
    assert!(!prog.streams().granted[src.0].is_empty(), "source gets ways");
    assert!(prog.apply(&Mutation::DropIpSetReissue { node: src }));

    let findings = prog.check();
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::IpSetBeforeGrant);
    assert_eq!(f.nodes, vec![src]);
    assert_eq!(f.line, Some(prog.streams().line_of[src.0]), "witness names the accessed line");
    assert!(f.witness.contains("grant(w"), "{}", f.witness);
    assert!(f.witness.contains("ip_set"), "{}", f.witness);
    assert!(f.render().starts_with("R1_IPSET_BEFORE_GRANT nodes=[0] line="), "{}", f.render());
}

#[test]
fn dropped_grant_fires_way_balance() {
    let mut prog = program();
    assert!(prog.apply(&Mutation::DropGrant { node: NodeId(0) }));
    let findings = prog.check();
    assert_eq!(fired_rules(&prog), BTreeSet::from([RuleId::WayBalance]));
    assert!(
        findings.iter().any(|f| f.witness.contains("nobody owns")),
        "the orphaned release is the witness: {findings:?}"
    );
}

#[test]
fn double_grant_fires_way_balance() {
    let mut prog = program();
    assert!(prog.apply(&Mutation::DoubleGrant { node: NodeId(0) }));
    let findings = prog.check();
    assert_eq!(fired_rules(&prog), BTreeSet::from([RuleId::WayBalance]));
    assert!(findings.iter().any(|f| f.witness.contains("double-grant")), "{findings:?}");
}

#[test]
fn skipped_gv_publish_fires_gv_staleness() {
    let mut prog = program();
    let src = NodeId(0);
    assert!(prog.apply(&Mutation::SkipGvPublish { node: src }));
    let findings = prog.check();
    assert_eq!(fired_rules(&prog), BTreeSet::from([RuleId::GvStaleness]));
    // Both branch consumers read the unpublished line.
    assert_eq!(findings.len(), 2, "{findings:?}");
    for f in &findings {
        assert_eq!(f.nodes[0], src, "producer listed first");
        assert_eq!(f.line, Some(prog.streams().line_of[src.0]));
        assert!(f.witness.contains("gv_set"), "{}", f.witness);
    }
}

#[test]
fn cross_application_read_fires_tid_protector() {
    let mut prog = program();
    assert!(prog.apply(&Mutation::CrossTid { node: NodeId(1) }));
    let findings = prog.check();
    assert_eq!(fired_rules(&prog), BTreeSet::from([RuleId::TidProtector]));
    assert!(findings.iter().any(|f| f.witness.contains("TID boundary")), "{findings:?}");
}

#[test]
fn foreign_write_to_a_concurrent_line_fires_hb_race() {
    let mut prog = program();
    let (a, c) = (NodeId(1), NodeId(2));
    assert!(prog.vc().concurrent(a, c), "equal branches run concurrently");
    assert!(prog.apply(&Mutation::ForeignWrite { node: a, victim: c }));
    let findings = prog.check();
    assert_eq!(fired_rules(&prog), BTreeSet::from([RuleId::HbRace]));
    let f = findings
        .iter()
        .find(|f| f.nodes == vec![a, c])
        .expect("the injected writer/victim pair is reported");
    assert_eq!(f.line, Some(prog.streams().line_of[c.0]));
    assert!(f.witness.contains("unordered"), "{}", f.witness);
}

#[test]
fn races_are_not_reported_on_a_single_core() {
    // The same foreign write is *not* a race when one core serialises
    // everything — the rule follows the dispatch, not the syntax.
    let (task, plan) = diamond();
    let cfg = SocConfig { cores_per_cluster: 1, ..SocConfig::proposed_8core() };
    let mut prog = run(task, plan, &cfg);
    let (a, c) = (NodeId(1), NodeId(2));
    assert!(!prog.vc().concurrent(a, c));
    assert!(!prog.apply(&Mutation::ForeignWrite { node: a, victim: c }), "precondition fails");
    assert_eq!(prog.check(), Vec::new());
}

#[test]
fn mutations_cover_every_static_rule() {
    let prog = program();
    let rules: BTreeSet<RuleId> = prog.mutations().iter().map(Mutation::expected_rule).collect();
    assert_eq!(
        rules,
        BTreeSet::from([
            RuleId::IpSetBeforeGrant,
            RuleId::WayBalance,
            RuleId::GvStaleness,
            RuleId::TidProtector,
            RuleId::HbRace,
        ])
    );
}

/// Two 12-way branches on a 16-way cluster: the Walloc shares the 16 ways
/// out between them, and both finish before their Walloc settles. The
/// kernel owes them no `ip_set` re-issue (the completion flush covers
/// their conventional-path stores), so they check clean and offer no
/// re-issue to drop.
#[test]
fn a_node_that_finishes_unsettled_checks_clean() {
    let (task, _) = diamond();
    let plan = SchedulePlan {
        priorities: vec![3, 2, 1, 0],
        local_ways: vec![0, 12, 12, 0],
        rounds: Vec::new(),
    };
    let prog = run(task, plan, &SocConfig::proposed_8core());
    assert_eq!(prog.check(), Vec::new());
    let unsettled: Vec<NodeId> = (1..3)
        .map(NodeId)
        .filter(|&v| {
            let ops = &prog.streams().stream_of(v).expect("dispatched").ops;
            let last_grant = ops.iter().rposition(|&(_, o)| matches!(o, ProtocolOp::Grant { .. }));
            last_grant
                .is_some_and(|g| ops[g..].iter().all(|&(_, o)| o != ProtocolOp::IpSet { on: true }))
        })
        .collect();
    assert_eq!(unsettled, [NodeId(1), NodeId(2)], "{:?}", prog.streams());
    assert!(!prog.mutations().iter().any(|m| matches!(m, Mutation::DropIpSetReissue { .. })));
}
