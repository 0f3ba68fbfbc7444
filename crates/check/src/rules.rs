//! The six static rules and their machine-readable findings.
//!
//! Rules R1–R5 run over [`KernelStreams`] lifted from a recorded kernel
//! run ([`crate::lift`]) plus the [`VectorClocks`] of the dispatch it
//! recorded; R6 (Walloc liveness) lives in [`crate::fsm`] because it
//! model-checks the hardware FSM rather than a program. Every finding
//! names the rule, the nodes involved, the line address (when the rule is
//! line-granular) and a witness ordering — enough to localise the bug
//! without re-running the checker.

use std::fmt;

use l15_cache::l15::protocol::ProtocolOp;
use l15_core::hb::VectorClocks;
use l15_dag::NodeId;
use l15_testkit::diag::Diagnostic;

use crate::lift::KernelStreams;

/// Stable identifiers of the checker's rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R1: a data access after a grant needs an `ip_set` issued after
    /// the grant (the PR-1 kernel fix: the dispatch-time `ip_set` cannot
    /// cover ways granted later).
    IpSetBeforeGrant,
    /// R2: way ownership must balance — no grant of an owned way, no
    /// release of an unowned way, no way still owned at quiesce.
    WayBalance,
    /// R3: a consumer reading a line held in a producer's L1.5 ways needs
    /// a `gv_set` publishing that line, ordered before the read.
    GvStaleness,
    /// R4: dependent-data reads must not cross an application boundary
    /// behind the TID protector.
    TidProtector,
    /// R5: clock-concurrent nodes must not make conflicting accesses to
    /// one line (happens-before data race).
    HbRace,
    /// R6: the one-way-at-a-time Walloc FSM must satisfy every feasible
    /// demand without stalling or revisiting a state (livelock).
    WallocLiveness,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 6] = [
        RuleId::IpSetBeforeGrant,
        RuleId::WayBalance,
        RuleId::GvStaleness,
        RuleId::TidProtector,
        RuleId::HbRace,
        RuleId::WallocLiveness,
    ];

    /// The stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::IpSetBeforeGrant => "R1_IPSET_BEFORE_GRANT",
            RuleId::WayBalance => "R2_WAY_BALANCE",
            RuleId::GvStaleness => "R3_GV_STALENESS",
            RuleId::TidProtector => "R4_TID_PROTECTOR",
            RuleId::HbRace => "R5_HB_RACE",
            RuleId::WallocLiveness => "R6_WALLOC_LIVENESS",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation with its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Nodes involved, in rule-defined order (producer before consumer).
    pub nodes: Vec<NodeId>,
    /// The line address the finding is about, if line-granular.
    pub line: Option<u64>,
    /// The witness ordering: which ops, in which order, break the rule.
    pub witness: String,
}

impl Finding {
    /// Converts to the shared testkit diagnostic (the canonical format).
    pub fn diagnostic(&self) -> Diagnostic {
        Diagnostic {
            rule: self.rule.name().to_owned(),
            nodes: self.nodes.iter().map(|v| v.0).collect(),
            line: self.line,
            witness: self.witness.clone(),
        }
    }

    /// The canonical one-line rendering (via the shared formatter).
    pub fn render(&self) -> String {
        l15_testkit::diag::format_diagnostic(&self.diagnostic())
    }
}

/// Sorts findings into the canonical report order (rule, nodes, line,
/// witness) so every surface prints them identically.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.rule, &a.nodes, a.line, &a.witness).cmp(&(b.rule, &b.nodes, b.line, &b.witness))
    });
}

/// Runs the static rules R1–R5 over `ks` and returns the sorted findings.
pub fn check_streams(ks: &KernelStreams, vc: &VectorClocks) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rule_ipset_before_grant(ks));
    findings.extend(rule_way_balance(ks));
    findings.extend(rule_gv_staleness(ks, vc));
    findings.extend(rule_tid_protector(ks));
    findings.extend(rule_hb_race(ks, vc));
    sort_findings(&mut findings);
    findings
}

/// R1: walking each stream, a grant opens an *uncovered* window that only
/// a later `ip_set(1)` closes; a data access inside the window is a
/// violation. One finding per stream (the first witness suffices to
/// localise the bug). A window nothing accesses harms nothing: a node
/// that finishes before its Walloc settles is owed no re-issue.
fn rule_ipset_before_grant(ks: &KernelStreams) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in &ks.streams {
        let mut uncovered: Option<(usize, usize)> = None; // (op index, way)
        for (i, &(_, op)) in s.ops.iter().enumerate() {
            match op {
                ProtocolOp::Grant { way } if uncovered.is_none() => {
                    uncovered = Some((i, way));
                }
                ProtocolOp::IpSet { on: true } => uncovered = None,
                ProtocolOp::Read { line } | ProtocolOp::Write { line } => {
                    if let Some((gi, way)) = uncovered {
                        findings.push(Finding {
                            rule: RuleId::IpSetBeforeGrant,
                            nodes: vec![s.node],
                            line: Some(line),
                            witness: format!(
                                "{}: grant(w{way}) at op {gi} is not followed by ip_set \
                                 before {} at op {i} — accesses bypass the granted ways",
                                s.node, op
                            ),
                        });
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    findings
}

/// R2: the global grant/release walk, in recorded order (a node
/// dispatched earlier may be granted a way a later-dispatched node's
/// reclaim returned). Each way has at most one owner; a grant of an owned
/// way, a release of an unowned way, and a way still owned when the
/// program quiesces are all violations.
fn rule_way_balance(ks: &KernelStreams) -> Vec<Finding> {
    let mut walk: Vec<(u64, usize, usize)> = Vec::new(); // (event, stream, op)
    for (k, s) in ks.streams.iter().enumerate() {
        for (i, &(at, op)) in s.ops.iter().enumerate() {
            if matches!(op, ProtocolOp::Grant { .. } | ProtocolOp::Release { .. }) {
                walk.push((at, k, i));
            }
        }
    }
    walk.sort_unstable();
    let mut findings = Vec::new();
    let mut owner: Vec<Option<NodeId>> = vec![None; ks.ways];
    for (_, k, i) in walk {
        let s = &ks.streams[k];
        match s.ops[i].1 {
            ProtocolOp::Grant { way } => {
                let Some(slot) = owner.get_mut(way) else {
                    findings.push(Finding {
                        rule: RuleId::WayBalance,
                        nodes: vec![s.node],
                        line: None,
                        witness: format!(
                            "{}: grant(w{way}) at op {i} names a way outside the \
                             {}-way cluster",
                            s.node, ks.ways
                        ),
                    });
                    continue;
                };
                match *slot {
                    Some(p) => findings.push(Finding {
                        rule: RuleId::WayBalance,
                        nodes: vec![p, s.node],
                        line: None,
                        witness: format!(
                            "{}: grant(w{way}) at op {i} double-grants a way still \
                             owned by {p}",
                            s.node
                        ),
                    }),
                    None => *slot = Some(s.node),
                }
            }
            ProtocolOp::Release { way } => match owner.get_mut(way) {
                Some(slot @ Some(_)) => *slot = None,
                _ => findings.push(Finding {
                    rule: RuleId::WayBalance,
                    nodes: vec![s.node],
                    line: None,
                    witness: format!(
                        "{}: release(w{way}) at op {i} returns a way nobody owns",
                        s.node
                    ),
                }),
            },
            _ => {}
        }
    }
    for (way, slot) in owner.iter().enumerate() {
        if let Some(p) = slot {
            findings.push(Finding {
                rule: RuleId::WayBalance,
                nodes: vec![*p],
                line: None,
                witness: format!("w{way} granted to {p} is never released (leak at quiesce)"),
            });
        }
    }
    findings
}

/// Maps line addresses back to their producing node.
fn producer_of(ks: &KernelStreams, line: u64) -> Option<NodeId> {
    ks.line_of.iter().position(|&l| l == line).map(NodeId)
}

/// R3: a read of a line held in the producer's L1.5 ways (the producer was
/// granted ways, so its stores routed into them) sees stale data unless
/// the producer publishes the line with `gv_set` — and the publish must be
/// ordered before the read by the recorded dispatch.
fn rule_gv_staleness(ks: &KernelStreams, vc: &VectorClocks) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in &ks.streams {
        for &(_, op) in &s.ops {
            let ProtocolOp::Read { line } = op else { continue };
            let Some(p) = producer_of(ks, line) else { continue };
            if p == s.node || ks.granted[p.0].is_empty() {
                // Conventional-path data needs no global-visibility step.
                continue;
            }
            let published = ks
                .stream_of(p)
                .is_some_and(|ps| ps.ops.iter().any(|&(_, o)| o == ProtocolOp::GvPublish { line }));
            if !published {
                findings.push(Finding {
                    rule: RuleId::GvStaleness,
                    nodes: vec![p, s.node],
                    line: Some(line),
                    witness: format!(
                        "{} reads a line held in {}'s L1.5 ways, but {} never issues \
                         gv_set for it — the read sees stale data",
                        s.node, p, p
                    ),
                });
            } else if !vc.happens_before(p, s.node) {
                findings.push(Finding {
                    rule: RuleId::GvStaleness,
                    nodes: vec![p, s.node],
                    line: Some(line),
                    witness: format!(
                        "{}'s gv_set is not ordered before {}'s read by the schedule",
                        p, s.node
                    ),
                });
            }
        }
    }
    findings
}

/// R4: a dependent-data read must not cross an application boundary —
/// the TID protector would reject it (or, if bypassed, leak another
/// application's data).
fn rule_tid_protector(ks: &KernelStreams) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in &ks.streams {
        let want = ks.tids[s.node.0];
        for &(_, op) in &s.ops {
            let ProtocolOp::Read { line } = op else { continue };
            let Some(p) = producer_of(ks, line) else { continue };
            let ptid = ks.tids[p.0];
            if p != s.node && ptid != want {
                findings.push(Finding {
                    rule: RuleId::TidProtector,
                    nodes: vec![p, s.node],
                    line: Some(line),
                    witness: format!(
                        "{} (application {want}) reads the dependent data of {} \
                         (application {ptid}) across the TID boundary",
                        s.node, p
                    ),
                });
            }
        }
    }
    findings
}

/// R5: conflicting accesses (at least one write) to one line by two nodes
/// the vector clocks leave unordered — a genuine data race the dispatch
/// permits, whatever the simulated interleaving happened to do.
fn rule_hb_race(ks: &KernelStreams, vc: &VectorClocks) -> Vec<Finding> {
    // Per-node sorted (line, is_write) access sets, in node-id order.
    let n = ks.line_of.len();
    let mut core = vec![0; n];
    let mut reads: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut writes: Vec<Vec<u64>> = vec![Vec::new(); n];
    for s in &ks.streams {
        core[s.node.0] = s.core;
        for &(_, op) in &s.ops {
            match op {
                ProtocolOp::Read { line } => reads[s.node.0].push(line),
                ProtocolOp::Write { line } => writes[s.node.0].push(line),
                _ => {}
            }
        }
    }
    for set in reads.iter_mut().chain(writes.iter_mut()) {
        set.sort_unstable();
        set.dedup();
    }
    let mut findings = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if !vc.concurrent(NodeId(a), NodeId(b)) {
                continue;
            }
            let mut lines: Vec<(u64, &'static str)> = Vec::new();
            for &l in &writes[a] {
                if writes[b].binary_search(&l).is_ok() {
                    lines.push((l, "both write"));
                } else if reads[b].binary_search(&l).is_ok() {
                    lines.push((l, "first writes, second reads"));
                }
            }
            for &l in &writes[b] {
                if reads[a].binary_search(&l).is_ok() && writes[a].binary_search(&l).is_err() {
                    lines.push((l, "second writes, first reads"));
                }
            }
            lines.sort_unstable();
            lines.dedup();
            for (line, kind) in lines {
                findings.push(Finding {
                    rule: RuleId::HbRace,
                    nodes: vec![NodeId(a), NodeId(b)],
                    line: Some(line),
                    witness: format!(
                        "v{a} (core {}) and v{b} (core {}) are unordered by the plan \
                         and touch one line ({kind})",
                        core[a], core[b]
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::NodeStream;

    #[test]
    fn rule_names_are_stable_and_ordered() {
        let names: Vec<&str> = RuleId::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "R1_IPSET_BEFORE_GRANT",
                "R2_WAY_BALANCE",
                "R3_GV_STALENESS",
                "R4_TID_PROTECTOR",
                "R5_HB_RACE",
                "R6_WALLOC_LIVENESS",
            ]
        );
        // Report order follows the enum order.
        let mut sorted = RuleId::ALL;
        sorted.sort();
        assert_eq!(sorted, RuleId::ALL);
    }

    #[test]
    fn findings_render_through_the_shared_formatter() {
        let f = Finding {
            rule: RuleId::GvStaleness,
            nodes: vec![NodeId(0), NodeId(2)],
            line: Some(0x0102_0000),
            witness: "producer v0 never publishes the line v2 reads".to_owned(),
        };
        assert_eq!(
            f.render(),
            "R3_GV_STALENESS nodes=[0,2] line=0x01020000 witness: \
             producer v0 never publishes the line v2 reads"
        );
    }

    #[test]
    fn way_balance_walks_the_recorded_order_not_the_dispatch_order() {
        // v0 holds w0; v1, dispatched before v2, is granted w0 only after
        // v2's completion reclaimed it. Walked dispatch-major, v1's grant
        // would come while v0 still owns w0.
        let stream = |node: usize, ops| NodeStream { node: NodeId(node), core: node, ops };
        let ks = KernelStreams {
            ways: 1,
            tids: vec![0; 3],
            streams: vec![
                stream(0, vec![(0, ProtocolOp::Grant { way: 0 })]),
                stream(
                    1,
                    vec![(3, ProtocolOp::Grant { way: 0 }), (4, ProtocolOp::Release { way: 0 })],
                ),
                stream(2, vec![(2, ProtocolOp::Release { way: 0 })]),
            ],
            line_of: vec![0, 64, 128],
            granted: vec![vec![0], vec![0], Vec::new()],
        };
        assert_eq!(rule_way_balance(&ks), Vec::new());
    }

    #[test]
    fn sort_is_total_and_rule_major() {
        let mk = |rule, node: usize| Finding {
            rule,
            nodes: vec![NodeId(node)],
            line: None,
            witness: String::new(),
        };
        let mut v =
            vec![mk(RuleId::HbRace, 0), mk(RuleId::IpSetBeforeGrant, 5), mk(RuleId::WayBalance, 1)];
        sort_findings(&mut v);
        assert_eq!(
            v.iter().map(|f| f.rule).collect::<Vec<_>>(),
            [RuleId::IpSetBeforeGrant, RuleId::WayBalance, RuleId::HbRace]
        );
    }
}
