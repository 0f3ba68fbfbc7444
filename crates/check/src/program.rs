//! A checkable L1.5 program: task + plan + the kernel streams lifted from
//! a recorded run of that pair, the seeded mutations that inject
//! PR-1-class bugs into them, and the on-disk text format (`.dag` plus
//! `plan` lines).

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use l15_cache::l15::protocol::ProtocolOp;
use l15_core::hb::VectorClocks;
use l15_core::plan::SchedulePlan;
use l15_dag::{textio, DagTask, NodeId};
use l15_runtime::kernel::{run_task, KernelConfig};
use l15_soc::{Soc, SocConfig, PORT_WAYS};
use l15_trace::FlightRecorder;

use crate::lift::{self, KernelStreams, LiftError};
use crate::rules::{self, Finding};

/// A program under analysis: the task, the kernel streams lifted from
/// running it under a plan, and the happens-before clocks of the dispatch
/// the run made.
#[derive(Debug, Clone)]
pub struct CheckProgram {
    task: DagTask,
    streams: KernelStreams,
    vc: VectorClocks,
}

impl CheckProgram {
    /// Runs `(task, plan)` on a fresh `cfg` SoC under `kcfg` with a
    /// recorder of the [`lift::lifted`] events attached and lifts the
    /// recording ([`lift::lift`]); `tids` declares each node's application.
    ///
    /// # Errors
    ///
    /// A failed run, or a recording that dropped protocol events.
    pub fn new(
        task: DagTask,
        plan: &SchedulePlan,
        tids: Option<Vec<u8>>,
        cfg: &SocConfig,
        kcfg: &KernelConfig,
    ) -> Result<Self, LiftError> {
        let mut soc = Soc::new(cfg.clone(), 0);
        let rec = FlightRecorder::keeping(lift::CAPTURE_EVENTS, lift::lifted);
        soc.uncore_mut().trace_mut().attach(rec);
        let run = run_task(&mut soc, &task, plan, kcfg);
        let rec = soc.uncore_mut().trace_mut().detach().expect("attached above");
        run.map_err(LiftError::Run)?;
        let (streams, vc) = lift::lift(&task, tids, cfg, &rec)?;
        Ok(CheckProgram { task, streams, vc })
    }

    /// The lifted kernel streams (mutations edit these in place).
    pub fn streams(&self) -> &KernelStreams {
        &self.streams
    }

    /// The vector clocks of the recorded dispatch.
    pub fn vc(&self) -> &VectorClocks {
        &self.vc
    }

    /// Runs the rules R1–R5 and returns the sorted findings.
    pub fn check(&self) -> Vec<Finding> {
        rules::check_streams(&self.streams, &self.vc)
    }

    /// All mutations applicable to this program, in deterministic order
    /// (mutation kind major, node id minor). Seeded-mutation tests draw
    /// from this list.
    pub fn mutations(&self) -> Vec<Mutation> {
        let dag = self.task.graph();
        let n = dag.node_count();
        let mut out = Vec::new();
        for i in 0..n {
            let v = NodeId(i);
            if self.reissues_ip_set(v) {
                out.push(Mutation::DropIpSetReissue { node: v });
            }
        }
        for i in 0..n {
            let v = NodeId(i);
            if !self.streams.granted[i].is_empty() {
                out.push(Mutation::DropGrant { node: v });
                out.push(Mutation::DoubleGrant { node: v });
            }
        }
        for i in 0..n {
            let v = NodeId(i);
            let has_publish = self.streams.stream_of(v).is_some_and(|s| {
                s.ops.iter().any(|&(_, o)| matches!(o, ProtocolOp::GvPublish { .. }))
            });
            // Only a publish of data held in ways matters to a reader.
            let held = !self.streams.granted[i].is_empty() && dag.node(v).data_bytes > 0;
            if has_publish && held && !dag.successors(v).is_empty() {
                out.push(Mutation::SkipGvPublish { node: v });
            }
        }
        for i in 0..n {
            let v = NodeId(i);
            let reads = dag.predecessors(v).iter().any(|&(_, p)| dag.node(p).data_bytes > 0);
            let is_read = dag.node(v).data_bytes > 0 && !dag.successors(v).is_empty();
            if reads || is_read {
                out.push(Mutation::CrossTid { node: v });
            }
        }
        for i in 0..n {
            for j in 0..n {
                let (v, w) = (NodeId(i), NodeId(j));
                if dag.node(w).data_bytes > 0 && self.vc.concurrent(v, w) {
                    out.push(Mutation::ForeignWrite { node: v, victim: w });
                }
            }
        }
        out
    }

    /// Whether `v`'s stream re-issues `ip_set` after its last grant and
    /// then accesses data, so dropping the re-issue exposes the access. A
    /// node that finishes before its Walloc settles has no re-issue.
    fn reissues_ip_set(&self, v: NodeId) -> bool {
        let Some(s) = self.streams.stream_of(v) else { return false };
        let Some(lg) = s.ops.iter().rposition(|&(_, o)| matches!(o, ProtocolOp::Grant { .. }))
        else {
            return false;
        };
        let tail = &s.ops[lg..];
        let reissue = tail.iter().position(|&(_, o)| o == ProtocolOp::IpSet { on: true });
        reissue.is_some_and(|r| tail[r..].iter().any(|&(_, o)| o.is_access()))
    }

    /// Applies `m` to the streams. Returns `false` (and leaves the program
    /// unchanged) when the mutation's precondition does not hold.
    pub fn apply(&mut self, m: &Mutation) -> bool {
        match *m {
            Mutation::DropIpSetReissue { node } => {
                let Some(s) = self.streams.stream_of_mut(node) else { return false };
                let Some(lg) =
                    s.ops.iter().rposition(|&(_, o)| matches!(o, ProtocolOp::Grant { .. }))
                else {
                    return false;
                };
                let before = s.ops.len();
                let mut i = lg + 1;
                while i < s.ops.len() {
                    if matches!(s.ops[i].1, ProtocolOp::IpSet { .. }) {
                        s.ops.remove(i);
                    } else {
                        i += 1;
                    }
                }
                s.ops.len() < before
            }
            Mutation::DropGrant { node } => {
                let Some(s) = self.streams.stream_of_mut(node) else { return false };
                match s.ops.iter().position(|&(_, o)| matches!(o, ProtocolOp::Grant { .. })) {
                    Some(i) => {
                        s.ops.remove(i);
                        true
                    }
                    None => false,
                }
            }
            Mutation::DoubleGrant { node } => {
                let Some(s) = self.streams.stream_of_mut(node) else { return false };
                match s.ops.iter().position(|&(_, o)| matches!(o, ProtocolOp::Grant { .. })) {
                    Some(i) => {
                        let dup = s.ops[i];
                        s.ops.insert(i + 1, dup);
                        true
                    }
                    None => false,
                }
            }
            Mutation::SkipGvPublish { node } => {
                let Some(s) = self.streams.stream_of_mut(node) else { return false };
                match s.ops.iter().position(|&(_, o)| matches!(o, ProtocolOp::GvPublish { .. })) {
                    Some(i) => {
                        s.ops.remove(i);
                        true
                    }
                    None => false,
                }
            }
            Mutation::CrossTid { node } => {
                self.streams.tids[node.0] ^= 1;
                true
            }
            Mutation::ForeignWrite { node, victim } => {
                if !self.vc.concurrent(node, victim) {
                    return false;
                }
                let line = self.streams.line_of[victim.0];
                let Some(s) = self.streams.stream_of_mut(node) else { return false };
                // At dispatch, before any grant: the write races, and
                // nothing else.
                let at = s.ops.first().map_or(0, |&(at, _)| at);
                s.ops.insert(0, (at, ProtocolOp::Write { line }));
                true
            }
        }
    }
}

/// A seeded protocol bug: each variant injects exactly one rule violation
/// into the lifted streams, replicating a known historical bug class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Removes the `ip_set` re-issued after the grants — a replica of the
    /// pre-PR-1 kernel, whose dispatch-time `ip_set` could not cover ways
    /// granted later. Fires R1 on the access after the re-issue.
    DropIpSetReissue {
        /// Mutated node.
        node: NodeId,
    },
    /// Removes the node's first grant, so the matching release returns a
    /// way nobody owns. Fires R2.
    DropGrant {
        /// Mutated node.
        node: NodeId,
    },
    /// Duplicates the node's first grant — an owned way granted again.
    /// Fires R2.
    DoubleGrant {
        /// Mutated node.
        node: NodeId,
    },
    /// Removes the producer's `gv_set`, leaving its consumers' reads
    /// staring at non-visible ways. Fires R3.
    SkipGvPublish {
        /// Mutated node.
        node: NodeId,
    },
    /// Moves the node into another application (flips its TID), making
    /// every dependent-data edge at the node cross the TID boundary.
    /// Fires R4.
    CrossTid {
        /// Mutated node.
        node: NodeId,
    },
    /// Injects a write to a clock-concurrent victim's output line — a
    /// data race the recorded dispatch permits. Fires R5.
    ForeignWrite {
        /// Mutated node (gains the write).
        node: NodeId,
        /// Concurrent node whose line is clobbered.
        victim: NodeId,
    },
}

impl Mutation {
    /// The rule this mutation is designed to trip.
    pub fn expected_rule(&self) -> crate::rules::RuleId {
        use crate::rules::RuleId;
        match self {
            Mutation::DropIpSetReissue { .. } => RuleId::IpSetBeforeGrant,
            Mutation::DropGrant { .. } | Mutation::DoubleGrant { .. } => RuleId::WayBalance,
            Mutation::SkipGvPublish { .. } => RuleId::GvStaleness,
            Mutation::CrossTid { .. } => RuleId::TidProtector,
            Mutation::ForeignWrite { .. } => RuleId::HbRace,
        }
    }
}

// ---------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------

/// A parsed program file: the task plus (optionally) the embedded plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// The task.
    pub task: DagTask,
    /// The embedded plan, when the file carried `plan` lines.
    pub plan: Option<SchedulePlan>,
    /// Per-node TIDs from the `plan` lines (`None` when no plan lines, or
    /// when every tid is zero).
    pub tids: Option<Vec<u8>>,
}

/// Errors from [`parse_program_text`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseProgramError {
    /// The underlying `.dag` task text was invalid.
    Dag(textio::ParseDagError),
    /// A `plan` line could not be understood.
    Plan {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseProgramError::Dag(e) => e.fmt(f),
            ParseProgramError::Plan { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl Error for ParseProgramError {}

impl From<textio::ParseDagError> for ParseProgramError {
    fn from(e: textio::ParseDagError) -> Self {
        ParseProgramError::Dag(e)
    }
}

/// Parses the program text format: the `.dag` task format of
/// [`textio::parse_task`] extended with one optional directive,
///
/// ```text
/// plan <node> pri=<u32> ways=<usize> [tid=<u8>]
/// ```
///
/// Nodes without a `plan` line default to priority 0, zero ways, tid 0.
/// `ways` is at most [`PORT_WAYS`]: no L1.5 a validated configuration
/// describes has more, so a larger demand could never be met. It is not
/// held to the ζ of the configuration the program later runs on, because a
/// plan that over-demands its cluster is a program the checker judges.
/// Files without any `plan` line parse to `plan: None` (callers derive a
/// plan with Alg. 1).
pub fn parse_program_text(text: &str) -> Result<ProgramSpec, ParseProgramError> {
    // Extract plan lines, blanking them (as comments) so the task parser
    // sees unchanged line numbers.
    let mut task_text = String::with_capacity(text.len());
    let mut plan_lines: Vec<(usize, &str)> = Vec::new();
    for (ix, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("plan ") {
            plan_lines.push((ix + 1, line.trim()));
            task_text.push('#');
        } else {
            task_text.push_str(line);
        }
        task_text.push('\n');
    }
    let task = textio::parse_task(&task_text)?;
    if plan_lines.is_empty() {
        return Ok(ProgramSpec { task, plan: None, tids: None });
    }

    let n = task.graph().node_count();
    let mut priorities = vec![0u32; n];
    let mut local_ways = vec![0usize; n];
    let mut tids = vec![0u8; n];
    let mut seen = vec![false; n];
    for (lineno, line) in plan_lines {
        let err = |reason: String| ParseProgramError::Plan { line: lineno, reason };
        let mut fields = line.split_whitespace();
        fields.next(); // "plan"
        let node: usize = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| err("expected `plan <node> pri=<p> ways=<w> [tid=<t>]`".into()))?;
        if node >= n {
            return Err(err(format!("node {node} out of range (task has {n} nodes)")));
        }
        if seen[node] {
            return Err(err(format!("duplicate plan line for node {node}")));
        }
        seen[node] = true;
        let mut got_pri = false;
        let mut got_ways = false;
        for field in fields {
            let (key, value) =
                field.split_once('=').ok_or_else(|| err(format!("malformed field {field:?}")))?;
            match key {
                "pri" => {
                    priorities[node] =
                        value.parse().map_err(|_| err(format!("bad pri {value:?}")))?;
                    got_pri = true;
                }
                "ways" => {
                    local_ways[node] =
                        value.parse().ok().filter(|&w| w <= PORT_WAYS).ok_or_else(|| {
                            err(format!("bad ways {value:?} (at most {PORT_WAYS})"))
                        })?;
                    got_ways = true;
                }
                "tid" => {
                    tids[node] = value.parse().map_err(|_| err(format!("bad tid {value:?}")))?;
                }
                _ => return Err(err(format!("unknown field {key:?}"))),
            }
        }
        if !got_pri || !got_ways {
            return Err(err("plan line needs both pri= and ways=".into()));
        }
    }
    let tids = if tids.iter().any(|&t| t != 0) { Some(tids) } else { None };
    Ok(ProgramSpec {
        task,
        plan: Some(SchedulePlan { priorities, local_ways, rounds: Vec::new() }),
        tids,
    })
}

/// Writes a program in the format [`parse_program_text`] reads: the task
/// text followed by one `plan` line per node.
pub fn write_program(task: &DagTask, plan: &SchedulePlan, tids: Option<&[u8]>) -> String {
    let mut out = textio::write_task(task);
    for i in 0..plan.len() {
        let _ = write!(out, "plan {i} pri={} ways={}", plan.priorities[i], plan.local_ways[i]);
        if let Some(t) = tids {
            if t[i] != 0 {
                let _ = write!(out, " tid={}", t[i]);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::alg1::schedule_with_l15;
    use l15_dag::{DagBuilder, ExecutionTimeModel, Node};

    fn diamond() -> DagTask {
        let mut b = DagBuilder::new();
        let src = b.add_node(Node::new(1.0, 2048));
        let a = b.add_node(Node::new(4.0, 2048));
        let c = b.add_node(Node::new(4.0, 2048));
        let sink = b.add_node(Node::new(1.0, 0));
        b.add_edge(src, a, 1.0, 0.5).unwrap();
        b.add_edge(src, c, 1.0, 0.5).unwrap();
        b.add_edge(a, sink, 1.0, 0.5).unwrap();
        b.add_edge(c, sink, 1.0, 0.5).unwrap();
        DagTask::new(b.build().unwrap(), 100.0, 100.0).unwrap()
    }

    fn program(task: DagTask) -> CheckProgram {
        let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048).unwrap());
        let (cfg, kcfg) = (SocConfig::proposed_8core(), KernelConfig::default());
        CheckProgram::new(task, &plan, None, &cfg, &kcfg).unwrap()
    }

    #[test]
    fn valid_program_checks_clean() {
        assert_eq!(program(diamond()).check(), Vec::new());
    }

    #[test]
    fn program_text_round_trips_through_parse() {
        let task = diamond();
        let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048).unwrap());
        let tids = vec![0u8, 1, 0, 1];
        let text = write_program(&task, &plan, Some(&tids));
        let spec = parse_program_text(&text).unwrap();
        assert_eq!(spec.task, task);
        let parsed = spec.plan.expect("plan lines present");
        assert_eq!(parsed.priorities, plan.priorities);
        assert_eq!(parsed.local_ways, plan.local_ways);
        assert_eq!(spec.tids, Some(tids));
    }

    #[test]
    fn plan_lines_are_optional_and_validated() {
        let task = diamond();
        let plain = textio::write_task(&task);
        let spec = parse_program_text(&plain).unwrap();
        assert_eq!(spec.plan, None);

        for (bad, what) in [
            ("plan 9 pri=1 ways=0\n", "out of range"),
            ("plan 0 pri=1 ways=0\nplan 0 pri=2 ways=0\n", "duplicate"),
            ("plan 0 pri=1\n", "missing ways"),
            ("plan 0 pri=x ways=0\n", "bad pri"),
            ("plan 0 pri=1 ways=0 zap=3\n", "unknown field"),
            ("plan 0 pri=1 ways=33\n", "wider than the control port"),
            ("plan 0 pri=1 ways=18446744073709551615\n", "overflows the kernel's demand"),
        ] {
            let text = format!("{plain}{bad}");
            assert!(
                matches!(parse_program_text(&text), Err(ParseProgramError::Plan { .. })),
                "{what}"
            );
        }
        let text = format!("{plain}plan 0 pri=1 ways=32\n");
        assert_eq!(parse_program_text(&text).unwrap().plan.unwrap().local_ways[0], 32);
        let text = format!("{plain}plan 0 pri=1 ways=33\n");
        let line = plain.lines().count() + 1;
        assert_eq!(
            parse_program_text(&text).unwrap_err().to_string(),
            format!("line {line}: bad ways \"33\" (at most 32)")
        );
    }

    #[test]
    fn mutations_enumerate_deterministically_and_apply() {
        let prog = program(diamond());
        let ms = prog.mutations();
        assert!(!ms.is_empty());
        assert_eq!(ms, prog.mutations(), "enumeration is deterministic");
        for m in &ms {
            let mut p = prog.clone();
            assert!(p.apply(m), "{m:?} applies to its own candidate list");
        }
    }
}
