//! # l15-check — protocol verifier for L1.5 programs
//!
//! The paper's programming model (Sec. 4.3) is a protocol: `demand` →
//! `ip_set` → grants → `ip_set` re-issue → reads/writes → `gv_set` →
//! release-when-consumers-done. Getting any step wrong does not crash —
//! it silently produces stale reads, leaked ways or cross-application
//! leaks, exactly the bug classes earlier PRs fixed dynamically. This
//! crate checks the protocol the kernel actually ran: it runs a (task,
//! plan) pair through `l15-runtime`'s `run_task` with a flight recorder
//! attached, lifts the recording into per-node op streams, and judges
//! those — plus conservation laws over the SoC's always-on counters:
//!
//! | Rule | Checks |
//! |------|--------|
//! | `R1_IPSET_BEFORE_GRANT` | no data access between a grant and a later `ip_set` |
//! | `R2_WAY_BALANCE` | grant/release ownership balances in recorded order; no double grant, no leak |
//! | `R3_GV_STALENESS` | reads of L1.5-held lines have an ordered `gv_set` |
//! | `R4_TID_PROTECTOR` | no reads across the declared application (TID) boundary |
//! | `R5_HB_RACE` | no conflicting accesses by clock-concurrent nodes of the recorded dispatch |
//! | `R6_WALLOC_LIVENESS` | the Walloc FSM satisfies every feasible demand (bounded model check) |
//!
//! * [`lift`] — one recorded run → [`lift::KernelStreams`] plus the vector
//!   clocks of the dispatch it recorded;
//! * [`program::CheckProgram`] — task + plan + lifted streams + vector
//!   clocks; [`program::Mutation`] injects seeded PR-1-class bugs;
//! * [`rules::check_streams`] — R1–R5 over the streams;
//! * [`fsm::check_walloc`] — R6, exhaustive over small geometries;
//! * [`replay::check_counters`] — the conservation checks over a run's
//!   always-on counters;
//! * [`fuzz`] — the regression fuzz harness: generated cases run on a
//!   real `Uncore` and judged by what the run shows (a sequential memory
//!   oracle, the counters, the absint bounds' soundness and R6; R1–R5
//!   judge only lifted kernel runs);
//! * `l15 check` lints generated corpora, case-study programs
//!   and `.dag` files (with optional embedded `plan` lines).
//!
//! Findings render through the shared `l15-testkit` diagnostic formatter,
//! so `l15 check`, the `POST /check` endpoint of `l15-serve` and the tests
//! print byte-identical lines.
//!
//! # Example
//!
//! ```
//! use l15_check::program::{CheckProgram, Mutation};
//! use l15_core::alg1::schedule_with_l15;
//! use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
//! use l15_runtime::kernel::KernelConfig;
//! use l15_soc::SocConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let p = b.add_node(Node::new(1.0, 2048));
//! let c = b.add_node(Node::new(1.0, 0));
//! b.add_edge(p, c, 1.0, 0.5)?;
//! let task = DagTask::new(b.build()?, 1e6, 1e6)?;
//! let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048)?);
//!
//! let (cfg, kcfg) = (SocConfig::proposed_8core(), KernelConfig::default());
//! let mut prog = CheckProgram::new(task, &plan, None, &cfg, &kcfg)?;
//! assert!(prog.check().is_empty(), "the kernel's run is clean");
//!
//! // Replicate the pre-PR-1 kernel bug: drop the ip_set re-issue.
//! prog.apply(&Mutation::DropIpSetReissue { node: p });
//! assert_eq!(prog.check()[0].rule.name(), "R1_IPSET_BEFORE_GRANT");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod fsm;
pub mod fuzz;
pub mod lift;
pub mod program;
pub mod replay;
pub mod rules;

pub use absint::{analyze_case, certify_task, CertifyReport, StreamAnalysis};
pub use fsm::{check_walloc, FsmBounds, WallocModel};
pub use fuzz::{
    case_from_seed, check_case, check_case_with, fuzz_soc_config, parse_corpus_entry, sweep,
    CaseOutcome, CorpusEntry, CorpusError, FuzzBug, FuzzVerdict,
};
pub use lift::{KernelStreams, LiftError, NodeStream};
pub use program::{parse_program_text, write_program, CheckProgram, Mutation, ProgramSpec};
pub use replay::{check_counters, TraceExpectation};
pub use rules::{check_streams, sort_findings, Finding, RuleId};
