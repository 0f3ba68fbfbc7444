//! `l15-absint` — must/may abstract interpretation over per-node access
//! streams, yielding sound static ETM bounds.
//!
//! The L1.5 co-design's pitch is *predictability*: dependent data is
//! pinned in per-cluster ways, so consumer reads are hits by construction.
//! This module turns that informal argument into a machine-checked one — a
//! classic Ferdinand-style must/may cache analysis specialised to the
//! L1/L1.5 hierarchy:
//!
//! * [`domain`] — abstract must-caches (PLRU-aware age bounds, per-set
//!   capacities from [`l15_cache::plru::TreePlru::must_capacity`]),
//!   may-sets, the AH/AM/NC [`Census`], and [`L15Must`]: the one
//!   L1.5 abstract state (published lines, per-lane own-views, settled)
//!   whose transfers both front-ends step;
//! * [`cost`] — per-access worst-case cycle bounds and classifications
//!   derived from a [`l15_soc::SocConfig`] (every probe is bounded by
//!   [`l15_cache::sa::worst_probe_latency`]);
//! * [`interp`] — a concrete mini-interpreter that unrolls generated node
//!   programs into their exact dynamic traces;
//! * [`node`] — per-node AH/AM/NC classification and cycle bounds for a
//!   `(task, plan)` pair, with machine-readable findings when the plan's
//!   assumptions (way capacity, Walloc settle before the first store)
//!   are not statically justified;
//! * [`stream`] — the same analysis over fuzz-case op streams, used by the
//!   fuzzer's *soundness* verdict (no step's observed cycles exceed the
//!   static charge for that step).

pub mod cost;
pub mod domain;
pub mod interp;
pub mod node;
pub mod stream;

pub use cost::CostModel;
pub use domain::{Census, Classification, L15Must, MaySet, MustCache};
pub use interp::{trace_program, InterpError, TraceStep};
pub use node::{certify_task, CertifyFinding, CertifyReport, NodeBound};
pub use stream::{analyze_case, CoreBound, StreamAnalysis};
