//! # l15-online — sporadic arrivals, admission control and mode changes
//!
//! The online tier of the co-design: where the planning crates answer
//! "does this task set fit?", this crate keeps a simulated SoC *alive*
//! and answers it again for every sporadic arrival, at a virtual-cycle
//! price, with a typed verdict — then proves each admitted plan against
//! observed execution.
//!
//! * [`session::OnlineSession`] — the persistent session: per-arrival
//!   federated/RTA admission ([`l15_core::federated`]) that analyses each
//!   job once (Alg. 1 + RTA, kept while the job is active) and replays
//!   only the cheap placement over the active set, optional traced
//!   execution on the live SoC with a plan-vs-observed Gantt verdict
//!   ([`l15_trace::gantt::stats`]), and R6-gated mode changes running
//!   the [`l15_runtime::quiesce_cluster`] protocol;
//! * [`stream::run_stream`] — seeded sporadic streams
//!   ([`l15_testkit::arrivals`]) driven through a session, deterministic
//!   at any `L15_JOBS`.
//!
//! # Example
//!
//! ```
//! use l15_online::session::{OnlineConfig, OnlineSession};
//! use l15_dag::{DagBuilder, DagTask, Node};
//!
//! let mut b = DagBuilder::new();
//! let p = b.add_node(Node::new(1.0, 2048));
//! let c = b.add_node(Node::new(1.0, 0));
//! b.add_edge(p, c, 0.2, 0.5).unwrap();
//! let task = DagTask::new(b.build().unwrap(), 10.0, 10.0).unwrap();
//!
//! let cfg = OnlineConfig { execute: false, ..OnlineConfig::default() };
//! let mut session = OnlineSession::new(cfg);
//! let id = session.submit(task, 1_000);
//! assert!(session.job(id).unwrap().decision.admitted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;
pub mod stream;

pub use session::{
    digest64, plan_digest, Decision, JobRecord, Mode, ModeChangeReport, ModeError, OnlineConfig,
    OnlineSession, SessionMetrics,
};
pub use stream::{run_stream, small_gen, task_for, ModeSwitchSpec, StreamParams};
