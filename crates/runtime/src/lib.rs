//! # l15-runtime — the programming model (paper Sec. 4.3)
//!
//! Bridges the planning layer (`l15-core`) and the hardware simulation
//! (`l15-soc`): an RTOS-like kernel that loads real RV32 node programs,
//! dispatches them by Alg. 1 priority, and performs the L1.5
//! reconfiguration sequence (`demand` → `ip_set` → run → `gv_set` →
//! revoke) at each context switch — while acting as the cycle-accurate
//! monitor of Sec. 5.3 (way utilisation, misconfiguration ratio φ).
//!
//! * [`layout::TaskLayout`] — per-node program and dependent-data buffers;
//! * [`workgen::node_program`] — RV32 programs that read predecessors'
//!   data, compute and produce their own dependent data;
//! * [`kernel::run_task`] — the dispatcher/monitor;
//! * [`quiesce::quiesce_cluster`] — the mode-change quiescence protocol
//!   (drain demands, settle the Walloc, verify the R2/R3
//!   post-conditions) the online layer runs at each switch point.
//!
//! The `l15-check` verifier judges the protocol on a recorded
//! [`kernel::run_task`], not on a model of it.
//!
//! # Example
//!
//! ```
//! use l15_core::alg1::schedule_with_l15;
//! use l15_dag::{DagBuilder, DagTask, ExecutionTimeModel, Node};
//! use l15_runtime::kernel::{run_task, KernelConfig};
//! use l15_soc::{Soc, SocConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let p = b.add_node(Node::new(1.0, 2048));
//! let c = b.add_node(Node::new(1.0, 0));
//! b.add_edge(p, c, 1.0, 0.5)?;
//! let task = DagTask::new(b.build()?, 1e6, 1e6)?;
//!
//! let plan = schedule_with_l15(&task, 16, &ExecutionTimeModel::new(2048)?);
//! let mut soc = Soc::new(SocConfig::proposed_8core(), 0);
//! let report = run_task(&mut soc, &task, &plan, &KernelConfig::default())?;
//! assert!(report.dataflow_ok);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod coresidency;
pub mod kernel;
pub mod layout;
pub mod quiesce;
pub mod workgen;

pub use capture::{run_task_traced, DEFAULT_CAPTURE_EVENTS};
pub use coresidency::{run_cluster_plan, AppOutcome, CoResidencyReport};
pub use kernel::{preset_plan, run_task, KernelConfig, KernelError, RunReport};
pub use layout::TaskLayout;
pub use quiesce::{quiesce_cluster, QuiesceReport};
pub use workgen::{node_program, WorkScale, WorkgenError};
