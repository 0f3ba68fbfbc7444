//! # l15-core — DAG scheduling with the L1.5 cache (the paper's Sec. 4)
//!
//! The primary contribution of the reproduced paper: a scheduling method
//! for recurrent DAG tasks that co-assigns node *priorities* and L1.5 cache
//! *way allocations*, so that the dependent-data communication cost on long
//! paths collapses and the DAG makespan shrinks.
//!
//! * [`alg1::schedule_with_l15`] — Algorithm 1 verbatim: frontier walk,
//!   longest-λ-first local-way allocation with
//!   `F = min(⌈δ/κ⌉, ζ − Σω.size)`, local→global way lifecycle, and the
//!   dynamic-programming λ update after every round;
//! * [`baseline`] — the comparator systems: the SOTA of ref. \[15\] on
//!   CMP|L1/CMP|L2 hierarchies (warm-up-dependent speed-ups) and the
//!   Shared-L1 design of ref. \[10\];
//! * [`makespan::simulate`] — the non-preemptive fixed-priority
//!   work-conserving list scheduler with per-edge communication costs that
//!   both systems run on;
//! * [`periodic`] — the multi-DAG periodic engine behind the success-ratio
//!   case study (Fig. 8(a)/(b)) and the side-effects analysis (Fig. 8(c):
//!   L1.5 utilisation and the misconfiguration ratio φ), on the same event
//!   loop as `simulate` with its own ready order and way pools;
//! * [`casestudy`] — DAG-ified PARSEC 3.0 workload shapes (Sec. 5.2);
//! * [`hb`] — plan → happens-before: the deterministic dispatch order and
//!   per-core vector clocks the `l15-check` race rule queries.
//!
//! # Example
//!
//! ```
//! use l15_core::alg1::schedule_with_l15;
//! use l15_core::baseline::SystemModel;
//! use l15_dag::gen::{DagGenParams, DagGenerator};
//! use l15_dag::ExecutionTimeModel;
//!
//! let mut rng = l15_testkit::rng::SmallRng::seed_from_u64(1);
//! let task = DagGenerator::new(DagGenParams::default()).generate(&mut rng)?;
//! let etm = ExecutionTimeModel::new(2048)?;
//! let plan = schedule_with_l15(&task, 16, &etm);
//!
//! // Simulate the first release on 8 cores under the proposed system:
//! let model = SystemModel::proposed();
//! let result = model.simulate_instance(&task, 8, &plan, 0, &mut rng);
//! assert!(result.makespan > 0.0);
//! # Ok::<(), l15_dag::DagError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg1;
pub mod baseline;
pub mod casestudy;
pub mod federated;
pub mod gantt;
pub mod hb;
pub mod makespan;
pub mod periodic;
pub mod plan;
pub mod rta;

pub use alg1::schedule_with_l15;
pub use baseline::{baseline_priorities, SystemKind, SystemModel};
pub use federated::{
    federated_partition, ClusterPlan, ClusterTopology, FederatedError, TaskAssignment,
};
pub use makespan::{simulate, SimResult};
pub use periodic::{simulate_taskset, PeriodicOutcome, PeriodicParams};
pub use plan::{SchedulePlan, WayGroup, WayGroupKind};
pub use rta::{certified_makespan_bound, CertifiedMakespan};
