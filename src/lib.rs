//! # l15 — Cache/algorithm co-design for parallel real-time systems
//!
//! Facade crate for the DAC'24 reproduction: re-exports every subsystem so
//! examples and downstream users need a single dependency.
//!
//! * [`dag`] — DAG task model, synthetic generation, path analysis, ETM.
//! * [`cache`] — L1/L2 hierarchy and the L1.5 (VIPT, SINE) cache.
//! * [`rvcore`] — RV32I core simulator with the L1.5 ISA extension.
//! * [`soc`] — cluster/SoC composition and cycle engine.
//! * [`core`] — the paper's contribution: Alg. 1 scheduling, baselines,
//!   makespan and success-ratio simulators.
//! * [`runtime`] — the programming model (dispatch-time reconfiguration).
//! * [`online`] — the online scheduling layer: sporadic arrivals,
//!   incremental admission control and R6-gated mode changes on a
//!   persistent SoC session.
//! * [`check`] — protocol verifier + happens-before race detector over
//!   the streams lifted from a recorded kernel run, with a trace-replay
//!   mode.
//! * [`area`] — the Sec. 5.4 area model.
//! * [`serve`] — scheduling-as-a-service: a zero-dependency HTTP layer
//!   exposing the pipeline with bounded admission, backpressure and
//!   metrics.
//! * [`trace`] — cycle-level flight recorder, span model and the
//!   deterministic Chrome/Perfetto trace exporters.
//! * [`testkit`] — in-tree PRNG, property-testing engine and differential
//!   harness (the workspace has no external dependencies).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! per-experiment index.

#![forbid(unsafe_code)]

pub use l15_area as area;
pub use l15_cache as cache;
pub use l15_check as check;
pub use l15_core as core;
pub use l15_dag as dag;
pub use l15_online as online;
pub use l15_runtime as runtime;
pub use l15_rvcore as rvcore;
pub use l15_serve as serve;
pub use l15_soc as soc;
pub use l15_testkit as testkit;
pub use l15_trace as trace;
