//! # l15-trace — cycle-level flight recorder and trace export
//!
//! The observability layer of the stack: a zero-dependency, bounded
//! **flight recorder** that `l15-soc`'s monitor feeds while one is
//! attached (`Trace::attach` / `detach`; instrumentation points live in
//! `l15-soc` and `l15-runtime`), plus exporters that turn a recording into
//! artefacts a human can open:
//!
//! * [`event`] — the typed, cycle-stamped event vocabulary (pipeline
//!   stalls, L1.5 hit/miss routing, SDU/Walloc FSM transitions, way
//!   grant/release, GV publish/consume, DAG node lifecycle) — the only
//!   one in the stack: the monitor's always-on counters are a fold over
//!   it;
//! * [`recorder`] — the [`FlightRecorder`]: a bounded ring that keeps the
//!   newest events and accounts every dropped event **per category**
//!   instead of silently truncating;
//! * [`span`] — derives spans (node execution, Walloc episodes, kernel
//!   section marks) from a raw event stream;
//! * [`chrome`] — Chrome trace-event / Perfetto JSON export, with stable
//!   field ordering and integer-only timestamps so output is
//!   byte-identical across platforms and `L15_JOBS` settings;
//! * [`gantt`] — a plain-text diff of the Alg. 1 *predicted* plan against
//!   the *observed* node spans (per-node slack/overrun);
//! * [`json`] / [`schema`] — the workspace's JSON string escaper, a
//!   minimal JSON parser that reads it back, and the in-tree schema
//!   checker CI validates exported traces with.
//!
//! Everything here is deterministic: recording a run changes no simulated
//! cycle, no always-on counter and no memory state (the parity contract
//! tested by `crates/runtime/tests/trace_parity.rs`), and exporting the
//! same recording twice yields byte-identical text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod gantt;
pub mod json;
pub mod recorder;
pub mod schema;
pub mod span;

pub use event::{Category, CtrlKind, EventKind, Level, SectionKind, TraceEvent};
pub use recorder::{DropCounts, FlightRecorder};
pub use span::{NodeSpan, SectionMark, Spans, WallocEpisode};
