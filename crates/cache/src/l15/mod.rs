//! The L1.5 cache: a Virtual Indexed, Physically Tagged (VIPT),
//! Selectively-Inclusive, Non-Exclusive (SINE) cache shared by the cores of
//! one computing cluster (paper Sec. 2–3).
//!
//! The module mirrors the microarchitecture of Fig. 4/5 structurally:
//!
//! * [`ControlRegs`] — per-core TID / Ownership (OW) / Global-Visibility (GV)
//!   bitmap registers (Fig. 4(a) ⓐ);
//! * [`MaskLogic`] — the dual-level OR/AND filtering that derives each
//!   core's read and write way masks, including the cross-application
//!   *protector* that gates GV contributions by TID equality (Sec. 3.2);
//! * [`Sdu`] — the Supply-Demand Unit: per-core S/D registers, comparators
//!   and the Walloc FSM that (re)assigns **one way per cycle** (Fig. 5) —
//!   the very property Sec. 5.3 blames for the residual misconfiguration
//!   ratio φ;
//! * [`L15Cache`] — the cache ways and the one hit check: a tag lookup
//!   gated by the core's read or write way mask, modelled at word level
//!   rather than as Fig. 4's line/data selectors and per-way hit checkers;
//!   plus the new-ISA control port (`demand`, `supply`, `gv_set`, `gv_get`,
//!   `ip_set`);
//! * [`protocol`] — the checkable event/instruction vocabulary
//!   ([`ProtocolOp`]) the protocol verifier (`l15-check`) lifts a
//!   recorded kernel run into.

mod cache;
mod mask;
pub mod protocol;
mod regs;
mod sdu;

pub use cache::{InclusionPolicy, L15Cache, L15Config, L15ConfigState, L15Outcome};
pub use mask::MaskLogic;
pub use protocol::ProtocolOp;
pub use regs::ControlRegs;
pub use sdu::{Sdu, SduEvent};
