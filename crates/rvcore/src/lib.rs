//! # l15-rvcore — RV32 core simulator with the L1.5 ISA extension
//!
//! This crate models the processor side of the paper's SoC (Sec. 2):
//! a 5-stage pipelined, single-width, in-order RV32 core with a TLB and the
//! RISC-V privilege levels, extended with the five L1.5 reconfiguration
//! instructions of Tab. 1 (`demand`, `supply`, `gv_set`, `gv_get`,
//! `ip_set`) hosted in the custom-0 opcode space and routed to the cache's
//! control port by the Mini-Decoder at the MA stage.
//!
//! Modules:
//!
//! * [`isa`] — decode/encode for RV32I + M + Zicsr + the L1.5 extension;
//! * [`asm`] — a programmatic assembler with label resolution;
//! * [`core`] — the executable core with the pipeline timing model,
//!   including the L1.5 → EX forwarding channel (Fig. 3 ⓓ);
//! * [`mmu`] — segment-based address translation with a TLB (virtual ≠
//!   physical, which the VIPT L1.5 indexing relies on);
//! * [`csr`] — machine-mode CSRs, counters and privilege levels;
//! * [`bus`] — the [`bus::SystemBus`] trait the SoC layer implements, plus a
//!   flat test bus;
//! * [`disasm`] — the disassembler used by trace dumps.
//!
//! The crate models the single-width core only; the Sec. 3.3 superscalar
//! issue model is private to the `l15 fullstack` experiment that prints it.
//!
//! # Example
//!
//! ```
//! use l15_rvcore::asm::Assembler;
//! use l15_rvcore::bus::FlatBus;
//! use l15_rvcore::core::Core;
//!
//! let mut a = Assembler::new();
//! a.li(1, 6);
//! a.li(2, 7);
//! a.mul(3, 1, 2);
//! a.ebreak();
//! let mut bus = FlatBus::new(4096, 1);
//! bus.load_program(0, &a.finish()?);
//! let mut core = Core::new(0, 0);
//! core.run(&mut bus, 100);
//! assert_eq!(core.reg(3), 42);
//! # Ok::<(), l15_rvcore::asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod bus;
pub mod core;
pub mod csr;
pub mod disasm;
pub mod isa;
pub mod mmu;

pub use crate::core::{Core, CoreStats, Stalls, StepEvent, StepOutcome, TimingConfig};
pub use bus::{CtrlAccess, MemAccess, SystemBus};
pub use isa::{DecodeError, Instr, L15Op};
