//! # l15-soc — multi/many-core SoC composition
//!
//! Assembles the paper's experimental platform (Sec. 5) in simulation:
//! RV32 cores ([`l15_rvcore`]) organised into computing clusters of four,
//! each cluster sharing an L1.5 cache ([`l15_cache::l15`]), above a shared
//! L2 and external memory.
//!
//! * [`config::SocConfig`] — 8/16/32-core configurations with and without the
//!   L1.5 (total cache capacity equalised across compared systems, as the
//!   paper requires);
//! * [`uncore::Uncore`] — the memory system implementing
//!   [`l15_rvcore::bus::SystemBus`] with the IPU routing rules of Sec. 2.2;
//! * [`soc::Soc`] — cores + uncore with a laggard-first simulation loop and
//!   per-cycle Walloc progression.
//! * [`trace::Trace`] — the Sec. 5.3 monitor: always-on counters plus an
//!   `l15_trace::FlightRecorder` while one is attached.
//!
//! # Example
//!
//! ```
//! use l15_soc::config::SocConfig;
//! use l15_soc::soc::Soc;
//! use l15_rvcore::asm::Assembler;
//!
//! let mut soc = Soc::new(SocConfig::proposed_8core(), 0x100);
//! let mut a = Assembler::new();
//! a.li(1, 7);
//! a.ebreak();
//! soc.uncore_mut().load_program(0x100, &a.finish()?);
//! soc.run_core(0, 100);
//! assert_eq!(soc.core(0).reg(1), 7);
//! # Ok::<(), l15_rvcore::asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod soc;
pub mod trace;
pub mod uncore;

pub use config::{ConfigError, LevelConfig, SocConfig, PORT_WAYS};
pub use soc::Soc;
pub use trace::{Trace, TraceCounters};
pub use uncore::{ClusterStats, HierarchyStats, Uncore};
