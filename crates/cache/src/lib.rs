//! # l15-cache — cache hierarchy and the L1.5 (VIPT, SINE) cache
//!
//! Functional + timing models of every cache level used by the paper's SoC
//! (Sec. 2–3 and the platform description in Sec. 5):
//!
//! * [`sa::SetAssocCache`] — a generic set-associative, write-back,
//!   write-allocate cache with tree pseudo-LRU replacement; used for the
//!   private L1 I/D caches (4 KiB, 1–2 cycles) and the shared L2
//!   (512 KiB, 15–25 cycles).
//! * [`mem::MainMemory`] — flat external memory (fixed latency).
//! * [`l15`] — the paper's contribution at the hardware level: a Virtual
//!   Indexed, Physically Tagged (VIPT), Selectively-Inclusive, Non-Exclusive
//!   (SINE) cache shared by the cores of one computing cluster, with
//!   *way-level* reconfigurable ownership, global visibility and inclusion
//!   policy. The microarchitecture follows Fig. 4/5 structurally:
//!   [`l15::ControlRegs`] (TID/OW/GV registers), [`l15::MaskLogic`]
//!   (dual-level AND/OR filtering with the cross-application protector),
//!   [`l15::Sdu`] (Supply-Demand Unit with a one-way-per-cycle Walloc FSM)
//!   and [`l15::L15Cache`] (the ways and the one masked hit check, at word
//!   level).
//!
//! The crate is deliberately free of any global simulation loop: each
//! structure exposes cycle-costed operations, and the SoC composition layer
//! (`l15-soc`) threads requests through the hierarchy.
//!
//! # Example
//!
//! ```
//! use l15_cache::geometry::Geometry;
//! use l15_cache::sa::{AccessKind, SetAssocCache};
//!
//! // A 4 KiB, 2-way, 64-byte-line L1 with 1..=2 cycle latency.
//! let geo = Geometry::new(64, 32, 2)?;
//! let mut l1 = SetAssocCache::new(geo, 1, 2);
//! let miss = l1.access(0x8000_0000, AccessKind::Read);
//! assert!(!miss.hit);
//! l1.fill(0x8000_0000, &vec![0u8; 64], None);
//! let hit = l1.access(0x8000_0000, AccessKind::Read);
//! assert!(hit.hit);
//! # Ok::<(), l15_cache::CacheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod geometry;
pub mod l15;
pub mod mem;
pub mod plru;
pub mod sa;
pub mod stats;

pub use error::CacheError;
pub use geometry::{Geometry, WayMask, PORT_WAYS};
