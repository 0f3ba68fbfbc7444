//! # l15-testkit — self-contained test toolkit for the L1.5 workspace
//!
//! The workspace builds and verifies fully offline: this crate replaces
//! the external `rand` and `proptest` dependencies with
//! small in-tree equivalents tailored to what the codebase actually
//! uses. It has **zero dependencies** by design.
//!
//! * [`rng`] — deterministic seedable PRNGs (SplitMix64 and
//!   xoshiro256++) behind a [`rng::Rng`] trait whose surface matches the
//!   `rand` idioms used across the crates (`gen_range`, `gen_bool`,
//!   `shuffle`, `SmallRng::seed_from_u64`), so simulation and generator
//!   code migrates by swapping imports.
//! * [`prop`] — a property-testing engine: a seeded runner with
//!   configurable case count, failure-seed reporting
//!   (`L15_PROP_SEED=0x… cargo test <name>` reproduces the shrunk
//!   counterexample deterministically) and greedy choice-stream
//!   shrinking for ints, vectors and tuples. A property draws its inputs
//!   straight from [`prop::G`]'s methods (`u32_in`, `vec_of`, `weighted`,
//!   `pick`, …), which stand in for proptest strategies.
//! * [`pool`] — a deterministic std-only thread pool (`L15_JOBS`
//!   workers, per-item SplitMix64 seeds, index-ordered results) driving
//!   the experiment sweeps, the differential harness and the parallel
//!   property runner; `L15_JOBS=1` reproduces the sequential behaviour
//!   bit-for-bit.
//! * [`cli`] — the unified flag grammar of every `l15` subcommand
//!   (`--quick`, declared boolean, number and string flags, positionals;
//!   unknown flags are usage errors).
//! * [`diag`] — the canonical single-line rendering of checker
//!   diagnostics, shared by `l15 check`, the `POST /check`
//!   endpoint and the mutation tests so a finding is byte-identical on
//!   every surface.
//! * [`arrivals`] — seeded sporadic arrival-stream generator (integer
//!   cycle timestamps, enforced minimum separation) feeding the online
//!   admission layer and its load generators deterministically.
//!
//! # Example
//!
//! ```
//! use l15_testkit::prop;
//! use l15_testkit::rng::{Rng, SmallRng};
//!
//! // rand-style simulation draws:
//! let mut rng = SmallRng::seed_from_u64(42);
//! let jitter = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&jitter));
//!
//! // property test with automatic shrinking:
//! prop::run("sorting_is_idempotent", |g| {
//!     let mut v = g.vec_of(0..32, |g| g.any_u32());
//!     v.sort();
//!     let once = v.clone();
//!     v.sort();
//!     assert_eq!(v, once);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod cli;
pub mod diag;
pub mod fuzz;
pub mod pool;
pub mod prop;
pub mod rng;
