//! `l15-serve` — scheduling-as-a-service over the L1.5 pipeline.
//!
//! A long-running, zero-dependency HTTP/1.1 service (std `TcpListener`
//! only) that exposes the repo's scheduling and analysis pipeline. Its
//! endpoints are the rows of [`api::ROWS`]; `crates/serve/README.md`
//! documents each one (a unit test holds the two in step) and the wire
//! protocol.
//!
//! Operational properties:
//!
//! * **validated & capped** — body size, node/edge counts and query
//!   parameters are bounded; every rejection is a 4xx, never a panic;
//! * **backpressure** — one bounded FIFO admission gate: `L15_JOBS`
//!   requests run at once, each on the connection thread that read it,
//!   a bounded number wait their turn; full ⇒ `503` with `Retry-After`,
//!   so overload degrades predictably;
//! * **deterministic** — handlers are pure functions of the request
//!   bytes (no RNG, no clocks), so identical requests produce
//!   byte-identical responses at any slot count;
//! * **graceful shutdown** — `POST /shutdown` closes admission, lets every
//!   admitted request finish, then exits; admitted work is never dropped;
//! * **online tier** — `/submit` and `/jobs` are the one *stateful*
//!   exception to handler purity: they drive a persistent
//!   [`l15_online::OnlineSession`] (admission control, R6-gated mode
//!   changes) serialised on a mutex, deterministic in submission order.

#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod gate;
pub mod http;
pub mod json;
pub mod metrics;
pub mod online;
pub mod server;

pub use api::Limits;
pub use metrics::{scrape, Endpoint, ServeMetrics};
pub use server::{start, Handle, ServeConfig};
