//! A minimal property-testing engine with integrated shrinking.
//!
//! # Model
//!
//! A property is a closure `|g: &mut G|` that *draws* random values from
//! `g` and panics (any `assert!`) when the property is violated. The
//! runner executes the closure for a configurable number of cases, each
//! seeded deterministically from (base seed, case index) alone — which is
//! what lets the exploration fan out over the [`crate::pool`] workers
//! (`L15_JOBS`) without changing which case fails or how it shrinks. Every raw 64-bit draw a case makes is
//! recorded as a *choice stream*; on failure the runner shrinks the
//! stream itself — deleting, zeroing and halving draws — and replays the
//! closure on each candidate. Because values are decoded from the stream
//! with "0 maps to the smallest value", shrinking the stream greedily
//! shrinks integers towards their lower bound, vectors towards empty and
//! tuples element-wise, while every generator constraint (ranges, length
//! bounds) keeps holding by construction.
//!
//! # Reproducing failures
//!
//! On failure the runner panics with a report containing the failing
//! case's seed:
//!
//! ```text
//! [l15-testkit] property `plru_victim_is_valid` failed (case 17 of 128).
//!     repro: L15_PROP_SEED=0x3a0c241f9e6b8d55 cargo test -p <crate> plru_victim_is_valid
//! ```
//!
//! Setting `L15_PROP_SEED` makes the runner execute exactly that case
//! (and its deterministic shrink sequence) instead of the whole sweep, so
//! the shrunk counterexample is reproduced bit-for-bit.

use std::cell::{Cell, RefCell};
use std::ops::{Bound, RangeBounds};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::gen::Gen;
use crate::pool::{self, payload_message};
use crate::rng::{fnv1a, splitmix64, Xoshiro256pp, FNV1A_OFFSET};

/// Runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of random cases to run (default 64).
    pub cases: u32,
    /// Upper bound on property executions spent shrinking one failure
    /// (default 4096).
    pub max_shrink_iters: u32,
    /// Base seed; `None` derives a fixed seed from the property name so
    /// suites are deterministic across runs and machines.
    pub seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 64, max_shrink_iters: 4096, seed: None }
    }
}

impl Config {
    /// A configuration running `cases` random cases (the analogue of
    /// `ProptestConfig::with_cases`).
    pub fn with_cases(cases: u32) -> Self {
        Config { cases, ..Default::default() }
    }
}

// ---------------------------------------------------------------------
// Choice stream
// ---------------------------------------------------------------------

/// The raw source of 64-bit choices: a PRNG while exploring, a recorded
/// stream while replaying/shrinking (padded with zeros when the replay is
/// exhausted — "simplest value" by convention).
struct Source {
    replay: Vec<u64>,
    pos: usize,
    rng: Option<Xoshiro256pp>,
    record: Vec<u64>,
}

impl Source {
    fn fresh(seed: u64) -> Self {
        Source {
            replay: Vec::new(),
            pos: 0,
            rng: Some(Xoshiro256pp::seed_from_u64(seed)),
            record: Vec::new(),
        }
    }

    fn replay(stream: &[u64]) -> Self {
        Source { replay: stream.to_vec(), pos: 0, rng: None, record: Vec::new() }
    }

    fn draw(&mut self) -> u64 {
        let v = if self.pos < self.replay.len() {
            self.replay[self.pos]
        } else if let Some(rng) = &mut self.rng {
            rng.next_u64()
        } else {
            0
        };
        self.pos += 1;
        self.record.push(v);
        v
    }
}

// ---------------------------------------------------------------------
// Draw context
// ---------------------------------------------------------------------

/// The draw context handed to a property closure. All sampling decodes
/// raw choices such that a zero choice produces the smallest value the
/// generator can emit — the contract the shrinker relies on.
pub struct G {
    src: Source,
}

macro_rules! g_int_draw {
    ($($fn_name:ident: $t:ty [$min:expr, $max:expr]),*) => {$(
        /// Uniform draw from `range`; a zero choice yields the lower bound.
        pub fn $fn_name(&mut self, range: impl RangeBounds<$t>) -> $t {
            let lo: i128 = match range.start_bound() {
                Bound::Included(&v) => v as i128,
                Bound::Excluded(&v) => v as i128 + 1,
                Bound::Unbounded => $min as i128,
            };
            let hi: i128 = match range.end_bound() {
                Bound::Included(&v) => v as i128,
                Bound::Excluded(&v) => v as i128 - 1,
                Bound::Unbounded => $max as i128,
            };
            assert!(lo <= hi, "draw from empty range");
            // A full 64-bit domain degenerates to span 0 == "every draw valid".
            let span = (hi - lo + 1) as u128;
            let span = if span > u64::MAX as u128 { 0 } else { span as u64 };
            let raw = self.src.draw();
            let v = if span == 0 { raw as i128 } else { lo + (raw % span) as i128 };
            v as $t
        }
    )*};
}

impl G {
    /// The next raw 64-bit choice.
    pub fn raw_u64(&mut self) -> u64 {
        self.src.draw()
    }

    g_int_draw!(
        u8_in: u8 [0, u8::MAX],
        u16_in: u16 [0, u16::MAX],
        u32_in: u32 [0, u32::MAX],
        u64_in: u64 [0, u64::MAX],
        usize_in: usize [0, usize::MAX],
        i32_in: i32 [i32::MIN, i32::MAX],
        i64_in: i64 [i64::MIN, i64::MAX],
        isize_in: isize [isize::MIN, isize::MAX]
    );

    /// An arbitrary `u8` (shrinks towards 0).
    pub fn any_u8(&mut self) -> u8 {
        self.u8_in(..)
    }

    /// An arbitrary `u16` (shrinks towards 0).
    pub fn any_u16(&mut self) -> u16 {
        self.u16_in(..)
    }

    /// An arbitrary `u32` (shrinks towards 0).
    pub fn any_u32(&mut self) -> u32 {
        self.u32_in(..)
    }

    /// An arbitrary `u64` (shrinks towards 0).
    pub fn any_u64(&mut self) -> u64 {
        self.src.draw()
    }

    /// A uniform `f64` in `[lo, hi)`; a zero choice yields `lo`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "draw from empty f64 range");
        let unit = (self.src.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = lo + unit * (hi - lo);
        if v >= hi {
            hi.next_down()
        } else {
            v
        }
    }

    /// A uniform `f64` in `[lo, hi]` (both endpoints reachable).
    pub fn f64_in_incl(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "draw from empty f64 range");
        let unit = (self.src.draw() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        (lo + unit * (hi - lo)).clamp(lo, hi)
    }

    /// A boolean; a zero choice yields `false`.
    pub fn bool(&mut self) -> bool {
        self.src.draw() & 1 == 1
    }

    /// Picks an index according to `weights` (the analogue of a weighted
    /// `prop_oneof`); a zero choice yields index 0, so list the simplest
    /// alternative first.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weighted draw needs a positive total weight");
        let mut x = self.src.draw() % total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w as u64 {
                return i;
            }
            x -= w as u64;
        }
        unreachable!("weights exhausted")
    }

    /// A uniformly chosen element of `items` (zero choice: the first).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.usize_in(0..items.len())]
    }

    /// A vector with length drawn from `len` and elements from `f`.
    /// Shrinks first in length, then element-wise.
    pub fn vec_of<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut f: impl FnMut(&mut G) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// Draws one value from a [`Gen`] combinator.
    pub fn draw<T: 'static>(&mut self, gen: &Gen<T>) -> T {
        gen.generate(self)
    }
}

// ---------------------------------------------------------------------
// Panic capture
// ---------------------------------------------------------------------

thread_local! {
    static SILENCE_PANICS: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK_INIT: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses backtrace
/// spam for panics the runner is about to catch, recording the location
/// and message instead. Panics outside a property run are forwarded to
/// the previous hook untouched.
fn install_hook() {
    HOOK_INIT.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SILENCE_PANICS.with(|s| s.get()) {
                let msg = payload_message(info.payload());
                let loc = info
                    .location()
                    .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                    .unwrap_or_else(|| "<unknown>".to_owned());
                LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("{msg}, at {loc}")));
            } else {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with panics silenced and captured. Returns the recorded
/// choice stream plus `Some(message)` if the run panicked.
fn run_case(f: &impl Fn(&mut G), src: Source) -> (Vec<u64>, Option<String>) {
    let mut g = G { src };
    SILENCE_PANICS.with(|s| s.set(true));
    LAST_PANIC.with(|p| *p.borrow_mut() = None);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(&mut g)));
    SILENCE_PANICS.with(|s| s.set(false));
    let failure = match outcome {
        Ok(()) => None,
        Err(payload) => Some(
            LAST_PANIC
                .with(|p| p.borrow_mut().take())
                .unwrap_or_else(|| payload_message(payload.as_ref())),
        ),
    };
    (g.src.record, failure)
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily shrinks a failing choice stream: chunk deletion, chunk
/// zeroing, then per-draw halving/decrement, repeated to a fixed point or
/// the iteration budget. Returns the final stream, its failure message
/// and the number of property executions spent.
fn shrink(
    f: &impl Fn(&mut G),
    mut stream: Vec<u64>,
    mut message: String,
    budget: u32,
) -> (Vec<u64>, String, u32) {
    let mut spent = 0u32;
    let try_candidate = |cand: &[u64], spent: &mut u32| -> Option<(Vec<u64>, String)> {
        if *spent >= budget {
            return None;
        }
        *spent += 1;
        let (record, failure) = run_case(f, Source::replay(cand));
        failure.map(|msg| (record, msg))
    };

    loop {
        let mut improved = false;

        // Pass 1: delete chunks, large to small, scanning from the tail
        // (later draws usually decide vector tails).
        for &size in &[32usize, 16, 8, 4, 2, 1] {
            if size > stream.len() {
                continue;
            }
            let mut start = stream.len() - size;
            loop {
                let mut cand = stream.clone();
                cand.drain(start..start + size);
                if let Some((rec, msg)) = try_candidate(&cand, &mut spent) {
                    // Keep the *recorded* stream: replay may have read
                    // fewer (or padded) draws than the candidate held.
                    stream = rec;
                    message = msg;
                    improved = true;
                    if start + size > stream.len() {
                        if size > stream.len() {
                            break;
                        }
                        start = stream.len() - size;
                        continue;
                    }
                }
                if start == 0 {
                    break;
                }
                start = start.saturating_sub(size);
            }
            if spent >= budget {
                break;
            }
        }

        // Pass 2: zero chunks.
        for &size in &[8usize, 4, 2, 1] {
            let mut start = 0;
            while start + size <= stream.len() {
                if stream[start..start + size].iter().all(|&v| v == 0) {
                    start += size;
                    continue;
                }
                let mut cand = stream.clone();
                for v in &mut cand[start..start + size] {
                    *v = 0;
                }
                if let Some((rec, msg)) = try_candidate(&cand, &mut spent) {
                    stream = rec;
                    message = msg;
                    improved = true;
                }
                start += size;
            }
            if spent >= budget {
                break;
            }
        }

        // Pass 3: halve, then decrement, individual draws.
        for i in 0..stream.len() {
            while stream.get(i).is_some_and(|&v| v > 0) {
                let mut cand = stream.clone();
                cand[i] /= 2;
                match try_candidate(&cand, &mut spent) {
                    Some((rec, msg)) => {
                        stream = rec;
                        message = msg;
                        improved = true;
                    }
                    None => break,
                }
            }
            if stream.get(i).is_some_and(|&v| v > 0) {
                let mut cand = stream.clone();
                cand[i] -= 1;
                if let Some((rec, msg)) = try_candidate(&cand, &mut spent) {
                    stream = rec;
                    message = msg;
                    improved = true;
                }
            }
        }

        if !improved || spent >= budget {
            return (stream, message, spent);
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Environment variable that replays one specific case (accepts decimal
/// or `0x`-prefixed hex).
pub const SEED_ENV: &str = "L15_PROP_SEED";

/// The replay seed in [`SEED_ENV`], if set and parsable
/// ([`crate::cli::parse_u64`]); an unparsable value is reported on stderr
/// and ignored.
pub fn env_seed() -> Option<u64> {
    let raw = std::env::var(SEED_ENV).ok()?;
    let parsed = crate::cli::parse_u64(&raw);
    if parsed.is_none() {
        eprintln!("[l15-testkit] ignoring unparsable {SEED_ENV}={raw:?}");
    }
    parsed
}

/// Runs `property` for [`Config::default`] cases. See [`run_with`].
pub fn run(name: &str, property: impl Fn(&mut G) + Sync) {
    run_with(Config::default(), name, property);
}

/// Runs `property` under `cfg`, shrinking and reporting the first
/// failure.
///
/// Cases are explored on the [`pool`] workers (`L15_JOBS`; 1 runs the
/// classic sequential scan). Each case draws from its own seeded stream,
/// derived from (base seed, case index) alone, so the failing case — the
/// lowest-index failure, exactly what a sequential scan reports — its
/// seed and its shrunk counterexample are identical for every worker
/// count. Shrinking itself stays sequential, and `L15_PROP_SEED` replay
/// bypasses the pool entirely.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when any case fails, after
/// shrinking; the message contains the repro seed and the shrunk
/// counterexample's assertion message.
pub fn run_with(cfg: Config, name: &str, property: impl Fn(&mut G) + Sync) {
    install_hook();

    if let Some(seed) = env_seed() {
        // Replay mode: exactly one case, deterministic shrink.
        let (stream, failure) = run_case(&property, Source::fresh(seed));
        if let Some(message) = failure {
            fail(name, seed, 1, 1, &property, stream, message, cfg);
        }
        return;
    }

    let base = cfg.seed.unwrap_or_else(|| fixed_base_seed(name));
    let case_seed = |case: u32| splitmix64(base.wrapping_add(case as u64));
    let jobs = pool::jobs();
    if jobs <= 1 {
        for case in 0..cfg.cases {
            let seed = case_seed(case);
            let (stream, failure) = run_case(&property, Source::fresh(seed));
            if let Some(message) = failure {
                fail(name, seed, case + 1, cfg.cases, &property, stream, message, cfg);
            }
        }
        return;
    }

    // Parallel exploration, scanned in blocks: every case of a block runs
    // (each on its own seeded stream), then failures are inspected in
    // index order — so the reported case is the lowest-index failure, the
    // one the sequential scan finds, at most a block's worth of extra
    // property executions later.
    let block = (jobs as u32).saturating_mul(4).max(16);
    let mut start = 0u32;
    while start < cfg.cases {
        let count = block.min(cfg.cases - start);
        let outcomes = pool::run_on(jobs, count as usize, |k| {
            let seed = case_seed(start + k as u32);
            run_case(&property, Source::fresh(seed))
        });
        for (k, (stream, failure)) in outcomes.into_iter().enumerate() {
            if let Some(message) = failure {
                let case = start + k as u32;
                fail(name, case_seed(case), case + 1, cfg.cases, &property, stream, message, cfg);
            }
        }
        start += count;
    }
}

/// A fresh draw context seeded exactly like an exploration case or an
/// `L15_PROP_SEED` replay. External drivers (`l15 fuzz`) use
/// this to decode a value from a reported seed bit-for-bit as
/// [`check_seed`] would, without going through the runner.
pub fn seeded_g(seed: u64) -> G {
    G { src: Source::fresh(seed) }
}

/// Replays a single known-failure seed — used to pin regression corpora
/// (the replacement for proptest's `.proptest-regressions` files).
pub fn check_seed(name: &str, seed: u64, property: impl Fn(&mut G)) {
    install_hook();
    let (stream, failure) = run_case(&property, Source::fresh(seed));
    if let Some(message) = failure {
        fail(name, seed, 1, 1, &property, stream, message, Config::default());
    }
}

/// Fixed per-property base seed: deterministic across runs, machines and
/// (absent a name change) versions.
fn fixed_base_seed(name: &str) -> u64 {
    splitmix64(fnv1a(FNV1A_OFFSET, name.as_bytes()))
}

#[allow(clippy::too_many_arguments)]
fn fail(
    name: &str,
    seed: u64,
    case: u32,
    cases: u32,
    property: &impl Fn(&mut G),
    stream: Vec<u64>,
    message: String,
    cfg: Config,
) -> ! {
    let original_len = stream.len();
    let (shrunk, final_message, spent) = shrink(property, stream, message, cfg.max_shrink_iters);
    panic!(
        "[l15-testkit] property `{name}` failed (case {case} of {cases}).\n    \
         repro: {SEED_ENV}=0x{seed:x} cargo test {name}\n    \
         shrunk: {original_len} -> {len} choices in {spent} runs\n    \
         counterexample assertion: {final_message}",
        len = shrunk.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        // Atomic, not Cell: cases may run on pool worker threads.
        let count = std::sync::atomic::AtomicU32::new(0);
        run_with(Config::with_cases(17), "always_true", |g| {
            let _ = g.u32_in(0..100);
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 17);
    }

    #[test]
    fn draws_respect_ranges() {
        run_with(Config::with_cases(200), "ranges_hold", |g| {
            let a = g.usize_in(3..10);
            assert!((3..10).contains(&a));
            let b = g.i32_in(-5..=5);
            assert!((-5..=5).contains(&b));
            let c = g.f64_in(0.5, 1.5);
            assert!((0.5..1.5).contains(&c));
            let d = g.f64_in_incl(2.0, 2.0);
            assert_eq!(d, 2.0);
            let v = g.vec_of(0..7, |g| g.any_u8());
            assert!(v.len() < 7);
            let w = g.weighted(&[1, 3, 6]);
            assert!(w < 3);
        });
    }

    #[test]
    fn failure_is_reported_with_seed_and_shrunk() {
        let caught = std::panic::catch_unwind(|| {
            run_with(Config::with_cases(64), "finds_bug", |g| {
                let v = g.vec_of(0..100, |g| g.u32_in(0..1000));
                // Fails as soon as the vector has an element >= 10.
                assert!(v.iter().all(|&x| x < 10), "element out of bounds");
            });
        });
        let msg = match caught {
            Err(payload) => super::payload_message(payload.as_ref()),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("property `finds_bug` failed"), "{msg}");
        assert!(msg.contains(SEED_ENV), "{msg}");
        assert!(msg.contains("element out of bounds"), "{msg}");
    }

    #[test]
    fn shrinking_reaches_a_small_counterexample() {
        // The minimal failing input is a single-element vector holding 10.
        // The shrunk stream must be tiny: one length draw + one element.
        let caught = std::panic::catch_unwind(|| {
            run_with(Config::with_cases(64), "shrinks_small", |g| {
                let v = g.vec_of(0..100, |g| g.u32_in(0..1000));
                assert!(v.iter().all(|&x| x < 10));
            });
        });
        let msg = match caught {
            Err(p) => super::payload_message(p.as_ref()),
            Ok(()) => panic!("property should have failed"),
        };
        // "shrunk: N -> M choices": extract M.
        let m: usize = msg
            .split("-> ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("report contains shrunk size");
        assert!(m <= 2, "expected a <=2-choice counterexample, got {m}: {msg}");
    }

    #[test]
    fn same_seed_reproduces_the_same_draws() {
        let record = |seed: u64| {
            let (stream, _) = run_case(
                &|g: &mut G| {
                    let _ = g.vec_of(0..50, |g| g.any_u32());
                    let _ = g.f64_in(0.0, 1.0);
                },
                Source::fresh(seed),
            );
            stream
        };
        assert_eq!(record(0xabcd), record(0xabcd));
        assert_ne!(record(0xabcd), record(0xabce));
    }

    #[test]
    fn replay_pads_with_zeros() {
        let mut g = G { src: Source::replay(&[5]) };
        assert_eq!(g.usize_in(0..10), 5);
        assert_eq!(g.usize_in(3..10), 3, "padded draw decodes to the lower bound");
        assert!(!g.bool());
    }

    #[test]
    fn check_seed_passes_on_healthy_property() {
        check_seed("healthy", 0xdead_beef, |g| {
            let n = g.usize_in(1..=8);
            assert!(n >= 1);
        });
    }
}
