//! A deterministic, zero-dependency thread pool for embarrassingly
//! parallel sweeps (the `l15` experiments, the differential harness and
//! the property-test runner all build on it).
//!
//! # Determinism contract
//!
//! The result of [`run`] is a pure function of the inputs, never of the
//! scheduling:
//!
//! * every work item is identified by its index `0..n` and executed
//!   exactly once, by whichever worker thread gets to it first;
//! * randomness must be derived per item via [`item_seed`] (SplitMix64
//!   over the master seed and the item index), never from a shared
//!   stream, so an item's draws do not depend on which items ran before
//!   it;
//! * results are collected **in index order**, so folds over the returned
//!   `Vec` visit items exactly as a sequential loop would (bit-identical
//!   floating-point sums included);
//! * when items panic, the pool finishes the sweep, then re-raises the
//!   panic of the **lowest-index** failing item, tagged with that index —
//!   the same item a sequential scan would have died on. No deadlock, no
//!   scheduling-dependent error reports.
//!
//! Consequently `L15_JOBS=1` and `L15_JOBS=64` produce byte-identical
//! output; the worker count only changes wall-clock time.
//!
//! # Worker count
//!
//! [`jobs`] reads the `L15_JOBS` environment variable (minimum 1) and
//! falls back to [`std::thread::available_parallelism`]. `L15_JOBS=1`
//! runs every item inline on the calling thread — a plain sequential
//! loop, useful both as the reproducibility baseline and under
//! single-stepping debuggers.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::rng::splitmix64;

/// Environment variable selecting the worker count.
pub const JOBS_ENV: &str = "L15_JOBS";

/// The configured worker count: `L15_JOBS` when set and parsable
/// (minimum 1), otherwise [`std::thread::available_parallelism`].
pub fn jobs() -> usize {
    if let Ok(raw) = std::env::var(JOBS_ENV) {
        match raw.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => eprintln!("[l15-testkit] ignoring unparsable {JOBS_ENV}={raw:?}"),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The per-item seed for item `index` of a sweep with `master_seed`:
/// a SplitMix64 derivation, so neighbouring indices get statistically
/// independent streams and the value does not depend on the worker count.
pub fn item_seed(master_seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(master_seed).wrapping_add(index as u64))
}

/// Runs `f(0..n)` on [`jobs`] workers, results in index order.
pub fn run<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_on(jobs(), n, f)
}

/// [`run`] with the per-item seed of [`item_seed`] already derived:
/// `f(index, seed)`.
pub fn run_seeded<T, F>(master_seed: u64, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    run(n, move |i| f(i, item_seed(master_seed, i)))
}

/// Runs `f(0..n)` on an explicit number of workers (chunked
/// self-scheduling over an atomic cursor), results in index order.
///
/// # Panics
///
/// If any item panics, every remaining item still runs (so the failing
/// index is scheduling-independent), then the panic of the lowest-index
/// failing item is re-raised as
/// `"[l15-testkit] pool work item <index> panicked: <message>"`.
pub fn run_on<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n);
    if jobs <= 1 {
        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<(usize, String)> = None;
        for i in 0..n {
            match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => out.push(v),
                Err(payload) => {
                    first_panic = Some((i, payload_message(payload.as_ref())));
                    break;
                }
            }
        }
        if let Some((index, msg)) = first_panic {
            panic!("[l15-testkit] pool work item {index} panicked: {msg}");
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(v) => *slots[i].lock().expect("slot lock poisoned") = Some(v),
                    Err(payload) => {
                        let msg = payload_message(payload.as_ref());
                        let mut p = panicked.lock().expect("panic lock poisoned");
                        if p.as_ref().is_none_or(|(j, _)| i < *j) {
                            *p = Some((i, msg));
                        }
                    }
                }
            });
        }
    });
    if let Some((index, msg)) = panicked.into_inner().expect("panic lock poisoned") {
        panic!("[l15-testkit] pool work item {index} panicked: {msg}");
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner().expect("slot lock poisoned").expect("every work item fills its slot")
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
pub fn payload_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1usize, 2, 3, 8] {
            let out = run_on(jobs, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        assert_eq!(run_on(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_on(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn item_seed_is_stable_and_index_sensitive() {
        assert_eq!(item_seed(42, 7), item_seed(42, 7));
        assert_ne!(item_seed(42, 7), item_seed(42, 8));
        assert_ne!(item_seed(42, 7), item_seed(43, 7));
    }

    #[test]
    fn run_seeded_feeds_item_seed() {
        let out = run_seeded(99, 4, |i, s| (i, s));
        for (i, s) in out {
            assert_eq!(s, item_seed(99, i));
        }
    }

    #[test]
    fn lowest_index_panic_wins_under_every_job_count() {
        for jobs in [1usize, 2, 8] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                run_on(jobs, 12, |i| {
                    if i == 3 || i == 9 {
                        panic!("boom {i}");
                    }
                    i
                });
            }));
            let msg = match caught {
                Err(payload) => payload_message(payload.as_ref()),
                Ok(()) => panic!("sweep should have panicked (jobs={jobs})"),
            };
            assert!(msg.contains("work item 3"), "jobs={jobs}: {msg}");
            assert!(msg.contains("boom 3"), "jobs={jobs}: {msg}");
        }
    }
}
