//! `l15 loadgen` — the load generator for a running `l15 serve`.
//!
//! ```text
//! l15 loadgen --port N [--quick|--smoke] [--open|--sporadic] [--shutdown]
//!             [--conns N] [--requests N] [--seed N] [--rate N]
//! ```
//!
//! Drives a seeded corpus of synthetic DAG tasks (the Sec. 5.1 generator)
//! against the service, closed-loop (`--conns` workers, the default) or
//! open-loop (`--open`, paced at `--rate` requests/s), and reports
//! throughput and latency percentiles.
//!
//! `--sporadic` switches to the online tier: a seeded sporadic stream of
//! jobs submitted **sequentially** to `POST /submit` (the session's
//! decision sequence is a function of submission order, so one client
//! thread keeps it byte-stable), paced open-loop at `--rate` and
//! reconciled exactly against the server's `l15_online_total` deltas.
//!
//! **Determinism contract.** Which task and endpoint request `j` uses is
//! derived from `--seed`, and a `503` (backpressure or queue expiry) is
//! retried until the request completes — so the *set of completed work*
//! and every response body are identical across runs regardless of timing,
//! connection count or the server's `L15_JOBS`. Output lines starting with
//! `~` carry timing (nondeterministic); everything else is byte-stable for
//! a given seed, which is what CI diffs.
//!
//! On exit the client-side tally is reconciled against the server's
//! `/metrics` deltas; a mismatch is a hard failure (exit status 1).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::textio;
use l15_serve::client::{self, ClientResponse};
use l15_serve::metrics::scrape;
use l15_testkit::arrivals;
use l15_testkit::cli::Parsed;
use l15_testkit::pool;
use l15_testkit::rng::{fnv1a, SmallRng, FNV1A_OFFSET};

use crate::{Error, Outcome};

const BIN: &str = "l15 loadgen";
const TIMEOUT: Duration = Duration::from_secs(30);
/// Hard cap on 503-retries per request before declaring the server stuck.
const MAX_ATTEMPTS: u64 = 100_000;

struct Plan {
    addr: SocketAddr,
    requests: usize,
    conns: usize,
    open: bool,
    rate: u64,
    seed: u64,
    corpus: Vec<String>,
    targets: Vec<&'static str>,
}

/// What one finished request contributes to the report.
struct Finished {
    status: u16,
    digest: u64,
    attempts: u64,
    latency_us: u64,
}

fn build_plan(args: &Parsed) -> Result<Plan, Error> {
    if args.value("--port").is_none() {
        return Err(Error::Usage("--port is required (start `l15 serve` first)".into()));
    }
    let port: u16 = args.number("--port", 0).map_err(Error::Usage)?;
    let quick = args.quick || args.flag("--smoke");
    let requests = args.value_or("--requests", if quick { 48 } else { 512 }) as usize;
    let conns = args.value_or("--conns", if quick { 8 } else { 16 }) as usize;
    let seed = args.value_or("--seed", 42);
    let rate = args.value_or("--rate", 200);

    // A small seeded corpus: every run with the same seed drives the exact
    // same bodies. Tasks are kept modest so a schedule round trip is fast.
    let corpus_size = if quick { 8 } else { 16 };
    let gen =
        DagGenerator::new(DagGenParams { layers: (3, 5), max_width: 6, ..DagGenParams::default() });
    let corpus: Vec<String> = (0..corpus_size)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(pool::item_seed(seed, i));
            let task = gen.generate(&mut rng).expect("generator params are valid");
            textio::write_task(&task)
        })
        .collect();
    // Endpoint mix is seed-derived, never timing-derived. The third arm
    // exercises the federated cluster-schedule path (a 422 "infeasible"
    // verdict is a valid, deterministic answer there).
    let targets: Vec<&'static str> = (0..requests)
        .map(|j| match pool::item_seed(seed ^ 0x6c6f_6164, j) % 3 {
            0 => "/schedule?cores=8",
            1 => "/analyze?cores=8",
            _ => "/schedule?clusters=2&cores_per_cluster=4",
        })
        .collect();
    Ok(Plan {
        addr: SocketAddr::from(([127, 0, 0, 1], port)),
        requests,
        conns: conns.max(1),
        open: args.flag("--open"),
        rate: rate.max(1),
        seed,
        corpus,
        targets,
    })
}

/// Issues request `j`, retrying 503s (and transient I/O hiccups) until it
/// completes; 503 is backpressure, not an answer.
fn run_request(plan: &Plan, j: usize) -> Finished {
    let body = plan.corpus[j % plan.corpus.len()].as_bytes();
    let target = plan.targets[j];
    let t0 = Instant::now();
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        if attempts > MAX_ATTEMPTS {
            eprintln!("{BIN}: request {j} still rejected after {MAX_ATTEMPTS} attempts");
            std::process::exit(1);
        }
        match client::post(plan.addr, target, body, TIMEOUT) {
            Ok(ClientResponse { status: 503, .. }) => {
                // Brief, growing backoff; the server said Retry-After but a
                // local bench drains queues in milliseconds.
                std::thread::sleep(Duration::from_millis((attempts).min(20)));
            }
            Ok(resp) => {
                let mut digest = fnv1a(FNV1A_OFFSET, &resp.status.to_be_bytes());
                digest = fnv1a(digest, &resp.body);
                return Finished {
                    status: resp.status,
                    digest,
                    attempts,
                    latency_us: t0.elapsed().as_micros() as u64,
                };
            }
            Err(e) => {
                eprintln!("{BIN}: request {j} I/O error: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The server's `/metrics` page.
fn metrics_page(addr: SocketAddr) -> Result<String, String> {
    match client::get(addr, "/metrics", TIMEOUT) {
        Ok(r) if r.status == 200 => Ok(r.text()),
        _ => Err(format!("cannot fetch /metrics from {addr}")),
    }
}

fn fetch_counters(addr: SocketAddr) -> Result<(u64, u64), String> {
    let page = metrics_page(addr)?;
    let admitted = ["schedule", "analyze", "simulate"]
        .iter()
        .map(|ep| scrape(&page, &format!("l15_requests_total{{endpoint=\"{ep}\"}}")).unwrap_or(0))
        .sum();
    let shed = scrape(&page, "l15_rejected_total").unwrap_or(0)
        + scrape(&page, "l15_expired_total").unwrap_or(0);
    Ok((admitted, shed))
}

/// Scrapes one online counter off a `/metrics` page.
fn online_counter(page: &str, event: &str) -> u64 {
    scrape(page, &format!("l15_online_total{{event=\"{event}\"}}")).unwrap_or(0)
}

/// `--sporadic`: a seeded sporadic stream into the online tier, submitted
/// sequentially (one client — the decision bytes depend on submission
/// order), wall-paced at `--rate` submissions/s with a mid-stream mode
/// change, and reconciled exactly against the `l15_online_total` deltas.
fn run_sporadic(plan: &Plan, args: &Parsed) -> Outcome {
    let submit = |target: &str, body: &[u8]| match client::post(plan.addr, target, body, TIMEOUT) {
        Ok(r) if r.status == 200 => Ok(r),
        Ok(r) => Err(format!("{target} answered {}: {}", r.status, r.text())),
        Err(e) => Err(format!("{target} I/O error: {e}")),
    };

    let before = metrics_page(plan.addr)?;
    // A fresh session, so the decision sequence below is a pure function
    // of the seed regardless of what ran against this server before.
    submit("/submit?reset=1", b"")?;

    let stream =
        l15_online::StreamParams { seed: plan.seed, ..l15_online::StreamParams::default() };
    let arrivals = arrivals::sporadic_stream(
        plan.seed,
        &arrivals::SporadicParams { count: plan.requests, min_gap: 4_000, max_extra: 8_000 },
    );
    let switch_before = plan.requests / 2;
    let (mut admitted, mut rejected) = (0u64, 0u64);
    let mut digest = FNV1A_OFFSET;
    let t0 = Instant::now();
    for arrival in &arrivals {
        if arrival.index == switch_before {
            let resp = submit("/submit?mode=loadgen&zeta=8", b"")?;
            digest = fnv1a(digest, &resp.body);
        }
        let due = t0 + Duration::from_micros(arrival.index as u64 * 1_000_000 / plan.rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let body = textio::write_task(&l15_online::task_for(arrival, &stream));
        let resp = submit("/submit", body.as_bytes())?;
        let text = resp.text();
        if text.contains("\"admitted\":true") {
            admitted += 1;
        } else {
            rejected += 1;
        }
        digest = fnv1a(digest, &resp.body);
    }
    let wall = t0.elapsed();
    let jobs = match client::get(plan.addr, "/jobs", TIMEOUT) {
        Ok(r) if r.status == 200 => r.body,
        other => return Err(format!("/jobs failed: {other:?}").into()),
    };
    digest = fnv1a(digest, &jobs);

    // --- Deterministic section (CI diffs these lines) -------------------
    println!("loadgen seed={} requests={} mode=sporadic", plan.seed, plan.requests);
    println!("submitted={} admitted={admitted} rejected={rejected}", admitted + rejected);
    println!("digest=0x{digest:016x}");

    // --- Exact reconciliation against the server's accounting -----------
    let after = metrics_page(plan.addr)?;
    let delta = |event: &str| online_counter(&after, event) - online_counter(&before, event);
    let reconciled = delta("submitted") == plan.requests as u64
        && delta("admitted") == admitted
        && delta("rejected") == rejected
        && delta("resets") == 1
        && delta("mode_changes") == 1;
    println!("reconcile={}", if reconciled { "ok" } else { "MISMATCH" });
    println!(
        "~reconcile submitted={} admitted={} rejected={} resets={} mode_changes={}",
        delta("submitted"),
        delta("admitted"),
        delta("rejected"),
        delta("resets"),
        delta("mode_changes")
    );
    println!("~wall_ms={}", wall.as_millis());
    if !reconciled {
        return Err("client/server online accounting mismatch".to_owned().into());
    }
    shutdown(plan, args)
}

/// `--shutdown`: drain the server once the run is accounted for (CI uses
/// this to end its smoke stage gracefully).
fn shutdown(plan: &Plan, args: &Parsed) -> Outcome {
    if args.flag("--shutdown") {
        match client::post(plan.addr, "/shutdown", b"", TIMEOUT) {
            Ok(r) if r.status == 200 => println!("~server draining"),
            other => return Err(format!("shutdown request failed: {other:?}").into()),
        }
    }
    Ok(true)
}

pub fn run(args: &Parsed) -> Outcome {
    let plan = build_plan(args)?;

    if !matches!(client::get(plan.addr, "/healthz", TIMEOUT), Ok(r) if r.status == 200) {
        return Err(format!("no healthy `l15 serve` at {}", plan.addr).into());
    }
    if args.flag("--sporadic") {
        return run_sporadic(&plan, args);
    }
    let (admitted_before, shed_before) = fetch_counters(plan.addr)?;

    let outcomes: Mutex<Vec<(usize, Finished)>> = Mutex::new(Vec::with_capacity(plan.requests));
    let t0 = Instant::now();
    if plan.open {
        // Open loop: fire at the configured rate, independent of responses.
        std::thread::scope(|s| {
            for j in 0..plan.requests {
                let due = t0 + Duration::from_micros(j as u64 * 1_000_000 / plan.rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let (plan, outcomes) = (&plan, &outcomes);
                s.spawn(move || {
                    let o = run_request(plan, j);
                    outcomes.lock().unwrap().push((j, o));
                });
            }
        });
    } else {
        // Closed loop: `conns` workers pull the next index off a cursor.
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..plan.conns {
                let (plan, outcomes, cursor) = (&plan, &outcomes, &cursor);
                s.spawn(move || loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    if j >= plan.requests {
                        break;
                    }
                    let o = run_request(plan, j);
                    outcomes.lock().unwrap().push((j, o));
                });
            }
        });
    }
    let wall = t0.elapsed();

    let mut outcomes = outcomes.into_inner().unwrap();
    outcomes.sort_by_key(|&(j, _)| j);
    assert_eq!(outcomes.len(), plan.requests, "every request must complete");

    // --- Deterministic section (CI diffs these lines across L15_JOBS) ---
    let ok = outcomes.iter().filter(|(_, o)| o.status == 200).count();
    let err4xx = outcomes.iter().filter(|(_, o)| (400..500).contains(&o.status)).count();
    let digest = outcomes.iter().fold(FNV1A_OFFSET, |acc, (j, o)| {
        fnv1a(fnv1a(acc, &(*j as u64).to_be_bytes()), &o.digest.to_be_bytes())
    });
    let corpus_digest = plan.corpus.iter().fold(FNV1A_OFFSET, |acc, t| fnv1a(acc, t.as_bytes()));
    println!(
        "loadgen seed={} requests={} corpus={} mode={}",
        plan.seed,
        plan.requests,
        plan.corpus.len(),
        if plan.open { "open" } else { "closed" }
    );
    println!("corpus_digest=0x{corpus_digest:016x}");
    println!("completed={} ok={ok} err4xx={err4xx}", outcomes.len());
    println!("digest=0x{digest:016x}");

    // --- Reconciliation against the server's own accounting -------------
    let (admitted_after, shed_after) = fetch_counters(plan.addr)?;
    let admitted = admitted_after - admitted_before;
    let shed = shed_after - shed_before;
    let retries: u64 = outcomes.iter().map(|(_, o)| o.attempts - 1).sum();
    let reconciled = admitted == plan.requests as u64 && shed == retries;
    println!("reconcile={}", if reconciled { "ok" } else { "MISMATCH" });
    println!(
        "~reconcile admitted={admitted} expected={} shed={shed} retries={retries}",
        plan.requests
    );

    // --- Timing section (nondeterministic, `~`-prefixed) ----------------
    let mut lat: Vec<u64> = outcomes.iter().map(|(_, o)| o.latency_us).collect();
    lat.sort_unstable();
    let pct = |q: f64| lat[((q * (lat.len() - 1) as f64).round() as usize).min(lat.len() - 1)];
    println!("~wall_ms={}", wall.as_millis());
    println!("~throughput_rps={:.1}", plan.requests as f64 / wall.as_secs_f64().max(1e-9));
    println!("~latency_us p50={} p95={} p99={}", pct(0.50), pct(0.95), pct(0.99));
    println!("~attempts_total={} retried_503={retries}", retries + plan.requests as u64);

    if !reconciled {
        return Err("client/server accounting mismatch".to_owned().into());
    }
    shutdown(&plan, args)
}
