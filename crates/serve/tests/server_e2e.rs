//! End-to-end tests: a real `l15-serve` instance on an ephemeral port,
//! driven through `l15_serve::client` over real sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use l15_serve::client;
use l15_serve::metrics::scrape;
use l15_serve::server::{start, ServeConfig};
use l15_serve::Limits;
use l15_testkit::pool;

const TIMEOUT: Duration = Duration::from_secs(10);

const SAMPLE: &str = "\
task period=100 deadline=90
node 0 wcet=1 data=2048
node 1 wcet=2 data=2048
node 2 wcet=3 data=2048
node 3 wcet=1 data=0
edge 0 1 cost=1.5 alpha=0.5
edge 0 2 cost=1.5 alpha=0.5
edge 1 3 cost=1 alpha=0.6
edge 2 3 cost=1 alpha=0.6
";

#[test]
fn full_request_cycle_and_graceful_shutdown() {
    let handle = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();

    // Liveness.
    let r = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "ok\n"));

    // A schedule round trip, twice: byte-identical (handlers are pure).
    let a = client::post(addr, "/schedule?cores=4", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(a.status, 200, "{}", a.text());
    assert_eq!(a.header("content-type"), Some("application/json"));
    assert!(a.text().contains("\"proposed\""), "{}", a.text());
    let b = client::post(addr, "/schedule?cores=4", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(a.body, b.body);

    // Analyze and simulate.
    let r = client::post(addr, "/analyze", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"critical_path\""));
    let r = client::post(
        addr,
        "/simulate?preset=proposed_8core&compute_iters=4",
        SAMPLE.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"dataflow_ok\":true"), "{}", r.text());

    // Error mapping over the wire.
    let r = client::get(addr, "/nope", TIMEOUT).unwrap();
    assert_eq!(r.status, 404);
    let r = client::get(addr, "/schedule", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = client::post(addr, "/schedule", b"garbage\n", TIMEOUT).unwrap();
    assert_eq!(r.status, 422);
    let r = client::post(addr, "/schedule?cores=0", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 400);

    // The metrics page reconciles with what this test sent: 3 compute
    // admissions (+1 below for the 422, +1 for cores=0 — both admitted,
    // they fail inside the handler)… count them exactly.
    let page = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(page.status, 200);
    let text = page.text();
    assert_eq!(scrape(&text, "l15_requests_total{endpoint=\"schedule\"}"), Some(4));
    assert_eq!(scrape(&text, "l15_requests_total{endpoint=\"analyze\"}"), Some(1));
    assert_eq!(scrape(&text, "l15_requests_total{endpoint=\"simulate\"}"), Some(1));
    assert_eq!(scrape(&text, "l15_requests_total{endpoint=\"healthz\"}"), Some(1));
    // The fetch that produced the page counts itself.
    assert_eq!(scrape(&text, "l15_requests_total{endpoint=\"metrics\"}"), Some(1));
    assert_eq!(scrape(&text, "l15_rejected_total"), Some(0));
    assert_eq!(scrape(&text, "l15_expired_total"), Some(0));
    assert_eq!(
        scrape(&text, "l15_latency_us_count{endpoint=\"schedule\",phase=\"handle\"}"),
        Some(4)
    );

    // Graceful shutdown over the wire; join() returns only when drained.
    let r = client::post(addr, "/shutdown", b"", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "{\"draining\":true}");
    handle.join();
    // The port no longer answers.
    assert!(client::get(addr, "/healthz", Duration::from_millis(500)).is_err());
}

#[test]
fn check_endpoint_lints_programs_over_the_wire() {
    let handle = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();

    // A bare task is scheduled by the service and checks clean.
    let r = client::post(addr, "/check?cores=4&zeta=16", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    assert!(r.text().contains("\"clean\":true"), "{}", r.text());

    // An embedded plan that crosses a TID boundary yields R4 findings
    // whose `text` is the checker binary's canonical rendering.
    let program = format!(
        "{SAMPLE}plan 0 pri=3 ways=4 tid=0\nplan 1 pri=2 ways=4 tid=1\n\
         plan 2 pri=2 ways=4 tid=0\nplan 3 pri=1 ways=4 tid=0\n"
    );
    let r = client::post(addr, "/check", program.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let text = r.text();
    assert!(text.contains("\"clean\":false"), "{text}");
    assert!(text.contains("\"rule\":\"R4_TID_PROTECTOR\""), "{text}");
    assert!(text.contains("R4_TID_PROTECTOR nodes=["), "canonical text field: {text}");

    // A malformed plan line maps to 422 over the wire.
    let bad = format!("{SAMPLE}plan 0 pri=1\n");
    let r = client::post(addr, "/check", bad.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 422, "{}", r.text());

    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"check\"}"), Some(3));
    handle.shutdown();
}

#[test]
fn certify_endpoint_returns_the_bound_table_over_the_wire() {
    let handle = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();

    // Happy path: the sample certifies on the proposed preset and the
    // response carries one finite bound per node plus a certified RTA
    // makespan.
    let r = client::post(
        addr,
        "/certify?preset=proposed_8core&compute_iters=4",
        SAMPLE.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    let text = r.text();
    assert!(text.contains("\"certified\":true"), "{text}");
    assert!(text.contains("\"findings\":[]"), "{text}");
    assert!(text.contains("\"makespan_bound_cycles\":"), "{text}");
    assert!(!text.contains("\"bound_cycles\":null"), "{text}");

    // Determinism over the wire: the bound table is byte-identical.
    let r2 = client::post(
        addr,
        "/certify?preset=proposed_8core&compute_iters=4",
        SAMPLE.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.body, r2.body);

    // Error mapping: a garbage body is a 422, an unknown preset a 400.
    let r = client::post(addr, "/certify", b"garbage\n", TIMEOUT).unwrap();
    assert_eq!(r.status, 422, "{}", r.text());
    let r = client::post(addr, "/certify?preset=warp_drive", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    // Metrics reconciliation: all four requests were admitted under the
    // certify endpoint label (the 4xx ones fail inside the handler).
    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"certify\"}"), Some(4));
    assert_eq!(
        scrape(&page, "l15_latency_us_count{endpoint=\"certify\",phase=\"handle\"}"),
        Some(4)
    );
    handle.shutdown();
}

#[test]
fn trace_endpoint_captures_and_accounts_drops_over_the_wire() {
    let handle = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();

    // Happy path: a Perfetto-loadable Chrome trace with zero drops.
    let r = client::post(
        addr,
        "/trace?preset=proposed_8core&compute_iters=4",
        SAMPLE.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    assert_eq!(r.header("x-l15-trace-dropped"), Some("0"));
    let recorded: u64 = r.header("x-l15-trace-events").unwrap().parse().unwrap();
    assert!(recorded > 0);
    let stats = l15_trace::schema::validate(&r.text()).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(stats.spans > 0, "{stats:?}");
    assert_eq!(stats.dropped, 0);

    // Determinism over the wire: a second capture is byte-identical.
    let r2 = client::post(
        addr,
        "/trace?preset=proposed_8core&compute_iters=4",
        SAMPLE.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.body, r2.body);

    // Capture-size overflow: bounded ring → 413 with drop accounting.
    let r = client::post(addr, "/trace?max_events=64&compute_iters=4", SAMPLE.as_bytes(), TIMEOUT)
        .unwrap();
    assert_eq!(r.status, 413, "{}", r.text());
    let total: u64 = r.header("x-l15-trace-dropped").unwrap().parse().unwrap();
    assert!(total > 0);
    let by = r.header("x-l15-trace-dropped-by").unwrap().to_owned();

    // Metrics reconciliation: the server folded exactly the header's
    // per-category counts into l15_trace_dropped_events_total.
    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"trace\"}"), Some(3));
    let mut page_total = 0u64;
    for cat in l15_trace::Category::ALL {
        let sel = format!("l15_trace_dropped_events_total{{category=\"{}\"}}", cat.name());
        let n = scrape(&page, &sel).unwrap_or_else(|| panic!("missing {sel}"));
        let from_header = by
            .split(',')
            .find_map(|p| p.split_once('=').filter(|(c, _)| *c == cat.name()))
            .map_or(0, |(_, v)| v.parse::<u64>().unwrap());
        assert_eq!(n, from_header, "category {}", cat.name());
        page_total += n;
    }
    assert_eq!(page_total, total, "page total must equal the header total");
    handle.shutdown();
}

#[test]
fn http_level_limits_are_enforced() {
    let cfg = ServeConfig { max_body: 1024, ..ServeConfig::default() };
    let handle = start(cfg).unwrap();
    let addr = handle.addr();

    let big = vec![b'x'; 4096];
    let r = client::post(addr, "/schedule", &big, TIMEOUT).unwrap();
    assert_eq!(r.status, 413, "{}", r.text());

    // Node cap (api-level 413) through the wire, with a tiny limit.
    handle.shutdown();
    let cfg = ServeConfig {
        limits: Limits { max_nodes: 2, ..Limits::default() },
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let r = client::post(handle.addr(), "/analyze", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 413, "{}", r.text());
    handle.shutdown();
}

#[test]
fn zero_deadline_expires_admitted_work_as_503() {
    let cfg = ServeConfig { deadline: Duration::ZERO, ..ServeConfig::default() };
    let handle = start(cfg).unwrap();
    let addr = handle.addr();
    let r = client::post(addr, "/schedule", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));
    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    assert_eq!(scrape(&page, "l15_expired_total"), Some(1));
    assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"schedule\"}"), Some(1));
    handle.shutdown();
}

#[test]
fn saturation_accounting_reconciles_exactly() {
    // A tiny waiting room and a burst of concurrent clients: some requests are
    // rejected (503 + Retry-After), but every connection gets an answer
    // and the server-side counters match the client-side tally exactly.
    let cfg = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
    let handle = start(cfg).unwrap();
    let addr = handle.addr();

    let total = 24;
    let workers: Vec<_> = (0..total)
        .map(|_| {
            std::thread::spawn(move || {
                client::post(addr, "/schedule", SAMPLE.as_bytes(), TIMEOUT).unwrap().status
            })
        })
        .collect();
    let statuses: Vec<u16> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let ok = statuses.iter().filter(|&&s| s == 200).count() as u64;
    let busy = statuses.iter().filter(|&&s| s == 503).count() as u64;
    assert_eq!(ok + busy, total as u64, "only 200/503 expected: {statuses:?}");
    assert!(ok >= 1, "at least the first admitted request completes");

    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    let admitted = scrape(&page, "l15_requests_total{endpoint=\"schedule\"}").unwrap();
    let rejected = scrape(&page, "l15_rejected_total").unwrap();
    let expired = scrape(&page, "l15_expired_total").unwrap();
    assert_eq!(admitted + rejected, total as u64, "admission accounting");
    assert_eq!(admitted - expired, ok, "every non-expired admission returned 200");
    assert_eq!(rejected + expired, busy, "every 503 is a rejection or an expiry");
    // The page's own 200 is recorded only after rendering, so the count
    // here is exactly the schedule successes.
    assert_eq!(scrape(&page, "l15_responses_total{status=\"200\"}"), Some(ok));
    handle.shutdown();
}

/// A `/simulate` request that keeps a handler busy for a good while:
/// six ten-node chains between one source and one sink, every node with
/// an 8 KiB payload, at the largest work scale the endpoint accepts.
const SLOW_TARGET: &str = "/simulate?preset=proposed_8core&compute_iters=256";

fn slow_body() -> String {
    let (chains, len) = (6, 10);
    let sink = 1 + chains * len;
    let mut text = String::from("task period=100000 deadline=100000\n");
    for n in 0..=sink {
        text.push_str(&format!("node {n} wcet=2 data=8192\n"));
    }
    for c in 0..chains {
        let first = 1 + c * len;
        text.push_str(&format!("edge 0 {first} cost=1 alpha=0.5\n"));
        for n in first..first + len - 1 {
            text.push_str(&format!("edge {n} {} cost=1 alpha=0.5\n", n + 1));
        }
        text.push_str(&format!("edge {} {sink} cost=1 alpha=0.5\n", first + len - 1));
    }
    text
}

/// Polls `/metrics` until `selector` reads `want`.
fn await_counter(addr: SocketAddr, selector: &str, want: u64) {
    let t0 = Instant::now();
    loop {
        let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
        if scrape(&page, selector) == Some(want) {
            return;
        }
        assert!(t0.elapsed() < TIMEOUT, "{selector} never reached {want}:\n{page}");
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_running_request_does_not_hold_up_the_next() {
    if pool::jobs() < 2 {
        return; // one slot: the second request has to wait its turn
    }
    let handle = start(ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let body = slow_body();
    let slow = thread::spawn(move || client::post(addr, SLOW_TARGET, body.as_bytes(), TIMEOUT * 6));
    await_counter(addr, "l15_requests_total{endpoint=\"simulate\"}", 1);

    // The slow request holds one slot; this one takes the other and
    // answers while the first is still inside its handler.
    let r = client::post(addr, "/analyze", SAMPLE.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    assert_eq!(
        scrape(&page, "l15_latency_us_count{endpoint=\"simulate\",phase=\"handle\"}"),
        Some(0),
        "/analyze answered only after the slow /simulate had finished"
    );

    let r = slow.join().unwrap().unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    handle.shutdown();
}

#[test]
fn shutdown_drains_running_and_waiting_requests() {
    // A waiting request must outlast a slow one here, not expire behind it.
    let cfg = ServeConfig { deadline: TIMEOUT * 6, ..ServeConfig::default() };
    let handle = start(cfg).unwrap();
    let addr = handle.addr();
    // More slow requests than slots: some run, the rest wait their turn.
    let total = pool::jobs() + 2;
    let slow: Vec<_> = (0..total)
        .map(|_| {
            let body = slow_body();
            thread::spawn(move || client::post(addr, SLOW_TARGET, body.as_bytes(), TIMEOUT * 6))
        })
        .collect();
    await_counter(addr, "l15_requests_total{endpoint=\"simulate\"}", total as u64);

    // A connection accepted before the drain starts, whose request only
    // arrives after it.
    let mut late = TcpStream::connect(addr).unwrap();
    let r = client::post(addr, "/shutdown", b"", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    // The acceptor leaves only after the gate has closed.
    let t0 = Instant::now();
    while client::get(addr, "/healthz", Duration::from_millis(500)).is_ok() {
        assert!(t0.elapsed() < TIMEOUT, "the acceptor never stopped");
    }
    late.write_all(b"POST /analyze HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
    let mut answer = String::new();
    late.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 503"), "{answer}");
    assert!(answer.contains("server is draining"), "{answer}");

    // Every request admitted before the drain is answered in full.
    for s in slow {
        let r = s.join().unwrap().unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
    }
    handle.join();
}

#[test]
fn online_session_over_the_wire() {
    let handle = start(ServeConfig::default()).unwrap();
    let addr = handle.addr();

    // A clean session, then a stream of identical submissions: the
    // first ones are admitted, and a second identical run (after a
    // reset) replays the exact same decision bytes — the session is
    // deterministic in submission order.
    let run = || {
        let r = client::post(addr, "/submit?reset=1", b"", TIMEOUT).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        (0..4)
            .map(|_| {
                let r = client::post(addr, "/submit", SAMPLE.as_bytes(), TIMEOUT).unwrap();
                assert_eq!(r.status, 200, "{}", r.text());
                r.text()
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    assert!(first[0].contains("\"admitted\":true"), "{}", first[0]);
    assert!(first[0].contains("\"id\":0"), "{}", first[0]);

    // Garbage bodies are 4xx and don't touch the ledger.
    let r = client::post(addr, "/submit", b"garbage\n", TIMEOUT).unwrap();
    assert_eq!(r.status, 422, "{}", r.text());
    let r = client::get(addr, "/jobs", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let jobs = r.text();
    assert!(jobs.contains("\"submitted\":4"), "{jobs}");
    assert!(jobs.contains("\"mode\":\"boot\""), "{jobs}");

    // An R6-gated mode change dropping every job, then the replay.
    let r = client::post(addr, "/submit?mode=degraded&zeta=8", b"", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let report = r.text();
    assert!(report.contains("\"mode\":\"degraded\""), "{report}");
    assert!(!report.contains("\"reclaimed_ways\":0,"), "ways must be reclaimed: {report}");
    let second = run();
    assert_eq!(first, second, "decision replay must be byte-identical");

    // The metrics page reconciles: 9 evaluated arrivals (2×4 + the
    // post-reset garbage never counts), all admitted or rejected.
    let page = client::get(addr, "/metrics", TIMEOUT).unwrap().text();
    let submitted = scrape(&page, "l15_online_total{event=\"submitted\"}").unwrap();
    let admitted = scrape(&page, "l15_online_total{event=\"admitted\"}").unwrap();
    let rejected = scrape(&page, "l15_online_total{event=\"rejected\"}").unwrap();
    assert_eq!(submitted, 8);
    assert_eq!(admitted + rejected, submitted);
    assert_eq!(scrape(&page, "l15_online_total{event=\"mode_changes\"}"), Some(1));
    assert_eq!(scrape(&page, "l15_online_total{event=\"resets\"}"), Some(2));
    // 8 submissions + 2 resets + 1 mode change + 1 garbage body.
    assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"submit\"}"), Some(12));
    assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"jobs\"}"), Some(1));

    // Wrong methods on the online paths.
    let r = client::get(addr, "/submit", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = client::post(addr, "/jobs", b"", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    handle.shutdown();
}
