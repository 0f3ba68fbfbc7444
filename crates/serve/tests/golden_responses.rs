//! The service's responses, pinned byte for byte: one `start(ServeConfig::
//! default())` server, a fixed list of requests sent one at a time over
//! loopback, and for each response its status, its headers (all but
//! `Content-Length` and `Connection`, which every response carries) and
//! its body. A body over 1 KiB is recorded as its length plus its FNV-1a
//! digest. `/metrics` is fetched last but one, and every line of its page
//! but the latency histograms is recorded.
//!
//! Regenerate (only for a change that is *meant* to move a response) with
//! `L15_UPDATE_GOLDEN=1 cargo test -p l15-serve --test golden_responses`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use l15_serve::client;
use l15_serve::server::{start, ServeConfig};
use l15_testkit::rng::{fnv1a, FNV1A_OFFSET};

const TIMEOUT: Duration = Duration::from_secs(60);

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

/// A task whose deadline holds only while its producer's 16 KiB stay in
/// the L1.5: keeping it through a switch to ζ = 1 is refused.
const FAT: &str = "\
task period=12 deadline=12
node 0 wcet=1 data=16384
node 1 wcet=1 data=0
edge 0 1 cost=20 alpha=0.9
";

/// A chain of `n` nodes.
fn chain(n: usize, data: u64) -> String {
    let mut text = String::from("task period=100000 deadline=100000\n");
    for i in 0..n {
        writeln!(text, "node {i} wcet=1 data={data}").unwrap();
    }
    for i in 1..n {
        writeln!(text, "edge {} {i} cost=1 alpha=0.5", i - 1).unwrap();
    }
    text
}

/// The request list: `(method, target, body)`.
fn requests() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let sample = SAMPLE.as_bytes().to_vec();
    let two_tasks =
        format!("{SAMPLE}{}", SAMPLE.replace("period=100 deadline=90", "period=80 deadline=70"))
            .into_bytes();
    let plan = format!(
        "{SAMPLE}plan 0 pri=3 ways=4 tid=0\nplan 1 pri=2 ways=4 tid=1\n\
         plan 2 pri=2 ways=4 tid=0\nplan 3 pri=1 ways=4 tid=0\n"
    )
    .into_bytes();
    let long_line = format!("{SAMPLE}# {}\n", "x".repeat(5000)).into_bytes();
    let fat_node = b"task period=10 deadline=10\nnode 0 wcet=1 data=999999999\n".to_vec();
    let empty = Vec::new();
    let s = || sample.clone();
    vec![
        // Every row with its defaults, then with each query parameter.
        ("GET", "/healthz", empty.clone()),
        ("POST", "/schedule", s()),
        ("POST", "/schedule?cores=4", s()),
        ("POST", "/schedule?zeta=8", s()),
        ("POST", "/schedule?clusters=2", two_tasks.clone()),
        ("POST", "/schedule?clusters=4&cores_per_cluster=2", two_tasks),
        ("POST", "/analyze", s()),
        ("POST", "/analyze?cores=4", s()),
        ("POST", "/analyze?clusters=2", s()),
        ("POST", "/simulate", s()),
        ("POST", "/simulate?preset=cmp_l2_8core", s()),
        ("POST", "/simulate?max_cycles=1000", s()),
        ("POST", "/simulate?compute_iters=4", s()),
        ("POST", "/check", s()),
        ("POST", "/check?cores=2", s()),
        ("POST", "/check?zeta=8", s()),
        ("POST", "/check", plan),
        ("POST", "/trace", s()),
        ("POST", "/trace?preset=cmp_l1_8core&compute_iters=4", s()),
        ("POST", "/trace?max_cycles=1000", s()),
        ("POST", "/trace?max_events=64&compute_iters=4", s()),
        ("POST", "/certify", s()),
        ("POST", "/certify?preset=cmp_l2_8core", s()),
        ("POST", "/certify?compute_iters=4", s()),
        // One request per 4xx class.
        ("POST", "/schedule", vec![0xff, 0xfe]),
        ("POST", "/schedule?clusters=2", vec![0xff, 0xfe]),
        ("POST", "/check", vec![0xff, 0xfe]),
        ("POST", "/analyze", b"garbage\n".to_vec()),
        ("POST", "/schedule?clusters=2", format!("{SAMPLE}task period=0 deadline=0\n").into()),
        ("POST", "/check", format!("{SAMPLE}plan 0 pri=1\n").into()),
        ("POST", "/check", format!("{SAMPLE}plan 0 pri=1 ways=18446744073709551615\n").into()),
        ("POST", "/schedule", long_line.clone()),
        ("POST", "/schedule?clusters=2", long_line.clone()),
        ("POST", "/check", long_line.clone()),
        ("POST", "/submit", long_line),
        ("POST", "/analyze", chain(4097, 0).into()),
        ("POST", "/check", chain(1025, 0).into()),
        ("POST", "/simulate", chain(65, 0).into()),
        ("POST", "/certify", fat_node),
        ("POST", "/schedule?cores=0", s()),
        ("POST", "/schedule?clusters=abc", s()),
        ("POST", "/trace?max_events=99999999", s()),
        ("POST", "/simulate?preset=warp_drive", s()),
        ("GET", "/nope", empty.clone()),
        ("GET", "/schedule", empty.clone()),
        ("POST", "/healthz", empty.clone()),
        // The online session: admit, mode change, refusal, reset, ledger.
        ("POST", "/submit", s()),
        ("POST", "/submit", s()),
        ("GET", "/jobs", empty.clone()),
        ("POST", "/submit?mode=degraded&zeta=8", empty.clone()),
        ("POST", "/submit?mode=x&zeta=0", empty.clone()),
        ("POST", "/submit?mode=x&keep=a", empty.clone()),
        ("POST", "/submit", FAT.as_bytes().to_vec()),
        ("POST", "/submit?mode=tiny&keep=2&zeta=1", empty.clone()),
        ("GET", "/jobs", empty.clone()),
        ("POST", "/submit?reset=1", empty.clone()),
        ("GET", "/jobs", empty.clone()),
        ("GET", "/metrics", empty.clone()),
        ("POST", "/shutdown", empty),
    ]
}

fn record() -> String {
    let handle = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();
    let mut out = String::new();
    for (method, target, body) in requests() {
        let r = client::request(addr, method, target, &body, TIMEOUT).expect("answered");
        writeln!(out, "=== {method} {target}\n{}", r.status).unwrap();
        for (name, value) in &r.headers {
            if name != "content-length" && name != "connection" {
                writeln!(out, "{name}: {value}").unwrap();
            }
        }
        if target == "/metrics" {
            // Histogram lines carry wall-clock times; every other line is exact.
            for line in r.text().lines().filter(|l| !l.contains("l15_latency_us")) {
                writeln!(out, "{line}").unwrap();
            }
        } else if r.body.len() > 1024 {
            let digest = fnv1a(FNV1A_OFFSET, &r.body);
            writeln!(out, "<{} bytes, fnv1a {digest:016x}>", r.body.len()).unwrap();
        } else {
            writeln!(out, "{}", r.text().trim_end()).unwrap();
        }
    }
    handle.join();
    out
}

#[test]
fn responses_reproduce_the_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/responses.txt");
    let actual = record();
    if std::env::var_os("L15_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden/responses.txt is committed");
    for (n, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {} differs", n + 1, path.display());
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "{}", path.display());
}
