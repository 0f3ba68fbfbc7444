//! The service metrics registry: lock-free counters and latency
//! histograms, rendered as a plaintext exposition page on `GET /metrics`.
//!
//! Patterned after `l15_cache::stats::CacheStats` — a fixed, explicit
//! set of counters rather than a dynamic map — but atomic, because every
//! connection thread touches them.
//! The exposition format is the Prometheus text convention
//! (`name{label="value"} 1234`), served without any external dependency.
//!
//! Counter semantics (the contract `loadgen` reconciles against):
//!
//! * `l15_requests_total{endpoint}` — requests **admitted** to an endpoint
//!   (compute endpoints: let through the gate; inline endpoints: served);
//! * `l15_responses_total{status}` — every response written, by status;
//! * `l15_rejected_total` — backpressure 503s (gate full);
//! * `l15_expired_total` — admitted requests whose deadline passed before
//!   a slot came free (503 after admission — the *only* way admitted work
//!   does not produce a handler result);
//! * `l15_online_total{event}` — online-session admission outcomes
//!   (`submitted = admitted + rejected`; the sporadic loadgen mode
//!   reconciles against these);
//! * `l15_simulated_instructions_total{path=ahead|stepped}` — instructions
//!   `/simulate` runs executed ahead of their core's clock or one step at a
//!   time (`Soc::run_ahead_stats`), so the run-ahead share is live;
//! * `l15_queue_depth` — admitted requests waiting for a slot, sampled as
//!   the page renders (gauge);
//! * `l15_latency_us{endpoint,phase=queue|handle}` — histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use l15_trace::Category;

use crate::api::{Serve, ROWS};

/// The compute endpoints (gated): the first rows of [`ROWS`], in order;
/// indexes into per-endpoint counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /schedule`.
    Schedule = 0,
    /// `POST /analyze`.
    Analyze = 1,
    /// `POST /simulate`.
    Simulate = 2,
    /// `POST /check`.
    Check = 3,
    /// `POST /trace`.
    Trace = 4,
    /// `POST /certify`.
    Certify = 5,
}

impl Endpoint {
    /// All compute endpoints, in render order.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Schedule,
        Endpoint::Analyze,
        Endpoint::Simulate,
        Endpoint::Check,
        Endpoint::Trace,
        Endpoint::Certify,
    ];

    /// The label value used on the exposition page.
    pub fn name(self) -> &'static str {
        ROWS[self as usize].name()
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// unbounded (`+Inf`). Roughly log-spaced from 100 µs to 10 s.
pub const LATENCY_BUCKETS_US: [u64; 10] =
    [100, 250, 500, 1_000, 2_500, 5_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A fixed-bucket latency histogram with sum and count.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [Counter; LATENCY_BUCKETS_US.len() + 1],
    sum_us: Counter,
    count: Counter,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let ix = LATENCY_BUCKETS_US.partition_point(|&b| b < us);
        self.buckets[ix].inc();
        self.sum_us.add(us);
        self.count.inc();
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of observations in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.get()
    }

    /// The approximate `q`-quantile in microseconds (bucket upper bound the
    /// quantile falls into; `u64::MAX` for the overflow bucket). Zero when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count.get();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.get();
            if seen >= target {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (i, upper) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.buckets[i].get();
            out.push_str(&format!("{name}_bucket{{{labels},le=\"{upper}\"}} {cumulative}\n"));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_US.len()].get();
        out.push_str(&format!("{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", self.sum_us.get()));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", self.count.get()));
    }
}

/// Every metric the service exposes.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests per row of [`ROWS`]: admitted through the gate (compute
    /// rows) or served (inline rows; a `/metrics` fetch counts *before*
    /// rendering, so the page includes the request that fetched it).
    pub requests: [Counter; ROWS.len()],
    /// Responses by status code class — exact codes the service emits.
    pub responses_200: Counter,
    /// 4xx responses (bad request, not found, oversized, …).
    pub responses_4xx: Counter,
    /// 500 responses.
    pub responses_500: Counter,
    /// 503 responses (backpressure + expired deadlines).
    pub responses_503: Counter,
    /// Backpressure rejections (gate full at admission).
    pub rejected: Counter,
    /// Admitted requests that expired waiting for a slot.
    pub expired: Counter,
    /// Time from arrival to a free slot, per endpoint.
    pub queue_wait: [Histogram; 6],
    /// Handler execution time, per endpoint.
    pub handle_time: [Histogram; 6],
    /// Flight-recorder events dropped by `/trace` captures, per
    /// `l15_trace::Category` (indexes match `Category::ALL`).
    pub trace_dropped: [Counter; Category::COUNT],
    /// Arrivals the online session evaluated (excludes resets, mode
    /// changes and 4xx bodies).
    pub online_submitted: Counter,
    /// Arrivals the admission controller admitted.
    pub online_admitted: Counter,
    /// Arrivals it rejected with a reason code.
    pub online_rejected: Counter,
    /// Committed R6-gated mode changes (refusals don't count).
    pub online_mode_changes: Counter,
    /// `?reset=1` session reboots.
    pub online_resets: Counter,
    /// Instructions `/simulate` runs executed `[ahead, stepped]`.
    pub simulated: [Counter; 2],
}

impl ServeMetrics {
    /// Adds `n` dropped trace events under `category` (an
    /// `l15_trace::Category` name); unknown names are ignored.
    pub fn add_trace_dropped(&self, category: &str, n: u64) {
        if let Some(ix) = Category::ALL.iter().position(|c| c.name() == category) {
            self.trace_dropped[ix].add(n);
        }
    }

    /// Records a response status.
    pub fn record_status(&self, status: u16) {
        match status {
            200 => self.responses_200.inc(),
            503 => self.responses_503.inc(),
            500 => self.responses_500.inc(),
            _ => self.responses_4xx.inc(),
        }
    }

    /// Renders the exposition page; `queue_depth` is the gate's waiting
    /// count right now.
    pub fn render(&self, queue_depth: usize) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE l15_requests_total counter\n");
        for (row, c) in ROWS.iter().zip(&self.requests) {
            if !matches!(row.serve, Serve::Shutdown) {
                let name = row.name();
                out.push_str(&format!("l15_requests_total{{endpoint=\"{name}\"}} {}\n", c.get()));
            }
        }
        out.push_str("# TYPE l15_responses_total counter\n");
        for (label, c) in [
            ("200", &self.responses_200),
            ("4xx", &self.responses_4xx),
            ("500", &self.responses_500),
            ("503", &self.responses_503),
        ] {
            out.push_str(&format!("l15_responses_total{{status=\"{label}\"}} {}\n", c.get()));
        }
        out.push_str("# TYPE l15_rejected_total counter\n");
        out.push_str(&format!("l15_rejected_total {}\n", self.rejected.get()));
        out.push_str("# TYPE l15_expired_total counter\n");
        out.push_str(&format!("l15_expired_total {}\n", self.expired.get()));
        out.push_str("# TYPE l15_trace_dropped_events_total counter\n");
        for cat in Category::ALL {
            out.push_str(&format!(
                "l15_trace_dropped_events_total{{category=\"{}\"}} {}\n",
                cat.name(),
                self.trace_dropped[cat as usize].get()
            ));
        }
        out.push_str("# TYPE l15_online_total counter\n");
        for (event, c) in [
            ("submitted", &self.online_submitted),
            ("admitted", &self.online_admitted),
            ("rejected", &self.online_rejected),
            ("mode_changes", &self.online_mode_changes),
            ("resets", &self.online_resets),
        ] {
            out.push_str(&format!("l15_online_total{{event=\"{event}\"}} {}\n", c.get()));
        }
        out.push_str("# TYPE l15_simulated_instructions_total counter\n");
        for (path, c) in ["ahead", "stepped"].iter().zip(&self.simulated) {
            let n = c.get();
            out.push_str(&format!("l15_simulated_instructions_total{{path=\"{path}\"}} {n}\n"));
        }
        out.push_str("# TYPE l15_queue_depth gauge\n");
        out.push_str(&format!("l15_queue_depth {queue_depth}\n"));
        out.push_str("# TYPE l15_latency_us histogram\n");
        for ep in Endpoint::ALL {
            let q = format!("endpoint=\"{}\",phase=\"queue\"", ep.name());
            self.queue_wait[ep as usize].render_into(&mut out, "l15_latency_us", &q);
            let h = format!("endpoint=\"{}\",phase=\"handle\"", ep.name());
            self.handle_time[ep as usize].render_into(&mut out, "l15_latency_us", &h);
        }
        out
    }
}

/// Parses one counter value back out of an exposition page — shared by
/// `loadgen`'s reconciliation and the tests. `selector` is the full line
/// prefix, e.g. `l15_requests_total{endpoint="schedule"}`.
pub fn scrape(page: &str, selector: &str) -> Option<u64> {
    page.lines().find_map(|l| {
        let rest = l.strip_prefix(selector)?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::default();
        m.requests[Endpoint::Schedule as usize].inc();
        m.requests[Endpoint::Schedule as usize].add(2);
        m.record_status(200);
        m.record_status(503);
        m.record_status(404);
        assert_eq!(m.requests[0].get(), 3);
        assert_eq!(m.responses_200.get(), 1);
        assert_eq!(m.responses_503.get(), 1);
        assert_eq!(m.responses_4xx.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // bucket le=100
        h.observe(Duration::from_micros(100)); // le=100 (inclusive bound)
        h.observe(Duration::from_micros(700)); // le=1000
        h.observe(Duration::from_secs(100)); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 50 + 100 + 700 + 100_000_000);
        assert_eq!(h.quantile_us(0.5), 100);
        assert_eq!(h.quantile_us(0.75), 1_000);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    #[test]
    fn render_and_scrape_round_trip() {
        let m = ServeMetrics::default();
        m.requests[Endpoint::Analyze as usize].add(7);
        m.rejected.add(3);
        m.queue_wait[0].observe(Duration::from_micros(42));
        let page = m.render(5);
        assert_eq!(scrape(&page, "l15_queue_depth"), Some(5));
        assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"analyze\"}"), Some(7));
        assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"schedule\"}"), Some(0));
        assert_eq!(scrape(&page, "l15_rejected_total"), Some(3));
        assert_eq!(
            scrape(&page, "l15_latency_us_count{endpoint=\"schedule\",phase=\"queue\"}"),
            Some(1)
        );
        assert_eq!(scrape(&page, "l15_nope"), None);
    }

    #[test]
    fn trace_dropped_counters_render_per_category() {
        let m = ServeMetrics::default();
        m.add_trace_dropped("access", 12);
        m.add_trace_dropped("node", 3);
        m.add_trace_dropped("warp", 99); // unknown name: ignored
        let page = m.render(0);
        assert_eq!(scrape(&page, "l15_trace_dropped_events_total{category=\"access\"}"), Some(12));
        assert_eq!(scrape(&page, "l15_trace_dropped_events_total{category=\"node\"}"), Some(3));
        assert_eq!(scrape(&page, "l15_trace_dropped_events_total{category=\"pipeline\"}"), Some(0));
    }

    #[test]
    fn online_counters_render_per_event() {
        let m = ServeMetrics::default();
        m.online_submitted.add(5);
        m.online_admitted.add(3);
        m.online_rejected.add(2);
        m.online_mode_changes.inc();
        m.requests[ROWS.iter().position(|r| r.name() == "submit").unwrap()].add(6);
        let page = m.render(0);
        assert_eq!(scrape(&page, "l15_online_total{event=\"submitted\"}"), Some(5));
        assert_eq!(scrape(&page, "l15_online_total{event=\"admitted\"}"), Some(3));
        assert_eq!(scrape(&page, "l15_online_total{event=\"rejected\"}"), Some(2));
        assert_eq!(scrape(&page, "l15_online_total{event=\"mode_changes\"}"), Some(1));
        assert_eq!(scrape(&page, "l15_online_total{event=\"resets\"}"), Some(0));
        assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"submit\"}"), Some(6));
        assert_eq!(scrape(&page, "l15_requests_total{endpoint=\"jobs\"}"), Some(0));
    }

    #[test]
    fn scrape_requires_exact_selector_prefix() {
        let page = "l15_rejected_total 5\nl15_rejected_total_extra 9\n";
        assert_eq!(scrape(page, "l15_rejected_total"), Some(5));
    }
}
