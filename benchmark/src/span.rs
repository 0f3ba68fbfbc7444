//! Wall-time spans recorded from the benchmark's side of each call into a
//! layer. Spans stay in memory until the run ends; a layer's self time is
//! its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::percentile;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`runtime.run_task_l15`).
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (spans of one op share it).
    pub op: u64,
}

impl Span {
    /// The span's inclusive duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Disabled, [`Tracer::span`] is one
/// branch around the call, so the timed run goes through the same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing (the timed run).
    pub fn off() -> Self {
        Tracer { epoch: Instant::now(), enabled: false, op: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// A recording tracer; all tracers of one run share `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Tracer { enabled: true, epoch, ..Tracer::off() }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands the recording over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: duration minus the durations of its direct
/// children (children of one single-threaded parent never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What one span name adds up to over a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time, milliseconds.
    pub busy_ms: f64,
    /// Median inclusive duration, microseconds.
    pub p50_us: f64,
    /// Summed inclusive duration, milliseconds.
    pub total_ms: f64,
}

/// Aggregates recordings (one per thread) by span name.
pub fn by_name(recordings: &[Vec<Span>]) -> BTreeMap<&'static str, LayerTime> {
    let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for spans in recordings {
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.busy_ms += own as f64 / 1e6;
            e.total_ms += s.dur_ns() as f64 / 1e6;
            durs.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        }
    }
    for (name, mut d) in durs {
        d.sort_by(f64::total_cmp);
        out.get_mut(name).expect("same keys").p50_us = percentile(&d, 0.5);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100] { a [10,40] { c [20,30] }, b [50,90] }
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_body() {
        let mut t = Tracer::off();
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_op_ids() {
        let mut t = Tracer::on(Instant::now());
        t.set_op(5);
        t.span("op", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        t.set_op(6);
        t.span("op", |_| ());
        let s = t.spans();
        let shape: Vec<_> = s.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", None, 5),
                ("a", Some(0), 5),
                ("b", Some(0), 5),
                ("c", Some(2), 5),
                ("op", None, 6)
            ]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns, "a parent closes after its children");
    }

    #[test]
    fn aggregation_sums_across_threads() {
        let a = vec![span("op", 0, 1_000_000, None), span("x", 0, 400_000, Some(0))];
        let b = vec![span("x", 0, 200_000, None)];
        let agg = by_name(&[a, b]);
        assert_eq!(agg["x"].calls, 2);
        assert!((agg["x"].busy_ms - 0.6).abs() < 1e-9);
        assert!((agg["op"].busy_ms - 0.6).abs() < 1e-9);
        assert!((agg["op"].total_ms - 1.0).abs() < 1e-9);
        assert_eq!(agg["x"].p50_us, 200.0);
    }
}
