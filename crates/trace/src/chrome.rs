//! Chrome trace-event / Perfetto JSON export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) that both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. Determinism is a hard requirement (CI diffs the bytes across
//! `L15_JOBS` settings), so the exporter:
//!
//! * writes keys in a fixed order with no whitespace variance,
//! * uses **integer** timestamps only — `ts`/`dur` are simulated cycles,
//!   never floats, so there is no platform-variant formatting,
//! * emits events in a fixed sequence: process metadata, thread metadata
//!   (ascending `tid`), node/Walloc spans (derivation order), then
//!   instants in recording order.
//!
//! Row layout: `tid < 64` is a core row (`core N`); `tid = 64 + c` is the
//! SDU/Walloc row of cluster `c`. High-volume access and pipeline events
//! are aggregated into the per-process totals in `otherData` instead of
//! being exported as millions of instants.

use std::fmt::Write as _;

use crate::event::{Category, EventKind};
use crate::json::escape;
use crate::recorder::FlightRecorder;
use crate::span::Spans;

/// `tid` of the SDU/Walloc row for cluster 0 (`64 + cluster`).
pub const SDU_TID_BASE: u32 = 64;

/// Per-recording aggregate of the high-volume categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    fetches: [u64; 4],
    loads: [u64; 4],
    stores_via_l15: u64,
    stores_conventional: u64,
    if_stall: u64,
    ma_stall: u64,
    hazard: u64,
    flush: u64,
    ex: u64,
}

impl Totals {
    fn absorb(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Fetch { level, .. } => self.fetches[level.index()] += 1,
            EventKind::Load { level, .. } => self.loads[level.index()] += 1,
            EventKind::Store { via_l15: true, .. } => self.stores_via_l15 += 1,
            EventKind::Store { via_l15: false, .. } => self.stores_conventional += 1,
            EventKind::PipeStall { if_stall, ma_stall, hazard, flush, ex, .. } => {
                self.if_stall += u64::from(if_stall);
                self.ma_stall += u64::from(ma_stall);
                self.hazard += u64::from(hazard);
                self.flush += u64::from(flush);
                self.ex += u64::from(ex);
            }
            _ => {}
        }
    }

    fn render(&self) -> String {
        format!(
            concat!(
                "{{\"fetches\":[{},{},{},{}],\"loads\":[{},{},{},{}],",
                "\"stores_via_l15\":{},\"stores_conventional\":{},",
                "\"if_stall\":{},\"ma_stall\":{},\"hazard\":{},\"flush\":{},\"ex\":{}}}"
            ),
            self.fetches[0],
            self.fetches[1],
            self.fetches[2],
            self.fetches[3],
            self.loads[0],
            self.loads[1],
            self.loads[2],
            self.loads[3],
            self.stores_via_l15,
            self.stores_conventional,
            self.if_stall,
            self.ma_stall,
            self.hazard,
            self.flush,
            self.ex,
        )
    }
}

/// Builds a Chrome trace out of one or more recordings.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    lines: Vec<String>,
    other: Vec<(String, String)>,
    dropped: [u64; Category::COUNT],
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    fn meta(&mut self, pid: u32, tid: u32, name: &str, value: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\
             \"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(value)
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn span(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts: u64, dur: u64, args: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}"
        ));
    }

    fn instant(&mut self, pid: u32, tid: u32, name: &str, cat: &str, ts: u64, args: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}"
        ));
    }

    /// Adds one recording as process `pid` named `name`.
    pub fn add_recording(&mut self, pid: u32, name: &str, rec: &FlightRecorder) {
        let events = rec.to_vec();
        let spans = Spans::from_events(&events);

        // Which rows does this recording touch?
        let mut tids: Vec<u32> = Vec::new();
        let touch = |tid: u32, tids: &mut Vec<u32>| {
            if !tids.contains(&tid) {
                tids.push(tid);
            }
        };
        let mut totals = Totals::default();
        for ev in &events {
            totals.absorb(&ev.kind);
            match ev.kind {
                EventKind::Ctrl { core, .. }
                | EventKind::GvConsume { core, .. }
                | EventKind::Section { core, .. } => touch(core, &mut tids),
                EventKind::WayGrant { cluster, .. }
                | EventKind::WayRevoke { cluster, .. }
                | EventKind::SduStall { cluster, .. }
                | EventKind::GvPublish { cluster, .. } => touch(SDU_TID_BASE + cluster, &mut tids),
                _ => {}
            }
        }
        for s in &spans.nodes {
            touch(s.core, &mut tids);
        }
        for w in &spans.walloc {
            touch(w.core, &mut tids);
        }
        tids.sort_unstable();

        self.meta(pid, 0, "process_name", name);
        for &tid in &tids {
            let label = if tid >= SDU_TID_BASE {
                format!("sdu {}", tid - SDU_TID_BASE)
            } else {
                format!("core {tid}")
            };
            self.meta(pid, tid, "thread_name", &label);
        }

        for s in &spans.nodes {
            self.span(
                pid,
                s.core,
                &format!("node {}", s.node),
                "node",
                s.start,
                s.duration(),
                &format!("{{\"node\":{},\"truncated\":{}}}", s.node, s.truncated),
            );
        }
        for w in &spans.walloc {
            self.span(
                pid,
                w.core,
                "walloc",
                "kernel",
                w.start,
                w.duration(),
                &format!("{{\"want\":{},\"got\":{},\"truncated\":{}}}", w.want, w.got, w.truncated),
            );
        }

        for ev in &events {
            let (cat, name) = (ev.kind.category().name(), ev.kind.name());
            match ev.kind {
                EventKind::Ctrl { core, arg, .. } => {
                    self.instant(pid, core, name, cat, ev.cycle, &format!("{{\"arg\":{arg}}}"));
                }
                EventKind::WayGrant { cluster, lane, way } => {
                    self.instant(
                        pid,
                        SDU_TID_BASE + cluster,
                        name,
                        cat,
                        ev.cycle,
                        &format!("{{\"lane\":{lane},\"way\":{way}}}"),
                    );
                }
                EventKind::WayRevoke { cluster, way } => {
                    self.instant(
                        pid,
                        SDU_TID_BASE + cluster,
                        name,
                        cat,
                        ev.cycle,
                        &format!("{{\"way\":{way}}}"),
                    );
                }
                EventKind::SduStall { cluster, backlog } => {
                    self.instant(
                        pid,
                        SDU_TID_BASE + cluster,
                        name,
                        cat,
                        ev.cycle,
                        &format!("{{\"backlog\":{backlog}}}"),
                    );
                }
                EventKind::GvPublish { cluster, lane, mask } => {
                    self.instant(
                        pid,
                        SDU_TID_BASE + cluster,
                        name,
                        cat,
                        ev.cycle,
                        &format!("{{\"lane\":{lane},\"mask\":{mask}}}"),
                    );
                }
                EventKind::GvConsume { core, cluster, way } => {
                    self.instant(
                        pid,
                        core,
                        name,
                        cat,
                        ev.cycle,
                        &format!("{{\"cluster\":{cluster},\"way\":{way}}}"),
                    );
                }
                EventKind::Section { core, node, .. } => {
                    self.instant(pid, core, name, cat, ev.cycle, &format!("{{\"node\":{node}}}"));
                }
                _ => {}
            }
        }

        for (cat, n) in rec.dropped().iter() {
            self.dropped[cat as usize] += n;
        }
        self.other.push((format!("p{pid}"), totals.render()));
    }

    /// Renders the trace as a deterministic JSON object (one event per
    /// line inside `traceEvents`).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, line) in self.lines.iter().enumerate() {
            out.push_str(line);
            if i + 1 < self.lines.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"cycles\",");
        out.push_str("\"dropped_events\":{");
        for (i, cat) in Category::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", cat.name(), self.dropped[*cat as usize]);
        }
        out.push('}');
        for (key, totals) in &self.other {
            let _ = write!(out, ",\"{key}\":{totals}");
        }
        out.push_str("}}");
        out.push('\n');
        out
    }
}

/// Exports a single recording as process 0 named `name`.
pub fn export(name: &str, rec: &FlightRecorder) -> String {
    let mut trace = ChromeTrace::new();
    trace.add_recording(0, name, rec);
    trace.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CtrlKind, Level, TraceEvent};

    fn sample_recorder() -> FlightRecorder {
        let mut rec = FlightRecorder::new(64);
        let mut put = |cycle, kind| rec.record(TraceEvent { cycle, kind });
        put(0, EventKind::NodeStart { node: 0, core: 0 });
        put(1, EventKind::Ctrl { core: 0, op: CtrlKind::Demand, arg: 4 });
        put(2, EventKind::WayGrant { cluster: 0, lane: 0, way: 1 });
        put(3, EventKind::Fetch { core: 0, level: Level::L1 });
        put(4, EventKind::Load { core: 0, level: Level::L15 });
        put(9, EventKind::GvPublish { cluster: 0, lane: 0, mask: 0b10 });
        put(10, EventKind::NodeFinish { node: 0, core: 0 });
        rec
    }

    #[test]
    fn export_is_deterministic_and_integer_timestamped() {
        let rec = sample_recorder();
        let a = export("test", &rec);
        let b = export("test", &rec);
        assert_eq!(a, b);
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"thread_name\""));
        assert!(!a.contains('.') || !a.contains("\"ts\":0."), "no float timestamps");
        assert!(a.contains("\"loads\":[0,1,0,0]"));
    }

    #[test]
    fn sdu_rows_live_above_the_core_rows() {
        let rec = sample_recorder();
        let text = export("test", &rec);
        assert!(text.contains(&format!("\"tid\":{}", SDU_TID_BASE)));
        assert!(text.contains("\"name\":\"sdu 0\""));
    }
}
