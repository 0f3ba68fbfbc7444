//! The cycle-accurate monitor (Sec. 5.3: "We deployed a cycle-accurate
//! monitor to trace the cores and L1.5 Cache").
//!
//! Two things and nothing else: the always-on [`TraceCounters`], and an
//! optional [`FlightRecorder`] that receives every event while it is
//! attached. Instrumentation points build an `l15_trace` [`EventKind`] and
//! hand it to [`record`](Trace::record) (events a counter follows) or
//! [`emit`](Trace::emit) / [`emit_at`](Trace::emit_at) (events only a
//! recording shows: pipeline stalls, SDU stalls, GV consumption, kernel
//! spans). A recorder only *observes* — attaching one changes no cycle
//! count, no counter and no memory state (the parity contract of
//! `trace_parity.rs`) — and an untraced run pays one `Option` test per
//! event.

use l15_rvcore::isa::L15Op;
use l15_trace::{CtrlKind, EventKind, FlightRecorder, TraceEvent};

/// Aggregate counters, maintained whether or not a recorder is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Loads served by each level: `[L1, L1.5, L2, memory]`.
    pub loads: [u64; 4],
    /// Fetches served by each level.
    pub fetches: [u64; 4],
    /// Stores routed into the L1.5.
    pub stores_via_l15: u64,
    /// Stores on the conventional path.
    pub stores_conventional: u64,
    /// Control-port operations.
    pub ctrl_ops: u64,
    /// Way grants.
    pub grants: u64,
    /// Way revocations.
    pub revokes: u64,
    /// Globally-visible-set updates (`gv_set` taking effect).
    pub gv_updates: u64,
}

impl TraceCounters {
    /// Counts one event: the only event → counter mapping, shared by the
    /// live monitor and by replays that fold a recorded stream back into
    /// counters. Events no counter follows are ignored.
    #[inline]
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Fetch { level, .. } => self.fetches[level.index()] += 1,
            EventKind::Load { level, .. } => self.loads[level.index()] += 1,
            EventKind::Store { via_l15: true, .. } => self.stores_via_l15 += 1,
            EventKind::Store { via_l15: false, .. } => self.stores_conventional += 1,
            EventKind::Ctrl { .. } => self.ctrl_ops += 1,
            EventKind::WayGrant { .. } => self.grants += 1,
            EventKind::WayRevoke { .. } => self.revokes += 1,
            EventKind::GvPublish { .. } => self.gv_updates += 1,
            _ => {}
        }
    }
}

/// The `l15_trace` name of a control-port operation (`l15-trace` cannot
/// name [`L15Op`] itself: it does not depend on `l15-rvcore`).
pub(crate) fn ctrl_kind(op: L15Op) -> CtrlKind {
    match op {
        L15Op::Demand => CtrlKind::Demand,
        L15Op::Supply => CtrlKind::Supply,
        L15Op::GvSet => CtrlKind::GvSet,
        L15Op::GvGet => CtrlKind::GvGet,
        L15Op::IpSet => CtrlKind::IpSet,
    }
}

/// The monitor: counters + the flight recorder attached for this run, if
/// any.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    now: u64,
    counters: TraceCounters,
    recorder: Option<FlightRecorder>,
}

impl Trace {
    /// Attaches `rec`: from now on it receives every event. A recorder
    /// already attached is dropped.
    pub fn attach(&mut self, rec: FlightRecorder) {
        self.recorder = Some(rec);
    }

    /// Detaches the recorder and hands it back with what it recorded.
    pub fn detach(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// Whether a recorder is attached. Instrumentation points that would
    /// do non-trivial work to build an event check this first.
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Stamps the current global cycle (called by the simulation loop).
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// Counts `kind` and, while recording, records it at the current
    /// cycle.
    #[inline]
    pub fn record(&mut self, kind: EventKind) {
        self.counters.observe(&kind);
        self.emit(kind);
    }

    /// Records `kind` at the current cycle without counting it; nothing
    /// happens unless a recorder is attached.
    #[inline]
    pub fn emit(&mut self, kind: EventKind) {
        self.emit_at(self.now, kind);
    }

    /// [`emit`](Self::emit) with an explicit cycle stamp.
    #[inline]
    pub fn emit_at(&mut self, cycle: u64, kind: EventKind) {
        if let Some(rec) = &mut self.recorder {
            rec.record(TraceEvent { cycle, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_trace::Level;

    #[test]
    fn counters_advance_without_a_recorder() {
        let mut t = Trace::default();
        assert!(!t.recording(), "no recorder by default");
        t.record(EventKind::Load { core: 0, level: Level::L15 });
        t.record(EventKind::Store { core: 0, via_l15: true });
        t.emit(EventKind::NodeStart { node: 0, core: 0 });
        assert_eq!(t.counters().loads[1], 1);
        assert_eq!(t.counters().stores_via_l15, 1);
        assert!(t.detach().is_none());
    }

    #[test]
    fn every_counted_kind_lands_in_exactly_one_counter() {
        // Regression: gv updates once advanced no counter, so with no
        // recorder (the default) gv_set activity was invisible.
        let mut t = Trace::default();
        t.record(EventKind::Fetch { core: 0, level: Level::L1 });
        t.record(EventKind::Load { core: 0, level: Level::Mem });
        t.record(EventKind::Store { core: 0, via_l15: false });
        t.record(EventKind::Ctrl { core: 0, op: ctrl_kind(L15Op::Demand), arg: 2 });
        t.record(EventKind::WayGrant { cluster: 0, lane: 0, way: 1 });
        t.record(EventKind::WayRevoke { cluster: 0, way: 1 });
        t.record(EventKind::GvPublish { cluster: 0, lane: 0, mask: 0b10 });
        let c = *t.counters();
        let total = c.loads.iter().sum::<u64>()
            + c.fetches.iter().sum::<u64>()
            + c.stores_via_l15
            + c.stores_conventional
            + c.ctrl_ops
            + c.grants
            + c.revokes
            + c.gv_updates;
        assert_eq!(total, 7, "each recorded event must land in exactly one counter: {c:?}");
        assert_eq!((c.grants, c.revokes, c.gv_updates), (1, 1, 1));
    }

    #[test]
    fn attached_recorder_receives_stamped_events_and_detaches() {
        let mut t = Trace::default();
        t.attach(FlightRecorder::new(16));
        assert!(t.recording());
        t.set_now(7);
        t.record(EventKind::Load { core: 1, level: Level::L15 });
        t.record(EventKind::GvPublish { cluster: 0, lane: 1, mask: 0b1000 });
        t.emit(EventKind::NodeStart { node: 2, core: 1 });
        t.emit_at(9, EventKind::NodeFinish { node: 2, core: 1 });
        let rec = t.detach().expect("attached above");
        assert!(!t.recording(), "detached monitor no longer records");
        let events = rec.to_vec();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            TraceEvent { cycle: 7, kind: EventKind::Load { core: 1, level: Level::L15 } }
        );
        assert_eq!(events[2].cycle, 7);
        assert_eq!(events[3].cycle, 9);
        // Counters advanced exactly as they would without the recorder,
        // and only for the events a counter follows.
        assert_eq!(t.counters().loads[1], 1);
        assert_eq!(t.counters().gv_updates, 1);
    }

    #[test]
    fn saturated_recorder_keeps_the_newest_events() {
        let mut t = Trace::default();
        t.attach(FlightRecorder::new(2));
        for i in 0..4 {
            t.set_now(i);
            t.record(EventKind::Ctrl { core: 0, op: ctrl_kind(L15Op::Supply), arg: i as u32 });
        }
        let rec = t.detach().expect("attached above");
        let cycles: Vec<u64> = rec.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3]);
        assert_eq!(rec.dropped().total(), 2);
        assert_eq!(t.counters().ctrl_ops, 4, "counters do not depend on the ring");
    }
}
