//! The cycle-accurate monitor (Sec. 5.3: "We deployed a cycle-accurate
//! monitor to trace the cores and L1.5 Cache").
//!
//! A bounded ring buffer of timestamped events plus always-on aggregate
//! counters. Tracing is **off by default** (a single branch per event when
//! disabled); the side-effects experiments enable it to derive way
//! utilisation and configuration latencies, and tests use it to assert
//! microarchitectural event sequences.
//!
//! The monitor also carries the attachment point of the `l15-trace`
//! flight recorder: a [`TraceSink`] (default [`NullSink`]) that every
//! [`record`](Trace::record) forwards a typed event into, plus
//! [`emit`](Trace::emit) for events the legacy ring has no vocabulary for
//! (pipeline stalls, SDU stalls, GV consumption, kernel spans). Sinks
//! only *observe* — attaching one changes no cycle count, no counter and
//! no memory state (the parity contract of `trace_parity.rs`).

use std::collections::VecDeque;

use l15_cache::geometry::WayMask;
use l15_rvcore::isa::L15Op;
use l15_trace::{CtrlKind, EventKind, Level, NullSink, TraceSink};

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Private L1 hit.
    L1,
    /// L1.5 hit.
    L15,
    /// Shared L2 hit.
    L2,
    /// External memory.
    Memory,
}

/// One monitor event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Instruction fetch served at a level.
    Fetch {
        /// Requesting core.
        core: usize,
        /// Serving level.
        served: ServedBy,
    },
    /// Data load served at a level.
    Load {
        /// Requesting core.
        core: usize,
        /// Serving level.
        served: ServedBy,
    },
    /// Data store; `via_l15` marks the inclusive write-through route.
    Store {
        /// Requesting core.
        core: usize,
        /// Whether the IPU routed it into the L1.5.
        via_l15: bool,
    },
    /// An L1.5 control instruction executed.
    Ctrl {
        /// Requesting core.
        core: usize,
        /// The operation.
        op: L15Op,
        /// Its operand (way count or bitmap).
        arg: u32,
    },
    /// The Walloc granted a way.
    WayGrant {
        /// Cluster.
        cluster: usize,
        /// Receiving core lane.
        lane: usize,
        /// Way index.
        way: usize,
    },
    /// The Walloc (or the kernel) revoked a way.
    WayRevoke {
        /// Cluster.
        cluster: usize,
        /// Way index.
        way: usize,
    },
    /// A gv_set changed the globally-visible set.
    GvUpdate {
        /// Cluster.
        cluster: usize,
        /// Core lane.
        lane: usize,
        /// Effective mask.
        mask: WayMask,
    },
}

/// Timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global cycle at which the event was recorded.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Aggregate counters, maintained even when event recording is disabled.
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
    fn level_ix(s: ServedBy) -> usize {
        match s {
            ServedBy::L1 => 0,
            ServedBy::L15 => 1,
            ServedBy::L2 => 2,
            ServedBy::Memory => 3,
        }
    }
}

/// The monitor: counters + optional bounded event ring + flight-recorder
/// sink.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    now: u64,
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    counters: TraceCounters,
    dropped: u64,
    sink: Box<dyn TraceSink>,
    /// `sink.enabled()`, read once when the sink is attached: every
    /// instrumentation point tests this field, not the trait object.
    sink_on: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(4096)
    }
}

impl Trace {
    /// Creates a disabled monitor with an event ring of `capacity`.
    pub fn new(capacity: usize) -> Self {
        Trace {
            enabled: false,
            now: 0,
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            counters: TraceCounters::default(),
            dropped: 0,
            sink: Box::new(NullSink),
            sink_on: false,
        }
    }

    /// Attaches a flight-recorder sink (e.g. `l15_trace::FlightRecorder`).
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink_on = sink.enabled();
        self.sink = sink;
    }

    /// Detaches the sink (replacing it with [`NullSink`]), returning it so
    /// the caller can downcast and read the recording.
    pub fn take_sink(&mut self) -> Box<dyn TraceSink> {
        self.sink_on = false;
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// Whether the attached sink wants events. Instrumentation points that
    /// would do non-trivial work to build an event must check this first.
    pub fn sink_enabled(&self) -> bool {
        self.sink_on
    }

    /// Emits a flight-recorder event stamped with the current cycle.
    pub fn emit(&mut self, kind: EventKind) {
        self.emit_at(self.now, kind);
    }

    /// Emits a flight-recorder event with an explicit cycle stamp.
    pub fn emit_at(&mut self, cycle: u64, kind: EventKind) {
        if self.sink_on {
            self.sink.emit(l15_trace::TraceEvent { cycle, kind });
        }
    }

    /// Current cycle stamp.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Enables event recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Disables event recording (counters keep counting).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether event recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps the current global cycle (called by the simulation loop).
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// Events currently buffered (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears buffered events and counters.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.counters = TraceCounters::default();
        self.dropped = 0;
    }

    /// Records one event (counter always; ring only when enabled).
    #[inline]
    pub fn record(&mut self, kind: TraceEventKind) {
        match kind {
            TraceEventKind::Fetch { served, .. } => {
                self.counters.fetches[TraceCounters::level_ix(served)] += 1;
            }
            TraceEventKind::Load { served, .. } => {
                self.counters.loads[TraceCounters::level_ix(served)] += 1;
            }
            TraceEventKind::Store { via_l15, .. } => {
                if via_l15 {
                    self.counters.stores_via_l15 += 1;
                } else {
                    self.counters.stores_conventional += 1;
                }
            }
            TraceEventKind::Ctrl { .. } => self.counters.ctrl_ops += 1,
            TraceEventKind::WayGrant { .. } => self.counters.grants += 1,
            TraceEventKind::WayRevoke { .. } => self.counters.revokes += 1,
            // Pre-fix, gv updates advanced no counter at all: with the
            // ring disabled the event vanished, contradicting the
            // "always-on aggregate counters" contract above.
            TraceEventKind::GvUpdate { .. } => self.counters.gv_updates += 1,
        }
        if self.enabled {
            if self.ring.len() >= self.capacity {
                self.ring.pop_front();
                self.dropped += 1;
            }
            self.ring.push_back(TraceEvent { cycle: self.now, kind });
        }
        if self.sink_on {
            let kind = recorder_kind(kind);
            self.sink.emit(l15_trace::TraceEvent { cycle: self.now, kind });
        }
    }
}

fn recorder_level(s: ServedBy) -> Level {
    match s {
        ServedBy::L1 => Level::L1,
        ServedBy::L15 => Level::L15,
        ServedBy::L2 => Level::L2,
        ServedBy::Memory => Level::Mem,
    }
}

fn recorder_ctrl(op: L15Op) -> CtrlKind {
    match op {
        L15Op::Demand => CtrlKind::Demand,
        L15Op::Supply => CtrlKind::Supply,
        L15Op::GvSet => CtrlKind::GvSet,
        L15Op::GvGet => CtrlKind::GvGet,
        L15Op::IpSet => CtrlKind::IpSet,
    }
}

/// Converts a legacy monitor event into the flight-recorder vocabulary.
fn recorder_kind(kind: TraceEventKind) -> EventKind {
    match kind {
        TraceEventKind::Fetch { core, served } => {
            EventKind::Fetch { core: core as u32, level: recorder_level(served) }
        }
        TraceEventKind::Load { core, served } => {
            EventKind::Load { core: core as u32, level: recorder_level(served) }
        }
        TraceEventKind::Store { core, via_l15 } => EventKind::Store { core: core as u32, via_l15 },
        TraceEventKind::Ctrl { core, op, arg } => {
            EventKind::Ctrl { core: core as u32, op: recorder_ctrl(op), arg }
        }
        TraceEventKind::WayGrant { cluster, lane, way } => {
            EventKind::WayGrant { cluster: cluster as u32, lane: lane as u32, way: way as u32 }
        }
        TraceEventKind::WayRevoke { cluster, way } => {
            EventKind::WayRevoke { cluster: cluster as u32, way: way as u32 }
        }
        TraceEventKind::GvUpdate { cluster, lane, mask } => {
            EventKind::GvPublish { cluster: cluster as u32, lane: lane as u32, mask: mask.0 as u32 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_without_recording() {
        let mut t = Trace::new(4);
        t.record(TraceEventKind::Load { core: 0, served: ServedBy::L15 });
        t.record(TraceEventKind::Store { core: 0, via_l15: true });
        assert_eq!(t.counters().loads[1], 1);
        assert_eq!(t.counters().stores_via_l15, 1);
        assert_eq!(t.events().count(), 0, "ring stays empty when disabled");
    }

    #[test]
    fn ring_keeps_newest_events() {
        let mut t = Trace::new(2);
        t.enable();
        for i in 0..4 {
            t.set_now(i);
            t.record(TraceEventKind::Ctrl { core: 0, op: L15Op::Supply, arg: i as u32 });
        }
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Trace::new(4);
        t.enable();
        t.record(TraceEventKind::WayGrant { cluster: 0, lane: 1, way: 2 });
        t.clear();
        assert_eq!(t.counters().grants, 0);
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn every_event_kind_advances_a_counter_when_disabled() {
        // Regression: GvUpdate used to advance no counter, so with the
        // ring off (the default) gv_set activity was invisible.
        let mut t = Trace::new(4);
        assert!(!t.is_enabled());
        t.record(TraceEventKind::Fetch { core: 0, served: ServedBy::L1 });
        t.record(TraceEventKind::Load { core: 0, served: ServedBy::Memory });
        t.record(TraceEventKind::Store { core: 0, via_l15: false });
        t.record(TraceEventKind::Ctrl { core: 0, op: L15Op::Demand, arg: 2 });
        t.record(TraceEventKind::WayGrant { cluster: 0, lane: 0, way: 1 });
        t.record(TraceEventKind::WayRevoke { cluster: 0, way: 1 });
        t.record(TraceEventKind::GvUpdate { cluster: 0, lane: 0, mask: WayMask::single(1) });
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
        assert_eq!(c.gv_updates, 1);
        assert_eq!(t.events().count(), 0, "ring stays empty when disabled");
    }

    #[test]
    fn sink_receives_converted_events_and_detaches() {
        use l15_trace::FlightRecorder;
        let mut t = Trace::new(4);
        assert!(!t.sink_enabled(), "NullSink by default");
        t.set_sink(Box::new(FlightRecorder::new(16)));
        assert!(t.sink_enabled());
        t.set_now(7);
        t.record(TraceEventKind::Load { core: 1, served: ServedBy::L15 });
        t.record(TraceEventKind::GvUpdate { cluster: 0, lane: 1, mask: WayMask::single(3) });
        t.emit(EventKind::NodeStart { node: 2, core: 1 });
        t.emit_at(9, EventKind::NodeFinish { node: 2, core: 1 });
        let rec = t.take_sink().into_any().downcast::<FlightRecorder>().unwrap();
        assert!(!t.sink_enabled(), "detached monitor is back to NullSink");
        let events: Vec<_> = rec.to_vec();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].cycle, 7);
        assert_eq!(events[0].kind, EventKind::Load { core: 1, level: Level::L15 });
        assert_eq!(events[1].kind, EventKind::GvPublish { cluster: 0, lane: 1, mask: 0b1000 });
        assert_eq!(events[3].cycle, 9);
        // Counters advanced exactly as they would without the sink.
        assert_eq!(t.counters().loads[1], 1);
        assert_eq!(t.counters().gv_updates, 1);
    }

    #[test]
    fn grant_revoke_counters() {
        let mut t = Trace::new(4);
        t.record(TraceEventKind::WayGrant { cluster: 0, lane: 0, way: 0 });
        t.record(TraceEventKind::WayRevoke { cluster: 0, way: 0 });
        assert_eq!(t.counters().grants, 1);
        assert_eq!(t.counters().revokes, 1);
    }
}
