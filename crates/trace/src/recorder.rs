//! The bounded ring-buffer flight recorder.
//!
//! True flight-recorder semantics: when the ring saturates the **oldest**
//! event is evicted so the window always covers the most recent activity,
//! and every eviction is accounted per [`Category`] — saturation is never
//! silent. `recorded()` (total ever emitted) minus `len()` therefore
//! always equals `dropped().total()`.

use std::collections::VecDeque;

use crate::event::{Category, EventKind, TraceEvent};

/// Per-category dropped-event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropCounts([u64; Category::COUNT]);

impl DropCounts {
    /// Dropped events in `cat`.
    pub fn of(&self, cat: Category) -> u64 {
        self.0[cat as usize]
    }

    /// Total dropped events across all categories.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(category, count)` pairs in stable category order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        Category::ALL.iter().map(move |&c| (c, self.0[c as usize]))
    }

    fn bump(&mut self, cat: Category) {
        self.0[cat as usize] += 1;
    }
}

/// A bounded ring of cycle-stamped events with exact drop accounting.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: DropCounts,
    recorded: u64,
    /// Which events are kept; the rest are neither buffered nor accounted.
    keep: fn(&EventKind) -> bool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(1 << 16)
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::keeping(capacity, |_| true)
    }

    /// [`new`](Self::new), keeping only the events `keep` accepts: any
    /// other event is neither buffered nor accounted, so a reader of a few
    /// event kinds of a long run does not lose them to the volume of the
    /// rest.
    pub fn keeping(capacity: usize, keep: fn(&EventKind) -> bool) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: DropCounts::default(),
            recorded: 0,
            keep,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Buffered events as a contiguous vector (oldest first).
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total kept events ever emitted into the recorder.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Per-category counts of events evicted by saturation.
    pub fn dropped(&self) -> &DropCounts {
        &self.dropped
    }

    /// Records one kept event, evicting (and accounting) the oldest on
    /// saturation.
    pub fn record(&mut self, event: TraceEvent) {
        if !(self.keep)(&event.kind) {
            return;
        }
        self.recorded += 1;
        if self.ring.len() >= self.capacity {
            let old = self.ring.pop_front().expect("capacity >= 1");
            self.dropped.bump(old.kind.category());
        }
        self.ring.push_back(event);
    }

    /// Clears events and drop counters.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.dropped = DropCounts::default();
        self.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, kind }
    }

    #[test]
    fn keeps_newest_and_accounts_drops_per_category() {
        let mut r = FlightRecorder::new(2);
        r.record(ev(0, EventKind::Fetch { core: 0, level: Level::L1 }));
        r.record(ev(1, EventKind::NodeStart { node: 0, core: 0 }));
        r.record(ev(2, EventKind::Load { core: 0, level: Level::L2 }));
        r.record(ev(3, EventKind::Load { core: 0, level: Level::L15 }));
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3], "window covers the newest events");
        assert_eq!(r.dropped().of(Category::Access), 1);
        assert_eq!(r.dropped().of(Category::Node), 1);
        assert_eq!(r.dropped().total(), 2);
        assert_eq!(r.recorded(), 4);
        assert_eq!(r.recorded() as usize - r.len(), r.dropped().total() as usize);
    }

    #[test]
    fn a_predicate_keeps_only_the_events_it_accepts() {
        let mut r = FlightRecorder::keeping(2, |k| k.category() == Category::Node);
        r.record(ev(0, EventKind::Fetch { core: 0, level: Level::L1 }));
        r.record(ev(1, EventKind::NodeStart { node: 0, core: 0 }));
        r.record(ev(2, EventKind::Load { core: 0, level: Level::L2 }));
        r.record(ev(3, EventKind::NodeFinish { node: 0, core: 0 }));
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 3], "only node events are kept");
        assert_eq!(r.recorded(), 2);
        assert_eq!(r.dropped().total(), 0, "ignored events are not drops");
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = FlightRecorder::new(1);
        r.record(ev(0, EventKind::Store { core: 0, via_l15: true }));
        r.record(ev(1, EventKind::Store { core: 0, via_l15: false }));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped().total(), 0);
        assert_eq!(r.recorded(), 0);
    }
}
