//! The sink abstraction instrumented crates emit into.
//!
//! Instrumentation points hold a `Box<dyn TraceSink>` that defaults to
//! [`NullSink`]. Hot paths are expected to guard event *construction*
//! with [`TraceSink::enabled`] — a constant per sink, which an owner may
//! read once when the sink is attached (`l15-soc`'s monitor does), so an
//! untraced run pays one field test per event — the traced-vs-untraced
//! parity contract then reduces to "sinks only observe".

use std::any::Any;
use std::fmt;

use crate::event::TraceEvent;

/// Receives cycle-stamped events from instrumentation points.
pub trait TraceSink: fmt::Debug + Send {
    /// Whether the sink wants events at all. Emitters check this before
    /// constructing an event, so a [`NullSink`] costs one branch.
    fn enabled(&self) -> bool;

    /// Consumes one event.
    fn emit(&mut self, event: TraceEvent);

    /// Clones the sink behind the box (lets owners stay `Clone`).
    fn clone_box(&self) -> Box<dyn TraceSink>;

    /// Upcast for recovery of a concrete sink after a run.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// Shared-reference upcast (inspection without detaching).
    fn as_any(&self) -> &dyn Any;
}

impl Clone for Box<dyn TraceSink> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The default sink: discards everything and reports itself disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: TraceEvent) {}

    fn clone_box(&self) -> Box<dyn TraceSink> {
        Box::new(NullSink)
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Level};

    #[test]
    fn null_sink_is_disabled_and_cloneable() {
        let mut sink: Box<dyn TraceSink> = Box::new(NullSink);
        assert!(!sink.enabled());
        sink.emit(TraceEvent { cycle: 1, kind: EventKind::Fetch { core: 0, level: Level::L1 } });
        let clone = sink.clone();
        assert!(!clone.enabled());
        assert!(sink.into_any().downcast::<NullSink>().is_ok());
    }
}
