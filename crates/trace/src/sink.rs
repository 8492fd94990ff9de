//! Event sinks: where recorded events go.
//!
//! A [`TraceSink`] receives every event the tracer decides to record.
//! The sinks ([`RingSink`], [`VecSink`]) keep events in memory for later
//! export.

use crate::event::TraceEvent;
use std::collections::VecDeque;

/// Destination for recorded trace events.
///
/// Sinks must be `Send`: a `Machine` (which owns its tracer) migrates
/// between pool workers when a fleet is scheduled in quanta, so every
/// sink travels with it.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Record one event.
    fn record(&mut self, ev: TraceEvent);

    /// The buffered events, oldest first.
    fn events(&self) -> Vec<TraceEvent>;

    /// Number of events this sink has accepted over its lifetime (not the
    /// number currently buffered).
    fn recorded(&self) -> u64;
}

/// Keeps the last `depth` events, evicting the oldest.
#[derive(Debug)]
pub struct RingSink {
    depth: usize,
    buf: VecDeque<TraceEvent>,
    recorded: u64,
}

impl RingSink {
    /// A ring retaining the most recent `depth` events.
    pub fn new(depth: usize) -> RingSink {
        RingSink {
            depth,
            buf: VecDeque::with_capacity(depth),
            recorded: 0,
        }
    }

    /// The ring capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: TraceEvent) {
        if self.depth == 0 {
            return;
        }
        if self.buf.len() == self.depth {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.recorded += 1;
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }
}

/// Unbounded in-memory buffer retaining every recorded event.
#[derive(Debug, Default)]
pub struct VecSink {
    buf: Vec<TraceEvent>,
}

impl VecSink {
    /// A fresh empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: TraceEvent) {
        self.buf.push(ev);
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.buf.clone()
    }

    fn recorded(&self) -> u64 {
        self.buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycles: u64, pc: u32) -> TraceEvent {
        TraceEvent {
            cycles,
            kind: EventKind::InstrRetired { pc },
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut s = RingSink::new(2);
        s.record(ev(1, 0x10));
        s.record(ev(2, 0x14));
        s.record(ev(3, 0x18));
        let evs = s.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cycles, 2);
        assert_eq!(evs[1].cycles, 3);
        assert_eq!(s.recorded(), 3);
    }
}
