//! # cheriot-trace — structured tracing, metrics, and profiling
//!
//! A zero-cost-when-disabled observability layer for the CHERIoT
//! simulator stack. The host machine owns an `Option<Box<Tracer>>`; every
//! emission site is one branch on that `Option`, so a machine with no
//! tracer installed pays nothing beyond the (pre-existing) branch.
//!
//! * [`event`] — the typed event vocabulary ([`TraceEvent`] /
//!   [`EventKind`]): instruction retire, traps, interrupt delivery and
//!   posture changes, compartment-switch spans, thread scheduling,
//!   allocator and quarantine activity, revoker epochs, load-filter hits.
//! * [`metrics`] — counters, log2 histograms, and per-compartment /
//!   per-thread cycle attribution derived from switch spans.
//! * [`export`] — Chrome `trace_event` JSON (for `chrome://tracing` /
//!   Perfetto), flat CSV, and a text summary table.
//! * [`json`] — the workspace's one JSON codec: a typed [`json::Json`]
//!   value, indented and one-line renderers, and a bounded parser.
//!
//! The [`Tracer`] ties these together: it forwards each emitted event to
//! the metrics registry, then keeps it in one of two buffers. Instruction
//! retires are high-volume, so only the last few stay in a bounded ring;
//! every other event joins the timeline when the timeline is on.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;

pub use event::{EventKind, TraceEvent};
pub use metrics::{DeviceActivity, Histogram, MetricsRegistry};
use std::collections::VecDeque;

/// Front-end the simulated machine talks to: metrics registry plus the
/// two event buffers.
#[derive(Debug)]
pub struct Tracer {
    /// Counters, histograms and cycle attribution (always fed).
    pub metrics: MetricsRegistry,
    /// The last `retire_depth` instruction-retire events, oldest first.
    retired: VecDeque<TraceEvent>,
    retire_depth: usize,
    /// Every other event, in emission order; `None` when the timeline is
    /// off.
    timeline: Option<Vec<TraceEvent>>,
    /// Events the two buffers accepted, including retires the ring has
    /// since evicted.
    recorded: u64,
}

impl Tracer {
    /// A tracer keeping the last `retire_depth` instruction retires and,
    /// if `timeline`, every other event. The metrics see every event
    /// either way.
    pub fn new(retire_depth: usize, timeline: bool) -> Tracer {
        Tracer {
            metrics: MetricsRegistry::new(),
            retired: VecDeque::with_capacity(retire_depth),
            retire_depth,
            timeline: timeline.then(Vec::new),
            recorded: 0,
        }
    }

    /// The classic instruction ring: the last `depth` instruction
    /// retires, no timeline.
    pub fn instr_ring(depth: usize) -> Tracer {
        Tracer::new(depth, false)
    }

    /// Every structured event except instruction retires. The right
    /// choice for Chrome-trace export of long runs.
    pub fn timeline() -> Tracer {
        Tracer::new(0, true)
    }

    /// Emit one event stamped at `cycles`. Metrics always observe it; it
    /// then goes to the retire ring or to the timeline.
    #[inline]
    pub fn emit(&mut self, cycles: u64, kind: EventKind) {
        let ev = TraceEvent { cycles, kind };
        self.metrics.observe_event(&ev);
        match (kind, &mut self.timeline) {
            (EventKind::InstrRetired { .. }, _) if self.retire_depth > 0 => {
                if self.retired.len() == self.retire_depth {
                    self.retired.pop_front();
                }
                self.retired.push_back(ev);
            }
            (EventKind::InstrRetired { .. }, _) | (_, None) => return,
            (_, Some(timeline)) => timeline.push(ev),
        }
        self.recorded += 1;
    }

    /// The timeline: every event other than instruction retires, oldest
    /// first. Empty when the timeline is off.
    pub fn events(&self) -> &[TraceEvent] {
        self.timeline.as_deref().unwrap_or_default()
    }

    /// The retire ring: the last `retire_depth` instruction retires,
    /// oldest first.
    pub fn retired(&self) -> &VecDeque<TraceEvent> {
        &self.retired
    }

    /// Total events the buffers accepted (not the number still buffered).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Close out a run: settle cycle attribution up to the machine's
    /// final cycle counter.
    pub fn finish(&mut self, cycles: u64) {
        self.metrics.settle(cycles);
    }

    /// Export the timeline as Chrome `trace_event` JSON.
    pub fn chrome_json(&self) -> String {
        export::chrome_trace_json(self.events(), &self.metrics)
    }

    /// Export the timeline as flat CSV.
    pub fn csv(&self) -> String {
        export::csv(self.events())
    }

    /// Render the metrics registry as a text summary table.
    pub fn summary(&self) -> String {
        self.metrics.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_policy_filters_instrs() {
        let mut t = Tracer::timeline();
        t.emit(1, EventKind::InstrRetired { pc: 0x1000_0000 });
        t.emit(
            2,
            EventKind::Trap {
                pc: 0x1000_0004,
                mcause: 11,
            },
        );
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.metrics.counter("instr_retired"), 1);
        assert_eq!(t.metrics.counter("trap"), 1);
    }

    #[test]
    fn instr_ring_keeps_last_n_instrs_only() {
        let mut t = Tracer::instr_ring(2);
        for i in 0..4u32 {
            t.emit(
                i as u64,
                EventKind::InstrRetired {
                    pc: 0x1000_0000 + 4 * i,
                },
            );
        }
        t.emit(9, EventKind::InterruptPosture { enabled: false });
        assert_eq!(t.retired().len(), 2);
        assert_eq!(
            t.retired()[0].kind,
            EventKind::InstrRetired { pc: 0x1000_0008 }
        );
        assert!(t.events().is_empty());
        assert_eq!(t.metrics.counter("interrupt_posture"), 1);
        assert_eq!(t.recorded(), 4);
    }

    #[test]
    fn bounded_ring_and_timeline_split_a_mixed_stream() {
        let mut t = Tracer::new(4, true);
        let mut retires = Vec::new();
        let mut others = Vec::new();
        for i in 0..10_000u32 {
            let ev = TraceEvent {
                cycles: u64::from(i),
                kind: EventKind::InstrRetired { pc: 4 * i },
            };
            t.emit(ev.cycles, ev.kind);
            retires.push(ev);
            if i % 7 == 0 {
                let ev = TraceEvent {
                    cycles: u64::from(i),
                    kind: EventKind::FilterStrip { addr: i },
                };
                t.emit(ev.cycles, ev.kind);
                others.push(ev);
            }
        }
        assert_eq!(*t.retired(), &retires[retires.len() - 4..]);
        assert_eq!(t.events(), &others[..]);
        assert_eq!(t.metrics.counter("instr_retired"), 10_000);
        assert_eq!(t.metrics.counter("filter_strip"), others.len() as u64);
        assert_eq!(t.recorded(), 10_000 + others.len() as u64);
    }
}
