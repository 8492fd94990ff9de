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
//! * [`sink`] — where events go: [`RingSink`] (last *N*) or [`VecSink`]
//!   (everything).
//! * [`metrics`] — counters, log2 histograms, and per-compartment /
//!   per-thread cycle attribution derived from switch spans.
//! * [`export`] — Chrome `trace_event` JSON (for `chrome://tracing` /
//!   Perfetto), flat CSV, and a text summary table.
//! * [`json`] — the workspace's one JSON codec: a typed [`json::Json`]
//!   value, indented and one-line renderers, and a bounded parser.
//!
//! The [`Tracer`] ties these together: it forwards each emitted event to
//! the metrics registry, then to the sink according to its recording
//! policy (instruction-retire events are high-volume and can be buffered
//! or merely counted).

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{EventKind, TraceEvent};
pub use metrics::{DeviceActivity, Histogram, MetricsRegistry};
pub use sink::{RingSink, TraceSink, VecSink};

/// Front-end the simulated machine talks to: recording policy + metrics
/// registry + sink.
#[derive(Debug)]
pub struct Tracer {
    sink: Box<dyn TraceSink>,
    /// Counters, histograms and cycle attribution (always fed).
    pub metrics: MetricsRegistry,
    /// Buffer instruction-retire events in the sink? They dominate event
    /// volume, so timeline traces usually leave them out (the metrics
    /// instruction counter still advances).
    record_instrs: bool,
    /// Buffer everything that is not an instruction-retire event?
    record_others: bool,
}

impl Tracer {
    /// A tracer with an explicit sink and recording policy.
    pub fn with_sink(sink: Box<dyn TraceSink>, record_instrs: bool, record_others: bool) -> Tracer {
        Tracer {
            sink,
            metrics: MetricsRegistry::new(),
            record_instrs,
            record_others,
        }
    }

    /// Compat configuration for the classic instruction ring: keep the
    /// last `depth` instruction-retire events, drop everything else from
    /// the sink.
    pub fn instr_ring(depth: usize) -> Tracer {
        Tracer::with_sink(Box::new(RingSink::new(depth)), true, false)
    }

    /// Timeline configuration: buffer every structured event except
    /// instruction retires. The right choice for Chrome-trace export of
    /// long runs.
    pub fn timeline() -> Tracer {
        Tracer::with_sink(Box::new(VecSink::new()), false, true)
    }

    /// Emit one event stamped at `cycles`. Metrics always observe it; the
    /// sink receives it subject to the recording policy.
    #[inline]
    pub fn emit(&mut self, cycles: u64, kind: EventKind) {
        let ev = TraceEvent { cycles, kind };
        self.metrics.observe_event(&ev);
        let record = match kind {
            EventKind::InstrRetired { .. } => self.record_instrs,
            _ => self.record_others,
        };
        if record {
            self.sink.record(ev);
        }
    }

    /// The sink's buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.sink.events()
    }

    /// Total events the sink accepted (not the number still buffered).
    pub fn recorded(&self) -> u64 {
        self.sink.recorded()
    }

    /// Close out a run: settle cycle attribution up to the machine's
    /// final cycle counter.
    pub fn finish(&mut self, cycles: u64) {
        self.metrics.settle(cycles);
    }

    /// Export the buffered events as Chrome `trace_event` JSON.
    pub fn chrome_json(&self) -> String {
        export::chrome_trace_json(&self.events(), &self.metrics)
    }

    /// Export the buffered events as flat CSV.
    pub fn csv(&self) -> String {
        export::csv(&self.events())
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
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::InstrRetired { pc: 0x1000_0008 });
        assert_eq!(t.metrics.counter("interrupt_posture"), 1);
    }
}
