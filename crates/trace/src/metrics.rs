//! Metrics registry: counters, cycle histograms, and per-compartment /
//! per-thread cycle attribution derived from compartment-switch spans.
//!
//! The registry observes every emitted event (including ones the tracer
//! does not buffer) and maintains:
//!
//! * a counter per event type plus derived counters (`bytes_allocated`,
//!   `bytes_freed`, `bytes_quarantined`),
//! * log2-bucketed histograms (`malloc_bytes`, `span_cycles`),
//! * per-compartment and per-thread attributed cycle totals.
//!
//! Attribution model: the machine has one clock and runs one thread at a
//! time, so elapsed cycles between consecutive scheduling/span events are
//! charged to the compartment on top of the current thread's span stack
//! (or the thread's base compartment when the stack is empty). Cycles
//! observed before the first scheduling event are left unattributed.

use crate::event::{EventKind, TraceEvent};
use std::collections::BTreeMap;

/// Compartment index used when a span's owner is unknown.
pub const UNKNOWN: u32 = u32::MAX;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value needs `i` significant bits
/// (bucket 0 holds zeros, bucket 1 holds `1`, bucket 2 holds `2..=3`, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one: bucket-wise counts add,
    /// sums saturate, the max is the max of both. Used when aggregating
    /// per-worker registries across a fleet.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }
}

/// One open compartment span on a thread's stack.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    compartment: u32,
    entered: u64,
}

/// Per-thread attribution state.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Stack of open compartment spans (callee compartment ids).
    stack: Vec<OpenSpan>,
    /// Compartment the thread runs in when no span is open.
    base: u32,
}

/// Per-device bus-activity totals, accumulated from `MmioRead` /
/// `MmioWrite` / `DmaTransfer` / `DeviceIrq` events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceActivity {
    /// MMIO reads dispatched to the device.
    pub reads: u64,
    /// MMIO writes dispatched to the device.
    pub writes: u64,
    /// Bytes the device stored into guest memory via DMA.
    pub dma_bytes: u64,
    /// Interrupt lines the device latched pending.
    pub irqs: u64,
}

/// Counters, histograms, and span-derived cycle attribution.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Instructions retired (kept out of the BTreeMap: this is bumped once
    /// per instruction on the hot path while tracing is enabled).
    instr_retired: u64,
    comp_cycles: BTreeMap<u32, u64>,
    thread_cycles: BTreeMap<u32, u64>,
    comp_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<u32, String>,
    device_names: BTreeMap<u32, String>,
    devices: BTreeMap<u32, DeviceActivity>,
    threads: BTreeMap<u32, ThreadState>,
    /// Currently running thread, if a scheduling event has been seen.
    current_thread: Option<u32>,
    /// Timestamp of the last attribution-relevant event.
    last_ts: u64,
    /// Cycles that elapsed before the first scheduling event.
    unattributed: u64,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register a display name for a compartment index.
    pub fn set_comp_name(&mut self, id: u32, name: &str) {
        self.comp_names.insert(id, name.to_string());
    }

    /// Register a display name for a thread index.
    pub fn set_thread_name(&mut self, id: u32, name: &str) {
        self.thread_names.insert(id, name.to_string());
    }

    /// Register a display name for a device-bus id.
    pub fn set_device_name(&mut self, id: u32, name: &str) {
        self.device_names.insert(id, name.to_string());
    }

    /// Display name for a device (falls back to `dev<id>`).
    pub fn device_name(&self, id: u32) -> String {
        self.device_names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("dev{id}"))
    }

    /// Per-device bus-activity totals, sorted by device id.
    pub fn device_activity(&self) -> Vec<(u32, DeviceActivity)> {
        self.devices.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Display name for a compartment (falls back to `comp<id>`).
    pub fn comp_name(&self, id: u32) -> String {
        match self.comp_names.get(&id) {
            Some(n) => n.clone(),
            None if id == UNKNOWN => "(unknown)".to_string(),
            None => format!("comp{id}"),
        }
    }

    /// Display name for a thread (falls back to `thread<id>`).
    pub fn thread_name(&self, id: u32) -> String {
        self.thread_names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("thread{id}"))
    }

    /// Value of a named counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        if name == "instr_retired" {
            return self.instr_retired;
        }
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Add `n` to a named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Record a sample in a named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// A named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name (instruction count included).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        if self.instr_retired > 0 {
            out.push(("instr_retired".to_string(), self.instr_retired));
        }
        out.sort();
        out
    }

    /// Attributed cycles per compartment, sorted descending by cycles.
    pub fn compartment_cycles(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.comp_cycles.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Attributed cycles per thread, sorted descending by cycles.
    pub fn thread_cycles(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.thread_cycles.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Cycles that elapsed before the first scheduling event (plus any the
    /// caller never settled with [`MetricsRegistry::settle`]).
    pub fn unattributed_cycles(&self) -> u64 {
        self.unattributed
    }

    /// Total attributed cycles across all compartments.
    pub fn attributed_cycles(&self) -> u64 {
        self.comp_cycles.values().sum()
    }

    /// Charge elapsed cycles since the last attribution event to the
    /// currently-running compartment/thread.
    fn charge(&mut self, now: u64) {
        let elapsed = now.saturating_sub(self.last_ts);
        self.last_ts = now;
        if elapsed == 0 {
            return;
        }
        match self.current_thread {
            None => self.unattributed += elapsed,
            Some(tid) => {
                let st = self.threads.entry(tid).or_default();
                let comp = st.stack.last().map(|s| s.compartment).unwrap_or(st.base);
                *self.comp_cycles.entry(comp).or_insert(0) += elapsed;
                *self.thread_cycles.entry(tid).or_insert(0) += elapsed;
            }
        }
    }

    /// Close out attribution at the end of a run: charge the tail interval
    /// up to `now` (the machine's final cycle counter).
    pub fn settle(&mut self, now: u64) {
        self.charge(now);
    }

    /// Charge `cycles` directly to a compartment, bypassing the span
    /// state machine. Host-side schedulers (the device farm) use this to
    /// attribute whole run quanta they classified themselves — per-event
    /// tracing on thousands of instances would cost more than the
    /// simulation — while still aggregating into the same per-compartment
    /// table the span-derived attribution feeds.
    pub fn charge_compartment(&mut self, comp: u32, cycles: u64) {
        *self.comp_cycles.entry(comp).or_insert(0) += cycles;
    }

    /// Charge `cycles` directly to a thread (see
    /// [`MetricsRegistry::charge_compartment`]).
    pub fn charge_thread(&mut self, thread: u32, cycles: u64) {
        *self.thread_cycles.entry(thread).or_insert(0) += cycles;
    }

    /// Folds a settled registry into this one: counters, histograms,
    /// instruction counts, device activity, and attributed cycle tables
    /// add; display names fill gaps (existing names win). The in-flight
    /// span state machine (`threads`, `current_thread`, `last_ts`) is
    /// deliberately *not* merged — call [`MetricsRegistry::settle`] on
    /// `other` first so everything observable has landed in the tables.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        self.instr_retired += other.instr_retired;
        for (id, cyc) in &other.comp_cycles {
            *self.comp_cycles.entry(*id).or_insert(0) += cyc;
        }
        for (id, cyc) in &other.thread_cycles {
            *self.thread_cycles.entry(*id).or_insert(0) += cyc;
        }
        for (id, a) in &other.devices {
            let d = self.devices.entry(*id).or_default();
            d.reads += a.reads;
            d.writes += a.writes;
            d.dma_bytes += a.dma_bytes;
            d.irqs += a.irqs;
        }
        for (id, name) in &other.comp_names {
            self.comp_names.entry(*id).or_insert_with(|| name.clone());
        }
        for (id, name) in &other.thread_names {
            self.thread_names.entry(*id).or_insert_with(|| name.clone());
        }
        for (id, name) in &other.device_names {
            self.device_names.entry(*id).or_insert_with(|| name.clone());
        }
        self.unattributed += other.unattributed;
    }

    /// Observe one emitted event: bump counters, feed histograms, and
    /// advance the attribution state machine.
    pub fn observe_event(&mut self, ev: &TraceEvent) {
        if let EventKind::InstrRetired { .. } = ev.kind {
            self.instr_retired += 1;
            return;
        }
        *self.counters.entry(ev.kind.name()).or_insert(0) += 1;
        match ev.kind {
            EventKind::ThreadSwitch {
                thread,
                compartment,
            } => {
                self.charge(ev.cycles);
                self.current_thread = Some(thread);
                self.threads.entry(thread).or_default().base = compartment;
            }
            EventKind::CompartmentEnter { thread, from, to } => {
                self.charge(ev.cycles);
                if self.current_thread.is_none() {
                    // Single-threaded run with no scheduler: adopt the
                    // calling thread so spans still attribute.
                    self.current_thread = Some(thread);
                }
                let st = self.threads.entry(thread).or_default();
                if st.stack.is_empty() {
                    st.base = from;
                }
                st.stack.push(OpenSpan {
                    compartment: to,
                    entered: ev.cycles,
                });
            }
            EventKind::CompartmentExit { thread, .. } => {
                self.charge(ev.cycles);
                let popped = self.threads.entry(thread).or_default().stack.pop();
                if let Some(span) = popped {
                    self.observe("span_cycles", ev.cycles.saturating_sub(span.entered));
                }
            }
            EventKind::Malloc { size, .. } => {
                self.add("bytes_allocated", size as u64);
                self.observe("malloc_bytes", size as u64);
            }
            EventKind::Free { size, .. } => {
                self.add("bytes_freed", size as u64);
            }
            EventKind::QuarantinePush { size, .. } => {
                self.add("bytes_quarantined", size as u64);
            }
            EventKind::MmioRead { dev, .. } => {
                self.devices.entry(dev).or_default().reads += 1;
            }
            EventKind::MmioWrite { dev, .. } => {
                self.devices.entry(dev).or_default().writes += 1;
            }
            EventKind::DmaTransfer { dev, len, .. } => {
                self.devices.entry(dev).or_default().dma_bytes += len as u64;
                self.add("dma_bytes", len as u64);
            }
            EventKind::DeviceIrq { dev, .. } => {
                self.devices.entry(dev).or_default().irqs += 1;
            }
            _ => {}
        }
    }

    /// Render the registry as a fixed-width text summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("== metrics summary ==\n");

        out.push_str("\n-- event counters --\n");
        let counters = self.counters();
        if counters.is_empty() {
            out.push_str("(no events)\n");
        }
        for (name, v) in &counters {
            out.push_str(&format!("{name:<24} {v:>12}\n"));
        }

        let comp = self.compartment_cycles();
        if !comp.is_empty() {
            let total: u64 = self.attributed_cycles() + self.unattributed;
            out.push_str("\n-- cycles by compartment --\n");
            for (id, cyc) in &comp {
                let pct = if total > 0 {
                    *cyc as f64 * 100.0 / total as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:<24} {:>12} {:>6.1}%\n",
                    self.comp_name(*id),
                    cyc,
                    pct
                ));
            }
            if self.unattributed > 0 {
                let pct = self.unattributed as f64 * 100.0 / total as f64;
                out.push_str(&format!(
                    "{:<24} {:>12} {:>6.1}%\n",
                    "(unattributed)", self.unattributed, pct
                ));
            }
        }

        let threads = self.thread_cycles();
        if !threads.is_empty() {
            out.push_str("\n-- cycles by thread --\n");
            for (id, cyc) in &threads {
                out.push_str(&format!("{:<24} {:>12}\n", self.thread_name(*id), cyc));
            }
        }

        if !self.devices.is_empty() {
            out.push_str("\n-- device activity --\n");
            out.push_str(&format!(
                "{:<24} {:>8} {:>8} {:>10} {:>6}\n",
                "device", "reads", "writes", "dma_bytes", "irqs"
            ));
            for (id, a) in self.device_activity() {
                out.push_str(&format!(
                    "{:<24} {:>8} {:>8} {:>10} {:>6}\n",
                    self.device_name(id),
                    a.reads,
                    a.writes,
                    a.dma_bytes,
                    a.irqs
                ));
            }
        }

        let mut hist_names: Vec<&&'static str> = self.histograms.keys().collect();
        hist_names.sort();
        for name in hist_names {
            let h = &self.histograms[*name];
            out.push_str(&format!(
                "\n-- histogram: {} (n={}, mean={:.1}, max={}) --\n",
                name,
                h.count(),
                h.mean(),
                h.max()
            ));
            for (lo, n) in h.nonzero_buckets() {
                out.push_str(&format!(">= {lo:<12} {n:>12}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycles: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycles, kind }
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    fn attribution_follows_span_stack() {
        let mut m = MetricsRegistry::new();
        m.set_comp_name(0, "app");
        m.set_comp_name(1, "alloc");
        // thread 0 scheduled at cycle 10, in compartment 0.
        m.observe_event(&ev(
            10,
            EventKind::ThreadSwitch {
                thread: 0,
                compartment: 0,
            },
        ));
        // runs app until cycle 100, then calls into alloc until 150.
        m.observe_event(&ev(
            100,
            EventKind::CompartmentEnter {
                thread: 0,
                from: 0,
                to: 1,
            },
        ));
        m.observe_event(&ev(
            150,
            EventKind::CompartmentExit {
                thread: 0,
                from: 0,
                to: 1,
            },
        ));
        m.settle(200);
        let comp: BTreeMap<u32, u64> = m.compartment_cycles().into_iter().collect();
        assert_eq!(comp[&0], 90 + 50); // 10..100 plus 150..200
        assert_eq!(comp[&1], 50); // 100..150
        assert_eq!(m.unattributed_cycles(), 10); // 0..10 pre-schedule
        assert_eq!(m.thread_cycles(), vec![(0, 190)]);
        assert_eq!(m.attributed_cycles() + m.unattributed_cycles(), 200);
    }

    #[test]
    fn direct_charge_and_merge_aggregate_across_registries() {
        let mut fleet = MetricsRegistry::new();
        fleet.set_comp_name(1, "net");
        fleet.charge_compartment(1, 100);
        fleet.charge_thread(0, 100);

        let mut worker = MetricsRegistry::new();
        worker.set_comp_name(1, "netstack"); // loses: fleet named it first
        worker.set_comp_name(2, "mqtt");
        worker.charge_compartment(1, 50);
        worker.charge_compartment(2, 25);
        worker.add("frames_routed", 7);
        worker.observe("quantum_cycles", 4096);
        worker.observe_event(&ev(1, EventKind::Malloc { base: 0, size: 32 }));

        fleet.merge(&worker);
        let comp: BTreeMap<u32, u64> = fleet.compartment_cycles().into_iter().collect();
        assert_eq!(comp[&1], 150);
        assert_eq!(comp[&2], 25);
        assert_eq!(fleet.comp_name(1), "net");
        assert_eq!(fleet.comp_name(2), "mqtt");
        assert_eq!(fleet.counter("frames_routed"), 7);
        assert_eq!(fleet.counter("malloc"), 1);
        assert_eq!(fleet.histogram("quantum_cycles").unwrap().count(), 1);
        assert_eq!(fleet.attributed_cycles(), 175);

        // Merging twice doubles — merge is additive, not idempotent.
        fleet.merge(&worker);
        assert_eq!(fleet.counter("frames_routed"), 14);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::default();
        a.record(1);
        a.record(1024);
        let mut b = Histogram::default();
        b.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 1024);
        assert_eq!(a.sum(), 1 + 1024 + 1 + 3);
        assert_eq!(a.nonzero_buckets(), vec![(1, 2), (2, 1), (1024, 1)]);
    }

    #[test]
    fn allocator_counters() {
        let mut m = MetricsRegistry::new();
        m.observe_event(&ev(1, EventKind::Malloc { base: 0, size: 48 }));
        m.observe_event(&ev(2, EventKind::Free { base: 0, size: 48 }));
        m.observe_event(&ev(
            2,
            EventKind::QuarantinePush {
                chunk: 0,
                size: 56,
                epoch: 4,
            },
        ));
        assert_eq!(m.counter("malloc"), 1);
        assert_eq!(m.counter("bytes_allocated"), 48);
        assert_eq!(m.counter("bytes_quarantined"), 56);
        assert_eq!(m.histogram("malloc_bytes").unwrap().count(), 1);
        let s = m.summary();
        assert!(s.contains("malloc"));
        assert!(s.contains("bytes_allocated"));
    }
}
