//! Exporters: Chrome `trace_event` JSON, flat CSV, and the text summary.
//!
//! The Chrome format is the JSON array flavour documented for
//! `chrome://tracing` / Perfetto: compartment spans become `"B"`/`"E"`
//! duration events on one track per thread, and point events (traps,
//! allocator activity, revoker epochs, load-filter strips) become `"i"`
//! instant events on synthetic tracks. Timestamps map simulated cycles to
//! microseconds 1:1, so "1 ms" in the viewer is 1000 simulated cycles.

use crate::event::{EventKind, TraceEvent};
use crate::json::Json;
use crate::metrics::MetricsRegistry;

/// Synthetic track for machine-level point events (traps, interrupts,
/// posture changes, load-filter strips, retired instructions).
pub const TRACK_MACHINE: u32 = 0xffff;
/// Synthetic track for heap events (malloc/free/quarantine).
pub const TRACK_HEAP: u32 = 0xfffe;
/// Synthetic track for revoker epoch events.
pub const TRACK_REVOKER: u32 = 0xfffd;
/// Synthetic track for device-bus events (MMIO dispatches, DMA
/// transfers, device IRQ latches). Event names carry the device's
/// registered display name (`uart: mmio_write`).
pub const TRACK_DEVICE: u32 = 0xfffc;

/// Renders one Chrome event as a one-line JSON object. Metadata events
/// (`ph: "M"`) carry no `ts`, and the process-name event no `tid`.
fn record(name: &str, ph: &str, ts: Option<u64>, tid: Option<u32>, args: Json) -> String {
    let mut ev = Json::obj();
    ev.push("name", name).push("ph", ph);
    if let Some(ts) = ts {
        ev.push("ts", ts);
    }
    ev.push("pid", 0u64);
    if let Some(tid) = tid {
        ev.push("tid", tid);
    }
    ev.push("args", args);
    ev.render_line()
}

/// A metadata event naming the process or one track.
fn metadata(what: &str, tid: Option<u32>, name: &str) -> String {
    let mut args = Json::obj();
    args.push("name", name);
    record(what, "M", None, tid, args)
}

/// Render events as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` or Perfetto.
///
/// The registry supplies display names for compartments and threads; pass
/// a default registry if no names were registered.
pub fn chrome_trace_json(events: &[TraceEvent], metrics: &MetricsRegistry) -> String {
    let mut out: Vec<String> = Vec::with_capacity(events.len() + 8);

    // Track-name metadata. Collect the thread ids that actually appear.
    let mut tids: Vec<u32> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::CompartmentEnter { thread, .. }
            | EventKind::CompartmentExit { thread, .. }
            | EventKind::ThreadSwitch { thread, .. } => Some(thread),
            _ => None,
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();
    out.push(metadata("process_name", None, "cheriot-sim"));
    let named = tids.iter().map(|&tid| (tid, metrics.thread_name(tid)));
    let synthetic = [
        (TRACK_MACHINE, "machine"),
        (TRACK_HEAP, "heap"),
        (TRACK_REVOKER, "revoker"),
        (TRACK_DEVICE, "devices"),
    ];
    for (tid, name) in named.chain(synthetic.map(|(tid, name)| (tid, name.to_string()))) {
        out.push(metadata("thread_name", Some(tid), &name));
    }

    for ev in events {
        let (name, ph, tid) = match ev.kind {
            EventKind::CompartmentEnter { thread, to, .. } => (metrics.comp_name(to), "B", thread),
            EventKind::CompartmentExit { thread, to, .. } => (metrics.comp_name(to), "E", thread),
            EventKind::ThreadSwitch { thread, .. } => ("thread_switch".to_string(), "i", thread),
            EventKind::Malloc { .. }
            | EventKind::Claim { .. }
            | EventKind::Free { .. }
            | EventKind::QuarantinePush { .. }
            | EventKind::QuarantineRelease { .. } => (ev.kind.name().to_string(), "i", TRACK_HEAP),
            EventKind::RevokerStart { .. } | EventKind::RevokerFinish { .. } => {
                (ev.kind.name().to_string(), "i", TRACK_REVOKER)
            }
            EventKind::MmioRead { dev, .. }
            | EventKind::MmioWrite { dev, .. }
            | EventKind::DmaTransfer { dev, .. }
            | EventKind::DeviceIrq { dev, .. } => (
                format!("{}: {}", metrics.device_name(dev), ev.kind.name()),
                "i",
                TRACK_DEVICE,
            ),
            _ => (ev.kind.name().to_string(), "i", TRACK_MACHINE),
        };
        let args = Json::Obj(
            ev.kind
                .fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::UInt(v)))
                .collect(),
        );
        out.push(record(&name, ph, Some(ev.cycles), Some(tid), args));
    }

    format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n"))
}

/// Render events as a flat CSV (`cycles,event,args`) with `;`-joined
/// `key=value` args.
pub fn csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("cycles,event,args\n");
    for ev in events {
        let args: Vec<String> = ev
            .kind
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!(
            "{},{},{}\n",
            ev.cycles,
            ev.kind.name(),
            args.join(";")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycles: 5,
                kind: EventKind::ThreadSwitch {
                    thread: 0,
                    compartment: 0,
                },
            },
            TraceEvent {
                cycles: 10,
                kind: EventKind::CompartmentEnter {
                    thread: 0,
                    from: 0,
                    to: 1,
                },
            },
            TraceEvent {
                cycles: 20,
                kind: EventKind::Malloc { base: 64, size: 16 },
            },
            TraceEvent {
                cycles: 30,
                kind: EventKind::CompartmentExit {
                    thread: 0,
                    from: 0,
                    to: 1,
                },
            },
        ]
    }

    #[test]
    fn chrome_json_has_b_e_pairs_and_metadata() {
        let mut m = MetricsRegistry::new();
        m.set_comp_name(1, "alloc");
        m.set_thread_name(0, "net");
        let json = chrome_trace_json(&span_events(), &m);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"alloc\",\"ph\":\"B\",\"ts\":10"));
        assert!(json.contains("\"name\":\"alloc\",\"ph\":\"E\",\"ts\":30"));
        assert!(json.contains("\"name\":\"malloc\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"net\""));
        // Balanced B/E.
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn csv_rows() {
        let text = csv(&span_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "cycles,event,args");
        assert_eq!(lines[2], "10,compartment_enter,thread=0;from=0;to=1");
        assert_eq!(lines[3], "20,malloc,base=64;size=16");
    }
}
