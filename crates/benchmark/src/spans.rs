//! Spans the traced pass records around the benchmark's own calls into
//! each layer's public functions. The program itself carries no
//! instrumentation; a span here brackets one call made from this crate.
//!
//! Spans stay in memory (name, start, end, parent, unit id) and can be
//! written once at exit as Chrome trace-event JSON through the shared
//! typed writer, [`cheriot_fault::json::Json`].

use crate::clock;
use cheriot_fault::json::Json;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One closed or open span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `snapshot.restore`.
    pub name: &'static str,
    /// [`clock::wall_ns`] at entry.
    pub start_ns: u64,
    /// [`clock::wall_ns`] at exit (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The work item the span belongs to (seed, device or round).
    pub unit: u64,
}

/// Handle to an open span, returned by [`Tracer::open`].
#[derive(Clone, Copy, Debug)]
#[must_use = "an open span must be closed"]
pub struct SpanId(u32);

/// Span recorder with per-name totals kept as spans close.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u64,
    /// name -> (closed spans, total nanoseconds).
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let now = clock::wall_ns();
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, and returns
    /// its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = clock::wall_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        let dur = now - span.start_ns;
        let total = self.totals.entry(span.name).or_default();
        total.0 += 1;
        total.1 += dur;
        dur
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Closed spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    /// Total nanoseconds inside closed spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Mean nanoseconds per closed span named `name` (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        crate::stats::ratio(self.total_ns(name) as f64, self.count(name) as f64)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a Chrome trace-event file (`ph: "X"`
    /// complete events; `ts`/`dur` in whole microseconds, the exact
    /// nanosecond bounds in `args`). Events are rendered one at a time so
    /// a large trace never exists as one in-memory document.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = Json::obj();
            args.push("unit", s.unit)
                .push("parent", s.parent.map_or(Json::Null, Json::from))
                .push("start_ns", s.start_ns)
                .push("end_ns", s.end_ns);
            let mut ev = Json::obj();
            ev.push("name", s.name)
                .push("cat", "bench")
                .push("ph", "X")
                .push("ts", s.start_ns / 1000)
                .push("dur", (s.end_ns - s.start_ns) / 1000)
                .push("pid", 1u64)
                .push("tid", 1u64)
                .push("args", args);
            if i > 0 {
                out.write_all(b",")?;
            }
            out.write_all(ev.render().as_bytes())?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}
