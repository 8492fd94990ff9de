//! Printed output: a table per run, and the one-line JSON result that
//! closes standard output.

use crate::stats::{median, quartiles};
use crate::{Measured, MetricDef, Traced, Workload, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// One summarized metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The metric.
    pub def: MetricDef,
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

fn row(def: MetricDef, xs: &[f64]) -> Row {
    let (q1, q3) = quartiles(xs);
    Row {
        def,
        median: median(xs),
        q1,
        q3,
        n: xs.len(),
    }
}

/// Every end-to-end metric of an untraced run, in [`END_TO_END`] order.
pub fn e2e_rows(m: &Measured) -> Vec<Row> {
    let [throughput, setup, rss] = END_TO_END;
    vec![
        row(throughput, &m.throughput),
        row(setup, &m.setup_s),
        row(rss, &[m.peak_rss_mb]),
    ]
}

/// The table of an untraced run.
pub fn e2e_table(w: Workload, seed: u64, m: &Measured, rows: &[Row]) -> String {
    let mut s = format!(
        "== {} (seed {seed}): {} units checked, {} failed, sim_digest {:#018x}; \
         throughput item = {} ==\n",
        w.name(),
        m.attempted,
        m.failed,
        m.digest.unwrap_or(0),
        w.item()
    );
    let _ = writeln!(
        s,
        "{:<14} {:<12} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<14} {:<12} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            r.def.name, r.def.unit, r.median, r.q1, r.q3, r.n
        );
    }
    let raw: Vec<f64> = m
        .throughput
        .iter()
        .zip(&m.host_speed)
        .map(|(t, h)| t * h)
        .collect();
    let _ = writeln!(
        s,
        "host speed {:.4} of reference (median of {}); raw throughput {:.6} items/cpu-s",
        median(&m.host_speed),
        m.host_speed.len(),
        median(&raw)
    );
    for f in &m.failures {
        let _ = writeln!(s, "FAILED: {f}");
    }
    s
}

/// The table of a traced run; layers the workload does not reach print
/// as `-`.
pub fn layer_table(w: Workload, seed: u64, t: &Traced) -> String {
    let mut s = format!(
        "== {} (seed {seed}) traced: {} cross-checks passed ==\n",
        w.name(),
        t.checks
    );
    for d in PER_LAYER {
        match t.layers.get(d.name) {
            Some(v) => {
                let _ = writeln!(s, "{:<32} {:<6} {v:>16.6}", d.name, d.unit);
            }
            None => {
                let _ = writeln!(s, "{:<32} {:<6} {:>16}", d.name, d.unit, "-");
            }
        }
    }
    s
}

/// The closing result line:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": .., "unit": ..}}}`. Written directly because the shared
/// typed writer (`cheriot_fault::json`) renders integers only and over
/// several lines, while this line carries measured floats on one line.
/// Names and units are fixed identifiers that need no escaping.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The result line of an untraced run.
pub fn e2e_result(m: &Measured, rows: &[Row]) -> String {
    let metrics: Vec<(MetricDef, f64)> = rows.iter().map(|r| (r.def, r.median)).collect();
    result_line(m.failed == 0, m.attempted, m.failed, &metrics)
}

/// The result line of a traced run: every [`PER_LAYER`] metric, 0 where
/// the workload does not reach the layer.
pub fn layer_result(t: &Traced) -> String {
    let metrics: Vec<(MetricDef, f64)> = PER_LAYER
        .iter()
        .map(|d| (*d, t.layers.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    result_line(true, t.checks.max(1), 0, &metrics)
}
