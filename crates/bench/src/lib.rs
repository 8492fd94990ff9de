//! # cheriot-bench — evaluation harness
//!
//! Every result of the paper's evaluation (§7) is one function in
//! [`harness`] (or [`ablations`]) that computes its rows, owns its CSVs
//! and returns its text report. Each binary prints one section, and
//! `all_results` runs all six in a fixed order:
//!
//! | binary | section | regenerates |
//! |--------|---------|-------------|
//! | `table2_area_power` | [`harness::table2`] | Table 2: area, power and f_max of Ibex variants |
//! | `table3_coremark` | [`harness::table3`] | Table 3: CoreMark/MHz for both cores, code size |
//! | `table4_alloc_cycles` | [`harness::alloc`] | Table 4 and Figures 5/6: allocator cycles and overheads |
//! | `e2e_iot_app` | [`harness::e2e`] | §7.2.3: end-to-end IoT application CPU load |
//! | `encoding_precision` | [`harness::encoding`] | §3.2 encoding claims (precision, fragmentation) |
//! | `ablations` | [`ablations::ablations`] | DESIGN.md E9: design-choice ablations in simulated counts |
//!
//! Every value is a deterministic simulated count or a model output, so
//! the committed `results/*.csv` are exact: CI regenerates them and
//! diffs. `sim_throughput` and `farm_throughput` time the host instead.

#![warn(missing_docs)]

pub mod ablations;
pub mod baseline;
pub mod harness;

use std::fmt::Write as _;
use std::time::Instant;

/// On-CPU seconds this process has consumed, from the first field of
/// Linux's `/proc/self/schedstat` (nanosecond resolution, excludes time
/// stolen by other tenants of a shared host). Falls back to wall-clock
/// time since `epoch` where the file is unavailable. The throughput
/// benchmarks time single-threaded loops, so process time and loop time
/// coincide.
pub fn cpu_now(epoch: Instant) -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .unwrap_or_else(|| epoch.elapsed().as_secs_f64())
}

/// Renders a markdown-style table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let _ = write!(out, "|");
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(out, " {:>w$} |", c, w = widths[i.min(widths.len() - 1)]);
        }
        let _ = writeln!(out);
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, &sep);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// The CSV text of a table: a header line, then one line per row.
pub fn csv_text(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    body
}

/// Writes CSV rows to `results/<name>.csv` (creating the directory),
/// returning the path written.
///
/// # Errors
///
/// I/O errors from creating the directory or writing the file.
pub fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, csv_text(headers, rows))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(t.contains("| long-name |"));
        assert_eq!(t.lines().count(), 4);
    }
}
