//! One producer per paper result.
//!
//! Each section function computes its rows once, returns the CSVs it
//! owns as [`Table`]s and its printable report; [`Section::write`] puts
//! the CSVs under `results/`. The per-section binaries and [`run_all`]
//! call the same functions, so there is exactly one writer per file.
//!
//! Every result is a pure function of the simulator configuration, so
//! independent (core model × configuration × workload) runs fan out over
//! [`cheriot_core::sched::work_steal`], which returns results in item
//! order: output is byte-identical to a sequential run regardless of
//! scheduling.

use crate::{csv_text, render_table, write_csv};
use cheriot_core::sched::work_steal;
use cheriot_core::CoreModel;
use cheriot_workloads::{
    overhead_pct, run_alloc_bench, run_coremark, AllocBenchParams, AllocConfig, CoreMarkConfig,
};
use std::fmt::Write as _;

/// Worker count for fan-outs: the machine's parallelism, so nested
/// sections don't multiply into oversubscription.
pub(crate) fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// One committed CSV: `results/<name>.csv`.
#[derive(Clone, Debug)]
pub struct Table {
    /// File stem under `results/`.
    pub name: String,
    /// Column headers.
    pub headers: &'static [&'static str],
    /// Data rows, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// The exact bytes `results/<name>.csv` holds.
    pub fn csv(&self) -> String {
        csv_text(self.headers, &self.rows)
    }

    /// The table as markdown, for the text report.
    pub fn markdown(&self) -> String {
        render_table(self.headers, &self.rows)
    }
}

/// A computed paper result: the CSVs it owns and its text report.
#[derive(Clone, Debug)]
pub struct Section {
    /// The CSVs this section (and no other) writes.
    pub tables: Vec<Table>,
    /// The printable report.
    pub report: String,
}

impl Section {
    /// Writes every table under `results/` and returns the report
    /// followed by one line per file written.
    ///
    /// # Panics
    ///
    /// If a file cannot be written: a stale committed CSV would otherwise
    /// pass the exact-results diff.
    pub fn write(self) -> String {
        let mut out = self.report;
        if !self.tables.is_empty() {
            out.push('\n');
        }
        for t in &self.tables {
            let path = write_csv(&t.name, t.headers, &t.rows)
                .unwrap_or_else(|e| panic!("failed to write results/{}.csv: {e}", t.name));
            let _ = writeln!(out, "wrote {}", path.display());
        }
        out
    }
}

/// Table 2: area and power of the Ibex variants next to the published
/// numbers, the f_max of each variant (E13) and the per-block area
/// composition of the full CHERIoT core.
pub fn table2() -> Section {
    use cheriot_hwmodel::{area_report, fmax_mhz, CoreVariant};
    const PUBLISHED: [(u64, f64); 5] = [
        (26_988, 1.437),
        (55_905, 2.16),
        (58_110, 2.58),
        (58_431, 2.58),
        (61_422, 2.73),
    ];
    let model = cheriot_hwmodel::table2();
    let table = Table {
        name: "table2_area_power".into(),
        headers: &[
            "Configuration",
            "Gates",
            "(ratio)",
            "Power(mW)",
            "(ratio)",
            "paper:Gates",
            "paper:mW",
        ],
        rows: model
            .iter()
            .zip(PUBLISHED)
            .map(|(r, (pg, pp))| {
                vec![
                    r.name.to_string(),
                    format!("{}", r.gates),
                    format!("{:.2}x", r.gate_ratio),
                    format!("{:.3}", r.power_mw),
                    format!("{:.2}x", r.power_ratio),
                    format!("{pg}"),
                    format!("{pp:.3}"),
                ]
            })
            .collect(),
    };
    let mut report = format!(
        "Table 2: Area and power costs for variants of Ibex (300 MHz, 28nm-class model)\n\n{}",
        table.markdown()
    );
    report.push_str("\nf_max (timing model; paper: all variants ~330 MHz):\n");
    for (r, v) in model.iter().zip(CoreVariant::all()) {
        let _ = writeln!(report, "  {:<26} {:.0} MHz", r.name.trim(), fmax_mhz(v));
    }
    let _ = write!(
        report,
        "\nPer-block composition (CHERIoT + load filter + revoker):\n{}",
        area_report(CoreVariant::CheriotRevoker)
    );
    Section {
        tables: vec![table],
        report,
    }
}

/// Table 3: CoreMark score and overhead per core and configuration next
/// to the published numbers, plus the +filter overhead with both modelled
/// compiler bugs fixed and the code sizes (E12).
pub fn table3() -> Section {
    const PUBLISHED: [(&str, f64, f64, f64); 2] =
        [("Flute", 2.017, 5.73, 5.73), ("Ibex", 2.086, 13.18, 21.28)];
    let configs = [
        CoreMarkConfig::baseline(),
        CoreMarkConfig::capabilities(),
        CoreMarkConfig::capabilities_with_filter(),
        CoreMarkConfig {
            quirks: false,
            ..CoreMarkConfig::capabilities_with_filter()
        },
    ];
    let cores = [CoreModel::flute(), CoreModel::ibex()];
    let runs = work_steal(cores.len() * configs.len(), pool_threads(), |i| {
        run_coremark(cores[i / configs.len()], &configs[i % configs.len()])
    });

    let mut rows = Vec::new();
    let mut fixed_lines = String::new();
    for (core_runs, (pname, pscore, pcap, pfil)) in runs.chunks(configs.len()).zip(PUBLISHED) {
        let [base, cap, fil, fixed] = core_runs else {
            unreachable!("one run per configuration")
        };
        assert_eq!(base.checksum, cap.checksum, "functional mismatch");
        assert_eq!(base.checksum, fil.checksum, "functional mismatch");
        let pct = |x: u64| (x as f64 / base.cycles as f64 - 1.0) * 100.0;
        rows.push(vec![
            format!("{pname} RV32E"),
            format!("{:.3}", base.score_per_mhz),
            "-".into(),
            format!("{pscore:.3}"),
            "-".into(),
        ]);
        rows.push(vec![
            format!("{pname} + Capabilities"),
            format!("{:.3}", cap.score_per_mhz),
            format!("{:.2}%", pct(cap.cycles)),
            "".into(),
            format!("{pcap:.2}%"),
        ]);
        rows.push(vec![
            format!("{pname} + Load filter"),
            format!("{:.3}", fil.score_per_mhz),
            format!("{:.2}%", pct(fil.cycles)),
            "".into(),
            format!("{pfil:.2}%"),
        ]);
        let _ = writeln!(
            fixed_lines,
            "  {pname}: +filter overhead {:.2}% (worst-case compiler: see table)",
            pct(fixed.cycles)
        );
    }
    let table = Table {
        name: "table3_coremark".into(),
        headers: &[
            "Configuration",
            "Score",
            "Overhead",
            "paper:Score",
            "paper:Overhead",
        ],
        rows,
    };

    // Code size (the -Oz motivation of §7.2: instruction memory costs
    // device money; the compiler bugs inflate capability code).
    use cheriot_workloads::coremark::code_size_bytes;
    let int = code_size_bytes(&CoreMarkConfig::baseline());
    let growth = |bytes: u32| (f64::from(bytes) / f64::from(int) - 1.0) * 100.0;
    let cap = code_size_bytes(&CoreMarkConfig::capabilities());
    let fixed = code_size_bytes(&CoreMarkConfig {
        quirks: false,
        ..CoreMarkConfig::capabilities()
    });
    let report = format!(
        "Table 3: CoreMark-like results (score per MHz; overhead vs RV32E)\n\n{}\n\
         With the two compiler bugs fixed (paper's expectation):\n{fixed_lines}\n\
         Code size (benchmark text, bytes):\n  \
         RV32E                      {int}\n  \
         CHERIoT (buggy compiler)   {cap}  (+{:.1}%)\n  \
         CHERIoT (fixed compiler)   {fixed}  (+{:.1}%)\n",
        table.markdown(),
        growth(cap),
        growth(fixed),
    );
    Section {
        tables: vec![table],
        report,
    }
}

/// Table 4 and Figures 5/6: one sweep per core of every allocation size
/// × temporal-safety configuration × stack high-water mark, fanned out
/// over the work-stealing pool. Table 4 is the grid's cycle counts; each
/// figure is the same grid as overheads relative to Baseline.
pub fn alloc() -> Section {
    const CELLS: usize = 8; // AllocConfig::all() × {no HWM, HWM}
    let cores = [CoreModel::flute(), CoreModel::ibex()];
    let sizes = AllocBenchParams::paper_sizes();
    let per_core = sizes.len() * CELLS;
    let grid = work_steal(cores.len() * per_core, pool_threads(), |i| {
        let cell = i % CELLS;
        run_alloc_bench(&AllocBenchParams::paper(
            cores[i / per_core],
            AllocConfig::all()[cell / 2],
            cell % 2 == 1,
            sizes[(i % per_core) / CELLS],
        ))
    });

    let mut tables = Vec::new();
    let mut reports = Vec::new();
    for ((core, figure), core_grid) in cores.iter().zip([5, 6]).zip(grid.chunks(per_core)) {
        let kind = core.kind.to_string();
        let mut cycles = Vec::new();
        let mut overheads = Vec::new();
        for (size, row) in sizes.iter().zip(core_grid.chunks(CELLS)) {
            cycles.push(
                std::iter::once(format!("{size}"))
                    .chain(row.iter().map(|r| format!("{}", r.cycles)))
                    .collect(),
            );
            // Baseline, Metadata, Software, Software(S), Hardware, Hardware(S).
            overheads.push(
                std::iter::once(format!("{size}"))
                    .chain(
                        [2, 4, 5, 6, 7].map(|c| format!("{:.1}", overhead_pct(&row[c], &row[0]))),
                    )
                    .collect(),
            );
        }
        let table4 = Table {
            name: format!("table4_alloc_cycles_{}", kind.to_lowercase()),
            headers: &[
                "size(B)",
                "Baseline",
                "Baseline(S)",
                "Metadata",
                "Metadata(S)",
                "Software",
                "Software(S)",
                "Hardware",
                "Hardware(S)",
            ],
            rows: cycles,
        };
        let fig = Table {
            name: format!("fig{figure}_alloc_{}", kind.to_lowercase()),
            headers: &[
                "size(B)",
                "Metadata%",
                "Software%",
                "Software(S)%",
                "Hardware%",
                "Hardware(S)%",
            ],
            rows: overheads,
        };
        reports.push(format!(
            "Table 4 ({kind}): cycles to allocate 1 MiB at each allocation size\n\n{}\n\
             Figure {figure}: allocator benchmark overheads relative to Baseline ({kind})\n\n{}",
            table4.markdown(),
            fig.markdown()
        ));
        tables.extend([table4, fig]);
    }
    Section {
        tables,
        report: reports.join("\n"),
    }
}

/// §7.2.3: the end-to-end IoT application, 3 simulated seconds of
/// steady state.
pub fn e2e() -> Section {
    e2e_section(&cheriot_workloads::iot::run_iot_app(&e2e_config()))
}

/// [`e2e`] with the tracing subsystem enabled: the same section plus the
/// tracer holding the run's timeline.
pub fn e2e_traced() -> (Section, Box<cheriot_core::trace::Tracer>) {
    let (r, tracer) = cheriot_workloads::iot::run_iot_app_traced(&e2e_config());
    (e2e_section(&r), tracer)
}

fn e2e_config() -> cheriot_workloads::iot::IotConfig {
    use cheriot_workloads::iot::{IotConfig, CLOCK_HZ};
    IotConfig {
        duration_cycles: 3 * CLOCK_HZ,
        ..IotConfig::default()
    }
}

fn e2e_section(r: &cheriot_workloads::iot::IotReport) -> Section {
    use cheriot_workloads::iot::CLOCK_HZ;
    let report = format!(
        "End-to-end IoT application (paper §7.2.3)\n\
         SoC: CHERIoT-Ibex @ 20 MHz, hardware revoker, stack HWM\n\n\
         simulated time      : {:.2} s\n\
         packets processed   : {}\n\
         interpreter ticks   : {}\n\
         heap allocations    : {}\n\
         revocation passes   : {}\n\
         stale caps stripped : {}\n\n\
         CPU load            : {:.1}%  (paper: 17.5%)\n\
         idle                : {:.1}%  (paper: 82.5%)\n",
        r.cycles as f64 / CLOCK_HZ as f64,
        r.packets,
        r.js_ticks,
        r.allocs,
        r.revocation_passes,
        r.filter_strips,
        r.cpu_load * 100.0,
        (1.0 - r.cpu_load) * 100.0,
    );
    Section {
        tables: Vec::new(),
        report,
    }
}

/// §3.2: bounds exactness and fragmentation by size class over a seeded
/// sample, and the 64 compressed permission encodings.
pub fn encoding() -> Section {
    use cheriot_cap::bounds::EncodedBounds;
    use cheriot_cap::perms::CompressedPerms;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const N: u32 = 20_000;
    let classes: [(u32, u32); 6] = [
        (1, 511),
        (512, 1 << 12),
        ((1 << 12) + 1, 1 << 16),
        ((1 << 16) + 1, 1 << 20),
        ((1 << 20) + 1, 1 << 22),
        ((1 << 22) + 1, (1 << 23) - (1 << 15)),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let mut rows = Vec::new();
    for (lo, hi) in classes {
        let mut exact = 0u32;
        let mut frag_sum = 0.0f64;
        for _ in 0..N {
            let len = rng.gen_range(lo..=hi);
            let base = rng.gen_range(0u32..0xc000_0000);
            let r = EncodedBounds::encode(base, u64::from(len)).expect("representable");
            if r.exact {
                exact += 1;
            }
            frag_sum += (r.decoded.length() - u64::from(len)) as f64 / f64::from(len);
        }
        rows.push(vec![
            format!("{lo}..{hi}"),
            format!("{:.1}%", 100.0 * f64::from(exact) / f64::from(N)),
            format!("{:.4}%", 100.0 * frag_sum / f64::from(N)),
        ]);
    }
    let stable = (0..64u8)
        .map(|bits| CompressedPerms::from_bits(bits).decompress())
        .filter(|p| p.compress().decompress() == *p)
        .count();
    let report = format!(
        "CHERIoT encoding quality (paper §3.2)\n\n{}\n\
         paper claim: sizes <= 511 B always exact; average fragmentation ~2^-9 = 0.195%\n\n\
         Permission formats (paper Figure 2): all 64 compressed encodings decode+re-encode stably\n\
         stable encodings: {stable}/64\n",
        render_table(&["size range (B)", "exact", "avg fragmentation"], &rows)
    );
    Section {
        tables: Vec::new(),
        report,
    }
}

/// Every section, in the order [`run_all`] prints them.
const SECTIONS: [fn() -> Section; 6] = [
    table2,
    table3,
    alloc,
    e2e,
    encoding,
    crate::ablations::ablations,
];

/// Runs every section concurrently, writes all their CSVs, and returns
/// the combined report in section order: table2, table3, alloc, e2e,
/// encoding, ablations.
pub fn run_all() -> String {
    let sections = work_steal(SECTIONS.len(), SECTIONS.len(), |i| SECTIONS[i]());
    let mut out = String::new();
    for section in sections {
        out.push_str(&section.write());
        out.push('\n');
    }
    out.push_str("all results written to results/\n");
    out
}
