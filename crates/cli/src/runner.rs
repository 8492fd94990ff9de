//! Drives a parsed program on a configured machine.

use crate::parser::{parse_program, ParseError};
use cheriot_core::encoding::DecodeError;
use cheriot_core::insn::{Instr, Reg};
use cheriot_core::trace::{EventKind, Tracer};
use cheriot_core::{CoreKind, CoreModel, ExitReason, Machine, MachineConfig, SimError};
use std::fmt::Write as _;

/// Anything that can stop a `cheriot-sim run` before it produces an
/// outcome. Each variant carries the structured error from the layer that
/// rejected the input — nothing in this path panics.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The assembly source did not parse.
    Parse(ParseError),
    /// The machine-code words did not decode (`--binary`).
    Decode(DecodeError),
    /// The simulator refused the program (e.g. it overflows code memory).
    Sim(SimError),
    /// The machine manifest (`--machine`) could not be read, parsed, or
    /// built.
    Manifest(cheriot_soc::ManifestError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "{e}"),
            RunError::Decode(e) => write!(f, "{e}"),
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ParseError> for RunError {
    fn from(e: ParseError) -> RunError {
        RunError::Parse(e)
    }
}

impl From<DecodeError> for RunError {
    fn from(e: DecodeError) -> RunError {
        RunError::Decode(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> RunError {
        RunError::Sim(e)
    }
}

/// Options for `cheriot-sim run`.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Core model to simulate.
    pub core: CoreKind,
    /// Enable the temporal-safety load filter.
    pub load_filter: bool,
    /// Execute through the predecoded basic-block cache
    /// (architecturally invisible; `--no-block-cache` forces the
    /// per-instruction stepwise loop).
    pub block_cache: bool,
    /// Chain predecoded blocks directly: successor links, superblocks
    /// and the unchecked fast-stream loop (architecturally invisible;
    /// `--no-block-chain` returns to the dispatcher between blocks).
    pub block_chain: bool,
    /// Keep the last N retired instructions for the post-run trace.
    pub trace_depth: usize,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Dump the register file after the run.
    pub dump_regs: bool,
    /// Provide the semihosted heap service (`ecall` ABI of
    /// `cheriot_rtos::semihost`).
    pub heap: bool,
    /// Write a Chrome `trace_event` JSON timeline of the run here
    /// (loadable in `chrome://tracing` / Perfetto).
    pub trace_out: Option<std::path::PathBuf>,
    /// Append the metrics summary table to the report.
    pub metrics: bool,
    /// Copy-on-write page store for SRAM (architecturally invisible;
    /// `--no-cow` keeps pages uniquely owned and deep-copies on
    /// snapshot/fork — the pre-CoW cost model).
    pub cow: bool,
    /// Abort with [`ExitReason::Watchdog`] if any single `run` slice
    /// retires this many instructions without exiting.
    pub watchdog: Option<u64>,
    /// Build the machine from this SoC manifest (TOML or JSON,
    /// `cheriot_soc::MachineSpec`) instead of the default platform. The
    /// manifest's core selection overrides `--core`; the dispatch-mode
    /// flags still apply.
    pub machine: Option<std::path::PathBuf>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            core: CoreKind::Ibex,
            load_filter: true,
            block_cache: true,
            block_chain: true,
            trace_depth: 0,
            max_cycles: 100_000_000,
            dump_regs: false,
            heap: false,
            trace_out: None,
            metrics: false,
            cow: true,
            watchdog: None,
            machine: None,
        }
    }
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Why execution stopped.
    pub exit: ExitReason,
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The human-readable report (trace, registers, console).
    pub report: String,
}

/// Parses and runs `src`.
///
/// # Errors
///
/// Parse errors from the assembler dialect, or a [`SimError`] when the
/// simulator rejects the program.
pub fn run_source(src: &str, opts: &RunOptions) -> Result<RunOutcome, RunError> {
    let prog = parse_program(src)?;
    run_instructions(&prog, opts)
}

/// Runs a pre-decoded machine-code program (`cheriot-sim run --binary`).
///
/// # Errors
///
/// Decode errors from the word stream, or a [`SimError`] when the
/// simulator rejects the program.
pub fn run_words(words: &[u32], opts: &RunOptions) -> Result<RunOutcome, RunError> {
    let prog = cheriot_core::encoding::decode_program(words)?;
    run_instructions(&prog, opts)
}

fn run_instructions(prog: &[Instr], opts: &RunOptions) -> Result<RunOutcome, RunError> {
    let mut m = match &opts.machine {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                RunError::Manifest(cheriot_soc::ManifestError {
                    msg: format!("{}: {e}", path.display()),
                    line: None,
                })
            })?;
            cheriot_soc::MachineSpec::parse(&text)
                .and_then(|spec| spec.build())
                .map_err(RunError::Manifest)?
        }
        None => Machine::new(MachineConfig::new(CoreModel::of(opts.core))),
    };
    m.cfg.load_filter = opts.load_filter;
    m.cfg.block_cache = opts.block_cache;
    m.cfg.block_chain = opts.block_chain;
    if !opts.cow {
        // The machine (default or manifest-built) exists by now, so the
        // mode switch goes through set_cow, which also updates cfg.cow.
        m.set_cow(false);
    }
    if opts.trace_out.is_some() || opts.metrics {
        // One tracer serves all three outputs; buffer instruction retires
        // only when the post-run instruction trace also needs them.
        m.set_tracer(Tracer::with_sink(
            Box::new(cheriot_core::trace::VecSink::new()),
            opts.trace_depth > 0,
            true,
        ));
    } else if opts.trace_depth > 0 {
        m.set_tracer(Tracer::instr_ring(opts.trace_depth));
    }
    let entry = m.try_load_program(prog)?;
    m.set_entry(entry);
    m.set_watchdog(opts.watchdog);
    let exit = if opts.heap {
        let mut heap = cheriot_alloc::HeapAllocator::new(
            &mut m,
            cheriot_alloc::TemporalPolicy::Quarantine(cheriot_alloc::RevokerKind::Hardware),
        );
        cheriot_rtos::semihost::run_with_heap_service(&mut m, &mut heap, opts.max_cycles)
    } else {
        m.run(opts.max_cycles)
    };

    let mut report = String::new();
    if exit == ExitReason::Watchdog {
        // Surface the structured diagnosis (PC, cycle, last trap) plus a
        // machine-state dump rather than leaving a bare exit reason.
        let _ = writeln!(report, "{}", m.watchdog_error());
        report.push_str(&cheriot_core::state_dump(&m));
    }
    if !m.console.is_empty() {
        let _ = writeln!(report, "console: {}", String::from_utf8_lossy(&m.console));
    }
    if opts.trace_depth > 0 {
        let _ = writeln!(report, "last retired instructions:");
        let retired = retired_instrs(&m);
        let skip = retired.len().saturating_sub(opts.trace_depth);
        for (cycles, pc, instr) in &retired[skip..] {
            let _ = writeln!(
                report,
                "  cycle {cycles:>6}  pc {pc:#010x}  {}",
                cheriot_asm::disassemble(instr)
            );
        }
    }
    if opts.dump_regs {
        let _ = writeln!(report, "registers:");
        for i in 0..16u8 {
            let r = Reg(i);
            let c = m.cpu.read(r);
            let _ = writeln!(report, "  {r:?}\t{c}");
        }
    }
    if opts.trace_out.is_some() || opts.metrics {
        if let Some(mut tracer) = m.take_tracer() {
            // Simulator-level counters (not architectural events): how the
            // block cache behaved over the run.
            let bs = m.block_stats();
            tracer.metrics.add("block_cache_hits", bs.hits);
            tracer.metrics.add("block_cache_misses", bs.misses);
            tracer
                .metrics
                .add("block_cache_invalidations", bs.invalidated);
            tracer.metrics.add("block_chain_hits", bs.chain_hits);
            tracer.metrics.add("block_chain_links", bs.chain_links);
            tracer.metrics.add("block_promotions", bs.promotions);
            tracer.metrics.add("block_side_exits", bs.side_exits);
            let ss = m.snapshot_stats();
            tracer.metrics.add("snapshot_restores", ss.restores);
            tracer.metrics.add("dirty_pages_copied", ss.pages_copied);
            tracer.metrics.add("snapshot_bytes_copied", ss.bytes_copied);
            let cs = m.sram.cow_stats();
            tracer.metrics.add("cow_breaks", cs.breaks);
            tracer.metrics.add("cow_bytes_copied", cs.bytes_copied);
            tracer
                .metrics
                .add("cow_shared_pages", u64::from(m.sram.shared_pages()));
            if m.bus.device_mut::<cheriot_soc::NetLoopback>().is_some() {
                let dropped = cheriot_soc::net_rx_dropped(&mut m);
                tracer.metrics.add("net_rx_dropped", u64::from(dropped));
            }
            for (id, name) in m.bus.device_names() {
                tracer.metrics.set_device_name(id, name);
            }
            let _ = tracer.finish(m.cycles);
            if let Some(path) = &opts.trace_out {
                match std::fs::write(path, tracer.chrome_json()) {
                    Ok(()) => {
                        let _ = writeln!(report, "wrote trace: {}", path.display());
                    }
                    Err(e) => {
                        let _ = writeln!(report, "failed to write {}: {e}", path.display());
                    }
                }
            }
            if opts.metrics {
                report.push_str(&tracer.summary());
            }
        }
    }
    Ok(RunOutcome {
        exit,
        cycles: m.cycles,
        instructions: m.stats.instructions,
        report,
    })
}

/// The tracer's buffered instruction retires (oldest first) as
/// `(cycles, pc, instruction)`, the instruction read back from the code
/// region by PC. Empty without a tracer that records retires.
fn retired_instrs(m: &Machine) -> Vec<(u64, u32, Instr)> {
    m.tracer().map_or_else(Vec::new, |t| {
        t.events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::InstrRetired { pc } => Some((ev.cycles, pc, m.code_at(pc)?)),
                _ => None,
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_simple_program() {
        let out = run_source("li a0, 9\nhalt\n", &RunOptions::default()).unwrap();
        assert_eq!(out.exit, ExitReason::Halted(9));
        assert_eq!(out.instructions, 2);
    }

    #[test]
    fn watchdog_stops_runaway_loop_with_diagnosis() {
        let opts = RunOptions {
            watchdog: Some(500),
            ..RunOptions::default()
        };
        let out = run_source("loop:\nj loop\n", &opts).unwrap();
        assert_eq!(out.exit, ExitReason::Watchdog);
        assert!(out.report.contains("watchdog:"), "{}", out.report);
        assert!(out.report.contains("pc"), "{}", out.report);
    }

    #[test]
    fn oversized_program_is_a_sim_error_not_a_panic() {
        // Code memory holds CODE_SIZE/4 = 262144 instructions.
        let src = "nop\n".repeat(262_200);
        let err = run_source(&src, &RunOptions::default()).unwrap_err();
        assert!(
            matches!(err, RunError::Sim(SimError::CodeOverflow { .. })),
            "{err}"
        );
    }

    #[test]
    fn trace_and_registers_in_report() {
        let opts = RunOptions {
            trace_depth: 4,
            dump_regs: true,
            ..RunOptions::default()
        };
        let out = run_source("li a0, 9\nhalt\n", &opts).unwrap();
        assert!(out.report.contains("li ca0, 9"));
        assert!(out.report.contains("registers:"));
    }

    /// A heap-service program: two syscalls (malloc, free) produce traps
    /// and allocator events for the trace outputs to capture.
    const HEAP_PROG: &str =
        "li a0, 1\nli a1, 48\necall\ncmove ca1, ca0\nli a0, 2\necall\nli a0, 0\nhalt\n";

    #[test]
    fn trace_out_writes_chrome_json() {
        let dir = std::env::temp_dir().join("cheriot-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let opts = RunOptions {
            heap: true,
            trace_out: Some(path.clone()),
            ..RunOptions::default()
        };
        let out = run_source(HEAP_PROG, &opts).unwrap();
        assert_eq!(out.exit, ExitReason::Halted(0));
        assert!(out.report.contains("wrote trace:"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        // The two ecalls surface as trap instants; the malloc shows up
        // with its requested size.
        assert!(json.contains("\"name\":\"trap\""));
        assert!(json.contains("\"name\":\"malloc\""));
        assert!(json.contains("\"size\":48"));
    }

    #[test]
    fn metrics_summary_in_report() {
        let opts = RunOptions {
            heap: true,
            metrics: true,
            ..RunOptions::default()
        };
        let out = run_source(HEAP_PROG, &opts).unwrap();
        assert_eq!(out.exit, ExitReason::Halted(0));
        assert!(out.report.contains("== metrics summary =="));
        assert!(out.report.contains("malloc"));
        assert!(out.report.contains("bytes_allocated"));
        assert!(out.report.contains("instr_retired"));
    }

    #[test]
    fn metrics_report_block_cache_counters_in_all_dispatch_modes() {
        for (block_cache, block_chain) in [(true, true), (true, false), (false, false)] {
            let opts = RunOptions {
                metrics: true,
                block_cache,
                block_chain,
                ..RunOptions::default()
            };
            let out = run_source("li a0, 9\nhalt\n", &opts).unwrap();
            assert_eq!(out.exit, ExitReason::Halted(9));
            assert!(out.report.contains("block_cache_hits"), "{}", out.report);
            assert!(out.report.contains("block_cache_misses"), "{}", out.report);
            assert!(out.report.contains("block_chain_hits"), "{}", out.report);
            assert!(out.report.contains("block_chain_links"), "{}", out.report);
            assert!(out.report.contains("block_promotions"), "{}", out.report);
            assert!(out.report.contains("block_side_exits"), "{}", out.report);
        }
    }

    #[test]
    fn chained_run_links_blocks_and_matches_unchained() {
        // A two-block loop: the chain records links and the architectural
        // outcome is identical with chaining off.
        let prog = "
            li a0, 0
            li a1, 40
        loop:
            addi a0, a0, 1
            bne a0, a1, loop
            halt
        ";
        let mut outs = Vec::new();
        for block_chain in [true, false] {
            let opts = RunOptions {
                metrics: true,
                block_chain,
                ..RunOptions::default()
            };
            let out = run_source(prog, &opts).unwrap();
            assert_eq!(out.exit, ExitReason::Halted(40));
            outs.push(out);
        }
        assert_eq!(outs[0].cycles, outs[1].cycles);
        assert_eq!(outs[0].instructions, outs[1].instructions);
        let hits = metric(&outs[0].report, "block_chain_hits");
        assert!(hits > 30, "hot loop should chain: {}", outs[0].report);
    }

    /// The value of metric `name` in a `--metrics` report.
    fn metric(report: &str, name: &str) -> u64 {
        report
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {report}"))
    }

    #[test]
    fn hot_loop_promotes_side_exits_and_matches_every_mode() {
        // The example guest's `skip` block is promoted together with the
        // loop head its `blt` keeps branching to, and the last trip leaves
        // the superblock through that guard. Only chained dispatch
        // promotes, and the three modes agree on everything else.
        let prog = include_str!("../../../examples/guest/hot_loop.s");
        let mut outs = Vec::new();
        for (block_cache, block_chain) in [(true, true), (true, false), (false, false)] {
            let opts = RunOptions {
                metrics: true,
                block_cache,
                block_chain,
                ..RunOptions::default()
            };
            let out = run_source(prog, &opts).unwrap();
            assert_eq!(out.exit, ExitReason::Halted(20400));
            let promoted = metric(&out.report, "block_promotions");
            let side_exits = metric(&out.report, "block_side_exits");
            assert_eq!(promoted > 0, block_chain, "{}", out.report);
            assert_eq!(side_exits > 0, block_chain, "{}", out.report);
            assert!(metric(&out.report, "block_chain_hits") > 0 || !block_chain);
            outs.push(out);
        }
        for out in &outs[1..] {
            assert_eq!(out.cycles, outs[0].cycles);
            assert_eq!(out.instructions, outs[0].instructions);
        }
    }

    /// Drives the iot.toml platform: a UART store, then a DMA copy kicked
    /// through the engine's registers, halting with the copied word.
    const SOC_PROG: &str = r"
        li t2, 0x82000000
        csetaddr t2, t0, t2
        li t1, 65
        sw t1, 0(t2)            // UART TX 'A'
        li t2, 0x20001000
        csetaddr t2, t0, t2
        li t1, 1234
        sw t1, 0(t2)            // source word
        li t2, 0x87000000
        csetaddr t2, t0, t2     // DMA engine
        li t1, 0x20001000
        sw t1, 0(t2)            // SRC
        li t1, 0x20002000
        sw t1, 4(t2)            // DST
        li t1, 4
        sw t1, 8(t2)            // LEN
        li t1, 1
        sw t1, 12(t2)           // CTRL: kick
        li t2, 0x20002000
        csetaddr t2, t0, t2
        lw a0, 0(t2)
        halt
    ";

    #[test]
    fn machine_manifest_builds_the_declared_platform() {
        let opts = RunOptions {
            machine: Some(std::path::PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../soc/manifests/iot.toml"
            ))),
            metrics: true,
            ..RunOptions::default()
        };
        let out = run_source(SOC_PROG, &opts).unwrap();
        assert_eq!(out.exit, ExitReason::Halted(1234));
        assert!(out.report.contains("console: A"), "{}", out.report);
        // Per-device attribution made it into the metrics summary.
        assert!(out.report.contains("device activity"), "{}", out.report);
        assert!(out.report.contains("uart"), "{}", out.report);
        assert!(out.report.contains("dma"), "{}", out.report);
    }

    #[test]
    fn missing_or_bad_manifest_is_a_manifest_error_not_a_panic() {
        let opts = RunOptions {
            machine: Some(std::path::PathBuf::from("/nonexistent/soc.toml")),
            ..RunOptions::default()
        };
        let err = run_source("halt\n", &opts).unwrap_err();
        assert!(matches!(err, RunError::Manifest(_)), "{err}");

        // Without a manifest the same program runs on the default machine
        // — and the DMA window is unmapped there.
        let out = run_source(SOC_PROG, &RunOptions::default()).unwrap();
        assert!(
            matches!(out.exit, ExitReason::Fault(_)),
            "DMA window must not exist on the default platform: {:?}",
            out.exit
        );
    }

    #[test]
    fn metrics_with_trace_depth_keeps_instruction_trace() {
        let opts = RunOptions {
            trace_depth: 2,
            metrics: true,
            ..RunOptions::default()
        };
        let out = run_source("li a0, 9\nhalt\n", &opts).unwrap();
        assert!(out.report.contains("last retired instructions:"));
        assert!(out.report.contains("halt"));
        // Depth still bounds the printed window even on an unbounded sink.
        assert_eq!(
            out.report
                .lines()
                .filter(|l| l.trim_start().starts_with("cycle"))
                .count(),
            2
        );
        assert!(out.report.contains("== metrics summary =="));
    }
}
