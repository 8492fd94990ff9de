//! `cheriot-sim`: assemble, disassemble and run CHERIoT guest programs,
//! and drive deterministic fault-injection campaigns against them.
//!
//! ```text
//! cheriot-sim run  prog.s [--core ibex|flute] [--machine soc.toml]
//!                          [--no-load-filter]
//!                          [--no-block-cache] [--no-block-chain] [--no-cow]
//!                          [--trace N] [--max-cycles N]
//!                          [--watchdog N] [--dump-regs] [--heap]
//!                          [--trace-out out.json] [--metrics] [--binary]
//! cheriot-sim asm  prog.s -o prog.bin
//! cheriot-sim disasm prog.bin
//! cheriot-sim fault-campaign [--seed-base N] [--count K] [--threads T]
//!                            [--kinds tag,bounds,bitmap,...] [--faults N]
//!                            [--cadence N] [--max-cycles N]
//!                            [--json out.json] [--out out.txt]
//! cheriot-sim diff-fuzz [--seed-base N] [--count K] [--threads T]
//!                       [--binary-safe] [--budget-cycles N]
//!                       [--json out.json] [--repro-dir results]
//! cheriot-sim farm [--devices N] [--threads T] [--rounds N] [--quantum N]
//!                  [--settle-rounds N] [--seed N] [--topics N]
//!                  [--host-rate N] [--sram BYTES] [--core ibex|flute]
//!                  [--no-block-cache] [--no-block-chain] [--no-cow]
//!                  [--json out.json] [--metrics]
//! ```
//!
//! Malformed flags produce a contextual error naming the flag and value;
//! the binary never panics on user input.

use cheriot_cli::{
    parse_campaign_args, parse_diff_args, parse_farm_args, parse_program, parse_run_args,
    run_source,
};
use std::process::ExitCode;

const USAGE: &str = "usage:
  cheriot-sim run <prog.s> [--core ibex|flute] [--machine <soc.toml>] \
[--no-load-filter] [--no-block-cache] [--no-block-chain] [--no-cow] [--trace N] \
[--max-cycles N] [--watchdog N] [--dump-regs] [--heap] \
[--trace-out <out.json>] [--metrics] [--binary]
  cheriot-sim asm <prog.s> -o <out.bin>
  cheriot-sim disasm <prog.bin>
  cheriot-sim fault-campaign [--seed-base N] [--count K] [--threads T] \
[--kinds <k1,k2,...>] [--faults N] [--cadence N] [--max-cycles N] \
[--json <out.json>] [--out <out.txt>]
  cheriot-sim diff-fuzz [--seed-base N] [--count K] [--threads T] \
[--binary-safe] [--budget-cycles N] [--json <out.json>] \
[--repro-dir <dir>]
  cheriot-sim farm [--devices N] [--threads T] [--rounds N] [--quantum N] \
[--settle-rounds N] [--seed N] [--topics N] [--host-rate N] [--sram BYTES] \
[--core ibex|flute] [--no-block-cache] [--no-block-chain] [--no-cow] \
[--json <out.json>] [--metrics]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Reports a flag-parsing failure with the contextual message, then the
/// usage summary for orientation.
fn bad_args(cmd: &str, msg: &str) -> ExitCode {
    eprintln!("cheriot-sim {cmd}: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "asm" => cmd_asm(rest),
        "disasm" => cmd_disasm(rest),
        "fault-campaign" => cmd_fault_campaign(rest),
        "diff-fuzz" => cmd_diff_fuzz(rest),
        "farm" => cmd_farm(rest),
        other => {
            eprintln!("cheriot-sim: unknown command `{other}`");
            usage()
        }
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(p) => p,
        Err(e) => return bad_args("run", &e),
    };
    let path = &parsed.path;
    let outcome = if parsed.binary {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cheriot-sim: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        cheriot_cli::run_words(&words, &parsed.opts)
    } else {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cheriot-sim: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        run_source(&src, &parsed.opts)
    };
    match outcome {
        Ok(out) => {
            print!("{}", out.report);
            println!(
                "exit: {:?}  ({} cycles, {} instructions)",
                out.exit, out.cycles, out.instructions
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cheriot-sim: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_fault_campaign(args: &[String]) -> ExitCode {
    let parsed = match parse_campaign_args(args) {
        Ok(p) => p,
        Err(e) => return bad_args("fault-campaign", &e),
    };
    let report = cheriot_fault::run_campaigns(&parsed.cfg);
    let text = report.to_text();
    print!("{text}");
    if let Some(path) = &parsed.text_out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cheriot-sim: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote text report: {}", path.display());
    }
    if let Some(path) = &parsed.json_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cheriot-sim: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote json report: {}", path.display());
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_diff_fuzz(args: &[String]) -> ExitCode {
    let parsed = match parse_diff_args(args) {
        Ok(p) => p,
        Err(e) => return bad_args("diff-fuzz", &e),
    };
    let report = cheriot_diff::run_fuzz(&parsed.cfg);
    print!("{}", report.render_text());
    if let Some(path) = &parsed.json_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cheriot-sim: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote json report: {}", path.display());
    }
    // Every divergence gets its own minimal-repro file: the shrunk
    // listing plus first-divergence triage, enough to replay by hand.
    if !report.divergences.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&parsed.repro_dir) {
            eprintln!("cheriot-sim: {}: {e}", parsed.repro_dir.display());
            return ExitCode::FAILURE;
        }
        for d in &report.divergences {
            let path = parsed.repro_dir.join(format!(
                "diff-seed{}-{}-{}.json",
                d.seed, d.core, d.dispatch
            ));
            if let Err(e) = std::fs::write(&path, cheriot_diff::report::divergence_json(d).render())
            {
                eprintln!("cheriot-sim: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote repro: {}", path.display());
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_farm(args: &[String]) -> ExitCode {
    let parsed = match parse_farm_args(args) {
        Ok(p) => p,
        Err(e) => return bad_args("farm", &e),
    };
    let report = match cheriot_farm::run_farm(&parsed.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cheriot-sim farm: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.to_text());
    if parsed.metrics {
        print!("{}", report.metrics.summary());
    }
    if let Some(path) = &parsed.json_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cheriot-sim: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote json report: {}", path.display());
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_asm(args: &[String]) -> ExitCode {
    let (path, out) = match args {
        [p, dash_o, o] if dash_o == "-o" => (p, o),
        _ => return usage(),
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cheriot-sim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cheriot-sim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let words = match cheriot_core::encoding::encode_program(&prog) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cheriot-sim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    if let Err(e) = std::fs::write(out, bytes) {
        eprintln!("cheriot-sim: {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} words to {out}", words.len());
    ExitCode::SUCCESS
}

fn cmd_disasm(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cheriot-sim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    print!(
        "{}",
        cheriot_asm::disassemble_words(cheriot_core::layout::CODE_BASE, &words)
    );
    ExitCode::SUCCESS
}
