//! Regenerates the **§7.2.3 end-to-end IoT application** result: CPU load
//! of the compartmentalized network stack + TLS + MQTT + interpreter
//! application at 20 MHz with a 10 ms interpreter tick.
//!
//! `--trace-out <path>` re-runs the experiment with the tracing subsystem
//! enabled and writes a Chrome `trace_event` JSON timeline (compartment
//! spans per thread, allocator and revoker activity) loadable in
//! `chrome://tracing` / Perfetto, then prints the per-compartment cycle
//! attribution. `--metrics` prints the attribution table without writing
//! a file.

use cheriot_bench::harness;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = args.iter().any(|a| a == "--metrics");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if !metrics && trace_out.is_none() {
        print!("{}", harness::e2e().write());
        return;
    }

    let (section, tracer) = harness::e2e_traced();
    print!("{}", section.write());
    if let Some(path) = trace_out {
        match std::fs::write(&path, tracer.chrome_json()) {
            Ok(()) => println!(
                "\nwrote {} ({} events) — open in chrome://tracing or ui.perfetto.dev",
                path.display(),
                tracer.recorded()
            ),
            Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
        }
    }
    println!();
    print!("{}", tracer.summary());
}
