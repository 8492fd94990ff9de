//! Farm throughput benchmark: how much device time per host CPU second
//! the fleet scheduler sustains, and how fast messages flow end to end.
//!
//! Runs a fixed-seed fleet (`cheriot_farm::run_farm`) of forked MQTT
//! nodes under live cross-instance traffic and reports:
//!
//! * `farm_devices_per_core` — concurrent devices one host core keeps
//!   at real-time speed: fleet device-seconds simulated per host CPU
//!   second. This is *the* tracked capacity metric: it folds in fork
//!   cost, quantum scheduling overhead, NIC emulation, and fabric
//!   routing.
//! * `farm_messages_per_s` — end-to-end acknowledged pub/sub messages
//!   per host CPU second.
//! * `farm_fork_bytes_per_device` — host bytes copied to fork one more
//!   device off the shared boot image (CoW page-handle adoptions, not
//!   deep copies). Lower is better; guarded with a *ceiling* so a CoW
//!   regression back towards deep-copy forks fails the check.
//! * `farm_fork_reduction_x` — the same fleet's deep-copy (`--no-cow`)
//!   fork cost divided by the CoW cost; the fleet-density headroom the
//!   page store buys. Floor-guarded.
//!
//! Both are committed to the repo-root `BENCH_simperf.json` trajectory
//! file (upserted — the MIPS keys belong to `sim_throughput`) and a
//! `results/farm_throughput.csv` row per trial is written.
//!
//! The loops are timed in *on-CPU* seconds (`/proc/self/schedstat`) with
//! a single worker, so the metric tracks the engine rather than host
//! core count or scheduler luck, mirroring `sim_throughput`'s method.
//!
//! `--quick` shrinks the fleet and trial count — the CI smoke mode.
//! `--check-baseline` compares against the committed baseline and exits
//! nonzero on regression, leaving the file untouched.

use cheriot_bench::baseline::{json_number, upsert_baseline};
use cheriot_bench::{cpu_now, write_csv};
use cheriot_farm::{run_farm, FarmConfig};
use std::time::Instant;

/// Allowed fractional regression vs the committed baseline. Wide, like
/// the absolute-MIPS band in `sim_throughput` and then some: a farm
/// round mixes interpreter work with allocator-heavy frame routing, so
/// its throughput tracks host memory pressure as well as frequency
/// scaling.
const FARM_NOISE_BAND: f64 = 0.40;

/// Band for the fork-cost keys. Tight: both sides of the ratio are
/// deterministic byte counts from the snapshot engine's own accounting
/// (same config ⇒ same value), not timings — any drift is a real change
/// to what a fork copies.
const FORK_COST_BAND: f64 = 0.10;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check_baseline = std::env::args().any(|a| a == "--check-baseline");
    let baseline_text = if check_baseline {
        Some(
            std::fs::read_to_string("BENCH_simperf.json").unwrap_or_else(|e| {
                eprintln!("--check-baseline: cannot read BENCH_simperf.json: {e}");
                std::process::exit(2);
            }),
        )
    } else {
        None
    };

    let cfg = FarmConfig {
        devices: if quick { 64 } else { 256 },
        workers: 1, // schedstat must see all the work
        rounds: if quick { 80 } else { 200 },
        seed: 1,
        ..FarmConfig::default()
    };
    let trials = if quick { 2 } else { 3 };

    println!("Farm throughput (forked MQTT-node fleet, cross-instance traffic)");
    println!(
        "fleet: {} devices, {} rounds x {} cycle quantum{}\n",
        cfg.devices,
        cfg.rounds,
        cfg.quantum,
        if quick { " (--quick)" } else { "" }
    );

    let epoch = Instant::now();
    // Warm-up: code caches, allocator, the boot image path.
    run_farm(&cfg).expect("farm warm-up");

    let mut rows = Vec::new();
    let mut best_dps = 0.0f64;
    let mut best_mps = 0.0f64;
    let mut last_report = None;
    for trial in 0..trials {
        let t0 = cpu_now(epoch);
        let report = run_farm(&cfg).expect("farm run");
        let cpu_s = (cpu_now(epoch) - t0).max(1e-4);
        if !report.passed() {
            eprintln!(
                "farm_throughput: fleet failed its own acceptance check:\n{}",
                report.to_text()
            );
            std::process::exit(1);
        }
        let dps = report.device_seconds / cpu_s;
        let mps = report.messages_done() as f64 / cpu_s;
        println!(
            "trial {trial}: {:>8.3} device-s in {cpu_s:>7.3} cpu-s  \
             -> {dps:>7.2} devices/core  {mps:>8.1} msgs/s  \
             ({} msgs acked, {} cross-instance frames)",
            report.device_seconds,
            report.messages_done(),
            report.fabric.cross_instance_frames
        );
        rows.push(vec![
            format!("{trial}"),
            format!("{}", cfg.devices),
            format!("{}", cfg.rounds),
            format!("{}", cfg.quantum),
            format!("{:.4}", report.device_seconds),
            format!("{cpu_s:.4}"),
            format!("{dps:.2}"),
            format!("{mps:.1}"),
        ]);
        best_dps = best_dps.max(dps);
        best_mps = best_mps.max(mps);
        last_report = Some(report);
    }
    println!("\nbest: {best_dps:.2} devices/core ({best_mps:.1} msgs/s) over {trials} trials");

    // Fork-cost model: re-run the identical fleet with the CoW page
    // store disabled, so every fork deep-copies the boot image. The two
    // byte counts come from the snapshot engine's own accounting and are
    // deterministic — no timing involved.
    let cow_report = last_report.expect("at least one trial ran");
    let nocow_cfg = FarmConfig { cow: false, ..cfg };
    let nocow_report = run_farm(&nocow_cfg).expect("no-cow farm run");
    assert!(
        nocow_report.passed(),
        "no-cow fleet failed its acceptance check"
    );
    let fork_cow = cow_report.fork_bytes_per_device();
    let fork_nocow = nocow_report.fork_bytes_per_device();
    let fork_reduction = fork_nocow / fork_cow.max(1.0);
    println!(
        "fork cost: {fork_cow:.1} bytes/device (CoW) vs {fork_nocow:.1} (deep copy) \
         -> {fork_reduction:.1}x reduction"
    );
    println!(
        "fleet memory: {} unique bytes resident (CoW) vs {} (deep copy), \
         {} pages still shared, {} CoW breaks, host RSS {} MiB",
        cow_report.fleet_unique_bytes,
        nocow_report.fleet_unique_bytes,
        cow_report.cow_shared_pages,
        cow_report.cow_breaks,
        cow_report.host_rss_bytes / (1 << 20),
    );
    if fork_reduction < 10.0 {
        eprintln!(
            "farm_throughput: CoW fork cost must be >=10x below deep copy \
             (measured {fork_reduction:.1}x)"
        );
        std::process::exit(1);
    }

    let headers = [
        "trial",
        "devices",
        "rounds",
        "quantum",
        "device_s",
        "host_cpu_s",
        "devices_per_core",
        "messages_per_s",
    ];
    match write_csv("farm_throughput", &headers, &rows) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write farm_throughput.csv: {e}"),
    }

    if let Some(text) = baseline_text {
        // Guard mode: compare, don't overwrite the committed reference.
        let mut failed = false;
        let mut check = |key: &str, value: f64| {
            let Some(base) = json_number(&text, key) else {
                println!("baseline check {key:<22} no baseline key, skipped");
                return;
            };
            let floor = base * (1.0 - FARM_NOISE_BAND);
            let verdict = if base > 0.0 && value < floor {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "baseline check {key:<22} measured {value:>9.2}  baseline {base:>9.2}  \
                 floor {floor:>9.2}  {verdict}"
            );
        };
        check("farm_devices_per_core", best_dps);
        check("farm_messages_per_s", best_mps);
        // Fork-cost keys: bytes-per-fork is guarded with a *ceiling*
        // (lower is better), the reduction ratio with a floor; both use
        // the tight deterministic band.
        match json_number(&text, "farm_fork_bytes_per_device") {
            None => println!(
                "baseline check {:<22} no baseline key, skipped",
                "farm_fork_bytes_per_device"
            ),
            Some(base) => {
                let ceiling = base * (1.0 + FORK_COST_BAND);
                let verdict = if fork_cow > ceiling {
                    failed = true;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "baseline check {:<22} measured {fork_cow:>9.2}  baseline {base:>9.2}  \
                     ceiling {ceiling:>9.2}  {verdict}",
                    "farm_fork_bytes_per_device"
                );
            }
        }
        match json_number(&text, "farm_fork_reduction_x") {
            None => println!(
                "baseline check {:<22} no baseline key, skipped",
                "farm_fork_reduction_x"
            ),
            Some(base) => {
                let floor = base * (1.0 - FORK_COST_BAND);
                let verdict = if base > 0.0 && fork_reduction < floor {
                    failed = true;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "baseline check {:<22} measured {fork_reduction:>9.2}  baseline {base:>9.2}  \
                     floor {floor:>9.2}  {verdict}",
                    "farm_fork_reduction_x"
                );
            }
        }
        if failed {
            eprintln!(
                "farm_throughput: regressed vs BENCH_simperf.json (band {:.0}%)",
                FARM_NOISE_BAND * 100.0
            );
            std::process::exit(1);
        }
        return;
    }

    let entries = [
        ("farm_devices_per_core", format!("{best_dps:.2}")),
        ("farm_messages_per_s", format!("{best_mps:.1}")),
        ("farm_fork_bytes_per_device", format!("{fork_cow:.1}")),
        ("farm_fork_reduction_x", format!("{fork_reduction:.1}")),
    ];
    match upsert_baseline(std::path::Path::new("BENCH_simperf.json"), &entries) {
        Ok(line) => println!("wrote BENCH_simperf.json: {}", line.trim()),
        Err(e) => eprintln!("failed to write BENCH_simperf.json: {e}"),
    }
}
