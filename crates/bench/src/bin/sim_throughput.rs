//! Simulator throughput benchmark: how many simulated instructions per
//! host second the interpreter sustains on the CoreMark-class workload.
//!
//! Runs the capability+filter CoreMark kernel for a fixed
//! *simulated-cycle* budget on both core models — through all three
//! dispatch modes: the stepwise decode loop, the predecoded basic-block
//! cache, and the chained cache (block chaining + superblocks + sentry
//! inline caches, DESIGN.md §13) — and reports host-side MIPS (simulated
//! instructions / host CPU second), then measures fault-campaign
//! throughput (seeds per CPU second through the snapshot/fork engine),
//! then times a full `all_results` regeneration. Writes
//! `results/sim_throughput.csv` and a repo-root `BENCH_simperf.json`
//! trajectory file (`{"mips_ibex": .., "mips_flute": ..,
//! "mips_ibex_nocache": .., "mips_flute_nocache": .., "mips_ibex_chain":
//! .., "mips_flute_chain": .., "speedup_ibex": .., "speedup_flute": ..,
//! "speedup_chain_ibex": .., "speedup_chain_flute": ..,
//! "campaign_seeds_per_s": .., "campaign_restore_bytes_per_seed": ..,
//! "wall_s_all_results": ..}`) so
//! future changes have a perf baseline to beat. Key semantics are stable across the chaining change: `mips_*`
//! still means cache-on-chain-off, `mips_*_nocache` stepwise, and the
//! new `mips_*_chain` keys are the chained path (the default execution
//! path). `speedup_*` is cached-over-stepwise; `speedup_chain_*` is
//! chained-over-cached, both medians of back-to-back trials.
//!
//! The MIPS loops are timed in *on-CPU* seconds (`/proc/self/schedstat`),
//! not wall clock: on a shared host the benchmark can lose half its wall
//! time to other tenants, which would fold scheduler luck into the
//! tracked MIPS and the cache-on/off speedup ratio. The `all_results`
//! regeneration is timed in wall seconds instead — its harness fans out
//! to worker threads, whose CPU time the main thread's schedstat never
//! sees.
//!
//! `--quick` shrinks the cycle budget and skips the `all_results` timing
//! (writing 0.0 for it) — the CI smoke mode.
//!
//! `--check-baseline` compares the measured numbers against the
//! *committed* `BENCH_simperf.json` and exits nonzero on regression; in
//! this mode the baseline file is left untouched so the committed
//! numbers stay the reference. The guards use different bands: absolute
//! per-core MIPS (all modes) gets a wide 35% band — even on-CPU time
//! swings with frequency scaling and cache pressure on a shared host —
//! while the dispatch-mode *speedups* get a tight 20% band, because each
//! trial's ratio is taken back-to-back under the same host conditions
//! and medianed, making it robust to everything but a real slowdown.
//! Campaign seeds/s gets a 50% band (it folds in allocator cost, which
//! tracks host memory pressure) and campaign restore bytes per seed a
//! 10% ceiling. Baselines that predate a key skip its check.

use cheriot_bench::baseline::{json_number, upsert_baseline};
use cheriot_bench::{cpu_now, write_csv};
use cheriot_core::CoreModel;
use cheriot_workloads::{run_coremark_for_cycles_dispatch, CoreMarkConfig, DispatchMode};
use std::time::Instant;

/// The three dispatch modes in emission order: slot index doubles as the
/// `walls`/`best` array index for each trial.
const MODES: [DispatchMode; 3] = [
    DispatchMode::Chained,
    DispatchMode::Cached,
    DispatchMode::Stepwise,
];

/// Short label for a dispatch mode, used in console rows, the CSV
/// `dispatch` column and (via [`mips_key`]) the baseline JSON keys.
fn mode_label(mode: DispatchMode) -> &'static str {
    match mode {
        DispatchMode::Stepwise => "stepwise",
        DispatchMode::Cached => "blocks",
        DispatchMode::Chained => "chained",
    }
}

/// The `BENCH_simperf.json` key a (core, mode) MIPS measurement is
/// tracked under. `mips_*` keeps its pre-chaining meaning (the plain
/// block cache) so trajectories stay comparable across the change.
fn mips_key(name: &str, mode: DispatchMode) -> String {
    match mode {
        DispatchMode::Stepwise => format!("mips_{name}_nocache"),
        DispatchMode::Cached => format!("mips_{name}"),
        DispatchMode::Chained => format!("mips_{name}_chain"),
    }
}

/// Allowed fractional regression of absolute MIPS vs the committed
/// baseline. Wide: absolute throughput folds in host frequency scaling
/// and cache pressure, which on a shared 1-CPU host swing ±30%
/// run-to-run even measured in on-CPU time.
const MIPS_NOISE_BAND: f64 = 0.35;

/// Allowed fractional regression of the cache-on/off speedup. Tight:
/// each trial's ratio is measured back-to-back under the same host
/// conditions and the median is reported, so only a real change to one
/// of the two execution paths moves it.
const SPEEDUP_NOISE_BAND: f64 = 0.20;

/// Allowed fractional regression of absolute campaign throughput.
/// Wider than [`MIPS_NOISE_BAND`]: besides frequency scaling, the
/// campaign path's seeds/s folds in allocator and page-fault cost,
/// which tracks host memory pressure (observed 6.5k-10.7k seeds/s on
/// the same build).
const CAMPAIGN_SEEDS_NOISE_BAND: f64 = 0.50;

/// Band for `campaign_restore_bytes_per_seed`, guarded with a *ceiling*
/// (lower is better). Tight: the value is the snapshot engine's own
/// deterministic byte accounting for a fixed seed range — CoW handle
/// adoptions of the pages whose handles differ from the snapshot's — so
/// any drift is a real change to what a per-seed restore moves, not
/// noise.
const RESTORE_BYTES_BAND: f64 = 0.10;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check_baseline = std::env::args().any(|a| a == "--check-baseline");
    let budget: u64 = if quick { 8_000_000 } else { 80_000_000 };
    let cfg = CoreMarkConfig::capabilities_with_filter();
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

    println!("Simulator throughput (CoreMark kernel, capabilities + load filter)");
    println!(
        "budget: {budget} simulated cycles per core and mode{}\n",
        if quick { " (--quick)" } else { "" }
    );

    // Each trial times the three dispatch modes back-to-back, so a
    // trial's mode/mode ratios see (nearly) the same host frequency /
    // cache state; each reported speedup is the *median* of the
    // per-trial ratios, which a single slow or fast scheduling window
    // cannot move. (All modes retire bit-identical instruction streams,
    // so the MIPS ratios reduce to inverse time ratios.) The per-mode
    // MIPS numbers are best-of-N, the closest estimate of what the
    // interpreter sustains.
    let trials = 5;
    let epoch = Instant::now();

    let mut rows = Vec::new();
    let mut measured: Vec<(&'static str, DispatchMode, f64)> = Vec::new();
    // (core, cached-over-stepwise, chained-over-cached)
    let mut speedups: Vec<(&'static str, f64, f64)> = Vec::new();
    for core in [CoreModel::ibex(), CoreModel::flute()] {
        // Warm-up passes: code/data caches, branch predictors, allocator.
        for mode in MODES {
            run_coremark_for_cycles_dispatch(core, &cfg, budget / 10, mode);
        }
        // best[slot] = (cycles, instructions, cpu_seconds)
        let mut best = [(0u64, 0u64, f64::INFINITY); 3];
        let mut cache_ratios = Vec::with_capacity(trials);
        let mut chain_ratios = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut walls = [0.0f64; 3];
            for (slot, mode) in MODES.into_iter().enumerate() {
                let t0 = cpu_now(epoch);
                let (c, i) = run_coremark_for_cycles_dispatch(core, &cfg, budget, mode);
                let w = cpu_now(epoch) - t0;
                walls[slot] = w;
                if w < best[slot].2 {
                    best[slot] = (c, i, w);
                }
            }
            cache_ratios.push(walls[2] / walls[1]);
            chain_ratios.push(walls[1] / walls[0]);
        }
        cache_ratios.sort_by(|a, b| a.total_cmp(b));
        chain_ratios.sort_by(|a, b| a.total_cmp(b));
        let cache_speedup = cache_ratios[trials / 2];
        let chain_speedup = chain_ratios[trials / 2];
        let name = if core.kind == CoreModel::ibex().kind {
            "ibex"
        } else {
            "flute"
        };
        for (slot, mode) in MODES.into_iter().enumerate() {
            let (cycles, instructions, wall) = best[slot];
            let mips = instructions as f64 / wall / 1e6;
            println!(
                "{:<6}  {:<9}  {:>12} cycles  {:>12} instrs  {:>8.3} cpu-s  {:>8.2} MIPS",
                format!("{}", core.kind),
                mode_label(mode),
                cycles,
                instructions,
                wall,
                mips
            );
            rows.push(vec![
                format!("{}", core.kind),
                "coremark_caps_filter".to_string(),
                mode_label(mode).to_string(),
                format!("{cycles}"),
                format!("{instructions}"),
                format!("{wall:.4}"),
                format!("{mips:.2}"),
            ]);
            measured.push((name, mode, mips));
        }
        println!(
            "{:<6}  block-cache speedup: {:.2}x, chaining speedup: {:.2}x \
             (medians of {} back-to-back trials)\n",
            format!("{}", core.kind),
            cache_speedup,
            chain_speedup,
            trials
        );
        speedups.push((name, cache_speedup, chain_speedup));
    }

    // Fault-campaign throughput: seeds per on-CPU second through the
    // snapshot/fork engine, best of several trials. One worker thread so
    // schedstat sees all the work, and so the number tracks the engine,
    // not the host's core count. The seed count must be large enough to
    // amortise per-suite fixed costs (the control run and the worker's
    // one-time boot) — so quick mode trims trials, not the seed count (a
    // small count also finishes inside one schedstat update, reading back
    // as zero on-CPU time).
    let camp_count: u32 = 128;
    let camp_trials = if quick { 3 } else { 5 };
    let camp_cfg = cheriot_fault::CampaignConfig {
        seed_base: 1,
        count: camp_count,
        threads: 1,
        ..cheriot_fault::CampaignConfig::default()
    };
    cheriot_fault::run_campaigns(&camp_cfg); // warm-up
    let mut camp_best = f64::INFINITY;
    let mut restore_bytes = 0u64;
    for _ in 0..camp_trials {
        let t0 = cpu_now(epoch);
        restore_bytes = cheriot_fault::run_campaigns(&camp_cfg).snapshot_bytes_copied;
        // schedstat advances at scheduler-tick granularity; clamp so a
        // trial that lands inside one update can't divide to infinity.
        camp_best = camp_best.min((cpu_now(epoch) - t0).max(1e-4));
    }
    let campaign_seeds_per_s = f64::from(camp_count) / camp_best;
    let restore_bytes_per_seed = restore_bytes as f64 / f64::from(camp_count);
    println!(
        "fault-campaign: {campaign_seeds_per_s:.1} seeds/cpu-s (snapshot engine, \
         {camp_count} seeds, best of {camp_trials}); \
         {restore_bytes_per_seed:.0} restore bytes/seed\n"
    );

    let wall_all = if quick {
        0.0
    } else {
        println!("timing all_results regeneration (output suppressed)...");
        // Wall clock, not schedstat: the harness is multi-threaded.
        let t0 = Instant::now();
        let report = cheriot_bench::harness::run_all();
        let wall = t0.elapsed().as_secs_f64();
        println!("all_results: {wall:.3} s ({} report bytes)", report.len());
        wall
    };

    let headers = [
        "core",
        "workload",
        "dispatch",
        "sim_cycles",
        "instructions",
        "host_cpu_s",
        "mips",
    ];
    match write_csv("sim_throughput", &headers, &rows) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("failed to write sim_throughput.csv: {e}"),
    }

    if let Some(text) = baseline_text {
        // Guard mode: compare, don't overwrite the committed reference.
        let mut failed = false;
        let mut check = |key: &str, value: f64, band: f64| {
            let Some(base) = json_number(&text, key) else {
                println!("baseline check {key:<20} no baseline key, skipped");
                return;
            };
            let floor = base * (1.0 - band);
            let verdict = if base > 0.0 && value < floor {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "baseline check {key:<20} measured {value:>8.2}  baseline {base:>8.2}  \
                 floor {floor:>8.2}  {verdict}"
            );
        };
        for (name, mode, mips) in &measured {
            check(&mips_key(name, *mode), *mips, MIPS_NOISE_BAND);
        }
        for (name, cache_speedup, chain_speedup) in &speedups {
            check(
                &format!("speedup_{name}"),
                *cache_speedup,
                SPEEDUP_NOISE_BAND,
            );
            check(
                &format!("speedup_chain_{name}"),
                *chain_speedup,
                SPEEDUP_NOISE_BAND,
            );
        }
        check(
            "campaign_seeds_per_s",
            campaign_seeds_per_s,
            CAMPAIGN_SEEDS_NOISE_BAND,
        );
        // Restore-bytes is a deterministic byte count with a *ceiling*:
        // more bytes moved per seed means a restore moved pages it did not
        // need to (a write path unsharing too much, or lost sharing).
        match json_number(&text, "campaign_restore_bytes_per_seed") {
            None => println!(
                "baseline check {:<20} no baseline key, skipped",
                "campaign_restore_bytes_per_seed"
            ),
            Some(base) => {
                let ceiling = base * (1.0 + RESTORE_BYTES_BAND);
                let verdict = if restore_bytes_per_seed > ceiling {
                    failed = true;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "baseline check {:<20} measured {restore_bytes_per_seed:>8.2}  \
                     baseline {base:>8.2}  ceiling {ceiling:>8.2}  {verdict}",
                    "campaign_restore_bytes_per_seed"
                );
            }
        }
        if failed {
            eprintln!(
                "sim_throughput: regressed vs BENCH_simperf.json \
                 (bands: MIPS {:.0}%, speedup {:.0}%)",
                MIPS_NOISE_BAND * 100.0,
                SPEEDUP_NOISE_BAND * 100.0
            );
            std::process::exit(1);
        }
        return;
    }

    let by_key = |name: &str, mode: DispatchMode| {
        measured
            .iter()
            .find(|(n, m, _)| *n == name && *m == mode)
            .map(|(_, _, v)| *v)
            .unwrap_or(0.0)
    };
    let speedup_of = |name: &str| {
        speedups
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, cache, chain)| (*cache, *chain))
            .unwrap_or((0.0, 0.0))
    };
    let (speedup_ibex, speedup_chain_ibex) = speedup_of("ibex");
    let (speedup_flute, speedup_chain_flute) = speedup_of("flute");
    // Upsert rather than rewrite: other harnesses (farm_throughput)
    // track their own keys in the same trajectory file.
    let entries = [
        (
            "mips_ibex",
            format!("{:.2}", by_key("ibex", DispatchMode::Cached)),
        ),
        (
            "mips_flute",
            format!("{:.2}", by_key("flute", DispatchMode::Cached)),
        ),
        (
            "mips_ibex_nocache",
            format!("{:.2}", by_key("ibex", DispatchMode::Stepwise)),
        ),
        (
            "mips_flute_nocache",
            format!("{:.2}", by_key("flute", DispatchMode::Stepwise)),
        ),
        (
            "mips_ibex_chain",
            format!("{:.2}", by_key("ibex", DispatchMode::Chained)),
        ),
        (
            "mips_flute_chain",
            format!("{:.2}", by_key("flute", DispatchMode::Chained)),
        ),
        ("speedup_ibex", format!("{speedup_ibex:.2}")),
        ("speedup_flute", format!("{speedup_flute:.2}")),
        ("speedup_chain_ibex", format!("{speedup_chain_ibex:.2}")),
        ("speedup_chain_flute", format!("{speedup_chain_flute:.2}")),
        ("campaign_seeds_per_s", format!("{campaign_seeds_per_s:.2}")),
        (
            "campaign_restore_bytes_per_seed",
            format!("{restore_bytes_per_seed:.1}"),
        ),
        ("wall_s_all_results", format!("{wall_all:.3}")),
    ];
    match upsert_baseline(std::path::Path::new("BENCH_simperf.json"), &entries) {
        Ok(line) => println!("wrote BENCH_simperf.json: {}", line.trim()),
        Err(e) => eprintln!("failed to write BENCH_simperf.json: {e}"),
    }
}
