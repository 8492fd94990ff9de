//! # cheriot-benchmark — one benchmark for the simulator
//!
//! Four workloads ([`Workload`]) that stress different layers of the
//! simulator, measured end to end ([`measure`]) with outputs checked
//! against a `sim_digest`, plus a separate traced pass ([`traced`]) that
//! re-drives each workload from public calls and times the calls into
//! each layer. `README.md` in this crate lists the metrics, what each
//! workload is for and which end-to-end number each layer metric
//! should move.

#![warn(missing_docs)]

mod campaign;
pub mod clock;
mod coremark;
pub mod diff;
pub mod digest;
pub mod farm;
pub mod report;
pub mod spans;
pub mod stats;

use spans::Tracer;
use std::collections::BTreeMap;

/// The seed the committed digests ([`expected_digest`]) are for.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;

/// Measured units a run always completes, however short `--seconds` is,
/// so every reported median has quartiles around it.
pub const MIN_UNITS: usize = 3;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The CoreMark caps+filter kernel, chained dispatch, warm.
    Coremark,
    /// Fault campaigns through the snapshot engine.
    Campaign,
    /// A forked fleet of MQTT nodes under live traffic.
    Farm,
    /// Differential fuzzing against the golden interpreter.
    DiffFuzz,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Coremark,
        Workload::Campaign,
        Workload::Farm,
        Workload::DiffFuzz,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Coremark => "coremark",
            Workload::Campaign => "campaign",
            Workload::Farm => "farm",
            Workload::DiffFuzz => "diff_fuzz",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one throughput item is for this workload.
    pub fn item(self) -> &'static str {
        match self {
            Workload::Coremark => "million simulated instructions",
            Workload::Campaign | Workload::DiffFuzz => "seed",
            Workload::Farm => "simulated device-second",
        }
    }
}

/// Unit sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps the tests fast in debug builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Simulated cycles per coremark unit.
    pub coremark_cycles: u64,
    /// Seeds per campaign unit.
    pub campaign_seeds: u32,
    /// Devices per farm unit.
    pub farm_devices: usize,
    /// Traffic rounds per farm unit (settle rounds follow).
    pub farm_rounds: u32,
    /// Generated programs per diff_fuzz unit.
    pub diff_seeds: u32,
}

impl Sizes {
    /// The measured sizes: each unit lasts roughly 1-4 s on one core.
    pub const FULL: Sizes = Sizes {
        coremark_cycles: 150_000_000,
        campaign_seeds: 8192,
        farm_devices: 512,
        farm_rounds: 20,
        diff_seeds: 1000,
    };

    /// Sizes small enough for debug-build tests.
    pub const TINY: Sizes = Sizes {
        coremark_cycles: 400_000,
        campaign_seeds: 16,
        farm_devices: 16,
        farm_rounds: 6,
        diff_seeds: 8,
    };
}

/// The first generator seed of a unit of `count` items for benchmark
/// seed `seed`: seed 1 starts at 1 and each further seed takes the next
/// disjoint block, so two benchmark seeds never share inputs.
pub fn first_seed(seed: u64, count: u32) -> u64 {
    seed.wrapping_sub(1)
        .wrapping_mul(u64::from(count))
        .wrapping_add(1)
}

/// One measured unit of work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Unit {
    /// Throughput items completed ([`Workload::item`]).
    pub items: f64,
    /// `sim_digest` of the unit's simulated outcome.
    pub digest: u64,
}

/// A workload set up and ready to run units.
pub trait Bench {
    /// Runs one unit. `Err` is a correctness failure, described.
    fn unit(&mut self) -> Result<Unit, String>;
}

/// Builds the starting state of `w` through the same public calls the
/// product makes (this is what `setup_s` times).
pub fn setup(w: Workload, seed: u64, sizes: &Sizes) -> Box<dyn Bench> {
    match w {
        Workload::Coremark => Box::new(coremark::Coremark::setup(seed, sizes)),
        Workload::Campaign => Box::new(campaign::Campaign::setup(seed, sizes)),
        Workload::Farm => Box::new(farm::Farm::setup(seed, sizes)),
        Workload::DiffFuzz => Box::new(diff::DiffFuzz::setup(seed, sizes)),
    }
}

/// The committed `sim_digest` of every unit of `w` at [`DEFAULT_SEED`]
/// and [`Sizes::FULL`].
pub fn expected_digest(w: Workload) -> u64 {
    match w {
        Workload::Coremark => 0xb985_3e9b_38cf_bc84,
        Workload::Campaign => 0x75e5_1c3e_ee52_3dce,
        Workload::Farm => 0x400d_3721_8cf7_c848,
        Workload::DiffFuzz => 0xf345_ccae_b67d_d4d1,
    }
}

/// A metric's name, unit and better direction, as `BENCHMARK.json`
/// lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 3] = [
    def("throughput", "items/ref-s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported by every traced run. A workload that
/// never reaches a layer reports 0 for its metrics.
pub const PER_LAYER: [MetricDef; 44] = [
    // core::blockcache
    def("compile.blocks_built", "count", "lower"),
    def("compile.us_per_block", "us", "lower"),
    def("compile.frac", "ratio", "lower"),
    // core::machine dispatch
    def("dispatch.ns_per_insn.chained", "ns", "lower"),
    def("dispatch.ns_per_insn.cached", "ns", "lower"),
    def("dispatch.ns_per_insn.stepwise", "ns", "lower"),
    def("dispatch.chain_hit_rate", "ratio", "higher"),
    def("dispatch.sentry_ic_hit_rate", "ratio", "higher"),
    def("dispatch.insns_per_dispatch", "count", "higher"),
    // core::machine run entry/exit
    def("run.calls_per_device_round", "count", "lower"),
    def("run.ns_per_call", "ns", "lower"),
    def("run.insns_per_call", "count", "higher"),
    // core::bus + cheriot-soc
    def("dma.ns_per_call", "ns", "lower"),
    def("dma.bytes_per_call", "bytes", "higher"),
    def("nic.push_ns", "ns", "lower"),
    def("nic.flush_ns", "ns", "lower"),
    def("nic.take_tx_ns", "ns", "lower"),
    def("nic.frames_per_device_round", "count", "higher"),
    // core::mem + snapshots
    def("snapshot.restore_ns", "ns", "lower"),
    def("snapshot.restore_pages", "count", "lower"),
    def("snapshot.capture_ns", "ns", "lower"),
    def("cow.breaks_per_seed", "count", "lower"),
    def("fork.ns_per_device", "ns", "lower"),
    def("fork.bytes_per_device", "bytes", "lower"),
    def("cow.breaks_per_device", "count", "lower"),
    // cheriot-rtos
    def("heap.ecalls_per_seed", "count", "lower"),
    // cheriot-fault
    def("fault.check_us", "us", "lower"),
    def("fault.checks_per_seed", "count", "lower"),
    def("campaign.faulted_frac", "ratio", "lower"),
    // cheriot-farm
    def("farm.quantum_frac", "ratio", "higher"),
    def("farm.route_frac", "ratio", "lower"),
    def("farm.serial_frac", "ratio", "lower"),
    def("farm.route_ns_per_frame", "ns", "lower"),
    def("farm.frames_routed", "count", "higher"),
    def("farm.barrier_wait_frac", "ratio", "lower"),
    def("farm.two_worker_wall_s", "s", "lower"),
    def("farm.two_worker_cpu_s", "s", "lower"),
    // cheriot-diff
    def("diff.golden_frac", "ratio", "lower"),
    def("diff.generate_frac", "ratio", "lower"),
    def("diff.pair_ms.stepwise", "ms", "lower"),
    def("diff.pair_ms.cached", "ms", "lower"),
    def("diff.pair_ms.chained", "ms", "lower"),
    def("diff.pairs_per_seed", "count", "lower"),
    // the benchmark's own spans
    def("trace.overhead_frac", "ratio", "lower"),
];

/// Everything one untraced run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Items per reference second ([`clock::host_speed`]), one value
    /// per measured unit.
    pub throughput: Vec<f64>,
    /// Host speed around each measured unit.
    pub host_speed: Vec<f64>,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak RSS of the process over the set-ups and the warm-up unit,
    /// MiB: the memory one unit needs. Later units are left out because
    /// allocator fragmentation from repeating a unit can add a couple of
    /// MiB at random.
    pub peak_rss_mb: f64,
    /// Units run and checked, the warm-up included.
    pub attempted: u64,
    /// Units that failed a correctness check.
    pub failed: u64,
    /// What went wrong, one line per failed unit.
    pub failures: Vec<String>,
    /// The `sim_digest` every unit must reproduce.
    pub digest: Option<u64>,
}

/// Runs `w` untraced: [`SETUP_REPS`] timed set-ups, one warm-up unit,
/// then measured units until `seconds` of wall time have passed (and at
/// least [`MIN_UNITS`]). Each unit's rate (items per on-CPU second) is
/// divided by the mean host speed probed right before and after it. Every unit's digest
/// must equal the warm-up's, and at [`DEFAULT_SEED`] with
/// [`Sizes::FULL`] the committed one.
pub fn measure(w: Workload, seed: u64, sizes: &Sizes, seconds: f64) -> Measured {
    let mut out = Measured::default();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t0 = clock::wall_s();
        let b = setup(w, seed, sizes);
        out.setup_s.push(clock::wall_s() - t0);
        bench = Some(b);
    }
    let mut bench = bench.expect("SETUP_REPS > 0");
    out.digest = (seed == DEFAULT_SEED && *sizes == Sizes::FULL).then(|| expected_digest(w));
    let check = |out: &mut Measured, r: Result<Unit, String>| -> Option<Unit> {
        out.attempted += 1;
        let verdict = r.and_then(|u| match out.digest {
            Some(d) if d != u.digest => Err(format!(
                "sim_digest {:#018x} differs from {d:#018x}",
                u.digest
            )),
            _ => {
                out.digest = Some(u.digest);
                Ok(u)
            }
        });
        verdict
            .map_err(|e| {
                out.failed += 1;
                out.failures.push(e);
            })
            .ok()
    };
    let warm = bench.unit();
    check(&mut out, warm);
    out.peak_rss_mb = clock::peak_rss_mb();
    let start = clock::wall_s();
    let mut before = clock::host_speed();
    while out.throughput.len() < MIN_UNITS || clock::wall_s() - start < seconds {
        let c0 = clock::thread_cpu_s();
        let r = bench.unit();
        let cpu = clock::thread_cpu_s() - c0;
        let after = clock::host_speed();
        let host = (before + after) / 2.0;
        before = after;
        if let Some(u) = check(&mut out, r) {
            out.throughput.push(stats::ratio(u.items, cpu) / host);
            out.host_speed.push(host);
        } else if out.failed as usize > MIN_UNITS {
            break;
        }
    }
    out
}

/// Per-layer values a traced run produced, keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one traced run produced.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Per-layer values (names not listed are 0: layer not reached).
    pub layers: Layers,
    /// Cross-checks the run made (re-drive against product, tiers
    /// against each other); all passed if this value is returned.
    pub checks: u64,
}

/// Runs the traced pass of `w`: re-drives the workload from public calls
/// with a span around each call into a layer, cross-checks the re-drive
/// against the product, and derives the per-layer metrics. `Err` names
/// the cross-check that failed.
pub fn traced(w: Workload, seed: u64, sizes: &Sizes, t: &mut Tracer) -> Result<Traced, String> {
    match w {
        Workload::Coremark => coremark::trace(seed, sizes, t),
        Workload::Campaign => campaign::trace(seed, sizes, t),
        Workload::Farm => farm::trace(seed, sizes, t),
        Workload::DiffFuzz => diff::trace(seed, sizes, t),
    }
}

/// Wall nanoseconds of `run`, which must reproduce `expected`. Traced
/// passes run the product once before their re-drive and time it only
/// here, after, so the end-to-end time they compare against is as warm
/// as the re-drive (allocator, page faults, caches).
pub(crate) fn time_again<T: PartialEq + std::fmt::Debug>(
    expected: &T,
    run: impl FnOnce() -> Result<T, String>,
) -> Result<f64, String> {
    let t0 = clock::wall_ns();
    let got = run()?;
    let ns = (clock::wall_ns() - t0) as f64;
    if got != *expected {
        return Err(format!("repeat run gave {got:?}, first gave {expected:?}"));
    }
    Ok(ns)
}

/// Block-cache dispatch ratios from a [`cheriot_core::BlockCacheStats`]
/// delta and the instructions retired meanwhile.
pub(crate) fn dispatch_layers(
    layers: &mut Layers,
    d: &cheriot_core::BlockCacheStats,
    instructions: u64,
) {
    let entries = (d.hits + d.misses + d.chain_hits) as f64;
    layers.insert(
        "dispatch.chain_hit_rate",
        stats::ratio(d.chain_hits as f64, entries),
    );
    layers.insert(
        "dispatch.sentry_ic_hit_rate",
        stats::ratio(
            d.sentry_ic_hits as f64,
            (d.sentry_ic_hits + d.sentry_ic_misses) as f64,
        ),
    );
    layers.insert(
        "dispatch.insns_per_dispatch",
        stats::ratio(instructions as f64, (d.hits + d.misses) as f64),
    );
}

/// `after - before` of every counter [`dispatch_layers`] reads.
pub(crate) fn block_delta(
    after: &cheriot_core::BlockCacheStats,
    before: &cheriot_core::BlockCacheStats,
) -> cheriot_core::BlockCacheStats {
    cheriot_core::BlockCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        chain_hits: after.chain_hits - before.chain_hits,
        sentry_ic_hits: after.sentry_ic_hits - before.sentry_ic_hits,
        sentry_ic_misses: after.sentry_ic_misses - before.sentry_ic_misses,
        ..*after
    }
}

/// Sums the counters [`dispatch_layers`] reads.
pub(crate) fn block_add(
    acc: &mut cheriot_core::BlockCacheStats,
    d: &cheriot_core::BlockCacheStats,
) {
    acc.hits += d.hits;
    acc.misses += d.misses;
    acc.chain_hits += d.chain_hits;
    acc.sentry_ic_hits += d.sentry_ic_hits;
    acc.sentry_ic_misses += d.sentry_ic_misses;
}
