//! `diff_fuzz`: `run_fuzz` over generated programs, full profile, the
//! golden interpreter against all six engine configurations, one
//! thread. Programs are short and trap-heavy and go through all three
//! dispatch tiers on both cores, with a `Machine` build and a snapshot
//! round trip per pair: the only workload where the stepwise and cached
//! tiers carry load.

use crate::digest::Digest;
use crate::spans::Tracer;
use crate::{first_seed, stats, Bench, Layers, Sizes, Traced, Unit};
use cheriot_core::BlockCacheStats;
use cheriot_diff::{
    build_engine, core_models, generate, run_fuzz, run_pair, Coverage, DiffConfig, Golden, Program,
    DISPATCH_MODES,
};

/// The fuzz campaign of one unit: `seeds` consecutive seeds, the
/// default (full) profile and budget, one worker.
pub fn config(seed: u64, seeds: u32) -> DiffConfig {
    DiffConfig {
        seed_base: first_seed(seed, seeds),
        count: seeds,
        threads: 1,
        ..DiffConfig::default()
    }
}

/// The totals a fuzz campaign reports: what the `sim_digest` covers.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Engine pairs compared.
    pub pairs: u64,
    /// Golden instructions retired.
    pub instructions: u64,
    /// Coverage observed by the golden runs.
    pub coverage: Coverage,
    /// Seeds with a divergence.
    pub divergences: u64,
}

impl Totals {
    /// The `sim_digest` of these totals (trap causes in sorted order).
    pub fn digest(&self) -> u64 {
        let mut causes = self.coverage.trap_causes.clone();
        causes.sort_unstable();
        let mut d = Digest::default();
        d.add(self.pairs)
            .add(self.instructions)
            .add(self.coverage.opcodes)
            .add(u64::from(self.coverage.postures))
            .add(self.divergences);
        for c in causes {
            d.add(u64::from(c));
        }
        d.finish()
    }
}

/// Runs `cfg` and checks it: any divergence fails the unit.
pub fn run_checked(cfg: &DiffConfig) -> Result<Totals, String> {
    let report = run_fuzz(cfg);
    if !report.passed() {
        return Err(format!(
            "{} fuzz seeds diverged:\n{}",
            report.divergences.len(),
            report.render_text()
        ));
    }
    Ok(Totals {
        pairs: report.pairs_run,
        instructions: report.instructions,
        coverage: report.coverage,
        divergences: report.divergences.len() as u64,
    })
}

/// One fuzz campaign per unit.
pub(crate) struct DiffFuzz {
    cfg: DiffConfig,
}

impl DiffFuzz {
    /// Times `generate` for the unit's seeds; `run_fuzz` then generates
    /// its own copies.
    pub(crate) fn setup(seed: u64, sizes: &Sizes) -> DiffFuzz {
        let cfg = config(seed, sizes.diff_seeds);
        let programs: Vec<Program> = (cfg.seed_base..cfg.seed_base + u64::from(cfg.count))
            .map(|s| generate(s, &cfg.profile))
            .collect();
        std::hint::black_box(programs);
        DiffFuzz { cfg }
    }
}

impl Bench for DiffFuzz {
    fn unit(&mut self) -> Result<Unit, String> {
        let totals = run_checked(&self.cfg)?;
        Ok(Unit {
            items: f64::from(self.cfg.count),
            digest: totals.digest(),
        })
    }
}

/// Re-drives `run_fuzz(cfg)` from public calls with a span around each:
/// `generate`, a golden dry run per core (`Golden::run`, which fixes
/// the fork point and harvests coverage), and `run_pair` per dispatch
/// mode. Returns the same totals `run_fuzz` reports.
pub fn redrive(cfg: &DiffConfig, t: &mut Tracer) -> Totals {
    let mut totals = Totals::default();
    for seed in cfg.seed_base..cfg.seed_base + u64::from(cfg.count) {
        t.set_unit(seed);
        let prog = t.span("diff.generate", || generate(seed, &cfg.profile));
        let mut diverged = false;
        for (core_name, core) in core_models() {
            let dry = t.span("diff.golden", || {
                let mut g = Golden::new(core, &prog.instrs());
                g.run(cfg.budget_cycles, None);
                g
            });
            totals.instructions += dry.stats.instructions;
            totals.coverage.merge(&dry.coverage);
            let fork_at = (dry.cycles >= 4).then_some(dry.cycles / 2);
            for ((mode, dispatch), (span, _)) in DISPATCH_MODES.into_iter().zip(PAIR_NAMES) {
                totals.pairs += 1;
                let r = t.span(span, || {
                    run_pair(
                        &prog,
                        core,
                        core_name,
                        mode,
                        dispatch,
                        cfg.budget_cycles,
                        fork_at,
                        None,
                    )
                });
                diverged |= r.is_err();
            }
        }
        totals.divergences += u64::from(diverged);
    }
    totals
}

/// Span and metric name of each dispatch mode's `run_pair`, in
/// [`DISPATCH_MODES`] order (stepwise, cached, chained).
const PAIR_NAMES: [(&str, &str); 3] = [
    ("diff.pair.stepwise", "diff.pair_ms.stepwise"),
    ("diff.pair.cached", "diff.pair_ms.cached"),
    ("diff.pair.chained", "diff.pair_ms.chained"),
];

/// Traced pass: `run_fuzz`, the re-drive (whose totals must equal
/// `run_fuzz`'s), `run_fuzz` again timed ([`crate::time_again`]) and,
/// outside the re-drive, each program on a bare chained engine per core
/// for the block-cache counters.
pub(crate) fn trace(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Result<Traced, String> {
    let cfg = config(seed, sizes.diff_seeds);
    let expected = run_checked(&cfg)?;

    let id = t.open("diff.redrive");
    let got = redrive(&cfg, t);
    let redrive_ns = t.close(id) as f64;
    if got.digest() != expected.digest() {
        return Err(format!(
            "diff re-drive totals {got:?} differ from run_fuzz {expected:?}"
        ));
    }
    let e2e_ns = crate::time_again(&expected.digest(), || run_checked(&cfg).map(|t| t.digest()))?;

    let mut blocks = BlockCacheStats::default();
    let mut instructions = 0;
    let (_, chained) = DISPATCH_MODES[2];
    for s in cfg.seed_base..cfg.seed_base + u64::from(cfg.count) {
        let instrs = generate(s, &cfg.profile).instrs();
        for (_, core) in core_models() {
            let mut m = build_engine(&instrs, core, chained, None);
            m.run(cfg.budget_cycles);
            crate::block_add(&mut blocks, &m.block_stats());
            instructions += m.stats.instructions;
        }
    }

    let seeds = f64::from(cfg.count);
    let mut layers = Layers::new();
    crate::dispatch_layers(&mut layers, &blocks, instructions);
    layers.insert("compile.blocks_built", blocks.misses as f64);
    layers.insert(
        "diff.golden_frac",
        t.total_ns("diff.golden") as f64 / redrive_ns,
    );
    layers.insert(
        "diff.generate_frac",
        t.total_ns("diff.generate") as f64 / redrive_ns,
    );
    for (span, metric) in PAIR_NAMES {
        layers.insert(metric, t.mean_ns(span) / 1e6);
    }
    layers.insert("diff.pairs_per_seed", stats::ratio(got.pairs as f64, seeds));
    layers.insert("trace.overhead_frac", redrive_ns / e2e_ns - 1.0);
    Ok(Traced { layers, checks: 1 })
}
