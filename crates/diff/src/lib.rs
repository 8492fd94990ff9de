//! # cheriot-diff — differential ISA fuzzing with a golden reference model
//!
//! The engine crate (`cheriot-core`) is fast because it is clever:
//! predecoded basic blocks, block chaining, superblock promotion, batched
//! event loops, a decoded-capability side cache. Every one of those
//! optimizations is a place where the architectural semantics could
//! silently drift. This crate is the counterweight:
//!
//! - [`golden`] — a deliberately naive, one-file reference interpreter
//!   over the *same* architectural state types (no caches, no batching,
//!   no side tables).
//! - [`generator`] — a weighted random-but-valid program generator biased
//!   toward capability operations, sentries, interrupt-posture changes,
//!   and bounds-representability edges, with structural well-formedness
//!   guarantees (no sandbox escape, guaranteed termination).
//! - [`lockstep`] — runs each program on the golden model and an engine
//!   configuration in lockstep, comparing *full* architectural state at
//!   every trap, at a mid-run snapshot/restore round-trip, and at exit,
//!   with instruction-granular first-divergence triage.
//! - [`report`] — typed text/JSON campaign reports over the workspace's
//!   JSON codec, [`cheriot_trace::json`].
//!
//! [`run_fuzz`] fans seeds out over the work-stealing pool and compares
//! every program against all three dispatch modes × both core models.
//! Confirmed divergences are automatically shrunk to a minimal repro.
//!
//! ## Example
//!
//! ```
//! use cheriot_diff::{run_fuzz, DiffConfig};
//!
//! let report = run_fuzz(&DiffConfig {
//!     count: 4,
//!     ..DiffConfig::default()
//! });
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod golden;
pub mod lockstep;
pub mod report;

pub use generator::{generate, shrink, Op, Profile, Program};
pub use golden::{Checkpoint, CheckpointKind, Coverage, Golden, GoldenMem, OPCODE_NAMES};
pub use lockstep::{build_engine, compare, run_pair, Divergence, Mismatch, Tweak, DISPATCH_MODES};
pub use report::FuzzReport;

use cheriot_core::insn::{AluOp, Instr, Reg};
use cheriot_core::machine::{layout, Machine};
use cheriot_core::pipeline::CoreModel;
use cheriot_core::sched::work_steal_with;

/// Campaign configuration.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// First seed (seeds are `seed_base..seed_base + count`).
    pub seed_base: u64,
    /// Number of seeds.
    pub count: u32,
    /// Worker threads for the campaign.
    pub threads: usize,
    /// Cycle budget per program run (a backstop — generated programs
    /// normally halt well before it).
    pub budget_cycles: u64,
    /// What the generator may emit.
    pub profile: Profile,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            seed_base: 1,
            count: 256,
            threads: 1,
            budget_cycles: 60_000,
            profile: Profile::full(),
        }
    }
}

/// The two core models under test.
pub fn core_models() -> [(&'static str, CoreModel); 2] {
    [("ibex", CoreModel::ibex()), ("flute", CoreModel::flute())]
}

/// Outcome of one seed across all engine configurations.
#[derive(Clone, Debug)]
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// Golden instructions retired (per core, summed).
    pub instructions: u64,
    /// Engine pairs compared.
    pub pairs: u64,
    /// Coverage the golden runs observed.
    pub coverage: Coverage,
    /// The first divergence found for this seed (shrunk), if any.
    pub divergence: Option<Divergence>,
}

/// Runs one seed: generates its program, then lockstep-compares it on
/// every dispatch mode × core model, round-tripping the engine through
/// snapshot/restore halfway along. On divergence, shrinks the program to
/// a minimal repro and reports that.
pub fn run_seed(seed: u64, cfg: &DiffConfig, tweak: Option<Tweak>) -> SeedResult {
    let prog = generate(seed, &cfg.profile);
    let mut result = SeedResult {
        seed,
        instructions: 0,
        pairs: 0,
        coverage: Coverage::default(),
        divergence: None,
    };
    for (core_name, core) in core_models() {
        // A golden-only dry run fixes the fork point (half the run) and
        // harvests coverage once per core.
        let mut dry = Golden::new(core, &prog.instrs());
        dry.run(cfg.budget_cycles, None);
        result.instructions += dry.stats.instructions;
        result.coverage.merge(&dry.coverage);
        let fork_at = if dry.cycles >= 4 {
            Some(dry.cycles / 2)
        } else {
            None
        };
        for (dispatch_name, dispatch) in DISPATCH_MODES {
            result.pairs += 1;
            match run_pair(
                &prog,
                core,
                core_name,
                dispatch_name,
                dispatch,
                cfg.budget_cycles,
                fork_at,
                tweak,
            ) {
                Ok(_) => {}
                Err(d) => {
                    if result.divergence.is_none() {
                        result.divergence = Some(shrink_divergence(
                            &prog,
                            *d,
                            core,
                            core_name,
                            dispatch_name,
                            dispatch,
                            cfg,
                            tweak,
                        ));
                    }
                }
            }
        }
    }
    result
}

/// Shrinks the program behind a divergence and re-derives the report from
/// the minimal repro.
#[allow(clippy::too_many_arguments)]
fn shrink_divergence(
    prog: &Program,
    original: Divergence,
    core: CoreModel,
    core_name: &str,
    dispatch_name: &str,
    dispatch: (bool, bool),
    cfg: &DiffConfig,
    tweak: Option<Tweak>,
) -> Divergence {
    let still_fails = |c: &Program| {
        run_pair(
            c,
            core,
            core_name,
            dispatch_name,
            dispatch,
            cfg.budget_cycles,
            None,
            tweak,
        )
        .is_err()
    };
    let small = shrink(prog, &still_fails);
    match run_pair(
        &small,
        core,
        core_name,
        dispatch_name,
        dispatch,
        cfg.budget_cycles,
        None,
        tweak,
    ) {
        Err(d) => *d,
        // The shrunk program stopped failing (shouldn't happen — shrink
        // verified every step); fall back to the original report.
        Ok(_) => original,
    }
}

/// Runs a full campaign over the work-stealing pool.
pub fn run_fuzz(cfg: &DiffConfig) -> FuzzReport {
    run_fuzz_with(cfg, None)
}

/// [`run_fuzz`] with an engine tweak — the planted-bug harness for
/// proving the fuzzer catches real engine corruption.
pub fn run_fuzz_with(cfg: &DiffConfig, tweak: Option<Tweak>) -> FuzzReport {
    let results = work_steal_with(
        cfg.count as usize,
        cfg.threads,
        || (),
        |(), i| run_seed(cfg.seed_base + i as u64, cfg, tweak),
    );
    let mut report = FuzzReport {
        seed_base: cfg.seed_base,
        count: cfg.count,
        threads: cfg.threads,
        budget_cycles: cfg.budget_cycles,
        pairs_run: 0,
        instructions: 0,
        coverage: Coverage::default(),
        divergences: Vec::new(),
    };
    for r in results {
        report.pairs_run += r.pairs;
        report.instructions += r.instructions;
        report.coverage.merge(&r.coverage);
        report.divergences.extend(r.divergence);
    }
    report
}

/// The planted engine bug used by the self-test harness: rewrites the
/// first XOR (with a live destination) in loaded code into an AND — on
/// the engine side only. A correct differential fuzzer must catch this
/// and shrink it to a small repro; see `tests/planted_bug.rs`.
pub fn plant_xor_bug(m: &mut Machine) {
    let mut addr = layout::CODE_BASE;
    while addr < m.code_end() {
        if let Some(Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        }) = m.code_at(addr)
        {
            if rd != Reg::ZERO {
                m.patch_code(
                    addr,
                    Instr::Op {
                        op: AluOp::And,
                        rd,
                        rs1,
                        rs2,
                    },
                )
                .expect("patching decoded code cannot fail");
                return;
            }
        }
        addr += 4;
    }
}
