//! One golden run per (seed, core) is recorded and every dispatch mode is
//! checked against it. The recording must stop at exactly the boundaries
//! lockstep used to compare at when it stepped a fresh golden model per
//! engine, and sharing it between modes must not let a bug in one mode
//! hide or be charged to another.

use cheriot_core::insn::Instr;
use cheriot_core::machine::Machine;
use cheriot_core::pipeline::CoreModel;
use cheriot_diff::{
    core_models, generate, plant_xor_bug, run_fuzz_with, DiffConfig, FuzzReport, Golden, Profile,
    Reference,
};

/// The golden side of lockstep as it stood when each engine stepped its
/// own golden model: a checkpoint after every atom that trapped and after
/// the first atom to reach `fork_at`. Returns each checkpoint's
/// `(cycles, trap, fork)` and the exit cycle.
fn per_pair_checkpoints(
    instrs: &[Instr],
    core: CoreModel,
    budget: u64,
    fork_at: Option<u64>,
) -> (Vec<(u64, bool, bool)>, u64) {
    let mut g = Golden::new(core, instrs);
    let mut forked = fork_at.is_none();
    let mut points = Vec::new();
    while g.halted.is_none() && g.cycles < budget {
        let trapped = g.step();
        let fork_here = !forked && fork_at.is_some_and(|f| g.cycles >= f);
        if trapped || fork_here {
            points.push((g.cycles, trapped, fork_here));
            forked |= fork_here;
        }
    }
    (points, g.cycles)
}

#[test]
fn recording_visits_the_per_pair_checkpoints() {
    let cfg = DiffConfig::default();
    let (mut forks, mut traps) = (0, 0);
    for seed in 1..=256 {
        let prog = generate(seed, &cfg.profile);
        let instrs = prog.instrs();
        for (core_name, core) in core_models() {
            let mut dry = Golden::new(core, &instrs);
            dry.run(cfg.budget_cycles, None);
            let fork_at = (dry.cycles >= 4).then_some(dry.cycles / 2);
            let reference = Reference::record(&prog, &instrs, core, cfg.budget_cycles, fork_at);
            let checkpoints: Vec<_> = reference.checkpoints().collect();
            let recorded: Vec<_> = checkpoints
                .iter()
                .map(|c| (c.cycles, c.trap, c.fork))
                .collect();
            let (expected, exit) = per_pair_checkpoints(&instrs, core, cfg.budget_cycles, fork_at);
            assert_eq!(recorded, expected, "seed {seed} on {core_name}");
            // `Golden::run` lists the checkpoints by the same rule.
            let listed = Golden::new(core, &instrs).run(cfg.budget_cycles, fork_at);
            assert_eq!(listed, checkpoints, "seed {seed} on {core_name}");
            assert_eq!(
                reference.golden().cycles,
                exit,
                "seed {seed} on {core_name}"
            );
            forks += recorded.iter().filter(|c| c.2).count();
            traps += recorded.iter().filter(|c| c.1).count();
        }
    }
    // The sweep must cover both kinds of checkpoint.
    assert!(forks > 256 && traps > 256, "{forks} forks, {traps} traps");
}

/// The planted-bug campaign (seeds 1–8, binary profile) with the XOR bug
/// planted only in engines whose config satisfies `planted`.
fn plant_in(planted: fn(&Machine) -> bool) -> FuzzReport {
    let cfg = DiffConfig {
        seed_base: 1,
        count: 8,
        threads: 2,
        profile: Profile::binary_safe(),
        ..DiffConfig::default()
    };
    let tweak = move |m: &mut Machine| {
        if planted(m) {
            plant_xor_bug(m);
        }
    };
    let report = run_fuzz_with(&cfg, Some(&tweak));
    assert_eq!(
        report.pairs_run,
        6 * u64::from(cfg.count),
        "6 pairs per seed"
    );
    report
}

/// Every divergence is charged to `mode` and shrunk to a small repro
/// that still holds the XOR under test.
fn assert_caught_in(report: &FuzzReport, mode: &str) {
    assert!(!report.passed(), "a bug planted in {mode} escaped");
    for d in &report.divergences {
        assert_eq!(d.dispatch, mode, "seed {}: {}", d.seed, d.checkpoint);
        assert!(
            d.program_len <= 20,
            "shrunk repro too large: {} instructions",
            d.program_len
        );
        assert!(
            d.listing.iter().any(|l| l.contains("Xor")),
            "shrunk repro lost the XOR under test:\n{}",
            d.listing.join("\n")
        );
    }
}

#[test]
fn bug_planted_only_in_chained_dispatch_is_charged_to_chained() {
    let report = plant_in(|m| m.cfg().block_chain);
    assert_caught_in(&report, "chained");
}

#[test]
fn bug_planted_only_in_stepwise_dispatch_is_charged_to_stepwise() {
    let report = plant_in(|m| !m.cfg().block_cache);
    assert_caught_in(&report, "stepwise");
}
