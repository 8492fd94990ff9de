//! Lockstep execution of a generated program on the golden model and the
//! engine configurations, with full-state comparison and first-divergence
//! triage.
//!
//! The protocol leans on one architectural fact: every trap/interrupt
//! entry is an inter-instruction boundary, and both the golden model and
//! every engine dispatch mode re-check their cycle budget at those same
//! boundaries. So the golden model steps one atom at a time, and at each
//! comparison point it crosses (a trap, the snapshot fork, exit) the
//! engine is *driven to the same cycle count* with `Machine::run`. If the
//! two are byte-identical the engine lands exactly on the boundary; if
//! not, the cycle counters themselves disagree and the comparison reports
//! it — there is no way for a divergent engine to sneak past a
//! checkpoint.
//!
//! The golden run is deterministic, so it is **recorded once per core,
//! checked per mode**: a [`Reference`] keeps the compared state at every
//! checkpoint and the final golden model, and each dispatch mode's engine
//! is checked against that one recording.
//!
//! Comparison is **total state**, not spot checks: the whole [`Cpu`]
//! (register file with tags, PCC, all SCRs, interrupt flags, trap CSRs),
//! cycle counter, `mtimecmp`, retirement statistics, the in-flight
//! load-to-use hazard, trap/exit records — and, at exit, every SRAM byte
//! and every capability tag, compared page by page and 64 tags at a time.

use crate::generator::Program;
use crate::golden::{Checkpoint, Golden};
use cheriot_core::cpu::Cpu;
use cheriot_core::insn::{Instr, Reg};
use cheriot_core::machine::{layout, ExitReason, Machine, MachineConfig, Stats};
use cheriot_core::mem::{GRANULE, PAGE_SIZE, PAGE_TAG_WORDS};
use cheriot_core::pipeline::CoreModel;
use cheriot_core::trap::TrapCause;
use std::fmt::Debug;

/// `(block_cache, block_chain)` triples the fuzzer compares.
pub const DISPATCH_MODES: [(&str, (bool, bool)); 3] = [
    ("stepwise", (false, false)),
    ("cached", (true, false)),
    ("chained", (true, true)),
];

/// A hook applied to the engine machine after program load — the planted
/// -bug harness uses this to corrupt one instruction on the engine side
/// only.
pub type Tweak<'a> = &'a (dyn Fn(&mut Machine) + Sync);

/// One field-level disagreement between golden and engine state.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Which piece of architectural state disagreed.
    pub field: String,
    /// The golden model's value.
    pub golden: String,
    /// The engine's value.
    pub engine: String,
}

/// The first cycle at which a re-run disagreed, for triage.
#[derive(Clone, Debug)]
pub struct FirstDivergence {
    /// Golden cycle count right after the diverging atom.
    pub cycle: u64,
    /// PC of the instruction the golden model executed at that atom.
    pub pc: u32,
    /// Field-level deltas at that point.
    pub deltas: Vec<Mismatch>,
}

/// A confirmed divergence between the golden model and one engine
/// configuration.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Seed of the generating program.
    pub seed: u64,
    /// Core model name (`ibex` / `flute`).
    pub core: String,
    /// Dispatch mode name (`stepwise` / `cached` / `chained`).
    pub dispatch: String,
    /// Which checkpoint caught it (`trap@<cycle>`, `fork@<cycle>`,
    /// `exit@<cycle>`).
    pub checkpoint: String,
    /// Everything that disagreed at the checkpoint.
    pub mismatches: Vec<Mismatch>,
    /// Instruction-level triage from a fresh re-run.
    pub first: Option<FirstDivergence>,
    /// Instruction count of the program that produced this report (after
    /// shrinking, if shrinking ran).
    pub program_len: usize,
    /// The (possibly shrunk) program, disassembled one instruction per
    /// line.
    pub listing: Vec<String>,
}

/// Builds an engine machine for `core` and `dispatch`, loads `prog`, and
/// applies the optional tweak.
pub fn build_engine(
    prog: &[Instr],
    core: CoreModel,
    dispatch: (bool, bool),
    tweak: Option<Tweak>,
) -> Machine {
    let mut cfg = MachineConfig::new(core);
    cfg.block_cache = dispatch.0;
    cfg.block_chain = dispatch.1;
    debug_assert!(cfg.load_filter, "golden model assumes the load filter");
    debug_assert!(cfg.hwm_enabled, "golden model assumes stack HWM tracking");
    let mut m = Machine::new(cfg);
    m.load_program(prog);
    m.set_entry(layout::CODE_BASE);
    if let Some(t) = tweak {
        t(&mut m);
    }
    m
}

/// Drives `m` forward until it reaches (or passes) `target` cycles or
/// halts. A cycle-faithful engine stops exactly on the boundary.
fn drive(m: &mut Machine, target: u64) {
    while m.exit_status().is_none() && m.cycles < target {
        m.run(target - m.cycles);
    }
}

/// The architectural state compared at every checkpoint: everything but
/// memory, which is compared once, at exit.
struct State {
    cycles: u64,
    cpu: Cpu,
    mtimecmp: u64,
    stats: Stats,
    pending_use: Option<(Reg, u64)>,
    halted: Option<ExitReason>,
    last_trap: Option<TrapCause>,
}

impl State {
    fn of(g: &Golden) -> State {
        State {
            cycles: g.cycles,
            cpu: g.cpu.clone(),
            mtimecmp: g.mtimecmp,
            stats: g.stats,
            pending_use: g.pending_use,
            halted: g.halted,
            last_trap: g.last_trap,
        }
    }
}

/// One golden run of a program on one core, recorded once so that any
/// number of engine configurations can be checked against it: the
/// compared state at every [`Checkpoint`], and the final golden model,
/// memory and tags included, for the exit compare.
pub struct Reference {
    seed: u64,
    budget: u64,
    checkpoints: Vec<(Checkpoint, State)>,
    golden: Golden,
}

impl Reference {
    /// Runs `instrs` (`prog` lowered) on a fresh golden model for `core`,
    /// within `budget` cycles, recording the state at every checkpoint of
    /// a run that forks at `fork_at` cycles, if given.
    pub fn record(
        prog: &Program,
        instrs: &[Instr],
        core: CoreModel,
        budget: u64,
        fork_at: Option<u64>,
    ) -> Reference {
        let mut golden = Golden::new(core, instrs);
        let mut fork_at = fork_at;
        let mut checkpoints = Vec::new();
        while let Some(cp) = golden.next_checkpoint(budget, &mut fork_at) {
            checkpoints.push((cp, State::of(&golden)));
        }
        Reference {
            seed: prog.seed,
            budget,
            checkpoints,
            golden,
        }
    }

    /// The recorded checkpoints, in run order.
    pub fn checkpoints(&self) -> impl Iterator<Item = Checkpoint> + '_ {
        self.checkpoints.iter().map(|&(cp, _)| cp)
    }

    /// The golden model as the run left it.
    pub fn golden(&self) -> &Golden {
        &self.golden
    }

    /// Checks the `dispatch` engine for the recorded core against the
    /// recording: at each checkpoint it drives the engine to the recorded
    /// cycle count and compares state, round-trips it through
    /// snapshot/restore at the fork and compares again, and at exit
    /// compares state, memory and tags. The first disagreement is
    /// reported with instruction-level triage.
    pub fn check(
        &self,
        core_name: &str,
        dispatch_name: &str,
        dispatch: (bool, bool),
        tweak: Option<Tweak>,
    ) -> Result<(), Box<Divergence>> {
        let (instrs, core) = (&self.golden.code, self.golden.core);
        let mut m = build_engine(instrs, core, dispatch, tweak);
        let diverged = |checkpoint: String, mismatches: Vec<Mismatch>| {
            Box::new(Divergence {
                seed: self.seed,
                core: core_name.to_string(),
                dispatch: dispatch_name.to_string(),
                checkpoint,
                mismatches,
                first: triage(instrs, core, dispatch, self.budget, tweak),
                program_len: instrs.len(),
                listing: instrs.iter().map(|i| format!("{i:?}")).collect(),
            })
        };

        for (cp, state) in &self.checkpoints {
            drive(&mut m, cp.cycles);
            let mm = compare_state(state, &m);
            if !mm.is_empty() {
                let kind = if cp.trap { "trap" } else { "fork" };
                return Err(diverged(format!("{kind}@{}", cp.cycles), mm));
            }
            if cp.fork {
                // Snapshot/restore round-trip mid-run: the forked machine
                // must be indistinguishable from the original.
                m = m.snapshot().to_machine();
                let mm = compare_state(state, &m);
                if !mm.is_empty() {
                    return Err(diverged(format!("snapshot@{}", cp.cycles), mm));
                }
            }
        }
        let g = &self.golden;
        drive(&mut m, g.cycles);
        let mm = compare(g, &m, true);
        if !mm.is_empty() {
            return Err(diverged(format!("exit@{}", g.cycles), mm));
        }
        Ok(())
    }
}

/// Runs `prog` in lockstep on the golden model and the `(core, dispatch)`
/// engine: records the golden run ([`Reference::record`]) and checks the
/// engine against it ([`Reference::check`]). `budget` bounds the run;
/// `fork_at` (cycles) round-trips the engine through snapshot/restore at
/// the first boundary at or past it. Returns the surviving golden model on
/// success so callers can harvest coverage.
#[allow(clippy::too_many_arguments)]
pub fn run_pair(
    prog: &Program,
    core: CoreModel,
    core_name: &str,
    dispatch_name: &str,
    dispatch: (bool, bool),
    budget: u64,
    fork_at: Option<u64>,
    tweak: Option<Tweak>,
) -> Result<Golden, Box<Divergence>> {
    let reference = Reference::record(prog, &prog.instrs(), core, budget, fork_at);
    reference.check(core_name, dispatch_name, dispatch, tweak)?;
    Ok(reference.golden)
}

/// Full architectural-state comparison; `with_memory` additionally compares the whole SRAM bank (bytes and
/// capability tags) — done at exit, where it proves the whole run, not
/// just the live registers.
pub fn compare(g: &Golden, m: &Machine, with_memory: bool) -> Vec<Mismatch> {
    let mut out = compare_state(&State::of(g), m);
    if with_memory {
        compare_memory(g, m, &mut out);
    }
    out
}

/// Compares every piece of recorded state with the engine's. Fields are
/// compared by value and formatted only when they differ.
fn compare_state(g: &State, m: &Machine) -> Vec<Mismatch> {
    let mut out = Vec::new();
    check(&mut out, "cycles", &g.cycles, &m.cycles);
    if g.cpu != m.cpu {
        let (gc, ec) = (&g.cpu, &m.cpu);
        for i in 0..16u8 {
            check(
                &mut out,
                &format!("x{i}"),
                &gc.read(Reg(i)),
                &ec.read(Reg(i)),
            );
        }
        check(&mut out, "pcc", &gc.pcc, &ec.pcc);
        check(&mut out, "mtcc", &gc.mtcc, &ec.mtcc);
        check(&mut out, "mtdc", &gc.mtdc, &ec.mtdc);
        check(&mut out, "mscratchc", &gc.mscratchc, &ec.mscratchc);
        check(&mut out, "mepcc", &gc.mepcc, &ec.mepcc);
        check(
            &mut out,
            "interrupts_enabled",
            &gc.interrupts_enabled,
            &ec.interrupts_enabled,
        );
        check(
            &mut out,
            "prev_interrupts_enabled",
            &gc.prev_interrupts_enabled,
            &ec.prev_interrupts_enabled,
        );
        check(&mut out, "mcause", &gc.mcause, &ec.mcause);
        check(&mut out, "mtval", &gc.mtval, &ec.mtval);
        check(&mut out, "mshwm", &gc.mshwm, &ec.mshwm);
        check(&mut out, "mshwmb", &gc.mshwmb, &ec.mshwmb);
    }
    check(&mut out, "mtimecmp", &g.mtimecmp, &m.mtimecmp);
    check(&mut out, "stats", &g.stats, &m.stats);
    check(
        &mut out,
        "pending_load_use",
        &g.pending_use,
        &m.pending_load_use(),
    );
    check(&mut out, "exit", &g.halted, &m.exit_status());
    check(&mut out, "last_trap", &g.last_trap, &m.last_trap());
    out
}

/// Records a mismatch of `field` if the two values differ, formatting
/// them only then.
fn check<T: PartialEq + Debug>(out: &mut Vec<Mismatch>, field: &str, golden: &T, engine: &T) {
    if golden != engine {
        out.push(Mismatch {
            field: field.to_string(),
            golden: format!("{golden:?}"),
            engine: format!("{engine:?}"),
        });
    }
}

/// The exit-state memory compare over the whole bank: bytes page by page
/// (a golden page never written and an engine page holding no handle are
/// zeros, and a page zero on both sides is skipped), then every tag word,
/// 64 granules at a time. Reports the lowest differing byte (`mem[addr]`)
/// and the lowest differing tag (`tag[addr]`); banks of different sizes
/// are reported as `sram_size`, not compared over their common prefix.
fn compare_memory(g: &Golden, m: &Machine, out: &mut Vec<Mismatch>) {
    static ZEROS: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
    static ZERO_TAGS: [u64; PAGE_TAG_WORDS] = [0; PAGE_TAG_WORDS];
    if g.mem.size() != m.sram.size() {
        check(out, "sram_size", &g.mem.size(), &m.sram.size());
        return;
    }
    let base = layout::SRAM_BASE;
    let pages = m.sram.num_pages() as usize;
    for p in 0..pages {
        let (gp, ep) = match (g.mem.page(p), m.sram.page_content(p)) {
            (None, None) => continue,
            (gp, ep) => (gp.unwrap_or(&ZEROS), ep.map_or(&ZEROS, |(b, _)| b)),
        };
        if gp != ep.as_slice() {
            let off = gp
                .iter()
                .zip(ep)
                .position(|(a, b)| a != b)
                .expect("unequal pages differ somewhere");
            let addr = base + (p * PAGE_SIZE as usize + off) as u32;
            check(out, &format!("mem[{addr:#x}]"), &gp[off], &ep[off]);
            break;
        }
    }
    for p in 0..pages {
        let etags = m.sram.page_content(p).map_or(&ZERO_TAGS, |(_, t)| t);
        for (i, &et) in etags.iter().enumerate() {
            let w = p * etags.len() + i;
            let gt = g.mem.tag_word(w);
            if gt != et {
                let bit = (gt ^ et).trailing_zeros();
                let addr = base + (w as u32 * 64 + bit) * GRANULE;
                let tag = |word: u64| word >> bit & 1 == 1;
                check(out, &format!("tag[{addr:#x}]"), &tag(gt), &tag(et));
                return;
            }
        }
    }
}

/// Instruction-granular re-run: fresh golden + fresh engine, compared
/// after *every* atom, to name the first diverging instruction.
fn triage(
    instrs: &[Instr],
    core: CoreModel,
    dispatch: (bool, bool),
    budget: u64,
    tweak: Option<Tweak>,
) -> Option<FirstDivergence> {
    let mut g = Golden::new(core, instrs);
    let mut m = build_engine(instrs, core, dispatch, tweak);
    while g.halted.is_none() && g.cycles < budget {
        let pc = g.cpu.pc();
        g.step();
        drive(&mut m, g.cycles);
        let deltas = compare(&g, &m, false);
        if !deltas.is_empty() {
            return Some(FirstDivergence {
                cycle: g.cycles,
                pc,
                deltas,
            });
        }
    }
    let pc = g.cpu.pc();
    drive(&mut m, g.cycles);
    let deltas = compare(&g, &m, true);
    if !deltas.is_empty() {
        return Some(FirstDivergence {
            cycle: g.cycles,
            pc,
            deltas,
        });
    }
    None
}
