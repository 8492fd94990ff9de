//! Coherence and exactness tests for the predecoded basic-block cache:
//! self-modifying code (patching an already-executed address, cross-block
//! overwrites, program appends) must invalidate precisely, and execution
//! through the cache must be byte-identical to the stepwise interpreter —
//! same cycles, same registers, same trap PCs, same interrupt delivery
//! points, same trace output.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, BranchCond, Instr, MemWidth, Reg};
use cheriot_core::trace::{EventKind, Tracer};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};

fn machine_with(block_cache: bool) -> Machine {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    mc.block_cache = block_cache;
    Machine::new(mc)
}

/// The three dispatch modes under test: the stepwise interpreter, the
/// block cache with chaining off, and the fully chained dispatch loop.
const MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

fn machine_mode((block_cache, block_chain): (bool, bool)) -> Machine {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    mc.block_cache = block_cache;
    mc.block_chain = block_chain;
    Machine::new(mc)
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1,
        imm,
    }
}

/// Asserts complete architectural equality of two machines: cycle and
/// retirement counters, PC, every register, and the interrupt posture.
fn assert_same_state(a: &Machine, b: &Machine, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycle counters diverged");
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(a.cpu.pc(), b.cpu.pc(), "{what}: PC diverged");
    assert_eq!(
        a.cpu.interrupts_enabled, b.cpu.interrupts_enabled,
        "{what}: posture diverged"
    );
    for i in 0..16u8 {
        let r = Reg(i);
        assert_eq!(
            a.cpu.read(r),
            b.cpu.read(r),
            "{what}: register c{i} diverged"
        );
    }
}

/// Loads an infinite `a0 += 1; a1 += 1; loop` spin into both machines.
fn spin_pair() -> (Machine, Machine, u32) {
    let prog = vec![
        addi(Reg::A0, Reg::A0, 1),
        addi(Reg::A1, Reg::A1, 1),
        Instr::Jal {
            rd: Reg::ZERO,
            offset: -8,
        },
    ];
    let mut on = machine_with(true);
    let mut off = machine_with(false);
    let e = on.load_program(&prog);
    assert_eq!(off.load_program(&prog), e);
    on.set_entry(e);
    off.set_entry(e);
    (on, off, e)
}

#[test]
fn patch_executed_address_then_reexecute_matches_cache_off() {
    // The canonical self-modifying-code sequence: execute a loop until its
    // block is hot in the cache, overwrite one of its instructions, and
    // keep running. The patched instruction must take effect on the very
    // next iteration, exactly as it does without the cache.
    let (mut on, mut off, e) = spin_pair();
    assert_eq!(on.run(3_000), ExitReason::CycleLimit);
    assert_eq!(off.run(3_000), ExitReason::CycleLimit);
    assert_same_state(&on, &off, "before patch");
    assert!(
        on.block_stats().hits > 0,
        "the loop block must be hot before the patch"
    );

    let old = on.patch_code(e + 4, addi(Reg::A1, Reg::A1, 100)).unwrap();
    assert_eq!(
        old,
        addi(Reg::A1, Reg::A1, 1),
        "patch returns the old instr"
    );
    off.patch_code(e + 4, addi(Reg::A1, Reg::A1, 100)).unwrap();
    assert!(
        on.block_stats().invalidated >= 1,
        "patching a cached address must invalidate its block"
    );

    let a1_before = on.cpu.read_int(Reg::A1);
    assert_eq!(on.run(3_000), ExitReason::CycleLimit);
    assert_eq!(off.run(3_000), ExitReason::CycleLimit);
    assert_same_state(&on, &off, "after patch");
    let grew = on.cpu.read_int(Reg::A1).wrapping_sub(a1_before);
    assert!(
        grew >= 100,
        "re-executed iterations must run the patched instruction (a1 grew {grew})"
    );
    assert!(
        on.block_stats().misses >= 2,
        "the patched block must have been recompiled"
    );
}

#[test]
fn cross_block_overwrite_invalidates_every_covering_block() {
    // Two blocks share a tail: the straight-line block from the entry and
    // the block created by the backward branch into the loop body. A patch
    // to the shared instruction must drop both.
    let prog = vec![
        addi(Reg::A0, Reg::A0, 1), // e+0  block A start
        addi(Reg::A0, Reg::A0, 1), // e+4  block B start
        addi(Reg::A0, Reg::A0, 2), // e+8  shared, patched
        Instr::Branch {
            cond: BranchCond::Lt,
            rs1: Reg::A0,
            rs2: Reg::A3,
            offset: -8,
        }, // e+12 back to e+4
        Instr::Halt,               // e+16
    ];
    let mut m = machine_with(true);
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.cpu.write_int(Reg::A3, 6);
    // e+0: 1,2,4; 4<6 → e+4: 5,7; 7<6 false → halt with a0=7.
    assert_eq!(m.run(1_000), ExitReason::Halted(7));
    assert_eq!(
        m.blocks_resident(),
        3,
        "entry block, branch-target block, halt block"
    );

    let gen = m.code_generation();
    let before = m.block_stats().invalidated;
    m.patch_code(e + 8, addi(Reg::A0, Reg::A0, 4)).unwrap();
    assert_eq!(
        m.block_stats().invalidated - before,
        2,
        "both blocks covering e+8 must be dropped"
    );
    assert_eq!(m.blocks_resident(), 1, "the halt block survives");
    assert!(m.code_generation() > gen);

    // A fresh pair confirms the patched semantics are what both execution
    // modes compute: e+0: 1,2,6; 6<6 false → halt with a0=6.
    for cache in [true, false] {
        let mut m2 = machine_with(cache);
        let e2 = m2.load_program(&prog);
        m2.set_entry(e2);
        m2.cpu.write_int(Reg::A3, 6);
        m2.patch_code(e2 + 8, addi(Reg::A0, Reg::A0, 4)).unwrap();
        assert_eq!(m2.run(1_000), ExitReason::Halted(6), "cache={cache}");
    }
}

#[test]
fn program_append_drops_blocks_truncated_at_old_code_end() {
    // A block that ended exactly at the old end of loaded code may have
    // been truncated there; appending more code must discard it so the
    // longer block can be rebuilt. Blocks ending earlier survive.
    let (mut on, mut off, _) = spin_pair();
    assert_eq!(on.run(500), ExitReason::CycleLimit);
    assert_eq!(off.run(500), ExitReason::CycleLimit);
    assert_eq!(on.blocks_resident(), 1);

    let gen = on.code_generation();
    on.load_program(&[Instr::Halt]);
    off.load_program(&[Instr::Halt]);
    assert_eq!(
        on.blocks_resident(),
        0,
        "the spin block ends at the old code end and must be dropped"
    );
    assert!(on.code_generation() > gen);

    // The appended code is unreachable from the spin; execution continues
    // identically in both modes.
    assert_eq!(on.run(2_000), ExitReason::CycleLimit);
    assert_eq!(off.run(2_000), ExitReason::CycleLimit);
    assert_same_state(&on, &off, "after append");
}

#[test]
fn mid_block_trap_reports_faulting_pc_not_block_start() {
    // The faulting load sits two instructions into its block: the trap
    // event (and the saved mepcc it mirrors) must name the load's own PC,
    // not the PC the block was entered at.
    for cache in [true, false] {
        let mut m = machine_with(cache);
        let prog = vec![
            addi(Reg::A0, Reg::A0, 1),
            addi(Reg::A0, Reg::A0, 1),
            Instr::Load {
                width: MemWidth::W,
                signed: false,
                rd: Reg::A2,
                rs1: Reg::A1, // null capability: tag violation
                offset: 0,
            },
            Instr::Halt,
        ];
        let e = m.load_program(&prog);
        m.set_entry(e);
        m.set_tracer(Tracer::timeline());
        let exit = m.run(1_000);
        assert!(
            matches!(exit, ExitReason::Fault(_)),
            "cache={cache}: expected a fault, got {exit:?}"
        );
        let traps: Vec<u32> = m
            .tracer()
            .unwrap()
            .events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Trap { pc, .. } => Some(pc),
                _ => None,
            })
            .collect();
        assert_eq!(
            traps,
            vec![e + 8],
            "cache={cache}: trap must report the faulting instruction's PC"
        );
    }
}

/// Spin loop + timer handler pair (same program in both machines), with a
/// vectored handler that re-arms `mtimecmp`, so interrupts keep firing.
fn timer_pair() -> (Machine, Machine) {
    let build = |cache: bool| {
        let mut m = machine_with(cache);
        let handler = vec![
            addi(Reg::A1, Reg::A1, 1),
            Instr::Load {
                width: MemWidth::W,
                signed: false,
                rd: Reg::A3,
                rs1: Reg::A2,
                offset: 8,
            },
            addi(Reg::A3, Reg::A3, 173),
            Instr::Store {
                width: MemWidth::W,
                rs2: Reg::A3,
                rs1: Reg::A2,
                offset: 8,
            },
            Instr::Mret,
        ];
        let h = m.load_program(&handler);
        let spin = vec![
            addi(Reg::A0, Reg::A0, 1),
            Instr::Jal {
                rd: Reg::ZERO,
                offset: -4,
            },
        ];
        let e = m.load_program(&spin);
        m.set_entry(e);
        m.cpu.mtcc = m.boot_pcc(h);
        m.cpu.write(
            Reg::A2,
            Capability::root_mem_rw().with_address(layout::TIMER_BASE),
        );
        m.cpu.interrupts_enabled = true;
        m.mtimecmp = 97;
        m
    };
    (build(true), build(false))
}

#[test]
fn timer_interrupts_and_trace_output_identical_cache_on_vs_off() {
    // The full observable record — interrupt delivery points, posture
    // flips, cycle stamps — must be byte-identical between the two
    // execution paths, including when the budget is consumed in uneven
    // slices (interrupt checks batch differently at slice edges).
    let (mut on, mut off) = timer_pair();
    on.set_tracer(Tracer::timeline());
    off.set_tracer(Tracer::timeline());

    let exit_on = on.run(20_000);
    let exit_off = off.run(20_000);
    assert_eq!(exit_on, exit_off);
    assert_same_state(&on, &off, "timer run");
    assert_eq!(on.mtimecmp, off.mtimecmp);
    assert!(
        on.stats.interrupts > 10,
        "test must actually deliver interrupts (got {})",
        on.stats.interrupts
    );
    assert!(on.block_stats().hits > 0, "spin must run from the cache");
    assert_eq!(
        on.tracer().unwrap().events(),
        off.tracer().unwrap().events(),
        "trace event streams must be identical"
    );

    // Sliced budgets land on the same state as one big budget.
    let (mut sliced, _) = timer_pair();
    while sliced.cycles < on.cycles {
        sliced.run((on.cycles - sliced.cycles).min(117));
    }
    assert_same_state(&on, &sliced, "sliced run");
}

#[test]
fn watchdog_fires_at_same_instruction_cache_on_vs_off() {
    // An odd watchdog budget lands mid-block; the cached dispatch must
    // stop at exactly the same retirement count as the stepwise loop.
    let (mut on, mut off, _) = spin_pair();
    on.set_watchdog(Some(1_001));
    off.set_watchdog(Some(1_001));
    assert_eq!(on.run(1_000_000), ExitReason::Watchdog);
    assert_eq!(off.run(1_000_000), ExitReason::Watchdog);
    assert_same_state(&on, &off, "watchdog");
    assert_eq!(on.stats.instructions, 1_001);
}

#[test]
fn smc_patch_of_linked_successor_takes_effect_in_all_modes() {
    // Two blocks ping-pong through always-taken branches, so with chaining
    // on the A→B and B→A successor links go hot and dispatch never returns
    // to the dispatcher. Patching an instruction inside the linked
    // successor must still take effect on the very next iteration: the
    // patch bumps the generation, which kills every link at once.
    let prog = vec![
        addi(Reg::A0, Reg::A0, 1), // e+0  block A
        Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A2,
            rs2: Reg::A2,
            offset: 12,
        }, // e+4  always taken → e+16
        Instr::Halt,               // e+8  (dead)
        Instr::Halt,               // e+12 (dead)
        addi(Reg::A1, Reg::A1, 1), // e+16 block B (patched below)
        Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A2,
            rs2: Reg::A2,
            offset: -16,
        }, // e+20 always taken → e+0
    ];
    let run_with_patch = |mode: (bool, bool)| -> Machine {
        let mut m = machine_mode(mode);
        let e = m.load_program(&prog);
        m.set_entry(e);
        assert_eq!(m.run(2_000), ExitReason::CycleLimit);
        if mode == (true, true) {
            let st = m.block_stats();
            assert!(
                st.chain_links >= 2 && st.chain_hits > 10,
                "A↔B must be chained before the patch (links={}, hits={})",
                st.chain_links,
                st.chain_hits
            );
        }
        m.patch_code(e + 16, addi(Reg::A1, Reg::A1, 1000)).unwrap();
        assert_eq!(m.run(2_000), ExitReason::CycleLimit);
        m
    };
    let a1 = run_with_patch(MODES[0]).cpu.read_int(Reg::A1);
    assert!(a1 >= 1000, "patched increment must apply (a1={a1})");
    for mode in [MODES[1], MODES[2]] {
        let m = run_with_patch(mode);
        let s = run_with_patch(MODES[0]);
        assert_same_state(&m, &s, &format!("mode {mode:?} vs stepwise"));
    }
}

#[test]
fn mid_superblock_trap_reports_pc_in_chased_segment() {
    // The faulting load sits *after* a chased `jal x0` — in the second
    // segment of a superblock, and behind a fast-stream element whose
    // folded jump already retired. Every mode must attribute the trap to
    // the load's own PC, with identical cycle and retirement counts.
    let prog = vec![
        addi(Reg::A0, Reg::A0, 1), // e+0
        Instr::Jal {
            rd: Reg::ZERO,
            offset: 8,
        }, // e+4  chased → e+12
        Instr::Halt,               // e+8  (skipped)
        addi(Reg::A0, Reg::A0, 1), // e+12
        Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::A2,
            rs1: Reg::A1, // null capability: tag violation
            offset: 0,
        }, // e+16  faults
        Instr::Halt,               // e+20
    ];
    let mut results = Vec::new();
    for mode in MODES {
        let mut m = machine_mode(mode);
        let e = m.load_program(&prog);
        m.set_entry(e);
        m.set_tracer(Tracer::timeline());
        let exit = m.run(1_000);
        assert!(
            matches!(exit, ExitReason::Fault(_)),
            "mode {mode:?}: expected a fault, got {exit:?}"
        );
        let traps: Vec<u32> = m
            .tracer()
            .unwrap()
            .events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Trap { pc, .. } => Some(pc),
                _ => None,
            })
            .collect();
        assert_eq!(
            traps,
            vec![e + 16],
            "mode {mode:?}: trap must report the faulting instruction's PC"
        );
        results.push(m);
    }
    let (s, rest) = results.split_first().unwrap();
    for (m, mode) in rest.iter().zip(&MODES[1..]) {
        assert_same_state(m, s, &format!("mode {mode:?} vs stepwise"));
    }
}

#[test]
fn sentry_call_site_chains_and_sees_target_patch() {
    // A hot `cjalr` call site runs its jump through the general `exec`
    // path and chains to the callee through the ordinary successor links.
    // Patching the callee's code bumps the generation, which retires those
    // links, so the next call re-validates and executes the patched callee
    // — in lockstep with the stepwise interpreter.
    use cheriot_cap::OType;
    let callee = vec![
        addi(Reg::A1, Reg::A1, 7), // h+0 (patched below)
        Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        }, // h+4 return through the return sentry
    ];
    let caller = vec![
        Instr::Jalr {
            rd: Reg::RA,
            rs1: Reg::A5,
            offset: 0,
        }, // e+0 call the forward sentry
        Instr::Jal {
            rd: Reg::ZERO,
            offset: -4,
        }, // e+4 backward (not chased): call again
    ];
    let run_with_patch = |mode: (bool, bool)| -> Machine {
        let mut m = machine_mode(mode);
        let h = m.load_program(&callee);
        let e = m.load_program(&caller);
        m.set_entry(e);
        let sentry = m
            .boot_pcc(h)
            .seal_as_sentry(OType::Executable(1)) // forward, inherit posture
            .unwrap();
        m.cpu.write(Reg::A5, sentry);
        let hits_before = m.block_stats().chain_hits;
        assert_eq!(m.run(2_000), ExitReason::CycleLimit);
        if mode == (true, true) {
            let hits = m.block_stats().chain_hits - hits_before;
            assert!(
                hits > 10,
                "call and return must chain through the successor links (hits={hits})"
            );
        }
        let gen_before = m.code_generation();
        m.patch_code(h, addi(Reg::A1, Reg::A1, 1000)).unwrap();
        assert!(
            m.code_generation() > gen_before,
            "mode {mode:?}: the patch must bump the code generation"
        );
        assert_eq!(m.run(2_000), ExitReason::CycleLimit);
        m
    };
    let a1 = run_with_patch(MODES[0]).cpu.read_int(Reg::A1);
    assert!(a1 >= 1000, "patched callee must run (a1={a1})");
    for mode in [MODES[1], MODES[2]] {
        let m = run_with_patch(mode);
        let s = run_with_patch(MODES[0]);
        assert_same_state(&m, &s, &format!("mode {mode:?} vs stepwise"));
    }
}
