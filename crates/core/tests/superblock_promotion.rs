//! Runtime superblock promotion (DESIGN.md §13): a block that keeps
//! leaving through the same `j` or conditional-branch edge is replaced,
//! in this machine's slot only, by the block followed by its successor,
//! with interior branches kept as guards. These tests pin that promotion
//! is architecturally invisible — every guard's side exit, budget stops
//! and interrupt deliveries on and right after guards are byte-identical
//! to the stepwise interpreter — and that the cache stays coherent:
//! patches below a promoted block's start, links recorded under another
//! PCC fingerprint, and forked siblings.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, BranchCond, CapField, Instr, MemWidth, Reg, ScrId};
use cheriot_core::trace::Tracer;
use cheriot_core::{layout, BlockCacheStats, CoreModel, ExitReason, Machine, MachineConfig};

/// Stepwise, block cache without chaining, and chained dispatch.
const MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

/// Data window of the flip loop: word 0 holds the second guard's flip
/// point, word 1 takes a store per iteration, and the interrupt handler
/// logs interrupted PCs from `LOG`.
const DATA: u32 = layout::SRAM_BASE + 0x1000;
const LOG: u32 = 0x400;

fn op_imm(op: AluOp, rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm { op, rd, rs1, imm }
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    op_imm(AluOp::Add, rd, rs1, imm)
}

fn branch(cond: BranchCond, rs1: Reg, rs2: Reg, words: i32) -> Instr {
    Instr::Branch {
        cond,
        rs1,
        rs2,
        offset: 4 * words,
    }
}

/// A four-block loop (`i` in `a1` counts 1..=`s0`) whose three interior
/// branches each flip direction for exactly one iteration: `a1 == a2`,
/// `a1 == mem[DATA]` (loaded right before its branch, so the guard sees a
/// load-to-use hazard) and `a1 == a5`. Once promoted, the loop is one
/// self-linked superblock starting at word 0 with guards at words 2, 5
/// and 9 (continuing at 4, 6 and 11), an interior forward `j` at word 7,
/// and the backward `bltu` last.
fn flip_loop() -> Vec<Instr> {
    vec![
        /* 0 */ addi(Reg::A1, Reg::A1, 1),
        /* 1 */
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A1,
            rs1: Reg::S1,
            offset: 4,
        },
        /* 2 */ branch(BranchCond::Ne, Reg::A1, Reg::A2, 2), // G1: continue taken
        /* 3 */ addi(Reg::A0, Reg::A0, 3),
        /* 4 */
        Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::T1,
            rs1: Reg::S1,
            offset: 0,
        },
        /* 5 */ branch(BranchCond::Eq, Reg::A1, Reg::T1, 3), // G2: continue not taken
        /* 6 */ addi(Reg::A0, Reg::A0, 1),
        /* 7 */
        Instr::Jal {
            rd: Reg::ZERO,
            offset: 8,
        },
        /* 8 */ addi(Reg::A0, Reg::A0, 7),
        /* 9 */ branch(BranchCond::Ne, Reg::A1, Reg::A5, 2), // G3: continue taken
        /* 10 */ addi(Reg::A0, Reg::A0, 11),
        /* 11 */ branch(BranchCond::Ltu, Reg::A1, Reg::S0, -11),
        /* 12 */ Instr::Halt,
    ]
}

/// Guard words of the promoted flip loop and the words they continue at.
const GUARDS: [(u32, u32); 3] = [(2, 4), (5, 6), (9, 11)];

/// The flip loop's result: one bonus per flip, plus 1 on every iteration
/// but the second flip's.
fn flip_result(n: u32) -> u32 {
    3 + (n - 1) + 7 + 11
}

/// Timer handler: counts deliveries in `t2`, logs the interrupted PC at
/// `LOG + 4 * (count % 512)` and pushes `mtimecmp` forward by `period`.
fn timer_handler(period: i32) -> Vec<Instr> {
    vec![
        addi(Reg::T2, Reg::T2, 1),
        Instr::CSpecialRw {
            rd: Reg::GP,
            rs1: Reg::ZERO,
            scr: ScrId::Mepcc,
        },
        Instr::CGet {
            field: CapField::Addr,
            rd: Reg::GP,
            rs1: Reg::GP,
        },
        op_imm(AluOp::Sll, Reg::SP, Reg::T2, 2),
        op_imm(AluOp::And, Reg::SP, Reg::SP, 0x7fc),
        Instr::CIncAddr {
            rd: Reg::RA,
            rs1: Reg::S1,
            rs2: Reg::SP,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::GP,
            rs1: Reg::RA,
            offset: LOG as i32,
        },
        Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::SP,
            rs1: Reg::TP,
            offset: 8,
        },
        addi(Reg::SP, Reg::SP, period),
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::SP,
            rs1: Reg::TP,
            offset: 8,
        },
        Instr::Mret,
    ]
}

fn rw(addr: u32, len: u64) -> Capability {
    Capability::root_mem_rw()
        .with_address(addr)
        .set_bounds(len)
        .unwrap()
}

/// The flip loop with flips at iterations `flips` and `n` iterations,
/// optionally under a timer re-armed every `period` cycles. Returns the
/// machine and the loop's start address.
fn flip_machine(
    core: CoreModel,
    (block_cache, block_chain): (bool, bool),
    flips: [u32; 3],
    n: u32,
    period: Option<i32>,
) -> (Machine, u32) {
    let mut mc = MachineConfig::new(core);
    mc.block_cache = block_cache;
    mc.block_chain = block_chain;
    let mut m = Machine::new(mc);
    let handler = period.map(|p| m.load_program(&timer_handler(p)));
    let base = m.load_program(&flip_loop());
    m.set_entry(base);
    m.cpu.write(Reg::S1, rw(DATA, 0xc00));
    m.sram.write_scalar(DATA, 4, flips[1]).unwrap();
    m.cpu.write_int(Reg::A2, flips[0]);
    m.cpu.write_int(Reg::A5, flips[2]);
    m.cpu.write_int(Reg::S0, n);
    if let (Some(h), Some(p)) = (handler, period) {
        m.cpu.mtcc = m.boot_pcc(h);
        m.cpu.write(Reg::TP, rw(layout::TIMER_BASE, 16));
        m.mtimecmp = p as u64;
        m.cpu.interrupts_enabled = true;
    }
    (m, base)
}

/// Everything architecturally observable must match: counters, PC,
/// registers, posture, trap records, timer compare, SRAM bytes and tags.
fn assert_same(a: &Machine, b: &Machine, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.cpu.pc(), b.cpu.pc(), "{what}: PC");
    assert_eq!(a.exit_status(), b.exit_status(), "{what}: exit");
    assert_eq!(a.last_trap(), b.last_trap(), "{what}: trap cause");
    assert_eq!(a.cpu.mepcc, b.cpu.mepcc, "{what}: trap PC");
    assert_eq!(a.mtimecmp, b.mtimecmp, "{what}: mtimecmp");
    assert_eq!(
        a.cpu.interrupts_enabled, b.cpu.interrupts_enabled,
        "{what}: posture"
    );
    for i in 0..16u8 {
        let r = Reg(i);
        assert_eq!(a.cpu.read(r), b.cpu.read(r), "{what}: register c{i}");
    }
    assert!(a.sram.content_eq(&b.sram), "{what}: SRAM bytes and tags");
}

#[test]
fn every_guard_side_exits_exactly_as_the_stepwise_interpreter() {
    // Untraced, guards run in the unchecked fast stream; with a tracer,
    // every instruction goes through the checked loop and the event
    // streams must match too.
    for traced in [false, true] {
        for core in [CoreModel::ibex(), CoreModel::flute()] {
            let at = format!("{:?} traced {traced}", core.kind);
            let machines: Vec<Machine> = MODES
                .iter()
                .map(|&mode| {
                    let (mut m, _) = flip_machine(core, mode, [60, 70, 80], 100, None);
                    if traced {
                        m.set_tracer(Tracer::timeline());
                    }
                    assert_eq!(m.run(1_000_000), ExitReason::Halted(flip_result(100)));
                    m
                })
                .collect();
            let (s, rest) = machines.split_first().unwrap();
            for (m, mode) in rest.iter().zip(&MODES[1..]) {
                assert_same(m, s, &format!("{at} mode {mode:?}"));
                if traced {
                    assert_eq!(
                        m.tracer().unwrap().events(),
                        s.tracer().unwrap().events(),
                        "{at} mode {mode:?}: trace event streams"
                    );
                }
            }
            // Promotion is chained-dispatch-only. The loop head absorbs
            // its three successors one at a time (each promotion retires
            // every link, so the head's edge is always the first to turn
            // hot again), then every flip leaves through its guard once.
            // Promotions are not builds: `misses` counts the loop's four
            // blocks (words 0, 4, 6 with the `j` chased to 9, and 11),
            // the three flip paths (3, 8, 10) and the `halt`.
            let chained = machines[2].block_stats();
            assert_eq!(chained.promotions, 3, "{at}");
            assert_eq!(chained.side_exits, 3, "{at}");
            assert_eq!(chained.misses, 8, "{at}");
            for m in &machines[..2] {
                assert_eq!(m.block_stats().promotions, 0, "{at}");
                assert_eq!(m.block_stats().side_exits, 0, "{at}");
            }
        }
    }
}

#[test]
fn budget_slices_stop_on_and_right_after_guards_identically() {
    // Warm up until the loop is one superblock, then run the rest (all
    // three flips included) in slices of every size from 1 to 40 cycles:
    // the stops walk across every instruction of the loop, guards and
    // the instructions they continue at included, and each stop must
    // land at the same PC and counters in all three modes.
    const WARM: u64 = 1_500;
    let core = CoreModel::ibex();
    let mut stops = std::collections::BTreeSet::new();
    let mut side_exits = 0;
    let mut base = 0;
    for slice in 1..=40u64 {
        let mut machines = Vec::new();
        let mut traces = Vec::new();
        for mode in MODES {
            let (mut m, b) = flip_machine(core, mode, [150, 160, 170], 200, None);
            base = b;
            m.run(WARM);
            if mode == (true, true) {
                assert_eq!(m.block_stats().promotions, 3, "slice {slice}: warm-up");
            }
            let mut trace = Vec::new();
            while m.exit_status().is_none() {
                m.run(slice);
                trace.push((m.cpu.pc(), m.cycles, m.stats.instructions));
            }
            traces.push(trace);
            machines.push(m);
        }
        for (t, mode) in traces[1..].iter().zip(&MODES[1..]) {
            assert_eq!(t, &traces[0], "slice {slice} mode {mode:?}: stop points");
        }
        for (m, mode) in machines[1..].iter().zip(&MODES[1..]) {
            assert_same(m, &machines[0], &format!("slice {slice} mode {mode:?}"));
        }
        side_exits += machines[2].block_stats().side_exits;
        stops.extend(traces[0].iter().map(|&(pc, ..)| (pc - base) / 4));
    }
    // Short slices re-enter mid-loop through suffix blocks; longer ones
    // run the superblock through its guards.
    assert!(side_exits > 0, "slices must reach the guards' side exits");
    for (guard, next) in GUARDS {
        assert!(stops.contains(&guard), "no stop on guard word {guard}");
        assert!(stops.contains(&next), "no stop after guard word {guard}");
    }
}

#[test]
fn timer_interrupts_land_on_and_right_after_guards_identically() {
    // A timer re-armed every `period` cycles interrupts the superblock at
    // a different instruction each time; over a spread of periods the
    // logged interrupted PCs cover every guard and the instruction after
    // it, and every mode delivers each interrupt at the same boundary.
    let mut landed = std::collections::BTreeSet::new();
    for core in [CoreModel::ibex(), CoreModel::flute()] {
        for period in (41..=67).step_by(2) {
            let mut bases = Vec::new();
            let machines: Vec<Machine> = MODES
                .iter()
                .map(|&mode| {
                    let (mut m, base) =
                        flip_machine(core, mode, [300, 320, 340], 400, Some(period));
                    bases.push(base);
                    assert_eq!(m.run(10_000_000), ExitReason::Halted(flip_result(400)));
                    m
                })
                .collect();
            let at = format!("{:?} period {period}", core.kind);
            for (m, mode) in machines[1..].iter().zip(&MODES[1..]) {
                assert_same(m, &machines[0], &format!("{at} mode {mode:?}"));
            }
            let s = &machines[0];
            assert!(s.stats.interrupts > 50, "{at}: interrupts must land");
            assert!(machines[2].block_stats().promotions > 0, "{at}");
            assert!(machines[2].block_stats().side_exits > 0, "{at}");
            let logged = s.stats.interrupts.min(511) as u32;
            for k in 1..=logged {
                let pc = s.sram.read_scalar(DATA + LOG + 4 * k, 4).unwrap();
                if let Some(word) = pc.checked_sub(bases[0]) {
                    landed.insert(word / 4);
                }
            }
        }
    }
    for (guard, next) in GUARDS {
        assert!(
            landed.contains(&guard),
            "no interrupt on guard word {guard}"
        );
        assert!(
            landed.contains(&next),
            "no interrupt after guard word {guard}"
        );
    }
}

/// A loop whose *bottom* block turns hot first, so promotion appends the
/// loop head, which lies below the promoted block's start:
///
/// ```text
/// 0: li a0, 0          entry block: 0..=3
/// 1: li s0, 100
/// 2: addi a1, a1, 1    head (word 2)
/// 3: bne a1, zero, +2  always taken
/// 4: addi a0, a0, 100  (never reached)
/// 5: add a0, a0, a1    bottom (word 5): promoted to 5, 6, 2, 3
/// 6: blt a1, s0, -4
/// 7: halt
/// ```
fn bottom_first_loop() -> Vec<Instr> {
    vec![
        addi(Reg::A0, Reg::ZERO, 0),
        addi(Reg::S0, Reg::ZERO, 100),
        addi(Reg::A1, Reg::A1, 1),
        branch(BranchCond::Ne, Reg::A1, Reg::ZERO, 2),
        addi(Reg::A0, Reg::A0, 100),
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        },
        branch(BranchCond::Lt, Reg::A1, Reg::S0, -4),
        Instr::Halt,
    ]
}

#[test]
fn patch_below_a_promoted_start_invalidates_it() {
    // The chained machine promotes the bottom block at word 5 over the
    // head at word 2. Patching the head's increment must drop that
    // superblock too — its covered segment lies *below* its start slot —
    // and the rest of the run must match the stepwise interpreter.
    let mut machines: Vec<Machine> = MODES
        .iter()
        .map(|&(block_cache, block_chain)| {
            let mut mc = MachineConfig::new(CoreModel::ibex());
            mc.block_cache = block_cache;
            mc.block_chain = block_chain;
            let mut m = Machine::new(mc);
            let e = m.load_program(&bottom_first_loop());
            m.set_entry(e);
            m
        })
        .collect();
    for m in &mut machines {
        assert_eq!(m.run(200), ExitReason::CycleLimit);
    }
    let before = machines[2].block_stats();
    assert_eq!(before.promotions, 1, "bottom block promoted over the head");
    for m in &mut machines {
        m.patch_code(layout::CODE_BASE + 8, addi(Reg::A1, Reg::A1, 2))
            .unwrap();
    }
    // Three blocks cover word 2: the entry block, the head, and the
    // superblock starting three words above it.
    assert_eq!(
        machines[2].block_stats().invalidated - before.invalidated,
        3
    );
    for m in &mut machines {
        assert!(matches!(m.run(1_000_000), ExitReason::Halted(_)));
    }
    for (m, mode) in machines[1..].iter().zip(&MODES[1..]) {
        assert_same(m, &machines[0], &format!("mode {mode:?}"));
    }
}

/// `X` (words 0–1) branches to `S` (words 2–3), whose `bne` jumps to `T`
/// (words 5–6); `T` loops back to `S` while `a1 < s0`. Word 8 is the trap
/// handler. A PCC bounded to words 0–4 can fetch `X` and `S` but not `T`.
fn fingerprint_program() -> Vec<Instr> {
    vec![
        /* 0 X */ addi(Reg::A0, Reg::A0, 1),
        /* 1 */ branch(BranchCond::Eq, Reg::ZERO, Reg::ZERO, 1),
        /* 2 S */ addi(Reg::A1, Reg::A1, 1),
        /* 3 */ branch(BranchCond::Ne, Reg::A2, Reg::ZERO, 2),
        /* 4 */ Instr::Halt,
        /* 5 T */ addi(Reg::A3, Reg::A3, 1),
        /* 6 */ branch(BranchCond::Ltu, Reg::A1, Reg::S0, -4),
        /* 7 */ Instr::Halt,
        /* 8 handler */ Instr::Halt,
    ]
}

#[test]
fn link_into_a_promoted_slot_under_another_fingerprint_rechecks_fetch() {
    // 1. Under the narrow PCC, `X` links to `S` (verified for these
    //    bounds), then `S` jumps to `T` and faults on the fetch.
    // 2. Under the wide PCC the `S`→`T` loop promotes `S` to `S`+`T`.
    // 3. Under the narrow PCC again, `X`'s old link into `S` certified
    //    only `S`'s own words. Following it into the superblock would run
    //    `T` without a fetch check; the promotion must have retired it so
    //    the fault at `T` is reported exactly as stepwise does.
    let mut results = Vec::new();
    for (block_cache, block_chain) in MODES {
        let mut mc = MachineConfig::new(CoreModel::ibex());
        mc.block_cache = block_cache;
        mc.block_chain = block_chain;
        let mut m = Machine::new(mc);
        let base = m.load_program(&fingerprint_program());
        m.cpu.mtcc = m.boot_pcc(base + 32);
        m.cpu.write_int(Reg::A2, 1);
        m.cpu.write_int(Reg::S0, 40);
        let snap = m.snapshot();
        let narrow = Capability::root_executable()
            .with_address(base)
            .set_bounds(20)
            .unwrap();
        let phase = |m: &mut Machine, pcc: Capability| {
            // Architectural state rewinds; the block cache (same code)
            // keeps its blocks, links and promotions.
            m.restore_from(&snap);
            m.cpu.pcc = pcc;
            let exit = m.run(100_000);
            (exit, m.last_trap(), m.cpu.mepcc.address(), m.cycles)
        };
        let first = phase(&mut m, narrow);
        let wide = m.boot_pcc(base + 8);
        let second = phase(&mut m, wide);
        let third = phase(&mut m, narrow);
        results.push((first, second, third, m.cpu.read_int(Reg::A3)));
        if block_chain {
            assert_eq!(m.block_stats().promotions, 1, "S promoted over T");
        }
        assert_eq!(first.2, base + 20, "fetch fault at T");
        assert_eq!(third.2, base + 20, "fetch fault at T after promotion");
    }
    assert_eq!(results[1], results[0], "cached");
    assert_eq!(results[2], results[0], "chained");
}

#[test]
fn promotion_in_one_fork_leaves_its_siblings_alone() {
    // Forks (a farm's devices) share the parent's `Arc` blocks and the
    // code image's block store. A fork that runs hot enough to promote
    // must not change what a sibling executes or how it dispatches: run
    // after it, the sibling makes the same three promotions itself,
    // dispatch counter for dispatch counter. Only who built the blocks
    // differs: the sibling adopts what the hot fork built.
    let (mut parent, _) = flip_machine(CoreModel::ibex(), (true, true), [60, 70, 80], 100, None);
    parent.run(100); // builds and links every block, promotes nothing
    assert_eq!(parent.block_stats().promotions, 0);
    let snap = parent.snapshot();
    let mut hot = snap.to_machine();
    let mut sibling = snap.to_machine();
    hot.run(1_000_000);
    assert_eq!(hot.block_stats().promotions, 3);
    sibling.run(1_000_000);
    assert_same(&sibling, &hot, "sibling vs hot fork");
    let (h, s) = (hot.block_stats(), sibling.block_stats());
    let dispatch = |b: BlockCacheStats| BlockCacheStats {
        misses: 0,
        shared: 0,
        ..b
    };
    assert_eq!(dispatch(s), dispatch(h));
    assert_eq!(h.misses, s.misses + s.shared);
    assert_eq!(
        s.misses,
        parent.block_stats().misses,
        "the sibling built nothing"
    );
    assert!(s.shared > 0);
}
