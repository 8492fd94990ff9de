//! Equivalence tests for the simulator fast paths: the decoded-capability
//! side cache must be invisible to software (CSC/scalar-store/CLC
//! interleavings, load-filter strips), and the batched `run()` event loop
//! must deliver interrupts at exactly the same instruction boundaries and
//! cycle counts as the stepwise `step()` loop — also while a hardware
//! revoker sweep takes idle cycles from the chained loop's fast arms.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, BranchCond, CapField, CsrId, CsrOp, Instr, MemWidth, Reg, ScrId};
use cheriot_core::revocation::revoker_reg;
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};

fn machine() -> Machine {
    machine_mode((true, true))
}

/// An Ibex machine with an explicit dispatch mode: stepwise, block cache
/// without chaining, or the fully chained dispatch loop.
fn machine_mode((block_cache, block_chain): (bool, bool)) -> Machine {
    Machine::new(MachineConfig {
        block_cache,
        block_chain,
        ..MachineConfig::new(CoreModel::ibex())
    })
}

#[test]
fn csc_scalar_store_clc_cache_coherence() {
    // CSC then CLC on the same granule must round-trip the capability;
    // a scalar store in between must detag and the following CLC must see
    // the overwritten bytes, not a stale cached decode.
    let mut m = machine();
    let prog = vec![
        Instr::Csc {
            rs2: Reg::A2,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Clc {
            rd: Reg::A3,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A4,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Clc {
            rd: Reg::A5,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    let granule = layout::SRAM_BASE + 0x40;
    let auth = Capability::root_mem_rw()
        .with_address(granule)
        .set_bounds(8)
        .unwrap();
    let stored = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE + 0x100)
        .set_bounds(32)
        .unwrap();
    m.cpu.write(Reg::A1, auth);
    m.cpu.write(Reg::A2, stored);
    m.cpu.write_int(Reg::A4, 0xdead_beef);
    assert_eq!(m.run(1_000), ExitReason::Halted(0));

    let reloaded = m.cpu.read(Reg::A3);
    assert!(reloaded.tag(), "CLC after CSC must return a tagged copy");
    assert_eq!(reloaded, stored);
    assert_eq!(reloaded.bounds(), stored.bounds());

    let clobbered = m.cpu.read(Reg::A5);
    assert!(!clobbered.tag(), "scalar store must detag the granule");
    assert_eq!(
        clobbered.to_word() as u32,
        0xdead_beef,
        "CLC must see the scalar overwrite, not a stale cached decode"
    );
}

#[test]
fn side_cache_does_not_bypass_load_filter() {
    // A capability sits cached in a granule; its referent is then freed
    // (revocation bits painted). The next CLC must still strip the tag —
    // the filter consults the bitmap on every load, cached or not.
    let mut m = machine();
    let prog = vec![
        Instr::Csc {
            rs2: Reg::A2,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    let heap_obj = m.cfg().heap_base() + 0x200;
    let granule = layout::SRAM_BASE + 0x40;
    let auth = Capability::root_mem_rw()
        .with_address(granule)
        .set_bounds(8)
        .unwrap();
    let stored = Capability::root_mem_rw()
        .with_address(heap_obj)
        .set_bounds(32)
        .unwrap();
    m.cpu.write(Reg::A1, auth);
    m.cpu.write(Reg::A2, stored);
    assert_eq!(m.run(1_000), ExitReason::Halted(0));

    // Warm read: tagged (nothing revoked yet).
    assert!(m.bus_read_cap(granule).unwrap().tag());
    // Free the object, then read again through the same cached granule.
    m.bitmap.set_range(heap_obj, 32);
    let after = m.bus_read_cap(granule).unwrap();
    assert!(
        !after.tag(),
        "filter must strip despite the warm side cache"
    );
    assert_eq!(m.stats.filter_strips, 1);
}

/// Builds a machine whose program spins incrementing `a0` while a timer
/// interrupt handler counts deliveries in `a1` and pushes `mtimecmp`
/// forward, exercising interrupt delivery, trap entry and `mret` under
/// the batched loop.
fn timer_machine() -> Machine {
    timer_machine_mode((true, true))
}

/// `timer_machine` with an explicit dispatch mode.
fn timer_machine_mode(mode: (bool, bool)) -> Machine {
    let mut m = machine_mode(mode);
    // Handler at code start: a1 += 1; a3 = mtimecmp_lo + period; store it;
    // mret.
    let handler = vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A1,
            rs1: Reg::A1,
            imm: 1,
        },
        Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::A3,
            rs1: Reg::A2,
            offset: 8,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A3,
            rs1: Reg::A3,
            imm: 173,
        },
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
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        },
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
}

#[test]
fn batched_run_matches_stepwise_loop_with_timer_interrupts() {
    let mut batched = timer_machine();
    let mut stepwise = timer_machine();

    let exit_b = batched.run(20_000);

    // The reference: the pre-batching `run()` loop, one `step()` at a time.
    let limit = stepwise.cycles + 20_000;
    let exit_s = loop {
        if let Some(r) = stepwise.exit_status() {
            break r;
        }
        if stepwise.cycles >= limit {
            break ExitReason::CycleLimit;
        }
        stepwise.step();
    };

    assert_eq!(exit_b, exit_s);
    assert_eq!(batched.cycles, stepwise.cycles);
    assert_eq!(batched.stats, stepwise.stats);
    assert!(
        batched.stats.interrupts > 10,
        "test must actually deliver interrupts (got {})",
        batched.stats.interrupts
    );
    for i in 0..16u8 {
        let r = Reg(i);
        assert_eq!(
            batched.cpu.read(r),
            stepwise.cpu.read(r),
            "register c{i} diverged"
        );
    }
    assert_eq!(batched.cpu.pc(), stepwise.cpu.pc());
    assert_eq!(batched.mtimecmp, stepwise.mtimecmp);
}

#[test]
fn three_way_dispatch_equivalence_with_timer_interrupts() {
    // The full observable record — cycle counts, retirement counts, every
    // register, interrupt delivery points, trace event streams — must be
    // byte-identical across all three dispatch modes, under live timer
    // interrupts re-armed from the handler (so the run repeatedly crosses
    // trap entry, `mret`, and mid-block interrupt boundaries).
    use cheriot_core::trace::Tracer;
    let modes = [(false, false), (true, false), (true, true)];
    let mut machines: Vec<Machine> = modes
        .iter()
        .map(|&mode| {
            let mut m = timer_machine_mode(mode);
            m.set_tracer(Tracer::timeline());
            m
        })
        .collect();
    let exits: Vec<ExitReason> = machines.iter_mut().map(|m| m.run(20_000)).collect();
    assert_eq!(exits[0], exits[1]);
    assert_eq!(exits[0], exits[2]);
    let (s, rest) = machines.split_first().unwrap();
    assert!(
        s.stats.interrupts > 10,
        "test must actually deliver interrupts (got {})",
        s.stats.interrupts
    );
    for (m, mode) in rest.iter().zip(&modes[1..]) {
        assert_eq!(m.cycles, s.cycles, "mode {mode:?}: cycles diverged");
        assert_eq!(m.stats, s.stats, "mode {mode:?}: stats diverged");
        assert_eq!(m.cpu.pc(), s.cpu.pc(), "mode {mode:?}: PC diverged");
        assert_eq!(m.mtimecmp, s.mtimecmp, "mode {mode:?}: mtimecmp diverged");
        for i in 0..16u8 {
            let r = Reg(i);
            assert_eq!(
                m.cpu.read(r),
                s.cpu.read(r),
                "mode {mode:?}: register c{i} diverged"
            );
        }
        assert_eq!(
            m.tracer().unwrap().events(),
            s.tracer().unwrap().events(),
            "mode {mode:?}: trace event streams diverged"
        );
    }
}

#[test]
fn three_way_dispatch_equivalence_across_sliced_budgets() {
    // Odd budget slices land boundary checks at different points of the
    // dispatch loops (mid-block stops, chain-boundary stops); the final
    // state must not depend on the slicing in any mode.
    for mode in [(false, false), (true, false), (true, true)] {
        let mut whole = timer_machine_mode(mode);
        let mut sliced = timer_machine_mode(mode);
        whole.run(20_000);
        while sliced.cycles < whole.cycles {
            sliced.run((whole.cycles - sliced.cycles).min(117));
        }
        assert_eq!(whole.cycles, sliced.cycles, "mode {mode:?}");
        assert_eq!(whole.stats, sliced.stats, "mode {mode:?}");
        assert_eq!(whole.cpu.pc(), sliced.cpu.pc(), "mode {mode:?}");
    }
}

/// `timer_machine` whose interrupt handler additionally emits a console
/// byte per delivery, so the console stream records IRQ boundaries.
fn console_timer_machine(mode: (bool, bool)) -> Machine {
    let mut m = machine_mode(mode);
    let handler = vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A1,
            rs1: Reg::A1,
            imm: 1,
        },
        Instr::Store {
            width: MemWidth::B,
            rs2: Reg::A1,
            rs1: Reg::A4,
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::A3,
            rs1: Reg::A2,
            offset: 8,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A3,
            rs1: Reg::A3,
            imm: 173,
        },
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
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        },
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
    m.cpu.write(
        Reg::A4,
        Capability::root_mem_rw().with_address(layout::CONSOLE_BASE),
    );
    m.cpu.interrupts_enabled = true;
    m.mtimecmp = 97;
    m
}

#[test]
fn quantum_sliced_execution_is_byte_identical_to_unsliced() {
    // The farm scheduler runs every instance as K slices of a fixed
    // budget B. That schedule must be invisible: cycles, retirement
    // stats, trap state, interrupt delivery points (recorded in the
    // console stream by the handler), registers, and trace events must
    // be byte-identical to one unsliced run of K*B — in all three
    // dispatch modes.
    use cheriot_core::trace::Tracer;
    const K: u64 = 16;
    const B: u64 = 1_250;
    for mode in [(false, false), (true, false), (true, true)] {
        let mut whole = console_timer_machine(mode);
        let mut sliced = console_timer_machine(mode);
        whole.set_tracer(Tracer::timeline());
        sliced.set_tracer(Tracer::timeline());

        assert_eq!(whole.run(K * B), ExitReason::CycleLimit, "mode {mode:?}");
        // A slice may overshoot its budget by a partial instruction, so
        // (as the farm's quantum accounting does) each slice budget is
        // capped by the distance to the common target.
        while sliced.cycles < whole.cycles {
            let budget = (whole.cycles - sliced.cycles).min(B);
            assert_eq!(sliced.run(budget), ExitReason::CycleLimit, "mode {mode:?}");
        }

        assert!(
            whole.stats.interrupts > 10,
            "mode {mode:?}: test must actually deliver interrupts (got {})",
            whole.stats.interrupts
        );
        assert!(
            !whole.console.is_empty(),
            "mode {mode:?}: handler must emit console bytes"
        );
        assert_eq!(whole.cycles, sliced.cycles, "mode {mode:?}: cycles");
        assert_eq!(whole.stats, sliced.stats, "mode {mode:?}: stats");
        assert_eq!(whole.cpu.pc(), sliced.cpu.pc(), "mode {mode:?}: PC");
        assert_eq!(
            whole.last_trap(),
            sliced.last_trap(),
            "mode {mode:?}: trap state"
        );
        assert_eq!(
            whole.mtimecmp, sliced.mtimecmp,
            "mode {mode:?}: timer state"
        );
        assert_eq!(whole.console, sliced.console, "mode {mode:?}: console");
        for i in 0..16u8 {
            let r = Reg(i);
            assert_eq!(
                whole.cpu.read(r),
                sliced.cpu.read(r),
                "mode {mode:?}: register c{i}"
            );
        }
        assert_eq!(
            whole.tracer().unwrap().events(),
            sliced.tracer().unwrap().events(),
            "mode {mode:?}: trace event streams"
        );
    }
}

#[test]
fn batched_run_resumes_across_cycle_limit_slices() {
    // Slicing the budget must not change behavior: many small run() calls
    // land on the same state as one big one.
    let mut whole = timer_machine();
    let mut sliced = timer_machine();
    whole.run(20_000);
    while sliced.cycles < whole.cycles {
        sliced.run((whole.cycles - sliced.cycles).min(117));
    }
    assert_eq!(whole.cycles, sliced.cycles);
    assert_eq!(whole.stats, sliced.stats);
    assert_eq!(whole.cpu.pc(), sliced.cpu.pc());
    assert_eq!(
        whole.cpu.read_int(Reg::A1),
        sliced.cpu.read_int(Reg::A1),
        "interrupt deliveries diverged"
    );
}

/// Sweep window of [`live_sweep_machine`]: 4 KiB at this SRAM offset.
const SWEEP_BASE: u32 = layout::SRAM_BASE + 0x4000;
const SWEEP_LEN: u32 = 0x1000;
/// Where the revoker-IRQ handler logs `(mcause, mepc)` pairs (256 slots).
const IRQ_LOG: u32 = layout::SRAM_BASE + 0x6000;

/// A guest that keeps the hardware revoker busy from inside a hot
/// fast-arm loop. Setup programs START/END over a 4 KiB window; each loop
/// iteration plants a capability to a freed object in the window, loads
/// it back through the filter, stores a scalar elsewhere in the window
/// and kicks the revoker with an MMIO store (ignored while a sweep is in
/// flight). Interrupts are on, so each sweep's completion IRQ lands
/// mid-loop; the handler logs `mcause` and the interrupted PC to SRAM
/// and counts deliveries in `a1`. Each sweep starts inside a chained
/// stretch that began with the revoker idle, so the loop's fast arms run
/// both with and without a sweep in flight.
///
/// With `guard`, a branch before the kick skips an `s0` increment while
/// `a0 < GUARD_FLIP` and runs it afterwards: the loop is then two blocks
/// that chained dispatch promotes into one superblock, and the branch,
/// now a guard, side-exits on every iteration past the flip.
fn live_sweep_machine(
    core: CoreModel,
    (block_cache, block_chain): (bool, bool),
    guard: bool,
) -> Machine {
    let mut m = Machine::new(MachineConfig {
        block_cache,
        block_chain,
        ..MachineConfig::new(core)
    });
    let op_imm = |op, rd, rs1, imm| Instr::OpImm { op, rd, rs1, imm };
    let handler = vec![
        Instr::Csr {
            op: CsrOp::Rs,
            rd: Reg::GP,
            rs1: Reg::ZERO,
            csr: CsrId::Mcause,
        },
        op_imm(AluOp::Sll, Reg::SP, Reg::A1, 3),
        op_imm(AluOp::And, Reg::SP, Reg::SP, 0x7f8),
        Instr::CIncAddr {
            rd: Reg::RA,
            rs1: Reg::S1,
            rs2: Reg::SP,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::GP,
            rs1: Reg::RA,
            offset: 0,
        },
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
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::GP,
            rs1: Reg::RA,
            offset: 4,
        },
        op_imm(AluOp::Add, Reg::A1, Reg::A1, 1),
        Instr::Mret,
    ];
    let h = m.load_program(&handler);
    let mut main = vec![
        // START = SWEEP_BASE (s0), END = s0 + SWEEP_LEN (t0).
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::S0,
            rs1: Reg::A2,
            offset: revoker_reg::START as i32,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::T0,
            rs1: Reg::A2,
            offset: revoker_reg::END as i32,
        },
    ];
    if guard {
        // End the setup block here, so the loop head is its own block and
        // its edge is the first to turn hot: the head absorbs the kick
        // block and the guard stays interior.
        main.push(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            offset: 4,
        });
    }
    let top = main.len();
    main.extend([
        // loop:
        op_imm(AluOp::Add, Reg::A0, Reg::A0, 1),
        op_imm(AluOp::Sll, Reg::T2, Reg::A0, 3),
        op_imm(AluOp::And, Reg::T2, Reg::T2, 0x7f8),
        Instr::CIncAddr {
            rd: Reg::A5,
            rs1: Reg::A4,
            rs2: Reg::T2,
        },
        Instr::Csc {
            rs2: Reg::TP,
            rs1: Reg::A5,
            offset: 0,
        },
        Instr::Clc {
            rd: Reg::T0,
            rs1: Reg::A5,
            offset: 0,
        },
        Instr::CGet {
            field: CapField::Tag,
            rd: Reg::T1,
            rs1: Reg::T0,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A0,
            rs1: Reg::A5,
            offset: 0x400,
        },
    ]);
    if guard {
        main.extend([
            op_imm(AluOp::Sltu, Reg::T1, Reg::A0, GUARD_FLIP),
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::T1,
                rs2: Reg::ZERO,
                offset: 8,
            },
            op_imm(AluOp::Add, Reg::S0, Reg::S0, 1),
        ]);
    }
    main.push(Instr::Store {
        width: MemWidth::W,
        rs2: Reg::A3,
        rs1: Reg::A2,
        offset: revoker_reg::KICK as i32,
    });
    main.push(Instr::Jal {
        rd: Reg::ZERO,
        offset: -4 * (main.len() - top) as i32,
    });
    let e = m.load_program(&main);
    m.set_entry(e);
    m.cpu.mtcc = m.boot_pcc(h);
    let rw = |addr: u32, len: u64| {
        Capability::root_mem_rw()
            .with_address(addr)
            .set_bounds(len)
            .unwrap()
    };
    let freed = m.cfg().heap_base() + 0x200;
    m.bitmap.set_range(freed, 32);
    m.cpu.write(Reg::TP, rw(freed, 32));
    m.cpu.write(Reg::A2, rw(layout::REVOKER_BASE, 16));
    m.cpu.write_int(Reg::A3, 1);
    m.cpu.write(Reg::A4, rw(SWEEP_BASE, u64::from(SWEEP_LEN)));
    m.cpu.write(Reg::S1, rw(IRQ_LOG, 0x800));
    m.cpu.write_int(Reg::S0, SWEEP_BASE);
    m.cpu.write_int(Reg::T0, SWEEP_BASE + SWEEP_LEN);
    m.cpu.interrupts_enabled = true;
    m
}

/// Iteration at which [`live_sweep_machine`]'s guard flips.
const GUARD_FLIP: i32 = 2000;

#[test]
fn three_way_dispatch_equivalence_under_a_live_revoker_sweep() {
    // The chained loop keeps cycles register-resident and runs the
    // unchecked fast stream only while no sweep is in flight. A sweep
    // that a loop instruction starts must take its idle cycles from every
    // following instruction, in every tier, so its completion IRQ lands
    // at the same boundary.
    assert_live_sweep_equivalence(false);
}

#[test]
fn three_way_dispatch_equivalence_under_a_live_revoker_sweep_over_a_promoted_block() {
    // The same sweep over a loop that chained dispatch has promoted into
    // one superblock: its guard runs with and without a sweep in flight,
    // continues before the flip and side-exits after it, and the
    // completion IRQs still land at the same boundaries in every tier.
    let chained = assert_live_sweep_equivalence(true);
    for (kind, stats) in chained {
        assert!(stats.promotions > 0, "{kind:?}: loop promoted");
        assert!(stats.side_exits > 0, "{kind:?}: guard side-exits");
    }
}

/// Runs [`live_sweep_machine`] in all three dispatch modes on both cores,
/// asserts they agree on everything observable, and returns the chained
/// machines' block-cache counters.
fn assert_live_sweep_equivalence(
    guard: bool,
) -> Vec<(cheriot_core::CoreKind, cheriot_core::BlockCacheStats)> {
    let modes = [(false, false), (true, false), (true, true)];
    let mut chained = Vec::new();
    for core in [CoreModel::ibex(), CoreModel::flute()] {
        let mut machines: Vec<Machine> = modes
            .iter()
            .map(|&mode| live_sweep_machine(core, mode, guard))
            .collect();
        let exits: Vec<ExitReason> = machines.iter_mut().map(|m| m.run(200_000)).collect();
        let (s, rest) = machines.split_first().unwrap();
        let kind = core.kind;
        assert_eq!(exits[0], ExitReason::CycleLimit, "{kind:?}");
        assert!(
            s.stats.interrupts > 20,
            "{kind:?}: revoker IRQs must land mid-loop (got {})",
            s.stats.interrupts
        );
        assert_eq!(
            u64::from(s.cpu.read_int(Reg::A1)),
            s.stats.interrupts,
            "{kind:?}: every delivery ran the handler"
        );
        assert!(s.revoker.epoch() > 40, "{kind:?}: sweeps must repeat");
        assert!(
            s.revoker.words_invalidated > 0,
            "{kind:?}: sweeps must strip planted capabilities"
        );
        assert_eq!(
            s.stats.stall_cycles > 0,
            core.load_to_use > 0,
            "{kind:?}: load-to-use stalls"
        );
        for (m, (exit, mode)) in rest.iter().zip(exits[1..].iter().zip(&modes[1..])) {
            let at = format!("{kind:?} mode {mode:?}");
            assert_eq!(*exit, exits[0], "{at}: exit");
            assert_eq!(m.cycles, s.cycles, "{at}: cycles");
            assert_eq!(m.stats, s.stats, "{at}: stats");
            assert_eq!(m.cpu.pc(), s.cpu.pc(), "{at}: PC");
            assert_eq!(m.last_trap(), s.last_trap(), "{at}: trap cause");
            assert_eq!(m.cpu.mepcc, s.cpu.mepcc, "{at}: trap PC");
            assert_eq!(m.revoker.epoch(), s.revoker.epoch(), "{at}: epoch");
            assert_eq!(
                m.revoker.words_invalidated, s.revoker.words_invalidated,
                "{at}: revoked words"
            );
            for i in 0..16u8 {
                let r = Reg(i);
                assert_eq!(m.cpu.read(r), s.cpu.read(r), "{at}: register c{i}");
            }
            assert!(m.sram.content_eq(&s.sram), "{at}: SRAM bytes and tags");
        }
        if guard {
            assert!(
                s.cpu.read_int(Reg::S0) > 0,
                "{kind:?}: loop must run past the guard's flip"
            );
        }
        chained.push((kind, machines[2].block_stats()));
    }
    chained
}
