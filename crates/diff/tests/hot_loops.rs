//! The golden model is the spec for runtime superblock promotion too.
//! Generated programs rarely run a loop past the promotion threshold, so
//! these hand-built hot loops do: each interior branch stays one-way long
//! enough for chained dispatch to fold the loop into one superblock, then
//! flips for a single iteration so its guard side-exits. Every program is
//! compared in lockstep against all six engine configurations (three
//! dispatch modes × two core models), with and without timer interrupts
//! landing inside the loop.

use cheriot_core::insn::{AluOp, BranchCond, Instr, MemWidth, Reg};
use cheriot_diff::{build_engine, core_models, Golden, Op, Program, Reference, DISPATCH_MODES};

const BUDGET: u64 = 200_000;

fn branch(cond: BranchCond, rs1: Reg, rs2: Reg, words: i32) -> Instr {
    Instr::Branch {
        cond,
        rs1,
        rs2,
        offset: 4 * words,
    }
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1,
        imm,
    }
}

/// A counted loop (`t0` from `count` down to 1) over four blocks. Three
/// interior branches each flip for one iteration: on `t0 == a2`, on the
/// just-stored-and-reloaded `a1 == a4` (a load-to-use hazard on the
/// branch), and on `t0 == a5`. A forward `j` sits between the last two.
fn flip_loop(count: u8, flips: [i32; 3], timer: bool) -> Program {
    let body = vec![
        addi(Reg::A1, Reg::A1, 1),
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A1,
            rs1: Reg::GP,
            offset: 0,
        },
        branch(BranchCond::Ne, Reg::T0, Reg::A2, 2),
        addi(Reg::A0, Reg::A0, 3),
        Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::A3,
            rs1: Reg::GP,
            offset: 0,
        },
        branch(BranchCond::Eq, Reg::A3, Reg::A4, 3),
        addi(Reg::A0, Reg::A0, 1),
        Instr::Jal {
            rd: Reg::ZERO,
            offset: 8,
        },
        addi(Reg::A0, Reg::A0, 7),
        branch(BranchCond::Ne, Reg::T0, Reg::A5, 2),
        Instr::Op {
            op: AluOp::Xor,
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        },
    ];
    Program {
        seed: 0,
        handler: timer,
        timer,
        seal: timer,
        data: true,
        tramps: Vec::new(),
        ops: vec![
            Op::SeedReg {
                reg: Reg::A2,
                val: flips[0],
            },
            Op::SeedReg {
                reg: Reg::A4,
                val: flips[1],
            },
            Op::SeedReg {
                reg: Reg::A5,
                val: flips[2],
            },
            Op::Loop { count, body },
        ],
    }
}

#[test]
fn hot_loop_guards_match_the_golden_model_in_all_six_engine_configs() {
    let programs = [
        flip_loop(200, [60, 100, 30], false),
        flip_loop(250, [90, 120, 20], true),
        flip_loop(255, [200, 180, 40], true),
    ];
    for (p, prog) in programs.iter().enumerate() {
        let instrs = prog.instrs();
        for (core_name, core) in core_models() {
            let mut dry = Golden::new(core, &instrs);
            dry.run(BUDGET, None);
            assert!(dry.halted.is_some(), "program {p} must halt on {core_name}");
            let reference = Reference::record(prog, &instrs, core, BUDGET, Some(dry.cycles / 2));
            for (dispatch_name, dispatch) in DISPATCH_MODES {
                if let Err(d) = reference.check(core_name, dispatch_name, dispatch, None) {
                    panic!("program {p} diverged:\n{d:#?}");
                }
            }
            // The loops must actually exercise what this test is about.
            let mut m = build_engine(&instrs, core, (true, true), None);
            m.run(BUDGET);
            let bs = m.block_stats();
            assert!(
                bs.promotions > 0,
                "program {p} on {core_name}: no promotion"
            );
            assert!(
                bs.side_exits > 0,
                "program {p} on {core_name}: no side exit"
            );
        }
    }
}
