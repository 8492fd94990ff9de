//! Property: for *any* capability operand encoding — any 64-bit pattern,
//! tagged or not — and any 12-bit immediate, a single capability or
//! pure-register instruction executes identically on the golden
//! interpreter and the stepwise engine, on both core models. This drills
//! the exact surface the engine's decoded-capability caching could get
//! wrong: weird otypes, denormal bounds, reserved permission bits. The
//! engine has one implementation of the pure-register instructions,
//! shared by all its dispatch tiers, so the golden model is the only
//! independent check on them.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, CapField, Instr, MulOp, Reg};
use cheriot_core::machine::layout;
use cheriot_diff::{build_engine, compare, generate, Golden, Profile};
use proptest::prelude::*;

const OPS: usize = 25;

/// Instruction `ix`; `imm` is a 12-bit signed immediate.
fn pick_instr(ix: usize, imm: i32) -> Instr {
    let (rd, rs1, rs2) = (Reg::A0, Reg::A1, Reg::A2);
    match ix {
        0 => Instr::CGet {
            field: CapField::Perm,
            rd,
            rs1,
        },
        1 => Instr::CGet {
            field: CapField::Type,
            rd,
            rs1,
        },
        2 => Instr::CGet {
            field: CapField::Base,
            rd,
            rs1,
        },
        3 => Instr::CGet {
            field: CapField::Len,
            rd,
            rs1,
        },
        4 => Instr::CGet {
            field: CapField::Tag,
            rd,
            rs1,
        },
        5 => Instr::CGet {
            field: CapField::Addr,
            rd,
            rs1,
        },
        6 => Instr::CGet {
            field: CapField::High,
            rd,
            rs1,
        },
        7 => Instr::CSetAddr { rd, rs1, rs2 },
        8 => Instr::CIncAddr { rd, rs1, rs2 },
        9 => Instr::CIncAddrImm { rd, rs1, imm },
        10 => Instr::CSetBounds {
            rd,
            rs1,
            rs2,
            exact: false,
        },
        11 => Instr::CSetBounds {
            rd,
            rs1,
            rs2,
            exact: true,
        },
        12 => Instr::CSetBoundsImm {
            rd,
            rs1,
            imm: imm as u32 & 0xfff,
        },
        13 => Instr::CAndPerm { rd, rs1, rs2 },
        14 => Instr::CClearTag { rd, rs1 },
        15 => Instr::CSeal { rd, rs1, rs2 },
        16 => Instr::CUnseal { rd, rs1, rs2 },
        17 => Instr::CTestSubset { rd, rs1, rs2 },
        18 => Instr::CSetEqualExact { rd, rs1, rs2 },
        19 => Instr::Lui {
            rd,
            imm: imm as u32 & 0xfffff,
        },
        20 => Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        },
        21 => Instr::OpImm {
            op: AluOp::Sra,
            rd,
            rs1,
            imm: imm & 31,
        },
        22 => Instr::Op {
            op: AluOp::Sltu,
            rd,
            rs1,
            rs2,
        },
        23 => Instr::MulDiv {
            op: MulOp::Rem,
            rd,
            rs1,
            rs2,
        },
        24 => Instr::CMove { rd, rs1 },
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn single_cap_instr_matches_engine(
        ix in 0usize..OPS,
        word1 in any::<u64>(),
        tag1 in any::<bool>(),
        word2 in any::<u64>(),
        tag2 in any::<bool>(),
        imm in -2048i32..2048,
    ) {
        let instr = pick_instr(ix, imm);
        let prog = [instr, Instr::Halt];
        let a = Capability::from_word(word1, tag1);
        let b = Capability::from_word(word2, tag2);
        for core in [cheriot_core::pipeline::CoreModel::ibex(),
                     cheriot_core::pipeline::CoreModel::flute()] {
            let mut g = Golden::new(core, &prog);
            let mut m = build_engine(&prog, core, (false, false), None);
            g.cpu.write(Reg::A1, a);
            g.cpu.write(Reg::A2, b);
            m.cpu.write(Reg::A1, a);
            m.cpu.write(Reg::A2, b);
            g.step();
            m.step();
            let mm = compare(&g, &m, false);
            prop_assert!(
                mm.is_empty(),
                "instr {instr:?} on {a:?} / {b:?} diverged: {mm:?}"
            );
        }
    }
}

/// Generated whole programs also agree instruction-for-instruction when
/// single-stepped — a cheap cross-check that the lockstep protocol isn't
/// hiding anything between checkpoints.
#[test]
fn generated_programs_agree_under_pure_single_step() {
    for seed in 1..6u64 {
        let prog = generate(seed, &Profile::full()).instrs();
        let core = cheriot_core::pipeline::CoreModel::ibex();
        let mut g = Golden::new(core, &prog);
        let mut m = build_engine(&prog, core, (false, false), None);
        let mut steps = 0u32;
        while g.halted.is_none() && g.cycles < 60_000 && steps < 100_000 {
            g.step();
            while m.exit_status().is_none() && m.cycles < g.cycles {
                m.step();
            }
            let mm = compare(&g, &m, false);
            assert!(
                mm.is_empty(),
                "seed {seed} diverged at cycle {} pc {:#x}: {mm:?}",
                g.cycles,
                layout::CODE_BASE.max(g.cpu.pc()),
            );
            steps += 1;
        }
    }
}
