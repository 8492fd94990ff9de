//! Without the CHERI extension (`MachineConfig::cheri_enabled` false, the
//! plain RV32E+M baseline of Table 3) every CHERI instruction is illegal.
//! Each opcode family is probed on all three dispatch tiers — stepwise,
//! block cache, chained — at the start of a block, in the middle of one,
//! and as the target of a forward `j` that chained decode would chase:
//! the probe must trap `IllegalInstruction` at its own PC with nothing
//! written, after the instructions before it retired.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, CapField, Instr, Reg, ScrId};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig, TrapCause};

const TIERS: [(&str, bool, bool); 3] = [
    ("stepwise", false, false),
    ("cached", true, false),
    ("chained", true, true),
];

fn li(rd: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1: Reg::ZERO,
        imm,
    }
}

/// The probe placements: the instructions before it, then it, then
/// `li a0, 1; halt` (never reached).
fn placements(probe: Instr) -> [(&'static str, Vec<Instr>); 3] {
    let tail = [probe, li(Reg::A0, 1), Instr::Halt];
    let with = |head: &[Instr]| [head, &tail].concat();
    [
        ("block start", with(&[])),
        ("mid-block", with(&[li(Reg::A1, 5), li(Reg::A2, 6)])),
        (
            "chased jump target",
            with(&[
                Instr::Jal {
                    rd: Reg::ZERO,
                    offset: 8,
                },
                Instr::Halt,
            ]),
        ),
    ]
}

/// Runs `probe` in every placement on every tier and checks the trap.
fn assert_illegal(probe: Instr) {
    for (place, prog) in placements(probe) {
        let probe_pc = 4 * (prog.len() as u32 - 3);
        let mut outcomes = Vec::new();
        for (tier, block_cache, block_chain) in TIERS {
            let mut m = Machine::new(MachineConfig {
                cheri_enabled: false,
                block_cache,
                block_chain,
                ..MachineConfig::new(CoreModel::ibex())
            });
            let entry = m.load_program(&prog);
            m.set_entry(entry);
            // Valid authority wherever a probe reads one, so that only the
            // missing extension can make it trap.
            let data = Capability::root_mem_rw().with_address(layout::SRAM_BASE + 0x100);
            for r in [Reg::SP, Reg::A4, Reg::A5] {
                m.cpu.write(r, data);
            }
            let regs: Vec<u32> = (0..16).map(|r| m.cpu.read_int(Reg(r))).collect();
            let exit = m.run(1_000);
            let at = format!("{probe:?} ({place}) on {tier}");
            assert_eq!(
                exit,
                ExitReason::Fault(TrapCause::IllegalInstruction),
                "{at}"
            );
            assert_eq!(m.cpu.pc(), entry + probe_pc, "{at}: trap PC");
            for r in [Reg::A0, Reg::A3] {
                assert_eq!(m.cpu.read_int(r), regs[r.0 as usize], "{at}: {r:?}");
            }
            if place == "mid-block" {
                assert_eq!(m.cpu.read_int(Reg::A2), 6, "{at}: earlier work retired");
            }
            outcomes.push((m.cycles, m.stats.instructions));
        }
        assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "{probe:?} ({place}): tiers disagree on (cycles, instructions): {outcomes:?}"
        );
    }
}

#[test]
fn capability_register_ops_are_illegal() {
    // The FOUND probe first: `csetboundsimm` used to execute.
    assert_illegal(Instr::CSetBoundsImm {
        rd: Reg::A0,
        rs1: Reg::SP,
        imm: 16,
    });
    let (rd, rs1, rs2) = (Reg::A0, Reg::A4, Reg::A5);
    for probe in [
        Instr::CGet {
            field: CapField::Addr,
            rd,
            rs1,
        },
        Instr::CSetAddr { rd, rs1, rs2 },
        Instr::CIncAddr { rd, rs1, rs2 },
        Instr::CIncAddrImm { rd, rs1, imm: 4 },
        Instr::CSetBounds {
            rd,
            rs1,
            rs2,
            exact: false,
        },
        Instr::CAndPerm { rd, rs1, rs2 },
        Instr::CClearTag { rd, rs1 },
        Instr::CMove { rd, rs1 },
        Instr::CTestSubset { rd, rs1, rs2 },
        Instr::CSetEqualExact { rd, rs1, rs2 },
        Instr::CRoundRepresentableLength { rd, rs1 },
        Instr::CRepresentableAlignmentMask { rd, rs1 },
    ] {
        assert_illegal(probe);
    }
}

#[test]
fn capability_loads_and_stores_are_illegal() {
    assert_illegal(Instr::Clc {
        rd: Reg::A0,
        rs1: Reg::SP,
        offset: 0,
    });
    assert_illegal(Instr::Csc {
        rs2: Reg::A3,
        rs1: Reg::SP,
        offset: 0,
    });
}

#[test]
fn capability_derivations_from_pcc_and_cgp_are_illegal() {
    assert_illegal(Instr::Auipcc {
        rd: Reg::A0,
        imm: 1,
    });
    assert_illegal(Instr::Auicgp {
        rd: Reg::A0,
        imm: 1,
    });
}

#[test]
fn seal_and_unseal_are_illegal() {
    let (rd, rs1, rs2) = (Reg::A0, Reg::A4, Reg::A5);
    assert_illegal(Instr::CSeal { rd, rs1, rs2 });
    assert_illegal(Instr::CUnseal { rd, rs1, rs2 });
}

#[test]
fn special_capability_register_access_is_illegal() {
    for scr in [ScrId::Mtcc, ScrId::Mepcc] {
        assert_illegal(Instr::CSpecialRw {
            rd: Reg::A0,
            rs1: Reg::ZERO,
            scr,
        });
    }
}

#[test]
fn the_same_programs_run_with_cheri_enabled() {
    // The probe placements are ordinary code under CHERI: `cmove` runs
    // and the program halts with `a0 = 1` on every tier.
    let probe = Instr::CMove {
        rd: Reg::A3,
        rs1: Reg::A1,
    };
    for (place, prog) in placements(probe) {
        for (tier, block_cache, block_chain) in TIERS {
            let mut m = Machine::new(MachineConfig {
                block_cache,
                block_chain,
                ..MachineConfig::new(CoreModel::ibex())
            });
            let entry = m.load_program(&prog);
            m.set_entry(entry);
            assert_eq!(m.run(1_000), ExitReason::Halted(1), "{place} on {tier}");
        }
    }
}
