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

/// Every immediate of every immediate-form instruction, enumerated, not
/// sampled: all 4096 immediates of `CIncAddrImm`, `CSetBoundsImm` and the
/// six non-shift `OpImm` ops, and all 32 shift amounts of `Sll`/`Srl`/
/// `Sra`, each on three fixed `rs1` operands on both cores. The engine's
/// single copy of these arms is only checked against the golden model, so
/// a bug confined to one immediate must fail here.
///
/// Each form runs as one straight-line program (`rd = a0`, `rs1 = a1`; no
/// instruction here traps or writes `a1`) stepped in lockstep, comparing
/// the whole architectural state after every instruction.
#[test]
fn every_immediate_matches_golden() {
    let (rd, rs1) = (Reg::A0, Reg::A1);
    let imms = || -2048i32..2048;
    let mut forms: Vec<Vec<Instr>> = vec![
        imms().map(|imm| pick_instr(9, imm)).collect(),
        imms().map(|imm| pick_instr(12, imm)).collect(),
    ];
    for op in [
        AluOp::Add,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Xor,
        AluOp::Or,
        AluOp::And,
    ] {
        forms.push(
            imms()
                .map(|imm| Instr::OpImm { op, rd, rs1, imm })
                .collect(),
        );
    }
    for op in [AluOp::Sll, AluOp::Srl, AluOp::Sra] {
        forms.push(
            (0..32)
                .map(|imm| Instr::OpImm { op, rd, rs1, imm })
                .collect(),
        );
    }

    // The address sits in the middle of a 256-byte object whose 512-byte
    // representable window ends 384 bytes above it, so the sweep crosses
    // the representability edge (`CIncAddrImm` +384 clears the tag), the
    // base (-129) and the top (`CSetBoundsImm` length 129).
    let edge = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE + 0x1000)
        .set_bounds(256)
        .expect("256 B is representable")
        .incremented(0x80);
    assert!(edge.incremented(383).tag() && !edge.incremented(384).tag());
    let sealer = Capability::root_sealing().with_address(3);
    let operands = [
        edge,
        Capability::from_word(edge.to_word(), false),
        edge.seal_with(sealer).expect("sealable"),
    ];

    for form in &forms {
        let mut prog = form.clone();
        prog.push(Instr::Halt);
        for operand in operands {
            for core in [
                cheriot_core::pipeline::CoreModel::ibex(),
                cheriot_core::pipeline::CoreModel::flute(),
            ] {
                let mut g = Golden::new(core, &prog);
                let mut m = build_engine(&prog, core, (false, false), None);
                g.cpu.write(rs1, operand);
                m.cpu.write(rs1, operand);
                for instr in form {
                    g.step();
                    m.step();
                    let mm = compare(&g, &m, false);
                    assert!(
                        mm.is_empty(),
                        "{instr:?} on {operand:?} ({}) diverged: {mm:?}",
                        core.kind
                    );
                }
            }
        }
    }
}

/// Base of the SRAM window the memory property's authorities cover.
const WIN: u32 = layout::SRAM_BASE + 0x2000;

/// The memory sequence: `csc`, `clc`, `sw`, `sh`, `sb`, `lw`, `lh`,
/// `lhu`, `lb`, `lbu`, all through the authority in `s0`, storing `a1`
/// (capability) or `a2` (scalar), each load into its own register; then
/// `halt`, then a trap handler that steps `mepcc` past the faulting
/// instruction and returns, so every access of the sequence runs.
fn memory_program(offsets: [i32; 10]) -> Vec<Instr> {
    use cheriot_core::insn::{MemWidth, ScrId};
    let auth = Reg::S0;
    let load = |width, signed, rd, offset| Instr::Load {
        width,
        signed,
        rd,
        rs1: auth,
        offset,
    };
    let store = |width, offset| Instr::Store {
        width,
        rs2: Reg::A2,
        rs1: auth,
        offset,
    };
    let o = offsets;
    vec![
        Instr::Csc {
            rs2: Reg::A1,
            rs1: auth,
            offset: o[0],
        },
        Instr::Clc {
            rd: Reg::A3,
            rs1: auth,
            offset: o[1],
        },
        store(MemWidth::W, o[2]),
        store(MemWidth::H, o[3]),
        store(MemWidth::B, o[4]),
        load(MemWidth::W, true, Reg::A4, o[5]),
        load(MemWidth::H, true, Reg::A5, o[6]),
        load(MemWidth::H, false, Reg::T1, o[7]),
        load(MemWidth::B, true, Reg::T2, o[8]),
        load(MemWidth::B, false, Reg::S1, o[9]),
        Instr::Halt,
        // The trap vector: mepcc += 4; mret.
        Instr::CSpecialRw {
            rd: Reg::T0,
            rs1: Reg::ZERO,
            scr: ScrId::Mepcc,
        },
        Instr::CIncAddrImm {
            rd: Reg::T0,
            rs1: Reg::T0,
            imm: 4,
        },
        Instr::CSpecialRw {
            rd: Reg::ZERO,
            rs1: Reg::T0,
            scr: ScrId::Mepcc,
        },
        Instr::Mret,
    ]
}

/// Runs `prog` from `init`'s state on the golden model and on the engine
/// in `dispatch` mode, twice: stepped in lockstep, with the whole state
/// compared at every trap and at exit, and run straight to the halt (so
/// the chained tier runs its unchecked fast stream), compared at exit.
/// Exit comparisons include every SRAM byte and tag.
fn memory_run_agrees(
    prog: &[Instr],
    core: cheriot_core::pipeline::CoreModel,
    dispatch: (bool, bool),
    init: &dyn Fn(&mut cheriot_core::cpu::Cpu),
) -> Result<(), String> {
    let mut g = Golden::new(core, prog);
    init(&mut g.cpu);
    let mut m = build_engine(prog, core, dispatch, None);
    init(&mut m.cpu);
    let mut free = m.clone();
    while g.halted.is_none() && g.cycles < 10_000 {
        if g.step() {
            while m.exit_status().is_none() && m.cycles < g.cycles {
                m.run(g.cycles - m.cycles);
            }
            let mm = compare(&g, &m, false);
            if !mm.is_empty() {
                return Err(format!("at the trap @{}: {mm:?}", g.cycles));
            }
        }
    }
    for (engine, how) in [(&mut m, "stepped"), (&mut free, "free-running")] {
        engine.run(10_000);
        let mm = compare(&g, engine, true);
        if !mm.is_empty() {
            return Err(format!("{how}, at exit: {mm:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Loads, stores, `clc` and `csc` agree with the golden interpreter
    /// on both cores and in every dispatch mode. The engine writes each
    /// of them once, for every tier (the chained tier's inline arms run
    /// the same code restricted to SRAM), so the golden model is their
    /// only independent check.
    ///
    /// The authority is an SRAM capability with random bounds, cursor
    /// and permissions (each of LD, SD, MC, SL, GL, LG and LM present
    /// with probability 3/4, then normalised); the stored capability is
    /// tagged or not, global or local. Every access targets one of three
    /// 8-byte slots around the bounds (one may lie below the base or at
    /// the top), usually aligned and otherwise displaced by 1–7 bytes, so
    /// accesses overlap, fault on bounds and alignment, and reload what
    /// earlier ones stored. `mshwmb`/`mshwm` bracket the window, so every
    /// store, faulting ones included, notes the stack high-water mark.
    #[test]
    fn memory_instrs_match_golden(
        base_slot in 0u32..16,
        len in 8u32..96,
        cursor in any::<u32>(),
        perm_draws in (any::<u8>(), any::<u8>()),
        stored in (any::<bool>(), any::<bool>(), any::<bool>()),
        value in any::<u32>(),
        slot_draws in (any::<u8>(), any::<u8>(), any::<u8>()),
        picks in proptest::collection::vec((0usize..3, 0u32..32), 10..11),
    ) {
        use cheriot_cap::Permissions;
        let base = WIN + 8 * base_slot;
        let cursor = cursor % len;
        let bits = perm_draws.0 | perm_draws.1;
        let perms = [
            Permissions::LD,
            Permissions::SD,
            Permissions::MC,
            Permissions::SL,
            Permissions::GL,
            Permissions::LG,
            Permissions::LM,
        ]
        .iter()
        .enumerate()
        .filter(|&(i, _)| bits >> i & 1 == 1)
        .fold(Permissions::NONE, |acc, (_, &p)| acc | p);
        let auth = Capability::root_mem_rw()
            .with_address(base)
            .set_bounds(u64::from(len))
            .expect("small SRAM bounds are exact")
            .and_perms(perms)
            .with_address(base + cursor);
        let (tagged, tagged_again, global) = stored;
        let mut cap = Capability::root_mem_rw()
            .with_address(WIN + 0x400)
            .set_bounds(64)
            .expect("representable");
        if !global {
            cap = cap.and_perms(Permissions::ROOT_MEM.difference(Permissions::GL));
        }
        if !(tagged || tagged_again) {
            cap = cap.cleared();
        }
        // Slot `k` starts at `base + 8 * (k - 1)`: slot 0 lies below the
        // base, the last one at or past the top.
        let slots = len / 8 + 2;
        let slot_of = |d: u8| 8 * (i32::from(d) % slots as i32 - 1);
        let slot = [slot_of(slot_draws.0), slot_of(slot_draws.1), slot_of(slot_draws.2)];
        let offsets: [i32; 10] = std::array::from_fn(|i| {
            let (s, shift) = picks[i];
            let shift = shift.saturating_sub(24) as i32; // 0 with p = 3/4
            slot[s] + shift - cursor as i32
        });
        let prog = memory_program(offsets);
        let handler = layout::CODE_BASE + 4 * 11;
        let init = |cpu: &mut cheriot_core::cpu::Cpu| {
            cpu.write(Reg::S0, auth);
            cpu.write(Reg::A1, cap);
            cpu.write_int(Reg::A2, value);
            cpu.mtcc = cpu.pcc.with_address(handler);
            cpu.mshwmb = WIN - 64;
            cpu.mshwm = WIN + 0x200;
        };
        for core in [cheriot_core::pipeline::CoreModel::ibex(),
                     cheriot_core::pipeline::CoreModel::flute()] {
            for (mode, dispatch) in cheriot_diff::DISPATCH_MODES {
                let run = memory_run_agrees(&prog, core, dispatch, &init);
                prop_assert!(
                    run.is_ok(),
                    "{} {mode}: auth {auth:?}, stored {cap:?}, offsets {offsets:?}: {}",
                    core.kind,
                    run.unwrap_err()
                );
            }
        }
    }
}
