//! Table-driven semantics tests for the executor: every ALU operation,
//! M-extension edge cases (RISC-V division semantics), load widths and
//! sign extension, branch conditions, CSR operations, and the CGet field
//! readers. These pin the ISA against regressions independently of the
//! higher-level workloads.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, BranchCond, CapField, CsrId, CsrOp, Instr, MemWidth, MulOp, Reg};
use cheriot_core::trace::{EventKind, Tracer};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};

fn run_binop(mk: impl Fn(Reg, Reg, Reg) -> Instr, a: u32, b: u32) -> u32 {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let prog = vec![mk(Reg::A0, Reg::A1, Reg::A2), Instr::Halt];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.cpu.write_int(Reg::A1, a);
    m.cpu.write_int(Reg::A2, b);
    match m.run(100) {
        ExitReason::Halted(v) => v,
        other => panic!("{other:?}"),
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    run_binop(|rd, rs1, rs2| Instr::Op { op, rd, rs1, rs2 }, a, b)
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    run_binop(|rd, rs1, rs2| Instr::MulDiv { op, rd, rs1, rs2 }, a, b)
}

#[test]
fn alu_semantics() {
    assert_eq!(alu(AluOp::Add, 0xffff_ffff, 1), 0); // wrap
    assert_eq!(alu(AluOp::Sub, 0, 1), 0xffff_ffff);
    assert_eq!(alu(AluOp::Sll, 1, 33), 2); // shift amount mod 32
    assert_eq!(alu(AluOp::Srl, 0x8000_0000, 31), 1);
    assert_eq!(alu(AluOp::Sra, 0x8000_0000, 31), 0xffff_ffff);
    assert_eq!(alu(AluOp::Slt, 0xffff_ffff, 0), 1); // -1 < 0 signed
    assert_eq!(alu(AluOp::Sltu, 0xffff_ffff, 0), 0); // max > 0 unsigned
    assert_eq!(alu(AluOp::Xor, 0xff00, 0x0ff0), 0xf0f0);
    assert_eq!(alu(AluOp::Or, 0xf0, 0x0f), 0xff);
    assert_eq!(alu(AluOp::And, 0xf0, 0x3c), 0x30);
}

#[test]
fn riscv_division_semantics() {
    // Division by zero: quotient all-ones, remainder = dividend.
    assert_eq!(muldiv(MulOp::Div, 42, 0), u32::MAX);
    assert_eq!(muldiv(MulOp::Divu, 42, 0), u32::MAX);
    assert_eq!(muldiv(MulOp::Rem, 42, 0), 42);
    assert_eq!(muldiv(MulOp::Remu, 42, 0), 42);
    // Signed overflow: MIN / -1 = MIN, MIN % -1 = 0.
    assert_eq!(muldiv(MulOp::Div, 0x8000_0000, u32::MAX), 0x8000_0000);
    assert_eq!(muldiv(MulOp::Rem, 0x8000_0000, u32::MAX), 0);
    // Ordinary signed division truncates toward zero.
    assert_eq!(muldiv(MulOp::Div, (-7i32) as u32, 2) as i32, -3);
    assert_eq!(muldiv(MulOp::Rem, (-7i32) as u32, 2) as i32, -1);
    // High halves.
    assert_eq!(muldiv(MulOp::Mulhu, 0xffff_ffff, 0xffff_ffff), 0xffff_fffe);
    assert_eq!(
        muldiv(MulOp::Mulh, (-1i32) as u32, (-1i32) as u32),
        0 // (-1)*(-1) = 1, high half 0
    );
    assert_eq!(muldiv(MulOp::Mul, 0x10000, 0x10000), 0); // low half wraps
}

#[test]
fn load_sign_extension() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let cap = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE)
        .set_bounds(16)
        .unwrap();
    m.meter()
        .store(cap, layout::SRAM_BASE, 4, 0x8081_8283)
        .unwrap();
    let cases: [(MemWidth, bool, i32, u32); 6] = [
        (MemWidth::B, false, 0, 0x83),
        (MemWidth::B, true, 0, 0xffff_ff83),
        (MemWidth::H, false, 0, 0x8283),
        (MemWidth::H, true, 0, 0xffff_8283),
        (MemWidth::W, false, 0, 0x8081_8283),
        (MemWidth::B, true, 3, 0xffff_ff80),
    ];
    for (width, signed, offset, want) in cases {
        let prog = vec![
            Instr::Load {
                width,
                signed,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset,
            },
            Instr::Halt,
        ];
        let mut m2 = m.clone();
        let e = m2.load_program(&prog);
        m2.set_entry(e);
        m2.cpu.write(Reg::A1, cap);
        assert_eq!(
            m2.run(100),
            ExitReason::Halted(want),
            "{width:?} signed={signed} off={offset}"
        );
    }
}

#[test]
fn branch_conditions() {
    let cases: [(BranchCond, u32, u32, bool); 8] = [
        (BranchCond::Eq, 5, 5, true),
        (BranchCond::Ne, 5, 5, false),
        (BranchCond::Lt, (-1i32) as u32, 0, true),
        (BranchCond::Ltu, (-1i32) as u32, 0, false),
        (BranchCond::Ge, 0, (-1i32) as u32, true),
        (BranchCond::Geu, 0, (-1i32) as u32, false),
        (BranchCond::Lt, 3, 3, false),
        (BranchCond::Geu, 3, 3, true),
    ];
    for (cond, a, b, taken) in cases {
        let prog = vec![
            Instr::Branch {
                cond,
                rs1: Reg::A1,
                rs2: Reg::A2,
                offset: 12,
            },
            // fallthrough: a0 = 1
            Instr::OpImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 1,
            },
            Instr::Halt,
            // taken: a0 = 2
            Instr::OpImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 2,
            },
            Instr::Halt,
        ];
        let mut m = Machine::new(MachineConfig::new(CoreModel::flute()));
        let e = m.load_program(&prog);
        m.set_entry(e);
        m.cpu.write_int(Reg::A1, a);
        m.cpu.write_int(Reg::A2, b);
        let want = if taken { 2 } else { 1 };
        assert_eq!(
            m.run(100),
            ExitReason::Halted(want),
            "{cond:?} {a:#x} {b:#x}"
        );
    }
}

#[test]
fn cget_fields() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let cap = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE + 0x40)
        .set_bounds(96)
        .unwrap();
    for (field, want) in [
        (CapField::Base, layout::SRAM_BASE + 0x40),
        (CapField::Len, 96),
        (CapField::Tag, 1),
        (CapField::Addr, layout::SRAM_BASE + 0x40),
        (CapField::Perm, u32::from(cap.perms().bits())),
        (CapField::Type, 0),
    ] {
        let prog = vec![
            Instr::CGet {
                field,
                rd: Reg::A0,
                rs1: Reg::A1,
            },
            Instr::Halt,
        ];
        let mut m2 = m.clone();
        let e = m2.load_program(&prog);
        m2.set_entry(e);
        m2.cpu.write(Reg::A1, cap);
        assert_eq!(m2.run(100), ExitReason::Halted(want), "{field:?}");
    }
    let _ = &mut m;
}

#[test]
fn csr_set_and_clear_bits() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let prog = vec![
        // mshwm = 0xf0
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::ZERO,
            imm: 0xf0,
        },
        Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::ZERO,
            rs1: Reg::T0,
            csr: CsrId::Mshwm,
        },
        // set bits 0x0f
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::ZERO,
            imm: 0x0f,
        },
        Instr::Csr {
            op: CsrOp::Rs,
            rd: Reg::ZERO,
            rs1: Reg::T0,
            csr: CsrId::Mshwm,
        },
        // clear bits 0x30, read old into a1 then read final into a0
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::ZERO,
            imm: 0x30,
        },
        Instr::Csr {
            op: CsrOp::Rc,
            rd: Reg::A1,
            rs1: Reg::T0,
            csr: CsrId::Mshwm,
        },
        Instr::Csr {
            op: CsrOp::Rs,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            csr: CsrId::Mshwm,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    assert_eq!(m.run(100), ExitReason::Halted(0xcf));
    assert_eq!(m.cpu.read_int(Reg::A1), 0xff);
}

#[test]
fn mcycle_reads_do_not_need_sr() {
    // User counters are readable without the SR permission.
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let prog = vec![
        Instr::Csr {
            op: CsrOp::Rs,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            csr: CsrId::Mcycle,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    // Strip SR from the PCC.
    m.cpu.pcc = m.cpu.pcc.and_perms(!cheriot_cap::Permissions::SR);
    assert!(matches!(m.run(100), ExitReason::Halted(_)));
}

#[test]
fn wfi_with_no_wake_source_is_idle_exit() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let prog = vec![Instr::Wfi, Instr::Halt];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.cpu.interrupts_enabled = true;
    assert_eq!(m.run(1000), ExitReason::Idle);
}

#[test]
fn wfi_wakes_on_timer() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let prog = vec![Instr::Wfi, Instr::Halt];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.mtimecmp = 5_000;
    // With interrupts disabled, wfi still wakes when the event is pending
    // (resume-on-event); execution continues to halt.
    assert_eq!(m.run(100_000), ExitReason::Halted(0));
    assert!(m.cycles >= 5_000);
}

#[test]
fn cap_arithmetic_in_guest_matches_cap_crate() {
    // CIncAddr/CSetBounds executed by the CPU behave exactly like the
    // capability crate's methods.
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let root = Capability::root_mem_rw();
    let prog = vec![
        Instr::CSetAddr {
            rd: Reg::A1,
            rs1: Reg::A1,
            rs2: Reg::A2,
        },
        Instr::CSetBounds {
            rd: Reg::A1,
            rs1: Reg::A1,
            rs2: Reg::A3,
            exact: false,
        },
        Instr::CIncAddrImm {
            rd: Reg::A1,
            rs1: Reg::A1,
            imm: 16,
        },
        Instr::CGet {
            field: CapField::Addr,
            rd: Reg::A0,
            rs1: Reg::A1,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.cpu.write(Reg::A1, root);
    m.cpu.write_int(Reg::A2, layout::SRAM_BASE + 0x80);
    m.cpu.write_int(Reg::A3, 64);
    assert_eq!(m.run(100), ExitReason::Halted(layout::SRAM_BASE + 0x90));
    let expected = root
        .with_address(layout::SRAM_BASE + 0x80)
        .set_bounds(64)
        .unwrap()
        .incremented(16);
    assert_eq!(m.cpu.read(Reg::A1), expected);
}

#[test]
fn unknown_mmio_is_a_bus_error() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let rogue = Capability::root_mem_rw().with_address(0x9000_0000);
    assert!(matches!(
        m.meter().load(rogue, 0x9000_0000, 4),
        Err(cheriot_core::TrapCause::BusError { .. })
    ));
    // Sub-word MMIO accesses are rejected (devices are word-granular).
    let timer = Capability::root_mem_rw().with_address(layout::TIMER_BASE);
    assert!(m.meter().load(timer, layout::TIMER_BASE, 2).is_err());
}

#[test]
fn mtimecmp_write_via_mmio_round_trips() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let timer = Capability::root_mem_rw()
        .with_address(layout::TIMER_BASE)
        .set_bounds(u64::from(layout::MMIO_SIZE))
        .unwrap();
    m.meter()
        .store(timer, layout::TIMER_BASE + 8, 4, 0x1234_5678)
        .unwrap();
    m.meter()
        .store(timer, layout::TIMER_BASE + 12, 4, 0x9abc)
        .unwrap();
    assert_eq!(m.mtimecmp, 0x9abc_1234_5678);
    assert_eq!(
        m.meter().load(timer, layout::TIMER_BASE + 8, 4).unwrap(),
        0x1234_5678
    );
}

#[test]
fn trace_buffer_is_bounded_and_ordered() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    m.set_tracer(Tracer::instr_ring(4));
    let prog: Vec<Instr> = std::iter::repeat_n(Instr::NOP, 10)
        .chain([Instr::Halt])
        .collect();
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.run(1000);
    let t: Vec<_> = m.tracer().unwrap().retired().iter().copied().collect();
    assert_eq!(t.len(), 4, "ring buffer depth respected");
    assert!(t.windows(2).all(|w| w[0].cycles <= w[1].cycles));
    let EventKind::InstrRetired { pc } = t.last().unwrap().kind else {
        panic!("{t:?}");
    };
    assert_eq!(m.code_at(pc), Some(Instr::Halt));
}

#[test]
fn jal_link_is_a_return_sentry_with_posture() {
    use cheriot_cap::OType;
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let prog = vec![
        Instr::Jal {
            rd: Reg::RA,
            offset: 8,
        },
        Instr::Halt, // skipped
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.cpu.interrupts_enabled = true;
    m.step();
    let link = m.cpu.read(Reg::RA);
    assert!(link.is_sealed());
    assert_eq!(link.otype(), OType::RETURN_ENABLE);
    assert_eq!(link.address(), e + 4);
}
