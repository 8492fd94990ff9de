//! # cheriot-asm — program builder for the CHERIoT simulator
//!
//! A small assembler: mnemonic methods append decoded instructions, labels
//! are two-phase (create with [`Asm::label`], place with [`Asm::bind`]) and
//! branch/jump offsets are resolved at [`Asm::assemble`] time. This is the
//! substrate on which the CoreMark-like workloads and the guest-code test
//! suites are written, standing in for the CHERI LLVM toolchain (see
//! DESIGN.md §3).
//!
//! ## Example
//!
//! ```
//! use cheriot_asm::Asm;
//! use cheriot_core::insn::Reg;
//! use cheriot_core::{Machine, MachineConfig, CoreModel, ExitReason};
//!
//! // Sum 1..=10 into a0.
//! let mut a = Asm::new();
//! a.li(Reg::T0, 10);
//! a.li(Reg::A0, 0);
//! let top = a.label();
//! a.bind(top);
//! a.add(Reg::A0, Reg::A0, Reg::T0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, top);
//! a.halt();
//!
//! let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
//! let entry = m.load_program(&a.assemble());
//! m.set_entry(entry);
//! assert_eq!(m.run(10_000), ExitReason::Halted(55));
//! ```

#![warn(missing_docs)]

pub mod disasm;

pub use disasm::{disassemble, disassemble_words};

use cheriot_core::insn::{
    AluOp, BranchCond, CapField, CsrId, CsrOp, Instr, MemWidth, MulOp, Reg, ScrId,
};

/// A label: an index into the assembler's label table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Clone, Copy, Debug)]
enum Pending {
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: Label,
    },
    Jal {
        rd: Reg,
        target: Label,
    },
    /// `auipcc rd, (label - here)` — a PCC-derived capability to a label
    /// (trap vectors, sentry targets), resolved like a branch offset.
    Auipcc {
        rd: Reg,
        target: Label,
    },
}

/// The program builder.
///
/// Instruction methods are named after their mnemonics and append one
/// instruction each; pseudo-instructions (`li`, `mv`, `bnez`, …) may expand
/// to more than one.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<Instr>,
    fixups: Vec<(usize, Pending)>,
    labels: Vec<Option<usize>>,
}

impl Asm {
    /// Creates an empty program.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Creates a new, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.code.len());
    }

    /// Creates a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// The instruction index a bound label points at, if bound.
    pub fn position(&self, label: Label) -> Option<usize> {
        self.labels[label.0]
    }

    /// The byte offset of a bound label from program start.
    pub fn byte_offset(&self, label: Label) -> Option<u32> {
        self.position(label).map(|i| (i * 4) as u32)
    }

    /// Resolves all fixups and returns the finished instruction sequence.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    pub fn assemble(mut self) -> Vec<Instr> {
        for (at, pending) in std::mem::take(&mut self.fixups) {
            let resolve = |l: Label| -> i32 {
                let pos = self.labels[l.0].expect("unbound label");
                (pos as i32 - at as i32) * 4
            };
            self.code[at] = match pending {
                Pending::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    offset: resolve(target),
                },
                Pending::Jal { rd, target } => Instr::Jal {
                    rd,
                    offset: resolve(target),
                },
                Pending::Auipcc { rd, target } => Instr::Auipcc {
                    rd,
                    imm: resolve(target),
                },
            };
        }
        self.code
    }

    /// Resolves fixups and encodes to machine code (expanding large
    /// immediates and fixing up offsets — see
    /// [`cheriot_core::encoding::encode_program`]).
    ///
    /// # Errors
    ///
    /// Encoding errors for unencodable immediates.
    pub fn assemble_binary(self) -> Result<Vec<u32>, cheriot_core::encoding::EncodeError> {
        cheriot_core::encoding::encode_program(&self.assemble())
    }

    /// Emits a raw instruction.
    pub fn raw(&mut self, i: Instr) -> &mut Asm {
        self.code.push(i);
        self
    }

    // --- integer ---------------------------------------------------------

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    /// `li rd, value` — load immediate (one instruction in this decoded
    /// model).
    pub fn li(&mut self, rd: Reg, value: i32) -> &mut Asm {
        self.addi(rd, Reg::ZERO, value)
    }

    /// `mv rd, rs` — integer move (drops capability tags, as an ALU op).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Asm {
        self.addi(rd, rs, 0)
    }

    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        })
    }

    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        })
    }

    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        })
    }

    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::Or,
            rd,
            rs1,
            rs2,
        })
    }

    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        })
    }

    /// `andi rd, rs1, imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }

    /// `ori rd, rs1, imm`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::Or,
            rd,
            rs1,
            imm,
        })
    }

    /// `xori rd, rs1, imm`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::Xor,
            rd,
            rs1,
            imm,
        })
    }

    /// `slli rd, rs1, shamt`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `srli rd, rs1, shamt`
    pub fn srli(&mut self, rd: Reg, rs1: Reg, shamt: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `srai rd, rs1, shamt`
    pub fn srai(&mut self, rd: Reg, rs1: Reg, shamt: i32) -> &mut Asm {
        self.raw(Instr::OpImm {
            op: AluOp::Sra,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `sltu rd, rs1, rs2`
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::Sltu,
            rd,
            rs1,
            rs2,
        })
    }

    /// `slt rd, rs1, rs2`
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::Op {
            op: AluOp::Slt,
            rd,
            rs1,
            rs2,
        })
    }

    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::MulDiv {
            op: MulOp::Mul,
            rd,
            rs1,
            rs2,
        })
    }

    /// `divu rd, rs1, rs2`
    pub fn divu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::MulDiv {
            op: MulOp::Divu,
            rd,
            rs1,
            rs2,
        })
    }

    /// `remu rd, rs1, rs2`
    pub fn remu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::MulDiv {
            op: MulOp::Remu,
            rd,
            rs1,
            rs2,
        })
    }

    /// `lui rd, imm20` (shifted left 12 by hardware).
    pub fn lui(&mut self, rd: Reg, imm: u32) -> &mut Asm {
        self.raw(Instr::Lui { rd, imm })
    }

    // --- control flow ------------------------------------------------------

    fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        let at = self.code.len();
        self.code.push(Instr::NOP);
        self.fixups.push((
            at,
            Pending::Branch {
                cond,
                rs1,
                rs2,
                target,
            },
        ));
        self
    }

    /// `beq rs1, rs2, target`
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, target`
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, target`
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, target`
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Ge, rs1, rs2, target)
    }

    /// `bltu rs1, rs2, target`
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Ltu, rs1, rs2, target)
    }

    /// `bgeu rs1, rs2, target`
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Asm {
        self.branch(BranchCond::Geu, rs1, rs2, target)
    }

    /// `bnez rs, target`
    pub fn bnez(&mut self, rs: Reg, target: Label) -> &mut Asm {
        self.bne(rs, Reg::ZERO, target)
    }

    /// `beqz rs, target`
    pub fn beqz(&mut self, rs: Reg, target: Label) -> &mut Asm {
        self.beq(rs, Reg::ZERO, target)
    }

    /// `j target` (jal zero)
    pub fn j(&mut self, target: Label) -> &mut Asm {
        self.jal(Reg::ZERO, target)
    }

    /// `jal rd, target`
    pub fn jal(&mut self, rd: Reg, target: Label) -> &mut Asm {
        let at = self.code.len();
        self.code.push(Instr::NOP);
        self.fixups.push((at, Pending::Jal { rd, target }));
        self
    }

    /// `cjalr rd, rs1` — capability jump-and-link (sentry-aware).
    pub fn cjalr(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Jalr { rd, rs1, offset: 0 })
    }

    /// `cjr rs1` — capability jump.
    pub fn cjr(&mut self, rs1: Reg) -> &mut Asm {
        self.cjalr(Reg::ZERO, rs1)
    }

    /// `cret` — return through the sentry in `cra`.
    pub fn cret(&mut self) -> &mut Asm {
        self.cjr(Reg::RA)
    }

    // --- memory -------------------------------------------------------------

    /// `lw rd, offset(rs1)`
    pub fn lw(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd,
            rs1,
            offset,
        })
    }

    /// `lbu rd, offset(rs1)`
    pub fn lbu(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Load {
            width: MemWidth::B,
            signed: false,
            rd,
            rs1,
            offset,
        })
    }

    /// `lhu rd, offset(rs1)`
    pub fn lhu(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Load {
            width: MemWidth::H,
            signed: false,
            rd,
            rs1,
            offset,
        })
    }

    /// `lb rd, offset(rs1)` (sign-extending)
    pub fn lb(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Load {
            width: MemWidth::B,
            signed: true,
            rd,
            rs1,
            offset,
        })
    }

    /// `sw rs2, offset(rs1)`
    pub fn sw(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Store {
            width: MemWidth::W,
            rs2,
            rs1,
            offset,
        })
    }

    /// `sh rs2, offset(rs1)`
    pub fn sh(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Store {
            width: MemWidth::H,
            rs2,
            rs1,
            offset,
        })
    }

    /// `sb rs2, offset(rs1)`
    pub fn sb(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Store {
            width: MemWidth::B,
            rs2,
            rs1,
            offset,
        })
    }

    /// `clc rd, offset(rs1)` — capability load.
    pub fn clc(&mut self, rd: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Clc { rd, rs1, offset })
    }

    /// `csc rs2, offset(rs1)` — capability store.
    pub fn csc(&mut self, rs2: Reg, offset: i32, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Csc { rs2, rs1, offset })
    }

    // --- CHERI --------------------------------------------------------------

    /// `cgetaddr rd, cs1`
    pub fn cgetaddr(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CGet {
            field: CapField::Addr,
            rd,
            rs1,
        })
    }

    /// `cgettag rd, cs1`
    pub fn cgettag(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CGet {
            field: CapField::Tag,
            rd,
            rs1,
        })
    }

    /// `cgetbase rd, cs1`
    pub fn cgetbase(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CGet {
            field: CapField::Base,
            rd,
            rs1,
        })
    }

    /// `cgetlen rd, cs1`
    pub fn cgetlen(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CGet {
            field: CapField::Len,
            rd,
            rs1,
        })
    }

    /// `cgetperm rd, cs1`
    pub fn cgetperm(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CGet {
            field: CapField::Perm,
            rd,
            rs1,
        })
    }

    /// `csetaddr cd, cs1, rs2`
    pub fn csetaddr(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CSetAddr { rd, rs1, rs2 })
    }

    /// `cincaddr cd, cs1, rs2`
    pub fn cincaddr(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CIncAddr { rd, rs1, rs2 })
    }

    /// `cincaddrimm cd, cs1, imm`
    pub fn cincaddrimm(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::CIncAddrImm { rd, rs1, imm })
    }

    /// `csetbounds cd, cs1, rs2`
    pub fn csetbounds(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CSetBounds {
            rd,
            rs1,
            rs2,
            exact: false,
        })
    }

    /// `csetboundsexact cd, cs1, rs2`
    pub fn csetboundsexact(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CSetBounds {
            rd,
            rs1,
            rs2,
            exact: true,
        })
    }

    /// `csetboundsimm cd, cs1, len`
    pub fn csetboundsimm(&mut self, rd: Reg, rs1: Reg, imm: u32) -> &mut Asm {
        self.raw(Instr::CSetBoundsImm { rd, rs1, imm })
    }

    /// `candperm cd, cs1, rs2`
    pub fn candperm(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CAndPerm { rd, rs1, rs2 })
    }

    /// `ccleartag cd, cs1`
    pub fn ccleartag(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CClearTag { rd, rs1 })
    }

    /// `cmove cd, cs1`
    pub fn cmove(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CMove { rd, rs1 })
    }

    /// `cseal cd, cs1, cs2`
    pub fn cseal(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CSeal { rd, rs1, rs2 })
    }

    /// `cunseal cd, cs1, cs2`
    pub fn cunseal(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CUnseal { rd, rs1, rs2 })
    }

    /// `ctestsubset rd, cs1, cs2`
    pub fn ctestsubset(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Asm {
        self.raw(Instr::CTestSubset { rd, rs1, rs2 })
    }

    /// `crrl rd, rs1`
    pub fn crrl(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CRoundRepresentableLength { rd, rs1 })
    }

    /// `cram rd, rs1`
    pub fn cram(&mut self, rd: Reg, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CRepresentableAlignmentMask { rd, rs1 })
    }

    /// `cspecialrw cd, scr, cs1`
    pub fn cspecialrw(&mut self, rd: Reg, scr: ScrId, rs1: Reg) -> &mut Asm {
        self.raw(Instr::CSpecialRw { rd, rs1, scr })
    }

    /// `auipcc cd, byte_offset` (byte-granular in this decoded model).
    pub fn auipcc(&mut self, rd: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::Auipcc { rd, imm })
    }

    /// `auicgp cd, byte_offset`
    pub fn auicgp(&mut self, rd: Reg, imm: i32) -> &mut Asm {
        self.raw(Instr::Auicgp { rd, imm })
    }

    /// `auipcc cd, (label - here)` — derives a PCC-bounded capability whose
    /// address is a bound label (trap-vector installation, sentry-call
    /// targets); the byte offset is resolved at [`Asm::assemble`] time.
    pub fn auipcc_to(&mut self, rd: Reg, target: Label) -> &mut Asm {
        let at = self.code.len();
        self.code.push(Instr::NOP);
        self.fixups.push((at, Pending::Auipcc { rd, target }));
        self
    }

    // --- system ---------------------------------------------------------------

    /// `csrrw rd, csr, rs1`
    pub fn csrrw(&mut self, rd: Reg, csr: CsrId, rs1: Reg) -> &mut Asm {
        self.raw(Instr::Csr {
            op: CsrOp::Rw,
            rd,
            rs1,
            csr,
        })
    }

    /// `csrr rd, csr`
    pub fn csrr(&mut self, rd: Reg, csr: CsrId) -> &mut Asm {
        self.raw(Instr::Csr {
            op: CsrOp::Rs,
            rd,
            rs1: Reg::ZERO,
            csr,
        })
    }

    /// `ecall`
    pub fn ecall(&mut self) -> &mut Asm {
        self.raw(Instr::Ecall)
    }

    /// `mret`
    pub fn mret(&mut self) -> &mut Asm {
        self.raw(Instr::Mret)
    }

    /// `wfi`
    pub fn wfi(&mut self) -> &mut Asm {
        self.raw(Instr::Wfi)
    }

    /// `nop`
    pub fn nop(&mut self) -> &mut Asm {
        self.raw(Instr::NOP)
    }

    /// Simulator halt (exit code in `a0`).
    pub fn halt(&mut self) -> &mut Asm {
        self.raw(Instr::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheriot_core::{CoreModel, ExitReason, Machine, MachineConfig};

    fn run(a: Asm) -> ExitReason {
        let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
        let entry = m.load_program(&a.assemble());
        m.set_entry(entry);
        m.run(1_000_000)
    }

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new();
        a.li(Reg::T0, 5);
        a.li(Reg::A0, 0);
        let top = a.here();
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        let done = a.label();
        a.beqz(Reg::ZERO, done); // always taken, forward
        a.li(Reg::A0, 99); // skipped
        a.bind(done);
        a.halt();
        assert_eq!(run(a), ExitReason::Halted(15));
    }

    #[test]
    fn jal_links_and_returns() {
        let mut a = Asm::new();
        let f = a.label();
        a.li(Reg::A0, 1);
        a.jal(Reg::RA, f);
        a.addi(Reg::A0, Reg::A0, 10);
        a.halt();
        a.bind(f);
        a.addi(Reg::A0, Reg::A0, 100);
        a.cret();
        assert_eq!(run(a), ExitReason::Halted(111));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        let _ = a.assemble();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }
}
