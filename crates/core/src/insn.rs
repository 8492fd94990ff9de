//! The CHERIoT instruction set, as executed by the simulator.
//!
//! The base ISA is RV32E (16 registers) plus the M extension; the CHERI
//! extension replaces integer addressing with capability addressing and adds
//! the guarded-manipulation instructions of paper §3. Instructions are held
//! in decoded form (the simulator does not model binary instruction
//! encoding; code size accounting uses 4 bytes per instruction, see
//! `cheriot-asm`).

use core::fmt;

/// A register index in the RV32E file (x0–x15). Registers hold capabilities;
/// integer results are untagged capabilities whose address is the value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Hard-wired zero.
    pub const ZERO: Reg = Reg(0);
    /// Return address / link register (`cra`).
    pub const RA: Reg = Reg(1);
    /// Stack pointer capability (`csp`).
    pub const SP: Reg = Reg(2);
    /// Globals pointer capability (`cgp`).
    pub const GP: Reg = Reg(3);
    /// Thread pointer.
    pub const TP: Reg = Reg(4);
    /// Temporary 0.
    pub const T0: Reg = Reg(5);
    /// Temporary 1.
    pub const T1: Reg = Reg(6);
    /// Temporary 2.
    pub const T2: Reg = Reg(7);
    /// Saved register 0 / frame pointer.
    pub const S0: Reg = Reg(8);
    /// Saved register 1.
    pub const S1: Reg = Reg(9);
    /// Argument/return 0.
    pub const A0: Reg = Reg(10);
    /// Argument/return 1.
    pub const A1: Reg = Reg(11);
    /// Argument 2.
    pub const A2: Reg = Reg(12);
    /// Argument 3.
    pub const A3: Reg = Reg(13);
    /// Argument 4.
    pub const A4: Reg = Reg(14);
    /// Argument 5.
    pub const A5: Reg = Reg(15);
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [&str; 16] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5",
        ];
        write!(f, "c{}", NAMES[usize::from(self.0 & 0xf)])
    }
}

/// Integer ALU operation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping; register form only).
    Sub,
    /// Shift left logical.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Inclusive or.
    Or,
    /// And.
    And,
}

/// M-extension operation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the signed product.
    Mulh,
    /// High 32 bits of the unsigned product.
    Mulhu,
    /// Signed division (RISC-V semantics for /0 and overflow).
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// Branch comparison selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than, signed.
    Lt,
    /// Greater or equal, signed.
    Ge,
    /// Less than, unsigned.
    Ltu,
    /// Greater or equal, unsigned.
    Geu,
}

/// Width of a scalar memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes.
    H,
    /// Four bytes.
    W,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
        }
    }
}

/// Capability field selectors for the `CGet*` instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapField {
    /// Architectural permission bits.
    Perm,
    /// Object type field (with the namespace bit folded in as in hardware:
    /// executable otypes read back as their raw field value).
    Type,
    /// Decoded base.
    Base,
    /// Decoded length (saturated to `u32::MAX`).
    Len,
    /// Validity tag (0 or 1).
    Tag,
    /// Address.
    Addr,
    /// High half of the in-memory encoding (metadata word).
    High,
}

/// Special capability registers accessed via `CSpecialRW` (requires the SR
/// permission on PCC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScrId {
    /// Machine trap code capability (trap vector).
    Mtcc,
    /// Machine trap data capability (trusted-stack pointer in the RTOS).
    Mtdc,
    /// Scratch capability.
    MScratchC,
    /// Machine exception PC capability.
    Mepcc,
}

/// CSRs the simulator implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrId {
    /// Cycle counter (read-only; low 32 bits).
    Mcycle,
    /// Cycle counter high half.
    Mcycleh,
    /// Trap cause.
    Mcause,
    /// Trap value (faulting address / register number).
    Mtval,
    /// Stack high water mark (paper §5.2.1).
    Mshwm,
    /// Stack base for the high water mark.
    Mshwmb,
}

/// CSR access operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrOp {
    /// Read-write swap.
    Rw,
    /// Read and set bits.
    Rs,
    /// Read and clear bits.
    Rc,
}

/// One decoded CHERIoT instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings follow the RISC-V conventions
pub enum Instr {
    /// Load upper immediate (integer result).
    Lui { rd: Reg, imm: u32 },
    /// PCC-relative capability derivation (AUIPCC).
    Auipcc { rd: Reg, imm: i32 },
    /// CGP-relative capability derivation (AUICGP) — used for globals.
    Auicgp { rd: Reg, imm: i32 },
    /// Register-immediate ALU operation.
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register-register ALU operation.
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// M-extension multiply/divide.
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Conditional branch; offset is relative to this instruction.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Jump and link; the link register receives a return sentry.
    Jal { rd: Reg, offset: i32 },
    /// Jump and link register (CJALR): jumps to a capability, unsealing
    /// sentries and applying their interrupt posture.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Scalar load.
    Load {
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Scalar store.
    Store {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Capability load (CLC). Subject to the temporal-safety load filter.
    Clc { rd: Reg, rs1: Reg, offset: i32 },
    /// Capability store (CSC).
    Csc { rs2: Reg, rs1: Reg, offset: i32 },
    /// Read a capability field into an integer register.
    CGet { field: CapField, rd: Reg, rs1: Reg },
    /// Replace the address (CSetAddr).
    CSetAddr { rd: Reg, rs1: Reg, rs2: Reg },
    /// Displace the address by a register amount (CIncAddr).
    CIncAddr { rd: Reg, rs1: Reg, rs2: Reg },
    /// Displace the address by an immediate (CIncAddrImm).
    CIncAddrImm { rd: Reg, rs1: Reg, imm: i32 },
    /// Narrow bounds to `[addr, addr+rs2)` (CSetBounds); `exact` demands an
    /// exact encoding (CSetBoundsExact).
    CSetBounds {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        exact: bool,
    },
    /// Narrow bounds by an immediate length (CSetBoundsImm).
    CSetBoundsImm { rd: Reg, rs1: Reg, imm: u32 },
    /// Mask permissions (CAndPerm).
    CAndPerm { rd: Reg, rs1: Reg, rs2: Reg },
    /// Clear the tag (CClearTag).
    CClearTag { rd: Reg, rs1: Reg },
    /// Capability move (preserves tag, unlike ALU ops).
    CMove { rd: Reg, rs1: Reg },
    /// Seal rs1 with the otype addressed by rs2 (CSeal).
    CSeal { rd: Reg, rs1: Reg, rs2: Reg },
    /// Unseal rs1 with authority rs2 (CUnseal).
    CUnseal { rd: Reg, rs1: Reg, rs2: Reg },
    /// Is rs2 a subset of rs1? Integer result (CTestSubset).
    CTestSubset { rd: Reg, rs1: Reg, rs2: Reg },
    /// Bitwise equality including tag (CSetEqualExact).
    CSetEqualExact { rd: Reg, rs1: Reg, rs2: Reg },
    /// Round a requested length to a representable one (CRRL).
    CRoundRepresentableLength { rd: Reg, rs1: Reg },
    /// Alignment mask for a requested length (CRAM).
    CRepresentableAlignmentMask { rd: Reg, rs1: Reg },
    /// Swap a special capability register with a GPR (requires SR).
    CSpecialRw { rd: Reg, rs1: Reg, scr: ScrId },
    /// CSR access.
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: CsrId,
    },
    /// Environment call.
    Ecall,
    /// Breakpoint.
    Ebreak,
    /// Return from machine trap: jumps to MEPCC, restores interrupt state.
    Mret,
    /// Wait for interrupt: idles the core until an interrupt is pending.
    Wfi,
    /// Memory fence (no-op in this in-order, single-core model).
    Fence,
    /// Simulator halt with an exit code taken from `a0`. Stands in for a
    /// platform power-off/exit device; used by bare-metal workloads.
    Halt,
}

/// Pattern for the pure-register instructions: they read and write only
/// registers, never trap (CHERIoT monotonicity failures detag instead),
/// never jump and touch no counters or MMIO. `Machine::exec` routes this
/// set to the one helper that implements it, and the chained dispatch
/// loop's inline arms run it unconditionally
/// (`blockcache::statically_fast`).
macro_rules! pure_register {
    () => {
        $crate::insn::Instr::Lui { .. }
            | $crate::insn::Instr::OpImm { .. }
            | $crate::insn::Instr::Op { .. }
            | $crate::insn::Instr::MulDiv { .. }
            | $crate::insn::Instr::CGet { .. }
            | $crate::insn::Instr::CSetAddr { .. }
            | $crate::insn::Instr::CIncAddr { .. }
            | $crate::insn::Instr::CIncAddrImm { .. }
            | $crate::insn::Instr::CSetBounds { .. }
            | $crate::insn::Instr::CSetBoundsImm { .. }
            | $crate::insn::Instr::CAndPerm { .. }
            | $crate::insn::Instr::CClearTag { .. }
            | $crate::insn::Instr::CMove { .. }
    };
}
pub(crate) use pure_register;

impl Instr {
    /// A canonical no-op.
    pub const NOP: Instr = Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// Does this instruction access data memory?
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Clc { .. } | Instr::Csc { .. }
        )
    }

    /// Does this instruction end a predecoded basic block? True for
    /// everything that can redirect control flow, change the interrupt
    /// posture, or observe state the block loop batches (branches, jumps,
    /// sentry jumps, trap returns, environment calls, CSR/SCR accesses,
    /// `wfi`, `fence` as an instruction barrier, and `halt`). The block
    /// cache ([`crate::blockcache`]) decodes forward until one of these.
    pub fn is_block_boundary(self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Mret
                | Instr::Ecall
                | Instr::Ebreak
                | Instr::Wfi
                | Instr::Fence
                | Instr::Halt
                | Instr::Csr { .. }
                | Instr::CSpecialRw { .. }
        )
    }

    /// Registers this instruction reads (for load-to-use hazard modelling).
    pub fn sources(self) -> [Option<Reg>; 2] {
        use Instr::*;
        match self {
            OpImm { rs1, .. }
            | Load { rs1, .. }
            | Clc { rs1, .. }
            | CGet { rs1, .. }
            | CIncAddrImm { rs1, .. }
            | CSetBoundsImm { rs1, .. }
            | CClearTag { rs1, .. }
            | CMove { rs1, .. }
            | CRoundRepresentableLength { rs1, .. }
            | CRepresentableAlignmentMask { rs1, .. }
            | CSpecialRw { rs1, .. }
            | Csr { rs1, .. }
            | Jalr { rs1, .. } => [Some(rs1), None],
            Op { rs1, rs2, .. }
            | MulDiv { rs1, rs2, .. }
            | Branch { rs1, rs2, .. }
            | Store { rs1, rs2, .. }
            | Csc { rs1, rs2, .. }
            | CSetAddr { rs1, rs2, .. }
            | CIncAddr { rs1, rs2, .. }
            | CSetBounds { rs1, rs2, .. }
            | CAndPerm { rs1, rs2, .. }
            | CSeal { rs1, rs2, .. }
            | CUnseal { rs1, rs2, .. }
            | CTestSubset { rs1, rs2, .. }
            | CSetEqualExact { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            _ => [None, None],
        }
    }
}
