//! Weighted random-but-valid program generation for the differential
//! fuzzer.
//!
//! Programs are *structured*, not instruction soup: a seed expands into a
//! list of [`Op`]s (straight-line bursts, bounded loops, forward skips,
//! trampoline calls, sentry calls, interrupt-posture switches, timer
//! pokes) which [`Program::instrs`] lowers to real instructions through
//! the assembler. The structure is what makes the well-formedness
//! guarantees cheap to state:
//!
//! - **No sandbox escape.** The only authority a program ever holds is
//!   derived in the preamble — a data capability over a small SRAM window,
//!   a sealing capability over otypes 1..=7, and (optionally) a timer MMIO
//!   capability parked in `mscratchc` — after which the memory and sealing
//!   roots are erased. Stray capability arithmetic can at worst detag or
//!   trap; it cannot mint authority.
//! - **Termination.** Control flow is structured (bounded counted loops,
//!   forward skips, single-depth calls to trampolines that `cret`), and a
//!   trap handler — when installed — counts the trap and skips the faulting
//!   instruction, so every trap makes progress. The comparator's cycle
//!   budget is a backstop, not the expected exit.
//! - **Divergence bias.** Operand values are biased toward bounds-encoding
//!   boundaries (mantissa edges, granule sizes), capability ops outnumber
//!   plain ALU ops, and sentries/posture switches/timer interrupts are
//!   first-class arms, because that is where dispatch-mode implementations
//!   actually disagree.

use cheriot_asm::Asm;
use cheriot_core::insn::{AluOp, CapField, CsrId, CsrOp, Instr, MemWidth, MulOp, Reg, ScrId};
use cheriot_core::machine::layout;
use cheriot_fault::XorShift64;

/// Scratch registers the generated bodies may freely clobber. `RA`
/// (links), `SP`/`TP` (handler scratch), `GP` (data capability), `S0`
/// (sealing capability), `S1` (trap counter) and `T0` (loop counter) are
/// reserved by the emission scheme.
const POOL: [Reg; 8] = [
    Reg::T1,
    Reg::T2,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
];

/// Lengths that sit on representability boundaries of the 9-bit-mantissa
/// bounds encoding (exact limit 511, granule 8, powers of two around the
/// exponent cut-over), plus small alignment edges.
const BOUNDARY_LENGTHS: [u32; 12] = [0, 1, 7, 8, 9, 255, 511, 512, 513, 1023, 1024, 4096];

/// Base of the data window the generated program's `GP` covers.
pub const DATA_BASE: u32 = layout::SRAM_BASE + 0x1000;
/// Size of the data window (4 KiB, exactly representable).
pub const DATA_SIZE: u32 = 0x1000;
/// Scalar/capability accesses stay within a signed-12-bit immediate of the
/// window base so every memory op encodes directly.
const DATA_REACH: u64 = 2040;

/// What the generator is allowed to emit: everything ([`Profile::full`],
/// the fuzzer's default), or only programs whose encodings survive a
/// binary round-trip ([`Profile::binary_safe`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Restrict to programs whose encodings survive a binary round-trip:
    /// no label-resolved `auipcc` (so no handler, sentries, or posture
    /// switches) and no deliberately-trapping arms, so the program runs
    /// straight to its `halt`. Otherwise every program installs a trap
    /// vector (enabling the trapping arms) and most arm the timer.
    pub binary_safe: bool,
}

impl Profile {
    /// The full fuzzing profile: everything on.
    pub fn full() -> Profile {
        Profile { binary_safe: false }
    }

    /// Programs that can be encoded to machine code and back untouched.
    pub fn binary_safe() -> Profile {
        Profile { binary_safe: true }
    }
}

/// One structured generation unit.
#[derive(Clone, Debug)]
pub enum Op {
    /// Load a boundary-biased constant into a scratch register.
    SeedReg {
        /// Destination (scratch pool).
        reg: Reg,
        /// The constant.
        val: i32,
    },
    /// A burst of label-free instructions.
    Straight(Vec<Instr>),
    /// A bounded counted loop (`T0` is the counter).
    Loop {
        /// Iteration count (small, so programs terminate quickly).
        count: u8,
        /// Label-free loop body.
        body: Vec<Instr>,
    },
    /// A data-dependent forward skip over a burst.
    SkipIf {
        /// First compare operand (scratch pool).
        rs1: Reg,
        /// Second compare operand.
        rs2: Reg,
        /// Skip when equal (otherwise when not equal).
        eq: bool,
        /// The possibly-skipped body.
        body: Vec<Instr>,
    },
    /// `jal ra, tramp` — plain call to trampoline `tramp`, which `cret`s.
    Call {
        /// Trampoline index.
        tramp: u8,
    },
    /// Call trampoline `tramp` through a forward sentry of the given
    /// otype (1 = inherit, 2 = enable, 3 = disable interrupts).
    SentryCall {
        /// Trampoline index.
        tramp: u8,
        /// Forward-sentry otype.
        otype: u8,
    },
    /// Switch the interrupt posture by sealing a capability to the next
    /// instruction and jumping through it (otype 2 = enable, 3 = disable).
    PostureSwitch {
        /// Forward-sentry otype.
        otype: u8,
    },
    /// Re-arm the timer `delta` cycles past now (timer programs only).
    TimerRearm {
        /// Cycles from the current count.
        delta: u16,
    },
    /// Read a timer register into scratch (timer programs only).
    TimerPeek,
    /// Wait for interrupt (timer programs only).
    Wfi,
}

/// A generated program: the structure a seed expanded to, plus the flags
/// the emission scheme needs. Shrinking mutates this and re-emits.
#[derive(Clone, Debug)]
pub struct Program {
    /// The seed this program was generated from.
    pub seed: u64,
    /// Emit the trap vector and install it in `mtcc`.
    pub handler: bool,
    /// Arm the timer, park its capability in `mscratchc`, and enable
    /// interrupts through a sentry. Requires `handler`.
    pub timer: bool,
    /// Derive the sealing capability `S0` (otypes 1..=7).
    pub seal: bool,
    /// Derive the data capability `GP` over the data window.
    pub data: bool,
    /// Trampoline bodies callable from the main sequence.
    pub tramps: Vec<Vec<Instr>>,
    /// The main sequence.
    pub ops: Vec<Op>,
}

impl Program {
    /// Lowers the structure to the final instruction sequence.
    pub fn instrs(&self) -> Vec<Instr> {
        emit(self)
    }

    /// Number of instructions the program lowers to.
    pub fn len(&self) -> usize {
        self.instrs().len()
    }

    /// True when the program lowers to nothing but scaffolding.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Expands `seed` into a structured program under `profile`.
pub fn generate(seed: u64, profile: &Profile) -> Program {
    let mut rng = XorShift64::new(seed);
    let handler = !profile.binary_safe;
    // Most handler programs also exercise the timer/interrupt machinery.
    // The short-circuit keeps binary-safe seeds off the RNG here.
    let timer = handler && rng.gen_range(0, 100) < 70;

    let n_tramps = if profile.binary_safe {
        0
    } else {
        rng.gen_range(0, 3) as usize
    };
    let mut tramps = Vec::new();
    for _ in 0..n_tramps {
        let n = rng.gen_range(2, 7) as usize;
        let body: Vec<Instr> = (0..n)
            .map(|_| gen_instr(&mut rng, profile, handler, timer))
            .collect();
        tramps.push(body);
    }

    let mut ops = Vec::new();
    // Seed the scratch pool with boundary-biased constants first, so the
    // capability arms have interesting lengths/addresses to chew on.
    for _ in 0..rng.gen_range(4, 9) {
        ops.push(Op::SeedReg {
            reg: *rng.pick(&POOL),
            val: gen_value(&mut rng),
        });
    }
    for _ in 0..rng.gen_range(6, 17) {
        ops.push(gen_op(&mut rng, profile, handler, timer, n_tramps));
    }

    Program {
        seed,
        handler,
        timer,
        seal: true,
        data: true,
        tramps,
        ops,
    }
}

fn gen_op(
    rng: &mut XorShift64,
    profile: &Profile,
    handler: bool,
    timer: bool,
    n_tramps: usize,
) -> Op {
    loop {
        let roll = rng.gen_range(0, 100);
        return match roll {
            0..=44 => {
                let n = rng.gen_range(1, 7) as usize;
                Op::Straight(
                    (0..n)
                        .map(|_| gen_instr(rng, profile, handler, timer))
                        .collect(),
                )
            }
            45..=59 => {
                let n = rng.gen_range(2, 9) as usize;
                Op::Loop {
                    count: rng.gen_range(2, 9) as u8,
                    body: (0..n)
                        .map(|_| gen_instr(rng, profile, handler, timer))
                        .collect(),
                }
            }
            60..=69 => {
                let n = rng.gen_range(1, 6) as usize;
                Op::SkipIf {
                    rs1: *rng.pick(&POOL),
                    rs2: *rng.pick(&POOL),
                    eq: rng.gen_range(0, 2) == 0,
                    body: (0..n)
                        .map(|_| gen_instr(rng, profile, handler, timer))
                        .collect(),
                }
            }
            70..=79 if n_tramps > 0 => Op::Call {
                tramp: rng.gen_range(0, n_tramps as u64) as u8,
            },
            80..=85 if n_tramps > 0 && !profile.binary_safe => Op::SentryCall {
                tramp: rng.gen_range(0, n_tramps as u64) as u8,
                otype: rng.gen_range(1, 4) as u8,
            },
            86..=90 if !profile.binary_safe => Op::PostureSwitch {
                otype: rng.gen_range(2, 4) as u8,
            },
            91..=93 if timer => Op::TimerRearm {
                delta: rng.gen_range(200, 3000) as u16,
            },
            94..=95 if timer => Op::TimerPeek,
            96 if timer => Op::Wfi,
            97..=99 => Op::SeedReg {
                reg: *rng.pick(&POOL),
                val: gen_value(rng),
            },
            _ => continue,
        };
    }
}

/// A boundary-biased constant: representability edges, in-window
/// addresses, or plain noise.
fn gen_value(rng: &mut XorShift64) -> i32 {
    match rng.gen_range(0, 10) {
        0..=4 => *rng.pick(&BOUNDARY_LENGTHS) as i32,
        5..=7 => (DATA_BASE + rng.gen_range(0, u64::from(DATA_SIZE)) as u32) as i32,
        _ => rng.next_u32() as i32,
    }
}

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
];

const MUL_OPS: [MulOp; 7] = [
    MulOp::Mul,
    MulOp::Mulh,
    MulOp::Mulhu,
    MulOp::Div,
    MulOp::Divu,
    MulOp::Rem,
    MulOp::Remu,
];

const CAP_FIELDS: [CapField; 7] = [
    CapField::Perm,
    CapField::Type,
    CapField::Base,
    CapField::Len,
    CapField::Tag,
    CapField::Addr,
    CapField::High,
];

const CSR_IDS: [CsrId; 6] = [
    CsrId::Mcycle,
    CsrId::Mcycleh,
    CsrId::Mcause,
    CsrId::Mtval,
    CsrId::Mshwm,
    CsrId::Mshwmb,
];

const CSR_OPS: [CsrOp; 3] = [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc];

fn gen_instr(rng: &mut XorShift64, profile: &Profile, handler: bool, timer: bool) -> Instr {
    let rd = *rng.pick(&POOL);
    let rs1 = *rng.pick(&POOL);
    let rs2 = *rng.pick(&POOL);
    // rs1 for capability ops: usually the live data capability, sometimes
    // whatever the pool holds (ints, detagged caps, sealed caps).
    let cs1 = if rng.gen_range(0, 100) < 55 {
        Reg::GP
    } else {
        rs1
    };
    let imm12 = rng.gen_range(0, 4096) as i32 - 2048;
    loop {
        let roll = rng.gen_range(0, 100);
        return match roll {
            0..=9 => {
                // Keep OpImm encodable: there is no `subi`, and shift
                // immediates are 5-bit shamts.
                let op = match *rng.pick(&ALU_OPS) {
                    AluOp::Sub => AluOp::Add,
                    op => op,
                };
                let imm = match op {
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => imm12.rem_euclid(32),
                    _ => imm12,
                };
                Instr::OpImm { op, rd, rs1, imm }
            }
            10..=18 => Instr::Op {
                op: *rng.pick(&ALU_OPS),
                rd,
                rs1,
                rs2,
            },
            19..=22 => Instr::MulDiv {
                op: *rng.pick(&MUL_OPS),
                rd,
                rs1,
                rs2,
            },
            23..=24 => Instr::Lui {
                rd,
                imm: rng.gen_range(0, 1 << 20) as u32,
            },
            25..=30 => {
                let width = *rng.pick(&[MemWidth::B, MemWidth::H, MemWidth::W]);
                Instr::Load {
                    width,
                    signed: width != MemWidth::W && rng.gen_range(0, 2) == 0,
                    rd,
                    rs1: Reg::GP,
                    offset: data_offset(rng, width.bytes()),
                }
            }
            31..=35 => {
                let width = *rng.pick(&[MemWidth::B, MemWidth::H, MemWidth::W]);
                Instr::Store {
                    width,
                    rs2,
                    rs1: Reg::GP,
                    offset: data_offset(rng, width.bytes()),
                }
            }
            36..=37 if handler => {
                // Deliberately misaligned: the handler counts it and skips.
                let width = *rng.pick(&[MemWidth::H, MemWidth::W]);
                let off = data_offset(rng, width.bytes()) + 1;
                if rng.gen_range(0, 2) == 0 {
                    Instr::Load {
                        width,
                        signed: false,
                        rd,
                        rs1: Reg::GP,
                        offset: off,
                    }
                } else {
                    Instr::Store {
                        width,
                        rs2,
                        rs1: Reg::GP,
                        offset: off,
                    }
                }
            }
            38..=41 => Instr::Clc {
                rd,
                rs1: Reg::GP,
                offset: data_offset(rng, 8),
            },
            42..=45 => Instr::Csc {
                rs2: if rng.gen_range(0, 4) == 0 {
                    Reg::GP
                } else {
                    rs2
                },
                rs1: Reg::GP,
                offset: data_offset(rng, 8),
            },
            46..=49 => Instr::CGet {
                field: *rng.pick(&CAP_FIELDS),
                rd,
                rs1: cs1,
            },
            50..=52 => Instr::CSetAddr { rd, rs1: cs1, rs2 },
            53..=54 => Instr::CIncAddr { rd, rs1: cs1, rs2 },
            55..=56 => Instr::CIncAddrImm {
                rd,
                rs1: cs1,
                imm: imm12,
            },
            57..=60 => Instr::CSetBounds {
                rd,
                rs1: cs1,
                rs2,
                exact: rng.gen_range(0, 2) == 0,
            },
            61..=62 => Instr::CSetBoundsImm {
                rd,
                rs1: cs1,
                imm: *rng.pick(&BOUNDARY_LENGTHS).min(&4095),
            },
            63..=64 => Instr::CAndPerm { rd, rs1: cs1, rs2 },
            65 => Instr::CClearTag { rd, rs1: cs1 },
            66 => Instr::CMove { rd, rs1: cs1 },
            67..=69 => {
                // Sealing through S0 (valid otypes) or pool junk (detags).
                let auth = if rng.gen_range(0, 100) < 70 {
                    Reg::S0
                } else {
                    rs2
                };
                if rng.gen_range(0, 2) == 0 {
                    Instr::CSeal {
                        rd,
                        rs1: cs1,
                        rs2: auth,
                    }
                } else {
                    Instr::CUnseal { rd, rs1, rs2: auth }
                }
            }
            70..=71 => Instr::CTestSubset { rd, rs1: cs1, rs2 },
            72..=73 => Instr::CSetEqualExact { rd, rs1: cs1, rs2 },
            74 => Instr::CRoundRepresentableLength { rd, rs1 },
            75 => Instr::CRepresentableAlignmentMask { rd, rs1 },
            76..=78 => Instr::Csr {
                op: *rng.pick(&CSR_OPS),
                rd,
                rs1: if rng.gen_range(0, 3) == 0 {
                    Reg::ZERO
                } else {
                    rs1
                },
                // Cycle-counter reads make architectural results depend
                // on code layout (the encoder lowers wide `li` to
                // lui+addi), so binary-safe programs stay off them.
                csr: if profile.binary_safe {
                    *rng.pick(&CSR_IDS[2..])
                } else {
                    *rng.pick(&CSR_IDS)
                },
            },
            79 => Instr::CSpecialRw {
                rd,
                rs1: Reg::ZERO,
                scr: *rng.pick(&[ScrId::Mtcc, ScrId::Mtdc, ScrId::MScratchC, ScrId::Mepcc]),
            },
            80 if !profile.binary_safe => Instr::CSpecialRw {
                rd,
                rs1,
                scr: ScrId::Mtdc,
            },
            81 if handler => {
                if rng.gen_range(0, 2) == 0 {
                    Instr::Ecall
                } else {
                    Instr::Ebreak
                }
            }
            82 => Instr::Fence,
            83 if !profile.binary_safe => Instr::Auipcc {
                rd,
                imm: rng.gen_range(0, 128) as i32 - 64,
            },
            84 => Instr::Auicgp {
                rd,
                imm: rng.gen_range(0, 256) as i32,
            },
            85..=86 if timer => {
                // Wrong-size MMIO access: a bus error the handler skips.
                Instr::Load {
                    width: MemWidth::B,
                    signed: false,
                    rd,
                    rs1: Reg::TP,
                    offset: 1,
                }
            }
            _ => continue,
        };
    }
}

/// An in-window, width-aligned data offset.
fn data_offset(rng: &mut XorShift64, width: u32) -> i32 {
    let slots = DATA_REACH / u64::from(width);
    (rng.gen_range(0, slots + 1) * u64::from(width)) as i32
}

/// Extra stall the IRQ handler adds to `mtimecmp` on each timer
/// interrupt, so re-armed timers always leave room for forward progress.
const IRQ_REARM: i32 = 600;

/// Lowers a [`Program`] to instructions.
///
/// Layout: `j main`, the trap vector, the trampolines, then `main` —
/// preamble (install vector, derive `S0`/`GP`/timer capability, erase the
/// roots), the ops, a fold of the scratch pool into `A0`, and `halt`.
pub fn emit(p: &Program) -> Vec<Instr> {
    let mut a = Asm::new();
    let main = a.label();
    let handler = a.label();
    let irq = a.label();
    let tramp_labels: Vec<_> = p.tramps.iter().map(|_| a.label()).collect();

    a.j(main);

    if p.handler {
        // Trap vector: count the trap in S1. Interrupts (mcause bit 31)
        // re-arm the timer; synchronous traps skip the faulting
        // instruction so every trap makes progress.
        a.bind(handler);
        a.addi(Reg::S1, Reg::S1, 1);
        a.csrr(Reg::TP, CsrId::Mcause);
        a.blt(Reg::TP, Reg::ZERO, irq);
        a.cspecialrw(Reg::TP, ScrId::Mepcc, Reg::ZERO);
        a.cincaddrimm(Reg::TP, Reg::TP, 4);
        a.cspecialrw(Reg::ZERO, ScrId::Mepcc, Reg::TP);
        a.mret();
        a.bind(irq);
        a.cspecialrw(Reg::TP, ScrId::MScratchC, Reg::ZERO);
        a.lw(Reg::SP, 0, Reg::TP);
        a.addi(Reg::SP, Reg::SP, IRQ_REARM);
        a.sw(Reg::SP, 8, Reg::TP);
        a.mret();
    }

    for (body, label) in p.tramps.iter().zip(&tramp_labels) {
        a.bind(*label);
        for &i in body {
            a.raw(i);
        }
        a.cret();
    }

    a.bind(main);
    if p.handler {
        a.auipcc_to(Reg::T2, handler);
        a.cspecialrw(Reg::ZERO, ScrId::Mtcc, Reg::T2);
    }
    if p.seal {
        // S0: sealing authority over otypes 1..=7, derived from the
        // sealing root in T1.
        a.li(Reg::T2, 1);
        a.csetaddr(Reg::S0, Reg::T1, Reg::T2);
        a.li(Reg::T2, 7);
        a.csetbounds(Reg::S0, Reg::S0, Reg::T2);
    }
    if p.data {
        // GP: read/write data window, derived from the memory root in T0.
        a.li(Reg::T1, DATA_BASE as i32);
        a.csetaddr(Reg::GP, Reg::T0, Reg::T1);
        a.li(Reg::T1, DATA_SIZE as i32);
        a.csetbounds(Reg::GP, Reg::GP, Reg::T1);
    }
    if p.timer {
        // TP: the timer MMIO window, parked in mscratchc for the IRQ
        // handler and kept in TP for the wrong-size-access arm.
        a.li(Reg::T1, layout::TIMER_BASE as i32);
        a.csetaddr(Reg::T2, Reg::T0, Reg::T1);
        a.li(Reg::T1, 16);
        a.csetbounds(Reg::T2, Reg::T2, Reg::T1);
        a.cspecialrw(Reg::ZERO, ScrId::MScratchC, Reg::T2);
        a.cmove(Reg::TP, Reg::T2);
        a.li(Reg::T1, 0);
        a.sw(Reg::T1, 12, Reg::T2);
        let delay = 500 + (p.seed % 4096) as i32;
        a.li(Reg::T1, delay);
        a.sw(Reg::T1, 8, Reg::T2);
    }
    // Erase the roots: from here on the program holds only the derived,
    // bounded capabilities.
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 0);
    if p.timer {
        // Enable interrupts through a forward sentry (otype 2).
        let resume = a.label();
        a.auipcc_to(Reg::T1, resume);
        a.cincaddrimm(Reg::T2, Reg::S0, 1);
        a.cseal(Reg::T1, Reg::T1, Reg::T2);
        a.cjalr(Reg::ZERO, Reg::T1);
        a.bind(resume);
    }

    for op in &p.ops {
        emit_op(&mut a, op, &tramp_labels);
    }

    // Fold the scratch pool into A0 so divergent values anywhere in the
    // pool surface in one register (and give the planted-bug harness a
    // guaranteed XOR to corrupt).
    for rs in [Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5] {
        a.xor(Reg::A0, Reg::A0, rs);
    }
    a.nop();
    a.nop();
    a.halt();
    a.assemble()
}

fn emit_op(a: &mut Asm, op: &Op, tramps: &[cheriot_asm::Label]) {
    match op {
        Op::SeedReg { reg, val } => {
            a.li(*reg, *val);
        }
        Op::Straight(body) => {
            for &i in body {
                a.raw(i);
            }
        }
        Op::Loop { count, body } => {
            let top = a.label();
            a.li(Reg::T0, i32::from(*count));
            a.bind(top);
            for &i in body {
                a.raw(i);
            }
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        }
        Op::SkipIf { rs1, rs2, eq, body } => {
            let skip = a.label();
            if *eq {
                a.beq(*rs1, *rs2, skip);
            } else {
                a.bne(*rs1, *rs2, skip);
            }
            for &i in body {
                a.raw(i);
            }
            a.bind(skip);
        }
        Op::Call { tramp } => {
            a.jal(Reg::RA, tramps[*tramp as usize]);
        }
        Op::SentryCall { tramp, otype } => {
            a.auipcc_to(Reg::T1, tramps[*tramp as usize]);
            a.cincaddrimm(Reg::T2, Reg::S0, i32::from(*otype) - 1);
            a.cseal(Reg::T1, Reg::T1, Reg::T2);
            a.cjalr(Reg::RA, Reg::T1);
        }
        Op::PostureSwitch { otype } => {
            let resume = a.label();
            a.auipcc_to(Reg::T1, resume);
            a.cincaddrimm(Reg::T2, Reg::S0, i32::from(*otype) - 1);
            a.cseal(Reg::T1, Reg::T1, Reg::T2);
            a.cjalr(Reg::ZERO, Reg::T1);
            a.bind(resume);
        }
        Op::TimerRearm { delta } => {
            a.cspecialrw(Reg::T1, ScrId::MScratchC, Reg::ZERO);
            a.lw(Reg::T2, 0, Reg::T1);
            a.addi(Reg::T2, Reg::T2, i32::from(*delta));
            a.sw(Reg::T2, 8, Reg::T1);
        }
        Op::TimerPeek => {
            a.cspecialrw(Reg::T1, ScrId::MScratchC, Reg::ZERO);
            a.lw(Reg::T2, 8, Reg::T1);
        }
        Op::Wfi => {
            a.wfi();
        }
    }
}

/// Shrinking: repeatedly tries structure-level simplifications, keeping
/// each candidate only if `still_fails` says the divergence survives.
/// Returns the smallest failing program found.
pub fn shrink(start: &Program, still_fails: &dyn Fn(&Program) -> bool) -> Program {
    let mut best = start.clone();
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            if cand.len() < best.len() && still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// One round of shrink candidates, biggest cuts first.
fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    let n = p.ops.len();
    // Remove chunks of ops: halves, quarters, ... down to single ops.
    let mut chunk = n.div_ceil(2).max(1);
    loop {
        let mut at = 0;
        while at < n {
            let end = (at + chunk).min(n);
            let mut c = p.clone();
            c.ops.drain(at..end);
            out.push(c);
            at = end;
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    // Flag clears (a timer program needs its handler to stay live, so
    // clearing `handler` clears `timer` too).
    if p.timer {
        let mut c = p.clone();
        c.timer = false;
        out.push(c);
    }
    if p.handler {
        let mut c = p.clone();
        c.handler = false;
        c.timer = false;
        out.push(c);
    }
    if p.seal {
        let mut c = p.clone();
        c.seal = false;
        out.push(c);
    }
    if p.data {
        let mut c = p.clone();
        c.data = false;
        out.push(c);
    }
    if !p.tramps.is_empty() {
        let mut c = p.clone();
        c.tramps = p.tramps.iter().map(|_| Vec::new()).collect();
        out.push(c);
    }
    // Structure simplifications: unroll loops to a single pass, drop skip
    // guards, halve bodies.
    for (i, op) in p.ops.iter().enumerate() {
        match op {
            Op::Loop { body, .. } => {
                let mut c = p.clone();
                c.ops[i] = Op::Straight(body.clone());
                out.push(c);
            }
            Op::SkipIf { body, .. } => {
                let mut c = p.clone();
                c.ops[i] = Op::Straight(body.clone());
                out.push(c);
            }
            Op::Straight(body) if body.len() > 1 => {
                let mut c = p.clone();
                c.ops[i] = Op::Straight(body[..body.len() / 2].to_vec());
                out.push(c);
                let mut c = p.clone();
                c.ops[i] = Op::Straight(body[body.len() / 2..].to_vec());
                out.push(c);
            }
            _ => {}
        }
    }
    out
}
