//! The golden reference interpreter: one file, no caches, no batching,
//! no side tables.
//!
//! This is the independent re-implementation of the CHERIoT ISA the
//! lockstep comparator measures every execution engine against. It is
//! kept *obviously correct by construction*:
//!
//! - **Straight decode-and-execute.** One `match` over [`Instr`], one
//!   instruction at a time, with the interrupt poll before every
//!   instruction — no predecoded blocks, no chained dispatch, no batched
//!   event loop, no superblocks.
//! - **Naive memory.** 4 KiB byte pages, each allocated on its first
//!   write (an unwritten page reads as zero), plus one tag bit per 8-byte
//!   granule, packed 64 to a word. Accesses go byte by byte.
//!   Capabilities are re-encoded with [`Capability::to_word`] on every
//!   store and re-decoded with [`Capability::from_word`] on every load —
//!   there is deliberately *no* decoded-capability side cache, so the
//!   engine's side cache is checked against the architectural encoding
//!   round-trip on every capability that touches memory.
//! - **Same architectural state types.** Registers and special registers
//!   live in the same [`Cpu`] type the engines use, capabilities are the
//!   same [`Capability`]; only behaviour is re-implemented, so state
//!   comparison is exact (`PartialEq`) rather than interpretive.
//!
//! The modelled SoC is the fuzzer's sandbox: SRAM and the machine timer.
//! Generated programs are constructed so they can reach nothing else
//! (the capability roots are erased after deriving bounded data/timer
//! capabilities — see `generator`), and any stray access faults as a bus
//! error on both sides.
//!
//! Cycle accounting mirrors the documented core models exactly
//! ([`CoreModel::instr_cycles`], load-to-use hazards, branch/jump/trap
//! penalties, the load-filter adder on `clc`, `wfi` idle skips), because
//! the comparator checks cycle counts and interrupt boundaries, not just
//! register files.

use cheriot_cap::bounds::{representable_alignment_mask, representable_length};
use cheriot_cap::{Capability, InterruptPosture, OType, Permissions, SentryKind};
use cheriot_core::cpu::Cpu;
use cheriot_core::insn::{AluOp, BranchCond, CapField, CsrId, CsrOp, Instr, MulOp, Reg};
use cheriot_core::machine::{layout, ExitReason, MachineConfig, Stats};
use cheriot_core::pipeline::CoreModel;
use cheriot_core::trap::{TrapCause, PCC_REG_INDEX};

/// One tag granule (8 bytes), as in the engine's tagged SRAM.
const GRANULE: u32 = 8;

/// Bytes per memory page: an allocation unit, not architectural. It is
/// the engine's page size so the exit compare can pair pages one to one.
const PAGE_SIZE: usize = cheriot_core::mem::PAGE_SIZE as usize;

/// Naive tagged memory: bytes plus one tag bit per granule, nothing else.
///
/// Bytes live in 4 KiB pages allocated on first write; an unwritten page
/// reads as zero. Tags are packed 64 to a `u64`: bit `g % 64` of word
/// `g / 64` is the tag of granule `g`. Capabilities are stored as their
/// 64-bit encoding; loading one decodes that word from scratch. A scalar
/// store clears the tag of the granule it lands in, exactly as the
/// engine's SRAM does.
#[derive(Clone)]
pub struct GoldenMem {
    base: u32,
    size: u32,
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    tags: Vec<u64>,
}

impl GoldenMem {
    /// A zeroed memory of `size` bytes at `base`; no page is allocated
    /// until it is written.
    fn new(base: u32, size: u32) -> GoldenMem {
        let pages = (size as usize).div_ceil(PAGE_SIZE);
        GoldenMem {
            base,
            size,
            pages: vec![None; pages],
            tags: vec![0; pages * PAGE_SIZE / GRANULE as usize / 64],
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    fn contains(&self, addr: u32, size: u32) -> bool {
        let end = u64::from(addr) + u64::from(size);
        addr >= self.base && end <= u64::from(self.base) + u64::from(self.size)
    }

    /// The byte at offset `i`.
    fn byte(&self, i: usize) -> u8 {
        self.pages[i / PAGE_SIZE]
            .as_ref()
            .map_or(0, |p| p[i % PAGE_SIZE])
    }

    /// Writes the byte at offset `i`, allocating its page if needed.
    fn set_byte(&mut self, i: usize, v: u8) {
        let page = self.pages[i / PAGE_SIZE].get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
        page[i % PAGE_SIZE] = v;
    }

    /// Sets the tag of the granule holding `addr`.
    fn set_tag(&mut self, addr: u32, tag: bool) {
        let g = ((addr - self.base) / GRANULE) as usize;
        let bit = 1u64 << (g % 64);
        if tag {
            self.tags[g / 64] |= bit;
        } else {
            self.tags[g / 64] &= !bit;
        }
    }

    /// The tag of the granule holding `addr`.
    fn tag(&self, addr: u32) -> bool {
        let g = ((addr - self.base) / GRANULE) as usize;
        self.tags[g / 64] >> (g % 64) & 1 == 1
    }

    /// The engine's access contract, in its exact order: range first
    /// (bus error), then natural alignment (misaligned).
    fn check(&self, addr: u32, size: u32) -> Result<(), TrapCause> {
        if !self.contains(addr, size) {
            return Err(TrapCause::BusError { addr });
        }
        if !addr.is_multiple_of(size) {
            return Err(TrapCause::Misaligned { addr });
        }
        Ok(())
    }

    fn read_scalar(&self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        self.check(addr, size)?;
        let i = (addr - self.base) as usize;
        let mut v = 0u32;
        for k in (0..size as usize).rev() {
            v = (v << 8) | u32::from(self.byte(i + k));
        }
        Ok(v)
    }

    fn write_scalar(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        self.check(addr, size)?;
        let i = (addr - self.base) as usize;
        for k in 0..size as usize {
            self.set_byte(i + k, (value >> (8 * k)) as u8);
        }
        self.set_tag(addr, false);
        Ok(())
    }

    fn read_cap(&self, addr: u32) -> Result<Capability, TrapCause> {
        self.check(addr, GRANULE)?;
        let i = (addr - self.base) as usize;
        let mut word = 0u64;
        for k in (0..GRANULE as usize).rev() {
            word = (word << 8) | u64::from(self.byte(i + k));
        }
        let tag = self.tag(addr);
        Ok(Capability::from_word(word, tag))
    }

    fn write_cap(&mut self, addr: u32, c: Capability) -> Result<(), TrapCause> {
        self.check(addr, GRANULE)?;
        let i = (addr - self.base) as usize;
        let word = c.to_word();
        for k in 0..GRANULE as usize {
            self.set_byte(i + k, (word >> (8 * k)) as u8);
        }
        self.set_tag(addr, c.tag());
        Ok(())
    }

    /// The bytes of page `p` (from `base + p * 4096`), or `None` if the
    /// page was never written and so reads as zero. For exit-state
    /// comparison against the engine's SRAM.
    pub fn page(&self, p: usize) -> Option<&[u8]> {
        self.pages[p].as_deref().map(<[u8; PAGE_SIZE]>::as_slice)
    }

    /// Packed tag word `w`: bit `b` is the tag of granule `w * 64 + b`.
    /// For exit-state comparison.
    pub fn tag_word(&self, w: usize) -> u64 {
        self.tags[w]
    }
}

/// What kind of lockstep checkpoint the golden model recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Right after a trap or interrupt was entered.
    Trap,
    /// The first instruction boundary past the snapshot/fork point (the
    /// comparator round-trips the engines through snapshot/restore here).
    Fork,
    /// The final state (halt, fault, idle, or cycle budget exhausted).
    Exit,
}

/// A lockstep comparison point: the cycle count the engine must be driven
/// to, and why.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    /// Golden cycle count at the boundary.
    pub cycles: u64,
    /// Why this boundary was recorded.
    pub kind: CheckpointKind,
}

/// Dynamic coverage the golden run observed, merged across seeds by the
/// fuzz report.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    /// One bit per [`Instr`] variant (by [`opcode_index`]).
    pub opcodes: u64,
    /// `mcause` values of every trap and interrupt entered.
    pub trap_causes: Vec<u32>,
    /// Interrupt postures observed: bit 0 = disabled, bit 1 = enabled.
    pub postures: u8,
}

impl Coverage {
    fn note_opcode(&mut self, i: &Instr) {
        self.opcodes |= 1 << opcode_index(i);
    }

    fn note_trap(&mut self, mcause: u32) {
        if !self.trap_causes.contains(&mcause) {
            self.trap_causes.push(mcause);
        }
    }

    fn note_posture(&mut self, enabled: bool) {
        self.postures |= if enabled { 2 } else { 1 };
    }

    /// Folds another coverage record into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.opcodes |= other.opcodes;
        for &c in &other.trap_causes {
            self.note_trap(c);
        }
        self.postures |= other.postures;
    }

    /// Number of distinct instruction variants executed.
    pub fn opcode_count(&self) -> u32 {
        self.opcodes.count_ones()
    }

    /// Names of the instruction variants executed / not executed.
    pub fn opcode_names(&self, hit: bool) -> Vec<&'static str> {
        OPCODE_NAMES
            .iter()
            .enumerate()
            .filter(|&(i, _)| (self.opcodes >> i & 1 == 1) == hit)
            .map(|(_, &n)| n)
            .collect()
    }
}

/// All [`Instr`] variant names, indexed by [`opcode_index`].
pub const OPCODE_NAMES: [&str; 36] = [
    "lui",
    "auipcc",
    "auicgp",
    "op-imm",
    "op",
    "muldiv",
    "branch",
    "jal",
    "jalr",
    "load",
    "store",
    "clc",
    "csc",
    "cget",
    "csetaddr",
    "cincaddr",
    "cincaddrimm",
    "csetbounds",
    "csetboundsimm",
    "candperm",
    "ccleartag",
    "cmove",
    "cseal",
    "cunseal",
    "ctestsubset",
    "csetequalexact",
    "crrl",
    "cram",
    "cspecialrw",
    "csr",
    "ecall",
    "ebreak",
    "mret",
    "wfi",
    "fence",
    "halt",
];

/// A dense index for each [`Instr`] variant (for coverage bitmaps).
pub fn opcode_index(i: &Instr) -> u32 {
    match i {
        Instr::Lui { .. } => 0,
        Instr::Auipcc { .. } => 1,
        Instr::Auicgp { .. } => 2,
        Instr::OpImm { .. } => 3,
        Instr::Op { .. } => 4,
        Instr::MulDiv { .. } => 5,
        Instr::Branch { .. } => 6,
        Instr::Jal { .. } => 7,
        Instr::Jalr { .. } => 8,
        Instr::Load { .. } => 9,
        Instr::Store { .. } => 10,
        Instr::Clc { .. } => 11,
        Instr::Csc { .. } => 12,
        Instr::CGet { .. } => 13,
        Instr::CSetAddr { .. } => 14,
        Instr::CIncAddr { .. } => 15,
        Instr::CIncAddrImm { .. } => 16,
        Instr::CSetBounds { .. } => 17,
        Instr::CSetBoundsImm { .. } => 18,
        Instr::CAndPerm { .. } => 19,
        Instr::CClearTag { .. } => 20,
        Instr::CMove { .. } => 21,
        Instr::CSeal { .. } => 22,
        Instr::CUnseal { .. } => 23,
        Instr::CTestSubset { .. } => 24,
        Instr::CSetEqualExact { .. } => 25,
        Instr::CRoundRepresentableLength { .. } => 26,
        Instr::CRepresentableAlignmentMask { .. } => 27,
        Instr::CSpecialRw { .. } => 28,
        Instr::Csr { .. } => 29,
        Instr::Ecall => 30,
        Instr::Ebreak => 31,
        Instr::Mret => 32,
        Instr::Wfi => 33,
        Instr::Fence => 34,
        Instr::Halt => 35,
    }
}

/// The golden machine: CPU + naive memory + timer, nothing else.
#[derive(Clone)]
pub struct Golden {
    /// Cycle-cost parameters (Ibex or Flute — architectural behaviour is
    /// identical, cycle counts differ).
    pub core: CoreModel,
    /// The architectural register/SCR/CSR state (same type as the engine).
    pub cpu: Cpu,
    /// Tagged SRAM.
    pub mem: GoldenMem,
    /// The loaded program (decoded instructions, 4 bytes each, from
    /// [`layout::CODE_BASE`]).
    pub code: Vec<Instr>,
    /// Cycle counter.
    pub cycles: u64,
    /// Machine timer compare register.
    pub mtimecmp: u64,
    /// Retirement statistics, kept identical to the engine's.
    pub stats: Stats,
    /// Load-to-use hazard: destination register of the last load and the
    /// stall the next consumer pays.
    pub pending_use: Option<(Reg, u64)>,
    /// Why execution stopped, once it has.
    pub halted: Option<ExitReason>,
    /// Most recent trap cause.
    pub last_trap: Option<TrapCause>,
    /// Coverage observed so far.
    pub coverage: Coverage,
}

impl Golden {
    /// Boots a golden machine with `prog` loaded at the code base and the
    /// PCC bounded to it, mirroring `Machine::load_program` + `set_entry`.
    pub fn new(core: CoreModel, prog: &[Instr]) -> Golden {
        let code_len = (prog.len() * 4) as u32;
        let pcc = Capability::root_executable()
            .with_address(layout::CODE_BASE)
            .set_bounds(u64::from(code_len))
            .expect("code window is representable")
            .with_address(layout::CODE_BASE);
        let mut cpu = Cpu::at_reset();
        cpu.pcc = pcc;
        let mut coverage = Coverage::default();
        coverage.note_posture(cpu.interrupts_enabled);
        Golden {
            core,
            cpu,
            mem: GoldenMem::new(layout::SRAM_BASE, MachineConfig::new(core).sram_size),
            code: prog.to_vec(),
            cycles: 0,
            mtimecmp: u64::MAX,
            stats: Stats::default(),
            pending_use: None,
            halted: None,
            last_trap: None,
            coverage,
        }
    }

    /// Runs to completion or `max_cycles`, recording a [`Checkpoint`] at
    /// every trap/interrupt entry, at the first instruction boundary past
    /// `fork_at` cycles (if given), and at exit.
    pub fn run(&mut self, max_cycles: u64, fork_at: Option<u64>) -> Vec<Checkpoint> {
        let limit = self.cycles.saturating_add(max_cycles);
        let mut cps = Vec::new();
        let mut fork_pending = fork_at;
        loop {
            if let Some(f) = fork_pending {
                if self.cycles >= f && self.halted.is_none() {
                    cps.push(Checkpoint {
                        cycles: self.cycles,
                        kind: CheckpointKind::Fork,
                    });
                    fork_pending = None;
                }
            }
            if self.halted.is_some() || self.cycles >= limit {
                break;
            }
            if self.step() {
                cps.push(Checkpoint {
                    cycles: self.cycles,
                    kind: CheckpointKind::Trap,
                });
            }
        }
        cps.push(Checkpoint {
            cycles: self.cycles,
            kind: CheckpointKind::Exit,
        });
        cps
    }

    /// Why the run stopped (mirrors the engine's `exit_reason`; the golden
    /// model never arms a watchdog).
    pub fn exit_reason(&self) -> ExitReason {
        self.halted.unwrap_or(ExitReason::CycleLimit)
    }

    /// One execution atom, mirroring the engine's run loop: delivers a
    /// pending interrupt if there is one, otherwise fetches and executes
    /// one instruction. Returns whether a trap/interrupt was entered —
    /// every `true` is an inter-instruction boundary the lockstep
    /// comparator can drive an engine to.
    pub fn step(&mut self) -> bool {
        if let Some(irq) = self.pending_interrupt() {
            let pc = self.cpu.pc();
            self.enter_trap(irq, pc);
            return true;
        }
        self.step_instr()
    }

    fn pending_interrupt(&self) -> Option<TrapCause> {
        if !self.cpu.interrupts_enabled {
            return None;
        }
        if self.cycles >= self.mtimecmp {
            return Some(TrapCause::TimerInterrupt);
        }
        // No revoker, no device bus in the sandbox: the timer is the only
        // interrupt source a generated program can reach.
        None
    }

    fn advance(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    fn enter_trap(&mut self, cause: TrapCause, epc: u32) {
        self.last_trap = Some(cause);
        self.coverage.note_trap(cause.mcause());
        if !self.cpu.mtcc.tag() {
            self.halted = Some(ExitReason::Fault(cause));
            return;
        }
        if cause.is_interrupt() {
            self.stats.interrupts += 1;
        } else {
            self.stats.traps += 1;
        }
        self.cpu.mepcc = self.cpu.pcc.with_address(epc);
        self.cpu.mcause = cause.mcause();
        self.cpu.mtval = match cause {
            TrapCause::Cheri { reg, .. } => u32::from(reg),
            TrapCause::Misaligned { addr } | TrapCause::BusError { addr } => addr,
            _ => 0,
        };
        self.cpu.prev_interrupts_enabled = self.cpu.interrupts_enabled;
        self.cpu.interrupts_enabled = false;
        self.coverage.note_posture(false);
        let target = self.cpu.mtcc.address();
        self.cpu.pcc = self.cpu.mtcc.with_address(target);
        // Trap entry: pipeline flush plus the vector fetch.
        self.advance(self.core.branch_taken_penalty + 1);
    }

    fn fetch(&self, pc: u32) -> Result<Instr, TrapCause> {
        self.cpu
            .pcc
            .check_fetch(pc)
            .map_err(|fault| TrapCause::Cheri {
                fault,
                reg: PCC_REG_INDEX,
            })?;
        if pc < layout::CODE_BASE || !pc.is_multiple_of(4) {
            return Err(TrapCause::BusError { addr: pc });
        }
        let idx = ((pc - layout::CODE_BASE) / 4) as usize;
        self.code
            .get(idx)
            .copied()
            .ok_or(TrapCause::BusError { addr: pc })
    }

    /// Fetch/execute of exactly one instruction. Returns whether a trap
    /// was entered (so the run loop records a checkpoint).
    pub fn step_instr(&mut self) -> bool {
        let pc = self.cpu.pc();
        let instr = match self.fetch(pc) {
            Ok(i) => i,
            Err(t) => {
                self.enter_trap(t, pc);
                return true;
            }
        };
        // Load-to-use hazard from the previous instruction.
        if let Some((r, penalty)) = self.pending_use.take() {
            if instr.sources().iter().flatten().any(|&s| s == r) {
                self.stats.stall_cycles += penalty;
                self.advance(penalty);
            }
        }
        self.stats.instructions += 1;
        self.coverage.note_opcode(&instr);
        let mut base_cycles = self.core.instr_cycles(&instr);
        // The revocation-bit lookup lengthens capability loads (load
        // filter enabled, as in the default machine configuration).
        if let Instr::Clc { .. } = instr {
            base_cycles += self.core.filter_load_to_use;
        }
        match self.exec(instr, pc) {
            Ok((extra, advance_pc)) => {
                self.advance(base_cycles + extra);
                if advance_pc {
                    self.cpu.pcc = self.cpu.pcc.with_address(pc.wrapping_add(4));
                }
                false
            }
            Err(t) => {
                self.advance(base_cycles);
                self.enter_trap(t, pc);
                true
            }
        }
    }

    /// Scalar bus: SRAM plus the machine timer window; everything else is
    /// a bus error (the sandbox holds no capability to anything else).
    fn bus_read(&mut self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        if self.mem.contains(addr, size) {
            return self.mem.read_scalar(addr, size);
        }
        let base = addr & !(layout::MMIO_SIZE - 1);
        if base == layout::TIMER_BASE {
            if size != 4 || !addr.is_multiple_of(4) {
                return Err(TrapCause::BusError { addr });
            }
            return Ok(match addr - base {
                0x0 => self.cycles as u32,
                0x4 => (self.cycles >> 32) as u32,
                0x8 => self.mtimecmp as u32,
                0xc => (self.mtimecmp >> 32) as u32,
                _ => 0,
            });
        }
        Err(TrapCause::BusError { addr })
    }

    fn bus_write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        // Stack high-water mark note, before the write can fault (the
        // engine's order).
        self.note_store(addr);
        if self.mem.contains(addr, size) {
            return self.mem.write_scalar(addr, size, value);
        }
        let base = addr & !(layout::MMIO_SIZE - 1);
        if base == layout::TIMER_BASE {
            if size != 4 || !addr.is_multiple_of(4) {
                return Err(TrapCause::BusError { addr });
            }
            match addr - base {
                0x8 => self.mtimecmp = (self.mtimecmp & !0xffff_ffff) | u64::from(value),
                0xc => self.mtimecmp = (self.mtimecmp & 0xffff_ffff) | (u64::from(value) << 32),
                _ => {}
            }
            return Ok(());
        }
        Err(TrapCause::BusError { addr })
    }

    fn note_store(&mut self, addr: u32) {
        if addr >= self.cpu.mshwmb && addr < self.cpu.mshwm {
            self.cpu.mshwm = addr & !0x7;
        }
    }

    fn link(&mut self, rd: Reg, ret: u32) -> Result<(), TrapCause> {
        if rd == Reg::ZERO {
            return Ok(());
        }
        let sentry = OType::return_sentry(self.cpu.interrupts_enabled);
        let link = self
            .cpu
            .pcc
            .with_address(ret)
            .seal_as_sentry(sentry)
            .map_err(|fault| TrapCause::Cheri {
                fault,
                reg: PCC_REG_INDEX,
            })?;
        self.cpu.write(rd, link);
        Ok(())
    }

    fn wait_for_interrupt(&mut self) {
        // Retires immediately if the timer has already fired; otherwise
        // idles straight to the timer horizon (there is no revoker and no
        // device line in the sandbox), or goes idle forever.
        if self.cycles >= self.mtimecmp {
            return;
        }
        if self.mtimecmp == u64::MAX {
            self.halted = Some(ExitReason::Idle);
            return;
        }
        let skip = self.mtimecmp - self.cycles;
        self.cycles += skip;
        self.stats.idle_cycles += skip;
    }

    /// Executes `instr` at `pc`: `Ok((extra_cycles, advance_pc))` where
    /// `advance_pc` means the caller moves the PCC to `pc + 4`.
    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, instr: Instr, pc: u32) -> Result<(u64, bool), TrapCause> {
        let next = pc.wrapping_add(4);
        let mut extra = 0;
        let mut next_pc = next;
        let cheri = |reg: Reg, fault: cheriot_cap::CapFault| TrapCause::Cheri { fault, reg: reg.0 };
        let cheri_pcc = |fault: cheriot_cap::CapFault| TrapCause::Cheri {
            fault,
            reg: PCC_REG_INDEX,
        };
        match instr {
            Instr::Lui { rd, imm } => self.cpu.write_int(rd, imm << 12),
            Instr::Auipcc { rd, imm } => {
                let c = self.cpu.pcc.with_address(pc.wrapping_add(imm as u32));
                self.cpu.write(rd, c);
            }
            Instr::Auicgp { rd, imm } => {
                let gp = self.cpu.read(Reg::GP);
                let c = gp.with_address(gp.address().wrapping_add(imm as u32));
                self.cpu.write(rd, c);
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = self.cpu.read_int(rs1);
                self.cpu.write_int(rd, alu(op, a, imm as u32));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let a = self.cpu.read_int(rs1);
                let b = self.cpu.read_int(rs2);
                self.cpu.write_int(rd, alu(op, a, b));
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.cpu.read_int(rs1);
                let b = self.cpu.read_int(rs2);
                self.cpu.write_int(rd, muldiv(op, a, b));
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.cpu.read_int(rs1);
                let b = self.cpu.read_int(rs2);
                if branch_taken(cond, a, b) {
                    next_pc = pc.wrapping_add(offset as u32);
                    extra += self.core.branch_taken_penalty;
                    self.stats.taken_branches += 1;
                }
            }
            Instr::Jal { rd, offset } => {
                self.link(rd, next)?;
                next_pc = pc.wrapping_add(offset as u32);
                extra += self.core.jump_penalty;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.cpu.read(rs1);
                if !target.tag() {
                    return Err(cheri(rs1, cheriot_cap::CapFault::TagViolation));
                }
                let mut posture = None;
                let tc = if target.is_sealed() {
                    match target.otype().sentry_kind() {
                        Some(kind) if offset == 0 => {
                            posture = Some(match kind {
                                SentryKind::Forward(p) => p,
                                SentryKind::Return(InterruptPosture::Enabled) => {
                                    InterruptPosture::Enabled
                                }
                                SentryKind::Return(_) => InterruptPosture::Disabled,
                            });
                            target.unsealed_for_jump()
                        }
                        _ => return Err(cheri(rs1, cheriot_cap::CapFault::SealViolation)),
                    }
                } else {
                    target
                };
                if !tc.perms().contains(Permissions::EX) {
                    return Err(cheri(
                        rs1,
                        cheriot_cap::CapFault::PermissionViolation {
                            needed: Permissions::EX,
                        },
                    ));
                }
                // Link *before* the posture switch: a return sentry must
                // record the pre-call posture.
                self.link(rd, next)?;
                match posture {
                    Some(InterruptPosture::Enabled) => self.cpu.interrupts_enabled = true,
                    Some(InterruptPosture::Disabled) => self.cpu.interrupts_enabled = false,
                    Some(InterruptPosture::Inherit) | None => {}
                }
                self.coverage.note_posture(self.cpu.interrupts_enabled);
                let addr = tc.address().wrapping_add(offset as u32) & !1;
                self.cpu.pcc = tc.with_address(addr);
                extra += self.core.jump_penalty;
                return Ok((extra, false));
            }
            Instr::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let auth = self.cpu.read(rs1);
                let addr = auth.address().wrapping_add(offset as u32);
                auth.check_access(addr, width.bytes(), Permissions::LD)
                    .map_err(|f| cheri(rs1, f))?;
                let raw = self.bus_read(addr, width.bytes())?;
                let v = if signed {
                    sign_extend(raw, width.bytes())
                } else {
                    raw
                };
                self.cpu.write_int(rd, v);
                self.stats.loads += 1;
                self.pending_use = Some((rd, self.core.load_to_use));
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let auth = self.cpu.read(rs1);
                let addr = auth.address().wrapping_add(offset as u32);
                auth.check_access(addr, width.bytes(), Permissions::SD)
                    .map_err(|f| cheri(rs1, f))?;
                let v = self.cpu.read_int(rs2);
                self.bus_write(addr, width.bytes(), v)?;
                self.stats.stores += 1;
            }
            Instr::Clc { rd, rs1, offset } => {
                let auth = self.cpu.read(rs1);
                let addr = auth.address().wrapping_add(offset as u32);
                auth.check_access(addr, GRANULE, Permissions::LD | Permissions::MC)
                    .map_err(|f| cheri(rs1, f))?;
                // Capability loads are served by SRAM only; the load
                // filter never strips in the sandbox (the revocation
                // bitmap is never painted), so the naive read suffices.
                let c = self.mem.read_cap(addr)?.attenuated_on_load(auth);
                self.cpu.write(rd, c);
                self.stats.cap_loads += 1;
                self.pending_use = Some((rd, self.core.load_to_use));
            }
            Instr::Csc { rs2, rs1, offset } => {
                let auth = self.cpu.read(rs1);
                let addr = auth.address().wrapping_add(offset as u32);
                auth.check_access(addr, GRANULE, Permissions::SD | Permissions::MC)
                    .map_err(|f| cheri(rs1, f))?;
                let c = self.cpu.read(rs2);
                if c.tag() && !c.is_global() && !auth.perms().contains(Permissions::SL) {
                    return Err(cheri(
                        rs1,
                        cheriot_cap::CapFault::PermissionViolation {
                            needed: Permissions::SL,
                        },
                    ));
                }
                self.note_store(addr);
                self.mem.write_cap(addr, c)?;
                self.stats.cap_stores += 1;
            }
            Instr::CGet { field, rd, rs1 } => {
                let c = self.cpu.read(rs1);
                let v = match field {
                    CapField::Perm => u32::from(c.perms().bits()),
                    CapField::Type => u32::from(c.otype().field()),
                    CapField::Base => c.base(),
                    CapField::Len => c.length().min(u64::from(u32::MAX)) as u32,
                    CapField::Tag => u32::from(c.tag()),
                    CapField::Addr => c.address(),
                    CapField::High => (c.to_word() >> 32) as u32,
                };
                self.cpu.write_int(rd, v);
            }
            Instr::CSetAddr { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let a = self.cpu.read_int(rs2);
                self.cpu.write(rd, c.with_address(a));
            }
            Instr::CIncAddr { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let a = self.cpu.read_int(rs2);
                self.cpu.write(rd, c.incremented(a as i32));
            }
            Instr::CIncAddrImm { rd, rs1, imm } => {
                let c = self.cpu.read(rs1);
                self.cpu.write(rd, c.incremented(imm));
            }
            Instr::CSetBounds {
                rd,
                rs1,
                rs2,
                exact,
            } => {
                let c = self.cpu.read(rs1);
                let len = u64::from(self.cpu.read_int(rs2));
                let out = if exact {
                    c.set_bounds_exact(len)
                } else {
                    c.set_bounds(len)
                };
                self.cpu.write(rd, out.unwrap_or_else(|| c.cleared()));
            }
            Instr::CSetBoundsImm { rd, rs1, imm } => {
                let c = self.cpu.read(rs1);
                let out = c.set_bounds(u64::from(imm));
                self.cpu.write(rd, out.unwrap_or_else(|| c.cleared()));
            }
            Instr::CAndPerm { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let mask = Permissions::from_bits(self.cpu.read_int(rs2) as u16);
                self.cpu.write(rd, c.and_perms(mask));
            }
            Instr::CClearTag { rd, rs1 } => {
                let c = self.cpu.read(rs1);
                self.cpu.write(rd, c.cleared());
            }
            Instr::CMove { rd, rs1 } => {
                let c = self.cpu.read(rs1);
                self.cpu.write(rd, c);
            }
            Instr::CSeal { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let auth = self.cpu.read(rs2);
                // Non-trapping: failures detag (CHERIoT semantics).
                let out = c.seal_with(auth).unwrap_or_else(|_| c.cleared());
                self.cpu.write(rd, out);
            }
            Instr::CUnseal { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let auth = self.cpu.read(rs2);
                let out = c.unseal_with(auth).unwrap_or_else(|_| c.cleared());
                self.cpu.write(rd, out);
            }
            Instr::CTestSubset { rd, rs1, rs2 } => {
                let parent = self.cpu.read(rs1);
                let child = self.cpu.read(rs2);
                self.cpu
                    .write_int(rd, u32::from(child.is_subset_of(parent)));
            }
            Instr::CSetEqualExact { rd, rs1, rs2 } => {
                let a = self.cpu.read(rs1);
                let b = self.cpu.read(rs2);
                let eq = a.to_word() == b.to_word() && a.tag() == b.tag();
                self.cpu.write_int(rd, u32::from(eq));
            }
            Instr::CRoundRepresentableLength { rd, rs1 } => {
                let len = self.cpu.read_int(rs1);
                self.cpu.write_int(
                    rd,
                    representable_length(len).min(u64::from(u32::MAX)) as u32,
                );
            }
            Instr::CRepresentableAlignmentMask { rd, rs1 } => {
                let len = self.cpu.read_int(rs1);
                self.cpu.write_int(rd, representable_alignment_mask(len));
            }
            Instr::CSpecialRw { rd, rs1, scr } => {
                if !self.cpu.pcc.perms().contains(Permissions::SR) {
                    return Err(cheri_pcc(cheriot_cap::CapFault::PermissionViolation {
                        needed: Permissions::SR,
                    }));
                }
                let old = self.cpu.scr(scr);
                if rs1 != Reg::ZERO {
                    let v = self.cpu.read(rs1);
                    self.cpu.set_scr(scr, v);
                }
                self.cpu.write(rd, old);
            }
            Instr::Csr { op, rd, rs1, csr } => {
                let needs_sr = !matches!(csr, CsrId::Mcycle | CsrId::Mcycleh);
                if needs_sr && !self.cpu.pcc.perms().contains(Permissions::SR) {
                    return Err(cheri_pcc(cheriot_cap::CapFault::PermissionViolation {
                        needed: Permissions::SR,
                    }));
                }
                let old = match csr {
                    CsrId::Mcycle => self.cycles as u32,
                    CsrId::Mcycleh => (self.cycles >> 32) as u32,
                    CsrId::Mcause => self.cpu.mcause,
                    CsrId::Mtval => self.cpu.mtval,
                    CsrId::Mshwm => self.cpu.mshwm,
                    CsrId::Mshwmb => self.cpu.mshwmb,
                };
                let operand = self.cpu.read_int(rs1);
                let new = match op {
                    CsrOp::Rw => operand,
                    CsrOp::Rs => old | operand,
                    CsrOp::Rc => old & !operand,
                };
                if rs1 != Reg::ZERO || matches!(op, CsrOp::Rw) {
                    match csr {
                        CsrId::Mcause => self.cpu.mcause = new,
                        CsrId::Mtval => self.cpu.mtval = new,
                        CsrId::Mshwm => self.cpu.mshwm = new,
                        CsrId::Mshwmb => self.cpu.mshwmb = new,
                        CsrId::Mcycle | CsrId::Mcycleh => {}
                    }
                }
                self.cpu.write_int(rd, old);
            }
            Instr::Ecall => return Err(TrapCause::EnvironmentCall),
            Instr::Ebreak => return Err(TrapCause::Breakpoint),
            Instr::Mret => {
                if !self.cpu.pcc.perms().contains(Permissions::SR) {
                    return Err(cheri_pcc(cheriot_cap::CapFault::PermissionViolation {
                        needed: Permissions::SR,
                    }));
                }
                if !self.cpu.mepcc.tag() {
                    return Err(cheri_pcc(cheriot_cap::CapFault::TagViolation));
                }
                self.cpu.interrupts_enabled = self.cpu.prev_interrupts_enabled;
                self.coverage.note_posture(self.cpu.interrupts_enabled);
                self.cpu.pcc = self.cpu.mepcc;
                extra += self.core.jump_penalty;
                // A sealed `mepcc` detags under `with_address`, making the
                // next fetch a tag violation — architected behaviour.
                self.cpu.pcc = self.cpu.pcc.with_address(self.cpu.pc());
                return Ok((extra, false));
            }
            Instr::Wfi => {
                self.wait_for_interrupt();
                // Falls through: wfi retires and the PC advances.
            }
            Instr::Fence => {}
            Instr::Halt => {
                self.halted = Some(ExitReason::Halted(self.cpu.read_int(Reg::A0)));
                return Ok((0, false));
            }
        }
        if next_pc == next {
            Ok((extra, true))
        } else {
            self.cpu.pcc = self.cpu.pcc.with_address(next_pc);
            Ok((extra, false))
        }
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
        MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn branch_taken(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

fn sign_extend(v: u32, bytes: u32) -> u32 {
    match bytes {
        1 => v as u8 as i8 as i32 as u32,
        2 => v as u16 as i16 as i32 as u32,
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u32 = layout::SRAM_BASE;

    #[test]
    fn unwritten_pages_read_as_zero_and_stay_unallocated() {
        let mut m = GoldenMem::new(BASE, 0x3000);
        m.write_scalar(BASE + 0x2004, 4, 0xdead_beef).unwrap();
        assert!(m.page(0).is_none() && m.page(1).is_none());
        assert_eq!(m.read_scalar(BASE + 0x1ffc, 4).unwrap(), 0);
        let zero = m.read_cap(BASE + 0x1000).unwrap();
        assert!(!zero.tag());
        assert_eq!(zero.to_word(), 0);
        let written = m.page(2).expect("a written page is allocated");
        assert_eq!(written[4..8], 0xdead_beef_u32.to_le_bytes());
        assert_eq!(m.read_scalar(BASE + 0x2004, 4).unwrap(), 0xdead_beef);
    }

    #[test]
    fn tag_bits_63_and_64_land_in_different_words() {
        let mut m = GoldenMem::new(BASE, 0x1000);
        let c = Capability::root_mem_rw()
            .with_address(BASE)
            .set_bounds(64)
            .unwrap();
        m.write_cap(BASE + 63 * GRANULE, c).unwrap();
        assert_eq!((m.tag_word(0), m.tag_word(1)), (1 << 63, 0));
        m.write_cap(BASE + 64 * GRANULE, c).unwrap();
        assert_eq!((m.tag_word(0), m.tag_word(1)), (1 << 63, 1));
        let back = m.read_cap(BASE + 64 * GRANULE).unwrap();
        assert!(back.tag());
        assert_eq!(back.to_word(), c.to_word());
        // A scalar store into granule 63 clears that tag alone.
        m.write_scalar(BASE + 63 * GRANULE + 4, 4, 0).unwrap();
        assert_eq!((m.tag_word(0), m.tag_word(1)), (0, 1));
    }
}
