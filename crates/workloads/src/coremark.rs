//! A CoreMark-like benchmark for the simulator (paper §7.2.1, Table 3).
//!
//! CoreMark exercises three workload classes: linked-list processing,
//! matrix operations, and a state machine/CRC. This module hand-writes
//! those kernels in guest assembly twice — once for the RV32E baseline
//! (integer pointers, no capability checks) and once as the CHERIoT
//! compiler would emit them (capability pointers via `clc`/`csc`, bounds
//! set-up for address-taken objects) — standing in for the CHERI LLVM
//! toolchain.
//!
//! The two known compiler bugs the paper calls out (address arithmetic not
//! folded through capabilities; bounds applied to statically-safe global
//! accesses) are modelled by one switch, [`CoreMarkConfig::quirks`], on
//! by default so the numbers are worst-case like the paper's.
//!
//! Both modes compute the same checksum, which doubles as a functional
//! equivalence test.

use cheriot_asm::Asm;
use cheriot_cap::Capability;
use cheriot_core::insn::Reg;
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};

/// How pointers are represented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtrMode {
    /// RV32E baseline: pointers are 32-bit integers; the core performs no
    /// checks.
    Integer,
    /// CHERIoT: pointers are 64-bit capabilities.
    Capability,
}

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct CoreMarkConfig {
    /// Pointer representation.
    pub mode: PtrMode,
    /// Emit the two known CHERI-LLVM bugs of paper §7.2 (on = the paper's
    /// worst case, off = a future fixed compiler). Bug 1: address
    /// computation idioms are not folded when the base is a capability
    /// (an extra `cincaddr` per element access in array-of-struct loops).
    /// Bug 2: bounds are applied to global accesses even when statically
    /// safe (an extra `csetbounds` per global-object access).
    pub quirks: bool,
    /// Outer iterations of the kernel mix.
    pub iterations: u32,
    /// Linked-list length.
    pub list_nodes: u32,
    /// Dependent-chase find passes per iteration (list-processing weight).
    pub find_passes: u32,
    /// Is the temporal-safety load filter enabled in the pipeline?
    pub load_filter: bool,
}

impl CoreMarkConfig {
    /// The Table 3 row for a given configuration name.
    pub fn baseline() -> CoreMarkConfig {
        CoreMarkConfig {
            mode: PtrMode::Integer,
            quirks: true,
            iterations: 40,
            list_nodes: 128,
            find_passes: 12,
            load_filter: false,
        }
    }

    /// Capabilities, load filter off.
    pub fn capabilities() -> CoreMarkConfig {
        CoreMarkConfig {
            mode: PtrMode::Capability,
            load_filter: false,
            ..CoreMarkConfig::baseline()
        }
    }

    /// Capabilities plus the load filter.
    pub fn capabilities_with_filter() -> CoreMarkConfig {
        CoreMarkConfig {
            mode: PtrMode::Capability,
            load_filter: true,
            ..CoreMarkConfig::baseline()
        }
    }
}

/// Result of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct CoreMarkResult {
    /// Total cycles for the run.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The functional checksum (mode-independent).
    pub checksum: u32,
    /// CoreMark-per-MHz analogue (iterations per cycle, scaled).
    pub score_per_mhz: f64,
}

/// Scaling constant making the RV32E baseline score land in the published
/// ~2.0 CoreMark/MHz region (cosmetic; overheads are what matter).
const SCORE_SCALE: f64 = 49_650.0;

// --- data layout (absolute addresses in SRAM) -------------------------------

const DATA_BASE: u32 = layout::SRAM_BASE + 0x1000;
const HEAD_SLOT: u32 = DATA_BASE; // 8-byte slot for the list head pointer
const LIST_BASE: u32 = DATA_BASE + 0x40;
const MAT_A: u32 = DATA_BASE + 0x4000;
const MAT_B: u32 = DATA_BASE + 0x4100;
const MAT_C: u32 = DATA_BASE + 0x4200;
const STR_BASE: u32 = DATA_BASE + 0x5000;
const STR_LEN: u32 = 64;
const MAT_N: u32 = 8;

/// Register conventions inside the generated program:
/// `a0` = data-region pointer (ambient int / region capability),
/// `gp` = same (globals base), `s0` = checksum accumulator,
/// `s1` = remaining iterations.
struct Gen {
    mode: PtrMode,
    quirks: bool,
    find_passes: u32,
}

impl Gen {
    fn node_stride(&self) -> u32 {
        match self.mode {
            PtrMode::Integer => 8,
            PtrMode::Capability => 16,
        }
    }

    fn val_off(&self) -> i32 {
        match self.mode {
            PtrMode::Integer => 4,
            PtrMode::Capability => 8,
        }
    }

    /// Materialises a pointer to absolute address `addr` in `rd`.
    /// Integer: `li`. Capability: derive from the region capability in
    /// `a0`; the bounds-on-globals quirk adds a `csetbounds`.
    fn global_ptr(&self, a: &mut Asm, rd: Reg, addr: u32, size: u32) {
        match self.mode {
            PtrMode::Integer => {
                a.li(rd, addr as i32);
            }
            PtrMode::Capability => {
                a.li(Reg::T2, addr as i32);
                a.csetaddr(rd, Reg::A0, Reg::T2);
                if self.quirks {
                    a.li(Reg::T2, size as i32);
                    a.csetbounds(rd, rd, Reg::T2);
                }
            }
        }
    }

    /// Pointer load: `rd <- [rs1 + off]`.
    fn load_ptr(&self, a: &mut Asm, rd: Reg, off: i32, rs1: Reg) {
        match self.mode {
            PtrMode::Integer => {
                a.lw(rd, off, rs1);
            }
            PtrMode::Capability => {
                a.clc(rd, off, rs1);
            }
        }
    }

    /// Pointer store: `[rs1 + off] <- rs2`.
    fn store_ptr(&self, a: &mut Asm, rs2: Reg, off: i32, rs1: Reg) {
        match self.mode {
            PtrMode::Integer => {
                a.sw(rs2, off, rs1);
            }
            PtrMode::Capability => {
                a.csc(rs2, off, rs1);
            }
        }
    }

    /// Pointer register move.
    fn move_ptr(&self, a: &mut Asm, rd: Reg, rs: Reg) {
        match self.mode {
            PtrMode::Integer => {
                a.mv(rd, rs);
            }
            PtrMode::Capability => {
                a.cmove(rd, rs);
            }
        }
    }

    /// `rd = rs1 + rs2(int)` in pointer arithmetic.
    fn add_ptr(&self, a: &mut Asm, rd: Reg, rs1: Reg, rs2: Reg) {
        match self.mode {
            PtrMode::Integer => {
                a.add(rd, rs1, rs2);
            }
            PtrMode::Capability => {
                a.cincaddr(rd, rs1, rs2);
                if self.quirks {
                    // Bug 1: the backend re-derives instead of folding.
                    a.cincaddrimm(rd, rd, 0);
                }
            }
        }
    }

    /// `rd = rs1 + imm` in pointer arithmetic.
    fn add_ptr_imm(&self, a: &mut Asm, rd: Reg, rs1: Reg, imm: i32) {
        match self.mode {
            PtrMode::Integer => {
                a.addi(rd, rs1, imm);
            }
            PtrMode::Capability => {
                a.cincaddrimm(rd, rs1, imm);
            }
        }
    }

    /// Pointer increment in an array-of-structures loop: bug 1 means the
    /// backend fails to fold the stride into the addressing mode and
    /// re-derives the address (paper §7.2: "particularly impacts loops
    /// that iterate over arrays of structures").
    fn add_ptr_imm_aos(&self, a: &mut Asm, rd: Reg, rs1: Reg, imm: i32) {
        self.add_ptr_imm(a, rd, rs1, imm);
        if self.mode == PtrMode::Capability && self.quirks {
            a.cincaddrimm(rd, rd, 0);
        }
    }

    // --- setup ---------------------------------------------------------------

    /// Builds the linked list: `list_nodes` nodes, each `{next, val}`,
    /// last node's next = null. Head written to `HEAD_SLOT`.
    fn emit_list_setup(&self, a: &mut Asm, n: u32) {
        let stride = self.node_stride();
        // t0 = i, a1 = node ptr, a2 = limit
        self.global_ptr(a, Reg::A1, LIST_BASE, n * stride);
        a.li(Reg::T0, 0);
        a.li(Reg::A2, (n - 1) as i32);
        let top = a.here();
        // next = node + stride (or null for the last)
        self.add_ptr_imm(a, Reg::A3, Reg::A1, stride as i32);
        let not_last = a.label();
        a.bne(Reg::T0, Reg::A2, not_last);
        match self.mode {
            PtrMode::Integer => {
                a.li(Reg::A3, 0);
            }
            PtrMode::Capability => {
                // Null capability: move from the zero register.
                a.cmove(Reg::A3, Reg::ZERO);
            }
        }
        a.bind(not_last);
        self.store_ptr(a, Reg::A3, 0, Reg::A1);
        // val = (i ^ (i << 5)) & 0xff, non-zero-ish mix
        a.slli(Reg::A4, Reg::T0, 5);
        a.xor(Reg::A4, Reg::A4, Reg::T0);
        a.andi(Reg::A4, Reg::A4, 0xff);
        a.addi(Reg::A4, Reg::A4, 3);
        a.sw(Reg::A4, self.val_off(), Reg::A1);
        // advance
        self.add_ptr_imm(a, Reg::A1, Reg::A1, stride as i32);
        a.addi(Reg::T0, Reg::T0, 1);
        a.li(Reg::A5, n as i32);
        a.blt(Reg::T0, Reg::A5, top);
        // head = LIST_BASE
        self.global_ptr(a, Reg::A1, LIST_BASE, n * stride);
        self.global_ptr(a, Reg::A5, HEAD_SLOT, 8);
        self.store_ptr(a, Reg::A1, 0, Reg::A5);
    }

    /// Fills matrices A and B with deterministic patterns.
    fn emit_matrix_setup(&self, a: &mut Asm) {
        for (base, mul, add) in [(MAT_A, 7u32, 3u32), (MAT_B, 5, 11)] {
            self.global_ptr(a, Reg::A1, base, MAT_N * MAT_N * 4);
            a.li(Reg::T0, 0);
            let top = a.here();
            // v = (i * mul + add) & 0x3f
            a.li(Reg::A4, mul as i32);
            a.mul(Reg::A4, Reg::A4, Reg::T0);
            a.addi(Reg::A4, Reg::A4, add as i32);
            a.andi(Reg::A4, Reg::A4, 0x3f);
            a.sw(Reg::A4, 0, Reg::A1);
            self.add_ptr_imm(a, Reg::A1, Reg::A1, 4);
            a.addi(Reg::T0, Reg::T0, 1);
            a.li(Reg::A5, (MAT_N * MAT_N) as i32);
            a.blt(Reg::T0, Reg::A5, top);
        }
    }

    /// Fills the CRC string with bytes.
    fn emit_string_setup(&self, a: &mut Asm) {
        self.global_ptr(a, Reg::A1, STR_BASE, STR_LEN);
        a.li(Reg::T0, 0);
        let top = a.here();
        a.slli(Reg::A4, Reg::T0, 3);
        a.xor(Reg::A4, Reg::A4, Reg::T0);
        a.andi(Reg::A4, Reg::A4, 0xff);
        a.sb(Reg::A4, 0, Reg::A1);
        self.add_ptr_imm(a, Reg::A1, Reg::A1, 1);
        a.addi(Reg::T0, Reg::T0, 1);
        a.li(Reg::A5, STR_LEN as i32);
        a.blt(Reg::T0, Reg::A5, top);
    }

    // --- kernels ---------------------------------------------------------------

    /// List kernel: one in-place reversal pass (sums values), then a
    /// dependent-load find pass (the classic pointer chase — this is where
    /// the load filter's extra load-to-use cycle shows on Ibex).
    fn emit_list_work(&self, a: &mut Asm) {
        let vo = self.val_off();
        // --- reversal + sum ---
        self.global_ptr(a, Reg::A5, HEAD_SLOT, 8);
        self.load_ptr(a, Reg::A1, 0, Reg::A5); // cur
        match self.mode {
            PtrMode::Integer => a.li(Reg::A3, 0),
            PtrMode::Capability => a.cmove(Reg::A3, Reg::ZERO),
        };
        let rev = a.here();
        self.load_ptr(a, Reg::A4, 0, Reg::A1); // next
        self.store_ptr(a, Reg::A3, 0, Reg::A1); // cur->next = prev
        a.lw(Reg::T0, vo, Reg::A1); // val
        a.add(Reg::S0, Reg::S0, Reg::T0);
        self.move_ptr(a, Reg::A3, Reg::A1); // prev = cur
        self.move_ptr(a, Reg::A1, Reg::A4); // cur = next
        let rev_done = a.label();
        // Null test on the address (null caps have address 0).
        a.cgetaddr_or_mv(self.mode, Reg::T1, Reg::A1);
        a.beqz(Reg::T1, rev_done);
        a.j(rev);
        a.bind(rev_done);
        self.global_ptr(a, Reg::A5, HEAD_SLOT, 8);
        self.store_ptr(a, Reg::A3, 0, Reg::A5); // new head

        // --- find passes: dependent pointer chase ---
        a.li(Reg::A2, self.find_passes as i32);
        let pass = a.here();
        self.load_ptr(a, Reg::A1, 0, Reg::A5);
        let chase = a.here();
        self.load_ptr(a, Reg::A1, 0, Reg::A1); // cur = cur->next (dependent)
        a.cgetaddr_or_mv(self.mode, Reg::T1, Reg::A1); // immediate consume
        let chase_done = a.label();
        a.beqz(Reg::T1, chase_done);
        a.lw(Reg::T0, vo, Reg::A1);
        a.add(Reg::S0, Reg::S0, Reg::T0);
        a.j(chase);
        a.bind(chase_done);
        a.addi(Reg::A2, Reg::A2, -1);
        a.bnez(Reg::A2, pass);
    }

    /// Matrix kernel: C = A*B (8x8), checksum accumulated.
    fn emit_matrix_work(&self, a: &mut Asm) {
        // i in t0, j in t1, k in t2
        a.li(Reg::T0, 0);
        let i_loop = a.here();
        a.li(Reg::T1, 0);
        let j_loop = a.here();
        // row pointer a1 = A + i*32 ; col pointer a2 = B + j*4
        self.global_ptr(a, Reg::A1, MAT_A, MAT_N * MAT_N * 4);
        a.slli(Reg::A4, Reg::T0, 5);
        self.add_ptr(a, Reg::A1, Reg::A1, Reg::A4);
        self.global_ptr(a, Reg::A2, MAT_B, MAT_N * MAT_N * 4);
        a.slli(Reg::A4, Reg::T1, 2);
        self.add_ptr(a, Reg::A2, Reg::A2, Reg::A4);
        a.li(Reg::A5, 0); // acc
        a.li(Reg::T2, 0);
        let k_loop = a.here();
        a.lw(Reg::A3, 0, Reg::A1); // A[i][k]
        a.lw(Reg::A4, 0, Reg::A2); // B[k][j]
        a.mul(Reg::A3, Reg::A3, Reg::A4);
        a.add(Reg::A5, Reg::A5, Reg::A3);
        self.add_ptr_imm_aos(a, Reg::A1, Reg::A1, 4);
        self.add_ptr_imm(a, Reg::A2, Reg::A2, (MAT_N * 4) as i32);
        a.addi(Reg::T2, Reg::T2, 1);
        a.li(Reg::A3, MAT_N as i32);
        a.blt(Reg::T2, Reg::A3, k_loop);
        // C[i][j] = acc; checksum ^= acc
        self.global_ptr(a, Reg::A1, MAT_C, MAT_N * MAT_N * 4);
        a.slli(Reg::A4, Reg::T0, 5);
        self.add_ptr(a, Reg::A1, Reg::A1, Reg::A4);
        a.slli(Reg::A4, Reg::T1, 2);
        self.add_ptr(a, Reg::A1, Reg::A1, Reg::A4);
        a.sw(Reg::A5, 0, Reg::A1);
        a.xor(Reg::S0, Reg::S0, Reg::A5);
        a.addi(Reg::T1, Reg::T1, 1);
        a.li(Reg::A3, MAT_N as i32);
        a.blt(Reg::T1, Reg::A3, j_loop);
        a.addi(Reg::T0, Reg::T0, 1);
        a.li(Reg::A3, MAT_N as i32);
        a.blt(Reg::T0, Reg::A3, i_loop);
    }

    /// State-machine/CRC kernel: scans the string, updating a CRC16 and a
    /// small state machine (ALU-heavy, pointer-light — this phase dilutes
    /// capability overhead exactly as CoreMark's does).
    fn emit_crc_work(&self, a: &mut Asm) {
        self.global_ptr(a, Reg::A1, STR_BASE, STR_LEN);
        a.li(Reg::T0, STR_LEN as i32);
        a.li(Reg::A4, 0xffff); // crc
        a.li(Reg::A5, 0); // state
        let top = a.here();
        a.lbu(Reg::A3, 0, Reg::A1);
        a.xor(Reg::A4, Reg::A4, Reg::A3);
        // Two unrolled polynomial steps.
        for _ in 0..2 {
            a.andi(Reg::T1, Reg::A4, 1);
            a.srli(Reg::A4, Reg::A4, 1);
            let skip = a.label();
            a.beqz(Reg::T1, skip);
            a.li(Reg::T1, 0xa001);
            a.xor(Reg::A4, Reg::A4, Reg::T1);
            a.bind(skip);
        }
        // State machine: classify digit / alpha / other.
        a.li(Reg::T1, 0x30);
        let not_digit = a.label();
        a.blt(Reg::A3, Reg::T1, not_digit);
        a.addi(Reg::A5, Reg::A5, 1);
        a.bind(not_digit);
        self.add_ptr_imm(a, Reg::A1, Reg::A1, 1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.add(Reg::S0, Reg::S0, Reg::A4);
        a.add(Reg::S0, Reg::S0, Reg::A5);
    }
}

/// Small extension so null tests read naturally above.
trait NullTest {
    fn cgetaddr_or_mv(&mut self, mode: PtrMode, rd: Reg, rs: Reg) -> &mut Self;
}

impl NullTest for Asm {
    fn cgetaddr_or_mv(&mut self, mode: PtrMode, rd: Reg, rs: Reg) -> &mut Self {
        match mode {
            PtrMode::Integer => self.mv(rd, rs),
            PtrMode::Capability => self.cgetaddr(rd, rs),
        }
    }
}

/// Generates the full benchmark program.
pub fn generate_program(cfg: &CoreMarkConfig) -> Vec<cheriot_core::insn::Instr> {
    let g = Gen {
        mode: cfg.mode,
        quirks: cfg.quirks,
        find_passes: cfg.find_passes.max(1),
    };
    let mut a = Asm::new();
    // Setup.
    g.emit_list_setup(&mut a, cfg.list_nodes);
    g.emit_matrix_setup(&mut a);
    g.emit_string_setup(&mut a);
    a.li(Reg::S0, 0);
    a.li(Reg::S1, cfg.iterations as i32);
    // Main loop.
    let iter = a.here();
    g.emit_list_work(&mut a);
    g.emit_matrix_work(&mut a);
    g.emit_crc_work(&mut a);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, iter);
    // Return the checksum.
    a.mv(Reg::A0, Reg::S0);
    a.halt();
    a.assemble()
}

/// Code size in bytes of the generated benchmark, after binary encoding
/// (large immediates expand to `lui`+`addi` as a real backend would).
/// Capability mode emits more instructions (bounds set-up, the modelled
/// compiler bugs), which matters for `-Oz`-constrained devices (§7.2).
///
/// # Panics
///
/// Panics if the generated program fails to encode (generator bug).
pub fn code_size_bytes(cfg: &CoreMarkConfig) -> u32 {
    let words = cheriot_core::encoding::encode_program(&generate_program(cfg))
        .expect("generated programs are encodable");
    4 * words.len() as u32
}

/// Which simulator dispatch path executes the workload. All three are
/// architecturally invisible (DESIGN.md §11, §13) — they only change host
/// wall time, which is exactly what `sim_throughput` measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Per-instruction fetch/decode/execute.
    Stepwise,
    /// Predecoded block cache, returning to the dispatcher every block.
    Cached,
    /// Block cache plus chained dispatch: successor links, superblocks
    /// and the unchecked fast-stream loop.
    Chained,
}

impl DispatchMode {
    /// `(block_cache, block_chain)` machine-config pair for this mode.
    #[must_use]
    pub fn config_flags(self) -> (bool, bool) {
        match self {
            DispatchMode::Stepwise => (false, false),
            DispatchMode::Cached => (true, false),
            DispatchMode::Chained => (true, true),
        }
    }
}

/// The machine configuration the benchmark runs on.
fn machine_config(core: CoreModel, cfg: &CoreMarkConfig, dispatch: DispatchMode) -> MachineConfig {
    let (block_cache, block_chain) = dispatch.config_flags();
    MachineConfig {
        load_filter: cfg.load_filter,
        block_cache,
        block_chain,
        hw_revoker: false,
        hwm_enabled: false,
        cheri_enabled: cfg.mode == PtrMode::Capability,
        ..MachineConfig::new(core)
    }
}

/// Builds a machine on `mc` with the benchmark program loaded and its
/// data-region pointer installed, ready to run.
fn setup_machine(mc: MachineConfig, cfg: &CoreMarkConfig) -> Machine {
    let mut m = Machine::new(mc);
    let entry = m.load_program(&generate_program(cfg));
    m.set_entry(entry);
    // The data-region pointer in a0 (and gp).
    let region_len = 0x6000u32;
    match cfg.mode {
        PtrMode::Integer => {
            m.cpu.write_int(Reg::A0, DATA_BASE);
            m.cpu.write_int(Reg::GP, DATA_BASE);
        }
        PtrMode::Capability => {
            let region = Capability::root_mem_rw()
                .with_address(DATA_BASE)
                .set_bounds(u64::from(region_len))
                .expect("data region representable");
            m.cpu.write(Reg::A0, region);
            m.cpu.write(Reg::GP, region);
        }
    }
    m
}

/// Runs the benchmark kernel for a fixed simulated-cycle budget instead of
/// a fixed iteration count on the given dispatch path, returning
/// `(simulated_cycles, instructions)`.
///
/// This is the measurement primitive of the `sim_throughput` benchmark:
/// host wall time divided into `instructions` gives host-side MIPS for
/// each of the three paths. The iteration count is set high enough that
/// the cycle budget is always the limiter, so the run exercises the
/// steady-state fetch/execute hot path. The simulated result must not
/// depend on `dispatch` — every path is architecturally invisible and
/// only changes host wall time.
///
/// # Panics
///
/// Panics if the program faults or halts before the budget expires (a
/// generator bug, or a budget large enough to drain the iteration count).
pub fn run_coremark_for_cycles_dispatch(
    core: CoreModel,
    cfg: &CoreMarkConfig,
    budget: u64,
    dispatch: DispatchMode,
) -> (u64, u64) {
    let cfg = CoreMarkConfig {
        // ~26k cycles per iteration: 50M iterations outlasts any budget
        // below ~10^12 cycles while staying in `li`'s i32 range.
        iterations: 50_000_000,
        ..*cfg
    };
    let mut m = setup_machine(machine_config(core, &cfg, dispatch), &cfg);
    let reason = m.run(budget);
    assert!(
        matches!(reason, ExitReason::CycleLimit),
        "coremark budget run ended early: {reason:?} at pc {:#x}",
        m.cpu.pc()
    );
    (m.cycles, m.stats.instructions)
}

/// Runs the benchmark on the given core model.
///
/// # Panics
///
/// Panics if the generated program faults (a bug in the generator).
pub fn run_coremark(core: CoreModel, cfg: &CoreMarkConfig) -> CoreMarkResult {
    let mut m = setup_machine(machine_config(core, cfg, DispatchMode::Chained), cfg);
    let reason = m.run(2_000_000_000);
    let ExitReason::Halted(checksum) = reason else {
        panic!(
            "coremark program did not halt cleanly: {reason:?} at pc {:#x}",
            m.cpu.pc()
        );
    };
    CoreMarkResult {
        cycles: m.cycles,
        instructions: m.stats.instructions,
        checksum,
        score_per_mhz: SCORE_SCALE * f64::from(cfg.iterations) / m.cycles as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: PtrMode, filter: bool) -> CoreMarkResult {
        let cfg = CoreMarkConfig {
            mode,
            quirks: true,
            iterations: 5,
            list_nodes: 24,
            find_passes: 2,
            load_filter: filter,
        };
        run_coremark(CoreModel::ibex(), &cfg)
    }

    #[test]
    fn both_modes_compute_identical_checksums() {
        let int = quick(PtrMode::Integer, false);
        let cap = quick(PtrMode::Capability, false);
        let capf = quick(PtrMode::Capability, true);
        assert_eq!(int.checksum, cap.checksum);
        assert_eq!(cap.checksum, capf.checksum);
        assert_ne!(int.checksum, 0);
    }

    #[test]
    fn capability_mode_costs_more_on_ibex() {
        let int = quick(PtrMode::Integer, false);
        let cap = quick(PtrMode::Capability, false);
        let capf = quick(PtrMode::Capability, true);
        assert!(cap.cycles > int.cycles);
        assert!(capf.cycles > cap.cycles, "filter must add Ibex cycles");
    }

    #[test]
    fn block_cache_is_invisible_to_coremark() {
        // Same simulated cycle and retirement counts through the chained,
        // cached and stepwise execution paths, on both core models.
        let cfg = CoreMarkConfig {
            iterations: 5,
            list_nodes: 24,
            find_passes: 2,
            ..CoreMarkConfig::capabilities_with_filter()
        };
        for core in [CoreModel::ibex(), CoreModel::flute()] {
            let off = run_coremark_for_cycles_dispatch(core, &cfg, 100_000, DispatchMode::Stepwise);
            for mode in [DispatchMode::Cached, DispatchMode::Chained] {
                let on = run_coremark_for_cycles_dispatch(core, &cfg, 100_000, mode);
                assert_eq!(on, off, "{mode:?} must not change simulated time");
            }
        }
    }

    #[test]
    fn idle_hardware_revoker_is_invisible_to_coremark() {
        // A hardware revoker that is never kicked must cost nothing: every
        // tier runs the kernel to the same cycle, retirement, stall,
        // register and checksum record as a machine without one.
        let cfg = CoreMarkConfig {
            iterations: 3,
            list_nodes: 24,
            find_passes: 2,
            ..CoreMarkConfig::capabilities_with_filter()
        };
        for core in [CoreModel::ibex(), CoreModel::flute()] {
            let run = |mode, hw_revoker| {
                let mc = MachineConfig {
                    hw_revoker,
                    ..machine_config(core, &cfg, mode)
                };
                let mut m = setup_machine(mc, &cfg);
                let exit = m.run(2_000_000_000);
                assert!(matches!(exit, ExitReason::Halted(_)), "{exit:?}");
                assert_eq!(m.revoker.epoch(), 0, "no sweep ever starts");
                let regs: Vec<_> = (0..16).map(|i| m.cpu.read(Reg(i))).collect();
                (
                    exit,
                    m.cycles,
                    m.stats.instructions,
                    m.stats.stall_cycles,
                    regs,
                )
            };
            let reference = run(DispatchMode::Stepwise, false);
            for mode in [
                DispatchMode::Stepwise,
                DispatchMode::Cached,
                DispatchMode::Chained,
            ] {
                assert_eq!(run(mode, false), reference, "{:?} {mode:?}", core.kind);
                assert_eq!(
                    run(mode, true),
                    reference,
                    "{:?} {mode:?} + idle revoker",
                    core.kind
                );
            }
        }
    }

    #[test]
    fn flute_hides_the_load_filter() {
        let cfg_nf = CoreMarkConfig {
            load_filter: false,
            iterations: 5,
            list_nodes: 24,
            ..CoreMarkConfig::capabilities()
        };
        let cfg_f = CoreMarkConfig {
            load_filter: true,
            ..cfg_nf
        };
        let a = run_coremark(CoreModel::flute(), &cfg_nf);
        let b = run_coremark(CoreModel::flute(), &cfg_f);
        assert_eq!(a.cycles, b.cycles, "Flute's filter is free (Fig. 4)");
    }
}

#[cfg(test)]
mod binary_tests {
    use super::*;
    use cheriot_core::insn::Reg;

    #[test]
    fn machine_code_run_matches_decoded_run() {
        // Encode the whole benchmark to binary, decode it back, run it,
        // and demand the identical checksum and a deterministic cycle
        // count: the codec is semantics-preserving end to end.
        let cfg = CoreMarkConfig {
            iterations: 2,
            list_nodes: 16,
            find_passes: 2,
            ..CoreMarkConfig::capabilities_with_filter()
        };
        let direct = run_coremark(CoreModel::ibex(), &cfg);

        let program = generate_program(&cfg);
        let words = cheriot_core::encoding::encode_program(&program).expect("encodes");
        let mut mc = MachineConfig::new(CoreModel::ibex());
        mc.load_filter = cfg.load_filter;
        mc.hw_revoker = false;
        mc.hwm_enabled = false;
        let mut m = Machine::new(mc);
        let entry = m.load_binary(&words).expect("decodes");
        m.set_entry(entry);
        let region = Capability::root_mem_rw()
            .with_address(DATA_BASE)
            .set_bounds(0x6000)
            .unwrap();
        m.cpu.write(Reg::A0, region);
        m.cpu.write(Reg::GP, region);
        let r = m.run(2_000_000_000);
        assert_eq!(r, ExitReason::Halted(direct.checksum));
    }

    #[test]
    fn capability_code_is_larger() {
        let int = code_size_bytes(&CoreMarkConfig::baseline());
        let cap = code_size_bytes(&CoreMarkConfig::capabilities());
        assert!(cap > int, "cap {cap} vs int {int}");
        // The fixed compiler shrinks the gap.
        let fixed = code_size_bytes(&CoreMarkConfig {
            quirks: false,
            ..CoreMarkConfig::capabilities()
        });
        assert!(fixed < cap);
    }
}
