//! Cycle-cost models for the two CHERIoT cores (paper §4).
//!
//! * **CHERIoT-Ibex**: an area-optimised 2/3-stage core with a 33-bit data
//!   bus — a capability load or store takes *two* bus beats, and the tag bit
//!   is stored in both halves (ANDed on load). The load filter's
//!   revocation-bit lookup cannot hide in the short pipeline, so filtered
//!   capability loads pay an extra load-to-use cycle.
//! * **CHERIoT-Flute**: a performance-oriented 5-stage core with a 65-bit
//!   bus — capabilities move in one beat and the load filter's lookup fits
//!   in the MEM→WB stage boundary for free (paper Figure 4).
//!
//! The numbers here are microarchitectural *parameters*, exposed as public
//! fields so benches can ablate them; they are calibrated so the relative
//! overheads of Table 3 emerge from the mechanism differences, not fitted
//! per-benchmark.

use crate::insn::{Instr, MulOp};

/// Which core a model describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Area-optimised Ibex-class core.
    Ibex,
    /// Performance-oriented Flute-class core.
    Flute,
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::Ibex => write!(f, "Ibex"),
            CoreKind::Flute => write!(f, "Flute"),
        }
    }
}

impl std::str::FromStr for CoreKind {
    type Err = String;

    /// Parses the lower-case name manifests and `--core` use.
    fn from_str(s: &str) -> Result<CoreKind, String> {
        match s {
            "ibex" => Ok(CoreKind::Ibex),
            "flute" => Ok(CoreKind::Flute),
            other => Err(format!("unknown core `{other}` (expected ibex or flute)")),
        }
    }
}

/// Cycle-cost parameters for a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreModel {
    /// Which core this parameterizes.
    pub kind: CoreKind,
    /// Data-bus width in bytes (excluding the tag bit): 4 on Ibex, 8 on
    /// Flute.
    pub bus_bytes: u32,
    /// Cycles for an ALU / branch-not-taken instruction.
    pub alu_cycles: u64,
    /// Extra cycles added to a load beyond its bus beats.
    pub load_base_extra: u64,
    /// Extra cycles added to a store beyond its bus beats.
    pub store_base_extra: u64,
    /// Pipeline refill penalty for a taken branch.
    pub branch_taken_penalty: u64,
    /// Pipeline refill penalty for an unconditional jump.
    pub jump_penalty: u64,
    /// Load-to-use stall when the very next instruction consumes a loaded
    /// scalar.
    pub load_to_use: u64,
    /// Additional load-to-use stall for *capability* loads when the
    /// temporal-safety load filter is enabled (the revocation-bit lookup).
    pub filter_load_to_use: u64,
    /// Cycles for a multiply.
    pub mul_cycles: u64,
    /// Cycles for a divide/remainder.
    pub div_cycles: u64,
}

impl CoreModel {
    /// The model of `kind`.
    pub const fn of(kind: CoreKind) -> CoreModel {
        match kind {
            CoreKind::Ibex => CoreModel::ibex(),
            CoreKind::Flute => CoreModel::flute(),
        }
    }

    /// The CHERIoT-Ibex model (3-stage, 33-bit bus).
    pub const fn ibex() -> CoreModel {
        CoreModel {
            kind: CoreKind::Ibex,
            bus_bytes: 4,
            alu_cycles: 1,
            load_base_extra: 1,
            store_base_extra: 1,
            branch_taken_penalty: 1,
            jump_penalty: 1,
            load_to_use: 0,
            filter_load_to_use: 1,
            mul_cycles: 2,
            div_cycles: 37,
        }
    }

    /// The CHERIoT-Flute model (5-stage, 65-bit bus).
    pub const fn flute() -> CoreModel {
        CoreModel {
            kind: CoreKind::Flute,
            bus_bytes: 8,
            alu_cycles: 1,
            load_base_extra: 0,
            store_base_extra: 0,
            branch_taken_penalty: 2,
            jump_penalty: 1,
            load_to_use: 1,
            filter_load_to_use: 0,
            mul_cycles: 2,
            div_cycles: 33,
        }
    }

    /// Bus beats for an access of `bytes` (a 64-bit capability is 2 beats on
    /// Ibex, 1 on Flute).
    pub fn beats(&self, bytes: u32) -> u64 {
        u64::from(bytes.div_ceil(self.bus_bytes).max(1))
    }

    /// Bus beats for a capability access.
    pub fn cap_beats(&self) -> u64 {
        self.beats(8)
    }

    /// Base cycle cost of an instruction, excluding dynamic penalties
    /// (taken branches, load-to-use stalls) but including bus beats.
    pub fn instr_cycles(&self, i: &Instr) -> u64 {
        match *i {
            Instr::Load { width, .. } => self.load_base_extra + self.beats(width.bytes()),
            Instr::Store { width, .. } => self.store_base_extra + self.beats(width.bytes()),
            Instr::Clc { .. } => self.load_base_extra + self.cap_beats(),
            Instr::Csc { .. } => self.store_base_extra + self.cap_beats(),
            Instr::MulDiv { op, .. } => match op {
                MulOp::Mul | MulOp::Mulh | MulOp::Mulhu => self.mul_cycles,
                _ => self.div_cycles,
            },
            Instr::Wfi => 1,
            _ => self.alu_cycles,
        }
    }

    /// Memory-unit beats an instruction consumes (cycles unavailable to the
    /// background revoker).
    pub fn mem_beats(&self, i: &Instr) -> u64 {
        match *i {
            Instr::Load { width, .. } | Instr::Store { width, .. } => self.beats(width.bytes()),
            Instr::Clc { .. } | Instr::Csc { .. } => self.cap_beats(),
            _ => 0,
        }
    }

    /// Load-to-use penalty for a load of the given kind when its result is
    /// consumed by the immediately following instruction.
    pub fn load_use_penalty(&self, is_cap: bool, load_filter: bool) -> u64 {
        self.load_to_use
            + if is_cap && load_filter {
                self.filter_load_to_use
            } else {
                0
            }
    }

    /// Cycles to zero `len` bytes with a store loop (the compartment
    /// switcher's stack clearing): one max-width store per `bus_bytes`
    /// plus a small loop overhead, amortised 2 instructions per iteration.
    pub fn zeroing_cycles(&self, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let iters = u64::from(len.div_ceil(self.bus_bytes));
        iters * (self.store_base_extra + 1) + iters / 2 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{MemWidth, Reg};

    #[test]
    fn cap_access_is_two_beats_on_ibex_one_on_flute() {
        assert_eq!(CoreModel::ibex().cap_beats(), 2);
        assert_eq!(CoreModel::flute().cap_beats(), 1);
    }

    #[test]
    fn clc_costs_more_on_ibex() {
        let clc = Instr::Clc {
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
        };
        let lw = Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
        };
        let ibex = CoreModel::ibex();
        let flute = CoreModel::flute();
        assert_eq!(ibex.instr_cycles(&clc) - ibex.instr_cycles(&lw), 1);
        assert_eq!(flute.instr_cycles(&clc), flute.instr_cycles(&lw));
    }

    #[test]
    fn filter_penalty_only_on_ibex_cap_loads() {
        let ibex = CoreModel::ibex();
        let flute = CoreModel::flute();
        assert_eq!(ibex.load_use_penalty(true, true), 1);
        assert_eq!(ibex.load_use_penalty(true, false), 0);
        assert_eq!(ibex.load_use_penalty(false, true), 0);
        assert_eq!(flute.load_use_penalty(true, true), 1);
        assert_eq!(flute.load_use_penalty(true, false), 1);
    }

    #[test]
    fn zeroing_scales_with_bus_width() {
        let ibex = CoreModel::ibex();
        let flute = CoreModel::flute();
        // Flute zeroes twice the bytes per beat.
        assert!(flute.zeroing_cycles(1024) < ibex.zeroing_cycles(1024));
        assert_eq!(ibex.zeroing_cycles(0), 0);
    }
}
