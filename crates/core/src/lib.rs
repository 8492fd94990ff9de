//! # cheriot-core — the CHERIoT ISA simulator
//!
//! A functional, cycle-modelled simulator for the CHERIoT platform of
//! *CHERIoT: Complete Memory Safety for Embedded Devices* (MICRO 2023):
//!
//! * **[`machine::Machine`]** — the SoC: a CHERIoT hart (RV32E + M +
//!   CHERIoT), tagged SRAM, a machine timer, a debug console, the
//!   memory-mapped revocation bitmap, and the background revoker device.
//! * **[`revocation`]** — the temporal-safety hardware of paper §3.3: the
//!   per-granule revocation bitmap, the pipeline load filter, and the
//!   two-stage background revoker (with main-pipeline store snooping).
//! * **[`pipeline::CoreModel`]** — cycle-cost parameters for the two
//!   evaluated cores (area-optimised Ibex, performance-oriented Flute).
//! * **[`meter::Meter`]** — the charging interface through which
//!   natively-modelled TCB code (the RTOS and allocator) performs memory
//!   accesses at the same per-access costs as guest code.
//! * **[`trace`]** (re-export of `cheriot-trace`) — the structured
//!   tracing/metrics subsystem; install a [`trace::Tracer`] with
//!   [`machine::Machine::set_tracer`] to keep the last retired
//!   instructions, capture timelines, and attribute cycles per
//!   compartment.
//!
//! ## Example
//!
//! ```
//! use cheriot_core::insn::{Instr, Reg, AluOp};
//! use cheriot_core::machine::{Machine, MachineConfig, ExitReason};
//! use cheriot_core::pipeline::CoreModel;
//!
//! let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
//! let entry = m.load_program(&[
//!     Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::ZERO, imm: 42 },
//!     Instr::Halt,
//! ]);
//! m.set_entry(entry);
//! assert_eq!(m.run(1_000), ExitReason::Halted(42));
//! ```

#![warn(missing_docs)]

pub mod blockcache;
pub mod bus;
pub mod cpu;
pub mod encoding;
pub mod error;
pub mod insn;
pub mod machine;
pub mod mem;
pub mod meter;
pub mod pipeline;
pub mod revocation;
pub mod sched;
pub mod trap;

/// The structured tracing/metrics subsystem (the `cheriot-trace` crate),
/// re-exported so downstream crates can name event and tracer types
/// without a direct dependency.
pub use cheriot_trace as trace;

pub use blockcache::BlockCacheStats;
pub use bus::{BusError, DeviceBus, IrqController, MmioDevice, Uart, INTC_DEV_ID};
pub use encoding::{decode, decode_program, encode, encode_program, DecodeError, EncodeError};
pub use error::{state_dump, SimError};
pub use machine::{layout, ExitReason, Machine, MachineConfig, Snapshot, SnapshotStats, Stats};
pub use mem::CowStats;
pub use meter::Meter;
pub use pipeline::{CoreKind, CoreModel};
pub use trap::TrapCause;
