//! # cheriot-soc — the declarative SoC platform
//!
//! The paper's target is a whole SoC, not a bare core: the IoT
//! evaluation (§7.2) runs network/TLS/MQTT compartments against real
//! peripherals. This crate turns the simulator's machine into that
//! platform: a manifest (TOML or JSON, [`MachineSpec`]) declares the
//! core, SRAM size, and a set of MMIO devices at chosen base addresses,
//! and [`MachineSpec::build`] produces a `Machine` whose device bus
//! (`cheriot_core::bus`) dispatches to exactly those peripherals.
//!
//! Bundled devices:
//!
//! * **UART** (`cheriot_core::bus::Uart`) — replaces the magic console
//!   vector; TX bytes still land in `machine.console`.
//! * **[`LiteTimer`]** — a LiteX-style 32-bit countdown timer, modelled
//!   lazily from the cycle counter.
//! * **[`DmaEngine`]** — memory-to-memory copies through the machine's
//!   tag-clearing, CoW-breaking, block-invalidating DMA path.
//! * **[`NetLoopback`]** — a network interface with TX/RX descriptor
//!   rings in SRAM; transmitted frames are delivered back into the RX
//!   ring.
//!
//! Manifest files ship under `crates/soc/manifests/`; run one with
//! `cheriot-sim run --machine crates/soc/manifests/iot.toml prog.asm`.

#![warn(missing_docs)]

pub mod devices;
pub mod manifest;
pub mod net_host;

pub use devices::{
    DmaEngine, LiteTimer, NetLoopback, DMA_MAX_LEN, NET_DESC_SIZE, NET_HOST_QUEUE, NET_MAX_FRAME,
    NET_MAX_RING,
};
pub use manifest::{DeviceSpec, MachineSpec, ManifestError};
pub use net_host::{
    net_flush_rx, net_host_rx_pending, net_push_rx, net_rx_dropped, net_set_peer, net_take_tx,
};
