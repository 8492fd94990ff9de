//! # cheriot-farm — fleet-scale device farm
//!
//! The paper's end-to-end scenario (§7.2) is one IoT device running a
//! compartmentalized network stack. This crate runs *thousands* of
//! them concurrently: every instance is forked in O(dirty pages) from
//! a warm post-boot [`Snapshot`](cheriot_core::Snapshot) (inheriting
//! the Arc-shared predecoded block table), scheduled in round-robin
//! cycle quanta across the work-stealing pool
//! (`cheriot_core::sched::work_steal_with`), and wired to its siblings
//! through a host-side network fabric that routes NIC frames between
//! instances and brokers a tiny MQTT-like pub/sub protocol
//! (CONNECT / SUBSCRIBE / PUBLISH / PUBACK).
//!
//! The whole farm is deterministic: guest state changes only inside
//! `run` slices, frames are routed serially in item order, and the
//! traffic generator is seeded — the same `(image, devices, quantum,
//! rounds, seed)` tuple reproduces the same fleet byte for byte, on
//! any worker count.
//!
//! Entry points: [`run_farm`] drives a whole fleet and returns a
//! [`FarmReport`]; [`boot_node_image`] builds the warm image every
//! instance forks from; [`NetFabric`] is the routing hub;
//! [`farm_node_program`] is the guest firmware.

#![warn(missing_docs)]

pub mod fabric;
pub mod farm;
pub mod guest;
pub mod protocol;
pub mod registry;

pub use fabric::{FabricStats, NetFabric};
pub use farm::{run_farm, FarmConfig, FarmReport, NOMINAL_HZ};
pub use guest::farm_node_program;
pub use protocol::{Frame, FRAME_LEN, HOST_SRC};
pub use registry::boot_node_image;
