//! The warm node image: one post-boot [`Snapshot`], forked into
//! instances in O(dirty pages).
//!
//! Booting the node firmware costs a few hundred instructions plus the
//! ring setup; doing that once and forking thousands of instances off
//! the parked state is what makes a 1000-device farm start in
//! milliseconds. Forks inherit the image's Arc-shared predecoded block
//! table, so instance number 1000 begins execution with the same warm
//! block cache as instance 0 — no per-instance re-decode.

use crate::guest;
use cheriot_core::{CoreModel, ExitReason, Machine, MachineConfig, Snapshot};
use cheriot_soc::{net_set_peer, NetLoopback};

/// Cycle budget for the one-time image boot (ring setup is a few
/// hundred instructions; the rest is spent parked on the mailbox).
const BOOT_BUDGET: u64 = 50_000;

/// Boots the MQTT-node firmware to its parked (id-wait) state and
/// captures the warm snapshot: NIC attached in peer mode, rings
/// programmed, `MB_STATE` raised. `dispatch` selects the engine mode
/// `(block_cache, block_chain)` every fork inherits; `sram_size`
/// shrinks the per-node bank (the firmware uses < 4 KiB, and a small
/// bank is what lets a 1000-instance fleet fit in host memory);
/// `cow` selects the copy-on-write page store (default) or the
/// deep-copy escape hatch — with CoW the whole fleet structurally
/// shares the image's boot pages and each fork pays O(pages) handle
/// adoptions, so fleet density is a function of *dirtied* pages rather
/// than image size.
pub fn boot_node_image(
    core: CoreModel,
    topics: u32,
    dispatch: (bool, bool),
    sram_size: u32,
    cow: bool,
) -> Result<Snapshot, String> {
    let mut cfg = MachineConfig::new(core);
    cfg.block_cache = dispatch.0;
    cfg.block_chain = dispatch.1;
    cfg.cow = cow;
    let sram = sram_size.max(16 * 1024).next_multiple_of(4096);
    cfg.sram_size = sram;
    cfg.heap_offset = sram / 2;
    cfg.heap_size = sram / 2;
    let mut m = Machine::new(cfg);
    m.bus
        .attach(
            guest::NET_BASE,
            Some(guest::NET_IRQ),
            Box::new(NetLoopback::new()),
        )
        .map_err(|e| format!("attaching farm NIC: {e}"))?;
    net_set_peer(&mut m, true);
    let entry = m.load_program(&guest::farm_node_program(topics));
    m.set_entry(entry);
    match m.run(BOOT_BUDGET) {
        // The node never halts: a healthy boot ends parked on the
        // mailbox with the cycle budget spent.
        ExitReason::CycleLimit => {}
        other => return Err(format!("node image boot exited early: {other:?}")),
    }
    let mut mb = [0u8; guest::MB_LEN];
    m.dma_read(guest::MB_BASE, &mut mb)
        .map_err(|e| format!("reading boot mailbox: {e:?}"))?;
    let mb = guest::Mailbox::parse(&mb);
    if mb.state != 1 {
        return Err(format!(
            "node image did not reach the parked state within {BOOT_BUDGET} cycles: {mb:?}"
        ));
    }
    Ok(m.snapshot())
}
