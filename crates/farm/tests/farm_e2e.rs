//! End-to-end farm tests: small fleets under live traffic.
//!
//! These exercise the whole stack — warm snapshot boot, O(dirty) forks,
//! the quantum scheduler, the NIC peer hook, and the fabric broker —
//! and pin down the determinism contract: same config ⇒ same report,
//! independent of worker count.

use cheriot_core::CoreModel;
use cheriot_farm::{boot_node_image, run_farm, FarmConfig};
use cheriot_trace::json::Json;

fn small_cfg() -> FarmConfig {
    FarmConfig {
        devices: 8,
        workers: 1,
        rounds: 40,
        seed: 7,
        ..FarmConfig::default()
    }
}

/// Collapse a report into the fields that must be bit-stable.
fn fingerprint(r: &cheriot_farm::FarmReport) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.total_cycles,
        r.fabric.published_guest,
        r.fabric.published_host,
        r.fabric.deliveries,
        r.fabric.acks,
        r.fabric.cross_instance_frames,
        r.guest_heartbeats,
        r.messages_lost,
    )
}

#[test]
fn small_fleet_delivers_everything() {
    let report = run_farm(&small_cfg()).expect("farm run");
    assert_eq!(report.dead_devices, 0, "a guest faulted");
    assert_eq!(report.net_rx_dropped, 0, "frames dropped");
    assert_eq!(report.messages_lost, 0, "unacked messages after drain");
    assert!(report.fabric.connected >= 8, "all devices must connect");
    assert!(report.fabric.published_guest > 0, "guests must publish");
    assert!(report.fabric.published_host > 0, "host must publish");
    assert!(
        report.fabric.cross_instance_frames > 0,
        "traffic must cross instances"
    );
    assert!(report.passed(), "report:\n{}", report.to_text());
    // Every delivered PUBLISH is eventually acknowledged.
    assert_eq!(report.fabric.deliveries, report.fabric.acks);

    // The JSON report reads back field for field.
    let doc = Json::parse(&report.to_json()).expect("farm JSON parses");
    let uint = |key: &str| doc.get(key).and_then(Json::as_u64);
    assert_eq!(uint("devices"), Some(report.devices as u64));
    assert_eq!(uint("messages_lost"), Some(report.messages_lost));
    assert_eq!(uint("cow_breaks"), Some(report.cow_breaks));
    assert_eq!(uint("dead_devices"), Some(report.dead_devices as u64));
    assert_eq!(doc.get("passed"), Some(&Json::Bool(report.passed())));
}

#[test]
fn same_seed_same_fleet() {
    let a = run_farm(&small_cfg()).expect("farm run a");
    let b = run_farm(&small_cfg()).expect("farm run b");
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn worker_count_does_not_change_the_run() {
    let serial = run_farm(&small_cfg()).expect("serial run");
    let mut cfg = small_cfg();
    cfg.workers = 4;
    let parallel = run_farm(&cfg).expect("parallel run");
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
}

#[test]
fn dispatch_modes_agree_on_the_fleet() {
    let chained = run_farm(&small_cfg()).expect("chained");
    for dispatch in [(false, false), (true, false)] {
        let mut cfg = small_cfg();
        cfg.dispatch = dispatch;
        let other = run_farm(&cfg).expect("other mode");
        assert_eq!(
            fingerprint(&chained),
            fingerprint(&other),
            "dispatch mode {dispatch:?} diverged"
        );
    }
}

#[test]
fn fork_accounting_scales_with_fleet_size() {
    let mut cfg = small_cfg();
    cfg.rounds = 10;
    let small = run_farm(&cfg).expect("8-device run");
    cfg.devices = 16;
    let large = run_farm(&cfg).expect("16-device run");
    assert!(small.snapshot_bytes > 0);
    assert_eq!(small.snapshot_bytes, large.snapshot_bytes);
    // Fork cost is per-instance copying: doubling the fleet doubles it
    // exactly (every cold fork copies the same image).
    assert_eq!(small.snapshot_bytes_copied * 2, large.snapshot_bytes_copied);
    // A cold fork pays at most the resident image (SRAM + console +
    // code); predecoded blocks are shared, never copied.
    assert!(
        small.snapshot_bytes_copied / 8 <= small.snapshot_bytes,
        "per-fork copy {} exceeds resident size {}",
        small.snapshot_bytes_copied / 8,
        small.snapshot_bytes
    );
}

#[test]
fn the_fleet_builds_each_block_once_on_any_worker_count() {
    // Every device shares the image's block store, so the blocks built
    // after the fork are the distinct blocks the fleet ran: the same
    // count on any worker count, and fewer than the devices once the
    // fleet outnumbers the firmware's blocks.
    let mut cfg = small_cfg();
    cfg.devices = 16;
    cfg.rounds = 20;
    let serial = run_farm(&cfg).expect("1-worker run");
    cfg.workers = 2;
    let parallel = run_farm(&cfg).expect("2-worker run");
    assert_eq!(serial.blocks_built, parallel.blocks_built);
    assert_eq!(serial.blocks_shared, parallel.blocks_shared);
    assert!(serial.blocks_built > 0);
    assert!(serial.blocks_shared > serial.blocks_built);
    cfg.devices = 32;
    let double = run_farm(&cfg).expect("32-device run");
    assert!(
        double.blocks_built < cfg.devices as u64,
        "{} blocks built for {} devices",
        double.blocks_built,
        cfg.devices
    );
}

#[test]
fn a_device_keeps_dispatch_state_only_for_the_blocks_it_holds() {
    let report = run_farm(&small_cfg()).expect("farm run");
    assert!(report.block_sidecar_bytes_max > 0);
    assert!(
        report.block_sidecar_bytes_max <= 2048,
        "a device's block sidecar is {} bytes",
        report.block_sidecar_bytes_max
    );
    let doc = Json::parse(&report.to_json()).expect("farm JSON parses");
    let uint = |key: &str| doc.get(key).and_then(Json::as_u64);
    assert_eq!(uint("blocks_built"), Some(report.blocks_built));
    assert_eq!(uint("blocks_shared"), Some(report.blocks_shared));
    assert_eq!(
        uint("block_sidecar_bytes_max"),
        Some(report.block_sidecar_bytes_max)
    );
}

#[test]
fn cow_mode_is_invisible_and_cheap() {
    let cow = run_farm(&small_cfg()).expect("cow run");
    let mut cfg = small_cfg();
    cfg.cow = false;
    let plain = run_farm(&cfg).expect("no-cow run");
    // Same fleet, byte for byte: CoW is purely a host-side cost model.
    assert_eq!(fingerprint(&cow), fingerprint(&plain));
    // But the fork cost differs by orders of magnitude: handle adoptions
    // versus full image copies.
    assert!(
        cow.fork_bytes_per_device() * 10.0 <= plain.fork_bytes_per_device(),
        "cow fork cost {} not ≥10x below deep-copy cost {}",
        cow.fork_bytes_per_device(),
        plain.fork_bytes_per_device()
    );
    assert_eq!(plain.cow_breaks, 0, "unique pages never CoW-break");
    assert_eq!(plain.cow_shared_pages, 0);
    // The CoW fleet ends the run still sharing the pages it never wrote.
    assert!(cow.cow_shared_pages > 0, "fleet should retain shared pages");
    assert!(cow.fleet_unique_bytes < plain.fleet_unique_bytes);
}

#[test]
fn single_device_farm_runs_quietly() {
    let mut cfg = small_cfg();
    cfg.devices = 1;
    cfg.rounds = 10;
    let report = run_farm(&cfg).expect("1-device run");
    assert_eq!(report.dead_devices, 0);
    assert_eq!(report.messages_lost, 0);
    assert!(report.passed(), "report:\n{}", report.to_text());
}

#[test]
fn boot_image_is_warm_and_reusable() {
    let snap = boot_node_image(CoreModel::ibex(), 2, (true, true), 64 * 1024, true).expect("boot");
    assert!(snap.cycles() > 0, "image must be post-boot");
    assert!(snap.bytes() > 0);
    // Two forks from the same image are independent machines.
    let mut a = snap.to_machine();
    let mut b = snap.to_machine();
    a.dma_write(cheriot_farm::guest::MB_ID, &1u32.to_le_bytes())
        .unwrap();
    b.dma_write(cheriot_farm::guest::MB_ID, &2u32.to_le_bytes())
        .unwrap();
    let mut ida = [0u8; 4];
    let mut idb = [0u8; 4];
    a.dma_read(cheriot_farm::guest::MB_ID, &mut ida).unwrap();
    b.dma_read(cheriot_farm::guest::MB_ID, &mut idb).unwrap();
    assert_eq!(u32::from_le_bytes(ida), 1);
    assert_eq!(u32::from_le_bytes(idb), 2);
}
