//! The farm driver: fork N instances off one warm snapshot, interleave
//! them under a round-robin quantum scheduler on the work-stealing
//! pool, and press them with fabric traffic until steady state.
//!
//! ## Scheduling model
//!
//! Time advances in *rounds*. Each round has two phases:
//!
//! 1. **Parallel quantum phase** — `work_steal_with` hands every
//!    instance to a worker, which (a) moves the frames the fabric
//!    queued for it into the NIC's host RX queue and flushes them into
//!    the guest RX ring (backpressure: what doesn't fit stays queued),
//!    (b) runs the guest for one cycle quantum, and (c) collects the
//!    frames it transmitted plus a mailbox read. Instances interact
//!    only through the fabric, never directly, so workers share
//!    nothing and the per-instance outcome is independent of worker
//!    count and interleaving.
//! 2. **Serial routing phase** — transmitted frames are routed through
//!    [`NetFabric`] in item order, host traffic is injected, and the
//!    resulting deliveries land in per-instance inboxes for the next
//!    round.
//!
//! Determinism: guest state only changes inside `run` slices and the
//! serial phase, the fabric's generator is seeded, and routing order is
//! item order — so a farm run is a pure function of
//! `(image, devices, quantum, rounds, seed)`. The same fleet runs
//! byte-identically on 1 worker or 16.
//!
//! After the traffic rounds the host raises every node's quiesce flag
//! and keeps scheduling *settle* rounds (no new traffic) until every
//! in-flight message is acknowledged — zero message loss is checked at
//! steady state, not mid-burst.

use crate::fabric::{FabricStats, NetFabric};
use crate::guest::{self, Mailbox};
use crate::registry::boot_node_image;
use cheriot_core::sched::work_steal_with;
use cheriot_core::{CoreModel, ExitReason, Machine};
use cheriot_soc::{net_flush_rx, net_push_rx, net_rx_dropped, net_take_tx};
use cheriot_trace::json::Json;
use cheriot_trace::metrics::MetricsRegistry;
use std::sync::Mutex;

/// Nominal guest clock used to convert simulated cycles into
/// device-seconds (the paper's Ibex targets run at this order).
pub const NOMINAL_HZ: f64 = 100.0e6;

/// RX flushes interleaved into each quantum (see the scheduling loop).
const RX_FLUSHES_PER_QUANTUM: u64 = 4;

/// Pseudo-compartment ids for fleet-wide cycle attribution (the guest
/// is bare-metal; quanta are classified by observed activity).
pub mod comp {
    /// Quanta that moved frames (NIC + protocol work).
    pub const NET: u32 = 0;
    /// Quanta that made service-loop progress without frame traffic.
    pub const APP: u32 = 1;
    /// Quanta parked waiting for an id, or fully idle.
    pub const IDLE: u32 = 2;
}

/// Farm run parameters.
#[derive(Clone, Copy, Debug)]
pub struct FarmConfig {
    /// Concurrent device instances to fork.
    pub devices: usize,
    /// Worker threads for the quantum scheduler.
    pub workers: usize,
    /// Cycle budget per instance per round.
    pub quantum: u64,
    /// Traffic rounds before the drain begins.
    pub rounds: u32,
    /// Maximum settle rounds while draining (loss is declared if
    /// messages are still in flight after these).
    pub settle_rounds: u32,
    /// Seed for the host traffic generator.
    pub seed: u64,
    /// Pub/sub topic partitions; 0 = auto (`devices / 4`, so each topic
    /// keeps ~4 subscribers and per-device RX load stays inside the
    /// ring's drain rate regardless of fleet size).
    pub topics: u32,
    /// Host PUBLISHes injected per traffic round.
    pub host_rate: u32,
    /// Guest core model.
    pub core: CoreModel,
    /// Dispatch mode `(block_cache, block_chain)` for the fleet.
    pub dispatch: (bool, bool),
    /// Per-node SRAM size (the node firmware uses < 4 KiB; small banks
    /// keep a 1000-instance fleet in a few hundred MB of host memory).
    pub sram_size: u32,
    /// Copy-on-write page store for the fleet (default). `false` is the
    /// `--no-cow` escape hatch: every fork deep-copies the image —
    /// byte-identical behaviour, pre-CoW fork cost and memory footprint.
    pub cow: bool,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            devices: 64,
            workers: 1,
            quantum: 20_000,
            rounds: 100,
            settle_rounds: 64,
            seed: 1,
            topics: 0,
            host_rate: 4,
            core: CoreModel::ibex(),
            dispatch: (true, true),
            sram_size: 64 * 1024,
            cow: true,
        }
    }
}

/// One instance slot: the forked machine plus its fabric-facing state.
struct Instance {
    m: Machine,
    /// Frames the fabric routed here, awaiting the next quantum.
    inbox: Vec<Vec<u8>>,
    /// Mailbox as of the last quantum boundary.
    mb: Mailbox,
    /// Set when the guest stopped executing (fault/halt) — a farm bug.
    dead: Option<ExitReason>,
}

/// What one worker observed running one instance for one quantum.
struct QuantumOut {
    tx: Vec<Vec<u8>>,
    cycles: u64,
    mb: Mailbox,
    exit: Option<ExitReason>,
}

/// Aggregate results of a farm run. All totals are fleet-wide.
pub struct FarmReport {
    /// Instances forked.
    pub devices: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Traffic rounds executed.
    pub rounds: u32,
    /// Settle rounds needed to drain (≤ the configured maximum).
    pub settle_rounds: u32,
    /// Guest cycles simulated across the fleet.
    pub total_cycles: u64,
    /// `total_cycles / NOMINAL_HZ`: how much device time the fleet
    /// lived through.
    pub device_seconds: f64,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Sum of guest `MB_RX_PUB` counters (PUBLISHes the firmware saw).
    pub guest_rx_pub: u64,
    /// Sum of guest `MB_TX_PUB` counters.
    pub guest_tx_pub: u64,
    /// Sum of guest `MB_RX_ACK` counters.
    pub guest_rx_ack: u64,
    /// Sum of guest heartbeats (service-loop iterations).
    pub guest_heartbeats: u64,
    /// Messages still unacknowledged after the drain — loss.
    pub messages_lost: u64,
    /// Frames dropped at RX rings / host queues across the fleet.
    pub net_rx_dropped: u64,
    /// Resident size of the warm snapshot image.
    pub snapshot_bytes: u64,
    /// Host bytes copied forking the fleet (the real fork cost): under
    /// CoW this is O(devices · pages) handle adoptions, without it a
    /// full image copy per device.
    pub snapshot_bytes_copied: u64,
    /// Copy-on-write breaks across the fleet over the whole run: pages
    /// privatized by first writes after the fork.
    pub cow_breaks: u64,
    /// Pages still structurally shared across the fleet at the end of
    /// the run — memory the fleet never had to materialize.
    pub cow_shared_pages: u64,
    /// Host bytes of page content the fleet uniquely owns at the end of
    /// the run (sum of each instance's private pages). With CoW this is
    /// the fleet's true page footprint beyond the shared image; without
    /// it, roughly `devices * sram_size`.
    pub fleet_unique_bytes: u64,
    /// Host process resident set (VmRSS) sampled after the run, in
    /// bytes. Zero where `/proc/self/status` is unavailable.
    /// Informational — host-dependent, not part of `passed()`.
    pub host_rss_bytes: u64,
    /// Instances that stopped executing (must be 0).
    pub dead_devices: usize,
    /// Fleet-wide metrics: counters, quantum histograms, and
    /// per-compartment cycle attribution.
    pub metrics: MetricsRegistry,
}

impl FarmReport {
    /// Zero message loss at steady state, nothing dropped, nothing
    /// dead, and (for a multi-device fleet) traffic actually crossed
    /// instances.
    pub fn passed(&self) -> bool {
        self.messages_lost == 0
            && self.net_rx_dropped == 0
            && self.dead_devices == 0
            && (self.devices < 2 || self.fabric.cross_instance_frames > 0)
    }

    /// Messages fully delivered and acknowledged end to end.
    pub fn messages_done(&self) -> u64 {
        self.fabric.acks
    }

    /// Host bytes moved per device fork — *the* fork-cost metric
    /// (`BENCH_simperf.json` key `fork_bytes_per_device`). Under CoW
    /// this is pointer-sized handle adoptions per page; without it, the
    /// full image.
    pub fn fork_bytes_per_device(&self) -> f64 {
        self.snapshot_bytes_copied as f64 / self.devices.max(1) as f64
    }

    /// Human-readable summary.
    pub fn to_text(&self) -> String {
        let f = &self.fabric;
        let mut out = String::new();
        out.push_str("== farm report ==\n");
        out.push_str(&format!(
            "devices            {:>12}   workers {:>3}   rounds {} (+{} settle)\n",
            self.devices, self.workers, self.rounds, self.settle_rounds
        ));
        out.push_str(&format!(
            "fleet cycles       {:>12}   device-seconds {:.3}\n",
            self.total_cycles, self.device_seconds
        ));
        out.push_str(&format!(
            "connected          {:>12}   subscriptions {}\n",
            f.connected, f.subscriptions
        ));
        out.push_str(&format!(
            "published          {:>12}   (guest {} + host {})\n",
            f.published_guest + f.published_host,
            f.published_guest,
            f.published_host
        ));
        out.push_str(&format!(
            "deliveries         {:>12}   acked {}   lost {}\n",
            f.deliveries, f.acks, self.messages_lost
        ));
        out.push_str(&format!(
            "cross-instance     {:>12}   rx dropped {}\n",
            f.cross_instance_frames, self.net_rx_dropped
        ));
        out.push_str(&format!(
            "guest counters     rx_pub {} tx_pub {} rx_ack {} heartbeats {}\n",
            self.guest_rx_pub, self.guest_tx_pub, self.guest_rx_ack, self.guest_heartbeats
        ));
        out.push_str(&format!(
            "snapshot           {} bytes resident, {} bytes copied forking ({:.1}/device)\n",
            self.snapshot_bytes,
            self.snapshot_bytes_copied,
            self.fork_bytes_per_device()
        ));
        out.push_str(&format!(
            "cow                {} breaks, {} pages still shared, {} unique bytes, rss {}\n",
            self.cow_breaks, self.cow_shared_pages, self.fleet_unique_bytes, self.host_rss_bytes
        ));
        if self.dead_devices > 0 {
            out.push_str(&format!("DEAD DEVICES       {:>12}\n", self.dead_devices));
        }
        out.push_str(&format!(
            "verdict            {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Single-line JSON for dashboards / CI artifacts.
    pub fn to_json(&self) -> String {
        let f = &self.fabric;
        let mut doc = Json::obj();
        doc.push("devices", self.devices)
            .push("workers", self.workers)
            .push("rounds", self.rounds)
            .push("settle_rounds", self.settle_rounds)
            .push("total_cycles", self.total_cycles)
            .push("device_seconds", self.device_seconds)
            .push("published_guest", f.published_guest)
            .push("published_host", f.published_host)
            .push("deliveries", f.deliveries)
            .push("acks", f.acks)
            .push("cross_instance_frames", f.cross_instance_frames)
            .push("messages_lost", self.messages_lost)
            .push("net_rx_dropped", self.net_rx_dropped)
            .push("snapshot_bytes", self.snapshot_bytes)
            .push("snapshot_bytes_copied", self.snapshot_bytes_copied)
            .push("fork_bytes_per_device", self.fork_bytes_per_device())
            .push("cow_breaks", self.cow_breaks)
            .push("cow_shared_pages", self.cow_shared_pages)
            .push("fleet_unique_bytes", self.fleet_unique_bytes)
            .push("host_rss_bytes", self.host_rss_bytes)
            .push("dead_devices", self.dead_devices)
            .push("passed", self.passed());
        doc.render_line() + "\n"
    }
}

/// Runs a farm per `cfg`: boot one image, fork the fleet, schedule
/// traffic + settle rounds, aggregate.
pub fn run_farm(cfg: &FarmConfig) -> Result<FarmReport, String> {
    if cfg.devices == 0 {
        return Err("farm needs at least one device".to_string());
    }
    // Topic partitioning: keep subscriber groups small so per-device RX
    // load (publishes in + acks back) stays below the ring drain rate.
    let topics = match cfg.topics {
        0 => (cfg.devices as u32 / 4).max(1),
        t => t,
    };
    // One warm image; every instance forks from it.
    let snap = boot_node_image(cfg.core, topics, cfg.dispatch, cfg.sram_size, cfg.cow)?;
    let snapshot_bytes = snap.bytes();

    // Fork the fleet and assign ids through the mailbox. The guest
    // parks until the id arrives, so a fork only becomes a distinct
    // device here.
    let mut instances: Vec<Mutex<Instance>> = Vec::with_capacity(cfg.devices);
    let mut snapshot_bytes_copied = 0u64;
    for i in 0..cfg.devices {
        let mut m = snap.to_machine();
        snapshot_bytes_copied += m.snapshot_stats().bytes_copied;
        m.dma_write(guest::MB_ID, &(i as u32 + 1).to_le_bytes())
            .map_err(|e| format!("assigning id to device {i}: {e:?}"))?;
        instances.push(Mutex::new(Instance {
            m,
            inbox: Vec::new(),
            mb: Mailbox::default(),
            dead: None,
        }));
    }

    let mut fabric = NetFabric::new(cfg.devices, topics, cfg.seed);
    let mut fleet = MetricsRegistry::new();
    fleet.set_comp_name(comp::NET, "net");
    fleet.set_comp_name(comp::APP, "app");
    fleet.set_comp_name(comp::IDLE, "idle");

    let base_cycles: u64 = snap.cycles() * cfg.devices as u64;
    let mut quiesced = false;
    let mut settle_used = 0u32;
    let total_rounds = cfg.rounds + cfg.settle_rounds;
    let mut round = 0u32;
    while round < total_rounds {
        // --- parallel quantum phase ---------------------------------------
        let outs: Vec<QuantumOut> = work_steal_with(
            cfg.devices,
            cfg.workers,
            || (),
            |(), i| {
                let inst = &mut *instances[i].lock().expect("instance lock");
                if inst.dead.is_some() {
                    return QuantumOut {
                        tx: Vec::new(),
                        cycles: 0,
                        mb: inst.mb,
                        exit: None,
                    };
                }
                for frame in inst.inbox.drain(..) {
                    // Overflow past the NIC host queue drops-with-counter
                    // inside the device.
                    let _ = net_push_rx(&mut inst.m, frame);
                }
                // The quantum runs in sub-slices with an RX flush before
                // each: the guest frees ring descriptors as it consumes
                // frames, so re-flushing mid-quantum multiplies how much
                // queued traffic one quantum can absorb (the ring is only
                // RX_RING deep). The sub-slice schedule is fixed, so runs
                // stay deterministic.
                let before = inst.m.cycles;
                let slice = (cfg.quantum / RX_FLUSHES_PER_QUANTUM).max(1);
                let mut exit = ExitReason::CycleLimit;
                for _ in 0..RX_FLUSHES_PER_QUANTUM {
                    net_flush_rx(&mut inst.m);
                    exit = inst.m.run(slice);
                    if exit != ExitReason::CycleLimit {
                        break;
                    }
                }
                let cycles = inst.m.cycles - before;
                let tx = net_take_tx(&mut inst.m);
                let mut raw = [0u8; guest::MB_LEN];
                let mb = match inst.m.dma_read(guest::MB_BASE, &mut raw) {
                    Ok(()) => Mailbox::parse(&raw),
                    Err(_) => inst.mb,
                };
                QuantumOut {
                    tx,
                    cycles,
                    mb,
                    exit: (exit != ExitReason::CycleLimit).then_some(exit),
                }
            },
        );

        // --- serial accounting + routing phase ----------------------------
        for (i, out) in outs.into_iter().enumerate() {
            let inst = &mut *instances[i].lock().expect("instance lock");
            let moved_frames = !out.tx.is_empty()
                || out.mb.rx_pub != inst.mb.rx_pub
                || out.mb.rx_ack != inst.mb.rx_ack;
            let made_progress = out.mb.heartbeat != inst.mb.heartbeat;
            let comp_id = if moved_frames {
                comp::NET
            } else if made_progress {
                comp::APP
            } else {
                comp::IDLE
            };
            fleet.charge_compartment(comp_id, out.cycles);
            fleet.observe("quantum_cycles", out.cycles);
            if let Some(exit) = out.exit {
                inst.dead = Some(exit);
            }
            inst.mb = out.mb;
            for frame in &out.tx {
                for (dst, bytes) in fabric.route(i, frame) {
                    if dst == i {
                        inst.inbox.push(bytes.to_vec());
                    } else {
                        instances[dst]
                            .lock()
                            .expect("instance lock")
                            .inbox
                            .push(bytes.to_vec());
                    }
                }
            }
        }

        round += 1;
        if round < cfg.rounds {
            // Traffic rounds: inject host publishes.
            for _ in 0..cfg.host_rate {
                for (dst, bytes) in fabric.host_publish() {
                    instances[dst]
                        .lock()
                        .expect("instance lock")
                        .inbox
                        .push(bytes.to_vec());
                }
            }
        }
        if round >= cfg.rounds {
            if !quiesced {
                // Drain mode: stop guest publishing via the mailbox flag.
                quiesced = true;
                for inst in &instances {
                    let inst = &mut *inst.lock().expect("instance lock");
                    inst.m
                        .dma_write(guest::MB_QUIESCE, &1u32.to_le_bytes())
                        .map_err(|e| format!("raising quiesce: {e:?}"))?;
                }
            } else {
                settle_used = round - cfg.rounds;
                let drained = fabric.in_flight() == 0
                    && instances.iter().all(|inst| {
                        let inst = &mut *inst.lock().expect("instance lock");
                        inst.inbox.is_empty() && cheriot_soc::net_host_rx_pending(&mut inst.m) == 0
                    });
                if drained {
                    break;
                }
            }
        }
    }

    // --- aggregate ---------------------------------------------------------
    let mut guest_rx_pub = 0u64;
    let mut guest_tx_pub = 0u64;
    let mut guest_rx_ack = 0u64;
    let mut guest_heartbeats = 0u64;
    let mut net_dropped = 0u64;
    let mut total_cycles = 0u64;
    let mut dead_devices = 0usize;
    let mut cow_breaks = 0u64;
    let mut cow_shared_pages = 0u64;
    let mut fleet_unique_bytes = 0u64;
    for inst in instances.iter() {
        let inst = &mut *inst.lock().expect("instance lock");
        guest_rx_pub += u64::from(inst.mb.rx_pub);
        guest_tx_pub += u64::from(inst.mb.tx_pub);
        guest_rx_ack += u64::from(inst.mb.rx_ack);
        guest_heartbeats += u64::from(inst.mb.heartbeat);
        net_dropped += u64::from(net_rx_dropped(&mut inst.m));
        total_cycles += inst.m.cycles;
        cow_breaks += inst.m.sram.cow_stats().breaks;
        cow_shared_pages += u64::from(inst.m.sram.shared_pages());
        fleet_unique_bytes += inst.m.sram.unique_resident_bytes();
        if inst.dead.is_some() {
            dead_devices += 1;
        }
    }
    total_cycles = total_cycles.saturating_sub(base_cycles);
    fleet.add("farm_devices", cfg.devices as u64);
    fleet.add("farm_messages_acked", fabric.stats().acks);
    fleet.add("net_rx_dropped", net_dropped);
    fleet.add("snapshot_bytes_copied", snapshot_bytes_copied);
    fleet.add("cow_breaks", cow_breaks);
    fleet.add("cow_shared_pages", cow_shared_pages);
    fleet.merge(&fabric.metrics);

    let stats = fabric.stats();
    Ok(FarmReport {
        devices: cfg.devices,
        workers: cfg.workers.max(1),
        rounds: cfg.rounds,
        settle_rounds: settle_used,
        total_cycles,
        device_seconds: total_cycles as f64 / NOMINAL_HZ,
        fabric: stats,
        guest_rx_pub,
        guest_tx_pub,
        guest_rx_ack,
        guest_heartbeats,
        messages_lost: fabric.in_flight(),
        net_rx_dropped: net_dropped,
        snapshot_bytes,
        snapshot_bytes_copied,
        cow_breaks,
        cow_shared_pages,
        fleet_unique_bytes,
        host_rss_bytes: host_rss_bytes(),
        dead_devices,
        metrics: fleet,
    })
}

/// The host process resident set (VmRSS) in bytes, from
/// `/proc/self/status`. Zero where unavailable (non-Linux hosts) —
/// callers treat the metric as informational.
fn host_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb * 1024)
        })
        .unwrap_or(0)
}
