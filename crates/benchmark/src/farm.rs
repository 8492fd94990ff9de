//! `farm`: `run_farm` with a fleet of forked MQTT nodes under live
//! traffic, one worker. Many tiny machines each run short `run` slices,
//! so the cost is per-call `run` overhead, NIC DMA and MMIO, fabric
//! routing and one copy-on-write page per device, over a working set
//! larger than the host's L2: the write side of the page store.

use crate::digest::Digest;
use crate::spans::Tracer;
use crate::{clock, stats, Bench, Layers, Sizes, Traced, Unit};
use cheriot_core::sched::work_steal_with;
use cheriot_core::trace::metrics::MetricsRegistry;
use cheriot_core::{BlockCacheStats, ExitReason, Machine, Snapshot};
use cheriot_farm::farm::comp;
use cheriot_farm::guest::{self, Mailbox};
use cheriot_farm::{boot_node_image, run_farm, FabricStats, FarmConfig, FarmReport, NetFabric};
use cheriot_soc::{net_flush_rx, net_host_rx_pending, net_push_rx, net_rx_dropped, net_take_tx};
use std::sync::Mutex;

/// RX flushes interleaved into each quantum, as the farm driver
/// schedules them.
const RX_FLUSHES_PER_QUANTUM: u64 = 4;

/// The fleet of one unit: default quantum, settle limit and host
/// traffic rate; `seed` seeds the host traffic generator.
pub fn config(seed: u64, sizes: &Sizes) -> FarmConfig {
    FarmConfig {
        devices: sizes.farm_devices,
        workers: 1,
        rounds: sizes.farm_rounds,
        seed,
        ..FarmConfig::default()
    }
}

/// Topic partitions, resolved as the farm driver resolves `topics: 0`.
fn topics(cfg: &FarmConfig) -> u32 {
    match cfg.topics {
        0 => (cfg.devices as u32 / 4).max(1),
        t => t,
    }
}

fn boot(cfg: &FarmConfig) -> Result<Snapshot, String> {
    boot_node_image(cfg.core, topics(cfg), cfg.dispatch, cfg.sram_size, cfg.cow)
}

/// One fleet per unit.
pub(crate) struct Farm {
    cfg: FarmConfig,
}

impl Farm {
    /// Times `boot_node_image` plus one `Snapshot::to_machine` per
    /// device; `run_farm` then boots and forks its own fleet.
    ///
    /// # Panics
    ///
    /// Panics if the node image fails to boot (a firmware bug).
    pub(crate) fn setup(seed: u64, sizes: &Sizes) -> Farm {
        let cfg = config(seed, sizes);
        let snap = boot(&cfg).expect("farm node image boots");
        let fleet: Vec<Machine> = (0..cfg.devices).map(|_| snap.to_machine()).collect();
        std::hint::black_box(fleet);
        Farm { cfg }
    }
}

/// The simulated outcome of a fleet run: everything the `sim_digest`
/// covers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Guest cycles across the fleet after the fork.
    pub total_cycles: u64,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Summed guest mailbox counters: rx_pub, tx_pub, rx_ack, heartbeat.
    pub guest: [u64; 4],
    /// Messages never acknowledged.
    pub lost: u64,
    /// Frames dropped at RX rings.
    pub dropped: u64,
    /// Devices that stopped executing.
    pub dead: u64,
    /// Settle rounds used to drain.
    pub settle_rounds: u32,
}

impl From<&FarmReport> for Outcome {
    fn from(r: &FarmReport) -> Outcome {
        Outcome {
            total_cycles: r.total_cycles,
            fabric: r.fabric,
            guest: [
                r.guest_rx_pub,
                r.guest_tx_pub,
                r.guest_rx_ack,
                r.guest_heartbeats,
            ],
            lost: r.messages_lost,
            dropped: r.net_rx_dropped,
            dead: r.dead_devices as u64,
            settle_rounds: r.settle_rounds,
        }
    }
}

impl Outcome {
    /// The `sim_digest` of this outcome.
    pub fn digest(&self) -> u64 {
        let f = &self.fabric;
        let mut d = Digest::default();
        d.add(self.total_cycles)
            .add(u64::from(f.connected))
            .add(u64::from(f.subscriptions))
            .add(f.published_guest)
            .add(f.published_host)
            .add(f.deliveries)
            .add(f.acks)
            .add(f.cross_instance_frames)
            .add(f.malformed)
            .add(f.no_subscriber);
        for g in self.guest {
            d.add(g);
        }
        d.add(self.lost)
            .add(self.dropped)
            .add(self.dead)
            .add(u64::from(self.settle_rounds))
            .finish()
    }
}

/// Runs the fleet and checks its own acceptance (no loss, no drops, no
/// dead device, cross-instance traffic).
pub fn run_checked(cfg: &FarmConfig) -> Result<(Outcome, f64), String> {
    let report = run_farm(cfg)?;
    if !report.passed() {
        return Err(format!("farm failed its check:\n{}", report.to_text()));
    }
    Ok((Outcome::from(&report), report.device_seconds))
}

impl Bench for Farm {
    fn unit(&mut self) -> Result<Unit, String> {
        let (outcome, device_seconds) = run_checked(&self.cfg)?;
        Ok(Unit {
            items: device_seconds,
            digest: outcome.digest(),
        })
    }
}

/// One forked device and its fabric-facing state.
struct Instance {
    m: Machine,
    inbox: Vec<Vec<u8>>,
    mb: Mailbox,
    dead: Option<ExitReason>,
}

/// What one device's quantum produced.
struct QuantumOut {
    tx: Vec<Vec<u8>>,
    cycles: u64,
    instructions: u64,
    mb: Mailbox,
    exit: Option<ExitReason>,
}

/// One device's quantum, as the farm's parallel phase runs it: push the
/// inbox into the NIC, then alternate RX flushes and `run` slices, then
/// collect transmitted frames and read the mailbox by DMA.
fn quantum(inst: &mut Instance, quantum: u64, t: &mut Tracer) -> QuantumOut {
    if inst.dead.is_some() {
        return QuantumOut {
            tx: Vec::new(),
            cycles: 0,
            instructions: 0,
            mb: inst.mb,
            exit: None,
        };
    }
    for frame in inst.inbox.drain(..) {
        t.span("nic.push_rx", || net_push_rx(&mut inst.m, frame));
    }
    let (cycles0, insn0) = (inst.m.cycles, inst.m.stats.instructions);
    let slice = (quantum / RX_FLUSHES_PER_QUANTUM).max(1);
    let mut exit = ExitReason::CycleLimit;
    for _ in 0..RX_FLUSHES_PER_QUANTUM {
        t.span("nic.flush_rx", || net_flush_rx(&mut inst.m));
        exit = t.span("machine.run", || inst.m.run(slice));
        if exit != ExitReason::CycleLimit {
            break;
        }
    }
    let tx = t.span("nic.take_tx", || net_take_tx(&mut inst.m));
    let mut raw = [0u8; guest::MB_LEN];
    let read = t.span("dma.read", || inst.m.dma_read(guest::MB_BASE, &mut raw));
    QuantumOut {
        tx,
        cycles: inst.m.cycles - cycles0,
        instructions: inst.m.stats.instructions - insn0,
        mb: read.map_or(inst.mb, |()| Mailbox::parse(&raw)),
        exit: (exit != ExitReason::CycleLimit).then_some(exit),
    }
}

/// Host-side totals of a re-drive.
#[derive(Clone, Debug, Default)]
pub struct Redrive {
    /// The simulated outcome, comparable with `run_farm`'s.
    pub outcome: Outcome,
    /// Rounds executed, traffic and settle.
    pub rounds: u32,
    /// Host bytes the forks moved.
    pub fork_bytes: u64,
    /// Instructions retired in quanta.
    pub instructions: u64,
    /// Frames the devices transmitted.
    pub tx_frames: u64,
    /// Copy-on-write breaks across the fleet.
    pub cow_breaks: u64,
    /// Block-cache counters accumulated since each fork.
    pub blocks: BlockCacheStats,
    /// Wall time inside device quanta, summed over devices.
    pub busy_ns: u64,
    /// Wall time of the quantum phases.
    pub quantum_ns: u64,
}

/// Re-drives `run_farm(cfg)` from public calls: `boot_node_image`, one
/// `to_machine` per device, then per round a quantum phase
/// (`net_push_rx`, `net_flush_rx`, `Machine::run`, `net_take_tx`,
/// `dma_read` + `Mailbox::parse`; across `work_steal_with` when
/// `cfg.workers > 1`) and a serial phase (`NetFabric::route`,
/// `host_publish`, the quiesce `dma_write` and the drain check). With
/// one worker every call is a span in `t`; with more, only the phases
/// are.
pub fn redrive(cfg: &FarmConfig, t: &mut Tracer) -> Result<Redrive, String> {
    let snap = t.span("farm.boot_node_image", || boot(cfg))?;
    let mut r = Redrive::default();
    let mut instances = Vec::with_capacity(cfg.devices);
    let mut forked_blocks = Vec::with_capacity(cfg.devices);
    for i in 0..cfg.devices {
        t.set_unit(i as u64);
        let mut m = t.span("fork.to_machine", || snap.to_machine());
        r.fork_bytes += m.snapshot_stats().bytes_copied;
        forked_blocks.push(m.block_stats());
        let id = (i as u32 + 1).to_le_bytes();
        t.span("dma.write", || m.dma_write(guest::MB_ID, &id))
            .map_err(|e| format!("assigning id to device {i}: {e:?}"))?;
        instances.push(Mutex::new(Instance {
            m,
            inbox: Vec::new(),
            mb: Mailbox::default(),
            dead: None,
        }));
    }
    let mut fabric = NetFabric::new(cfg.devices, topics(cfg), cfg.seed);
    // The farm charges fleet metrics in its serial phase; so does the
    // re-drive, so that phase costs here what it costs there.
    let mut fleet = MetricsRegistry::new();
    let lock = |i: usize| instances[i].lock().expect("instance lock");
    let run_one = |tr: &mut Tracer, i: usize| {
        let t0 = clock::wall_ns();
        let out = quantum(&mut lock(i), cfg.quantum, tr);
        (out, clock::wall_ns() - t0)
    };
    let mut quiesced = false;
    let mut round = 0u32;
    while round < cfg.rounds + cfg.settle_rounds {
        t.set_unit(u64::from(round));
        let phase = t.open("farm.quantum_phase");
        let outs: Vec<(QuantumOut, u64)> = if cfg.workers <= 1 {
            (0..cfg.devices).map(|i| run_one(t, i)).collect()
        } else {
            work_steal_with(cfg.devices, cfg.workers, Tracer::new, run_one)
        };
        r.quantum_ns += t.close(phase);

        let serial = t.open("farm.serial_phase");
        for (i, (out, busy)) in outs.into_iter().enumerate() {
            r.busy_ns += busy;
            r.instructions += out.instructions;
            r.tx_frames += out.tx.len() as u64;
            let inst = &mut *lock(i);
            let comp_id = if !out.tx.is_empty()
                || out.mb.rx_pub != inst.mb.rx_pub
                || out.mb.rx_ack != inst.mb.rx_ack
            {
                comp::NET
            } else if out.mb.heartbeat != inst.mb.heartbeat {
                comp::APP
            } else {
                comp::IDLE
            };
            fleet.charge_compartment(comp_id, out.cycles);
            fleet.observe("quantum_cycles", out.cycles);
            if out.exit.is_some() {
                inst.dead = out.exit;
            }
            inst.mb = out.mb;
            for frame in &out.tx {
                for (dst, bytes) in t.span("fabric.route", || fabric.route(i, frame)) {
                    if dst == i {
                        inst.inbox.push(bytes.to_vec());
                    } else {
                        lock(dst).inbox.push(bytes.to_vec());
                    }
                }
            }
        }
        round += 1;
        if round < cfg.rounds {
            for _ in 0..cfg.host_rate {
                for (dst, bytes) in t.span("fabric.host_publish", || fabric.host_publish()) {
                    lock(dst).inbox.push(bytes.to_vec());
                }
            }
        }
        let mut drained = false;
        if round >= cfg.rounds {
            if !quiesced {
                quiesced = true;
                for i in 0..cfg.devices {
                    let inst = &mut *lock(i);
                    let on = 1u32.to_le_bytes();
                    t.span("dma.write", || inst.m.dma_write(guest::MB_QUIESCE, &on))
                        .map_err(|e| format!("raising quiesce: {e:?}"))?;
                }
            } else {
                r.outcome.settle_rounds = round - cfg.rounds;
                drained = fabric.in_flight() == 0
                    && (0..cfg.devices).all(|i| {
                        let inst = &mut *lock(i);
                        inst.inbox.is_empty() && net_host_rx_pending(&mut inst.m) == 0
                    });
            }
        }
        t.close(serial);
        if drained {
            break;
        }
    }
    r.rounds = round;

    let o = &mut r.outcome;
    for (i, forked) in forked_blocks.iter().enumerate() {
        let inst = &mut *lock(i);
        for (sum, v) in o.guest.iter_mut().zip([
            inst.mb.rx_pub,
            inst.mb.tx_pub,
            inst.mb.rx_ack,
            inst.mb.heartbeat,
        ]) {
            *sum += u64::from(v);
        }
        o.dropped += u64::from(net_rx_dropped(&mut inst.m));
        o.total_cycles += inst.m.cycles;
        o.dead += u64::from(inst.dead.is_some());
        r.cow_breaks += inst.m.sram.cow_stats().breaks;
        crate::block_add(
            &mut r.blocks,
            &crate::block_delta(&inst.m.block_stats(), forked),
        );
    }
    o.total_cycles = o
        .total_cycles
        .saturating_sub(snap.cycles() * cfg.devices as u64);
    o.fabric = fabric.stats();
    o.lost = fabric.in_flight();
    std::hint::black_box(fleet);
    Ok(r)
}

/// Traced pass: `run_farm`, the one-worker re-drive with every call
/// traced, `run_farm` again timed ([`crate::time_again`]), and a
/// re-drive on two workers (at most the host's cores) for the barrier
/// wait. Both re-drives must reproduce `run_farm`'s simulated outcome
/// exactly.
pub(crate) fn trace(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Result<Traced, String> {
    let cfg = config(seed, sizes);
    let (expected, _) = run_checked(&cfg)?;

    let id = t.open("farm.redrive");
    let r = redrive(&cfg, t)?;
    let redrive_ns = t.close(id) as f64;
    if r.outcome != expected {
        return Err(format!(
            "farm re-drive diverged from run_farm:\n{:?}\nvs\n{expected:?}",
            r.outcome
        ));
    }
    let e2e_ns = crate::time_again(&expected, || run_checked(&cfg).map(|(o, _)| o))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let (w0, c0) = (clock::wall_s(), clock::process_cpu_s());
    let r2 = redrive(&FarmConfig { workers, ..cfg }, &mut Tracer::new())?;
    let (wall_2w, cpu_2w) = (clock::wall_s() - w0, clock::process_cpu_s() - c0);
    if r2.outcome != expected {
        return Err(format!(
            "farm re-drive on {workers} workers diverged from run_farm"
        ));
    }

    let devices = cfg.devices as f64;
    let device_rounds = devices * f64::from(r.rounds);
    let runs = t.count("machine.run") as f64;
    let (reads, writes) = (t.count("dma.read"), t.count("dma.write"));
    let dma_calls = (reads + writes) as f64;
    // Every read is the mailbox; every write is a 4-byte mailbox word.
    let dma_bytes = (reads * guest::MB_LEN as u64 + writes * 4) as f64;
    let dma_ns = (t.total_ns("dma.read") + t.total_ns("dma.write")) as f64;
    let mut layers = Layers::new();
    crate::dispatch_layers(&mut layers, &r.blocks, r.instructions);
    layers.insert("compile.blocks_built", r.blocks.misses as f64);
    layers.insert("run.calls_per_device_round", runs / device_rounds);
    layers.insert("run.ns_per_call", t.mean_ns("machine.run"));
    layers.insert(
        "run.insns_per_call",
        stats::ratio(r.instructions as f64, runs),
    );
    layers.insert("dma.ns_per_call", stats::ratio(dma_ns, dma_calls));
    layers.insert("dma.bytes_per_call", stats::ratio(dma_bytes, dma_calls));
    layers.insert("nic.push_ns", t.mean_ns("nic.push_rx"));
    layers.insert("nic.flush_ns", t.mean_ns("nic.flush_rx"));
    layers.insert("nic.take_tx_ns", t.mean_ns("nic.take_tx"));
    layers.insert(
        "nic.frames_per_device_round",
        r.tx_frames as f64 / device_rounds,
    );
    layers.insert("fork.ns_per_device", t.mean_ns("fork.to_machine"));
    layers.insert("fork.bytes_per_device", r.fork_bytes as f64 / devices);
    layers.insert("cow.breaks_per_device", r.cow_breaks as f64 / devices);
    layers.insert("farm.quantum_frac", r.quantum_ns as f64 / redrive_ns);
    layers.insert(
        "farm.serial_frac",
        t.total_ns("farm.serial_phase") as f64 / redrive_ns,
    );
    layers.insert(
        "farm.route_frac",
        t.total_ns("fabric.route") as f64 / redrive_ns,
    );
    layers.insert("farm.route_ns_per_frame", t.mean_ns("fabric.route"));
    layers.insert("farm.frames_routed", t.count("fabric.route") as f64);
    layers.insert(
        "farm.barrier_wait_frac",
        1.0 - stats::ratio(r2.busy_ns as f64, (r2.quantum_ns * workers as u64) as f64),
    );
    layers.insert("farm.two_worker_wall_s", wall_2w);
    layers.insert("farm.two_worker_cpu_s", cpu_2w);
    layers.insert("trace.overhead_frac", redrive_ns / e2e_ns - 1.0);
    Ok(Traced { layers, checks: 2 })
}
