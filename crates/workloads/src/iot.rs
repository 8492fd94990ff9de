//! The end-to-end IoT application (paper §7.2.3).
//!
//! A compartmentalized network stack — packet framing/checksumming (the
//! FreeRTOS TCP/IP stand-in), a record-layer cipher (mBedTLS stand-in), an
//! MQTT-ish topic/publish layer, and a small bytecode interpreter (the
//! Microvium stand-in) — each in its own compartment, connected by
//! cross-compartment calls. Every network packet sent or received is a
//! separate heap allocation protected by temporal safety, as are the
//! interpreter's objects (which are not reused between collection passes).
//!
//! The interpreter is invoked every 10 ms; the SoC runs at 20 MHz (so a
//! tick is 200 000 cycles). The headline metric is **CPU load**: the paper
//! reports 17.5% busy (82.5% idle) averaged over a minute, including TLS
//! connection establishment.

use cheriot_alloc::{RevokerKind, TemporalPolicy};
use cheriot_cap::Capability;
use cheriot_core::{CoreModel, Machine, MachineConfig};
use cheriot_rtos::{CompartmentId, Rtos, Slice, ThreadBody, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Clock rate of the FPGA deployment (paper: CHERIoT-Ibex at 20 MHz).
pub const CLOCK_HZ: u64 = 20_000_000;
/// Cycles per 10 ms JavaScript tick.
pub const JS_TICK_CYCLES: u64 = CLOCK_HZ / 100;

/// Configuration for the end-to-end run.
#[derive(Clone, Copy, Debug)]
pub struct IotConfig {
    /// Core model (the paper's deployment is Ibex).
    pub core: CoreModel,
    /// Simulated duration in cycles (a full paper minute is 1.2 G cycles;
    /// one simulated second preserves the steady-state load).
    pub duration_cycles: u64,
    /// Mean packet inter-arrival time in cycles.
    pub packet_interval: u64,
    /// RNG seed for arrival jitter and payload sizes.
    pub seed: u64,
}

impl Default for IotConfig {
    fn default() -> IotConfig {
        IotConfig {
            core: CoreModel::ibex(),
            duration_cycles: CLOCK_HZ, // 1 simulated second
            packet_interval: CLOCK_HZ / 160,
            seed: 0xC0FFEE,
        }
    }
}

/// Results of the end-to-end run.
#[derive(Clone, Copy, Debug)]
pub struct IotReport {
    /// Fraction of CPU time not spent in the idle thread.
    pub cpu_load: f64,
    /// Packets processed.
    pub packets: u64,
    /// Interpreter ticks executed.
    pub js_ticks: u64,
    /// Heap allocations performed (every packet + every JS object).
    pub allocs: u64,
    /// Revocation passes completed.
    pub revocation_passes: u64,
    /// Capabilities the load filter stripped during the run.
    pub filter_strips: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// LED register writes (the animated pattern).
    pub led_writes: u64,
}

struct NetThread {
    rng: StdRng,
    net: CompartmentId,
    tls: CompartmentId,
    mqtt: CompartmentId,
    interval: u64,
    packets: std::rc::Rc<std::cell::Cell<u64>>,
    handshake_done: bool,
}

impl NetThread {
    /// Receive + decrypt + publish one packet. Every packet is a separate
    /// heap allocation.
    fn process_packet(&mut self, rtos: &mut Rtos, me: ThreadId) {
        let len = self.rng.gen_range(128u32..=1024) & !3;
        let Ok(buf) = rtos.malloc(me, len) else {
            return; // transient OOM: drop the packet, as a NIC would
        };
        // Network compartment: frame parse + checksum (reads every word).
        rtos.cross_call(me, self.net, 96, |env| {
            let mut m = env.machine.meter();
            let base = buf.base();
            let mut sum = 0u32;
            for off in (0..len).step_by(4) {
                // RX "DMA" write then checksum read.
                let _ = m.store(buf, base + off, 4, off ^ 0x5a5a_5a5a);
                sum = sum.wrapping_add(m.load(buf, base + off, 4).unwrap_or(0));
            }
            m.charge(u64::from(len / 4) * 2 + 40);
            sum
        })
        .ok();
        // TLS compartment: record decrypt (xor-keystream pass) + MAC.
        rtos.cross_call(me, self.tls, 128, |env| {
            let mut m = env.machine.meter();
            let base = buf.base();
            for off in (0..len).step_by(4) {
                let v = m.load(buf, base + off, 4).unwrap_or(0);
                let _ = m.store(buf, base + off, 4, v ^ 0x1357_9bdf);
            }
            // MAC computation: ~30 ALU ops per word (software SHA-class).
            m.charge(u64::from(len / 4) * 30 + 120);
        })
        .ok();
        // MQTT compartment: topic parse + publish bookkeeping; ACK packet.
        let ack = rtos
            .cross_call(me, self.mqtt, 96, |env| {
                let mut m = env.machine.meter();
                let base = buf.base();
                for off in (0..32.min(len)).step_by(4) {
                    let _ = m.load(buf, base + off, 4);
                }
                m.charge(180);
                env.heap.malloc(env.machine, 48).ok()
            })
            .unwrap_or(None);
        if let Some(ack) = ack {
            // Fill and "send" the ACK, then free it.
            rtos.cross_call(me, self.net, 64, |env| {
                let mut m = env.machine.meter();
                for off in (0..48).step_by(4) {
                    let _ = m.store(ack, ack.base() + off, 4, 0xacac_acac);
                }
                m.charge(60);
            })
            .ok();
            rtos.free(me, ack).ok();
        }
        rtos.free(me, buf).ok();
        self.packets.set(self.packets.get() + 1);
    }

    /// TLS connection establishment: a burst of public-key arithmetic in
    /// the TLS compartment plus several handshake flights (heap-allocated).
    fn handshake(&mut self, rtos: &mut Rtos, me: ThreadId) {
        for _ in 0..4 {
            let Ok(flight) = rtos.malloc(me, 256) else {
                continue;
            };
            rtos.cross_call(me, self.tls, 192, |env| {
                // Modular exponentiation stand-in: a long ALU burst with
                // scattered table loads.
                let mut m = env.machine.meter();
                for i in 0..64u32 {
                    let _ = m.load(flight, flight.base() + (i % 64) * 4, 4);
                    m.charge(400);
                }
            })
            .ok();
            rtos.free(me, flight).ok();
        }
    }
}

impl ThreadBody for NetThread {
    fn run_slice(&mut self, rtos: &mut Rtos, me: ThreadId) -> Slice {
        if !self.handshake_done {
            self.handshake(rtos, me);
            self.handshake_done = true;
            return Slice::Yield;
        }
        self.process_packet(rtos, me);
        let jitter = self.rng.gen_range(0..self.interval / 2);
        Slice::Sleep(self.interval / 2 + jitter)
    }
}

/// The Microvium stand-in: a bytecode interpreter whose objects live on the
/// shared heap and are *not* reused between collection passes, so the
/// temporal-safety guarantees extend to JavaScript objects (paper §7.2.3).
struct JsThread {
    rng: StdRng,
    js: CompartmentId,
    live_objects: Vec<Capability>,
    ticks: u64,
    tick_counter: std::rc::Rc<std::cell::Cell<u64>>,
}

impl ThreadBody for JsThread {
    fn run_slice(&mut self, rtos: &mut Rtos, me: ThreadId) -> Slice {
        self.ticks += 1;
        self.tick_counter.set(self.ticks);
        // Animate the LEDs (paper: "The JavaScript is invoked every 10ms
        // to animate the LEDs on the FPGA dev board"): a marching pattern
        // written to the GPIO block through the driver's MMIO capability.
        let pattern = 1u32 << (self.ticks % 8);
        let gpio = cheriot_cap::Capability::root_mem_rw()
            .with_address(cheriot_core::layout::GPIO_BASE)
            .set_bounds(8)
            .expect("gpio window");
        let _ = rtos.machine.meter().store(gpio, gpio.base(), 4, pattern);
        // Interpret ~1500 bytecodes animating the LEDs.
        rtos.cross_call(me, self.js, 160, |env| {
            let mut m = env.machine.meter();
            for _ in 0..260 {
                // Dispatch + a couple of VM-stack memory ops per bundle of
                // ten bytecodes.
                m.charge(55);
                let sp = env.stack_cap.address() - 32;
                let _ = m.store(env.stack_cap, sp, 4, 0x1234);
                let _ = m.load(env.stack_cap, sp, 4);
            }
        })
        .ok();
        // Allocate a few short-lived JS objects per tick.
        for _ in 0..self.rng.gen_range(1..=3) {
            let size = self.rng.gen_range(16..=96);
            if let Ok(obj) = rtos.malloc(me, size) {
                self.live_objects.push(obj);
            }
        }
        // Collection pass every 32 ticks: everything allocated since the
        // last pass is released (Microvium does not reuse memory between
        // GC passes).
        if self.ticks.is_multiple_of(32) {
            for obj in self.live_objects.drain(..) {
                rtos.free(me, obj).ok();
            }
        }
        Slice::Sleep(JS_TICK_CYCLES)
    }
}

/// Builds and runs the end-to-end application.
pub fn run_iot_app(cfg: &IotConfig) -> IotReport {
    run_iot_app_inner(cfg, false).0
}

/// [`run_iot_app`] with a timeline tracer installed: returns the report
/// plus the finished tracer (compartment spans, allocator and revoker
/// events, per-compartment cycle attribution) ready for export.
pub fn run_iot_app_traced(cfg: &IotConfig) -> (IotReport, Box<cheriot_core::trace::Tracer>) {
    let (report, tracer) = run_iot_app_inner(cfg, true);
    (report, tracer.expect("tracer installed for traced run"))
}

fn run_iot_app_inner(
    cfg: &IotConfig,
    trace: bool,
) -> (IotReport, Option<Box<cheriot_core::trace::Tracer>>) {
    let mut mc = MachineConfig::new(cfg.core);
    mc.sram_size = 256 * 1024;
    mc.heap_offset = 64 * 1024;
    let mut machine = Machine::new(mc);
    if trace {
        // Installed before the RTOS boots so compartment/thread names
        // register in the metrics as the loader creates them.
        machine.set_tracer(cheriot_core::trace::Tracer::timeline());
    }
    let mut rtos = Rtos::new(machine, TemporalPolicy::Quarantine(RevokerKind::Hardware));

    let net = rtos.add_compartment("netstack", 1024);
    let tls = rtos.add_compartment("tls", 2048);
    let mqtt = rtos.add_compartment("mqtt", 512);
    let js = rtos.add_compartment("microvium", 4096);

    let net_thread = rtos.spawn_thread(3, 1024, net);
    let js_thread = rtos.spawn_thread(2, 1024, js);

    let packet_counter = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let tick_counter = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let mut bodies: Vec<(ThreadId, Box<dyn ThreadBody>)> = vec![
        (
            net_thread,
            Box::new(NetThread {
                rng: StdRng::seed_from_u64(cfg.seed),
                net,
                tls,
                mqtt,
                interval: cfg.packet_interval,
                packets: packet_counter.clone(),
                handshake_done: false,
            }),
        ),
        (
            js_thread,
            Box::new(JsThread {
                rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e37),
                js,
                live_objects: Vec::new(),
                ticks: 0,
                tick_counter: tick_counter.clone(),
            }),
        ),
    ];
    let horizon = rtos.machine.cycles + cfg.duration_cycles;
    rtos.run_threads(&mut bodies, horizon);

    let stats = rtos.heap.stats();
    let report = IotReport {
        cpu_load: rtos.sched.cpu_load(),
        packets: packet_counter.get(),
        js_ticks: tick_counter.get(),
        allocs: stats.allocs,
        revocation_passes: stats.revocation_passes,
        filter_strips: rtos.machine.stats.filter_strips,
        cycles: rtos.machine.cycles,
        led_writes: rtos.machine.gpio_writes,
    };
    let tracer = rtos.machine.take_tracer().map(|mut t| {
        t.finish(rtos.machine.cycles);
        t
    });
    (report, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_load_in_paper_band() {
        let report = run_iot_app(&IotConfig {
            duration_cycles: CLOCK_HZ / 2, // half a second is plenty
            ..IotConfig::default()
        });
        assert!(
            report.cpu_load > 0.10 && report.cpu_load < 0.25,
            "load = {:.1}% (paper: 17.5%)",
            report.cpu_load * 100.0
        );
        assert!(report.allocs > 20, "{report:?}");
        assert!(report.led_writes > 0, "the LEDs must animate");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = IotConfig {
            duration_cycles: CLOCK_HZ / 10,
            ..IotConfig::default()
        };
        let a = run_iot_app(&cfg);
        let b = run_iot_app(&cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.allocs, b.allocs);
    }

    #[test]
    fn different_seeds_change_schedule_not_safety() {
        let a = run_iot_app(&IotConfig {
            duration_cycles: CLOCK_HZ / 10,
            seed: 1,
            ..IotConfig::default()
        });
        let b = run_iot_app(&IotConfig {
            duration_cycles: CLOCK_HZ / 10,
            seed: 2,
            ..IotConfig::default()
        });
        // Work differs, but both runs complete with temporal safety intact.
        assert!(a.allocs > 0 && b.allocs > 0);
    }
}
