//! Design-choice ablations (DESIGN.md E9) as exact simulated counts.
//!
//! Each ablation runs a fixed amount of simulated work per variant and
//! reports an integer count — cycles, or revoker LSU slots — with no host
//! time involved, so `results/ablations.csv` is exact:
//!
//! * `load_filter` — the load filter's whole cost on the Ibex
//!   pointer-chase mix (one CoreMark run, 2 iterations, 64 list nodes);
//! * `revoker_pipeline` — naive vs two-stage background revoker, LSU
//!   slots for one 64 KiB sweep (the §3.3.3 second stage);
//! * `stack_hwm` — the stack high-water mark on the hot cross-call path,
//!   cycles for 1000 cross-compartment calls;
//! * `compiler_quirks` — worst-case vs fixed compiler (the §7.2 framing),
//!   one CoreMark run with the filter on;
//! * `quarantine_threshold` — revocation frequency vs latency: cycles and
//!   revocation passes for 200 malloc/free pairs of 2 KiB;
//! * `bus_width` — 33- vs 65-bit data bus on an otherwise-Ibex core, one
//!   CoreMark run (the Ibex-vs-Flute capability-traffic gap).
//!
//! The §3.3.3 store-snoop race is covered by unit tests in
//! `cheriot-core::revocation`, not here.

use crate::harness::{pool_threads, Section, Table};
use cheriot_alloc::{HeapAllocator, RevokerKind, TemporalPolicy};
use cheriot_core::revocation::{revoker_reg, RevokerConfig};
use cheriot_core::sched::work_steal;
use cheriot_core::{CoreModel, Machine, MachineConfig};
use cheriot_rtos::Rtos;
use cheriot_workloads::{run_coremark, CoreMarkConfig};

/// Cross-compartment calls per `stack_hwm` variant.
const CROSS_CALLS: u32 = 1000;
/// malloc/free pairs per `quarantine_threshold` variant.
const QUARANTINE_PAIRS: u32 = 200;

/// `(metric, value)` pairs one variant reports.
type Metrics = Vec<(&'static str, u64)>;
/// `(ablation, variant, run)`.
type Variant = (&'static str, &'static str, fn() -> Metrics);

/// The reduced CoreMark shape the CoreMark-based ablations run.
fn small_coremark(list_nodes: u32, find_passes: u32, base: CoreMarkConfig) -> CoreMarkConfig {
    CoreMarkConfig {
        iterations: 2,
        list_nodes,
        find_passes,
        ..base
    }
}

fn load_filter(filter: bool) -> u64 {
    let cfg = CoreMarkConfig {
        load_filter: filter,
        ..small_coremark(64, 6, CoreMarkConfig::capabilities())
    };
    run_coremark(CoreModel::ibex(), &cfg).cycles
}

fn revoker_slots(pipelined: bool) -> u64 {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    mc.revoker = RevokerConfig {
        pipelined,
        ..RevokerConfig::default()
    };
    let mut m = Machine::new(mc);
    m.revoker.mmio_write(revoker_reg::START, 0x2000_0000);
    m.revoker
        .mmio_write(revoker_reg::END, 0x2000_0000 + 64 * 1024);
    m.revoker.mmio_write(revoker_reg::KICK, 1);
    while m.revoker.in_progress() {
        m.revoker.step(&mut m.sram, &m.bitmap);
    }
    m.revoker.slots_used
}

fn cross_call_cycles(hwm: bool) -> u64 {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    mc.hwm_enabled = hwm;
    let mut rtos = Rtos::new(Machine::new(mc), TemporalPolicy::None);
    let app = rtos.add_compartment("app", 64);
    let t = rtos.spawn_thread(1, 512, app);
    let start = rtos.machine.cycles;
    for _ in 0..CROSS_CALLS {
        rtos.cross_call(t, app, 64, |_| ()).unwrap();
    }
    rtos.machine.cycles - start
}

fn compiler_quirks(quirks: bool) -> u64 {
    let cfg = CoreMarkConfig {
        quirks,
        ..small_coremark(32, 3, CoreMarkConfig::capabilities_with_filter())
    };
    run_coremark(CoreModel::ibex(), &cfg).cycles
}

/// Cycles and revocation passes for the quarantine churn.
fn quarantine(threshold: u32) -> (u64, u64) {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let mut h = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    h.quarantine_threshold = threshold;
    let start = m.cycles;
    for _ in 0..QUARANTINE_PAIRS {
        let cap = h.malloc(&mut m, 2048).unwrap();
        h.free(&mut m, cap).unwrap();
    }
    (m.cycles - start, h.stats().revocation_passes)
}

fn bus_width(bus_bytes: u32) -> u64 {
    let mut core = CoreModel::ibex();
    core.bus_bytes = bus_bytes;
    let cfg = small_coremark(64, 6, CoreMarkConfig::capabilities_with_filter());
    run_coremark(core, &cfg).cycles
}

fn cycles(value: u64) -> Metrics {
    vec![("cycles", value)]
}

fn quarantine_metrics(threshold: u32) -> Metrics {
    let (cycles, passes) = quarantine(threshold);
    vec![("cycles", cycles), ("revocation_passes", passes)]
}

/// Every variant, in `results/ablations.csv` order.
const VARIANTS: [Variant; 13] = [
    ("load_filter", "off", || cycles(load_filter(false))),
    ("load_filter", "on", || cycles(load_filter(true))),
    ("revoker_pipeline", "naive", || {
        vec![("lsu_slots", revoker_slots(false))]
    }),
    ("revoker_pipeline", "two_stage", || {
        vec![("lsu_slots", revoker_slots(true))]
    }),
    ("stack_hwm", "off", || cycles(cross_call_cycles(false))),
    ("stack_hwm", "on", || cycles(cross_call_cycles(true))),
    ("compiler_quirks", "worst_case", || {
        cycles(compiler_quirks(true))
    }),
    ("compiler_quirks", "fixed", || {
        cycles(compiler_quirks(false))
    }),
    ("quarantine_threshold", "8KiB", || {
        quarantine_metrics(8 << 10)
    }),
    ("quarantine_threshold", "32KiB", || {
        quarantine_metrics(32 << 10)
    }),
    ("quarantine_threshold", "96KiB", || {
        quarantine_metrics(96 << 10)
    }),
    ("bus_width", "33bit", || cycles(bus_width(4))),
    ("bus_width", "65bit", || cycles(bus_width(8))),
];

/// E9: every ablation variant, fanned out over the work-stealing pool,
/// as `results/ablations.csv` rows `ablation,variant,metric,value`.
pub fn ablations() -> Section {
    let runs = work_steal(VARIANTS.len(), pool_threads(), |i| (VARIANTS[i].2)());
    let rows = VARIANTS
        .iter()
        .zip(runs)
        .flat_map(|(&(ablation, variant, _), metrics)| {
            metrics.into_iter().map(move |(metric, value)| {
                vec![
                    ablation.into(),
                    variant.into(),
                    metric.into(),
                    value.to_string(),
                ]
            })
        })
        .collect();
    let table = Table {
        name: "ablations".into(),
        headers: &["ablation", "variant", "metric", "value"],
        rows,
    };
    let report = format!(
        "Design-choice ablations (DESIGN.md E9; simulated counts, Ibex)\n\n{}\n\
         Fixed work per variant: one CoreMark run (load_filter, compiler_quirks, bus_width), \
         one 64 KiB revoker sweep, {CROSS_CALLS} cross-compartment calls, \
         {QUARANTINE_PAIRS} malloc/free pairs of 2 KiB.\n",
        table.markdown()
    );
    Section {
        tables: vec![table],
        report,
    }
}
