//! `coremark`: the CoreMark caps+filter kernel on Ibex, chained
//! dispatch, warm. Each unit restores the post-load snapshot (a handful
//! of data pages; the decoded blocks stay resident) and runs a fixed
//! simulated-cycle budget, so nearly all host time is the dispatch loop:
//! no bus, no snapshot cost to speak of and no block compile after the
//! warm-up. It moves with dispatch changes and should not move with
//! snapshot, bus or farm changes.

use crate::digest::Digest;
use crate::spans::Tracer;
use crate::{clock, stats, Bench, Layers, Sizes, Traced, Unit};
use cheriot_cap::Capability;
use cheriot_core::insn::Reg;
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig, Snapshot};
use cheriot_workloads::coremark::{generate_program, CoreMarkConfig, DispatchMode};

/// The data region the kernel is compiled against: the same base and
/// length `cheriot_workloads::coremark` hands its own runs in `a0`/`gp`.
const DATA_BASE: u32 = layout::SRAM_BASE + 0x1000;
const DATA_LEN: u64 = 0x6000;

/// The kernel for `seed`: the seed picks the linked-list length, 120 to
/// 136 nodes around the kernel's default 128. The range is kept narrow
/// because list length shifts the instruction mix, and with it the cost
/// per instruction, which would show as spread between seeds. The
/// iteration count is high enough that the cycle budget, never the
/// program, ends a run.
fn kernel(seed: u64) -> CoreMarkConfig {
    CoreMarkConfig {
        iterations: 50_000_000,
        list_nodes: 120 + 4 * (seed % 5) as u32,
        ..CoreMarkConfig::capabilities_with_filter()
    }
}

/// `Machine::new` + `generate_program` + `load_program` for `seed`, in
/// the given dispatch tier, with the data-region capability installed.
fn build(seed: u64, dispatch: DispatchMode) -> Machine {
    let cfg = kernel(seed);
    let mut mc = MachineConfig::new(CoreModel::ibex());
    (mc.block_cache, mc.block_chain) = dispatch.config_flags();
    mc.load_filter = cfg.load_filter;
    mc.hw_revoker = false;
    mc.hwm_enabled = false;
    let mut m = Machine::new(mc);
    let entry = m.load_program(&generate_program(&cfg));
    m.set_entry(entry);
    let region = Capability::root_mem_rw()
        .with_address(DATA_BASE)
        .set_bounds(DATA_LEN)
        .expect("data region is representable");
    m.cpu.write(Reg::A0, region);
    m.cpu.write(Reg::GP, region);
    m
}

/// A chained-dispatch kernel machine and its post-load snapshot.
pub(crate) struct Coremark {
    m: Machine,
    start: Snapshot,
    cycles: u64,
}

impl Coremark {
    /// Builds the machine ([`build`]) and captures the unit start point.
    pub(crate) fn setup(seed: u64, sizes: &Sizes) -> Coremark {
        let mut m = build(seed, DispatchMode::Chained);
        let start = m.snapshot();
        Coremark {
            m,
            start,
            cycles: sizes.coremark_cycles,
        }
    }
}

/// Runs `m` from `start` for `cycles`; the digest covers cycles,
/// instructions and the kernel's checksum register.
fn run_from(m: &mut Machine, start: &Snapshot, cycles: u64) -> Result<Unit, String> {
    m.restore_from(start);
    let exit = m.run(cycles);
    if exit != ExitReason::CycleLimit {
        return Err(format!(
            "coremark ended with {exit:?} at pc {:#x}",
            m.cpu.pc()
        ));
    }
    let digest = Digest::default()
        .add(m.cycles)
        .add(m.stats.instructions)
        .add(u64::from(m.cpu.read_int(Reg::S0)))
        .finish();
    Ok(Unit {
        items: m.stats.instructions as f64 / 1e6,
        digest,
    })
}

impl Bench for Coremark {
    fn unit(&mut self) -> Result<Unit, String> {
        run_from(&mut self.m, &self.start, self.cycles)
    }
}

/// Traced pass: a warm unit of a fifth of the measured size in each
/// dispatch tier (the three must agree on cycles, instructions and
/// checksum), then an untraced chained unit for the span overhead.
pub(crate) fn trace(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Result<Traced, String> {
    let cycles = sizes.coremark_cycles / 5;
    let mut layers = Layers::new();
    let mut agreed: Option<u64> = None;
    let tiers = [
        (
            DispatchMode::Chained,
            "machine.run.chained",
            "dispatch.ns_per_insn.chained",
        ),
        (
            DispatchMode::Cached,
            "machine.run.cached",
            "dispatch.ns_per_insn.cached",
        ),
        (
            DispatchMode::Stepwise,
            "machine.run.stepwise",
            "dispatch.ns_per_insn.stepwise",
        ),
    ];
    for (mode, span, metric) in tiers {
        let mut m = build(seed, mode);
        let start = m.snapshot();
        // Warm-up: decode and compile every block the unit will run.
        run_from(&mut m, &start, cycles)?;
        let warm = m.block_stats();
        let id = t.open(span);
        let unit = run_from(&mut m, &start, cycles);
        let ns = t.close(id);
        let unit = unit?;
        if *agreed.get_or_insert(unit.digest) != unit.digest {
            return Err(format!("{span} disagrees with the chained tier"));
        }
        layers.insert(metric, stats::ratio(ns as f64, unit.items * 1e6));
        if mode == DispatchMode::Chained {
            crate::dispatch_layers(
                &mut layers,
                &crate::block_delta(&m.block_stats(), &warm),
                m.stats.instructions,
            );
            layers.insert("compile.blocks_built", warm.misses as f64);
            let t0 = clock::wall_ns();
            run_from(&mut m, &start, cycles)?;
            let untraced = clock::wall_ns() - t0;
            layers.insert(
                "trace.overhead_frac",
                stats::ratio(ns as f64, untraced as f64) - 1.0,
            );
        }
    }
    Ok(Traced { layers, checks: 2 })
}
