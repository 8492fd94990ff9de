//! `campaign`: `run_campaigns` through the snapshot engine, one thread.
//! Every seed is a fresh program of a few hundred instructions, so the
//! cost is restore, load, block compile, heap-service ecalls, injector
//! and checker, with little hot-loop dispatch: the opposite of coremark
//! for the compile and dispatch layers, and the restore (read-mostly)
//! side of the page store.

use crate::digest::Digest;
use crate::spans::Tracer;
use crate::{first_seed, stats, Bench, Layers, Sizes, Traced, Unit};
use cheriot_alloc::{HeapAllocator, RevokerKind, TemporalPolicy};
use cheriot_cap::Capability;
use cheriot_core::insn::Reg;
use cheriot_core::Snapshot;
use cheriot_core::{layout, BlockCacheStats, CoreModel, ExitReason, Machine, MachineConfig};
use cheriot_fault::campaign::build_workload;
use cheriot_fault::{run_campaigns, CampaignConfig, InvariantChecker, Outcome};
use cheriot_rtos::run_with_heap_service;

/// The guest's capability directory, as `cheriot_fault::campaign` lays
/// it out: 24 capability slots at this offset into SRAM, passed in `gp`.
const DIR_OFFSET: u32 = 0x100;
const DIR_SLOTS: u32 = 24;

/// The campaign suite of one unit: `seeds` consecutive seeds, default
/// fault classes, one worker.
pub(crate) fn config(seed: u64, seeds: u32) -> CampaignConfig {
    CampaignConfig {
        seed_base: first_seed(seed, seeds),
        count: seeds,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// The per-worker starting state of the snapshot engine.
struct Boot {
    /// The worker machine, heap initialized, directory in `gp`.
    m: Machine,
    /// The boot-state allocator each run clones.
    heap: HeapAllocator,
    /// The post-boot snapshot every seed restores.
    snap: Snapshot,
}

/// `Machine::new` + `HeapAllocator::new` + `snapshot`: what the engine
/// builds once per worker before its first seed.
fn boot() -> Boot {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let heap = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let dir = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE + DIR_OFFSET)
        .set_bounds(u64::from(DIR_SLOTS * 8))
        .expect("directory is representable");
    m.cpu.write(Reg::GP, dir);
    let snap = m.snapshot();
    Boot { m, heap, snap }
}

/// One campaign suite per unit.
pub(crate) struct Campaign {
    cfg: CampaignConfig,
}

impl Campaign {
    /// Times the engine's worker boot ([`boot`]); the suite itself
    /// builds its own worker inside `run_campaigns`.
    pub(crate) fn setup(seed: u64, sizes: &Sizes) -> Campaign {
        std::hint::black_box(boot());
        Campaign {
            cfg: config(seed, sizes.campaign_seeds),
        }
    }
}

/// Runs `cfg` and checks it: any panicked, silently diverging or
/// sim-error seed, or a violation on the fault-free control run, fails
/// the unit. The digest covers every seed's outcome, applied-fault count
/// and faulted-run cycles, plus the control violations.
pub(crate) fn run_checked(cfg: &CampaignConfig) -> Result<Unit, String> {
    let report = run_campaigns(cfg);
    let bad = [
        Outcome::Panicked,
        Outcome::SilentDivergence,
        Outcome::SimError,
    ]
    .into_iter()
    .map(|o| report.count(o))
    .sum::<u32>() as usize
        + report.control_violations.len();
    if bad > 0 {
        return Err(format!(
            "{bad} campaign seeds failed:\n{}",
            report.to_text()
        ));
    }
    let mut d = Digest::default();
    for r in &report.results {
        let outcome = Outcome::ALL.iter().position(|&o| o == r.outcome);
        d.add(r.seed)
            .add(outcome.unwrap_or(usize::MAX) as u64)
            .add(u64::from(r.faults_applied))
            .add(r.cycles);
    }
    d.add(report.control_violations.len() as u64);
    Ok(Unit {
        items: f64::from(cfg.count),
        digest: d.finish(),
    })
}

impl Bench for Campaign {
    fn unit(&mut self) -> Result<Unit, String> {
        run_checked(&self.cfg)
    }
}

/// `restore_from` inside a `snapshot.restore` span; returns the SRAM
/// pages it moved.
fn restore(t: &mut Tracer, m: &mut Machine, snap: &Snapshot) -> u64 {
    let before = m.snapshot_stats().pages_copied;
    t.span("snapshot.restore", || m.restore_from(snap));
    m.snapshot_stats().pages_copied - before
}

/// A fault-free run's observable end state.
fn end_state(exit: ExitReason, m: &Machine) -> (ExitReason, u64, u64) {
    (exit, m.cycles, m.stats.instructions)
}

/// Traced pass over a quarter of the unit's seeds. It re-drives the
/// fault-free half of every seed from public calls, as the engine does
/// it: `restore_from` the boot snapshot, `build_workload`,
/// `try_load_program`, `snapshot_into`, the reference
/// `run_with_heap_service`, then `restore_from` the post-load snapshot
/// and a run with
/// `InvariantChecker::check` at the campaign cadence. The checked run
/// must end exactly like the reference and raise no violation. A warm
/// re-run of the reference (outside the re-drive) isolates block
/// compile cost, and an untraced `run_campaigns` over the same seeds
/// ([`crate::time_again`]) is the end-to-end time the fractions divide.
pub(crate) fn trace(seed: u64, sizes: &Sizes, t: &mut Tracer) -> Result<Traced, String> {
    let cfg = config(seed, (sizes.campaign_seeds / 4).max(1));
    let expected = run_checked(&cfg)?;

    let Boot {
        mut m,
        heap: boot_heap,
        snap: boot_snap,
    } = boot();
    let mut seed_snap = boot_snap.clone();
    let (dir_lo, dir_len) = (layout::SRAM_BASE + DIR_OFFSET, DIR_SLOTS * 8);
    let mut blocks = BlockCacheStats::default();
    let (mut instructions, mut ecalls, mut breaks, mut pages) = (0, 0, 0, 0);
    let (mut cold_ns, mut warm_ns, mut redrive_ns) = (0u64, 0u64, 0u64);
    for s in cfg.seed_base..cfg.seed_base + u64::from(cfg.count) {
        t.set_unit(s);
        let seed_span = t.open("campaign.seed");
        pages += restore(t, &mut m, &boot_snap);
        let (bs0, cow0, insn0) = (
            m.block_stats(),
            m.sram.cow_stats().breaks,
            m.stats.instructions,
        );
        let program = t.span("campaign.build_workload", || build_workload(s));
        let entry = t
            .span("machine.load", || m.try_load_program(&program))
            .map_err(|e| format!("seed {s}: {e}"))?;
        m.set_entry(entry);
        t.span("snapshot.capture", || m.snapshot_into(&mut seed_snap));
        let mut heap = boot_heap.clone();
        let id = t.open("rtos.run.reference");
        let exit = run_with_heap_service(&mut m, &mut heap, cfg.max_cycles);
        cold_ns += t.close(id);
        let reference = end_state(exit, &m);
        if !matches!(exit, ExitReason::Halted(_)) {
            return Err(format!("seed {s}: reference run ended with {exit:?}"));
        }
        ecalls += heap.stats().allocs + heap.stats().frees + 1;
        instructions += m.stats.instructions - insn0;

        pages += restore(t, &mut m, &seed_snap);
        let mut heap = boot_heap.clone();
        let insn1 = m.stats.instructions;
        let mut checker = InvariantChecker::new(cfg.cadence.max(1));
        checker.watch_region(dir_lo, dir_lo + dir_len);
        let mut violations = 0;
        let exit = loop {
            let stop = checker.next_due().min(cfg.max_cycles).max(m.cycles + 1);
            let budget = stop - m.cycles;
            let r = t.span("rtos.run.checked", || {
                run_with_heap_service(&mut m, &mut heap, budget)
            });
            if checker.due(m.cycles) {
                violations += t.span("fault.check", || checker.check(&m, &heap)).len();
            }
            match r {
                ExitReason::CycleLimit if m.cycles < cfg.max_cycles => continue,
                other => break other,
            }
        };
        violations += t.span("fault.check", || checker.check(&m, &heap)).len();
        if end_state(exit, &m) != reference || violations > 0 {
            return Err(format!(
                "seed {s}: checked re-run ended {:?} with {violations} violations, reference {reference:?}",
                end_state(exit, &m)
            ));
        }
        instructions += m.stats.instructions - insn1;
        breaks += m.sram.cow_stats().breaks - cow0;
        crate::block_add(&mut blocks, &crate::block_delta(&m.block_stats(), &bs0));
        redrive_ns += t.close(seed_span);

        // Compile probe, outside the re-drive: the reference again with
        // every block already decoded.
        m.restore_from(&seed_snap);
        let mut heap = boot_heap.clone();
        let id = t.open("rtos.run.warm");
        let exit = run_with_heap_service(&mut m, &mut heap, cfg.max_cycles);
        warm_ns += t.close(id);
        if end_state(exit, &m) != reference {
            return Err(format!("seed {s}: warm re-run diverged from reference"));
        }
    }

    let e2e_ns = crate::time_again(&expected, || run_checked(&cfg))?;
    let seeds = f64::from(cfg.count);
    let compile_ns = cold_ns.saturating_sub(warm_ns) as f64;
    let restores = t.count("snapshot.restore") as f64;
    let mut layers = Layers::new();
    crate::dispatch_layers(&mut layers, &blocks, instructions);
    layers.insert("compile.blocks_built", blocks.misses as f64);
    layers.insert(
        "compile.us_per_block",
        stats::ratio(compile_ns / 1e3, blocks.misses as f64),
    );
    layers.insert("compile.frac", compile_ns / e2e_ns);
    layers.insert("snapshot.restore_ns", t.mean_ns("snapshot.restore"));
    layers.insert(
        "snapshot.restore_pages",
        stats::ratio(pages as f64, restores),
    );
    layers.insert("snapshot.capture_ns", t.mean_ns("snapshot.capture"));
    layers.insert("cow.breaks_per_seed", breaks as f64 / seeds);
    layers.insert("heap.ecalls_per_seed", ecalls as f64 / seeds);
    layers.insert("fault.check_us", t.mean_ns("fault.check") / 1e3);
    layers.insert(
        "fault.checks_per_seed",
        t.count("fault.check") as f64 / seeds,
    );
    layers.insert("campaign.faulted_frac", 1.0 - redrive_ns as f64 / e2e_ns);
    Ok(Traced { layers, checks: 3 })
}
