//! Seeded fault campaigns: reference run, faulted run, classification.
//!
//! A campaign takes one seed and answers one question: *when this exact
//! sequence of faults strikes this exact guest, does anything escape?* The
//! guest is a seed-parameterised malloc/store/load/free workload that
//! finishes by exiting with a data checksum, so any unflagged corruption of
//! its behaviour shows up as a fingerprint mismatch against a fault-free
//! reference run of the same seed. Each campaign is classified:
//!
//! - **benign** — fingerprint identical to the reference; the fault landed
//!   somewhere inert (or dissipated, e.g. no tagged granule in range).
//! - **trapped-safely** — the modelled hardware converted the fault into a
//!   CHERI trap before any corrupted access completed.
//! - **invariant-violation** — the cadence checker caught the corruption
//!   in machine state. For injected faults this is a *detection*, the
//!   second line of defence the tentpole asks for.
//! - **sim-error** — the simulator refused the run gracefully (watchdog,
//!   cycle budget) instead of wedging.
//! - **silent-divergence** — the fingerprint changed with no trap and no
//!   violation: corruption escaped. The headline claim is that the
//!   tag/bounds/bitmap classes never produce one.
//! - **panicked** — the simulator itself fell over; always a bug.
//!
//! Campaigns run in parallel on a work-stealing pool
//! ([`cheriot_core::sched::work_steal_with`]), each seed wrapped in
//! `catch_unwind` so one panicking seed is reported, not fatal. Each
//! worker keeps one reusable machine and forks every run from an O(dirty)
//! snapshot restore ([`SeedWorker`]). The per-seed-reboot path is not a
//! selectable engine: it survives only as the test module's fresh-boot
//! oracle, which `snapshot_and_reboot_paths_agree_exactly` holds the
//! engine to, byte for byte.

use crate::inject::Injector;
use crate::invariant::{InvariantChecker, InvariantViolation};
use crate::plan::{FaultClass, FaultPlan, PlanConfig};
use crate::rng::XorShift64;
use cheriot_alloc::{HeapAllocator, RevokerKind, TemporalPolicy};
use cheriot_asm::Asm;
use cheriot_cap::Capability;
use cheriot_core::insn::Reg;
use cheriot_core::layout::{CODE_BASE, SRAM_BASE};
use cheriot_core::sched::work_steal_with;
use cheriot_core::{CoreModel, ExitReason, Machine, MachineConfig, Snapshot, SnapshotStats};
use cheriot_rtos::run_with_heap_service;
use cheriot_trace::json::Json;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory of guest-held capabilities: first address, slot count and
/// byte length. It sits in the globals area below the heap, reaches the
/// guest as the capability in `gp`, and is watched strictly by the
/// invariant checker (it only ever holds heap pointers).
const DIR_LO: u32 = SRAM_BASE + 0x100;
const DIR_SLOTS: u32 = 24;
const DIR_LEN: u32 = DIR_SLOTS * 8;

/// Classified result of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Fingerprint identical to the reference run.
    Benign,
    /// The fault became an architectural CHERI trap.
    TrappedSafely,
    /// The invariant checker flagged the corruption.
    InvariantViolation,
    /// Graceful simulator refusal (watchdog / cycle budget / load error).
    SimError,
    /// Corruption escaped: changed behaviour, no trap, no violation.
    SilentDivergence,
    /// The simulator panicked. Always a bug.
    Panicked,
}

impl Outcome {
    /// Every outcome, in report order.
    pub const ALL: &'static [Outcome] = &[
        Outcome::Benign,
        Outcome::TrappedSafely,
        Outcome::InvariantViolation,
        Outcome::SimError,
        Outcome::SilentDivergence,
        Outcome::Panicked,
    ];

    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::TrappedSafely => "trapped-safely",
            Outcome::InvariantViolation => "invariant-violation",
            Outcome::SimError => "sim-error",
            Outcome::SilentDivergence => "silent-divergence",
            Outcome::Panicked => "panicked",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Campaign-suite parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed of the first campaign; campaign `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Number of campaigns.
    pub count: u32,
    /// Worker threads (clamped to `[1, count]`).
    pub threads: u32,
    /// Fault classes drawn from (uniformly) by each plan.
    pub classes: Vec<FaultClass>,
    /// Faults scheduled per campaign.
    pub faults_per_run: u32,
    /// Invariant-checker cadence in cycles.
    pub cadence: u64,
    /// Per-run cycle budget.
    pub max_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed_base: 1,
            count: 64,
            threads: 1,
            classes: FaultClass::HEADLINE.to_vec(),
            faults_per_run: 3,
            cadence: 2_000,
            max_cycles: 30_000_000,
        }
    }
}

/// Result of one seeded campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// The campaign's seed.
    pub seed: u64,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Faults that actually mutated state (skips excluded).
    pub faults_applied: u32,
    /// Cycles the faulted run consumed.
    pub cycles: u64,
    /// Outcome specifics (trap cause, first violation, divergence diff…).
    pub detail: String,
}

/// Aggregated campaign-suite report.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration the suite ran under.
    pub config: CampaignConfig,
    /// Per-seed results, sorted by seed.
    pub results: Vec<CampaignResult>,
    /// Violations flagged by the checker on the fault-free control run.
    /// Any entry here means the checker itself (or the simulator) is
    /// broken: a clean run must be invariant-silent.
    pub control_violations: Vec<InvariantViolation>,
    /// Snapshot restores performed by the fork engine.
    pub snapshot_restores: u64,
    /// SRAM pages moved across those restores: the pages whose CoW
    /// handles differed from the snapshot's. A rising pages-per-restore
    /// ratio flags a write path unsharing pages it did not need to.
    pub dirty_pages_copied: u64,
    /// Host bytes those restores actually moved (honest accounting: page
    /// handle adoptions, plus the console backlog and code-handle
    /// adoptions).
    pub snapshot_bytes_copied: u64,
}

impl CampaignReport {
    /// Count of campaigns with the given outcome.
    pub fn count(&self, o: Outcome) -> u32 {
        self.results.iter().filter(|r| r.outcome == o).count() as u32
    }

    /// True when the suite found a real problem: a simulator panic, a
    /// silent divergence, or a spurious violation on the fault-free
    /// control run. Checker detections of *injected* faults are successes
    /// (the headline's "caught by the invariant checker") and do not fail
    /// the suite.
    pub fn failed(&self) -> bool {
        self.count(Outcome::Panicked) > 0
            || self.count(Outcome::SilentDivergence) > 0
            || !self.control_violations.is_empty()
    }

    /// Plain-text report.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let classes: Vec<&str> = self.config.classes.iter().map(|c| c.name()).collect();
        s.push_str(&format!(
            "fault campaign: {} seeds from {} | kinds: {} | {} faults/run | cadence {} cycles\n",
            self.config.count,
            self.config.seed_base,
            classes.join(","),
            self.config.faults_per_run,
            self.config.cadence,
        ));
        for &o in Outcome::ALL {
            s.push_str(&format!("  {:>20}: {}\n", o.name(), self.count(o)));
        }
        s.push_str(&format!(
            "  control run violations: {}\n",
            self.control_violations.len()
        ));
        s.push_str(&format!(
            "  snapshot engine: {} restores, {} dirty pages copied, {} bytes moved\n",
            self.snapshot_restores, self.dirty_pages_copied, self.snapshot_bytes_copied
        ));
        for r in &self.results {
            if matches!(
                r.outcome,
                Outcome::Panicked | Outcome::SilentDivergence | Outcome::SimError
            ) {
                s.push_str(&format!(
                    "  seed {}: {} ({})\n",
                    r.seed, r.outcome, r.detail
                ));
            }
        }
        s.push_str(if self.failed() {
            "RESULT: FAIL\n"
        } else {
            "RESULT: PASS\n"
        });
        s
    }

    /// JSON report, built through the workspace's JSON codec
    /// ([`cheriot_trace::json::Json`]) rather than string concatenation.
    pub fn to_json(&self) -> String {
        let mut doc = Json::obj();
        doc.push("seed_base", self.config.seed_base);
        doc.push("count", u64::from(self.config.count));
        doc.push("threads", self.config.threads);
        doc.push(
            "kinds",
            Json::Arr(
                self.config
                    .classes
                    .iter()
                    .map(|c| Json::Str(c.name().to_string()))
                    .collect(),
            ),
        );
        doc.push("faults_per_run", u64::from(self.config.faults_per_run));
        doc.push("cadence", self.config.cadence);
        doc.push("snapshot_restores", self.snapshot_restores);
        doc.push("dirty_pages_copied", self.dirty_pages_copied);
        doc.push("snapshot_bytes_copied", self.snapshot_bytes_copied);
        let mut outcomes = Json::obj();
        for &o in Outcome::ALL {
            outcomes.push(o.name(), u64::from(self.count(o)));
        }
        doc.push("outcomes", outcomes);
        doc.push("control_violations", self.control_violations.len());
        doc.push("passed", !self.failed());
        doc.push(
            "campaigns",
            Json::Arr(
                self.results
                    .iter()
                    .map(|r| {
                        let mut row = Json::obj();
                        row.push("seed", r.seed);
                        row.push("outcome", r.outcome.name());
                        row.push("faults", u64::from(r.faults_applied));
                        row.push("cycles", r.cycles);
                        row.push("detail", r.detail.as_str());
                        row
                    })
                    .collect(),
            ),
        );
        doc.render()
    }
}

/// Behavioural fingerprint of a run: everything the outside world can see.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    exit: ExitReason,
    console: Vec<u8>,
    gpio_out: u32,
    gpio_writes: u64,
}

impl Fingerprint {
    /// Builds the fingerprint by *stealing* the console buffer from the
    /// finished machine — the machine is dropped or restored from a
    /// snapshot right after, so cloning the buffer would be a pure
    /// per-run allocation.
    fn take(exit: ExitReason, m: &mut Machine) -> Fingerprint {
        Fingerprint {
            exit,
            console: std::mem::take(&mut m.console),
            gpio_out: m.gpio_out,
            gpio_writes: m.gpio_writes,
        }
    }
}

/// Dispatch modes as `(block_cache, block_chain)`. The engine runs
/// every seed stepwise: a seed's code is branch-free and each of its
/// blocks would run exactly twice (reference, then faulted fork), so
/// building blocks costs more than it saves. The test oracle runs its
/// faulted boot chained, and the cross-mode equivalence tests exercise
/// all three modes.
const STEPWISE: (bool, bool) = (false, false);
#[cfg(test)]
const CACHED: (bool, bool) = (true, false);
/// Block cache + chaining + superblocks — the machine default.
#[cfg(test)]
const CHAINED: (bool, bool) = (true, true);

/// Boots a campaign machine under `dispatch`: ibex core, a heap with
/// hardware-revoker quarantine, and the directory capability in `gp`.
/// No program is loaded yet. Returns a structured error, never a panic.
fn boot(dispatch: (bool, bool)) -> Result<(Machine, HeapAllocator), String> {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    (mc.block_cache, mc.block_chain) = dispatch;
    let mut m = Machine::new(mc);
    let heap = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let dir_cap = Capability::root_mem_rw()
        .with_address(DIR_LO)
        .set_bounds(u64::from(DIR_LEN))
        .ok_or_else(|| "directory capability is unrepresentable".to_string())?;
    m.cpu.write(Reg::GP, dir_cap);
    Ok((m, heap))
}

/// Builds the seed-parameterised guest: an unrolled malloc/store/load/free
/// churn over a capability directory, exiting with a running checksum.
/// Everything the guest will do is decided here, host-side, from the seed
/// alone — the instruction stream itself is deterministic and branch-free,
/// so the only nondeterminism in a campaign is the injected faults.
///
/// Public so property tests and benches can run campaign-grade guests
/// without reimplementing the generator.
pub fn build_workload(seed: u64) -> Vec<cheriot_core::insn::Instr> {
    let mut rng = XorShift64::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let mut a = Asm::new();
    let rounds = 12 + rng.gen_range(0, 9) as u32; // 12..=20
    a.li(Reg::A5, 0); // checksum accumulator
                      // Host-side model of which directory slot holds a live allocation of
                      // what size (so reads/frees only ever use valid slots in the
                      // fault-free reference).
    let mut slots: Vec<Option<u32>> = vec![None; DIR_SLOTS as usize];

    for round in 0..rounds {
        // size: 16..=256 bytes, 8-aligned.
        let size = 16 + (rng.gen_range(0, 31) as u32) * 8;
        let slot = (round % DIR_SLOTS) as usize;
        let val = rng.next_u32() & 0x7fff_ffff;
        // p = malloc(size)
        a.li(Reg::A0, 1);
        a.li(Reg::A1, size as i32);
        a.ecall();
        a.cmove(Reg::S0, Reg::A0);
        // first and last word of the allocation, then read one back.
        a.li(Reg::T0, val as i32);
        a.sw(Reg::T0, 0, Reg::S0);
        a.sw(Reg::T0, (size - 4) as i32, Reg::S0);
        a.lw(Reg::T1, 0, Reg::S0);
        a.add(Reg::A5, Reg::A5, Reg::T1);
        // publish into the directory.
        a.csc(Reg::S0, (slot * 8) as i32, Reg::GP);
        slots[slot] = Some(size);
        // Sometimes stash the new cap inside an older live allocation so
        // the heap itself holds capabilities the checker must vet.
        if rng.gen_range(0, 3) == 0 {
            if let Some(prev) = pick_live(&mut rng, &slots, |sz| sz >= 16, slot) {
                a.clc(Reg::S1, (prev * 8) as i32, Reg::GP);
                a.csc(Reg::S0, 8, Reg::S1);
            }
        }
        // Read back through an older live allocation.
        if let Some(q) = pick_live(&mut rng, &slots, |_| true, usize::MAX) {
            a.clc(Reg::S1, (q * 8) as i32, Reg::GP);
            a.lw(Reg::T1, 0, Reg::S1);
            a.add(Reg::A5, Reg::A5, Reg::T1);
        }
        // Free roughly a third of the time.
        if rng.gen_range(0, 3) == 1 {
            if let Some(f) = pick_live(&mut rng, &slots, |_| true, usize::MAX) {
                a.li(Reg::A0, 2);
                a.clc(Reg::A1, (f * 8) as i32, Reg::GP);
                a.ecall();
                slots[f] = None;
            }
        }
    }
    // exit(checksum)
    a.li(Reg::A0, 3);
    a.mv(Reg::A1, Reg::A5);
    a.ecall();
    a.assemble()
}

fn pick_live(
    rng: &mut XorShift64,
    slots: &[Option<u32>],
    want: impl Fn(u32) -> bool,
    exclude: usize,
) -> Option<usize> {
    let candidates = || {
        slots
            .iter()
            .enumerate()
            .filter(|&(i, s)| i != exclude && s.is_some_and(&want))
            .map(|(i, _)| i)
    };
    let n = candidates().count();
    if n == 0 {
        return None;
    }
    candidates().nth(rng.gen_range(0, n as u64) as usize)
}

/// A [`Outcome::SimError`] result: the simulator refused the seed.
fn sim_error(seed: u64, detail: String) -> CampaignResult {
    CampaignResult {
        seed,
        outcome: Outcome::SimError,
        faults_applied: 0,
        cycles: 0,
        detail,
    }
}

/// The faulted half of a campaign, starting from a machine in post-load
/// state (however it got there — fresh boot or snapshot fork): arm the
/// watchdog, generate and inject the plan, run the cadence checker, and
/// classify against the reference fingerprint. Shared verbatim by the
/// snapshot/fork engine and the test module's fresh-boot oracle so the
/// two cannot drift.
///
/// Kept out of line: inlined into its one production caller
/// (`SeedWorker::run_seed`), the campaign benchmark ran about 3% fewer
/// seeds per second on a 2-vCPU x86-64 VM.
#[inline(never)]
fn run_faulted_phase(
    m: &mut Machine,
    heap: &mut HeapAllocator,
    seed: u64,
    cfg: &CampaignConfig,
    reference: &Fingerprint,
    ref_cycles: u64,
    ref_instructions: u64,
) -> CampaignResult {
    m.set_watchdog(Some(
        ref_instructions.saturating_mul(4).saturating_add(100_000),
    ));
    let (hb, he) = heap.heap_range();
    // The workload only churns the first few KiB of the heap; aiming the
    // plan at that prefix (plus the directory) keeps the fault hit rate
    // high instead of scattering targets across empty SRAM.
    let used_he = he.min(hb + 32 * 1024);
    let plan = FaultPlan::generate(
        seed,
        &PlanConfig {
            classes: cfg.classes.clone(),
            count: cfg.faults_per_run,
            window: (ref_cycles / 10, ref_cycles.saturating_mul(9) / 10),
            region: (DIR_LO, used_he),
            heap: (hb, used_he),
            code: (CODE_BASE, m.code_end()),
        },
    );
    let mut injector = Injector::new(plan);
    let (exit, violations) = run_under_checker(m, heap, cfg, Some(&mut injector));

    let faults_applied = injector.applied();
    let cycles = m.cycles;
    let (outcome, detail) = if !violations.is_empty() {
        (
            Outcome::InvariantViolation,
            format!(
                "{} violation(s); first: {}",
                violations.len(),
                violations[0]
            ),
        )
    } else {
        match exit {
            ExitReason::Watchdog => (Outcome::SimError, format!("{}", m.watchdog_error())),
            ExitReason::CycleLimit => (
                Outcome::SimError,
                format!("cycle budget ({}) exhausted", cfg.max_cycles),
            ),
            ExitReason::Fault(t) => (Outcome::TrappedSafely, format!("trap: {t:?}")),
            ExitReason::Halted(code) => {
                let faulted = Fingerprint::take(exit, m);
                if faulted == *reference {
                    (Outcome::Benign, String::new())
                } else {
                    (
                        Outcome::SilentDivergence,
                        format!(
                            "exit {:?} vs reference {:?}; console {}B vs {}B; \
                             gpio {:#x}/{} vs {:#x}/{}",
                            code,
                            reference.exit,
                            faulted.console.len(),
                            reference.console.len(),
                            faulted.gpio_out,
                            faulted.gpio_writes,
                            reference.gpio_out,
                            reference.gpio_writes,
                        ),
                    )
                }
            }
            other => (Outcome::SimError, format!("unexpected exit: {other:?}")),
        }
    };
    CampaignResult {
        seed,
        outcome,
        faults_applied,
        cycles,
        detail,
    }
}

/// Per-worker state for the snapshot/fork engine: one reusable machine,
/// the post-boot snapshot every seed starts from, a reusable post-load
/// snapshot buffer, and the boot-state allocator to clone per run.
///
/// A seed costs two O(dirty) restores, one workload build and one
/// `HeapAllocator` clone per run, and no boot. The machine boots
/// stepwise, so the reference run, the faulted fork and the control run
/// build no predecoded blocks (`seed_worker_builds_no_blocks` pins
/// this). Dispatch is architecturally invisible — cycles, fingerprints
/// and trap PCs are identical in every mode, which
/// `faulted_runs_identical_across_dispatch_modes` and the oracle test
/// (whose faulted boot runs chained) assert.
struct SeedWorker {
    m: Machine,
    boot_heap: HeapAllocator,
    boot_snap: Snapshot,
    seed_snap: Snapshot,
    /// Snapshot counters already harvested into the suite totals.
    harvested: SnapshotStats,
}

impl SeedWorker {
    fn new() -> Result<SeedWorker, String> {
        let (mut m, boot_heap) = boot(STEPWISE)?;
        let boot_snap = m.snapshot();
        let seed_snap = boot_snap.clone();
        Ok(SeedWorker {
            m,
            boot_heap,
            boot_snap,
            seed_snap,
            harvested: SnapshotStats::default(),
        })
    }

    /// Back to the (program-free) boot state — O(dirty from last run) —
    /// then loads `seed`'s workload. Returns the boot-state allocator the
    /// run starts from.
    fn load(&mut self, seed: u64) -> Result<HeapAllocator, String> {
        self.m.restore_from(&self.boot_snap);
        let entry = self
            .m
            .try_load_program(&build_workload(seed))
            .map_err(|e| e.to_string())?;
        self.m.set_entry(entry);
        Ok(self.boot_heap.clone())
    }

    /// One campaign through the fork engine. The restored machine is
    /// byte-identical to a fresh boot (asserted by the core snapshot
    /// tests), so reference cycles, plan windows, and classifications
    /// match the fresh-boot oracle exactly.
    fn run_seed(&mut self, seed: u64, cfg: &CampaignConfig) -> CampaignResult {
        let mut heap = match self.load(seed) {
            Ok(heap) => heap,
            Err(e) => return sim_error(seed, format!("reference setup: {e}")),
        };
        // Capture the post-load fork point. Loading touches only the code
        // region, so the SRAM side of this capture copies zero pages.
        self.m.snapshot_into(&mut self.seed_snap);
        // Reference run.
        let r_ref = run_with_heap_service(&mut self.m, &mut heap, cfg.max_cycles);
        if !matches!(r_ref, ExitReason::Halted(_)) {
            return sim_error(
                seed,
                format!("reference run did not exit cleanly: {r_ref:?}"),
            );
        }
        let reference = Fingerprint::take(r_ref, &mut self.m);
        let ref_cycles = self.m.cycles.max(1);
        let ref_instructions = self.m.stats.instructions;
        // Fork the faulted run from the post-load snapshot.
        self.m.restore_from(&self.seed_snap);
        let mut heap = self.boot_heap.clone();
        run_faulted_phase(
            &mut self.m,
            &mut heap,
            seed,
            cfg,
            &reference,
            ref_cycles,
            ref_instructions,
        )
    }

    /// Snapshot-counter deltas since the last harvest.
    fn harvest(&mut self) -> (u64, u64, u64) {
        let s = self.m.snapshot_stats();
        let d = (
            s.restores - self.harvested.restores,
            s.pages_copied - self.harvested.pages_copied,
            s.bytes_copied - self.harvested.bytes_copied,
        );
        self.harvested = s;
        d
    }
}

/// A fault-free control run of `seed`, forked from a fresh
/// [`SeedWorker`], under the cadence checker: returns any violations the
/// checker reports. A clean simulator must return none; anything here is
/// a checker false positive or a simulator bug, and fails the suite.
fn run_control(seed: u64, cfg: &CampaignConfig) -> Vec<InvariantViolation> {
    let loaded = SeedWorker::new().and_then(|mut w| Ok((w.load(seed)?, w)));
    let Ok((mut heap, mut w)) = loaded else {
        return vec![InvariantViolation {
            kind: crate::invariant::InvariantKind::TagProvenance,
            cycle: 0,
            addr: None,
            detail: "control run failed to load".into(),
        }];
    };
    run_under_checker(&mut w.m, &mut heap, cfg, None).1
}

/// Runs a loaded machine until it exits or reaches `cfg.max_cycles`,
/// applying `injector`'s faults (if any) as their cycles come due and
/// checking invariants at every cadence point, once more at exit (so
/// corruption planted just before exit is still seen) and for allocator
/// consistency. The one checked-run loop behind both the faulted runs
/// and the fault-free control run. Returns the exit and every violation.
fn run_under_checker(
    m: &mut Machine,
    heap: &mut HeapAllocator,
    cfg: &CampaignConfig,
    mut injector: Option<&mut Injector>,
) -> (ExitReason, Vec<InvariantViolation>) {
    let mut checker = InvariantChecker::new(cfg.cadence.max(1));
    checker.watch_region(DIR_LO, DIR_LO + DIR_LEN);
    let mut violations = Vec::new();
    let deadline = cfg.max_cycles;
    let exit = loop {
        let next_fault = injector.as_ref().and_then(|i| i.next_cycle());
        let next_stop = next_fault
            .unwrap_or(u64::MAX)
            .min(checker.next_due())
            .min(deadline)
            .max(m.cycles + 1);
        let budget = next_stop - m.cycles;
        let r = run_with_heap_service(m, heap, budget);
        if let Some(injector) = injector.as_deref_mut() {
            injector.poll(m);
        }
        if checker.due(m.cycles) {
            violations.extend(checker.check(m, heap));
        }
        match r {
            ExitReason::CycleLimit if m.cycles < deadline => continue,
            other => break other,
        }
    };
    violations.extend(checker.check(m, heap));
    if let Err(e) = heap.check_consistency(m) {
        violations.push(InvariantViolation {
            kind: crate::invariant::InvariantKind::BoundsMonotonicity,
            cycle: m.cycles,
            addr: None,
            detail: format!("allocator consistency: {e}"),
        });
    }
    (exit, violations)
}

/// Runs the whole suite: one control run plus `count` seeded campaigns
/// fanned out over a work-stealing pool of `threads` workers, each campaign
/// wrapped in `catch_unwind`.
///
/// Each worker carries a [`SeedWorker`] — one reusable machine forked per
/// seed from an O(dirty) snapshot restore. Workers claim seeds from a
/// shared cursor, so one slow seed never idles the rest of the pool the
/// way the old fixed stride did.
pub fn run_campaigns(cfg: &CampaignConfig) -> CampaignReport {
    let control_violations = run_control(cfg.seed_base, cfg);
    let threads = cfg.threads.clamp(1, cfg.count.max(1)) as usize;
    let count = cfg.count as usize;
    let restores = AtomicU64::new(0);
    let pages_copied = AtomicU64::new(0);
    let bytes_copied = AtomicU64::new(0);
    let results = work_steal_with(count, threads, SeedWorker::new, |state, i| {
        let seed = cfg.seed_base + i as u64;
        let worker = match state {
            Ok(worker) => worker,
            Err(e) => return sim_error(seed, format!("snapshot worker setup: {e}")),
        };
        let r = catch_unwind(AssertUnwindSafe(|| worker.run_seed(seed, cfg)));
        let (dr, dp, db) = worker.harvest();
        restores.fetch_add(dr, Ordering::Relaxed);
        pages_copied.fetch_add(dp, Ordering::Relaxed);
        bytes_copied.fetch_add(db, Ordering::Relaxed);
        r.unwrap_or_else(|p| {
            // The worker machine may be wedged mid-run; rebuild it so
            // subsequent seeds start from a clean boot.
            *state = SeedWorker::new();
            CampaignResult {
                seed,
                outcome: Outcome::Panicked,
                faults_applied: 0,
                cycles: 0,
                detail: panic_message(&p),
            }
        })
    });
    CampaignReport {
        config: cfg.clone(),
        results,
        control_violations,
        snapshot_restores: restores.into_inner(),
        dirty_pages_copied: pages_copied.into_inner(),
        snapshot_bytes_copied: bytes_copied.into_inner(),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh boot with `seed`'s workload loaded: the per-seed-reboot
    /// starting state every engine restore must reproduce.
    fn fresh_run(seed: u64, dispatch: (bool, bool)) -> Result<(Machine, HeapAllocator), String> {
        let (mut m, heap) = boot(dispatch)?;
        let entry = m
            .try_load_program(&build_workload(seed))
            .map_err(|e| e.to_string())?;
        m.set_entry(entry);
        Ok((m, heap))
    }

    /// The fresh-boot oracle for one seed: the per-seed-reboot campaign
    /// the engine must match exactly. The reference runs stepwise on one
    /// boot; the faulted run boots again, chained, and goes through the
    /// engine's own [`run_faulted_phase`]. Any cycle or behaviour drift
    /// between the dispatch tiers therefore shows up as a divergence.
    fn oracle_seed(seed: u64, cfg: &CampaignConfig) -> CampaignResult {
        let (mut m, mut heap) = match fresh_run(seed, STEPWISE) {
            Ok(v) => v,
            Err(e) => return sim_error(seed, format!("reference setup: {e}")),
        };
        let r_ref = run_with_heap_service(&mut m, &mut heap, cfg.max_cycles);
        if !matches!(r_ref, ExitReason::Halted(_)) {
            return sim_error(
                seed,
                format!("reference run did not exit cleanly: {r_ref:?}"),
            );
        }
        let reference = Fingerprint::take(r_ref, &mut m);
        let ref_cycles = m.cycles.max(1);
        let ref_instructions = m.stats.instructions;
        let (mut m, mut heap) = match fresh_run(seed, CHAINED) {
            Ok(v) => v,
            Err(e) => return sim_error(seed, format!("faulted setup: {e}")),
        };
        run_faulted_phase(
            &mut m,
            &mut heap,
            seed,
            cfg,
            &reference,
            ref_cycles,
            ref_instructions,
        )
    }

    /// The oracle's whole suite, serially: per-seed results and the
    /// control run's violations, from fresh boots only.
    fn oracle_campaigns(cfg: &CampaignConfig) -> (Vec<CampaignResult>, Vec<InvariantViolation>) {
        let (mut m, mut heap) = fresh_run(cfg.seed_base, CHAINED).unwrap();
        let control = run_under_checker(&mut m, &mut heap, cfg, None).1;
        let results = (0..u64::from(cfg.count))
            .map(|i| oracle_seed(cfg.seed_base + i, cfg))
            .collect();
        (results, control)
    }

    #[test]
    fn workload_reference_run_is_clean_and_deterministic() {
        // The second run executes cache-on: determinism across the two
        // execution paths, not just across repetitions, is the contract.
        for seed in [1u64, 2, 3, 99] {
            let (mut m, mut heap) = fresh_run(seed, STEPWISE).unwrap();
            let r1 = run_with_heap_service(&mut m, &mut heap, 30_000_000);
            let ExitReason::Halted(c1) = r1 else {
                panic!("seed {seed}: reference must halt, got {r1:?}");
            };
            heap.check_consistency(&m).unwrap();
            let (mut m2, mut heap2) = fresh_run(seed, CHAINED).unwrap();
            let r2 = run_with_heap_service(&mut m2, &mut heap2, 30_000_000);
            assert_eq!(
                r2,
                ExitReason::Halted(c1),
                "reference must be deterministic"
            );
            assert_eq!(m.cycles, m2.cycles);
            assert_eq!(m.stats.instructions, m2.stats.instructions);
            // The workload is straight-line code, so blocks are compiled
            // and executed once each (misses, not hits) — what matters is
            // that the cache-on path was actually taken.
            assert!(
                m2.block_stats().misses > 0,
                "cache-on run should actually exercise the block cache"
            );
        }
    }

    #[test]
    fn workloads_differ_across_seeds() {
        let a = build_workload(1);
        let b = build_workload(2);
        assert_ne!(a.len(), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn control_run_is_invariant_silent() {
        let cfg = CampaignConfig::default();
        let v = run_control(5, &cfg);
        assert!(v.is_empty(), "control run must be clean: {v:?}");
    }

    #[test]
    fn campaign_results_are_reproducible() {
        let cfg = CampaignConfig {
            count: 4,
            ..CampaignConfig::default()
        };
        let a = oracle_seed(cfg.seed_base + 2, &cfg);
        let b = oracle_seed(cfg.seed_base + 2, &cfg);
        assert_eq!(a, b);
    }

    /// Mirrors the oracle's faulted loop with the block cache forced to the
    /// given mode, returning the full behavioural fingerprint plus cycle and
    /// instruction counts.
    fn faulted_run(
        seed: u64,
        classes: &[FaultClass],
        dispatch: (bool, bool),
    ) -> (Fingerprint, u64, u64) {
        let deadline = 30_000_000u64;
        let (mut m, mut heap) = fresh_run(seed, STEPWISE).unwrap();
        let r = run_with_heap_service(&mut m, &mut heap, deadline);
        assert!(matches!(r, ExitReason::Halted(_)), "seed {seed}: {r:?}");
        let ref_cycles = m.cycles.max(1);
        let wd = m.stats.instructions.saturating_mul(4) + 100_000;

        let (mut m, mut heap) = fresh_run(seed, dispatch).unwrap();
        m.set_watchdog(Some(wd));
        let (hb, he) = heap.heap_range();
        let used_he = he.min(hb + 32 * 1024);
        let plan = FaultPlan::generate(
            seed,
            &PlanConfig {
                classes: classes.to_vec(),
                count: 6,
                window: (ref_cycles / 10, ref_cycles.saturating_mul(9) / 10),
                region: (DIR_LO, used_he),
                heap: (hb, used_he),
                code: (CODE_BASE, m.code_end()),
            },
        );
        let mut injector = Injector::new(plan);
        let exit = loop {
            let next_stop = injector
                .next_cycle()
                .unwrap_or(u64::MAX)
                .min(deadline)
                .max(m.cycles + 1);
            let budget = next_stop - m.cycles;
            let r = run_with_heap_service(&mut m, &mut heap, budget);
            injector.poll(&mut m);
            match r {
                ExitReason::CycleLimit if m.cycles < deadline => continue,
                other => break other,
            }
        };
        (
            Fingerprint::take(exit, &mut m),
            m.cycles,
            m.stats.instructions,
        )
    }

    #[test]
    fn faulted_runs_identical_across_dispatch_modes() {
        // The strongest exactness check: the faulted run (including code
        // bit-flips, which rewrite instructions mid-run and must invalidate
        // predecoded blocks, successor links and promoted superblocks)
        // produces a byte-identical fingerprint and the same cycle and
        // instruction counts in all three dispatch modes. Injection points
        // land at the same slice boundaries only if the whole dispatch
        // stack is architecturally invisible.
        let classes = vec![
            FaultClass::Tag,
            FaultClass::Bounds,
            FaultClass::Bitmap,
            FaultClass::Code,
        ];
        for seed in [7u64, 8, 9, 10, 11, 12] {
            let chained = faulted_run(seed, &classes, CHAINED);
            let cached = faulted_run(seed, &classes, CACHED);
            let stepwise = faulted_run(seed, &classes, STEPWISE);
            assert_eq!(chained, cached, "seed {seed}: chained vs cached");
            assert_eq!(cached, stepwise, "seed {seed}: cached vs stepwise");
        }
    }

    #[test]
    fn chain_mode_smoke_64_seeds_faulted_runs_identical() {
        // Satellite smoke: 64 seeds of code/tag fault campaigns executed
        // through the chained dispatch loop and through the unchained
        // block cache must fingerprint identically (the per-seed stepwise
        // reference inside `faulted_run` anchors both). Code faults make
        // this a stress of link/IC invalidation under mid-run patching.
        let classes = vec![FaultClass::Tag, FaultClass::Code];
        for seed in 1u64..=64 {
            let chained = faulted_run(seed, &classes, CHAINED);
            let cached = faulted_run(seed, &classes, CACHED);
            assert_eq!(chained, cached, "seed {seed}: chained vs cached");
        }
    }

    #[test]
    fn engine_smoke_64_seeds_4_threads_zero_silent_divergence() {
        // A 64-seed headline campaign through the engine on 4 workers,
        // each reusing its machine across the seeds it steals. Any state
        // leaking from one seed into the next, or any drift between the
        // reference and the faulted fork, would surface as a panic or a
        // SilentDivergence.
        let cfg = CampaignConfig {
            seed_base: 1,
            count: 64,
            threads: 4,
            ..CampaignConfig::default()
        };
        let report = run_campaigns(&cfg);
        assert_eq!(report.results.len(), 64);
        assert_eq!(report.count(Outcome::Panicked), 0, "{}", report.to_text());
        assert_eq!(
            report.count(Outcome::SilentDivergence),
            0,
            "{}",
            report.to_text()
        );
        assert!(!report.failed());
    }

    #[test]
    fn seed_worker_builds_no_blocks() {
        // The engine runs stepwise: every seed's reference run, its
        // faulted fork (code faults included) and the control run
        // execute without building or adopting a predecoded block.
        let cfg = CampaignConfig {
            classes: vec![
                FaultClass::Tag,
                FaultClass::Bounds,
                FaultClass::Bitmap,
                FaultClass::Code,
            ],
            ..CampaignConfig::default()
        };
        let mut w = SeedWorker::new().unwrap();
        let mut applied = 0;
        for seed in 40u64..48 {
            applied += w.run_seed(seed, &cfg).faults_applied;
            let b = w.m.block_stats();
            assert_eq!((b.misses, b.shared), (0, 0), "seed {seed}");
        }
        assert!(applied > 0, "no fault was applied");
        let mut heap = w.load(cfg.seed_base).unwrap();
        assert!(run_under_checker(&mut w.m, &mut heap, &cfg, None)
            .1
            .is_empty());
        let b = w.m.block_stats();
        assert_eq!((b.misses, b.shared), (0, 0), "control run");
    }

    #[test]
    fn snapshot_and_reboot_paths_agree_exactly() {
        // The acceptance gate for the fork engine: `run_campaigns` must be
        // bit-for-bit equivalent to the fresh-boot oracle — identical
        // outcomes, fault counts, cycle counts, and detail strings (which
        // embed trap causes and divergence fingerprint summaries), and an
        // identical control run. Two blocks: seeds 40-59 with code faults
        // on 3 threads, and seeds 1-64 of the headline classes on 2
        // threads (the seed block of CI's fault-campaign smoke).
        let blocks = [
            CampaignConfig {
                seed_base: 40,
                count: 20,
                threads: 3,
                classes: vec![
                    FaultClass::Tag,
                    FaultClass::Bounds,
                    FaultClass::Bitmap,
                    FaultClass::Code,
                ],
                ..CampaignConfig::default()
            },
            CampaignConfig {
                seed_base: 1,
                count: 64,
                threads: 2,
                classes: vec![FaultClass::Tag, FaultClass::Bounds, FaultClass::Bitmap],
                ..CampaignConfig::default()
            },
        ];
        for cfg in blocks {
            let engine = run_campaigns(&cfg);
            let (oracle, oracle_control) = oracle_campaigns(&cfg);
            assert_eq!(engine.results.len(), oracle.len());
            for (e, o) in engine.results.iter().zip(&oracle) {
                assert_eq!(e, o, "seed {}: engine diverged from the oracle", o.seed);
            }
            assert_eq!(engine.control_violations, oracle_control);
            assert!(
                engine.snapshot_restores >= 2 * u64::from(cfg.count),
                "the engine should restore at least twice per seed, saw {}",
                engine.snapshot_restores
            );
        }
    }

    #[test]
    fn snapshot_path_is_deterministic_across_runs() {
        // Reusing machines across seeds must not leak state between seeds:
        // the same campaign run twice (different work-stealing interleavings
        // and worker/seed assignments) yields identical results.
        let cfg = CampaignConfig {
            seed_base: 200,
            count: 12,
            threads: 4,
            ..CampaignConfig::default()
        };
        let a = run_campaigns(&cfg);
        let b = run_campaigns(&cfg);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn headline_smoke_no_panics_no_silent_divergence() {
        let cfg = CampaignConfig {
            seed_base: 100,
            count: 16,
            threads: 2,
            ..CampaignConfig::default()
        };
        let report = run_campaigns(&cfg);
        assert_eq!(report.results.len(), 16);
        assert_eq!(report.count(Outcome::Panicked), 0, "{}", report.to_text());
        assert_eq!(
            report.count(Outcome::SilentDivergence),
            0,
            "{}",
            report.to_text()
        );
        assert!(report.control_violations.is_empty());
        assert!(!report.failed());
        // JSON report parses at least superficially.
        let json = report.to_json();
        assert!(json.contains("\"campaigns\""));
        assert!(json.contains("\"passed\": true"));
    }
}
