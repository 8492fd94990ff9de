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
//! `catch_unwind` so one panicking seed is reported, not fatal. By default
//! each worker keeps one reusable machine and forks every run from an
//! O(dirty) snapshot restore ([`SeedWorker`]); `use_snapshot = false`
//! selects the legacy per-seed-reboot path, which produces byte-identical
//! results (asserted by `snapshot_and_reboot_paths_agree_exactly`).

use crate::inject::Injector;
use crate::invariant::{InvariantChecker, InvariantViolation};
use crate::json::Json;
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
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory of guest-held capabilities: base offset from SRAM start and
/// slot count. It sits in the globals area below the heap and is watched
/// strictly by the invariant checker (it only ever holds heap pointers).
const DIR_OFFSET: u32 = 0x100;
const DIR_SLOTS: u32 = 24;

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
    /// Run seeds through the snapshot/fork engine (the default): each
    /// worker keeps one machine and forks every run from an O(dirty)
    /// restore instead of booting per seed. `false` is the legacy
    /// per-seed-reboot path (`fault-campaign --no-snapshot`), kept as a
    /// cross-check — both paths produce byte-identical results.
    pub use_snapshot: bool,
    /// Copy-on-write page store for every campaign machine (the
    /// default). `false` is the `--no-cow` escape hatch: snapshot
    /// captures/restores deep-copy pages — byte-identical outcomes,
    /// pre-CoW restore cost.
    pub cow: bool,
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
            use_snapshot: true,
            cow: true,
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
    /// Snapshot restores performed by the fork engine (0 on the legacy
    /// per-seed-reboot path).
    pub snapshot_restores: u64,
    /// SRAM pages moved across those restores: the pages whose CoW
    /// handles differed from the snapshot's. A rising pages-per-restore
    /// ratio flags a write path unsharing pages it did not need to.
    pub dirty_pages_copied: u64,
    /// Host bytes those restores actually moved (honest accounting:
    /// handle adoptions under CoW, data + tag bytes on deep copies, plus
    /// the console backlog and code-handle adoptions).
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
        if self.config.use_snapshot {
            s.push_str(&format!(
                "  snapshot engine: {} restores, {} dirty pages copied, {} bytes moved\n",
                self.snapshot_restores, self.dirty_pages_copied, self.snapshot_bytes_copied
            ));
        }
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

    /// JSON report, built through the shared typed writer
    /// ([`crate::json::Json`]) rather than string concatenation.
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
        doc.push("use_snapshot", self.config.use_snapshot);
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

/// A freshly booted machine + heap with the seeded workload loaded, or a
/// structured error string if loading failed (never a panic).
/// Dispatch modes for [`fresh_run`]: `(block_cache, block_chain)`.
const STEPWISE: (bool, bool) = (false, false);
/// Block cache on, chaining off. Only the cross-mode equivalence tests
/// exercise this middle mode; the campaign proper uses the two extremes.
#[cfg(test)]
const CACHED: (bool, bool) = (true, false);
/// Block cache + chaining + sentry inline caches — the default path.
const CHAINED: (bool, bool) = (true, true);

/// `dispatch` is `(block_cache, block_chain)` and selects the execution
/// path: the campaign runs its reference stepwise ([`STEPWISE`]) and its
/// faulted run through the fully chained dispatch loop ([`CHAINED`]), so
/// every campaign is also a cross-check that the predecoded-block cache,
/// block chaining and the sentry inline caches are architecturally
/// invisible (any cycle or behaviour drift shows up as a divergence).
fn fresh_run(
    seed: u64,
    dispatch: (bool, bool),
    cow: bool,
) -> Result<(Machine, HeapAllocator, u32, u32), String> {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    (mc.block_cache, mc.block_chain) = dispatch;
    mc.cow = cow;
    let mut m = Machine::new(mc);
    let heap = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let program = build_workload(seed);
    let entry = m.try_load_program(&program).map_err(|e| e.to_string())?;
    m.set_entry(entry);
    let dir_lo = SRAM_BASE + DIR_OFFSET;
    let dir_len = DIR_SLOTS * 8;
    let dir_cap = Capability::root_mem_rw()
        .with_address(dir_lo)
        .set_bounds(u64::from(dir_len))
        .ok_or_else(|| "directory capability is unrepresentable".to_string())?;
    m.cpu.write(Reg::GP, dir_cap);
    Ok((m, heap, dir_lo, dir_len))
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
    let candidates: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|&(i, s)| i != exclude && s.map(&want).unwrap_or(false))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0, candidates.len() as u64) as usize])
    }
}

/// Runs one seeded campaign: reference run, then faulted run, then
/// classification. Never panics on simulator errors — panics that do slip
/// through are caught by the suite driver and classified [`Outcome::Panicked`].
pub fn run_one(seed: u64, cfg: &CampaignConfig) -> CampaignResult {
    let fail = |detail: String| CampaignResult {
        seed,
        outcome: Outcome::SimError,
        faults_applied: 0,
        cycles: 0,
        detail,
    };

    // Reference (fault-free) run, executed cache-off: its fingerprint and
    // cycle count anchor both the fault classification and the block
    // cache's exactness (the faulted run below executes cache-on).
    let (mut m, mut heap, dir_lo, dir_len) = match fresh_run(seed, STEPWISE, cfg.cow) {
        Ok(v) => v,
        Err(e) => return fail(format!("reference setup: {e}")),
    };
    let r_ref = run_with_heap_service(&mut m, &mut heap, cfg.max_cycles);
    if !matches!(r_ref, ExitReason::Halted(_)) {
        return fail(format!("reference run did not exit cleanly: {r_ref:?}"));
    }
    let reference = Fingerprint::take(r_ref, &mut m);
    let ref_cycles = m.cycles.max(1);
    let ref_instructions = m.stats.instructions;

    // Faulted run (cache-on).
    let (mut m, mut heap, _, _) = match fresh_run(seed, CHAINED, cfg.cow) {
        Ok(v) => v,
        Err(e) => return fail(format!("faulted setup: {e}")),
    };
    run_faulted_phase(
        &mut m,
        &mut heap,
        seed,
        cfg,
        dir_lo,
        dir_len,
        &reference,
        ref_cycles,
        ref_instructions,
    )
}

/// The faulted half of a campaign, starting from a machine in post-load
/// state (however it got there — fresh boot or snapshot fork): arm the
/// watchdog, generate and inject the plan, run the cadence checker, and
/// classify against the reference fingerprint. Shared verbatim by the
/// per-seed-reboot and snapshot/fork paths so the two cannot drift.
#[allow(clippy::too_many_arguments)]
fn run_faulted_phase(
    m: &mut Machine,
    heap: &mut HeapAllocator,
    seed: u64,
    cfg: &CampaignConfig,
    dir_lo: u32,
    dir_len: u32,
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
            region: (dir_lo, used_he),
            heap: (hb, used_he),
            code: (CODE_BASE, m.code_end()),
        },
    );
    let mut injector = Injector::new(plan);
    let mut checker = InvariantChecker::new(cfg.cadence.max(1));
    checker.watch_region(dir_lo, dir_lo + dir_len);
    let mut violations: Vec<InvariantViolation> = Vec::new();
    let deadline = cfg.max_cycles;

    let exit = loop {
        let next_stop = injector
            .next_cycle()
            .unwrap_or(u64::MAX)
            .min(checker.next_due())
            .min(deadline)
            .max(m.cycles + 1);
        let budget = next_stop - m.cycles;
        let r = run_with_heap_service(m, heap, budget);
        injector.poll(m);
        if checker.due(m.cycles) {
            violations.extend(checker.check(m, heap));
        }
        match r {
            ExitReason::CycleLimit if m.cycles < deadline => continue,
            other => break other,
        }
    };
    // Final sweep: corruption planted just before exit must still be seen.
    violations.extend(checker.check(m, heap));
    if let Err(e) = heap.check_consistency(m) {
        violations.push(InvariantViolation {
            kind: crate::invariant::InvariantKind::BoundsMonotonicity,
            cycle: m.cycles,
            addr: None,
            detail: format!("allocator consistency: {e}"),
        });
    }

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
                format!("cycle budget ({deadline}) exhausted"),
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
/// The per-seed flow replaces two `Machine::new` boots (≈3.5 MB of
/// allocation + zeroing each) and a duplicate workload build with two
/// O(dirty) restores and one `HeapAllocator` clone per run. The reference
/// runs cache-on (legacy runs it cache-off): the block cache is
/// architecturally invisible — cycles, fingerprints and trap PCs are
/// identical either way, which `faulted_runs_identical_cache_on_vs_off`
/// and the cross-path smoke test assert — and the faulted fork then
/// inherits the reference run's decoded blocks through the snapshot.
struct SeedWorker {
    m: Machine,
    boot_heap: HeapAllocator,
    boot_snap: Snapshot,
    seed_snap: Snapshot,
    dir_lo: u32,
    dir_len: u32,
    /// Snapshot counters already harvested into the suite totals.
    harvested: SnapshotStats,
}

impl SeedWorker {
    fn new(cow: bool) -> Result<SeedWorker, String> {
        let mut mc = MachineConfig::new(CoreModel::ibex());
        mc.cow = cow;
        let mut m = Machine::new(mc);
        let boot_heap =
            HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
        let dir_lo = SRAM_BASE + DIR_OFFSET;
        let dir_len = DIR_SLOTS * 8;
        let dir_cap = Capability::root_mem_rw()
            .with_address(dir_lo)
            .set_bounds(u64::from(dir_len))
            .ok_or_else(|| "directory capability is unrepresentable".to_string())?;
        m.cpu.write(Reg::GP, dir_cap);
        let boot_snap = m.snapshot();
        let seed_snap = boot_snap.clone();
        Ok(SeedWorker {
            m,
            boot_heap,
            boot_snap,
            seed_snap,
            dir_lo,
            dir_len,
            harvested: SnapshotStats::default(),
        })
    }

    /// One campaign through the fork engine. State-identical to the
    /// legacy path at every phase boundary: the restored machine is
    /// byte-identical to a fresh boot (asserted by the core snapshot
    /// tests), so reference cycles, plan windows, and classifications
    /// match the per-seed-reboot path exactly.
    fn run_seed(&mut self, seed: u64, cfg: &CampaignConfig) -> CampaignResult {
        let fail = |detail: String| CampaignResult {
            seed,
            outcome: Outcome::SimError,
            faults_applied: 0,
            cycles: 0,
            detail,
        };
        // Back to the (program-free) boot state: O(dirty from last run).
        self.m.restore_from(&self.boot_snap);
        let program = build_workload(seed);
        let entry = match self.m.try_load_program(&program) {
            Ok(e) => e,
            Err(e) => return fail(format!("reference setup: {e}")),
        };
        self.m.set_entry(entry);
        // Capture the post-load fork point. Loading touches only the code
        // region, so the SRAM side of this capture copies zero pages.
        self.m.snapshot_into(&mut self.seed_snap);
        // Reference run.
        let mut heap = self.boot_heap.clone();
        let r_ref = run_with_heap_service(&mut self.m, &mut heap, cfg.max_cycles);
        if !matches!(r_ref, ExitReason::Halted(_)) {
            return fail(format!("reference run did not exit cleanly: {r_ref:?}"));
        }
        let reference = Fingerprint::take(r_ref, &mut self.m);
        let ref_cycles = self.m.cycles.max(1);
        let ref_instructions = self.m.stats.instructions;
        // Fork the faulted run from the post-load snapshot; it inherits
        // every block the reference run decoded.
        self.m.restore_from(&self.seed_snap);
        let mut heap = self.boot_heap.clone();
        run_faulted_phase(
            &mut self.m,
            &mut heap,
            seed,
            cfg,
            self.dir_lo,
            self.dir_len,
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

/// A fault-free control run of `seed` under the cadence checker: returns
/// any violations the checker reports. A clean simulator must return none;
/// anything here is a checker false positive or a simulator bug, and fails
/// the suite.
fn run_control(seed: u64, cfg: &CampaignConfig) -> Vec<InvariantViolation> {
    let Ok((mut m, mut heap, dir_lo, dir_len)) = fresh_run(seed, CHAINED, cfg.cow) else {
        return vec![InvariantViolation {
            kind: crate::invariant::InvariantKind::TagProvenance,
            cycle: 0,
            addr: None,
            detail: "control run failed to load".into(),
        }];
    };
    let mut checker = InvariantChecker::new(cfg.cadence.max(1));
    checker.watch_region(dir_lo, dir_lo + dir_len);
    let mut violations = Vec::new();
    loop {
        let next_stop = checker.next_due().min(cfg.max_cycles).max(m.cycles + 1);
        let budget = next_stop - m.cycles;
        let r = run_with_heap_service(&mut m, &mut heap, budget);
        violations.extend(checker.check(&m, &heap));
        match r {
            ExitReason::CycleLimit if m.cycles < cfg.max_cycles => continue,
            _ => break,
        }
    }
    violations
}

/// Runs the whole suite: one control run plus `count` seeded campaigns
/// fanned out over a work-stealing pool of `threads` workers, each campaign
/// wrapped in `catch_unwind`.
///
/// With `cfg.use_snapshot` (the default) each worker carries a
/// [`SeedWorker`] — one reusable machine forked per seed from an O(dirty)
/// snapshot restore — otherwise every seed reboots from scratch through
/// [`run_one`]. Workers claim seeds from a shared cursor, so one slow seed
/// never idles the rest of the pool the way the old fixed stride did.
pub fn run_campaigns(cfg: &CampaignConfig) -> CampaignReport {
    let control_violations = run_control(cfg.seed_base, cfg);
    let threads = cfg.threads.clamp(1, cfg.count.max(1)) as usize;
    let count = cfg.count as usize;
    let restores = AtomicU64::new(0);
    let pages_copied = AtomicU64::new(0);
    let bytes_copied = AtomicU64::new(0);
    let results = work_steal_with(
        count,
        threads,
        // `None` state = legacy per-seed-reboot path.
        || cfg.use_snapshot.then(|| SeedWorker::new(cfg.cow)),
        |state, i| {
            let seed = cfg.seed_base + i as u64;
            let r = match state {
                Some(Ok(worker)) => {
                    let r = catch_unwind(AssertUnwindSafe(|| worker.run_seed(seed, cfg)));
                    let (dr, dp, db) = worker.harvest();
                    restores.fetch_add(dr, Ordering::Relaxed);
                    pages_copied.fetch_add(dp, Ordering::Relaxed);
                    bytes_copied.fetch_add(db, Ordering::Relaxed);
                    if r.is_err() {
                        // The worker machine may be wedged mid-run; rebuild
                        // it so subsequent seeds start from a clean boot.
                        *state = Some(SeedWorker::new(cfg.cow));
                    }
                    r
                }
                Some(Err(e)) => Ok(CampaignResult {
                    seed,
                    outcome: Outcome::SimError,
                    faults_applied: 0,
                    cycles: 0,
                    detail: format!("snapshot worker setup: {e}"),
                }),
                None => catch_unwind(AssertUnwindSafe(|| run_one(seed, cfg))),
            };
            r.unwrap_or_else(|p| CampaignResult {
                seed,
                outcome: Outcome::Panicked,
                faults_applied: 0,
                cycles: 0,
                detail: panic_message(&p),
            })
        },
    );
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

    #[test]
    fn workload_reference_run_is_clean_and_deterministic() {
        // The second run executes cache-on: determinism across the two
        // execution paths, not just across repetitions, is the contract.
        for seed in [1u64, 2, 3, 99] {
            let (mut m, mut heap, _, _) = fresh_run(seed, STEPWISE, true).unwrap();
            let r1 = run_with_heap_service(&mut m, &mut heap, 30_000_000);
            let ExitReason::Halted(c1) = r1 else {
                panic!("seed {seed}: reference must halt, got {r1:?}");
            };
            heap.check_consistency(&m).unwrap();
            let (mut m2, mut heap2, _, _) = fresh_run(seed, CHAINED, true).unwrap();
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
        let a = run_one(cfg.seed_base + 2, &cfg);
        let b = run_one(cfg.seed_base + 2, &cfg);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.faults_applied, b.faults_applied);
        assert_eq!(a.cycles, b.cycles);
    }

    /// Mirrors `run_one`'s faulted loop with the block cache forced to the
    /// given mode, returning the full behavioural fingerprint plus cycle and
    /// instruction counts.
    fn faulted_run(
        seed: u64,
        classes: &[FaultClass],
        dispatch: (bool, bool),
    ) -> (Fingerprint, u64, u64) {
        let deadline = 30_000_000u64;
        let (mut m, mut heap, dir_lo, _) = fresh_run(seed, STEPWISE, true).unwrap();
        let r = run_with_heap_service(&mut m, &mut heap, deadline);
        assert!(matches!(r, ExitReason::Halted(_)), "seed {seed}: {r:?}");
        let ref_cycles = m.cycles.max(1);
        let wd = m.stats.instructions.saturating_mul(4) + 100_000;

        let (mut m, mut heap, _, _) = fresh_run(seed, dispatch, true).unwrap();
        m.set_watchdog(Some(wd));
        let (hb, he) = heap.heap_range();
        let used_he = he.min(hb + 32 * 1024);
        let plan = FaultPlan::generate(
            seed,
            &PlanConfig {
                classes: classes.to_vec(),
                count: 6,
                window: (ref_cycles / 10, ref_cycles.saturating_mul(9) / 10),
                region: (dir_lo, used_he),
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
        // predecoded blocks, successor links and sentry inline caches)
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
    fn block_cache_smoke_64_seeds_zero_silent_divergence() {
        // Satellite check: a 64-seed headline campaign where every faulted
        // run executes through the block cache while the reference
        // fingerprint comes from a cache-off run (see `fresh_run`). Any
        // cache-induced drift would surface as SilentDivergence.
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
    fn snapshot_and_reboot_paths_agree_exactly() {
        // The acceptance gate for the fork engine: the snapshot path must be
        // bit-for-bit equivalent to the per-seed-reboot path — identical
        // outcomes, fault counts, cycle counts, and detail strings (which
        // embed trap causes and divergence fingerprint summaries).
        let base = CampaignConfig {
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
        };
        let snap = run_campaigns(&CampaignConfig {
            use_snapshot: true,
            ..base.clone()
        });
        let reboot = run_campaigns(&CampaignConfig {
            use_snapshot: false,
            ..base
        });
        assert_eq!(
            snap.results,
            reboot.results,
            "snapshot path diverged from per-seed reboot:\n{}\nvs\n{}",
            snap.to_text(),
            reboot.to_text()
        );
        assert_eq!(
            snap.control_violations.len(),
            reboot.control_violations.len()
        );
        assert!(
            snap.snapshot_restores >= 2 * u64::from(snap.config.count),
            "snapshot path should restore at least twice per seed, saw {}",
            snap.snapshot_restores
        );
        assert_eq!(reboot.snapshot_restores, 0, "legacy path never restores");
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
