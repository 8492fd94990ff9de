//! The allocation microbenchmark (paper §7.2.2, Table 4, Figures 5–6).
//!
//! Allocates and frees a total of 1 MiB of heap memory at a fixed
//! allocation size, through the RTOS's cross-compartment `malloc`/`free`
//! path, for each of the four temporal-safety configurations (Baseline,
//! Metadata, Software, Hardware) with and without the stack high-water
//! mark.
//!
//! The SoC configuration mirrors the paper's evaluation platform: 256 KiB
//! of SRAM (revocation sweeps scan almost all of it), a 192 KiB revocable
//! heap, and thread stacks of a few hundred bytes (embedded-typical, §5.2).

use cheriot_alloc::{AllocError, RevokerKind, TemporalPolicy};
use cheriot_core::{CoreModel, Machine, MachineConfig};
use cheriot_rtos::Rtos;

/// The four temporal-safety configurations of Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocConfig {
    /// No temporal safety at all.
    Baseline,
    /// Revocation bits maintained, freed memory zeroed, no sweeping.
    Metadata,
    /// Sweeping revocation in software.
    Software,
    /// Sweeping revocation by the background hardware revoker.
    Hardware,
}

impl AllocConfig {
    /// All configurations in Table 4 order.
    pub fn all() -> [AllocConfig; 4] {
        [
            AllocConfig::Baseline,
            AllocConfig::Metadata,
            AllocConfig::Software,
            AllocConfig::Hardware,
        ]
    }

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            AllocConfig::Baseline => "Baseline",
            AllocConfig::Metadata => "Metadata",
            AllocConfig::Software => "Software",
            AllocConfig::Hardware => "Hardware",
        }
    }

    fn policy(self) -> TemporalPolicy {
        match self {
            AllocConfig::Baseline => TemporalPolicy::None,
            AllocConfig::Metadata => TemporalPolicy::MetadataOnly,
            AllocConfig::Software => TemporalPolicy::Quarantine(RevokerKind::Software),
            AllocConfig::Hardware => TemporalPolicy::Quarantine(RevokerKind::Hardware),
        }
    }
}

/// Parameters for one benchmark cell.
#[derive(Clone, Copy, Debug)]
pub struct AllocBenchParams {
    /// Core model.
    pub core: CoreModel,
    /// Temporal-safety configuration.
    pub config: AllocConfig,
    /// Stack high-water-mark hardware present ("(S)" rows)?
    pub hwm: bool,
    /// Allocation size in bytes (32 B .. 128 KiB in the paper).
    pub alloc_size: u32,
    /// Total bytes to allocate (1 MiB in the paper).
    pub total_bytes: u32,
}

impl AllocBenchParams {
    /// A paper-shaped cell: 1 MiB of churn at `alloc_size` bytes.
    pub fn paper(core: CoreModel, config: AllocConfig, hwm: bool, alloc_size: u32) -> Self {
        AllocBenchParams {
            core,
            config,
            hwm,
            alloc_size,
            total_bytes: 1 << 20,
        }
    }

    /// The allocation sizes of Table 4: 32 B to 128 KiB, doubling.
    pub fn paper_sizes() -> Vec<u32> {
        (5..=17).map(|p| 1u32 << p).collect()
    }
}

/// Result of one cell.
#[derive(Clone, Copy, Debug)]
pub struct AllocBenchResult {
    /// Total cycles for the 1 MiB of churn.
    pub cycles: u64,
    /// malloc/free pairs performed.
    pub pairs: u64,
    /// Revocation passes started.
    pub revocation_passes: u64,
    /// Stack bytes zeroed by the switcher.
    pub switcher_zeroed: u64,
}

/// The machine configuration used throughout §7.2.2: 256 KiB SRAM,
/// 192 KiB revocable heap.
pub fn bench_machine(core: CoreModel, config: AllocConfig, hwm: bool) -> Machine {
    let mut mc = MachineConfig::new(core);
    mc.sram_size = 256 * 1024;
    mc.heap_offset = 64 * 1024;
    mc.hwm_enabled = hwm;
    mc.load_filter = true;
    mc.hw_revoker = matches!(config, AllocConfig::Hardware);
    // The Flute prototype lacks the completion interrupt: blocked threads
    // poll, and their wake-up traffic slows the revoker (paper §7.2.2).
    mc.revoker.interrupt_on_completion = core.kind == cheriot_core::CoreKind::Ibex;
    Machine::new(mc)
}

/// Runs one benchmark cell.
///
/// # Panics
///
/// Panics if the allocator fails in a way the benchmark cannot recover
/// from (a bug — the workload always frees before the heap exhausts).
pub fn run_alloc_bench(p: &AllocBenchParams) -> AllocBenchResult {
    let machine = bench_machine(p.core, p.config, p.hwm);
    let mut rtos = Rtos::new(machine, p.config.policy());
    let app = rtos.add_compartment("app", 64);
    // Embedded-typical small stack (§5.2: "a couple of KiBs" at most).
    let t = rtos.spawn_thread(1, 256, app);

    let pairs = u64::from(p.total_bytes / p.alloc_size.max(1)).max(1);
    let start = rtos.machine.cycles;
    for i in 0..pairs {
        let cap = match rtos.malloc(t, p.alloc_size) {
            Ok(c) => c,
            Err(AllocError::OutOfMemory) => {
                panic!("unexpected OOM at pair {i}/{pairs} size {}", p.alloc_size)
            }
            Err(e) => panic!("alloc bench failed: {e}"),
        };
        rtos.free(t, cap).expect("free");
    }
    AllocBenchResult {
        cycles: rtos.machine.cycles - start,
        pairs,
        revocation_passes: rtos.heap.stats().revocation_passes,
        switcher_zeroed: rtos.switcher.stats.zeroed_bytes,
    }
}

/// Overhead of `result` relative to the Baseline (no-HWM) cell at the same
/// core and size, as Figures 5 and 6 plot it.
pub fn overhead_pct(result: &AllocBenchResult, baseline: &AllocBenchResult) -> f64 {
    (result.cycles as f64 / baseline.cycles as f64 - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(config: AllocConfig, hwm: bool, size: u32) -> AllocBenchResult {
        let p = AllocBenchParams {
            core: CoreModel::ibex(),
            config,
            hwm,
            alloc_size: size,
            total_bytes: 64 * 1024, // trimmed for test speed
        };
        run_alloc_bench(&p)
    }

    #[test]
    fn configs_are_ordered_at_small_sizes() {
        let base = cell(AllocConfig::Baseline, false, 64);
        let meta = cell(AllocConfig::Metadata, false, 64);
        let sw = cell(AllocConfig::Software, false, 64);
        let hw = cell(AllocConfig::Hardware, false, 64);
        assert!(base.cycles < meta.cycles);
        assert!(meta.cycles < sw.cycles);
        assert!(hw.cycles < sw.cycles);
    }

    #[test]
    fn hwm_reduces_small_alloc_cost() {
        let no = cell(AllocConfig::Hardware, false, 64);
        let yes = cell(AllocConfig::Hardware, true, 64);
        assert!(yes.cycles < no.cycles, "{} vs {}", yes.cycles, no.cycles);
        assert!(yes.switcher_zeroed < no.switcher_zeroed);
    }

    #[test]
    fn large_allocations_sweep_every_time() {
        let hw = cell(AllocConfig::Hardware, false, 32 * 1024);
        // 64 KiB churn at 32 KiB: by the second allocation the heap has
        // quarantined enough to demand sweeping.
        assert!(hw.revocation_passes >= 1);
    }

    #[test]
    fn software_revocation_dominates_mid_sizes() {
        let sw = cell(AllocConfig::Software, false, 4096);
        let base = cell(AllocConfig::Baseline, false, 4096);
        assert!(
            overhead_pct(&sw, &base) > 50.0,
            "software revocation should dominate: {:.1}%",
            overhead_pct(&sw, &base)
        );
    }
}
