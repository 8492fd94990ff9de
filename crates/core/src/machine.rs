//! The simulated CHERIoT SoC: CPU + tagged SRAM + revocation hardware +
//! timer + console, with per-instruction cycle accounting driven by a
//! [`CoreModel`].

use crate::blockcache::{Block, BlockCache, BlockCacheStats, Code, PredecodedInsn};
use crate::bus::{DeviceBus, Uart};
use crate::cpu::Cpu;
use crate::error::SimError;
use crate::insn::{inline_handled, AluOp, BranchCond, CapField, CsrId, CsrOp, Instr, MulOp, Reg};
use crate::mem::{Sram, XferCost, GRANULE};
use crate::pipeline::CoreModel;
use crate::revocation::{BackgroundRevoker, RevocationBitmap, RevokerConfig};
use crate::trap::{TrapCause, PCC_REG_INDEX};
use cheriot_cap::bounds::{representable_alignment_mask, representable_length};
use cheriot_cap::{Capability, InterruptPosture, OType, Permissions, SentryKind};
use cheriot_trace::{EventKind, Tracer};
use std::sync::Arc;

/// Physical memory map of the simulated SoC.
pub mod layout {
    /// Base of the instruction region (code is fetch-only).
    pub const CODE_BASE: u32 = 0x1000_0000;
    /// Maximum code region size in bytes.
    pub const CODE_SIZE: u32 = 0x0010_0000;
    /// Base of the tagged data SRAM.
    pub const SRAM_BASE: u32 = 0x2000_0000;
    /// MMIO window of the revocation bitmap (allocator-only by software
    /// convention, enforced by which compartments get a capability to it).
    pub const REV_BITMAP_BASE: u32 = 0x8000_0000;
    /// Machine timer: `+0` mtime lo (RO), `+4` mtime hi (RO), `+8`
    /// mtimecmp lo, `+0xc` mtimecmp hi.
    pub const TIMER_BASE: u32 = 0x8100_0000;
    /// Debug console: a store of a byte to `+0` emits it.
    pub const CONSOLE_BASE: u32 = 0x8200_0000;
    /// Background revoker device (see [`crate::revocation::revoker_reg`]).
    pub const REVOKER_BASE: u32 = 0x8300_0000;
    /// GPIO block: `+0` LED output register (RW bitmask) — the paper's
    /// demo application animates the dev-board LEDs from JavaScript.
    pub const GPIO_BASE: u32 = 0x8400_0000;
    /// External-interrupt controller (see [`crate::bus::IrqController`]):
    /// `+0` pending (R/W1C), `+4` mask, `+8` claim.
    pub const INTC_BASE: u32 = 0x8500_0000;
    /// Size of each MMIO window.
    pub const MMIO_SIZE: u32 = 0x1000;
}

/// Build-time configuration of a [`Machine`], fixed when the machine is
/// constructed ([`Machine::new`]) and read back with [`Machine::cfg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Core cost model (Ibex or Flute class).
    pub core: CoreModel,
    /// Data SRAM size in bytes.
    pub sram_size: u32,
    /// Offset of the revocable heap region within SRAM; the heap runs
    /// from there to the end of SRAM.
    pub heap_offset: u32,
    /// Is the temporal-safety load filter wired into the pipeline?
    pub load_filter: bool,
    /// Is the background hardware revoker present?
    pub hw_revoker: bool,
    /// Microarchitecture of the hardware revoker.
    pub revoker: RevokerConfig,
    /// Are the stack high-water-mark CSRs implemented (paper §5.2.1)?
    pub hwm_enabled: bool,
    /// Is the CHERI extension present? When false the machine behaves as a
    /// plain RV32E+M core: loads, stores and jumps use register *addresses*
    /// with no capability checks (the Table 3 baseline). CHERI instructions
    /// are illegal in this mode.
    pub cheri_enabled: bool,
    /// Execute through the predecoded basic-block cache
    /// ([`crate::blockcache`]): decode-once dispatch with batched fetch
    /// checks. Architecturally invisible — `false` forces the
    /// per-instruction stepwise loop (CLI `--no-block-cache`).
    pub block_cache: bool,
    /// Chain predecoded blocks directly (DESIGN.md §13): successor links
    /// that skip the dispatcher and the PCC fetch re-check, superblocks
    /// across unconditional forward jumps and hot one-way edges, and the
    /// unchecked fast-stream loop. Architecturally invisible — `false`
    /// keeps the one-block-per-dispatch loop (CLI `--no-block-chain`).
    /// Only meaningful when `block_cache` is on.
    pub block_chain: bool,
    /// Copy-on-write page store enabled ([`crate::mem::Sram`])? When
    /// false (CLI `--no-cow`) the bank is built with every page uniquely
    /// owned and every snapshot capture/restore/fork deep-copies bytes —
    /// the pre-CoW cost model, kept as an escape hatch and comparison
    /// baseline. Architecturally invisible either way.
    pub cow: bool,
}

impl MachineConfig {
    /// A full-featured configuration: 512 KiB SRAM with the upper half
    /// revocable heap, load filter, pipelined revoker, and the stack
    /// high-water mark.
    pub fn new(core: CoreModel) -> MachineConfig {
        let sram_size = 512 * 1024;
        MachineConfig {
            core,
            sram_size,
            heap_offset: sram_size / 2,
            load_filter: true,
            hw_revoker: true,
            revoker: RevokerConfig::default(),
            hwm_enabled: true,
            cheri_enabled: true,
            block_cache: true,
            block_chain: true,
            cow: true,
        }
    }

    /// Base address of the heap region.
    pub fn heap_base(&self) -> u32 {
        layout::SRAM_BASE + self.heap_offset
    }

    /// End address (exclusive) of the heap region: the end of SRAM.
    pub fn heap_end(&self) -> u32 {
        layout::SRAM_BASE + self.sram_size
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Instructions retired.
    pub instructions: u64,
    /// Scalar loads.
    pub loads: u64,
    /// Scalar stores.
    pub stores: u64,
    /// Capability loads.
    pub cap_loads: u64,
    /// Capability stores.
    pub cap_stores: u64,
    /// Capability loads whose tag the load filter stripped.
    pub filter_strips: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Synchronous traps taken.
    pub traps: u64,
    /// Interrupts delivered.
    pub interrupts: u64,
    /// Load-to-use stall cycles.
    pub stall_cycles: u64,
    /// Cycles spent in `wfi` idle.
    pub idle_cycles: u64,
}

/// Why [`Machine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// The program executed `halt`; payload is `a0`.
    Halted(u32),
    /// An unhandled (double) fault occurred with no trap vector installed.
    Fault(TrapCause),
    /// The cycle budget was exhausted.
    CycleLimit,
    /// `wfi` with no possible wake-up source.
    Idle,
    /// The watchdog instruction budget expired ([`Machine::set_watchdog`]).
    Watchdog,
}

/// The simulated SoC.
#[derive(Debug)]
pub struct Machine {
    /// Configuration, fixed at construction ([`Machine::cfg`]). Every
    /// holder of a code handle therefore builds blocks under one config.
    cfg: MachineConfig,
    /// CPU architectural state.
    pub cpu: Cpu,
    /// Tagged data SRAM.
    pub sram: Sram,
    /// Revocation bitmap.
    pub bitmap: RevocationBitmap,
    /// Background revoker device.
    pub revoker: BackgroundRevoker,
    /// Cycle counter (also the timebase).
    pub cycles: u64,
    /// Timer compare register.
    pub mtimecmp: u64,
    /// Bytes written to the debug console.
    pub console: Vec<u8>,
    /// Current LED output register (GPIO block).
    pub gpio_out: u32,
    /// Number of writes to the LED register (demo-app statistics).
    pub gpio_writes: u64,
    /// The pluggable device bus ([`crate::bus`]): UART, timers, DMA,
    /// network interfaces, and the external-interrupt controller.
    pub bus: DeviceBus,
    /// Execution statistics.
    pub stats: Stats,
    /// The decoded code region, `Arc`-shared with snapshots and forks
    /// (immutable while shared — [`Machine::try_load_program`] and
    /// [`Machine::patch_code`] unshare via `Arc::make_mut`, the code
    /// region's CoW break). Two `Arc::ptr_eq` handles therefore hold
    /// identical code, which lets [`Machine::restore_from`] skip the code
    /// adoption and keep resident predecoded blocks, and lets every
    /// holder share the handle's block store.
    code: Arc<Code>,
    /// This machine's dispatch state over `code`: the blocks it holds and
    /// their successor links (see [`crate::blockcache`]).
    blocks: BlockCache,
    halted: Option<ExitReason>,
    pending_use: Option<(Reg, u64)>,
    tracer: Option<Box<Tracer>>,
    /// Absolute retired-instruction count at which the watchdog fires
    /// (`u64::MAX` = disabled, the default).
    wd_limit: u64,
    /// The most recent trap cause taken (synchronous or interrupt).
    last_trap: Option<TrapCause>,
    /// Host-side snapshot/restore counters (not architectural state;
    /// never captured or restored by snapshots).
    snap_stats: SnapshotStats,
    /// Device id of the in-flight bus dispatch, for `DmaTransfer` trace
    /// attribution (set by [`DeviceBus`] before each device call; not
    /// architectural state).
    pub(crate) active_dev: u32,
}

/// Host-side counters for the snapshot/restore engine, exposed via
/// [`Machine::snapshot_stats`]. Under CoW a restore moves only the pages
/// whose handles differ from the snapshot's, so a rising
/// `pages_copied`-per-restore ratio flags a write path that unshares
/// pages it did not need to (or a lost sharing relationship).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Calls to [`Machine::restore_from`].
    pub restores: u64,
    /// SRAM pages moved across all restores: the pages whose handles
    /// differed from the snapshot's (every page with CoW disabled).
    pub pages_copied: u64,
    /// Host bytes actually moved by restores: SRAM page transfers
    /// (honestly costed — a deep page copy charges data *and* tag-bitmap
    /// bytes, [`crate::mem::PAGE_COPY_BYTES`]; under CoW an adopted page
    /// is a handle clone charged at [`crate::mem::PAGE_HANDLE_BYTES`])
    /// plus the always-copied console backlog and, when the code region
    /// changed, the adopted code handle. This is the observable fork
    /// cost in bytes — a fleet forking N devices off one warm snapshot
    /// should see O(N · pages) pointer-sized adoptions under CoW, not
    /// `N * Snapshot::bytes()`.
    pub bytes_copied: u64,
}

/// A point-in-time capture of a machine's full architectural state: CPU,
/// SRAM bytes + tags, revocation bitmap, background revoker, timers,
/// console, GPIO, statistics, the code region, and the machine's block
/// table (its dispatch state; the blocks themselves are `Arc`-shared).
///
/// A snapshot *is* a machine that never runs: capture
/// ([`Machine::snapshot`] / [`Machine::snapshot_into`]), restore
/// ([`Machine::restore_from`]), fork ([`Snapshot::to_machine`]) and
/// `Clone` all move state through one copy routine, so there is one
/// definition of what a machine's state is. A fork shares the
/// snapshot's decoded blocks and its code image's block store, but no
/// mutable state.
/// Host-side observers (tracer, block-trace flag, snapshot counters) are
/// not part of a snapshot.
#[derive(Clone)]
pub struct Snapshot(Machine);

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("cycles", &self.0.cycles)
            .field("code_words", &self.0.code.len())
            .field("sram", &self.0.sram)
            .finish()
    }
}

impl Snapshot {
    /// Builds an independent machine in this snapshot's state (a fork).
    /// The fork starts with a copy of the snapshot's block table: the
    /// blocks it holds are shared (`Arc`), and its successor links, an
    /// O(resident blocks) sidecar, are copied. A block the snapshot did
    /// not hold comes from the code image's shared store, so the fleet
    /// builds each block once, whichever fork runs it first.
    pub fn to_machine(&self) -> Machine {
        let mut m = Machine::new(self.0.cfg);
        m.restore_from(self);
        m
    }

    /// Cycle count at capture time.
    pub fn cycles(&self) -> u64 {
        self.0.cycles
    }

    /// Approximate resident size of this snapshot in host bytes: the SRAM
    /// bank (data bytes; the tag words add 1/64 on top and are not
    /// counted), the console backlog, and the decoded code region. This is
    /// the cost of a full deep copy; under CoW a fork shares these pages
    /// and pays only handle adoptions. Predecoded blocks are excluded:
    /// forks share them. So is the block table's sidecar (one index word
    /// per code word and one entry per resident block), which every fork
    /// copies by value ([`Machine::block_sidecar_bytes`]).
    pub fn bytes(&self) -> u64 {
        u64::from(self.0.sram.size())
            + self.0.console.len() as u64
            + (self.0.code.len() * std::mem::size_of::<Instr>()) as u64
    }
}

impl Clone for Machine {
    /// Forks the machine through the one state copy behind capture,
    /// restore and [`Snapshot::to_machine`]: the clone holds the same
    /// shared blocks, a copy of the successor links and the same CoW
    /// pages. Host-side observers stay with the original: the clone has
    /// no tracer and zeroed snapshot counters.
    fn clone(&self) -> Machine {
        let mut m = Machine::new(self.cfg);
        m.copy_state_from(self);
        m
    }
}

impl Machine {
    /// Creates a machine with zeroed SRAM and an empty code region.
    pub fn new(cfg: MachineConfig) -> Machine {
        let heap_base = cfg.heap_base();
        let heap_end = cfg.heap_end();
        assert!(heap_end <= layout::SRAM_BASE + cfg.sram_size);
        Machine {
            cfg,
            cpu: Cpu::at_reset(),
            sram: Sram::new(layout::SRAM_BASE, cfg.sram_size, cfg.cow),
            bitmap: RevocationBitmap::new(heap_base, heap_end),
            revoker: BackgroundRevoker::new(cfg.revoker),
            cycles: 0,
            mtimecmp: u64::MAX,
            console: Vec::new(),
            gpio_out: 0,
            gpio_writes: 0,
            bus: DeviceBus::with_defaults(),
            stats: Stats::default(),
            code: Arc::default(),
            blocks: BlockCache::default(),
            halted: None,
            pending_use: None,
            tracer: None,
            wd_limit: u64::MAX,
            last_trap: None,
            snap_stats: SnapshotStats::default(),
            active_dev: crate::bus::INTC_DEV_ID,
        }
    }

    /// The configuration this machine was built with.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    // --- Tracing -------------------------------------------------------------

    /// Installs a [`Tracer`]; subsequent execution emits structured events
    /// through it. Replaces any previously installed tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes and returns the installed tracer (typically to finish and
    /// export it after a run).
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.tracer.take()
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Mutable access to the installed tracer (e.g. to register
    /// compartment/thread names in its metrics registry).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Emits one trace event stamped with the current cycle counter. A
    /// no-op (single branch on the tracer `Option`) when tracing is
    /// disabled — this is the only cost every emission site pays.
    #[inline]
    pub fn trace_emit(&mut self, kind: EventKind) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.emit(self.cycles, kind);
        }
    }

    // --- Program loading ----------------------------------------------------

    /// Appends a program to the code region, returning its start address.
    ///
    /// # Panics
    ///
    /// Panics if the code region overflows; [`Machine::try_load_program`]
    /// is the non-panicking form.
    pub fn load_program(&mut self, instrs: &[Instr]) -> u32 {
        self.try_load_program(instrs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Appends a program to the code region, returning its start address,
    /// or [`SimError::CodeOverflow`] if it does not fit.
    pub fn try_load_program(&mut self, instrs: &[Instr]) -> Result<u32, SimError> {
        let capacity = layout::CODE_SIZE as usize / 4;
        if self.code.len() + instrs.len() > capacity {
            return Err(SimError::CodeOverflow {
                loaded: self.code.len(),
                requested: instrs.len(),
                capacity,
            });
        }
        let start = layout::CODE_BASE + 4 * self.code.len() as u32;
        if !instrs.is_empty() {
            // The load is the code region's CoW break: unshare from any
            // snapshot/fork still holding the old handle, then append. An
            // empty load keeps sharing, so the handle still says "same
            // code".
            Arc::make_mut(&mut self.code)
                .edit()
                .extend_from_slice(instrs);
            // Blocks truncated at the old end of code must re-extend over
            // the new instructions; the generation bump lets observers see
            // that the cache noticed the load.
            self.blocks.on_append(start);
        }
        Ok(start)
    }

    /// Decodes and loads a binary (machine-code) program, returning its
    /// start address.
    ///
    /// # Errors
    ///
    /// [`crate::encoding::DecodeError`] for unrecognized words.
    pub fn load_binary(&mut self, words: &[u32]) -> Result<u32, crate::encoding::DecodeError> {
        let instrs = crate::encoding::decode_program(words)?;
        Ok(self.load_program(&instrs))
    }

    /// End of the currently loaded code (exclusive).
    pub fn code_end(&self) -> u32 {
        layout::CODE_BASE + 4 * self.code.len() as u32
    }

    // --- Block cache & self-modifying code ------------------------------------

    /// The instruction currently loaded at code address `addr`, if any.
    pub fn code_at(&self, addr: u32) -> Option<Instr> {
        if addr < layout::CODE_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        let idx = ((addr - layout::CODE_BASE) / 4) as usize;
        self.code.get(idx).copied()
    }

    /// Overwrites one already-loaded instruction (self-modifying code, or
    /// a fault-injection flip into the code region), returning the
    /// replaced instruction. Every predecoded block covering `addr` is
    /// invalidated and the coherence generation bumped
    /// ([`Machine::code_generation`]), so the next execution of the
    /// patched address re-decodes. Storing the instruction already in
    /// place is no edit: the code handle stays shared with snapshots and
    /// forks, and no block or generation moves.
    pub fn patch_code(&mut self, addr: u32, instr: Instr) -> Result<Instr, SimError> {
        let idx = (addr.is_multiple_of(4) && addr >= layout::CODE_BASE)
            .then(|| ((addr - layout::CODE_BASE) / 4) as usize)
            .filter(|&i| i < self.code.len())
            .ok_or(SimError::BadCodePatch {
                addr,
                code_end: self.code_end(),
            })?;
        if self.code[idx] == instr {
            return Ok(instr);
        }
        // The patch is a CoW break for the shared code region: siblings
        // forked from the same snapshot keep the unpatched instructions.
        let old = core::mem::replace(&mut Arc::make_mut(&mut self.code).edit()[idx], instr);
        self.blocks.invalidate_covering(addr);
        Ok(old)
    }

    /// Block-cache hit/miss/invalidation counters plus the coherence
    /// generation.
    pub fn block_stats(&self) -> BlockCacheStats {
        self.blocks.stats
    }

    /// The block-cache coherence generation: bumped by every invalidation
    /// event (code patch, program append, flush), whether or not a cached
    /// block was affected. External mutators of code memory (e.g.
    /// `cheriot-fault` code flips) compare generations across their write
    /// to confirm the cache saw it.
    pub fn code_generation(&self) -> u64 {
        self.blocks.stats.generation
    }

    /// Number of predecoded blocks currently resident.
    pub fn blocks_resident(&self) -> usize {
        self.blocks.resident()
    }

    /// The predecoded block this machine holds starting at `pc`, if any.
    /// Blocks are shared: `Arc::ptr_eq` tells whether two machines hold
    /// the same one.
    pub fn cached_block(&self, pc: u32) -> Option<Arc<Block>> {
        if pc < layout::CODE_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        self.blocks.lookup(((pc - layout::CODE_BASE) / 4) as usize)
    }

    /// Host bytes of this machine's own block-cache state (the blocks are
    /// shared and not counted): the sidecar a fork copies, sized by the
    /// code words and the resident blocks ([`BlockCache::sidecar_bytes`]).
    pub fn block_sidecar_bytes(&self) -> usize {
        self.blocks.sidecar_bytes()
    }

    /// Discards every predecoded block. Architecturally invisible —
    /// execution re-decodes on demand.
    pub fn flush_block_cache(&mut self) {
        self.blocks.clear();
    }

    // --- Snapshot / fork ------------------------------------------------------

    /// Captures the machine's full architectural state into a fresh
    /// [`Snapshot`]. Prefer [`Machine::snapshot_into`] in loops — it
    /// reuses the snapshot's buffers and moves only pages written since
    /// the previous capture.
    pub fn snapshot(&mut self) -> Snapshot {
        let mut snap = Snapshot(Machine::new(self.cfg));
        self.snapshot_into(&mut snap);
        snap
    }

    /// Re-captures the machine's state into an existing snapshot: the
    /// state copy of [`Machine::restore_from`], in the other direction.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was captured from a machine with another config.
    pub fn snapshot_into(&mut self, snap: &mut Snapshot) {
        snap.0.copy_state_from(self);
    }

    /// Restores the machine to the state captured in `snap`.
    ///
    /// SRAM pages whose handles equal the snapshot's are unchanged and
    /// skipped, so a rewind moves only the pages written since the last
    /// capture/restore against `snap`; under CoW every moved page is a
    /// handle adoption, which is what makes a fleet fork metadata-cost.
    /// When the code handle already matches, resident predecoded blocks
    /// are left in place, so a run forked after a reference run inherits
    /// its decoded blocks; otherwise a copy of the snapshot's block table
    /// (shared blocks, copied links) is installed alongside the code
    /// handle, which brings the image's shared block store with it.
    ///
    /// The tracer is a host-side observer and is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `snap` was captured from a machine with another config.
    pub fn restore_from(&mut self, snap: &Snapshot) {
        let cost = self.copy_state_from(&snap.0);
        self.snap_stats.restores += 1;
        self.snap_stats.pages_copied += u64::from(cost.pages);
        self.snap_stats.bytes_copied += cost.bytes;
    }

    /// Makes this machine's architectural state equal `src`'s: the one
    /// state copy behind capture, restore, fork and `Clone`. SRAM moves page-wise
    /// (only pages whose handles differ), the console reuses its buffer,
    /// and the code handle and block table are adopted only when the code
    /// handle differs. Returns the pages and host bytes moved: the SRAM
    /// transfer, the console backlog and, when adopted, the code handle.
    fn copy_state_from(&mut self, src: &Machine) -> XferCost {
        assert_eq!(
            self.cfg, src.cfg,
            "machine state copied across machine configs"
        );
        self.cpu = src.cpu.clone();
        let mut cost = self.sram.copy_from(&src.sram);
        self.bitmap.copy_from(&src.bitmap);
        self.revoker = src.revoker.clone();
        self.cycles = src.cycles;
        self.mtimecmp = src.mtimecmp;
        self.console.clone_from(&src.console);
        cost.bytes += src.console.len() as u64;
        self.gpio_out = src.gpio_out;
        self.gpio_writes = src.gpio_writes;
        self.bus = src.bus.clone();
        self.stats = src.stats;
        if !Arc::ptr_eq(&self.code, &src.code) {
            // Adopting the code handle is O(1); the holder's next
            // load/patch unshares it (`Arc::make_mut`).
            self.code = Arc::clone(&src.code);
            self.blocks = src.blocks.clone();
            cost.bytes += std::mem::size_of::<Arc<Code>>() as u64;
        }
        self.halted = src.halted;
        self.pending_use = src.pending_use;
        self.wd_limit = src.wd_limit;
        self.last_trap = src.last_trap;
        cost
    }

    /// Host-side snapshot/restore counters (see [`SnapshotStats`]).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snap_stats
    }

    /// An executable capability covering all loaded code, for use as a boot
    /// PCC. Real boot code would narrow this per compartment.
    pub fn boot_pcc(&self, entry: u32) -> Capability {
        Capability::root_executable()
            .with_address(layout::CODE_BASE)
            .set_bounds(u64::from(self.code_end() - layout::CODE_BASE))
            .expect("code region is representable")
            .with_address(entry)
    }

    /// Starts execution at `entry` with the PCC covering all loaded code.
    pub fn set_entry(&mut self, entry: u32) {
        self.cpu.pcc = self.boot_pcc(entry);
    }

    /// Has the machine halted, and why?
    pub fn exit_status(&self) -> Option<ExitReason> {
        self.halted
    }

    /// Resumes after an unvectored `ecall` (no trap vector installed):
    /// clears the halt state and advances the PC past the `ecall`
    /// instruction. This is the semihosting hook — a host-side service
    /// handles the call and the guest continues (see
    /// `cheriot-rtos::semihost`).
    ///
    /// # Panics
    ///
    /// Panics if the machine is not stopped at an environment call;
    /// [`Machine::try_resume_from_syscall`] is the non-panicking form.
    pub fn resume_from_syscall(&mut self) {
        self.try_resume_from_syscall()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Non-panicking [`Machine::resume_from_syscall`]: fails with
    /// [`SimError::NotAtSyscall`] when the machine is not parked on an
    /// unvectored `ecall`.
    pub fn try_resume_from_syscall(&mut self) -> Result<(), SimError> {
        if self.halted != Some(ExitReason::Fault(TrapCause::EnvironmentCall)) {
            return Err(SimError::NotAtSyscall { state: self.halted });
        }
        self.halted = None;
        let next = self.cpu.pc().wrapping_add(4);
        self.cpu.pcc = self.cpu.pcc.with_address(next);
        Ok(())
    }

    // --- Watchdog -------------------------------------------------------------

    /// Arms (or with `None` disarms) the watchdog: [`Machine::run`] returns
    /// [`ExitReason::Watchdog`] once `budget` further instructions retire
    /// without the guest halting. Costs one integer compare per retired
    /// instruction in the run loop; disabled is the default.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.wd_limit = match budget {
            Some(b) => self.stats.instructions.saturating_add(b),
            None => u64::MAX,
        };
    }

    /// The most recent trap cause taken (synchronous or interrupt), for
    /// post-mortem dumps.
    pub fn last_trap(&self) -> Option<TrapCause> {
        self.last_trap
    }

    /// The in-flight load-to-use hazard, if any: the destination register
    /// of the last load and the stall penalty the next consumer would pay.
    /// Microarchitectural state that external lockstep comparators (the
    /// differential fuzzer's golden model) must see to prove two engines
    /// are in *identical* states, not merely architecturally equal ones.
    pub fn pending_load_use(&self) -> Option<(Reg, u64)> {
        self.pending_use
    }

    /// Builds the structured [`SimError::Watchdog`] for the current state
    /// (for callers that just observed [`ExitReason::Watchdog`]).
    pub fn watchdog_error(&self) -> SimError {
        SimError::Watchdog {
            pc: self.cpu.pc(),
            cycle: self.cycles,
            instructions: self.stats.instructions,
            last_trap: self.last_trap,
        }
    }

    // --- Cycle accounting ----------------------------------------------------

    /// Advances time by `cycles`, of which `mem_beats` used the load/store
    /// unit; the background revoker consumes the remaining slots. This is
    /// also the charging entry point for natively-modelled (RTOS) code.
    #[inline]
    pub fn advance(&mut self, cycles: u64, mem_beats: u64) {
        self.cycles += cycles;
        if !self.cycles_plain() {
            let idle = cycles.saturating_sub(mem_beats);
            self.revoker.step_n(&mut self.sram, &self.bitmap, idle);
            if self.tracer.is_some() && !self.revoker.in_progress() {
                self.emit_revoker_finish();
            }
        }
    }

    /// Is [`Machine::advance`] a plain cycle bump right now? True exactly
    /// when no hardware revoker sweep is in flight. Only an MMIO store to
    /// the revoker's `KICK` register (or a host call between runs) can
    /// make it false; only the revoker stepping to completion (under
    /// `advance` or an idle `wfi`) makes it true again.
    #[inline]
    fn cycles_plain(&self) -> bool {
        !(self.cfg.hw_revoker && self.revoker.in_progress())
    }

    /// Emits the sweep-completion event (called from the two places that
    /// step the revoker to completion).
    fn emit_revoker_finish(&mut self) {
        let epoch = self.revoker.epoch();
        let words_invalidated = self.revoker.words_invalidated;
        self.trace_emit(EventKind::RevokerFinish {
            epoch,
            words_invalidated,
        });
    }

    // --- Bus ----------------------------------------------------------------

    fn is_sram(&self, addr: u32, size: u32) -> bool {
        self.sram.contains(addr, size)
    }

    /// Raw scalar bus read (no capability check). Always inlined, like
    /// [`Machine::bus_write`]: the chained loop's load and store arms run
    /// it per instruction, and only the MMIO path stays out of line.
    #[inline(always)]
    pub fn bus_read(&mut self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        if self.is_sram(addr, size) {
            return self.sram.read_scalar(addr, size);
        }
        self.mmio_read(addr, size)
    }

    /// Raw scalar bus write (no capability check). Clears the granule tag,
    /// snoops the revoker, and updates the stack high-water mark.
    #[inline(always)]
    pub fn bus_write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        if self.cfg.hwm_enabled {
            self.cpu.note_store(addr);
        }
        if self.is_sram(addr, size) {
            self.sram.write_scalar(addr, size, value)?;
            self.revoker.snoop_store(addr);
            return Ok(());
        }
        self.mmio_write(addr, size, value)
    }

    /// Raw capability bus read, applying the load filter and recording the
    /// strip statistic. No capability *authority* check and no LG/LM
    /// attenuation — callers do those.
    ///
    /// Served from the SRAM's decoded side cache when possible, so a load
    /// of a just-stored capability copies the decoded form instead of
    /// re-deriving bounds. The filter still keys off the raw tag: untagged
    /// words skip the base decode entirely (`filter_strips`' tag conjunct
    /// would discard it anyway).
    pub fn bus_read_cap(&mut self, addr: u32) -> Result<Capability, TrapCause> {
        let mut c = self.sram.read_cap(addr)?;
        if self.cfg.load_filter && c.tag() && self.bitmap.filter_strips(true, c.base()) {
            c = c.cleared();
            self.stats.filter_strips += 1;
            self.trace_emit(EventKind::FilterStrip { addr });
        }
        Ok(c)
    }

    /// Raw capability bus write. Fills the SRAM's decoded side cache.
    pub fn bus_write_cap(&mut self, addr: u32, c: Capability) -> Result<(), TrapCause> {
        if self.cfg.hwm_enabled {
            self.cpu.note_store(addr);
        }
        self.sram.write_cap(addr, c)?;
        self.revoker.snoop_store(addr);
        Ok(())
    }

    /// Is `base` one of the hardwired (non-bus) SoC windows? Those are on
    /// hot paths or architecturally entangled with the core and keep their
    /// legacy word-aligned-only access contract.
    fn hardwired_window(base: u32) -> bool {
        matches!(
            base,
            layout::REV_BITMAP_BASE | layout::TIMER_BASE | layout::REVOKER_BASE | layout::GPIO_BASE
        )
    }

    #[inline(never)]
    fn mmio_read(&mut self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        let (base, off) = (
            addr & !(layout::MMIO_SIZE - 1),
            addr & (layout::MMIO_SIZE - 1),
        );
        if !Machine::hardwired_window(base) {
            return self.device_read(addr, size);
        }
        if size != 4 || !addr.is_multiple_of(4) {
            return Err(TrapCause::BusError { addr });
        }
        match base {
            layout::REV_BITMAP_BASE => Ok(self.bitmap.read_word32(off / 4)),
            layout::TIMER_BASE => Ok(match off {
                0x0 => self.cycles as u32,
                0x4 => (self.cycles >> 32) as u32,
                0x8 => self.mtimecmp as u32,
                0xc => (self.mtimecmp >> 32) as u32,
                _ => 0,
            }),
            layout::REVOKER_BASE => Ok(self.revoker.mmio_read(off)),
            _ => Ok(if off == 0 { self.gpio_out } else { 0 }),
        }
    }

    #[inline(never)]
    fn mmio_write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        let (base, off) = (
            addr & !(layout::MMIO_SIZE - 1),
            addr & (layout::MMIO_SIZE - 1),
        );
        if !Machine::hardwired_window(base) {
            return self.device_write(addr, size, value);
        }
        if size != 4 || !addr.is_multiple_of(4) {
            return Err(TrapCause::BusError { addr });
        }
        match base {
            layout::REV_BITMAP_BASE => self.bitmap.write_word32(off / 4, value),
            layout::TIMER_BASE => match off {
                0x8 => self.mtimecmp = (self.mtimecmp & !0xffff_ffff) | u64::from(value),
                0xc => self.mtimecmp = (self.mtimecmp & 0xffff_ffff) | (u64::from(value) << 32),
                _ => {}
            },
            layout::REVOKER_BASE => {
                let epoch_before = self.revoker.epoch();
                self.revoker.mmio_write(off, value);
                if self.revoker.epoch() != epoch_before {
                    let epoch = self.revoker.epoch();
                    self.trace_emit(EventKind::RevokerStart { epoch });
                }
            }
            _ => {
                if off == 0 {
                    self.gpio_out = value;
                    self.gpio_writes += 1;
                }
            }
        }
        Ok(())
    }

    /// Routes an MMIO read outside the hardwired windows to the device
    /// bus. The bus is detached (`mem::take`) around the device call so
    /// the device can reach the rest of the machine (DMA, console)
    /// without aliasing it; afterwards device IRQ levels are re-sampled
    /// and newly-risen lines latched into the interrupt controller.
    fn device_read(&mut self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        let mut bus = std::mem::take(&mut self.bus);
        let r = bus.read(self, addr, size);
        let newly = bus.poll_irqs();
        self.bus = bus;
        self.note_device_irqs(newly);
        let (dev, value) = r.map_err(|crate::bus::BusError| TrapCause::BusError { addr })?;
        if self.tracer.is_some() {
            self.trace_emit(EventKind::MmioRead { dev, addr, value });
        }
        Ok(value)
    }

    /// Routes an MMIO write outside the hardwired windows to the device
    /// bus (see [`Machine::device_read`] for the detach/latch protocol).
    fn device_write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        let mut bus = std::mem::take(&mut self.bus);
        let r = bus.write(self, addr, size, value);
        let newly = bus.poll_irqs();
        self.bus = bus;
        self.note_device_irqs(newly);
        let dev = r.map_err(|crate::bus::BusError| TrapCause::BusError { addr })?;
        if self.tracer.is_some() {
            self.trace_emit(EventKind::MmioWrite { dev, addr, value });
        }
        Ok(())
    }

    /// Emits one `DeviceIrq` trace event per newly-latched interrupt line.
    fn note_device_irqs(&mut self, newly: u32) {
        if newly == 0 || self.tracer.is_none() {
            return;
        }
        let mut lines = newly;
        while lines != 0 {
            let line = lines.trailing_zeros();
            lines &= lines - 1;
            let dev = self.bus.line_owner(line);
            self.trace_emit(EventKind::DeviceIrq { dev, line });
        }
    }

    /// Re-samples device IRQ levels outside an MMIO access (host-side
    /// mutation: RX injection, fault hooks). Latches rising edges exactly
    /// as a bus access would.
    pub fn poll_device_irqs(&mut self) {
        let newly = self.bus.poll_irqs();
        self.note_device_irqs(newly);
    }

    // --- DMA ------------------------------------------------------------------

    /// A device-initiated read of `buf.len()` bytes from `src`. SRAM
    /// serves raw bytes (tags are *not* readable this way — DMA moves
    /// data, never capabilities); the code region re-encodes loaded
    /// instructions to words (4-aligned ranges only). Anything else is a
    /// bus error.
    ///
    /// # Errors
    ///
    /// Bus error when the range is unmapped or (for code) misaligned.
    pub fn dma_read(&mut self, src: u32, buf: &mut [u8]) -> Result<(), TrapCause> {
        if buf.is_empty() {
            return Ok(());
        }
        if self.sram.contains(src, buf.len() as u32) {
            return self.sram.read_bytes(src, buf);
        }
        let end = u64::from(src) + buf.len() as u64;
        if src >= layout::CODE_BASE
            && end <= u64::from(self.code_end())
            && src.is_multiple_of(4)
            && buf.len().is_multiple_of(4)
        {
            for (i, chunk) in buf.chunks_exact_mut(4).enumerate() {
                let addr = src + 4 * i as u32;
                let instr = self.code_at(addr).ok_or(TrapCause::BusError { addr })?;
                let word =
                    crate::encoding::encode(&instr).map_err(|_| TrapCause::BusError { addr })?;
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            return Ok(());
        }
        Err(TrapCause::BusError { addr: src })
    }

    /// A device-initiated write of `buf` at `dst`, preserving every
    /// memory-safety invariant a DMA master must: SRAM stores clear all
    /// covered capability tags, unshare the covered pages from any
    /// snapshot/fork (so the next restore moves them), and snoop the
    /// in-flight revoker sweep; code-region stores decode each word and
    /// go through [`Machine::patch_code`], so a word that changes an
    /// instruction invalidates the covering predecoded blocks and bumps
    /// the coherence generation (retiring chained successor links).
    /// Emits a `DmaTransfer` trace event attributed to the dispatching
    /// device.
    ///
    /// # Errors
    ///
    /// Bus error when the range is unmapped, a code store is misaligned,
    /// or a stored word does not decode to an instruction (the code
    /// region holds predecoded instructions, not bytes).
    pub fn dma_write(&mut self, dst: u32, buf: &[u8]) -> Result<(), TrapCause> {
        if buf.is_empty() {
            return Ok(());
        }
        if self.sram.contains(dst, buf.len() as u32) {
            self.sram.write_bytes(dst, buf)?;
            self.revoker.snoop_range(dst, buf.len() as u32);
            self.emit_dma(dst, buf.len() as u32);
            return Ok(());
        }
        let end = u64::from(dst) + buf.len() as u64;
        if dst >= layout::CODE_BASE
            && end <= u64::from(self.code_end())
            && dst.is_multiple_of(4)
            && buf.len().is_multiple_of(4)
        {
            for (i, chunk) in buf.chunks_exact(4).enumerate() {
                let addr = dst + 4 * i as u32;
                let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                let instr =
                    crate::encoding::decode(word).map_err(|_| TrapCause::BusError { addr })?;
                self.patch_code(addr, instr)
                    .map_err(|_| TrapCause::BusError { addr })?;
            }
            self.emit_dma(dst, buf.len() as u32);
            return Ok(());
        }
        Err(TrapCause::BusError { addr: dst })
    }

    fn emit_dma(&mut self, dst: u32, len: u32) {
        if self.tracer.is_some() {
            let dev = self.active_dev;
            self.trace_emit(EventKind::DmaTransfer { dev, dst, len });
        }
    }

    // --- Host-side device access ----------------------------------------------

    /// Queues `bytes` into the first attached [`Uart`]'s RX FIFO and
    /// re-samples IRQ levels (so an enabled RX interrupt latches
    /// immediately). Returns `false` when no UART is attached.
    pub fn uart_inject_rx(&mut self, bytes: &[u8]) -> bool {
        match self.bus.device_mut::<Uart>() {
            Some(u) => {
                u.inject_rx(bytes);
                self.poll_device_irqs();
                true
            }
            None => false,
        }
    }

    /// Latches `lines` directly into the interrupt controller's pending
    /// register (spurious-IRQ fault injection, host-raised interrupts).
    pub fn raise_device_irq(&mut self, lines: u32) {
        let newly = lines & !self.bus.intc.pending;
        self.bus.intc.pending |= lines;
        self.note_device_irqs(newly);
    }

    /// Clears pending interrupt lines (dropped-IRQ fault injection).
    pub fn drop_device_irq(&mut self, lines: u32) {
        self.bus.intc.pending &= !lines;
    }

    /// First DMA descriptor anchor advertised by any attached device
    /// (fault-injection target; `None` when no DMA-capable device is
    /// configured).
    pub fn dma_desc_addr(&self) -> Option<u32> {
        self.bus.dma_desc_addr()
    }

    // --- Traps and interrupts -------------------------------------------------

    fn enter_trap(&mut self, cause: TrapCause, epc: u32) {
        self.last_trap = Some(cause);
        if self.tracer.is_some() {
            let kind = if cause.is_interrupt() {
                EventKind::IrqDelivered {
                    pc: epc,
                    mcause: cause.mcause(),
                }
            } else {
                EventKind::Trap {
                    pc: epc,
                    mcause: cause.mcause(),
                }
            };
            self.trace_emit(kind);
        }
        if !self.cpu.mtcc.tag() {
            // No trap vector: unrecoverable.
            self.halted = Some(ExitReason::Fault(cause));
            return;
        }
        if cause.is_interrupt() {
            self.stats.interrupts += 1;
        } else {
            self.stats.traps += 1;
        }
        self.cpu.mepcc = self.cpu.pcc.with_address(epc);
        self.cpu.mcause = cause.mcause();
        self.cpu.mtval = match cause {
            TrapCause::Cheri { reg, .. } => u32::from(reg),
            TrapCause::Misaligned { addr } | TrapCause::BusError { addr } => addr,
            _ => 0,
        };
        self.cpu.prev_interrupts_enabled = self.cpu.interrupts_enabled;
        self.cpu.interrupts_enabled = false;
        if self.cpu.prev_interrupts_enabled {
            self.trace_emit(EventKind::InterruptPosture { enabled: false });
        }
        let target = self.cpu.mtcc.address();
        self.cpu.pcc = self.cpu.mtcc.with_address(target);
        // Trap entry costs a pipeline flush plus the vector fetch.
        let flush = self.cfg.core.branch_taken_penalty + 1;
        self.advance(flush, 0);
    }

    fn pending_interrupt(&mut self) -> Option<TrapCause> {
        if !self.cpu.interrupts_enabled {
            return None;
        }
        if self.cycles >= self.mtimecmp {
            return Some(TrapCause::TimerInterrupt);
        }
        if self.revoker.take_irq() {
            return Some(TrapCause::RevokerInterrupt);
        }
        if self.bus.irq_asserted() {
            // Level-triggered and non-consuming: the guest acks via the
            // interrupt controller's CLAIM/W1C registers. Trap entry
            // disables interrupts, so an unacked level cannot storm.
            return Some(TrapCause::ExternalInterrupt);
        }
        None
    }

    /// Any non-timer IRQ line pending (revoker completion or an unmasked
    /// device line)? The batched dispatch loops use this as the boundary
    /// condition alongside the `mtimecmp` comparison.
    #[inline]
    fn irq_lines_pending(&self) -> bool {
        self.revoker.irq_pending() || self.bus.irq_asserted()
    }

    // --- Execution -------------------------------------------------------------

    /// Runs until halt, fault, idle, or the cycle budget is exhausted.
    ///
    /// Batched event loop: interrupts can only become deliverable when the
    /// cycle counter crosses `mtimecmp`, the revoker completion flag rises
    /// (both only move inside instruction execution), or the interrupt
    /// posture changes (sentry jumps, `mret`, trap entry) — so the inner
    /// loop fetch/executes without the per-instruction
    /// [`Machine::pending_interrupt`] poll of [`Machine::step`] and breaks
    /// only on those events. Delivery happens at exactly the same
    /// instruction boundary (and cycle count) as the stepwise loop.
    pub fn run(&mut self, max_cycles: u64) -> ExitReason {
        let limit = self.cycles.saturating_add(max_cycles);
        while self.halted.is_none()
            && self.cycles < limit
            && self.stats.instructions < self.wd_limit
        {
            if self.deliver_pending_interrupt() {
                continue;
            }
            if self.cfg.block_cache {
                self.run_blocks(limit);
            } else {
                self.run_stepwise(limit);
            }
        }
        self.exit_reason()
    }

    /// Delivers a pending interrupt (if any) at the current PC. One shared
    /// helper so [`Machine::step`] and [`Machine::run`] cannot diverge on
    /// delivery conditions. Returns whether a trap was entered.
    fn deliver_pending_interrupt(&mut self) -> bool {
        match self.pending_interrupt() {
            Some(irq) => {
                let pc = self.cpu.pc();
                self.enter_trap(irq, pc);
                true
            }
            None => false,
        }
    }

    /// The batched-loop boundary check, shared by the stepwise and block
    /// loops: did the last instruction change the interrupt posture, or
    /// (posture permitting) make an interrupt deliverable? Only when this
    /// holds does the run loop re-poll [`Machine::pending_interrupt`].
    #[inline]
    fn irq_boundary(&self, was_enabled: bool) -> bool {
        self.cpu.interrupts_enabled != was_enabled
            || (was_enabled && (self.cycles >= self.mtimecmp || self.irq_lines_pending()))
    }

    /// Why the run loop stopped (shared by both loop bodies).
    fn exit_reason(&self) -> ExitReason {
        self.halted
            .unwrap_or(if self.stats.instructions >= self.wd_limit {
                ExitReason::Watchdog
            } else {
                ExitReason::CycleLimit
            })
    }

    /// The per-instruction inner loop (`block_cache: false`, and the
    /// reference semantics the block loop must match exactly).
    fn run_stepwise(&mut self, limit: u64) {
        let wd = self.wd_limit;
        while self.halted.is_none() && self.cycles < limit && self.stats.instructions < wd {
            let enabled = self.cpu.interrupts_enabled;
            self.step_instr();
            if self.irq_boundary(enabled) {
                return;
            }
        }
    }

    /// The predecoded-block inner loop: dispatches whole cached basic
    /// blocks with no fetch/decode, re-checking the cycle/watchdog budget
    /// and interrupt arrival between instructions at exactly the points
    /// [`Machine::run_stepwise`] would, so delivery boundaries, trap PCs
    /// and cycle counts are identical.
    fn run_blocks(&mut self, limit: u64) {
        let wd = self.wd_limit;
        while self.halted.is_none() && self.cycles < limit && self.stats.instructions < wd {
            let enabled = self.cpu.interrupts_enabled;
            let Some((idx, block)) = self.block_take(self.cpu.pc()) else {
                // Out-of-range/unaligned PCs, PCCs narrower than the whole
                // block, and fetch faults take the exact per-instruction
                // path (including its trap reporting).
                self.step_instr();
                if self.irq_boundary(enabled) {
                    return;
                }
                continue;
            };
            // The block is *moved* out of its cache slot for the duration
            // of its execution and moved back after — no refcount traffic
            // on the hot path. The one invalidation that can happen in
            // between is a device's DMA into code inside the general
            // `exec` path, and it never frees the held entry; `exec_chain`
            // then drops the block instead of restoring it. `exec_chain`
            // owns the restore: with chaining it keeps dispatching
            // successor blocks until a stop boundary.
            let exit = self.exec_chain(idx, block, limit, wd, enabled);
            if exit == BlockExit::Stop {
                return;
            }
        }
    }

    /// Dispatches one predecoded instruction through the inline fast
    /// arms: the inline-handled set ([`inline_handled!`]) through
    /// [`Machine::exec_inline`] restricted to SRAM, and the interior
    /// jump and guard arms of superblocks. On [`Fast::Done`] nothing
    /// trapped, halted or jumped, no penalty cycles accrued beyond
    /// `base_cycles`, and neither `mtimecmp` nor the revoker IRQ line
    /// moved — the guarantees the chained dispatch loop's
    /// register-resident counters and its unchecked inner loop
    /// (DESIGN.md §13) rely on. [`Fast::Guard`] gives the same guarantees
    /// except that the caller charges the taken penalty and checks the
    /// successor. On [`Fast::Bail`] the caller re-executes through the
    /// general `exec` path from scratch, which repeats the refused
    /// instruction with full trap bookkeeping: an MMIO access bails with
    /// nothing mutated (the timer reads `self.cycles`, register-resident
    /// here, and MMIO stores can move `mtimecmp` or kick the revoker),
    /// and a faulting access bails having at most noted a store in the
    /// stack high-water mark, which the re-execution notes again to the
    /// same effect. `interior` is true when another predecoded
    /// instruction follows in the same block (it gates the interior-jump
    /// arm, whose penalty was folded in at decode or promotion, and the
    /// guard arm).
    #[inline(always)]
    fn exec_fast(&mut self, instr: &Instr, pc: u32, interior: bool) -> Fast {
        // One match over every inline arm keeps the chained loop at one
        // dispatch per instruction.
        match *instr {
            inline_handled!() => match self.exec_inline::<true>(instr) {
                Ok(true) => Fast::Done,
                _ => Fast::Bail,
            },
            // An *interior* `j` is a superblock edge (chased at
            // decode or appended by promotion): rd is x0 (no state
            // change), the jump penalty was folded into
            // `base_cycles`, and the next predecoded instruction's
            // `pc` is the target. A `j` in last position takes the
            // inline exit arm in `exec_chain` instead (charging the
            // penalty here and there would double-count it).
            Instr::Jal { rd, .. } if rd == Reg::ZERO && interior => Fast::Done,
            // An interior conditional branch is a promoted block's
            // guard. It cannot trap; the caller charges the taken penalty
            // and leaves the block when `npc` is not the next instruction.
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } if interior => {
                let (npc, taken) = self.resolve_branch(cond, rs1, rs2, offset, pc);
                Fast::Guard { npc, taken }
            }
            _ => Fast::Bail,
        }
    }

    /// Executes an instruction of the inline-handled set
    /// ([`inline_handled!`]): the one implementation of each, shared by
    /// the general path ([`Machine::exec`], `SRAM_ONLY = false`) and the
    /// inline fast arms ([`Machine::exec_fast`], `SRAM_ONLY = true`).
    /// Returns `Ok(true)` once the instruction has executed. With
    /// `SRAM_ONLY`, a scalar access outside SRAM returns `Ok(false)` with
    /// nothing mutated (capability accesses reach SRAM only). Any other
    /// instruction returns `Ok(false)`.
    ///
    /// The pure-register instructions never trap. Each memory
    /// instruction checks its authority before it touches memory (`LD`
    /// for loads, `SD` for stores, `LD|MC` for `clc`, `SD|MC` and the
    /// store-local rule for `csc`); a store then notes its address in the
    /// stack high-water mark *before* the write, so a store that faults
    /// on the write still moves the mark.
    #[inline(always)]
    fn exec_inline<const SRAM_ONLY: bool>(&mut self, instr: &Instr) -> Result<bool, TrapCause> {
        match *instr {
            Instr::Lui { rd, imm } => self.cpu.write_int(rd, imm << 12),
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = self.cpu.read_int(rs1);
                self.cpu.write_int(rd, alu(op, a, imm as u32));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let a = self.cpu.read_int(rs1);
                let b = self.cpu.read_int(rs2);
                self.cpu.write_int(rd, alu(op, a, b));
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.cpu.read_int(rs1);
                let b = self.cpu.read_int(rs2);
                self.cpu.write_int(rd, muldiv(op, a, b));
            }
            Instr::CGet { field, rd, rs1 } => {
                let c = self.cpu.read(rs1);
                let v = match field {
                    CapField::Perm => u32::from(c.perms().bits()),
                    CapField::Type => u32::from(c.otype().field()),
                    CapField::Base => c.base(),
                    CapField::Len => c.length().min(u64::from(u32::MAX)) as u32,
                    CapField::Tag => u32::from(c.tag()),
                    CapField::Addr => c.address(),
                    CapField::High => (c.to_word() >> 32) as u32,
                };
                self.cpu.write_int(rd, v);
            }
            Instr::CSetAddr { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let a = self.cpu.read_int(rs2);
                self.cpu.write(rd, c.with_address(a));
            }
            Instr::CIncAddr { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let a = self.cpu.read_int(rs2);
                self.cpu.write(rd, c.incremented(a as i32));
            }
            Instr::CIncAddrImm { rd, rs1, imm } => {
                let c = self.cpu.read(rs1);
                self.cpu.write(rd, c.incremented(imm));
            }
            Instr::CSetBounds {
                rd,
                rs1,
                rs2,
                exact,
            } => {
                let c = self.cpu.read(rs1);
                let len = u64::from(self.cpu.read_int(rs2));
                let out = if exact {
                    c.set_bounds_exact(len)
                } else {
                    c.set_bounds(len)
                };
                self.cpu.write(rd, out.unwrap_or_else(|| c.cleared()));
            }
            Instr::CSetBoundsImm { rd, rs1, imm } => {
                let c = self.cpu.read(rs1);
                let out = c.set_bounds(u64::from(imm));
                self.cpu.write(rd, out.unwrap_or_else(|| c.cleared()));
            }
            Instr::CAndPerm { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let mask = Permissions::from_bits(self.cpu.read_int(rs2) as u16);
                self.cpu.write(rd, c.and_perms(mask));
            }
            Instr::CClearTag { rd, rs1 } => {
                let c = self.cpu.read(rs1);
                self.cpu.write(rd, c.cleared());
            }
            Instr::CMove { rd, rs1 } => {
                let c = self.cpu.read(rs1);
                self.cpu.write(rd, c);
            }
            Instr::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let auth = self.cpu.read(rs1);
                let (addr, size) = (auth.address().wrapping_add(offset as u32), width.bytes());
                if SRAM_ONLY && !self.is_sram(addr, size) {
                    return Ok(false);
                }
                if self.cfg.cheri_enabled {
                    auth.check_access(addr, size, Permissions::LD)
                        .map_err(|f| cheri(rs1, f))?;
                }
                let raw = self.bus_read(addr, size)?;
                let v = if signed { sign_extend(raw, size) } else { raw };
                self.cpu.write_int(rd, v);
                self.stats.loads += 1;
                self.pending_use = Some((rd, self.cfg.core.load_to_use));
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let auth = self.cpu.read(rs1);
                let (addr, size) = (auth.address().wrapping_add(offset as u32), width.bytes());
                if SRAM_ONLY && !self.is_sram(addr, size) {
                    return Ok(false);
                }
                if self.cfg.cheri_enabled {
                    auth.check_access(addr, size, Permissions::SD)
                        .map_err(|f| cheri(rs1, f))?;
                }
                let v = self.cpu.read_int(rs2);
                self.bus_write(addr, size, v)?;
                self.stats.stores += 1;
            }
            Instr::Clc { rd, rs1, offset } => {
                let auth = self.cpu.read(rs1);
                let addr = auth.address().wrapping_add(offset as u32);
                auth.check_access(addr, GRANULE, Permissions::LD | Permissions::MC)
                    .map_err(|f| cheri(rs1, f))?;
                // The filter-strip trace event is stamped exactly: with a
                // tracer installed the chained loop syncs `self.cycles`
                // before every instruction.
                let c = self.bus_read_cap(addr)?.attenuated_on_load(auth);
                self.cpu.write(rd, c);
                self.stats.cap_loads += 1;
                self.pending_use = Some((rd, self.cfg.core.load_to_use));
            }
            Instr::Csc { rs2, rs1, offset } => {
                let auth = self.cpu.read(rs1);
                let addr = auth.address().wrapping_add(offset as u32);
                let c = self.cpu.read(rs2);
                auth.check_store_cap(addr, c).map_err(|f| cheri(rs1, f))?;
                self.bus_write_cap(addr, c)?;
                self.stats.cap_stores += 1;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Executes the predecoded block at slot `idx` (taken by the caller
    /// via [`Machine::block_take`]) and — with chaining enabled — keeps
    /// dispatching successor blocks through the successor links until a
    /// stop boundary, never returning to the dispatcher in between
    /// (DESIGN.md §13). The block in hand is always returned to its slot
    /// before this function returns. Returns whether the outer run loop
    /// should stop (budget, halt, interrupt boundary) or re-dispatch.
    fn exec_chain(
        &mut self,
        mut idx: usize,
        mut block: Arc<Block>,
        limit: u64,
        wd: u64,
        enabled: bool,
    ) -> BlockExit {
        /// How one block's instruction loop ended.
        #[derive(Clone, Copy)]
        enum BodyExit {
            /// A path inside the loop already synced counters + PCC and
            /// the run must stop (budget boundary, halt, mid-block IRQ).
            Stop,
            /// Fell off the end of the block, or an inline branch/jump
            /// arm resolved the next PC: counters live in locals and the
            /// PCC address is *not* yet written (same bounds, so the
            /// fingerprint is unchanged).
            Fall(u32),
            /// The general `exec` path jumped or trapped: the PCC is
            /// fully installed and `self`'s counters are authoritative.
            Jumped,
        }

        let chain = self.cfg.block_chain;
        // Successor links embed the generation they were recorded under.
        // Mid-chain it moves on this loop's own promotions, which reload
        // it, and on a code store by a device's DMA inside the general
        // `exec` path. A store may have rewritten the held block, which
        // the invalidation could not reach, so a general-path instruction
        // that moved the generation ends the pass at the next PC and the
        // held block is dropped rather than put back (`put_back!`).
        let mut gen = self.blocks.stats.generation;
        // The PCC address is materialised lazily: the loop reads each
        // instruction's predecoded `pc` and writes the PCC only at stop
        // boundaries and real jumps (every path below that leaves the
        // loop syncs first). Chained fall-through edges keep the stale
        // address: it stays inside the PCC bounds (every chained block
        // was verified under the same fingerprint), so the deferred
        // `with_address` calls are pure address updates and any later
        // out-of-bounds move decodes identically (see
        // `Capability::with_address`).
        let has_tracer = self.tracer.is_some();
        // Register-resident loop state. `cyc`/`ins` are the authoritative
        // cycle/instruction counters inside the loop: `sync!` writes them
        // back before every operation that could observe them (the
        // general `exec` path, every exit; tracing writes `cyc` alone).
        // `mtimecmp`/`irq_pend`/`plain_cycles` can only change through
        // general-path instructions (MMIO stores, revoker stepping under
        // `advance`), so `reload!` re-reads them exactly there; across
        // inline stretches the cached values are exact. While no revoker
        // sweep is in flight (`plain_cycles`), `advance` is a bare cycle
        // bump, so `charge!` keeps `cyc` in a register. A sweep can only
        // start through the general `exec` path (an MMIO store to
        // `KICK`), which always calls `advance` and reloads the flag;
        // fast arms cannot start one. These three idioms are local macros
        // rather than methods on a state struct: the struct version
        // changed LLVM's inlining in this loop and cost CoreMark
        // throughput.
        let mut cyc = self.cycles;
        let mut ins = self.stats.instructions;
        let mut mtimecmp = self.mtimecmp;
        let mut irq_pend = self.irq_lines_pending();
        let mut plain_cycles = self.cycles_plain();
        macro_rules! sync {
            () => {
                self.cycles = cyc;
                self.stats.instructions = ins;
            };
        }
        macro_rules! reload {
            () => {
                cyc = self.cycles;
                mtimecmp = self.mtimecmp;
                irq_pend = self.irq_lines_pending();
                plain_cycles = self.cycles_plain();
            };
        }
        // Returns the held block to its entry, or drops it when code was
        // stored into since the loop took it.
        macro_rules! put_back {
            () => {
                if self.blocks.stats.generation == gen {
                    self.blocks.restore(idx, block);
                } else {
                    self.blocks.discard(idx, &block);
                }
            };
        }
        // Charges `cycles`, of which `mem_beats` used the load/store unit.
        macro_rules! charge {
            ($cycles:expr, $mem_beats:expr) => {
                if plain_cycles {
                    cyc += $cycles;
                } else {
                    self.cycles = cyc;
                    self.advance($cycles, $mem_beats);
                    reload!();
                }
            };
        }
        // Fingerprint of the PCC bounds the held block was fetch-verified
        // under (`block_take` just verified it, so the fingerprint
        // exists; the `else` is defensive). Links are keyed on it: a
        // matching link proves its target block was verified under these
        // exact bounds, which is what makes skipping
        // `verify_block_fetch` on chained edges sound.
        let Some(mut fp) = self.cpu.pcc.fetch_fingerprint() else {
            self.blocks.restore(idx, block);
            return BlockExit::Continue;
        };
        'chain: loop {
            let n = block.insns.len();
            let out = 'body: {
                // Unchecked inner loop (DESIGN.md §13): `block.worst_cycles`
                // bounds what one full non-trapping pass can accrue, so when
                // `cyc + worst_cycles` clears both the budget limit and the
                // timer compare (and the instruction budget covers the whole
                // block, no tracer wants per-instruction events, and no
                // revoker sweep is in flight), none of the per-instruction
                // boundary checks below can fire — run the block's *fast
                // stream* (chased jumps pre-folded into their successors at
                // decode) without them. Fast arms cannot move `mtimecmp`, the
                // interrupt posture or the halt latch, nor start a sweep, so
                // with no sweep in flight `irq_pend` is constant across the
                // stretch and every skipped check would have evaluated false.
                // An element the fast path refuses falls through to the
                // checked loop at its `resume` index with nothing executed
                // twice: `ins`/`cyc` are charged only after `exec_fast`
                // succeeds, a hazard stall consumed here stays consumed
                // (`pending_use.take()`), matching the stepwise order of
                // charge-then-execute, and a faulting store's high-water-mark
                // note repeats to the same effect. A guard that resolves away from the
                // next instruction charges its real cycles, retires, and
                // leaves through the ordinary fall-through boundary; the
                // bound covered its taken penalty.
                let mut skip = 0usize;
                if plain_cycles
                    && !has_tracer
                    && ins + n as u64 <= wd
                    && cyc.saturating_add(block.worst_cycles) < limit
                    && (!enabled
                        || (!irq_pend && cyc.saturating_add(block.worst_cycles) < mtimecmp))
                {
                    skip = block.fast_end as usize;
                    for f in block.fast.iter() {
                        if f.check_hazard {
                            cyc += self.take_stall(&f.srcs);
                        }
                        match self.exec_fast(&f.d.instr, f.d.pc, true) {
                            Fast::Done => {}
                            Fast::Bail => {
                                skip = f.resume as usize;
                                break;
                            }
                            Fast::Guard { npc, taken } => {
                                ins += u64::from(f.retires);
                                cyc += f.cycles;
                                if taken {
                                    cyc += self.cfg.core.branch_taken_penalty;
                                }
                                let next = (f.resume + f.retires) as usize;
                                if npc != block.insns[next].pc {
                                    self.blocks.stats.side_exits += 1;
                                    break 'body BodyExit::Fall(npc);
                                }
                                continue;
                            }
                        }
                        ins += u64::from(f.retires);
                        cyc += f.cycles;
                    }
                }
                for (i, d) in block.insns.iter().enumerate().skip(skip) {
                    let pc = d.pc;
                    if i != 0 && (cyc >= limit || ins >= wd) {
                        // Budget boundary mid-block: stop exactly where the
                        // stepwise loop would, PC on the next instruction.
                        sync!();
                        self.finish_jump(pc);
                        break 'body BodyExit::Stop;
                    }
                    // Load-to-use hazard from the previous instruction; only
                    // loads set it, so predecode marks the instructions that
                    // could observe one.
                    if d.check_hazard {
                        let stall = self.take_stall(&d.srcs);
                        if stall != 0 {
                            charge!(stall, 0);
                        }
                    }
                    ins += 1;
                    if has_tracer {
                        self.cycles = cyc; // event timestamp
                        self.trace_emit(EventKind::InstrRetired { pc });
                    }
                    let fast = self.exec_fast(&d.instr, pc, i + 1 < n);
                    if fast != Fast::Bail {
                        let cycles = match fast {
                            Fast::Guard { taken: true, .. } => {
                                d.base_cycles + self.cfg.core.branch_taken_penalty
                            }
                            _ => d.base_cycles,
                        };
                        charge!(cycles, d.mem_beats);
                        // A guard is always interior: it either continues
                        // at the next instruction or side-exits here.
                        if let Fast::Guard { npc, .. } = fast {
                            if npc != block.insns[i + 1].pc {
                                self.blocks.stats.side_exits += 1;
                                break 'body BodyExit::Fall(npc);
                            }
                        }
                        // Fast arms cannot halt, so only the interrupt-arrival
                        // check applies before the next instruction. (A fast
                        // arm can sit in last position when a block was
                        // truncated at the length cap, hence the `get`.)
                        if enabled && (cyc >= mtimecmp || irq_pend) {
                            let npc = block.insns.get(i + 1).map_or(pc.wrapping_add(4), |x| x.pc);
                            sync!();
                            self.finish_jump(npc);
                            break 'body BodyExit::Stop;
                        }
                        continue;
                    }
                    // Inline block-ender arms: a conditional branch or `j`
                    // ends most blocks, and neither can trap, so both leave
                    // without the general `exec` round trip and defer the
                    // PCC address write to the chain boundary.
                    match d.instr {
                        Instr::Branch {
                            cond,
                            rs1,
                            rs2,
                            offset,
                        } => {
                            let (npc, taken) = self.resolve_branch(cond, rs1, rs2, offset, pc);
                            let penalty = if taken {
                                self.cfg.core.branch_taken_penalty
                            } else {
                                0
                            };
                            charge!(d.base_cycles + penalty, d.mem_beats);
                            break 'body BodyExit::Fall(npc);
                        }
                        Instr::Jal { rd, offset } if rd == Reg::ZERO => {
                            // A last-position `j` (interior ones were chased
                            // at decode and took the fast arm): the x0 link is
                            // a no-op and nothing can trap.
                            let cycles = d.base_cycles + self.cfg.core.jump_penalty;
                            charge!(cycles, d.mem_beats);
                            break 'body BodyExit::Fall(pc.wrapping_add(offset as u32));
                        }
                        _ => {}
                    }
                    sync!();
                    let out = self.retire(d);
                    reload!();
                    match out {
                        PcOutcome::Advance => {}
                        PcOutcome::Jumped => break 'body BodyExit::Jumped,
                        PcOutcome::Stay => break 'body BodyExit::Stop,
                    }
                    let npc = block.insns.get(i + 1).map_or(pc.wrapping_add(4), |x| x.pc);
                    if self.halted.is_some() {
                        // Idle `wfi` with interrupts off: retires, PC advances.
                        self.finish_jump(npc);
                        break 'body BodyExit::Stop;
                    }
                    if self.blocks.stats.generation != gen {
                        // A device stored into code: the rest of this
                        // block may be stale.
                        break 'body BodyExit::Fall(npc);
                    }
                    // Mid-block the posture cannot change (posture-changing
                    // instructions end blocks; traps break out above), so the
                    // boundary check reduces to interrupt arrival.
                    if enabled && (cyc >= mtimecmp || irq_pend) {
                        self.finish_jump(npc);
                        break 'body BodyExit::Stop;
                    }
                }
                BodyExit::Fall(block.end)
            };
            // --- chain boundary ---
            let (next_pc, pcc_synced) = match out {
                BodyExit::Stop => {
                    put_back!();
                    return BlockExit::Stop;
                }
                BodyExit::Fall(npc) => (npc, false),
                BodyExit::Jumped => (self.cpu.pc(), true),
            };
            // Locals are current on every non-`Stop` exit (jumped/trapped
            // paths reloaded them), so the interrupt-boundary test the
            // dispatcher would run reads them directly.
            let irq_stop = self.cpu.interrupts_enabled != enabled
                || (enabled && (cyc >= mtimecmp || irq_pend));
            let code_stored = self.blocks.stats.generation != gen;
            if !chain
                || irq_stop
                || code_stored
                || self.halted.is_some()
                || cyc >= limit
                || ins >= wd
            {
                sync!();
                if !pcc_synced {
                    self.finish_jump(next_pc);
                }
                put_back!();
                return if irq_stop {
                    BlockExit::Stop
                } else {
                    BlockExit::Continue
                };
            }
            if pcc_synced {
                // The jump installed a fresh PCC whose bounds may differ
                // (cjalr, mret, trap vector). Re-fingerprint; a PCC that
                // cannot fetch at all goes back to the dispatcher for
                // exact per-instruction fault reporting.
                match self.cpu.pcc.fetch_fingerprint() {
                    Some(nfp) => fp = nfp,
                    None => {
                        sync!();
                        self.blocks.restore(idx, block);
                        return BlockExit::Continue;
                    }
                }
            }
            // Resolve the successor without returning to the dispatcher:
            // the successor links, then the full verified lookup (which
            // also records the missing link).
            if let Some((slot, hot)) = self.blocks.link_follow(idx, gen, next_pc, fp) {
                // Link hit: the target block was verified for fetch under
                // this exact fingerprint when the link was recorded, so
                // the per-dispatch `verify_block_fetch` is elided.
                if hot && slot != idx {
                    // Promotion (DESIGN.md §13): the held block has left
                    // through this one link `HOT` times, so its slot gets
                    // the block followed by its successor. Only this
                    // machine's slot changes: the `Arc` a fork may share
                    // is replaced, never mutated. The successor still runs
                    // next as a separate block; the superblock serves the
                    // next entry into this slot.
                    let promoted = self.promote_edge(&block, slot);
                    if let Some(sb) = promoted.filter(|sb| self.verify_block_fetch(sb)) {
                        block = sb;
                        gen = self.blocks.note_promotion();
                    }
                }
                if slot == idx {
                    // Self-loop (a one-block spin): the held block is its
                    // own successor.
                    self.blocks.stats.chain_hits += 1;
                    continue 'chain;
                }
                if let Some(nb) = self.blocks.take(slot) {
                    self.blocks.stats.chain_hits += 1;
                    self.blocks.restore(idx, block);
                    idx = slot;
                    block = nb;
                    continue 'chain;
                }
            }
            // Link miss: sync the PCC, return the held block, and take
            // the successor through the verified lookup; record the edge
            // for next time.
            sync!();
            if !pcc_synced {
                self.finish_jump(next_pc);
            }
            self.blocks.restore(idx, block);
            let Some((nidx, nb)) = self.block_take(next_pc) else {
                return BlockExit::Continue;
            };
            self.blocks.link_insert(idx, gen, next_pc, fp, nidx);
            idx = nidx;
            block = nb;
        }
    }

    /// The predecoded block starting at `pc`, with its entry handle,
    /// caching it on first sight ([`Machine::block_miss`]).
    /// The block is *moved* out of its entry — the caller executes it and
    /// hands it back with `self.blocks.restore(idx, ..)` — so the hot path
    /// pays no `Arc` refcount traffic. `None` sends the caller to the
    /// per-instruction slow path (the entry is always left populated in
    /// that case): PC outside loaded code, misaligned, a full block table
    /// ([`crate::blockcache::MAX_ENTRIES`]), an instruction no block of
    /// this config may start with (a CHERI instruction without CHERI,
    /// which the general path traps on), or a PCC that does not cover
    /// the whole block (the batched fetch check needs bounds over
    /// `[start, end)` — one interval, so checking the first and last
    /// instruction covers every one in between).
    fn block_take(&mut self, pc: u32) -> Option<(usize, Arc<Block>)> {
        if pc < layout::CODE_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let slot = ((pc - layout::CODE_BASE) / 4) as usize;
        if slot >= self.code.len() {
            return None;
        }
        if let Some((idx, b)) = self.blocks.take_at(slot) {
            if self.verify_block_fetch(&b) {
                self.blocks.stats.hits += 1;
                return Some((idx, b));
            }
            self.blocks.restore(idx, b);
            return None;
        }
        self.block_miss(slot)
    }

    /// [`Machine::block_take`] for a block this machine does not hold:
    /// takes it from the code image's shared store (counted as `shared`),
    /// or builds it (counted as a miss) and publishes it there, then
    /// caches it. Out of line but not `#[cold]`: inlined, it costs the
    /// dispatch loop it sits in, and campaigns and fuzzing take it
    /// constantly.
    #[inline(never)]
    fn block_miss(&mut self, slot: usize) -> Option<(usize, Arc<Block>)> {
        if !self.blocks.has_room() {
            return None;
        }
        let (block, built) = self.code.store().block(&self.code, slot, &self.cfg)?;
        if built {
            self.blocks.stats.misses += 1;
        } else {
            self.blocks.stats.shared += 1;
        }
        // The miss path caches a clone and returns the original; after
        // execution `restore` replaces the clone with it (same block).
        let idx = self
            .blocks
            .insert(slot, Arc::clone(&block), self.code.len());
        if self.verify_block_fetch(&block) {
            Some((idx, block))
        } else {
            None
        }
    }

    /// The superblock promoting the hot edge from `head` into the block of
    /// entry `tail` ([`crate::blockcache::BlockBuilder::promote`]), shared
    /// through the code image's store, so that siblings promoting the same
    /// edge hold one superblock. Out of line for the same reason as
    /// [`Machine::block_miss`].
    #[inline(never)]
    fn promote_edge(&mut self, head: &Arc<Block>, tail: usize) -> Option<Arc<Block>> {
        let tail = self.blocks.peek(tail)?;
        self.code.store().promotion(head, &tail, &self.cfg.core)
    }

    /// Can the current PCC fetch every instruction of `block`? The single
    /// audit point for batched fetch verification: each covered segment
    /// is one contiguous interval, so checking its first and last
    /// instruction covers every one in between, and the chained dispatch
    /// loop may elide this check entirely on edges recorded under the
    /// same PCC [`Capability::fetch_fingerprint`] — equal fingerprints
    /// give identical answers here (DESIGN.md §13).
    fn verify_block_fetch(&self, block: &Block) -> bool {
        block
            .ranges
            .iter()
            .all(|&(s, e)| self.cpu.pcc.check_fetch_range(s, e.wrapping_sub(4)))
    }

    /// Executes one instruction (or delivers one interrupt).
    pub fn step(&mut self) {
        if self.halted.is_some() {
            return;
        }
        if self.deliver_pending_interrupt() {
            return;
        }
        self.step_instr();
    }

    /// Fetch/execute of one instruction, without the interrupt poll (the
    /// batched [`Machine::run`] loop does that at its break points).
    fn step_instr(&mut self) {
        let pc = self.cpu.pc();
        let instr = match self.fetch(pc) {
            Ok(i) => i,
            Err(t) => {
                self.enter_trap(t, pc);
                return;
            }
        };
        let d = PredecodedInsn::new(pc, instr, &self.cfg.core, self.cfg.load_filter, true);
        // Load-to-use hazard from the previous instruction.
        let stall = self.take_stall(&d.srcs);
        if stall != 0 {
            self.advance(stall, 0);
        }
        self.stats.instructions += 1;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.emit(self.cycles, EventKind::InstrRetired { pc });
        }
        if self.retire(&d) == PcOutcome::Advance {
            self.finish_jump(pc.wrapping_add(4));
        }
    }

    /// The general-path retirement of one instruction, shared by
    /// [`Machine::step_instr`] and the checked loop of
    /// [`Machine::exec_chain`]: executes `d` through [`Machine::exec`] and
    /// charges `base + extra` cycles, or `base` on a trap. Charging always
    /// goes through `advance`: the instruction may have just kicked a
    /// revoker sweep, which then takes its idle cycles. A trap syncs the
    /// PCC to the offending instruction first (a double fault halts
    /// inside `enter_trap` and leaves the PCC for post-mortem inspection)
    /// and returns [`PcOutcome::Jumped`]; a `halt` parks the PCC on the
    /// instruction ([`PcOutcome::Stay`]). On [`PcOutcome::Advance`] the
    /// caller owns the `pc + 4` update.
    #[inline(always)]
    fn retire(&mut self, d: &PredecodedInsn) -> PcOutcome {
        match self.exec(d.instr, d.pc) {
            Ok((extra, out)) => {
                self.advance(d.base_cycles + extra, d.mem_beats);
                if out == PcOutcome::Stay {
                    self.finish_jump(d.pc);
                }
                out
            }
            Err(t) => {
                self.advance(d.base_cycles, 0);
                self.finish_jump(d.pc);
                self.enter_trap(t, d.pc);
                PcOutcome::Jumped
            }
        }
    }

    fn fetch(&self, pc: u32) -> Result<Instr, TrapCause> {
        self.cpu
            .pcc
            .check_fetch(pc)
            .map_err(|fault| TrapCause::Cheri {
                fault,
                reg: PCC_REG_INDEX,
            })?;
        if pc < layout::CODE_BASE || !pc.is_multiple_of(4) {
            return Err(TrapCause::BusError { addr: pc });
        }
        let idx = ((pc - layout::CODE_BASE) / 4) as usize;
        self.code
            .get(idx)
            .copied()
            .ok_or(TrapCause::BusError { addr: pc })
    }

    /// Executes `instr` at `pc`, returning extra (penalty) cycles and how
    /// the PC moved. On [`PcOutcome::Advance`] the PCC has *not* been
    /// touched — the caller owns the `pc + 4` update, which lets the block
    /// loop batch consecutive updates into one write at the block exit.
    ///
    /// Without the CHERI extension every CHERI instruction traps here as
    /// illegal. The block tiers run a CHERI instruction only through this
    /// path then: block decode under such a config stops before one and
    /// builds no block starting at one.
    fn exec(&mut self, instr: Instr, pc: u32) -> Result<(u64, PcOutcome), TrapCause> {
        if !self.cfg.cheri_enabled && instr.is_cheri() {
            return Err(TrapCause::IllegalInstruction);
        }
        let next = pc.wrapping_add(4);
        let mut extra = 0;
        let mut next_pc = next;
        match instr {
            inline_handled!() => {
                self.exec_inline::<false>(&instr)?;
            }
            Instr::Auipcc { rd, imm } => {
                let c = self.cpu.pcc.with_address(pc.wrapping_add(imm as u32));
                self.cpu.write(rd, c);
            }
            Instr::Auicgp { rd, imm } => {
                let gp = self.cpu.read(Reg::GP);
                let c = gp.with_address(gp.address().wrapping_add(imm as u32));
                self.cpu.write(rd, c);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let taken;
                (next_pc, taken) = self.resolve_branch(cond, rs1, rs2, offset, pc);
                if taken {
                    extra += self.cfg.core.branch_taken_penalty;
                }
            }
            Instr::Jal { rd, offset } => {
                self.link(rd, next)?;
                next_pc = pc.wrapping_add(offset as u32);
                extra += self.cfg.core.jump_penalty;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.cpu.read(rs1);
                if !self.cfg.cheri_enabled {
                    // Plain RV32E jalr: the register holds an address.
                    let addr = target.address().wrapping_add(offset as u32) & !1;
                    if rd != Reg::ZERO {
                        self.cpu.write_int(rd, next);
                    }
                    self.cpu.pcc = self.cpu.pcc.with_address(addr);
                    return Ok((extra + self.cfg.core.jump_penalty, PcOutcome::Jumped));
                }
                if !target.tag() {
                    return Err(cheri(rs1, cheriot_cap::CapFault::TagViolation));
                }
                let mut posture = None;
                let tc = if target.is_sealed() {
                    match target.otype().sentry_kind() {
                        Some(kind) if offset == 0 => {
                            posture = Some(match kind {
                                SentryKind::Forward(p) => p,
                                SentryKind::Return(InterruptPosture::Enabled) => {
                                    InterruptPosture::Enabled
                                }
                                SentryKind::Return(_) => InterruptPosture::Disabled,
                            });
                            target.unsealed_for_jump()
                        }
                        _ => {
                            return Err(cheri(rs1, cheriot_cap::CapFault::SealViolation));
                        }
                    }
                } else {
                    target
                };
                if !tc.perms().contains(Permissions::EX) {
                    return Err(cheri(
                        rs1,
                        cheriot_cap::CapFault::PermissionViolation {
                            needed: Permissions::EX,
                        },
                    ));
                }
                self.link(rd, next)?;
                let was_enabled = self.cpu.interrupts_enabled;
                match posture {
                    Some(InterruptPosture::Enabled) => self.cpu.interrupts_enabled = true,
                    Some(InterruptPosture::Disabled) => self.cpu.interrupts_enabled = false,
                    Some(InterruptPosture::Inherit) | None => {}
                }
                if self.cpu.interrupts_enabled != was_enabled {
                    self.trace_emit(EventKind::InterruptPosture {
                        enabled: self.cpu.interrupts_enabled,
                    });
                }
                let addr = tc.address().wrapping_add(offset as u32) & !1;
                self.cpu.pcc = tc.with_address(addr);
                extra += self.cfg.core.jump_penalty;
                return Ok((extra, PcOutcome::Jumped));
            }
            Instr::CSeal { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let auth = self.cpu.read(rs2);
                // Non-trapping: failures detag (CHERIoT semantics).
                let out = c.seal_with(auth).unwrap_or_else(|_| c.cleared());
                self.cpu.write(rd, out);
            }
            Instr::CUnseal { rd, rs1, rs2 } => {
                let c = self.cpu.read(rs1);
                let auth = self.cpu.read(rs2);
                let out = c.unseal_with(auth).unwrap_or_else(|_| c.cleared());
                self.cpu.write(rd, out);
            }
            Instr::CTestSubset { rd, rs1, rs2 } => {
                let parent = self.cpu.read(rs1);
                let child = self.cpu.read(rs2);
                self.cpu
                    .write_int(rd, u32::from(child.is_subset_of(parent)));
            }
            Instr::CSetEqualExact { rd, rs1, rs2 } => {
                let a = self.cpu.read(rs1);
                let b = self.cpu.read(rs2);
                let eq = a.to_word() == b.to_word() && a.tag() == b.tag();
                self.cpu.write_int(rd, u32::from(eq));
            }
            Instr::CRoundRepresentableLength { rd, rs1 } => {
                let len = self.cpu.read_int(rs1);
                self.cpu.write_int(
                    rd,
                    representable_length(len).min(u64::from(u32::MAX)) as u32,
                );
            }
            Instr::CRepresentableAlignmentMask { rd, rs1 } => {
                let len = self.cpu.read_int(rs1);
                self.cpu.write_int(rd, representable_alignment_mask(len));
            }
            Instr::CSpecialRw { rd, rs1, scr } => {
                if !self.cpu.pcc.perms().contains(Permissions::SR) {
                    return Err(cheri(
                        PCC_REG_INDEX,
                        cheriot_cap::CapFault::PermissionViolation {
                            needed: Permissions::SR,
                        },
                    ));
                }
                let old = self.cpu.scr(scr);
                if rs1 != Reg::ZERO {
                    let v = self.cpu.read(rs1);
                    self.cpu.set_scr(scr, v);
                }
                self.cpu.write(rd, old);
            }
            Instr::Csr { op, rd, rs1, csr } => {
                let needs_sr = !matches!(csr, CsrId::Mcycle | CsrId::Mcycleh);
                if needs_sr && !self.cpu.pcc.perms().contains(Permissions::SR) {
                    return Err(cheri(
                        PCC_REG_INDEX,
                        cheriot_cap::CapFault::PermissionViolation {
                            needed: Permissions::SR,
                        },
                    ));
                }
                let old = match csr {
                    CsrId::Mcycle => self.cycles as u32,
                    CsrId::Mcycleh => (self.cycles >> 32) as u32,
                    CsrId::Mcause => self.cpu.mcause,
                    CsrId::Mtval => self.cpu.mtval,
                    CsrId::Mshwm => self.cpu.mshwm,
                    CsrId::Mshwmb => self.cpu.mshwmb,
                };
                let operand = self.cpu.read_int(rs1);
                let new = match op {
                    CsrOp::Rw => operand,
                    CsrOp::Rs => old | operand,
                    CsrOp::Rc => old & !operand,
                };
                if rs1 != Reg::ZERO || matches!(op, CsrOp::Rw) {
                    match csr {
                        CsrId::Mcause => self.cpu.mcause = new,
                        CsrId::Mtval => self.cpu.mtval = new,
                        CsrId::Mshwm => self.cpu.mshwm = new,
                        CsrId::Mshwmb => self.cpu.mshwmb = new,
                        CsrId::Mcycle | CsrId::Mcycleh => {}
                    }
                }
                self.cpu.write_int(rd, old);
            }
            Instr::Ecall => return Err(TrapCause::EnvironmentCall),
            Instr::Ebreak => return Err(TrapCause::Breakpoint),
            Instr::Mret => {
                if !self.cpu.pcc.perms().contains(Permissions::SR) {
                    return Err(cheri(
                        PCC_REG_INDEX,
                        cheriot_cap::CapFault::PermissionViolation {
                            needed: Permissions::SR,
                        },
                    ));
                }
                if !self.cpu.mepcc.tag() {
                    return Err(cheri(PCC_REG_INDEX, cheriot_cap::CapFault::TagViolation));
                }
                let was_enabled = self.cpu.interrupts_enabled;
                self.cpu.interrupts_enabled = self.cpu.prev_interrupts_enabled;
                if self.cpu.interrupts_enabled != was_enabled {
                    self.trace_emit(EventKind::InterruptPosture {
                        enabled: self.cpu.interrupts_enabled,
                    });
                }
                self.cpu.pcc = self.cpu.mepcc;
                extra += self.cfg.core.jump_penalty;
                // Load-bearing: `mepcc` may be sealed (installed raw via
                // `CSpecialRw`), and `with_address` on a sealed capability
                // clears the tag, turning the next fetch into a
                // `TagViolation` — exactly the architected behaviour.
                self.finish_jump(self.cpu.pc());
                return Ok((extra, PcOutcome::Jumped));
            }
            Instr::Wfi => {
                self.wait_for_interrupt();
                // Falls through: wfi retires and the PC advances; a pending
                // interrupt (if enabled) is taken before the next
                // instruction.
            }
            Instr::Fence => {}
            Instr::Halt => {
                self.halted = Some(ExitReason::Halted(self.cpu.read_int(Reg::A0)));
                return Ok((0, PcOutcome::Stay));
            }
        }
        if next_pc == next {
            Ok((extra, PcOutcome::Advance))
        } else {
            self.finish_jump(next_pc);
            Ok((extra, PcOutcome::Jumped))
        }
    }

    /// Resolves the conditional branch at `pc` (it cannot trap): reads the
    /// operands and counts a taken branch. Returns the next PC and whether
    /// the branch was taken; the caller charges the taken penalty.
    #[inline(always)]
    fn resolve_branch(
        &mut self,
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
        pc: u32,
    ) -> (u32, bool) {
        let a = self.cpu.read_int(rs1);
        let b = self.cpu.read_int(rs2);
        if branch_taken(cond, a, b) {
            self.stats.taken_branches += 1;
            (pc.wrapping_add(offset as u32), true)
        } else {
            (pc.wrapping_add(4), false)
        }
    }

    /// Consumes the pending load-to-use hazard and returns the stall it
    /// costs an instruction reading `srcs` (0 when it reads no loaded
    /// register), counted in [`Stats::stall_cycles`]; the caller charges
    /// it. Either way the hazard is gone: it only reaches the very next
    /// instruction.
    #[inline(always)]
    fn take_stall(&mut self, srcs: &[Option<Reg>; 2]) -> u64 {
        match self.pending_use.take() {
            Some((r, penalty)) if srcs.iter().flatten().any(|&s| s == r) => {
                self.stats.stall_cycles += penalty;
                penalty
            }
            _ => 0,
        }
    }

    fn finish_jump(&mut self, next_pc: u32) {
        self.cpu.pcc = self.cpu.pcc.with_address(next_pc);
    }

    fn link(&mut self, rd: Reg, ret: u32) -> Result<(), TrapCause> {
        if rd == Reg::ZERO {
            return Ok(());
        }
        if !self.cfg.cheri_enabled {
            // Plain RV32E: the link register holds an address.
            self.cpu.write_int(rd, ret);
            return Ok(());
        }
        let sentry = OType::return_sentry(self.cpu.interrupts_enabled);
        let link = self
            .cpu
            .pcc
            .with_address(ret)
            .seal_as_sentry(sentry)
            .map_err(|f| cheri(PCC_REG_INDEX, f))?;
        self.cpu.write(rd, link);
        Ok(())
    }

    fn wait_for_interrupt(&mut self) {
        // `wfi` retires immediately if an interrupt is already pending.
        loop {
            if self.cycles >= self.mtimecmp || self.irq_lines_pending() {
                return;
            }
            if !self.cycles_plain() {
                // Idle cycles all go to the revoker, batched up to the
                // timer horizon: one cycle per engine slot, plus one for
                // the completion transition (which consumes no slot but
                // took a wfi cycle in the stepwise loop).
                let budget = self.mtimecmp.saturating_sub(self.cycles);
                let used = self.revoker.step_n(&mut self.sram, &self.bitmap, budget);
                let ticks = if self.revoker.in_progress() {
                    used
                } else {
                    used + 1
                };
                self.cycles += ticks;
                self.stats.idle_cycles += ticks;
                if self.tracer.is_some() && !self.revoker.in_progress() {
                    self.emit_revoker_finish();
                }
                continue;
            }
            if self.mtimecmp == u64::MAX {
                // Nothing can ever wake us.
                self.halted = Some(ExitReason::Idle);
                return;
            }
            let skip = self.mtimecmp - self.cycles;
            self.cycles += skip;
            self.stats.idle_cycles += skip;
        }
    }
}

/// How [`Machine::exec`] left the PC. `Advance` means the instruction fell
/// through and the *caller* must move the PCC to `pc + 4` — deferring that
/// write is what lets the block loop touch the PCC once per block instead
/// of once per instruction. `Jumped` means `exec` already installed the
/// target PCC; `Stay` means the PCC must stay on the instruction (`halt`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PcOutcome {
    Advance,
    Jumped,
    Stay,
}

/// How `Machine::exec_chain` left the run loop: `Stop` ends the run
/// (budget, halt, interrupt boundary), `Continue` dispatches the next
/// block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockExit {
    Stop,
    Continue,
}

/// What `Machine::exec_fast` did with one predecoded instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fast {
    /// Executed: nothing beyond `base_cycles` accrued and control falls
    /// through to the next predecoded instruction.
    Done,
    /// Refused: re-execute through `exec`, which repeats the instruction
    /// from scratch (see `Machine::exec_fast` for what a bail may leave).
    Bail,
    /// A guard (interior conditional branch of a promoted block) resolved
    /// to `npc`; `taken` says whether it pays the taken-branch penalty.
    /// The block continues only if `npc` is the next instruction's `pc`.
    Guard { npc: u32, taken: bool },
}

fn cheri(reg: impl Into<RegIndex>, fault: cheriot_cap::CapFault) -> TrapCause {
    TrapCause::Cheri {
        fault,
        reg: reg.into().0,
    }
}

/// Internal helper so `cheri()` accepts both `Reg` and the PCC pseudo-index
/// 16.
pub struct RegIndex(pub u8);

impl From<Reg> for RegIndex {
    fn from(r: Reg) -> RegIndex {
        RegIndex(r.0)
    }
}

impl From<i32> for RegIndex {
    fn from(v: i32) -> RegIndex {
        RegIndex(v as u8)
    }
}

impl From<u8> for RegIndex {
    fn from(v: u8) -> RegIndex {
        RegIndex(v)
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
        MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn branch_taken(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

fn sign_extend(v: u32, bytes: u32) -> u32 {
    match bytes {
        1 => v as u8 as i8 as i32 as u32,
        2 => v as u16 as i16 as i32 as u32,
        _ => v,
    }
}
