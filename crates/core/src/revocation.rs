//! Temporal-safety hardware: the revocation bitmap, the load filter, and
//! the background pipelined revoker (paper §3.3, Figure 4).
//!
//! Each 8-byte heap granule has a *revocation bit*. `free()` paints the bits
//! for the freed chunk; the **load filter** consults the bit corresponding
//! to the *base* of every capability loaded anywhere in the system and
//! clears the tag if it is set — so no capability to freed memory can ever
//! enter a register. Sweeping revocation (invalidating stale capabilities
//! *in memory*) then reduces to a load-and-store-back loop, implemented
//! either in software (see `cheriot-rtos`) or by the **background revoker**,
//! a small state machine that uses load/store-unit cycles the main pipeline
//! leaves idle.

use crate::mem::{Sram, GRANULE};
use cheriot_cap::Capability;

/// The revocation bitmap: one bit per heap granule.
///
/// Memory-mapped so that (only) the allocator compartment can paint bits;
/// consulted combinationally by the load filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevocationBitmap {
    heap_base: u32,
    heap_end: u32,
    bits: Vec<u64>,
}

impl RevocationBitmap {
    /// Creates an all-clear bitmap covering `[heap_base, heap_end)`.
    ///
    /// # Panics
    ///
    /// Panics unless both addresses are granule-aligned and ordered.
    pub fn new(heap_base: u32, heap_end: u32) -> RevocationBitmap {
        assert!(heap_base <= heap_end);
        assert_eq!(heap_base % GRANULE, 0);
        assert_eq!(heap_end % GRANULE, 0);
        let granules = (heap_end - heap_base) / GRANULE;
        RevocationBitmap {
            heap_base,
            heap_end,
            bits: vec![0; granules.div_ceil(64) as usize],
        }
    }

    /// Start of the revocable (heap) region.
    pub fn heap_base(&self) -> u32 {
        self.heap_base
    }

    /// End (exclusive) of the revocable region.
    pub fn heap_end(&self) -> u32 {
        self.heap_end
    }

    /// Is `addr` within the revocable region?
    pub fn covers(&self, addr: u32) -> bool {
        addr >= self.heap_base && addr < self.heap_end
    }

    /// Overwrites this bitmap with `src`'s content (snapshot restore).
    /// Allocation-free when both already cover regions of the same size.
    pub fn copy_from(&mut self, src: &RevocationBitmap) {
        self.heap_base = src.heap_base;
        self.heap_end = src.heap_end;
        if self.bits.len() == src.bits.len() {
            self.bits.copy_from_slice(&src.bits);
        } else {
            self.bits.clone_from(&src.bits);
        }
    }

    /// SRAM overhead of the bitmap in bytes (paper: 1/65 ≈ 1.56% of heap).
    pub fn overhead_bytes(&self) -> u32 {
        (self.heap_end - self.heap_base) / GRANULE / 8
    }

    fn index(&self, addr: u32) -> (usize, u32) {
        let g = (addr - self.heap_base) / GRANULE;
        ((g / 64) as usize, g % 64)
    }

    /// Is the granule containing `addr` revoked? Addresses outside the
    /// revocable region are never revoked (code, globals, stacks).
    pub fn is_revoked(&self, addr: u32) -> bool {
        if !self.covers(addr) {
            return false;
        }
        let (w, b) = self.index(addr);
        self.bits[w] >> b & 1 != 0
    }

    /// The word range `[w0..=w1]` with edge masks for the
    /// `len.div_ceil(GRANULE)` granules starting at `addr`'s granule.
    fn word_span(&self, addr: u32, len: u32) -> (usize, usize, u64, u64) {
        let g0 = (addr - self.heap_base) / GRANULE;
        let g1 = g0 + len.div_ceil(GRANULE) - 1;
        let lo = !0u64 << (g0 % 64);
        let hi = !0u64 >> (63 - g1 % 64);
        ((g0 / 64) as usize, (g1 / 64) as usize, lo, hi)
    }

    /// Paints the revocation bits for `[addr, addr+len)` (called by the
    /// allocator on `free`). Whole 64-granule words are painted with one
    /// mask operation each.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the revocable region — the allocator owns
    /// this mapping and never constructs such a range.
    pub fn set_range(&mut self, addr: u32, len: u32) {
        if len == 0 {
            return;
        }
        assert!(self.covers(addr) && self.covers(addr + len - 1));
        let (w0, w1, lo, hi) = self.word_span(addr, len);
        if w0 == w1 {
            self.bits[w0] |= lo & hi;
        } else {
            self.bits[w0] |= lo;
            self.bits[w0 + 1..w1].fill(!0);
            self.bits[w1] |= hi;
        }
    }

    /// Clears the revocation bits for `[addr, addr+len)` (called when a
    /// chunk leaves quarantine after a completed sweep).
    ///
    /// # Panics
    ///
    /// As [`RevocationBitmap::set_range`].
    pub fn clear_range(&mut self, addr: u32, len: u32) {
        if len == 0 {
            return;
        }
        assert!(self.covers(addr) && self.covers(addr + len - 1));
        let (w0, w1, lo, hi) = self.word_span(addr, len);
        if w0 == w1 {
            self.bits[w0] &= !(lo & hi);
        } else {
            self.bits[w0] &= !lo;
            self.bits[w0 + 1..w1].fill(0);
            self.bits[w1] &= !hi;
        }
    }

    /// Reads 32 revocation bits as an MMIO word (`word_index` counts 32-bit
    /// words from the start of the bitmap window).
    pub fn read_word32(&self, word_index: u32) -> u32 {
        let w = (word_index / 2) as usize;
        if w >= self.bits.len() {
            return 0;
        }
        (self.bits[w] >> ((word_index % 2) * 32)) as u32
    }

    /// Writes 32 revocation bits as an MMIO word.
    pub fn write_word32(&mut self, word_index: u32, value: u32) {
        let w = (word_index / 2) as usize;
        if w >= self.bits.len() {
            return;
        }
        let shift = (word_index % 2) * 32;
        self.bits[w] = (self.bits[w] & !(0xffff_ffffu64 << shift)) | (u64::from(value) << shift);
    }

    /// Number of currently painted granules.
    pub fn painted_granules(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// The load filter (paper §3.3.2): given a just-loaded capability word's
    /// decoded base and tag, should the tag be stripped?
    ///
    /// This relies on spatial safety: the allocator bounded the returned
    /// pointer to the object, so every usable derived reference has its
    /// base inside the object.
    pub fn filter_strips(&self, tag: bool, base: u32) -> bool {
        tag && self.is_revoked(base)
    }
}

/// Configuration for the background revoker's microarchitecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevokerConfig {
    /// Two-stage pipelined engine (paper: fills the load-filter delay slot
    /// with a second in-flight word, doubling throughput). When false, a
    /// naive one-word-at-a-time engine is modelled (ablation).
    pub pipelined: bool,
    /// Raise an interrupt on sweep completion. The production Ibex core
    /// does; the Flute prototype requires software polling (paper §7.2.2
    /// attributes Flute's large-allocation slowdown to this).
    pub interrupt_on_completion: bool,
}

impl Default for RevokerConfig {
    fn default() -> RevokerConfig {
        RevokerConfig {
            pipelined: true,
            interrupt_on_completion: true,
        }
    }
}

/// MMIO register offsets of the background revoker device.
pub mod revoker_reg {
    /// Sweep start address (RW).
    pub const START: u32 = 0x0;
    /// Sweep end address, exclusive (RW).
    pub const END: u32 = 0x4;
    /// Epoch counter (RO): odd while a sweep is in progress.
    pub const EPOCH: u32 = 0x8;
    /// Write-only: any write starts a sweep of `[start, end)`; no effect if
    /// one is already underway.
    pub const KICK: u32 = 0xc;
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    addr: u32,
    word: u64,
    tag: bool,
    /// Set by the store snoop: the main pipeline wrote this address while
    /// the word was in flight, so it must be reloaded, not written back.
    stale: bool,
}

/// The background pipelined revoker (paper §3.3.3).
///
/// A state machine that advances through `[start, end)` loading each
/// capability-sized word, consulting the load filter, and writing the word
/// back with its tag cleared if it pointed to freed memory. It only consumes
/// memory cycles the main pipeline leaves idle. Stores from the main
/// pipeline are snooped against the in-flight words to close the §3.3.3
/// race.
#[derive(Clone, Debug)]
pub struct BackgroundRevoker {
    config: RevokerConfig,
    start: u32,
    end: u32,
    epoch: u32,
    cursor: u32,
    /// The in-flight word awaiting its revocation-bit check (the load
    /// filter's one-cycle delay). In the pipelined engine its resolution
    /// overlaps the next word's load within one LSU slot.
    inflight: Option<InFlight>,
    irq_pending: bool,
    /// Total idle slots consumed (statistics).
    pub slots_used: u64,
    /// Total words invalidated (statistics).
    pub words_invalidated: u64,
}

impl BackgroundRevoker {
    /// Creates an idle revoker.
    pub fn new(config: RevokerConfig) -> BackgroundRevoker {
        BackgroundRevoker {
            config,
            start: 0,
            end: 0,
            epoch: 0,
            cursor: 0,
            inflight: None,
            irq_pending: false,
            slots_used: 0,
            words_invalidated: 0,
        }
    }

    /// The published epoch counter. Odd means a sweep is in progress; two
    /// increments bracket each sweep (paper §3.3.2).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Is a sweep currently underway?
    pub fn in_progress(&self) -> bool {
        self.epoch % 2 == 1
    }

    /// Reads an MMIO register.
    pub fn mmio_read(&self, offset: u32) -> u32 {
        match offset {
            revoker_reg::START => self.start,
            revoker_reg::END => self.end,
            revoker_reg::EPOCH => self.epoch,
            _ => 0,
        }
    }

    /// Writes an MMIO register. A write to `KICK` starts a sweep.
    pub fn mmio_write(&mut self, offset: u32, value: u32) {
        match offset {
            revoker_reg::START => self.start = value & !(GRANULE - 1),
            revoker_reg::END => self.end = value & !(GRANULE - 1),
            revoker_reg::KICK => self.kick(),
            _ => {}
        }
    }

    /// Starts a sweep of `[start, end)`; no effect if one is underway.
    pub fn kick(&mut self) {
        if self.in_progress() || self.start >= self.end {
            return;
        }
        self.epoch = self.epoch.wrapping_add(1);
        self.cursor = self.start;
        self.inflight = None;
    }

    /// Takes (and clears) a pending completion interrupt.
    pub fn take_irq(&mut self) -> bool {
        std::mem::take(&mut self.irq_pending)
    }

    /// Is a completion interrupt pending (without consuming it)?
    pub fn irq_pending(&self) -> bool {
        self.irq_pending
    }

    /// Snoops a store from the main pipeline: if it hits an in-flight word,
    /// that word must be reloaded rather than written back (the §3.3.3
    /// race). Stores of any width within the granule count.
    pub fn snoop_store(&mut self, addr: u32) {
        let granule = addr & !(GRANULE - 1);
        if let Some(f) = &mut self.inflight {
            if f.addr == granule {
                f.stale = true;
            }
        }
    }

    /// Snoops a write of `len` bytes at `addr` (DMA, bulk zeroing): the
    /// in-flight word is marked stale if its granule lies in
    /// `[addr & !7, addr + len)`, i.e. if any byte of the write falls in
    /// it. One compare, however long the range.
    pub fn snoop_range(&mut self, addr: u32, len: u32) {
        let lo = addr & !(GRANULE - 1);
        let end = u64::from(addr) + u64::from(len);
        if let Some(f) = &mut self.inflight {
            if f.addr >= lo && u64::from(f.addr) < end {
                f.stale = true;
            }
        }
    }

    /// Advances the engine by one idle load/store-unit slot.
    ///
    /// Returns `true` if the slot was used (for statistics/power modelling).
    /// `sram` is the memory being swept; `bitmap` is consulted through the
    /// same load filter as CPU capability loads.
    pub fn step(&mut self, sram: &mut Sram, bitmap: &RevocationBitmap) -> bool {
        if !self.in_progress() {
            return false;
        }
        // Resolve the in-flight word. The revocation-bit lookup uses its own
        // SRAM port, so in the pipelined engine it overlaps the next load;
        // only a *writeback* (tag needs clearing) or a snoop-forced reload
        // consumes the load/store slot.
        let mut lsu_busy = false;
        if let Some(f) = self.inflight.take() {
            if f.stale {
                // The §3.3.3 race: the main pipeline stored to this address
                // while it was in flight — reload instead of writing back.
                self.cursor = self.cursor.min(f.addr);
                lsu_busy = true;
            } else {
                // Only a tagged word can be stripped, and only tagged words
                // need their base decoded; untagged words skip the expansion
                // (filter_strips' tag conjunct would discard it anyway).
                let strips =
                    f.tag && bitmap.filter_strips(true, Capability::from_word(f.word, true).base());
                if strips {
                    // A single write suffices to clear the tag (the data
                    // word is preserved; only the tag matters).
                    let _ = sram.write_cap_word(f.addr, f.word, false);
                    self.words_invalidated += 1;
                    lsu_busy = true;
                } else if !self.config.pipelined {
                    // The naive engine serializes check and load: the check
                    // occupies this slot even when nothing is written back.
                    lsu_busy = true;
                }
            }
        }
        if !lsu_busy {
            if self.cursor >= self.end {
                if self.inflight.is_none() {
                    self.finish();
                }
                return false;
            }
            let addr = self.cursor;
            self.cursor += GRANULE;
            // Every word goes in flight, untagged ones too: skipping the
            // second half-word load of an untagged word is an optimisation
            // the paper lists as implemented on neither core, so it is not
            // modelled.
            if let Ok((word, tag)) = sram.read_cap_word(addr) {
                self.inflight = Some(InFlight {
                    addr,
                    word,
                    tag,
                    stale: false,
                });
            }
        }
        self.slots_used += 1;
        true
    }

    /// Advances the engine by up to `slots` idle load/store-unit slots,
    /// returning how many were consumed. Cycle-for-cycle identical to
    /// calling [`BackgroundRevoker::step`] in a loop, but a run of
    /// untagged granules is skipped in bulk using the SRAM's packed tag
    /// words ([`Sram::untagged_run`], which steps over a page that holds
    /// no handle with one host test): in the pipelined engine each
    /// untagged word costs exactly one slot (its load overlaps the
    /// previous word's vacuous check), so the batch charges `run` slots
    /// and leaves the run's last word in flight — the same boundary state
    /// the stepwise engine reaches, preserving store-snoop semantics.
    pub fn step_n(&mut self, sram: &mut Sram, bitmap: &RevocationBitmap, slots: u64) -> u64 {
        let mut used = 0u64;
        while used < slots && self.in_progress() {
            if self.config.pipelined && self.inflight.is_none() && self.cursor < self.end {
                let max_g = ((self.end - self.cursor) / GRANULE)
                    .min((slots - used).min(u64::from(u32::MAX)) as u32);
                let run = sram.untagged_run(self.cursor, max_g);
                if run > 0 {
                    let last = self.cursor + (run - 1) * GRANULE;
                    if let Ok((word, tag)) = sram.read_cap_word(last) {
                        debug_assert!(!tag);
                        self.inflight = Some(InFlight {
                            addr: last,
                            word,
                            tag,
                            stale: false,
                        });
                        self.cursor = last + GRANULE;
                        self.slots_used += u64::from(run);
                        used += u64::from(run);
                        continue;
                    }
                }
            }
            if !self.step(sram, bitmap) {
                break;
            }
            used += 1;
        }
        used
    }

    fn finish(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.config.interrupt_on_completion {
            self.irq_pending = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheriot_cap::Capability;

    const HEAP: u32 = 0x2000_0000;

    fn setup() -> (Sram, RevocationBitmap) {
        (
            Sram::new(HEAP, 0x1000, true),
            RevocationBitmap::new(HEAP, HEAP + 0x1000),
        )
    }

    fn obj(base: u32, len: u64) -> Capability {
        Capability::root_mem_rw()
            .with_address(base)
            .set_bounds(len)
            .unwrap()
    }

    #[test]
    fn bitmap_paint_and_clear() {
        let (_, mut b) = setup();
        b.set_range(HEAP + 64, 32);
        assert!(b.is_revoked(HEAP + 64));
        assert!(b.is_revoked(HEAP + 88));
        assert!(!b.is_revoked(HEAP + 96));
        assert!(!b.is_revoked(HEAP + 56));
        assert_eq!(b.painted_granules(), 4);
        b.clear_range(HEAP + 64, 32);
        assert_eq!(b.painted_granules(), 0);
    }

    #[test]
    fn outside_heap_is_never_revoked() {
        let (_, b) = setup();
        assert!(!b.is_revoked(0x1000_0000));
        assert!(!b.is_revoked(HEAP + 0x1000));
    }

    #[test]
    fn overhead_matches_paper() {
        let b = RevocationBitmap::new(HEAP, HEAP + 0x10000);
        // 1 bit per 8 bytes => 1/64 of heap in bits = heap/64/8 bytes... the
        // paper quotes 1/(8*8) = 1.56% counting bits per byte of heap.
        assert_eq!(b.overhead_bytes(), 0x10000 / 64);
        let pct = f64::from(b.overhead_bytes()) / f64::from(0x10000u32) * 100.0;
        assert!((pct - 1.5625).abs() < 1e-9);
    }

    #[test]
    fn load_filter_strips_only_revoked_tagged() {
        let (_, mut b) = setup();
        b.set_range(HEAP + 128, 64);
        assert!(b.filter_strips(true, HEAP + 128));
        assert!(!b.filter_strips(false, HEAP + 128));
        assert!(!b.filter_strips(true, HEAP));
    }

    fn run_sweep(r: &mut BackgroundRevoker, sram: &mut Sram, b: &RevocationBitmap, max_slots: u32) {
        let mut n = 0;
        while r.in_progress() {
            r.step(sram, b);
            n += 1;
            assert!(n < max_slots, "sweep did not terminate");
        }
    }

    #[test]
    fn sweep_invalidates_stale_caps() {
        let (mut sram, mut b) = setup();
        // A capability to [HEAP+256, +32) stored at HEAP+8.
        let c = obj(HEAP + 256, 32);
        sram.write_cap_word(HEAP + 8, c.to_word(), true).unwrap();
        // Another to a live object.
        let live = obj(HEAP + 512, 32);
        sram.write_cap_word(HEAP + 16, live.to_word(), true)
            .unwrap();
        // Free the first object.
        b.set_range(HEAP + 256, 32);

        let mut r = BackgroundRevoker::new(RevokerConfig::default());
        r.mmio_write(revoker_reg::START, HEAP);
        r.mmio_write(revoker_reg::END, HEAP + 0x1000);
        assert_eq!(r.epoch(), 0);
        r.mmio_write(revoker_reg::KICK, 1);
        assert!(r.in_progress());
        run_sweep(&mut r, &mut sram, &b, 100_000);
        assert_eq!(r.epoch(), 2);

        let (_, t_stale) = sram.read_cap_word(HEAP + 8).unwrap();
        let (_, t_live) = sram.read_cap_word(HEAP + 16).unwrap();
        assert!(!t_stale, "stale capability must be invalidated");
        assert!(t_live, "live capability must survive");
        assert_eq!(r.words_invalidated, 1);
    }

    #[test]
    fn kick_during_sweep_is_ignored() {
        let (mut sram, b) = setup();
        let mut r = BackgroundRevoker::new(RevokerConfig::default());
        r.mmio_write(revoker_reg::START, HEAP);
        r.mmio_write(revoker_reg::END, HEAP + 0x1000);
        r.kick();
        let e = r.epoch();
        r.step(&mut sram, &b);
        r.kick(); // must be a no-op
        assert_eq!(r.epoch(), e);
    }

    #[test]
    fn completion_interrupt() {
        let (mut sram, b) = setup();
        let mut r = BackgroundRevoker::new(RevokerConfig::default());
        r.mmio_write(revoker_reg::START, HEAP);
        r.mmio_write(revoker_reg::END, HEAP + 64);
        r.kick();
        run_sweep(&mut r, &mut sram, &b, 10_000);
        assert!(r.take_irq());
        assert!(!r.take_irq(), "irq is edge, consumed once");
    }

    #[test]
    fn polling_config_raises_no_interrupt() {
        let (mut sram, b) = setup();
        let mut r = BackgroundRevoker::new(RevokerConfig {
            interrupt_on_completion: false,
            ..RevokerConfig::default()
        });
        r.mmio_write(revoker_reg::START, HEAP);
        r.mmio_write(revoker_reg::END, HEAP + 64);
        r.kick();
        run_sweep(&mut r, &mut sram, &b, 10_000);
        assert!(!r.take_irq());
    }

    #[test]
    fn store_snoop_prevents_lost_update() {
        let (mut sram, mut b) = setup();
        let stale = obj(HEAP + 256, 32);
        sram.write_cap_word(HEAP + 8, stale.to_word(), true)
            .unwrap();
        b.set_range(HEAP + 256, 32);

        let mut r = BackgroundRevoker::new(RevokerConfig::default());
        r.mmio_write(revoker_reg::START, HEAP);
        r.mmio_write(revoker_reg::END, HEAP + 16);
        r.kick();
        // Load HEAP+0 then HEAP+8 into flight.
        r.step(&mut sram, &b);
        r.step(&mut sram, &b);
        // Main pipeline overwrites HEAP+8 with fresh data mid-flight.
        let fresh = obj(HEAP + 512, 16);
        sram.write_cap_word(HEAP + 8, fresh.to_word(), true)
            .unwrap();
        r.snoop_store(HEAP + 8);
        run_sweep(&mut r, &mut sram, &b, 10_000);
        let (w, t) = sram.read_cap_word(HEAP + 8).unwrap();
        assert!(t, "fresh capability must not be clobbered by the revoker");
        assert_eq!(w, fresh.to_word());
    }

    #[test]
    fn range_snoop_marks_the_in_flight_granule_at_its_edges() {
        let (mut sram, b) = setup();
        let mut r = BackgroundRevoker::new(RevokerConfig::default());
        r.mmio_write(revoker_reg::START, HEAP + 8);
        r.mmio_write(revoker_reg::END, HEAP + 16);
        r.kick();
        r.step(&mut sram, &b); // HEAP+8 is now in flight
        let stale = |r: &BackgroundRevoker| r.inflight.expect("word in flight").stale;
        // Ends exactly where the in-flight granule starts.
        r.snoop_range(HEAP, 8);
        assert!(!stale(&r));
        // Starts exactly where it ends.
        r.snoop_range(HEAP + 16, 64);
        assert!(!stale(&r));
        // Starts mid-granule: its first byte lies in the granule.
        r.snoop_range(HEAP + 15, 1);
        assert!(stale(&r));
    }

    #[test]
    fn without_snoop_the_race_loses_updates() {
        // Ablation: demonstrates the §3.3.3 race actually exists in the
        // model if snooping is omitted.
        let (mut sram, mut b) = setup();
        let stale = obj(HEAP + 256, 32);
        sram.write_cap_word(HEAP + 8, stale.to_word(), true)
            .unwrap();
        b.set_range(HEAP + 256, 32);

        let mut r = BackgroundRevoker::new(RevokerConfig::default());
        r.mmio_write(revoker_reg::START, HEAP + 8);
        r.mmio_write(revoker_reg::END, HEAP + 16);
        r.kick();
        r.step(&mut sram, &b); // load the stale word into flight
        let fresh = obj(HEAP + 512, 16);
        sram.write_cap_word(HEAP + 8, fresh.to_word(), true)
            .unwrap();
        // NO snoop_store call here.
        run_sweep(&mut r, &mut sram, &b, 10_000);
        let (_, t) = sram.read_cap_word(HEAP + 8).unwrap();
        assert!(!t, "without snooping the fresh store is clobbered");
    }

    #[test]
    fn step_n_matches_stepwise_engine() {
        // A mix of stale-tagged, live-tagged and untagged granules, swept
        // with both engines in interleaved chunks of varying size: every
        // observable (slots, invalidations, epoch, cursor state via the
        // final memory image) must match the one-slot-at-a-time engine.
        for pipelined in [false, true] {
            let (mut sram, mut b) = setup();
            let stale = obj(HEAP + 0x800, 64);
            let live = obj(HEAP + 0x900, 64);
            for g in 0..512u32 {
                let a = HEAP + g * 8;
                match g % 7 {
                    0 => sram.write_cap_word(a, stale.to_word(), true).unwrap(),
                    3 => sram.write_cap_word(a, live.to_word(), true).unwrap(),
                    _ => sram.write_scalar(a, 4, g).unwrap(),
                }
            }
            b.set_range(HEAP + 0x800, 64);
            let cfg = RevokerConfig {
                pipelined,
                ..RevokerConfig::default()
            };
            let mut r_step = BackgroundRevoker::new(cfg);
            let mut r_batch = BackgroundRevoker::new(cfg);
            let mut s_step = setup().0;
            s_step.copy_from(&sram);
            let mut s_batch = sram;
            for r in [&mut r_step, &mut r_batch] {
                r.mmio_write(revoker_reg::START, HEAP);
                r.mmio_write(revoker_reg::END, HEAP + 0x1000);
                r.kick();
            }
            let mut chunk = 1u64;
            let mut guard = 0;
            while r_step.in_progress() || r_batch.in_progress() {
                r_batch.step_n(&mut s_batch, &b, chunk);
                for _ in 0..chunk {
                    if !r_step.in_progress() {
                        break;
                    }
                    r_step.step(&mut s_step, &b);
                }
                assert_eq!(r_step.slots_used, r_batch.slots_used);
                assert_eq!(r_step.words_invalidated, r_batch.words_invalidated);
                assert_eq!(r_step.epoch(), r_batch.epoch());
                chunk = chunk % 13 + 1;
                guard += 1;
                assert!(guard < 100_000, "sweep did not terminate");
            }
            for g in 0..512u32 {
                let a = HEAP + g * 8;
                assert_eq!(
                    s_step.read_cap_word(a).unwrap(),
                    s_batch.read_cap_word(a).unwrap(),
                    "memory diverged at granule {g} (pipelined={pipelined})"
                );
            }
        }
    }

    #[test]
    fn bitmap_word_masking_matches_per_granule_painting() {
        // set_range/clear_range use u64 mask arithmetic; cross-check
        // against a straightforward per-granule reference over ranges that
        // start, end and span at every 64-granule word boundary.
        let (_, mut b) = setup();
        let cases = [
            (HEAP, 8u32),
            (HEAP, 64 * 8),
            (HEAP + 63 * 8, 2 * 8),
            (HEAP + 8, 200 * 8),
            (HEAP + 64 * 8, 64 * 8),
            (HEAP + 120 * 8, 7 * 8),
            (HEAP, 0x1000),
        ];
        for (addr, len) in cases {
            b.set_range(addr, len);
            let mut expected = std::collections::HashSet::new();
            let mut a = addr;
            while a < addr + len {
                expected.insert((a - HEAP) / 8);
                a += 8;
            }
            for g in 0..512u32 {
                assert_eq!(
                    b.is_revoked(HEAP + g * 8),
                    expected.contains(&g),
                    "granule {g} after set_range({addr:#x}, {len})"
                );
            }
            assert_eq!(b.painted_granules() as usize, expected.len());
            b.clear_range(addr, len);
            assert_eq!(b.painted_granules(), 0);
        }
    }

    #[test]
    fn pipelined_uses_fewer_slots_per_word() {
        let (mut sram, mut b) = setup();
        // Fill memory with stale caps so every word needs a writeback.
        let stale = obj(HEAP + 0x800, 64);
        for i in 0..64 {
            sram.write_cap_word(HEAP + i * 8, stale.to_word(), true)
                .unwrap();
        }
        b.set_range(HEAP + 0x800, 64);

        let mut slots = Vec::new();
        for pipelined in [false, true] {
            let mut s = setup().0;
            s.copy_from(&sram);
            let mut r = BackgroundRevoker::new(RevokerConfig {
                pipelined,
                ..RevokerConfig::default()
            });
            r.mmio_write(revoker_reg::START, HEAP);
            r.mmio_write(revoker_reg::END, HEAP + 64 * 8);
            r.kick();
            run_sweep(&mut r, &mut s, &b, 100_000);
            slots.push(r.slots_used);
        }
        assert!(
            slots[1] <= slots[0],
            "pipelined ({}) must not be slower than naive ({})",
            slots[1],
            slots[0]
        );
    }
}
