//! The boundary-tag heap with quarantine-based temporal safety (paper §5.1).
//!
//! The layout is dlmalloc-flavoured — in-band headers, segregated free
//! lists, immediate coalescing — because boundary tagging and in-band
//! metadata suit memory-constrained devices. Temporal safety augments it
//! with per-epoch *quarantine lists*: `free` paints the chunk's revocation
//! bits, zeroes it, and quarantines it; chunks return to the free lists only
//! after a complete revocation sweep has provably passed over them, so
//! allocations can never temporally alias.
//!
//! All metadata traffic is charged through [`cheriot_core::Meter`] at the
//! modelled core's rates; a native shadow map validates `free` arguments the
//! way the real allocator's in-band metadata integrity does.

use crate::error::AllocError;
use crate::quarantine::QuarantineSet;
use cheriot_cap::bounds::{representable_alignment_mask, representable_length};
use cheriot_cap::{Capability, Permissions};
use cheriot_core::revocation::revoker_reg;
use cheriot_core::trace::EventKind;
use cheriot_core::{layout, Machine};
use std::collections::BTreeMap;

/// Chunk header size (size/flags word + prev-size word).
pub const HDR: u32 = 8;
/// Minimum chunk size (header + fd/bk links).
pub const MIN_CHUNK: u32 = 16;

const F_INUSE: u32 = 1;
const F_PREV_INUSE: u32 = 2;
const FLAG_MASK: u32 = 7;

const NSMALL: usize = 31; // chunk sizes 16..=256 step 8
const SMALL_MAX: u32 = 256;

/// How `free` provides temporal safety (the four configurations of the
/// paper's allocator microbenchmark, §7.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TemporalPolicy {
    /// No temporal safety at all: `free` coalesces immediately. (Baseline)
    None,
    /// Revocation bits are painted and cleared and freed memory is zeroed,
    /// but nothing sweeps and nothing is quarantined. (Metadata)
    MetadataOnly,
    /// Full quarantine with sweeping revocation. (Software / Hardware)
    Quarantine(RevokerKind),
}

/// Which engine performs sweeping revocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RevokerKind {
    /// The RTOS software loop: one capability load + store per granule,
    /// on the CPU.
    Software,
    /// The background hardware revoker device (MMIO-driven).
    Hardware,
}

/// Allocator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Revocation passes started.
    pub revocation_passes: u64,
    /// Bytes currently sitting in quarantine.
    pub quarantined_bytes: u32,
    /// Bytes currently allocated to callers.
    pub live_bytes: u32,
    /// High-water mark of live bytes.
    pub peak_live_bytes: u32,
}

#[derive(Clone, Copy, Debug)]
struct Shadow {
    chunk: u32,
    size: u32,
}

/// The heap allocator. One instance manages the machine's revocable heap
/// region; in the RTOS it runs inside the allocator compartment.
#[derive(Clone, Debug)]
pub struct HeapAllocator {
    heap_cap: Capability,
    /// Covers all of SRAM: revocation sweeps must visit *every* location
    /// that can hold a capability (globals, stacks, heap), not just the
    /// heap — stale references live anywhere (Table 4 measures "scanning
    /// almost 256 KiB of SRAM").
    sweep_cap: Capability,
    bitmap_cap: Capability,
    base: u32,
    end: u32,
    policy: TemporalPolicy,
    /// Quarantine drain threshold: start a revocation pass once this many
    /// bytes are quarantined.
    pub quarantine_threshold: u32,
    small_bins: [u32; NSMALL],
    large_head: u32,
    quarantine: QuarantineSet,
    sw_epoch: u32,
    live: BTreeMap<u32, Shadow>,
    stats: AllocStats,
}

impl HeapAllocator {
    /// Creates an allocator over the machine's configured heap region.
    ///
    /// The allocator derives its working capability (with Store-Local, like
    /// the real allocator compartment's view) and a capability to the
    /// revocation bitmap MMIO window from the memory root; callers receive
    /// capabilities *without* SL.
    pub fn new(m: &mut Machine, policy: TemporalPolicy) -> HeapAllocator {
        let base = m.cfg().heap_base();
        let end = m.cfg().heap_end();
        let heap_cap = Capability::root_mem_rw()
            .with_address(base)
            .set_bounds(u64::from(end - base))
            .expect("heap region is representable");
        let sweep_cap = Capability::root_mem_rw()
            .with_address(layout::SRAM_BASE)
            .set_bounds(u64::from(m.cfg().sram_size))
            .expect("SRAM is representable");
        let bitmap_cap = Capability::root_mem_rw()
            .with_address(layout::REV_BITMAP_BASE)
            .set_bounds(u64::from(layout::MMIO_SIZE))
            .expect("bitmap window is representable");
        let mut a = HeapAllocator {
            heap_cap,
            sweep_cap,
            bitmap_cap,
            base,
            end,
            policy,
            quarantine_threshold: (end - base) / 4,
            small_bins: [0; NSMALL],
            large_head: 0,
            quarantine: QuarantineSet::new(),
            sw_epoch: 0,
            live: BTreeMap::new(),
            stats: AllocStats::default(),
        };
        a.init_heap(m).expect("fresh heap region initializes");
        a
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// The temporal-safety policy in force.
    pub fn policy(&self) -> TemporalPolicy {
        self.policy
    }

    /// Heap capacity in bytes (excluding the end sentinel).
    pub fn capacity(&self) -> u32 {
        self.end - self.base - HDR
    }

    fn init_heap(&mut self, m: &mut Machine) -> Result<(), AllocError> {
        let total = self.end - self.base;
        let first_size = total - HDR; // reserve the end sentinel
                                      // End sentinel: an in-use zero-length chunk stopping coalescing.
        self.write_hdr(m, self.end - HDR, HDR | F_INUSE)?;
        self.insert_free(m, self.base, first_size, true)
    }

    // --- metered metadata accessors -------------------------------------
    //
    // All fallible: a corrupted header can send a computed address outside
    // the heap capability, and a fault-injected heap must degrade to
    // `AllocError::HeapCorruption`, never a host panic.

    fn read_word(&self, m: &mut Machine, addr: u32) -> Result<u32, AllocError> {
        m.meter()
            .load(self.heap_cap, addr, 4)
            .map_err(|_| AllocError::HeapCorruption)
    }

    fn write_word(&self, m: &mut Machine, addr: u32, v: u32) -> Result<(), AllocError> {
        m.meter()
            .store(self.heap_cap, addr, 4, v)
            .map_err(|_| AllocError::HeapCorruption)
    }

    fn read_hdr(&self, m: &mut Machine, chunk: u32) -> Result<u32, AllocError> {
        self.read_word(m, chunk)
    }

    fn write_hdr(&self, m: &mut Machine, chunk: u32, v: u32) -> Result<(), AllocError> {
        self.write_word(m, chunk, v)
    }

    fn size_of(hdr: u32) -> u32 {
        hdr & !FLAG_MASK
    }

    /// Validates a `(chunk, size)` pair read back from in-band metadata
    /// before it is used in address arithmetic. Corrupted metadata fails
    /// here instead of overflowing or escaping the heap.
    fn check_chunk(&self, chunk: u32, size: u32) -> Result<(), AllocError> {
        if chunk < self.base
            || size < MIN_CHUNK
            || !size.is_multiple_of(8)
            || u64::from(chunk) + u64::from(size) > u64::from(self.end)
        {
            return Err(AllocError::HeapCorruption);
        }
        Ok(())
    }

    // --- free lists -------------------------------------------------------

    fn bin_index(size: u32) -> Option<usize> {
        if size <= SMALL_MAX {
            Some(((size - MIN_CHUNK) / 8) as usize)
        } else {
            None
        }
    }

    fn head_of(&self, size: u32) -> u32 {
        match Self::bin_index(size) {
            Some(i) => self.small_bins[i],
            None => self.large_head,
        }
    }

    fn set_head(&mut self, m: &mut Machine, size: u32, v: u32) {
        // Bin heads live in allocator globals: charge one store.
        m.meter().charge(1);
        match Self::bin_index(size) {
            Some(i) => self.small_bins[i] = v,
            None => self.large_head = v,
        }
    }

    /// Inserts a free chunk, writing its header, links and the neighbour's
    /// boundary tag. `prev_inuse` is the state of the chunk to the left.
    fn insert_free(
        &mut self,
        m: &mut Machine,
        chunk: u32,
        size: u32,
        prev_inuse: bool,
    ) -> Result<(), AllocError> {
        self.check_chunk(chunk, size)?;
        let flags = if prev_inuse { F_PREV_INUSE } else { 0 };
        self.write_hdr(m, chunk, size | flags)?;
        // Boundary tag: the next chunk learns our size and clears its
        // PREV_INUSE bit.
        let next = chunk + size;
        let nh = self.read_hdr(m, next)?;
        self.write_hdr(m, next, nh & !F_PREV_INUSE)?;
        self.write_word(m, next + 4, size)?;
        // Link at the head of the bin.
        let old = self.head_of(size);
        self.write_word(m, chunk + 8, old)?; // fd
        self.write_word(m, chunk + 12, 0)?; // bk (0 = first)
        if old != 0 {
            self.write_word(m, old + 12, chunk)?;
        }
        self.set_head(m, size, chunk);
        Ok(())
    }

    /// Unlinks a free chunk from its bin.
    fn unlink(&mut self, m: &mut Machine, chunk: u32, size: u32) -> Result<(), AllocError> {
        let fd = self.read_word(m, chunk + 8)?;
        let bk = self.read_word(m, chunk + 12)?;
        if bk == 0 {
            self.set_head(m, size, fd);
        } else {
            self.write_word(m, bk + 8, fd)?;
        }
        if fd != 0 {
            self.write_word(m, fd + 12, bk)?;
        }
        Ok(())
    }

    /// Finds and unlinks a chunk of at least `need` bytes, preferring small
    /// bins, first-fit in the large list. Returns `Ok(Some((chunk, size)))`
    /// on a fit, `Ok(None)` when nothing fits.
    fn take_fit(&mut self, m: &mut Machine, need: u32) -> Result<Option<(u32, u32)>, AllocError> {
        // Small bins are exact-size: scan upward from the first feasible.
        if need <= SMALL_MAX {
            let first = ((need.max(MIN_CHUNK) - MIN_CHUNK) / 8) as usize;
            for i in first..NSMALL {
                m.meter().charge(1); // head probe
                let head = self.small_bins[i];
                if head != 0 {
                    let size = (MIN_CHUNK as usize + i * 8) as u32;
                    self.check_chunk(head, size)?;
                    self.unlink(m, head, size)?;
                    return Ok(Some((head, size)));
                }
            }
        }
        // Large list: first fit.
        m.meter().charge(1);
        let mut cur = self.large_head;
        let mut hops = 0u32;
        while cur != 0 {
            let hdr = self.read_hdr(m, cur)?;
            let size = Self::size_of(hdr);
            if size >= need {
                self.check_chunk(cur, size)?;
                self.unlink(m, cur, size)?;
                return Ok(Some((cur, size)));
            }
            cur = self.read_word(m, cur + 8)?;
            hops += 1;
            if hops > (self.end - self.base) / MIN_CHUNK {
                // More hops than chunks can exist: a corrupted link cycle.
                return Err(AllocError::HeapCorruption);
            }
        }
        Ok(None)
    }

    // --- allocation --------------------------------------------------------

    /// Allocates `len` bytes, returning a capability bounded to the object
    /// (header excluded) without the Store-Local permission.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadSize`] for zero or oversized requests;
    /// [`AllocError::OutOfMemory`] when no chunk fits even after revocation
    /// and quarantine drain.
    pub fn malloc(&mut self, m: &mut Machine, len: u32) -> Result<Capability, AllocError> {
        if len == 0 || len > self.capacity() {
            return Err(AllocError::BadSize { requested: len });
        }
        // Entry bookkeeping the real allocator does on every call:
        // argument validation, size-class computation, capability
        // derivations, error-path setup.
        m.meter().charge(60);
        self.drain_ready(m)?;
        let user_len = len.max(8).next_multiple_of(8);
        let rep_len = representable_length(user_len) as u32;
        let align = (!representable_alignment_mask(user_len))
            .wrapping_add(1)
            .max(8);
        let slack = if align > 8 { align + MIN_CHUNK } else { 0 };
        let need = rep_len + HDR + slack;

        let mut attempts = 0;
        let (chunk, size) = loop {
            if let Some(found) = self.take_fit(m, need)? {
                break found;
            }
            // Low on memory: force revocation cycles until quarantine is
            // empty or nothing more can be reclaimed.
            if self.quarantine.is_empty() || attempts >= 4 {
                return Err(AllocError::OutOfMemory);
            }
            attempts += 1;
            self.start_revocation(m)?;
            self.wait_revocation_complete(m)?;
            self.drain_ready(m)?;
        };

        // Front padding for representable alignment.
        let mut user = chunk + HDR;
        let aligned = user.next_multiple_of(align);
        let mut front = aligned - user;
        if front != 0 && front < MIN_CHUNK {
            front += align;
        }
        let hdr = self.read_hdr(m, chunk)?;
        let mut prev_inuse = hdr & F_PREV_INUSE != 0;
        let mut alloc_chunk = chunk;
        if front >= MIN_CHUNK {
            self.insert_free(m, chunk, front, prev_inuse)?;
            alloc_chunk = chunk + front;
            prev_inuse = false;
        }
        user = alloc_chunk + HDR;

        let mut alloc_size = rep_len + HDR;
        // `take_fit` guarantees size >= need = rep_len + HDR + slack and
        // front <= slack; a checked subtraction keeps corrupted metadata
        // from wrapping.
        let rem = size
            .checked_sub(front + alloc_size)
            .ok_or(AllocError::HeapCorruption)?;
        if rem >= MIN_CHUNK {
            self.insert_free(m, alloc_chunk + alloc_size, rem, true)?;
        } else {
            alloc_size += rem;
        }
        self.write_hdr(
            m,
            alloc_chunk,
            alloc_size | F_INUSE | if prev_inuse { F_PREV_INUSE } else { 0 },
        )?;
        // The next chunk sees an in-use neighbour.
        let next = alloc_chunk + alloc_size;
        let nh = self.read_hdr(m, next)?;
        self.write_hdr(m, next, nh | F_PREV_INUSE)?;

        if matches!(self.policy, TemporalPolicy::MetadataOnly) {
            // Metadata config: bits were painted at free and are cleared on
            // reuse.
            self.clear_bits(m, user, alloc_size - HDR);
        }

        self.live.insert(
            user,
            Shadow {
                chunk: alloc_chunk,
                size: alloc_size,
            },
        );
        self.stats.allocs += 1;
        self.stats.live_bytes += alloc_size;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);

        let cap = self
            .heap_cap
            .with_address(user)
            .set_bounds(u64::from(user_len))
            .filter(|c| c.tag())
            .ok_or(AllocError::HeapCorruption)?;
        debug_assert!(cap.top() <= u64::from(alloc_chunk + alloc_size));
        m.trace_emit(EventKind::Malloc {
            base: user,
            size: user_len,
        });
        Ok(cap.and_perms(!Permissions::SL))
    }

    /// Resizes an allocation, preserving its contents (`realloc`).
    ///
    /// Shrinking re-derives tighter bounds in place. Growing allocates a
    /// new chunk, copies the payload word by word (metered), and frees the
    /// old allocation through the full temporal-safety path — the old
    /// pointer is dead the moment this returns, exactly like `free`.
    ///
    /// # Errors
    ///
    /// As [`HeapAllocator::malloc`] and [`HeapAllocator::free`].
    pub fn realloc(
        &mut self,
        m: &mut Machine,
        cap: Capability,
        new_len: u32,
    ) -> Result<Capability, AllocError> {
        if !cap.tag() {
            return Err(AllocError::InvalidFree);
        }
        if new_len == 0 || new_len > self.capacity() {
            return Err(AllocError::BadSize { requested: new_len });
        }
        let user = cap.base();
        let Some(&Shadow { chunk, size }) = self.live.get(&user) else {
            return Err(AllocError::InvalidFree);
        };
        let old_payload = (cap.length() as u32).min(size - HDR);
        m.meter().charge(24);
        // Shrink (or same-size) in place when the tighter bounds stay
        // within the chunk.
        if let Some(shrunk) = self
            .heap_cap
            .with_address(user)
            .set_bounds(u64::from(new_len.max(8).next_multiple_of(8)))
            .filter(|c| c.tag() && c.top() <= u64::from(chunk + size))
        {
            if new_len <= old_payload {
                return Ok(shrunk.and_perms(!Permissions::SL));
            }
        }
        // Grow: allocate, copy, free.
        let new_cap = self.malloc(m, new_len)?;
        let words = old_payload.min(new_len).div_ceil(4);
        {
            let mut meter = m.meter();
            for i in 0..words {
                let v = meter
                    .load(self.heap_cap, user + i * 4, 4)
                    .map_err(AllocError::Trap)?;
                meter
                    .store(self.heap_cap, new_cap.base() + i * 4, 4, v)
                    .map_err(AllocError::Trap)?;
            }
        }
        self.free(m, cap)?;
        Ok(new_cap)
    }

    /// Frees an allocation.
    ///
    /// The capability's base must be the start of a live allocation
    /// returned by [`HeapAllocator::malloc`]. Per the paper, the revocation
    /// bits are painted and the memory zeroed *before* `free` returns, so
    /// use-after-free is impossible from that instant; the chunk itself
    /// waits in quarantine until a sweep completes.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] for untagged capabilities, mid-object
    /// pointers, double frees, or forged regions.
    pub fn free(&mut self, m: &mut Machine, cap: Capability) -> Result<(), AllocError> {
        if !cap.tag() {
            return Err(AllocError::InvalidFree);
        }
        let user = cap.base();
        // Validation work: tag/bounds checks against the chunk header,
        // quarantine bookkeeping setup.
        m.meter().charge(40);
        let Some(&Shadow { chunk, size }) = self.live.get(&user) else {
            return Err(AllocError::InvalidFree);
        };
        let hdr = self.read_hdr(m, chunk)?;
        if hdr & F_INUSE == 0 || Self::size_of(hdr) != size {
            return Err(AllocError::HeapCorruption);
        }
        if cap.top() > u64::from(chunk + size) {
            return Err(AllocError::InvalidFree);
        }
        self.live.remove(&user);
        self.stats.frees += 1;
        self.stats.live_bytes -= size;
        m.trace_emit(EventKind::Free { base: user, size });

        match self.policy {
            TemporalPolicy::None => {
                self.release_chunk(m, chunk, size)?;
            }
            TemporalPolicy::MetadataOnly => {
                self.paint_bits(m, user, size - HDR);
                let mut meter = m.meter();
                meter
                    .zero(self.heap_cap, user, size - HDR)
                    .map_err(AllocError::Trap)?;
                self.release_chunk(m, chunk, size)?;
            }
            TemporalPolicy::Quarantine(_) => {
                self.paint_bits(m, user, size - HDR);
                m.meter()
                    .zero(self.heap_cap, user, size - HDR)
                    .map_err(AllocError::Trap)?;
                let epoch = self.current_epoch(m);
                self.quarantine.push(epoch, chunk, size);
                m.trace_emit(EventKind::QuarantinePush { chunk, size, epoch });
                self.stats.quarantined_bytes = self.quarantine.bytes();
                m.meter().charge(8);
                if self.quarantine.bytes() >= self.quarantine_threshold {
                    self.start_revocation(m)?;
                }
                self.drain_ready(m)?;
            }
        }
        Ok(())
    }

    /// Releases a (swept or never-quarantined) chunk back to the free
    /// lists, coalescing with neighbours.
    fn release_chunk(&mut self, m: &mut Machine, chunk: u32, size: u32) -> Result<(), AllocError> {
        let mut chunk = chunk;
        let mut size = size;
        self.check_chunk(chunk, size)?;
        let hdr = self.read_hdr(m, chunk)?;
        let mut prev_inuse = hdr & F_PREV_INUSE != 0;
        // Coalesce right.
        let next = chunk + size;
        let nh = self.read_hdr(m, next)?;
        if nh & F_INUSE == 0 {
            let nsize = Self::size_of(nh);
            self.check_chunk(next, nsize)?;
            self.unlink(m, next, nsize)?;
            size += nsize;
        }
        // Coalesce left.
        if !prev_inuse {
            let psize = self.read_word(m, chunk + 4)?;
            let prev = chunk.checked_sub(psize).ok_or(AllocError::HeapCorruption)?;
            self.check_chunk(prev, psize)?;
            self.unlink(m, prev, psize)?;
            let ph = self.read_hdr(m, prev)?;
            prev_inuse = ph & F_PREV_INUSE != 0;
            chunk = prev;
            size += psize;
        }
        self.insert_free(m, chunk, size, prev_inuse)
    }

    // --- revocation --------------------------------------------------------

    fn paint_bits(&mut self, m: &mut Machine, addr: u32, len: u32) {
        self.bitmap_touch(m, len);
        m.bitmap.set_range(addr, len);
    }

    fn clear_bits(&mut self, m: &mut Machine, addr: u32, len: u32) {
        self.bitmap_touch(m, len);
        m.bitmap.clear_range(addr, len);
    }

    fn bitmap_touch(&self, m: &mut Machine, len: u32) {
        // The allocator is the only compartment holding a capability to the
        // bitmap window; assert that authority the way the stores would.
        debug_assert!(self
            .bitmap_cap
            .check_access(layout::REV_BITMAP_BASE, 4, Permissions::SD)
            .is_ok());
        // One MMIO word covers 32 granules = 256 bytes of heap.
        let words = u64::from(len.div_ceil(256).max(1));
        m.meter().charge_mmio_words(words);
    }

    /// The current revocation epoch (paper §3.3.2): odd while a sweep runs.
    pub fn current_epoch(&self, m: &mut Machine) -> u32 {
        match self.policy {
            TemporalPolicy::Quarantine(RevokerKind::Hardware) => {
                m.meter().charge(2); // MMIO epoch load
                m.revoker.epoch()
            }
            _ => self.sw_epoch,
        }
    }

    /// Starts a revocation pass if none is under way. The software engine
    /// sweeps synchronously (the caller is the allocator compartment,
    /// running the RTOS revoker loop); the hardware engine is kicked and
    /// proceeds in the background.
    ///
    /// # Errors
    ///
    /// [`AllocError::Trap`] if the software sweep's own accesses fault
    /// (possible only under fault injection or misconfiguration).
    pub fn start_revocation(&mut self, m: &mut Machine) -> Result<(), AllocError> {
        match self.policy {
            TemporalPolicy::Quarantine(RevokerKind::Hardware) => {
                if m.revoker.in_progress() {
                    return Ok(());
                }
                self.stats.revocation_passes += 1;
                // Three MMIO register writes: start, end, kick.
                m.meter().charge(6);
                let (sweep_base, sweep_end) = (self.sweep_cap.base(), self.sweep_cap.top() as u32);
                m.revoker.mmio_write(revoker_reg::START, sweep_base);
                m.revoker.mmio_write(revoker_reg::END, sweep_end);
                m.revoker.mmio_write(revoker_reg::KICK, 1);
                // The kick went straight to the device, not through the
                // machine's MMIO dispatch, so emit the epoch-start here.
                let epoch = m.revoker.epoch();
                m.trace_emit(EventKind::RevokerStart { epoch });
            }
            TemporalPolicy::Quarantine(RevokerKind::Software) => {
                self.stats.revocation_passes += 1;
                self.sw_epoch += 1;
                m.trace_emit(EventKind::RevokerStart {
                    epoch: self.sw_epoch,
                });
                let strips_before = m.stats.filter_strips;
                self.software_sweep(m)?;
                self.sw_epoch += 1;
                m.trace_emit(EventKind::RevokerFinish {
                    epoch: self.sw_epoch,
                    words_invalidated: m.stats.filter_strips - strips_before,
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// The RTOS software revoker loop (paper §3.3.2): loads each capability
    /// word in the heap and stores it back; the load filter strips tags of
    /// capabilities whose base is revoked. The loop is unrolled by two to
    /// hide the load-to-use delay; interrupts are disabled per batch (the
    /// synchronous model here corresponds to the allocator waiting for the
    /// sweep).
    fn software_sweep(&mut self, m: &mut Machine) -> Result<(), AllocError> {
        let mut addr = self.sweep_cap.base();
        let sweep_end = self.sweep_cap.top() as u32;
        while addr < sweep_end {
            let mut meter = m.meter();
            // Unrolled-by-two loop body: two loads, two stores, minimal
            // overhead (one branch per two words).
            for a in [addr, addr + 8] {
                if a >= sweep_end {
                    break;
                }
                let c = meter
                    .load_cap(self.sweep_cap, a)
                    .map_err(AllocError::Trap)?;
                meter
                    .store_cap(self.sweep_cap, a, c)
                    .map_err(AllocError::Trap)?;
            }
            meter.charge_branch();
            addr += 16;
        }
        Ok(())
    }

    /// Blocks until no revocation pass is in progress. With the hardware
    /// revoker this models the calling thread sleeping (interrupt
    /// completion) or polling (the Flute prototype, whose wake-up memory
    /// traffic steals revoker slots — paper §7.2.2).
    ///
    /// # Errors
    ///
    /// [`AllocError::RevokerStuck`] if the sweep never completes (a wedged
    /// or corrupted revoker device under fault injection).
    pub fn wait_revocation_complete(&mut self, m: &mut Machine) -> Result<(), AllocError> {
        if !matches!(
            self.policy,
            TemporalPolicy::Quarantine(RevokerKind::Hardware)
        ) {
            return Ok(());
        }
        let mut guard = 0u64;
        let ctx_pair = {
            // Two thread context switches (block + wake): register-file
            // save/restore plus the two extra HWM CSRs when present
            // (paper §7.2.2's note on the 128 KiB case: a wait-dominated
            // workload makes those extra saves visible).
            let caps = 60 * m.cfg().core.cap_beats();
            let hwm_extra = if m.cfg().hwm_enabled { 24 } else { 0 };
            (150 + caps + hwm_extra, caps)
        };
        while m.revoker.in_progress() {
            if m.cfg().revoker.interrupt_on_completion {
                // Sleeping thread: idle until the completion interrupt,
                // except for the periodic scheduler tick, which performs a
                // context-switch pair through the blocked state.
                m.advance(2048, 0);
                m.advance(ctx_pair.0, ctx_pair.1);
            } else {
                // Polling (Flute prototype, §7.2.2): the RTOS periodically
                // wakes the blocked thread; its flurry of memory accesses
                // takes precedence over the revoker and slows the sweep.
                m.advance(256, 0);
                m.advance(ctx_pair.0, ctx_pair.1);
                m.advance(96, 88);
            }
            guard += 1;
            if guard >= 100_000_000 {
                return Err(AllocError::RevokerStuck);
            }
        }
        // The wake-up on completion.
        m.advance(ctx_pair.0, ctx_pair.1);
        Ok(())
    }

    /// Releases every quarantine list that a completed sweep has covered.
    fn drain_ready(&mut self, m: &mut Machine) -> Result<(), AllocError> {
        if !matches!(self.policy, TemporalPolicy::Quarantine(_)) {
            return Ok(());
        }
        let epoch = self.current_epoch(m);
        while let Some(list) = self.quarantine.pop_ready(epoch) {
            for (chunk, size) in list {
                m.trace_emit(EventKind::QuarantineRelease { chunk, size });
                self.clear_bits(m, chunk + HDR, size - HDR);
                self.release_chunk(m, chunk, size)?;
                m.meter().charge(6);
            }
        }
        self.stats.quarantined_bytes = self.quarantine.bytes();
        Ok(())
    }

    // --- introspection / test support ---------------------------------------

    /// Walks the heap validating every metadata invariant (headers,
    /// boundary tags, bin membership). Uncharged — this is a simulation
    /// debugging facility, not allocator code.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_consistency(&self, m: &Machine) -> Result<(), String> {
        let read = |addr: u32| -> u32 { m.sram.read_scalar(addr, 4).unwrap_or(0) };
        // Collect free chunks from the bins.
        let mut free_set = std::collections::BTreeSet::new();
        for (i, &head) in self.small_bins.iter().enumerate() {
            let mut cur = head;
            let mut hops = 0;
            while cur != 0 {
                free_set.insert(cur);
                let expect = MIN_CHUNK + 8 * i as u32;
                let hdr = read(cur);
                if Self::size_of(hdr) != expect {
                    return Err(format!(
                        "bin {i} chunk {cur:#x} size {} != {expect}",
                        Self::size_of(hdr)
                    ));
                }
                cur = read(cur + 8);
                hops += 1;
                if hops > 100_000 {
                    return Err(format!("bin {i} cycle"));
                }
            }
        }
        let mut cur = self.large_head;
        let mut hops = 0;
        while cur != 0 {
            free_set.insert(cur);
            cur = read(cur + 8);
            hops += 1;
            if hops > 100_000 {
                return Err("large bin cycle".into());
            }
        }
        // Walk the heap.
        let mut chunk = self.base;
        let mut prev_inuse = true;
        let mut quarantined: std::collections::BTreeSet<u32> =
            self.quarantine.chunks().map(|(c, _)| c).collect();
        while chunk < self.end - HDR {
            let hdr = read(chunk);
            let size = Self::size_of(hdr);
            if size < MIN_CHUNK || size % 8 != 0 || chunk + size > self.end {
                return Err(format!("chunk {chunk:#x} bad size {size}"));
            }
            let inuse = hdr & F_INUSE != 0;
            if (hdr & F_PREV_INUSE != 0) != prev_inuse {
                return Err(format!("chunk {chunk:#x} PREV_INUSE mismatch"));
            }
            if inuse {
                let known_live = self.live.values().any(|s| s.chunk == chunk);
                let known_quarantined = quarantined.remove(&chunk);
                if !known_live && !known_quarantined {
                    return Err(format!("chunk {chunk:#x} in-use but unknown"));
                }
            } else {
                if !free_set.remove(&chunk) {
                    return Err(format!("chunk {chunk:#x} free but not in a bin"));
                }
                if read(chunk + size + 4) != size {
                    return Err(format!("chunk {chunk:#x} boundary tag mismatch"));
                }
            }
            prev_inuse = inuse;
            chunk += size;
        }
        if !free_set.is_empty() {
            return Err(format!("bins contain unknown chunks {free_set:?}"));
        }
        Ok(())
    }

    /// Number of live allocations (shadow view).
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }

    /// The chunk size (including header) backing the live allocation whose
    /// payload starts at `base`, if any. Used by the RTOS quota service.
    pub fn allocation_size(&self, base: u32) -> Option<u32> {
        self.live.get(&base).map(|s| s.size)
    }

    /// The heap region managed by this allocator as `(base, end)`.
    pub fn heap_range(&self) -> (u32, u32) {
        (self.base, self.end)
    }

    /// Every live allocation as a `(payload base, payload len)` span (the
    /// span runs to the end of the backing chunk, covering representable-
    /// bounds padding). Sorted by base. For external invariant checkers.
    pub fn live_spans(&self) -> Vec<(u32, u32)> {
        self.live
            .iter()
            .map(|(&user, s)| (user, s.chunk + s.size - user))
            .collect()
    }

    /// Every quarantined chunk's payload as a `(payload base, payload len)`
    /// span. For external invariant checkers: these bytes must stay
    /// painted in the revocation bitmap, zeroed, and disjoint from every
    /// live allocation until their epoch completes.
    pub fn quarantined_spans(&self) -> Vec<(u32, u32)> {
        self.quarantine
            .chunks()
            .map(|(chunk, size)| (chunk + HDR, size - HDR))
            .collect()
    }
}
