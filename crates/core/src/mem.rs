//! Tagged SRAM over a copy-on-write page store.
//!
//! Embedded CHERIoT memory is tightly-coupled SRAM with one out-of-band tag
//! bit per 8-byte (capability-sized) granule. Scalar stores clear the tag of
//! the granule they touch; capability loads/stores move the tag with the
//! data. Capability accesses must be 8-byte aligned.
//!
//! ## The page store
//!
//! Architectural content lives in 4 KiB [`Page`]s — the data bytes plus the
//! covering slice of the packed tag bitmap (512 granules = 8 tag words, so
//! pages own whole tag words) — held through `Arc` handles. Pages are
//! immutable while shared: every mutating path funnels through the write
//! barrier ([`Sram::page_mut`]), which unshares the page (`Arc::make_mut`)
//! before handing out a mutable reference. That barrier is the CoW break
//! point: the first write to a page shared with a snapshot or a forked
//! sibling clones just that page.
//!
//! Structural sharing is what the snapshot/fork engine rides on, and it
//! is also how the engine knows which pages differ: two `Arc::ptr_eq`
//! handles hold identical content, so a capture or restore moves exactly
//! the pages whose handles differ.
//!
//! * capture, restore and fork are one operation, `Sram::copy_from`: a
//!   **capture** hands the snapshot handle clones of the machine's
//!   differing pages — refcount bumps, zero byte copies;
//! * a **restore/fork** adopts the snapshot's handles the same way, so a
//!   1000-device fleet forked from one warm image holds one copy of every
//!   boot page, each instance pays only for the pages it writes, and a
//!   rewind moves only the pages written since the last capture/restore;
//! * untouched pages hold no handle at all (`None` reads as one static
//!   zero page, and two `None` slots count as the same handle), so a
//!   fresh bank costs no allocation, and creating, capturing, restoring
//!   and dropping a bank touch only the pages something wrote.
//!
//! The `--no-cow` escape hatch disables structural sharing: a bank built
//! with `cow` off ([`Sram::new`]) materialises every page and keeps it
//! uniquely owned, so no handle ever matches and every capture/restore
//! deep-copies the whole bank — the pre-CoW cost model. A bank takes its
//! mode once, at construction (a machine's from its config's `cow`).
//! CoW on/off is architecturally invisible — runs are byte-identical
//! either way (property-tested).
//!
//! Two simulator-only acceleration structures ride alongside the
//! architectural state (neither is architecturally visible, and neither is
//! ever shared between banks):
//!
//! * the tag bits are packed 64 per `u64` word, so sweeps and range
//!   operations use mask arithmetic and popcounts instead of per-granule
//!   loops, and the background revoker can skip whole all-clear words;
//! * a **decoded-capability side cache** keeps the expanded form of the
//!   capability last written to each granule, so a `CLC` that follows a
//!   `CSC` is a copy instead of a bounds re-derivation. Scalar writes, raw
//!   word writes and tag clears invalidate the slot; the raw 64-bit word
//!   plus tag bit remain the source of truth. The cache is held per page
//!   and allocated lazily at both levels: the page table on first
//!   capability traffic, so banks that never move capabilities (fleet
//!   guest nodes) never pay its footprint, and a page's slots on the first
//!   fill in that page, so a program that keeps capabilities in a few
//!   pages pays for those pages only. Invalidations visit live pages only.

use crate::trap::TrapCause;
use cheriot_cap::Capability;
use std::sync::Arc;

/// Capability-granule size: 8 bytes (a 64-bit capability).
pub const GRANULE: u32 = 8;

/// Page size of the copy-on-write store (also the snapshot transfer
/// unit): 4 KiB. A page is 512 granules, an exact multiple of the
/// 64-granule tag words, so each page owns whole tag words and CoW moves
/// data and tags together.
pub const PAGE_SIZE: u32 = 4096;

const PAGE_SHIFT: usize = 12;
const PAGE_MASK: usize = PAGE_SIZE as usize - 1;

/// Granules per page.
const PAGE_GRANULES: usize = (PAGE_SIZE / GRANULE) as usize;

/// Tag words per page (64 granules per word).
pub const PAGE_TAG_WORDS: usize = PAGE_GRANULES / 64;

/// Host bytes actually moved when a page's *content* is copied: the data
/// bytes plus the covering tag-bitmap words. This is the unit the honest
/// fork-cost accounting charges per deep page copy (the old accounting
/// forgot the tag bytes).
pub const PAGE_COPY_BYTES: u64 = PAGE_SIZE as u64 + (PAGE_TAG_WORDS * 8) as u64;

/// Host bytes moved adopting a page by handle (an `Arc` clone): the
/// pointer write. This is the entire per-page fork cost under CoW.
pub const PAGE_HANDLE_BYTES: u64 = std::mem::size_of::<Arc<Page>>() as u64;

/// One CoW unit: 4 KiB of data plus its covering tag-bitmap slice.
/// Immutable while shared; the write barrier unshares before mutating.
#[derive(Clone)]
pub struct Page {
    bytes: [u8; PAGE_SIZE as usize],
    /// Tag words for this page's granules: bit `g % 64` of word
    /// `(g / 64) % PAGE_TAG_WORDS` for global granule `g`.
    tags: [u64; PAGE_TAG_WORDS],
}

impl Page {
    const ZERO: Page = Page {
        bytes: [0; PAGE_SIZE as usize],
        tags: [0; PAGE_TAG_WORDS],
    };

    /// Sets/clears the tag of global granule `g` (which must live in this
    /// page — page-alignment makes `(g / 64) % PAGE_TAG_WORDS` its word).
    #[inline]
    fn tag_set(&mut self, g: usize, v: bool) {
        let w = (g >> 6) & (PAGE_TAG_WORDS - 1);
        let mask = 1u64 << (g & 63);
        if v {
            self.tags[w] |= mask;
        } else {
            self.tags[w] &= !mask;
        }
    }

    /// Clears every tag in the (page-local) global granule range
    /// `[g0, g1]`, both ends inclusive and inside this page.
    fn detag_range(&mut self, g0: usize, g1: usize) {
        let (w0, b0) = ((g0 >> 6) & (PAGE_TAG_WORDS - 1), g0 & 63);
        let (w1, b1) = ((g1 >> 6) & (PAGE_TAG_WORDS - 1), g1 & 63);
        let lo = !0u64 << b0;
        let hi = !0u64 >> (63 - b1);
        if w0 == w1 {
            self.tags[w0] &= !(lo & hi);
        } else {
            self.tags[w0] &= !lo;
            for w in &mut self.tags[w0 + 1..w1] {
                *w = 0;
            }
            self.tags[w1] &= !hi;
        }
    }
}

/// What every page slot without a handle reads as.
static ZERO_PAGE: Page = Page::ZERO;

/// Host-side counters for the CoW page store, exposed via
/// [`Sram::cow_stats`]. Not architectural state; never captured or
/// restored by snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Pages unshared by the write barrier: first writes to a page shared
    /// with a snapshot or a forked sibling, or to a page that held no
    /// handle yet (untouched zero memory).
    pub breaks: u64,
    /// Host bytes those breaks copied (`breaks * PAGE_COPY_BYTES`): the
    /// deferred fork cost actually paid so far.
    pub bytes_copied: u64,
}

/// Host bytes and pages actually moved by a capture or restore. `bytes`
/// is honest: handle adoptions under CoW cost [`PAGE_HANDLE_BYTES`] per
/// page, deep copies cost [`PAGE_COPY_BYTES`] (data *and* tag words).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct XferCost {
    /// Pages whose content was transferred (by handle or by copy).
    pub pages: u32,
    /// Host bytes moved doing it.
    pub bytes: u64,
}

/// A bank of byte-addressable tagged SRAM over the CoW page store.
pub struct Sram {
    base: u32,
    /// Logical size in bytes (the last page may be partial; its tail
    /// bytes and tag bits are unreachable and stay zero).
    len: usize,
    /// The page store. `None` is an untouched page: all-zero bytes and
    /// tags, no handle (never `None` with CoW off). Shared (`Arc`
    /// refcount > 1) pages are immutable; the write barrier allocates or
    /// unshares before mutating.
    pages: Vec<Option<Arc<Page>>>,
    /// Decoded-capability side cache, one slot per granule, held per
    /// page. The page table is allocated on first capability traffic
    /// (empty = cold) and a page's slots on the first fill in that page
    /// (`None` = no live slot in the page). `Some(c)` only when the
    /// granule's tag is set and `c` equals `Capability::from_word(word,
    /// true)` for the granule's current word.
    caps: Vec<Option<Box<[Option<Capability>]>>>,
    /// Structural sharing enabled? When false (`--no-cow`), pages are
    /// kept uniquely owned and captures/restores copy bytes — the pre-CoW
    /// cost model, kept as an escape hatch and comparison baseline. Fixed
    /// at construction.
    cow: bool,
    /// Write-barrier unshare counters (host-side, never snapshotted).
    cow_stats: CowStats,
}

impl std::fmt::Debug for Sram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sram")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("size", &self.len)
            .field("cow", &self.cow)
            .finish()
    }
}

impl Sram {
    /// Creates a zeroed SRAM bank of `size` bytes at `base`, with
    /// structural sharing on or off (`cow`). Under CoW untouched pages
    /// hold no handle, so a fresh bank allocates no page; the first write
    /// to each page allocates it. Without CoW every page is allocated
    /// here and stays uniquely owned.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `size` is not granule-aligned.
    pub fn new(base: u32, size: u32, cow: bool) -> Sram {
        assert_eq!(base % GRANULE, 0, "SRAM base must be granule-aligned");
        assert_eq!(size % GRANULE, 0, "SRAM size must be granule-aligned");
        let pages = (size as usize).div_ceil(PAGE_SIZE as usize);
        Sram {
            base,
            len: size as usize,
            pages: (0..pages)
                .map(|_| (!cow).then(|| Arc::new(Page::ZERO)))
                .collect(),
            caps: Vec::new(),
            cow,
            cow_stats: CowStats::default(),
        }
    }

    /// Write-barrier unshare counters.
    pub fn cow_stats(&self) -> CowStats {
        self.cow_stats
    }

    /// Pages currently shared with another bank (`Arc` refcount > 1) or
    /// holding no handle yet (untouched zero memory). These are the pages
    /// a fork has not yet paid for.
    pub fn shared_pages(&self) -> u32 {
        self.pages.iter().filter(|p| is_shared(p)).count() as u32
    }

    /// Host bytes of page content this bank uniquely owns (its private
    /// pages, charged at [`PAGE_COPY_BYTES`] each). The structural-sharing
    /// complement of [`Sram::shared_pages`]: a freshly forked bank is
    /// near zero, and each CoW break moves one page from shared to
    /// unique.
    pub fn unique_resident_bytes(&self) -> u64 {
        u64::from(self.num_pages() - self.shared_pages()) * PAGE_COPY_BYTES
    }

    /// Base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.len as u32
    }

    /// End address (exclusive). `u64` because a bank ending at the top of
    /// the address space has end `0x1_0000_0000`, which a `u32` cannot
    /// hold (the old `u32` return overflowed for such banks).
    pub fn end(&self) -> u64 {
        u64::from(self.base) + self.len as u64
    }

    /// Does this bank contain `[addr, addr+size)`?
    pub fn contains(&self, addr: u32, size: u32) -> bool {
        let a = u64::from(addr);
        a >= u64::from(self.base) && a + u64::from(size) <= self.end()
    }

    fn offset(&self, addr: u32) -> usize {
        (addr - self.base) as usize
    }

    fn granule(&self, addr: u32) -> usize {
        self.offset(addr) / GRANULE as usize
    }

    fn granules(&self) -> usize {
        self.len / GRANULE as usize
    }

    /// Page `p`'s content; an untouched page reads as the zero page.
    #[inline]
    fn page(&self, p: usize) -> &Page {
        page_or_zero(&self.pages[p])
    }

    /// The packed tag word `w` (64 granules per word; 8 words per page).
    #[inline]
    fn tag_word(&self, w: usize) -> u64 {
        self.page(w / PAGE_TAG_WORDS).tags[w % PAGE_TAG_WORDS]
    }

    fn tag_get(&self, g: usize) -> bool {
        self.tag_word(g >> 6) & (1u64 << (g & 63)) != 0
    }

    /// The write barrier and CoW break point: returns a uniquely-owned
    /// mutable reference to page `p`, cloning the page first if it is
    /// shared with a snapshot or a forked sibling, and allocating it if
    /// it held no handle yet. Either counts as one break.
    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut Page {
        let slot = &mut self.pages[p];
        if is_shared(slot) {
            self.cow_stats.breaks += 1;
            self.cow_stats.bytes_copied += PAGE_COPY_BYTES;
        }
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new(Page::ZERO)))
    }

    /// Fills granule `g`'s side-cache slot, allocating the page table and
    /// the page's slots on first use.
    fn caps_fill(&mut self, g: usize, c: Capability) {
        if self.caps.is_empty() {
            self.caps = vec![None; self.pages.len()];
        }
        let slots = self.caps[g / PAGE_GRANULES]
            .get_or_insert_with(|| vec![None; PAGE_GRANULES].into_boxed_slice());
        slots[g % PAGE_GRANULES] = Some(c);
    }

    /// The cached decode of granule `g`, if there is one.
    #[inline]
    fn caps_get(&self, g: usize) -> Option<Capability> {
        self.caps.get(g / PAGE_GRANULES)?.as_ref()?[g % PAGE_GRANULES]
    }

    /// Drops the side-cache entry for granule `g` if its page is live.
    #[inline]
    fn caps_clear(&mut self, g: usize) {
        if let Some(Some(slots)) = self.caps.get_mut(g / PAGE_GRANULES) {
            slots[g % PAGE_GRANULES] = None;
        }
    }

    /// Drops the side-cache entries of granules `[g0, g1]` (inclusive,
    /// both in one page) if that page is live.
    #[inline]
    fn caps_clear_range(&mut self, g0: usize, g1: usize) {
        debug_assert_eq!(g0 / PAGE_GRANULES, g1 / PAGE_GRANULES);
        if let Some(Some(slots)) = self.caps.get_mut(g0 / PAGE_GRANULES) {
            slots[g0 % PAGE_GRANULES..=g1 % PAGE_GRANULES].fill(None);
        }
    }

    fn check(&self, addr: u32, size: u32) -> Result<(), TrapCause> {
        if !self.contains(addr, size) {
            return Err(TrapCause::BusError { addr });
        }
        if !addr.is_multiple_of(size) {
            return Err(TrapCause::Misaligned { addr });
        }
        Ok(())
    }

    /// Reads a scalar of `size` ∈ {1, 2, 4} bytes, little-endian,
    /// zero-extended.
    ///
    /// # Errors
    ///
    /// Bus error outside the bank; misaligned access faults.
    pub fn read_scalar(&self, addr: u32, size: u32) -> Result<u32, TrapCause> {
        self.check(addr, size)?;
        debug_assert!(matches!(size, 1 | 2 | 4));
        let o = self.offset(addr);
        // Aligned 1/2/4-byte accesses never cross a page boundary.
        let pg = self.page(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        Ok(match size {
            1 => u32::from(pg.bytes[po]),
            2 => u32::from(u16::from_le_bytes([pg.bytes[po], pg.bytes[po + 1]])),
            _ => u32::from_le_bytes(pg.bytes[po..po + 4].try_into().unwrap()),
        })
    }

    /// Writes a scalar of `size` ∈ {1, 2, 4} bytes and clears the granule's
    /// tag (a partial overwrite invalidates any capability stored there).
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn write_scalar(&mut self, addr: u32, size: u32, value: u32) -> Result<(), TrapCause> {
        self.check(addr, size)?;
        debug_assert!(matches!(size, 1 | 2 | 4));
        let o = self.offset(addr);
        let g = o / GRANULE as usize;
        self.caps_clear(g);
        let pg = self.page_mut(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        match size {
            1 => pg.bytes[po] = value as u8,
            2 => pg.bytes[po..po + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            _ => pg.bytes[po..po + 4].copy_from_slice(&value.to_le_bytes()),
        }
        pg.tag_set(g, false);
        Ok(())
    }

    /// Reads a capability-sized word with its tag. Requires 8-byte
    /// alignment.
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn read_cap_word(&self, addr: u32) -> Result<(u64, bool), TrapCause> {
        self.check(addr, GRANULE)?;
        let o = self.offset(addr);
        let pg = self.page(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        let word = u64::from_le_bytes(pg.bytes[po..po + GRANULE as usize].try_into().unwrap());
        Ok((word, self.tag_get(self.granule(addr))))
    }

    /// Writes a capability-sized word and its tag. Requires 8-byte
    /// alignment. Invalidates the granule's decoded-capability slot (the
    /// caller supplied a raw word, not a decoded capability).
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn write_cap_word(&mut self, addr: u32, word: u64, tag: bool) -> Result<(), TrapCause> {
        self.check(addr, GRANULE)?;
        let o = self.offset(addr);
        let g = o / GRANULE as usize;
        self.caps_clear(g);
        let pg = self.page_mut(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        pg.bytes[po..po + GRANULE as usize].copy_from_slice(&word.to_le_bytes());
        pg.tag_set(g, tag);
        Ok(())
    }

    /// Writes a decoded capability (word + tag) and fills the granule's
    /// side-cache slot, so a subsequent [`Sram::read_cap`] is a copy rather
    /// than a bounds re-derivation.
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn write_cap(&mut self, addr: u32, c: Capability) -> Result<(), TrapCause> {
        self.check(addr, GRANULE)?;
        let o = self.offset(addr);
        let g = o / GRANULE as usize;
        if c.tag() {
            self.caps_fill(g, c);
        } else {
            self.caps_clear(g);
        }
        let pg = self.page_mut(o >> PAGE_SHIFT);
        let po = o & PAGE_MASK;
        pg.bytes[po..po + GRANULE as usize].copy_from_slice(&c.to_word().to_le_bytes());
        pg.tag_set(g, c.tag());
        Ok(())
    }

    /// Reads a capability, consulting the decoded side cache. A miss on a
    /// tagged granule decodes the raw word once and fills the slot;
    /// untagged granules never decode (and never populate the cache).
    ///
    /// # Errors
    ///
    /// As [`Sram::read_scalar`].
    pub fn read_cap(&mut self, addr: u32) -> Result<Capability, TrapCause> {
        let (word, tag) = self.read_cap_word(addr)?;
        if !tag {
            return Ok(Capability::from_word(word, false));
        }
        let g = self.granule(addr);
        if let Some(c) = self.caps_get(g) {
            debug_assert_eq!(c, Capability::from_word(word, tag));
            debug_assert_eq!(c.bounds(), Capability::from_word(word, tag).bounds());
            return Ok(c);
        }
        let c = Capability::from_word(word, true);
        self.caps_fill(g, c);
        Ok(c)
    }

    /// Zeroes `[addr, addr+len)` and clears all covered tags. Used by the
    /// allocator (`free` zeroes memory) and the switcher (stack clearing).
    ///
    /// # Errors
    ///
    /// Bus error if the range leaves the bank.
    pub fn zero_range(&mut self, addr: u32, len: u32) -> Result<(), TrapCause> {
        if len == 0 {
            return Ok(());
        }
        if !self.contains(addr, len) {
            return Err(TrapCause::BusError { addr });
        }
        let o = self.offset(addr);
        let end = o + len as usize;
        let mut cur = o;
        while cur < end {
            let p = cur >> PAGE_SHIFT;
            let stop = ((p + 1) << PAGE_SHIFT).min(end);
            let (g0, g1) = (cur / GRANULE as usize, (stop - 1) / GRANULE as usize);
            self.caps_clear_range(g0, g1);
            let pg = self.page_mut(p);
            pg.bytes[cur & PAGE_MASK..((stop - 1) & PAGE_MASK) + 1].fill(0);
            pg.detag_range(g0, g1);
            cur = stop;
        }
        Ok(())
    }

    /// Copies `[addr, addr+len)` out of the bank (DMA read side). No
    /// alignment requirement; tags are not readable this way (DMA moves
    /// data, never capabilities).
    ///
    /// # Errors
    ///
    /// Bus error if the range leaves the bank.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), TrapCause> {
        if buf.is_empty() {
            return Ok(());
        }
        if !self.contains(addr, buf.len() as u32) {
            return Err(TrapCause::BusError { addr });
        }
        let o = self.offset(addr);
        let end = o + buf.len();
        let mut cur = o;
        while cur < end {
            let p = cur >> PAGE_SHIFT;
            let stop = ((p + 1) << PAGE_SHIFT).min(end);
            let po = cur & PAGE_MASK;
            buf[cur - o..stop - o].copy_from_slice(&self.page(p).bytes[po..po + (stop - cur)]);
            cur = stop;
        }
        Ok(())
    }

    /// Copies `buf` into `[addr, addr+len)` (DMA write side), clearing
    /// every covered granule's tag and decoded-capability slot — a DMA
    /// store is a raw-byte overwrite, so any capability it touches (even
    /// partially) must die — and passing every covered page through the
    /// write barrier, so shared pages CoW-break and snapshot/fork never
    /// under-copies. No alignment requirement.
    ///
    /// # Errors
    ///
    /// Bus error if the range leaves the bank.
    pub fn write_bytes(&mut self, addr: u32, buf: &[u8]) -> Result<(), TrapCause> {
        if buf.is_empty() {
            return Ok(());
        }
        if !self.contains(addr, buf.len() as u32) {
            return Err(TrapCause::BusError { addr });
        }
        let o = self.offset(addr);
        let end = o + buf.len();
        let mut cur = o;
        while cur < end {
            let p = cur >> PAGE_SHIFT;
            let stop = ((p + 1) << PAGE_SHIFT).min(end);
            let (g0, g1) = (cur / GRANULE as usize, (stop - 1) / GRANULE as usize);
            self.caps_clear_range(g0, g1);
            let pg = self.page_mut(p);
            let po = cur & PAGE_MASK;
            pg.bytes[po..po + (stop - cur)].copy_from_slice(&buf[cur - o..stop - o]);
            pg.detag_range(g0, g1);
            cur = stop;
        }
        Ok(())
    }

    /// Is the tag set for the granule containing `addr`?
    pub fn tag_at(&self, addr: u32) -> bool {
        if !self.contains(addr, 1) {
            return false;
        }
        self.tag_get(self.granule(addr))
    }

    /// Count of set tags in `[addr, addr+len)` — used by sweeps and tests.
    pub fn count_tags(&self, addr: u32, len: u32) -> usize {
        if len == 0 || !self.contains(addr, len) {
            return 0;
        }
        let o = self.offset(addr);
        let g0 = o / GRANULE as usize;
        let g1 = (o + len as usize - 1) / GRANULE as usize;
        let (w0, b0) = (g0 >> 6, g0 & 63);
        let (w1, b1) = (g1 >> 6, g1 & 63);
        let lo = !0u64 << b0;
        let hi = !0u64 >> (63 - b1);
        if w0 == w1 {
            (self.tag_word(w0) & lo & hi).count_ones() as usize
        } else {
            let mut n = (self.tag_word(w0) & lo).count_ones();
            for w in w0 + 1..w1 {
                n += self.tag_word(w).count_ones();
            }
            n += (self.tag_word(w1) & hi).count_ones();
            n as usize
        }
    }

    /// Length (in granules, capped at `max_granules`) of the run of
    /// *untagged* granules starting at granule-aligned `addr`. A page that
    /// holds no handle is all-clear and costs one test; elsewhere the scan
    /// reads the packed tag words, one load per all-clear 64-granule word.
    /// This is what lets the background revoker batch over untouched
    /// memory. Returns 0 for addresses outside the bank or unaligned.
    pub fn untagged_run(&self, addr: u32, max_granules: u32) -> u32 {
        if max_granules == 0 || !addr.is_multiple_of(GRANULE) || !self.contains(addr, GRANULE) {
            return 0;
        }
        let g0 = self.granule(addr);
        let total = self.granules();
        let limit = (g0 + max_granules as usize).min(total);
        let mut g = g0;
        while g < limit {
            let p = g / PAGE_GRANULES;
            let Some(page) = &self.pages[p] else {
                g = (p + 1) * PAGE_GRANULES;
                continue;
            };
            let masked = page.tags[(g >> 6) % PAGE_TAG_WORDS] & (!0u64 << (g & 63));
            if masked != 0 {
                let next_tagged = (g & !63) + masked.trailing_zeros() as usize;
                return (next_tagged.min(limit) - g0) as u32;
            }
            g = (g & !63) + 64;
        }
        (limit - g0) as u32
    }

    /// [`Sram::untagged_run`] going down: length (in granules, capped at
    /// `max_granules` and at the bank base) of the run of *untagged*
    /// granules ending at granule-aligned `addr`, `addr` included. One
    /// test per page that holds no handle, one load per all-clear word
    /// elsewhere. Returns 0 for addresses outside the bank or unaligned.
    pub fn untagged_run_down(&self, addr: u32, max_granules: u32) -> u32 {
        if max_granules == 0 || !addr.is_multiple_of(GRANULE) || !self.contains(addr, GRANULE) {
            return 0;
        }
        let g0 = self.granule(addr);
        // Lowest granule the run may reach.
        let limit = g0.saturating_sub(max_granules as usize - 1);
        let mut g = g0;
        loop {
            let p = g / PAGE_GRANULES;
            let Some(page) = &self.pages[p] else {
                let first = p * PAGE_GRANULES;
                if first <= limit {
                    break;
                }
                g = first - 1;
                continue;
            };
            let masked = page.tags[(g >> 6) % PAGE_TAG_WORDS] & (!0u64 >> (63 - (g & 63)));
            if masked != 0 {
                let prev_tagged = (g & !63) + 63 - masked.leading_zeros() as usize;
                if prev_tagged < limit {
                    break;
                }
                return (g0 - prev_tagged) as u32;
            }
            if g & !63 <= limit {
                break;
            }
            g = (g & !63) - 1;
        }
        (g0 - limit + 1) as u32
    }

    /// Number of pages in the bank.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Page `p`'s data bytes and tag words, read-only, or `None` if the
    /// page holds no handle (its bytes and tags are all zero): byte `i`
    /// is the byte at `base + p * PAGE_SIZE + i`, and bit `b` of tag word
    /// `w` is the tag of granule `(p * 8 + w) * 64 + b`. A partial last
    /// page reads as zero past the bank's end. This is the exit-state
    /// comparator's view of the bank: whole pages, no copies.
    pub fn page_content(
        &self,
        p: usize,
    ) -> Option<(&[u8; PAGE_SIZE as usize], &[u64; PAGE_TAG_WORDS])> {
        self.pages[p].as_deref().map(|pg| (&pg.bytes, &pg.tags))
    }

    /// Architectural-content equality: same base/size and identical bytes
    /// and tags. Pages sharing a handle compare in O(1); the decoded side
    /// cache and CoW counters are derived state and deliberately excluded.
    pub fn content_eq(&self, other: &Sram) -> bool {
        self.same_shape(other)
            && self.pages.iter().zip(&other.pages).all(|(a, b)| {
                same_handle(a, b) || {
                    let (a, b) = (page_or_zero(a), page_or_zero(b));
                    a.bytes == b.bytes && a.tags == b.tags
                }
            })
    }

    fn same_shape(&self, other: &Sram) -> bool {
        self.base == other.base && self.len == other.len
    }

    /// Makes this bank's content equal `src`'s by adopting every page
    /// whose handle differs from `src`'s: the one page transfer behind
    /// capture, restore and fork. Shared pages are immutable, so
    /// `Arc::ptr_eq` handles (and two untouched slots) hold identical
    /// content and are skipped; in steady state the differing set is
    /// exactly the pages written since the two banks last matched — so a
    /// fleet fork costs O(pages) pointer writes, not O(bytes), and a
    /// rewind moves just the pages written since the last capture. Under
    /// CoW adopting is a handle clone, with CoW disabled a deep copy of
    /// data + tag words (every page is materialised and none is ever
    /// shared then, so every page moves). Drops side-cache entries
    /// covering adopted pages; returns the pages/bytes transferred.
    ///
    /// # Panics
    ///
    /// Panics if the banks have different bases or sizes.
    pub(crate) fn copy_from(&mut self, src: &Sram) -> XferCost {
        assert!(
            self.same_shape(src),
            "state copy across differently-shaped SRAM banks"
        );
        let mut cost = XferCost::default();
        // Scan to the next differing handle (a tight compare loop: in
        // steady state almost every page is shared), adopt it, repeat.
        let mut p = 0;
        while let Some(skip) = self.pages[p..]
            .iter()
            .zip(&src.pages[p..])
            .position(|(mine, theirs)| !same_handle(mine, theirs))
        {
            p += skip;
            if self.cow {
                self.pages[p].clone_from(&src.pages[p]);
                cost.bytes += PAGE_HANDLE_BYTES;
            } else {
                let mine = self.pages[p].get_or_insert_with(|| Arc::new(Page::ZERO));
                Arc::make_mut(mine).clone_from(page_or_zero(&src.pages[p]));
                cost.bytes += PAGE_COPY_BYTES;
            }
            cost.pages += 1;
            self.caps_clear_range(p * PAGE_GRANULES, (p + 1) * PAGE_GRANULES - 1);
            p += 1;
        }
        cost
    }
}

/// A page slot's content: an untouched slot reads as the zero page.
#[inline]
fn page_or_zero(slot: &Option<Arc<Page>>) -> &Page {
    slot.as_deref().unwrap_or(&ZERO_PAGE)
}

/// Does the write barrier have to allocate or unshare this slot? True for
/// a handle shared with another bank and for an untouched slot.
#[inline]
fn is_shared(slot: &Option<Arc<Page>>) -> bool {
    slot.as_ref().is_none_or(|a| Arc::strong_count(a) > 1)
}

/// Do two page slots hold the same handle? Two untouched slots do.
#[inline]
fn same_handle(a: &Option<Arc<Page>>, b: &Option<Arc<Page>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> Sram {
        Sram::new(0x2000_0000, 0x1000, true)
    }

    /// A second bank of `m`'s shape and mode holding `m`'s content.
    fn fork(m: &Sram) -> Sram {
        let mut f = Sram::new(m.base, m.len as u32, m.cow);
        f.copy_from(m);
        f
    }

    /// Do the two banks hold the very same page handles?
    fn shares_every_page(a: &Sram, b: &Sram) -> bool {
        a.same_shape(b) && a.pages.iter().zip(&b.pages).all(|(x, y)| same_handle(x, y))
    }

    #[test]
    fn scalar_round_trip() {
        let mut m = sram();
        m.write_scalar(0x2000_0010, 4, 0xdead_beef).unwrap();
        assert_eq!(m.read_scalar(0x2000_0010, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_scalar(0x2000_0010, 1).unwrap(), 0xef);
        assert_eq!(m.read_scalar(0x2000_0012, 2).unwrap(), 0xdead);
    }

    #[test]
    fn misaligned_faults() {
        let m = sram();
        assert!(matches!(
            m.read_scalar(0x2000_0001, 4),
            Err(TrapCause::Misaligned { .. })
        ));
        assert!(matches!(
            m.read_cap_word(0x2000_0004),
            Err(TrapCause::Misaligned { .. })
        ));
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let m = sram();
        assert!(matches!(
            m.read_scalar(0x2000_1000, 4),
            Err(TrapCause::BusError { .. })
        ));
        assert!(matches!(
            m.read_scalar(0x1fff_fffc, 4),
            Err(TrapCause::BusError { .. })
        ));
    }

    #[test]
    fn cap_word_round_trip_with_tag() {
        let mut m = sram();
        m.write_cap_word(0x2000_0020, 0x0123_4567_89ab_cdef, true)
            .unwrap();
        assert_eq!(
            m.read_cap_word(0x2000_0020).unwrap(),
            (0x0123_4567_89ab_cdef, true)
        );
    }

    #[test]
    fn scalar_store_clears_tag() {
        let mut m = sram();
        m.write_cap_word(0x2000_0020, 42, true).unwrap();
        m.write_scalar(0x2000_0024, 1, 0xff).unwrap();
        let (_, tag) = m.read_cap_word(0x2000_0020).unwrap();
        assert!(!tag, "partial overwrite must detag the granule");
    }

    #[test]
    fn zero_range_clears_data_and_tags() {
        let mut m = sram();
        m.write_cap_word(0x2000_0040, 7, true).unwrap();
        m.write_cap_word(0x2000_0048, 7, true).unwrap();
        // Zeroing a range straddling both granules detags both, even though
        // only part of each granule's data is cleared.
        m.zero_range(0x2000_0044, 8).unwrap();
        let (w0, t0) = m.read_cap_word(0x2000_0040).unwrap();
        let (w1, t1) = m.read_cap_word(0x2000_0048).unwrap();
        assert_eq!(w0, 7); // low half untouched
        assert_eq!(w1, 0);
        assert!(!t0 && !t1);
        assert_eq!(m.count_tags(0x2000_0040, 16), 0);
    }

    #[test]
    fn zero_length_zero_range_is_noop() {
        let mut m = sram();
        m.zero_range(0x2000_0000, 0).unwrap();
        // Even at the very end of the bank.
        m.zero_range(m.base() + m.size(), 0).unwrap();
    }

    #[test]
    fn bank_ending_at_address_space_top() {
        // Regression: `end()` used to compute base + size in u32, which
        // overflows (panicking in debug builds) for a bank whose exclusive
        // end is 0x1_0000_0000.
        let mut m = Sram::new(0xffff_f000, 0x1000, true);
        assert_eq!(m.end(), 0x1_0000_0000);
        assert!(m.contains(0xffff_fff8, 8));
        assert!(!m.contains(0xffff_fff8, 16));
        m.write_cap_word(0xffff_fff8, 99, true).unwrap();
        assert_eq!(m.read_cap_word(0xffff_fff8).unwrap(), (99, true));
        assert_eq!(m.count_tags(0xffff_f000, 0x1000), 1);
        m.zero_range(0xffff_fff8, 8).unwrap();
        assert_eq!(m.read_cap_word(0xffff_fff8).unwrap(), (0, false));
    }

    #[test]
    fn count_tags_spanning_many_words() {
        let mut m = sram();
        // One tag every 16 granules across the whole 512-granule bank.
        for g in (0..0x1000 / GRANULE).step_by(16) {
            m.write_cap_word(0x2000_0000 + g * GRANULE, 1, true)
                .unwrap();
        }
        assert_eq!(m.count_tags(0x2000_0000, 0x1000), 32);
        assert_eq!(m.count_tags(0x2000_0000, 16 * GRANULE), 1);
        assert_eq!(m.count_tags(0x2000_0008, 16 * GRANULE), 1);
    }

    #[test]
    fn untagged_run_scans_word_boundaries() {
        let mut m = sram();
        assert_eq!(m.untagged_run(0x2000_0000, 512), 512);
        assert_eq!(m.untagged_run(0x2000_0000, 100), 100);
        // Tag granule 70 (second tag word).
        m.write_cap_word(0x2000_0000 + 70 * 8, 1, true).unwrap();
        assert_eq!(m.untagged_run(0x2000_0000, 512), 70);
        assert_eq!(m.untagged_run(0x2000_0000 + 70 * 8, 512), 0);
        assert_eq!(m.untagged_run(0x2000_0000 + 71 * 8, 512), 512 - 71);
        // Unaligned or out-of-bank addresses yield no run.
        assert_eq!(m.untagged_run(0x2000_0004, 512), 0);
        assert_eq!(m.untagged_run(0x3000_0000, 512), 0);
    }

    #[test]
    fn untagged_run_down_scans_word_boundaries() {
        let mut m = Sram::new(0x2000_0000, 0x2000, true); // 1024 granules
        let at = |g: u32| 0x2000_0000 + g * GRANULE;
        // Empty bank: the run reaches the base, or stops at the cap.
        assert_eq!(m.untagged_run_down(at(1023), 2048), 1024);
        assert_eq!(m.untagged_run_down(at(1023), 100), 100);
        assert_eq!(m.untagged_run_down(at(0), 5), 1, "the base granule only");
        // Tags at the last granule of word 1 and the first of word 2.
        m.write_cap_word(at(127), 1, true).unwrap();
        m.write_cap_word(at(128), 1, true).unwrap();
        assert_eq!(m.untagged_run_down(at(128), 1024), 0, "addr itself tagged");
        assert_eq!(
            m.untagged_run_down(at(191), 1024),
            63,
            "stops above granule 128"
        );
        assert_eq!(m.untagged_run_down(at(126), 1024), 127, "runs to the base");
        // Granule 64 is a word's lowest bit; granule 63 the word below.
        m.write_cap_word(at(63), 1, true).unwrap();
        assert_eq!(m.untagged_run_down(at(126), 1024), 63);
        assert_eq!(m.untagged_run_down(at(64), 1024), 1);
        // The base granule tagged: a run from just above it stops there.
        m.write_cap_word(at(0), 1, true).unwrap();
        assert_eq!(m.untagged_run_down(at(62), 1024), 62);
        assert_eq!(m.untagged_run_down(at(0), 1024), 0);
        // Window edge: a tag exactly one granule past the cap is not seen.
        assert_eq!(m.untagged_run_down(at(126), 63), 63);
        assert_eq!(m.untagged_run_down(at(126), 64), 63);
        assert_eq!(m.untagged_run_down(at(126), 62), 62);
        // Unaligned or out-of-bank addresses yield no run.
        assert_eq!(m.untagged_run_down(0x2000_0004, 8), 0);
        assert_eq!(m.untagged_run_down(0x2000_2000, 8), 0);
        assert_eq!(m.untagged_run_down(0x1fff_fff8, 8), 0);
        assert_eq!(m.untagged_run_down(at(10), 0), 0);
    }

    /// How a page of a [`scan_bank`] is built.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum PageKind {
        /// Never written: no handle.
        Untouched,
        /// Written after the capture: a uniquely-owned handle.
        Private,
        /// Written before the capture only: a handle shared with it.
        Shared,
    }

    /// A bank of 1–5 pages (the last one partial half the time), each page
    /// untouched, private or shared, with random tags on the written pages
    /// (page and word edges favoured). Returns the bank, the capture its
    /// shared pages are shared with (keep it alive while scanning), and
    /// the page kinds.
    fn scan_bank(seed: u64) -> (Sram, Sram, Vec<PageKind>) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let cow = rng.gen_bool(0.9);
        let pages = rng.gen_range(1..=5usize);
        let mut granules = pages * PAGE_GRANULES;
        if rng.gen_bool(0.5) {
            granules -= rng.gen_range(1..PAGE_GRANULES);
        }
        let (base, size) = (0x2000_0000u32, (granules * GRANULE as usize) as u32);
        let at = |g: usize| base + (g * GRANULE as usize) as u32;
        let kinds: Vec<PageKind> = (0..pages)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => PageKind::Untouched,
                1 => PageKind::Private,
                _ => PageKind::Shared,
            })
            .collect();
        let mut m = Sram::new(base, size, cow);
        let span = |p: usize| (p * PAGE_GRANULES, ((p + 1) * PAGE_GRANULES).min(granules));
        for (p, _) in kinds
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != PageKind::Untouched)
        {
            let (lo, hi) = span(p);
            // A handle even when no tag lands in the page.
            m.write_scalar(at(rng.gen_range(lo..hi)), 4, 1).unwrap();
            for _ in 0..rng.gen_range(0..6) {
                let g = match rng.gen_range(0..6u8) {
                    0 => lo,
                    1 => hi - 1,
                    2 => (rng.gen_range(lo..hi) & !63).max(lo),
                    3 => (rng.gen_range(lo..hi) | 63).min(hi - 1),
                    _ => rng.gen_range(lo..hi),
                };
                m.write_cap_word(at(g), g as u64, true).unwrap();
            }
        }
        let mut capture = Sram::new(base, size, cow);
        capture.copy_from(&m);
        for (p, _) in kinds
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == PageKind::Private)
        {
            let (lo, hi) = span(p);
            let g = rng.gen_range(lo..hi);
            m.write_cap_word(at(g), 0, rng.gen_bool(0.5)).unwrap();
        }
        if cow {
            for (slot, &k) in m.pages.iter().zip(&kinds) {
                let want = match k {
                    PageKind::Untouched => 0,
                    PageKind::Private => 1,
                    PageKind::Shared => 2,
                };
                assert_eq!(
                    slot.as_ref().map_or(0, Arc::strong_count),
                    want,
                    "{k:?} page"
                );
            }
        }
        (m, capture, kinds)
    }

    /// The per-granule reference for [`Sram::untagged_run`] (`step` 1)
    /// and [`Sram::untagged_run_down`] (`step` -1).
    fn naive_run(m: &Sram, addr: u32, max_granules: u32, step: i64) -> u32 {
        if max_granules == 0 || !addr.is_multiple_of(GRANULE) || !m.contains(addr, GRANULE) {
            return 0;
        }
        let mut a = i64::from(addr);
        let mut n = 0;
        while n < max_granules
            && (i64::from(m.base())..m.end() as i64).contains(&a)
            && !m.tag_at(a as u32)
        {
            n += 1;
            a += step * i64::from(GRANULE);
        }
        n
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The page-skipping scans agree with a per-granule `tag_at` walk
        /// over banks of untouched, private and shared pages, from
        /// windows that start mid-word, mid-page and at both bank edges,
        /// with caps of 0, 1, mid-size and past the whole bank.
        #[test]
        fn untagged_runs_match_a_per_granule_walk(seed in proptest::prelude::any::<u64>()) {
            let (m, _capture, kinds) = scan_bank(seed);
            let total = m.granules();
            let mut starts = vec![0, 1, 31, 63, 64, 65, total / 2, total - 2, total - 1];
            for p in 0..kinds.len() {
                let g = p * PAGE_GRANULES;
                starts.extend([g.saturating_sub(1), g, g + 1, g + 200, g + 255, g + 511]);
            }
            starts.retain(|&g| g < total);
            let mut addrs: Vec<u32> =
                starts.iter().map(|&g| m.base() + (g * GRANULE as usize) as u32).collect();
            addrs.extend([m.base() - GRANULE, m.base() + 4, m.end() as u32, m.end() as u32 - 4]);
            let t = total as u32;
            let caps = [0, 1, 2, 63, 64, 65, 300, 512, 513, t - 1, t, t + 1, 2 * t + 7, u32::MAX];
            for &a in &addrs {
                for &n in &caps {
                    proptest::prop_assert_eq!(
                        m.untagged_run(a, n), naive_run(&m, a, n, 1), "up from {:#x}, cap {}", a, n
                    );
                    proptest::prop_assert_eq!(
                        m.untagged_run_down(a, n), naive_run(&m, a, n, -1),
                        "down from {:#x}, cap {}", a, n
                    );
                }
            }
        }
    }

    #[test]
    fn side_cache_returns_written_capability() {
        use cheriot_cap::Capability;
        let mut m = sram();
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0100)
            .set_bounds(64)
            .unwrap();
        m.write_cap(0x2000_0010, c).unwrap();
        let back = m.read_cap(0x2000_0010).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.bounds(), c.bounds());
        // The raw word view agrees with the cached view.
        assert_eq!(m.read_cap_word(0x2000_0010).unwrap(), (c.to_word(), true));
    }

    #[test]
    fn restore_moves_exactly_the_pages_each_store_path_wrote() {
        // Every store path must unshare the pages it writes, or the
        // handle-identity restore would silently keep the new bytes.
        // Restoring after each kind of store must move exactly the pages
        // it covered and reproduce the snapshot content.
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0100)
            .set_bounds(64)
            .unwrap();
        type Store = Box<dyn Fn(&mut Sram)>;
        let stores: Vec<Store> = vec![
            Box::new(|s| s.write_scalar(0x2000_0abc, 4, 0xdead_beef).unwrap()),
            Box::new(|s| s.write_scalar(0x2000_1fff, 1, 0x55).unwrap()),
            Box::new(|s| s.write_cap_word(0x2000_2ff8, 0x0123, true).unwrap()),
            Box::new(move |s| s.write_cap(0x2000_3008, c).unwrap()),
            Box::new(|s| s.zero_range(0x2000_0ff0, 0x20).unwrap()),
            Box::new(|s| {
                s.write_bytes(0x2000_0ffc, &[1, 2, 3, 4, 5, 6, 7, 8])
                    .unwrap()
            }),
        ];
        // Pages each store covers: the last two straddle a page boundary.
        let pages = [1, 1, 1, 1, 2, 2];
        for (store, &pages) in stores.iter().zip(&pages) {
            let mut m = Sram::new(0x2000_0000, 0x4000, true);
            // Pre-populate so zeroing/overwrites actually change content.
            for a in (0x2000_0000u32..0x2000_4000).step_by(64) {
                m.write_cap_word(a, u64::from(a), true).unwrap();
            }
            let mut snap = Sram::new(0x2000_0000, 0x4000, true);
            snap.copy_from(&m);
            store(&mut m);
            assert_eq!(m.copy_from(&snap).pages, pages);
            assert!(m.content_eq(&snap), "restore missed a written page");
        }
    }

    #[test]
    fn page_wise_restore_copies_only_written_pages() {
        let mut m = Sram::new(0x2000_0000, 0x8000, true); // 8 pages
        m.write_cap_word(0x2000_4000, 7, true).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x8000, true);
        snap.copy_from(&m);
        assert!(
            shares_every_page(&m, &snap),
            "capture hands over every handle"
        );
        m.write_scalar(0x2000_0000, 4, 1).unwrap();
        m.write_scalar(0x2000_7ffc, 4, 2).unwrap();
        assert_eq!(m.copy_from(&snap).pages, 2);
        assert!(m.content_eq(&snap));
        assert!(m.tag_at(0x2000_4000));
        // A foreign bank shares no written page with the snapshot: the
        // pages either bank has written move, untouched ones on both
        // sides match without a handle.
        let mut other = Sram::new(0x2000_0000, 0x8000, true);
        other.write_scalar(0x2000_1000, 4, 3).unwrap();
        assert_eq!(other.copy_from(&snap).pages, 2);
        assert!(other.content_eq(&snap));
        // A fork of the snapshot shares every handle: nothing moves.
        assert_eq!(other.copy_from(&fork(&snap)).pages, 0);
    }

    #[test]
    fn side_cache_coherent_after_page_wise_restore() {
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0040)
            .set_bounds(32)
            .unwrap();
        let mut m = Sram::new(0x2000_0000, 0x2000, true);
        m.write_cap(0x2000_0040, c).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x2000, true);
        snap.copy_from(&m);
        // Overwrite the capability, then restore: the read-back must be
        // the snapshot's capability, not the overwrite or a stale decode.
        m.write_cap_word(0x2000_0040, 0xffff_ffff_ffff_ffff, false)
            .unwrap();
        m.copy_from(&snap);
        let back = m.read_cap(0x2000_0040).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.bounds(), c.bounds());
    }

    /// Pages whose side-cache slots are allocated.
    fn live_cap_pages(m: &Sram) -> usize {
        m.caps.iter().filter(|slots| slots.is_some()).count()
    }

    fn cap_at(addr: u32) -> Capability {
        Capability::root_mem_rw()
            .with_address(addr)
            .set_bounds(64)
            .unwrap()
    }

    #[test]
    fn bank_without_capability_traffic_keeps_an_empty_side_cache() {
        let mut m = Sram::new(0x2000_0000, 0x4000, true);
        m.write_scalar(0x2000_0010, 4, 7).unwrap();
        m.write_cap_word(0x2000_1000, 0x1234, false).unwrap();
        m.zero_range(0x2000_0ff0, 0x20).unwrap();
        m.write_bytes(0x2000_2ffc, &[1; 8]).unwrap();
        assert!(!m.read_cap(0x2000_1000).unwrap().tag());
        let mut snap = Sram::new(0x2000_0000, 0x4000, true);
        snap.copy_from(&m);
        m.copy_from(&snap);
        assert!(m.caps.is_empty(), "no capability traffic, no page table");
    }

    #[test]
    fn one_capability_store_allocates_one_pages_slots() {
        let mut m = Sram::new(0x2000_0000, 0x4000, true);
        m.write_cap(0x2000_2040, cap_at(0x2000_0100)).unwrap();
        assert_eq!(m.caps.len(), 4, "the page table covers every page");
        assert_eq!(live_cap_pages(&m), 1);
        assert_eq!(m.caps[2].as_ref().map(|s| s.len()), Some(PAGE_GRANULES));
        // A second capability in the same page allocates nothing more.
        m.write_cap(0x2000_2ff8, cap_at(0x2000_0200)).unwrap();
        assert_eq!(live_cap_pages(&m), 1);
    }

    #[test]
    fn straddling_range_writes_drop_slots_in_both_pages() {
        type Clear = fn(&mut Sram);
        let clears: [Clear; 2] = [
            |s| s.zero_range(0x2000_0ffc, 8).unwrap(),
            |s| s.write_bytes(0x2000_0ffc, &[0xaa; 8]).unwrap(),
        ];
        for clear in clears {
            let mut m = Sram::new(0x2000_0000, 0x2000, true);
            let (lo, hi) = (cap_at(0x2000_0100), cap_at(0x2000_0200));
            m.write_cap(0x2000_0ff8, lo).unwrap();
            m.write_cap(0x2000_1000, hi).unwrap();
            assert_eq!(live_cap_pages(&m), 2);
            clear(&mut m);
            let (g0, g1) = (0xff8 / GRANULE as usize, 0x1000 / GRANULE as usize);
            assert_eq!((m.caps_get(g0), m.caps_get(g1)), (None, None));
            // The next read decodes the raw word, untagged.
            for a in [0x2000_0ff8, 0x2000_1000] {
                let (word, tag) = m.read_cap_word(a).unwrap();
                assert!(!tag);
                assert_eq!(m.read_cap(a).unwrap(), Capability::from_word(word, false));
            }
        }
    }

    #[test]
    fn restore_after_capability_writes_returns_the_snapshots_capability() {
        let (old, new) = (cap_at(0x2000_0100), cap_at(0x2000_0300));
        let mut m = Sram::new(0x2000_0000, 0x2000, true);
        m.write_cap(0x2000_1040, old).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x2000, true);
        snap.copy_from(&m);
        // The overwrite fills the slot with `new`; the restore must drop
        // it rather than serve it for the snapshot's word.
        m.write_cap(0x2000_1040, new).unwrap();
        assert_eq!(m.read_cap(0x2000_1040).unwrap(), new);
        m.copy_from(&snap);
        let back = m.read_cap(0x2000_1040).unwrap();
        assert_eq!(back, old);
        assert_eq!(back.bounds(), old.bounds());
    }

    #[test]
    fn page_content_exposes_bytes_and_tag_words() {
        let mut m = Sram::new(0x2000_0000, 0x2000, true);
        m.write_cap_word(0x2000_1000 + 65 * 8, 0x0102_0304_0506_0708, true)
            .unwrap();
        let (bytes, tags) = m.page_content(1).expect("a written page has a handle");
        assert_eq!(bytes[65 * 8], 0x08);
        assert_eq!(tags[1], 1 << 1, "granule 65 of the page: word 1, bit 1");
        assert!(m.page_content(0).is_none(), "an untouched page has none");
        // A page written back to zeros keeps its handle.
        m.write_scalar(0x2000_0000, 4, 0).unwrap();
        let (bytes, tags) = m.page_content(0).unwrap();
        assert!(bytes.iter().all(|&b| b == 0) && tags.iter().all(|&w| w == 0));
    }

    #[test]
    fn side_cache_invalidated_by_scalar_and_raw_writes() {
        use cheriot_cap::Capability;
        let mut m = sram();
        let c = Capability::root_mem_rw()
            .with_address(0x2000_0200)
            .set_bounds(32)
            .unwrap();
        m.write_cap(0x2000_0040, c).unwrap();
        // Scalar overwrite: tag drops, and the read-back reflects the new
        // bytes, not the stale cached decode.
        m.write_scalar(0x2000_0040, 4, 0x1234_5678).unwrap();
        let back = m.read_cap(0x2000_0040).unwrap();
        assert!(!back.tag());
        assert_eq!(back.to_word() as u32, 0x1234_5678);
        // Raw word write with tag repopulates lazily on the next read.
        m.write_cap_word(0x2000_0040, c.to_word(), true).unwrap();
        let again = m.read_cap(0x2000_0040).unwrap();
        assert_eq!(again, c);
        assert_eq!(again.bounds(), c.bounds());
    }

    // --- CoW page-store behaviour -----------------------------------------

    #[test]
    fn fresh_bank_holds_no_page_until_written() {
        let mut m = Sram::new(0x2000_0000, 0x4000, true); // 4 pages
        assert!(m.pages.iter().all(Option::is_none), "no page allocated");
        assert_eq!(
            m.shared_pages(),
            m.num_pages(),
            "untouched counts as shared"
        );
        m.write_scalar(0x2000_1004, 4, 7).unwrap();
        assert_eq!(m.shared_pages(), 3, "first write allocated its page");
        assert!(m.pages[1].is_some());
        assert_eq!(m.cow_stats().breaks, 1);
        assert_eq!(m.cow_stats().bytes_copied, PAGE_COPY_BYTES);
        // Writing the same page again is barrier-cheap: no further break.
        m.write_scalar(0x2000_1008, 4, 8).unwrap();
        assert_eq!(m.cow_stats().breaks, 1);
        assert_eq!(m.cow_stats().bytes_copied, PAGE_COPY_BYTES);
    }

    #[test]
    fn first_write_by_every_store_path_is_one_break() {
        let stores: [fn(&mut Sram); 5] = [
            |s| s.write_scalar(0x2000_0abc, 1, 0).unwrap(),
            |s| s.write_cap_word(0x2000_0ab8, 0, false).unwrap(),
            |s| s.write_cap(0x2000_0ab8, cap_at(0x2000_0100)).unwrap(),
            |s| s.zero_range(0x2000_0a00, 0x40).unwrap(),
            |s| s.write_bytes(0x2000_0a00, &[0; 16]).unwrap(),
        ];
        for store in stores {
            let mut m = Sram::new(0x2000_0000, 0x2000, true);
            store(&mut m);
            let stats = m.cow_stats();
            assert_eq!((stats.breaks, stats.bytes_copied), (1, PAGE_COPY_BYTES));
            assert_eq!(m.shared_pages(), 1, "only the written page has a handle");
        }
    }

    #[test]
    fn reading_an_untouched_page_allocates_nothing() {
        let mut m = Sram::new(0x2000_0000, 0x2000, true);
        assert_eq!(m.read_scalar(0x2000_1ffc, 4).unwrap(), 0);
        assert_eq!(m.read_cap_word(0x2000_1ff8).unwrap(), (0, false));
        assert!(!m.read_cap(0x2000_1ff8).unwrap().tag());
        let mut buf = [0xffu8; 16];
        m.read_bytes(0x2000_0ff8, &mut buf).unwrap();
        assert_eq!(buf, [0; 16]);
        assert_eq!(m.count_tags(0x2000_0000, 0x2000), 0);
        assert_eq!(m.untagged_run(0x2000_0000, 1024), 1024);
        assert!(m.pages.iter().all(Option::is_none));
        assert_eq!(m.cow_stats(), CowStats::default());
    }

    #[test]
    fn no_cow_bank_materialises_every_page_and_captures_all() {
        let mut m = Sram::new(0x2000_0000, 0x4000, false);
        assert!(
            m.pages.iter().all(Option::is_some),
            "every page materialised"
        );
        assert_eq!(m.shared_pages(), 0);
        let mut snap = Sram::new(0x2000_0000, 0x4000, false);
        snap.copy_from(&m);
        assert!(snap.pages.iter().all(Option::is_some));
        assert_eq!(snap.shared_pages(), 0);
        assert!(fork(&m).pages.iter().all(Option::is_some));
        // Restoring from an untouched CoW bank copies zeros into every
        // page rather than dropping handles.
        let zero = Sram::new(0x2000_0000, 0x4000, true);
        m.write_scalar(0x2000_0000, 4, 1).unwrap();
        let cost = m.copy_from(&zero);
        assert_eq!((cost.pages, cost.bytes), (4, 4 * PAGE_COPY_BYTES));
        assert!(m.content_eq(&zero));
        assert_eq!(m.shared_pages(), 0);
    }

    #[test]
    fn capture_shares_pages_and_write_breaks_them() {
        let mut m = Sram::new(0x2000_0000, 0x4000, true);
        m.write_cap_word(0x2000_2000, 99, true).unwrap();
        let mut snap = Sram::new(0x2000_0000, 0x4000, true);
        snap.copy_from(&m);
        // Machine and snapshot now share every page.
        assert!(shares_every_page(&m, &snap));
        assert_eq!(m.shared_pages(), 4);
        let breaks_before = m.cow_stats().breaks;
        m.write_scalar(0x2000_2004, 4, 1).unwrap();
        assert_eq!(m.cow_stats().breaks, breaks_before + 1);
        // The snapshot still sees the captured content.
        assert_eq!(snap.read_cap_word(0x2000_2000).unwrap(), (99, true));
        assert_eq!(snap.read_scalar(0x2000_2004, 4).unwrap(), 0);
    }

    #[test]
    fn forked_siblings_are_isolated() {
        let mut image = Sram::new(0x2000_0000, 0x4000, true);
        for a in (0x2000_0000u32..0x2000_4000).step_by(256) {
            image.write_cap_word(a, u64::from(a), true).unwrap();
        }
        let mut snap = Sram::new(0x2000_0000, 0x4000, true);
        snap.copy_from(&image);
        let mut a = Sram::new(0x2000_0000, 0x4000, true);
        let mut b = Sram::new(0x2000_0000, 0x4000, true);
        assert_eq!(a.copy_from(&snap).bytes, 4 * PAGE_HANDLE_BYTES);
        b.copy_from(&snap);
        assert!(a.content_eq(&b));
        // A's writes must not leak into B or the snapshot.
        a.write_scalar(0x2000_0100, 4, 0xdead_beef).unwrap();
        a.zero_range(0x2000_1000, 64).unwrap();
        assert!(b.content_eq(&snap));
        assert_eq!(b.read_scalar(0x2000_0100, 4).unwrap(), 0x2000_0100);
        assert!(b.tag_at(0x2000_1000));
        assert_eq!(a.read_scalar(0x2000_0100, 4).unwrap(), 0xdead_beef);
    }

    #[test]
    fn no_cow_mode_keeps_pages_unique_and_copies_bytes() {
        let mut m = Sram::new(0x2000_0000, 0x4000, false);
        assert_eq!(m.shared_pages(), 0, "a no-CoW bank materialises pages");
        m.write_cap_word(0x2000_0000, 5, true).unwrap();
        assert_eq!(m.cow_stats().breaks, 0, "unique pages never break");
        let mut snap = Sram::new(0x2000_0000, 0x4000, false);
        snap.copy_from(&m);
        assert!(snap.content_eq(&m));
        assert_eq!(m.shared_pages(), 0, "no-cow capture deep-copies");
        m.write_scalar(0x2000_0008, 4, 1).unwrap();
        let cost = m.copy_from(&snap);
        assert_eq!(cost.pages, 4, "no handle is shared, so every page moves");
        assert_eq!(cost.bytes, 4 * PAGE_COPY_BYTES, "tag bytes are accounted");
        assert!(m.content_eq(&snap));
    }

    #[test]
    fn cow_and_no_cow_banks_stay_content_identical() {
        let ops: &[fn(&mut Sram)] = &[
            |s| s.write_scalar(0x2000_0abc, 4, 0xdead_beef).unwrap(),
            |s| s.write_cap_word(0x2000_1ff8, 0x0123, true).unwrap(),
            |s| s.zero_range(0x2000_0ff0, 0x20).unwrap(),
            |s| s.write_bytes(0x2000_2ffa, &[9; 12]).unwrap(),
        ];
        let mut a = Sram::new(0x2000_0000, 0x4000, true);
        let mut b = Sram::new(0x2000_0000, 0x4000, false);
        let (mut sa, mut sb) = (
            Sram::new(0x2000_0000, 0x4000, true),
            Sram::new(0x2000_0000, 0x4000, false),
        );
        sa.copy_from(&a);
        sb.copy_from(&b);
        for op in ops {
            op(&mut a);
            op(&mut b);
            assert!(a.content_eq(&b));
        }
        a.copy_from(&sa);
        b.copy_from(&sb);
        assert!(a.content_eq(&b), "restores agree across modes");
    }

    #[test]
    fn unique_resident_bytes_tracks_breaks() {
        let mut m = Sram::new(0x2000_0000, 0x4000, true);
        let mut snap = Sram::new(0x2000_0000, 0x4000, true);
        snap.copy_from(&m);
        assert_eq!(m.unique_resident_bytes(), 0, "fully shared after capture");
        m.write_scalar(0x2000_0000, 4, 1).unwrap();
        assert_eq!(m.unique_resident_bytes(), PAGE_COPY_BYTES);
    }

    #[test]
    fn clone_shares_under_cow_and_isolates_writes() {
        let mut m = Sram::new(0x2000_0000, 0x2000, true);
        m.write_cap_word(0x2000_0000, 7, true).unwrap();
        let clone = fork(&m);
        assert!(m.content_eq(&clone));
        m.write_scalar(0x2000_0004, 4, 0xff).unwrap();
        assert_eq!(clone.read_scalar(0x2000_0004, 4).unwrap(), 0);
        assert!(clone.tag_at(0x2000_0000));
    }
}
