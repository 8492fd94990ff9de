//! Predecoded basic-block cache: decode-once execution for the run loop.
//!
//! The interpreter's per-instruction cost is dominated not by executing the
//! instruction but by re-deriving everything around it: the PCC fetch
//! check, the code-region range/alignment checks, the bounds-checked code
//! lookup, and the cost-model matches (`instr_cycles`, `mem_beats`,
//! `sources`) — all recomputed for the same loop body millions of times.
//! This module caches that work per *basic block*: on first execution of a
//! PC the machine decodes forward until a control-flow/trap-boundary
//! instruction ([`crate::insn::Instr::is_block_boundary`]) and stores the
//! run of [`PredecodedInsn`]s; subsequent visits dispatch straight down the
//! block.
//!
//! The cache has two layers (DESIGN.md §12):
//!
//! * **One block store per code image** ([`Code`]). A block is a pure
//!   function of the code contents, its start slot and the build config
//!   (the core's cost model, the load filter, superblock chasing), and two
//!   machines holding `Arc::ptr_eq` code handles hold the same code under
//!   the same config: a machine's config is fixed at construction, and a
//!   handle only passes between machines of one config (capture, restore
//!   and fork refuse to cross configs). So the handle carries a
//!   lock-protected, slot-indexed store: the first machine to miss a slot
//!   builds the block under the lock and publishes it, and every sibling
//!   fork adopts the same `Arc<Block>` ([`BlockCacheStats::shared`]).
//!   Every miss and every promotion goes through the store. Promoted
//!   superblocks are memoised there too, by the identity of their head and
//!   tail. The store is immutable history: editing the code through a
//!   shared handle unshares it (`Arc::make_mut`) and the copy starts with
//!   an empty store; editing through a unique handle empties the store.
//! * **Per-machine dispatch state** ([`BlockCache`]): which blocks this
//!   machine holds, its successor links, follow counts, generation and
//!   promotions. It is sized by the blocks the machine holds, not by the
//!   code: a per-word index into dense entries, one per resident block.
//!
//! Two dispatch accelerators layer on top (DESIGN.md §13), both
//! invalidated wholesale by the generation counter:
//!
//! * **Superblocks**: decode chases unconditional forward jumps
//!   (`jal x0, +off`) instead of ending the block, so straight-line-plus-
//!   glue code predecodes as one block covering several [`Block::ranges`].
//!   At runtime a block that keeps taking the same edge out of its final
//!   `j` or conditional branch is *promoted* ([`BlockBuilder::promote`]):
//!   its entry gets the block followed by its successor, the branch kept
//!   inline as a guard that side-exits when it resolves the other way.
//! * **Successor links**: each entry carries up to two weak links
//!   `(generation, next_pc, PCC fingerprint) → successor entry` recorded by
//!   the chained dispatch loop; a matching link lets the loop jump block to
//!   block without re-running the PCC fetch check or touching the index.
//!   A block ending in `cjalr` runs the jump through the general `exec`
//!   path and chains through the same links.
//!
//! Each block also carries a *fast stream* ([`Block::fast`]): its longest
//! prefix of instructions from the inline-handled set (`inline_handled!`:
//! the pure-register instructions, loads, stores, `clc` and `csc`) and
//! interior guards, which the chained loop's unchecked inner loop runs.
//! That set is named once, and the inline arms, the general `exec` path
//! and block decode all use the one name, so decode cannot put an
//! instruction in the stream that the arms do not handle.
//!
//! Coherence is exact and conservative:
//!
//! * Any overwrite of loaded code ([`crate::machine::Machine::patch_code`]
//!   — self-modifying code, a device's DMA into code and `cheriot-fault`
//!   code-region injections) invalidates every cached block covering the
//!   patched address. The block the dispatch loop holds while a device
//!   stores into code is out of its entry and escapes that sweep, so the
//!   loop ends its pass after the storing instruction and drops the block
//!   (`BlockCache::discard`) instead of putting it back.
//! * Appending code ([`crate::machine::Machine::try_load_program`]) drops
//!   blocks that ended exactly at the old end of code, so a block truncated
//!   by running out of instructions re-extends over the new code.
//! * Every invalidation bumps a generation counter
//!   ([`BlockCacheStats::generation`]) that external layers (fault
//!   campaigns, tests) can watch to confirm their mutations took effect.
//!   Links embed the generation they were recorded under and die on any
//!   mismatch, so a single counter bump retires every link in the machine
//!   at once — no per-link invalidation walk. That is also what lets an
//!   invalidated entry be reused for another block: no live link can
//!   still point at it.
//!
//! The cache stores `Arc<Block>` so a [`crate::machine::Machine`] stays
//! `Send` (fault campaigns fan machines out across `thread::scope`) and so
//! the run loop can hold a block while mutating the machine through
//! `&mut self`. Links live in the per-machine entries, *never* inside
//! the shared `Arc<Block>`: forked machines execute the same
//! `Arc<Block>`s concurrently across threads, so mutable dispatch
//! state inside a block would be a data race (and would leak one fork's
//! control-flow history into another).

use crate::insn::{inline_handled, Instr, Reg};
use crate::machine::{layout, MachineConfig};
use crate::pipeline::CoreModel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Maximum instructions per cached block (superblocks included).
pub const MAX_BLOCK_LEN: usize = 64;

/// Maximum distance, in code words, of any instruction a block may cover
/// from the block's start slot, in either direction. Linear decode is
/// already bounded by [`MAX_BLOCK_LEN`]; superblock chasing can skip
/// forward and runtime promotion can append code on either side (a loop
/// tail's backward `j`), and this bounds how far.
pub const MAX_COVER_SPAN: usize = 256;

/// Successor-link follows after which a one-way edge is promoted: a block
/// that has left through the same link `HOT` times, with no second live
/// link, gets its successor appended ([`BlockBuilder::promote`]).
pub const HOT: u32 = 16;

/// One instruction with everything the dispatch loop needs precomputed.
#[derive(Clone, Copy, Debug)]
pub struct PredecodedInsn {
    /// Address of this instruction. Consecutive within a segment;
    /// discontinuous across a chased jump (superblocks).
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Base cycle cost from the core model, with the load-filter CLC
    /// penalty already folded in (both are fixed at machine construction;
    /// `PredecodedInsn::new`).
    /// For a chased unconditional jump (or a `j` made interior by
    /// promotion), the jump penalty is folded in too (its cost is
    /// unconditional by definition). An interior conditional branch (a
    /// guard) keeps its bare cost: its taken penalty is dynamic.
    pub base_cycles: u64,
    /// Memory-unit beats (cycles unavailable to the background revoker).
    pub mem_beats: u64,
    /// Source registers, for the load-to-use hazard check.
    pub srcs: [Option<Reg>; 2],
    /// Must the dispatch loop consult the pending load-to-use hazard
    /// before this instruction? True only when the previous instruction in
    /// the block is a load (the only setters of the hazard), or for the
    /// first instruction (the hazard can cross a block entry).
    pub check_hazard: bool,
}

impl PredecodedInsn {
    /// Predecodes `instr` at `pc` under `core`'s cost model: the one place
    /// an instruction's cost is computed, for block decode and the
    /// stepwise loop alike. With the load filter, the revocation-bit
    /// lookup lengthens capability loads on cores whose pipeline cannot
    /// hide it (Ibex; free on Flute's 5-stage), so `clc` pays
    /// [`CoreModel::filter_load_to_use`] on top of its base cycles.
    pub(crate) fn new(
        pc: u32,
        instr: Instr,
        core: &CoreModel,
        load_filter: bool,
        check_hazard: bool,
    ) -> PredecodedInsn {
        let filter = match instr {
            Instr::Clc { .. } if load_filter => core.filter_load_to_use,
            _ => 0,
        };
        PredecodedInsn {
            pc,
            instr,
            base_cycles: core.instr_cycles(&instr) + filter,
            mem_beats: core.mem_beats(&instr),
            srcs: instr.sources(),
            check_hazard,
        }
    }
}

/// One element of a block's *fast stream* — the representation the chained
/// dispatch loop's unchecked inner loop executes (DESIGN.md §13). The
/// stream mirrors a statically-fast prefix of [`Block::insns`], except
/// chased unconditional jumps are folded into the instruction that follows
/// them: the jump's retirement and (penalty-folded) cycles ride along on
/// this element instead of paying their own dispatch. The fold is
/// unobservable precisely where the stream is used: the unchecked loop
/// only runs once the block's [`Block::worst_cycles`] bound has proven no
/// budget or interrupt boundary can fire inside the block, and tracers
/// (which want per-instruction events) disable it. On a dynamic bail-out
/// nothing of the element has executed and the checked loop resumes at
/// [`FastOp::resume`]. Interior conditional branches (guards of promoted
/// blocks) are elements too: the stream continues when one resolves to
/// the next instruction and side-exits the block otherwise.
#[derive(Clone, Copy, Debug)]
pub struct FastOp {
    /// The instruction to execute (never a chased jump).
    pub d: PredecodedInsn,
    /// Combined base cycles: the instruction's own plus any folded jumps'.
    pub cycles: u64,
    /// Instructions this element retires (1 + folded jumps).
    pub retires: u32,
    /// [`Block::insns`] index to resume checked execution at when this
    /// element bails out (the first folded jump, or the instruction
    /// itself) — everything before it has fully executed.
    pub resume: u32,
    /// Load-to-use hazard gate of the element's *first* covered
    /// instruction (a folded jump consumes a pending hazard without
    /// charging it, exactly like the checked loop would).
    pub check_hazard: bool,
    /// Source registers of the first covered instruction.
    pub srcs: [Option<Reg>; 2],
}

/// A predecoded (super)block: instructions in execution order, ending at a
/// control-flow/trap boundary, the end of loaded code, [`MAX_BLOCK_LEN`]
/// or [`MAX_COVER_SPAN`]. Unconditional forward jumps may be interior
/// (chased during decode), and a promoted block also carries interior
/// backward jumps and conditional branches (guards), so the covered
/// addresses form one or more disjoint [`Block::ranges`], in execution
/// order; no address is covered twice.
#[derive(Debug)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// Address one past the last instruction (exclusive) — the end of the
    /// final segment of [`Block::ranges`].
    pub end: u32,
    /// The instructions, in execution order. Never empty.
    pub insns: Box<[PredecodedInsn]>,
    /// Covered address segments `[start, end)`, in execution order. A
    /// straight block has exactly one. The PCC fetch verification must
    /// cover every segment.
    pub ranges: Box<[(u32, u32)]>,
    /// Upper bound on the cycles one full pass over the block can accrue
    /// on non-trapping paths: every instruction's `base_cycles`, the
    /// worst-case load-to-use stall wherever the hazard is checked, each
    /// guard's taken penalty, and the worst control-flow penalty of the
    /// final instruction. The
    /// chained dispatch loop uses it to prove, at block entry, that no
    /// cycle-budget or timer-interrupt boundary can fire *inside* the
    /// block — and then runs the block's inline arms without the
    /// per-instruction checks (DESIGN.md §13).
    pub worst_cycles: u64,
    /// The fast stream: the longest statically-fast prefix of `insns`
    /// re-expressed as [`FastOp`]s (chased jumps folded into their
    /// successors). Empty when the block opens with an instruction the
    /// inline arms cannot handle.
    pub fast: Box<[FastOp]>,
    /// `insns` index of the first instruction *not* covered by `fast` —
    /// where checked execution resumes after the whole stream ran.
    pub fast_end: u32,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Blocks are never empty; this exists for clippy's `len`/`is_empty`
    /// pairing convention.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Does any covered segment contain `addr`?
    #[inline]
    pub fn covers(&self, addr: u32) -> bool {
        self.ranges.iter().any(|&(s, e)| s <= addr && addr < e)
    }
}

/// Hit/miss/invalidation counters plus the coherence generation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block dispatches served from the cache by the outer lookup path.
    pub hits: u64,
    /// Blocks this machine built (first execution of a start PC that
    /// neither its own table nor its code image's shared store held).
    pub misses: u64,
    /// Blocks adopted from the code image's shared store, built by a
    /// machine holding the same code handle (a sibling fork, or this
    /// machine before a restore). `misses + shared` counts every first
    /// execution of a start PC, whoever built the block.
    pub shared: u64,
    /// Cached blocks discarded by invalidation.
    pub invalidated: u64,
    /// Bumped on every invalidation event (patch, append, flush), even
    /// when no cached block was affected: observers compare generations to
    /// confirm a code mutation was seen by the cache. Successor links
    /// record the generation they were made under and are dead the moment
    /// it moves.
    pub generation: u64,
    /// Block-to-block transitions taken through a successor link (no
    /// dispatcher return, no PCC fetch re-check).
    pub chain_hits: u64,
    /// Successor links recorded.
    pub chain_links: u64,
    /// Retired with the sentry inline cache: always zero. Kept only
    /// because `cheriot-benchmark` still reads it (`dispatch_layers`,
    /// `block_delta`, `block_add`); ROADMAP item 1's "Retire the sentry
    /// counters" deletes it.
    pub sentry_ic_hits: u64,
    /// Retired with the sentry inline cache: always zero, kept for the
    /// same readers as [`BlockCacheStats::sentry_ic_hits`].
    pub sentry_ic_misses: u64,
    /// Blocks replaced by a promoted superblock (hot one-way edge
    /// appended). Not counted as builds: [`BlockCacheStats::misses`] only
    /// moves on first execution of a start PC.
    pub promotions: u64,
    /// Guards of promoted blocks that resolved away from the promoted
    /// path and left the block early.
    pub side_exits: u64,
}

/// One weak successor link: valid only while its entry's recorded
/// generation is current *and* the departing PCC fingerprint matches, in
/// which case the target block is known to sit at entry `target` already
/// verified for fetch under these PCC bounds. Packed into 20 bytes, so an
/// entry with two of them takes 56.
#[derive(Clone, Copy, Debug)]
struct BlockLink {
    /// The successor's start address this link was recorded for.
    next_pc: u32,
    /// Base of the PCC fetch fingerprint
    /// ([`cheriot_cap::Capability::fetch_fingerprint`]) the successor was
    /// verified under.
    fp_base: u32,
    /// Low word of the fingerprint's top.
    fp_top_lo: u32,
    /// Entry of the successor block.
    target: u32,
    /// The fingerprint's top above its low word: 0 or 1, as a top is at
    /// most 2^32. An empty link holds [`BlockLink::EMPTY`], which no top
    /// has, so it never matches.
    fp_top_hi: u8,
    /// Times the link was followed while it was the entry's only live
    /// link, counting up to [`HOT`], which makes the edge a promotion
    /// candidate once.
    follows: u8,
}

impl Default for BlockLink {
    fn default() -> BlockLink {
        BlockLink {
            next_pc: 0,
            fp_base: 0,
            fp_top_lo: 0,
            target: 0,
            fp_top_hi: BlockLink::EMPTY,
            follows: 0,
        }
    }
}

impl BlockLink {
    /// `fp_top_hi` of an empty link.
    const EMPTY: u8 = u8::MAX;

    fn new(next_pc: u32, fp: (u32, u64), target: usize) -> BlockLink {
        BlockLink {
            next_pc,
            fp_base: fp.0,
            fp_top_lo: fp.1 as u32,
            target: target as u32, // an entry handle: below `MAX_ENTRIES`
            // Truncation could only make a link miss: `matches` compares
            // against the whole high part.
            fp_top_hi: (fp.1 >> 32) as u8,
            follows: 0,
        }
    }

    /// Is this link recorded?
    #[inline]
    fn is_live(&self) -> bool {
        self.fp_top_hi != BlockLink::EMPTY
    }

    #[inline]
    fn matches(&self, next_pc: u32, fp: (u32, u64)) -> bool {
        self.next_pc == next_pc
            && self.fp_base == fp.0
            && self.fp_top_lo == fp.1 as u32
            && u64::from(self.fp_top_hi) == fp.1 >> 32
    }
}

/// One resident block of a machine and its successor links.
#[derive(Clone, Debug, Default)]
struct Entry {
    /// The block; `None` while the dispatch loop holds it (or once the
    /// entry is freed by invalidation and awaits reuse).
    block: Option<Arc<Block>>,
    /// Generation + 1 the links were recorded under (0 = none): both die
    /// when the machine's generation moves.
    gen_plus1: u64,
    /// Taken / fall-through links of the block, most recent first.
    links: [BlockLink; 2],
}

/// Most entries a [`BlockCache`] holds: what its `u16` index can
/// address. A block that finds the table full (more than 65535 distinct
/// start addresses resident) is not cached; its PC takes the
/// per-instruction path until invalidation frees an entry.
pub const MAX_ENTRIES: usize = u16::MAX as usize;

/// Entries a [`BlockCache`] reserves on its first insert, so the table
/// is allocated once instead of grown through 4, 8 and 16. Over
/// differential-fuzz seeds 1–1000 a block table held 14.6 entries on
/// average when dropped, and at most 32 in 99.5% of tables.
pub const ENTRIES_RESERVED: usize = 32;

/// A machine's dispatch state over its code: the blocks it holds and
/// their successor links, indexed by start slot (one slot per code word).
///
/// Sized by the blocks the machine holds: the per-word index is one `u16`,
/// and each resident block has one dense entry (its `Arc<Block>`, its two
/// links and their generation). `Clone` copies that sidecar by value —
/// each fork then mutates only its own copy — and bumps one refcount per
/// resident block: the decoded instructions themselves are shared.
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    /// Per code word: 1 + the entry of the block starting there, 0 for
    /// none.
    index: Vec<u16>,
    /// Resident blocks and their links; the dispatch loop addresses them
    /// by position, as an opaque handle.
    entries: Vec<Entry>,
    /// Entries freed by invalidation, reused by the next insert.
    free: Vec<u32>,
    /// Counters; the machine exposes them via
    /// [`crate::machine::Machine::block_stats`].
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// The block starting at code slot `slot`, if cached.
    pub fn lookup(&self, slot: usize) -> Option<Arc<Block>> {
        self.peek(self.entry_of(slot)?)
    }

    /// The entry of the block starting at code slot `slot`, if any.
    #[inline]
    fn entry_of(&self, slot: usize) -> Option<usize> {
        (*self.index.get(slot)? as usize).checked_sub(1)
    }

    /// The block of entry `entry`, shared (a refcount bump).
    pub(crate) fn peek(&self, entry: usize) -> Option<Arc<Block>> {
        self.entries.get(entry)?.block.clone()
    }

    /// Moves the block starting at code slot `slot` out of the table,
    /// with its entry handle.
    #[inline]
    pub(crate) fn take_at(&mut self, slot: usize) -> Option<(usize, Arc<Block>)> {
        let entry = self.entry_of(slot)?;
        Some((entry, self.take(entry)?))
    }

    /// Moves the block of entry `entry` out of the table. The dispatch
    /// loop owns the block while executing it — a move in and out
    /// instead of an atomic refcount round-trip per executed block — and
    /// returns it with [`BlockCache::restore`]. Invalidation in between
    /// (a device's DMA into code, mid-instruction) never frees the held
    /// entry: it only frees entries that still hold their block. The loop
    /// then hands the block to [`BlockCache::discard`] instead.
    #[inline]
    pub(crate) fn take(&mut self, entry: usize) -> Option<Arc<Block>> {
        self.entries.get_mut(entry)?.block.take()
    }

    /// Returns a block taken by [`BlockCache::take`] (or freshly built by
    /// the miss path) to its entry.
    #[inline]
    pub(crate) fn restore(&mut self, entry: usize, block: Arc<Block>) {
        self.entries[entry].block = Some(block);
    }

    /// Frees entry `entry`, whose block the dispatch loop took and holds
    /// as `block`, without putting the block back: code was stored into
    /// while the loop held it, so it may decode stale instructions.
    pub(crate) fn discard(&mut self, entry: usize, block: &Block) {
        self.index[((block.start - layout::CODE_BASE) / 4) as usize] = 0;
        self.free.push(entry as u32);
        self.stats.invalidated += 1;
    }

    /// Is there an entry for one more block ([`MAX_ENTRIES`])?
    #[inline]
    pub(crate) fn has_room(&self) -> bool {
        !self.free.is_empty() || self.entries.len() < MAX_ENTRIES
    }

    /// Stores `block` as the block starting at code slot `slot`, which
    /// holds none, growing the index to cover `code_words` instruction
    /// words. The first insert into an empty table reserves
    /// [`ENTRIES_RESERVED`] entries. Returns its entry.
    ///
    /// # Panics
    ///
    /// Panics when the table is full ([`BlockCache::has_room`]).
    pub fn insert(&mut self, slot: usize, block: Arc<Block>, code_words: usize) -> usize {
        if self.index.len() < code_words {
            self.index.resize(code_words, 0);
        }
        let fresh = Entry {
            block: Some(block),
            ..Entry::default()
        };
        let entry = match self.free.pop() {
            Some(e) => {
                self.entries[e as usize] = fresh;
                e as usize
            }
            None => {
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(ENTRIES_RESERVED);
                }
                self.entries.push(fresh);
                self.entries.len() - 1
            }
        };
        self.index[slot] = u16::try_from(entry + 1).expect("the block table is full");
        entry
    }

    /// Follows a live successor link out of entry `from`: current
    /// generation, same successor address, same PCC fingerprint. Returns
    /// the successor's entry, and whether this follow made the edge hot:
    /// the newest link taken for the [`HOT`]-th time while the second link
    /// holds no live link (the block has left one way only).
    #[inline]
    pub(crate) fn link_follow(
        &mut self,
        from: usize,
        gen: u64,
        next_pc: u32,
        fp: (u32, u64),
    ) -> Option<(usize, bool)> {
        let entry = self.entries.get_mut(from)?;
        if entry.gen_plus1 != gen + 1 {
            return None;
        }
        let [newest, older] = &mut entry.links;
        if newest.matches(next_pc, fp) {
            let mut hot = false;
            if u32::from(newest.follows) < HOT && !older.is_live() {
                newest.follows += 1;
                hot = u32::from(newest.follows) == HOT;
            }
            return Some((newest.target as usize, hot));
        }
        older
            .matches(next_pc, fp)
            .then_some((older.target as usize, false))
    }

    /// Records a successor link out of entry `from` (most-recent-first,
    /// two-way: a conditional branch keeps both its edges linked).
    #[inline]
    pub(crate) fn link_insert(
        &mut self,
        from: usize,
        gen: u64,
        next_pc: u32,
        fp: (u32, u64),
        target: usize,
    ) {
        let Some(entry) = self.entries.get_mut(from) else {
            return;
        };
        if entry.gen_plus1 != gen + 1 {
            // Links of an older generation are dead: start afresh.
            entry.gen_plus1 = gen + 1;
            entry.links = Default::default();
        }
        let sl = &mut entry.links;
        if !sl[0].matches(next_pc, fp) {
            sl[1] = sl[0];
        }
        sl[0] = BlockLink::new(next_pc, fp, target);
        self.stats.chain_links += 1;
    }

    /// Accounts for a promoted block the dispatch loop is installing in
    /// the entry of the block it holds (the loop already verified its
    /// fetch under the current PCC). Bumps the generation: a link *into*
    /// that entry recorded under another PCC fingerprint certified only
    /// the old block's ranges, never the appended ones, so every link must
    /// die. Returns the new generation.
    pub(crate) fn note_promotion(&mut self) -> u64 {
        self.stats.promotions += 1;
        self.stats.generation += 1;
        self.stats.generation
    }

    /// Frees every entry whose block `drop` selects, returning how many.
    /// Entries without a block (the one the dispatch loop holds, and those
    /// already free) are left alone. The caller bumps the generation,
    /// which retires every link, so no link can lead to a freed entry once
    /// it is reused; a dispatch loop that was running when a device stored
    /// into code returns before it follows another link.
    fn free_where(&mut self, drop: impl Fn(&Block) -> bool) -> u64 {
        let mut removed = 0;
        for (e, entry) in self.entries.iter_mut().enumerate() {
            let Some(b) = entry.block.as_deref() else {
                continue;
            };
            if drop(b) {
                self.index[((b.start - layout::CODE_BASE) / 4) as usize] = 0;
                entry.block = None;
                self.free.push(e as u32);
                removed += 1;
            }
        }
        self.stats.invalidated += removed;
        removed
    }

    /// Drops every cached block covering `addr` through any of its ranges
    /// (there can be several: slow-path entry mid-block builds overlapping
    /// suffix blocks; superblocks cover disjoint segments, and a promoted
    /// block can cover code *below* its start). Returns the number
    /// discarded. Always bumps the generation: the *code* changed whether
    /// or not a block cached it — and the bump alone retires every
    /// successor link.
    pub fn invalidate_covering(&mut self, addr: u32) -> u64 {
        self.stats.generation += 1;
        self.free_where(|b| b.covers(addr))
    }

    /// Called after code is appended at `old_end` (the previous exclusive
    /// end of the code region): drops blocks that ended exactly there, so a
    /// block truncated by the end of loaded code is rebuilt over the new
    /// instructions. Only a block's *final* segment can be truncated by
    /// the code end: decode stops there, so a segment that ends at the
    /// code end is the last one decoded, and promotion only appends after
    /// a block's final `j` or branch, which ended it at a boundary rather
    /// than at the code end. Checking `end` therefore suffices for
    /// superblocks of both kinds. Returns the number discarded.
    pub fn on_append(&mut self, old_end: u32) -> u64 {
        self.stats.generation += 1;
        self.free_where(|b| b.end == old_end)
    }

    /// Discards every cached block (full flush), bumping the generation
    /// (which also retires every link).
    pub fn clear(&mut self) {
        self.stats.invalidated += self.resident() as u64;
        self.stats.generation += 1;
        self.index.clear();
        self.entries.clear();
        self.free.clear();
    }

    /// Number of blocks currently cached.
    pub fn resident(&self) -> usize {
        self.entries.iter().filter(|e| e.block.is_some()).count()
    }

    /// Host bytes of this machine's dispatch state, excluding allocator
    /// slack: the per-word index, one entry per resident (or freed)
    /// block, and the free list. This is what a fork copies; the blocks
    /// themselves are shared.
    pub fn sidecar_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u16>()
            + self.entries.len() * std::mem::size_of::<Entry>()
            + self.free.len() * std::mem::size_of::<u32>()
    }
}

/// A loaded code image: the decoded instructions, plus the block store
/// every machine holding this `Arc<Code>` handle shares.
///
/// `Clone` (which `Arc::make_mut` uses to unshare an edited image) copies
/// the instructions and starts an empty store.
#[derive(Debug, Default)]
pub(crate) struct Code {
    instrs: Vec<Instr>,
    store: Mutex<BlockStore>,
}

impl Clone for Code {
    fn clone(&self) -> Code {
        Code {
            instrs: self.instrs.clone(),
            store: Mutex::default(),
        }
    }
}

impl std::ops::Deref for Code {
    type Target = [Instr];

    fn deref(&self) -> &[Instr] {
        &self.instrs
    }
}

impl Code {
    /// The instructions, for an edit through a unique handle. Empties the
    /// store: its blocks decoded the old contents.
    pub(crate) fn edit(&mut self) -> &mut Vec<Instr> {
        *self.store.get_mut().unwrap_or_else(PoisonError::into_inner) = BlockStore::default();
        &mut self.instrs
    }

    /// The image's block store, locked.
    pub(crate) fn store(&self) -> MutexGuard<'_, BlockStore> {
        // Every update leaves the store valid (a block is published with
        // one assignment, after it is built), so a panic elsewhere while
        // the lock was held cannot have left it half-written.
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The blocks of one code image, shared by every machine holding the
/// image's handle (all of one config). Slot-indexed, like the code.
#[derive(Debug, Default)]
pub(crate) struct BlockStore {
    /// Per code word, the block starting there.
    built: Vec<Option<Arc<Block>>>,
    /// Promoted superblocks as `[head, tail, superblock]`. The store holds
    /// the head and tail, so their addresses identify them for as long as
    /// the memo lives.
    promoted: Vec<[Arc<Block>; 3]>,
    /// The buffers every block and promotion of the image is built in,
    /// under the store's lock.
    builder: BlockBuilder,
}

impl BlockStore {
    /// The block starting at code slot `slot` of `code`, and whether this
    /// call built it (under `cfg`): built under the lock, so each block of
    /// the image is built exactly once. `None` when no block of `cfg` may
    /// start there ([`BlockBuilder::build`]).
    pub(crate) fn block(
        &mut self,
        code: &[Instr],
        slot: usize,
        cfg: &MachineConfig,
    ) -> Option<(Arc<Block>, bool)> {
        if self.built.len() < code.len() {
            self.built.resize(code.len(), None);
        }
        if let Some(b) = &self.built[slot] {
            return Some((Arc::clone(b), false));
        }
        let b = Arc::new(self.builder.build(code, slot, cfg)?);
        self.built[slot] = Some(Arc::clone(&b));
        Some((b, true))
    }

    /// The superblock promoting the edge from `head` into `tail`,
    /// memoised by the identity of the two blocks so that every machine
    /// promoting the same edge shares one superblock.
    pub(crate) fn promotion(
        &mut self,
        head: &Arc<Block>,
        tail: &Arc<Block>,
        core: &CoreModel,
    ) -> Option<Arc<Block>> {
        let memo = self
            .promoted
            .iter()
            .find(|[h, t, _]| Arc::ptr_eq(h, head) && Arc::ptr_eq(t, tail));
        if let Some([_, _, sb]) = memo {
            return Some(Arc::clone(sb));
        }
        let sb = Arc::new(self.builder.promote(head, tail, core)?);
        self.promoted
            .push([Arc::clone(head), Arc::clone(tail), Arc::clone(&sb)]);
        Some(sb)
    }
}

/// The buffers a block is built in (DESIGN.md §11). Decode and
/// promotion write a block's instructions and ranges here, fast-stream
/// folding writes its stream here, and each finished array is copied
/// once into an exact-size `Box<[_]>`. A build therefore allocates once
/// per non-empty array and never reallocates, and the buffers keep their
/// capacity for the next build. Each code image's store owns one, so the
/// blocks of an image are built one at a time, under the store's lock.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    insns: Vec<PredecodedInsn>,
    ranges: Vec<(u32, u32)>,
    fast: Vec<FastOp>,
}

impl BlockBuilder {
    /// Empties the buffers, sizing them on first use for the largest
    /// block: a block holds at most [`MAX_BLOCK_LEN`] instructions, and
    /// at most one range and one fast-stream element per instruction.
    fn reset(&mut self) {
        self.insns.clear();
        self.ranges.clear();
        self.fast.clear();
        self.insns.reserve(MAX_BLOCK_LEN);
        self.ranges.reserve(MAX_BLOCK_LEN);
        self.fast.reserve(MAX_BLOCK_LEN);
    }

    /// Decodes the block starting at code slot `start_idx` under `cfg`:
    /// forward until a control-flow/trap boundary, the end of `code`,
    /// [`MAX_BLOCK_LEN`] or [`MAX_COVER_SPAN`]. With `cfg.block_chain`,
    /// unconditional forward jumps (`jal x0`) to aligned in-range targets
    /// are interior: decode continues at the target (superblocks).
    ///
    /// Without CHERI (`cfg.cheri_enabled` false) decode also stops before
    /// a CHERI instruction ([`Instr::is_cheri`]) and chases no jump onto
    /// one, so the general `exec` path, which traps on it, runs it.
    /// `None` when the block would be empty: `start_idx` holds such an
    /// instruction or lies beyond `code`.
    pub fn build(
        &mut self,
        code: &[Instr],
        start_idx: usize,
        cfg: &MachineConfig,
    ) -> Option<Block> {
        self.reset();
        let core = &cfg.core;
        let admits = |instr: &Instr| cfg.cheri_enabled || !instr.is_cheri();
        let start = layout::CODE_BASE + 4 * start_idx as u32;
        let mut seg_start = start;
        let mut idx = start_idx;
        let mut prev_is_load = true; // a hazard can cross the block entry
        while let Some(&instr) = code.get(idx).filter(|i| admits(i)) {
            let pc = layout::CODE_BASE + 4 * idx as u32;
            let mut d = PredecodedInsn::new(pc, instr, core, cfg.load_filter, prev_is_load);
            if cfg.block_chain {
                if let Instr::Jal { rd, offset } = instr {
                    let target = pc.wrapping_add(offset as u32);
                    // Forward only (backward jumps are loop edges — the
                    // successor links and runtime promotion handle those
                    // without unrolling), and always leaving room for at
                    // least one instruction at the target, so a chased jump
                    // is never the last instruction (its jump penalty is
                    // folded into `base_cycles`; the dispatch loop must
                    // never route it through `exec`, which would charge
                    // the penalty again).
                    if rd == Reg::ZERO
                        && offset % 4 == 0
                        && target > pc
                        && self.insns.len() + 2 <= MAX_BLOCK_LEN
                    {
                        let t_idx = ((target - layout::CODE_BASE) / 4) as usize;
                        if code.get(t_idx).is_some_and(admits) && t_idx - start_idx < MAX_COVER_SPAN
                        {
                            d.base_cycles += core.jump_penalty;
                            self.insns.push(d);
                            prev_is_load = false;
                            self.ranges.push((seg_start, pc + 4));
                            seg_start = target;
                            idx = t_idx;
                            continue;
                        }
                    }
                }
            }
            self.insns.push(d);
            prev_is_load = matches!(instr, Instr::Load { .. } | Instr::Clc { .. });
            idx += 1;
            if instr.is_block_boundary()
                || self.insns.len() >= MAX_BLOCK_LEN
                || idx - start_idx >= MAX_COVER_SPAN
            {
                break;
            }
        }
        if self.insns.is_empty() {
            return None;
        }
        self.ranges
            .push((seg_start, layout::CODE_BASE + 4 * idx as u32));
        Some(self.finish(start, core))
    }

    /// Promotes a hot edge: `head` followed by `tail`, the block at the
    /// successor `head`'s final `j` or conditional branch keeps taking, as
    /// one block starting at `head.start`. The final `j` becomes interior
    /// with its jump penalty folded in, exactly like a decode-time chased
    /// jump; a final conditional branch becomes a *guard* — identified by
    /// its interior position — that continues when it resolves to the
    /// next instruction's `pc` and otherwise leaves the block through its
    /// real successor.
    ///
    /// `None` when `head` does not end in `j` or a conditional branch,
    /// `tail` does not start at one of its successors, the result would
    /// exceed [`MAX_BLOCK_LEN`], cover some address twice (nothing is
    /// unrolled), or reach more than [`MAX_COVER_SPAN`] - 1 words from
    /// `head.start` in either direction.
    pub fn promote(&mut self, head: &Block, tail: &Block, core: &CoreModel) -> Option<Block> {
        let last = head.insns.last()?;
        let folded_penalty = match last.instr {
            Instr::Jal { rd, offset } if rd == Reg::ZERO => {
                (last.pc.wrapping_add(offset as u32) == tail.start).then_some(core.jump_penalty)?
            }
            Instr::Branch { offset, .. } => (tail.start == last.pc.wrapping_add(4)
                || tail.start == last.pc.wrapping_add(offset as u32))
            .then_some(0)?,
            _ => return None,
        };
        if head.len() + tail.len() > MAX_BLOCK_LEN {
            return None;
        }
        let span = 4 * (MAX_COVER_SPAN as u32 - 1);
        let (lo, hi) = (
            head.start.saturating_sub(span),
            head.start.saturating_add(span),
        );
        for &(s, e) in tail.ranges.iter() {
            if s < lo || e - 4 > hi || head.ranges.iter().any(|&(hs, he)| s < he && hs < e) {
                return None;
            }
        }
        self.reset();
        self.insns.extend_from_slice(&head.insns);
        self.insns.last_mut()?.base_cycles += folded_penalty;
        let first_tail = self.insns.len();
        self.insns.extend_from_slice(&tail.insns);
        // The hazard gate of the tail's first instruction was armed only
        // because a hazard can cross a block entry; behind a `j` or branch
        // (never a load) no hazard is pending.
        self.insns[first_tail].check_hazard = false;
        self.ranges.extend_from_slice(&head.ranges);
        for &(s, e) in tail.ranges.iter() {
            match self.ranges.last_mut() {
                Some(r) if r.1 == s => r.1 = e,
                _ => self.ranges.push((s, e)),
            }
        }
        Some(self.finish(head.start, core))
    }

    /// Completes a block from the instructions and covered ranges in the
    /// buffers: the [`Block::worst_cycles`] bound and the fast stream,
    /// then one exact-size copy of each array.
    fn finish(&mut self, start: u32, core: &CoreModel) -> Block {
        let BlockBuilder {
            insns,
            ranges,
            fast,
        } = self;
        let n = insns.len();
        // Pushed `base_cycles` (interior jumps carry their folded penalty), a
        // worst-case stall wherever the hazard is consulted, each guard's
        // taken penalty, and the final instruction's worst penalty.
        let mut worst_cycles = core.branch_taken_penalty.max(core.jump_penalty);
        for (i, d) in insns.iter().enumerate() {
            worst_cycles += d.base_cycles + if d.check_hazard { core.load_to_use } else { 0 };
            if i + 1 < n && matches!(d.instr, Instr::Branch { .. }) {
                worst_cycles += core.branch_taken_penalty;
            }
        }
        // Fast stream: fold interior `jal x0` — identified by position, since
        // every other `jal` ends the block — into the instruction they land
        // on, and stop at the first instruction the inline arms cannot handle.
        let mut fast_end = 0u32;
        let mut fold_cycles = 0u64;
        let mut fold_retires = 0u32;
        let mut fold_start: Option<u32> = None;
        let mut fold_hazard: Option<(bool, [Option<Reg>; 2])> = None;
        for (i, d) in insns.iter().enumerate() {
            let interior = i + 1 < n;
            if interior && matches!(d.instr, Instr::Jal { rd, .. } if rd == Reg::ZERO) {
                fold_cycles += d.base_cycles;
                fold_retires += 1;
                if fold_start.is_none() {
                    fold_start = Some(i as u32);
                    fold_hazard = Some((d.check_hazard, d.srcs));
                }
                continue;
            }
            if !(statically_fast(&d.instr) || interior && matches!(d.instr, Instr::Branch { .. })) {
                break;
            }
            let (check_hazard, srcs) = fold_hazard.take().unwrap_or((d.check_hazard, d.srcs));
            fast.push(FastOp {
                d: *d,
                cycles: fold_cycles + d.base_cycles,
                retires: fold_retires + 1,
                resume: fold_start.take().unwrap_or(i as u32),
                check_hazard,
                srcs,
            });
            fold_cycles = 0;
            fold_retires = 0;
            fast_end = i as u32 + 1;
        }
        Block {
            start,
            end: ranges.last().map_or(start, |r| r.1),
            insns: insns.as_slice().into(),
            ranges: ranges.as_slice().into(),
            worst_cycles,
            fast: fast.as_slice().into(),
            fast_end,
        }
    }
}

/// Does this instruction belong in a block's fast stream? Exactly the
/// inline-handled set ([`inline_handled!`]), named once for the inline
/// arms (`exec_fast` in `machine.rs`), the general path and this decode.
/// Membership is static; the arms still decide at runtime (SRAM
/// address, passing capability check) whether to execute or bail, and a
/// bail falls back to the checked loop exactly.
fn statically_fast(instr: &Instr) -> bool {
    matches!(instr, inline_handled!())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, BranchCond};

    fn nopish(n: usize) -> Vec<Instr> {
        vec![Instr::NOP; n]
    }

    /// The block at `slot`, built from fresh buffers under `core`, with or
    /// without the load filter and superblock chasing.
    fn build_block(
        code: &[Instr],
        slot: usize,
        core: &CoreModel,
        load_filter: bool,
        chase: bool,
    ) -> Block {
        let cfg = MachineConfig {
            load_filter,
            block_chain: chase,
            ..MachineConfig::new(*core)
        };
        BlockBuilder::default()
            .build(code, slot, &cfg)
            .expect("a block starts there")
    }

    fn promote(head: &Block, tail: &Block, core: &CoreModel) -> Option<Block> {
        BlockBuilder::default().promote(head, tail, core)
    }

    #[test]
    fn block_ends_at_control_flow() {
        let mut code = nopish(3);
        code.push(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -12,
        });
        code.extend(nopish(4));
        let b = build_block(&code, 0, &CoreModel::ibex(), true, true);
        assert_eq!(b.len(), 4, "three nops plus the branch");
        assert_eq!(b.start, layout::CODE_BASE);
        assert_eq!(b.end, layout::CODE_BASE + 16);
        assert_eq!(&*b.ranges, &[(layout::CODE_BASE, layout::CODE_BASE + 16)]);
    }

    #[test]
    fn block_truncates_at_code_end_and_max_len() {
        let code = nopish(5);
        let b = build_block(&code, 2, &CoreModel::flute(), false, true);
        assert_eq!(b.len(), 3, "runs to the end of loaded code");
        let long = nopish(MAX_BLOCK_LEN * 2);
        let b = build_block(&long, 0, &CoreModel::flute(), false, true);
        assert_eq!(b.len(), MAX_BLOCK_LEN);
    }

    #[test]
    fn clc_filter_penalty_is_baked_in() {
        let clc = Instr::Clc {
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
        };
        let core = CoreModel::ibex();
        let with = build_block(&[clc], 0, &core, true, true);
        let without = build_block(&[clc], 0, &core, false, true);
        assert_eq!(
            with.insns[0].base_cycles,
            without.insns[0].base_cycles + core.filter_load_to_use
        );
    }

    #[test]
    fn forward_jal_grows_a_superblock() {
        // addi; j +8 (skips one word); [skipped]; addi; halt
        let code = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::ZERO,
                offset: 8,
            },
            Instr::NOP, // skipped
            Instr::NOP,
            Instr::Halt,
        ];
        let core = CoreModel::ibex();
        let b = build_block(&code, 0, &core, true, true);
        assert_eq!(b.len(), 4, "chased across the jump: nop, jal, nop, halt");
        assert_eq!(
            &*b.ranges,
            &[
                (layout::CODE_BASE, layout::CODE_BASE + 8),
                (layout::CODE_BASE + 12, layout::CODE_BASE + 20),
            ]
        );
        assert_eq!(b.end, layout::CODE_BASE + 20);
        // The chased jump carries its own pc and the folded jump penalty.
        assert_eq!(b.insns[1].pc, layout::CODE_BASE + 4);
        assert_eq!(b.insns[2].pc, layout::CODE_BASE + 12);
        assert_eq!(
            b.insns[1].base_cycles,
            core.instr_cycles(&code[1]) + core.jump_penalty
        );
        assert!(b.covers(layout::CODE_BASE + 4));
        assert!(!b.covers(layout::CODE_BASE + 8), "skipped word not covered");
        assert!(b.covers(layout::CODE_BASE + 12));

        // Chasing off: the jump ends the block as before.
        let b = build_block(&code, 0, &core, true, false);
        assert_eq!(b.len(), 2);
        assert_eq!(b.end, layout::CODE_BASE + 8);
    }

    #[test]
    fn backward_and_linking_jumps_end_blocks() {
        let back = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::ZERO,
                offset: -4,
            },
        ];
        let b = build_block(&back, 0, &CoreModel::ibex(), true, true);
        assert_eq!(b.len(), 2, "backward jump stays a boundary");
        let call = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::RA,
                offset: 8,
            },
            Instr::NOP,
            Instr::NOP,
        ];
        let b = build_block(&call, 0, &CoreModel::ibex(), true, true);
        assert_eq!(b.len(), 2, "linking jump (call) stays a boundary");
    }

    #[test]
    fn invalidate_covering_hits_overlapping_blocks() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        // Two overlapping blocks: one from slot 0, a suffix from slot 2.
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true, true)), 16);
        cache.insert(2, Arc::new(build_block(&code, 2, &core, true, true)), 16);
        assert_eq!(cache.resident(), 2);
        let removed = cache.invalidate_covering(layout::CODE_BASE + 3 * 4);
        assert_eq!(removed, 2, "both blocks cover slot 3");
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.stats.invalidated, 2);
        assert_eq!(cache.stats.generation, 1);
    }

    #[test]
    fn invalidation_skips_superblock_holes() {
        // A superblock covering two segments: a patch in the skipped hole
        // must not drop it; a patch in the second segment must.
        let code = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::ZERO,
                offset: 8,
            },
            Instr::NOP, // the hole
            Instr::NOP,
            Instr::Halt,
        ];
        let core = CoreModel::ibex();
        let mut cache = BlockCache::default();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true, true)), 5);
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE + 8), 0);
        assert_eq!(cache.resident(), 1, "hole patch leaves the block");
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE + 12), 1);
        assert_eq!(cache.resident(), 0, "second-segment patch drops it");
    }

    #[test]
    fn invalidation_outside_any_block_still_bumps_generation() {
        let mut cache = BlockCache::default();
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE), 0);
        assert_eq!(cache.stats.generation, 1);
        assert_eq!(cache.invalidate_covering(0x100), 0); // below code region
        assert_eq!(cache.stats.generation, 2);
    }

    #[test]
    fn on_append_drops_only_blocks_truncated_at_old_end() {
        let mut cache = BlockCache::default();
        let mut code = nopish(4);
        code.push(Instr::Jal {
            rd: Reg::ZERO,
            offset: 0,
        });
        code.extend(nopish(3)); // slots 5..8 fall through to the code end
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true, true)), 8);
        cache.insert(5, Arc::new(build_block(&code, 5, &core, true, true)), 8);
        let old_end = layout::CODE_BASE + 4 * code.len() as u32;
        let removed = cache.on_append(old_end);
        assert_eq!(removed, 1, "only the block ending at the old code end");
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(5).is_none());
    }

    #[test]
    fn links_are_generation_guarded_and_two_way() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true, true)), 16);
        let gen = cache.stats.generation;
        let fp = (0x8000_0000u32, 0x8001_0000u64);
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        cache.link_insert(0, gen, 0x8000_0080, fp, 8);
        assert_eq!(cache.link_follow(0, gen, 0x8000_0040, fp), Some((4, false)));
        assert_eq!(cache.link_follow(0, gen, 0x8000_0080, fp), Some((8, false)));
        assert_eq!(cache.stats.chain_links, 2);
        // Different fingerprint: no match.
        let other_fp = (0x8000_0000u32, 0x8000_8000u64);
        assert_eq!(cache.link_follow(0, gen, 0x8000_0040, other_fp), None);
        // Any invalidation event retires every link at once.
        cache.invalidate_covering(0x100);
        let gen = cache.stats.generation;
        assert_eq!(cache.link_follow(0, gen, 0x8000_0040, fp), None);
        assert_eq!(cache.link_follow(0, gen, 0x8000_0080, fp), None);
    }

    #[test]
    fn re_linking_the_same_edge_keeps_the_other_way() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true, true)), 16);
        let gen = cache.stats.generation;
        let fp = (0x8000_0000u32, 0x8001_0000u64);
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        cache.link_insert(0, gen, 0x8000_0080, fp, 8);
        // Refreshing the hot edge must not evict the cold one.
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        assert_eq!(cache.link_follow(0, gen, 0x8000_0080, fp), Some((8, false)));
    }

    /// `0: nop; 1: bne a0, a1, +8; 2: nop; 3: nop; 4: j -16; 5: halt` —
    /// block 0 (words 0–1) branches to block 3 (words 3–4), which jumps
    /// back to word 0.
    fn two_block_loop() -> Vec<Instr> {
        vec![
            Instr::NOP,
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 8,
            },
            Instr::NOP,
            Instr::NOP,
            Instr::Jal {
                rd: Reg::ZERO,
                offset: -16,
            },
            Instr::Halt,
        ]
    }

    #[test]
    fn promotion_keeps_a_branch_as_guard_and_folds_a_jump() {
        let code = two_block_loop();
        let core = CoreModel::flute();
        let (head, tail) = (
            build_block(&code, 0, &core, true, true),
            build_block(&code, 3, &core, true, true),
        );
        let sb = promote(&head, &tail, &core).expect("branch edge promotes");
        let base = layout::CODE_BASE;
        assert_eq!(sb.len(), 4);
        assert_eq!(&*sb.ranges, &[(base, base + 8), (base + 12, base + 20)]);
        assert_eq!(sb.end, base + 20);
        // The guard keeps its bare cost; the bound adds its taken penalty.
        assert_eq!(sb.insns[1].base_cycles, head.insns[1].base_cycles);
        assert!(!sb.insns[2].check_hazard, "no hazard behind a branch");
        assert_eq!(
            sb.worst_cycles,
            head.worst_cycles + tail.worst_cycles
                - core.load_to_use
                - core.branch_taken_penalty.max(core.jump_penalty)
                + core.branch_taken_penalty
        );
        // The guard runs in the fast stream; the final `j` does not.
        assert_eq!(sb.fast.len(), 3);
        assert_eq!(sb.fast_end, 3);

        // The loop tail's backward `j` appends code *below* the start and
        // becomes interior with its penalty folded in.
        let sb = promote(&tail, &head, &core).expect("jump edge promotes");
        assert_eq!(&*sb.ranges, &[(base + 12, base + 20), (base, base + 8)]);
        assert_eq!(
            sb.insns[1].base_cycles,
            tail.insns[1].base_cycles + core.jump_penalty
        );
        assert!(sb.covers(base) && !sb.covers(base + 8));
    }

    #[test]
    fn promotion_refuses_what_it_cannot_append_exactly() {
        let code = two_block_loop();
        let core = CoreModel::ibex();
        let block = |i| build_block(&code, i, &core, true, true);
        let sb = promote(&block(0), &block(3), &core).unwrap();
        // Covering a word twice would unroll the loop.
        assert!(promote(&sb, &block(0), &core).is_none());
        // Word 4 is not a successor of the branch; `halt` ends no edge.
        assert!(promote(&block(0), &block(4), &core).is_none());
        assert!(promote(&block(5), &block(0), &core).is_none());
        // Length cap: a 34-instruction head takes at most a
        // 30-instruction tail.
        let capped = |tail_nops: usize| {
            let mut code = nopish(33);
            code.push(Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 4,
            });
            code.extend(nopish(tail_nops));
            code.push(Instr::Halt);
            let head = build_block(&code, 0, &core, true, true);
            let tail = build_block(&code, 34, &core, true, true);
            promote(&head, &tail, &core)
        };
        assert_eq!(capped(29).map(|b| b.len()), Some(MAX_BLOCK_LEN));
        assert!(capped(30).is_none());
        // Cover span: the last word a block may reach is
        // `MAX_COVER_SPAN - 1` words from its start.
        let far = |target: usize| {
            let mut code = vec![Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A0,
                offset: 4 * target as i32,
            }];
            code.extend(nopish(target - 1));
            code.push(Instr::Halt);
            let head = build_block(&code, 0, &core, true, true);
            let tail = build_block(&code, target, &core, true, true);
            promote(&head, &tail, &core)
        };
        assert!(far(MAX_COVER_SPAN - 1).is_some());
        assert!(far(MAX_COVER_SPAN).is_none());
    }

    #[test]
    fn a_link_turns_hot_once_and_only_while_one_way() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true, true)), 16);
        cache.insert(1, Arc::new(build_block(&code, 1, &core, true, true)), 16);
        let gen = cache.stats.generation;
        let fp = (0x8000_0000u32, 0x8001_0000u64);
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        let hot: Vec<bool> = (0..HOT + 4)
            .map(|_| cache.link_follow(0, gen, 0x8000_0040, fp).unwrap().1)
            .collect();
        assert_eq!(hot.iter().filter(|&&h| h).count(), 1);
        assert!(hot[HOT as usize - 1], "the HOT-th follow");
        // A second live link means the block leaves both ways: never hot.
        cache.link_insert(1, gen, 0x8000_0040, fp, 4);
        cache.link_insert(1, gen, 0x8000_0080, fp, 8);
        for _ in 0..2 * HOT {
            assert!(!cache.link_follow(1, gen, 0x8000_0080, fp).unwrap().1);
        }
    }

    #[test]
    fn invalidation_scans_below_a_promoted_start() {
        let code = two_block_loop();
        let core = CoreModel::ibex();
        let (head, tail) = (
            build_block(&code, 0, &core, true, true),
            build_block(&code, 3, &core, true, true),
        );
        let mut cache = BlockCache::default();
        cache.insert(3, Arc::new(promote(&tail, &head, &core).unwrap()), 6);
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE + 4), 1);
        assert_eq!(cache.resident(), 0, "word 1 lies below the start slot");
    }

    #[test]
    fn freed_entries_are_reused_and_the_sidecar_stays_dense() {
        // Two-word blocks: `nop; halt` from every even slot.
        let code: Vec<Instr> = (0..8).flat_map(|_| [Instr::NOP, Instr::Halt]).collect();
        let core = CoreModel::ibex();
        let mut cache = BlockCache::default();
        let block = |i| Arc::new(build_block(&code, i, &core, true, true));
        assert_eq!(cache.insert(0, block(0), 16), 0);
        assert_eq!(cache.insert(2, block(2), 16), 1);
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE + 4), 1);
        assert!(cache.lookup(0).is_none());
        assert_eq!(cache.insert(4, block(4), 16), 0, "the freed entry");
        assert_eq!(
            cache.lookup(4).map(|b| b.start),
            Some(layout::CODE_BASE + 16)
        );
        assert_eq!(
            cache.lookup(2).map(|b| b.start),
            Some(layout::CODE_BASE + 8)
        );
        assert_eq!(cache.resident(), 2);
        // One index word per code word plus one entry per resident block.
        assert_eq!(std::mem::size_of::<Entry>(), 56);
        assert_eq!(cache.sidecar_bytes(), 16 * 2 + 2 * 56);
        cache.clear();
        assert_eq!((cache.resident(), cache.sidecar_bytes()), (0, 0));
    }

    #[test]
    fn a_full_table_refuses_more_blocks_until_one_is_freed() {
        let code = vec![Instr::Halt; MAX_ENTRIES + 1];
        let core = CoreModel::ibex();
        let mut cache = BlockCache::default();
        for slot in 0..MAX_ENTRIES {
            assert!(cache.has_room());
            let block = Arc::new(build_block(&code, slot, &core, true, true));
            cache.insert(slot, block, code.len());
        }
        assert!(!cache.has_room());
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE + 40), 1);
        assert!(cache.has_room());
        let last = Arc::new(build_block(&code, MAX_ENTRIES, &core, true, true));
        assert_eq!(
            cache.insert(MAX_ENTRIES, last, code.len()),
            10,
            "the freed entry"
        );
        assert!(!cache.has_room());
    }

    #[test]
    fn a_link_matches_its_whole_fingerprint_and_an_empty_one_nothing() {
        let mut cache = BlockCache::default();
        cache.insert(
            0,
            Arc::new(build_block(&nopish(4), 0, &CoreModel::ibex(), true, true)),
            4,
        );
        let whole = (0u32, 1u64 << 32);
        cache.link_insert(0, 0, 0x8000_0040, whole, 0);
        assert_eq!(cache.link_follow(0, 0, 0x8000_0040, (0, 0)), None);
        assert_eq!(cache.link_follow(0, 0, 0x8000_0040, (4, 1 << 32)), None);
        assert_eq!(
            cache.link_follow(0, 0, 0x8000_0040, whole),
            Some((0, false))
        );
        // The second link is empty: not even an all-zero edge matches it.
        assert_eq!(cache.link_follow(0, 0, 0, (0, 0)), None);
    }

    #[test]
    fn the_store_builds_each_block_once_and_shares_promotions() {
        let mut code = Arc::new(Code {
            instrs: two_block_loop(),
            store: Mutex::default(),
        });
        let cfg = MachineConfig::new(CoreModel::ibex());
        let sibling = Arc::clone(&code);
        let (head, built) = sibling.store().block(&code, 0, &cfg).unwrap();
        assert!(built);
        let (again, built) = code.store().block(&code, 0, &cfg).unwrap();
        assert!(!built && Arc::ptr_eq(&head, &again), "one store per image");
        let (tail, _) = code.store().block(&code, 3, &cfg).unwrap();
        let sb = code.store().promotion(&head, &tail, &cfg.core).unwrap();
        let memo = sibling.store().promotion(&head, &tail, &cfg.core);
        assert!(Arc::ptr_eq(&sb, &memo.unwrap()));
        // An edit unshares: the copy starts with an empty store.
        let built = |code: &Code| code.store().block(code, 0, &cfg).unwrap().1;
        Arc::make_mut(&mut code).edit();
        assert!(built(&code));
        assert!(!built(&sibling));
        // An edit through a unique handle empties the store.
        drop(sibling);
        Arc::make_mut(&mut code).edit();
        assert!(built(&code));
    }

    #[test]
    fn without_cheri_decode_stops_before_cheri_instructions() {
        let cmove = Instr::CMove {
            rd: Reg::A0,
            rs1: Reg::A1,
        };
        let jump = Instr::Jal {
            rd: Reg::ZERO,
            offset: 8,
        };
        // nop; cmove; halt; j +8; nop; cmove; halt
        let code = vec![
            Instr::NOP,
            cmove,
            Instr::Halt,
            jump,
            Instr::NOP,
            cmove,
            Instr::Halt,
        ];
        let on = MachineConfig::new(CoreModel::ibex());
        let off = MachineConfig {
            cheri_enabled: false,
            ..on
        };
        let build = |slot, cfg: &MachineConfig| BlockBuilder::default().build(&code, slot, cfg);
        assert_eq!(build(0, &on).unwrap().len(), 3);
        let b = build(0, &off).unwrap();
        assert_eq!((b.len(), b.end), (1, layout::CODE_BASE + 4));
        assert!(
            build(1, &off).is_none(),
            "no block starts at a CHERI instruction"
        );
        // The jump would chase onto `cmove`: it ends its block instead.
        assert_eq!(build(3, &on).unwrap().len(), 3);
        assert_eq!(build(3, &off).unwrap().len(), 1);
    }

    #[test]
    fn boundary_set_matches_issue_list() {
        use Instr::*;
        let enders = [
            Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 0,
            },
            Jal {
                rd: Reg::RA,
                offset: 8,
            },
            Jalr {
                rd: Reg::RA,
                rs1: Reg::A0,
                offset: 0,
            },
            Mret,
            Ecall,
            Ebreak,
            Wfi,
            Fence,
            Halt,
            Csr {
                op: crate::insn::CsrOp::Rw,
                rd: Reg::A0,
                rs1: Reg::A1,
                csr: crate::insn::CsrId::Mcycle,
            },
            CSpecialRw {
                rd: Reg::A0,
                rs1: Reg::A1,
                scr: crate::insn::ScrId::Mtcc,
            },
        ];
        for i in enders {
            assert!(i.is_block_boundary(), "{i:?} must end a block");
        }
        let straight = [
            Instr::NOP,
            Lui {
                rd: Reg::A0,
                imm: 1,
            },
            Op {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Clc {
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
            Csc {
                rs2: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
        ];
        for i in straight {
            assert!(!i.is_block_boundary(), "{i:?} must not end a block");
        }
    }
}
