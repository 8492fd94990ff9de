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
//! Two dispatch accelerators layer on top (DESIGN.md §13), both
//! invalidated wholesale by the generation counter:
//!
//! * **Superblocks**: decode chases unconditional forward jumps
//!   (`jal x0, +off`) instead of ending the block, so straight-line-plus-
//!   glue code predecodes as one block covering several [`Block::ranges`].
//!   At runtime a block that keeps taking the same edge out of its final
//!   `j` or conditional branch is *promoted* ([`promote`]): its slot gets
//!   the block followed by its successor, the branch kept inline as a
//!   guard that side-exits when it resolves the other way.
//! * **Successor links**: each slot carries up to two weak links
//!   `(generation, next_pc, PCC fingerprint) → successor slot` recorded by
//!   the chained dispatch loop; a matching link lets the loop jump block to
//!   block without re-running the PCC fetch check or touching the slot
//!   table's lookup path. A block ending in `cjalr` runs the jump through
//!   the general `exec` path and chains through the same links.
//!
//! Coherence is exact and conservative:
//!
//! * Any overwrite of loaded code ([`crate::machine::Machine::patch_code`]
//!   — self-modifying code and `cheriot-fault` code-region injections)
//!   invalidates every cached block covering the patched address.
//! * Appending code ([`crate::machine::Machine::try_load_program`]) drops
//!   blocks that ended exactly at the old end of code, so a block truncated
//!   by running out of instructions re-extends over the new code.
//! * Every invalidation bumps a generation counter
//!   ([`BlockCacheStats::generation`]) that external layers (fault
//!   campaigns, tests) can watch to confirm their mutations took effect.
//!   Links embed the generation they were recorded under and die on any
//!   mismatch, so a single counter bump retires every link in the machine
//!   at once — no per-link invalidation walk.
//!
//! The cache stores `Arc<Block>` so a [`crate::machine::Machine`] stays
//! `Send` (fault campaigns fan machines out across `thread::scope`) and so
//! the run loop can hold a block while mutating the machine through
//! `&mut self`. Links live in the per-machine slot sidecar, *never* inside
//! the shared `Arc<Block>`: forked machines execute the same
//! `Arc<Block>`s concurrently across threads, so mutable dispatch
//! state inside a block would be a data race (and would leak one fork's
//! control-flow history into another).

use crate::insn::{pure_register, Instr, Reg};
use crate::machine::layout;
use crate::pipeline::CoreModel;
use std::sync::Arc;

/// Maximum instructions per cached block (superblocks included).
pub const MAX_BLOCK_LEN: usize = 64;

/// Maximum distance, in code words, of any instruction a block may cover
/// from the block's start slot, in either direction. Linear decode is
/// already bounded by [`MAX_BLOCK_LEN`]; superblock chasing can skip
/// forward and runtime promotion can append code on either side (a loop
/// tail's backward `j`), and this bounds how far, which in turn bounds the
/// invalidation scan window (a patch at `addr` can only be covered by
/// blocks starting within `MAX_COVER_SPAN - 1` slots of it).
pub const MAX_COVER_SPAN: usize = 256;

/// Successor-link follows after which a one-way edge is promoted: a block
/// that has left through the same link `HOT` times, with no second live
/// link, gets its successor appended ([`promote`]).
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
    /// penalty already folded in (both are fixed at machine construction).
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
    /// Blocks built (first execution of a start PC).
    pub misses: u64,
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
    /// `block_delta`, `block_add`); ROADMAP item 2 deletes it.
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

/// One weak successor link: valid only while the recorded generation is
/// current *and* the departing PCC fingerprint matches, in which case the
/// target block is known to sit at `target_slot` already verified for
/// fetch under these PCC bounds.
#[derive(Clone, Copy, Debug, Default)]
struct BlockLink {
    /// Recorded generation + 1 (0 = empty slot).
    gen_plus1: u64,
    /// The successor's start address this link was recorded for.
    next_pc: u32,
    /// PCC fetch fingerprint
    /// ([`cheriot_cap::Capability::fetch_fingerprint`]) the successor was
    /// verified under.
    fp_base: u32,
    fp_top: u64,
    /// Slot index of the successor block.
    target_slot: u32,
    /// Times the link was followed while it was the slot's only live
    /// link, counting up to [`HOT`], which makes the edge a promotion
    /// candidate once.
    follows: u32,
}

impl BlockLink {
    #[inline]
    fn matches(&self, gen: u64, next_pc: u32, fp: (u32, u64)) -> bool {
        self.gen_plus1 == gen + 1
            && self.next_pc == next_pc
            && self.fp_base == fp.0
            && self.fp_top == fp.1
    }
}

/// PC-indexed store of predecoded blocks (one slot per code word, keyed by
/// the block's start address).
///
/// `Clone` is cheap sharing, not duplication: the slot table holds
/// `Arc<Block>`, so a clone bumps one refcount per resident block and the
/// decoded instructions themselves are shared. Snapshots rely on this so
/// forked machines inherit predecoded blocks instead of re-decoding. The
/// links sidecar is plain `Copy` data and is cloned by value — each
/// machine then mutates only its own copy.
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    slots: Vec<Option<Arc<Block>>>,
    /// Two successor links per slot (taken / fall-through of the block
    /// *starting* there, most recent first), parallel to `slots`.
    links: Vec<[BlockLink; 2]>,
    /// Counters; the machine exposes them via
    /// [`crate::machine::Machine::block_stats`].
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// Slot index for a code address, if it is in the code region and
    /// word-aligned.
    fn slot_of(addr: u32) -> Option<usize> {
        if addr < layout::CODE_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        Some(((addr - layout::CODE_BASE) / 4) as usize)
    }

    /// The cached block starting at slot `idx`, if any.
    #[inline]
    pub fn lookup(&self, idx: usize) -> Option<Arc<Block>> {
        self.slots.get(idx)?.clone()
    }

    /// Moves the cached block starting at slot `idx` out of the table.
    /// The dispatch loop owns the block while executing it — a move in
    /// and out instead of an atomic refcount round-trip per executed
    /// block — and returns it with [`BlockCache::restore`]. Nothing that
    /// runs between the two can touch the cache (invalidation only
    /// happens through external `Machine` APIs, never mid-run).
    #[inline]
    pub fn take(&mut self, idx: usize) -> Option<Arc<Block>> {
        self.slots.get_mut(idx)?.take()
    }

    /// Returns a block taken by [`BlockCache::take`] (or freshly built by
    /// the miss path) to its slot.
    #[inline]
    pub fn restore(&mut self, idx: usize, block: Arc<Block>) {
        self.slots[idx] = Some(block);
    }

    /// Stores `block` at slot `idx`, growing the slot table to cover
    /// `code_words` instruction words.
    pub fn insert(&mut self, idx: usize, block: Arc<Block>, code_words: usize) {
        if self.slots.len() < code_words {
            self.slots.resize(code_words, None);
        }
        if self.links.len() < self.slots.len() {
            self.links.resize(self.slots.len(), Default::default());
        }
        self.stats.misses += 1;
        self.slots[idx] = Some(block);
    }

    /// Follows a live successor link out of slot `from`: current
    /// generation, same successor address, same PCC fingerprint. Returns
    /// the successor's slot, and whether this follow made the edge hot:
    /// the newest link taken for the [`HOT`]-th time while the second link
    /// slot holds no live link (the block has left one way only).
    #[inline]
    pub(crate) fn link_follow(
        &mut self,
        from: usize,
        gen: u64,
        next_pc: u32,
        fp: (u32, u64),
    ) -> Option<(usize, bool)> {
        let [newest, older] = self.links.get_mut(from)?;
        if newest.matches(gen, next_pc, fp) {
            let mut hot = false;
            if newest.follows < HOT && older.gen_plus1 != gen + 1 {
                newest.follows += 1;
                hot = newest.follows == HOT;
            }
            return Some((newest.target_slot as usize, hot));
        }
        older
            .matches(gen, next_pc, fp)
            .then_some((older.target_slot as usize, false))
    }

    /// Records a successor link out of slot `from` (most-recent-first,
    /// two-way: a conditional branch keeps both its edges linked).
    #[inline]
    pub(crate) fn link_insert(
        &mut self,
        from: usize,
        gen: u64,
        next_pc: u32,
        fp: (u32, u64),
        target_slot: usize,
    ) {
        let Some(sl) = self.links.get_mut(from) else {
            return;
        };
        let fresh = BlockLink {
            gen_plus1: gen + 1,
            next_pc,
            fp_base: fp.0,
            fp_top: fp.1,
            target_slot: target_slot as u32,
            follows: 0,
        };
        if !sl[0].matches(gen, next_pc, fp) {
            sl[1] = sl[0];
        }
        sl[0] = fresh;
        self.stats.chain_links += 1;
    }

    /// Accounts for a promoted block the dispatch loop is installing in
    /// the slot of the block it holds (the loop already verified its
    /// fetch under the current PCC). Bumps the generation: a link *into*
    /// that slot recorded under another PCC fingerprint certified only
    /// the old block's ranges, never the appended ones, so every link must
    /// die. Returns the new generation.
    pub(crate) fn note_promotion(&mut self) -> u64 {
        self.stats.promotions += 1;
        self.stats.generation += 1;
        self.stats.generation
    }

    /// The slots whose blocks can cover the code word at `slot`: starts
    /// within `MAX_COVER_SPAN - 1` slots on either side.
    fn cover_window(&self, slot: usize) -> std::ops::Range<usize> {
        let lo = slot.saturating_sub(MAX_COVER_SPAN - 1);
        let hi = (slot + MAX_COVER_SPAN).min(self.slots.len());
        lo..hi.max(lo)
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
        let Some(slot) = Self::slot_of(addr & !3) else {
            return 0;
        };
        let mut removed = 0;
        for s in self.cover_window(slot) {
            if let Some(b) = &self.slots[s] {
                if b.covers(addr) {
                    self.slots[s] = None;
                    removed += 1;
                }
            }
        }
        self.stats.invalidated += removed;
        removed
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
        let Some(end_slot) = Self::slot_of(old_end) else {
            return 0;
        };
        let mut removed = 0;
        for s in self.cover_window(end_slot.saturating_sub(1)) {
            if let Some(b) = &self.slots[s] {
                if b.end == old_end {
                    self.slots[s] = None;
                    removed += 1;
                }
            }
        }
        self.stats.invalidated += removed;
        removed
    }

    /// Discards every cached block (full flush), bumping the generation
    /// (which also retires every link).
    pub fn clear(&mut self) {
        let resident = self.resident() as u64;
        for s in &mut self.slots {
            *s = None;
        }
        self.stats.invalidated += resident;
        self.stats.generation += 1;
    }

    /// Number of blocks currently cached.
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Decodes the block starting at code slot `start_idx`: forward until a
/// control-flow/trap boundary, the end of `code`, [`MAX_BLOCK_LEN`] or
/// [`MAX_COVER_SPAN`]. With `chase`, unconditional forward jumps
/// (`jal x0`) to aligned in-range targets are interior: decode continues
/// at the target (superblocks). `start_idx` must be within `code`.
pub fn build_block(
    code: &[Instr],
    start_idx: usize,
    core: &CoreModel,
    load_filter: bool,
    chase: bool,
) -> Block {
    let start = layout::CODE_BASE + 4 * start_idx as u32;
    let mut insns = Vec::with_capacity(8);
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(1);
    let mut seg_start = start;
    let mut idx = start_idx;
    let mut prev_is_load = true; // a hazard can cross the block entry
    while let Some(&instr) = code.get(idx) {
        let pc = layout::CODE_BASE + 4 * idx as u32;
        let mut base_cycles = core.instr_cycles(&instr);
        if load_filter {
            // Same folding as the stepwise loop: the revocation-bit lookup
            // lengthens capability loads where the pipeline cannot hide it.
            if let Instr::Clc { .. } = instr {
                base_cycles += core.filter_load_to_use;
            }
        }
        if chase {
            if let Instr::Jal { rd, offset } = instr {
                let target = pc.wrapping_add(offset as u32);
                // Forward only (backward jumps are loop edges — the
                // successor links and runtime promotion handle those
                // without unrolling), and always leaving room for at least
                // one instruction at the target, so a chased jump is never
                // the last instruction (its jump penalty is folded into
                // `base_cycles`; the dispatch loop must never route it
                // through `exec`, which would charge the penalty again).
                if rd == Reg::ZERO
                    && offset % 4 == 0
                    && target > pc
                    && insns.len() + 2 <= MAX_BLOCK_LEN
                {
                    let t_idx = ((target - layout::CODE_BASE) / 4) as usize;
                    if t_idx < code.len() && t_idx - start_idx < MAX_COVER_SPAN {
                        insns.push(PredecodedInsn {
                            pc,
                            instr,
                            base_cycles: base_cycles + core.jump_penalty,
                            mem_beats: core.mem_beats(&instr),
                            srcs: instr.sources(),
                            check_hazard: prev_is_load,
                        });
                        prev_is_load = false;
                        ranges.push((seg_start, pc + 4));
                        seg_start = target;
                        idx = t_idx;
                        continue;
                    }
                }
            }
        }
        insns.push(PredecodedInsn {
            pc,
            instr,
            base_cycles,
            mem_beats: core.mem_beats(&instr),
            srcs: instr.sources(),
            check_hazard: prev_is_load,
        });
        prev_is_load = matches!(instr, Instr::Load { .. } | Instr::Clc { .. });
        idx += 1;
        if instr.is_block_boundary()
            || insns.len() >= MAX_BLOCK_LEN
            || idx - start_idx >= MAX_COVER_SPAN
        {
            break;
        }
    }
    ranges.push((seg_start, layout::CODE_BASE + 4 * idx as u32));
    finish(start, insns, ranges, core)
}

/// Promotes a hot edge: `head` followed by `tail`, the block at the
/// successor `head`'s final `j` or conditional branch keeps taking, as one
/// block starting at `head.start`. The final `j` becomes interior with its
/// jump penalty folded in, exactly like a decode-time chased jump; a final
/// conditional branch becomes a *guard* — identified by its interior
/// position — that continues when it resolves to the next instruction's
/// `pc` and otherwise leaves the block through its real successor.
///
/// `None` when `head` does not end in `j` or a conditional branch, `tail`
/// does not start at one of its successors, the result would exceed
/// [`MAX_BLOCK_LEN`], cover some address twice (nothing is unrolled), or
/// reach more than [`MAX_COVER_SPAN`] - 1 words from `head.start` in
/// either direction.
pub fn promote(head: &Block, tail: &Block, core: &CoreModel) -> Option<Block> {
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
    let mut insns = Vec::with_capacity(head.len() + tail.len());
    insns.extend_from_slice(&head.insns);
    insns.last_mut()?.base_cycles += folded_penalty;
    let first_tail = insns.len();
    insns.extend_from_slice(&tail.insns);
    // The hazard gate of the tail's first instruction was armed only
    // because a hazard can cross a block entry; behind a `j` or branch
    // (never a load) no hazard is pending.
    insns[first_tail].check_hazard = false;
    let mut ranges = head.ranges.to_vec();
    for &(s, e) in tail.ranges.iter() {
        match ranges.last_mut() {
            Some(r) if r.1 == s => r.1 = e,
            _ => ranges.push((s, e)),
        }
    }
    Some(finish(head.start, insns, ranges, core))
}

/// Completes a block from its instructions and covered ranges: the
/// [`Block::worst_cycles`] bound and the fast stream.
fn finish(
    start: u32,
    insns: Vec<PredecodedInsn>,
    ranges: Vec<(u32, u32)>,
    core: &CoreModel,
) -> Block {
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
    let mut fast = Vec::with_capacity(n);
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
        insns: insns.into_boxed_slice(),
        ranges: ranges.into_boxed_slice(),
        worst_cycles,
        fast: fast.into_boxed_slice(),
        fast_end,
    }
}

/// Can the chained dispatch loop's inline arms ([`exec_fast` in
/// `machine.rs`]) handle this instruction? Must stay in lockstep with the
/// arms in the conservative direction only: `false` for a handled
/// instruction merely shortens the fast stream, while the arms themselves
/// decide dynamically (SRAM hit, passing capability check) whether to
/// execute or bail, so a statically-fast instruction that cannot be
/// handled at runtime still falls back correctly.
fn statically_fast(instr: &Instr) -> bool {
    matches!(
        instr,
        pure_register!()
            | Instr::Load { .. }
            | Instr::Clc { .. }
            | Instr::Store { .. }
            | Instr::Csc { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, BranchCond};

    fn nopish(n: usize) -> Vec<Instr> {
        vec![Instr::NOP; n]
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
