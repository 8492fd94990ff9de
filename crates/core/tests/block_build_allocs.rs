//! Allocation guard for block building (DESIGN.md §11). With warm
//! buffers, building a block or a promotion allocates exactly once per
//! non-empty array (instructions, ranges, fast stream) plus the `Arc` a
//! store publishes it in, and never reallocates. A machine's block table
//! allocates its entries once, on the first insert, for up to
//! `ENTRIES_RESERVED` blocks. Its own test binary,
//! because it installs a counting global allocator; the counters are per
//! thread, so tests running in parallel do not see each other's calls.

use cheriot_core::blockcache::{Block, BlockBuilder, BlockCache, ENTRIES_RESERVED, MAX_BLOCK_LEN};
use cheriot_core::insn::{BranchCond, Instr, Reg};
use cheriot_core::{CoreModel, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result with the allocations and reallocations this thread made
/// while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, r0) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - a0,
        REALLOCS.with(Cell::get) - r0,
    )
}

/// What one published block may cost: its `Arc` plus one allocation per
/// non-empty array.
fn exact_cost(b: &Block) -> u64 {
    1 + [b.insns.is_empty(), b.ranges.is_empty(), b.fast.is_empty()]
        .iter()
        .filter(|&&empty| !empty)
        .count() as u64
}

fn cfg() -> MachineConfig {
    MachineConfig::new(CoreModel::ibex())
}

/// `0..n`: `n` nops; then `bne a0, a1, +8`; a nop; the loop tail
/// `j -(4n + 8)` back to word 0; `halt`. With `n = 12` the first block
/// holds more instructions than a small first capacity, and a forward
/// `j` at the end of the nops would chase.
fn program(n: usize) -> Vec<Instr> {
    let mut code = vec![Instr::NOP; n];
    code.push(Instr::Branch {
        cond: BranchCond::Ne,
        rs1: Reg::A0,
        rs2: Reg::A1,
        offset: 8,
    });
    code.push(Instr::NOP);
    code.push(Instr::Jal {
        rd: Reg::ZERO,
        offset: -4 * (n as i32 + 2),
    });
    code.push(Instr::Halt);
    code
}

#[test]
fn a_warm_build_allocates_each_array_once_and_never_reallocates() {
    let cfg = cfg();
    let mut b = BlockBuilder::default();
    // Warm the buffers on the smallest block there is.
    b.build(&[Instr::Halt], 0, &cfg).unwrap();
    let mut chased = program(12);
    chased[5] = Instr::Jal {
        rd: Reg::ZERO,
        offset: 8,
    };
    let cases: [(&str, Vec<Instr>, usize); 5] = [
        ("straight block", program(12), 0),
        ("chased jump, two ranges", chased, 0),
        ("empty fast stream", vec![Instr::Ecall, Instr::Halt], 0),
        ("longest block", vec![Instr::NOP; 2 * MAX_BLOCK_LEN], 0),
        ("loop tail", program(3), 5),
    ];
    for (what, code, slot) in cases {
        let (block, allocs, reallocs) = counted(|| Arc::new(b.build(&code, slot, &cfg).unwrap()));
        assert_eq!(allocs, exact_cost(&block), "{what}: allocations");
        assert_eq!(reallocs, 0, "{what}: reallocations");
    }
    let fast_empty = b.build(&[Instr::Ecall, Instr::Halt], 0, &cfg).unwrap();
    assert_eq!(
        exact_cost(&fast_empty),
        3,
        "no allocation for an empty stream"
    );
}

#[test]
fn a_warm_promotion_allocates_each_array_once_and_never_reallocates() {
    let cfg = cfg();
    let code = program(12);
    let mut b = BlockBuilder::default();
    let head = b.build(&code, 0, &cfg).unwrap();
    let tail = b.build(&code, 14, &cfg).unwrap();
    let (sb, allocs, reallocs) = counted(|| Arc::new(b.promote(&head, &tail, &cfg.core).unwrap()));
    assert_eq!(sb.len(), head.len() + tail.len());
    assert_eq!(allocs, exact_cost(&sb));
    assert_eq!(reallocs, 0);
    // A refused promotion touches no buffer.
    let (refused, allocs, reallocs) = counted(|| b.promote(&tail, &tail, &cfg.core));
    assert!(refused.is_none());
    assert_eq!((allocs, reallocs), (0, 0));
}

#[test]
fn fresh_buffers_are_sized_once_for_the_largest_block() {
    let cfg = cfg();
    let code = vec![Instr::NOP; 2 * MAX_BLOCK_LEN];
    let (block, allocs, reallocs) =
        counted(|| BlockBuilder::default().build(&code, 0, &cfg).unwrap());
    assert_eq!(block.len(), MAX_BLOCK_LEN);
    // Three buffers, then the three arrays; no growth on the way.
    assert_eq!(allocs, 3 + 3);
    assert_eq!(reallocs, 0);
}

#[test]
fn a_fresh_block_table_allocates_its_entries_once() {
    let block = Arc::new(
        BlockBuilder::default()
            .build(&[Instr::Halt], 0, &cfg())
            .unwrap(),
    );
    let mut table = BlockCache::default();
    let words = 2 * ENTRIES_RESERVED;
    // The first insert sizes the per-word index and reserves the entries.
    let (_, allocs, reallocs) = counted(|| table.insert(0, block.clone(), words));
    assert_eq!((allocs, reallocs), (2, 0), "first insert");
    let (_, allocs, reallocs) = counted(|| {
        for slot in 1..ENTRIES_RESERVED {
            table.insert(slot, block.clone(), words);
        }
    });
    assert_eq!((allocs, reallocs), (0, 0), "inserts up to the reserve");
    assert_eq!(table.resident(), ENTRIES_RESERVED);
    // Past the reserve the table grows as any `Vec` does.
    let (_, _, reallocs) = counted(|| table.insert(ENTRIES_RESERVED, block.clone(), words));
    assert_eq!(reallocs, 1, "the first insert past the reserve");
}
