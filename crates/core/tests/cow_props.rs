//! Copy-on-write aliasing properties.
//!
//! Forked machines share SRAM pages (and the decoded code image) by
//! handle; every mutation path — scalar stores, DMA, tag writes,
//! `patch_code` — must break the sharing for the writer alone, leaving
//! siblings byte-identical to the capture point. And the whole CoW
//! machinery must be architecturally invisible: `--no-cow` runs produce
//! the same machine state in every dispatch mode. Because shared pages
//! are immutable, equal handles mean equal content, and a restore moves
//! exactly the pages whose handles differ from the snapshot's.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, BranchCond, Instr, MemWidth, Reg};
use cheriot_core::mem::PAGE_SIZE;
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A store loop: writes `A4` through `A1` and `A2`, then counts `A3`
/// down to zero so block chaining has a back edge to chain.
fn prog() -> Vec<Instr> {
    vec![
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A4,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A4,
            rs1: Reg::A2,
            offset: 8,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A3,
            rs1: Reg::A3,
            imm: -1,
        },
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::A3,
            rs2: Reg::ZERO,
            offset: -12,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 7,
        },
        Instr::Halt,
    ]
}

fn auth(addr: u32) -> Capability {
    Capability::root_mem_rw()
        .with_address(addr)
        .set_bounds(64)
        .unwrap()
}

fn boot(dispatch: (bool, bool), cow: bool) -> Machine {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    mc.block_cache = dispatch.0;
    mc.block_chain = dispatch.1;
    mc.cow = cow;
    let mut m = Machine::new(mc);
    let e = m.load_program(&prog());
    m.set_entry(e);
    m.cpu.write(Reg::A1, auth(layout::SRAM_BASE + 0x100));
    m.cpu.write(Reg::A2, auth(layout::SRAM_BASE + 0x2000));
    m.cpu.write_int(Reg::A3, 4);
    m.cpu.write_int(Reg::A4, 0xdead_beef);
    m
}

/// Two machines forked from one snapshot, sharing every SRAM page.
fn fork_pair() -> (Machine, Machine) {
    let mut m = boot((true, true), true);
    let snap = m.snapshot();
    let a: Machine = snap.to_machine();
    let b: Machine = snap.to_machine();
    assert!(a.sram.shared_pages() > 0, "forks must share pages");
    assert_eq!(a.sram.shared_pages(), b.sram.shared_pages());
    (a, b)
}

/// One generated mutation: `(kind, page, offset, value)`. Kinds are a
/// scalar store, a capability-word store, `zero_range`, a DMA
/// `write_bytes` and `patch_code`; ranges may straddle pages.
type Op = (u8, u32, u32, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0u32..16, 0u32..PAGE_SIZE, any::<u64>()), 1..24)
}

/// Applies `op` to `m` and returns the SRAM pages it wrote.
fn apply(m: &mut Machine, (kind, page, offset, value): Op) -> Vec<u32> {
    let bank_end = layout::SRAM_BASE + m.sram.size();
    let addr = layout::SRAM_BASE + page * PAGE_SIZE + offset;
    let (lo, len) = match kind {
        0 => {
            let a = addr & !3;
            m.sram.write_scalar(a, 4, value as u32).unwrap();
            (a, 4)
        }
        1 => {
            let a = addr & !7;
            m.sram.write_cap_word(a, value, value & 1 == 1).unwrap();
            (a, 8)
        }
        2 => {
            let len = (1 + (value % 0x2000) as u32).min(bank_end - addr);
            m.sram.zero_range(addr, len).unwrap();
            (addr, len)
        }
        3 => {
            let len = (1 + (value % 64) as u32).min(bank_end - addr);
            let buf: Vec<u8> = (0..len).map(|i| (value >> (i % 8 * 8)) as u8).collect();
            m.dma_write(addr, &buf).unwrap();
            (addr, len)
        }
        _ => {
            let words = (m.code_end() - layout::CODE_BASE) / 4;
            let at = layout::CODE_BASE + 4 * (value % u64::from(words)) as u32;
            m.patch_code(at, Instr::Halt).unwrap();
            return Vec::new();
        }
    };
    let first = (lo - layout::SRAM_BASE) / PAGE_SIZE;
    let last = (lo + len - 1 - layout::SRAM_BASE) / PAGE_SIZE;
    (first..=last).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After a capture, any mix of writes through every mutation path is
    /// undone by one restore, which moves exactly the distinct pages
    /// written; a second restore moves nothing.
    #[test]
    fn restore_moves_exactly_the_written_pages(ops in ops()) {
        let mut m = boot((true, true), true);
        let snap = m.snapshot();
        let captured = m.clone();
        let mut written = BTreeSet::new();
        for &op in &ops {
            written.extend(apply(&mut m, op));
        }
        let before = m.snapshot_stats().pages_copied;
        m.restore_from(&snap);
        prop_assert_eq!(
            m.snapshot_stats().pages_copied - before,
            written.len() as u64,
            "pages written: {:?}",
            written
        );
        prop_assert!(m.sram.content_eq(&captured.sram));
        for a in (layout::CODE_BASE..m.code_end()).step_by(4) {
            prop_assert_eq!(m.code_at(a), captured.code_at(a));
        }
        m.restore_from(&snap);
        prop_assert_eq!(m.snapshot_stats().pages_copied - before, written.len() as u64);
    }

    /// A machine restoring a snapshot of its forked sibling moves only
    /// the pages either of them wrote since the fork: the pair shares
    /// every other handle through the common parent snapshot.
    #[test]
    fn restore_from_sibling_snapshot_moves_only_differing_pages(
        a_ops in ops(),
        b_ops in ops(),
    ) {
        let mut m = boot((true, true), true);
        let parent = m.snapshot();
        let mut a = parent.to_machine();
        let mut b = parent.to_machine();
        let mut differing = BTreeSet::new();
        for &op in &a_ops {
            differing.extend(apply(&mut a, op));
        }
        for &op in &b_ops {
            differing.extend(apply(&mut b, op));
        }
        let b_snap = b.snapshot();
        let before = a.snapshot_stats().pages_copied;
        a.restore_from(&b_snap);
        prop_assert_eq!(
            a.snapshot_stats().pages_copied - before,
            differing.len() as u64,
            "pages written by either sibling: {:?}",
            differing
        );
        prop_assert!(a.sram.content_eq(&b.sram));
        for addr in (layout::CODE_BASE..b.code_end()).step_by(4) {
            prop_assert_eq!(a.code_at(addr), b.code_at(addr));
        }
    }

    /// Scalar writes after a fork are invisible to the sibling, whatever
    /// page they land on: exactly the touched pages CoW-break in the
    /// writer, and the sibling's copy of the word never moves.
    #[test]
    fn write_after_fork_is_isolated(
        page in 0u32..16,
        offset in 0u32..(PAGE_SIZE / 4),
        value in any::<u32>(),
    ) {
        let (mut a, b) = fork_pair();
        let addr = layout::SRAM_BASE + page * PAGE_SIZE + offset * 4;
        let before = b.sram.read_scalar(addr, 4).unwrap();
        a.sram.write_scalar(addr, 4, value).unwrap();
        prop_assert_eq!(a.sram.read_scalar(addr, 4).unwrap(), value);
        prop_assert_eq!(b.sram.read_scalar(addr, 4).unwrap(), before);
        prop_assert!(a.sram.cow_stats().breaks >= 1, "write must break CoW");
        prop_assert_eq!(b.sram.cow_stats().breaks, 0);
        // Writing the same page again is free: it is already unique.
        let breaks = a.sram.cow_stats().breaks;
        a.sram.write_scalar(addr, 4, !value).unwrap();
        prop_assert_eq!(a.sram.cow_stats().breaks, breaks);
    }

    /// Tag writes alone must also break sharing: flipping a granule's tag
    /// in one fork never changes what the sibling's `tag_at` reports.
    #[test]
    fn tag_write_on_shared_page_is_isolated(
        page in 0u32..16,
        granule in 0u32..(PAGE_SIZE / 8),
        word in any::<u64>(),
    ) {
        let (mut a, b) = fork_pair();
        let addr = layout::SRAM_BASE + page * PAGE_SIZE + granule * 8;
        let before = b.sram.tag_at(addr);
        a.sram.write_cap_word(addr, word, !before).unwrap();
        prop_assert_eq!(a.sram.tag_at(addr), !before);
        prop_assert_eq!(b.sram.tag_at(addr), before);
        prop_assert!(a.sram.cow_stats().breaks >= 1);
        prop_assert_eq!(b.sram.cow_stats().breaks, 0);
    }
}

#[test]
fn dma_store_breaks_shared_page_without_perturbing_sibling() {
    let (mut a, mut b) = fork_pair();
    // Plant a tagged capability in the shared image *before* forking is
    // not possible here, so plant it in `b` only and DMA into `a` at the
    // same address: `b`'s tag and bytes must both survive.
    let addr = layout::SRAM_BASE + 0x2000;
    b.sram.write_cap_word(addr, 0x0123_4567, true).unwrap();
    let b_breaks = b.sram.cow_stats().breaks;
    a.dma_write(addr, &0xa5a5_a5a5u32.to_le_bytes()).unwrap();
    assert!(a.sram.cow_stats().breaks >= 1, "DMA must break CoW");
    assert_eq!(a.sram.read_scalar(addr, 4).unwrap(), 0xa5a5_a5a5);
    assert!(!a.sram.tag_at(addr), "DMA store clears the granule tag");
    assert_eq!(b.sram.read_scalar(addr, 4).unwrap(), 0x0123_4567);
    assert!(b.sram.tag_at(addr), "sibling tag must survive the DMA");
    assert_eq!(b.sram.cow_stats().breaks, b_breaks);
}

#[test]
fn patch_code_on_shared_image_is_isolated() {
    let mut m = boot((true, true), true);
    let snap = m.snapshot();
    let mut a: Machine = snap.to_machine();
    let mut b: Machine = snap.to_machine();
    let addr = layout::CODE_BASE;
    a.patch_code(addr, Instr::Halt).unwrap();
    assert_eq!(a.code_at(addr), Some(Instr::Halt));
    assert_eq!(
        b.code_at(addr),
        Some(prog()[0]),
        "sibling code must not see the patch"
    );
    // The unpatched fork still runs the original program to completion.
    assert_eq!(b.run(10_000), ExitReason::Halted(7));
    // The patched fork halts immediately (a0 is still 0 at entry).
    assert_eq!(a.run(10_000), ExitReason::Halted(0));
}

#[test]
fn sibling_restores_cleanly_after_divergence() {
    let mut m = boot((true, true), true);
    let snap = m.snapshot();
    let mut a: Machine = snap.to_machine();
    let mut b: Machine = snap.to_machine();
    // Diverge `a` hard: run to completion, dirtying pages and breaking CoW.
    assert_eq!(a.run(10_000), ExitReason::Halted(7));
    assert!(a.sram.cow_stats().breaks > 0);
    // `b` is untouched and replays to the identical end state.
    assert_eq!(b.run(10_000), ExitReason::Halted(7));
    assert_eq!(a.cpu, b.cpu);
    assert!(a.sram.content_eq(&b.sram));
    // And `a` can be rewound to the fork point afterwards.
    a.restore_from(&snap);
    let fresh: Machine = snap.to_machine();
    assert_eq!(a.cpu, fresh.cpu);
    assert!(a.sram.content_eq(&fresh.sram));
}

/// CoW on/off is architecturally invisible in every dispatch mode: the
/// same program reaches the same CPU state, SRAM image, cycle count and
/// exit status.
#[test]
fn cow_toggle_is_byte_identical_across_dispatch_modes() {
    let mut reference: Option<Machine> = None;
    for dispatch in [(false, false), (true, false), (true, true)] {
        for cow in [true, false] {
            let mut m = boot(dispatch, cow);
            assert_eq!(
                m.run(10_000),
                ExitReason::Halted(7),
                "dispatch {dispatch:?} cow {cow}"
            );
            if let Some(r) = &reference {
                assert_eq!(r.cpu, m.cpu, "dispatch {dispatch:?} cow {cow}: CPU");
                assert!(
                    r.sram.content_eq(&m.sram),
                    "dispatch {dispatch:?} cow {cow}: SRAM"
                );
                assert_eq!(r.cycles, m.cycles, "dispatch {dispatch:?} cow {cow}");
                assert_eq!(r.exit_status(), m.exit_status());
            } else {
                reference = Some(m);
            }
        }
    }
}

/// Under `--no-cow` a fork deep-copies: no page is ever shared, no break
/// is ever counted, and writes are trivially isolated.
#[test]
fn no_cow_forks_are_unique_and_still_isolated() {
    let mut m = boot((true, true), false);
    let snap = m.snapshot();
    let mut a: Machine = snap.to_machine();
    let b: Machine = snap.to_machine();
    assert_eq!(a.sram.shared_pages(), 0);
    assert_eq!(b.sram.shared_pages(), 0);
    let addr = layout::SRAM_BASE + 0x400;
    let before = b.sram.read_scalar(addr, 4).unwrap();
    a.sram.write_scalar(addr, 4, !before).unwrap();
    assert_eq!(a.sram.read_scalar(addr, 4).unwrap(), !before);
    assert_eq!(b.sram.read_scalar(addr, 4).unwrap(), before);
    assert_eq!(a.sram.cow_stats().breaks, 0, "unique pages never break");
}
