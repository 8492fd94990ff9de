//! Snapshot/fork engine tests: a restore must be byte-identical to a
//! fresh boot (same program, same entry), page-wise restores must move
//! only the pages written since the capture, and forks must inherit the
//! predecoded block table.

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, Instr, MemWidth, Reg};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig, Snapshot};

fn machine_with(block_cache: bool) -> Machine {
    let mut mc = MachineConfig::new(CoreModel::ibex());
    mc.block_cache = block_cache;
    Machine::new(mc)
}

/// A straight-line program: two word stores through `A1`/`A2` (dirtying
/// whatever pages those point at), an add, then halt with `a0`.
fn store_prog() -> Vec<Instr> {
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

/// Boots a machine, loads the store program, and points `A1`/`A2` at two
/// different SRAM pages.
fn boot(block_cache: bool) -> Machine {
    let mut m = machine_with(block_cache);
    let e = m.load_program(&store_prog());
    m.set_entry(e);
    m.cpu.write(Reg::A1, auth(layout::SRAM_BASE + 0x100));
    m.cpu.write(Reg::A2, auth(layout::SRAM_BASE + 0x2000));
    m.cpu.write_int(Reg::A4, 0xdead_beef);
    m
}

/// Full architectural equality, field by field.
fn assert_identical(a: &Machine, b: &Machine, what: &str) {
    assert_eq!(a.cpu, b.cpu, "{what}: CPU state diverged");
    assert!(a.sram.content_eq(&b.sram), "{what}: SRAM content diverged");
    assert_eq!(a.bitmap, b.bitmap, "{what}: revocation bitmap diverged");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles diverged");
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(a.console, b.console, "{what}: console diverged");
    assert_eq!(a.gpio_out, b.gpio_out, "{what}: gpio diverged");
    assert_eq!(a.exit_status(), b.exit_status(), "{what}: halt diverged");
}

#[test]
fn restore_is_byte_identical_to_a_fresh_boot() {
    let mut m = boot(true);
    let snap = m.snapshot();
    assert_eq!(m.run(10_000), ExitReason::Halted(7));
    m.restore_from(&snap);
    assert!(
        m.snapshot_stats().pages_copied >= 2,
        "the rewind moved the two pages the run wrote"
    );
    let fresh = boot(true);
    assert_identical(&m, &fresh, "restore vs fresh boot");
    // And the restored machine re-runs to the same end state.
    assert_eq!(m.run(10_000), ExitReason::Halted(7));
    let mut again = boot(true);
    assert_eq!(again.run(10_000), ExitReason::Halted(7));
    assert_identical(&m, &again, "re-run after restore");
}

#[test]
fn restore_replays_identically_in_both_block_cache_modes() {
    for cache in [true, false] {
        let mut m = boot(cache);
        let snap = m.snapshot();
        assert_eq!(m.run(10_000), ExitReason::Halted(7));
        let cycles_first = m.cycles;
        m.restore_from(&snap);
        assert_eq!(m.run(10_000), ExitReason::Halted(7));
        assert_eq!(m.cycles, cycles_first, "cache={cache}: replay cycles");
    }
}

#[test]
fn page_wise_restore_copies_only_written_pages() {
    let mut m = boot(true);
    let snap = m.snapshot();
    assert_eq!(m.run(10_000), ExitReason::Halted(7));
    m.restore_from(&snap);
    let s = m.snapshot_stats();
    assert_eq!(s.restores, 1);
    // The program stores only through A1 (page 0) and A2 (page 2).
    assert_eq!(s.pages_copied, 2, "moved exactly the written pages");
    // Restoring again with nothing written moves nothing.
    m.restore_from(&snap);
    assert_eq!(m.snapshot_stats().pages_copied, 2);
}

#[test]
fn snapshot_into_reuses_buffers_and_round_trips() {
    let mut m = boot(true);
    let mut snap = m.snapshot();
    assert_eq!(m.run(10_000), ExitReason::Halted(7));
    // Re-capture the halted state into the same snapshot, then diverge and
    // restore: the round trip must reproduce the halted state exactly.
    m.snapshot_into(&mut snap);
    let halted = m.clone();
    m.restore_from(&snap);
    assert_identical(&m, &halted, "recapture round trip");
}

#[test]
fn fork_inherits_predecoded_blocks_and_matches() {
    let mut m = boot(true);
    assert_eq!(m.run(10_000), ExitReason::Halted(7));
    assert!(m.blocks_resident() > 0, "the run decoded blocks");
    let resident = m.blocks_resident();
    let snap = m.snapshot();
    let mut fork: Machine = snap.to_machine();
    assert_eq!(
        fork.blocks_resident(),
        resident,
        "fork starts with the snapshot's decoded blocks"
    );
    assert_identical(&fork, &m, "fork vs original");
    // Fork and original stay independent: the fork can be restored and
    // re-run without touching the original.
    fork.restore_from(&snap);
    assert_identical(&fork, &m, "fork restored to capture point");
}

#[test]
fn restore_reinstalls_code_after_divergent_patch() {
    let mut m = boot(true);
    let snap = m.snapshot();
    assert_eq!(m.run(10_000), ExitReason::Halted(7));
    // Diverge the code region (what a code-class fault injection does).
    let addr = layout::CODE_BASE;
    m.patch_code(addr, Instr::Halt).unwrap();
    m.restore_from(&snap);
    assert_eq!(
        m.code_at(addr),
        Some(store_prog()[0]),
        "restore must undo the patch"
    );
    assert_eq!(
        m.run(10_000),
        ExitReason::Halted(7),
        "original program runs"
    );
}

#[test]
fn restore_across_unrelated_machines_is_a_full_copy_but_correct() {
    let mut a = boot(true);
    let snap: Snapshot = a.snapshot();
    let mut b = machine_with(true); // shares no page with `a`
    b.restore_from(&snap);
    assert_identical(&b, &a, "cross-machine restore");
    assert_eq!(
        b.snapshot_stats().pages_copied,
        u64::from(b.sram.num_pages()),
        "no shared handle, so every page moves"
    );
    assert_eq!(b.run(10_000), ExitReason::Halted(7));
}
