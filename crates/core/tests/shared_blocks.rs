//! One block store per code image (DESIGN.md §12): machines holding the
//! same code handle share every block one of them built, and dispatch
//! history stays per machine. These tests pin that sharing is
//! architecturally invisible — every fork ends exactly where the stepwise
//! interpreter does — and that the store never serves a block built for
//! other code. (Another build config cannot reach a store: a machine's
//! config is fixed at construction and state never moves across configs.)

use cheriot_cap::Capability;
use cheriot_core::insn::{AluOp, BranchCond, Instr, Reg};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};
use std::sync::Arc;

const DATA: u32 = layout::SRAM_BASE + 0x1000;
const ITERS: u32 = 200;

fn op_imm(op: AluOp, rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm { op, rd, rs1, imm }
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    op_imm(AluOp::Add, rd, rs1, imm)
}

fn branch(cond: BranchCond, rs1: Reg, rs2: Reg, words: i32) -> Instr {
    Instr::Branch {
        cond,
        rs1,
        rs2,
        offset: 4 * words,
    }
}

/// A loop of `s0` iterations counting in `a1`, with a capability load (so
/// the load filter's penalty shows) and a branch that flips once, at
/// `a1 == a2`. Hot enough to promote.
fn hot_loop() -> Vec<Instr> {
    vec![
        /* 0 */ addi(Reg::A1, Reg::A1, 1),
        /* 1 */
        Instr::Clc {
            rd: Reg::T1,
            rs1: Reg::S1,
            offset: 0,
        },
        /* 2 */ branch(BranchCond::Eq, Reg::A1, Reg::A2, 2),
        /* 3 */ addi(Reg::A0, Reg::A0, 3),
        /* 4 */
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            rs2: Reg::A1,
        },
        /* 5 */ branch(BranchCond::Ltu, Reg::A1, Reg::S0, -5),
        /* 6 */ Instr::Halt,
    ]
}

/// The hot loop, loaded and ready at its entry, not yet run.
fn loaded() -> (Machine, u32) {
    loaded_on(MachineConfig::new(CoreModel::ibex()))
}

/// [`loaded`] on a machine built with `cfg`.
fn loaded_on(cfg: MachineConfig) -> (Machine, u32) {
    let mut m = Machine::new(cfg);
    let base = m.load_program(&hot_loop());
    m.set_entry(base);
    m.cpu.write(
        Reg::S1,
        Capability::root_mem_rw()
            .with_address(DATA)
            .set_bounds(64)
            .unwrap(),
    );
    m.cpu.write_int(Reg::A2, 50);
    m.cpu.write_int(Reg::S0, ITERS);
    (m, base)
}

/// Runs `m` to its halt and returns what is architecturally observable.
fn finish(m: &mut Machine) -> (String, u64, u64, u32, [u32; 16]) {
    let exit = m.run(1_000_000);
    let regs = std::array::from_fn(|i| m.cpu.read_int(Reg(i as u8)));
    (
        format!("{exit:?}"),
        m.cycles,
        m.stats.instructions,
        m.cpu.pc(),
        regs,
    )
}

/// The hot loop, loaded on the stepwise tier: the reference every fork
/// must match.
fn stepwise() -> Machine {
    loaded_on(MachineConfig {
        block_cache: false,
        ..MachineConfig::new(CoreModel::ibex())
    })
    .0
}

/// Every block either fork holds from `base` to the end of code,
/// promoted superblocks included, is the same `Arc` in the other, and
/// they hold some.
fn assert_same_blocks(a: &Machine, b: &Machine, base: u32) {
    let mut held = 0;
    for pc in (base..a.code_end()).step_by(4) {
        match (a.cached_block(pc), b.cached_block(pc)) {
            (Some(x), Some(y)) => {
                assert!(Arc::ptr_eq(&x, &y), "block at {pc:#x}");
                held += 1;
            }
            (None, None) => {}
            other => panic!("at {pc:#x} only one fork holds a block: {other:?}"),
        }
    }
    assert_eq!(held, a.blocks_resident());
    assert!(held > 0);
}

#[test]
fn a_second_fork_builds_nothing_and_holds_the_same_blocks() {
    let (mut m, base) = loaded();
    let snap = m.snapshot();
    let mut a = snap.to_machine();
    let mut b = snap.to_machine();
    let want = finish(&mut stepwise());
    assert_eq!(finish(&mut a), want, "first fork");
    assert_eq!(finish(&mut b), want, "second fork");

    let (sa, sb) = (a.block_stats(), b.block_stats());
    assert!(sa.misses > 0 && sa.promotions > 0, "{sa:?}");
    assert_eq!(sa.shared, 0);
    assert_eq!((sb.misses, sb.shared), (0, sa.misses), "{sb:?}");
    assert_eq!(
        sb.promotions, sa.promotions,
        "dispatch history is per machine"
    );
    assert_same_blocks(&a, &b, base);
    // The parent never ran: it holds no block, and would adopt them all.
    assert_eq!(m.blocks_resident(), 0);
    assert_eq!(finish(&mut m), want, "parent");
    assert_eq!(m.block_stats().misses, 0);
}

#[test]
fn a_patched_fork_and_its_siblings_each_run_their_own_code() {
    let (mut m, base) = loaded();
    let snap = m.snapshot();
    let patch = base + 12; // word 3: `a0 += 3` becomes `a0 += 5`
    let want = finish(&mut stepwise());
    let mut patched_ref = stepwise();
    patched_ref
        .patch_code(patch, addi(Reg::A0, Reg::A0, 5))
        .unwrap();
    let want_patched = finish(&mut patched_ref);
    assert_ne!(want, want_patched);

    // The first fork fills the store with the unpatched blocks.
    assert_eq!(finish(&mut snap.to_machine()), want);
    // Fork A patches: its handle unshares and starts an empty store.
    let mut a = snap.to_machine();
    a.patch_code(patch, addi(Reg::A0, Reg::A0, 5)).unwrap();
    assert_eq!(finish(&mut a), want_patched, "patched fork");
    assert!(a.block_stats().misses > 0, "A builds its own blocks");
    // A later fork B still runs the unpatched code, from the store.
    let mut b = snap.to_machine();
    assert_eq!(finish(&mut b), want, "unpatched sibling");
    assert_eq!(b.block_stats().misses, 0);
}

#[test]
fn an_in_place_patch_empties_the_store() {
    // The store fills while a snapshot shares the handle; once the
    // snapshot is gone the handle is unique and a patch edits in place.
    // The store must forget the old blocks: a later fork that misses the
    // patched slot must not be served them.
    let (mut m, base) = loaded();
    let snap = m.snapshot();
    assert_eq!(m.run(500), ExitReason::CycleLimit);
    assert!(m.block_stats().misses > 0);
    drop(snap);
    let patch = base + 12;
    m.patch_code(patch, addi(Reg::A0, Reg::A0, 5)).unwrap();
    m.flush_block_cache();

    // Back to the loop's entry state, now as a fork of a new snapshot.
    let (mut fresh, _) = loaded();
    let want = finish(&mut fresh.clone());
    fresh.patch_code(patch, addi(Reg::A0, Reg::A0, 5)).unwrap();
    m.cpu = fresh.cpu.clone();
    m.cycles = 0;
    m.stats = Default::default();
    let snap = m.snapshot();
    let mut patched_ref = stepwise();
    patched_ref
        .patch_code(patch, addi(Reg::A0, Reg::A0, 5))
        .unwrap();
    let want_patched = finish(&mut patched_ref);
    assert!(want_patched.0.starts_with("Halted"));
    assert_ne!(want, want_patched);
    let mut fork = snap.to_machine();
    let forked = fork.block_stats();
    assert_eq!(finish(&mut fork), want_patched);
    assert_eq!(
        fork.block_stats().shared,
        forked.shared,
        "nothing left to adopt"
    );
    assert!(fork.block_stats().misses > forked.misses);
}

#[test]
fn patching_in_the_instruction_already_there_changes_nothing() {
    // A store of the word already in place (a device rewriting the same
    // code, or a fault flip the decoder ignores) is no edit: the fork
    // keeps its generation and the blocks it shares with its sibling.
    let (mut m, base) = loaded();
    let snap = m.snapshot();
    let (mut a, mut b) = (snap.to_machine(), snap.to_machine());
    let want = finish(&mut stepwise());
    assert_eq!(finish(&mut a), want);
    assert_eq!(finish(&mut b), want);
    let patch = base + 12;
    let current = a.code_at(patch).unwrap();
    let gen = a.code_generation();
    assert_eq!(a.patch_code(patch, current), Ok(current));
    assert_eq!(a.code_generation(), gen);
    assert_eq!(a.block_stats().invalidated, b.block_stats().invalidated);
    assert_same_blocks(&a, &b, base);
}
