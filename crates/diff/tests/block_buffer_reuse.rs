//! Reused block-build buffers carry no state from one build to the next.
//! A code image's store builds every block and promotion of the image in
//! one `BlockBuilder`; here one builder builds every slot of the
//! generated programs, forward and then in reverse with promotions in
//! between, and each result must equal a build from fresh buffers, field
//! by field.

use cheriot_core::blockcache::{Block, BlockBuilder};
use cheriot_core::insn::Instr;
use cheriot_core::{layout, MachineConfig};
use cheriot_diff::{core_models, generate, Profile};

/// Code slots control may reach from the end of `b`: the targets of its
/// final `j` or conditional branch, where a promotion can append a tail.
fn successors(b: &Block) -> Vec<usize> {
    let last = b.insns.last().expect("blocks are never empty");
    let target = |offset: i32| last.pc.wrapping_add(offset as u32);
    let pcs = match last.instr {
        Instr::Jal { offset, .. } => vec![target(offset)],
        Instr::Branch { offset, .. } => vec![last.pc + 4, target(offset)],
        _ => vec![],
    };
    pcs.into_iter()
        .filter_map(|pc| pc.checked_sub(layout::CODE_BASE))
        .map(|off| off as usize / 4)
        .collect()
}

#[test]
fn reused_buffers_build_what_fresh_buffers_build() {
    let mut shared = BlockBuilder::default();
    let (mut built, mut promoted) = (0, 0);
    for seed in 1..=64 {
        let code = generate(seed, &Profile::full()).instrs();
        for (core_name, core) in core_models() {
            for chase in [false, true] {
                let cfg = MachineConfig {
                    block_chain: chase,
                    ..MachineConfig::new(core)
                };
                let at = |slot: usize| format!("seed {seed} {core_name} chase={chase} slot {slot}");
                let mut check_build = |shared: &mut BlockBuilder, slot: usize| {
                    let reused = shared.build(&code, slot, &cfg);
                    let fresh = BlockBuilder::default().build(&code, slot, &cfg);
                    assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{}", at(slot));
                    built += 1;
                    reused.expect("every slot of a CHERI program starts a block")
                };
                let blocks: Vec<Block> = (0..code.len())
                    .map(|slot| check_build(&mut shared, slot))
                    .collect();
                for slot in (0..code.len()).rev() {
                    let head = check_build(&mut shared, slot);
                    for t in successors(&head) {
                        let Some(tail) = blocks.get(t) else { continue };
                        let reused = shared.promote(&head, tail, &core);
                        let fresh = BlockBuilder::default().promote(&head, tail, &core);
                        assert_eq!(
                            format!("{reused:?}"),
                            format!("{fresh:?}"),
                            "{} promoted into slot {t}",
                            at(slot)
                        );
                        promoted += u32::from(reused.is_some());
                    }
                }
            }
        }
    }
    // The corpus exercises both paths in bulk.
    assert!(
        built > 10_000 && promoted > 1_000,
        "{built} builds, {promoted} promotions"
    );
}
