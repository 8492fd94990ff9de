//! The exit compare covers the whole SRAM bank. A byte or a tag that only
//! the engine changed, in a page the program never touches, must be
//! reported at its exact address, and of two differences the lower
//! address is the one reported. Banks of different sizes are reported as
//! such rather than compared over a common prefix.

use cheriot_core::insn::Instr;
use cheriot_core::machine::{layout, Machine, MachineConfig};
use cheriot_core::pipeline::CoreModel;
use cheriot_diff::{compare, generate, run_pair, Golden, Mismatch, Profile, Tweak, DISPATCH_MODES};

/// End of the default SRAM bank. Generated programs only write their
/// data window in the second page, so the pages below this are
/// untouched.
fn sram_end() -> u32 {
    layout::SRAM_BASE + MachineConfig::new(CoreModel::ibex()).sram_size
}

/// Runs seed 1's program on the golden model and the chained Ibex engine,
/// with `tweak` applied to the engine only; returns the checkpoint that
/// caught the divergence and its mismatches.
fn diverge(tweak: Tweak) -> (String, Vec<Mismatch>) {
    let prog = generate(1, &Profile::full());
    let (mode, dispatch) = DISPATCH_MODES[2];
    let d = run_pair(
        &prog,
        CoreModel::ibex(),
        "ibex",
        mode,
        dispatch,
        60_000,
        None,
        Some(tweak),
    )
    .err()
    .expect("an engine-only memory write must diverge");
    (d.checkpoint, d.mismatches)
}

/// `(field, golden, engine)` of each mismatch.
fn fields(mm: &[Mismatch]) -> Vec<(&str, &str, &str)> {
    mm.iter()
        .map(|m| (m.field.as_str(), m.golden.as_str(), m.engine.as_str()))
        .collect()
}

#[test]
fn engine_only_byte_in_an_untouched_high_page_is_reported_at_its_address() {
    let addr = sram_end() - 0x1000 + 0x123;
    let (checkpoint, mm) = diverge(&move |m: &mut Machine| {
        m.sram.write_scalar(addr, 1, 0x5a).unwrap();
    });
    assert!(checkpoint.starts_with("exit@"), "{checkpoint}");
    let field = format!("mem[{addr:#x}]");
    assert_eq!(fields(&mm), [(field.as_str(), "0", "90")]);
}

#[test]
fn tag_only_difference_is_reported_as_a_tag() {
    // The same all-zero word on both sides, tagged on the engine only.
    let addr = sram_end() - 0x800;
    let (checkpoint, mm) = diverge(&move |m: &mut Machine| {
        m.sram.write_cap_word(addr, 0, true).unwrap();
    });
    assert!(checkpoint.starts_with("exit@"), "{checkpoint}");
    let field = format!("tag[{addr:#x}]");
    assert_eq!(fields(&mm), [(field.as_str(), "false", "true")]);
}

#[test]
fn engine_page_written_back_to_zeros_equals_a_never_written_golden_page() {
    // The engine page holds a handle (it was written), the golden page was
    // never allocated: both read as zeros, so the run agrees.
    let prog = generate(1, &Profile::full());
    let (mode, dispatch) = DISPATCH_MODES[2];
    let page = sram_end() - 0x3000;
    let tweak = move |m: &mut Machine| {
        m.sram.write_cap_word(page + 0x40, 0x1234, true).unwrap();
        m.sram.zero_range(page, 0x1000).unwrap();
        let p = ((page - layout::SRAM_BASE) / 0x1000) as usize;
        assert!(m.sram.page_content(p).is_some(), "the write kept a handle");
    };
    let run = run_pair(
        &prog,
        CoreModel::ibex(),
        "ibex",
        mode,
        dispatch,
        60_000,
        None,
        Some(&tweak),
    );
    assert!(run.is_ok(), "{:?}", run.err().map(|d| d.mismatches));
}

#[test]
fn tag_in_an_otherwise_zero_page_is_reported_as_a_tag() {
    // The top granule of the bank: the last tag word of the last page.
    let addr = sram_end() - 8;
    let (checkpoint, mm) = diverge(&move |m: &mut Machine| {
        m.sram.write_scalar(addr - 0x800, 4, 0).unwrap();
        m.sram.write_cap_word(addr, 0, true).unwrap();
    });
    assert!(checkpoint.starts_with("exit@"), "{checkpoint}");
    let field = format!("tag[{addr:#x}]");
    assert_eq!(fields(&mm), [(field.as_str(), "false", "true")]);
}

#[test]
fn lowest_differing_address_is_reported() {
    let (hi, lo) = (sram_end() - 0x10, layout::SRAM_BASE + 0x3_0008);
    let (_, mm) = diverge(&move |m: &mut Machine| {
        m.sram.write_cap_word(hi, 0x77, true).unwrap();
        m.sram.write_cap_word(lo, 0x66, true).unwrap();
    });
    let (mem, tag) = (format!("mem[{lo:#x}]"), format!("tag[{lo:#x}]"));
    assert_eq!(
        fields(&mm),
        [(mem.as_str(), "0", "102"), (tag.as_str(), "false", "true")]
    );
}

#[test]
fn sram_size_disagreement_is_reported_not_prefix_compared() {
    let prog = [Instr::Halt];
    let core = CoreModel::ibex();
    let golden = Golden::new(core, &prog);
    let default = MachineConfig::new(core).sram_size;
    for engine_size in [default / 2, default * 2] {
        let mut cfg = MachineConfig::new(core);
        cfg.sram_size = engine_size;
        cfg.heap_offset = engine_size / 2;
        let mut m = Machine::new(cfg);
        m.load_program(&prog);
        m.set_entry(layout::CODE_BASE);
        let mm = compare(&golden, &m, true);
        let (g, e) = (default.to_string(), engine_size.to_string());
        assert_eq!(fields(&mm), [("sram_size", g.as_str(), e.as_str())]);
    }
}
