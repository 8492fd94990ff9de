//! End-to-end tests of the declarative SoC platform: manifest parsing,
//! booting every bundled manifest through the guest driver, dispatch-mode
//! and snapshot equivalence with live devices, DMA coherence properties
//! (tag clearing, snapshot rollback, block-cache invalidation), and
//! interrupt delivery through the UART → interrupt-controller path.

use cheriot_core::insn::{AluOp, Instr, Reg};
use cheriot_core::{layout, CoreKind, CoreModel, ExitReason, Machine, MachineConfig};
use cheriot_soc::{MachineSpec, NetLoopback};
use cheriot_workloads::soc_demo::{run_soc_demo, SocDemoLayout};
use proptest::prelude::*;

/// Capability-granule size in bytes.
const GRANULE: u32 = 8;

/// The default configuration; a manifest's core replaces its core.
fn ibex() -> MachineConfig {
    MachineConfig::new(CoreModel::ibex())
}

/// The default configuration on the given dispatch tier:
/// `(block_cache, block_chain)`.
fn ibex_mode((block_cache, block_chain): (bool, bool)) -> MachineConfig {
    MachineConfig {
        block_cache,
        block_chain,
        ..ibex()
    }
}

fn layout_of(spec: &MachineSpec) -> SocDemoLayout {
    SocDemoLayout::from_devices(spec.devices.iter().map(|d| (d.kind.as_str(), d.base)))
}

fn bundled_manifests() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/manifests");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("bundled manifest directory")
        .map(|e| {
            let p = e.unwrap().path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 3,
        "expected the bundled default/iot/net manifests, found {out:?}"
    );
    out
}

// ---------------------------------------------------------------- manifests

#[test]
fn toml_manifest_parses_fields_and_devices() {
    let spec = MachineSpec::parse(
        "# platform\n\
         [machine]\n\
         core = \"flute\"\n\
         sram = 0x4_0000\n\
         intc = 0x8500_0000\n\
         \n\
         [[device]]\n\
         kind = \"uart\"\n\
         base = 0x8200_0000\n\
         irq = 0\n\
         \n\
         [[device]]\n\
         kind = \"dma\"\n\
         base = 0x8700_0000\n",
    )
    .unwrap();
    assert_eq!(spec.core, CoreKind::Flute);
    assert_eq!(spec.sram_size, Some(0x4_0000));
    assert_eq!(spec.intc_base, Some(0x8500_0000));
    assert_eq!(spec.devices.len(), 2);
    assert_eq!(spec.devices[0].kind, "uart");
    assert_eq!(spec.devices[0].irq, Some(0));
    assert_eq!(spec.devices[1].kind, "dma");
    assert_eq!(spec.devices[1].base, 0x8700_0000);
    assert_eq!(spec.devices[1].irq, None);
}

#[test]
fn json_manifest_parses_numbers_and_hex_strings() {
    let spec = MachineSpec::parse(
        r#"{"machine": {"core": "ibex", "sram": 262144},
            "devices": [{"kind": "net", "base": "0x88000000", "irq": 3}]}"#,
    )
    .unwrap();
    assert_eq!(spec.core, CoreKind::Ibex);
    assert_eq!(spec.sram_size, Some(262_144));
    assert_eq!(spec.devices.len(), 1);
    assert_eq!(spec.devices[0].base, 0x8800_0000);
    assert_eq!(spec.devices[0].irq, Some(3));

    // Hostile manifests: nesting far past the codec's depth cap is an
    // error, not a stack overflow; `\u` escapes and UTF-8 decode exactly.
    let deep = format!(r#"{{"devices": {}"#, "[".repeat(200_000));
    let err = MachineSpec::parse(&deep).unwrap_err();
    assert!(err.msg.contains("nesting"), "{err}");
    let spec = MachineSpec::parse(r#"{"devices": [{"kind": "u\u0061rt", "base": "0x82000000"}]}"#)
        .unwrap();
    assert_eq!(spec.devices[0].kind, "uart");
    let err = MachineSpec::parse(r#"{"machine": {"core": "ibéx"}}"#).unwrap_err();
    assert!(err.msg.contains("`ibéx`"), "{err}");
}

#[test]
fn manifest_errors_are_reported_with_context() {
    // Unknown device kind surfaces at build time.
    let spec = MachineSpec::parse("[[device]]\nkind = \"gpu\"\nbase = 0x8200_0000\n").unwrap();
    let err = spec.build(ibex()).unwrap_err();
    assert!(err.msg.contains("gpu"), "{err}");

    // Bad TOML carries a line number.
    let err = MachineSpec::parse("[machine]\ncore = \n").unwrap_err();
    assert_eq!(err.line, Some(2), "{err}");

    // Colliding windows are rejected.
    let spec = MachineSpec::parse(
        "[[device]]\nkind = \"uart\"\nbase = 0x8200_0000\n\
         [[device]]\nkind = \"dma\"\nbase = 0x8200_0000\n",
    )
    .unwrap();
    assert!(spec.build(ibex()).is_err());

    // SRAM sizes that would panic `Machine::new` are manifest errors, in
    // both formats: not a granule multiple, a heap half that is not
    // granule-aligned, and a bank that overflows into the MMIO windows.
    for (toml, json, why) in [
        ("12", "12", "multiple of 16"),
        ("8", "8", "multiple of 16"),
        ("0xE000_0000", r#""0xE0000000""#, "run past"),
    ] {
        let err = MachineSpec::parse(&format!("[machine]\nsram = {toml}\n")).unwrap_err();
        assert!(err.msg.contains(why), "toml sram = {toml}: {err}");
        let err = MachineSpec::parse(&format!(r#"{{"machine": {{"sram": {json}}}}}"#)).unwrap_err();
        assert!(err.msg.contains(why), "json sram = {json}: {err}");
    }
    // The same check guards specs built in code.
    let spec = MachineSpec {
        sram_size: Some(12),
        ..MachineSpec::default()
    };
    assert!(spec.build(ibex()).is_err());
}

// ------------------------------------------------------------------- boot

#[test]
fn every_bundled_manifest_boots_and_passes_the_guest_driver() {
    for (name, text) in bundled_manifests() {
        let spec = MachineSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut m = spec.build(ibex()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = run_soc_demo(&mut m, &layout_of(&spec));
        assert!(report.passed(), "{name}: {report:?}");
    }
}

#[test]
fn default_manifest_is_byte_identical_to_plain_machine() {
    let text = include_str!("../manifests/default.toml");
    let spec = MachineSpec::parse(text).unwrap();
    let mut from_manifest = spec.build(ibex()).unwrap();
    let mut plain = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let layout = layout_of(&spec);
    let a = run_soc_demo(&mut from_manifest, &layout);
    let b = run_soc_demo(&mut plain, &layout);
    assert_eq!(a, b);
    assert_eq!(from_manifest.cycles, plain.cycles);
    assert_eq!(from_manifest.stats, plain.stats);
}

// ---------------------------------------------------- dispatch equivalence

fn iot_machine(mode: (bool, bool)) -> (Machine, SocDemoLayout) {
    let spec = MachineSpec::parse(include_str!("../manifests/iot.toml")).unwrap();
    let m = spec.build(ibex_mode(mode)).unwrap();
    (m, layout_of(&spec))
}

#[test]
fn three_mode_dispatch_equivalence_with_active_devices() {
    use cheriot_core::trace::Tracer;
    let modes = [(false, false), (true, false), (true, true)];
    let mut runs = Vec::new();
    for &mode in &modes {
        let (mut m, layout) = iot_machine(mode);
        m.set_tracer(Tracer::timeline());
        let report = run_soc_demo(&mut m, &layout);
        assert!(report.passed(), "mode {mode:?}: {report:?}");
        runs.push((m, report));
    }
    let (s, s_report) = &runs[0];
    for ((m, report), mode) in runs[1..].iter().zip(&modes[1..]) {
        assert_eq!(report, s_report, "mode {mode:?}: report diverged");
        assert_eq!(m.cycles, s.cycles, "mode {mode:?}: cycles diverged");
        assert_eq!(m.stats, s.stats, "mode {mode:?}: stats diverged");
        assert_eq!(m.cpu.pc(), s.cpu.pc(), "mode {mode:?}: PC diverged");
        for i in 0..16u8 {
            let r = Reg(i);
            assert_eq!(
                m.cpu.read(r),
                s.cpu.read(r),
                "mode {mode:?}: register c{i} diverged"
            );
        }
        assert_eq!(
            m.tracer().unwrap().events(),
            s.tracer().unwrap().events(),
            "mode {mode:?}: trace event streams diverged"
        );
    }
}

// ------------------------------------------------------------- snapshots

#[test]
fn snapshot_roundtrip_preserves_live_device_state() {
    let (mut m, layout) = iot_machine((true, true));

    // Park state in every device: console bytes, a pending UART RX FIFO,
    // latched interrupt lines, and a completed net loopback (frame
    // counter, ring pointers).
    let baseline = run_soc_demo(&mut m, &layout);
    assert!(baseline.passed(), "{baseline:?}");
    assert!(m.uart_inject_rx(b"pending"));
    m.raise_device_irq(0b1010);

    let snap = m.snapshot();

    // Perturb everything the snapshot should roll back.
    m.console.extend_from_slice(b"garbage");
    assert_eq!(m.bus_read(layout.uart, 4).unwrap(), u32::from(b'p'));
    m.bus_write(layout::INTC_BASE + 4, 4, 0b1010).unwrap(); // unmask
    m.bus_read(layout::INTC_BASE + 8, 4).unwrap(); // claim a line
    m.restore_from(&snap);

    // Console and interrupt-controller state rolled back.
    assert_eq!(m.console, cheriot_workloads::soc_demo::SOC_DEMO_CONSOLE);
    assert_eq!(m.bus.intc.pending, 0b1010);
    assert_eq!(m.bus.intc.mask, 0);
    // The RX FIFO is intact: the byte consumed after the snapshot is back.
    assert_eq!(m.bus_read(layout.uart + 4, 4).unwrap() & 0b10, 0b10);
    assert_eq!(m.bus_read(layout.uart, 4).unwrap(), u32::from(b'p'));
    // The net device's frame counter survived.
    let net = layout.net.unwrap();
    assert_eq!(m.bus_read(net + 0x14, 4).unwrap(), 1);
}

#[test]
fn mid_run_snapshot_resumes_to_identical_final_state() {
    for mode in [(false, false), (true, false), (true, true)] {
        let (mut m, layout) = iot_machine(mode);
        let entry = m.load_program(&cheriot_workloads::soc_demo_program(&layout));
        m.set_entry(entry);

        // Run partway in small slices, snapshot, then finish.
        while m.cycles < 40 && m.exit_status().is_none() {
            m.run(10);
        }
        let snap = m.snapshot();
        let exit_a = m.run(1_000_000);
        let (cycles_a, console_a, a0_a) = (m.cycles, m.console.clone(), m.cpu.read_int(Reg::A0));

        // Restore and replay: the continuation must be byte-identical.
        m.restore_from(&snap);
        let exit_b = m.run(1_000_000);
        assert_eq!(exit_a, exit_b, "mode {mode:?}");
        assert_eq!(m.cycles, cycles_a, "mode {mode:?}");
        assert_eq!(m.console, console_a, "mode {mode:?}");
        assert_eq!(m.cpu.read_int(Reg::A0), a0_a, "mode {mode:?}");
        assert_eq!(
            exit_a,
            ExitReason::Halted(cheriot_workloads::expected_checksum(&layout)),
            "mode {mode:?}"
        );
    }
}

// ------------------------------------------------------- DMA coherence

/// Plants a capability on every granule of a window, snapshots, DMA-writes
/// `len` bytes at `off` into it, and checks the three coherence
/// obligations: exactly the overlapped granules lose their tags, the bytes
/// land, and the next restore moves exactly the pages the DMA covered
/// (bringing every tag back).
fn dma_window_check(off: u32, len: usize) {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    // The window straddles a page boundary, so some writes cover two pages.
    let window = layout::SRAM_BASE + 0x8000 - 0x80;
    let granules = 40u32;
    for g in 0..granules {
        let a = window + g * GRANULE;
        m.sram
            .write_cap(a, cheriot_cap::Capability::root_mem_rw().with_address(a))
            .unwrap();
    }
    let snap = m.snapshot();
    let dst = window + off;
    let buf: Vec<u8> = (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
        .collect();
    m.dma_write(dst, &buf).unwrap();

    for g in 0..granules {
        let a = window + g * GRANULE;
        let overlaps = a < dst + len as u32 && dst < a + GRANULE;
        assert_eq!(
            m.sram.tag_at(a),
            !overlaps,
            "granule {a:#010x} (dst {dst:#010x} len {len}): tag must be cleared iff overlapped"
        );
    }
    let mut got = vec![0u8; len];
    m.dma_read(dst, &mut got).unwrap();
    assert_eq!(got, buf);
    let covered = (dst + len as u32 - 1) / 4096 - dst / 4096 + 1;
    let before = m.snapshot_stats().pages_copied;
    m.restore_from(&snap);
    assert_eq!(
        m.snapshot_stats().pages_copied - before,
        u64::from(covered),
        "the restore must move exactly the pages the DMA write covered"
    );
    for g in 0..granules {
        assert!(
            m.sram.tag_at(window + g * GRANULE),
            "restore brings tags back"
        );
    }
}

proptest! {
    #[test]
    fn dma_writes_clear_overlapping_tags_and_roll_back(
        off in 0u32..256,
        len in 1usize..128,
    ) {
        dma_window_check(off, len);
    }
}

#[test]
fn dma_into_forked_soc_machine_leaves_sibling_untouched() {
    // Every SoC device stores through `Machine::dma_write`, so this is
    // the one CoW break point device traffic can take: a DMA store into
    // one fork of a shared boot image must not perturb its sibling.
    let spec = MachineSpec::parse(include_str!("../manifests/iot.toml")).unwrap();
    let mut m = spec.build(ibex()).unwrap();
    let snap = m.snapshot();
    let mut a = snap.to_machine();
    let mut b = snap.to_machine();
    assert!(a.sram.shared_pages() > 0, "forks must share the boot image");
    let dst = layout::SRAM_BASE + 0x8000;
    let buf: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(13)).collect();
    a.dma_write(dst, &buf).unwrap();
    assert!(a.sram.cow_stats().breaks >= 1, "DMA must break CoW");
    assert!(
        a.sram.shared_pages() < b.sram.shared_pages(),
        "only the written fork loses sharing"
    );
    let mut got = vec![0u8; buf.len()];
    a.dma_read(dst, &mut got).unwrap();
    assert_eq!(got, buf);
    // The sibling is still byte-identical to the capture point...
    let fresh = snap.to_machine();
    assert!(b.sram.content_eq(&fresh.sram), "sibling diverged");
    assert_eq!(b.sram.cow_stats().breaks, 0);
    // ...and still boots through the full guest demo with live devices.
    let report = run_soc_demo(&mut b, &layout_of(&spec));
    assert!(report.passed(), "{report:?}");
}

#[test]
fn dma_store_into_executed_code_invalidates_covering_blocks() {
    // A spin loop runs hot (cached/chained blocks built), then DMA
    // rewrites its increment instruction mid-run. Every dispatch mode
    // must observe the new instruction on the next iteration — the
    // stepwise loop is the reference the cached modes must match.
    let patched = Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 100,
    };
    let word = cheriot_core::encode(&patched).unwrap();
    let mut finals = Vec::new();
    for mode in [(false, false), (true, false), (true, true)] {
        let mut m = Machine::new(ibex_mode(mode));
        let entry = m.load_program(&[
            Instr::OpImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 1,
            },
            Instr::Jal {
                rd: Reg::ZERO,
                offset: -4,
            },
        ]);
        m.set_entry(entry);
        assert_eq!(m.run(1_000), ExitReason::CycleLimit);

        let gen0 = m.code_generation();
        m.dma_write(entry, &word.to_le_bytes()).unwrap();
        assert!(
            m.code_generation() > gen0,
            "mode {mode:?}: DMA into code must bump the block-cache generation"
        );
        assert_eq!(m.code_at(entry), Some(patched), "mode {mode:?}");

        assert_eq!(m.run(1_000), ExitReason::CycleLimit);
        finals.push((m.cycles, m.cpu.read_int(Reg::A0), m.cpu.pc()));
    }
    assert_eq!(
        finals[0], finals[1],
        "cached dispatch diverged from stepwise"
    );
    assert_eq!(
        finals[0], finals[2],
        "chained dispatch diverged from stepwise"
    );
    // The patched opcode must actually have taken effect: with 100-per-2
    // cycles the counter is far beyond what the original +1 loop reaches.
    assert!(
        finals[0].1 > 10_000,
        "patched increment not observed (a0 = {})",
        finals[0].1
    );
}

#[test]
fn guest_dma_into_code_mid_chain_matches_stepwise() {
    // The guest kicks the DMA engine from inside its loop, rewriting the
    // first word of block `b` while the dispatch loop is mid-chain. The
    // store frees `b`'s entry; the next new block (`x`, first run right
    // after the kick) reuses it. `go`'s link into `b`, recorded before
    // the store, must be dead by then, or the chain would run `x` in
    // `b`'s place. Every dispatch mode must end where stepwise does.
    use cheriot_asm::Asm;
    const DMA: i32 = 0x8700_0000_u32 as i32;
    let src = layout::SRAM_BASE + 0x3000;
    let patched = Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::A3,
        rs1: Reg::A3,
        imm: 100,
    };
    let mut a = Asm::new();
    let (b, lp, go, x) = (a.label(), a.label(), a.label(), a.label());
    a.bind(b);
    a.addi(Reg::A3, Reg::A3, 1); // word 0: the DMA's destination
    a.bltu(Reg::A0, Reg::S0, lp);
    a.halt();
    // Entry (word 3): program the engine's SRC, DST and LEN.
    a.li(Reg::A4, DMA);
    a.csetaddr(Reg::S1, Reg::T0, Reg::A4);
    a.li(Reg::A4, src as i32);
    a.sw(Reg::A4, 0, Reg::S1);
    a.li(Reg::A4, layout::CODE_BASE as i32);
    a.sw(Reg::A4, 4, Reg::S1);
    a.li(Reg::A4, 4);
    a.sw(Reg::A4, 8, Reg::S1);
    a.li(Reg::A5, 1);
    a.li(Reg::A2, 3);
    a.li(Reg::S0, 10);
    a.bind(lp);
    a.addi(Reg::A0, Reg::A0, 1);
    a.bne(Reg::A0, Reg::A2, go);
    a.sw(Reg::A5, 0xc, Reg::S1); // CTRL: copy now (third iteration)
    a.beq(Reg::ZERO, Reg::ZERO, x);
    a.bind(go);
    a.j(b);
    a.bind(x);
    a.addi(Reg::A1, Reg::A1, 1);
    a.j(lp);
    let program = a.assemble();

    let mut finals = Vec::new();
    for mode in [(false, false), (true, false), (true, true)] {
        let (mut m, _) = iot_machine(mode);
        m.sram
            .write_scalar(src, 4, cheriot_core::encode(&patched).unwrap())
            .unwrap();
        let base = m.load_program(&program);
        assert_eq!(base, layout::CODE_BASE);
        m.set_entry(base + 12);
        let exit = m.run(1_000_000);
        assert_eq!(m.code_at(base), Some(patched), "mode {mode:?}");
        let regs: Vec<u32> = [Reg::A0, Reg::A1, Reg::A3]
            .iter()
            .map(|&r| m.cpu.read_int(r))
            .collect();
        finals.push((exit, m.cycles, m.stats, m.cpu.pc(), regs));
    }
    assert_eq!(
        finals[0], finals[1],
        "cached dispatch diverged from stepwise"
    );
    assert_eq!(
        finals[0], finals[2],
        "chained dispatch diverged from stepwise"
    );
    assert_eq!(
        finals[0].4,
        [10, 1, 2 + 7 * 100],
        "the patch took effect mid-loop"
    );
}

#[test]
fn guest_dma_into_the_running_block_matches_stepwise() {
    // A 5-iteration loop whose first block kicks the DMA engine to copy
    // `addi a3, a3, 100` over the block's next instruction
    // (`addi a3, a3, 1`). The dispatch loop holds that block while the
    // store lands, so the invalidation cannot free it: the pass must end
    // after the kick and the held block must be dropped, or the rest of
    // the pass runs the old instruction and the stale block goes back
    // into its entry. Stepwise adds 100 on every iteration.
    use cheriot_asm::Asm;
    const DMA: u32 = 0x8700_0000;
    let src = layout::SRAM_BASE + 0x3000;
    let (old, patched) = (addi(Reg::A3, 1), addi(Reg::A3, 100));
    let mut a = Asm::new();
    let lp = a.label();
    a.li(Reg::A5, 1);
    a.li(Reg::S0, 5);
    a.bind(lp);
    a.sw(Reg::A5, 0xc, Reg::S1); // CTRL: copy now
    a.raw(old); // the DMA's destination
    a.addi(Reg::A0, Reg::A0, 1);
    a.bltu(Reg::A0, Reg::S0, lp);
    a.halt();
    let program = a.assemble();
    let dst = 4 * program.iter().position(|&i| i == old).unwrap() as u32;

    let mut finals = Vec::new();
    for mode in [(false, false), (true, false), (true, true)] {
        let (mut m, _) = iot_machine(mode);
        m.sram
            .write_scalar(src, 4, cheriot_core::encode(&patched).unwrap())
            .unwrap();
        let base = m.load_program(&program);
        for (off, value) in [(0x0, src), (0x4, base + dst), (0x8, 4)] {
            m.bus_write(DMA + off, 4, value).unwrap();
        }
        let dma = m.cpu.read(Reg::T0).with_address(DMA);
        m.cpu.write(Reg::S1, dma);
        m.set_entry(base);
        let exit = m.run(1_000_000);
        assert_eq!(m.code_at(base + dst), Some(patched), "mode {mode:?}");
        finals.push((exit, m.cycles, m.stats, m.cpu.pc(), m.cpu.read_int(Reg::A3)));
    }
    assert_eq!(finals[0].4, 500, "stepwise runs the patched instruction");
    assert_eq!(
        finals[0], finals[1],
        "cached dispatch diverged from stepwise"
    );
    assert_eq!(
        finals[0], finals[2],
        "chained dispatch diverged from stepwise"
    );
}

/// `addi rd, rd, imm`.
fn addi(rd: Reg, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1: rd,
        imm,
    }
}

// ------------------------------------------------------------ interrupts

#[test]
fn uart_rx_interrupt_delivered_through_the_intc() {
    use cheriot_asm::Asm;
    let modes = [(false, false), (true, false), (true, true)];
    let mut finals = Vec::new();
    for &mode in &modes {
        let mut m = Machine::new(ibex_mode(mode));

        // Handler: drain the RX byte first (the UART's level drops), then
        // claim — claiming before draining would let the still-high level
        // re-latch the line and re-enter the handler after mret.
        let mut h = Asm::new();
        h.lw(Reg::A3, 0, Reg::A2); // RXDATA
        h.lw(Reg::A1, 8, Reg::S1); // CLAIM
        h.mret();
        let hv = m.load_program(&h.assemble());

        // Main: point s1 at the intc and a2 at the UART, enable the RX
        // interrupt (UART CTRL bit0, intc mask line 0), then spin.
        let mut a = Asm::new();
        a.li(Reg::A5, layout::INTC_BASE as i32);
        a.csetaddr(Reg::S1, Reg::T0, Reg::A5);
        a.li(Reg::A5, layout::CONSOLE_BASE as i32);
        a.csetaddr(Reg::A2, Reg::T0, Reg::A5);
        a.li(Reg::A5, 1);
        a.sw(Reg::A5, 8, Reg::A2); // UART CTRL: RX irq enable
        a.sw(Reg::A5, 4, Reg::S1); // intc MASK: line 0
        let spin = a.label();
        a.bind(spin);
        a.addi(Reg::A0, Reg::A0, 1);
        a.j(spin);
        let entry = m.load_program(&a.assemble());
        m.set_entry(entry);
        m.cpu.mtcc = m.boot_pcc(hv);
        m.cpu.interrupts_enabled = true;

        assert_eq!(m.run(200), ExitReason::CycleLimit);
        assert!(m.uart_inject_rx(b"Z"));
        assert_eq!(m.run(200), ExitReason::CycleLimit);

        assert_eq!(m.cpu.read_int(Reg::A1), 0, "claim must return line 0");
        assert_eq!(m.cpu.read_int(Reg::A3), u32::from(b'Z'));
        assert_eq!(m.bus.intc.pending, 0, "level dropped after RX drain");
        assert!(
            m.stats.interrupts >= 1,
            "mode {mode:?}: external interrupt not delivered"
        );
        finals.push((m.cycles, m.cpu.pc(), m.cpu.read_int(Reg::A0), m.stats));
    }
    assert_eq!(finals[0], finals[1], "cached mode diverged");
    assert_eq!(finals[0], finals[2], "chained mode diverged");
}

#[test]
fn masked_devices_leave_oblivious_guests_untouched() {
    // A guest that never programs the intc must run byte-identically with
    // and without extra devices latching interrupt levels.
    let (mut with_devices, _) = iot_machine((true, true));
    let mut plain = Machine::new(ibex());
    with_devices.uart_inject_rx(b"x"); // UART CTRL off: level stays low
    with_devices.raise_device_irq(0b100); // latched, but mask = 0

    for m in [&mut with_devices, &mut plain] {
        let entry = m.load_program(&[
            Instr::OpImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 3,
            },
            Instr::Jal {
                rd: Reg::ZERO,
                offset: -4,
            },
        ]);
        m.set_entry(entry);
        m.run(5_000);
    }
    assert_eq!(with_devices.cycles, plain.cycles);
    assert_eq!(with_devices.stats, plain.stats);
    assert_eq!(
        with_devices.cpu.read_int(Reg::A0),
        plain.cpu.read_int(Reg::A0)
    );
}

#[test]
fn net_loopback_reports_descriptor_anchor_for_fault_injection() {
    let (mut m, layout) = iot_machine((true, true));
    assert_eq!(m.dma_desc_addr(), None);
    let net = layout.net.unwrap();
    m.bus_write(net, 4, layout::SRAM_BASE + 0x3000).unwrap();
    m.bus_write(net + 4, 4, 1).unwrap();
    assert_eq!(m.dma_desc_addr(), Some(layout::SRAM_BASE + 0x3000));
    assert!(m.bus.device_mut::<NetLoopback>().is_some());
}
