//! Exact-sequence tests for the tracing subsystem's machine-level event
//! emission: trap entry, interrupt delivery and posture changes (trap /
//! `mret` / sentry jumps), load-filter strips, and the instruction-ring
//! tracer.

use cheriot_cap::{Capability, OType};
use cheriot_core::insn::{AluOp, Instr, MemWidth, Reg};
use cheriot_core::trace::{EventKind, Tracer};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig, TrapCause};

fn machine() -> Machine {
    Machine::new(MachineConfig::new(CoreModel::ibex()))
}

/// Event kinds on the timeline, in order (the timeline never holds
/// `InstrRetired`, so this is the structural event sequence).
fn kinds(m: &Machine) -> Vec<EventKind> {
    m.tracer()
        .expect("tracer installed")
        .events()
        .iter()
        .map(|e| e.kind)
        .collect()
}

#[test]
fn unvectored_ecall_emits_trap_event_only() {
    // No trap vector installed: the ecall is an unrecoverable fault, but
    // the Trap event must still be emitted (the host heap service relies
    // on seeing syscall traps). Interrupts were never enabled, so no
    // posture event accompanies it.
    let mut m = machine();
    m.set_tracer(Tracer::timeline());
    let prog = vec![Instr::Ecall, Instr::Halt];
    let e = m.load_program(&prog);
    m.set_entry(e);
    let ecall_pc = e;
    assert_eq!(m.run(1_000), ExitReason::Fault(TrapCause::EnvironmentCall));
    assert_eq!(
        kinds(&m),
        vec![EventKind::Trap {
            pc: ecall_pc,
            mcause: 11,
        }]
    );
    let t = m.tracer().unwrap();
    assert_eq!(t.metrics.counter("trap"), 1);
    assert_eq!(t.metrics.counter("interrupt_posture"), 0);
}

/// Spin loop + timer handler (handler just bumps `mtimecmp` far out and
/// `mret`s) with a vectored trap handler and interrupts enabled.
fn vectored_timer_machine() -> Machine {
    let mut m = machine();
    let handler = vec![
        // Push mtimecmp past the horizon so the interrupt fires once.
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A3,
            rs1: Reg::ZERO,
            imm: 2047,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: Reg::A3,
            rs1: Reg::A2,
            offset: 8,
        },
        Instr::Mret,
    ];
    let h = m.load_program(&handler);
    let spin = vec![
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
    ];
    let e = m.load_program(&spin);
    m.set_entry(e);
    m.cpu.mtcc = m.boot_pcc(h);
    m.cpu.write(
        Reg::A2,
        Capability::root_mem_rw().with_address(layout::TIMER_BASE),
    );
    m.cpu.interrupts_enabled = true;
    m.mtimecmp = 40;
    m
}

#[test]
fn timer_interrupt_emits_delivery_and_posture_pair() {
    let mut m = vectored_timer_machine();
    m.set_tracer(Tracer::timeline());
    m.run(1_500);
    assert!(
        m.stats.interrupts >= 1,
        "test must deliver a timer interrupt"
    );

    let ks = kinds(&m);
    // First three structural events: delivery, posture drop on trap
    // entry, posture restore on mret — in exactly that order.
    assert!(ks.len() >= 3, "expected at least 3 events, got {ks:?}");
    match ks[0] {
        EventKind::IrqDelivered { mcause, .. } => assert_eq!(mcause, 0x8000_0007),
        other => panic!("first event must be IrqDelivered, got {other:?}"),
    }
    assert_eq!(ks[1], EventKind::InterruptPosture { enabled: false });
    assert_eq!(ks[2], EventKind::InterruptPosture { enabled: true });

    // Posture events come in balanced disable/enable pairs and the
    // metrics registry counted every delivery.
    let postures: Vec<bool> = ks
        .iter()
        .filter_map(|k| match k {
            EventKind::InterruptPosture { enabled } => Some(*enabled),
            _ => None,
        })
        .collect();
    assert_eq!(postures.len() % 2, 0);
    for pair in postures.chunks(2) {
        assert_eq!(pair, [false, true]);
    }
    let t = m.tracer().unwrap();
    assert_eq!(t.metrics.counter("irq_delivered"), m.stats.interrupts);
}

#[test]
fn sentry_jump_emits_posture_change() {
    // Jumping to an interrupt-disabling forward sentry flips the posture;
    // the matching event must carry the new (disabled) state. The inherit
    // sentry must stay silent.
    let mut m = machine();
    let target = vec![Instr::Halt];
    let h = m.load_program(&target);
    let prog = vec![
        Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.cpu.interrupts_enabled = true;
    let sentry = m.boot_pcc(h).seal_as_sentry(OType::SENTRY_DISABLE).unwrap();
    m.cpu.write(Reg::A1, sentry);
    m.set_tracer(Tracer::timeline());
    assert_eq!(m.run(1_000), ExitReason::Halted(0));
    assert!(!m.cpu.interrupts_enabled);
    assert_eq!(
        kinds(&m),
        vec![EventKind::InterruptPosture { enabled: false }]
    );

    // Same jump through an inherit sentry: no posture change, no event.
    let mut m2 = machine();
    let h2 = m2.load_program(&target);
    let e2 = m2.load_program(&prog);
    m2.set_entry(e2);
    m2.cpu.interrupts_enabled = true;
    let inherit = m2
        .boot_pcc(h2)
        .seal_as_sentry(OType::SENTRY_INHERIT)
        .unwrap();
    m2.cpu.write(Reg::A1, inherit);
    m2.set_tracer(Tracer::timeline());
    assert_eq!(m2.run(1_000), ExitReason::Halted(0));
    assert!(m2.cpu.interrupts_enabled);
    assert_eq!(kinds(&m2), vec![]);
}

#[test]
fn load_filter_strip_emits_event_with_address() {
    // Store a heap capability, revoke its referent, reload: the filter
    // strips the tag and the event names the granule address read.
    let mut m = machine();
    let prog = vec![
        Instr::Csc {
            rs2: Reg::A2,
            rs1: Reg::A1,
            offset: 0,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    let heap_obj = m.cfg().heap_base() + 0x100;
    let granule = layout::SRAM_BASE + 0x40;
    m.cpu.write(
        Reg::A1,
        Capability::root_mem_rw()
            .with_address(granule)
            .set_bounds(8)
            .unwrap(),
    );
    m.cpu.write(
        Reg::A2,
        Capability::root_mem_rw()
            .with_address(heap_obj)
            .set_bounds(32)
            .unwrap(),
    );
    m.set_tracer(Tracer::timeline());
    assert_eq!(m.run(1_000), ExitReason::Halted(0));
    assert_eq!(kinds(&m), vec![], "no strip before revocation");

    m.bitmap.set_range(heap_obj, 32);
    assert!(!m.bus_read_cap(granule).unwrap().tag());
    assert_eq!(kinds(&m), vec![EventKind::FilterStrip { addr: granule }]);
    assert_eq!(m.tracer().unwrap().metrics.counter("filter_strip"), 1);
}

#[test]
fn instr_ring_keeps_last_n_and_counts_all() {
    // An instruction-ring tracer keeps the newest `depth` retires while
    // `recorded()` still counts every event that passed through.
    let mut m = machine();
    let prog = vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            imm: 7,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        },
        Instr::Halt,
    ];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.set_tracer(Tracer::instr_ring(2));
    assert_eq!(m.run(1_000), ExitReason::Halted(9));

    let entries: Vec<_> = m.tracer().unwrap().retired().iter().copied().collect();
    assert_eq!(entries.len(), 2, "ring depth bounds the window");
    assert_eq!(
        entries.last().unwrap().kind,
        EventKind::InstrRetired { pc: e + 12 },
        "the newest retire is the halt"
    );
    assert!(
        entries.windows(2).all(|w| w[0].cycles <= w[1].cycles),
        "entries stay in retirement order"
    );
    let t = m.tracer().unwrap();
    assert_eq!(t.recorded(), 4, "all retires passed through the ring");
    assert_eq!(t.metrics.counter("instr_retired"), 4);
}

#[test]
fn clone_drops_tracer_but_keeps_machine_state() {
    // Machine::clone is used by tests to fork execution; the trace is one
    // machine's history, so the clone starts untraced.
    let mut m = machine();
    let prog = vec![Instr::Halt];
    let e = m.load_program(&prog);
    m.set_entry(e);
    m.set_tracer(Tracer::timeline());
    let fork = m.clone();
    assert!(fork.tracer().is_none());
    assert!(m.tracer().is_some());
}
