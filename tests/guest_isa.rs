//! Guest-code integration tests: programs running on the simulated CPU
//! exercising the architectural features — sentry-based interrupt control
//! (§3.1.2), traps and `mret`, the load filter (§3.3.2), the stack
//! high-water-mark CSRs (§5.2.1), W^X, and unforgeability.

use cheriot::asm::Asm;
use cheriot::cap::{CapFault, Capability, OType, Permissions};
use cheriot::core::insn::{CsrId, Reg};
use cheriot::core::{layout, CoreModel, ExitReason, Machine, MachineConfig, TrapCause};

fn machine() -> Machine {
    Machine::new(MachineConfig::new(CoreModel::ibex()))
}

fn sram_cap(off: u32, len: u64) -> Capability {
    Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE + off)
        .set_bounds(len)
        .unwrap()
}

#[test]
fn bounds_violation_traps() {
    let mut m = machine();
    let mut a = Asm::new();
    a.lw(Reg::A1, 64, Reg::A0); // one past the 64-byte object in a0
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A0, sram_cap(0, 64));
    let r = m.run(1000);
    assert!(
        matches!(
            r,
            ExitReason::Fault(TrapCause::Cheri {
                fault: CapFault::BoundsViolation { .. },
                ..
            })
        ),
        "{r:?}"
    );
}

#[test]
fn trap_handler_resumes_with_mret() {
    let mut m = machine();
    let mut a = Asm::new();
    // Main: fault once, then (resumed past the load) halt with a0 = 7.
    a.li(Reg::A0, 0);
    a.lw(Reg::A1, 0, Reg::A0); // tag violation (a0 is an integer)
    a.li(Reg::A0, 7);
    a.halt();
    // Handler: skip the faulting instruction (mepcc += 4) and return.
    let handler = a.here();
    a.cspecialrw(Reg::T0, cheriot::core::insn::ScrId::Mepcc, Reg::ZERO);
    a.cincaddrimm(Reg::T0, Reg::T0, 4);
    a.cspecialrw(Reg::ZERO, cheriot::core::insn::ScrId::Mepcc, Reg::T0);
    a.mret();
    let handler_off = a.byte_offset(handler).unwrap();
    let prog = a.assemble();
    let entry = m.load_program(&prog);
    m.set_entry(entry);
    m.cpu.mtcc = m.boot_pcc(entry + handler_off);
    let r = m.run(10_000);
    assert_eq!(r, ExitReason::Halted(7));
    assert_eq!(m.stats.traps, 1);
}

#[test]
fn sentries_control_interrupt_posture() {
    let mut m = machine();
    // Globals: flag at +0. Timer MMIO cap in a3.
    let globals = sram_cap(0, 64);
    let timer = Capability::root_mem_rw()
        .with_address(layout::TIMER_BASE)
        .set_bounds(u64::from(layout::MMIO_SIZE))
        .unwrap();

    let mut a = Asm::new();
    // entry: enable interrupts by calling main through an enabling sentry
    // (a5); a4 holds a disabling sentry for the critical section.
    a.cjalr(Reg::RA, Reg::A5); // -> main (interrupts on)
    a.halt(); // never reached

    let main = a.here();
    a.cjalr(Reg::RA, Reg::A4); // -> critical (interrupts off)
                               // Back with interrupts re-enabled: the pending timer interrupt fires
                               // here. Spin until the handler sets the flag.
    let spin = a.here();
    a.lw(Reg::T0, 0, Reg::A2);
    a.beqz(Reg::T0, spin);
    // a0 = s0 * 100 + flag: s0 must still be zero (no interrupt during the
    // critical section).
    a.li(Reg::T1, 100);
    a.mul(Reg::S0, Reg::S0, Reg::T1);
    a.add(Reg::A0, Reg::S0, Reg::T0);
    a.halt();

    let critical = a.here();
    a.li(Reg::T2, 150); // long enough to blow past mtimecmp
    let loop_ = a.here();
    a.lw(Reg::T0, 0, Reg::A2); // watch the flag
    a.add(Reg::S0, Reg::S0, Reg::T0); // accumulate (stays 0 if no handler ran)
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, loop_);
    a.cret();

    let handler = a.here();
    a.li(Reg::T0, 1);
    a.sw(Reg::T0, 0, Reg::A2); // flag = 1
    a.li(Reg::T0, -1);
    a.sw(Reg::T0, 8, Reg::A3); // mtimecmp lo = 0xffff_ffff
    a.sw(Reg::T0, 12, Reg::A3); // mtimecmp hi = 0xffff_ffff
    a.mret();

    let main_i = a.position(main).unwrap() as u32;
    let critical_i = a.position(critical).unwrap() as u32;
    let handler_i = a.position(handler).unwrap() as u32;
    let prog = a.assemble();
    let entry = m.load_program(&prog);
    m.set_entry(entry);

    let code = m.boot_pcc(entry);
    let main_cap = code.with_address(entry + 4 * main_i);
    let crit_cap = code.with_address(entry + 4 * critical_i);
    m.cpu.write(
        Reg::A5,
        main_cap.seal_as_sentry(OType::SENTRY_ENABLE).unwrap(),
    );
    m.cpu.write(
        Reg::A4,
        crit_cap.seal_as_sentry(OType::SENTRY_DISABLE).unwrap(),
    );
    m.cpu.write(Reg::A2, globals);
    m.cpu.write(Reg::A3, timer);
    m.cpu.mtcc = code.with_address(entry + 4 * handler_i);
    m.mtimecmp = 120; // fires while the critical section runs

    let r = m.run(1_000_000);
    assert_eq!(
        r,
        ExitReason::Halted(1),
        "interrupt must be deferred to after the critical section; stats: {:?}",
        m.stats
    );
    assert_eq!(m.stats.interrupts, 1);
}

#[test]
fn wx_enforced_in_guest() {
    let mut m = machine();
    let mut a = Asm::new();
    // Derive a pointer from PCC and try to store through it.
    a.auipcc(Reg::T0, 0);
    a.sw(Reg::ZERO, 0, Reg::T0);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    let r = m.run(1000);
    assert!(
        matches!(
            r,
            ExitReason::Fault(TrapCause::Cheri {
                fault: CapFault::PermissionViolation { .. },
                ..
            })
        ),
        "{r:?}"
    );
}

#[test]
fn forgery_impossible_in_guest() {
    let mut m = machine();
    let mut a = Asm::new();
    // Build the target address as an integer and try to use it.
    a.lui(Reg::T0, 0x20000); // 0x2000_0000
    a.csetaddr(Reg::T1, Reg::T0, Reg::T0); // t0 is untagged: result untagged
    a.cgettag(Reg::A0, Reg::T1);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    assert_eq!(m.run(1000), ExitReason::Halted(0));
}

#[test]
fn load_filter_strips_in_guest() {
    let mut m = machine();
    let heap_base = m.cfg().heap_base();
    // Plant a capability to a heap object in a global slot, then revoke it.
    let obj = Capability::root_mem_rw()
        .with_address(heap_base + 64)
        .set_bounds(32)
        .unwrap();
    let slot = sram_cap(16, 8);
    m.meter().store_cap(slot, slot.base(), obj).unwrap();
    m.bitmap.set_range(heap_base + 64, 32);

    let mut a = Asm::new();
    a.clc(Reg::T0, 0, Reg::A0);
    a.cgettag(Reg::A0, Reg::T0);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A0, slot);
    assert_eq!(m.run(1000), ExitReason::Halted(0));
    assert_eq!(m.stats.filter_strips, 1);
}

#[test]
fn stack_hwm_csr_tracks_stores() {
    let mut m = machine();
    let stack = sram_cap(0x1000, 0x1000); // [base+0x1000, base+0x2000)
    let top = layout::SRAM_BASE + 0x2000;
    let base = layout::SRAM_BASE + 0x1000;

    let mut a = Asm::new();
    // Set mshwmb = base, mshwm = top (the switcher does this per thread).
    a.li(Reg::T0, base as i32);
    a.csrrw(Reg::ZERO, CsrId::Mshwmb, Reg::T0);
    a.li(Reg::T0, top as i32);
    a.csrrw(Reg::ZERO, CsrId::Mshwm, Reg::T0);
    // Store at top-0x100 and top-0x40: the mark tracks the lowest.
    a.sw(Reg::ZERO, -0x100, Reg::A0);
    a.sw(Reg::ZERO, -0x40, Reg::A0);
    a.csrr(Reg::A0, CsrId::Mshwm);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A0, stack.with_address(top));
    let r = m.run(1000);
    assert_eq!(r, ExitReason::Halted(top - 0x100));
}

#[test]
fn seal_and_unseal_in_guest() {
    let mut m = machine();
    let mut a = Asm::new();
    // a0 = object cap, a1 = sealing authority at otype 3.
    a.cseal(Reg::T0, Reg::A0, Reg::A1);
    // Access through the sealed cap must trap, so first verify the type.
    a.raw(cheriot::core::insn::Instr::CGet {
        field: cheriot::core::insn::CapField::Type,
        rd: Reg::T1,
        rs1: Reg::T0,
    });
    a.cunseal(Reg::T2, Reg::T0, Reg::A1);
    a.cgettag(Reg::A0, Reg::T2);
    a.add(Reg::A0, Reg::A0, Reg::T1); // tag(1) + otype(3) = 4
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A0, sram_cap(0, 64));
    m.cpu
        .write(Reg::A1, Capability::root_sealing().with_address(3));
    assert_eq!(m.run(1000), ExitReason::Halted(4));
}

#[test]
fn store_local_enforced_in_guest() {
    let mut m = machine();
    // a0 = globals (no SL), a1 = local capability.
    let globals = sram_cap(0, 64).and_perms(!Permissions::SL);
    let local = sram_cap(0x100, 32).and_perms(!Permissions::GL);
    let mut a = Asm::new();
    a.csc(Reg::A1, 0, Reg::A0);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A0, globals);
    m.cpu.write(Reg::A1, local);
    let r = m.run(1000);
    assert!(
        matches!(
            r,
            ExitReason::Fault(TrapCause::Cheri {
                fault: CapFault::PermissionViolation { needed },
                ..
            }) if needed == Permissions::SL
        ),
        "{r:?}"
    );
}

#[test]
fn return_sentry_restores_posture() {
    // A function called with interrupts enabled, through a disabling
    // sentry, returns with interrupts enabled again — the link register's
    // return sentry carries the caller's posture.
    let mut m = machine();
    let mut a = Asm::new();
    a.cjalr(Reg::RA, Reg::A4); // into the disabled function
    a.halt(); // a0 set by callee path below? No: fall through here.
    let f = a.here();
    a.nop();
    a.cret();
    let idx_f = 2; // f starts after cjalr+halt
    let _ = f;
    let prog = a.assemble();
    let entry = m.load_program(&prog);
    m.set_entry(entry);
    let code = m.boot_pcc(entry);
    m.cpu.write(
        Reg::A4,
        code.with_address(entry + 4 * idx_f)
            .seal_as_sentry(OType::SENTRY_DISABLE)
            .unwrap(),
    );
    m.cpu.interrupts_enabled = true;
    // Step: cjalr (disables), nop, cret (re-enables), halt.
    for _ in 0..2 {
        m.step();
    }
    assert!(!m.cpu.interrupts_enabled, "disabled inside the function");
    for _ in 0..2 {
        m.step();
    }
    assert!(m.cpu.interrupts_enabled, "restored by the return sentry");
}

#[test]
fn guest_console_and_gpio_devices() {
    let mut m = machine();
    let console = Capability::root_mem_rw()
        .with_address(layout::CONSOLE_BASE)
        .set_bounds(u64::from(layout::MMIO_SIZE))
        .unwrap();
    let gpio = Capability::root_mem_rw()
        .with_address(layout::GPIO_BASE)
        .set_bounds(u64::from(layout::MMIO_SIZE))
        .unwrap();
    let mut a = Asm::new();
    // Print "OK" then light LEDs 0b1010 and read the register back.
    a.li(Reg::T0, 'O' as i32);
    a.sw(Reg::T0, 0, Reg::A1);
    a.li(Reg::T0, 'K' as i32);
    a.sw(Reg::T0, 0, Reg::A1);
    a.li(Reg::T0, 0b1010);
    a.sw(Reg::T0, 0, Reg::A2);
    a.lw(Reg::A0, 0, Reg::A2);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A1, console);
    m.cpu.write(Reg::A2, gpio);
    assert_eq!(m.run(1000), ExitReason::Halted(0b1010));
    assert_eq!(m.console, b"OK");
    assert_eq!(m.gpio_out, 0b1010);
    assert_eq!(m.gpio_writes, 1);
}

#[test]
fn guest_needs_a_capability_to_reach_devices() {
    // No ambient MMIO: a compartment without a device capability cannot
    // touch the console, even knowing its address.
    let mut m = machine();
    let mut a = Asm::new();
    a.lui(Reg::T0, 0x82000); // console address as an integer
    a.sw(Reg::ZERO, 0, Reg::T0);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    let r = m.run(1000);
    assert!(
        matches!(
            r,
            ExitReason::Fault(TrapCause::Cheri {
                fault: CapFault::TagViolation,
                ..
            })
        ),
        "{r:?}"
    );
    assert!(m.console.is_empty());
}

#[test]
fn guest_reads_the_cycle_timer() {
    let mut m = machine();
    let timer = Capability::root_mem_rw()
        .with_address(layout::TIMER_BASE)
        .set_bounds(u64::from(layout::MMIO_SIZE))
        .unwrap();
    let mut a = Asm::new();
    a.lw(Reg::T0, 0, Reg::A1); // mtime lo
    for _ in 0..10 {
        a.nop();
    }
    a.lw(Reg::T1, 0, Reg::A1);
    a.sub(Reg::A0, Reg::T1, Reg::T0);
    a.halt();
    let entry = m.load_program(&a.assemble());
    m.set_entry(entry);
    m.cpu.write(Reg::A1, timer);
    let r = m.run(1000);
    let ExitReason::Halted(delta) = r else {
        panic!("{r:?}")
    };
    assert!((10..30).contains(&delta), "elapsed {delta}");
}
