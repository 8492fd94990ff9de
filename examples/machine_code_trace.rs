//! Binary toolchain demo: assemble a program to machine code, disassemble
//! the listing, load the *binary* into the machine, and trace execution.
//!
//! Run with `cargo run --example machine_code_trace`.

use cheriot::asm::{disassemble, disassemble_words, Asm};
use cheriot::cap::Capability;
use cheriot::core::insn::Reg;
use cheriot::core::trace::{EventKind, Tracer};
use cheriot::core::{layout, CoreModel, ExitReason, Machine, MachineConfig};

fn main() {
    // Fibonacci(12) with a heap... no — with plain registers, plus a
    // capability-bounded table of intermediate values.
    let mut a = Asm::new();
    a.li(Reg::T0, 12); // n
    a.li(Reg::A1, 0); // fib(0)
    a.li(Reg::A2, 1); // fib(1)
    a.cmove(Reg::T1, Reg::A0); // table cursor
    let top = a.here();
    a.add(Reg::A3, Reg::A1, Reg::A2);
    a.mv(Reg::A1, Reg::A2);
    a.mv(Reg::A2, Reg::A3);
    a.sw(Reg::A3, 0, Reg::T1); // table[i] = fib(i+2)
    a.cincaddrimm(Reg::T1, Reg::T1, 4);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.mv(Reg::A0, Reg::A1);
    a.halt();

    // Assemble to machine code.
    let words = a.assemble_binary().expect("encodable");
    println!("assembled {} words of machine code:\n", words.len());
    print!("{}", disassemble_words(layout::CODE_BASE, &words));

    // Load the *binary* (it is decoded by the machine, not the builder).
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    m.set_tracer(Tracer::instr_ring(8));
    let entry = m.load_binary(&words).expect("valid machine code");
    m.set_entry(entry);
    let table = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE)
        .set_bounds(64)
        .unwrap();
    m.cpu.write(Reg::A0, table);

    let r = m.run(10_000);
    println!("\nresult: {r:?} in {} cycles", m.cycles);
    assert_eq!(r, ExitReason::Halted(144), "fib(12) = 144");

    println!("\nlast retired instructions:");
    for ev in m.tracer().expect("tracer installed").retired() {
        if let EventKind::InstrRetired { pc } = ev.kind {
            let instr = m.code_at(pc).expect("retired from loaded code");
            println!(
                "  cycle {:>5}  pc {pc:#010x}  {}",
                ev.cycles,
                disassemble(&instr)
            );
        }
    }

    // The table was filled through the bounded capability.
    let fib10 = m.sram.read_scalar(layout::SRAM_BASE + 4 * 9, 4).unwrap();
    println!("\ntable[9] = {fib10} (fib(11))");
    println!("\nmachine-code trace demo OK");
}
