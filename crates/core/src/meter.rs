//! Cycle-charged memory access for natively-modelled TCB code.
//!
//! The RTOS, compartment switcher and heap allocator in this reproduction
//! run as Rust code rather than guest assembly (see DESIGN.md §3). To keep
//! their *costs* faithful, every memory access and every batch of
//! register-register work they perform is charged through this interface at
//! exactly the rates the [`CoreModel`](crate::pipeline::CoreModel) charges
//! guest instructions — including the load filter's strip-on-load, LG/LM
//! attenuation, revoker store snooping, and the stack high-water mark.

use crate::machine::Machine;
use crate::mem::GRANULE;
use crate::trap::TrapCause;
use cheriot_cap::{Capability, Permissions};

/// A cycle-charging view of a [`Machine`] for native TCB code.
///
/// Create with [`Machine::meter`]. All accessors perform full capability
/// checks and return the [`TrapCause`] a guest instruction would raise.
#[derive(Debug)]
pub struct Meter<'a> {
    m: &'a mut Machine,
}

impl Machine {
    /// A cycle-charging accessor for natively-modelled code.
    pub fn meter(&mut self) -> Meter<'_> {
        Meter { m: self }
    }
}

impl<'a> Meter<'a> {
    /// The underlying machine.
    pub fn machine(&mut self) -> &mut Machine {
        self.m
    }

    /// Charges `n` register-register instructions.
    pub fn charge(&mut self, n: u64) {
        let c = self.m.cfg().core.alu_cycles * n;
        self.m.advance(c, 0);
    }

    /// Charges one taken-branch penalty (loop back-edges in native loops).
    pub fn charge_branch(&mut self) {
        let c = self.m.cfg().core.alu_cycles + self.m.cfg().core.branch_taken_penalty;
        self.m.advance(c, 0);
    }

    fn load_cost(&self, bytes: u32) -> (u64, u64) {
        let beats = self.m.cfg().core.beats(bytes);
        (self.m.cfg().core.load_base_extra + beats, beats)
    }

    fn store_cost(&self, bytes: u32) -> (u64, u64) {
        let beats = self.m.cfg().core.beats(bytes);
        (self.m.cfg().core.store_base_extra + beats, beats)
    }

    /// Loads a scalar through `auth`.
    ///
    /// # Errors
    ///
    /// Capability faults and bus errors, exactly as the `lw`/`lh`/`lb`
    /// instructions.
    pub fn load(&mut self, auth: Capability, addr: u32, bytes: u32) -> Result<u32, TrapCause> {
        auth.check_access(addr, bytes, Permissions::LD)?;
        let (cycles, beats) = self.load_cost(bytes);
        self.m.advance(cycles, beats);
        self.m.stats.loads += 1;
        self.m.bus_read(addr, bytes)
    }

    /// Stores a scalar through `auth`.
    ///
    /// # Errors
    ///
    /// As the `sw`/`sh`/`sb` instructions.
    pub fn store(
        &mut self,
        auth: Capability,
        addr: u32,
        bytes: u32,
        value: u32,
    ) -> Result<(), TrapCause> {
        auth.check_access(addr, bytes, Permissions::SD)?;
        let (cycles, beats) = self.store_cost(bytes);
        self.m.advance(cycles, beats);
        self.m.stats.stores += 1;
        self.m.bus_write(addr, bytes, value)
    }

    /// Loads a capability through `auth` (the `clc` instruction): applies
    /// the load filter and LG/LM attenuation, and charges the filter's
    /// load-to-use penalty (TCB code always consumes what it loads).
    ///
    /// # Errors
    ///
    /// As `clc`.
    pub fn load_cap(&mut self, auth: Capability, addr: u32) -> Result<Capability, TrapCause> {
        auth.check_access(addr, GRANULE, Permissions::LD | Permissions::MC)?;
        let beats = self.m.cfg().core.cap_beats();
        let cycles = self.m.cfg().core.load_base_extra
            + beats
            + self
                .m
                .cfg()
                .core
                .load_use_penalty(true, self.m.cfg().load_filter);
        self.m.advance(cycles, beats);
        self.m.stats.cap_loads += 1;
        let c = self.m.bus_read_cap(addr)?;
        Ok(c.attenuated_on_load(auth))
    }

    /// Stores a capability through `auth` (the `csc` instruction),
    /// enforcing the Store-Local rule.
    ///
    /// # Errors
    ///
    /// As `csc`.
    pub fn store_cap(
        &mut self,
        auth: Capability,
        addr: u32,
        c: Capability,
    ) -> Result<(), TrapCause> {
        auth.check_store_cap(addr, c)?;
        let beats = self.m.cfg().core.cap_beats();
        let cycles = self.m.cfg().core.store_base_extra + beats;
        self.m.advance(cycles, beats);
        self.m.stats.cap_stores += 1;
        self.m.bus_write_cap(addr, c)
    }

    /// Zeroes `[addr, addr+len)` through `auth` with a store loop, at the
    /// switcher's zeroing bandwidth (one max-width store per bus beat).
    ///
    /// # Errors
    ///
    /// Capability faults as a store; bus error if the range leaves SRAM.
    pub fn zero(&mut self, auth: Capability, addr: u32, len: u32) -> Result<(), TrapCause> {
        if len == 0 {
            return Ok(());
        }
        auth.check_access(addr, len, Permissions::SD)?;
        let cycles = self.m.cfg().core.zeroing_cycles(len);
        let beats = u64::from(len.div_ceil(self.m.cfg().core.bus_bytes));
        self.m.advance(cycles, beats);
        self.m.sram.zero_range(addr, len)?;
        self.m.revoker.snoop_range(addr, len);
        Ok(())
    }

    /// Charges `words` MMIO word accesses (revocation-bitmap painting).
    pub fn charge_mmio_words(&mut self, words: u64) {
        let per = self.m.cfg().core.store_base_extra + 1;
        // Painting is a read-modify-write plus loop overhead.
        self.m.advance(words * (2 * per + 2), words * 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{layout, MachineConfig};
    use crate::pipeline::CoreModel;

    fn machine(core: CoreModel) -> Machine {
        Machine::new(MachineConfig::new(core))
    }

    fn sram_cap() -> Capability {
        Capability::root_mem_rw()
            .with_address(layout::SRAM_BASE)
            .set_bounds(512 * 1024)
            .unwrap()
    }

    #[test]
    fn load_store_round_trip_charges_cycles() {
        let mut m = machine(CoreModel::ibex());
        let auth = sram_cap();
        let c0 = m.cycles;
        m.meter()
            .store(auth, layout::SRAM_BASE + 16, 4, 0xabcd)
            .unwrap();
        let v = m.meter().load(auth, layout::SRAM_BASE + 16, 4).unwrap();
        assert_eq!(v, 0xabcd);
        assert!(m.cycles > c0);
    }

    #[test]
    fn cap_round_trip_is_pricier_on_ibex() {
        let mut spent = Vec::new();
        for core in [CoreModel::flute(), CoreModel::ibex()] {
            let mut m = machine(core);
            let auth = sram_cap();
            let c0 = m.cycles;
            m.meter()
                .store_cap(auth, layout::SRAM_BASE + 32, auth)
                .unwrap();
            let _ = m.meter().load_cap(auth, layout::SRAM_BASE + 32).unwrap();
            spent.push(m.cycles - c0);
        }
        assert!(spent[1] > spent[0], "ibex {} flute {}", spent[1], spent[0]);
    }

    #[test]
    fn meter_rejects_unauthorized_access() {
        let mut m = machine(CoreModel::ibex());
        let narrow = sram_cap().set_bounds(16).unwrap();
        assert!(m.meter().load(narrow, layout::SRAM_BASE + 16, 4).is_err());
        let ro = sram_cap().and_perms(!Permissions::SD);
        assert!(m.meter().store(ro, layout::SRAM_BASE, 4, 0).is_err());
    }

    #[test]
    fn store_local_rule_enforced() {
        let mut m = machine(CoreModel::ibex());
        let auth_no_sl = sram_cap().and_perms(!Permissions::SL);
        let local = sram_cap().and_perms(!Permissions::GL);
        assert!(m
            .meter()
            .store_cap(auth_no_sl, layout::SRAM_BASE, local)
            .is_err());
        // Global caps store fine without SL.
        assert!(m
            .meter()
            .store_cap(auth_no_sl, layout::SRAM_BASE, sram_cap())
            .is_ok());
        // Local caps store fine *with* SL.
        assert!(m
            .meter()
            .store_cap(sram_cap(), layout::SRAM_BASE, local)
            .is_ok());
    }

    #[test]
    fn zeroing_cost_scales_with_length_and_bus() {
        let mut ibex = machine(CoreModel::ibex());
        let mut flute = machine(CoreModel::flute());
        let auth = sram_cap();
        let (a0, b0) = (ibex.cycles, flute.cycles);
        ibex.meter().zero(auth, layout::SRAM_BASE, 4096).unwrap();
        flute.meter().zero(auth, layout::SRAM_BASE, 4096).unwrap();
        assert!(ibex.cycles - a0 > flute.cycles - b0);
    }

    #[test]
    fn load_filter_strips_in_meter_path() {
        let mut m = machine(CoreModel::ibex());
        let auth = sram_cap();
        let heap_obj = Capability::root_mem_rw()
            .with_address(m.cfg().heap_base() + 64)
            .set_bounds(32)
            .unwrap();
        let slot = layout::SRAM_BASE + 128;
        m.meter().store_cap(auth, slot, heap_obj).unwrap();
        m.bitmap.set_range(m.cfg().heap_base() + 64, 32);
        let loaded = m.meter().load_cap(auth, slot).unwrap();
        assert!(!loaded.tag(), "load filter must strip revoked caps");
        assert_eq!(m.stats.filter_strips, 1);
    }
}
