//! The trusted compartment switcher (paper §2.6, §5.2).
//!
//! The switcher is the only fully-trusted code in the system (a little over
//! 300 hand-written instructions in the real RTOS). On a cross-compartment
//! call it validates the export sentry, saves callee-saved registers to the
//! trusted stack, *chops* the caller's stack (bounding the callee's stack
//! capability to the unused part), zeroes the portion being handed over,
//! and clears every register not carrying an argument. On return it zeroes
//! the callee's used stack (destroying any ephemeral delegations) and
//! restores the caller.
//!
//! With the stack high-water-mark hardware (§5.2.1) the zeroed region
//! shrinks from "the whole unused stack, twice" to "exactly what was
//! dirtied".

use crate::thread::Thread;
use cheriot_core::{Machine, TrapCause};

// Cost of the switcher fast path, in instruction counts. These model the
// ~300-instruction hand-written switcher: roughly half executes on the
// call path, half on the return path.

/// ALU/control instructions on the call path (validation, trusted-stack
/// bookkeeping, register clearing, bounds derivation).
pub const CALL_INSTRS: u64 = 110;
/// Capability saves to the trusted stack on call.
pub const CALL_CAP_STORES: u64 = 16;
/// ALU/control instructions on the return path.
pub const RET_INSTRS: u64 = 85;
/// Capability restores from the trusted stack on return.
pub const RET_CAP_LOADS: u64 = 16;
/// Extra instructions per call/return when the stack high-water-mark
/// CSRs must be read/written.
pub const HWM_CSR_INSTRS: u64 = 4;

/// Switcher statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchStats {
    /// Cross-compartment calls performed.
    pub calls: u64,
    /// Stack bytes zeroed (calls + returns).
    pub zeroed_bytes: u64,
    /// Cycles spent inside the switcher (including zeroing).
    pub cycles: u64,
}

/// The switcher: cost model + stack-clearing mechanics.
#[derive(Clone, Debug, Default)]
pub struct Switcher {
    /// Accumulated statistics.
    pub stats: SwitchStats,
    /// Compartment invocations that faulted and were unwound.
    pub forced_unwinds: u64,
}

impl Switcher {
    /// Performs the call-path work on `thread`: zeroes the stack region
    /// being handed to the callee and resets the high-water mark.
    ///
    /// Returns the number of bytes zeroed.
    ///
    /// # Errors
    ///
    /// Propagates a trap if the stack capability cannot authorize the
    /// zeroing (indicates a corrupted thread state).
    pub fn on_call(
        &mut self,
        m: &mut Machine,
        thread: &mut Thread,
        hwm_enabled: bool,
    ) -> Result<u32, TrapCause> {
        self.stats.calls += 1;
        self.clear_stack(m, thread, hwm_enabled, CALL_INSTRS, CALL_CAP_STORES)
    }

    /// Performs the return-path work: zeroes what the callee used
    /// (destroying ephemeral delegations and leaked secrets) and restores
    /// the caller's frame.
    ///
    /// # Errors
    ///
    /// As [`Switcher::on_call`].
    pub fn on_return(
        &mut self,
        m: &mut Machine,
        thread: &mut Thread,
        hwm_enabled: bool,
    ) -> Result<u32, TrapCause> {
        self.clear_stack(m, thread, hwm_enabled, RET_INSTRS, RET_CAP_LOADS)
    }

    /// The work both switcher paths share: charges `instrs` plus `cap_ops`
    /// capability moves (and the HWM CSR accesses when that hardware is
    /// present), then zeroes the stack below `sp` that may be dirty and
    /// resets the high-water mark to `sp`. Without the high-water mark
    /// the switcher cannot know what is dirty and must clear the entire
    /// unused portion; with it, only `[hwm, sp)`. Returns the bytes
    /// zeroed.
    fn clear_stack(
        &mut self,
        m: &mut Machine,
        thread: &mut Thread,
        hwm_enabled: bool,
        instrs: u64,
        cap_ops: u64,
    ) -> Result<u32, TrapCause> {
        let t0 = m.cycles;
        let beats = cap_ops * m.cfg().core.cap_beats();
        let mut instrs = instrs + cap_ops;
        if hwm_enabled {
            instrs += HWM_CSR_INSTRS;
        }
        m.advance(instrs, beats);

        let lo = if hwm_enabled {
            thread.hwm.max(thread.stack_base)
        } else {
            thread.stack_base
        };
        let len = thread.sp.saturating_sub(lo);
        if len > 0 {
            m.meter().zero(thread.stack_cap, lo, len)?;
        }
        thread.hwm = thread.sp; // reset: everything below sp is now clean
        self.stats.zeroed_bytes += u64::from(len);
        self.stats.cycles += m.cycles - t0;
        Ok(len)
    }

    /// Charges a thread context switch: full register file save/restore
    /// plus scheduler bookkeeping, plus the two extra HWM CSRs when that
    /// hardware is present (the paper's §7.2.2 observation that HWM makes
    /// the revoker-bound 128 KiB case *slower* on Ibex).
    pub fn context_switch(&mut self, m: &mut Machine, hwm_enabled: bool) {
        let cap_moves = 30; // save 15 + restore 15 capability registers
        let beats = cap_moves * m.cfg().core.cap_beats();
        let mut instrs = cap_moves + 45; // scheduler decision, CSR shuffling
        if hwm_enabled {
            instrs += 2 * HWM_CSR_INSTRS;
        }
        m.advance(instrs, beats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compartment::CompartmentId;
    use crate::thread::{Thread, ThreadId};
    use cheriot_core::{CoreModel, Machine, MachineConfig};

    fn setup() -> (Machine, Thread) {
        let m = Machine::new(MachineConfig::new(CoreModel::ibex()));
        let t = Thread::new(ThreadId(0), 1, 0x2000_1000, 0x2000_2000, CompartmentId(0));
        (m, t)
    }

    #[test]
    fn hwm_reduces_zeroing_on_call() {
        let (mut m, mut t) = setup();
        t.touch_stack(128);
        let mut s = Switcher::default();
        let zeroed = s.on_call(&mut m, &mut t, true).unwrap();
        assert_eq!(zeroed, 128);
        assert_eq!(t.hwm, t.sp);

        // Without HWM the whole unused stack is cleared.
        let (mut m2, mut t2) = setup();
        t2.touch_stack(128);
        let mut s2 = Switcher::default();
        let zeroed2 = s2.on_call(&mut m2, &mut t2, false).unwrap();
        assert_eq!(zeroed2, t2.stack_top - t2.stack_base);
        assert!(m2.cycles > m.cycles, "no-HWM call must cost more");
    }

    #[test]
    fn clean_stack_costs_nothing_to_zero_with_hwm() {
        let (mut m, mut t) = setup();
        let mut s = Switcher::default();
        let zeroed = s.on_call(&mut m, &mut t, true).unwrap();
        assert_eq!(zeroed, 0);
    }

    #[test]
    fn return_zeroes_exactly_callee_usage() {
        let (mut m, mut t) = setup();
        let mut s = Switcher::default();
        s.on_call(&mut m, &mut t, true).unwrap();
        // Callee dirties 200 bytes.
        t.touch_stack(200);
        let zeroed = s.on_return(&mut m, &mut t, true).unwrap();
        assert_eq!(zeroed, 200);
    }

    #[test]
    fn zeroing_really_clears_memory_and_tags() {
        let (mut m, mut t) = setup();
        // Callee wrote a local capability to the stack.
        let slot = t.sp - 64;
        m.meter().store_cap(t.stack_cap, slot, t.stack_cap).unwrap();
        t.touch_stack(64);
        let mut s = Switcher::default();
        s.on_return(&mut m, &mut t, true).unwrap();
        let (word, tag) = m.sram.read_cap_word(slot).unwrap();
        assert_eq!(word, 0);
        assert!(!tag, "ephemeral delegation must be destroyed");
    }

    #[test]
    fn context_switch_with_hwm_costs_more() {
        let (mut m, _) = setup();
        let mut s = Switcher::default();
        let c0 = m.cycles;
        s.context_switch(&mut m, false);
        let plain = m.cycles - c0;
        let c1 = m.cycles;
        s.context_switch(&mut m, true);
        let with_hwm = m.cycles - c1;
        assert!(with_hwm > plain);
    }
}
