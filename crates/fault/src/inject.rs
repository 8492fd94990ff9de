//! Applies a [`FaultPlan`] to a live machine.
//!
//! The injector is polled from the campaign's run loop between execution
//! chunks: every entry whose cycle has been reached is applied directly to
//! the machine's SRAM / revocation bitmap / timer, mimicking a physical
//! upset that the modelled hardware cannot see coming. Application is
//! panic-free: a fault that lands on an address with no suitable target
//! (for example a tag flip over a region holding no capabilities) is
//! recorded as skipped rather than forced.

use crate::plan::{FaultKind, FaultPlan};
use cheriot_core::mem::Sram;
use cheriot_core::Machine;

/// Granule size of tagged memory in bytes.
const GRANULE: u32 = 8;

/// How far (in granules, each direction) a [`FaultKind::TagFlip`] searches
/// for a set tag around its target address. Covers a full 512 KiB SRAM
/// bank so a planned tag fault lands on the *nearest* live capability
/// rather than being skipped when the random target falls in empty memory.
const TAG_SEARCH_GRANULES: u32 = 65_536;

/// How far forward (in granules) a [`FaultKind::CapCorrupt`] scans for a
/// tagged granule (same full-bank rationale as [`TAG_SEARCH_GRANULES`]).
const CAP_SCAN_GRANULES: u32 = 65_536;

/// What actually happened when a fault was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectEffect {
    /// A set tag bit was cleared at the address.
    TagCleared(u32),
    /// A capability word bit was XORed at the address.
    CapBitFlipped {
        /// Granule holding the corrupted capability.
        addr: u32,
        /// Bit position flipped.
        bit: u32,
    },
    /// A revocation-bitmap granule bit was flipped (true = now set).
    BitmapFlipped {
        /// Heap address whose granule bit changed.
        addr: u32,
        /// New value of the bit.
        now_set: bool,
    },
    /// A data-granule bit was XORed.
    DataBitFlipped {
        /// Granule address.
        addr: u32,
        /// Bit position flipped.
        bit: u32,
    },
    /// An interrupt storm began (`mtimecmp` saved and forced to 0).
    StormStarted,
    /// A previously started storm ended (`mtimecmp` restored).
    StormEnded,
    /// `mtimecmp` was pushed to `u64::MAX`.
    IrqDropped,
    /// An instruction word bit was XORed in the code region (and the block
    /// cache's covering blocks invalidated).
    CodeBitFlipped {
        /// Code address of the rewritten instruction.
        addr: u32,
        /// Bit position flipped in the 32-bit encoding.
        bit: u32,
    },
    /// A bit of a live DMA/network descriptor was XORed in SRAM.
    DmaDescFlipped {
        /// Word address within the descriptor that was corrupted.
        addr: u32,
        /// Bit position flipped within that 32-bit word.
        bit: u32,
    },
    /// A spurious device interrupt line was latched.
    SpuriousIrqRaised {
        /// The line that was asserted.
        line: u32,
    },
    /// Latched device interrupt lines were dropped.
    DevIrqsDropped {
        /// The lines that were cleared.
        lines: u32,
    },
    /// A bit of the byte at the head of the UART RX FIFO was XORed.
    UartByteFlipped {
        /// Bit position flipped within the byte.
        bit: u32,
    },
    /// No viable target was found; the fault was a no-op.
    Skipped,
}

/// A log record of one applied (or skipped) fault.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Cycle the injector applied the entry (>= its scheduled cycle).
    pub cycle: u64,
    /// The scheduled fault.
    pub kind: FaultKind,
    /// What happened.
    pub effect: InjectEffect,
}

/// Applies the entries of a [`FaultPlan`] as the machine's cycle counter
/// passes each entry's scheduled cycle.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    next: usize,
    /// Active interrupt storm: `(end_cycle, saved_mtimecmp)`.
    storm: Option<(u64, u64)>,
    /// Log of everything applied so far.
    pub log: Vec<Applied>,
}

impl Injector {
    /// Wraps a plan for execution.
    pub fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            next: 0,
            storm: None,
            log: Vec::new(),
        }
    }

    /// The next cycle at which [`Injector::poll`] has work to do, if any:
    /// the next scheduled entry or the end of an active storm.
    pub fn next_cycle(&self) -> Option<u64> {
        let entry = self.plan.entries.get(self.next).map(|e| e.cycle);
        let storm = self.storm.map(|(end, _)| end);
        match (entry, storm) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True once every entry has been applied and no storm is active.
    pub fn done(&self) -> bool {
        self.next >= self.plan.entries.len() && self.storm.is_none()
    }

    /// Number of faults that actually mutated machine state (skips
    /// excluded).
    pub fn applied(&self) -> u32 {
        self.log
            .iter()
            .filter(|a| a.effect != InjectEffect::Skipped && a.effect != InjectEffect::StormEnded)
            .count() as u32
    }

    /// Applies every entry whose cycle has been reached, and ends any
    /// expired interrupt storm.
    pub fn poll(&mut self, m: &mut Machine) {
        if let Some((end, saved)) = self.storm {
            if m.cycles >= end {
                m.mtimecmp = saved;
                self.storm = None;
                self.log.push(Applied {
                    cycle: m.cycles,
                    kind: FaultKind::IrqStorm { cycles: 0 },
                    effect: InjectEffect::StormEnded,
                });
            }
        }
        while let Some(entry) = self.plan.entries.get(self.next) {
            if entry.cycle > m.cycles {
                break;
            }
            let entry = *entry;
            self.next += 1;
            let effect = self.apply(m, entry.kind);
            self.log.push(Applied {
                cycle: m.cycles,
                kind: entry.kind,
                effect,
            });
        }
    }

    fn apply(&mut self, m: &mut Machine, kind: FaultKind) -> InjectEffect {
        match kind {
            FaultKind::TagFlip { addr } => Self::clear_nearest_tag(m, addr),
            FaultKind::CapCorrupt { addr, bit, .. } => Self::flip_cap_bit(m, addr, bit),
            FaultKind::BitmapFlip { addr } => {
                if !m.bitmap.covers(addr) {
                    return InjectEffect::Skipped;
                }
                let now_set = !m.bitmap.is_revoked(addr);
                if now_set {
                    m.bitmap.set_range(addr, 1);
                } else {
                    m.bitmap.clear_range(addr, 1);
                }
                InjectEffect::BitmapFlipped { addr, now_set }
            }
            FaultKind::DataFlip { addr, bit } => {
                let addr = addr & !(GRANULE - 1);
                if !m.sram.contains(addr, GRANULE) {
                    return InjectEffect::Skipped;
                }
                match m.sram.read_cap_word(addr) {
                    Ok((word, tag)) => {
                        if m.sram.write_cap_word(addr, word ^ (1 << bit), tag).is_err() {
                            return InjectEffect::Skipped;
                        }
                        InjectEffect::DataBitFlipped { addr, bit }
                    }
                    Err(_) => InjectEffect::Skipped,
                }
            }
            FaultKind::IrqStorm { cycles } => {
                // A storm while another storm is active just extends it;
                // the original mtimecmp stays saved.
                let saved = match self.storm {
                    Some((_, s)) => s,
                    None => m.mtimecmp,
                };
                self.storm = Some((m.cycles.saturating_add(cycles), saved));
                m.mtimecmp = 0;
                InjectEffect::StormStarted
            }
            FaultKind::IrqDrop => {
                m.mtimecmp = u64::MAX;
                InjectEffect::IrqDropped
            }
            FaultKind::CodeFlip { addr, bit } => Self::flip_code_bit(m, addr, bit),
            FaultKind::DmaDescFlip { bit } => Self::flip_desc_bit(m, bit),
            FaultKind::DevIrqSpurious { line } => {
                let line = line & 31;
                m.raise_device_irq(1 << line);
                InjectEffect::SpuriousIrqRaised { line }
            }
            FaultKind::DevIrqDrop => {
                let lines = m.bus.intc.pending;
                if lines == 0 {
                    return InjectEffect::Skipped;
                }
                m.drop_device_irq(lines);
                InjectEffect::DevIrqsDropped { lines }
            }
            FaultKind::UartDataFlip { bit } => {
                let bit = bit & 7;
                let Some(uart) = m.bus.device_mut::<cheriot_core::Uart>() else {
                    return InjectEffect::Skipped;
                };
                let Some(head) = uart.rx_fifo_mut().front_mut() else {
                    return InjectEffect::Skipped;
                };
                *head ^= 1 << bit;
                InjectEffect::UartByteFlipped { bit }
            }
        }
    }

    /// XORs one bit of the active DMA/network descriptor ring (resolved
    /// from the device bus at apply time), modelling an SRAM upset on
    /// in-flight device metadata. Skipped when no ring is programmed.
    fn flip_desc_bit(m: &mut Machine, bit: u32) -> InjectEffect {
        let Some(base) = m.dma_desc_addr() else {
            return InjectEffect::Skipped;
        };
        let bit = bit & 127;
        let addr = base.wrapping_add((bit / 32) * 4);
        let bit = bit & 31;
        match m.sram.read_scalar(addr, 4) {
            Ok(word) => {
                if m.sram.write_scalar(addr, 4, word ^ (1 << bit)).is_err() {
                    return InjectEffect::Skipped;
                }
                InjectEffect::DmaDescFlipped { addr, bit }
            }
            Err(_) => InjectEffect::Skipped,
        }
    }

    /// Re-encodes the instruction at `addr`, XORs `bit`, and patches the
    /// decoded result back through [`Machine::patch_code`] — which
    /// invalidates every cached predecoded block covering the address, so
    /// the next execution sees the corrupted instruction. Skipped when the
    /// address holds no instruction or the flipped word no longer decodes.
    /// A flip of a bit the decoder ignores yields the same instruction:
    /// the patch then changes nothing and invalidates nothing, but the
    /// effect is still reported as a flip. Debug-asserts that a patch
    /// that changed the instruction bumped the machine's block-cache
    /// coherence generation.
    fn flip_code_bit(m: &mut Machine, addr: u32, bit: u32) -> InjectEffect {
        let Some(old) = m.code_at(addr) else {
            return InjectEffect::Skipped;
        };
        let Ok(word) = cheriot_core::encode(&old) else {
            return InjectEffect::Skipped;
        };
        let Ok(new) = cheriot_core::decode(word ^ (1 << (bit & 31))) else {
            return InjectEffect::Skipped;
        };
        let generation = m.code_generation();
        if m.patch_code(addr, new).is_err() {
            return InjectEffect::Skipped;
        }
        debug_assert!(
            new == old || m.code_generation() > generation,
            "a patch that changes the instruction must bump the block-cache generation"
        );
        InjectEffect::CodeBitFlipped { addr, bit }
    }

    /// Clears the tag of the tagged granule nearest `addr` (see
    /// [`tag_flip_target`]). Clearing — never forging — keeps the fault
    /// inside what tag-SRAM upsets do to real parts: a flipped set bit. If
    /// no granule in the window holds a capability the fault dissipates.
    fn clear_nearest_tag(m: &mut Machine, addr: u32) -> InjectEffect {
        let Some(a) = tag_flip_target(&m.sram, addr) else {
            return InjectEffect::Skipped;
        };
        match m.sram.read_cap_word(a) {
            Ok((word, _)) if m.sram.write_cap_word(a, word, false).is_ok() => {
                InjectEffect::TagCleared(a)
            }
            _ => InjectEffect::Skipped,
        }
    }

    /// XORs `bit` of the capability word held by the first tagged granule
    /// at or after `addr` (see [`cap_corrupt_target`]; tag preserved), so
    /// the corruption targets a live capability rather than inert data.
    fn flip_cap_bit(m: &mut Machine, addr: u32, bit: u32) -> InjectEffect {
        let Some(a) = cap_corrupt_target(&m.sram, addr) else {
            return InjectEffect::Skipped;
        };
        match m.sram.read_cap_word(a) {
            Ok((word, _)) if m.sram.write_cap_word(a, word ^ (1 << bit), true).is_ok() => {
                InjectEffect::CapBitFlipped { addr: a, bit }
            }
            _ => InjectEffect::Skipped,
        }
    }
}

/// The granule a [`FaultKind::TagFlip`] aimed at `addr` clears: the tagged
/// granule nearest the granule holding `addr`, at most
/// [`TAG_SEARCH_GRANULES`] granules away in either direction. On a tie the
/// higher address wins. `addr` may lie outside the bank; granules outside
/// it are never chosen. Both directions scan packed tag words
/// ([`Sram::untagged_run`], [`Sram::untagged_run_down`]), so a page that
/// holds no handle costs one test and an all-clear word of a written
/// page one load per 64 granules.
pub fn tag_flip_target(sram: &Sram, addr: u32) -> Option<u32> {
    let addr = u64::from(addr & !(GRANULE - 1));
    let (base, end) = (u64::from(sram.base()), sram.end());
    if end == base {
        return None;
    }
    let g = u64::from(GRANULE);
    let (last, window) = (end - g, u64::from(TAG_SEARCH_GRANULES) * g);
    // Forward: the first tagged granule in [max(addr, base), min(addr +
    // window, last)]. The window ends inside the bank, so a run shorter
    // than the window stops on a tag.
    let (lo, hi) = (addr.max(base), (addr + window).min(last));
    let up = if lo <= hi {
        let n = ((hi - lo) / g + 1) as u32;
        let run = sram.untagged_run(lo as u32, n);
        (run < n).then(|| lo + u64::from(run) * g)
    } else {
        None
    };
    // Backward: the last tagged granule in [max(addr - window, base),
    // min(addr, last)].
    let (lo, hi) = (addr.saturating_sub(window).max(base), addr.min(last));
    let down = if lo <= hi {
        let n = ((hi - lo) / g + 1) as u32;
        let run = sram.untagged_run_down(hi as u32, n);
        (run < n).then(|| hi - u64::from(run) * g)
    } else {
        None
    };
    let hit = match (up, down) {
        (Some(u), Some(d)) => Some(if u - addr <= addr - d { u } else { d }),
        (u, d) => u.or(d),
    };
    hit.map(|a| a as u32)
}

/// The granule a [`FaultKind::CapCorrupt`] aimed at `addr` corrupts: the
/// first tagged granule at or after the granule holding `addr`, within
/// [`CAP_SCAN_GRANULES`] granules and the bank. `None` when `addr` lies
/// outside the bank. Scans packed tag words ([`Sram::untagged_run`]),
/// stepping over a page that holds no handle with one test.
pub fn cap_corrupt_target(sram: &Sram, addr: u32) -> Option<u32> {
    let addr = addr & !(GRANULE - 1);
    let run = sram.untagged_run(addr, CAP_SCAN_GRANULES);
    let a = addr.checked_add(run * GRANULE)?;
    (run < CAP_SCAN_GRANULES && sram.tag_at(a)).then_some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CapField, FaultEntry};
    use cheriot_cap::Capability;
    use cheriot_core::layout::SRAM_BASE;
    use cheriot_core::{CoreModel, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig::new(CoreModel::ibex()))
    }

    fn plan_of(entries: Vec<FaultEntry>) -> FaultPlan {
        FaultPlan { seed: 0, entries }
    }

    fn store_cap(m: &mut Machine, addr: u32) -> Capability {
        let cap = Capability::root_mem_rw()
            .with_address(addr + 64)
            .set_bounds(32)
            .unwrap();
        m.sram.write_cap(addr, cap).unwrap();
        cap
    }

    #[test]
    fn tag_flip_clears_nearest_tag() {
        let mut m = machine();
        let site = SRAM_BASE + 0x200;
        store_cap(&mut m, site);
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::TagFlip { addr: site + 0x40 },
        }]));
        inj.poll(&mut m);
        assert_eq!(inj.log[0].effect, InjectEffect::TagCleared(site));
        assert!(!m.sram.tag_at(site));
        assert_eq!(inj.applied(), 1);
    }

    #[test]
    fn tag_flip_with_no_target_skips() {
        let mut m = machine();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::TagFlip { addr: SRAM_BASE },
        }]));
        inj.poll(&mut m);
        assert_eq!(inj.log[0].effect, InjectEffect::Skipped);
        assert_eq!(inj.applied(), 0);
    }

    #[test]
    fn cap_corrupt_flips_exactly_one_bit_and_keeps_tag() {
        let mut m = machine();
        let site = SRAM_BASE + 0x300;
        store_cap(&mut m, site);
        let (before, _) = m.sram.read_cap_word(site).unwrap();
        let bit = CapField::Bounds.bit_range().0; // bit 32
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::CapCorrupt {
                addr: SRAM_BASE,
                field: CapField::Bounds,
                bit,
            },
        }]));
        inj.poll(&mut m);
        let (after, tag) = m.sram.read_cap_word(site).unwrap();
        assert!(tag, "corruption must preserve the tag");
        assert_eq!(before ^ after, 1 << bit);
    }

    #[test]
    fn bitmap_flip_toggles_bit_both_ways() {
        let mut m = machine();
        let heap = MachineConfig::new(CoreModel::ibex());
        let addr = SRAM_BASE + heap.heap_offset;
        assert!(m.bitmap.covers(addr));
        let mut inj = Injector::new(plan_of(vec![
            FaultEntry {
                cycle: 0,
                kind: FaultKind::BitmapFlip { addr },
            },
            FaultEntry {
                cycle: 10,
                kind: FaultKind::BitmapFlip { addr },
            },
        ]));
        inj.poll(&mut m);
        assert!(m.bitmap.is_revoked(addr));
        m.cycles = 10;
        inj.poll(&mut m);
        assert!(!m.bitmap.is_revoked(addr));
        assert_eq!(inj.applied(), 2);
    }

    #[test]
    fn data_flip_preserves_tag_state() {
        let mut m = machine();
        let site = SRAM_BASE + 0x400;
        m.sram.write_scalar(site, 4, 0xdead_beef).unwrap();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::DataFlip { addr: site, bit: 3 },
        }]));
        inj.poll(&mut m);
        assert!(!m.sram.tag_at(site));
        assert_eq!(m.sram.read_scalar(site, 4).unwrap(), 0xdead_beef ^ (1 << 3));
    }

    #[test]
    fn irq_storm_saves_and_restores_mtimecmp() {
        let mut m = machine();
        m.mtimecmp = 0x1234;
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::IrqStorm { cycles: 100 },
        }]));
        inj.poll(&mut m);
        assert_eq!(m.mtimecmp, 0);
        assert_eq!(inj.next_cycle(), Some(100));
        m.cycles = 100;
        inj.poll(&mut m);
        assert_eq!(m.mtimecmp, 0x1234);
        assert!(inj.done());
    }

    #[test]
    fn irq_drop_pushes_mtimecmp_out() {
        let mut m = machine();
        m.mtimecmp = 500;
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::IrqDrop,
        }]));
        inj.poll(&mut m);
        assert_eq!(m.mtimecmp, u64::MAX);
    }

    #[test]
    fn code_flip_rewrites_instruction_and_bumps_generation() {
        use cheriot_core::insn::Instr;
        let mut m = machine();
        let entry = m.load_program(&[Instr::NOP, Instr::Halt]);
        let word = cheriot_core::encode(&Instr::NOP).unwrap();
        // Pick a bit host-side whose flip still decodes, so the injection
        // is guaranteed to apply rather than skip.
        let bit = (0..32u32)
            .find(|b| {
                cheriot_core::decode(word ^ (1 << b))
                    .map(|i| i != Instr::NOP)
                    .unwrap_or(false)
            })
            .expect("some single-bit flip of nop must decode");
        let expect = cheriot_core::decode(word ^ (1 << bit)).unwrap();
        let gen0 = m.code_generation();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::CodeFlip { addr: entry, bit },
        }]));
        inj.poll(&mut m);
        assert_eq!(
            inj.log[0].effect,
            InjectEffect::CodeBitFlipped { addr: entry, bit }
        );
        assert_eq!(m.code_at(entry), Some(expect));
        assert!(
            m.code_generation() > gen0,
            "code patch must advance the block-cache generation"
        );
        assert_eq!(inj.applied(), 1);
    }

    #[test]
    fn code_flip_outside_loaded_code_skips() {
        let mut m = machine();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::CodeFlip {
                addr: SRAM_BASE,
                bit: 0,
            },
        }]));
        inj.poll(&mut m);
        assert_eq!(inj.log[0].effect, InjectEffect::Skipped);
        assert_eq!(inj.applied(), 0);
    }

    #[test]
    fn dma_desc_flip_corrupts_live_ring_and_skips_without_one() {
        let mut m = machine();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::DmaDescFlip { bit: 34 },
        }]));
        inj.poll(&mut m);
        assert_eq!(
            inj.log[0].effect,
            InjectEffect::Skipped,
            "no descriptor ring programmed: must skip"
        );

        // Attach a net device and program a TX ring so the bus reports a
        // live descriptor address, then re-run the same fault.
        let net_base = 0x8800_0000;
        m.bus
            .attach(
                net_base,
                Some(3),
                Box::new(cheriot_soc::NetLoopback::default()),
            )
            .unwrap();
        let ring = SRAM_BASE + 0x6000;
        m.sram.write_scalar(ring, 4, 1).unwrap(); // OWN
        m.sram
            .write_scalar(ring + 4, 4, SRAM_BASE + 0x7000)
            .unwrap();
        m.bus_write(net_base, 4, ring).unwrap(); // TX_BASE
        m.bus_write(net_base + 4, 4, 1).unwrap(); // TX_COUNT
        assert_eq!(m.dma_desc_addr(), Some(ring));
        let before = m.sram.read_scalar(ring + 4, 4).unwrap();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::DmaDescFlip { bit: 34 },
        }]));
        inj.poll(&mut m);
        assert_eq!(
            inj.log[0].effect,
            InjectEffect::DmaDescFlipped {
                addr: ring + 4,
                bit: 2
            }
        );
        assert_eq!(m.sram.read_scalar(ring + 4, 4).unwrap(), before ^ 4);
    }

    #[test]
    fn spurious_irq_latches_into_intc() {
        let mut m = machine();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::DevIrqSpurious { line: 5 },
        }]));
        inj.poll(&mut m);
        assert_eq!(
            inj.log[0].effect,
            InjectEffect::SpuriousIrqRaised { line: 5 }
        );
        assert_eq!(m.bus.intc.pending, 1 << 5);
        // Reset mask is 0, so the glitch is invisible to the core.
        assert!(!m.bus.irq_asserted());
    }

    #[test]
    fn dev_irq_drop_clears_pending_and_skips_when_idle() {
        let mut m = machine();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::DevIrqDrop,
        }]));
        inj.poll(&mut m);
        assert_eq!(inj.log[0].effect, InjectEffect::Skipped);

        m.raise_device_irq(0b101);
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::DevIrqDrop,
        }]));
        inj.poll(&mut m);
        assert_eq!(
            inj.log[0].effect,
            InjectEffect::DevIrqsDropped { lines: 0b101 }
        );
        assert_eq!(m.bus.intc.pending, 0);
    }

    #[test]
    fn uart_data_flip_targets_rx_head_and_skips_when_empty() {
        let mut m = machine();
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::UartDataFlip { bit: 6 },
        }]));
        inj.poll(&mut m);
        assert_eq!(inj.log[0].effect, InjectEffect::Skipped);

        assert!(m.uart_inject_rx(b"ab"));
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 0,
            kind: FaultKind::UartDataFlip { bit: 6 },
        }]));
        inj.poll(&mut m);
        assert_eq!(inj.log[0].effect, InjectEffect::UartByteFlipped { bit: 6 });
        let uart = m.bus.device_mut::<cheriot_core::Uart>().unwrap();
        assert_eq!(
            uart.rx_fifo_mut().iter().copied().collect::<Vec<_>>(),
            vec![b'a' ^ 0x40, b'b'],
            "only the FIFO head byte is corrupted"
        );
    }

    #[test]
    fn entries_wait_for_their_cycle() {
        let mut m = machine();
        let site = SRAM_BASE + 0x500;
        store_cap(&mut m, site);
        let mut inj = Injector::new(plan_of(vec![FaultEntry {
            cycle: 1_000,
            kind: FaultKind::TagFlip { addr: site },
        }]));
        inj.poll(&mut m);
        assert!(inj.log.is_empty());
        assert_eq!(inj.next_cycle(), Some(1_000));
        m.cycles = 1_000;
        inj.poll(&mut m);
        assert_eq!(inj.applied(), 1);
        assert!(inj.done());
    }
}
