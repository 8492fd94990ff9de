//! The memory-mapped device bus: pluggable [`MmioDevice`]s dispatched by
//! 4 KiB base window, plus the interrupt controller that funnels their
//! IRQ lines into the CPU as [`crate::trap::TrapCause::ExternalInterrupt`].
//!
//! The legacy SoC windows (revocation bitmap, machine timer, revoker,
//! GPIO) stay hardwired in [`crate::Machine`]'s MMIO match — they are on
//! hot paths and architecturally entangled with the core (the bitmap
//! backs the load filter, the timer *is* the cycle counter). Everything
//! else dispatches here: a device registers a base window and an optional
//! IRQ line, and the machine routes any word or sub-word access inside
//! that window to it.
//!
//! # Determinism contract
//!
//! Device state mutates **only** inside a device's `read`/`write` (or
//! host-side calls between run slices) — never as a function of wall
//! time. MMIO accesses always take the general (non-fast-path) execution
//! route in every dispatch mode, with the cycle counter synced before
//! dispatch, so all three dispatch loops (stepwise, cached, chained)
//! observe byte-identical device behaviour. A device that wants
//! time-driven behaviour models it *lazily*: derive state from the
//! `now` cycle stamp at access time (see `tick`), never by scheduling
//! work between instructions.
//!
//! # IRQ latching
//!
//! After every bus access the machine re-samples each device's
//! [`MmioDevice::irq_pending`] level and latches newly-risen lines into
//! the controller's pending register. Because levels only move inside
//! bus accesses, latching there is exhaustive — and keeps the chained
//! dispatch loop's register-resident IRQ flag exact.

use crate::machine::Machine;
use std::any::Any;

/// Reserved device id for the interrupt controller itself in trace
/// events and metrics attribution.
pub const INTC_DEV_ID: u32 = 0xffff;

/// An MMIO access no device accepts (unmapped window, bad offset or
/// size). The machine turns it into a bus-error trap at the faulting
/// address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusError;

/// A memory-mapped peripheral. One instance owns one 4 KiB MMIO window.
///
/// `read`/`write` receive the owning [`Machine`] so DMA-capable devices
/// can move memory through [`Machine::dma_read`] / [`Machine::dma_write`]
/// (which preserve the memory-safety invariants: tag clearing, CoW page
/// breaks for snapshots, predecoded-block invalidation). While a device method runs,
/// the machine's bus is detached — devices must not recurse into MMIO.
pub trait MmioDevice: Send {
    /// Stable kebab-case device-kind name ("uart", "dma", ...).
    fn kind(&self) -> &'static str;

    /// Handles a read of `size` bytes at `off` within the window.
    /// `Err(BusError)` becomes a bus error trap.
    fn read(&mut self, m: &mut Machine, off: u32, size: u32) -> Result<u32, BusError>;

    /// Handles a write of `size` bytes at `off` within the window.
    /// `Err(BusError)` becomes a bus error trap.
    fn write(&mut self, m: &mut Machine, off: u32, size: u32, value: u32) -> Result<(), BusError>;

    /// Lazy catch-up hook: called with the current cycle count before
    /// each access so time-modelled devices derive their state from it.
    fn tick(&mut self, _now: u64) {}

    /// Current IRQ level. Sampled after every bus access; a rising edge
    /// latches the device's line into the interrupt controller.
    fn irq_pending(&self) -> bool {
        false
    }

    /// Guest-visible DMA descriptor anchor (ring base) in SRAM, if the
    /// device currently has one — the fault injector aims descriptor
    /// corruption here.
    fn dma_desc_addr(&self) -> Option<u32> {
        None
    }

    /// Deep-copies the device (snapshot/fork support: device state
    /// round-trips through [`crate::Snapshot`] by cloning).
    fn clone_box(&self) -> Box<dyn MmioDevice>;

    /// Downcast hook for host-side access (tests, fault hooks, RX
    /// injection).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The external-interrupt controller: 32 level-latched lines behind a
/// mask, exposed to the guest through three registers in its own MMIO
/// window (when mapped):
///
/// | offset | register | semantics |
/// |--------|----------|-----------|
/// | `+0x0` | PENDING  | read: latched lines; write: W1C ack |
/// | `+0x4` | MASK     | read/write: enabled lines |
/// | `+0x8` | CLAIM    | read: claims (clears + returns) the lowest masked pending line, `0xffff_ffff` if none |
///
/// The CPU sees `(pending & mask) != 0` as the external-interrupt level.
/// Reset mask is 0, so devices raise no interrupts until the guest opts
/// in — which keeps device-oblivious guests byte-identical with or
/// without peripherals attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrqController {
    /// Latched (level-captured) lines, W1C from the guest.
    pub pending: u32,
    /// Enabled lines.
    pub mask: u32,
}

impl IrqController {
    fn read(&mut self, off: u32) -> u32 {
        match off & !3 {
            0x0 => self.pending,
            0x4 => self.mask,
            0x8 => {
                let claimable = self.pending & self.mask;
                if claimable == 0 {
                    u32::MAX
                } else {
                    let line = claimable.trailing_zeros();
                    self.pending &= !(1 << line);
                    line
                }
            }
            _ => 0,
        }
    }

    fn write(&mut self, off: u32, value: u32) {
        match off & !3 {
            0x0 => self.pending &= !value,
            0x4 => self.mask = value,
            _ => {}
        }
    }
}

struct Slot {
    base: u32,
    line: Option<u32>,
    dev: Box<dyn MmioDevice>,
}

/// The device bus: a small table of base-window → device slots plus the
/// [`IrqController`]. Owned by [`Machine`]; cloned wholesale into
/// snapshots so device state round-trips through restore.
#[derive(Default)]
pub struct DeviceBus {
    slots: Vec<Slot>,
    intc_base: Option<u32>,
    /// Interrupt-controller state (pending/mask).
    pub intc: IrqController,
}

impl Clone for DeviceBus {
    fn clone(&self) -> DeviceBus {
        DeviceBus {
            slots: self
                .slots
                .iter()
                .map(|s| Slot {
                    base: s.base,
                    line: s.line,
                    dev: s.dev.clone_box(),
                })
                .collect(),
            intc_base: self.intc_base,
            intc: self.intc,
        }
    }
}

impl std::fmt::Debug for DeviceBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("DeviceBus");
        for s in &self.slots {
            d.field(s.dev.kind(), &format_args!("{:#010x}", s.base));
        }
        d.field("intc", &self.intc).finish()
    }
}

impl DeviceBus {
    /// The default SoC bus: a [`Uart`] on the legacy console window (so
    /// console bytes keep landing in `machine.console`) and the
    /// interrupt controller at [`crate::layout::INTC_BASE`].
    pub fn with_defaults() -> DeviceBus {
        let mut bus = DeviceBus {
            intc_base: Some(crate::machine::layout::INTC_BASE),
            ..DeviceBus::default()
        };
        bus.attach(
            crate::machine::layout::CONSOLE_BASE,
            Some(0),
            Box::new(Uart::new()),
        )
        .expect("default uart window is free");
        bus
    }

    /// Attaches `dev` at `base` (must be `MMIO_SIZE`-aligned and not
    /// collide with a hardwired window, the interrupt controller, or
    /// another device). Returns the device id used in trace events.
    ///
    /// # Errors
    ///
    /// A human-readable description of the conflict.
    pub fn attach(
        &mut self,
        base: u32,
        line: Option<u32>,
        dev: Box<dyn MmioDevice>,
    ) -> Result<u32, String> {
        use crate::machine::layout as l;
        if !base.is_multiple_of(l::MMIO_SIZE) {
            return Err(format!(
                "device `{}` base {base:#010x} is not {:#x}-aligned",
                dev.kind(),
                l::MMIO_SIZE
            ));
        }
        let hardwired = [
            l::REV_BITMAP_BASE,
            l::TIMER_BASE,
            l::REVOKER_BASE,
            l::GPIO_BASE,
        ];
        if hardwired.contains(&base) {
            return Err(format!(
                "device `{}` base {base:#010x} collides with a hardwired SoC window",
                dev.kind()
            ));
        }
        if self.intc_base == Some(base) {
            return Err(format!(
                "device `{}` base {base:#010x} collides with the interrupt controller",
                dev.kind()
            ));
        }
        if let Some(s) = self.slots.iter().find(|s| s.base == base) {
            return Err(format!(
                "device `{}` base {base:#010x} collides with `{}`",
                dev.kind(),
                s.dev.kind()
            ));
        }
        if let Some(n) = line {
            if n >= 32 {
                return Err(format!(
                    "device `{}` irq line {n} out of range (0..32)",
                    dev.kind()
                ));
            }
        }
        self.slots.push(Slot { base, line, dev });
        Ok(self.slots.len() as u32 - 1)
    }

    /// Moves the interrupt-controller window (or unmaps it with `None`).
    ///
    /// # Errors
    ///
    /// When the window collides with an attached device.
    pub fn set_intc_base(&mut self, base: Option<u32>) -> Result<(), String> {
        if let Some(b) = base {
            if self.slots.iter().any(|s| s.base == b) {
                return Err(format!(
                    "interrupt controller base {b:#010x} collides with a device"
                ));
            }
        }
        self.intc_base = base;
        Ok(())
    }

    /// Is any MMIO window (device or interrupt controller) mapped at `base`?
    pub fn maps(&self, base: u32) -> bool {
        self.intc_base == Some(base) || self.slots.iter().any(|s| s.base == base)
    }

    /// `(device id, kind)` of every attached device, plus the interrupt
    /// controller when mapped — for metrics-name registration.
    pub fn device_names(&self) -> Vec<(u32, &'static str)> {
        let mut v: Vec<(u32, &'static str)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.dev.kind()))
            .collect();
        if self.intc_base.is_some() {
            v.push((INTC_DEV_ID, "intc"));
        }
        v
    }

    /// Dispatches a read. `Ok((device id, value))`, or `Err(BusError)` when no
    /// window is mapped at the address or the device rejected the access.
    pub(crate) fn read(
        &mut self,
        m: &mut Machine,
        addr: u32,
        size: u32,
    ) -> Result<(u32, u32), BusError> {
        let base = addr & !(crate::machine::layout::MMIO_SIZE - 1);
        let off = addr & (crate::machine::layout::MMIO_SIZE - 1);
        if self.intc_base == Some(base) {
            return Ok((INTC_DEV_ID, self.intc.read(off)));
        }
        let (i, slot) = self
            .slots
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.base == base)
            .ok_or(BusError)?;
        m.active_dev = i as u32;
        slot.dev.tick(m.cycles);
        let value = slot.dev.read(m, off, size)?;
        Ok((i as u32, value))
    }

    /// Dispatches a write. `Ok(device id)`, or `Err(BusError)` when no window
    /// is mapped or the device rejected the access.
    pub(crate) fn write(
        &mut self,
        m: &mut Machine,
        addr: u32,
        size: u32,
        value: u32,
    ) -> Result<u32, BusError> {
        let base = addr & !(crate::machine::layout::MMIO_SIZE - 1);
        let off = addr & (crate::machine::layout::MMIO_SIZE - 1);
        if self.intc_base == Some(base) {
            self.intc.write(off, value);
            return Ok(INTC_DEV_ID);
        }
        let (i, slot) = self
            .slots
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.base == base)
            .ok_or(BusError)?;
        m.active_dev = i as u32;
        slot.dev.tick(m.cycles);
        slot.dev.write(m, off, size, value)?;
        Ok(i as u32)
    }

    /// Re-samples every device's IRQ level and latches rising edges into
    /// the controller. Returns the newly-latched lines (for trace
    /// attribution).
    pub(crate) fn poll_irqs(&mut self) -> u32 {
        let mut level = 0u32;
        for s in &self.slots {
            if let (Some(line), true) = (s.line, s.dev.irq_pending()) {
                level |= 1 << line;
            }
        }
        let new = level & !self.intc.pending;
        self.intc.pending |= level;
        new
    }

    /// The external-interrupt level the CPU sees.
    #[inline]
    pub fn irq_asserted(&self) -> bool {
        self.intc.pending & self.intc.mask != 0
    }

    /// Device id owning `line`, for trace attribution ([`INTC_DEV_ID`]
    /// when no device claims it — e.g. a spurious injected IRQ).
    pub fn line_owner(&self, line: u32) -> u32 {
        self.slots
            .iter()
            .position(|s| s.line == Some(line))
            .map_or(INTC_DEV_ID, |i| i as u32)
    }

    /// First DMA descriptor anchor reported by any device (fault-injection
    /// target).
    pub fn dma_desc_addr(&self) -> Option<u32> {
        self.slots.iter().find_map(|s| s.dev.dma_desc_addr())
    }

    /// Downcasts the first attached device of concrete type `T`.
    pub fn device_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.slots
            .iter_mut()
            .find_map(|s| s.dev.as_any_mut().downcast_mut::<T>())
    }
}

/// The UART that replaces the magic console vector. Register layout
/// (word offsets; sub-word access allowed on TX):
///
/// | offset | register | semantics |
/// |--------|----------|-----------|
/// | `+0x0` | TXDATA / RXDATA | write: emit low byte to `machine.console`; read: pop one RX byte (0 when empty) |
/// | `+0x4` | STATUS   | read-only: bit0 TX-ready (always 1), bit1 RX-available |
/// | `+0x8` | CTRL     | bit0: RX interrupt enable |
///
/// TX keeps the legacy console contract bit-for-bit: a store of any size
/// whose offset rounds to `+0` pushes `value as u8` into
/// [`Machine::console`] — the same observable byte stream the hardcoded
/// console produced, now through one code path. RX bytes are injected
/// host-side ([`Uart::inject_rx`] / [`Machine::uart_inject_rx`]); with
/// CTRL bit0 set, a non-empty RX FIFO raises the UART's IRQ line.
#[derive(Clone, Debug, Default)]
pub struct Uart {
    rx: std::collections::VecDeque<u8>,
    rx_irq_en: bool,
}

impl Uart {
    /// A UART with an empty RX FIFO and RX interrupts disabled.
    pub fn new() -> Uart {
        Uart::default()
    }

    /// Queues bytes for the guest to read from RXDATA.
    pub fn inject_rx(&mut self, bytes: &[u8]) {
        self.rx.extend(bytes.iter().copied());
    }

    /// Mutable view of the RX FIFO (fault injection flips bits in
    /// flight here).
    pub fn rx_fifo_mut(&mut self) -> &mut std::collections::VecDeque<u8> {
        &mut self.rx
    }
}

impl MmioDevice for Uart {
    fn kind(&self) -> &'static str {
        "uart"
    }

    fn read(&mut self, _m: &mut Machine, off: u32, _size: u32) -> Result<u32, BusError> {
        Ok(match off & !3 {
            0x0 => u32::from(self.rx.pop_front().unwrap_or(0)),
            0x4 => 1 | (u32::from(!self.rx.is_empty()) << 1),
            0x8 => u32::from(self.rx_irq_en),
            _ => 0,
        })
    }

    fn write(&mut self, m: &mut Machine, off: u32, _size: u32, value: u32) -> Result<(), BusError> {
        match off & !3 {
            0x0 => m.console.push(value as u8),
            0x8 => self.rx_irq_en = value & 1 != 0,
            _ => {}
        }
        Ok(())
    }

    fn irq_pending(&self) -> bool {
        self.rx_irq_en && !self.rx.is_empty()
    }

    fn clone_box(&self) -> Box<dyn MmioDevice> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
