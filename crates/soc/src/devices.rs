//! The bundled MMIO devices: a LiteX-style 32-bit timer, a DMA engine,
//! and a loopback network interface with TX/RX descriptor rings in SRAM.
//!
//! (The UART lives in `cheriot-core` — it backs the legacy console
//! window and the core must be able to construct it without this crate.)
//!
//! All devices follow the bus determinism contract
//! (`cheriot_core::bus`): state mutates only inside `read`/`write`
//! dispatches or is derived lazily from the cycle stamp `tick` delivers,
//! never from host wall time, so all three dispatch modes observe
//! byte-identical device behaviour.

use cheriot_core::bus::{BusError, MmioDevice};
use cheriot_core::machine::Machine;
use std::any::Any;

/// Largest single DMA copy the engine accepts, bounding host memory for
/// the staging buffer. Transfers above this set the error bit.
pub const DMA_MAX_LEN: u32 = 64 * 1024;

/// Largest network frame the loopback interface moves per descriptor.
pub const NET_MAX_FRAME: u32 = 2048;

/// Size of one network descriptor in SRAM (see [`NetLoopback`]).
pub const NET_DESC_SIZE: u32 = 16;

// --- LiteX-style timer -------------------------------------------------------

/// A LiteX-`timer0`-style 32-bit countdown timer, modelled *lazily*: the
/// current value and the zero-event count are pure functions of the
/// enable-time cycle stamp and the cycle counter at access time, so the
/// device carries no per-cycle state.
///
/// | offset | register | semantics |
/// |--------|-----------|-----------|
/// | `+0x00` | LOAD        | start value loaded when EN rises |
/// | `+0x04` | RELOAD      | periodic reload value (0 = one-shot) |
/// | `+0x08` | EN          | bit0: enable (rising edge latches LOAD) |
/// | `+0x0c` | UPDATE      | write 1: latch current value into VALUE |
/// | `+0x10` | VALUE       | last latched counter value (RO) |
/// | `+0x14` | EV_STATUS   | bit0: zero event level (RO) |
/// | `+0x18` | EV_PENDING  | bit0: zero event, W1C |
/// | `+0x1c` | EV_ENABLE   | bit0: route the event to the IRQ line |
///
/// The zero event is latched into the interrupt controller at the first
/// bus access after the wrap (device IRQ levels are only re-sampled on
/// bus accesses — the determinism contract). Guests needing exact-cycle
/// wakeups use the hardwired machine timer; this device is for polled
/// timing and rate measurement.
#[derive(Clone, Debug, Default)]
pub struct LiteTimer {
    load: u32,
    reload: u32,
    en: bool,
    /// Cycle stamp when EN last rose.
    en_since: u64,
    /// Latched VALUE register.
    value: u32,
    /// Zero-wraps acknowledged via EV_PENDING W1C.
    acked_wraps: u64,
    ev_enable: bool,
    /// Cycle stamp of the most recent `tick`.
    now: u64,
}

impl LiteTimer {
    /// A disabled timer with all registers zero.
    pub fn new() -> LiteTimer {
        LiteTimer::default()
    }

    /// Counter value at cycle `now`.
    fn value_at(&self, now: u64) -> u32 {
        if !self.en {
            return self.load;
        }
        let elapsed = now.saturating_sub(self.en_since);
        let start = u64::from(self.load);
        if elapsed <= start {
            return (start - elapsed) as u32;
        }
        if self.reload == 0 {
            return 0;
        }
        let period = u64::from(self.reload) + 1;
        (u64::from(self.reload) - (elapsed - start - 1) % period) as u32
    }

    /// Zero events since EN rose, at cycle `now`.
    fn wraps_at(&self, now: u64) -> u64 {
        if !self.en {
            return 0;
        }
        let elapsed = now.saturating_sub(self.en_since);
        let start = u64::from(self.load);
        if elapsed < start {
            return 0;
        }
        if self.reload == 0 {
            1
        } else {
            1 + (elapsed - start) / (u64::from(self.reload) + 1)
        }
    }

    fn ev_pending(&self) -> bool {
        self.wraps_at(self.now) > self.acked_wraps
    }
}

impl MmioDevice for LiteTimer {
    fn kind(&self) -> &'static str {
        "timer"
    }

    fn tick(&mut self, now: u64) {
        self.now = now;
    }

    fn read(&mut self, _m: &mut Machine, off: u32, _size: u32) -> Result<u32, BusError> {
        Ok(match off & !3 {
            0x00 => self.load,
            0x04 => self.reload,
            0x08 => u32::from(self.en),
            0x10 => self.value,
            0x14 => u32::from(self.ev_pending()),
            0x18 => u32::from(self.ev_pending()),
            0x1c => u32::from(self.ev_enable),
            _ => 0,
        })
    }

    fn write(
        &mut self,
        _m: &mut Machine,
        off: u32,
        _size: u32,
        value: u32,
    ) -> Result<(), BusError> {
        match off & !3 {
            0x00 => self.load = value,
            0x04 => self.reload = value,
            0x08 => {
                let en = value & 1 != 0;
                if en && !self.en {
                    self.en_since = self.now;
                    self.acked_wraps = 0;
                }
                self.en = en;
            }
            0x0c if value & 1 != 0 => self.value = self.value_at(self.now),
            0x18 if value & 1 != 0 => self.acked_wraps = self.wraps_at(self.now),
            0x1c => self.ev_enable = value & 1 != 0,
            _ => {}
        }
        Ok(())
    }

    fn irq_pending(&self) -> bool {
        self.ev_enable && self.ev_pending()
    }

    fn clone_box(&self) -> Box<dyn MmioDevice> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// --- DMA engine --------------------------------------------------------------

/// A single-channel memory-to-memory DMA engine. Transfers complete
/// synchronously inside the kicking MMIO write (the guest observes an
/// instantaneous engine; latency modelling belongs to the cycle model,
/// not device state).
///
/// | offset | register | semantics |
/// |--------|-----------|-----------|
/// | `+0x00` | SRC        | source address |
/// | `+0x04` | DST        | destination address |
/// | `+0x08` | LEN        | transfer length in bytes |
/// | `+0x0c` | CTRL       | write 1: start the copy |
/// | `+0x10` | STATUS     | bit0 done, bit1 error (RO) |
/// | `+0x14` | EV_PENDING | bit0: completion event, W1C |
/// | `+0x18` | EV_ENABLE  | bit0: route completion to the IRQ line |
///
/// Every store goes through [`Machine::dma_write`], so the engine cannot
/// forge capabilities (tags are cleared), cannot desync snapshots (pages
/// are unshared through the CoW write barrier), and cannot leave stale predecoded blocks behind (code
/// stores invalidate and bump the coherence generation). A transfer that
/// faults (unmapped range, oversized, undecodable code store) sets the
/// error bit instead of completing.
#[derive(Clone, Debug, Default)]
pub struct DmaEngine {
    src: u32,
    dst: u32,
    len: u32,
    done: bool,
    error: bool,
    ev_pending: bool,
    ev_enable: bool,
}

impl DmaEngine {
    /// An idle DMA engine.
    pub fn new() -> DmaEngine {
        DmaEngine::default()
    }

    fn kick(&mut self, m: &mut Machine) {
        self.done = false;
        self.error = false;
        if self.len > DMA_MAX_LEN {
            self.error = true;
            self.ev_pending = true;
            return;
        }
        let mut buf = vec![0u8; self.len as usize];
        let ok = m.dma_read(self.src, &mut buf).is_ok() && m.dma_write(self.dst, &buf).is_ok();
        self.done = ok;
        self.error = !ok;
        self.ev_pending = true;
    }
}

impl MmioDevice for DmaEngine {
    fn kind(&self) -> &'static str {
        "dma"
    }

    fn read(&mut self, _m: &mut Machine, off: u32, _size: u32) -> Result<u32, BusError> {
        Ok(match off & !3 {
            0x00 => self.src,
            0x04 => self.dst,
            0x08 => self.len,
            0x10 => u32::from(self.done) | u32::from(self.error) << 1,
            0x14 => u32::from(self.ev_pending),
            0x18 => u32::from(self.ev_enable),
            _ => 0,
        })
    }

    fn write(&mut self, m: &mut Machine, off: u32, _size: u32, value: u32) -> Result<(), BusError> {
        match off & !3 {
            0x00 => self.src = value,
            0x04 => self.dst = value,
            0x08 => self.len = value,
            0x0c if value & 1 != 0 => self.kick(m),
            0x14 if value & 1 != 0 => self.ev_pending = false,
            0x18 => self.ev_enable = value & 1 != 0,
            _ => {}
        }
        Ok(())
    }

    fn irq_pending(&self) -> bool {
        self.ev_enable && self.ev_pending
    }

    fn clone_box(&self) -> Box<dyn MmioDevice> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// --- Loopback network interface ----------------------------------------------

/// A loopback network interface with TX/RX descriptor rings in guest
/// SRAM: kicked TX frames are delivered straight into the RX ring (the
/// wire is a mirror). The descriptor layout is the classic 16-byte DMA
/// NIC shape:
///
/// ```text
/// +0x0  flags   bit0 OWN: the descriptor (and its buffer) belong to hw
/// +0x4  buf     frame buffer address in SRAM
/// +0x8  len     TX: frame length; RX: written by hw on delivery
/// +0xc  status  written by hw: bit0 done, bit1 error
/// ```
///
/// | offset | register | semantics |
/// |--------|-----------|-----------|
/// | `+0x00` | TX_BASE    | TX descriptor ring base (SRAM) |
/// | `+0x04` | TX_COUNT   | descriptors in the TX ring |
/// | `+0x08` | RX_BASE    | RX descriptor ring base (SRAM) |
/// | `+0x0c` | RX_COUNT   | descriptors in the RX ring |
/// | `+0x10` | CTRL       | write 1: process owned TX descriptors |
/// | `+0x14` | FRAMES     | frames delivered, cumulative (RO) |
/// | `+0x18` | EV_PENDING | bit0: RX delivery event, W1C |
/// | `+0x1c` | EV_ENABLE  | bit0: route RX delivery to the IRQ line |
/// | `+0x20` | RX_DROPPED | frames dropped for lack of an RX descriptor or queue space (RO) |
///
/// Processing walks the TX ring from the last position: each OWN'd
/// descriptor's frame is copied through [`Machine::dma_read`] /
/// [`Machine::dma_write`] into the next OWN'd RX descriptor's buffer,
/// statuses are written back, and OWN is returned to software on both
/// sides. A frame with no free RX descriptor, an oversized length, or a
/// faulting buffer gets an error status and is *dropped with a counter*:
/// the `RX_DROPPED` register (and the `net_rx_dropped` metric derived
/// from it) make backpressure loss observable instead of silent.
///
/// ## Peer mode
///
/// With [`NetLoopback::set_peer`] the wire stops being a mirror:
/// transmitted frames are collected host-side ([`NetLoopback::take_tx`])
/// and frames from elsewhere are queued with
/// [`NetLoopback::push_host_rx`], then delivered into the guest RX ring
/// by [`NetLoopback::flush_host_rx`] between run slices. The host queue
/// exerts backpressure: delivery stops at the first software-owned RX
/// descriptor and the remaining frames stay queued (bounded by
/// [`NET_HOST_QUEUE`]; overflow drops-with-counter). This is the hook the
/// farm's `NetFabric` hub uses to route frames across device instances.
#[derive(Clone, Debug, Default)]
pub struct NetLoopback {
    tx_base: u32,
    tx_count: u32,
    rx_base: u32,
    rx_count: u32,
    tx_head: u32,
    rx_head: u32,
    frames: u32,
    ev_pending: bool,
    ev_enable: bool,
    rx_dropped: u32,
    /// Peer mode: TX frames go to `peer_out` instead of the local RX ring.
    peer: bool,
    /// Host-side mailbox of transmitted frames (peer mode only).
    peer_out: Vec<Vec<u8>>,
    /// Host-side queue of inbound frames awaiting RX descriptors.
    host_in: std::collections::VecDeque<Vec<u8>>,
}

/// Bound on the host-side inbound frame queue per interface; pushes past
/// this drop-with-counter (`RX_DROPPED`).
pub const NET_HOST_QUEUE: usize = 256;

/// One descriptor, decoded from its 16 SRAM bytes.
struct Desc {
    flags: u32,
    buf: u32,
    len: u32,
}

impl NetLoopback {
    /// An unconfigured interface (no rings).
    pub fn new() -> NetLoopback {
        NetLoopback::default()
    }

    fn read_desc(m: &mut Machine, addr: u32) -> Result<Desc, BusError> {
        let mut raw = [0u8; NET_DESC_SIZE as usize];
        m.dma_read(addr, &mut raw).map_err(|_| BusError)?;
        let word = |i: usize| u32::from_le_bytes(raw[i..i + 4].try_into().expect("4 bytes"));
        Ok(Desc {
            flags: word(0),
            buf: word(4),
            len: word(8),
        })
    }

    /// Writes back a processed descriptor: OWN cleared, `len` and
    /// `status` updated.
    fn retire_desc(
        m: &mut Machine,
        addr: u32,
        d: &Desc,
        len: u32,
        status: u32,
    ) -> Result<(), BusError> {
        let mut raw = [0u8; NET_DESC_SIZE as usize];
        raw[0..4].copy_from_slice(&(d.flags & !1).to_le_bytes());
        raw[4..8].copy_from_slice(&d.buf.to_le_bytes());
        raw[8..12].copy_from_slice(&len.to_le_bytes());
        raw[12..16].copy_from_slice(&status.to_le_bytes());
        m.dma_write(addr, &raw).map_err(|_| BusError)
    }

    /// Delivers `frame` into the next hardware-owned RX descriptor.
    /// `Ok(false)` means the RX ring had no free descriptor.
    fn deliver(&mut self, m: &mut Machine, frame: &[u8]) -> Result<bool, BusError> {
        for _ in 0..self.rx_count {
            let slot = self.rx_head % self.rx_count;
            let addr = self.rx_base + slot * NET_DESC_SIZE;
            let d = NetLoopback::read_desc(m, addr)?;
            if d.flags & 1 == 0 {
                return Ok(false);
            }
            self.rx_head = (self.rx_head + 1) % self.rx_count;
            if m.dma_write(d.buf, frame).is_err() {
                NetLoopback::retire_desc(m, addr, &d, 0, 0b10)?;
                continue;
            }
            NetLoopback::retire_desc(m, addr, &d, frame.len() as u32, 0b01)?;
            return Ok(true);
        }
        Ok(false)
    }

    fn kick(&mut self, m: &mut Machine) {
        if self.tx_count == 0 {
            return;
        }
        for _ in 0..self.tx_count {
            let slot = self.tx_head % self.tx_count;
            let addr = self.tx_base + slot * NET_DESC_SIZE;
            let Ok(d) = NetLoopback::read_desc(m, addr) else {
                return;
            };
            if d.flags & 1 == 0 {
                return;
            }
            self.tx_head = (self.tx_head + 1) % self.tx_count;
            if d.len > NET_MAX_FRAME {
                let _ = NetLoopback::retire_desc(m, addr, &d, d.len, 0b10);
                continue;
            }
            let mut frame = vec![0u8; d.len as usize];
            if m.dma_read(d.buf, &mut frame).is_err() {
                let _ = NetLoopback::retire_desc(m, addr, &d, d.len, 0b10);
                continue;
            }
            let status = if self.peer {
                // Peer mode: hand the frame to the host fabric. TX always
                // succeeds — congestion shows up at the receiver's ring.
                self.peer_out.push(frame);
                self.frames = self.frames.wrapping_add(1);
                0b01
            } else {
                match self.deliver(m, &frame) {
                    Ok(true) => {
                        self.frames = self.frames.wrapping_add(1);
                        self.ev_pending = true;
                        0b01
                    }
                    Ok(false) => {
                        // RX ring full: drop with a counter, never silently.
                        self.rx_dropped = self.rx_dropped.wrapping_add(1);
                        0b10
                    }
                    Err(_) => 0b10,
                }
            };
            let _ = NetLoopback::retire_desc(m, addr, &d, d.len, status);
        }
    }

    /// Switches between mirror loopback (`false`, the default) and peer
    /// mode (`true`), where the host routes frames (see type docs).
    pub fn set_peer(&mut self, on: bool) {
        self.peer = on;
    }

    /// Frames dropped for lack of an RX descriptor (loopback mode) or
    /// host queue space (peer mode). Mirrors the `RX_DROPPED` register.
    pub fn rx_dropped(&self) -> u32 {
        self.rx_dropped
    }

    /// Takes all frames transmitted since the last call (peer mode).
    pub fn take_tx(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.peer_out)
    }

    /// Queues an inbound frame for delivery into the guest RX ring at the
    /// next [`NetLoopback::flush_host_rx`]. Returns `false` (and counts
    /// the drop) when the queue is full or the frame is oversized.
    pub fn push_host_rx(&mut self, frame: Vec<u8>) -> bool {
        if frame.len() > NET_MAX_FRAME as usize || self.host_in.len() >= NET_HOST_QUEUE {
            self.rx_dropped = self.rx_dropped.wrapping_add(1);
            return false;
        }
        self.host_in.push_back(frame);
        true
    }

    /// Inbound frames still queued host-side (not yet in the RX ring).
    pub fn host_rx_pending(&self) -> usize {
        self.host_in.len()
    }

    /// Delivers queued inbound frames into the guest RX ring, stopping at
    /// the first software-owned descriptor (backpressure: the rest stay
    /// queued). Returns the number delivered. The caller must hold the
    /// device *outside* the machine's bus (the same detach protocol MMIO
    /// dispatch uses) — see `cheriot_soc::net_flush_rx` for the safe
    /// wrapper.
    pub fn flush_host_rx(&mut self, m: &mut Machine) -> u32 {
        let mut delivered = 0;
        while let Some(frame) = self.host_in.pop_front() {
            match self.deliver(m, &frame) {
                Ok(true) => {
                    self.ev_pending = true;
                    delivered += 1;
                }
                Ok(false) => {
                    // No free descriptor: keep the frame for the next
                    // flush rather than dropping mid-queue.
                    self.host_in.push_front(frame);
                    break;
                }
                Err(_) => {
                    // Misprogrammed ring (descriptor outside SRAM): the
                    // frame cannot land; count it and keep draining.
                    self.rx_dropped = self.rx_dropped.wrapping_add(1);
                }
            }
        }
        delivered
    }
}

impl MmioDevice for NetLoopback {
    fn kind(&self) -> &'static str {
        "net"
    }

    fn read(&mut self, _m: &mut Machine, off: u32, _size: u32) -> Result<u32, BusError> {
        Ok(match off & !3 {
            0x00 => self.tx_base,
            0x04 => self.tx_count,
            0x08 => self.rx_base,
            0x0c => self.rx_count,
            0x14 => self.frames,
            0x18 => u32::from(self.ev_pending),
            0x1c => u32::from(self.ev_enable),
            0x20 => self.rx_dropped,
            _ => 0,
        })
    }

    fn write(&mut self, m: &mut Machine, off: u32, _size: u32, value: u32) -> Result<(), BusError> {
        match off & !3 {
            0x00 => self.tx_base = value,
            0x04 => {
                self.tx_count = value;
                self.tx_head = 0;
            }
            0x08 => self.rx_base = value,
            0x0c => {
                self.rx_count = value;
                self.rx_head = 0;
            }
            0x10 if value & 1 != 0 => self.kick(m),
            0x18 if value & 1 != 0 => self.ev_pending = false,
            0x1c => self.ev_enable = value & 1 != 0,
            _ => {}
        }
        Ok(())
    }

    fn irq_pending(&self) -> bool {
        self.ev_enable && self.ev_pending
    }

    fn dma_desc_addr(&self) -> Option<u32> {
        (self.tx_count > 0).then_some(self.tx_base)
    }

    fn clone_box(&self) -> Box<dyn MmioDevice> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
