//! Hostile guest bytes at the NIC: the descriptor walk (`kick`, RX
//! delivery, host-side `flush_host_rx`) reads ring registers and
//! descriptor words the guest wrote, so it must survive any of them. The
//! property: with arbitrary ring registers, descriptor words, buffer
//! pointers and lengths — including rings re-programmed mid-stream — no
//! walk panics (overflow checks are on in this debug build), and no walk
//! makes a host allocation larger than one maximum frame, whatever length
//! a descriptor claims. A second test pins how far one kick may walk.

use cheriot_core::mem::PAGE_SIZE;
use cheriot_core::{layout, CoreModel, Machine, MachineConfig, MmioDevice};
use cheriot_soc::{NetLoopback, NET_DESC_SIZE, NET_MAX_FRAME, NET_MAX_RING};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation the current thread makes while
/// [`largest_allocation`] is measuring.
struct Tracking;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if MEASURING.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every method forwards to `System` unchanged; the thread-local
// cells are const-initialised, so recording never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Runs `f` and returns the largest single allocation it made.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    LARGEST.with(Cell::get)
}

const TX_RING: u32 = layout::SRAM_BASE + 0x1000;
const RX_RING: u32 = layout::SRAM_BASE + 0x2000;
const BUFS: u32 = layout::SRAM_BASE + 0x4000;
/// Descriptors the test fills in per ring; SRAM beyond is zero (not
/// owned), whatever count the ring registers claim.
const DESCS: u32 = 64;

/// A value for a ring register or descriptor field: raw bits half the
/// time, otherwise one of the shapes that stress the walk's arithmetic.
fn shape(raw: u32, sel: u8) -> u32 {
    match sel % 8 {
        0..=3 => raw,
        4 => [TX_RING, RX_RING, BUFS][raw as usize % 3] + (raw >> 8) % DESCS * NET_DESC_SIZE,
        5 => raw % (DESCS + 8),
        6 => u32::MAX - raw % 64,
        _ => [
            NET_MAX_FRAME - 1,
            NET_MAX_FRAME,
            NET_MAX_FRAME + 1,
            layout::CODE_BASE,
        ][raw as usize % 4],
    }
}

/// A machine whose SRAM pages are all materialised, so guest-memory
/// writes never allocate and only the device's own buffers are measured.
fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let pages = m.sram.size() / PAGE_SIZE;
    for p in 0..pages {
        m.sram
            .write_scalar(layout::SRAM_BASE + p * PAGE_SIZE, 4, 0)
            .unwrap();
    }
    m
}

fn write_descs(m: &mut Machine, ring: u32, words: &[(u32, u32, u32, u8)]) {
    for (i, &(flags, buf, len, sel)) in words.iter().enumerate() {
        let addr = ring + i as u32 * NET_DESC_SIZE;
        let fields = [flags, shape(buf, sel), shape(len, sel >> 3), 0];
        for (k, w) in fields.into_iter().enumerate() {
            m.sram.write_scalar(addr + 4 * k as u32, 4, w).unwrap();
        }
    }
}

/// NIC register offsets the ops draw from (plus a few unmapped ones).
const REGS: [u32; 10] = [0x00, 0x04, 0x08, 0x0c, 0x10, 0x14, 0x18, 0x1c, 0x20, 0x40];

fn descs() -> impl Strategy<Value = Vec<(u32, u32, u32, u8)>> {
    proptest::collection::vec(
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u8>()),
        DESCS as usize..DESCS as usize + 1,
    )
}

/// One `CTRL` store walks at most one ring of descriptors, however the
/// guest programs the rings: here every descriptor in SRAM is owned by
/// hardware, both rings start at the bank base and both counts are
/// `u32::MAX`. The counts saturate at [`NET_MAX_RING`]; unbounded, this
/// kick walks every descriptor in the 512 KiB bank (32768).
#[test]
fn one_kick_walks_at_most_one_ring_of_hostile_descriptors() {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let descs = m.sram.size() / NET_DESC_SIZE;
    let desc = |d: u32| layout::SRAM_BASE + d * NET_DESC_SIZE;
    for d in 0..descs {
        // Owned by hardware, an empty frame at the bank base, no status.
        m.sram.write_scalar(desc(d), 4, 1).unwrap();
        m.sram
            .write_scalar(desc(d) + 4, 4, layout::SRAM_BASE)
            .unwrap();
    }
    let mut nic = NetLoopback::new();
    for off in [0x00, 0x08] {
        nic.write(&mut m, off, 4, layout::SRAM_BASE).unwrap();
    }
    for off in [0x04, 0x0c] {
        nic.write(&mut m, off, 4, u32::MAX).unwrap();
        assert_eq!(nic.read(&mut m, off, 4).unwrap(), NET_MAX_RING);
    }
    nic.write(&mut m, 0x10, 4, 1).unwrap();
    // Every descriptor the walk reached was written back with a status.
    let walked = (0..descs)
        .filter(|&d| m.sram.read_scalar(desc(d) + 12, 4).unwrap() != 0)
        .count();
    assert_eq!(walked, NET_MAX_RING as usize);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn descriptor_walk_survives_arbitrary_rings(
        tx in descs(),
        rx in descs(),
        ops in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>(), any::<u8>()), 1..64),
    ) {
        let mut m = machine();
        let mut nic = NetLoopback::new();
        write_descs(&mut m, TX_RING, &tx);
        write_descs(&mut m, RX_RING, &rx);
        // Start from rings a well-behaved driver would program; the ops
        // then re-program them at arbitrary points of the walk.
        for (off, value) in [(0x00, TX_RING), (0x04, DESCS / 2), (0x08, RX_RING), (0x0c, DESCS / 2)] {
            nic.write(&mut m, off, 4, value).unwrap();
        }
        let max = NET_MAX_FRAME as usize;
        for (kind, a, b, sel) in ops {
            match kind {
                // Program a register, through the same MMIO write the
                // guest uses (CTRL kicks the TX walk).
                0..=2 => {
                    let off = REGS[a as usize % REGS.len()];
                    let value = shape(b, sel);
                    let largest = largest_allocation(|| {
                        nic.write(&mut m, off, 4, value).unwrap();
                    });
                    prop_assert!(largest <= max, "write {off:#x}={value:#x}: {largest} bytes");
                }
                3 => {
                    let largest = largest_allocation(|| {
                        nic.write(&mut m, 0x10, 4, 1).unwrap();
                    });
                    prop_assert!(largest <= max, "kick: {largest} bytes");
                }
                // Host side: queue a frame (oversized ones are refused),
                // then deliver everything queued into the RX ring.
                4 => {
                    let len = a as usize % (max + 2);
                    nic.push_host_rx(vec![b as u8; len]);
                    let largest = largest_allocation(|| {
                        nic.flush_host_rx(&mut m);
                    });
                    prop_assert!(largest <= max, "flush: {largest} bytes");
                }
                5 => nic.set_peer(b & 1 == 1),
                // The guest rewrites one descriptor word in either ring.
                _ => {
                    let ring = if b & 1 == 0 { TX_RING } else { RX_RING };
                    let addr = ring + 4 * (a % (DESCS * NET_DESC_SIZE / 4));
                    m.sram.write_scalar(addr, 4, shape(b, sel)).unwrap();
                }
            }
            for frame in nic.take_tx() {
                prop_assert!(frame.len() <= max);
            }
        }
    }
}
