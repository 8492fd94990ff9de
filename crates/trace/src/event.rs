//! Typed trace events.
//!
//! Every event is a plain-data record stamped with the machine's retired
//! cycle counter at emission time. Payloads are primitive integers only so
//! the trace layer has no dependency on (and imposes none on) the ISA
//! simulator, allocator or RTOS crates that emit them.

/// A timestamped structured event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The machine's retired-cycle counter when the event was emitted.
    pub cycles: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary, covering every layer of the stack.
///
/// Compartment enter/exit form *spans*: an `Exit` always matches the most
/// recent unmatched `Enter` on the same thread (calls nest strictly, as the
/// switcher's trusted-stack discipline guarantees).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction retired at `pc`. High-volume: the tracer keeps only
    /// the last few (the metrics registry still counts them all).
    InstrRetired {
        /// Program counter of the retired instruction.
        pc: u32,
    },
    /// A synchronous exception was taken.
    Trap {
        /// Faulting program counter (the saved `mepcc` address).
        pc: u32,
        /// RISC-V `mcause` encoding of the trap cause.
        mcause: u32,
    },
    /// An asynchronous interrupt was delivered to the trap vector.
    IrqDelivered {
        /// Interrupted program counter.
        pc: u32,
        /// RISC-V `mcause` encoding (interrupt bit set).
        mcause: u32,
    },
    /// The interrupt-enable posture changed (trap entry, `mret`, or a
    /// jump through an interrupt-controlling sentry).
    InterruptPosture {
        /// New posture: are interrupts now enabled?
        enabled: bool,
    },
    /// A cross-compartment call entered compartment `to` on `thread`.
    CompartmentEnter {
        /// Calling thread index.
        thread: u32,
        /// Caller compartment index.
        from: u32,
        /// Callee compartment index (the span's owner).
        to: u32,
    },
    /// The matching return: `thread` left compartment `to`, resuming `from`.
    CompartmentExit {
        /// Calling thread index.
        thread: u32,
        /// Compartment resumed after the return.
        from: u32,
        /// Compartment being exited (same as the matching `Enter`'s `to`).
        to: u32,
    },
    /// The scheduler switched to `thread`.
    ThreadSwitch {
        /// Thread index now running.
        thread: u32,
        /// The compartment the thread is executing in when scheduled.
        compartment: u32,
    },
    /// A heap allocation succeeded.
    Malloc {
        /// Base address of the returned object.
        base: u32,
        /// Requested size in bytes.
        size: u32,
    },
    /// A compartment claimed a heap object (the allocator's `heap_claim`
    /// accounting API). Reserved: the simulated allocator does not model
    /// claims yet, but exporters and metrics handle the event generically.
    Claim {
        /// Base address of the claimed object.
        base: u32,
        /// Claiming compartment index.
        owner: u32,
    },
    /// A heap object was freed by the application.
    Free {
        /// Base address of the freed object.
        base: u32,
        /// Object size in bytes.
        size: u32,
    },
    /// A freed chunk entered quarantine, keyed to the revocation epoch.
    QuarantinePush {
        /// Chunk base address.
        chunk: u32,
        /// Chunk size in bytes.
        size: u32,
        /// Revocation epoch at push time.
        epoch: u32,
    },
    /// A quarantined chunk aged out and was returned to the free lists.
    QuarantineRelease {
        /// Chunk base address.
        chunk: u32,
        /// Chunk size in bytes.
        size: u32,
    },
    /// A revocation sweep started (epoch became odd / software epoch
    /// opened).
    RevokerStart {
        /// The epoch counter after the kick.
        epoch: u32,
    },
    /// A revocation sweep finished.
    RevokerFinish {
        /// The epoch counter at completion.
        epoch: u32,
        /// Capability words invalidated, cumulative over the machine's
        /// lifetime for the hardware revoker (diff successive events for
        /// per-sweep counts); per-sweep for the software revoker.
        words_invalidated: u64,
    },
    /// The pipeline load filter stripped the tag off a loaded capability
    /// whose base granule is marked in the revocation bitmap.
    FilterStrip {
        /// Address the capability was loaded from.
        addr: u32,
    },
    /// A guest MMIO read was dispatched to a device on the device bus.
    MmioRead {
        /// Device id on the bus (register names via
        /// [`crate::MetricsRegistry::set_device_name`]).
        dev: u32,
        /// Absolute address of the access.
        addr: u32,
        /// Value returned to the guest.
        value: u32,
    },
    /// A guest MMIO write was dispatched to a device on the device bus.
    MmioWrite {
        /// Device id on the bus.
        dev: u32,
        /// Absolute address of the access.
        addr: u32,
        /// Value stored by the guest.
        value: u32,
    },
    /// A DMA-capable device stored a byte range into guest memory
    /// (capability tags cleared, pages dirtied, covering predecoded
    /// blocks invalidated).
    DmaTransfer {
        /// Device id of the DMA master.
        dev: u32,
        /// Destination address of the store.
        dst: u32,
        /// Length in bytes.
        len: u32,
    },
    /// A device's interrupt line rose and was latched into the interrupt
    /// controller's pending register.
    DeviceIrq {
        /// Device id owning the line (the interrupt controller's own id
        /// for lines no device claims, e.g. injected spurious IRQs).
        dev: u32,
        /// Interrupt line index (0..32).
        line: u32,
    },
}

impl EventKind {
    /// Stable short name of the event type (used by exporters and as the
    /// per-event-type counter key in the metrics registry).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::InstrRetired { .. } => "instr_retired",
            EventKind::Trap { .. } => "trap",
            EventKind::IrqDelivered { .. } => "irq_delivered",
            EventKind::InterruptPosture { .. } => "interrupt_posture",
            EventKind::CompartmentEnter { .. } => "compartment_enter",
            EventKind::CompartmentExit { .. } => "compartment_exit",
            EventKind::ThreadSwitch { .. } => "thread_switch",
            EventKind::Malloc { .. } => "malloc",
            EventKind::Claim { .. } => "claim",
            EventKind::Free { .. } => "free",
            EventKind::QuarantinePush { .. } => "quarantine_push",
            EventKind::QuarantineRelease { .. } => "quarantine_release",
            EventKind::RevokerStart { .. } => "revoker_start",
            EventKind::RevokerFinish { .. } => "revoker_finish",
            EventKind::FilterStrip { .. } => "filter_strip",
            EventKind::MmioRead { .. } => "mmio_read",
            EventKind::MmioWrite { .. } => "mmio_write",
            EventKind::DmaTransfer { .. } => "dma_transfer",
            EventKind::DeviceIrq { .. } => "device_irq",
        }
    }

    /// The event's payload flattened to `(field_name, value)` pairs, in
    /// declaration order. Drives the CSV exporter and the Chrome trace
    /// `args` objects.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            EventKind::InstrRetired { pc } => vec![("pc", pc as u64)],
            EventKind::Trap { pc, mcause } => {
                vec![("pc", pc as u64), ("mcause", mcause as u64)]
            }
            EventKind::IrqDelivered { pc, mcause } => {
                vec![("pc", pc as u64), ("mcause", mcause as u64)]
            }
            EventKind::InterruptPosture { enabled } => vec![("enabled", enabled as u64)],
            EventKind::CompartmentEnter { thread, from, to } => vec![
                ("thread", thread as u64),
                ("from", from as u64),
                ("to", to as u64),
            ],
            EventKind::CompartmentExit { thread, from, to } => vec![
                ("thread", thread as u64),
                ("from", from as u64),
                ("to", to as u64),
            ],
            EventKind::ThreadSwitch {
                thread,
                compartment,
            } => vec![
                ("thread", thread as u64),
                ("compartment", compartment as u64),
            ],
            EventKind::Malloc { base, size } => {
                vec![("base", base as u64), ("size", size as u64)]
            }
            EventKind::Claim { base, owner } => {
                vec![("base", base as u64), ("owner", owner as u64)]
            }
            EventKind::Free { base, size } => vec![("base", base as u64), ("size", size as u64)],
            EventKind::QuarantinePush { chunk, size, epoch } => vec![
                ("chunk", chunk as u64),
                ("size", size as u64),
                ("epoch", epoch as u64),
            ],
            EventKind::QuarantineRelease { chunk, size } => {
                vec![("chunk", chunk as u64), ("size", size as u64)]
            }
            EventKind::RevokerStart { epoch } => vec![("epoch", epoch as u64)],
            EventKind::RevokerFinish {
                epoch,
                words_invalidated,
            } => vec![
                ("epoch", epoch as u64),
                ("words_invalidated", words_invalidated),
            ],
            EventKind::FilterStrip { addr } => vec![("addr", addr as u64)],
            EventKind::MmioRead { dev, addr, value }
            | EventKind::MmioWrite { dev, addr, value } => {
                vec![
                    ("dev", dev as u64),
                    ("addr", addr as u64),
                    ("value", value as u64),
                ]
            }
            EventKind::DmaTransfer { dev, dst, len } => vec![
                ("dev", dev as u64),
                ("dst", dst as u64),
                ("len", len as u64),
            ],
            EventKind::DeviceIrq { dev, line } => {
                vec![("dev", dev as u64), ("line", line as u64)]
            }
        }
    }
}
