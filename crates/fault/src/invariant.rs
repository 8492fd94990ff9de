//! Runtime safety-invariant checking over machine + allocator state.
//!
//! The CHERIoT encoding and the allocator's quarantine protocol together
//! promise a small set of invariants that must hold at every quiescent
//! point, no matter what the guest does. The checker re-derives them from
//! ground truth the fault injector cannot forge: the allocator's own
//! live/quarantined span lists and the architectural tag bits.
//!
//! - **Tag provenance** — a set tag inside the heap must sit inside a live
//!   allocation. Tags never legitimately appear in free or quarantined
//!   memory (free zeroes, and the load filter strips stale caps).
//! - **Bounds monotonicity** — a capability at rest whose base points into
//!   the heap must be wholly contained by the live or quarantined span it
//!   points into; derivation can only shrink authority (paper §3.2).
//! - **Permission monotonicity** — heap data capabilities never carry
//!   execute/system/sealing authority, and are never sealed.
//! - **Quarantine no-reuse** — no live allocation overlaps a quarantined
//!   span before its revocation epoch completes (paper §3.5).
//! - **Quarantine paint** — every quarantined granule has its revocation
//!   bit set (otherwise the sweep cannot strip stale caps to it).
//! - **Stack zeroing** — a helper for switcher tests: a stack range handed
//!   back on compartment return holds no residual data or tags.
//! - **Trace integrity** — the PR-2 trace stream is causally plausible:
//!   cycle stamps are monotone and no interrupt is delivered while the
//!   recorded posture says interrupts are off.
//!
//! Violations come back as structured [`InvariantViolation`] values — the
//! checker never panics, because its whole purpose is to outlive the
//! corruption it is reporting.

use cheriot_alloc::HeapAllocator;
use cheriot_cap::{Capability, Permissions};
use cheriot_core::Machine;
use cheriot_trace::{EventKind, TraceEvent};
use std::fmt;

/// Granule size of tagged memory in bytes.
const GRANULE: u32 = 8;

/// Which invariant was broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A set tag outside any live allocation.
    TagProvenance,
    /// A capability's bounds escape the span that granted them.
    BoundsMonotonicity,
    /// A heap data capability carries authority malloc never grants.
    PermEscalation,
    /// A live allocation overlaps quarantined memory.
    QuarantineNoReuse,
    /// A quarantined granule is missing its revocation-bitmap paint.
    QuarantinePaint,
    /// A released stack range holds residual data or tags.
    StackZeroing,
    /// The trace stream is causally inconsistent.
    TraceIntegrity,
}

impl InvariantKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::TagProvenance => "tag-provenance",
            InvariantKind::BoundsMonotonicity => "bounds-monotonicity",
            InvariantKind::PermEscalation => "perm-escalation",
            InvariantKind::QuarantineNoReuse => "quarantine-no-reuse",
            InvariantKind::QuarantinePaint => "quarantine-paint",
            InvariantKind::StackZeroing => "stack-zeroing",
            InvariantKind::TraceIntegrity => "trace-integrity",
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected violation: structured, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Machine cycle at detection time.
    pub cycle: u64,
    /// Offending address, when the violation has one.
    pub addr: Option<u32>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {}", self.cycle, self.kind)?;
        if let Some(a) = self.addr {
            write!(f, " @ {a:#010x}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Cadence-driven checker over machine + allocator state.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    cadence: u64,
    next_due: u64,
    /// Extra regions (outside the heap) whose resident capabilities are
    /// held to the strict heap-containment rule — e.g. a campaign's
    /// capability directory, which only ever holds heap pointers.
    watched: Vec<(u32, u32)>,
}

impl InvariantChecker {
    /// A checker that is due every `cadence` cycles (first due at cycle
    /// `cadence`). A cadence of 0 means "due whenever asked".
    pub fn new(cadence: u64) -> InvariantChecker {
        InvariantChecker {
            cadence,
            next_due: cadence,
            watched: Vec::new(),
        }
    }

    /// Registers `[lo, hi)` as a strict capability region: every tagged
    /// granule there must hold a well-formed heap capability.
    pub fn watch_region(&mut self, lo: u32, hi: u32) {
        self.watched.push((lo, hi));
    }

    /// The next cycle at which the checker wants to run.
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Runs every state invariant and reschedules the next check. Read-only
    /// with respect to the machine; returns all violations found.
    pub fn check(&mut self, m: &Machine, heap: &HeapAllocator) -> Vec<InvariantViolation> {
        self.next_due = m.cycles.saturating_add(self.cadence.max(1));
        let mut out = Vec::new();
        let live = heap.live_spans();
        let quar = heap.quarantined_spans();
        let (hb, he) = heap.heap_range();

        // Quarantine no-reuse: live and quarantined spans are disjoint.
        for &(la, ll) in &live {
            for &(qa, ql) in &quar {
                if la < qa.saturating_add(ql) && qa < la.saturating_add(ll) {
                    out.push(InvariantViolation {
                        kind: InvariantKind::QuarantineNoReuse,
                        cycle: m.cycles,
                        addr: Some(la.max(qa)),
                        detail: format!(
                            "live allocation {la:#010x}+{ll} overlaps quarantined span {qa:#010x}+{ql}"
                        ),
                    });
                }
            }
        }

        // Quarantine paint: every quarantined granule carries its
        // revocation bit, or the sweep cannot strip stale pointers to it.
        for &(qa, ql) in &quar {
            let mut a = qa & !(GRANULE - 1);
            while a < qa.saturating_add(ql) {
                if !m.bitmap.is_revoked(a) {
                    out.push(InvariantViolation {
                        kind: InvariantKind::QuarantinePaint,
                        cycle: m.cycles,
                        addr: Some(a),
                        detail: format!("quarantined granule unpainted (span {qa:#010x}+{ql})"),
                    });
                    break; // one report per span is enough
                }
                a += GRANULE;
            }
        }

        // Heap tag scan: provenance plus per-capability checks.
        Self::scan_region(m, hb, he, false, &live, &quar, (hb, he), &mut out);
        // Watched (strict) regions: every resident cap must be a
        // well-formed heap pointer. `scan_region` is an associated function
        // precisely so this loop can iterate `watched` by reference — this
        // runs every cadence tick and must not allocate.
        for &(lo, hi) in &self.watched {
            Self::scan_region(m, lo, hi, true, &live, &quar, (hb, he), &mut out);
        }
        out
    }

    /// True when `cycle` has reached the next scheduled check.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_region(
        m: &Machine,
        lo: u32,
        hi: u32,
        strict: bool,
        live: &[(u32, u32)],
        quar: &[(u32, u32)],
        heap_range: (u32, u32),
        out: &mut Vec<InvariantViolation>,
    ) {
        let mut a = lo & !(GRANULE - 1);
        while a < hi {
            if !m.sram.contains(a, GRANULE) {
                break;
            }
            let left = (hi - a) / GRANULE;
            if left == 0 {
                break;
            }
            let run = m.sram.untagged_run(a, left);
            if run > 0 {
                a = a.saturating_add(run.saturating_mul(GRANULE));
                continue;
            }
            if !m.sram.tag_at(a) {
                // untagged_run returned 0 without a tag: bank edge.
                a = a.saturating_add(GRANULE);
                continue;
            }
            // `a` is a tagged granule.
            if !strict && span_containing(live, a).is_none() {
                out.push(InvariantViolation {
                    kind: InvariantKind::TagProvenance,
                    cycle: m.cycles,
                    addr: Some(a),
                    detail: "tagged granule outside any live allocation".into(),
                });
            } else {
                Self::check_cap_at(m, a, strict, live, quar, heap_range, out);
            }
            a = a.saturating_add(GRANULE);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_cap_at(
        m: &Machine,
        addr: u32,
        strict: bool,
        live: &[(u32, u32)],
        quar: &[(u32, u32)],
        (hb, he): (u32, u32),
        out: &mut Vec<InvariantViolation>,
    ) {
        let Ok((word, tag)) = m.sram.read_cap_word(addr) else {
            return;
        };
        if !tag {
            return;
        }
        let cap = Capability::from_word(word, true);
        let base = cap.base();
        let top = cap.top();
        let heap_pointer = base >= hb && base < he;
        if !strict && !heap_pointer {
            // A cap stored in the heap may legitimately point at globals or
            // code; only heap-directed caps are checked against spans.
            return;
        }
        let span = span_containing(live, base).or_else(|| span_containing(quar, base));
        match span {
            Some((sa, sl)) => {
                let span_top = u64::from(sa) + u64::from(sl);
                if top > span_top || u64::from(base) < u64::from(sa) {
                    out.push(InvariantViolation {
                        kind: InvariantKind::BoundsMonotonicity,
                        cycle: m.cycles,
                        addr: Some(addr),
                        detail: format!(
                            "capability [{base:#010x}, {top:#011x}) escapes its allocation \
                             [{sa:#010x}, {span_top:#011x})"
                        ),
                    });
                }
            }
            None => {
                out.push(InvariantViolation {
                    kind: InvariantKind::BoundsMonotonicity,
                    cycle: m.cycles,
                    addr: Some(addr),
                    detail: if heap_pointer {
                        format!("capability base {base:#010x} points into free heap memory")
                    } else {
                        format!(
                            "capability base {base:#010x} points outside the heap \
                             [{hb:#010x}, {he:#010x})"
                        )
                    },
                });
            }
        }
        if heap_pointer || strict {
            let perms = cap.perms();
            if !perms.is_subset_of(Permissions::ROOT_MEM) {
                out.push(InvariantViolation {
                    kind: InvariantKind::PermEscalation,
                    cycle: m.cycles,
                    addr: Some(addr),
                    detail: format!(
                        "heap capability carries authority beyond the RW root: {:?}",
                        perms.difference(Permissions::ROOT_MEM)
                    ),
                });
            }
            if cap.is_sealed() {
                out.push(InvariantViolation {
                    kind: InvariantKind::PermEscalation,
                    cycle: m.cycles,
                    addr: Some(addr),
                    detail: format!("heap data capability is sealed (otype {:?})", cap.otype()),
                });
            }
        }
    }

    /// Validates the PR-2 trace stream: monotone cycle stamps and no
    /// interrupt delivery while the recorded posture has interrupts off.
    pub fn check_trace(&self, events: &[TraceEvent]) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let mut last_cycle = 0u64;
        let mut posture: Option<bool> = None;
        for e in events {
            if e.cycles < last_cycle {
                out.push(InvariantViolation {
                    kind: InvariantKind::TraceIntegrity,
                    cycle: e.cycles,
                    addr: None,
                    detail: format!(
                        "trace cycle stamps regressed ({last_cycle} -> {})",
                        e.cycles
                    ),
                });
            }
            last_cycle = last_cycle.max(e.cycles);
            match e.kind {
                EventKind::InterruptPosture { enabled } => posture = Some(enabled),
                EventKind::IrqDelivered { .. } if posture == Some(false) => {
                    out.push(InvariantViolation {
                        kind: InvariantKind::TraceIntegrity,
                        cycle: e.cycles,
                        addr: None,
                        detail: "interrupt delivered while posture disabled".into(),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Checks that the stack range `[lo, hi)` was zeroed (data and tags)
    /// on compartment return. Standalone because it is driven from the
    /// switcher model, not the cadence loop.
    pub fn check_stack_zeroed(m: &Machine, lo: u32, hi: u32) -> Option<InvariantViolation> {
        let mut a = lo & !(GRANULE - 1);
        while a < hi {
            match m.sram.read_cap_word(a) {
                Ok((word, tag)) => {
                    if tag || word != 0 {
                        return Some(InvariantViolation {
                            kind: InvariantKind::StackZeroing,
                            cycle: m.cycles,
                            addr: Some(a),
                            detail: if tag {
                                "residual capability on released stack".into()
                            } else {
                                format!("residual data {word:#018x} on released stack")
                            },
                        });
                    }
                }
                Err(_) => return None, // range left SRAM; nothing to check
            }
            a = a.saturating_add(GRANULE);
        }
        None
    }
}

fn span_containing(spans: &[(u32, u32)], addr: u32) -> Option<(u32, u32)> {
    spans
        .iter()
        .copied()
        .find(|&(sa, sl)| addr >= sa && u64::from(addr) < u64::from(sa) + u64::from(sl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheriot_alloc::{RevokerKind, TemporalPolicy};
    use cheriot_core::{CoreModel, MachineConfig};

    fn setup() -> (Machine, HeapAllocator) {
        let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
        let heap = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
        (m, heap)
    }

    #[test]
    fn clean_machine_has_no_violations() {
        let (mut m, mut heap) = setup();
        let a = heap.malloc(&mut m, 64).unwrap();
        let b = heap.malloc(&mut m, 32).unwrap();
        // Store a cap into the first allocation and another into the heap.
        m.sram.write_cap(a.base(), b).unwrap();
        let mut chk = InvariantChecker::new(1_000);
        assert!(chk.check(&m, &heap).is_empty());
        heap.free(&mut m, a).unwrap();
        assert!(chk.check(&m, &heap).is_empty(), "quarantine must be clean");
    }

    #[test]
    fn widened_cap_in_heap_is_flagged() {
        let (mut m, mut heap) = setup();
        let a = heap.malloc(&mut m, 64).unwrap();
        let b = heap.malloc(&mut m, 32).unwrap();
        m.sram.write_cap(a.base(), b).unwrap();
        // Find a bounds-field bit whose flip demonstrably breaks span
        // containment while the decoded base stays heap-directed (the
        // checker deliberately ignores heap-stored caps that point at
        // globals or code).
        let (hb, he) = heap.heap_range();
        let (word, _) = m.sram.read_cap_word(a.base()).unwrap();
        let (sa, sl) = heap
            .live_spans()
            .into_iter()
            .find(|&(sa, sl)| b.base() >= sa && b.base() < sa + sl)
            .unwrap();
        let span_top = u64::from(sa) + u64::from(sl);
        let bit = (32..54)
            .find(|&bit| {
                let c = Capability::from_word(word ^ (1 << bit), true);
                c.base() >= hb && c.base() < he && (c.top() > span_top || c.base() < sa)
            })
            .expect("some bounds bit flip must escape the allocation");
        m.sram
            .write_cap_word(a.base(), word ^ (1 << bit), true)
            .unwrap();
        let mut chk = InvariantChecker::new(1_000);
        let v = chk.check(&m, &heap);
        assert!(
            v.iter().any(|x| matches!(
                x.kind,
                InvariantKind::BoundsMonotonicity | InvariantKind::PermEscalation
            )),
            "bounds corruption must be detected: {v:?}"
        );
    }

    #[test]
    fn tag_in_free_memory_is_provenance_violation() {
        let (mut m, heap) = setup();
        let (hb, _) = heap.heap_range();
        // Forge a tag in free heap space behind the allocator's back.
        let junk = Capability::root_mem_rw()
            .with_address(hb + 0x800)
            .set_bounds(16)
            .unwrap();
        m.sram.write_cap(hb + 0x1000, junk).unwrap();
        let mut chk = InvariantChecker::new(1_000);
        let v = chk.check(&m, &heap);
        assert!(
            v.iter().any(|x| x.kind == InvariantKind::TagProvenance),
            "forged tag must be flagged: {v:?}"
        );
    }

    #[test]
    fn unpainted_quarantine_is_flagged() {
        let (mut m, mut heap) = setup();
        let a = heap.malloc(&mut m, 64).unwrap();
        let user = a.base();
        heap.free(&mut m, a).unwrap();
        assert!(m.bitmap.is_revoked(user));
        m.bitmap.clear_range(user, 8); // injected bitmap clear-flip
        let mut chk = InvariantChecker::new(1_000);
        let v = chk.check(&m, &heap);
        assert!(
            v.iter().any(|x| x.kind == InvariantKind::QuarantinePaint),
            "missing paint must be flagged: {v:?}"
        );
    }

    #[test]
    fn watched_region_is_strict() {
        let (mut m, heap) = setup();
        let dir = cheriot_core::layout::SRAM_BASE + 0x100;
        // A cap pointing outside the heap is fine in general memory but a
        // violation inside a watched (heap-pointers-only) region.
        let stray = Capability::root_mem_rw()
            .with_address(cheriot_core::layout::SRAM_BASE + 0x40)
            .set_bounds(16)
            .unwrap();
        m.sram.write_cap(dir, stray).unwrap();
        let mut lax = InvariantChecker::new(1_000);
        assert!(lax.check(&m, &heap).is_empty());
        let mut strict = InvariantChecker::new(1_000);
        strict.watch_region(dir, dir + 64);
        let v = strict.check(&m, &heap);
        assert!(
            v.iter()
                .any(|x| x.kind == InvariantKind::BoundsMonotonicity),
            "non-heap cap in watched region must be flagged: {v:?}"
        );
    }

    #[test]
    fn stack_zeroing_helper_detects_residue() {
        let (mut m, _) = setup();
        let lo = cheriot_core::layout::SRAM_BASE + 0x2000;
        m.sram.zero_range(lo, 64).unwrap();
        assert!(InvariantChecker::check_stack_zeroed(&m, lo, lo + 64).is_none());
        m.sram.write_scalar(lo + 16, 4, 0x1234).unwrap();
        let v = InvariantChecker::check_stack_zeroed(&m, lo, lo + 64).unwrap();
        assert_eq!(v.kind, InvariantKind::StackZeroing);
        assert_eq!(v.addr, Some(lo + 16));
    }

    #[test]
    fn trace_integrity_checks_posture_and_monotonicity() {
        let chk = InvariantChecker::new(100);
        let events = vec![
            TraceEvent {
                cycles: 10,
                kind: EventKind::InterruptPosture { enabled: false },
            },
            TraceEvent {
                cycles: 5, // regression
                kind: EventKind::IrqDelivered { pc: 0, mcause: 0 },
            },
        ];
        let v = chk.check_trace(&events);
        assert_eq!(v.len(), 2, "regression + delivery-while-disabled: {v:?}");
        assert!(v.iter().all(|x| x.kind == InvariantKind::TraceIntegrity));
    }
}
