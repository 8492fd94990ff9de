//! Behavioural and property tests for the heap allocator: spatial safety,
//! deterministic temporal safety, quarantine discipline, and metadata
//! integrity under random churn.

use cheriot_alloc::{AllocError, HeapAllocator, RevokerKind, TemporalPolicy};
use cheriot_cap::{Capability, Permissions};
use cheriot_core::{layout, CoreModel, Machine, MachineConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn machine() -> Machine {
    Machine::new(MachineConfig::new(CoreModel::ibex()))
}

fn heap(m: &mut Machine, policy: TemporalPolicy) -> HeapAllocator {
    HeapAllocator::new(m, policy)
}

const ALL_POLICIES: [TemporalPolicy; 4] = [
    TemporalPolicy::None,
    TemporalPolicy::MetadataOnly,
    TemporalPolicy::Quarantine(RevokerKind::Software),
    TemporalPolicy::Quarantine(RevokerKind::Hardware),
];

#[test]
fn allocations_do_not_overlap() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let mut caps: Vec<Capability> = Vec::new();
    for i in 0..100 {
        let c = h.malloc(&mut m, 16 + (i % 40) * 8).expect("alloc");
        for prev in &caps {
            let disjoint = c.top() <= u64::from(prev.base()) || u64::from(c.base()) >= prev.top();
            assert!(disjoint, "{c} overlaps {prev}");
        }
        caps.push(c);
    }
    h.check_consistency(&m).expect("consistent");
}

#[test]
fn caps_are_bounded_and_sl_free() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::None);
    for len in [1u32, 8, 33, 100, 511, 512, 4096] {
        let c = h.malloc(&mut m, len).expect("alloc");
        assert!(c.tag());
        assert!(c.length() >= u64::from(len));
        // Small objects get exact bounds up to the allocator's 8-byte
        // granule rounding (the revocation granule, paper §3.3.1).
        if len <= 511 {
            assert_eq!(
                c.length(),
                u64::from(len.max(8).next_multiple_of(8)),
                "len={len}"
            );
        }
        assert!(!c.perms().contains(Permissions::SL));
        assert!(c.perms().contains(Permissions::LD));
        assert!(c.perms().contains(Permissions::SD));
        assert!(c.perms().contains(Permissions::GL));
    }
}

#[test]
fn free_paints_and_zeroes() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let c = h.malloc(&mut m, 64).unwrap();
    let addr = c.base();
    m.meter().store(c, addr, 4, 0xdead_beef).unwrap();
    h.free(&mut m, c).unwrap();
    assert!(m.bitmap.is_revoked(addr));
    assert_eq!(
        m.sram.read_scalar(addr, 4).unwrap(),
        0,
        "freed memory zeroed"
    );
}

#[test]
fn use_after_free_capability_is_stripped_on_load() {
    // The complete UAF story: a victim stores a heap cap in memory; the
    // object is freed; any later load of that cap yields an untagged value.
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let obj = h.malloc(&mut m, 48).unwrap();
    // Stash the capability in a global slot (outside the heap).
    let globals = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE)
        .set_bounds(4096)
        .unwrap();
    m.meter()
        .store_cap(globals, layout::SRAM_BASE + 64, obj)
        .unwrap();
    h.free(&mut m, obj).unwrap();
    let stale = m.meter().load_cap(globals, layout::SRAM_BASE + 64).unwrap();
    assert!(!stale.tag(), "load filter must strip the stale capability");
    assert!(stale.check_access(obj.base(), 1, Permissions::LD).is_err());
}

#[test]
fn no_temporal_aliasing_across_reuse() {
    // Reused memory must never be handed out while a stale tagged
    // capability to it could still be loaded from anywhere.
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    h.quarantine_threshold = 1; // drain eagerly
    let globals = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE)
        .set_bounds(4096)
        .unwrap();

    for round in 0..50 {
        let a = h.malloc(&mut m, 96).unwrap();
        m.meter()
            .store_cap(globals, layout::SRAM_BASE + 128, a)
            .unwrap();
        h.free(&mut m, a).unwrap();
        h.wait_revocation_complete(&mut m).unwrap();
        let b = h.malloc(&mut m, 96).unwrap();
        // If b reuses a's memory, the stale copy must by now be untagged.
        if b.base() == a.base() {
            let stale = m
                .meter()
                .load_cap(globals, layout::SRAM_BASE + 128)
                .unwrap();
            assert!(!stale.tag(), "round {round}: temporal aliasing!");
        }
        h.free(&mut m, b).unwrap();
    }
}

#[test]
fn double_free_rejected() {
    for policy in ALL_POLICIES {
        let mut m = machine();
        let mut h = heap(&mut m, policy);
        let c = h.malloc(&mut m, 32).unwrap();
        h.free(&mut m, c).unwrap();
        assert_eq!(
            h.free(&mut m, c),
            Err(AllocError::InvalidFree),
            "{policy:?}"
        );
    }
}

#[test]
fn mid_object_free_rejected() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let c = h.malloc(&mut m, 128).unwrap();
    let mid = c.incremented(8).set_bounds(16).unwrap();
    assert_eq!(h.free(&mut m, mid), Err(AllocError::InvalidFree));
    // The original is still live and freeable.
    h.free(&mut m, c).unwrap();
}

#[test]
fn untagged_free_rejected() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::None);
    let c = h.malloc(&mut m, 32).unwrap();
    assert_eq!(h.free(&mut m, c.cleared()), Err(AllocError::InvalidFree));
}

#[test]
fn zero_and_oversize_requests_rejected() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::None);
    assert!(matches!(
        h.malloc(&mut m, 0),
        Err(AllocError::BadSize { .. })
    ));
    assert!(matches!(
        h.malloc(&mut m, u32::MAX),
        Err(AllocError::BadSize { .. })
    ));
}

#[test]
fn exhaustion_triggers_revocation_and_recovers() {
    for kind in [RevokerKind::Software, RevokerKind::Hardware] {
        let mut m = machine();
        let mut h = heap(&mut m, TemporalPolicy::Quarantine(kind));
        // Never start passes from the threshold; force the OOM path.
        h.quarantine_threshold = u32::MAX;
        let cap_bytes = h.capacity();
        let big = cap_bytes / 2;
        let a = h.malloc(&mut m, big).expect("first big alloc");
        h.free(&mut m, a).unwrap();
        // Heap is now mostly quarantined; a second big alloc must force a
        // revocation pass and then succeed.
        let passes_before = h.stats().revocation_passes;
        let b = h.malloc(&mut m, big).expect("recovers after revocation");
        assert!(h.stats().revocation_passes > passes_before, "{kind:?}");
        h.free(&mut m, b).unwrap();
        h.check_consistency(&m).unwrap();
    }
}

#[test]
fn software_and_hardware_sweeps_agree_on_safety() {
    for kind in [RevokerKind::Software, RevokerKind::Hardware] {
        let mut m = machine();
        let mut h = heap(&mut m, TemporalPolicy::Quarantine(kind));
        h.quarantine_threshold = 1;
        let heap_cap = Capability::root_mem_rw()
            .with_address(m.cfg().heap_base())
            .set_bounds(u64::from(m.cfg().heap_end() - m.cfg().heap_base()))
            .unwrap();
        // Plant a stale capability *inside the heap itself* (a heap object
        // pointing to another heap object).
        let holder = h.malloc(&mut m, 16).unwrap();
        let victim = h.malloc(&mut m, 64).unwrap();
        m.meter()
            .store_cap(heap_cap, holder.base(), victim)
            .unwrap();
        h.free(&mut m, victim).unwrap();
        h.wait_revocation_complete(&mut m).unwrap();
        // Force passes to complete for the software case too.
        h.start_revocation(&mut m).unwrap();
        h.wait_revocation_complete(&mut m).unwrap();
        let stale = m.meter().load_cap(heap_cap, holder.base()).unwrap();
        assert!(!stale.tag(), "{kind:?}: stale heap-internal cap survived");
    }
}

#[test]
fn coalescing_restores_big_chunks() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::None);
    let caps: Vec<_> = (0..8).map(|_| h.malloc(&mut m, 1000).unwrap()).collect();
    for c in caps {
        h.free(&mut m, c).unwrap();
    }
    h.check_consistency(&m).unwrap();
    // After freeing everything the heap must serve one large chunk again
    // (representability padding keeps the max single allocation somewhat
    // below raw capacity).
    let big = h.malloc(&mut m, 200 * 1024).expect("coalesced");
    h.free(&mut m, big).unwrap();
    h.check_consistency(&m).unwrap();
}

#[test]
fn random_churn_keeps_heap_consistent() {
    for policy in ALL_POLICIES {
        let mut m = machine();
        let mut h = heap(&mut m, policy);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut live: Vec<Capability> = Vec::new();
        for step in 0..400 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let len = *[16u32, 24, 48, 100, 256, 511, 600, 2048, 9000]
                    .iter()
                    .filter(|_| true)
                    .nth(rng.gen_range(0..9))
                    .unwrap();
                match h.malloc(&mut m, len) {
                    Ok(c) => live.push(c),
                    Err(AllocError::OutOfMemory) => {
                        // Free something and move on.
                        if let Some(c) = live.pop() {
                            h.free(&mut m, c).unwrap();
                        }
                    }
                    Err(e) => panic!("{policy:?} step {step}: {e}"),
                }
            } else {
                let i = rng.gen_range(0..live.len());
                let c = live.swap_remove(i);
                h.free(&mut m, c).unwrap();
            }
            if step % 97 == 0 {
                h.check_consistency(&m)
                    .unwrap_or_else(|e| panic!("{policy:?} step {step}: {e}"));
            }
        }
        for c in live {
            h.free(&mut m, c).unwrap();
        }
        h.check_consistency(&m).unwrap();
    }
}

#[test]
fn quarantine_holds_at_most_three_lists() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    h.quarantine_threshold = 4096;
    for _ in 0..200 {
        let c = h.malloc(&mut m, 128).unwrap();
        h.free(&mut m, c).unwrap();
    }
    // QuarantineSet tracks its own high-water mark; the paper bounds it at 3.
    // (Accessible via the consistency of draining — verified indirectly by
    // the allocator completing without unbounded growth.)
    assert!(h.stats().quarantined_bytes <= h.capacity());
    h.check_consistency(&m).unwrap();
}

#[test]
fn temporal_policies_cost_ordering() {
    // Cycles: Baseline < Metadata < {Software, Hardware}; Hardware < Software
    // for sweep-heavy workloads (the headline of Figures 5/6).
    let mut costs = Vec::new();
    for policy in ALL_POLICIES {
        let mut m = machine();
        let mut h = heap(&mut m, policy);
        h.quarantine_threshold = 64 * 1024;
        let t0 = m.cycles;
        for _ in 0..200 {
            let c = h.malloc(&mut m, 4096).unwrap();
            h.free(&mut m, c).unwrap();
        }
        // Let any in-flight pass finish so costs are comparable.
        h.wait_revocation_complete(&mut m).unwrap();
        costs.push(m.cycles - t0);
    }
    let (baseline, metadata, software, hardware) = (costs[0], costs[1], costs[2], costs[3]);
    assert!(baseline < metadata, "{costs:?}");
    assert!(metadata < software, "{costs:?}");
    assert!(hardware < software, "{costs:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_churn_no_overlap_and_consistent(seed in any::<u64>()) {
        let mut m = machine();
        let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<Capability> = Vec::new();
        for _ in 0..120 {
            if live.is_empty() || rng.gen_bool(0.55) {
                let len = rng.gen_range(1u32..3000);
                if let Ok(c) = h.malloc(&mut m, len) {
                    for prev in &live {
                        let disjoint = c.top() <= u64::from(prev.base())
                            || u64::from(c.base()) >= prev.top();
                        prop_assert!(disjoint);
                    }
                    live.push(c);
                }
            } else {
                let i = rng.gen_range(0..live.len());
                let c = live.swap_remove(i);
                prop_assert!(h.free(&mut m, c).is_ok());
            }
        }
        prop_assert!(h.check_consistency(&m).is_ok());
    }
}

#[test]
fn realloc_grows_and_preserves_contents() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let a = h.malloc(&mut m, 32).unwrap();
    for i in 0..8u32 {
        m.meter().store(a, a.base() + i * 4, 4, 100 + i).unwrap();
    }
    let b = h.realloc(&mut m, a, 256).unwrap();
    assert!(b.length() >= 256);
    for i in 0..8u32 {
        assert_eq!(
            m.meter().load(b, b.base() + i * 4, 4).unwrap(),
            100 + i,
            "payload preserved"
        );
    }
    // The old allocation is dead: double-free/realloc on it is rejected...
    assert_eq!(h.free(&mut m, a), Err(AllocError::InvalidFree));
    // ...and its revocation bits are painted.
    assert!(m.bitmap.is_revoked(a.base()));
    h.free(&mut m, b).unwrap();
    h.check_consistency(&m).unwrap();
}

#[test]
fn realloc_shrinks_in_place() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::None);
    let a = h.malloc(&mut m, 256).unwrap();
    let base = a.base();
    let b = h.realloc(&mut m, a, 64).unwrap();
    assert_eq!(b.base(), base, "shrink stays in place");
    assert_eq!(b.length(), 64);
    assert_eq!(h.live_allocations(), 1);
    h.free(&mut m, b).unwrap();
    h.check_consistency(&m).unwrap();
}

#[test]
fn realloc_rejects_garbage() {
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::None);
    let a = h.malloc(&mut m, 32).unwrap();
    assert!(h.realloc(&mut m, a.cleared(), 64).is_err());
    assert!(h.realloc(&mut m, a, 0).is_err());
    let mid = a.incremented(8).set_bounds(8).unwrap();
    assert!(h.realloc(&mut m, mid, 64).is_err());
    h.free(&mut m, a).unwrap();
}

#[test]
fn metadata_policy_clears_bits_before_reuse() {
    // In the Metadata configuration there is no sweep, so bits painted at
    // free must be cleared when the memory is reallocated — otherwise the
    // load filter would strike live capabilities.
    let mut m = machine();
    let mut h = heap(&mut m, TemporalPolicy::MetadataOnly);
    let a = h.malloc(&mut m, 64).unwrap();
    let base = a.base();
    h.free(&mut m, a).unwrap();
    assert!(m.bitmap.is_revoked(base), "painted at free");
    let b = h.malloc(&mut m, 64).unwrap();
    assert_eq!(b.base(), base, "immediate reuse in Metadata mode");
    assert!(!m.bitmap.is_revoked(base), "cleared at reuse");
    // A freshly stored+loaded capability to it survives the filter.
    let slot = Capability::root_mem_rw()
        .with_address(layout::SRAM_BASE + 64)
        .set_bounds(8)
        .unwrap();
    m.meter().store_cap(slot, slot.base(), b).unwrap();
    let loaded = m.meter().load_cap(slot, slot.base()).unwrap();
    assert!(loaded.tag());
    h.free(&mut m, b).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_realloc_churn_consistent(seed in any::<u64>()) {
        let mut m = machine();
        let mut h = heap(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<Capability> = Vec::new();
        for _ in 0..80 {
            match rng.gen_range(0..3) {
                0 => {
                    if let Ok(c) = h.malloc(&mut m, rng.gen_range(8..1024)) {
                        live.push(c);
                    }
                }
                1 if !live.is_empty() => {
                    let i = rng.gen_range(0..live.len());
                    let c = live.swap_remove(i);
                    prop_assert!(h.free(&mut m, c).is_ok());
                }
                2 if !live.is_empty() => {
                    let i = rng.gen_range(0..live.len());
                    let c = live.swap_remove(i);
                    match h.realloc(&mut m, c, rng.gen_range(8..2048)) {
                        Ok(n) => live.push(n),
                        // Like C realloc: on failure the original is intact.
                        Err(AllocError::OutOfMemory) => live.push(c),
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                _ => {}
            }
        }
        prop_assert!(h.check_consistency(&m).is_ok());
        for c in live {
            prop_assert!(h.free(&mut m, c).is_ok());
        }
        prop_assert!(h.check_consistency(&m).is_ok());
    }
}
