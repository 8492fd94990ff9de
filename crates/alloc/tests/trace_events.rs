//! Exact-sequence tests for allocator-side trace events: malloc/free,
//! quarantine push/release, and revocation epoch start/finish for both
//! the hardware and software revokers.

use cheriot_alloc::{HeapAllocator, RevokerKind, TemporalPolicy, HDR};
use cheriot_cap::Capability;
use cheriot_core::trace::{EventKind, Tracer};
use cheriot_core::{CoreModel, Machine, MachineConfig};

fn traced_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    m.set_tracer(Tracer::timeline());
    m
}

fn kinds(m: &Machine) -> Vec<EventKind> {
    m.tracer()
        .expect("tracer installed")
        .events()
        .iter()
        .map(|e| e.kind)
        .collect()
}

#[test]
fn hardware_revoker_event_sequence() {
    // Eager quarantine (threshold 1): every free paints + quarantines the
    // chunk and kicks the hardware revoker. The full lifecycle of two
    // allocations must produce exactly this event stream:
    //
    //   malloc a
    //   free a  -> quarantine_push(epoch 0) -> revoker_start(epoch 1)
    //   [sweep completes]                   -> revoker_finish(epoch 2)
    //   malloc b -> quarantine_release(a)   (entry drain: a's sweep passed)
    //   free b  -> quarantine_push(epoch 2) -> revoker_start(epoch 3)
    let mut m = traced_machine();
    let mut h = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    h.quarantine_threshold = 1;

    let a = h.malloc(&mut m, 64).unwrap();
    let a_user = a.base();
    h.free(&mut m, a).unwrap();
    h.wait_revocation_complete(&mut m).unwrap();
    let b = h.malloc(&mut m, 64).unwrap();
    let b_user = b.base();
    h.free(&mut m, b).unwrap();

    let ks = kinds(&m);
    assert_eq!(ks.len(), 10, "unexpected event stream: {ks:#?}");

    assert_eq!(
        ks[0],
        EventKind::Malloc {
            base: a_user,
            size: 64,
        }
    );
    let chunk_size = match ks[1] {
        EventKind::Free { base, size } => {
            assert_eq!(base, a_user);
            assert!(size >= 64 + HDR, "chunk covers payload + header");
            size
        }
        other => panic!("expected free, got {other:?}"),
    };
    assert_eq!(
        ks[2],
        EventKind::QuarantinePush {
            chunk: a_user - HDR,
            size: chunk_size,
            epoch: 0,
        }
    );
    // The kick flips the device epoch odd: a sweep is in flight.
    assert_eq!(ks[3], EventKind::RevokerStart { epoch: 1 });
    match ks[4] {
        EventKind::RevokerFinish { epoch, .. } => assert_eq!(epoch, 2),
        other => panic!("expected revoker_finish, got {other:?}"),
    }
    // a's chunk was quarantined at epoch 0; the completed sweep (now at
    // epoch 2) provably passed over it, so the next malloc's entry drain
    // releases it before carving b.
    assert_eq!(
        ks[5],
        EventKind::QuarantineRelease {
            chunk: a_user - HDR,
            size: chunk_size,
        }
    );
    assert_eq!(
        ks[6],
        EventKind::Malloc {
            base: b_user,
            size: 64,
        }
    );
    assert!(matches!(ks[7], EventKind::Free { base, .. } if base == b_user));
    assert_eq!(
        ks[8],
        EventKind::QuarantinePush {
            chunk: b_user - HDR,
            size: chunk_size,
            epoch: 2,
        }
    );
    assert_eq!(ks[9], EventKind::RevokerStart { epoch: 3 });

    // The metrics registry counted every stage of the lifecycle.
    let t = m.tracer().unwrap();
    assert_eq!(t.metrics.counter("malloc"), 2);
    assert_eq!(t.metrics.counter("free"), 2);
    assert_eq!(t.metrics.counter("quarantine_push"), 2);
    assert_eq!(t.metrics.counter("quarantine_release"), 1);
    assert_eq!(t.metrics.counter("bytes_allocated"), 128);
    assert_eq!(
        t.metrics.histogram("malloc_bytes").map(|h| h.count()),
        Some(2)
    );
}

#[test]
fn software_revoker_pairs_start_and_finish() {
    // The software revoker sweeps synchronously inside `free`, so the
    // whole epoch lifecycle (start, finish, release) lands in one event
    // burst with nothing interleaved.
    let mut m = traced_machine();
    let mut h = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Software));
    h.quarantine_threshold = 1;

    let a = h.malloc(&mut m, 32).unwrap();
    let a_user = a.base();
    h.free(&mut m, a).unwrap();

    let ks = kinds(&m);
    assert_eq!(ks.len(), 6, "unexpected event stream: {ks:#?}");
    assert!(matches!(ks[0], EventKind::Malloc { base, size: 32 } if base == a_user));
    assert!(matches!(ks[1], EventKind::Free { base, .. } if base == a_user));
    assert!(
        matches!(ks[2], EventKind::QuarantinePush { chunk, epoch: 0, .. } if chunk == a_user - HDR)
    );
    assert_eq!(ks[3], EventKind::RevokerStart { epoch: 1 });
    // Nothing in the heap held a capability to `a`, so the sweep strips
    // no tags.
    assert_eq!(
        ks[4],
        EventKind::RevokerFinish {
            epoch: 2,
            words_invalidated: 0,
        }
    );
    assert!(matches!(ks[5], EventKind::QuarantineRelease { chunk, .. } if chunk == a_user - HDR));
}

#[test]
fn software_sweep_reports_stripped_words_and_filter_events() {
    // Plant a stale capability inside the heap (a live object holding a
    // pointer to a freed one): the sweep must strip it, the strip must
    // surface as a filter_strip event between revoker_start and
    // revoker_finish, and the finish event's `words_invalidated` must
    // count it.
    let mut m = traced_machine();
    let mut h = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Software));
    h.quarantine_threshold = 1;
    let heap_cap = Capability::root_mem_rw()
        .with_address(m.cfg().heap_base())
        .set_bounds(u64::from(m.cfg().heap_end() - m.cfg().heap_base()))
        .unwrap();

    let holder = h.malloc(&mut m, 16).unwrap();
    let victim = h.malloc(&mut m, 64).unwrap();
    m.meter()
        .store_cap(heap_cap, holder.base(), victim)
        .unwrap();
    h.free(&mut m, victim).unwrap();

    let ks = kinds(&m);
    let start = ks
        .iter()
        .position(|k| matches!(k, EventKind::RevokerStart { .. }))
        .expect("sweep started");
    let finish = ks
        .iter()
        .position(|k| matches!(k, EventKind::RevokerFinish { .. }))
        .expect("sweep finished");
    assert!(start < finish);
    let strips: Vec<u32> = ks[start..finish]
        .iter()
        .filter_map(|k| match k {
            EventKind::FilterStrip { addr } => Some(*addr),
            _ => None,
        })
        .collect();
    assert_eq!(
        strips,
        vec![holder.base()],
        "exactly the planted stale capability is stripped, in-sweep"
    );
    assert_eq!(
        ks[finish],
        EventKind::RevokerFinish {
            epoch: 2,
            words_invalidated: 1,
        }
    );
    // And the stale copy really is dead.
    let stale = m.meter().load_cap(heap_cap, holder.base()).unwrap();
    assert!(!stale.tag());
}
